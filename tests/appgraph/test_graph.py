"""CommunicationGraph tests (Def. 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.appgraph import CommunicationEdge, CommunicationGraph
from repro.errors import ConfigurationError


def small_cg():
    return CommunicationGraph(
        "toy", ["a", "b", "c"], [(0, 1, 10.0), (1, 2, 20.0), (0, 2, 5.0)]
    )


class TestConstruction:
    def test_counts(self):
        cg = small_cg()
        assert cg.n_tasks == 3
        assert cg.n_edges == 3

    def test_task_lookup(self):
        cg = small_cg()
        assert cg.task_index("b") == 1
        assert cg.task_name(2) == "c"

    def test_unknown_task(self):
        with pytest.raises(ConfigurationError):
            small_cg().task_index("zz")

    def test_edge_tuples_without_bandwidth(self):
        cg = CommunicationGraph("toy", ["a", "b"], [(0, 1)])
        assert cg.edges[0].bandwidth == 1.0

    def test_edge_objects(self):
        cg = CommunicationGraph("toy", ["a", "b"], [CommunicationEdge(0, 1, 3.0)])
        assert cg.edges[0].bandwidth == 3.0

    def test_self_loop_rejected(self):
        with pytest.raises(ConfigurationError, match="self-loop"):
            CommunicationGraph("bad", ["a", "b"], [(0, 0, 1.0)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate edge"):
            CommunicationGraph("bad", ["a", "b"], [(0, 1), (0, 1)])

    def test_opposite_edges_allowed(self):
        cg = CommunicationGraph("ok", ["a", "b"], [(0, 1), (1, 0)])
        assert cg.n_edges == 2

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ConfigurationError, match="outside"):
            CommunicationGraph("bad", ["a", "b"], [(0, 2)])

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError, match="bandwidth"):
            CommunicationGraph("bad", ["a", "b"], [(0, 1, 0.0)])

    def test_no_edges_rejected(self):
        with pytest.raises(ConfigurationError, match="no edges"):
            CommunicationGraph("bad", ["a", "b"], [])

    def test_duplicate_task_names_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate task"):
            CommunicationGraph("bad", ["a", "a"], [(0, 1)])

    def test_needs_name(self):
        with pytest.raises(ConfigurationError):
            CommunicationGraph("", ["a", "b"], [(0, 1)])

    def test_from_named_edges(self):
        cg = CommunicationGraph.from_named_edges(
            "toy", [("x", "y", 1.0), ("y", "z", 2.0)]
        )
        assert cg.tasks == ("x", "y", "z")
        assert cg.n_edges == 2


class TestArrayViews:
    def test_edge_array(self):
        array = small_cg().edge_array()
        assert array.shape == (3, 2)
        assert list(array[0]) == [0, 1]

    def test_bandwidth_array(self):
        assert list(small_cg().bandwidth_array()) == [10.0, 20.0, 5.0]

    def test_total_bandwidth(self):
        assert small_cg().total_bandwidth() == 35.0


class TestSerializationMask:
    def test_diagonal_false(self):
        mask = small_cg().serialization_mask()
        assert not mask[0, 0] and not mask[1, 1] and not mask[2, 2]

    def test_shared_source_excluded(self):
        # edges 0 (a->b) and 2 (a->c) share the source a
        mask = small_cg().serialization_mask()
        assert not mask[0, 2] and not mask[2, 0]

    def test_shared_destination_excluded(self):
        # edges 1 (b->c) and 2 (a->c) share the destination c
        mask = small_cg().serialization_mask()
        assert not mask[1, 2] and not mask[2, 1]

    def test_chain_edges_interfere(self):
        # edges 0 (a->b) and 1 (b->c): b receives and sends — full duplex
        mask = small_cg().serialization_mask()
        assert mask[0, 1] and mask[1, 0]

    def test_mask_symmetric(self):
        mask = small_cg().serialization_mask()
        assert np.array_equal(mask, mask.T)


class TestStructure:
    def test_degrees(self):
        cg = small_cg()
        assert cg.out_degree(0) == 2
        assert cg.in_degree(2) == 2

    def test_graph_view(self):
        g = small_cg().graph()
        assert g.number_of_nodes() == 3
        assert g["a"]["b"]["bandwidth"] == 10.0

    def test_weak_connectivity(self):
        assert small_cg().is_weakly_connected()
        disconnected = CommunicationGraph(
            "two", ["a", "b", "c", "d"], [(0, 1), (2, 3)]
        )
        assert not disconnected.is_weakly_connected()


@given(st.integers(min_value=2, max_value=12), st.data())
@settings(max_examples=30, deadline=None)
def test_mask_never_allows_shared_endpoints(n_tasks, data):
    n_edges = data.draw(
        st.integers(min_value=1, max_value=min(n_tasks * (n_tasks - 1), 20))
    )
    possible = [
        (a, b) for a in range(n_tasks) for b in range(n_tasks) if a != b
    ]
    picks = data.draw(
        st.lists(
            st.sampled_from(possible),
            min_size=n_edges,
            max_size=n_edges,
            unique=True,
        )
    )
    cg = CommunicationGraph(
        "random", [f"t{i}" for i in range(n_tasks)], [(a, b, 1.0) for a, b in picks]
    )
    mask = cg.serialization_mask()
    pairs = cg.edge_array()
    for i in range(len(picks)):
        for j in range(len(picks)):
            shares = (
                i == j
                or pairs[i, 0] == pairs[j, 0]
                or pairs[i, 1] == pairs[j, 1]
            )
            assert mask[i, j] == (not shares)


@given(st.integers(min_value=2, max_value=12), st.data())
@settings(max_examples=60, deadline=None)
def test_weak_connectivity_matches_networkx(n_tasks, data):
    # The union-find must agree with networkx on every graph shape,
    # including CGs whose isolated tasks touch no edge at all.
    import networkx as nx

    possible = [
        (a, b) for a in range(n_tasks) for b in range(n_tasks) if a != b
    ]
    picks = data.draw(
        st.lists(
            st.sampled_from(possible),
            min_size=1,
            max_size=min(len(possible), 20),
            unique=True,
        )
    )
    cg = CommunicationGraph(
        "random", [f"t{i}" for i in range(n_tasks)], picks
    )
    assert cg.is_weakly_connected() == nx.is_weakly_connected(cg.graph())
