"""Communication graph IO tests."""

import json

import pytest

from repro.appgraph import (
    cg_from_dict,
    cg_from_edge_lines,
    cg_to_dict,
    cg_to_dot,
    cg_to_edge_lines,
    load_benchmark,
    load_cg_json,
    save_cg_json,
)
from repro.errors import ConfigurationError


class TestJsonRoundTrip:
    def test_dict_round_trip(self, pip_cg):
        rebuilt = cg_from_dict(cg_to_dict(pip_cg))
        assert rebuilt.name == pip_cg.name
        assert rebuilt.tasks == pip_cg.tasks
        assert rebuilt.edge_pairs() == pip_cg.edge_pairs()
        assert list(rebuilt.bandwidth_array()) == list(pip_cg.bandwidth_array())

    def test_file_round_trip(self, tmp_path, vopd_cg):
        path = tmp_path / "vopd.json"
        save_cg_json(vopd_cg, path)
        rebuilt = load_cg_json(path)
        assert rebuilt.edge_pairs() == vopd_cg.edge_pairs()

    def test_malformed_dict(self):
        with pytest.raises(ConfigurationError):
            cg_from_dict({"name": "x"})

    def test_edge_with_unknown_task(self):
        with pytest.raises(ConfigurationError):
            cg_from_dict(
                {
                    "name": "x",
                    "tasks": ["a", "b"],
                    "edges": [{"src": "a", "dst": "zz", "bandwidth": 1.0}],
                }
            )

    @pytest.mark.parametrize("bandwidth", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_bandwidth_rejected(self, bandwidth):
        """Python's json accepts these literals; the CG must not."""
        text = (
            '{"name": "x", "tasks": ["a", "b"], '
            f'"edges": [{{"src": "a", "dst": "b", "bandwidth": {bandwidth}}}]}}'
        )
        with pytest.raises(ConfigurationError, match="'a' -> 'b'.*finite"):
            cg_from_dict(json.loads(text))


class TestDot:
    def test_contains_all_edges(self, pip_cg):
        dot = cg_to_dot(pip_cg)
        assert dot.startswith('digraph "pip"')
        for edge in pip_cg.edges:
            assert (
                f'"{pip_cg.tasks[edge.src]}" -> "{pip_cg.tasks[edge.dst]}"' in dot
            )

    def test_bandwidth_labels(self, pip_cg):
        assert 'label="128"' in cg_to_dot(pip_cg)


class TestEdgeLines:
    def test_round_trip(self, pip_cg):
        text = cg_to_edge_lines(pip_cg)
        rebuilt = cg_from_edge_lines("pip", text)
        assert rebuilt.edge_pairs() == pip_cg.edge_pairs()

    def test_default_bandwidth(self):
        cg = cg_from_edge_lines("x", "a b\nb c\n")
        assert cg.edges[0].bandwidth == 1.0

    def test_comments_and_blanks_skipped(self):
        cg = cg_from_edge_lines("x", "# header\n\na b 2\n")
        assert cg.n_edges == 1

    def test_malformed_line(self):
        with pytest.raises(ConfigurationError, match="line 1"):
            cg_from_edge_lines("x", "a b c d\n")

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError, match="no edges"):
            cg_from_edge_lines("x", "# nothing\n")


class TestAllBenchmarksRoundTrip:
    def test_every_benchmark_survives_json(self):
        from repro.appgraph import BENCHMARK_NAMES

        for name in BENCHMARK_NAMES:
            cg = load_benchmark(name)
            rebuilt = cg_from_dict(cg_to_dict(cg))
            assert rebuilt.edge_pairs() == cg.edge_pairs()
