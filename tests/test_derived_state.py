"""One pickling rule: no cached property ever reaches a pickle.

The netlist and the communication graph share it
(:class:`repro.derived.DerivedState`), and it walks the class hierarchy,
so a cached property a subclass adds is dropped too: what a TCP worker's
``init`` frame carries never depends on what the sender derived.
"""

import pickle
from functools import cached_property

import numpy as np
import pytest

from repro.appgraph import pipeline_cg
from repro.appgraph.graph import CommunicationGraph
from repro.noc import PhotonicNoC, mesh


class _NetworkWithExtra(PhotonicNoC):
    @cached_property
    def extra(self) -> np.ndarray:
        return np.zeros(4096)


class _GraphWithExtra(CommunicationGraph):
    @cached_property
    def extra(self) -> np.ndarray:
        return np.zeros(4096)


def _network():
    return _NetworkWithExtra(mesh(2, 2))


def _graph():
    plain = pipeline_cg(4)
    return _GraphWithExtra(plain.name, plain.tasks, plain.edges)


@pytest.mark.parametrize("build", [_network, _graph], ids=["network", "graph"])
def test_subclass_cached_property_never_reaches_the_pickle(build):
    instance = build()
    before = pickle.dumps(instance)
    assert instance.extra.shape == (4096,)  # built before pickling
    assert "extra" in vars(instance)
    assert pickle.dumps(instance) == before
    copy = pickle.loads(before)
    assert "extra" not in vars(copy)
    assert copy.extra.shape == (4096,)  # rebuilds on first use
