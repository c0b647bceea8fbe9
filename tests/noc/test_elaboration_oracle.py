"""Path elaboration against an independent per-hop oracle.

The coupling-model builders (vectorized and legacy) both read the paths
the network elaborates, so a wrong tile offset, link loss or state code in
the elaboration would pass every builder-parity test. This oracle rebuilds
each path from the router's port-to-port connections and the network's
wiring alone — sharing no code with the elaboration — and demands the
same element, port and state sequences and the same loss.
"""

import pytest

from repro.noc import GATEWAY
from repro.noc.paths import TRAVERSAL_STATES, Traversal
from repro.noc.routing import walk_plan
from repro.photonics import WG_IN, WG_OUT, ElementKind, TraversalState


def oracle_steps(network, hops):
    """Expected ``(element, in_port, out_port, state)`` steps and loss (dB)."""
    spec = network.router_spec
    local_count = len(spec.elements)
    steps = []
    loss_db = 0.0
    for index, hop in enumerate(hops):
        in_name = "L_in" if hop.in_dir == GATEWAY else f"{hop.in_dir}_in"
        out_name = "L_out" if hop.out_dir == GATEWAY else f"{hop.out_dir}_out"
        base = hop.tile * local_count
        connection = spec.connection(in_name, out_name)
        if index:  # the previous link feeds this router's input
            link = steps[-1][0]
            entry = (base + connection[0].element, connection[0].in_port)
            assert network.follow(link, WG_OUT) == entry
        for step in connection:
            steps.append(
                (base + step.element, step.in_port, step.out_port, step.state)
            )
        loss_db += spec.connection_loss_db(in_name, out_name)
        if index == len(hops) - 1:
            continue
        element, out_port = steps[-1][0], steps[-1][2]
        link, in_port = network.follow(element, out_port)
        info = network.element(link)
        assert in_port == WG_IN and info.kind is ElementKind.WAVEGUIDE
        steps.append((link, WG_IN, WG_OUT, TraversalState.PASSIVE))
        loss_db += network.params.propagation_loss_db(info.length_cm)
    return steps, loss_db


def check_path(network, path, hops):
    expected, loss_db = oracle_steps(network, hops)
    rows = path.steps.tolist()
    assert [row[0] for row in rows] == [step[0] for step in expected]
    assert [row[1] for row in rows] == [step[1] for step in expected]
    assert [row[2] for row in rows] == [step[2] for step in expected]
    assert [TRAVERSAL_STATES[row[3]] for row in rows] == [
        step[3] for step in expected
    ]
    assert abs(path.loss_db - loss_db) <= 1e-12
    assert path.traversals == tuple(Traversal(*step) for step in expected)


@pytest.mark.parametrize("name", ["mesh3", "torus4"])
def test_every_pair_matches_the_oracle(request, name):
    network = request.getfixturevalue(f"{name}_network")
    n_tiles = network.topology.n_tiles
    for src in range(n_tiles):
        for dst in range(n_tiles):
            if src == dst:
                continue
            hops = network.routing.route(network.topology, src, dst)
            check_path(network, network.path(src, dst), hops)


def test_every_route_of_a_torus_menu_matches_the_oracle(torus4_network):
    network = torus4_network
    n_tiles = network.topology.n_tiles
    checked = 0
    for src in range(n_tiles):
        for dst in range(n_tiles):
            if src == dst:
                continue
            menu = network.route_set(src, dst, 3)
            for route in range(menu.n_routes):
                hops = walk_plan(network.topology, src, dst, menu.plan(route))
                check_path(
                    network, network.routed_path(src, dst, route, 3), hops
                )
                checked += 1
    assert checked > n_tiles * (n_tiles - 1)  # the menus really grew
