"""SA draws a batch's proposals from blocks of generator words.

``SimulatedAnnealing._propose_moves`` must make exactly the draws of a
proposer that calls ``rng.integers(0, n)`` once per bounded integer:
the same moves, and the generator left in the same state, so every SA
run keeps its stream. The reference below is that scalar proposer.
"""

import numpy as np
import pytest

from repro.core.annealing import SimulatedAnnealing, _Words
from repro.core.moves import REROUTE


def scalar_move(assignment, holder, rng):
    n_tasks = len(assignment)
    task = int(rng.integers(0, n_tasks))
    tile = int(rng.integers(0, len(holder)))
    if tile == assignment[task]:
        other = int((task + 1 + rng.integers(0, n_tasks - 1)) % n_tasks)
        return (task, assignment[other], other)
    return (task, tile, holder[tile])


def scalar_joint_move(vector, menus, rerouteable, holder, n_tasks, rng):
    site = int(rng.integers(0, n_tasks + len(rerouteable)))
    if site < n_tasks:
        return scalar_move(vector[:n_tasks], holder, rng)
    edge = rerouteable[site - n_tasks]
    menu = menus[edge]
    gene = int(rng.integers(0, menu - 1))
    if gene >= vector[n_tasks + edge] % menu:
        gene += 1
    return (n_tasks + edge, gene, REROUTE)


def placement(n_tasks, n_tiles, rng):
    assignment = rng.permutation(n_tiles)[:n_tasks]
    return assignment, SimulatedAnnealing._holders(assignment, n_tiles)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "n_tasks, n_tiles",
    [(n_tasks, n_tiles) for n_tasks in (2, 3, 8, 17, 32)
     for n_tiles in (2, 9, 16, 36, 64) if n_tasks <= n_tiles],
)
def test_mapping_moves_and_state_equal_scalar_draws(seed, n_tasks, n_tiles):
    setup = np.random.default_rng(seed + 1000)
    assignment, holder = placement(n_tasks, n_tiles, setup)
    vector = assignment.tolist()
    block = np.random.default_rng(seed)
    scalar = np.random.default_rng(seed)
    for count in (1, 63, 64, 64, 1):
        got = SimulatedAnnealing._propose_moves(count, vector, holder, n_tasks, block)
        want = [scalar_move(vector, holder, scalar) for _ in range(count)]
        assert got == want
        assert block.bit_generator.state == scalar.bit_generator.state
        # SA's acceptance draws sit between two batches' proposals.
        assert block.random() == scalar.random()
        assert block.bit_generator.state == scalar.bit_generator.state


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n_tasks, n_tiles", [(2, 4), (8, 9), (12, 16), (32, 36)])
@pytest.mark.parametrize("max_menu", [2, 3, 5])
def test_joint_moves_and_state_equal_scalar_draws(seed, n_tasks, n_tiles, max_menu):
    setup = np.random.default_rng(seed + 2000)
    assignment, holder = placement(n_tasks, n_tiles, setup)
    n_edges = n_tasks + 3
    menus = setup.integers(1, max_menu + 1, size=n_edges).tolist()
    genes = [int(setup.integers(0, menu)) for menu in menus]
    vector = assignment.tolist() + genes
    rerouteable = [edge for edge, menu in enumerate(menus) if menu > 1]
    block = np.random.default_rng(seed)
    scalar = np.random.default_rng(seed)
    for count in (1, 63, 64):
        got = SimulatedAnnealing._propose_moves(
            count, vector, holder, n_tasks, block, menus, rerouteable
        )
        want = [
            scalar_joint_move(vector, menus, rerouteable, holder, n_tasks, scalar)
            for _ in range(count)
        ]
        assert got == want
        assert block.bit_generator.state == scalar.bit_generator.state
        assert block.random() == scalar.random()


@pytest.mark.parametrize(
    "bound", [1, 2, 3, 7, 100, 2**31 - 1, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32]
)
def test_bounded_draws_equal_generator_integers(bound):
    """Large bounds reject often enough to exercise Lemire's redraw."""
    block = np.random.default_rng(5)
    scalar = np.random.default_rng(5)
    words = _Words(block)
    for _ in range(200):
        assert words.below(bound) == int(scalar.integers(0, bound))
    assert block.bit_generator.state == scalar.bit_generator.state
