"""``_row_sum`` is a strictly left-to-right sum, whichever form runs.

Tables of up to ``_ACCUMULATE_ROWS`` rows reduce with one
``np.add.accumulate`` call and wider ones with one add per column; both
must give exactly the bits of the explicit column loop below, signed
zeros included, so a row's sum never depends on the rows beside it.
"""

import numpy as np
import pytest

from repro.core.evaluator import _ACCUMULATE_ROWS, _row_sum


def column_loop(table):
    out = np.zeros(table.shape[:-1], dtype=np.float64)
    for k in range(table.shape[-1]):
        out += table[..., k]
    return out


def bits(values):
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)


def mixed_table(shape, seed):
    """Signed values over 30 decades, with scattered and whole-row zeros.

    Any reordering of such a sum changes low bits, and the all -0.0 row
    tells ``0.0 + -0.0`` (the loop's +0.0) from a sum starting at -0.0.
    """
    rng = np.random.default_rng(seed)
    table = rng.standard_normal(shape) * 10.0 ** rng.integers(-15, 16, size=shape)
    table[rng.random(shape) < 0.1] = -0.0
    table[rng.random(shape) < 0.05] = 0.0
    if table.size:
        table.reshape(-1, shape[-1])[0] = -0.0
    return table


def test_the_switch_sits_at_128_rows():
    assert _ACCUMULATE_ROWS == 128


@pytest.mark.parametrize("rows", [1, 2, 63, 127, 128, 129, 200, 256, 300])
@pytest.mark.parametrize("width", [0, 1, 2, 7, 8, 21, 40, 64])
def test_two_d_tables_sum_like_the_column_loop(rows, width):
    table = mixed_table((rows, width), seed=rows * 1000 + width)
    got = _row_sum(table)
    np.testing.assert_array_equal(bits(got), bits(column_loop(table)))
    if width:
        assert got[0] == 0.0 and not np.signbit(got[0])


@pytest.mark.parametrize(
    "shape",
    [(1, 21, 21), (4, 32, 40), (5, 32, 40), (16, 21, 21), (3, 100, 8), (2, 0, 5)],
    ids=["1x21", "128-rows", "160-rows", "336-rows", "300-rows", "empty"],
)
def test_three_d_tables_sum_like_the_column_loop(shape):
    table = mixed_table(shape, seed=sum(shape))
    np.testing.assert_array_equal(bits(_row_sum(table)), bits(column_loop(table)))


def test_a_row_sums_alike_alone_and_in_a_wide_table():
    """The same row on either side of the switch gives the same bits."""
    table = mixed_table((300, 40), seed=9)
    wide = _row_sum(table)
    for row in (1, 150, 299):
        alone = _row_sum(table[row : row + 1])
        assert bits(alone)[0] == bits(wide)[row]
