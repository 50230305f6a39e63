"""Property checks: block evaluations are bit-identical to one item at a time.

The references below are the per-sample margin, the per-p call and the
per-support solve loop that the block kernels replaced; every comparison is
exact (==).
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from lp_equiv.matgen import DenseMatrix  # noqa: E402
from lp_equiv.numerics import (  # noqa: E402
    RANK_TOL,
    abs_pow,
    iter_subset_chunks,
    lp_margin,
    lp_power_sum,
    numerical_rank,
)
from lp_equiv.solvers import (  # noqa: E402
    RESIDUAL_TOL,
    ZERO_COEFF,
    SparseProblem,
    SparseSolution,
    enumerate_basic_solutions,
    solve_l0,
)

ENTRIES = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1e-301, -1e-300, 1e-320, 1.0]),
)
EXPONENTS = st.one_of(st.sampled_from([1e-6, 1.0]), st.floats(1e-6, 1.0))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_lp_margin_block_equals_per_sample_margins(data):
    n = data.draw(st.integers(1, 8))
    rows = data.draw(st.integers(1, 6))
    x = data.draw(hnp.arrays(float, n, elements=ENTRIES))
    H = data.draw(hnp.arrays(float, (rows, n), elements=ENTRIES))
    p = data.draw(EXPONENTS)
    expected = [math.fsum((abs_pow(x + h, p) - abs_pow(x, p)).tolist()) for h in H]
    assert lp_margin(x, H, p) == expected


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_p_grid_equals_per_p_calls(data):
    n = data.draw(st.integers(1, 8))
    rows = data.draw(st.integers(1, 6))
    x = data.draw(hnp.arrays(float, n, elements=ENTRIES))
    H = data.draw(hnp.arrays(float, (rows, n), elements=ENTRIES))
    grid = data.draw(st.lists(EXPONENTS, min_size=1, max_size=5))
    powers = abs_pow(x + H, grid)
    for i, p in enumerate(grid):
        assert powers[i].tobytes() == abs_pow(x + H, p).tobytes()
    assert lp_power_sum(x + H, grid) == [lp_power_sum(x + H, p) for p in grid]
    assert lp_power_sum(x, grid) == [lp_power_sum(x, p) for p in grid]
    assert lp_margin(x, H, grid) == [lp_margin(x, H, p) for p in grid]
    assert lp_margin(x, H[0], grid) == [lp_margin(x, H[0], p) for p in grid]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_lp_margin_invariant_under_zero_padding(data):
    # zero coordinates in x* and in every h add |0|^p - |0|^p = 0 to an exact sum
    n = data.draw(st.integers(1, 8))
    rows = data.draw(st.integers(1, 4))
    x = data.draw(hnp.arrays(float, n, elements=ENTRIES))
    H = data.draw(hnp.arrays(float, (rows, n), elements=ENTRIES))
    at = data.draw(st.lists(st.integers(0, n), min_size=1, max_size=6))
    x_pad, H_pad = np.insert(x, at, 0.0), np.insert(H, at, 0.0, axis=1)
    p = data.draw(EXPONENTS)
    grid = data.draw(st.lists(EXPONENTS, min_size=1, max_size=4))
    for q in (p, grid):
        assert lp_margin(x_pad, H_pad, q) == lp_margin(x, H, q)
        assert lp_margin(x_pad, H_pad[0], q) == lp_margin(x, H[0], q)


def _solve_one_support(M, b, support):
    sub = M[:, list(support)]
    u, s, vt = np.linalg.svd(sub, full_matrices=False)
    if not (s[0] > 0.0 and int(np.sum(s > RANK_TOL * s[0])) == len(support)):
        return None
    coeff = vt.T @ ((u.T @ b) / s)
    return coeff, float(np.linalg.norm(sub @ coeff - b))


def _reference_scan(prob):
    """(supports solving b at each size, minimal-support basic solutions),
    one support at a time."""
    M, b = prob.matrix.entries, prob.b
    nb = float(np.linalg.norm(b))
    by_size, basics = {}, []
    for size in range(1, numerical_rank(np.linalg.svd(M, compute_uv=False)) + 1):
        by_size[size] = []
        for chunk in iter_subset_chunks(M.shape[1], size):
            for row in chunk.tolist():
                solved = _solve_one_support(M, b, row)
                if solved is None or solved[1] > RESIDUAL_TOL * nb:
                    continue
                sol = SparseSolution(tuple(row), tuple(solved[0].tolist()))
                by_size[size].append(sol)
                mag = np.abs(solved[0])
                if mag.max() > 0.0 and mag.min() > ZERO_COEFF * mag.max():
                    basics.append(sol)
    return by_size, tuple(basics)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_block_support_scans_equal_per_support_loop(data):
    # small integer entries make exactly dependent (rank-deficient) supports common
    m = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(m + 1, 7))
    M = data.draw(hnp.arrays(float, (m, n), elements=st.integers(-2, 2).map(float)))
    x = data.draw(hnp.arrays(float, n, elements=st.sampled_from([0.0, 0.0, 0.5, -1.25, 3.0])))
    b = M @ x
    hypothesis.assume(np.linalg.norm(b) > 0.0)
    prob = SparseProblem(DenseMatrix(M), b)
    by_size, basics = _reference_scan(prob)
    level = min(size for size, sols in by_size.items() if sols)
    l0 = solve_l0(prob)
    assert (l0.level, l0.solutions) == (level, tuple(by_size[level]))
    assert enumerate_basic_solutions(prob) == basics
