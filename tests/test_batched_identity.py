"""Property checks: block evaluations are bit-identical to one item at a time.

The references below are the per-sample margin (a 1-D lp_margin call, with
the sign and bracket of the exact per-sample sum), the per-p call, the
per-support solve loop over every size (test_solvers._reference_scan, which
the l0 tests there share), the per-step T2 loop, the per-t loop of the T2
limit gaps, the per-row read of the l0 set off the basic solutions and the
per-sample T3 residual loop that the block kernels and the basis scan
replaced, and the
earlier forms of two block kernels: the basis scan that built its solutions
row by row (_object_scan) and the lp argmin that took an exact sum of every
basic solution (_padded_lp_basic); every comparison is exact (==, or bit
patterns where a signed zero could hide), except two.  log10_x_t, which the T2 harness now derives from log x_t (see
test_t2_steps_equal_per_step_loop).  And the coefficients of the bases the
determinant screen clears, which the basis scan solves by LU and the
reference by SVD: their supports, order and l0 level are compared with ==,
the coefficients within a forward-error bound (test_solvers.COEFF_FACTOR).
"""

import math
import struct

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from lp_equiv.matgen import (  # noqa: E402
    AugmentedSpec,
    DenseMatrix,
    VandermondeSpec,
    b_vectors,
    build_augmented_0,
    build_augmented_t,
    build_vandermonde,
    extend_lambda,
    power_rows,
    sample_instance,
)
from lp_equiv import solvers  # noqa: E402
from lp_equiv.numerics import (  # noqa: E402
    BLOCK,
    POWER_FLOOR,
    abs_pow,
    derive_seed,
    iter_subset_chunks,
    lp_margin,
    lp_power_sum,
    numerical_rank,
)
from lp_equiv.solvers import (  # noqa: E402
    DEFAULT_SCALES,
    DEFAULT_T_SCHEDULE,
    LIFT_RESIDUAL_FACTOR,
    MAX_EXPLICIT_SCALE,
    RESIDUAL_TOL,
    ZERO_COEFF,
    LpMinimum,
    MatrixFacts,
    SparseProblem,
    SparseSolution,
    enumerate_basic_solutions,
    null_space_basis,
    plant_sparse_instance,
    sample_null,
    solve_l0,
    solve_lp_basic,
    verify_theorem2,
    verify_theorem3,
)
from lp_equiv.solvers import _l0_from_basics, _limit_gaps  # noqa: E402
from lp_equiv.spectral import gram_spectrum  # noqa: E402
from test_numerics import assert_bracketed  # noqa: E402
from test_solvers import (  # noqa: E402
    _assert_same_basics,
    _recorded_svd_solves,
    _reference_scan,
    as_block,
    worked_problem,
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
    got = lp_margin(x, H, p)
    # bit patterns, not ==, so that a -0.0 against a 0.0 fails
    assert [struct.pack("<d", v) for v in got] == [struct.pack("<d", lp_margin(x, h, p)) for h in H]
    # each has the sign of the per-sample exact sum, within its bracket
    assert_bracketed(got.tolist(), [(abs_pow(x + h, p) - abs_pow(x, p)).tolist() for h in H])


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
    for got, per_p in (
        (lp_power_sum(x + H, grid), [lp_power_sum(x + H, p) for p in grid]),
        (lp_power_sum(x, grid), [lp_power_sum(x, p) for p in grid]),
        (lp_margin(x, H, grid), [lp_margin(x, H, p) for p in grid]),
        (lp_margin(x, H[0], grid), [lp_margin(x, H[0], p) for p in grid]),
    ):
        assert got.tobytes() == np.array(per_p).tobytes()


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
        assert np.array_equal(lp_margin(x_pad, H_pad, q), lp_margin(x, H, q))
        assert np.array_equal(lp_margin(x_pad, H_pad[0], q), lp_margin(x, H[0], q))


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
    assert l0.level == level
    _assert_same_basics(M, l0.solutions, tuple(by_size[level]))
    _assert_same_basics(M, enumerate_basic_solutions(prob), basics)


def _planted_problem(m, n, k, seed):
    """A planted problem on the node matrix of sample_instance(m, n, seed)."""
    return plant_sparse_instance(build_vandermonde(sample_instance(m, n, seed=seed)), k, seed + 100)


# enumerate_basic_solutions scans only the bases and re-solves the supports
# read off them; the reference solves every support of every size
@pytest.mark.parametrize("m", range(2, 6))
def test_basis_scan_equals_every_size_loop_on_the_node_grid(m):
    for n in range(m + 1, 11):
        for k in range(1, m + 1):
            for seed in (0, 1):
                prob = _planted_problem(m, n, k, seed).problem
                got, expected = enumerate_basic_solutions(prob), _reference_scan(prob)[1]
                _assert_same_basics(prob.matrix.entries, got, expected)


def _read_off(sol):
    """The support of a solution's coefficients above the ZERO_COEFF cut."""
    mag = np.abs(sol.coefficients)
    return tuple(i for i, v in zip(sol.support, mag) if v > ZERO_COEFF * mag.max())


# a basis reads down to a support that is not minimal: (3, 4, 7) on the
# first, (1, 7, 8) and (1, 7, 8, 9) on the second, whose own solves read
# down again (2 and 3 sizes of re-solves); the bases they come from are
# ones the determinant screen leaves to the SVD
@pytest.mark.parametrize(
    "m, n, k, seed, read_off",
    [(5, 8, 2, 6, {(3, 4, 7)}), (5, 10, 1, 4, {(1, 7, 8), (1, 7, 8, 9)})],
    ids=["5x8-k2-seed6", "5x10-k1-seed4"],
)
def test_basis_scan_re_solves_a_non_minimal_read_off(m, n, k, seed, read_off, monkeypatch):
    prob = _planted_problem(m, n, k, seed).problem
    by_size, basics = _reference_scan(prob)
    minimal = {s.support for s in basics}
    assert {_read_off(s) for s in by_size[max(by_size)]} - minimal == read_off
    solved = _recorded_svd_solves(monkeypatch)
    _assert_same_basics(prob.matrix.entries, enumerate_basic_solutions(prob), basics)
    assert read_off <= set(solved)


def _object_scan(prob) -> tuple[SparseSolution, ...]:
    """enumerate_basic_solutions as it was before its block form: the same
    solves, each kept row turned into a SparseSolution and each read-off
    support into a tuple by a loop over rows, one sort at the end."""
    M, b = prob.matrix.entries, prob.b
    n = M.shape[1]
    nb = float(np.linalg.norm(b))
    if nb <= POWER_FLOOR:
        return (SparseSolution(support=(), coefficients=()),)
    r = numerical_rank(np.linalg.svd(M, compute_uv=False))
    out, read = [], {}

    def take(supports, coeff, res):
        ok = res <= RESIDUAL_TOL * nb
        supports, coeff = supports[ok], coeff[ok]
        mag = np.abs(coeff)
        nonzero = mag > ZERO_COEFF * np.max(mag, axis=1, keepdims=True)
        keep = nonzero.all(axis=1)
        for sup, c in zip(supports[keep].tolist(), coeff[keep].tolist()):
            out.append(SparseSolution(support=tuple(sup), coefficients=tuple(c)))
        for sup, nz in zip(supports[~keep].tolist(), nonzero[~keep].tolist()):
            smaller = tuple(i for i, z in zip(sup, nz) if z)
            if smaller:
                read.setdefault(len(smaller), set()).add(smaller)

    def solve(supports):
        full, coeff, res = solvers._solve_supports(M, b, supports)
        take(supports[full], coeff, res)

    for subsets in iter_subset_chunks(n, r):
        if r == M.shape[0]:
            cleared, coeff, res = solvers._solve_bases(M, b, subsets)
            take(subsets[cleared], coeff, res)
            subsets = subsets[~cleared]
        if len(subsets):
            solve(subsets)
    for size in range(r - 1, 0, -1):
        pending = np.array(sorted(read.pop(size, ())), dtype=np.intp).reshape(-1, size)
        for start in range(0, len(pending), BLOCK):
            solve(pending[start : start + BLOCK])
    return tuple(sorted(out, key=lambda s: (len(s.support), s.support)))


def _solution_bits(solutions):
    """Supports and coefficient bit patterns, in order."""
    return [(s.support, [struct.pack("<d", c) for c in s.coefficients]) for s in solutions]


def _assert_block_equals_object_scan(prob):
    got = enumerate_basic_solutions(prob)
    expected = _object_scan(prob)
    assert _solution_bits(got) == _solution_bits(expected)
    # the l0 set read off the block in one pass equals its leading rows read
    # one at a time: supports, coefficient bits and order
    l0 = _l0_from_basics(got)
    per_row = [got[i] for i in range(len(got)) if got.sizes[i] == got.sizes[0]]
    assert l0.level == len(per_row[0].support)
    assert _solution_bits(l0.solutions) == _solution_bits(per_row)
    # the block's own arrays say the same: sizes ascending, zero padding
    assert got.sizes.tolist() == [len(s.support) for s in expected]
    width = got.supports.shape[1]
    assert got.supports.tolist() == [list(s.support) + [0] * (width - len(s.support)) for s in expected]
    padded = np.zeros((len(expected), width))
    for row, sol in zip(padded, expected):
        row[: len(sol.coefficients)] = sol.coefficients
    assert got.coefficients.tobytes() == padded.tobytes()


@pytest.mark.parametrize("m", range(2, 6))
def test_basis_block_equals_object_scan_on_the_node_grid(m):
    # k = m included: there every basis is a basic solution of the level, and
    # the l0 set is the whole block
    for n in range(m + 1, m + 5):
        for k in range(1, m + 1):
            for seed in range(3):
                _assert_block_equals_object_scan(_planted_problem(m, n, k, seed).problem)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_basis_block_equals_object_scan_on_small_integer_matrices(data):
    # small integer entries make rank-deficient bases and zero coefficients,
    # so read-offs, and read-offs of read-offs, are common
    m = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(m + 1, 8))
    M = data.draw(hnp.arrays(float, (m, n), elements=st.integers(-2, 2).map(float)))
    x = data.draw(hnp.arrays(float, n, elements=st.sampled_from([0.0, 0.0, 0.5, -1.25, 3.0])))
    _assert_block_equals_object_scan(SparseProblem(DenseMatrix(M), M @ x))


# the read-off sizes solved below the bases: the supports read off the
# bases are solved and read down again, over two sizes on the first and
# three on the second, before the loop reaches its fixpoint
@pytest.mark.parametrize(
    "m, n, k, seed, sizes",
    [(5, 8, 2, 6, {2, 3}), (5, 10, 1, 4, {1, 3, 4})],
    ids=["5x8-k2-seed6", "5x10-k1-seed4"],
)
def test_basis_block_equals_object_scan_through_the_read_off_fixpoint(m, n, k, seed, sizes, monkeypatch):
    prob = _planted_problem(m, n, k, seed).problem
    solved = _recorded_svd_solves(monkeypatch)
    _assert_block_equals_object_scan(prob)
    assert {len(s) for s in solved} - {m} == sizes


def test_basis_block_equals_object_scan_when_one_solve_reads_off_two_sizes():
    # b = -1.25 (m_4 + m_5): among the bases of this integer matrix, one
    # block of solves has rows that read down to 2 and to 3 columns
    M = np.array(
        [[1.0, -1.0, 0.0, 1.0, 2.0, 0.0],
         [-2.0, 0.0, 1.0, -1.0, 1.0, 1.0],
         [-1.0, -1.0, 2.0, 1.0, -2.0, -1.0],
         [1.0, 1.0, -1.0, 2.0, 1.0, -1.0]]
    )
    prob = SparseProblem(DenseMatrix(M), M @ np.array([0.0, 0.0, 0.0, 0.0, -1.25, -1.25]))
    _assert_block_equals_object_scan(prob)
    assert {len(s.support) for s in enumerate_basic_solutions(prob)} >= {2, 3}


def _padded_lp_basic(basics, ps):
    """solve_lp_basic as it was before its certified argmin: an exact sum
    (math.fsum) of every basic solution's powers, from one abs_pow call on
    the zero-padded coefficients."""
    solutions = list(basics)
    padded = np.zeros((len(solutions), max(len(s.coefficients) for s in solutions)))
    for row, s in zip(padded, solutions):
        row[: len(s.coefficients)] = s.coefficients
    out = []
    for p, powers in zip(ps, abs_pow(padded, ps).tolist()):
        values = [math.fsum(terms) for terms in powers]
        vmin = min(values)
        tie = vmin + 1e-10 * max(1.0, abs(vmin))
        out.append(LpMinimum(p=p, value=vmin, minimizers=tuple(s for s, v in zip(solutions, values) if v <= tie)))
    return out


def _assert_lp_minima_equal(got, expected):
    assert got == expected
    assert [struct.pack("<d", g.value) for g in got] == [struct.pack("<d", e.value) for e in expected]


LP_EXPONENTS = st.one_of(st.sampled_from([1e-16, 1e-12, 1e-6, 0.5, 1.0]), st.floats(1e-16, 1.0))


@st.composite
def _basic_solution_sets(draw):
    """Up to 24 solutions on up to 6 columns: magnitudes log-uniform over
    [1e-12, 1e4], and rows that repeat an earlier row's coefficients
    permuted (an exact tie) or with one of them moved by up to 1e-10
    relative (sums within 1e-10 of each other)."""
    width = draw(st.integers(1, 6))
    rows = []
    for i in range(draw(st.integers(1, 24))):
        kind = draw(st.sampled_from(["fresh", "tie", "near"])) if rows else "fresh"
        if kind == "fresh":
            size = draw(st.integers(1, width))
            logs = draw(st.lists(st.floats(-12.0, 4.0), min_size=size, max_size=size))
            signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=size, max_size=size))
            coeff = [sign * 10.0**v for sign, v in zip(signs, logs)]
        else:
            coeff = list(draw(st.sampled_from(rows))[1])
            coeff = draw(st.permutations(coeff))
            if kind == "near":
                j = draw(st.integers(0, len(coeff) - 1))
                coeff[j] *= 1.0 + draw(st.floats(-1e-10, 1e-10))
        rows.append((tuple(range(i, i + len(coeff))), tuple(coeff)))
    return [SparseSolution(support, coeff) for support, coeff in rows]


@settings(max_examples=300, deadline=None)
@given(solutions=_basic_solution_sets(), grid=st.lists(LP_EXPONENTS, min_size=1, max_size=6))
def test_certified_lp_argmin_equals_padded_exact_sums(solutions, grid):
    block = as_block(solutions)
    _assert_lp_minima_equal(solve_lp_basic(None, grid, basics=block), _padded_lp_basic(solutions, grid))
    _assert_lp_minima_equal([solve_lp_basic(None, grid[0], basics=block)], _padded_lp_basic(solutions, grid[:1]))


def test_certified_lp_argmin_at_the_edge_of_the_tie_band():
    # at p = 1 the band of 1.0 ends at tie = fl(1 + 1e-10): a solution worth
    # exactly tie is a minimizer, one a float above it is not, though the
    # float-sum bracket keeps both as candidates.  The two-term rows reach
    # those sums by exact addition; the three-term row's exact sum rounds
    # to tie while its float sum, (a + t) + t with t between half and three
    # quarters of an ulp, rounds up twice to tie + ulp: only the bracket
    # keeps it a candidate.  Every term here is its own exp(log(.)), so the
    # sums are those of the coefficients.
    tie = 1.0 + 1e-10
    ulp = float(np.spacing(tie))
    above = tie + ulp
    t = float.fromhex("0x1.19b13165d3997p-53")
    solutions = [
        SparseSolution((0,), (1.0,)),
        SparseSolution((1,), (tie,)),
        SparseSolution((2,), (above,)),
        SparseSolution((0, 1), (0.5, tie - 0.5)),
        SparseSolution((0, 2), (-0.5, above - 0.5)),
        SparseSolution((3, 4, 5), (tie - ulp, t, -t)),
    ]
    terms = abs_pow(np.array([tie - ulp, t, t]), 1.0)
    assert terms.tolist() == [tie - ulp, t, t]
    assert terms.sum() == above and math.fsum(terms.tolist()) == tie
    got = solve_lp_basic(None, [1.0, 0.5], basics=as_block(solutions))
    _assert_lp_minima_equal(got, _padded_lp_basic(solutions, [1.0, 0.5]))
    assert [s.support for s in got[0].minimizers] == [(0,), (1,), (0, 1), (3, 4, 5)]


def test_certified_lp_argmin_equals_padded_exact_sums_on_node_problems():
    grid = (1e-16, 1e-9, 1e-4, 0.3, 0.5, 1.0)
    for m, n, k, seed in [(2, 5, 1, 0), (3, 7, 2, 1), (4, 8, 3, 2), (5, 10, 1, 4), (5, 8, 2, 6)]:
        basics = enumerate_basic_solutions(_planted_problem(m, n, k, seed).problem)
        _assert_lp_minima_equal(solve_lp_basic(None, grid, basics=basics), _padded_lp_basic(basics, grid))
    worked = worked_problem()
    _assert_lp_minima_equal(solve_lp_basic(worked, grid), _padded_lp_basic(enumerate_basic_solutions(worked), grid))


def _reference_t2_step(spec, p, h, l, order, t, tail, step):
    """The explicit-matrix keys of one T2 step from its own A_t, one SVD."""
    m, n = spec.m, spec.n
    labs = np.abs(l[order])
    log_x = math.log(m + 1) / p - math.log(labs[0]) - math.log(t)
    x_t = math.exp(log_x) if log_x < 709.0 else math.inf
    y_t = 1.0 / (labs[1] * t)
    if not (x_t <= MAX_EXPLICIT_SCALE and y_t <= MAX_EXPLICIT_SCALE):
        step["explicit_skipped"] = f"row scale above MAX_EXPLICIT_SCALE = {MAX_EXPLICIT_SCALE:g}"
        return
    scales = np.concatenate([[x_t], np.full(m + 1, y_t)])
    At = np.zeros((2 * m + 2, n + m + 2))
    At[:m, :n] = power_rows(spec.lam, np.arange(m))
    At[m:, :n] = scales[:, None] * b_vectors(spec)[order]
    At[m:, n:] = np.eye(m + 2)
    hhat = np.concatenate([h, [-x_t * l[order[0]]], tail])
    r = At @ hhat
    err = float(np.max(np.abs(r) / (np.abs(At) @ np.abs(hhat))))
    step["explicit_residual"] = float(np.linalg.norm(r))
    step["explicit_componentwise_backward_error"] = err
    step["explicit_componentwise_backward_error_ok"] = (
        err <= LIFT_RESIDUAL_FACTOR * (n + m + 2) * np.finfo(float).eps
    )
    spectrum = gram_spectrum(DenseMatrix(At))
    if spectrum.rank == 2 * m + 2:
        step["p_star_t"] = spectrum.p_star
        step["chain_applicable"] = p < spectrum.p_star
    else:
        step["p_star_t_skipped"] = (
            f"rank policy kept {spectrum.rank} of the {2 * m + 2} singular"
            " values of the explicit matrix"
        )


def _reference_t2_records(spec, x, p, t_schedule, samples):
    """verify_theorem2's records, one sample and one step at a time, with
    log10_x_t as the sum of base-10 logarithms."""
    m = spec.m
    B = b_vectors(spec)
    base_power = lp_power_sum(x, p)
    t_arr = np.asarray(t_schedule, dtype=float)
    records = []
    for idx in range(len(samples.vectors)):
        h, kind, scale = samples.vectors[idx], samples.kinds[idx], samples.scales[idx]
        l = B @ h
        order = np.lexsort((np.arange(m + 2), -np.abs(l)))
        labs = np.abs(l[order])
        if labs[1] <= POWER_FLOOR:
            records.append({"index": idx, "kind": kind, "scale": scale, "degenerate": True})
            continue
        shifted_power = lp_power_sum(x + h, p)
        tails = -(l[order[1:]] / labs[1])[None, :] / t_arr[:, None]
        steps = []
        for t, tail, tail_power in zip(t_schedule, tails, lp_power_sum(tails, p)):
            head_power = (m + 1) / t**p
            step = {
                "t": t,
                "log10_x_t": math.log10(m + 1) / p - math.log10(labs[0]) - math.log10(t),
                "dominance_ok": head_power >= tail_power * (1.0 - 1e-12),
                "tail_bound_ok": bool(np.all(np.abs(tail[1:]) <= (1.0 / t) * (1.0 + 1e-12))),
                "chain_margin": (shifted_power + tail_power) - (base_power + head_power),
                "lifted_l0": int(np.sum(x != 0.0)) + 1,
            }
            _reference_t2_step(spec, p, h, l, order, t, tail, step)
            steps.append(step)
        records.append(
            {
                "index": idx,
                "kind": kind,
                "scale": scale,
                "l1_abs": float(labs[0]),
                "l2_abs": float(labs[1]),
                "final_margin": lp_margin(x, h, p),
                "steps": steps,
            }
        )
    return records


# log10_x_t was log10(m+1)/p - log10|l_(1)| - log10 t and is now log x_t / ln 10:
# each side rounds three logarithms, a quotient and two differences (the new one
# also ln 10 and one more quotient), each within half an ulp of the largest of
# the three terms, so the two differ by a few of its ulps (4 at most measured)
LOG10_ULPS = 8


@pytest.mark.parametrize(
    "m,n,seed,p_frac,t_schedule,trials",
    [
        *[(m, 2 * m + 2 + seed, seed, frac, DEFAULT_T_SCHEDULE, 21)
          for m in range(1, 5) for seed in (0, 1) for frac in (None, 0.9)],
        (2, 7, 3, None, (2.0, 30.0, 500.0), 21),
        (1, 4, 2, None, DEFAULT_T_SCHEDULE, BLOCK // len(DEFAULT_T_SCHEDULE) + 30),
    ],
)
def test_t2_steps_equal_per_step_loop(m, n, seed, p_frac, t_schedule, trials):
    spec = sample_instance(m, n, seed=seed)
    p_star0 = gram_spectrum(build_augmented_0(spec)).p_star
    p_check = None if p_frac is None else p_frac * p_star0
    rep = verify_theorem2(spec, m, p_check=p_check, t_schedule=t_schedule, trials=trials, seed=seed)
    count = max(1, math.ceil(trials / len(DEFAULT_SCALES)))
    A = build_vandermonde(spec)
    samples = sample_null(MatrixFacts(A), count, seed=derive_seed(seed, "thm2-null"))
    reference = _reference_t2_records(spec, np.array(rep.x_star), rep.p_check, t_schedule, samples)

    def pop_log10(records):
        return [
            (step.pop("log10_x_t"), record["l1_abs"], step["t"])
            for record in records
            for step in record.get("steps", ())
        ]

    got = list(rep.records)
    got_logs, ref_logs = pop_log10(got), pop_log10(reference)
    assert got == reference
    for (new, l1_abs, t), (old, _, _) in zip(got_logs, ref_logs, strict=True):
        largest = max(abs(math.log10(m + 1) / rep.p_check), abs(math.log10(l1_abs)), math.log10(t))
        assert abs(new - old) <= LOG10_ULPS * np.spacing(largest)
    explicit = sum("explicit_residual" in s for r in got for s in r.get("steps", ()))
    if m <= 2:
        assert explicit > 0
    if len(samples.vectors) * len(t_schedule) > BLOCK:
        assert explicit > BLOCK


def _reference_limit_gaps(spec, p_star0, t_schedule):
    """verify_theorem2's limit gaps as they were, one A_t built and
    summarized per step."""
    gaps = []
    for t in t_schedule:
        At = build_augmented_t(AugmentedSpec(base=spec, x_t=1.0 / t, y_t=1.0 / t))
        gaps.append(abs(gram_spectrum(At).p_star - p_star0))
    return gaps


@pytest.mark.parametrize("t_schedule", [DEFAULT_T_SCHEDULE, (1000.0,)], ids=["default", "one-step"])
@pytest.mark.parametrize("nodes", ["signed", "abs"])
@pytest.mark.parametrize("m", range(1, 5))
def test_limit_gaps_equal_per_t_loop(m, nodes, t_schedule):
    for n in (2 * m + 2, 2 * m + 3):
        for seed in range(10):
            spec = sample_instance(m, n, seed=seed)
            if nodes == "abs":
                spec = VandermondeSpec(m, tuple(abs(v) for v in spec.lam), seed=spec.seed)
            p_star0 = gram_spectrum(build_augmented_0(spec)).p_star
            got = _limit_gaps(spec, p_star0, t_schedule)
            expected = _reference_limit_gaps(spec, p_star0, t_schedule)
            assert [g.hex() for g in got] == [e.hex() for e in expected]
    # and through the harness, on the last instance
    rep = verify_theorem2(spec, m, t_schedule=t_schedule, trials=3, seed=0)
    assert rep.limit_gaps == tuple(expected)


def _reference_t3_residuals(spec, seed, trials):
    """verify_theorem3's worst embedding and block residuals, one padded
    kernel sample and one extended kernel basis vector at a time."""
    m, n = spec.m, spec.n
    ext = extend_lambda(spec, derive_seed(seed, "thm3-extend"))
    A_ext, A0_ext = build_vandermonde(ext), build_augmented_0(ext)
    count = max(1, math.ceil(trials / len(DEFAULT_SCALES)))
    A = build_vandermonde(spec)
    samples = sample_null(MatrixFacts(A), count, seed=derive_seed(seed, "thm3-null"))
    worst_embed = 0.0
    for i in range(len(samples.vectors)):
        h_tilde = np.pad(samples.vectors[i], (0, ext.n - n))
        resid = float(np.linalg.norm(A_ext.entries @ h_tilde)) / float(np.linalg.norm(h_tilde))
        worst_embed = max(worst_embed, resid)
    ext_basis = null_space_basis(A_ext)
    worst_block = 0.0
    for j in range(ext_basis.shape[1]):
        g = np.concatenate([ext_basis[:, j], np.zeros(m + 2)])
        worst_block = max(worst_block, float(np.linalg.norm(A0_ext.entries @ g)))
    return worst_embed, worst_block


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("m,n", [(2, 4), (2, 5), (3, 5), (3, 6)])
def test_t3_residuals_equal_per_sample_loop(m, n, seed):
    spec = sample_instance(m, n, seed=seed)
    rep = verify_theorem3(spec, m, trials=21, seed=seed)
    assert (rep.worst_embed_residual, rep.worst_block_residual) == _reference_t3_residuals(
        spec, seed, 21
    )
