import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest

from lp_equiv import solvers
from lp_equiv.matgen import (
    MAX_M,
    AugmentedSpec,
    DenseMatrix,
    VandermondeSpec,
    build_augmented_t,
    build_vandermonde,
    sample_instance,
)
from lp_equiv.numerics import (
    RANK_TOL,
    SCREEN_FACTOR,
    _ratio_lower_bound,
    abs_pow,
    derive_seed,
    iter_subset_chunks,
    lp_margin,
    numerical_rank,
)
from lp_equiv.solvers import (
    DEFAULT_SCALES,
    RESIDUAL_TOL,
    ZERO_COEFF,
    BasicSolutions,
    EquivalenceReport,
    InfeasibleProblemError,
    KernelSamples,
    LpMinimum,
    SparseProblem,
    SparseSolution,
    SparseSolutionSet,
    Theorem1Report,
    default_p_grid,
    enumerate_basic_solutions,
    null_space_basis,
    plant_sparse_instance,
    plant_with_level,
    sample_null,
    solve_l0,
    solve_lp_basic,
    support_partition,
    theorem2_sequences,
    verify_strict_inequality,
    verify_theorem1,
    verify_theorem2,
    verify_theorem3,
)
from lp_equiv.solvers import _l0_from_basics, _minsupport_direction, _solve_supports
from lp_equiv.spark import compute_spark
from lp_equiv.spectral import gram_spectrum


def worked_problem() -> SparseProblem:
    A = build_vandermonde(VandermondeSpec(2, (1.0, 2.0, 3.0)))
    return SparseProblem(A, np.array([2.0, 3.0]))


def test_worked_example_l0_solutions():
    sol = solve_l0(worked_problem())
    assert sol.level == 2
    got = {s.support: tuple(round(c, 9) for c in s.coefficients) for s in sol.solutions}
    assert got == {
        (0, 1): (1.0, 1.0),
        (0, 2): (1.5, 0.5),
        (1, 2): (3.0, -1.0),
    }


def test_worked_example_lp_minimizer_moves_with_p():
    prob = worked_problem()
    # at p = 0.5 the (1.5, 0.5) split wins outright; at p = 1 it ties
    # with (1, 1) at value 2 and both supports are reported
    half = solve_lp_basic(prob, 0.5)
    assert [s.support for s in half.minimizers] == [(0, 2)]
    assert half.value == pytest.approx(1.5**0.5 + 0.5**0.5, rel=1e-12)
    one = solve_lp_basic(prob, 1.0)
    assert [s.support for s in one.minimizers] == [(0, 1), (0, 2)]
    assert one.value == pytest.approx(2.0, rel=1e-12)


def test_zero_rhs_gives_level_zero():
    A = build_vandermonde(VandermondeSpec(2, (1.0, 2.0, 3.0)))
    sol = solve_l0(SparseProblem(A, np.zeros(2)))
    assert sol.level == 0
    assert sol.solutions[0].support == ()
    assert tuple(enumerate_basic_solutions(SparseProblem(A, np.zeros(2)))) == sol.solutions


def test_infeasible_rhs_rejected():
    A = DenseMatrix(np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]]))  # rank 1
    with pytest.raises(InfeasibleProblemError):
        SparseProblem(A, np.array([1.0, 0.0, 0.0]))


def test_basic_solutions_drop_zero_coefficients():
    # b equals column 0, so supports {0, j} solve with a zero on j and must
    # collapse onto the singleton support
    A = build_vandermonde(VandermondeSpec(2, (1.0, 2.0, 3.0)))
    prob = SparseProblem(A, A.entries[:, 0].copy())
    basics = enumerate_basic_solutions(prob)
    supports = [s.support for s in basics]
    assert (0,) in supports
    assert all(min(abs(c) for c in s.coefficients) > 1e-11 for s in basics)
    # the lp minimum at tiny p is the singleton, not a padded 2-support
    lp = solve_lp_basic(prob, 0.01, basics=basics)
    assert [s.support for s in lp.minimizers] == [(0,)]


def test_a_support_solving_b_only_to_tolerance_is_not_read_off():
    # column 2 misses b = e_0 by 1e-8 relative, inside RESIDUAL_TOL, so one
    # support at a time accepts {2}; but the basis {1, 2} keeps the -1e-8 on
    # column 1, above ZERO_COEFF, so no basis reads down to {2}
    A = DenseMatrix(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1e-8]]))
    prob = SparseProblem(A, np.array([1.0, 0.0]))
    assert [s.support for s in _reference_scan(prob)[1]] == [(0,), (2,), (1, 2)]
    assert [s.support for s in enumerate_basic_solutions(prob)] == [(0,), (1, 2)]


# past m = 5 a node matrix has supports one column short of the plant that
# solve b to a relative residual near 5e-7, inside RESIDUAL_TOL; one support
# at a time, such a pseudo-solution set the l0 level one below k
@pytest.mark.parametrize(
    "m, n, k, seed, pseudo",
    [(8, 11, 7, 2, (0, 2, 3, 4, 7, 8)), (8, 12, 8, 0, (0, 3, 4, 5, 6, 8, 10))],
)
def test_l0_level_skips_a_support_solving_b_only_to_tolerance(m, n, k, seed, pseudo):
    inst = plant_sparse_instance(build_vandermonde(sample_instance(m, n, seed=seed)), k, seed + 100)
    sub, b = inst.problem.matrix.entries[:, list(pseudo)], inst.problem.b
    x, *_ = np.linalg.lstsq(sub, b, rcond=None)
    assert 1e-8 < np.linalg.norm(sub @ x - b) / np.linalg.norm(b) < RESIDUAL_TOL
    sol = solve_l0(inst.problem)
    assert sol.level == k and inst.support in sol.supports


def _solve_one_support(M, b, support):
    # the per-support solve the stacked block replaced; None if rank deficient
    sub = M[:, list(support)]
    u, s, vt = np.linalg.svd(sub, full_matrices=False)
    if not (s[0] > 0.0 and int(np.sum(s > RANK_TOL * s[0])) == len(support)):
        return None
    coeff = vt.T @ ((u.T @ b) / s)
    return coeff, float(np.linalg.norm(sub @ coeff - b))


# A basis the determinant screen clears (beta > SCREEN_FACTOR * RANK_TOL) is
# solved by LU in enumerate_basic_solutions (solvers._solve_bases) and by the
# SVD in the reference.  Each solve is backward stable: its row solves a
# problem within c r u ||A_S|| of its own, u = eps/2 (LU with partial pivoting:
# c about 3 times the growth factor, Higham, Accuracy and Stability of
# Numerical Algorithms, 2nd ed., Thm 9.4; the SVD solve: a small multiple,
# ch. 20), so it is within c r u cond(A_S) ||c|| of the exact row, and
# cond(A_S) <= 1/beta (the screen's bound, spark module docstring).  Two such
# rows differ by at most (c_LU + c_SVD) r u / beta ||c||.  COEFF_FACTOR allows
# c_LU + c_SVD up to 32 in units of u; the 3,818 basic-solution sets of the
# node grid (m 2..8) and of 2,878 small-integer matrices read at most 4.8
# (r eps / beta units) in the 2-norm.  Every other row -- an open basis, a
# tall basis, a read-off support -- comes from the same SVD as the
# reference's and stays bit-identical.
COEFF_FACTOR = 16


def _coeff_bound(M, support, coeff) -> float:
    """COEFF_FACTOR r eps / beta ||coeff|| for a square support the screen
    clears, else 0.0 (the row must then be bit-identical)."""
    sub = M[:, list(support)]
    if sub.shape[0] != sub.shape[1]:
        return 0.0
    beta = float(_ratio_lower_bound(sub[None])[0])
    if not beta > SCREEN_FACTOR * RANK_TOL:
        return 0.0
    return COEFF_FACTOR * len(support) * np.finfo(float).eps / beta * float(np.linalg.norm(coeff))


def _assert_same_basics(M, got, expected):
    """got and expected list the same supports in the same order, and each
    coefficient row is bit-identical or, where LU solved it, within the
    forward-error bound above (COEFF_FACTOR)."""
    assert [s.support for s in got] == [s.support for s in expected]
    square = numerical_rank(np.linalg.svd(M, compute_uv=False)) == M.shape[0]
    for g, e in zip(got, expected):
        bound = _coeff_bound(M, e.support, e.coefficients) if square else 0.0
        if bound:
            gap = float(np.linalg.norm(np.subtract(g.coefficients, e.coefficients)))
            assert gap <= bound, (e.support, gap, bound)
        else:
            assert g.coefficients == e.coefficients, e.support


def _recorded_svd_solves(monkeypatch) -> list:
    """Patch solvers._solve_supports to record every support it is given."""
    solved, real = [], solvers._solve_supports

    def recorded(M, b, supports):
        solved.extend(map(tuple, supports.tolist()))
        return real(M, b, supports)

    monkeypatch.setattr(solvers, "_solve_supports", recorded)
    return solved


def as_block(solutions) -> BasicSolutions:
    """SparseSolutions, in order, as the block enumerate_basic_solutions returns."""
    width = max(len(s.support) for s in solutions)
    pad = [width - len(s.support) for s in solutions]
    return BasicSolutions(
        np.array([len(s.support) for s in solutions], dtype=np.intp),
        np.array([s.support + (0,) * k for s, k in zip(solutions, pad)], dtype=np.intp).reshape(-1, width),
        np.array([s.coefficients + (0.0,) * k for s, k in zip(solutions, pad)]).reshape(-1, width),
    )


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


def test_stacked_support_solve_is_bit_identical_to_one_support_at_a_time():
    A = build_vandermonde(sample_instance(3, 8, seed=5)).entries
    # column 8 is parallel to column 0 and column 9 is zero: rank-deficient supports
    M = np.concatenate([A, 2.0 * A[:, :1], np.zeros((3, 1))], axis=1)
    b = M[:, [1, 4]] @ np.array([0.75, -1.25])
    for k in (1, 2, 3):
        supports = np.array(list(itertools.combinations(range(M.shape[1]), k)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            full, coeff, res = _solve_supports(M, b, supports)
        expected = [_solve_one_support(M, b, tuple(row)) for row in supports.tolist()]
        assert full.tolist() == [e is not None for e in expected]
        assert not full.all()
        kept = [e for e in expected if e is not None]
        assert coeff.tolist() == [c.tolist() for c, _ in kept]
        assert res.tolist() == [r for _, r in kept]


def test_null_space_basis_annihilates():
    spec = sample_instance(3, 7, seed=2)
    A = build_vandermonde(spec)
    N = null_space_basis(A)
    assert N.shape == (7, 4)
    assert np.linalg.norm(A.entries @ N) < 1e-10
    assert np.allclose(N.T @ N, np.eye(4), atol=1e-12)


def test_sample_null_kinds_scales_and_membership():
    spec = sample_instance(2, 8, seed=4)
    A = build_vandermonde(spec)
    witness = compute_spark(A).witness
    samples = sample_null(A, count=4, seed=9, witness=witness)
    assert samples.vectors.shape == (12, 8)  # count * len(DEFAULT_SCALES) rows
    assert samples.vectors.dtype == np.float64
    assert samples.scales == DEFAULT_SCALES * 4
    assert len(samples.kinds) == 12
    assert set(samples.kinds) == {"unit", "signed", "minsupport"}
    for h, scale in zip(samples.vectors, samples.scales):
        assert np.linalg.norm(A.entries @ h) < 1e-6 * max(1.0, scale)
        assert np.linalg.norm(h) == pytest.approx(scale, rel=1e-9)
    again = sample_null(A, count=4, seed=9, witness=witness)
    assert np.array_equal(samples.vectors, again.vectors)
    assert (samples.kinds, samples.scales) == (again.kinds, again.scales)


@pytest.mark.parametrize("m, n", [(2, 8), (3, 9), (4, 10), (5, 7), (8, 11)])
def test_chain_direction_is_the_minsupport_sample_bit_for_bit(m, n):
    # the suite's and the CLI's chain audits take h from the minsupport
    # helper at the first scale; that is row 0 of any sample_null block,
    # whatever its seed and count, without the null-space SVD
    A = build_vandermonde(sample_instance(m, n, seed=0))
    witness = compute_spark(A).witness
    h = _minsupport_direction(A, witness) * DEFAULT_SCALES[0]
    for count, seed in ((1, 0), (4, 9)):
        assert h.tobytes() == sample_null(A, count=count, seed=seed, witness=witness).vectors[0].tobytes()


def test_support_partition_blocks_and_ties():
    x = np.array([0.0, 5.0, 0.0, 0.0, 0.0, 0.0, -2.0])
    h = np.array([3.0, 9.0, -3.0, 1.0, 4.0, 0.0, 7.0])
    part = support_partition(x, h)
    assert (part.s0, part.k) == ((1, 6), 2)
    # complement ordered by |h| desc with index tiebreak: 4, 0, 2, 3, 5
    assert part.blocks == ((4, 0), (2, 3), (5,))


def test_margins_match_extended_precision_oracle():
    import mpmath

    mpmath.mp.dps = 50
    rng = np.random.default_rng(11)
    for trial in range(10):
        n = int(rng.integers(3, 9))
        x = rng.standard_normal(n) * 2.0
        x[rng.random(n) < 0.3] = 0.0
        h = rng.standard_normal(n)
        p = float(rng.uniform(0.01, 1.0))
        ours = lp_margin(x, h, p)
        pe = mpmath.mpf(p)
        exact = mpmath.fsum(
            (abs(mpmath.mpf(xi) + mpmath.mpf(hi)) ** pe if xi + hi != 0.0 else mpmath.mpf(0))
            - (abs(mpmath.mpf(xi)) ** pe if xi != 0.0 else mpmath.mpf(0))
            for xi, hi in zip(x.tolist(), h.tolist())
        )
        scale = max(1.0, abs(float(exact)))
        assert abs(ours - float(exact)) <= 1e-12 * scale


def sample_block(hs, kinds=None, scales=None) -> KernelSamples:
    """A KernelSamples block of the given rows, of kind "unit" at scale 1
    unless kinds and scales are given."""
    return KernelSamples(
        vectors=np.array(hs, dtype=float).reshape(len(hs), -1),
        kinds=tuple(kinds or ("unit",) * len(hs)),
        scales=tuple(scales or (1.0,) * len(hs)),
    )


def test_verify_strict_inequality_flags_planted_violation():
    x = np.array([1.0, 0.0, 0.0])
    # h = -2 x on the support makes ||x+h||_p < ||x||_p for p = 1
    h_bad = np.array([-1.0, 0.25, 0.25])
    rep = verify_strict_inequality(x, sample_block([h_bad]), 1.0)
    assert rep.margin_min < 0.0
    assert len(rep.violations) == 1
    h_good = np.array([0.1, 0.3, -0.2])
    rep2 = verify_strict_inequality(x, sample_block([h_good]), 0.5)
    assert rep2.margin_min > 0.0
    assert not rep2.violations


def test_verify_strict_inequality_violations_replay_their_block_rows():
    # every violation record names its row of the block and carries that
    # row's kind, scale and h, from which the margin is recomputed exactly
    x = np.array([1.0, 0.0, 0.0])
    hs = [np.array([0.1, 0.3, -0.2]), np.array([-1.0, 0.25, 0.25]), np.zeros(3)]
    samples = sample_block(hs, kinds=("unit", "signed", "minsupport"), scales=(1.0, 1e3, 1e-3))
    rep = verify_strict_inequality(x, samples, 1.0)
    assert rep.trials == 3
    assert rep.margin_min == lp_margin(x, hs[1], 1.0)
    assert [v["index"] for v in rep.violations] == [1, 2]
    for v in rep.violations:
        i = v["index"]
        assert set(v) == {"index", "kind", "scale", "p", "margin", "h"}
        assert (v["kind"], v["scale"], v["p"]) == (samples.kinds[i], samples.scales[i], 1.0)
        assert v["h"] == samples.vectors[i].tolist()
        assert all(type(value) is float for value in v["h"])
        assert v["margin"] == lp_margin(x, np.array(v["h"]), v["p"])


@pytest.mark.parametrize(
    "empty", [KernelSamples(vectors=np.empty((0, n)), kinds=(), scales=()) for n in (3, 1, 0)]
)
def test_verify_strict_inequality_rejects_empty_sample_set(empty):
    with pytest.raises(ValueError, match="empty kernel sample set"):
        verify_strict_inequality(np.ones(empty.vectors.shape[1]), empty, 0.5)


def test_default_p_grid_contents():
    grid = default_p_grid(0.8)
    expected = {0.8 * f for f in (0.125, 0.25, 0.5, 0.9, 1.0, 1.1)} | {0.5, 1.0}
    assert grid == tuple(sorted(expected))
    tiny = default_p_grid(1e-3)
    assert max(tiny) == 1.0
    assert min(tiny) == pytest.approx(1.25e-4)


def test_plant_with_level_hits_requested_level():
    spec = sample_instance(3, 7, seed=6)
    A = build_vandermonde(spec)
    for k in (1, 2, 3):
        inst, sol = plant_with_level(A, k, seed=13)
        assert inst.k == k
        assert sol.level == k
        assert np.allclose(A.entries @ inst.x_star, inst.problem.b)


def test_plant_with_level_solves_l0_once_per_attempt(monkeypatch):
    # columns 1 and 3 are parallel to 0 and 2, so a plant on {0, 1} or {2, 3}
    # reads level 1 and is redrawn: seed 1 takes two attempts at k = 2.  The
    # traced suite pass cannot see a second solve inside the plant (its
    # per-plant ratio grows with it), so both calls are counted here
    calls = dict.fromkeys(("solve_l0", "_plant_attempt"), 0)
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(solvers, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(solvers, name, counted)
    a, c = np.array([1.0, 0.5]), np.array([-0.25, 1.0])
    A = DenseMatrix(np.column_stack([a, 2.0 * a, c, 3.0 * c]))
    inst, sol = plant_with_level(A, 2, seed=1)
    assert sol.level == 2 and inst.support not in ((0, 1), (2, 3))
    assert calls == {"solve_l0": 2, "_plant_attempt": 2}


def test_verify_theorem1_clean_run():
    spec = sample_instance(2, 7, seed=21)
    A = build_vandermonde(spec)
    rep = verify_theorem1(A, 1, trials=30, seed=5)
    assert rep.spark == 3
    assert rep.l0_unique
    assert not rep.grid_below_threshold_empty
    assert rep.all_hold
    assert rep.counterexamples == ()
    below = [r for r in rep.reports if r.below_threshold]
    assert below and all(r.margin_min > 0 for r in below)
    assert all(r.argmin_match for r in below)


def _reference_l0(prob) -> SparseSolutionSet:
    """The l0 solution set of the per-support scan: every solution at the
    first size where some full-rank support reproduces b."""
    by_size, _ = _reference_scan(prob)
    level = min(size for size, sols in by_size.items() if sols)
    return SparseSolutionSet(level, tuple(by_size[level]))


# the per-support reference loop is affordable up to m = 5 (2.4 s at m = 8)
@pytest.mark.parametrize("m", range(2, 6))
def test_l0_set_read_off_basic_solutions_equals_solve_l0(m):
    # solve_l0 reads the l0 set off enumerate_basic_solutions; the reference
    # loop solves one support at a time and gives both sides of that read-off
    # on its own: the l0 set of its first nonempty size, and the one read
    # off its basic solutions.  k runs up to m, past spark/2, where the l0
    # solution may not be unique and may sit below the planted k
    for n, seed in itertools.product((m + 1, m + 4), (0, 1)):
        A = build_vandermonde(sample_instance(m, n, seed=derive_seed(seed, f"l0-{m}-{n}")))
        for k in range(1, m + 1):
            prob = plant_sparse_instance(A, k, derive_seed(seed, f"l0-plant-{k}")).problem
            _, basics = _reference_scan(prob)
            expected, l0 = _reference_l0(prob), solve_l0(prob)
            assert _l0_from_basics(as_block(basics)) == expected
            assert l0.level == expected.level
            _assert_same_basics(A.entries, l0.solutions, expected.solutions)


@pytest.mark.parametrize("m", range(2, MAX_M + 1))
def test_verify_theorem1_l0_fields_match_solve_l0(m):
    # the l0 solve is the per-support reference loop up to m = 5; past it
    # the level is checked against the planted k alone
    for n, seed in itertools.product((m + 1, m + 4), (0, 1)):
        A = build_vandermonde(sample_instance(m, n, seed=derive_seed(seed, f"t1-{m}-{n}")))
        for k in range(1, m // 2 + 1):  # k < spark/2 = (m+1)/2
            rep = verify_theorem1(A, k, trials=3, seed=seed)
            inst = plant_sparse_instance(A, k, derive_seed(seed, "plant"))
            assert rep.x_star == tuple(inst.x_star)
            assert rep.level == k
            if m <= 5:
                sol = _reference_l0(inst.problem)
                assert rep.level == sol.level
                assert rep.l0_unique == (len(sol.solutions) == 1)
                assert rep.recovered == (inst.support in sol.supports)


def test_verify_theorem1_rejects_deep_k():
    spec = sample_instance(2, 7, seed=21)
    A = build_vandermonde(spec)
    with pytest.raises(ValueError):
        verify_theorem1(A, 2, trials=6, seed=0)  # 2k = 4 >= spark = 3


def test_theorem2_sequences_worked_example():
    x_t, y_t, log_x = theorem2_sequences(1, 1.0, 1.0, 1.0, 2.0)
    assert x_t == 1.0
    assert y_t == 0.5
    assert log_x == 0.0


def test_theorem2_sequences_overflow_to_inf():
    x_t, y_t, log_x = theorem2_sequences(3, 1.0, 1.0, 1e-4, 10.0)
    assert math.isinf(x_t)  # (m+1)^(1/p) leaves float64 range
    assert y_t == pytest.approx(0.1)
    assert log_x == pytest.approx(1e4 * math.log(4.0) - math.log(10.0))


def test_theorem2_sequences_validation():
    with pytest.raises(ValueError):
        theorem2_sequences(1, 0.5, 1.0, 0.5, 10.0)  # l1 < l2
    with pytest.raises(ValueError):
        theorem2_sequences(1, 1.0, 0.0, 0.5, 10.0)  # zero l2
    with pytest.raises(ValueError):
        theorem2_sequences(0, 1.0, 1.0, 0.5, 10.0)


def test_verify_theorem2_wide_instance():
    spec = sample_instance(2, 8, seed=42)
    rep = verify_theorem2(spec, 2, trials=9, seed=3)
    assert rep.k == 2
    assert rep.limit_monotone
    assert rep.final_gap_ratio < 1e-3
    assert rep.margin_min > 0.0
    assert rep.violations == ()
    assert 0.0 < rep.p_check < rep.p_star0


def test_verify_theorem2_rejects_narrow_instance():
    spec = sample_instance(2, 4, seed=1)
    with pytest.raises(ValueError):
        verify_theorem2(spec, 2, trials=3, seed=0)


def test_verify_theorem2_rejects_an_empty_schedule():
    spec = sample_instance(2, 8, seed=42)
    with pytest.raises(ValueError, match="t_schedule needs at least one step"):
        verify_theorem2(spec, 2, t_schedule=(), trials=3, seed=0)


def test_verify_theorem3_narrow_instance():
    spec = sample_instance(3, 5, seed=5)
    rep = verify_theorem3(spec, 3, trials=9, seed=3)
    assert rep.k == 3
    assert rep.extended_n == 2 * spec.m + 2
    assert rep.worst_embed_residual < 1e-9
    assert rep.worst_block_residual < 1e-9
    assert rep.margin_min > 0.0
    assert rep.violations == ()


def test_verify_theorem3_rejects_wide_instance():
    spec = sample_instance(2, 8, seed=42)
    with pytest.raises(ValueError):
        verify_theorem3(spec, 2, trials=3, seed=0)


@pytest.mark.parametrize(
    "harness,m,n", [(verify_theorem2, 2, 6), (verify_theorem2, 3, 9), (verify_theorem3, 3, 6)]
)
@pytest.mark.parametrize("seed", [0, 5])
def test_deep_regime_plants_x_star_from_the_plant_seed(harness, m, n, seed):
    # the harness's x* is plant_with_level's at derive_seed(seed, "plant"),
    # the plant whose l0 solve certified the level
    spec = sample_instance(m, n, seed=seed)
    for k in range(math.ceil((m + 1) / 2), m + 1):
        rep = harness(spec, k, trials=3, seed=seed)
        planted, _ = plant_with_level(build_vandermonde(spec), k, derive_seed(seed, "plant"))
        assert rep.x_star == tuple(planted.x_star.tolist())
        assert rep.k == sum(v != 0.0 for v in rep.x_star) == k


@pytest.mark.parametrize("harness,m,n", [(verify_theorem2, 3, 8), (verify_theorem3, 3, 6)])
@pytest.mark.parametrize("k", [0, 1, 4])
def test_deep_regime_rejects_k_outside_the_deep_range(harness, m, n, k):
    # (m+1)/2 <= k <= m is 2..3 at m = 3
    spec = sample_instance(m, n, seed=1)
    with pytest.raises(ValueError, match="k <= m"):
        harness(spec, k, trials=3, seed=0)


def _median_shifted(lp_margin_fn):
    """lp_margin with each row's median subtracted: about half of every
    sample set then reads margin <= 0, whatever the instance."""

    def shifted(x, h, p):
        out = lp_margin_fn(x, h, p)
        rows = out if np.ndim(p) else [out]
        rows = np.array([[v - sorted(row)[len(row) // 2] for v in row] for row in rows])
        return rows if np.ndim(p) else rows[0]

    return shifted


@pytest.mark.parametrize("shift", [False, True])
@pytest.mark.parametrize(
    "harness,m,n,seed,label",
    [
        (verify_theorem2, 1, 4, 0, "thm2-null"),
        (verify_theorem2, 2, 6, 1, "thm2-null"),
        (verify_theorem2, 3, 9, 2, "thm2-null"),
        (verify_theorem3, 2, 4, 0, "thm3-null"),
        (verify_theorem3, 3, 6, 1, "thm3-null"),
    ],
)
def test_deep_regime_claim_equals_verify_strict_inequality(
    monkeypatch, harness, m, n, seed, label, shift
):
    # T2 and T3 take margins, margin_min and violations from the one claim
    # evaluator; shifting every margin by its set's median makes the
    # violation records nonempty
    if shift:
        monkeypatch.setattr(solvers, "lp_margin", _median_shifted(solvers.lp_margin))
    calls = []
    evaluate = solvers.verify_strict_inequality

    def spy(*args, **kwargs):
        calls.append(evaluate(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(solvers, "verify_strict_inequality", spy)
    spec = sample_instance(m, n, seed=seed)
    A = build_vandermonde(spec)
    rep = harness(spec, m, trials=9, seed=seed)
    samples = sample_null(A, 3, seed=derive_seed(seed, label), witness=compute_spark(A).witness)
    ref = evaluate(np.array(rep.x_star), samples, rep.p_check)
    assert len(calls) == 1 and calls[0].margins == ref.margins
    assert rep.margin_min == ref.margin_min
    assert rep.violations == ref.violations
    assert bool(ref.violations) == shift
    if harness is verify_theorem2:
        assert [r["final_margin"] for r in rep.records] == list(ref.margins)


# --- p grids and kernel sampling against the loops they replaced -----------


def reference_sample_null(A, count, seed, witness):
    """Per-direction loop over the two documented blocks: base row 0 is the
    minsupport row, and base row i >= 1 takes the next row of the normal
    block when i is even ("unit") and of the rng.choice sign block when i is
    odd ("signed"); each vector is basis @ g over its 1-D np.linalg.norm,
    and one h * s product per sample, as (vector, kind, scale) rows."""
    basis = null_space_basis(A)
    dim = basis.shape[1]
    rng = np.random.default_rng(seed)
    _, _, vt = np.linalg.svd(A.entries[:, list(witness)])
    h = np.zeros(A.cols)
    h[list(witness)] = vt[-1]
    base = [(h / np.linalg.norm(h), "minsupport")]
    rows = range(1, count)
    normal = iter(rng.standard_normal((sum(i % 2 == 0 for i in rows), dim)))
    signs = iter(rng.choice([-1.0, 1.0], size=(sum(i % 2 == 1 for i in rows), dim)))
    for i in rows:
        g, kind = (next(normal), "unit") if i % 2 == 0 else (next(signs), "signed")
        h = basis @ g
        norm = float(np.linalg.norm(h))
        assert norm > 1e-12  # the redraw of near-zero rows has its own test
        base.append((h / norm, kind))
    return [(h * s, kind, float(s)) for h, kind in base for s in DEFAULT_SCALES]


SAMPLE_SHAPES = [(2, 3), (2, 5), (3, 7), (4, 9), (5, 8), (6, 9)]


@pytest.mark.parametrize("m, n", SAMPLE_SHAPES)
def test_sample_null_equals_per_direction_reference(m, n):
    A = build_vandermonde(sample_instance(m, n, seed=m * n))
    witness = compute_spark(A).witness
    for seed, count in itertools.product((0, 7), (1, 2, 5, 70)):
        got = sample_null(A, count=count, seed=seed, witness=witness)
        want = reference_sample_null(A, count, seed, witness)
        assert got.vectors.shape == (len(want), n) and len(want) == count * len(DEFAULT_SCALES)
        assert len(got.kinds) == len(got.scales) == len(want)
        for i, (vector, kind, scale) in enumerate(want):
            assert (got.kinds[i], got.scales[i]) == (kind, scale)
            assert type(got.scales[i]) is float
            assert got.vectors[i].dtype == vector.dtype
            assert got.vectors[i].tobytes() == vector.tobytes()


@pytest.mark.parametrize("value", ["0", "-1", "1e6", "abc"])
def test_deep_regime_raises_on_a_malformed_cap(value, monkeypatch):
    # sample_null reads no cap; the T2 and T3 harnesses' own scans (the
    # plant's l0 solve, the spark search behind the minsupport row) do, and a
    # malformed one is an error, never a silently lost direction
    monkeypatch.setenv("LP_EQUIV_BUDGET", value)
    for harness, n in ((verify_theorem2, 8), (verify_theorem3, 6)):
        with pytest.raises(ValueError, match=f"LP_EQUIV_BUDGET .*{value!r}"):
            harness(sample_instance(3, n, seed=0), 3, trials=3, seed=0)


def test_sample_null_blocks_do_not_share_memory():
    # each call returns its own block: overwriting one leaves a fresh
    # call's block as drawn
    A = build_vandermonde(sample_instance(3, 7, seed=2))
    witness = compute_spark(A).witness
    samples = sample_null(A, count=4, seed=1, witness=witness)
    before = samples.vectors.copy()
    samples.vectors[:] = -1.0
    again = sample_null(A, count=4, seed=1, witness=witness)
    assert again.vectors.tobytes() == before.tobytes()
    assert not np.shares_memory(samples.vectors, again.vectors)


REAL_DEFAULT_RNG = np.random.default_rng


class CountingGenerator:
    """A numpy Generator that logs each draw call as (method, shape) and can
    rewrite what a draw returns: edit(method, call_number, out) -> out."""

    def __init__(self, seed, log, edit=None):
        self._rng = REAL_DEFAULT_RNG(seed)
        self._log = log
        self._edit = edit

    def __getattr__(self, name):
        attr = getattr(self._rng, name)
        if not callable(attr):
            return attr

        def draw(*args, **kwargs):
            out = attr(*args, **kwargs)
            self._log.append((name, np.shape(out)))
            return out if self._edit is None else self._edit(name, len(self._log), out)

        return draw


def counted_sample_null(monkeypatch, A, count, seed, edit=None, **kwargs):
    """sample_null under a CountingGenerator; returns (samples, draw log)."""
    log = []
    with monkeypatch.context() as patch:
        patch.setattr(np.random, "default_rng", lambda s: CountingGenerator(s, log, edit))
        return sample_null(A, count=count, seed=seed, **kwargs), log


def test_sample_null_draw_calls_do_not_grow_with_count(monkeypatch):
    # one normal block and one sign block per call, whatever the count
    A = build_vandermonde(sample_instance(4, 9, seed=36))
    dim = A.cols - A.rows
    witness = compute_spark(A).witness
    logs = {}
    for count in (2, 70):
        samples, logs[count] = counted_sample_null(monkeypatch, A, count, 5, witness=witness)
        assert samples.vectors.shape == (3 * count, A.cols)
    assert [name for name, _ in logs[2]] == ["standard_normal", "integers"]
    # 70 rows: the minsupport row, then 34 unit and 35 signed
    assert logs[70] == [("standard_normal", (34, dim)), ("integers", (35, dim))]


def test_sample_null_redraws_a_near_zero_row_with_its_kind(monkeypatch):
    # the first unit row (base row 2, after minsupport and one signed row)
    # draws all zeros; it is redrawn from the generator's next normal draw,
    # keeps kind "unit" and ends at unit norm, and no other row moves
    A = build_vandermonde(sample_instance(3, 8, seed=24))
    basis = null_space_basis(A)
    dim = basis.shape[1]

    def zero_first_normal_row(name, call, out):
        if name == "standard_normal" and call == 1:
            out = out.copy()
            out[0] = 0.0
        return out

    witness = compute_spark(A).witness
    plain = sample_null(A, count=5, seed=3, witness=witness)
    got, log = counted_sample_null(
        monkeypatch, A, 5, 3, edit=zero_first_normal_row, witness=witness
    )
    assert log == [
        ("standard_normal", (2, dim)), ("integers", (2, dim)),
        ("standard_normal", (1, dim)), ("integers", (0, dim)),
    ]
    assert got.kinds == plain.kinds
    assert got.kinds[6:9] == ("unit",) * 3
    assert got.scales == plain.scales
    rng = np.random.default_rng(3)
    rng.standard_normal((2, dim))
    rng.integers(0, 2, size=(2, dim))
    h = basis @ rng.standard_normal((1, dim))[0]
    redrawn = h / math.sqrt(h.dot(h))
    assert abs(np.linalg.norm(got.vectors[7]) - 1.0) <= 1e-12
    for j, scale in enumerate(DEFAULT_SCALES):
        assert got.vectors[6 + j].tobytes() == (redrawn * scale).tobytes()
    assert np.linalg.norm(A.entries @ got.vectors[7]) < 1e-10
    moved = [i for i in range(len(got.vectors)) if got.vectors[i].tobytes() != plain.vectors[i].tobytes()]
    assert moved == [6, 7, 8]


def reference_strict_inequality(x_star, samples, p, p_star=None):
    """One exponent, one margin (a 1-D lp_margin call) and one violation
    test per row of the block."""
    x = np.asarray(x_star, dtype=float)
    margins, violations = [], []
    for idx in range(len(samples.vectors)):
        h = samples.vectors[idx]
        margin = lp_margin(x, h, p)
        margins.append(margin)
        if margin <= 0.0:
            violations.append(
                {"index": idx, "margin": margin, "p": p, "kind": samples.kinds[idx],
                 "scale": samples.scales[idx], "h": [float(v) for v in h]}
            )
    return EquivalenceReport(
        p=p,
        margin_min=min(margins),
        argmin_match=None,
        trials=len(margins),
        below_threshold=None if p_star is None else p < p_star,
        violations=tuple(violations),
        margins=tuple(margins),
    )


def reference_lp_basic(basics, p):
    """One exponent, one exact power sum per basic solution."""
    values = [math.fsum(abs_pow(np.array(s.coefficients), p).tolist()) for s in basics]
    vmin = min(values)
    tie = vmin + 1e-10 * max(1.0, abs(vmin))
    return LpMinimum(p=p, value=vmin, minimizers=tuple(s for s, v in zip(basics, values) if v <= tie))


def _violating_samples():
    x = np.array([1.0, 0.0, -0.5, 0.0])
    hs = [
        np.array([0.1, 0.3, -0.2, 0.05]),
        np.array([-1.0, 0.25, 0.25, 0.0]),  # negative margin at p = 1
        np.zeros(4),  # a tie, which counts as a violation
        np.array([-1.0, 0.0, 0.5, 0.0]) * 1e-3,
        np.array([1e-305, -1e-300, 0.0, 2.0]),
        np.array([-0.9, 0.2, 0.0, 0.0]),  # violates only once p is large
    ]
    return x, hs


def test_verify_strict_inequality_grid_equals_per_p_reports():
    x, hs = _violating_samples()
    items = sample_block(hs)
    grid = (1e-6, 0.013, 0.5, 1.0)
    for p_star in (None, 0.3):
        reports = verify_strict_inequality(x, items, grid, p_star=p_star)
        per_p = [verify_strict_inequality(x, items, p, p_star=p_star) for p in grid]
        want = [reference_strict_inequality(x, items, p, p_star=p_star) for p in grid]
        assert reports == per_p == want
        assert [len(r.violations) for r in reports] == [3, 3, 4, 4]
    assert verify_strict_inequality(x, items, np.array(grid)) == verify_strict_inequality(x, items, list(grid))
    assert verify_strict_inequality(x, items, ()) == []
    assert isinstance(verify_strict_inequality(x, items, 0.5), EquivalenceReport)


def test_solve_lp_basic_grid_equals_per_p_minima():
    worked = worked_problem()
    A = build_vandermonde(sample_instance(3, 8, seed=4))
    planted = plant_sparse_instance(A, 2, seed=9).problem
    grid = (1e-6, 0.01, 0.5, 1.0)
    for prob in (worked, planted):
        basics = enumerate_basic_solutions(prob)
        minima = solve_lp_basic(prob, grid, basics=basics)
        assert minima == [solve_lp_basic(prob, p, basics=basics) for p in grid]
        assert minima == [reference_lp_basic(basics, p) for p in grid]
        assert solve_lp_basic(prob, list(grid)) == minima
    # l1 ties on the worked problem: both supports are reported at p = 1
    assert [s.support for s in solve_lp_basic(worked, grid)[-1].minimizers] == [(0, 1), (0, 2)]
    assert solve_lp_basic(worked, []) == []


def reference_theorem1(A, k, trials=210, p_grid=None, seed=0):
    """The T1 harness as one strict-inequality sweep and one lp argmin per p."""
    cert = compute_spark(A)
    inst = plant_sparse_instance(A, k, derive_seed(seed, "plant"))
    p_star = solvers.gram_spectrum(A).p_star
    grid = default_p_grid(p_star) if p_grid is None else tuple(sorted(set(p_grid)))
    below_empty = not any(p < p_star for p in grid)
    count = max(1, math.ceil(trials / len(DEFAULT_SCALES)))
    samples = sample_null(A, count=count, seed=derive_seed(seed, "null"), witness=cert.witness)
    basics = enumerate_basic_solutions(inst.problem)
    sol = _l0_from_basics(basics)
    l0_supports = set(sol.supports)
    reports, counterexamples = [], []
    for p in grid:
        rep = reference_strict_inequality(inst.x_star, samples, p, p_star=p_star)
        argmin_supports = {s.support for s in reference_lp_basic(basics, p).minimizers}
        rep = dataclasses.replace(rep, argmin_match=argmin_supports <= l0_supports)
        reports.append(rep)
        if rep.below_threshold:
            counterexamples.extend(rep.violations)
            if not rep.argmin_match:
                counterexamples.append(
                    {
                        "p": p,
                        "argmin_supports": sorted(argmin_supports),
                        "l0_supports": sorted(l0_supports),
                        "reason": "lp argmin support escaped the l0 solution set",
                    }
                )
    all_hold = not below_empty and all(
        (not r.below_threshold) or (not r.violations and r.argmin_match) for r in reports
    )
    return Theorem1Report(
        m=A.rows,
        n=A.cols,
        k=k,
        spark=cert.spark,
        p_star=p_star,
        level=sol.level,
        recovered=inst.support in l0_supports,
        l0_unique=len(sol.solutions) == 1,
        reports=tuple(reports),
        counterexamples=tuple(counterexamples),
        all_hold=all_hold,
        trials=len(samples.vectors),
        seed=seed,
        grid_below_threshold_empty=below_empty,
        x_star=tuple(inst.x_star.tolist()),
        sample_labels=tuple((samples.kinds[i], samples.scales[i]) for i in range(len(samples.vectors))),
    )


@pytest.mark.parametrize(
    "m, n, k, seed, grid",
    [
        (2, 7, 1, 21, None),
        (2, 8, 1, 6, None),
        (3, 9, 1, 0, None),
        (4, 7, 2, 3, None),
        (5, 8, 2, 1, (1e-9, 1e-4, 0.3, 1)),
        (6, 9, 3, 2, (1e-9, 1e-4, 0.3, 1, 0.3)),
        (3, 5, 1, 4, ()),
    ],
)
def test_verify_theorem1_equals_per_p_reference(m, n, k, seed, grid):
    A = build_vandermonde(sample_instance(m, n, seed=seed))
    rep = verify_theorem1(A, k, trials=30, p_grid=grid, seed=seed)
    assert rep == reference_theorem1(A, k, trials=30, p_grid=grid, seed=seed)


def test_verify_theorem1_counterexamples_equal_per_p_reference(monkeypatch):
    # a threshold above 1 puts every grid point under test, so the l1 ties and
    # p = 1 violations of a (2, 8) instance become counterexamples
    real = solvers.gram_spectrum
    monkeypatch.setattr(solvers, "gram_spectrum", lambda A: dataclasses.replace(real(A), p_star=2.0))
    A = build_vandermonde(sample_instance(2, 8, seed=4))
    rep = verify_theorem1(A, 1, trials=30, seed=4)
    assert rep == reference_theorem1(A, 1, trials=30, seed=4)
    kinds = {"reason" in c for c in rep.counterexamples}
    assert kinds == {True, False}  # argmin escapes and margin violations


def _explicit_t2_matrices(monkeypatch, m, seed):
    """verify_theorem2's report on a planted (m, 2m+2) instance at level m,
    plus every explicit augmentation A_t it ranked (one per kept step), in
    step order, taken apart from the stacked blocks."""
    built = []
    assemble = solvers._augmented_with_scales

    def keep(spec, scales, orders):
        block = assemble(spec, scales, orders)
        built.extend(DenseMatrix(entries=entries) for entries in block)
        return block

    monkeypatch.setattr(solvers, "_augmented_with_scales", keep)
    spec = sample_instance(m, 2 * m + 2, seed=seed)
    rep = verify_theorem2(spec, m, trials=6, seed=derive_seed(seed, "t2"))
    return rep, built


def _exact_singular_values(entries, mpmath):
    return sorted(mpmath.svd_r(mpmath.matrix(entries.tolist()), compute_uv=False), reverse=True)


def _exact_p_star(s, mpmath) -> float:
    lmax, lmp = s[0] ** 2, s[-1] ** 2
    return float(min(mpmath.mpf(1), 16 * lmp**2 / ((mpmath.sqrt(2) + 1) ** 2 * (lmax - lmp) ** 2)))


def _p_star_tolerance(m, cond) -> float:
    # a backward-stable SVD moves every singular value by at most c eps s_0,
    # so s_min is off by c eps cond relative; p_star ~ (s_min / s_0)^4 /
    # (1 - lmp/lmax)^2 carries four times that.  c = 2m+2, the row count,
    # covers LAPACK's dimension factor (the observed error stays below
    # 0.5 eps cond over m 1..4)
    return 4 * (2 * m + 2) * np.finfo(float).eps * cond


@pytest.mark.parametrize("m,seed", [(1, 0), (1, 3), (2, 0), (3, 1)])
def test_explicit_t2_steps_record_p_star_only_at_full_rank(monkeypatch, m, seed):
    # every explicit augmentation up to MAX_EXPLICIT_SCALE keeps its residual;
    # p_star_t is recorded exactly when the rank policy keeps all 2m+2
    # singular values, and then matches a 300-digit SVD (row scales reach
    # 1e65 at m = 2, so a zero singular value would land near 1e-300 s_0 and
    # none of these comes near 1e-200 s_0)
    mpmath = pytest.importorskip("mpmath")
    rep, built = _explicit_t2_matrices(monkeypatch, m, seed)
    steps = [step for r in rep.records for step in r.get("steps", ())]
    explicit = [step for step in steps if "explicit_residual" in step]
    assert len(explicit) == len(built)
    cap = f"MAX_EXPLICIT_SCALE = {solvers.MAX_EXPLICIT_SCALE:g}"
    for step in steps:
        if "explicit_residual" not in step:
            assert cap in step["explicit_skipped"]
    for step, At in zip(explicit, built):
        assert math.isfinite(step["explicit_residual"])
        assert step["explicit_componentwise_backward_error_ok"]
        policy_rank = gram_spectrum(At).rank
        with mpmath.workdps(300):
            s = _exact_singular_values(At.entries, mpmath)
            assert s[-1] > mpmath.mpf("1e-200") * s[0]  # full row rank 2m+2
            if "p_star_t" in step:
                assert policy_rank == 2 * m + 2
                cond = float(s[0] / s[-1])
                assert step["p_star_t"] == pytest.approx(
                    _exact_p_star(s, mpmath), rel=_p_star_tolerance(m, cond), abs=0.0
                )
            else:
                assert policy_rank < 2 * m + 2
                assert f"kept {policy_rank} of the {2 * m + 2}" in step["p_star_t_skipped"]
    # at the half-threshold p_check x_t stays within 1e4 at m = 1, lies near
    # 1e25..1e65 at m = 2 (residual only) and past 1e600 at m = 3
    assert len(explicit) == (len(steps) if m <= 2 else 0)
    assert all(("p_star_t" in step) == (m == 1) for step in explicit)


@pytest.mark.parametrize(
    "m,seed",
    [
        pytest.param(1, 0, id="0"),
        pytest.param(1, 3, id="3"),
        pytest.param(2, 0, id="m2-0"),
        pytest.param(2, 3, id="m2-3"),
    ],
)
def test_explicit_residual_check_catches_a_flipped_lift(monkeypatch, m, seed):
    # a correct lift stays within LIFT_RESIDUAL_FACTOR (n+m+2) eps of
    # |A_t| |hhat| in every row; flipping hhat_1's sign leaves
    # 2 x_t |<B_(1), h>| in row m+1 against x_t (|B_(1)| |h| + |<B_(1), h>|),
    # a ratio of order one at every x_t: at m = 1 (x_t up to 1e4) and at
    # m = 2 (x_t from 1e14 on), where a normwise ratio falls below the bound
    spec = sample_instance(m, 2 * m + 2, seed=seed)
    key = "explicit_componentwise_backward_error"

    def explicit_steps():
        rep = verify_theorem2(spec, m, trials=6, seed=derive_seed(seed, "t2"))
        return [s for r in rep.records for s in r.get("steps", ()) if "explicit_residual" in s]

    correct = explicit_steps()
    bound = solvers.LIFT_RESIDUAL_FACTOR * (spec.n + spec.m + 2) * np.finfo(float).eps
    assert correct and all(s[key + "_ok"] for s in correct)
    assert all(s[key] <= bound for s in correct)
    fill = solvers._explicit_steps

    def flipped_lift(spec, p, scales, orders, hhat, steps):
        hhat = hhat.copy()
        hhat[:, spec.n] *= -1.0
        fill(spec, p, scales, orders, hhat, steps)

    monkeypatch.setattr(solvers, "_explicit_steps", flipped_lift)
    flipped = explicit_steps()
    assert len(flipped) == len(correct)
    assert not any(s[key + "_ok"] for s in flipped)
    assert all(s[key] > 1e6 * bound for s in flipped)


@pytest.mark.parametrize("m", range(1, MAX_M + 1))
def test_full_policy_rank_gives_the_exact_p_star(m):
    # why p_star_t is gated on the rank and not on a scale cap: the scale at
    # which the policy starts to truncate A_t falls with m (on seed 0 about
    # 3e9 at m = 1, 1e8 at m = 2, 1e7 at m = 3, 3e5 at m = 4, 3e3 at m = 8),
    # and wherever it keeps all 2m+2 singular values p_star agrees with a
    # 60-digit SVD
    mpmath = pytest.importorskip("mpmath")
    spec = sample_instance(m, 2 * m + 2, seed=0)
    full, truncated = [], []
    for k in range(13):
        At = build_augmented_t(AugmentedSpec(base=spec, x_t=3.0 * 10.0**k, y_t=10.0**k))
        summary = gram_spectrum(At)
        with mpmath.workdps(60):
            s = _exact_singular_values(At.entries, mpmath)
            assert s[-1] > mpmath.mpf("1e-45") * s[0]  # full row rank 2m+2
            if summary.rank == 2 * m + 2:
                cond = float(s[0] / s[-1])
                assert summary.p_star == pytest.approx(
                    _exact_p_star(s, mpmath), rel=_p_star_tolerance(m, cond), abs=0.0
                )
                full.append(k)
            else:
                truncated.append(k)
    assert truncated
    assert not full or max(full) < min(truncated)
