import itertools
import math
import warnings

import numpy as np
import pytest

from lp_equiv.matgen import MAX_M, DenseMatrix, VandermondeSpec, build_vandermonde, sample_instance
from lp_equiv.numerics import derive_seed, lp_margin
from lp_equiv.solvers import (
    RANK_TOL,
    InfeasibleProblemError,
    KernelSample,
    SparseProblem,
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
from lp_equiv.solvers import _l0_from_basics, _solve_supports


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
    assert enumerate_basic_solutions(SparseProblem(A, np.zeros(2))) == sol.solutions


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


def _solve_one_support(M, b, support):
    # the per-support solve the stacked block replaced; None if rank deficient
    sub = M[:, list(support)]
    u, s, vt = np.linalg.svd(sub, full_matrices=False)
    if not (s[0] > 0.0 and int(np.sum(s > RANK_TOL * s[0])) == len(support)):
        return None
    coeff = vt.T @ ((u.T @ b) / s)
    return coeff, float(np.linalg.norm(sub @ coeff - b))


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
    samples = sample_null(A, count=4, seed=9)
    assert len(samples) == 12  # count * len(scales)
    assert {s.scale for s in samples} == {1e-3, 1.0, 1e3}
    kinds = {s.kind for s in samples}
    assert kinds == {"unit", "signed", "minsupport"}
    for s in samples:
        assert np.linalg.norm(A.entries @ s.vector) < 1e-6 * max(1.0, s.scale)
        assert np.linalg.norm(s.vector) == pytest.approx(s.scale, rel=1e-9)
    again = sample_null(A, count=4, seed=9)
    for a, b in zip(samples, again):
        assert np.array_equal(a.vector, b.vector)


def test_support_partition_blocks_and_ties():
    x = np.array([0.0, 5.0, 0.0, 0.0, 0.0, 0.0])
    h = np.array([3.0, 9.0, -3.0, 1.0, 4.0, 0.0])
    part = support_partition(x, h, k=2)
    assert part.s0 == (1,)
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


def test_verify_strict_inequality_flags_planted_violation():
    x = np.array([1.0, 0.0, 0.0])
    # h = -2 x on the support makes ||x+h||_p < ||x||_p for p = 1
    h_bad = np.array([-1.0, 0.25, 0.25])
    rep = verify_strict_inequality(x, [h_bad], 1.0)
    assert rep.margin_min < 0.0
    assert len(rep.violations) == 1
    h_good = np.array([0.1, 0.3, -0.2])
    rep2 = verify_strict_inequality(x, [h_good], 0.5)
    assert rep2.margin_min > 0.0
    assert not rep2.violations


def test_verify_strict_inequality_accepts_generators_arrays_and_samples():
    x = np.array([1.0, 0.0, 0.0])
    hs = [np.array([0.1, 0.3, -0.2]), np.array([-1.0, 0.25, 0.25]), np.zeros(3)]
    samples = [KernelSample(vector=h, kind="unit", scale=1.0) for h in hs]
    from_list = verify_strict_inequality(x, hs, 1.0)
    from_gen = verify_strict_inequality(x, (h.tolist() for h in hs), 1.0)
    from_samples = verify_strict_inequality(x, iter(samples), 1.0)
    for rep in (from_list, from_gen, from_samples):
        assert rep.trials == 3
        assert rep.margin_min == lp_margin(x, hs[1], 1.0)
        assert [v["index"] for v in rep.violations] == [1, 2]
    assert from_gen == from_list
    assert "kind" not in from_list.violations[0]
    assert from_samples.violations[0]["kind"] == "unit"
    assert from_samples.violations[1]["h"] == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("empty", [[], iter(()), np.empty((0, 3))])
def test_verify_strict_inequality_rejects_empty_sample_set(empty):
    with pytest.raises(ValueError, match="empty kernel sample set"):
        verify_strict_inequality(np.ones(3), empty, 0.5)


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


@pytest.mark.parametrize("m", range(2, MAX_M + 1))
def test_l0_set_read_off_basic_solutions_equals_solve_l0(m):
    # k runs up to m, past spark/2, where the l0 solution may not be unique
    # and may sit below the planted k
    for n, seed in itertools.product((m + 1, m + 4), (0, 1)):
        A = build_vandermonde(sample_instance(m, n, seed=derive_seed(seed, f"l0-{m}-{n}")))
        for k in range(1, m + 1):
            prob = plant_sparse_instance(A, k, derive_seed(seed, f"l0-plant-{k}")).problem
            assert _l0_from_basics(enumerate_basic_solutions(prob)) == solve_l0(prob)


@pytest.mark.parametrize("m", range(2, MAX_M + 1))
def test_verify_theorem1_l0_fields_match_solve_l0(m):
    for n, seed in itertools.product((m + 1, m + 4), (0, 1)):
        A = build_vandermonde(sample_instance(m, n, seed=derive_seed(seed, f"t1-{m}-{n}")))
        for k in range(1, m // 2 + 1):  # k < spark/2 = (m+1)/2
            rep = verify_theorem1(A, k, trials=3, seed=seed)
            inst = plant_sparse_instance(A, k, derive_seed(seed, "plant"))
            sol = solve_l0(inst.problem)
            assert rep.x_star == tuple(inst.x_star)
            assert rep.level == sol.level == k
            assert rep.l0_unique == (len(sol.solutions) == 1)
            assert rep.recovered == (inst.support in sol.supports)


def test_verify_theorem1_rejects_deep_k():
    spec = sample_instance(2, 7, seed=21)
    A = build_vandermonde(spec)
    with pytest.raises(ValueError):
        verify_theorem1(A, 2, trials=6, seed=0)  # 2k = 4 >= spark = 3


def test_theorem2_sequences_worked_example():
    x_t, y_t = theorem2_sequences(1, 1.0, 1.0, 1.0, 2.0)
    assert x_t == 1.0
    assert y_t == 0.5


def test_theorem2_sequences_overflow_to_inf():
    x_t, y_t = theorem2_sequences(3, 1.0, 1.0, 1e-4, 10.0)
    assert math.isinf(x_t)  # (m+1)^(1/p) leaves float64 range
    assert y_t == pytest.approx(0.1)


def test_theorem2_sequences_validation():
    with pytest.raises(ValueError):
        theorem2_sequences(1, 0.5, 1.0, 0.5, 10.0)  # l1 < l2
    with pytest.raises(ValueError):
        theorem2_sequences(1, 1.0, 0.0, 0.5, 10.0)  # zero l2
    with pytest.raises(ValueError):
        theorem2_sequences(0, 1.0, 1.0, 0.5, 10.0)


def test_verify_theorem2_wide_instance():
    spec = sample_instance(2, 8, seed=42)
    A = build_vandermonde(spec)
    inst, _ = plant_with_level(A, 2, seed=11)
    rep = verify_theorem2(spec, inst.x_star, trials=9, seed=3)
    assert rep.hypothesis_ok
    assert rep.k == 2
    assert rep.limit_monotone
    assert rep.final_gap_ratio < 1e-3
    assert rep.margin_min > 0.0
    assert rep.violations == ()
    assert 0.0 < rep.p_check < rep.p_star0


def test_verify_theorem2_rejects_narrow_instance():
    spec = sample_instance(2, 4, seed=1)
    with pytest.raises(ValueError):
        verify_theorem2(spec, np.array([1.0, 0.0, 0.0, 1.0]), trials=3, seed=0)


def test_verify_theorem3_narrow_instance():
    spec = sample_instance(3, 5, seed=5)
    A = build_vandermonde(spec)
    inst, _ = plant_with_level(A, 3, seed=11)
    rep = verify_theorem3(spec, inst.x_star, trials=9, seed=3)
    assert rep.hypothesis_ok
    assert rep.extended_n == 2 * spec.m + 2
    assert rep.worst_embed_residual < 1e-9
    assert rep.worst_block_residual < 1e-9
    assert rep.margin_min > 0.0
    assert rep.violations == ()


def test_verify_theorem3_rejects_wide_instance():
    spec = sample_instance(2, 8, seed=42)
    with pytest.raises(ValueError):
        verify_theorem3(spec, np.zeros(8), trials=3, seed=0)
