import math

import numpy as np
import pytest

from lp_equiv import analysis
from lp_equiv.analysis import (
    SEQ_K_MAX,
    SEQ_T_MAX,
    audit_theorem1_chain,
    c_pq,
    cross_term_check,
    f_lemma3,
    f_lemma3_grid,
    lemma2_sequence_check,
    log_c_pq,
    phi_bound,
    phi_bound_grid,
    theorem1_coefficient,
)
from lp_equiv.matgen import VandermondeSpec, build_vandermonde, sample_instance
from lp_equiv.numerics import BLOCK
from lp_equiv.solvers import null_space_basis, plant_with_level
from lp_equiv.spectral import gram_spectrum, lemma1_constants, p_star_from_extremes
from lp_equiv.suite import json_safe

SQRT2_OVER_2 = math.sqrt(2.0) / 2.0


def brute_c_pq(k: int, s: int, t: int, p: float, q: float) -> float:
    r = p / q
    arm1 = t**r / s
    arm2 = r**r * (1.0 - r) ** (1.0 - r) * k ** (r - 1.0) if r < 1.0 else 1.0
    return max(arm1, arm2) ** (1.0 / p)


def test_c_pq_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(200):
        k = int(rng.integers(1, 9))
        t = int(rng.integers(1, 12))
        s = int(rng.integers(k, k + t + 1))
        p = float(rng.uniform(0.05, 1.0))
        q = float(rng.uniform(p + 1e-3, 3.0))
        got = c_pq(k, s, t, p, q)
        want = brute_c_pq(k, s, t, p, q)
        assert got == pytest.approx(want, rel=1e-10)


def test_log_c_pq_consistent_with_exp():
    assert math.exp(log_c_pq(2, 3, 4, 0.5, 2.0)) == pytest.approx(
        c_pq(2, 3, 4, 0.5, 2.0), rel=1e-14
    )
    # r == 1 edge: the second arm is exactly 1, first arm t/s
    assert math.exp(log_c_pq(3, 6, 2, 1.0, 1.0)) == pytest.approx(
        max(2.0 / 6.0, 1.0), rel=1e-14
    )
    # tiny p: plain c_pq underflows to 0 but the log stays finite
    lg = log_c_pq(2, 4, 1, 1e-3, 2.0)
    assert math.isfinite(lg)
    assert lg < -500.0


def test_f_lemma3_endpoint_and_floor():
    assert f_lemma3(1.0) == pytest.approx(SQRT2_OVER_2, abs=1e-15)
    ps = np.geomspace(1e-6, 1.0, 400)
    vals = f_lemma3(ps)
    assert np.all(vals >= SQRT2_OVER_2 - 1e-12)
    # decreasing toward p = 1 (its long tail): compare coarse samples
    assert f_lemma3(1e-4) > f_lemma3(1e-2) > f_lemma3(0.5) > f_lemma3(0.99)


def test_phi_bound_shape():
    assert phi_bound(1.0) == pytest.approx(SQRT2_OVER_2, abs=1e-15)
    ps = np.geomspace(1e-6, 1.0, 400)
    vals = phi_bound(ps)
    assert np.all(vals <= SQRT2_OVER_2 + 1e-12)
    assert np.all(np.diff(vals) > 0)  # increasing in p on the log grid
    assert phi_bound(1e-9) == pytest.approx(math.exp(-0.5), rel=1e-6)


def test_grid_reports_pass():
    rep_f = f_lemma3_grid()
    assert rep_f.passes
    assert rep_f.grid_size == 1000
    assert rep_f.worst_violation <= 0.0
    rep_phi = phi_bound_grid()
    assert rep_phi.passes
    assert rep_phi.worst_violation <= 0.0


def test_lemma2_sequence_check_clean():
    rep = lemma2_sequence_check(trials=1000, seed=0)
    assert rep.trials == 1000
    assert rep.passes
    assert rep.worst_relative_violation <= 0.0


def scalar_sequence_violation(k, s, t, p, q, u):
    """(lhs, rhs, relative violation) of one L2 trial, by the per-trial
    formula the batched audit replaced; u holds the trial's k + t entries."""
    lhs = float(np.sum(u[k : k + t] ** q)) ** (1.0 / q)
    base = float(np.sum(u[:s] ** p))
    rhs = c_pq(k, s, t, p, q) * base ** (1.0 / p) if base > 0.0 else 0.0
    if rhs > 0.0:
        return lhs, rhs, (lhs - rhs) / rhs
    return lhs, rhs, 0.0 if lhs == 0.0 else math.inf


def first_strict_max(values):
    """The loop's reduction: a later value replaces the worst only if it is
    strictly larger."""
    best, best_i = -math.inf, None
    for i, v in enumerate(values):
        if v > best:
            best, best_i = v, i
    return best_i


def near_ties(values, i, tol):
    """Indices whose value is within tol of values[i]: trials the two
    evaluations may order differently by rounding alone."""
    return {j for j, v in enumerate(values) if abs(v - values[i]) <= tol}


def drawn_sequences(seed, trials):
    """The L2 audit's trials, drawn block by block as the audit draws them."""
    rng = np.random.default_rng(seed)
    return [
        analysis._draw_sequences(rng, first, min(BLOCK, trials - first))
        for first in range(0, trials, BLOCK)
    ]


@pytest.mark.parametrize("trials", [1, 37, BLOCK + 5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lemma2_blocks_match_the_scalar_formula(seed, trials):
    lhs_all, rhs_all, rel_all, cases = [], [], [], []
    for k, s, t, p, q, u in drawn_sequences(seed, trials):
        lhs, rhs, rel = analysis._sequence_violations(k, s, t, p, q, u)
        for i in range(len(k)):
            ki, si, ti, pi, qi = int(k[i]), int(s[i]), int(t[i]), float(p[i]), float(q[i])
            seq = u[i, : ki + ti]
            # the draw's contract: sizes in range, nonincreasing entries in
            # [0, 1] and zeros past k + t, q >= p, every tenth trial quantized
            assert 1 <= ki <= SEQ_K_MAX and 1 <= ti <= SEQ_T_MAX and ki <= si <= ki + ti
            assert 0.05 <= pi <= qi <= 3.0
            assert np.all(np.diff(seq) <= 0.0) and seq.min() >= 0.0 and seq.max() <= 1.0
            assert not np.any(u[i, ki + ti :])
            if (len(cases) % 10) == 0:
                assert np.array_equal(seq, np.round(seq, 1))
            want = scalar_sequence_violation(ki, si, ti, pi, qi, seq)
            assert lhs[i] == pytest.approx(want[0], rel=1e-12, abs=0.0)
            assert rhs[i] == pytest.approx(want[1], rel=1e-12, abs=0.0)
            # rel = lhs/rhs - 1 inherits the 1e-12 of lhs and rhs scaled by lhs/rhs
            assert abs(rel[i] - want[2]) <= 1e-12 * max(1.0, lhs[i] / rhs[i])
            lhs_all.append(lhs[i])
            rhs_all.append(rhs[i])
            rel_all.append(want[2])
            cases.append({"k": ki, "s": si, "t": ti, "p": pi, "q": qi, "u": seq.tolist()})
    rep = analysis.lemma2_sequence_check(trials=trials, seed=seed)
    worst = first_strict_max(rel_all)
    tol = 1e-12 * max(1.0, lhs_all[worst] / rhs_all[worst])
    assert abs(rep.worst_relative_violation - rel_all[worst]) <= tol
    # the same worst trial, unless rounding alone separates it from another
    assert rep.worst_case in [cases[j] for j in near_ties(rel_all, worst, 2 * tol)]
    assert rep.trials == trials and rep.passes


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_lemma2_worst_case_replays_through_the_scalar_formula(seed):
    rep = lemma2_sequence_check(trials=500, seed=seed)
    case = rep.worst_case
    assert set(case) == {"k", "s", "t", "p", "q", "u"}
    assert len(case["u"]) == case["k"] + case["t"]
    lhs, rhs, rel = scalar_sequence_violation(
        case["k"], case["s"], case["t"], case["p"], case["q"], np.array(case["u"])
    )
    assert abs(rel - rep.worst_relative_violation) <= 1e-12 * max(1.0, lhs / rhs)


def test_lemma2_audit_catches_a_planted_bound_error(monkeypatch):
    # C_{p,q} with its outer 1/p dropped: too small wherever the larger arm is
    # positive, and the all-equal quantized trials make the true bound tight
    honest = analysis._log_c_pq_block
    monkeypatch.setattr(
        analysis, "_log_c_pq_block", lambda k, s, t, p, q: honest(k, s, t, p, q) * p
    )
    rep = lemma2_sequence_check(trials=1000, seed=0)
    assert not rep.passes
    assert rep.worst_relative_violation > rep.tol


def test_lemma2_bound_directly_on_constructed_sequence():
    # decreasing sequence: the q-norm of the t-entry tail past index k is
    # bounded by C_{p,q}(k, s, t) times the p-norm of the first s entries
    u = np.array([5.0, 4.0, 3.0, 2.0, 1.0, 0.5, 0.25])
    k, s, t = 2, 3, 3
    p, q = 0.5, 2.0
    lhs = float(np.sum(u[k : k + t] ** q)) ** (1.0 / q)
    rhs = c_pq(k, s, t, p, q) * float(np.sum(u[:s] ** p)) ** (1.0 / p)
    assert lhs == pytest.approx(math.sqrt(14.0), rel=1e-14)
    assert lhs <= rhs * (1.0 + 1e-12)


def test_holder_embedding_on_random_vectors():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        v = rng.standard_normal(n)
        p = float(rng.uniform(0.05, 1.0))
        lp = float(np.sum(np.abs(v) ** p)) ** (1.0 / p)
        l2 = float(np.linalg.norm(v))
        assert lp <= n ** (1.0 / p - 0.5) * l2 * (1.0 + 1e-12)


def test_theorem1_coefficient_value():
    # closed form: (sqrt2+1)/2 * (lmax-lmp)/lmp * (sqrt2/2) * sqrt(p/2)
    got = theorem1_coefficient(0.5, 2.0, 10.0)
    want = (math.sqrt(2) + 1) / 2 * (8.0 / 2.0) * SQRT2_OVER_2 * math.sqrt(0.25)
    assert got == pytest.approx(want, rel=1e-14)
    # at p = p_star with the critical gap the coefficient dips below 1
    lmp, lmax = 1.0, 2.0
    ps = p_star_from_extremes(lmp, lmax)
    assert theorem1_coefficient(ps, lmp, lmax) <= 1.0 + 1e-12


def test_cross_term_check_worked_example():
    A = build_vandermonde(VandermondeSpec(2, (1.0, 2.0, 3.0)))
    rep = cross_term_check(A, trials=200, seed=1)
    assert rep.spark == 3
    assert rep.max_support == 1
    assert not rep.degenerate
    assert rep.trials == 200
    assert rep.passes_empirical
    assert rep.worst_ratio <= rep.empirical_bound * (1.0 + 1e-9)


@pytest.mark.parametrize("trials", [0, -3])
def test_audits_reject_fewer_than_one_trial(trials):
    # no trial cannot pass: a worst case of -inf over nothing is no evidence
    A = build_vandermonde(VandermondeSpec(2, (1.0, 2.0, 3.0)))
    with pytest.raises(ValueError, match=f"trials must be >= 1, got {trials}"):
        lemma2_sequence_check(trials=trials, seed=0)
    with pytest.raises(ValueError, match=f"trials must be >= 1, got {trials}"):
        cross_term_check(A, trials=trials, seed=0)


def scalar_cross_ratio(M, x1, x2):
    """|<M x1, M x2>| / (||x1|| ||x2||) by the per-trial formula the batched
    audit replaced."""
    return abs(float((M @ x1) @ (M @ x2))) / float(np.linalg.norm(x1) * np.linalg.norm(x2))


@pytest.mark.parametrize("trials", [1, 37, BLOCK + 5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cross_term_blocks_match_the_scalar_formula(seed, trials):
    A = build_vandermonde(sample_instance(4, 10, seed=seed))
    M = A.entries
    rep = cross_term_check(A, trials=trials, seed=seed)
    rng = np.random.default_rng(seed)
    ratios, examples = [], []
    for first in range(0, trials, BLOCK):
        size = min(BLOCK, trials - first)
        sup1, sup2, g = analysis._draw_pairs(rng, A.cols, rep.max_support, size)
        x1, x2 = np.where(sup1, g, 0.0), np.where(sup2, g, 0.0)
        got = analysis._cross_ratios(M, x1, x2)
        for i in range(size):
            # disjoint supports of 1..max_support columns each
            assert not np.any(sup1[i] & sup2[i])
            assert 1 <= sup1[i].sum() <= rep.max_support and 1 <= sup2[i].sum() <= rep.max_support
            want = scalar_cross_ratio(M, x1[i], x2[i])
            # both sides sum the same products in different orders: each is
            # off by a few ulps of the products' magnitude, which exceeds
            # the ratio itself when <M x1, M x2> cancels
            scale = scalar_cross_ratio(np.abs(M), np.abs(x1[i]), np.abs(x2[i]))
            assert abs(got[i] - want) <= 1e-12 * scale
            ratios.append(want)
            s1, s2 = np.flatnonzero(sup1[i]), np.flatnonzero(sup2[i])
            examples.append({"support1": s1.tolist(), "support2": s2.tolist(),
                             "x1": x1[i, s1].tolist(), "x2": x2[i, s2].tolist()})
    worst = first_strict_max(ratios)
    assert rep.worst_ratio == pytest.approx(ratios[worst], rel=1e-12, abs=0.0)
    example = {key: v for key, v in rep.worst_example.items() if key != "ratio"}
    tied = near_ties(ratios, worst, 2e-12 * ratios[worst])
    assert example in [examples[j] for j in tied]
    assert rep.worst_example["ratio"] == rep.worst_ratio


def test_cross_term_worst_example_replays():
    A = build_vandermonde(sample_instance(3, 9, seed=1))
    rep = cross_term_check(A, trials=300, seed=5)
    ex = rep.worst_example
    assert set(ex) == {"support1", "support2", "x1", "x2", "ratio"}
    x1, x2 = np.zeros(A.cols), np.zeros(A.cols)
    x1[ex["support1"]], x2[ex["support2"]] = ex["x1"], ex["x2"]
    assert scalar_cross_ratio(A.entries, x1, x2) == pytest.approx(ex["ratio"], rel=1e-12, abs=0.0)


def test_cross_term_audit_catches_a_planted_ratio_error(monkeypatch):
    # normalizing by ||x1||^2 ||x2||^2 instead of ||x1|| ||x2|| inflates the
    # ratio of every pair with small coefficients past the exact constant
    def squared_norms(M, x1, x2):
        inner = np.sum((x1 @ M.T) * (x2 @ M.T), axis=1)
        return np.abs(inner) / (np.sum(x1 * x1, axis=1) * np.sum(x2 * x2, axis=1))

    A = build_vandermonde(sample_instance(3, 9, seed=1))
    assert cross_term_check(A, trials=300, seed=5).passes_empirical
    monkeypatch.setattr(analysis, "_cross_ratios", squared_norms)
    assert not cross_term_check(A, trials=300, seed=5).passes_empirical


def test_cross_term_check_degenerate_spark_two():
    A = build_vandermonde(VandermondeSpec(2, (1.0, 2.0, 3.0)))
    entries = A.entries.copy()
    entries[:, 2] = entries[:, 0]  # duplicated column: spark 2
    from lp_equiv.matgen import DenseMatrix

    rep = cross_term_check(DenseMatrix(entries), trials=50, seed=1)
    assert rep.degenerate
    assert rep.max_support == 0
    assert rep.trials == 0
    assert rep.passes_paper and rep.passes_empirical and math.isnan(rep.empirical_bound)
    # with a spark-2 Lemma-1 report the Gram extremes come from it, and the
    # report stays degenerate: no empirical bound, nothing sampled
    lemma1 = lemma1_constants(DenseMatrix(entries), spark=2, gram=gram_spectrum(DenseMatrix(entries)))
    again = cross_term_check(DenseMatrix(entries), trials=50, seed=1, lemma1=lemma1)
    assert again.degenerate and again.trials == 0 and math.isnan(again.empirical_bound)
    assert again.passes_paper and again.passes_empirical and again.paper_bound == rep.paper_bound


def test_chain_audit_asserted_steps_pass_on_valid_inputs():
    for seed in (0, 1, 2):
        spec = sample_instance(2, 7, seed=seed)
        A = build_vandermonde(spec)
        inst, _ = plant_with_level(A, 1, seed=seed + 10)
        N = null_space_basis(A)
        rng = np.random.default_rng(seed + 20)
        h = N @ rng.standard_normal(N.shape[1])
        h /= np.linalg.norm(h)
        gram = gram_spectrum(A)
        audit = audit_theorem1_chain(A, inst.x_star, h, 0.5 * gram.p_star, gram)
        assert audit.asserted_ok
        assert audit.margin > 0.0
        assert audit.k == 1
        names = [s.name for s in audit.steps]
        assert names[0] == "kernel-identity"
        assert names[-1] == "margin-lower-bound"
        for s in audit.steps:
            if s.asserted:
                assert s.ok, s.name


def test_chain_audit_rejects_vanishing_h_off_support():
    spec = sample_instance(2, 7, seed=0)
    A = build_vandermonde(spec)
    inst, _ = plant_with_level(A, 1, seed=10)
    with pytest.raises(ValueError):
        audit_theorem1_chain(A, inst.x_star, np.zeros(7), 0.5, gram_spectrum(A))


def test_chain_audit_json_round_trip_fields():
    spec = sample_instance(2, 7, seed=4)
    A = build_vandermonde(spec)
    inst, _ = plant_with_level(A, 1, seed=14)
    N = null_space_basis(A)
    h = N @ np.ones(N.shape[1])
    h /= np.linalg.norm(h)
    audit = audit_theorem1_chain(A, inst.x_star, h, 0.3, gram_spectrum(A))
    d = json_safe(audit)
    assert set(d) >= {"k", "p", "p_star", "margin", "steps", "asserted_ok", "reported_ok"}
    assert len(d["steps"]) == len(audit.steps)
    assert all(set(step) == {"name", "lhs", "rhs", "ok", "asserted"} for step in d["steps"])
    assert audit.step("kernel-identity").ok
