import math

import numpy as np
import pytest

from lp_equiv.analysis import (
    audit_theorem1_chain,
    c_pq,
    cross_term_check,
    f_lemma3,
    f_lemma3_grid,
    lemma2_sequence_check,
    log_c_pq,
    log_p_grid,
    phi_bound,
    phi_bound_grid,
    theorem1_coefficient,
)
from lp_equiv.matgen import VandermondeSpec, build_vandermonde, sample_instance
from lp_equiv.solvers import null_space_basis, plant_with_level
from lp_equiv.spectral import gram_spectrum, p_star_from_extremes
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
    ps = log_p_grid(400, lo=1e-6)
    vals = f_lemma3(ps)
    assert np.all(vals >= SQRT2_OVER_2 - 1e-12)
    # decreasing toward p = 1 (its long tail): compare coarse samples
    assert f_lemma3(1e-4) > f_lemma3(1e-2) > f_lemma3(0.5) > f_lemma3(0.99)


def test_phi_bound_shape():
    assert phi_bound(1.0) == pytest.approx(SQRT2_OVER_2, abs=1e-15)
    ps = log_p_grid(400, lo=1e-6)
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


def test_cross_term_check_degenerate_spark_two():
    A = build_vandermonde(VandermondeSpec(2, (1.0, 2.0, 3.0)))
    entries = A.entries.copy()
    entries[:, 2] = entries[:, 0]  # duplicated column: spark 2
    from lp_equiv.matgen import DenseMatrix

    rep = cross_term_check(DenseMatrix(entries), trials=50, seed=1)
    assert rep.degenerate
    assert rep.max_support == 0
    assert rep.trials == 0


def test_chain_audit_asserted_steps_pass_on_valid_inputs():
    for seed in (0, 1, 2):
        spec = sample_instance(2, 7, seed=seed)
        A = build_vandermonde(spec)
        inst, _ = plant_with_level(A, 1, seed=seed + 10)
        N = null_space_basis(A)
        rng = np.random.default_rng(seed + 20)
        h = N @ rng.standard_normal(N.shape[1])
        h /= np.linalg.norm(h)
        p = 0.5 * gram_spectrum(A).p_star
        audit = audit_theorem1_chain(A, inst.x_star, h, p)
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
        audit_theorem1_chain(A, inst.x_star, np.zeros(7), 0.5)


def test_chain_audit_json_round_trip_fields():
    spec = sample_instance(2, 7, seed=4)
    A = build_vandermonde(spec)
    inst, _ = plant_with_level(A, 1, seed=14)
    N = null_space_basis(A)
    h = N @ np.ones(N.shape[1])
    h /= np.linalg.norm(h)
    audit = audit_theorem1_chain(A, inst.x_star, h, 0.3)
    d = json_safe(audit)
    assert set(d) >= {"k", "p", "p_star", "margin", "steps", "asserted_ok", "reported_ok"}
    assert len(d["steps"]) == len(audit.steps)
    assert all(set(step) == {"name", "lhs", "rhs", "ok", "asserted"} for step in d["steps"])
    assert audit.step("kernel-identity").ok
