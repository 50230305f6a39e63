"""End-to-end acceptance checks, one test per headline capability.

Each test prints a single summary line

    [criterion NN] <claim>: PASS|FAIL (<details>)

so a full run doubles as a checklist.  Most criteria assert directly;
the two stress sweeps (06, 09) are *reported*: they dump counterexamples
to a JSON artifact and always record the observed violation count, with
the hard assertions limited to machinery and runtime.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from lp_equiv.analysis import (
    f_lemma3,
    f_lemma3_grid,
    lemma2_sequence_check,
    phi_bound,
    phi_bound_grid,
)
from lp_equiv.cli import main as cli_main
from lp_equiv.matgen import (
    AugmentedSpec,
    DenseMatrix,
    VandermondeSpec,
    build_vandermonde,
    sample_instance,
)
from lp_equiv.numerics import derive_seed
from lp_equiv.solvers import (
    RESIDUAL_TOL,
    plant_with_level,
    verify_theorem1,
    verify_theorem2,
    verify_theorem3,
)
from lp_equiv.spark import compute_spark, verify_prop1
from lp_equiv.spectral import gram_spectrum

SQRT2_OVER_2 = math.sqrt(2.0) / 2.0


def _line(num: int, claim: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {claim}: {'PASS' if ok else 'FAIL'} ({detail})")


def _instance_stream(combos, label: str):
    """Deterministic (m, n, extra..., seed) tuples cycling over combos."""
    for round_no in itertools.count():
        for combo in combos:
            yield (*combo, derive_seed(round_no, f"{label}-{combo}"))


def test_criterion_01_spark_certificates():
    t0 = time.perf_counter()
    combos = [(m, n) for m in range(2, 6) for n in range(m + 1, m + 6)]
    stream = _instance_stream(combos, "acc1")
    checked = 0
    for m, n, seed in itertools.islice(stream, 50):
        spec = sample_instance(m, n, seed=seed)
        cert = compute_spark(build_vandermonde(spec))
        assert cert.spark == m + 1, (m, n, seed, cert.spark)
        assert len(cert.witness) == m + 1
        checked += 1
    dt = time.perf_counter() - t0
    _line(1, "spark == m+1 on seeded node matrices", checked == 50 and dt < 10.0,
          f"{checked}/50 instances exact, {dt:.2f} s")
    assert checked == 50
    assert dt < 10.0


def test_criterion_02_threshold_identity_and_worked_example():
    import mpmath

    # identity: gram_spectrum on diag(sqrt(lmax), sqrt(lmp)) against the
    # closed form evaluated in 50 digits on the spectrum it was built from
    rng = np.random.default_rng(202)
    worst = 0.0
    with mpmath.workdps(50):
        for _ in range(1000):
            lmax = float(rng.uniform(0.1, 100.0))
            lmp = lmax * float(rng.uniform(1e-6, 1.0))
            summary = gram_spectrum(DenseMatrix(np.diag([math.sqrt(lmax), math.sqrt(lmp)])))
            lo, hi = mpmath.mpf(lmp), mpmath.mpf(lmax)
            closed = 16 * lo**2 / ((mpmath.sqrt(2) + 1) ** 2 * (hi - lo) ** 2)
            exact = float(min(mpmath.mpf(1), closed))
            worst = max(worst, abs(summary.p_star - exact) / exact)

    # frozen oracle: the Gram eigenvalues of [[1,1,1],[1,2,3]] solve
    # mu^2 - 17 mu + 6 = 0, so p* follows from (17 +/- sqrt(265)) / 2
    disc = math.sqrt(17.0**2 - 4.0 * 6.0)
    mu_max, mu_min = (17.0 + disc) / 2.0, (17.0 - disc) / 2.0
    oracle = min(1.0, 16.0 * mu_min**2 / ((math.sqrt(2.0) + 1.0) ** 2 * (mu_max - mu_min) ** 2))
    got = gram_spectrum(build_vandermonde(VandermondeSpec(2, (1.0, 2.0, 3.0)))).p_star
    rel = abs(got - oracle) / oracle
    ok = worst <= 1e-12 and rel <= 1e-2 and 1.3e-3 < got < 1.4e-3
    _line(2, "threshold closed form across 1000 spectra (50-digit oracle) + worked example", ok,
          f"worst identity rel {worst:.2e}, example p*={got:.6e} vs oracle rel {rel:.2e}")
    assert worst <= 1e-12
    assert rel <= 1e-2
    assert 1.3e-3 < got < 1.4e-3


def test_criterion_03_tail_window_inequality():
    rep = lemma2_sequence_check(trials=1000, seed=0, tol=1e-10)
    _line(3, "tail-window norm bound over 1000 monotone sequences", rep.passes,
          f"worst relative violation {rep.worst_relative_violation:.2e} (tol 1e-10)")
    assert rep.trials == 1000
    assert rep.passes


def test_criterion_04_scalar_bound_curves():
    rep_f = f_lemma3_grid(count=1000, lo=1e-6, tol=1e-12)
    rep_phi = phi_bound_grid(count=1000, lo=1e-6, tol=1e-12)
    end_f = abs(float(f_lemma3(1.0)) - SQRT2_OVER_2)
    end_phi = abs(float(phi_bound(1.0)) - SQRT2_OVER_2)
    ok = rep_f.passes and rep_phi.passes and end_f <= 1e-12 and end_phi <= 1e-12
    _line(4, "f >= sqrt2/2 >= phi on 1000 log grid points with shared endpoint", ok,
          f"worst f viol {rep_f.worst_violation:.2e}, worst phi viol "
          f"{rep_phi.worst_violation:.2e}, endpoints {end_f:.1e}/{end_phi:.1e}")
    assert rep_f.passes and rep_phi.passes
    assert end_f <= 1e-12 and end_phi <= 1e-12


def _brute_l0(entries: np.ndarray, b: np.ndarray):
    """Independent sparsest-solution search: supports scanned in
    (size, lexicographic) order with a least-squares residual test."""
    n = entries.shape[1]
    nb = float(np.linalg.norm(b))
    for size in range(1, n + 1):
        found = set()
        for cols in itertools.combinations(range(n), size):
            sub = entries[:, cols]
            x, *_ = np.linalg.lstsq(sub, b, rcond=None)
            res = float(np.linalg.norm(sub @ x - b))
            if res <= RESIDUAL_TOL * nb and np.all(np.abs(x) > 1e-11):
                found.add(cols)
        if found:
            return size, found
    raise AssertionError("no support reproduces b")


def test_criterion_05_sparsest_solver_cross_check():
    combos = []
    for m in range(2, 6):
        for n in range(m + 1, m + 6):
            for k in range(1, math.ceil((m + 1) / 2)):
                combos.append((m, n, k))
    stream = _instance_stream(combos, "acc5")
    checked = 0
    for m, n, k, seed in itertools.islice(stream, 100):
        spec = sample_instance(m, n, seed=seed)
        A = build_vandermonde(spec)
        planted, sol = plant_with_level(A, k, seed=derive_seed(seed, "plant"))
        assert sol.level <= k, (m, n, k, seed)
        b = planted.problem.b
        nb = float(np.linalg.norm(b))
        for s in sol.solutions:
            x = np.zeros(n)
            x[list(s.support)] = s.coefficients
            assert float(np.linalg.norm(A.entries @ x - b)) <= RESIDUAL_TOL * nb
        level2, supports2 = _brute_l0(A.entries, b)
        assert sol.level == level2, (m, n, k, seed)
        assert set(sol.supports) == supports2, (m, n, k, seed)
        checked += 1
    _line(5, "sparsest-solution solver matches independent enumeration", checked == 100,
          f"{checked}/100 planted instances, levels and support sets identical")
    assert checked == 100


def test_criterion_06_below_threshold_margins_and_argmin(tmp_path):
    t0 = time.perf_counter()
    combos = []
    for m in range(2, 6):
        for n in range(m + 1, 11):
            for k in range(1, math.ceil((m + 1) / 2)):
                combos.append((m, n, k))
    stream = _instance_stream(combos, "acc6")
    instances = 0
    grid_points = 0
    violations: list[dict] = []
    for m, n, k, seed in itertools.islice(stream, 100):
        spec = sample_instance(m, n, seed=seed)
        A = build_vandermonde(spec)
        rep = verify_theorem1(A, k, trials=210, seed=derive_seed(seed, "t1"))
        assert not rep.grid_below_threshold_empty
        below = [r for r in rep.reports if r.below_threshold]
        grid_points += len(below)
        if not rep.all_hold:
            violations.extend(
                {"m": m, "n": n, "k": k, "seed": seed, **ce} for ce in rep.counterexamples
            )
            if not rep.counterexamples:  # argmin mismatch without a margin witness
                violations.append({"m": m, "n": n, "k": k, "seed": seed, "kind": "argmin"})
        instances += 1
    dt = time.perf_counter() - t0
    dump = tmp_path / "t1_counterexamples.json"
    dump.write_text(json.dumps(violations, indent=2, sort_keys=True, default=str))
    _line(6, "below-threshold margins positive and argmin matches sparsest support",
          not violations,
          f"reported: {len(violations)} violations over {instances} instances / "
          f"{grid_points} grid points / 210 kernel samples each; dump {dump}; {dt:.1f} s")
    assert instances == 100
    assert dt < 300.0


def test_criterion_07_augmented_spark_certificates():
    combos = [(m, n) for m in (1, 2, 3) for n in (2 * m + 2, 2 * m + 3)]
    stream = _instance_stream(combos, "acc7")
    scales = (1.0, 0.1, 0.01)
    checked = 0
    for m, n, seed in itertools.islice(stream, 20):
        spec = sample_instance(m, n, seed=seed)
        for x_t in scales:
            for y_t in scales:
                rep = verify_prop1(AugmentedSpec(base=spec, x_t=x_t, y_t=y_t))
                assert rep.passes, (m, n, seed, x_t, y_t, rep.certificate.spark)
                assert rep.certificate.spark == 2 * m + 3
        checked += 1
    _line(7, "augmented matrices certify spark == 2m+3 across glue scales",
          checked == 20, f"{checked}/20 instances x 9 (x_t, y_t) pairs, all exact")
    assert checked == 20


def test_criterion_08_augmented_threshold_limit():
    combos = [(m, n) for m in (2, 3) for n in (2 * m + 2, 2 * m + 3)]
    stream = _instance_stream(combos, "acc8")
    ratios = []
    for m, n, seed in itertools.islice(stream, 10):
        spec = sample_instance(m, n, seed=seed)
        A = build_vandermonde(spec)
        planted, _ = plant_with_level(A, m, seed=derive_seed(seed, "plant"))
        rep = verify_theorem2(spec, planted.x_star, trials=6, seed=derive_seed(seed, "t2"))
        assert rep.limit_monotone, (m, n, seed)
        ratios.append(rep.final_gap_ratio)
    below = sum(r < 1e-3 for r in ratios)
    worst = max(ratios)
    _line(8, "threshold gap of the augmented family shrinks monotonically",
          len(ratios) == 10,
          f"10/10 strictly decreasing (asserted); reported final gap ratio: "
          f"{below}/10 below the 1e-3 target, max {worst:.2e}")
    assert len(ratios) == 10


def test_criterion_09_deep_regime_margins(tmp_path):
    wide = [(m, n, k) for m in (2, 3) for n in (2 * m + 2, 2 * m + 3)
            for k in range(math.ceil((m + 1) / 2), m + 1)]
    narrow = [(m, n, k) for m in (2, 3, 4) for n in range(m + 2, 2 * m + 2)
              for k in range(math.ceil((m + 1) / 2), m + 1)]
    violations: list[dict] = []
    counts = {}
    for label, combos, verify in (("wide", wide, verify_theorem2),
                                  ("narrow", narrow, verify_theorem3)):
        stream = _instance_stream(combos, f"acc9-{label}")
        done = 0
        for m, n, k, seed in itertools.islice(stream, 20):
            spec = sample_instance(m, n, seed=seed)
            A = build_vandermonde(spec)
            planted, _ = plant_with_level(A, k, seed=derive_seed(seed, "plant"))
            rep = verify(spec, planted.x_star, trials=30, seed=derive_seed(seed, "deep"))
            assert rep.hypothesis_ok, (label, m, n, k, seed)
            assert math.isfinite(rep.margin_min)
            violations.extend(
                {"regime": label, "m": m, "n": n, "k": k, "seed": seed, **v}
                for v in rep.violations
            )
            done += 1
        counts[label] = done
    dump = tmp_path / "deep_regime_counterexamples.json"
    dump.write_text(json.dumps(violations, indent=2, sort_keys=True, default=str))
    _line(9, "deep-regime margins stay positive at half the limit threshold",
          not violations,
          f"reported: {len(violations)} violations over {counts['wide']} wide + "
          f"{counts['narrow']} narrow instances, 30 kernel samples each; dump {dump}")
    assert counts == {"wide": 20, "narrow": 20}


def test_criterion_10_suite_determinism(tmp_path, capsys):
    out = tmp_path / "det_run"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed = 7\nm = 2\nn = 8\ntrials = 8\noutput_dir = {out}\n")
    artifacts = ("phase_diagram.csv", "margins.csv", "manifest.json", "counterexamples.json")
    assert cli_main(["suite", "--config", str(cfg)]) == 0
    first = {f: (out / f).read_bytes() for f in artifacts}
    assert cli_main(["suite", "--config", str(cfg)]) == 0
    capsys.readouterr()  # drop the two status printouts from the summary line
    same = {f: (out / f).read_bytes() == first[f] for f in artifacts}
    ok = all(same.values())
    _line(10, "suite reruns byte-identical under a fixed config", ok,
          ", ".join(f"{f}={'same' if same[f] else 'DIFFERS'}" for f in artifacts))
    assert same["phase_diagram.csv"] and same["margins.csv"]
    assert ok
