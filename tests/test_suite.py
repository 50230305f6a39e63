import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from lp_equiv import suite
from lp_equiv.analysis import audit_theorem1_chain
from lp_equiv.matgen import VandermondeSpec, build_vandermonde, sample_instance
from lp_equiv.numerics import derive_seed
from lp_equiv.solvers import plant_with_level, verify_theorem1
from lp_equiv.spark import compute_spark
from lp_equiv.suite import (
    CheckResult,
    RunConfig,
    RunManifest,
    _csv_text,
    json_safe,
    run_suite,
)


def test_config_text_round_trip():
    cfg = RunConfig(seed=3, m=2, n=7, trials=12, output_dir="out_x")
    text = cfg.to_text()
    back = RunConfig.from_text(text)
    assert back == cfg
    assert RunConfig.from_text(back.to_text()) == back  # idempotent


def test_config_text_parses_comments_and_types():
    text = """
# comment line
seed = 5
m=3
n = 8

trials = 4
output_dir = somewhere
"""
    cfg = RunConfig.from_text(text)
    assert cfg.seed == 5 and cfg.m == 3 and cfg.n == 8 and cfg.trials == 4
    assert cfg.output_dir == "somewhere"
    # no key sets the subset cap: LP_EQUIV_BUDGET is its one setting
    with pytest.raises(ValueError, match="unknown config key 'budget'"):
        RunConfig.from_text(text + "budget = 5000\n")
    # no key sets a rank tolerance: the package has one rank policy
    with pytest.raises(ValueError, match="unknown config key 'tol'"):
        RunConfig.from_text(text + "tol = 1e-9\n")
    # no key sets the T1 p grid or the T2 t schedule: every run derives the
    # grid from the computed threshold and takes the default schedule
    with pytest.raises(ValueError, match="unknown config key 'p_grid'"):
        RunConfig.from_text(text + "p_grid = 0.5, 1.0\n")
    with pytest.raises(ValueError, match="unknown config key 't_schedule'"):
        RunConfig.from_text(text + "t_schedule = 10, 100\n")
    # a malformed integer names its line, as every other malformed line does
    with pytest.raises(ValueError, match=r"line 7: trials must be an integer, got '1e3'"):
        RunConfig.from_text(text.replace("trials = 4", "trials = 1e3"))
    with pytest.raises(ValueError, match="line 2: seed must be an integer, got ''"):
        RunConfig.from_text("# comment\nseed =\n")


def test_config_text_rejects_unknown_and_duplicate_keys():
    with pytest.raises(ValueError, match="unknown"):
        RunConfig.from_text("seed = 1\nbogus = 2\n")
    with pytest.raises(ValueError, match="duplicate"):
        RunConfig.from_text("seed = 1\nseed = 2\n")
    with pytest.raises(ValueError, match="expected"):
        RunConfig.from_text("just a line without equals\n")


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(m=0)
    with pytest.raises(ValueError):
        RunConfig(m=3, n=3)
    with pytest.raises(ValueError):
        RunConfig(trials=0)
    # an empty path would put the artifacts in the current directory
    with pytest.raises(ValueError, match="output_dir"):
        RunConfig(output_dir="")
    with pytest.raises(ValueError, match="output_dir"):
        RunConfig.from_text("seed = 1\noutput_dir =\n")


def test_json_safe_handles_numpy_and_dataclasses():
    out = json_safe(
        {
            "a": np.float64(1.5),
            "b": np.int32(7),
            "c": np.array([1.0, 2.0]),
            "d": (1, 2),
            "e": {3, 1},
            "f": np.bool_(True),
        }
    )
    assert out == {"a": 1.5, "b": 7, "c": [1.0, 2.0], "d": [1, 2], "e": [1, 3], "f": True}
    check = CheckResult(name="x", status="pass", asserted=True, detail={"v": np.float64(2)})
    assert json_safe(check) == {
        "name": "x",
        "status": "pass",
        "asserted": True,
        "detail": {"v": 2.0},
    }
    with pytest.raises(TypeError):
        json_safe(object())


def test_json_safe_stringifies_nonfinite_floats():
    # inf/nan become strings so the dumped JSON stays strict
    out = json_safe({"x": math.inf, "y": math.nan, "z": np.float64("-inf")})
    assert out["x"] == "inf"
    assert out["y"] == "nan"
    assert out["z"] == "-inf"
    assert json.loads(json.dumps(out, allow_nan=False)) == out


def test_csv_text_layout_and_float_repr():
    text = _csv_text(["a", "b", "ok"], [[0.1, 2, True], [1e-3, 3, False]])
    lines = text.splitlines()
    assert lines[0] == "a,b,ok"
    assert lines[1] == "0.1,2,true"
    assert lines[2] == "0.001,3,false"
    with pytest.raises(ValueError):
        _csv_text(["a"], [[1, 2]])


@pytest.mark.parametrize(
    "m, n, seed, p_grid", [(2, 8, 0, None), (3, 9, 7, None), (4, 10, 1, (1.0, 0.3, 0.05, 0.3))]
)
def test_margin_lines_equal_sorted_csv_rows(m, n, seed, p_grid):
    # the per-report renderer writes the bytes of the rows -> sort ->
    # _csv_text path it replaced, for every k of one suite-sized instance
    A = build_vandermonde(sample_instance(m, n, seed=seed))
    spark = compute_spark(A).spark
    rows, lines = [], []
    for k in range(1, (spark - 1) // 2 + 1):
        report = verify_theorem1(A, k, trials=30, p_grid=p_grid, seed=seed + k)
        for rep in report.reports:
            for (kind, scale), margin in zip(report.sample_labels, rep.margins):
                rows.append((m, n, k, float(rep.p), kind, scale, margin))
        lines += suite._margin_lines(report)
    assert len(rows) == len(lines) > 0
    rows.sort(key=lambda r: (r[2], r[3], r[4], r[5]))
    old = _csv_text(suite.MARGIN_HEADER, rows)
    assert "\n".join([",".join(suite.MARGIN_HEADER), *lines]) + "\n" == old


def run_small(tmp_path, name="run1", seed=0):
    cfg = RunConfig(seed=seed, m=2, n=8, trials=6, output_dir=str(tmp_path / name))
    return cfg, run_suite(cfg)


def test_run_suite_writes_artifacts_and_passes(tmp_path):
    cfg, manifest = run_small(tmp_path)
    assert isinstance(manifest, RunManifest)
    assert manifest.asserted_pass
    out = tmp_path / "run1"
    for fname in ("manifest.json", "phase_diagram.csv", "margins.csv", "counterexamples.json"):
        assert (out / fname).exists(), fname
    loaded = json.loads((out / "manifest.json").read_text())
    assert loaded["asserted_pass"] is True
    assert loaded["config"]["seed"] == 0
    names = {c["name"] for c in loaded["checks"]}
    assert {"spark", "gram-spectrum", "sequence-comparison", "f-lower-bound",
            "phi-upper-bound", "spectral-sandwich", "cross-term",
            "t1-margins-k1", "chain-asserted", "t2-augmented"} <= names
    statuses = {c["name"]: c["status"] for c in loaded["checks"]}
    assert statuses["spark"] == "pass"
    assert statuses["t2-augmented"] in ("pass", "reported")
    header = (out / "phase_diagram.csv").read_text().splitlines()[0]
    assert header == "m,n,k,p,p_star,margin_min,argmin_match"
    header2 = (out / "margins.csv").read_text().splitlines()[0]
    assert header2 == "m,n,k,p,h_kind,h_scale,margin"


def test_run_suite_byte_identical_rerun(tmp_path):
    cfg = RunConfig(seed=1, m=2, n=8, trials=6, output_dir=str(tmp_path / "det"))
    run_suite(cfg)
    out = tmp_path / "det"
    first = {f: (out / f).read_bytes() for f in (
        "manifest.json", "phase_diagram.csv", "margins.csv", "counterexamples.json")}
    run_suite(cfg)
    for f, blob in first.items():
        assert (out / f).read_bytes() == blob, f


def test_run_suite_narrow_regime_uses_extension(tmp_path):
    for m, n, seed, trials in [(2, 5, 2, 6), (3, 6, 1, 10)]:
        out = str(tmp_path / f"narrow-{m}-{n}")
        manifest = run_suite(RunConfig(seed=seed, m=m, n=n, trials=trials, output_dir=out))
        names = {c.name for c in manifest.checks}
        assert "t3-extension" in names
        assert "t2-augmented" not in names
        # the node extension ran rather than being skipped: verify_theorem3 was reached
        assert [c.status for c in manifest.checks if c.name == "t3-extension"] == ["reported"]
        assert manifest.asserted_pass


def test_run_suite_skips_enumerating_checks_under_a_small_cap(tmp_path, monkeypatch):
    # at (2,8) a cap of 5 is below every scan: spark (92 subsets), the
    # submatrix scan (44), the cross-term spark and the deep-regime plant
    monkeypatch.setenv("LP_EQUIV_BUDGET", "5")
    cfg = RunConfig(seed=0, m=2, n=8, trials=6, output_dir=str(tmp_path / "capped"))
    manifest = run_suite(cfg)
    skipped = {c.name: c.detail["reason"] for c in manifest.checks if c.status == "skipped"}
    capped = {"spark", "submatrix-invertibility", "cross-term", "t2-augmented"}
    assert all("but the cap is 5" in skipped[name] for name in capped)
    # every check that needs the spark certificate is listed as skipped, at
    # the levels the expected spark m + 1 = 3 admits
    dependent = {"spectral-sandwich", "t1-margins-k1", "chain-asserted", "chain-reported"}
    assert set(skipped) == capped | dependent
    assert all(skipped[name] == "needs the spark certificate, which was skipped"
               for name in dependent)
    # a skipped asserted check is not a pass
    assert not manifest.asserted_pass


@pytest.mark.parametrize("n, deep", [(3, "t3-extension"), (4, "t2-augmented")])
def test_run_suite_at_m1_runs_no_t1_level_and_no_chain(tmp_path, n, deep):
    # spark 2 admits no level 1 <= k < spark/2, so neither T1 nor the chain
    # audit runs; the deep regime still plants at k = m = 1
    out = tmp_path / f"m1-{n}"
    manifest = run_suite(RunConfig(seed=0, m=1, n=n, trials=6, output_dir=str(out)))
    for fname in ("manifest.json", "phase_diagram.csv", "margins.csv", "counterexamples.json"):
        assert (out / fname).exists(), fname
    statuses = {c.name: c.status for c in manifest.checks}
    assert statuses["spark"] == "pass" and statuses[deep] == "reported"
    assert not any(name.startswith(("t1-", "chain-")) for name in statuses)
    assert manifest.asserted_pass


def test_manifest_violation_count_matches_dump(tmp_path):
    cfg, manifest = run_small(tmp_path, name="vc", seed=3)
    out = tmp_path / "vc"
    dumped = json.loads((out / "counterexamples.json").read_text())
    assert manifest.violation_count == len(dumped)


def _csv_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def test_phase_and_margin_rows_are_the_t1_harness_reports(tmp_path):
    cfg = RunConfig(seed=4, m=4, n=7, trials=6, output_dir=str(tmp_path / "t1"))
    run_suite(cfg)
    phase = _csv_rows(tmp_path / "t1" / "phase_diagram.csv")
    margins = _csv_rows(tmp_path / "t1" / "margins.csv")
    spec = sample_instance(4, 7, seed=derive_seed(cfg.seed, "instance"))
    A = build_vandermonde(spec)
    assert sorted({int(r["k"]) for r in phase}) == [1, 2]
    for k in (1, 2):
        rep = verify_theorem1(A, k, trials=cfg.trials, seed=derive_seed(cfg.seed, f"thm1-k{k}"))
        got = [
            (float(r["p"]), float(r["p_star"]), float(r["margin_min"]), r["argmin_match"] == "true")
            for r in phase
            if int(r["k"]) == k
        ]
        assert got == [(r.p, rep.p_star, r.margin_min, r.argmin_match) for r in rep.reports]
        got = [
            (float(r["p"]), r["h_kind"], float(r["h_scale"]), float(r["margin"]))
            for r in margins
            if int(r["k"]) == k
        ]
        want = [
            (r.p, kind, scale, margin)
            for r in rep.reports
            for (kind, scale), margin in zip(rep.sample_labels, r.margins)
        ]
        assert got == sorted(want, key=lambda row: row[:3])  # the CSV sort is stable


def test_t1_counterexamples_carry_replay_data(tmp_path, monkeypatch):
    harness = suite.verify_theorem1

    def one_violation(*args, **kwargs):
        rep = harness(*args, **kwargs)
        return replace(rep, counterexamples=({"p": 0.1, "margin": -1.0, "h": [0.0] * rep.n},))

    monkeypatch.setattr(suite, "verify_theorem1", one_violation)
    cfg, manifest = run_small(tmp_path, name="ce")
    dumped = json.loads((tmp_path / "ce" / "counterexamples.json").read_text())
    t1 = [c for c in dumped if c["check"] == "t1-margins-k1"]
    instance = next(c for c in manifest.checks if c.name == "instance")
    assert len(t1) == 1
    assert t1[0]["lambda"] == instance.detail["lambda"]
    assert len(t1[0]["x_star"]) == cfg.n and sum(v != 0.0 for v in t1[0]["x_star"]) == 1


@pytest.mark.parametrize(
    "harness,check,label,n",
    [("verify_theorem2", "t2-augmented", "t2", 8), ("verify_theorem3", "t3-extension", "t3", 5)],
)
def test_deep_regime_counterexamples_carry_replay_data(
    tmp_path, monkeypatch, harness, check, label, n
):
    real = getattr(suite, harness)

    def one_violation(*args, **kwargs):
        rep = real(*args, **kwargs)
        return replace(rep, violations=({"p": rep.p_check, "margin": -1.0, "h": [0.0] * rep.n},))

    monkeypatch.setattr(suite, harness, one_violation)
    cfg = RunConfig(seed=2, m=2, n=n, trials=6, output_dir=str(tmp_path / label))
    run_suite(cfg)
    dumped = json.loads((tmp_path / label / "counterexamples.json").read_text())
    (ce,) = [c for c in dumped if c["check"] == check]
    # lambda and the harness seed rebuild the instance and its planted x*
    A = build_vandermonde(VandermondeSpec(cfg.m, tuple(ce["lambda"])))
    planted, _ = plant_with_level(A, cfg.m, derive_seed(derive_seed(cfg.seed, label), "plant"))
    assert ce["x_star"] == planted.x_star.tolist()


def test_cross_term_counterexample_replays_from_its_record(tmp_path):
    # (2, 5) seed 4 samples a pair past the paper's (lmax - lmp)/2 constant
    cfg = RunConfig(seed=4, m=2, n=5, trials=30, output_dir=str(tmp_path / "bu"))
    run_suite(cfg)
    dumped = json.loads((tmp_path / "bu" / "counterexamples.json").read_text())
    (ce,) = [c for c in dumped if c["check"] == "cross-term"]
    assert set(ce) == {
        "check", "support1", "support2", "x1", "x2", "ratio", "paper_bound", "lambda"
    }
    M = build_vandermonde(VandermondeSpec(cfg.m, tuple(ce["lambda"]))).entries
    x1, x2 = np.zeros(cfg.n), np.zeros(cfg.n)
    x1[ce["support1"]], x2[ce["support2"]] = ce["x1"], ce["x2"]
    ratio = abs(float((M @ x1) @ (M @ x2))) / float(np.linalg.norm(x1) * np.linalg.norm(x2))
    # JSON floats round-trip exactly, so only the evaluation order differs
    # from the audit's: each side's inner product is off by at most
    # (n + m) ulps of the products' magnitude |M||x1| . |M||x2|, and each norm
    # by (n + 1) ulps; the record is a large ratio, so that magnitude is
    # within a small factor of the inner product itself
    magnitude = float((np.abs(M) @ np.abs(x1)) @ (np.abs(M) @ np.abs(x2)))
    cond = magnitude / abs(float((M @ x1) @ (M @ x2)))
    ulps = 2 * ((cfg.n + cfg.m) * cond + 2 * (cfg.n + 1))
    assert ratio > ce["paper_bound"]
    assert abs(ratio - ce["ratio"]) <= ulps * np.finfo(float).eps * ratio


def test_chain_counterexample_replays_from_its_record(tmp_path):
    # (3, 9) seed 7 fails a reported step of the chain audit
    cfg = RunConfig(seed=7, m=3, n=9, trials=30, output_dir=str(tmp_path / "chain"))
    run_suite(cfg)
    dumped = json.loads((tmp_path / "chain" / "counterexamples.json").read_text())
    # every counterexample names its instance by lambda
    assert dumped and all("lambda" in c for c in dumped)
    (ce,) = [c for c in dumped if c["check"] == "chain"]
    assert {"lambda", "x_star", "h", "p"} <= set(ce)
    A = build_vandermonde(VandermondeSpec(cfg.m, tuple(ce["lambda"])))
    audit = audit_theorem1_chain(A, np.array(ce["x_star"]), np.array(ce["h"]), ce["p"])
    # JSON floats round-trip exactly, so the replay is the same computation
    replay = {key: ce[key] for key in ce if key not in ("check", "lambda", "x_star", "h")}
    assert json_safe(audit) == replay
    assert not (audit.asserted_ok and audit.reported_ok)
