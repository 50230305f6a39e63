import dataclasses
import json

import pytest

from lp_equiv import __version__
from lp_equiv.analysis import ChainAudit, CrossTermReport, ScalarCheckReport, SequenceCheckReport
from lp_equiv.cli import main
from lp_equiv.solvers import (
    LpMinimum,
    SparseSolution,
    SparseSolutionSet,
    Theorem2Report,
    Theorem3Report,
)
from lp_equiv.spark import SparkCertificate
from lp_equiv.spectral import RestrictedSpectrum, SpectralSummary


def _fields(cls) -> set[str]:
    """Every JSON report is its dataclass's fields, no more and no fewer."""
    return {f.name for f in dataclasses.fields(cls)}


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_gen_then_spark_round_trip(tmp_path, capsys):
    mat = tmp_path / "A.json"
    assert main(["gen", "--m", "2", "--n", "6", "--seed", "3", "--out", str(mat)]) == 0
    envelope = json.loads(mat.read_text())
    assert envelope["spec"]["m"] == 2 and len(envelope["spec"]["lambda"]) == 6
    assert envelope["matrix"]["rows"] == 2 and envelope["matrix"]["cols"] == 6
    assert main(["spark", "--matrix", str(mat)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == _fields(SparkCertificate)
    assert out["spark"] == 3
    assert len(out["witness"]) == 3


def test_gen_csv_format(tmp_path):
    mat = tmp_path / "A.csv"
    assert main(["gen", "--m", "2", "--n", "5", "--format", "csv", "--out", str(mat)]) == 0
    rows = mat.read_text().strip().splitlines()
    assert len(rows) == 2  # m rows of powers 0 .. m-1
    assert all(len(r.split(",")) == 5 for r in rows)
    assert main(["spark", "--matrix", str(mat)]) == 0


def test_pstar_reports_spectrum(tmp_path, capsys):
    mat = tmp_path / "A.json"
    main(["gen", "--m", "2", "--n", "6", "--seed", "3", "--out", str(mat)])
    assert main(["pstar", "--matrix", str(mat)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == _fields(SpectralSummary)
    assert 0.0 < out["p_star"] <= 1.0
    assert out["lambda_max"] >= out["lambda_min_plus"] > 0.0


def test_solve_l0_worked_example(tmp_path, capsys):
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps({
        "matrix": {"m": 2, "lambda": [1.0, 2.0, 3.0]},
        "b": [2.0, 3.0],
    }))
    assert main(["solve-l0", "--problem", str(prob)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == _fields(SparseSolutionSet) == {"level", "solutions"}
    assert _fields(SparseSolution) == {"support", "coefficients"}
    assert all(set(s) == _fields(SparseSolution) for s in out["solutions"])
    assert out["level"] == 2
    supports = {tuple(s["support"]) for s in out["solutions"]}
    assert supports == {(0, 1), (0, 2), (1, 2)}


def test_solve_lp_worked_example(tmp_path, capsys):
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps({
        "matrix": {"m": 2, "lambda": [1.0, 2.0, 3.0]},
        "b": [2.0, 3.0],
    }))
    assert main(["solve-lp", "--problem", str(prob), "--p", "0.5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == _fields(LpMinimum) == {"p", "value", "minimizers"}
    assert all(set(s) == _fields(SparseSolution) for s in out["minimizers"])
    assert [tuple(s["support"]) for s in out["minimizers"]] == [(0, 2)]


def test_audit_lemma_subcommands(capsys):
    for lemma, report in (("2", SequenceCheckReport), ("3", ScalarCheckReport),
                          ("phi", ScalarCheckReport)):
        assert main(["audit", "--lemma", lemma, "--trials", "200"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out) == _fields(report)
        assert out["passes"] is True


def test_audit_bu_reports_both_constants(tmp_path, capsys):
    mat = tmp_path / "A.json"
    main(["gen", "--m", "2", "--n", "7", "--seed", "0", "--out", str(mat)])
    assert main(["audit", "--lemma", "bu", "--matrix", str(mat), "--trials", "50"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == _fields(CrossTermReport)
    assert out["trials"] == 50 and out["spark"] == 3 and out["max_support"] == 1
    assert out["degenerate"] is False and out["worst_ratio"] > 0.0
    with pytest.raises(SystemExit):
        main(["audit", "--lemma", "bu"])  # needs --matrix


def test_audit_chain_on_generated_matrix(tmp_path, capsys):
    mat = tmp_path / "A.json"
    main(["gen", "--m", "2", "--n", "7", "--seed", "0", "--out", str(mat)])
    assert main(["audit", "--lemma", "chain", "--matrix", str(mat), "--k", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == _fields(ChainAudit)
    assert out["asserted_ok"] is True
    assert out["margin"] > 0.0


def test_verify_thm1_exit_code(tmp_path, capsys):
    mat = tmp_path / "A.json"
    main(["gen", "--m", "2", "--n", "7", "--seed", "21", "--out", str(mat)])
    assert main(["verify-thm1", "--matrix", str(mat), "--k", "1", "--trials", "12"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["all_hold"] is True
    # per-sample margins and labels, but no kernel vectors
    assert len(out["x_star"]) == 7 and len(out["sample_labels"]) == out["trials"]
    assert all(len(r["margins"]) == out["trials"] for r in out["reports"])
    assert set(out) == {
        "m", "n", "k", "spark", "p_star", "level", "recovered", "l0_unique", "reports",
        "counterexamples", "all_hold", "trials", "seed", "grid_below_threshold_empty",
        "x_star", "sample_labels",
    }


def test_verify_thm2_and_thm3(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"m": 2, "lambda": [0.6, -0.8, 1.1, -1.3, 1.7, 0.9, -1.9, 0.7]}))
    assert main(["verify-thm2", "--spec", str(spec), "--trials", "6"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == _fields(Theorem2Report)
    assert out["limit_monotone"] is True

    narrow = tmp_path / "narrow.json"
    narrow.write_text(json.dumps({"m": 2, "lambda": [0.6, -0.8, 1.1, 1.7, 0.9]}))
    assert main(["verify-thm3", "--spec", str(narrow), "--trials", "6"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == _fields(Theorem3Report)
    assert out["margin_min"] > 0.0


def test_suite_command_and_config_file(tmp_path, capsys):
    out_dir = tmp_path / "suite_out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed = 4\nm = 2\nn = 8\ntrials = 6\noutput_dir = {out_dir}\n")
    assert main(["suite", "--config", str(cfg)]) == 0
    text = capsys.readouterr().out
    assert "spark" in text and "pass" in text
    for fname in ("manifest.json", "phase_diagram.csv", "margins.csv", "counterexamples.json"):
        assert (out_dir / fname).exists()


def test_suite_overrides_without_config(tmp_path):
    out_dir = tmp_path / "quick"
    assert main(["suite", "--m", "2", "--n", "8", "--trials", "6",
                 "--seed", "1", "--output-dir", str(out_dir)]) == 0
    assert (out_dir / "manifest.json").exists()


def test_restricted_spec_subcommand(tmp_path, capsys):
    mat = tmp_path / "A.json"
    main(["gen", "--m", "2", "--n", "6", "--seed", "3", "--out", str(mat)])
    assert main(["restricted-spec", "--matrix", str(mat), "--k", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == _fields(RestrictedSpectrum)
    assert out["min_eig"] > 0.0
    assert out["max_eig"] >= out["min_eig"]


def test_out_file_redirects_json(tmp_path):
    mat = tmp_path / "A.json"
    main(["gen", "--m", "2", "--n", "6", "--seed", "3", "--out", str(mat)])
    dest = tmp_path / "spark.json"
    assert main(["spark", "--matrix", str(mat), "--out", str(dest)]) == 0
    assert json.loads(dest.read_text())["spark"] == 3


@pytest.mark.parametrize("value", ["0", "-1", "1e6", "abc"])
def test_malformed_cap_exits_2(tmp_path, capsys, monkeypatch, value):
    mat = tmp_path / "A.json"
    main(["gen", "--m", "2", "--n", "6", "--seed", "3", "--out", str(mat)])
    monkeypatch.setenv("LP_EQUIV_BUDGET", value)
    assert main(["spark", "--matrix", str(mat)]) == 2
    # the suite fails too, rather than skip every enumerating check
    out_dir = str(tmp_path / "suite")
    assert main(["suite", "--m", "2", "--n", "5", "--trials", "6", "--output-dir", out_dir]) == 2
    err = capsys.readouterr().err
    assert err.count(f"LP_EQUIV_BUDGET must be an integer >= 1, got {value!r}") == 2


def test_suite_exits_1_when_the_cap_skips_an_asserted_check(tmp_path, capsys, monkeypatch):
    # a cap of 5 skips the asserted spark check, which is not a pass
    monkeypatch.setenv("LP_EQUIV_BUDGET", "5")
    out_dir = str(tmp_path / "capped")
    assert main(["suite", "--m", "2", "--n", "8", "--trials", "6", "--output-dir", out_dir]) == 1
    out = capsys.readouterr().out
    assert "skipped  [asserted]  spark" in out and "asserted_pass: False" in out


def test_no_subcommand_takes_a_cap_flag(tmp_path):
    # LP_EQUIV_BUDGET is the one way to set the subset cap
    mat = tmp_path / "A.json"
    main(["gen", "--m", "2", "--n", "6", "--seed", "3", "--out", str(mat)])
    for argv in (["spark", "--matrix", str(mat)], ["suite", "--m", "2", "--n", "5"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--budget", "5"])
        assert exc.value.code == 2
