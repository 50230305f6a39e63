import dataclasses
import json

import pytest

from lp_equiv import __version__
from lp_equiv.analysis import (
    ChainAudit,
    CrossTermReport,
    ScalarCheckReport,
    SequenceCheckReport,
    audit_theorem1_chain,
)
from lp_equiv.cli import _load_matrix, main
from lp_equiv.matgen import DenseMatrix, VandermondeSpec, build_vandermonde, sample_instance
from lp_equiv.numerics import derive_seed
from lp_equiv.solvers import (
    LpMinimum,
    MatrixFacts,
    SparseSolution,
    SparseSolutionSet,
    Theorem2Report,
    Theorem3Report,
    plant_with_level,
    sample_null,
)
from lp_equiv.spark import SparkCertificate, check_submatrix_invertibility
from lp_equiv.spectral import RestrictedSpectrum, SpectralSummary, gram_spectrum
from lp_equiv.suite import _json_text


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


def test_gen_positive_emits_the_unsigned_draw(tmp_path):
    # --positive folds the seed's signed draw to |lam|; distinct positive
    # nodes make every square submatrix invertible (total positivity)
    signed, positive = tmp_path / "signed.json", tmp_path / "positive.json"
    assert main(["gen", "--m", "3", "--n", "7", "--seed", "5", "--out", str(signed)]) == 0
    argv = ["gen", "--m", "3", "--n", "7", "--seed", "5", "--positive", "--out", str(positive)]
    assert main(argv) == 0
    lam = json.loads(signed.read_text())["spec"]["lambda"]
    assert lam == list(sample_instance(3, 7, seed=5).lam) and min(lam) < 0.0
    envelope = json.loads(positive.read_text())
    spec = VandermondeSpec.from_json_dict(envelope["spec"])
    assert spec.lam == tuple(abs(v) for v in lam) and spec.seed == 5
    emitted = DenseMatrix.from_json_dict(envelope["matrix"]).entries
    assert emitted.tobytes() == build_vandermonde(spec).entries.tobytes()
    assert check_submatrix_invertibility(spec).passes


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


@pytest.mark.parametrize("k", [None, 1, 2])
def test_audit_chain_report_is_the_level_certified_plants(tmp_path, capsys, k):
    # at (4, 9), spark 5, the default k is 2; below spark/2 the chain's plant
    # is plant_with_level's first, so the report is the one an l0-certified
    # plant gives
    mat = tmp_path / "A.json"
    main(["gen", "--m", "4", "--n", "9", "--seed", "2", "--out", str(mat)])
    flags = [] if k is None else ["--k", str(k)]
    assert main(["audit", "--lemma", "chain", "--matrix", str(mat), "--seed", "5", *flags]) == 0
    A = _load_matrix(str(mat))
    planted, sol = plant_with_level(A, 2 if k is None else k, derive_seed(5, "plant"))
    h = sample_null(MatrixFacts(A), count=1, seed=derive_seed(5, "h")).vectors[0]
    gram = gram_spectrum(A)
    expected = audit_theorem1_chain(A, planted.x_star, h, min(gram.p_star / 2.0, 1.0), gram)
    assert sol.supports == (planted.support,)
    assert capsys.readouterr().out == _json_text(expected)


@pytest.mark.parametrize("m, n, flags, spark", [(1, 4, [], 2), (3, 7, ["--k", "3"], 4)])
def test_audit_chain_rejects_a_level_outside_its_hypothesis(tmp_path, capsys, m, n, flags, spark):
    # the chain audits T1, whose hypothesis is 1 <= k < spark/2; at m = 1
    # (spark 2) no k is admissible, so the default k = (spark-1)//2 = 0 fails
    mat = tmp_path / "A.json"
    main(["gen", "--m", str(m), "--n", str(n), "--seed", "0", "--out", str(mat)])
    capsys.readouterr()
    assert main(["audit", "--lemma", "chain", "--matrix", str(mat), *flags]) == 2
    captured = capsys.readouterr()
    k = int(flags[1]) if flags else 0
    assert captured.out == ""
    assert f"need 1 <= k < spark/2 = {spark / 2}, got k={k}" in captured.err


@pytest.mark.parametrize("argv", [["--lemma", "2", "--trials", "0"],
                                  ["--lemma", "bu", "--trials", "-3"]])
def test_audits_on_fewer_than_one_trial_exit_2(tmp_path, capsys, argv):
    # no trial cannot pass: a worst case of "-inf" over nothing is no evidence
    mat = tmp_path / "A.json"
    main(["gen", "--m", "2", "--n", "6", "--seed", "3", "--out", str(mat)])
    capsys.readouterr()
    assert main(["audit", *argv, "--matrix", str(mat)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "trials must be >= 1" in captured.err


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
    # LP_EQUIV_BUDGET is the one way to set the subset cap; gen takes no node
    # range or separation either, since the rank calibration holds only for
    # matgen's constants
    mat = tmp_path / "A.json"
    main(["gen", "--m", "2", "--n", "6", "--seed", "3", "--out", str(mat)])
    for argv in (
        ["spark", "--matrix", str(mat), "--budget", "5"],
        ["suite", "--m", "2", "--n", "5", "--budget", "5"],
        ["gen", "--m", "2", "--n", "6", "--abs-range", "0.5", "2.0"],
        ["gen", "--m", "2", "--n", "6", "--separation", "0.05"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
