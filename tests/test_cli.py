import json

import pytest

from lp_equiv import __version__
from lp_equiv.cli import main


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
    assert [tuple(s["support"]) for s in out["minimizers"]] == [(0, 2)]


def test_audit_lemma_subcommands(capsys):
    for lemma in ("2", "3", "phi"):
        assert main(["audit", "--lemma", lemma, "--trials", "200"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["passes"] is True


def test_audit_chain_on_generated_matrix(tmp_path, capsys):
    mat = tmp_path / "A.json"
    main(["gen", "--m", "2", "--n", "7", "--seed", "0", "--out", str(mat)])
    assert main(["audit", "--lemma", "chain", "--matrix", str(mat), "--k", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
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
    assert out["limit_monotone"] is True

    narrow = tmp_path / "narrow.json"
    narrow.write_text(json.dumps({"m": 2, "lambda": [0.6, -0.8, 1.1, 1.7, 0.9]}))
    assert main(["verify-thm3", "--spec", str(narrow), "--trials", "6"]) == 0
    out = json.loads(capsys.readouterr().out)
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
    assert out["min_eig"] > 0.0
    assert out["max_eig"] >= out["min_eig"]


def test_out_file_redirects_json(tmp_path):
    mat = tmp_path / "A.json"
    main(["gen", "--m", "2", "--n", "6", "--seed", "3", "--out", str(mat)])
    dest = tmp_path / "spark.json"
    assert main(["spark", "--matrix", str(mat), "--out", str(dest)]) == 0
    assert json.loads(dest.read_text())["spark"] == 3
