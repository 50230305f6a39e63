"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import tracer
from workloads import WORKLOADS

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def lp():
    sys.path.insert(0, str(run.SRC))
    return run.import_package()


def _bindings() -> dict:
    """Identity of every attribute of every lp_equiv module and of numpy.linalg."""
    out = {}
    for module in [*tracer.package_modules(), np.linalg]:
        for attr, value in vars(module).items():
            out[(module.__name__, attr)] = id(value)
    return out


def test_metric_names_are_well_formed_and_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = [name for name, _ in run.END_TO_END]
    per_layer = [name for name, _, _ in run.PER_LAYER]
    for name in end_to_end + per_layer:
        assert NAME_RE.fullmatch(name) and len(name) <= 64, name
    assert len(set(end_to_end + per_layer)) == len(end_to_end) + len(per_layer)
    assert [m["name"] for m in spec["end_to_end"]] == end_to_end
    assert [m["name"] for m in spec["per_layer"]] == per_layer
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_tracer_restores_every_binding(lp):
    before = _bindings()
    spark_fn, svd = lp.spark.compute_spark, np.linalg.svd
    A = lp.build_vandermonde(lp.sample_instance(2, 5, seed=3))
    with tracer.Tracer():
        for module in (lp, lp.spark, lp.solvers, lp.suite, lp.analysis, lp.spectral):
            assert module.compute_spark is not spark_fn, module.__name__
        assert np.linalg.svd is not svd
        lp.verify_theorem1(A, 1, trials=6, seed=1)
    assert _bindings() == before


def test_nested_compute_spark_is_a_child_span(lp):
    A = lp.build_vandermonde(lp.sample_instance(2, 5, seed=3))
    with tracer.Tracer() as tr:
        lp.verify_theorem1(A, 1, trials=6, seed=1)
    edges = tr.edge_counts()
    assert edges[("solvers.verify_theorem1", "spark.compute_spark")] == 1
    assert edges[("solvers.verify_strict_inequality", "numerics.lp_margin")] > 0
    summary = tr.summary()
    assert summary["spark.compute_spark.calls"] == 1
    assert 0.0 <= summary["solvers.verify_theorem1.self_s"] < summary["solvers.verify_theorem1.busy_s"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_exactly(lp, name, tmp_path):
    workload = WORKLOADS[name]
    units = workload.make_inputs(lp, 5)[:3]
    counts = []
    for _ in range(2):
        with tracer.Tracer() as tr:
            outcomes = [workload.run_unit(lp, unit, str(tmp_path)) for unit in units]
        assert all(o.ok for o in outcomes)
        counts.append({k: v for k, v in tr.summary().items() if not k.endswith("_s")})
    assert counts[0] == counts[1]
    assert counts[0]["lapack.svd.calls"] > 0


def test_fails_without_package_source(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "t1-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
