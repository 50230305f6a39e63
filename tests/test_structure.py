"""Call-count invariants of the suite, traced over the benchmark's workload.

Each test runs one pass of the suite-artifacts workload's seed-1 units
(``perfbench/workloads.py``) under ``perfbench/tracer.py``'s ``Tracer`` and
checks an equality between call counts that a structural regression breaks.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture(scope="module")
def suite_metrics(tmp_path_factory):
    lp = importlib.import_module("lp_equiv")  # the package the tracer patches
    workload = WORKLOADS["suite-artifacts"]
    units = workload.make_inputs(lp, 1)
    workdir = str(tmp_path_factory.mktemp("suite-artifacts"))
    with Tracer() as tracer:
        outcomes = [workload.run_unit(lp, unit, workdir) for unit in units]
    assert len(units) == 12 and all(o.ok for o in outcomes)
    return tracer.summary()


def test_one_claim_evaluator_for_t1_t2_and_t3(suite_metrics):
    # every harness takes its margins and violation records from one
    # verify_strict_inequality call; a harness with its own margin loop
    # would leave the evaluator's count below the harness count
    evaluator = suite_metrics["solvers.verify_strict_inequality.calls"]
    harnesses = sum(suite_metrics[f"solvers.verify_theorem{i}.calls"] for i in (1, 2, 3))
    assert harnesses > 0 and evaluator == harnesses


def test_one_l0_solve_per_planted_instance(suite_metrics):
    # every solve_l0 call is a plant_with_level certificate; the T2 and T3
    # harnesses plant their own x*, so a second l0 solve of a planted
    # instance would leave solve_l0 above the plants' own solves
    solves = suite_metrics["solvers.solve_l0.calls"]
    plants = suite_metrics["solvers.plant_with_level.calls"]
    per_plant = suite_metrics["solvers.l0_solves_per_plant"]
    assert plants > 0 and solves == round(plants * per_plant)
