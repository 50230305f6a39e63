"""Call-count invariants, traced over the benchmark's workloads.

Most tests run one pass of a workload's seed-1 units (suite-artifacts,
t1-sweep or prop1-spark, ``perfbench/workloads.py``) under ``perfbench/tracer.py``'s
``Tracer`` and check an equality between call counts that a structural
regression breaks; the T2 and T3 tests, the cross-term test and the two
basis-scan tests trace direct calls, the row-sum cost guard counts math.fsum calls over
t1-sweep's seed-1 and seed-7 units, and the source guard reads the package's
own source for a second rank or spectrum convention.
"""

import ast
import importlib
import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from lp_equiv import numerics
from lp_equiv.numerics import (
    PREFIX_MINORS_MIN_SUBSETS,
    RANK_TOL,
    SCREEN_FACTOR,
    _prefix_minors,
    _ratio_lower_bound,
    iter_subset_chunks,
    numerical_rank,
)
from lp_equiv.spark import _equilibrated, _open_after_screens, _open_square_subsets

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from test_solvers import _recorded_svd_solves  # noqa: E402
from test_spark import ascending_spark, minors_leave_open  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _traced_pass(name: str, units: int, workdir: str) -> dict:
    """The traced metrics of one pass over a workload's seed-1 units."""
    lp = importlib.import_module("lp_equiv")  # the package the tracer patches
    workload = WORKLOADS[name]
    inputs = workload.make_inputs(lp, 1)
    with Tracer() as tracer:
        outcomes = [workload.run_unit(lp, unit, workdir) for unit in inputs]
    assert len(inputs) == units and all(o.ok for o in outcomes)
    return tracer.summary()


@pytest.fixture(scope="module")
def suite_metrics(tmp_path_factory):
    return _traced_pass("suite-artifacts", 12, str(tmp_path_factory.mktemp("suite-artifacts")))


@pytest.fixture(scope="module")
def t1_metrics(tmp_path_factory):
    return _traced_pass("t1-sweep", 100, str(tmp_path_factory.mktemp("t1-sweep")))


@pytest.fixture(scope="module")
def prop1_metrics(tmp_path_factory):
    return _traced_pass("prop1-spark", 180, str(tmp_path_factory.mktemp("prop1-spark")))


def test_one_claim_evaluator_for_t1_t2_and_t3(suite_metrics):
    # every harness takes its margins and violation records from one
    # verify_strict_inequality call; a harness with its own margin loop
    # would leave the evaluator's count below the harness count
    evaluator = suite_metrics["solvers.verify_strict_inequality.calls"]
    harnesses = sum(suite_metrics[f"solvers.verify_theorem{i}.calls"] for i in (1, 2, 3))
    assert harnesses > 0 and evaluator == harnesses


def test_no_l0_solve_on_the_suite_path(suite_metrics):
    # plant_with_level reads its level off the basic-solution scan it hands
    # over, and T1 reads its l0 set off its own scan, so no check builds an
    # l0 solution set; test_solvers' test_plant_with_level_scans_once_per_attempt
    # counts the plant's scans
    assert suite_metrics["solvers.plant_with_level.calls"] > 0
    assert suite_metrics["solvers.solve_l0.calls"] == 0


def test_one_plant_per_deep_regime_harness(suite_metrics):
    # only T2 and T3 certify a plant's level; T1 and the chain audit plant
    # below spark/2, where x* is the unique l0 solution without an l0 solve
    plants = suite_metrics["solvers.plant_with_level.calls"]
    harnesses = sum(suite_metrics[f"solvers.verify_theorem{i}.calls"] for i in (2, 3))
    assert harnesses > 0 and plants == harnesses


def test_one_kernel_sample_per_harness(suite_metrics):
    # every sample_null call is a T1, T2 or T3 harness's; all of them draw
    # from the run's one kernel basis, and the chain audit takes its
    # direction, the minsupport row, without a kernel draw
    samples = suite_metrics["solvers.sample_null.calls"]
    harnesses = sum(suite_metrics[f"solvers.verify_theorem{i}.calls"] for i in (1, 2, 3))
    assert suite_metrics["analysis.audit_theorem1_chain.calls"] > 0
    assert harnesses > 0 and samples == harnesses
    assert suite_metrics["solvers.null_space_basis.calls"] == suite_metrics["suite.run_suite.calls"]


def test_one_set_of_matrix_facts_per_suite_run(suite_metrics):
    # run_suite certifies A's spark and takes its Gram summary once, for the
    # spark and gram-spectrum records, the sandwich, every T1 level, the
    # chain audit and the deep-regime harness alike; the only other Gram
    # summary is the T2 harness's A_0, and the T2 limit gaps take every A_t
    # from one stacked SVD, with no A_t built alone
    runs = suite_metrics["suite.run_suite.calls"]
    wide = suite_metrics["solvers.verify_theorem2.calls"]
    assert runs == 12 and wide == runs
    assert suite_metrics["spark.compute_spark.calls"] == runs
    assert suite_metrics["spectral.gram_spectrum.calls"] == runs + wide
    assert suite_metrics["matgen.build_augmented_t.calls"] == 0


def test_cross_term_check_reads_the_gram_extremes_off_its_report():
    # with A's Lemma-1 report, the cross-term bound takes lambda_min_plus and
    # lambda_max from it: no gram_spectrum call and no SVD of its own
    lp = importlib.import_module("lp_equiv")
    A = lp.build_vandermonde(lp.sample_instance(3, 9, seed=0))
    lemma1 = lp.lemma1_constants(A, spark=lp.compute_spark(A).spark, gram=lp.gram_spectrum(A))
    with Tracer() as tracer:
        report = lp.cross_term_check(A, trials=200, seed=1, lemma1=lemma1)
    metrics = tracer.summary()
    assert metrics["analysis.cross_term_check.calls"] == 1
    assert metrics["spectral.gram_spectrum.calls"] == 0 and tracer.lapack_calls["svd"] == 0
    assert report.paper_bound == (lemma1.lambda_max - lemma1.lambda_min_plus) / 2.0
    assert report == lp.cross_term_check(A, trials=200, seed=1)


def test_one_enumeration_per_t1_harness_and_plant(suite_metrics):
    # T1 reads its l0 set off one enumeration and each plant its level off
    # one (the suite's plants all reach their level at the first attempt); a
    # second scan in either breaks the equality
    enumerations = suite_metrics["solvers.enumerate_basic_solutions.calls"]
    readers = (
        suite_metrics["solvers.verify_theorem1.calls"]
        + suite_metrics["solvers.plant_with_level.calls"]
    )
    assert readers > 0 and enumerations == readers


def test_one_margin_sweep_and_one_lp_argmin_call_per_t1_harness(t1_metrics):
    # verify_theorem1 hands its whole p grid to verify_strict_inequality and
    # solve_lp_basic at once; per-p calls would multiply their counts by the
    # grid size
    harness = t1_metrics["solvers.verify_theorem1.calls"]
    assert harness > 0
    assert t1_metrics["solvers.verify_strict_inequality.calls"] == harness
    assert t1_metrics["solvers.solve_lp_basic.calls"] == harness


def test_lp_argmin_takes_no_exact_sum_of_every_basic_solution(t1_metrics):
    # solve_lp_basic brackets each basic solution's power sum from one float
    # reduction and takes math.fsum of the candidates alone; an lp_power_sum
    # call would sum every row of the grid exactly again (on t1-sweep it is
    # lp_power_sum's only caller)
    assert t1_metrics["solvers.solve_lp_basic.calls"] > 0
    assert t1_metrics["numerics.lp_power_sum.calls"] == 0


class _CountingMath:
    """The math module, with the calls of math.fsum counted."""

    def __init__(self):
        self.fsum_calls = 0

    def fsum(self, values):
        self.fsum_calls += 1
        return math.fsum(values)

    def __getattr__(self, name):
        return getattr(math, name)


def test_row_sums_take_fsum_only_on_the_rows_the_bracket_leaves_open(monkeypatch, tmp_path):
    # a margin row goes to math.fsum only where its float sum lies too close
    # to zero for the summation bound to prove its sign: 41 of the 314,790
    # rows of t1-sweep's seed-1 and seed-7 inputs, all at seed 7.  The float
    # sums are cheap only while that share stays tiny; a per-row fsum loop
    # would make the count equal the rows
    lp = importlib.import_module("lp_equiv")
    counting, rows = _CountingMath(), []
    row_sums = numerics._row_sums

    def counted(d):
        rows.append(math.prod(d.shape[:-1]))
        return row_sums(d)

    monkeypatch.setattr(numerics, "math", counting)
    monkeypatch.setattr(numerics, "_row_sums", counted)
    workload = WORKLOADS["t1-sweep"]
    for seed in (1, 7):
        for unit in workload.make_inputs(lp, seed):
            assert workload.run_unit(lp, unit, str(tmp_path)).ok
    assert sum(rows) == 314_790
    assert counting.fsum_calls <= 100


def test_no_eigensolve_on_the_t1_path(t1_metrics):
    # rank, lambda_max and lambda_min_plus come from one SVD under the rank
    # policy (numerics.RANK_TOL); an eigensolve of A^T A loses
    # lambda_min_plus once cond(A) passes about 1e5.  Feasibility reads the
    # same policy's rank: lstsq's own rank cutoff would certify problems the
    # basis scan cannot solve
    assert t1_metrics["lapack.eigvalsh.calls"] == 0
    assert t1_metrics["lapack.lstsq.calls"] == 0


def test_no_eigensolve_on_the_suite_path(suite_metrics):
    # the suite is the one workload reaching restricted_extremes: its
    # restricted extremes are squared singular values as well, and its
    # problems' feasibility is the rank policy's, as on the T1 path
    assert suite_metrics["spectral.restricted_extremes.calls"] > 0
    assert suite_metrics["lapack.eigvalsh.calls"] == 0
    assert suite_metrics["lapack.lstsq.calls"] == 0


def test_t2_svd_count_does_not_grow_with_trials():
    # verify_theorem2 evaluates the explicit augmentations A_t of all its
    # samples in one stacked SVD per numerics.BLOCK steps; one SVD per
    # (sample, t) step would make the count grow with the trials
    lp = importlib.import_module("lp_equiv")
    spec = lp.sample_instance(2, 6, seed=0)
    counts = {}
    for trials in (6, 60):
        with Tracer() as tracer:
            report = lp.verify_theorem2(spec, 2, trials=trials, seed=1)
        explicit = sum("explicit_residual" in s for r in report.records for s in r.get("steps", ()))
        counts[trials] = (tracer.lapack_calls["svd"], tracer.lapack_matrices["svd"], explicit)
    (calls6, mats6, _), (calls60, mats60, explicit60) = counts[6], counts[60]
    assert calls6 == calls60 and mats60 > mats6 and explicit60 > 0


@pytest.mark.parametrize("m, n", [(2, 4), (2, 5), (3, 6), (3, 7)])
def test_one_evaluator_plant_and_certificate_per_t3_harness(m, n):
    # no workload reaches verify_theorem3 (suite-artifacts runs wide
    # instances, which take T2), so trace direct calls: one harness call
    # makes one verify_strict_inequality call, one plant_with_level call and
    # one spark certificate, of A's; a per-sample evaluator, a second plant
    # or a certificate of the extended nodes' matrix would raise a count
    lp = importlib.import_module("lp_equiv")
    spec = lp.sample_instance(m, n, seed=0)
    with Tracer() as tracer:
        lp.verify_theorem3(spec, m, trials=30, seed=1)
    metrics = tracer.summary()
    assert metrics["solvers.verify_theorem3.calls"] == 1
    assert metrics["solvers.verify_strict_inequality.calls"] == 1
    assert metrics["solvers.plant_with_level.calls"] == 1
    assert metrics["spark.compute_spark.calls"] == 1


@pytest.mark.parametrize("m, n", [(1, 4), (2, 6), (2, 7), (3, 8)])
def test_one_evaluator_plant_certificate_and_kernel_basis_per_t2_harness(m, n):
    # the direct-call twin of the T3 test: one harness call makes one
    # verify_strict_inequality call, one plant_with_level call, one spark
    # certificate and one kernel basis, of A's, and one Gram summary, of
    # A_0's; the limit gaps build no A_t of their own
    lp = importlib.import_module("lp_equiv")
    spec = lp.sample_instance(m, n, seed=0)
    with Tracer() as tracer:
        lp.verify_theorem2(spec, m, trials=30, seed=1)
    metrics = tracer.summary()
    assert metrics["solvers.verify_theorem2.calls"] == 1
    assert metrics["solvers.verify_strict_inequality.calls"] == 1
    assert metrics["solvers.plant_with_level.calls"] == 1
    assert metrics["spark.compute_spark.calls"] == 1
    assert metrics["solvers.null_space_basis.calls"] == 1
    assert metrics["spectral.gram_spectrum.calls"] == 1
    assert metrics["matgen.build_augmented_t.calls"] == 0


def _thin_svds_of(monkeypatch, entries: np.ndarray) -> list:
    """A list that gains one entry per thin SVD with U of a matrix equal to
    entries, the factorization SparseProblem reads A's rank and span from."""
    svd, seen = np.linalg.svd, []

    def recorded(a, full_matrices=True, compute_uv=True, **kwargs):
        if not full_matrices and compute_uv and np.array_equal(a, entries):
            seen.append(a)
        return svd(a, full_matrices=full_matrices, compute_uv=compute_uv, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    return seen


@pytest.mark.parametrize("m, n", [(2, 8), (3, 9), (4, 10), (3, 6)])
def test_every_problem_of_a_suite_run_reads_one_thin_svd_of_a(monkeypatch, tmp_path, m, n):
    # every plant of a run (each T1 level, and the deep-regime harness's)
    # reads A's rank and span from the run's MatrixFacts, so the run takes
    # at most one thin SVD of A however many problems it builds; the chain
    # audit builds none
    lp = importlib.import_module("lp_equiv")
    problems = []
    post_init = lp.SparseProblem.__post_init__

    def counted(self, span):
        problems.append(self)
        post_init(self, span)

    monkeypatch.setattr(lp.SparseProblem, "__post_init__", counted)
    config = lp.RunConfig(seed=1, m=m, n=n, trials=12, output_dir=str(tmp_path))
    A = lp.build_vandermonde(lp.sample_instance(m, n, seed=lp.derive_seed(1, "instance")))
    thin = _thin_svds_of(monkeypatch, A.entries)
    assert lp.run_suite(config).asserted_pass
    assert len(problems) >= m // 2 + 1 and all(np.array_equal(p.matrix.entries, A.entries) for p in problems)
    assert len(thin) == 1


def test_the_chain_audit_builds_no_problem(monkeypatch):
    # the audit reads x* alone, drawn as plant_with_level's first plant draws
    # it, and builds no SparseProblem, so it takes no SVD of A for one
    lp = importlib.import_module("lp_equiv")
    facts = lp.MatrixFacts(lp.build_vandermonde(lp.sample_instance(4, 10, seed=2)))
    facts.spark, facts.gram, facts.direction  # noqa: B018  (computed before the count)
    inst, _ = lp.plant_with_level(facts.matrix, 2, seed=5)
    problems = []
    monkeypatch.setattr(lp.SparseProblem, "__post_init__", lambda self, span: problems.append(self))
    thin = _thin_svds_of(monkeypatch, facts.matrix.entries)
    _, x_star, _ = lp.analysis.audit_planted_chain(facts, 2, 5)
    assert problems == [] and thin == []
    assert np.array_equal(x_star, inst.x_star)


@pytest.mark.parametrize("trials", [6, 30, 90])
def test_t2_step_scalars_come_from_one_call(monkeypatch, trials):
    # verify_theorem2 takes x_t, y_t and log x_t of every (sample, t) step
    # from one theorem2_sequences call on the whole block, and every p_star_t
    # from one spectrum_from_singular_values call per explicit block; a call
    # per step would make either count grow with the trials
    lp = importlib.import_module("lp_equiv")
    calls = dict.fromkeys(("theorem2_sequences", "spectrum_from_singular_values"), 0)
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(lp.solvers, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(lp.solvers, name, counted)
    report = lp.verify_theorem2(lp.sample_instance(2, 6, seed=0), 2, trials=trials, seed=1)
    steps = [s for r in report.records for s in r.get("steps", ())]
    explicit = sum("explicit_residual" in s for s in steps)
    assert len(steps) == 4 * trials and explicit > 0
    # one for the limit gaps, one per numerics.BLOCK explicit steps
    blocks = 1 + math.ceil(explicit / numerics.BLOCK)
    assert calls == {"theorem2_sequences": 1, "spectrum_from_singular_values": blocks}


def test_only_the_bases_go_through_the_subset_scan():
    # enumerate_basic_solutions scans the C(n, rank) bases and solves the
    # supports read off them directly; a scan of the sizes 1..rank-1 would
    # push their subsets through iter_subset_chunks too
    lp = importlib.import_module("lp_equiv")
    A = lp.build_vandermonde(lp.sample_instance(4, 10, seed=0))
    prob = lp.plant_sparse_instance(A, 2, seed=1).problem
    with Tracer() as tracer:
        basics = lp.enumerate_basic_solutions(prob)
    metrics = tracer.summary()
    assert metrics["solvers.enumerate_basic_solutions.calls"] == 1
    assert metrics["numerics.iter_subset_chunks.subsets"] == math.comb(10, 4)
    assert min(len(s.support) for s in basics) == 2


def test_cleared_bases_skip_the_svd(monkeypatch):
    # the determinant screen clears all 210 bases of this node matrix, so the
    # only SVDs are those of the supports read off the bases: A's rank comes
    # with the problem, from the SVD that certified it feasible.  A basis
    # sent to the stacked SVD, or a second rank SVD of A in the scan, would
    # show in lapack.svd.matrices
    lp = importlib.import_module("lp_equiv")
    A = lp.build_vandermonde(lp.sample_instance(4, 10, seed=0))
    prob = lp.plant_sparse_instance(A, 2, seed=1).problem
    bases = np.array(list(itertools.combinations(range(10), 4)))
    beta = _ratio_lower_bound(np.moveaxis(A.entries[:, bases], 1, 0))
    assert np.all(beta > SCREEN_FACTOR * RANK_TOL)
    solved = _recorded_svd_solves(monkeypatch)
    with Tracer() as tracer:
        basics = lp.enumerate_basic_solutions(prob)
    assert min(len(s.support) for s in basics) == 2
    assert solved and max(map(len, solved)) < 4
    assert tracer.lapack_matrices["svd"] == len(solved)


def test_prop1_probe_makes_only_the_rank_svds(prop1_metrics):
    # the two screens clear every square subset of the seed-1 certificates,
    # so the only SVD left per certificate is the rank SVD of A_t.  A probe
    # of at most PREFIX_MINORS_MIN_SUBSETS subsets takes one LU determinant
    # per subset; a larger one reads shared-prefix minors, and its stage 2
    # builds the inverses of the subsets they leave open from the same
    # prefix QRs, so it takes no LU determinant at all
    certificates = prop1_metrics["spark.compute_spark.calls"]
    assert certificates == 180
    assert prop1_metrics["lapack.svd.matrices"] == certificates
    lp = importlib.import_module("lp_equiv")
    on_lu = left_open = on_minors = 0
    for aug in WORKLOADS["prop1-spark"].make_inputs(lp, 1):
        M = _equilibrated(lp.build_augmented_t(aug).entries)
        count = math.comb(M.shape[1], M.shape[0])
        if count <= PREFIX_MINORS_MIN_SUBSETS:
            on_lu += count
        else:
            on_minors += count
            left_open += int(minors_leave_open(M, SCREEN_FACTOR * RANK_TOL).sum())
    assert on_lu + on_minors == prop1_metrics["numerics.iter_subset_chunks.subsets"]
    assert 0 < left_open < on_minors / 10
    assert prop1_metrics["lapack.det.matrices"] == on_lu


def test_prop1_certificates_equal_the_unscreened_svd_probe():
    # the prop1-spark digest hashes spark and witness, the same on every
    # instance, so it cannot see a screen that clears a dependent subset.
    # Check directly: every square subset the probe's screens clear has full
    # SVD rank, and each certificate equals the plain ascending SVD search
    lp = importlib.import_module("lp_equiv")
    for aug in WORKLOADS["prop1-spark"].make_inputs(lp, 1):
        A = lp.build_augmented_t(aug)
        M = _equilibrated(A.entries)
        k = M.shape[0]
        left = {tuple(s) for chunk in _open_square_subsets(M, SCREEN_FACTOR * RANK_TOL) for s in chunk.tolist()}
        for subsets in iter_subset_chunks(M.shape[1], k):
            cleared = [s not in left for s in map(tuple, subsets.tolist())]
            sub = M[:, subsets[cleared]].transpose(1, 0, 2)
            assert np.all(numerical_rank(np.linalg.svd(sub, compute_uv=False)) == k)
        cert = lp.compute_spark(A)
        assert (cert.spark, cert.witness) == ascending_spark(A)


@pytest.mark.parametrize("seed", [1, 2])
def test_prefix_stage_2_leaves_open_what_lu_inverses_leave_open(seed):
    # on the prefix path stage 2 builds its inverses from the prefix QRs
    # instead of LU; on the prop1-spark matrices past the routing constant
    # it leaves open exactly the subsets LU's inverses leave open (seed 2: 4
    # of 14,569 subsets stage 1 leaves open; seed 1: none of 7,068)
    lp = importlib.import_module("lp_equiv")
    threshold = SCREEN_FACTOR * RANK_TOL
    reached = left = 0
    for aug in WORKLOADS["prop1-spark"].make_inputs(lp, seed):
        M = _equilibrated(lp.build_augmented_t(aug).entries)
        if math.comb(M.shape[1], M.shape[0]) <= PREFIX_MINORS_MIN_SUBSETS:
            continue
        by_lu = []
        for subsets, _, beta, _ in _prefix_minors(M):
            subsets = subsets[~(beta > threshold)]
            reached += len(subsets)
            if len(subsets):
                by_lu += subsets[_open_after_screens(M[:, subsets].transpose(1, 0, 2), threshold)].tolist()
        by_prefix = [s for chunk in _open_square_subsets(M, threshold) for s in chunk.tolist()]
        assert by_prefix == by_lu
        left += len(by_lu)
    assert (reached, left) == {1: (7068, 0), 2: (14569, 4)}[seed]


# numpy.linalg entry points that decide a rank or a spectrum by a convention
# other than an SVD read under numerics.numerical_rank: eigensolvers (which
# square the condition number when fed A^T A) and solvers with their own
# rank cutoff
OTHER_CONVENTIONS = frozenset({"eigvalsh", "eigh", "eig", "eigvals", "lstsq", "pinv", "matrix_rank"})


def other_convention_calls(source: str) -> list:
    """(line, name) of every linalg.<name> attribute or linalg import of a
    name in OTHER_CONVENTIONS in one module's source."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in OTHER_CONVENTIONS:
            owner = node.value
            name = owner.attr if isinstance(owner, ast.Attribute) else getattr(owner, "id", "")
            if name == "linalg":
                hits.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
            hits.extend((node.lineno, a.name) for a in node.names if a.name in OTHER_CONVENTIONS)
    return sorted(hits)


def test_source_calls_no_second_rank_or_spectrum_convention():
    # a path no workload traces (the restricted-spec or solve-l0 command, a
    # helper) could bring a second convention back unseen by the traced
    # counts above; the source itself must not name one.  The scanner
    # itself must see the calls it forbids
    assert other_convention_calls("x = np.linalg.eigvalsh(g)\nfrom numpy.linalg import lstsq\n") == [
        (1, "eigvalsh"),
        (2, "lstsq"),
    ]
    package = Path(importlib.import_module("lp_equiv").__file__).parent
    found = {
        path.name: hits for path in sorted(package.glob("*.py")) if (hits := other_convention_calls(path.read_text()))
    }
    assert found == {}
