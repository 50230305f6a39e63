import itertools
import math

import numpy as np
import pytest

from lp_equiv.matgen import (
    MAX_M,
    AugmentedSpec,
    DenseMatrix,
    VandermondeSpec,
    build_augmented_0,
    build_augmented_t,
    build_vandermonde,
    sample_instance,
)
from lp_equiv.numerics import BudgetExceededError, iter_subset_chunks
from lp_equiv.spark import (
    DEFAULT_SPARK_TOL,
    _equilibrated,
    check_submatrix_invertibility,
    compute_spark,
    matrix_rank,
    verify_prop1,
)


def brute_spark(entries: np.ndarray, tol: float = 1e-9) -> tuple[int, tuple[int, ...]]:
    """Independent oracle: smallest dependent column subset by direct scan.

    Uses numpy.linalg.matrix_rank (a different dependence test than the
    package's sigma_min/sigma_max ratio) and plain nested loops."""
    m, n = entries.shape
    for size in range(1, n + 1):
        for cols in itertools.combinations(range(n), size):
            sub = entries[:, list(cols)]
            if np.linalg.matrix_rank(sub, tol=tol * max(1.0, np.linalg.norm(sub, 2))) < size:
                return size, cols
    raise AssertionError("no dependent subset found")


def ascending_spark(A: DenseMatrix, tol_rel: float = DEFAULT_SPARK_TOL) -> tuple[int, tuple[int, ...]]:
    """Reference: the plain ascending search compute_spark must agree with.

    Sizes 1..rank+1 in order, subsets lexicographic within a size, the same
    equilibration and sigma_min/sigma_max test, and no shortcut at level rank.
    """
    M = _equilibrated(A.entries)
    m_rows, n = M.shape
    for k in range(1, matrix_rank(M, tol_rel) + 2):
        if k > m_rows:
            return k, tuple(range(k))
        for subsets in iter_subset_chunks(n, k):
            s = np.linalg.svd(M[:, subsets].transpose(1, 0, 2), compute_uv=False)
            dependent = s[:, -1] <= tol_rel * s[:, 0]
            if np.any(dependent):
                return k, tuple(int(j) for j in subsets[int(np.argmax(dependent))])
    raise AssertionError("no dependent subset up to rank+1")


def assert_matches_reference(A: DenseMatrix) -> tuple[int, tuple[int, ...]]:
    cert = compute_spark(A)
    expected = ascending_spark(A)
    assert (cert.spark, cert.witness) == expected
    return expected


def test_worked_example_spark():
    A = build_vandermonde(VandermondeSpec(2, (1.0, 2.0, 3.0)))
    cert = compute_spark(A)
    assert cert.spark == 3
    assert cert.witness == (0, 1, 2)


def test_spark_matches_brute_force_on_random_instances():
    for seed in range(8):
        m = 2 + seed % 3
        spec = sample_instance(m, m + 3, seed=seed)
        A = build_vandermonde(spec)
        cert = compute_spark(A)
        level, witness = brute_spark(A.entries)
        assert cert.spark == level == m + 1
        assert cert.witness == witness  # both scans are lexicographic-first


def test_spark_detects_duplicated_column():
    # duplicate a column: spark drops to 2 with the duplicate pair as witness
    base = build_vandermonde(VandermondeSpec(2, (1.0, 2.0, 3.0))).entries
    dup = np.hstack([base, base[:, 1:2]])
    cert = compute_spark(DenseMatrix(dup))
    assert cert.spark == 2
    assert cert.witness == (1, 3)


def test_spark_rejects_full_column_rank():
    tall = DenseMatrix(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(ValueError):
        compute_spark(tall)


def test_spark_budget():
    spec = sample_instance(4, 9, seed=0)
    A = build_vandermonde(spec)
    with pytest.raises(BudgetExceededError):
        compute_spark(A, budget=10)


@pytest.mark.parametrize(
    "A",
    [
        build_vandermonde(sample_instance(3, 7, seed=0)),  # probe clean: spark r+1
        build_augmented_0(sample_instance(2, 6, seed=3)),  # probe dependent: fallback
    ],
    ids=["node", "augmented-0"],
)
def test_spark_budget_charges_worst_case_on_every_path(A):
    # the cap covers sizes 1..rank+1 whichever path runs, so it fires at the
    # same budget as the plain ascending search
    n = A.entries.shape[1]
    r = matrix_rank(_equilibrated(A.entries))
    worst = sum(math.comb(n, k) for k in range(1, r + 2))
    compute_spark(A, budget=worst)
    with pytest.raises(BudgetExceededError):
        compute_spark(A, budget=worst - 1)


SCALES = (1.0, 0.1, 0.01)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_spark_matches_ascending_reference_on_prop1_shapes(m):
    for n in (2 * m + 2, 2 * m + 3):
        for seed in range(2):
            spec = sample_instance(m, n, seed=100 * m + 10 * n + seed)
            for x_t, y_t in itertools.product(SCALES, repeat=2):
                A = build_augmented_t(AugmentedSpec(spec, x_t=x_t, y_t=y_t))
                assert assert_matches_reference(A)[0] == 2 * m + 3


@pytest.mark.parametrize("m", range(2, MAX_M + 1))
def test_spark_matches_ascending_reference_on_node_matrices(m):
    for n in (m + 1, m + 3):
        for seed in range(3):
            A = build_vandermonde(sample_instance(m, n, seed=seed))
            assert assert_matches_reference(A)[0] == m + 1


def test_spark_matches_ascending_reference_on_augmented_0():
    # level rank(A_0) = 2m+2 holds a dependency (the left block has rank m),
    # so the ascending fallback must find the smaller m+1 witness
    for m in (1, 2, 3):
        for n in (2 * m + 2, 2 * m + 3):
            A = build_augmented_0(sample_instance(m, n, seed=m + n))
            spark, witness = assert_matches_reference(A)
            assert spark == m + 1 < matrix_rank(_equilibrated(A.entries))
            assert witness == tuple(range(m + 1))


def test_spark_matches_ascending_reference_on_repeated_and_zero_columns():
    base = build_vandermonde(VandermondeSpec(3, (0.5, -1.2, 2.0, 0.8, -1.7))).entries
    zero = np.zeros((3, 1))
    cases = {
        "late duplicate": (np.hstack([base, base[:, 3:4]]), 2, (3, 5)),
        "early duplicate": (np.hstack([base[:, :1], base]), 2, (0, 1)),
        "scaled duplicate": (np.hstack([base, -4.0 * base[:, 2:3]]), 2, (2, 5)),
        "zero column": (np.hstack([base[:, :2], zero, base[:, 2:]]), 1, (2,)),
        "zero and duplicate": (np.hstack([base, base[:, :1], zero]), 1, (6,)),
        "all zero": (np.zeros((3, 4)), 1, (0,)),  # rank 0: no level-0 probe
    }
    for name, (entries, spark, witness) in cases.items():
        assert assert_matches_reference(DenseMatrix(entries)) == (spark, witness), name


def test_spark_matches_ascending_reference_when_rank_is_below_row_count():
    # rank r < rows, so level r+1 is decided by SVD, not by the row count
    rng = np.random.default_rng(5)
    generic = rng.standard_normal((6, 3)) @ rng.standard_normal((3, 7))
    assert assert_matches_reference(DenseMatrix(generic)) == (4, (0, 1, 2, 3))
    # a dependent triple among columns 2, 4, 5 inside a rank-3 matrix: the
    # probe at level 3 finds it, and the fallback confirms sizes 1 and 2 clear
    basis = rng.standard_normal((6, 3))
    cols = rng.standard_normal((3, 7))
    cols[:, 5] = cols[:, 2] - 2.0 * cols[:, 4]
    assert assert_matches_reference(DenseMatrix(basis @ cols)) == (3, (2, 4, 5))


def test_spark_matches_ascending_reference_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(
        m=st.integers(1, 5),
        extra=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        repeat=st.one_of(st.none(), st.integers(0, 8)),
    )
    def check(m, extra, seed, repeat):
        entries = build_vandermonde(sample_instance(m, m + extra, seed=seed)).entries
        if repeat is not None:
            # append a copy of one column, forcing a dependency at size 2
            entries = np.hstack([entries, entries[:, [repeat % entries.shape[1]]]])
        assert_matches_reference(DenseMatrix(entries))

    check()


def test_submatrix_positivity_for_positive_nodes():
    # all square submatrices of a positive-node instance have positive dets
    for m, n in ((2, 5), (3, 6), (4, 7)):
        lam = tuple(0.5 + 0.3 * j for j in range(n))
        report = check_submatrix_invertibility(VandermondeSpec(m, lam))
        assert report.passes
        assert report.min_abs_det > 1e-12


def test_submatrix_scan_finds_signed_degeneracy():
    # rows (0, 1, 3) of a 4-row instance are singular when three nodes sum to
    # zero: the scan must locate a numerically zero det despite distinct |lam|
    lam = (-2.0, 0.5, 1.5, 0.9)
    report = check_submatrix_invertibility(VandermondeSpec(4, lam))
    assert not report.passes
    assert report.argmin_rows == (0, 1, 3)
    assert set(report.argmin_cols) == {0, 1, 2}


def test_prop1_spark_of_augmented_family():
    spec = sample_instance(2, 6, seed=3)
    for x_t, y_t in ((1.0, 1.0), (0.1, 0.01)):
        report = verify_prop1(AugmentedSpec(spec, x_t=x_t, y_t=y_t))
        assert report.passes
        assert report.certificate.spark == 2 * spec.m + 3


def test_prop1_requires_wide_instance():
    spec = sample_instance(2, 4, seed=3)
    with pytest.raises(ValueError):
        verify_prop1(AugmentedSpec(spec, x_t=1.0, y_t=1.0))


def test_augmented_0_spark_collapses_to_left_block():
    # in the t -> infinity limit the glue rows vanish, so the m+1 dependence
    # of the left block reappears; the 2m+3 value holds only at finite t
    from lp_equiv.matgen import build_augmented_0

    spec = sample_instance(2, 6, seed=3)
    cert = compute_spark(build_augmented_0(spec))
    assert cert.spark == spec.m + 1
    assert all(w < spec.n for w in cert.witness)  # witness lives in the left block
