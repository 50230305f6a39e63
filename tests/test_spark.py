import itertools
import math
import warnings
from fractions import Fraction

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
from lp_equiv import spark
from lp_equiv.numerics import (
    BLOCK,
    PREFIX_MINORS_MIN_SUBSETS,
    RANK_TOL,
    BudgetExceededError,
    _cofactor_inverse,
    _laplace_det,
    _prefix_inverses,
    _prefix_minors,
    iter_subset_chunks,
    numerical_rank,
)
from lp_equiv.spark import (
    SCREEN_FACTOR,
    _equilibrated,
    _inverse_ratio_lower_bound,
    _open_after_screens,
    _open_square_subsets,
    _ratio_lower_bound,
    check_submatrix_invertibility,
    compute_spark,
    verify_prop1,
)
from lp_equiv.solvers import enumerate_basic_solutions, plant_sparse_instance, solve_l0
from lp_equiv.spectral import restricted_extremes


def matrix_rank(M: np.ndarray, tol_rel: float = RANK_TOL) -> int:
    return numerical_rank(np.linalg.svd(M, compute_uv=False), tol_rel)


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


def ascending_spark(A: DenseMatrix, tol_rel: float = RANK_TOL) -> tuple[int, tuple[int, ...]]:
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


def assert_matches_reference(
    A: DenseMatrix, tol_rel: float = RANK_TOL
) -> tuple[int, tuple[int, ...]]:
    cert = compute_spark(A, tol_rel=tol_rel)
    expected = ascending_spark(A, tol_rel)
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


def test_spark_budget(monkeypatch):
    spec = sample_instance(4, 9, seed=0)
    A = build_vandermonde(spec)
    monkeypatch.setenv("LP_EQUIV_BUDGET", "10")
    with pytest.raises(BudgetExceededError):
        compute_spark(A)


@pytest.mark.parametrize(
    "A",
    [
        build_vandermonde(sample_instance(3, 7, seed=0)),  # probe clean: spark r+1
        build_augmented_0(sample_instance(2, 6, seed=3)),  # probe dependent: fallback
    ],
    ids=["node", "augmented-0"],
)
def test_spark_budget_charges_worst_case_on_every_path(A, monkeypatch):
    # the cap covers sizes 1..rank+1 whichever path runs, so it fires at the
    # same budget as the plain ascending search
    n = A.entries.shape[1]
    r = matrix_rank(_equilibrated(A.entries))
    worst = sum(math.comb(n, k) for k in range(1, r + 2))
    monkeypatch.setenv("LP_EQUIV_BUDGET", str(worst))
    compute_spark(A)
    monkeypatch.setenv("LP_EQUIV_BUDGET", str(worst - 1))
    with pytest.raises(BudgetExceededError):
        compute_spark(A)


def _worst_case_scans():
    """(name, call, worst-case subset total) for every enumerating entry point,
    at (3,7) seed 0: rank 3, so spark scans sizes 1..4 and support scans 1..3."""
    spec = sample_instance(3, 7, seed=0)
    A = build_vandermonde(spec)
    prob = plant_sparse_instance(A, 2, seed=1).problem
    supports = sum(math.comb(7, k) for k in range(1, 4))
    scans = [
        ("compute_spark", lambda: compute_spark(A), supports + math.comb(7, 4)),
        (
            "check_submatrix_invertibility",
            lambda: check_submatrix_invertibility(spec),
            sum(math.comb(3, s) * math.comb(7, s) for s in range(1, 4)),
        ),
        ("restricted_extremes", lambda: restricted_extremes(A, 3), math.comb(7, 3)),
        ("solve_l0", lambda: solve_l0(prob), supports),
        ("enumerate_basic_solutions", lambda: enumerate_basic_solutions(prob), supports),
    ]
    return [pytest.param(name, call, worst, id=name) for name, call, worst in scans]


@pytest.mark.parametrize("name, call, worst", _worst_case_scans())
def test_every_scan_runs_at_its_worst_case_cap_and_not_below(name, call, worst, monkeypatch):
    # LP_EQUIV_BUDGET is the one cap; each scan charges its worst case up
    # front.  solve_l0 reads the l0 set off the basic solutions, so the
    # charge it raises is enumerate_basic_solutions'
    charged = "enumerate_basic_solutions" if name == "solve_l0" else name
    monkeypatch.setenv("LP_EQUIV_BUDGET", str(worst))
    call()
    monkeypatch.setenv("LP_EQUIV_BUDGET", str(worst - 1))
    message = f"{charged} would enumerate {worst} column subsets but the cap is {worst - 1}"
    with pytest.raises(BudgetExceededError, match=message):
        call()


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


SCREEN_TOLS = (1e-13, RANK_TOL, 1e-9, 1e-6, 1e-4, 1e-2)


def minors_leave_open(M: np.ndarray, threshold: float) -> np.ndarray:
    """Mask, in lexicographic order, of the square column subsets of M that
    stage 1 on shared-prefix minors leaves open."""
    return np.concatenate([~(beta > threshold) for _, _, beta, _ in _prefix_minors(M)])


def planted_square_block(rho: float, extra: int = 2, seed: int = 3) -> np.ndarray:
    """4 x (4 + extra) matrix whose first four columns have sigma ratio rho.

    The block is I - (1 - rho) q q^T with q a normalized Hadamard column:
    singular values 1, 1, 1, rho, so the screen's bound sits within sqrt(3)
    of the ratio.  Every block row has the same max-abs entry and the extra
    columns stay below it, so equilibration rescales the block uniformly
    and leaves its ratio at rho.  The default seed draws extra columns that
    put no other subset below ratio 1e-2, so the block alone decides spark.
    """
    q = np.array([1.0, -1.0, 1.0, -1.0]) / 2.0
    block = np.eye(4) - (1.0 - rho) * np.outer(q, q)
    rest = np.random.default_rng(seed).uniform(-0.5, 0.5, size=(4, extra))
    return np.hstack([block, rest])


def screen_families() -> dict[str, DenseMatrix]:
    fams = {}
    for m in (1, 2, 3):
        spec = sample_instance(m, 2 * m + 2, seed=7 * m)
        for x_t, y_t in ((1.0, 1.0), (0.1, 0.01), (0.01, 1.0)):
            fams[f"A_t m={m} ({x_t}, {y_t})"] = build_augmented_t(AugmentedSpec(spec, x_t=x_t, y_t=y_t))
        fams[f"A_0 m={m}"] = build_augmented_0(spec)
    for m in range(2, MAX_M + 1):
        fams[f"nodes m={m}"] = build_vandermonde(sample_instance(m, m + 3, seed=m))
    base = build_vandermonde(VandermondeSpec(3, (0.5, -1.2, 2.0, 0.8, -1.7))).entries
    fams["duplicate"] = DenseMatrix(np.hstack([base, base[:, 3:4]]))
    fams["zero column"] = DenseMatrix(np.hstack([base[:, :2], np.zeros((3, 1)), base[:, 2:]]))
    fams["single row with zeros"] = DenseMatrix(np.array([[0.0, 2.0, 0.0, -1.0]]))
    return fams


@pytest.mark.parametrize("tol_rel", SCREEN_TOLS)
def test_screened_spark_matches_ascending_reference_at_every_tolerance(tol_rel):
    for name, A in screen_families().items():
        cert = compute_spark(A, tol_rel=tol_rel)
        assert (cert.spark, cert.witness) == ascending_spark(A, tol_rel), name


@pytest.mark.parametrize("tol_rel", SCREEN_TOLS)
def test_screen_leaves_planted_near_dependent_blocks_to_the_svd(tol_rel):
    # ratios just below tol_rel are dependent, ratios between tol_rel and the
    # screen's threshold are independent; neither may be decided by the screen
    for factor in (0.3, 3.0, 30.0, 0.3 * SCREEN_FACTOR):
        rho = factor * tol_rel
        if rho >= 1.0:
            continue
        M = planted_square_block(rho)
        ratio = np.linalg.svd(_equilibrated(M)[:, :4], compute_uv=False)
        assert ratio[-1] / ratio[0] == pytest.approx(rho, rel=1e-3)
        expected = (4, (0, 1, 2, 3)) if rho <= tol_rel else (5, (0, 1, 2, 3, 4))
        assert assert_matches_reference(DenseMatrix(M), tol_rel) == expected, factor


def test_screen_bound_is_below_the_svd_ratio_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(
        k=st.integers(1, 8),
        kind=st.sampled_from(["random", "flat spectrum", "near-dependent column"]),
        depth=st.floats(0.0, 12.0),
        log_scale=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    # beta exceeds the float SVD ratio by 1.3e-9 here, and the exact ratio by
    # 1.2e-10: the depth cap does not bound the ratio of two random columns
    @hypothesis.example(k=2, kind="near-dependent column", depth=4.0, log_scale=0.22265625, seed=189173573)
    def check(k, kind, depth, log_scale, seed):
        rng = np.random.default_rng(seed)
        if k == 2:
            # at k = 2 the bound equals the ratio to first order, so deep
            # near-singular blocks would compare two roundings of one number
            depth = min(depth, 4.0)
        if kind == "random":
            A = rng.standard_normal((k, k))
        elif kind == "flat spectrum":
            # singular values 1, ..., 1, 10^-depth: where the bound is tightest
            Q, _ = np.linalg.qr(rng.standard_normal((k, k)))
            s = np.ones(k)
            s[-1] = 10.0**-depth
            A = (Q * s) @ Q.T
        else:
            A = rng.standard_normal((k, k))
            if k > 1:
                A[:, -1] = A[:, :-1] @ rng.standard_normal(k - 1) + 10.0**-depth * rng.standard_normal(k)
        A *= 10.0**log_scale
        s = np.linalg.svd(A, compute_uv=False)
        beta = _ratio_lower_bound(A[None])[0]
        # the float ratio is off by about k eps absolute, so a comparison it
        # fails is decided by a 50-digit SVD
        if not beta <= s[-1] / s[0] * (1.0 + 1e-9):
            assert beta <= _mp_ratio(A) * (1.0 + 1e-9)

    check()


def test_screen_spares_most_svds_on_prop1(monkeypatch):
    # A_t for m = 3, n = 9 is 8 x 14: the level-8 probe scans C(14, 8) square
    # subsets, and the two screens clear every one of them, so the only SVD
    # left is the rank SVD of A_t itself.  Stage 1 reads shared-prefix
    # minors and stage 2 builds the inverses of the 88 subsets it leaves
    # open (measured) from the same prefix QRs, so the probe takes no LU
    # determinant and no LAPACK inverse
    seen = {"svd": [], "det": [], "inv": []}

    def counting(name):
        call = getattr(np.linalg, name)

        def counted(a, *args, **kwargs):
            a = np.asarray(a)
            seen[name].append(math.prod(a.shape[:-2]))
            return call(a, *args, **kwargs)

        return counted

    for name in seen:
        monkeypatch.setattr(np.linalg, name, counting(name))
    report = verify_prop1(AugmentedSpec(sample_instance(3, 9, seed=0), x_t=0.1, y_t=0.01))
    assert report.passes
    assert seen["svd"] == [1]
    assert seen["det"] == [] and seen["inv"] == []


def test_screen_raises_no_warning_on_zero_columns():
    # a zero column gives det 0; in a single row it also gives F = 0, so beta
    # is 0/0, which must leave the subset open without a RuntimeWarning
    row = DenseMatrix(np.array([[0.0, 3.0, 0.0, 1.0]]))
    wide = DenseMatrix(np.hstack([np.eye(3), np.zeros((3, 1)), np.ones((3, 1))]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert assert_matches_reference(row) == (1, (0,))
        assert assert_matches_reference(wide) == (1, (3,))
        assert np.isnan(_ratio_lower_bound(np.zeros((2, 3, 3)))).all()


def _mp_ratio(A: np.ndarray) -> float:
    """sigma_min/sigma_max of A from a 50-digit mpmath SVD."""
    import mpmath

    with mpmath.workdps(50):
        s = mpmath.svd_r(mpmath.matrix(A.tolist()), compute_uv=False)
        values = [abs(v) for v in s]
        return float(min(values) / max(values))


def test_inverse_screen_bound_is_below_the_svd_ratio_property():
    # beta' is proven for the computed inverse (spark module docstring), so it
    # sits below the ratio up to the rounding of its three norms.  The float
    # SVD's ratio is itself off by about k eps absolute, which exceeds 1e-9
    # relative below a ratio near 1e-6, where beta' can be that tight (at
    # k = 2, ||S||_F ||S^-1||_F = (1 + ratio^2) / ratio exactly); a
    # comparison the float ratio fails is decided by a 50-digit SVD.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(
        k=st.integers(1, 2 * MAX_M + 2),
        kind=st.sampled_from(["random", "flat spectrum", "near-dependent column", "graded rows"]),
        depth=st.floats(0.0, 12.0),
        log_scale=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(k, kind, depth, log_scale, seed):
        rng = np.random.default_rng(seed)
        if kind == "flat spectrum":
            # singular values 1, ..., 1, 10^-depth: where the bound is tightest
            Q, _ = np.linalg.qr(rng.standard_normal((k, k)))
            s = np.ones(k)
            s[-1] = 10.0**-depth
            A = (Q * s) @ Q.T
        else:
            A = rng.standard_normal((k, k))
            if kind == "near-dependent column" and k > 1:
                A[:, -1] = A[:, :-1] @ rng.standard_normal(k - 1) + 10.0**-depth * rng.standard_normal(k)
            elif kind == "graded rows":
                A *= 10.0 ** rng.uniform(-3.0, 3.0, size=(k, 1))
        A *= 10.0**log_scale
        det = np.linalg.det(A)
        hypothesis.assume(np.isfinite(det) and det != 0.0)  # stage 1 lets no other block through
        beta = _inverse_ratio_lower_bound(A[None], np.linalg.inv(A[None]))[0]
        s = np.linalg.svd(A, compute_uv=False)
        if not beta <= s[-1] / s[0] * (1.0 + 1e-9):
            assert beta <= _mp_ratio(A) * (1.0 + 1e-9)

    check()


def test_screens_clear_no_block_at_or_below_the_rank_tolerance(monkeypatch):
    # synthetic k x k blocks with sigma ratios 1e-16..1e-6 and rows graded
    # over 1e-3..1e3: none whose SVD ratio is <= RANK_TOL may be cleared, by
    # the LU path or by the shared-prefix path (forced here for one subset)
    rng = np.random.default_rng(20)
    threshold = SCREEN_FACTOR * RANK_TOL
    monkeypatch.setattr(spark, "PREFIX_MINORS_MIN_SUBSETS", 0)
    dependent = cleared = cleared_by_minors = 0
    for k in range(2, 9):
        blocks = []
        for exponent in range(-16, -5):
            for _ in range(30):
                U, _ = np.linalg.qr(rng.standard_normal((k, k)))
                V, _ = np.linalg.qr(rng.standard_normal((k, k)))
                spectrum = np.logspace(0.0, exponent, k)
                rows = 10.0 ** rng.uniform(-3.0, 3.0, size=(k, 1))
                blocks.append(rows * ((U * spectrum) @ V.T))
        blocks = np.array(blocks)
        s = np.linalg.svd(blocks, compute_uv=False)
        at_or_below = s[:, -1] <= RANK_TOL * s[:, 0]
        open_ = _open_after_screens(blocks, threshold)
        assert open_[at_or_below].all(), k
        minors_open = np.array([minors_leave_open(b, threshold)[0] for b in blocks])
        prefix_open = np.array([any(True for _ in _open_square_subsets(b, threshold)) for b in blocks])
        assert minors_open[at_or_below].all() and prefix_open[at_or_below].all(), k
        dependent += int(at_or_below.sum())
        cleared += int((~open_).sum())
        cleared_by_minors += int((~minors_open).sum())
    # the probe is not vacuous; stage 1 alone clears 44 blocks, all at k = 2,
    # from either kernel
    assert dependent > 1000 and cleared > 50 and cleared_by_minors > 40


def test_screens_leave_an_exactly_singular_member_open_without_warning():
    # np.linalg.inv raises LinAlgError on a batch holding an exactly singular
    # block, so stage 2 must skip every block whose determinant is zero
    batch = np.array([np.eye(3), np.ones((3, 3)), np.zeros((3, 3)), [[1.0, 2.0, 1.0], [3.0, 4.0, 3.0], [5.0, 6.0, 5.0]]])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(batch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _open_after_screens(batch, SCREEN_FACTOR * RANK_TOL).tolist() == [False, True, True, True]


def test_prefix_stage_2_leaves_exactly_singular_subsets_open():
    # a nonzero prefix minor does not mean LU meets no zero pivot.  In this
    # 0/+-1 matrix with a repeated column (equilibration leaves it as it is)
    # C(12, 5) = 792 subsets take the prefix path, and stage 1 leaves open
    # subsets whose minor is a rounding residue but whose LU determinant is
    # exactly zero, a batch np.linalg.inv raises on.  The prefix path's
    # stage 2 builds its inverses from the prefix QRs instead, and must leave
    # every exactly singular subset open without an error or a warning
    M = np.random.default_rng(0).integers(-1, 2, size=(5, 12)).astype(float)
    M[:, 1] = M[:, 0]
    assert np.array_equal(_equilibrated(M), M) and math.comb(12, 5) > PREFIX_MINORS_MIN_SUBSETS
    ((subsets, det, beta, factors),) = _prefix_minors(M)
    sub = M[:, subsets].transpose(1, 0, 2)
    singular = np.linalg.det(sub) == 0.0
    reach = minors_leave_open(M, SCREEN_FACTOR * RANK_TOL) & (det != 0.0) & singular
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(sub[reach])
    open_ = ~(beta > SCREEN_FACTOR * RANK_TOL)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="ignore"):
            inv = _prefix_inverses(M, factors, open_)
        cleared = _inverse_ratio_lower_bound(sub[open_], inv) > SCREEN_FACTOR * RANK_TOL
    assert not np.any(cleared & singular[open_])
    # five zero columns: one subset has F = 0, so stage 1's beta is 0/0
    zeros = np.hstack([M[:, 2:9], np.zeros((5, 5))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert assert_matches_reference(DenseMatrix(M))[0] == 2
        assert assert_matches_reference(DenseMatrix(zeros)) == (1, (7,))


@pytest.mark.parametrize("n, k", [(7, 1), (7, 3), (8, 4), (11, 6), (14, 8), (16, 8)])
def test_prefix_minors_follow_the_subset_chunks(n, k):
    # the kernel walks iter_subset_chunks, so the probe keeps lexicographic
    # order: k <= 4 has no prefix, (16, 8) has 12,870 subsets, more than one
    # BLOCK, and plans each chunk on its own.  Minors agree with LU's to
    # 1e-12 prod_j ||s_j||, so stage 1's bounds agree to 1e-12 / sqrt(k)
    M = np.random.default_rng(n * k).standard_normal((k, n))
    got = list(_prefix_minors(M))
    want = list(iter_subset_chunks(n, k))
    assert len(got) == len(want) == math.ceil(math.comb(n, k) / BLOCK)
    for (subsets, det, beta, _), chunk in zip(got, want):
        assert np.array_equal(subsets, chunk)
        sub = M[:, chunk].transpose(1, 0, 2)
        scale = np.prod(np.linalg.norm(sub, axis=1), axis=1)
        assert np.all(np.abs(det - np.abs(np.linalg.det(sub))) <= 1e-12 * scale)
        assert np.all(np.abs(beta - _ratio_lower_bound(sub)) <= 1e-12)


def _exact_abs_det(S: np.ndarray) -> Fraction:
    """|det S| exactly, by Gaussian elimination over the rationals (every
    float is one).  mpmath.det raises TypeError on some exactly singular
    matrices, such as one with a zero first column."""
    a = [[Fraction(x) for x in row] for row in S.tolist()]
    det = Fraction(1)
    for c in range(len(a)):
        pivot = next((r for r in range(c, len(a)) if a[r][c]), None)
        if pivot is None:
            return Fraction(0)
        a[c], a[pivot] = a[pivot], a[c]
        det *= a[c][c]
        for r in range(c + 1, len(a)):
            f = a[r][c] / a[c][c]
            a[r][c:] = [x - f * y for x, y in zip(a[r][c:], a[c][c:])]
    return abs(det)


def test_prefix_minors_sit_within_their_error_bound_property():
    # the spark module docstring bounds the computed |det| of a subset S by
    # eta prod_j ||s_j|| around |det S|, eta = (1 + eps)^k (1 + 16
    # gamma_(k+10)) - 1 with eps = 4 k^2 u, and so stage 1's beta by
    # sigma_min/sigma_max + eta/sqrt(k).  On a few subsets of each wide
    # matrix, the first against the exact determinant, the second against
    # the float ratio or, where that fails, a 50-digit SVD; a NaN beta never
    # clears
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    u = 2.0**-53

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(
        k=st.integers(1, 10),
        extra=st.integers(0, 5),
        kind=st.sampled_from(["random", "graded rows", "near-dependent", "duplicate", "zero", "identity"]),
        depth=st.floats(0.0, 12.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(k, extra, kind, depth, seed):
        rng = np.random.default_rng(seed)
        n = k + extra
        M = rng.standard_normal((k, n))
        j = int(rng.integers(n))
        if kind == "graded rows":
            M *= 10.0 ** rng.uniform(-3.0, 3.0, size=(k, 1))
        elif kind == "near-dependent" and j > 0:
            M[:, j] = M[:, :j] @ rng.standard_normal(j) + 10.0**-depth * rng.standard_normal(k)
        elif kind == "duplicate" and j > 0:
            M[:, j] = M[:, rng.integers(j)]
        elif kind == "zero":
            M[:, j] = 0.0
        elif kind == "identity":
            # A_t's shape: unit columns on the last rows, right of the rest
            q = min(k, extra + 1)
            M[:, n - q :] = np.eye(k)[:, k - q :]
        chunks = list(_prefix_minors(M))
        subsets, det, beta = (np.concatenate([c[i] for c in chunks]) for i in range(3))
        gamma = (k + 10) * u / (1.0 - (k + 10) * u)
        eta = (1.0 + 4.0 * k * k * u) ** k * (1.0 + 16.0 * gamma) - 1.0
        picks = {0, len(subsets) - 1, *rng.integers(len(subsets), size=2).tolist()}
        for i in sorted(picks):
            S = M[:, subsets[i]]
            D = float(np.prod(np.linalg.norm(S, axis=0)))
            assert abs(Fraction(float(det[i])) - _exact_abs_det(S)) <= Fraction(eta * D), (i, subsets[i])
            if np.isnan(beta[i]):
                continue
            s = np.linalg.svd(S, compute_uv=False)
            slack = eta / math.sqrt(k)
            if not beta[i] <= s[-1] / s[0] * (1.0 + 1e-9) + slack:
                assert beta[i] <= _mp_ratio(S) * (1.0 + 1e-9) + slack

    check()


def _recursive_laplace_det(rows):
    """The reference: Laplace expansion on rows (0, 1), each 2 x 2 minor of
    those rows times the determinant of the rows below on the complementary
    columns, recursively, signed (-1)^(i+j+1) for minor columns (i, j)."""
    t = len(rows)
    if t == 1:
        return rows[0][0]
    a, b = rows[0], rows[1]
    det = None
    for i, j in itertools.combinations(range(t), 2):
        term = a[i] * b[j] - a[j] * b[i]
        rest = [c for c in range(t) if c not in (i, j)]
        if rest:
            term *= _recursive_laplace_det([[row[c] for c in rest] for row in rows[2:]])
        if det is None:
            det = term
        elif (i + j) % 2:
            det += term
        else:
            det -= term
    return det


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_laplace_det_equals_the_recursive_expansion(t):
    # the fixed six-term sum over _pair_minors' table rounds as the recursion
    # does: bit for bit at t = 4, and for t < 4, where the identity padding
    # adds exact zeros, up to the sign of a zero determinant; entries span
    # twelve decades, and some members are exactly singular or zero
    rng = np.random.default_rng(t)
    z = rng.standard_normal((t, t, 600)) * 10.0 ** rng.integers(-6, 6, size=(t, t, 600))
    z[:, :, :20] = 0.0
    z[0, :, 20:40] = z[t - 1, :, 20:40]
    z[:, 0, 40:60] = 0.0
    got, want = _laplace_det(z), _recursive_laplace_det(z)
    assert np.count_nonzero(want == 0.0) >= 40
    if t == 4:
        assert got.tobytes() == want.tobytes()
    assert np.abs(got).tobytes() == np.abs(want).tobytes()


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_cofactor_inverse_matches_lapack(t):
    # _cofactor_inverse takes its matrices entry-major (z[r, c] is the vector
    # of entries (r, c)); it agrees with LU's inverse to rounding, and a
    # member with a zero row, an exactly zero determinant, comes out
    # infinite or NaN without a warning
    rng = np.random.default_rng(t)
    A = rng.standard_normal((200, t, t)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(200, t, 1))
    A[0, 0] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="ignore"):
            X = _cofactor_inverse(np.ascontiguousarray(A.transpose(1, 2, 0)))
    assert X.shape == A.shape and not np.isfinite(X[0]).all()
    want = np.linalg.inv(A[1:])
    cond = np.linalg.cond(A[1:])
    err = np.linalg.norm(X[1:] - want, axis=(1, 2)) / np.linalg.norm(want, axis=(1, 2))
    assert np.all(err <= 1e-14 * cond)


@pytest.mark.parametrize("n, k", [(9, 2), (14, 4), (11, 5), (11, 6), (14, 8), (16, 8), (14, 10)])
def test_prefix_inverses_invert_the_subsets_they_are_given(n, k):
    # stage 2's inverses on the prefix path come from the prefix QRs: for any
    # mask of a chunk's subsets they are inverses to rounding, ||S X - I||_F
    # within 1e-14 cond_F(S); (9, 2) and (14, 4) have no prefix, (16, 8) has
    # more than one chunk and (14, 10) a prefix of six columns
    rng = np.random.default_rng(n * k)
    M = rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-2.0, 2.0, size=(k, 1))
    for subsets, _, _, factors in _prefix_minors(M):
        mask = rng.random(len(subsets)) < 0.5
        S = M[:, subsets[mask]].transpose(1, 0, 2)
        with np.errstate(all="ignore"):
            X = _prefix_inverses(M, factors, mask)
        residual = np.linalg.norm(np.matmul(S, X) - np.eye(k), axis=(1, 2))
        cond = np.linalg.norm(S, axis=(1, 2)) * np.linalg.norm(np.linalg.inv(S), axis=(1, 2))
        assert X.shape == S.shape and np.all(residual <= 1e-14 * cond)


def test_prefix_inverse_bound_is_below_the_svd_ratio_property():
    # beta' holds for any X (spark module docstring), so with the prefix
    # path's inverses it still sits below sigma_min/sigma_max up to the
    # rounding of its norms, also where X is poor, infinite or NaN: exactly
    # singular subsets (duplicate or zero columns, zero prefix pivots) are
    # never cleared.  Float ratios that fail are decided by a 50-digit SVD
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(
        k=st.integers(1, 10),
        extra=st.integers(0, 5),
        kind=st.sampled_from(["random", "graded rows", "near-dependent", "duplicate", "zero", "identity"]),
        depth=st.floats(0.0, 12.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(k, extra, kind, depth, seed):
        rng = np.random.default_rng(seed)
        n = k + extra
        M = rng.standard_normal((k, n))
        j = int(rng.integers(n))
        if kind == "graded rows":
            M *= 10.0 ** rng.uniform(-3.0, 3.0, size=(k, 1))
        elif kind == "near-dependent" and j > 0:
            M[:, j] = M[:, :j] @ rng.standard_normal(j) + 10.0**-depth * rng.standard_normal(k)
        elif kind == "duplicate" and j > 0:
            M[:, j] = M[:, rng.integers(j)]
        elif kind == "zero":
            M[:, j] = 0.0
        elif kind == "identity":
            q = min(k, extra + 1)
            M[:, n - q :] = np.eye(k)[:, k - q :]
        for subsets, _, _, factors in _prefix_minors(M):
            picks = np.zeros(len(subsets), dtype=bool)
            picks[[0, -1, *rng.integers(len(subsets), size=2).tolist()]] = True
            S = M[:, subsets[picks]].transpose(1, 0, 2)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with np.errstate(all="ignore"):
                    inv = _prefix_inverses(M, factors, picks)
                beta = _inverse_ratio_lower_bound(S, inv)
            for block, b in zip(S, beta):
                if np.isnan(b) or b <= 0.0:
                    continue
                s = np.linalg.svd(block, compute_uv=False)
                if not b <= s[-1] / s[0] * (1.0 + 1e-9):
                    assert b <= _mp_ratio(block) * (1.0 + 1e-9)

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


# P1's counterexamples: distinct |lam_j| inside sample_instance's range, yet
# the first 2m+1 nodes sum to zero (to rounding).  The witness is those node
# columns and the identity column on power row 2m; expanding along it leaves
# the powers 0..2m+1 without 2m on the 2m+1 nodes, e_1 times their
# Vandermonde determinant, which vanishes at every scale pair.  On their
# magnitudes every such minor is nonzero (total positivity)
P1_COUNTEREXAMPLES = [
    (1, (1.0, 0.7, -1.7, 1.3), (0, 1, 2, 5)),
    (3, (1.1, 0.6, 1.5, 0.7, -1.9, -1.25, -0.75, 1.7), (0, 1, 2, 3, 4, 5, 6, 11)),
]


@pytest.mark.parametrize("t", [1.0, 10.0, 1000.0])
@pytest.mark.parametrize("m, lam, witness", P1_COUNTEREXAMPLES)
def test_prop1_fails_for_signed_nodes_with_a_vanishing_minor(m, lam, witness, t):
    spec = VandermondeSpec(m, lam)
    assert spec.distinct_abs
    report = verify_prop1(AugmentedSpec(spec, x_t=t, y_t=t))
    assert report.certificate.spark == 2 * m + 2 and report.certificate.witness == witness
    assert not report.passes


@pytest.mark.parametrize("t", [1.0, 10.0, 1000.0])
@pytest.mark.parametrize("m, lam, witness", P1_COUNTEREXAMPLES)
def test_prop1_holds_on_the_magnitudes_of_its_counterexamples(m, lam, witness, t):
    report = verify_prop1(AugmentedSpec(VandermondeSpec(m, tuple(abs(v) for v in lam)), x_t=t, y_t=t))
    assert report.passes and report.certificate.spark == 2 * m + 3


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
