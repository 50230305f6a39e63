import math

import numpy as np
import pytest

from lp_equiv.matgen import (
    MAX_M,
    DenseMatrix,
    VandermondeSpec,
    build_vandermonde,
    sample_instance,
)
from lp_equiv.numerics import numerical_rank
from lp_equiv.spark import compute_spark
from lp_equiv.spectral import (
    gram_spectrum,
    lemma1_constants,
    p_star_from_extremes,
    restricted_extremes,
    spectrum_from_singular_values,
)

SQRT2 = math.sqrt(2.0)


def worked_matrix() -> DenseMatrix:
    return build_vandermonde(VandermondeSpec(2, (1.0, 2.0, 3.0)))


def test_gram_spectrum_against_characteristic_polynomial():
    # A A^T = [[3, 6], [6, 14]]: trace 17, det 6, so the nonzero Gram
    # eigenvalues are the roots of mu^2 - 17 mu + 6
    s = gram_spectrum(worked_matrix())
    lo = (17.0 - math.sqrt(265.0)) / 2.0
    hi = (17.0 + math.sqrt(265.0)) / 2.0
    assert s.rank == 2
    assert s.lambda_min_plus == pytest.approx(lo, rel=1e-12)
    assert s.lambda_max == pytest.approx(hi, rel=1e-12)
    want = 16.0 * lo**2 / ((SQRT2 + 1.0) ** 2 * (hi - lo) ** 2)
    assert s.p_star == pytest.approx(want, rel=1e-12)
    assert 1.3e-3 < s.p_star < 1.4e-3


def test_p_star_closed_form_cases():
    assert p_star_from_extremes(2.0, 2.0) == 1.0  # zero gap
    assert p_star_from_extremes(1.0, 1.0 + 1e-9) == 1.0  # clamped at 1
    val = p_star_from_extremes(1.0, 3.0)
    want = 16.0 / ((SQRT2 + 1.0) ** 2 * 4.0)
    assert val == pytest.approx(want, rel=1e-15)
    with pytest.raises(ValueError):
        p_star_from_extremes(0.0, 1.0)
    with pytest.raises(ValueError):
        p_star_from_extremes(2.0, 1.0)


def _scalar_spectrum(s):
    """(rank, lambda_min_plus, lambda_max, p_star) of one row of singular
    values by the scalar formulas in Python floats, as hex strings."""
    rank = numerical_rank(s)
    lmp, lmax = float(s[rank - 1]) ** 2, float(s[0]) ** 2
    gap = lmax - lmp
    p_star = 1.0 if gap == 0.0 else min(1.0, 16.0 * lmp * lmp / ((SQRT2 + 1.0) ** 2 * gap * gap))
    return rank, lmp.hex(), lmax.hex(), p_star.hex()


def test_spectrum_block_rows_equal_the_scalar_formulas():
    # rows over twelve decades, rank-deficient rows, a zero gap, and scales
    # near 1e100 whose squared gap overflows, as the T2 explicit steps reach;
    # every row of one block call is bit-identical to its own call and to
    # the scalar formulas, and p_star_from_extremes' blocks to its scalars
    rng = np.random.default_rng(0)
    s = -np.sort(-np.abs(rng.standard_normal((400, 5))), axis=1) * 10.0 ** rng.uniform(-6, 6, (400, 1))
    s[::7, 3:] = 0.0
    s[::11] = s[::11, :1]
    s[5::13, :2] *= 1e100
    block = spectrum_from_singular_values(s)
    assert block.p_star.shape == block.rank.shape == (400,)
    fields = (block.rank, block.lambda_min_plus, block.lambda_max, block.p_star)
    for row, rank, lmp, lmax, p in zip(s, *fields):
        expected = _scalar_spectrum(row)
        single = spectrum_from_singular_values(row)
        assert isinstance(single.p_star, float) and isinstance(single.rank, int)
        assert (single.rank, single.lambda_min_plus.hex(), single.lambda_max.hex(),
                single.p_star.hex()) == expected
        assert (int(rank), float(lmp).hex(), float(lmax).hex(), float(p).hex()) == expected
        assert p_star_from_extremes(float(lmp), float(lmax)) == p
    with pytest.raises(ValueError):
        spectrum_from_singular_values(np.array([[1.0, 0.5], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        p_star_from_extremes(np.array([1.0, 2.0]), np.array([3.0, 1.0]))


def test_restricted_extremes_hand_oracle():
    # pairwise 2x2 column Grams of the worked example:
    #   (0,1): [[2,3],[3,5]]   -> (7 +- sqrt(45))/2
    #   (0,2): [[2,4],[4,10]]  -> 6 +- 4 sqrt(2)
    #   (1,2): [[5,7],[7,10]]  -> (15 +- sqrt(221))/2
    rs = restricted_extremes(worked_matrix(), 2)
    mins = {
        (0, 1): (7.0 - math.sqrt(45.0)) / 2.0,
        (0, 2): 6.0 - 4.0 * SQRT2,
        (1, 2): (15.0 - math.sqrt(221.0)) / 2.0,
    }
    maxs = {
        (0, 1): (7.0 + math.sqrt(45.0)) / 2.0,
        (0, 2): 6.0 + 4.0 * SQRT2,
        (1, 2): (15.0 + math.sqrt(221.0)) / 2.0,
    }
    assert rs.min_eig == pytest.approx(min(mins.values()), rel=1e-12)
    assert rs.max_eig == pytest.approx(max(maxs.values()), rel=1e-12)
    assert rs.argmin_support == min(mins, key=mins.get)
    assert rs.argmax_support == max(maxs, key=maxs.get)


def test_restricted_extremes_k1_is_column_norms():
    A = worked_matrix()
    rs = restricted_extremes(A, 1)
    norms_sq = np.sum(A.entries**2, axis=0)
    assert rs.min_eig == pytest.approx(float(norms_sq.min()), rel=1e-12)
    assert rs.max_eig == pytest.approx(float(norms_sq.max()), rel=1e-12)


def test_restricted_extremes_past_the_row_count_read_exact_zeros():
    # for k > rows, A_S^T A_S has k - rows exact zero eigenvalues: the
    # minimum is 0.0 itself, not eigensolver noise, and its witness is the
    # lexicographically first subset; at k = n the maximum is lambda_max
    A = worked_matrix()
    rs = restricted_extremes(A, 3)
    assert rs.min_eig == 0.0 and rs.argmin_support == (0, 1, 2)
    assert rs.max_eig == pytest.approx((17.0 + math.sqrt(265.0)) / 2.0, rel=1e-12)
    B = build_vandermonde(sample_instance(3, 7, seed=1))
    rs = restricted_extremes(B, 4)
    assert rs.min_eig == 0.0 and rs.argmin_support == (0, 1, 2, 3)
    assert rs.max_eig <= gram_spectrum(B).lambda_max * (1.0 + 1e-12)


def test_sandwich_counterexample_two_columns():
    # A = [1, 1+eps]: lambda_min_plus is the single nonzero Gram eigenvalue
    # ~ 2 + 2 eps, while the restricted (k = spark - 1 = 1) minimum is ~ 1;
    # the claimed lower sandwich fails
    eps = 1e-3
    A = DenseMatrix(np.array([[1.0, 1.0 + eps]]))
    rep = lemma1_constants(A, spark=compute_spark(A).spark, gram=gram_spectrum(A))
    assert rep.spark == 2
    assert rep.u_sq == pytest.approx(1.0, rel=1e-9)
    assert rep.lambda_min_plus == pytest.approx(2.0 + 2.0 * eps + eps**2, rel=1e-9)
    assert not rep.sandwich_holds
    assert rep.w_sq <= rep.lambda_max * (1.0 + 1e-12)  # upper half still holds


def test_sandwich_on_duplicated_orthogonal_columns_holds():
    # c2 duplicates c0, so spark = 2 and the restricted scan runs at k = 1:
    # u^2 = min column norm^2 = 1 equals lambda_min_plus, and the sandwich
    # holds with equality
    A = DenseMatrix(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
    rep = lemma1_constants(A, spark=compute_spark(A).spark, gram=gram_spectrum(A))
    assert rep.spark == 2
    assert rep.u_sq == pytest.approx(1.0, rel=1e-12)
    assert rep.lambda_min_plus == pytest.approx(1.0, rel=1e-12)
    assert rep.sandwich_holds


def test_p_star_increases_with_conditioning():
    # orthogonal columns: zero gap -> threshold 1
    A = DenseMatrix(np.array([[2.0, 0.0], [0.0, 2.0], [0.0, 0.0]]))
    assert gram_spectrum(A).p_star == 1.0


def test_random_instances_have_positive_threshold():
    for seed in range(5):
        spec = sample_instance(2 + seed % 3, 6 + seed % 4, seed=seed)
        s = gram_spectrum(build_vandermonde(spec))
        assert 0.0 < s.p_star <= 1.0
        assert s.rank == spec.m


def test_restricted_extremes_are_monotone_in_k_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(
        m=st.integers(1, MAX_M),
        extra=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(m, extra, seed):
        # Cauchy interlacing: every k-subset lies in some (k+1)-subset whose
        # Gram matrix has it as a principal submatrix, so the minimum over
        # k+1 columns cannot exceed the minimum over k, nor the maximum fall.
        # The extremes are squared singular values of A_S; a backward-stable
        # SVD moves each singular value by at most a small multiple of
        # k eps ||A_S||_2 (Weyl), so its square moves by about twice that
        # times ||A_S||_2, at most a small multiple of n eps lambda_max, and
        # two computed extremes may cross by twice that.  Past the row count
        # the minimum is an exact 0.0 and cannot cross.  4 n^2 eps
        # lambda_max covers it with room.
        A = build_vandermonde(sample_instance(m, m + extra, seed=seed))
        n = A.cols
        slack = 4.0 * n * n * np.finfo(float).eps * gram_spectrum(A).lambda_max
        extremes = [restricted_extremes(A, k) for k in range(1, n + 1)]
        for small, large in zip(extremes, extremes[1:]):
            assert large.min_eig <= small.min_eig + slack, (m, n, seed, small.k)
            assert large.max_eig >= small.max_eig - slack, (m, n, seed, small.k)

    check()
