"""Calibration of the one rank policy (numerics.RANK_TOL) on sampled node
matrices, for every m up to MAX_M, with two independent oracles:

* Gautschi's bound on the inverse of a Vandermonde matrix ("On inverses of
  Vandermonde and confluent Vandermonde matrices", Numer. Math. 4, 1962)
  gives a floor on sigma_min/sigma_max of every square node submatrix from
  the node gaps alone, with no SVD involved;
* a 50-digit mpmath SVD gives p_star on instances where float64 rank and
  spectrum decisions are hardest, and the restricted Gram extremes u^2 and
  w^2 on their witness subsets.

The positive-node augmentations A_t of Proposition 1 get their own check: the
closest (2m+2)-column subsets to singular, pinned by seed and scale pair.
"""

import itertools
import math

import numpy as np
import pytest

from lp_equiv.matgen import (
    MAX_M,
    AugmentedSpec,
    VandermondeSpec,
    build_augmented_t,
    build_vandermonde,
    sample_instance,
)
from lp_equiv.numerics import RANK_TOL
from lp_equiv.solvers import MatrixFacts, null_space_basis, sample_null
from lp_equiv.spark import _equilibrated, compute_spark, verify_prop1
from lp_equiv.spectral import gram_spectrum, restricted_extremes

SEEDS = range(100)
EXTRA_COLUMNS = range(1, 5)  # n = m+1 .. m+4


def sampled(m: int):
    for extra, seed in itertools.product(EXTRA_COLUMNS, SEEDS):
        yield m + extra, seed, sample_instance(m, m + extra, seed=seed)


@pytest.mark.parametrize("m", range(1, MAX_M + 1))
def test_rank_kernel_and_conditioning_are_calibrated(m):
    # Gram rank m, an (n - m)-dimensional kernel, and every basis vector and
    # every row h of a 70-direction sample block at roundoff:
    # |A h| <= 1e-13 ||A|| ||h||, with each base direction (scale 1) at norm
    # 1 within 1e-12.  The sampled node matrices also keep
    # sigma_min/sigma_max above 1e-7 (the claim in matgen's calibration
    # comment), four orders above RANK_TOL.
    worst_residual, worst_ratio = 0.0, math.inf
    for n, seed, spec in sampled(m):
        A = build_vandermonde(spec)
        s = np.linalg.svd(A.entries, compute_uv=False)
        assert gram_spectrum(A).rank == m, (m, n, seed)
        basis = null_space_basis(A)
        assert basis.shape == (n, n - m), (m, n, seed)
        samples = sample_null(MatrixFacts(A), count=70, seed=seed)
        base = samples.vectors[np.array(samples.scales) == 1.0]
        assert len(base) == 70, (m, n, seed)
        assert np.all(np.abs(np.linalg.norm(base, axis=1) - 1.0) <= 1e-12), (m, n, seed)
        vectors = np.vstack([basis.T, samples.vectors])
        residual = np.linalg.norm(vectors @ A.entries.T, axis=1) / (
            s[0] * np.linalg.norm(vectors, axis=1)
        )
        assert np.all(residual <= 1e-13), (m, n, seed, residual.max())
        worst_residual = max(worst_residual, residual.max())
        worst_ratio = min(worst_ratio, s[-1] / s[0])
    assert worst_ratio > 1e-7
    print(f"m={m}: worst |Ah|/(|A||h|) {worst_residual:.2e}, min sigma ratio {worst_ratio:.2e}")


def gautschi_floor(nodes: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Lower bound on sigma_min/sigma_max for a (count, m, m) stack of square
    node matrices V[c, i, j] = nodes[c, j]**i.

    Row j of V^{-1} holds the coefficients of the j-th Lagrange polynomial,
    so ||V^{-1}||_inf <= max_j prod_{i != j} (1 + |x_i|) / |x_j - x_i|
    (Gautschi 1962); then sigma_min >= 1 / (sqrt(m) ||V^{-1}||_inf) and
    sigma_max <= ||V||_F.
    """
    m = nodes.shape[1]
    off = ~np.eye(m, dtype=bool)
    gaps = np.abs(nodes[:, :, None] - nodes[:, None, :])  # [c, j, i] = |x_j - x_i|
    factors = np.where(off, (1.0 + np.abs(nodes))[:, None, :] / np.where(off, gaps, 1.0), 1.0)
    inv_bound = np.max(np.prod(factors, axis=2), axis=1)
    fro = np.sqrt(np.einsum("cij,cij->c", V, V))
    return 1.0 / (math.sqrt(m) * inv_bound * fro)


@pytest.mark.parametrize("m", range(1, MAX_M + 1))
def test_square_node_submatrices_clear_the_gautschi_floor(m):
    # every m x m node submatrix is provably independent at RANK_TOL: the
    # floor exceeds the tolerance and the SVD ratio respects the floor
    lowest = math.inf
    for n, seed, spec in sampled(m):
        subsets = np.array(list(itertools.combinations(range(n), m)))
        nodes = np.asarray(spec.lam)[subsets]
        V = build_vandermonde(spec).entries[:, subsets].transpose(1, 0, 2)
        floor = gautschi_floor(nodes, V)
        s = np.linalg.svd(V, compute_uv=False)
        assert np.all(s[:, -1] / s[:, 0] >= floor), (m, n, seed)
        assert np.all(floor > RANK_TOL), (m, n, seed, floor.min())
        lowest = min(lowest, float(floor.min()))
    print(f"m={m}: lowest Gautschi floor {lowest:.3e} = {lowest / RANK_TOL:.1f} RANK_TOL")


def mp_p_star(lam, m: int) -> float:
    """p_star from a 50-digit SVD of the node matrix built from the same nodes."""
    import mpmath

    with mpmath.workdps(50):
        A = mpmath.matrix([[mpmath.mpf(x) ** i for x in lam] for i in range(m)])
        s = sorted(mpmath.svd_r(A, compute_uv=False), reverse=True)
        lmax, lmp = s[0] ** 2, s[m - 1] ** 2
        p = 16 * lmp**2 / ((mpmath.sqrt(2) + 1) ** 2 * (lmax - lmp) ** 2)
        return float(min(mpmath.mpf(1), p))


@pytest.mark.parametrize(
    "m, n, seed", [(6, 8, 23), (7, 8, 23), (8, 9, 36), (8, 11, 74), (8, 11, 77), (8, 11, 120)]
)
def test_p_star_matches_extended_precision(m, n, seed):
    # instances whose Gram spectrum an eigensolve of A^T A got wrong in rank
    # or in lambda_min_plus, by up to eleven orders of magnitude in p_star
    spec = sample_instance(m, n, seed=seed)
    summary = gram_spectrum(build_vandermonde(spec))
    assert summary.rank == m
    assert summary.p_star == pytest.approx(mp_p_star(spec.lam, m), rel=1e-9, abs=0.0)


def mp_singular_values(M: np.ndarray, support) -> list:
    """The singular values of the float submatrix M[:, support], each entry
    taken exactly, from a 50-digit SVD, descending."""
    import mpmath

    with mpmath.workdps(50):
        sub = mpmath.matrix([[mpmath.mpf(float(M[i, j])) for j in support] for i in range(M.shape[0])])
        return sorted(mpmath.svd_r(sub, compute_uv=False), reverse=True)


@pytest.mark.parametrize("m", range(2, MAX_M + 1))
def test_restricted_extremes_match_extended_precision(m):
    # u^2 and w^2 at k = m (spark - 1 on node matrices) against the exact
    # extremes of the reported witness subsets of the same float matrix.  A
    # backward-stable SVD moves each singular value of A_S by at most a
    # modest multiple c of eps ||A_S||_2 (Weyl), so squaring, with its own
    # rounding and the reference's rounding to float, leaves s_min^2 within
    # (2 c cond(A_S) + 1) eps relative and s_max^2 within (2 c + 1) eps.
    # c = m covers the measured errors with room: over these instances they
    # reach 0.64 m eps cond(A_S) for u^2 (6.8e-9 at m = 8, cond 1.4e9) and
    # 1.04 m eps for w^2 (both at m = 2).  An eigensolve of the formed
    # A_S^T A_S errs by about eps cond(A_S)^2 in u^2: 9e-11 relative already
    # at (3, 6), cond 1.6e3, and 1.7e-4 at (6, 12), far outside this bound
    eps = np.finfo(float).eps
    for seed in range(4):
        A = build_vandermonde(sample_instance(m, 2 * m, seed=seed))
        rs = restricted_extremes(A, m)
        s = mp_singular_values(A.entries, rs.argmin_support)
        cond = float(s[0] / s[-1])
        u_sq = float(s[-1] ** 2)
        assert abs(rs.min_eig - u_sq) <= (2 * m * cond + 1) * eps * u_sq, (m, seed, rs.min_eig, u_sq, cond)
        w_sq = float(mp_singular_values(A.entries, rs.argmax_support)[0] ** 2)
        assert abs(rs.max_eig - w_sq) <= (2 * m + 1) * eps * w_sq, (m, seed, rs.max_eig, w_sq)


def positive_nodes(m: int, n: int, seed: int) -> VandermondeSpec:
    """sample_instance(m, n, seed) with |lam| in place of lam."""
    return VandermondeSpec(m=m, lam=tuple(abs(v) for v in sample_instance(m, n, seed=seed).lam), seed=seed)


@pytest.mark.parametrize(
    "m, n, seed, scale, subset, ratio",
    [
        (2, 6, 14, 0.01, (0, 1, 2, 3, 4, 5), 1.1765e-8),
        (3, 8, 14, 0.01, (0, 1, 2, 3, 4, 5, 6, 7), 7.961e-10),
        (3, 9, 21, 0.01, (0, 1, 2, 4, 5, 6, 7, 8), 2.2162e-10),
    ],
)
def test_positive_node_augmentations_keep_their_close_calls_above_the_rank_tolerance(
    m, n, seed, scale, subset, ratio
):
    # P1 holds for positive nodes (every minor its (2m+2)-column subsets
    # reduce to is positive), but those subsets sit closer to singular than
    # signed ones: over seeds 0..39 and x_t = y_t in {1, 0.01}, the smallest
    # sigma_min/sigma_max of a (2m+2)-column subset of the equilibrated A_t
    # (as compute_spark sees it) is the pinned one, 22 RANK_TOL at (3, 9)
    # against 2.1e-9 for the signed nodes.  If it narrows below 10 RANK_TOL,
    # lower MAX_M rather than loosen this test
    worst = (math.inf, None, None, None)
    for s, t in itertools.product(range(40), (1.0, 0.01)):
        M = _equilibrated(build_augmented_t(AugmentedSpec(positive_nodes(m, n, s), t, t)).entries)
        subsets = np.array(list(itertools.combinations(range(M.shape[1]), 2 * m + 2)))
        sv = np.linalg.svd(M[:, subsets].transpose(1, 0, 2), compute_uv=False)
        low = sv[:, -1] / sv[:, 0]
        i = int(np.argmin(low))
        if low[i] < worst[0]:
            worst = (float(low[i]), s, t, tuple(subsets[i].tolist()))
    assert worst[1:] == (seed, scale, subset)
    assert worst[0] == pytest.approx(ratio, rel=1e-3)
    assert worst[0] > 10 * RANK_TOL
    assert verify_prop1(AugmentedSpec(positive_nodes(m, n, seed), scale, scale)).passes
