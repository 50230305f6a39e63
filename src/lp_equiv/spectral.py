"""Gram spectra, restricted eigenvalue extremes, and the equivalence threshold.

The scalar this whole artifact orbits is

    p_star(A) = min(1, 16 * lmp**2 / ((sqrt(2)+1)**2 * (lmax - lmp)**2)),

where lmp and lmax are the smallest nonzero and the largest eigenvalue of
A^T A, and p_star = 1 when the two coincide.  Below this exponent the strict
lp/l0 inequality claims are supposed to hold; the solvers module tests them.

Also computed here: restricted eigenvalue extremes over all k-column subsets
(the operational version of the two-sided norm sandwich on sparse vectors).

Caution on the sandwich: the claim lmp <= u^2, with u^2 the restricted
minimum at subset size spark-1, is FALSE in general.  Where spark = rank + 1,
as on every node matrix (spark m+1, rank m), the reverse always holds:
u^2 = sigma_r(A_S)^2 for some r-column submatrix A_S, r = rank(A), and
deleting columns cannot raise the r-th singular value (interlacing; Horn and
Johnson, Topics in Matrix Analysis, Cor. 3.1.3), so u^2 <= sigma_r(A)^2 = lmp
and the sandwich fails there by theorem unless the two are equal.
lemma1_constants therefore reports sandwich_holds as data and never asserts
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matgen import DenseMatrix
from .numerics import check_budget, iter_subset_chunks, numerical_rank
from .spark import compute_spark  # noqa: F401  (bound for perfbench's tracer self-test)

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class SpectralSummary:
    """Extremes of the Gram spectrum plus the derived threshold exponent."""

    lambda_min_plus: float
    lambda_max: float
    rank: int
    p_star: float


@dataclass(frozen=True)
class RestrictedSpectrum:
    """Extreme Gram eigenvalues over all column subsets of one size k.

    Witnesses are the lexicographically smallest subsets attaining each
    extreme, which makes reruns byte-reproducible.
    """

    k: int
    min_eig: float
    max_eig: float
    argmin_support: tuple[int, ...]
    argmax_support: tuple[int, ...]


@dataclass(frozen=True)
class Lemma1Report:
    """Restricted extremes at size spark-1 vs. the full Gram extremes.

    u_sq <= w_sq always; w_sq <= lambda_max always (Cauchy interlacing);
    lambda_min_plus <= u_sq is the contested part, reported as sandwich_holds.
    When spark = rank + 1, as on every node matrix, u_sq <= lambda_min_plus
    always holds (interlacing; see the module docstring), so sandwich_holds
    is False there unless the two are equal.
    """

    spark: int
    u_sq: float
    w_sq: float
    lambda_min_plus: float
    lambda_max: float
    sandwich_holds: bool
    argmin_support: tuple[int, ...]
    argmax_support: tuple[int, ...]


def p_star_from_extremes(lambda_min_plus: float, lambda_max: float) -> float:
    """The threshold exponent from the two Gram extremes.

    The closing inequality of the T1 chain (analysis.theorem1_coefficient
    <= 1) solved for p; shared by every caller that needs p_star.
    """
    lmp, lmax = float(lambda_min_plus), float(lambda_max)
    if not (0.0 < lmp <= lmax and math.isfinite(lmax)):
        raise ValueError(f"need 0 < lambda_min_plus <= lambda_max, got {lmp}, {lmax}")
    gap = lmax - lmp
    if gap == 0.0:
        return 1.0
    return min(1.0, 16.0 * lmp * lmp / (((SQRT2 + 1.0) ** 2) * gap * gap))


def gram_spectrum(A: DenseMatrix) -> SpectralSummary:
    """Gram extremes from one SVD of A, under the rank policy.

    The nonzero Gram eigenvalues are the squares of A's nonzero singular
    values (see spectrum_from_singular_values).  Squaring singular values
    keeps lambda_min_plus accurate to about eps * cond(A) relative; an
    eigensolve of A^T A carries an absolute error near eps * lambda_max, a
    relative error near eps * cond(A)^2 in lambda_min_plus (2e-6 at
    cond(A) = 1e5, 4e-3 at the 4e6 that node matrices reach at m = 8).
    """
    return spectrum_from_singular_values(np.linalg.svd(A.entries, compute_uv=False))


def spectrum_from_singular_values(s) -> SpectralSummary:
    """The Gram summary of one matrix from its singular values s, descending
    as numpy's svd returns them (one row of a stacked SVD serves as well):
    rank = r = numerics.numerical_rank(s), lambda_max = s_0^2 and
    lambda_min_plus = s_{r-1}^2."""
    rank = numerical_rank(s)
    if rank == 0:
        raise ValueError("all-zero matrix has no nonzero Gram eigenvalue")
    lmax, lmp = float(s[0]) ** 2, float(s[rank - 1]) ** 2
    return SpectralSummary(
        lambda_min_plus=lmp,
        lambda_max=lmax,
        rank=rank,
        p_star=p_star_from_extremes(lmp, lmax),
    )


def restricted_extremes(A: DenseMatrix, k: int) -> RestrictedSpectrum:
    """Extreme eigenvalues of A_S^T A_S over every |S| = k, by exhaustion.

    Monotone in k (min nonincreasing, max nondecreasing) by eigenvalue
    interlacing; chunked stacked eigensolves keep it fast, the subset budget
    keeps it honest.  Could be parallelized per chunk; reductions stay
    deterministic either way because ties keep the first (lexicographic) hit.
    """
    M = A.entries
    n = M.shape[1]
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    check_budget(math.comb(n, k), "restricted_extremes")

    best_min, best_max = math.inf, -math.inf
    arg_min: tuple[int, ...] = ()
    arg_max: tuple[int, ...] = ()
    for subsets in iter_subset_chunks(n, k):
        sub = M[:, subsets].transpose(1, 0, 2)  # (chunk, m, k)
        grams = np.einsum("cik,cil->ckl", sub, sub)
        evals = np.linalg.eigvalsh(grams)
        lo, hi = evals[:, 0], evals[:, -1]
        i = int(np.argmin(lo))
        if float(lo[i]) < best_min:
            best_min = float(lo[i])
            arg_min = tuple(int(v) for v in subsets[i])
        j = int(np.argmax(hi))
        if float(hi[j]) > best_max:
            best_max = float(hi[j])
            arg_max = tuple(int(v) for v in subsets[j])
    return RestrictedSpectrum(
        k=k, min_eig=best_min, max_eig=best_max, argmin_support=arg_min, argmax_support=arg_max
    )


def lemma1_constants(A: DenseMatrix, spark: int) -> Lemma1Report:
    """u^2, w^2 at subset size spark-1, with the contested sandwich as data.

    spark is A's, from the caller's certificate.  u^2 ||x||^2 <= ||A x||^2
    <= w^2 ||x||^2 holds for every x with ||x||_0 < spark(A) by construction
    (min/max over supports plus interlacing); whether lambda_min_plus <= u^2
    (gram_spectrum(A)'s, as is lambda_max) is recorded, not assumed.
    """
    if spark < 2:
        raise ValueError(f"spark must be >= 2 for a nonempty restricted spectrum, got {spark}")
    rs = restricted_extremes(A, spark - 1)
    summary = gram_spectrum(A)
    return Lemma1Report(
        spark=spark,
        u_sq=rs.min_eig,
        w_sq=rs.max_eig,
        lambda_min_plus=summary.lambda_min_plus,
        lambda_max=summary.lambda_max,
        sandwich_holds=summary.lambda_min_plus <= rs.min_eig * (1 + 1e-12)
        and rs.max_eig <= summary.lambda_max * (1 + 1e-12),
        argmin_support=rs.argmin_support,
        argmax_support=rs.argmax_support,
    )

