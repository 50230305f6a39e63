"""Exact spark computation by exhaustive subset search, plus the structural
checks that make node-power matrices worth the trouble.

spark(A) is the size of the smallest linearly dependent column subset.  For an
m x n node-power matrix with pairwise distinct |lam_j| it equals m+1 (every
m columns are independent, any m+1 are forced to be dependent by the row
count), and for the scaled augmentation A_t it equals 2m+3.  Both facts are
certified here by enumeration, never assumed.

The search scans level r = rank(A) first.  "Some k-subset is dependent" is
monotone in k: by singular-value interlacing, adding a column never raises
sigma_min/sigma_max.  So if every r-subset is independent, no smaller subset
is dependent either and spark is r+1, which is the common, maximal case; the
witness is then the lexicographically first dependent (r+1)-subset.  Only a
dependency at level r sends the search back to sizes ascending from 1, with
subsets lexicographic within a size, and level r itself reuses the probe's
result.  Either way the returned witness is the lexicographically smallest
dependent subset of the critical size, exactly as a plain ascending search
would return.  Dependent subsets calibrate at 0..1e-15 relative and
independent ones above 3e-9, so floating-point error would have to be 10^4
times too large to flip a subset across the 1e-11 rank tolerance
(numerics.RANK_TOL) and break the monotonicity the probe relies on.
Enumeration is chunked through stacked LAPACK SVDs, and the subset budget
is charged for the worst case, C(n, 1..r+1), whichever path runs.

Square subsets (k = rows: the level-r probe of every full-row-rank matrix,
node matrices and each A_t among them) pass a determinant screen before the
SVD.  For a k x k block with Frobenius norm F, AM-GM on the k-1 largest
singular values gives prod_{i<k} sigma_i <= (F^2/(k-1))^((k-1)/2), so
sigma_min = |det| / prod_{i<k} sigma_i >= |det| ((k-1)/F^2)^((k-1)/2)
(Hong and Pan, 1992); with sigma_max <= F,

    beta = |det| (k-1)^((k-1)/2) / F^k <= sigma_min / sigma_max.

A subset with beta > SCREEN_FACTOR * tol_rel is independent and skips the
SVD; only the rest go through the one sigma_min/sigma_max test, in
lexicographic order, so the witness is unchanged.  The screen is one-sided
and its margin covers floating point: a cleared block has condition number
below 1/beta, so the LU determinant's relative error is at most about
k^2 eps / beta, under 1e-3 even at beta = 1e-10 (tol_rel = 1e-13), and the
SVD's own ratio is off by about k eps absolute; both sit far inside the
factor SCREEN_FACTOR = 10^3 between a cleared subset and the tolerance, so
every cleared subset would also pass the SVD test.  A NaN or zero beta (a
zero column, F = 0, determinant underflow) leaves the subset to the SVD.
Tall levels (k < rows: the ascending fallback and rank-deficient inputs)
keep the plain SVD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matgen import AugmentedSpec, DenseMatrix, VandermondeSpec, build_augmented_t, build_vandermonde
from .numerics import RANK_TOL, check_budget, iter_subset_chunks, numerical_rank

# A subset counts as dependent when its numerical rank (numerics.RANK_TOL,
# the package's one rank policy) falls below its size, measured after
# row/column max-abs equilibration: diagonal scaling never changes which
# subsets are dependent, but it stops mixed row scales -- tiny glue rows
# against lam^(2m+1) powers -- from faking rank deficiency.  Only the rank
# is read, never a singular value itself, so the scaling is free.  Dependent
# subsets land at 0..1e-15 relative; the worst independent subset observed
# across the augmented sweeps sits near 3e-9.  Square subsets may skip the
# SVD through the determinant screen below, which clears a subset only when
# its provable lower bound on sigma_min/sigma_max exceeds SCREEN_FACTOR *
# tol_rel, so the decision at each tolerance is the SVD's alone.

# Margin between the screen's bound and the tolerance, covering the LU
# determinant's rounding error (see the module docstring).
SCREEN_FACTOR = 1e3

# A square submatrix of a node matrix counts as singular at |det| <= DET_TOL.
DET_TOL = 1e-12


@dataclass(frozen=True)
class SparkCertificate:
    """spark value plus the dependent witness subset that certifies it.

    witness columns have numerical rank |witness| - 1: removing any single
    column yields an independent set (no smaller subset is dependent: either
    level rank(A) was all independent, which by monotonicity clears every
    smaller size, or the ascending search cleared them one by one).
    """

    spark: int
    witness: tuple[int, ...]
    tol: float


@dataclass(frozen=True)
class SubmatrixReport:
    """Exhaustive |det| scan over equal-size row/column subsets."""

    max_size: int
    checked: int
    min_abs_det: float
    argmin_rows: tuple[int, ...]
    argmin_cols: tuple[int, ...]
    det_tol: float
    passes: bool


@dataclass(frozen=True)
class Prop1Report:
    """spark(A_t) against its predicted value 2m+3."""

    m: int
    n: int
    x_t: float
    y_t: float
    expected: int
    certificate: SparkCertificate
    passes: bool


def _equilibrated(entries: np.ndarray) -> np.ndarray:
    """Row then column max-abs scaling; preserves subset dependence exactly."""
    row_scale = np.max(np.abs(entries), axis=1, keepdims=True)
    row_scale[row_scale == 0.0] = 1.0
    scaled = entries / row_scale
    col_scale = np.max(np.abs(scaled), axis=0, keepdims=True)
    col_scale[col_scale == 0.0] = 1.0
    return scaled / col_scale


def compute_spark(
    A: DenseMatrix, tol_rel: float = RANK_TOL, budget: int | None = None
) -> SparkCertificate:
    """Smallest dependent column-subset size, with lexicographic-minimum witness.

    Raises ValueError for full-column-rank inputs (no dependent subset exists;
    such matrices are outside this artifact's scope) and BudgetExceededError
    when the worst-case enumeration C(n, 1..rank+1) would blow the cap.
    """
    M = _equilibrated(A.entries)
    m_rows, n = M.shape
    r = numerical_rank(np.linalg.svd(M, compute_uv=False), tol_rel)
    if n <= r:
        raise ValueError(
            f"matrix has full column rank ({r} of {n} columns); spark is undefined here"
        )
    total = sum(math.comb(n, k) for k in range(1, r + 2))
    check_budget(total, budget, "compute_spark")

    # Level r decides: all independent there means spark r+1 (monotonicity).
    at_rank = _first_dependent(M, r, tol_rel) if r > 0 else None
    if at_rank is None:
        witness = _first_dependent(M, r + 1, tol_rel)
        if witness is None:
            raise AssertionError("unreachable: every (rank+1)-subset is dependent")
        return SparkCertificate(spark=r + 1, witness=witness, tol=tol_rel)
    for k in range(1, r):
        witness = _first_dependent(M, k, tol_rel)
        if witness is not None:
            return SparkCertificate(spark=k, witness=witness, tol=tol_rel)
    return SparkCertificate(spark=r, witness=at_rank, tol=tol_rel)


def _first_dependent(M: np.ndarray, k: int, tol_rel: float) -> tuple[int, ...] | None:
    """Lexicographically first dependent k-subset of M's columns, or None."""
    m_rows, n = M.shape
    if k > m_rows:
        # More columns than rows: dependent outright, so the first k columns.
        return tuple(range(k))
    for subsets in iter_subset_chunks(n, k):
        sub = M[:, subsets].transpose(1, 0, 2)  # (chunk, m_rows, k)
        if k == m_rows:
            # NaN compares False, so an undecidable bound leaves the subset open
            open_ = ~(_ratio_lower_bound(sub) > SCREEN_FACTOR * tol_rel)
            if not np.any(open_):
                continue
            subsets, sub = subsets[open_], sub[open_]
        dependent = numerical_rank(np.linalg.svd(sub, compute_uv=False), tol_rel) < k
        if np.any(dependent):
            idx = int(np.argmax(dependent))  # first hit = lex smallest
            return tuple(int(j) for j in subsets[idx])
    return None


def _ratio_lower_bound(sub: np.ndarray) -> np.ndarray:
    """beta = |det| (k-1)^((k-1)/2) / F^k <= sigma_min/sigma_max per square block."""
    k = sub.shape[-1]
    with np.errstate(all="ignore"):
        det = np.abs(np.linalg.det(sub))
        fro = np.sqrt(np.einsum("cij,cij->c", sub, sub))
        return det * (k - 1) ** ((k - 1) / 2) / fro**k


def check_submatrix_invertibility(
    spec: VandermondeSpec, budget: int | None = None
) -> SubmatrixReport:
    """Scan |det| over every I x J square submatrix, of every size up to
    max_size = min(m, n).

    For pairwise distinct positive nodes every square submatrix is invertible
    (total positivity: all dets strictly positive).  Signed nodes admit
    singular selections even with distinct magnitudes -- e.g. rows (0, 1, 3)
    vanish whenever the three chosen nodes sum to zero -- so for sampled
    instances this scan is informational.  Reports the minimum |det| and
    where it occurs.
    """
    A = build_vandermonde(spec).entries
    m, n = A.shape
    max_size = min(m, n)
    total = sum(math.comb(m, s) * math.comb(n, s) for s in range(1, max_size + 1))
    check_budget(total, budget, "check_submatrix_invertibility")

    best = math.inf
    arg_rows: tuple[int, ...] = ()
    arg_cols: tuple[int, ...] = ()
    checked = 0
    for s in range(1, max_size + 1):
        for row_sets in iter_subset_chunks(m, s, chunk=256):
            for col_sets in iter_subset_chunks(n, s, chunk=256):
                # (r_chunk, c_chunk, s, s) block of submatrices
                block = A[row_sets[:, None, :, None], col_sets[None, :, None, :]]
                dets = np.abs(np.linalg.det(block))
                checked += dets.size
                flat = int(np.argmin(dets))
                val = float(dets.ravel()[flat])
                if val < best:
                    best = val
                    ri, ci = np.unravel_index(flat, dets.shape)
                    arg_rows = tuple(int(v) for v in row_sets[ri])
                    arg_cols = tuple(int(v) for v in col_sets[ci])
    return SubmatrixReport(
        max_size=max_size,
        checked=checked,
        min_abs_det=best,
        argmin_rows=arg_rows,
        argmin_cols=arg_cols,
        det_tol=DET_TOL,
        passes=best > DET_TOL,
    )


def verify_prop1(
    aug: AugmentedSpec, tol_rel: float = RANK_TOL, budget: int | None = None
) -> Prop1Report:
    """Certify spark(A_t) = 2m+3 for an augmentation with n >= 2m+2 nodes."""
    base = aug.base
    base.require_distinct_abs()
    if base.n < 2 * base.m + 2:
        raise ValueError(f"need n >= 2m+2 (= {2 * base.m + 2}), got n={base.n}")
    cert = compute_spark(build_augmented_t(aug), tol_rel=tol_rel, budget=budget)
    expected = 2 * base.m + 3
    return Prop1Report(
        m=base.m,
        n=base.n,
        x_t=aug.x_t,
        y_t=aug.y_t,
        expected=expected,
        certificate=cert,
        passes=cert.spark == expected,
    )
