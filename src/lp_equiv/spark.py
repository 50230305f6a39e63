"""Exact spark computation by exhaustive subset search, plus the structural
checks that make node-power matrices worth the trouble.

spark(A) is the size of the smallest linearly dependent column subset.  For an
m x n node-power matrix with pairwise distinct |lam_j| it equals m+1 (every
m columns are independent, any m+1 are forced to be dependent by the row
count).  For the scaled augmentation A_t it equals 2m+3 at every positive
scale pair (P1) when every minor its (2m+2)-column subsets reduce to along
their identity columns is nonzero, as for positive nodes; signed nodes with
distinct magnitudes can break it (tests/test_spark.py pins two such A_t).
Both values are certified here by enumeration, never assumed.

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
node matrices and each A_t among them) pass two screens before the SVD, each
a provable lower bound on sigma_min/sigma_max.  A subset whose bound exceeds
SCREEN_FACTOR * tol_rel is independent and skips the SVD; only the rest go
through the one sigma_min/sigma_max test, in lexicographic order, so
certificates and witnesses are the SVD test's alone.

Stage 1, the determinant screen.  For a k x k block with Frobenius norm F,
AM-GM on the k-1 largest singular values gives
prod_{i<k} sigma_i <= (F^2/(k-1))^((k-1)/2), so
sigma_min = |det| / prod_{i<k} sigma_i >= |det| ((k-1)/F^2)^((k-1)/2)
(Hong and Pan, 1992); with sigma_max <= F,

    beta = |det| (k-1)^((k-1)/2) / F^k <= sigma_min / sigma_max.

The determinant comes from one of two kernels, chosen by the size of the
enumeration alone (numerics.PREFIX_MINORS_MIN_SUBSETS = 256 subsets).  Up to
it, one batched LU per chunk: a cleared block has condition number below
1/beta, so the LU determinant's relative error is at most about
k^2 eps / beta, under 1e-3 even at beta = 1e-10 (tol_rel = 1e-13).  Beyond
it, shared-prefix minors (numerics._prefix_minors).  In lexicographic order
the subsets S = M[:, P + T] that share their first p = k - t columns P,
t = min(k, 4), are consecutive; with M[:, P] = Q R the complete Householder
QR and Q_2 the last t columns of Q, |det S| = |prod diag R| |det Z| for
Z = Q_2^T M[:, T], so each prefix costs one QR and each subset one t x t
determinant, the six-term Laplace sum over the 2 x 2 minors of rows (0, 1)
and (2, 3) of Z, which the prefix path's cofactor inverses read too.

The prefix kernel's error, with columns s_j of S, D = prod_j ||s_j||_2 and
u = 2^-53.  Householder QR is columnwise backward stable (Higham, Accuracy
and Stability of Numerical Algorithms, 2nd ed., chapter 19): the computed R
is exact for M[:, P] + dM_P with ||dm_j||_2 <= eps ||m_j||_2 for every
column, and so, through the computed Q, is the computed projection
fl(Q_2^T M[:, T]) for M[:, T] + dM_T; eps is of order k^2 u (the tests take
eps = 4 k^2 u).  Hence computed R and Z are exact for one S + dS, and
det(S + dS) = +-prod diag R det Z.  The closed form rounds each of the t!
products of Z's entries at most 10 times (two per 2 x 2 minor, one for
their product, five for the six-term sum; padding t < 4 adds exact terms
only), and prod diag R, carried on row 0, p times more, so its error is at
most gamma_(k+10) |prod diag R| per(|Z|) <= 16 gamma_(k+10) |prod diag R|
prod_c ||z_c||_2, with gamma_j = j u / (1 - j u) and per the permanent;
||z_c||_2 <= ||s_c + ds_c||_2 and, by Hadamard's inequality,
|prod diag R| <= prod_{j in P} ||s_j + ds_j||_2.  Expanding det(S + dS)
column by column gives

    | computed |det| - |det S| | <= eta D,
    eta = (1 + eps)^k (1 + 16 gamma_(k+10)) - 1,

and with D <= (F^2/k)^(k/2) (AM-GM) and (k-1)^((k-1)/2) <= k^(k/2) / sqrt(k),
the computed beta is at most sigma_min/sigma_max + eta/sqrt(k), up to a
relative O(k u) from rounding F^2 (summed from the columns' squared norms).
At k = 18 eta/sqrt(k) is 6e-13, under 1e-2 of the smallest threshold
SCREEN_FACTOR * 1e-13, and at k = 8 it is 9e-14.

Either way the margin covers floating point: neither kernel's error, nor the
SVD's own ratio, which is off by about k eps absolute, comes near the factor
SCREEN_FACTOR = 10^3 between a cleared subset and the tolerance, so every
cleared subset would also pass the SVD test.  A NaN or zero beta (a zero
column, F = 0, determinant underflow) leaves the subset open.

Stage 2, the inverse-norm screen, runs only on what stage 1 leaves open.
Let X be an approximate inverse of a block S, R = fl(fl(S X) - I) its
computed residual and E = S X - I the exact one.  Each entry of fl(S X) is a k-term dot
product, so |fl(S X) - S X| <= gamma_k |S| |X| entrywise in any summation
order, with gamma_k = k u / (1 - k u) and u = 2^-53, and subtracting I
rounds once more (Higham, Accuracy and Stability of Numerical Algorithms,
2nd ed., section 3.1); hence ||E||_F <= (1 + 2u) ||R||_F +
gamma_k ||S||_F ||X||_F.  When ||E||_2 < 1, S X = I + E is invertible, so S
is, and S^-1 = X (I + E)^-1 gives ||S^-1||_2 <= ||X||_2 / (1 - ||E||_2)
(the residual bound for a computed inverse, ibid. chapter 14), so
sigma_min >= (1 - ||E||_F) / ||X||_F; with sigma_max <= ||S||_F,

    beta' = (1 - (1 + 2u) ||R||_F) / (||S||_F ||X||_F) - gamma_k
          <= sigma_min / sigma_max.

The bound is a posteriori: it holds for whatever X is used, with no
growth factor, so for every k (2 MAX_M + 2 = 18 included) and every
tolerance; a poor X only makes beta' small, negative or NaN (an overflowed
or undefined inverse), which leaves the subset open.  Evaluating beta' in
floating point adds a relative error of order k^2 u from the three norms,
and underflow in fl(S X) at most k 2^-1074 per entry; like the SVD's own
error, both sit far inside SCREEN_FACTOR.  Stage 2 is not run on the
subsets stage 1 already clears: a batched inverse of C(14, 8) 8 x 8 blocks
takes 4.7 ms against 1.7 ms for their determinants (one x86-64 core,
OpenBLAS).  Tall levels (k < rows: the ascending fallback and
rank-deficient inputs) keep the plain SVD.

X comes from the kernel that gave stage 1 its determinants.  On the LU
path it is np.linalg.inv's, taken only where the LU determinant is nonzero
and finite, since np.linalg.inv raises on an exactly singular block.  On
the prefix path it is built from the prefix QRs (numerics._prefix_inverses):
with Q^T S = [[R_11, B], [0, Z]], S^-1 = [[G - W Z^-1 Q_2^T], [Z^-1 Q_2^T]]
for G = R_11^-1 Q_1^T and W = R_11^-1 B, so G is taken once per prefix and
each open block costs one t x t cofactor inverse of Z and two small
products instead of a LAPACK call.  Nothing there raises: a zero pivot of
R_11 or an exactly singular Z gives an infinite or NaN X, which leaves the
subset open, so the prefix path takes no LU at all.  It also halves what
each subset stage 1 leaves open adds to a probe, which is what makes probe
times differ between instances of one shape: on the 8 x 14 A_t of
prop1-spark stage 1 leaves 16 to 1,390 of the 3,003 subsets open, and each
costs about 2 us through an LU gate and np.linalg.inv, about 1 us through
the prefix inverse, bound included, after a fixed 0.1 ms or so per chunk
for G (nominal x86-64 core, OpenBLAS, one thread).

Stage 1 (numerics._ratio_lower_bound, SCREEN_FACTOR) has a second caller:
the basis scan of solvers.enumerate_basic_solutions clears the square bases
of a full-row-rank matrix at tol_rel = RANK_TOL, on the raw submatrices, and
solves the cleared ones by LU.  Nothing above depends on the scaling or on
tol_rel, so every basis it clears would also pass the SVD rank test of
solvers._solve_supports, and only the rest go to that SVD.  The scan does
not run stage 2: a basis moved from the SVD to LU gets coefficients that
differ in their last bits, and its fixed read-off tolerances (ZERO_COEFF,
RESIDUAL_TOL) turn such differences into different supports.  Routing the
bases stage 2 clears to LU changed the basic set (not the l0 level) on 10 of
360 planted node inputs at m = 6..8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .matgen import AugmentedSpec, DenseMatrix, VandermondeSpec, build_augmented_t, build_vandermonde
from .numerics import (
    PREFIX_MINORS_MIN_SUBSETS,
    RANK_TOL,
    SCREEN_FACTOR,
    _inverse_ratio_lower_bound,
    _prefix_inverses,
    _prefix_minors,
    _ratio_lower_bound,
    check_budget,
    iter_subset_chunks,
    numerical_rank,
)

# A subset counts as dependent when its numerical rank (numerics.RANK_TOL,
# the package's one rank policy) falls below its size, measured after
# row/column max-abs equilibration: diagonal scaling never changes which
# subsets are dependent, but it stops mixed row scales -- tiny glue rows
# against lam^(2m+1) powers -- from faking rank deficiency.  Only the rank
# is read, never a singular value itself, so the scaling is free.  Dependent
# subsets land at 0..1e-15 relative; the worst independent subset observed
# across the augmented sweeps sits near 3e-9.  Square subsets may skip the
# SVD through the two screens below, which clear a subset only when a
# provable lower bound on its sigma_min/sigma_max exceeds SCREEN_FACTOR *
# tol_rel, so the decision at each tolerance is the SVD's alone.

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


def compute_spark(A: DenseMatrix, tol_rel: float = RANK_TOL) -> SparkCertificate:
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
    check_budget(total, "compute_spark")

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
    if k == m_rows:
        chunks = _open_square_subsets(M, SCREEN_FACTOR * tol_rel)
    else:
        chunks = iter_subset_chunks(n, k)
    for subsets in chunks:
        sub = M[:, subsets].transpose(1, 0, 2)  # (chunk, m_rows, k)
        dependent = numerical_rank(np.linalg.svd(sub, compute_uv=False), tol_rel) < k
        if np.any(dependent):
            idx = int(np.argmax(dependent))  # first hit = lex smallest
            return tuple(int(j) for j in subsets[idx])
    return None


def _open_square_subsets(M: np.ndarray, threshold: float) -> Iterator[np.ndarray]:
    """The k-subsets of the k-row M's columns that neither screen clears above
    threshold, as nonempty chunks in lexicographic order.

    Up to PREFIX_MINORS_MIN_SUBSETS subsets, every subset goes to
    _open_after_screens, whose batched LU serves both stages.  Beyond, stage 1
    reads the shared-prefix minors (_prefix_minors), and stage 2 takes the
    subsets they leave open with inverses built from the same prefix QRs
    (_prefix_inverses), so the prefix path takes no LU.
    """
    k, n = M.shape
    if math.comb(n, k) <= PREFIX_MINORS_MIN_SUBSETS:
        for subsets in iter_subset_chunks(n, k):
            subsets = subsets[_open_after_screens(M[:, subsets].transpose(1, 0, 2), threshold)]
            if len(subsets):
                yield subsets
        return
    for subsets, _, beta, factors in _prefix_minors(M):
        open_ = ~(beta > threshold)
        if not np.any(open_):
            continue
        subsets = subsets[open_]
        with np.errstate(all="ignore"):
            inv = _prefix_inverses(M, factors, open_)
        subsets = subsets[~(_inverse_ratio_lower_bound(M[:, subsets].transpose(1, 0, 2), inv) > threshold)]
        if len(subsets):
            yield subsets


def _open_after_screens(sub: np.ndarray, threshold: float) -> np.ndarray:
    """Mask of the square blocks that neither screen clears above threshold.

    The inverse-norm screen runs only on what the determinant screen leaves
    open, and only where that LU met no zero pivot (det nonzero and finite),
    since np.linalg.inv raises on an exactly singular block.  NaN compares
    False, so an undecidable bound leaves its block open.
    """
    det = np.linalg.det(sub)
    open_ = ~(_ratio_lower_bound(sub, det) > threshold)
    retry = open_ & np.isfinite(det) & (det != 0.0)
    if np.any(retry):
        square = sub[retry]
        open_[retry] = ~(_inverse_ratio_lower_bound(square, np.linalg.inv(square)) > threshold)
    return open_


def check_submatrix_invertibility(spec: VandermondeSpec) -> SubmatrixReport:
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
    check_budget(total, "check_submatrix_invertibility")

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


def verify_prop1(aug: AugmentedSpec) -> Prop1Report:
    """Certify spark(A_t) for n >= 2m+2 nodes against P1's 2m+3, which needs
    the hypothesis in the module docstring: passes is False where it fails."""
    base = aug.base
    base.require_distinct_abs()
    if base.n < 2 * base.m + 2:
        raise ValueError(f"need n >= 2m+2 (= {2 * base.m + 2}), got n={base.n}")
    cert = compute_spark(build_augmented_t(aug))
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
