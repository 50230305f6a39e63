"""Exhaustive l0/lp solvers and the three equivalence-claim harnesses.

The claims under test, in this repository's own numbering:

  T1  For A with spark s, any x* with ||x*||_0 = k < s/2, and any nonzero
      kernel vector h:  ||x*||_p^p < ||x* + h||_p^p  whenever 0 < p < p_star(A).
      Equivalently the lp minimizer over the fiber {x : Ax = Ax*} is x*.

  T2  For a node-power instance with n >= 2m+2 distinct-|.| nodes and any l0
      solution x* with (m+1)/2 <= ||x*||_0 <= m, the same strict inequality
      holds for every nonzero kernel h once p < p_star(A_0), where A_0 is the
      block-diagonal augmentation limit.  The proof route runs through the
      scaled augmentations A_t, whose sparks are certified by the spark
      module, and two scale sequences x_t, y_t built from the h-dependent
      inner products l_i = <B_i, h>.

  T3  The n < 2m+2 case, reduced to T2 by extending the node vector to
      2m+2 entries with fresh pairwise-distinct absolute values.

Everything is verified by enumeration and sampling: l0 and lp both read off
one exhaustive basic-solution search, the inequalities by margins over
sampled kernel vectors, one KernelSamples block from sample_null on.
sample_null draws each kind of direction as one array: one standard normal
block for the "unit" rows and one sign block for the "signed" rows, kinds
alternating by row parity, then redraws any near-zero row with its kind.
All three harnesses evaluate the sampled claim ||x*||_p^p < ||x*+h||_p^p
through one function, verify_strict_inequality, and take their margins,
margin_min and violation records from its report.  Margins and the lp argmin
share one summation policy (numerics module docstring): float row sums whose
error bound brackets the exact sum, with math.fsum only on the rows where the
bracket leaves the decision open, so each margin has the exact sign and the
argmin the exact minimizers.
Harness outcomes are *reports*; the only hard assertions are implementation
contracts (feasibility, rank logic, budgets).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .matgen import (
    DenseMatrix,
    VandermondeSpec,
    _augmented_with_scales,
    b_vectors,
    build_augmented_0,
    build_vandermonde,
    extend_lambda,
)
from .numerics import (
    BLOCK,
    POWER_FLOOR,
    RANK_TOL,
    SCREEN_FACTOR,
    SamplingError,
    _ratio_lower_bound,
    abs_pow,
    check_budget,
    derive_seed,
    iter_subset_chunks,
    lp_margin,
    lp_power_sum,
    numerical_rank,
)
from .spark import SparkCertificate, compute_spark
from .spectral import SpectralSummary, gram_spectrum, spectrum_from_singular_values

# Support ranks follow the package's one rank policy (numerics.RANK_TOL on
# the raw submatrix); residuals are accepted relative to ||b||.
RESIDUAL_TOL = 1e-6

# Coefficients below ZERO_COEFF * max|coeff| mean the support was not minimal:
# the support of the other coefficients is read off and solved on its own.
ZERO_COEFF = 1e-11

DEFAULT_SCALES = (1e-3, 1.0, 1e3)
DEFAULT_T_SCHEDULE = (10.0, 100.0, 1000.0, 10000.0)

# Largest row scale we will materialize in an explicit augmented matrix; the
# Gram squares it, so keep well inside float64 range.
MAX_EXPLICIT_SCALE = 1e100

# Bound on a T2 step's explicit_componentwise_backward_error, the Oettli-Prager
# ratio max_i |A_t hhat|_i / (|A_t| |hhat|)_i (Numer. Math. 6, 1964; Higham,
# Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 7), in units of
# N eps, N = n+m+2.  A correct lift makes A_t hhat vanish in exact arithmetic
# up to the kernel error of h, and each rounding is bounded row by row against
# (|A_t| |hhat|)_i (u = eps/2, first order):
#   * the product: |fl(A_t hhat) - A_t hhat|_i <= N u (|A_t| |hhat|)_i;
#   * the lift, in scaled row r only: hhat_{n+r} = -scale_r <B_(r), h> rounds
#     a length-n dot product and up to four scalings, and A_t stores
#     scale_r * B_(r) rounded, so the row is off by at most
#     (n+5) u scale_r |B_(r)| |h| <= (n+5) u (|A_t| |hhat|)_{m+r};
#   * the kernel sample, in power row i < m only: sample_null's h has
#     ||V h|| <= c u ||V|| ||h|| normwise (V = A(m, n, lam); c covers the SVD's
#     backward error and the basis product, measured below 5), and
#     (|V| |h|)_i >= min|lam|^i ||h||_1 >= min|lam|^i ||h||, so the row reads
#     at most c u ||V|| / min|lam|^i.  With |lam| in DEFAULT_ABS_RANGE that is
#     c u sqrt(n) at m = 1 and 2 c u sqrt(5n) at m = 2.
# The first two stay below (2N+3) u < 1.3 N eps, which leaves 3.7 N eps for
# the third: at m = 1 and 2, the only m whose x_t fits under
# MAX_EXPLICIT_SCALE at p_check = p_star(A_0)/2, that covers c up to 6.7.  At
# larger m the row factor ||V|| / min|lam|^i can grow like 4^m, but measured
# over m 1..8, n = 2m+2 and 2m+4, seeds 0..19, the kernel rows read at most
# 34 eps (at m = 8, where 3.7 N eps > 100 eps).  Correct lifts read at most
# 3.6 eps (0.3 N eps) at m = 1 and 2, n 2m+2..2m+5, seeds 0..19, trials 30.
# A lift with hhat_1's sign flipped leaves 2 x_t |<B_(1), h>| in row m+1
# against x_t (|B_(1)| |h| + |<B_(1), h>|): a ratio of order one at every x_t
# (at least 0.032 over the same steps).
LIFT_RESIDUAL_FACTOR = 5.0

LN10 = math.log(10.0)

# Planted coefficients are +-[lo, hi]; plant_with_level draws at most
# PLANT_RETRIES instances before it gives up on a level.
PLANT_COEFF_RANGE = (0.5, 2.0)
PLANT_RETRIES = 20


class InfeasibleProblemError(ValueError):
    """b is not in the column span of A at the residual tolerance."""


@dataclass(frozen=True)
class SparseProblem:
    """Ax = b with b certified to lie in the column span at construction."""

    matrix: DenseMatrix
    b: np.ndarray

    def __post_init__(self) -> None:
        b = np.asarray(self.b, dtype=float).ravel()
        object.__setattr__(self, "b", b)
        if b.size != self.matrix.rows:
            raise ValueError(f"b has {b.size} entries for a {self.matrix.rows}-row matrix")
        if not np.all(np.isfinite(b)):
            raise ValueError("b must be finite")
        nb = float(np.linalg.norm(b))
        if nb > 0.0:
            x, *_ = np.linalg.lstsq(self.matrix.entries, b, rcond=None)
            res = float(np.linalg.norm(self.matrix.entries @ x - b))
            if res > RESIDUAL_TOL * nb:
                raise InfeasibleProblemError(
                    f"b is outside the column span (relative residual {res / nb:.3e})"
                )

    @property
    def n(self) -> int:
        return self.matrix.cols


@dataclass(frozen=True)
class SparseSolution:
    """One solution on its minimal support (coefficients all nonzero)."""

    support: tuple[int, ...]
    coefficients: tuple[float, ...]


@dataclass(frozen=True)
class SparseSolutionSet:
    """Minimal l0 level plus every solution attaining it."""

    level: int
    solutions: tuple[SparseSolution, ...]

    @property
    def supports(self) -> tuple[tuple[int, ...], ...]:
        return tuple(s.support for s in self.solutions)


@dataclass(frozen=True, eq=False)
class BasicSolutions:
    """The basic solutions of a problem as one block, row i a solution on a
    support of sizes[i] columns: supports[i, :sizes[i]] (ascending) and
    coefficients[i, :sizes[i]], each row padded with zeros to the widest.
    Rows go in ascending size, lexicographic within a size.  Iterating or
    indexing yields SparseSolutions."""

    sizes: np.ndarray  # (count,) intp
    supports: np.ndarray  # (count, width) intp
    coefficients: np.ndarray  # (count, width) float64

    def __len__(self) -> int:
        return len(self.sizes)

    def __getitem__(self, i: int) -> SparseSolution:
        size = int(self.sizes[i])
        return SparseSolution(
            support=tuple(self.supports[i, :size].tolist()),
            coefficients=tuple(self.coefficients[i, :size].tolist()),
        )

    def __iter__(self):
        return (self[i] for i in range(len(self)))


@dataclass(frozen=True)
class LpMinimum:
    """Minimal ||x||_p^p over basic solutions, with every argmin."""

    p: float
    value: float
    minimizers: tuple[SparseSolution, ...]


@dataclass(frozen=True)
class SupportPartition:
    """S0 = supp(x*); S1, S2, ... = blocks of k indices of S0^c in decreasing
    |h| order (ties to the lower index), last block possibly short."""

    s0: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]
    k: int


@dataclass(frozen=True)
class KernelSamples:
    """Sampled kernel vectors as one block: row i has kind kinds[i] and
    length scales[i], each base direction at every DEFAULT_SCALES entry."""

    vectors: np.ndarray  # (count * len(DEFAULT_SCALES), n) float64
    kinds: tuple[str, ...]  # "unit" | "signed" | "minsupport"
    scales: tuple[float, ...]


@dataclass(frozen=True)
class EquivalenceReport:
    """Margin sweep of ||x*+h||_p^p - ||x*||_p^p over a kernel sample set,
    with one margin per sample in sample order."""

    p: float
    margin_min: float
    argmin_match: bool | None
    trials: int
    below_threshold: bool | None
    violations: tuple[dict, ...]
    margins: tuple[float, ...]


@dataclass(frozen=True)
class PlantedInstance:
    """A problem built from a known sparse generator."""

    problem: SparseProblem
    x_star: np.ndarray
    support: tuple[int, ...]
    k: int
    seed: int


@dataclass(frozen=True)
class Theorem1Report:
    """T1 harness outcome for one planted instance.

    x_star is the planted vector; sample_labels gives each kernel sample's
    (kind, scale), in the order of every report's margins.
    """

    m: int
    n: int
    k: int
    spark: int
    p_star: float
    level: int
    recovered: bool
    l0_unique: bool
    reports: tuple[EquivalenceReport, ...]
    counterexamples: tuple[dict, ...]
    all_hold: bool
    trials: int
    seed: int
    grid_below_threshold_empty: bool
    x_star: tuple[float, ...]
    sample_labels: tuple[tuple[str, float], ...]


@dataclass(frozen=True)
class Theorem2Report:
    """T2 harness outcome: augmentation limit plus per-kernel margin records.

    x_star is the planted vector, an l0 solution at level k.
    """

    m: int
    n: int
    k: int
    p_star0: float
    p_check: float
    limit_gaps: tuple[float, ...]
    limit_monotone: bool
    final_gap_ratio: float
    margin_min: float
    violations: tuple[dict, ...]
    degenerate: int
    records: tuple[dict, ...]
    trials: int
    seed: int
    x_star: tuple[float, ...]


@dataclass(frozen=True)
class Theorem3Report:
    """T3 harness outcome: node extension, kernel embedding, margins.

    x_star is the planted vector, an l0 solution at level k.
    """

    m: int
    n: int
    extended_n: int
    k: int
    p_star0: float
    p_check: float
    worst_embed_residual: float
    worst_block_residual: float
    margin_min: float
    violations: tuple[dict, ...]
    trials: int
    seed: int
    x_star: tuple[float, ...]


def _matvecs(M: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Row c is M @ V[c] (or M[c] @ V[c] for a stacked M), each through the
    BLAS gemv of the single product, so it is bit-identical to it (V @ M.T
    is one gemm and sums in another order)."""
    return np.matmul(M, V[:, :, None])[:, :, 0]


def _row_norms(r: np.ndarray) -> np.ndarray:
    """Row c is sqrt(<r[c], r[c]>) through the same BLAS dot as the 1-D
    np.linalg.norm (a row-wise norm(axis=1) sums in another order)."""
    return np.sqrt(np.matmul(r[:, None, :], r[:, :, None])[:, 0, 0])


def _solve_supports(M: np.ndarray, b: np.ndarray, supports: np.ndarray):
    """Least-squares solves of M[:, S] c = b for a (count, k) block of supports.

    One stacked SVD covers the block.  Returns (full, coeff, res): the mask
    of full-column-rank supports and, for those rows only, the (count_full, k)
    coefficients and residual norms ||M[:, S] c - b||.  Each row is
    bit-identical to solving its support on its own: the stacked LAPACK and
    BLAS calls see every matrix in the same layout (_matvecs, _row_norms).
    """
    u, s, vt = np.linalg.svd(np.moveaxis(M[:, supports], 1, 0), full_matrices=False)
    full = numerical_rank(s) == supports.shape[1]
    u, s, vt = u[full], s[full], vt[full]
    # (count_full, m, k) in the column-major per-matrix layout numpy gives the
    # single-support slice M[:, support], so the residual matmul sums alike
    subs = np.moveaxis(M[:, supports[full]], 1, 0)
    y = np.matmul(u.transpose(0, 2, 1), b) / s
    coeff = _matvecs(vt.transpose(0, 2, 1), y)
    return full, coeff, _row_norms(_matvecs(subs, coeff) - b)


def _solve_bases(M: np.ndarray, b: np.ndarray, bases: np.ndarray):
    """_solve_supports for a (count, rows) block of square bases, by one
    stacked LU solve, on the bases the determinant screen clears: beta >
    SCREEN_FACTOR * RANK_TOL proves the SVD rank test would keep them (spark
    module docstring).  Returns (cleared, coeff, res) for the cleared rows.
    LU and SVD solves are backward stable, so their rows differ by at most
    c r eps / beta >= c r eps cond(M[:, S]) relative (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., Thm 9.4 and section 7.1)."""
    sub = np.moveaxis(M[:, bases], 1, 0)  # (count, rows, rows)
    cleared = _ratio_lower_bound(sub) > SCREEN_FACTOR * RANK_TOL
    sub = sub[cleared]
    coeff = np.linalg.solve(sub, b)
    return cleared, coeff, _row_norms(_matvecs(sub, coeff) - b)


def enumerate_basic_solutions(prob: SparseProblem) -> BasicSolutions:
    """Every basic solution, each reported once on its minimal support, in
    ascending support size (lexicographic within a size), as one
    BasicSolutions block.

    A basic solution is the unique representation of b on a full-column-rank
    support.  Each one's support extends to a basis of r = rank(A) columns
    with the same solution (the LP vertex argument), so only the C(n, r)
    bases are scanned.  A basis solution with a numerically zero coefficient
    is not minimal: the support of the others is read off and solved on its
    own under the same tests, size by size downwards.  Dropping those
    coefficients keeps ||x||_p^p honest for very small p, where each would
    otherwise contribute nearly 1.  A support that solves b only to within
    RESIDUAL_TOL, not to roundoff, is read off no basis and not reported.
    A numerically zero b has one basic solution, on the empty support.

    When r is the row count, the bases the determinant screen clears are
    solved by LU (_solve_bases), the rest and every read-off support by SVD
    (_solve_supports): the supports are the SVD's, and a cleared basis's
    coefficients may differ from the SVD's in their last bits.  Supports and
    coefficients stay arrays throughout: a solve's rows are kept or read off
    by mask, grouped by the size read off.  The order needs no sort of the
    solutions: the bases are solved in enumeration order, and each read-off
    size in one lexicographic pass.

    The budget is charged for every size 1..r, still the worst case: the
    C(n, r) bases, plus at most sum C(n, 1..r-1) re-solves, since each is a
    distinct proper subset of a basis.
    """
    M, b = prob.matrix.entries, prob.b
    n = M.shape[1]
    nb = float(np.linalg.norm(b))
    if nb <= POWER_FLOOR:
        return BasicSolutions(np.zeros(1, dtype=np.intp), np.empty((1, 0), dtype=np.intp), np.empty((1, 0)))
    r = numerical_rank(np.linalg.svd(M, compute_uv=False))
    check_budget(sum(math.comb(n, k) for k in range(1, r + 1)), "enumerate_basic_solutions")
    found: list[tuple[np.ndarray, np.ndarray]] = []  # (supports, coefficients) blocks, one size each
    read: dict[int, list[np.ndarray]] = {}  # size -> supports read off, not yet solved

    def take(supports: np.ndarray, coeff: np.ndarray, res: np.ndarray) -> None:
        ok = res <= RESIDUAL_TOL * nb
        if not ok.all():
            supports, coeff = supports.compress(ok, axis=0), coeff.compress(ok, axis=0)
        mag = np.abs(coeff)
        # row maxima and minima column by column: numpy reduces short rows slowly
        cut = ZERO_COEFF * functools.reduce(np.maximum, mag.T)
        keep = functools.reduce(np.minimum, mag.T) > cut
        if keep.any():
            found.append((supports.compress(keep, axis=0), coeff.compress(keep, axis=0)))
        drop = ~keep
        if not drop.any():
            return
        # a numerically zero coefficient: read off the support of the others;
        # a boolean mask reads each row in column order, so it stays ascending
        supports = supports.compress(drop, axis=0)
        nonzero = mag.compress(drop, axis=0) > cut.compress(drop)[:, None]
        sizes = np.count_nonzero(nonzero, axis=1)
        for size in set(sizes.tolist()) - {0}:
            rows = sizes == size
            read.setdefault(size, []).append(supports[rows][nonzero[rows]].reshape(-1, size))

    def solve(supports: np.ndarray) -> None:
        full, coeff, res = _solve_supports(M, b, supports)
        take(supports[full], coeff, res)

    square = r == M.shape[0]
    for subsets in iter_subset_chunks(n, r):
        if not square:
            solve(subsets)
            continue
        # LU on the bases the screen clears, SVD on the rest, back in
        # enumeration order; a basis neither solves keeps res = inf
        cleared, coeff_lu, res_lu = _solve_bases(M, b, subsets)
        coeff, res = np.zeros((len(subsets), r)), np.full(len(subsets), np.inf)
        coeff[cleared], res[cleared] = coeff_lu, res_lu
        rest = np.flatnonzero(~cleared)
        if len(rest):
            full, coeff_svd, res_svd = _solve_supports(M, b, subsets[rest])
            coeff[rest[full]], res[rest[full]] = coeff_svd, res_svd
        take(subsets, coeff, res)
    for size in range(r - 1, 0, -1):
        # a read-off support is a proper subset, so it only adds smaller sizes
        if size not in read:
            continue
        pending = np.concatenate(read.pop(size))
        pending = pending[np.lexsort(pending.T[::-1])]  # lexicographic: the last key is primary
        # the distinct ones, each solved once
        pending = pending[np.concatenate([[True], np.any(pending[1:] != pending[:-1], axis=1)])]
        for start in range(0, len(pending), BLOCK):
            solve(pending[start : start + BLOCK])
    if not found:
        raise InfeasibleProblemError("no basic solution found")
    # each size's blocks came in lexicographic order (the bases chunk by chunk,
    # each read-off size in one sorted pass), the sizes downwards
    found.sort(key=lambda block: block[0].shape[1])
    count = sum(len(block) for block, _ in found)
    sizes = np.empty(count, dtype=np.intp)
    supports = np.zeros((count, r), dtype=np.intp)
    coeffs = np.zeros((count, r))
    row = 0
    for sup, coeff in found:
        end, size = row + len(sup), sup.shape[1]
        sizes[row:end] = size
        supports[row:end, :size] = sup
        coeffs[row:end, :size] = coeff
        row = end
    return BasicSolutions(sizes, supports, coeffs)


def _l0_from_basics(basics: BasicSolutions) -> SparseSolutionSet:
    """The l0 solution set read off the basic solutions: the smallest support
    size among them and every basic solution of that size, the leading rows
    of the block."""
    level = int(basics.sizes[0])
    count = int(np.searchsorted(basics.sizes, level, side="right"))
    # one .tolist() per block: the leading rows all have the level's width
    supports = basics.supports[:count, :level].tolist()
    coefficients = basics.coefficients[:count, :level].tolist()
    return SparseSolutionSet(
        level, tuple(SparseSolution(tuple(s), tuple(c)) for s, c in zip(supports, coefficients))
    )


def solve_l0(prob: SparseProblem) -> SparseSolutionSet:
    """Exact l0 minimization, read off enumerate_basic_solutions as T1 reads
    it.  Exactness rests on a standard fact: a minimal-support solution's
    columns are independent, so it is a basic solution.  The scan is the
    same at every level: the bases of A, then the supports read off them."""
    return _l0_from_basics(enumerate_basic_solutions(prob))


def _p_list(p) -> list:
    """The exponents of a 1-D p grid, as given; one exponent as a one-entry list."""
    return [p] if np.ndim(p) == 0 else list(p)


def solve_lp_basic(
    prob: SparseProblem,
    p,
    basics: BasicSolutions | None = None,
) -> LpMinimum | list[LpMinimum]:
    """Global lp minimum over basic solutions (ties within 1e-10 relative).

    p is one exponent, giving one LpMinimum, or a 1-D grid, giving one
    LpMinimum per p, each bit-identical to the call at that p.  value is the
    least exact sum V_i = fsum(|y_i|^p) over the basic solutions y_i, and the
    minimizers are every y_i with V_i <= tie(value), in block order, where
    tie(v) = v + 1e-10 max(1, |v|).

    One abs_pow call on the padded coefficient block gives every term of the
    whole grid; math.fsum runs only on the rows that may be minimizers.  Row
    i has w = width terms t >= 0 (zero padding adds exactly 0.0), so its
    float sum f_i, in any order, is within gamma_(w-1) v_i of its exact sum
    v_i, gamma_j = j u / (1 - j u), u = 2^-53 (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., section 4.2).  With
    c = w 2^-52 = 2 w u, an exact float, lo_i = fl(f_i (1 - c)) and
    hi_i = fl(f_i (1 + c)) bracket v_i:

      lo_i <= f_i (1 - c)(1 + u) <= f_i (1 - (2w - 1) u) <= f_i / (1 + gamma) <= v_i,
      hi_i >= f_i (1 + c)(1 - u) >= f_i (1 + (2w - 1.25) u) >= f_i / (1 - gamma) >= v_i

    for w u <= 1/8, since every nonzero term is at least about POWER_FLOOR,
    far above the subnormal range, and so are the products.  V_i rounds v_i
    to nearest, so it lies in the same float bracket, and the least V is at
    most H = min hi.  For v >= 0, tie(v) is nondecreasing (each step rounds
    a nondecreasing function), so every minimizer, the argmin included, has
    lo_i <= V_i <= tie(min V) <= tie(H).  The rows with lo_i <= tie(H) are
    the candidates: the minimum, the band and the minimizers read off their
    fsums are those of all rows.  A block with a non-finite float sum makes
    every row a candidate, so fsum decides it and raises as it does.
    """
    if basics is None:
        basics = enumerate_basic_solutions(prob)
    ps = _p_list(p)
    powers = abs_pow(basics.coefficients, ps)  # (len(ps), len(basics), width)
    width = powers.shape[-1]
    c = width * 2.0**-52
    # float row sums, in whatever order the product takes: the bracket holds for any
    sums = powers @ np.ones(width)
    hmin = np.min(sums * (1.0 + c), axis=1)
    candidates = sums * (1.0 - c) <= (hmin + 1e-10 * np.maximum(1.0, hmin))[:, None]
    if not np.all(np.isfinite(sums)):
        candidates[:] = True
    at_p, rows = np.nonzero(candidates)
    values = [math.fsum(terms) for terms in powers[at_p, rows].tolist()]
    # each p's candidates as (row, exact sum) pairs, in row order
    picked: list[list[tuple[int, float]]] = [[] for _ in ps]
    for i, row, v in zip(at_p.tolist(), rows.tolist(), values):
        picked[i].append((row, v))
    out = []
    for p_i, pairs in zip(ps, picked):
        vmin = min(v for _, v in pairs)
        tie = vmin + 1e-10 * max(1.0, abs(vmin))
        winners = tuple(basics[row] for row, v in pairs if v <= tie)
        out.append(LpMinimum(p=p_i, value=vmin, minimizers=winners))
    return out[0] if np.ndim(p) == 0 else out


def null_space_basis(A: DenseMatrix) -> np.ndarray:
    """Orthonormal kernel basis as columns, shape (n, n - rank).

    One full SVD gives both the rank, under the package's rank policy
    (numerics.numerical_rank), and the basis: the right singular vectors
    past the rank.
    """
    _, s, vt = np.linalg.svd(A.entries, full_matrices=True)
    return vt[numerical_rank(s):].T.copy()


_SIGNS = np.array([-1.0, 1.0])


def _draw_coefficients(rng: np.random.Generator, unit: np.ndarray, dim: int) -> np.ndarray:
    """Kernel-basis coefficients, one row per entry of the bool mask unit:
    standard normal rows where it is set, +-1 rows elsewhere.  Two draws
    whatever the row count: one normal block, then one sign block
    (_SIGNS[rng.integers(0, 2, size)] draws what rng.choice([-1.0, 1.0],
    size) draws, from the same stream)."""
    g = np.empty((len(unit), dim))
    g[unit] = rng.standard_normal((int(unit.sum()), dim))
    g[~unit] = _SIGNS[rng.integers(0, 2, size=(len(unit) - int(unit.sum()), dim))]
    return g


def _minsupport_direction(A: DenseMatrix, witness: tuple[int, ...]) -> np.ndarray:
    """The unit kernel vector on the spark witness, which draws nothing:
    sample_null's base row 0, and the chain audit's h at DEFAULT_SCALES[0]."""
    _, _, vt = np.linalg.svd(A.entries[:, list(witness)])
    head = np.zeros(A.cols)
    head[list(witness)] = vt[-1]
    return head / np.linalg.norm(head)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class MatrixFacts:
    """The facts about one matrix A that its checks share: the spark
    certificate, the Gram summary, the kernel basis and the unit kernel
    vector on the spark witness (sample_null's minsupport row and the chain
    audit's direction).

    Each fact is computed at most once, on first use, so a bundle costs only
    what its readers read, and a scan over the subset cap raises where its
    fact is first needed, as the direct call would.  The arrays are
    read-only: every reader sees them as computed.  A bundle carries its
    matrix; a harness handed one checks that it describes its own A.
    """

    matrix: DenseMatrix

    @functools.cached_property
    def spark(self) -> SparkCertificate:
        return compute_spark(self.matrix)

    @functools.cached_property
    def gram(self) -> SpectralSummary:
        return gram_spectrum(self.matrix)

    @functools.cached_property
    def kernel(self) -> np.ndarray:
        return _read_only(null_space_basis(self.matrix))

    @functools.cached_property
    def direction(self) -> np.ndarray:
        return _read_only(_minsupport_direction(self.matrix, self.spark.witness))


def _facts_for(A: DenseMatrix, facts: MatrixFacts | None) -> MatrixFacts:
    """A harness's bundle: A's own when facts is None, else facts, which
    must describe A (ValueError otherwise)."""
    if facts is None:
        return MatrixFacts(A)
    if facts.matrix is not A and not np.array_equal(facts.matrix.entries, A.entries):
        raise ValueError("the facts bundle describes another matrix")
    return facts


def sample_null(facts: MatrixFacts, count: int, seed: int) -> KernelSamples:
    """Deterministic mixture of kernel vectors of facts.matrix, `count` base
    directions each emitted at every DEFAULT_SCALES entry, drawn from the
    bundle's kernel basis and minsupport direction.

    Kinds: "unit" (random unit directions in the kernel), "signed"
    (+-1 combinations of the basis), and one "minsupport" vector supported on
    the spark witness set (||h||_0 = spark(A)) -- the adversarial end of the
    kernel: smallest support, largest chance of touching few coordinates.
    The minsupport row is base row 0.

    Base row i >= 1 is "unit" when i is even and "signed" when i is odd.
    The generator draws one standard normal block for all unit rows, then
    one sign block for all signed rows; each row's vector is basis @ g,
    normalized by its 1-D norm, bit for bit.  A row whose norm is at most
    1e-12 is redrawn with the same kind after the two blocks, until none is
    left.
    """
    basis = facts.kernel
    dim = basis.shape[1]
    if dim == 0:
        raise ValueError("trivial kernel: nothing to sample")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)

    unit = np.arange(1, count) % 2 == 0
    H = _matvecs(basis, _draw_coefficients(rng, unit, dim))
    norms = _row_norms(H)
    # a near-zero draw cannot be normalized: redraw those rows, same kind
    bad = np.flatnonzero(norms <= 1e-12)
    while bad.size:
        H[bad] = _matvecs(basis, _draw_coefficients(rng, unit[bad], dim))
        norms[bad] = _row_norms(H[bad])
        bad = bad[norms[bad] <= 1e-12]
    base = np.vstack([facts.direction, H / norms[:, None]])

    # one (count, scales, n) product, whose rows are the samples in order
    scaled = base[:, None, :] * np.asarray(DEFAULT_SCALES)[None, :, None]
    # the same alternation, each row's kind repeated once per scale
    per_row = len(DEFAULT_SCALES)
    pair = ("unit",) * per_row + ("signed",) * per_row
    return KernelSamples(
        vectors=scaled.reshape(-1, basis.shape[0]),
        kinds=("minsupport",) * per_row + (pair * ((count + 1) // 2))[per_row : count * per_row],
        scales=DEFAULT_SCALES * count,
    )


def _trial_samples(facts: MatrixFacts, trials: int, seed: int) -> KernelSamples:
    """A harness's kernel samples: ceil(trials / len(DEFAULT_SCALES)) base
    directions (at least one), each at every default scale."""
    count = max(1, math.ceil(trials / len(DEFAULT_SCALES)))
    return sample_null(facts, count=count, seed=seed)


def support_partition(x_star, h) -> SupportPartition:
    """Partition indices into supp(x*) and k-blocks of its complement, with
    k = |supp(x*)|, ordered by decreasing |h| (ties broken toward the lower
    index)."""
    x = np.asarray(x_star, dtype=float)
    hv = np.asarray(h, dtype=float)
    if x.shape != hv.shape:
        raise ValueError("x_star and h must share a shape")
    s0 = np.flatnonzero(x != 0.0)
    k = int(s0.size)
    if k < 1:
        raise ValueError("x_star must have at least one nonzero entry")
    rest = np.setdiff1d(np.arange(x.size), s0)
    # stable sort on (-|h|, index): lexsort's last key is primary
    order = rest[np.lexsort((rest, -np.abs(hv[rest])))]
    blocks = tuple(
        tuple(int(v) for v in order[i : i + k]) for i in range(0, order.size, k)
    )
    return SupportPartition(s0=tuple(int(v) for v in s0), blocks=blocks, k=k)


def verify_strict_inequality(
    x_star,
    samples: KernelSamples,
    p,
    p_star: float | None = None,
) -> EquivalenceReport | list[EquivalenceReport]:
    """Margins ||x*+h||_p^p - ||x*||_p^p over a kernel sample block: the one
    evaluator of the sampled claim, for T1, T2 and T3 alike.

    A violation is margin <= 0 (ties count as violations: the claim under
    test is strict); its record carries the sample's row index, kind and
    scale, p, the margin and h, enough to replay it.  argmin_match is left
    unset; the T1 harness fills it.  p is one exponent, giving one report,
    or a 1-D grid, giving one report per p, each bit-identical to the call at
    that p; all margins come from one lp_margin call on the block.
    """
    H = samples.vectors
    if not len(H):
        raise ValueError("empty kernel sample set")
    ps = _p_list(p)
    margins = lp_margin(x_star, H, ps)  # (len(ps), len(H))
    reports = []
    # Python floats in the reports: numpy 2 prints np.float64 otherwise
    for p_i, row, low, bad in zip(ps, margins.tolist(), margins.min(axis=1).tolist(), margins <= 0.0):
        violations = tuple(
            {"index": idx, "kind": samples.kinds[idx], "scale": samples.scales[idx], "p": p_i,
             "margin": row[idx], "h": H[idx].tolist()}
            for idx in np.flatnonzero(bad).tolist()
        )
        reports.append(
            EquivalenceReport(
                p=p_i,
                margin_min=low,
                argmin_match=None,
                trials=len(H),
                below_threshold=None if p_star is None else p_i < p_star,
                violations=violations,
                margins=tuple(row),
            )
        )
    return reports[0] if np.ndim(p) == 0 else reports


def plant_sparse_instance(A: DenseMatrix, k: int, seed: int) -> PlantedInstance:
    """b = A x* for a random k-sparse x* with coefficients +-PLANT_COEFF_RANGE."""
    n = A.cols
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    rng = np.random.default_rng(seed)
    support = np.sort(rng.choice(n, size=k, replace=False))
    coeff = rng.uniform(*PLANT_COEFF_RANGE, size=k) * rng.choice([-1.0, 1.0], size=k)
    x = np.zeros(n)
    x[support] = coeff
    prob = SparseProblem(matrix=A, b=A.entries @ x)
    return PlantedInstance(
        problem=prob, x_star=x, support=tuple(int(v) for v in support), k=k, seed=seed
    )


def _plant_attempt(A: DenseMatrix, k: int, seed: int, attempt: int) -> PlantedInstance:
    """plant_with_level's plant number attempt.  Below spark/2, attempt 0 needs
    no l0 solve: x* is the unique sparsest solution (Donoho and Elad, 2003)."""
    return plant_sparse_instance(A, k, derive_seed(seed, f"plant-{attempt}"))


def plant_with_level(
    A: DenseMatrix, k: int, seed: int
) -> tuple[PlantedInstance, SparseSolutionSet]:
    """Plant until the instance's true l0 level equals k (the planted x* is
    then *an* l0 solution, which is all the T2/T3 hypotheses need)."""
    for i in range(PLANT_RETRIES):
        inst = _plant_attempt(A, k, seed, i)
        sol = solve_l0(inst.problem)
        if sol.level == k:
            return inst, sol
    raise SamplingError(f"no planted instance reached l0 level {k} in {PLANT_RETRIES} tries")


def default_p_grid(p_star: float) -> tuple[float, ...]:
    """{p*/8, p*/4, p*/2, 0.9 p*, p*, 1.1 p*, 0.5, 1} clamped to (0, 1]."""
    raw = [p_star / 8, p_star / 4, p_star / 2, 0.9 * p_star, p_star, 1.1 * p_star, 0.5, 1.0]
    return tuple(sorted({p for p in raw if 0.0 < p <= 1.0}))


def _require_t1_level(k: int, spark: int) -> None:
    """T1's hypothesis on the level, 1 <= k < spark/2; ValueError otherwise."""
    if not 1 <= k or 2 * k >= spark:
        raise ValueError(f"need 1 <= k < spark/2 = {spark / 2}, got k={k}")


def verify_theorem1(
    A: DenseMatrix,
    k: int,
    trials: int = 210,
    p_grid: tuple[float, ...] | None = None,
    seed: int = 0,
    *,
    facts: MatrixFacts | None = None,
) -> Theorem1Report:
    """T1 harness: plant a k-sparse instance (k < spark/2), enumerate its
    basic solutions once (the l0 solutions are the smallest of them), then
    evaluate margins and the basic-solution lp argmin at every grid p, with
    one call each for the whole grid.

    Grid points below p_star are the claim under test; points at or above it
    are recorded without judgement.  Counterexamples carry enough data to
    replay: the violating h, p, and margin.  facts is A's MatrixFacts when
    the caller holds them (the suite, across its levels); without it the
    harness computes its own.
    """
    facts = _facts_for(A, facts)
    cert = facts.spark
    _require_t1_level(k, cert.spark)
    inst = plant_sparse_instance(A, k, derive_seed(seed, "plant"))
    summary = facts.gram
    grid = default_p_grid(summary.p_star) if p_grid is None else tuple(sorted(set(p_grid)))
    below_empty = not any(p < summary.p_star for p in grid)

    samples = _trial_samples(facts, trials, derive_seed(seed, "null"))
    basics = enumerate_basic_solutions(inst.problem)
    sol = _l0_from_basics(basics)
    l0_supports = set(sol.supports)

    reports: list[EquivalenceReport] = []
    counterexamples: list[dict] = []
    sweeps = verify_strict_inequality(inst.x_star, samples, grid, p_star=summary.p_star)
    lp_mins = solve_lp_basic(inst.problem, grid, basics=basics)
    for p, rep, lp_min in zip(grid, sweeps, lp_mins):
        argmin_supports = {s.support for s in lp_min.minimizers}
        rep = replace(rep, argmin_match=argmin_supports <= l0_supports)
        reports.append(rep)
        if rep.below_threshold:
            counterexamples.extend(rep.violations)
            if not rep.argmin_match:
                counterexamples.append(
                    {
                        "p": p,
                        "argmin_supports": sorted(argmin_supports),
                        "l0_supports": sorted(l0_supports),
                        "reason": "lp argmin support escaped the l0 solution set",
                    }
                )
    all_hold = not below_empty and all(
        (not r.below_threshold) or (not r.violations and r.argmin_match) for r in reports
    )
    return Theorem1Report(
        m=A.rows,
        n=A.cols,
        k=k,
        spark=cert.spark,
        p_star=summary.p_star,
        level=sol.level,
        recovered=inst.support in l0_supports,
        l0_unique=len(sol.solutions) == 1,
        reports=tuple(reports),
        counterexamples=tuple(counterexamples),
        all_hold=all_hold,
        trials=len(samples.vectors),
        seed=seed,
        grid_below_threshold_empty=below_empty,
        x_star=tuple(inst.x_star.tolist()),
        sample_labels=tuple(zip(samples.kinds, samples.scales)),
    )


def theorem2_sequences(
    m: int, l1_abs: float, l2_abs: float, p_check: float, t: float
) -> tuple[float, float, float]:
    """The T2 scale pair at step t, and log x_t:

        x_t = (m+1)**(1/p_check) / (l1_abs * t),    y_t = 1 / (l2_abs * t).

    l1_abs >= l2_abs > 0 are the two largest |<B_i, h>| after sorting; a zero
    l2_abs means h is orthogonal to all but at most one continuation row and
    the construction is degenerate (raise; the harness records such h
    separately).  x_t may overflow to inf for very small p_check -- callers
    needing the explicit matrix must check, the power-domain bookkeeping
    never does.  log x_t stays finite either way.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not 0.0 < p_check <= 1.0:
        raise ValueError(f"p_check must lie in (0, 1], got {p_check}")
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t}")
    if not l1_abs >= l2_abs > 0.0:
        raise ValueError(
            f"need l1_abs >= l2_abs > 0 (sorted, nondegenerate), got {l1_abs}, {l2_abs}"
        )
    log_x = math.log(m + 1) / p_check - math.log(l1_abs) - math.log(t)
    x_t = math.exp(log_x) if log_x < 709.0 else math.inf
    y_t = 1.0 / (l2_abs * t)
    return x_t, y_t, log_x


def _strictly_decreasing(vals) -> bool:
    return all(a > b for a, b in zip(vals, vals[1:]))


def _deep_regime_hypothesis(
    spec: VandermondeSpec,
    k: int,
    A0: DenseMatrix,
    p_check: float | None,
    trials: int,
    seed: int,
    null_label: str,
    facts: MatrixFacts | None,
):
    """The preamble T2 and T3 share: check k and p_check, plant x* at l0
    level k, and draw the kernel samples of A = A(m, n, lam).

    A0 is the block augmentation whose threshold bounds p_check (of lam for
    T2, of the extended nodes for T3); p_check defaults to p_star(A0) / 2.
    x* comes from plant_with_level at derive_seed(seed, "plant"), whose l0
    solve certifies the hypothesis (it raises SamplingError when no plant
    reaches level k).  The samples come from A's MatrixFacts, facts when
    given: their minsupport row lies on A's spark witness, as in T1.  The
    plant runs before the certificate, so a cap below both names the plant's
    scan.  Returns (x*, p_star(A0), p_check, samples).
    """
    spec.require_distinct_abs()
    m = spec.m
    if not (m + 1) / 2 <= k <= m:
        raise ValueError(f"need (m+1)/2 <= k <= m = {m}, got k={k}")
    p_star0 = gram_spectrum(A0).p_star
    p = p_star0 / 2 if p_check is None else float(p_check)
    if not 0.0 < p < p_star0:
        raise ValueError(f"p_check must lie in (0, p_star(A_0)) = (0, {p_star0}), got {p}")
    A = build_vandermonde(spec)
    facts = _facts_for(A, facts)
    inst, _ = plant_with_level(A, k, derive_seed(seed, "plant"))
    samples = _trial_samples(facts, trials, derive_seed(seed, null_label))
    return inst.x_star, p_star0, p, samples


def _limit_gaps(spec: VandermondeSpec, p_star0: float, t_schedule) -> list[float]:
    """|p_star(A_t) - p_star0| at x_t = y_t = 1/t, one per step t, from one
    block of the A_t and one stacked SVD.  Each gap is bit-identical to
    gram_spectrum(build_augmented_t(...)) of its step alone: the stacked
    LAPACK call sees every matrix in a DenseMatrix's layout."""
    inv_t = 1.0 / np.asarray(t_schedule, dtype=float)
    scales = np.repeat(inv_t[:, None], spec.m + 2, axis=1)
    orders = np.broadcast_to(np.arange(spec.m + 2), scales.shape)
    s = np.linalg.svd(_augmented_with_scales(spec, scales, orders), compute_uv=False)
    return [abs(spectrum_from_singular_values(row).p_star - p_star0) for row in s]


def _explicit_steps(
    spec: VandermondeSpec, p: float, scales, orders, hhat, steps: list[dict]
) -> None:
    """Fill the explicit-matrix keys of a block of T2 steps at p_check = p:
    two stacked products give every residual A_t hhat and its componentwise
    scale |A_t| |hhat|, and one stacked SVD every singular value set.  scales
    and orders are (count, m+2), hhat is (count, n+m+2), one row per step.

    Each step's numbers are bit-identical to building its A_t alone: the
    stacked LAPACK and BLAS calls see every matrix in a DenseMatrix's layout
    (_matvecs, _row_norms).  Every entry of |A_t| |hhat| is positive, since
    h is nonzero and every node and scale is, so the ratio is finite.
    """
    m, n = spec.m, spec.n
    mats = _augmented_with_scales(spec, scales, orders)
    r = _matvecs(mats, hhat)
    resid = _row_norms(r)
    s = np.linalg.svd(mats, compute_uv=False)
    # |A_t| overwrites A_t, which nothing needs past the SVD
    backward = np.max(np.abs(r) / _matvecs(np.abs(mats, out=mats), np.abs(hhat)), axis=1)
    bound = LIFT_RESIDUAL_FACTOR * (n + m + 2) * np.finfo(float).eps
    ranks = numerical_rank(s).tolist()
    for step, res, err, rank, sv in zip(steps, resid.tolist(), backward.tolist(), ranks, s):
        step["explicit_residual"] = res
        step["explicit_componentwise_backward_error"] = err
        step["explicit_componentwise_backward_error_ok"] = err <= bound
        # A_t has full row rank 2m+2 at any positive scales (distinct nodes in
        # the power rows, the identity block beside the scaled ones); a lower
        # policy rank means the scaled rows pushed its O(1) singular values
        # below RANK_TOL times the largest, and p_star would describe a
        # truncated matrix
        if rank == 2 * m + 2:
            step["p_star_t"] = spectrum_from_singular_values(sv).p_star
            step["chain_applicable"] = p < step["p_star_t"]
        else:
            step["p_star_t_skipped"] = (
                f"rank policy kept {rank} of the {2 * m + 2} singular"
                " values of the explicit matrix"
            )


def verify_theorem2(
    spec: VandermondeSpec,
    k: int,
    p_check: float | None = None,
    t_schedule: tuple[float, ...] = DEFAULT_T_SCHEDULE,
    trials: int = 21,
    seed: int = 0,
    *,
    facts: MatrixFacts | None = None,
) -> Theorem2Report:
    """T2 harness for n >= 2m+2: plant an l0 solution x* at level k,
    (m+1)/2 <= k <= m, and check it.

    The claim itself, ||x*||_p^p < ||x*+h||_p^p for every kernel sample h,
    is checked by verify_strict_inequality.  Per nondegenerate h and step t
    the harness also takes the augmentation whose scaled rows follow the
    sorted |l_i| order, forms the lifted kernel vector hhat(t) from the
    identity rows, and checks, in the p-power domain:

      * head dominance     (m+1)/t^p >= sum_{i>=2} |hhat_i|^p
      * tail bound         |hhat_i| <= 1/t for i >= 3
      * the lifted chain   ||xcheck(t)||_p^p < ||xcheck(t)+hhat(t)||_p^p

    |hhat_1|^p = |xcheck_{n+1}|^p = (m+1)/t^p in closed form, so nothing here
    overflows even when x_t itself does.  Whenever the scales are
    representable (up to MAX_EXPLICIT_SCALE) the step is also checked on the
    explicit matrix A_t: its residual ||A_t hhat||, and the componentwise
    backward error max_i |A_t hhat|_i / (|A_t| |hhat|)_i against the rounding
    bound LIFT_RESIDUAL_FACTOR; p_star(A_t) is recorded when the rank policy
    also keeps all 2m+2 singular values of A_t.  These explicit steps are
    collected over all samples and evaluated numerics.BLOCK at a time, each
    block with two stacked products and one stacked SVD.  The instance-level
    limit |p_star(A_t) -> p_star(A_0)| uses x_t = y_t = 1/t, every step's
    A_t in one stacked SVD (_limit_gaps).  facts is the MatrixFacts of
    A(m, n, lam) when the caller holds them, as for verify_theorem1.
    """
    m, n = spec.m, spec.n
    if n < 2 * m + 2:
        raise ValueError(f"T2 needs n >= 2m+2 = {2 * m + 2}, got n={n}")
    if not t_schedule:
        raise ValueError("t_schedule needs at least one step")
    if not all(0.0 < t < math.inf for t in t_schedule):
        raise ValueError(f"t_schedule steps must be finite and > 0, got {tuple(t_schedule)}")
    x, p_star0, p, samples = _deep_regime_hypothesis(
        spec, k, build_augmented_0(spec), p_check, trials, seed, "thm2-null", facts
    )
    claim = verify_strict_inequality(x, samples, p)

    gaps = _limit_gaps(spec, p_star0, t_schedule)
    limit_monotone = _strictly_decreasing(gaps)
    final_gap_ratio = gaps[-1] / p_star0

    base_power = lp_power_sum(x, p)
    H = samples.vectors
    shifted_powers = lp_power_sum(x + H, p).tolist()
    # l_i = <B_i, h>, sorted by decreasing |l_i| (ties to the lower i)
    L = _matvecs(b_vectors(spec), H)
    orders = np.lexsort((np.broadcast_to(np.arange(m + 2), L.shape), -np.abs(L)), axis=-1)
    L = np.take_along_axis(L, orders, axis=-1)
    kept = np.abs(L[:, 1]) > POWER_FLOOR
    # hhat_2 .. hhat_{m+2} as a (kept samples, t, m+1) block, and every row's
    # power sum from one call, each bit-identical to the call on that row
    t_arr = np.asarray(t_schedule, dtype=float)
    tails = -(L[kept, 1:] / np.abs(L[kept, 1:2]))[:, None, :] / t_arr[None, :, None]
    tail_bounds = np.all(
        np.abs(tails[:, :, 1:]) <= ((1.0 / t_arr) * (1.0 + 1e-12))[None, :, None], axis=-1
    )
    tail_rows = iter(zip(lp_power_sum(tails, p).tolist(), tail_bounds.tolist()))
    head_powers = [(m + 1) / t**p for t in t_schedule]

    records: list[dict] = []
    # every step of the kept samples, sample-major, and its x_t, y_t
    flat_steps: list[dict] = []
    flat_scales: list[float] = []
    for idx, (kind, scale) in enumerate(zip(samples.kinds, samples.scales)):
        if not kept[idx]:
            records.append({"index": idx, "kind": kind, "scale": scale, "degenerate": True})
            continue
        l1_abs, l2_abs = abs(float(L[idx, 0])), abs(float(L[idx, 1]))
        shifted_power = shifted_powers[idx]
        steps = []
        sample_tail_powers, sample_tail_bounds = next(tail_rows)
        for t, head_power, tail_power, tail_bound_ok in zip(
            t_schedule, head_powers, sample_tail_powers, sample_tail_bounds
        ):
            x_t, y_t, log_x = theorem2_sequences(m, l1_abs, l2_abs, p, t)
            steps.append(
                {
                    "t": t,
                    "log10_x_t": log_x / LN10,
                    "dominance_ok": head_power >= tail_power * (1.0 - 1e-12),
                    "tail_bound_ok": tail_bound_ok,
                    "chain_margin": (shifted_power + tail_power) - (base_power + head_power),
                    "lifted_l0": k + 1,
                }
            )
            flat_scales += (x_t, y_t)
        flat_steps += steps
        records.append(
            {
                "index": idx,
                "kind": kind,
                "scale": scale,
                "l1_abs": l1_abs,
                "l2_abs": l2_abs,
                "final_margin": claim.margins[idx],
                "steps": steps,
            }
        )

    xy = np.array(flat_scales).reshape(-1, 2)
    # the per-sample Python lists are spent; at large trials they would
    # otherwise sit beside the records through every explicit block
    del tail_rows, flat_scales
    explicit = np.all(xy <= MAX_EXPLICIT_SCALE, axis=1)
    for i in np.flatnonzero(~explicit).tolist():
        flat_steps[i]["explicit_skipped"] = (
            f"row scale above MAX_EXPLICIT_SCALE = {MAX_EXPLICIT_SCALE:g}"
        )
    # the explicit steps, BLOCK at a time: step i is step t_i of kept sample j
    rows = np.flatnonzero(explicit)
    kept_idx = np.flatnonzero(kept)
    for first in range(0, len(rows), BLOCK):
        block = rows[first : first + BLOCK]
        j, t_i = np.divmod(block, len(t_schedule))
        idx = kept_idx[j]
        x_t = xy[block, 0]
        scales = np.empty((len(block), m + 2))
        scales[:, 0] = x_t
        scales[:, 1:] = xy[block, 1:]
        # hhat = (h, -x_t l_(1), hhat_2 .. hhat_{m+2})
        hhat = np.concatenate([H[idx], (-x_t * L[idx, 0])[:, None], tails[j, t_i]], axis=1)
        steps = [flat_steps[i] for i in block.tolist()]
        _explicit_steps(spec, p, scales, orders[idx], hhat, steps)

    return Theorem2Report(
        m=m,
        n=n,
        k=k,
        p_star0=p_star0,
        p_check=p,
        limit_gaps=tuple(gaps),
        limit_monotone=limit_monotone,
        final_gap_ratio=final_gap_ratio,
        margin_min=claim.margin_min,
        violations=claim.violations,
        degenerate=int(np.sum(~kept)),
        records=tuple(records),
        trials=len(H),
        seed=seed,
        x_star=tuple(x.tolist()),
    )


def verify_theorem3(
    spec: VandermondeSpec,
    k: int,
    p_check: float | None = None,
    trials: int = 21,
    seed: int = 0,
    *,
    facts: MatrixFacts | None = None,
) -> Theorem3Report:
    """T3 harness for m < n < 2m+2: plant an l0 solution x* at level k,
    (m+1)/2 <= k <= m, extend the nodes to 2m+2, embed kernel vectors by
    zero padding, and check the claim, through verify_strict_inequality,
    below p_star of the extended block augmentation.

    Embedding facts verified on samples, each residual from one stacked
    product: padded kernel vectors of A(m,n,lam) lie in the kernel of
    A(m,2m+2,lam*) (worst ||A h~|| / ||h~||), and padded kernel vectors of
    the extended Vandermonde lie in the kernel of its block augmentation A_0
    (worst ||A_0 g|| over the extended kernel basis).  Zero padding must
    leave every margin unchanged.  facts is the MatrixFacts of A(m, n, lam)
    when the caller holds them, as for verify_theorem1.
    """
    m, n = spec.m, spec.n
    if not m < n < 2 * m + 2:
        raise ValueError(f"T3 needs m < n < 2m+2, got m={m}, n={n}")
    ext = extend_lambda(spec, derive_seed(seed, "thm3-extend"))
    A0_ext = build_augmented_0(ext)
    x, p_star0, p, samples = _deep_regime_hypothesis(
        spec, k, A0_ext, p_check, trials, seed, "thm3-null", facts
    )
    claim = verify_strict_inequality(x, samples, p)

    pad_n = ext.n - n
    H_tilde = np.pad(samples.vectors, ((0, 0), (0, pad_n)))
    # padding with zeros changes neither side of the inequality
    margins_emb = lp_margin(np.pad(x, (0, pad_n)), H_tilde, p)
    if not all(
        math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12) for a, b in zip(claim.margins, margins_emb)
    ):
        raise AssertionError("zero padding changed an lp margin")
    A_ext = build_vandermonde(ext)
    embed = _row_norms(_matvecs(A_ext.entries, H_tilde)) / _row_norms(H_tilde)

    # N(A(m, 2m+2, lam*)) zero-padded into N(A_0(lam*)): identity rows see zeros.
    padded_basis = np.pad(null_space_basis(A_ext).T, ((0, 0), (0, m + 2)))
    block = _row_norms(_matvecs(A0_ext.entries, padded_basis))
    return Theorem3Report(
        m=m,
        n=n,
        extended_n=ext.n,
        k=k,
        p_star0=p_star0,
        p_check=p,
        worst_embed_residual=max([0.0, *embed.tolist()]),
        worst_block_residual=max([0.0, *block.tolist()]),
        margin_min=claim.margin_min,
        violations=claim.violations,
        trials=len(samples.vectors),
        seed=seed,
        x_star=tuple(x.tolist()),
    )
