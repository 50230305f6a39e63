"""Shared numeric primitives: the rank policy and its two square screens,
sign-certified summation, tiny-exponent powers, the subset cap.

Every exhaustive subset scan charges its worst-case subset count to one cap
before it starts (check_budget).  The cap is read from the LP_EQUIV_BUDGET
environment variable on each charge, DEFAULT_SUBSET_BUDGET when unset; no
function argument, config key or command-line flag sets it.

Margins and power sums are float row sums whose sign is proven: a row keeps
its left-to-right float sum where a summation error bound puts it farther
from zero than the sum's error can reach, so it has the exact sum's sign,
and goes to math.fsum everywhere else (_row_sum), so every zero, inf, NaN
and fsum error is fsum's.  The lp argmin in solvers brackets its power sums
by the same bound."""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import os
import threading
from typing import Iterator, NamedTuple

import numpy as np

# Magnitudes at or below this count as exact zeros inside |x|^p evaluations.
# exp(p*log|x|) would otherwise manufacture O(1) contributions out of
# denormal roundoff dust once p is small.
POWER_FLOOR = 1e-300

# The package's one rank policy: a singular value counts as nonzero when it
# exceeds RANK_TOL times the largest singular value of the same matrix.  Every
# rank and spectrum decision reads np.linalg.svd under numerical_rank at this
# tolerance: spark, a problem's rank and feasibility (SparseProblem), the
# basis scan and its support solves, the Gram spectrum, the restricted Gram
# extremes (squared singular values, never an eigensolve of A_S^T A_S) and
# the null space.  The one exception is spark.DET_TOL, the absolute
# determinant cutoff of check_submatrix_invertibility, kept until a
# minors-based Proposition 1 check replaces that function as a whole.
# Calibration: dependent column subsets land at 0..1e-15 relative;
# independent square submatrices of sampled node matrices stay above it up
# to MAX_M (see the node sampling constants in matgen and
# tests/test_calibration.py).
RANK_TOL = 1e-11

# Margin between a screen's bound and the rank tolerance: a square block whose
# determinant-screen bound (_ratio_lower_bound on an LU determinant, or
# _det_ratio_bound on a shared-prefix minor from _prefix_minors) or
# inverse-norm bound (_inverse_ratio_lower_bound, with LU's inverse or one
# built from prefix QRs by _prefix_inverses) exceeds SCREEN_FACTOR *
# tol_rel is full rank at tol_rel without an SVD.  The factor covers the LU
# determinant's relative error, about k^2 eps / beta, and the prefix minor's
# absolute one, at most 6e-13 in beta at k = 18; the arguments, rounding
# included, are in the spark module docstring.  compute_spark runs both
# screens, the second only on what the first leaves open;
# enumerate_basic_solutions runs the LU determinant screen alone.
SCREEN_FACTOR = 1e3

# The package's one block size: subset scans, randomized audit trials and the
# explicit T2 augmentations are evaluated at most BLOCK at a time, so their
# working memory scales with the block and the matrix size, not with the
# enumeration or trial count.
BLOCK = 4096

DEFAULT_SUBSET_BUDGET = 1_000_000
BUDGET_ENV_VAR = "LP_EQUIV_BUDGET"


class BudgetExceededError(RuntimeError):
    """A subset enumeration would exceed the configured cap."""


class SamplingError(RuntimeError):
    """Rejection sampling could not satisfy a separation constraint."""


def subset_budget() -> int:
    """The enumeration cap: LP_EQUIV_BUDGET when set and nonempty, else
    DEFAULT_SUBSET_BUDGET.  The variable is the cap's only setting; a value
    that is not an integer >= 1 raises ValueError naming it."""
    env = os.environ.get(BUDGET_ENV_VAR)
    if not env:
        return DEFAULT_SUBSET_BUDGET
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"{BUDGET_ENV_VAR} must be an integer >= 1, got {env!r}")
    return cap


def check_budget(total: int, what: str) -> None:
    cap = subset_budget()
    if total > cap:
        raise BudgetExceededError(
            f"{what} would enumerate {total} column subsets but the cap is {cap}; "
            f"shrink the instance or raise {BUDGET_ENV_VAR}."
        )


# An enumeration that fits in one chunk is served from a read-only table
# cached by (n, k): every certificate of a campaign asks for the same few
# tables.  The square probe's prefix plans (_prefix_plan) share the cache,
# keyed by (n, k, tail), and a plan holds no more entries than its table.
# Only enumerations of at most SUBSET_TABLE_CELLS table entries are cached,
# and at most SUBSET_TABLE_CACHE tables and plans in all, so the cache holds
# at most 32 * 2**15 * 8 bytes = 8 MiB of 64-bit indices.  In practice it
# holds far less: criterion 07's level-8 probe of a 14-column A_t reads the
# largest table, C(14, 8) x 8 = 24,024 entries (188 KiB), and its plan,
# 12,852 entries, and a pass over each benchmark workload asks for 9 to 26
# distinct tables and plans, 14 to 473 KB in all.
SUBSET_TABLE_CELLS = 2**15
SUBSET_TABLE_CACHE = 32

# The shared-prefix path (_prefix_minors, _prefix_inverse_bounds and the
# functions they call) writes its chunk-sized temporaries into one workspace
# per thread (_workspace): named float64 buffers that persist across probes.
# Freed after every chunk, these temporaries (a (4, 4, 3003) block alone is
# 384 KB) went back to the system through glibc's mmap and heap trimming and
# were faulted in again by the next probe, about 290 minor page faults per
# (3, 9) A_t certificate.  A buffer grows to exactly the size asked for and
# never shrinks, so the workspace keeps the largest of each role the thread
# has needed.  One name serves one role, or several whose lifetimes do not
# overlap, and nothing the path yields or returns is a workspace buffer
# unless its caller passed it as out=.  For a chunk of s subsets of a k-row
# matrix, t = min(k, 4) and p = k - t, the buffers hold at most s times:
# k^2 floats each for the gathered blocks, the inverses X and the products
# W X_2 and S X (three buffers), p k + t k + p t for the gathered rows of G,
# Q_2^T and G M, 96 for the gathered factors of the cofactor terms, and 66
# for the rest.  At k <= 2 matgen.MAX_M + 2 = 18 that is at most 1,514
# floats per subset, so a thread keeps at most PREFIX_WORKSPACE_BYTES, 47.3
# MiB at chunks of BLOCK subsets.  A pass over prop1-spark, whose largest
# probe is a (3, 9) A_t's C(14, 8) = 3,003 subsets, leaves 2.3 to 3.7 MB
# (seeds 1, 5 and 7).
PREFIX_WORKSPACE_BYTES = 1514 * BLOCK * 8

# Square enumerations of more subsets than this take their stage-1
# determinants from shared column prefixes (_prefix_minors) and their stage-2
# inverses from the same QRs (_prefix_inverses), smaller ones both from one
# batched LU: the prefix QRs and each chunk's triangular solves pay for
# themselves only once they serve enough subsets.  Both screens of the spark
# probe, LU against prefixes, median wall time on one x86-64 core (OpenBLAS,
# one thread): 0.16 against 0.30 ms over an A_t's C(10, 6) = 210 at scales
# (0.1, 0.01); past the constant, prefixes won on every shape tried but a
# node matrix's C(11, 5) = 462 (0.40 against 0.42 ms), e.g. 3.9 against
# 1.35 ms over an A_t's C(14, 8) = 3,003 and 1.56 against 0.47 ms over a
# 4 x 18 node matrix.  Every node-matrix probe of t1-sweep and
# suite-artifacts (C(n, m) <= 252) stays on LU.
PREFIX_MINORS_MIN_SUBSETS = 256


def _combinations_table(it, count: int, k: int) -> np.ndarray:
    flat = itertools.chain.from_iterable(itertools.islice(it, count))
    return np.fromiter(flat, dtype=np.intp, count=count * k).reshape(count, k)


def _single_cached_table(n: int, k: int, chunk: int = BLOCK) -> bool:
    """Whether iter_subset_chunks(n, k, chunk) is one cached table."""
    count = math.comb(n, k)
    return k > 0 and 0 < count <= chunk and count * k <= SUBSET_TABLE_CELLS


@functools.lru_cache(maxsize=SUBSET_TABLE_CACHE)
def _subset_table(n: int, k: int, tail: int = 0):
    """All C(n, k) k-subsets of range(n), lexicographic, as a read-only array;
    for tail > 0, that table's prefix plan (_prefix_plan) instead, as a pair
    of read-only arrays."""
    if tail:
        arrays = _prefix_plan(_subset_table(n, k), n, tail)
    else:
        arrays = (_combinations_table(itertools.combinations(range(n), k), math.comb(n, k), k),)
    for array in arrays:
        array.flags.writeable = False
    return arrays if tail else arrays[0]


def iter_subset_chunks(n: int, k: int, chunk: int = BLOCK) -> Iterator[np.ndarray]:
    """Yield (count, k) index arrays covering all C(n, k) subsets in lexicographic order.

    Chunked so callers can run stacked LAPACK calls without materializing the
    whole enumeration.  Deterministic: itertools.combinations order.  A
    nonempty enumeration that fits in one chunk, and in SUBSET_TABLE_CELLS
    entries, is one cached read-only table (_subset_table); larger ones are
    built chunk by chunk, so memory stays bounded by the chunk.
    """
    if k == 0:
        yield np.empty((1, 0), dtype=np.intp)
        return
    if _single_cached_table(n, k, chunk):
        yield _subset_table(n, k)
        return
    remaining = math.comb(n, k)
    it = itertools.combinations(range(n), k)
    while remaining:
        count = min(chunk, remaining)
        yield _combinations_table(it, count, k)
        remaining -= count


def _prefix_plan(subsets: np.ndarray, n: int, tail: int) -> tuple[np.ndarray, np.ndarray]:
    """Split a lexicographic chunk of k-subsets of range(n) into prefixes, the
    first k - tail columns, and tails, the last tail columns.

    Returns the distinct prefixes in order, one row each, and the
    (tail, len(subsets)) gather index: gather[i, s] = (the number of subset
    s's prefix) * n + (column i of its tail).  In lexicographic order the
    subsets sharing a prefix are consecutive, and the first of them is the
    one whose tail follows the prefix without a gap: the only tail that ends
    at the prefix's last column + tail.
    """
    p = subsets.shape[1] - tail
    first = np.zeros(len(subsets), dtype=bool)
    if p:
        first[:] = subsets[:, -1] == subsets[:, p - 1] + tail
    first[0] = True
    number = np.cumsum(first) - 1
    return subsets[first, :p], number * n + subsets[:, p:].T


def numerical_rank(s, tol_rel: float = RANK_TOL):
    """Count of singular values above tol_rel * the largest, over the last axis.

    s holds singular values in descending order, as numpy's svd returns
    them: one matrix's (k,) gives an int, a stacked (..., k) block gives an
    integer array with one rank per matrix.  A zero matrix has rank 0.
    """
    s = np.asarray(s)
    rank = (s > tol_rel * s[..., :1]).sum(axis=-1)
    return int(rank) if rank.ndim == 0 else rank


def _ratio_lower_bound(sub: np.ndarray, det: np.ndarray | None = None) -> np.ndarray:
    """beta = |det| (k-1)^((k-1)/2) / F^k <= sigma_min/sigma_max per square block.

    sub is a (count, k, k) stack; det, when given, is np.linalg.det(sub).
    NaN (a zero block, determinant underflow) compares False against any
    threshold, so such a block is never cleared.
    """
    with np.errstate(all="ignore"):
        det = np.linalg.det(sub) if det is None else det
        return _det_ratio_bound(det, np.einsum("cij,cij->c", sub, sub), sub.shape[-1])


def _det_ratio_bound(det: np.ndarray, fro_sq: np.ndarray, k: int) -> np.ndarray:
    """beta of k x k blocks from their determinants and squared Frobenius
    norms.  Callers evaluate it under np.errstate(all="ignore"): F = 0 gives
    0/0, a NaN that never clears a block."""
    return np.abs(det) * (k - 1) ** ((k - 1) / 2) / np.sqrt(fro_sq) ** k


class _Workspace(threading.local):
    """One thread's prefix-path buffers (see PREFIX_WORKSPACE_BYTES)."""

    def __init__(self) -> None:
        self.buffers: dict[str, np.ndarray] = {}

    def __call__(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """A C-contiguous float64 array of this shape on the buffer called
        name, whose earlier contents it overwrites."""
        size = math.prod(shape)
        buffer = self.buffers.get(name)
        if buffer is None or buffer.size < size:
            buffer = self.buffers[name] = np.empty(size)
        return buffer[:size].reshape(shape)

    def nbytes(self) -> int:
        return sum(buffer.nbytes for buffer in self.buffers.values())


_workspace = _Workspace()


def _gather(a: np.ndarray, indices: np.ndarray, name: str, axis: int | None = None) -> np.ndarray:
    """np.take(a, indices, axis) written into the workspace buffer name.

    The indices are in range by construction; mode="clip" only keeps numpy
    from gathering into a temporary first, as it does for out= under the
    default mode="raise"."""
    shape = indices.shape if axis is None else a.shape[:axis] + indices.shape + a.shape[axis + 1 :]
    return np.take(a, indices, axis=axis, mode="clip", out=_workspace(name, shape))


class _PrefixFactors(NamedTuple):
    """What _prefix_minors computed for one chunk, kept for _prefix_inverses."""

    q: np.ndarray | None  # (prefixes, k, k): each prefix's complete Q; None without prefix
    r: np.ndarray | None  # (prefixes, k, p): its R
    diag: np.ndarray | None  # (prefixes,): prod diag R, carried on proj's row 0
    proj: np.ndarray  # (t, prefixes, n): Q_2^T M, or M itself without prefix
    gather: np.ndarray  # (t, subsets): prefix number * n + tail column


def _prefix_minors(M: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, _PrefixFactors]]:
    """(subsets, |det|, beta, factors) for the k x k column subsets of the
    k x n matrix M, chunk by chunk as iter_subset_chunks(n, k) yields the
    subsets; beta is stage 1's bound (_det_ratio_bound) and factors what
    _prefix_inverses reuses for stage 2.

    Each subset splits into a prefix P, its first p = k - t columns with
    t = min(k, 4), and a tail T of t later columns (_prefix_plan).  With
    M[:, P] = Q R the complete Householder QR and Q_2 the last t columns of
    Q, |det M[:, P + T]| = |prod diag R| |det(Q_2^T M[:, T])|: one small QR
    per prefix and one projection of all n columns onto its Q_2, then one
    closed-form t x t determinant per subset (_laplace_det) of gathered
    projections.  beta's F^2, the subset's squared Frobenius norm, sums its
    columns' squared norms.  The error bounds are in the spark module
    docstring.  What it yields is new arrays; its temporaries live in the
    thread's workspace (PREFIX_WORKSPACE_BYTES).
    """
    k, n = M.shape
    t = min(k, 4)
    p = k - t
    col_sq = np.einsum("ij,ij->j", M, M)
    cached = _single_cached_table(n, k)
    for subsets in iter_subset_chunks(n, k):
        prefixes, gather = _subset_table(n, k, t) if cached else _prefix_plan(subsets, n, t)
        if p:
            q, r = np.linalg.qr(M[:, prefixes].transpose(1, 0, 2), mode="complete")
            proj = np.matmul(q[:, :, p:].transpose(2, 0, 1), M)  # (t, prefixes, n)
            # |prod diag R| rides on row 0, which every term of a determinant
            # of Q_2^T M[:, T] takes exactly one factor from
            diag = np.prod(np.diagonal(r, axis1=1, axis2=2), axis=1)
            proj[0] *= diag[:, None]
        else:
            q = r = diag = None
            proj = M[:, None, :]
        # blocks[r, c, s]: entry (r, c) of Q_2^T M[:, T] for subset s
        blocks = _gather(proj.reshape(t, -1), gather, "gather", axis=1)
        det = _laplace_det(blocks)
        np.abs(det, out=det)
        # each tail column carries a t-th of its prefix's squared norm
        shares = np.add.outer(col_sq[prefixes].sum(axis=1) / t, col_sq)
        with np.errstate(all="ignore"):
            beta = _det_ratio_bound(det, _gather(shares, gather, "shares").sum(axis=0), k)
        yield subsets, det, beta, _PrefixFactors(q, r, diag, proj, gather)


def _laplace_det(z: np.ndarray) -> np.ndarray:
    """Determinants of t x t matrices, t <= 4, stacked along the last axis
    of z, by Laplace expansion on rows (0, 1) of z padded to 4 x 4: minors[0][q]
    * minors[1][5 - q] (_pair_minors) signed + - + + - + and summed in that
    order.  The padding adds exact zeros, so at most a zero's sign changes."""
    top, bottom = _pair_minors(z)[1]
    terms = np.multiply(top, bottom[::-1], out=_workspace("left", top.shape))  # top[q] * bottom[5 - q]
    det = terms[0] - terms[1]
    det += terms[2]
    det += terms[3]
    det -= terms[4]
    det += terms[5]
    return det


def _prefix_inverses(
    M: np.ndarray, factors: _PrefixFactors, open_: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Approximate inverses X of the blocks S = M[:, subsets[open_]] of one
    _prefix_minors chunk, (count, k, k), from that chunk's prefix QRs:
    written into out, a C-contiguous float64 array of that shape, when
    given, else into a new array.

    With M[:, P] = Q R, Q = [Q_1 Q_2] and R_11 the top p x p block of R,
    Q^T S = [[R_11, B], [0, Z]] for B = Q_1^T M[:, T] and Z = Q_2^T M[:, T],
    so S^-1 = [[G - W Z^-1 Q_2^T], [Z^-1 Q_2^T]] with G = R_11^-1 Q_1^T and
    W = R_11^-1 B, the tail columns of G M.  G and G M are taken once per
    prefix that owns a given block, by back substitution on the triangular
    R_11 (batched matmul works matrix by matrix, so a prefix's G does not
    depend on which other prefixes are in the batch); each block costs
    the t x t inverse of Z (_cofactor_inverse) and two small products, where
    np.linalg.inv makes one LAPACK call per block.  Without prefix (k <= 4)
    X = S^-1 by cofactors alone.

    Stage 2's bound holds for any X (spark module docstring), so no step
    needs to be accurate for it to be sound; a zero pivot of R_11, a zero
    prod diag R or an exactly singular Z gives an infinite or NaN X, whose
    bound is NaN and leaves the block open.  Call under np.errstate(all=
    "ignore").
    """
    k, n = M.shape
    t = min(k, 4)
    p = k - t
    picked = factors.gather[:, open_]
    count = picked.shape[1]
    x = np.empty((count, k, k)) if out is None else out
    # (t, t, count): z[:, i] = Q_2^T m_(T_i)
    z = _gather(factors.proj.reshape(t, -1), picked, "gather", axis=1)
    if not p:
        return _cofactor_inverse(z, out=x)
    # G only for the prefixes that own a given block: block s has prefix
    # number used[prefix[s]]; a chunk's prefix numbers never decrease
    # (lexicographic order), so they group without a sort
    owner = picked[0] // n
    z[0] /= _gather(factors.diag, owner, "scratch")  # undo the prod diag R carried on row 0
    first = np.concatenate([[True], owner[1:] != owner[:-1]])
    used, prefix = owner[first], np.cumsum(first) - 1
    q, r = factors.q[used], factors.r[used]
    g = np.empty((len(q), p, k))  # R_11 G = Q_1^T, bottom row first
    for i in range(p - 1, -1, -1):
        row = q[:, :, i] - np.matmul(r[:, i : i + 1, i + 1 : p], g[:, i + 1 :])[:, 0]
        g[:, i] = row / r[:, i, i, None]
    # w[s] = W for block s: its tail columns of G M, (count, p, t)
    local = prefix[:, None] * n + picked.T % n
    w = _gather(np.matmul(g, M).transpose(1, 0, 2).reshape(p, -1), local, "w", axis=1).transpose(1, 0, 2)
    q_2 = np.ascontiguousarray(q[:, :, p:].transpose(0, 2, 1))
    z_inverse = _cofactor_inverse(z, out=_workspace("z_inverse", (count, t, t)))
    np.matmul(z_inverse, _gather(q_2, prefix, "q_rows", axis=0), out=x[:, p:])
    w_x = np.matmul(w, x[:, p:], out=_workspace("product", (count, p, k)))
    np.subtract(_gather(g, prefix, "g_rows", axis=0), w_x, out=x[:, :p])
    return x


def _prefix_inverse_bounds(
    M: np.ndarray, subsets: np.ndarray, factors: _PrefixFactors, open_: np.ndarray
) -> np.ndarray:
    """Stage 2's bound beta' (_inverse_ratio_lower_bound) of the blocks
    S = M[:, subsets], subsets those of one _prefix_minors chunk picked by
    open_, with X from _prefix_inverses.  X, the gathered S and the residual
    live in the thread's workspace; the bound is a new array.  Call under
    np.errstate(all="ignore")."""
    k = M.shape[0]
    count = len(subsets)
    inv = _prefix_inverses(M, factors, open_, out=_workspace("x", (count, k, k)))
    # S column-major, as M[:, subsets].transpose(1, 0, 2) lays it out, which
    # fixes the summation order of its norm
    sub = _gather(M.T, subsets, "gather", axis=0).transpose(0, 2, 1)
    return _inverse_ratio_lower_bound(sub, inv, res=_workspace("product", (count, k, k)))


# The 4 x 4 Laplace expansions behind _laplace_det and _cofactor_inverse.
# _PAIRS lists the column pairs (i, j), i < j; pair 5 - q is the complement
# of pair q.  The cofactor of entry (r, c) expands along row _ALONG[r], the
# other row of r's pair of rows (0, 1) or (2, 3), into the 2 x 2 minors of
# the opposite pair of rows: for j = 0, 1, 2 the entry in column
# _OTHERS[c, j] (the columns other than c, in order) times the minor on the
# pair _REST[c, j] left over, with sign (-1)^j, all times (-1)^(r+c).
_PAIRS = tuple(itertools.combinations(range(4), 2))
_ALONG = np.array([1, 0, 3, 2])
_OPPOSITE = np.array([1, 1, 0, 0])  # rows (2, 3) for r = 0, 1, rows (0, 1) for r = 2, 3
_OTHERS = np.array([[d for d in range(4) if d != c] for c in range(4)])
_REST = np.array(
    [[_PAIRS.index(tuple(e for e in range(4) if e not in (c, d))) for d in _OTHERS[c]] for c in range(4)]
)
# _PAIR_TERMS[f, h, q]: the factors of minor q of rows (2h, 2h + 1), entry
# (2h, i) times (2h + 1, j) minus (2h, j) times (2h + 1, i) for (i, j) =
# _PAIRS[q], as row numbers of a.reshape(16, count); _ENTRY[j, r, c] and
# _MINOR[j, r, c]: term j's entry and minor for cofactor (r, c), as row
# numbers of a.reshape(16, count) and of minors.reshape(12, count)
_PAIR_TERMS = np.array(
    [
        [[8 * h + 4 * below + pair[side] for pair in _PAIRS] for h in range(2)]
        for below, side in ((0, 0), (1, 1), (0, 1), (1, 0))
    ]
)
_ENTRY = np.ascontiguousarray((4 * _ALONG[:, None, None] + _OTHERS).transpose(2, 0, 1))
_MINOR = np.ascontiguousarray((6 * _OPPOSITE[:, None, None] + _REST).transpose(2, 0, 1))
_COFACTOR_SIGN = (-1.0) ** np.add.outer(np.arange(4), np.arange(4))[:, :, None]  # (-1)^(r+c)


def _pair_minors(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a, minors): z (t x t matrices, t <= 4, along the last axis) padded to
    4 x 4 with an identity block, and the (2, 6, count) block of the 2 x 2
    minors of a's rows (0, 1) and (2, 3): minors[0, q] and minors[1, q] on
    column pair _PAIRS[q].  minors, and a where it pads z (t < 4; a is z
    itself at t = 4), are views of the thread's workspace, valid until the
    prefix path next uses it."""
    t, _, count = z.shape
    a = z
    if t < 4:
        a = _workspace("pad", (4, 4, count))
        a.fill(0.0)
        a[range(t, 4), range(t, 4)] = 1.0
        a[:t, :t] = z
    flat = a.reshape(16, count)
    minors = _gather(flat, _PAIR_TERMS[0], "minors", axis=0)
    minors *= _gather(flat, _PAIR_TERMS[1], "right", axis=0)
    left = _gather(flat, _PAIR_TERMS[2], "left", axis=0)
    left *= _gather(flat, _PAIR_TERMS[3], "right", axis=0)
    minors -= left
    return a, minors


def _cofactor_inverse(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Inverses of t x t matrices, t <= 4, stacked along the last axis of z
    (z[r, c] is the vector of entries (r, c)), as a (count, t, t) array:
    out when given, else a new one.

    X = adj(A) / det A for A = z padded to 4 x 4 with an identity block,
    every cofactor from the twelve 2 x 2 minors of rows (0, 1) and (2, 3)
    (_pair_minors), as the three terms of its expansion summed in order,
    signed + - +.  A zero determinant gives an infinite or NaN X.  Call
    under np.errstate(all="ignore").
    """
    t, _, count = z.shape
    a, minors = _pair_minors(z)
    terms = _gather(a.reshape(16, count), _ENTRY, "left", axis=0)  # (j, r, c, count)
    terms *= _gather(minors.reshape(12, count), _MINOR, "right", axis=0)
    cofactor = np.subtract(terms[0], terms[1], out=_workspace("cofactor", (4, 4, count)))
    cofactor += terms[2]
    cofactor *= _COFACTOR_SIGN
    det = np.sum(np.multiply(a[0], cofactor[0], out=terms[0, 0]), axis=0, out=_workspace("det", (count,)))
    cofactor /= det
    if out is None:
        out = np.empty((count, t, t))
    out[...] = cofactor.transpose(2, 1, 0)[:, :t, :t]
    return out


def _inverse_ratio_lower_bound(sub: np.ndarray, inv: np.ndarray, res: np.ndarray | None = None) -> np.ndarray:
    """beta' = (1 - (1+2u) ||R||_F) / (||S||_F ||X||_F) - gamma_k <=
    sigma_min/sigma_max per square block S, with X = inv an approximate
    inverse (_prefix_inverses', or np.linalg.inv's), R = fl(S X - I) its
    computed residual, u = 2^-53 and gamma_k = k u / (1 - k u).  The proof,
    valid for any X, is in the spark module docstring.  An overflowed or NaN
    X gives a NaN or nonpositive bound, which never clears a block.  res,
    when given, is a C-contiguous float64 array shaped like inv that takes
    the residual in place of a new one.
    """
    k = sub.shape[-1]
    u = 2.0**-53
    with np.errstate(all="ignore"):
        res = np.matmul(sub, inv, out=res)
        diag = np.arange(k)
        res[:, diag, diag] -= 1.0
        fro_s, fro_inv, fro_res = (np.sqrt(np.einsum("cij,cij->c", a, a)) for a in (sub, inv, res))
        return (1.0 - (1.0 + 2.0 * u) * fro_res) / (fro_s * fro_inv) - k * u / (1.0 - k * u)


def derive_seed(seed: int, name: str) -> int:
    """Stable named sub-seed: one top-level seed fans out to independent
    streams without manual offset bookkeeping (sha256, platform-independent)."""
    digest = hashlib.sha256(f"{seed}/{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def compensated_sum(values) -> float:
    """Exactly-rounded sum of a 1-D collection (math.fsum)."""
    return math.fsum(np.asarray(values, dtype=float).ravel().tolist())


def abs_pow(values, p) -> np.ndarray:
    """Elementwise |x|^p via exp(p*log|x|); magnitudes <= POWER_FLOOR count as zero.

    p is one exponent, giving an array shaped like values, or a 1-D grid of
    exponents, giving a leading p axis: out[i] is bit-identical to the call
    at p[i].  The logarithms are taken once for the whole grid.
    """
    ps = np.asarray(p, dtype=float)
    if not all(0.0 < q <= 1.0 for q in ps.ravel().tolist()):
        raise ValueError(f"p must lie in (0, 1], got {p}")
    a = np.abs(np.asarray(values, dtype=float))
    mask = a > POWER_FLOOR
    if mask.all():
        # every entry is a power to take, as for x* + h: no scatter needed
        return np.asarray(np.exp(np.multiply.outer(ps, np.log(a))))
    out = np.zeros(ps.shape + a.shape)
    if mask.any():
        out[..., mask] = np.exp(np.multiply.outer(ps, np.log(a[mask])))
    return out


def _row_sum(terms: list) -> float:
    """One row's sum, as _row_sums takes it: the float sum f of the terms,
    left to right, where |f| > k 2^-52 M and M < 2^1021, with M the float
    sum of the |terms| in the same order and k the count of nonzero terms;
    math.fsum(terms) everywhere else.

    Zero terms add exactly nothing, so f and M are the float sums of the k
    nonzero terms: |f - S| <= gamma_(k-1) M_S for the exact sum S and the
    exact sum M_S of the |terms|, with gamma_j = j u / (1 - j u), u = 2^-53
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    section 4.2; additions have no underflow error), and M >= (1 - u)^(k-1)
    M_S.  With c = k 2^-52, exact, a float above fl(c M) lies above c M,
    since fl rounds monotonically, so the test gives |f| > c M >= 2 k u
    (1 - u)^(k-1) M_S >= gamma_(k-1) M_S >= |f - S|: f has the sign of S,
    and S is not zero.  Every zero sum, every
    row with an inf or a NaN and every row whose fsum could overflow (M <
    2^1021 keeps fsum's partials below the float range) therefore goes to
    fsum, which decides it and raises as it raises.
    """
    f = m = 0.0
    for v in terms:
        f += v
        m += abs(v)
    if abs(f) > (len(terms) - terms.count(0.0)) * 2.0**-52 * m and m < 2.0**1021:
        return f
    return math.fsum(terms)


def _row_sums(d: np.ndarray):
    """_row_sum over the last axis: a float for 1-D input, else a float64
    array shaped like the leading axes.

    A block takes f and M one column at a time, so each row's are the floats
    _row_sum computes from that row alone.  A row keeps f where |f| >
    w 2^-52 M and M < 2^1021, for w the row width: w >= k, so _row_sum's own
    test passes there too.  The rows this leaves open, the zero and near-zero
    sums and the non-finite ones, go through _row_sum itself.
    """
    if d.ndim <= 1:
        return _row_sum(d.ravel().tolist())
    rows = d.reshape(math.prod(d.shape[:-1]), d.shape[-1])
    sums, mass = np.zeros(len(rows)), np.zeros(len(rows))
    with np.errstate(over="ignore", invalid="ignore"):
        for column, magnitude in zip(rows.T, np.abs(rows).T):
            sums += column
            mass += magnitude
        kept = (np.abs(sums) > rows.shape[1] * 2.0**-52 * mass) & (mass < 2.0**1021)
    for i in np.flatnonzero(~kept).tolist():
        sums[i] = _row_sum(rows[i].tolist())
    return sums.reshape(d.shape[:-1])


def lp_power_sum(values, p):
    """sum_i |x_i|^p over the last axis, by _row_sum: the float sum of the
    nonnegative terms wherever it is positive and below 2^1021, math.fsum's
    otherwise.

    A 1-D vector gives a float; a (rows, n) block gives a float64 array, one
    entry per row, from a single abs_pow call.  A 1-D grid of p adds a
    leading axis: one result per p, each bit-identical to the call at that p.
    """
    return _row_sums(abs_pow(values, p))


def lp_margin(x_star, h, p):
    """||x* + h||_p^p - ||x*||_p^p, summed termwise by _row_sum: the float
    sum with the exact sum's sign, or math.fsum's where the bound leaves the
    sign open, so margin <= 0 is decided as exact arithmetic decides it.

    Termwise differences keep the near-cancellation on the support of x* from
    being swamped by the off-support bulk before it is ever summed.  The
    float sum's error, gamma_(k-1) sum|d_i| for k nonzero terms d_i, is of
    the order of the terms' own rounding errors from abs_pow, so exact
    rounding would add no accuracy.  h is one
    perturbation of shape (n,), giving a float, or a (samples, n) block,
    giving a float64 array with one margin per row; the block makes one
    abs_pow call for x* + h and each row's margin is bit-identical to
    evaluating it alone.  A 1-D grid of p adds a leading axis, one result per
    p, each bit-identical to the call at that p, from one abs_pow call on
    x* + h and one on x*.
    """
    x = np.asarray(x_star, dtype=float)
    hv = np.asarray(h, dtype=float)
    x_pow = abs_pow(x, p)
    # broadcast |x*|^p over the sample axes between the p axis and the last
    x_pow = x_pow.reshape(x_pow.shape[:-1] + (1,) * (hv.ndim - 1) + x_pow.shape[-1:])
    d = abs_pow(x + hv, p) - x_pow
    return _row_sums(d)
