"""Shared numeric primitives: the rank policy, exact summation, tiny-exponent
powers, subset budgets."""

from __future__ import annotations

import hashlib
import itertools
import math
import os
from typing import Iterator

import numpy as np

# Magnitudes at or below this count as exact zeros inside |x|^p evaluations.
# exp(p*log|x|) would otherwise manufacture O(1) contributions out of
# denormal roundoff dust once p is small.
POWER_FLOOR = 1e-300

# The package's one rank policy: a singular value counts as nonzero when it
# exceeds RANK_TOL times the largest singular value of the same matrix.  Spark,
# the support solves, the Gram spectrum and the null space all decide rank
# through numerical_rank at this tolerance.  Calibration: dependent column
# subsets land at 0..1e-15 relative; independent square submatrices of
# sampled node matrices stay above it up to MAX_M (see the sampling defaults
# in matgen and tests/test_calibration.py).
RANK_TOL = 1e-11

# The package's one block size: subset scans, randomized audit trials, the
# explicit T2 augmentations and the rows of exact sums are evaluated at most
# BLOCK at a time, so their working memory scales with the block and the
# matrix size, not with the enumeration or trial count.
BLOCK = 4096

DEFAULT_SUBSET_BUDGET = 1_000_000
BUDGET_ENV_VAR = "LP_EQUIV_BUDGET"


class BudgetExceededError(RuntimeError):
    """A subset enumeration would exceed the configured cap."""


class SamplingError(RuntimeError):
    """Rejection sampling could not satisfy a separation constraint."""


def subset_budget(override: int | None = None) -> int:
    """Active enumeration cap: explicit override, else LP_EQUIV_BUDGET, else default."""
    if override is not None:
        return int(override)
    env = os.environ.get(BUDGET_ENV_VAR)
    if env:
        return int(env)
    return DEFAULT_SUBSET_BUDGET


def check_budget(total: int, budget: int | None, what: str) -> None:
    cap = subset_budget(budget)
    if total > cap:
        raise BudgetExceededError(
            f"{what} would enumerate {total} column subsets but the cap is {cap}; "
            f"shrink the instance or raise the budget ({BUDGET_ENV_VAR} or budget=)."
        )


def iter_subset_chunks(n: int, k: int, chunk: int = BLOCK) -> Iterator[np.ndarray]:
    """Yield (count, k) index arrays covering all C(n, k) subsets in lexicographic order.

    Chunked so callers can run stacked LAPACK calls without materializing the
    whole enumeration.  Deterministic: itertools.combinations order.
    """
    if k == 0:
        yield np.empty((1, 0), dtype=np.intp)
        return
    it = itertools.combinations(range(n), k)
    remaining = math.comb(n, k)
    while remaining:
        count = min(chunk, remaining)
        flat = itertools.chain.from_iterable(itertools.islice(it, count))
        yield np.fromiter(flat, dtype=np.intp, count=count * k).reshape(count, k)
        remaining -= count


def numerical_rank(s, tol_rel: float = RANK_TOL):
    """Count of singular values above tol_rel * the largest, over the last axis.

    s holds singular values in descending order, as numpy's svd returns
    them: one matrix's (k,) gives an int, a stacked (..., k) block gives an
    integer array with one rank per matrix.  A zero matrix has rank 0.
    """
    s = np.asarray(s)
    rank = np.sum(s > tol_rel * s[..., :1], axis=-1)
    return int(rank) if rank.ndim == 0 else rank


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
    out = np.zeros(ps.shape + a.shape)
    mask = a > POWER_FLOOR
    if mask.any():
        out[..., mask] = np.exp(np.multiply.outer(ps, np.log(a[mask])))
    return out


def _row_fsums(d: np.ndarray):
    """Exactly-rounded sum over the last axis: a float for 1-D input, else
    nested lists of floats shaped like the leading axes.  The rows go through
    tolist BLOCK at a time, so the Python floats held at once stay bounded by
    the block.  math.fsum is exact, so a row's sum does not depend on the rest
    of the block or on zero entries padded onto it."""
    if d.ndim <= 1:
        return compensated_sum(d)
    rows = d.reshape(math.prod(d.shape[:-1]), d.shape[-1])
    sums = [
        math.fsum(row)
        for first in range(0, len(rows), BLOCK)
        for row in rows[first : first + BLOCK].tolist()
    ]
    # regroup the flat row sums by the leading axes, innermost first
    for axis in range(d.ndim - 2, 0, -1):
        size = d.shape[axis]
        sums = [sums[i * size : (i + 1) * size] for i in range(math.prod(d.shape[:axis]))]
    return sums


def lp_power_sum(values, p):
    """sum_i |x_i|^p with exact accumulation, over the last axis.

    A 1-D vector gives a float; a (rows, n) block gives a list of floats, one
    per row, from a single abs_pow call.  A 1-D grid of p adds a leading
    axis: one result per p, each bit-identical to the call at that p.
    """
    return _row_fsums(abs_pow(values, p))


def lp_margin(x_star, h, p):
    """||x* + h||_p^p - ||x*||_p^p, accumulated termwise with exact summation.

    Termwise differences keep the near-cancellation on the support of x* from
    being swamped by the off-support bulk before it is ever summed.  h is one
    perturbation of shape (n,), giving a float, or a (samples, n) block,
    giving a list with one margin per row; the block makes one abs_pow call
    for x* + h and each row's margin is bit-identical to evaluating it alone.
    A 1-D grid of p gives one such result per p, each bit-identical to the
    call at that p, from one abs_pow call on x* + h and one on x*.
    """
    x = np.asarray(x_star, dtype=float)
    hv = np.asarray(h, dtype=float)
    x_pow = abs_pow(x, p)
    # broadcast |x*|^p over the sample axes between the p axis and the last
    x_pow = x_pow.reshape(x_pow.shape[:-1] + (1,) * (hv.ndim - 1) + x_pow.shape[-1:])
    d = abs_pow(x + hv, p) - x_pow
    return _row_fsums(d)
