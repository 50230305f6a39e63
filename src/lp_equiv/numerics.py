"""Shared numeric primitives: exact summation, tiny-exponent powers, subset budgets."""

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


def iter_subset_chunks(n: int, k: int, chunk: int = 4096) -> Iterator[np.ndarray]:
    """Yield (count, k) index arrays covering all C(n, k) subsets in lexicographic order.

    Chunked so callers can run stacked LAPACK calls without materializing the
    whole enumeration.  Deterministic: itertools.combinations order.
    """
    if k == 0:
        yield np.empty((1, 0), dtype=np.intp)
        return
    it = itertools.combinations(range(n), k)
    while True:
        block = list(itertools.islice(it, chunk))
        if not block:
            return
        yield np.asarray(block, dtype=np.intp)


def derive_seed(seed: int, name: str) -> int:
    """Stable named sub-seed: one top-level seed fans out to independent
    streams without manual offset bookkeeping (sha256, platform-independent)."""
    digest = hashlib.sha256(f"{seed}/{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def compensated_sum(values) -> float:
    """Exactly-rounded sum of a 1-D collection (math.fsum)."""
    return math.fsum(np.asarray(values, dtype=float).ravel().tolist())


def abs_pow(values, p: float) -> np.ndarray:
    """Elementwise |x|^p via exp(p*log|x|); magnitudes <= POWER_FLOOR count as zero."""
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    a = np.abs(np.asarray(values, dtype=float))
    out = np.zeros_like(a)
    mask = a > POWER_FLOOR
    if np.any(mask):
        out[mask] = np.exp(p * np.log(a[mask]))
    return out


def _row_fsums(d: np.ndarray):
    """Exactly-rounded sum over the last axis: a float for 1-D input, one
    float per row for a 2-D block.  math.fsum is exact, so a row's sum does
    not depend on the rest of the block or on zero entries padded onto it."""
    if d.ndim <= 1:
        return compensated_sum(d)
    return [math.fsum(row) for row in d.tolist()]


def lp_power_sum(values, p: float):
    """sum_i |x_i|^p with exact accumulation, over the last axis.

    A 1-D vector gives a float; a (rows, n) block gives a list of floats, one
    per row, from a single abs_pow call.
    """
    return _row_fsums(abs_pow(values, p))


def lp_margin(x_star, h, p: float):
    """||x* + h||_p^p - ||x*||_p^p, accumulated termwise with exact summation.

    Termwise differences keep the near-cancellation on the support of x* from
    being swamped by the off-support bulk before it is ever summed.  h is one
    perturbation of shape (n,), giving a float, or a (samples, n) block,
    giving a list with one margin per row; the block makes one abs_pow call
    for x* + h and each row's margin is bit-identical to evaluating it alone.
    """
    x = np.asarray(x_star, dtype=float)
    d = abs_pow(x + np.asarray(h, dtype=float), p) - abs_pow(x, p)
    return _row_fsums(d)
