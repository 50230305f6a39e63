"""Scalar inequality checks and the step-by-step audit of the T1 proof chain.

The chain that produces the threshold exponent leans on four standalone
facts, each checked here against brute force on random inputs:

  L2  (sequence norm comparison)  For nonincreasing u_1 >= ... >= u_{k+t} >= 0
      and k <= s <= k+t:
        (sum_{i=k+1}^{k+t} u_i^q)^{1/q} <= C_{p,q}(k,s,t) (sum_{i=1}^s u_i^p)^{1/p},
        C_{p,q}(k,s,t) = max(t^{p/q}/s, (p/q)^{p/q} (1-p/q)^{1-p/q} k^{p/q-1})^{1/p}.

  L3  f(p) = (p/2)^{1/2} (1/(2-p))^{1/2-1/p} satisfies f(p) >= f(1) = sqrt(2)/2
      on (0, 1] (log-derivative -ln(2-p)/p^2 <= 0; the usable direction is the
      lower bound, which is what the grid check pins).

  PHI phi(p) = (1-p/2)^{1/p-1/2} is nondecreasing on (0, 1] with
      phi(0+) = exp(-1/2) and phi(1) = sqrt(2)/2, hence phi(p) <= sqrt(2)/2.

  BU  (cross-term bound)  |<A x1, A x2>| <= ((lmax - lmp)/2) ||x1|| ||x2||
      for disjointly supported x1, x2 with ||x_i||_0 < spark(A)/2.  This
      inherits the contested Gram sandwich, so the audit reports BOTH the
      (lmax - lmp)/2 constant and the restricted-spectrum constant
      (w^2 - u^2)/2, asserting neither.

The L2 and BU audits draw their random trials as whole arrays, numerics.BLOCK
trials at a time, and evaluate each block in one pass of numpy operations;
the block size bounds their working memory whatever the trial count.

audit_theorem1_chain then walks one concrete (A, x*, h, p) through every
intermediate inequality of the threshold derivation, labelling each step as
asserted (provable regardless of the contested sandwich) or reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matgen import DenseMatrix
from .numerics import BLOCK, compensated_sum, lp_margin, lp_power_sum
from .spark import compute_spark
from .spectral import SQRT2, Lemma1Report, gram_spectrum, lemma1_constants
from .solvers import support_partition

# The L2 audit draws k from 1..SEQ_K_MAX and t from 1..SEQ_T_MAX, so a
# sequence has at most SEQ_K_MAX + SEQ_T_MAX entries.
SEQ_K_MAX = 7
SEQ_T_MAX = 11

# The scalar grid checks sweep GRID_COUNT log-spaced points on [GRID_LO, 1]
# and pass within GRID_TOL; the L2 audit passes within SEQ_TOL relative.
GRID_COUNT = 1000
GRID_LO = 1e-6
GRID_TOL = 1e-12
SEQ_TOL = 1e-10


@dataclass(frozen=True)
class ScalarCheckReport:
    """Grid sweep of one scalar claim."""

    claim: str
    grid_size: int
    worst_violation: float  # positive means the claim failed by this much
    worst_at: float
    tol: float
    passes: bool


@dataclass(frozen=True)
class SequenceCheckReport:
    """Randomized audit of the L2 sequence comparison."""

    trials: int
    worst_relative_violation: float
    worst_case: dict
    tol: float
    passes: bool


@dataclass(frozen=True)
class CrossTermReport:
    """Randomized audit of BU with both candidate constants."""

    trials: int
    spark: int
    max_support: int
    worst_ratio: float
    paper_bound: float
    empirical_bound: float
    passes_paper: bool
    passes_empirical: bool
    degenerate: bool
    worst_example: dict


@dataclass(frozen=True)
class ChainStep:
    """One inequality of the chain: lhs <= rhs expected.

    Steps comparing p-quasinorm-scaled quantities are evaluated in log space
    and recorded as the ratio lhs/rhs against rhs = 1.0 (the norms themselves
    overflow float64 once 1/p reaches the hundreds)."""

    name: str
    lhs: float
    rhs: float
    ok: bool
    asserted: bool  # True: provable fact; False: depends on the contested sandwich


@dataclass(frozen=True)
class ChainAudit:
    """Full walk of the T1 derivation on one (A, x*, h, p)."""

    k: int
    p: float
    p_star: float
    coefficient: float  # the final contraction factor; < 1 iff p below the raw threshold
    log10_b_value: float  # the E3 constant B, stored in logs (it overflows for small p)
    margin: float
    steps: tuple[ChainStep, ...]
    asserted_ok: bool
    reported_ok: bool

    def step(self, name: str) -> ChainStep:
        for s in self.steps:
            if s.name == name:
                return s
        raise KeyError(name)


def log_c_pq(k: int, s: int, t: int, p: float, q: float) -> float:
    """log of the L2 comparison constant C_{p,q}(k, s, t).

    The log form exists because C itself leaves float64 range once 1/p
    reaches the hundreds (the max-arm is raised to the power 1/p).  It is
    _log_c_pq_block at one point, so the L2 audit and the chain audit share
    one formula."""
    if min(k, s, t) < 1:
        raise ValueError(f"k, s, t must be >= 1, got {k}, {s}, {t}")
    if not 0.0 < p <= q:
        raise ValueError(f"need 0 < p <= q, got p={p}, q={q}")
    return float(_log_c_pq_block(k, s, t, p, q))


def c_pq(k: int, s: int, t: int, p: float, q: float) -> float:
    """The L2 comparison constant C_{p,q}(k, s, t) (see log_c_pq for extremes)."""
    return math.exp(log_c_pq(k, s, t, p, q))


def f_lemma3(p) -> np.ndarray | float:
    """f(p) = (p/2)^{1/2} * (1/(2-p))^{1/2 - 1/p} on (0, 1].

    Evaluated in log space: the second factor alone is 2^(1/p - 1/2)-ish and
    overflows long before p reaches the thresholds this package produces, while
    log f = (1/2) ln(p/2) + (1/p - 1/2) ln(2-p) stays modest (clamped exp)."""
    arr = np.asarray(p, dtype=float)
    if np.any((arr <= 0.0) | (arr > 1.0)):
        raise ValueError("p must lie in (0, 1]")
    log_f = 0.5 * np.log(arr / 2.0) + (1.0 / arr - 0.5) * np.log(2.0 - arr)
    out = np.exp(np.minimum(log_f, 700.0))
    return float(out) if np.isscalar(p) or arr.ndim == 0 else out


def phi_bound(p) -> np.ndarray | float:
    """phi(p) = (1 - p/2)^{1/p - 1/2} on (0, 1]."""
    arr = np.asarray(p, dtype=float)
    if np.any((arr <= 0.0) | (arr > 1.0)):
        raise ValueError("p must lie in (0, 1]")
    out = (1.0 - arr / 2.0) ** (1.0 / arr - 0.5)
    return float(out) if np.isscalar(p) or arr.ndim == 0 else out


def _grid_check(claim: str, violation) -> ScalarCheckReport:
    """Sweep violation(p), positive where the claim fails, over the log grid
    (p = 1 included exactly) and report the first worst point."""
    grid = np.geomspace(GRID_LO, 1.0, GRID_COUNT)
    violations = violation(grid)
    i = int(np.argmax(violations))
    worst = float(violations[i])
    return ScalarCheckReport(
        claim=claim,
        grid_size=GRID_COUNT,
        worst_violation=worst,
        worst_at=float(grid[i]),
        tol=GRID_TOL,
        passes=worst <= GRID_TOL,
    )


def f_lemma3_grid() -> ScalarCheckReport:
    """Grid check of f(p) >= sqrt(2)/2."""
    return _grid_check("f(p) >= sqrt(2)/2 on (0, 1]", lambda p: SQRT2 / 2.0 - f_lemma3(p))


def phi_bound_grid() -> ScalarCheckReport:
    """Grid check of phi(p) <= sqrt(2)/2."""
    return _grid_check("phi(p) <= sqrt(2)/2 on (0, 1]", lambda p: phi_bound(p) - SQRT2 / 2.0)


def _log_c_pq_block(k, s, t, p, q) -> np.ndarray:
    """log C_{p,q}(k, s, t) over equal-length vectors of (k, s, t, p, q), one
    per trial; r = p/q == 1 has second arm 0."""
    r = p / q
    arm1 = r * np.log(t) - np.log(s)
    below = r < 1.0
    rb = np.where(below, r, 0.5)  # a stand-in where r == 1, masked out below
    arm2 = rb * np.log(rb) + (1.0 - rb) * np.log1p(-rb) + (rb - 1.0) * np.log(k)
    return np.maximum(arm1, np.where(below, arm2, 0.0)) / p


def _draw_sequences(rng: np.random.Generator, first: int, size: int):
    """Trials first .. first+size-1 of the L2 audit, drawn as arrays.

    Returns the vectors k, s, t, p, q and a (size, SEQ_K_MAX + SEQ_T_MAX)
    block u whose row i holds trial i's nonincreasing sequence in its first
    k_i + t_i entries and zeros after them.  Every tenth trial (first trial
    included) is rounded to one decimal, which forces ties and exact zeros."""
    k = rng.integers(1, SEQ_K_MAX + 1, size=size)
    t = rng.integers(1, SEQ_T_MAX + 1, size=size)
    s = rng.integers(k, k + t + 1)
    raw = rng.uniform(0.0, 1.0, size=(size, SEQ_K_MAX + SEQ_T_MAX))
    p = rng.uniform(0.05, 1.0, size=size)
    q = rng.uniform(p, 3.0)
    kept = np.arange(raw.shape[1]) < (k + t)[:, None]
    # ascending sort of -u puts each row's kept entries first, in descending
    # order of u; the dropped entries (set to 1 > -u) sort last
    u = np.where(kept, -np.sort(np.where(kept, -raw, 1.0), axis=1), 0.0)
    tied = (first + np.arange(size)) % 10 == 0
    u[tied] = np.round(u[tied], 1)
    return k, s, t, p, q, u


def _sequence_violations(k, s, t, p, q, u) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lhs, rhs, relative violation) of the L2 bound, one entry per row of u.

    lhs = (sum_{i=k+1}^{k+t} u_i^q)^{1/q}, rhs = C_{p,q}(k,s,t) (sum_{i<=s} u_i^p)^{1/p}
    and the violation is (lhs - rhs)/rhs; a zero rhs gives 0 against a zero
    lhs and inf otherwise."""
    cols = np.arange(u.shape[1])
    tail = (cols >= k[:, None]) & (cols < (k + t)[:, None])
    head = cols < s[:, None]
    lhs = np.sum(np.where(tail, u ** q[:, None], 0.0), axis=1) ** (1.0 / q)
    base = np.sum(np.where(head, u ** p[:, None], 0.0), axis=1)
    rhs = np.exp(_log_c_pq_block(k, s, t, p, q)) * base ** (1.0 / p)
    rel = np.where(lhs == 0.0, 0.0, np.inf)
    np.divide(lhs - rhs, rhs, out=rel, where=rhs > 0.0)
    return lhs, rhs, rel


def _first_max(values: np.ndarray) -> int:
    """Index of the first largest entry; a NaN never wins."""
    return int(np.argmax(np.where(np.isnan(values), -np.inf, values)))


def lemma2_sequence_check(trials: int = 1000, seed: int = 0) -> SequenceCheckReport:
    """Random monotone sequences against the L2 bound.

    The trials are drawn and evaluated BLOCK at a time (see
    _draw_sequences); ties are forced in a tenth of them by quantizing the
    sequence.  worst_case is the first trial with the largest relative
    violation, with its sequence u cut to its k + t entries."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    worst_rel = -math.inf
    worst_case: dict = {}
    for first in range(0, trials, BLOCK):
        k, s, t, p, q, u = _draw_sequences(rng, first, min(BLOCK, trials - first))
        _, _, rel = _sequence_violations(k, s, t, p, q, u)
        i = _first_max(rel)
        if rel[i] > worst_rel:
            worst_rel = float(rel[i])
            worst_case = {
                "k": int(k[i]), "s": int(s[i]), "t": int(t[i]), "p": float(p[i]),
                "q": float(q[i]), "u": u[i, : k[i] + t[i]].tolist(),
            }
    return SequenceCheckReport(
        trials=trials,
        worst_relative_violation=worst_rel,
        worst_case=worst_case,
        tol=SEQ_TOL,
        passes=worst_rel <= SEQ_TOL,
    )


def theorem1_coefficient(p: float, lambda_min_plus: float, lambda_max: float) -> float:
    """The final contraction factor ((sqrt(2)+1)/2) * ratio * (sqrt(2)/2) * sqrt(p/2)."""
    ratio = (lambda_max - lambda_min_plus) / lambda_min_plus
    return (SQRT2 + 1.0) / 2.0 * ratio * (SQRT2 / 2.0) * math.sqrt(p / 2.0)


def _draw_pairs(rng: np.random.Generator, n: int, max_support: int, size: int):
    """One block of BU trials, drawn as arrays.

    Returns boolean (size, n) masks sup1, sup2 and a (size, n) Gaussian block
    g: trial i draws sizes s1, s2 in 1..max_support and a uniformly random
    permutation of the n columns (the argsort of uniform draws); the first s1
    permuted columns form sup1, the next s2 sup2, and x1, x2 take g there."""
    s1 = rng.integers(1, max_support + 1, size=size)[:, None]
    s2 = rng.integers(1, max_support + 1, size=size)[:, None]
    position = np.argsort(np.argsort(rng.uniform(size=(size, n)), axis=1), axis=1)
    g = rng.standard_normal((size, n))
    return position < s1, (position >= s1) & (position < s1 + s2), g


def _cross_ratios(M: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """|<M x1, M x2>| / (||x1|| ||x2||) for each row pair of x1, x2; a zero
    row gives -inf, which never counts as a worst case."""
    inner = np.sum((x1 @ M.T) * (x2 @ M.T), axis=1)
    denom = np.sqrt(np.sum(x1 * x1, axis=1)) * np.sqrt(np.sum(x2 * x2, axis=1))
    ratios = np.full(len(inner), -np.inf)
    np.divide(np.abs(inner), denom, out=ratios, where=denom > 0.0)
    return ratios


def cross_term_check(
    A: DenseMatrix,
    trials: int = 1000,
    seed: int = 0,
    lemma1: Lemma1Report | None = None,
) -> CrossTermReport:
    """Sample disjointly supported sparse pairs and compare |<Ax1, Ax2>| with
    both candidate constants; neither is asserted.

    lemma1, when given, is A's lemma1_constants report; its spark, u^2, w^2
    and Gram extremes are used instead of certifying and scanning A again.
    Spark <= 2 leaves no support size to sample (degenerate).
    The pairs are drawn and evaluated BLOCK at a time (see _draw_pairs).
    worst_example is the first pair with the largest ratio: its supports in
    ascending order, the coefficients x1, x2 on them, and the ratio."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    spark = compute_spark(A).spark if lemma1 is None else lemma1.spark
    max_support = (spark - 1) // 2
    degenerate = max_support < 1
    if lemma1 is None and not degenerate:
        lemma1 = lemma1_constants(A, spark=spark)
    extremes = gram_spectrum(A) if lemma1 is None else lemma1
    paper_bound = (extremes.lambda_max - extremes.lambda_min_plus) / 2.0
    empirical_bound = math.nan if degenerate else (lemma1.w_sq - lemma1.u_sq) / 2.0
    sampled = 0 if degenerate else trials

    rng = np.random.default_rng(seed)
    M = A.entries
    worst = 0.0
    worst_example: dict = {}
    for first in range(0, sampled, BLOCK):
        sup1, sup2, g = _draw_pairs(rng, A.cols, max_support, min(BLOCK, sampled - first))
        x1 = np.where(sup1, g, 0.0)
        x2 = np.where(sup2, g, 0.0)
        ratios = _cross_ratios(M, x1, x2)
        i = _first_max(ratios)
        if ratios[i] > worst:
            worst = float(ratios[i])
            support1, support2 = np.flatnonzero(sup1[i]), np.flatnonzero(sup2[i])
            worst_example = {
                "support1": support1.tolist(),
                "support2": support2.tolist(),
                "x1": x1[i, support1].tolist(),
                "x2": x2[i, support2].tolist(),
                "ratio": worst,
            }
    slack = 1.0 + 1e-9
    return CrossTermReport(
        trials=sampled,
        spark=spark,
        max_support=max_support,
        worst_ratio=worst,
        paper_bound=paper_bound,
        empirical_bound=empirical_bound,
        passes_paper=degenerate or worst <= paper_bound * slack,
        passes_empirical=degenerate or worst <= empirical_bound * slack,
        degenerate=degenerate,
        worst_example=worst_example,
    )


def _block_vec(h: np.ndarray, idx: tuple[int, ...]) -> np.ndarray:
    return h[list(idx)] if idx else np.zeros(0)


def audit_theorem1_chain(A: DenseMatrix, x_star, h, p: float) -> ChainAudit:
    """Evaluate every intermediate inequality of the T1 derivation on one
    concrete instance.

    Steps marked asserted=True hold unconditionally (identities, Cauchy-
    Schwarz, the L2 window comparison, p-quasinorm superadditivity, Hoelder);
    steps marked asserted=False inherit the contested Gram sandwich and are
    reported as data.
    """
    x = np.asarray(x_star, dtype=float)
    hv = np.asarray(h, dtype=float)
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    summary = gram_spectrum(A)
    lmp, lmax = summary.lambda_min_plus, summary.lambda_max
    part = support_partition(x, hv)
    k = part.k
    if not part.blocks:
        raise ValueError("x* occupies every index; the chain needs a nonempty complement")
    M = A.entries

    blocks = [part.s0, *part.blocks]  # blocks[i] = S_i
    t_count = len(part.blocks)
    Ah = [M @ _pad(hv, b, A.cols) for b in blocks]
    norms = [float(np.linalg.norm(_block_vec(hv, b))) for b in blocks]

    def slacked(lhs: float, rhs: float) -> bool:
        return lhs <= rhs + 1e-9 * max(1.0, abs(lhs), abs(rhs))

    steps: list[ChainStep] = []

    # (identity) ||A(h_S0 + h_S1)||^2 == sum_{i>=2} <-A h_S0, A h_Si> + <-A h_S1, A h_Si>
    lhs_id = float(np.linalg.norm(Ah[0] + Ah[1]) ** 2)
    rhs_id = compensated_sum(
        [float(-(Ah[0] @ Ah[i])) + float(-(Ah[1] @ Ah[i])) for i in range(2, t_count + 1)]
    )
    scale_id = max(1.0, lhs_id, abs(rhs_id))
    steps.append(
        ChainStep("kernel-identity", abs(lhs_id - rhs_id), 1e-7 * scale_id,
                  abs(lhs_id - rhs_id) <= 1e-7 * scale_id, True)
    )

    # (E1a, contested) lmp ||h_S0 + h_S1||^2 <= ||A(h_S0 + h_S1)||^2
    lhs = lmp * (norms[0] ** 2 + norms[1] ** 2)
    steps.append(ChainStep("restricted-lower", lhs, lhs_id, slacked(lhs, lhs_id), False))

    # (BU aggregate, contested) cross-term sum <= ((lmax-lmp)/2)(||h_S0||+||h_S1||) sum_{i>=2} ||h_Si||
    tail_norm_sum = compensated_sum(norms[2:])
    bu_rhs = (lmax - lmp) / 2.0 * (norms[0] + norms[1]) * tail_norm_sum
    steps.append(ChainStep("cross-term-bound", rhs_id, bu_rhs, slacked(rhs_id, bu_rhs), False))

    # (E1 composite, contested)
    e1_lhs = norms[0] ** 2 + norms[1] ** 2
    e1_rhs = (lmax - lmp) / (2.0 * lmp) * (norms[0] + norms[1]) * tail_norm_sum
    steps.append(ChainStep("e1-composite", e1_lhs, e1_rhs, slacked(e1_lhs, e1_rhs), False))

    # (Cauchy-Schwarz groups) sum_{i>=2} ||h_Si|| <= 2 sum_j ||h on S_{4j+2}..S_{4j+5}||
    groups = [list(range(i, min(i + 4, t_count + 1))) for i in range(2, t_count + 1, 4)]
    group_union_norms = []
    for g in groups:
        idx = tuple(j for b in g for j in blocks[b])
        group_union_norms.append(float(np.linalg.norm(_block_vec(hv, idx))))
    cs_rhs = 2.0 * compensated_sum(group_union_norms)
    steps.append(ChainStep("block-quad-sum", tail_norm_sum, cs_rhs, slacked(tail_norm_sum, cs_rhs), True))

    # Everything below mixes 2-norms with p-quasinorms.  At thresholds of
    # practical interest 1/p runs into the thousands, so ||v||_p itself
    # overflows float64; the remaining comparisons are evaluated in log space
    # and recorded as the ratio lhs/rhs against 1.0.

    def log_or_ninf(v: float) -> float:
        return math.log(v) if v > 0.0 else -math.inf

    def log_pnorm(idx: tuple[int, ...]) -> float:
        return log_or_ninf(lp_power_sum(_block_vec(hv, idx), p)) / p

    def log_sum(logs: list[float]) -> float:
        top = max(logs, default=-math.inf)
        if top == -math.inf:
            return -math.inf
        return top + math.log(compensated_sum([math.exp(v - top) for v in logs]))

    def log_ratio(log_lhs: float, log_rhs: float) -> float:
        if log_lhs == -math.inf:
            return 0.0
        if log_rhs == -math.inf:
            return math.inf
        diff = log_lhs - log_rhs
        return math.exp(diff) if diff < 709.0 else math.inf

    def ratio_step(name: str, log_lhs: float, log_rhs: float, asserted: bool) -> None:
        r = log_ratio(log_lhs, log_rhs)
        steps.append(ChainStep(name, r, 1.0, r <= 1.0 + 1e-9, asserted))

    # (L2 windows) ||h_{S_i..S_{i+3}}||_2 <= C ||h_{S_{i-1}..S_{i+2}}||_p with the
    # exact window sizes (S_{i-1} is always full when S_i exists, so the
    # monotone-sequence hypothesis holds with that leading-block length).
    log_cp = log_c_pq(k, 4 * k, 4 * k, p, 2.0)
    windows_ok = True
    worst_ratio = 0.0
    for g in groups:
        lo = g[0]
        cur = tuple(j for b in g for j in blocks[b])
        prev = tuple(j for b in range(lo - 1, min(lo + 3, t_count + 1)) for j in blocks[b])
        log_c_exact = log_c_pq(len(blocks[lo - 1]), len(prev), len(cur), p, 2.0)
        r = log_ratio(
            log_or_ninf(float(np.linalg.norm(_block_vec(hv, cur)))),
            log_c_exact + log_pnorm(prev),
        )
        worst_ratio = max(worst_ratio, r)
        windows_ok = windows_ok and r <= 1.0 + 1e-9
    steps.append(ChainStep("window-norm-compare", worst_ratio, 1.0, windows_ok, True))

    # (superadditivity) sum_j ||h_{S_{4j+1}..S_{4j+4}}||_p <= ||h_{S0^c}||_p
    comp_idx = tuple(j for b in part.blocks for j in b)
    log_comp_p = log_pnorm(comp_idx)
    if log_comp_p == -math.inf:
        raise ValueError("h vanishes off supp(x*); the chain has nothing to compare")
    shifted_groups = [list(range(i, min(i + 4, t_count + 1))) for i in range(1, t_count + 1, 4)]
    log_shifted = log_sum(
        [log_pnorm(tuple(j for b in g for j in blocks[b])) for g in shifted_groups]
    )
    ratio_step("p-superadditivity", log_shifted, log_comp_p, True)

    # (E2 composite) sum_{i>=2} ||h_Si||_2 <= 2 C(p) ||h_{S0^c}||_p
    ratio_step(
        "e2-composite",
        log_or_ninf(tail_norm_sum),
        math.log(2.0) + log_cp + log_comp_p,
        True,
    )

    # (E3, contested) ||h_S0||^2 + ||h_S1||^2 <= B (||h_S0|| + ||h_S1||),
    # B = ((lmax - lmp)/lmp) C(p) ||h_{S0^c}||_p
    log_b = log_or_ninf((lmax - lmp) / lmp) + log_cp + log_comp_p
    ratio_step(
        "e3-bound",
        log_or_ninf(e1_lhs),
        log_b + log_or_ninf(norms[0] + norms[1]),
        False,
    )

    # (circle form, E3 rewritten; coordinates normalized by B for stability).
    # Plain multiplication: it overflows to inf instead of raising, and an
    # infinite lhs is exactly the right record for a blown-out ratio.
    t0 = log_ratio(log_or_ninf(norms[0]), log_b)
    t1 = log_ratio(log_or_ninf(norms[1]), log_b)
    d0, d1 = t0 - 0.5, t1 - 0.5
    circle_lhs = d0 * d0 + d1 * d1
    steps.append(ChainStep("circle-form", circle_lhs, 0.5, slacked(circle_lhs, 0.5), False))

    # (radius consequence) ||h_S0|| <= ((sqrt(2)+1)/2) B
    ratio_step(
        "s0-radius",
        log_or_ninf(norms[0]),
        math.log((SQRT2 + 1.0) / 2.0) + log_b,
        False,
    )

    # (Hoelder) ||h_S0||_p <= k^{1/p - 1/2} ||h_S0||_2
    log_s0_p = log_pnorm(part.s0)
    ratio_step(
        "holder-embedding",
        log_s0_p,
        (1.0 / p - 0.5) * math.log(k) + log_or_ninf(norms[0]),
        True,
    )

    # (E4) ||h_S0||_p <= coef * ||h_{S0^c}||_p with the closed-form coefficient
    coef = theorem1_coefficient(p, lmp, lmax)
    ratio_step("e4-final", log_s0_p, log_or_ninf(coef) + log_comp_p, False)

    # (conclusion) margin >= ||h_{S0^c}||_p^p - ||h_S0||_p^p (reverse triangle;
    # p-th powers stay in range even when the norms themselves do not)
    margin = lp_margin(x, hv, p)
    lower = lp_power_sum(_block_vec(hv, comp_idx), p) - lp_power_sum(_block_vec(hv, part.s0), p)
    steps.append(ChainStep("margin-lower-bound", lower, margin, slacked(lower, margin), True))

    asserted_ok = all(s.ok for s in steps if s.asserted)
    reported_ok = all(s.ok for s in steps if not s.asserted)
    return ChainAudit(
        k=k,
        p=p,
        p_star=summary.p_star,
        coefficient=coef,
        log10_b_value=log_b / math.log(10.0),
        margin=margin,
        steps=tuple(steps),
        asserted_ok=asserted_ok,
        reported_ok=reported_ok,
    )


def _pad(h: np.ndarray, idx: tuple[int, ...], n: int) -> np.ndarray:
    out = np.zeros(n)
    if idx:
        out[list(idx)] = h[list(idx)]
    return out
