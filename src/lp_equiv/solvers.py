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

Everything is verified by enumeration and sampling: l0 by exhaustive support
search, lp by exhaustive basic-solution search, the inequalities by margins
over sampled kernel vectors.  Harness outcomes are *reports*; the only hard
assertions are implementation contracts (feasibility, rank logic, budgets).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .matgen import (
    AugmentedSpec,
    DenseMatrix,
    VandermondeSpec,
    _augmented_with_scales,
    b_vectors,
    build_augmented_0,
    build_augmented_t,
    build_vandermonde,
    extend_lambda,
)
from .numerics import (
    POWER_FLOOR,
    BudgetExceededError,
    SamplingError,
    check_budget,
    derive_seed,
    iter_subset_chunks,
    lp_margin,
    lp_power_sum,
)
from .spark import compute_spark
from .spectral import gram_spectrum

# Support-rank decisions treat singular values below RANK_TOL * sigma_max of
# the raw, unequilibrated submatrix as zero.  This is not the spark
# convention (1e-11 relative after row/column equilibration); residuals are
# accepted relative to ||b||.
RANK_TOL = 1e-9
RESIDUAL_TOL = 1e-6

# Coefficients below ZERO_COEFF * max|coeff| mean the support was not minimal:
# the same solution already appeared on a smaller support and is skipped.
ZERO_COEFF = 1e-11

DEFAULT_SCALES = (1e-3, 1.0, 1e3)
DEFAULT_T_SCHEDULE = (10.0, 100.0, 1000.0, 10000.0)

# Largest row scale we will materialize in an explicit augmented matrix; the
# Gram squares it, so keep well inside float64 range.
MAX_EXPLICIT_SCALE = 1e100


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

    def dense(self, n: int) -> np.ndarray:
        x = np.zeros(n)
        x[list(self.support)] = self.coefficients
        return x


@dataclass(frozen=True)
class SparseSolutionSet:
    """Minimal l0 level plus every solution attaining it."""

    level: int
    solutions: tuple[SparseSolution, ...]

    @property
    def supports(self) -> tuple[tuple[int, ...], ...]:
        return tuple(s.support for s in self.solutions)


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
class KernelSample:
    """One sampled kernel vector with its provenance class."""

    vector: np.ndarray
    kind: str  # "unit" | "signed" | "minsupport"
    scale: float

    @property
    def label(self) -> str:
        return f"{self.kind}@{self.scale:g}"


@dataclass(frozen=True)
class EquivalenceReport:
    """Margin sweep of ||x*+h||_p^p - ||x*||_p^p over a kernel sample set,
    with one margin per sample in sample order."""

    p: float
    margin_min: float
    argmin_match: bool | None
    trials: int
    seed: int | None
    below_threshold: bool | None
    violations: tuple[dict, ...]
    margins: tuple[float, ...]

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "margin_min": self.margin_min,
            "argmin_match": self.argmin_match,
            "trials": self.trials,
            "seed": self.seed,
            "below_threshold": self.below_threshold,
            "violations": list(self.violations),
            "margins": list(self.margins),
        }


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
    """T2 harness outcome: augmentation limit plus per-kernel margin records."""

    m: int
    n: int
    k: int
    level: int
    hypothesis_ok: bool
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


@dataclass(frozen=True)
class Theorem3Report:
    """T3 harness outcome: node extension, kernel embedding, margins."""

    m: int
    n: int
    extended_n: int
    k: int
    level: int
    hypothesis_ok: bool
    p_star0: float
    p_check: float
    worst_embed_residual: float
    worst_block_residual: float
    margin_min: float
    violations: tuple[dict, ...]
    trials: int
    seed: int


def _solve_supports(M: np.ndarray, b: np.ndarray, supports: np.ndarray):
    """Least-squares solves of M[:, S] c = b for a (count, k) block of supports.

    One stacked SVD covers the block.  Returns (full, coeff, res): the mask
    of full-column-rank supports and, for those rows only, the (count_full, k)
    coefficients and residual norms ||M[:, S] c - b||.  Each row is
    bit-identical to solving its support on its own: the stacked LAPACK and
    BLAS calls see every matrix in the same layout, and the residual is
    sqrt(<r, r>) through the same BLAS dot as the 1-D np.linalg.norm (a
    row-wise norm(axis=1) sums in another order).
    """
    k = supports.shape[1]
    u, s, vt = np.linalg.svd(np.moveaxis(M[:, supports], 1, 0), full_matrices=False)
    smax = s[:, :1]
    full = (smax[:, 0] > 0.0) & (np.sum(s > RANK_TOL * smax, axis=1) == k)
    u, s, vt = u[full], s[full], vt[full]
    # (count_full, m, k) in the column-major per-matrix layout numpy gives the
    # single-support slice M[:, support], so the residual matmul sums alike
    subs = np.moveaxis(M[:, supports[full]], 1, 0)
    y = np.matmul(u.transpose(0, 2, 1), b) / s
    coeff = np.matmul(vt.transpose(0, 2, 1), y[:, :, None])[:, :, 0]
    r = np.matmul(subs, coeff[:, :, None])[:, :, 0] - b
    res = np.sqrt(np.matmul(r[:, None, :], r[:, :, None])[:, 0, 0])
    return full, coeff, res


def _scan_supports(prob: SparseProblem, budget: int | None, caller: str):
    """Ascending support sizes, scanned lazily: for each size, the
    full-column-rank supports whose least-squares solution reproduces b.

    Yields one (supports, coeff) pair per size: a (count, size) block of
    supports in lexicographic order and their coefficients.  A numerically
    zero b yields only the empty support.  The budget is charged for every
    size up to rank(A) before the first one is scanned.
    """
    M = prob.matrix.entries
    n = M.shape[1]
    b = prob.b
    nb = float(np.linalg.norm(b))
    if nb <= POWER_FLOOR:
        yield np.zeros((1, 0), dtype=np.intp), np.zeros((1, 0))
        return
    r = np.linalg.matrix_rank(M)
    check_budget(sum(math.comb(n, k) for k in range(1, r + 1)), budget, caller)
    for size in range(1, r + 1):
        supports, coeffs = [], []
        for subsets in iter_subset_chunks(n, size):
            full, coeff, res = _solve_supports(M, b, subsets)
            ok = res <= RESIDUAL_TOL * nb
            supports.append(subsets[full][ok])
            coeffs.append(coeff[ok])
        yield np.concatenate(supports), np.concatenate(coeffs)


def _solutions(supports: np.ndarray, coeff: np.ndarray) -> tuple[SparseSolution, ...]:
    return tuple(
        SparseSolution(support=tuple(s), coefficients=tuple(c))
        for s, c in zip(supports.tolist(), coeff.tolist())
    )


def solve_l0(prob: SparseProblem, budget: int | None = None) -> SparseSolutionSet:
    """Exact l0 minimization by ascending exhaustive support search.

    Enumerates supports of size 0, 1, ... (lexicographic within a size) and
    stops at the first size admitting a consistent full-rank representation;
    every solution at that size is returned.  Exactness rests on a standard
    fact: a minimal-support solution's columns are independent, so skipping
    rank-deficient supports cannot miss the minimum.
    """
    for supports, coeff in _scan_supports(prob, budget, "solve_l0"):
        if len(supports):
            return SparseSolutionSet(level=supports.shape[1], solutions=_solutions(supports, coeff))
    raise InfeasibleProblemError("no support of size <= rank(A) reproduces b")


def enumerate_basic_solutions(prob: SparseProblem, budget: int | None = None) -> tuple[SparseSolution, ...]:
    """Every basic solution, each reported once on its minimal support.

    A basic solution is the unique representation of b on a full-column-rank
    support.  Supports whose solution carries a numerically zero coefficient
    duplicate a smaller support's solution and are dropped; this keeps
    ||x||_p^p honest for very small p, where roundoff-sized coefficients
    would otherwise each contribute nearly 1.
    """
    out: list[SparseSolution] = []
    for supports, coeff in _scan_supports(prob, budget, "enumerate_basic_solutions"):
        # a numerically zero coefficient (all of them, when the max is 0)
        # means the support is not minimal; the solution is counted at a
        # smaller size.  The empty support passes: its min is +inf.
        mag = np.abs(coeff)
        keep = np.min(mag, axis=1, initial=np.inf) > ZERO_COEFF * np.max(mag, axis=1, initial=0.0)
        out.extend(_solutions(supports[keep], coeff[keep]))
    if not out:
        raise InfeasibleProblemError("no basic solution found")
    return tuple(out)


def _l0_from_basics(basics: tuple[SparseSolution, ...]) -> SparseSolutionSet:
    """The l0 solution set read off the basic solutions: the smallest support
    size among them and every basic solution of that size."""
    level = min(len(s.support) for s in basics)
    return SparseSolutionSet(level, tuple(s for s in basics if len(s.support) == level))


def solve_lp_basic(
    prob: SparseProblem,
    p: float,
    budget: int | None = None,
    basics: tuple[SparseSolution, ...] | None = None,
) -> LpMinimum:
    """Global lp minimum over basic solutions (ties within 1e-10 relative)."""
    if basics is None:
        basics = enumerate_basic_solutions(prob, budget=budget)
    # zero padding adds exactly 0.0 to each row's exact sum
    padded = np.zeros((len(basics), max(len(s.coefficients) for s in basics)))
    for row, s in zip(padded, basics):
        row[: len(s.coefficients)] = s.coefficients
    values = lp_power_sum(padded, p)
    vmin = min(values)
    tie = vmin + 1e-10 * max(1.0, abs(vmin))
    winners = tuple(s for s, v in zip(basics, values) if v <= tie)
    return LpMinimum(p=p, value=vmin, minimizers=winners)


def null_space_basis(A: DenseMatrix) -> np.ndarray:
    """Orthonormal kernel basis as columns, shape (n, n - rank).

    Rank uses the eigenvalue convention of the matrix: singular values below
    sqrt(tol) * sigma_max are zero.
    """
    M = A.entries
    _, s, vt = np.linalg.svd(M, full_matrices=True)
    smax = s[0] if s.size else 0.0
    rank = int(np.sum(s > math.sqrt(A.tol) * smax)) if smax > 0.0 else 0
    return vt[rank:].T.copy()


def sample_null(
    A: DenseMatrix,
    count: int,
    seed: int,
    scales: tuple[float, ...] = DEFAULT_SCALES,
    witness: tuple[int, ...] | None = None,
    budget: int | None = None,
) -> list[KernelSample]:
    """Deterministic mixture of kernel vectors, `count` base directions each
    emitted at every scale.

    Kinds: "unit" (random unit directions in the kernel), "signed"
    (+-1 combinations of the basis), and one "minsupport" vector supported on
    a spark witness set (||h||_0 = spark(A)) when a witness is available --
    the adversarial end of the kernel: smallest support, largest chance of
    touching few coordinates.
    """
    basis = null_space_basis(A)
    dim = basis.shape[1]
    if dim == 0:
        raise ValueError("trivial kernel: nothing to sample")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)

    if witness is None:
        try:
            witness = compute_spark(A, budget=budget).witness
        except (BudgetExceededError, ValueError):
            witness = None

    base: list[tuple[np.ndarray, str]] = []
    if witness is not None:
        sub = A.entries[:, list(witness)]
        _, _, vt = np.linalg.svd(sub)
        v = vt[-1]
        h = np.zeros(A.cols)
        h[list(witness)] = v
        base.append((h / np.linalg.norm(h), "minsupport"))
    while len(base) < count:
        if len(base) % 2 == 0:
            g = rng.standard_normal(dim)
            kind = "unit"
        else:
            g = rng.choice([-1.0, 1.0], size=dim)
            kind = "signed"
        h = basis @ g
        norm = float(np.linalg.norm(h))
        if norm <= 1e-12:
            continue
        base.append((h / norm, kind))

    out = []
    for h, kind in base[:count]:
        for s in scales:
            out.append(KernelSample(vector=h * s, kind=kind, scale=float(s)))
    return out


def support_partition(x_star, h, k: int | None = None) -> SupportPartition:
    """Partition indices into supp(x*) and k-blocks of its complement ordered
    by decreasing |h| (ties broken toward the lower index)."""
    x = np.asarray(x_star, dtype=float)
    hv = np.asarray(h, dtype=float)
    if x.shape != hv.shape:
        raise ValueError("x_star and h must share a shape")
    s0 = np.flatnonzero(x != 0.0)
    if k is None:
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
    h_set,
    p: float,
    seed: int | None = None,
    p_star: float | None = None,
) -> EquivalenceReport:
    """Margins ||x*+h||_p^p - ||x*||_p^p over a kernel sample set.

    A violation is margin <= 0 (ties count as violations: the claim under
    test is strict).  argmin_match is left unset; the T1 harness fills it.
    """
    items = list(h_set)
    if not items:
        raise ValueError("empty kernel sample set")
    H = np.array(
        [item.vector if isinstance(item, KernelSample) else item for item in items], dtype=float
    )
    margins = lp_margin(x_star, H, p)
    violations: list[dict] = []
    for idx, (item, margin) in enumerate(zip(items, margins)):
        if margin <= 0.0:
            entry = {"index": idx, "margin": margin, "p": p}
            if isinstance(item, KernelSample):
                entry["kind"] = item.kind
                entry["scale"] = item.scale
                entry["h"] = [float(v) for v in item.vector]
            violations.append(entry)
    return EquivalenceReport(
        p=p,
        margin_min=min(margins),
        argmin_match=None,
        trials=len(items),
        seed=seed,
        below_threshold=None if p_star is None else p < p_star,
        violations=tuple(violations),
        margins=tuple(margins),
    )


def plant_sparse_instance(
    A: DenseMatrix, k: int, seed: int, coeff_range: tuple[float, float] = (0.5, 2.0)
) -> PlantedInstance:
    """b = A x* for a random k-sparse x* with coefficients +-[lo, hi]."""
    n = A.cols
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    rng = np.random.default_rng(seed)
    support = np.sort(rng.choice(n, size=k, replace=False))
    coeff = rng.uniform(*coeff_range, size=k) * rng.choice([-1.0, 1.0], size=k)
    x = np.zeros(n)
    x[support] = coeff
    prob = SparseProblem(matrix=A, b=A.entries @ x)
    return PlantedInstance(
        problem=prob, x_star=x, support=tuple(int(v) for v in support), k=k, seed=seed
    )


def plant_with_level(
    A: DenseMatrix, k: int, seed: int, retries: int = 20, budget: int | None = None
) -> tuple[PlantedInstance, SparseSolutionSet]:
    """Plant until the instance's true l0 level equals k (the planted x* is
    then *an* l0 solution, which is all the T2/T3 hypotheses need)."""
    for i in range(retries):
        inst = plant_sparse_instance(A, k, derive_seed(seed, f"plant-{i}"))
        sol = solve_l0(inst.problem, budget=budget)
        if sol.level == k:
            return inst, sol
    raise SamplingError(f"no planted instance reached l0 level {k} in {retries} tries")


def default_p_grid(p_star: float) -> tuple[float, ...]:
    """{p*/8, p*/4, p*/2, 0.9 p*, p*, 1.1 p*, 0.5, 1} clamped to (0, 1]."""
    raw = [p_star / 8, p_star / 4, p_star / 2, 0.9 * p_star, p_star, 1.1 * p_star, 0.5, 1.0]
    return tuple(sorted({p for p in raw if 0.0 < p <= 1.0}))


def verify_theorem1(
    A: DenseMatrix,
    k: int,
    trials: int = 210,
    p_grid: tuple[float, ...] | None = None,
    seed: int = 0,
    budget: int | None = None,
) -> Theorem1Report:
    """T1 harness: plant a k-sparse instance (k < spark/2), enumerate its
    basic solutions once (the l0 solutions are the smallest of them), then
    sweep margins and the basic-solution lp argmin across the p grid.

    Grid points below p_star are the claim under test; points at or above it
    are recorded without judgement.  Counterexamples carry enough data to
    replay: the violating h, p, and margin.
    """
    cert = compute_spark(A, budget=budget)
    if not 1 <= k or 2 * k >= cert.spark:
        raise ValueError(f"need 1 <= k < spark/2 = {cert.spark / 2}, got k={k}")
    inst = plant_sparse_instance(A, k, derive_seed(seed, "plant"))
    summary = gram_spectrum(A)
    grid = default_p_grid(summary.p_star) if p_grid is None else tuple(sorted(set(p_grid)))
    below_empty = not any(p < summary.p_star for p in grid)

    count = max(1, math.ceil(trials / len(DEFAULT_SCALES)))
    samples = sample_null(
        A, count=count, seed=derive_seed(seed, "null"), witness=cert.witness, budget=budget
    )
    basics = enumerate_basic_solutions(inst.problem, budget=budget)
    sol = _l0_from_basics(basics)
    l0_supports = set(sol.supports)

    reports: list[EquivalenceReport] = []
    counterexamples: list[dict] = []
    for p in grid:
        rep = verify_strict_inequality(inst.x_star, samples, p, seed=seed, p_star=summary.p_star)
        lp_min = solve_lp_basic(inst.problem, p, basics=basics)
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
        trials=len(samples),
        seed=seed,
        grid_below_threshold_empty=below_empty,
        x_star=tuple(inst.x_star.tolist()),
        sample_labels=tuple((s.kind, s.scale) for s in samples),
    )


def theorem2_sequences(
    m: int, l1_abs: float, l2_abs: float, p_check: float, t: float
) -> tuple[float, float]:
    """The T2 scale pair at step t:

        x_t = (m+1)**(1/p_check) / (l1_abs * t),    y_t = 1 / (l2_abs * t).

    l1_abs >= l2_abs > 0 are the two largest |<B_i, h>| after sorting; a zero
    l2_abs means h is orthogonal to all but at most one continuation row and
    the construction is degenerate (raise; the harness records such h
    separately).  x_t may overflow to inf for very small p_check -- callers
    needing the explicit matrix must check, the power-domain bookkeeping
    never does.
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
    return x_t, y_t


def _strictly_decreasing(vals) -> bool:
    return all(a > b for a, b in zip(vals, vals[1:]))


def verify_theorem2(
    spec: VandermondeSpec,
    x_star,
    p_check: float | None = None,
    t_schedule: tuple[float, ...] = DEFAULT_T_SCHEDULE,
    trials: int = 21,
    seed: int = 0,
    budget: int | None = None,
) -> Theorem2Report:
    """T2 harness for n >= 2m+2.

    Per kernel vector h and step t it rebuilds the augmentation whose scaled
    rows follow the sorted |l_i| order, forms the lifted kernel vector
    hhat(t) from the identity rows, and checks, in the p-power domain:

      * head dominance     (m+1)/t^p >= sum_{i>=2} |hhat_i|^p
      * tail bound         |hhat_i| <= 1/t for i >= 3
      * the lifted chain   ||xcheck(t)||_p^p < ||xcheck(t)+hhat(t)||_p^p
      * the claim itself   ||x*||_p^p < ||x*+h||_p^p

    |hhat_1|^p = |xcheck_{n+1}|^p = (m+1)/t^p in closed form, so nothing here
    overflows even when x_t itself does; explicit-matrix residual and
    p_star(A_t) checks run whenever the scales are representable.  The
    instance-level limit |p_star(A_t) -> p_star(A_0)| uses x_t = y_t = 1/t.
    """
    spec.require_distinct_abs()
    m, n = spec.m, spec.n
    if n < 2 * m + 2:
        raise ValueError(f"T2 needs n >= 2m+2 = {2 * m + 2}, got n={n}")
    x = np.asarray(x_star, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"x_star must have shape ({n},)")
    k = int(np.sum(x != 0.0))
    if not (m + 1) / 2 <= k <= m:
        raise ValueError(f"need (m+1)/2 <= ||x*||_0 <= m, got {k}")

    A = build_vandermonde(spec)
    prob = SparseProblem(matrix=A, b=A.entries @ x)
    level = solve_l0(prob, budget=budget).level
    hypothesis_ok = level == k

    A0 = build_augmented_0(spec)
    p_star0 = gram_spectrum(A0).p_star
    p = p_star0 / 2 if p_check is None else float(p_check)
    if not 0.0 < p < p_star0:
        raise ValueError(f"p_check must lie in (0, p_star(A_0)) = (0, {p_star0}), got {p}")

    gaps = []
    for t in t_schedule:
        At = build_augmented_t(AugmentedSpec(base=spec, x_t=1.0 / t, y_t=1.0 / t))
        gaps.append(abs(gram_spectrum(At).p_star - p_star0))
    limit_monotone = _strictly_decreasing(gaps)
    final_gap_ratio = gaps[-1] / p_star0

    B = b_vectors(spec)
    count = max(1, math.ceil(trials / len(DEFAULT_SCALES)))
    samples = sample_null(A, count=count, seed=derive_seed(seed, "thm2-null"), budget=budget)

    base_power = lp_power_sum(x, p)
    H = np.array([sample.vector for sample in samples])
    margins = lp_margin(x, H, p)
    shifted_powers = lp_power_sum(x + H, p)
    margin_min = math.inf
    violations: list[dict] = []
    records: list[dict] = []
    degenerate = 0
    for idx, sample in enumerate(samples):
        h = sample.vector
        l = B @ h
        order = np.lexsort((np.arange(m + 2), -np.abs(l)))
        labs = np.abs(l[order])
        if labs[1] <= POWER_FLOOR:
            degenerate += 1
            records.append(
                {"index": idx, "kind": sample.kind, "scale": sample.scale, "degenerate": True}
            )
            continue
        final_margin = margins[idx]
        margin_min = min(margin_min, final_margin)
        if final_margin <= 0.0:
            violations.append(
                {
                    "index": idx,
                    "kind": sample.kind,
                    "scale": sample.scale,
                    "p": p,
                    "margin": final_margin,
                    "h": [float(v) for v in h],
                }
            )
        shifted_power = shifted_powers[idx]
        steps = []
        for t in t_schedule:
            x_t, y_t = theorem2_sequences(m, float(labs[0]), float(labs[1]), p, t)
            tail = -(l[order[1:]] / labs[1]) / t  # hhat_2 .. hhat_{m+2}
            head_power = (m + 1) / t**p
            tail_power = lp_power_sum(tail, p)
            dominance_ok = head_power >= tail_power * (1.0 - 1e-12)
            tail_bound_ok = bool(np.all(np.abs(tail[1:]) <= (1.0 / t) * (1.0 + 1e-12)))
            chain_margin = (shifted_power + tail_power) - (base_power + head_power)
            step: dict = {
                "t": t,
                "log10_x_t": (math.log10(m + 1) / p - math.log10(labs[0]) - math.log10(t)),
                "dominance_ok": dominance_ok,
                "tail_bound_ok": tail_bound_ok,
                "chain_margin": chain_margin,
                "lifted_l0": k + 1,
            }
            if x_t <= MAX_EXPLICIT_SCALE and y_t <= MAX_EXPLICIT_SCALE:
                scales = np.concatenate([[x_t], np.full(m + 1, y_t)])
                At_ord = _augmented_with_scales(spec, scales, order=order)
                hhat1 = -x_t * l[order[0]]
                hhat = np.concatenate([h, [hhat1], tail])
                resid = float(np.linalg.norm(At_ord.entries @ hhat))
                p_star_t = gram_spectrum(At_ord).p_star
                step["explicit_residual"] = resid
                step["p_star_t"] = p_star_t
                step["chain_applicable"] = p < p_star_t
            else:
                step["explicit_skipped"] = "x_t overflow at this p_check"
            steps.append(step)
        records.append(
            {
                "index": idx,
                "kind": sample.kind,
                "scale": sample.scale,
                "l1_abs": float(labs[0]),
                "l2_abs": float(labs[1]),
                "final_margin": final_margin,
                "steps": steps,
            }
        )
    return Theorem2Report(
        m=m,
        n=n,
        k=k,
        level=level,
        hypothesis_ok=hypothesis_ok,
        p_star0=p_star0,
        p_check=p,
        limit_gaps=tuple(gaps),
        limit_monotone=limit_monotone,
        final_gap_ratio=final_gap_ratio,
        margin_min=margin_min,
        violations=tuple(violations),
        degenerate=degenerate,
        records=tuple(records),
        trials=len(samples),
        seed=seed,
    )


def verify_theorem3(
    spec: VandermondeSpec,
    x_star,
    p_check: float | None = None,
    trials: int = 21,
    seed: int = 0,
    budget: int | None = None,
) -> Theorem3Report:
    """T3 harness for m < n < 2m+2: extend the nodes to 2m+2, embed kernel
    vectors by zero padding, and check margins below p_star of the extended
    block augmentation.

    Embedding facts verified on samples: padded kernel vectors of A(m,n,lam)
    lie in the kernel of A(m,2m+2,lam*), and padded kernel vectors of the
    extended Vandermonde lie in the kernel of its block augmentation A_0.
    """
    spec.require_distinct_abs()
    m, n = spec.m, spec.n
    if not m < n < 2 * m + 2:
        raise ValueError(f"T3 needs m < n < 2m+2, got m={m}, n={n}")
    x = np.asarray(x_star, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"x_star must have shape ({n},)")
    k = int(np.sum(x != 0.0))
    if not (m + 1) / 2 <= k <= m:
        raise ValueError(f"need (m+1)/2 <= ||x*||_0 <= m, got {k}")

    A = build_vandermonde(spec)
    prob = SparseProblem(matrix=A, b=A.entries @ x)
    level = solve_l0(prob, budget=budget).level
    hypothesis_ok = level == k

    ext = extend_lambda(spec, derive_seed(seed, "thm3-extend"))
    A_ext = build_vandermonde(ext)
    A0_ext = build_augmented_0(ext)
    p_star0 = gram_spectrum(A0_ext).p_star
    p = p_star0 / 2 if p_check is None else float(p_check)
    if not 0.0 < p < p_star0:
        raise ValueError(f"p_check must lie in (0, p_star(A_0(lam*))) = (0, {p_star0}), got {p}")

    count = max(1, math.ceil(trials / len(DEFAULT_SCALES)))
    samples = sample_null(A, count=count, seed=derive_seed(seed, "thm3-null"), budget=budget)

    pad_n = ext.n - n
    H = np.array([sample.vector for sample in samples])
    H_tilde = np.pad(H, ((0, 0), (0, pad_n)))
    margins = lp_margin(x, H, p)
    # padding with zeros changes neither side of the inequality
    margins_emb = lp_margin(np.pad(x, (0, pad_n)), H_tilde, p)
    worst_embed = 0.0
    margin_min = math.inf
    violations: list[dict] = []
    for idx, sample in enumerate(samples):
        h = sample.vector
        h_tilde = H_tilde[idx]
        resid = float(np.linalg.norm(A_ext.entries @ h_tilde)) / float(np.linalg.norm(h_tilde))
        worst_embed = max(worst_embed, resid)
        margin = margins[idx]
        if not math.isclose(margin, margins_emb[idx], rel_tol=1e-9, abs_tol=1e-12):
            raise AssertionError("zero padding changed an lp margin")
        margin_min = min(margin_min, margin)
        if margin <= 0.0:
            violations.append(
                {
                    "index": idx,
                    "kind": sample.kind,
                    "scale": sample.scale,
                    "p": p,
                    "margin": margin,
                    "h": [float(v) for v in h],
                }
            )

    # N(A(m, 2m+2, lam*)) zero-padded into N(A_0(lam*)): identity rows see zeros.
    ext_basis = null_space_basis(A_ext)
    worst_block = 0.0
    for j in range(ext_basis.shape[1]):
        g = np.concatenate([ext_basis[:, j], np.zeros(m + 2)])
        worst_block = max(worst_block, float(np.linalg.norm(A0_ext.entries @ g)))
    return Theorem3Report(
        m=m,
        n=n,
        extended_n=ext.n,
        k=k,
        level=level,
        hypothesis_ok=hypothesis_ok,
        p_star0=p_star0,
        p_check=p,
        worst_embed_residual=worst_embed,
        worst_block_residual=worst_block,
        margin_min=margin_min,
        violations=tuple(violations),
        trials=len(samples),
        seed=seed,
    )
