"""Structured matrix construction: Vandermonde families and their augmentations.

The base object is the m x n node-power matrix

    A(m, n, lam)[i, j] = lam_j ** i,        i = 0..m-1,  j = 0..n-1,

for nonzero nodes lam_1..lam_n.  When the |lam_j| are pairwise distinct every
square submatrix is invertible, which is what gives these matrices their
extreme sparse-recovery behaviour (spark m+1, see the spark module).

Two augmentations extend a base instance with m+2 extra rows and columns:

    A_t  : the m+2 node-power rows lam**m .. lam**(2m+1), the first scaled by
           x_t and the rest by y_t, glued to an (m+2)-identity column block;
           shape (2m+2) x (n+m+2).
    A_0  : the x_t, y_t -> 0 limit; block-diagonal Vandermonde + identity.

Everything here is deterministic; all randomness enters through explicit
seeds handed to numpy's default_rng.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import SamplingError

# Node sampling defaults: absolute values in [0.5, 2] with pairwise
# |.|-separation >= 0.05 keep node matrices resolvable under the rank policy
# (numerics.RANK_TOL) up to MAX_M.  Over seeds 0..99 and n = m+1..m+4,
# sigma_min/sigma_max of A stays above 1e-7 (cond(A A^T) reaches 2.7e11 at
# m = 6 and 2e13 at m = 8), and Gautschi's floor on sigma_min/sigma_max of
# every m x m node submatrix stays above 2.5e-11 = 2.5 RANK_TOL (m = 8);
# tests/test_calibration.py re-checks all of it.
DEFAULT_ABS_RANGE = (0.5, 2.0)
DEFAULT_SEPARATION = 0.05
MAX_M = 8

# Node sampling gives up after MAX_TRIES draws that miss the separation.
MAX_TRIES = 5000

# Guard for augmented shapes: total entries beyond this are a sign the caller
# is about to hand an unenumerable instance to the subset machinery anyway.
_MAX_ENTRIES = 10_000_000


@dataclass(frozen=True)
class VandermondeSpec:
    """Defining data of one node-power matrix instance.

    m: number of power rows (powers 0..m-1).
    lam: the n nonzero nodes, n >= m.
    seed: RNG seed the nodes came from, when sampled (provenance only).
    """

    m: int
    lam: tuple[float, ...]
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.m > MAX_M:
            raise ValueError(f"m={self.m} exceeds the calibrated limit {MAX_M}")
        lam = tuple(float(v) for v in self.lam)
        object.__setattr__(self, "lam", lam)
        if len(lam) < self.m:
            raise ValueError(f"need n >= m nodes, got n={len(lam)} < m={self.m}")
        arr = np.asarray(lam, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise ValueError("nodes must be finite")
        if np.any(arr == 0.0):
            raise ValueError("nodes must be nonzero")

    @property
    def n(self) -> int:
        return len(self.lam)

    @property
    def distinct_abs(self) -> bool:
        """True iff the |lam_j| are pairwise distinct (exact comparison)."""
        a = np.abs(np.asarray(self.lam))
        return len(np.unique(a)) == len(a)

    def require_distinct_abs(self) -> None:
        if not self.distinct_abs:
            raise ValueError(
                "operation requires pairwise distinct |lam_j| "
                f"(abs values: {sorted(abs(v) for v in self.lam)})"
            )

    def to_json_dict(self) -> dict:
        d: dict = {"m": self.m, "lambda": list(self.lam)}
        if self.seed is not None:
            d["seed"] = self.seed
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "VandermondeSpec":
        return cls(m=int(d["m"]), lam=tuple(d["lambda"]), seed=d.get("seed"))


@dataclass(frozen=True)
class AugmentedSpec:
    """Base spec plus the two strictly positive row scales of A_t."""

    base: VandermondeSpec
    x_t: float
    y_t: float

    def __post_init__(self) -> None:
        for name in ("x_t", "y_t"):
            v = float(getattr(self, name))
            object.__setattr__(self, name, v)
            if not (np.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {v}")


@dataclass
class DenseMatrix:
    """A concrete, finite, nonempty 2-D float64 array (an owned copy).

    Every rank decision on it follows the one policy of numerics.RANK_TOL;
    the matrix itself carries no tolerance.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=float, copy=True)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError(f"entries must be a nonempty 2-D array, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("entries must be finite")
        self.entries = arr

    @property
    def rows(self) -> int:
        return int(self.entries.shape[0])

    @property
    def cols(self) -> int:
        return int(self.entries.shape[1])

    def to_csv(self) -> str:
        """Row-major, headerless CSV; floats via repr for lossless round-trips."""
        lines = [",".join(repr(float(v)) for v in row) for row in self.entries]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "DenseMatrix":
        rows = []
        for line in text.strip().splitlines():
            line = line.strip()
            if not line:
                continue
            rows.append([float(v) for v in line.split(",")])
        if not rows:
            raise ValueError("empty CSV matrix")
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise ValueError(f"ragged CSV matrix (row widths {sorted(widths)})")
        return cls(entries=np.asarray(rows, dtype=float))

    def to_json_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [float(v) for v in self.entries.ravel()],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "DenseMatrix":
        """Inverse of to_json_dict; a "tol" key from older envelopes is ignored."""
        rows, cols = int(d["rows"]), int(d["cols"])
        flat = np.asarray(d["entries"], dtype=float)
        if flat.size != rows * cols:
            raise ValueError(f"envelope claims {rows}x{cols} but carries {flat.size} entries")
        return cls(entries=flat.reshape(rows, cols))


def power_rows(lam, powers) -> np.ndarray:
    """Stack rows lam**p for each p in powers (shape len(powers) x len(lam)).

    Single shared evaluation path so structurally equal blocks of different
    builders compare exactly equal entrywise.
    """
    lam = np.asarray(lam, dtype=float)
    powers = np.asarray(powers, dtype=float)
    return lam[None, :] ** powers[:, None]


def build_vandermonde(spec: VandermondeSpec) -> DenseMatrix:
    """The m x n matrix with entry (i, j) = lam_j ** i.

    Duplicate nodes are allowed here (the result is merely rank deficient);
    operations that need invertible submatrices check distinct_abs themselves.
    """
    return DenseMatrix(entries=power_rows(spec.lam, np.arange(spec.m)))


def b_vectors(spec: VandermondeSpec) -> np.ndarray:
    """The m+2 continuation rows B_i = (lam_1**(m+i-1), ..., lam_n**(m+i-1)), i = 1..m+2.

    Stacking build_vandermonde(spec) over these rows reproduces the full
    node-power matrix with powers 0..2m+1.
    """
    m = spec.m
    return power_rows(spec.lam, np.arange(m, 2 * m + 2))


def _augmented_with_scales(spec: VandermondeSpec, scales, orders) -> np.ndarray:
    """Assemble a (count, 2m+2, n+m+2) block of augmentations, one per row of
    scales and orders, both (count, m+2).

    Matrix c gives B-row orders[c, r] the scale scales[c, r] in scaled slot r
    (the natural order is 0..m+1); the identity block is glued row-aligned so
    each scaled row r carries the identity column for slot r.  Each matrix is
    C-contiguous, laid out as a DenseMatrix's entries.
    """
    m, n = spec.m, spec.n
    rows, cols = 2 * m + 2, n + m + 2
    if rows * cols > _MAX_ENTRIES:
        raise ValueError(f"augmented shape {rows}x{cols} exceeds the entry guard")
    scales = np.asarray(scales, dtype=float)
    orders = np.asarray(orders, dtype=np.intp)
    if scales.ndim != 2 or scales.shape[1] != m + 2 or orders.shape != scales.shape:
        raise ValueError(
            f"need (count, m+2) scales and orders, got shapes {scales.shape}, {orders.shape}"
        )
    out = np.zeros((len(scales), rows, cols))
    out[:, :m, :n] = power_rows(spec.lam, np.arange(m))
    out[:, m:, :n] = scales[:, :, None] * b_vectors(spec)[orders]
    out[:, m:, n:] = np.eye(m + 2)
    if not np.all(np.isfinite(out)):
        raise ValueError("entries must be finite")
    return out


def build_augmented_t(aug: AugmentedSpec) -> DenseMatrix:
    """A_t: power rows 0..m-1, then x_t * lam**m, then y_t * lam**(m+1..2m+1),
    with the identity block on the right of the scaled rows."""
    m = aug.base.m
    scales = np.concatenate([[aug.x_t], np.full(m + 1, aug.y_t)])
    block = _augmented_with_scales(aug.base, scales[None], np.arange(m + 2)[None])
    return DenseMatrix(entries=block[0])


def build_augmented_0(spec: VandermondeSpec) -> DenseMatrix:
    """A_0: the x_t, y_t -> 0 limit; block-diagonal (Vandermonde, I_{m+2})."""
    m, n = spec.m, spec.n
    rows, cols = 2 * m + 2, n + m + 2
    out = np.zeros((rows, cols))
    out[:m, :n] = power_rows(spec.lam, np.arange(m))
    out[m:, n:] = np.eye(m + 2)
    return DenseMatrix(entries=out)


def _sample_separated_abs(
    rng: np.random.Generator,
    count: int,
    taken_abs: list[float],
    abs_range: tuple[float, float],
    separation: float,
) -> list[float]:
    """Draw `count` absolute values in abs_range, pairwise separated from each
    other and from taken_abs by at least `separation`."""
    lo, hi = abs_range
    if not (0.0 < lo < hi):
        raise ValueError(f"invalid abs_range {abs_range}")
    got: list[float] = []
    tries = 0
    while len(got) < count:
        tries += 1
        if tries > MAX_TRIES:
            raise SamplingError(
                f"could not place {count} nodes with separation {separation} "
                f"in {abs_range} after {MAX_TRIES} draws"
            )
        cand = float(rng.uniform(lo, hi))
        if all(abs(cand - a) >= separation for a in taken_abs + got):
            got.append(cand)
    return got


def sample_instance(
    m: int,
    n: int,
    seed: int,
    abs_range: tuple[float, float] = DEFAULT_ABS_RANGE,
    separation: float = DEFAULT_SEPARATION,
) -> VandermondeSpec:
    """Random instance with |lam_j| in abs_range, pairwise |.|-separation
    >= separation, random signs.  Deterministic per seed."""
    rng = np.random.default_rng(seed)
    mags = _sample_separated_abs(rng, n, [], abs_range, separation)
    signs = rng.choice([-1.0, 1.0], size=n)
    lam = tuple(s * v for s, v in zip(signs, mags))
    return VandermondeSpec(m=m, lam=lam, seed=seed)


def extend_lambda(spec: VandermondeSpec, seed: int) -> VandermondeSpec:
    """Extend a node vector with n < 2m+2 to exactly 2m+2 nodes, keeping all
    absolute values pairwise distinct (new ones drawn as sample_instance's
    defaults draw them, also separated from the old)."""
    spec.require_distinct_abs()
    target = 2 * spec.m + 2
    if spec.n >= target:
        raise ValueError(f"spec already has n={spec.n} >= 2m+2={target} nodes")
    rng = np.random.default_rng(seed)
    taken = [abs(v) for v in spec.lam]
    mags = _sample_separated_abs(rng, target - spec.n, taken, DEFAULT_ABS_RANGE, DEFAULT_SEPARATION)
    signs = rng.choice([-1.0, 1.0], size=len(mags))
    lam = tuple(spec.lam) + tuple(s * v for s, v in zip(signs, mags))
    out = VandermondeSpec(m=spec.m, lam=lam, seed=seed)
    out.require_distinct_abs()
    return out
