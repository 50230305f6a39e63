"""In-memory call tracer for the lp_equiv package, used by the benchmark's traced run.

The package binds functions across modules with ``from .x import f``, so
``solvers``, ``suite`` and ``analysis`` each hold their own reference to, say,
``compute_spark``.  Patching the defining module alone would miss those nested
calls; the tracer instead rebinds every module-level alias of each traced
function in every ``lp_equiv`` module, and wraps the ``numpy.linalg`` entry
points the package calls to count LAPACK calls and stacked matrices.
``restore`` puts every binding back exactly as it was found.

Each traced call appends one span (name, parent span, start, end) to flat
in-memory arrays; nothing is aggregated or printed until ``summary`` runs
after the traced work has finished.  A span's self time is its duration minus
the durations of its direct child spans; a function's busy time sums only its
outermost spans, so recursion (``json_safe``) is not counted twice.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array

import numpy as np

PACKAGE = "lp_equiv"

# Traced functions, by defining module.  ``iter_subset_chunks`` is a
# generator: its spans cover the time spent producing each chunk.
TRACED = {
    "matgen": ("sample_instance", "build_vandermonde", "build_augmented_t", "build_augmented_0"),
    "numerics": ("lp_margin", "lp_power_sum", "abs_pow", "iter_subset_chunks"),
    "spark": ("compute_spark", "verify_prop1", "check_submatrix_invertibility"),
    "spectral": ("gram_spectrum", "restricted_extremes", "lemma1_constants"),
    "solvers": (
        "solve_l0",
        "enumerate_basic_solutions",
        "solve_lp_basic",
        "null_space_basis",
        "sample_null",
        "verify_strict_inequality",
        "plant_with_level",
        "verify_theorem1",
        "verify_theorem2",
        "verify_theorem3",
    ),
    "analysis": (
        "cross_term_check",
        "lemma2_sequence_check",
        "audit_theorem1_chain",
        "f_lemma3_grid",
        "phi_bound_grid",
    ),
    "suite": ("run_suite", "json_safe"),
}
GENERATORS = frozenset({"numerics.iter_subset_chunks"})
LAPACK = ("svd", "eigvalsh", "det", "lstsq")

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

# Derived counts: (metric name, unit, better).
COUNTS = (
    ("numerics.iter_subset_chunks.subsets", "count", "lower"),
    *(
        (f"lapack.{fn}.{kind}", "count", "lower")
        for fn in LAPACK
        for kind in ("calls", "matrices")
    ),
    ("solvers.basic_yield", "ratio", "higher"),
    ("solvers.enumerations_per_lp_solve", "ratio", "lower"),
    ("solvers.l0_solves_per_plant", "ratio", "lower"),
)


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric ``summary`` reports."""
    specs = []
    for name in SPAN_NAMES:
        specs += [(f"{name}.calls", "count", "lower"), (f"{name}.busy_s", "s", "lower"),
                  (f"{name}.self_s", "s", "lower")]
    return specs + list(COUNTS)


def package_modules() -> list:
    """The imported lp_equiv package and its submodules, in a stable order."""
    return [
        sys.modules[name]
        for name in sorted(sys.modules)
        if name == PACKAGE or name.startswith(PACKAGE + ".")
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Context manager: installs the wrappers on entry, restores on exit."""

    def __init__(self) -> None:
        self._index = {name: i for i, name in enumerate(SPAN_NAMES)}
        self._names = array("i")
        self._parents = array("i")
        self._starts = array("d")
        self._ends = array("d")
        self._outer = array("b")
        self._stack = [-1]
        self._active = [0] * len(SPAN_NAMES)
        self.calls = [0] * len(SPAN_NAMES)
        self._subsets_by_caller = [0] * (len(SPAN_NAMES) + 1)  # last slot: untraced caller
        self.basic_solutions = 0
        self.lapack_calls = dict.fromkeys(LAPACK, 0)
        self.lapack_matrices = dict.fromkeys(LAPACK, 0)
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = package_modules()
        if not modules:
            raise RuntimeError(f"{PACKAGE} is not imported")
        try:
            for name in SPAN_NAMES:
                mod, fn = name.split(".")
                original = getattr(sys.modules[f"{PACKAGE}.{mod}"], fn)
                wrapper = self._wrap_generator(name, original) if name in GENERATORS \
                    else self._wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
            for fn in LAPACK:
                self._patch(np.linalg, fn, self._wrap_lapack(fn, getattr(np.linalg, fn)))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- wrappers -----------------------------------------------------------

    def _open_span(self, idx: int) -> int:
        sid = len(self._starts)
        self._names.append(idx)
        self._parents.append(self._stack[-1])
        self._outer.append(self._active[idx] == 0)
        self._starts.append(0.0)
        self._ends.append(0.0)
        self._active[idx] += 1
        self._stack.append(sid)
        return sid

    def _close_span(self, idx: int, sid: int, t0: float, t1: float) -> None:
        self._starts[sid] = t0
        self._ends[sid] = t1
        self._active[idx] -= 1
        self._stack.pop()

    def _wrap(self, name: str, fn):
        idx = self._index[name]
        calls = self.calls
        perf = time.perf_counter
        counts_basics = name == "solvers.enumerate_basic_solutions"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[idx] += 1
            sid = self._open_span(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close_span(idx, sid, t0, perf())
            if counts_basics:
                self.basic_solutions += len(result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        """Count the call when the generator is created, attributing its
        subsets to the traced caller; one span per chunk produced."""
        idx = self._index[name]
        perf = time.perf_counter

        def chunks(inner, slot: int):
            try:
                while True:
                    sid = self._open_span(idx)
                    t0 = perf()
                    try:
                        block = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close_span(idx, sid, t0, perf())
                    self._subsets_by_caller[slot] += len(block)
                    yield block
            finally:
                inner.close()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[idx] += 1
            caller = self._stack[-1]
            slot = self._names[caller] if caller >= 0 else len(SPAN_NAMES)
            return chunks(fn(*args, **kwargs), slot)

        return traced

    def _wrap_lapack(self, fn_name: str, fn):
        calls, matrices = self.lapack_calls, self.lapack_matrices

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            calls[fn_name] += 1
            matrices[fn_name] += math.prod(np.shape(a)[:-2])
            return fn(a, *args, **kwargs)

        return counted

    # -- results ------------------------------------------------------------

    def edge_counts(self) -> dict[tuple[str, str], int]:
        """Number of spans of each (parent name, child name) pair."""
        names = np.frombuffer(self._names, dtype=np.int32)
        parents = np.frombuffer(self._parents, dtype=np.int32)
        has_parent = parents >= 0
        size = len(SPAN_NAMES)
        pair_ids = names[parents[has_parent]].astype(np.int64) * size + names[has_parent]
        counts = np.bincount(pair_ids, minlength=size * size)
        return {
            (SPAN_NAMES[p // size], SPAN_NAMES[p % size]): int(counts[p])
            for p in np.flatnonzero(counts).tolist()
        }

    def summary(self) -> dict[str, float]:
        """Every metric of ``metric_specs``, from the spans recorded so far."""
        if len(self._stack) != 1:
            raise RuntimeError("summary() called while traced calls are still open")
        names = np.frombuffer(self._names, dtype=np.int32)
        parents = np.frombuffer(self._parents, dtype=np.int32)
        outer = np.frombuffer(self._outer, dtype=np.int8).astype(bool)
        dur = np.frombuffer(self._ends) - np.frombuffer(self._starts)
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        size = len(SPAN_NAMES)
        busy = np.bincount(names[outer], weights=dur[outer], minlength=size)
        self_time = np.bincount(names, weights=dur - child, minlength=size)

        out: dict[str, float] = {}
        for i, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.busy_s"] = float(busy[i])
            out[f"{name}.self_s"] = float(self_time[i])
        out["numerics.iter_subset_chunks.subsets"] = sum(self._subsets_by_caller)
        for fn in LAPACK:
            out[f"lapack.{fn}.calls"] = self.lapack_calls[fn]
            out[f"lapack.{fn}.matrices"] = self.lapack_matrices[fn]

        enum = self._index["solvers.enumerate_basic_solutions"]
        call = dict(zip(SPAN_NAMES, self.calls))
        edges = self.edge_counts()
        out["solvers.basic_yield"] = _ratio(self.basic_solutions, self._subsets_by_caller[enum])
        out["solvers.enumerations_per_lp_solve"] = _ratio(
            call["solvers.enumerate_basic_solutions"], call["solvers.solve_lp_basic"]
        )
        out["solvers.l0_solves_per_plant"] = _ratio(
            edges.get(("solvers.plant_with_level", "solvers.solve_l0"), 0),
            call["solvers.plant_with_level"],
        )
        return out
