"""Benchmark for lp-equiv: verification campaigns timed end to end, plus a
traced run that splits the time by package module.

Run from the repository root:

    python3 perfbench/run.py --workload t1-sweep --seed 1 --seconds 30 --trace 0

The runner imports the package from ``src/`` of the checkout it lives in and
drives it only through public functions, in one process on one thread.  It
prints the environment, a per-metric table and the run's result digest, and
ends with one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0``: set-up is repeated SETUP_REPEATS times (fresh import of the
package, generating the seeded inputs, one warm-up unit) and its median is
``setup_s``.  Then whole passes over the inputs run while the next pass still
fits in ``--seconds``.  Each unit's time is the median over the passes, and
``units_per_s`` is the unit count over the sum of those times.  All times are
in nominal-host seconds (see ``HostSpeed``): a shared virtual machine's speed
can swing by 1.5x for tens of seconds at a time.

``--trace 1``: passes alternate untraced and traced (each one generating its
inputs and running every unit), reporting per-module calls, busy and self
time (median over traced passes) and exact counts.  The tracing overhead is
the gap between the units' summed median scaled times, traced and untraced.

Every unit checks the package's asserted outcome; failures are counted, never
raised.  Every pass must reproduce the same result digest.
"""

import os

# BLAS must be pinned before numpy loads: with the default two threads on a
# two-core machine the margin sweep ran both slower and noisier.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ".perfbench-work"  # relative to ROOT, so suite manifests (and digests) do not name the checkout
SETUP_REPEATS = 7
MAX_TRACEBACKS = 3
# The reference kernel's time on an idle core of a 2.1 GHz x86-64 VM
# (OpenBLAS 0.3.31, one thread), and how often it is re-measured.
REF_NOMINAL_S = 0.0045
REF_INTERVAL_S = 0.05

END_TO_END = (
    ("setup_s", "s"),
    ("units_per_s", "1/s"),
    ("unit_p50_ms", "ms"),
    ("unit_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    *tracer.metric_specs(),
    ("suite.artifact_bytes", "bytes", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0


@dataclass
class Pass:
    wall: float
    digest: str
    unit_seconds: list[float] = field(default_factory=list)
    artifact_bytes: int = 0
    layers: dict | None = None


class HostSpeed:
    """Converts wall seconds into nominal-host seconds.

    Between units, at most every REF_INTERVAL_S, it times a fixed reference
    kernel that does not use the package: small SVDs, exp/log over short
    vectors and exact sums, the same kind of work the package does.  A wall
    time is scaled by REF_NOMINAL_S over the mean of the two reference
    samples that bracket it, so a slower host phase cancels out while a
    slower package does not.  Paired this way, per-unit medians spread about
    3% across runs where raw times spread 15-40%.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._matrix = rng.standard_normal((6, 10))
        self._vector = rng.standard_normal(12)
        self._svd = np.linalg.svd  # bound now, so a tracer installed later never counts it
        self.samples: list[float] = []
        self._pending: list[tuple[float, list]] = []
        self._previous = self._measure()
        self._last = time.perf_counter()

    def _measure(self) -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(400):
            s = self._svd(self._matrix[:, i % 5 : i % 5 + 4], compute_uv=False)
            acc += math.fsum(np.exp(0.3 * np.log(np.abs(self._vector + s[0]))).tolist())
        seconds = time.perf_counter() - t0
        if not math.isfinite(acc):
            raise RuntimeError("reference kernel produced a non-finite sum")
        self.samples.append(seconds)
        return seconds

    def add(self, seconds: float, sink: list) -> None:
        """Queue a wall time; it lands in sink, scaled, once a later reference sample brackets it."""
        self._pending.append((seconds, sink))
        if time.perf_counter() - self._last >= REF_INTERVAL_S:
            self.flush()

    def flush(self) -> None:
        current = self._measure()
        scale = REF_NOMINAL_S / (0.5 * (self._previous + current))
        for seconds, sink in self._pending:
            sink.append(seconds * scale)
        self._pending.clear()
        self._previous = current
        self._last = time.perf_counter()


def import_package():
    """Import lp_equiv afresh from the checkout's src/ (numpy stays loaded)."""
    for name in [n for n in sys.modules if n == tracer.PACKAGE or n.startswith(tracer.PACKAGE + ".")]:
        del sys.modules[name]
    lp = importlib.import_module(tracer.PACKAGE)
    if Path(lp.__file__).resolve().parent != SRC / tracer.PACKAGE:
        raise RuntimeError(f"imported {lp.__file__}, not the checkout's package under {SRC}")
    return lp


def run_unit(workload, lp, unit, tally: Tally):
    """One verification call; exceptions and failed asserted checks count as failures."""
    tally.attempted += 1
    try:
        outcome = workload.run_unit(lp, unit, WORKDIR)
    except Exception:
        tally.failed += 1
        if tally.failed <= MAX_TRACEBACKS:
            traceback.print_exc(file=sys.stderr)
        return None
    if not outcome.ok:
        tally.failed += 1
    return outcome


def run_pass(workload, lp, units, tally: Tally, host: HostSpeed, scaled: list[list[float]]) -> Pass:
    """Run every unit once; unit i's scaled time goes to scaled[i]."""
    digest = hashlib.sha256()
    times = []
    artifact_bytes = 0
    start = time.perf_counter()
    for i, unit in enumerate(units):
        t0 = time.perf_counter()
        outcome = run_unit(workload, lp, unit, tally)
        times.append(time.perf_counter() - t0)
        host.add(times[-1], scaled[i])
        blob = b"<failed>" if outcome is None else outcome.blob
        digest.update(len(blob).to_bytes(8, "little") + blob)
        artifact_bytes += 0 if outcome is None else outcome.artifact_bytes
    return Pass(time.perf_counter() - start, digest.hexdigest(), times, artifact_bytes)


def setup(workload, seed: int, tally: Tally, host: HostSpeed):
    """Import, input generation and one warm-up unit, timed SETUP_REPEATS times."""
    seconds: list[float] = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        lp = import_package()
        units = workload.make_inputs(lp, seed)
        run_unit(workload, lp, units[0], tally)
        host.add(time.perf_counter() - t0, seconds)
    host.flush()
    return lp, units, seconds


def measure(workload, lp, units, seconds: float, tally: Tally, host: HostSpeed):
    """Whole passes while the next one still fits; returns them with each unit's scaled times."""
    passes: list[Pass] = []
    scaled: list[list[float]] = [[] for _ in units]
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload, lp, units, tally, host, scaled))
        if time.perf_counter() - start + passes[-1].wall > seconds:
            host.flush()
            return passes, scaled


def measure_traced(workload, lp, seed: int, n: int, seconds: float, tally: Tally, host: HostSpeed):
    """Alternate untraced and traced passes over the n units; each pass generates its inputs.

    Returns both kinds of pass plus each unit's scaled untraced and traced times."""
    plain, traced = [], []
    plain_scaled: list[list[float]] = [[] for _ in range(n)]
    traced_scaled: list[list[float]] = [[] for _ in range(n)]
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        units = workload.make_inputs(lp, seed)
        plain.append(run_pass(workload, lp, units, tally, host, plain_scaled))
        plain[-1].wall = time.perf_counter() - t0

        t0 = time.perf_counter()
        with tracer.Tracer() as tr:
            units = workload.make_inputs(lp, seed)
            traced.append(run_pass(workload, lp, units, tally, host, traced_scaled))
        traced[-1].wall = time.perf_counter() - t0
        traced[-1].layers = tr.summary()
        if time.perf_counter() - start + plain[-1].wall + traced[-1].wall > seconds:
            host.flush()
            return plain, traced, plain_scaled, traced_scaled


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
    }


def _percentile(values: list[float], q: int) -> float:
    """q-th percentile (1..99) by statistics.quantiles' exclusive method."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end_metrics(setup_seconds: list[float], scaled: list[list[float]]) -> dict:
    unit_s = [statistics.median(times) for times in scaled]
    unit_ms = [t * 1e3 for t in unit_s]
    values = {
        "setup_s": statistics.median(setup_seconds),
        "units_per_s": len(unit_s) / sum(unit_s),
        "unit_p50_ms": statistics.median(unit_ms),
        "unit_p90_ms": _percentile(unit_ms, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def _is_count(name: str) -> bool:
    return not name.endswith("_s")


def per_layer_metrics(traced: list[Pass], plain_scaled, traced_scaled) -> tuple[dict, list[str]]:
    """Per-layer metrics plus the names of counts that differed between traced passes.

    Tracing overhead compares each unit's median scaled time traced and untraced."""
    first = traced[0].layers
    unstable = sorted(
        name for name in first if _is_count(name) and any(p.layers[name] != first[name] for p in traced)
    )
    if any(p.artifact_bytes != traced[0].artifact_bytes for p in traced):
        unstable.append("suite.artifact_bytes")
    values = {
        name: first[name] if _is_count(name) else statistics.median(p.layers[name] for p in traced)
        for name in first
    }
    values["suite.artifact_bytes"] = traced[0].artifact_bytes
    values["trace.overhead_frac"] = (
        sum(map(statistics.median, traced_scaled)) / sum(map(statistics.median, plain_scaled)) - 1.0
    )
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}, unstable


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / tracer.PACKAGE / "__init__.py").is_file():
        print(f"error: package source not found at {SRC / tracer.PACKAGE}", file=sys.stderr)
        return 2
    env = environment()
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    shutil.rmtree(WORKDIR, ignore_errors=True)
    os.makedirs(WORKDIR)
    try:
        workload = WORKLOADS[args.workload]
        tally = Tally()
        host = HostSpeed()
        lp, units, setup_seconds = setup(workload, args.seed, tally, host)
        if args.trace:
            plain, traced, plain_scaled, traced_scaled = measure_traced(
                workload, lp, args.seed, len(units), args.seconds, tally, host
            )
            passes = plain + traced
            metrics, unstable = per_layer_metrics(traced, plain_scaled, traced_scaled)
        else:
            passes, scaled = measure(workload, lp, units, args.seconds, tally, host)
            metrics, unstable = end_to_end_metrics(setup_seconds, scaled), []
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    digests = sorted({p.digest for p in passes})
    correct = tally.failed == 0 and len(digests) == 1 and not unstable
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes x {len(units)} units, setup runs {len(setup_seconds)} "
          f"(cold first one {setup_seconds[0]:.4f} s)")
    print(f"# pass walls (s): {' '.join(f'{p.wall:.3f}' for p in passes)}")
    if not args.trace:
        raw = [statistics.median(times) for times in zip(*(p.unit_seconds for p in passes))]
        print(f"# host reference kernel: median {statistics.median(host.samples) * 1e3:.3f} ms over "
              f"{len(host.samples)} samples (nominal {REF_NOMINAL_S * 1e3:g} ms); unscaled "
              f"units_per_s {len(raw) / sum(raw):.4f}, unit_p50_ms {statistics.median(raw) * 1e3:.4f}")
    print(f"# digest {' '.join(digests)}" + ("" if len(digests) == 1 else "  (passes DISAGREE)"))
    if unstable:
        print(f"# counts differed between traced passes: {', '.join(unstable)}")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'failed_frac':48s} {tally.failed / tally.attempted:>16.6g} ratio")
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
