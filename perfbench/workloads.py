"""The benchmark's three verification campaigns.

Each workload turns a seed into a fixed list of units (one verification call
each) and runs one unit at a time against the lp_equiv package, which is
passed in as a module so the runner can re-import it for every set-up.  A
unit returns whether the package's asserted outcome held, plus the bytes its
result digest covers.

Why these three: ``t1-sweep`` is dominated by the margin layer
(``numerics.lp_margin``/``abs_pow``), ``prop1-spark`` by the spark layer's
batched SVD scans, and ``suite-artifacts`` by support enumeration
(``enumerate_basic_solutions``/``solve_lp_basic``); it is also the only one
that reaches ``spectral``, ``analysis``, the deep-regime path and artifact
writing.  Each layer therefore has a workload that exercises it and one that
bypasses it.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
import struct
from dataclasses import dataclass

SUITE_ARTIFACTS = ("counterexamples.json", "manifest.json", "margins.csv", "phase_diagram.csv")


@dataclass(frozen=True)
class Outcome:
    ok: bool
    blob: bytes  # what the run's result digest covers
    artifact_bytes: int = 0


def _stream(lp, combos, label: str, seed: int):
    """(combo..., instance seed) tuples cycling over combos, one sub-seed each."""
    for round_no in itertools.count():
        for combo in combos:
            yield (*combo, lp.derive_seed(seed, f"{label}/{round_no}/{combo}"))


def _floats(values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def _ints(values) -> bytes:
    return struct.pack(f"<{len(values)}q", *values)


class T1Sweep:
    """Acceptance criterion 06's shape: ``verify_theorem1`` with 210 kernel
    samples on 100 planted instances, m 2..5, n up to 10, k < (m+1)/2."""

    name = "t1-sweep"
    instances = 100
    trials = 210

    def make_inputs(self, lp, seed: int) -> list:
        combos = [
            (m, n, k)
            for m in range(2, 6)
            for n in range(m + 1, 11)
            for k in range(1, math.ceil((m + 1) / 2))
        ]
        units = []
        for m, n, k, s in itertools.islice(_stream(lp, combos, self.name, seed), self.instances):
            units.append((m, k, s, lp.build_vandermonde(lp.sample_instance(m, n, seed=s))))
        return units

    def run_unit(self, lp, unit, workdir: str) -> Outcome:
        m, k, s, A = unit
        rep = lp.verify_theorem1(A, k, trials=self.trials, seed=lp.derive_seed(s, "t1"))
        ok = rep.spark == m + 1 and not rep.grid_below_threshold_empty
        blob = _ints([rep.spark, rep.level]) + _floats(
            [rep.p_star] + [v for r in rep.reports for v in (r.p, r.margin_min)]
        ) + bytes(bool(r.argmin_match) for r in rep.reports)
        return Outcome(ok, blob)


class Prop1Spark:
    """Acceptance criterion 07's shape: ``verify_prop1`` on 20 instances,
    m 1..3, n in {2m+2, 2m+3}, times 9 scale pairs; one unit per certificate."""

    name = "prop1-spark"
    instances = 20
    scales = (1.0, 0.1, 0.01)

    def make_inputs(self, lp, seed: int) -> list:
        combos = [(m, n) for m in (1, 2, 3) for n in (2 * m + 2, 2 * m + 3)]
        units = []
        for m, n, s in itertools.islice(_stream(lp, combos, self.name, seed), self.instances):
            spec = lp.sample_instance(m, n, seed=s)
            for x_t, y_t in itertools.product(self.scales, repeat=2):
                units.append(lp.AugmentedSpec(base=spec, x_t=x_t, y_t=y_t))
        return units

    def run_unit(self, lp, unit, workdir: str) -> Outcome:
        rep = lp.verify_prop1(unit)
        cert = rep.certificate
        ok = rep.passes and cert.spark == 2 * unit.base.m + 3
        return Outcome(ok, _ints([cert.spark, *cert.witness]))


class SuiteArtifacts:
    """``run_suite`` with 30 trials at (m, n) in {(2,8), (3,9), (4,10)}, over
    four suite seeds per pass; one unit per ``run_suite`` call."""

    name = "suite-artifacts"
    sizes = ((2, 8), (3, 9), (4, 10))
    suite_seeds = 4
    trials = 30

    def make_inputs(self, lp, seed: int) -> list:
        return [
            (m, n, lp.derive_seed(seed, f"{self.name}/{i}"))
            for i in range(self.suite_seeds)
            for m, n in self.sizes
        ]

    def run_unit(self, lp, unit, workdir: str) -> Outcome:
        m, n, suite_seed = unit
        out = os.path.join(workdir, "suite")
        config = lp.RunConfig(seed=suite_seed, m=m, n=n, trials=self.trials, output_dir=out)
        manifest = lp.run_suite(config)
        blob = b""
        for name in SUITE_ARTIFACTS:
            with open(os.path.join(out, name), "rb") as handle:
                blob += handle.read()
        with open(os.path.join(out, "phase_diagram.csv"), newline="") as handle:
            below = any(float(row["p"]) < float(row["p_star"]) for row in csv.DictReader(handle))
        return Outcome(manifest.asserted_pass and below, blob, len(blob))


WORKLOADS = {w.name: w for w in (T1Sweep(), Prop1Spark(), SuiteArtifacts())}
