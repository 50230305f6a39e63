"""End-to-end verification suite: one config in, a directory of artifacts out.

Artifacts (all deterministic for a fixed config; no wall-clock data anywhere):

  manifest.json         check-by-check outcomes plus the echoed config
  phase_diagram.csv     one row per (k, p): threshold, worst margin, argmin match
  margins.csv           one row per (k, p, kernel sample): the raw margin
  counterexamples.json  every recorded violation, with enough data to replay

The phase and margin rows of each k are read from that k's verify_theorem1
report, so each sparsity level gets one T1 sweep.  A's spark certificate,
Gram summary, kernel basis and minsupport direction are computed once per
run, in one MatrixFacts bundle that the spark and gram-spectrum records, the
sandwich, every T1 level, the chain audit and the deep-regime harness read.
Every rank decision (spark, spectrum, kernel, support solves), here and in
the T2/T3 harnesses, follows the one policy of numerics.RANK_TOL; no
configuration key sets a tolerance.

Checks are split into two tiers.  Asserted checks are machinery the package
guarantees (instance generation, spark certificates, the scalar/sequence
bounds, the asserted steps of the chain audit); any failure is a bug and the
suite reports overall failure.  Reported checks are the empirical claims whose
proofs lean on the contested spectral sandwich (margin positivity, argmin
agreement, the sandwich itself, cross-term constants); their violations are
dumped to counterexamples.json but do not flip the exit status.

Every check is recorded by one policy.  A budget or sampling failure
(BudgetExceededError, SamplingError) lists the check as skipped, with the
error as its reason; a check that needs a skipped result (the spark
certificate) is listed as skipped too, with a reason naming it.  Each
counterexample carries its check's name and the instance's lambda.  The run
passes only when every asserted check has status "pass": a skipped asserted
check fails it.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from . import __version__
from .analysis import (
    audit_theorem1_chain,
    cross_term_check,
    f_lemma3_grid,
    lemma2_sequence_check,
    phi_bound_grid,
)
from .matgen import build_vandermonde, sample_instance
from .numerics import BudgetExceededError, SamplingError, derive_seed
from .solvers import (
    DEFAULT_SCALES,
    MatrixFacts,
    Theorem1Report,
    _plant_attempt,
    verify_theorem1,
    verify_theorem2,
    verify_theorem3,
)
from .spark import check_submatrix_invertibility
from .spark import compute_spark  # noqa: F401  (bound for perfbench's tracer self-test)
from .spectral import lemma1_constants

@dataclass(frozen=True)
class RunConfig:
    """Flat key = value configuration with a lossless text round-trip.

    No key sets the T1 p grid or the T2 t schedule: every run takes
    default_p_grid of the computed threshold and DEFAULT_T_SCHEDULE."""

    seed: int = 0
    m: int = 2
    n: int = 8
    trials: int = 30
    output_dir: str = "lp_equiv_out"

    def __post_init__(self) -> None:
        if self.m < 1 or self.n <= self.m:
            raise ValueError(f"need 1 <= m < n, got m={self.m}, n={self.n}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.output_dir:
            # an empty path would write the artifacts into the current directory
            raise ValueError("output_dir must be a nonempty path")

    def to_text(self) -> str:
        lines = ["# run configuration for the lp-equiv suite"]
        lines += [f"{f.name} = {getattr(self, f.name)}" for f in fields(self)]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        seen: dict[str, object] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
            key, _, rendered = line.partition("=")
            key = key.strip()
            rendered = rendered.strip()
            if key not in known:
                raise ValueError(f"line {lineno}: unknown config key {key!r}")
            if key in seen:
                raise ValueError(f"line {lineno}: duplicate config key {key!r}")
            try:
                seen[key] = rendered if key == "output_dir" else int(rendered)
            except ValueError:
                raise ValueError(f"line {lineno}: {key} must be an integer, got {rendered!r}") from None
        return cls(**seen)


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # pass | fail | reported | skipped
    asserted: bool
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RunManifest:
    version: str
    config: dict
    checks: tuple[CheckResult, ...]
    asserted_pass: bool
    violation_count: int


def json_safe(obj):
    """Recursively convert numpy scalars/arrays, dataclasses, and containers
    into plain JSON-encodable values.

    This is the one JSON encoding of every report: a dataclass becomes the
    dict of its fields, tuples become lists and non-finite floats become
    their repr strings.  Only the envelope formats with a from_json_dict
    inverse (VandermondeSpec, DenseMatrix) define their own to_json_dict."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):  # also catches np.float64, a float subclass
        return float(obj) if math.isfinite(obj) else repr(float(obj))
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return json_safe(float(obj))
    if isinstance(obj, np.ndarray):
        return [json_safe(v) for v in obj.tolist()]
    if hasattr(obj, "to_json_dict"):
        return json_safe(obj.to_json_dict())
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: json_safe(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {str(k): json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        seq = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [json_safe(v) for v in seq]
    raise TypeError(f"cannot make {type(obj).__name__} JSON-safe")


def _atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _render_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_text(header: tuple[str, ...], rows: list[tuple]) -> str:
    lines = [",".join(header)]
    for row in rows:
        if len(row) != len(header):
            raise ValueError("row width does not match header")
        lines.append(",".join(_render_cell(v) for v in row))
    return "\n".join(lines) + "\n"


MARGIN_HEADER = ("m", "n", "k", "p", "h_kind", "h_scale", "margin")


def _margin_lines(report: Theorem1Report) -> list[str]:
    """margins.csv lines of one T1 report, as _csv_text renders its rows
    sorted by (k, p, h_kind, h_scale).  The report's p grid is sorted and
    unique, so its blocks already come in p order; within each block the
    samples go in the stable (kind, scale) order, the same for every p.  The
    m,n,k,p prefix is rendered once per block and each kind,scale pair once
    per report, so only the margin goes through repr per line."""
    labels = report.sample_labels
    order = sorted(range(len(labels)), key=labels.__getitem__)
    label_cells = [f"{labels[i][0]},{labels[i][1]!r}," for i in order]
    lines = []
    for rep in report.reports:
        prefix = f"{report.m},{report.n},{report.k},{float(rep.p)!r},"
        margins = rep.margins
        lines += [prefix + cell + repr(margins[i]) for i, cell in zip(order, label_cells)]
    return lines


# The asserted tier; every other check is reported.
_ASSERTED = frozenset({
    "instance", "spark", "gram-spectrum", "sequence-comparison", "f-lower-bound",
    "phi-upper-bound", "chain-asserted",
})


class _Recorder:
    """Every check, counterexample and artifact row of one suite run, kept
    by the recording policy of the module docstring."""

    def __init__(self) -> None:
        self.lam: list[float] | None = None  # the instance's nodes: every replay's data
        self.checks: list[CheckResult] = []
        self.counterexamples: list[dict] = []
        self.phase_rows: list[tuple] = []
        self.margin_lines: list[str] = []  # rendered per T1 report, in k order

    def record(self, name: str, status: str, detail: dict, violations=()) -> None:
        self.checks.append(CheckResult(name, status, name in _ASSERTED, detail))
        for violation in violations:
            self.counterexample(name, violation)

    def counterexample(self, check: str, violation: dict) -> None:
        self.counterexamples.append({"check": check, **violation, "lambda": self.lam})

    def run(self, names: tuple[str, ...], compute, *args, missing: str | None = None):
        """Return compute(self, *args), which records the checks in names
        after its last call that can fail.  When a budget or sampling
        failure ends compute, or missing gives the reason a prerequisite is
        absent, list each of names as skipped with that reason instead and
        return None."""
        if missing is None:
            try:
                return compute(self, *args)
            except (BudgetExceededError, SamplingError) as exc:
                missing = str(exc)
        for name in names:
            self.record(name, "skipped", {"reason": missing})
        return None

    @property
    def asserted_pass(self) -> bool:
        """A skipped asserted check is not a pass."""
        return all(c.status == "pass" for c in self.checks if c.asserted)


def run_suite(config: RunConfig) -> RunManifest:
    """Run every check for one sampled instance family and write the artifact
    files into config.output_dir.  Returns the manifest (also written)."""
    m, n, seed = config.m, config.n, config.seed
    rec = _Recorder()
    try:
        spec = sample_instance(m, n, seed=derive_seed(seed, "instance"))
    except SamplingError as exc:
        rec.record("instance", "fail", {"reason": str(exc)})
        return _finalize(config, rec)
    rec.lam = [float(v) for v in spec.lam]
    rec.record("instance", "pass", {"m": m, "n": n, "lambda": rec.lam})
    facts = MatrixFacts(build_vandermonde(spec))

    cert = rec.run(("spark",), _spark_check, facts, m)
    no_spark = None if cert is not None else "needs the spark certificate, which was skipped"
    rec.run(("submatrix-invertibility",), _submatrix_check, spec)
    rec.record("gram-spectrum", "pass", json_safe(facts.gram))
    lem1 = rec.run(("spectral-sandwich",), _sandwich_check, facts, missing=no_spark)

    # --- scalar and sequence bounds -------------------------------------------
    seq = lemma2_sequence_check(trials=max(config.trials * 10, 200), seed=derive_seed(seed, "seq"))
    rec.record(
        "sequence-comparison",
        "pass" if seq.passes else "fail",
        {"trials": seq.trials, "worst_relative_violation": seq.worst_relative_violation},
    )
    for name, grid in (("f-lower-bound", f_lemma3_grid()), ("phi-upper-bound", phi_bound_grid())):
        detail = {"worst_violation": grid.worst_violation, "worst_at": grid.worst_at}
        rec.record(name, "pass" if grid.passes else "fail", detail)

    rec.run(("cross-term",), _cross_term_check, facts.matrix, config, lem1)

    # --- T1 per level 1 <= k < spark/2 (those of the expected spark m + 1
    #     without a certificate), then the chain audit at the deepest ----------
    k_max = (m if cert is None else cert.spark - 1) // 2
    for k in range(1, k_max + 1):
        rec.run((f"t1-margins-k{k}",), _t1_check, facts, k, config, missing=no_spark)
    if k_max >= 1:
        names = ("chain-asserted", "chain-reported")
        rec.run(names, _chain_check, facts, k_max, seed, missing=no_spark)

    _run_deep_regime(rec, config, spec, facts)
    return _finalize(config, rec)


def _spark_check(rec: _Recorder, facts: MatrixFacts, m: int):
    cert = facts.spark
    detail = {"spark": cert.spark, "expected": m + 1, "witness": list(cert.witness)}
    rec.record("spark", "pass" if cert.spark == m + 1 else "fail", detail)
    return cert


def _submatrix_check(rec: _Recorder, spec) -> None:
    """Informational: signed nodes may admit singular row/column selections
    without affecting the spark."""
    sub = check_submatrix_invertibility(spec)
    detail = {"passes": sub.passes, "min_abs_det": sub.min_abs_det, "checked": sub.checked}
    worst = {"rows": list(sub.argmin_rows), "cols": list(sub.argmin_cols),
             "min_abs_det": sub.min_abs_det}
    rec.record("submatrix-invertibility", "reported", detail, () if sub.passes else (worst,))


def _sandwich_check(rec: _Recorder, facts: MatrixFacts):
    lem1 = lemma1_constants(facts.matrix, spark=facts.spark.spark, gram=facts.gram)
    keys = ("u_sq", "w_sq", "lambda_min_plus", "lambda_max")
    constants = {key: getattr(lem1, key) for key in keys}
    worst = {**constants, "argmin_support": list(lem1.argmin_support)}
    detail = {"holds": lem1.sandwich_holds, **constants}
    rec.record("spectral-sandwich", "reported", detail, () if lem1.sandwich_holds else (worst,))
    return lem1


def _cross_term_check(rec: _Recorder, A, config: RunConfig, lem1) -> None:
    cross = cross_term_check(
        A, trials=max(config.trials * 10, 200), seed=derive_seed(config.seed, "cross"), lemma1=lem1
    )
    keys = ("worst_ratio", "paper_bound", "empirical_bound", "passes_paper", "passes_empirical",
            "degenerate")
    detail = {key: getattr(cross, key) for key in keys}
    worst = {**cross.worst_example, "paper_bound": cross.paper_bound}
    violated = not cross.passes_paper and not cross.degenerate
    rec.record("cross-term", "reported", detail, (worst,) if violated else ())


def _t1_check(rec: _Recorder, facts: MatrixFacts, k: int, config: RunConfig) -> None:
    """The T1 harness at level k, which also fills that level's phase and
    margin rows."""
    seed = derive_seed(config.seed, f"thm1-k{k}")
    report = verify_theorem1(facts.matrix, k, trials=config.trials, seed=seed, facts=facts)
    detail = {key: getattr(report, key) for key in ("k", "p_star", "all_hold", "l0_unique")}
    detail["counterexample_count"] = len(report.counterexamples)
    x_star = list(report.x_star)
    violations = [{**ce, "x_star": x_star} for ce in report.counterexamples]
    rec.record(f"t1-margins-k{k}", "reported", detail, violations)
    for rep in report.reports:
        row = (config.m, config.n, k, float(rep.p), report.p_star, rep.margin_min, rep.argmin_match)
        rec.phase_rows.append(row)
    rec.margin_lines += _margin_lines(report)


def _chain_check(rec: _Recorder, facts: MatrixFacts, k: int, seed: int) -> None:
    """The chain audit on one concrete witness at level k < spark/2, planted
    with no l0 solve; a failed step of either tier leaves one replay record."""
    A = facts.matrix
    planted = _plant_attempt(A, k, derive_seed(seed, "chain"), 0)
    h = facts.direction * DEFAULT_SCALES[0]
    p_audit = min(facts.gram.p_star / 2.0, 1.0)
    audit = audit_theorem1_chain(A, planted.x_star, h, p_audit, facts.gram)
    status = "pass" if audit.asserted_ok else "fail"
    rec.record("chain-asserted", status, {"p": p_audit, "k": audit.k})
    steps = [{"name": s.name, "ok": s.ok, "asserted": s.asserted} for s in audit.steps]
    detail = {"p": p_audit, "coefficient": audit.coefficient, "reported_ok": audit.reported_ok,
              "steps": steps}
    rec.record("chain-reported", "reported", detail)
    if not audit.asserted_ok or not audit.reported_ok:
        replay = {"x_star": planted.x_star.tolist(), "h": h.tolist()}
        rec.counterexample("chain", {**json_safe(audit), **replay})


def _run_deep_regime(rec: _Recorder, config: RunConfig, spec, facts: MatrixFacts) -> None:
    """Route the high-sparsity check by column count: wide instances exercise
    the t-indexed augmented family directly, narrow ones go through the
    node-extension embedding.  Both run the same way; they differ only in
    the harness, the check name, the seed label and the detail keys.  The
    harness plants its own x* and draws its samples from the run's facts
    of A; a plant that misses the level skips the check."""
    m, n = config.m, config.n
    if n >= 2 * m + 2:
        harness, name, label = verify_theorem2, "t2-augmented", "t2"
        own_keys = ("limit_monotone", "final_gap_ratio", "degenerate")
    else:
        harness, name, label = verify_theorem3, "t3-extension", "t3"
        own_keys = ("worst_embed_residual", "worst_block_residual")

    def check(rec: _Recorder) -> None:
        # k = m, the deepest admissible level: (m+1)/2 <= k <= m
        seed = derive_seed(config.seed, label)
        report = harness(spec, m, trials=config.trials, seed=seed, facts=facts)
        keys = ("k", "p_star0", "p_check", "margin_min", *own_keys)
        detail = {key: getattr(report, key) for key in keys}
        detail["violation_count"] = len(report.violations)
        x_star = list(report.x_star)
        rec.record(name, "reported", detail, [{**v, "x_star": x_star} for v in report.violations])

    rec.run((name,), check)


def _finalize(config: RunConfig, rec: _Recorder) -> RunManifest:
    manifest = RunManifest(
        version=__version__,
        config=json_safe({f.name: getattr(config, f.name) for f in fields(config)}),
        checks=tuple(rec.checks),
        asserted_pass=rec.asserted_pass,
        violation_count=len(rec.counterexamples),
    )
    rec.phase_rows.sort(key=lambda r: (r[2], r[3]))
    phase_header = ("m", "n", "k", "p", "p_star", "margin_min", "argmin_match")
    texts = {
        "phase_diagram.csv": _csv_text(phase_header, rec.phase_rows),
        "margins.csv": "\n".join([",".join(MARGIN_HEADER), *rec.margin_lines]) + "\n",
        "counterexamples.json": _json_text(rec.counterexamples),
        "manifest.json": _json_text(manifest),
    }
    for name, text in texts.items():
        _atomic_write_text(os.path.join(config.output_dir, name), text)
    return manifest


def _json_text(obj) -> str:
    return json.dumps(json_safe(obj), indent=2, sort_keys=True) + "\n"
