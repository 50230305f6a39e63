"""End-to-end verification suite: one config in, a directory of artifacts out.

Artifacts (all deterministic for a fixed config; no wall-clock data anywhere):

  manifest.json         check-by-check outcomes plus the echoed config
  phase_diagram.csv     one row per (k, p): threshold, worst margin, argmin match
  margins.csv           one row per (k, p, kernel sample): the raw margin
  counterexamples.json  every recorded violation, with enough data to replay

The phase and margin rows of each k are read from that k's verify_theorem1
report, so each sparsity level gets one T1 sweep.  Every rank decision (spark,
spectrum, kernel, support solves), here and in the T2/T3 harnesses, follows
the one policy of numerics.RANK_TOL; no configuration key sets a tolerance.

Checks are split into two tiers.  Asserted checks are machinery the package
guarantees (instance generation, spark certificates, the scalar/sequence
bounds, the asserted steps of the chain audit); any failure is a bug and the
suite reports overall failure.  Reported checks are the empirical claims whose
proofs lean on the contested spectral sandwich (margin positivity, argmin
agreement, the sandwich itself, cross-term constants); their violations are
dumped to counterexamples.json but do not flip the exit status.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, field, fields, is_dataclass
from functools import partial

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
    DEFAULT_T_SCHEDULE,
    plant_with_level,
    sample_null,
    verify_theorem1,
    verify_theorem2,
    verify_theorem3,
)
from .spark import check_submatrix_invertibility, compute_spark
from .spectral import gram_spectrum, lemma1_constants

@dataclass(frozen=True)
class RunConfig:
    """Flat key = value configuration with a lossless text round-trip."""

    seed: int = 0
    m: int = 2
    n: int = 8
    trials: int = 30
    p_grid: tuple[float, ...] | None = None  # None: derive from the computed threshold
    t_schedule: tuple[float, ...] = DEFAULT_T_SCHEDULE
    budget: int | None = None
    output_dir: str = "lp_equiv_out"

    def __post_init__(self) -> None:
        if self.m < 1 or self.n <= self.m:
            raise ValueError(f"need 1 <= m < n, got m={self.m}, n={self.n}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.p_grid is not None and any(not 0.0 < p <= 1.0 for p in self.p_grid):
            raise ValueError("p_grid entries must lie in (0, 1]")
        if any(t <= 0.0 for t in self.t_schedule):
            raise ValueError("t_schedule entries must be positive")
        if self.budget is not None and self.budget < 1:
            raise ValueError("budget must be >= 1 when given")

    def to_text(self) -> str:
        lines = ["# run configuration for the lp-equiv suite"]
        for f in fields(self):
            name, value = f.name, getattr(self, f.name)
            if value is None:
                continue
            if isinstance(value, tuple):
                rendered = ", ".join(repr(float(v)) for v in value)
            elif isinstance(value, float):
                rendered = repr(value)
            else:
                rendered = str(value)
            lines.append(f"{name} = {rendered}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        known = {f.name: f for f in fields(cls)}
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
            seen[key] = _parse_config_value(key, rendered)
        return cls(**seen)


def _parse_config_value(key: str, rendered: str):
    if key in ("seed", "m", "n", "trials", "budget"):
        return int(rendered)
    if key == "output_dir":
        return rendered
    if key in ("p_grid", "t_schedule"):
        parts = [part.strip() for part in rendered.split(",") if part.strip()]
        if not parts:
            raise ValueError(f"config key {key!r} needs at least one number")
        return tuple(float(part) for part in parts)
    raise AssertionError(f"unhandled config key {key}")


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


def _check_from_exception(name: str, asserted: bool, exc: Exception) -> CheckResult:
    if isinstance(exc, (BudgetExceededError, SamplingError)):
        return CheckResult(name, "skipped", asserted, {"reason": str(exc)})
    raise exc


def run_suite(config: RunConfig) -> RunManifest:
    """Run every check for one sampled instance family and write the artifact
    files into config.output_dir.  Returns the manifest (also written)."""
    checks: list[CheckResult] = []
    counterexamples: list[dict] = []
    phase_rows: list[tuple] = []
    margin_rows: list[tuple] = []

    m, n, seed, budget = config.m, config.n, config.seed, config.budget

    # --- instance generation -------------------------------------------------
    try:
        spec = sample_instance(m, n, seed=derive_seed(seed, "instance"))
        lam = [float(v) for v in spec.lam]  # every counterexample's replay data
        checks.append(CheckResult("instance", "pass", True, {"m": m, "n": n, "lambda": lam}))
    except SamplingError as exc:
        checks.append(CheckResult("instance", "fail", True, {"reason": str(exc)}))
        return _finalize(config, checks, counterexamples, phase_rows, margin_rows)

    A = build_vandermonde(spec)

    # --- spark certificate ---------------------------------------------------
    spark = None
    try:
        cert = compute_spark(A, budget=budget)
        spark = cert.spark
        expected = m + 1
        status = "pass" if cert.spark == expected else "fail"
        checks.append(
            CheckResult(
                "spark",
                status,
                True,
                {"spark": cert.spark, "expected": expected, "witness": list(cert.witness)},
            )
        )
    except BudgetExceededError as exc:
        checks.append(_check_from_exception("spark", True, exc))

    # --- square-submatrix scan (informational: signed nodes may admit
    #     singular row/column selections without affecting the spark) --------
    try:
        sub = check_submatrix_invertibility(spec, budget=budget)
        checks.append(
            CheckResult(
                "submatrix-invertibility",
                "reported",
                False,
                {"passes": sub.passes, "min_abs_det": sub.min_abs_det, "checked": sub.checked},
            )
        )
        if not sub.passes:
            counterexamples.append(
                {
                    "check": "submatrix-invertibility",
                    "rows": list(sub.argmin_rows),
                    "cols": list(sub.argmin_cols),
                    "min_abs_det": sub.min_abs_det,
                    "lambda": lam,
                }
            )
    except BudgetExceededError as exc:
        checks.append(_check_from_exception("submatrix-invertibility", False, exc))

    # --- spectrum and threshold ----------------------------------------------
    summary = gram_spectrum(A)
    checks.append(CheckResult("gram-spectrum", "pass", True, json_safe(summary)))

    lem1 = None
    if spark is not None:
        try:
            lem1 = lemma1_constants(A, spark=spark, budget=budget)
            checks.append(
                CheckResult(
                    "spectral-sandwich",
                    "reported",
                    False,
                    {
                        "holds": lem1.sandwich_holds,
                        "u_sq": lem1.u_sq,
                        "w_sq": lem1.w_sq,
                        "lambda_min_plus": lem1.lambda_min_plus,
                        "lambda_max": lem1.lambda_max,
                    },
                )
            )
            if not lem1.sandwich_holds:
                counterexamples.append(
                    {
                        "check": "spectral-sandwich",
                        "u_sq": lem1.u_sq,
                        "w_sq": lem1.w_sq,
                        "lambda_min_plus": lem1.lambda_min_plus,
                        "lambda_max": lem1.lambda_max,
                        "argmin_support": list(lem1.argmin_support),
                        "lambda": lam,
                    }
                )
        except BudgetExceededError as exc:
            checks.append(_check_from_exception("spectral-sandwich", False, exc))

    # --- scalar and sequence bounds -------------------------------------------
    seq = lemma2_sequence_check(trials=max(config.trials * 10, 200), seed=derive_seed(seed, "seq"))
    checks.append(
        CheckResult(
            "sequence-comparison",
            "pass" if seq.passes else "fail",
            True,
            {"trials": seq.trials, "worst_relative_violation": seq.worst_relative_violation},
        )
    )
    fgrid = f_lemma3_grid()
    checks.append(
        CheckResult(
            "f-lower-bound",
            "pass" if fgrid.passes else "fail",
            True,
            {"worst_violation": fgrid.worst_violation, "worst_at": fgrid.worst_at},
        )
    )
    pgrid_check = phi_bound_grid()
    checks.append(
        CheckResult(
            "phi-upper-bound",
            "pass" if pgrid_check.passes else "fail",
            True,
            {"worst_violation": pgrid_check.worst_violation, "worst_at": pgrid_check.worst_at},
        )
    )

    # --- cross-term constants (reported) --------------------------------------
    try:
        cross = cross_term_check(
            A, trials=max(config.trials * 10, 200), seed=derive_seed(seed, "cross"),
            lemma1=lem1, budget=budget,
        )
        checks.append(
            CheckResult(
                "cross-term",
                "reported",
                False,
                {
                    "worst_ratio": cross.worst_ratio,
                    "paper_bound": cross.paper_bound,
                    "empirical_bound": cross.empirical_bound,
                    "passes_paper": cross.passes_paper,
                    "passes_empirical": cross.passes_empirical,
                    "degenerate": cross.degenerate,
                },
            )
        )
        if not cross.passes_paper and not cross.degenerate:
            counterexamples.append(
                {"check": "cross-term", **json_safe(cross.worst_example),
                 "paper_bound": cross.paper_bound, "lambda": lam}
            )
    except BudgetExceededError as exc:
        checks.append(_check_from_exception("cross-term", False, exc))

    # --- the T1 harness per k, which also fills the phase and margin rows ------
    if spark is not None:
        k_max = (spark - 1) // 2
        for k in range(1, k_max + 1):
            try:
                report = verify_theorem1(
                    A,
                    k,
                    trials=config.trials,
                    p_grid=config.p_grid,
                    seed=derive_seed(seed, f"thm1-k{k}"),
                    budget=budget,
                )
                status = "reported"
                detail = {
                    "k": k,
                    "p_star": report.p_star,
                    "all_hold": report.all_hold,
                    "l0_unique": report.l0_unique,
                    "counterexample_count": len(report.counterexamples),
                }
                checks.append(CheckResult(f"t1-margins-k{k}", status, False, detail))
                x_star = list(report.x_star)
                for ce in report.counterexamples:
                    counterexamples.append(
                        {"check": f"t1-margins-k{k}", **json_safe(ce),
                         "x_star": x_star, "lambda": lam}
                    )
                for rep in report.reports:
                    p = float(rep.p)
                    phase_rows.append((m, n, k, p, report.p_star, rep.margin_min, rep.argmin_match))
                    for (kind, scale), margin in zip(report.sample_labels, rep.margins):
                        margin_rows.append((m, n, k, p, kind, scale, margin))
            except (BudgetExceededError, SamplingError) as exc:
                checks.append(_check_from_exception(f"t1-margins-k{k}", False, exc))

        # --- chain audit on one concrete witness ------------------------------
        try:
            planted, _ = plant_with_level(A, k_max, seed=derive_seed(seed, "chain"), budget=budget)
            kernel = sample_null(
                A, count=1, seed=derive_seed(seed, "chain-h"), witness=cert.witness,
                budget=budget,
            )
            h = kernel[0].vector
            p_audit = min(summary.p_star / 2.0, 1.0)
            audit = audit_theorem1_chain(A, planted.x_star, h, p_audit)
            checks.append(
                CheckResult(
                    "chain-asserted",
                    "pass" if audit.asserted_ok else "fail",
                    True,
                    {"p": p_audit, "k": audit.k},
                )
            )
            checks.append(
                CheckResult(
                    "chain-reported",
                    "reported",
                    False,
                    {
                        "p": p_audit,
                        "coefficient": audit.coefficient,
                        "reported_ok": audit.reported_ok,
                        "steps": [
                            {"name": s.name, "ok": s.ok, "asserted": s.asserted}
                            for s in audit.steps
                        ],
                    },
                )
            )
            if not audit.asserted_ok or not audit.reported_ok:
                counterexamples.append({"check": "chain", **json_safe(audit)})
        except (BudgetExceededError, SamplingError) as exc:
            checks.append(_check_from_exception("chain-asserted", True, exc))

    # --- deep-sparsity regime: augmented family -------------------------------
    _run_deep_regime(config, spec, lam, checks, counterexamples)

    return _finalize(config, checks, counterexamples, phase_rows, margin_rows)


def _run_deep_regime(
    config: RunConfig, spec, lam: list, checks: list[CheckResult], counterexamples: list[dict]
) -> None:
    """Route the high-sparsity check by column count: wide instances exercise
    the t-indexed augmented family directly, narrow ones go through the
    node-extension embedding.  Both run the same way; they differ only in
    the harness, the check name, the seed label and the detail keys.  The
    harness plants its own x*; a plant that misses the level skips the
    check."""
    m, n = config.m, config.n
    if n >= 2 * m + 2:
        harness = partial(verify_theorem2, t_schedule=config.t_schedule)
        name, label = "t2-augmented", "t2"
        own_keys = ("limit_monotone", "final_gap_ratio", "degenerate")
    else:
        harness, name, label = verify_theorem3, "t3-extension", "t3"
        own_keys = ("worst_embed_residual", "worst_block_residual")
    try:
        # k = m, the deepest admissible level: (m+1)/2 <= k <= m
        report = harness(
            spec, m, trials=config.trials, seed=derive_seed(config.seed, label),
            budget=config.budget,
        )
        keys = ("k", "p_star0", "p_check", "margin_min", *own_keys)
        detail = {key: getattr(report, key) for key in keys}
        detail["violation_count"] = len(report.violations)
        x_star = list(report.x_star)
        for v in report.violations:
            counterexamples.append(
                {"check": name, **json_safe(v), "x_star": x_star, "lambda": lam}
            )
        checks.append(CheckResult(name, "reported", False, detail))
    except (BudgetExceededError, SamplingError) as exc:
        checks.append(_check_from_exception(name, False, exc))


def _finalize(
    config: RunConfig,
    checks: list[CheckResult],
    counterexamples: list[dict],
    phase_rows: list[tuple],
    margin_rows: list[tuple],
) -> RunManifest:
    asserted_pass = all(c.status != "fail" for c in checks if c.asserted)
    manifest = RunManifest(
        version=__version__,
        config=json_safe(
            {f.name: getattr(config, f.name) for f in fields(config)}
        ),
        checks=tuple(checks),
        asserted_pass=asserted_pass,
        violation_count=len(counterexamples),
    )
    out = config.output_dir
    phase_rows.sort(key=lambda r: (r[2], r[3]))
    _atomic_write_text(
        os.path.join(out, "phase_diagram.csv"),
        _csv_text(("m", "n", "k", "p", "p_star", "margin_min", "argmin_match"), phase_rows),
    )
    margin_rows.sort(key=lambda r: (r[2], r[3], r[4], r[5]))
    _atomic_write_text(
        os.path.join(out, "margins.csv"),
        _csv_text(("m", "n", "k", "p", "h_kind", "h_scale", "margin"), margin_rows),
    )
    _atomic_write_text(
        os.path.join(out, "counterexamples.json"),
        json.dumps(json_safe(counterexamples), indent=2, sort_keys=True) + "\n",
    )
    _atomic_write_text(
        os.path.join(out, "manifest.json"),
        json.dumps(json_safe(manifest), indent=2, sort_keys=True) + "\n",
    )
    return manifest
