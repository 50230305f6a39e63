"""Command-line front end.

Subcommands mirror the library surface one-to-one:

  gen              sample a node family and emit its matrix
  spark            certify the smallest dependent column-subset size
  pstar            spectrum summary and the threshold exponent
  restricted-spec  extreme Gram eigenvalues over k-column supports
  solve-l0         exact sparsest representations
  solve-lp         global lp minimum over basic solutions
  audit            scalar/sequence/cross-term/chain inequality audits
  verify-thm1      margin and argmin checks below the threshold
  verify-thm2      t-indexed augmented family at a deep sparsity level
  verify-thm3      node-extension embedding for narrow instances
  suite            everything above, plus CSV/JSON artifacts

JSON goes to stdout unless --out is given.  Matrix files may be headerless
CSV (.csv) or the JSON envelope produced by --format json.  Problem files are
JSON objects {"matrix": <envelope>, "b": [...]}.

No flag sets the subset cap: the LP_EQUIV_BUDGET environment variable is its
one setting (default 1,000,000 subsets).  A scan over the cap ends a command
with a one-line error and exit 2; `suite` marks that check skipped instead,
and exits 1 when the check it skipped is asserted.
A value that is not an integer >= 1 ends every command that enumerates,
`suite` included, with exit 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import __version__
from .analysis import (
    audit_planted_chain,
    cross_term_check,
    f_lemma3_grid,
    lemma2_sequence_check,
    phi_bound_grid,
)
from .matgen import DenseMatrix, VandermondeSpec, build_vandermonde, sample_instance
from .numerics import BudgetExceededError, SamplingError, derive_seed
from .solvers import (
    DEFAULT_T_SCHEDULE,
    MatrixFacts,
    SparseProblem,
    solve_l0,
    solve_lp_basic,
    verify_theorem1,
    verify_theorem2,
    verify_theorem3,
)
from .spark import compute_spark
from .spectral import gram_spectrum, restricted_extremes
from .suite import RunConfig, _atomic_write_text, _json_text, run_suite


def _emit(obj, out: str | None) -> None:
    text = _json_text(obj)
    if out is None:
        sys.stdout.write(text)
    else:
        _atomic_write_text(out, text)


def _read_text(path: str) -> str:
    with open(path, "r") as handle:
        return handle.read()


def _matrix_from_obj(obj: dict) -> DenseMatrix:
    """Accept a raw matrix dict, a ``gen`` envelope, or a node spec."""
    if "entries" in obj:
        return DenseMatrix.from_json_dict(obj)
    if "matrix" in obj:
        return DenseMatrix.from_json_dict(obj["matrix"])
    return build_vandermonde(VandermondeSpec.from_json_dict(obj))


def _load_matrix(path: str) -> DenseMatrix:
    text = _read_text(path)
    if path.endswith(".csv"):
        return DenseMatrix.from_csv(text)
    return _matrix_from_obj(json.loads(text))


def _load_problem(path: str) -> SparseProblem:
    obj = json.loads(_read_text(path))
    matrix = _matrix_from_obj(obj["matrix"])
    b = np.asarray(obj["b"], dtype=float)
    return SparseProblem(matrix, b)


def _load_spec(path: str) -> VandermondeSpec:
    return VandermondeSpec.from_json_dict(json.loads(_read_text(path)))


def _float_list(rendered: str) -> tuple[float, ...]:
    parts = [p.strip() for p in rendered.split(",") if p.strip()]
    if not parts:
        raise argparse.ArgumentTypeError("expected a comma-separated list of numbers")
    return tuple(float(p) for p in parts)


def _cmd_gen(args) -> int:
    spec = sample_instance(args.m, args.n, seed=args.seed)
    if args.positive:
        spec = VandermondeSpec(spec.m, tuple(abs(v) for v in spec.lam), seed=spec.seed)
    matrix = build_vandermonde(spec)
    if args.format == "csv":
        text = matrix.to_csv()
        if args.out is None:
            sys.stdout.write(text)
        else:
            _atomic_write_text(args.out, text)
    else:
        _emit({"spec": spec.to_json_dict(), "matrix": matrix.to_json_dict()}, args.out)
    return 0


def _cmd_spark(args) -> int:
    _emit(compute_spark(_load_matrix(args.matrix)), args.out)
    return 0


def _cmd_pstar(args) -> int:
    _emit(gram_spectrum(_load_matrix(args.matrix)), args.out)
    return 0


def _cmd_restricted_spec(args) -> int:
    rs = restricted_extremes(_load_matrix(args.matrix), args.k)
    _emit(rs, args.out)
    return 0


def _cmd_solve_l0(args) -> int:
    _emit(solve_l0(_load_problem(args.problem)), args.out)
    return 0


def _cmd_solve_lp(args) -> int:
    _emit(solve_lp_basic(_load_problem(args.problem), args.p), args.out)
    return 0


def _cmd_audit(args) -> int:
    if args.lemma in ("bu", "chain") and args.matrix is None:
        raise SystemExit(f"audit --lemma {args.lemma} needs --matrix")
    if args.lemma == "2":
        report = lemma2_sequence_check(trials=args.trials, seed=args.seed)
        ok = report.passes
    elif args.lemma == "3":
        report = f_lemma3_grid()
        ok = report.passes
    elif args.lemma == "phi":
        report = phi_bound_grid()
        ok = report.passes
    elif args.lemma == "bu":
        report = cross_term_check(_load_matrix(args.matrix), trials=args.trials, seed=args.seed)
        ok = True  # both constants are reported, neither asserted
    elif args.lemma == "chain":
        facts = MatrixFacts(_load_matrix(args.matrix))
        k = args.k if args.k is not None else (facts.spark.spark - 1) // 2
        report, _, _ = audit_planted_chain(facts, k, derive_seed(args.seed, "plant"), args.p)
        ok = report.asserted_ok
    else:
        raise AssertionError(f"unhandled lemma {args.lemma}")
    _emit(report, args.out)
    return 0 if ok else 1


def _cmd_verify_thm1(args) -> int:
    report = verify_theorem1(
        _load_matrix(args.matrix),
        args.k,
        trials=args.trials,
        p_grid=args.p_grid,
        seed=args.seed,
    )
    _emit(report, args.out)
    return 0


def _cmd_verify_deep(args) -> int:
    """verify-thm2 and verify-thm3: run the subcommand's harness, which plants
    x* at level k (default m); only verify-thm2 takes a t schedule."""
    spec = _load_spec(args.spec)
    options = {"t_schedule": args.t_schedule} if "t_schedule" in args else {}
    report = args.harness(
        spec,
        spec.m if args.k is None else args.k,
        p_check=args.p,
        trials=args.trials,
        seed=args.seed,
        **options,
    )
    _emit(report, args.out)
    return 0


def _cmd_suite(args) -> int:
    if args.config is not None:
        config = RunConfig.from_text(_read_text(args.config))
    else:
        config = RunConfig()
    overrides = {}
    for name in ("seed", "m", "n", "trials", "output_dir"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    config = dataclasses.replace(config, **overrides)
    manifest = run_suite(config)
    for check in manifest.checks:
        marker = "asserted" if check.asserted else "reported"
        sys.stdout.write(f"{check.status:>8}  [{marker}]  {check.name}\n")
    sys.stdout.write(
        f"artifacts: {config.output_dir}  "
        f"violations: {manifest.violation_count}  "
        f"asserted_pass: {manifest.asserted_pass}\n"
    )
    return 0 if manifest.asserted_pass else 1


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, help="write JSON here instead of stdout")
    parser.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lp-equiv",
        description="Sparse-recovery threshold toolkit for Vandermonde-type instances.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="sample nodes and emit the matrix")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--positive", action="store_true", help="fold all nodes positive")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_common(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("spark", help="smallest dependent column-subset size")
    p.add_argument("--matrix", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_spark)

    p = sub.add_parser("pstar", help="Gram spectrum summary and threshold exponent")
    p.add_argument("--matrix", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_pstar)

    p = sub.add_parser("restricted-spec", help="extreme Gram eigenvalues over k-supports")
    p.add_argument("--matrix", required=True)
    p.add_argument("--k", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_restricted_spec)

    p = sub.add_parser("solve-l0", help="exact sparsest representations")
    p.add_argument("--problem", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_solve_l0)

    p = sub.add_parser("solve-lp", help="global lp minimum over basic solutions")
    p.add_argument("--problem", required=True)
    p.add_argument("--p", type=float, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_solve_lp)

    p = sub.add_parser("audit", help="inequality audits")
    p.add_argument("--lemma", choices=("2", "3", "phi", "bu", "chain"), required=True)
    p.add_argument("--matrix", default=None)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--p", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("verify-thm1", help="margins and argmin agreement below threshold")
    p.add_argument("--matrix", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=int, default=210)
    p.add_argument("--p-grid", type=_float_list, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_verify_thm1)

    p = sub.add_parser("verify-thm2", help="t-indexed augmented family, deep sparsity")
    p.add_argument("--spec", required=True, help="JSON file with {m, lambda}")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--t-schedule", type=_float_list, default=DEFAULT_T_SCHEDULE)
    p.add_argument("--trials", type=int, default=21)
    _add_common(p)
    p.set_defaults(func=_cmd_verify_deep, harness=verify_theorem2)

    p = sub.add_parser("verify-thm3", help="node-extension embedding, narrow instances")
    p.add_argument("--spec", required=True, help="JSON file with {m, lambda}")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--trials", type=int, default=21)
    _add_common(p)
    p.set_defaults(func=_cmd_verify_deep, harness=verify_theorem3)

    p = sub.add_parser("suite", help="run every check and write artifacts")
    p.add_argument("--config", default=None, help="key = value config file")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output-dir", dest="output_dir", default=None)
    p.set_defaults(func=_cmd_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, BudgetExceededError, SamplingError) as exc:
        # Predictable user-facing failures (missing files, malformed inputs,
        # infeasible problems, an exceeded or malformed subset cap) get a
        # one-line message; anything else is a bug and should crash loudly.
        print(f"lp-equiv: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
