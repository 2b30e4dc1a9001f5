"""Command-line entry point.

Four commands:

    validate FILE...   check fixture documents, one result line per file
    run                execute verification suites and emit a JSON report
    eval EXPR LITERAL  evaluate a 2-cell expression at an object literal
    catalog            list the available suites and the laws they check

Exit codes are stable: 0 on success, 1 when a fixture is invalid or any
check fails, 2 on usage errors (bad flags, unknown suites, unparseable
expressions).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .calculus import Budget, CalcError, CatBase, cell_endpoints, eval_cell, fun_endpoints
from .fincat import FinCatError, load_fincat, load_monoid
from .fixtures import builtin_base, builtin_base_names, builtin_monoid, builtin_monoid_names
from .sexpr import Env, ParseError, data_of_mor, parse_cell, parse_obj
from .suites import (
    DEFAULT_BUDGET,
    SuiteContext,
    catalog,
    render_table,
    resolve_suite_ids,
    run_suites,
)


class UsageError(Exception):
    pass


def _load_doc(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise UsageError(f"{path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise FinCatError(f"{path}: not valid JSON: {exc}") from None


def _load_base(name: str):
    if name in builtin_base_names():
        return builtin_base(name)
    doc = _load_doc(name)
    return load_fincat(doc)


def _load_monoid_arg(name: str):
    if name in builtin_monoid_names():
        return builtin_monoid(name)
    doc = _load_doc(name)
    return load_monoid(doc)


def _budget(args) -> Budget:
    return Budget(
        max_seq_len=args.max_seq_len,
        max_nest=args.max_nest,
        max_points=args.max_points,
        seed=args.seed,
    )


def _add_context_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--base",
        default="arrow",
        help="base category: a built-in name (%s) or a JSON fixture path"
        % ", ".join(builtin_base_names()),
    )
    parser.add_argument(
        "--monoid",
        default="z2",
        help="commutative monoid: a built-in name (%s) or a JSON fixture path"
        % ", ".join(builtin_monoid_names()),
    )


def _add_budget_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-seq-len", type=int, default=DEFAULT_BUDGET.max_seq_len)
    parser.add_argument("--max-nest", type=int, default=DEFAULT_BUDGET.max_nest)
    parser.add_argument("--max-points", type=int, default=DEFAULT_BUDGET.max_points)
    parser.add_argument("--seed", type=int, default=DEFAULT_BUDGET.seed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="shufflecat", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="validate fixture documents")
    p_val.add_argument("files", nargs="*", help="JSON fixture paths")

    p_run = sub.add_parser("run", help="run verification suites")
    p_run.add_argument(
        "--suite",
        action="append",
        dest="suites",
        metavar="ID",
        help="suite id to run ('all' or repeatable; default all)",
    )
    _add_context_flags(p_run)
    _add_budget_flags(p_run)
    p_run.add_argument("--report", metavar="PATH", help="write the JSON report here")
    p_run.add_argument(
        "--timings",
        action="store_true",
        help="include wall-clock timings (report bytes then vary run to run)",
    )

    p_eval = sub.add_parser("eval", help="evaluate a 2-cell expression at an object")
    p_eval.add_argument("expr", help="s-expression for a 2-cell")
    p_eval.add_argument("literal", help="object literal for the cell's domain")
    _add_context_flags(p_eval)

    sub.add_parser("catalog", help="list suites and the laws they check")
    return parser


def cmd_validate(args) -> int:
    if not args.files:
        print("validate: needs at least one fixture file", file=sys.stderr)
        return 2
    failed = False
    for path in args.files:
        try:
            doc = _load_doc(path)
            kind = "monoid" if "elements" in doc else "category"
            (load_monoid if kind == "monoid" else load_fincat)(doc)
            print(f"{path}: ok ({kind})")
        except UsageError as exc:
            print(f"{path}: INVALID: {exc}")
            failed = True
        except FinCatError as exc:
            print(f"{path}: INVALID: {exc}")
            failed = True
    return 1 if failed else 0


def cmd_run(args) -> int:
    try:
        ids = resolve_suite_ids(args.suites)
    except ValueError as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 2
    try:
        bud = _budget(args)
    except ValueError as exc:
        print(f"run: invalid budget: {exc}", file=sys.stderr)
        return 2
    if args.report:
        report_dir = Path(args.report).parent
        if (not report_dir.is_dir() or not os.access(report_dir, os.W_OK)
                or Path(args.report).is_dir()):
            print(f"run: cannot write the report to {args.report}", file=sys.stderr)
            return 2
    ctx = SuiteContext(
        base=CatBase(_load_base(args.base)),
        monoid=_load_monoid_arg(args.monoid),
        bud=bud,
    )
    results = run_suites(ids, ctx, timings=args.timings)
    print(render_table(results))
    if args.report:
        Path(args.report).write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
        print(f"report written to {args.report}")
    failing = [
        f"{r['suite']}:{c['name']}"
        for r in results
        for c in r["checks"]
        if not c["passed"]
    ]
    if failing:
        print(f"{len(failing)} check(s) failed: " + ", ".join(failing))
        return 1
    print("all checks passed")
    return 0


def cmd_eval(args) -> int:
    env = Env(_load_base(args.base), _load_monoid_arg(args.monoid))
    try:
        cell = parse_cell(args.expr, env)
        src, _ = cell_endpoints(cell)
        dom, cod = fun_endpoints(src)
        x = parse_obj(args.literal, dom, env)
    except ParseError as exc:
        print(f"eval: {exc}", file=sys.stderr)
        return 2
    except (CalcError, FinCatError) as exc:
        print(f"eval: ill-typed expression: {exc}", file=sys.stderr)
        return 2
    try:
        mor = eval_cell(cell, x)
        print(json.dumps(data_of_mor(cod, mor)))
    except (CalcError, FinCatError, ValueError, KeyError) as exc:
        print(f"eval: evaluation failed: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_catalog(args) -> int:
    rows = catalog()
    wid = max(len(ident) for ident, _, _ in rows)
    for ident, law, count in rows:
        print(f"{ident:<{wid}}  {count:>3} checks  {law}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed a message; normalize its exit code
        return 0 if exc.code in (0, None) else 2
    handler = {
        "validate": cmd_validate,
        "run": cmd_run,
        "eval": cmd_eval,
        "catalog": cmd_catalog,
    }[args.command]
    try:
        return handler(args)
    except UsageError as exc:
        print(f"shufflecat: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"shufflecat: {exc}", file=sys.stderr)
        return 2
    except FinCatError as exc:
        print(f"shufflecat: invalid fixture: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
