"""Command-line front end: `gdiff run <file>` and `gdiff validate <file>`.

Exit codes: 0 all tasks pass, 1 assertion/task failure, 2 parse or
configuration error.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .errors import GDiffError, ProblemFileError
from .problem import check_tasks, format_report, load_problem, run_problem


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("file", help="problem file (JSON)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for randomized searches (default 0)")
    p.add_argument("--backend", choices=["rational", "complex"], default=None,
                   help="override the problem file's backend")
    p.add_argument("--epsilon", type=float, default=None,
                   help="comparison tolerance for the complex backend")
    p.add_argument("--output", default=None,
                   help="write the report to this path instead of stdout")
    p.add_argument("--format", choices=["text", "structured"], default="text",
                   dest="fmt", help="report format (default text)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gdiff",
        description="analyze difference equations on finite homogeneous spaces")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute the task list of a problem file")
    _add_common_flags(run_p)
    val_p = sub.add_parser("validate", help="parse and validate a problem file")
    _add_common_flags(val_p)
    return parser


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        prob = load_problem(args.file, backend_override=args.backend,
                            epsilon_override=args.epsilon)
        if args.command == "validate":
            check_tasks(prob)
    except ProblemFileError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except GDiffError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2

    if args.command == "validate":
        counts = (f"equations={len(prob.equations)} "
                  f"hmodules={len(prob.hmodules)} "
                  f"systems={len(prob.systems)} "
                  f"operators={len(prob.operators)} "
                  f"tasks={len(prob.tasks)}")
        _emit(f"valid: {counts}\n", args.output)
        return 0

    report = run_problem(prob, seed=args.seed)
    _emit(format_report(report, args.fmt), args.output)
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
