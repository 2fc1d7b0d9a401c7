"""Command-line driver: run one reduction on an instance file, or run the
randomized verification suites. Every run prints a single JSON document on
stdout and reports its seed, so any result can be replayed exactly.

Exit codes: 0 success, 1 bad input (unreadable file, parse, domain or guard
error), 2 answer/oracle mismatch under --oracle-check, 3 internal error (a
fault of the program, not of the input, such as a StateError or ModeError
inside a run; the traceback goes to stderr), 64 usage error (unknown
reduction name, bad flags).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
import traceback
from fractions import Fraction

from .model import (
    DomainError,
    GuardError,
    ParseError,
    RunReport,
    emit_report,
    parse_cnf,
    parse_graph,
    sha256,
)
from .pair_listing import dump_instance, load_instance
from .reductions import MODES, REDUCTIONS
from .verify import SUITE_NAMES, run_suite

_INPUT_ERRORS = (ParseError, DomainError, GuardError)

_LOADERS = {
    "cnf": parse_cnf,
    "graph": parse_graph,
    "tripartite": load_instance,
}


def _instance_digest(loader: str, instance) -> str:
    if loader == "tripartite":
        return sha256(dump_instance(instance).encode()).hexdigest()
    return instance.digest()


class _Parser(argparse.ArgumentParser):
    """argparse reserves exit code 2 for usage errors; this tool uses 2 for
    oracle mismatches, so usage problems exit 64 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


@functools.cache  # parse_args leaves the parser as it was
def _build_parser() -> _Parser:
    parser = _Parser(prog="dynred",
                     description="dynamic-problem reductions over "
                                 "exact-cost engines")
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run one reduction on an instance file")
    runp.add_argument("--reduction", required=True,
                      choices=sorted(REDUCTIONS), metavar="NAME",
                      help=f"one of: {', '.join(sorted(REDUCTIONS))}")
    runp.add_argument("--input", required=True, help="instance file path")
    runp.add_argument("--mode", choices=MODES,
                      help="update regime (default full where the "
                           "reduction has it, else dec)")
    runp.add_argument("--delta",
                      help="split fraction for the formula reductions "
                           "(e.g. 1/2); pair cap for the listing reductions; "
                           "an error for the graph reductions (tri-*, mwt-*)")
    runp.add_argument("--seed", type=int, default=0,
                      help="seed for the randomized reductions (default 0)")
    runp.add_argument("--oracle-check", action="store_true",
                      help="also run the brute-force oracle; exit 2 on "
                           "disagreement")

    verp = sub.add_parser("verify", help="run randomized property suites")
    verp.add_argument("--suite", default="all",
                      choices=("all",) + tuple(sorted(SUITE_NAMES)))
    verp.add_argument("--trials", type=int, default=25)
    verp.add_argument("--seed", type=int, default=0)
    verp.add_argument("--max-n", type=int, default=12, dest="max_n")
    return parser


def _parse_delta(text: str | None) -> Fraction | None:
    if text is None:
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"--delta {text!r} is not a fraction") from exc


def _cmd_run(args) -> int:
    entry = REDUCTIONS[args.reduction]
    mode = args.mode or ("full" if "full" in entry.modes else "dec")
    if mode not in entry.modes:
        print(f"dynred: {args.reduction} supports modes "
              f"{'/'.join(entry.modes)}, not {mode!r}", file=sys.stderr)
        return 1
    try:
        with open(args.input, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"dynred: cannot read {args.input}: {exc}", file=sys.stderr)
        return 1
    try:
        ctx = {"delta": _parse_delta(args.delta), "seed": args.seed}
        if ctx["delta"] is not None and entry.loader == "graph":
            # the triangle and min-weight reductions have no split or cap
            raise DomainError(f"--delta does not apply to {args.reduction}")
        instance = _LOADERS[entry.loader](text)
        start = time.perf_counter()
        answer, counters = entry.run(instance, mode, ctx)
        elapsed_ms = int((time.perf_counter() - start) * 1000)
        expected = None
        ok = True
        if args.oracle_check:
            expected = entry.oracle(instance, ctx)
            agree = entry.agree or (lambda a, e, c: a == e)
            ok = agree(answer, expected, ctx)
    except _INPUT_ERRORS as exc:
        print(f"dynred: {exc}", file=sys.stderr)
        return 1
    report = RunReport(
        reduction=args.reduction,
        mode=mode,
        instance_digest=_instance_digest(entry.loader, instance),
        answer=answer,
        oracle_answer=expected,
        counters=counters,
        seed=args.seed,
        elapsed_ms=elapsed_ms,
    )
    print(emit_report(report))
    return 0 if ok else 2


def _cmd_verify(args) -> int:
    if args.trials < 0:
        print("dynred: --trials must be nonnegative", file=sys.stderr)
        return 64
    if args.max_n < 1:
        print("dynred: --max-n must be positive", file=sys.stderr)
        return 64
    try:
        summary = run_suite(args.suite, trials=args.trials, seed=args.seed,
                            max_n=args.max_n)
    except GuardError as exc:  # an instance past a size cap: bad input
        print(f"dynred: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary, indent=2))
    return 0 if summary["ok"] else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_verify(args)
    except Exception:
        traceback.print_exc()
        print("dynred: internal error (a program fault, not bad input)",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
