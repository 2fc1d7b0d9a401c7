"""Command-line driver: run one reduction on an instance file, or run the
randomized verification suites. Every run prints a single JSON document on
stdout and reports its seed, so any result can be replayed exactly.

Exit codes: 0 success, 1 bad input (unreadable file, parse or domain error),
2 answer/oracle mismatch under --oracle-check, 3 internal error (a fault of
the program, not of the input; the traceback goes to stderr), 64 usage
error (unknown reduction name, bad flags).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .minweight_reductions import (
    min_weight_triangle_via_bwm,
    min_weight_triangle_via_stsp,
)
from .model import (
    CostCounters,
    DomainError,
    GuardError,
    ModeError,
    ParseError,
    RunReport,
    StateError,
    emit_report,
    parse_cnf,
    parse_graph,
)
from .oracles import oracle_min_weight_triangle, oracle_sat, oracle_triangle
from .pair_listing import (
    OVERFLOW,
    brute_force_pairs,
    brute_force_triangles,
    build_subconn_probe,
    decremental_trace_adapter,
    dump_instance,
    list_pairs,
    load_instance,
    pairs_to_triangles,
)
from .sat_reductions import (
    sat_via_appx_scc,
    sat_via_diam,
    sat_via_empty_pp,
    sat_via_max_scc,
    sat_via_sc2,
    sat_via_ssr,
    sat_via_st_reach,
    sat_via_subunion,
)
from .triangle_reductions import (
    split_by_degree,
    triangle_via_17bpm,
    triangle_via_5bpm,
    triangle_via_empty_pp,
    triangle_via_pp,
    triangle_via_streach,
    triangle_via_streach_decremental,
    triangle_via_subconn,
)
from .verify import SUITE_NAMES, _min_triangle_vertex, run_suite
from .wrappers import subunion_via_connsub

_INPUT_ERRORS = (ParseError, DomainError, GuardError, StateError, ModeError)

_ALL_MODES = ("full", "inc", "dec")


@dataclass(frozen=True)
class _Entry:
    loader: str  # cnf | graph | tripartite
    modes: tuple
    default_mode: str
    run: object  # (instance, mode, ctx) -> (answer, counters)
    oracle: object  # (instance) -> expected answer
    agree: object = None  # optional (answer, expected, ctx) -> bool


def _sat_entry(fn, modes=_ALL_MODES, **fixed):
    def run(f, mode, ctx):
        kw = dict(fixed)
        if ctx["delta"] is not None:
            kw["delta"] = ctx["delta"]
        return fn(f, mode=mode, **kw)

    return _Entry("cnf", modes, "full", run, lambda f, ctx: oracle_sat(f))


def _anchor_entry(fn, modes):
    def run(g, mode, ctx):
        return fn(g, mode=mode)

    return _Entry("graph", modes, "full", run,
                  lambda g, ctx: _min_triangle_vertex(g))


def _exists_oracle(g, ctx):
    return oracle_triangle(g) is not None


def _split_run(g, mode, ctx):
    dense_cost = CostCounters()

    def dense(sub):
        anchor, c = triangle_via_streach(sub)
        dense_cost.absorb(c)
        return anchor

    witness = split_by_degree(g, isqrt(len(g.edges())), dense)
    if witness is None:
        answer = None
    elif witness.u is not None:
        answer = [witness.u, witness.v, witness.w]
    else:
        answer = [witness.anchor]
    return answer, dense_cost


def _split_oracle(g, ctx):
    t = oracle_triangle(g)
    return None if t is None else list(t[:3])


def _presence_agree(answer, expected, ctx):
    # Witnesses are verified where they are produced; any valid triangle
    # (not necessarily the oracle's) is a correct answer.
    return (answer is None) == (expected is None)


def _mwt_entry(runner):
    def run(g, mode, ctx):
        return runner(g, mode=mode)

    def orc(g, ctx):
        t = oracle_min_weight_triangle(g)
        return None if t is None else t.weight

    return _Entry("graph", ("inc", "dec"), "dec", run, orc)


def _resolve_pair_cap(inst, ctx):
    q = ctx["delta"]
    if q is None:
        cap = inst.delta
    else:
        if q.denominator != 1 or q < 0:
            raise DomainError("pair cap must be a nonnegative integer")
        cap = int(q)
    ctx["pair_cap"] = cap
    return cap


def _listing_run(convert):
    """The runner of a pair-listing reduction whose answer is
    convert(inst, pairs), or OVERFLOW past the pair cap."""
    def run(inst, mode, ctx):
        cap = _resolve_pair_cap(inst, ctx)
        probe = (decremental_trace_adapter(inst) if mode == "dec"
                 else build_subconn_probe(inst))
        pairs, c = list_pairs(inst, probe, delta=cap)
        if pairs == OVERFLOW:
            return OVERFLOW, c
        return [list(p) for p in convert(inst, pairs)], c
    return run


def _pairs_agree(answer, expected, ctx):
    if answer == OVERFLOW:
        return len(ctx["brute_pairs"]) > ctx["pair_cap"]
    return answer == expected


def _pairs_oracle(inst, ctx):
    ctx["brute_pairs"] = brute_force_pairs(inst)
    return [list(p) for p in ctx["brute_pairs"]]


def _triangles_oracle(inst, ctx):
    ctx["brute_pairs"] = brute_force_pairs(inst)
    return [list(t) for t in brute_force_triangles(inst)]


REDUCTIONS: dict[str, _Entry] = {
    "ssr": _sat_entry(sat_via_ssr),
    "sc2": _sat_entry(sat_via_sc2),
    "appx-scc": _sat_entry(sat_via_appx_scc),
    "max-scc": _sat_entry(sat_via_max_scc),
    "st-reach": _sat_entry(sat_via_st_reach),
    "diam": _sat_entry(sat_via_diam),
    "subunion": _sat_entry(sat_via_subunion),
    "connsub": _sat_entry(sat_via_subunion, factory=subunion_via_connsub()),
    "empty-pp": _sat_entry(sat_via_empty_pp, modes=("full",)),
    "tri-streach": _anchor_entry(triangle_via_streach, ("full", "inc")),
    "tri-streach-dec": _Entry(
        "graph", ("dec",), "dec",
        lambda g, mode, ctx: triangle_via_streach_decremental(g),
        lambda g, ctx: _min_triangle_vertex(g)),
    "tri-subconn": _anchor_entry(triangle_via_subconn, _ALL_MODES),
    "tri-5bpm": _anchor_entry(triangle_via_5bpm, _ALL_MODES),
    "tri-17bpm": _anchor_entry(triangle_via_17bpm, _ALL_MODES),
    "tri-empty-pp": _Entry(
        "graph", ("full",), "full",
        lambda g, mode, ctx: triangle_via_empty_pp(g),
        _exists_oracle),
    "tri-pp": _Entry(
        "graph", ("full",), "full",
        lambda g, mode, ctx: triangle_via_pp(g, seed=ctx["seed"]),
        _exists_oracle),
    "tri-split": _Entry("graph", ("full",), "full", _split_run,
                        _split_oracle, _presence_agree),
    "mwt-stsp": _mwt_entry(min_weight_triangle_via_stsp),
    "mwt-bwm": _mwt_entry(min_weight_triangle_via_bwm),
    "3sum-listpairs": _Entry("tripartite", ("full", "dec"), "full",
                             _listing_run(lambda inst, pairs: pairs),
                             _pairs_oracle, _pairs_agree),
    "3sum-triangles": _Entry("tripartite", ("full", "dec"), "full",
                             _listing_run(pairs_to_triangles),
                             _triangles_oracle, _pairs_agree),
}

_LOADERS = {
    "cnf": parse_cnf,
    "graph": parse_graph,
    "tripartite": load_instance,
}


def _instance_digest(loader: str, instance) -> str:
    if loader == "tripartite":
        return hashlib.sha256(dump_instance(instance).encode()).hexdigest()
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
    runp.add_argument("--mode", choices=_ALL_MODES,
                      help="update regime (default depends on the reduction)")
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
    mode = args.mode or entry.default_mode
    if mode not in entry.modes:
        print(f"dynred: {args.reduction} supports modes "
              f"{'/'.join(entry.modes)}, not {mode!r}", file=sys.stderr)
        return 1
    try:
        text = open(args.input, encoding="utf-8").read()
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
    summary = run_suite(args.suite, trials=args.trials, seed=args.seed,
                        max_n=args.max_n)
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
