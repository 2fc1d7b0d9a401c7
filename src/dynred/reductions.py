"""The reduction table: one entry per name that `dynred run` accepts.

The CLI and the verify suites both read `REDUCTIONS`. An entry gives the
loader of its input format, the modes it supports, its runner
`(instance, mode, ctx) -> (answer, counters)`, its brute-force oracle
`(instance, ctx) -> expected answer` and an optional agreement rule
`(answer, expected, ctx) -> bool` (equality when absent). `ctx` carries the
`delta` (a Fraction or None) and `seed` of the run; runners and oracles may
add keys for the agreement rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .minweight_reductions import (
    min_weight_triangle_via_bwm,
    min_weight_triangle_via_stsp,
)
from .model import CostCounters, DomainError
from .oracles import (
    oracle_all_triangles,
    oracle_min_weight_triangle,
    oracle_sat,
    oracle_triangle,
)
from .pair_listing import (
    OVERFLOW,
    DecrementalTraceAdapter,
    SubconnProbe,
    brute_force_pairs,
    brute_force_triangles,
    list_pairs,
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
from .wrappers import SubunionViaConnsub

MODES = ("full", "inc", "dec")


@dataclass(frozen=True)
class Reduction:
    loader: str  # cnf | graph | tripartite
    modes: tuple
    run: object
    oracle: object
    agree: object = None


def anchor_oracle(g, ctx=None):
    """The least vertex on any triangle of g, or None if g has none."""
    tris = oracle_all_triangles(g)
    return min(min(t[:3]) for t in tris) if tris else None


def _sat_entry(fn, modes=MODES, **fixed):
    def run(f, mode, ctx):
        kw = dict(fixed)
        if ctx["delta"] is not None:
            kw["delta"] = ctx["delta"]
        return fn(f, mode=mode, **kw)

    return Reduction("cnf", modes, run, lambda f, ctx: oracle_sat(f))


def _anchor_entry(fn, modes):
    return Reduction("graph", modes, lambda g, mode, ctx: fn(g, mode=mode),
                     anchor_oracle)


def _exists_oracle(g, ctx):
    return oracle_triangle(g) is not None


def _split_run(g, mode, ctx):
    dense_cost = CostCounters()

    def dense(sub):
        anchor, c = triangle_via_streach(sub)
        dense_cost.absorb(c)
        return anchor

    witness = split_by_degree(g, isqrt(g.edge_count), dense)
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
    def orc(g, ctx):
        t = oracle_min_weight_triangle(g)
        return None if t is None else t.weight

    return Reduction("graph", ("inc", "dec"),
                     lambda g, mode, ctx: runner(g, mode=mode), orc)


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
        probe = (DecrementalTraceAdapter(inst) if mode == "dec"
                 else SubconnProbe(inst))
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


REDUCTIONS: dict[str, Reduction] = {
    "ssr": _sat_entry(sat_via_ssr),
    "sc2": _sat_entry(sat_via_sc2),
    "appx-scc": _sat_entry(sat_via_appx_scc),
    "max-scc": _sat_entry(sat_via_max_scc),
    "st-reach": _sat_entry(sat_via_st_reach),
    "diam": _sat_entry(sat_via_diam),
    "subunion": _sat_entry(sat_via_subunion),
    "connsub": _sat_entry(sat_via_subunion, factory=SubunionViaConnsub),
    "empty-pp": _sat_entry(sat_via_empty_pp, modes=("full",)),
    "tri-streach": _anchor_entry(triangle_via_streach, ("full", "inc")),
    "tri-streach-dec": Reduction(
        "graph", ("dec",),
        lambda g, mode, ctx: triangle_via_streach_decremental(g),
        anchor_oracle),
    "tri-subconn": _anchor_entry(triangle_via_subconn, MODES),
    "tri-5bpm": _anchor_entry(triangle_via_5bpm, MODES),
    "tri-17bpm": _anchor_entry(triangle_via_17bpm, MODES),
    "tri-empty-pp": Reduction(
        "graph", ("full",),
        lambda g, mode, ctx: triangle_via_empty_pp(g), _exists_oracle),
    "tri-pp": Reduction(
        "graph", ("full",),
        lambda g, mode, ctx: triangle_via_pp(g, seed=ctx["seed"]),
        _exists_oracle),
    "tri-split": Reduction("graph", ("full",), _split_run, _split_oracle,
                           _presence_agree),
    "mwt-stsp": _mwt_entry(min_weight_triangle_via_stsp),
    "mwt-bwm": _mwt_entry(min_weight_triangle_via_bwm),
    "3sum-listpairs": Reduction("tripartite", ("full", "dec"),
                                _listing_run(lambda inst, pairs: pairs),
                                _pairs_oracle, _pairs_agree),
    "3sum-triangles": Reduction("tripartite", ("full", "dec"),
                                _listing_run(pairs_to_triangles),
                                _triangles_oracle, _pairs_agree),
}
