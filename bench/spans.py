"""Span tracing of dynred's layers, from outside the program.

`Tracer.install` replaces functions and methods of the dynred modules
(mostly public ones) with timed versions for the rest of the process.
Each span adds its duration to its name's total and, minus the time of its
child spans, to its self time. Spans are aggregated in memory by name and
written to the run's result file at the end.

Engine and wrapper handles created inside a job are remembered, so that at
the end of the job the update and query spans of its outermost handles can
be reconciled with the counters those handles (and the job's report) give.
"""

from __future__ import annotations

from dataclasses import replace
from time import perf_counter

from workloads import family

from dynred import (
    cli,
    engines,
    minweight_reductions,
    pair_listing,
    sat_reductions,
    triangle_reductions,
    verify,
    wrappers,
)


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [child seconds, span name] per open span
        self.agg: dict[str, list] = {}  # name -> [count, total s, self s]
        self.handles: list = []
        self.ops: dict[tuple[int, str], int] = {}  # (id(handle), update|query) -> spans
        self.fanout_inner = 0

    # -- spans

    def call(self, name, fn, args, kw=None, handle=None, op_kind=None):
        frame = [0.0, name]
        self.stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **(kw or {}))
        finally:
            took = perf_counter() - start
            self.stack.pop()
            if self.stack:
                self.stack[-1][0] += took
            rec = self.agg.get(name)
            if rec is None:
                rec = self.agg[name] = [0, 0.0, 0.0]
            rec[0] += 1
            rec[1] += took
            rec[2] += took - frame[0]
        if handle is not None:
            key = (id(handle), op_kind)
            self.ops[key] = self.ops.get(key, 0) + 1
        return result

    def timed(self, name, fn):
        def traced(*args, **kw):
            return self.call(name, fn, args, kw)
        traced.__wrapped__ = fn
        return traced

    def wrap(self, owner, attr: str, name: str) -> None:
        """Time owner.attr as span `name`; a name the program no longer has
        is skipped, so its layer metric reads 0 instead of failing the run."""
        fn = getattr(owner, attr, None)
        if fn is not None:
            setattr(owner, attr, self.timed(name, fn))

    def _inside_wrapper_update(self) -> bool:
        return bool(self.stack) and self.stack[-1][1] == "wrappers.update"

    # -- jobs

    def begin_job(self) -> None:
        self.handles = []
        self.ops = {}

    def end_job(self) -> dict:
        """Counters summed over the job's outermost handles, the span counts
        of those handles, and the rollback ops of its direct engines."""
        inner = {id(h.inner) for h in self.handles
                 if getattr(h, "inner", None) is not None}
        outer = [h for h in self.handles if id(h) not in inner]
        out = {"update_spans": 0, "query_spans": 0, "updates": 0, "queries": 0,
               "rollback_ops": 0, "preprocess_units": 0}
        for h in outer:
            out["update_spans"] += self.ops.get((id(h), "update"), 0)
            out["query_spans"] += self.ops.get((id(h), "query"), 0)
            for k, v in h.counters.as_dict().items():
                out[k] += v
        out["engine_rollback_ops"] = sum(
            h.counters.rollback_ops for h in self.handles
            if isinstance(h, engines.DirectEngine))
        self.handles = []
        self.ops = {}
        return out

    # -- installation

    def install(self) -> None:
        self._engines()
        self._wrappers()
        self._gadgets()
        self._cli()
        self._verify()

    def _engines(self) -> None:
        cls = engines.DirectEngine
        cls.__init__ = self._registering("engines.new", cls.__init__)
        cls.update = self._counted(
            lambda op: "engines.update." + type(op).__name__, cls.update, "update")
        cls.query = self._counted(
            lambda q: "engines.query." + type(q).__name__, cls.query, "query")
        self.wrap(cls, "checkpoint", "engines.checkpoint")
        self.wrap(cls, "rollback", "engines.rollback")

    def _wrappers(self) -> None:
        base = wrappers._WrapperBase
        base.update = self._counted(lambda op: "wrappers.update", base.update,
                                    "update")
        base.query = self._counted(lambda q: "wrappers.query", base.query, "query")
        self.wrap(base, "rollback", "wrappers.rollback")
        for sub in base.__subclasses__():
            sub.__init__ = self._registering("wrappers.new", sub.__init__)

    def _registering(self, name, init):
        """Time a handle's construction and remember the handle."""
        tr = self

        def new(h, *a, **kw):
            tr.call(name, init, (h,) + a, kw)
            tr.handles.append(h)
        return new

    def _counted(self, span_name, method, op_kind: str):
        """Time handle.method(arg) as span span_name(arg) and count it
        against the handle; an update issued inside a wrapper's update also
        counts toward the wrapper fan-out."""
        tr = self

        def traced(h, arg):
            if op_kind == "update" and tr._inside_wrapper_update():
                tr.fanout_inner += 1
            return tr.call(span_name(arg), method, (h, arg), handle=h,
                           op_kind=op_kind)
        return traced

    def _gadgets(self) -> None:
        self.wrap(sat_reductions, "build_fail_table", "sat_reductions.build")
        for fn in ("build_streach_gadget", "build_streach_trees",
                   "build_subconn_gadget", "build_5bpm_gadget",
                   "build_17bpm_gadget"):
            self.wrap(triangle_reductions, fn, "triangle_reductions.build")
        self.wrap(minweight_reductions, "build_stsp_gadget",
                  "minweight_reductions.build")
        self.wrap(sat_reductions, "_engine_digest", "model.digest")
        for cls in (pair_listing.SubconnProbe, pair_listing.DecrementalTraceAdapter):
            self.wrap(cls, "__init__", "pair_listing.driver")
            self.wrap(cls, "probe", "pair_listing.driver")

    def _cli(self) -> None:
        for name, entry in list(cli.REDUCTIONS.items()):
            cli.REDUCTIONS[name] = replace(
                entry, run=self.timed(f"{family(name)}.driver", entry.run))
        loaders = getattr(cli, "_LOADERS", {})
        for key in list(loaders):
            loaders[key] = self.timed("model.parse", loaders[key])
        self.wrap(cli, "_instance_digest", "cli.digest")
        self.wrap(cli, "emit_report", "cli.report")

    def _verify(self) -> None:
        names = dir(verify)
        spans = {
            "sat_reductions.driver": [n for n in names if n.startswith("sat_via_")],
            "triangle_reductions.driver": [n for n in names
                                           if n.startswith("triangle_via_")]
            + ["split_by_degree"],
            "minweight_reductions.driver": [
                n for n in names if n.startswith("min_weight_triangle_via_")],
            "pair_listing.driver": ["list_pairs", "pairs_to_triangles"],
            "oracles": ["oracle_sat", "oracle_all_triangles",
                        "oracle_min_weight_triangle", "brute_force_pairs",
                        "brute_force_triangles"],
            "generators": ["random_cnf", "random_graph", "random_set_system",
                           "gen_tripartite_instance"],
            "model.digest": ["_engine_digest"],
        }
        for span, fns in spans.items():
            for fn in fns:
                self.wrap(verify, fn, span)
        # the suites also keep reduction tables as tuples of functions
        for table in ("_SAT_MODAL", "_ANCHOR_ROUTINES"):
            rows = getattr(verify, table, ())
            setattr(verify, table, tuple(
                (row[0], getattr(verify, row[1].__name__)) + tuple(row[2:])
                for row in rows))
