"""Seeded benchmark of dynred's reductions, end to end and per layer.

    python3 bench/run.py --workload query-heavy --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports dynred from src/.
--trace 0 times whole passes over the workload's fixed job list and prints
the end-to-end metrics; --trace 1 runs the same passes untraced, then
traced, and prints the per-layer metrics. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}. Result
and trace files go to .bench_out/; instance files live in .bench_work/ for
the length of the run. See bench/README.md.
"""

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: numpy's OpenBLAS would otherwise start one thread per
# core for the float32 matmul of the diameter query, and the load would
# depend on the core count. Set before dynred first imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
WORKLOADS = ("query-heavy", "update-heavy", "verify-small")

SETUP_SAMPLES = 5  # fresh processes whose set-up times give setup_s
MIN_PASSES = 3
SETUP_TIMEOUT_S = 120

QUERIES = ("StReachable", "ReachCountLessThan", "StronglyConnected",
           "MoreThanTwoSccs", "SccCount2VsK", "MaxSccSize", "AllStReachable",
           "Diameter", "StConnected", "InducedConnected", "HasPerfectMatching",
           "KAugFreeMatchingSize", "MaxWeightPmWeight", "StDistance",
           "UnionIsUniverse", "Member", "IsEmpty")
OPS = ("InsertEdge", "DeleteEdge", "ActivateNode", "DeactivateNode",
       "AddToScope", "RemoveFromScope", "InsertSet", "IntersectSets")
SUITES = ("seth", "triangle", "apsp", "threesum", "engines")
MODULES = ("sat_reductions", "triangle_reductions", "minweight_reductions",
           "pair_listing")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR",
                   help="set up in DIR, print the elapsed time and exit "
                        "(the measuring process starts these for setup_s)")
    return p.parse_args(argv)


def set_up(workload: str, seed: int, workdir: Path):
    """Everything before the first timed job: imports (dynred, numpy, scipy),
    instance generation, instance files, warm-up jobs."""
    import workloads

    workdir.mkdir(parents=True, exist_ok=True)
    w = workloads.build(workload, seed, str(workdir))
    for job in w.warm:
        job.run()
    return w


def measure_setup(args) -> list[float]:
    """Wall time from starting a fresh process to the end of its set-up."""
    samples = []
    for i in range(SETUP_SAMPLES):
        workdir = WORK / f"{args.workload}-{os.getpid()}-setup{i}"
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-only", str(workdir)]
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as child:
            try:
                line = child.stdout.readline()
                took = time.perf_counter() - start
                child.communicate(timeout=SETUP_TIMEOUT_S)
            finally:
                if child.poll() is None:
                    child.kill()
            rc = child.wait()
        shutil.rmtree(workdir, ignore_errors=True)
        if rc != 0 or not line.startswith("ready"):
            raise RuntimeError(f"set-up process exited {rc}")
        samples.append(took)
    return samples


def run_pass(jobs, tracer=None):
    """One pass over the job list: per-job seconds, failures, trace sums."""
    gc.collect()
    times, failures, sums = [], [], []
    for job in jobs:
        if tracer is not None:
            tracer.begin_job()
        start = time.perf_counter()
        try:
            if tracer is None:
                result = job.run()
            else:
                root = f"verify.suite.{job.suite}" if job.suite else "cli.main"
                result = tracer.call(root, job.run, ())
            error = None
        except Exception as exc:  # a job that raises counts as failed
            result, error = None, f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - start)
        problems = [error] if error else job.check(result)
        if tracer is not None:
            got = tracer.end_job()
            if not error:
                problems += reconcile(job, result, got)
            sums.append(got)
        if problems:
            failures.append((job.name, error is not None, problems))
    return times, failures, sums


def reconcile(job, result, got) -> list[str]:
    """Span counts of the outermost handles against their counters, and
    those counters against the job's report."""
    bad = [f"{got[kind + '_spans']} {kind} spans but counters say {got[key]}"
           for kind, key in (("update", "updates"), ("query", "queries"))
           if got[kind + "_spans"] != got[key]]
    if job.suite is None:
        reported = job.reported_counters(result)
        mine = {k: got[k] for k in reported}
        if reported != mine:
            bad.append(f"report counters {reported} != handle counters {mine}")
    return bad


def timed_passes(jobs, seconds: float, tracer=None):
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        passes.append(run_pass(jobs, tracer))
    return passes


def best_job_ms(passes) -> list[float]:
    """Each job's fastest time over the passes, in job-list order. Host
    load only ever slows a job, so its fastest run is the steadiest
    estimate of what the program costs."""
    return [min(col) * 1000 for col in zip(*(times for times, _, _ in passes))]


def solve_s(passes) -> float:
    """One pass's job set timed on a quiet host: the sum of best job times."""
    return sum(best_job_ms(passes)) / 1000


def layer_metrics(tracer, passes, base_passes) -> dict:
    """Per-layer metrics from the traced passes, as means per pass."""
    k = len(passes)
    agg = tracer.agg

    def self_ms(*names):
        return sum(agg[n][2] for n in names if n in agg) * 1000 / k

    def mean_us(name):
        rec = agg.get(name)
        return rec[2] / rec[0] * 1e6 if rec else 0.0

    def count(name):
        return agg[name][0] / k if name in agg else 0.0

    jobs_ms = sum(sum(times) for times, _, _ in passes) * 1000 / k
    queries = [f"engines.query.{q}" for q in QUERIES]
    updates = [f"engines.update.{o}" for o in OPS]
    totals = {key: sum(g[key] for _, _, sums in passes for g in sums) / k
              for key in ("updates", "queries", "rollback_ops",
                          "preprocess_units", "engine_rollback_ops")}
    m = {}
    m["engines.query_ms"] = (self_ms(*queries), "ms")
    m["engines.query_share"] = (self_ms(*queries) / jobs_ms, "ratio")
    for q in QUERIES:
        m[f"engines.query_us.{q}"] = (mean_us(f"engines.query.{q}"), "us")
    m["engines.update_ms"] = (self_ms(*updates), "ms")
    for o in OPS:
        m[f"engines.update_us.{o}"] = (mean_us(f"engines.update.{o}"), "us")
    m["engines.checkpoint_ms"] = (self_ms("engines.checkpoint"), "ms")
    m["engines.rollback_ms"] = (self_ms("engines.rollback"), "ms")
    undone = totals["engine_rollback_ops"]
    m["engines.rollback_us_per_op"] = (
        self_ms("engines.rollback") * 1000 / undone if undone else 0.0, "us")
    m["engines.new_ms"] = (self_ms("engines.new"), "ms")
    for key in ("updates", "queries", "rollback_ops", "preprocess_units"):
        m[f"engines.{key}"] = (totals[key], "count")
    wrapped = count("wrappers.update")
    m["wrappers.new_ms"] = (self_ms("wrappers.new"), "ms")
    m["wrappers.update_us"] = (mean_us("wrappers.update"), "us")
    m["wrappers.query_us"] = (mean_us("wrappers.query"), "us")
    m["wrappers.rollback_us"] = (mean_us("wrappers.rollback"), "us")
    m["wrappers.fanout"] = (tracer.fanout_inner / k / wrapped if wrapped else 0.0,
                            "ratio")
    for mod in ("sat_reductions", "triangle_reductions", "minweight_reductions"):
        m[f"{mod}.build_ms"] = (self_ms(f"{mod}.build"), "ms")
    for mod in MODULES:
        m[f"{mod}.driver_ms"] = (self_ms(f"{mod}.driver"), "ms")
    m["model.parse_ms"] = (self_ms("model.parse"), "ms")
    m["cli.digest_ms"] = (self_ms("cli.digest"), "ms")
    m["cli.report_ms"] = (self_ms("cli.report"), "ms")
    m["cli.main_ms"] = (self_ms("cli.main"), "ms")
    for suite in SUITES:
        rec = agg.get(f"verify.suite.{suite}")
        m[f"verify.suite_ms.{suite}"] = (rec[1] * 1000 / k if rec else 0.0, "ms")
    m["oracles.ms"] = (self_ms("oracles"), "ms")
    m["generators.ms"] = (self_ms("generators"), "ms")
    m["model.digest_ms"] = (self_ms("model.digest"), "ms")
    base_ms = solve_s(base_passes) * 1000
    m["trace.base_ms"] = (base_ms, "ms")
    m["trace.job_ms"] = (jobs_ms, "ms")
    m["trace.overhead_ms"] = (solve_s(passes) * 1000 - base_ms, "ms")
    return m


def write_out(args, payload) -> None:
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "dynred" / "__init__.py").is_file():
        print(f"bench: no dynred package under {src}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    if args.setup_only:
        workdir = Path(args.setup_only)
        set_up(args.workload, args.seed, workdir)
        print("ready", flush=True)
        shutil.rmtree(workdir, ignore_errors=True)
        return 0

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        setup_samples = measure_setup(args) if args.trace == 0 else []
        w = set_up(args.workload, args.seed, workdir)
        w.prepare()
        if args.trace == 0:
            passes = timed_passes(w.jobs, args.seconds)
            tracer = base = None
        else:
            from spans import Tracer

            base = timed_passes(w.jobs, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            passes = timed_passes(w.jobs, args.seconds / 2, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # left in place while another run still uses it

    runs = passes + (base or [])
    attempted = len(w.jobs) * len(runs)
    failures = [f for _, fails, _ in runs for f in fails]
    for name, _, problems in failures[:10]:
        print(f"bench: FAILED {name}: {'; '.join(problems)}", file=sys.stderr)

    if args.trace == 0:
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "solve_s": (solve_s(passes), "s"),
            "job_ms_p50": (statistics.median(best_job_ms(passes)), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
        }
    else:
        metrics = layer_metrics(tracer, passes, base)

    result = {
        # every job that ran to the end passed its checks; a job that raised
        # counts only in `failed`
        "correct": all(raised for _, raised, _ in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    write_out(args, {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "jobs_per_pass": len(w.jobs), "passes": len(passes),
        "setup_samples_s": setup_samples, "result": result,
        "best_job_ms": dict(zip((job.name for job in w.jobs), best_job_ms(passes))),
        "pass_s": [sum(times) for times, _, _ in passes],
        "spans": tracer.agg if tracer else None,
        "failures": failures,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
