"""The repository's benchmark: one workload, one Ray session, one result line.

    python3 perfbench/run.py --workload encode_zipf --seed 1 --seconds 12 --trace 0

Workloads (perfbench/workloads.py): ``encode_zipf`` (write path),
``read_zipf`` (decode, hash verify, pruned phrase search) and
``events_window`` (per-key window queries).  A run starts its own local
Ray session with ``num_cpus`` = nproc, sets up several times, runs one
discarded warm-up round, then whole timed rounds until ``--seconds`` of
round time has passed.  Every output is checked against answers computed
apart from the program (perfbench/reference.py).

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` (operations: encode, decode, verify, phrase search, window
query) and ``metrics`` -- the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  The line
before it holds the workload's own figures.  A failed check exits 1.
All scratch lives in one directory under ``.pbrun/`` in the checkout,
removed at exit.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRATCH = os.path.join(ROOT, ".pbrun")
N_SETUPS = 3
WARMUP_ROUNDS = 1
OBJECT_STORE_BYTES = 512 << 20
# Ray puts unix sockets under its temp dir; AF_UNIX paths stop at 107
# bytes and Ray appends up to 64 (session_<time>_<pid>/sockets/plasma_store),
# so a checkout path longer than about 24 characters keeps Ray's default
RAY_TEMP_MAX = 42

# per-layer metrics taken from span self times and counts:
# (metric, span name, "self" | "calls" | a count key)
SPAN_METRICS = [
    ("partition.stats_s", "partition.stats", "self"),
    ("partition.plan_s", "partition.plan", "self"),
    ("partition.partitions", "partition.plan", "partitions"),
    ("encoder.stage_s", "encoder.stage", "self"),
    ("encoder.stage_calls", "encoder.stage", "calls"),
    ("encoder.reduce_s", "encoder.reduce", "self"),
    ("encoder.reduce_calls", "encoder.reduce", "calls"),
    ("encoder.finalize_s", "encoder.finalize", "self"),
    ("selector.select_s", "selector.select", "self"),
    ("selector.calls", "selector.select", "calls"),
    ("codecs.encode_s", "codecs.encode", "self"),
    ("codecs.encode_calls", "codecs.encode", "calls"),
    ("codecs.trials", "codecs.encode", "trials"),
    ("codecs.decode_s", "codecs.decode", "self"),
    ("codecs.decode_calls", "codecs.decode", "calls"),
    ("manifest.publish_s", "manifest.publish", "self"),
    ("manifest.publishes", "manifest.publish", "calls"),
    ("manifest.list_s", "manifest.list", "self"),
    ("decoder.chunk_s", "decoder.chunk", "self"),
    ("decoder.chunks", "decoder.chunk", "chunks"),
    ("verify.hash_s", "verify.hash", "self"),
    ("search.probe_s", "search.probe", "self"),
    ("search.candidates", "search.probe", "candidates"),
    ("search.partitions", "search.probe", "partitions"),
    ("search.scan_s", "search.scan", "self"),
] + [
    (f"queries.{q}_s", f"queries.{q}", "self")
    for q in ("events_rolling_avg", "user_sessions", "user_funnel", "session_stats", "event_transitions")
]


def start_ray(run_dir: str, trace_dir: str | None) -> None:
    import ray
    from ray.data import DataContext

    # workers import fileconvert_ray (and the tracing hook) from the checkout
    paths = [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    kw = {}
    ray_tmp = os.path.join(run_dir, "r")
    if len(ray_tmp) <= RAY_TEMP_MAX:
        kw["_temp_dir"] = ray_tmp
    if trace_dir is not None:
        from perfbench.trace import TRACE_DIR_ENV

        kw["runtime_env"] = {
            "worker_process_setup_hook": "perfbench.trace.worker_setup",
            "env_vars": {TRACE_DIR_ENV: trace_dir},
        }
    ray.init(
        address="local",
        num_cpus=int(subprocess.check_output(["nproc"])),
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=OBJECT_STORE_BYTES,
        **kw,
    )
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


class Runner:
    """Runs and counts operations; handed to ``workload.round``."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.timed = False
        self.attempted = 0
        self.failed = 0

    def op(self, kind: str, fn, span: str | None = None):
        t0 = time.perf_counter()
        try:
            if span is not None and self.tracer is not None:
                with self.tracer.span(span):
                    out = fn()
            else:
                out = fn()
        except Exception:
            print(f"operation {kind} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            out = None
        self.attempted += 1
        return out, time.perf_counter() - t0


def bench(args, run_dir: str, checker) -> tuple[dict, dict, Runner]:
    from perfbench import trace
    from perfbench.workloads import WORKLOADS

    tracer = trace_dir = None
    if args.trace:
        tracer = trace.Tracer()
        trace_dir = os.path.join(run_dir, "spans")
        os.makedirs(trace_dir)
    procs = trace.ProcTree()

    def cpu_since(before: dict) -> float:
        return sum(trace.cpu_delta(before, procs.snapshot())[0].values())

    before, t = procs.snapshot(), time.perf_counter()
    start_ray(run_dir, trace_dir)
    ray_s, ray_cpu = time.perf_counter() - t, cpu_since(before)
    if tracer is not None:
        trace.install(tracer)

    wl = WORKLOADS[args.workload](run_dir, args.seed, checker)
    prep_s, prep_cpu, setup_windows = [], [], []
    for k in range(N_SETUPS):
        before, a, t = procs.snapshot(), time.monotonic_ns(), time.perf_counter()
        wl.prepare(k)
        prep_s.append(time.perf_counter() - t)
        prep_cpu.append(cpu_since(before))
        setup_windows.append((a, time.monotonic_ns()))
    wl.check_setup()

    r = Runner(tracer)
    for _ in range(WARMUP_ROUNDS):
        wl.round(r)
        wl.check_round()
    r.timed = True
    rounds = []
    while not rounds or sum(x["wall"] for x in rounds) < args.seconds:
        before, host0 = procs.snapshot(), trace.host_ticks()
        a, t = time.monotonic_ns(), time.perf_counter()
        wl.round(r)
        wall = time.perf_counter() - t
        window = (a, time.monotonic_ns())
        host1 = trace.host_ticks()
        cpu, started = trace.cpu_delta(before, procs.snapshot())
        steal = 100 * (host1[0] - host0[0]) / max(1, host1[1] - host0[1])
        rounds.append({"wall": wall, "window": window, "cpu": cpu, "started": started, "steal": steal})
        wl.check_round()
    wl.finish(r)
    print(f"{args.workload}: ray {ray_s:.2f}s / {ray_cpu:.2f} CPU-s, setups {[round(x, 2) for x in prep_s]}s / "
          f"{[round(x, 2) for x in prep_cpu]} CPU-s, rounds {[round(x['wall'], 2) for x in rounds]}, "
          f"host steal % {[round(x['steal'], 1) for x in rounds]}, CPU-s main/task/actor/daemon "
          f"{[[round(v, 2) for v in x['cpu'].values()] for x in rounds]}", file=sys.stderr)

    if tracer is None:
        metrics = {
            "setup_s": (ray_cpu + statistics.median(prep_cpu), "s"),
            "cpu_s": (statistics.median(sum(x["cpu"].values()) for x in rounds), "s"),
            "main_peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        from perfbench import micro

        metrics = layer_metrics(tracer.spans + trace.read_worker_spans(trace_dir), rounds, setup_windows)
        metrics.update({k: (v, "Mtok/s" if k.endswith("mtok_s") else "s")
                        for k, v in micro.run(args.seed).items()})
    detail = {k: (v, u) for k, (u, v) in wl.detail().items()}
    detail["setup_wall_s"] = (ray_s + statistics.median(prep_s), "s")
    detail["round_s"] = (statistics.median(x["wall"] for x in rounds), "s")
    detail["host_steal_pct"] = (statistics.median(x["steal"] for x in rounds), "%")
    return metrics, detail, r


def layer_metrics(spans: list, rounds: list[dict], setup_windows: list) -> dict:
    from perfbench.trace import attribute

    n = len(rounds)
    self_s: dict[str, float] = {}
    counts: dict[str, dict] = {}
    unattributed = 0.0
    for x in rounds:
        s, c, u = attribute(spans, *x["window"])
        unattributed += u
        for k, v in s.items():
            self_s[k] = self_s.get(k, 0.0) + v
        for k, d in c.items():
            agg = counts.setdefault(k, {})
            for ck, cv in d.items():
                agg[ck] = agg.get(ck, 0) + cv
    out = {}
    for metric, span, field in SPAN_METRICS:
        if field == "self":
            out[metric] = (self_s.get(span, 0.0) / n, "s")
        else:
            out[metric] = (counts.get(span, {}).get(field, 0) / n, "count")
    build = sum(attribute(spans, *w)[0].get("search.index_build", 0.0) for w in setup_windows)
    out["search.index_build_s"] = (build / len(setup_windows), "s")
    for kind in ("main", "task", "actor", "daemon"):
        out[f"session.{kind}_cpu_s"] = (sum(x["cpu"][kind] for x in rounds) / n, "s")
    out["session.procs_started"] = (sum(x["started"] for x in rounds) / n, "count")
    out["session.unattributed_s"] = (unattributed / n, "s")
    out["trace.round_s"] = (sum(x["wall"] for x in rounds) / n, "s")
    out["session.host_steal_pct"] = (sum(x["steal"] for x in rounds) / n, "%")
    return out


def main(argv=None) -> int:
    from perfbench.workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    from perfbench.reference import Checker
    from perfbench.trace import ProcTree, wait_gone

    checker = Checker()
    os.makedirs(SCRATCH, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="", dir=SCRATCH)
    try:
        metrics, detail, r = bench(args, run_dir, checker)
    finally:
        import ray

        started = ProcTree().descendants()
        checker.close()
        ray.shutdown()
        wait_gone(started, timeout_s=20)
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)  # only when no other run is using it
        except OSError:
            pass
    if sorted(metrics) != sorted(want):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(want))} disagree with BENCHMARK.json")
    print(json.dumps({"workload": args.workload,
                      "detail": {k: {"value": v, "unit": u} for k, (v, u) in detail.items()}}))
    print(json.dumps({
        "correct": True,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in want},
    }))
    return 0


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    # import this directory as the perfbench package, not as loose modules
    # (its trace.py would shadow the standard library's)
    sys.path[0] = ROOT
    signal.signal(signal.SIGTERM, _terminate)
    import fileconvert_ray  # noqa: F401  (a checkout without the program fails here)

    from perfbench.reference import CheckFailed

    try:
        sys.exit(main())
    except CheckFailed as e:
        print(f"correctness check failed: {e}", file=sys.stderr)
        sys.exit(1)
