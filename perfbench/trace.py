"""Layer spans recorded from outside the program, plus a /proc CPU split.

The benchmark never edits ``fileconvert_ray``.  Instead ``install``
replaces each layer's public function (see ``LAYERS``) with a wrapper
that records a span ``(name, start_ns, end_ns, counts)`` and then calls
the original.  Every module of the package that imported the function
by name gets the wrapper too, and the wrapper keeps the original's
``__module__``/``__qualname__``, so Ray pickles it by reference: a
worker resolves it to its own wrapper, installed at worker start by
``worker_setup`` (passed to ``ray.init`` as ``worker_process_setup_hook``).

The main process keeps its spans in memory.  A worker keeps them in memory
while a top-level span is open and appends them to
``$PERFBENCH_TRACE_DIR/<pid>.jsonl`` when it closes, so a task's spans
are on disk before its result reaches the main process.  Times come from
CLOCK_MONOTONIC, which all processes on one host share.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import re
import sys
import time

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"


def _count_partitions(result, args, kwargs):
    return {"partitions": int(sum(result.values()))}


def _count_trials(result, args, kwargs):
    return {"trials": int(bool(kwargs.get("trial", False)))}


def _count_candidates(result, args, kwargs):
    cand, total = result
    return {"candidates": len(cand), "partitions": int(total)}


# (module, attribute path, span name, count extractor, is a generator)
LAYERS = [
    ("fileconvert_ray.stages.partition", "source_stats", "partition.stats", None, False),
    ("fileconvert_ray.stages.partition", "bucket_plan", "partition.plan", _count_partitions, False),
    ("fileconvert_ray.stages.encoder", "stage_raw_task", "encoder.stage", None, False),
    ("fileconvert_ray.stages.encoder", "write_bucket_task", "encoder.reduce", None, False),
    ("fileconvert_ray.stages.encoder", "PartitionWriter.finalize_raw", "encoder.finalize", None, False),
    ("fileconvert_ray.selector", "select_ranked", "selector.select", None, False),
    ("fileconvert_ray.codecs", "encode_array", "codecs.encode", _count_trials, False),
    ("fileconvert_ray.codecs", "decode_array", "codecs.decode", None, False),
    ("fileconvert_ray.state.manifest", "write_manifest_entry", "manifest.publish", None, False),
    ("fileconvert_ray.state.manifest", "completed_partitions", "manifest.list", None, False),
    ("fileconvert_ray.state.manifest", "read_manifest_entries", "manifest.list", None, False),
    ("fileconvert_ray.stages.decoder", "iter_partition_chunks", "decoder.chunk", None, True),
    ("fileconvert_ray.pipelines.verify_job", "row_hashes", "verify.hash", None, False),
    ("fileconvert_ray.pipelines.search_job", "run_build_index", "search.index_build", None, False),
    ("fileconvert_ray.pipelines.search_job", "candidate_partitions_for_ids", "search.probe", _count_candidates, False),
    ("fileconvert_ray.pipelines.search_job", "count_occurrences_batch", "search.scan", None, False),
]

# modules that import a layer function by name at import time; every other
# use looks the name up in its module when called.  Kept short: each
# worker and actor process pays this import when it starts.
_USER_MODULES = [
    "fileconvert_ray.pipelines.encode_job",
    "fileconvert_ray.pipelines.verify_job",
    "fileconvert_ray.pipelines.search_job",
    "fileconvert_ray.stages.decoder",
    "fileconvert_ray.stages.encoder",
]


class Tracer:
    """Span sink of one process.  ``sink_path=None`` keeps every span in
    ``self.spans``; otherwise spans are appended to the file each time
    the outermost open span closes."""

    def __init__(self, sink_path: str | None = None):
        self.sink_path = sink_path
        self.spans: list[list] = []
        self.depth = 0

    def enter(self) -> int:
        self.depth += 1
        return time.monotonic_ns()

    def exit(self, name: str, t0: int, counts: dict | None = None) -> None:
        self.spans.append([name, t0, time.monotonic_ns(), counts])
        self.depth -= 1
        if self.depth == 0 and self.sink_path is not None:
            with open(self.sink_path, "a") as f:
                for s in self.spans:
                    f.write(json.dumps(s) + "\n")
            self.spans.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        t0 = self.enter()
        try:
            yield
        finally:
            self.exit(name, t0)


def _wrap(fn, name: str, tracer: Tracer, count, is_gen: bool):
    if is_gen:
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                t0 = tracer.enter()
                try:
                    item = next(it)
                except StopIteration:
                    tracer.exit(name, t0, {"chunks": 0})
                    return
                except BaseException:
                    tracer.exit(name, t0)
                    raise
                tracer.exit(name, t0, {"chunks": 1})
                yield item

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = tracer.enter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.exit(name, t0)
            raise
        tracer.exit(name, t0, count(result, args, kwargs) if count else None)
        return result

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every function in LAYERS, in its own module and in every
    loaded ``fileconvert_ray`` module that holds it by name."""
    for m in _USER_MODULES:
        importlib.import_module(m)
    for mod_name, path, name, count, is_gen in LAYERS:
        owner = importlib.import_module(mod_name)
        *parents, attr = path.split(".")
        for p in parents:
            owner = getattr(owner, p)
        orig = getattr(owner, attr)
        wrapped = _wrap(orig, name, tracer, count, is_gen)
        setattr(owner, attr, wrapped)
        if parents:
            continue  # a method: patching the class is enough
        for mname, mod in list(sys.modules.items()):
            if mname.startswith("fileconvert_ray") and mod is not None:
                if getattr(mod, attr, None) is orig:
                    setattr(mod, attr, wrapped)


def worker_setup() -> None:
    """Ray ``worker_process_setup_hook``: trace this worker process."""
    trace_dir = os.environ[TRACE_DIR_ENV]
    install(Tracer(os.path.join(trace_dir, f"{os.getpid()}.jsonl")))


def read_worker_spans(trace_dir: str) -> list[list]:
    spans = []
    for fn in sorted(os.listdir(trace_dir)):
        if fn.endswith(".jsonl"):
            with open(os.path.join(trace_dir, fn)) as f:
                spans.extend(json.loads(line) for line in f if line.strip())
    return spans


# ------------------------------------------------------------ self time


def attribute(spans: list[list], lo: int, hi: int) -> tuple[dict, dict, float]:
    """Self time per span name inside the window [lo, hi] (ns).

    Every instant covered by at least one span is given to the span that
    started last among those open at that instant.  Within one process
    that is the innermost span, so a span's self time is its duration
    minus what its children cover.  Across processes it is the span that
    was caused last, e.g. a worker task inside a stage run from the main process.
    Hence the self times plus the uncovered time add up to the window.

    Returns (self seconds by name, summed counts by name, uncovered s)."""
    import heapq

    inside = []
    counts: dict[str, dict] = {}
    for name, t0, t1, cnt in spans:
        if t1 <= lo or t0 >= hi:
            continue
        c = counts.setdefault(name, {"calls": 0})
        c["calls"] += 1
        for k, v in (cnt or {}).items():
            c[k] = c.get(k, 0) + v
        inside.append((max(t0, lo), min(t1, hi), name))
    inside.sort()
    points = sorted({t for s0, s1, _ in inside for t in (s0, s1)})
    self_ns: dict[str, int] = {}
    covered = 0
    heap: list[tuple[int, int, int, str]] = []  # (-start, seq, end, name)
    i = 0
    for a, b in zip(points, points[1:]):
        while i < len(inside) and inside[i][0] <= a:
            s0, s1, name = inside[i]
            heapq.heappush(heap, (-s0, i, s1, name))
            i += 1
        while heap and heap[0][2] <= a:
            heapq.heappop(heap)  # ended; the next-latest start may still be open
        if heap:
            owner = heap[0][3]
            self_ns[owner] = self_ns.get(owner, 0) + (b - a)
            covered += b - a
    self_s = {k: v / 1e9 for k, v in self_ns.items()}
    return self_s, counts, (hi - lo - covered) / 1e9


# ------------------------------------------------------------ /proc split

_CLK = os.sysconf("SC_CLK_TCK")
# actor processes keep the class name as their title (ray::CodecChoiceRegistry,
# ray::_StatsActor); task workers read ray::IDLE or ray::<op>(<fn>) / ray::<fn>
_ACTOR_TITLE = re.compile(r"^ray::_?[A-Z][A-Za-z0-9_]*(\.[A-Za-z0-9_]+)?$")


class ProcTree:
    """CPU seconds of this process and every process it started, split
    into main / task / actor / daemon.  Reads /proc only."""

    def __init__(self):
        self.root = os.getpid()

    def _classify(self, pid: int) -> str:
        if pid == self.root:
            return "main"
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                title = f.read().split(b"\0")[0].decode(errors="replace").strip()
        except OSError:
            return "daemon"
        if not title.startswith("ray::"):
            return "daemon"
        if _ACTOR_TITLE.match(title) and title != "ray::IDLE":
            return "actor"
        return "task"

    def snapshot(self) -> dict[int, tuple[str, float]]:
        """pid -> (kind, CPU seconds incl. reaped children) over the tree."""
        return {pid: (self._classify(pid), cpu) for pid, (cpu, _) in self._tree().items()}

    def descendants(self) -> dict[int, int]:
        """pid -> start time (clock ticks) of every process below this one."""
        return {pid: start for pid, (_, start) in self._tree().items() if pid != self.root}

    def _tree(self) -> dict[int, tuple[float, int]]:
        stat: dict[int, tuple[int, float, int]] = {}
        for d in os.listdir("/proc"):
            if not d.isdigit():
                continue
            try:
                with open(f"/proc/{d}/stat") as f:
                    raw = f.read()
            except OSError:
                continue
            fields = raw[raw.rfind(")") + 2 :].split()
            ppid = int(fields[1])
            cpu = sum(int(x) for x in fields[11:15]) / _CLK  # u+s+cu+cs
            stat[int(d)] = (ppid, cpu, int(fields[19]))
        children: dict[int, list[int]] = {}
        for pid, (ppid, _, _) in stat.items():
            children.setdefault(ppid, []).append(pid)
        out = {}
        todo = [self.root]
        while todo:
            pid = todo.pop()
            if pid not in stat:
                continue
            out[pid] = stat[pid][1:]
            todo.extend(children.get(pid, ()))
        return out


def start_time(pid: int) -> int | None:
    """Start time of a live process; None once it has ended (or is a zombie)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            raw = f.read()
    except OSError:
        return None
    fields = raw[raw.rfind(")") + 2 :].split()
    return None if fields[0] in ("Z", "X") else int(fields[19])


def wait_gone(procs: dict[int, int], timeout_s: float) -> None:
    """Wait until every process in ``procs`` (pid -> start time) has
    ended; SIGKILL what is left after ``timeout_s``, then wait up to 5 s."""
    import signal

    deadline = time.monotonic() + timeout_s
    killed = False
    alive = dict(procs)
    while alive:
        alive = {p: s for p, s in alive.items() if start_time(p) == s}
        if not alive:
            return
        if time.monotonic() > deadline:
            if killed:
                raise RuntimeError(f"processes {sorted(alive)} did not end")
            for p in alive:
                try:
                    os.kill(p, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            killed = True
            deadline = time.monotonic() + 5
        time.sleep(0.05)


def host_ticks() -> tuple[int, int]:
    """(steal, total) clock ticks of the whole machine, from /proc/stat."""
    with open("/proc/stat") as f:
        v = [int(x) for x in f.readline().split()[1:]]
    return v[7], sum(v)


def cpu_delta(before: dict, after: dict) -> tuple[dict, int]:
    """(CPU seconds by kind, processes started) between two snapshots."""
    by_kind = {"main": 0.0, "task": 0.0, "actor": 0.0, "daemon": 0.0}
    for pid, (kind, cpu) in after.items():
        prev = before.get(pid)
        by_kind[kind] += cpu - (prev[1] if prev else 0.0)
    return by_kind, len(set(after) - set(before))
