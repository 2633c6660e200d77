"""The three workloads: what a set-up makes, what one round runs, and
how each output is checked against ``reference``.

A workload object is made once per run.  ``prepare(k)`` is one set-up
(the run does several and keeps the first one's inputs), ``check_setup``
has the checker process compute the reference answers, ``round(r)`` runs
one round of operations through ``r.op(...)``, ``check_round`` has the
checker check their results (outside the timed round), ``finish`` runs
end-of-run checks, and ``detail`` returns the workload's own figures
(printed beside the result line).
"""

from __future__ import annotations

import os
import shutil
import statistics

import numpy as np
import pyarrow as pa

from . import reference
from .reference import need


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


# ------------------------------------------------------------ token corpus

ENCODE_ROWS = 6_000  # about 3.7 M tokens
READ_ROWS = 4_000  # about 2.5 M tokens; each read set-up also encodes and indexes
CORPUS_SHARDS = 8
N_SOURCES = 20
ZIPF_A = 1.3
PARTITION_TOKENS = 2_000_000  # the hot source splits into two partitions of >1 M tokens


def _write_corpus(dirpath: str, rows: int, seed: int) -> list[str]:
    from fileconvert_ray.sources.tokseq import write_synth_corpus

    return write_synth_corpus(
        dirpath, rows, shards=CORPUS_SHARDS, seed=seed, n_sources=N_SOURCES, zipf_a=ZIPF_A
    )


def _factories(paths: list[str]):
    import ray.data as rd

    return (
        lambda: rd.read_parquet(paths),
        lambda: rd.read_parquet(paths, columns=["source", "n_tok"]),
    )


def _encode(paths: list[str], out_dir: str):
    """One ``run_encode`` into a fresh store; returns its metrics frame."""
    from fileconvert_ray.pipelines.encode_job import EncodeConfig, run_encode

    ds, stats = _factories(paths)
    cfg = EncodeConfig(out_dir=out_dir, target_partition_tokens=PARTITION_TOKENS, resume=False)
    return run_encode(ds, cfg, stats_factory=stats).to_pandas()


class EncodeZipf:
    """Each round encodes the same seeded corpus into a fresh store."""

    name = "encode_zipf"

    def __init__(self, run_dir: str, seed: int, checker: reference.Checker):
        self.dir, self.seed, self.checker = run_dir, seed, checker
        self.tokens: list[int] = []
        self.seconds: list[float] = []
        self.bytes_per_token: list[float] = []
        self.n = 0

    def prepare(self, k: int) -> None:
        paths = _write_corpus(os.path.join(self.dir, f"input{k}"), ENCODE_ROWS, self.seed)
        if k == 0:
            self.paths = paths

    def check_setup(self) -> None:
        self.checker(reference.encode_setup, self.paths)

    def round(self, r) -> None:
        out = os.path.join(self.dir, f"store{self.n}")
        self.n += 1
        m, dt = r.op("encode", lambda: _encode(self.paths, out))
        self.pending = (m, dt, out, r.timed)

    def check_round(self) -> None:
        m, dt, out, timed = self.pending
        if m is not None:
            n_tokens = int(m.n_tokens.sum())
            self.checker(reference.check_encode, out, m.part_id.tolist(), m.source.tolist(), n_tokens)
            if timed:
                self.seconds.append(dt)
                self.tokens.append(n_tokens)
                self.bytes_per_token.append(float(m.encoded_bytes.sum()) / n_tokens)
        shutil.rmtree(out, ignore_errors=True)

    def finish(self, r) -> None:
        pass

    def detail(self) -> dict:
        return {
            "encode_mtok_s": ("Mtok/s", _median([t / s / 1e6 for t, s in zip(self.tokens, self.seconds)])),
            "bytes_per_token": ("B/token", _median(self.bytes_per_token)),
        }


# ------------------------------------------------------------ read path

def _count_udf(batch: pa.Table) -> pa.Table:
    """Counting consumer of the decoded stream (runs in Ray workers)."""
    docs, toks, chk = reference.table_checksum(batch)
    return pa.table({"docs": [docs], "tokens": [toks], "chk": pa.array([chk], pa.uint64())})


class ReadZipf:
    """Set-up encodes and indexes one corpus; each round reads it back:
    a full decode, a hash verify and the pruned phrase searches."""

    name = "read_zipf"

    def __init__(self, run_dir: str, seed: int, checker: reference.Checker):
        self.dir, self.seed, self.checker = run_dir, seed, checker
        self.decode_s: list[float] = []
        self.verify_s: list[float] = []
        self.search_s: list[float] = []

    def prepare(self, k: int) -> None:
        from fileconvert_ray.pipelines import search_job

        # the corpus seed differs from encode_zipf's on the same --seed
        paths = _write_corpus(os.path.join(self.dir, f"input{k}"), READ_ROWS, self.seed + 1_000_003)
        store = os.path.join(self.dir, f"store{k}")
        m = _encode(paths, store)
        search_job.run_build_index(store)
        if k == 0:
            self.paths, self.store, self.metrics = paths, store, m
        else:
            shutil.rmtree(store)
            shutil.rmtree(os.path.dirname(paths[0]))

    def check_setup(self) -> None:
        phrases, self.n_tokens = self.checker(
            reference.read_setup, self.paths, self.seed, int(self.metrics.n_tokens.sum())
        )
        self.phrases = [np.array(p, dtype=np.int64) for p in phrases]
        self.n_parts = len(self.metrics)

    def _decode(self):
        from fileconvert_ray.stages.decoder import decode_dataset

        ds = decode_dataset(self.store).map_batches(
            _count_udf, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
        )
        return ds.to_pandas()

    def _verify(self, store: str):
        from fileconvert_ray.pipelines.verify_job import run_verify

        return run_verify(_factories(self.paths)[0], store, mode="hash").to_pandas()

    def _search(self, ids: np.ndarray):
        from fileconvert_ray.pipelines.search_job import run_search

        return run_search(self.store, token_ids=ids.tolist()).to_pandas()

    def round(self, r) -> None:
        self.pending = (
            r.timed,
            r.op("decode", self._decode),
            r.op("verify", lambda: self._verify(self.store)),
            [r.op("search", lambda ids=ids: self._search(ids)) for ids in self.phrases],
        )

    def check_round(self) -> None:
        timed, (c, dec_s), (v, ver_s), searches = self.pending
        self.checker(reference.check_read, c, v, self.n_parts, [s for s, _ in searches])
        if timed:
            self.decode_s += [dec_s] if c is not None else []
            self.verify_s += [ver_s] if v is not None else []
            self.search_s += [dt for s, dt in searches if s is not None]

    def finish(self, r) -> None:
        """Negative control: verify must fail on a store with one altered
        container token payload."""
        from fileconvert_ray.state.manifest import JobDirs

        bad = os.path.join(self.dir, "altered")
        victim = sorted(self.metrics.part_id)[0]
        rel = os.path.relpath(JobDirs(self.store).container_path(victim), self.store)
        self.checker(reference.alter_store, self.store, bad, rel)
        v = self._verify(bad)
        failed = set(v.part_id[~v.ok])
        need(failed == {victim}, f"verify of an altered store flags {sorted(failed)}, expected [{victim}]")
        shutil.rmtree(bad)

    def detail(self) -> dict:
        mtok = self.n_tokens / 1e6
        m = self.metrics
        return {
            "decode_mtok_s": ("Mtok/s", _median([mtok / s for s in self.decode_s])),
            "verify_mtok_s": ("Mtok/s", _median([mtok / s for s in self.verify_s])),
            "search_s": ("s", _median(self.search_s)),
            "bytes_per_token": ("B/token", float(m.encoded_bytes.sum()) / int(m.n_tokens.sum())),
        }


# ------------------------------------------------------------ window queries

WINDOW_QUERIES = ["events_rolling_avg", "user_sessions", "user_funnel", "session_stats", "event_transitions"]
# the test data's fixed sf0.1 ``events`` table (seed 42; 100,000 events,
# 1,500 users), copied byte for byte so the benchmark reads only its checkout
EVENTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


class EventsWindow:
    """Each round runs the five per-key window / sequence queries over the
    fixed events table; set-up is Ray start alone."""

    name = "events_window"

    def __init__(self, run_dir: str, seed: int, checker: reference.Checker):
        self.checker = checker
        self.window_s: list[float] = []

    def prepare(self, k: int) -> None:
        pass

    def check_setup(self) -> None:
        from fileconvert_ray.functions.queries import ORACLE_SQL

        self.checker(reference.events_setup, os.path.join(EVENTS_DIR, "events.parquet"),
                     {q: ORACLE_SQL[q] for q in WINDOW_QUERIES})

    def _query(self, name: str):
        from fileconvert_ray.functions.queries import QUERIES

        return QUERIES[name](EVENTS_DIR).to_pandas()

    def round(self, r) -> None:
        self.pending = (
            r.timed,
            [r.op("query", lambda q=q: self._query(q), span=f"queries.{q}") for q in WINDOW_QUERIES],
        )

    def check_round(self) -> None:
        timed, results = self.pending
        self.checker(reference.check_events, {q: df for q, (df, _) in zip(WINDOW_QUERIES, results)})
        if timed:
            self.window_s.append(sum(dt for _, dt in results))

    def finish(self, r) -> None:
        pass

    def detail(self) -> dict:
        return {"window_s": ("s", _median(self.window_s))}


WORKLOADS = {w.name: w for w in (EncodeZipf, ReadZipf, EventsWindow)}
