"""Inputs and the answers the benchmark checks the program against.

Everything here is computed apart from ``fileconvert_ray``: digests with
hashlib, checksums and phrase counts with numpy over the input parquet
(read with pyarrow), window-query answers with DuckDB.  The only things
taken from the program are the oracle SQL text of each query and, to
read a store back, ``stages.decoder.read_partition``.

The reference answers and the checks run in one child process
(``Checker``), which keeps the answers between calls, so the main
process's peak RSS is that of the program's Ray driver side.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import multiprocessing
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

class CheckFailed(AssertionError):
    pass


def need(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


class Checker:
    """A child process that runs ``fn(*args)`` for the caller; a
    ``CheckFailed`` raised there is raised again in the caller.

    Made before Ray starts, it forks at once, while the caller has no
    threads.  (A spawned child would also start multiprocessing's
    resource tracker, which lives until the caller exits.)"""

    def __init__(self):
        ctx = multiprocessing.get_context("fork")
        self._pool = concurrent.futures.ProcessPoolExecutor(1, mp_context=ctx)
        self._pool.submit(int).result()

    def __call__(self, fn, *args):
        return self._pool.submit(fn, *args).result()

    def close(self) -> None:
        self._pool.shutdown(wait=True, cancel_futures=True)


# the child's reference answers, kept between calls
_STATE: dict = {}

_M1 = np.uint64(0xFF51AFD7ED558CCD)
_M2 = np.uint64(0xC4CEB9FE1A85EC53)


def fmix64(x: np.ndarray) -> np.ndarray:
    """MurmurHash3's 64-bit finalizer (wrapping uint64 arithmetic)."""
    x = x.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        x ^= x >> np.uint64(33)
        x *= _M1
        x ^= x >> np.uint64(33)
        x *= _M2
        x ^= x >> np.uint64(33)
    return x


class Corpus:
    """A tokseq input held flat: doc_id, source, per-doc lengths, tokens."""

    def __init__(self, table: pa.Table):
        table = table.combine_chunks()
        toks = table.column("tokens").chunk(0) if table.num_rows else pa.array([], pa.list_(pa.int32()))
        self.doc_id = table.column("doc_id").to_pylist()
        self.source = table.column("source").to_pylist()
        self.n_tok = table.column("n_tok").to_numpy(zero_copy_only=False).astype(np.int64)
        offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        self.offsets = offs - offs[0] if len(offs) else np.zeros(1, np.int64)
        self.values = toks.values.to_numpy(zero_copy_only=False)[offs[0] : offs[-1]].astype(np.int32)

    @classmethod
    def read(cls, paths: list[str]) -> "Corpus":
        return cls(pa.concat_tables([pq.read_table(p) for p in paths]))

    @property
    def n_tokens(self) -> int:
        return int(self.values.size)

    def doc_digests(self) -> dict[str, bytes]:
        """doc_id -> blake2b over (doc_id, source, n_tok, token bytes)."""
        out = {}
        for i, d in enumerate(self.doc_id):
            h = hashlib.blake2b(digest_size=16)
            h.update(d.encode())
            h.update(b"\0" + self.source[i].encode() + b"\0")
            h.update(int(self.n_tok[i]).to_bytes(8, "little"))
            h.update(self.values[self.offsets[i] : self.offsets[i + 1]].astype("<i4").tobytes())
            out[d] = h.digest()
        return out

    def token_checksum(self) -> int:
        """Order-free checksum over (doc_id, position in doc, token)."""
        return token_checksum(self.doc_id, self.offsets, self.values)

    def phrase_hits(self, ids: np.ndarray) -> dict[str, int]:
        """doc_id -> occurrences (overlapping) of the token sequence."""
        v, L = self.values, len(ids)
        n = v.size - L + 1
        if n <= 0:
            return {}
        m = v[:n] == ids[0]
        for j in range(1, L):
            m &= v[j : n + j] == ids[j]
        starts = np.flatnonzero(m)
        doc = np.searchsorted(self.offsets, starts, side="right") - 1
        ok = starts + L <= self.offsets[doc + 1]  # phrase must not cross docs
        docs, cnt = np.unique(doc[ok], return_counts=True)
        return {self.doc_id[int(d)]: int(c) for d, c in zip(docs, cnt)}


def token_checksum(doc_ids: list[str], offsets: np.ndarray, values: np.ndarray) -> int:
    lens = np.diff(offsets)
    pos = np.arange(values.size, dtype=np.uint64) - np.repeat(offsets[:-1], lens).astype(np.uint64)
    key = np.array(
        [int.from_bytes(hashlib.blake2b(d.encode(), digest_size=8).digest(), "little") for d in doc_ids],
        dtype=np.uint64,
    )
    with np.errstate(over="ignore"):
        x = np.repeat(key, lens) ^ (pos << np.uint64(32)) ^ values.astype(np.uint32).astype(np.uint64)
        return int(fmix64(x).sum(dtype=np.uint64))


def table_checksum(t: pa.Table) -> tuple[int, int, int]:
    """(docs, tokens, checksum) of one decoded tokseq batch."""
    c = Corpus(t.select(["doc_id", "source", "n_tok", "tokens"]))
    return len(c.doc_id), c.n_tokens, c.token_checksum()


VOCAB = 50_257  # F1b's default vocabulary size


def pick_phrases(corpus: Corpus, rng: np.random.Generator) -> list[np.ndarray]:
    """Six phrases whose search cost does not hang on the seed: two of
    the corpus's 16 most frequent bigrams (no partition can be pruned),
    two 4-grams cut out of random documents (few partitions survive
    pruning) and two random trigrams that occur nowhere."""
    v = corpus.values.astype(np.int64)
    keys, cnt = np.unique(v[:-1] * VOCAB + v[1:], return_counts=True)
    top = keys[np.argsort(-cnt, kind="stable")[:16]]
    out = [np.array([k // VOCAB, k % VOCAB]) for k in rng.choice(top, 2, replace=False)]
    long_docs = np.flatnonzero(corpus.n_tok >= 8)
    for d in rng.choice(long_docs, 2, replace=False):
        p = int(corpus.offsets[d] + rng.integers(0, corpus.n_tok[d] - 3))
        out.append(corpus.values[p : p + 4].astype(np.int64))
    while len(out) < 6:
        ids = rng.integers(VOCAB // 2, VOCAB, 3).astype(np.int64)
        if not corpus.phrase_hits(ids):
            out.append(ids)
    return out


# ------------------------------------------------------------ events

def oracle_frames(events_path: str, sql_by_name: dict[str, str]) -> dict:
    import duckdb

    con = duckdb.connect()
    try:
        con.execute("set threads = 1")
        con.execute(f"create view events as select * from read_parquet('{events_path}')")
        return {name: con.execute(sql).fetchdf() for name, sql in sql_by_name.items()}
    finally:
        con.close()


def frames_equal(got, want) -> str | None:
    """Order-insensitive comparison with exact floats (None = equal)."""
    if len(got) != len(want):
        return f"rows {len(got)} != {len(want)}"
    if sorted(got.columns) != sorted(want.columns):
        return f"columns {sorted(got.columns)} != {sorted(want.columns)}"
    cols = sorted(got.columns)
    a = got[cols].sort_values(cols, ignore_index=True)
    b = want[cols].sort_values(cols, ignore_index=True)
    for c in cols:
        av, bv = a[c].to_numpy(), b[c].to_numpy()
        if av.dtype.kind == "f" or bv.dtype.kind == "f":
            same = np.array_equal(av.astype(float), bv.astype(float))
        else:
            same = bool((av == bv).all())
        if not same:
            return f"column {c} differs"
    return None


# ------------------------------------------------------------ checks (child side)


def encode_setup(paths: list[str]) -> None:
    corpus = Corpus.read(paths)
    _STATE.update(n_tokens=corpus.n_tokens, digests=corpus.doc_digests())


def check_encode(out: str, part_ids: list[str], sources: list[str], n_tokens: int) -> None:
    """One encoded store against the input: per-doc digests, token total,
    one partition per doc, one source per partition, no column larger
    encoded than plain."""
    from fileconvert_ray.stages.decoder import read_partition
    from fileconvert_ray.state.manifest import JobDirs

    digests = _STATE["digests"]
    need(n_tokens == _STATE["n_tokens"], "metrics token total != input tokens")
    dirs = JobDirs(out)
    seen: dict[str, bytes] = {}
    rows = 0
    for pid, src in zip(part_ids, sources):
        path = dirs.container_path(pid)
        t = read_partition(path)
        rows += t.num_rows
        srcs = set(t.column("source").to_pylist())
        need(srcs == {src}, f"partition {pid} holds sources {sorted(srcs)[:3]}, expected {src}")
        for d, h in Corpus(t).doc_digests().items():
            need(d not in seen, f"doc {d} lands in more than one partition")
            seen[d] = h
        cont = pq.read_table(path, columns=["column", "payload", "plain_bytes"])
        size = pc.binary_length(cont.column("payload")).to_numpy()
        plain = cont.column("plain_bytes").to_numpy()
        cols = np.array(cont.column("column").to_pylist())
        for c in np.unique(cols):
            sel = cols == c
            need(size[sel].sum() <= plain[sel].sum(),
                 f"{pid}.{c}: encoded {size[sel].sum()} > plain {plain[sel].sum()}")
    need(rows == len(digests), f"{rows} decoded rows for {len(digests)} input docs")
    need(seen == digests, "decoded per-doc digests differ from the input's")


def read_setup(paths: list[str], seed: int, encoded_tokens: int) -> tuple[list[list[int]], int]:
    """Reference answers of read_zipf; returns (phrases, input tokens)."""
    corpus = Corpus.read(paths)
    need(encoded_tokens == corpus.n_tokens, "set-up encode lost tokens")
    phrases = pick_phrases(corpus, np.random.default_rng([seed, 0x5EA7C4]))
    hits = [corpus.phrase_hits(p) for p in phrases]
    need(all(hits[:4]) and not any(hits[4:]), "phrase set is not 4 present + 2 absent")
    _STATE.update(docs=len(corpus.doc_id), n_tokens=corpus.n_tokens,
                  checksum=corpus.token_checksum(), phrases=phrases, hits=hits)
    return [p.tolist() for p in phrases], corpus.n_tokens


def check_read(counts, verify, n_parts: int, searches: list) -> None:
    """One read_zipf round: the counting UDF's figures, the hash verify
    and each phrase search's per-doc hits (None = the operation failed)."""
    if counts is not None:
        chk = int(counts.chk.to_numpy().astype(np.uint64).sum(dtype=np.uint64))
        need(int(counts.docs.sum()) == _STATE["docs"], "decoded doc count differs from the input")
        need(int(counts.tokens.sum()) == _STATE["n_tokens"], "decoded token count differs from the input")
        need(chk == _STATE["checksum"], "decoded token checksum differs from the input")
    if verify is not None:
        need(len(verify) == n_parts and bool(verify.ok.all()), "hash verify reports a mismatch")
    for ids, want, s in zip(_STATE["phrases"], _STATE["hits"], searches):
        if s is not None:
            got = dict(zip(s.doc_id.tolist(), s.n_hits.astype(int).tolist())) if len(s) else {}
            need(got == want, f"phrase {ids.tolist()}: {sum(got.values())} hits, brute force {sum(want.values())}")


def alter_store(store: str, bad: str, victim_path: str) -> None:
    """Copy ``store`` to ``bad`` and flip one byte of the token payload
    in the copy's container at ``victim_path`` (relative to the store)."""
    shutil.copytree(store, bad)
    path = os.path.join(bad, victim_path)
    pf = pq.ParquetFile(path)
    groups = [pf.read_row_group(i) for i in range(pf.metadata.num_row_groups)]
    schema = pf.schema_arrow
    pf.close()
    done = False
    with pq.ParquetWriter(path, schema, compression="none") as w:
        for t in groups:
            if not done and "tokens" in t.column("column").to_pylist():
                i = t.column("column").to_pylist().index("tokens")
                payloads = t.column("payload").to_pylist()
                b = bytearray(payloads[i])
                b[len(b) // 2] ^= 0xFF
                payloads[i] = bytes(b)
                t = t.set_column(t.schema.get_field_index("payload"), "payload", pa.array(payloads, pa.binary()))
                done = True
            w.write_table(t, row_group_size=t.num_rows)
    need(done, f"no token payload in {victim_path}")


def events_setup(events_path: str, sql_by_name: dict[str, str]) -> None:
    _STATE["oracle"] = oracle_frames(events_path, sql_by_name)


def check_events(results: dict) -> None:
    """Each window query's frame (None = the query failed) against DuckDB."""
    for q, df in results.items():
        if df is not None:
            err = frames_equal(df, _STATE["oracle"][q])
            need(err is None, f"{q} differs from its DuckDB oracle: {err}")
