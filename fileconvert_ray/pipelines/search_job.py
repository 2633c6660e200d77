"""Phrase search over the encoded corpus — bloom-indexed partition
pruning, vectorized containment scan.

"Find every document containing this exact word sequence" is the
audit / decontamination-forensics / targeted-takedown query a 100-TB
corpus store needs constantly; a full decode per question is absurd.
The design splits it into an ACCELERATOR and an exact SCAN:

- ``run_build_index`` writes one tiny bloom sidecar per partition
  (``index/token_bloom/{part_id}.parquet``, one row: bitmap + params)
  holding the partition's distinct token ids AND distinct adjacent
  token bigrams (bigrams are the sharp edge: common words appear in
  every partition, a specific word PAIR rarely does).  One Ray task
  per container, streaming chunk decode pruned to the tokens column,
  all set arithmetic vectorized (np.unique over the flat buffer).
  Sizing is per-partition: m = next_pow2(bits_per_key × distinct
  keys), so a skewed partition never inflates its neighbours' files.

- ``run_search`` tokenizes the phrase under the store's persisted
  vocabulary (word -> id; any word absent from the vocab cannot match
  any stored token, so the result is exactly empty — the reserved OOV
  id is never a match candidate), prunes partitions whose bloom lacks
  any phrase unigram/bigram key, then decodes ONLY the candidates and
  counts occurrences with a vectorized flat-buffer scan (L aligned
  equality slices ANDed + a same-document guard; every position
  counted, overlapping matches included).

Correctness never depends on the index: a partition with no sidecar
stays a candidate, and the only in-place rewrite the store performs
(purge) strictly REMOVES rows, so a pre-purge bloom remains a
superset of the partition's content — pruning can only weaken, never
produce a false negative.  Compaction / upsert / merge create NEW
partition labels, which simply have no sidecar until the next
``run_build_index`` gap-fill (idempotent, like run_annotate).

Scale shape at 100 TB: the index is ~KBs per partition; the pruning
pass reads sidecars only (one Ray task per sidecar batch), and a
rare phrase decodes a handful of containers out of millions.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..state.manifest import publishing

INDEX_NAME = "token_bloom"
_GOLD = np.uint64(0x9E3779B97F4A7C15)
_GOLD2 = np.uint64(0xC2B2AE3D27D4EB4F)
_K_HASHES = 4
_BITS_PER_KEY = 12  # k=4, 12 bits/key -> ~0.6% false-candidate rate


def index_dir(out_dir: str, name: str = INDEX_NAME) -> str:
    return os.path.join(out_dir, "index", name)


def _mix(x: np.ndarray) -> np.ndarray:
    from ..util.hashing import splitmix64

    return splitmix64(x.astype(np.uint64, copy=False))


def _phrase_keys(ids: np.ndarray) -> np.ndarray:
    """The bloom keys a phrase needs present: one per distinct unigram
    + one per distinct adjacent bigram.  Must match _partition_keys'
    construction exactly (same mixing, same combine)."""
    ids = ids.astype(np.uint64, copy=False)
    uni = _mix(_mix(np.unique(ids)) ^ _GOLD2)
    if len(ids) < 2:
        return uni
    with np.errstate(over="ignore"):
        bi = _mix(_mix(ids[:-1]) * _GOLD + ids[1:])
    return np.unique(np.concatenate([uni, bi]))


def _partition_keys(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Distinct unigram + within-doc adjacent-bigram keys of one
    decoded chunk (values = flat token buffer, offsets = list
    offsets).  Bigrams never cross a document boundary."""
    v = values.astype(np.uint64, copy=False)
    uni = _mix(_mix(np.unique(v)) ^ _GOLD2)
    if len(v) < 2:
        return np.unique(uni)
    lens = np.diff(offsets)
    seg = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    same = seg[:-1] == seg[1:]
    with np.errstate(over="ignore"):
        bi = _mix(_mix(v[:-1]) * _GOLD + v[1:])[same]
    return np.unique(np.concatenate([uni, np.unique(bi)]))


def _bloom_positions(keys: np.ndarray, m_bits: int) -> np.ndarray:
    """(len(keys) × k) flat bit positions; m_bits is a power of two."""
    mask = np.uint64(m_bits - 1)
    out = np.empty(len(keys) * _K_HASHES, dtype=np.int64)
    with np.errstate(over="ignore"):
        for j in range(_K_HASHES):
            h = _mix(keys + np.uint64(j) * _GOLD2)
            out[j * len(keys) : (j + 1) * len(keys)] = (h & mask).astype(np.int64)
    return out


def _build_bitmap(keys: np.ndarray) -> tuple[bytes, int]:
    n = max(int(len(keys)), 1)
    m_bits = 1 << max(10, int(np.ceil(np.log2(n * _BITS_PER_KEY))))
    bits = np.zeros(m_bits // 8, dtype=np.uint8)
    pos = _bloom_positions(keys, m_bits)
    np.bitwise_or.at(bits, pos >> 3, np.uint8(1) << (pos & 7).astype(np.uint8))
    return bits.tobytes(), m_bits


def _bitmap_contains_all(bitmap: bytes, m_bits: int, keys: np.ndarray) -> bool:
    bits = np.frombuffer(bitmap, dtype=np.uint8)
    pos = _bloom_positions(keys, m_bits)
    got = bits[pos >> 3] & (np.uint8(1) << (pos & 7).astype(np.uint8))
    return bool((got != 0).all())


def run_build_index(out_dir: str, name: str = INDEX_NAME) -> dict:
    """One Ray task per completed partition lacking a sidecar:
    stream-decode the tokens column, collect distinct unigram/bigram
    keys, write ``index/{name}/{part_id}.parquet`` atomically
    (``publishing``).  Idempotent — re-run fills only gaps, so it composes
    with compaction / merge / upsert exactly like run_annotate."""
    import ray.data as rd

    from ..state.manifest import JobDirs, completed_partitions

    dirs = JobDirs(out_dir)
    idir = index_dir(out_dir, name)
    os.makedirs(idir, exist_ok=True)
    pids = sorted(completed_partitions(out_dir))
    todo = [p for p in pids if not os.path.exists(os.path.join(idir, f"{p}.parquet"))]

    def build(batch: pa.Table):
        from ..stages.decoder import iter_partition_chunks

        rows = []
        for pid in batch.column("pid").to_pylist():
            chunks = []
            for t in iter_partition_chunks(dirs.container_path(pid), ["tokens"]):
                toks = t.column("tokens").combine_chunks()
                chunks.append(
                    _partition_keys(
                        toks.values.to_numpy(zero_copy_only=False),
                        toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64),
                    )
                )
            keys = (
                np.unique(np.concatenate(chunks))
                if chunks
                else np.empty(0, dtype=np.uint64)
            )
            bitmap, m_bits = _build_bitmap(keys)
            t = pa.table(
                {
                    "pid": pa.array([pid], pa.string()),
                    "m_bits": pa.array([m_bits], pa.int64()),
                    "k": pa.array([_K_HASHES], pa.int64()),
                    "n_keys": pa.array([len(keys)], pa.int64()),
                    "bitmap": pa.array([bitmap], pa.binary()),
                }
            )
            with publishing(os.path.join(idir, f"{pid}.parquet")) as tmp:
                pq.write_table(t, tmp)
            rows.append({"pid": pid, "bytes": len(bitmap)})
        return (
            pa.Table.from_pylist(rows)
            if rows
            else pa.table({"pid": pa.array([], pa.string()), "bytes": pa.array([], pa.int64())})
        )

    written = 0
    if todo:
        res = (
            rd.from_items([{"pid": p} for p in todo])
            .map_batches(build, batch_format="pyarrow", batch_size=1)
            .to_pandas()
        )
        written = int(len(res))
    return {
        "ok": True,
        "index": name,
        "partitions": len(pids),
        "written": written,
        "skipped": len(pids) - len(todo),
        "dir": idir,
    }


def phrase_token_ids(out_dir: str, phrase: str) -> np.ndarray | None:
    """Phrase words -> token ids under the store's persisted word
    vocabulary (single-space split, the tokenize_job contract).
    Returns None when any word is absent: an exact-id match is then
    impossible (the reserved OOV id deliberately never matches — it
    stands for EVERY unseen word, so claiming it equals this one would
    be a false positive).  Refuses non-ingested and BPE-re-encoded
    stores through the same matrix as the vocab-aware annotators."""
    from ..pipelines.bpe_job import read_rules

    vp = os.path.join(out_dir, "vocab.json")
    if not os.path.exists(vp):
        raise ValueError(
            f"phrase search needs an ingested store (no vocab.json in {out_dir}); "
            "for a plain token store pass token_ids= directly"
        )
    if read_rules(out_dir):
        raise ValueError(
            f"store {out_dir} is BPE-re-encoded (merges.json): token ids are "
            "merged symbols — search the source store, or pass token_ids="
        )
    with open(vp) as f:
        vocab = json.load(f)
    lut = {w: i for i, w in enumerate(vocab)}
    words = [w for w in phrase.split(" ") if w]
    if not words:
        raise ValueError("empty phrase")
    ids = [lut.get(w) for w in words]
    if any(i is None for i in ids):
        return None
    return np.array(ids, dtype=np.int64)


def candidate_partitions_for_ids(
    out_dir: str, phrases: list, name: str = INDEX_NAME
) -> tuple[list[str], int]:
    """(candidate part_ids, total completed) — bloom pruning for a list
    of phrase token-id arrays.  A partition stays a candidate when any
    phrase's keys all hit its bloom, so one probe job (each sidecar
    read once) serves every phrase of a command.  A partition with no
    sidecar stays a candidate (the index is an accelerator, never a
    correctness gate); the sidecar check runs as Ray tasks so millions
    of partitions never serialize through the driver's open() loop."""
    import ray.data as rd

    from ..state.manifest import completed_partitions

    pids = sorted(completed_partitions(out_dir))
    idir = index_dir(out_dir, name)
    keysets = [_phrase_keys(np.asarray(ids, dtype=np.int64)) for ids in phrases]

    def check(batch: pa.Table) -> pa.Table:
        out = []
        for pid in batch.column("pid").to_pylist():
            p = os.path.join(idir, f"{pid}.parquet")
            if not os.path.exists(p):
                out.append(True)
                continue
            row = pq.read_table(p)
            bitmap = row.column("bitmap")[0].as_py()
            m_bits = int(row.column("m_bits")[0].as_py())
            out.append(any(_bitmap_contains_all(bitmap, m_bits, k) for k in keysets))
        return pa.table(
            {"pid": batch.column("pid"), "cand": pa.array(out, pa.bool_())}
        )

    if not pids:
        return [], 0
    # driver holds O(partitions) labels — same order as every other
    # partition-planning step in this repo (manifest listing itself
    # is O(partitions) on the driver)
    res = (
        rd.from_items([{"pid": p} for p in pids])
        .map_batches(check, batch_format="pyarrow", batch_size=256)
        .to_pandas()
    )
    cand = sorted(res.loc[res["cand"], "pid"])
    return cand, len(pids)


def count_occurrences_batch(
    batch: pa.Table, ids: np.ndarray, with_positions: bool = False
) -> pa.Table:
    """Vectorized containment count over one decoded batch: L aligned
    equality slices over the flat token buffer ANDed together, a
    same-document guard (seg[p] == seg[p+L-1]), and one bincount.
    Counts EVERY start position — overlapping matches included.

    ``with_positions`` additionally emits each match's 0-based token
    start offset within its document (``positions: list<int64>``,
    ascending) — the span evidence a redaction / forensics consumer
    needs.  Free beyond the count path: the mask's nonzero indices are
    the global starts, one subtraction rebases them per doc."""
    toks = batch.column("tokens").combine_chunks()
    v = toks.values.to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
    offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    lens = np.diff(offs)
    n = len(lens)
    L = len(ids)
    N = len(v)
    hits = np.zeros(n, dtype=np.int64)
    pos = np.empty(0, dtype=np.int64)
    seg_at_pos = np.empty(0, dtype=np.int64)
    if N >= L and n:
        m = v[: N - L + 1] == ids[0]
        for j in range(1, L):
            m &= v[j : N - L + 1 + j] == ids[j]
        if m.any():
            seg = np.repeat(np.arange(n, dtype=np.int64), lens)
            if L > 1:
                m &= seg[: N - L + 1] == seg[L - 1 :]
            pos = np.nonzero(m)[0]
            if len(pos):
                seg_at_pos = seg[pos]
                hits = np.bincount(seg_at_pos, minlength=n)
    keep = hits > 0
    cols = {
        "doc_id": pc.cast(batch.column("doc_id"), pa.string()).filter(
            pa.array(keep)
        ),
        "n_hits": pa.array(hits[keep], type=pa.int64()),
    }
    if with_positions:
        # pos is ascending and seg_at_pos nondecreasing, so matches
        # are already grouped per doc in order; list offsets fall out
        # of the kept docs' hit counts
        rel = pos - offs[seg_at_pos]
        loffs = np.concatenate(([0], np.cumsum(hits[keep]))).astype(np.int64)
        cols["positions"] = pa.ListArray.from_arrays(
            pa.array(loffs, type=pa.int32()), pa.array(rel, type=pa.int64())
        )
    return pa.table(cols)


def count_many_batch(
    batch: pa.Table, by_len: dict[int, tuple[list[str], np.ndarray]]
) -> pa.Table:
    """Multi-phrase containment over one decoded batch: ONE rolling
    L-gram hash pass per distinct phrase length (not per phrase), a
    sorted-membership probe against that length's phrase hashes, and
    an EXACT id re-check of the attributed positions (so a 64-bit
    hash collision can mis-route nothing).  by_len maps L ->
    (phrase names, P×L id matrix)."""
    toks = batch.column("tokens").combine_chunks()
    v = toks.values.to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
    offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    lens = np.diff(offs)
    n = len(lens)
    seg = np.repeat(np.arange(n, dtype=np.int64), lens)
    doc_ids = pc.cast(batch.column("doc_id"), pa.string())

    out_name: list[str] = []
    out_doc: list[int] = []
    out_hits: list[int] = []
    uv = v.astype(np.uint64, copy=False)
    for L, (names, mat) in by_len.items():
        N = len(v)
        if N < L or n == 0:
            continue
        # phrase-side rolling hashes (P of them) with the same combine
        ph = np.zeros(len(names), dtype=np.uint64)
        with np.errstate(over="ignore"):
            for j in range(L):
                ph = _mix(ph * _GOLD + mat[:, j].astype(np.uint64))
            order = np.argsort(ph)
            ph_sorted = ph[order]
            # corpus-side rolling hashes for every start position
            h = np.zeros(N - L + 1, dtype=np.uint64)
            for j in range(L):
                h = _mix(h * _GOLD + uv[j : N - L + 1 + j])
        idx = np.searchsorted(ph_sorted, h)
        idx[idx == len(ph_sorted)] = 0
        cand = ph_sorted[idx] == h
        if L > 1:
            cand &= seg[: N - L + 1] == seg[L - 1 :]
        pos = np.nonzero(cand)[0]
        if not len(pos):
            continue
        attr = order[idx[pos]]  # phrase ordinal per candidate position
        ok = np.ones(len(pos), dtype=bool)
        for j in range(L):  # exact confirmation — collisions routed out
            ok &= v[pos + j] == mat[attr, j]
        pos, attr = pos[ok], attr[ok]
        if not len(pos):
            continue
        key = attr.astype(np.int64) * n + seg[pos]
        uniq, cnt = np.unique(key, return_counts=True)
        out_name.extend(names[int(k // n)] for k in uniq)
        out_doc.extend(int(k % n) for k in uniq)
        out_hits.extend(int(c) for c in cnt)
    return pa.table(
        {
            "phrase": pa.array(out_name, pa.string()),
            "doc_id": doc_ids.take(pa.array(out_doc, pa.int64())),
            "n_hits": pa.array(out_hits, pa.int64()),
        }
    )


def run_search_many(
    out_dir: str,
    phrases: list[str],
    *,
    use_index: bool = True,
    name: str = INDEX_NAME,
    sources: list[str] | None = None,
):
    """N phrases, ONE decode pass: streaming Dataset of (phrase,
    doc_id, n_hits) — the decontamination-forensics shape ("which
    eval prompts leak into which documents, how often").  Phrases
    containing a word outside the vocab simply match nothing; bloom
    pruning keeps a partition when ANY phrase's keys all hit, so the
    union read stays exact.  Corpus work is one rolling-hash pass per
    DISTINCT phrase length, not per phrase — 10 or 10,000 eval
    prompts of the same length cost the same decode + scan."""
    from ..stages.decoder import decode_dataset

    if not phrases:
        raise ValueError("empty phrase list")
    if len(set(phrases)) != len(phrases):
        raise ValueError("duplicate phrases")
    resolved: dict[str, np.ndarray] = {}
    for p in phrases:
        ids = phrase_token_ids(out_dir, p)
        if ids is not None:
            resolved[p] = ids

    by_len: dict[int, tuple[list[str], np.ndarray]] = {}
    for L in sorted({len(i) for i in resolved.values()}):
        names = [p for p, i in resolved.items() if len(i) == L]
        mat = np.stack([resolved[p] for p in names])
        by_len[L] = (names, mat)

    part_ids = None
    if resolved and use_index and os.path.isdir(index_dir(out_dir, name)):
        part_ids, _total = candidate_partitions_for_ids(out_dir, list(resolved.values()), name)

    ds = decode_dataset(
        out_dir, columns=["doc_id", "tokens"], part_ids=part_ids, sources=sources
    )
    return ds.map_batches(
        lambda b: count_many_batch(b, by_len),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def run_search(
    out_dir: str,
    phrase: str | None = None,
    *,
    token_ids=None,
    use_index: bool = True,
    name: str = INDEX_NAME,
    with_positions: bool = False,
    sources: list[str] | None = None,
):
    """Streaming Dataset of (doc_id, n_hits) for documents containing
    the exact token sequence.  Pruning via the bloom sidecars when
    they exist (``use_index=False`` forces the full scan — the
    baseline the pruned path is tested against).  Tombstoned docs are
    excluded by decode_dataset as in every read.

    ``with_positions=True`` adds ``positions: list<int64>`` — each
    match's 0-based token start offset within its doc, ascending,
    overlaps included — the span evidence for redaction / audit
    consumers (a doc_id alone says "contains", not "where").

    ``sources`` scopes the scan to those sources' partitions (audits
    are usually per-domain): manifest pruning composes with the bloom
    pruning — only partitions passing BOTH are decoded."""
    import ray.data as rd

    from ..stages.decoder import decode_dataset

    if (phrase is None) == (token_ids is None):
        raise ValueError("exactly one of phrase / token_ids required")
    if phrase is not None:
        ids = phrase_token_ids(out_dir, phrase)
        if ids is None:  # a word outside the vocab matches nothing
            empty = {"doc_id": pa.array([], pa.string()),
                     "n_hits": pa.array([], pa.int64())}
            if with_positions:
                empty["positions"] = pa.array([], pa.list_(pa.int64()))
            return rd.from_arrow(pa.table(empty))
    else:
        ids = np.asarray(list(token_ids), dtype=np.int64)
        if not len(ids):
            raise ValueError("empty token_ids")

    part_ids = None
    if use_index and os.path.isdir(index_dir(out_dir, name)):
        part_ids, _total = candidate_partitions_for_ids(out_dir, [ids], name)

    ds = decode_dataset(
        out_dir, columns=["doc_id", "tokens"], part_ids=part_ids, sources=sources
    )
    return ds.map_batches(
        lambda b: count_occurrences_batch(b, ids, with_positions=with_positions),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
