"""Derived annotations over an encoded corpus — co-partitioned side
tables, zero-shuffle attach.

Training pipelines continuously attach per-document scores (quality,
repetition, length stats) to an already-encoded corpus; re-encoding
100 TB to add a float column is absurd, and a doc_id join at read
time is an all-to-all shuffle.  ``run_annotate`` instead computes the
annotation PER PARTITION (one Ray task per container, streaming
chunk decode, column-pruned to what the annotator needs) and writes
``ann/{name}/{part_id}.parquet`` — the side table inherits the
corpus's partitioning, so ``decode_dataset(...,
with_annotations=[name])`` attaches it with an in-task doc_id join
against ONLY that partition's file.  No shuffle at write, none at
read.

Annotators are deterministic token-level functions (registered in
``ANNOTATORS``), so every annotation is DuckDB-oracle-checkable
through the word-level equivalents on the original documents:

- ``token_stats``: n_tok, n_distinct, distinct_ratio (type-token
  ratio), repetition_ratio (1 - distinct_ratio), max_run (longest
  immediate-repeat run) — the standard cheap quality signals.

Lifecycle: annotation files are tmp+renamed (atomic, idempotent
re-run skips existing), and a partition rewritten later (purge /
compaction) simply no longer matches its annotation file name —
``decode_dataset`` raises on a missing annotation for a served
partition, so stale attach is loud, and ``run_annotate`` re-run fills
the gaps.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..state.manifest import publishing


def _token_stats(batch: pa.Table) -> pa.Table:
    """Per-doc token-level quality stats; vectorized over the flat
    token buffer with one np.unique per doc-segment boundary trick:
    lengths come from the list offsets, distinct counts via a sort
    within segments (lexsort on (segment, token))."""
    toks = batch.column("tokens").combine_chunks()
    ids = toks.values.to_numpy(zero_copy_only=False).astype(np.int64)
    offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    lens = np.diff(offs)
    n = len(lens)
    seg = np.repeat(np.arange(n, dtype=np.int64), lens)

    # distinct tokens per doc: sort (seg, id) pairs, count boundaries
    if len(ids):
        order = np.lexsort((ids, seg))
        s_seg, s_ids = seg[order], ids[order]
        new = np.empty(len(ids), dtype=bool)
        new[0] = True
        np.not_equal(s_seg[1:], s_seg[:-1], out=new[1:])
        new[1:] |= s_ids[1:] != s_ids[:-1]
        n_distinct = np.bincount(s_seg[new], minlength=n)
        # longest immediate-repeat run per doc (in original order):
        # r[i] = i - (last non-continuation at or before i) + 1
        cont = np.empty(len(ids), dtype=bool)
        cont[0] = False
        cont[1:] = (ids[1:] == ids[:-1]) & (seg[1:] == seg[:-1])
        last_start = np.maximum.accumulate(
            np.where(~cont, np.arange(len(ids)), -1)
        )
        r = np.arange(len(ids)) - last_start + 1
        max_run = np.zeros(n, dtype=np.int64)
        np.maximum.at(max_run, seg, r)
    else:
        n_distinct = np.zeros(n, dtype=np.int64)
        max_run = np.zeros(n, dtype=np.int64)

    safe = np.maximum(lens, 1).astype(np.float64)
    distinct_ratio = n_distinct / safe
    return pa.table(
        {
            "doc_id": pc.cast(batch.column("doc_id"), pa.string()),
            "n_tok": pa.array(lens, type=pa.int64()),
            "n_distinct": pa.array(n_distinct, type=pa.int64()),
            "distinct_ratio": pa.array(distinct_ratio, type=pa.float64()),
            "repetition_ratio": pa.array(1.0 - distinct_ratio, type=pa.float64()),
            "max_run": pa.array(max_run, type=pa.int64()),
        }
    )


def _content_hash(batch: pa.Table) -> pa.Table:
    """Per-doc uint64 content hash over the TOKEN SEQUENCE alone
    (functions/dedup.token_content_hashes — the same identity merge's
    cross-store exact dedup uses, id/source excluded on purpose).
    Stored as int64 bit-pattern (parquet has no uint64).  Use cases:
    audit joins between stores, grouping re-crawled copies, and
    export-packed ann_filter carve-outs by known-content lists."""
    from ..functions.dedup import token_content_hashes

    n_tok = pc.list_value_length(batch.column("tokens")).cast(pa.int64())
    t = pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "tokens": batch.column("tokens"),
            "n_tok": n_tok,
        }
    )
    h = token_content_hashes(t).view(np.int64)
    return pa.table(
        {
            "doc_id": pc.cast(batch.column("doc_id"), pa.string()),
            "content_hash": pa.array(h),
        }
    )


def _load_word_vocab(out_dir: str):
    """vocab words (+ the reserved OOV rendering) for a vocab-aware
    annotator, or a loud refusal when token ids are not word ids:
    plain run_encode stores carry no vocab.json, and a BPE-re-encoded
    store's ids are merged symbols the per-word tables cannot score."""
    import json

    from ..pipelines.bpe_job import read_rules
    from ..pipelines.tokenize_job import OOV_TOKEN

    vp = os.path.join(out_dir, "vocab.json")
    if not os.path.exists(vp):
        raise ValueError(
            f"annotator needs an ingested store (no vocab.json in {out_dir}); "
            "text-level annotators score token ids through the frozen word "
            "vocabulary — encode-only stores have no word identity to score"
        )
    if read_rules(out_dir):
        raise ValueError(
            f"store {out_dir} is BPE-re-encoded (merges.json): token ids are "
            "merged symbols, not vocabulary words — run the annotator before "
            "bpe-reencode, or on the source store"
        )
    with open(vp) as f:
        vocab = json.load(f)
    return pa.array(list(vocab) + [OOV_TOKEN], type=pa.string())


def _seg_sums(per_tok: np.ndarray, offs: np.ndarray) -> np.ndarray:
    """Per-doc sums of a flat per-token vector (masked reduceat — the
    empty-segment discipline quality_batch uses)."""
    lens = np.diff(offs)
    out = np.zeros(len(lens), dtype=per_tok.dtype)
    if len(per_tok):
        idx = np.minimum(offs[:-1], len(per_tok) - 1)
        out = np.add.reduceat(per_tok, idx) * (lens > 0)
    return out


def _text_quality_factory(out_dir: str):
    """Vocab-aware text-quality signals computed FROM TOKEN IDS — the
    same five signals functions/textstats.quality_batch derives from
    raw text (n_chars, n_words, stop_ratio, punct_ratio,
    mean_word_len), without materializing a single byte of text.

    Tokenization is whitespace-split and detokenize joins with single
    spaces (pipelines/tokenize_job.py), so per-word properties are a
    function of the vocabulary alone: three O(vocab) tables (char
    length, stopword-ness, punct-char count via the same RE2 pattern
    quality_batch counts on text) are built ONCE per task, then each
    doc is one gather + masked reduceat.  Signals are exact w.r.t. the
    store's own detokenization — identical to the original text
    whenever the vocab is total (single-run ingest; OOV ids score as
    the literal ``<unk>`` rendering, matching what detokenize emits).

    Feeds the curation loop with no raw-corpus access: ``export-packed
    --ann-filter text_quality:stop_ratio:...``, ``delete --where-ann
    text_quality:punct_ratio:...``."""
    from ..functions.textstats import STOPWORDS

    words = _load_word_vocab(out_dir)
    wlen = pc.utf8_length(words).to_numpy(zero_copy_only=False).astype(np.int64)
    stop = (
        pc.is_in(words, value_set=pa.array(STOPWORDS))
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    punct = (
        pc.count_substring_regex(words, pattern=r"[^\w\s]")
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )

    def fn(batch: pa.Table) -> pa.Table:
        toks = batch.column("tokens").combine_chunks()
        ids = toks.values.to_numpy(zero_copy_only=False).astype(np.int64)
        np.clip(ids, 0, len(wlen) - 1, out=ids)  # foreign ids -> <unk>
        offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        offs = offs - offs[0]
        n_words = np.diff(offs)
        word_chars = _seg_sums(wlen[ids], offs)
        # join-with-single-spaces: chars = word chars + (n_words - 1)
        n_chars = word_chars + np.maximum(n_words - 1, 0)
        nw = n_words.astype(np.float64)
        nc = n_chars.astype(np.float64)
        stop_ratio = np.where(n_words > 0, _seg_sums(stop[ids], offs) / nw, 0.0)
        punct_ratio = np.where(n_chars > 0, _seg_sums(punct[ids], offs) / nc, 0.0)
        mean_word_len = np.where(n_words > 0, word_chars / nw, 0.0)
        return pa.table(
            {
                "doc_id": pc.cast(batch.column("doc_id"), pa.string()),
                "n_chars": pa.array(n_chars, type=pa.int64()),
                "n_words": pa.array(n_words, type=pa.int64()),
                "stop_ratio": pa.array(stop_ratio, type=pa.float64()),
                "punct_ratio": pa.array(punct_ratio, type=pa.float64()),
                "mean_word_len": pa.array(mean_word_len, type=pa.float64()),
            }
        )

    return fn


def _langid_factory(out_dir: str):
    """Language-ID over the encoded corpus — functions/textstats.LangId
    (integer-exact weighted char-count argmax, SQL-oracled) lifted to
    token ids: each vocab word's per-language byte score is
    precomputed ONCE (O(vocab x word_len)), a doc's score is the
    masked-reduceat sum of its words' scores (spaces carry zero weight
    in every profile, so the join separator drops out).  Output keeps
    the integer per-language scores (``s_en``...) alongside
    ``pred_lang`` so numeric ann_filter / delete --where-ann
    thresholds can gate on language confidence."""
    from ..functions.textstats import LangId
    from ..util.hashing import _string_parts

    words = _load_word_vocab(out_dir)
    model = LangId()
    off, buf = _string_parts(words)
    per_byte = model.W[buf[off[0] : off[-1]]] if len(buf) else np.zeros(
        (0, len(model.langs)), dtype=np.int64
    )
    starts = off[:-1] - off[0]
    lens = np.diff(off)
    wscore = np.zeros((len(words), len(model.langs)), dtype=np.int64)
    ne = lens > 0
    if per_byte.shape[0]:
        wscore[ne] = np.add.reduceat(per_byte, starts[ne], axis=0)

    def fn(batch: pa.Table) -> pa.Table:
        toks = batch.column("tokens").combine_chunks()
        ids = toks.values.to_numpy(zero_copy_only=False).astype(np.int64)
        np.clip(ids, 0, len(words) - 1, out=ids)
        offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        offs = offs - offs[0]
        n = len(offs) - 1
        scores = np.zeros((n, len(model.langs)), dtype=np.int64)
        if len(ids):
            per_tok = wscore[ids]
            lens_d = np.diff(offs)
            ne_d = lens_d > 0
            idx = np.minimum(offs[:-1], len(ids) - 1)
            sums = np.add.reduceat(per_tok, idx, axis=0)
            scores[ne_d] = sums[ne_d]
        pred = [model.langs[j] for j in np.argmax(scores, axis=1)]
        cols = {"doc_id": pc.cast(batch.column("doc_id"), pa.string()),
                "pred_lang": pa.array(pred, type=pa.string())}
        for j, lang in enumerate(model.langs):
            cols[f"s_{lang}"] = pa.array(scores[:, j])
        return pa.table(cols)

    return fn


def _const_factory(fn):
    return lambda out_dir: fn


# name -> (columns needed from the container, factory(out_dir) -> batch fn)
ANNOTATORS = {
    "token_stats": (["doc_id", "tokens"], _const_factory(_token_stats)),
    "content_hash": (["doc_id", "tokens"], _const_factory(_content_hash)),
    "text_quality": (["doc_id", "tokens"], _text_quality_factory),
    "langid": (["doc_id", "tokens"], _langid_factory),
}


def ann_dir(out_dir: str, name: str) -> str:
    return os.path.join(out_dir, "ann", name)


def run_annotate(out_dir: str, name: str = "token_stats") -> dict:
    """One Ray task per completed partition: stream-decode the needed
    columns, compute the annotation, land ann/{name}/{part_id}.parquet
    atomically.  Idempotent — existing files are skipped, so a re-run
    after purge/compaction fills only the gaps."""
    import ray.data as rd

    from ..state.manifest import JobDirs, completed_partitions

    if name not in ANNOTATORS:
        raise ValueError(f"unknown annotator {name!r}; have {sorted(ANNOTATORS)}")
    cols, make = ANNOTATORS[name]
    fn = make(out_dir)  # vocab-aware annotators load/refuse HERE, before any task
    dirs = JobDirs(out_dir)
    adir = ann_dir(out_dir, name)
    os.makedirs(adir, exist_ok=True)
    pids = sorted(completed_partitions(out_dir))
    todo = [p for p in pids if not os.path.exists(os.path.join(adir, f"{p}.parquet"))]

    def annotate(batch: pa.Table):
        from ..stages.decoder import iter_partition_chunks

        empty = pa.table(
            {"doc_id": pa.array([], pa.string()),
             "tokens": pa.array([], pa.list_(pa.int32()))}
        )
        out_rows = []
        for pid in batch.column("pid").to_pylist():
            parts = [
                fn(t)
                for t in iter_partition_chunks(dirs.container_path(pid), cols)
            ]
            t = pa.concat_tables(parts) if parts else fn(empty)
            with publishing(os.path.join(adir, f"{pid}.parquet")) as tmp:
                pq.write_table(t, tmp)
            out_rows.append({"pid": pid, "n_rows": t.num_rows})
        return pa.Table.from_pylist(out_rows) if out_rows else pa.table(
            {"pid": pa.array([], pa.string()), "n_rows": pa.array([], pa.int64())}
        )

    written = 0
    if todo:
        res = (
            rd.from_items([{"pid": p} for p in todo])
            .map_batches(annotate, batch_format="pyarrow", batch_size=1)
            .to_pandas()
        )
        written = int(len(res))
    return {
        "ok": True,
        "annotator": name,
        "partitions": len(pids),
        "written": written,
        "skipped": len(pids) - len(todo),
        "dir": adir,
    }


def read_annotation(out_dir: str, name: str, part_id: str) -> pa.Table:
    p = os.path.join(ann_dir(out_dir, name), f"{part_id}.parquet")
    if not os.path.exists(p):
        raise FileNotFoundError(
            f"annotation {name!r} missing for partition {part_id} — the "
            "partition was rewritten after annotation (purge/compaction)? "
            "Re-run run_annotate to fill the gap."
        )
    return pq.read_table(p)
