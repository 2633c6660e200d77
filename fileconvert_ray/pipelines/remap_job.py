"""Vocabulary remap — re-express an encoded store's token ids in a
TARGET vocabulary, making a vocab-incompatible store mergeable.

``run_merge`` refuses to union stores whose ``vocab.json`` differ
(merge_job._check_vocab_compat): their token id spaces are
incompatible and a hardlink union would silently mix them.  The
recovery is NOT decode -> detokenize -> re-tokenize -> re-encode (a
full string round-trip over the corpus); token ids are a bijection
with vocab words, so the whole operation collapses to one integer
gather per token:

    lut[old_id] = target_index(src_vocab[old_id])   (OOV if absent)

``run_remap(src_dir, out_dir, vocab=...)`` streams the src store
through ``decode_dataset`` (tombstone deletes stay honored — removed
docs do not resurrect in the remapped store), applies the LUT
vectorized on the flattened list values (offsets untouched, so the
list structure is never rebuilt row-by-row), and re-encodes into
``out_dir`` with the standard staged-shuffle encode.  The stats pass
reads ONLY (source, n_tok) via projected decode — token values are
never decoded twice.

Semantics match frozen-vocab ingest: a src word absent from the
target vocabulary maps to the target OOV id ``len(target_vocab)``,
and the src store's own OOV id (if it was itself a frozen-vocab
ingest) maps to the target OOV id too.  Consequently, when the src
vocabulary is total (a first ingest), remap(src tokens) is
bit-identical to tokenizing the original documents directly against
the target vocab in frozen mode — the property tests/test_remap.py
pins, and the ``remap_roundtrip`` registry entry oracle-checks.

At 100 TB: the LUT is O(src vocab) int32 (a few MB) shipped once per
task via fn_kwargs; the decode -> gather -> encode pipeline is
streaming end to end (no materialization), and the output store is
partition-resumable exactly like any other encode.

``remap.json`` records the lineage (src dir + both vocab digests);
``remap_verify_reader`` reconstructs the exact/hash verify input by
decoding the src store and remapping again, refusing loudly if the
src vocab drifted since the remap ran.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pyarrow as pa

from ..state.manifest import publishing

REMAP_MARKER = "remap.json"


def _vocab_digest(vocab: list[str]) -> str:
    h = hashlib.sha256()
    for w in vocab:
        h.update(w.encode())
        h.update(b"\x00")
    return h.hexdigest()


def resolve_vocab(vocab) -> list[str]:
    """Accept a word list, a vocab.json path, or a store dir holding
    one (the common case: the merge DEST's directory)."""
    if isinstance(vocab, list):
        return vocab
    p = str(vocab)
    if os.path.isdir(p):
        p = os.path.join(p, "vocab.json")
    if not os.path.exists(p):
        raise FileNotFoundError(f"resolve_vocab: no vocab.json at {p}")
    with open(p) as f:
        v = json.load(f)
    if not isinstance(v, list):
        raise ValueError(f"{p}: expected a JSON list of words")
    return v


def build_remap_lut(src_vocab: list[str], dst_vocab: list[str]) -> np.ndarray:
    """int32 LUT of length len(src_vocab)+1: position i holds the
    target id of src word i; the trailing slot is the src OOV id
    (frozen-vocab src stores emit it), which stays OOV in the target.
    Words absent from dst map to the dst OOV id len(dst_vocab)."""
    dst_map = {w: i for i, w in enumerate(dst_vocab)}
    dst_oov = len(dst_vocab)
    lut = np.full(len(src_vocab) + 1, dst_oov, dtype=np.int32)
    for i, w in enumerate(src_vocab):
        lut[i] = dst_map.get(w, dst_oov)
    return lut


def remap_tokens_batch(batch: pa.Table, *, lut: np.ndarray) -> pa.Table:
    """Gather the LUT over the flattened token values; list offsets
    are reused as-is (zero per-row work).  An id outside the LUT is
    store corruption (or a vocab/store mismatch) — raise, don't
    guess."""
    cols = {}
    for name in batch.column_names:
        col = batch.column(name)
        if name != "tokens":
            cols[name] = col
            continue
        chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
        out_chunks = []
        for ch in chunks:
            vals = ch.values.to_numpy(zero_copy_only=False)
            if len(vals) and (vals.min() < 0 or vals.max() >= len(lut)):
                raise ValueError(
                    f"remap: token id out of range [0, {len(lut)}) — the src "
                    "store does not match the src vocabulary (corrupt store "
                    "or wrong vocab.json)"
                )
            out_chunks.append(
                pa.ListArray.from_arrays(
                    ch.offsets, pa.array(lut[vals], type=pa.int32())
                )
            )
        cols[name] = pa.chunked_array(out_chunks)
    return pa.table(cols)


def remap_dataset(ds, lut: np.ndarray):
    """tokseq Dataset -> tokseq Dataset with ids re-expressed via lut."""
    return ds.map_batches(
        remap_tokens_batch,
        batch_format="pyarrow",
        zero_copy_batch=True,
        fn_kwargs={"lut": lut},
    )


def run_remap(src_dir: str, out_dir: str, *, vocab,
              target_partition_tokens: int = 4_000_000, zstd: bool = True,
              resume: bool = True, reduce_buckets=None,
              staged_dir=None) -> dict:
    """Re-encode ``src_dir`` (an encoded store WITH a vocab.json) into
    ``out_dir`` with every token id translated into ``vocab``'s id
    space.  The output is a standard encoded store carrying the target
    vocab.json — ``run_merge(dest, out_dir)`` then succeeds where
    merging src directly was refused."""
    from ..pipelines.ingest_job import load_vocab
    from ..stages.decoder import decode_dataset
    from .encode_job import EncodeConfig, run_encode

    if not os.path.exists(os.path.join(src_dir, "vocab.json")):
        raise RuntimeError(
            f"run_remap: {src_dir} has no vocab.json — only tokenized/"
            "ingested stores carry a token id space to remap. A plain "
            "tokseq encode's ids are already caller-defined."
        )
    src_vocab = load_vocab(src_dir)
    dst_vocab = resolve_vocab(vocab)
    lut = build_remap_lut(src_vocab, dst_vocab)
    n_oov = int((lut[:-1] == len(dst_vocab)).sum())

    cfg = EncodeConfig(
        out_dir=out_dir,
        target_partition_tokens=target_partition_tokens,
        zstd=zstd,
        resume=resume,
        reduce_buckets=reduce_buckets,
        staged_dir=staged_dir,
    )
    m = run_encode(
        lambda: remap_dataset(decode_dataset(src_dir), lut),
        cfg,
        stats_factory=lambda: decode_dataset(
            src_dir, columns=["source", "n_tok"]
        ),
    ).to_pandas()

    # target vocab + lineage land LAST (atomic publish), mirroring ingest:
    # their presence marks a completed, decodable-with-this-vocab store
    with publishing(os.path.join(out_dir, "vocab.json")) as tmp, open(tmp, "w") as f:
        json.dump(dst_vocab, f)
    with publishing(os.path.join(out_dir, REMAP_MARKER)) as tmp, open(tmp, "w") as f:
        json.dump({
            "src": os.path.abspath(src_dir),
            "src_vocab_sha256": _vocab_digest(src_vocab),
            "dst_vocab_sha256": _vocab_digest(dst_vocab),
            "src_vocab_size": len(src_vocab),
            "dst_vocab_size": len(dst_vocab),
            "words_mapped_to_oov": n_oov,
        }, f)

    return {
        "ok": True,
        "partitions": int(len(m)),
        "n_rows": int(m["n_rows"].sum()) if len(m) else 0,
        "n_tokens": int(m["n_tokens"].sum()) if len(m) else 0,
        "src_vocab_size": len(src_vocab),
        "dst_vocab_size": len(dst_vocab),
        "words_mapped_to_oov": n_oov,
        "out": out_dir,
    }


def remap_verify_reader(out_dir: str):
    """ds_factory for exact/hash verify on a remapped store (or None
    when out_dir is not one): decode the recorded src store and remap
    again.  Refuses if the src store or its vocab drifted — a verify
    against different bits would be meaningless."""
    if not os.path.exists(os.path.join(out_dir, REMAP_MARKER)):
        return None
    with open(os.path.join(out_dir, REMAP_MARKER)) as f:
        rec = json.load(f)
    from ..pipelines.ingest_job import load_vocab
    from ..stages.decoder import decode_dataset

    src = rec["src"]
    if not os.path.isdir(src):
        raise RuntimeError(
            f"remap verify: recorded src store {src} is gone; only "
            "mode='manifest' remains possible."
        )
    src_vocab = load_vocab(src)
    if _vocab_digest(src_vocab) != rec["src_vocab_sha256"]:
        raise RuntimeError(
            f"remap verify: {src}/vocab.json changed since the remap ran "
            "(digest mismatch); re-run the remap."
        )
    dst_vocab = resolve_vocab(out_dir)
    if _vocab_digest(dst_vocab) != rec["dst_vocab_sha256"]:
        raise RuntimeError(
            f"remap verify: {out_dir}/vocab.json changed since the remap "
            "ran (digest mismatch); the store is not what this marker "
            "describes."
        )
    lut = build_remap_lut(src_vocab, dst_vocab)
    return lambda: remap_dataset(decode_dataset(src), lut)
