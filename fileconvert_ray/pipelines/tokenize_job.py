"""Standalone tokenize / detokenize jobs — the missing front door to
the encode pipeline.

``curate`` tokenizes its train split internally and the CLI encode
error message points raw-document users at it, but there was no direct
"documents.parquet -> tokseq shards" operator for a user who wants the
hygiene chain elsewhere (or none at all).  ``run_tokenize`` is that
op; ``run_detokenize`` is its inverse (tokseq + vocab -> documents),
giving a bit-exact text round-trip gate over the whole tokenizer.

Vocabulary contract
-------------------
The vocab is the global sorted list of whitespace-split words (the F1a
rule every DuckDB oracle mirrors) and is PERSISTED to
``out_dir/vocab.json``.  Incremental corpora must re-use it: token ids
baked into encoded containers are only comparable if new shards are
tokenized against the SAME table, so ``vocab_path=`` freezes the
vocabulary and maps unseen words to the reserved OOV id
``len(vocab)`` (detokenize renders it as ``<unk>``).  Building the
vocab is a distributed per-block ``unique`` -> one O(distinct) exchange
(the curate_job pattern); the driver only ever holds O(vocab).

Scale posture: both directions are single-pass map_batches over Arrow
batches — no shuffle, no driver materialization; output is sharded
parquet (one file per block) so a failed run resumes by re-running
(writes are idempotent per input block).
"""

from __future__ import annotations

import json
import os

import pyarrow as pa
import pyarrow.compute as pc

from ..state.manifest import publishing

OOV_TOKEN = "<unk>"


def build_vocab_distributed(ds) -> list[str]:
    """Global sorted vocabulary of whitespace-split words from a
    documents Dataset: per-batch distinct words, one unique() exchange
    of O(distinct-per-block) rows."""
    words_ds = ds.map_batches(
        lambda b: pa.table(
            {"w": pc.unique(pc.list_flatten(pc.split_pattern(b.column("text"), " ")))}
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return sorted(words_ds.unique("w"))


def run_tokenize(
    input_path: str,
    out_dir: str,
    *,
    vocab_path: str | None = None,
) -> dict:
    """documents parquet (doc_id, text, source) -> tokseq parquet
    shards under ``out_dir/shards/`` + ``out_dir/vocab.json`` (shards
    live in a subdirectory so ``read_parquet`` over them never trips
    on the vocab file).

    Without ``vocab_path`` the vocabulary is built from this corpus
    (exact mode — every word has an id).  With it, the given vocab is
    frozen and unseen words map to the OOV id ``len(vocab)``."""
    import ray.data as rd

    from ..sources.tokseq import tokenize_batch

    ds = rd.read_parquet(input_path, columns=["doc_id", "text", "source"])
    if vocab_path is not None:
        with open(vocab_path) as f:
            vocab = json.load(f)
        if not isinstance(vocab, list):
            raise ValueError(f"{vocab_path}: expected a JSON list of words")
        oov_id = len(vocab)
    else:
        vocab = build_vocab_distributed(ds)
        oov_id = None
    vmap = {w: i for i, w in enumerate(vocab)}

    shards_dir = os.path.join(out_dir, "shards")
    os.makedirs(shards_dir, exist_ok=True)
    toks = ds.map_batches(
        tokenize_batch,
        batch_format="pyarrow",
        zero_copy_batch=True,
        fn_kwargs={"vocab": vmap, "oov_id": oov_id},
    )
    toks.write_parquet(shards_dir)

    # vocab lands LAST (atomic publish): its presence marks a completed
    # tokenize, and a re-run against the same out_dir is idempotent
    with publishing(os.path.join(out_dir, "vocab.json")) as tmp, open(tmp, "w") as f:
        json.dump(vocab, f)

    import pyarrow.parquet as pq

    files = [f for f in os.listdir(shards_dir) if f.endswith(".parquet")]
    n_rows = 0
    for fn in files:
        n_rows += pq.read_metadata(os.path.join(shards_dir, fn)).num_rows
    return {
        "ok": True,
        "n_docs": int(n_rows),
        "vocab_size": len(vocab),
        "frozen_vocab": vocab_path is not None,
        "oov_id": oov_id,
        "shards": len(files),
        "shards_dir": shards_dir,
        "out": out_dir,
    }


def run_detokenize(input_path: str, out_dir: str, *, vocab_path: str | None = None) -> dict:
    """tokseq parquet shards + vocab -> documents parquet (doc_id,
    text, source).  ``input_path`` may be a run_tokenize out_dir (the
    vocab and ``shards/`` are found in place), any tokseq shard
    dir/file with an explicit ``vocab_path``, or an ENCODED STORE
    (ingest/encode out dir with plan.json — its containers stream
    through the decoder directly, vocab.json found in place).  Ids
    beyond the vocab (the frozen-vocab OOV id) render as ``<unk>``."""
    import numpy as np
    import ray.data as rd

    if vocab_path is None:
        vocab_path = os.path.join(input_path, "vocab.json")
    if os.path.isdir(os.path.join(input_path, "shards")):
        input_path = os.path.join(input_path, "shards")
    with open(vocab_path) as f:
        vocab = json.load(f)
    # one shared immutable word table per worker process (broadcast by
    # Ray's deserialization of the fn_kwargs closure, O(vocab) each)
    words = pa.array(list(vocab) + [OOV_TOKEN], type=pa.string())

    def detok(batch: pa.Table) -> pa.Table:
        toks = batch.column("tokens").combine_chunks()
        ids = toks.values.to_numpy(zero_copy_only=False).astype(np.int64)
        np.clip(ids, 0, len(words) - 1, out=ids)  # foreign ids -> <unk>
        flat_words = words.take(pa.array(ids))
        lists = pa.ListArray.from_arrays(toks.offsets, flat_words)
        text = pc.binary_join(lists, " ")
        return pa.table(
            {
                "doc_id": pc.cast(batch.column("doc_id"), pa.string()),
                "text": text,
                "source": pc.cast(batch.column("source"), pa.string()),
            }
        )

    if os.path.exists(os.path.join(input_path, "plan.json")):
        # input is an ENCODED STORE (ingest/encode out dir): stream the
        # container decode straight into detok — no intermediate decode
        # step, tombstones honored, chunk-granular memory
        from ..stages.decoder import decode_dataset

        src = decode_dataset(input_path, columns=["doc_id", "tokens", "source"])
    else:
        src = rd.read_parquet(input_path, columns=["doc_id", "tokens", "source"])
    from ..pipelines.bpe_job import read_rules

    rules = read_rules(input_path)
    if rules:
        # BPE-re-encoded store: expand merged symbols back to base ids
        # (reverse training order) before the word mapping
        from ..functions.bpe import expand_rules_batch

        src = src.map_batches(
            expand_rules_batch, batch_format="pyarrow",
            zero_copy_batch=True, fn_kwargs={"rules": rules},
        )
    ds = src.map_batches(detok, batch_format="pyarrow", zero_copy_batch=True)
    os.makedirs(out_dir, exist_ok=True)
    ds.write_parquet(out_dir)
    return {"ok": True, "vocab_size": len(vocab), "out": out_dir}
