"""Document ingest — fused tokenize + encode, incremental.

``run_ingest(files, out_dir)`` takes raw documents parquet shards
(doc_id, text, source) straight into encoded containers in streaming
passes, with NO intermediate tokseq materialization:

1. vocab pass (FIRST ingest only): distributed per-block unique ->
   one O(distinct) exchange; persisted to ``out_dir/vocab.json``
   before any encoding, then FROZEN — every later ingest tokenizes
   against it (unseen words -> the reserved OOV id ``len(vocab)``), so
   token ids stay comparable across the whole generational store.
2. stats pass: column-pruned (text, source) read computing ONLY word
   counts (``list_value_length(split_pattern(...))``) — no vocab
   lookup, no token ids; this feeds the bucket plan ~10x cheaper than
   tokenizing would.
3. encode pass: tokenize_batch fused in front of the staged bucketed
   shuffle (run_encode_files), so generational file lineage, resume,
   incremental append, snapshot reads, merge, delete/upsert — the
   whole container lifecycle — work on raw-document inputs.

``out_dir/ingest.json`` marks the store as document-ingested; verify
(library + CLI) reads it and reconstructs the tokenize reader for
exact/hash modes from the recorded lineage, so ``python -m
fileconvert_ray verify --out DIR`` stays input-free.

The whitespace tokenizer is the F1a spec rule (SURVEY §1.2) — the
same fusion applies unchanged to a trained BPE (functions/bpe.py): the
per-batch callable is the only thing that would differ.
"""

from __future__ import annotations

import json
import os

import pyarrow as pa
import pyarrow.compute as pc

from ..state.manifest import publishing

INGEST_MARKER = "ingest.json"


def _doc_files(inputs) -> list[str]:
    import glob as _glob

    files: list[str] = []
    for p in inputs:
        if os.path.isdir(p):
            files.extend(sorted(_glob.glob(os.path.join(p, "*.parquet"))))
        else:
            files.append(p)
    return sorted({os.path.abspath(p) for p in files})


def load_vocab(out_dir: str) -> list[str]:
    with open(os.path.join(out_dir, "vocab.json")) as f:
        v = json.load(f)
    if not isinstance(v, list):
        raise ValueError(f"{out_dir}/vocab.json: expected a JSON list of words")
    return v


def tokenizing_reader(vocab: list[str], *, frozen: bool):
    """ds_from_files(files) -> tokseq Dataset that tokenizes documents
    on the fly.  ``frozen`` maps unseen words to the OOV id (every
    ingest after the first); the first ingest's vocab is total."""
    from ..sources.tokseq import tokenize_batch

    vmap = {w: i for i, w in enumerate(vocab)}
    oov = len(vocab) if frozen else None

    def reader(files):
        import ray.data as rd

        return rd.read_parquet(
            list(files), columns=["doc_id", "text", "source"]
        ).map_batches(
            tokenize_batch,
            batch_format="pyarrow",
            zero_copy_batch=True,
            fn_kwargs={"vocab": vmap, "oov_id": oov},
        )

    return reader


def _stats_reader(files):
    """(source, n_tok) without tokenizing: the bucket plan only needs
    word counts, so skip the vocab gather entirely."""
    import ray.data as rd

    def counts(batch: pa.Table) -> pa.Table:
        n = pc.list_value_length(pc.split_pattern(batch.column("text"), " "))
        return pa.table(
            {"source": batch.column("source"), "n_tok": pc.cast(n, pa.int32())}
        )

    return rd.read_parquet(list(files), columns=["text", "source"]).map_batches(
        counts, batch_format="pyarrow", zero_copy_batch=True
    )


def run_ingest(inputs, out_dir: str, *, target_partition_tokens: int = 4_000_000,
               codec_overrides=None, zstd: bool = True, resume: bool = True,
               reduce_buckets=None, staged_dir=None, dedup: str | None = None,
               dedup_threshold: float = 0.7) -> dict:
    """Documents parquet shards -> encoded containers, incrementally.
    Re-running with a grown file list ingests ONLY the new shards (a
    new generation, frozen vocab); see run_encode_files for the
    lineage/resume/refusal semantics.

    ``dedup="exact"`` / ``"minhash"`` additionally tombstones rows of
    the NEWLY-ingested generations whose token content already exists
    in the pre-existing corpus (cross-generation dedup — the
    continuous-crawl loop: ingest the new batch, drop re-fetches,
    never touch what's already curated).  Same machinery and shape as
    ``run_merge(dedup=...)``: projected decodes, key-only exchange,
    per-partition tombstone writes; exact is the token-sequence hash,
    minhash the shingle-agreement >= ``dedup_threshold`` near variant."""
    from ..pipelines.encode_job import EncodeConfig, run_encode_files
    from ..state.manifest import read_manifest_entries

    if dedup not in (None, "exact", "minhash"):
        raise ValueError(f"run_ingest: unknown dedup mode {dedup!r}")

    files = _doc_files(inputs)
    if not files:
        raise ValueError("run_ingest: no input document shards found")

    vocab_path = os.path.join(out_dir, "vocab.json")
    if resume and os.path.exists(vocab_path):
        vocab = load_vocab(out_dir)
        frozen = True
    else:
        from .tokenize_job import build_vocab_distributed

        import ray.data as rd

        vocab = build_vocab_distributed(
            rd.read_parquet(files, columns=["text"])
        )
        frozen = False

    cfg = EncodeConfig(
        out_dir=out_dir,
        target_partition_tokens=target_partition_tokens,
        codec_overrides=codec_overrides or {},
        zstd=zstd,
        resume=resume,
        reduce_buckets=reduce_buckets,
        staged_dir=staged_dir,
    )
    if not resume:
        # rebuild drops the frozen vocab with the containers
        for fn in (vocab_path, os.path.join(out_dir, INGEST_MARKER)):
            if os.path.exists(fn):
                os.remove(fn)
    os.makedirs(out_dir, exist_ok=True)
    if not os.path.exists(vocab_path):
        # vocab persists BEFORE any encoding: the ids inside the
        # containers are only decodable with exactly this table
        with publishing(vocab_path) as tmp, open(tmp, "w") as f:
            json.dump(vocab, f)
    marker = os.path.join(out_dir, INGEST_MARKER)
    if not os.path.exists(marker):
        with publishing(marker) as tmp, open(tmp, "w") as f:
            json.dump({"tokenizer": "whitespace-vocab", "vocab": "vocab.json"}, f)

    from ..state.manifest import read_plan

    try:
        pre_gens = {
            int(g["gen"]) for g in (read_plan(out_dir).get("generations") or [])
        } if resume else set()
    except FileNotFoundError:
        pre_gens = set()

    m = run_encode_files(
        files, cfg,
        ds_from_files=tokenizing_reader(vocab, frozen=frozen),
        stats_from_files=_stats_reader,
    ).to_pandas()

    dedup_stats = {}
    if dedup is not None and pre_gens:
        # dedup the generations THIS call added against everything that
        # predates them; a pure resume (no new gens) has nothing to do
        from ..pipelines.merge_job import (
            _dedup_against_dest,
            _near_dedup_against_dest,
        )
        from ..stages.decoder import label_generations

        gen_of = label_generations(out_dir)
        unexplained = sorted(set(read_manifest_entries(out_dir)) - set(gen_of))
        if unexplained:
            raise RuntimeError(
                "ingest dedup refused: partitions not attributable to any "
                f"generation (cross-generation compaction output): "
                f"{unexplained[:3]} — deduping against an incomplete "
                "reference set would silently miss duplicates."
            )
        new_pids = {p for p, g in gen_of.items() if g not in pre_gens}
        old_pids = {p for p, g in gen_of.items() if g in pre_gens}
        if new_pids:
            fn = (_dedup_against_dest if dedup == "exact"
                  else lambda *a, **k: _near_dedup_against_dest(
                      *a, threshold=dedup_threshold, **k))
            dedup_stats = fn(out_dir, new_pids=new_pids, old_pids=old_pids)

    ents = read_manifest_entries(out_dir)
    return {
        **dedup_stats,
        "ok": True,
        "ingested_partitions": int(len(m)),
        "total_partitions": int(len(ents)),
        "n_rows": int(m["n_rows"].sum()) if len(m) else 0,
        "n_tokens": int(m["n_tokens"].sum()) if len(m) else 0,
        "total_tokens": int(sum(e["n_tokens"] for e in ents.values())),
        "vocab_size": len(vocab),
        "frozen_vocab": frozen,
        "out": out_dir,
    }


def ingest_verify_reader(out_dir: str):
    """The ds_from_files verify needs on an ingested store (or None
    when out_dir is not one): re-tokenizes the recorded document
    lineage with the persisted frozen vocab."""
    if not os.path.exists(os.path.join(out_dir, INGEST_MARKER)):
        return None
    return tokenizing_reader(load_vocab(out_dir), frozen=True)
