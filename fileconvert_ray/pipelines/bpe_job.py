"""BPE corpus re-encoding — train merge rules, rewrite every sequence
with them, land a SMALLER encoded store that is exactly invertible.

``run_bpe_reencode(src_store, out_dir, rounds=N)`` is the "compress
the corpus by growing the vocabulary" op (Sennrich et al. 2016
applied at corpus scale): train ``rounds`` merges over the decoded
src (``functions/bpe.py`` — O(distinct pairs) exchanges, optional
``sample_frac`` for the 100-TB path where ranks converge on a
sample), then stream decode -> apply-rules -> staged-shuffle encode
into ``out_dir``.  Every merged symbol is a bijection with its pair,
so the store stays losslessly invertible: ``merges.json`` records the
ordered rules + lineage digests, ``expand_rules_batch`` undoes them in
reverse training order, and ``run_detokenize`` transparently expands
a BPE store before the word mapping (src's vocab.json, when present,
is copied so text reconstruction keeps working).

Scale notes: training materializes the (sampled) corpus once per
round — the documented bpe.py shape; the apply+encode pass is one
streaming pipeline.  The encode's bucket plan uses the PRE-merge
(source, n_tok) stats via projected decode — an upper bound on
post-merge partition sizes, so partitions come out slightly under
target rather than paying a second rule-apply pass just for stats.
``verify``: ``bpe_verify_reader`` reconstructs the exact/hash input
by decoding the recorded src and re-applying the recorded rules
(refusing on vocab/src drift, like remap)."""

from __future__ import annotations

import hashlib
import json
import os
import shutil

from ..state.manifest import publishing

BPE_MARKER = "merges.json"


def _rules_digest(rules: list) -> str:
    h = hashlib.sha256()
    for left, right, new_id in rules:
        h.update(f"{left},{right},{new_id};".encode())
    return h.hexdigest()


def run_bpe_reencode(src_dir: str, out_dir: str, *, rounds: int = 16,
                     sample_frac: float | None = None,
                     target_partition_tokens: int = 4_000_000,
                     zstd: bool = True, resume: bool = True,
                     reduce_buckets=None, staged_dir=None) -> dict:
    from ..functions.bpe import apply_rules_batch, bpe_merge_rounds
    from ..stages.decoder import decode_dataset
    from .encode_job import EncodeConfig, run_encode

    merges = bpe_merge_rounds(
        decode_dataset(src_dir), rounds=rounds, sample_frac=sample_frac
    )
    rules = list(zip(
        merges.column("left").to_pylist(),
        merges.column("right").to_pylist(),
        merges.column("new_id").to_pylist(),
    ))

    def ds_factory():
        ds = decode_dataset(src_dir)
        if rules:
            ds = ds.map_batches(
                apply_rules_batch, batch_format="pyarrow",
                zero_copy_batch=True, fn_kwargs={"rules": rules},
            )
        return ds

    cfg = EncodeConfig(
        out_dir=out_dir,
        target_partition_tokens=target_partition_tokens,
        zstd=zstd, resume=resume, reduce_buckets=reduce_buckets,
        staged_dir=staged_dir,
    )
    m = run_encode(
        ds_factory, cfg,
        stats_factory=lambda: decode_dataset(
            src_dir, columns=["source", "n_tok"]
        ),
    ).to_pandas()

    src_vocab_digest = None
    if os.path.exists(os.path.join(src_dir, "vocab.json")):
        # text invertibility rides along: same vocab, merged ids extra
        with publishing(os.path.join(out_dir, "vocab.json")) as tmp:
            shutil.copyfile(os.path.join(src_dir, "vocab.json"), tmp)
        with open(os.path.join(src_dir, "vocab.json"), "rb") as f:
            src_vocab_digest = hashlib.sha256(f.read()).hexdigest()

    marker = os.path.join(out_dir, BPE_MARKER)
    with publishing(marker) as tmp, open(tmp, "w") as f:
        json.dump({
            "rules": [[int(a), int(b), int(c)] for a, b, c in rules],
            "rules_sha256": _rules_digest(rules),
            "src": os.path.abspath(src_dir),
            "src_vocab_sha256": src_vocab_digest,
            "counts": merges.column("count").to_pylist(),
        }, f)

    n_tok_out = int(m["n_tokens"].sum()) if len(m) else 0
    return {
        "ok": True,
        "partitions": int(len(m)),
        "n_rows": int(m["n_rows"].sum()) if len(m) else 0,
        "n_tokens": n_tok_out,
        "merges_trained": len(rules),
        "out": out_dir,
    }


def read_rules(store_dir: str) -> list | None:
    """The ordered merge rules of a BPE-re-encoded store, or None."""
    p = os.path.join(store_dir, BPE_MARKER)
    if not os.path.exists(p):
        return None
    with open(p) as f:
        return [tuple(r) for r in json.load(f)["rules"]]


def bpe_verify_reader(out_dir: str):
    """ds_factory for exact/hash verify on a BPE store: decode the
    recorded src and re-apply the recorded rules; refuse on drift."""
    p = os.path.join(out_dir, BPE_MARKER)
    if not os.path.exists(p):
        return None
    with open(p) as f:
        rec = json.load(f)
    from ..functions.bpe import apply_rules_batch
    from ..stages.decoder import decode_dataset

    src = rec["src"]
    if not os.path.isdir(src):
        raise RuntimeError(
            f"bpe verify: recorded src store {src} is gone; only "
            "mode='manifest' remains possible."
        )
    if rec.get("src_vocab_sha256") is not None:
        with open(os.path.join(src, "vocab.json"), "rb") as f:
            if hashlib.sha256(f.read()).hexdigest() != rec["src_vocab_sha256"]:
                raise RuntimeError(
                    f"bpe verify: {src}/vocab.json changed since the "
                    "re-encode ran (digest mismatch)."
                )
    rules = [tuple(r) for r in rec["rules"]]

    def factory():
        ds = decode_dataset(src)
        if rules:
            ds = ds.map_batches(
                apply_rules_batch, batch_format="pyarrow",
                zero_copy_batch=True, fn_kwargs={"rules": rules},
            )
        return ds

    return factory
