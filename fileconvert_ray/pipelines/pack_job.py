"""Packed training-shard export — the trainer-facing end of the
lifecycle: the encoded corpus decodes (streaming, column-pruned,
snapshot/source-scoped) straight into fixed-length packed rows
(functions/packing.py) and lands as partitioned parquet shards a
training loader can read directly.  No reference analogue
(FileConvert converts files; this materializes the training view) —
SURVEY.md §2 extension, same family as pack_sequences.

Scale shape: decode streams one container chunk at a time; packing is
the documented prefix-sum exchange (every token crosses once); the
sink writes one parquet file per output block, so a failed export
re-runs per shard.  Driver memory stays O(n_buckets).

Order contract: packing needs a unique integer order key.
``order="int"`` casts doc_id (exact, for integer-id corpora — and the
oracle-parity mode: SQL can reproduce ascending-id order).
``order="hash"`` (the default, any doc_id type) orders by the 63-bit
FNV hash of doc_id — deterministic, uniform across buckets (no key-
space skew), but not SQL-reproducible; a hash tie between distinct
ids (~n^2/2^63) would merge their order slot, so the digest tests pin
the int mode and property tests cover hash mode.
``order="ann"`` (curriculum export) orders by an annotation score with
doc_id as the tie-break: key = (score_int << 32) | doc_id — easy-first
curriculum shards with no sort stage: the range-bucketed prefix-sum
exchange that orders hash keys orders curriculum keys identically.
``ann_order=(name, col, "desc")`` flips the score inside its checked
domain (hard-first; the doc_id tie-break stays ascending).  Requires
integer doc_ids in [0, 2^32) and non-negative scores (< 2^31 after
1e-6 fixed-pointing for float columns) — refused loudly otherwise;
SQL-reproducible, so the digest oracles pin both directions.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..state.manifest import publishing


def packed_dataset(
    out_dir: str,
    seq_len: int,
    *,
    order: str = "hash",
    seed: int = 0,
    sources: list[str] | None = None,
    max_gen: int | None = None,
    n_buckets: int = 64,
    boundaries: bool = False,
    ann_filter=None,
    weights: dict[str, float] | None = None,
    weight_hash: str = "fnv",
    ann_order: tuple[str, str] | None = None,
):
    """Streaming Dataset of PACKED_SCHEMA rows (chunk_id, tokens,
    n_tok) from an encoded corpus.  ``max_gen`` composes with snapshot
    reads: export "the corpus as of ingest N" without materializing
    anything else.  ``seed`` reseeds the hash order — a per-epoch
    deterministic global reshuffle for free (ignored by order="int").
    ``boundaries=True`` adds ``doc_starts: list<int32>`` — the
    within-chunk attention-reset offsets (functions/packing.py).

    ``ann_filter=(name, col, lo, hi)`` (or a list, ANDed) keeps only
    docs whose co-partitioned annotation value (pipelines/annotate_job)
    lands in [lo, hi] — quality-gated training shards with NO join and
    no re-encode: the annotation attaches per partition inside the
    decode task, the filter runs vectorized, the score columns drop
    before packing.

    ``weights={source: rate}`` mixes domains at export: each source
    keeps ~rate of its docs by a deterministic content-hash threshold
    (unlisted sources keep everything; rate 0.0 drops the source).
    Same machinery as the sampling family: ``weight_hash="fnv"`` is
    the vectorized scale default, ``"md5"`` the DuckDB-parity mode the
    registry oracle uses.  Deterministic across runs, partitionings and
    cluster sizes — a re-exported epoch sees the same mixture."""
    from ..functions.packing import pack_sequences
    from ..stages.decoder import decode_dataset
    from ..util.hashing import hash_strings_u64

    if order not in ("hash", "int", "ann"):
        raise ValueError(f"order must be 'hash', 'int' or 'ann', got {order!r}")
    if (order == "ann") != (ann_order is not None):
        raise ValueError("order='ann' requires ann_order=(name, col) and vice versa")
    ann_desc = False
    if ann_order is not None:
        if len(ann_order) == 3:
            if ann_order[2] not in ("asc", "desc"):
                raise ValueError(
                    f"ann_order direction must be 'asc' or 'desc', got "
                    f"{ann_order[2]!r}"
                )
            ann_desc = ann_order[2] == "desc"
            ann_order = (ann_order[0], ann_order[1])
        elif len(ann_order) != 2:
            raise ValueError(
                "ann_order wants (name, col) or (name, col, 'asc'|'desc')"
            )
    if weight_hash not in ("fnv", "md5"):
        raise ValueError(f"weight_hash must be 'fnv' or 'md5', got {weight_hash!r}")
    filters = (
        []
        if ann_filter is None
        else ([ann_filter] if isinstance(ann_filter, tuple) else list(ann_filter))
    )
    ann_names = list(
        dict.fromkeys(
            [f[0] for f in filters] + ([ann_order[0]] if ann_order else [])
        )
    )
    base_cols = ["doc_id", "tokens", "n_tok"]
    # the curriculum score column must survive the filter stage so the
    # key builder can read it; it drops with the other extras there
    keep_cols = base_cols + ([ann_order[1]] if ann_order else [])
    cols = base_cols + (["source"] if weights is not None else [])

    ds = decode_dataset(
        out_dir,
        sources=sources,
        max_gen=max_gen,
        columns=cols,
        with_annotations=ann_names or None,
    )

    if filters or weights is not None:
        if weights is not None and weight_hash == "fnv":
            fnv_cuts = {
                s: np.uint64(min(int(r * float(1 << 64)), (1 << 64) - 1))
                for s, r in weights.items()
            }
        elif weights is not None:
            md5_cuts = {
                s: format(min(int(r * 16**6), 16**6 - 1), "06x")
                for s, r in weights.items()
            }

        def keep_rows(batch: pa.Table) -> pa.Table:
            mask = np.ones(batch.num_rows, dtype=bool)
            for name, col, lo, hi in filters:
                if col not in batch.column_names:
                    raise KeyError(
                        f"annotation {name!r} has no column {col!r}; "
                        f"batch holds {batch.column_names}"
                    )
                v = batch.column(col).to_numpy(zero_copy_only=False)
                if lo is not None:
                    mask &= v >= lo
                if hi is not None:
                    mask &= v <= hi
            if weights is not None:
                ids = pc.cast(batch.column("doc_id"), pa.string())
                srcs = batch.column("source")
                if weight_hash == "fnv":
                    hv = hash_strings_u64(ids)
                    d = srcs.combine_chunks().dictionary_encode()
                    codes = np.asarray(d.indices)
                    per_src = np.array(
                        [
                            fnv_cuts.get(v, np.uint64((1 << 64) - 1))
                            for v in d.dictionary.to_pylist()
                        ],
                        dtype=np.uint64,
                    )
                    # a cut of 2^64-1 keeps all but 1-in-2^64; treat
                    # unlisted sources as keep-everything exactly
                    listed = np.array(
                        [v in fnv_cuts for v in d.dictionary.to_pylist()]
                    )
                    wmask = (hv < per_src[codes]) | ~listed[codes]
                else:
                    import hashlib

                    wmask = np.array(
                        [
                            md5_cuts.get(src) is None
                            or hashlib.md5(s.encode()).hexdigest()[:6]
                            < md5_cuts[src]
                            for s, src in zip(
                                ids.to_pylist(), srcs.to_pylist()
                            )
                        ]
                    )
                mask &= wmask
            t = batch.filter(pa.array(mask)) if not mask.all() else batch
            return t.select(keep_cols)

        ds = ds.map_batches(keep_rows, batch_format="pyarrow", zero_copy_batch=True)

    def key_int(batch: pa.Table) -> pa.Table:
        i = batch.column_names.index("doc_id")
        return batch.set_column(i, "doc_id", pc.cast(batch.column("doc_id"), pa.int64()))

    def key_hash(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id")
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        # 63-bit: keeps (max - min + 1) inside int64 for the bucketer
        h = (
            hash_strings_u64(pc.cast(ids, pa.string()), seed=seed) >> np.uint64(1)
        ).astype(np.int64)
        i = batch.column_names.index("doc_id")
        return batch.set_column(i, "doc_id", pa.array(h))

    def key_ann(batch: pa.Table) -> pa.Table:
        _, col = ann_order
        if col not in batch.column_names:
            raise KeyError(
                f"curriculum column {col!r} missing; batch holds "
                f"{batch.column_names}"
            )
        v = batch.column(col).to_numpy(zero_copy_only=False)
        if np.issubdtype(v.dtype, np.floating):
            vi = np.copysign(np.floor(np.abs(v) * 1e6 + 0.5), v).astype(np.int64)
        else:
            vi = v.astype(np.int64)
        ids = pc.cast(batch.column("doc_id"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        if len(vi):
            if vi.min() < 0 or vi.max() >= (1 << 31):
                raise ValueError(
                    f"curriculum scores must land in [0, 2^31) after "
                    f"fixed-pointing; {col!r} spans "
                    f"[{vi.min()}, {vi.max()}]"
                )
            if ids.min() < 0 or ids.max() >= (1 << 32):
                raise ValueError(
                    "order='ann' needs integer doc_ids in [0, 2^32); got "
                    f"[{ids.min()}, {ids.max()}]"
                )
        if ann_desc:
            # hard-first: flip the score inside its checked domain; the
            # doc_id tie-break stays ascending in both directions
            vi = np.int64((1 << 31) - 1) - vi
        key = (vi << np.int64(32)) | ids
        i = batch.column_names.index("doc_id")
        return batch.set_column(i, "doc_id", pa.array(key)).select(base_cols)

    keyed = ds.map_batches(
        {"int": key_int, "hash": key_hash, "ann": key_ann}[order],
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return pack_sequences(
        keyed, seq_len=seq_len, n_buckets=n_buckets, boundaries=boundaries
    )


def run_export_packed(
    out_dir: str,
    to_dir: str,
    seq_len: int,
    *,
    order: str = "hash",
    seed: int = 0,
    sources: list[str] | None = None,
    max_gen: int | None = None,
    n_buckets: int = 64,
    boundaries: bool = False,
    ann_filter=None,
    weights: dict[str, float] | None = None,
    weight_hash: str = "fnv",
    ann_order: tuple[str, str] | None = None,
    narrow: bool = False,
) -> dict:
    """Export packed training shards to ``to_dir`` (parquet, one file
    per block).  Returns {"chunks": N, "tokens": T} from the written
    data — cheap streaming aggregates, no driver materialization.

    Completion contract (marker-last, same discipline as the encoder's
    containers and tokenize's vocab.json): ``_packed_manifest.json``
    lands via tmp+rename ONLY after every shard and the count-back
    succeed.  A destination holding the marker is a completed export
    and is refused (remove it or pick a new dir — silently appending
    would double data); a destination without it is a crashed partial
    export and is wiped and rebuilt.  Readers that want a guarantee
    check the marker; ``iter_token_matrices`` reads shards by
    extension so the marker never parses as data.

    ``narrow=True`` writes tokens as ``list<uint16>`` — half the shard
    bytes and half the loader bandwidth when the vocabulary fits 16
    bits (checked per batch; a single out-of-range id fails the export
    loudly rather than wrapping silently)."""
    import json
    import os
    import shutil

    marker = os.path.join(to_dir, "_packed_manifest.json")
    if os.path.exists(marker):
        raise ValueError(
            f"{to_dir} already holds a completed packed export "
            f"(_packed_manifest.json); remove it or export elsewhere"
        )
    if os.path.isdir(to_dir):
        # no marker: a crashed partial export — rebuild from scratch
        shutil.rmtree(to_dir)
    ds = packed_dataset(
        out_dir,
        seq_len,
        order=order,
        seed=seed,
        sources=sources,
        max_gen=max_gen,
        n_buckets=n_buckets,
        boundaries=boundaries,
        ann_filter=ann_filter,
        weights=weights,
        weight_hash=weight_hash,
        ann_order=ann_order,
    )
    if narrow:

        def to_u16(batch: pa.Table) -> pa.Table:
            toks = batch.column("tokens")
            if isinstance(toks, pa.ChunkedArray):
                toks = toks.combine_chunks()
            flat = toks.flatten()
            if len(flat):
                mm = pc.min_max(flat).as_py()
                if mm["min"] < 0 or mm["max"] > 0xFFFF:
                    raise ValueError(
                        f"narrow=True but token ids span [{mm['min']}, "
                        f"{mm['max']}]; uint16 holds [0, 65535]"
                    )
            i = batch.column_names.index("tokens")
            return batch.set_column(
                i, "tokens", toks.cast(pa.list_(pa.uint16()))
            )

        ds = ds.map_batches(to_u16, batch_format="pyarrow", zero_copy_batch=True)
    ds.write_parquet(to_dir)
    import ray.data as rd

    written = rd.read_parquet(to_dir, columns=["n_tok"])
    stats = written.aggregate(
        rd.aggregate.Count(), rd.aggregate.Sum("n_tok")
    )
    res = {
        "chunks": int(stats["count()"]),
        "tokens": int(stats["sum(n_tok)"] or 0),
    }
    with publishing(marker) as tmp, open(tmp, "w") as f:
        json.dump(
            {
                **res,
                "seq_len": seq_len,
                "order": order,
                "ann_order": list(ann_order) if ann_order else None,
                "seed": seed,
                "boundaries": boundaries,
                "narrow": narrow,
            },
            f,
        )
    return res
