"""Partition decoder — stateless inverse of the encoder (SURVEY.md §2.2 E9).

A container holds many independently-encoded chunks (map-side combine
output); decode each chunk to a tokseq sub-table and concatenate.
Bit-identity discipline (SURVEY §7 hard part b): tokens offsets are
re-derived from each chunk's decoded ``n_tok`` (never trusted from any
sliced Arrow offset buffer); values CRC-checked by the codec wrapper.
Row order across chunks is not defined — verify aligns on doc_id.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..codecs import EncodedColumn, decode_array
from ..sources.tokseq import INPUT_SCHEMA


def _needed_encoded(columns: list[str] | None) -> set[str] | None:
    """Encoded-column names required to materialize ``columns``.

    tokens needs n_tok (offsets are re-derived from it); a list side
    column ``x`` needs ``x@lens`` + ``x@values``.  None = everything."""
    if columns is None:
        return None
    need = set(columns)
    if "tokens" in need:
        need.add("n_tok")
    for c in list(need):
        need.add(c + "@lens")
        need.add(c + "@values")
    return need


def _list_column(lens: pa.Array, values: pa.Array) -> pa.ListArray:
    """List array whose offsets are re-derived from the encoded per-row
    lengths (never trusted from a sliced Arrow offset buffer); a null
    length makes a null list row, round-tripped bit-identically."""
    mask = None
    if lens.null_count:
        # offsets[i] null marks list i null; the final offset stays valid
        mask = np.concatenate((~lens.is_valid().to_numpy(zero_copy_only=False), [False]))
        lens = lens.fill_null(0)
    offs = np.concatenate(([0], np.cumsum(lens.to_numpy(zero_copy_only=False).astype(np.int64))))
    return pa.ListArray.from_arrays(pa.array(offs, type=pa.int32(), mask=mask), values)


def _decode_chunk(rows: dict[str, list], columns: list[str] | None = None) -> pa.Table:
    cols: dict[str, pa.Array] = {}
    for i in range(len(rows["column"])):
        enc = EncodedColumn(
            column=rows["column"][i],
            codec=rows["codec"][i],
            params=json.loads(rows["params"][i]),
            payload=rows["payload"][i],
            n_values=rows["n_values"][i],
            plain_bytes=rows["plain_bytes"][i],
            crc32=rows["crc32"][i],
        )
        cols[enc.column] = decode_array(enc)

    def build(name: str) -> pa.Array:
        # tokens and list side columns ``x`` (stored as x@lens + x@values)
        # are rebuilt from their lengths; everything else decodes as is
        if name == "tokens":
            return _list_column(cols["n_tok"], cols["tokens"])
        if name + "@values" in cols:
            return _list_column(cols[name + "@lens"], cols[name + "@values"])
        return cols[name]

    if columns is not None:
        # projected decode: assemble ONLY the requested columns
        return pa.table({name: build(name) for name in columns})
    out = pa.Table.from_arrays(
        [cols["doc_id"], build("tokens"), cols["n_tok"], cols["source"]], schema=INPUT_SCHEMA
    )
    for name in cols:  # side columns, in container row order
        if name in INPUT_SCHEMA.names or name.endswith("@lens"):
            continue  # a @lens column is consumed by its @values partner
        base = name[: -len("@values")] if name.endswith("@values") else name
        out = out.append_column(base, build(base))
    return out


_CHUNK_COLS = ("column", "codec", "params", "payload", "n_values", "crc32", "plain_bytes")


def _chunk_zone_skip(sub: pa.Table, n_tok_range) -> bool:
    """True when the chunk's n_tok zone (written by the encoder into
    the n_tok row's params) proves no row matches [lo, hi].  Chunks
    from pre-zone containers have no keys and never skip."""
    lo, hi = n_tok_range
    names = sub.column("column").to_pylist()
    try:
        i = names.index("n_tok")
    except ValueError:
        return False
    p = json.loads(sub.column("params")[i].as_py())
    if "zmin" not in p:
        return False
    return (lo is not None and p["zmax"] < lo) or (hi is not None and p["zmin"] > hi)


def iter_partition_chunks(container_path: str, columns: list[str] | None = None,
                          n_tok_range: tuple[int | None, int | None] | None = None,
                          only_chunks: set[int] | None = None):
    """Stream-decode a container file ROW GROUP by row group — the
    writer emits one row group per chunk, so peak transient memory is
    one chunk's payloads + its decoded rows, not the whole container.
    A chunk spanning row groups (containers written before the
    one-rg-per-chunk layout) is carried over and decoded whole.

    ``columns`` prunes at DECODE granularity: each encoded column is
    its own container row, so unrequested columns' payloads are never
    copied out nor run through their codec (a stats consumer skipping
    ``tokens`` skips ~90% of the decode work).  The row-group bytes
    still stream from disk — pruning cuts CPU + heap, not container
    I/O (one row group interleaves all columns of a chunk)."""
    needed = _needed_encoded(columns)
    ci = -1  # chunk ordinal — deterministic per file, shared across passes
    pf = pq.ParquetFile(container_path)
    n_rg = pf.metadata.num_row_groups
    pending: pa.Table | None = None
    for rg in range(n_rg):
        t = pf.read_row_group(rg)
        if pending is not None:
            t = pa.concat_tables([pending, t])
            pending = None
        t = t.combine_chunks()
        if t.num_rows == 0:
            continue
        codes = t.column("chunk_uid").combine_chunks().dictionary_encode().indices.to_numpy(zero_copy_only=False)
        bounds = np.concatenate(([0], np.flatnonzero(np.diff(codes)) + 1, [len(codes)]))
        if rg < n_rg - 1:
            # the last uid in this row group may continue in the next
            pending = t.slice(int(bounds[-2]))
            t = t.slice(0, int(bounds[-2]))
            bounds = bounds[:-1]
        for i, j in zip(bounds[:-1], bounds[1:]):
            ci += 1
            if only_chunks is not None and ci not in only_chunks:
                continue  # two-phase consumer already knows this chunk misses
            sub = t.slice(int(i), int(j - i))
            if n_tok_range is not None and _chunk_zone_skip(sub, n_tok_range):
                continue  # chunk zone map proves no row matches
            if needed is not None:
                sub = sub.filter(pc.is_in(sub.column("column"), value_set=pa.array(sorted(needed))))
            yield _decode_chunk({k: sub.column(k).to_pylist() for k in _CHUNK_COLS}, columns)


def read_partition(container_path: str) -> pa.Table:
    parts = list(iter_partition_chunks(container_path))
    if not parts:
        return pa.Table.from_pydict({k: [] for k in INPUT_SCHEMA.names}, schema=INPUT_SCHEMA)
    return pa.concat_tables(parts).combine_chunks()


def prune_partitions(
    out_dir: str,
    *,
    sources: list[str] | None = None,
    min_n_tok: int | None = None,
    max_n_tok: int | None = None,
) -> tuple[list[str], int]:
    """Zone-map partition pruning: (surviving part_ids, total completed).

    Every partition records its source (exact — partitions are keyed by
    (source, bucket)) and, when encoded through a decoded path, a
    ``zones`` entry with n_tok min/max.  A partition survives when the
    predicate could match it; partitions without zones always survive
    (pruning is an optimization, never a filter).  O(partitions) driver
    work — one manifest directory listing."""
    from ..state.manifest import read_manifest_entries

    entries = read_manifest_entries(out_dir)
    keep = []
    for pid, rec in sorted(entries.items()):
        if sources is not None and rec.get("source") not in sources:
            continue
        z = rec.get("zones", {}).get("n_tok")
        if z is not None:
            lo, hi = z
            if min_n_tok is not None and hi < min_n_tok:
                continue
            if max_n_tok is not None and lo > max_n_tok:
                continue
        keep.append(pid)
    return keep, len(entries)


def label_generations(out_dir: str) -> dict[str, int]:
    """part_id -> ingest generation, for every completed partition the
    persisted bucket plan attributes (stages.partition.label_gen: the
    label scheme and its one attribution rule are described there).
    Unattributed labels are absent from the map — the caller decides
    whether that means "refuse" (snapshot reads) or "whole-source
    fallback" (lookup routing).  Raises FileNotFoundError when
    plan.json is absent.  O(partitions) driver work, no I/O beyond
    the manifest dir + plan.json."""
    from ..state.manifest import read_manifest_entries, read_plan_generations
    from ..stages.partition import label_gen, plan_stems

    entries = read_manifest_entries(out_dir)
    stems = plan_stems(read_plan_generations(out_dir))  # FileNotFoundError if no plan
    gen_of: dict[str, int] = {}
    for pid, rec in entries.items():
        gen = label_gen(pid, rec.get("source"), stems)
        if gen is not None:
            gen_of[pid] = gen
    return gen_of


def partitions_for_generations(out_dir: str, max_gen: int) -> list[str]:
    """Completed part_ids belonging to ingest generations <= max_gen —
    the snapshot-read selector.  Every manifest label must reconstruct
    from some generation's persisted bucket plan (encoder buckets and
    generation-preserving compaction outputs both do — see
    label_generations); an unexplained label (a cross-generation
    compaction output, a foreign label with no lineage) makes the
    snapshot boundary meaningless, so this refuses loudly instead of
    guessing."""
    from ..state.manifest import read_manifest_entries

    gen_of = label_generations(out_dir)  # FileNotFoundError if no plan
    unexplained = sorted(set(read_manifest_entries(out_dir)) - set(gen_of))
    if unexplained:
        raise RuntimeError(
            "snapshot read unavailable: partitions not attributable to any "
            f"ingest generation (e.g. cross-generation compaction output): "
            f"{unexplained[:3]}. Read without max_gen, or compact with "
            "preserve_generations=True (the default)."
        )
    return sorted(p for p, g in gen_of.items() if g <= max_gen)


def decode_dataset(
    out_dir: str,
    *,
    sources: list[str] | None = None,
    min_n_tok: int | None = None,
    max_n_tok: int | None = None,
    columns: list[str] | None = None,
    max_gen: int | None = None,
    with_annotations: list[str] | None = None,
    part_ids: list[str] | None = None,
):
    """Completed partitions as a streaming decoded Dataset (E9).

    ``with_annotations=[name, ...]`` attaches co-partitioned side
    tables written by pipelines.annotate_job — an in-task doc_id
    gather against ONLY that partition's ann file (the side store
    inherits the corpus partitioning, so the attach is shuffle-free).
    doc_id is force-included in the output then (the join key);
    annotation columns already present in the decode (e.g. n_tok) are
    skipped.  A served partition with no annotation file raises —
    stale-after-rewrite is loud, re-run run_annotate to fill gaps.

    With a predicate, manifest zone maps prune whole partitions before
    any container is opened (prune_partitions), and the surviving rows
    are filtered vectorized after decode — the residual filter keeps
    semantics exact while the zone maps cut the I/O.  ``columns``
    prunes at decode granularity (see iter_partition_chunks): columns
    a predicate needs are decoded for the filter, then dropped.

    ``max_gen`` pins the read to ingest generations <= N (snapshot /
    time-travel over the generational lineage — reproducible "the
    corpus as of ingest N" reads; see partitions_for_generations).
    Tombstone deletes stay retroactive across snapshots ON PURPOSE: a
    takedown applies to every view of the corpus, past included."""
    import ray.data as rd

    from ..state.manifest import JobDirs, completed_partitions

    dirs = JobDirs(out_dir)
    filtered = sources is not None or min_n_tok is not None or max_n_tok is not None
    subset = set(part_ids) if part_ids is not None else None
    if filtered:
        part_ids, _ = prune_partitions(
            out_dir, sources=sources, min_n_tok=min_n_tok, max_n_tok=max_n_tok
        )
    else:
        part_ids = sorted(completed_partitions(out_dir))
    if subset is not None:
        # caller-side pruning (e.g. pipelines.search_job's bloom index):
        # restrict the read to these partitions.  Intersected with the
        # completed set, never widened — an unknown label is a caller
        # bug, not a silent empty read.
        unknown = subset - set(part_ids)
        if unknown and not filtered and max_gen is None:
            raise ValueError(
                f"part_ids not in the completed set: {sorted(unknown)[:5]}"
            )
        part_ids = [p for p in part_ids if p in subset]
    if max_gen is not None:
        snap = set(partitions_for_generations(out_dir, max_gen))
        part_ids = [p for p in part_ids if p in snap]
    paths = [dirs.container_path(p) for p in part_ids]

    decode_cols = columns
    extra: list[str] = []
    if columns is not None and filtered:
        if (min_n_tok is not None or max_n_tok is not None) and "n_tok" not in columns:
            extra.append("n_tok")
        if sources is not None and "source" not in columns:
            extra.append("source")
        decode_cols = list(columns) + extra
    if with_annotations and decode_cols is not None and "doc_id" not in decode_cols:
        decode_cols = list(decode_cols) + ["doc_id"]  # join key, kept in output

    def decode(batch: pa.Table):
        # one task per container file; GENERATOR udf — each encoded
        # chunk is yielded as its own output batch, so the task's peak
        # memory is one chunk, not the whole partition (streamed row
        # groups via iter_partition_chunks)
        from ..state.manifest import read_tombstones

        rng = (
            (min_n_tok, max_n_tok)
            if (min_n_tok is not None or max_n_tok is not None)
            else None
        )
        for p in batch.column("path").to_pylist():
            # logical deletes: a partition's tombstone set (usually
            # absent — one existence check per container) filters its
            # rows out of every read.  When the projection excludes
            # doc_id we decode it anyway FOR THIS PARTITION ONLY and
            # drop it after the filter (the predicate extra-column
            # pattern); untombstoned partitions pay nothing.
            pid = os.path.basename(p)[: -len(".parquet")]
            anns = []
            if with_annotations:
                from ..pipelines.annotate_job import read_annotation

                for nm in with_annotations:
                    a = read_annotation(out_dir, nm, pid)  # raises if stale
                    anns.append(a.combine_chunks())
            tomb = read_tombstones(out_dir, pid)
            cols_p = decode_cols
            drop_docid = False
            tomb_arr = None
            if tomb:
                tomb_arr = pa.array(sorted(tomb), type=pa.string())
                if cols_p is not None and "doc_id" not in cols_p:
                    cols_p = list(cols_p) + ["doc_id"]
                    drop_docid = True
            for t in iter_partition_chunks(p, cols_p, n_tok_range=rng):
                if tomb_arr is not None:
                    keep = pc.invert(
                        pc.is_in(
                            pc.cast(t.column("doc_id"), pa.string()),
                            value_set=tomb_arr,
                        )
                    )
                    if not pc.all(keep).as_py():
                        t = t.filter(keep)
                    if drop_docid:
                        t = t.drop_columns(["doc_id"])
                    if t.num_rows == 0:
                        continue
                if filtered:
                    mask = np.ones(t.num_rows, dtype=bool)
                    if min_n_tok is not None or max_n_tok is not None:
                        nt = t.column("n_tok").to_numpy(zero_copy_only=False)
                        if min_n_tok is not None:
                            mask &= nt >= min_n_tok
                        if max_n_tok is not None:
                            mask &= nt <= max_n_tok
                    if sources is not None:
                        mask &= pc.is_in(
                            t.column("source"), value_set=pa.array(sources)
                        ).to_numpy(zero_copy_only=False)
                    if not mask.all():
                        t = t.filter(pa.array(mask))
                    if t.num_rows == 0:
                        continue
                if extra:
                    t = t.drop_columns(extra)
                for a in anns:
                    # shuffle-free attach: the ann file holds exactly
                    # this partition's docs, so a vectorized index_in
                    # gather aligns it to the (possibly filtered) chunk
                    idx = pc.index_in(
                        pc.cast(t.column("doc_id"), pa.string()),
                        value_set=pc.cast(a.column("doc_id"), pa.string()),
                    )
                    for fld in a.schema:
                        if fld.name in t.column_names:
                            continue
                        t = t.append_column(fld, a.column(fld.name).take(idx))
                yield t

    return rd.from_items([{"path": p} for p in paths]).map_batches(
        decode, batch_format="pyarrow", batch_size=1
    )


def lookup_docs(out_dir: str, doc_ids, sources: list[str] | None = None) -> pa.Table:
    """Point lookup on the encoded corpus — NO index needed: partition
    assignment is ``hash(doc_id) % buckets(source)`` (stages/partition
    make_assigner), so each requested id maps to exactly ONE candidate
    partition per source.  With the source known the fanout is one
    container; unknown, one container per source — never a scan.

    Within each candidate container the lookup is two-phase: pass 1
    decodes ONLY the doc_id column (every other payload is skipped —
    the columns= pruning) to find the chunks that hit; pass 2 re-reads
    just those chunk ordinals in full.  Ordinals are deterministic per
    file, so the two passes agree.

    The bucket modulus comes from the encoder's PERSISTED plan.json
    (per source, per generation), never from the count of materialized
    partitions (round-4 advice: a planned bucket with zero docs, or a
    partially-completed resume, would otherwise shift the modulus and
    silently resolve ids to the wrong existing partition).  A planned
    label with no manifest simply contributes no rows — consistent
    with decode_dataset, which also reads only completed partitions.

    Partitions whose label does not reconstruct from any generation's
    plan (e.g. rewritten by compaction, or the whole plan.json is
    missing) fall back to candidacy for their whole source —
    correctness never depends on the label arithmetic.

    Tombstoned ids (logical deletes — state.manifest tombstones) are
    excluded per candidate partition, same as decode_dataset.

    This is the POINT-access path (driver-sequential over a handful of
    candidate containers).  A bulk id list that touches most partitions
    should instead stream ``decode_dataset(out_dir)`` through a
    vectorized ``is_in`` / key-only semi-join filter."""
    from ..state.manifest import JobDirs, read_tombstones

    want = sorted({str(d) for d in doc_ids})
    if not want:
        return pa.Table.from_pydict({k: [] for k in INPUT_SCHEMA.names}, schema=INPUT_SCHEMA)
    want_arr = pa.array(want, type=pa.string())
    dirs = JobDirs(out_dir)
    cand = candidate_partitions(out_dir, want, sources=sources)

    out: list[pa.Table] = []
    for pid in sorted(cand):
        path = dirs.container_path(pid)
        hits = {
            ci
            for ci, t in enumerate(iter_partition_chunks(path, columns=["doc_id"]))
            if pc.any(pc.is_in(t.column("doc_id"), value_set=want_arr)).as_py()
        }
        if not hits:
            continue
        tomb = read_tombstones(out_dir, pid)
        tomb_arr = pa.array(sorted(tomb), type=pa.string()) if tomb else None
        for t in iter_partition_chunks(path, only_chunks=hits):
            ids = pc.cast(t.column("doc_id"), pa.string())
            m = pc.is_in(ids, value_set=want_arr)
            if tomb_arr is not None:
                m = pc.and_(m, pc.invert(pc.is_in(ids, value_set=tomb_arr)))
            out.append(t.filter(m))
    if not out:
        return pa.Table.from_pydict({k: [] for k in INPUT_SCHEMA.names}, schema=INPUT_SCHEMA)
    return pa.concat_tables(out).combine_chunks()


def candidate_partitions(
    out_dir: str, doc_ids, sources: list[str] | None = None
) -> set[str]:
    """Completed part_ids that could hold any of ``doc_ids`` — the
    plan-derived routing set lookup_docs documents: per generation,
    per source, bucket = hash(doc_id) % k from the PERSISTED plan.json
    (never the materialized-partition count), plus a whole-source
    fallback for every manifest label no generation's plan explains
    (compaction output, foreign labels, missing plan.json).  Shared by
    lookup_docs (point reads) and delete_job.run_delete (tombstone
    targeting); O(manifest) driver work, no container opens."""
    from ..state.manifest import read_manifest_entries, read_plan_generations
    from ..stages.partition import label_gen, parse_label, part_label, plan_stems
    from ..util.hashing import hash_strings_u64

    want = sorted({str(d) for d in doc_ids})
    if not want:
        return set()
    hv = hash_strings_u64(pa.array(want, type=pa.string()))

    entries = read_manifest_entries(out_dir)
    try:
        stems = plan_stems(read_plan_generations(out_dir))
    except FileNotFoundError:
        stems = {}

    cand: set[str] = set()
    for stem, (_gen, src, k) in stems.items():
        if (sources is not None and src not in sources) or k <= 0:
            continue
        # candidate = the one planned bucket per generation; a planned
        # bucket with no manifest holds no completed rows, by the
        # encoder's completion contract
        for h in np.unique(hv % np.uint64(k)).tolist():
            label = part_label(stem, "b", int(h))
            if entries.get(label, {}).get("source") == src:
                cand.add(label)
    # whole-source fallback for every label but an attributed -b bucket:
    # compaction output, foreign labels, or a missing plan.json
    for pid, rec in entries.items():
        src = rec.get("source")
        if sources is not None and src not in sources:
            continue
        if label_gen(pid, src, stems) is None or parse_label(pid)[1] != "b":
            cand.add(pid)
    return cand
