"""Logical deletes + physical purge over an encoded corpus — the
takedown / right-to-erasure maintenance op a 100-TB training corpus
needs: remove specific doc_ids WITHOUT re-encoding the corpus.

Two-phase design (the merge-on-read pattern columnar lakehouses use):

1. ``run_delete`` — LOGICAL, cheap, immediate.  Resolve each id to its
   candidate partitions via the persisted bucket plan (the same
   ``hash(doc_id) % k`` routing lookup_docs uses — NO corpus scan: a
   takedown list of any size touches only the partitions that can hold
   those ids), confirm which ids actually exist there by decoding ONLY
   the doc_id column, and merge the hits into per-partition tombstone
   files (``deletes/{part_id}.json``, atomic).  Every reader
   (decode_dataset, lookup_docs) filters tombstoned ids from that
   moment on; untombstoned partitions pay one os.path.exists.

2. ``run_purge`` — PHYSICAL, offline maintenance (same operational
   contract as compaction: readers should not overlap the rewrite
   window).  Each tombstoned partition is decoded, filtered, and
   re-encoded IN PLACE under the SAME part_id — surviving rows keep
   their hash routing, so lookup_docs' label arithmetic still holds —
   with a fresh manifest line (new digest / zones / byte counts).  A
   partition whose every row is deleted is dropped entirely (manifest
   first, then container).  One Ray task per partition; no shuffle.

Crash safety: the tombstone file itself is the intent record.  It is
removed ONLY after the rewritten container + manifest landed (or the
empty partition was fully dropped), and a purge re-run over a
partially-purged partition is a no-op rewrite (filter removes nothing)
— so any interruption converges by re-running ``run_purge``, and
readers stay correct throughout because the tombstone keeps filtering
until the physical rows are verifiably gone.

Interactions, stated loudly:

- **Verify**: ``mode="hash"`` / ``"manifest"`` stay valid after a purge
  (the digest is recomputed from the surviving rows).  Exact verify
  against the ORIGINAL input intentionally fails for purged partitions
  — the corpus no longer matches the input, which is the whole point.
- **Compaction**: ``plan_compaction`` refuses to touch partitions that
  carry tombstones (purge first, then compact) — rewriting them from
  the physical rows would resurrect deleted docs under a new label the
  tombstone no longer matches.
- **Encode resume / incremental append**: re-running an encode over
  the same out_dir re-materializes missing partitions FROM THE INPUT.
  If a purge dropped an all-deleted partition, a subsequent resume of
  the original encode will faithfully rebuild it — deletes are
  post-ingest maintenance on the ENCODED corpus, not edits to the
  source of truth.  Delete upstream too if the input may be re-run.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..state.manifest import (
    JobDirs,
    clear_tombstones,
    read_manifest_entries,
    read_tombstones,
    tombstoned_partitions,
    write_tombstones,
)


def _refuse_unsealed(out_dir: str) -> None:
    """A tombstone can only target COMPLETED partitions: an id whose
    row sits in a not-yet-encoded partition of an unsealed generation
    would be silently missed, then materialize later untombstoned.
    Refuse loudly; run_upsert seals first for exactly this reason."""
    from ..state.manifest import read_plan

    try:
        plan = read_plan(out_dir)
    except FileNotFoundError:
        return
    if any(not g.get("sealed") for g in plan.get("generations", [])):
        raise RuntimeError(
            f"delete refused: {out_dir} has an unsealed ingest generation; "
            "finish it first (run_encode_files over the recorded lineage "
            "seals it), otherwise ids still being encoded would escape the "
            "tombstone."
        )


def run_delete_where(
    out_dir: str, ann_name: str, col: str, lo=None, hi=None
) -> dict:
    """Predicate delete: tombstone every doc whose ANNOTATION value
    lands in ``[lo, hi]`` (either bound open) — the curation takedown
    ("purge everything with repetition_ratio above 0.9") without a
    takedown list and without touching any token payload.

    Scale shape: the annotation side tables already inherit the corpus
    partitioning, so this is ONE Ray task per partition reading ONLY
    that partition's tiny ann parquet (the payload containers are never
    opened); each task writes its own tombstone file.  No exchange of
    any kind.  Requires ``run_annotate(out_dir, ann_name)`` to have
    covered every partition — a missing side table raises rather than
    silently skipping that partition's docs."""
    import ray.data as rd

    from ..pipelines.annotate_job import read_annotation
    from ..state.manifest import completed_partitions

    if lo is None and hi is None:
        raise ValueError("delete_where needs at least one bound")
    _refuse_unsealed(out_dir)
    pids = sorted(completed_partitions(out_dir))
    if not pids:
        return {"found": 0, "partitions": 0, "scanned": 0}

    def scan(batch: pa.Table):
        for pid in batch.column("part_id").to_pylist():
            a = read_annotation(out_dir, ann_name, pid)  # raises if absent
            if col not in a.column_names:
                raise KeyError(
                    f"annotation {ann_name!r} has no column {col!r}; "
                    f"it holds {a.column_names}"
                )
            v = a.column(col).to_numpy(zero_copy_only=False)
            mask = np.ones(len(v), dtype=bool)
            if lo is not None:
                mask &= v >= lo
            if hi is not None:
                mask &= v <= hi
            n = int(mask.sum())
            if n:
                ids = (
                    pc.cast(a.column("doc_id"), pa.string())
                    .filter(pa.array(mask))
                    .to_pylist()
                )
                write_tombstones(out_dir, pid, ids)
            yield pa.Table.from_pydict(
                {"part_id": pa.array([pid]), "n": pa.array([n], pa.int64())}
            )

    res = (
        rd.from_items([{"part_id": p} for p in pids])
        .map_batches(scan, batch_format="pyarrow", batch_size=1)
        .to_pandas()  # O(partitions) rows
    )
    return {
        "found": int(res["n"].sum()),
        "partitions": int((res["n"] > 0).sum()),
        "scanned": len(res),
    }


def run_delete_matching(out_dir: str, phrases: list[str]) -> dict:
    """Content takedown: tombstone every doc containing ANY of the
    exact word sequences — "remove everything that quotes this
    passage" without a doc_id list.

    Scale shape: phrase ids resolve once on the driver (search_job's
    frozen-vocab contract; a phrase with a word outside the vocab
    matches nothing), the bloom sidecars prune the partition set when
    they exist, and then it is ONE Ray task per candidate partition —
    stream-decode (doc_id, tokens), the shared multi-phrase
    rolling-hash scan, write that partition's own tombstone file.  No
    exchange, no driver materialization of matched ids at any corpus
    size."""
    import ray.data as rd

    from ..pipelines.search_job import (
        candidate_partitions_for_ids,
        count_many_batch,
        index_dir,
        phrase_token_ids,
    )
    from ..state.manifest import JobDirs, completed_partitions

    if not phrases:
        raise ValueError("empty phrase list")
    _refuse_unsealed(out_dir)
    resolved = {}
    for p in phrases:
        ids = phrase_token_ids(out_dir, p)  # raises on vocabless/BPE stores
        if ids is not None:
            resolved[p] = ids
    by_len: dict[int, tuple[list[str], np.ndarray]] = {}
    for L in sorted({len(i) for i in resolved.values()}):
        names = [p for p, i in resolved.items() if len(i) == L]
        by_len[L] = (names, np.stack([resolved[p] for p in names]))

    pids = sorted(completed_partitions(out_dir))
    if resolved and os.path.isdir(index_dir(out_dir)):
        pids, _total = candidate_partitions_for_ids(out_dir, list(resolved.values()))
    if not pids or not resolved:
        return {"found": 0, "partitions": 0, "scanned": len(pids)}

    dirs = JobDirs(out_dir)

    def scan(batch: pa.Table):
        from ..stages.decoder import iter_partition_chunks

        for pid in batch.column("part_id").to_pylist():
            hit: set[str] = set()
            for t in iter_partition_chunks(
                dirs.container_path(pid), ["doc_id", "tokens"]
            ):
                m = count_many_batch(t, by_len)
                hit.update(m.column("doc_id").to_pylist())
            if hit:
                write_tombstones(out_dir, pid, sorted(hit))
            yield pa.Table.from_pydict(
                {"part_id": pa.array([pid]), "n": pa.array([len(hit)], pa.int64())}
            )

    res = (
        rd.from_items([{"part_id": p} for p in pids])
        .map_batches(scan, batch_format="pyarrow", batch_size=1)
        .to_pandas()  # O(partitions) rows
    )
    return {
        "found": int(res["n"].sum()),
        "partitions": int((res["n"] > 0).sum()),
        "scanned": len(res),
    }


def run_delete_quantile(
    out_dir: str,
    ann_name: str,
    col: str,
    frac: float,
    side: str = "bottom",
    *,
    k: int = 256,
) -> dict:
    """Fraction-based predicate delete: tombstone ~``frac`` of the
    corpus ranked by an annotation value — "drop the worst 10% by
    distinct_ratio" without knowing the cutoff.  The threshold comes
    from a distributed KLL sketch over the annotation side tables
    (functions/sketches.py: rows moved are sketch-sized regardless of
    corpus size); the delete itself is ``run_delete_where`` at that
    threshold.  The CUT IS THRESHOLD-EXACT and the FRACTION
    approximate (KLL rank error ~1/k, plus ties share a fate) — the
    right contract for curation: equal scores are treated equally.

    Requires ``run_annotate`` to have covered every completed
    partition; missing side tables refuse (a silently unscanned
    partition would skew the threshold AND leak docs)."""
    import ray.data as rd

    from ..functions.sketches import kll_quantiles
    from ..pipelines.annotate_job import ann_dir
    from ..state.manifest import completed_partitions

    if side not in ("bottom", "top"):
        raise ValueError(f"side must be 'bottom' or 'top', got {side!r}")
    if not (0.0 < frac < 1.0):
        raise ValueError(f"frac must be in (0, 1), got {frac}")
    _refuse_unsealed(out_dir)
    adir = ann_dir(out_dir, ann_name)
    pids = sorted(completed_partitions(out_dir))
    paths = [os.path.join(adir, f"{p}.parquet") for p in pids]
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        raise FileNotFoundError(
            f"annotation {ann_name!r} missing for "
            f"{len(missing)}/{len(paths)} partitions (e.g. {missing[0]}); "
            "re-run run_annotate first"
        )
    if not paths:
        return {"found": 0, "partitions": 0, "scanned": 0, "threshold": None}
    ann_ds = rd.read_parquet(paths, columns=[col])
    q = frac if side == "bottom" else 1.0 - frac
    est = kll_quantiles(ann_ds, col, [q], k=k)
    thr = float(est.column("est")[0].as_py())
    bounds = {"hi": thr} if side == "bottom" else {"lo": thr}
    res = run_delete_where(out_dir, ann_name, col, **bounds)
    return {**res, "threshold": thr, "side": side, "frac": frac}


def run_delete(
    out_dir: str, doc_ids, sources: list[str] | None = None
) -> dict:
    """Tombstone ``doc_ids`` (logical delete).  Returns
    ``{"requested", "found", "partitions"}`` — ids not present in the
    corpus are reported in the difference and leave no tombstone.

    The existence scan is one Ray task per CANDIDATE container (plan
    routing bounds the fanout), each decoding only the doc_id column;
    its output is O(found ids), so collecting it on the driver is
    bounded by the takedown list, never the corpus."""
    import ray
    import ray.data as rd

    from ..stages.decoder import candidate_partitions, iter_partition_chunks

    _refuse_unsealed(out_dir)
    want = sorted({str(d) for d in doc_ids})
    if not want:
        return {"requested": 0, "found": 0, "partitions": 0}
    cand = sorted(candidate_partitions(out_dir, want, sources=sources))
    if not cand:
        return {"requested": len(want), "found": 0, "partitions": 0}

    dirs = JobDirs(out_dir)
    want_ref = ray.put(pa.array(want, type=pa.string()))

    def scan(batch: pa.Table):
        want_arr = ray.get(want_ref)  # shared-memory, zero-copy per node
        for pid in batch.column("part_id").to_pylist():
            found: list[str] = []
            for t in iter_partition_chunks(
                dirs.container_path(pid), columns=["doc_id"]
            ):
                ids = pc.cast(t.column("doc_id"), pa.string())
                hit = pc.is_in(ids, value_set=want_arr)
                if pc.any(hit).as_py():
                    found.extend(ids.filter(hit).to_pylist())
            if found:
                yield pa.Table.from_pydict(
                    {
                        "part_id": pa.array([pid] * len(found)),
                        "doc_id": pa.array(found, type=pa.string()),
                    }
                )

    hits = (
        rd.from_items([{"part_id": p} for p in cand])
        .map_batches(scan, batch_format="pyarrow", batch_size=1)
        .to_pandas()  # O(found ids) — bounded by the takedown list
    )
    n_found = 0
    n_parts = 0
    if len(hits):
        for pid, grp in hits.groupby("part_id"):
            write_tombstones(out_dir, str(pid), grp["doc_id"].tolist())
            n_parts += 1
        n_found = int(hits["doc_id"].nunique())
    return {"requested": len(want), "found": n_found, "partitions": n_parts}


def purge_partition(out_dir: str, part_id: str, *, zstd: bool = True) -> dict:
    """Physically remove one partition's tombstoned rows (see module
    protocol).  Returns a summary row; safe to re-run."""
    from ..stages.decoder import read_partition
    from ..stages.encoder import PartitionWriter

    dirs = JobDirs(out_dir)
    tomb = read_tombstones(out_dir, part_id)
    if not tomb:
        return {"part_id": part_id, "action": "noop", "rows_kept": -1}
    entries = read_manifest_entries(out_dir)
    cpath = dirs.container_path(part_id)
    rec = entries.get(part_id)
    if rec is None:
        # orphan: a previous purge dropped the manifest (or the
        # partition never completed) — clear the remains
        if os.path.exists(cpath):
            os.unlink(cpath)
        clear_tombstones(out_dir, part_id)
        return {"part_id": part_id, "action": "orphan_cleared", "rows_kept": 0}

    decoded = read_partition(cpath)
    keep = pc.invert(
        pc.is_in(
            pc.cast(decoded.column("doc_id"), pa.string()),
            value_set=pa.array(sorted(tomb), type=pa.string()),
        )
    )
    kept = decoded.filter(keep)
    if kept.num_rows == 0:
        # drop the whole partition: manifest FIRST (the completion
        # marker), container second, tombstone last
        os.unlink(dirs.manifest_path(part_id))
        os.unlink(cpath)
        clear_tombstones(out_dir, part_id)
        return {"part_id": part_id, "action": "dropped", "rows_kept": 0}

    writer = PartitionWriter(out_dir, zstd=zstd)
    writer.finalize_raw(kept.combine_chunks(), part_id, rec["source"])
    clear_tombstones(out_dir, part_id)  # LAST: readers filter until here
    return {"part_id": part_id, "action": "rewritten", "rows_kept": int(kept.num_rows)}


def run_purge(out_dir: str, *, zstd: bool = True):
    """Purge every tombstoned partition — one Ray task each (the I/O
    of different partitions is independent; the scheduler spreads them
    across the cluster, no shuffle).  Returns the summary Dataset."""
    import ray.data as rd

    pids = tombstoned_partitions(out_dir)
    schema = pa.schema(
        [("part_id", pa.string()), ("action", pa.string()), ("rows_kept", pa.int64())]
    )
    if not pids:
        return rd.from_arrow(
            pa.Table.from_pydict({f.name: [] for f in schema}, schema=schema)
        )

    def purge(batch: pa.Table) -> pa.Table:
        rows = [
            purge_partition(out_dir, pid, zstd=zstd)
            for pid in batch.column("part_id").to_pylist()
        ]
        return pa.Table.from_pydict(
            {
                "part_id": pa.array([r["part_id"] for r in rows]),
                "action": pa.array([r["action"] for r in rows]),
                "rows_kept": pa.array(
                    np.array([r["rows_kept"] for r in rows], dtype=np.int64)
                ),
            },
            schema=schema,
        )

    return rd.from_items([{"part_id": p} for p in pids]).map_batches(
        purge, batch_format="pyarrow", batch_size=1
    )
