"""Span-level content redaction over an encoded store.

``delete --where-phrase`` tombstones WHOLE documents; redaction is the
surgical variant: replace every matched span's token ids with the
store's reserved OOV id (which detokenizes as ``<unk>``), IN PLACE,
keeping doc ids, doc count and sequence lengths unchanged — "remove
this quoted passage everywhere, keep the documents".

Scale shape (the same one-task-per-candidate design as
``delete_job.run_delete_matching``): phrase ids resolve once on the
driver under the frozen-vocab contract, bloom sidecars prune the
candidate partition set when they exist, then ONE Ray task per
candidate partition stream-decodes, scans with the aligned-equality
kernel (per phrase — redaction lists are short; the rolling-hash
multi-phrase pass exists in search_job when they are not), builds a
token coverage mask with a difference array (overlaps coalesce), and
rewrites the partition through ``PartitionWriter.finalize_raw``
(atomic tmp+rename, manifest digest refreshed) ONLY when it matched.
No exchange; the driver holds O(partitions) labels plus the summary.

Post-conditions:
- a search for the phrase finds 0 matches; re-running redact is a noop
- rewritten partitions' ANNOTATION sidecars are dropped — their
  content-derived values (token_stats, content_hash, text_quality,
  langid) would be silently wrong; the idempotent ``run_annotate``
  gap-fill refills them
- rewritten partitions' BLOOM sidecars are dropped too: unlike purge
  (which only removes content, leaving the stale bloom a harmless
  superset) redaction ADDS the OOV id to documents, and a bloom
  without that key could wrongly prune a later token-ids search;
  ``run_build_index`` gap-fills
- exact-mode verify against the ORIGINAL input reports the rewritten
  partitions as changed (that is the truth); hash/manifest modes stay
  green because finalize_raw refreshed the digests
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa

__all__ = ["run_redact"]


def _coverage_mask(
    v: np.ndarray, seg: np.ndarray, phrase_ids: list[np.ndarray]
) -> np.ndarray:
    """Boolean mask over the flat token buffer: True where any phrase
    matches (every start position, same-doc guard, overlaps merged via
    a difference array)."""
    N = len(v)
    diff = np.zeros(N + 1, dtype=np.int64)
    for ids in phrase_ids:
        L = len(ids)
        if N < L:
            continue
        m = v[: N - L + 1] == ids[0]
        for j in range(1, L):
            m &= v[j : N - L + 1 + j] == ids[j]
        if L > 1:
            m &= seg[: N - L + 1] == seg[L - 1 :]
        pos = np.nonzero(m)[0]
        if len(pos):
            diff[pos] += 1
            diff[pos + L] -= 1
    return np.cumsum(diff[:N]) > 0


def _drop_sidecars(out_dir: str, part_id: str) -> int:
    """Remove every ann/ and index/ sidecar for one partition (their
    content-derived values are stale after a rewrite); the owning
    jobs' idempotent gap-fill refills them.  Returns files removed."""
    n = 0
    for root in ("ann", "index"):
        rdir = os.path.join(out_dir, root)
        if not os.path.isdir(rdir):
            continue
        for name in os.listdir(rdir):
            p = os.path.join(rdir, name, f"{part_id}.parquet")
            if os.path.exists(p):
                os.unlink(p)
                n += 1
    return n


def run_redact(
    out_dir: str,
    phrases: list[str],
    *,
    zstd: bool = True,
    dry_run: bool = False,
    sources: list[str] | None = None,
) -> dict:
    """Redact every occurrence of the exact word sequences: matched
    spans' token ids become the store's OOV id, partitions rewrite in
    place.  Returns ``{"scanned", "rewritten", "docs_redacted",
    "tokens_redacted", "sidecars_dropped"}``.  ``docs_redacted`` and
    ``tokens_redacted`` count tombstoned documents too: they stay in
    the containers (and are redacted there) until purge.

    ``dry_run=True`` runs the identical scan but writes NOTHING — the
    summary reports what a real run would rewrite ("rewritten" counts
    the partitions that WOULD change).  The rewrite is irreversible;
    preview the blast radius first.

    ``sources`` scopes the takedown to those sources' partitions
    (manifest-pruned, composes with the bloom pruning) — redact a
    quote from one domain while leaving legitimate quotations in
    another untouched."""
    import ray.data as rd

    from ..pipelines.delete_job import _refuse_unsealed
    from ..pipelines.search_job import (
        candidate_partitions_for_ids,
        index_dir,
        phrase_token_ids,
    )
    from ..state.manifest import JobDirs, read_manifest_entries

    if not phrases:
        raise ValueError("empty phrase list")
    if len(set(phrases)) != len(phrases):
        raise ValueError("duplicate phrases")
    _refuse_unsealed(out_dir)
    resolved: list[np.ndarray] = []
    for p in phrases:
        ids = phrase_token_ids(out_dir, p)  # raises on vocabless/BPE stores
        if ids is not None:  # an OOV word in the phrase matches nothing
            resolved.append(ids)

    with open(os.path.join(out_dir, "vocab.json")) as f:
        oov_id = len(json.load(f))  # tokenize_job contract: OOV = len(vocab)
    if oov_id > np.iinfo(np.int32).max:
        raise ValueError(f"vocab too large for int32 token ids: {oov_id}")

    entries = read_manifest_entries(out_dir)
    pids = sorted(entries)
    if sources is not None:
        want_src = set(sources)
        pids = [p for p in pids if entries[p]["source"] in want_src]
    if resolved and os.path.isdir(index_dir(out_dir)):
        cand = set(candidate_partitions_for_ids(out_dir, resolved)[0])
        pids = [p for p in pids if p in cand]  # intersect with the source scope
    if not pids or not resolved:
        return {"scanned": len(pids) if resolved else 0, "rewritten": 0,
                "docs_redacted": 0, "tokens_redacted": 0,
                "sidecars_dropped": 0, "dry_run": dry_run}

    dirs = JobDirs(out_dir)
    src_of = {pid: entries[pid]["source"] for pid in pids}

    def redact(batch: pa.Table):
        from ..stages.decoder import read_partition
        from ..stages.encoder import PartitionWriter

        for pid in batch.column("part_id").to_pylist():
            decoded = read_partition(dirs.container_path(pid))
            toks = decoded.column("tokens").combine_chunks()
            v = toks.values.to_numpy(zero_copy_only=False).astype(
                np.int64, copy=False
            )
            lens = np.diff(toks.offsets.to_numpy(zero_copy_only=False))
            seg = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
            covered = _coverage_mask(v, seg, resolved)
            n_cov = int(covered.sum())
            if not n_cov:
                yield pa.table(
                    {"part_id": pa.array([pid]), "rewritten": pa.array([False]),
                     "docs": pa.array([0], pa.int64()),
                     "tokens": pa.array([0], pa.int64()),
                     "sidecars": pa.array([0], pa.int64())}
                )
                continue
            n_docs_hit = int(len(np.unique(seg[covered])))
            if dry_run:
                yield pa.table(
                    {"part_id": pa.array([pid]), "rewritten": pa.array([True]),
                     "docs": pa.array([n_docs_hit], pa.int64()),
                     "tokens": pa.array([n_cov], pa.int64()),
                     "sidecars": pa.array([0], pa.int64())}
                )
                continue
            new_flat = toks.values.to_numpy(zero_copy_only=False).astype(
                np.int32, copy=True
            )
            new_flat[covered] = np.int32(oov_id)
            new_toks = pa.ListArray.from_arrays(
                toks.offsets, pa.array(new_flat, type=pa.int32())
            )
            i = decoded.column_names.index("tokens")
            out = decoded.set_column(i, decoded.schema.field(i), new_toks)
            # sidecars go FIRST: a rewrite that fails part-way must not
            # leave them beside content they no longer describe
            dropped = _drop_sidecars(out_dir, pid)
            PartitionWriter(out_dir, zstd=zstd).finalize_raw(
                out.combine_chunks(), pid, src_of[pid]
            )
            yield pa.table(
                {"part_id": pa.array([pid]), "rewritten": pa.array([True]),
                 "docs": pa.array([n_docs_hit], pa.int64()),
                 "tokens": pa.array([n_cov], pa.int64()),
                 "sidecars": pa.array([dropped], pa.int64())}
            )

    res = (
        rd.from_items([{"part_id": p} for p in pids])
        .map_batches(redact, batch_format="pyarrow", batch_size=1)
        .to_pandas()  # O(partitions) summary rows — never corpus-sized
    )
    return {
        "scanned": len(pids),
        "rewritten": int(res["rewritten"].sum()),
        "docs_redacted": int(res["docs"].sum()),
        "tokens_redacted": int(res["tokens"].sum()),
        "sidecars_dropped": int(res["sidecars"].sum()),
        "dry_run": dry_run,
    }
