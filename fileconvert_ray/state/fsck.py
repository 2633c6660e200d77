"""Metadata-only consistency audit (fsck) of an encode output dir.

The operational complement to ``verify`` (SURVEY.md §2.2 E10): verify
re-reads payloads to prove round-trip fidelity; fsck walks ONLY the
metadata surface — plan.json, manifest/*.json, the parts/ listing,
tombstones, staging scratch — and classifies every inconsistency the
crash-safety design can leave behind.  Cost is O(partitions) driver
work and one os.stat per container: at 100 TB (~10^5-10^6 partitions)
that is seconds, so it can run before every resume / decode / compact
as a cheap gate.  Run it on a QUIESCENT dir — a concurrently running
encode legitimately has in-flight tmp/staged files.

Error vs warning contract (errors => CLI exit 1):

errors   — a manifest entry whose container file is MISSING, or whose
           on-disk size differs from the recorded ``container_bytes``
           (truncation/partial copy: decode would fail or lie);
           unparseable plan.json / manifest json; a part_id the plan
           does not attribute to its record's source (stages/partition
           label_gen) and that is not that source's ``-x`` compaction
           output (foreign or stale data that decode WOULD read); a
           tombstone for an unknown part_id (a delete that silently
           protects nothing).
warnings — planned partitions with no manifest entry (incomplete job:
           resumable, not corrupt); orphan containers in parts/ with
           no manifest (crash between the two renames — the design's
           documented benign leftover); tmp/ + staged/ scratch bytes;
           dot-named publish leftovers in manifest/, deletes/ and
           compact/ (a crash before the rename: no reader lists them);
           a manifest entry with no round-trip digest (verify
           --mode manifest would report it ok=False, not silence).

``reclaim=True`` deletes the reclaimable classes only: orphan
containers, tmp/ scratch, publish leftovers, and — only when the job
is COMPLETE (no missing planned partitions) — staged/ shuffle scratch.
"""

from __future__ import annotations

import json
import os

from .manifest import (
    JobDirs,
    read_manifest_entries,
    read_plan_generations,
    tombstone_dir,
    tombstoned_partitions,
)


def _scratch_files(d: str) -> list[tuple[str, int]]:
    if not os.path.isdir(d):
        return []
    out = []
    for f in sorted(os.listdir(d)):
        p = os.path.join(d, f)
        if os.path.isfile(p):
            out.append((p, os.path.getsize(p)))
    return out


def fsck(out_dir: str, *, reclaim: bool = False) -> dict:
    """Audit ``out_dir``; returns a JSON-able report (see module doc).

    ``report["ok"]`` is True iff no errors (warnings allowed)."""
    from ..stages.partition import cross_gen_stem, label_gen, parse_label, part_label, plan_stems

    dirs = JobDirs(out_dir)
    errors: list[dict] = []
    warnings: list[dict] = []

    # ---- plan -------------------------------------------------------
    plan_gens: list[tuple[int, dict]] | None = None
    try:
        plan_gens = read_plan_generations(out_dir)
    except FileNotFoundError:
        warnings.append({"kind": "no_plan", "detail": "plan.json absent: "
                         "part_ids cannot be checked against a plan"})
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
        errors.append({"kind": "bad_plan", "detail": f"plan.json unparseable: {e}"})

    stems = plan_stems(plan_gens) if plan_gens else {}
    planned = {part_label(stem, "b", i) for stem, (_, _, k) in stems.items() for i in range(k)}

    # ---- manifest entries <-> container files ----------------------
    try:
        entries = read_manifest_entries(out_dir)
    except (json.JSONDecodeError, ValueError) as e:
        errors.append({"kind": "bad_manifest", "detail": str(e)})
        entries = {}

    part_files = (
        {f for f in os.listdir(dirs.parts) if f.endswith(".parquet")}
        if os.path.isdir(dirs.parts)
        else set()
    )
    # sources whose containers were (partly) compacted: their missing
    # -b partitions were merged away, not lost
    compacted_sources: set[str] = set()
    for pid, rec in sorted(entries.items()):
        src = rec.get("source", "")
        parsed = parse_label(pid)
        if parsed is not None and parsed[1] != "b":
            compacted_sources.add(src)
        fname = f"{pid}.parquet"
        path = dirs.container_path(pid)
        if fname not in part_files:
            errors.append({"kind": "missing_container", "part_id": pid})
            continue
        want = rec.get("container_bytes")
        have = os.path.getsize(path)
        if want is not None and int(want) != have:
            errors.append(
                {"kind": "size_mismatch", "part_id": pid,
                 "recorded": int(want), "on_disk": have}
            )
        if not rec.get("digest"):
            warnings.append({"kind": "no_digest", "part_id": pid})
        # the plan attributes it, or it is its own source's -x
        # (cross-generation) compaction output; anything else is data
        # no plan explains
        if (
            plan_gens is not None
            and label_gen(pid, src, stems) is None
            and (parsed is None or parsed[:2] != (cross_gen_stem(src), "x"))
        ):
            errors.append({"kind": "unplanned_partition", "part_id": pid})

    incomplete, merged = [], []
    for pid in sorted(planned - set(entries)):
        src = stems[parse_label(pid)[0]][1]
        (merged if src in compacted_sources else incomplete).append(pid)
    if merged:
        warnings.append(
            {"kind": "compacted_away", "count": len(merged),
             "part_ids": merged[:20],
             "detail": "planned partitions replaced by compaction "
                       "(benign; present as -c/-x containers)"}
        )
    if incomplete:
        warnings.append(
            {"kind": "incomplete", "count": len(incomplete),
             "part_ids": incomplete[:20],
             "detail": "planned partitions with no manifest entry "
                       "(resumable — re-run encode)"}
        )

    orphans = sorted(f[:-8] for f in part_files if f[:-8] not in entries)
    orphan_paths = [dirs.container_path(p) for p in orphans]
    if orphans:
        warnings.append(
            {"kind": "orphan_container", "count": len(orphans),
             "part_ids": orphans[:20],
             "bytes": sum(os.path.getsize(p) for p in orphan_paths),
             "detail": "container without manifest (crash between the "
                       "two renames; safe to reclaim)"}
        )

    # ---- tombstones -------------------------------------------------
    for pid in tombstoned_partitions(out_dir):
        if pid not in entries:
            errors.append({"kind": "tombstone_unknown_partition", "part_id": pid})

    # ---- ingest sidecars (pipelines/ingest_job.py) ------------------
    if os.path.exists(os.path.join(out_dir, "ingest.json")) and not os.path.exists(
        os.path.join(out_dir, "vocab.json")
    ):
        errors.append(
            {"kind": "missing_vocab",
             "detail": "ingest.json present but vocab.json absent: token ids "
                       "are undecodable to text and verify cannot re-tokenize"}
        )

    # ---- annotations (pipelines/annotate_job.py) --------------------
    ann_root = os.path.join(out_dir, "ann")
    stale_ann: list[str] = []
    if os.path.isdir(ann_root):
        for name in sorted(os.listdir(ann_root)):
            adir = os.path.join(ann_root, name)
            if not os.path.isdir(adir):
                continue
            missing = sorted(
                pid for pid in entries
                if not os.path.exists(os.path.join(adir, f"{pid}.parquet"))
            )
            if missing:
                warnings.append(
                    {"kind": "annotation_gaps", "annotation": name,
                     "count": len(missing), "part_ids": missing[:10],
                     "detail": "partitions without this annotation (rewritten "
                               "after annotate? re-run `annotate` to fill)"}
                )
            stale_ann.extend(
                os.path.join(adir, f)
                for f in os.listdir(adir)
                if f.endswith(".parquet") and f[:-len(".parquet")] not in entries
            )
    if stale_ann:
        warnings.append(
            {"kind": "stale_annotations", "count": len(stale_ann),
             "bytes": sum(os.path.getsize(p) for p in stale_ann),
             "detail": "annotation files for partitions no longer in the "
                       "manifest (purged/compacted away; safe to reclaim)"}
        )

    # ---- search index sidecars (pipelines/search_job.py) ------------
    # same partition-name contract as annotations; gaps are only a
    # pruning loss (a missing sidecar keeps its partition a search
    # candidate), stale files are plain dead bytes — reclaimable
    idx_root = os.path.join(out_dir, "index")
    stale_idx: list[str] = []
    if os.path.isdir(idx_root):
        for name in sorted(os.listdir(idx_root)):
            idir = os.path.join(idx_root, name)
            if not os.path.isdir(idir):
                continue
            missing = sorted(
                pid for pid in entries
                if not os.path.exists(os.path.join(idir, f"{pid}.parquet"))
            )
            if missing:
                warnings.append(
                    {"kind": "index_gaps", "index": name,
                     "count": len(missing), "part_ids": missing[:10],
                     "detail": "partitions without this search index "
                               "(search stays exact, just unpruned; re-run "
                               "`index` to fill)"}
                )
            stale_idx.extend(
                os.path.join(idir, f)
                for f in os.listdir(idir)
                if f.endswith(".parquet") and f[:-len(".parquet")] not in entries
            )
    if stale_idx:
        warnings.append(
            {"kind": "stale_index", "count": len(stale_idx),
             "bytes": sum(os.path.getsize(p) for p in stale_idx),
             "detail": "index sidecars for partitions no longer in the "
                       "manifest (purged/compacted away; safe to reclaim)"}
        )

    # ---- scratch ----------------------------------------------------
    tmp_files = _scratch_files(dirs.tmp)
    staged_files = _scratch_files(dirs.staged)
    # dot-named files beside the records are publish tmp files a crash
    # left before their rename (state.manifest.record_names skips them)
    publish_files = [
        (p, sz)
        for d in (dirs.manifest, tombstone_dir(out_dir), os.path.join(out_dir, "compact"))
        for p, sz in _scratch_files(d)
        if os.path.basename(p).startswith(".")
    ]
    for kind, files in (
        ("tmp_scratch", tmp_files),
        ("staged_scratch", staged_files),
        ("publish_scratch", publish_files),
    ):
        if files:
            warnings.append(
                {"kind": kind, "count": len(files),
                 "bytes": sum(sz for _, sz in files)}
            )

    reclaimed = {"files": 0, "bytes": 0}
    if reclaim:
        victims = tmp_files + publish_files + [
            (p, os.path.getsize(p)) for p in orphan_paths + stale_ann + stale_idx
        ]
        # staged/ is shuffle scratch a RESUME of an incomplete job does
        # not need either (resume re-stages from input) — but keep it
        # unless the job is complete, out of caution
        if not incomplete:
            victims += staged_files
        for p, sz in victims:
            os.unlink(p)
            reclaimed["files"] += 1
            reclaimed["bytes"] += sz

    return {
        "ok": not errors,
        "out_dir": out_dir,
        "partitions": len(entries),
        "planned": len(planned) if plan_gens else None,
        "generations": [g for g, _ in plan_gens] if plan_gens else None,
        "errors": errors,
        "warnings": warnings,
        "reclaimed": reclaimed if reclaim else None,
    }
