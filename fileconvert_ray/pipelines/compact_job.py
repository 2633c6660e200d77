"""Container compaction — the table-maintenance op every incremental
encode pipeline needs at scale: resumed / appended runs leave many
small partitions, and small containers waste read IOPS and manifest
entries.  Compaction rewrites groups of small same-source partitions
into target-size containers, re-running the codec auto-selector over
the larger value blocks (which usually also shrinks bytes: dictionaries
and rANS tables amortize over more values).

Crash-safety protocol (per compaction group, executed by one task):

    1. intent record  compact/{new_id}.json  {"olds": [...]}  (atomic)
    2. new container + manifest via the normal PartitionWriter path
       (tmp+rename, manifest line LAST, digest + zones included)
    3. delete old MANIFEST entries, then old containers
    4. delete the intent record

Old manifests are removed only after the new manifest exists, so the
completed-partition set never loses rows.  A crash between 2 and 3
leaves both old and new manifests; ``recover_compaction`` replays the
intent records on startup: new manifest present -> finish (delete
olds), absent -> roll back (delete any half-written new container).
Compaction is an offline maintenance pass — readers should not overlap
the rewrite window (same contract as Parquet rewrites without snapshot
isolation).
"""

from __future__ import annotations

import json
import os

import pyarrow as pa

from ..state.manifest import JobDirs, publishing, read_manifest_entries, record_names


def _intent_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "compact")


def plan_compaction(
    out_dir: str, target_tokens: int, *, preserve_generations: bool = True
) -> list[dict]:
    """Greedy first-fit in part_id order, per (source, ingest
    generation): pack partitions smaller than the target into groups
    summing to ~target.  Groups of one are dropped (nothing to
    rewrite).  O(partitions) driver work.

    ``preserve_generations`` (default): each group stays WITHIN one
    ingest generation and the output gets that (source, generation)'s
    ``-c`` label, so snapshot reads (``decode_dataset(max_gen=...)``)
    keep working across compaction — the merged rows are still exactly
    that generation's rows.  Pass ``preserve_generations=False`` to
    pack across generations (fewer, fuller groups when many
    generations are each tiny) at the documented cost: snapshot reads
    refuse afterwards.  Groups that mix or lack a generation —
    cross-gen mode, labels no plan attributes, plan.json absent — get
    a ``-x`` label, which is never attributed, so a mixed container
    can never silently leak into a pinned snapshot (stages/partition
    describes the label scheme).

    Partitions carrying tombstones (pipelines.delete_job logical
    deletes) are EXCLUDED: compaction rewrites physical rows under a
    new label the tombstone file no longer matches, which would
    resurrect deleted docs — run_purge first, then compact."""
    from ..stages.decoder import label_generations
    from ..stages.partition import cross_gen_stem, part_label, plan_stems
    from ..state.manifest import read_plan_generations, tombstoned_partitions

    entries = read_manifest_entries(out_dir)
    tombstoned = set(tombstoned_partitions(out_dir))
    gen_of: dict[str, int] = {}
    stem_of: dict[tuple[str, int], str] = {}  # (source, gen) -> label stem
    if preserve_generations:
        try:
            gen_of = label_generations(out_dir)
            stem_of = {
                (src, gen): stem
                for stem, (gen, src, _k) in plan_stems(read_plan_generations(out_dir)).items()
            }
        except FileNotFoundError:
            pass  # no plan: everything packs per source, legacy naming

    # group key = (source, generation); None = unattributable/legacy
    by_key: dict[tuple[str, int | None], list[tuple[str, int]]] = {}
    for pid, rec in sorted(entries.items()):
        if pid in tombstoned:
            continue
        if rec.get("n_tokens", 0) < target_tokens:
            key = (rec["source"], gen_of.get(pid) if preserve_generations else None)
            by_key.setdefault(key, []).append((pid, int(rec["n_tokens"])))

    taken = set(entries)  # a re-run must not collide with surviving ids

    def new_gid(source: str, gen: int | None, idx: int) -> tuple[str, int]:
        stem, kind = (
            (stem_of[(source, gen)], "c") if gen is not None else (cross_gen_stem(source), "x")
        )
        while part_label(stem, kind, idx) in taken:
            idx += 1
        gid = part_label(stem, kind, idx)
        taken.add(gid)
        return gid, idx + 1

    groups = []
    for (source, gen), parts in sorted(
        by_key.items(), key=lambda kv: (kv[0][0], -1 if kv[0][1] is None else kv[0][1])
    ):
        cur: list[str] = []
        cur_tok = 0
        idx = 0
        for pid, ntok in parts:
            if cur and cur_tok + ntok > target_tokens:
                if len(cur) > 1:
                    gid, idx = new_gid(source, gen, idx)
                    groups.append({"source": source, "olds": cur, "gid": gid})
                cur, cur_tok = [], 0
            cur.append(pid)
            cur_tok += ntok
        if len(cur) > 1:
            gid, idx = new_gid(source, gen, idx)
            groups.append({"source": source, "olds": cur, "gid": gid})
    return groups


def compact_group(out_dir: str, group: dict, *, zstd: bool = True) -> pa.Table:
    """Rewrite one compaction group; returns the new partition's
    metrics row.  Runs the full intent -> write -> swap -> clear
    protocol documented above."""
    from ..stages.decoder import read_partition
    from ..stages.encoder import PartitionWriter

    dirs = JobDirs(out_dir)
    os.makedirs(_intent_dir(out_dir), exist_ok=True)
    intent_path = os.path.join(_intent_dir(out_dir), f"{group['gid']}.json")
    with publishing(intent_path) as tmp, open(tmp, "wb") as f:
        f.write(json.dumps({"olds": group["olds"]}).encode())

    decoded = pa.concat_tables(
        [read_partition(dirs.container_path(pid)) for pid in group["olds"]]
    ).combine_chunks()
    writer = PartitionWriter(out_dir, zstd=zstd)
    metrics = writer.finalize_raw(decoded, group["gid"], group["source"])

    for pid in group["olds"]:
        os.unlink(dirs.manifest_path(pid))
    for pid in group["olds"]:
        os.unlink(dirs.container_path(pid))
    os.unlink(intent_path)
    return metrics


def recover_compaction(out_dir: str) -> dict:
    """Replay interrupted compactions; returns {finished, rolled_back}."""
    dirs = JobDirs(out_dir)
    idir = _intent_dir(out_dir)
    finished = rolled_back = 0
    for gid in sorted(record_names(idir)):
        intent_path = os.path.join(idir, f"{gid}.json")
        with open(intent_path, "rb") as fh:
            olds = json.loads(fh.read())["olds"]
        if os.path.exists(dirs.manifest_path(gid)):
            # new partition landed: finish the swap
            for pid in olds:
                for p in (dirs.manifest_path(pid), dirs.container_path(pid)):
                    if os.path.exists(p):
                        os.unlink(p)
            finished += 1
        else:
            # roll back: olds are still the completed truth
            if os.path.exists(dirs.container_path(gid)):
                os.unlink(dirs.container_path(gid))
            rolled_back += 1
        os.unlink(intent_path)
    return {"finished": finished, "rolled_back": rolled_back}


def run_compact(
    out_dir: str,
    target_tokens: int,
    *,
    zstd: bool = True,
    preserve_generations: bool = True,
):
    """Compact all small partitions under out_dir; one Ray task per
    compaction group (each group's I/O is independent — the scheduler
    spreads groups across the cluster; no shuffle, the data moves
    exactly once per rewritten partition).  By default groups stay
    within one ingest generation so snapshot reads survive (see
    plan_compaction).  Returns the metrics Dataset for the rewritten
    partitions (0 rows = nothing to do)."""
    import ray.data as rd

    recover_compaction(out_dir)
    groups = plan_compaction(
        out_dir, target_tokens, preserve_generations=preserve_generations
    )
    if not groups:
        from ..stages.encoder import PartitionWriter

        return rd.from_arrow(
            pa.Table.from_pydict(
                {f.name: [] for f in PartitionWriter.METRICS_SCHEMA},
                schema=PartitionWriter.METRICS_SCHEMA,
            )
        )

    def rewrite(batch: pa.Table):
        for row in batch.to_pylist():
            yield compact_group(out_dir, json.loads(row["spec"]), zstd=zstd)

    return rd.from_items([{"spec": json.dumps(g)} for g in groups]).map_batches(
        rewrite, batch_format="pyarrow", batch_size=1
    )
