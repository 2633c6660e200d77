"""Checkpoint manifest + resume (SURVEY.md §2.2 E6/E7, §4.2).

Layout under an encode job's output dir:

    out_dir/
      plan.json                 # bucket plan + config echo (deterministic)
      parts/{part_id}.parquet   # encoded container, written atomically
      manifest/{part_id}.json   # lineage record, written LAST (atomic)
      tmp/                      # tmp files of container publishes

A partition is complete iff its manifest file exists; the container
rename always precedes the manifest rename, so a crash between the
two re-encodes the partition idempotently (same part_id -> same
bytes).  Resume = list manifest dir once on the driver, broadcast the
done-set, drop those rows before the shuffle — partition granularity,
O(partitions) driver work.
"""

from __future__ import annotations

import contextlib
import json
import os
import uuid


@contextlib.contextmanager
def publishing(dst: str, tmp_dir: str | None = None):
    """The one atomic-publish primitive: every file this engine makes
    visible under its final name goes through here.

        with publishing(dst) as tmp, open(tmp, "wb") as f:
            f.write(data)

    Yields ``{tmp_dir or dirname(dst)}/.{basename(dst)}.tmp-{hex}``.
    The name ends in hex, so a crash leftover never matches a reader's
    ``.json`` / ``.parquet`` / ``.arrow`` listing.  On normal exit the
    tmp file is fsynced and then ``os.replace``d onto ``dst`` (the
    data is durable before any name points at it); if the body, the
    fsync or the rename raises, the tmp file is removed and the error
    re-raised.  ``tmp_dir`` must be on ``dst``'s filesystem."""
    tmp = os.path.join(
        tmp_dir or os.path.dirname(dst),
        f".{os.path.basename(dst)}.tmp-{uuid.uuid4().hex}",
    )
    try:
        yield tmp
        with open(tmp, "rb") as f:
            os.fsync(f.fileno())
        os.replace(tmp, dst)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


class JobDirs:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.parts = os.path.join(out_dir, "parts")
        self.manifest = os.path.join(out_dir, "manifest")
        self.tmp = os.path.join(out_dir, "tmp")
        # map-side shuffle output: one file per map task, one row group
        # per partition inside — the reduce side fetches only its row
        # groups (external shuffle; shared storage on a real cluster)
        self.staged = os.path.join(out_dir, "staged")

    def create(self) -> "JobDirs":
        for d in (self.parts, self.manifest, self.tmp, self.staged):
            os.makedirs(d, exist_ok=True)
        return self

    def container_path(self, part_id: str) -> str:
        return os.path.join(self.parts, f"{part_id}.parquet")

    def manifest_path(self, part_id: str) -> str:
        return os.path.join(self.manifest, f"{part_id}.json")


def write_plan(out_dir: str, plan: dict) -> None:
    with publishing(os.path.join(out_dir, "plan.json")) as tmp, open(tmp, "wb") as f:
        f.write(json.dumps(plan, sort_keys=True).encode())


def read_plan(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "plan.json"), "rb") as f:
        return json.loads(f.read())


def read_plan_generations(out_dir: str) -> list[tuple[int, dict]]:
    """[(gen, {source: bucket_count})] for this output dir, oldest
    first.  A legacy single-plan job (run_encode — no ``generations``
    key) reads as one generation 0; incremental jobs
    (run_encode_files) record one entry per ingest generation.
    Raises FileNotFoundError when plan.json is absent."""
    plan = read_plan(out_dir)
    gens = plan.get("generations")
    if gens:
        return [(int(g["gen"]), dict(g["buckets"])) for g in gens]
    return [(0, dict(plan.get("buckets", {})))]


def write_manifest_entry(dirs: JobDirs, part_id: str, record: dict) -> None:
    """Lineage record — written only after the container rename landed."""
    with publishing(dirs.manifest_path(part_id)) as tmp, open(tmp, "wb") as f:
        f.write(json.dumps(record, sort_keys=True).encode())


def record_names(d: str) -> list[str]:
    """Names of the ``{name}.json`` records in directory ``d`` (manifest
    entries, tombstones, compaction intents), unsorted; [] when ``d`` is
    absent.  Dot-names are skipped: they are publish leftovers, both
    ``publishing``'s and the older ``.tmp-{hex}-{name}.json`` form."""
    if not os.path.isdir(d):
        return []
    return [f[:-5] for f in os.listdir(d) if f.endswith(".json") and not f.startswith(".")]


def completed_partitions(out_dir: str) -> set[str]:
    return set(record_names(os.path.join(out_dir, "manifest")))


def read_manifest_entries(out_dir: str) -> dict[str, dict]:
    out = {}
    mdir = os.path.join(out_dir, "manifest")
    for name in record_names(mdir):
        with open(os.path.join(mdir, f"{name}.json"), "rb") as fh:
            out[name] = json.loads(fh.read())
    return out


# ------------------------------------------------------ tombstones
#
# Logical deletes (takedown / right-to-erasure over an encoded
# corpus): out_dir/deletes/{part_id}.json holds the sorted doc_ids
# deleted FROM THAT PARTITION.  Tombstones are per-partition, not a
# global list, so a reader's filter cost is O(deleted-in-partition)
# and a 100-TB corpus with a million-id takedown never ships one big
# set to every decode task — each container loads only its own file
# (usually absent: one os.path.exists per container).  Writes are
# atomic and MERGE with the existing file, so repeated deletes
# accumulate.  Physical removal is pipelines.delete_job.run_purge.


def tombstone_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "deletes")


def tombstone_path(out_dir: str, part_id: str) -> str:
    return os.path.join(tombstone_dir(out_dir), f"{part_id}.json")


def read_tombstones(out_dir: str, part_id: str) -> frozenset[str] | None:
    """Deleted doc_ids for one partition, or None when the partition
    has no tombstone file (the overwhelmingly common case)."""
    try:
        with open(tombstone_path(out_dir, part_id), "rb") as f:
            return frozenset(json.loads(f.read())["doc_ids"])
    except FileNotFoundError:
        return None


def write_tombstones(out_dir: str, part_id: str, doc_ids) -> int:
    """Merge doc_ids into the partition's tombstone file (atomic).
    Returns the merged count."""
    merged = set(read_tombstones(out_dir, part_id) or ()) | {str(d) for d in doc_ids}
    os.makedirs(tombstone_dir(out_dir), exist_ok=True)
    with publishing(tombstone_path(out_dir, part_id)) as tmp, open(tmp, "wb") as f:
        f.write(json.dumps({"doc_ids": sorted(merged)}, sort_keys=True).encode())
    return len(merged)


def clear_tombstones(out_dir: str, part_id: str) -> None:
    try:
        os.unlink(tombstone_path(out_dir, part_id))
    except FileNotFoundError:
        pass


def tombstoned_partitions(out_dir: str) -> list[str]:
    """part_ids that currently carry a tombstone file, sorted."""
    return sorted(record_names(tombstone_dir(out_dir)))
