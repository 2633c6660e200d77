"""Corpus merge — union two encoded container stores WITHOUT
re-encoding anything.

At 100 TB, combining two separately-curated corpora must cost
O(partitions) metadata + hardlinks, not a decode->re-encode of either
side.  ``run_merge(dest_dir, src_dir)`` imports every completed
partition of ``src_dir`` into ``dest_dir`` as NEW ingest generations:

- src generation g (or the whole of a legacy single-plan src as one
  generation) becomes dest generation ``base + g`` where ``base`` is
  one past dest's highest generation — label tags stay disjoint by
  construction, so nothing in dest is ever touched or renamed.
- Partition labels re-tag deterministically: each label keeps its
  kind and ordinal and swaps its stem for the same source's stem
  under the new generation number (stages/partition describes the
  label scheme), so the bucket-ordinal arithmetic lookup_docs relies
  on keeps working on the merged store.  A src partition whose label
  no generation's plan attributes (``-x`` cross-generation compaction
  output) is refused loudly — merging it would break the "mixed
  containers never leak into snapshots" discipline.
- Container BYTES are not rewritten: files are hardlinked when the
  stores share a filesystem (copy fallback, atomically published).
  Manifest digests therefore stay valid — ``verify --mode manifest``
  is green on the merged store immediately.  Hardlinks are safe
  against later mutation of either store because every container
  rewrite in this repo (purge, compact, redact) publishes a new file
  through ``state.manifest.publishing``, whose rename swaps the inode
  instead of writing in place.
- Tombstones (logical deletes) carry over under the new labels: a
  takedown honored in src stays honored after the merge.
- plan.json is written LAST.  A crash mid-merge leaves only fully
  landed partitions (container rename, then manifest entry — the
  partition is the recovery unit, as everywhere in this store) whose
  labels the plan does not yet explain; re-running the merge skips
  landed partitions by digest and converges.  Snapshot reads refuse
  the unexplained labels until the plan lands — loud, not wrong.

Semantics: merge is a UNION, not a dedup — a doc_id present in both
stores yields two rows, exactly like interleaving two datasets;
run exact/near dedup upstream if that is not wanted.  Generational
lineage (shard files) is carried from src when it has one, so
generation-scoped exact/hash verify keeps working; a legacy
(run_encode) side contributes an OPAQUE generation — no file lineage —
on which only manifest verify and whole-corpus reads are possible,
and incremental encode refuses to extend the store (it cannot tell
appends from re-ingests without lineage).
"""

from __future__ import annotations

import json
import os
import shutil

from ..state.manifest import (
    JobDirs,
    publishing,
    read_manifest_entries,
    read_plan,
    read_tombstones,
    write_manifest_entry,
    write_plan,
    write_tombstones,
)
from ..stages.partition import (
    label_gen,
    label_owner,
    parse_label,
    part_label,
    plan_stems,
    source_stems,
)


def _gen_docs(plan: dict) -> list[dict]:
    """A plan's generation records, synthesizing one OPAQUE generation
    for a legacy run_encode plan (no file lineage)."""
    gens = plan.get("generations")
    if gens:
        return [dict(g) for g in gens]
    return [
        {
            "gen": 0,
            "buckets": dict(plan.get("buckets", {})),
            "source_tokens": dict(plan.get("source_tokens", {})),
            "target_partition_tokens": plan.get("target_partition_tokens"),
            "files": [],
            "sealed": True,
            "opaque": True,
        }
    ]


def _label_map(src_dir: str, src_gens: list[dict], base: int) -> dict[str, str]:
    """old part_id -> new part_id for every completed src partition.
    Raises on labels no generation's plan explains."""
    entries = read_manifest_entries(src_dir)
    gens = [(int(g["gen"]), g["buckets"]) for g in src_gens]
    stems = plan_stems(gens)
    retag: dict[str, str] = {}  # old stem -> same source's stem at gen + base
    for gen, buckets in gens:
        new = source_stems(base + gen, buckets)
        retag.update({stem: new[src] for src, stem in source_stems(gen, buckets).items()})
    out: dict[str, str] = {}
    unexplained: list[str] = []
    for pid, rec in sorted(entries.items()):
        if label_gen(pid, rec.get("source"), stems) is None:
            unexplained.append(pid)
        else:
            stem, kind, n = parse_label(pid)
            out[pid] = part_label(retag[stem], kind, n)
    if unexplained:
        raise RuntimeError(
            "merge refused: src partitions not attributable to any ingest "
            f"generation (e.g. --cross-gen compaction output): "
            f"{unexplained[:3]}{'...' if len(unexplained) > 3 else ''}. "
            "Rebuild or re-compact the source per-generation first."
        )
    return out


def run_drop_generation(out_dir: str, gen: int) -> dict:
    """Retire an ENTIRE ingest generation — the inverse of merge and
    the provenance-takedown op (drop everything that came from corpus
    X / ingest batch N without touching anything else).  Cost is
    O(partitions of that generation) unlinks — no decode, no shuffle,
    no rewrite of surviving data; at 100 TB this is the same
    metadata-only profile as merge itself.

    Safety rails: refuses a non-generational store, an unknown or
    unsealed generation, the LAST generation (delete the store
    directory instead — an empty generational plan is meaningless),
    and any store whose partition labels cannot all be attributed to
    generations (cross-generation compaction output: dropping by label
    would be guesswork there).

    Crash safety: per partition, the manifest entry is unlinked FIRST
    (readers stop serving it at that instant — the completion marker
    is the unit of truth everywhere in this store), then the
    container, tombstone file and annotation sidecars.  plan.json is
    rewritten LAST, so an interrupted drop leaves the generation
    listed with fewer partitions and a re-run converges (already-gone
    partitions simply aren't attributed anymore).  Dropped shards can
    be legitimately re-ingested later — the generation's file lineage
    leaves the plan with it."""
    plan = read_plan(out_dir)
    gens = plan.get("generations")
    if not gens:
        raise RuntimeError(
            f"{out_dir} has no generational plan (run_encode output); "
            "drop-generation needs ingest/merge lineage."
        )
    gen = int(gen)
    rec = next((g for g in gens if int(g["gen"]) == gen), None)
    if rec is None:
        raise ValueError(
            f"drop-generation: unknown generation {gen}; plan.json records "
            f"{sorted(int(g['gen']) for g in gens)}."
        )
    if not rec.get("sealed", True):
        raise RuntimeError(
            f"drop-generation refused: generation {gen} is unsealed (encode "
            "in progress or interrupted) — finish or reseal it first."
        )
    if len(gens) == 1:
        raise RuntimeError(
            "drop-generation refused: this is the store's last generation — "
            "delete the store directory instead."
        )
    from ..stages.decoder import label_generations

    gen_of = label_generations(out_dir)
    entries = read_manifest_entries(out_dir)
    unexplained = sorted(set(entries) - set(gen_of))
    if unexplained:
        raise RuntimeError(
            "drop-generation refused: partitions not attributable to any "
            f"generation (cross-generation compaction output): "
            f"{unexplained[:3]}{'...' if len(unexplained) > 3 else ''}."
        )
    victims = sorted(p for p, g in gen_of.items() if g == gen)

    from ..state.manifest import tombstone_path

    dirs = JobDirs(out_dir)
    ann_root = os.path.join(out_dir, "ann")
    ann_names = sorted(os.listdir(ann_root)) if os.path.isdir(ann_root) else []
    n_rows = sum(int(entries[p].get("n_rows", 0)) for p in victims)
    n_tokens = sum(int(entries[p].get("n_tokens", 0)) for p in victims)
    for pid in victims:
        os.unlink(dirs.manifest_path(pid))  # readers stop serving FIRST
        for path in (
            [dirs.container_path(pid), tombstone_path(out_dir, pid)]
            + [os.path.join(ann_root, nm, f"{pid}.parquet") for nm in ann_names]
        ):
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass

    # sidecar sweep by LABEL PATTERN, before the plan write: a crash
    # between a pid's manifest unlink and its sidecar unlinks leaves
    # orphan tombstone/ann files the per-pid loop can no longer find
    # (no manifest entry -> not attributed).  The gen's label space is
    # reconstructible from its own plan record, so sweep any
    # manifest-less sidecar matching it; a crash anywhere before the
    # plan write re-runs this whole path and converges.
    gen_stems = plan_stems([(gen, rec["buckets"])])
    victim_set = set(victims)

    def _of_gen(pid: str) -> bool:
        if pid in victim_set:
            return True  # re-sweep of a dropped pid's sidecars: no-op
        return pid not in entries and label_owner(pid, gen_stems) is not None

    for root, suffix in (
        [(os.path.join(out_dir, "deletes"), ".json")]
        + [(os.path.join(ann_root, nm), ".parquet") for nm in ann_names]
    ):
        if not os.path.isdir(root):
            continue
        for fn in os.listdir(root):
            if fn.endswith(suffix) and _of_gen(fn[: -len(suffix)]):
                try:
                    os.unlink(os.path.join(root, fn))
                except FileNotFoundError:
                    pass

    new_gens = [g for g in gens if int(g["gen"]) != gen]
    write_plan(out_dir, {
        "buckets": dict(new_gens[0]["buckets"]),
        "source_tokens": dict(new_gens[0]["source_tokens"]),
        "target_partition_tokens": plan.get("target_partition_tokens"),
        "generations": new_gens,
    })
    return {
        "ok": True,
        "dropped_generation": gen,
        "dropped_partitions": len(victims),
        "n_rows": int(n_rows),
        "n_tokens": int(n_tokens),
        "remaining_generations": sorted(int(g["gen"]) for g in new_gens),
    }


def _check_vocab_compat(dest_dir: str, src_dir: str) -> None:
    """Document-ingested stores (pipelines/ingest_job.py) bake token
    ids that only decode against THEIR vocab.json.  Merging two stores
    whose vocabularies differ — or an ingested store into a plain
    tokseq store — would silently mix incompatible id spaces; refuse
    and point at the re-tokenize path instead."""

    def vocab_of(d: str):
        p = os.path.join(d, "vocab.json")
        if not os.path.exists(p):
            return None
        with open(p) as f:
            return json.load(f)

    dv, sv = vocab_of(dest_dir), vocab_of(src_dir)
    if dv is None and sv is None:
        return
    if dv != sv:
        raise RuntimeError(
            "merge refused: the stores' token id spaces are incompatible "
            f"(dest vocab: {'absent' if dv is None else len(dv)} words, "
            f"src vocab: {'absent' if sv is None else len(sv)} words, "
            "unequal). Remap one side into the other's id space first: "
            "`remap-vocab SRC --out SRC_REMAPPED --vocab DEST` "
            "(pipelines/remap_job.py — one integer gather per token, no "
            "string round-trip), then merge the remapped store."
        )


def _place_container(src_path: str, dst_path: str) -> str:
    """Hardlink src -> dst (same filesystem: zero bytes moved); copy
    through ``publishing`` otherwise.  Returns 'link' or 'copy'."""
    try:
        os.link(src_path, dst_path)
        return "link"
    except OSError:
        with publishing(dst_path) as tmp:
            shutil.copy2(src_path, tmp)
        return "copy"


def _prior_base(dest_gens: list[dict], src_gens: list[dict], src_abs: str):
    """If ``src_abs`` was merged into dest before, the generation base
    that merge used (so a re-run maps to the SAME labels and digest-
    skips) plus the src generations not yet present (src extended by
    encode-inc since).  None when no prior merge is recognizable.

    Raises when the prior merge is recognizable but a NEW src
    generation's number is already taken by unrelated data (dest moved
    on after the merge) — re-importing everything under a fresh base
    would silently duplicate the previously merged rows."""

    def match(dg: dict, sg: dict) -> bool:
        return (
            dg.get("merged_from") == src_abs
            and dg.get("buckets") == sg.get("buckets")
            and dg.get("source_tokens") == sg.get("source_tokens")
        )

    by_gen = {int(g["gen"]): g for g in dest_gens}
    first = src_gens[0]
    for dg in dest_gens:
        b = int(dg["gen"]) - int(first["gen"])
        if b < 0 or not match(dg, first):
            continue
        new: list[dict] = []
        matched = 0
        for sg in src_gens:
            got = by_gen.get(b + int(sg["gen"]))
            if got is None:
                new.append(sg)
            elif match(got, sg):
                matched += 1
            else:
                if matched:
                    raise RuntimeError(
                        "merge refused: src grew since its last merge, but "
                        f"dest generation {b + int(sg['gen'])} now holds "
                        "unrelated data — merge the growth into a store "
                        "that has not moved on, or re-encode."
                    )
                break
        else:
            if matched:
                return b, new
    return None


def _live_chunks(dest_dir: str, pid: str, with_doc_id: bool):
    """Stream a partition's decoded chunks projected to (n_tok, tokens
    [, doc_id]) with tombstoned rows filtered out — the per-container
    read both merge-dedup variants share."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..stages.decoder import iter_partition_chunks

    dirs = JobDirs(dest_dir)
    cols = ["doc_id", "n_tok", "tokens"] if with_doc_id else ["n_tok", "tokens"]
    tomb = read_tombstones(dest_dir, pid)
    cols_p = cols if (not tomb or "doc_id" in cols) else cols + ["doc_id"]
    for t in iter_partition_chunks(dirs.container_path(pid), cols_p):
        if tomb:
            keep = pc.invert(pc.is_in(
                t.column("doc_id"),
                value_set=pa.array(sorted(tomb), type=pa.string()),
            ))
            t = t.filter(keep)
        yield t


def _tombstone_dups(dest_dir: str, dups) -> dict:
    """(doc_id, pid) duplicate rows -> per-partition tombstone files,
    one write task per affected partition (distinct files, no write
    conflicts); summary is O(partitions)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if dups.schema() is None:
        # all-empty duplicate stream (e.g. the left side itself was
        # schema-less): nothing to tombstone
        return {"duplicates_tombstoned": 0, "partitions_tombstoned": 0}

    def tombstone_group(group: pa.Table) -> pa.Table:
        pid = group.column("pid")[0].as_py()
        ids = pc.unique(group.column("doc_id").combine_chunks()).to_pylist()
        write_tombstones(dest_dir, pid, ids)
        return pa.table({"pid": [pid], "n": [len(ids)]})

    summary = (
        dups.groupby("pid")
        .map_groups(tombstone_group, batch_format="pyarrow")
        .to_pandas()
    )
    return {
        "duplicates_tombstoned": int(summary["n"].sum()) if len(summary) else 0,
        "partitions_tombstoned": int(len(summary)),
    }


def _dedup_against_dest(dest_dir: str, new_pids: set, old_pids: set) -> dict:
    """Cross-store exact dedup for ``run_merge(dedup="exact")``:
    tombstone every row of the NEW partitions whose token sequence
    already exists in the OLD partitions (the continuous-crawl ingest
    case — don't re-add what the corpus already holds).

    Scale shape: both sides stream one decode task per container
    projecting only (n_tok, tokens[, doc_id]); the only thing that
    crosses the exchange is (content_hash[, doc_id, pid]) — ~8-40
    B/row, never the payload — through the key-only semi hash_join.
    Tombstone files are written by one task per affected partition
    (distinct files, no write conflicts).  Identity is the TOKEN
    SEQUENCE alone (see token_content_hashes: a re-crawled dup with a
    fresh doc_id/source still collides; 64-bit hash, false-collision
    odds documented there).  Intra-src duplicates are NOT touched —
    run exact_dedup upstream for those.  Already-tombstoned rows on
    either side are excluded (a deleted dest doc does not block its
    own re-ingest; a deleted src doc stays deleted)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from ..functions.dedup import token_content_hashes
    from ..functions.joins import hash_join
    from ..stages.decoder import iter_partition_chunks

    if not old_pids or not new_pids:
        return {"duplicates_tombstoned": 0, "partitions_tombstoned": 0}

    def old_hashes(batch: pa.Table):
        for pid in batch.column("pid").to_pylist():
            for t in _live_chunks(dest_dir, pid, with_doc_id=False):
                h = token_content_hashes(t)
                yield pa.table({"content_hash": pa.array(h.view(np.int64))})

    def new_hashes(batch: pa.Table):
        # NOTE: when every row is tombstoned (fully-dup re-run) this
        # yields nothing and Ray leaves the dataset schema-less —
        # hash_join and _tombstone_dups resolve that degenerate case
        for pid in batch.column("pid").to_pylist():
            for t in _live_chunks(dest_dir, pid, with_doc_id=True):
                h = token_content_hashes(t)
                yield pa.table({
                    "content_hash": pa.array(h.view(np.int64)),
                    "doc_id": pc.cast(t.column("doc_id"), pa.string()),
                    "pid": pa.array([pid] * t.num_rows, type=pa.string()),
                })

    left = rd.from_items([{"pid": p} for p in sorted(new_pids)]).map_batches(
        new_hashes, batch_format="pyarrow"
    )
    right = rd.from_items([{"pid": p} for p in sorted(old_pids)]).map_batches(
        old_hashes, batch_format="pyarrow"
    )
    dups = hash_join(
        left, right, left_on="content_hash", right_on="content_hash",
        right_cols=[], mode="semi",
    )
    return _tombstone_dups(dest_dir, dups)


def _near_dedup_against_dest(dest_dir: str, new_pids: set, old_pids: set, *,
                             threshold: float = 0.7, num_perm: int = 64,
                             bands: int = 16, shingle_k: int = 3,
                             seed: int = 1) -> dict:
    """Cross-store NEAR dedup for ``run_merge(dedup="minhash")``:
    tombstone every imported row whose token-shingle MinHash signature
    agrees with some pre-merge row's on >= ``threshold`` of the
    permutations (the standard biased Jaccard estimate) — the crawl
    re-fetch with boilerplate drift that exact hashing misses.

    Scale shape mirrors the within-store minhash_dedup: one decode
    task per container computes signatures over token-id k-gram
    shingles (_token_kgram_hashes — ids are cross-store comparable by
    merge's vocab contract), only (doc_id, band_key, sig, side, pid)
    rows cross the exchange, and _banded_pairs touches exclusively the
    band buckets where BOTH stores collide (the LSH premise keeps
    those rare).  Asymmetric by construction: only NEW rows are
    tombstoned, dest is never touched; intra-src near-dups survive
    (run minhash_dedup upstream for those).  Docs with fewer than
    ``shingle_k`` tokens carry no shingles and are never near-dropped
    (their all-sentinel signatures would otherwise declare every short
    doc a duplicate of every other) — exact dedup covers them."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from ..functions.dedup import MinHasher, _banded_pairs

    if not old_pids or not new_pids:
        return {"duplicates_tombstoned": 0, "partitions_tombstoned": 0}

    mh = MinHasher(num_perm=num_perm, bands=bands, shingle_k=shingle_k, seed=seed)
    n_bands = mh.bands

    def band_rows(batch: pa.Table):
        for pid, side in zip(batch.column("pid").to_pylist(),
                             batch.column("side").to_pylist()):
            for t in _live_chunks(dest_dir, pid, with_doc_id=True):
                sig, n_sh = mh.token_signatures(t.column("tokens"))
                keep = n_sh > 0
                if not keep.any():
                    continue
                sig = sig[keep]
                keys = mh.band_keys(sig)  # (n, bands) int64
                doc_id = pc.cast(t.column("doc_id"), pa.string())
                if isinstance(doc_id, pa.ChunkedArray):
                    doc_id = doc_id.combine_chunks()
                doc_id = doc_id.filter(pa.array(keep))
                n = len(doc_id)
                sig_bytes = [sig[i].tobytes() for i in range(n)]
                yield pa.table({
                    "doc_id": pa.concat_arrays([doc_id] * n_bands),
                    "band_key": pa.array(keys.T.ravel()),  # band-major
                    "sig": pa.array(sig_bytes * n_bands, type=pa.binary()),
                    "side": pa.array([side] * (n * n_bands), type=pa.int8()),
                    "pid": pa.array([pid] * (n * n_bands), type=pa.string()),
                })

    _EMPTY = pa.schema([("doc_id", pa.string()), ("pid", pa.string())])

    def cross_pairs(group: pa.Table) -> pa.Table:
        side = group.column("side").to_numpy(zero_copy_only=False)
        new_idx = np.flatnonzero(side == 1)
        old_idx = np.flatnonzero(side == 0)
        if len(new_idx) == 0 or len(old_idx) == 0:
            return pa.Table.from_pydict({"doc_id": [], "pid": []}, schema=_EMPTY)
        raw = b"".join(group.column("sig").to_pylist())
        sigs = np.frombuffer(raw, dtype=np.uint64).reshape(group.num_rows, num_perm)
        hit = np.zeros(len(new_idx), dtype=bool)
        # tile the old side so peak memory stays bounded in hot buckets
        for o0 in range(0, len(old_idx), 1024):
            osl = old_idx[o0 : o0 + 1024]
            est = (sigs[new_idx][:, None, :] == sigs[osl][None, :, :]).mean(axis=2)
            hit |= (est >= threshold).any(axis=1)
        sel = pa.array(new_idx[hit].astype(np.int64))
        return pa.Table.from_arrays(
            [group.column("doc_id").take(sel), group.column("pid").take(sel)],
            schema=_EMPTY,
        )

    exploded = rd.from_items(
        [{"pid": p, "side": 0} for p in sorted(old_pids)]
        + [{"pid": p, "side": 1} for p in sorted(new_pids)]
    ).map_batches(band_rows, batch_format="pyarrow")
    if exploded.schema() is None:
        # every row tombstoned or sub-shingle on both sides: Ray drops
        # empty batches, leaving a schema-less dataset the banded
        # groupby cannot type — and there is nothing to dedup anyway
        return {"duplicates_tombstoned": 0, "partitions_tombstoned": 0}
    dups = _banded_pairs(exploded, cross_pairs)
    return _tombstone_dups(dest_dir, dups)


def run_merge(dest_dir: str, src_dir: str, dedup: str | None = None,
              dedup_threshold: float = 0.7) -> dict:
    """Import every completed partition of ``src_dir`` into
    ``dest_dir`` as new ingest generations.  Idempotent: a re-run (or
    a crash-interrupted run re-run) skips partitions already landed
    with the same digest and refuses on digest conflicts.

    ``dedup="exact"`` additionally tombstones every imported row whose
    token sequence already exists in the pre-merge corpus (see
    _dedup_against_dest) — merge stays a cheap hardlink union, the
    duplicates are dropped logically and reclaimed by ``run_purge``.
    ``dedup="minhash"`` does the NEAR variant: imported rows whose
    token-shingle MinHash agreement with some pre-merge row reaches
    ``dedup_threshold`` (see _near_dedup_against_dest)."""
    if dedup not in (None, "exact", "minhash"):
        raise ValueError(f"run_merge: unknown dedup mode {dedup!r}")
    if os.path.realpath(dest_dir) == os.path.realpath(src_dir):
        raise ValueError("merge: dest and src are the same directory")
    dest_plan = read_plan(dest_dir)  # FileNotFoundError: not an encode dir
    src_plan = read_plan(src_dir)
    _check_vocab_compat(dest_dir, src_dir)
    dest_gens = _gen_docs(dest_plan)
    src_gens = _gen_docs(src_plan)
    for g in src_gens:
        if not g.get("sealed", True):
            raise RuntimeError(
                f"merge refused: src generation {g['gen']} is unsealed "
                "(encode in progress or interrupted) — finish or reseal it "
                "first (run_encode_files on the same inputs resumes it)."
            )
    src_abs = os.path.abspath(src_dir)
    prior = _prior_base(dest_gens, src_gens, src_abs)
    if prior is not None:
        base, gens_to_add = prior  # re-run / src-growth: same labels
    else:
        base = max(int(g["gen"]) for g in dest_gens) + 1
        gens_to_add = src_gens

    lbl = _label_map(src_dir, src_gens, base)
    src_entries = read_manifest_entries(src_dir)
    dest_entries = read_manifest_entries(dest_dir)

    sdirs, ddirs = JobDirs(src_dir), JobDirs(dest_dir)
    ddirs.create()
    landed = skipped = 0
    linked = True
    for old, new in sorted(lbl.items()):
        rec = dict(src_entries[old])
        if new in dest_entries:
            if dest_entries[new].get("digest") == rec.get("digest"):
                skipped += 1  # resume: this partition already landed
                continue
            raise RuntimeError(
                f"merge refused: dest already has partition {new} with a "
                "different digest — label collision with unrelated data."
            )
        dst_path = ddirs.container_path(new)
        if not os.path.exists(dst_path):
            how = _place_container(sdirs.container_path(old), dst_path)
            linked = linked and how == "link"
        tomb = read_tombstones(src_dir, old)
        if tomb:
            write_tombstones(dest_dir, new, sorted(tomb))
        rec["part_id"] = new
        rec["merged_from"] = os.path.abspath(src_dir)
        write_manifest_entry(ddirs, new, rec)  # landing marker, written last
        landed += 1

    # plan lands LAST: the merge is complete (and its labels
    # generation-attributable) only once this write happens.  A pure
    # re-run (nothing to add) leaves the plan untouched.
    new_gens = sorted(
        dest_gens
        + [
            {
                **g,
                "gen": base + int(g["gen"]),
                "sealed": True,
                "merged_from": src_abs,
            }
            for g in gens_to_add
        ],
        key=lambda g: int(g["gen"]),
    )
    if gens_to_add:
        doc = {
            "buckets": dict(new_gens[0]["buckets"]),
            "source_tokens": dict(new_gens[0]["source_tokens"]),
            "target_partition_tokens": dest_plan.get("target_partition_tokens"),
            "generations": new_gens,
        }
        write_plan(dest_dir, doc)

    dedup_stats = {}
    if dedup == "exact":
        dedup_stats = _dedup_against_dest(
            dest_dir,
            new_pids=set(lbl.values()),
            old_pids=set(dest_entries) - set(lbl.values()),
        )
    elif dedup == "minhash":
        dedup_stats = _near_dedup_against_dest(
            dest_dir,
            new_pids=set(lbl.values()),
            old_pids=set(dest_entries) - set(lbl.values()),
            threshold=dedup_threshold,
        )

    n_rows = sum(int(src_entries[o].get("n_rows", 0)) for o in lbl)
    n_tokens = sum(int(src_entries[o].get("n_tokens", 0)) for o in lbl)
    return {
        **dedup_stats,
        "ok": True,
        "merged_partitions": landed,
        "skipped_partitions": skipped,
        "generations_added": len(gens_to_add),
        "first_new_generation": base,
        "n_rows": int(n_rows),
        "n_tokens": int(n_tokens),
        "hardlinked": bool(linked and landed > 0),
        "opaque_lineage": any(g.get("opaque") for g in new_gens),
    }
