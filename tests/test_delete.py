"""Tombstone deletes + physical purge (pipelines/delete_job.py).

Covers the full merge-on-read lifecycle: logical delete filters every
reader immediately; purge physically rewrites in place under the same
part_id; all-deleted partitions drop entirely; re-runs converge
(tombstone = intent record); compaction refuses tombstoned partitions.
"""

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from fileconvert_ray.pipelines.delete_job import purge_partition, run_delete, run_purge
from fileconvert_ray.pipelines.encode_job import EncodeConfig, run_encode
from fileconvert_ray.sources.tokseq import tokseq_dataset, tokseq_table
from fileconvert_ray.stages.decoder import decode_dataset, lookup_docs
from fileconvert_ray.state.manifest import (
    JobDirs,
    read_manifest_entries,
    read_tombstones,
    tombstoned_partitions,
    write_tombstones,
)


@pytest.fixture
def encoded(ray_session, sf_dir, tmp_path):
    out = str(tmp_path / "enc")
    run_encode(
        lambda: tokseq_dataset(sf_dir),
        EncodeConfig(out_dir=out, target_partition_tokens=5_000),
    ).materialize()
    return out


def _decoded_ids(out_dir, **kw) -> set:
    t = decode_dataset(out_dir, **kw).to_pandas()
    return set(t["doc_id"].astype(str))


def test_delete_filters_all_readers(encoded, sf_dir):
    full = tokseq_table(sf_dir)
    all_ids = [str(d) for d in full.column("doc_id").to_pylist()]
    victims = sorted(all_ids)[::7]  # every 7th id, deterministic
    res = run_delete(encoded, victims)
    assert res["requested"] == len(set(victims))
    assert res["found"] == len(set(victims))  # all exist in the corpus
    assert res["partitions"] >= 1

    # decode_dataset excludes them
    left = _decoded_ids(encoded)
    assert left == set(all_ids) - set(victims)

    # projected decode (no doc_id in the projection) excludes them too
    n = decode_dataset(encoded, columns=["n_tok"]).count()
    assert n == len(all_ids) - len(set(victims))
    # and the projection still excludes doc_id from the output schema
    t = decode_dataset(encoded, columns=["n_tok"]).take_batch(5, batch_format="pyarrow")
    assert t.column_names == ["n_tok"]

    # lookup_docs: a tombstoned id returns nothing, a survivor returns
    survivor = sorted(set(all_ids) - set(victims))[0]
    assert lookup_docs(encoded, [victims[0]]).num_rows == 0
    got = lookup_docs(encoded, [survivor])
    assert got.num_rows == 1
    assert got.column("doc_id")[0].as_py() == survivor


def test_delete_missing_ids_found_zero(encoded):
    res = run_delete(encoded, ["no-such-doc-1", "no-such-doc-2"])
    assert res["requested"] == 2
    assert res["found"] == 0
    assert tombstoned_partitions(encoded) == []


def test_purge_physically_removes_and_converges(encoded, sf_dir):
    full = tokseq_table(sf_dir)
    all_ids = [str(d) for d in full.column("doc_id").to_pylist()]
    victims = sorted(all_ids)[:40]
    run_delete(encoded, victims)
    before = read_manifest_entries(encoded)

    summary = run_purge(encoded).to_pandas()
    assert set(summary["action"]) <= {"rewritten", "dropped", "noop", "orphan_cleared"}
    assert tombstoned_partitions(encoded) == []

    # decoded view identical to the logical view pre-purge
    assert _decoded_ids(encoded) == set(all_ids) - set(victims)

    # rows physically gone: manifest row counts shrank by the victims
    after = read_manifest_entries(encoded)
    assert sum(e["n_rows"] for e in after.values()) == len(all_ids) - len(victims)
    # rewritten partitions kept their part_id (routing preserved)
    assert set(after) <= set(before)

    # values survive bit-identically: every surviving row equals input
    dec = decode_dataset(encoded).to_pandas().sort_values("doc_id").reset_index(drop=True)
    inp = full.to_pandas()
    inp = inp[~inp["doc_id"].astype(str).isin(victims)].sort_values("doc_id").reset_index(drop=True)
    assert (dec["doc_id"].astype(str) == inp["doc_id"].astype(str)).all()
    assert all(np.array_equal(a, b) for a, b in zip(dec["tokens"], inp["tokens"]))

    # purge re-run is a no-op
    assert run_purge(encoded).count() == 0

    # lookup after purge: victims gone, survivors found (label
    # arithmetic still holds because part_ids were preserved)
    survivor = sorted(set(all_ids) - set(victims))[-1]
    assert lookup_docs(encoded, [victims[0]]).num_rows == 0
    assert lookup_docs(encoded, [survivor]).num_rows == 1


def test_purge_drops_fully_deleted_partition(encoded):
    entries = read_manifest_entries(encoded)
    pid = sorted(entries)[0]
    dirs = JobDirs(encoded)
    # tombstone EVERY row of one partition, straight from its container
    from fileconvert_ray.stages.decoder import read_partition

    ids = read_partition(dirs.container_path(pid)).column("doc_id").to_pylist()
    res = run_delete(encoded, ids)
    assert res["found"] == len(set(ids))

    summary = run_purge(encoded).to_pandas()
    row = summary[summary["part_id"] == pid]
    assert list(row["action"]) == ["dropped"]
    assert pid not in read_manifest_entries(encoded)
    assert not os.path.exists(dirs.container_path(pid))
    # the other partitions are untouched and still decode
    assert decode_dataset(encoded).count() > 0


def test_purge_partition_orphan_and_noop(encoded):
    dirs = JobDirs(encoded)
    # noop: no tombstone
    pid = sorted(read_manifest_entries(encoded))[0]
    assert purge_partition(encoded, pid)["action"] == "noop"
    # orphan: tombstone without a manifest entry
    write_tombstones(encoded, "ghost-part", ["x"])
    out = purge_partition(encoded, "ghost-part")
    assert out["action"] == "orphan_cleared"
    assert read_tombstones(encoded, "ghost-part") is None


def test_tombstones_merge_across_deletes(encoded, sf_dir):
    all_ids = sorted(
        str(d) for d in tokseq_table(sf_dir).column("doc_id").to_pylist()
    )
    run_delete(encoded, all_ids[:3])
    run_delete(encoded, all_ids[3:6])
    left = _decoded_ids(encoded)
    assert left == set(all_ids[6:])


def test_compaction_refuses_tombstoned_partitions(ray_session, sf_dir, tmp_path):
    from fileconvert_ray.pipelines.compact_job import plan_compaction

    out = str(tmp_path / "enc-multi")
    # tiny partition target -> several buckets per source, so the
    # compaction planner has real groups to form
    run_encode(
        lambda: tokseq_dataset(sf_dir),
        EncodeConfig(out_dir=out, target_partition_tokens=500),
    ).materialize()
    groups_before = plan_compaction(out, target_tokens=10_000_000)
    assert groups_before, "fixture must produce compactable groups"

    all_ids = sorted(
        str(d) for d in tokseq_table(sf_dir).column("doc_id").to_pylist()
    )
    run_delete(out, all_ids[:10])
    tombstoned = set(tombstoned_partitions(out))
    assert tombstoned
    for g in plan_compaction(out, target_tokens=10_000_000):
        assert not (set(g["olds"]) & tombstoned)
    # after purge, those partitions are compactable again
    run_purge(out).materialize()
    assert tombstoned_partitions(out) == []
    in_groups = {p for g in plan_compaction(out, target_tokens=10_000_000) for p in g["olds"]}
    assert in_groups & (tombstoned & set(read_manifest_entries(out)))


def test_delete_respects_source_filter(encoded, sf_dir):
    t = tokseq_table(sf_dir)
    df = t.select(["doc_id", "source"]).to_pandas()
    df["doc_id"] = df["doc_id"].astype(str)
    src = sorted(df["source"].unique())[0]
    some = df[df["source"] == src]["doc_id"].tolist()[:5]
    other_src = sorted(df["source"].unique())[1]
    # filtering to the WRONG source finds nothing
    res = run_delete(encoded, some, sources=[other_src])
    assert res["found"] == 0
    res = run_delete(encoded, some, sources=[src])
    assert res["found"] == len(some)


def test_hash_verify_valid_after_purge(encoded, sf_dir):
    """mode=manifest verify (decoded vs manifest digest) stays green
    after a purge — the digest is recomputed from surviving rows."""
    from fileconvert_ray.pipelines.verify_job import run_verify

    all_ids = sorted(
        str(d) for d in tokseq_table(sf_dir).column("doc_id").to_pylist()
    )
    run_delete(encoded, all_ids[:25])
    run_purge(encoded).materialize()
    v = run_verify(None, encoded, mode="manifest").to_pandas()
    assert v["ok"].all(), v[~v["ok"]]


def test_delete_purge_model_scenario(encoded, sf_dir):
    """Model-based sequence: interleaved delete batches and purges
    checked against two Python sets — ``logical`` (what readers must
    see) and ``physical`` (rows actually in containers; run_delete's
    existence scan reads physical rows, so re-deleting a tombstoned
    but unpurged id reports found again, idempotently)."""
    rng = np.random.default_rng(7)
    all_ids = sorted(
        str(d) for d in tokseq_table(sf_dir).column("doc_id").to_pylist()
    )
    logical = set(all_ids)
    physical = set(all_ids)
    universe = all_ids + [f"ghost-{i}" for i in range(20)]

    for step in range(6):
        victims = list(rng.choice(universe, size=int(rng.integers(5, 30)), replace=False))
        res = run_delete(encoded, victims)
        assert res["found"] == len(set(victims) & physical), (step, res)
        logical -= set(victims)
        assert decode_dataset(encoded).count() == len(logical), step
        if step % 2 == 1:
            run_purge(encoded).materialize()
            physical = set(logical)
            assert tombstoned_partitions(encoded) == []
            assert decode_dataset(encoded).count() == len(logical), step

    # final purge + full content check
    run_purge(encoded).materialize()
    final = _decoded_ids(encoded)
    assert final == logical


def test_delete_refuses_unsealed_generation(ray_session, sf_dir, tmp_path):
    """A tombstone can only target completed partitions: deleting while
    an ingest generation is unsealed must refuse loudly."""
    import json

    import pyarrow.parquet as pq_

    from fileconvert_ray.pipelines.encode_job import run_encode_files

    t = tokseq_table(sf_dir)
    shard = str(tmp_path / "s.parquet")
    pq_.write_table(t, shard)
    out = str(tmp_path / "enc")
    run_encode_files(
        [shard],
        EncodeConfig(out_dir=out, target_partition_tokens=5_000),
    ).materialize()
    # simulate a crash mid-ingest: mark the generation unsealed
    plan_path = os.path.join(out, "plan.json")
    plan = json.load(open(plan_path))
    plan["generations"][-1]["sealed"] = False
    json.dump(plan, open(plan_path, "w"))
    with pytest.raises(RuntimeError, match="unsealed"):
        run_delete(out, ["0"])


def test_delete_where_annotation_predicate(encoded, sf_dir):
    """run_delete_where tombstones exactly the docs whose annotation
    value lands in the range; readers filter immediately; purge then
    physically converges; a missing side table or column refuses."""
    import ray

    from fileconvert_ray.pipelines.annotate_job import run_annotate
    from fileconvert_ray.pipelines.delete_job import run_delete_where

    # refuses before annotation exists
    with pytest.raises(FileNotFoundError, match="annotation"):
        run_delete_where(encoded, "token_stats", "n_distinct", hi=23)
    run_annotate(encoded, "token_stats")
    with pytest.raises(KeyError, match="no column"):
        run_delete_where(encoded, "token_stats", "nope", hi=23)
    with pytest.raises(ValueError, match="bound"):
        run_delete_where(encoded, "token_stats", "n_distinct")

    # ground truth from the raw corpus: docs with < 24 distinct tokens
    t = tokseq_table(sf_dir)
    nd = np.array([len(set(v)) for v in t.column("tokens").to_pylist()])
    all_ids = [str(d) for d in t.column("doc_id").to_pylist()]
    drop = {i for i, d in zip(all_ids, nd) if d <= 23}
    keep = set(all_ids) - drop
    assert drop and keep  # the fixture must exercise both sides

    res = run_delete_where(encoded, "token_stats", "n_distinct", hi=23)
    assert res["found"] == len(drop)
    assert _decoded_ids(encoded) == keep

    # idempotent re-run finds the same docs (merge into same tombstones)
    res2 = run_delete_where(encoded, "token_stats", "n_distinct", hi=23)
    assert res2["found"] == res["found"]
    assert _decoded_ids(encoded) == keep

    purged = run_purge(encoded).to_pandas()
    assert (purged["action"] != "error").all()
    assert _decoded_ids(encoded) == keep
    from fileconvert_ray.state.manifest import tombstoned_partitions as _tp

    assert not _tp(encoded)


def test_delete_where_cli(encoded):
    import json as _json
    import subprocess
    import sys

    from fileconvert_ray.pipelines.annotate_job import run_annotate

    run_annotate(encoded, "token_stats")
    before = len(_decoded_ids(encoded))
    r = subprocess.run(
        [sys.executable, "-m", "fileconvert_ray", "delete", encoded,
         "--where-ann", "token_stats:n_distinct::23"],
        capture_output=True, text=True, cwd="/root/repo",
    )
    assert r.returncode == 0, r.stderr[-2000:]
    res = _json.loads(r.stdout.strip().splitlines()[-1])
    assert res["ok"] and 0 < res["found"] < before
    assert len(_decoded_ids(encoded)) == before - res["found"]
    # --where-ann and --ids are mutually exclusive
    r2 = subprocess.run(
        [sys.executable, "-m", "fileconvert_ray", "delete", encoded,
         "--ids", "1", "--where-ann", "token_stats:n_distinct::23"],
        capture_output=True, text=True, cwd="/root/repo",
    )
    assert r2.returncode != 0


def test_delete_quantile(encoded, sf_dir):
    """run_delete_quantile drops ~frac of docs ranked by the
    annotation: the realized fraction is near the request, the cut is
    threshold-exact (every survivor is strictly better than every
    victim up to ties), and 'top' flips the direction."""
    from fileconvert_ray.pipelines.annotate_job import run_annotate
    from fileconvert_ray.pipelines.delete_job import run_delete_quantile

    run_annotate(encoded, "token_stats")
    t = tokseq_table(sf_dir)
    n_docs = t.num_rows

    with pytest.raises(ValueError, match="frac"):
        run_delete_quantile(encoded, "token_stats", "n_tok", 1.5)
    with pytest.raises(ValueError, match="side"):
        run_delete_quantile(encoded, "token_stats", "n_tok", 0.2, side="left")

    res = run_delete_quantile(encoded, "token_stats", "n_tok", 0.25)
    frac = res["found"] / n_docs
    assert 0.10 <= frac <= 0.40  # KLL rank error + ties
    thr = res["threshold"]
    survivors = _decoded_ids(encoded)
    lens = {str(d): int(n) for d, n in zip(
        t.column("doc_id").to_pylist(), t.column("n_tok").to_pylist())}
    assert all(lens[d] > thr for d in survivors)  # threshold-exact cut

    res2 = run_delete_quantile(encoded, "token_stats", "n_tok", 0.1, side="top")
    assert res2["found"] > 0
    survivors2 = _decoded_ids(encoded)
    assert all(lens[d] < res2["threshold"] for d in survivors2)
