"""Metadata-only consistency audit (state/fsck.py): every fault class
the crash-safety design can leave behind is classified, and the benign
classes reclaim without touching live data."""

import json
import os
import shutil

import pytest

from fileconvert_ray.pipelines.encode_job import EncodeConfig, run_encode
from fileconvert_ray.sources.tokseq import synth_dataset
from fileconvert_ray.state.fsck import fsck


@pytest.fixture(scope="module")
def enc_dir(ray_session, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("fsck") / "enc")
    run_encode(
        lambda: synth_dataset(300, num_blocks=4),
        EncodeConfig(out_dir=out, target_partition_tokens=20_000),
    ).materialize()
    return out


def _copy(enc_dir, tmp_path, name="d"):
    dst = str(tmp_path / name)
    shutil.copytree(enc_dir, dst)
    return dst


def _leave_staged_scratch(d):
    """What an encode pass interrupted before its end leaves behind: a
    staged shuffle file (a completed pass removes its own)."""
    with open(os.path.join(d, "staged", "0123abcd.parquet"), "wb") as f:
        f.write(b"PAR1" + bytes(64) + b"PAR1")


def test_fsck_healthy_is_ok(enc_dir, tmp_path):
    r = fsck(_copy(enc_dir, tmp_path))
    assert r["ok"] and r["errors"] == []
    assert r["partitions"] == r["planned"] > 0
    kinds = {w["kind"] for w in r["warnings"]}
    assert kinds <= {"staged_scratch", "tmp_scratch"}  # only scratch noise


def test_fsck_detects_damage(enc_dir, tmp_path):
    d = _copy(enc_dir, tmp_path)
    parts = sorted(os.listdir(os.path.join(d, "parts")))
    # truncate one container, delete another
    with open(os.path.join(d, "parts", parts[0]), "wb") as f:
        f.write(b"xx")
    os.unlink(os.path.join(d, "parts", parts[1]))
    # tombstone an unknown partition
    os.makedirs(os.path.join(d, "deletes"), exist_ok=True)
    with open(os.path.join(d, "deletes", "nope-b0000.json"), "w") as f:
        json.dump({"doc_ids": ["zz"]}, f)
    r = fsck(d)
    kinds = sorted(e["kind"] for e in r["errors"])
    assert not r["ok"]
    assert kinds == [
        "missing_container",
        "size_mismatch",
        "tombstone_unknown_partition",
    ]


def test_fsck_unplanned_partition(enc_dir, tmp_path):
    """A -b manifest entry no plan generation explains is an error (it
    is data decode WOULD read); a compaction-style -x label under a
    known source stem is not."""
    d = _copy(enc_dir, tmp_path)
    mans = sorted(os.listdir(os.path.join(d, "manifest")))
    src = json.load(open(os.path.join(d, "manifest", mans[0])))
    src_part = src["part_id"]
    stem = src_part.rsplit("-", 1)[0]
    for pid, bad in ((f"{stem}-b9999", True), (f"{stem}-x0000", False)):
        rec = dict(src, part_id=pid)
        cpath = os.path.join(d, "parts", f"{pid}.parquet")
        shutil.copy(os.path.join(d, "parts", f"{src_part}.parquet"), cpath)
        rec["container_bytes"] = os.path.getsize(cpath)
        with open(os.path.join(d, "manifest", f"{pid}.json"), "w") as f:
            json.dump(rec, f)
        r = fsck(d)
        hit = any(
            e["kind"] == "unplanned_partition" and e["part_id"] == pid
            for e in r["errors"]
        )
        assert hit == bad, pid
        os.unlink(cpath)
        os.unlink(os.path.join(d, "manifest", f"{pid}.json"))


def test_fsck_incomplete_and_orphan_then_reclaim(enc_dir, tmp_path):
    d = _copy(enc_dir, tmp_path)
    mans = sorted(os.listdir(os.path.join(d, "manifest")))
    pid = mans[0][:-5]
    # orphan: container without manifest (crash between the renames)
    os.unlink(os.path.join(d, "manifest", mans[0]))
    r = fsck(d)
    assert r["ok"]  # incomplete + orphan are warnings, not errors
    kinds = {w["kind"] for w in r["warnings"]}
    assert {"incomplete", "orphan_container"} <= kinds
    inc = next(w for w in r["warnings"] if w["kind"] == "incomplete")
    assert pid in inc["part_ids"]

    # reclaim on an INCOMPLETE job: orphan + tmp go, staged/ stays
    _leave_staged_scratch(d)
    n_staged = len(os.listdir(os.path.join(d, "staged")))
    r2 = fsck(d, reclaim=True)
    assert r2["reclaimed"]["files"] >= 1
    assert not os.path.exists(os.path.join(d, "parts", f"{pid}.parquet"))
    assert len(os.listdir(os.path.join(d, "staged"))) == n_staged


def test_fsck_reclaim_complete_drops_staged(enc_dir, ray_session, tmp_path):
    d = _copy(enc_dir, tmp_path)
    assert os.listdir(os.path.join(d, "staged")) == []  # encode removed its own
    _leave_staged_scratch(d)
    assert len(os.listdir(os.path.join(d, "staged"))) > 0
    r = fsck(d, reclaim=True)
    assert r["ok"] and r["reclaimed"]["files"] > 0
    assert os.listdir(os.path.join(d, "staged")) == []
    # the dir still decodes + verifies after reclaim
    from fileconvert_ray.pipelines.verify_job import run_verify

    v = run_verify(lambda: synth_dataset(300, num_blocks=4), d).to_pandas()
    assert bool(v.ok.all())


def test_fsck_understands_compaction(enc_dir, ray_session, tmp_path):
    """Compacted dirs audit clean: -c/-x containers are planned data,
    and the replaced -b partitions report as compacted_away, not
    incomplete."""
    d = _copy(enc_dir, tmp_path)
    from fileconvert_ray.pipelines.compact_job import run_compact

    run_compact(d, target_tokens=10_000_000).materialize()
    r = fsck(d)
    assert r["ok"], r["errors"]
    kinds = {w["kind"] for w in r["warnings"]}
    assert "incomplete" not in kinds
    assert "compacted_away" in kinds


def test_fsck_no_plan_and_bad_plan(enc_dir, tmp_path):
    d = _copy(enc_dir, tmp_path)
    os.unlink(os.path.join(d, "plan.json"))
    r = fsck(d)
    assert r["ok"] and r["planned"] is None
    assert any(w["kind"] == "no_plan" for w in r["warnings"])

    with open(os.path.join(d, "plan.json"), "w") as f:
        f.write("{broken")
    r2 = fsck(d)
    assert not r2["ok"]
    assert any(e["kind"] == "bad_plan" for e in r2["errors"])


def test_fsck_ingest_and_annotation_sidecars(enc_dir, ray_session, tmp_path):
    """Round-5 sidecars: a missing vocab on an ingested store is an
    ERROR; annotation gaps and stale annotation files are warnings,
    stale ones reclaimable."""
    d = _copy(enc_dir, tmp_path)
    from fileconvert_ray.pipelines.annotate_job import run_annotate

    run_annotate(d, "token_stats")
    r = fsck(d)
    assert r["ok"] and not any(w["kind"].startswith("annotation") for w in r["warnings"])

    # drop one annotation file -> gap warning; add one for a ghost
    # partition -> stale warning, reclaimed on request
    adir = os.path.join(d, "ann", "token_stats")
    files = sorted(f for f in os.listdir(adir) if f.endswith(".parquet"))
    os.remove(os.path.join(adir, files[0]))
    shutil.copy(os.path.join(adir, files[1]), os.path.join(adir, "ghost-b9999.parquet"))
    r = fsck(d)
    kinds = {w["kind"] for w in r["warnings"]}
    assert r["ok"] and {"annotation_gaps", "stale_annotations"} <= kinds
    r = fsck(d, reclaim=True)
    assert not os.path.exists(os.path.join(adir, "ghost-b9999.parquet"))

    # ingest marker without vocab -> error
    with open(os.path.join(d, "ingest.json"), "w") as f:
        json.dump({"tokenizer": "whitespace-vocab", "vocab": "vocab.json"}, f)
    r = fsck(d)
    assert not r["ok"] and any(e["kind"] == "missing_vocab" for e in r["errors"])


def test_fsck_search_index_sidecars(enc_dir, ray_session, tmp_path):
    """Bloom index sidecars: gaps are a (pruning-only) warning, stale
    files for vanished partitions are reclaimable, healthy is quiet."""
    d = _copy(enc_dir, tmp_path)
    from fileconvert_ray.pipelines.search_job import run_build_index

    run_build_index(d)
    r = fsck(d)
    assert r["ok"] and not any(
        w["kind"].startswith(("index", "stale_index")) for w in r["warnings"]
    )
    idir = os.path.join(d, "index", "token_bloom")
    files = sorted(f for f in os.listdir(idir) if f.endswith(".parquet"))
    os.remove(os.path.join(idir, files[0]))
    shutil.copy(os.path.join(idir, files[1]), os.path.join(idir, "ghost-b9999.parquet"))
    r = fsck(d)
    kinds = {w["kind"] for w in r["warnings"]}
    assert r["ok"] and {"index_gaps", "stale_index"} <= kinds
    fsck(d, reclaim=True)
    assert not os.path.exists(os.path.join(idir, "ghost-b9999.parquet"))
    # the gap (deleted sidecar) is NOT reclaimed away — run_build_index
    # refills it
    r2 = run_build_index(d)
    assert r2["written"] == 1
