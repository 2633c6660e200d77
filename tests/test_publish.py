"""The atomic-publish primitive (state.manifest.publishing): a crash
between the write and the rename leaves a tmp file that no reader
lists, and a failing body leaves neither a tmp file nor a changed
destination."""

import os
import shutil
import subprocess
import sys

import pytest

from fileconvert_ray.pipelines.compact_job import plan_compaction, recover_compaction
from fileconvert_ray.pipelines.encode_job import EncodeConfig, run_encode
from fileconvert_ray.sources.tokseq import synth_dataset
from fileconvert_ray.stages.decoder import decode_dataset
from fileconvert_ray.state.fsck import fsck
from fileconvert_ray.state.manifest import (
    completed_partitions,
    publishing,
    tombstoned_partitions,
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FACTORY = lambda: synth_dataset(300, num_blocks=4)  # noqa: E731
CFG = dict(target_partition_tokens=20_000)

# Runs one publish with os.replace swapped for a hard exit: the process
# dies exactly where a crash between the tmp write and the rename would.
_CRASH = """
import os, sys
from fileconvert_ray.pipelines.compact_job import compact_group, plan_compaction
from fileconvert_ray.state.manifest import (
    JobDirs, read_manifest_entries, write_manifest_entry, write_tombstones)
out, site = sys.argv[1], sys.argv[2]
entries = read_manifest_entries(out)
pid = sorted(entries)[0]
group = plan_compaction(out, 10**12)[0]
os.replace = lambda *a, **k: os._exit(1)
if site == "manifest":
    write_manifest_entry(JobDirs(out), pid, entries[pid])
elif site == "tombstones":
    write_tombstones(out, pid, ["doc-never-deleted"])
else:
    compact_group(out, group)
sys.exit(2)
"""


@pytest.fixture(scope="module")
def enc_dir(ray_session, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("publish") / "enc")
    run_encode(FACTORY, EncodeConfig(out_dir=out, **CFG)).materialize()
    assert plan_compaction(out, 10**12), "store too small to plan a compaction"
    return out


def _leftovers(d: str) -> list[str]:
    return sorted(f for f in os.listdir(d) if f.startswith(".")) if os.path.isdir(d) else []


def test_crash_before_rename_is_invisible_to_readers(enc_dir, tmp_path):
    d = str(tmp_path / "d")
    shutil.copytree(enc_dir, d)
    parts = completed_partitions(d)
    n_rows = decode_dataset(d).count()

    env = {**os.environ, "PYTHONPATH": REPO}
    for site in ("manifest", "tombstones", "compact"):
        rc = subprocess.run([sys.executable, "-c", _CRASH, d, site], env=env).returncode
        assert rc == 1, f"{site}: the publish never reached its rename"
    # the tmp name of older builds, .tmp-{hex}-{name}.json, kept the
    # .json suffix; a store that crashed under one still holds it
    pid = sorted(parts)[0]
    for s, body in (("manifest", open(os.path.join(d, "manifest", f"{pid}.json")).read()),
                    ("deletes", '{"doc_ids": ["doc-never-deleted"]}'),
                    ("compact", '{"olds": []}')):
        with open(os.path.join(d, s, f".tmp-0123abcd-{pid}.json"), "w") as f:
            f.write(body)
    left = {s: _leftovers(os.path.join(d, s)) for s in ("manifest", "deletes", "compact")}
    assert all(len(v) == 2 for v in left.values()), left

    assert completed_partitions(d) == parts
    assert tombstoned_partitions(d) == []
    assert decode_dataset(d).count() == n_rows
    r = fsck(d)
    assert r["ok"], r["errors"]
    assert recover_compaction(d) == {"finished": 0, "rolled_back": 0}
    assert _leftovers(os.path.join(d, "compact")) == left["compact"]

    run_encode(FACTORY, EncodeConfig(out_dir=d, **CFG)).materialize()
    assert completed_partitions(d) == parts

    # fsck reports every leftover as reclaimable scratch, and reclaims it
    (w,) = [w for w in fsck(d)["warnings"] if w["kind"] == "publish_scratch"]
    assert w["count"] == 6
    assert fsck(d, reclaim=True)["ok"]
    assert all(_leftovers(os.path.join(d, s)) == [] for s in left)
    assert completed_partitions(d) == parts


def test_publishing_failed_body_leaves_dst_and_no_tmp(tmp_path):
    dst = tmp_path / "x.json"
    dst.write_bytes(b"old")
    with pytest.raises(RuntimeError):
        with publishing(str(dst)) as tmp, open(tmp, "wb") as f:
            f.write(b"new")
            raise RuntimeError("body failed")
    assert dst.read_bytes() == b"old"
    assert os.listdir(tmp_path) == ["x.json"]

    scratch = tmp_path / "scratch"
    scratch.mkdir()
    with publishing(str(dst), str(scratch)) as tmp, open(tmp, "wb") as f:
        assert os.path.dirname(tmp) == str(scratch)
        assert not tmp.endswith((".json", ".parquet", ".arrow"))
        f.write(b"new")
    assert dst.read_bytes() == b"new"
    assert os.listdir(scratch) == []
