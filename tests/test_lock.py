"""Single-writer job lock (state/lock.py): the container store's
crash-safety protocols assume ONE mutating writer per out_dir; the
advisory lock is what enforces it.  Covers acquisition, contention,
in-process reentrancy, stale-owner break, force break, and the CLI
exit-3 surface."""

import json
import os
import subprocess
import sys
import time

import pytest

from fileconvert_ray.state.lock import (
    LockHeldError,
    job_lock,
    lock_path,
    read_lock,
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_lock_acquire_release(tmp_path):
    d = str(tmp_path / "o")
    with job_lock(d, "encode"):
        owner = read_lock(d)
        assert owner["pid"] == os.getpid()
        assert owner["operation"] == "encode"
    assert read_lock(d) is None
    assert not os.path.exists(lock_path(d))


def test_lock_reentrant_same_process(tmp_path):
    d = str(tmp_path / "o")
    with job_lock(d, "upsert"):
        with job_lock(d, "encode"):  # upsert internally runs encode
            assert read_lock(d)["operation"] == "upsert"
        # inner exit must NOT release the outer hold
        assert read_lock(d) is not None
    assert read_lock(d) is None


def test_lock_contention_live_owner(tmp_path):
    """A lock held by a LIVE pid on this host refuses a second writer."""
    d = str(tmp_path / "o")
    os.makedirs(d)
    other = {"pid": os.getppid(), "host": __import__("socket").gethostname(),
             "operation": "compact", "ts": "2026-08-19T00:00:00"}
    with open(lock_path(d), "w") as f:
        json.dump(other, f)
    with pytest.raises(LockHeldError) as ei:
        with job_lock(d, "encode"):
            pass
    assert "compact" in str(ei.value)
    # force breaks it
    with job_lock(d, "encode", force=True):
        assert read_lock(d)["pid"] == os.getpid()


def test_lock_dead_pid_is_stale(tmp_path):
    d = str(tmp_path / "o")
    os.makedirs(d)
    dead = {"pid": 2**22 + 12345, "host": __import__("socket").gethostname(),
            "operation": "encode", "ts": "2026-08-19T00:00:00"}
    with open(lock_path(d), "w") as f:
        json.dump(dead, f)
    with job_lock(d, "purge"):  # auto-broken, no force needed
        assert read_lock(d)["operation"] == "purge"


def test_lock_remote_host_ttl(tmp_path):
    """A remote-host lock is honoured until its heartbeat ages out."""
    d = str(tmp_path / "o")
    os.makedirs(d)
    remote = {"pid": 1, "host": "some-other-node",
              "operation": "encode", "ts": "2026-08-19T00:00:00"}
    with open(lock_path(d), "w") as f:
        json.dump(remote, f)
    with pytest.raises(LockHeldError):
        with job_lock(d, "encode", stale_s=3600):
            pass
    old = time.time() - 7200
    os.utime(lock_path(d), (old, old))
    with job_lock(d, "encode", stale_s=3600):
        assert read_lock(d)["host"] != "some-other-node"


def test_cli_exits_3_when_locked(tmp_path):
    """A mutating CLI command against a held out_dir fails fast with
    exit code 3 and a JSON error naming the owner."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    shard = str(tmp_path / "in.parquet")
    pq.write_table(
        pa.table({"doc_id": pa.array(["d1", "d2"]),
                  "source": ["a", "a"],
                  "n_tok": pa.array([2, 1], pa.int32()),
                  "tokens": pa.array([[1, 2], [3]], pa.list_(pa.int32()))}),
        shard)
    out = str(tmp_path / "enc")
    os.makedirs(out)
    holder = {"pid": os.getpid(), "host": __import__("socket").gethostname(),
              "operation": "encode", "ts": "2026-08-19T00:00:00"}
    with open(lock_path(out), "w") as f:
        json.dump(holder, f)
    env = dict(os.environ, PYTHONPATH=REPO)
    r = subprocess.run(
        [sys.executable, "-m", "fileconvert_ray", "encode", shard, "--out", out],
        capture_output=True, text=True, cwd=REPO, env=env, timeout=300)
    assert r.returncode == 3, (r.returncode, r.stdout, r.stderr[-500:])
    payload = json.loads(r.stdout.strip().splitlines()[-1])
    assert payload["ok"] is False and "encode" in payload["error"]
    # lock untouched: still the original holder
    assert read_lock(out)["pid"] == os.getpid()
    # --break-lock steals it and the encode completes
    r2 = subprocess.run(
        [sys.executable, "-m", "fileconvert_ray", "encode", shard, "--out",
         out, "--break-lock"],
        capture_output=True, text=True, cwd=REPO, env=env, timeout=300)
    assert r2.returncode == 0, r2.stderr[-2000:]
    assert read_lock(out) is None
