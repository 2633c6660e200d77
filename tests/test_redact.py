"""Span-level redaction (pipelines/redact_job.py): matched spans become
the OOV id in place; doc ids / counts / lengths unchanged; searches go
quiet; content-derived sidecars invalidated; idempotent."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

SF = "/root/testdata/sf0.001"
PHRASE = "the fast key"


@pytest.fixture(scope="module")
def base_store(ray_session, tmp_path_factory):
    from fileconvert_ray.pipelines.annotate_job import run_annotate
    from fileconvert_ray.pipelines.ingest_job import run_ingest
    from fileconvert_ray.pipelines.search_job import run_build_index

    enc = os.path.join(str(tmp_path_factory.mktemp("redactstore")), "enc")
    run_ingest([f"{SF}/documents.parquet"], enc, target_partition_tokens=50_000)
    run_build_index(enc)
    run_annotate(enc, "token_stats")
    return enc


@pytest.fixture()
def store(base_store, tmp_path):
    enc = str(tmp_path / "enc")
    shutil.copytree(base_store, enc)
    return enc


def _reference_positions(phrase: str) -> dict[str, list[int]]:
    import pyarrow.parquet as pq

    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    want = phrase.split(" ")
    L = len(want)
    out = {}
    for did, text in zip(t.column("doc_id").to_pylist(), t.column("text").to_pylist()):
        ws = text.split(" ")
        p = [i for i in range(len(ws) - L + 1) if ws[i : i + L] == want]
        if p:
            out[str(did)] = p
    return out


def _doc_tokens(enc: str) -> dict[str, list[int]]:
    from fileconvert_ray.stages.decoder import decode_dataset

    out = {}
    for b in decode_dataset(enc, columns=["doc_id", "tokens"]).iter_batches(
        batch_format="pyarrow"
    ):
        for d, t in zip(b.column("doc_id").to_pylist(), b.column("tokens").to_pylist()):
            out[str(d)] = list(t)
    return out


def test_redact_exact_spans_only(store):
    """Redacted store == original store except exactly the reference
    match spans, which all read as the OOV id; lengths unchanged."""
    from fileconvert_ray.pipelines.redact_job import run_redact

    before = _doc_tokens(store)
    ref = _reference_positions(PHRASE)
    assert ref
    L = len(PHRASE.split(" "))
    oov = len(json.load(open(os.path.join(store, "vocab.json"))))

    res = run_redact(store, [PHRASE])
    assert res["rewritten"] >= 1
    assert res["docs_redacted"] == len(ref)
    assert res["tokens_redacted"] == sum(
        len(np.unique(np.concatenate([np.arange(p, p + L) for p in ps])))
        for ps in ref.values()
    )

    after = _doc_tokens(store)
    assert set(after) == set(before)
    for d, toks in after.items():
        want = list(before[d])
        for p in ref.get(d, []):
            for j in range(L):
                want[p + j] = oov
        assert toks == want, d


def test_redact_silences_search_and_is_idempotent(store):
    from fileconvert_ray.pipelines.redact_job import run_redact
    from fileconvert_ray.pipelines.search_job import run_build_index, run_search

    assert len(run_search(store, PHRASE).take_all()) > 0
    run_redact(store, [PHRASE])
    assert run_search(store, PHRASE).take_all() == []
    assert run_search(store, PHRASE, use_index=False).take_all() == []
    res2 = run_redact(store, [PHRASE])
    assert res2["rewritten"] == 0 and res2["tokens_redacted"] == 0
    # dropped blooms refill idempotently and stay exact
    r = run_build_index(store)
    assert r["written"] >= 1
    assert run_search(store, PHRASE).take_all() == []


def test_redact_invalidates_sidecars_and_annotate_refills(store):
    from fileconvert_ray.pipelines.annotate_job import ann_dir, read_annotation
    from fileconvert_ray.pipelines.redact_job import run_redact
    from fileconvert_ray.pipelines.search_job import candidate_partitions_for_ids
    from fileconvert_ray.pipelines.search_job import phrase_token_ids
    from fileconvert_ray.pipelines.annotate_job import run_annotate

    ids = phrase_token_ids(store, PHRASE)
    cand, _ = candidate_partitions_for_ids(store, [ids])
    res = run_redact(store, [PHRASE])
    assert res["sidecars_dropped"] >= res["rewritten"]  # ann + bloom each
    adir = ann_dir(store, "token_stats")
    have = {f[: -len(".parquet")] for f in os.listdir(adir)}
    rewritten = [p for p in cand if p not in have]
    assert len(rewritten) == res["rewritten"]
    # inspect surfaces the coverage gap, then full coverage post-refill
    def coverage():
        r = subprocess.run(
            [sys.executable, "-m", "fileconvert_ray", "inspect", store],
            capture_output=True, text=True, cwd="/root/repo",
        )
        assert r.returncode == 0, r.stderr[-300:]
        return json.loads(r.stdout.strip().splitlines()[-1])["sidecars"]

    cov = coverage()
    assert cov["ann/token_stats"]["partitions"] == (
        cov["ann/token_stats"]["of"] - res["rewritten"]
    )
    run_annotate(store, "token_stats")
    for pid in rewritten:
        read_annotation(store, "token_stats", pid)  # refilled, readable
    cov = coverage()
    assert cov["ann/token_stats"]["partitions"] == cov["ann/token_stats"]["of"]


def test_redact_failed_rewrite_leaves_no_stale_sidecar(store):
    """A rewrite that raises inside the Ray worker must not leave the
    matched partition's ann/ and index/ sidecars behind: they describe
    content the redaction is replacing, so they are dropped before the
    rewrite starts and the gap-fill jobs refill them."""
    from fileconvert_ray.pipelines.redact_job import run_redact
    from fileconvert_ray.stages.decoder import read_partition
    from fileconvert_ray.state.manifest import JobDirs, read_manifest_entries

    ref = set(_reference_positions(PHRASE))
    dirs = JobDirs(store)
    entries = read_manifest_entries(store)

    def doc_ids(pid):
        t = read_partition(dirs.container_path(pid))
        return {str(d) for d in t.column("doc_id").to_pylist()}

    matched = sorted(pid for pid in entries if doc_ids(pid) & ref)
    assert matched
    pid = matched[0]
    source = entries[pid]["source"]
    assert [p for p in matched if entries[p]["source"] == source] == [pid]

    def sidecars():
        return sorted(
            os.path.join(root, name)
            for root in ("ann", "index")
            for name in os.listdir(os.path.join(store, root))
            if os.path.exists(os.path.join(store, root, name, f"{pid}.parquet"))
        )

    assert sidecars() == ["ann/token_stats", "index/token_bloom"]
    # a plain file where the writer's tmp/ dir belongs: the rewrite's
    # PartitionWriter raises in the worker, after the scan matched
    shutil.rmtree(dirs.tmp)
    open(dirs.tmp, "w").close()
    with pytest.raises(Exception):
        run_redact(store, [PHRASE], sources=[source])
    assert sidecars() == []


def test_redact_detokenizes_to_unk_and_verify_manifest_green(store, tmp_path):
    import pyarrow.parquet as pq

    from fileconvert_ray.pipelines.redact_job import run_redact
    from fileconvert_ray.pipelines.tokenize_job import run_detokenize
    from fileconvert_ray.pipelines.verify_job import run_verify

    ref = _reference_positions(PHRASE)
    run_redact(store, [PHRASE])
    v = run_verify(None, store, mode="manifest").to_pandas()
    assert bool(v["ok"].all())
    back = str(tmp_path / "back")
    run_detokenize(store, back)
    t = pq.read_table(back, columns=["doc_id", "text"])
    texts = dict(zip(t.column("doc_id").to_pylist(), t.column("text").to_pylist()))
    L = len(PHRASE.split(" "))
    did, positions = next(iter(ref.items()))
    ws = texts[str(did)].split(" ")
    for p in positions:
        assert ws[p : p + L] == ["<unk>"] * L
    assert PHRASE not in " ".join(texts.values())


def test_redact_dry_run_predicts_and_mutates_nothing(store):
    """--dry-run's summary equals the real run's (modulo sidecars),
    and the store is byte-identical afterwards."""
    from fileconvert_ray.pipelines.redact_job import run_redact

    before = _doc_tokens(store)
    preview = run_redact(store, [PHRASE], dry_run=True)
    assert preview["dry_run"] and preview["rewritten"] >= 1
    assert _doc_tokens(store) == before  # nothing changed
    real = run_redact(store, [PHRASE])
    for k in ("scanned", "rewritten", "docs_redacted", "tokens_redacted"):
        assert real[k] == preview[k], k
    assert not real["dry_run"] and _doc_tokens(store) != before


def test_redact_source_scoped(store):
    """sources= redacts only that source's partitions: its matches go
    quiet, every other source's matches survive untouched."""
    import pyarrow.parquet as pq

    from fileconvert_ray.pipelines.redact_job import run_redact
    from fileconvert_ray.pipelines.search_job import run_search

    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "source"])
    src_of = {
        str(d): s
        for d, s in zip(t.column("doc_id").to_pylist(), t.column("source").to_pylist())
    }
    ref = _reference_positions(PHRASE)
    srcs = sorted({src_of[d] for d in ref})
    assert len(srcs) >= 2, "fixture phrase must span sources"
    target = srcs[0]
    res = run_redact(store, [PHRASE], sources=[target])
    assert res["docs_redacted"] == sum(1 for d in ref if src_of[d] == target)
    left = {r["doc_id"] for r in run_search(store, PHRASE).take_all()}
    assert left == {d for d in ref if src_of[d] != target}


def test_redact_refusals_and_oov_phrase(store):
    from fileconvert_ray.pipelines.redact_job import run_redact

    with pytest.raises(ValueError):
        run_redact(store, [])
    with pytest.raises(ValueError):
        run_redact(store, [PHRASE, PHRASE])
    res = run_redact(store, ["zzz-not-in-vocab-zzz"])
    assert res["rewritten"] == 0 and res["tokens_redacted"] == 0


def test_redact_cli(store):
    r = subprocess.run(
        [sys.executable, "-m", "fileconvert_ray", "redact", store,
         "--where-phrase", PHRASE],
        capture_output=True, text=True, cwd="/root/repo",
    )
    assert r.returncode == 0, r.stderr[-500:]
    out = json.loads(r.stdout.strip().splitlines()[-1])
    assert out["ok"] and out["rewritten"] >= 1
