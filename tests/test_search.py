"""Phrase search (pipelines/search_job.py): exactness vs a pure-Python
reference (overlap counts included), bloom pruning that never loses a
match (the purge superset property), the refusal/empty matrix, and the
token-ids path on a plain (non-ingested) store."""

import json
import os
import shutil

import numpy as np
import pytest

SF = "/root/testdata/sf0.001"
PHRASE = "the fast key"


@pytest.fixture(scope="module")
def store(ray_session, tmp_path_factory):
    from fileconvert_ray.pipelines.ingest_job import run_ingest
    from fileconvert_ray.pipelines.search_job import run_build_index

    enc = os.path.join(str(tmp_path_factory.mktemp("searchstore")), "enc")
    run_ingest([f"{SF}/documents.parquet"], enc, target_partition_tokens=50_000)
    r = run_build_index(enc)
    assert r["written"] == r["partitions"] and r["partitions"] > 1
    return enc


def _reference_hits(phrase: str) -> dict[str, int]:
    """Pure-Python word-adjacency counts over the ORIGINAL text —
    every start position, overlapping matches included."""
    import pyarrow.parquet as pq

    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    want = phrase.split(" ")
    L = len(want)
    out = {}
    for did, text in zip(t.column("doc_id").to_pylist(), t.column("text").to_pylist()):
        ws = text.split(" ")
        n = sum(1 for i in range(len(ws) - L + 1) if ws[i : i + L] == want)
        if n:
            out[str(did)] = n
    return out


def _search_dict(enc, phrase, **kw) -> dict[str, int]:
    from fileconvert_ray.pipelines.search_job import run_search

    df = run_search(enc, phrase, **kw).to_pandas()
    if df.empty:  # ray's to_pandas drops the schema of an empty Dataset
        return {}
    return dict(zip(df["doc_id"], df["n_hits"].astype(int)))


def test_search_exact_vs_reference(store):
    ref = _reference_hits(PHRASE)
    assert ref  # the fixture phrase must exist in the corpus
    assert _search_dict(store, PHRASE) == ref
    assert _search_dict(store, PHRASE, use_index=False) == ref


def test_search_overlapping_positions(store):
    # a self-overlapping phrase: "batch batch" inside "batch batch batch"
    # counts 2 — the scan counts every start position
    ref = _reference_hits("batch batch")
    assert any(v >= 2 for v in ref.values())
    assert _search_dict(store, "batch batch") == ref


def _reference_positions(phrase: str) -> dict[str, list[int]]:
    """Pure-Python match START offsets (word index) per doc — same
    adjacency semantics as _reference_hits, overlaps included."""
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


@pytest.mark.parametrize("phrase", [PHRASE, "batch batch"])
def test_search_positions_vs_reference(store, phrase):
    """with_positions emits each match's 0-based in-doc token start —
    ascending, overlaps included — and n_hits == len(positions).
    The word index IS the token index: ingest tokenizes on single
    spaces, so word k of the text is token k of the sequence."""
    from fileconvert_ray.pipelines.search_job import run_search

    ref = _reference_positions(phrase)
    assert ref
    df = run_search(store, phrase, with_positions=True).to_pandas()
    got = {d: list(p) for d, p in zip(df["doc_id"], df["positions"])}
    assert got == ref
    assert all(int(n) == len(p) for n, p in zip(df["n_hits"], df["positions"]))


def test_search_positions_oov_empty_schema(store):
    from fileconvert_ray.pipelines.search_job import run_search

    ds = run_search(store, "zzz-not-in-vocab-zzz", with_positions=True)
    t = ds.take_all()
    assert t == []
    assert set(ds.schema().names) == {"doc_id", "n_hits", "positions"}


def test_bloom_prunes_and_never_false_negative(store):
    from fileconvert_ray.pipelines.search_job import (
        candidate_partitions_for_ids,
        phrase_token_ids,
    )

    ids = phrase_token_ids(store, PHRASE)
    cand, total = candidate_partitions_for_ids(store, [ids])
    assert 0 < len(cand) <= total
    # the pruned read finds exactly the same docs as the full scan:
    # bloom membership is checked for every phrase unigram AND bigram,
    # so a partition holding a match can never be pruned
    assert _search_dict(store, PHRASE) == _search_dict(
        store, PHRASE, use_index=False
    )


def test_search_source_scoped(store):
    """sources= scopes the scan to those sources' partitions and
    composes with bloom pruning — result == the reference restricted
    to that source's docs, for every source holding a match."""
    import pyarrow.parquet as pq

    from fileconvert_ray.pipelines.search_job import run_search, run_search_many

    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "source"])
    src_of = {
        str(d): s
        for d, s in zip(t.column("doc_id").to_pylist(), t.column("source").to_pylist())
    }
    ref = _reference_hits(PHRASE)
    srcs = sorted({src_of[d] for d in ref})
    assert srcs
    for s in srcs:
        want = {d: n for d, n in ref.items() if src_of[d] == s}
        assert _search_dict(store, PHRASE, sources=[s]) == want
        assert _search_dict(store, PHRASE, sources=[s], use_index=False) == want
    # multi-phrase path takes the same scope
    df = run_search_many(store, [PHRASE], sources=[srcs[0]]).to_pandas()
    got = {} if df.empty else dict(zip(df["doc_id"], df["n_hits"].astype(int)))
    assert got == {d: n for d, n in ref.items() if src_of[d] == srcs[0]}
    # a source with no match of this phrase returns empty, not an error
    quiet = [s for s in sorted(set(src_of.values())) if s not in srcs]
    if quiet:
        assert _search_dict(store, PHRASE, sources=[quiet[0]]) == {}


def test_index_idempotent_gap_fill(store):
    from fileconvert_ray.pipelines.search_job import index_dir, run_build_index

    r = run_build_index(store)
    assert r["written"] == 0 and r["skipped"] == r["partitions"]
    # drop one sidecar -> re-run fills exactly the gap
    idir = index_dir(store)
    victim = sorted(os.listdir(idir))[0]
    os.unlink(os.path.join(idir, victim))
    r2 = run_build_index(store)
    assert r2["written"] == 1


def test_search_after_purge_stays_exact(store, tmp_path):
    """Purge rewrites partitions IN PLACE removing rows; the stale
    bloom remains a SUPERSET of the content, so pruning weakens but
    never loses a match."""
    from fileconvert_ray.pipelines.delete_job import run_delete, run_purge

    enc = str(tmp_path / "enc")
    shutil.copytree(store, enc)
    ref = _reference_hits(PHRASE)
    victims = sorted(ref)[:2]
    run_delete(enc, victims)
    run_purge(enc).materialize()
    expect = {k: v for k, v in ref.items() if k not in victims}
    assert _search_dict(enc, PHRASE) == expect


def test_oov_word_matches_nothing(store):
    assert _search_dict(store, "the zzz_not_a_word") == {}


def test_refusals_and_token_ids_path(store, tmp_path):
    import ray

    from fileconvert_ray.pipelines.search_job import phrase_token_ids, run_search

    with pytest.raises(ValueError, match="empty phrase"):
        phrase_token_ids(store, " ")
    with pytest.raises(ValueError, match="exactly one"):
        run_search(store)
    # plain (non-ingested) store: phrase refuses, token_ids works
    from fileconvert_ray.pipelines.encode_job import EncodeConfig, run_encode
    from fileconvert_ray.sources.tokseq import tokseq_dataset

    out = str(tmp_path / "plain")
    run_encode(
        lambda: tokseq_dataset(SF),
        EncodeConfig(out_dir=out, target_partition_tokens=5000),
    ).materialize()  # the metrics Dataset is lazy — consume to execute
    with pytest.raises(ValueError, match="vocab.json"):
        phrase_token_ids(out, "anything")
    # pick a real bigram from the store and count it by ids
    from fileconvert_ray.stages.decoder import decode_dataset

    t = decode_dataset(out, columns=["doc_id", "tokens"]).take_batch(
        5, batch_format="pyarrow"
    )
    toks = t.column("tokens")[0].as_py()
    ids = toks[:2]
    df = run_search(out, token_ids=ids).to_pandas()
    assert str(t.column("doc_id")[0].as_py()) in set(df["doc_id"])


def test_search_many_one_pass(store):
    """N phrases of mixed lengths in one pass == N independent
    searches; phrases with OOV words contribute nothing; duplicate /
    empty lists refuse."""
    from fileconvert_ray.pipelines.search_job import run_search_many

    phrases = ["dup", "batch batch", PHRASE, "the zzz_not_a_word"]
    df = run_search_many(store, phrases).to_pandas()
    got = {
        p: dict(zip(g["doc_id"], g["n_hits"].astype(int)))
        for p, g in df.groupby("phrase")
    }
    for p in phrases[:3]:
        assert got.get(p, {}) == _reference_hits(p), p
    assert "the zzz_not_a_word" not in got
    with pytest.raises(ValueError, match="empty"):
        run_search_many(store, [])
    with pytest.raises(ValueError, match="duplicate"):
        run_search_many(store, ["dup", "dup"])


def test_search_many_matches_single(store):
    from fileconvert_ray.pipelines.search_job import run_search_many

    df = run_search_many(store, [PHRASE], use_index=False).to_pandas()
    assert dict(zip(df["doc_id"], df["n_hits"].astype(int))) == _search_dict(
        store, PHRASE
    )


def test_delete_where_phrase(store, tmp_path):
    """Content takedown end to end: tombstone every doc containing any
    of the phrases, readers exclude exactly the reference match set,
    purge converges, and re-running finds the same (already-tombstoned)
    docs idempotently."""
    from fileconvert_ray.pipelines.delete_job import run_delete_matching, run_purge
    from fileconvert_ray.stages.decoder import decode_dataset

    enc = str(tmp_path / "enc")
    shutil.copytree(store, enc)
    victims = set(_reference_hits(PHRASE)) | set(_reference_hits("dup"))
    res = run_delete_matching(enc, [PHRASE, "dup", "the zzz_not_a_word"])
    assert res["found"] == len(victims)
    left = set(
        decode_dataset(enc, columns=["doc_id"])
        .to_pandas()["doc_id"]
        .astype(str)
    )
    import pyarrow.parquet as pq

    all_ids = {
        str(d)
        for d in pq.read_table(f"{SF}/documents.parquet", columns=["doc_id"])
        .column("doc_id")
        .to_pylist()
    }
    assert left == all_ids - victims
    assert _search_dict(enc, PHRASE) == {}
    run_purge(enc).materialize()
    assert _search_dict(enc, PHRASE, use_index=False) == {}
    res2 = run_delete_matching(enc, [PHRASE])
    assert res2["found"] == 0  # physically gone
    with pytest.raises(ValueError, match="empty"):
        run_delete_matching(enc, [])


def _phrases_in_disjoint_partitions(store) -> list[str]:
    """Two word bigrams each held by exactly one partition, and not
    the same one."""
    from fileconvert_ray.stages.decoder import iter_partition_chunks
    from fileconvert_ray.state.manifest import JobDirs, completed_partitions

    dirs = JobDirs(store)
    where: dict[tuple[int, int], set[str]] = {}
    for pid in sorted(completed_partitions(store)):
        for t in iter_partition_chunks(dirs.container_path(pid), ["tokens"]):
            for doc in t.column("tokens").to_pylist():
                for bigram in zip(doc, doc[1:]):
                    where.setdefault(bigram, set()).add(pid)
    with open(os.path.join(store, "vocab.json")) as f:
        vocab = json.load(f)
    only = [(" ".join(vocab[i] for i in bg), ps.pop())
            for bg, ps in sorted(where.items()) if len(ps) == 1]
    first, p1 = only[0]
    return [first, next(bg for bg, p in only if p != p1)]


def test_multi_phrase_pruning_keeps_any_phrase(store, tmp_path):
    """One bloom probe serves every phrase of a command: with two
    phrases living in disjoint partitions, the indexed search_many,
    redact dry run and delete_matching agree with a store that has no
    index at all."""
    from fileconvert_ray.pipelines.delete_job import run_delete_matching
    from fileconvert_ray.pipelines.redact_job import run_redact
    from fileconvert_ray.pipelines.search_job import run_search_many

    phrases = _phrases_in_disjoint_partitions(store)
    indexed, bare = str(tmp_path / "indexed"), str(tmp_path / "bare")
    shutil.copytree(store, indexed)
    shutil.copytree(store, bare)
    shutil.rmtree(os.path.join(bare, "index"))

    def hits(enc):
        df = run_search_many(enc, phrases).to_pandas()
        return sorted(zip(df["phrase"], df["doc_id"], df["n_hits"].astype(int)))

    assert {p for p, _, _ in hits(indexed)} == set(phrases)
    assert hits(indexed) == hits(bare)
    keys = ("rewritten", "docs_redacted", "tokens_redacted")
    red_i = run_redact(indexed, phrases, dry_run=True)
    red_b = run_redact(bare, phrases, dry_run=True)
    assert red_i["rewritten"] == 2
    assert {k: red_i[k] for k in keys} == {k: red_b[k] for k in keys}
    found = run_delete_matching(indexed, phrases)["found"]
    assert found >= 2 and found == run_delete_matching(bare, phrases)["found"]


def test_cli_index_and_search(store):
    from fileconvert_ray.__main__ import main

    assert main(["index", store]) == 0
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(["search", store, "--phrase", PHRASE]) == 0
    out = json.loads(buf.getvalue().strip().splitlines()[-1])
    ref = _reference_hits(PHRASE)
    assert out["docs"] == len(ref) and out["hits"] == sum(ref.values())
