"""CLI smoke tests (reference R6 argv surface; round-1 verdict gap #3).

Each invocation is a fresh subprocess owning its own Ray session, so
these do NOT use the shared ray_session fixture.  The CLI sizes that
session to the host's CPUs (no env var pins it), so Ray Data's default
block count varies by host and CLI assertions must not depend on it.
"""

import json
import os
import subprocess
import sys

import pyarrow as pa
import pyarrow.parquet as pq

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(*args):
    env = dict(os.environ, PYTHONPATH=REPO)
    out = subprocess.run(
        [sys.executable, "-m", "fileconvert_ray", *args],
        capture_output=True, text=True, cwd=REPO, env=env, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_cli_convert_roundtrip(tmp_path):
    from fileconvert_ray.sources.csvio import write_fixture_csv

    csv_in = str(tmp_path / "in.csv")
    write_fixture_csv(csv_in, n=200)
    pq_dir = str(tmp_path / "pq")
    r = run_cli("convert", csv_in, "--out", pq_dir, "--type", "id=int64")
    assert r["ok"]
    files = [f for f in os.listdir(pq_dir) if f.endswith(".parquet")]
    assert files
    t = pq.read_table(pq_dir)
    assert t.num_rows == 200
    csv_out = str(tmp_path / "csv_back")
    r = run_cli("convert", pq_dir, "--out", csv_out, "--to", "csv")
    assert r["ok"]


def test_cli_convert_feather(tmp_path):
    """parquet -> feather -> parquet value round-trip via the CLI."""
    import pyarrow.feather  # noqa: F401  (format availability)

    src = str(tmp_path / "src")
    os.makedirs(src)
    t = pa.table({"id": list(range(100)), "name": [f"n{i}" for i in range(100)]})
    pq.write_table(t, os.path.join(src, "a.parquet"))
    fdir = str(tmp_path / "fth")
    r = run_cli("convert", src, "--out", fdir, "--to", "feather")
    assert r["ok"] and any(f.endswith(".arrow") for f in os.listdir(fdir))
    back = str(tmp_path / "back")
    r = run_cli("convert", fdir, "--out", back)
    assert r["ok"]
    got = pq.read_table(back).sort_by("id")
    assert got.equals(t)


def test_cli_encode_verify_decode(tmp_path):
    from fileconvert_ray.sources.tokseq import synth_rows

    shard_dir = tmp_path / "toks"
    shard_dir.mkdir()
    pq.write_table(synth_rows(0, 400), str(shard_dir / "part-0.parquet"))
    out = str(tmp_path / "enc")
    r = run_cli(
        "encode", str(shard_dir), "--out", out, "--target-partition-tokens", "30000"
    )
    assert r["ok"] and r["n_rows"] == 400
    v = run_cli("verify", str(shard_dir), "--out", out, "--mode", "hash")
    assert v["ok"] and v["n_mismatch"] == 0
    dec_dir = str(tmp_path / "dec")
    d = run_cli("decode", out, "--to", dec_dir)
    assert d["ok"]
    t = pq.read_table(dec_dir)
    assert t.num_rows == 400


def test_cli_pack_and_dedup(tmp_path):
    """pack: chunk count and token conservation; dedup: survivor count."""
    import numpy as np

    rng = np.random.default_rng(3)
    lens = rng.integers(5, 60, 400)
    toks = pa.array(
        [list(map(int, rng.integers(0, 1000, n))) for n in lens],
        type=pa.list_(pa.int32()),
    )
    t = pa.table({
        "doc_id": pa.array(np.arange(400), type=pa.int64()),
        "tokens": toks,
        "n_tok": pa.array(lens, type=pa.int32()),
        "source": pa.array(["s"] * 400),
    })
    src = str(tmp_path / "toks.parquet")
    pq.write_table(t, src)
    out = str(tmp_path / "packed")
    r = run_cli("pack", src, "--out", out, "--seq-len", "128", "--buckets", "4")
    total = int(lens.sum())
    assert r["ok"] and r["chunks"] == (total + 127) // 128
    packed = pq.read_table(out)
    assert sum(len(x) for x in packed.column("tokens").to_pylist()) == total

    docs = pa.table({
        "doc_id": pa.array(np.arange(50), type=pa.int64()),
        "text": pa.array([f"body {i % 20}" for i in range(50)]),
    })
    dsrc = str(tmp_path / "docs.parquet")
    pq.write_table(docs, dsrc)
    dout = str(tmp_path / "dedup")
    r = run_cli("dedup", dsrc, "--out", dout, "--strategy", "join")
    assert r["ok"] and r["survivors"] == 20


def test_cli_compact_then_source_verify(tmp_path):
    """encode with tiny partitions -> compact -> partition count drops;
    verify --mode hash --by source stays green from a fresh process."""
    from fileconvert_ray.sources.tokseq import synth_rows

    shard_dir = tmp_path / "toks"
    shard_dir.mkdir()
    pq.write_table(synth_rows(0, 400), str(shard_dir / "part-0.parquet"))
    enc = str(tmp_path / "enc")
    r = run_cli("encode", str(shard_dir), "--out", enc,
                "--target-partition-tokens", "20000")
    parts_before = r["partitions"]
    assert parts_before > 4
    rc = run_cli("compact", enc, "--target-tokens", "200000")
    assert rc["ok"] and rc["rewritten"] > 0
    rv = run_cli("verify", str(shard_dir), "--out", enc,
                 "--mode", "hash", "--by", "source")
    assert rv["ok"] and rv["n_mismatch"] == 0


def test_cli_encode_rejects_untokenized_input():
    """encode/encode-inc fail fast with a readable message on raw
    document tables instead of dying mid-pipeline with a block dump."""
    env = dict(os.environ, PYTHONPATH=REPO)
    for cmd in ("encode", "encode-inc"):
        out = subprocess.run(
            [sys.executable, "-m", "fileconvert_ray", cmd,
             "/root/testdata/sf0.001/documents.parquet", "--out", "/tmp/_rejected"],
            capture_output=True, text=True, cwd=REPO, env=env, timeout=120,
        )
        assert out.returncode != 0
        assert "missing column(s)" in out.stderr and "tokens" in out.stderr


def test_cli_convert_jsonl(tmp_path):
    """parquet -> jsonl -> parquet value round-trip via the CLI (int64
    and string columns; temporal types must be canonicalized to epoch
    ints by the caller, as q_jsonl_export_roundtrip does)."""
    src = str(tmp_path / "src")
    os.makedirs(src)
    t = pa.table(
        {
            "id": pa.array(list(range(100)), pa.int64()),
            "name": [f"n{i}" for i in range(100)],
            "big": pa.array([2**62 + i for i in range(100)], pa.int64()),
        }
    )
    pq.write_table(t, os.path.join(src, "a.parquet"))
    jdir = str(tmp_path / "jl")
    r = run_cli("convert", src, "--out", jdir, "--to", "jsonl")
    assert r["ok"] and any(f.endswith(".json") for f in os.listdir(jdir))
    back = str(tmp_path / "back")
    r = run_cli("convert", jdir, "--out", back)
    assert r["ok"]
    got = pq.read_table(back).sort_by("id").select(t.column_names)
    assert got.equals(t)


def test_cli_curate_end_to_end(tmp_path):
    """curate = dedup -> quality filter -> split -> encode(train) ->
    hash-verify, one subprocess.  Split assignment must match the
    oracle rule (md5 hex cut) and the train split must round-trip."""
    out = str(tmp_path / "cur")
    r = run_cli(
        "curate", "/root/testdata/sf0.001/documents.parquet",
        "--out", out, "--target-partition-tokens", "5000",
    )
    assert r["ok"] and r["verify_ok"]
    assert r["n_input"] == 500
    assert r["n_curated"] == sum(r["splits"].values()) > 0
    assert r["splits"]["train"] > r["splits"]["val"] + r["splits"]["test"]
    assert r["encoded_partitions"] > 0 and r["n_tokens"] > 0
    # curated output is hive-partitioned by split and keeps full rows
    t = pq.read_table(f"{out}/curated/split=train")
    assert {"doc_id", "text", "source"} <= set(t.column_names)
    # no doc crosses splits; filter boundaries respected
    import hashlib

    from fileconvert_ray.functions.queries import (
        C4_MAX_WORDS,
        C4_MIN_WORDS,
        SPLIT_TEST_CUT,
    )

    nw = [len(s.split(" ")) for s in t.column("text").to_pylist()]
    assert min(nw) >= C4_MIN_WORDS and max(nw) <= C4_MAX_WORDS
    for d in t.column("doc_id").to_pylist()[:50]:
        assert hashlib.md5(str(d).encode()).hexdigest()[:6] >= SPLIT_TEST_CUT

    # re-run into the SAME out dir: curated counts must not double
    # (rewrite, not append) and the encode stage must fully resume
    r2 = run_cli(
        "curate", "/root/testdata/sf0.001/documents.parquet",
        "--out", out, "--target-partition-tokens", "5000",
    )
    assert r2["ok"] and r2["verify_ok"]
    assert r2["splits"] == r["splits"] and r2["n_curated"] == r["n_curated"]
    assert r2["encoded_partitions"] == 0  # all partitions skipped via manifest
    assert r2["total_partitions"] == r["total_partitions"] > 0
    assert r2["n_tokens"] == r["n_tokens"]


def test_cli_curate_near_dedup_and_decontam(tmp_path):
    """curate --near-dedup drops MinHash near-copies (at most one
    member of every planted pair survives); curate --decontam drops
    every doc sharing a word 3-gram with the eval set (the planted
    verbatim-overlap docs must vanish)."""
    import pyarrow.dataset as pds

    from fileconvert_ray.functions.textstats import quality_batch
    from fileconvert_ray.functions.queries import C4_MIN_STOP, C4_MIN_WORDS, C4_MAX_WORDS

    base = pq.read_table(
        "/root/testdata/sf0.001/documents.parquet"
    ).replace_schema_metadata(None)
    q = quality_batch(base)
    nw = q.column("n_words").to_numpy(zero_copy_only=False)
    sr = q.column("stop_ratio").to_numpy(zero_copy_only=False)
    passing = [
        int(i)
        for i in range(base.num_rows)
        if C4_MIN_WORDS <= nw[i] <= C4_MAX_WORDS and sr[i] >= C4_MIN_STOP
    ][:8]
    assert len(passing) >= 6, "fixture drifted: too few quality-passing docs"

    # plant near-duplicates: same text with the last word swapped, so
    # exact dedup keeps them but 3-shingle Jaccard stays >> 0.7
    dup_src, eval_src = passing[:4], passing[4:6]
    cols = {n: [] for n in base.column_names}
    for j, i in enumerate(dup_src):
        row = {n: base.column(n)[i].as_py() for n in base.column_names}
        words = row["text"].split(" ")
        words[-1] = "zz" + words[-1]
        row["text"] = " ".join(words)
        row["doc_id"] = 10_000 + j
        row["n_chars"] = len(row["text"])
        for n in base.column_names:
            cols[n].append(row[n])
    extra = pa.table(cols, schema=base.schema)

    src = tmp_path / "docs"
    src.mkdir()
    pq.write_table(base, str(src / "base.parquet"))
    pq.write_table(extra, str(src / "dups.parquet"))
    eval_pq = str(tmp_path / "eval.parquet")
    pq.write_table(
        pa.table({"text": [base.column("text")[i].as_py() for i in eval_src]}), eval_pq
    )

    def curated_ids(out):
        return set(
            pds.dataset(f"{out}/curated", partitioning="hive")
            .to_table(columns=["doc_id"])
            .column("doc_id")
            .to_pylist()
        )

    plain = run_cli("curate", str(src), "--out", str(tmp_path / "o0"), "--no-encode")
    assert not plain["near_dedup"] and not plain["decontaminated"]
    ids0 = curated_ids(tmp_path / "o0")
    assert all(10_000 + j in ids0 for j in range(4))  # copies survive a plain run

    near = run_cli(
        "curate", str(src), "--out", str(tmp_path / "o1"), "--no-encode", "--near-dedup"
    )
    assert near["near_dedup"] and near["n_curated"] < plain["n_curated"]
    ids1 = curated_ids(tmp_path / "o1")
    for j, i in enumerate(dup_src):
        assert not ({i, 10_000 + j} <= ids1), f"near-dup pair ({i},{10_000 + j}) survived"

    dec = run_cli(
        "curate", str(src), "--out", str(tmp_path / "o2"), "--no-encode",
        "--decontam", eval_pq,
    )
    assert dec["decontaminated"] and dec["n_curated"] < plain["n_curated"]
    ids2 = curated_ids(tmp_path / "o2")
    assert not (set(eval_src) & ids2), "eval-overlap docs leaked through decontam"


def test_cli_query(tmp_path):
    """query subcommand: --list enumerates the registry; a named run
    prints head rows; --out writes parquet."""
    r = run_cli("query", "--list")
    assert "per_source_stats" in r["queries"]
    assert set(r["oracle_checked"]) <= set(r["queries"])

    r = run_cli("query", "distinct_sources", "--sf-dir", "/root/testdata/sf0.001")
    assert r["ok"] and len(r["head"]) > 0 and "source" in r["head"][0]

    # --check runs the DuckDB oracle side-by-side (the self-service
    # version of the driver's correctness gate)
    r = run_cli("query", "per_source_stats", "--sf-dir", "/root/testdata/sf0.001",
                "--check")
    assert r["ok"] and r["rows_match"] and r["cols_match"] and r["vals_match"]

    out = str(tmp_path / "res")
    r = run_cli("query", "per_source_stats", "--sf-dir", "/root/testdata/sf0.001",
                "--out", out)
    assert r["ok"] and r["rows"] == 20
    assert pq.read_table(out).num_rows == 20


def test_cli_profile():
    r = run_cli("profile", "/root/testdata/sf0.001/orders.parquet")
    cols = {p["column"]: p for p in r["profile"]}
    assert r["ok"] and len(cols) == 6
    assert cols["o_orderkey"]["n_nulls"] == 0
    assert cols["o_orderpriority"]["n_distinct"] == 5


def test_cli_export_range(tmp_path):
    out = str(tmp_path / "rx")
    r = run_cli("export-range", "/root/testdata/sf0.001/orders.parquet",
                "--out", out, "--by", "o_totalprice", "--partitions", "4")
    assert r["ok"] and r["n_rows"] == 1500 and len(r["buckets"]) == 4


def test_cli_sort_global_order(tmp_path):
    """sort subcommand: name-sorted output files hold a globally sorted
    sequence (the writer embeds the block index in the filename)."""
    out = str(tmp_path / "sorted")
    r = run_cli("sort", "/root/testdata/sf0.001/orders.parquet",
                "--out", out, "--by", "o_totalprice")
    assert r["ok"] and r["rows"] == 1500
    prev = float("-inf")
    for fn in sorted(os.listdir(out)):
        v = pq.read_table(os.path.join(out, fn), columns=["o_totalprice"])
        v = v.column("o_totalprice").to_numpy()
        if not len(v):
            continue
        assert v[0] >= prev and (v[1:] >= v[:-1]).all()
        prev = v[-1]


def test_cli_lookup(tmp_path):
    from fileconvert_ray.sources.tokseq import synth_rows

    shard_dir = tmp_path / "toks"
    shard_dir.mkdir()
    t = synth_rows(0, 400)
    pq.write_table(t, str(shard_dir / "part-0.parquet"))
    enc = str(tmp_path / "enc")
    run_cli("encode", str(shard_dir), "--out", enc,
            "--target-partition-tokens", "3000")
    ids = t.column("doc_id").to_pylist()[:2]
    r = run_cli("lookup", enc, "--ids", ",".join(ids))
    assert r["ok"] and r["rows"] == 2
    assert sorted(d["doc_id"] for d in r["docs"]) == sorted(ids)


def test_cli_inspect(tmp_path):
    from fileconvert_ray.sources.tokseq import synth_rows

    shard_dir = tmp_path / "toks"
    shard_dir.mkdir()
    pq.write_table(synth_rows(0, 300), str(shard_dir / "part-0.parquet"))
    enc = str(tmp_path / "enc")
    run_cli("encode", str(shard_dir), "--out", enc, "--target-partition-tokens", "5000")
    r = run_cli("inspect", enc)
    assert r["ok"] and r["n_rows"] == 300 and r["partitions"] > 1
    assert r["n_tokens"] > 0 and 0 < r["bytes_per_token"] < 4
    assert any(k.startswith("tokens:") for k in r["codec_mix"])


def test_cli_encode_inc_append(tmp_path):
    """encode-inc: second invocation with a grown shard list encodes
    only the new shard; verify needs no input arg (lineage in plan)."""
    from fileconvert_ray.sources.tokseq import synth_rows

    shard_dir = tmp_path / "toks"
    shard_dir.mkdir()
    pq.write_table(synth_rows(0, 300, n_sources=4), str(shard_dir / "s0.parquet"))
    out = str(tmp_path / "enc")
    r = run_cli("encode-inc", str(shard_dir), "--out", out,
                "--target-partition-tokens", "500000")
    assert r["ok"] and r["n_rows"] == 300

    pq.write_table(synth_rows(300, 500, n_sources=4), str(shard_dir / "s1.parquet"))
    r2 = run_cli("encode-inc", str(shard_dir), "--out", out,
                 "--target-partition-tokens", "500000")
    assert r2["ok"] and r2["n_rows"] == 200  # only the appended shard

    v = run_cli("verify", "--out", out, "--mode", "hash")
    assert v["ok"] and v["n_mismatch"] == 0


def test_cli_table_encode_decode(tmp_path):
    """Any-table containers via the CLI: encode orders, projected +
    zone-map-filtered decode, append mode, and exact value parity."""
    sf = "/root/testdata/sf0.001"
    enc = str(tmp_path / "tc")
    r = run_cli("table-encode", f"{sf}/orders.parquet", "--out", enc, "--batch-rows", "500")
    assert r["ok"] and r["n_rows"] == 1500 and r["encoded_bytes"] < r["plain_bytes"]

    dec = str(tmp_path / "dec")
    r = run_cli(
        "table-decode", enc, "--to", dec,
        "--columns", "o_orderkey", "--where", "o_totalprice:50000:150000",
    )
    assert r["ok"]
    got = pq.read_table(dec)
    orig = pq.read_table(f"{sf}/orders.parquet").to_pandas()
    want = orig[(orig.o_totalprice >= 50000) & (orig.o_totalprice <= 150000)]
    assert got.column_names == ["o_orderkey"]
    assert sorted(got.column("o_orderkey").to_pylist()) == sorted(want.o_orderkey)

    r = run_cli("table-encode", f"{sf}/orders.parquet", "--out", enc,
                "--batch-rows", "500", "--append")
    assert r["ok"]
    dec2 = str(tmp_path / "dec2")
    r = run_cli("table-decode", enc, "--to", dec2, "--columns", "o_orderkey")
    assert pq.read_table(dec2).num_rows == 3000


def test_cli_table_sort_compact_inspect(tmp_path):
    """--sort-by yields aggressively prunable zone maps; table-compact
    defragments the >= 60 tiny containers that --batch-rows 25 makes of
    1,500 rows into one; table-inspect reconciles."""
    from fileconvert_ray.sources.tablecontainer import file_pruned

    sf = "/root/testdata/sf0.001"
    enc = str(tmp_path / "tc")
    r = run_cli("table-encode", f"{sf}/orders.parquet", "--out", enc,
                "--sort-by", "o_totalprice", "--batch-rows", "25")
    assert r["ok"] and r["files"] >= -(-r["n_rows"] // 25)
    files = [os.path.join(enc, f) for f in os.listdir(enc) if f.startswith("part-")]
    pruned = sum(file_pruned(f, "o_totalprice", 50_000.0, 80_000.0) for f in files)
    assert pruned >= len(files) * 3 // 4, f"{pruned}/{len(files)}"

    cmp_dir = str(tmp_path / "cmp")
    r2 = run_cli("table-compact", enc, "--to", cmp_dir, "--batch-rows", "100000")
    assert r2["ok"] and r2["files"] == 1 and r2["n_rows"] == r["n_rows"]
    assert r2["encoded_bytes"] < r["encoded_bytes"]

    ins = run_cli("table-inspect", cmp_dir)
    assert sum(c["enc_bytes"] for c in ins["columns"]) == r2["encoded_bytes"]


def test_cli_encode_drifted_dtypes(tmp_path):
    """Third-party tokenizer dumps come in as int64 doc_id / list<int64>
    tokens; the CLI must normalize to INPUT_SCHEMA instead of dying in
    the hash stage (round-5: normalize_tokseq cast path)."""
    shard = str(tmp_path / "in.parquet")
    pq.write_table(
        pa.table({
            "doc_id": pa.array([10, 11, 12], pa.int64()),
            "tokens": pa.array([[1, 2, 3], [4], [5, 6]], pa.list_(pa.int64())),
            "n_tok": pa.array([3, 1, 2], pa.int64()),
            "source": pa.array(["s0", "s0", "s1"]).dictionary_encode(),
        }),
        shard)
    out = str(tmp_path / "enc")
    r = run_cli("encode", shard, "--out", out)
    assert r["ok"] and r["n_rows"] == 3 and r["n_tokens"] == 6
    dec_dir = str(tmp_path / "dec")
    assert run_cli("decode", out, "--to", dec_dir)["ok"]
    t = pq.read_table(dec_dir).sort_by("doc_id")
    assert t.column("doc_id").to_pylist() == ["10", "11", "12"]
    assert t.column("tokens").to_pylist() == [[1, 2, 3], [4], [5, 6]]


def test_cli_tokenize_detokenize_roundtrip(tmp_path):
    """tokenize -> encode -> decode -> detokenize reproduces the
    original text bit-exactly, and a frozen vocab maps unseen words to
    the reserved OOV id (round-5 tokenize front door)."""
    tok = str(tmp_path / "tok")
    r = run_cli("tokenize", "/root/testdata/sf0.001/documents.parquet", "--out", tok)
    assert r["ok"] and r["n_docs"] == 500 and r["vocab_size"] == 31
    assert os.path.exists(os.path.join(tok, "vocab.json"))

    enc = str(tmp_path / "enc")
    assert run_cli("encode", r["shards_dir"], "--out", enc)["ok"]
    dec = str(tmp_path / "dec")
    assert run_cli("decode", enc, "--to", dec)["ok"]
    back = str(tmp_path / "back")
    assert run_cli("detokenize", dec, "--out", back,
                   "--vocab", os.path.join(tok, "vocab.json"))["ok"]
    orig = pq.read_table(
        "/root/testdata/sf0.001/documents.parquet",
        columns=["doc_id", "text", "source"],
    ).sort_by("doc_id")
    got = pq.read_table(back).select(["doc_id", "text", "source"])
    assert sorted(got.column("text").to_pylist()) == sorted(orig.column("text").to_pylist())
    assert got.num_rows == 500

    # frozen vocab: unseen word -> OOV id -> "<unk>" on the way back
    nd = str(tmp_path / "nd.parquet")
    pq.write_table(
        pa.table({"doc_id": [99], "text": ["zzz-unseen zzz-unseen"], "source": ["s"]}),
        nd)
    tok2 = str(tmp_path / "tok2")
    r2 = run_cli("tokenize", nd, "--out", tok2,
                 "--vocab", os.path.join(tok, "vocab.json"))
    assert r2["frozen_vocab"] and r2["oov_id"] == 31
    t = pq.read_table(r2["shards_dir"])
    assert t.column("tokens").to_pylist() == [[31, 31]]
    back2 = str(tmp_path / "back2")
    assert run_cli("detokenize", tok2, "--out", back2)["ok"]
    assert pq.read_table(back2).column("text").to_pylist() == ["<unk> <unk>"]


def test_cli_merge(tmp_path):
    """merge unions a second encoded corpus as new generations; re-run
    is a no-op; a held lock on the dest refuses with exit 3."""
    from fileconvert_ray.sources.tokseq import synth_rows

    sh = tmp_path / "sh"
    sh.mkdir()
    t = synth_rows(0, 300)
    pq.write_table(t.slice(0, 150), str(sh / "a.parquet"))
    pq.write_table(t.slice(150), str(sh / "b.parquet"))
    A, B = str(tmp_path / "A"), str(tmp_path / "B")
    assert run_cli("encode-inc", str(sh / "a.parquet"), "--out", A,
                   "--target-partition-tokens", "20000")["ok"]
    assert run_cli("encode-inc", str(sh / "b.parquet"), "--out", B,
                   "--target-partition-tokens", "20000")["ok"]
    r = run_cli("merge", B, "--out", A)
    assert r["ok"] and r["merged_partitions"] > 0 and r["hardlinked"]
    assert run_cli("verify", "--out", A, "--mode", "hash")["ok"]
    dec = str(tmp_path / "dec")
    assert run_cli("decode", A, "--to", dec)["ok"]
    assert pq.read_table(dec).num_rows == 300
    r2 = run_cli("merge", B, "--out", A)
    assert r2["merged_partitions"] == 0 and r2["skipped_partitions"] == r["merged_partitions"]


def test_cli_ingest_incremental(tmp_path):
    """ingest = fused tokenize+encode over raw documents: two
    incremental runs (second under the frozen vocab), input-free hash
    verify via ingest.json, decode + detokenize closes the loop."""
    docs = pq.read_table("/root/testdata/sf0.001/documents.parquet",
                         columns=["doc_id", "text", "source"])
    h = docs.num_rows // 2
    s1, s2 = str(tmp_path / "d1.parquet"), str(tmp_path / "d2.parquet")
    pq.write_table(docs.slice(0, h), s1)
    pq.write_table(docs.slice(h), s2)
    enc = str(tmp_path / "enc")
    r1 = run_cli("ingest", s1, "--out", enc, "--target-partition-tokens", "3000")
    assert r1["ok"] and r1["n_rows"] == h and not r1["frozen_vocab"]
    r2 = run_cli("ingest", s1, s2, "--out", enc, "--target-partition-tokens", "3000")
    assert r2["ok"] and r2["n_rows"] == docs.num_rows - h and r2["frozen_vocab"]
    # verify is input-free: lineage + frozen vocab reconstruct the reader
    v = run_cli("verify", "--out", enc, "--mode", "hash")
    assert v["ok"] and v["n_mismatch"] == 0
    # and ONLY the appended generation re-verifies incrementally
    v1 = run_cli("verify", "--out", enc, "--mode", "hash", "--gens", "1")
    assert v1["ok"]
    dec = str(tmp_path / "dec")
    assert run_cli("decode", enc, "--to", dec)["ok"]
    back = str(tmp_path / "back")
    assert run_cli("detokenize", dec, "--out", back,
                   "--vocab", os.path.join(enc, "vocab.json"))["ok"]
    got = pq.read_table(back)
    assert sorted(got.column("text").to_pylist()) == sorted(
        docs.column("text").to_pylist()
    )


def test_cli_ingest_dedup_against_corpus(tmp_path):
    """Continuous-crawl loop: the appended shard carries re-fetches of
    already-ingested docs (same text, fresh doc_ids) plus novel docs —
    ingest --dedup-exact must tombstone exactly the re-fetches."""
    import pyarrow as pa
    import pyarrow.compute as pc

    docs = pq.read_table("/root/testdata/sf0.001/documents.parquet",
                         columns=["doc_id", "text", "source"])
    docs = docs.set_column(
        0, "doc_id", pc.cast(docs.column("doc_id"), pa.string())
    )
    h = docs.num_rows // 2
    s1, s2 = str(tmp_path / "d1.parquet"), str(tmp_path / "d2.parquet")
    pq.write_table(docs.slice(0, h), s1)
    refetch = docs.slice(0, 25).set_column(
        0, "doc_id",
        pc.binary_join_element_wise(
            pa.array(["rf-"] * 25),
            docs.slice(0, 25).column("doc_id").combine_chunks(),
            "",
        ),
    )
    pq.write_table(pa.concat_tables([docs.slice(h), refetch]), s2)
    enc = str(tmp_path / "enc")
    r1 = run_cli("ingest", s1, "--out", enc, "--target-partition-tokens", "3000")
    assert r1["ok"]
    r2 = run_cli("ingest", s1, s2, "--out", enc,
                 "--target-partition-tokens", "3000", "--dedup-exact")
    assert r2["ok"] and r2["duplicates_tombstoned"] == 25
    dec = str(tmp_path / "dec")
    assert run_cli("decode", enc, "--to", dec, "--columns", "doc_id")["ok"]
    got = set(pq.read_table(dec).column("doc_id").to_pylist())
    want = {str(d) for d in docs.column("doc_id").to_pylist()}
    assert got == want  # all originals present, zero rf-* survivors


def test_cli_annotate_attach(tmp_path):
    """annotate writes co-partitioned side tables; decode --with-ann
    attaches them; idempotent re-run skips; stale-after-purge raises."""
    from fileconvert_ray.sources.tokseq import synth_rows

    sh = str(tmp_path / "in.parquet")
    pq.write_table(synth_rows(0, 300), sh)
    enc = str(tmp_path / "enc")
    assert run_cli("encode", sh, "--out", enc,
                   "--target-partition-tokens", "20000")["ok"]
    r = run_cli("annotate", enc)
    assert r["ok"] and r["written"] == r["partitions"] > 0
    r2 = run_cli("annotate", enc)
    assert r2["written"] == 0 and r2["skipped"] == r["partitions"]
    dec = str(tmp_path / "dec")
    assert run_cli("decode", enc, "--to", dec, "--columns", "doc_id,n_tok",
                   "--with-ann", "token_stats")["ok"]
    t = pq.read_table(dec)
    assert {"doc_id", "n_tok", "n_distinct", "distinct_ratio",
            "repetition_ratio", "max_run"} <= set(t.column_names)
    assert t.num_rows == 300
    import pyarrow.compute as pc
    assert pc.all(pc.and_(
        pc.greater(t.column("distinct_ratio"), 0.0),
        pc.less_equal(t.column("n_distinct"), t.column("n_tok")),
    )).as_py()
