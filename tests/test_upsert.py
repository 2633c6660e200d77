"""Upsert lifecycle (pipelines/upsert_job.py): seal -> tombstone ->
append, exactly one live version per doc afterwards."""

import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from fileconvert_ray.pipelines.encode_job import EncodeConfig, run_encode_files
from fileconvert_ray.pipelines.upsert_job import run_upsert
from fileconvert_ray.sources.tokseq import INPUT_SCHEMA, tokseq_table
from fileconvert_ray.stages.decoder import decode_dataset, lookup_docs


def _truncate_versions(t: pa.Table, ids: list[str], cap: int) -> pa.Table:
    """New versions of ``ids``: tokens truncated to the first ``cap``."""
    m = pc.is_in(pc.cast(t.column("doc_id"), pa.string()), value_set=pa.array(ids))
    sub = t.filter(m)
    toks = sub.column("tokens").combine_chunks()
    new_tokens = pa.array(
        [v[:cap] for v in toks.to_pylist()], type=pa.list_(pa.int32())
    )
    return pa.Table.from_arrays(
        [
            sub.column("doc_id"),
            new_tokens,
            pc.cast(pc.min_element_wise(sub.column("n_tok"), cap), pa.int32()),
            sub.column("source"),
        ],
        schema=INPUT_SCHEMA,
    )


@pytest.fixture
def corpus(ray_session, sf_dir, tmp_path):
    """Generational encode of the sf0.001 corpus from two shards."""
    t = tokseq_table(sf_dir)
    half = t.num_rows // 2
    base = tmp_path / "shards"
    base.mkdir()
    s1, s2 = str(base / "s1.parquet"), str(base / "s2.parquet")
    pq.write_table(t.slice(0, half), s1)
    pq.write_table(t.slice(half), s2)
    out = str(tmp_path / "enc")
    # 1_000-token target => >1 bucket per source, so the generation-
    # preserving compaction test below has real groups to merge
    run_encode_files(
        [s1, s2],
        EncodeConfig(out_dir=out, target_partition_tokens=1_000),
    ).materialize()
    return out, t, str(base)


def test_upsert_replaces_and_adds(corpus, tmp_path):
    out, t, _ = corpus
    all_ids = [str(d) for d in t.column("doc_id").to_pylist()]
    victims = sorted(all_ids)[:15]

    upd = _truncate_versions(t, victims, cap=5)
    # plus two brand-new docs
    new = pa.Table.from_pydict(
        {
            "doc_id": ["brandnew-1", "brandnew-2"],
            "tokens": pa.array([[1, 2, 3], [4]], type=pa.list_(pa.int32())),
            "n_tok": pa.array([3, 1], type=pa.int32()),
            "source": ["src0", "src1"],
        },
        schema=INPUT_SCHEMA,
    )
    shard = str(tmp_path / "upsert1.parquet")
    pq.write_table(pa.concat_tables([upd, new]), shard)

    res = run_upsert(
        out, [shard], EncodeConfig(out_dir=out, target_partition_tokens=5_000)
    )
    res["metrics"].materialize()
    assert res["replaced"] == len(victims)
    assert res["added_files"] == 1

    dec = decode_dataset(out).to_pandas()
    dec["doc_id"] = dec["doc_id"].astype(str)
    # exactly one version per doc, corpus grew by the two new docs
    assert dec["doc_id"].is_unique
    assert len(dec) == len(all_ids) + 2
    # updated docs carry the NEW tokens
    for v in victims[:5]:
        row = dec[dec["doc_id"] == v].iloc[0]
        assert row["n_tok"] <= 5
    # untouched docs keep the original payload bit-identically
    keep = sorted(set(all_ids) - set(victims))[0]
    orig = t.filter(
        pc.equal(pc.cast(t.column("doc_id"), pa.string()), keep)
    ).to_pandas().iloc[0]
    got = dec[dec["doc_id"] == keep].iloc[0]
    assert np.array_equal(got["tokens"], orig["tokens"])
    # lookup returns the new version only
    hit = lookup_docs(out, [victims[0]])
    assert hit.num_rows == 1
    assert hit.column("n_tok")[0].as_py() <= 5


def test_upsert_twice_converges(corpus, tmp_path):
    out, t, _ = corpus
    ids = sorted(str(d) for d in t.column("doc_id").to_pylist())[:6]
    cfg = lambda: EncodeConfig(out_dir=out, target_partition_tokens=5_000)

    s1 = str(tmp_path / "u1.parquet")
    pq.write_table(_truncate_versions(t, ids, cap=8), s1)
    run_upsert(out, [s1], cfg())["metrics"].materialize()

    s2 = str(tmp_path / "u2.parquet")
    pq.write_table(_truncate_versions(t, ids, cap=3), s2)
    res = run_upsert(out, [s2], cfg())
    res["metrics"].materialize()
    # the second upsert replaced BOTH physical versions (gen-1's live one
    # and, pre-purge, the original is already tombstoned so only found once)
    assert res["replaced"] >= len(ids)

    dec = decode_dataset(out).to_pandas()
    dec["doc_id"] = dec["doc_id"].astype(str)
    assert dec["doc_id"].is_unique
    for i in ids:
        assert dec[dec["doc_id"] == i].iloc[0]["n_tok"] <= 3

    # re-running the same upsert is a no-op (shards already in lineage)
    res2 = run_upsert(out, [s2], cfg())
    res2["metrics"].materialize()
    assert res2["replaced"] == 0 and res2["added_files"] == 0
    dec2 = decode_dataset(out).to_pandas()
    assert len(dec2) == len(dec)


def test_upsert_then_purge_then_verify(corpus, tmp_path):
    from fileconvert_ray.pipelines.delete_job import run_purge
    from fileconvert_ray.pipelines.verify_job import run_verify

    out, t, _ = corpus
    ids = sorted(str(d) for d in t.column("doc_id").to_pylist())[-10:]
    s = str(tmp_path / "u.parquet")
    pq.write_table(_truncate_versions(t, ids, cap=4), s)
    run_upsert(out, [s], EncodeConfig(out_dir=out, target_partition_tokens=5_000))[
        "metrics"
    ].materialize()
    run_purge(out).materialize()
    v = run_verify(None, out, mode="manifest").to_pandas()
    assert v["ok"].all()
    dec = decode_dataset(out).to_pandas()
    assert dec["doc_id"].astype(str).is_unique
    assert len(dec) == t.num_rows


def test_upsert_refuses_non_generational(ray_session, sf_dir, tmp_path):
    from fileconvert_ray.pipelines.encode_job import run_encode
    from fileconvert_ray.sources.tokseq import tokseq_dataset

    out = str(tmp_path / "legacy")
    run_encode(
        lambda: tokseq_dataset(sf_dir),
        EncodeConfig(out_dir=out, target_partition_tokens=5_000),
    ).materialize()
    with pytest.raises(RuntimeError, match="generational"):
        run_upsert(out, [f"{sf_dir}/documents.parquet"])


def test_snapshot_read_pins_generation(corpus, tmp_path):
    """max_gen decode returns exactly the gen-0 rows; generation-
    preserving compaction (the default) keeps snapshots readable;
    cross-generation compaction breaks the boundary and snapshot reads
    refuse afterwards."""
    from fileconvert_ray.pipelines.compact_job import run_compact
    from fileconvert_ray.stages.decoder import partitions_for_generations

    out, t, base = corpus  # built from two shards, single generation 0
    # append a second generation: 3 new docs
    new = pa.Table.from_pydict(
        {
            "doc_id": ["g1-a", "g1-b", "g1-c"],
            "tokens": pa.array([[1], [2, 3], [4]], type=pa.list_(pa.int32())),
            "n_tok": pa.array([1, 2, 1], type=pa.int32()),
            "source": ["src0", "src1", "src2"],
        },
        schema=INPUT_SCHEMA,
    )
    shard = str(tmp_path / "g1.parquet")
    pq.write_table(new, shard)
    prior = sorted(glob.glob(os.path.join(base, "*.parquet")))
    run_encode_files(
        prior + [shard],
        EncodeConfig(out_dir=out, target_partition_tokens=5_000),
    ).materialize()

    full = decode_dataset(out).count()
    snap0 = decode_dataset(out, max_gen=0).to_pandas()
    assert full == t.num_rows + 3
    assert len(snap0) == t.num_rows
    assert not snap0["doc_id"].astype(str).str.startswith("g1-").any()
    snap1 = decode_dataset(out, max_gen=1).count()
    assert snap1 == full

    # projected snapshot read composes with columns=
    assert decode_dataset(out, max_gen=0, columns=["n_tok"]).count() == t.num_rows

    # generation-preserving compaction (default): fewer partitions,
    # snapshot still returns exactly the gen-0 rows
    n_parts_before = len(partitions_for_generations(out, 10))
    m = run_compact(out, target_tokens=10_000_000).to_pandas()
    assert len(m) > 0, "fixture must produce compactable groups"
    assert len(partitions_for_generations(out, 10)) < n_parts_before
    snap0c = decode_dataset(out, max_gen=0).to_pandas()
    assert len(snap0c) == t.num_rows
    assert not snap0c["doc_id"].astype(str).str.startswith("g1-").any()
    assert decode_dataset(out, max_gen=1).count() == full

    # cross-generation compaction destroys the boundary -> refuse.
    # force mergeable groups by appending one more tiny generation
    # (default compaction above left ~1 container per (source, gen))
    new2 = new.set_column(0, "doc_id", pa.array(["g2-a", "g2-b", "g2-c"]))
    shard2 = str(tmp_path / "g2.parquet")
    pq.write_table(new2, shard2)
    run_encode_files(
        prior + [shard, shard2],
        EncodeConfig(out_dir=out, target_partition_tokens=5_000),
    ).materialize()
    mx = run_compact(out, target_tokens=10_000_000, preserve_generations=False).to_pandas()
    assert len(mx) > 0, "cross-gen compaction must form groups"
    with pytest.raises(RuntimeError, match="snapshot"):
        partitions_for_generations(out, 0)
    # unpinned reads still fine
    assert decode_dataset(out).count() == full + 3
