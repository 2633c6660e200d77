"""The staged external shuffle's map side keeps its metadata honest
(SURVEY.md §8).

`stage_raw_task` records one (bucket, staged_path, row_group) row per
row group it writes; the reduce side trusts those indices, so they must
match the file's actual row groups even when pyarrow splits a slice.
"""

import pyarrow as pa


def test_stage_raw_row_group_indices_survive_pyarrow_split(tmp_path):
    """A staged slice over pyarrow's default 1,048,576-row row-group cap
    must not desync the recorded (bucket, row_group) indices — every
    recorded row group, read back, must contain only its bucket's rows
    and the union must cover the input exactly (round-3 ADVICE, high)."""
    import numpy as np
    import pyarrow.parquet as pq

    from fileconvert_ray.stages.encoder import bucket_of_part_ids, stage_raw_task

    n_big, n_small = 1_200_000, 3_000
    part_id = pa.array(["hot"] * n_big + ["p1"] * n_small + ["p2"] * n_small)
    batch = pa.table(
        {
            "part_id": part_id,
            "val": pa.array(np.arange(n_big + 2 * n_small, dtype=np.int32)),
        }
    )
    n_buckets = 4
    meta = stage_raw_task(batch, str(tmp_path / "staged"), n_buckets)
    # expected bucket per part_id from the same hash the stage uses
    exp_bucket = {
        p: int(bucket_of_part_ids(pa.array([p]), n_buckets)[0])
        for p in ("hot", "p1", "p2")
    }
    seen_vals = []
    for row in meta.to_pylist():
        pf = pq.ParquetFile(row["staged_path"])
        rg = pf.read_row_group(row["row_group"])
        pids = set(rg.column("part_id").to_pylist())
        assert {exp_bucket[p] for p in pids} == {row["bucket"]}, (
            f"row group {row['row_group']} holds part_ids {pids} "
            f"but was recorded under bucket {row['bucket']}"
        )
        seen_vals.append(rg.column("val").to_numpy(zero_copy_only=False))
    got = np.sort(np.concatenate(seen_vals))
    assert len(got) == batch.num_rows
    assert np.array_equal(got, np.arange(batch.num_rows, dtype=np.int32))
