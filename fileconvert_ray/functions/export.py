"""Range-partitioned export — sort-free global range partitioning.

The scale primitive behind sorted/merge-friendly layouts: instead of a
full distributed sort (an all-to-all exchange of EVERY row), the data
makes exactly one streaming pass —

1. partition boundaries come from the mergeable KLL sketch
   (functions/sketches.py): rows moved are sketch-sized regardless of
   input size;
2. each batch assigns its rows to a range bucket with one vectorized
   searchsorted against the broadcast boundary vector;
3. `write_parquet(partition_cols=["range_bucket"])` lands one hive
   directory per range, and a `_range_manifest.json` records the
   boundary values so downstream consumers (merge readers, resumable
   re-runs) know each directory's key interval without opening it.

Bucket DISJOINTNESS is exact by construction (assignment is a pure
function of the value and the boundaries); only the bucket SIZES are
approximate — the KLL epsilon. A consumer gets globally range-ordered
directories whose contents it can sort locally, i.e. the classic
external-sort layout without paying the shuffle here.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..state.manifest import publishing

__all__ = ["range_partition_parquet", "read_range"]


def _as_f64(col, t: pa.DataType) -> np.ndarray:
    if pa.types.is_timestamp(t) or pa.types.is_date(t):
        col = pc.cast(col, pa.int64())
    return pc.cast(col, pa.float64()).to_numpy(zero_copy_only=False)


def range_partition_parquet(
    input_path: str,
    out_dir: str,
    by: str,
    *,
    n_partitions: int = 16,
    columns: list[str] | None = None,
    kll_k: int = 256,
) -> dict:
    """Export ``input_path`` hive-partitioned into ``n_partitions``
    range buckets of the numeric/temporal column ``by``.  Returns the
    manifest dict (boundaries, per-bucket row counts)."""
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    from .sketches import kll_quantiles

    t = pq.read_schema(input_path).field(by).type

    qs = [i / n_partitions for i in range(1, n_partitions)]
    qt = kll_quantiles(rd.read_parquet(input_path, columns=[by]), by, qs, k=kll_k)
    bounds = np.unique(qt.column("est").to_numpy(zero_copy_only=False))
    bref = ray.put(bounds)

    ds = rd.read_parquet(input_path, columns=columns)

    def assign(batch: pa.Table) -> pa.Table:
        b = np.searchsorted(ray.get(bref), _as_f64(batch.column(by), t), side="right")
        return batch.append_column("range_bucket", pa.array(b.astype(np.int64)))

    tagged = ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)
    tagged.write_parquet(out_dir, partition_cols=["range_bucket"])

    # per-bucket counts from parquet FOOTERS only — no data re-read
    buckets: dict[str, int] = {}  # str keys: JSON round-trip identity
    for d in sorted(os.listdir(out_dir)):
        if not d.startswith("range_bucket="):
            continue
        bid = str(int(d.split("=", 1)[1]))
        n = 0
        sub = os.path.join(out_dir, d)
        for fn in os.listdir(sub):
            if fn.endswith(".parquet"):
                n += pq.read_metadata(os.path.join(sub, fn)).num_rows
        buckets[bid] = n
    manifest = {
        "by": by,
        "boundaries": [float(x) for x in bounds],
        "buckets": buckets,
        "n_rows": int(sum(buckets.values())),
    }
    with publishing(os.path.join(out_dir, "_range_manifest.json")) as tmp, open(tmp, "w") as f:
        json.dump(manifest, f)
    return manifest


def read_range(out_dir: str, lo: float | None = None, hi: float | None = None,
               *, columns: list[str] | None = None):
    """Read back a ``range_partition_parquet`` layout restricted to
    key interval [lo, hi) — the manifest prunes whole bucket
    directories BEFORE any file opens (bucket i spans
    [boundaries[i-1], boundaries[i])), and a residual row filter
    trims the two edge buckets.  A selective range touches O(1)
    directories regardless of table size."""
    import ray.data as rd

    with open(os.path.join(out_dir, "_range_manifest.json")) as f:
        man = json.load(f)
    bounds = np.asarray(man["boundaries"], dtype=np.float64)
    by = man["by"]

    first = 0 if lo is None else int(np.searchsorted(bounds, lo, side="right"))
    last = len(bounds) if hi is None else int(np.searchsorted(bounds, hi, side="left"))
    files = []
    for b in range(first, last + 1):
        if str(b) not in man["buckets"]:
            continue
        d = os.path.join(out_dir, f"range_bucket={b}")
        files.extend(
            os.path.join(d, fn) for fn in sorted(os.listdir(d)) if fn.endswith(".parquet")
        )
    if not files:
        return rd.from_items([])
    # the residual trim needs the range key: when a projection excludes
    # it, read it anyway and drop it after filtering (same extra-column
    # pattern as decode_dataset's predicate columns — round-4 advice)
    read_cols = columns
    drop_by = False
    if columns is not None and (lo is not None or hi is not None) and by not in columns:
        read_cols = list(columns) + [by]
        drop_by = True
    ds = rd.read_parquet(files, columns=read_cols)

    def trim(batch: pa.Table) -> pa.Table:
        if "range_bucket" in batch.column_names:  # layout metadata, not user data
            batch = batch.drop_columns(["range_bucket"])
        if lo is None and hi is None:
            return batch
        v = _as_f64(batch.column(by), batch.schema.field(by).type)
        m = np.ones(len(v), dtype=bool)
        if lo is not None:
            m &= v >= lo
        if hi is not None:
            m &= v < hi
        batch = batch.filter(pa.array(m))
        if drop_by:
            batch = batch.drop_columns([by])
        return batch

    return ds.map_batches(trim, batch_format="pyarrow", zero_copy_batch=True)
