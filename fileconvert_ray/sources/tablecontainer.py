"""Generic columnar container: encode ANY tabular Dataset with the
codec registry (SURVEY.md §2.2 E5/E8 generalized beyond the tokseq
schema, mirroring the reference converter's any-table scope).

Every input block becomes one container parquet holding ONE ROW PER
ENCODED COLUMN (column name, codec id, params JSON, payload bytes,
CRC) — the same layout the flagship tokseq containers use, but driven
off the block's own schema, so every codec in the registry (dict /
RLE / FOR-bitpack / FSST / rANS / ALP / ALP-RD / plane) participates
through the measured-size auto-selector.  List columns split into a
lengths stream and a flattened values stream (``name#len`` /
``name#val``), each encoded independently — the exact trick the
flagship uses for ``tokens`` — and are re-assembled on decode.  The
split RECURSES: ``list<list<T>>`` nests as ``name#val#len`` /
``name#val#val``; ``struct`` columns shred per child as
``name.child`` (the Dremel/Parquet column-striping idea, re-expressed
over this registry); nullable lists/structs carry a ``name#null``
validity stream (scalar leaves persist validity inside their codec
params instead, so they pay nothing extra here).

Container rows are written one ROW GROUP each (row_group_size=1) so a
projected read (``columns=[...]``) prunes other columns' payloads at
the parquet row-group level instead of hauling them off disk.

Write is tmp+rename per file (crash-safe — a partial job never leaves
a half-written container); the Arrow schema is persisted to
``_schema.json`` so decode rebuilds the exact dtypes (timestamp
units, list element types) with no inference.

Scale notes (100-TB posture): the write streams block-by-block with
no driver materialization and no exchange — wall time scales with
nodes like any map stage.  Containers are uuid-named, so this sink is
NOT partition-resumable like the flagship tokseq encode (which keys
resume off its persisted partition plan); the crash-recovery unit
here is the append GENERATION — re-run the failed generation into a
fresh dir, or partition a huge ingest into several ``mode="append"``
writes so a failure repeats only one slice.  Size ``batch_rows`` so a
container's encoded payload lands in the tens of MB: fragmentation
multiplies per-chunk codec state and footer overheads, and
``table-compact`` exists to repair it after the fact.
"""

from __future__ import annotations

import base64
import json
import os
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..codecs import decode_array, encode_array
from ..codecs.base import CodecError, EncodedColumn
from ..state.manifest import publishing

_ROW_SCHEMA = pa.schema(
    [
        ("column", pa.string()),
        ("codec", pa.string()),
        ("params", pa.string()),
        ("payload", pa.large_binary()),
        ("n_values", pa.int64()),
        ("plain_bytes", pa.int64()),
        ("enc_bytes", pa.int64()),
        ("crc32", pa.int64()),
    ]
)

SCHEMA_FILE = "_schema.json"


def _validity_row(name: str, arr: pa.Array) -> list[dict]:
    """One `{name}#null` stream (int8 0/1 is-valid) when `arr` has
    nulls at THIS nesting level; empty otherwise.  Scalar leaves don't
    need it (encode_array persists their validity in params["valid"]);
    list/struct parents do, because their children are encoded with
    null slots flattened away / filled."""
    if not arr.null_count:
        return []
    valid = pa.array(np.asarray(arr.is_valid()).astype(np.int8))
    return _encode_one(f"{name}#null", valid)


def _encode_one(name: str, arr) -> list[dict]:
    """One column -> its container rows: scalars are one row;
    ``list<T>`` splits into ``name#len`` / ``name#val`` (recursing, so
    ``list<list<T>>`` nests as ``name#val#len`` / ``name#val#val``);
    ``struct`` recurses per child as ``name.child``; nullable
    lists/structs add a ``name#null`` validity stream."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    t = arr.type
    if pa.types.is_list(t) or pa.types.is_large_list(t):
        rows = _validity_row(name, arr)
        lengths = pa.array(
            np.asarray(
                pa.compute.list_value_length(arr).fill_null(0)
            ).astype(np.int64)
        )
        values = arr.flatten()  # null slots contribute zero values
        return (
            rows
            + _encode_one(f"{name}#len", lengths)
            + _encode_one(f"{name}#val", values)
        )
    if pa.types.is_struct(t):
        if t.num_fields == 0:
            raise CodecError(
                f"column {name}: empty struct{{}} has no child streams to "
                "carry its length; add a field or drop the column"
            )
        rows = _validity_row(name, arr)
        for i, child in enumerate(t):
            rows.extend(_encode_one(f"{name}.{child.name}", arr.field(i)))
        return rows
    enc = encode_array(arr, name, codec="auto", zstd=True)
    return [
        {
            "column": enc.column,
            "codec": enc.codec,
            "params": json.dumps(enc.params),
            "payload": enc.payload,
            "n_values": enc.n_values,
            "plain_bytes": enc.plain_bytes,
            "enc_bytes": len(enc.payload) + len(json.dumps(enc.params)),
            "crc32": enc.crc32,
        }
    ]


def stream_names(name: str, t: pa.DataType) -> set[str]:
    """Every container row name a column of type `t` MAY occupy (the
    ``#null`` stream is written only when nulls exist, but projection
    must always ask for it)."""
    if pa.types.is_list(t) or pa.types.is_large_list(t):
        return (
            {f"{name}#null", f"{name}#len"}
            | stream_names(f"{name}#val", t.value_type)
        )
    if pa.types.is_struct(t):
        out = {f"{name}#null"}
        for child in t:
            out |= stream_names(f"{name}.{child.name}", child.type)
        return out
    return {name}


def _mask_from(rows: dict[str, dict], name: str) -> pa.Array | None:
    """is-NULL boolean mask for from_arrays(mask=...), or None."""
    row = rows.get(f"{name}#null")
    if row is None:
        return None
    return pa.array(~np.asarray(_dec(row)).astype(bool))


def _decode_rows(rows: dict[str, dict], field: pa.Field) -> pa.Array:
    """Container rows -> one fully-typed column of `field`'s type
    (inverse of _encode_one, recursing through lists and structs)."""
    t = field.type
    if pa.types.is_list(t) or pa.types.is_large_list(t):
        lengths = _dec(rows[f"{field.name}#len"])
        values = _decode_rows(rows, pa.field(f"{field.name}#val", t.value_type))
        off_dtype = np.int64 if pa.types.is_large_list(t) else np.int32
        lens = np.asarray(lengths, dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(lens)]).astype(off_dtype)
        cls = pa.LargeListArray if pa.types.is_large_list(t) else pa.ListArray
        out = cls.from_arrays(
            pa.array(offsets), values, mask=_mask_from(rows, field.name)
        )
        return out.cast(t) if out.type != t else out
    if pa.types.is_struct(t):
        children = [
            _decode_rows(rows, pa.field(f"{field.name}.{c.name}", c.type))
            for c in t
        ]
        out = pa.StructArray.from_arrays(
            children, fields=list(t), mask=_mask_from(rows, field.name)
        )
        return out.cast(t) if out.type != t else out
    out = _dec(rows[field.name])
    return out.cast(t) if out.type != t else out


def _dec(row: dict) -> pa.Array:
    enc = EncodedColumn(
        column=row["column"],
        codec=row["codec"],
        params=json.loads(row["params"]),
        payload=row["payload"],
        n_values=int(row["n_values"]),
        plain_bytes=int(row["plain_bytes"]),
        crc32=int(row["crc32"]),
    )
    return decode_array(enc)


def _zone_map(batch: pa.Table) -> dict:
    """{column: [min, max]} for orderable scalar columns (numbers and
    timestamps, the latter as int64 epoch units) — JSON-safe."""
    import pyarrow.compute as pc

    zm: dict[str, list] = {}
    for name in batch.column_names:
        col = batch.column(name)
        t = col.type
        if pa.types.is_temporal(t):
            col = col.cast(pa.int64())
        elif not (pa.types.is_integer(t) or pa.types.is_floating(t)):
            continue
        mm = pc.min_max(col).as_py()
        lo, hi = mm["min"], mm["max"]
        if lo is None or (isinstance(lo, float) and np.isnan(lo)):
            continue
        zm[name] = [lo, hi]
    return zm


def file_pruned(path: str, col: str, lo, hi) -> bool:
    """True iff the container's footer zone map proves no row of `col`
    can land in [lo, hi] (bounds in zone-map representation — ints for
    temporals).  Footer-only: no payload bytes are touched."""
    meta = pq.read_schema(path).metadata or {}
    zm = json.loads((meta.get(b"zonemap") or b"{}").decode())
    rng = zm.get(col)
    if rng is None:
        return False  # no zone map for this column: must read
    return (hi is not None and rng[0] > hi) or (lo is not None and rng[1] < lo)


def _predicate_value(field_type: pa.DataType, v):
    """Caller-side predicate value -> the zone map's representation."""
    if pa.types.is_temporal(field_type):
        return int(pa.scalar(v, type=field_type).cast(pa.int64()).as_py())
    return v


def write_container_table(
    ds, out_dir: str, batch_rows: int | None = None, mode: str = "error"
):
    """Encode each block into one container parquet.  Returns the
    manifest Dataset (path, n_rows, encoded_bytes, plain_bytes) —
    consuming it drives the write (same contract as the Feather sink).

    ``batch_rows``: at most this many rows per container; a larger
    input block is split and smaller blocks are coalesced
    (``map_batches(batch_size=...)``).  Default: one container per
    input block, so the count follows Ray Data's block count, which for
    a small file is 2x the CPUs Ray sees and so varies by host.
    Small-file inputs fragment into tiny containers that way, and
    per-chunk codec overheads (dict tables, freq tables, parquet
    footers) repeat per container — at scale, size containers so their
    encoded payload lands in the tens of MB.

    ``mode``: container files are uuid-named, so a re-run into a
    non-empty out_dir would silently DUPLICATE every row — "error"
    (default) refuses; "append" adds this Dataset as a new generation
    after checking the persisted schema matches (the incremental-ingest
    contract the flagship encode uses)."""
    os.makedirs(out_dir, exist_ok=True)
    ds_schema = ds.schema()
    if ds_schema is None:
        raise ValueError("cannot encode a schemaless (fully empty) Dataset")
    schema = ds_schema.base_schema
    existing = [f for f in os.listdir(out_dir) if f.startswith("part-")]
    if existing:
        if mode != "append":
            raise ValueError(
                f"{out_dir} already holds {len(existing)} containers; "
                'pass mode="append" to add rows or clear the directory'
            )
        with open(os.path.join(out_dir, SCHEMA_FILE)) as f:
            prev = pa.ipc.read_schema(
                pa.py_buffer(base64.b64decode(json.load(f)["schema_b64"]))
            )
        if not prev.equals(schema):
            raise ValueError(
                f"append schema mismatch: containers hold {prev}, input is {schema}"
            )
    with open(os.path.join(out_dir, SCHEMA_FILE), "w") as f:
        json.dump(
            {"schema_b64": base64.b64encode(schema.serialize().to_pybytes()).decode()},
            f,
        )

    manifest_schema = pa.schema(
        [
            ("path", pa.string()),
            ("n_rows", pa.int64()),
            ("encoded_bytes", pa.int64()),
            ("plain_bytes", pa.int64()),
        ]
    )

    def write_block(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return manifest_schema.empty_table()
        rows: list[dict] = []
        for name in batch.column_names:
            rows.extend(_encode_one(name, batch.column(name)))
        names = [r["column"] for r in rows]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise CodecError(
                f"stream-name collision {dupes}: a top-level column named "
                "like a nested stream (e.g. 'a.b' next to struct 'a'.'b', "
                "or containing '#') is ambiguous in the container layout"
            )
        t = pa.Table.from_pylist(rows, schema=_ROW_SCHEMA)
        # per-column zone map (numeric/temporal min-max) in the footer:
        # a predicate read checks ~100 footer bytes per container and
        # skips whole files without touching any payload (same idea as
        # the flagship decoder's chunk zone maps, E9)
        t = t.replace_schema_metadata({"zonemap": json.dumps(_zone_map(batch))})
        final = os.path.join(out_dir, f"part-{uuid.uuid4().hex}.parquet")
        # one row group per encoded column: projected decodes prune
        # other columns' payloads via row-group statistics on `column`
        with publishing(final) as tmp:
            pq.write_table(t, tmp, row_group_size=1, compression="none")
        enc_bytes = sum(r["enc_bytes"] for r in rows)
        plain = sum(r["plain_bytes"] for r in rows)
        return pa.Table.from_pylist(
            [
                {
                    "path": final,
                    "n_rows": batch.num_rows,
                    "encoded_bytes": enc_bytes,
                    "plain_bytes": plain,
                }
            ],
            schema=manifest_schema,
        )

    return ds.map_batches(write_block, batch_format="pyarrow", batch_size=batch_rows)


def _container_files(dir_or_paths) -> list[str]:
    if isinstance(dir_or_paths, str) and os.path.isdir(dir_or_paths):
        return sorted(
            os.path.join(dir_or_paths, f)
            for f in os.listdir(dir_or_paths)
            if f.startswith("part-") and f.endswith(".parquet")
        )
    if isinstance(dir_or_paths, str):
        return [dir_or_paths]
    return list(dir_or_paths)


def read_container_table(
    dir_or_paths,
    columns: list[str] | None = None,
    predicate: tuple[str, object, object] | list[tuple] | None = None,
):
    """Containers -> Dataset: one decode task per container file.

    ``columns=[...]`` decodes only those columns; other payloads are
    row-group-pruned at the parquet layer (never leave the disk).

    ``predicate=(col, lo, hi)`` — or a LIST of such tuples, combined
    with AND — keeps rows with lo <= col <= hi (either bound may be
    None): each task first reads the container's footer zone map and
    skips files where any range misses — no payload bytes move for
    pruned files — then trims the survivors row-level after decode, so
    results are exact, not file-granular."""
    import ray.data as rd

    if isinstance(dir_or_paths, str) and os.path.isdir(dir_or_paths):
        base = dir_or_paths
    else:
        base = os.path.dirname(_container_files(dir_or_paths)[0])
    if not os.path.exists(os.path.join(base, SCHEMA_FILE)):
        raise ValueError(
            f"{base} is not a table-encode output: missing {SCHEMA_FILE} "
            "(was this directory written by write_container_table?)"
        )
    with open(os.path.join(base, SCHEMA_FILE)) as f:
        schema = pa.ipc.read_schema(
            pa.py_buffer(base64.b64decode(json.load(f)["schema_b64"]))
        )
    fields = [schema.field(i) for i in range(len(schema))]
    if columns is not None:
        missing = set(columns) - {f.name for f in fields}
        if missing:
            raise ValueError(f"unknown container columns: {sorted(missing)}")
        fields = [f for f in fields if f.name in set(columns)]
    preds: list[tuple[str, object, object]] = []
    drop_cols: list[str] = []
    if predicate is not None:
        plist = [predicate] if isinstance(predicate, tuple) else list(predicate)
        present = {f.name for f in fields}
        for pcol, lo, hi in plist:
            pfield = schema.field(pcol)  # raises KeyError for unknown columns
            if (
                pa.types.is_list(pfield.type)
                or pa.types.is_large_list(pfield.type)
                or pa.types.is_struct(pfield.type)
            ):
                raise ValueError(
                    f"predicate column {pcol} is a {pfield.type}; ranges need scalars"
                )
            if pcol not in present:
                # decode the key just for trimming, drop it from the
                # result (the read_range extra-column pattern,
                # functions/export.py)
                fields.append(pfield)
                present.add(pcol)
                drop_cols.append(pcol)
            preds.append(
                (
                    pcol,
                    None if lo is None else _predicate_value(pfield.type, lo),
                    None if hi is None else _predicate_value(pfield.type, hi),
                )
            )

    wanted: set[str] = set()
    for f in fields:
        wanted |= stream_names(f.name, f.type)

    out_schema = pa.schema([f for f in fields if f.name not in drop_cols])
    files = _container_files(dir_or_paths)
    if not files:
        return rd.from_arrow(out_schema.empty_table())

    def _pruned(path: str) -> bool:
        # conjunction: any single failing range disqualifies the file
        return any(file_pruned(path, *p) for p in preds)

    def _trim(t: pa.Table) -> pa.Table:
        if not preds:
            return t
        import pyarrow.compute as pc

        mask = pa.array(np.ones(t.num_rows, dtype=bool))
        for pcol, lo, hi in preds:
            col = t.column(pcol)
            if pa.types.is_temporal(col.type):
                col = (
                    col.cast(pa.int64())
                    if isinstance(col, pa.Array)
                    else col.combine_chunks().cast(pa.int64())
                )
            if lo is not None:
                mask = pc.and_(mask, pc.greater_equal(col, lo))
            if hi is not None:
                mask = pc.and_(mask, pc.less_equal(col, hi))
        t = t.filter(mask)
        return t.drop_columns(drop_cols) if drop_cols else t

    def decode_file(batch: pa.Table) -> pa.Table:
        tabs = []
        for path in batch.column("path").to_pylist():
            if _pruned(path):
                continue
            t = pq.read_table(
                path, filters=[("column", "in", sorted(wanted))]
            )
            rows = {r["column"]: r for r in t.to_pylist()}
            cols = [_decode_rows(rows, f) for f in fields]
            tabs.append(
                _trim(pa.Table.from_arrays(cols, schema=pa.schema(fields)))
            )
        if not tabs:
            return out_schema.empty_table()
        return pa.concat_tables(tabs)

    return rd.from_items([{"path": p} for p in files]).map_batches(
        decode_file, batch_format="pyarrow"
    )


def inspect_container_table(dir_or_paths) -> pa.Table:
    """Per-column rollup from container metadata rows — the `payload`
    column is never projected, so this reads kilobytes regardless of
    data size.  Driver-side loop over footers/metadata rows: intended
    for the CLI at human file counts; for fleet-scale audits run the
    same projection through ray.data.read_parquet."""
    files = _container_files(dir_or_paths)
    agg: dict[str, dict] = {}
    for path in files:
        t = pq.read_table(
            path, columns=["column", "codec", "n_values", "plain_bytes", "enc_bytes"]
        )
        for r in t.to_pylist():
            a = agg.setdefault(
                r["column"],
                {"files": 0, "n_values": 0, "plain_bytes": 0, "enc_bytes": 0, "codecs": set()},
            )
            a["files"] += 1
            a["n_values"] += r["n_values"]
            a["plain_bytes"] += r["plain_bytes"]
            a["enc_bytes"] += r["enc_bytes"]
            a["codecs"].add(r["codec"])
    rows = [
        {
            "column": col,
            "files": a["files"],
            "n_values": a["n_values"],
            "codecs": ",".join(sorted(a["codecs"])),
            "enc_bytes": a["enc_bytes"],
            "plain_bytes": a["plain_bytes"],
            "ratio": round(a["enc_bytes"] / a["plain_bytes"], 4) if a["plain_bytes"] else 0.0,
        }
        for col, a in sorted(agg.items())
    ]
    return pa.Table.from_pylist(rows)
