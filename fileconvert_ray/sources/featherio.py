"""Feather / Arrow-IPC source + sink (format-parity with the reference
converter's multi-format surface; SURVEY.md §2.1 R11-R13 family).

Ray Data has no built-in Feather reader, so the source is expressed as
``read_binary_files`` (one task per file, streaming) + a zero-copy IPC
decode inside ``map_batches`` — each Arrow file becomes one batch with
no row-level Python.  The sink writes one ``.arrow`` file per block via
tmp+rename (same crash-safe discipline as the container sink,
stages/encoder.py), so a partial job never leaves a half-written file
behind and re-runs are idempotent per block.
"""

from __future__ import annotations

import os
import uuid

import pyarrow as pa
import pyarrow.feather as feather

from ..state.manifest import publishing


def write_feather_dataset(ds, out_dir: str):
    """Write each block as one Feather (Arrow IPC) file.  Returns the
    manifest Dataset (path, n_rows) — consuming it drives the write."""
    os.makedirs(out_dir, exist_ok=True)

    def write_block(batch: pa.Table) -> pa.Table:
        final = os.path.join(out_dir, f"part-{uuid.uuid4().hex}.arrow")
        with publishing(final) as tmp:
            feather.write_feather(batch, tmp, compression="uncompressed")
        return pa.Table.from_pydict({"path": [final], "n_rows": [batch.num_rows]})

    # batch_size=None => one file per block; block size is governed
    # upstream by DataContext.target_max_block_size, so file sizes track
    # block sizes and the reader's per-file memory is bounded
    return ds.map_batches(write_block, batch_format="pyarrow", batch_size=None)


def read_feather_dataset(dir_or_paths):
    """Feather files -> Dataset: one read task per file, IPC-decoded
    zero-copy from the file bytes inside map_batches."""
    import ray.data as rd

    def decode(batch: pa.Table) -> pa.Table:
        tabs = []
        for buf in batch.column("bytes").to_pylist():
            tabs.append(feather.read_table(pa.BufferReader(buf)))
        if not tabs:
            return pa.Table.from_pydict({})
        return pa.concat_tables(tabs)

    files = rd.read_binary_files(dir_or_paths, file_extensions=["arrow"])
    return files.map_batches(decode, batch_format="pyarrow")
