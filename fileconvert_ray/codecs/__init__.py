"""Codec registry + column-level encode/decode wrapper.

The wrapper owns everything codecs don't: dtype canonicalization,
validity bitmaps, CRC32 of canonical decoded bytes, the optional
zstd general-purpose topper (pyarrow's C zstd on the payload, kept
only when it shrinks), and the plain-fallback size guarantee
(``encoded <= plain`` always — SURVEY.md §2.2 selection invariant).

Registry mirrors the reference's user-extension surface (SURVEY §2.1
R14): registering a codec object makes it visible to the selector and
the tests.
"""

from __future__ import annotations

import json
import zlib

import numpy as np
import pyarrow as pa

from .base import (
    CodecError,
    EncodedColumn,
    b64d,
    b64e,
    canonical_int_bytes,
    canonical_str_bytes,
    parts_to_str,
    str_to_parts,
)
from .floatcodecs import Alp, AlpRd
from .intcodecs import DeltaZigzag, DictInt, DictZ, EscBytes, ForBitpack, PlainInt, Rle, RunEsc
from .rans import Rans, RunRans
from .strcodecs import DictStr, FsstStr, PlainStr

INT_CODECS: dict[str, object] = {}
STR_CODECS: dict[str, object] = {}
FIXED_CODECS: dict[str, object] = {}

# chunks at least this long participate in the cross-chunk A/B codec
# trial (below this, fixed codec overheads distort the comparison)
TRIAL_MIN_N = 1 << 20


class PlainFixed:
    """Raw little-endian bytes of fixed-width values (float/decimal)."""

    name = "plain"
    kind = "fixed"

    def estimate(self, sample: np.ndarray) -> float:
        return float(sample.nbytes)

    def encode(self, values: np.ndarray):
        v = np.ascontiguousarray(values)
        return {"w": int(v.shape[1])}, v.tobytes()

    def decode(self, params: dict, payload: bytes, n: int) -> np.ndarray:
        w = int(params["w"])
        return np.frombuffer(payload, dtype=np.uint8, count=n * w).reshape(n, w)


class Plane:
    """Byte-plane split (BYTE_STREAM_SPLIT): plane j holds byte j of
    every value.  Exponent/sign planes of floats and the high planes of
    decimals are highly repetitive, so the zstd topper compresses them
    far below the interleaved layout."""

    name = "plane"
    kind = "fixed"

    def estimate(self, sample: np.ndarray) -> float:
        return float(sample.nbytes)  # pre-topper size; topper does the work

    def encode(self, values: np.ndarray):
        v = np.ascontiguousarray(values)
        n, w = v.shape
        return {"w": int(w)}, np.ascontiguousarray(v.T).tobytes()

    def decode(self, params: dict, payload: bytes, n: int) -> np.ndarray:
        w = int(params["w"])
        planes = np.frombuffer(payload, dtype=np.uint8, count=n * w).reshape(w, n)
        return np.ascontiguousarray(planes.T)


def register(codec) -> None:
    table = {"int": INT_CODECS, "str": STR_CODECS, "fixed": FIXED_CODECS}[codec.kind]
    table[codec.name] = codec


for _c in (PlainInt(), ForBitpack(), Rle(), DictInt(), DictZ(), EscBytes(), RunEsc(), Rans(), RunRans(), DeltaZigzag()):
    register(_c)
for _c in (PlainStr(), DictStr(), FsstStr()):
    register(_c)
for _c in (PlainFixed(), Plane(), Alp(), AlpRd()):
    register(_c)


def encode_topped(c, data, zstd: bool, **kw) -> tuple[dict, bytes, int | None, int]:
    """One codec encode plus the zstd topper, kept only when it shrinks
    the payload: ``(cparams, payload, zlen, total_bytes)``, where
    ``zlen`` is the pre-topper payload length (None when not topped)
    and ``total_bytes`` counts the payload and the JSON params."""
    cparams, payload = c.encode(data, **kw)
    zlen = None
    if zstd and len(payload) > 64:
        z = pa.compress(payload, codec="zstd", asbytes=True)
        if len(z) < len(payload):
            zlen = len(payload)
            payload = z
    return cparams, payload, zlen, len(payload) + len(json.dumps(cparams))


_INT_TYPES = {pa.int8(), pa.int16(), pa.int32(), pa.int64(), pa.uint8(), pa.uint16(), pa.uint32()}


def _type_spec(t: pa.DataType) -> dict:
    """JSON-serializable reconstruction spec for the extended dtypes."""
    if pa.types.is_timestamp(t):
        return {"k": "ts", "u": t.unit, "tz": t.tz}
    if pa.types.is_duration(t):
        return {"k": "dur", "u": t.unit}
    if pa.types.is_date32(t):
        return {"k": "d32"}
    if pa.types.is_date64(t):
        return {"k": "d64"}
    if pa.types.is_time32(t):
        return {"k": "t32", "u": t.unit}
    if pa.types.is_time64(t):
        return {"k": "t64", "u": t.unit}
    if pa.types.is_boolean(t):
        return {"k": "bool"}
    if t == pa.uint64():
        return {"k": "u64"}
    if pa.types.is_decimal(t):
        return {"k": "dec", "p": t.precision, "s": t.scale}
    if pa.types.is_floating(t):
        return {"k": "f", "b": t.bit_width}
    if pa.types.is_binary(t) or pa.types.is_large_binary(t):
        return {"k": "bin"}
    raise CodecError(f"no type spec for {t}")


def _type_from_spec(spec: dict) -> pa.DataType:
    k = spec["k"]
    if k == "ts":
        return pa.timestamp(spec["u"], tz=spec.get("tz"))
    if k == "dur":
        return pa.duration(spec["u"])
    if k == "d32":
        return pa.date32()
    if k == "d64":
        return pa.date64()
    if k == "t32":
        return pa.time32(spec["u"])
    if k == "t64":
        return pa.time64(spec["u"])
    if k == "bool":
        return pa.bool_()
    if k == "u64":
        return pa.uint64()
    if k == "dec":
        return pa.decimal128(spec["p"], spec["s"])
    if k == "f":
        return {16: pa.float16(), 32: pa.float32(), 64: pa.float64()}[spec["b"]]
    if k == "bin":
        return pa.binary()
    raise CodecError(f"unknown type spec {spec}")


def _as_array(arr) -> pa.Array:
    if isinstance(arr, pa.ChunkedArray):
        return arr.combine_chunks()
    if isinstance(arr, np.ndarray):
        return pa.array(arr)
    return arr


def encode_array(
    arr, column: str, codec: str = "auto", zstd: bool = True, fsst_table=None,
    trial: bool = False,
) -> EncodedColumn:
    """Encode one column chunk.  `codec="auto"` runs the selector (E4).

    `fsst_table`: optional pre-trained FSST SymbolTable (actor-pool
    state shared across batches of the same source — SURVEY §2.2 E5).

    A chunk no longer than the selector's sample is encoded once: the
    selector's whole-column encodes come back through `select_ranked(
    measured=...)` and the winner's is kept as is.

    `trial=True` (int chunks of at least TRIAL_MIN_N values): the
    selector's sample projection is blind to sublinear codec costs (the
    rANS freq table saturates at the alphabet size far beyond any
    affordable sample), so REALLY encode the top 2 on THIS chunk — the
    leader, plus the runner-up when its projection is within 25% — and
    keep the winner: smallest size, with the fastest encoder taking
    ties within 0.2% (below run noise).  Same-data comparison is the
    only statistically valid one: per-chunk size variance across
    different chunks exceeds the codec deltas.  Callers cache the
    winning codec per (source, column), so the extra encode happens
    once per key per worker process in a job (see
    stages/encoder.encode_partition_table).
    """
    arr = _as_array(arr)
    params: dict = {}
    t = arr.type
    # normalize extended logical types to a canonical physical layout
    # (bit-exact, reconstructed from params["atype"] on decode)
    if (
        pa.types.is_timestamp(t) or pa.types.is_duration(t)
        or pa.types.is_date64(t) or pa.types.is_time64(t)
    ):
        params["atype"] = _type_spec(t)
        arr = arr.cast(pa.int64())
    elif pa.types.is_date32(t) or pa.types.is_time32(t):
        params["atype"] = _type_spec(t)
        arr = arr.cast(pa.int32())
    elif pa.types.is_boolean(t):
        params["atype"] = _type_spec(t)
        arr = arr.cast(pa.int8())
    elif t == pa.uint64():
        # bit-pattern view: int codecs are exact under two's-complement
        # wrap, so the round-trip is identity even past 2^63
        params["atype"] = _type_spec(t)
        arr = arr.view(pa.int64())
    elif pa.types.is_binary(t) or pa.types.is_large_binary(t):
        # str codecs are buffer-level (offsets + raw bytes, never utf8
        # validation), so a zero-copy view is safe for arbitrary bytes
        params["atype"] = _type_spec(t)
        if pa.types.is_large_binary(t):
            arr = arr.cast(pa.binary())
        arr = arr.view(pa.string())
    elif t == pa.float16() and arr.null_count:
        # halffloat has no fill_null / if_else / coalesce kernels in
        # pyarrow 16 — bit-pattern view as int16 (exact, validity
        # preserved); decode views back AFTER null restoration
        params["atype"] = _type_spec(t)
        arr = arr.view(pa.int16())
    elif pa.types.is_floating(t) or pa.types.is_decimal(t):
        params["atype"] = _type_spec(t)

    if arr.null_count:
        validity = np.asarray(arr.is_valid())
        params["valid"] = b64e(np.packbits(validity, bitorder="little").tobytes())
        if pa.types.is_string(arr.type):
            arr = arr.fill_null("")
        else:
            arr = arr.fill_null(0)

    if arr.type in _INT_TYPES or arr.type == pa.int64():
        kind = "int"
        # keep the NATIVE dtype end-to-end: every avoided astype is a
        # full-array memory pass, and this box is bandwidth-bound
        values = np.ascontiguousarray(arr.to_numpy(zero_copy_only=False))
        params["dtype"] = str(arr.type)
        plain_crc = zlib.crc32(memoryview(values))
        plain_bytes = values.nbytes
        n = len(values)
        payload_input = values
        table = INT_CODECS
    elif pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type):
        kind = "str"
        if pa.types.is_large_string(arr.type):
            arr = arr.cast(pa.string())
        plain_crc = zlib.crc32(canonical_str_bytes(arr))
        lengths, data = str_to_parts(arr)
        plain_bytes = len(data) + 4 * len(arr)
        n = len(arr)
        payload_input = arr
        table = STR_CODECS
    elif pa.types.is_floating(arr.type) or pa.types.is_decimal(arr.type):
        kind = "fixed"
        arr = arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr
        n = len(arr)
        if pa.types.is_decimal(arr.type):
            w = 16
            buf = arr.buffers()[1]
            data = np.frombuffer(buf, dtype=np.uint8)[
                arr.offset * w : (arr.offset + n) * w
            ].reshape(n, w)
        else:
            npv = np.ascontiguousarray(arr.to_numpy(zero_copy_only=False))
            w = npv.dtype.itemsize
            data = npv.view(np.uint8).reshape(n, w)
        data = np.ascontiguousarray(data)
        plain_crc = zlib.crc32(memoryview(data))
        plain_bytes = data.nbytes
        payload_input = data
        table = FIXED_CODECS
    else:
        raise CodecError(f"unsupported column type {arr.type} for {column}")

    def run_codec(name: str):
        """Encode the chunk with one codec + the zstd topper; returns
        the (name, cparams, payload, zlen, total_bytes) candidate."""
        kw = {"table": fsst_table} if name == "fsst" and fsst_table is not None else {}
        return (name, *encode_topped(table[name], payload_input, zstd, **kw))

    if codec == "auto":
        import time as _time

        from ..selector import select_ranked  # late import: selector needs registry

        measured: dict = {}
        ranked = select_ranked(payload_input, kind, zstd=zstd, target_n=n, measured=measured)
        # a whole-column selection already holds each candidate's encode
        # of this chunk.  Re-encoded instead: fsst with a caller's
        # trained table, and int plain of a narrower dtype, whose payload
        # keeps the native width while the selector encoded int64 (every
        # other int codec's bytes do not depend on the input width)
        if kind == "int" and values.dtype != np.int64:
            measured.pop("plain", None)
        if fsst_table is not None:
            measured.pop("fsst", None)
        names = [ranked[0][0]]
        if (
            trial and kind == "int" and n >= TRIAL_MIN_N and len(ranked) > 1
            and ranked[1][1] <= 1.25 * ranked[0][1]
        ):
            # the runner-up when it is within 25% of the projected best:
            # projection noise across sample windows is larger than the
            # real codec deltas, so only a same-chunk encode can order
            # the two; the caller caches the winner per (source, column)
            names.append(ranked[1][0])
        cands = []
        for nm in names:
            try:
                t0 = _time.perf_counter()
                out = (nm, *measured[nm]) if nm in measured else run_codec(nm)
                cands.append((out, _time.perf_counter() - t0))
            except Exception:
                continue
        if not cands:
            cands = [(run_codec("plain"), 0.0)]
        best_total = min(c[0][4] for c in cands)
        # smallest, with the fastest encoder taking <=0.2% ties
        best = min(
            (c for c in cands if c[0][4] <= 1.002 * best_total), key=lambda c: c[1]
        )[0]
    else:
        best = run_codec(codec)
    codec, cparams, payload, zlen, total = best
    # plain-fallback guarantee: selected real size must not exceed plain.
    # plain's size is known analytically — only materialize it on fallback.
    if codec != "plain" and total > plain_bytes + 8:
        codec, cparams, payload, zlen, total = run_codec("plain")
    if zlen is not None:
        params["z"] = zlen
    params["c"] = cparams
    return EncodedColumn(
        column=column,
        codec=codec,
        params=params,
        payload=payload,
        n_values=n,
        plain_bytes=plain_bytes,
        crc32=plain_crc,
    )


def decode_array(enc: EncodedColumn) -> pa.Array:
    """Exact inverse of encode_array — bit-identical values/validity."""
    params = enc.params
    payload = enc.payload
    if "z" in params:
        payload = pa.decompress(payload, decompressed_size=params["z"], codec="zstd", asbytes=True)
    spec = params.get("atype")
    if "dtype" in params:
        c = INT_CODECS[enc.codec]
        values = c.decode(params["c"], payload, enc.n_values)
        native = np.ascontiguousarray(values.astype(np.dtype(params["dtype"]), copy=False))
        if zlib.crc32(memoryview(native)) != enc.crc32:
            raise CodecError(f"crc mismatch decoding {enc.column} ({enc.codec})")
        out = pa.array(native)
        if spec is not None:
            target = _type_from_spec(spec)
            if spec["k"] == "u64":
                out = out.view(target)
            elif spec["k"] == "f":
                # float16-with-nulls rides the int16 path; the view back
                # is deferred until after null restoration (halffloat has
                # no if_else kernel)
                pass
            else:
                out = out.cast(target)
    elif spec is not None and spec["k"] in ("f", "dec"):
        c = FIXED_CODECS[enc.codec]
        data = np.ascontiguousarray(c.decode(params["c"], payload, enc.n_values))
        if zlib.crc32(memoryview(data)) != enc.crc32:
            raise CodecError(f"crc mismatch decoding {enc.column} ({enc.codec})")
        if spec["k"] == "f":
            dt = {16: np.float16, 32: np.float32, 64: np.float64}[spec["b"]]
            out = pa.array(data.reshape(-1).view(dt))
        else:
            out = pa.Array.from_buffers(
                _type_from_spec(spec), enc.n_values, [None, pa.py_buffer(data.tobytes())]
            )
    else:
        c = STR_CODECS[enc.codec]
        out = c.decode(params["c"], payload, enc.n_values)
        if zlib.crc32(canonical_str_bytes(out)) != enc.crc32:
            raise CodecError(f"crc mismatch decoding {enc.column} ({enc.codec})")
        if spec is not None and spec["k"] == "bin":
            out = out.view(pa.binary())
    if "valid" in params:
        validity = np.unpackbits(
            np.frombuffer(b64d(params["valid"]), dtype=np.uint8),
            count=enc.n_values,
            bitorder="little",
        ).astype(bool)
        mask = pa.array(~validity)
        out = pa.compute.if_else(mask, pa.scalar(None, type=out.type), out)
    if spec is not None and spec["k"] == "f" and "dtype" in params:
        out = out.view(_type_from_spec(spec))
    return out


def encoded_total_bytes(enc: EncodedColumn) -> int:
    """Honest on-disk size: payload + serialized params (JSON)."""
    return len(enc.payload) + len(json.dumps(enc.params))
