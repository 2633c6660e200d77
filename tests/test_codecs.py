"""Codec unit + property tests (SURVEY.md §5.2.1, FIXTURES.md F2).

Every codec x every edge-case array: decode(encode(a)) == a
bit-identical, and the selected codec's real size <= plain's.
No Ray involved.
"""

import json

import numpy as np
import pyarrow as pa
import pytest

from fileconvert_ray.codecs import (
    INT_CODECS,
    STR_CODECS,
    decode_array,
    encode_array,
    encoded_total_bytes,
)
from fileconvert_ray.codecs.bitpack import pack_bits, packed_nbytes, unpack_bits

RNG = np.random.default_rng(42)

INT_CASES = {
    "empty": np.array([], dtype=np.int64),
    "single": np.array([7], dtype=np.int64),
    "constant": np.full(10_000, 42, dtype=np.int64),
    "two_valued": np.tile([0, 1], 5000).astype(np.int64),
    "all_distinct": np.arange(10_000, dtype=np.int64),
    "max_run": np.repeat(np.int64(9), 1_000_000),
    "wide_range": np.array([0, 2**31 - 1] * 100, dtype=np.int64),
    "negative": RNG.integers(-(2**31), 2**31, 5000).astype(np.int64),
    "random_u32": RNG.integers(0, 2**32, 5000).astype(np.int64),
    "int64_extremes": np.array([-(2**63), 2**63 - 1, 0, -1], dtype=np.int64),
    "zipf": (RNG.zipf(1.3, 20_000) % 31).astype(np.int64),
    "runs": np.repeat(RNG.integers(0, 31, 200), RNG.integers(1, 64, 200)).astype(np.int64),
}

STR_CASES = {
    "empty": [],
    "single": ["hello"],
    "shared_prefix": ["d%09d" % i for i in range(5000)],
    "low_card": [f"src{i % 20}" for i in range(5000)],
    "unicode": ["héllo wörld £æ€", "日本語テキスト", "emoji 🎉🎊", ""] * 100,
    "empty_strings": ["", "", "a", ""],
    "escape_stress": ["\xff" * 5, "\x00\xff\x00", "abc\xffdef"] * 50,
}


@pytest.mark.parametrize("width", [0, 1, 3, 5, 8, 13, 17, 31, 32, 33, 63, 64])
def test_bitpack_roundtrip(width):
    n = 4097
    if width == 64:
        vals = RNG.integers(0, 2**63, n).astype(np.uint64) * 2 + 1
    else:
        vals = RNG.integers(0, 2**width if width else 1, n).astype(np.uint64)
    buf = pack_bits(vals, width)
    assert len(buf) == packed_nbytes(n, width)
    out = unpack_bits(buf, width, n)
    np.testing.assert_array_equal(out, vals)


@pytest.mark.parametrize("codec", list(INT_CODECS))
@pytest.mark.parametrize("case", list(INT_CASES))
def test_int_codec_roundtrip(codec, case):
    vals = INT_CASES[case]
    c = INT_CODECS[codec]
    params, payload = c.encode(vals)
    # params must be JSON-serializable (container contract)
    json.dumps(params)
    out = c.decode(params, payload, len(vals))
    np.testing.assert_array_equal(out, vals)
    assert out.dtype == np.int64


@pytest.mark.parametrize("codec", list(STR_CODECS))
@pytest.mark.parametrize("case", list(STR_CASES))
def test_str_codec_roundtrip(codec, case):
    arr = pa.array(STR_CASES[case], type=pa.string())
    c = STR_CODECS[codec]
    params, payload = c.encode(arr)
    json.dumps(params)
    out = c.decode(params, payload, len(arr))
    assert out.equals(arr) or out.to_pylist() == arr.to_pylist()


@pytest.mark.parametrize("case", list(INT_CASES))
def test_int_auto_wrapper(case):
    vals = INT_CASES[case]
    for dtype in (pa.int32(), pa.int64()):
        if dtype == pa.int32() and (vals.size and (vals.max() >= 2**31 or vals.min() < -(2**31))):
            continue
        arr = pa.array(vals, type=dtype)
        enc = encode_array(arr, "col", codec="auto")
        dec = decode_array(enc)
        assert dec.type == dtype
        assert dec.equals(arr) or dec.to_pylist() == arr.to_pylist()
        # selection invariant: never bigger than plain + small overhead
        plain = encode_array(arr, "col", codec="plain", zstd=False)
        assert len(enc.payload) <= len(plain.payload) + 64


@pytest.mark.parametrize("case", list(STR_CASES))
def test_str_auto_wrapper(case):
    arr = pa.array(STR_CASES[case], type=pa.string())
    enc = encode_array(arr, "col", codec="auto")
    dec = decode_array(enc)
    assert dec.to_pylist() == arr.to_pylist()


def test_nulls_roundtrip():
    arr = pa.array([1, None, 3, None, 5], type=pa.int32())
    enc = encode_array(arr, "col")
    dec = decode_array(enc)
    assert dec.to_pylist() == arr.to_pylist()
    sarr = pa.array(["a", None, "c", None], type=pa.string())
    enc = encode_array(sarr, "col")
    assert decode_array(enc).to_pylist() == sarr.to_pylist()


def test_crc_detects_corruption():
    from fileconvert_ray.codecs.base import CodecError

    arr = pa.array(np.arange(1000), type=pa.int64())
    enc = encode_array(arr, "col", codec="plain", zstd=False)
    enc.crc32 ^= 0xDEADBEEF
    with pytest.raises(CodecError):
        decode_array(enc)


def test_compression_wins_on_fixture_shapes():
    """Sanity: the right codec wins by a real margin on its home turf."""
    tokens = (RNG.zipf(1.3, 100_000) % 31).astype(np.int64)
    enc = encode_array(pa.array(tokens, type=pa.int32()), "tokens", zstd=False)
    assert len(enc.payload) < 100_000 * 4 * 0.25  # ~5 bits/value vs 32

    src = pa.array([f"src{i % 20}" for i in range(50_000)], type=pa.string())
    enc = encode_array(src, "source", zstd=False)
    assert enc.codec == "dict"
    assert len(enc.payload) < 50_000 * 0.65  # ~5-bit indices vs ~5 bytes/value


def test_dictz_probe_underestimate_roundtrip():
    """Regression: distinct count in the first 64Ki slice is tiny but the
    full column crosses the index byte-width boundary — codes must not
    wrap (ADVICE r1: uint8 overflow made partitions undecodable)."""
    vals = np.concatenate(
        [np.zeros(1 << 16, dtype=np.int64), np.arange(1000, dtype=np.int64)]
    )
    c = INT_CODECS["dictz"]
    params, payload = c.encode(vals)
    out = c.decode(params, payload, len(vals))
    np.testing.assert_array_equal(out, vals)
    # and through the wrapper with CRC check
    enc = encode_array(pa.array(vals, type=pa.int64()), "col", codec="dictz")
    np.testing.assert_array_equal(decode_array(enc).to_numpy(), vals)


EXTENDED_ARRAYS = {
    "float64": pa.array([0.0, -1.5, 3.14159, float("inf"), float("-inf"), 1e-300, -0.0], type=pa.float64()),
    "float32": pa.array(np.linspace(-1e6, 1e6, 5000).astype(np.float32)),
    "float64_nan": pa.array([1.0, float("nan"), 2.0], type=pa.float64()),
    "uint64_big": pa.array([0, 1, 2**63, 2**64 - 1, 12345], type=pa.uint64()),
    "timestamp_us": pa.array(np.arange(0, 50_000, dtype="datetime64[us]")),
    "timestamp_tz": pa.array([0, 10**15, None], type=pa.timestamp("ns", tz="UTC")),
    "date32": pa.array(np.arange(19000, 19500, dtype=np.int32), type=pa.date32()),
    "duration_ms": pa.array([0, -5, 10**10], type=pa.duration("ms")),
    "time64_us": pa.array([0, 1, 86_399_999_999], type=pa.time64("us")),
    "bool": pa.array([True, False, True, True, None] * 100),
    "binary": pa.array([b"\x00\xff\xfe", b"", b"abc" * 100, None], type=pa.binary()),
    "decimal128": pa.array(
        [None, 0, 1, -1, 10**20, -(10**20)], type=pa.decimal128(30, 4)
    ),
    "float64_nulls": pa.array([1.5, None, -2.5, None], type=pa.float64()),
    # round-3 ADVICE: fill_null(0) crashed on halffloat-with-nulls
    "float16_nulls": pa.array(
        [np.float16(1.5), None, np.float16(-2.25), None], type=pa.float16()
    ),
    "float16": pa.array(np.linspace(-100, 100, 500).astype(np.float16), type=pa.float16()),
}


@pytest.mark.parametrize("case", list(EXTENDED_ARRAYS))
def test_extended_dtype_roundtrip(case):
    """Round-1 verdict gap: float / timestamp / binary / uint64 / bool /
    decimal columns round-trip bit-identically through the wrapper."""
    arr = EXTENDED_ARRAYS[case]
    for zstd in (True, False):
        enc = encode_array(arr, "col", codec="auto", zstd=zstd)
        dec = decode_array(enc)
        assert dec.type == arr.type, (dec.type, arr.type)
        if "nan" in case:
            import math
            got, want = dec.to_pylist(), arr.to_pylist()
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert (g == w) or (math.isnan(g) and math.isnan(w))
        else:
            assert dec.to_pylist() == arr.to_pylist()


def test_float_plane_beats_plain_on_smooth_data():
    """Byte-plane split + zstd models repeated exponent bytes."""
    vals = np.linspace(0, 1, 200_000)
    arr = pa.array(vals, type=pa.float64())
    enc = encode_array(arr, "col", codec="auto", zstd=True)
    assert len(enc.payload) < vals.nbytes * 0.7, (enc.codec, len(enc.payload))


def test_rans_quantize_freqs_pathological():
    from fileconvert_ray.codecs.rans import quantize_freqs

    cases = [
        np.array([1]),                                  # single symbol
        np.ones(4096, dtype=np.int64),                  # uniform, D = 2^12
        np.concatenate(([10**9], np.ones(5000))),       # extreme head skew
        np.arange(1, 3000),                             # linear ramp
    ]
    for counts in cases:
        for P in (12, 16, 20):
            if len(counts) > (1 << P):
                continue
            f = quantize_freqs(counts.astype(np.int64), P)
            assert int(f.sum()) == 1 << P
            assert int(f.min()) >= 1


def test_rans_roundtrip_extreme_shapes():
    from fileconvert_ray.codecs.rans import Rans

    r = Rans()
    rng = np.random.default_rng(3)
    cases = [
        np.full(100_000, 7, dtype=np.int64),                      # single symbol
        rng.integers(0, 2, 100_000).astype(np.int64),             # binary
        np.concatenate([np.full(65_536, 0), np.arange(1000)]),    # head + tail
        rng.integers(-(2**40), 2**40, 5000).astype(np.int64),     # wide sparse
    ]
    for v in cases:
        p, b = r.encode(v)
        np.testing.assert_array_equal(r.decode(p, b, len(v)), v)


def test_find_runs_matches_naive():
    """The sliding-window long-run detector (round-3 DRAM-traffic fix)
    equals the all-runs enumeration for every boundary case."""
    from fileconvert_ray.codecs.intcodecs import RunEsc

    def naive(v, minrun):
        n = len(v)
        change = np.flatnonzero(v[1:] != v[:-1])
        starts = np.concatenate(([0], change + 1))
        lens = np.diff(np.concatenate((starts, [n])))
        is_long = lens >= minrun
        return starts[is_long], lens[is_long]

    rng = np.random.default_rng(1)
    cases = [rng.integers(0, 4, rng.integers(0, 300)).astype(np.int32) for _ in range(300)]
    cases += [
        np.full(50, 3, np.int32),                                    # one giant run
        np.concatenate([np.arange(20), np.full(8, 5)]).astype(np.int32),   # run at end
        np.concatenate([np.full(8, 5), np.arange(20)]).astype(np.int32),   # run at start
        np.full(8, 1, np.int32),                                     # exactly minrun
        np.full(7, 1, np.int32),                                     # one short of minrun
        np.zeros(0, np.int32),
    ]
    for v in cases:
        s1, l1, keep = RunEsc._find_runs(v, 8)
        s2, l2 = naive(v, 8)
        assert np.array_equal(s1, s2) and np.array_equal(l1, l2)
        if keep is None:
            assert len(s2) == 0
        else:
            kn = np.ones(len(v), bool)
            for s, l in zip(s2, l2):
                kn[s : s + l] = False
            assert np.array_equal(keep, kn)


def test_gather_scatter_gaps_roundtrip():
    from fileconvert_ray.codecs.intcodecs import RunEsc, gather_gaps, scatter_gaps

    rng = np.random.default_rng(2)
    v = rng.integers(0, 6, 5000).astype(np.int32)
    v[100:140] = 3
    v[4000:4900] = 1
    rstarts, rlens, keep = RunEsc._find_runs(v, 8)
    resid = gather_gaps(v, rstarts, rlens, keep)
    assert np.array_equal(resid, v[keep])
    out = np.zeros(len(v), dtype=v.dtype)
    scatter_gaps(out, resid, rstarts, rlens, keep)
    assert np.array_equal(out[keep], v[keep])


def test_fsst_auto_selected_on_shared_prefix_strings():
    """Round-4 verdict #5: fsst is back in auto-selection with the
    vectorized encoder.  On a distinct-valued shared-prefix column
    (dict cannot win: every value unique) fsst must rank first without
    the zstd topper, the auto encode must round-trip bit-identically,
    and selection stays size-driven (never larger than plain)."""
    import pyarrow as pa

    from fileconvert_ray.codecs import decode_array, encode_array
    from fileconvert_ray.selector import select

    vals = [f"https://cdn.example.com/assets/v2/img_{i:08d}.png" for i in range(20_000)]
    arr = pa.array(vals, type=pa.string())
    assert select(arr, "str", zstd=False, target_n=len(arr)) == "fsst"

    enc = encode_array(arr, "col", codec="auto", zstd=False)
    assert enc.codec == "fsst"
    plain = encode_array(arr, "col", codec="plain", zstd=False)
    assert len(enc.payload) <= len(plain.payload)
    got = decode_array(enc)
    assert got.equals(arr)

    # with the zstd topper the choice is still size-driven (plain+zstd
    # happens to beat fsst+zstd here); whatever wins must round-trip
    enc_z = encode_array(arr, "col", codec="auto", zstd=True)
    assert len(enc_z.payload) <= len(plain.payload)
    assert decode_array(enc_z).equals(arr)


def test_fsst_vectorized_encoder_matches_regex_reference():
    """The lazy-round vectorized encode and the regex reference encoder
    both decode to the original for adversarial inputs (escape-dense,
    block-boundary-straddling symbols, sequential-id columns)."""
    import numpy as np

    from fileconvert_ray.codecs.fsst import SymbolTable, train

    rng = np.random.default_rng(7)
    cases = [
        b"",
        b"a" * 300,
        bytes(rng.integers(0, 256, 4096).astype(np.uint8)),     # escapes
        b"abcdefgh" * 1000,                                      # 8-byte symbols across blocks
        "".join(f"d{i:09d}" for i in range(5000)).encode(),      # sequential ids
        bytes(rng.integers(97, 101, 10_000).astype(np.uint8)),   # tiny alphabet
    ]
    for data in cases:
        tb = SymbolTable(train(data or b"xy"))
        assert tb.decode(tb.encode(data)) == data
        assert tb.decode(tb.encode_re(data)) == data


def _f64_bits(arr: pa.Array) -> np.ndarray:
    return np.ascontiguousarray(arr.to_numpy(zero_copy_only=False)).view(np.int64)


def test_alp_decimal_doubles_roundtrip_and_win():
    """Prices stored as float64 are decimals in disguise: ALP's integer
    view must round-trip bit-identically and beat the byte-level codecs."""
    cents = RNG.integers(0, 10_000_000, 100_000)
    arr = pa.array(cents / 100.0, type=pa.float64())
    enc = encode_array(arr, "price", codec="auto", zstd=True)
    assert enc.codec == "alp", enc.codec
    dec = decode_array(enc)
    assert np.array_equal(_f64_bits(dec), _f64_bits(arr))
    plane = encode_array(arr, "price", codec="plane", zstd=True)
    assert encoded_total_bytes(enc) < encoded_total_bytes(plane)
    assert encoded_total_bytes(enc) < enc.plain_bytes // 2


def test_alp_exceptions_bit_identical():
    """NaN / inf / -0.0 / huge / continuous stragglers ride the
    positional-exception path; the round-trip stays bit-identical."""
    base = RNG.integers(-(10**6), 10**6, 5000) / 1000.0
    vals = base.copy()
    vals[::97] = np.nan
    vals[1::211] = np.inf
    vals[2::223] = -np.inf
    vals[3::251] = -0.0
    vals[4::263] = 1e300
    vals[5::269] = np.pi
    arr = pa.array(vals, type=pa.float64())
    enc = encode_array(arr, "col", codec="alp", zstd=True)
    dec = decode_array(enc)
    assert np.array_equal(_f64_bits(dec), _f64_bits(arr))


def test_alp_float32_roundtrip():
    vals = (RNG.integers(0, 100_000, 50_000) / 100.0).astype(np.float32)
    arr = pa.array(vals, type=pa.float32())
    enc = encode_array(arr, "col", codec="auto", zstd=True)
    dec = decode_array(enc)
    got = np.ascontiguousarray(dec.to_numpy(zero_copy_only=False)).view(np.int32)
    assert np.array_equal(got, vals.view(np.int32))
    if enc.codec == "alp":
        assert encoded_total_bytes(enc) < enc.plain_bytes


def test_alp_declines_on_continuous_floats():
    """Uniform random doubles are not decimal-like: the codec must
    refuse (so the selector skips it) rather than emit 100% exceptions."""
    from fileconvert_ray.codecs.base import CodecError
    from fileconvert_ray.codecs.floatcodecs import Alp

    vals = RNG.random(10_000)
    data = vals.view(np.uint8).reshape(-1, 8)
    with pytest.raises(CodecError):
        Alp().encode(data)
    # the auto wrapper still round-trips via plain/plane
    arr = pa.array(vals, type=pa.float64())
    enc = encode_array(arr, "col", codec="auto", zstd=True)
    assert enc.codec != "alp"
    assert np.array_equal(_f64_bits(decode_array(enc)), _f64_bits(arr))


def test_alp_empty_and_nulls():
    from fileconvert_ray.codecs.floatcodecs import Alp

    params, payload = Alp().encode(np.empty((0, 8), dtype=np.uint8))
    assert Alp().decode(params, payload, 0).shape == (0, 8)
    arr = pa.array([1.25, None, 2.5, None, 3.75], type=pa.float64())
    enc = encode_array(arr, "col", codec="alp", zstd=True)
    assert decode_array(enc).to_pylist() == arr.to_pylist()


def test_alp_property_roundtrip():
    """Hypothesis-style sweep without the fixture cost: random decimal
    grids x random exponents x injected specials, every draw bit-exact."""
    rng = np.random.default_rng(1234)
    for trial in range(25):
        e = int(rng.integers(0, 12))
        n = int(rng.integers(1, 5000))
        digits = rng.integers(-(10**9), 10**9, n)
        vals = digits / (10.0 ** e)
        k = int(rng.integers(0, max(1, n // 8)))
        if k:
            pos = rng.choice(n, size=k, replace=False)
            specials = rng.choice(
                np.array([np.nan, np.inf, -np.inf, -0.0, 1e300, np.e]), size=k
            )
            vals[pos] = specials
        arr = pa.array(vals, type=pa.float64())
        enc = encode_array(arr, "col", codec="alp", zstd=bool(trial % 2))
        dec = decode_array(enc)
        assert np.array_equal(_f64_bits(dec), _f64_bits(arr)), (trial, e, n)


def test_alp_rd_embedding_floats_win_and_roundtrip():
    """Continuous float32 with clustered magnitudes (the embeddings
    shape): ALP-RD's front-bits dictionary must beat plain and stay
    bit-identical (pure bit split — no rounding anywhere)."""
    rng = np.random.default_rng(5)
    vals = (rng.normal(size=100_000) * 0.1).astype(np.float32)
    arr = pa.array(vals, type=pa.float32())
    enc = encode_array(arr, "emb", codec="auto", zstd=True)
    assert enc.codec == "alp_rd", enc.codec
    assert encoded_total_bytes(enc) < enc.plain_bytes
    got = np.ascontiguousarray(decode_array(enc).to_numpy(zero_copy_only=False))
    assert np.array_equal(got.view(np.int32), vals.view(np.int32))


def test_alp_rd_specials_and_dictionary_misses():
    """NaN / inf / denormals / huge outliers produce left patterns the
    sampled dictionary may miss — the exception stream must restore
    them bit-exactly (float64 path)."""
    rng = np.random.default_rng(6)
    vals = rng.normal(size=20_000)
    vals[::311] = np.nan
    vals[1::431] = np.inf
    vals[2::463] = -np.inf
    vals[3::487] = 5e-324      # denormal
    vals[4::499] = -1.7e308
    arr = pa.array(vals, type=pa.float64())
    enc = encode_array(arr, "col", codec="alp_rd", zstd=True)
    got = np.ascontiguousarray(decode_array(enc).to_numpy(zero_copy_only=False))
    assert np.array_equal(got.view(np.int64), vals.view(np.int64))


def test_alp_rd_empty():
    from fileconvert_ray.codecs.floatcodecs import AlpRd

    params, payload = AlpRd().encode(np.empty((0, 4), dtype=np.uint8))
    assert AlpRd().decode(params, payload, 0).shape == (0, 4)


def test_alp_rd_float16_roundtrip():
    """Null-free float16 reaches the fixed path (w=2): ALP-RD must
    round-trip bit-exactly including NaN/inf; nullable f16 still rides
    the int16 view elsewhere."""
    rng = np.random.default_rng(9)
    vals = (rng.normal(size=50_000) * 0.1).astype(np.float16)
    vals[::101] = np.float16(np.nan)
    vals[1::113] = np.float16(np.inf)
    arr = pa.array(vals, type=pa.float16())
    enc = encode_array(arr, "x", codec="alp_rd", zstd=True)
    got = np.ascontiguousarray(decode_array(enc).to_numpy(zero_copy_only=False))
    assert np.array_equal(got.view(np.int16), vals.view(np.int16))
    auto = encode_array(arr, "x", codec="auto", zstd=True)
    got2 = np.ascontiguousarray(decode_array(auto).to_numpy(zero_copy_only=False))
    assert np.array_equal(got2.view(np.int16), vals.view(np.int16))


# ------------------------------------------- whole-column selection
# A column no longer than the selector's sample is its own sample: the
# selector drops candidates that cannot win and encode_array keeps the
# selector's encode of the winner.  Both must leave the bytes unchanged.


def _per_doc_shapes():
    rng = np.random.default_rng(11)
    return {
        "n_tok_lognormal": pa.array(
            np.clip(np.exp(6.0 + rng.standard_normal(300)), 1, 32_768).astype(np.int32)
        ),
        "n_tok_lognormal_4096": pa.array(
            np.clip(np.exp(6.0 + rng.standard_normal(4096)), 1, 32_768).astype(np.int32)
        ),
        "doc_id": pa.array(["d%09d" % i for i in range(52_000, 52_300)]),
        "doc_id_blocks": pa.array(
            ["d%09d" % i for i in np.concatenate([np.arange(380, 480), np.arange(260, 360)])]
        ),
        "source_constant": pa.array(["src3"] * 300),
    }


def _whole_column_cases():
    from fileconvert_ray.selector import SAMPLE_N

    cases = {}
    for name, vals in INT_CASES.items():
        if len(vals) > SAMPLE_N:
            continue
        cases[f"int:{name}"] = pa.array(vals, type=pa.int64())
        if not vals.size or (vals.max() < 2**31 and vals.min() >= -(2**31)):
            cases[f"int32:{name}"] = pa.array(vals, type=pa.int32())
    for name, vals in STR_CASES.items():
        if len(vals) <= SAMPLE_N:
            cases[f"str:{name}"] = pa.array(vals, type=pa.string())
    for name, arr in _per_doc_shapes().items():
        cases[f"doc:{name}"] = arr
    return cases


def _kind_and_values(arr: pa.Array):
    if pa.types.is_string(arr.type):
        return "str", arr, STR_CODECS
    return "int", arr.to_numpy(zero_copy_only=False), INT_CODECS


@pytest.mark.parametrize("zstd", [True, False])
@pytest.mark.parametrize("case", list(_whole_column_cases()))
def test_whole_column_auto_matches_exhaustive_selection(case, zstd):
    """The pre-filter and the encode-once path give the same codec and
    the same bytes as ranking every candidate and encoding the best."""
    from fileconvert_ray.selector import NO_ZSTD_CANDIDATES, select_ranked

    arr = _whole_column_cases()[case]
    kind, values, table = _kind_and_values(arr)
    every = [c for c in table if zstd or c in NO_ZSTD_CANDIDATES]
    best = select_ranked(values, kind, candidates=every, zstd=zstd, target_n=len(arr))[0][0]
    want = encode_array(arr, "col", codec=best, zstd=zstd)
    got = encode_array(arr, "col", codec="auto", zstd=zstd)
    assert got.codec == want.codec
    assert got.payload == want.payload
    assert got.params == want.params
    assert decode_array(got).equals(arr)


def _record_measured(monkeypatch) -> list[str]:
    from fileconvert_ray import selector

    names: list[str] = []
    measure = selector._measured_size

    def recording(codec, sample, zstd):
        names.append(codec.name)
        return measure(codec, sample, zstd)

    monkeypatch.setattr(selector, "_measured_size", recording)
    return names


def test_prefilter_drops_candidates_that_cannot_win(monkeypatch):
    from fileconvert_ray.codecs.intcodecs import RunEsc
    from fileconvert_ray.selector import select_ranked

    rng = np.random.default_rng(5)
    no_runs = rng.integers(0, 50, 300).astype(np.int64)  # repeats, no long run
    assert RunEsc._find_runs(no_runs, RunEsc.MINRUN)[2] is None
    assert len(np.unique(no_runs)) < len(no_runs)
    names = _record_measured(monkeypatch)
    select_ranked(no_runs, "int", zstd=True, target_n=len(no_runs))
    assert not {"resc", "rrans"} & set(names)
    assert {"esc", "rans", "dict", "dictz"} <= set(names)

    names.clear()
    distinct = rng.permutation(300).astype(np.int64)
    select_ranked(distinct, "int", zstd=True)
    assert not {"dict", "dictz", "rans", "rrans", "resc"} & set(names)
    assert {"plain", "for_bitpack", "esc", "dz"} <= set(names)

    ids = pa.array(["d%09d" % i for i in range(300)])
    names.clear()
    select_ranked(ids, "str", zstd=True, target_n=len(ids))
    assert names == ["plain"]
    names.clear()
    select_ranked(ids, "str", zstd=False, target_n=len(ids))
    assert names == ["plain", "fsst"]


def test_explicit_candidates_bypass_prefilter(monkeypatch):
    from fileconvert_ray.selector import select_ranked

    names = _record_measured(monkeypatch)
    distinct = np.arange(300, dtype=np.int64)
    select_ranked(distinct, "int", candidates=list(INT_CODECS), zstd=True)
    assert names == list(INT_CODECS)

    names.clear()
    ids = pa.array(["d%09d" % i for i in range(300)])
    select_ranked(ids, "str", candidates=list(STR_CODECS), zstd=True)
    assert names == list(STR_CODECS)


@pytest.mark.parametrize("zstd", [True, False])
def test_whole_column_auto_encodes_each_candidate_once(monkeypatch, zstd):
    from collections import Counter

    calls: Counter = Counter()
    for kind, table in (("int", INT_CODECS), ("str", STR_CODECS)):
        for name, codec in table.items():
            def counted(*args, _encode=codec.encode, _key=(kind, name), **kw):
                calls[_key] += 1
                return _encode(*args, **kw)

            monkeypatch.setattr(codec, "encode", counted)
    for name, arr in _per_doc_shapes().items():
        calls.clear()
        enc = encode_array(arr, name, codec="auto", zstd=zstd)
        assert calls, name
        assert max(calls.values()) == 1, (name, calls)
        assert calls[("str" if pa.types.is_string(arr.type) else "int", enc.codec)] == 1


def test_fsst_table_compiles_its_regex_only_for_the_reference_encoder():
    from fileconvert_ray.codecs.fsst import SymbolTable, train

    data = "".join(f"https://cdn.example.com/a/{i:08d}.png" for i in range(500)).encode()
    tb = SymbolTable.deserialize(SymbolTable(train(data)).serialize())
    assert tb.decode(tb.encode(data)) == data
    assert "_pat" not in vars(tb)
    assert tb.decode(tb.encode_re(data)) == data
    assert "_pat" in vars(tb)


def test_auto_with_a_trained_fsst_table_encodes_with_that_table():
    """The selector trains its own FSST table; a caller's table must
    still be the one the kept payload was encoded with."""
    from fileconvert_ray.codecs.fsst import SymbolTable, train

    urls = pa.array([f"https://cdn.example.com/assets/img_{i:08d}.png" for i in range(300)])
    table = SymbolTable(train(b"https://cdn.example.com/assets/" * 50))
    got = encode_array(urls, "url", codec="auto", zstd=False, fsst_table=table)
    want = encode_array(urls, "url", codec="fsst", zstd=False, fsst_table=table)
    assert got.codec == "fsst"
    assert got.payload == want.payload and got.params == want.params


@pytest.mark.parametrize("runner_up, tried", [(110.0, ["esc", "for_bitpack"]), (130.0, ["esc"])])
def test_same_chunk_trial_encodes_the_top_two(monkeypatch, runner_up, tried):
    """trial=True really encodes the leader and, when its projection is
    within 25%, the runner-up — never a third candidate."""
    from collections import Counter

    from fileconvert_ray import selector
    from fileconvert_ray.codecs import TRIAL_MIN_N

    ranked = [("esc", 100.0), ("for_bitpack", runner_up), ("plain", 120.0), ("dz", 121.0)]
    monkeypatch.setattr(selector, "select_ranked", lambda *a, **kw: list(ranked))
    calls: Counter = Counter()
    for name, codec in INT_CODECS.items():
        def counted(*args, _encode=codec.encode, _name=name, **kw):
            calls[_name] += 1
            return _encode(*args, **kw)

        monkeypatch.setattr(codec, "encode", counted)
    vals = (RNG.zipf(1.3, TRIAL_MIN_N) % 31).astype(np.int32)
    enc = encode_array(pa.array(vals), "tokens", codec="auto", trial=True)
    assert sorted(calls) == sorted(tried) and max(calls.values()) == 1
    assert enc.codec in tried
