"""Codec micro-benchmark: one process, no Ray.

Times ``codecs.encode_array`` and ``codecs.decode_array`` for every
registered int codec and for ``auto`` over one seeded F1b token array,
and separates the parts of ``auto``: the selector alone
(``select_ranked``), ``auto`` without the zstd topper, and the zstd
topper alone on the selected codec's raw payload.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import pyarrow as pa

CODECS = ["plain", "for_bitpack", "rle", "dict", "dictz", "esc", "resc", "rans", "rrans", "dz"]
N_TOKENS = 1 << 20
REPS = 3


def _median_time(fn) -> float:
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run(seed: int) -> dict[str, float]:
    from fileconvert_ray import codecs
    from fileconvert_ray.selector import select_ranked
    from fileconvert_ray.sources.tokseq import synth_rows

    # 4096 F1b rows hold about 2.4 M tokens; keep the first N_TOKENS
    flat = synth_rows(0, 4096, seed=seed).column("tokens").combine_chunks().values
    values = flat.to_numpy(zero_copy_only=False)[:N_TOKENS]
    if len(values) < N_TOKENS:
        raise ValueError(f"micro-benchmark array has {len(values)} < {N_TOKENS} tokens")
    arr = pa.array(values)
    mtok = N_TOKENS / 1e6
    out: dict[str, float] = {}
    variants = [(c, c, True) for c in CODECS] + [("auto", "auto", True), ("auto_nozstd", "auto", False)]
    for label, codec, zstd in variants:
        enc = codecs.encode_array(arr, "tokens", codec=codec, zstd=zstd)
        dec = codecs.decode_array(enc)
        if not np.array_equal(dec.to_numpy(zero_copy_only=False), values):
            raise AssertionError(f"codec {label} does not round-trip")
        enc_s = _median_time(lambda: codecs.encode_array(arr, "tokens", codec=codec, zstd=zstd))
        dec_s = _median_time(lambda: codecs.decode_array(enc))
        out[f"codecs.{label}.enc_mtok_s"] = mtok / enc_s
        out[f"codecs.{label}.dec_mtok_s"] = mtok / dec_s
    out["codecs.auto.select_s"] = _median_time(
        lambda: select_ranked(values, "int", zstd=True, target_n=N_TOKENS)
    )
    winner = codecs.encode_array(arr, "tokens", codec="auto", zstd=True).codec
    _, raw = codecs.INT_CODECS[winner].encode(values)
    out["codecs.auto.zstd_s"] = _median_time(lambda: pa.compress(raw, codec="zstd", asbytes=True))
    return out
