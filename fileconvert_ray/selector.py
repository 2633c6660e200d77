"""Codec auto-selector (SURVEY.md §2.2 E4).

The generalization of the reference's sample-based schema inference
(SURVEY §2.1 R5 — narrow a candidate set from evidence in a sample):
sample <=4096 values of a column chunk with a deterministic stride,
really encode the sample with every candidate codec, pick the smallest.
The wrapper in ``codecs/__init__.py`` re-checks the real encoded size
of the whole chunk against plain and falls back, so a sample that
misjudges can cost speed but never size (hard part (d) in SURVEY §7).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

SAMPLE_N = 4096


def _sample_int(values: np.ndarray) -> np.ndarray:
    n = len(values)
    if n <= SAMPLE_N:
        return values
    # contiguous runs matter for RLE: sample a few contiguous windows
    # rather than a stride (a stride destroys run structure).
    k = 8
    win = SAMPLE_N // k
    starts = (np.arange(k) * (n - win) // max(1, k - 1)).astype(np.int64)
    return np.concatenate([values[s : s + win] for s in starts])


def _sample_str(arr: pa.Array) -> pa.Array:
    n = len(arr)
    if n <= SAMPLE_N:
        return arr
    k = 8
    win = SAMPLE_N // k
    starts = [int(i * (n - win) / max(1, k - 1)) for i in range(k)]
    return pa.concat_arrays([arr.slice(s, win) for s in starts])


def _measured_size(codec, sample, zstd: bool) -> float:
    import json

    cparams, payload = codec.encode(sample)
    size = float(len(payload) + len(json.dumps(cparams)))
    if zstd and len(payload) > 64:
        z = pa.compress(payload, codec="zstd", asbytes=True)
        size = min(size, float(len(z) + len(json.dumps(cparams))))
    return size


def select(
    values, kind: str, candidates: list[str] | None = None, zstd: bool = True,
    target_n: int | None = None,
) -> str:
    return select_ranked(values, kind, candidates, zstd, target_n)[0][0]


def select_ranked(
    values, kind: str, candidates: list[str] | None = None, zstd: bool = True,
    target_n: int | None = None,
) -> list[tuple[str, float]]:
    """Return the codec name with the smallest MEASURED encoded size on
    the sample: each candidate really encodes the <=4096-value sample
    and, when the zstd topper is on, the payload is really compressed —
    analytic estimates can't rank byte-aligned codecs (esc, dictz)
    against bit-packed ones because only the former gain from the
    topper's entropy stage.  The cost is amortized by the
    per-(source, column) choice cache that each worker process's
    partition writer keeps for one job (``stages/encoder.py``).

    ``target_n``: length of the full chunk the choice will apply to.
    Codecs with real fixed costs (rans/rrans: freq table, lane states)
    lose on a 4096-value sample but win on an 8M-value chunk; encoding
    the sample at half and full length fits size(n) ~= fixed+marginal*n
    and ranks candidates by the PROJECTED size at target_n.  The
    projection is still blind to SUBLINEAR costs (the rANS freq table
    grows with sample distinct count, which saturates at the alphabet
    size only far beyond any affordable sample) — that residual
    uncertainty is resolved by the full-chunk trial in
    ``codecs.encode_array`` (top-2 candidates really encoded once per
    (source, column), winner cached).

    Returns [(codec_name, projected_bytes)] sorted ascending."""
    from .codecs import INT_CODECS, STR_CODECS

    if not zstd:
        candidates = [
            c for c in (candidates or ["plain", "for_bitpack", "rle", "dict", "fsst", "esc", "resc"])
        ]
    from .codecs import FIXED_CODECS

    if kind == "int":
        sample = _sample_int(np.ascontiguousarray(values, dtype=np.int64))
        table = INT_CODECS
    elif kind == "fixed":
        sample = _sample_int(values)  # row-window sampling works on (n, w)
        table = FIXED_CODECS
    else:
        sample = _sample_str(values if isinstance(values, pa.Array) else pa.array(values))
        table = STR_CODECS
    if len(sample) == 0:
        return [("plain", 0.0)]
    n2 = len(sample)
    n1 = n2 // 2
    project = target_n is not None and target_n > n2 and n1 >= 64
    scores: list[tuple[str, float]] = []
    for name, codec in table.items():
        if candidates is not None and name not in candidates:
            continue
        if candidates is None and not getattr(codec, "auto", True):
            # opt-out codecs need an explicit request (none currently;
            # fsst re-joined auto-selection in round 5)
            continue
        try:
            s2 = _measured_size(codec, sample, zstd)
            if project:
                half = sample[:n1] if kind in ("int", "fixed") else sample.slice(0, n1)
                s1 = _measured_size(codec, half, zstd)
                marginal = max(0.0, (s2 - s1) / (n2 - n1))
                fixed = max(0.0, s2 - marginal * n2)
                size = fixed + marginal * target_n
            else:
                size = s2
        except Exception:
            continue
        scores.append((name, size))
    if not scores:
        return [("plain", 0.0)]
    scores.sort(key=lambda kv: kv[1])
    return scores
