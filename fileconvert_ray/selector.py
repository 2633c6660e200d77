"""Codec auto-selector (SURVEY.md §2.2 E4).

The generalization of the reference's sample-based schema inference
(SURVEY §2.1 R5 — narrow a candidate set from evidence in a sample):
sample <=4096 values of a column chunk with a deterministic stride and
rank the candidate codecs by the size of a real encode of that sample
(zstd topper included).  The wrapper in ``codecs/__init__.py`` re-checks
the real encoded size of the whole chunk against plain and falls back,
so a sample that misjudges can cost speed but never size (hard part (d)
in SURVEY §7).

Two regimes:

- A chunk longer than the sample: every candidate encodes the sample
  at half and full length, and candidates are ranked by the size
  projected to the chunk length.
- A chunk no longer than the sample (the per-document columns of every
  partition): the sample IS the column, so one pass over it first
  drops the candidates that cannot win (see ``_cannot_win``), each
  survivor encodes the column once, and those encodes are handed back
  to ``encode_array`` so the winner is never encoded a second time.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

SAMPLE_N = 4096

# candidates when the zstd topper is off: the byte-aligned codecs
# (dictz, rans, rrans, dz) exist to feed the topper's entropy stage
NO_ZSTD_CANDIDATES = ("plain", "for_bitpack", "rle", "dict", "fsst", "esc", "resc")


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


def _measured_size(codec, sample, zstd: bool) -> tuple[float, tuple]:
    """Size of one real encode of ``sample`` (with the zstd topper when
    it shrinks the payload), and that encode as the wrapper stores it:
    ``(cparams, payload, zlen, total_bytes)``."""
    from .codecs import encode_topped

    enc = encode_topped(codec, sample, zstd)
    return float(enc[3]), enc


def _cannot_win(kind: str, column, zstd: bool) -> set[str]:
    """Candidates that cannot win on this whole column, from one pass
    over it (run statistics decide when run codecs can pay — Column
    Partition and Permutation for RLE, SIGMOD 2020).

    - No run of at least ``RunEsc.MINRUN``: ``resc`` / ``rrans`` are then
      ``esc`` / ``rans`` plus empty run streams and larger params —
      exactly larger, never a win.
    - Every value distinct: the dictionary-mapped codecs (int ``dict``,
      ``dictz``, ``rans``, ``rrans``; str ``dict``) store the column
      itself as the dictionary plus an index stream.  Without the
      topper this is exact for int ``dict``: one FOR miniblock holds
      the whole column, so its dictionary alone is as large as
      ``for_bitpack``'s payload.
    - zstd topper on: ``fsst`` is skipped, because plain+zstd already
      captures the repeated substrings its trained table would (on the
      shared-prefix URL column of tests/test_codecs.py plain+zstd beats
      fsst+zstd).

    The rules that are not exact are empirical: tests/test_codecs.py
    checks them against an exhaustive ranking on every whole-column
    fixture.
    """
    skip: set[str] = set()
    if kind == "int":
        from .codecs.intcodecs import RunEsc

        if RunEsc._find_runs(column, RunEsc.MINRUN)[2] is None:
            skip |= {"resc", "rrans"}
        if len(np.unique(column)) == len(column):
            skip |= {"dict", "dictz", "rans", "rrans"}
    elif kind == "str":
        if pc.count_distinct(column).as_py() == len(column):
            skip.add("dict")
        if zstd:
            skip.add("fsst")
    return skip


def select(
    values, kind: str, candidates: list[str] | None = None, zstd: bool = True,
    target_n: int | None = None,
) -> str:
    return select_ranked(values, kind, candidates, zstd, target_n)[0][0]


def select_ranked(
    values, kind: str, candidates: list[str] | None = None, zstd: bool = True,
    target_n: int | None = None, measured: dict | None = None,
) -> list[tuple[str, float]]:
    """Rank the candidate codecs by MEASURED encoded size on the sample:
    each candidate really encodes the <=4096-value sample and, when the
    zstd topper is on, the payload is really compressed — analytic
    estimates can't rank byte-aligned codecs (esc, dictz) against
    bit-packed ones because only the former gain from the topper's
    entropy stage.  The per-(source, column) choice cache that each
    worker process's partition writer keeps for one job
    (``stages/encoder.py``) amortizes this over a job's chunks.

    ``target_n``: length of the full chunk the choice will apply to.
    Codecs with real fixed costs (rans/rrans: freq table, lane states)
    lose on a 4096-value sample but win on an 8M-value chunk; encoding
    the sample at half and full length fits size(n) ~= fixed+marginal*n
    and ranks candidates by the PROJECTED size at target_n.  The
    projection is still blind to SUBLINEAR costs (the rANS freq table
    grows with sample distinct count, which saturates at the alphabet
    size only far beyond any affordable sample) — that residual
    uncertainty is resolved by the same-chunk trial in
    ``codecs.encode_array(trial=True)``, which really encodes the top 2.

    Whole column (``len(values) <= SAMPLE_N`` and nothing to project):
    the candidates ``_cannot_win`` names are skipped unless the caller
    passed an explicit ``candidates`` list, each survivor encodes the
    column once, and ``measured`` (when given) receives those encodes
    as ``{name: (cparams, payload, zlen, total_bytes)}``, so the caller
    can keep the winner's instead of encoding it again.

    Returns [(codec_name, projected_bytes)] sorted ascending."""
    from .codecs import FIXED_CODECS, INT_CODECS, STR_CODECS

    explicit = bool(candidates)
    if not zstd and not candidates:
        candidates = NO_ZSTD_CANDIDATES
    if kind == "int":
        values = np.ascontiguousarray(values, dtype=np.int64)
        sample = _sample_int(values)
        table = INT_CODECS
    elif kind == "fixed":
        sample = _sample_int(values)  # row-window sampling works on (n, w)
        table = FIXED_CODECS
    else:
        values = values if isinstance(values, pa.Array) else pa.array(values)
        sample = _sample_str(values)
        table = STR_CODECS
    if len(sample) == 0:
        return [("plain", 0.0)]
    n2 = len(sample)
    n1 = n2 // 2
    whole = len(values) == n2 and (target_n is None or target_n <= n2)
    project = target_n is not None and target_n > n2 and n1 >= 64
    skip = _cannot_win(kind, sample, zstd) if whole and not explicit else set()
    scores: list[tuple[str, float]] = []
    for name, codec in table.items():
        if candidates is not None and name not in candidates:
            continue
        if candidates is None and not getattr(codec, "auto", True):
            # opt-out codecs need an explicit request (none currently;
            # fsst re-joined auto-selection in round 5)
            continue
        if name in skip:
            continue
        try:
            s2, enc = _measured_size(codec, sample, zstd)
            if project:
                half = sample[:n1] if kind in ("int", "fixed") else sample.slice(0, n1)
                s1, _ = _measured_size(codec, half, zstd)
                marginal = max(0.0, (s2 - s1) / (n2 - n1))
                fixed = max(0.0, s2 - marginal * n2)
                size = fixed + marginal * target_n
            else:
                size = s2
        except Exception:
            continue
        if whole and measured is not None:
            measured[name] = enc
        scores.append((name, size))
    if not scores:
        return [("plain", 0.0)]
    scores.sort(key=lambda kv: kv[1])
    return scores
