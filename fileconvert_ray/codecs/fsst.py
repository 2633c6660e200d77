"""FSST string compression (Boncz, Neumann, Freitag — VLDB 2020), pure Python.

Public-paper algorithm, re-implemented from the published description:
train a table of <=255 symbols (1..8 bytes) on a sample by iterative
pair-merging of the current greedy parse; encode greedily
longest-match; code 255 is the escape marker for bytes not covered by
a symbol.

Speed notes (SURVEY.md §7 hard part a, round-4 verdict #5): encoding
is VECTORIZED numpy — longest-match codes for every byte position come
from per-symbol-length sorted-key ``searchsorted`` lookups over a
u64 sliding window (first-byte prefilter prunes the probe set), and
the greedy parse chain is resolved by a block-aligned simultaneous
walk: matches never cross a 128-byte block boundary (FSST decode is
pure concatenation, so ANY valid segmentation decodes identically —
the clamp costs <1% ratio), which lets every block emit one symbol
per round in lock-step numpy gathers instead of a per-symbol Python
loop.  The old regex-sub encoder is kept as ``encode_re`` (training
and the property tests' cross-check).  Decoding is fully vectorized
numpy (symbol-table gather + ragged mask ravel), including escapes.
"""

from __future__ import annotations

import functools
import re
from collections import Counter

import numpy as np

MAX_SYMBOLS = 255
MAX_SYMBOL_LEN = 8
ESCAPE = 255
_TRAIN_SAMPLE = 16 * 1024
_TRAIN_ITERS = 4


def _compile(symbols: list[bytes]) -> re.Pattern:
    # Longest alternatives first: Python re tries alternatives left to
    # right at each position, which yields greedy longest-match parsing.
    alts = sorted(symbols, key=len, reverse=True)
    pat = b"|".join(re.escape(s) for s in alts) + (b"|" if alts else b"") + b"(?s:.)"
    return re.compile(pat, re.DOTALL)


def train(sample: bytes, iters: int = _TRAIN_ITERS) -> list[bytes]:
    """Iterative pair-merge training on a bounded sample.  The sample
    is drawn from 8 windows SPREAD across the input, not its prefix: a
    sorted column's prefix shares long runs ("d000...") that the tail
    does not, and a prefix-trained table then escape-storms the tail
    (measured 1.22x PLAIN on a sequential-id column; window-sampled
    tables compress the same column)."""
    if len(sample) > _TRAIN_SAMPLE:
        k = 8
        win = _TRAIN_SAMPLE // k
        starts = [(i * (len(sample) - win)) // (k - 1) for i in range(k)]
        sample = b"".join(sample[s : s + win] for s in starts)
    if not sample:
        return []
    # round 0: frequent single bytes
    counts = Counter(sample)
    symbols = [bytes([b]) for b, _ in counts.most_common(MAX_SYMBOLS)]
    for _ in range(iters):
        pat = _compile(symbols)
        parse = pat.findall(sample)
        gain: Counter[bytes] = Counter()
        for tok in parse:
            gain[tok] += len(tok)
        for a, b in zip(parse, parse[1:]):
            cat = a + b
            if len(cat) <= MAX_SYMBOL_LEN:
                gain[cat] += len(cat)
        # keep symbols worth their table slot; singles ensure coverage
        best = [s for s, _ in gain.most_common(MAX_SYMBOLS)]
        symbols = best
    return symbols


class SymbolTable:
    def __init__(self, symbols: list[bytes]):
        if len(symbols) > MAX_SYMBOLS:
            raise ValueError("too many symbols")
        self.symbols = symbols
        self._code = {s: bytes([i]) for i, s in enumerate(symbols)}
        # decode gather table: (256, 8) byte matrix + lengths
        self._mat = np.zeros((256, MAX_SYMBOL_LEN), dtype=np.uint8)
        self._len = np.zeros(256, dtype=np.int64)
        for i, s in enumerate(symbols):
            self._mat[i, : len(s)] = np.frombuffer(s, dtype=np.uint8)
            self._len[i] = len(s)

    def serialize(self) -> bytes:
        out = [bytes([len(self.symbols)])]
        for s in self.symbols:
            out.append(bytes([len(s)]))
            out.append(s)
        return b"".join(out)

    @classmethod
    def deserialize(cls, blob: bytes) -> "SymbolTable":
        n = blob[0]
        pos = 1
        symbols = []
        for _ in range(n):
            ln = blob[pos]
            symbols.append(blob[pos + 1 : pos + 1 + ln])
            pos += 1 + ln
        return cls(symbols)

    @functools.cached_property
    def _pat(self) -> re.Pattern:
        # compiled on first use: only encode_re needs the 255-way
        # alternation, and it is most of a table's construction cost
        return _compile(self.symbols)

    def encode_re(self, data: bytes) -> bytes:
        """Reference encoder (regex alternation, one Python call per
        emitted symbol) — used by training and as the property tests'
        independent cross-check of ``encode``."""
        code = self._code

        def repl(m: re.Match) -> bytes:
            s = m.group(0)
            c = code.get(s)
            return c if c is not None else bytes((ESCAPE, s[0]))

        return self._pat.sub(repl, data)

    _BLOCK = 128  # parse-restart granularity of the vectorized encoder

    def _luts(self):
        """Lazily-built lookup structures for the vectorized encoder:
        direct 256/65536-entry code+length tables resolve 1- and 2-byte
        symbols in ONE gather (the classic FSST shortCodes idea);
        3..8-byte symbols get per-length sorted u64 keys with a 2-byte
        prefix prefilter (a 65536 bool table) so the searchsorted probe
        set is tiny on real data."""
        luts = getattr(self, "_luts_cache", None)
        if luts is None:
            code1 = np.full(256, ESCAPE, dtype=np.uint8)
            code2 = np.full(65536, ESCAPE, dtype=np.uint8)
            len2 = np.ones(65536, dtype=np.int64)
            by_len: dict[int, list[tuple[int, int]]] = {}
            for i, s in enumerate(self.symbols):
                if len(s) == 1:
                    code1[s[0]] = i
                elif len(s) == 2:
                    code2[int.from_bytes(s, "little")] = i
                    len2[int.from_bytes(s, "little")] = 2
                else:
                    by_len.setdefault(len(s), []).append((int.from_bytes(s, "little"), i))
            # fill the 2-byte table's misses with the 1-byte resolution
            # (broadcast code1 over the low byte wherever no 2-byte hit)
            miss = code2 == ESCAPE
            lowb = (np.arange(65536) & 0xFF).astype(np.int64)
            code2[miss] = code1[lowb[miss]]
            long_luts = []
            for L in sorted(by_len, reverse=True):
                pairs = sorted(by_len[L])
                keys = np.array([k for k, _ in pairs], dtype=np.uint64)
                codes = np.array([c for _, c in pairs], dtype=np.uint8)
                fb2 = np.zeros(65536, dtype=bool)
                fb2[[k & 0xFFFF for k, _ in pairs]] = True
                long_luts.append((L, keys, codes, fb2))
            self._luts_cache = (code1, code2, len2, long_luts)
        return self._luts_cache

    def encode(self, data: bytes) -> bytes:
        if not data:
            return b""
        code1, code2, len2, long_luts = self._luts()
        d = np.frombuffer(data, dtype=np.uint8)
        n = len(d)
        B = self._BLOCK
        pad = np.zeros(n + 8, dtype=np.uint8)
        pad[:n] = d
        # Simultaneous per-block greedy walk with LAZY matching: every
        # block emits one symbol per round, and the longest-match probe
        # runs only at the ~n/avg_len positions the walk actually
        # visits (matching eagerly at every byte costs 3-4x more).
        # Matches never cross block ends, so cursors land exactly on
        # the boundary.
        nb = (n + B - 1) // B
        cur = np.arange(nb, dtype=np.int64) * B
        end = np.minimum(cur + B, n)
        alive = np.flatnonzero(cur < end)
        em_pos: list[np.ndarray] = []
        em_code: list[np.ndarray] = []
        while len(alive):
            p = cur[alive]
            room = B - (p % B)
            w16p = pad[p].astype(np.uint16) | (
                pad[p + 1].astype(np.uint16) << np.uint16(8)
            )
            # short symbols: one gather resolves code+len (2-byte
            # symbol, else 1-byte symbol of the low byte, else escape)
            code = code2[w16p]
            ln = len2[w16p]
            demote = (ln == 2) & ((room < 2) | (p == n - 1))
            if demote.any():
                di = np.flatnonzero(demote)
                code[di] = code1[pad[p[di]]]
                ln[di] = 1
            # long symbols, longest first; first hit wins
            done = np.zeros(len(p), dtype=bool)
            for L, keys, codes, fb2 in long_luts:
                ci = np.flatnonzero(
                    ~done & fb2[w16p] & (room >= L) & (p <= n - L)
                )
                if len(ci) == 0:
                    continue
                pp = p[ci]
                kk = pad[pp].astype(np.uint64)
                for k in range(1, L):
                    kk |= pad[pp + k].astype(np.uint64) << np.uint64(8 * k)
                ins = np.minimum(np.searchsorted(keys, kk), len(keys) - 1)
                hit = keys[ins] == kk
                hi = ci[hit]
                code[hi] = codes[ins[hit]]
                ln[hi] = L
                done[hi] = True
            em_pos.append(p)
            em_code.append(code)
            cur[alive] = p + ln
            alive = alive[cur[alive] < end[alive]]
        pos = np.concatenate(em_pos)
        codes_out = np.concatenate(em_code)
        order = np.argsort(pos, kind="stable")  # block-major = global order
        pos = pos[order]
        codes_out = codes_out[order]
        esc = codes_out == ESCAPE
        out_len = np.where(esc, 2, 1)
        off = np.concatenate(([0], np.cumsum(out_len)))
        out = np.empty(int(off[-1]), dtype=np.uint8)
        out[off[:-1]] = codes_out
        out[off[:-1][esc] + 1] = d[pos[esc]]
        return out.tobytes()

    def decode(self, payload: bytes) -> bytes:
        if not payload:
            return b""
        codes = np.frombuffer(payload, dtype=np.uint8)
        lens = self._len[codes]
        mat = self._mat[codes]
        esc = codes == ESCAPE
        if esc.any():
            # Maximal runs of ESCAPE bytes alternate marker/literal from
            # the run start (a marker always consumes the next byte, and
            # only ESCAPE can be a marker — see codecs/fsst.py docstring).
            idx = np.flatnonzero(esc)
            run_start = np.flatnonzero(np.diff(idx, prepend=-2) > 1)
            starts = idx[run_start]
            run_id = np.cumsum(np.diff(idx, prepend=-2) > 1) - 1
            offset_in_run = idx - starts[run_id]
            markers = idx[offset_in_run % 2 == 0]
            lens = lens.copy()
            mat = mat.copy()
            lens[markers] = 1
            mat[markers, 0] = codes[markers + 1]
            # consumed literal positions emit nothing (this also zeroes
            # literal positions whose value happens to be a symbol code)
            lens[markers + 1] = 0
        out = mat[np.arange(MAX_SYMBOL_LEN)[None, :] < lens[:, None]]
        return out.tobytes()


class Fsst:
    """Codec adapter: operates on (lengths, concat-bytes) string parts."""

    name = "fsst"
    kind = "str"

    def estimate_bytes(self, sample: bytes, total_bytes: int) -> float:
        table = SymbolTable(train(sample))
        probe = sample[:4096]
        if not probe:
            return float(total_bytes)
        ratio = len(table.encode(probe)) / len(probe)
        return ratio * total_bytes + len(table.serialize())

    def encode_bytes(self, data: bytes, table: SymbolTable | None = None):
        if table is None:
            table = SymbolTable(train(data))
        return table, table.encode(data)

    def decode_bytes(self, table_blob: bytes, payload: bytes) -> bytes:
        return SymbolTable.deserialize(table_blob).decode(payload)
