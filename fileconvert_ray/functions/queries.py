"""Driver-oracle query surface (SURVEY.md §5.2.6, FIXTURES.md F5).

Every entry in QUERIES is a Ray-Data pipeline over the testdata
parquet tables; entries in ORACLE_SQL are the DuckDB-equivalent ANSI
SQL over the same tables.  Column NAMES and TYPES match exactly (the
driver hashes values after sorting columns by name).  Float columns
are produced by the identical IEEE double operation on both sides
(int64 sums then one double division; cosine rounded to 6 decimals
computed in float64 on both sides — DuckDB needs ``::DOUBLE[]`` casts
because ``list_cosine_similarity`` on FLOAT lists computes in
float32).

Aggregations follow the pre-aggregate pattern: per-batch partials via
``pyarrow.TableGroupBy`` inside ``map_batches``, then a tiny global
``groupby().aggregate(Sum)`` — the shuffle moves O(groups), not
O(rows).
"""

from __future__ import annotations

import functools
import hashlib
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..sources.tokseq import tokseq_dataset
from .dedup import exact_dedup, minhash_dedup, ngram_dup_pairs, simhash_dedup
from .multimodal import BlobStats, blobs_from_documents
from .similarity import build_ivf_probes, embedding_dup_pairs, ivf_knn, knn_search, lsh_dup_pairs
from .textstats import TOKEN_RE, LangId, TokenCounter, fingerprint_batch, quality_batch

COSINE_T = 0.3
PRICE_T = 400_000.0
TOP_K = 10
KNN_K = 5
KNN_QIDS = (0, 1, 2)
NGRAM_T = 0.05
IVF_NLIST = 16
SAMPLE_HEX = "1a"  # md5-prefix sample: ~ int('1a',16)/256 = 10.2% of rows


def _dict_codes(col) -> tuple[np.ndarray, list]:
    """Factorize a string column: (int64 codes, O(distinct) dictionary).

    The vectorized remap idiom (round-3 verdict #4): any per-value
    Python lookup happens over the DICTIONARY (a handful of distinct
    strings), never row-by-row — ``lut[codes]`` then fans the mapped
    values back out in one numpy gather."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    denc = col.dictionary_encode()
    if isinstance(denc, pa.ChunkedArray):
        denc = denc.combine_chunks()
    codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    return codes, denc.dictionary.to_pylist()


def _sum_groupby(ds, keys: list[str], int_cols: list[str]):
    """groupby(keys).sum(int_cols) with per-batch partial aggregation."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(batch.select(keys + int_cols), keys).aggregate(
            [(c, "sum") for c in int_cols]
        )
        return g.rename_columns(keys + int_cols)

    small = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return small.groupby(keys).aggregate(*[Sum(c, alias_name=c) for c in int_cols])


def _in_sorted(sorted_keys: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Membership mask of ``vals`` in an ascending key array — the
    broadcast-side probe every filtered fact scan uses (O(n log k),
    no Python set)."""
    if len(sorted_keys) == 0:
        return np.zeros(len(vals), dtype=bool)
    idx = np.minimum(np.searchsorted(sorted_keys, vals), len(sorted_keys) - 1)
    return sorted_keys[idx] == vals


CUM_USER_BUCKETS = 64
WINDOW_BUCKET_TARGET_BYTES = 256 << 20  # per-bucket map_groups task budget


def _window_buckets(ds) -> int:
    """Bucket count for ``_segmented``: a FIXED count (the old
    CUM_USER_BUCKETS=64) means corpus/64 bytes per map_groups task —
    ~1.5 TB at 100 TB.  Size the count from the dataset's metadata byte
    estimate (no execution for parquet reads) so each bucket's sort
    stays within one worker's heap; results are bucket-count-invariant
    (each bucket holds WHOLE key partitions), only task granularity
    changes.  Floor 64 keeps small inputs wide enough to parallelize."""
    try:
        nbytes = ds.size_bytes() or 0
    except Exception:
        nbytes = 0
    return max(CUM_USER_BUCKETS, int(nbytes // WINDOW_BUCKET_TARGET_BYTES) + 1)


def _segmented(ds, key: str, order, kernel):
    """The one per-key window / sequence skeleton (SQL ``PARTITION BY
    key ORDER BY order``).

    Rows hash on splitmix64(``key``) into ``_window_buckets(ds)``
    buckets, so the single ``groupby(bucket).map_groups`` exchange pays
    one Python call per BUCKET, not per key.  A bucket holds whole keys,
    so results do not depend on the bucket count.  Each bucket is sorted
    once by ``(key, *order)`` — an order column written ``"-col"`` sorts
    descending — and ``kernel(sorted_table, starts)`` gets the sorted
    rows plus the int64 first row of every key segment.  Kernels do
    their per-key work as vectorized segment math (no per-key loop) and
    never see an empty table.  A key's rows are the irreducible grain,
    like any SQL window partition, so the hottest key bounds task
    memory.

    Pass the raw ``read_parquet`` Dataset: ``_window_buckets`` reads
    ``size_bytes()``, which comes from metadata there but executes the
    whole upstream pipeline on a mapped Dataset."""
    from ..util.hashing import splitmix64

    nb = np.uint64(_window_buckets(ds))
    sort_keys = [(key, "ascending")] + [
        (c[1:], "descending") if c.startswith("-") else (c, "ascending") for c in order
    ]

    def add_bucket(batch: pa.Table) -> pa.Table:
        k = batch.column(key).to_numpy(zero_copy_only=False).astype(np.int64)
        b = (splitmix64(k.view(np.uint64)) % nb).view(np.int64)
        return batch.append_column("_seg_bucket", pa.array(b))

    def per_bucket(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.table({})
        t = group.drop_columns(["_seg_bucket"])
        t = t.take(pc.sort_indices(t, sort_keys=sort_keys))
        k = t.column(key).to_numpy()
        starts = np.flatnonzero(np.concatenate(([True], k[1:] != k[:-1])))
        return kernel(t, starts.astype(np.int64))

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("_seg_bucket")
        .map_groups(per_bucket, batch_format="pyarrow")
    )


def _segment_ids(starts: np.ndarray, n: int) -> np.ndarray:
    """Segment index of each of ``n`` rows, given the segment starts."""
    return np.repeat(np.arange(len(starts)), np.diff(np.append(starts, n)))


# ----------------------------------------------------------- tokseq


def q_per_source_stats(sf_dir: str):
    ds = tokseq_dataset(sf_dir)

    def widen(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [
                batch.column("source"),
                pa.array(np.ones(batch.num_rows, dtype=np.int64)),
                pc.cast(batch.column("n_tok"), pa.int64()),
            ],
            names=["source", "n_docs", "sum_tok"],
        )

    agg = _sum_groupby(ds.map_batches(widen, batch_format="pyarrow"), ["source"], ["n_docs", "sum_tok"])
    t = pa.Table.from_pandas(agg.to_pandas(), preserve_index=False)  # O(sources) rows
    avg = t.column("sum_tok").to_numpy().astype(np.float64) / t.column("n_docs").to_numpy().astype(
        np.float64
    )
    return t.append_column("avg_tok", pa.array(avg, type=pa.float64()))


def q_token_histogram(sf_dir: str):
    ds = tokseq_dataset(sf_dir)

    def partial(batch: pa.Table) -> pa.Table:
        col = batch.column("tokens")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
        uniq, cnt = np.unique(flat, return_counts=True)
        return pa.Table.from_pydict(
            {"token": pa.array(uniq), "cnt": pa.array(cnt.astype(np.int64))}
        )

    return _sum_groupby(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True), ["token"], ["cnt"]
    )


def q_token_bigrams(sf_dir: str):
    """Corpus bigram table: ordered adjacent token pairs within a doc.

    Per batch: flatten the token lists once, pack each adjacent pair
    into a single int64 key (t1 << 32 | t2), drop the pairs that
    straddle a row boundary, and partial-count with one ``np.unique``
    — the shuffle then moves O(distinct bigrams) rows per batch
    (bounded by vocab², tiny), never O(tokens).  The n-gram LM-stats
    shape for a training pipeline: same code handles any n by packing
    more positions per key.
    """
    ds = tokseq_dataset(sf_dir)
    return _sum_groupby(
        ds.map_batches(bigram_partial, batch_format="pyarrow", zero_copy_batch=True),
        ["t1", "t2"],
        ["cnt"],
    )


def bigram_partial(batch: pa.Table) -> pa.Table:
    """Per-batch (t1, t2, cnt) bigram counts over a tokseq batch."""
    col = batch.column("tokens")
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
    empty = pa.Table.from_pydict(
        {
            "t1": pa.array([], type=pa.int64()),
            "t2": pa.array([], type=pa.int64()),
            "cnt": pa.array([], type=pa.int64()),
        }
    )
    if len(flat) < 2:
        return empty
    n_tok = batch.column("n_tok").to_numpy(zero_copy_only=False).astype(np.int64)
    ends = np.cumsum(n_tok)
    key = flat[:-1] << np.int64(32) | flat[1:]
    # pair i straddles a row boundary when i+1 is a row start
    mask = np.ones(len(key), dtype=bool)
    # empty rows repeat the previous end (and can put 0 at the
    # front); clip to real pair indices before masking
    row_ends = ends[:-1]
    row_ends = row_ends[(row_ends > 0) & (row_ends < len(flat))]
    mask[row_ends - 1] = False
    key = key[mask]
    if len(key) == 0:
        return empty
    uniq, cnt = np.unique(key, return_counts=True)
    return pa.Table.from_pydict(
        {
            "t1": pa.array(uniq >> np.int64(32)),
            "t2": pa.array(uniq & np.int64(0xFFFFFFFF)),
            "cnt": pa.array(cnt.astype(np.int64)),
        }
    )


def q_token_skipgrams(sf_dir: str):
    """Skip-gram co-occurrence counts (window +1/+2, word2vec-style):
    ordered (center, context) pairs where the context sits 1 or 2
    positions to the right.  Same shape as bigrams — per-batch packed
    np.unique partials, the exchange moves O(distinct pairs) — with the
    distance-2 pairs boundary-masked so pairs never span documents."""
    ds = tokseq_dataset(sf_dir)

    def partial(batch: pa.Table) -> pa.Table:
        col = batch.column("tokens")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
        n_tok = batch.column("n_tok").to_numpy(zero_copy_only=False).astype(np.int64)
        empty = pa.Table.from_pydict(
            {
                "t1": pa.array([], type=pa.int64()),
                "t2": pa.array([], type=pa.int64()),
                "cnt": pa.array([], type=pa.int64()),
            }
        )
        if len(flat) < 2:
            return empty
        ends = np.repeat(np.cumsum(n_tok), n_tok)
        pos = np.arange(len(flat), dtype=np.int64)
        keys = []
        for d in (1, 2):
            if len(flat) <= d:
                continue
            valid = (pos + d < ends)[:-d]
            keys.append((flat[:-d] << np.int64(32) | flat[d:])[valid])
        if not keys:
            return empty
        key = np.concatenate(keys)
        uniq, cnt = np.unique(key, return_counts=True)
        return pa.Table.from_pydict(
            {
                "t1": pa.array(uniq >> np.int64(32)),
                "t2": pa.array(uniq & np.int64(0xFFFFFFFF)),
                "cnt": pa.array(cnt.astype(np.int64)),
            }
        )

    return _sum_groupby(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["t1", "t2"],
        ["cnt"],
    )


def q_token_idf(sf_dir: str):
    """Document frequency + IDF per token (TF-IDF's corpus-wide half).

    Per batch: one np.unique over (row << 32 | token) keys gives each
    doc's distinct tokens — rows never straddle batches, so summing
    the per-batch counts with a tiny groupby yields exact df without
    shuffling (doc, token) pairs.  N comes from parquet metadata (no
    extra pass).  idf = round(ln(N/df), 6) in float64 on both sides.
    """
    ds = tokseq_dataset(sf_dir)
    n_docs = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows

    def partial(batch: pa.Table) -> pa.Table:
        col = batch.column("tokens")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
        n_tok = batch.column("n_tok").to_numpy(zero_copy_only=False).astype(np.int64)
        row = np.repeat(np.arange(len(n_tok), dtype=np.int64), n_tok)
        uniq = np.unique(row << np.int64(32) | flat)
        tok, df = np.unique(uniq & np.int64(0xFFFFFFFF), return_counts=True)
        return pa.Table.from_pydict(
            {"token": pa.array(tok), "df": pa.array(df.astype(np.int64))}
        )

    agg = _sum_groupby(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["token"],
        ["df"],
    )
    t = pa.Table.from_pandas(agg.to_pandas(), preserve_index=False)  # O(vocab) rows
    idf = np.round(np.log(float(n_docs) / t.column("df").to_numpy().astype(np.float64)), 6)
    return t.append_column("idf", pa.array(idf, type=pa.float64()))


def q_tfidf_top_terms(sf_dir: str):
    """Top-3 TF-IDF terms per document — the classic keyword-extraction
    pipeline: the O(vocab) df table broadcasts (one ray.put), and the
    per-doc pass is embarrassingly parallel (per-doc term counts via
    one np.unique over packed (row, token) keys, per-doc top-k via one
    lexsort + segment-head scan — no shuffle, no per-row Python).
    idf is quantized to integer micro-units PER TOKEN (idf_e6 =
    half-away-round of ln(N/df)*1e6) so the ranking key cnt * idf_e6
    is exact int64 arithmetic on both sides: a libm ULP difference can
    only surface at an O(vocab) number of rounding boundaries, not at
    O(doc x term) score roundings — the float-keyed variant of this
    query hit exactly such a pair-level boundary at sf0.1 (score
    1.766204 vs 1.766205).  Ties break by token ascending; the
    reported score is score_e6 / 1e6 (one correctly-rounded IEEE
    divide of identical ints — bit-identical across engines).
    Oracle: count CTE + row_number window on the identical integer
    key."""
    import ray
    import ray.data as rd

    K = 3
    ds = tokseq_dataset(sf_dir)
    n_docs = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    dft = q_token_idf(sf_dir)  # (token, df, idf) — O(vocab)
    toks = dft.column("token").to_numpy().astype(np.int64)
    lut = np.zeros(int(toks.max()) + 1, dtype=np.int64)
    idf = np.log(float(n_docs) / dft.column("df").to_numpy().astype(np.float64))
    lut[toks] = np.floor(idf * 1e6 + 0.5).astype(np.int64)  # half-away, idf >= 0
    lut_ref = ray.put(lut)

    def topk(batch: pa.Table) -> pa.Table:
        lu = ray.get(lut_ref)
        col = batch.column("tokens")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = pc.list_flatten(col).to_numpy(zero_copy_only=False).astype(np.int64)
        n_tok = pc.cast(batch.column("n_tok"), pa.int64()).to_numpy(zero_copy_only=False)
        row = np.repeat(np.arange(len(n_tok), dtype=np.int64), n_tok)
        keys, cnts = np.unique(row << np.int64(32) | flat, return_counts=True)
        krow = keys >> np.int64(32)
        ktok = keys & np.int64(0xFFFFFFFF)
        score_e6 = cnts.astype(np.int64) * lu[ktok]  # exact int64 ranking key
        # per-doc top-K: sort by (row asc, score desc, token asc), take
        # the first K of each row segment
        order = np.lexsort((ktok, -score_e6, krow))
        krow_s, ktok_s = krow[order], ktok[order]
        score_s, cnt_s = score_e6[order], cnts[order]
        seg_start = np.concatenate(([True], krow_s[1:] != krow_s[:-1]))
        pos = np.arange(len(krow_s)) - np.maximum.accumulate(
            np.where(seg_start, np.arange(len(krow_s)), 0)
        )
        keep = pos < K
        ids = pc.cast(batch.column("doc_id"), pa.int64()).to_numpy(zero_copy_only=False)
        return pa.Table.from_pydict({
            "doc_id": pa.array(ids[krow_s[keep]]),
            "token": pa.array(ktok_s[keep]),
            "cnt": pa.array(cnt_s[keep].astype(np.int64)),
            "score": pa.array(score_s[keep].astype(np.float64) / 1e6),
            "rank": pa.array((pos[keep] + 1).astype(np.int64)),
        })

    return ds.map_batches(topk, batch_format="pyarrow", zero_copy_batch=True)


def q_doc_len_percentile(sf_dir: str):
    """percent_rank of every doc's token length within its source —
    the per-record analogue of doc_len_quantiles, with NO global sort:
    pass 1 reduces to a per-(source, len) histogram (O(sources x
    distinct lens) — tiny, bounded domain), the driver turns it into
    per-source cumulative-below tables, and pass 2 is a broadcast
    lookup per batch.  pr = count(len < x) / (n - 1), the SQL
    percent_rank definition, computed in exact ints then one rounded
    division.  Oracle: the percent_rank window function itself."""
    import ray

    ds = tokseq_dataset(sf_dir)

    def hist(batch: pa.Table) -> pa.Table:
        src = batch.column("source")
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        denc = src.dictionary_encode()
        if isinstance(denc, pa.ChunkedArray):
            denc = denc.combine_chunks()
        si = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        ln = pc.cast(batch.column("n_tok"), pa.int64()).to_numpy(zero_copy_only=False)
        key = si * 1_000_000 + ln  # lens are small by construction
        uk, cnt = np.unique(key, return_counts=True)
        names = denc.dictionary.to_pylist()
        return pa.Table.from_pydict({
            "source": pa.array([names[int(k // 1_000_000)] for k in uk]),
            "len": pa.array(uk % 1_000_000),
            "cnt": pa.array(cnt.astype(np.int64)),
        })

    agg = _sum_groupby(
        ds.map_batches(hist, batch_format="pyarrow", zero_copy_batch=True),
        ["source", "len"], ["cnt"],
    ).to_pandas()  # O(sources x distinct lens)
    tables = {}
    for src, sub in agg.groupby("source"):
        sub = sub.sort_values("len")
        lens = sub["len"].to_numpy(dtype=np.int64)
        cnts = sub["cnt"].to_numpy(dtype=np.int64)
        below = np.concatenate(([0], np.cumsum(cnts)))[:-1]
        tables[src] = (lens, below, int(cnts.sum()))
    t_ref = ray.put(tables)

    def pr(batch: pa.Table) -> pa.Table:
        tabs = ray.get(t_ref)
        src = batch.column("source").to_numpy(zero_copy_only=False)
        ln = pc.cast(batch.column("n_tok"), pa.int64()).to_numpy(zero_copy_only=False)
        out = np.zeros(len(ln))
        for s in np.unique(src):
            lens, below, n = tabs[s]
            m = src == s
            idx = np.searchsorted(lens, ln[m])
            out[m] = below[idx] / max(n - 1, 1)
        out = np.floor(out * 1e6 + 0.5) / 1e6  # half-away, DuckDB round parity
        return pa.Table.from_pydict({
            "doc_id": pc.cast(batch.column("doc_id"), pa.int64()),
            "source": batch.column("source"),
            "n_tok": pc.cast(batch.column("n_tok"), pa.int64()),
            "pr": pa.array(out),
        })

    return ds.map_batches(pr, batch_format="pyarrow", zero_copy_batch=True)


def q_token_entropy(sf_dir: str):
    """Per-doc unigram cross-entropy vs the corpus LM — the classic
    cheap perplexity proxy for training-data quality scoring: docs of
    rare tokens score high, boilerplate scores low.

    Two passes, both streaming: (1) corpus token counts — per-batch
    np.unique partial, groupby-sum moves O(vocab) rows; (2) the
    O(vocab) -ln p LUT is broadcast once via ray.put and every doc's
    mean surprisal is a flat `take` + np.add.reduceat over its token
    offsets.  No (doc, token) pair ever crosses the exchange.  Oracle:
    unnest + count + avg(ln) in SQL, rounded to 6 dp on both sides."""
    import ray

    ds = tokseq_dataset(sf_dir)

    def counts(batch: pa.Table) -> pa.Table:
        col = batch.column("tokens")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
        tok, c = np.unique(flat, return_counts=True)
        return pa.Table.from_pydict(
            {"token": pa.array(tok), "c": pa.array(c.astype(np.int64))}
        )

    agg = _sum_groupby(
        ds.map_batches(counts, batch_format="pyarrow", zero_copy_batch=True),
        ["token"], ["c"],
    ).to_pandas()  # O(vocab) rows
    vocab_hi = int(agg["token"].max()) + 1
    total = float(agg["c"].sum())
    neg_logp = np.zeros(vocab_hi, dtype=np.float64)
    neg_logp[agg["token"].to_numpy(dtype=np.int64)] = np.log(total) - np.log(
        agg["c"].to_numpy(dtype=np.float64)
    )
    lut_ref = ray.put(neg_logp)

    def xent(batch: pa.Table) -> pa.Table:
        lut = ray.get(lut_ref)
        col = batch.column("tokens")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
        n_tok = batch.column("n_tok").to_numpy(zero_copy_only=False).astype(np.int64)
        starts = np.concatenate(([0], np.cumsum(n_tok)))[:-1]
        sums = np.add.reduceat(lut[flat], starts) if len(flat) else np.zeros(0)
        sums = np.where(n_tok > 0, sums, 0.0)  # reduceat repeats on empty segments
        x = sums / np.maximum(n_tok, 1)
        x = np.floor(x * 1e6 + 0.5) / 1e6  # half-away, DuckDB round parity
        return pa.Table.from_pydict(
            {
                "doc_id": pc.cast(batch.column("doc_id"), pa.int64()),
                "xent": pa.array(x),
            }
        )

    return ds.map_batches(xent, batch_format="pyarrow", zero_copy_batch=True)


def q_bigram_entropy(sf_dir: str):
    """Per-doc BIGRAM cross-entropy vs the corpus bigram LM — one rung
    up the quality ladder from q_token_entropy: mean -ln p(b|a) over a
    doc's adjacent pairs, where p(b|a) = c(a,b) / c(a,·).  Catches
    repetitive-but-rare-token boilerplate the unigram proxy misses
    (its pairs repeat, so p(b|a) is high and the doc scores LOW).

    Two passes, both streaming: (1) corpus bigram counts — per-batch
    np.unique partial over packed (a<<32)|b keys (bigrams never cross
    a doc boundary), groupby-sum moves O(distinct bigrams) rows;
    prefix totals c(a,·) fall out of one reduceat over the sorted
    keys on the driver.  (2) the sorted (key, -ln p) LM is broadcast
    once via ray.put and each doc's mean pair surprisal is a
    vectorized searchsorted + reduceat — every probe hits because the
    LM was counted over the same corpus.  No (doc, pair) row ever
    crosses the exchange.  Docs with <2 tokens have no pairs and are
    omitted (the SQL oracle's join does the same).  100-TB note: the
    LM is O(distinct bigrams); beyond driver memory, prune to top-K
    pairs + unigram backoff (the pruning changes scores, so it is a
    deliberate different operator, not a flag here)."""
    import ray

    ds = tokseq_dataset(sf_dir)

    def pair_counts(batch: pa.Table) -> pa.Table:
        col = batch.column("tokens")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = col.values.to_numpy(zero_copy_only=False).astype(np.int64)
        lens = np.diff(col.offsets.to_numpy(zero_copy_only=False).astype(np.int64))
        seg = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        if len(flat) < 2:
            return pa.table({"bk": pa.array([], pa.int64()), "c": pa.array([], pa.int64())})
        same = seg[:-1] == seg[1:]
        key = (flat[:-1] << np.int64(32)) | flat[1:]
        bk, c = np.unique(key[same], return_counts=True)
        return pa.Table.from_pydict(
            {"bk": pa.array(bk), "c": pa.array(c.astype(np.int64))}
        )

    agg = _sum_groupby(
        ds.map_batches(pair_counts, batch_format="pyarrow", zero_copy_batch=True),
        ["bk"], ["c"],
    ).to_pandas()  # O(distinct bigrams) rows
    keys = agg["bk"].to_numpy(dtype=np.int64)
    cnt = agg["c"].to_numpy(dtype=np.float64)
    order = np.argsort(keys)
    keys_s, cnt_s = keys[order], cnt[order]
    a = keys_s >> np.int64(32)
    starts = np.concatenate(([0], np.flatnonzero(np.diff(a)) + 1))
    ca = np.add.reduceat(cnt_s, starts)  # c(a,.) per distinct prefix
    neg_logp = np.log(np.repeat(ca, np.diff(np.concatenate((starts, [len(a)]))))) - np.log(cnt_s)
    keys_ref = ray.put(keys_s)
    lm_ref = ray.put(neg_logp)

    def xent(batch: pa.Table) -> pa.Table:
        ks = ray.get(keys_ref)
        lm = ray.get(lm_ref)
        col = batch.column("tokens")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = col.values.to_numpy(zero_copy_only=False).astype(np.int64)
        n_tok = batch.column("n_tok").to_numpy(zero_copy_only=False).astype(np.int64)
        keep = n_tok >= 2
        n_pairs = np.maximum(n_tok - 1, 0)
        if len(flat) < 2 or not keep.any():
            return pa.table({"doc_id": pa.array([], pa.int64()), "xent2": pa.array([], pa.float64())})
        lens = np.diff(col.offsets.to_numpy(zero_copy_only=False).astype(np.int64))
        seg = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        same = seg[:-1] == seg[1:]
        key = ((flat[:-1] << np.int64(32)) | flat[1:])[same]
        vals = lm[np.searchsorted(ks, key)]  # every pair was counted
        pstarts = np.concatenate(([0], np.cumsum(n_pairs)))[:-1]
        sums = np.add.reduceat(vals, pstarts[keep]) if keep.any() else np.zeros(0)
        x = sums / n_pairs[keep]
        x = np.floor(x * 1e6 + 0.5) / 1e6  # half-away, DuckDB round parity
        return pa.Table.from_pydict(
            {
                "doc_id": pc.cast(batch.column("doc_id"), pa.int64()).filter(
                    pa.array(keep)
                ),
                "xent2": pa.array(x),
            }
        )

    return ds.map_batches(xent, batch_format="pyarrow", zero_copy_batch=True)


DOC_LEN_QUANTILES = (0.25, 0.5, 0.75, 0.9, 0.99)


def q_doc_len_quantiles(sf_dir: str):
    """Exact per-source quantiles of doc length without a global sort.

    Distinct document lengths are bounded (a few thousand values no
    matter the corpus size), so the scale-correct plan is a bounded
    histogram: per-batch (source, n_chars) counts, a groupby-sum that
    moves O(sources × distinct lengths) rows, then a driver-side
    cumsum over that tiny table to read off percentile_disc values
    (sorted[ceil(q·n)-1], DuckDB's discrete-percentile rule).
    """
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["source", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["source", "n_chars"]).aggregate([([], "count_all")])
        return pa.Table.from_pydict(
            {
                "source": g.column("source"),
                "n_chars": g.column("n_chars"),
                "cnt": pc.cast(g.column("count_all"), pa.int64()),
            }
        )

    hist = _sum_groupby(
        ds.map_batches(partial, batch_format="pyarrow"), ["source", "n_chars"], ["cnt"]
    ).to_pandas()  # O(sources × distinct lengths) rows
    rows: dict[str, list] = {"source": []}
    qnames = [f"p{int(q * 100)}" for q in DOC_LEN_QUANTILES]
    for name in qnames:
        rows[name] = []
    for source, grp in hist.groupby("source", sort=True):
        grp = grp.sort_values("n_chars")
        vals = grp["n_chars"].to_numpy()
        cum = grp["cnt"].to_numpy().cumsum()
        n = int(cum[-1])
        rows["source"].append(source)
        for q, name in zip(DOC_LEN_QUANTILES, qnames):
            rank = int(np.ceil(q * n))
            rows[name].append(int(vals[np.searchsorted(cum, max(rank, 1))]))
    return pa.Table.from_pydict(
        {
            "source": pa.array(rows["source"], type=pa.string()),
            **{name: pa.array(rows[name], type=pa.int64()) for name in qnames},
        }
    )


def q_doc_len_quantiles_cont(sf_dir: str):
    """Interpolated (percentile_cont) per-source quantiles — same
    bounded-histogram plan as the discrete variant (the exchange moves
    O(sources x distinct lengths) rows, no global sort); the driver
    reads BOTH neighbors of the fractional rank h = (n-1)q off the
    cumsum and interpolates a + (b-a)*(h-floor(h)) exactly as DuckDB
    does, rounded to 6 to absorb libm ULPs."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["source", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["source", "n_chars"]).aggregate([([], "count_all")])
        return pa.Table.from_pydict(
            {
                "source": g.column("source"),
                "n_chars": g.column("n_chars"),
                "cnt": pc.cast(g.column("count_all"), pa.int64()),
            }
        )

    hist = _sum_groupby(
        ds.map_batches(partial, batch_format="pyarrow"), ["source", "n_chars"], ["cnt"]
    ).to_pandas()
    qs = (0.25, 0.5, 0.75)
    rows: dict[str, list] = {"source": [], "c25": [], "c50": [], "c75": []}
    for source, grp in hist.groupby("source", sort=True):
        grp = grp.sort_values("n_chars")
        vals = grp["n_chars"].to_numpy().astype(np.float64)
        cum = grp["cnt"].to_numpy().cumsum()
        n = int(cum[-1])
        rows["source"].append(source)
        for q, name in zip(qs, ("c25", "c50", "c75")):
            h = (n - 1) * q
            lo = int(np.floor(h))
            a = vals[np.searchsorted(cum, lo + 1)]
            b = vals[np.searchsorted(cum, min(lo + 1, n - 1) + 1)]
            v = a + (b - a) * (h - lo)
            rows[name].append(np.floor(abs(v) * 1e6 + 0.5) / 1e6)
    return pa.Table.from_pydict(
        {
            "source": pa.array(rows["source"], type=pa.string()),
            **{k: pa.array(rows[k], type=pa.float64()) for k in ("c25", "c50", "c75")},
        }
    )


EVENT_TYPES = ("click", "error", "purchase", "signup", "view")


def q_events_pivot(sf_dir: str):
    """PIVOT: hour x event_type count matrix as wide columns — the
    long->wide reshape.  Per-batch partials count each type into its
    own column (one np.unique over (hour, type-code) packed keys), so
    the groupby-sum exchange moves O(hours) wide rows, never events."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["ts", "event_type"])
    tmap = {t: i for i, t in enumerate(EVENT_TYPES)}

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").to_numpy(zero_copy_only=False).astype("datetime64[us]")
        hour = ts.astype(np.int64) // 3_600_000_000
        codes, vals = _dict_codes(batch.column("event_type"))
        code = np.array([tmap[v] for v in vals], dtype=np.int64)[codes]
        key = hour * len(EVENT_TYPES) + code
        uniq, cnt = np.unique(key, return_counts=True)
        uh = uniq // len(EVENT_TYPES)
        uc = uniq % len(EVENT_TYPES)
        hours = np.unique(uh)
        mat = np.zeros((len(hours), len(EVENT_TYPES)), dtype=np.int64)
        mat[np.searchsorted(hours, uh), uc] = cnt
        return pa.Table.from_pydict(
            {
                "hour": pa.array(hours),
                **{f"n_{t}": pa.array(mat[:, i]) for t, i in tmap.items()},
            }
        )

    return _sum_groupby(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["hour"], [f"n_{t}" for t in EVENT_TYPES],
    )


PRICE_QUANTILES = (0.01, 0.25, 0.5, 0.75, 0.99)
_PQ_BUCKETS = 1 << 16


def q_price_quantiles(sf_dir: str):
    """EXACT quantiles of a continuous double column (l_extendedprice)
    with no global sort — the selection problem at 100 TB.

    doc_len_quantiles exploits a bounded value domain; a continuous
    column has none, so this uses histogram refinement instead:
    pass 1 computes min/max, pass 2 bins every value into 2^16 equal
    buckets (per-batch np.bincount partial -> groupby-sum moves
    O(buckets) rows), the driver's cumsum locates the bucket holding
    each target rank, and pass 3 collects ONLY the values inside those
    buckets (~n/2^16 rows each) with a pushed-down filter and selects
    the exact order statistic in memory.  Three streaming scans,
    O(buckets) driver state, zero shuffle of data rows.  Rank rule:
    sorted[ceil(q*n)-1] — DuckDB percentile_disc; returned values are
    actual elements, so the float compare is exact."""
    import ray.data as rd
    from ray.data.aggregate import Max, Min

    path = f"{sf_dir}/lineitem.parquet"

    def scan():
        return rd.read_parquet(path, columns=["l_extendedprice"])

    stats = scan().aggregate(Min("l_extendedprice"), Max("l_extendedprice"))
    lo, hi = float(stats["min(l_extendedprice)"]), float(stats["max(l_extendedprice)"])
    width = (hi - lo) / _PQ_BUCKETS or 1.0

    def hist(batch: pa.Table) -> pa.Table:
        v = batch.column("l_extendedprice").to_numpy(zero_copy_only=False)
        b = np.clip(((v - lo) / width).astype(np.int64), 0, _PQ_BUCKETS - 1)
        ub, cnt = np.unique(b, return_counts=True)
        return pa.Table.from_pydict(
            {"bucket": pa.array(ub), "cnt": pa.array(cnt.astype(np.int64))}
        )

    h = (
        _sum_groupby(
            scan().map_batches(hist, batch_format="pyarrow", zero_copy_batch=True),
            ["bucket"], ["cnt"],
        )
        .to_pandas()
        .sort_values("bucket")
    )  # O(buckets) rows
    buckets = h["bucket"].to_numpy(dtype=np.int64)
    cum = h["cnt"].to_numpy(dtype=np.int64).cumsum()
    n = int(cum[-1])
    # target rank -> (bucket, rank within bucket), all on the tiny histogram
    want: dict[int, list[tuple[float, int]]] = {}
    for q in PRICE_QUANTILES:
        rank = max(int(np.ceil(q * n)), 1)  # 1-indexed global order statistic
        i = int(np.searchsorted(cum, rank))
        before = int(cum[i - 1]) if i else 0
        want.setdefault(int(buckets[i]), []).append((q, rank - before))
    need = sorted(want)
    lo_edges = [lo + b * width for b in need]

    def grab(batch: pa.Table) -> pa.Table:
        v = batch.column("l_extendedprice").to_numpy(zero_copy_only=False)
        b = np.clip(((v - lo) / width).astype(np.int64), 0, _PQ_BUCKETS - 1)
        m = np.isin(b, need)
        return pa.Table.from_pydict({"v": pa.array(v[m]), "b": pa.array(b[m])})

    got = (
        scan()
        .filter(expr=f"l_extendedprice >= {min(lo_edges)}")  # row-group pruning
        .map_batches(grab, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()  # ~len(need) * n / 2^16 rows — tiny by construction
    )
    out_q, out_v = [], []
    for b, targets in want.items():
        vals = np.sort(got.loc[got["b"] == b, "v"].to_numpy())
        for q, r in targets:
            out_q.append(q)
            out_v.append(float(vals[r - 1]))
    order = np.argsort(out_q)
    return pa.Table.from_pydict(
        {
            "q": pa.array(np.asarray(out_q)[order], type=pa.float64()),
            "value": pa.array(np.asarray(out_v)[order], type=pa.float64()),
        }
    )


def q_distinct_sources(sf_dir: str):
    ds = tokseq_dataset(sf_dir)
    vals = sorted(ds.unique("source"))
    return pa.Table.from_pydict({"source": pa.array(vals, type=pa.string())})


def q_top_docs_by_len(sf_dir: str):
    ds = tokseq_dataset(sf_dir).select_columns(["doc_id", "n_tok", "source"])
    return ds.sort(["n_tok", "doc_id"], descending=[True, False]).limit(TOP_K)


def q_dedup_text_stats(sf_dir: str):
    """Per source: doc count and distinct-text count.  Exact grouping on
    (source, text); the 100 TB path swaps text for a 128-bit content
    hash with in-group re-check (functions/dedup.py)."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["source", "text"])
    per_text = _sum_groupby(
        ds.map_batches(
            lambda b: b.append_column("one", pa.array(np.ones(b.num_rows, dtype=np.int64))),
            batch_format="pyarrow",
        ),
        ["source", "text"],
        ["one"],
    )
    uniq = _sum_groupby(
        per_text.map_batches(
            lambda b: pa.Table.from_pydict(
                {
                    "source": b.column("source"),
                    "n_unique_text": pa.array(np.ones(b.num_rows, dtype=np.int64)),
                    "n_docs": pc.cast(b.column("one"), pa.int64()),
                }
            ),
            batch_format="pyarrow",
        ),
        ["source"],
        ["n_unique_text", "n_docs"],
    )
    return uniq


# -------------------------------------------------- text analysis


def q_text_quality(sf_dir: str):
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(quality_batch, batch_format="pyarrow", zero_copy_batch=True)


def q_doc_fingerprint(sf_dir: str, hash: str = "fnv"):
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(
        fingerprint_batch, batch_format="pyarrow", zero_copy_batch=True,
        fn_kwargs={"hash": hash},
    )


def q_token_count_regex(sf_dir: str):
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(
        TokenCounter, batch_format="pyarrow", zero_copy_batch=True, concurrency=(1, 4)
    )


def q_lang_stats(sf_dir: str):
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang"])
    return _sum_groupby(
        ds.map_batches(
            lambda b: b.append_column("n_docs", pa.array(np.ones(b.num_rows, dtype=np.int64))),
            batch_format="pyarrow",
        ),
        ["lang"],
        ["n_docs"],
    )


def q_source_lang_rollup(sf_dir: str):
    """GROUP BY ROLLUP(source, lang): doc count + char sum at three
    grains — (source, lang), (source), and grand total.  Scale shape:
    ONE distributed groupby at the finest grain; the coarser levels
    are derived from that O(sources x langs) table on the driver, so
    no extra pass and no second shuffle (the standard OLAP rollup
    trick).  Null grouping slots are the literal 'ALL' so the value
    hash can't trip on NULL/NaN.  Oracle: DuckDB ROLLUP with the same
    coalesce."""
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "lang", "n_chars"]
    )

    def widen(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "source": batch.column("source"),
                "lang": batch.column("lang"),
                "n_docs": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
                "sum_chars": pc.cast(batch.column("n_chars"), pa.int64()),
            }
        )

    fine = _sum_groupby(
        ds.map_batches(widen, batch_format="pyarrow", zero_copy_batch=True),
        ["source", "lang"], ["n_docs", "sum_chars"],
    ).to_pandas()  # O(sources x langs)
    per_source = (
        fine.groupby("source", as_index=False)[["n_docs", "sum_chars"]].sum()
        .assign(lang="ALL")
    )
    total = pd.DataFrame(
        {
            "source": ["ALL"],
            "lang": ["ALL"],
            "n_docs": [fine["n_docs"].sum()],
            "sum_chars": [fine["sum_chars"].sum()],
        }
    )
    out = pd.concat([fine, per_source, total], ignore_index=True)
    return pa.Table.from_pandas(
        out[["source", "lang", "n_docs", "sum_chars"]], preserve_index=False
    )


def q_source_lang_cube(sf_dir: str):
    """GROUP BY CUBE(source, lang): all four grains from ONE
    distributed groupby at the finest grain — the lang-only and
    grand-total levels are driver-side folds of the O(sources x langs)
    fine table, same zero-extra-shuffle trick as the rollup."""
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "lang", "n_chars"]
    )

    def widen(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "source": batch.column("source"),
                "lang": batch.column("lang"),
                "n_docs": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
                "sum_chars": pc.cast(batch.column("n_chars"), pa.int64()),
            }
        )

    fine = _sum_groupby(
        ds.map_batches(widen, batch_format="pyarrow", zero_copy_batch=True),
        ["source", "lang"], ["n_docs", "sum_chars"],
    ).to_pandas()  # O(sources x langs)
    per_source = (
        fine.groupby("source", as_index=False)[["n_docs", "sum_chars"]].sum()
        .assign(lang="ALL")
    )
    per_lang = (
        fine.groupby("lang", as_index=False)[["n_docs", "sum_chars"]].sum()
        .assign(source="ALL")
    )
    total = pd.DataFrame(
        {
            "source": ["ALL"],
            "lang": ["ALL"],
            "n_docs": [fine["n_docs"].sum()],
            "sum_chars": [fine["sum_chars"].sum()],
        }
    )
    out = pd.concat([fine, per_source, per_lang, total], ignore_index=True)
    return pa.Table.from_pandas(
        out[["source", "lang", "n_docs", "sum_chars"]], preserve_index=False
    )


def q_doc_len_ntile(sf_dir: str):
    """NTILE(4) per source over (n_chars, doc_id) — the quartile-bucket
    window.  One groupby(source); inside each group a single argsort
    and a closed-form tile assignment (first n%k tiles one element
    larger), no per-row Python.  Ties are impossible because doc_id
    breaks them, so both sides are deterministic."""
    import ray.data as rd

    K = 4

    def tiles(group: pa.Table) -> pa.Table:
        n_chars = group.column("n_chars").to_numpy(zero_copy_only=False)
        ids = pc.cast(group.column("doc_id"), pa.int64()).to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, n_chars))
        n = len(ids)
        size, rem = divmod(n, K)
        r = np.empty(n, dtype=np.int64)
        r[order] = np.arange(n)
        cut = rem * (size + 1)
        tile = np.where(r < cut, r // max(size + 1, 1), rem + (r - cut) // max(size, 1))
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(ids),
                "source": group.column("source"),
                "tile": pa.array(tile + 1),
            }
        )

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "source", "n_chars"])
    return ds.groupby("source").map_groups(tiles, batch_format="pyarrow")


def q_len_tok_corr(sf_dir: str):
    """Per-source Pearson correlation between n_chars and word count —
    computed from INTEGER moment sums (n, Sx, Sy, Sxy, Sxx, Syy) that
    are exact under any summation order, so the Ray and SQL sides agree
    bit-for-bit after one identical float expression at the end.  (At
    web scale the int64 moments overflow around Sxx ~ 9e18; the scale
    path centers by an approximate mean first or uses float Welford —
    the exchange shape is identical.)"""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["source", "text", "n_chars"])

    def widen(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        y = pc.list_value_length(pc.split_pattern(text, " ")).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        x = batch.column("n_chars").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.Table.from_pydict(
            {
                "source": batch.column("source"),
                "n": pa.array(np.ones(len(x), dtype=np.int64)),
                "sx": pa.array(x),
                "sy": pa.array(y),
                "sxy": pa.array(x * y),
                "sxx": pa.array(x * x),
                "syy": pa.array(y * y),
            }
        )

    agg = _sum_groupby(
        ds.map_batches(widen, batch_format="pyarrow", zero_copy_batch=True),
        ["source"], ["n", "sx", "sy", "sxy", "sxx", "syy"],
    ).to_pandas()  # O(sources)
    n = agg["n"].to_numpy()
    sx, sy = agg["sx"].to_numpy(), agg["sy"].to_numpy()
    sxy, sxx, syy = agg["sxy"].to_numpy(), agg["sxx"].to_numpy(), agg["syy"].to_numpy()
    num = (n * sxy - sx * sy).astype(np.float64)
    den = np.sqrt((n * sxx - sx * sx).astype(np.float64) * (n * syy - sy * sy).astype(np.float64))
    r = num / den
    r = np.copysign(np.floor(np.abs(r) * 1e6 + 0.5), r) / 1e6
    return pa.Table.from_pydict(
        {"source": pa.array(agg["source"]), "corr_len_tok": pa.array(r, type=pa.float64())}
    )


def q_viewer_buyer_sets(sf_dir: str):
    """Set operations over event-type membership: classify every user
    as 'both' (view INTERSECT purchase), 'view_only' (view EXCEPT
    purchase) or 'purchase_only'.  Per-batch partials OR the membership
    bits batch-locally, then ONE groupby(user).max per bit — the
    exchange moves O(distinct users per batch), never event rows."""
    import ray.data as rd
    from ray.data.aggregate import Max

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "event_type"])

    def partial(batch: pa.Table) -> pa.Table:
        u = batch.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        et = batch.column("event_type")
        v = pc.equal(et, "view").combine_chunks().to_numpy(zero_copy_only=False).astype(np.int64)
        p = pc.equal(et, "purchase").combine_chunks().to_numpy(zero_copy_only=False).astype(np.int64)
        uu, inv = np.unique(u, return_inverse=True)
        vv = np.zeros(len(uu), dtype=np.int64)
        pp = np.zeros(len(uu), dtype=np.int64)
        np.maximum.at(vv, inv, v)
        np.maximum.at(pp, inv, p)
        return pa.Table.from_pydict(
            {"user_id": pa.array(uu), "v": pa.array(vv), "p": pa.array(pp)}
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("user_id")
        .aggregate(Max("v", alias_name="v"), Max("p", alias_name="p"))
    )

    def label(batch: pa.Table) -> pa.Table:
        v = batch.column("v").to_numpy(zero_copy_only=False)
        p = batch.column("p").to_numpy(zero_copy_only=False)
        keep = (v + p) > 0
        op = np.where(v & p, "both", np.where(v > 0, "view_only", "purchase_only"))
        return pa.Table.from_pydict(
            {
                "user_id": batch.column("user_id").filter(pa.array(keep)),
                "op": pa.array(op[keep].tolist(), type=pa.string()),
            }
        )

    return agg.map_batches(label, batch_format="pyarrow")


def q_lang_id(sf_dir: str):
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(LangId, batch_format="pyarrow", zero_copy_batch=True, concurrency=(1, 4))


# ---------------------------------------------------------- dedup


def q_exact_dedup_docs(sf_dir: str):
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    surv = exact_dedup(ds, key="text", id_col="doc_id")
    return surv.map_batches(
        lambda b: pa.Table.from_arrays(
            [pc.cast(b.column("doc_id"), pa.string())], names=["doc_id"]
        ),
        batch_format="pyarrow",
    )


def q_minhash_dedup_docs(sf_dir: str):
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    surv, _pairs = minhash_dedup(ds, threshold=0.9)
    out = surv.map_batches(
        lambda b: pa.Table.from_arrays(
            [pc.cast(b.column("doc_id"), pa.string())], names=["doc_id"]
        ),
        batch_format="pyarrow",
    )
    return out


def q_simhash_dedup_docs(sf_dir: str):
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    surv, _pairs = simhash_dedup(ds, h_max=0)
    return surv.map_batches(
        lambda b: pa.Table.from_arrays(
            [pc.cast(b.column("doc_id"), pa.string())], names=["doc_id"]
        ),
        batch_format="pyarrow",
    )


def q_ngram_dup_pairs(sf_dir: str):
    """Exact within-source word-bigram Jaccard pairs (E-dedup scale
    pattern: co-partition by a coarse key, pairwise only inside)."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "source"])
    return ngram_dup_pairs(ds, k=2, threshold=NGRAM_T, group_col="source")


def q_dup_components(sf_dir: str):
    """Connected components over the exact n-gram duplicate-pair graph
    — the cluster-resolution step of every near-dup pipeline, here
    ORACLE-CHECKED: DuckDB enumerates reachability with a recursive CTE
    (fine at test scale, O(sum |component|^2) closure rows) while the
    engine runs size-adaptive connected_components (one-task union-find
    at this size, iterative labelprop at scale).  root = lexicographic
    min of the component, both sides."""
    from .dedup import connected_components

    return connected_components(q_ngram_dup_pairs(sf_dir), strategy="auto")


def q_seeded_sample(sf_dir: str, hash: str = "fnv"):
    """Deterministic ~10% sample: keep rows whose content hash of the
    doc id sorts below a cut.  Content-hash sampling is reproducible
    across runs/cluster sizes (unlike RNG sampling).

    ``hash="fnv"`` (the scale default, round-4 verdict #4): one
    vectorized hash_strings_u64 kernel pass per batch, keep when
    h < rate * 2^64 — ~5x the md5 path on short ids (measured 72 ms
    -> 14 ms per 100k 10-char ids; the gap grows with id length and
    the md5 path additionally allocates a Python str per row, which
    is what GC-bounds a 100-TB run).  ``hash="md5"`` is the
    oracle-parity mode the registry entry uses (DuckDB md5, the same
    hex-prefix rule in SQL); rates are identical by construction."""
    import hashlib

    import ray.data as rd

    from ..util.hashing import hash_strings_u64

    cut_u64 = np.uint64((int(SAMPLE_HEX, 16) << 56))  # same rate as the hex prefix

    def pick(batch: pa.Table) -> pa.Table:
        ids = pc.cast(batch.column("doc_id"), pa.string())
        if hash == "fnv":
            keep = pa.array(hash_strings_u64(ids) < cut_u64)
        else:
            keep = pa.array(
                [hashlib.md5(s.encode()).hexdigest()[:2] < SAMPLE_HEX for s in ids.to_pylist()]
            )
        return pa.Table.from_arrays(
            [ids.filter(keep), batch.column("source").filter(keep)],
            names=["doc_id", "source"],
        )

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "source"])
    return ds.map_batches(pick, batch_format="pyarrow", zero_copy_batch=True)


STRATA_TARGET = 100  # docs per source stratum


def _per_source_cut_sample(sf_dir: str, targets_fn, hash: str = "fnv"):
    """Shared two-pass per-source-rate sampler (stratified /
    temperature): pass 1 is a tiny groupby to the driver (O(sources)
    rows), ``targets_fn(counts_df) -> {source: target_docs}`` turns it
    into integer per-stratum targets, pass 2 filters on a content-hash
    threshold per source — deterministic and partitioning-independent.

    ``hash="fnv"``: u64 cut = target * 2^64 // n, one vectorized
    hash_strings_u64 pass + dictionary-gathered per-row cuts.
    ``hash="md5"``: 6-hex-digit cut (floor(rate * 16^6)) — the
    oracle-parity mode (identical rule in DuckDB SQL)."""
    import hashlib

    import ray.data as rd

    from ..util.hashing import hash_strings_u64

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "source"])

    def ones(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [batch.column("source"), pa.array(np.ones(batch.num_rows, dtype=np.int64))],
            names=["source", "n"],
        )

    counts = _sum_groupby(ds.map_batches(ones, batch_format="pyarrow"), ["source"], ["n"]).to_pandas()
    targets = targets_fn(counts)
    ns = {s: int(n) for s, n in zip(counts["source"], counts["n"])}
    if hash == "fnv":
        cuts = {
            s: min((int(targets[s]) << 64) // max(ns[s], 1), (1 << 64) - 1)
            for s in ns
        }

        def pick(batch: pa.Table) -> pa.Table:
            ids = pc.cast(batch.column("doc_id"), pa.string())
            hv = hash_strings_u64(ids)
            codes, vals = _dict_codes(batch.column("source"))
            per_src = np.array([cuts[v] for v in vals], dtype=np.uint64)
            keep = pa.array(hv < per_src[codes])
            return pa.Table.from_arrays(
                [ids.filter(keep), batch.column("source").filter(keep)],
                names=["doc_id", "source"],
            )

    else:
        # cap at 0xffffff so the cut stays a 6-hex-digit string and the
        # lexicographic compare is well-defined (a <=-target stratum keeps
        # everything except a 1-in-16.7M md5 prefix, same rule in SQL)
        hcuts = {
            s: format(min((int(targets[s]) * 16**6) // max(ns[s], 1), 16**6 - 1), "06x")
            for s in ns
        }

        def pick(batch: pa.Table) -> pa.Table:
            ids = pc.cast(batch.column("doc_id"), pa.string())
            srcs = batch.column("source").to_pylist()
            keep = pa.array(
                [
                    hashlib.md5(s.encode()).hexdigest()[:6] < hcuts[src]
                    for s, src in zip(ids.to_pylist(), srcs)
                ]
            )
            return pa.Table.from_arrays(
                [ids.filter(keep), batch.column("source").filter(keep)],
                names=["doc_id", "source"],
            )

    return ds.map_batches(pick, batch_format="pyarrow", zero_copy_batch=True)


def q_stratified_sample(sf_dir: str, hash: str = "fnv"):
    """Equalized per-source sample: every stratum keeps ~STRATA_TARGET
    docs regardless of its size.  Two-pass per-source-rate filter (see
    _per_source_cut_sample); ``hash="fnv"`` is the vectorized scale
    default (round-4 verdict #4), ``hash="md5"`` the SQL-parity mode
    the registry entry pins."""
    return _per_source_cut_sample(
        sf_dir, lambda counts: {s: STRATA_TARGET for s in counts["source"]}, hash=hash
    )


# ------------------------------------------------- embeddings / ANN


def _load_embeddings(sf_dir: str):
    t = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    ids = t.column("vec_id").to_numpy()
    dim = len(t.column("embedding")[0])
    m = (
        t.column("embedding")
        .combine_chunks()
        .flatten()
        .to_numpy(zero_copy_only=False)
        .astype(np.float64)
        .reshape(len(ids), dim)
    )
    return ids, m


def q_embedding_dup_pairs(sf_dir: str):
    import ray
    import ray.data as rd

    ids, m = _load_embeddings(sf_dir)
    ref = ray.put((ids, m))  # broadcast ONCE; read inside every task
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    return embedding_dup_pairs(ds, threshold=COSINE_T, matrix_ref=ref)


def q_pq_codes(sf_dir: str):
    """Product-quantization codes (m=32 subspaces x 32 codes over the
    64-dim embeddings = 8x compression; tuned for recall on this
    near-gaussian corpus — see tests for the measured sweep).  Training + encode are fully
    deterministic (rounded-distance protocol shared with
    kmeans_clusters), so the output is stable across runs and cluster
    sizes — rows-only driver check, exactness property-tested against a
    pure-Python reference."""
    import ray
    import ray.data as rd

    from .similarity import pq_codes, pq_train

    ds_f = lambda: rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    cb = pq_train(ds_f(), m=32, k=32, iters=2)
    codes = pq_codes(ds_f(), ray.put(cb))

    def widen(t: pa.Table) -> pa.Table:
        # int64 checksum makes the list column value-hashable downstream
        col = t.column("codes")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
        n = t.num_rows
        m = len(flat) // max(1, n)
        ck = (flat.reshape(n, m) * (np.arange(m, dtype=np.int64) * 131 + 1)).sum(axis=1)
        return t.append_column("code_checksum", pa.array(ck, type=pa.int64()))

    return codes.map_batches(widen, batch_format="pyarrow", zero_copy_batch=True)


def q_pq_knn_search(sf_dir: str):
    """ADC top-k over PQ codes for the standard query ids — the
    memory-bound ANN scale path (codes are 32x smaller than the
    vectors; scoring is m table gathers per point).  Approximate by
    construction -> rows-only; recall vs exact L2 is property-tested."""
    import ray
    import ray.data as rd

    from .similarity import pq_knn, pq_train

    ids, m = _load_embeddings(sf_dir)
    qsel = np.isin(ids, KNN_QIDS)
    ds_f = lambda: rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    cb = pq_train(ds_f(), m=32, k=32, iters=2)
    return pq_knn(ds_f(), ray.put(cb), ray.put((list(np.asarray(ids)[qsel]), m[qsel])),
                  k=KNN_K)


def q_knn_search(sf_dir: str):
    import ray
    import ray.data as rd

    ids, m = _load_embeddings(sf_dir)
    qsel = np.isin(ids, KNN_QIDS)
    ref = ray.put((list(np.asarray(ids)[qsel]), m[qsel]))
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    return knn_search(ds, ref, k=KNN_K)


def q_ivf_knn_search(sf_dir: str):
    """IVF ANN with nprobe == nlist (exhaustive probing) so the result
    matches the exact brute-force oracle; smaller nprobe is the
    recall/compute knob at scale (similarity.ivf_knn docstring)."""
    import ray
    import ray.data as rd

    ids, m = _load_embeddings(sf_dir)
    order = np.argsort(ids)
    cent = m[order[: min(IVF_NLIST, len(ids))]]
    qsel = np.isin(ids, KNN_QIDS)
    probes = build_ivf_probes(m[qsel], cent, nprobe=len(cent))
    ref = ray.put((list(np.asarray(ids)[qsel]), m[qsel], cent, probes))
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    return ivf_knn(ds, ref, k=KNN_K)


def _ivf_index_dir(sf_dir: str, n_ids: int) -> str:
    """Deterministic IVF index cache dir.  ``hash()`` is
    PYTHONHASHSEED-salted per process — it never hit across runs and
    leaked a fresh index dir each time (round-3 ADVICE); digesting the
    path + file identity also invalidates the cache when the embeddings
    file changes under the same path."""
    import tempfile

    st = os.stat(f"{sf_dir}/embeddings.parquet")
    digest = hashlib.md5(
        f"{sf_dir}:{st.st_size}:{st.st_mtime_ns}:{n_ids}".encode()
    ).hexdigest()[:10]
    return os.path.join(tempfile.gettempdir(), f"fcray_ivf_{digest}")


def q_ivf_partitioned_knn(sf_dir: str):
    """IVF over the hash-partitioned-by-list-id layout (one directory
    per IVF list; probes read ONLY their lists' files — the at-scale
    ANN design, round-2).  Exhaustive probing here so the result matches
    the exact brute-force oracle; the pruning path is pinned by
    tests/test_functions.py::test_ivf_partitioned_prunes_and_matches_exact."""
    import os
    import tempfile

    import ray.data as rd

    from .similarity import ivf_knn_partitioned, ivf_partition

    ids, m = _load_embeddings(sf_dir)
    order = np.argsort(ids)
    cent = m[order[: min(IVF_NLIST, len(ids))]]
    idx_dir = _ivf_index_dir(sf_dir, len(ids))
    if not os.path.exists(os.path.join(idx_dir, "_DONE")):
        ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
        ivf_partition(ds, cent, idx_dir)
        open(os.path.join(idx_dir, "_DONE"), "w").write("ok")
    qsel = np.isin(ids, KNN_QIDS)
    probes = build_ivf_probes(m[qsel], cent, nprobe=len(cent))
    out, _ = ivf_knn_partitioned(
        idx_dir, (list(np.asarray(ids)[qsel]), m[qsel], cent, probes), k=KNN_K
    )
    return out


def q_ivf_pq_knn_search(sf_dir: str):
    """IVF-PQ ANN: codes-only index partitioned by IVF list (the
    billion-scale layout — probes prune whole lists at the read AND the
    in-list payload is PQ codes, ~8x smaller than the vectors).
    Exhaustive probing here so the result is bit-identical to the plain
    ADC scan (pq_knn); the pruning path + equivalence are pinned by
    tests/test_functions.py::test_ivf_pq_prunes_and_matches_pq_knn.
    Rows-only driver check: PQ is lossy by construction."""
    import os

    import ray
    import ray.data as rd

    from .similarity import build_ivf_probes, ivf_pq_build, ivf_pq_knn, pq_train

    ids, m = _load_embeddings(sf_dir)
    order = np.argsort(ids)
    cent = m[order[: min(IVF_NLIST, len(ids))]]
    ds_f = lambda: rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    cb = pq_train(ds_f(), m=32, k=32, iters=2)
    idx_dir = _ivf_index_dir(sf_dir, len(ids)) + "_pq"
    if not os.path.exists(os.path.join(idx_dir, "_DONE")):
        ivf_pq_build(ds_f(), cent, ray.put(cb), idx_dir)
        open(os.path.join(idx_dir, "_DONE"), "w").write("ok")
    qsel = np.isin(ids, KNN_QIDS)
    probes = build_ivf_probes(m[qsel], cent, nprobe=len(cent))
    out, _ = ivf_pq_knn(
        idx_dir, cb, (list(np.asarray(ids)[qsel]), m[qsel]), probes, k=KNN_K
    )
    return out


def q_approx_distinct_docs(sf_dir: str):
    """HyperLogLog approximate distinct doc_id per source (p=14, ~0.8%
    std error).  Rows-only check (an approximate answer cannot
    hash-match an exact oracle); accuracy and merge-invariance are
    pinned by tests/test_functions.py::test_hll_accuracy_and_merge.
    The shuffle moves O(sources x 16 KiB) regardless of corpus size."""
    import ray.data as rd

    from .sketches import hll_distinct_by

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["source", "doc_id"])
    return hll_distinct_by(ds, "source", "doc_id", p=14)


def q_heavy_hitter_tokens(sf_dir: str):
    """Misra-Gries frequent-tokens sketch (k=8 < vocab, so eviction
    really happens).  Rows-only check (the sketch is approximate); the
    [lb, ub] guarantee and merge behavior are pinned by
    tests/test_functions.py::test_mg_heavy_hitters_guarantees.  The
    shuffle moves O(k x batches) rows regardless of corpus size."""
    from .sketches import mg_heavy_hitters

    ds = tokseq_dataset(sf_dir)

    def flatten(batch: pa.Table) -> pa.Table:
        col = batch.column("tokens")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        return pa.Table.from_pydict({"token": col.flatten()})

    return mg_heavy_hitters(
        ds.map_batches(flatten, batch_format="pyarrow", zero_copy_batch=True),
        "token",
        k=8,
    )


def q_events_rolling_avg(sf_dir: str):
    """Per-row time-RANGE windowed aggregate: for every event, the mean
    `value` over that user's events in the trailing 10 minutes
    (inclusive of ts-peers, SQL RANGE semantics).  Per user segment the
    window bounds come from searchsorted over one ascending
    (segment, ts-rank) key, so a bound never crosses a user; the sum is
    a prefix-sum subtraction — no per-row loops, no window
    materialization.  Sums are exact int64 cents on BOTH sides (values
    are 2-decimal; float accumulation-order differences would otherwise
    make round(,6) flap on boundary cases) — the same
    int-sums-then-one-division trick as per_source_stats.  Oracle:
    RANGE BETWEEN window SQL with the identical cents cast."""
    import ray.data as rd

    W = 10 * 60 * 1_000_000  # 10 min in us

    def roll(t: pa.Table, starts: np.ndarray) -> pa.Table:
        ts = pc.cast(t.column("ts"), pa.int64()).to_numpy()
        cents = np.round(t.column("value").to_numpy() * 100.0).astype(np.int64)
        cum = np.concatenate(([0], np.cumsum(cents)))
        # ts -> dense rank is exact and monotone, so segment * n_ranks +
        # rank orders rows like (user, ts) without int64 overflow
        uts = np.unique(ts)
        seg = _segment_ids(starts, len(ts)) * len(uts)
        key = seg + np.searchsorted(uts, ts)
        lo = np.searchsorted(key, seg + np.searchsorted(uts, ts - W), side="left")
        hi = np.searchsorted(key, key, side="right")  # ts-peers included
        n = hi - lo
        avg = (cum[hi] - cum[lo]) / (100.0 * n)
        avg = np.floor(avg * 1e6 + 0.5) / 1e6  # half-away, DuckDB round() parity
        return pa.table({
            "event_id": t.column("event_id"), "user_id": t.column("user_id"),
            "ts": t.column("ts"), "n_win": n.astype(np.int64), "roll_avg": avg,
        })

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "value"]
    )
    return _segmented(ds, "user_id", ["ts"], roll)


def q_bloom_orders_filter(sf_dir: str):
    """Bloom-filter semi-join: a distributed OR-merged Bloom filter
    over lineitem.l_orderkey (sketch-sized shuffle: one m/8-byte
    bitmap row per batch) broadcasts once, and orders are filtered by
    a vectorized k-probe membership test — the classic "ship a filter,
    not the keys" pre-join at 100 TB.  No false negatives by
    construction; m = 2^22 bits for ~2^4 k keys puts the false-positive
    probability ~1e-9, so the deterministic output equals the exact
    EXISTS set and the DuckDB oracle applies (a property test covers
    the FPR bound at adversarial sizing)."""
    import ray
    import ray.data as rd

    from .sketches import bloom_build, bloom_contains

    right = rd.read_parquet(f"{sf_dir}/lineitem.parquet", columns=["l_orderkey"])
    bm_ref = ray.put(bloom_build(right, "l_orderkey", m_bits=1 << 22, k=4))

    def probe(batch: pa.Table) -> pa.Table:
        keep = bloom_contains(ray.get(bm_ref), batch.column("o_orderkey"), k=4)
        return batch.filter(pa.array(keep))

    left = rd.read_parquet(f"{sf_dir}/orders.parquet",
                           columns=["o_orderkey", "o_totalprice"])
    return left.map_batches(probe, batch_format="pyarrow", zero_copy_batch=True)


def q_kll_value_quantiles(sf_dir: str):
    """Approximate event-value quantiles from a shuffle-merged KLL
    compactor sketch (functions/sketches.py) — the unbounded-domain
    companion to the exact bounded-histogram doc_len_quantiles.  Rows
    moved are sketch-sized (O(k log n) per batch) no matter the input
    size.  Randomized summary => no SQL value oracle; the rank-error
    guarantee is pinned by tests/test_functions.py property tests."""
    import ray.data as rd

    from .sketches import kll_quantiles

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["value"])
    return kll_quantiles(ds, "value", [0.01, 0.25, 0.5, 0.75, 0.99], k=256)


def q_token_pmi(sf_dir: str):
    """Pointwise mutual information per bigram — the collocation /
    phrase-mining statistic: pmi(t1,t2) = ln( (c12/N2) / (c1/N1 *
    c2/N1) ).  Composition, not a new exchange: the bigram table comes
    from the existing O(vocab²)-shuffle partial-count pipeline, and the
    unigram counts + totals (O(vocab) rows) collect once on the driver
    and ride into a final map_batches as a broadcast lookup — the
    standard "tiny aggregate joins a big one" shape.  Oracle: same two
    CTEs with ln() rounded to 6."""
    import ray

    # tiny sides to the driver: O(vocab) unigram counts + two scalars.
    # The bigram table itself stays DISTRIBUTED (vocab² rows can be
    # billions at a 50k vocab) — broadcast-lookup, never .to_pandas().
    uni = q_token_histogram(sf_dir).to_pandas()
    toks = uni["token"].to_numpy().astype(np.int64)
    lut = np.zeros(int(toks.max()) + 1, dtype=np.int64)
    lut[toks] = uni["cnt"].to_numpy().astype(np.int64)
    n1 = float(lut.sum())
    n2 = float(q_token_bigrams(sf_dir).sum("cnt"))
    lut_ref = ray.put(lut)

    def pmi(batch: pa.Table) -> pa.Table:
        lu = ray.get(lut_ref)
        t1 = batch.column("t1").to_numpy(zero_copy_only=False)
        t2 = batch.column("t2").to_numpy(zero_copy_only=False)
        c12 = batch.column("cnt").to_numpy(zero_copy_only=False).astype(np.float64)
        v = np.log((c12 / n2) / ((lu[t1] / n1) * (lu[t2] / n1)))
        v = np.floor(v * 1e6 + 0.5) / 1e6  # half-away, DuckDB round parity
        return pa.Table.from_pydict({
            "t1": batch.column("t1"), "t2": batch.column("t2"),
            "cnt": batch.column("cnt"), "pmi": pa.array(v),
        })

    return q_token_bigrams(sf_dir).map_batches(pmi, batch_format="pyarrow")


PMI_TOP_K, PMI_MIN_CNT = 3, 3


def q_pmi_top_contexts(sf_dir: str):
    """Top-K collocations per left token (phrase mining's ranked
    output): among bigrams with cnt >= PMI_MIN_CNT, each t1's K highest
    PMI contexts.  Pure composition — the distributed PMI table feeds
    a per-batch segment top-K (one lexsort, no Python loops) and a
    final per-group cut; the exchange after PMI moves O(t1 x K x
    batches) rows.  Rank keys are the ROUNDED pmi values (identical on
    both sides) with t2 as the tiebreak, so ordering can't diverge."""
    pmi_ds = q_token_pmi(sf_dir)

    def partial(batch: pa.Table) -> pa.Table:
        keep = pc.greater_equal(batch.column("cnt"), PMI_MIN_CNT)
        t = batch.filter(keep)
        if t.num_rows == 0:
            return pa.Table.from_pydict(
                {
                    "t1": pa.array([], type=pa.int64()),
                    "t2": pa.array([], type=pa.int64()),
                    "pmi": pa.array([], type=pa.float64()),
                }
            )
        t1 = t.column("t1").to_numpy(zero_copy_only=False)
        t2 = t.column("t2").to_numpy(zero_copy_only=False)
        v = t.column("pmi").to_numpy(zero_copy_only=False)
        order = np.lexsort((t2, -v, t1))
        t1s, t2s, vs = t1[order], t2[order], v[order]
        seg = np.concatenate(([True], t1s[1:] != t1s[:-1]))
        pos = np.arange(len(t1s)) - np.maximum.accumulate(
            np.where(seg, np.arange(len(t1s)), 0)
        )
        keep2 = pos < PMI_TOP_K
        return pa.Table.from_pydict(
            {"t1": pa.array(t1s[keep2]), "t2": pa.array(t2s[keep2]), "pmi": pa.array(vs[keep2])}
        )

    def final(group: pa.Table) -> pa.Table:
        t2v = group.column("t2").to_numpy(zero_copy_only=False)
        pv = group.column("pmi").to_numpy(zero_copy_only=False)
        order = np.lexsort((t2v, -pv))[:PMI_TOP_K].astype(np.int64)
        out = group.take(pa.array(order))
        return out.append_column(
            "rank", pa.array(np.arange(1, len(order) + 1, dtype=np.int64))
        )

    return (
        pmi_ds.map_batches(partial, batch_format="pyarrow")
        .groupby("t1")
        .map_groups(final, batch_format="pyarrow")
    )


def q_bigram_lm_score(sf_dir: str):
    """Per-document add-one-smoothed bigram LM log-score — the
    model-based quality-filter shape (CCNet/KenLM style): train an
    n-gram LM on the corpus, score every document by its mean
    log P(t_i | t_{i-1}), keep/weight docs by score.

    Two composed stages, no new exchange: (1) the existing
    O(distinct-bigrams) partial-count pipeline trains the model (at a
    web-scale vocab the broadcast model is pruned to counts >= 2 or
    CM-sketched first — here exact and tiny); (2) the model ships once
    via ray.put and scoring is embarrassingly parallel.  Float-parity
    discipline: each pair's log-prob is rounded to 6 decimals and
    scaled to an int64 "micronat", per-doc sums are integer-exact
    (np.add.at), so summation ORDER cannot flip the final rounding —
    the one double division happens once per doc on both sides.
    """
    import ray

    from ..sources.tokseq import build_vocab

    big = pa.Table.from_pandas(q_token_bigrams(sf_dir).to_pandas(), preserve_index=False)
    t1 = big.column("t1").to_numpy().astype(np.int64)
    t2 = big.column("t2").to_numpy().astype(np.int64)
    c12 = big.column("cnt").to_numpy().astype(np.int64)
    keys = t1 << np.int64(32) | t2
    order = np.argsort(keys)
    keys, c12 = keys[order], c12[order]
    vmax = int(t1.max()) + 1 if len(t1) else 1
    ctx = np.zeros(vmax, dtype=np.int64)
    np.add.at(ctx, t1, c12)  # = count of t1 in non-final position
    n_vocab = float(len(build_vocab(sf_dir)))  # V in add-one smoothing
    model = ray.put((keys, c12, ctx, n_vocab))

    def score(batch: pa.Table) -> pa.Table:
        keys_s, c12_s, ctx_s, V = ray.get(model)
        col = batch.column("tokens")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
        n_tok = batch.column("n_tok").to_numpy(zero_copy_only=False).astype(np.int64)
        pairs = np.clip(n_tok - 1, 0, None)
        keep = pairs > 0
        if len(flat) < 2 or not keep.any():
            return pa.Table.from_pydict(
                {
                    "doc_id": pa.array([], type=pa.int64()),
                    "n_pairs": pa.array([], type=pa.int64()),
                    "lm_score": pa.array([], type=pa.float64()),
                }
            )
        key = flat[:-1] << np.int64(32) | flat[1:]
        ends = np.cumsum(n_tok)
        row_ends = ends[:-1]
        row_ends = row_ends[(row_ends > 0) & (row_ends < len(flat))]
        mask = np.ones(len(key), dtype=bool)
        mask[row_ends - 1] = False
        key = key[mask]
        row = np.repeat(np.arange(len(n_tok), dtype=np.int64), pairs)
        idx = np.searchsorted(keys_s, key)
        # model is trained on this corpus, so every observed pair exists
        logp = np.log((c12_s[idx] + 1.0) / (ctx_s[key >> np.int64(32)] + V))
        mn = np.copysign(np.floor(np.abs(logp) * 1e6 + 0.5), logp).astype(np.int64)
        acc = np.zeros(len(n_tok), dtype=np.int64)
        np.add.at(acc, row, mn)
        sc = acc[keep].astype(np.float64) / pairs[keep] / 1e6
        sc = np.copysign(np.floor(np.abs(sc) * 1e6 + 0.5), sc) / 1e6
        ids = pc.cast(batch.column("doc_id"), pa.int64())
        return pa.Table.from_pydict(
            {
                "doc_id": ids.filter(pa.array(keep)) if not keep.all() else ids,
                "n_pairs": pa.array(pairs[keep]),
                "lm_score": pa.array(sc, type=pa.float64()),
            }
        )

    return tokseq_dataset(sf_dir).map_batches(
        score, batch_format="pyarrow", zero_copy_batch=True
    )


def q_label_centroids(sf_dir: str):
    """Per-label embedding centroids (long form: label, dim, c) — the
    class-prototype computation behind centroid classifiers and
    cluster-balanced sampling.  Per-batch partial sums per (label, dim)
    keep the exchange at O(labels x d) rows; one rounded division at
    the end on both sides."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["label", "embedding"])

    def partial(batch: pa.Table) -> pa.Table:
        from .similarity import _emb_matrix

        m = _emb_matrix(batch, "embedding")
        lab = batch.column("label").to_numpy(zero_copy_only=False).astype(np.int64)
        uu, inv = np.unique(lab, return_inverse=True)
        sums = np.zeros((len(uu), m.shape[1]), dtype=np.float64)
        np.add.at(sums, inv, m)
        cnt = np.bincount(inv).astype(np.int64)
        d = m.shape[1]
        return pa.Table.from_pydict(
            {
                "label": pa.array(np.repeat(uu, d)),
                "dim": pa.array(np.tile(np.arange(1, d + 1, dtype=np.int64), len(uu))),
                "s": pa.array(sums.ravel()),
                "n": pa.array(np.repeat(cnt, d)),
            }
        )

    agg = _sum_groupby(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["label", "dim"], ["s", "n"],
    ).to_pandas()  # O(labels x d)
    c = agg["s"].to_numpy() / agg["n"].to_numpy()
    c = np.copysign(np.floor(np.abs(c) * 1e6 + 0.5), c) / 1e6
    return pa.Table.from_pydict(
        {
            "label": pa.array(agg["label"].to_numpy().astype(np.int64)),
            "dim": pa.array(agg["dim"].to_numpy().astype(np.int64)),
            "c": pa.array(c, type=pa.float64()),
        }
    )


def q_events_value_norm(sf_dir: str):
    """Per-group min-max feature scaling: vnorm = (v - min)/(max - min)
    within each event_type.  Two passes, the first a tiny min/max
    aggregate broadcast to the second — the standard normalization
    stage in front of model training.  min/max of doubles are exact,
    so the single rounded division agrees with SQL bit-for-bit."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Max, Min

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "event_type", "value"])
    mm = ds.groupby("event_type").aggregate(
        Min("value", alias_name="lo"), Max("value", alias_name="hi")
    ).to_pandas()  # O(event types)
    lut = {r.event_type: (r.lo, r.hi) for r in mm.itertuples()}
    lut_ref = ray.put(lut)

    def norm(batch: pa.Table) -> pa.Table:
        lu = ray.get(lut_ref)
        codes, vals = _dict_codes(batch.column("event_type"))
        v = batch.column("value").to_numpy(zero_copy_only=False)
        lo = np.array([lu[t][0] for t in vals])[codes]
        hi = np.array([lu[t][1] for t in vals])[codes]
        rng = hi - lo
        out = np.where(rng > 0, (v - lo) / np.where(rng > 0, rng, 1.0), 0.0)
        out = np.floor(out * 1e6 + 0.5) / 1e6  # vnorm >= 0
        return pa.Table.from_pydict(
            {
                "event_id": batch.column("event_id"),
                "event_type": batch.column("event_type"),
                "vnorm": pa.array(out, type=pa.float64()),
            }
        )

    return ds.map_batches(norm, batch_format="pyarrow", zero_copy_batch=True)


def q_value_share(sf_dir: str):
    """Share-of-total (ratio_to_report): each event_type's fraction of
    total value.  Values sum as exact int64 cents (no float summation
    order anywhere); one rounded double division at the end."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "value"])

    def widen(batch: pa.Table) -> pa.Table:
        v = batch.column("value").to_numpy(zero_copy_only=False)
        cents = np.floor(np.abs(v) * 100 + 0.5) * np.sign(v)
        return pa.Table.from_pydict(
            {
                "event_type": batch.column("event_type"),
                "cents": pa.array(cents.astype(np.int64)),
            }
        )

    agg = _sum_groupby(
        ds.map_batches(widen, batch_format="pyarrow", zero_copy_batch=True),
        ["event_type"], ["cents"],
    ).to_pandas()
    cents = agg["cents"].to_numpy()
    share = cents.astype(np.float64) / float(cents.sum())
    share = np.copysign(np.floor(np.abs(share) * 1e6 + 0.5), share) / 1e6
    return pa.Table.from_pydict(
        {
            "event_type": pa.array(agg["event_type"]),
            "cents": pa.array(cents),
            "share": pa.array(share, type=pa.float64()),
        }
    )


def q_doc_len_mode(sf_dir: str):
    """Per-source modal document length (lowest value wins ties) — read
    off the same bounded (source, n_chars) histogram as the quantile
    family; the exchange moves O(sources x distinct lengths) rows."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["source", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["source", "n_chars"]).aggregate([([], "count_all")])
        return pa.Table.from_pydict(
            {
                "source": g.column("source"),
                "n_chars": g.column("n_chars"),
                "cnt": pc.cast(g.column("count_all"), pa.int64()),
            }
        )

    hist = _sum_groupby(
        ds.map_batches(partial, batch_format="pyarrow"), ["source", "n_chars"], ["cnt"]
    ).to_pandas()
    hist = hist.sort_values(["source", "cnt", "n_chars"], ascending=[True, False, True])
    top = hist.groupby("source", as_index=False).first()
    return pa.Table.from_pydict(
        {
            "source": pa.array(top["source"], type=pa.string()),
            "mode_len": pa.array(top["n_chars"].to_numpy().astype(np.int64)),
            "cnt": pa.array(top["cnt"].to_numpy().astype(np.int64)),
        }
    )


def q_kmeans_clusters(sf_dir: str):
    """Deterministic 2-iteration Lloyd k-means over the embeddings
    table (k=4, init = embeddings of vec_id 0..3); oracle = the same
    protocol written as SQL (cross-join argmin with rounded distances,
    rounded centroid updates)."""
    import ray.data as rd

    from .similarity import kmeans_clusters

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    return kmeans_clusters(ds, k=4, iters=2)


def q_dup_trigram_fraction(sf_dir: str):
    """Per-doc fraction of trigram occurrences whose trigram appears in
    MORE THAN ONE document corpus-wide — the cross-document complement
    of ``repetition_ratio`` (within-doc) and the boilerplate /
    template-text signal a training pipeline filters on.

    Stage 1 trains nothing: the per-batch partial emits each doc's
    DISTINCT trigrams once (docs never straddle blocks, so summing the
    partials gives exact document frequency), and the tiny groupby
    moves O(distinct trigrams).  Stage 2 broadcasts ONLY the
    duplicated-trigram keys (df > 1) via ray.put — at web scale this
    set is pruned by df or replaced by a Bloom filter; membership per
    occurrence is one searchsorted, no Python loops.  Trigrams pack
    into one int64 (3 x 21 bits), valid for any vocab < 2^21; beyond
    that the void-row path from repetition_ratio applies.
    """
    import ray

    ds = tokseq_dataset(sf_dir)

    def _tri_keys(batch: pa.Table):
        """(row_ids, packed trigram keys) for every valid occurrence."""
        col = batch.column("tokens")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
        n_tok = batch.column("n_tok").to_numpy(zero_copy_only=False).astype(np.int64)
        if len(flat) < 3:
            return n_tok, np.zeros(0, np.int64), np.zeros(0, np.int64)
        ends = np.repeat(np.cumsum(n_tok), n_tok)
        pos = np.arange(len(flat), dtype=np.int64)
        valid = (pos + 2 < ends)[:-2]
        assert flat.max() < (1 << 21), "trigram packing needs vocab < 2^21"
        key = (flat[:-2] << np.int64(42)) | (flat[1:-1] << np.int64(21)) | flat[2:]
        row = np.repeat(np.arange(len(n_tok), dtype=np.int64), n_tok)[:-2]
        return n_tok, row[valid], key[valid]

    def df_partial(batch: pa.Table) -> pa.Table:
        _, row, key = _tri_keys(batch)
        pair = np.unique(np.stack([row, key], axis=1).view([("", np.int64)] * 2))
        k = pair.view(np.int64).reshape(-1, 2)[:, 1] if len(pair) else np.zeros(0, np.int64)
        uniq, df = np.unique(k, return_counts=True)
        return pa.Table.from_pydict(
            {"tri": pa.array(uniq), "df": pa.array(df.astype(np.int64))}
        )

    dfagg = _sum_groupby(
        ds.map_batches(df_partial, batch_format="pyarrow", zero_copy_batch=True),
        ["tri"],
        ["df"],
    )

    def only_dup(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater(batch.column("df"), 1)).select(["tri"])

    dup = dfagg.map_batches(only_dup, batch_format="pyarrow").to_pandas()
    dup_keys = ray.put(np.sort(dup["tri"].to_numpy().astype(np.int64)))

    def score(batch: pa.Table) -> pa.Table:
        keys_s = ray.get(dup_keys)
        n_tok, row, key = _tri_keys(batch)
        n_tri = np.maximum(n_tok - 2, 0)
        keep = n_tri > 0
        idx = np.searchsorted(keys_s, key)
        idx[idx == len(keys_s)] = 0 if len(keys_s) else 0
        hit = (keys_s[idx] == key) if len(keys_s) else np.zeros(len(key), bool)
        n_dup = np.zeros(len(n_tok), dtype=np.int64)
        np.add.at(n_dup, row[hit], 1)
        frac = n_dup[keep].astype(np.float64) / n_tri[keep]
        frac = np.floor(frac * 1e6 + 0.5) / 1e6  # half-away, values >= 0
        ids = pc.cast(batch.column("doc_id"), pa.int64())
        return pa.Table.from_pydict(
            {
                "doc_id": ids.filter(pa.array(keep)) if not keep.all() else ids,
                "n_tri": pa.array(n_tri[keep]),
                "n_dup": pa.array(n_dup[keep]),
                "dup_frac": pa.array(frac, type=pa.float64()),
            }
        )

    return tokseq_dataset(sf_dir).map_batches(
        score, batch_format="pyarrow", zero_copy_batch=True
    )


def q_decontaminate(sf_dir: str):
    """Benchmark decontamination — flag corpus docs sharing any word
    3-gram with an eval set (here: doc_id < 10), reporting how many
    distinct grams overlap.  The canonical pre-training hygiene op
    (n-gram overlap against held-out benchmarks).  Shape: the eval
    set's gram hashes are a SMALL side — built once, broadcast via
    ``ray.put``, membership-tested per batch with one sorted np.isin —
    so the corpus pass is shuffle-free and the eval read is pushed down
    to the doc_id < 10 row groups.  Exact per-doc distinct counts via
    one np.unique over (row, gram-hash) void rows.  64-bit gram hashes
    stand in for the grams themselves (deterministic; collision odds
    ~1e-11 at this gram count — the oracle compares true strings, so a
    collision would surface as a mismatch, not hide).  Oracle: unnest
    3-grams, inner-join corpus grams to eval grams, count distinct."""
    import ray
    import ray.data as rd

    from .dedup import _word_kgram_hashes

    K, BENCH_MAX, SEED = 3, 10, 9

    bt = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"],
                       filters=[("doc_id", "<", BENCH_MAX)])
    bh, _ = _word_kgram_hashes(bt.column("text").combine_chunks(), K, seed=SEED)
    bench_ref = ray.put(np.unique(bh))

    def flag(batch: pa.Table) -> pa.Table:
        texts = batch.column("text")
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        h, n_sh = _word_kgram_hashes(texts, K, seed=SEED)
        rows = np.repeat(np.arange(len(n_sh), dtype=np.int64), n_sh)
        pairs = np.ascontiguousarray(np.stack([rows, h.view(np.int64)], axis=1))
        uniq = np.unique(pairs.view([("", np.int64)] * 2))
        ur = uniq.view(np.int64).reshape(-1, 2)
        hit = np.isin(ur[:, 1].view(np.uint64), ray.get(bench_ref))
        cnt = np.bincount(ur[:, 0][hit], minlength=len(n_sh)).astype(np.int64)
        keep = cnt > 0
        ids = pc.cast(batch.column("doc_id"), pa.int64())
        return pa.Table.from_pydict({
            "doc_id": ids.filter(pa.array(keep)) if not keep.all() else ids,
            "n_overlap": pa.array(cnt[keep]),
        })

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"],
        filter=(pc.field("doc_id") >= BENCH_MAX),  # row-group pushdown
    )
    return ds.map_batches(flag, batch_format="pyarrow", zero_copy_batch=True)


def q_seeded_shuffle(sf_dir: str, hash: str = "fnv"):
    """Deterministic global shuffle + shard assignment — the "shuffle
    the corpus once before training, resumable and reproducible" export
    step.  Every doc gets a pseudorandom sort key from a seeded digest;
    shard = digest-derived bucket, pos = rank within shard.  One
    groupby(shard) shuffle; within a shard the order is one vectorized
    argsort.  Output: (doc_id, shard, pos) — the shuffle manifest.

    ``hash="fnv"`` (scale default, round-4 verdict #4): sort key =
    hash_strings_u64(doc_id, seed=SEED), one kernel pass, in-shard
    order by (h, doc_id) — the id tiebreak keeps the permutation total
    even on 64-bit collisions.  ``hash="md5"`` is the oracle-parity
    mode (DuckDB md5 of "id:seed")."""
    import hashlib

    import ray.data as rd

    from ..util.hashing import hash_strings_u64

    SEED, NSHARDS = 42, 4

    def keyed(batch: pa.Table) -> pa.Table:
        ids = pc.cast(batch.column("doc_id"), pa.string())
        if hash == "fnv":
            hv = hash_strings_u64(ids, seed=SEED)
            return pa.Table.from_pydict({
                "doc_id": pc.cast(batch.column("doc_id"), pa.int64()),
                "shard": pa.array((hv % np.uint64(NSHARDS)).astype(np.int64)),
                # int64 view of the u64 hash: wraps the order at 2^63,
                # still a pure deterministic function of the id — any
                # total order works for a pseudorandom permutation
                "_h": pa.array(hv.view(np.int64)),
            })
        pids = ids.to_pylist()
        h = [hashlib.md5(f"{i}:{SEED}".encode()).hexdigest() for i in pids]
        shard = np.array([ord(x[0]) % NSHARDS for x in h], dtype=np.int64)
        return pa.Table.from_pydict({
            "doc_id": pc.cast(batch.column("doc_id"), pa.int64()),
            "shard": pa.array(shard),
            "_h": pa.array(h),
        })

    def rank(group: pa.Table) -> pa.Table:
        g = group.sort_by([("_h", "ascending"), ("doc_id", "ascending")])
        return pa.Table.from_pydict({
            "doc_id": g.column("doc_id"),
            "shard": g.column("shard"),
            "pos": pa.array(np.arange(g.num_rows, dtype=np.int64)),
        })

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    return (
        ds.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("shard")
        .map_groups(rank, batch_format="pyarrow")
    )


def q_repetition_ratio(sf_dir: str):
    """Per-doc repeated word-trigram fraction — the Gopher/C4-style
    "excessive repetition" quality signal.  Embarrassingly parallel
    (no shuffle): per batch the words are split with one Arrow kernel
    and dictionary-encoded to batch-local int codes; per-doc distinct
    trigram counts come from one np.unique over a void view of the
    stacked (row, c1, c2, c3) int rows — exact for ANY vocabulary size
    (no packing-overflow assumptions), no Python loops.  Oracle: two
    leads + count(distinct) per doc."""
    import ray.data as rd

    def rep(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        words = pc.split_pattern(text, " ")
        lens = pc.list_value_length(words).to_numpy(zero_copy_only=False).astype(np.int64)
        flat = pc.list_flatten(words)
        denc = flat.dictionary_encode()
        codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        offs = np.concatenate(([0], np.cumsum(lens)))
        row = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        # trigram at flat position p is valid when p and p+2 are in the
        # same doc: p < offs[row]+len-2
        valid = np.arange(len(codes), dtype=np.int64) < np.repeat(offs[1:] - 2, lens)
        if len(codes) >= 2:
            tri = np.stack(
                [row[:-2], codes[:-2], codes[1:-1], codes[2:]], axis=1
            )[valid[:-2]]
        else:
            tri = np.zeros((0, 4), dtype=np.int64)
        tri = np.ascontiguousarray(tri)
        keys = tri.view([("", np.int64)] * 4).reshape(-1)
        uniq = np.unique(keys)
        urow = uniq.view(np.int64).reshape(-1, 4)[:, 0] if len(uniq) else np.zeros(0, np.int64)
        n_tri = np.maximum(lens - 2, 0)
        n_dis = np.bincount(urow, minlength=len(lens)).astype(np.int64)
        keep = n_tri > 0
        ratio = np.zeros(len(lens))
        ratio[keep] = 1.0 - n_dis[keep] / n_tri[keep]
        ratio = np.floor(ratio * 1e6 + 0.5) / 1e6  # half-away, DuckDB round parity
        ids = pc.cast(batch.column("doc_id"), pa.int64())
        return pa.Table.from_pydict({
            "doc_id": ids.filter(pa.array(keep)) if not keep.all() else ids,
            "n_tri": pa.array(n_tri[keep]),
            "n_distinct": pa.array(n_dis[keep]),
            "rep_ratio": pa.array(ratio[keep]),
        })

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(rep, batch_format="pyarrow", zero_copy_batch=True)


def q_pack_sequences(sf_dir: str):
    """Fixed-length sequence packing (functions/packing.py): the tokseq
    corpus concatenated in ascending doc_id order and re-chunked into
    256-token training rows — prefix-sum bucketing, every token crosses
    the exchange once, driver holds O(n_buckets).  Output is an exact
    per-chunk digest (count / sum / position-weighted sum, all int64)
    instead of the raw list column so the driver's value-hash compare
    applies; the digest pins both content AND order of every chunk.
    Oracle: vocab-rank tokens + a window prefix sum over doc_id, grouped
    by gpos // 256."""
    from ..sources.tokseq import tokseq_dataset
    from .packing import pack_sequences

    L = 256

    def int_ids(batch: pa.Table) -> pa.Table:
        i = batch.column_names.index("doc_id")
        return batch.set_column(i, "doc_id", pc.cast(batch.column("doc_id"), pa.int64()))

    ds = tokseq_dataset(sf_dir).map_batches(int_ids, batch_format="pyarrow",
                                            zero_copy_batch=True)
    packed = pack_sequences(ds, seq_len=L, n_buckets=8)

    def digest(batch: pa.Table) -> pa.Table:
        toks = batch.column("tokens")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
        flat = pc.list_flatten(toks).to_numpy(zero_copy_only=False).astype(np.int64)
        offs = np.concatenate(([0], np.cumsum(lens)))
        pos = np.arange(len(flat), dtype=np.int64) - np.repeat(offs[:-1], lens) + 1
        cum = np.concatenate(([0], np.cumsum(flat)))
        wcum = np.concatenate(([0], np.cumsum(flat * pos)))
        return pa.Table.from_pydict({
            "chunk_id": pc.cast(batch.column("chunk_id"), pa.int64()),
            "n_tok": pa.array(lens),
            "tok_sum": pa.array(cum[offs[1:]] - cum[offs[:-1]]),
            "tok_wsum": pa.array(wcum[offs[1:]] - wcum[offs[:-1]]),
        })

    return packed.map_batches(digest, batch_format="pyarrow", zero_copy_batch=True)


def q_user_sessions(sf_dir: str):
    """Gap-based sessionization: per user, a new session starts when
    the gap since the previous event exceeds 30 minutes; returns one
    row per session with bounds and event count.  A session head is a
    gap flag OR-ed with the user change; the scan is a vectorized diff
    + cumsum.  Oracle: lag + cumulative sum window SQL."""
    import ray.data as rd

    def sessions(t: pa.Table, starts: np.ndarray) -> pa.Table:
        heads, no, n = _session_heads(t, starts)
        ts = t.column("ts")
        return pa.table({
            "user_id": t.column("user_id").take(heads), "session_no": no,
            "session_start": ts.take(heads), "session_end": ts.take(heads + n - 1),
            "n_events": n,
        })

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    return _segmented(ds, "user_id", ["ts"], sessions)


def _session_heads(t: pa.Table, starts: np.ndarray):
    """30-minute-gap sessions over ``_segmented`` user segments: (first
    row, 1-based number within the user, event count) per session."""
    ts = pc.cast(t.column("ts"), pa.int64()).to_numpy()
    new = np.ones(len(ts), dtype=bool)
    new[1:] = np.diff(ts) > 30 * 60 * 1_000_000  # us
    new[starts] = True
    heads = np.flatnonzero(new)
    rank = np.cumsum(new)
    no = rank[heads] - rank[starts][_segment_ids(starts, len(ts))[heads]] + 1
    return heads, no, np.diff(np.append(heads, len(ts)))


def q_top_events_per_user(sf_dir: str):
    """Per-group top-k (k=3 highest-value events per user), computed
    scalably: per-batch PARTIAL top-k inside map_batches (only k rows
    per (user, batch) survive), then a tiny groupby finishes — the
    shuffle moves O(users x k), not O(rows)."""
    import ray.data as rd

    K = 3

    def partial_topk(batch: pa.Table) -> pa.Table:
        # numpy lexsort partial (round-3 verdict #6: no pandas in the
        # hot path): order (user asc, value desc, event_id asc), then
        # keep the first K positions of each user run
        sub = batch.select(["user_id", "event_id", "value"])
        u = sub.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        e = sub.column("event_id").to_numpy(zero_copy_only=False).astype(np.int64)
        v = sub.column("value").to_numpy(zero_copy_only=False)
        order = np.lexsort((e, -v, u))
        us = u[order]
        if len(us) == 0:
            return sub
        starts = np.concatenate(([0], np.flatnonzero(np.diff(us)) + 1))
        sizes = np.diff(np.concatenate((starts, [len(us)])))
        pos_in_run = np.arange(len(us), dtype=np.int64) - np.repeat(starts, sizes)
        return sub.take(pa.array(order[pos_in_run < K].astype(np.int64)))

    def final_topk(group: pa.Table) -> pa.Table:
        e = group.column("event_id").to_numpy(zero_copy_only=False).astype(np.int64)
        v = group.column("value").to_numpy(zero_copy_only=False)
        order = np.lexsort((e, -v))[:K].astype(np.int64)
        out = group.take(pa.array(order))
        return out.append_column(
            "rank", pa.array(np.arange(1, len(order) + 1, dtype=np.int64))
        )

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "value"])
    return (
        ds.map_batches(partial_topk, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("user_id")
        .map_groups(final_topk, batch_format="pyarrow")
    )


def q_events_asof(sf_dir: str):
    """As-of join: each event matched to the user's LATEST PRIOR
    purchase event (functions/joins.py — the custom-operator pattern
    for joins Ray Data lacks; co-partition by key, searchsorted within
    group).  Oracle: DuckDB ASOF JOIN."""
    import ray.data as rd

    from .joins import asof_join

    def purchases(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(batch.column("event_type"), "purchase"))

    left = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id"])
    right = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "user_id", "event_type", "value"]
    ).map_batches(purchases, batch_format="pyarrow", zero_copy_batch=True)
    return asof_join(left, right, by="user_id", on="ts", right_cols=["ts", "value"])


def q_order_lineitem_join(sf_dir: str):
    """General large x large co-partitioned hash equi-join (round-2
    verdict gap #2): lineitem x orders on the order key — BOTH sides big,
    so neither is broadcast; each side takes exactly one hash exchange
    into shared buckets (functions/joins.py hash_join).  Oracle: DuckDB
    inner join."""
    import ray.data as rd

    from .joins import hash_join

    left = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_quantity", "l_extendedprice"],
    )
    right = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey", "o_totalprice"]
    )
    return hash_join(
        left, right, left_on="l_orderkey", right_on="o_orderkey",
        right_cols=["o_custkey", "o_totalprice"], n_buckets=32,
    )


def _orders_lineitem_sides(sf_dir: str, mode: str):
    import ray.data as rd

    from .joins import hash_join

    left = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderstatus", "o_totalprice"]
    )
    rcols = ["l_linenumber", "l_quantity"] if mode == "left" else ["l_orderkey"]
    read_cols = ["l_orderkey"] + [c for c in rcols if c != "l_orderkey"]
    right = rd.read_parquet(f"{sf_dir}/lineitem.parquet", columns=read_cols)
    return hash_join(
        left, right, left_on="o_orderkey", right_on="l_orderkey",
        right_cols=rcols, n_buckets=32, mode=mode,
    )


def q_orders_full_customer(sf_dir: str):
    """Full outer join (hash_join mode="full"): every order x customer
    match plus customers with no orders, padded (left-pads impossible
    here — every order has a customer — which the oracle confirms).
    Nulls coalesced to -1 on both sides for the value-hash compare
    (same NaN!=NaN rule as orders_left_lineitem).  Oracle: DuckDB FULL
    JOIN with identical coalesces."""
    import ray.data as rd

    from .joins import hash_join

    left = rd.read_parquet(f"{sf_dir}/orders.parquet",
                           columns=["o_orderkey", "o_custkey", "o_totalprice"])
    right = rd.read_parquet(f"{sf_dir}/customer.parquet",
                            columns=["c_custkey", "c_acctbal"])
    ds = hash_join(left, right, left_on="o_custkey", right_on="c_custkey",
                   right_cols=["c_acctbal"], n_buckets=16, mode="full")

    def fill(batch: pa.Table) -> pa.Table:
        out = {}
        for name in batch.column_names:
            col = batch.column(name)
            out[name] = pc.fill_null(col, -1)
        return pa.Table.from_pydict(out)

    return ds.map_batches(fill, batch_format="pyarrow", zero_copy_batch=True)


def q_orders_without_lineitem(sf_dir: str):
    """Anti join (hash_join mode="anti"): orders with no lineitem rows.
    The membership side ships only its key column through the exchange —
    the "filter a fact table by absence in another big table" shape.
    Oracle: DuckDB NOT EXISTS."""
    return _orders_lineitem_sides(sf_dir, "anti")


def q_orders_semi_lineitem(sf_dir: str):
    """Semi join (hash_join mode="semi"): orders with >=1 lineitem row,
    each order emitted once (no fanout).  Oracle: DuckDB EXISTS."""
    return _orders_lineitem_sides(sf_dir, "semi")


def q_orders_left_lineitem(sf_dir: str):
    """Left outer join (hash_join mode="left"): every order, padded
    where unmatched (257 such orders at sf0.01).  The pads are
    coalesced to -1 on BOTH sides (Ray + SQL) because the driver's
    value-hash compare can't equate NaN with NaN — the join itself
    emits real nulls (pandas-checked in tests/test_functions.py).
    Oracle: DuckDB LEFT JOIN with the same coalesce."""
    ds = _orders_lineitem_sides(sf_dir, "left")

    def fill(batch: pa.Table) -> pa.Table:
        for col in ("r_l_linenumber", "r_l_quantity"):
            i = batch.column_names.index(col)
            filled = pc.fill_null(batch.column(col), -1)
            batch = batch.set_column(i, col, filled)
        return batch

    return ds.map_batches(fill, batch_format="pyarrow", zero_copy_batch=True)


SHIP_CUTOFF = "1998-06-01"
SHIP_SEGMENT = "BUILDING"
SHIP_TOP_K = 10


def q_shipping_priority(sf_dir: str):
    """TPC-H Q3 shape: the canonical multi-join analytics pipeline —
    customer (segment filter) ⋈ orders (date filter) ⋈ lineitem (date
    filter) -> revenue per order -> global top-10.

    Scale composition: the customer membership check is a SEMI
    hash_join (only the customer key column crosses that exchange);
    the orders side then meets lineitem in one INNER hash_join (both
    sides big).  Filters are applied before every exchange, reads are
    column-pruned, revenue is summed in exact 1e-4-dollar int64 units
    (cents x discount-complement-cents) so the float compare can't
    drift, and the global top-10 is per-batch partial top-k -> a tiny
    driver merge — the aggregated table never sorts globally.  Oracle:
    the literal Q3 SQL with the same integer revenue."""
    import ray.data as rd

    from .joins import hash_join

    cutoff = np.datetime64(SHIP_CUTOFF).astype("datetime64[us]").astype(np.int64)

    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey"],
        filter=(pc.field("c_mktsegment") == SHIP_SEGMENT),  # row-group pushdown
    )
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter=(pc.field("o_orderdate") < pa.scalar(np.datetime64(SHIP_CUTOFF, "us"))),
    )
    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    building_orders = hash_join(
        orders, cust, left_on="o_custkey", right_on="c_custkey",
        right_cols=["c_custkey"], n_buckets=16, mode="semi",
    ).select_columns(["o_orderkey", "o_orderdate"])

    def rev(batch: pa.Table) -> pa.Table:
        ship = pc.cast(batch.column("l_shipdate"), pa.int64()).to_numpy(zero_copy_only=False)
        m = ship > cutoff
        price = batch.column("l_extendedprice").to_numpy(zero_copy_only=False)[m]
        disc = batch.column("l_discount").to_numpy(zero_copy_only=False)[m]
        cents = np.floor(price * 100 + 0.5).astype(np.int64)
        dcomp = np.floor((1.0 - disc) * 100 + 0.5).astype(np.int64)
        return pa.Table.from_pydict(
            {
                "l_orderkey": pc.cast(batch.column("l_orderkey"), pa.int64())
                .to_numpy(zero_copy_only=False)[m],
                "rev_e4": pa.array(cents * dcomp),
            }
        )

    joined = hash_join(
        li.map_batches(rev, batch_format="pyarrow", zero_copy_batch=True),
        building_orders,
        left_on="l_orderkey", right_on="o_orderkey",
        right_cols=["o_orderdate"], n_buckets=32,
    )
    per_order = _sum_groupby(joined, ["l_orderkey", "r_o_orderdate"], ["rev_e4"])

    def partial_topk(batch: pa.Table) -> pa.Table:
        rv = batch.column("rev_e4").to_numpy(zero_copy_only=False)
        ok = batch.column("l_orderkey").to_numpy(zero_copy_only=False)
        order = np.lexsort((ok, -rv))[:SHIP_TOP_K]
        return batch.take(pa.array(order))

    top = (
        per_order.map_batches(partial_topk, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()  # O(blocks x k) rows
        .sort_values(["rev_e4", "l_orderkey"], ascending=[False, True])
        .head(SHIP_TOP_K)
        .rename(columns={"r_o_orderdate": "o_orderdate"})
        .reset_index(drop=True)
    )
    t = pa.Table.from_pandas(top, preserve_index=False)
    # pin the pandas round-trip's datetime64[s] back to the table's us
    idx = t.schema.get_field_index("o_orderdate")
    return t.set_column(idx, "o_orderdate", pc.cast(t.column("o_orderdate"), pa.timestamp("us")))


def q_events_in_windows(sf_dir: str):
    """Range join: every event inside the 30-minute window following
    any purchase by the same user (functions/joins.py interval_join —
    time-bucket co-partition, no all-pairs).  Oracle: DuckDB
    inequality join."""
    import ray.data as rd

    from .joins import interval_join

    HALF_H = 30 * 60 * 1_000_000  # us

    def windows(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.equal(batch.column("event_type"), "purchase"))
        ts = pc.cast(b.column("ts"), pa.int64())
        end = pc.cast(pc.add(ts, HALF_H), pa.timestamp("us"))
        return pa.Table.from_arrays(
            [b.column("event_id"), b.column("user_id"), b.column("ts"), end],
            names=["w_id", "user_id", "w_start", "w_end"],
        )

    left = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id"])
    right = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id", "event_type"]
    ).map_batches(windows, batch_format="pyarrow", zero_copy_batch=True)
    return interval_join(
        left, right, by="user_id", on="ts", start="w_start", end="w_end",
        right_cols=["w_id", "w_start", "w_end"], bucket_width=HALF_H,
    )


def q_minhash_verified_pairs(sf_dir: str):
    """The minhash family's PRECISION oracle (round-3 verdict #6):
    exact text canonicalization (min doc_id per text) -> 128-perm,
    32-band MinHash banding (P(miss at j=0.8) = (1-0.8^4)^32 ~ 5e-8;
    this corpus's qualifying pairs all sit >= 0.8, most >= 0.95) ->
    distributed pair dedup -> texts joined back through TWO
    co-partitioned hash_joins (both sides large: no broadcast) ->
    exact word-2gram Jaccard filter >= 0.8.  Output equals DuckDB's
    exhaustive all-pairs jaccard >= 0.8 over the canonical docs — the
    banding is purely a recall-complete accelerator here."""
    from .dedup import _banded_pairs, _candidate_pairs, _dedup_pair_stream, _minhash_batch

    JT = 0.8
    # materialize the canonical universe ONCE: it feeds the hashing
    # branch AND both sides of the jaccard join, and Ray Data plans are
    # trees — an unmaterialized Dataset re-executes its exact_dedup
    # subtree per consumer (measured 18x wall blowup at sf0.1).
    # O(distinct texts) rows, test-scale harness.
    canon_str = _canon_docs_str(sf_dir).materialize()
    exploded = canon_str.map_batches(
        _minhash_batch,
        fn_kwargs=dict(num_perm=128, bands=32, shingle_k=2, seed=1),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    cand = _dedup_pair_stream(
        _banded_pairs(
            exploded, lambda g: _candidate_pairs(g, 0.5, 128, collapse_identical=False)
        )
    ).materialize()  # O(candidate pairs) — feeds two chained joins
    return _exact_jaccard_filter(cand, canon_str, JT)


def _canon_docs_str(sf_dir: str):
    """Exact-dedup'd documents with string doc_ids (min id per text) —
    the shared candidate universe of the verified-pairs queries."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    canon = exact_dedup(ds, key="text", id_col="doc_id")

    def as_str_ids(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [pc.cast(t.column("doc_id"), pa.string()), t.column("text")],
            names=["doc_id", "text"],
        )

    return canon.map_batches(as_str_ids, batch_format="pyarrow", zero_copy_batch=True)


def _exact_jaccard_filter(cand, canon_str, jt: float):
    """Join candidate (a, b) pairs back to their texts through two
    co-partitioned hash_joins and keep exact word-2gram Jaccard >= jt
    (half-away rounded to 6 for DuckDB round() parity)."""
    from .dedup import ngram_jaccard
    from .joins import hash_join

    j1 = hash_join(cand, canon_str, left_on="a", right_on="doc_id",
                   right_cols=["text"], right_prefix="ta_", n_buckets=16)
    j2 = hash_join(j1, canon_str, left_on="b", right_on="doc_id",
                   right_cols=["text"], right_prefix="tb_", n_buckets=16)
    out_schema = pa.schema([("a", pa.string()), ("b", pa.string()), ("jaccard", pa.float64())])

    def verify(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.Table.from_pydict({"a": [], "b": [], "jaccard": []}, schema=out_schema)
        jac = ngram_jaccard(
            batch.column("ta_text").to_pylist(), batch.column("tb_text").to_pylist(),
            k=2, seed=1,
        )
        jac = np.floor(jac * 1e6 + 0.5) / 1e6  # half-away, DuckDB round() parity
        keep = jac >= jt
        return pa.Table.from_arrays(
            [
                batch.column("a").combine_chunks().filter(pa.array(keep)),
                batch.column("b").combine_chunks().filter(pa.array(keep)),
                pa.array(jac[keep], type=pa.float64()),
            ],
            schema=out_schema,
        )

    return j2.map_batches(verify, batch_format="pyarrow", zero_copy_batch=True)


SIMHASH_VERIFY_CHUNKS = 15  # 4-bit chunk bands: hamming <= 14 guaranteed caught
SIMHASH_VERIFY_HMAX = 14


def q_simhash_verified_pairs(sf_dir: str):
    """The simhash family's PRECISION oracle (companion to
    minhash_verified_pairs): canonical docs -> 64-bit SimHash over
    word-2-GRAM features (the same feature space as the verified
    predicate) with SIMHASH_VERIFY_CHUNKS-chunk banding -> exhaustive
    in-bucket pairs at hamming <= SIMHASH_VERIFY_HMAX (pigeonhole:
    <= chunks-1 differing bits leave at least one chunk identical —
    recall of the hamming ball is EXACT, not probabilistic) ->
    distributed pair dedup -> exact word-2gram Jaccard filter >= 0.8.
    Output equals DuckDB's exhaustive all-pairs jaccard >= 0.8.

    WHY 2-GRAM FEATURES (round-5 fix): under the production UNIGRAM
    simhash this corpus's shared zipfian vocab puts RANDOM pairs at
    hamming ~9 +- 3 while jaccard-qualifying pairs tail out to 11
    (measured sf0.1; a 10-chunk/h<=9 config missed 2 of 241 pairs) —
    no radius is both recall-exact and selective.  Hashing the same
    2-gram features the jaccard check uses restores the separation:
    measured sf0.1 dup pairs hamming <= 13 (mean 3.9) vs a random
    band of 31 +- 4, so h<=14 carries +1 margin over the observed max
    while admitting ~zero noise candidates.  Radius remains calibrated
    to the largest test scale; at bigger corpora re-measure and bump
    SIMHASH_VERIFY_CHUNKS (this is the verification harness, not the
    production path — simhash_dedup ships unigram chunks=4/h<=3 and
    its recall is property-tested separately)."""
    from .dedup import _banded_pairs, _dedup_pair_stream, _simhash_batch, _simhash_pairs

    # materialized for the same tree-plan reason as minhash_verified_pairs
    canon_str = _canon_docs_str(sf_dir).materialize()
    exploded = canon_str.map_batches(
        _simhash_batch,
        fn_kwargs=dict(chunks=SIMHASH_VERIFY_CHUNKS, seed=2, gram_k=2),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    cand = _dedup_pair_stream(
        _banded_pairs(
            exploded,
            lambda g: _simhash_pairs(g, SIMHASH_VERIFY_HMAX, collapse_identical=False),
        )
    ).materialize()  # O(candidate pairs) — feeds two chained joins
    return _exact_jaccard_filter(cand, canon_str, 0.8)


def q_lsh_dup_pairs(sf_dir: str):
    """Hyperplane-LSH near-dup pairs, amplified to recall ~1 at the
    threshold (2 bits x 48 bands: P(miss at cos 0.3) = (1-0.597^2)^48
    ~ 6e-10), every pair exact-cosine verified inside its bucket —
    output equals the exact all-pairs predicate, checked by the same
    DuckDB oracle as embedding_dup_pairs (round-3 upgrade from
    rows-only)."""
    import ray.data as rd

    ids, m = _load_embeddings(sf_dir)
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    return lsh_dup_pairs(ds, dim=m.shape[1], threshold=COSINE_T, planes=2, bands=48)


# ------------------------------------------------------ multimodal


def q_blob_stats(sf_dir: str):
    return blobs_from_documents(sf_dir).map_batches(
        BlobStats, batch_format="pyarrow", zero_copy_batch=True, concurrency=(1, 4)
    )


# ------------------------------------------------- generic relational


def q_pricing_summary(sf_dir: str):
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity"],
    )

    def widen(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [
                batch.column("l_returnflag"),
                batch.column("l_linestatus"),
                pc.cast(batch.column("l_quantity"), pa.int64()),
                pa.array(np.ones(batch.num_rows, dtype=np.int64)),
            ],
            names=["l_returnflag", "l_linestatus", "sum_qty", "n"],
        )

    agg = _sum_groupby(
        ds.map_batches(widen, batch_format="pyarrow", zero_copy_batch=True),
        ["l_returnflag", "l_linestatus"],
        ["sum_qty", "n"],
    )
    t = pa.Table.from_pandas(agg.to_pandas(), preserve_index=False)
    avg = t.column("sum_qty").to_numpy().astype(np.float64) / t.column("n").to_numpy().astype(
        np.float64
    )
    return t.append_column("avg_qty", pa.array(avg, type=pa.float64()))


def q_orders_per_nation(sf_dir: str):
    """Broadcast join: small dims (customer->nation name) shipped once
    via ray.put; orders stream through a lookup map_batches — no
    shuffle join (ray_guide.md 'Joins and lookups')."""
    import ray
    import ray.data as rd

    cust = pq.read_table(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"])
    nation = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"])
    ckeys = cust.column("c_custkey").to_numpy()
    order_ = np.argsort(ckeys)
    ckeys = ckeys[order_]
    cnation = cust.column("c_nationkey").to_numpy()[order_]
    nkeys = nation.column("n_nationkey").to_numpy()
    nnames = np.asarray(nation.column("n_name").to_pylist(), dtype=object)
    name_of = dict(zip(nkeys.tolist(), nnames.tolist()))
    lut_names = np.asarray([name_of[k] for k in cnation.tolist()], dtype=object)
    ref = ray.put((ckeys, lut_names))

    def lookup(batch: pa.Table) -> pa.Table:
        keys, names = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        ok = batch.column("o_custkey").to_numpy()
        idx = np.searchsorted(keys, ok)
        return pa.Table.from_pydict(
            {
                "n_name": pa.array(names[idx], type=pa.string()),
                "n_orders": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
            }
        )

    ds = rd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_custkey"])
    return _sum_groupby(
        ds.map_batches(lookup, batch_format="pyarrow", zero_copy_batch=True),
        ["n_name"],
        ["n_orders"],
    )


def q_high_value_orders(sf_dir: str):
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
        filter=(pc.field("o_totalprice") >= PRICE_T),  # row-group pushdown
    )
    return ds


def q_events_hourly(sf_dir: str):
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "ts"])

    def widen(batch: pa.Table) -> pa.Table:
        micros = pc.cast(batch.column("ts"), pa.int64()).to_numpy()
        hour = micros // 3_600_000_000
        return pa.Table.from_pydict(
            {
                "event_type": batch.column("event_type"),
                "hour": pa.array(hour.astype(np.int64)),
                "n": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
            }
        )

    return _sum_groupby(
        ds.map_batches(widen, batch_format="pyarrow", zero_copy_batch=True),
        ["event_type", "hour"],
        ["n"],
    )


def q_hourly_approx_users(sf_dir: str):
    """Distinct users per hour via the mergeable HLL sketch — the
    windowed-sketch composition (per-hour registers, max-merge
    groupby): shuffle moves O(hours x 2^p) bytes regardless of event
    count.  At these per-hour cardinalities (<< 2^p) the estimator is
    in its linear-counting regime; the property test pins the error
    envelope and rows-only covers the randomized estimate."""
    import ray.data as rd

    from .sketches import hll_distinct_by

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["ts", "user_id"])

    def hourly(batch: pa.Table) -> pa.Table:
        micros = pc.cast(batch.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
        return pa.Table.from_pydict({
            "hour": pa.array((micros // 3_600_000_000).astype(np.int64)),
            "user_id": pc.cast(batch.column("user_id"), pa.int64()),
        })

    wide = ds.map_batches(hourly, batch_format="pyarrow", zero_copy_batch=True)
    return hll_distinct_by(wide, "hour", "user_id", p=14)


def q_user_retention(sf_dir: str):
    """Hour-over-hour retention: per hour h, how many distinct users
    were active in BOTH h-1 and h — the standard engagement metric.
    Shape: per-batch distinct (hour, user) partials (one np.unique over
    void rows), one groupby to global-distinct the pairs, then each
    pair re-emits itself tagged 1 ("active at h") and its successor
    hour tagged 2 ("was active at h-1"); a second groupby sums tags —
    3 means both — and a final tiny count per hour.  Everything moved
    is O(distinct user-hours), never O(events).  Oracle: self-join of
    the distinct user-hour set on (user, h-1)."""
    import ray.data as rd

    def pairs(batch: pa.Table) -> pa.Table:
        micros = pc.cast(batch.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
        hour = micros // 3_600_000_000
        user = pc.cast(batch.column("user_id"), pa.int64()).to_numpy(zero_copy_only=False)
        hu = np.ascontiguousarray(np.stack([hour, user], axis=1))
        uniq = np.unique(hu.view([("", np.int64)] * 2)).view(np.int64).reshape(-1, 2)
        return pa.Table.from_pydict({"h": pa.array(uniq[:, 0]), "u": pa.array(uniq[:, 1])})

    ev = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["ts", "user_id"])
    dist = (
        ev.map_batches(pairs, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["h", "u"]).count()  # global distinct user-hours
    )

    def expand(batch: pa.Table) -> pa.Table:
        h = batch.column("h").to_numpy(zero_copy_only=False)
        u = batch.column("u").to_numpy(zero_copy_only=False)
        return pa.Table.from_pydict({
            "h": pa.array(np.concatenate([h, h + 1])),
            "u": pa.array(np.concatenate([u, u])),
            "flag": pa.array(np.concatenate([
                np.ones(len(h), dtype=np.int64),
                np.full(len(h), 2, dtype=np.int64),
            ])),
        })

    def count_retained(group: pa.Table) -> pa.Table:
        f = group.column("flag").to_numpy(zero_copy_only=False)
        # distinct pairs => at most one row per tag; 3 = active both hours
        n = int((f == 3).sum())
        if n == 0:
            return pa.Table.from_pydict(
                {"h": [], "retained": []},
                schema=pa.schema([("h", pa.int64()), ("retained", pa.int64())]),
            )
        return pa.Table.from_pydict({
            "h": [group.column("h")[0].as_py()], "retained": [n],
        })

    both = (
        dist.map_batches(expand, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["h", "u"]).sum("flag")
        .map_batches(
            lambda b: pa.Table.from_pydict({
                "h": b.column("h"), "flag": b.column("sum(flag)")
            }),
            batch_format="pyarrow",
        )
        .groupby("h")
        .map_groups(count_retained, batch_format="pyarrow")
    )
    return both


def q_user_funnel(sf_dir: str):
    """Strict-order conversion funnel per user: stage 1 = viewed,
    2 = clicked AFTER first view, 3 = purchased AFTER that click (each
    step's clock starts at the previous step's first qualifying event).
    Each step is one masked segment minimum over the user segments —
    constant vectorized work per step.  Oracle: three chained min-join
    CTEs."""
    import ray.data as rd

    NONE = np.iinfo(np.int64).max  # no qualifying event

    def funnel(t: pa.Table, starts: np.ndarray) -> pa.Table:
        ts = pc.cast(t.column("ts"), pa.int64()).to_numpy()
        et = t.column("event_type")
        seg = _segment_ids(starts, len(ts))

        def first(typ: str, after: np.ndarray) -> np.ndarray:
            hit = pc.equal(et, typ).to_numpy() & (ts > after[seg])
            return np.minimum.reduceat(np.where(hit, ts, NONE), starts)

        t0 = first("view", np.full(len(starts), np.iinfo(np.int64).min))
        t1 = first("click", t0)
        t2 = first("purchase", t1)
        stage = (t0 < NONE).astype(np.int64) + (t1 < NONE) + (t2 < NONE)
        return pa.table({"user_id": t.column("user_id").take(starts), "stage": stage})

    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts", "event_type"])
    return _segmented(ev, "user_id", [], funnel)


def q_events_sliding(sf_dir: str):
    """Windowed aggregate: trailing-24h event count per (type, hour).
    Distributed part = the hourly pre-aggregation (O(rows) -> O(types x
    hours) tiny rows); the range-frame window then runs vectorized on
    the small result — the scale-correct split for sliding windows over
    pre-bucketed time series."""
    hourly = q_events_hourly(sf_dir).to_pandas()
    out = {"event_type": [], "hour": [], "n_24h": []}
    for etype, g in hourly.groupby("event_type"):
        g = g.sort_values("hour")
        hours = g["hour"].to_numpy()
        n = g["n"].to_numpy()
        csum = np.concatenate(([0], np.cumsum(n)))
        # range frame [hour-23, hour]: leftmost bucket within the window
        lo = np.searchsorted(hours, hours - 23, side="left")
        n24 = csum[np.arange(1, len(n) + 1)] - csum[lo]
        out["event_type"].extend([etype] * len(hours))
        out["hour"].extend(hours.tolist())
        out["n_24h"].extend(n24.astype(np.int64).tolist())
    return pa.Table.from_pydict(
        {
            "event_type": pa.array(out["event_type"], type=pa.string()),
            "hour": pa.array(out["hour"], type=pa.int64()),
            "n_24h": pa.array(out["n_24h"], type=pa.int64()),
        }
    )


# -------------------------------------------- flagship (rows-only)


def _job_dir(sf_dir: str, tag: str) -> str:
    h = hashlib.md5(f"{sf_dir}:{tag}".encode()).hexdigest()[:10]
    return f"/tmp/fcray_q/{tag}-{h}"


def q_encode_roundtrip(sf_dir: str):
    """Flagship encode + decode-verify; returns per-partition ok rows.
    Not SQL-expressible -> driver records the rows-only check."""
    from ..pipelines.encode_job import EncodeConfig, run_encode
    from ..pipelines.verify_job import run_verify

    out = _job_dir(sf_dir, "roundtrip")
    shutil.rmtree(out, ignore_errors=True)
    factory = lambda: tokseq_dataset(sf_dir)
    run_encode(factory, EncodeConfig(out_dir=out, target_partition_tokens=200_000)).materialize()
    return run_verify(factory, out)


def q_incremental_roundtrip(sf_dir: str):
    """Append-aware incremental encode (round-4 verdict item 1) under
    the driver gate: encode the corpus's first shard-half, APPEND the
    second half as a new ingest generation (run_encode_files touches
    only the new shards), then hash-verify the whole output against
    the full original — one ok row per partition across BOTH
    generations.  Not SQL-expressible -> rows-only check."""
    import glob as _glob

    from ..pipelines.encode_job import EncodeConfig, run_encode_files
    from ..pipelines.verify_job import run_verify
    from ..sources.tokseq import tokseq_dataset as _tok

    from ..util.hashing import hash_strings_u64

    base = _job_dir(sf_dir, "incrt")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base, exist_ok=True)
    # deterministic 2-way shard split on a doc-id hash, written as a
    # STREAM (no driver materialization — each half write_parquets
    # straight from the tokenize pipeline)
    def half(batch: pa.Table, want: int) -> pa.Table:
        hv = hash_strings_u64(pc.cast(batch.column("doc_id"), pa.string()))
        return batch.filter(pa.array((hv & np.uint64(1)) == np.uint64(want)))

    d1, d2 = os.path.join(base, "h0"), os.path.join(base, "h1")
    for want, d in ((0, d1), (1, d2)):
        _tok(sf_dir).map_batches(
            half, batch_format="pyarrow", zero_copy_batch=True, fn_kwargs={"want": want}
        ).write_parquet(d)
    s1 = sorted(_glob.glob(os.path.join(d1, "*.parquet")))
    s2 = sorted(_glob.glob(os.path.join(d2, "*.parquet")))
    out = os.path.join(base, "enc")
    cfg = EncodeConfig(out_dir=out, target_partition_tokens=200_000)
    run_encode_files(s1, cfg).materialize()
    m2 = run_encode_files(s1 + s2, cfg).to_pandas()
    assert all("-g01-" in p for p in m2["part_id"]), "append must be gen-1 only"
    return run_verify(None, out, mode="hash")


def q_csv_roundtrip(sf_dir: str):
    """FileConvert conformance (R13): csv->parquet->csv->parquet over a
    deterministic fixture; returns one row with the bit-identity verdict.
    Rows-only check (conversion fidelity is not SQL-expressible)."""
    import glob

    from ..sources.csvio import CsvOptions, csv_to_parquet, parquet_to_csv, write_fixture_csv

    base = _job_dir(sf_dir, "csvrt")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base, exist_ok=True)
    src = os.path.join(base, "fixture.csv")
    write_fixture_csv(src)
    pq1, csv2, pq2 = (os.path.join(base, d) for d in ("pq1", "csv2", "pq2"))
    csv_to_parquet(src, pq1)
    parquet_to_csv(sorted(glob.glob(pq1 + "/*.parquet")), csv2)
    t1 = pa.concat_tables([pq.read_table(p) for p in sorted(glob.glob(pq1 + "/*.parquet"))])
    csv_to_parquet(sorted(glob.glob(csv2 + "/*.csv")), pq2, schema=t1.schema,
                   opts=CsvOptions(sanitize=False))
    t2 = pa.concat_tables([pq.read_table(p) for p in sorted(glob.glob(pq2 + "/*.parquet"))])
    a, b = t1.sort_by("id").combine_chunks(), t2.sort_by("id").combine_chunks()
    ok = a.schema.equals(b.schema) and all(
        a.column(c).equals(b.column(c)) for c in a.column_names
    )
    return pa.Table.from_pydict({"n_rows": [a.num_rows], "bit_identical": [ok]})


def q_csv_export_roundtrip(sf_dir: str):
    """CSV sink+source fidelity with a VALUE oracle (upgrade of the
    rows-only csv_roundtrip): documents -> ds.write_csv ->
    ds.read_csv -> all columns, hash-compared against plain SQL over
    the original parquet.  Any quoting, type-inference, or
    row-boundary bug in the CSV path breaks value parity."""
    import ray.data as rd

    base = _job_dir(sf_dir, "csvexp")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base, exist_ok=True)
    rd.read_parquet(f"{sf_dir}/documents.parquet").write_csv(base)
    return rd.read_csv(base)


def q_tokenize_roundtrip(sf_dir: str):
    """Whole-tokenizer fidelity with a VALUE oracle: documents ->
    run_tokenize (distributed vocab build + word->id shards +
    persisted vocab.json) -> run_detokenize (id->word via one Arrow
    take + binary_join) -> (doc_id, text, source), hash-compared
    against plain SQL over the original parquet.  A vocab-order drift,
    id remap, split/join asymmetry, or OOV leak breaks value parity."""
    import ray.data as rd

    from ..pipelines.tokenize_job import run_detokenize, run_tokenize

    tok = _job_dir(sf_dir, "tokrt")
    detok = _job_dir(sf_dir, "tokrt-back")
    shutil.rmtree(tok, ignore_errors=True)
    shutil.rmtree(detok, ignore_errors=True)
    run_tokenize(f"{sf_dir}/documents.parquet", tok)
    run_detokenize(tok, detok)
    return rd.read_parquet(detok)


def q_remap_roundtrip(sf_dir: str):
    """Vocab-remap fidelity with a VALUE oracle: the documents subset
    with n_chars % 3 == 0 is ingested into its OWN store (own total
    vocabulary), remapped into a vocabulary built over the FULL corpus
    (pipelines/remap_job.py: decode -> one int32 LUT gather per token
    -> re-encode), and the remapped store is decoded + detokenized
    against the TARGET vocab back to (doc_id, text, source) —
    hash-compared against plain SQL over the original parquet.  Every
    subset word exists in the full-corpus vocab, so the round trip is
    lossless by construction; a LUT drift, OOV mis-map, list-offset
    corruption or container round-trip loss breaks value parity."""
    import numpy as np
    import ray.data as rd

    from ..pipelines.ingest_job import run_ingest
    from ..pipelines.remap_job import run_remap
    from ..pipelines.tokenize_job import build_vocab_distributed
    from ..stages.decoder import decode_dataset

    import json

    base = _job_dir(sf_dir, "remaprt")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)
    docs = f"{sf_dir}/documents.parquet"

    def subset(batch: pa.Table) -> pa.Table:
        n = pc.cast(batch.column("n_chars"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        return batch.select(["doc_id", "text", "source"]).filter(
            pa.array(n % 3 == 0)
        )

    sub_dir = os.path.join(base, "subset")
    os.makedirs(sub_dir)
    rd.read_parquet(docs).map_batches(
        subset, batch_format="pyarrow", zero_copy_batch=True
    ).write_parquet(sub_dir)

    vocab_path = os.path.join(base, "target_vocab.json")
    full_vocab = build_vocab_distributed(rd.read_parquet(docs, columns=["text"]))
    with open(vocab_path, "w") as f:
        json.dump(full_vocab, f)

    store_b = os.path.join(base, "storeB")
    remapped = os.path.join(base, "storeB_remapped")
    run_ingest([sub_dir], store_b, staged_dir=os.path.join(base, "stg1"))
    run_remap(store_b, remapped, vocab=vocab_path,
              staged_dir=os.path.join(base, "stg2"))

    words = pa.array(list(full_vocab) + ["<unk>"], type=pa.string())

    def detok(batch: pa.Table) -> pa.Table:
        toks = batch.column("tokens").combine_chunks()
        ids = toks.values.to_numpy(zero_copy_only=False).astype(np.int64)
        np.clip(ids, 0, len(words) - 1, out=ids)
        lists = pa.ListArray.from_arrays(toks.offsets, words.take(pa.array(ids)))
        return pa.table({
            "doc_id": pc.cast(batch.column("doc_id"), pa.string()),
            "text": pc.binary_join(lists, " "),
            "source": pc.cast(batch.column("source"), pa.string()),
        })

    return decode_dataset(remapped, columns=["doc_id", "tokens", "source"]).map_batches(
        detok, batch_format="pyarrow", zero_copy_batch=True
    )


def q_bpe_reencode_roundtrip(sf_dir: str):
    """BPE corpus re-encoding fidelity with a VALUE oracle: documents
    -> ingest (word-level store) -> run_bpe_reencode (train 6 merges
    over the decoded corpus, apply them, land a smaller store) ->
    run_detokenize (transparently expands the merges in reverse order,
    then maps word ids) -> (doc_id, text, source), hash-compared
    against plain SQL over the original parquet.  Any non-invertible
    merge, wrong rule order, offsets bug in apply/expand, or container
    round-trip loss breaks value parity."""
    import ray.data as rd

    from ..pipelines.bpe_job import run_bpe_reencode
    from ..pipelines.ingest_job import run_ingest
    from ..pipelines.tokenize_job import run_detokenize

    base = _job_dir(sf_dir, "bpert")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)
    store = os.path.join(base, "store")
    bpe_store = os.path.join(base, "bpe")
    back = os.path.join(base, "back")
    run_ingest([f"{sf_dir}/documents.parquet"], store,
               staged_dir=os.path.join(base, "stg1"))
    run_bpe_reencode(store, bpe_store, rounds=6,
                     staged_dir=os.path.join(base, "stg2"))
    run_detokenize(bpe_store, back)
    return rd.read_parquet(back)


def q_merge_dedup_scan(sf_dir: str):
    """Cross-store exact dedup on merge, VALUE-oracled: store A holds
    the full tokseq corpus; store B holds, for every doc with
    doc_id % 3 == 0, (a) an exact token-sequence copy under a fresh
    'dup-' id and (b) a near-copy under 'nv-' with one token appended.
    run_merge(A, B, dedup="exact") must tombstone exactly the (a) rows
    — identical content, different id — and keep the (b) rows, so the
    merged decode equals documents UNION ALL the modified subset.
    Exercises token_content_hashes + the key-only semi hash_join +
    distributed per-partition tombstone writes end to end."""
    import numpy as np

    from ..pipelines.encode_job import EncodeConfig, run_encode_files
    from ..pipelines.merge_job import run_merge
    from ..sources.tokseq import tokseq_table
    from ..stages.decoder import decode_dataset

    base = _job_dir(sf_dir, "mergededup")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)

    t = tokseq_table(sf_dir)
    ids = pc.cast(t.column("doc_id"), pa.int64()).to_numpy(zero_copy_only=False)
    sub = t.filter(pa.array(ids % 3 == 0))

    toks = sub.column("tokens").combine_chunks()
    vals = toks.values.to_numpy(zero_copy_only=False)
    lens = sub.column("n_tok").to_numpy(zero_copy_only=False).astype(np.int64)
    # append one token (id 0) per row, vectorized: old values scatter to
    # their shifted slots, the per-row gap stays 0 (the appended token)
    new_vals = np.zeros(len(vals) + sub.num_rows, dtype=np.int32)
    new_vals[np.arange(len(vals)) + np.repeat(np.arange(sub.num_rows), lens)] = vals
    new_off = np.concatenate(([0], np.cumsum(lens + 1)))
    novel_tokens = pa.ListArray.from_arrays(
        pa.array(new_off, type=pa.int32()), pa.array(new_vals, type=pa.int32())
    )

    def tagged(prefix: str, tokens, n_tok) -> pa.Table:
        did = pc.binary_join_element_wise(
            pa.array([prefix] * sub.num_rows),
            pc.cast(sub.column("doc_id"), pa.string()).combine_chunks(),
            "",
        )
        return pa.Table.from_arrays(
            [did, tokens, n_tok, sub.column("source").combine_chunks()],
            names=["doc_id", "tokens", "n_tok", "source"],
        )

    b_tab = pa.concat_tables([
        tagged("dup-", toks, sub.column("n_tok").combine_chunks()),
        tagged("nv-", novel_tokens, pa.array((lens + 1).astype(np.int32))),
    ])

    sh_a, sh_b = os.path.join(base, "a.parquet"), os.path.join(base, "b.parquet")
    pq.write_table(t, sh_a)
    pq.write_table(b_tab, sh_b)
    A, B = os.path.join(base, "A"), os.path.join(base, "B")
    run_encode_files([sh_a], EncodeConfig(
        out_dir=A, staged_dir=os.path.join(base, "stg1"))).materialize()
    run_encode_files([sh_b], EncodeConfig(
        out_dir=B, staged_dir=os.path.join(base, "stg2"))).materialize()
    run_merge(A, B, dedup="exact")
    return decode_dataset(A, columns=["doc_id", "source", "n_tok"])


def q_merge_near_dedup_scan(sf_dir: str):
    """Cross-store NEAR dedup on merge, VALUE-oracled on its
    deterministic envelope: store B holds, per doc with doc_id % 3 ==
    0, (a) an exact token copy under 'dup-' (identical shingle sets ->
    identical signatures -> est 1.0, caught regardless of banding
    luck) and (b) a content-disjoint copy under 'fz-' (every token id
    shifted by +1e6 -> zero shingle overlap -> never reaches the 0.7
    agreement bar).  run_merge(A, B, dedup="minhash") must drop
    exactly the (a) rows.  The probabilistic mid-range (one-token
    drift) is pinned by tests/test_merge.py instead — its detection
    probability depends on banding, so it has no SQL-expressible
    truth.  Exercises token-shingle MinHash signatures + _banded_pairs
    cross-side matching + distributed tombstone writes end to end."""
    import numpy as np

    from ..pipelines.encode_job import EncodeConfig, run_encode_files
    from ..pipelines.merge_job import run_merge
    from ..sources.tokseq import tokseq_table
    from ..stages.decoder import decode_dataset

    base = _job_dir(sf_dir, "mergenear")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)

    t = tokseq_table(sf_dir)
    ids = pc.cast(t.column("doc_id"), pa.int64()).to_numpy(zero_copy_only=False)
    sub = t.filter(pa.array(ids % 3 == 0))
    toks = sub.column("tokens").combine_chunks()
    far = pa.ListArray.from_arrays(
        toks.offsets,
        pa.array(
            toks.values.to_numpy(zero_copy_only=False) + 1_000_000,
            type=pa.int32(),
        ),
    )

    def tagged(prefix: str, tokens) -> pa.Table:
        did = pc.binary_join_element_wise(
            pa.array([prefix] * sub.num_rows),
            pc.cast(sub.column("doc_id"), pa.string()).combine_chunks(),
            "",
        )
        return pa.Table.from_arrays(
            [did, tokens, sub.column("n_tok").combine_chunks(),
             sub.column("source").combine_chunks()],
            names=["doc_id", "tokens", "n_tok", "source"],
        )

    sh_a, sh_b = os.path.join(base, "a.parquet"), os.path.join(base, "b.parquet")
    pq.write_table(t, sh_a)
    pq.write_table(pa.concat_tables([tagged("dup-", toks), tagged("fz-", far)]), sh_b)
    A, B = os.path.join(base, "A"), os.path.join(base, "B")
    run_encode_files([sh_a], EncodeConfig(
        out_dir=A, staged_dir=os.path.join(base, "stg1"))).materialize()
    run_encode_files([sh_b], EncodeConfig(
        out_dir=B, staged_dir=os.path.join(base, "stg2"))).materialize()
    run_merge(A, B, dedup="minhash")
    return decode_dataset(A, columns=["doc_id", "source", "n_tok"])


def q_feather_roundtrip(sf_dir: str):
    """Feather / Arrow-IPC sink+source fidelity with a VALUE oracle:
    documents -> write_feather_dataset (one IPC file per block,
    tmp+rename) -> read_feather_dataset (one decode task per file) ->
    all columns, hash-compared against plain SQL over the original
    parquet — format parity with the reference converter's
    multi-format surface."""
    import ray.data as rd

    from ..sources.featherio import read_feather_dataset, write_feather_dataset

    base = _job_dir(sf_dir, "featherexp")
    shutil.rmtree(base, ignore_errors=True)
    manifest = write_feather_dataset(
        rd.read_parquet(f"{sf_dir}/documents.parquet"), base
    )
    manifest.materialize()  # drive the writes
    return read_feather_dataset(base)


def q_bpe_merge_rounds(sf_dir: str):
    """First 6 BPE merge rules over the tokseq corpus (distributed
    pair-count partials + top-1 election + vectorized merge-apply
    rounds).  Iterative whole-corpus recount is not SQL-expressible ->
    rows-only driver check; exactness vs a pure-Python reference is
    property-tested (tests/test_functions.py)."""
    from .bpe import bpe_merge_rounds

    return bpe_merge_rounds(tokseq_dataset(sf_dir), rounds=6)


def q_mixture_plan(sf_dir: str, alpha: float = 0.5):
    """Temperature-weighted source-mixing plan (the multinomial
    sampling-rate table an LLM data pipeline feeds the loader):
    per-source token counts -> weight_s = n_s^alpha / sum(n^alpha) ->
    expected epochs over one total-token-budget pass = weight_s *
    total_tokens / n_s.  One pre-aggregated groupby; O(sources) rows
    ever leave the cluster."""
    from ray.data.aggregate import Count, Sum

    stats = (
        tokseq_dataset(sf_dir)
        .map_batches(
            lambda t: pa.Table.from_arrays(
                [t.column("source"), pc.cast(t.column("n_tok"), pa.int64())],
                names=["source", "n_tok"],
            ),
            batch_format="pyarrow", zero_copy_batch=True,
        )
        .groupby("source")
        .aggregate(Sum("n_tok", alias_name="n_tokens"), Count(alias_name="n_docs"))
    )

    tabs = [bt for bt in stats.iter_batches(batch_size=None, batch_format="pyarrow")]
    t = pa.concat_tables(tabs)  # O(sources) rows
    n = t.column("n_tokens").to_numpy(zero_copy_only=False).astype(np.float64)
    w = np.power(n, alpha)
    w = w / w.sum()
    total = float(n.sum())  # integer-exact under any order
    epochs = w * total / n
    # the Σ n^alpha normalizer is a cross-row FLOAT sum whose last ulp
    # depends on summation order; round both sides (here and the SQL
    # oracle) to 9 decimals — wobble is ~2e-15 relative, 6 orders of
    # magnitude inside the grid (same discipline as len_tok_corr's
    # integer moments, applied where integers can't express the math)
    return (
        t.append_column("weight", pa.array(np.round(w, 9)))
        .append_column("epochs", pa.array(np.round(epochs, 9)))
        .sort_by("source")
    )


def q_image_dedup_docs(sf_dir: str):
    """Multimodal dedup chain, ORACLE-checked end to end: every
    document renders into a deterministic FIMG image blob (16-px-wide
    grayscale, pixel bytes = the utf8 text bytes zero-padded — an
    injective encoding, so image equality == text equality), exact
    payload dedup keeps the smallest doc_id per identical image, and
    the surviving blobs stream through the actor-pool ImageDecodeStage
    whose parsed dimensions are the output.  Oracle: min(doc_id) per
    distinct text with width/height recomputed from n_chars in SQL.
    The blob payload never shuffles (exact_dedup moves hash+id pairs)
    and decode state lives in actor __init__ — the 100-TB shape for
    image-corpus dedup."""
    import struct

    import ray.data as rd

    from ..functions.multimodal import FAKE_MAGIC, ImageDecodeStage
    from .dedup import exact_dedup

    W = 16

    def to_image(batch: pa.Table) -> pa.Table:
        text = batch.column("text").combine_chunks()
        payloads = []
        for s in text.to_pylist():
            b = s.encode()
            h = (len(b) + W - 1) // W
            payloads.append(FAKE_MAGIC + struct.pack("<HH", W, h) + b.ljust(W * h, b"\0"))
        return pa.Table.from_pydict(
            {
                "doc_id": pc.cast(batch.column("doc_id"), pa.int64()),
                "payload": pa.array(payloads, type=pa.binary()),
            }
        )

    blobs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ).map_batches(to_image, batch_format="pyarrow", zero_copy_batch=True)
    surv = exact_dedup(blobs, key="payload", id_col="doc_id")

    def tag(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "blob_id": pc.cast(batch.column("doc_id"), pa.string()),
                "payload": batch.column("payload"),
            }
        )

    decoded = surv.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True).map_batches(
        ImageDecodeStage, fn_constructor_kwargs={"fake": True},
        batch_format="pyarrow", concurrency=(1, 4), batch_size=256,
    )

    def out(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "doc_id": pc.cast(batch.column("blob_id"), pa.int64()),
                "width": batch.column("width"),
                "height": batch.column("height"),
            }
        )

    return decoded.map_batches(out, batch_format="pyarrow", zero_copy_batch=True)


def q_cms_token_counts(sf_dir: str):
    """Count-min sketch token counts, sized for determinism: depth 4 x
    width 2^16 over a vocab of at most tens of thousands makes the
    probability that some item collides in ALL four rows ~1e-12, and
    the hash seed is fixed — so the sketch equals the exact histogram
    and the exact-count SQL is a true oracle.  The distributed shape is
    the honest sketch shape regardless: one counter block per batch,
    sharded elementwise-sum merge, O(shards) rows to the driver."""
    from ..sources.tokseq import build_vocab
    from .sketches import cms_estimate, cms_merge_build

    def flat(batch: pa.Table) -> pa.Table:
        col = batch.column("tokens")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        return pa.Table.from_pydict(
            {"token": pc.cast(col.flatten(), pa.int64())}
        )

    fds = tokseq_dataset(sf_dir).map_batches(
        flat, batch_format="pyarrow", zero_copy_batch=True
    )
    sketch = cms_merge_build(fds, "token", depth=4, width=1 << 16)
    items = np.arange(len(build_vocab(sf_dir)), dtype=np.int64)
    return pa.Table.from_pydict(
        {
            "token": pa.array(items),
            "cnt": pa.array(cms_estimate(sketch, items)),
        }
    )


def q_jsonl_export_roundtrip(sf_dir: str):
    """JSONL sink+source fidelity with a VALUE oracle: events ->
    ds.write_json (newline-delimited) -> ds.read_json -> hash-compared
    against SQL over the original parquet.  Timestamps ride as epoch
    microseconds (int64) so the JSON text round-trips bit-exactly —
    the same canonicalization the containers use for temporal types."""
    import ray.data as rd

    base = _job_dir(sf_dir, "jsonexp")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base, exist_ok=True)

    def canon(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").to_numpy(zero_copy_only=False).astype("datetime64[us]")
        return pa.Table.from_pydict(
            {
                "event_id": batch.column("event_id"),
                "ts_us": pa.array(ts.astype(np.int64)),
                "user_id": batch.column("user_id"),
                "event_type": batch.column("event_type"),
            }
        )

    (
        rd.read_parquet(
            f"{sf_dir}/events.parquet",
            columns=["event_id", "ts", "user_id", "event_type"],
        )
        .map_batches(canon, batch_format="pyarrow", zero_copy_batch=True)
        .write_json(base)
    )
    return rd.read_json(base)


def q_decode_stats(sf_dir: str):
    """E9 as a streaming consumer: encode the tokseq table, then read
    the encoded containers back as a Dataset (decode_dataset) and
    aggregate per-source stats — oracle-checked against the ORIGINAL
    documents, so any decode corruption breaks value parity.  The read
    projects columns=[source, n_tok]: the tokens payload (the bulk of
    every chunk) is never decoded — read-side pruning applied to the
    engine's own container format."""
    from ..pipelines.encode_job import EncodeConfig, run_encode
    from ..stages.decoder import decode_dataset

    out = _job_dir(sf_dir, "decstats")
    shutil.rmtree(out, ignore_errors=True)
    run_encode(
        lambda: tokseq_dataset(sf_dir), EncodeConfig(out_dir=out, target_partition_tokens=200_000)
    ).materialize()
    ds = decode_dataset(out, columns=["source", "n_tok"])

    def widen(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [
                batch.column("source"),
                pa.array(np.ones(batch.num_rows, dtype=np.int64)),
                pc.cast(batch.column("n_tok"), pa.int64()),
            ],
            names=["source", "n_docs", "sum_tok"],
        )

    return _sum_groupby(ds.map_batches(widen, batch_format="pyarrow"), ["source"], ["n_docs", "sum_tok"])


def q_decode_filtered(sf_dir: str):
    """Predicate-pushdown decode: encode the corpus, then read it back
    with a (source, n_tok-range) predicate.  The manifest zone maps
    prune whole partitions before any container opens — source pruning
    is exact (partitions are keyed by source), the n_tok range prunes
    via per-partition min/max — and a vectorized residual filter keeps
    semantics exact.  Oracle: the same predicate over the ORIGINAL
    documents, so a pruning bug (dropping a partition that matched)
    breaks row count, not just values."""
    from ..pipelines.encode_job import EncodeConfig, run_encode
    from ..stages.decoder import decode_dataset

    out = _job_dir(sf_dir, "decfilt")
    shutil.rmtree(out, ignore_errors=True)
    run_encode(
        lambda: tokseq_dataset(sf_dir), EncodeConfig(out_dir=out, target_partition_tokens=50_000)
    ).materialize()
    ds = decode_dataset(out, sources=["src0", "src3", "src7"], min_n_tok=25, max_n_tok=80)

    def project(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "doc_id": pc.cast(batch.column("doc_id"), pa.int64()),
                "n_tok": pc.cast(batch.column("n_tok"), pa.int64()),
                "source": batch.column("source"),
            }
        )

    return ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)


def _delete_scan_ds(sf_dir: str, tag: str, purge: bool):
    """Shared body of delete_scan / delete_purge_scan: encode the
    corpus, tombstone every doc whose id ends in 7 (a deterministic
    takedown list — real usage passes an explicit id list; run_delete
    routes it via the bucket plan, NO corpus scan), optionally purge
    (physical in-place rewrite, tombstones must be fully consumed),
    then stream-decode the survivors projected to (doc_id, n_tok,
    source).  Oracle: the same predicate over the ORIGINAL documents —
    a reader that misses a tombstone, or a purge that drops a survivor
    or resurrects a victim, breaks row count or values."""
    import pyarrow.parquet as _pq

    from ..pipelines.delete_job import run_delete, run_purge
    from ..pipelines.encode_job import EncodeConfig, run_encode
    from ..stages.decoder import decode_dataset
    from ..state.manifest import tombstoned_partitions

    out = _job_dir(sf_dir, tag)
    shutil.rmtree(out, ignore_errors=True)
    run_encode(
        lambda: tokseq_dataset(sf_dir), EncodeConfig(out_dir=out, target_partition_tokens=200_000)
    ).materialize()
    ids = _pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id"]).column(
        "doc_id"
    )
    victims = [str(d) for d in ids.to_pylist() if str(d).endswith("7")]
    res = run_delete(out, victims)
    assert res["found"] == len(victims), res
    if purge:
        run_purge(out).materialize()
        assert tombstoned_partitions(out) == []
    ds = decode_dataset(out, columns=["doc_id", "n_tok", "source"])

    def project(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "doc_id": pc.cast(batch.column("doc_id"), pa.int64()),
                "n_tok": pc.cast(batch.column("n_tok"), pa.int64()),
                "source": batch.column("source"),
            }
        )

    return ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)


def q_delete_scan(sf_dir: str):
    """Logical delete (tombstones, merge-on-read): see _delete_scan_ds."""
    return _delete_scan_ds(sf_dir, "delscan", purge=False)


def q_delete_purge_scan(sf_dir: str):
    """Physical purge after the logical delete: see _delete_scan_ds."""
    return _delete_scan_ds(sf_dir, "delpurge", purge=True)


def q_upsert_scan(sf_dir: str):
    """Upsert lifecycle under the oracle gate: generational encode,
    then upsert NEW versions (tokens truncated to 10) of every doc
    whose id ends in 3 — seal -> tombstone -> append — and
    stream-decode the result.  Oracle: one row per ORIGINAL doc with
    n_tok = least(len, 10) for the upserted ids — a duplicate
    (missed tombstone), lost doc, or stale version breaks parity."""
    import glob as _glob

    from ..pipelines.encode_job import EncodeConfig, run_encode_files
    from ..pipelines.upsert_job import run_upsert
    from ..stages.decoder import decode_dataset

    base = _job_dir(sf_dir, "upsert")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base, exist_ok=True)
    shards = os.path.join(base, "shards")
    tokseq_dataset(sf_dir).write_parquet(shards)
    out = os.path.join(base, "enc")
    cfg = EncodeConfig(out_dir=out, target_partition_tokens=200_000)
    run_encode_files(sorted(_glob.glob(f"{shards}/*.parquet")), cfg).materialize()

    # NEW versions, streamed straight to the upsert shard dir
    def new_version(batch: pa.Table) -> pa.Table:
        ids = pc.cast(batch.column("doc_id"), pa.string())
        m = pc.match_like(ids, "%3")
        sub = batch.filter(m)
        if sub.num_rows == 0:
            return sub
        toks = sub.column("tokens").combine_chunks()
        off = toks.offsets.to_numpy(zero_copy_only=False)
        lens = np.minimum(off[1:] - off[:-1], 10)
        take = np.concatenate(
            [np.arange(s, s + k) for s, k in zip(off[:-1], lens)]
        ) if len(lens) else np.array([], dtype=np.int64)
        vals = toks.values.take(pa.array(take, type=pa.int64()))
        new_off = np.concatenate(([0], np.cumsum(lens))).astype(np.int32)
        return pa.Table.from_arrays(
            [
                sub.column("doc_id"),
                pa.ListArray.from_arrays(pa.array(new_off, type=pa.int32()), vals),
                pa.array(lens.astype(np.int32)),
                sub.column("source"),
            ],
            names=["doc_id", "tokens", "n_tok", "source"],
        )

    ups = os.path.join(base, "upshard")
    tokseq_dataset(sf_dir).map_batches(
        new_version, batch_format="pyarrow", zero_copy_batch=True
    ).write_parquet(ups)
    run_upsert(out, sorted(_glob.glob(f"{ups}/*.parquet")), cfg)["metrics"].materialize()

    ds = decode_dataset(out, columns=["doc_id", "n_tok", "source"])

    def project(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "doc_id": pc.cast(batch.column("doc_id"), pa.int64()),
                "n_tok": pc.cast(batch.column("n_tok"), pa.int64()),
                "source": batch.column("source"),
            }
        )

    return ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)


def q_snapshot_scan(sf_dir: str):
    """Snapshot (time-travel) read over the generational lineage:
    ingest the even-doc_id half as generation 0, append the odd half
    as generation 1, then decode PINNED to max_gen=0.  Oracle: the
    even half of the original documents — a snapshot that leaks gen-1
    rows (or loses gen-0 ones) breaks row count or values."""
    import glob as _glob

    from ..pipelines.encode_job import EncodeConfig, run_encode_files
    from ..stages.decoder import decode_dataset

    base = _job_dir(sf_dir, "snap")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base, exist_ok=True)

    def half(batch: pa.Table, want: int) -> pa.Table:
        ids = pc.cast(batch.column("doc_id"), pa.int64())
        return batch.filter(pc.equal(pc.bit_wise_and(ids, 1), want))

    d0, d1 = os.path.join(base, "h0"), os.path.join(base, "h1")
    for want, d in ((0, d0), (1, d1)):
        tokseq_dataset(sf_dir).map_batches(
            half, batch_format="pyarrow", zero_copy_batch=True, fn_kwargs={"want": want}
        ).write_parquet(d)
    s0 = sorted(_glob.glob(f"{d0}/*.parquet"))
    s1 = sorted(_glob.glob(f"{d1}/*.parquet"))
    out = os.path.join(base, "enc")
    cfg = EncodeConfig(out_dir=out, target_partition_tokens=200_000)
    run_encode_files(s0, cfg).materialize()
    run_encode_files(s0 + s1, cfg).materialize()

    ds = decode_dataset(out, columns=["doc_id", "n_tok", "source"], max_gen=0)

    def project(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "doc_id": pc.cast(batch.column("doc_id"), pa.int64()),
                "n_tok": pc.cast(batch.column("n_tok"), pa.int64()),
                "source": batch.column("source"),
            }
        )

    return ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)


def q_merge_scan(sf_dir: str):
    """Corpus merge (pipelines/merge_job.py) under the oracle gate:
    encode the even-doc_id half and the odd half into two INDEPENDENT
    generational stores, merge B into A (hardlinked containers, new
    ingest generations, no re-encode), decode the union.  Oracle: the
    whole original corpus — a lost partition, label collision, or
    tombstone/plan slip breaks row count or values."""
    import glob as _glob

    from ..pipelines.encode_job import EncodeConfig, run_encode_files
    from ..pipelines.merge_job import run_merge
    from ..stages.decoder import decode_dataset

    base = _job_dir(sf_dir, "merge")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base, exist_ok=True)

    def half(batch: pa.Table, want: int) -> pa.Table:
        ids = pc.cast(batch.column("doc_id"), pa.int64())
        return batch.filter(pc.equal(pc.bit_wise_and(ids, 1), want))

    d0, d1 = os.path.join(base, "h0"), os.path.join(base, "h1")
    for want, d in ((0, d0), (1, d1)):
        tokseq_dataset(sf_dir).map_batches(
            half, batch_format="pyarrow", zero_copy_batch=True, fn_kwargs={"want": want}
        ).write_parquet(d)
    a, b = os.path.join(base, "A"), os.path.join(base, "B")
    cfg = lambda out: EncodeConfig(out_dir=out, target_partition_tokens=200_000)
    run_encode_files(sorted(_glob.glob(f"{d0}/*.parquet")), cfg(a)).materialize()
    run_encode_files(sorted(_glob.glob(f"{d1}/*.parquet")), cfg(b)).materialize()
    run_merge(a, b)

    ds = decode_dataset(a, columns=["doc_id", "n_tok", "source"])

    def project(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "doc_id": pc.cast(batch.column("doc_id"), pa.int64()),
                "n_tok": pc.cast(batch.column("n_tok"), pa.int64()),
                "source": batch.column("source"),
            }
        )

    return ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)


def q_ingest_scan(sf_dir: str):
    """Fused tokenize+encode ingest (pipelines/ingest_job.py) under
    the oracle gate: the documents table is split into two shard
    files and ingested in TWO incremental runs (the second against
    the frozen vocab of the first), then the union decodes.  Oracle:
    word counts of the whole original corpus — a vocab drift, OOV
    leak, lost generation, or plan slip breaks row count or values."""
    from ..pipelines.ingest_job import run_ingest
    from ..stages.decoder import decode_dataset

    base = _job_dir(sf_dir, "ingest")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base, exist_ok=True)
    docs = pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text", "source"])
    h = docs.num_rows // 2
    s1, s2 = os.path.join(base, "d1.parquet"), os.path.join(base, "d2.parquet")
    pq.write_table(docs.slice(0, h), s1)
    pq.write_table(docs.slice(h), s2)
    enc = os.path.join(base, "enc")
    run_ingest([s1], enc, target_partition_tokens=200_000)
    run_ingest([s1, s2], enc, target_partition_tokens=200_000)

    ds = decode_dataset(enc, columns=["doc_id", "n_tok", "source"])

    def project(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "doc_id": pc.cast(batch.column("doc_id"), pa.int64()),
                "n_tok": pc.cast(batch.column("n_tok"), pa.int64()),
                "source": batch.column("source"),
            }
        )

    return ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)


def q_annotate_scan(sf_dir: str):
    """Co-partitioned derived annotations (pipelines/annotate_job.py)
    under the oracle gate: encode the corpus, run the token_stats
    annotator (one task per container, ann/{name}/{pid}.parquet), and
    decode WITH the annotation attached (shuffle-free in-task gather).
    Oracle: the same type-token stats computed word-level in SQL
    (gaps-and-islands for the longest immediate-repeat run)."""
    import glob as _glob

    from ..pipelines.annotate_job import run_annotate
    from ..pipelines.encode_job import EncodeConfig, run_encode_files
    from ..stages.decoder import decode_dataset

    base = _job_dir(sf_dir, "annot")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base, exist_ok=True)
    shards = os.path.join(base, "sh")
    tokseq_dataset(sf_dir).write_parquet(shards)
    enc = os.path.join(base, "enc")
    run_encode_files(
        sorted(_glob.glob(f"{shards}/*.parquet")),
        EncodeConfig(out_dir=enc, target_partition_tokens=200_000),
    ).materialize()
    run_annotate(enc, "token_stats")

    ds = decode_dataset(enc, columns=["doc_id"], with_annotations=["token_stats"])

    def project(batch: pa.Table) -> pa.Table:
        return batch.set_column(
            0, "doc_id", pc.cast(batch.column("doc_id"), pa.int64())
        )

    return ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)


def _ingested_annotation_ds(sf_dir: str, tag: str, name: str, out_cols: list[str]):
    """Shared harness for the vocab-aware annotators: single-run ingest
    of the whole documents table (total vocab — token ids ARE word
    ids, no OOV), annotate over the ENCODED store (one task per
    container, per-vocab-id property tables built once per task), and
    a shuffle-free annotated decode projected to ``out_cols``."""
    from ..pipelines.annotate_job import run_annotate
    from ..pipelines.ingest_job import run_ingest
    from ..stages.decoder import decode_dataset

    base = _job_dir(sf_dir, tag)
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base, exist_ok=True)
    enc = os.path.join(base, "enc")
    run_ingest([f"{sf_dir}/documents.parquet"], enc, target_partition_tokens=200_000)
    run_annotate(enc, name)

    ds = decode_dataset(enc, columns=["doc_id"], with_annotations=[name])

    def project(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                c: pc.cast(batch.column(c), pa.string()) if c == "doc_id"
                else batch.column(c)
                for c in out_cols
            }
        )

    return ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)


def q_annotate_quality_scan(sf_dir: str):
    """text_quality annotator (pipelines/annotate_job.py) under the
    oracle gate: the five text-level quality signals (n_chars,
    n_words, stop_ratio, punct_ratio, mean_word_len) computed FROM
    TOKEN IDS over the encoded corpus — per-vocab-id char/stop/punct
    tables + one gather + masked reduceat per doc, zero text bytes
    materialized — value-hashed against the same signals DuckDB
    derives from the ORIGINAL text.  Proves the id-level computation
    is bit-identical to the text-level one end to end through
    tokenize -> encode -> annotate -> attach."""
    return _ingested_annotation_ds(
        sf_dir, "annq", "text_quality",
        ["doc_id", "n_chars", "n_words", "stop_ratio", "punct_ratio", "mean_word_len"],
    )


def q_annotate_langid_scan(sf_dir: str):
    """langid annotator under the oracle gate: LangId's integer-exact
    weighted char-count argmax lifted to token ids (per-vocab-id
    per-language score table, one reduceat per doc), value-hashed
    against the SQL mirror over the original text
    (_lang_id_oracle_sql).  The per-language integer scores stay in
    the side table for ann_filter thresholds; the oracle pins the
    prediction."""
    return _ingested_annotation_ds(
        sf_dir, "annlang", "langid", ["doc_id", "pred_lang"]
    )


def q_phrase_search_scan(sf_dir: str):
    """Phrase search over the ENCODED corpus (pipelines/search_job.py)
    under the oracle gate: ingest the documents table, build the
    per-partition bloom sidecars, search a fixed 3-word phrase
    (exercising the unigram AND adjacent-bigram key path), and return
    (doc_id, n_hits) — every start position counted.  Value-hashed
    against a DuckDB list-lambda oracle that counts word-adjacency
    positions over the ORIGINAL text, so a tokenizer drift, codec bug,
    bloom false NEGATIVE (must never happen), or off-by-one in the
    flat-buffer scan breaks the digest."""
    from ..pipelines.ingest_job import run_ingest
    from ..pipelines.search_job import run_build_index, run_search

    base = _job_dir(sf_dir, "search")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base, exist_ok=True)
    enc = os.path.join(base, "enc")
    run_ingest([f"{sf_dir}/documents.parquet"], enc, target_partition_tokens=200_000)
    run_build_index(enc)
    return run_search(enc, "stream table hash")


def q_phrase_positions_scan(sf_dir: str):
    """Phrase search with SPAN EVIDENCE over the ENCODED corpus
    (run_search(..., with_positions=True)): ingest, index, search the
    fixed 3-word phrase, explode each doc's match-position list to
    (doc_id, pos) rows — 0-based token start offsets, overlaps
    included.  Value-hashed against a DuckDB UNNEST(list_filter(...))
    oracle over the ORIGINAL text, so an off-by-one in the position
    rebase (flat offset -> in-doc offset) breaks the digest even when
    the counts still match."""
    from ..pipelines.ingest_job import run_ingest
    from ..pipelines.search_job import run_build_index, run_search

    base = _job_dir(sf_dir, "searchpos")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base, exist_ok=True)
    enc = os.path.join(base, "enc")
    run_ingest([f"{sf_dir}/documents.parquet"], enc, target_partition_tokens=200_000)
    run_build_index(enc)
    ds = run_search(enc, "stream table hash", with_positions=True)

    def explode(b: pa.Table) -> pa.Table:
        pos = b.column("positions").combine_chunks()
        reps = pc.list_value_length(pos).to_numpy(zero_copy_only=False).astype(np.int64)
        idx = np.repeat(np.arange(len(reps), dtype=np.int64), reps)
        return pa.table(
            {
                "doc_id": pc.cast(b.column("doc_id"), pa.string()).take(
                    pa.array(idx)
                ),
                "pos": pos.flatten(),
            }
        )

    return ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)


def q_corpus_grep_scan(sf_dir: str):
    """Multi-phrase search (search_job.run_search_many) under the
    oracle gate: three phrases of DISTINCT lengths (1, 2, 3 — the
    2-word one self-overlapping) share one decode pass; per (phrase,
    doc) occurrence counts are value-hashed against a UNION ALL of
    per-phrase DuckDB list-lambda oracles over the ORIGINAL text.  A
    rolling-hash collision mis-route, a cross-length mixup, or a lost
    overlap breaks the digest."""
    from ..pipelines.ingest_job import run_ingest
    from ..pipelines.search_job import run_build_index, run_search_many

    base = _job_dir(sf_dir, "grep")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base, exist_ok=True)
    enc = os.path.join(base, "enc")
    run_ingest([f"{sf_dir}/documents.parquet"], enc, target_partition_tokens=200_000)
    run_build_index(enc)
    return run_search_many(enc, ["dup", "batch batch", "stream table hash"])


def _corpus_grep_oracle_sql(phrases: list[str]) -> str:
    parts = []
    for p in phrases:
        words = p.split(" ")
        if len(words) == 1:
            expr = f"len(list_filter(ws, x -> x = '{words[0]}'))"
        else:
            cond = " AND ".join(
                f"ws[i+{j}] = '{w}'" for j, w in enumerate(words)
            )
            expr = f"len(list_filter(range(1, len(ws) + 1), i -> {cond}))"
        parts.append(f"""
  SELECT '{p}' AS phrase, CAST(doc_id AS VARCHAR) AS doc_id,
         CAST({expr} AS BIGINT) AS n_hits
  FROM (SELECT doc_id, string_split(text, ' ') AS ws FROM documents)""")
    u = "\n  UNION ALL\n".join(parts)
    return f"SELECT phrase, doc_id, n_hits FROM (\n{u}\n) WHERE n_hits > 0"


def _phrase_search_oracle_sql(words: list[str]) -> str:
    cond = " AND ".join(
        f"ws[i+{j}] = '{w}'" for j, w in enumerate(words)
    )
    return f"""
SELECT doc_id, n_hits FROM (
  SELECT CAST(doc_id AS VARCHAR) AS doc_id,
         CAST(len(list_filter(range(1, len(ws) + 1), i -> {cond})) AS BIGINT)
             AS n_hits
  FROM (SELECT doc_id, string_split(text, ' ') AS ws FROM documents)
) WHERE n_hits > 0
"""


def q_packed_export_scan(sf_dir: str):
    """Trainer-facing packed export over the ENCODED corpus
    (pipelines/pack_job.py): tokseq -> encode -> decode (streaming) ->
    pack to 256-token rows, order="int" (ascending doc_id — the
    SQL-reproducible mode).  Result is the same exact per-chunk digest
    as pack_sequences, so the oracle covers the WHOLE chain: a codec
    bug, a lost row, or a packing off-by-one all break the value hash."""
    from ..pipelines.encode_job import EncodeConfig, run_encode
    from ..pipelines.pack_job import packed_dataset

    out = _job_dir(sf_dir, "packx")
    shutil.rmtree(out, ignore_errors=True)
    run_encode(
        lambda: tokseq_dataset(sf_dir),
        EncodeConfig(out_dir=out, target_partition_tokens=200_000),
    ).materialize()

    packed = packed_dataset(out, 256, order="int", n_buckets=8)

    def digest(batch: pa.Table) -> pa.Table:
        toks = batch.column("tokens")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
        flat = pc.list_flatten(toks).to_numpy(zero_copy_only=False).astype(np.int64)
        offs = np.concatenate(([0], np.cumsum(lens)))
        pos = np.arange(len(flat), dtype=np.int64) - np.repeat(offs[:-1], lens) + 1
        cum = np.concatenate(([0], np.cumsum(flat)))
        wcum = np.concatenate(([0], np.cumsum(flat * pos)))
        return pa.Table.from_pydict({
            "chunk_id": pc.cast(batch.column("chunk_id"), pa.int64()),
            "n_tok": pa.array(lens),
            "tok_sum": pa.array(cum[offs[1:]] - cum[offs[:-1]]),
            "tok_wsum": pa.array(wcum[offs[1:]] - wcum[offs[:-1]]),
        })

    return packed.map_batches(digest, batch_format="pyarrow", zero_copy_batch=True)


def q_packed_boundaries_scan(sf_dir: str):
    """Packed export WITH document boundaries (pack_job
    boundaries=True): per chunk, the within-chunk offsets where a doc
    starts — the attention-reset positions for packed-sequence
    training.  Digest per chunk = (n_starts, sum of offsets,
    rank-weighted sum) so the oracle pins the offset VALUES and their
    ascending ORDER; chunks with no doc start are filtered (the SQL
    side groups over start positions only)."""
    from ..pipelines.encode_job import EncodeConfig, run_encode
    from ..pipelines.pack_job import packed_dataset

    out = _job_dir(sf_dir, "packb")
    shutil.rmtree(out, ignore_errors=True)
    run_encode(
        lambda: tokseq_dataset(sf_dir),
        EncodeConfig(out_dir=out, target_partition_tokens=200_000),
    ).materialize()

    packed = packed_dataset(out, 256, order="int", n_buckets=8, boundaries=True)

    def digest(batch: pa.Table) -> pa.Table:
        bnd = batch.column("doc_starts")
        if isinstance(bnd, pa.ChunkedArray):
            bnd = bnd.combine_chunks()
        lens = pc.list_value_length(bnd).to_numpy(zero_copy_only=False).astype(np.int64)
        flat = pc.list_flatten(bnd).to_numpy(zero_copy_only=False).astype(np.int64)
        offs = np.concatenate(([0], np.cumsum(lens)))
        rank = np.arange(len(flat), dtype=np.int64) - np.repeat(offs[:-1], lens) + 1
        cum = np.concatenate(([0], np.cumsum(flat)))
        wcum = np.concatenate(([0], np.cumsum(flat * rank)))
        t = pa.Table.from_pydict({
            "chunk_id": pc.cast(batch.column("chunk_id"), pa.int64()),
            "n_starts": pa.array(lens),
            "bnd_sum": pa.array(cum[offs[1:]] - cum[offs[:-1]]),
            "bnd_wsum": pa.array(wcum[offs[1:]] - wcum[offs[:-1]]),
        })
        return t.filter(pc.greater(t.column("n_starts"), 0))

    return packed.map_batches(digest, batch_format="pyarrow", zero_copy_batch=True)


def _packed_digest(packed):
    """Per-chunk (n_tok, sum, position-weighted sum) digest — shared by
    the packed_* oracle queries; pins values AND within-chunk order."""

    def digest(batch: pa.Table) -> pa.Table:
        toks = batch.column("tokens")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
        flat = pc.list_flatten(toks).to_numpy(zero_copy_only=False).astype(np.int64)
        offs = np.concatenate(([0], np.cumsum(lens)))
        pos = np.arange(len(flat), dtype=np.int64) - np.repeat(offs[:-1], lens) + 1
        cum = np.concatenate(([0], np.cumsum(flat)))
        wcum = np.concatenate(([0], np.cumsum(flat * pos)))
        return pa.Table.from_pydict({
            "chunk_id": pc.cast(batch.column("chunk_id"), pa.int64()),
            "n_tok": pa.array(lens),
            "tok_sum": pa.array(cum[offs[1:]] - cum[offs[:-1]]),
            "tok_wsum": pa.array(wcum[offs[1:]] - wcum[offs[:-1]]),
        })

    return packed.map_batches(digest, batch_format="pyarrow", zero_copy_batch=True)


def q_packed_filtered_scan(sf_dir: str):
    """Quality-gated packed export (pack_job ann_filter): the corpus
    encodes, `annotate` lands co-partitioned token_stats side tables,
    and the export keeps only docs with n_distinct >= 24 — the filter
    attaches per partition inside the decode task (zero shuffle, no
    re-encode), drops the score columns, and packs the survivors.  The
    digest covers encode -> annotate -> filter -> pack end to end: a
    wrong annotation value, a mis-attached row, or a filter off-by-one
    changes which docs pack and breaks the value hash."""
    from ..pipelines.annotate_job import run_annotate
    from ..pipelines.encode_job import EncodeConfig, run_encode
    from ..pipelines.pack_job import packed_dataset

    out = _job_dir(sf_dir, "packf")
    shutil.rmtree(out, ignore_errors=True)
    run_encode(
        lambda: tokseq_dataset(sf_dir),
        EncodeConfig(out_dir=out, target_partition_tokens=200_000),
    ).materialize()
    run_annotate(out, "token_stats")
    packed = packed_dataset(
        out, 256, order="int", n_buckets=8,
        ann_filter=("token_stats", "n_distinct", 24, None),
    )
    return _packed_digest(packed)


def q_packed_mixture_scan(sf_dir: str):
    """Domain-mixture packed export (pack_job weights): per-source keep
    rates (src0 35%, src5 60%, src9 dropped, everything else kept) are
    applied at export by the sampling family's deterministic md5
    content-hash threshold — the SQL reproduces the exact same rule, so
    the digest pins which docs each rate keeps, not just how many.
    ``weight_hash="md5"`` is the oracle-parity mode; fnv is the scale
    default (same contract as seeded_sample)."""
    from ..pipelines.encode_job import EncodeConfig, run_encode
    from ..pipelines.pack_job import packed_dataset

    out = _job_dir(sf_dir, "packm")
    shutil.rmtree(out, ignore_errors=True)
    run_encode(
        lambda: tokseq_dataset(sf_dir),
        EncodeConfig(out_dir=out, target_partition_tokens=200_000),
    ).materialize()
    packed = packed_dataset(
        out, 256, order="int", n_buckets=8,
        weights={"src0": 0.35, "src5": 0.6, "src9": 0.0},
        weight_hash="md5",
    )
    return _packed_digest(packed)


def q_packed_curriculum_scan(sf_dir: str):
    """Curriculum-ordered packed export (pack_job order="ann"): docs
    concatenate in ascending annotation order (token_stats.n_distinct,
    ties by doc_id) — easy-first curriculum shards with NO sort stage:
    the key is (score << 32) | doc_id and the usual range-bucketed
    prefix-sum exchange orders it.  The digest pins the WHOLE chain:
    encode -> annotate -> curriculum key -> pack; a wrong score, a
    broken tie-break, or a packing off-by-one lands tokens in the wrong
    chunk and breaks the value hash."""
    from ..pipelines.annotate_job import run_annotate
    from ..pipelines.encode_job import EncodeConfig, run_encode
    from ..pipelines.pack_job import packed_dataset

    out = _job_dir(sf_dir, "packc")
    shutil.rmtree(out, ignore_errors=True)
    run_encode(
        lambda: tokseq_dataset(sf_dir),
        EncodeConfig(out_dir=out, target_partition_tokens=200_000),
    ).materialize()
    run_annotate(out, "token_stats")
    packed = packed_dataset(
        out, 256, order="ann", ann_order=("token_stats", "n_distinct"),
        n_buckets=8,
    )
    return _packed_digest(packed)


def q_packed_curriculum_desc_scan(sf_dir: str):
    """Hard-first curriculum export (pack_job ann_order direction
    "desc"): same chain as packed_curriculum_scan but docs concatenate
    in DESCENDING annotation order (ties still ascending doc_id) — the
    score flips inside its checked [0, 2^31) domain, so the one packing
    exchange is unchanged.  The digest pins the flip arithmetic and the
    preserved tie-break against a SQL window oracle."""
    from ..pipelines.annotate_job import run_annotate
    from ..pipelines.encode_job import EncodeConfig, run_encode
    from ..pipelines.pack_job import packed_dataset

    out = _job_dir(sf_dir, "packcd")
    shutil.rmtree(out, ignore_errors=True)
    run_encode(
        lambda: tokseq_dataset(sf_dir),
        EncodeConfig(out_dir=out, target_partition_tokens=200_000),
    ).materialize()
    run_annotate(out, "token_stats")
    packed = packed_dataset(
        out, 256, order="ann",
        ann_order=("token_stats", "n_distinct", "desc"),
        n_buckets=8,
    )
    return _packed_digest(packed)


def q_corpus_diff_scan(sf_dir: str):
    """Content-level store diff (pipelines/diff_job.py): docs with
    doc_id%3 in {0,1} encode as store A, {1,2} as store B; the diff
    counts distinct token CONTENTS only-in-A (removed), shared
    (common) and only-in-B (added) — identity is the token sequence
    alone, so the SQL side is a full outer join of distinct TEXTS
    (tokenization is bijective: tokenize_roundtrip pins it)."""
    from ..pipelines.diff_job import corpus_diff
    from ..pipelines.encode_job import EncodeConfig, run_encode_files
    from ..sources.tokseq import tokseq_table

    base = _job_dir(sf_dir, "cdiff")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base, exist_ok=True)
    t = tokseq_table(sf_dir)
    ids = pc.cast(t.column("doc_id"), pa.int64()).to_numpy(zero_copy_only=False)
    m = ids % 3
    sh_a = os.path.join(base, "a.parquet")
    sh_b = os.path.join(base, "b.parquet")
    pq.write_table(t.filter(pa.array(m <= 1)), sh_a)
    pq.write_table(t.filter(pa.array(m >= 1)), sh_b)
    a_dir, b_dir = os.path.join(base, "enc_a"), os.path.join(base, "enc_b")
    run_encode_files(
        [sh_a], EncodeConfig(out_dir=a_dir, target_partition_tokens=100_000)
    ).materialize()
    run_encode_files(
        [sh_b], EncodeConfig(out_dir=b_dir, target_partition_tokens=100_000)
    ).materialize()
    return corpus_diff(a_dir, b_dir)


def q_orc_scan(sf_dir: str):
    """R4 conformance: documents -> ORC fixture -> stripe-parallel Ray
    read -> projected columns.  Values oracle-checked against the
    original parquet (lossless conversion)."""
    from ..sources.csvio import CsvOptions
    from ..sources.orcio import read_orc_dataset, write_orc

    base = _job_dir(sf_dir, "orc")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base, exist_ok=True)
    t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "source", "n_chars"])
    t = t.set_column(0, "doc_id", pc.cast(t.column("doc_id"), pa.string()))
    path = os.path.join(base, "documents.orc")
    write_orc(t, path)
    return read_orc_dataset(path, CsvOptions(sanitize=False))


def q_encode_metrics(sf_dir: str):
    from ..pipelines.encode_job import EncodeConfig, run_encode

    out = _job_dir(sf_dir, "metrics")
    shutil.rmtree(out, ignore_errors=True)
    factory = lambda: tokseq_dataset(sf_dir)
    return run_encode(factory, EncodeConfig(out_dir=out, target_partition_tokens=200_000))


# ------------------------------------- training-data curation ops

C4_MIN_WORDS, C4_MAX_WORDS, C4_MIN_STOP = 25, 90, 0.02


def q_c4_quality_filter(sf_dir: str):
    """Composed rule-based document filter (C4 / Gopher style): keep
    docs with C4_MIN_WORDS <= n_words <= C4_MAX_WORDS and
    stop_ratio >= C4_MIN_STOP.  Signals and filter run FUSED in one
    ``map_batches`` pass over the pruned (doc_id, text) read — no
    second scan, no shuffle; the output streams straight to the sink.
    Float parity is exact: both sides divide the same two integers, so
    the threshold compare can't diverge."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def flt(batch: pa.Table) -> pa.Table:
        q = quality_batch(batch)
        nw = q.column("n_words").to_numpy(zero_copy_only=False)
        sr = q.column("stop_ratio").to_numpy(zero_copy_only=False)
        keep = (nw >= C4_MIN_WORDS) & (nw <= C4_MAX_WORDS) & (sr >= C4_MIN_STOP)
        return q.select(["doc_id", "n_words", "stop_ratio"]).filter(pa.array(keep))

    return ds.map_batches(flt, batch_format="pyarrow", zero_copy_batch=True)


SPLIT_TEST_CUT = format(16**6 // 20, "06x")  # 5% test
SPLIT_VAL_CUT = format(2 * 16**6 // 20, "06x")  # next 5% val


def q_train_test_split(sf_dir: str, hash: str = "fnv"):
    """Deterministic train/val/test assignment from a content-hash of
    the doc id vs fixed integer cuts — reproducible across runs,
    cluster sizes and shard orders, and leakage-free under
    re-partitioning (the assignment depends only on the id).
    Shuffle-free single pass.

    ``hash="fnv"`` (scale default, round-4 verdict #4): vectorized
    hash_strings_u64 + two u64 cuts at the same 5%/5% rates, split
    labels gathered from a 3-element dictionary — no per-row Python.
    ``hash="md5"`` is the oracle-parity mode (DuckDB md5 hex prefix)."""
    import ray.data as rd

    from ..util.hashing import hash_strings_u64

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    test_u64 = np.uint64(int(SPLIT_TEST_CUT, 16) << 40)  # 6 hex digits -> top 24 bits
    val_u64 = np.uint64(int(SPLIT_VAL_CUT, 16) << 40)

    def assign(batch: pa.Table) -> pa.Table:
        ids = pc.cast(batch.column("doc_id"), pa.string())
        if hash == "fnv":
            hv = hash_strings_u64(ids)
            code = np.where(hv < test_u64, 0, np.where(hv < val_u64, 1, 2))
            split = pa.DictionaryArray.from_arrays(
                pa.array(code.astype(np.int32)), pa.array(["test", "val", "train"])
            ).cast(pa.string())
            return pa.Table.from_arrays([ids, split], names=["doc_id", "split"])
        sids = ids.to_pylist()
        h = [hashlib.md5(s.encode()).hexdigest()[:6] for s in sids]
        split = [
            "test" if x < SPLIT_TEST_CUT else ("val" if x < SPLIT_VAL_CUT else "train")
            for x in h
        ]
        return pa.Table.from_pydict(
            {"doc_id": pa.array(sids, type=pa.string()), "split": pa.array(split)}
        )

    return ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)


TEMP_ALPHA, TEMP_TOTAL = 0.7, 200


def q_temperature_sample(sf_dir: str, hash: str = "fnv"):
    """Temperature-based source sampling (the multilingual-corpus
    p^alpha rebalance): per-source weight = chars_s^alpha normalized,
    target_s = floor(TOTAL * w_s + 0.5) docs, then a deterministic
    content-hash cut keeps ~target_s docs from each source.  The
    single float step (pow) collapses to an INTEGER target before
    anything touches per-doc data, so the per-doc filter is pure
    integer compare — the same plan at any scale.  Built on
    _per_source_cut_sample (two-pass, O(sources) driver rows);
    ``hash="md5"`` is the SQL-parity registry mode."""
    import ray.data as rd

    def targets_fn(_counts):
        ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["source", "n_chars"])

        def widen(batch: pa.Table) -> pa.Table:
            return pa.Table.from_pydict(
                {
                    "source": batch.column("source"),
                    "chars": pc.cast(batch.column("n_chars"), pa.int64()),
                }
            )

        counts = _sum_groupby(
            ds.map_batches(widen, batch_format="pyarrow"), ["source"], ["chars"]
        ).to_pandas()  # O(sources)
        w = np.power(counts["chars"].to_numpy().astype(np.float64), TEMP_ALPHA)
        target = np.floor(TEMP_TOTAL * w / w.sum() + 0.5).astype(np.int64)
        return {s: int(t) for s, t in zip(counts["source"], target)}

    return _per_source_cut_sample(sf_dir, targets_fn, hash=hash)


def q_dup_span_coverage(sf_dir: str):
    """Span-level duplicate coverage (Lee et al. 2022, "Deduplicating
    Training Data Makes Language Models Better"): per doc, the fraction
    of TOKEN POSITIONS lying inside at least one cross-document-
    duplicated trigram occurrence — the signal behind span-trimming
    dedup (vs dup_trigram_fraction, which counts duplicated trigram
    occurrences, not the union of tokens they cover).

    Shape: stage 1 reuses the dup_trigram df aggregate (per-doc
    distinct trigrams -> tiny groupby, O(distinct trigrams) moves);
    stage 2 broadcasts only the duplicated keys and computes the
    per-doc covered-position UNION with a difference array (+1 at each
    hit start, -1 past its end, one cumsum, reduceat over doc
    boundaries) — O(tokens) per batch, no interval lists, no Python
    loops.  Docs too short for a trigram report coverage 0."""
    import ray

    ds = tokseq_dataset(sf_dir)

    def _tri(batch: pa.Table):
        col = batch.column("tokens")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
        n_tok = batch.column("n_tok").to_numpy(zero_copy_only=False).astype(np.int64)
        if len(flat) < 3:
            return n_tok, np.zeros(0, np.int64), np.zeros(0, np.int64)
        ends = np.repeat(np.cumsum(n_tok), n_tok)
        pos = np.arange(len(flat), dtype=np.int64)
        valid = (pos + 2 < ends)[:-2]
        assert flat.max() < (1 << 21), "trigram packing needs vocab < 2^21"
        key = (flat[:-2] << np.int64(42)) | (flat[1:-1] << np.int64(21)) | flat[2:]
        row = np.repeat(np.arange(len(n_tok), dtype=np.int64), n_tok)[:-2]
        return n_tok, row[valid], key[valid]

    def df_partial(batch: pa.Table) -> pa.Table:
        _, row, key = _tri(batch)
        pair = np.unique(np.stack([row, key], axis=1).view([("", np.int64)] * 2))
        k = pair.view(np.int64).reshape(-1, 2)[:, 1] if len(pair) else np.zeros(0, np.int64)
        uniq, df = np.unique(k, return_counts=True)
        return pa.Table.from_pydict({"tri": pa.array(uniq), "df": pa.array(df.astype(np.int64))})

    dfagg = _sum_groupby(
        ds.map_batches(df_partial, batch_format="pyarrow", zero_copy_batch=True),
        ["tri"], ["df"],
    )
    dup = dfagg.map_batches(
        lambda b: b.filter(pc.greater(b.column("df"), 1)).select(["tri"]),
        batch_format="pyarrow",
    ).to_pandas()  # O(duplicated trigrams); scale path: bloom/semi-join
    dup_keys = ray.put(np.sort(dup["tri"].to_numpy().astype(np.int64)))

    def cover(batch: pa.Table) -> pa.Table:
        keys_s = ray.get(dup_keys)
        n_tok, row, key = _tri(batch)
        total = int(n_tok.sum())
        starts = np.concatenate(([0], np.cumsum(n_tok)))[:-1]
        if len(keys_s) and len(key):
            idx = np.searchsorted(keys_s, key)
            idx[idx == len(keys_s)] = 0
            hit = keys_s[idx] == key
        else:
            hit = np.zeros(len(key), bool)
        # map each (valid-masked) trigram occurrence back to its flat
        # token index: occurrences were emitted in flat order, so the
        # valid mask's set bits ARE their flat positions
        if total >= 3:
            ends = np.repeat(np.cumsum(n_tok), n_tok)
            allpos = np.arange(total, dtype=np.int64)
            flat_idx = np.flatnonzero((allpos + 2 < ends)[:-2])
        else:
            flat_idx = np.zeros(0, np.int64)
        h = flat_idx[hit]
        delta = np.zeros(total + 3, dtype=np.int64)
        np.add.at(delta, h, 1)
        np.add.at(delta, h + 3, -1)
        covered_flat = (np.cumsum(delta)[:total] > 0).astype(np.int64)
        if total:
            cov = np.add.reduceat(covered_flat, np.minimum(starts, total - 1)) * (n_tok > 0)
        else:
            cov = np.zeros(len(n_tok), dtype=np.int64)
        frac = np.where(n_tok > 0, cov / np.maximum(n_tok, 1), 0.0)
        frac = np.floor(frac * 1e6 + 0.5) / 1e6
        return pa.Table.from_pydict(
            {
                "doc_id": pc.cast(batch.column("doc_id"), pa.int64()),
                "n_tok": pa.array(n_tok),
                "n_cov": pa.array(cov),
                "cov_frac": pa.array(frac, type=pa.float64()),
            }
        )

    return tokseq_dataset(sf_dir).map_batches(
        cover, batch_format="pyarrow", zero_copy_batch=True
    )


CHUNK_L, CHUNK_S = 32, 24  # window / stride (overlap = L - S)


def chunk_batch(batch: pa.Table) -> pa.Table:
    """Per-batch sliding-window chunker over a tokseq batch (module
    level so tests can drive it on hand-built tables)."""
    col = batch.column("tokens")
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
    n_tok = batch.column("n_tok").to_numpy(zero_copy_only=False).astype(np.int64)
    n_chunks = np.maximum((n_tok + CHUNK_S - 1) // CHUNK_S, (n_tok > 0).astype(np.int64))
    row = np.repeat(np.arange(len(n_tok), dtype=np.int64), n_chunks)
    # chunk index within its doc: global arange minus each doc's base
    base = np.concatenate(([0], np.cumsum(n_chunks)))[:-1]
    cidx = np.arange(int(n_chunks.sum()), dtype=np.int64) - base[row]
    s = cidx * CHUNK_S
    e = np.minimum(s + CHUNK_L, n_tok[row])
    doc_start = np.concatenate(([0], np.cumsum(n_tok)))[:-1]
    csum = np.concatenate(([0], np.cumsum(flat)))
    tok_sum = csum[doc_start[row] + e] - csum[doc_start[row] + s]
    ids = pc.cast(batch.column("doc_id"), pa.int64()).to_numpy(zero_copy_only=False)
    return pa.Table.from_pydict(
        {
            "doc_id": pa.array(ids[row]),
            "chunk_idx": pa.array(cidx),
            "start": pa.array(s),
            "n_chunk_tok": pa.array(e - s),
            "tok_sum": pa.array(tok_sum),
        }
    )


def q_chunk_documents(sf_dir: str):
    """Sliding-window chunking of token sequences (long-document prep
    for a fixed context window): each doc yields chunks starting at
    0, S, 2S, ... < n_tok, each up to L tokens.  Fully vectorized —
    chunk starts via one repeat+arange, chunk token sums via prefix
    sums over the flat token buffer (no window materialization, no
    Python loops), so cost is O(tokens + chunks) per batch and the op
    never shuffles.  tok_sum makes chunk contents value-hashable
    against the SQL oracle without shipping token lists."""
    return tokseq_dataset(sf_dir).map_batches(
        chunk_batch, batch_format="pyarrow", zero_copy_batch=True
    )


def q_doc_len_gini(sf_dir: str):
    """Per-source Gini coefficient of document lengths — the skew /
    inequality diagnostic behind partition-balance decisions.  Computed
    EXACTLY from the bounded (source, n_chars) histogram: for a value
    v with count c starting at cumulative 1-based rank p, its rank sum
    is c*p + c*(c-1)/2 (ties commute in the Gini rank sum, so the
    histogram form equals the row form), all int64 until one final
    division mirrored verbatim in SQL.  Exchange: O(sources x distinct
    lengths) rows; driver math O(same)."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["source", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["source", "n_chars"]).aggregate([([], "count_all")])
        return pa.Table.from_pydict(
            {
                "source": g.column("source"),
                "n_chars": g.column("n_chars"),
                "cnt": pc.cast(g.column("count_all"), pa.int64()),
            }
        )

    h = _sum_groupby(
        ds.map_batches(partial, batch_format="pyarrow"), ["source", "n_chars"], ["cnt"]
    ).to_pandas()
    out = {"source": [], "gini": []}
    for src, grp in h.groupby("source"):
        grp = grp.sort_values("n_chars")
        v = grp["n_chars"].to_numpy(dtype=np.int64)
        c = grp["cnt"].to_numpy(dtype=np.int64)
        p = np.concatenate(([0], np.cumsum(c)))[:-1] + 1  # 1-based start rank
        s = int((v * (c * p + c * (c - 1) // 2)).sum())
        n, t = int(c.sum()), int((v * c).sum())
        gini = 2.0 * s / (n * t) - (n + 1.0) / n
        out["source"].append(src)
        out["gini"].append(np.floor(gini * 1e6 + 0.5) / 1e6)
    return pa.Table.from_pydict(
        {
            "source": pa.array(out["source"], type=pa.string()),
            "gini": pa.array(out["gini"], type=pa.float64()),
        }
    )


def q_doc_novelty(sf_dir: str):
    """Per-doc novelty: the fraction of a doc's DISTINCT word trigrams
    whose FIRST appearance (by doc_id order) is this doc — the
    data-valuation / contribution metric ("how much genuinely new
    content does this doc add?").  Two exchanges, both O(distinct
    gram-doc pairs): per-batch distinct (gram, doc) pairs -> groupby
    gram marks each pair novel iff its doc IS the group min (a
    self-join expressed as one map_groups, no broadcast) -> groupby
    doc sums.  Nothing O(corpus) moves or lands on the driver."""
    import ray.data as rd

    from .dedup import _word_kgram_hashes

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def pairs(batch: pa.Table) -> pa.Table:
        gh, n_sh = _word_kgram_hashes(batch.column("text").combine_chunks(), 3, seed=9)
        ids = pc.cast(batch.column("doc_id"), pa.int64()).to_numpy(zero_copy_only=False)
        rows = np.repeat(ids, n_sh)
        key = np.unique(
            np.stack([gh.view(np.int64), rows], axis=1).view([("", np.int64)] * 2)
        ).view(np.int64).reshape(-1, 2)
        return pa.Table.from_pydict(
            {"gram": pa.array(key[:, 0]), "doc_id": pa.array(key[:, 1])}
        )

    def mark(group: pa.Table) -> pa.Table:
        docs = group.column("doc_id").to_numpy(zero_copy_only=False)
        novel = (docs == docs.min()).astype(np.int64)
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(docs),
                "novel": pa.array(novel),
                "n": pa.array(np.ones(len(docs), dtype=np.int64)),
            }
        )

    marked = (
        ds.map_batches(pairs, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("gram")
        .map_groups(mark, batch_format="pyarrow")
    )
    agg = _sum_groupby(marked, ["doc_id"], ["novel", "n"])

    def finish(batch: pa.Table) -> pa.Table:
        nv = batch.column("novel").to_numpy(zero_copy_only=False)
        n = batch.column("n").to_numpy(zero_copy_only=False)
        frac = np.floor(nv / n * 1e6 + 0.5) / 1e6
        return pa.Table.from_pydict(
            {
                "doc_id": batch.column("doc_id"),
                "n_tri": pa.array(n),
                "n_novel": pa.array(nv),
                "novelty": pa.array(frac, type=pa.float64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def q_span_trim(sf_dir: str):
    """Span-trimming dedup TRANSFORM (Lee et al. 2022's remediation,
    not just the metric): drop every token position covered by a
    cross-document-duplicated trigram and report what remains per doc
    (count + token sum, making the surviving stream value-hashable
    without shipping lists).  Same df-aggregate + broadcast shape as
    dup_span_coverage; the trim itself is one boolean mask + reduceat
    per batch."""
    import ray

    ds = tokseq_dataset(sf_dir)

    def df_partial(batch: pa.Table) -> pa.Table:
        col = batch.column("tokens")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
        n_tok = batch.column("n_tok").to_numpy(zero_copy_only=False).astype(np.int64)
        if len(flat) < 3:
            return pa.Table.from_pydict(
                {"tri": pa.array([], type=pa.int64()), "df": pa.array([], type=pa.int64())}
            )
        ends = np.repeat(np.cumsum(n_tok), n_tok)
        pos = np.arange(len(flat), dtype=np.int64)
        valid = (pos + 2 < ends)[:-2]
        key = (flat[:-2] << np.int64(42)) | (flat[1:-1] << np.int64(21)) | flat[2:]
        row = np.repeat(np.arange(len(n_tok), dtype=np.int64), n_tok)[:-2]
        pair = np.unique(
            np.stack([row[valid], key[valid]], axis=1).view([("", np.int64)] * 2)
        )
        k = pair.view(np.int64).reshape(-1, 2)[:, 1] if len(pair) else np.zeros(0, np.int64)
        uniq, df = np.unique(k, return_counts=True)
        return pa.Table.from_pydict({"tri": pa.array(uniq), "df": pa.array(df.astype(np.int64))})

    dup = (
        _sum_groupby(
            ds.map_batches(df_partial, batch_format="pyarrow", zero_copy_batch=True),
            ["tri"], ["df"],
        )
        .map_batches(
            lambda b: b.filter(pc.greater(b.column("df"), 1)).select(["tri"]),
            batch_format="pyarrow",
        )
        .to_pandas()
    )
    dup_keys = ray.put(np.sort(dup["tri"].to_numpy().astype(np.int64)))

    def trim(batch: pa.Table) -> pa.Table:
        keys_s = ray.get(dup_keys)
        col = batch.column("tokens")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
        n_tok = batch.column("n_tok").to_numpy(zero_copy_only=False).astype(np.int64)
        total = int(n_tok.sum())
        if total >= 3:
            ends = np.repeat(np.cumsum(n_tok), n_tok)
            pos = np.arange(total, dtype=np.int64)
            valid = (pos + 2 < ends)[:-2]
            key = (flat[:-2] << np.int64(42)) | (flat[1:-1] << np.int64(21)) | flat[2:]
            flat_idx = np.flatnonzero(valid)
            kk = key[valid]
            if len(keys_s) and len(kk):
                idx = np.searchsorted(keys_s, kk)
                idx[idx == len(keys_s)] = 0
                h = flat_idx[keys_s[idx] == kk]
            else:
                h = np.zeros(0, np.int64)
        else:
            h = np.zeros(0, np.int64)
        delta = np.zeros(total + 3, dtype=np.int64)
        np.add.at(delta, h, 1)
        np.add.at(delta, h + 3, -1)
        cov = np.cumsum(delta)[:total] > 0
        keepf = flat * ~cov
        starts = np.concatenate(([0], np.cumsum(n_tok)))[:-1]
        if total:
            sums = np.add.reduceat(keepf, np.minimum(starts, total - 1)) * (n_tok > 0)
            kept = np.add.reduceat((~cov).astype(np.int64), np.minimum(starts, total - 1)) * (
                n_tok > 0
            )
        else:
            sums = np.zeros(len(n_tok), dtype=np.int64)
            kept = np.zeros(len(n_tok), dtype=np.int64)
        return pa.Table.from_pydict(
            {
                "doc_id": pc.cast(batch.column("doc_id"), pa.int64()),
                "n_tok": pa.array(n_tok),
                "n_keep": pa.array(kept),
                "keep_tok_sum": pa.array(sums),
            }
        )

    return tokseq_dataset(sf_dir).map_batches(
        trim, batch_format="pyarrow", zero_copy_batch=True
    )


def q_longest_dup_span(sf_dir: str):
    """Longest cross-document-duplicated span per doc (in tokens) —
    dup_span_coverage's companion: coverage says HOW MUCH of a doc is
    duplicated, this says how CONTIGUOUS the worst span is (the trigger
    for span-trimming instead of whole-doc dropping).  Same two-stage
    shape (distinct-trigram df aggregate, broadcast dup keys); the
    per-doc longest run falls out of the same difference-array cumsum
    with one extra boundary scan — still O(tokens) per batch, zero
    Python loops.  SQL oracle: the classic gaps-and-islands
    (p - row_number() grouping) over covered positions."""
    import ray

    ds = tokseq_dataset(sf_dir)

    def _tri(batch: pa.Table):
        col = batch.column("tokens")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
        n_tok = batch.column("n_tok").to_numpy(zero_copy_only=False).astype(np.int64)
        if len(flat) < 3:
            return n_tok, np.zeros(0, np.int64)
        ends = np.repeat(np.cumsum(n_tok), n_tok)
        pos = np.arange(len(flat), dtype=np.int64)
        valid = (pos + 2 < ends)[:-2]
        assert flat.max() < (1 << 21), "trigram packing needs vocab < 2^21"
        key = (flat[:-2] << np.int64(42)) | (flat[1:-1] << np.int64(21)) | flat[2:]
        return n_tok, key[valid]

    def df_partial(batch: pa.Table) -> pa.Table:
        col = batch.column("tokens")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
        n_tok = batch.column("n_tok").to_numpy(zero_copy_only=False).astype(np.int64)
        if len(flat) < 3:
            return pa.Table.from_pydict(
                {"tri": pa.array([], type=pa.int64()), "df": pa.array([], type=pa.int64())}
            )
        ends = np.repeat(np.cumsum(n_tok), n_tok)
        pos = np.arange(len(flat), dtype=np.int64)
        valid = (pos + 2 < ends)[:-2]
        key = (flat[:-2] << np.int64(42)) | (flat[1:-1] << np.int64(21)) | flat[2:]
        row = np.repeat(np.arange(len(n_tok), dtype=np.int64), n_tok)[:-2]
        pair = np.unique(
            np.stack([row[valid], key[valid]], axis=1).view([("", np.int64)] * 2)
        )
        k = pair.view(np.int64).reshape(-1, 2)[:, 1] if len(pair) else np.zeros(0, np.int64)
        uniq, df = np.unique(k, return_counts=True)
        return pa.Table.from_pydict({"tri": pa.array(uniq), "df": pa.array(df.astype(np.int64))})

    dup = (
        _sum_groupby(
            ds.map_batches(df_partial, batch_format="pyarrow", zero_copy_batch=True),
            ["tri"], ["df"],
        )
        .map_batches(
            lambda b: b.filter(pc.greater(b.column("df"), 1)).select(["tri"]),
            batch_format="pyarrow",
        )
        .to_pandas()
    )
    dup_keys = ray.put(np.sort(dup["tri"].to_numpy().astype(np.int64)))

    def longest(batch: pa.Table) -> pa.Table:
        keys_s = ray.get(dup_keys)
        n_tok, key = _tri(batch)
        total = int(n_tok.sum())
        if len(keys_s) and len(key):
            idx = np.searchsorted(keys_s, key)
            idx[idx == len(keys_s)] = 0
            hit = keys_s[idx] == key
        else:
            hit = np.zeros(len(key), bool)
        if total >= 3:
            ends = np.repeat(np.cumsum(n_tok), n_tok)
            allpos = np.arange(total, dtype=np.int64)
            flat_idx = np.flatnonzero((allpos + 2 < ends)[:-2])
        else:
            flat_idx = np.zeros(0, np.int64)
        h = flat_idx[hit]
        delta = np.zeros(total + 3, dtype=np.int64)
        np.add.at(delta, h, 1)
        np.add.at(delta, h + 3, -1)
        cov = np.cumsum(delta)[:total] > 0
        # covered runs, broken at doc boundaries: every run has exactly
        # one start and one end, so starts/ends pair 1:1 in order
        doc_of = np.repeat(np.arange(len(n_tok), dtype=np.int64), n_tok)
        prev_cov = np.concatenate(([False], cov[:-1]))
        next_cov = np.concatenate((cov[1:], [False]))
        doc_brk = np.concatenate(([True], doc_of[1:] != doc_of[:-1]))
        doc_brk_next = np.concatenate((doc_of[1:] != doc_of[:-1], [True]))
        start = np.flatnonzero(cov & (~prev_cov | doc_brk))
        stop = np.flatnonzero(cov & (~next_cov | doc_brk_next)) + 1
        runlen = stop - start
        best = np.zeros(len(n_tok), dtype=np.int64)
        if len(start):
            np.maximum.at(best, doc_of[start], runlen)
        return pa.Table.from_pydict(
            {
                "doc_id": pc.cast(batch.column("doc_id"), pa.int64()),
                "n_tok": pa.array(n_tok),
                "max_dup_run": pa.array(best),
            }
        )

    return tokseq_dataset(sf_dir).map_batches(
        longest, batch_format="pyarrow", zero_copy_batch=True
    )


def q_value_outliers(sf_dir: str):
    """Robust outlier detection: events whose |value - median| exceeds
    3x the MAD of their event_type — the standard median/MAD filter in
    front of feature pipelines.  Composes the value_mad aggregate (one
    O(types x distinct cents) histogram exchange) with a shuffle-free
    broadcast-threshold filter pass; the comparison is pure int64
    (|cents - med| > 3*mad), so parity with SQL is exact with no float
    anywhere."""
    import ray
    import ray.data as rd

    mad = q_value_mad(sf_dir).to_pandas()  # O(types)
    th = {
        et: (int(m), 3 * int(d))
        for et, m, d in zip(mad["event_type"], mad["med_cents"], mad["mad_cents"])
    }
    ref = ray.put(th)

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "event_type", "value"])

    def flag(batch: pa.Table) -> pa.Table:
        t = ray.get(ref)
        v = batch.column("value").to_numpy(zero_copy_only=False)
        cents = (np.floor(np.abs(v) * 100 + 0.5) * np.sign(v)).astype(np.int64)
        codes, vals = _dict_codes(batch.column("event_type"))
        med = np.array([t[e][0] for e in vals], dtype=np.int64)[codes]
        cut = np.array([t[e][1] for e in vals], dtype=np.int64)[codes]
        dev = np.abs(cents - med)
        keep = dev > cut
        out = batch.select(["event_id", "event_type"]).filter(pa.array(keep))
        return out.append_column("dev_cents", pa.array(dev[keep]))

    return ds.map_batches(flag, batch_format="pyarrow", zero_copy_batch=True)


_MASK_BITS = 63  # source bits per int64 mask shard


def _distinct_sources(sf_dir: str, table: str = "documents") -> list[str]:
    """Distributed distinct over the ``source`` column (round-3 verdict
    #3: never pull the raw O(rows) column to the driver) — one tiny
    Ray Data distinct aggregate, O(sources) result on the driver."""
    import ray.data as rd

    return sorted(
        rd.read_parquet(f"{sf_dir}/{table}.parquet", columns=["source"]).unique("source")
    )


def _gram_source_masks(sf_dir: str, srcs: list[str], seed: int = 9):
    """Distinct word-trigram -> per-shard source-bitmask table.

    Sources are SHARDED 63 per int64 mask (round-3 missing #3: no more
    ``assert <= 63 sources`` — source i owns bit ``i % 63`` of column
    ``mask{i // 63}``).  Pipeline: distinct (gram, shard, bit) rows via
    one groupby (moves O(distinct gram x source pairs)); a pivot +
    groupby-sum folds bits into per-shard masks (sum == OR because the
    first groupby made rows unique), leaving ONE row per gram with
    n_shards int64 mask columns.  Returns (masks Dataset, mask column
    names, {source: (shard, bit)})."""
    import ray.data as rd

    from .dedup import _word_kgram_hashes

    n_shards = (len(srcs) + _MASK_BITS - 1) // _MASK_BITS
    smap = {
        s: (i // _MASK_BITS, np.int64(1) << np.int64(i % _MASK_BITS))
        for i, s in enumerate(srcs)
    }
    mask_cols = [f"mask{s}" for s in range(n_shards)]
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text", "source"])

    def gram_src(batch: pa.Table) -> pa.Table:
        gh, n_sh = _word_kgram_hashes(batch.column("text").combine_chunks(), 3, seed=seed)
        rows = np.repeat(np.arange(len(n_sh), dtype=np.int64), n_sh)
        codes, vals = _dict_codes(batch.column("source"))
        shard = np.array([smap[v][0] for v in vals], dtype=np.int64)[codes][rows]
        bits = np.array([smap[v][1] for v in vals], dtype=np.int64)[codes][rows]
        key = np.unique(
            np.stack([gh.view(np.int64), shard, bits], axis=1).view([("", np.int64)] * 3)
        ).view(np.int64).reshape(-1, 3)
        return pa.Table.from_pydict(
            {
                "gram": pa.array(key[:, 0]),
                "shard": pa.array(key[:, 1]),
                "bit": pa.array(key[:, 2]),
                "one": pa.array(np.ones(len(key), dtype=np.int64)),
            }
        )

    distinct = _sum_groupby(
        ds.map_batches(gram_src, batch_format="pyarrow", zero_copy_batch=True),
        ["gram", "shard", "bit"], ["one"],
    )

    def pivot(b: pa.Table) -> pa.Table:
        shard = b.column("shard").to_numpy(zero_copy_only=False)
        bit = b.column("bit").to_numpy(zero_copy_only=False)
        cols: dict = {"gram": b.column("gram")}
        for s in range(n_shards):
            cols[f"mask{s}"] = pa.array(np.where(shard == s, bit, np.int64(0)))
        return pa.Table.from_pydict(cols)

    masks = _sum_groupby(
        distinct.map_batches(pivot, batch_format="pyarrow"),
        ["gram"], mask_cols,  # sum == OR: each (gram, shard, bit) row is unique
    )
    return masks, mask_cols, smap


def q_source_overlap(sf_dir: str):
    """Cross-source contamination matrix: for every source pair, how
    many DISTINCT word trigrams they share — the between-domain overlap
    diagnostic behind source dedup/weighting decisions.

    Shape: distinct (gram_hash, shard, bit) rows via one groupby (moves
    O(distinct pairs)); a second pass folds each gram's sources into
    sharded 63-bit masks (sum == OR because the first groupby made
    rows unique — works for ANY source count, round-3 missing #3);
    pair counts then come from O(sources^2) vectorized mask tests per
    batch — the exchange after that is O(sources^2) partials.  Nothing
    O(corpus) reaches the driver (source enumeration itself is a
    distributed distinct).  Gram hashes stand in for gram strings (the
    oracle compares true strings, so a collision would surface as a
    mismatch, not hide)."""
    srcs = _distinct_sources(sf_dir)
    masks, mask_cols, smap = _gram_source_masks(sf_dir, srcs)

    def pair_counts(batch: pa.Table) -> pa.Table:
        ms = [
            batch.column(c).to_numpy(zero_copy_only=False).astype(np.int64)
            for c in mask_cols
        ]
        hits = [(ms[smap[s][0]] & smap[s][1]) != 0 for s in srcs]
        s1, s2, cnt = [], [], []
        for i in range(len(srcs)):
            for j in range(i + 1, len(srcs)):
                c = int(np.count_nonzero(hits[i] & hits[j]))
                if c:
                    s1.append(srcs[i]); s2.append(srcs[j]); cnt.append(c)
        return pa.Table.from_pydict(
            {
                "s1": pa.array(s1, type=pa.string()),
                "s2": pa.array(s2, type=pa.string()),
                "shared": pa.array(np.array(cnt, dtype=np.int64)),
            }
        )

    return _sum_groupby(
        masks.map_batches(pair_counts, batch_format="pyarrow"), ["s1", "s2"], ["shared"]
    )


def q_source_jaccard(sf_dir: str):
    """Jaccard-normalized source overlap: |grams(A) ∩ grams(B)| /
    |grams(A) ∪ grams(B)| per source pair — source_overlap's
    scale-free form (comparable across sources of different sizes).
    Same sharded bitmask-fold pipeline (any source count, round-3
    missing #3); per-source distinct-gram totals fall out of the same
    mask pass (one popcount-style test per source), and the union
    denominator is |A| + |B| - shared, all int64 until the one rounded
    division."""
    srcs = _distinct_sources(sf_dir)
    masks, mask_cols, smap = _gram_source_masks(sf_dir, srcs)

    def fold(batch: pa.Table) -> pa.Table:
        ms = [
            batch.column(c).to_numpy(zero_copy_only=False).astype(np.int64)
            for c in mask_cols
        ]
        s1, s2, cnt = [], [], []
        hits = [(ms[smap[s][0]] & smap[s][1]) != 0 for s in srcs]
        for i in range(len(srcs)):
            # per-source distinct-gram total rides as a (s, s) row
            c = int(np.count_nonzero(hits[i]))
            if c:
                s1.append(srcs[i]); s2.append(srcs[i]); cnt.append(c)
            for j in range(i + 1, len(srcs)):
                c = int(np.count_nonzero(hits[i] & hits[j]))
                if c:
                    s1.append(srcs[i]); s2.append(srcs[j]); cnt.append(c)
        return pa.Table.from_pydict(
            {"s1": pa.array(s1, type=pa.string()), "s2": pa.array(s2, type=pa.string()),
             "shared": pa.array(np.array(cnt, dtype=np.int64))}
        )

    agg = _sum_groupby(
        masks.map_batches(fold, batch_format="pyarrow"), ["s1", "s2"], ["shared"]
    ).to_pandas()  # O(sources^2)
    totals = {
        r.s1: int(r.shared) for r in agg.itertuples() if r.s1 == r.s2
    }
    out = {"s1": [], "s2": [], "shared": [], "jaccard": []}
    for r in agg.itertuples():
        if r.s1 == r.s2:
            continue
        union = totals[r.s1] + totals[r.s2] - int(r.shared)
        out["s1"].append(r.s1); out["s2"].append(r.s2)
        out["shared"].append(int(r.shared))
        out["jaccard"].append(float(np.floor(int(r.shared) / union * 1e6 + 0.5) / 1e6))
    return pa.Table.from_pydict(
        {
            "s1": pa.array(out["s1"], type=pa.string()),
            "s2": pa.array(out["s2"], type=pa.string()),
            "shared": pa.array(np.array(out["shared"], dtype=np.int64)),
            "jaccard": pa.array(out["jaccard"], type=pa.float64()),
        }
    )


def q_value_mad(sf_dir: str):
    """Per-type median and median-absolute-deviation of event values —
    the robust-statistics outlier baseline, computed EXACTLY with no
    global sort: one (event_type, cents) histogram pass (groupby moves
    O(types x distinct cents) rows), then BOTH order statistics come
    off that same histogram on the driver (the |x - med| histogram is
    a deterministic transform of it, so the second selection is free).
    Everything stays int64 cents — no float anywhere.  Rank rule =
    percentile_disc: smallest value whose cumulative count reaches
    ceil(n/2)."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "value"])

    def hist(batch: pa.Table) -> pa.Table:
        v = batch.column("value").to_numpy(zero_copy_only=False)
        cents = (np.floor(np.abs(v) * 100 + 0.5) * np.sign(v)).astype(np.int64)
        t = pa.table({"event_type": batch.column("event_type"), "cents": pa.array(cents)})
        g = t.group_by(["event_type", "cents"]).aggregate([([], "count_all")])
        return pa.Table.from_pydict(
            {
                "event_type": g.column("event_type"),
                "cents": g.column("cents"),
                "cnt": pc.cast(g.column("count_all"), pa.int64()),
            }
        )

    h = _sum_groupby(
        ds.map_batches(hist, batch_format="pyarrow", zero_copy_batch=True),
        ["event_type", "cents"], ["cnt"],
    ).to_pandas()  # O(types x distinct cents)

    def select(vals: np.ndarray, cnts: np.ndarray) -> int:
        order = np.argsort(vals)
        v, c = vals[order], cnts[order]
        cum = np.cumsum(c)
        rank = -(-int(cum[-1]) // 2)  # ceil(n/2)
        return int(v[np.searchsorted(cum, rank)])

    out = {"event_type": [], "med_cents": [], "mad_cents": []}
    for et, grp in h.groupby("event_type"):
        vals = grp["cents"].to_numpy(dtype=np.int64)
        cnts = grp["cnt"].to_numpy(dtype=np.int64)
        med = select(vals, cnts)
        out["event_type"].append(et)
        out["med_cents"].append(med)
        out["mad_cents"].append(select(np.abs(vals - med), cnts))
    return pa.Table.from_pydict(
        {
            "event_type": pa.array(out["event_type"], type=pa.string()),
            "med_cents": pa.array(out["med_cents"], type=pa.int64()),
            "mad_cents": pa.array(out["mad_cents"], type=pa.int64()),
        }
    )


def q_token_degree(sf_dir: str):
    """Co-occurrence graph degree: for each token, the number of
    DISTINCT tokens appearing adjacent to it (either side) — the
    node-degree statistic of the bigram graph, used for stopword-ish
    hub detection.  Exact distributed distinct-count per key: per-batch
    distinct undirected neighbor pairs (one np.unique over packed
    int64s), the exchange moves O(distinct pairs), and the final count
    is a groupby over first-seen pairs — no row-scale data moves."""
    ds = tokseq_dataset(sf_dir)

    def pairs(batch: pa.Table) -> pa.Table:
        t = bigram_partial(batch)  # distinct (t1, t2, cnt) within batch
        a = t.column("t1").to_numpy(zero_copy_only=False)
        b = t.column("t2").to_numpy(zero_copy_only=False)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        key = np.unique((lo << np.int64(32)) | hi)
        key = key[(key >> np.int64(32)) != (key & np.int64(0xFFFFFFFF))]  # drop self-loops
        return pa.Table.from_pydict(
            {
                "lo": pa.array(key >> np.int64(32)),
                "hi": pa.array(key & np.int64(0xFFFFFFFF)),
                "one": pa.array(np.ones(len(key), dtype=np.int64)),
            }
        )

    # groupby dedups pairs seen in several batches; sum>=1 each
    uniq = _sum_groupby(
        ds.map_batches(pairs, batch_format="pyarrow", zero_copy_batch=True),
        ["lo", "hi"], ["one"],
    ).to_pandas()  # O(distinct pairs) = O(vocab^2) bound, tiny vs corpus
    both = np.concatenate(
        [uniq["lo"].to_numpy().astype(np.int64), uniq["hi"].to_numpy().astype(np.int64)]
    )
    toks, deg = np.unique(both, return_counts=True)
    return pa.Table.from_pydict(
        {"token": pa.array(toks), "degree": pa.array(deg.astype(np.int64))}
    )


def q_centroid_classify(sf_dir: str):
    """Nearest-centroid classification accuracy per label (the
    prototype-classifier eval behind embedding-quality dashboards):
    centroids come from the tiny O(labels x d) aggregate (the
    label_centroids op, values rounded to 1e-6 on BOTH sides so the
    distance inputs are bit-identical), broadcast once via ``ray.put``;
    each batch computes squared distances against all L centroids
    vectorized and partial-counts (label, n, n_correct) — the final
    groupby moves O(labels x batches) rows.  Ties break to the
    smallest label, matching the SQL row_number order."""
    import ray
    import ray.data as rd

    cent = q_label_centroids(sf_dir).to_pandas()
    labels = np.sort(cent["label"].unique()).astype(np.int64)
    d = int(cent["dim"].max())
    C = np.zeros((len(labels), d))
    lpos = {int(l): i for i, l in enumerate(labels)}
    for lab, dim, c in zip(cent["label"], cent["dim"], cent["c"]):
        C[lpos[int(lab)], int(dim) - 1] = float(c)
    ref = ray.put((labels, C))

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["label", "embedding"])

    def partial(batch: pa.Table) -> pa.Table:
        from .similarity import _emb_matrix

        labs, Cm = ray.get(ref)
        m = _emb_matrix(batch, "embedding")
        true = batch.column("label").to_numpy(zero_copy_only=False).astype(np.int64)
        d2 = np.empty((len(m), len(labs)))
        for j in range(len(labs)):  # L is tiny; each column is one vectorized pass
            diff = m - Cm[j]
            d2[:, j] = (diff * diff).sum(axis=1)
        pred = labs[np.argmin(d2, axis=1)]  # argmin ties -> first = smallest label
        uu, inv = np.unique(true, return_inverse=True)
        n = np.bincount(inv).astype(np.int64)
        nc = np.zeros(len(uu), dtype=np.int64)
        np.add.at(nc, inv, (pred == true).astype(np.int64))
        return pa.Table.from_pydict(
            {"label": pa.array(uu), "n": pa.array(n), "n_correct": pa.array(nc)}
        )

    agg = _sum_groupby(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["label"], ["n", "n_correct"],
    ).to_pandas()  # O(labels)
    acc = agg["n_correct"].to_numpy() / agg["n"].to_numpy()
    acc = np.floor(acc * 1e6 + 0.5) / 1e6
    return pa.Table.from_pydict(
        {
            "label": pa.array(agg["label"].to_numpy().astype(np.int64)),
            "n": pa.array(agg["n"].to_numpy().astype(np.int64)),
            "n_correct": pa.array(agg["n_correct"].to_numpy().astype(np.int64)),
            "acc": pa.array(acc, type=pa.float64()),
        }
    )


def q_embedding_quantize(sf_dir: str):
    """Symmetric int8 quantization of embeddings (ANN-index prep):
    per-vector scale = max|x| / 127, q_i = round-half-away(x_i/scale).
    Shuffle-free, one vectorized matrix pass per batch; reports the
    per-vector scale (rounded) plus integer checksums of the quantized
    codes so the whole code vector is value-hashable without shipping
    lists.  Parity is exact: scale and codes derive from the same
    float64 ops on both sides."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])

    def quant(batch: pa.Table) -> pa.Table:
        from .similarity import _emb_matrix

        m = _emb_matrix(batch, "embedding")  # (n, d) float64
        scale = np.abs(m).max(axis=1) / 127.0
        safe = np.where(scale > 0, scale, 1.0)
        x = m / safe[:, None]
        q = (np.floor(np.abs(x) + 0.5) * np.sign(x)).astype(np.int64)
        return pa.Table.from_pydict(
            {
                "vec_id": pc.cast(batch.column("vec_id"), pa.int64()),
                "scale": pa.array(np.floor(scale * 1e9 + 0.5) / 1e9, type=pa.float64()),
                "q_sum": pa.array(q.sum(axis=1)),
                "q_abs_sum": pa.array(np.abs(q).sum(axis=1)),
                "q_max": pa.array(q.max(axis=1)),
            }
        )

    return ds.map_batches(quant, batch_format="pyarrow", zero_copy_batch=True)


def q_events_zscore(sf_dir: str):
    """Per-group z-score standardization ((v - mean) / stddev_pop per
    event_type) — min-max's sibling and the other standard feature
    scaler.  Moments accumulate as EXACT int64 cent sums (sum, sum of
    squares) in one tiny groupby, so mean/variance are bit-identical
    to SQL's over the same integers; one rounded division per row in
    the shuffle-free second pass."""
    import ray
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "event_type", "value"])

    def widen(batch: pa.Table) -> pa.Table:
        v = batch.column("value").to_numpy(zero_copy_only=False)
        cents = (np.floor(np.abs(v) * 100 + 0.5) * np.sign(v)).astype(np.int64)
        return pa.Table.from_pydict(
            {
                "event_type": batch.column("event_type"),
                "s": pa.array(cents),
                "s2": pa.array(cents * cents),
                "n": pa.array(np.ones(len(v), dtype=np.int64)),
            }
        )

    agg = _sum_groupby(
        ds.map_batches(widen, batch_format="pyarrow", zero_copy_batch=True),
        ["event_type"], ["s", "s2", "n"],
    ).to_pandas()  # O(event types)
    stats = {}
    for et, s, s2, n in zip(agg["event_type"], agg["s"], agg["s2"], agg["n"]):
        mean = float(s) / float(n) / 100.0
        var = (float(s2) / 10000.0 - float(n) * mean * mean) / float(n)
        stats[et] = (mean, np.sqrt(var) if var > 0 else 0.0)
    ref = ray.put(stats)

    def norm(batch: pa.Table) -> pa.Table:
        st = ray.get(ref)
        codes, vals = _dict_codes(batch.column("event_type"))
        v = batch.column("value").to_numpy(zero_copy_only=False)
        cents = (np.floor(np.abs(v) * 100 + 0.5) * np.sign(v)) / 100.0
        mean = np.array([st[e][0] for e in vals])[codes]
        sd = np.array([st[e][1] for e in vals])[codes]
        z = np.where(sd > 0, (cents - mean) / np.where(sd > 0, sd, 1.0), 0.0)
        z = np.copysign(np.floor(np.abs(z) * 1e6 + 0.5), z) / 1e6
        return pa.Table.from_pydict(
            {
                "event_id": pc.cast(batch.column("event_id"), pa.int64()),
                "event_type": batch.column("event_type"),
                "z": pa.array(z, type=pa.float64()),
            }
        )

    return ds.map_batches(norm, batch_format="pyarrow", zero_copy_batch=True)


def q_vocab_growth(sf_dir: str):
    """Vocabulary growth curve (Heaps' law): for every doc that
    introduces at least one new token (in doc_id order), the count of
    tokens it introduces and the cumulative vocabulary size — the
    tokenizer-coverage diagnostic.  Shape: per-batch (token, min doc)
    partials -> one O(vocab)-row groupby -> driver cumsum over at most
    O(vocab) rows (every token has exactly one first doc), so nothing
    O(corpus) ever reaches the driver."""
    import ray.data as rd
    from ray.data.aggregate import Min

    ds = tokseq_dataset(sf_dir)

    def partial(batch: pa.Table) -> pa.Table:
        col = batch.column("tokens")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
        n_tok = batch.column("n_tok").to_numpy(zero_copy_only=False).astype(np.int64)
        ids = pc.cast(batch.column("doc_id"), pa.int64()).to_numpy(zero_copy_only=False)
        assert len(ids) == 0 or ids.max() < (1 << 32), "doc packing needs doc_id < 2^32"
        row_doc = np.repeat(ids, n_tok)
        # per-batch (token, min doc): pack doc into low bits of sort key
        key = (flat << np.int64(32)) | row_doc
        key.sort()
        tok = key >> np.int64(32)
        first = np.concatenate(([True], np.diff(tok) != 0))
        return pa.Table.from_pydict(
            {
                "token": pa.array(tok[first]),
                "first_doc": pa.array((key[first] & np.int64(0xFFFFFFFF))),
            }
        )

    firsts = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("token")
        .aggregate(Min("first_doc", alias_name="first_doc"))
        .to_pandas()
    )  # O(vocab)
    counts = firsts.groupby("first_doc").size().sort_index()
    new = counts.to_numpy().astype(np.int64)
    return pa.Table.from_pydict(
        {
            "doc_id": pa.array(counts.index.to_numpy().astype(np.int64)),
            "new_tokens": pa.array(new),
            "cum_vocab": pa.array(np.cumsum(new)),
        }
    )


TOP_TRI_K = 3


def q_top_trigrams_per_source(sf_dir: str):
    """Per-source top-K trigrams (domain boilerplate mining): the most
    frequent word trigram per source is usually its template text.
    Per-batch (source, packed-tri) partial counts via one structured
    np.unique -> the exchange moves O(sources x distinct trigrams) ->
    per-source final top-K.  Ties break on the packed trigram ids,
    mirrored exactly in the SQL row_number order."""
    ds = tokseq_dataset(sf_dir)

    def partial(batch: pa.Table) -> pa.Table:
        col = batch.column("tokens")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
        n_tok = batch.column("n_tok").to_numpy(zero_copy_only=False).astype(np.int64)
        empty = pa.Table.from_pydict(
            {
                "source": pa.array([], type=pa.string()),
                "tri": pa.array([], type=pa.int64()),
                "cnt": pa.array([], type=pa.int64()),
            }
        )
        if len(flat) < 3:
            return empty
        ends = np.repeat(np.cumsum(n_tok), n_tok)
        pos = np.arange(len(flat), dtype=np.int64)
        valid = (pos + 2 < ends)[:-2]
        assert flat.max() < (1 << 21), "trigram packing needs vocab < 2^21"
        key = (flat[:-2] << np.int64(42)) | (flat[1:-1] << np.int64(21)) | flat[2:]
        srcs = batch.column("source")
        if isinstance(srcs, pa.ChunkedArray):
            srcs = srcs.combine_chunks()
        denc = srcs.dictionary_encode()
        if isinstance(denc, pa.ChunkedArray):
            denc = denc.combine_chunks()
        scode = np.repeat(
            denc.indices.to_numpy(zero_copy_only=False).astype(np.int64), n_tok
        )[:-2][valid]
        stacked = np.stack([scode, key[valid]], axis=1).view([("", np.int64)] * 2)
        uniq, cnt = np.unique(stacked, return_counts=True)
        up = uniq.view(np.int64).reshape(-1, 2)
        labels = np.asarray(denc.dictionary.to_pylist(), dtype=object)
        return pa.Table.from_pydict(
            {
                "source": pa.array(labels[up[:, 0]], type=pa.string()),
                "tri": pa.array(up[:, 1]),
                "cnt": pa.array(cnt.astype(np.int64)),
            }
        )

    agg = _sum_groupby(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["source", "tri"], ["cnt"],
    )

    def topk(group: pa.Table) -> pa.Table:
        triv = group.column("tri").to_numpy(zero_copy_only=False).astype(np.int64)
        cntv = group.column("cnt").to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((triv, -cntv))[:TOP_TRI_K].astype(np.int64)
        tri, cnt = triv[order], cntv[order]
        src = group.column("source")
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        return pa.Table.from_pydict(
            {
                "source": src.take(pa.array(order)),
                "rank": pa.array(np.arange(1, len(order) + 1, dtype=np.int64)),
                "t1": pa.array(tri >> np.int64(42)),
                "t2": pa.array((tri >> np.int64(21)) & np.int64((1 << 21) - 1)),
                "t3": pa.array(tri & np.int64((1 << 21) - 1)),
                "cnt": pa.array(cnt),
            }
        )

    return agg.groupby("source").map_groups(topk, batch_format="pyarrow")


def q_session_stats(sf_dir: str):
    """Per-session aggregates (event count + exact value cents) on top
    of 30-minute-gap sessionization — the session-level fact table a
    product pipeline joins against.  Sessions as in user_sessions, then
    one reduceat for the value sums (int64 cents, so SQL parity is
    exact)."""
    import ray.data as rd

    def sessions(t: pa.Table, starts: np.ndarray) -> pa.Table:
        heads, no, n = _session_heads(t, starts)
        v = t.column("value").to_numpy()
        cents = (np.floor(np.abs(v) * 100 + 0.5) * np.sign(v)).astype(np.int64)
        return pa.table({
            "user_id": t.column("user_id").take(heads), "session_no": no,
            "n_events": n, "value_cents": np.add.reduceat(cents, heads),
        })

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_id", "value"]
    )
    return _segmented(ds, "user_id", ["ts", "event_id"], sessions)


def q_event_transitions(sf_dir: str):
    """Markov transition counts over per-user event sequences (the
    behavioral bigram model): consecutive event-type pairs within each
    user's (ts, event_id)-ordered stream, counted corpus-wide.  The
    pairs are one shift masked at user boundaries (no Python pair
    loops); the final count aggregate moves O(types^2) rows."""
    import ray.data as rd

    def pairs(t: pa.Table, starts: np.ndarray) -> pa.Table:
        codes, labels = _dict_codes(t.column("event_type"))
        valid = np.ones(max(len(codes) - 1, 0), dtype=bool)
        valid[starts[1:] - 1] = False  # no pair across a user change
        key = (codes[:-1] << np.int64(32)) | codes[1:]
        uniq, cnt = np.unique(key[valid], return_counts=True)
        labels = np.asarray(labels, dtype=object)
        return pa.table({
            "t_from": pa.array(labels[uniq >> np.int64(32)], type=pa.string()),
            "t_to": pa.array(labels[uniq & np.int64(0xFFFFFFFF)], type=pa.string()),
            "cnt": cnt.astype(np.int64),
        })

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_id", "event_type"]
    )
    return _sum_groupby(
        _segmented(ds, "user_id", ["ts", "event_id"], pairs), ["t_from", "t_to"], ["cnt"]
    )


def _user_paths_ds(sf_dir: str, max_steps: int | None):
    """Per-user ordered event path (order-sensitive grouped string
    concatenation — the clickstream "path analysis" shape): ALL users'
    paths in a bucket fall out of one ``pc.binary_join`` over a segment
    ListArray — no per-user join loop.

    ``max_steps`` caps each path at its first K events (round-4
    verdict #8: a pathological user would otherwise grow a row O(its
    event count) wide); n_events still reports the true count."""
    import ray.data as rd

    def paths(t: pa.Table, starts: np.ndarray) -> pa.Table:
        n_events = np.diff(np.append(starts, t.num_rows))
        et = t.column("event_type").combine_chunks()
        offsets = np.append(starts, t.num_rows)
        if max_steps is not None:
            # keep only each segment's first K rows (rank-in-segment
            # mask), then re-derive the now-shorter segment offsets
            rank = np.arange(t.num_rows) - np.repeat(starts, n_events)
            et = et.filter(pa.array(rank < max_steps))
            offsets = np.concatenate(([0], np.cumsum(np.minimum(n_events, max_steps))))
        lists = pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()), et)
        return pa.table({
            "user_id": t.column("user_id").take(starts),
            "n_events": n_events, "path": pc.binary_join(lists, "->"),
        })

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_id", "event_type"]
    )
    return _segmented(ds, "user_id", ["ts", "event_id"], paths)


def q_user_paths(sf_dir: str):
    return _user_paths_ds(sf_dir, max_steps=None)


def q_user_paths_capped(sf_dir: str):
    """user_paths with the output width bounded: each path keeps its
    first 8 steps (SQL: list_slice over the ordered list)."""
    return _user_paths_ds(sf_dir, max_steps=8)


def q_interleave_sources(sf_dir: str, hash: str = "fnv"):
    """Deterministic source-interleaved training order (the data-mixing
    stage): docs are rank-ordered WITHIN each source by a content hash
    (reproducible shuffle), then position = rank * n_sources +
    source_index round-robins the sources so a sequential reader sees
    a balanced mix.

    TWO-PASS DISTRIBUTED RANK (round-3 verdict #2 — the old
    groupby(source) put an entire source, the declared skew axis, in
    ONE task): the md5 hex prefix buckets each doc into 256 hash
    buckets; pass 1 aggregates per-(source, bucket) counts (O(sources
    x 256) to the driver, cumsum -> bucket rank offsets); pass 2 groups
    by (source, bucket) — max group ~ hot_source/256, bounded — ranks
    within the bucket by full hex (prefix bucketing makes bucket-order
    + in-bucket-order == global hex order) and adds the offset.
    Position arithmetic is pure int64.  ``hash="fnv"`` (scale default,
    round-4 verdict #4): bucket = top byte of hash_strings_u64, rank
    key = (h, doc_id) — bucket-order + in-bucket order == global (h,
    id) order because the bucket IS the hash's top byte; one kernel
    pass, no hex strings ride the shuffle.  ``hash="md5"`` is the
    oracle-parity registry mode (first-two-hex-chars bucketing,
    full-hex rank — seeded_shuffle's documented pattern)."""
    import hashlib

    import ray
    import ray.data as rd

    from ..util.hashing import hash_strings_u64

    srcs = _distinct_sources(sf_dir)
    sidx = {s: i for i, s in enumerate(srcs)}
    n_src = len(srcs)
    NB = 256  # md5: first two hex chars; fnv: top byte of the u64 hash

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "source"])

    def with_hex(batch: pa.Table) -> pa.Table:
        codes, vals = _dict_codes(batch.column("source"))
        sc = np.array([sidx[v] for v in vals], dtype=np.int64)[codes]
        if hash == "fnv":
            hv = hash_strings_u64(pc.cast(batch.column("doc_id"), pa.string()))
            b = (hv >> np.uint64(56)).astype(np.int64)
            out = batch.append_column("_h64", pa.array(hv.view(np.int64)))
            return out.append_column("_sb", pa.array(sc * NB + b))
        ids = pc.cast(batch.column("doc_id"), pa.string()).to_pylist()
        hx = [hashlib.md5(s.encode()).hexdigest() for s in ids]
        b = np.array([int(h[:2], 16) for h in hx], dtype=np.int64)
        out = batch.append_column("_hex", pa.array(hx, type=pa.string()))
        return out.append_column("_sb", pa.array(sc * NB + b))

    hexed = ds.map_batches(with_hex, batch_format="pyarrow", zero_copy_batch=True)

    def counts(batch: pa.Table) -> pa.Table:
        sb = batch.column("_sb").to_numpy(zero_copy_only=False)
        uniq, cnt = np.unique(sb, return_counts=True)
        return pa.Table.from_pydict({"_sb": pa.array(uniq), "n": pa.array(cnt.astype(np.int64))})

    cnt_t = _sum_groupby(
        hexed.map_batches(counts, batch_format="pyarrow"), ["_sb"], ["n"]
    ).to_pandas()  # O(sources x 256) rows
    cnt_t = cnt_t.sort_values("_sb")
    sb_key = cnt_t["_sb"].to_numpy()
    n_arr = cnt_t["n"].to_numpy()
    # offset of each bucket within its source = cumsum restarted per source
    csum = np.concatenate(([0], np.cumsum(n_arr)[:-1]))
    src_of = sb_key // NB
    first_of_src = np.concatenate(([0], np.flatnonzero(np.diff(src_of)) + 1))
    base = np.repeat(csum[first_of_src], np.diff(np.concatenate((first_of_src, [len(src_of)]))))
    offsets = csum - base
    off_ref = ray.put(dict(zip(sb_key.tolist(), offsets.tolist())))

    def rank_bucket(group: pa.Table) -> pa.Table:
        off = ray.get(off_ref)
        if hash == "fnv":
            # int64 view is order-identical to u64 WITHIN a bucket (the
            # sign bit is part of the constant top byte); id tiebreak
            h64 = group.column("_h64").to_numpy(zero_copy_only=False)
            ids_s = np.asarray(
                pc.cast(group.column("doc_id"), pa.string()).to_pylist(), dtype=object
            )
            order = np.lexsort((ids_s, h64))
            n = len(h64)
        else:
            hx = np.asarray(group.column("_hex").to_pylist(), dtype=object)
            order = np.argsort(hx, kind="stable")
            n = len(hx)
        rn = np.empty(n, dtype=np.int64)
        rn[order] = np.arange(n, dtype=np.int64)
        sb = int(group.column("_sb")[0].as_py())
        rank = rn + off[sb]
        pos = rank * n_src + (sb // NB)
        return pa.Table.from_pydict(
            {
                "doc_id": pc.cast(group.column("doc_id"), pa.string()),
                "source": group.column("source"),
                "pos": pa.array(pos),
            }
        )

    return hexed.groupby("_sb").map_groups(rank_bucket, batch_format="pyarrow")


def q_source_kl(sf_dir: str):
    """Per-source KL divergence of the token distribution vs the whole
    corpus — the domain-shift / source-weighting diagnostic.  One
    distributed groupby over (source, token) partial counts moves
    O(sources x vocab) rows; the divergence fold happens on the driver
    over that small table.  Each ln term is scaled to integer 1e-9
    units BEFORE summing (both sides), so float summation order can
    never flip the rounded result."""
    ds = tokseq_dataset(sf_dir)

    def partial(batch: pa.Table) -> pa.Table:
        col = batch.column("tokens")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
        n_tok = batch.column("n_tok").to_numpy(zero_copy_only=False).astype(np.int64)
        srcs = batch.column("source")
        if isinstance(srcs, pa.ChunkedArray):
            srcs = srcs.combine_chunks()
        denc = srcs.dictionary_encode()
        if isinstance(denc, pa.ChunkedArray):
            denc = denc.combine_chunks()
        sidx = np.repeat(denc.indices.to_numpy(zero_copy_only=False).astype(np.int64), n_tok)
        key = (sidx << np.int64(32)) | flat
        uniq, cnt = np.unique(key, return_counts=True)
        labels = np.asarray(denc.dictionary.to_pylist(), dtype=object)
        return pa.Table.from_pydict(
            {
                "source": pa.array(labels[(uniq >> np.int64(32)).astype(np.int64)], type=pa.string()),
                "token": pa.array(uniq & np.int64(0xFFFFFFFF)),
                "cnt": pa.array(cnt.astype(np.int64)),
            }
        )

    st = _sum_groupby(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["source", "token"], ["cnt"],
    ).to_pandas()  # O(sources x vocab)
    n_s = st.groupby("source")["cnt"].transform("sum").to_numpy().astype(np.float64)
    c_t = st.groupby("token")["cnt"].transform("sum").to_numpy().astype(np.float64)
    nn = float(st["cnt"].sum())
    c = st["cnt"].to_numpy().astype(np.float64)
    term = (c / n_s) * np.log((c * nn) / (n_s * c_t))
    ti = np.copysign(np.floor(np.abs(term) * 1e9 + 0.5), term).astype(np.int64)
    out = st.assign(ti=ti).groupby("source", as_index=False)["ti"].sum()
    kl = out["ti"].to_numpy().astype(np.float64) / 1e9
    kl = np.copysign(np.floor(np.abs(kl) * 1e6 + 0.5), kl) / 1e6
    return pa.Table.from_pydict(
        {
            "source": pa.array(out["source"], type=pa.string()),
            "kl": pa.array(kl, type=pa.float64()),
        }
    )


OOV_TOP_K = 10


def q_oov_rate(sf_dir: str):
    """Per-doc out-of-vocabulary rate against the corpus's top-K most
    frequent tokens (tokenizer-truncation analysis): pass 1 is the
    token histogram (O(vocab) rows move), the driver takes the top K
    by (count desc, token asc) and broadcasts the tiny id set via
    ``ray.put``; pass 2 scores each doc with one sorted ``np.isin`` —
    shuffle-free over the corpus."""
    import ray

    hist = q_token_histogram(sf_dir).to_pandas()  # O(vocab)
    hist = hist.sort_values(["cnt", "token"], ascending=[False, True], ignore_index=True)
    vocab_ref = ray.put(np.sort(hist["token"].to_numpy()[:OOV_TOP_K].astype(np.int64)))

    def score(batch: pa.Table) -> pa.Table:
        iv = ray.get(vocab_ref)
        col = batch.column("tokens")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
        n_tok = batch.column("n_tok").to_numpy(zero_copy_only=False).astype(np.int64)
        row = np.repeat(np.arange(len(n_tok), dtype=np.int64), n_tok)
        oov = ~np.isin(flat, iv, assume_unique=False)
        n_oov = np.zeros(len(n_tok), dtype=np.int64)
        np.add.at(n_oov, row[oov], 1)
        frac = np.where(n_tok > 0, n_oov / np.maximum(n_tok, 1), 0.0)
        frac = np.floor(frac * 1e6 + 0.5) / 1e6
        return pa.Table.from_pydict(
            {
                "doc_id": pc.cast(batch.column("doc_id"), pa.int64()),
                "n_tok": pa.array(n_tok),
                "n_oov": pa.array(n_oov),
                "oov_frac": pa.array(frac, type=pa.float64()),
            }
        )

    return tokseq_dataset(sf_dir).map_batches(
        score, batch_format="pyarrow", zero_copy_batch=True
    )


# ---------------------------------- TPC-H-shaped analytics (round 4)
#
# Classic warehouse pipelines over the orders/lineitem fact tables —
# the reference-style "convert then query" workloads, each composed
# from the engine's own join/aggregate operators with the established
# scale shapes: big x big sides meet in co-partitioned hash_join
# exchanges, dimension sides (supplier/nation/region/part/customer
# details) broadcast ONCE via ray.put, revenue is summed in exact
# 1e-4-dollar int64 units so float compares can't drift, and top-k is
# per-batch partials -> a tiny driver merge.

Q5_REGION = "ASIA"
Q5_DATE_LO, Q5_DATE_HI = "1996-01-01", "1998-01-01"
Q10_DATE_LO, Q10_DATE_HI = "1996-01-01", "1996-07-01"
Q10_TOP = 20
Q14_DATE_LO, Q14_DATE_HI = "1996-01-01", "1997-01-01"
Q18_QTY_C = 250 * 100  # sum(l_quantity) > 250, in exact centi-units


def _rev_e4(batch: pa.Table, mask: np.ndarray | None = None) -> np.ndarray:
    """Exact revenue in 1e-4-dollar int64 units:
    cents(extendedprice) x cents(1 - discount)."""
    price = batch.column("l_extendedprice").to_numpy(zero_copy_only=False)
    disc = batch.column("l_discount").to_numpy(zero_copy_only=False)
    if mask is not None:
        price, disc = price[mask], disc[mask]
    cents = np.floor(price * 100 + 0.5).astype(np.int64)
    dcomp = np.floor((1.0 - disc) * 100 + 0.5).astype(np.int64)
    return cents * dcomp


def q_local_supplier_volume(sf_dir: str):
    """TPC-H Q5 shape: revenue per nation where the ordering customer
    and the supplying supplier sit in the SAME nation, region-filtered,
    over a two-year order window.

    Scale composition: orders (date filter pushed to the read) ⋈
    customer on custkey is big x big -> one co-partitioned hash_join;
    the result ⋈ lineitem on orderkey is the second.  The
    supplier->nation->region side is O(SF x 10k) rows — broadcast once
    via ``ray.put`` and resolved inside map_batches with a sorted
    searchsorted + dense nationkey LUTs, so the same-nation filter and
    the nation-name group cost no third exchange."""
    import ray
    import ray.data as rd

    from .joins import hash_join

    nation = pq.read_table(f"{sf_dir}/nation.parquet")
    region = pq.read_table(f"{sf_dir}/region.parquet")
    region_keys = region.column("r_regionkey").to_numpy()[
        np.asarray(region.column("r_name").to_pylist(), dtype=object) == Q5_REGION
    ]
    nkeys = nation.column("n_nationkey").to_numpy().astype(np.int64)
    max_nk = int(nkeys.max())
    name_lut = np.empty(max_nk + 1, dtype=object)
    name_lut[nkeys] = np.asarray(nation.column("n_name").to_pylist(), dtype=object)
    in_region_lut = np.zeros(max_nk + 1, dtype=bool)
    in_region_lut[nkeys] = np.isin(
        nation.column("n_regionkey").to_numpy(), region_keys
    )
    sup = pq.read_table(f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"])
    skeys = sup.column("s_suppkey").to_numpy().astype(np.int64)
    s_ord = np.argsort(skeys)
    skeys = skeys[s_ord]
    snation = sup.column("s_nationkey").to_numpy().astype(np.int64)[s_ord]
    ref = ray.put((skeys, snation, in_region_lut, name_lut))

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey"],
        filter=(
            (pc.field("o_orderdate") >= pa.scalar(np.datetime64(Q5_DATE_LO, "us")))
            & (pc.field("o_orderdate") < pa.scalar(np.datetime64(Q5_DATE_HI, "us")))
        ),
    )
    cust = rd.read_parquet(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"])
    ord_nat = hash_join(
        orders, cust, left_on="o_custkey", right_on="c_custkey",
        right_cols=["c_nationkey"], n_buckets=16,
    ).map_batches(
        lambda t: pa.Table.from_arrays(
            [t.column("o_orderkey").combine_chunks(),
             t.column("r_c_nationkey").combine_chunks()],
            names=["o_orderkey", "c_nationkey"],
        ),
        batch_format="pyarrow",
    )

    def li_rev(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "l_orderkey": pc.cast(batch.column("l_orderkey"), pa.int64()),
                "l_suppkey": pc.cast(batch.column("l_suppkey"), pa.int64()),
                "rev_e4": pa.array(_rev_e4(batch)),
            }
        )

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    ).map_batches(li_rev, batch_format="pyarrow", zero_copy_batch=True)
    joined = hash_join(
        li, ord_nat, left_on="l_orderkey", right_on="o_orderkey",
        right_cols=["c_nationkey"], n_buckets=32,
    )

    def local_rev(batch: pa.Table) -> pa.Table:
        sk, sn, in_reg, names = ray.get(ref)
        sup_keys = batch.column("l_suppkey").to_numpy(zero_copy_only=False)
        idx = np.searchsorted(sk, sup_keys)
        s_nat = sn[idx]
        c_nat = batch.column("r_c_nationkey").to_numpy(zero_copy_only=False).astype(np.int64)
        m = (s_nat == c_nat) & in_reg[s_nat]
        return pa.Table.from_pydict(
            {
                "n_name": pa.array(names[s_nat[m]], type=pa.string()),
                "rev_e4": pa.array(
                    batch.column("rev_e4").to_numpy(zero_copy_only=False)[m]
                ),
            }
        )

    return _sum_groupby(
        joined.map_batches(local_rev, batch_format="pyarrow", zero_copy_batch=True),
        ["n_name"], ["rev_e4"],
    )


def q_returned_items(sf_dir: str):
    """TPC-H Q10 shape: top-20 customers by revenue lost to returned
    lineitems in a half-year order window, with customer/nation detail.

    Scale composition: the returnflag filter is pushed to the lineitem
    read; lineitem ⋈ orders on orderkey is the one big x big exchange
    (lineitem pre-projected to (orderkey, rev_e4) so only 16 B/row
    cross); revenue then pre-aggregates per custkey (_sum_groupby moves
    O(customers)); customer name/acctbal/nation attach via a broadcast
    searchsorted lookup; the global top-20 is per-batch partial top-k
    -> an O(blocks x 20) driver merge, deterministic on
    (rev desc, custkey asc)."""
    import ray
    import ray.data as rd

    from .joins import hash_join

    cust = pq.read_table(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name", "c_acctbal", "c_nationkey"],
    )
    nation = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"])
    nkeys = nation.column("n_nationkey").to_numpy().astype(np.int64)
    name_lut = np.empty(int(nkeys.max()) + 1, dtype=object)
    name_lut[nkeys] = np.asarray(nation.column("n_name").to_pylist(), dtype=object)
    ckeys = cust.column("c_custkey").to_numpy().astype(np.int64)
    c_ord = np.argsort(ckeys)
    ref = ray.put(
        (
            ckeys[c_ord],
            np.asarray(cust.column("c_name").to_pylist(), dtype=object)[c_ord],
            cust.column("c_acctbal").to_numpy()[c_ord],
            name_lut[cust.column("c_nationkey").to_numpy().astype(np.int64)[c_ord]],
        )
    )

    def li_rev(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "l_orderkey": pc.cast(batch.column("l_orderkey"), pa.int64()),
                "rev_e4": pa.array(_rev_e4(batch)),
            }
        )

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
        filter=(pc.field("l_returnflag") == "R"),
    ).map_batches(li_rev, batch_format="pyarrow", zero_copy_batch=True)
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey"],
        filter=(
            (pc.field("o_orderdate") >= pa.scalar(np.datetime64(Q10_DATE_LO, "us")))
            & (pc.field("o_orderdate") < pa.scalar(np.datetime64(Q10_DATE_HI, "us")))
        ),
    )
    joined = hash_join(
        li, orders, left_on="l_orderkey", right_on="o_orderkey",
        right_cols=["o_custkey"], n_buckets=32,
    ).map_batches(
        lambda t: pa.Table.from_arrays(
            [t.column("r_o_custkey").combine_chunks(), t.column("rev_e4").combine_chunks()],
            names=["c_custkey", "rev_e4"],
        ),
        batch_format="pyarrow",
    )
    per_cust = _sum_groupby(joined, ["c_custkey"], ["rev_e4"])

    def partial_topk(batch: pa.Table) -> pa.Table:
        rv = batch.column("rev_e4").to_numpy(zero_copy_only=False)
        ck = batch.column("c_custkey").to_numpy(zero_copy_only=False)
        order = np.lexsort((ck, -rv))[:Q10_TOP]
        return batch.take(pa.array(order))

    top = (
        per_cust.map_batches(partial_topk, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()  # O(blocks x 20)
        .sort_values(["rev_e4", "c_custkey"], ascending=[False, True])
        .head(Q10_TOP)
        .reset_index(drop=True)
    )
    keys, names, bals, nats = ray.get(ref)
    idx = np.searchsorted(keys, top["c_custkey"].to_numpy().astype(np.int64))
    return pa.Table.from_pydict(
        {
            "c_custkey": pa.array(top["c_custkey"].to_numpy().astype(np.int64)),
            "c_name": pa.array(names[idx], type=pa.string()),
            "n_name": pa.array(nats[idx], type=pa.string()),
            "c_acctbal": pa.array(bals[idx], type=pa.float64()),
            "rev_e4": pa.array(top["rev_e4"].to_numpy().astype(np.int64)),
        }
    )


def q_large_volume_orders(sf_dir: str):
    """TPC-H Q18 shape: orders whose total line quantity exceeds a
    threshold, with customer names.

    Scale composition: lineitem pre-aggregates (orderkey, quantity in
    exact centi-units) per batch then once globally (_sum_groupby —
    the exchange moves O(orders), not O(lineitems)); the surviving
    handful of heavy orders meet orders in a hash_join keyed on
    orderkey (the heavy side is tiny post-filter but the join stays
    co-partitioned — no driver collect); customer names attach via a
    broadcast searchsorted lookup."""
    import ray
    import ray.data as rd

    from .joins import hash_join

    cust = pq.read_table(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"])
    ckeys = cust.column("c_custkey").to_numpy().astype(np.int64)
    c_ord = np.argsort(ckeys)
    ref = ray.put(
        (ckeys[c_ord], np.asarray(cust.column("c_name").to_pylist(), dtype=object)[c_ord])
    )

    def qty_c(batch: pa.Table) -> pa.Table:
        q = batch.column("l_quantity").to_numpy(zero_copy_only=False)
        return pa.Table.from_pydict(
            {
                "o_orderkey": pc.cast(batch.column("l_orderkey"), pa.int64()),
                "sum_qty_c": pa.array(np.floor(q * 100 + 0.5).astype(np.int64)),
            }
        )

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_quantity"]
    ).map_batches(qty_c, batch_format="pyarrow", zero_copy_batch=True)
    heavy = _sum_groupby(li, ["o_orderkey"], ["sum_qty_c"]).filter(
        expr=f"sum_qty_c > {Q18_QTY_C}"
    )
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice", "o_orderdate"],
    )
    joined = hash_join(
        orders, heavy, left_on="o_orderkey", right_on="o_orderkey",
        right_cols=["sum_qty_c"], n_buckets=16,
    )

    def attach_name(batch: pa.Table) -> pa.Table:
        keys, names = ray.get(ref)
        idx = np.searchsorted(keys, batch.column("o_custkey").to_numpy(zero_copy_only=False))
        return pa.Table.from_pydict(
            {
                "c_name": pa.array(names[idx], type=pa.string()),
                "o_custkey": pc.cast(batch.column("o_custkey"), pa.int64()),
                "o_orderkey": pc.cast(batch.column("o_orderkey"), pa.int64()),
                "o_orderdate": batch.column("o_orderdate"),
                "o_totalprice": batch.column("o_totalprice"),
                "sum_qty_c": pc.cast(batch.column("r_sum_qty_c"), pa.int64()),
            }
        )

    return joined.map_batches(attach_name, batch_format="pyarrow", zero_copy_batch=True)


def q_promo_revenue(sf_dir: str):
    """TPC-H Q14 shape: monthly share of revenue from PROMO-type parts
    over a one-year ship window.

    Scale composition: part (O(SF x 200) rows, only partkey + a bool)
    broadcasts once; lineitem streams through one shuffle-free widen
    (month from the timestamp, revenue split promo/total by the LUT)
    into a 12-row _sum_groupby; the share division happens on the
    O(months) driver rows with the identical int64/int64 -> float64
    operation the oracle performs."""
    import ray
    import ray.data as rd

    part = pq.read_table(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"])
    pkeys = part.column("p_partkey").to_numpy().astype(np.int64)
    p_ord = np.argsort(pkeys)
    is_promo = (
        np.asarray(part.column("p_type").to_pylist(), dtype=object) == "PROMO"
    )[p_ord]
    ref = ray.put((pkeys[p_ord], is_promo))

    def widen(batch: pa.Table) -> pa.Table:
        keys, promo = ray.get(ref)
        idx = np.searchsorted(keys, batch.column("l_partkey").to_numpy(zero_copy_only=False))
        rev = _rev_e4(batch)
        month = pc.month(batch.column("l_shipdate"))
        return pa.Table.from_pydict(
            {
                "month": pc.cast(month, pa.int64()),
                "promo_rev_e4": pa.array(np.where(promo[idx], rev, 0)),
                "total_rev_e4": pa.array(rev),
            }
        )

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"],
        filter=(
            (pc.field("l_shipdate") >= pa.scalar(np.datetime64(Q14_DATE_LO, "us")))
            & (pc.field("l_shipdate") < pa.scalar(np.datetime64(Q14_DATE_HI, "us")))
        ),
    )
    agg = _sum_groupby(
        li.map_batches(widen, batch_format="pyarrow", zero_copy_batch=True),
        ["month"], ["promo_rev_e4", "total_rev_e4"],
    )
    t = pa.Table.from_pandas(agg.to_pandas(), preserve_index=False)  # O(months)
    share = t.column("promo_rev_e4").to_numpy().astype(np.float64) / t.column(
        "total_rev_e4"
    ).to_numpy().astype(np.float64)
    return t.append_column("promo_share", pa.array(share, type=pa.float64()))


# --------------------------- TPC-H-shaped analytics (round 5)


def q_cust_order_distribution(sf_dir: str):
    """TPC-H Q13 shape: how many customers placed exactly c orders,
    INCLUDING the zero-order customers a plain join would drop.

    Scale composition: pass 1 is a distributed per-custkey order count
    (one hash exchange, O(customers) rows); pass 2 re-groups those
    counts into the O(max-orders-per-customer) distribution — both
    stay distributed.  The zero bucket needs only TWO SCALARS (total
    customers, customers-with-orders = sum of the distribution), so no
    left join and no customer-table shuffle ever happens."""
    import ray.data as rd

    per_cust = _sum_groupby(
        rd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_custkey"]).map_batches(
            lambda b: pa.Table.from_pydict(
                {
                    "o_custkey": b.column("o_custkey"),
                    "n": pa.array(np.ones(b.num_rows, dtype=np.int64)),
                }
            ),
            batch_format="pyarrow",
        ),
        ["o_custkey"], ["n"],
    )
    dist = _sum_groupby(
        per_cust.map_batches(
            lambda b: pa.Table.from_pydict(
                {
                    "c_count": b.column("n"),
                    "n_custs": pa.array(np.ones(b.num_rows, dtype=np.int64)),
                }
            ),
            batch_format="pyarrow",
        ),
        ["c_count"], ["n_custs"],
    ).to_pandas()  # O(distinct order counts) — tens of rows
    n_customers = int(
        pq.read_metadata(f"{sf_dir}/customer.parquet").num_rows
    )
    zero = n_customers - int(dist["n_custs"].sum())
    if zero > 0:
        dist = pd.concat(
            [dist, pd.DataFrame({"c_count": [0], "n_custs": [zero]})], ignore_index=True
        )
    dist = dist.sort_values("c_count", ignore_index=True)
    return pa.Table.from_pydict(
        {
            "c_count": pa.array(dist["c_count"].astype(np.int64)),
            "n_custs": pa.array(dist["n_custs"].astype(np.int64)),
        }
    )


Q15_LO, Q15_HI = "1996-01-01", "1996-04-01"


def q_top_revenue_supplier(sf_dir: str):
    """TPC-H Q15 shape: the supplier(s) with maximum shipped revenue in
    a 3-month window.

    Scale composition: lineitem streams through a pruned window read
    into one per-suppkey revenue exchange (O(suppliers) rows,
    distributed); the global max is a second TINY aggregate over that
    table; only the argmax row(s) — usually one — reach the driver,
    where the supplier name comes from a pushed-down point read.
    Revenue stays in exact 1e-4-dollar int64 end to end."""
    import ray.data as rd

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"],
        filter=(
            (pc.field("l_shipdate") >= pa.scalar(np.datetime64(Q15_LO, "us")))
            & (pc.field("l_shipdate") < pa.scalar(np.datetime64(Q15_HI, "us")))
        ),
    )

    def widen(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "s_suppkey": pc.cast(batch.column("l_suppkey"), pa.int64()),
                "total_rev_e4": pa.array(_rev_e4(batch)),
            }
        )

    rev = _sum_groupby(
        li.map_batches(widen, batch_format="pyarrow", zero_copy_batch=True),
        ["s_suppkey"], ["total_rev_e4"],
    )
    best = int(rev.max("total_rev_e4"))  # tiny second aggregate
    top = rev.filter(
        expr=f"total_rev_e4 == {best}"
    ).to_pandas()  # O(argmax ties) rows
    sup = pq.read_table(
        f"{sf_dir}/supplier.parquet",
        columns=["s_suppkey", "s_name"],
        filters=[("s_suppkey", "in", [int(k) for k in top["s_suppkey"]])],
    ).to_pandas()
    out = top.merge(sup, on="s_suppkey").sort_values("s_suppkey", ignore_index=True)
    return pa.Table.from_pydict(
        {
            "s_suppkey": pa.array(out["s_suppkey"].astype(np.int64)),
            "s_name": pa.array(out["s_name"], type=pa.string()),
            "total_rev_e4": pa.array(out["total_rev_e4"].astype(np.int64)),
        }
    )


Q17_BRAND = "Brand#23"


def q_small_qty_revenue(sf_dir: str):
    """TPC-H Q17 shape: yearly revenue that would be lost by no longer
    filling small-quantity orders of one brand's parts — the
    correlated-average-subquery workload (l_quantity < 0.2 * per-part
    avg quantity).

    Scale composition: the brand's partkeys (a ~1/25 slice of part)
    broadcast once; pass 1 computes per-part (sum_qty, cnt) partials
    through one small exchange; the resulting O(brand parts) table
    broadcasts back and pass 2 filters with the INTEGER cross-multiply
    5*qty*cnt < sum_qty (exactly the SQL predicate, no float avg), so
    both passes over lineitem are shuffle-free.  One output row."""
    import ray
    import ray.data as rd

    part = pq.read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand"],
        filters=[("p_brand", "=", Q17_BRAND)],
    )
    pkeys = np.sort(part.column("p_partkey").to_numpy().astype(np.int64))
    pref = ray.put(pkeys)

    def li_ds():
        return rd.read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_partkey", "l_quantity", "l_extendedprice"],
        )

    def qty_partial(batch: pa.Table) -> pa.Table:
        keys = ray.get(pref)
        pk = batch.column("l_partkey").to_numpy(zero_copy_only=False).astype(np.int64)
        idx = np.searchsorted(keys, pk)
        m = (idx < len(keys)) & (keys[np.minimum(idx, len(keys) - 1)] == pk)
        qty = batch.column("l_quantity").to_numpy(zero_copy_only=False)[m]
        return pa.Table.from_pydict(
            {
                "p": pa.array(pk[m]),
                "sum_qty": pa.array(np.floor(qty + 0.5).astype(np.int64)),
                "cnt": pa.array(np.ones(int(m.sum()), dtype=np.int64)),
            }
        )

    stats = _sum_groupby(
        li_ds().map_batches(qty_partial, batch_format="pyarrow", zero_copy_batch=True),
        ["p"], ["sum_qty", "cnt"],
    ).to_pandas()  # O(parts of one brand)
    sp = stats.sort_values("p")
    skeys = sp["p"].to_numpy().astype(np.int64)
    ssum = sp["sum_qty"].to_numpy().astype(np.int64)
    scnt = sp["cnt"].to_numpy().astype(np.int64)
    sref = ray.put((skeys, ssum, scnt))

    def rev_partial(batch: pa.Table) -> pa.Table:
        keys, sums, cnts = ray.get(sref)
        pk = batch.column("l_partkey").to_numpy(zero_copy_only=False).astype(np.int64)
        idx = np.searchsorted(keys, pk)
        m = (idx < len(keys)) & (keys[np.minimum(idx, len(keys) - 1)] == pk)
        qty = np.floor(
            batch.column("l_quantity").to_numpy(zero_copy_only=False) + 0.5
        ).astype(np.int64)
        ii = np.minimum(idx, len(keys) - 1)
        small = m & (5 * qty * cnts[ii] < sums[ii])
        price = batch.column("l_extendedprice").to_numpy(zero_copy_only=False)[small]
        tot = int(np.floor(price * 100 + 0.5).astype(np.int64).sum())
        return pa.Table.from_pydict({"one": [1], "total_c": [tot]})

    total = _sum_groupby(
        li_ds().map_batches(rev_partial, batch_format="pyarrow", zero_copy_batch=True),
        ["one"], ["total_c"],
    ).to_pandas()
    tot_c = int(total["total_c"].sum()) if len(total) else 0
    return pa.Table.from_pydict(
        {
            "total_price_c": pa.array([tot_c], type=pa.int64()),
            "avg_yearly_c": pa.array([tot_c / 7.0], type=pa.float64()),
        }
    )


Q19_BRACKETS = (  # (brand, qty_lo, qty_hi, size_lo, size_hi)
    ("Brand#12", 1, 11, 1, 5),
    ("Brand#23", 10, 20, 1, 10),
    ("Brand#34", 20, 30, 1, 15),
)


def q_bracket_revenue(sf_dir: str):
    """TPC-H Q19 shape: revenue under a DISJUNCTION of (brand, quantity
    range, size range) brackets — the multi-predicate join workload.

    Scale composition: part's (partkey -> brand-bracket id, size)
    broadcasts once as sorted arrays; lineitem streams through one
    shuffle-free widen evaluating all three brackets vectorized (the
    OR is a numpy boolean fold), into a one-row sum."""
    import ray
    import ray.data as rd

    part = pq.read_table(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand", "p_size"])
    pkeys = part.column("p_partkey").to_numpy().astype(np.int64)
    order = np.argsort(pkeys)
    pkeys = pkeys[order]
    brands = np.asarray(part.column("p_brand").to_pylist(), dtype=object)[order]
    sizes = part.column("p_size").to_numpy().astype(np.int64)[order]
    bid = np.full(len(pkeys), -1, dtype=np.int64)
    for i, (b, _, _, slo, shi) in enumerate(Q19_BRACKETS):
        bid[(brands == b) & (sizes >= slo) & (sizes <= shi)] = i
    ref = ray.put((pkeys, bid))

    def widen(batch: pa.Table) -> pa.Table:
        keys, bids = ray.get(ref)
        pk = batch.column("l_partkey").to_numpy(zero_copy_only=False).astype(np.int64)
        idx = np.minimum(np.searchsorted(keys, pk), len(keys) - 1)
        hit = keys[idx] == pk
        b = np.where(hit, bids[idx], -1)
        qty = np.floor(
            batch.column("l_quantity").to_numpy(zero_copy_only=False) + 0.5
        ).astype(np.int64)
        keep = np.zeros(len(pk), dtype=bool)
        for i, (_, qlo, qhi, _, _) in enumerate(Q19_BRACKETS):
            keep |= (b == i) & (qty >= qlo) & (qty <= qhi)
        rev = _rev_e4(batch, keep)
        return pa.Table.from_pydict(
            {"one": pa.array([1]), "revenue_e4": pa.array([int(rev.sum())])}
        )

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_quantity", "l_extendedprice", "l_discount"],
    )
    agg = _sum_groupby(
        li.map_batches(widen, batch_format="pyarrow", zero_copy_batch=True),
        ["one"], ["revenue_e4"],
    ).to_pandas()
    return pa.Table.from_pydict(
        {"revenue_e4": pa.array([int(agg["revenue_e4"].sum())], type=pa.int64())}
    )


Q8_TYPE = "PROMO"
Q8_LO, Q8_HI = "1995-01-01", "1997-01-01"


def _nation_luts(sf_dir: str):
    """(nationkey -> name LUT, suppkey-sorted supplier nation names,
    target nation, its region's nationkey set) — the deterministic
    data-derived parameters the Q7/Q8 shapes share (most-supplier
    nation, name tie-break, so the query is non-degenerate at every
    scale and both Ray and SQL derive the identical choice)."""
    nat = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name", "n_regionkey"]
    )
    nkeys = nat.column("n_nationkey").to_numpy().astype(np.int64)
    nname = np.asarray(nat.column("n_name").to_pylist(), dtype=object)
    nregion = nat.column("n_regionkey").to_numpy().astype(np.int64)
    name_lut = np.empty(int(nkeys.max()) + 1, dtype=object)
    name_lut[nkeys] = nname
    sup = pq.read_table(f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"])
    skeys = sup.column("s_suppkey").to_numpy().astype(np.int64)
    s_ord = np.argsort(skeys)
    s_nation = name_lut[sup.column("s_nationkey").to_numpy().astype(np.int64)][s_ord]
    un, uc = np.unique(s_nation.astype(str), return_counts=True)
    target = str(un[np.lexsort((un, -uc))][0])
    tregion = int(nregion[nname == target][0])
    region_nk = set(nkeys[nregion == tregion].tolist())
    return (nkeys, nname), (skeys[s_ord], s_nation), target, region_nk


def q_market_share(sf_dir: str):
    """TPC-H Q8 shape: the target nation's share of PROMO-part revenue
    sold to customers of its own region, by order year.  Target nation
    = most suppliers (name tie-break) — data-derived on both sides.

    Scale composition: part membership and supplier-nation resolve
    through broadcast LUTs inside shuffle-free widens; customer
    streams to a key-only in-region key set feeding ONE semi hash join
    against the date-pruned orders (both sides ship 8-16 B/row), and
    lineitem meets those orders in ONE co-partitioned hash join.  The
    rollup is O(years); the share division happens identically on
    both sides (int64 sums -> float64)."""
    import ray
    import ray.data as rd

    from .joins import hash_join

    (nkeys, nname), (sk, s_nation), target, region_nk = _nation_luts(sf_dir)
    part = pq.read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"],
        filters=[("p_type", "=", Q8_TYPE)],
    )
    pkeys = np.sort(part.column("p_partkey").to_numpy().astype(np.int64))
    pref = ray.put(pkeys)
    sref = ray.put((sk, s_nation))
    nat_region = np.zeros(int(nkeys.max()) + 1, dtype=bool)
    for k in region_nk:
        nat_region[k] = True
    rref = ray.put(nat_region)

    cust = rd.read_parquet(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"])

    def in_region(batch: pa.Table) -> pa.Table:
        reg = ray.get(rref)
        nk = batch.column("c_nationkey").to_numpy(zero_copy_only=False).astype(np.int64)
        keep = reg[np.minimum(nk, len(reg) - 1)] & (nk < len(reg))
        return pa.Table.from_pydict(
            {"c_custkey": pc.cast(batch.column("c_custkey"), pa.int64()).filter(pa.array(keep))}
        )

    region_custs = cust.map_batches(in_region, batch_format="pyarrow", zero_copy_batch=True)
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter=(
            (pc.field("o_orderdate") >= pa.scalar(np.datetime64(Q8_LO, "us")))
            & (pc.field("o_orderdate") < pa.scalar(np.datetime64(Q8_HI, "us")))
        ),
    )

    def widen_year(batch: pa.Table) -> pa.Table:
        micros = pc.cast(batch.column("o_orderdate"), pa.int64()).to_numpy(zero_copy_only=False)
        years = (
            1970 + micros.astype("datetime64[us]").astype("datetime64[Y]").astype(np.int64)
        ).astype(np.int64)
        return pa.Table.from_pydict(
            {
                "o_orderkey": pc.cast(batch.column("o_orderkey"), pa.int64()),
                "o_custkey": pc.cast(batch.column("o_custkey"), pa.int64()),
                "o_year": pa.array(years),
            }
        )

    orders_y = orders.map_batches(widen_year, batch_format="pyarrow", zero_copy_batch=True)
    region_orders = hash_join(
        orders_y, region_custs, left_on="o_custkey", right_on="c_custkey",
        right_cols=["c_custkey"], n_buckets=16, mode="semi",
    )

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )

    def widen_li(batch: pa.Table) -> pa.Table:
        keys = ray.get(pref)
        pk = batch.column("l_partkey").to_numpy(zero_copy_only=False).astype(np.int64)
        idx = np.minimum(np.searchsorted(keys, pk), max(len(keys) - 1, 0))
        keep = keys[idx] == pk if len(keys) else np.zeros(len(pk), dtype=bool)
        sks, snat = ray.get(sref)
        sidx = np.searchsorted(sks, batch.column("l_suppkey").to_numpy(zero_copy_only=False))
        is_t = snat[np.minimum(sidx, len(sks) - 1)] == target
        rev = _rev_e4(batch)
        return pa.Table.from_pydict(
            {
                "l_orderkey": pc.cast(batch.column("l_orderkey"), pa.int64()).filter(pa.array(keep)),
                "target_rev_e4": pa.array(np.where(is_t, rev, 0)[keep]),
                "total_rev_e4": pa.array(rev[keep]),
            }
        )

    li_w = li.map_batches(widen_li, batch_format="pyarrow", zero_copy_batch=True)
    joined = hash_join(
        li_w, region_orders, left_on="l_orderkey", right_on="o_orderkey",
        right_cols=["o_year"], n_buckets=16,
    )

    def pick(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "o_year": pc.cast(batch.column("r_o_year"), pa.int64()),
                "target_rev_e4": batch.column("target_rev_e4"),
                "total_rev_e4": batch.column("total_rev_e4"),
            }
        )

    agg = _sum_groupby(
        joined.map_batches(pick, batch_format="pyarrow", zero_copy_batch=True),
        ["o_year"], ["target_rev_e4", "total_rev_e4"],
    ).to_pandas()  # O(years)
    agg = agg.sort_values("o_year", ignore_index=True)
    share = agg["target_rev_e4"].to_numpy().astype(np.float64) / agg[
        "total_rev_e4"
    ].to_numpy().astype(np.float64)
    return pa.Table.from_pydict(
        {
            "o_year": pa.array(agg["o_year"].astype(np.int64)),
            "target_rev_e4": pa.array(agg["target_rev_e4"].astype(np.int64)),
            "total_rev_e4": pa.array(agg["total_rev_e4"].astype(np.int64)),
            "mkt_share": pa.array(share, type=pa.float64()),
        }
    )


Q9_PATTERN = "red"  # p_name substring (Q9's '%green%' against this vocab)


def q_nation_profit(sf_dir: str):
    """TPC-H Q9 shape (no partsupp in this schema, so profit = revenue):
    revenue from parts whose name contains Q9_PATTERN, by supplier
    nation and order year.

    Scale composition: matching partkeys and supplier nations broadcast
    once; lineitem streams through one widen (part filter + nation +
    exact revenue) into ONE co-partitioned hash join with orders
    (both sides pre-projected to two columns) and an O(nations x
    years) rollup."""
    import ray
    import ray.data as rd

    from .joins import hash_join

    _, (sk, s_nation), _, _ = _nation_luts(sf_dir)
    part = pq.read_table(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_name"])
    m = pc.match_substring(part.column("p_name"), Q9_PATTERN)
    pkeys = np.sort(part.filter(m).column("p_partkey").to_numpy().astype(np.int64))
    pref = ray.put(pkeys)
    sref = ray.put((sk, s_nation))

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )

    def widen(batch: pa.Table) -> pa.Table:
        keys = ray.get(pref)
        pk = batch.column("l_partkey").to_numpy(zero_copy_only=False).astype(np.int64)
        idx = np.minimum(np.searchsorted(keys, pk), max(len(keys) - 1, 0))
        keep = keys[idx] == pk if len(keys) else np.zeros(len(pk), dtype=bool)
        sks, snat = ray.get(sref)
        sidx = np.searchsorted(sks, batch.column("l_suppkey").to_numpy(zero_copy_only=False))
        nation = snat[np.minimum(sidx, len(sks) - 1)]
        rev = _rev_e4(batch)
        return pa.Table.from_pydict(
            {
                "l_orderkey": pc.cast(batch.column("l_orderkey"), pa.int64()).filter(pa.array(keep)),
                "n_name": pa.array(nation[keep], type=pa.string()),
                "profit_e4": pa.array(rev[keep]),
            }
        )

    li_w = li.map_batches(widen, batch_format="pyarrow", zero_copy_batch=True)
    orders = rd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderdate"])

    def oyear(batch: pa.Table) -> pa.Table:
        micros = pc.cast(batch.column("o_orderdate"), pa.int64()).to_numpy(zero_copy_only=False)
        years = (
            1970 + micros.astype("datetime64[us]").astype("datetime64[Y]").astype(np.int64)
        ).astype(np.int64)
        return pa.Table.from_pydict(
            {
                "o_orderkey": pc.cast(batch.column("o_orderkey"), pa.int64()),
                "o_year": pa.array(years),
            }
        )

    orders_y = orders.map_batches(oyear, batch_format="pyarrow", zero_copy_batch=True)
    joined = hash_join(
        li_w, orders_y, left_on="l_orderkey", right_on="o_orderkey",
        right_cols=["o_year"], n_buckets=16,
    )

    def pick(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "n_name": batch.column("n_name"),
                "o_year": pc.cast(batch.column("r_o_year"), pa.int64()),
                "profit_e4": batch.column("profit_e4"),
            }
        )

    return _sum_groupby(
        joined.map_batches(pick, batch_format="pyarrow", zero_copy_batch=True),
        ["n_name", "o_year"], ["profit_e4"],
    )


def q_waiting_supplier(sf_dir: str):
    """TPC-H Q21 shape (suppliers who kept orders waiting), adapted to
    this schema: lineitem has no receipt/commit dates, so "the offending
    lineitem" is ``l_returnflag = 'R'`` — suppliers in the target nation
    whose item was the ONLY returned item on a finished ('F')
    multi-supplier order.  The EXISTS / NOT-EXISTS pair collapses to
    per-order set algebra: n_distinct_suppliers >= 2 and exactly one
    returned supplier.

    Scale shape: lineitem runs through ``_segmented`` keyed on
    orderkey and ordered by suppkey; one kernel dedups the (order,
    supplier) pairs and reduces each order's segment — no per-order
    Python.  The surviving candidates (one row per qualifying order)
    meet the F-orders key set in a key-only semi hash join; supplier
    name/nation resolve through a broadcast LUT and the rollup is
    O(suppliers)."""
    import ray
    import ray.data as rd

    from .joins import hash_join

    _, (sk, s_nation), target, _ = _nation_luts(sf_dir)
    sup = pq.read_table(f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"])
    sk2 = sup.column("s_suppkey").to_numpy().astype(np.int64)
    s_ord = np.argsort(sk2)
    s_names = np.asarray(sup.column("s_name").to_pylist(), dtype=object)[s_ord]
    is_target = s_nation.astype(str) == target  # aligned with sk (suppkey-sorted)
    sref = ray.put((sk, s_names, is_target))

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_suppkey", "l_returnflag"]
    )

    def per_order(t: pa.Table, starts: np.ndarray) -> pa.Table:
        o = t.column("l_orderkey").to_numpy().astype(np.int64)
        s = t.column("l_suppkey").to_numpy().astype(np.int64)
        r = pc.equal(t.column("l_returnflag"), "R").to_numpy().astype(np.int64)
        # dedup (o, s) pairs with max(ret): a pair starts at an order
        # start or a supplier change
        new = np.ones(len(s), dtype=bool)
        new[1:] = s[1:] != s[:-1]
        new[starts] = True
        pstarts = np.flatnonzero(new)
        rmax = np.maximum.reduceat(r, pstarts)
        # per-order segment reduce over the deduped pairs
        ostarts = np.searchsorted(pstarts, starts)
        n_supp = np.diff(np.append(ostarts, len(pstarts)))
        n_ret = np.add.reduceat(rmax, ostarts)
        ret_supp = np.add.reduceat(s[pstarts] * rmax, ostarts)
        keep = (n_ret == 1) & (n_supp >= 2)
        return pa.table({"l_orderkey": o[starts][keep], "ret_supp": ret_supp[keep]})

    cand = _segmented(li, "l_orderkey", ["l_suppkey"], per_order)

    orders_f = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderstatus"],
        filter=(pc.field("o_orderstatus") == "F"),
    ).map_batches(
        lambda b: pa.Table.from_pydict({"o_orderkey": pc.cast(b.column("o_orderkey"), pa.int64())}),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    waiting = hash_join(
        cand, orders_f, left_on="l_orderkey", right_on="o_orderkey",
        right_cols=["o_orderkey"], n_buckets=16, mode="semi",
    )

    def to_name(batch: pa.Table) -> pa.Table:
        sk_, names_, is_t = ray.get(sref)
        sp = batch.column("ret_supp").to_numpy(zero_copy_only=False).astype(np.int64)
        idx = np.minimum(np.searchsorted(sk_, sp), max(len(sk_) - 1, 0))
        keep = (sk_[idx] == sp) & is_t[idx] if len(sk_) else np.zeros(len(sp), dtype=bool)
        return pa.Table.from_pydict(
            {
                "s_name": pa.array(names_[idx][keep], type=pa.string()),
                "numwait": pa.array(np.ones(int(keep.sum()), dtype=np.int64)),
            }
        )

    agg = _sum_groupby(
        waiting.map_batches(to_name, batch_format="pyarrow", zero_copy_batch=True),
        ["s_name"], ["numwait"],
    ).to_pandas()  # O(target-nation suppliers)
    agg = agg.sort_values(["numwait", "s_name"], ascending=[False, True], ignore_index=True)
    agg = agg.head(100)
    return pa.Table.from_pydict(
        {
            "s_name": pa.array(agg["s_name"].tolist(), type=pa.string()),
            "numwait": pa.array(agg["numwait"].to_numpy().astype(np.int64)),
        }
    )


Q16_SIZES = (1, 5, 10, 15, 20, 25, 30, 35)  # Q16's size-set predicate
Q16_EXCL_MOD = 7  # adapted "complaints" supplier exclusion: s_suppkey % 7 == 0


def q_supplier_cnt_by_part(sf_dir: str):
    """TPC-H Q16 shape (no partsupp in this schema, so the
    part<->supplier relationship comes from lineitem): distinct
    supplier count per (p_brand, p_type, p_size) for a size set,
    excluding the most-common brand (data-derived, count-then-name
    tie-break — the '<> Brand#45' predicate) and the "complaints"
    suppliers (adapted: s_suppkey % Q16_EXCL_MOD == 0; lineitem
    carries no comment text).

    Scale shape: the filtered part table compresses to a broadcast
    (partkey -> combo-id) LUT (O(parts) — the small side); lineitem
    streams through one widen that resolves combo-id, drops excluded
    suppliers, and dedups (combo, supplier) per batch via np.unique on
    a packed int64 — the exchange then moves O(combos x suppliers)
    pairs, never raw lineitem.  One groupby(combo) counts the distinct
    survivors per group (O(combos) Python calls, bounded by the combo
    vocabulary, not the data)."""
    import ray
    import ray.data as rd

    part = pq.read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand", "p_type", "p_size"]
    )
    brand_arr = np.asarray(part.column("p_brand").to_pylist(), dtype=object).astype(str)
    un, uc = np.unique(brand_arr, return_counts=True)
    top_brand = str(un[np.lexsort((un, -uc))][0])
    sizes = part.column("p_size").to_numpy().astype(np.int64)
    keep = np.isin(sizes, np.asarray(Q16_SIZES, dtype=np.int64)) & (brand_arr != top_brand)
    pk = part.column("p_partkey").to_numpy().astype(np.int64)[keep]
    types = np.asarray(part.column("p_type").to_pylist(), dtype=object).astype(str)[keep]
    combo_key = np.char.add(
        np.char.add(np.char.add(brand_arr[keep], "|"), types),
        np.char.add("|", sizes[keep].astype(str)),
    )
    combos, gid = np.unique(combo_key, return_inverse=True)
    # combo-id -> (brand, type, size) columns for the final projection
    split = np.char.partition(combos, "|")
    c_brand = split[:, 0]
    rest = np.char.partition(split[:, 2], "|")
    c_type, c_size = rest[:, 0], rest[:, 2].astype(np.int64)
    p_ord = np.argsort(pk)
    lut = ray.put((pk[p_ord], gid[p_ord].astype(np.int64), c_brand, c_type, c_size))

    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_suppkey"])

    def widen(batch: pa.Table) -> pa.Table:
        pks, gids, _, _, _ = ray.get(lut)
        pkb = batch.column("l_partkey").to_numpy(zero_copy_only=False).astype(np.int64)
        sb = batch.column("l_suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
        idx = np.minimum(np.searchsorted(pks, pkb), max(len(pks) - 1, 0))
        m = (pks[idx] == pkb) & (sb % Q16_EXCL_MOD != 0) if len(pks) else np.zeros(len(pkb), bool)
        packed = np.unique((gids[idx[m]] << np.int64(32)) | sb[m])  # per-batch pair dedup
        return pa.Table.from_pydict(
            {"gid": pa.array(packed >> np.int64(32)), "s": pa.array(packed & np.int64(0xFFFFFFFF))}
        )

    pairs = li.map_batches(widen, batch_format="pyarrow", zero_copy_batch=True)

    def count_distinct(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.Table.from_pydict(
                {
                    "p_brand": pa.array([], pa.string()),
                    "p_type": pa.array([], pa.string()),
                    "p_size": pa.array([], pa.int64()),
                    "supplier_cnt": pa.array([], pa.int64()),
                }
            )
        _, _, cb, ct, cs = ray.get(lut)
        g = int(group.column("gid")[0].as_py())
        n = len(np.unique(group.column("s").to_numpy(zero_copy_only=False)))
        return pa.Table.from_pydict(
            {
                "p_brand": pa.array([str(cb[g])], pa.string()),
                "p_type": pa.array([str(ct[g])], pa.string()),
                "p_size": pa.array([int(cs[g])], pa.int64()),
                "supplier_cnt": pa.array([n], pa.int64()),
            }
        )

    return pairs.groupby("gid").map_groups(count_distinct, batch_format="pyarrow")


Q22_BIG_ORDER = 450_000.0  # "big order" price threshold (90th pctile)


def q_idle_customer_balance(sf_dir: str):
    """TPC-H Q22 shape (adapted to this schema: mktsegment plays the
    country-code role, and every synthetic customer has SOME order, so
    the anti side is "never placed a BIG order"): per segment, the
    count and total balance of customers whose balance exceeds the
    global average positive balance and who never placed an order over
    Q22_BIG_ORDER.

    Scale composition: the global average is one tiny scalar aggregate
    (exact cents); "no big order" is a key-only ANTI hash join whose
    right side shrinks at the READ (o_totalprice predicate pushed into
    the parquet scan; only the key column ships through the bucketed
    exchange); the surviving rows fold into an O(segments) groupby.
    All comparisons integer (balance_c * n > sum_c), matching the SQL
    exactly."""
    import ray.data as rd

    from .joins import hash_join

    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_acctbal", "c_mktsegment"]
    )

    def bal_partial(batch: pa.Table) -> pa.Table:
        bal = batch.column("c_acctbal").to_numpy(zero_copy_only=False)
        cents = np.floor(bal * 100 + 0.5).astype(np.int64)
        pos = cents > 0
        return pa.Table.from_pydict(
            {
                "one": pa.array([1]),
                "sum_c": pa.array([int(cents[pos].sum())]),
                "n_pos": pa.array([int(pos.sum())]),
            }
        )

    g = _sum_groupby(
        cust.map_batches(bal_partial, batch_format="pyarrow", zero_copy_batch=True),
        ["one"], ["sum_c", "n_pos"],
    ).to_pandas()
    sum_c, n_pos = int(g["sum_c"].sum()), int(g["n_pos"].sum())

    def rich(batch: pa.Table) -> pa.Table:
        bal = batch.column("c_acctbal").to_numpy(zero_copy_only=False)
        cents = np.floor(bal * 100 + 0.5).astype(np.int64)
        keep = cents * n_pos > sum_c  # bal > avg positive bal, exact
        return pa.Table.from_pydict(
            {
                "c_custkey": pc.cast(batch.column("c_custkey"), pa.int64()).filter(
                    pa.array(keep)
                ),
                "c_mktsegment": batch.column("c_mktsegment").filter(pa.array(keep)),
                "bal_c": pa.array(cents[keep]),
            }
        )

    rich_ds = cust.map_batches(rich, batch_format="pyarrow", zero_copy_batch=True)
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey"],
        filter=pc.field("o_totalprice") > pa.scalar(Q22_BIG_ORDER),
    )
    idle = hash_join(
        rich_ds, orders, left_on="c_custkey", right_on="o_custkey",
        right_cols=["o_custkey"], n_buckets=16, mode="anti",
    )

    def seg_partial(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "c_mktsegment": batch.column("c_mktsegment"),
                "n_custs": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
                "total_bal_c": batch.column("bal_c"),
            }
        )

    return _sum_groupby(
        idle.map_batches(seg_partial, batch_format="pyarrow", zero_copy_batch=True),
        ["c_mktsegment"], ["n_custs", "total_bal_c"],
    )


Q2_SIZES = (5, 10, 15)


def q_min_cost_supplier(sf_dir: str):
    """TPC-H Q2 shape (no partsupp in this schema, so "supply cost" is
    the minimum price a supplier ever quoted for the part in lineitem):
    for parts in the Q2_SIZES size set, the supplier(s) in the target
    REGION (region of the most-supplier nation — the same data-derived
    parameter the Q7/Q8 shapes use) quoting the regional minimum cost,
    ordered by account balance — the correlated-min-subquery workload.

    Scale composition: the part and supplier filters are broadcast
    sorted key arrays (small sides, one ``ray.put``); lineitem streams
    through ONE widen with per-batch partial mins, so the exchange
    moves O(filtered parts x suppliers) rows, never raw lineitem; the
    correlated min-per-part subquery is a second tiny groupby joined
    back by part key through the bucketed hash join (no per-part Python
    calls); only the <=100 output rows reach the driver, where
    dimension names come from pushed-down point reads."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Min

    from .joins import hash_join

    (nkeys, nname), _, _, region_nk = _nation_luts(sf_dir)
    sup = pq.read_table(f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"])
    sk = sup.column("s_suppkey").to_numpy().astype(np.int64)
    snk = sup.column("s_nationkey").to_numpy().astype(np.int64)
    sk_region = np.sort(sk[np.isin(snk, np.fromiter(region_nk, dtype=np.int64))])
    part = pq.read_table(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_size"])
    psize = part.column("p_size").to_numpy().astype(np.int64)
    pk_keep = np.sort(
        part.column("p_partkey").to_numpy().astype(np.int64)[
            np.isin(psize, np.asarray(Q2_SIZES, dtype=np.int64))
        ]
    )
    sides = ray.put((pk_keep, sk_region))

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_extendedprice"],
    )

    def widen(batch: pa.Table) -> pa.Table:
        pks, sks = ray.get(sides)
        pk = batch.column("l_partkey").to_numpy(zero_copy_only=False).astype(np.int64)
        skb = batch.column("l_suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
        m = _in_sorted(pks, pk) & _in_sorted(sks, skb)
        price = batch.column("l_extendedprice").to_numpy(zero_copy_only=False)[m]
        t = pa.table(
            {
                "p_partkey": pk[m],
                "s_suppkey": skb[m],
                "cost_e2": np.floor(price * 100 + 0.5).astype(np.int64),
            }
        )
        g = pa.TableGroupBy(t, ["p_partkey", "s_suppkey"]).aggregate([("cost_e2", "min")])
        return g.rename_columns(["p_partkey", "s_suppkey", "cost_e2"])

    cost = (
        li.map_batches(widen, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["p_partkey", "s_suppkey"])
        .aggregate(Min("cost_e2", alias_name="cost_e2"))
        .materialize()  # O(filtered parts x suppliers) — read once, used twice below
    )
    pmin = cost.groupby("p_partkey").aggregate(Min("cost_e2", alias_name="min_e2"))
    best = hash_join(
        cost, pmin, left_on="p_partkey", right_on="p_partkey",
        right_cols=["min_e2"], n_buckets=16,
    ).filter(expr="cost_e2 == r_min_e2")

    out = best.to_pandas()  # O(qualifying part-supplier pairs)
    if len(out) == 0:
        return pa.Table.from_pydict(
            {
                "s_acctbal": pa.array([], pa.float64()),
                "s_name": pa.array([], pa.string()),
                "n_name": pa.array([], pa.string()),
                "p_partkey": pa.array([], pa.int64()),
                "p_name": pa.array([], pa.string()),
                "cost_e2": pa.array([], pa.int64()),
            }
        )
    sup_t = pq.read_table(
        f"{sf_dir}/supplier.parquet",
        columns=["s_suppkey", "s_name", "s_acctbal", "s_nationkey"],
        filters=[("s_suppkey", "in", [int(x) for x in out["s_suppkey"].unique()])],
    ).to_pandas()
    name_lut = {int(k): str(v) for k, v in zip(nkeys, nname)}
    sup_t["n_name"] = sup_t["s_nationkey"].map(name_lut)
    part_t = pq.read_table(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_name"],
        filters=[("p_partkey", "in", [int(x) for x in out["p_partkey"].unique()])],
    ).to_pandas()
    m = out.merge(sup_t, on="s_suppkey").merge(part_t, on="p_partkey")
    m = m.sort_values(
        ["s_acctbal", "n_name", "s_name", "p_partkey"],
        ascending=[False, True, True, True], ignore_index=True,
    ).head(100)  # total order (s_name unique, one row per part-supp) -> stable limit
    return pa.Table.from_pydict(
        {
            "s_acctbal": pa.array(m["s_acctbal"].astype(np.float64)),
            "s_name": pa.array(m["s_name"], type=pa.string()),
            "n_name": pa.array(m["n_name"], type=pa.string()),
            "p_partkey": pa.array(m["p_partkey"].astype(np.int64)),
            "p_name": pa.array(m["p_name"], type=pa.string()),
            "cost_e2": pa.array(m["cost_e2"].astype(np.int64)),
        }
    )


Q11_MEAN_MULT = 2


def q_important_parts(sf_dir: str):
    """TPC-H Q11 shape (no partsupp: "stock value" is shipped revenue):
    parts whose revenue shipped by the target nation's suppliers exceeds
    Q11_MEAN_MULT x the MEAN per-part value — the scalar-subquery
    threshold workload (HAVING sum > fraction * global sum).  TPC-H's
    literal fraction (0.0001/SF) shrinks with scale; tying the cut to
    the mean keeps a constant expected fraction of parts qualifying at
    every sf, so the query stays non-degenerate from sf0.001 to 100 TB.

    Scale composition: the nation's supplier keys are one broadcast
    sorted array; lineitem folds through a partial-sum widen into an
    O(parts) exchange; the global total and part count are tiny second
    aggregates over the MATERIALIZED O(parts) value table (no lineitem
    re-read); the threshold filter is exact integer math (v * n >
    MULT * total <=> v > (MULT * total) // n) pushed into a streaming
    filter."""
    import ray
    import ray.data as rd

    _, (skeys, s_nation), target, _ = _nation_luts(sf_dir)
    side = ray.put(np.sort(skeys[s_nation.astype(str) == target]))

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )

    def widen(batch: pa.Table) -> pa.Table:
        sks = ray.get(side)
        skb = batch.column("l_suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
        m = _in_sorted(sks, skb)
        pk = batch.column("l_partkey").to_numpy(zero_copy_only=False).astype(np.int64)[m]
        return pa.table({"p_partkey": pk, "value_e4": _rev_e4(batch, m)})

    val = _sum_groupby(
        li.map_batches(widen, batch_format="pyarrow", zero_copy_batch=True),
        ["p_partkey"], ["value_e4"],
    ).materialize()  # O(parts) — read once, scanned twice below
    total = int(val.sum("value_e4") or 0)
    n_parts = int(val.count())
    if n_parts == 0:
        return pa.Table.from_pydict(
            {"p_partkey": pa.array([], pa.int64()), "value_e4": pa.array([], pa.int64())}
        )
    keep = val.filter(expr=f"value_e4 > {(Q11_MEAN_MULT * total) // n_parts}")
    out = keep.to_pandas()  # O(qualifying parts)
    if len(out) == 0:
        return pa.Table.from_pydict(
            {"p_partkey": pa.array([], pa.int64()), "value_e4": pa.array([], pa.int64())}
        )
    out = out.sort_values(["value_e4", "p_partkey"], ascending=[False, True], ignore_index=True)
    return pa.Table.from_pydict(
        {
            "p_partkey": pa.array(out["p_partkey"].astype(np.int64)),
            "value_e4": pa.array(out["value_e4"].astype(np.int64)),
        }
    )


Q20_PREFIX = "large"
Q20_LO, Q20_HI = "1996-01-01", "1997-01-01"
Q20_SHARE_NUM, Q20_SHARE_DEN = 3, 10


def q_excess_suppliers(sf_dir: str):
    """TPC-H Q20 shape (no partsupp: "excess stock" is shipped share):
    target-nation suppliers who shipped more than Q20_SHARE_NUM /
    Q20_SHARE_DEN of some Q20_PREFIX-named part's total quantity inside
    the date window — the nested-aggregate EXISTS workload.

    Scale composition: the part-name prefix prunes to a broadcast
    sorted key array; the windowed lineitem read (predicate pushed into
    the scan) folds through a partial-sum widen into an O(parts x
    suppliers) pair exchange; per-part totals are a second tiny groupby
    joined back through the bucketed hash join; qualification is exact
    integer math and the distinct supplier set (O(suppliers)) is the
    only thing the driver ever holds."""
    import ray
    import ray.data as rd

    from .joins import hash_join

    _, (skeys, s_nation), target, _ = _nation_luts(sf_dir)
    sk_nation = np.sort(skeys[s_nation.astype(str) == target])
    part = pq.read_table(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_name"])
    names = np.asarray(part.column("p_name").to_pylist(), dtype=object).astype(str)
    pk_keep = np.sort(
        part.column("p_partkey").to_numpy().astype(np.int64)[
            np.char.startswith(names, Q20_PREFIX)
        ]
    )
    sides = ray.put((pk_keep, sk_nation))

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_quantity"],
        filter=(
            (pc.field("l_shipdate") >= pa.scalar(np.datetime64(Q20_LO, "us")))
            & (pc.field("l_shipdate") < pa.scalar(np.datetime64(Q20_HI, "us")))
        ),
    )

    def widen(batch: pa.Table) -> pa.Table:
        pks, _ = ray.get(sides)
        pk = batch.column("l_partkey").to_numpy(zero_copy_only=False).astype(np.int64)
        m = _in_sorted(pks, pk)
        qty = batch.column("l_quantity").to_numpy(zero_copy_only=False)[m]
        return pa.table(
            {
                "p_partkey": pk[m],
                "s_suppkey": batch.column("l_suppkey")
                .to_numpy(zero_copy_only=False)
                .astype(np.int64)[m],
                "qty_c": np.floor(qty * 100 + 0.5).astype(np.int64),
            }
        )

    pairs = _sum_groupby(
        li.map_batches(widen, batch_format="pyarrow", zero_copy_batch=True),
        ["p_partkey", "s_suppkey"], ["qty_c"],
    ).materialize()  # O(filtered parts x suppliers) — feeds totals AND the probe
    tot = _sum_groupby(pairs, ["p_partkey"], ["qty_c"]).map_batches(
        lambda b: b.rename_columns(["p_partkey", "tot_c"]),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    joined = hash_join(
        pairs, tot, left_on="p_partkey", right_on="p_partkey",
        right_cols=["tot_c"], n_buckets=16,
    )

    def qualify(batch: pa.Table) -> pa.Table:
        _, sks = ray.get(sides)
        q = batch.column("qty_c").to_numpy(zero_copy_only=False)
        t = batch.column("r_tot_c").to_numpy(zero_copy_only=False)
        skb = batch.column("s_suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
        m = (q * Q20_SHARE_DEN > t * Q20_SHARE_NUM) & _in_sorted(sks, skb)
        return pa.table({"s_suppkey": np.unique(skb[m])})

    hit = joined.map_batches(qualify, batch_format="pyarrow", zero_copy_batch=True)
    ids = np.unique(hit.to_pandas()["s_suppkey"].to_numpy())  # O(suppliers)
    if len(ids) == 0:
        return pa.Table.from_pydict(
            {"s_suppkey": pa.array([], pa.int64()), "s_name": pa.array([], pa.string())}
        )
    sup_t = pq.read_table(
        f"{sf_dir}/supplier.parquet",
        columns=["s_suppkey", "s_name"],
        filters=[("s_suppkey", "in", [int(x) for x in ids])],
    ).to_pandas().sort_values("s_suppkey", ignore_index=True)
    return pa.Table.from_pydict(
        {
            "s_suppkey": pa.array(sup_t["s_suppkey"].astype(np.int64)),
            "s_name": pa.array(sup_t["s_name"], type=pa.string()),
        }
    )


def q_user_cumulative_value(sf_dir: str):
    """Per-user running total of event value (exact cents), ordered by
    (ts, event_id) — the window-function workload (SUM OVER PARTITION
    BY ... ORDER BY ...): the running sums for all users in a bucket
    fall out of a single cumsum rebased at segment starts — no per-user
    loop."""
    import ray.data as rd

    def running(t: pa.Table, starts: np.ndarray) -> pa.Table:
        cents = np.floor(t.column("value").to_numpy() * 100 + 0.5).astype(np.int64)
        cum = np.cumsum(cents)
        base = (cum[starts] - cents[starts])[_segment_ids(starts, len(cum))]
        return pa.table({
            "event_id": t.column("event_id"), "user_id": t.column("user_id"),
            "cum_value_c": cum - base,
        })

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "value"]
    )
    return _segmented(ds, "user_id", ["ts", "event_id"], running)


def q_embedding_dedup_vecs(sf_dir: str):
    """Embedding-cosine near-duplicate REMOVAL: vectors surviving after
    dropping every non-representative member of each cosine>=T
    component (representative = lexicographic-min id, matching
    connected_components' string contract).

    Composition: the existing all-pairs cosine stage emits pairs, the
    size-adaptive connected_components resolves clusters, and losers
    leave through the same broadcast/anti-join survivor filter the
    text dedups use — the driver never holds pairs or dropped ids.
    Oracle: recursive-CTE reachability over the identical pair
    predicate, min-root over VARCHAR ids."""
    import ray.data as rd

    from .dedup import _apply_dropped, dropped_ids_ds

    pairs = q_embedding_dup_pairs(sf_dir)
    dropped = dropped_ids_ds(pairs)
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "label"])
    surv = _apply_dropped(ds, dropped, id_col="vec_id", apply="auto")
    return surv.map_batches(
        lambda t: pa.Table.from_pydict(
            {
                "vec_id": pc.cast(t.column("vec_id"), pa.int64()),
                "label": pc.cast(t.column("label"), pa.int32()),
            }
        ),
        batch_format="pyarrow",
    )


# ------------------------------- curation transforms (round 4, cont.)


def q_normalize_text(sf_dir: str):
    """Unicode/whitespace text canonicalization — the first stage of
    every web-scraped curation pipeline: lowercase -> NFC normalize ->
    collapse space runs -> trim.  All four are Arrow compute kernels
    over the zero-copy batch (no Python per row); shuffle-free.
    Oracle applies the identical composition in DuckDB
    (lower -> nfc_normalize -> regexp_replace -> trim)."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def norm(batch: pa.Table) -> pa.Table:
        t = batch.column("text")
        if isinstance(t, pa.ChunkedArray):
            t = t.combine_chunks()
        t = pc.utf8_lower(t)
        t = pc.utf8_normalize(t, form="NFC")
        t = pc.replace_substring_regex(t, pattern=" +", replacement=" ")
        t = pc.utf8_trim_whitespace(t)
        return pa.Table.from_pydict(
            {"doc_id": pc.cast(batch.column("doc_id"), pa.int64()), "norm_text": t}
        )

    return ds.map_batches(norm, batch_format="pyarrow", zero_copy_batch=True)


def q_value_winsorized(sf_dir: str):
    """Winsorized event values: clip to the per-type [p5, p95] order
    statistics, computed EXACTLY from one (event_type, cents) histogram
    pass (same shape as value_mad — the exchange moves O(types x
    distinct cents)).  Rank rule is pure integer arithmetic on BOTH
    sides — lo rank = ceil(n/20) = (n+19)//20, hi = (19n+19)//20 — so
    no float percentile interpolation can drift.  The clip pass is a
    second shuffle-free stream with the O(types) bounds broadcast."""
    import ray
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "event_type", "value"]
    )

    def hist(batch: pa.Table) -> pa.Table:
        v = batch.column("value").to_numpy(zero_copy_only=False)
        cents = np.floor(v * 100 + 0.5).astype(np.int64)
        t = pa.table({"event_type": batch.column("event_type"), "cents": pa.array(cents)})
        g = t.group_by(["event_type", "cents"]).aggregate([([], "count_all")])
        return pa.Table.from_pydict(
            {
                "event_type": g.column("event_type"),
                "cents": g.column("cents"),
                "cnt": pc.cast(g.column("count_all"), pa.int64()),
            }
        )

    h = _sum_groupby(
        ds.map_batches(hist, batch_format="pyarrow", zero_copy_batch=True),
        ["event_type", "cents"], ["cnt"],
    ).to_pandas()  # O(types x distinct cents)

    bounds: dict = {}
    for et, grp in h.groupby("event_type"):
        order = np.argsort(grp["cents"].to_numpy(dtype=np.int64))
        vals = grp["cents"].to_numpy(dtype=np.int64)[order]
        cum = np.cumsum(grp["cnt"].to_numpy(dtype=np.int64)[order])
        n = int(cum[-1])
        lo = int(vals[np.searchsorted(cum, (n + 19) // 20)])
        hi = int(vals[np.searchsorted(cum, (19 * n + 19) // 20)])
        bounds[et] = (lo, hi)
    ref = ray.put(bounds)

    def clip(batch: pa.Table) -> pa.Table:
        b = ray.get(ref)
        codes, labels = _dict_codes(batch.column("event_type"))
        lo_lut = np.asarray([b[x][0] for x in labels], dtype=np.int64)
        hi_lut = np.asarray([b[x][1] for x in labels], dtype=np.int64)
        v = batch.column("value").to_numpy(zero_copy_only=False)
        cents = np.floor(v * 100 + 0.5).astype(np.int64)
        w = np.clip(cents, lo_lut[codes], hi_lut[codes])
        return pa.Table.from_pydict(
            {
                "event_id": pc.cast(batch.column("event_id"), pa.int64()),
                "event_type": batch.column("event_type"),
                "w_cents": pa.array(w),
            }
        )

    return ds.map_batches(clip, batch_format="pyarrow", zero_copy_batch=True)


def _source_tri_counts(sf_dir: str):
    """Exact global (source, packed-trigram) counts: per-batch
    structured-np.unique partials -> one exchange of O(distinct
    trigram) rows (the top_trigrams_per_source int64 packing — no
    hashing, distinctness is exact).  Shared by the diversity and
    entropy rollups."""
    ds = tokseq_dataset(sf_dir)

    def partial(batch: pa.Table) -> pa.Table:
        col = batch.column("tokens")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
        n_tok = batch.column("n_tok").to_numpy(zero_copy_only=False).astype(np.int64)
        empty = pa.Table.from_pydict(
            {
                "source": pa.array([], type=pa.string()),
                "tri": pa.array([], type=pa.int64()),
                "cnt": pa.array([], type=pa.int64()),
            }
        )
        if len(flat) < 3:
            return empty
        ends = np.repeat(np.cumsum(n_tok), n_tok)
        pos = np.arange(len(flat), dtype=np.int64)
        valid = (pos + 2 < ends)[:-2]
        assert flat.max() < (1 << 21), "trigram packing needs vocab < 2^21"
        key = (flat[:-2] << np.int64(42)) | (flat[1:-1] << np.int64(21)) | flat[2:]
        srcs = batch.column("source")
        if isinstance(srcs, pa.ChunkedArray):
            srcs = srcs.combine_chunks()
        denc = srcs.dictionary_encode()
        if isinstance(denc, pa.ChunkedArray):
            denc = denc.combine_chunks()
        scode = np.repeat(
            denc.indices.to_numpy(zero_copy_only=False).astype(np.int64), n_tok
        )[:-2][valid]
        stacked = np.stack([scode, key[valid]], axis=1).view([("", np.int64)] * 2)
        uniq, cnt = np.unique(stacked, return_counts=True)
        up = uniq.view(np.int64).reshape(-1, 2)
        labels = np.asarray(denc.dictionary.to_pylist(), dtype=object)
        return pa.Table.from_pydict(
            {
                "source": pa.array(labels[up[:, 0]], type=pa.string()),
                "tri": pa.array(up[:, 1]),
                "cnt": pa.array(cnt.astype(np.int64)),
            }
        )

    return _sum_groupby(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["source", "tri"], ["cnt"],
    )


def q_source_distinct_trigram_ratio(sf_dir: str):
    """Per-source lexical diversity: distinct-trigram / total-trigram
    ratio (the distinct-n diversity metric; low = templated/boilerplate
    source).  Global counts via _source_tri_counts (exchange moves
    O(distinct)); the O(sources) rollup and ratio division are the
    identical int64/int64 -> float64 op in the oracle."""
    per_tri = _source_tri_counts(sf_dir)

    def rollup(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "source": batch.column("source"),
                "n_distinct": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
                "n_total": pc.cast(batch.column("cnt"), pa.int64()),
            }
        )

    agg = _sum_groupby(
        per_tri.map_batches(rollup, batch_format="pyarrow"),
        ["source"], ["n_distinct", "n_total"],
    )
    t = pa.Table.from_pandas(agg.to_pandas(), preserve_index=False)  # O(sources)
    ratio = t.column("n_distinct").to_numpy().astype(np.float64) / t.column(
        "n_total"
    ).to_numpy().astype(np.float64)
    return t.append_column("ratio", pa.array(ratio, type=pa.float64()))


def q_vocab_rank_map(sf_dir: str):
    """Frequency-ranked vocabulary remap table (token id -> rank by
    global count): the id-compaction step before frequency-aware codecs
    (rank 0 = most frequent -> smallest varint / FOR codes).  Pass 1 is
    the token histogram (O(vocab) moves); the rank assignment sorts the
    O(vocab) rows once on the driver — the corpus itself never
    reshuffles.  Deterministic ties on (cnt desc, token asc)."""
    hist = q_token_histogram(sf_dir).to_pandas()  # O(vocab)
    hist = hist.sort_values(["cnt", "token"], ascending=[False, True], ignore_index=True)
    return pa.Table.from_pydict(
        {
            "token": pa.array(hist["token"].to_numpy(dtype=np.int64)),
            "cnt": pa.array(hist["cnt"].to_numpy(dtype=np.int64)),
            "rank": pa.array(np.arange(1, len(hist) + 1, dtype=np.int64)),
        }
    )


def q_near_dup_cluster_sizes(sf_dir: str):
    """Cluster-size distribution of the exact n-gram duplicate graph —
    the standard dedup diagnostic (how much of the corpus sits in
    2-clusters vs mega-clusters).  Reuses the size-adaptive
    connected_components output; both rollups are O(components) tiny
    groupbys.  Oracle: the dup_components recursive CTE wrapped in the
    same two aggregates."""
    comp = q_dup_components(sf_dir)

    def one(t: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {"root": t.column("root").combine_chunks(),
             "size": pa.array(np.ones(t.num_rows, dtype=np.int64))}
        )

    sizes = _sum_groupby(
        comp.map_batches(one, batch_format="pyarrow"), ["root"], ["size"]
    )

    def one2(t: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {"size": pc.cast(t.column("size"), pa.int64()),
             "n_clusters": pa.array(np.ones(t.num_rows, dtype=np.int64))}
        )

    return _sum_groupby(
        sizes.map_batches(one2, batch_format="pyarrow"), ["size"], ["n_clusters"]
    )


def q_orders_cumulative_by_date(sf_dir: str):
    """Daily order revenue with a global running total — the
    time-series cumulative workload.  The corpus pass is one
    shuffle-free widen into a per-day exact-cents _sum_groupby
    (exchange moves O(days)); the cumulative sum runs over the O(days)
    driver rows in day order — int64 end to end, so the window sum
    can't drift."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_orderdate", "o_totalprice"])

    def widen(batch: pa.Table) -> pa.Table:
        micros = pc.cast(batch.column("o_orderdate"), pa.int64()).to_numpy(zero_copy_only=False)
        p = batch.column("o_totalprice").to_numpy(zero_copy_only=False)
        return pa.Table.from_pydict(
            {
                "day": pa.array(micros // 86_400_000_000),
                "day_rev_c": pa.array(np.floor(p * 100 + 0.5).astype(np.int64)),
            }
        )

    agg = _sum_groupby(
        ds.map_batches(widen, batch_format="pyarrow", zero_copy_batch=True),
        ["day"], ["day_rev_c"],
    ).to_pandas()  # O(days)
    agg = agg.sort_values("day", ignore_index=True)
    return pa.Table.from_pydict(
        {
            "day": pa.array(agg["day"].to_numpy(dtype=np.int64)),
            "day_rev_c": pa.array(agg["day_rev_c"].to_numpy(dtype=np.int64)),
            "cum_rev_c": pa.array(np.cumsum(agg["day_rev_c"].to_numpy(dtype=np.int64))),
        }
    )


def q_source_trigram_entropy(sf_dir: str):
    """Per-source Shannon entropy of the trigram distribution (low =
    templated source) — H = ln(n) - (Σ c·ln c)/n over exact global
    trigram counts.  The Σ c·ln c partial is rounded to a 1e-9 int64
    per (source, tri) row BEFORE the per-source sum (the source_kl
    protocol), so the distributed sum is order-independent and matches
    the oracle bit-for-bit; the exchange moves O(distinct trigrams)."""
    counts = _source_tri_counts(sf_dir)

    def term(batch: pa.Table) -> pa.Table:
        c = batch.column("cnt").to_numpy(zero_copy_only=False).astype(np.float64)
        ti = np.floor(c * np.log(c) * 1e9 + 0.5).astype(np.int64)
        return pa.Table.from_pydict(
            {
                "source": batch.column("source"),
                "ti": pa.array(ti),
                "n_total": pc.cast(batch.column("cnt"), pa.int64()),
            }
        )

    agg = _sum_groupby(
        counts.map_batches(term, batch_format="pyarrow"), ["source"], ["ti", "n_total"]
    ).to_pandas()  # O(sources)
    n = agg["n_total"].to_numpy(dtype=np.int64).astype(np.float64)
    s = agg["ti"].to_numpy(dtype=np.int64).astype(np.float64) / 1e9
    ent = np.log(n) - s / n
    ent = np.floor(ent * 1e6 + 0.5) / 1e6
    return pa.Table.from_pydict(
        {
            "source": pa.array(agg["source"], type=pa.string()),
            "n_total": pa.array(agg["n_total"].to_numpy(dtype=np.int64)),
            "entropy": pa.array(ent, type=pa.float64()),
        }
    )


def q_user_first_last_event(sf_dir: str):
    """Per-user first/last event type by (ts, event_id) — the
    argmin/argmax-per-group workload (FIRST_VALUE / LAST_VALUE
    windows): firsts/lasts are the segment edge rows — no per-user
    Python call."""
    import ray.data as rd

    def edges(t: pa.Table, starts: np.ndarray) -> pa.Table:
        ends = np.append(starts[1:], t.num_rows) - 1
        et = t.column("event_type")
        return pa.table({
            "user_id": t.column("user_id").take(starts),
            "first_type": et.take(starts), "last_type": et.take(ends),
            "n_events": ends - starts + 1,
        })

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "event_type"]
    )
    return _segmented(ds, "user_id", ["ts", "event_id"], edges)


def q_brand_discount_stats(sf_dir: str):
    """Per-brand sale statistics: item count, exact summed discount
    (1e-4 units) and its float average — the broadcast-dimension
    rollup shape (part is O(SF x 200) rows: partkey -> brand LUT ships
    once; lineitem streams shuffle-free into an O(brands) groupby)."""
    import ray
    import ray.data as rd

    part = pq.read_table(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand"])
    pkeys = part.column("p_partkey").to_numpy().astype(np.int64)
    p_ord = np.argsort(pkeys)
    brands = np.asarray(part.column("p_brand").to_pylist(), dtype=object)[p_ord]
    ref = ray.put((pkeys[p_ord], brands))

    def widen(batch: pa.Table) -> pa.Table:
        keys, br = ray.get(ref)
        idx = np.searchsorted(keys, batch.column("l_partkey").to_numpy(zero_copy_only=False))
        disc = batch.column("l_discount").to_numpy(zero_copy_only=False)
        return pa.Table.from_pydict(
            {
                "p_brand": pa.array(br[idx], type=pa.string()),
                "n_items": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
                "sum_disc_e4": pa.array(np.floor(disc * 10_000 + 0.5).astype(np.int64)),
            }
        )

    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_discount"])
    agg = _sum_groupby(
        li.map_batches(widen, batch_format="pyarrow", zero_copy_batch=True),
        ["p_brand"], ["n_items", "sum_disc_e4"],
    )
    t = pa.Table.from_pandas(agg.to_pandas(), preserve_index=False)  # O(brands)
    avg = t.column("sum_disc_e4").to_numpy().astype(np.float64) / (
        t.column("n_items").to_numpy().astype(np.float64) * 10_000.0
    )
    return t.append_column("avg_disc", pa.array(avg, type=pa.float64()))


def q_forecast_revenue(sf_dir: str):
    """TPC-H Q6 shape: the filter-dominated whole-table scan.  Both
    predicates push to parquet row groups, the per-batch partial is two
    int64 sums, the exchange moves ONE row.  Revenue in exact cents
    (floor(p*d*100+0.5) is the identical IEEE double product + round on
    both sides; cents keep the 100-TB global sum ~1e15, far from int64
    overflow)."""
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_extendedprice", "l_discount", "l_quantity"],
        filter=(
            (pc.field("l_discount") >= 0.05)
            & (pc.field("l_discount") <= 0.07)
            & (pc.field("l_quantity") < 24.0)
        ),
    )

    def widen(batch: pa.Table) -> pa.Table:
        p = batch.column("l_extendedprice").to_numpy(zero_copy_only=False)
        d = batch.column("l_discount").to_numpy(zero_copy_only=False)
        return pa.Table.from_pydict(
            {
                "n_items": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
                "revenue_c": pa.array(np.floor(p * d * 100 + 0.5).astype(np.int64)),
            }
        )

    s = ds.map_batches(widen, batch_format="pyarrow", zero_copy_batch=True).sum(
        ["n_items", "revenue_c"]
    )
    return pa.Table.from_pydict(
        {
            "n_items": pa.array([int(s["sum(n_items)"])], type=pa.int64()),
            "revenue_c": pa.array([int(s["sum(revenue_c)"])], type=pa.int64()),
        }
    )


def q_priority_return_orders(sf_dir: str):
    """TPC-H Q4 shape (EXISTS + groupby): orders per priority class
    having >=1 returned lineitem.  The returnflag filter pushes to the
    lineitem read; hash_join mode="semi" ships only the key column
    through the exchange (no fanout); the rollup moves O(priorities)."""
    import ray.data as rd

    from .joins import hash_join

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderpriority"]
    )
    returned = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey"],
        filter=(pc.field("l_returnflag") == "R"),
    )
    hit = hash_join(
        orders, returned, left_on="o_orderkey", right_on="l_orderkey",
        right_cols=["l_orderkey"], n_buckets=32, mode="semi",
    )

    def widen(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "o_orderpriority": batch.column("o_orderpriority"),
                "n_orders": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
            }
        )

    return _sum_groupby(
        hit.map_batches(widen, batch_format="pyarrow", zero_copy_batch=True),
        ["o_orderpriority"], ["n_orders"],
    )


def q_linestatus_priority_mix(sf_dir: str):
    """TPC-H Q12 shape: big x big co-partitioned join -> tiny groupby
    with conditional counts.  lineitem ships 16 B/row (key + one
    dictionary-coded status), orders ships key + priority; per-status
    high/low counts are a vectorized isin over the joined batches and
    the final exchange moves O(statuses)."""
    import ray.data as rd

    from .joins import hash_join

    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_linestatus"])
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderpriority"]
    )
    joined = hash_join(
        li, orders, left_on="l_orderkey", right_on="o_orderkey",
        right_cols=["o_orderpriority"], n_buckets=32,
    )

    def widen(batch: pa.Table) -> pa.Table:
        codes, vals = _dict_codes(batch.column("r_o_orderpriority"))
        hi_lut = np.array([v in ("1-URGENT", "2-HIGH") for v in vals], dtype=np.int64)
        hi = hi_lut[codes]
        return pa.Table.from_pydict(
            {
                "l_linestatus": batch.column("l_linestatus"),
                "high_line_count": pa.array(hi),
                "low_line_count": pa.array(1 - hi),
            }
        )

    return _sum_groupby(
        joined.map_batches(widen, batch_format="pyarrow", zero_copy_batch=True),
        ["l_linestatus"], ["high_line_count", "low_line_count"],
    )


def q_top_orders_per_cust(sf_dir: str):
    """DENSE_RANK <= 2 per customer by price — the ranked-window
    workload with ties kept.  Each customer segment is ordered by
    (price desc, orderkey) and the dense rank is a cumsum of
    value-change flags rebased at segment starts — no per-customer
    Python call.  Prices compared in exact cents so rank ties are
    bit-deterministic on both sides."""
    import ray.data as rd

    def ranked(t: pa.Table, starts: np.ndarray) -> pa.Table:
        cents = np.floor(t.column("o_totalprice").to_numpy() * 100 + 0.5).astype(np.int64)
        change = np.ones(len(cents), dtype=bool)
        change[1:] = cents[1:] != cents[:-1]
        change[starts] = True
        cv = np.cumsum(change)
        rnk = cv - cv[starts][_segment_ids(starts, len(cv))] + 1
        keep = pa.array(rnk <= 2)
        return pa.table({
            "o_custkey": t.column("o_custkey").filter(keep),
            "o_orderkey": t.column("o_orderkey").filter(keep),
            "price_c": cents[rnk <= 2], "rnk": rnk[rnk <= 2].astype(np.int64),
        })

    ds = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey", "o_totalprice"]
    )
    return _segmented(ds, "o_custkey", ["-o_totalprice", "o_orderkey"], ranked)


def q_event_type_distinct_users(sf_dir: str):
    """Exact COUNT(DISTINCT user) per event type — two staged
    exchanges: per-batch (type, user) unique partials -> groupby
    collapses to the distinct pair set (moves O(distinct pairs), never
    O(events)), then a ones-rollup of O(types) rows.  The standard
    exact-distinct shape when the pair domain fits the cluster and a
    sketch (hourly_approx_users' HLL) isn't acceptable."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "user_id"])

    def pair_partial(batch: pa.Table) -> pa.Table:
        codes, vals = _dict_codes(batch.column("event_type"))
        uid = batch.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        rec = np.empty(len(uid), dtype=[("c", np.int64), ("u", np.int64)])
        rec["c"], rec["u"] = codes, uid
        uniq = np.unique(rec)
        lut = np.asarray(vals, dtype=object)
        return pa.Table.from_pydict(
            {
                "event_type": pa.array(lut[uniq["c"]], type=pa.string()),
                "user_id": pa.array(uniq["u"]),
                "one": pa.array(np.ones(len(uniq), dtype=np.int64)),
            }
        )

    pairs = _sum_groupby(
        ds.map_batches(pair_partial, batch_format="pyarrow", zero_copy_batch=True),
        ["event_type", "user_id"], ["one"],
    )

    def ones(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "event_type": batch.column("event_type"),
                "n_users": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
            }
        )

    return _sum_groupby(
        pairs.map_batches(ones, batch_format="pyarrow"), ["event_type"], ["n_users"]
    )


def q_user_event_gaps(sf_dir: str):
    """Per-user inter-event gap statistics — the LAG window workload:
    gaps are a diff over the sorted timestamps masked at segment
    boundaries, per-user sums via np.add.reduceat / maximum.reduceat.
    Exact int64 microseconds; the float average is the identical
    int/int -> double division in the oracle.  Users with a single event
    have no gap and are dropped (SQL HAVING count(gap) > 0)."""
    import ray.data as rd

    NO_GAP = np.int64(-(2**62))

    def gaps(t: pa.Table, starts: np.ndarray) -> pa.Table:
        ts = pc.cast(t.column("ts"), pa.int64()).to_numpy()
        lens = np.diff(np.append(starts, len(ts)))
        gap = np.append(np.diff(ts), 0)  # gap[i] = ts[i+1] - ts[i]
        valid = np.ones(len(gap), dtype=bool)
        valid[np.append(starts[1:], len(ts)) - 1] = False  # a segment's last row has none
        keep = lens > 1
        sums = np.add.reduceat(np.where(valid, gap, 0), starts)[keep]
        maxs = np.maximum.reduceat(np.where(valid, gap, NO_GAP), starts)[keep]
        n = (lens - 1)[keep]
        return pa.table({
            "user_id": t.column("user_id").take(starts[keep]),
            "n_gaps": n, "sum_gap_us": sums, "max_gap_us": maxs,
            "avg_gap_us": sums.astype(np.float64) / n.astype(np.float64),
        })

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"])
    return _segmented(ds, "user_id", ["ts", "event_id"], gaps)


def q_props_k_histogram(sf_dir: str):
    """Semi-structured extraction + rollup: histogram of the JSON
    ``props.k`` field.  The extract is ONE vectorized extract_regex
    kernel pass (json.loads touches only irregular rows —
    functions/jsonextract.py); per-batch np.unique partials make the
    exchange move O(distinct k), never O(events)."""
    import ray.data as rd

    from .jsonextract import json_int_field

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["props"])

    def partial(batch: pa.Table) -> pa.Table:
        k = json_int_field(batch.column("props"), "k")
        kv = k.to_numpy(zero_copy_only=False)
        kv = kv[~np.isnan(kv)] if kv.dtype.kind == "f" else kv[np.asarray(pc.is_valid(k))]
        uniq, cnt = np.unique(kv.astype(np.int64), return_counts=True)
        return pa.Table.from_pydict(
            {"k": pa.array(uniq), "n_events": pa.array(cnt.astype(np.int64))}
        )

    return _sum_groupby(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["k"], ["n_events"],
    )


def q_props_k_by_type(sf_dir: str):
    """JSON field extraction joined to a categorical rollup: per
    event_type count / exact int64 sum / float mean of ``props.k``.
    Same vectorized extract; the exchange moves O(types)."""
    import ray.data as rd

    from .jsonextract import json_int_field

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "props"])

    def widen(batch: pa.Table) -> pa.Table:
        k = json_int_field(batch.column("props"), "k")
        return pa.Table.from_pydict(
            {
                "event_type": batch.column("event_type"),
                "n_events": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
                "sum_k": pc.fill_null(k, 0),
            }
        )

    agg = _sum_groupby(
        ds.map_batches(widen, batch_format="pyarrow", zero_copy_batch=True),
        ["event_type"], ["n_events", "sum_k"],
    )
    t = pa.Table.from_pandas(agg.to_pandas(), preserve_index=False)  # O(types)
    avg = t.column("sum_k").to_numpy().astype(np.float64) / t.column("n_events").to_numpy().astype(
        np.float64
    )
    return t.append_column("avg_k", pa.array(avg, type=pa.float64()))


NUCLEUS_P10 = 9  # nucleus mass threshold: cum*10 >= tot*9 i.e. p=0.9


def q_source_nucleus_vocab(sf_dir: str):
    """Per-source nucleus (top-p=0.9) vocabulary size — how many
    distinct tokens cover 90% of a source's token mass (the
    sampling-nucleus / head-heaviness diagnostic).  Per-batch
    (source, token) unique partials -> one exchange of O(distinct
    pairs) rows -> a per-source group of O(source vocab) rows (bounded
    domain, safe at any corpus size): ONE argsort by (cnt desc, token
    asc), cumsum, and an integer threshold compare (cum*10 >= tot*9 —
    no float), so the oracle window matches bit-for-bit."""
    ds = tokseq_dataset(sf_dir)

    def partial(batch: pa.Table) -> pa.Table:
        src = batch.column("source")
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        denc = src.dictionary_encode()
        if isinstance(denc, pa.ChunkedArray):
            denc = denc.combine_chunks()
        codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        toks = batch.column("tokens")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
        flat = toks.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
        rec = np.empty(len(flat), dtype=[("s", np.int64), ("t", np.int64)])
        rec["s"] = np.repeat(codes, lens)
        rec["t"] = flat
        uniq, cnt = np.unique(rec, return_counts=True)
        lut = np.asarray(denc.dictionary.to_pylist(), dtype=object)
        return pa.Table.from_pydict(
            {
                "source": pa.array(lut[uniq["s"]], type=pa.string()),
                "token": pa.array(uniq["t"]),
                "cnt": pa.array(cnt.astype(np.int64)),
            }
        )

    counts = _sum_groupby(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["source", "token"], ["cnt"],
    )

    def nucleus(group: pa.Table) -> pa.Table:
        tok = group.column("token").to_numpy(zero_copy_only=False).astype(np.int64)
        cnt = group.column("cnt").to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((tok, -cnt))
        cum = np.cumsum(cnt[order])
        tot = int(cum[-1])
        k = int(np.searchsorted(cum * 10, tot * NUCLEUS_P10)) + 1
        return pa.Table.from_pydict(
            {
                "source": pa.array([group.column("source")[0].as_py()], type=pa.string()),
                "vocab_size": pa.array([len(tok)], type=pa.int64()),
                "total_tok": pa.array([tot], type=pa.int64()),
                "nucleus_k": pa.array([k], type=pa.int64()),
            }
        )

    return counts.groupby("source").map_groups(nucleus, batch_format="pyarrow")


def q_rare_token_docs(sf_dir: str):
    """Docs carrying tail tokens (global count <= max_count/10 — a
    relative threshold so the op is scale-invariant) with the per-doc
    tail-occurrence count — the tail-quality / contamination-tail
    filter.  Pass 1 reuses the token_histogram O(vocab) aggregate;
    the rare id set (bounded by vocab, not corpus) broadcasts once via
    ray.put as a SORTED array; pass 2 is a shuffle-free searchsorted
    membership over each batch's flattened tokens + one reduceat per
    doc.  Exchange total: O(vocab) + zero (pass 2 is map-only).  The
    threshold compare is integer (cnt*10 <= max) on both sides."""
    import ray

    hist = q_token_histogram(sf_dir).to_pandas()  # O(vocab)
    cnts = hist["cnt"].to_numpy(dtype=np.int64)
    rare = np.sort(
        hist.loc[cnts * 10 <= int(cnts.max()), "token"].to_numpy(dtype=np.int64)
    )
    rare_ref = ray.put(rare)

    ds = tokseq_dataset(sf_dir)

    def mark(batch: pa.Table) -> pa.Table:
        r = ray.get(rare_ref)
        toks = batch.column("tokens")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = toks.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
        idx = np.searchsorted(r, flat)
        hit = (idx < len(r)) & (r[np.minimum(idx, len(r) - 1)] == flat) if len(r) else \
            np.zeros(len(flat), dtype=bool)
        offsets = np.concatenate(([0], np.cumsum(lens)))[:-1]
        per_doc = np.add.reduceat(np.concatenate((hit.astype(np.int64), [0])), offsets)
        per_doc = np.where(lens > 0, per_doc, 0)
        keep = per_doc > 0
        return pa.Table.from_pydict(
            {
                "doc_id": pc.cast(batch.column("doc_id"), pa.string()).filter(
                    pa.array(keep)
                ),
                "n_rare": pa.array(per_doc[keep]),
                "n_tok": pa.array(lens[keep]),
            }
        )

    return ds.map_batches(mark, batch_format="pyarrow", zero_copy_batch=True)


def q_profile_orders(sf_dir: str):
    """Table profiler over orders: per-column rows / nulls / EXACT
    distinct / min-max (numerics as float64 with timestamps as epoch
    µs, strings as strings).  Shapes per functions/profile.py: block →
    one row per column for min/max/nulls; exact distinct moves
    O(Σ per-column distinct) through one (column, value) groupby.
    Nulls coalesce to -1 / '' for the value-hash compare (NaN != NaN —
    the orders_full_customer protocol); the library function keeps
    real nulls."""
    from .profile import profile_parquet

    t = profile_parquet(f"{sf_dir}/orders.parquet")
    return pa.Table.from_pydict(
        {
            "column": t.column("column"),
            "n_rows": t.column("n_rows"),
            "n_nulls": t.column("n_nulls"),
            "n_distinct": t.column("n_distinct"),
            "min_num": pc.fill_null(t.column("min_num"), -1.0),
            "max_num": pc.fill_null(t.column("max_num"), -1.0),
            "min_str": pc.fill_null(t.column("min_str"), ""),
            "max_str": pc.fill_null(t.column("max_str"), ""),
        }
    )


RANGE_SCAN_LO, RANGE_SCAN_HI = 100_000.0, 200_000.0


def q_price_range_scan(sf_dir: str):
    """Range-layout round trip under the value oracle: orders export
    into a KLL range-partitioned hive layout, then a manifest-pruned
    read_range([lo, hi)) — whole bucket dirs are skipped before any
    file opens (functions/export.py).  The oracle is the equivalent
    predicate scan, so any mis-bucketed or double-read row breaks
    value parity."""
    from .export import range_partition_parquet, read_range

    base = _job_dir(sf_dir, "rangeexp")
    shutil.rmtree(base, ignore_errors=True)
    range_partition_parquet(
        f"{sf_dir}/orders.parquet", base, "o_totalprice", n_partitions=8,
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
    )
    # (partition_cols strips range_bucket from the file payloads, so the
    # read returns exactly the three projected columns)
    return read_range(base, RANGE_SCAN_LO, RANGE_SCAN_HI)


def q_nation_trade_volume(sf_dir: str):
    """TPC-H Q7 shape: yearly shipped revenue between two nations in
    both directions.  The nation pair is data-derived deterministically
    (the two nations with the most suppliers, name tie-break) so the
    query is non-degenerate at every scale; both sides compute the
    identical pair.  Supplier-nation resolves through a broadcast LUT
    (supplier is O(SF x 10), dwarfed by lineitem) and FILTERS the fact
    stream to the two nations before any exchange; the two big joins
    (lineitem x orders on orderkey, then x customer on custkey) are
    co-partitioned hash_joins carrying 24 B/row; the final rollup is
    O(2 x years).  Exact 1e-4-dollar revenue."""
    import ray
    import ray.data as rd

    from .joins import hash_join

    sup = pq.read_table(f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"])
    nat = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"])
    nkeys = nat.column("n_nationkey").to_numpy().astype(np.int64)
    nname = np.asarray(nat.column("n_name").to_pylist(), dtype=object)
    name_lut = np.empty(int(nkeys.max()) + 1, dtype=object)
    name_lut[nkeys] = nname
    skeys = sup.column("s_suppkey").to_numpy().astype(np.int64)
    s_ord = np.argsort(skeys)
    s_nation = name_lut[sup.column("s_nationkey").to_numpy().astype(np.int64)][s_ord]
    sref = ray.put((skeys[s_ord], s_nation))
    # deterministic non-degenerate pair: most suppliers, name tie-break
    un, uc = np.unique(s_nation.astype(str), return_counts=True)
    top = un[np.lexsort((un, -uc))][:2]
    nation_a, nation_b = str(top[0]), str(top[1])
    # customer nationkey -> name LUT is O(nations); customer itself joins big
    nref = ray.put((nkeys, nname))

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    def widen_supp(batch: pa.Table) -> pa.Table:
        keys, names = ray.get(sref)
        idx = np.searchsorted(keys, batch.column("l_suppkey").to_numpy(zero_copy_only=False))
        sn = names[idx]
        keep = (sn == nation_a) | (sn == nation_b)
        p = batch.column("l_extendedprice").to_numpy(zero_copy_only=False)[keep]
        d = batch.column("l_discount").to_numpy(zero_copy_only=False)[keep]
        micros = pc.cast(batch.column("l_shipdate"), pa.int64()).to_numpy(
            zero_copy_only=False
        )[keep]
        years = (1970 + micros.astype("datetime64[us]").astype("datetime64[Y]").astype(
            np.int64
        )).astype(np.int64)
        return pa.Table.from_pydict(
            {
                "l_orderkey": pc.cast(batch.column("l_orderkey"), pa.int64()).filter(
                    pa.array(keep)
                ),
                "supp_nation": pa.array(sn[keep], type=pa.string()),
                "l_year": pa.array(years),
                "rev_e4": pa.array(np.floor(p * (1 - d) * 10_000 + 0.5).astype(np.int64)),
            }
        )

    fact = li.map_batches(widen_supp, batch_format="pyarrow", zero_copy_batch=True)
    orders = rd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"])
    j1 = hash_join(fact, orders, left_on="l_orderkey", right_on="o_orderkey",
                   right_cols=["o_custkey"], n_buckets=32)
    cust = rd.read_parquet(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"])
    j2 = hash_join(j1, cust, left_on="r_o_custkey", right_on="c_custkey",
                   right_cols=["c_nationkey"], n_buckets=32)

    def widen_cust(batch: pa.Table) -> pa.Table:
        keys, names = ray.get(nref)
        lut = np.empty(int(keys.max()) + 1, dtype=object)
        lut[keys] = names
        cn = lut[batch.column("r_c_nationkey").to_numpy(zero_copy_only=False).astype(np.int64)]
        sn = batch.column("supp_nation").to_numpy(zero_copy_only=False)
        keep = ((cn == nation_a) | (cn == nation_b)) & (cn != sn)
        return pa.Table.from_pydict(
            {
                "supp_nation": pa.array(sn[keep], type=pa.string()),
                "cust_nation": pa.array(cn[keep], type=pa.string()),
                "l_year": pc.cast(batch.column("l_year"), pa.int64()).filter(pa.array(keep)),
                "rev_e4": pc.cast(batch.column("rev_e4"), pa.int64()).filter(pa.array(keep)),
            }
        )

    return _sum_groupby(
        j2.map_batches(widen_cust, batch_format="pyarrow", zero_copy_batch=True),
        ["supp_nation", "cust_nation", "l_year"], ["rev_e4"],
    )


def q_orders_month_delta(sf_dir: str):
    """Month-over-month revenue deltas — LAG over an AGGREGATE (the
    time-series reporting shape): one shuffle-free widen into an
    O(months) exact-cents groupby, then the lag/delta run over the
    O(months) driver rows in month order.  month = year*100+mm int64;
    first month's prev/delta coalesce to 0 on both sides."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_orderdate", "o_totalprice"])

    def widen(batch: pa.Table) -> pa.Table:
        micros = pc.cast(batch.column("o_orderdate"), pa.int64()).to_numpy(zero_copy_only=False)
        d = micros.astype("datetime64[us]")
        y = d.astype("datetime64[Y]").astype(np.int64) + 1970
        mm = (d.astype("datetime64[M]").astype(np.int64) % 12) + 1
        p = batch.column("o_totalprice").to_numpy(zero_copy_only=False)
        return pa.Table.from_pydict(
            {
                "month": pa.array(y * 100 + mm),
                "rev_c": pa.array(np.floor(p * 100 + 0.5).astype(np.int64)),
            }
        )

    agg = _sum_groupby(
        ds.map_batches(widen, batch_format="pyarrow", zero_copy_batch=True),
        ["month"], ["rev_c"],
    ).to_pandas()  # O(months)
    agg = agg.sort_values("month", ignore_index=True)
    rev = agg["rev_c"].to_numpy(dtype=np.int64)
    prev = np.concatenate(([0], rev[:-1]))
    return pa.Table.from_pydict(
        {
            "month": pa.array(agg["month"].to_numpy(dtype=np.int64)),
            "rev_c": pa.array(rev),
            "prev_rev_c": pa.array(prev),
            "delta_c": pa.array(rev - prev),
        }
    )


def q_token_zipf_fit(sf_dir: str):
    """Least-squares Zipf fit over the token frequency spectrum:
    slope/intercept of ln(freq) ~ ln(rank), ranks by (cnt desc, token
    asc).  The distributed part is the O(vocab) token histogram; the
    fit runs over the bounded O(vocab) rows with every per-term value
    rounded to 1e-3 fixed point BEFORE the sums (int64-exact,
    order-independent — the source_kl protocol), so the oracle's
    window-ranked version matches bit-for-bit.  The final slope /
    intercept combine the exact integer sums in a fixed sequence of
    float64 ops, rounded to 1e-6."""
    hist = q_token_histogram(sf_dir).to_pandas()  # O(vocab)
    tok = hist["token"].to_numpy(dtype=np.int64)
    cnt = hist["cnt"].to_numpy(dtype=np.int64)
    order = np.lexsort((tok, -cnt))
    c = cnt[order].astype(np.float64)
    r = np.arange(1, len(c) + 1, dtype=np.float64)
    xi = np.floor(np.log(r) * 1e3 + 0.5).astype(np.int64)
    yi = np.floor(np.log(c) * 1e3 + 0.5).astype(np.int64)
    n = np.int64(len(c))
    sx, sy = int(xi.sum()), int(yi.sum())
    sxy, sxx = int((xi * yi).sum()), int((xi * xi).sum())
    slope = (float(n) * float(sxy) - float(sx) * float(sy)) / (
        float(n) * float(sxx) - float(sx) * float(sx)
    )
    slope = np.floor(slope * 1e6 + 0.5) / 1e6
    intercept = (float(sy) / 1e3 - slope * (float(sx) / 1e3)) / float(n)
    intercept = np.floor(intercept * 1e6 + 0.5) / 1e6
    return pa.Table.from_pydict(
        {
            "vocab": pa.array([int(n)], type=pa.int64()),
            "slope": pa.array([float(slope)], type=pa.float64()),
            "intercept": pa.array([float(intercept)], type=pa.float64()),
        }
    )


def q_order_lines_histogram(sf_dir: str):
    """Count-of-counts (the double aggregate): how many orders have
    exactly n lineitems.  Level 1 is the standard per-batch partial →
    one O(orders) exchange keyed by orderkey; level 2 re-histograms the
    per-order counts with per-batch np.unique partials so the second
    exchange moves O(distinct n) — never O(orders) twice."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/lineitem.parquet", columns=["l_orderkey"])

    def ones(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "l_orderkey": batch.column("l_orderkey"),
                "n_lines": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
            }
        )

    per_order = _sum_groupby(
        ds.map_batches(ones, batch_format="pyarrow", zero_copy_batch=True),
        ["l_orderkey"], ["n_lines"],
    )

    def rehist(batch: pa.Table) -> pa.Table:
        n = batch.column("n_lines").to_numpy(zero_copy_only=False).astype(np.int64)
        uniq, cnt = np.unique(n, return_counts=True)
        return pa.Table.from_pydict(
            {"n_lines": pa.array(uniq), "n_orders": pa.array(cnt.astype(np.int64))}
        )

    return _sum_groupby(
        per_order.map_batches(rehist, batch_format="pyarrow"), ["n_lines"], ["n_orders"]
    )


PR_DAMP, PR_ITERS = 0.85, 3


def q_token_pagerank(sf_dir: str):
    """Iterative graph algorithm under the value oracle: 3 damped
    PageRank iterations over the weighted token-bigram graph (edges =
    adjacent-token counts; dangling mass not redistributed — same
    simplification on both sides).  Shape: the edge table is the
    O(distinct bigrams) aggregate (bounded by vocab², never corpus
    rows) materialized once and re-streamed per iteration; the rank
    vector is O(vocab), broadcast via ray.put each round; per-edge
    contributions are fixed-pointed to 1e-12 int64 BEFORE the per-node
    sum (order-independent exact sums), and the rank update rounds at
    1e-9 — the identical float64 op sequence the oracle's chained CTEs
    run, so three iterations stay bit-equal."""
    import ray

    edges = q_token_bigrams(sf_dir).materialize()  # O(distinct bigrams)

    def wpart(batch: pa.Table) -> pa.Table:
        return batch.select(["t1", "cnt"])

    wdf = _sum_groupby(
        edges.map_batches(wpart, batch_format="pyarrow"), ["t1"], ["cnt"]
    ).to_pandas()  # O(vocab)
    hist = q_token_histogram(sf_dir).to_pandas()  # O(vocab)
    tokens = np.sort(hist["token"].to_numpy(dtype=np.int64))
    V = len(tokens)
    wv = np.zeros(V, dtype=np.float64)
    wv[np.searchsorted(tokens, wdf["t1"].to_numpy(dtype=np.int64))] = wdf["cnt"].to_numpy(
        dtype=np.int64
    )
    r = np.full(V, 1.0 / V, dtype=np.float64)

    for _ in range(PR_ITERS):
        ref = ray.put((tokens, r, wv))

        def term(batch: pa.Table, _ref=ref) -> pa.Table:
            tk, rv, ww = ray.get(_ref)
            t1 = batch.column("t1").to_numpy(zero_copy_only=False)
            cnt = batch.column("cnt").to_numpy(zero_copy_only=False).astype(np.float64)
            i1 = np.searchsorted(tk, t1)
            te = np.floor(rv[i1] * cnt / ww[i1] * 1e12 + 0.5).astype(np.int64)
            return pa.Table.from_pydict({"t2": batch.column("t2"), "te": pa.array(te)})

        cdf = _sum_groupby(
            edges.map_batches(term, batch_format="pyarrow"), ["t2"], ["te"]
        ).to_pandas()  # O(vocab)
        c = np.zeros(V, dtype=np.float64)
        c[np.searchsorted(tokens, cdf["t2"].to_numpy(dtype=np.int64))] = cdf["te"].to_numpy(
            dtype=np.int64
        )
        r = np.floor((0.15 / V + PR_DAMP * (c / 1e12)) * 1e9 + 0.5) / 1e9

    return pa.Table.from_pydict(
        {"token": pa.array(tokens), "rank": pa.array(r, type=pa.float64())}
    )


def q_decode_members(sf_dir: str):
    """Bulk membership over the ARCHIVAL format: encode the corpus,
    stream-decode it PROJECTED (columns=[doc_id, n_tok, source] — the
    tokens payload never decodes), and keep only the rows whose doc_id
    is in the deterministic md5-prefix sample set via a key-only
    hash_join mode="semi" — the "filter a decoded 100-TB corpus by a
    big id list" shape (lookup_docs is the point-access sibling).  The
    id side ships only its key column through the exchange."""
    import ray.data as rd

    from ..pipelines.encode_job import EncodeConfig, run_encode
    from ..stages.decoder import decode_dataset
    from .joins import hash_join

    out = _job_dir(sf_dir, "decmembers")
    shutil.rmtree(out, ignore_errors=True)
    run_encode(
        lambda: tokseq_dataset(sf_dir), EncodeConfig(out_dir=out, target_partition_tokens=200_000)
    ).materialize()
    dec = decode_dataset(out, columns=["doc_id", "n_tok", "source"])

    def widen(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "doc_id": batch.column("doc_id"),
                "n_tok": pc.cast(batch.column("n_tok"), pa.int64()),
                "source": batch.column("source"),
            }
        )

    ids = q_seeded_sample(sf_dir, hash="md5").select_columns(["doc_id"])  # oracle rule
    return hash_join(
        dec.map_batches(widen, batch_format="pyarrow", zero_copy_batch=True),
        ids, left_on="doc_id", right_on="doc_id",
        right_cols=["doc_id"], n_buckets=16, mode="semi",
    )


def q_event_anomaly_days(sf_dir: str):
    """Days whose event count deviates more than 2 population-sigma
    from the mean — anomaly detection with ZERO float drift: |x-mu| >
    2*sigma is evaluated as (n*x - S)^2 > 4*(n*Q - S^2) in integer
    arithmetic (S = sum of counts, Q = sum of squares, n = days), so
    boundary days can never flip between engines.  The corpus pass is
    one O(days) groupby; the comparison runs over the O(days) driver
    rows in PYTHON ints (arbitrary precision — numpy int64 would
    overflow when daily counts reach 1e9; the oracle uses HUGEINT for
    the same reason)."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["ts"])

    def widen(batch: pa.Table) -> pa.Table:
        micros = pc.cast(batch.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
        return pa.Table.from_pydict(
            {
                "day": pa.array(micros // 86_400_000_000),
                "n_events": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
            }
        )

    agg = _sum_groupby(
        ds.map_batches(widen, batch_format="pyarrow", zero_copy_batch=True),
        ["day"], ["n_events"],
    ).to_pandas()  # O(days)
    days = agg["day"].to_numpy(dtype=np.int64)
    x = [int(v) for v in agg["n_events"].to_numpy(dtype=np.int64)]
    n, S = len(x), sum(x)
    Q = sum(v * v for v in x)
    rhs = 4 * (n * Q - S * S)
    keep = [i for i, v in enumerate(x) if (n * v - S) ** 2 > rhs]
    return pa.Table.from_pydict(
        {
            "day": pa.array([int(days[i]) for i in keep], type=pa.int64()),
            "n_events": pa.array([x[i] for i in keep], type=pa.int64()),
        }
    )


def q_embedding_norm_stats(sf_dir: str):
    """Per-label embedding L2-norm statistics: n, exact fixed-point
    norm sum (1e-6), min/max norm — the embedding-QA rollup (detects
    un-normalized or collapsed clusters).  Norms compute in float64
    from the float32 values upcast first (the oracle's ::DOUBLE[] cast
    — DuckDB list kernels run float32 otherwise), rounded 1e-6 per
    VECTOR before the label sums so the distributed sum is
    order-independent.  One O(labels) exchange."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["label", "embedding"])

    def widen(batch: pa.Table) -> pa.Table:
        emb = batch.column("embedding")
        if isinstance(emb, pa.ChunkedArray):
            emb = emb.combine_chunks()
        flat = emb.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        d = len(flat) // batch.num_rows
        m = flat.reshape(batch.num_rows, d)
        norm = np.sqrt((m * m).sum(axis=1))
        ne6 = np.floor(norm * 1e6 + 0.5).astype(np.int64)
        return pa.Table.from_pydict(
            {
                "label": pc.cast(batch.column("label"), pa.int64()),
                "n_vecs": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
                "sum_norm_e6": pa.array(ne6),
                "min_norm_e6": pa.array(ne6),
                "max_norm_e6": pa.array(ne6),
            }
        )

    from ray.data.aggregate import Max, Min, Sum

    def partial(batch: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(batch, ["label"]).aggregate(
            [("n_vecs", "sum"), ("sum_norm_e6", "sum"), ("min_norm_e6", "min"), ("max_norm_e6", "max")]
        )
        return g.rename_columns(["label", "n_vecs", "sum_norm_e6", "min_norm_e6", "max_norm_e6"])

    return (
        ds.map_batches(widen, batch_format="pyarrow", zero_copy_batch=True)
        .map_batches(partial, batch_format="pyarrow")
        .groupby("label")
        .aggregate(
            Sum("n_vecs", alias_name="n_vecs"),
            Sum("sum_norm_e6", alias_name="sum_norm_e6"),
            Min("min_norm_e6", alias_name="min_norm_e6"),
            Max("max_norm_e6", alias_name="max_norm_e6"),
        )
    )


def q_float_codec_roundtrip(sf_dir: str):
    """End-to-end gate for the FIXED-kind codec family (plain / plane /
    ALP / ALP-RD): every block of lineitem's four price doubles and the
    embeddings' float32 values is really encoded (codec="auto" — ALP
    wins the decimal-like doubles, ALP-RD the continuous float32),
    really decoded, hard-asserted BIT-identical in the worker, and the
    query's visible result is computed from the DECODED values — exact
    fixed-point (floor(v*scale+0.5), float64 math on both engines)
    n/sum/min/max per column, so any codec drift breaks the value hash,
    not just an internal assertion.  One O(columns) exchange."""
    import ray.data as rd

    from ..codecs import decode_array, encode_array

    def rt_stats(name: str, arr: pa.Array, scale: float) -> dict:
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        enc = encode_array(arr, name, codec="auto", zstd=True)
        dec = decode_array(enc)
        a = np.ascontiguousarray(arr.to_numpy(zero_copy_only=False))
        b = np.ascontiguousarray(dec.to_numpy(zero_copy_only=False))
        if not np.array_equal(a.view(np.int64 if a.itemsize == 8 else np.int32),
                              b.view(np.int64 if b.itemsize == 8 else np.int32)):
            raise ValueError(f"codec round-trip not bit-identical for {name} ({enc.codec})")
        fp = np.floor(b.astype(np.float64) * scale + 0.5).astype(np.int64)
        return {
            "column": name,
            "n_values": np.int64(len(fp)),
            "sum_fp": fp.sum(dtype=np.int64),
            "min_fp": fp.min() if len(fp) else np.int64(0),
            "max_fp": fp.max() if len(fp) else np.int64(0),
        }

    cols = ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]
    schema = pa.schema(
        [("column", pa.string()), ("n_values", pa.int64()), ("sum_fp", pa.int64()),
         ("min_fp", pa.int64()), ("max_fp", pa.int64())]
    )

    def li_block(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return schema.empty_table()
        rows = [rt_stats(c, batch.column(c), 100.0) for c in cols]
        return pa.Table.from_pylist(rows, schema=schema)

    def emb_block(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return schema.empty_table()
        emb = batch.column("embedding")
        if isinstance(emb, pa.ChunkedArray):
            emb = emb.combine_chunks()
        return pa.Table.from_pylist([rt_stats("embedding", emb.flatten(), 1e6)], schema=schema)

    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet", columns=cols).map_batches(
        li_block, batch_format="pyarrow", zero_copy_batch=True
    )
    em = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["embedding"]).map_batches(
        emb_block, batch_format="pyarrow", zero_copy_batch=True
    )
    from ray.data.aggregate import Max, Min, Sum

    return (
        li.union(em)
        .groupby("column")
        .aggregate(
            Sum("n_values", alias_name="n_values"),
            Sum("sum_fp", alias_name="sum_fp"),
            Min("min_fp", alias_name="min_fp"),
            Max("max_fp", alias_name="max_fp"),
        )
    )


QUERIES = {
    "per_source_stats": q_per_source_stats,
    "token_histogram": q_token_histogram,
    "token_bigrams": q_token_bigrams,
    "doc_len_quantiles": q_doc_len_quantiles,
    "doc_len_quantiles_cont": q_doc_len_quantiles_cont,
    "events_pivot": q_events_pivot,
    "price_quantiles": q_price_quantiles,
    "doc_len_percentile": q_doc_len_percentile,
    "stratified_sample": functools.partial(q_stratified_sample, hash="md5"),  # oracle-parity mode; fnv is the scale default
    "token_idf": q_token_idf,
    "token_entropy": q_token_entropy,
    "bigram_entropy": q_bigram_entropy,
    "tfidf_top_terms": q_tfidf_top_terms,
    "heavy_hitter_tokens": q_heavy_hitter_tokens,
    "distinct_sources": q_distinct_sources,
    "top_docs_by_len": q_top_docs_by_len,
    "dedup_text_stats": q_dedup_text_stats,
    "text_quality": q_text_quality,
    "doc_fingerprint": functools.partial(q_doc_fingerprint, hash="md5"),  # oracle-parity mode; fnv is the scale default
    "token_count_regex": q_token_count_regex,
    "lang_stats": q_lang_stats,
    "source_lang_rollup": q_source_lang_rollup,
    "source_lang_cube": q_source_lang_cube,
    "doc_len_ntile": q_doc_len_ntile,
    "len_tok_corr": q_len_tok_corr,
    "viewer_buyer_sets": q_viewer_buyer_sets,
    "lang_id": q_lang_id,
    "exact_dedup_docs": q_exact_dedup_docs,
    "minhash_dedup_docs": q_minhash_dedup_docs,
    "simhash_dedup_docs": q_simhash_dedup_docs,
    "embedding_dup_pairs": q_embedding_dup_pairs,
    "knn_search": q_knn_search,
    "ivf_knn_search": q_ivf_knn_search,
    "ivf_partitioned_knn": q_ivf_partitioned_knn,
    "ivf_pq_knn_search": q_ivf_pq_knn_search,
    "lsh_dup_pairs": q_lsh_dup_pairs,
    "minhash_verified_pairs": q_minhash_verified_pairs,
    "simhash_verified_pairs": q_simhash_verified_pairs,
    "ngram_dup_pairs": q_ngram_dup_pairs,
    "seeded_sample": functools.partial(q_seeded_sample, hash="md5"),  # oracle-parity mode; fnv is the scale default
    "blob_stats": q_blob_stats,
    "pricing_summary": q_pricing_summary,
    "orders_per_nation": q_orders_per_nation,
    "high_value_orders": q_high_value_orders,
    "events_hourly": q_events_hourly,
    "user_retention": q_user_retention,
    "user_funnel": q_user_funnel,
    "hourly_approx_users": q_hourly_approx_users,
    "events_asof": q_events_asof,
    "order_lineitem_join": q_order_lineitem_join,
    "shipping_priority": q_shipping_priority,
    "orders_without_lineitem": q_orders_without_lineitem,
    "orders_full_customer": q_orders_full_customer,
    "orders_semi_lineitem": q_orders_semi_lineitem,
    "orders_left_lineitem": q_orders_left_lineitem,
    "user_sessions": q_user_sessions,
    "events_rolling_avg": q_events_rolling_avg,
    "pack_sequences": q_pack_sequences,
    "repetition_ratio": q_repetition_ratio,
    "seeded_shuffle": functools.partial(q_seeded_shuffle, hash="md5"),  # oracle-parity mode; fnv is the scale default
    "decontaminate": q_decontaminate,
    "token_pmi": q_token_pmi,
    "bigram_lm_score": q_bigram_lm_score,
    "dup_trigram_fraction": q_dup_trigram_fraction,
    "kmeans_clusters": q_kmeans_clusters,
    "label_centroids": q_label_centroids,
    "events_value_norm": q_events_value_norm,
    "value_share": q_value_share,
    "doc_len_mode": q_doc_len_mode,
    "token_skipgrams": q_token_skipgrams,
    "c4_quality_filter": q_c4_quality_filter,
    "train_test_split": functools.partial(q_train_test_split, hash="md5"),  # oracle-parity mode; fnv is the scale default
    "temperature_sample": functools.partial(q_temperature_sample, hash="md5"),  # oracle-parity mode; fnv is the scale default
    "dup_span_coverage": q_dup_span_coverage,
    "chunk_documents": q_chunk_documents,
    "oov_rate": q_oov_rate,
    "source_kl": q_source_kl,
    "interleave_sources": functools.partial(q_interleave_sources, hash="md5"),  # oracle-parity mode; fnv is the scale default
    "user_paths": q_user_paths,
    "user_paths_capped": q_user_paths_capped,
    "event_transitions": q_event_transitions,
    "session_stats": q_session_stats,
    "top_trigrams_per_source": q_top_trigrams_per_source,
    "events_zscore": q_events_zscore,
    "embedding_quantize": q_embedding_quantize,
    "centroid_classify": q_centroid_classify,
    "token_degree": q_token_degree,
    "value_mad": q_value_mad,
    "source_overlap": q_source_overlap,
    "source_jaccard": q_source_jaccard,
    "doc_novelty": q_doc_novelty,
    "doc_len_gini": q_doc_len_gini,
    "value_outliers": q_value_outliers,
    "longest_dup_span": q_longest_dup_span,
    "span_trim": q_span_trim,
    "pmi_top_contexts": q_pmi_top_contexts,
    "vocab_growth": q_vocab_growth,
    "kll_value_quantiles": q_kll_value_quantiles,
    "bloom_orders_filter": q_bloom_orders_filter,
    "approx_distinct_docs": q_approx_distinct_docs,
    "top_events_per_user": q_top_events_per_user,
    "events_in_windows": q_events_in_windows,
    "events_sliding": q_events_sliding,
    "encode_roundtrip": q_encode_roundtrip,
    "incremental_roundtrip": q_incremental_roundtrip,
    "encode_metrics": q_encode_metrics,
    "csv_roundtrip": q_csv_roundtrip,
    "csv_export_roundtrip": q_csv_export_roundtrip,
    "tokenize_roundtrip": q_tokenize_roundtrip,
    "remap_roundtrip": q_remap_roundtrip,
    "merge_dedup_scan": q_merge_dedup_scan,
    "merge_near_dedup_scan": q_merge_near_dedup_scan,
    "bpe_reencode_roundtrip": q_bpe_reencode_roundtrip,
    "jsonl_export_roundtrip": q_jsonl_export_roundtrip,
    "feather_roundtrip": q_feather_roundtrip,
    "bpe_merge_rounds": q_bpe_merge_rounds,
    "mixture_plan": q_mixture_plan,
    "dup_components": q_dup_components,
    "pq_codes": q_pq_codes,
    "pq_knn_search": q_pq_knn_search,
    "image_dedup_docs": q_image_dedup_docs,
    "cms_token_counts": q_cms_token_counts,
    "local_supplier_volume": q_local_supplier_volume,
    "returned_items": q_returned_items,
    "large_volume_orders": q_large_volume_orders,
    "promo_revenue": q_promo_revenue,
    "cust_order_distribution": q_cust_order_distribution,
    "market_share": q_market_share,
    "nation_profit": q_nation_profit,
    "waiting_supplier": q_waiting_supplier,
    "supplier_cnt_by_part": q_supplier_cnt_by_part,
    "top_revenue_supplier": q_top_revenue_supplier,
    "min_cost_supplier": q_min_cost_supplier,
    "important_parts": q_important_parts,
    "excess_suppliers": q_excess_suppliers,
    "small_qty_revenue": q_small_qty_revenue,
    "bracket_revenue": q_bracket_revenue,
    "idle_customer_balance": q_idle_customer_balance,
    "user_cumulative_value": q_user_cumulative_value,
    "embedding_dedup_vecs": q_embedding_dedup_vecs,
    "normalize_text": q_normalize_text,
    "value_winsorized": q_value_winsorized,
    "source_distinct_trigram_ratio": q_source_distinct_trigram_ratio,
    "vocab_rank_map": q_vocab_rank_map,
    "near_dup_cluster_sizes": q_near_dup_cluster_sizes,
    "orders_cumulative_by_date": q_orders_cumulative_by_date,
    "source_trigram_entropy": q_source_trigram_entropy,
    "user_first_last_event": q_user_first_last_event,
    "brand_discount_stats": q_brand_discount_stats,
    "forecast_revenue": q_forecast_revenue,
    "priority_return_orders": q_priority_return_orders,
    "linestatus_priority_mix": q_linestatus_priority_mix,
    "top_orders_per_cust": q_top_orders_per_cust,
    "event_type_distinct_users": q_event_type_distinct_users,
    "user_event_gaps": q_user_event_gaps,
    "props_k_histogram": q_props_k_histogram,
    "props_k_by_type": q_props_k_by_type,
    "source_nucleus_vocab": q_source_nucleus_vocab,
    "rare_token_docs": q_rare_token_docs,
    "profile_orders": q_profile_orders,
    "price_range_scan": q_price_range_scan,
    "nation_trade_volume": q_nation_trade_volume,
    "orders_month_delta": q_orders_month_delta,
    "token_zipf_fit": q_token_zipf_fit,
    "order_lines_histogram": q_order_lines_histogram,
    "token_pagerank": q_token_pagerank,
    "decode_members": q_decode_members,
    "event_anomaly_days": q_event_anomaly_days,
    "embedding_norm_stats": q_embedding_norm_stats,
    "orc_scan": q_orc_scan,
    "decode_stats": q_decode_stats,
    "decode_filtered": q_decode_filtered,
    "delete_scan": q_delete_scan,
    "delete_purge_scan": q_delete_purge_scan,
    "upsert_scan": q_upsert_scan,
    "snapshot_scan": q_snapshot_scan,
    "merge_scan": q_merge_scan,
    "ingest_scan": q_ingest_scan,
    "annotate_scan": q_annotate_scan,
    "annotate_quality_scan": q_annotate_quality_scan,
    "annotate_langid_scan": q_annotate_langid_scan,
    "phrase_search_scan": q_phrase_search_scan,
    "phrase_positions_scan": q_phrase_positions_scan,
    "corpus_grep_scan": q_corpus_grep_scan,
    "packed_export_scan": q_packed_export_scan,
    "packed_boundaries_scan": q_packed_boundaries_scan,
    "packed_curriculum_scan": q_packed_curriculum_scan,
    "packed_curriculum_desc_scan": q_packed_curriculum_desc_scan,
    "packed_filtered_scan": q_packed_filtered_scan,
    "packed_mixture_scan": q_packed_mixture_scan,
    "corpus_diff_scan": q_corpus_diff_scan,
}

_VOCAB_CTE = """
with w as (select unnest(string_split(text, ' ')) as word from documents),
v as (select word, row_number() over (order by word) - 1 as token
      from (select distinct word from w))
"""

ORACLE_SQL = {
    "per_source_stats": """
        select source,
               cast(count(*) as bigint) as n_docs,
               cast(sum(len(string_split(text, ' '))) as bigint) as sum_tok,
               cast(sum(len(string_split(text, ' '))) as bigint)::double / count(*) as avg_tok
        from documents group by source
    """,
    "cms_token_counts": _VOCAB_CTE
    + """,
    c as (select word, cast(count(*) as bigint) as cnt from w group by word)
    select cast(v.token as bigint) as token, c.cnt as cnt from v join c using (word)
    """,
    "token_histogram": _VOCAB_CTE
    + """,
    c as (select word, cast(count(*) as bigint) as cnt from w group by word)
    select cast(v.token as bigint) as token, c.cnt as cnt from v join c using (word)
    """,
    "token_bigrams": _VOCAB_CTE
    + """,
    d as (select doc_id, string_split(text, ' ') as ws from documents),
    u as (select doc_id, unnest(ws) as w1, generate_subscripts(ws, 1) as i from d),
    p as (select w1, lead(w1) over (partition by doc_id order by i) as w2 from u),
    c as (select w1, w2, cast(count(*) as bigint) as cnt from p
          where w2 is not null group by w1, w2)
    select cast(v1.token as bigint) as t1, cast(v2.token as bigint) as t2, c.cnt as cnt
    from c join v v1 on c.w1 = v1.word join v v2 on c.w2 = v2.word
    """,
    "bigram_lm_score": _VOCAB_CTE
    + """,
    d as (select doc_id, string_split(text, ' ') as ws from documents),
    u as (select doc_id, unnest(ws) as w, generate_subscripts(ws, 1) as i from d),
    p as (select doc_id, w as w1, lead(w) over (partition by doc_id order by i) as w2
          from u),
    pp as (select doc_id, w1, w2 from p where w2 is not null),
    bc as (select w1, w2, cast(count(*) as bigint) as c12 from pp group by w1, w2),
    cc as (select w1, cast(sum(c12) as bigint) as ctx from bc group by w1),
    vn as (select cast(count(*) as double) as vsz from v),
    m as (select pp.doc_id,
                 cast(round(ln((bc.c12 + 1) / (cc.ctx + vn.vsz)), 6) * 1000000
                      as bigint) as mn
          from pp join bc using (w1, w2) join cc using (w1), vn)
    select cast(doc_id as bigint) as doc_id,
           cast(count(*) as bigint) as n_pairs,
           round(cast(sum(mn) as double) / count(*) / 1000000.0, 6) as lm_score
    from m group by doc_id
    """,
    "label_centroids": """
    with e as (select label, cast(embedding as double[]) as v from embeddings),
    eu as (select label, unnest(v) as x, generate_subscripts(v, 1) as j from e)
    select cast(label as bigint) as label, cast(j as bigint) as dim,
           round(avg(x), 6) as c
    from eu group by label, j
    """,
    "events_value_norm": """
    with mm as (select event_type, min(value) as lo, max(value) as hi
                from events group by event_type)
    select e.event_id, e.event_type,
           round(case when mm.hi > mm.lo
                      then (e.value - mm.lo) / (mm.hi - mm.lo) else 0 end, 6) as vnorm
    from events e join mm using (event_type)
    """,
    "value_share": """
    with c as (select event_type,
                      cast(sum(cast(round(value * 100) as bigint)) as bigint) as cents
               from events group by event_type),
    t as (select cast(sum(cents) as double) as total from c)
    select c.event_type, c.cents, round(c.cents / t.total, 6) as share
    from c, t
    """,
    "c4_quality_filter": f"""
    with q as (select cast(doc_id as varchar) as doc_id,
        cast(len(string_split(text, ' ')) as bigint) as n_words,
        cast(len(list_filter(string_split(text, ' '), x -> x in ('a', 'the')))
             as bigint)::double / len(string_split(text, ' ')) as stop_ratio
      from documents)
    select doc_id, n_words, stop_ratio from q
    where n_words between {C4_MIN_WORDS} and {C4_MAX_WORDS}
      and stop_ratio >= {C4_MIN_STOP}
    """,
    "train_test_split": f"""
    select cast(doc_id as varchar) as doc_id,
           case when substr(md5(cast(doc_id as varchar)), 1, 6) < '{SPLIT_TEST_CUT}'
                then 'test'
                when substr(md5(cast(doc_id as varchar)), 1, 6) < '{SPLIT_VAL_CUT}'
                then 'val' else 'train' end as split
    from documents
    """,
    "temperature_sample": f"""
    with c as (select source, cast(sum(n_chars) as double) as chars,
                      cast(count(*) as bigint) as n
               from documents group by source),
    w as (select source, n, pow(chars, {TEMP_ALPHA}) as w from c),
    t as (select source, n,
                 cast(floor({TEMP_TOTAL} * w / (select sum(w) from w) + 0.5) as bigint) as tgt
          from w),
    cut as (select source,
                   printf('%06x', least(tgt * 16777216 // n, 16777215)) as cut
            from t)
    select cast(d.doc_id as varchar) as doc_id, d.source
    from documents d join cut using (source)
    where substr(md5(cast(d.doc_id as varchar)), 1, 6) < cut.cut
    """,
    "dup_span_coverage": """
    with d as (select doc_id, string_split(text, ' ') as ws from documents),
    u as (select doc_id, unnest(ws) as w1, generate_subscripts(ws, 1) as i from d),
    t as (select doc_id, i, w1,
                 lead(w1, 1) over (partition by doc_id order by i) as w2,
                 lead(w1, 2) over (partition by doc_id order by i) as w3
          from u),
    tt as (select doc_id, i, w1, w2, w3 from t where w3 is not null),
    df as (select w1, w2, w3, count(distinct doc_id) as df
           from tt group by w1, w2, w3),
    hits as (select tt.doc_id, tt.i from tt join df using (w1, w2, w3)
             where df.df > 1),
    covered as (select distinct doc_id, i + o as p
                from hits, (select unnest([0, 1, 2]) as o)),
    cov as (select doc_id, cast(count(*) as bigint) as n_cov
            from covered group by doc_id),
    nt as (select doc_id, cast(len(string_split(text, ' ')) as bigint) as n_tok
           from documents)
    select cast(nt.doc_id as bigint) as doc_id, nt.n_tok,
           coalesce(cov.n_cov, 0) as n_cov,
           round(coalesce(cov.n_cov, 0) / nt.n_tok, 6) as cov_frac
    from nt left join cov using (doc_id)
    """,
    "chunk_documents": _VOCAB_CTE
    + f""",
    d as (select doc_id, string_split(text, ' ') as ws from documents),
    u2 as (select uw.doc_id, uw.i, v.token
           from (select doc_id, unnest(ws) as word,
                        generate_subscripts(ws, 1) as i from d) uw
           join v on uw.word = v.word),
    starts as (select doc_id, unnest(generate_series(0, len(ws) - 1, {CHUNK_S})) as s
               from d),
    c as (select st.doc_id, st.s // {CHUNK_S} as chunk_idx, st.s as start,
                 cast(count(*) as bigint) as n_chunk_tok,
                 cast(sum(u2.token) as bigint) as tok_sum
          from starts st join u2 on u2.doc_id = st.doc_id
               and u2.i > st.s and u2.i <= st.s + {CHUNK_L}
          group by st.doc_id, st.s)
    select cast(doc_id as bigint) as doc_id, cast(chunk_idx as bigint) as chunk_idx,
           cast(start as bigint) as start, n_chunk_tok, tok_sum
    from c
    """,
    "span_trim": _VOCAB_CTE
    + """,
    d as (select doc_id, string_split(text, ' ') as ws from documents),
    u2 as (select uw.doc_id, uw.i, v.token
           from (select doc_id, unnest(ws) as word,
                        generate_subscripts(ws, 1) as i from d) uw
           join v using (word)),
    t as (select doc_id, i, token,
                 lead(token, 1) over (partition by doc_id order by i) as t2,
                 lead(token, 2) over (partition by doc_id order by i) as t3
          from u2),
    tt as (select doc_id, i, token as t1, t2, t3 from t where t3 is not null),
    df as (select t1, t2, t3, count(distinct doc_id) as df
           from tt group by t1, t2, t3),
    hits as (select tt.doc_id, tt.i from tt join df using (t1, t2, t3)
             where df.df > 1),
    covered as (select distinct doc_id, i + o as p
                from hits, (select unnest([0, 1, 2]) as o)),
    keep as (select u2.doc_id, u2.token
             from u2 left join covered
                  on u2.doc_id = covered.doc_id and u2.i = covered.p
             where covered.p is null),
    agg as (select doc_id, cast(count(*) as bigint) as n_keep,
                   cast(sum(token) as bigint) as keep_tok_sum
            from keep group by doc_id),
    nt as (select doc_id, cast(len(string_split(text, ' ')) as bigint) as n_tok
           from documents)
    select cast(nt.doc_id as bigint) as doc_id, nt.n_tok,
           coalesce(agg.n_keep, 0) as n_keep,
           coalesce(agg.keep_tok_sum, 0) as keep_tok_sum
    from nt left join agg using (doc_id)
    """,
    "longest_dup_span": """
    with d as (select doc_id, string_split(text, ' ') as ws from documents),
    u as (select doc_id, unnest(ws) as w1, generate_subscripts(ws, 1) as i from d),
    t as (select doc_id, i, w1,
                 lead(w1, 1) over (partition by doc_id order by i) as w2,
                 lead(w1, 2) over (partition by doc_id order by i) as w3
          from u),
    tt as (select doc_id, i, w1, w2, w3 from t where w3 is not null),
    df as (select w1, w2, w3, count(distinct doc_id) as df
           from tt group by w1, w2, w3),
    hits as (select tt.doc_id, tt.i from tt join df using (w1, w2, w3)
             where df.df > 1),
    covered as (select distinct doc_id, i + o as p
                from hits, (select unnest([0, 1, 2]) as o)),
    isl as (select doc_id, p,
                   p - row_number() over (partition by doc_id order by p) as grp
            from covered),
    runs as (select doc_id, cast(count(*) as bigint) as runlen
             from isl group by doc_id, grp),
    best as (select doc_id, max(runlen) as max_dup_run from runs group by doc_id),
    nt as (select doc_id, cast(len(string_split(text, ' ')) as bigint) as n_tok
           from documents)
    select cast(nt.doc_id as bigint) as doc_id, nt.n_tok,
           coalesce(best.max_dup_run, 0) as max_dup_run
    from nt left join best using (doc_id)
    """,
    "value_outliers": """
    with c as (select event_id, event_type,
                      cast(round(value * 100) as bigint) as cents
               from events),
    m as (select event_type,
                 percentile_disc(0.5) within group (order by cents) as med
          from c group by event_type),
    md as (select c.event_type,
                  cast(percentile_disc(0.5) within group
                       (order by abs(c.cents - m.med)) as bigint) as mad
           from c join m using (event_type) group by c.event_type)
    select c.event_id, c.event_type,
           abs(c.cents - m.med) as dev_cents
    from c join m using (event_type) join md using (event_type)
    where abs(c.cents - m.med) > 3 * md.mad
    """,
    "doc_len_gini": """
    with r as (select source, n_chars,
                      row_number() over (partition by source
                                         order by n_chars) as rn
               from documents)
    select source,
           floor((2.0 * sum(rn * n_chars) / (count(*) * sum(n_chars))
                  - (count(*) + 1.0) / count(*)) * 1e6 + 0.5) / 1e6 as gini
    from r group by source
    """,
    "doc_novelty": """
    with d as (select doc_id, string_split(text, ' ') as ws from documents),
    u as (select doc_id, unnest(ws) as w1, generate_subscripts(ws, 1) as i from d),
    t as (select doc_id, w1,
                 lead(w1, 1) over (partition by doc_id order by i) as w2,
                 lead(w1, 2) over (partition by doc_id order by i) as w3
          from u),
    tt as (select distinct doc_id, w1, w2, w3 from t where w3 is not null),
    f as (select w1, w2, w3, min(doc_id) as first_doc
          from tt group by w1, w2, w3)
    select cast(tt.doc_id as bigint) as doc_id,
           cast(count(*) as bigint) as n_tri,
           cast(sum(case when tt.doc_id = f.first_doc then 1 else 0 end)
                as bigint) as n_novel,
           floor(sum(case when tt.doc_id = f.first_doc then 1 else 0 end)::double
                 / count(*) * 1e6 + 0.5) / 1e6 as novelty
    from tt join f using (w1, w2, w3)
    group by tt.doc_id
    """,
    "source_jaccard": """
    with d as (select doc_id, source, string_split(text, ' ') as ws from documents),
    u as (select doc_id, source, unnest(ws) as w1,
                 generate_subscripts(ws, 1) as i from d),
    t as (select doc_id, source, w1,
                 lead(w1, 1) over (partition by doc_id order by i) as w2,
                 lead(w1, 2) over (partition by doc_id order by i) as w3
          from u),
    tt as (select distinct source, w1, w2, w3 from t where w3 is not null),
    tot as (select source, cast(count(*) as bigint) as n from tt group by source),
    p as (select a.source as s1, b.source as s2,
                 cast(count(*) as bigint) as shared
          from tt a join tt b using (w1, w2, w3)
          where a.source < b.source
          group by a.source, b.source)
    select p.s1, p.s2, p.shared,
           floor(p.shared::double / (ta.n + tb.n - p.shared) * 1e6 + 0.5) / 1e6
               as jaccard
    from p join tot ta on p.s1 = ta.source join tot tb on p.s2 = tb.source
    """,
    "source_overlap": """
    with d as (select doc_id, source, string_split(text, ' ') as ws from documents),
    u as (select doc_id, source, unnest(ws) as w1,
                 generate_subscripts(ws, 1) as i from d),
    t as (select doc_id, source, w1,
                 lead(w1, 1) over (partition by doc_id order by i) as w2,
                 lead(w1, 2) over (partition by doc_id order by i) as w3
          from u),
    tt as (select distinct source, w1, w2, w3 from t where w3 is not null)
    select a.source as s1, b.source as s2, cast(count(*) as bigint) as shared
    from tt a join tt b using (w1, w2, w3)
    where a.source < b.source
    group by a.source, b.source
    """,
    "value_mad": """
    with c as (select event_type, cast(round(value * 100) as bigint) as cents
               from events),
    m as (select event_type,
                 percentile_disc(0.5) within group (order by cents) as med_cents
          from c group by event_type)
    select c.event_type, m.med_cents,
           cast(percentile_disc(0.5) within group (order by abs(c.cents - m.med_cents))
                as bigint) as mad_cents
    from c join m using (event_type)
    group by c.event_type, m.med_cents
    """,
    "token_degree": _VOCAB_CTE
    + """,
    d as (select doc_id, string_split(text, ' ') as ws from documents),
    u as (select uw.doc_id, uw.i, v.token
          from (select doc_id, unnest(ws) as word,
                       generate_subscripts(ws, 1) as i from d) uw
          join v using (word)),
    bi as (select a.token as t1, b.token as t2
           from u a join u b on a.doc_id = b.doc_id and b.i = a.i + 1),
    und as (select distinct least(t1, t2) as lo, greatest(t1, t2) as hi
            from bi where t1 <> t2),
    deg as (select lo as token, count(*) as c from und group by lo
            union all
            select hi as token, count(*) as c from und group by hi)
    select cast(token as bigint) as token, cast(sum(c) as bigint) as degree
    from deg group by token
    """,
    "centroid_classify": """
    with e as (select vec_id, cast(label as bigint) as label,
                      cast(embedding as double[]) as v from embeddings),
    eu as (select vec_id, label, unnest(v) as x, generate_subscripts(v, 1) as j from e),
    c as (select label as clabel, j, round(avg(x), 6) as c
          from eu group by label, j),
    dist as (select eu.vec_id, c.clabel,
                    sum((eu.x - c.c) * (eu.x - c.c)) as d2
             from eu join c on eu.j = c.j
             group by eu.vec_id, c.clabel),
    pred as (select vec_id, clabel,
                    row_number() over (partition by vec_id
                                       order by d2, clabel) as rn
             from dist),
    p1 as (select vec_id, clabel from pred where rn = 1),
    lab as (select vec_id, cast(label as bigint) as label from embeddings)
    select lab.label, cast(count(*) as bigint) as n,
           cast(sum(case when p1.clabel = lab.label then 1 else 0 end) as bigint) as n_correct,
           floor(sum(case when p1.clabel = lab.label then 1 else 0 end)::double
                 / count(*) * 1e6 + 0.5) / 1e6 as acc
    from lab join p1 using (vec_id)
    group by lab.label
    """,
    "embedding_quantize": """
    with e as (select vec_id, cast(embedding as double[]) as v from embeddings),
    eu as (select vec_id, unnest(v) as x from e),
    s as (select vec_id, max(abs(x)) / 127.0 as scale from eu group by vec_id),
    q as (select eu.vec_id,
                 sign(eu.x / (case when s.scale > 0 then s.scale else 1 end))
                 * floor(abs(eu.x / (case when s.scale > 0 then s.scale else 1 end)) + 0.5) as qi
          from eu join s using (vec_id))
    select q.vec_id,
           floor(s.scale * 1e9 + 0.5) / 1e9 as scale,
           cast(sum(q.qi) as bigint) as q_sum,
           cast(sum(abs(q.qi)) as bigint) as q_abs_sum,
           cast(max(q.qi) as bigint) as q_max
    from q join s using (vec_id)
    group by q.vec_id, s.scale
    """,
    "events_zscore": """
    with c as (select event_id, event_type,
                      cast(round(value * 100) as bigint) as cents
               from events),
    m as (select event_type, sum(cents) as s, sum(cents * cents) as s2,
                 cast(count(*) as bigint) as n
          from c group by event_type),
    st as (select event_type,
                  cast(s as double) / n / 100.0 as mean,
                  sqrt((cast(s2 as double) / 10000.0
                        - n * (cast(s as double) / n / 100.0)
                            * (cast(s as double) / n / 100.0)) / n) as sd
           from m)
    select c.event_id, c.event_type,
           case when st.sd > 0 then
                sign((c.cents / 100.0 - st.mean) / st.sd)
                * floor(abs((c.cents / 100.0 - st.mean) / st.sd) * 1e6 + 0.5) / 1e6
                else 0.0 end as z
    from c join st using (event_type)
    """,
    "vocab_growth": _VOCAB_CTE
    + """,
    u as (select doc_id, v.token
          from (select doc_id, unnest(string_split(text, ' ')) as word
                from documents) uw
          join v using (word)),
    f as (select token, min(doc_id) as first_doc from u group by token),
    g as (select first_doc as doc_id, cast(count(*) as bigint) as new_tokens
          from f group by first_doc)
    select cast(doc_id as bigint) as doc_id, new_tokens,
           cast(sum(new_tokens) over (order by doc_id) as bigint) as cum_vocab
    from g
    """,
    "top_trigrams_per_source": _VOCAB_CTE
    + f""",
    d as (select doc_id, source, string_split(text, ' ') as ws from documents),
    u as (select uw.doc_id, uw.source, uw.i, v.token
          from (select doc_id, source, unnest(ws) as word,
                       generate_subscripts(ws, 1) as i from d) uw
          join v using (word)),
    t as (select doc_id, source, token as t1, i,
                 lead(token, 1) over (partition by doc_id order by i) as t2,
                 lead(token, 2) over (partition by doc_id order by i) as t3
          from u),
    c as (select source, t1, t2, t3, cast(count(*) as bigint) as cnt
          from t where t3 is not null group by source, t1, t2, t3),
    r as (select *, row_number() over (partition by source
                                       order by cnt desc, t1, t2, t3) as rank
          from c)
    select source, cast(rank as bigint) as rank,
           cast(t1 as bigint) as t1, cast(t2 as bigint) as t2,
           cast(t3 as bigint) as t3, cnt
    from r where rank <= {TOP_TRI_K}
    """,
    "session_stats": """
    with o as (select user_id, ts, event_id, value,
                      lag(ts) over (partition by user_id
                                    order by ts, event_id) as pts
               from events),
    s as (select user_id, value,
                 sum(case when pts is null
                          or epoch_us(ts) - epoch_us(pts) > 1800000000
                          then 1 else 0 end)
                 over (partition by user_id order by ts, event_id
                       rows unbounded preceding) as sess
          from o)
    select user_id, cast(sess as bigint) as session_no,
           cast(count(*) as bigint) as n_events,
           cast(sum(cast(round(value * 100) as bigint)) as bigint) as value_cents
    from s group by user_id, sess
    """,
    "event_transitions": """
    with s as (select user_id, event_type,
                      lead(event_type) over (partition by user_id
                                             order by ts, event_id) as nxt
               from events)
    select event_type as t_from, nxt as t_to, cast(count(*) as bigint) as cnt
    from s where nxt is not null
    group by event_type, nxt
    """,
    "user_paths": """
    select user_id, cast(count(*) as bigint) as n_events,
           string_agg(event_type, '->' order by ts, event_id) as path
    from events group by user_id
    """,
    "user_paths_capped": """
    select user_id, cast(count(*) as bigint) as n_events,
           array_to_string(list_slice(list(event_type order by ts, event_id), 1, 8),
                           '->') as path
    from events group by user_id
    """,
    "interleave_sources": """
    with r as (select cast(doc_id as varchar) as doc_id, source,
                      row_number() over (partition by source
                                         order by md5(cast(doc_id as varchar)))
                      - 1 as rn
               from documents),
    s as (select source, row_number() over (order by source) - 1 as si
          from (select distinct source from documents)),
    n as (select cast(count(*) as bigint) as n_src from s)
    select r.doc_id, r.source,
           cast(r.rn * n.n_src + s.si as bigint) as pos
    from r join s using (source), n
    """,
    "source_kl": _VOCAB_CTE
    + """,
    u as (select uw.source, v.token
          from (select source, unnest(string_split(text, ' ')) as word
                from documents) uw
          join v using (word)),
    st as (select source, token, cast(count(*) as double) as c
           from u group by source, token),
    sums as (select source, sum(c) as n_s from st group by source),
    tots as (select token, sum(c) as c_t from st group by token),
    nn as (select sum(c) as n from st),
    terms as (select st.source,
                     (st.c / s.n_s) * ln((st.c * nn.n) / (s.n_s * t.c_t)) as term
              from st join sums s using (source) join tots t using (token), nn),
    ti as (select source,
                  cast(floor(abs(term) * 1e9 + 0.5) as bigint)
                  * (case when term < 0 then -1 else 1 end) as q
           from terms)
    select source, round(sign(sum(q)) * floor(abs(sum(q) / 1e9) * 1e6 + 0.5) / 1e6, 6) as kl
    from ti group by source
    """,
    "oov_rate": _VOCAB_CTE
    + f""",
    u as (select doc_id, v.token
          from (select doc_id, unnest(string_split(text, ' ')) as word from documents) uw
          join v using (word)),
    hist as (select token, count(*) as cnt from u group by token),
    topk as (select token from hist
             order by cnt desc, token asc limit {OOV_TOP_K}),
    s as (select doc_id, cast(count(*) as bigint) as n_tok,
                 cast(count(*) filter (where token not in (select token from topk))
                      as bigint) as n_oov
          from u group by doc_id)
    select cast(doc_id as bigint) as doc_id, n_tok, n_oov,
           round(n_oov / n_tok, 6) as oov_frac
    from s
    """,
    "doc_len_mode": """
    select source, mode_len, cnt from (
      select source, n_chars as mode_len, cast(count(*) as bigint) as cnt,
             row_number() over (partition by source
                                order by count(*) desc, n_chars asc) as rn
      from documents group by source, n_chars) t
    where rn = 1
    """,
    "token_skipgrams": _VOCAB_CTE
    + """,
    d as (select doc_id, string_split(text, ' ') as ws from documents),
    u as (select doc_id, unnest(ws) as w1, generate_subscripts(ws, 1) as i from d),
    p as (select w1, lead(w1, 1) over (partition by doc_id order by i) as wa,
                 lead(w1, 2) over (partition by doc_id order by i) as wb
          from u),
    pairs as (select w1, wa as w2 from p where wa is not null
              union all
              select w1, wb as w2 from p where wb is not null),
    c as (select w1, w2, cast(count(*) as bigint) as cnt from pairs group by w1, w2)
    select cast(v1.token as bigint) as t1, cast(v2.token as bigint) as t2, c.cnt as cnt
    from c join v v1 on c.w1 = v1.word join v v2 on c.w2 = v2.word
    """,
    "kmeans_clusters": """
    with e as (select vec_id, cast(embedding as double[]) as v from embeddings),
    eu as (select vec_id, unnest(v) as x, generate_subscripts(v, 1) as j from e),
    c0 as (select vec_id as cid, v from e where vec_id < 4),
    cu0 as (select cid, unnest(v) as c, generate_subscripts(v, 1) as j from c0),
    d1 as (select eu.vec_id, cu0.cid,
                  round(sum((eu.x - cu0.c) * (eu.x - cu0.c)), 6) as d2
           from eu join cu0 using (j) group by eu.vec_id, cu0.cid),
    a1 as (select vec_id, cid from (
             select vec_id, cid,
                    row_number() over (partition by vec_id order by d2, cid) as rn
             from d1) t where rn = 1),
    cu1 as (select a1.cid, eu.j, round(avg(eu.x), 6) as c
            from a1 join eu using (vec_id) group by a1.cid, eu.j),
    dd2 as (select eu.vec_id, cu1.cid,
                   round(sum((eu.x - cu1.c) * (eu.x - cu1.c)), 6) as d2
            from eu join cu1 on eu.j = cu1.j group by eu.vec_id, cu1.cid),
    a2 as (select vec_id, cid from (
             select vec_id, cid,
                    row_number() over (partition by vec_id order by d2, cid) as rn
             from dd2) t where rn = 1)
    select cast(vec_id as bigint) as vec_id, cast(cid as bigint) as cluster from a2
    """,
    "dup_trigram_fraction": """
    with d as (select doc_id, string_split(text, ' ') as ws from documents),
    u as (select doc_id, unnest(ws) as w1, generate_subscripts(ws, 1) as i from d),
    t as (select doc_id, w1,
                 lead(w1, 1) over (partition by doc_id order by i) as w2,
                 lead(w1, 2) over (partition by doc_id order by i) as w3
          from u),
    tt as (select doc_id, w1, w2, w3 from t where w3 is not null),
    df as (select w1, w2, w3, count(distinct doc_id) as df
           from tt group by w1, w2, w3),
    j as (select tt.doc_id, case when df.df > 1 then 1 else 0 end as dup
          from tt join df using (w1, w2, w3))
    select cast(doc_id as bigint) as doc_id,
           cast(count(*) as bigint) as n_tri,
           cast(sum(dup) as bigint) as n_dup,
           round(cast(sum(dup) as bigint) / count(*), 6) as dup_frac
    from j group by doc_id
    """,
    "token_idf": _VOCAB_CTE
    + """,
    w2 as (select distinct doc_id, word
           from (select doc_id, unnest(string_split(text, ' ')) as word from documents)),
    df as (select word, cast(count(*) as bigint) as df from w2 group by word),
    n as (select cast(count(*) as double) as n from documents)
    select cast(v.token as bigint) as token, df.df as df, round(ln(n.n / df.df), 6) as idf
    from v join df using (word), n
    """,
    "doc_len_quantiles_cont": """
    select source,
           round(percentile_cont(0.25) within group (order by n_chars), 6) as c25,
           round(percentile_cont(0.50) within group (order by n_chars), 6) as c50,
           round(percentile_cont(0.75) within group (order by n_chars), 6) as c75
    from documents group by source
    """,
    "events_pivot": """
    select cast(floor(epoch(ts) / 3600) as bigint) as hour,
           cast(sum(case when event_type = 'click' then 1 else 0 end) as bigint) as n_click,
           cast(sum(case when event_type = 'error' then 1 else 0 end) as bigint) as n_error,
           cast(sum(case when event_type = 'purchase' then 1 else 0 end) as bigint) as n_purchase,
           cast(sum(case when event_type = 'signup' then 1 else 0 end) as bigint) as n_signup,
           cast(sum(case when event_type = 'view' then 1 else 0 end) as bigint) as n_view
    from events group by hour
    """,
    "doc_len_quantiles": """
    select source,
           percentile_disc(0.25) within group (order by n_chars) as p25,
           percentile_disc(0.50) within group (order by n_chars) as p50,
           percentile_disc(0.75) within group (order by n_chars) as p75,
           percentile_disc(0.90) within group (order by n_chars) as p90,
           percentile_disc(0.99) within group (order by n_chars) as p99
    from documents group by source
    """,
    "price_quantiles": """
    select * from (
        select 0.01 as q, percentile_disc(0.01) within group (order by l_extendedprice) as value from lineitem
        union all
        select 0.25, percentile_disc(0.25) within group (order by l_extendedprice) from lineitem
        union all
        select 0.50, percentile_disc(0.50) within group (order by l_extendedprice) from lineitem
        union all
        select 0.75, percentile_disc(0.75) within group (order by l_extendedprice) from lineitem
        union all
        select 0.99, percentile_disc(0.99) within group (order by l_extendedprice) from lineitem
    ) order by q
    """,
    "token_entropy": """
    with tok as (select doc_id, unnest(string_split(text, ' ')) as word from documents),
    f as (select word, cast(count(*) as double) as c from tok group by word),
    n as (select cast(count(*) as double) as total from tok)
    select t.doc_id, round(avg(ln(n.total) - ln(f.c)), 6) as xent
    from tok t join f using (word), n
    group by t.doc_id
    """,
    "bigram_entropy": """
    with w as (select doc_id, string_split(text, ' ') as ws from documents),
    pairs as (select doc_id, ws[i] as a, ws[i + 1] as b
              from w, unnest(range(1, len(ws))) as t(i)),
    bc as (select a, b, cast(count(*) as double) as c from pairs group by a, b),
    ac as (select a, cast(sum(c) as double) as ca from bc group by a)
    select p.doc_id, round(avg(ln(ac.ca) - ln(bc.c)), 6) as xent2
    from pairs p join bc using (a, b) join ac using (a)
    group by p.doc_id
    """,
    "source_lang_rollup": """
    select coalesce(source, 'ALL') as source, coalesce(lang, 'ALL') as lang,
           cast(count(*) as bigint) as n_docs,
           cast(sum(n_chars) as bigint) as sum_chars
    from documents group by rollup(source, lang)
    """,
    "source_lang_cube": """
    select coalesce(source, 'ALL') as source, coalesce(lang, 'ALL') as lang,
           cast(count(*) as bigint) as n_docs,
           cast(sum(n_chars) as bigint) as sum_chars
    from documents group by cube(source, lang)
    """,
    "doc_len_ntile": """
    select cast(doc_id as bigint) as doc_id, source,
           cast(ntile(4) over (partition by source order by n_chars, doc_id)
                as bigint) as tile
    from documents
    """,
    "len_tok_corr": """
    with m as (select source,
                      cast(count(*) as bigint) as n,
                      cast(sum(n_chars) as bigint) as sx,
                      cast(sum(len(string_split(text, ' '))) as bigint) as sy,
                      cast(sum(n_chars * len(string_split(text, ' '))) as bigint) as sxy,
                      cast(sum(n_chars * n_chars) as bigint) as sxx,
                      cast(sum(len(string_split(text, ' '))
                               * len(string_split(text, ' '))) as bigint) as syy
               from documents group by source)
    select source,
           round(cast(n * sxy - sx * sy as double)
                 / sqrt(cast(n * sxx - sx * sx as double)
                        * cast(n * syy - sy * sy as double)), 6) as corr_len_tok
    from m
    """,
    "viewer_buyer_sets": """
    with v as (select distinct user_id from events where event_type = 'view'),
    p as (select distinct user_id from events where event_type = 'purchase')
    select user_id, 'both' as op from (select user_id from v intersect select user_id from p)
    union all
    select user_id, 'view_only' as op from (select user_id from v except select user_id from p)
    union all
    select user_id, 'purchase_only' as op
    from (select user_id from p except select user_id from v)
    """,
    "shipping_priority": f"""
    select l_orderkey, o_orderdate,
           cast(sum(cast(round(l_extendedprice * 100) as bigint)
                    * cast(round((1 - l_discount) * 100) as bigint)) as bigint) as rev_e4
    from customer
    join orders on c_custkey = o_custkey
    join lineitem on l_orderkey = o_orderkey
    where c_mktsegment = '{SHIP_SEGMENT}'
      and o_orderdate < timestamp '{SHIP_CUTOFF}'
      and l_shipdate > timestamp '{SHIP_CUTOFF}'
    group by l_orderkey, o_orderdate
    order by rev_e4 desc, l_orderkey
    limit {SHIP_TOP_K}
    """,
    "distinct_sources": "select distinct source from documents",
    "top_docs_by_len": """
        select cast(doc_id as varchar) as doc_id,
               cast(len(string_split(text, ' ')) as int) as n_tok,
               source
        from documents
        order by n_tok desc, cast(doc_id as varchar) asc limit 10
    """,
    "dedup_text_stats": """
        select source,
               cast(count(distinct text) as bigint) as n_unique_text,
               cast(count(*) as bigint) as n_docs
        from documents group by source
    """,
    "text_quality": r"""
        select cast(doc_id as varchar) as doc_id,
               cast(length(text) as bigint) as n_chars,
               cast(len(string_split(text, ' ')) as bigint) as n_words,
               cast(len(list_filter(string_split(text, ' '), x -> x in ('a', 'the')))
                    as bigint)::double / len(string_split(text, ' ')) as stop_ratio,
               case when length(text) > 0 then
                    cast(length(text) - length(regexp_replace(text, '[^\w\s]', '', 'g'))
                         as bigint)::double / length(text)
                    else 0.0 end as punct_ratio,
               cast(length(replace(text, ' ', '')) as bigint)::double
                    / len(string_split(text, ' ')) as mean_word_len
        from documents
    """,
    "doc_fingerprint": """
        select cast(doc_id as varchar) as doc_id, md5(text) as fingerprint from documents
    """,
    "token_count_regex": rf"""
        select cast(doc_id as varchar) as doc_id,
               cast(len(regexp_extract_all(text, '{TOKEN_RE}')) as bigint) as n_tokens_re
        from documents
    """,
    "lang_stats": "select lang, cast(count(*) as bigint) as n_docs from documents group by lang",
    "exact_dedup_docs": """
        select cast(min(doc_id) as varchar) as doc_id from documents group by text
    """,
    "embedding_dup_pairs": f"""
        select a.vec_id as a, b.vec_id as b,
               round(list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]), 6) as score
        from embeddings a join embeddings b on a.vec_id < b.vec_id
        where round(list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]), 6) >= {COSINE_T}
    """,
    "ngram_dup_pairs": f"""
        with g as (
          select cast(doc_id as varchar) as doc_id, source,
                 list_distinct([ws[i] || ' ' || ws[i+1]
                                for i in generate_series(1, len(ws)-1)]) as grams
          from (select doc_id, source, string_split(text, ' ') as ws from documents)
        )
        select a.doc_id as a, b.doc_id as b,
               round(len(list_intersect(a.grams, b.grams))::double
                     / len(list_distinct(list_concat(a.grams, b.grams))), 6) as jaccard
        from g a join g b on a.source = b.source and a.doc_id < b.doc_id
        where len(a.grams) > 0 and len(b.grams) > 0
          and round(len(list_intersect(a.grams, b.grams))::double
                    / len(list_distinct(list_concat(a.grams, b.grams))), 6) >= {NGRAM_T}
    """,
    "seeded_sample": f"""
        select cast(doc_id as varchar) as doc_id, source from documents
        where substr(md5(cast(doc_id as varchar)), 1, 2) < '{SAMPLE_HEX}'
    """,
    "dup_components": f"""
        with recursive
        g as (
          select cast(doc_id as varchar) as doc_id, source,
                 list_distinct([ws[i] || ' ' || ws[i+1]
                                for i in generate_series(1, len(ws)-1)]) as grams
          from (select doc_id, source, string_split(text, ' ') as ws from documents)
        ),
        p as (
          select a.doc_id as a, b.doc_id as b
          from g a join g b on a.source = b.source and a.doc_id < b.doc_id
          where len(a.grams) > 0 and len(b.grams) > 0
            and round(len(list_intersect(a.grams, b.grams))::double
                      / len(list_distinct(list_concat(a.grams, b.grams))), 6) >= {NGRAM_T}
        ),
        e as (select a as node, b as nbr from p union select b, a from p),
        reach(node, r) as (
          select node, node from (select distinct node from e)
          union
          select e.nbr, reach.r from reach join e on e.node = reach.node
        )
        select node, min(r) as root from reach group by node
    """,
    "stratified_sample": f"""
        with c as (select source, count(*) as n from documents group by source),
        t as (select source,
                     printf('%06x', least((cast({STRATA_TARGET} as bigint) * 16777216) // n, 16777215)) as cut
              from c)
        select cast(d.doc_id as varchar) as doc_id, d.source
        from documents d join t using (source)
        where substr(md5(cast(d.doc_id as varchar)), 1, 6) < t.cut
    """,
    "orc_scan": """
        select cast(doc_id as varchar) as doc_id, source, n_chars from documents
    """,
    "decode_filtered": """
    select cast(doc_id as bigint) as doc_id,
           cast(len(string_split(text, ' ')) as bigint) as n_tok,
           source
    from documents
    where source in ('src0', 'src3', 'src7')
      and len(string_split(text, ' ')) between 25 and 80
    """,
    "delete_scan": """
    select cast(doc_id as bigint) as doc_id,
           cast(len(string_split(text, ' ')) as bigint) as n_tok,
           source
    from documents
    where cast(doc_id as varchar) not like '%7'
    """,
    "delete_purge_scan": """
    select cast(doc_id as bigint) as doc_id,
           cast(len(string_split(text, ' ')) as bigint) as n_tok,
           source
    from documents
    where cast(doc_id as varchar) not like '%7'
    """,
    "upsert_scan": """
    select cast(doc_id as bigint) as doc_id,
           cast(case when cast(doc_id as varchar) like '%3'
                     then least(len(string_split(text, ' ')), 10)
                     else len(string_split(text, ' ')) end as bigint) as n_tok,
           source
    from documents
    """,
    "snapshot_scan": """
    select cast(doc_id as bigint) as doc_id,
           cast(len(string_split(text, ' ')) as bigint) as n_tok,
           source
    from documents
    where cast(doc_id as bigint) % 2 = 0
    """,
    "merge_scan": """
    select cast(doc_id as bigint) as doc_id,
           cast(len(string_split(text, ' ')) as bigint) as n_tok,
           source
    from documents
    """,
    "ingest_scan": """
    select cast(doc_id as bigint) as doc_id,
           cast(len(string_split(text, ' ')) as bigint) as n_tok,
           source
    from documents
    """,
    "annotate_scan": """
    with s as (select doc_id, string_split(text, ' ') as ws from documents),
    t as (select doc_id, unnest(ws) as word, generate_subscripts(ws, 1) as ord from s),
    runs as (select doc_id, word,
                    ord - row_number() over (partition by doc_id, word order by ord) as grp
             from t),
    rl as (select doc_id, cast(count(*) as bigint) as run
           from runs group by doc_id, word, grp),
    mr as (select doc_id, max(run) as max_run from rl group by doc_id),
    agg as (select doc_id, cast(count(*) as bigint) as n_tok,
                   cast(count(distinct word) as bigint) as n_distinct
            from t group by doc_id)
    select cast(a.doc_id as bigint) as doc_id, a.n_tok, a.n_distinct,
           cast(a.n_distinct as double) / cast(a.n_tok as double) as distinct_ratio,
           1.0 - cast(a.n_distinct as double) / cast(a.n_tok as double) as repetition_ratio,
           mr.max_run
    from agg a join mr on a.doc_id = mr.doc_id
    """,

    "decode_stats": """
        select source,
               cast(count(*) as bigint) as n_docs,
               cast(sum(len(string_split(text, ' '))) as bigint) as sum_tok
        from documents group by source
    """,
    "ivf_knn_search": f"""
        select q.vec_id as qid, e.vec_id as nid,
               round(list_cosine_similarity(q.embedding::DOUBLE[], e.embedding::DOUBLE[]), 6) as score
        from embeddings q join embeddings e on e.vec_id != q.vec_id
        where q.vec_id in {tuple(KNN_QIDS)}
        qualify row_number() over (
            partition by q.vec_id
            order by round(list_cosine_similarity(q.embedding::DOUBLE[], e.embedding::DOUBLE[]), 6) desc,
                     e.vec_id asc
        ) <= {KNN_K}
    """,
    "events_rolling_avg": """
        select event_id, user_id, ts,
               count(*) over w as n_win,
               round(sum(cast(round(value * 100) as bigint)) over w
                     / (100.0 * count(*) over w), 6) as roll_avg
        from events
        window w as (partition by user_id order by ts
                     range between interval 10 minutes preceding and current row)
    """,
    "csv_export_roundtrip": """
        select doc_id, text, lang, source, n_chars from documents
    """,
    "tokenize_roundtrip": """
        select cast(doc_id as varchar) as doc_id, text, source from documents
    """,
    "remap_roundtrip": """
        select cast(doc_id as varchar) as doc_id, text, source
        from documents where n_chars % 3 = 0
    """,
    "merge_dedup_scan": """
        select cast(doc_id as varchar) as doc_id, source,
               cast(len(string_split(text, ' ')) as int) as n_tok
        from documents
        union all
        select 'nv-' || cast(doc_id as varchar), source,
               cast(len(string_split(text, ' ')) + 1 as int)
        from documents where cast(doc_id as bigint) % 3 = 0
    """,
    "merge_near_dedup_scan": """
        select cast(doc_id as varchar) as doc_id, source,
               cast(len(string_split(text, ' ')) as int) as n_tok
        from documents
        union all
        select 'fz-' || cast(doc_id as varchar), source,
               cast(len(string_split(text, ' ')) as int)
        from documents where cast(doc_id as bigint) % 3 = 0
    """,
    "bpe_reencode_roundtrip": """
        select cast(doc_id as varchar) as doc_id, text, source from documents
    """,
    "jsonl_export_roundtrip": """
        select event_id, cast(epoch_us(ts) as bigint) as ts_us, user_id, event_type
        from events
    """,
    "feather_roundtrip": """
        select doc_id, text, lang, source, n_chars from documents
    """,
    "image_dedup_docs": """
        select min(doc_id) as doc_id,
               cast(16 as int) as width,
               cast(ceil(octet_length(encode(text)) / 16.0) as int) as height
        from documents group by text
    """,
    "mixture_plan": """
        with s as (
            select source,
                   cast(sum(len(string_split(text, ' '))) as bigint) as n_tokens,
                   cast(count(*) as bigint) as n_docs
            from documents group by source
        )
        select source, n_tokens, n_docs,
               round(pow(n_tokens, 0.5) / sum(pow(n_tokens, 0.5)) over (), 9) as weight,
               round(pow(n_tokens, 0.5) / sum(pow(n_tokens, 0.5)) over ()
                     * sum(n_tokens) over () / n_tokens, 9) as epochs
        from s order by source
    """,
    "bloom_orders_filter": """
        select o_orderkey, o_totalprice from orders o
        where exists (select 1 from lineitem l where l.l_orderkey = o.o_orderkey)
    """,
    "tfidf_top_terms": _VOCAB_CTE
    + """,
    d as (select doc_id, unnest(string_split(text, ' ')) as w1 from documents),
    c as (select doc_id, w1, cast(count(*) as bigint) as cnt from d group by doc_id, w1),
    dfx as (select w1, cast(count(distinct doc_id) as bigint) as df from d group by w1),
    n as (select cast(count(*) as double) as n from documents),
    s as (select c.doc_id, v.token, c.cnt,
                 c.cnt * cast(floor(ln(n.n / dfx.df) * 1000000 + 0.5) as bigint)
                   as score_e6
          from c join v on c.w1 = v.word join dfx on c.w1 = dfx.w1 cross join n),
    r as (select doc_id, token, cnt, score_e6,
                 row_number() over (partition by doc_id
                                    order by score_e6 desc, token asc) as rank
          from s)
    select doc_id, cast(token as bigint) as token, cnt,
           cast(score_e6 as double) / 1000000.0 as score, cast(rank as bigint) as rank
    from r where rank <= 3
    """,
    "token_pmi": _VOCAB_CTE
    + """,
    d as (select doc_id, string_split(text, ' ') as ws from documents),
    u as (select doc_id, unnest(ws) as w1, generate_subscripts(ws, 1) as i from d),
    p as (select w1, lead(w1) over (partition by doc_id order by i) as w2 from u),
    c as (select w1, w2, cast(count(*) as bigint) as cnt from p
          where w2 is not null group by w1, w2),
    n2 as (select cast(sum(cnt) as double) as n2 from c),
    uc as (select word, cast(count(*) as bigint) as c1
           from w group by word),
    n1 as (select cast(sum(c1) as double) as n1 from uc)
    select cast(v1.token as bigint) as t1, cast(v2.token as bigint) as t2,
           c.cnt as cnt,
           round(ln((c.cnt / n2.n2)
                    / ((ua.c1 / n1.n1) * (ub.c1 / n1.n1))), 6) as pmi
    from c
    join v v1 on c.w1 = v1.word join v v2 on c.w2 = v2.word
    join uc ua on c.w1 = ua.word join uc ub on c.w2 = ub.word
    cross join n1 cross join n2
    """,
    "decontaminate": """
        with d as (select doc_id, string_split(text, ' ') as ws from documents),
        g as (select doc_id,
                     list_distinct([ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2]
                                    for i in generate_series(1, len(ws) - 2)]) as grams
              from d),
        bench as (select distinct unnest(grams) as t from g where doc_id < 10),
        corp as (select doc_id, unnest(grams) as t from g where doc_id >= 10)
        select c.doc_id, cast(count(*) as bigint) as n_overlap
        from corp c join bench b on c.t = b.t
        group by c.doc_id
    """,
    "seeded_shuffle": """
        with k as (select doc_id, md5(cast(doc_id as varchar) || ':42') as h
                   from documents)
        select doc_id,
               cast(ascii(substr(h, 1, 1)) % 4 as bigint) as shard,
               cast(row_number() over (partition by ascii(substr(h, 1, 1)) % 4
                                       order by h) - 1 as bigint) as pos
        from k
    """,
    "repetition_ratio": """
        with d as (select doc_id, string_split(text, ' ') as ws from documents),
        u as (select doc_id, unnest(ws) as w1, generate_subscripts(ws, 1) as i from d),
        tri as (select doc_id, w1,
                       lead(w1) over (partition by doc_id order by i) as w2,
                       lead(w1, 2) over (partition by doc_id order by i) as w3
                from u),
        s as (select doc_id, w1 || ' ' || w2 || ' ' || w3 as t from tri
              where w3 is not null)
        select doc_id,
               cast(count(*) as bigint) as n_tri,
               cast(count(distinct t) as bigint) as n_distinct,
               round(1 - count(distinct t)::double / count(*), 6) as rep_ratio
        from s group by doc_id
    """,
    "packed_boundaries_scan": """
        with d as (select doc_id, string_split(text, ' ') as ws from documents),
        o as (select doc_id, len(ws) as n,
                     coalesce(sum(len(ws)) over (order by doc_id
                              rows between unbounded preceding and 1 preceding),
                              0) as base
              from d),
        s as (select base // 256 as c, base % 256 as off,
                     row_number() over (partition by base // 256
                                        order by base) as rnk
              from o where n > 0)
        select cast(c as bigint) as chunk_id,
               cast(count(*) as bigint) as n_starts,
               cast(sum(off) as bigint) as bnd_sum,
               cast(sum(off * rnk) as bigint) as bnd_wsum
        from s group by 1
    """,
    "packed_export_scan": _VOCAB_CTE
    + """,
    d as (select doc_id, string_split(text, ' ') as ws from documents),
    u as (select doc_id, unnest(ws) as w1, generate_subscripts(ws, 1) as i from d),
    o as (select doc_id,
                 coalesce(sum(len(ws)) over (order by doc_id
                          rows between unbounded preceding and 1 preceding), 0) as base
          from d),
    p as (select v.token as token, o.base + u.i - 1 as gpos
          from u join v on u.w1 = v.word join o on u.doc_id = o.doc_id)
    select cast(gpos // 256 as bigint) as chunk_id,
           cast(count(*) as bigint) as n_tok,
           cast(sum(token) as bigint) as tok_sum,
           cast(sum(token * (gpos % 256 + 1)) as bigint) as tok_wsum
    from p group by 1
    """,
    "corpus_diff_scan": """
        with a as (select distinct text from documents where doc_id % 3 <= 1),
             b as (select distinct text from documents where doc_id % 3 >= 1),
        j as (
          select case when b.text is null then 'removed'
                      when a.text is null then 'added'
                      else 'common' end as status,
                 count(*) as n
          from a full outer join b on a.text = b.text
          group by 1
        ),
        s(status) as (values ('removed'), ('common'), ('added'))
        select s.status, cast(coalesce(j.n, 0) as bigint) as n_contents
        from s left join j using (status)
    """,
    "packed_filtered_scan": _VOCAB_CTE
    + """,
    d0 as (select doc_id, string_split(text, ' ') as ws from documents),
    u0 as (select doc_id, unnest(ws) as w1, generate_subscripts(ws, 1) as i from d0),
    nd as (select doc_id, count(distinct w1) as ndist from u0 group by doc_id),
    d as (select d0.doc_id, d0.ws from d0 join nd using (doc_id)
          where nd.ndist >= 24),
    u as (select u0.* from u0 join d using (doc_id)),
    o as (select doc_id,
                 coalesce(sum(len(ws)) over (order by doc_id
                          rows between unbounded preceding and 1 preceding), 0) as base
          from d),
    p as (select v.token as token, o.base + u.i - 1 as gpos
          from u join v on u.w1 = v.word join o on u.doc_id = o.doc_id)
    select cast(gpos // 256 as bigint) as chunk_id,
           cast(count(*) as bigint) as n_tok,
           cast(sum(token) as bigint) as tok_sum,
           cast(sum(token * (gpos % 256 + 1)) as bigint) as tok_wsum
    from p group by 1
    """,
    "packed_mixture_scan": _VOCAB_CTE
    + """,
    cuts as (select * from (values ('src0', 0.35), ('src5', 0.6), ('src9', 0.0))
             c(source, rate)),
    d as (select doc.doc_id, string_split(doc.text, ' ') as ws
          from documents doc left join cuts using (source)
          where cuts.rate is null
             or substr(md5(cast(doc.doc_id as varchar)), 1, 6)
                < printf('%06x', least(cast(floor(cuts.rate * 16777216) as bigint),
                                       16777215))),
    u as (select doc_id, unnest(ws) as w1, generate_subscripts(ws, 1) as i from d),
    o as (select doc_id,
                 coalesce(sum(len(ws)) over (order by doc_id
                          rows between unbounded preceding and 1 preceding), 0) as base
          from d),
    p as (select v.token as token, o.base + u.i - 1 as gpos
          from u join v on u.w1 = v.word join o on u.doc_id = o.doc_id)
    select cast(gpos // 256 as bigint) as chunk_id,
           cast(count(*) as bigint) as n_tok,
           cast(sum(token) as bigint) as tok_sum,
           cast(sum(token * (gpos % 256 + 1)) as bigint) as tok_wsum
    from p group by 1
    """,
    "packed_curriculum_scan": _VOCAB_CTE
    + """,
    d as (select doc_id, string_split(text, ' ') as ws from documents),
    u as (select doc_id, unnest(ws) as w1, generate_subscripts(ws, 1) as i from d),
    nd as (select doc_id, count(distinct w1) as ndist from u group by doc_id),
    o as (select d.doc_id,
                 coalesce(sum(len(d.ws)) over (order by nd.ndist, d.doc_id
                          rows between unbounded preceding and 1 preceding), 0) as base
          from d join nd using (doc_id)),
    p as (select v.token as token, o.base + u.i - 1 as gpos
          from u join v on u.w1 = v.word join o on u.doc_id = o.doc_id)
    select cast(gpos // 256 as bigint) as chunk_id,
           cast(count(*) as bigint) as n_tok,
           cast(sum(token) as bigint) as tok_sum,
           cast(sum(token * (gpos % 256 + 1)) as bigint) as tok_wsum
    from p group by 1
    """,
    "packed_curriculum_desc_scan": _VOCAB_CTE
    + """,
    d as (select doc_id, string_split(text, ' ') as ws from documents),
    u as (select doc_id, unnest(ws) as w1, generate_subscripts(ws, 1) as i from d),
    nd as (select doc_id, count(distinct w1) as ndist from u group by doc_id),
    o as (select d.doc_id,
                 coalesce(sum(len(d.ws)) over (order by nd.ndist desc, d.doc_id
                          rows between unbounded preceding and 1 preceding), 0) as base
          from d join nd using (doc_id)),
    p as (select v.token as token, o.base + u.i - 1 as gpos
          from u join v on u.w1 = v.word join o on u.doc_id = o.doc_id)
    select cast(gpos // 256 as bigint) as chunk_id,
           cast(count(*) as bigint) as n_tok,
           cast(sum(token) as bigint) as tok_sum,
           cast(sum(token * (gpos % 256 + 1)) as bigint) as tok_wsum
    from p group by 1
    """,
    "pack_sequences": _VOCAB_CTE
    + """,
    d as (select doc_id, string_split(text, ' ') as ws from documents),
    u as (select doc_id, unnest(ws) as w1, generate_subscripts(ws, 1) as i from d),
    o as (select doc_id,
                 coalesce(sum(len(ws)) over (order by doc_id
                          rows between unbounded preceding and 1 preceding), 0) as base
          from d),
    p as (select v.token as token, o.base + u.i - 1 as gpos
          from u join v on u.w1 = v.word join o on u.doc_id = o.doc_id)
    select cast(gpos // 256 as bigint) as chunk_id,
           cast(count(*) as bigint) as n_tok,
           cast(sum(token) as bigint) as tok_sum,
           cast(sum(token * (gpos % 256 + 1)) as bigint) as tok_wsum
    from p group by 1
    """,
    "user_sessions": """
        with marked as (
            select user_id, ts,
                   case when lag(ts) over (partition by user_id order by ts) is null
                          or ts - lag(ts) over (partition by user_id order by ts)
                             > interval 30 minute
                        then 1 else 0 end as is_new
            from events
        ), numbered as (
            select user_id, ts,
                   sum(is_new) over (partition by user_id order by ts
                                     rows unbounded preceding) as session_no
            from marked
        )
        select user_id, cast(session_no as bigint) as session_no,
               min(ts) as session_start, max(ts) as session_end,
               cast(count(*) as bigint) as n_events
        from numbered group by user_id, session_no
    """,
    "top_events_per_user": """
        select user_id, event_id, value,
               cast(row_number() over (
                   partition by user_id order by value desc, event_id asc
               ) as bigint) as rank
        from events
        qualify rank <= 3
    """,
    "events_in_windows": """
        select e.event_id, e.ts, e.user_id, p.event_id as r_w_id,
               p.ts as r_w_start, p.ts + interval 30 minute as r_w_end
        from events e join (select * from events where event_type = 'purchase') p
          on e.user_id = p.user_id
         and e.ts >= p.ts and e.ts < p.ts + interval 30 minute
    """,
    "events_asof": """
        select e.event_id, e.ts, e.user_id, p.ts as r_ts, p.value as r_value
        from events e asof join (
            select * from events where event_type = 'purchase'
        ) p on e.user_id = p.user_id and e.ts >= p.ts
    """,
    "order_lineitem_join": """
        select l.l_orderkey, l.l_linenumber, l.l_quantity, l.l_extendedprice,
               o.o_custkey as r_o_custkey, o.o_totalprice as r_o_totalprice
        from lineitem l join orders o on l.l_orderkey = o.o_orderkey
    """,
    "orders_without_lineitem": """
        select o_orderkey, o_orderstatus, o_totalprice from orders o
        where not exists (select 1 from lineitem l where l.l_orderkey = o.o_orderkey)
    """,
    "orders_full_customer": """
        select coalesce(o.o_orderkey, -1) as o_orderkey,
               coalesce(o.o_custkey, -1) as o_custkey,
               coalesce(o.o_totalprice, -1) as o_totalprice,
               coalesce(c.c_acctbal, -1) as r_c_acctbal,
               coalesce(c.c_custkey, -1) as r_c_custkey
        from orders o full join customer c on o.o_custkey = c.c_custkey
    """,
    "orders_semi_lineitem": """
        select o_orderkey, o_orderstatus, o_totalprice from orders o
        where exists (select 1 from lineitem l where l.l_orderkey = o.o_orderkey)
    """,
    "orders_left_lineitem": """
        select o.o_orderkey, o.o_orderstatus, o.o_totalprice,
               coalesce(l.l_linenumber, -1) as r_l_linenumber,
               coalesce(l.l_quantity, -1) as r_l_quantity
        from orders o left join lineitem l on o.o_orderkey = l.l_orderkey
    """,
    "ivf_partitioned_knn": f"""
        select q.vec_id as qid, e.vec_id as nid,
               round(list_cosine_similarity(q.embedding::DOUBLE[], e.embedding::DOUBLE[]), 6) as score
        from embeddings q join embeddings e on e.vec_id != q.vec_id
        where q.vec_id in {tuple(KNN_QIDS)}
        qualify row_number() over (
            partition by q.vec_id
            order by round(list_cosine_similarity(q.embedding::DOUBLE[], e.embedding::DOUBLE[]), 6) desc,
                     e.vec_id asc
        ) <= {KNN_K}
    """,
    "knn_search": f"""
        select q.vec_id as qid, e.vec_id as nid,
               round(list_cosine_similarity(q.embedding::DOUBLE[], e.embedding::DOUBLE[]), 6) as score
        from embeddings q join embeddings e on e.vec_id != q.vec_id
        where q.vec_id in {tuple(KNN_QIDS)}
        qualify row_number() over (
            partition by q.vec_id
            order by round(list_cosine_similarity(q.embedding::DOUBLE[], e.embedding::DOUBLE[]), 6) desc,
                     e.vec_id asc
        ) <= {KNN_K}
    """,
    "blob_stats": """
        select cast(doc_id as varchar) as blob_id,
               cast(octet_length(encode(text)) as bigint) as n_bytes,
               md5(text) as digest
        from documents
    """,
    "pricing_summary": """
        select l_returnflag, l_linestatus,
               cast(sum(cast(l_quantity as bigint)) as bigint) as sum_qty,
               cast(count(*) as bigint) as n,
               cast(sum(cast(l_quantity as bigint)) as bigint)::double / count(*) as avg_qty
        from lineitem group by l_returnflag, l_linestatus
    """,
    "orders_per_nation": """
        select n_name, cast(count(*) as bigint) as n_orders
        from orders
        join customer on o_custkey = c_custkey
        join nation on c_nationkey = n_nationkey
        group by n_name
    """,
    "high_value_orders": f"""
        select o_orderkey, o_custkey, o_totalprice from orders
        where o_totalprice >= {PRICE_T}
    """,
    "events_hourly": """
        select event_type,
               cast(floor(epoch(ts) / 3600) as bigint) as hour,
               cast(count(*) as bigint) as n
        from events group by event_type, hour
    """,
    "doc_len_percentile": """
        with t as (select doc_id, source,
                          cast(len(string_split(text, ' ')) as bigint) as n_tok
                   from documents)
        select doc_id, source, n_tok,
               round(percent_rank() over (partition by source order by n_tok), 6) as pr
        from t
    """,
    "user_funnel": """
        with u as (select distinct user_id from events),
        v as (select user_id, min(ts) as t from events
              where event_type = 'view' group by user_id),
        c as (select e.user_id, min(e.ts) as t from events e
              join v on e.user_id = v.user_id
              where e.event_type = 'click' and e.ts > v.t group by e.user_id),
        p as (select e.user_id, min(e.ts) as t from events e
              join c on e.user_id = c.user_id
              where e.event_type = 'purchase' and e.ts > c.t group by e.user_id)
        select u.user_id,
               cast(case when p.user_id is not null then 3
                         when c.user_id is not null then 2
                         when v.user_id is not null then 1
                         else 0 end as bigint) as stage
        from u left join v on u.user_id = v.user_id
               left join c on u.user_id = c.user_id
               left join p on u.user_id = p.user_id
    """,
    "user_retention": """
        with hu as (select distinct cast(floor(epoch(ts) / 3600) as bigint) as h,
                                    user_id as u
                    from events)
        select a.h, cast(count(*) as bigint) as retained
        from hu a join hu b on a.u = b.u and b.h = a.h - 1
        group by a.h
    """,
    "events_sliding": """
        with h as (
          select event_type,
                 cast(floor(epoch(ts) / 3600) as bigint) as hour,
                 cast(count(*) as bigint) as n
          from events group by event_type, hour
        )
        select event_type, hour,
               cast(sum(n) over (
                    partition by event_type order by hour
                    range between 23 preceding and current row) as bigint) as n_24h
        from h
    """,
    # simhash dedup (hamming over an engine hash), minhash/approx
    # dedup survivors (estimate-thresholded), encode_* and
    # csv_roundtrip are not SQL-expressible -> rows-only checks
    # (driver records which).  lang_id / lsh_dup_pairs /
    # minhash_verified_pairs gained exact oracles in round 3.
}


def _lang_id_oracle_sql() -> str:
    """Exact SQL mirror of functions/textstats.py::LangId.

    The char-frequency cosine's argmax is invariant to the per-doc
    norm, and all five profiles share the same weight vector 12..1 so
    their norms are equal too — argmax(cosine) == argmax(weighted char
    counts), which IS SQL-expressible.  Profile chars are ASCII, so
    SQL char counts equal the engine's utf-8 byte counts (multi-byte
    sequences never contain ASCII bytes).  Ties resolve to the first
    language in sorted order, matching np.argmax."""
    from .textstats import _LANG_PROFILES

    langs = sorted(_LANG_PROFILES)
    scores = []
    for lang in langs:
        chars = _LANG_PROFILES[lang]
        terms = " + ".join(
            f"{len(chars) - rank} * (length(text) - length(replace(text, '{ch}', '')))"
            for rank, ch in enumerate(chars)
        )
        scores.append(f"({terms}) as s_{lang}")
    cases = []
    for i, lang in enumerate(langs):
        conds = " and ".join(f"s_{lang} >= s_{other}" for other in langs[i + 1 :])
        cases.append(f"when {conds} then '{lang}'" if conds else f"else '{lang}'")
    return f"""
        with s as (select cast(doc_id as varchar) as doc_id, {", ".join(scores)}
                   from documents)
        select doc_id, case {" ".join(cases[:-1])} {cases[-1]} end as pred_lang
        from s
    """


ORACLE_SQL["lang_id"] = _lang_id_oracle_sql()

# the vocab-aware annotators recompute exactly these text-level
# signals from token ids over the ENCODED corpus — same oracle
ORACLE_SQL["annotate_quality_scan"] = ORACLE_SQL["text_quality"]
ORACLE_SQL["annotate_langid_scan"] = _lang_id_oracle_sql()
ORACLE_SQL["corpus_grep_scan"] = _corpus_grep_oracle_sql(
    ["dup", "batch batch", "stream table hash"]
)
ORACLE_SQL["phrase_search_scan"] = _phrase_search_oracle_sql(
    ["stream", "table", "hash"]
)


def _phrase_positions_oracle_sql(words: list[str]) -> str:
    cond = " AND ".join(f"ws[i+{j}] = '{w}'" for j, w in enumerate(words))
    return f"""
SELECT CAST(doc_id AS VARCHAR) AS doc_id, CAST(i - 1 AS BIGINT) AS pos
FROM (SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
     UNNEST(list_filter(range(1, len(ws) + 1), i -> {cond})) AS t(i)
"""


ORACLE_SQL["phrase_positions_scan"] = _phrase_positions_oracle_sql(
    ["stream", "table", "hash"]
)

# top-K PMI contexts = the token_pmi oracle wrapped in a ranked window
# (rank keys are the ROUNDED pmi values, t2 tiebreak — same as the
# engine's lexsort)
ORACLE_SQL["pmi_top_contexts"] = f"""
select t1, t2, pmi, rank from (
  select t1, t2, pmi,
         row_number() over (partition by t1 order by pmi desc, t2 asc) as rank
  from ({ORACLE_SQL["token_pmi"]}) base
  where cnt >= {PMI_MIN_CNT}
) ranked
where rank <= {PMI_TOP_K}
"""

# lsh_dup_pairs is exact-cosine-verified with recall ~1 at the
# threshold (see q_lsh_dup_pairs) -> same oracle as the exact all-pairs
# query (round-3 upgrade from rows-only)
ORACLE_SQL["lsh_dup_pairs"] = ORACLE_SQL["embedding_dup_pairs"]

# exhaustive all-pairs exact word-2gram jaccard over text-canonical docs
# — the minhash family's precision oracle (see q_minhash_verified_pairs)
ORACLE_SQL["minhash_verified_pairs"] = """
    with canon as (
      select cast(min(doc_id) as varchar) as doc_id, text
      from documents group by text
    ), g as (
      select doc_id,
             list_distinct([ws[i] || ' ' || ws[i+1]
                            for i in generate_series(1, len(ws)-1)]) as grams
      from (select doc_id, string_split(text, ' ') as ws from canon)
    )
    select a.doc_id as a, b.doc_id as b,
           round(len(list_intersect(a.grams, b.grams))::double
                 / len(list_distinct(list_concat(a.grams, b.grams))), 6) as jaccard
    from g a join g b on a.doc_id < b.doc_id
    where len(a.grams) > 0 and len(b.grams) > 0
      and round(len(list_intersect(a.grams, b.grams))::double
                / len(list_distinct(list_concat(a.grams, b.grams))), 6) >= 0.8
"""

# SimHash candidates are recall-complete for the same exact predicate
# (q_simhash_verified_pairs docstring: 2-gram-feature simhash, radius
# calibrated +1 over the measured max at the largest test scale), so
# the oracle is the identical exhaustive all-pairs Jaccard.
ORACLE_SQL["simhash_verified_pairs"] = ORACLE_SQL["minhash_verified_pairs"]

# --------------------------- TPC-H-shaped oracle SQL (round 4)

_REV_E4_SQL = (
    "cast(floor(l_extendedprice * 100 + 0.5) as bigint)"
    " * cast(floor((1.0 - l_discount) * 100 + 0.5) as bigint)"
)

ORACLE_SQL["local_supplier_volume"] = f"""
    select n_name, cast(sum({_REV_E4_SQL}) as bigint) as rev_e4
    from customer, orders, lineitem, supplier, nation, region
    where c_custkey = o_custkey and l_orderkey = o_orderkey
      and l_suppkey = s_suppkey and c_nationkey = s_nationkey
      and s_nationkey = n_nationkey and n_regionkey = r_regionkey
      and r_name = '{Q5_REGION}'
      and o_orderdate >= timestamp '{Q5_DATE_LO}'
      and o_orderdate <  timestamp '{Q5_DATE_HI}'
    group by n_name
"""

ORACLE_SQL["returned_items"] = f"""
    select c_custkey, c_name, n_name, c_acctbal,
           cast(sum({_REV_E4_SQL}) as bigint) as rev_e4
    from customer, orders, lineitem, nation
    where c_custkey = o_custkey and l_orderkey = o_orderkey
      and l_returnflag = 'R' and c_nationkey = n_nationkey
      and o_orderdate >= timestamp '{Q10_DATE_LO}'
      and o_orderdate <  timestamp '{Q10_DATE_HI}'
    group by c_custkey, c_name, n_name, c_acctbal
    order by rev_e4 desc, c_custkey
    limit {Q10_TOP}
"""

ORACLE_SQL["large_volume_orders"] = f"""
    with heavy as (
      select l_orderkey,
             cast(sum(cast(floor(l_quantity * 100 + 0.5) as bigint))
                  as bigint) as sum_qty_c
      from lineitem group by l_orderkey
      having sum(cast(floor(l_quantity * 100 + 0.5) as bigint)) > {Q18_QTY_C}
    )
    select c_name, o_custkey, o_orderkey, o_orderdate, o_totalprice, sum_qty_c
    from heavy, orders, customer
    where o_orderkey = l_orderkey and c_custkey = o_custkey
"""

ORACLE_SQL["promo_revenue"] = f"""
    select cast(extract(month from l_shipdate) as bigint) as month,
           cast(sum(case when p_type = 'PROMO' then {_REV_E4_SQL} else 0 end)
                as bigint) as promo_rev_e4,
           cast(sum({_REV_E4_SQL}) as bigint) as total_rev_e4,
           sum(case when p_type = 'PROMO' then {_REV_E4_SQL} else 0 end)::double
             / sum({_REV_E4_SQL})::double as promo_share
    from lineitem, part
    where l_partkey = p_partkey
      and l_shipdate >= timestamp '{Q14_DATE_LO}'
      and l_shipdate <  timestamp '{Q14_DATE_HI}'
    group by month
"""

ORACLE_SQL["market_share"] = f"""
    with target as (
        select n_name from supplier s, nation n
        where s.s_nationkey = n.n_nationkey
        group by n_name order by count(*) desc, n_name limit 1
    ),
    region_nations as (
        select n2.n_nationkey from nation n2
        where n2.n_regionkey = (
            select n3.n_regionkey from nation n3, target t where n3.n_name = t.n_name
        )
    )
    select cast(extract(year from o_orderdate) as bigint) as o_year,
           cast(sum(case when sn.n_name = (select n_name from target)
                         then {_REV_E4_SQL} else 0 end) as bigint) as target_rev_e4,
           cast(sum({_REV_E4_SQL}) as bigint) as total_rev_e4,
           sum(case when sn.n_name = (select n_name from target)
                    then {_REV_E4_SQL} else 0 end)::double
             / sum({_REV_E4_SQL})::double as mkt_share
    from lineitem, orders, customer, supplier s, nation sn, part
    where l_orderkey = o_orderkey and o_custkey = c_custkey
      and l_suppkey = s.s_suppkey and s.s_nationkey = sn.n_nationkey
      and l_partkey = p_partkey and p_type = '{Q8_TYPE}'
      and c_nationkey in (select n_nationkey from region_nations)
      and o_orderdate >= timestamp '{Q8_LO}'
      and o_orderdate <  timestamp '{Q8_HI}'
    group by o_year
"""

ORACLE_SQL["nation_profit"] = f"""
    select sn.n_name,
           cast(extract(year from o_orderdate) as bigint) as o_year,
           cast(sum({_REV_E4_SQL}) as bigint) as profit_e4
    from lineitem, orders, supplier s, nation sn, part
    where l_orderkey = o_orderkey
      and l_suppkey = s.s_suppkey and s.s_nationkey = sn.n_nationkey
      and l_partkey = p_partkey and p_name like '%{Q9_PATTERN}%'
    group by sn.n_name, o_year
"""

ORACLE_SQL["waiting_supplier"] = """
    with target as (
        select n_name from supplier s, nation n
        where s.s_nationkey = n.n_nationkey
        group by n_name order by count(*) desc, n_name limit 1
    ),
    pairs as (
        select l_orderkey, l_suppkey,
               max(case when l_returnflag = 'R' then 1 else 0 end) as ret
        from lineitem group by l_orderkey, l_suppkey
    ),
    per_order as (
        select l_orderkey, count(*) as n_supp, sum(ret) as n_ret,
               sum(l_suppkey * ret) as ret_supp
        from pairs group by l_orderkey
    )
    select s.s_name, cast(count(*) as bigint) as numwait
    from per_order po, orders o, supplier s, nation n
    where po.l_orderkey = o.o_orderkey and o.o_orderstatus = 'F'
      and po.n_ret = 1 and po.n_supp >= 2
      and s.s_suppkey = po.ret_supp
      and s.s_nationkey = n.n_nationkey
      and n.n_name = (select n_name from target)
    group by s.s_name
    order by numwait desc, s.s_name
    limit 100
"""

ORACLE_SQL["supplier_cnt_by_part"] = f"""
    with top_brand as (
        select p_brand from part group by p_brand
        order by count(*) desc, p_brand limit 1
    )
    select p_brand, p_type, cast(p_size as bigint) as p_size,
           cast(count(distinct l_suppkey) as bigint) as supplier_cnt
    from lineitem, part
    where l_partkey = p_partkey
      and p_brand <> (select p_brand from top_brand)
      and p_size in {Q16_SIZES}
      and l_suppkey % {Q16_EXCL_MOD} <> 0
    group by p_brand, p_type, p_size
"""

ORACLE_SQL["cust_order_distribution"] = """
    with per_cust as (
        select c.c_custkey, count(o.o_orderkey) as c_count
        from customer c left join orders o on c.c_custkey = o.o_custkey
        group by c.c_custkey
    )
    select cast(c_count as bigint) as c_count,
           cast(count(*) as bigint) as n_custs
    from per_cust group by c_count
"""

ORACLE_SQL["top_revenue_supplier"] = f"""
    with rev as (
        select cast(l_suppkey as bigint) as s_suppkey,
               cast(sum({_REV_E4_SQL}) as bigint) as total_rev_e4
        from lineitem
        where l_shipdate >= timestamp '{Q15_LO}'
          and l_shipdate <  timestamp '{Q15_HI}'
        group by l_suppkey
    )
    select r.s_suppkey, s.s_name, r.total_rev_e4
    from rev r, supplier s
    where s.s_suppkey = r.s_suppkey
      and r.total_rev_e4 = (select max(total_rev_e4) from rev)
"""

ORACLE_SQL["min_cost_supplier"] = f"""
    with target as (
        select n_name from supplier s, nation n
        where s.s_nationkey = n.n_nationkey
        group by n_name order by count(*) desc, n_name limit 1
    ),
    region_suppliers as (
        select s.s_suppkey, s.s_name, s.s_acctbal, n.n_name
        from supplier s, nation n
        where s.s_nationkey = n.n_nationkey and n.n_regionkey = (
            select n3.n_regionkey from nation n3, target t where n3.n_name = t.n_name
        )
    ),
    cost as (
        select cast(l_partkey as bigint) as p_partkey,
               cast(l_suppkey as bigint) as s_suppkey,
               cast(min(cast(floor(l_extendedprice * 100 + 0.5) as bigint)) as bigint) as cost_e2
        from lineitem, part, region_suppliers rs
        where l_partkey = p_partkey and p_size in {Q2_SIZES}
          and l_suppkey = rs.s_suppkey
        group by l_partkey, l_suppkey
    )
    select rs.s_acctbal, rs.s_name, rs.n_name, c.p_partkey, p.p_name, c.cost_e2
    from cost c, region_suppliers rs, part p
    where c.cost_e2 = (select min(c2.cost_e2) from cost c2
                       where c2.p_partkey = c.p_partkey)
      and rs.s_suppkey = c.s_suppkey and p.p_partkey = c.p_partkey
    order by rs.s_acctbal desc, rs.n_name, rs.s_name, c.p_partkey
    limit 100
"""

ORACLE_SQL["important_parts"] = f"""
    with target as (
        select n_name from supplier s, nation n
        where s.s_nationkey = n.n_nationkey
        group by n_name order by count(*) desc, n_name limit 1
    ),
    val as (
        select cast(l_partkey as bigint) as p_partkey,
               cast(sum({_REV_E4_SQL}) as bigint) as value_e4
        from lineitem, supplier s, nation n
        where l_suppkey = s.s_suppkey and s.s_nationkey = n.n_nationkey
          and n.n_name = (select n_name from target)
        group by l_partkey
    )
    select p_partkey, value_e4 from val
    where value_e4 * (select cast(count(*) as bigint) from val)
          > {Q11_MEAN_MULT} * (select cast(sum(value_e4) as bigint) from val)
"""

ORACLE_SQL["excess_suppliers"] = f"""
    with target as (
        select n_name from supplier s, nation n
        where s.s_nationkey = n.n_nationkey
        group by n_name order by count(*) desc, n_name limit 1
    ),
    ps as (
        select cast(l_partkey as bigint) as p_partkey,
               cast(l_suppkey as bigint) as s_suppkey,
               cast(sum(cast(floor(l_quantity * 100 + 0.5) as bigint)) as bigint) as qty_c
        from lineitem, part
        where l_partkey = p_partkey and p_name like '{Q20_PREFIX}%'
          and l_shipdate >= timestamp '{Q20_LO}'
          and l_shipdate <  timestamp '{Q20_HI}'
        group by l_partkey, l_suppkey
    ),
    tot as (
        select p_partkey, cast(sum(qty_c) as bigint) as tot_c from ps group by p_partkey
    )
    select distinct ps.s_suppkey, s.s_name
    from ps, tot, supplier s, nation n
    where ps.p_partkey = tot.p_partkey
      and ps.qty_c * {Q20_SHARE_DEN} > tot.tot_c * {Q20_SHARE_NUM}
      and s.s_suppkey = ps.s_suppkey
      and s.s_nationkey = n.n_nationkey
      and n.n_name = (select n_name from target)
"""

ORACLE_SQL["small_qty_revenue"] = f"""
    with pa_stats as (
        select l_partkey as p,
               cast(sum(cast(floor(l_quantity + 0.5) as bigint)) as bigint) as sum_qty,
               cast(count(*) as bigint) as cnt
        from lineitem, part
        where p_partkey = l_partkey and p_brand = '{Q17_BRAND}'
        group by l_partkey
    ),
    small as (
        select cast(floor(l_extendedprice * 100 + 0.5) as bigint) as price_c
        from lineitem, pa_stats
        where l_partkey = p
          and 5 * cast(floor(l_quantity + 0.5) as bigint) * cnt < sum_qty
    )
    select cast(coalesce(sum(price_c), 0) as bigint) as total_price_c,
           coalesce(sum(price_c), 0)::double / 7.0 as avg_yearly_c
    from small
"""

ORACLE_SQL["bracket_revenue"] = f"""
    select cast(coalesce(sum({_REV_E4_SQL}), 0) as bigint) as revenue_e4
    from lineitem, part
    where p_partkey = l_partkey
      and (
        (p_brand = 'Brand#12' and p_size between 1 and 5
         and cast(floor(l_quantity + 0.5) as bigint) between 1 and 11)
        or
        (p_brand = 'Brand#23' and p_size between 1 and 10
         and cast(floor(l_quantity + 0.5) as bigint) between 10 and 20)
        or
        (p_brand = 'Brand#34' and p_size between 1 and 15
         and cast(floor(l_quantity + 0.5) as bigint) between 20 and 30)
      )
"""

ORACLE_SQL["idle_customer_balance"] = f"""
    with g as (
        select cast(sum(case when cast(floor(c_acctbal * 100 + 0.5) as bigint) > 0
                             then cast(floor(c_acctbal * 100 + 0.5) as bigint)
                             else 0 end) as bigint) as sum_c,
               cast(count(*) filter (
                    where cast(floor(c_acctbal * 100 + 0.5) as bigint) > 0
               ) as bigint) as n_pos
        from customer
    )
    select c_mktsegment,
           cast(count(*) as bigint) as n_custs,
           cast(sum(cast(floor(c_acctbal * 100 + 0.5) as bigint)) as bigint)
             as total_bal_c
    from customer, g
    where cast(floor(c_acctbal * 100 + 0.5) as bigint) * g.n_pos > g.sum_c
      and not exists (select 1 from orders o
                      where o.o_custkey = c_custkey
                        and o.o_totalprice > {Q22_BIG_ORDER})
    group by c_mktsegment
"""

ORACLE_SQL["user_cumulative_value"] = """
    select event_id, user_id,
           cast(sum(cast(floor(value * 100 + 0.5) as bigint))
             over (partition by user_id order by ts, event_id
                   rows between unbounded preceding and current row)
             as bigint) as cum_value_c
    from events
"""

ORACLE_SQL["embedding_dedup_vecs"] = f"""
    with recursive
    p as (
      select cast(a.vec_id as varchar) as a, cast(b.vec_id as varchar) as b
      from embeddings a join embeddings b on a.vec_id < b.vec_id
      where round(list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]), 6)
            >= {COSINE_T}
    ),
    e as (select a as node, b as nbr from p union select b, a from p),
    reach(node, r) as (
      select node, node from (select distinct node from e)
      union
      select e.nbr, reach.r from reach join e on e.node = reach.node
    ),
    dropped as (select node from reach group by node having min(r) <> node)
    select vec_id, label from embeddings
    where cast(vec_id as varchar) not in (select node from dropped)
"""

# ------------------- curation-transform oracle SQL (round 4, cont.)

ORACLE_SQL["normalize_text"] = """
    select doc_id,
           trim(regexp_replace(nfc_normalize(lower(text)), ' +', ' ', 'g')) as norm_text
    from documents
"""

ORACLE_SQL["value_winsorized"] = """
    with c as (
      select event_id, event_type,
             cast(floor(value * 100 + 0.5) as bigint) as cents
      from events
    ),
    r as (
      select event_type, cents,
             row_number() over (partition by event_type order by cents) as rn,
             count(*) over (partition by event_type) as n
      from c
    ),
    b as (
      select event_type,
             max(case when rn = (n + 19) // 20 then cents end) as lo,
             max(case when rn = (19 * n + 19) // 20 then cents end) as hi
      from r group by event_type
    )
    select c.event_id, c.event_type,
           least(greatest(c.cents, b.lo), b.hi) as w_cents
    from c join b using (event_type)
"""

ORACLE_SQL["source_distinct_trigram_ratio"] = """
    with d as (select source, string_split(text, ' ') as ws from documents),
    g as (
      select source,
             unnest([ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2]
                     for i in generate_series(1, len(ws) - 2)]) as tri
      from d
    )
    select source,
           cast(count(distinct tri) as bigint) as n_distinct,
           cast(count(*) as bigint) as n_total,
           count(distinct tri)::double / count(*)::double as ratio
    from g group by source
"""

ORACLE_SQL["vocab_rank_map"] = f"""
    select token, cnt,
           row_number() over (order by cnt desc, token asc) as rank
    from ({ORACLE_SQL["token_histogram"]}) h
"""

ORACLE_SQL["near_dup_cluster_sizes"] = f"""
    with s as (
      select root, cast(count(*) as bigint) as size
      from ({ORACLE_SQL["dup_components"]}) comp
      group by root
    )
    select size, cast(count(*) as bigint) as n_clusters
    from s group by size
"""

ORACLE_SQL["orders_cumulative_by_date"] = """
    with d as (
      select cast(epoch_us(o_orderdate) // 86400000000 as bigint) as day,
             cast(floor(o_totalprice * 100 + 0.5) as bigint) as cents
      from orders
    ),
    a as (select day, cast(sum(cents) as bigint) as day_rev_c from d group by day)
    select day, day_rev_c,
           cast(sum(day_rev_c) over (order by day
                rows between unbounded preceding and current row) as bigint) as cum_rev_c
    from a
"""

ORACLE_SQL["source_trigram_entropy"] = """
    with d as (select source, string_split(text, ' ') as ws from documents),
    g as (
      select source,
             unnest([ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2]
                     for i in generate_series(1, len(ws) - 2)]) as tri
      from d
    ),
    c as (select source, tri, cast(count(*) as bigint) as cnt from g group by source, tri),
    t as (select source, cast(floor(cnt * ln(cnt) * 1e9 + 0.5) as bigint) as ti, cnt from c),
    a as (select source, cast(sum(ti) as bigint) as ti,
                 cast(sum(cnt) as bigint) as n_total
          from t group by source)
    select source, n_total,
           floor((ln(n_total) - (ti / 1e9) / n_total) * 1e6 + 0.5) / 1e6 as entropy
    from a
"""

ORACLE_SQL["user_first_last_event"] = """
    select distinct user_id,
           first_value(event_type) over w as first_type,
           last_value(event_type) over (partition by user_id order by ts, event_id
                rows between unbounded preceding and unbounded following) as last_type,
           cast(count(*) over (partition by user_id) as bigint) as n_events
    from events
    window w as (partition by user_id order by ts, event_id)
"""

ORACLE_SQL["brand_discount_stats"] = """
    with w as (
      select p_brand, cast(floor(l_discount * 10000 + 0.5) as bigint) as d_e4
      from lineitem join part on l_partkey = p_partkey
    )
    select p_brand, cast(count(*) as bigint) as n_items,
           cast(sum(d_e4) as bigint) as sum_disc_e4,
           cast(sum(d_e4) as bigint)::double
             / (cast(count(*) as bigint)::double * 10000.0) as avg_disc
    from w group by p_brand
"""

ORACLE_SQL["forecast_revenue"] = """
    select cast(count(*) as bigint) as n_items,
           cast(sum(cast(floor(l_extendedprice * l_discount * 100 + 0.5) as bigint))
                as bigint) as revenue_c
    from lineitem
    where l_discount >= 0.05 and l_discount <= 0.07 and l_quantity < 24
"""

ORACLE_SQL["priority_return_orders"] = """
    select o_orderpriority, cast(count(*) as bigint) as n_orders
    from orders o
    where exists (select 1 from lineitem l
                  where l.l_orderkey = o.o_orderkey and l.l_returnflag = 'R')
    group by o_orderpriority
"""

ORACLE_SQL["linestatus_priority_mix"] = """
    select l_linestatus,
           cast(sum(case when o_orderpriority in ('1-URGENT', '2-HIGH')
                         then 1 else 0 end) as bigint) as high_line_count,
           cast(sum(case when o_orderpriority in ('1-URGENT', '2-HIGH')
                         then 0 else 1 end) as bigint) as low_line_count
    from lineitem join orders on l_orderkey = o_orderkey
    group by l_linestatus
"""

ORACLE_SQL["top_orders_per_cust"] = """
    with c as (
      select o_custkey, o_orderkey,
             cast(floor(o_totalprice * 100 + 0.5) as bigint) as price_c
      from orders
    )
    select o_custkey, o_orderkey, price_c,
           cast(dense_rank() over (partition by o_custkey order by price_c desc)
                as bigint) as rnk
    from c
    qualify rnk <= 2
"""

ORACLE_SQL["event_type_distinct_users"] = """
    select event_type, cast(count(distinct user_id) as bigint) as n_users
    from events group by event_type
"""

ORACLE_SQL["user_event_gaps"] = """
    with g as (
      select user_id,
             epoch_us(ts) - lag(epoch_us(ts)) over
               (partition by user_id order by ts, event_id) as gap
      from events
    )
    select user_id,
           cast(count(gap) as bigint) as n_gaps,
           cast(sum(gap) as bigint) as sum_gap_us,
           cast(max(gap) as bigint) as max_gap_us,
           cast(sum(gap) as bigint)::double
             / cast(count(gap) as bigint)::double as avg_gap_us
    from g group by user_id
    having count(gap) > 0
"""

ORACLE_SQL["props_k_histogram"] = """
    select cast(json_extract(props, '$.k') as bigint) as k,
           cast(count(*) as bigint) as n_events
    from events
    where json_extract(props, '$.k') is not null
    group by k
"""

ORACLE_SQL["props_k_by_type"] = """
    select event_type,
           cast(count(*) as bigint) as n_events,
           cast(sum(coalesce(cast(json_extract(props, '$.k') as bigint), 0))
                as bigint) as sum_k,
           cast(sum(coalesce(cast(json_extract(props, '$.k') as bigint), 0))
                as bigint)::double / cast(count(*) as bigint)::double as avg_k
    from events group by event_type
"""

ORACLE_SQL["source_nucleus_vocab"] = """
    with s as (select source, unnest(string_split(text, ' ')) as word
               from documents),
    c as (select source, word, cast(count(*) as bigint) as cnt
          from s group by source, word),
    r as (select source, cnt,
            cast(sum(cnt) over (partition by source order by cnt desc, word asc
                 rows between unbounded preceding and current row) as bigint) as cum,
            cast(sum(cnt) over (partition by source) as bigint) as tot,
            cast(row_number() over (partition by source
                 order by cnt desc, word asc) as bigint) as rn
          from c)
    select source, cast(count(*) as bigint) as vocab_size,
           cast(min(tot) as bigint) as total_tok,
           cast(min(case when cum * 10 >= tot * 9 then rn end) as bigint) as nucleus_k
    from r group by source
"""

ORACLE_SQL["rare_token_docs"] = """
    with t as (select cast(doc_id as varchar) as doc_id,
                      len(string_split(text, ' ')) as n_tok,
                      unnest(string_split(text, ' ')) as word
               from documents),
    g as (select word, count(*) as cnt from t group by word),
    c as (select word from g where cnt * 10 <= (select max(cnt) from g))
    select doc_id, cast(count(*) as bigint) as n_rare,
           cast(min(n_tok) as bigint) as n_tok
    from t join c using (word)
    group by doc_id
"""

def _profile_col_sql(col: str, kind: str) -> str:
    if kind == "num":
        mn, mx = f"min({col})::double", f"max({col})::double"
        ms = xs = "''"
    elif kind == "ts":
        mn, mx = f"min(epoch_us({col}))::double", f"max(epoch_us({col}))::double"
        ms = xs = "''"
    else:
        mn = mx = "cast(-1 as double)"
        ms, xs = f"min({col})", f"max({col})"
    return f"""
      select '{col}' as column, cast(count(*) as bigint) as n_rows,
             cast(sum(case when {col} is null then 1 else 0 end) as bigint) as n_nulls,
             cast(count(distinct {col}) as bigint) as n_distinct,
             {mn} as min_num, {mx} as max_num, {ms} as min_str, {xs} as max_str
      from orders"""


ORACLE_SQL["profile_orders"] = " union all ".join(
    _profile_col_sql(c, k)
    for c, k in [
        ("o_orderkey", "num"), ("o_custkey", "num"), ("o_orderstatus", "str"),
        ("o_totalprice", "num"), ("o_orderdate", "ts"), ("o_orderpriority", "str"),
    ]
)

ORACLE_SQL["price_range_scan"] = f"""
    select o_orderkey, o_custkey, o_totalprice
    from orders
    where o_totalprice >= {RANGE_SCAN_LO} and o_totalprice < {RANGE_SCAN_HI}
"""

ORACLE_SQL["nation_trade_volume"] = """
    with sc as (select n_name, count(*) as c
                from supplier join nation on n_nationkey = s_nationkey
                group by n_name),
    top2 as (select n_name from sc order by c desc, n_name limit 2)
    select n1.n_name as supp_nation, n2.n_name as cust_nation,
           cast(extract(year from l_shipdate) as bigint) as l_year,
           cast(sum(cast(floor(l_extendedprice * (1 - l_discount) * 10000 + 0.5)
                         as bigint)) as bigint) as rev_e4
    from lineitem
    join supplier on s_suppkey = l_suppkey
    join nation n1 on n1.n_nationkey = s_nationkey
    join orders on o_orderkey = l_orderkey
    join customer on c_custkey = o_custkey
    join nation n2 on n2.n_nationkey = c_nationkey
    where n1.n_name in (select n_name from top2)
      and n2.n_name in (select n_name from top2)
      and n1.n_name <> n2.n_name
    group by supp_nation, cust_nation, l_year
"""

ORACLE_SQL["orders_month_delta"] = """
    with m as (
      select cast(extract(year from o_orderdate) * 100
                  + extract(month from o_orderdate) as bigint) as month,
             cast(sum(cast(floor(o_totalprice * 100 + 0.5) as bigint))
                  as bigint) as rev_c
      from orders group by month
    )
    select month, rev_c,
           cast(coalesce(lag(rev_c) over (order by month), 0) as bigint) as prev_rev_c,
           cast(rev_c - coalesce(lag(rev_c) over (order by month), 0)
                as bigint) as delta_c
    from m
"""

ORACLE_SQL["token_zipf_fit"] = f"""
    with h as ({ORACLE_SQL["token_histogram"]}),
    r as (select cast(row_number() over (order by cnt desc, token asc)
                      as bigint) as rnk, cnt from h),
    t as (select cast(floor(ln(rnk) * 1e3 + 0.5) as bigint) as xi,
                 cast(floor(ln(cnt) * 1e3 + 0.5) as bigint) as yi
          from r),
    s as (select cast(count(*) as bigint) as n,
                 cast(sum(xi) as bigint) as sx, cast(sum(yi) as bigint) as sy,
                 cast(sum(xi * yi) as bigint) as sxy,
                 cast(sum(xi * xi) as bigint) as sxx
          from t),
    k as (select n, sx, sy,
                 floor((n::double * sxy::double - sx::double * sy::double)
                       / (n::double * sxx::double - sx::double * sx::double)
                       * 1e6 + 0.5) / 1e6 as slope
          from s)
    select n as vocab, slope,
           floor((sy::double / 1e3 - slope * (sx::double / 1e3)) / n::double
                 * 1e6 + 0.5) / 1e6 as intercept
    from k
"""

ORACLE_SQL["order_lines_histogram"] = """
    with c as (select l_orderkey, cast(count(*) as bigint) as n_lines
               from lineitem group by l_orderkey)
    select n_lines, cast(count(*) as bigint) as n_orders
    from c group by n_lines
"""

def _pagerank_iter_sql(i: int) -> str:
    return f"""
    t{i}c as (select e.t2 as token,
                     cast(sum(cast(floor(r.rank * e.cnt / ow.w * 1e12 + 0.5)
                                   as bigint)) as bigint) as c
              from e join r{i - 1} r on e.t1 = r.token
                     join ow on ow.t1 = e.t1
              group by e.t2),
    r{i} as (select vt.token,
                    floor((0.15 / vn.vz + 0.85 * (coalesce(t{i}c.c, 0) / 1e12))
                          * 1e9 + 0.5) / 1e9 as rank
             from vt cross join vn left join t{i}c on vt.token = t{i}c.token)"""


ORACLE_SQL["token_pagerank"] = (
    _VOCAB_CTE
    + """,
    d as (select doc_id, string_split(text, ' ') as ws from documents),
    u as (select doc_id, unnest(ws) as w1, generate_subscripts(ws, 1) as i from d),
    p as (select w1, lead(w1) over (partition by doc_id order by i) as w2 from u),
    c as (select w1, w2, cast(count(*) as bigint) as cnt from p
          where w2 is not null group by w1, w2),
    e as (select cast(v1.token as bigint) as t1, cast(v2.token as bigint) as t2, c.cnt
          from c join v v1 on c.w1 = v1.word join v v2 on c.w2 = v2.word),
    ow as (select t1, cast(sum(cnt) as bigint) as w from e group by t1),
    vt as (select cast(token as bigint) as token from v),
    vn as (select cast(count(*) as bigint) as vz from vt),
    r0 as (select token, 1.0 / vn.vz as rank from vt cross join vn),
"""
    + ",".join(_pagerank_iter_sql(i) for i in range(1, PR_ITERS + 1))
    + f"""
    select token, rank from r{PR_ITERS}
"""
)

ORACLE_SQL["decode_members"] = f"""
    select cast(doc_id as varchar) as doc_id,
           cast(len(string_split(text, ' ')) as bigint) as n_tok,
           source
    from documents
    where substr(md5(cast(doc_id as varchar)), 1, 2) < '{SAMPLE_HEX}'
"""

ORACLE_SQL["event_anomaly_days"] = """
    with d as (
      select cast(epoch_us(ts) // 86400000000 as bigint) as day,
             cast(count(*) as bigint) as n_events
      from events group by day
    ),
    s as (select cast(count(*) as hugeint) as n,
                 cast(sum(n_events) as hugeint) as sm,
                 cast(sum(n_events * n_events) as hugeint) as q
          from d)
    select day, n_events
    from d, s
    where (s.n * n_events - s.sm) * (s.n * n_events - s.sm)
          > 4 * (s.n * s.q - s.sm * s.sm)
"""

ORACLE_SQL["embedding_norm_stats"] = """
    with n as (
      select cast(label as bigint) as label,
             cast(floor(sqrt(list_sum(list_transform(embedding::DOUBLE[],
                                                     x -> x * x))) * 1e6 + 0.5)
                  as bigint) as ne6
      from embeddings
    )
    select label, cast(count(*) as bigint) as n_vecs,
           cast(sum(ne6) as bigint) as sum_norm_e6,
           cast(min(ne6) as bigint) as min_norm_e6,
           cast(max(ne6) as bigint) as max_norm_e6
    from n group by label
"""

QUERIES["float_codec_roundtrip"] = q_float_codec_roundtrip
ORACLE_SQL["float_codec_roundtrip"] = """
    with li as (
      select * from (
        select 'l_quantity' as "column",
               cast(floor(l_quantity * 100 + 0.5) as bigint) as fp from lineitem
        union all
        select 'l_extendedprice', cast(floor(l_extendedprice * 100 + 0.5) as bigint) from lineitem
        union all
        select 'l_discount', cast(floor(l_discount * 100 + 0.5) as bigint) from lineitem
        union all
        select 'l_tax', cast(floor(l_tax * 100 + 0.5) as bigint) from lineitem
        union all
        select 'embedding', cast(floor(v * 1e6 + 0.5) as bigint)
        from (select unnest(embedding::DOUBLE[]) as v from embeddings)
      )
    )
    select "column", cast(count(*) as bigint) as n_values,
           cast(sum(fp) as bigint) as sum_fp,
           cast(min(fp) as bigint) as min_fp,
           cast(max(fp) as bigint) as max_fp
    from li group by "column"
"""


def q_table_container_roundtrip(sf_dir: str):
    """Generic any-table columnar container (sources/tablecontainer.py):
    orders — timestamps, strings, int64 keys and decimal-like doubles —
    is encoded block-by-block through the full codec registry
    (auto-selection picks dict/FSST for strings, FOR-bitpack for keys,
    ALP for o_totalprice, RLE/dz for the date), written as container
    parquet (one row group per encoded column), decoded back with exact
    dtype restoration, and returned WHOLE — the oracle hash covers
    every value of every row, so any codec or schema drift anywhere in
    the fixed/int/str families breaks this query."""
    import ray.data as rd

    from ..sources.tablecontainer import read_container_table, write_container_table

    out = _job_dir(sf_dir, "tablecont")
    shutil.rmtree(out, ignore_errors=True)
    write_container_table(rd.read_parquet(f"{sf_dir}/orders.parquet"), out).materialize()
    return read_container_table(out)


QUERIES["table_container_roundtrip"] = q_table_container_roundtrip
ORACLE_SQL["table_container_roundtrip"] = "select * from orders"


def q_struct_container_roundtrip(sf_dir: str):
    """Nested-type container round-trip under the oracle gate: orders
    columns are packed into a struct (shredded as ``s.price`` /
    ``s.prio`` streams, NULL every 10th row to exercise the ``s#null``
    validity stream) plus a deterministic ``list<list<int64>>``
    ([[k], [k, k+1]] — the recursive ``#val#len``/``#val#val`` split),
    container-encoded, decoded, and FLATTENED back to scalars so DuckDB
    can hash every value: a wrong child, lost struct null, or
    mis-nested offset breaks parity."""
    import ray.data as rd

    from ..sources.tablecontainer import read_container_table, write_container_table

    out = _job_dir(sf_dir, "structcont")
    shutil.rmtree(out, ignore_errors=True)

    def to_nested(b: pa.Table) -> pa.Table:
        k = b.column("o_orderkey").combine_chunks()
        kv = np.asarray(k, dtype=np.int64)
        null_mask = pa.array(kv % 10 == 0)  # True = struct is null
        s = pa.StructArray.from_arrays(
            [b.column("o_totalprice").combine_chunks(),
             b.column("o_orderpriority").combine_chunks()],
            names=["price", "prio"],
            mask=null_mask,
        )
        # [[k], [k, k+1]] per row: inner lengths 1,2 — flat values k,k,k+1
        n = len(kv)
        flat = np.empty(3 * n, dtype=np.int64)
        flat[0::3] = kv
        flat[1::3] = kv
        flat[2::3] = kv + 1
        inner_off = np.concatenate(
            [[0], np.cumsum(np.tile([1, 2], n)).astype(np.int32)]
        )
        inner = pa.ListArray.from_arrays(pa.array(inner_off), pa.array(flat))
        outer = pa.ListArray.from_arrays(
            pa.array(np.arange(0, 2 * n + 1, 2, dtype=np.int32)), inner
        )
        return pa.table({"o_orderkey": k, "s": s, "nested": outer})

    ds = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_totalprice", "o_orderpriority"],
    ).map_batches(to_nested, batch_format="pyarrow")
    write_container_table(ds, out).materialize()

    def flatten(b: pa.Table) -> pa.Table:
        s = b.column("s").combine_chunks()
        nested = b.column("nested").combine_chunks()
        inner = nested.flatten()
        n_inner = pc.list_value_length(nested).cast(pa.int64())
        # per-row sum over the flattened values: segment by outer row
        lens_outer = np.asarray(pc.list_value_length(nested), dtype=np.int64)
        inner_lens = np.asarray(pc.list_value_length(inner), dtype=np.int64)
        vals = np.asarray(inner.flatten(), dtype=np.int64)
        row_of_inner = np.repeat(np.arange(len(lens_outer)), lens_outer)
        row_of_val = np.repeat(row_of_inner, inner_lens)
        flat_sum = np.zeros(len(lens_outer), dtype=np.int64)
        np.add.at(flat_sum, row_of_val, vals)
        # nulls surface as an explicit indicator + sentinel-coalesced
        # values (the comparator's float path treats NaN as unequal)
        return pa.table(
            {
                "o_orderkey": b.column("o_orderkey"),
                "s_null": pc.cast(s.is_null(), pa.int64()),
                "price": pc.fill_null(pc.struct_field(s, "price"), -1.0),
                "prio": pc.fill_null(pc.struct_field(s, "prio"), ""),
                "n_inner": n_inner,
                "flat_sum": pa.array(flat_sum),
            }
        )

    return read_container_table(out).map_batches(flatten, batch_format="pyarrow")


QUERIES["struct_container_roundtrip"] = q_struct_container_roundtrip
ORACLE_SQL["struct_container_roundtrip"] = """
    select o_orderkey,
           cast(case when o_orderkey % 10 = 0 then 1 else 0 end as bigint) as s_null,
           case when o_orderkey % 10 = 0 then -1.0 else o_totalprice end as price,
           case when o_orderkey % 10 = 0 then '' else o_orderpriority end as prio,
           cast(2 as bigint) as n_inner,
           cast(3 * o_orderkey + 1 as bigint) as flat_sum
    from orders
"""


def q_container_predicate_scan(sf_dir: str):
    """Zone-map-pruned container scan: orders is container-encoded
    SORTED by o_totalprice so each container's footer [min, max] is a
    tight disjoint range, then a read with predicate=(o_totalprice,
    lo, hi) skips every non-overlapping file footer-first (no payload
    bytes move) and row-trims the survivors — the container analogue
    of price_range_scan's manifest pruning (functions/export.py)."""
    import ray.data as rd

    from ..sources.tablecontainer import read_container_table, write_container_table

    out = _job_dir(sf_dir, "contpred")
    shutil.rmtree(out, ignore_errors=True)
    ds = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_totalprice", "o_orderstatus"],
    ).sort("o_totalprice").repartition(8)
    write_container_table(ds, out).materialize()
    return read_container_table(
        out, columns=["o_orderkey", "o_orderstatus"],
        predicate=("o_totalprice", 50_000.0, 150_000.0),
    )


QUERIES["container_predicate_scan"] = q_container_predicate_scan
ORACLE_SQL["container_predicate_scan"] = """
    select o_orderkey, o_orderstatus from orders
    where o_totalprice between 50000.0 and 150000.0
"""


def q_container_time_scan(sf_dir: str):
    """Temporal zone-map pruning end to end: events container-encoded
    SORTED by ts (disjoint [min,max] epoch ranges in every footer),
    then a one-week predicate window decodes only the overlapping
    containers — the container analogue of a time-partitioned table
    scan.  Timestamps restore as exact timestamp[us] via the codec
    atype spec, so the oracle hash covers the temporal dtype path."""
    import datetime

    import ray.data as rd

    from ..sources.tablecontainer import read_container_table, write_container_table

    out = _job_dir(sf_dir, "conttime")
    shutil.rmtree(out, ignore_errors=True)
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id", "value"]
    ).sort("ts").repartition(8)
    write_container_table(ds, out).materialize()
    return read_container_table(
        out,
        predicate=(
            "ts",
            datetime.datetime(2024, 1, 8),
            datetime.datetime(2024, 1, 15),
        ),
    )


QUERIES["container_time_scan"] = q_container_time_scan
ORACLE_SQL["container_time_scan"] = """
    select event_id, ts, user_id, value from events
    where ts between timestamp '2024-01-08' and timestamp '2024-01-15'
"""
