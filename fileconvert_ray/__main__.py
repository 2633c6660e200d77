"""CLI entry point — the reference's argv surface (SURVEY.md §2.1 R6,
``fileconvert.py::get_args`` [P]) mapped onto the engine's configs.

    python -m fileconvert_ray convert  IN... --out DIR [--to parquet|csv|feather]
        [--delimiter C] [--no-header] [--type col=TYPE[?]] [--rename a=b]
        [--include a,b] [--exclude c] [--compression zstd]
    python -m fileconvert_ray encode   IN_DIR --out DIR
        [--target-partition-tokens N] [--codec col=NAME] [--no-resume]
    python -m fileconvert_ray verify   IN_DIR --out DIR [--mode exact|hash|manifest]
        [--gens N,..]
    python -m fileconvert_ray decode   OUT_DIR --to DIR [--max-gen N]
    python -m fileconvert_ray pack     IN_DIR --out DIR [--seq-len N]
        [--order-col doc_id] [--buckets N]
    python -m fileconvert_ray export-packed OUT_DIR --to DIR --seq-len N
        [--order hash|int] [--max-gen N] [--sources a,b]
    python -m fileconvert_ray dedup    IN_DIR --out DIR [--key text]
        [--id doc_id] [--strategy broadcast|join]
    python -m fileconvert_ray compact  OUT_DIR [--target-tokens N] [--cross-gen]
    python -m fileconvert_ray curate   DOCS_DIR --out DIR [--no-encode]
        [--target-partition-tokens N]
    python -m fileconvert_ray tokenize DOCS --out DIR [--vocab V.json]
    python -m fileconvert_ray detokenize IN --out DIR [--vocab V.json]
    python -m fileconvert_ray ingest   DOCS... --out DIR (fused tokenize+encode)
    python -m fileconvert_ray merge    SRC_DIR --out DEST_DIR (no re-encode)
    python -m fileconvert_ray annotate OUT_DIR [--name token_stats]
    python -m fileconvert_ray query    NAME [--sf-dir DIR] [--out DIR]
        [--limit N] | --list

The CLI owns its Ray session (the library never calls ray.init).
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _kv_pairs(values: list[str]) -> dict:
    out = {}
    for v in values or []:
        k, _, val = v.partition("=")
        if not _ or not k:
            raise SystemExit(f"expected KEY=VALUE, got {v!r}")
        out[k] = val
    return out


_TOKSEQ_COLS = ("doc_id", "tokens", "n_tok", "source")


def _require_tokseq_schema(path: str) -> bool:
    """Fail fast with a readable message when an encode input is not
    tokseq-shaped — otherwise the pipeline dies mid-execution with a
    raw KeyError wrapped around a full block dump.  Returns True when
    the columns exist but dtypes drifted from INPUT_SCHEMA (the caller
    then inserts a normalize_tokseq cast stage)."""
    import glob as _glob

    import pyarrow.parquet as _pq

    f = path
    if os.path.isdir(path):
        cands = sorted(_glob.glob(os.path.join(path, "*.parquet")))
        if not cands:
            raise SystemExit(f"no parquet shards found under {path!r}")
        f = cands[0]
    try:
        schema = _pq.read_schema(f)
    except Exception as e:
        raise SystemExit(f"cannot read parquet schema of {f!r}: {e}")
    names = set(schema.names)
    missing = [c for c in _TOKSEQ_COLS if c not in names]
    if missing:
        raise SystemExit(
            f"encode input {f!r} is missing column(s) {missing}: expected "
            f"tokenized shards with columns {list(_TOKSEQ_COLS)} (raw document "
            "tables must be tokenized first — see the `curate` subcommand, "
            "which tokenizes its train split before encoding)"
        )
    from fileconvert_ray.sources.tokseq import INPUT_SCHEMA

    return any(
        not schema.field(fld.name).type.equals(fld.type) for fld in INPUT_SCHEMA
    )


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fileconvert_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser(
        "convert", help="CSV/Parquet/Feather/JSONL conversion (reference R1-R12)"
    )
    c.add_argument("inputs", nargs="+")
    c.add_argument("--out", required=True)
    c.add_argument("--to", choices=["parquet", "csv", "feather", "jsonl"], default="parquet")
    c.add_argument("--delimiter", default=",")
    c.add_argument("--no-header", action="store_true")
    c.add_argument("--skip-rows", type=int, default=0)
    c.add_argument("--type", action="append", default=[], metavar="COL=TYPE[?]")
    c.add_argument("--rename", action="append", default=[], metavar="OLD=NEW")
    c.add_argument("--include", default=None, help="comma-separated columns to keep")
    c.add_argument("--exclude", default=None, help="comma-separated columns to drop")
    c.add_argument("--no-sanitize", action="store_true")
    c.add_argument("--compression", default="zstd")
    c.add_argument("--row-group-size", type=int, default=128 * 1024)

    e = sub.add_parser("encode", help="partitioned token-sequence encode (flagship)")
    e.add_argument("input", help="directory/file of tokseq parquet shards")
    e.add_argument("--out", required=True)
    e.add_argument("--target-partition-tokens", type=int, default=4_000_000)
    e.add_argument("--codec", action="append", default=[], metavar="COL=CODEC")
    e.add_argument("--no-zstd", action="store_true")
    e.add_argument("--no-resume", action="store_true")
    e.add_argument("--reduce-buckets", type=int, default=None)
    e.add_argument("--staged-dir", default=None,
                   help="shuffle scratch location (tmpfs/NVMe); default out_dir/staged")

    ei = sub.add_parser(
        "encode-inc",
        help="append-aware incremental encode: only shards not yet in "
        "plan.json lineage are encoded (new ingest generation)",
    )
    ei.add_argument("inputs", nargs="+",
                    help="parquet shard paths or directories (the FULL corpus, old + new)")
    ei.add_argument("--out", required=True)
    ei.add_argument("--target-partition-tokens", type=int, default=4_000_000)
    ei.add_argument("--codec", action="append", default=[], metavar="COL=CODEC")
    ei.add_argument("--no-zstd", action="store_true")
    ei.add_argument("--no-resume", action="store_true",
                    help="rebuild from scratch (clears containers AND lineage)")
    ei.add_argument("--reduce-buckets", type=int, default=None)
    ei.add_argument("--staged-dir", default=None)

    v = sub.add_parser("verify", help="decode-verify an encode output")
    v.add_argument("input", nargs="?", default=None,
                   help="the encode job's input parquet (optional for "
                   "incremental outputs — lineage is in plan.json — and "
                   "for --mode manifest)")
    v.add_argument("--out", required=True, help="the encode out dir")
    v.add_argument("--mode", choices=["exact", "hash", "manifest"], default="hash")
    v.add_argument("--by", choices=["partition", "source"], default="partition",
                   help="hash-mode granularity; 'source' survives compaction")
    v.add_argument("--gens", default=None,
                   help="comma-separated ingest generations to verify "
                        "(incremental verify: re-check only what a recent "
                        "append added)")

    m = sub.add_parser("compact", help="rewrite small partitions into target-size containers")
    m.add_argument("out_dir", help="the encode out dir")
    m.add_argument("--target-tokens", type=int, default=4_000_000)
    m.add_argument("--cross-gen", action="store_true",
                   help="pack across ingest generations (fuller groups; "
                        "snapshot reads refuse afterwards)")

    dl = sub.add_parser(
        "delete",
        help="tombstone doc_ids (logical delete; readers filter immediately)",
    )
    dl.add_argument("out_dir", help="the encode out dir")
    dl.add_argument("--ids", default=None, help="comma-separated doc_ids")
    dl.add_argument("--ids-file", default=None,
                    help="file with one doc_id per line (takedown list)")
    dl.add_argument("--sources", default=None,
                    help="comma-separated source filter (narrows the candidate set)")
    dl.add_argument("--where-ann", default=None, metavar="NAME:COL:LO:HI",
                    help="predicate delete: tombstone docs whose annotation "
                         "value lands in [LO, HI] (empty bound = open; run "
                         "`annotate` over every partition first)")
    dl.add_argument("--where-phrase", action="append", default=None,
                    metavar="PHRASE",
                    help="content takedown: tombstone every doc containing "
                         "this exact word sequence (repeatable; ingested "
                         "stores only — needs the frozen vocab)")
    dl.add_argument("--where-ann-quantile", default=None,
                    metavar="NAME:COL:FRAC[:bottom|top]",
                    help="fraction delete: tombstone ~FRAC of the corpus "
                         "ranked by the annotation value (KLL threshold; "
                         "cut is threshold-exact, fraction approximate)")

    rx = sub.add_parser(
        "redact",
        help="replace every occurrence of exact word sequences with the "
        "OOV token (<unk>), in place — span-level takedown keeping the "
        "documents (cf. delete --where-phrase, which drops them whole); "
        "docs_redacted/tokens_redacted include tombstoned documents, "
        "which stay until purge",
    )
    rx.add_argument("out_dir", help="an INGESTED encode out dir (vocab.json)")
    rx.add_argument("--where-phrase", action="append", required=True,
                    metavar="PHRASE",
                    help="exact word sequence to redact (repeatable)")
    rx.add_argument("--dry-run", action="store_true",
                    help="scan and report the blast radius, write nothing "
                         "(the rewrite is irreversible)")
    rx.add_argument("--sources", default=None,
                    help="comma-separated source filter: redact only those "
                         "sources' partitions")

    pg = sub.add_parser(
        "purge",
        help="physically remove tombstoned rows (offline maintenance; "
        "rewrites each affected partition in place)",
    )
    pg.add_argument("out_dir", help="the encode out dir")

    up = sub.add_parser(
        "upsert",
        help="apply new-or-updated tokseq shards: tombstone existing "
        "versions, append as a new generation",
    )
    up.add_argument("shards", nargs="+", help="tokseq parquet shard files (the new versions)")
    up.add_argument("--out", required=True, help="the encode out dir (generational plan)")
    up.add_argument("--target-partition-tokens", type=int, default=64_000_000)

    d = sub.add_parser("decode", help="decode containers back to tokseq parquet")
    d.add_argument("out_dir", help="the encode out dir")
    d.add_argument("--to", required=True, help="directory for decoded parquet")
    d.add_argument("--sources", default=None,
                   help="comma-separated source filter (zone-map pruned)")
    d.add_argument("--min-ntok", type=int, default=None)
    d.add_argument("--max-ntok", type=int, default=None)
    d.add_argument("--columns", default=None,
                   help="comma-separated projection (skips decoding the rest)")
    d.add_argument("--max-gen", type=int, default=None,
                   help="snapshot read: only ingest generations <= N")
    d.add_argument("--with-ann", default=None,
                   help="comma-separated annotation names to attach "
                        "(co-partitioned side tables from `annotate`)")

    an = sub.add_parser(
        "annotate",
        help="compute a co-partitioned derived-annotation side table "
        "(ann/NAME/{part_id}.parquet) over an encode out dir",
    )
    an.add_argument("out_dir", help="the encode out dir")
    an.add_argument("--name", default="token_stats",
                    help="registered annotator: token_stats | content_hash | "
                    "text_quality | langid (the last two need an ingested "
                    "store — signals are computed from token ids through the "
                    "frozen vocab; see pipelines/annotate_job.py)")

    ix = sub.add_parser(
        "index",
        help="build per-partition bloom sidecars (index/token_bloom/) for "
        "phrase-search partition pruning; idempotent gap-fill",
    )
    ix.add_argument("out_dir", help="the encode out dir")

    sr = sub.add_parser(
        "search",
        help="find documents containing an exact word sequence "
        "(bloom-pruned when indexed; exact always)",
    )
    sr.add_argument("out_dir", help="an INGESTED encode out dir (vocab.json)")
    sr.add_argument("--phrase", action="append", default=None,
                    help="space-separated word sequence (repeatable: N phrases "
                    "share ONE decode pass and report per-phrase counts)")
    sr.add_argument("--token-ids", default=None,
                    help="comma-separated token ids (plain, non-ingested stores)")
    sr.add_argument("--no-index", action="store_true",
                    help="force the full scan (skip bloom pruning)")
    sr.add_argument("--positions", action="store_true",
                    help="emit each match's 0-based token start offset within "
                    "its doc (single phrase / token-ids only)")
    sr.add_argument("--sources", default=None,
                    help="comma-separated source filter: scan only those "
                    "sources' partitions (composes with bloom pruning)")
    sr.add_argument("--limit", type=int, default=20,
                    help="print at most N hits (counts are always total)")

    te = sub.add_parser(
        "table-encode",
        help="encode ANY parquet table into columnar containers (full codec registry)",
    )
    te.add_argument("input", help="parquet/CSV/JSONL/feather file or directory of shards")
    te.add_argument("--out", required=True, help="container output directory")
    te.add_argument("--batch-rows", type=int, default=None,
                    help="at most N rows per container: larger input blocks "
                         "are split, smaller ones coalesced (default: one "
                         "container per Ray Data block, whose count varies "
                         "by host)")
    te.add_argument("--append", action="store_true",
                    help="add rows to an existing container dir (schema-checked)")
    te.add_argument("--sort-by", default=None,
                    help="globally sort by this column first: disjoint zone maps, "
                         "so later --where reads prune aggressively; pruning "
                         "is per container, so size them with --batch-rows")

    tm = sub.add_parser(
        "table-compact",
        help="rewrite fragmented containers at a target rows-per-container",
    )
    tm.add_argument("out_dir", help="a table-encode output directory")
    tm.add_argument("--to", required=True, help="destination container directory")
    tm.add_argument("--batch-rows", type=int, default=1_000_000)

    td = sub.add_parser("table-decode", help="decode table containers back to parquet")
    td.add_argument("out_dir", help="a table-encode output directory")
    td.add_argument("--to", required=True, help="directory for decoded parquet")
    td.add_argument("--columns", default=None,
                    help="comma-separated projection (other payloads never leave disk)")
    td.add_argument("--where", action="append", default=None, metavar="COL:LO:HI",
                    help="zone-map-pruned range filter; either bound may be empty "
                         "(numbers or ISO timestamps); repeatable, ANDed")

    ti = sub.add_parser(
        "table-inspect", help="per-column codec/size rollup of a table-encode dir"
    )
    ti.add_argument("out_dir")

    k = sub.add_parser("pack", help="pack token sequences into fixed-length training rows")
    k.add_argument("input", help="directory/file of tokseq parquet shards")
    k.add_argument("--out", required=True)
    k.add_argument("--seq-len", type=int, default=2048)
    k.add_argument("--order-col", default="doc_id",
                   help="integer column giving the global concatenation order")
    k.add_argument("--buckets", type=int, default=16)

    u = sub.add_parser("dedup", help="drop duplicate documents (exact content match)")
    u.add_argument("input", help="directory/file of parquet shards")
    u.add_argument("--out", required=True)
    u.add_argument("--key", default="text", help="content column")
    u.add_argument("--id", default="doc_id", help="id column (smallest survives)")
    u.add_argument("--strategy", choices=["broadcast", "join"], default="broadcast")

    r = sub.add_parser(
        "curate",
        help="end-to-end curation: exact dedup -> quality filter -> "
        "train/val/test split -> tokenize+encode+verify the train split",
    )
    r.add_argument("input", help="documents parquet (dir or file)")
    r.add_argument("--out", required=True)
    r.add_argument("--no-encode", action="store_true",
                   help="stop after writing the split document sets")
    r.add_argument("--target-partition-tokens", type=int, default=4_000_000)
    r.add_argument("--near-dedup", action="store_true",
                   help="add a MinHash-LSH near-duplicate pass after exact dedup")
    r.add_argument("--decontam", default=None, metavar="EVAL_PARQUET",
                   help="drop docs sharing any word 3-gram with this eval set")

    ig = sub.add_parser(
        "ingest",
        help="fused tokenize+encode over raw documents parquet — "
        "incremental (new shards only), frozen vocab after the first run",
    )
    ig.add_argument("inputs", nargs="+",
                    help="documents parquet paths/dirs (the FULL corpus, old + new)")
    ig.add_argument("--out", required=True)
    ig.add_argument("--target-partition-tokens", type=int, default=4_000_000)
    ig.add_argument("--codec", action="append", default=[], metavar="COL=CODEC")
    ig.add_argument("--no-zstd", action="store_true")
    ig.add_argument("--no-resume", action="store_true",
                    help="rebuild from scratch (clears containers, lineage AND vocab)")
    ig.add_argument("--reduce-buckets", type=int, default=None)
    ig.add_argument("--staged-dir", default=None)
    ig.add_argument("--dedup-exact", action="store_true",
                    help="tombstone newly-ingested rows whose token content "
                    "already exists in the pre-existing corpus")
    ig.add_argument("--dedup-minhash", action="store_true",
                    help="NEAR variant of --dedup-exact (token-shingle "
                    "MinHash agreement >= --dedup-threshold)")
    ig.add_argument("--dedup-threshold", type=float, default=0.7)

    mg = sub.add_parser(
        "merge",
        help="union another encoded corpus into this one as new ingest "
        "generations — hardlink/copy containers, no re-encode",
    )
    mg.add_argument("src_dir", help="the encode out dir to import FROM (unchanged)")
    mg.add_argument("--out", required=True, help="the encode out dir to merge INTO")
    mg.add_argument("--dedup-exact", action="store_true",
                    help="tombstone imported rows whose token sequence already "
                    "exists in the destination (cross-store exact dedup; "
                    "purge reclaims the bytes)")
    mg.add_argument("--dedup-minhash", action="store_true",
                    help="NEAR variant: tombstone imported rows whose "
                    "token-shingle MinHash agreement with a destination row "
                    "reaches --dedup-threshold")
    mg.add_argument("--dedup-threshold", type=float, default=0.7)

    cd = sub.add_parser(
        "corpus-diff",
        help="content-level diff of two encoded stores: distinct token "
        "contents removed/common/added (doc ids and sources ignored — "
        "re-idd copies compare as unchanged)",
    )
    cd.add_argument("a_dir", help="the 'before' store")
    cd.add_argument("b_dir", help="the 'after' store")

    bp = sub.add_parser(
        "bpe-reencode",
        help="train N BPE merges over a store and re-encode it with "
        "them: fewer tokens, bigger vocab, exactly invertible "
        "(detokenize expands the merges transparently)",
    )
    bp.add_argument("src_dir", help="the encoded store to re-encode FROM (unchanged)")
    bp.add_argument("--out", required=True)
    bp.add_argument("--rounds", type=int, default=16, help="merge rules to train")
    bp.add_argument("--sample-frac", type=float, default=None,
                    help="train merges on a sample (the 100-TB path)")
    bp.add_argument("--target-partition-tokens", type=int, default=4_000_000)
    bp.add_argument("--no-zstd", action="store_true")
    bp.add_argument("--no-resume", action="store_true")
    bp.add_argument("--reduce-buckets", type=int, default=None)
    bp.add_argument("--staged-dir", default=None)

    dg = sub.add_parser(
        "drop-gen",
        help="retire an entire ingest generation (the merge inverse / "
        "provenance takedown): O(partitions) unlinks, survivors untouched",
    )
    dg.add_argument("out_dir", help="the encode out dir")
    dg.add_argument("--gen", type=int, required=True,
                    help="ingest generation number to drop (see inspect)")

    rm = sub.add_parser(
        "remap-vocab",
        help="re-express a store's token ids in a TARGET vocabulary "
        "(one integer gather per token, no string round-trip) so a "
        "vocab-incompatible store becomes mergeable",
    )
    rm.add_argument("src_dir", help="the encoded store to remap FROM (unchanged)")
    rm.add_argument("--out", required=True, help="the remapped store to create")
    rm.add_argument("--vocab", required=True,
                    help="target vocab.json path, or a store dir holding one "
                    "(typically the merge destination)")
    rm.add_argument("--target-partition-tokens", type=int, default=4_000_000)
    rm.add_argument("--no-zstd", action="store_true")
    rm.add_argument("--no-resume", action="store_true")
    rm.add_argument("--reduce-buckets", type=int, default=None)
    rm.add_argument("--staged-dir", default=None)

    tk = sub.add_parser(
        "tokenize",
        help="documents parquet -> tokseq shards (out/shards) + out/vocab.json",
    )
    tk.add_argument("input", help="documents parquet (dir or file): doc_id, text, source")
    tk.add_argument("--out", required=True)
    tk.add_argument("--vocab", default=None,
                    help="freeze an existing vocab.json (unseen words -> OOV id); "
                    "REQUIRED for shards that must join an already-encoded corpus")

    dt = sub.add_parser(
        "detokenize", help="tokseq shards + vocab.json -> documents parquet"
    )
    dt.add_argument("input", help="a tokenize out dir, or any tokseq shard dir/file")
    dt.add_argument("--out", required=True)
    dt.add_argument("--vocab", default=None,
                    help="vocab.json path (default: input/vocab.json)")

    ins = sub.add_parser("inspect", help="summarize an encode out dir from its manifest")
    ins.add_argument("out_dir")

    fs = sub.add_parser(
        "fsck",
        help="metadata-only consistency audit of an encode out dir "
        "(manifest <-> containers <-> plan <-> tombstones; exit 1 on errors)",
    )
    fs.add_argument("out_dir")
    fs.add_argument("--reclaim", action="store_true",
                    help="delete benign leftovers: orphan containers, tmp/ "
                         "scratch, and (complete jobs only) staged/ scratch")

    lk = sub.add_parser(
        "lookup",
        help="point-lookup doc ids in an encoded out dir (index-free: the "
        "partition is hash(doc_id) %% buckets)",
    )
    lk.add_argument("out_dir", help="the encode out dir")
    lk.add_argument("--ids", required=True, help="comma-separated doc ids")
    lk.add_argument("--sources", default=None,
                    help="comma-separated source hint (fanout 1 per id)")
    lk.add_argument("--to", default=None, help="write hits as parquet here")

    so = sub.add_parser(
        "sort",
        help="globally sort a parquet table (output files are range-ordered "
        "by name: the writer embeds the block index)",
    )
    so.add_argument("input", help="parquet file or directory")
    so.add_argument("--out", required=True)
    so.add_argument("--by", required=True, help="sort key column")
    so.add_argument("--desc", action="store_true")

    x = sub.add_parser(
        "export-range",
        help="hive-partition a parquet table into key-range buckets (sort-free)",
    )
    x.add_argument("input", help="parquet file or directory")
    x.add_argument("--out", required=True)
    x.add_argument("--by", required=True, help="numeric/temporal partition key")
    x.add_argument("--partitions", type=int, default=16)

    xp = sub.add_parser(
        "export-packed",
        help="export fixed-length packed training shards from an encoded corpus",
    )
    xp.add_argument("out_dir", help="the encode out dir")
    xp.add_argument("--to", required=True, help="destination shard directory")
    xp.add_argument("--seq-len", type=int, default=2048)
    xp.add_argument("--order", default="hash",
                    metavar="hash|int|ann:NAME:COL[:asc|desc]",
                    help="concat order: 63-bit doc_id hash (any id type), "
                         "ascending integer doc_id, or curriculum order by an "
                         "annotation column (ann:token_stats:n_distinct — "
                         "run `annotate` first; ties break by doc_id; "
                         ":desc = hard-first)")
    xp.add_argument("--sources", default=None, help="comma-separated source filter")
    xp.add_argument("--max-gen", type=int, default=None,
                    help="snapshot export: ingest generations <= N")
    xp.add_argument("--buckets", type=int, default=64)
    xp.add_argument("--seed", type=int, default=0,
                    help="reseed the hash order (per-epoch deterministic "
                         "global reshuffle; ignored with --order int)")
    xp.add_argument("--boundaries", action="store_true",
                    help="add doc_starts: within-chunk offsets where a "
                         "document begins (attention-reset positions)")
    xp.add_argument("--ann-filter", action="append", default=None,
                    metavar="NAME:COL:LO:HI",
                    help="keep docs whose annotation col is in [LO, HI] "
                         "(empty bound = open; repeatable, ANDed); "
                         "run `annotate` first")
    xp.add_argument("--weights", default=None, metavar="SRC=RATE,...",
                    help="per-source keep rate (domain mixture); "
                         "unlisted sources keep everything")
    xp.add_argument("--weight-hash", choices=["fnv", "md5"], default="fnv",
                    help="mixture threshold hash (fnv = vectorized "
                         "scale default, md5 = oracle-parity)")
    xp.add_argument("--narrow", action="store_true",
                    help="write tokens as list<uint16> (half the shard "
                         "bytes; fails loudly if any id exceeds 65535)")

    f = sub.add_parser("profile", help="per-column stats of a parquet table")
    f.add_argument("input", help="parquet file or directory")
    f.add_argument("--columns", default=None,
                   help="comma-separated subset (default: all columns)")

    q = sub.add_parser("query", help="run a registered analysis pipeline by name")
    q.add_argument("name", nargs="?", default=None, help="QUERIES key (omit with --list)")
    q.add_argument("--sf-dir", default="/root/testdata/sf0.001",
                   help="directory holding the input parquet tables")
    q.add_argument("--out", default=None,
                   help="write the result as parquet here instead of printing")
    q.add_argument("--limit", type=int, default=20, help="rows to print when not writing")
    q.add_argument("--list", action="store_true", help="list registered query names")
    q.add_argument("--stats", action="store_true",
                   help="print ray.data execution stats after the run")
    q.add_argument("--check", action="store_true",
                   help="run the DuckDB oracle side-by-side and report parity "
                        "(exit 1 on mismatch)")
    q.add_argument("--check-all", action="store_true",
                   help="run EVERY oracle-checked query against DuckDB and "
                        "print a summary (exit 1 if any mismatch)")
    # mutating commands hold out_dir/.lock (state/lock.py); this flag
    # steals a lock whose owner is known dead (crashed job, lost host)
    for _name in ("encode", "encode-inc", "compact", "delete", "purge",
                  "upsert", "table-encode", "merge", "ingest", "remap-vocab",
                  "drop-gen", "bpe-reencode", "redact"):
        sub.choices[_name].add_argument(
            "--break-lock", action="store_true",
            help="steal out_dir/.lock from a dead job")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.cmd == "fsck":
        # metadata-only: O(partitions) stats, no Ray session needed
        from fileconvert_ray.state.fsck import fsck

        report = fsck(args.out_dir, reclaim=args.reclaim)
        print(json.dumps(report, sort_keys=True))
        return 0 if report["ok"] else 1
    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    # single-writer guard: mutating commands hold out_dir/.lock for the
    # whole command (the crash-safety protocols assume ONE writer; see
    # state/lock.py).  Readers (decode/query/verify/...) take no lock.
    from contextlib import ExitStack

    _MUTATORS = {"encode": "out", "encode-inc": "out", "compact": "out_dir",
                 "delete": "out_dir", "purge": "out_dir", "upsert": "out",
                 "redact": "out_dir",
                 "table-encode": "out", "merge": "out", "ingest": "out",
                 "remap-vocab": "out", "drop-gen": "out_dir",
                 "bpe-reencode": "out"}
    _stack = ExitStack()
    if args.cmd in _MUTATORS:
        from fileconvert_ray.state.lock import LockHeldError, job_lock

        try:
            _stack.enter_context(
                job_lock(getattr(args, _MUTATORS[args.cmd]), args.cmd,
                         force=getattr(args, "break_lock", False))
            )
        except LockHeldError as e:
            print(json.dumps({"ok": False, "error": str(e)}))
            ray.shutdown()
            return 3
    try:
        if args.cmd == "convert":
            from fileconvert_ray.sources.csvio import (
                CsvOptions,
                csv_to_parquet,
                parquet_to_csv,
            )

            opts = CsvOptions(
                delimiter=args.delimiter,
                header=not args.no_header,
                skip_rows=args.skip_rows,
                include=args.include.split(",") if args.include else None,
                exclude=args.exclude.split(",") if args.exclude else None,
                renames=_kv_pairs(args.rename),
                types=_kv_pairs(args.type),
                sanitize=not args.no_sanitize,
            )
            first = args.inputs[0]
            in_feather = first.endswith(".arrow") or (
                os.path.isdir(first)
                and any(f.endswith(".arrow") for f in os.listdir(first))
            )
            in_jsonl = first.endswith((".jsonl", ".json")) or (
                os.path.isdir(first)
                and any(f.endswith((".jsonl", ".json")) for f in os.listdir(first))
            )
            if args.to in ("feather", "jsonl") or in_feather or in_jsonl:
                # generic any->any path through a Dataset (feather is
                # schema-complete so CSV inference/projection options
                # only apply on a CSV source)
                import ray.data as rd

                from fileconvert_ray.sources.featherio import (
                    read_feather_dataset,
                    write_feather_dataset,
                )

                if in_feather:
                    ds = read_feather_dataset(args.inputs)
                elif in_jsonl:
                    ds = rd.read_json(args.inputs)
                elif first.endswith(".csv"):
                    from fileconvert_ray.sources.csvio import read_csv_dataset

                    ds = read_csv_dataset(args.inputs, opts)
                else:
                    ds = rd.read_parquet(args.inputs)
                if args.to == "feather":
                    write_feather_dataset(ds, args.out).materialize()
                elif args.to == "jsonl":
                    ds.write_json(args.out)
                elif args.to == "parquet":
                    ds.write_parquet(
                        args.out,
                        compression=args.compression,
                        row_group_size=args.row_group_size,
                    )
                else:
                    ds.write_csv(args.out)
            elif args.to == "parquet":
                csv_to_parquet(
                    args.inputs, args.out, opts,
                    compression=args.compression, row_group_size=args.row_group_size,
                )
            else:
                parquet_to_csv(args.inputs, args.out, opts)
            print(json.dumps({"ok": True, "out": args.out}))
        elif args.cmd == "encode":
            import ray.data as rd

            from fileconvert_ray.pipelines.encode_job import EncodeConfig, run_encode

            needs_cast = _require_tokseq_schema(args.input)
            cfg = EncodeConfig(
                out_dir=args.out,
                target_partition_tokens=args.target_partition_tokens,
                codec_overrides=_kv_pairs(args.codec),
                zstd=not args.no_zstd,
                resume=not args.no_resume,
                reduce_buckets=args.reduce_buckets,
                staged_dir=args.staged_dir,
            )
            if needs_cast:
                from fileconvert_ray.sources.tokseq import normalize_tokseq

                factory = lambda: normalize_tokseq(rd.read_parquet(args.input))
            else:
                factory = lambda: rd.read_parquet(args.input)
            m = run_encode(factory, cfg).to_pandas()
            print(json.dumps({
                "ok": True,
                "partitions": int(len(m)),
                "n_rows": int(m["n_rows"].sum()),
                "n_tokens": int(m["n_tokens"].sum()),
                "encoded_bytes": int(m["encoded_bytes"].sum()),
            }))
        elif args.cmd == "encode-inc":
            import glob as _glob

            import ray.data as rd

            from fileconvert_ray.pipelines.encode_job import EncodeConfig, run_encode_files

            files = []
            for p in args.inputs:
                files.extend(
                    sorted(_glob.glob(os.path.join(p, "*.parquet")))
                    if os.path.isdir(p) else [p]
                )
            needs_cast = _require_tokseq_schema(files[0]) if files else False
            cfg = EncodeConfig(
                out_dir=args.out,
                target_partition_tokens=args.target_partition_tokens,
                codec_overrides=_kv_pairs(args.codec),
                zstd=not args.no_zstd,
                resume=not args.no_resume,
                reduce_buckets=args.reduce_buckets,
                staged_dir=args.staged_dir,
            )
            inc_kw = {}
            if needs_cast:
                from fileconvert_ray.sources.tokseq import normalize_tokseq

                inc_kw["ds_from_files"] = lambda fs: normalize_tokseq(
                    rd.read_parquet(fs)
                )
            m = run_encode_files(files, cfg, **inc_kw).to_pandas()
            print(json.dumps({
                "ok": True,
                "new_partitions": int(len(m)),
                "n_rows": int(m["n_rows"].sum()) if len(m) else 0,
                "n_tokens": int(m["n_tokens"].sum()) if len(m) else 0,
                "encoded_bytes": int(m["encoded_bytes"].sum()) if len(m) else 0,
            }))
        elif args.cmd == "verify":
            import ray.data as rd

            from fileconvert_ray.pipelines.verify_job import run_verify

            from fileconvert_ray.pipelines.ingest_job import ingest_verify_reader

            factory = None
            if args.input is not None:
                factory = lambda: rd.read_parquet(args.input)
            gens = (
                [int(g) for g in args.gens.split(",")] if args.gens else None
            )
            # document-ingested stores re-tokenize their recorded
            # lineage with the persisted frozen vocab (ingest.json)
            dff = ingest_verify_reader(args.out)
            if factory is None and dff is None:
                # remapped stores re-decode their recorded src store
                # and remap again (remap.json)
                from fileconvert_ray.pipelines.remap_job import remap_verify_reader

                factory = remap_verify_reader(args.out)
            if factory is None and dff is None:
                # BPE-re-encoded stores re-decode the src and re-apply
                # the recorded rules (merges.json)
                from fileconvert_ray.pipelines.bpe_job import bpe_verify_reader

                factory = bpe_verify_reader(args.out)
            v = run_verify(
                factory, args.out, mode=args.mode, by=args.by, gens=gens,
                ds_from_files=dff,
            ).to_pandas()
            ok = bool(v["ok"].all()) and len(v) > 0
            print(json.dumps({
                "ok": ok, "partitions": int(len(v)),
                "n_mismatch": int(v["n_mismatch"].sum()),
            }))
            return 0 if ok else 1
        elif args.cmd == "compact":
            from fileconvert_ray.pipelines.compact_job import run_compact

            m = run_compact(
                args.out_dir,
                target_tokens=args.target_tokens,
                preserve_generations=not args.cross_gen,
            ).to_pandas()
            print(json.dumps({
                "ok": True, "rewritten": int(len(m)),
                "n_rows": int(m["n_rows"].sum()) if len(m) else 0,
            }))
        elif args.cmd == "redact":
            from fileconvert_ray.pipelines.redact_job import run_redact

            res = run_redact(
                args.out_dir, args.where_phrase, dry_run=args.dry_run,
                sources=args.sources.split(",") if args.sources else None,
            )
            print(json.dumps({"ok": True, **res}))
            return 0
        elif args.cmd == "delete":
            from fileconvert_ray.pipelines.delete_job import (
                run_delete,
                run_delete_quantile,
                run_delete_where,
            )

            n_sel = sum(
                1 for s in (
                    args.ids or args.ids_file, args.where_ann,
                    args.where_ann_quantile, args.where_phrase,
                ) if s
            )
            if n_sel > 1:
                raise SystemExit("delete: pass exactly one selector "
                                 "(--ids/--ids-file, --where-ann, "
                                 "--where-ann-quantile, --where-phrase)")
            if args.where_phrase:
                from fileconvert_ray.pipelines.delete_job import run_delete_matching

                res = run_delete_matching(args.out_dir, args.where_phrase)
                print(json.dumps({"ok": True, **res}))
                return 0
            if args.where_ann_quantile:
                parts = args.where_ann_quantile.split(":")
                if len(parts) not in (3, 4):
                    raise SystemExit(
                        "--where-ann-quantile wants NAME:COL:FRAC[:bottom|top], "
                        f"got {args.where_ann_quantile!r}"
                    )
                name, col, frac = parts[0], parts[1], float(parts[2])
                side = parts[3] if len(parts) == 4 else "bottom"
                res = run_delete_quantile(args.out_dir, name, col, frac, side)
                print(json.dumps({"ok": True, **res}))
                return 0
            if args.where_ann:
                if args.ids or args.ids_file:
                    raise SystemExit("delete: --where-ann excludes --ids/--ids-file")
                parts = args.where_ann.split(":")
                if len(parts) != 4:
                    raise SystemExit(
                        f"--where-ann wants NAME:COL:LO:HI, got {args.where_ann!r}"
                    )
                name, col, lo, hi = parts
                res = run_delete_where(
                    args.out_dir, name, col,
                    lo=float(lo) if lo else None,
                    hi=float(hi) if hi else None,
                )
                print(json.dumps({"ok": True, **res}))
                return 0
            ids: list[str] = []
            if args.ids:
                ids.extend(args.ids.split(","))
            if args.ids_file:
                with open(args.ids_file) as f:
                    ids.extend(ln.strip() for ln in f if ln.strip())
            if not ids:
                print(json.dumps({"ok": False, "error": "no ids given (--ids / --ids-file / --where-ann)"}))
                return 2
            res = run_delete(
                args.out_dir, ids,
                sources=args.sources.split(",") if args.sources else None,
            )
            print(json.dumps({"ok": True, **res}))
        elif args.cmd == "upsert":
            from fileconvert_ray.pipelines.encode_job import EncodeConfig
            from fileconvert_ray.pipelines.upsert_job import run_upsert

            res = run_upsert(
                args.out, args.shards,
                EncodeConfig(out_dir=args.out,
                             target_partition_tokens=args.target_partition_tokens),
            )
            m = res.pop("metrics").to_pandas()
            print(json.dumps({
                "ok": True, **res,
                "partitions_written": int(len(m)),
                "n_rows": int(m["n_rows"].sum()) if len(m) else 0,
            }))
        elif args.cmd == "purge":
            from fileconvert_ray.pipelines.delete_job import run_purge

            s = run_purge(args.out_dir).to_pandas()
            print(json.dumps({
                "ok": True,
                "partitions": int(len(s)),
                "rewritten": int((s["action"] == "rewritten").sum()) if len(s) else 0,
                "dropped": int((s["action"] == "dropped").sum()) if len(s) else 0,
            }))
        elif args.cmd == "decode":
            from fileconvert_ray.stages.decoder import decode_dataset

            decode_dataset(
                args.out_dir,
                sources=args.sources.split(",") if args.sources else None,
                min_n_tok=args.min_ntok,
                max_n_tok=args.max_ntok,
                columns=args.columns.split(",") if args.columns else None,
                max_gen=args.max_gen,
                with_annotations=args.with_ann.split(",") if args.with_ann else None,
            ).write_parquet(args.to)
            print(json.dumps({"ok": True, "out": args.to}))
        elif args.cmd == "table-encode":
            import ray.data as rd

            from fileconvert_ray.sources.tablecontainer import write_container_table

            first = args.input
            names = os.listdir(first) if os.path.isdir(first) else [first]
            if any(n.endswith((".csv", ".csv.gz")) for n in names):
                ds = rd.read_csv(args.input)
            elif any(n.endswith((".jsonl", ".json")) for n in names):
                ds = rd.read_json(args.input)
            elif any(n.endswith(".arrow") for n in names):
                from fileconvert_ray.sources.featherio import read_feather_dataset

                ds = read_feather_dataset(args.input)
            else:
                ds = rd.read_parquet(args.input)
            if args.sort_by:
                ds = ds.sort(args.sort_by)
            man = write_container_table(
                ds, args.out, batch_rows=args.batch_rows,
                mode="append" if args.append else "error",
            ).to_pandas()
            print(
                json.dumps(
                    {
                        "ok": True,
                        "out": args.out,
                        "files": len(man),
                        "n_rows": int(man["n_rows"].sum()),
                        "encoded_bytes": int(man["encoded_bytes"].sum()),
                        "plain_bytes": int(man["plain_bytes"].sum()),
                    }
                )
            )
        elif args.cmd == "table-decode":
            from fileconvert_ray.sources.tablecontainer import read_container_table

            predicate = None
            if args.where:
                def _bound(s: str):
                    if not s:
                        return None
                    try:
                        return float(s) if "." in s or "e" in s.lower() else int(s)
                    except ValueError:
                        import datetime as _dt

                        return _dt.datetime.fromisoformat(s)

                predicate = []
                for w in args.where:
                    wcol, wlo, whi = w.split(":", 2)
                    predicate.append((wcol, _bound(wlo), _bound(whi)))
            read_container_table(
                args.out_dir,
                columns=args.columns.split(",") if args.columns else None,
                predicate=predicate,
            ).write_parquet(args.to)
            print(json.dumps({"ok": True, "out": args.to}))
        elif args.cmd == "table-compact":
            from fileconvert_ray.sources.tablecontainer import (
                read_container_table,
                write_container_table,
            )

            man = write_container_table(
                read_container_table(args.out_dir), args.to, batch_rows=args.batch_rows
            ).to_pandas()
            print(
                json.dumps(
                    {
                        "ok": True,
                        "out": args.to,
                        "files": len(man),
                        "n_rows": int(man["n_rows"].sum()),
                        "encoded_bytes": int(man["encoded_bytes"].sum()),
                    }
                )
            )
        elif args.cmd == "table-inspect":
            from fileconvert_ray.sources.tablecontainer import inspect_container_table

            t = inspect_container_table(args.out_dir)
            print(json.dumps({"ok": True, "columns": t.to_pylist()}))
        elif args.cmd == "pack":
            import ray.data as rd

            from fileconvert_ray.functions.packing import pack_sequences

            def int_order(batch):
                import pyarrow as pa
                import pyarrow.compute as pc

                i = batch.column_names.index(args.order_col)
                return batch.set_column(
                    i, args.order_col, pc.cast(batch.column(args.order_col), pa.int64())
                )

            ds = rd.read_parquet(args.input).map_batches(
                int_order, batch_format="pyarrow", zero_copy_batch=True
            )
            packed = pack_sequences(
                ds, seq_len=args.seq_len, order_col=args.order_col, n_buckets=args.buckets
            )
            packed.write_parquet(args.out)
            import pyarrow.dataset as pds

            n = pds.dataset(args.out).count_rows()
            print(json.dumps({"ok": True, "out": args.out, "chunks": int(n),
                              "seq_len": args.seq_len}))
        elif args.cmd == "dedup":
            import ray.data as rd

            from fileconvert_ray.functions.dedup import exact_dedup

            surv = exact_dedup(
                rd.read_parquet(args.input), key=args.key, id_col=args.id,
                strategy=args.strategy,
            )
            surv.write_parquet(args.out)
            import pyarrow.dataset as pds

            n = pds.dataset(args.out).count_rows()
            print(json.dumps({"ok": True, "out": args.out, "survivors": int(n)}))
        elif args.cmd == "curate":
            from fileconvert_ray.pipelines.curate_job import run_curate

            print(json.dumps(run_curate(
                args.input, args.out,
                encode=not args.no_encode,
                target_partition_tokens=args.target_partition_tokens,
                near_dedup=args.near_dedup,
                decontam_path=args.decontam,
            )))
        elif args.cmd == "annotate":
            from fileconvert_ray.pipelines.annotate_job import run_annotate

            print(json.dumps(run_annotate(args.out_dir, args.name)))
        elif args.cmd == "index":
            from fileconvert_ray.pipelines.search_job import run_build_index

            print(json.dumps(run_build_index(args.out_dir)))
        elif args.cmd == "search":
            from fileconvert_ray.pipelines.search_job import run_search

            if (args.phrase is None) == (args.token_ids is None):
                raise SystemExit("search: pass exactly one of --phrase / --token-ids")
            tids = (
                [int(x) for x in args.token_ids.split(",")]
                if args.token_ids is not None
                else None
            )
            if args.phrase is not None and len(args.phrase) > 1:
                if args.positions:
                    raise SystemExit(
                        "search: --positions needs a single phrase / --token-ids"
                    )
                from fileconvert_ray.pipelines.search_job import run_search_many

                ds = run_search_many(
                    args.out_dir, args.phrase, use_index=not args.no_index,
                    sources=args.sources.split(",") if args.sources else None,
                )
            else:
                ds = run_search(
                    args.out_dir,
                    args.phrase[0] if args.phrase else None,
                    token_ids=tids, use_index=not args.no_index,
                    with_positions=args.positions,
                    sources=args.sources.split(",") if args.sources else None,
                )
            import pyarrow.compute as pc

            n_docs = 0
            n_hits = 0
            shown = []
            for b in ds.iter_batches(batch_format="pyarrow"):
                n_docs += b.num_rows
                n_hits += pc.sum(b.column("n_hits")).as_py() or 0
                for r in b.slice(0, max(0, args.limit - len(shown))).to_pylist():
                    shown.append(r)
            print(json.dumps({"docs": n_docs, "hits": int(n_hits), "sample": shown}))
        elif args.cmd == "ingest":
            from fileconvert_ray.pipelines.ingest_job import run_ingest

            print(json.dumps(run_ingest(
                args.inputs, args.out,
                target_partition_tokens=args.target_partition_tokens,
                codec_overrides=_kv_pairs(args.codec),
                zstd=not args.no_zstd,
                resume=not args.no_resume,
                reduce_buckets=args.reduce_buckets,
                staged_dir=args.staged_dir,
                dedup=("exact" if args.dedup_exact
                       else "minhash" if args.dedup_minhash else None),
                dedup_threshold=args.dedup_threshold,
            )))
        elif args.cmd == "merge":
            from fileconvert_ray.pipelines.merge_job import run_merge

            if args.dedup_exact and args.dedup_minhash:
                raise SystemExit("merge: pass at most one of --dedup-exact / --dedup-minhash")
            print(json.dumps(run_merge(
                args.out, args.src_dir,
                dedup=("exact" if args.dedup_exact
                       else "minhash" if args.dedup_minhash else None),
                dedup_threshold=args.dedup_threshold,
            )))
        elif args.cmd == "corpus-diff":
            from fileconvert_ray.pipelines.diff_job import corpus_diff

            rows = corpus_diff(args.a_dir, args.b_dir).take_all()  # 3 rows
            print(json.dumps(
                {"ok": True, **{r["status"]: int(r["n_contents"]) for r in rows}}
            ))
        elif args.cmd == "bpe-reencode":
            from fileconvert_ray.pipelines.bpe_job import run_bpe_reencode

            print(json.dumps(run_bpe_reencode(
                args.src_dir, args.out, rounds=args.rounds,
                sample_frac=args.sample_frac,
                target_partition_tokens=args.target_partition_tokens,
                zstd=not args.no_zstd, resume=not args.no_resume,
                reduce_buckets=args.reduce_buckets,
                staged_dir=args.staged_dir,
            )))
        elif args.cmd == "drop-gen":
            from fileconvert_ray.pipelines.merge_job import run_drop_generation

            print(json.dumps(run_drop_generation(args.out_dir, args.gen)))
        elif args.cmd == "remap-vocab":
            from fileconvert_ray.pipelines.remap_job import run_remap

            print(json.dumps(run_remap(
                args.src_dir, args.out, vocab=args.vocab,
                target_partition_tokens=args.target_partition_tokens,
                zstd=not args.no_zstd, resume=not args.no_resume,
                reduce_buckets=args.reduce_buckets,
                staged_dir=args.staged_dir,
            )))
        elif args.cmd == "tokenize":
            from fileconvert_ray.pipelines.tokenize_job import run_tokenize

            print(json.dumps(run_tokenize(args.input, args.out, vocab_path=args.vocab)))
        elif args.cmd == "detokenize":
            from fileconvert_ray.pipelines.tokenize_job import run_detokenize

            print(json.dumps(run_detokenize(args.input, args.out, vocab_path=args.vocab)))
        elif args.cmd == "inspect":
            from collections import Counter

            from fileconvert_ray.state.manifest import read_manifest_entries

            entries = read_manifest_entries(args.out_dir)  # O(partitions)
            codecs: Counter = Counter()
            per_src: Counter = Counter()
            tot_rows = tot_tok = tot_bytes = 0
            for rec in entries.values():
                tot_rows += int(rec.get("n_rows", 0))
                tot_tok += int(rec.get("n_tokens", 0))
                tot_bytes += int(rec.get("container_bytes", 0))
                per_src[rec.get("source", "?")] += 1
                for col, codec in rec.get("columns", {}).items():
                    codecs[f"{col}:{codec}"] += 1
            gens = None
            try:
                from fileconvert_ray.state.manifest import read_plan

                gdocs = read_plan(args.out_dir).get("generations")
                if gdocs:
                    gens = [
                        {
                            "gen": int(g["gen"]),
                            "files": len(g["files"]),
                            "planned_partitions": int(sum(g["buckets"].values())),
                            "tokens": int(sum(g["source_tokens"].values())),
                            "sealed": bool(g.get("sealed")),
                            **({"merged_from": g["merged_from"]}
                               if g.get("merged_from") else {}),
                        }
                        for g in gdocs
                    ]
            except FileNotFoundError:
                pass
            from fileconvert_ray.state.manifest import read_tombstones, tombstoned_partitions

            tomb_pids = tombstoned_partitions(args.out_dir)
            n_tombstoned = sum(
                len(read_tombstones(args.out_dir, p) or ()) for p in tomb_pids
            )
            # sidecar coverage: how many partitions each derived
            # annotation / search index actually covers (gaps appear
            # after compact/merge/upsert/redact until the owning job's
            # idempotent gap-fill re-runs)
            import os as _os

            sidecars = {}
            for root in ("ann", "index"):
                rdir = _os.path.join(args.out_dir, root)
                if not _os.path.isdir(rdir):
                    continue
                for name in sorted(_os.listdir(rdir)):
                    ndir = _os.path.join(rdir, name)
                    if not _os.path.isdir(ndir):
                        continue
                    have = sum(
                        1
                        for p in entries
                        if _os.path.exists(_os.path.join(ndir, f"{p}.parquet"))
                    )
                    sidecars[f"{root}/{name}"] = {
                        "partitions": have, "of": len(entries)
                    }
            print(json.dumps({
                "ok": True,
                "partitions": len(entries),
                "sources": len(per_src),
                "n_rows": tot_rows,
                "n_tokens": tot_tok,
                "container_bytes": tot_bytes,
                "bytes_per_token": (round(tot_bytes / tot_tok, 4) if tot_tok else None),
                "codec_mix": dict(sorted(codecs.items())),
                **({"sidecars": sidecars} if sidecars else {}),
                **({"generations": gens} if gens else {}),
                **(
                    {
                        "tombstoned_docs": n_tombstoned,
                        "tombstoned_partitions": len(tomb_pids),
                        "live_rows": tot_rows - n_tombstoned,
                        "note": "run `purge` to reclaim",
                    }
                    if tomb_pids
                    else {}
                ),
            }))
        elif args.cmd == "lookup":
            from fileconvert_ray.stages.decoder import lookup_docs

            t = lookup_docs(
                args.out_dir, args.ids.split(","),
                sources=args.sources.split(",") if args.sources else None,
            )
            if args.to:
                import pyarrow.parquet as pq_

                pq_.write_table(t, args.to)
                print(json.dumps({"ok": True, "rows": t.num_rows, "out": args.to}))
            else:
                print(json.dumps({
                    "ok": True, "rows": t.num_rows,
                    "docs": [
                        {"doc_id": d, "n_tok": n, "source": s}
                        for d, n, s in zip(
                            t.column("doc_id").to_pylist(),
                            t.column("n_tok").to_pylist(),
                            t.column("source").to_pylist(),
                        )
                    ],
                }))
        elif args.cmd == "sort":
            import pyarrow.dataset as pds
            import ray.data as rd

            ds = rd.read_parquet(args.input).sort(args.by, descending=args.desc)
            ds.write_parquet(args.out)
            print(json.dumps({
                "ok": True, "out": args.out,
                "rows": int(pds.dataset(args.out).count_rows()),
            }))
        elif args.cmd == "export-range":
            from fileconvert_ray.functions.export import range_partition_parquet

            man = range_partition_parquet(
                args.input, args.out, args.by, n_partitions=args.partitions
            )
            print(json.dumps({"ok": True, **man}))
        elif args.cmd == "export-packed":
            from fileconvert_ray.pipelines.pack_job import run_export_packed

            ann_filter = None
            if args.ann_filter:
                ann_filter = []
                for spec in args.ann_filter:
                    parts = spec.split(":")
                    if len(parts) != 4:
                        raise SystemExit(
                            f"--ann-filter wants NAME:COL:LO:HI, got {spec!r}"
                        )
                    name, col, lo, hi = parts
                    ann_filter.append(
                        (
                            name,
                            col,
                            float(lo) if lo else None,
                            float(hi) if hi else None,
                        )
                    )
            weights = None
            if args.weights:
                weights = {}
                for kv in args.weights.split(","):
                    k, _, v = kv.partition("=")
                    weights[k] = float(v)
            order, ann_order = args.order, None
            if order.startswith("ann:"):
                parts = order.split(":")
                if len(parts) not in (3, 4) or (
                    len(parts) == 4 and parts[3] not in ("asc", "desc")
                ):
                    raise SystemExit(
                        f"--order ann wants ann:NAME:COL[:asc|desc], got "
                        f"{args.order!r}"
                    )
                order, ann_order = "ann", tuple(parts[1:])
            elif order not in ("hash", "int"):
                raise SystemExit(
                    f"--order wants hash, int or ann:NAME:COL[:asc|desc], "
                    f"got {args.order!r}"
                )
            res = run_export_packed(
                args.out_dir,
                args.to,
                args.seq_len,
                order=order,
                ann_order=ann_order,
                seed=args.seed,
                boundaries=args.boundaries,
                sources=args.sources.split(",") if args.sources else None,
                max_gen=args.max_gen,
                n_buckets=args.buckets,
                ann_filter=ann_filter,
                weights=weights,
                weight_hash=args.weight_hash,
                narrow=args.narrow,
            )
            print(json.dumps({"ok": True, "out": args.to, **res}))
        elif args.cmd == "profile":
            from fileconvert_ray.functions.profile import profile_parquet

            cols = args.columns.split(",") if args.columns else None
            t = profile_parquet(args.input, columns=cols)
            print(json.dumps({"ok": True, "profile": t.to_pylist()}))
        elif args.cmd == "query":
            from fileconvert_ray.functions.queries import ORACLE_SQL, QUERIES

            import pandas as pd
            import pyarrow as pa
            import ray.data

            def _oracle_con():
                import duckdb

                con = duckdb.connect()
                for t in ("region nation customer supplier part orders "
                          "lineitem events documents embeddings").split():
                    con.execute(
                        f"create view {t} as select * from "
                        f"read_parquet('{args.sf_dir}/{t}.parquet')"
                    )
                return con

            def _oracle_compare(res, sql, con):
                """(rows_match, cols_match, vals_match, n_ray, n_sql) —
                the driver's gate: order-insensitive, exact for ints,
                strict allclose for floats."""
                import numpy as np

                rdf = res.to_pandas() if not isinstance(res, pd.DataFrame) else res
                odf = con.execute(sql).df()
                rows_match = len(rdf) == len(odf)
                cols_match = sorted(rdf.columns) == sorted(odf.columns)
                vals_match = rows_match and cols_match
                if vals_match:
                    a = rdf[sorted(rdf.columns)].sort_values(
                        sorted(rdf.columns), ignore_index=True)
                    b = odf[sorted(odf.columns)].sort_values(
                        sorted(odf.columns), ignore_index=True)
                    for c in a.columns:
                        av, bv = a[c].to_numpy(), b[c].to_numpy()
                        if av.dtype.kind == "f" or bv.dtype.kind == "f":
                            ok = bool(np.allclose(av.astype(float), bv.astype(float),
                                                  rtol=0, atol=0))
                        else:
                            ok = bool((av == bv).all())
                        if not ok:
                            vals_match = False
                            break
                return rows_match, cols_match, vals_match, len(rdf), len(odf)

            if args.check_all:
                con = _oracle_con()
                names = sorted(k for k in QUERIES if k in ORACLE_SQL)
                fails: list[str] = []
                for name in names:
                    try:
                        rm, cm, vm, _, _ = _oracle_compare(
                            QUERIES[name](args.sf_dir), ORACLE_SQL[name], con
                        )
                        if not (rm and cm and vm):
                            fails.append(name)
                    except Exception as e:
                        fails.append(f"{name}: {type(e).__name__}")
                print(json.dumps({
                    "ok": not fails, "green": len(names) - len(fails),
                    "checked": len(names), "fails": fails,
                }))
                return 0 if not fails else 1
            if args.list or args.name is None:
                print(json.dumps({
                    "queries": sorted(QUERIES),
                    "oracle_checked": sorted(k for k in QUERIES if k in ORACLE_SQL),
                }))
                return 0
            if args.name not in QUERIES:
                raise SystemExit(f"unknown query {args.name!r}; try --list")

            res = QUERIES[args.name](args.sf_dir)
            if args.check:
                # side-by-side DuckDB oracle parity — the self-service
                # version of the driver's correctness gate
                if args.name not in ORACLE_SQL:
                    print(json.dumps({"ok": False, "err": "no oracle for this query"}))
                    return 1
                rm, cm, vm, n_ray, n_sql = _oracle_compare(
                    res, ORACLE_SQL[args.name], _oracle_con()
                )
                print(json.dumps({
                    "ok": bool(rm and cm and vm),
                    "rows_match": rm, "cols_match": cm, "vals_match": vm,
                    "rows": int(n_ray), "oracle_rows": int(n_sql),
                }))
                return 0 if (rm and cm and vm) else 1
            if isinstance(res, ray.data.Dataset) and args.out:
                # stream straight to parquet — never collect on the driver
                res.write_parquet(args.out)
                import pyarrow.dataset as pds

                out = {"ok": True, "out": args.out,
                       "rows": int(pds.dataset(args.out).count_rows())}
                if args.stats:
                    out["stats"] = res.stats()[:4000]
                print(json.dumps(out))
                return 0
            if isinstance(res, ray.data.Dataset):
                df = res.limit(args.limit).to_pandas()
                n = None  # avoid a second full pass just to count
                if args.stats:
                    print(res.stats()[:4000], file=__import__("sys").stderr)
            else:
                df = res.to_pandas() if isinstance(res, pa.Table) else pd.DataFrame(res)
                n = int(len(df))
                df = df.head(args.limit)
            if args.out:
                import pyarrow.parquet as pq_

                pq_.write_table(pa.Table.from_pandas(df, preserve_index=False), args.out)
                print(json.dumps({"ok": True, "out": args.out, "rows": n}))
                return 0
            print(json.dumps({
                "ok": True, "rows": n,
                "head": json.loads(df.to_json(orient="records", date_format="iso")),
            }))
    finally:
        _stack.close()
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
