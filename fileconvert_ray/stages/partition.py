"""Skew-aware partition assignment (SURVEY.md §2.2 E3, §4.2) and the
one partition-label scheme.

Two-step: a cheap stats pass over only (source, n_tok) — column-pruned
at the parquet read — yields per-source token totals; the bucket plan
gives each source ``k = ceil(source_token_bytes / target)`` buckets so
hot sources split into size-bounded partitions while tiny sources get
exactly one.  Assignment is a stateless vectorized map_batches.

Label scheme — every module formats, parses and attributes partition
labels through the helpers below, never by hand:

    part_id = f"{stem}-{kind}{n:04d}"
    stem    = sanitized source name + generation tag
              ("web_text", "web_text_1-g02": see sanitized_names, gen_tag)

- ``-b{n}``: encoder bucket ``n = fnv(doc_id) % k`` of the stem's
  (source, generation), ``n < k`` from the persisted plan;
- ``-c{n}``: generation-preserving compaction output of that same
  (source, generation), ``n`` a free counter;
- ``-x{n}``: cross-generation (or plan-less) compaction output, stem =
  ``sanitize_id(source)`` with no generation tag; never attributed.

A label is attributed to a generation (label_gen) only when it is
canonical (round-trips through part_label), its stem is a planned
(source, generation) whose source equals the manifest record's, and
it is ``-c`` or an in-range ``-b``.  Labels are deterministic across
processes (no PYTHONHASHSEED), which is what makes resume, snapshot
reads, point lookup, merge and verify reproduce identical partitions.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa

from ..util.hashing import hash_strings_u64

_SAN = re.compile(r"[^a-z0-9_]+")


def sanitize_id(name: str) -> str:
    """Path-safe identifier (reference's sanitize_column_name semantics,
    SURVEY §2.1 R9, applied to partition ids)."""
    s = _SAN.sub("_", name.lower()).strip("_")
    return s or "x"


def source_stats(ds) -> dict[str, int]:
    """Per-source token totals via per-batch partials, merged on the
    driver.  No groupby shuffle: the partial stream is O(tasks x
    sources) tiny rows, and a Ray sort-based groupby costs seconds of
    fixed barrier latency — pure overhead for a k<=thousands-row
    aggregate.  (At 10^12-sequence scale this driver merge is still
    O(read-tasks x sources); if sources explode, swap the tail for one
    groupby over the partials.)"""

    def partial(batch: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(batch.select(["source", "n_tok"]), "source").aggregate(
            [("n_tok", "sum")]
        )
        return g.rename_columns(["source", "tok"])

    # batch_size=None: aggregate whole blocks — the default (1024-row
    # re-slicing) multiplies task/slice overhead ~6x on a pass whose
    # per-batch work is microseconds
    small = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)
    totals: dict[str, int] = {}
    for b in small.iter_batches(batch_size=None, batch_format="pyarrow"):
        for src, tok in zip(b.column("source").to_pylist(), b.column("tok").to_pylist()):
            totals[src] = totals.get(src, 0) + int(tok)
    return totals


def bucket_plan(
    stats: dict[str, int], target_partition_tokens: int = 4_000_000
) -> dict[str, int]:
    """source -> bucket count, proportional to token share (min 1)."""
    plan = {}
    for src, tok in sorted(stats.items()):
        plan[src] = max(1, -(-int(tok) // target_partition_tokens))
    return plan


def sanitized_names(sources) -> dict[str, str]:
    """Collision-free path-safe names (dedup suffix, like R9's rename dedup)."""
    out: dict[str, str] = {}
    seen: set[str] = set()
    for src in sorted(sources):
        base = sanitize_id(src)
        name, i = base, 1
        while name in seen:
            name, i = f"{base}_{i}", i + 1
        seen.add(name)
        out[src] = name
    return out


def gen_tag(gen: int) -> str:
    """Label infix for ingest generation ``gen`` (incremental encode):
    generation 0 keeps the classic ``{source}-b{NNNN}`` labels (every
    pre-generation output stays valid); generation g >= 1 appends
    ``-g{g:02d}`` to the sanitized source so its partitions can never
    collide with another generation's (sanitized names contain no
    dashes, which keeps the scheme parseable)."""
    return f"-g{gen:02d}" if gen else ""


def part_label(stem: str, kind: str, n: int) -> str:
    """The partition label ``{stem}-{kind}{n:04d}`` (kind b, c or x)."""
    return f"{stem}-{kind}{n:04d}"


def parse_label(pid: str) -> tuple[str, str, int] | None:
    """(stem, kind, n) of a label, or None unless ``pid`` round-trips
    through part_label (so ``src-b1`` and ``src-b00001`` do not parse)."""
    stem, _, tail = pid.rpartition("-")
    kind, digits = tail[:1], tail[1:]
    if not stem or kind not in ("b", "c", "x") or not digits.isdecimal():
        return None
    n = int(digits)
    return (stem, kind, n) if part_label(stem, kind, n) == pid else None


def source_stems(gen: int, buckets) -> dict[str, str]:
    """source -> label stem for one generation's bucket plan; the
    sanitized names come from THAT generation's own source set."""
    return {src: name + gen_tag(gen) for src, name in sanitized_names(buckets).items()}


def plan_stems(gens) -> dict[str, tuple[int, str, int]]:
    """{stem: (gen, source, k)} over ``[(gen, {source: k})]`` as
    state.manifest.read_plan_generations returns it.  Stems never
    collide across generations: only generation 0's has no dash."""
    return {
        stem: (gen, src, int(buckets[src]))
        for gen, buckets in gens
        for src, stem in source_stems(gen, buckets).items()
    }


def label_owner(pid: str, stems: dict) -> tuple[int, str] | None:
    """(gen, source) a label belongs to under ``stems`` (plan_stems):
    a ``-b`` label when its ordinal is below the bucket count, a ``-c``
    label always; ``-x``, foreign and non-canonical labels never."""
    parsed = parse_label(pid)
    if parsed is None or parsed[0] not in stems:
        return None
    stem, kind, n = parsed
    gen, src, k = stems[stem]
    if kind == "c" or (kind == "b" and n < k):
        return gen, src
    return None


def label_gen(pid: str, source: str | None, stems: dict) -> int | None:
    """The attribution rule: the generation of a label whose manifest
    record names ``source``, or None (see label_owner; the stem's
    source must also equal the record's)."""
    owner = label_owner(pid, stems)
    return owner[0] if owner is not None and owner[1] == source else None


def cross_gen_stem(source: str) -> str:
    """Stem of a ``-x`` (cross-generation compaction) label."""
    return sanitize_id(source)


def make_assigner(plan: dict[str, int], gen: int = 0):
    """Vectorized part_id assignment closure for map_batches.

    ``gen``: ingest generation — appended to the sanitized source name
    (see gen_tag) so each generation's partitions are disjoint."""
    stems = source_stems(gen, plan)

    def assign(batch: pa.Table) -> pa.Table:
        src = batch.column("source").combine_chunks()
        h = hash_strings_u64(batch.column("doc_id"))
        # per-row bucket count via a small dictionary gather
        denc = src.dictionary_encode()
        dsrcs = denc.dictionary.to_pylist()
        ks = np.array([plan.get(s, 1) for s in dsrcs], dtype=np.uint64)
        names = [stems.get(s, sanitize_id(s) + gen_tag(gen)) for s in dsrcs]
        idx = denc.indices.to_numpy(zero_copy_only=False)
        bucket = (h % ks[idx]).astype(np.int64)
        # part_id strings built via dictionary gather (one python string
        # per (source, bucket) pair, not per row)
        kmax = int(ks.max()) if len(ks) else 1
        pair = idx.astype(np.int64) * kmax + bucket
        uniq, inv = np.unique(pair, return_inverse=True)
        labels = [part_label(names[int(p // kmax)], "b", int(p % kmax)) for p in uniq]
        part = pa.DictionaryArray.from_arrays(
            pa.array(inv, type=pa.int32()), pa.array(labels, type=pa.string())
        ).cast(pa.string())
        return batch.append_column("part_id", part)

    return assign


def make_resume_filter(done: frozenset):
    """Drop rows of already-completed partitions (E7) before the shuffle."""

    def flt(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if not done:
            return batch
        mask = pc.invert(pc.is_in(batch.column("part_id"), value_set=pa.array(sorted(done))))
        return batch.filter(mask)

    return flt
