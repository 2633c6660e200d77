"""Decode-verify job (SURVEY.md §3.2b) — the engine's R13 round-trip contract.

Two modes:

- ``mode="exact"``: re-derive the partitions from the original input
  (plan.json makes bucket assignment deterministic), groupby(part_id),
  and per partition align decoded vs original rows on doc_id and assert
  token-array equality bit-identical (values, n_tok, source, doc_id) —
  the literal per-row invariant.  Costs a full shuffle of the raw
  input; right for tests and spot checks.
- ``mode="hash"`` (the scale path): NO shuffle.  Two streaming passes —
  originals: map_batches computes a per-row 64-bit content hash
  (order-sensitive within the token array) and per-partition
  (count, hash-sum) partials; containers: one task per partition
  decodes and computes the same aggregate.  Equal (count, sum) pairs
  certify multiset row equality up to hash collisions (~n^2/2^64),
  with payload CRC32s still checked inside decode.  Per-partition
  verdict rows are identical in shape to exact mode.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from ..stages.decoder import read_partition
from ..stages.encoder import flat_tokens
from ..stages.partition import make_assigner
from ..state.manifest import JobDirs, read_plan
from ..util.hashing import hash_strings_u64, splitmix64

_GOLD = np.uint64(0x9E3779B97F4A7C15)
_GOLD2 = np.uint64(0xC2B2AE3D27D4EB4F)


def _row_hashes_block(t: pa.Table) -> np.ndarray:
    h = hash_strings_u64(t.column("doc_id"), seed=1)
    with np.errstate(over="ignore"):
        h ^= splitmix64(hash_strings_u64(t.column("source"), seed=2) + _GOLD)
        n_tok = t.column("n_tok").to_numpy(zero_copy_only=False).astype(np.int64)
        h ^= splitmix64(n_tok.astype(np.uint64) * _GOLD2)
        # single int32 -> uint64 conversion (C sign-extension, value-identical
        # to the former int64 detour) and in-place pos math: one fewer full
        # 8B/token copy + two fewer temporaries in the per-token path
        flat = flat_tokens(t).to_numpy(zero_copy_only=False).astype(
            np.uint64, copy=False
        )
        starts = np.concatenate(([0], np.cumsum(n_tok)))
        pos = np.arange(len(flat), dtype=np.uint64)
        pos -= np.repeat(starts[:-1].astype(np.uint64), n_tok)
        pos *= _GOLD2
        pos += flat * _GOLD
        th = splitmix64(pos)
        seg = np.zeros(t.num_rows, dtype=np.uint64)
        nonempty = n_tok > 0
        if nonempty.any():
            # starts of nonempty rows are strictly increasing, and empty
            # rows contribute zero length, so reduceat segments cover
            # exactly each nonempty row's tokens
            seg_ne = np.add.reduceat(th, starts[:-1][nonempty])
            seg[nonempty] = seg_ne
        h = splitmix64(h ^ seg)
    return h


def row_hashes(t: pa.Table, stride_tokens: int = 2_000_000) -> np.ndarray:
    """One uint64 content hash per tokseq row, identical for identical
    (doc_id, source, n_tok, tokens) regardless of row order or chunking.
    Token position is mixed in, so within-row reorder changes the hash;
    summing row hashes per partition is then order-free across rows.

    Processed in ~stride_tokens row-strides: each stride's temporaries
    are a few MiB and get reused by the allocator, where one whole-table
    pass would fault in hundreds of MiB of fresh pages per task."""
    n = t.num_rows
    if n == 0:
        return np.zeros(0, dtype=np.uint64)
    lens = t.column("n_tok").to_numpy(zero_copy_only=False).astype(np.int64)
    cum = np.cumsum(lens)
    if int(cum[-1]) <= stride_tokens:
        return _row_hashes_block(t)
    n_slices = -(-int(cum[-1]) // stride_tokens)
    row_bounds = np.searchsorted(cum, np.arange(1, n_slices) * stride_tokens) + 1
    bounds = np.concatenate(([0], row_bounds, [n]))
    out = np.empty(n, dtype=np.uint64)
    for s, e in zip(bounds[:-1], bounds[1:]):
        if e > s:
            out[int(s) : int(e)] = _row_hashes_block(t.slice(int(s), int(e - s)))
    return out

VERIFY_SCHEMA = pa.schema(
    [
        ("part_id", pa.string()),
        ("n_rows", pa.int64()),
        ("ok", pa.bool_()),
        ("n_mismatch", pa.int64()),
    ]
)


def compare_tokseq(a: pa.Table, b: pa.Table) -> int:
    """Number of mismatching rows between two doc_id-sorted tokseq tables."""
    if a.num_rows != b.num_rows:
        return max(a.num_rows, b.num_rows)
    if a.num_rows == 0:
        return 0
    bad = np.zeros(a.num_rows, dtype=bool)
    for col in ("doc_id", "source"):
        bad |= ~np.asarray(
            pa.compute.equal(a.column(col).combine_chunks(), b.column(col).combine_chunks())
        )
    na = a.column("n_tok").to_numpy(zero_copy_only=False)
    nb = b.column("n_tok").to_numpy(zero_copy_only=False)
    bad |= na != nb
    fa = flat_tokens(a).to_numpy(zero_copy_only=False)
    fb = flat_tokens(b).to_numpy(zero_copy_only=False)
    if len(fa) != len(fb):
        return int(bad.sum()) + 1
    tok_bad = fa != fb
    if tok_bad.any():
        # map flat mismatches back to rows
        offsets = np.concatenate(([0], np.cumsum(na.astype(np.int64))))
        rows = np.searchsorted(offsets, np.flatnonzero(tok_bad), side="right") - 1
        bad[np.unique(rows)] = True
    return int(bad.sum())


def make_verifier(out_dir: str):
    dirs = JobDirs(out_dir)

    def verify_group(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.Table.from_pydict({k: [] for k in VERIFY_SCHEMA.names}, schema=VERIFY_SCHEMA)
        part_id = group.column("part_id")[0].as_py()
        path = dirs.container_path(part_id)
        if not os.path.exists(path):
            return pa.Table.from_pydict(
                {"part_id": [part_id], "n_rows": [group.num_rows], "ok": [False],
                 "n_mismatch": [group.num_rows]},
                schema=VERIFY_SCHEMA,
            )
        original = group.drop_columns(["part_id"]).sort_by("doc_id")
        try:
            decoded = read_partition(path).sort_by("doc_id")
            n_bad = compare_tokseq(original, decoded)
        except Exception:
            # a corrupt container (CRC mismatch, truncated payload) is a
            # verify failure for this partition, not a job crash
            n_bad = group.num_rows
        return pa.Table.from_pydict(
            {"part_id": [part_id], "n_rows": [group.num_rows], "ok": [n_bad == 0],
             "n_mismatch": [n_bad]},
            schema=VERIFY_SCHEMA,
        )

    return verify_group


def _hash_partial(batch: pa.Table, plan: dict | None, gen: int = 0) -> pa.Table:
    """(part_id, n_rows, hsum) partial for one batch of originals.
    plan=None keys the digests by SOURCE instead of part_id — the
    row-hash sum is additive, so source granularity is invariant to
    any repartitioning (compaction, re-bucketing) of the output.
    ``gen`` tags the labels for incremental-encode generations."""
    if plan is not None:
        batch = make_assigner(plan, gen=gen)(batch)
        pid = batch.column("part_id")
    else:
        pid = batch.column("source")
    h = row_hashes(batch)
    if isinstance(pid, pa.ChunkedArray):
        pid = pid.combine_chunks()
    denc = pid.dictionary_encode()
    if isinstance(denc, pa.ChunkedArray):
        denc = denc.combine_chunks()
    idx = denc.indices.to_numpy(zero_copy_only=False)
    k = len(denc.dictionary)
    sums = np.zeros(k, dtype=np.uint64)
    np.add.at(sums, idx, h)
    counts = np.bincount(idx, minlength=k)
    return pa.Table.from_pydict(
        {
            "part_id": denc.dictionary,
            "n_rows": pa.array(counts.astype(np.int64)),
            "hsum": pa.array(sums.view(np.int64)),
        }
    )


def _container_digest(batch: pa.Table, out_dir: str) -> pa.Table:
    """Decode each listed container and compute its (count, hash-sum)."""
    from ..stages.decoder import iter_partition_chunks

    dirs = JobDirs(out_dir)
    rows = {"part_id": [], "n_rows": [], "hsum": [], "readable": []}
    for part_id in batch.column("part_id").to_pylist():
        try:
            n_rows, hsum = 0, np.uint64(0)
            # row-group-streamed like every decode: one bounded chunk at a time
            for chunk in iter_partition_chunks(dirs.container_path(part_id)):
                h = row_hashes(chunk)
                n_rows += chunk.num_rows
                with np.errstate(over="ignore"):
                    hsum += h.sum(dtype=np.uint64)
            readable = True
        except Exception:
            n_rows, hsum, readable = 0, np.uint64(0), False
        rows["part_id"].append(part_id)
        rows["n_rows"].append(n_rows)
        rows["hsum"].append(int(hsum.view(np.int64)))
        rows["readable"].append(readable)
    return pa.Table.from_pydict(rows)


def _container_digests(out_dir: str, part_ids: list[str]) -> dict[str, tuple[int, int, bool]]:
    """part_id -> (n_rows, hash-sum mod 2^64, readable), one decode task
    per container (no shuffle; parallel tasks)."""
    import ray.data as rd

    if not part_ids:
        return {}
    # one block per partition: from_items defaults to a single block,
    # which would serialize all container decodes into one task
    parts_ds = rd.from_items(
        [{"part_id": p} for p in part_ids], override_num_blocks=len(part_ids)
    )
    digests = parts_ds.map_batches(
        _container_digest, batch_format="pyarrow", batch_size=1,
        fn_kwargs={"out_dir": out_dir}, num_cpus=1.0,
    )
    got = {}
    for b in digests.iter_batches(batch_size=None, batch_format="pyarrow"):
        for p, n, s, r in zip(
            b.column("part_id").to_pylist(),
            b.column("n_rows").to_pylist(),
            b.column("hsum").to_pylist(),
            b.column("readable").to_pylist(),
        ):
            got[p] = (int(n), int(s) % (1 << 64), r)
    return got


def _verdicts(keys: list[str], expected: dict, got: dict):
    """The verify Dataset: one row per key, ok when the container side
    was readable and its (count, hash-sum) equals the expected one.  An
    expected hash of None (nothing recorded to compare against) is
    never ok."""
    import ray.data as rd

    out = {"part_id": [], "n_rows": [], "ok": [], "n_mismatch": []}
    for p in keys:
        n_exp, h_exp = expected.get(p, (0, 0))
        n_got, h_got, readable = got.get(p, (0, 0, False))
        ok = readable and n_got == n_exp and h_got == h_exp
        out["part_id"].append(p)
        out["n_rows"].append(n_exp)
        out["ok"].append(ok)
        out["n_mismatch"].append(0 if ok else max(n_exp, n_got))
    return rd.from_arrow(pa.Table.from_pydict(out, schema=VERIFY_SCHEMA))


def run_verify(ds_factory, out_dir: str, mode: str = "exact", by: str = "partition",
               ds_from_files=None, gens: list[int] | None = None):
    """Returns the per-partition verify Dataset; any ok=False is a failure.

    mode="exact": per-row alignment via a part_id shuffle (tests).
    mode="hash": shuffle-free streaming digest comparison vs the
    original input (scale path).  by="partition" compares at encode
    partition granularity (requires the output to still match
    plan.json); by="source" compares per-SOURCE digests — the row-hash
    sum is additive, so this stays valid after compaction or any other
    repartitioning of the containers.
    mode="manifest": container decode vs the digests recorded in the
    encode manifests — no input re-read (audit/resume checks;
    ``ds_factory`` may be None).

    Incremental (run_encode_files) outputs verify transparently: the
    generational plan records each generation's shards, so exact/hash
    partition-granular checks loop per generation (labels are
    disjoint) and the originals are re-read from the recorded files —
    ``ds_factory`` may be None then; ``ds_from_files(files)`` overrides
    the default ``read_parquet`` when the encode used a custom reader.

    ``gens`` scopes the check to the listed ingest generations — the
    incremental-verify path: after appending generation N to a huge
    corpus, re-verify ONLY generation N (its recorded input shards vs
    its disjoint partition labels) instead of re-reading everything.
    Valid for exact / hash-by-partition (input re-read scoped to the
    generations' lineage) and manifest mode (labels filtered through
    label_generations, so it keeps working after generation-preserving
    compaction).  by="source" digests span generations, so gens= with
    it raises.
    """
    plan_doc = read_plan(out_dir)
    gen_docs = plan_doc.get("generations")
    if gen_docs and mode != "manifest" and ds_factory is None:
        # merged-in legacy stores have no file lineage: their rows
        # cannot be re-read from recorded shards, so input-based modes
        # need an explicit ds_factory or must stay manifest-scoped
        opaque = [
            int(g["gen"]) for g in gen_docs
            if g.get("opaque") and (gens is None or int(g["gen"]) in {int(x) for x in gens})
        ]
        if opaque:
            raise ValueError(
                f"run_verify: generation(s) {opaque} are opaque (merged from "
                "a store with no file lineage); exact/hash verify needs an "
                "explicit ds_factory covering them, or use mode='manifest' "
                "or scope gens= to lineage-bearing generations."
            )
    if gens is not None:
        gens = sorted({int(g) for g in gens})
        if by == "source" and mode != "manifest":
            raise ValueError(
                "run_verify: gens= cannot combine with by='source' — "
                "per-source digests aggregate rows across generations."
            )
        known = (
            {int(g["gen"]) for g in gen_docs} if gen_docs else {0}
        )
        missing = [g for g in gens if g not in known]
        if missing:
            raise ValueError(
                f"run_verify: unknown ingest generation(s) {missing}; "
                f"plan.json records {sorted(known)}."
            )
    if gen_docs:
        import ray.data as _rd

        if ds_from_files is None:
            ds_from_files = lambda files: _rd.read_parquet(list(files))
        gen_specs = [
            (
                int(g["gen"]),
                dict(g["buckets"]),
                (lambda f=[fe["path"] for fe in g["files"]]: ds_from_files(f)),
            )
            for g in gen_docs
            if gens is None or int(g["gen"]) in gens
        ]
        if ds_factory is None:
            all_files = [
                fe["path"]
                for g in gen_docs
                if gens is None or int(g["gen"]) in gens
                for fe in g["files"]
            ]
            ds_factory = lambda: ds_from_files(all_files)
    else:
        if ds_factory is None and mode != "manifest":
            raise ValueError(
                "run_verify: ds_factory is required for exact/hash modes on "
                "a non-incremental output (no input lineage in plan.json); "
                "only mode='manifest' is input-free here."
            )
        gen_specs = [(0, plan_doc["buckets"], ds_factory)]

    if mode == "exact":
        out = None
        for gen, plan, factory in gen_specs:
            ds = factory().map_batches(
                make_assigner(plan, gen=gen), batch_format="pyarrow", zero_copy_batch=True
            )
            verdict = ds.groupby("part_id").map_groups(
                make_verifier(out_dir), batch_format="pyarrow"
            )
            out = verdict if out is None else out.union(verdict)
        return out

    if mode == "manifest":
        # compare container decodes against the digests the encode job
        # recorded in its manifests — no input re-read at all.  Audits
        # codec fidelity + container integrity; mode="hash" additionally
        # audits the staging transport against the original input.
        from ..state.manifest import read_manifest_entries

        entries = read_manifest_entries(out_dir)
        if gens is not None:
            # scope to the requested generations via label attribution;
            # an unattributable label (cross-gen compaction, foreign)
            # belongs to NO generation and is excluded — the unscoped
            # run still audits it
            from ..stages.decoder import label_generations

            gen_of = label_generations(out_dir)
            entries = {
                p: e for p, e in entries.items() if gen_of.get(p) in set(gens)
            }
        expected = {
            p: (int(e["digest"]["n_rows"]), int(e["digest"]["hsum"]) % (1 << 64))
            for p, e in entries.items()
            if "digest" in e
        }
        # completed partitions whose manifest carries NO digest (older
        # stores: the retired object-store shuffle could keep transport
        # chunks without one) cannot be audited in this mode — report
        # them ok=False explicitly instead of silently dropping them, so
        # an empty result can never read as all-ok
        no_digest = sorted(set(entries) - set(expected))
        part_ids = sorted(expected)
        got = _container_digests(out_dir, part_ids)
        expected.update((p, (int(entries[p].get("n_rows", 0)), None)) for p in no_digest)
        return _verdicts(part_ids + no_digest, expected, got)

    # pass A: originals -> per-partition (count, hash-sum).  The partial
    # stream is O(tasks x partitions) tiny rows; merge it VECTORIZED
    # (concat + dictionary-encode + np.add.at) — no per-row driver
    # Python (round-1 verdict, What's wrong #6).  by="partition" runs
    # one pass per generation (disjoint labels; generation 0 is the
    # whole job for non-incremental outputs); by="source" needs no
    # assigner, so one pass over the whole input suffices.
    batches = []
    if by == "partition":
        for gen, plan, factory in gen_specs:
            partials = factory().map_batches(
                _hash_partial, batch_format="pyarrow", zero_copy_batch=True,
                batch_size=None, fn_kwargs={"plan": plan, "gen": gen},
            )
            batches.extend(
                b for b in partials.iter_batches(batch_size=None, batch_format="pyarrow")
                if b.num_rows
            )
    else:
        partials = ds_factory().map_batches(
            _hash_partial, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None, fn_kwargs={"plan": None},
        )
        batches = [
            b for b in partials.iter_batches(batch_size=None, batch_format="pyarrow")
            if b.num_rows
        ]
    expected: dict[str, list] = {}
    if batches:
        t = pa.concat_tables(batches).combine_chunks()
        denc = t.column("part_id").combine_chunks().dictionary_encode()
        if isinstance(denc, pa.ChunkedArray):
            denc = denc.combine_chunks()
        idx = denc.indices.to_numpy(zero_copy_only=False)
        k = len(denc.dictionary)
        counts = np.zeros(k, dtype=np.int64)
        sums = np.zeros(k, dtype=np.uint64)
        np.add.at(counts, idx, t.column("n_rows").to_numpy(zero_copy_only=False))
        with np.errstate(over="ignore"):
            np.add.at(
                sums, idx,
                t.column("hsum").to_numpy(zero_copy_only=False).view(np.uint64),
            )
        for p, n, s in zip(denc.dictionary.to_pylist(), counts, sums):
            expected[p] = [int(n), int(s)]

    # pass B: one decode task per container
    if by == "source":
        from ..state.manifest import read_manifest_entries

        entries = read_manifest_entries(out_dir)
        part_ids = sorted(entries)
    else:
        part_ids = sorted(expected)
    got = _container_digests(out_dir, part_ids)
    if by != "source":
        return _verdicts(part_ids, expected, got)

    # roll the per-container digests up to source granularity — the
    # additive hash-sum makes this exact under any partitioning
    got_src: dict[str, list] = {}
    for p in part_ids:
        n, s, r = got.get(p, (0, 0, False))
        acc = got_src.setdefault(entries[p]["source"], [0, 0, True])
        acc[0] += n
        acc[1] = (acc[1] + s) % (1 << 64)
        acc[2] = acc[2] and r
    return _verdicts(sorted(set(expected) | set(got_src)), expected, got_src)
