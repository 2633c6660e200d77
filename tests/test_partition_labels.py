"""The one partition-label scheme (stages/partition.py): every label the
engine writes — encoder buckets, compaction outputs, merge re-tags —
parses and attributes back to its own (generation, source), and every
label reader (label_generations, candidate_partitions, fsck) applies
the same attribution rule.  Driver-side metadata only: no Ray session.

The plan's two sources collide when sanitized ("Web Text" and
"web_text" both sanitize to ``web_text``), so the second gets the
dedup name ``web_text_1`` and a label's stem, not its sanitized
source, decides which source it belongs to."""

import pyarrow as pa
import pytest

from fileconvert_ray.pipelines.compact_job import plan_compaction
from fileconvert_ray.pipelines.merge_job import _label_map
from fileconvert_ray.stages.decoder import candidate_partitions, label_generations
from fileconvert_ray.stages.partition import (
    label_gen,
    make_assigner,
    parse_label,
    part_label,
    plan_stems,
)
from fileconvert_ray.state.fsck import fsck
from fileconvert_ray.state.manifest import JobDirs, write_manifest_entry, write_plan
from fileconvert_ray.util.hashing import hash_strings_u64

GENS = [(0, {"Web Text": 3, "web_text": 2}), (1, {"Web Text": 2, "web_text": 2})]
STEMS = plan_stems(GENS)


def _assigned_labels() -> dict[str, tuple[int, str]]:
    """label -> (gen, source) for every label make_assigner emits."""
    out = {}
    for gen, plan in GENS:
        for src in plan:
            ids = [f"{src}/doc{i}" for i in range(200)]
            batch = pa.table({"doc_id": ids, "source": [src] * len(ids)})
            for pid in make_assigner(plan, gen=gen)(batch).column("part_id").to_pylist():
                out[pid] = (gen, src)
    return out


def _store(path, labels: dict[str, str]) -> str:
    """A metadata-only store: plan.json for GENS, one manifest entry
    and one empty container per ``label -> source``."""
    out = str(path)
    dirs = JobDirs(out).create()
    write_plan(out, {
        "buckets": dict(GENS[0][1]),
        "generations": [
            {"gen": g, "buckets": b, "source_tokens": {}, "files": [], "sealed": True}
            for g, b in GENS
        ],
    })
    for pid, src in labels.items():
        open(dirs.container_path(pid), "wb").close()
        write_manifest_entry(dirs, pid, {
            "source": src, "n_rows": 1, "n_tokens": 10, "container_bytes": 0,
            "digest": {"n_rows": 1, "hsum": 0},
        })
    return out


def _unplanned(out: str) -> set[str]:
    return {e["part_id"] for e in fsck(out)["errors"] if e["kind"] == "unplanned_partition"}


def test_parse_label_round_trips_only_canonical_labels():
    assert parse_label("web_text_1-g01-c0007") == ("web_text_1-g01", "c", 7)
    assert parse_label("web_text-b12345") == ("web_text", "b", 12345)
    assert part_label("web_text-g01", "x", 3) == "web_text-g01-x0003"
    for bad in ("web_text-b1", "web_text-b00001", "web_text-q0001", "-b0000",
                "web_text", "web_text-b", "web_text-b²²²²"):
        assert parse_label(bad) is None, bad


def test_every_written_label_attributes_to_its_own_generation_and_source(tmp_path):
    labels = _assigned_labels()
    want = {
        part_label(stem, "b", i): (gen, src)
        for stem, (gen, src, k) in STEMS.items()
        for i in range(k)
    }
    assert labels == want  # every planned bucket, and nothing else
    for pid, (gen, src) in labels.items():
        assert label_gen(pid, src, STEMS) == gen, pid

    out = _store(tmp_path / "s", {pid: src for pid, (_, src) in labels.items()})
    assert label_generations(out) == {pid: gen for pid, (gen, _) in labels.items()}
    assert _unplanned(out) == set()

    # generation-preserving compaction: one -c label per (source, gen)
    # group, attributed to that group's own generation and source
    groups = plan_compaction(out, 10**6)
    assert len(groups) == 4
    for g in groups:
        gens = {labels[p][0] for p in g["olds"]}
        assert len(gens) == 1 and parse_label(g["gid"])[1] == "c"
        assert label_gen(g["gid"], g["source"], STEMS) == gens.pop()

    # cross-generation compaction: -x labels, never attributed
    for g in plan_compaction(out, 10**6, preserve_generations=False):
        assert parse_label(g["gid"])[1] == "x"
        assert label_gen(g["gid"], g["source"], STEMS) is None

    # merge re-tag into generations 2 and 3: same kind and ordinal,
    # attributed under the destination's generation numbers
    dest = plan_stems([(2 + gen, b) for gen, b in GENS])
    src_gens = [{"gen": gen, "buckets": b} for gen, b in GENS]
    for old, new in _label_map(out, src_gens, 2).items():
        gen, src = labels[old]
        assert parse_label(new)[1:] == parse_label(old)[1:]
        assert label_gen(new, src, dest) == 2 + gen, (old, new)


@pytest.mark.parametrize(
    "pid, source, attributed, fsck_error",
    [
        ("web_text-b0000", "Web Text", 0, False),
        ("web_text_1-g01-c0000", "web_text", 1, False),
        ("web_text_1-b0002", "web_text", None, True),  # ordinal >= k (2)
        ("web_text-x0000", "Web Text", None, False),  # cross-gen compaction output
        ("other-b0000", "Web Text", None, True),  # foreign stem
        ("web_text-b1", "Web Text", None, True),  # non-canonical ordinal
        ("web_text-b0001", "web_text", None, True),  # stem of the other source
    ],
)
def test_label_readers_agree(tmp_path, pid, source, attributed, fsck_error):
    out = _store(tmp_path / "s", {pid: source})
    assert label_gen(pid, source, STEMS) == attributed
    assert label_generations(out).get(pid) == attributed
    assert (pid in _unplanned(out)) == fsck_error

    # an id whose bucket is not 0 under any plan entry of the source
    # routes to an attributed -b0000 label never, and to every
    # unattributed (or -c) label of the source always
    doc = next(
        d for d in (f"doc{i}" for i in range(1000))
        if all(int(hash_strings_u64(pa.array([d]))[0]) % k != 0 for k in (2, 3))
    )
    routed = pid in candidate_partitions(out, [doc])
    assert routed == (attributed is None or parse_label(pid)[1] == "c")
    assert candidate_partitions(out, [doc], sources=["nobody"]) == set()
