"""Tests of the benchmark's own code: generators, output checks, span math.

Run with `python3 -m pytest bench/tests` from the repository root.
"""

import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import flowprof.cli  # noqa: E402
import flowprof.simnet  # noqa: E402
import harness  # noqa: E402
import pytest  # noqa: E402
import refloop  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from flowprof import load_model, oracle_tree  # noqa: E402


def _tree_bytes(directory: Path) -> dict:
    return {p.relative_to(directory): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


# -- generators -----------------------------------------------------------------


def test_manifest_and_model_generators_are_deterministic(tmp_path):
    hs110 = workloads.MODELS_DIR / "hs110_toggle.json"
    for seed in (0, 7):
        workloads.write_manifest(tmp_path / f"a{seed}/manifest.json", seed)
        workloads.write_manifest(tmp_path / f"b{seed}/manifest.json", seed)
        workloads.write_shuffled_model(tmp_path / f"a{seed}/model.json",
                                       seed, hs110)
        workloads.write_shuffled_model(tmp_path / f"b{seed}/model.json",
                                       seed, hs110)
        assert _tree_bytes(tmp_path / f"a{seed}") \
            == _tree_bytes(tmp_path / f"b{seed}")
    assert _tree_bytes(tmp_path / "a0") != _tree_bytes(tmp_path / "a7")
    entries = json.loads((tmp_path / "a0/manifest.json").read_text())
    assert sorted(e["label"] for e in entries) == sorted(
        p.stem for p in workloads.MODELS_DIR.glob("*.json"))
    assert all(set(e["group"]) == set(workloads.GROUP_VALUES) for e in entries)


def test_corpus_generator_is_deterministic_and_chunking_invisible(tmp_path):
    model = workloads.MODELS_DIR / "hs110_toggle.json"
    captures = workloads.CORPUS_CHUNK + 20  # two chunks
    workloads.write_corpus(tmp_path / "a", 3, model, captures)
    workloads.write_corpus(tmp_path / "b", 3, model, captures)
    first = _tree_bytes(tmp_path / "a")
    assert first == _tree_bytes(tmp_path / "b")
    assert len(first) == captures + 1
    # one `simulate` call over the same seeds writes the same captures
    assert flowprof.cli.main(["simulate", "--model", str(model),
                              "--m", str(captures), "--seed", str(3 * captures),
                              "--out-dir", str(tmp_path / "whole")]) == 0
    for i in range(captures):
        assert first[Path(f"capture_{i:05d}.pcap")] \
            == (tmp_path / f"whole/capture_{i:03d}.pcap").read_bytes()
    assert first[Path("success.txt")] \
        == (tmp_path / "whole/success.txt").read_bytes()


# -- output checks --------------------------------------------------------------


def _alter_one_node(tree_json: str) -> str:
    obj = json.loads(tree_json)
    node = obj["root"]["children"][0]["children"][0]
    node["status"] = "failed" if node["status"] != "failed" else "expanded"
    return json.dumps(obj, indent=2) + "\n"


def test_profile_check_catches_one_altered_node(tmp_path):
    workload = workloads.BlindWalk(seed=0)
    workload.setup(tmp_path / "inputs")
    workload.reference()
    out = tmp_path / "out"
    for rel, text in workload.expected.items():
        (out / rel).parent.mkdir(parents=True, exist_ok=True)
        (out / rel).write_text(text)
    assert [c.ok for c in workload.check(out)] == [True]
    (out / "tree.json").write_text(
        _alter_one_node(workload.expected["tree.json"]))
    (check,) = workload.check(out)
    assert not check.ok and "tree.json differs" in check.detail
    (out / "tree.json").unlink()
    (check,) = workload.check(out)
    assert not check.ok and "not written" in check.detail


def test_wide_oracle_check_catches_one_altered_node(tmp_path):
    model = load_model(workloads.MODELS_DIR / "hs110_toggle.json")
    tree = oracle_tree(model, pruning=False, max_depth=workloads.WIDE_DEPTH)
    tree_json = tree.export_json()
    tree_dot = tree.to_dot(False).encode()
    assert workloads.check_wide_tree(tree_json.encode(), tree_dot).ok
    altered = _alter_one_node(tree_json).encode()
    check = workloads.check_wide_tree(altered, tree_dot)
    assert not check.ok and "sha256" in check.detail


# -- rescaling ------------------------------------------------------------------


def test_rescaled_divides_out_the_reference_loop_around_each_time():
    ref = refloop.REFERENCE_S
    # half speed around the first time; half, then full speed around the second
    assert harness.rescaled([4.0, 3.0], [2 * ref, 2 * ref, ref]) \
        == pytest.approx([2.0, 2.0])
    assert harness.rescaled([], [ref]) == []


# -- spans ------------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_child_spans():
    #   0 root [0, 100]
    #   1   a  [10, 40]    overlaps b
    #   2     a1 [15, 20]
    #   3   b  [30, 60]
    #   4   c  [90, 120]  runs past the root's end
    starts = [0, 10, 15, 30, 90]
    ends = [100, 40, 20, 60, 120]
    parents = [-1, 0, 1, 0, 0]
    # root: children cover [10, 60] and [90, 100] = 60
    assert spans.self_times(starts, ends, parents) == [40, 25, 5, 30, 30]


def _tracer_with(spans_list):
    """Tracer filled from (name, start, end, parent) tuples in open order."""
    tracer = spans.Tracer()
    for name, start, end, parent in spans_list:
        tracer.name_id.append(tracer.intern(name))
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
    return tracer


def test_summarize_splits_experiments_and_self_time():
    tracer = _tracer_with([
        ("cli.main", 0, 1000, -1),
        ("profiler.profile_event", 100, 900, 0),
        ("sigtree.next_node", 100, 110, 1),
        ("blocklist.compile_rules", 110, 130, 1),
        ("simnet.driver_run", 130, 400, 1),
        ("sigtree.add_children", 400, 420, 1),
        ("sigtree.next_node", 420, 430, 1),
        ("blocklist.compile_rules", 430, 450, 1),
        ("simnet.driver_run", 450, 700, 1),
        ("sigtree.mark_failed", 700, 705, 1),
    ])
    summary = spans.summarize(tracer, 0, len(tracer))
    assert summary["experiments_ns"] == [420 - 110, 705 - 430]
    assert summary["calls"]["simnet.driver_run"] == 2
    assert summary["self_ns"]["cli.main"] == 1000 - 800
    assert summary["self_ns"]["profiler.profile_event"] == 800 - 605
    layer = spans.layer_metrics(summary, Counter())
    assert layer["profiler.experiments"] == 2
    assert layer["sigtree.expanded_per_experiment"] == 0.5


def test_tail_keeps_ten_samples_beyond_it():
    assert spans.tail(list(range(1, 21))) == (10, 50.0)
    assert spans.tail(list(range(100, 0, -1))) == (90, 90.0)
    assert spans.tail([3, 1, 2]) == (3, 100.0)


def test_probes_record_spans_and_restore_bindings():
    original = flowprof.simnet.compile_rules
    tracer = spans.Tracer()
    model = load_model(workloads.MODELS_DIR / "appendix_c.json")
    with spans.installed(tracer):
        assert flowprof.simnet.compile_rules is not original
        flowprof.cli.oracle_tree(model, pruning=True)
    assert flowprof.simnet.compile_rules is original
    assert not spans.missing_sites()
    summary = spans.summarize(tracer, 0, len(tracer))
    assert summary["calls"]["simnet.oracle_tree"] == 1
    assert summary["calls"]["blocklist.compile_rules"] >= 1
    assert tracer.counts["core.canonical_json.calls"] > 0


def test_benchmark_json_names_every_metric_the_runs_emit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = spans.summarize(spans.Tracer(), 0, 0)
    emitted = set(spans.layer_metrics(summary, Counter())) | {
        "profiler.experiment_ms.p50", "profiler.experiment_ms.tail",
        "profiler.experiment_ms.tail_pct", "profiler.experiment_ms.samples",
        "bench.trace_overhead_pct"}
    assert {m["name"] for m in spec["per_layer"]} == emitted
    assert {m["name"] for m in spec["end_to_end"]} \
        == {"wall_s", "peak_rss_mb", "setup_s"}
    gated = [w["name"] for w in spec["workloads"]]
    assert gated == [w for w in workloads.WORKLOADS if w in gated]
