"""Measurement loop of the benchmark: set-up, timed passes, traced passes,
checks and the printed result.  Imported by run.py after flowprof."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

from flowprof import cli

import refloop
import spans
from workloads import WORKLOADS, Check

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPS = 3   # set-ups per run; setup_s is the import time plus their median
MIN_PASSES = 3   # untraced passes with --trace 0, however short --seconds is
MIN_PAIRS = 2    # untraced/traced pass pairs with --trace 1


def rescaled(times, refs) -> list:
    """Each of `times` in seconds of the reference machine.  times[i] was
    measured between the reference-loop timings refs[i] and refs[i + 1], and
    is scaled by their mean against refloop.REFERENCE_S, so that the host's
    speed at the time cancels."""
    return [t * 2 * refloop.REFERENCE_S / (a + b)
            for t, a, b in zip(times, refs, refs[1:])]


def run_metadata(seed: int) -> dict:
    sources = sorted(p for p in SRC.rglob("*")
                     if p.is_file() and "__pycache__" not in p.parts)
    digest = hashlib.sha256()
    for path in sources:
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sources if p.suffix == ".py"),
        "src_sha256": digest.hexdigest(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def git_commit():
    """HEAD of the checkout read from .git, or None outside a git clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# -- passes ---------------------------------------------------------------------


def run_pass(workload, out: Path, tracer=None):
    """One timed run of the workload's command: (seconds, checks)."""
    shutil.rmtree(out, ignore_errors=True)
    gc.collect()
    argv = workload.argv(out)
    start = perf_counter()
    try:
        if tracer is None:
            rc = cli.main(argv)
        else:
            with spans.installed(tracer), tracer.span("cli.main"):
                rc = cli.main(argv)
    except Exception:  # a crash fails the pass's operations, not the run
        traceback.print_exc()
        rc = "an exception"
    elapsed = perf_counter() - start
    if rc != 0:
        failed = Check(argv[0], False, f"flowprof {argv[0]} exited with {rc}")
        return elapsed, [failed] * workload.operations()
    return elapsed, workload.check(out)


def measure_untraced(workload, out: Path, seconds: float, lines: list):
    deadline = perf_counter() + seconds
    # a warm-up pass, checked but not timed
    _, checks = run_pass(workload, out)
    walls, refs = [], [refloop.time_reference()]
    # stop before a pass as long as the last one would overrun the deadline
    while len(walls) < MIN_PASSES \
            or perf_counter() + walls[-1] + refs[-1] <= deadline:
        wall, passed = run_pass(workload, out)
        refs.append(refloop.time_reference())
        walls.append(wall)
        checks += passed
    lines.append(f"passes = {len(walls)} count, after 1 warm-up pass")
    lines.append(f"raw wall_s = {statistics.median(walls):.6g} s "
                 f"(median of this host's wall times, not rescaled)")
    lines.append(f"reference loop = {statistics.median(refs):.6g} s "
                 f"(median; {refloop.REFERENCE_S:g} s on the reference machine)")
    # ru_maxrss is in KiB on Linux
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"wall_s": statistics.median(rescaled(walls, refs)),
            "peak_rss_mb": peak_rss_mb}, checks


def measure_traced(workload, out: Path, seconds: float, lines: list):
    """Alternate untraced and traced passes; the spans of every traced pass
    stay in the tracer until the run ends and are summarized afterwards."""
    tracer = spans.Tracer()
    untraced, traced, bounds, checks = [], [], [], []
    refs = [refloop.time_reference()]  # around every pass, traced or not
    deadline = perf_counter() + seconds
    while len(traced) < MIN_PAIRS \
            or perf_counter() + untraced[-1] + traced[-1] <= deadline:
        wall, passed = run_pass(workload, out)
        refs.append(refloop.time_reference())
        untraced.append(wall)
        checks += passed
        lo = len(tracer)
        wall, passed = run_pass(workload, out, tracer)
        refs.append(refloop.time_reference())
        traced.append(wall)
        checks += passed
        bounds.append((lo, len(tracer), Counter(tracer.counts)))
        tracer.counts.clear()
    per_pass, experiments = [], []
    for lo, hi, counts in bounds:
        summary = spans.summarize(tracer, lo, hi)
        per_pass.append(spans.layer_metrics(summary, counts))
        experiments += summary["experiments_ns"]
    values = {name: statistics.median(p[name] for p in per_pass)
              for name in per_pass[0]}
    samples = [ns / 1e6 for ns in experiments]
    values["profiler.experiment_ms.p50"] = \
        statistics.median(samples) if samples else 0.0
    tail_ms, tail_pct = spans.tail(samples)
    values["profiler.experiment_ms.tail"] = tail_ms
    values["profiler.experiment_ms.tail_pct"] = tail_pct
    values["profiler.experiment_ms.samples"] = len(samples)
    # each traced pass against the untraced pass just before it, both
    # rescaled, so that the host's speed drift cancels
    scaled = rescaled([w for pair in zip(untraced, traced) for w in pair], refs)
    values["bench.trace_overhead_pct"] = 100.0 * statistics.median(
        t / u - 1.0 for u, t in zip(scaled[::2], scaled[1::2]))
    lines.append(f"passes = {len(untraced)} untraced, {len(traced)} traced")
    lines.append(f"spans = {len(tracer)} count")
    # throughput of the rescaled untraced passes, from the exact counts
    wall = statistics.median(scaled[::2])
    frames, nodes = values["pcapio.frames_read"], values["sigtree.nodes"]
    if frames:
        lines.append(f"packets_per_s = {frames / wall:.6g} 1/s "
                     f"({frames:g} packets per pass)")
    if nodes:
        lines.append(f"nodes_per_s = {nodes / wall:.6g} 1/s "
                     f"({nodes:g} nodes per pass)")
    return values, checks


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 import_s: float, spec: dict):
    """Set up, measure and check one workload: (result, printed lines).
    `import_s` is flowprof's import time, already rescaled."""
    workload = WORKLOADS[name](seed)
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    extra = []
    try:
        setup_times, refs = [], [refloop.time_reference()]
        for _ in range(SETUP_REPS):
            shutil.rmtree(work, ignore_errors=True)
            gc.collect()
            start = perf_counter()
            workload.setup(work / "inputs")
            setup_times.append(perf_counter() - start)
            refs.append(refloop.time_reference())
        workload.reference()
        measure = measure_traced if trace else measure_untraced
        values, checks = measure(workload, work / "out", seconds, extra)
        values["setup_s"] = import_s + statistics.median(
            rescaled(setup_times, refs))
        extra.append(f"raw setup = {statistics.median(setup_times):.6g} s "
                     f"(median, not rescaled, without the import)")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()  # only when no other run is using it
        except OSError:
            pass

    failed = [c for c in checks if not c.ok]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if trace else "end_to_end"]}
    why = [w["why"] for w in spec["workloads"] if w["name"] == name] \
        or ["not gated by BENCHMARK.json"]
    lines = [f"workload {name}: {why[0]}"]
    lines += [f"{n} = {m['value']:.6g} {m['unit']}" for n, m in metrics.items()]
    lines += extra
    lines.append(f"error_rate = {len(failed) / len(checks):.6g} ratio "
                 f"({len(failed)} of {len(checks)} operations failed)")
    lines += [f"FAIL {c.name}: {c.detail}" for c in failed[:20]]
    return {"correct": not failed, "attempted": len(checks),
            "failed": len(failed), "metrics": metrics}, lines


def main(names, seed: int, seconds: float, trace: int, import_s: float) -> int:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    missing = spans.missing_sites()
    if missing:
        print("note: bindings gone, not traced: " + ", ".join(missing),
              file=sys.stderr)
    print("meta " + json.dumps(run_metadata(seed), sort_keys=True))
    results = {}
    for name in names:
        results[name], lines = run_workload(name, seed, seconds, trace,
                                            import_s, spec)
        print("\n".join(lines), flush=True)
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{m}": metric for name, r in results.items()
                        for m, metric in r["metrics"].items()},
        }
        if not trace:
            total = sum(r["metrics"]["wall_s"]["value"]
                        for r in results.values())
            result["metrics"]["wall_s"] = {"value": total, "unit": "s"}
            print(f"wall_s = {total:.6g} s (one pass of every workload)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1
