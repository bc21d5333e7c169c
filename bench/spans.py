"""Span recording for the traced benchmark run.

Wrappers are installed around flowprof's layer functions at the names the
calling modules bind (``simnet.read_pcap``, ``profiler.compile_rules``, the
``SigTree`` methods, ...), so the program's own code is not edited.  Each
wrapped call records a span (name, start, end, parent) in flat arrays that
stay in memory until the run ends; counters are bumped at the same
boundaries.  Counting-only probes cover ``FlowId.canonical_json`` and the
``ipaddress.ip_address`` calls made from flowprof modules.
"""

from __future__ import annotations

import ipaddress
import types
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

import flowprof.cli
import flowprof.core
import flowprof.pcapio
import flowprof.profiler
import flowprof.signature
import flowprof.simnet
from flowprof.core import FlowId
from flowprof.sigtree import SigTree
from flowprof.simnet import SimDriver

# transports the dissector fully decodes; anything else is a degraded frame
DECODED_TRANSPORTS = frozenset({"tcp", "udp", "arp", "icmp", "icmpv6"})


class Tracer:
    """Spans and counters, one flat record per wrapped call."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack: list = []
        self.counts: Counter = Counter()

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int, now: int) -> int:
        index = len(self.start)
        self.name_id.append(name_id)
        self.start.append(now)
        self.end.append(now)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self._stack.append(index)
        return index

    def close(self, index: int, now: int) -> None:
        self.end[index] = now
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(self.intern(name), perf_counter_ns())
        try:
            yield
        finally:
            self.close(index, perf_counter_ns())

    def __len__(self):
        return len(self.start)


def self_times(starts, ends, parents) -> list:
    """Duration of each span minus the part of it its children cover.

    Parents are indices into the same sequences (-1 for a top-level span).
    Children may overlap each other; the covered time is their union,
    clipped to the parent's interval.
    """
    children = defaultdict(list)
    for index, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(index)
    out = []
    for index, (start, end) in enumerate(zip(starts, ends)):
        covered = 0
        cursor = start
        for child in sorted(children.get(index, ()), key=starts.__getitem__):
            lo = max(starts[child], cursor)
            hi = min(ends[child], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


# -- probes ---------------------------------------------------------------------


def _timed(tracer: Tracer, name: str, fn, after=None):
    name_id = tracer.intern(name)

    def wrapper(*args, **kwargs):
        index = tracer.open(name_id, perf_counter_ns())
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index, perf_counter_ns())
        if after is not None:
            after(tracer.counts, args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _counted(tracer: Tracer, key: str, fn):
    counts = tracer.counts

    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def _after_run_capture(counts, args, result):
    counts["simnet.captures"] += 1
    counts["simnet.packets_emitted"] += len(result.trace.packets)


def _after_write_pcap(counts, args, result):
    counts["pcapio.frames_written"] += len(args[0].packets)


def _after_read_pcap(counts, args, result):
    counts["pcapio.frames_read"] += len(result.packets)
    counts["pcapio.degraded_frames"] += sum(
        p.transport not in DECODED_TRANSPORTS for p in result.packets)


def _after_filter(counts, args, result):
    counts["pcapio.control_plane_dropped"] += (
        len(args[0].packets) - len(result.packets))


def _after_aggregate(counts, args, result):
    # both call sites pass a list of traces
    counts["signature.packets_aggregated"] += sum(
        len(trace.packets) for trace in args[0])


def _after_extract(counts, args, result):
    counts["signature.flows_observed"] += len(set().union(*args[0]))
    counts["signature.flows_kept"] += len(result.flows)


def _after_matches_packet(counts, args, result):
    counts["blocklist.packets_dropped"] += bool(result)


def _after_export(counts, args, result):
    counts["sigtree.nodes"] += len(args[0].nodes) - 1


cli, profiler, simnet = flowprof.cli, flowprof.profiler, flowprof.simnet

# (owner, attribute, span name, counter hook): every binding a caller uses
TIMED_SITES = (
    (cli, "load_model", "simnet.load_model", None),
    (cli, "profile_event", "profiler.profile_event", None),
    (cli, "oracle_tree", "simnet.oracle_tree", None),
    (cli, "build_report", "profiler.build_report", None),
    (cli, "render_csv", "profiler.render_csv", None),
    (cli, "read_pcap", "pcapio.read_pcap", _after_read_pcap),
    (cli, "write_pcap", "pcapio.write_pcap", _after_write_pcap),
    (cli, "filter_control_plane", "pcapio.filter_control_plane",
     _after_filter),
    (cli, "aggregate_flows", "signature.aggregate_flows", _after_aggregate),
    (cli, "extract_signature", "signature.extract_signature", _after_extract),
    (cli, "compile_rules", "blocklist.compile_rules", None),
    (profiler, "compile_rules", "blocklist.compile_rules", None),
    (profiler, "matches_packet", "blocklist.matches_packet",
     _after_matches_packet),
    (profiler, "filter_control_plane", "pcapio.filter_control_plane",
     _after_filter),
    (profiler, "aggregate_flows", "signature.aggregate_flows",
     _after_aggregate),
    (profiler, "extract_signature", "signature.extract_signature",
     _after_extract),
    (simnet, "run_capture", "simnet.run_capture", _after_run_capture),
    (simnet, "read_pcap", "pcapio.read_pcap", _after_read_pcap),
    (simnet, "write_pcap", "pcapio.write_pcap", _after_write_pcap),
    (simnet, "frame_len", "pcapio.frame_len", None),
    (simnet, "compile_rules", "blocklist.compile_rules", None),
    (simnet, "matches_flow", "blocklist.matches_flow", None),
    (simnet, "matches_packet", "blocklist.matches_packet",
     _after_matches_packet),
    (SimDriver, "run", "simnet.driver_run", None),
    (SigTree, "next_node", "sigtree.next_node", None),
    (SigTree, "add_children", "sigtree.add_children", None),
    (SigTree, "mark_failed", "sigtree.mark_failed", None),
    (SigTree, "blocking_set", "sigtree.blocking_set", None),
    (SigTree, "export_json", "sigtree.export_json", _after_export),
    (SigTree, "to_dot", "sigtree.to_dot", None),
)

# (owner, attribute, counter): calls counted without a span
COUNTED_SITES = ((FlowId, "canonical_json", "core.canonical_json.calls"),)

# modules whose `ipaddress` global is swapped for a counting stand-in
IPADDRESS_USERS = (flowprof.core, flowprof.pcapio, flowprof.signature,
                   flowprof.simnet)


def missing_sites() -> list:
    """Bindings listed above that the program no longer has."""
    sites = [site[:2] for site in TIMED_SITES + COUNTED_SITES]
    sites += [(module, "ipaddress") for module in IPADDRESS_USERS]
    return [f"{owner.__name__}.{attr}" for owner, attr in sites
            if attr not in vars(owner)]


@contextmanager
def installed(tracer: Tracer):
    """Install every probe for the duration of the block, then restore."""
    saved = []

    def swap(owner, attr, value):
        saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    try:
        for owner, attr, name, after in TIMED_SITES:
            if attr in vars(owner):
                swap(owner, attr, _timed(tracer, name, vars(owner)[attr], after))
        for owner, attr, key in COUNTED_SITES:
            if attr in vars(owner):
                swap(owner, attr, _counted(tracer, key, vars(owner)[attr]))
        counting = types.SimpleNamespace(**vars(ipaddress))
        counting.ip_address = _counted(tracer, "core.ip_address.calls",
                                       ipaddress.ip_address)
        for module in IPADDRESS_USERS:
            if "ipaddress" in vars(module):
                swap(module, "ipaddress", counting)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- per-layer metrics ----------------------------------------------------------


def summarize(tracer: Tracer, lo: int, hi: int) -> dict:
    """Calls, total and self nanoseconds per span name over spans [lo, hi),
    plus the experiment durations found under profile_event spans."""
    starts = tracer.start[lo:hi]
    ends = tracer.end[lo:hi]
    parents = [p - lo if p >= lo else -1 for p in tracer.parent[lo:hi]]
    selfs = self_times(starts, ends, parents)
    calls: Counter = Counter()
    total: Counter = Counter()
    self_ns: Counter = Counter()
    for offset, name_id in enumerate(tracer.name_id[lo:hi]):
        name = tracer.names[name_id]
        calls[name] += 1
        total[name] += ends[offset] - starts[offset]
        self_ns[name] += selfs[offset]
    return {"calls": calls, "total_ns": total, "self_ns": self_ns,
            "experiments_ns": _experiments(tracer, lo, hi, parents)}


def _experiments(tracer: Tracer, lo: int, hi: int, parents: list) -> list:
    """One duration per experiment: from the compile_rules call that opens
    it to the add_children or mark_failed call that settles its node, both
    direct children of profile_event."""
    names = [tracer.names[i] for i in tracer.name_id[lo:hi]]
    out = []
    opened = {}
    for offset, name in enumerate(names):
        parent = parents[offset]
        if parent < 0 or names[parent] != "profiler.profile_event":
            continue
        if name == "blocklist.compile_rules":
            opened[parent] = tracer.start[lo + offset]
        elif name in ("sigtree.add_children", "sigtree.mark_failed") \
                and parent in opened:
            out.append(tracer.end[lo + offset] - opened.pop(parent))
    return out


def tail(samples: list) -> tuple:
    """(value, percentile): the highest percentile with at least ten samples
    beyond it, by nearest rank; the maximum when there are ten or fewer."""
    n = len(samples)
    if n == 0:
        return 0.0, 0.0
    ordered = sorted(samples)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict, counts: Counter) -> dict:
    """Per-layer metric values for one traced pass (times in ms or us)."""
    calls, total, self_ns = (summary["calls"], summary["total_ns"],
                             summary["self_ns"])

    def ms(name):
        return total[name] / 1e6

    c = counts
    return {
        "simnet.run_capture.self_ms": self_ns["simnet.run_capture"] / 1e6,
        "simnet.us_per_capture": _ratio(total["simnet.run_capture"] / 1e3,
                                        calls["simnet.run_capture"]),
        "simnet.captures": c["simnet.captures"],
        "simnet.packets_emitted": c["simnet.packets_emitted"],
        "simnet.driver_run.ms": ms("simnet.driver_run"),
        "simnet.oracle_tree.ms": ms("simnet.oracle_tree"),
        "pcapio.write_pcap.ms": ms("pcapio.write_pcap"),
        "pcapio.read_pcap.ms": ms("pcapio.read_pcap"),
        "pcapio.us_per_frame_write": _ratio(total["pcapio.write_pcap"] / 1e3,
                                            c["pcapio.frames_written"]),
        "pcapio.us_per_frame_read": _ratio(total["pcapio.read_pcap"] / 1e3,
                                           c["pcapio.frames_read"]),
        "pcapio.frames_written": c["pcapio.frames_written"],
        "pcapio.frames_read": c["pcapio.frames_read"],
        "pcapio.frame_len.calls": calls["pcapio.frame_len"],
        "pcapio.frame_len.ms": ms("pcapio.frame_len"),
        "pcapio.filter_control_plane.ms": ms("pcapio.filter_control_plane"),
        "pcapio.control_plane_dropped": c["pcapio.control_plane_dropped"],
        "pcapio.degraded_frames": c["pcapio.degraded_frames"],
        "signature.aggregate_flows.ms": ms("signature.aggregate_flows"),
        "signature.us_per_packet_aggregated": _ratio(
            total["signature.aggregate_flows"] / 1e3,
            c["signature.packets_aggregated"]),
        "signature.packets_aggregated": c["signature.packets_aggregated"],
        "signature.extract_signature.ms": ms("signature.extract_signature"),
        "signature.intersection_yield": _ratio(c["signature.flows_kept"],
                                               c["signature.flows_observed"]),
        "signature.flows_observed": c["signature.flows_observed"],
        "blocklist.compile_rules.ms": ms("blocklist.compile_rules"),
        "blocklist.matches_packet.calls": calls["blocklist.matches_packet"],
        "blocklist.matches_packet.ms": ms("blocklist.matches_packet"),
        "blocklist.packet_drop_ratio": _ratio(
            c["blocklist.packets_dropped"], calls["blocklist.matches_packet"]),
        "blocklist.matches_flow.calls": calls["blocklist.matches_flow"],
        "blocklist.matches_flow.ms": ms("blocklist.matches_flow"),
        "sigtree.next_node.ms": ms("sigtree.next_node"),
        "sigtree.add_children.ms": ms("sigtree.add_children"),
        "sigtree.blocking_set.ms": ms("sigtree.blocking_set"),
        "sigtree.export.ms": ms("sigtree.export_json") + ms("sigtree.to_dot"),
        "sigtree.nodes": c["sigtree.nodes"],
        "sigtree.nodes_evaluated": (calls["sigtree.add_children"]
                                    + calls["sigtree.mark_failed"]),
        "sigtree.expanded_per_experiment": _ratio(
            calls["sigtree.add_children"],
            calls["sigtree.add_children"] + calls["sigtree.mark_failed"]),
        "core.addr_parses_per_packet": _ratio(c["core.ip_address.calls"],
                                              c["pcapio.frames_read"]),
        "core.ip_address.calls": c["core.ip_address.calls"],
        "core.canonical_json.calls": c["core.canonical_json.calls"],
        "profiler.self_ms": self_ns["profiler.profile_event"] / 1e6,
        "profiler.experiments": calls["simnet.driver_run"],
        "profiler.report.ms": (ms("profiler.build_report")
                               + ms("profiler.render_csv")),
        "cli.main.ms": ms("cli.main"),
        "cli.self_ms": self_ns["cli.main"] / 1e6,
    }
