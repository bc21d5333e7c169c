"""Profiling loop and evaluation metrics.

profile_event drives any experiment driver through the capture / signature /
block cycle until the frontier is exhausted, producing a finished SigTree.
The rest of the module turns finished trees into reports: robustness score,
DNS domain and resolver breakdowns, and a CSV summary.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from .core import DnsSelector, HostKind
from .blocklist import compile_rules, matches_packet
from .pcapio import filter_control_plane
from .signature import DnsTable, aggregate_flows, extract_signature
from .sigtree import SigTree, TreeStats, explore


class BlockingViolation(AssertionError):
    """A capture contained a packet the active rules should have dropped."""


@dataclass(frozen=True)
class ProfileConfig:
    m: int = 20
    seed: int = 0
    pruning: bool = True
    max_depth: Optional[int] = None
    audit_blocking: bool = False

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be at least 1 when set")


def profile_event(driver, config: ProfileConfig) -> SigTree:
    """Explore the event's signature tree breadth-first.

    Each distinct blocking set is profiled under the deny rules compiled
    from it, with seeds config.seed + k*m for the k-th experiment, drawing
    captures until more than m/2 have failed.  The node's signature is the
    intersection over the successful captures, with m_plus = 0 when none
    succeeds; explore expands or fails the node by it.  The driver's DNS
    table persists across experiments, stopped ones included.
    """
    table = driver.dns_table()
    experiments = 0

    def observe(blocking_set):
        nonlocal experiments
        rules = compile_rules(blocking_set)
        captures = driver.run(rules, config.m,
                              config.seed + experiments * config.m)
        experiments += 1
        successes = []
        for drawn, capture in enumerate(captures, start=1):
            if config.audit_blocking:
                _audit_blocking(capture, rules, table)
            if capture.success:
                successes.append(filter_control_plane(capture.trace))
            elif 2 * (drawn - len(successes)) > config.m:
                break  # more than m/2 failed: the node fails
        return extract_signature(aggregate_flows(successes, table), m=config.m)

    return explore(SigTree(pruning=config.pruning), observe, config.max_depth)


def _audit_blocking(capture, rules, table: DnsTable):
    for pkt in capture.trace.packets:
        if matches_packet(rules, pkt, table):
            raise BlockingViolation(
                f"capture seed {capture.seed}: packet at {pkt.ts_us}us "
                f"({pkt.src_addr} -> {pkt.dst_addr}) matches active rules")


# -- evaluation -------------------------------------------------------------------


@dataclass(frozen=True)
class DnsStats:
    domains_first_level: frozenset
    domains_hidden: frozenset
    resolvers_first_level: frozenset
    resolvers_hidden: frozenset


def dns_stats(tree: SigTree) -> DnsStats:
    """Domain names and DNS resolvers discovered, split by tree depth.

    A name or resolver counts as hidden when it appears only deeper than the
    first level.  Domains come from Domain-kind endpoints and DNS question
    names; resolvers are the responder endpoints of DNS-selector flows.
    """
    def found(flows) -> tuple:  # (domains, resolvers)
        dns = [flow for flow in flows if isinstance(flow.app, DnsSelector)]
        return (frozenset({host.value for flow in flows
                           for host in (flow.initiator, flow.responder)
                           if host.kind is HostKind.DOMAIN}
                          | {flow.app.qname for flow in dns}),
                frozenset(flow.responder.display() for flow in dns))

    domains, resolvers = found([node.flow for node in tree.nodes[1:]])
    first_domains, first_resolvers = found(
        [node.flow for node in tree.nodes[1:] if node.depth == 1])
    return DnsStats(first_domains, domains - first_domains,
                    first_resolvers, resolvers - first_resolvers)


@dataclass(frozen=True)
class EventReport:
    label: str
    stats: TreeStats
    dns: DnsStats
    group: Tuple[Tuple[str, str], ...] = ()

    @property
    def robustness_score(self) -> int:
        return self.stats.hidden_flows


def build_report(tree: SigTree, label: str, group=None) -> EventReport:
    return EventReport(
        label=label,
        stats=tree.stats(),
        dns=dns_stats(tree),
        group=tuple(sorted((group or {}).items())),
    )


CSV_COLUMNS = (
    "event", "first_level", "hidden", "robustness_score",
    "pruned_d2", "pruned_d3plus", "failed",
    "domains_fl", "domains_hidden", "resolvers_fl", "resolvers_hidden",
)

_GROUP_AXES = ("category", "app", "manufacturer")


def render_csv(reports: Iterable[EventReport]) -> str:
    """One row per event plus '#'-prefixed summary footer lines."""
    reports = sorted(reports, key=lambda r: r.label)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for report in reports:
        pruned = dict(report.stats.pruned_per_depth)
        writer.writerow([
            report.label,
            report.stats.first_level,
            report.stats.hidden_flows,
            report.robustness_score,
            pruned.get(2, 0),
            sum(count for depth, count in pruned.items() if depth >= 3),
            report.stats.failed_count,
            len(report.dns.domains_first_level),
            len(report.dns.domains_hidden),
            len(report.dns.resolvers_first_level),
            len(report.dns.resolvers_hidden),
        ])
    scored = [r for r in reports if r.robustness_score >= 1]
    mean = (sum(r.robustness_score for r in scored) / len(scored)
            if scored else 0.0)
    buf.write(f"# events={len(reports)}\n")
    buf.write(f"# scored={len(scored)}\n")
    buf.write(f"# mean_robustness_scored={mean:.2f}\n")
    for axis in _GROUP_AXES:
        values = sorted({value for r in reports
                         for key, value in r.group if key == axis})
        for value in values:
            members = [r for r in reports if (axis, value) in r.group]
            group_mean = (sum(r.robustness_score for r in members)
                          / len(members))
            buf.write(f"# group {axis}={value} events={len(members)} "
                      f"mean_robustness={group_mean:.2f}\n")
    return buf.getvalue()
