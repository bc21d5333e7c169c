"""Event-signature extraction from packet traces.

The pipeline: learn the DNS table from the traces, name packet endpoints
(roles / domains / address literals), aggregate each trace into a set of
canonical FlowIds with cross-capture port retention, then intersect the
per-trace sets into the event signature.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional

from .core import (
    ADDRESS_CACHE_SIZE,
    BROADCAST_ADDR,
    AppSelector,
    Direction,
    DnsSelector,
    FlowId,
    HostRef,
    ParsedPacket,
    Topology,
    Transport,
    canonicalize,
    sorted_flows,
)
from .pcapio import Trace


class EmptyTraceSet(ValueError):
    """No successful captures were supplied; the node must be treated as Failed."""


class SeedSource(str, Enum):
    GATEWAY_CACHE = "gateway-cache"
    MODEL_RECORDS = "model-records"
    EMPTY = "empty"


# Ports always retained in FlowIds: the well-known range plus the handful of
# IoT service ports that behave like well-known ones in practice.
WELL_KNOWN_EXTRA = frozenset({5353, 5683, 8883, 9999})


def is_well_known_port(port: int) -> bool:
    return port <= 1023 or port in WELL_KNOWN_EXTRA


class DnsTable:
    """Mapping from non-local addresses to domain names.

    Entries come from DNS A/AAAA answers and TLS SNI observations; the latest
    observation wins.  Only non-local unicast addresses are ever inserted.
    Construction is a sequential fold over packets in timestamp order.

    The table also memoizes how it names each address under its own
    topology; any insert that adds or changes a mapping clears the memo.
    """

    def __init__(self, topo: Topology, seed_source: SeedSource = SeedSource.EMPTY,
                 entries: Optional[dict] = None):
        self.topo = topo
        self.seed_source = seed_source
        self.entries: dict = {}
        self._names: dict = {}  # raw address -> HostRef under self.topo
        for addr, name in (entries or {}).items():
            self._insert(addr, name)

    def _insert(self, addr: str, name: str) -> None:
        if addr in self.entries and self.entries[addr] == name:
            return  # keys are already normalized non-local unicast addresses
        try:
            ip = ipaddress.ip_address(addr)
        except ValueError:
            return
        addr = str(ip)
        if ip.is_multicast or addr == BROADCAST_ADDR or self.topo.is_local(addr):
            return
        if addr not in self.entries or self.entries[addr] != name:
            self.entries[addr] = name
            self._names.clear()

    def update(self, packet: ParsedPacket) -> None:
        """Fold one packet: DNS answers map address->qname owner, SNI maps
        the packet's non-local endpoint to the indicated name."""
        for name, addr in packet.dns_answers:
            self._insert(addr, name)
        if packet.sni:
            remote = self._non_local_endpoint(packet)
            if remote is not None:
                self._insert(remote, packet.sni)

    def _non_local_endpoint(self, packet: ParsedPacket) -> Optional[str]:
        candidates = [
            a for a in (packet.src_addr, packet.dst_addr)
            if a and not self.topo.is_local(a)
        ]
        if len(candidates) == 1:
            return candidates[0]
        return None

    def lookup(self, addr: str) -> Optional[str]:
        return self.entries.get(addr)

    def _name(self, addr: str) -> HostRef:
        ref = self._names.get(addr)
        if ref is None:
            if len(self._names) >= ADDRESS_CACHE_SIZE:
                self._names.clear()
            ref = self._names[addr] = _name_addr(addr, self, self.topo)
        return ref


def update_table(table: DnsTable, packet: ParsedPacket) -> DnsTable:
    table.update(packet)
    return table


def name_endpoints(packet: ParsedPacket, table: DnsTable,
                   topo: Topology) -> tuple:
    """(src_ref, dst_ref) for a packet: broadcast/multicast refs, role refs
    for the three local roles, table-named domains, else address literals."""
    if topo is table.topo:
        return table._name(packet.src_addr), table._name(packet.dst_addr)
    return (_name_addr(packet.src_addr, table, topo),
            _name_addr(packet.dst_addr, table, topo))


def _name_addr(addr: str, table: DnsTable, topo: Topology) -> HostRef:
    ip = ipaddress.ip_address(addr)
    norm = str(ip)
    if norm == BROADCAST_ADDR:
        return HostRef.broadcast()
    if ip.is_multicast:
        return HostRef.multicast(norm)
    role = topo.role_of(norm)
    if role is not None:
        return HostRef.role(role)
    name = table.lookup(norm)
    if name is not None:
        return HostRef.domain(name)
    return HostRef.address(norm)


# -- aggregation ----------------------------------------------------------------


@dataclass
class _Group:
    """Per-trace packet group keyed by endpoint pair + transport + app."""

    first_src: HostRef
    first_dst: HostRef
    transport: Transport
    app: AppSelector
    ports: dict = field(default_factory=dict)   # token -> set of ports
    directions: set = field(default_factory=set)  # ordered (src, dst) token pairs

    def add(self, src: HostRef, dst: HostRef, sport, dport) -> None:
        if sport is not None:
            self.ports.setdefault(src.token(), set()).add(sport)
        if dport is not None:
            self.ports.setdefault(dst.token(), set()).add(dport)
        self.directions.add((src.token(), dst.token()))


def _group_key(src: HostRef, dst: HostRef, transport: Transport,
               app: AppSelector):
    pair = frozenset((src.token(), dst.token()))
    return (pair, transport, app)


def aggregate_flows(traces: Iterable[Trace], topo: Topology,
                    seed_table: DnsTable) -> list:
    """Aggregate each trace into a set of canonical FlowIds.

    Two phases: per-trace grouping by unordered endpoint pair + transport +
    app selector (a DNS response carries its question identity, so it lands
    in its query's group), then cross-trace port retention: a port is kept
    iff it is well-known or the same value recurs for that endpoint in every
    trace containing the group.  The seed table is folded over all packets
    (and mutated) before any naming, so one address is never named two ways
    within the trace set.
    """
    traces = list(traces)
    for trace in traces:
        for packet in trace.packets:
            seed_table.update(packet)

    per_trace_groups = []
    for trace in traces:
        groups: dict = {}
        for packet in trace.packets:
            if packet.transport not in (Transport.TCP.value, Transport.UDP.value):
                continue
            if packet.control_plane:
                continue
            src, dst = name_endpoints(packet, seed_table, topo)
            key = _group_key(src, dst, Transport(packet.transport), packet.app)
            group = groups.get(key)
            if group is None:
                group = _Group(first_src=src, first_dst=dst,
                               transport=Transport(packet.transport),
                               app=packet.app)
                groups[key] = group
            group.add(src, dst, packet.src_port, packet.dst_port)
        per_trace_groups.append(groups)

    retained = _retained_ports(per_trace_groups)

    flow_sets = []
    for groups in per_trace_groups:
        flows = set()
        for key, group in groups.items():
            ports = retained[key]
            init, resp = group.first_src, group.first_dst
            direction = (
                Direction.UNIDIRECTIONAL
                if len(group.directions) == 1
                else Direction.BIDIRECTIONAL
            )
            resp_port = ports.get(resp.token())
            if isinstance(group.app, DnsSelector) \
                    and resp_port not in (None, 53, 5353):
                # Response-only group: the client slot is never DNS identity.
                resp_port = None
            flow = FlowId(
                initiator=init,
                responder=resp,
                initiator_port=ports.get(init.token()),
                responder_port=resp_port,
                transport=group.transport,
                direction=direction,
                app=group.app,
            )
            flows.add(canonicalize(flow, topo))
        flow_sets.append(flows)
    return flow_sets


def _retained_ports(per_trace_groups: list) -> dict:
    """One port decision per (group key, endpoint token) across all traces."""
    observed: dict = {}
    for groups in per_trace_groups:
        for key, group in groups.items():
            observed.setdefault(key, []).append(group.ports)
    decisions: dict = {}
    for key, port_maps in observed.items():
        tokens = set()
        for ports in port_maps:
            tokens.update(ports)
        decision = {}
        for token in tokens:
            seen = [ports.get(token, set()) for ports in port_maps]
            union = set().union(*seen)
            common = set(seen[0]).intersection(*seen[1:]) if seen else set()
            well_known = sorted(p for p in union if is_well_known_port(p))
            if well_known:
                decision[token] = well_known[0]
            elif common:
                decision[token] = min(common)
        decisions[key] = decision
    return decisions


# -- signatures -------------------------------------------------------------------


@dataclass(frozen=True)
class EventSignature:
    """Intersection of per-capture flow sets over the successful captures."""

    flows: frozenset
    m: int
    m_plus: int

    def __post_init__(self):
        if self.m_plus == 0 and self.flows:
            raise ValueError("empty-capture signature cannot carry flows")
        if not (0 <= self.m_plus <= self.m):
            raise ValueError("m_plus must lie in [0, m]")

    def to_obj(self) -> dict:
        return {
            "m": self.m,
            "m_plus": self.m_plus,
            "flows": [f.to_obj() for f in sorted_flows(self.flows)],
        }

    @staticmethod
    def from_obj(obj: dict) -> "EventSignature":
        return EventSignature(
            flows=frozenset(FlowId.from_obj(f) for f in obj["flows"]),
            m=obj["m"],
            m_plus=obj["m_plus"],
        )


def extract_signature(flow_sets: list, m: int) -> EventSignature:
    """Intersect the per-capture flow-ID sets; m_plus = len(flow_sets)."""
    flow_sets = list(flow_sets)
    if not flow_sets:
        raise EmptyTraceSet("no successful captures to intersect")
    common = set(flow_sets[0])
    for flows in flow_sets[1:]:
        common &= set(flows)
    return EventSignature(flows=frozenset(common), m=m, m_plus=len(flow_sets))


def accept_signature(sig: EventSignature) -> bool:
    """Majority-of-captures acceptance: 2 * m_plus >= m."""
    return 2 * sig.m_plus >= sig.m
