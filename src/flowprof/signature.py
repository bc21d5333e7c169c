"""Event-signature extraction from packet traces.

The pipeline: learn the DNS table from the traces, name packet endpoints
(roles / domains / address literals), aggregate each trace into a set of
canonical FlowIds with cross-capture port retention, then intersect the
per-trace sets into the event signature.
"""

from __future__ import annotations

import ipaddress
from array import array
from dataclasses import dataclass
from typing import Iterable, Optional

from .core import (
    ADDRESS_CACHE_SIZE,
    BROADCAST_ADDR,
    DNS_PORTS,
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


# Ports always retained in FlowIds: the well-known range plus the handful of
# IoT service ports that behave like well-known ones in practice.  Port 0
# names no service, and a FlowId holds no port 0, so it is never retained.
WELL_KNOWN_EXTRA = frozenset({5353, 5683, 8883, 9999})


def is_well_known_port(port: int) -> bool:
    return 0 < port <= 1023 or port in WELL_KNOWN_EXTRA


class DnsTable:
    """Mapping from non-local addresses to domain names.

    Entries come from DNS A/AAAA answers and TLS SNI observations; the latest
    observation wins.  Only non-local unicast addresses are ever inserted.
    Construction is a sequential fold over packets in timestamp order.

    The table owns the LAN topology that names the three roles, and memoizes
    how it names each address; any insert that adds or changes a mapping
    clears the memo.
    """

    def __init__(self, topo: Topology, entries: Optional[dict] = None):
        self.topo = topo
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

    def name(self, addr: str) -> HostRef:
        """How a packet address is named: a broadcast or multicast ref, a
        role ref for the three local roles of the table's topology, a
        table-named domain, else an address literal."""
        ref = self._names.get(addr)
        if ref is None:
            if len(self._names) >= ADDRESS_CACHE_SIZE:
                self._names.clear()
            ref = self._names[addr] = _name_addr(addr, self)
        return ref


def _name_addr(addr: str, table: DnsTable) -> HostRef:
    ip = ipaddress.ip_address(addr)
    norm = str(ip)
    if norm == BROADCAST_ADDR:
        return HostRef.broadcast()
    if ip.is_multicast:
        return HostRef.multicast(norm)
    role = table.topo.role_of(norm)
    if role is not None:
        return HostRef.role(role)
    name = table.lookup(norm)
    if name is not None:
        return HostRef.domain(name)
    return HostRef.address(norm)


# -- aggregation ----------------------------------------------------------------


# transport tokens that carry flows; every other packet is left out
_FLOW_TRANSPORTS = (Transport.TCP.value, Transport.UDP.value)


def aggregate_flows(traces: Iterable[Trace], seed_table: DnsTable) -> list:
    """Aggregate each trace into a set of canonical FlowIds.

    A trace's packets are grouped by unordered endpoint pair, transport and
    app selector (a DNS response carries its question identity, so it joins
    its query's group).  A group's first sender is its initiator; it is
    unidirectional when no other end sends.  Per group and host, the lowest
    well-known port is kept, else the lowest nonzero port common to every
    trace holding the group if at least two do: one trace cannot tell a
    fixed port from a drawn one.  `traces` is read once.  Each trace's DNS
    answers and SNI fold into the seed table (mutated) and only its distinct
    packet keys stay, packed as machine ints: the id of the port-free
    address key `(src, dst, transport, app)`, then both ports (-1 for None).
    Naming waits until every trace is folded, so no address is named two
    ways.  Each address key is then named once, to a group id and two host
    ids; those ints key every tally until the FlowIds are built.  Traces of
    one shape share one frozenset.
    """
    address_ids: dict = {}  # (src, dst, transport, app) -> address key id

    def fold(trace):
        keys = {}
        for packet in trace.packets:
            # one unpack is cheaper than reading six fields by name
            _, src, dst, sport, dport, transport, app, answers, sni, _, \
                control_plane, _ = packet
            if answers or sni:
                seed_table.update(packet)
            if not control_plane and transport in _FLOW_TRANSPORTS:
                keys[src, dst, sport, dport, transport, app] = None
        packed = []  # one conversion to array is cheaper than one per key
        for src, dst, sport, dport, transport, app in keys:
            packed += (
                address_ids.setdefault((src, dst, transport, app),
                                       len(address_ids)),
                -1 if sport is None else sport,
                -1 if dport is None else dport)
        return array("i", packed)

    # map holds no folded trace while the next one is drawn
    packed_per_trace = list(map(fold, traces))

    hosts: dict = {}  # HostRef -> host id
    group_keys: dict = {}  # (lower host id, higher, transport, app) -> id
    named = []  # address key id -> (group id, src host id, dst host id)
    for src_addr, dst_addr, transport, app in address_ids:
        src = hosts.setdefault(seed_table.name(src_addr), len(hosts))
        dst = hosts.setdefault(seed_table.name(dst_addr), len(hosts))
        group_id = group_keys.setdefault(
            (min(src, dst), max(src, dst), transport, app), len(group_keys))
        named.append((group_id, src, dst))
    # per group id: [traces holding it, {host id: [union, common, with_ports]}]
    tallies = [[0, {}] for _ in group_keys]
    shape_ids: dict = {}  # (group id, src id, dst id, unidirectional) -> id
    masks = []  # per trace, the bitmask of its shape ids
    for packed in packed_per_trace:
        groups: dict = {}  # group id -> [src id, dst id, uni, {host id: ports}]
        ints = iter(packed)
        for address_id, sport, dport in zip(ints, ints, ints):
            group_id, src, dst = named[address_id]
            group = groups.get(group_id)
            if group is None:
                group = groups[group_id] = [src, dst, True,
                                            {src: set(), dst: set()}]
            elif group[2] and (group[0] != src or group[1] != dst):
                group[2] = False
            if sport >= 0:
                group[3][src].add(sport)
            if dport >= 0:
                group[3][dst].add(dport)
        mask = 0
        for group_id, (src, dst, unidirectional, ports) in groups.items():
            mask |= 1 << shape_ids.setdefault(
                (group_id, src, dst, unidirectional), len(shape_ids))
            tally = tallies[group_id]
            tally[0] += 1
            for host, seen in ports.items():
                if not seen:
                    continue  # a host without a port here skips this trace
                host_tally = tally[1].get(host)
                if host_tally is None:
                    tally[1][host] = [seen, set(seen), 1]
                else:
                    host_tally[0] |= seen
                    host_tally[1] &= seen
                    host_tally[2] += 1
        masks.append(mask)

    # each host's tally becomes the port it keeps, or None, by HostRef
    host_refs = list(hosts)
    for tally in tallies:
        held, ports = tally
        tally[1] = kept_ports = {}
        for host, (union, common, with_ports) in ports.items():
            kept = [p for p in union if is_well_known_port(p)]
            if not kept and with_ports == held > 1:
                kept = common - {0}
            kept_ports[host_refs[host]] = min(kept, default=None)
    key_of = list(group_keys)  # group id -> group key
    flows = [_flow_id(key_of[group_id], (host_refs[src], host_refs[dst]),
                      unidirectional, tallies[group_id][1])
             for group_id, src, dst, unidirectional in shape_ids]
    sets = {mask: frozenset(flow for i, flow in enumerate(flows)
                            if mask >> i & 1)
            for mask in set(masks)}
    return [sets[mask] for mask in masks]


def _flow_id(key: tuple, ends: tuple, unidirectional: bool,
             ports: dict) -> FlowId:
    """The canonical FlowId of one group under its retained ports."""
    _, _, transport, app = key
    init, resp = ends
    direction = Direction.UNIDIRECTIONAL if unidirectional \
        else Direction.BIDIRECTIONAL
    responder_port = ports.get(resp)
    if isinstance(app, DnsSelector) \
            and responder_port not in (None, *DNS_PORTS):
        # Response-only group: the client slot is never DNS identity.
        responder_port = None
    return canonicalize(FlowId(
        initiator=init,
        responder=resp,
        initiator_port=ports.get(init),
        responder_port=responder_port,
        transport=Transport(transport),
        direction=direction,
        app=app,
    ))


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


def extract_signature(flow_sets: list, m: int) -> EventSignature:
    """Intersect the per-capture flow-ID sets; m_plus = len(flow_sets).

    No flow sets give the empty signature with m_plus = 0."""
    flow_sets = list(flow_sets)
    common = set(flow_sets[0]) if flow_sets else set()
    for flows in flow_sets[1:]:
        common.intersection_update(flows)
    return EventSignature(flows=frozenset(common), m=m, m_plus=len(flow_sets))


def accept_signature(sig: EventSignature) -> bool:
    """Majority-of-captures acceptance: 2 * m_plus >= m."""
    return 2 * sig.m_plus >= sig.m
