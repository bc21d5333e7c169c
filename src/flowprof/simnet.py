"""Simulated smart-home network standing in for a physical testbed.

A DeviceModel declares the flows a device (and its controlling phone) can
emit, guard conditions that activate fallback flows when defaults are
blocked, a monotone success formula over delivered flows, and optional
probabilistic noise flows.  Each flow's packets are laid out once per
model as template packets with time 0 and no ports; run_capture draws only
the times and ports into them under a deny list, delivering the flows that
are emitted, not blocked and lose no packet to the packet-level firewall.
A deny list blocks a flow when it drops one of the flow's packets whatever
ports a capture draws.  That one verdict is taken once per experiment on
each flow's packets with only their pinned ports, and it drives both the
guards of run_capture and oracle_tree.  Drawn ports are ephemeral, so
only when a rule pins an ephemeral port are the emitted packets checked
one by one, which catches a drawn port equal to the pinned one.  oracle_tree
computes the exact signature tree from one signature of m = 1 per node,
drawing no capture.  SimDriver checks once that a pcap capture carries the
laid-out packets, then hands over captures with no codec pass.
"""

from __future__ import annotations

import functools
import ipaddress
import operator
import os
import random
import re
from dataclasses import dataclass
from typing import Container, List, Optional, Tuple

from .core import (
    BROADCAST_ADDR,
    DNS_PORTS,
    DnsSelector,
    Direction,
    FlowId,
    HostKind,
    HostRef,
    SchemaError,
    Topology,
    canonicalize,
    check,
    member,
    new_packet,
    read_json,
)
from .pcapio import (
    TCP_ACK,
    TCP_FIN,
    TCP_PSH,
    TCP_SYN,
    Trace,
    frame_len,
    headers_len,
    read_pcap,
    write_pcap,
)
from .blocklist import (
    RuleSet,
    compile_rules,
    matches_flow,
    matches_packet,
)
from .signature import DnsTable, EventSignature
from .sigtree import SigTree, explore


class GuardCycle(SchemaError):
    """Guard references form a cycle."""


class UnknownFlowRef(SchemaError):
    """Guard or success formula references an undeclared flow id."""


class UnresolvedDomain(SchemaError):
    """A domain used by a flow has no DNS record."""


SCHEMA_VERSION = 1
BASE_TS_US = 1_700_000_000 * 1_000_000
EPHEMERAL_LO, EPHEMERAL_HI = 49152, 65535
MAX_FORMULA_DEPTH = 100  # clauses on a success formula's longest path

_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")
_TS_US = operator.attrgetter("ts_us")


@dataclass(frozen=True)
class PacketShape:
    count: int
    sizes: Tuple[int, ...]


@dataclass(frozen=True)
class FlowSpec:
    id: str
    flow: FlowId
    guard: Tuple[Tuple[str, ...], ...]  # DNF over blocked(flow-id) literals
    shape: PacketShape
    p: Optional[float] = None  # emission probability; None for main flows


@dataclass(frozen=True)
class CaptureResult:
    trace: Trace
    success: bool
    seed: int


@dataclass(frozen=True, eq=False)
class DeviceModel:
    topology: Topology
    dns_records: Tuple[Tuple[str, str], ...]
    flows: Tuple[FlowSpec, ...]
    success: dict
    noise: Tuple[FlowSpec, ...]

    def spec(self, flow_id: str) -> FlowSpec:
        for spec in self.flows + self.noise:
            if spec.id == flow_id:
                return spec
        raise KeyError(flow_id)


# -- loading and validation -------------------------------------------------------


def load_model(source) -> DeviceModel:
    """Parse and validate a device-model document (path, JSON text, or dict)."""
    if isinstance(source, str) and source.lstrip().startswith("{"):
        return read_json(_validate, "model", text=source)
    if isinstance(source, (str, os.PathLike)):
        return read_json(_validate, "model", path=source)
    return _validate(source)


def _validate(obj: dict) -> DeviceModel:
    if member(check(obj, dict), "schema", int) != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema version {obj['schema']!r}")
    topo = Topology.from_obj(member(obj, "topology", dict), ("topology",))
    records = _validate_records(
        member(obj, "dns_records", [[str]], default=()), topo)
    record_names = {rec_name for rec_name, _ in records}
    record_ips = {ip for _, ip in records}

    flows = [_validate_spec(entry, ("flows", index), noise=False)
             for index, entry in enumerate(member(obj, "flows", [dict]))]
    if not flows:
        raise SchemaError("'flows' must be a non-empty list")
    noise = [_validate_spec(entry, ("noise", index), noise=True)
             for index, entry in enumerate(member(obj, "noise", [dict], default=()))]
    all_specs = flows + noise

    id_set = set()
    for spec in all_specs:
        if spec.id in id_set:
            raise SchemaError(f"duplicate flow id {spec.id!r}")
        id_set.add(spec.id)
    firsts = {}  # template -> id of the first spec with it
    for spec in all_specs:
        if firsts.setdefault(spec.flow, spec.id) != spec.id:
            raise SchemaError(
                f"flow {firsts[spec.flow]!r} duplicates another template")

    for spec in all_specs:
        for conj in spec.guard:
            for ref in conj:
                if ref not in id_set:
                    raise UnknownFlowRef(
                        f"guard of {spec.id!r} references unknown flow {ref!r}")
    _check_guard_cycles(all_specs)

    role_addrs = {topo.device_addr, topo.phone_addr, topo.gateway_addr}
    for spec in all_specs:
        for host in (spec.flow.initiator, spec.flow.responder):
            if host.kind is HostKind.DOMAIN and host.value not in record_names:
                raise UnresolvedDomain(
                    f"flow {spec.id!r} uses domain {host.value!r} "
                    "with no DNS record")
            if host.kind is HostKind.ADDRESS:
                if host.value in role_addrs:
                    raise SchemaError(
                        f"flow {spec.id!r} addresses role host {host.value} "
                        "literally")
                if host.value in record_ips:
                    raise SchemaError(
                        f"flow {spec.id!r} addresses {host.value} literally "
                        "but a DNS record names it")
        app = spec.flow.app
        if isinstance(app, DnsSelector):
            if spec.flow.responder_port not in DNS_PORTS:
                raise SchemaError(
                    f"DNS flow {spec.id!r} must pin responder port 53 or 5353")
            if app.qtype in ("A", "AAAA") and app.qname not in record_names:
                raise UnresolvedDomain(
                    f"flow {spec.id!r} queries {app.qname!r} "
                    "with no DNS record")

    success = obj.get("success")
    _validate_formula(success, id_set)

    return DeviceModel(
        topology=topo,
        dns_records=records,
        flows=tuple(flows),
        success=success,
        noise=tuple(noise),
    )


def _validate_records(raw, topo: Topology) -> Tuple[Tuple[str, str], ...]:
    records = []
    seen_ips = set()
    for entry in raw:
        if len(entry) != 2:
            raise SchemaError(f"bad DNS record {entry!r}")
        rec_name, ip = entry
        try:
            host = HostRef.domain(rec_name)
            addr = str(ipaddress.ip_address(ip))
        except ValueError as exc:
            raise SchemaError(f"bad DNS record {entry!r}: {exc}") from exc
        if topo.is_local(addr):
            raise SchemaError(f"DNS record {rec_name!r} maps a local address")
        if addr in seen_ips:
            raise SchemaError(f"duplicate DNS record address {addr}")
        seen_ips.add(addr)
        records.append((host.value, addr))
    return tuple(records)


def _validate_spec(entry: dict, path: tuple, noise: bool) -> FlowSpec:
    flow_id = member(entry, "id", str, path)
    if not _ID_RE.match(flow_id):
        raise SchemaError(f"bad flow id {flow_id!r}")
    flow = canonicalize(FlowId.from_obj(entry.get("flow"), path + ("flow",)))
    guard = member(entry, "guard", [[str]], path, ())
    if not all(guard):
        raise SchemaError(
            f"flow {flow_id!r}: guard conjunction must be a non-empty "
            "list of flow ids")
    packets = member(entry, "packets", dict, path)
    count = member(packets, "count", int, path + ("packets",))
    sizes = member(packets, "sizes", [int], path + ("packets",))
    if not 2 <= count <= 8:
        raise SchemaError(f"flow {flow_id!r}: packet count must be 2..8")
    if not sizes or not all(1 <= s <= 1400 for s in sizes):
        raise SchemaError(f"flow {flow_id!r}: sizes must be ints in 1..1400")
    p = None
    if noise:
        p = float(member(entry, "p", (int, float), path))
        if not 0.0 <= p <= 1.0:
            raise SchemaError(f"noise flow {flow_id!r}: p must be in [0, 1]")
    elif "p" in entry:
        raise SchemaError(f"flow {flow_id!r}: only noise entries take 'p'")
    return FlowSpec(id=flow_id, flow=flow, guard=tuple(map(tuple, guard)),
                    shape=PacketShape(count=count, sizes=tuple(sizes)), p=p)


def _check_guard_cycles(specs: List[FlowSpec]):
    edges = {spec.id: sorted({ref for conj in spec.guard for ref in conj})
             for spec in specs}
    done: set = set()
    for spec in specs:
        _visit_guards(edges, done, [spec.id])


def _visit_guards(edges: dict, done: set, path: List[str]):
    """Depth-first walk from the last node of `path`, the stack of nodes
    being visited; raises GuardCycle on an edge back into it."""
    for ref in edges[path[-1]]:
        if ref in path:
            cycle = path[path.index(ref):] + [ref]
            raise GuardCycle("guard cycle: " + " -> ".join(cycle))
        if ref not in done:
            _visit_guards(edges, done, path + [ref])
    done.add(path[-1])


def _validate_formula(formula, ids: set, path=("success",), depth: int = 1):
    """Check the success clause at `path`, `depth` clauses deep, refusing one
    past MAX_FORMULA_DEPTH before eval_success would recurse that far."""
    if depth > MAX_FORMULA_DEPTH:
        raise SchemaError(
            f"success formula nests deeper than {MAX_FORMULA_DEPTH} clauses")
    if len(check(formula, dict, path)) != 1:
        raise SchemaError(f"bad success clause {formula!r}")
    key, value = next(iter(formula.items()))
    if key == "flow":
        if check(value, str, path + (key,)) not in ids:
            raise UnknownFlowRef(f"success references unknown flow {value!r}")
    elif key in ("and", "or"):
        if not check(value, list, path + (key,)):
            raise SchemaError(f"'{key}' needs a non-empty clause list")
        for index, clause in enumerate(value):
            _validate_formula(clause, ids, path + (key, index), depth + 1)
    else:
        raise SchemaError(f"unknown success operator {key!r}")


# -- semantics --------------------------------------------------------------------


def eval_success(formula: dict, delivered: Container) -> bool:
    key, value = next(iter(formula.items()))
    if key == "flow":
        return value in delivered
    clauses = (eval_success(c, delivered) for c in value)
    return all(clauses) if key == "and" else any(clauses)


def _blocked_ids(rules: RuleSet, table: DnsTable, packets: dict) -> frozenset:
    """The deny list's verdict over a model laid out with `table` and
    `packets` (_lay_out): ids of the specs it drops a packet of whatever
    ports a capture draws (matches_flow)."""
    return frozenset(spec_id for spec_id, flow_packets in packets.items()
                     if matches_flow(rules, flow_packets, table))


def _guard_ok(spec: FlowSpec, blocked: frozenset) -> bool:
    return not spec.guard or any(all(ref in blocked for ref in conj)
                                 for conj in spec.guard)


def _capture_flows(flows: tuple, noise: tuple, rng: random.Random) -> tuple:
    """The entries of an experiment plan's flows that one capture emits.
    The noise Bernoulli draws happen first, one per noise spec in
    declaration order, so packet-level draws never shift them."""
    draws = [rng.random() for _ in noise]
    return flows + tuple(entry for entry, draw in zip(noise, draws)
                         if entry is not None and draw < entry[0].p)


@functools.lru_cache(maxsize=1)
def _experiment_plan(model: DeviceModel, rules: RuleSet) -> tuple:
    """(DNS table, ARP frames, main flows, noise flows, refilter) shared by
    the captures of one experiment, which run back to back: all five depend
    on the model and the deny list only, and run_capture never mutates
    them.  The table and the ARP frames are the model's (_lay_out).

    The firewall is decided here, once per flow spec, on the spec's
    distinct packets with the ports it pins.  A spec the rules block,
    dropping one of those packets whatever ports are drawn, is left out,
    and so is a main spec whose guard fails; a noise spec that could never
    fire keeps its place as None, so each capture still draws once per
    noise spec.  Every other spec is a (spec, layout) entry, the layout
    holding its port-free template packets.  A drawn port lies in
    EPHEMERAL_LO..EPHEMERAL_HI, so a rule can drop a packet of a spec it
    leaves unblocked only by pinning such a port: `refilter` is true when
    some rule does, and only then is each emitted packet checked by
    matches_packet."""
    table, arp, layouts, packets = _model_layout(model)
    blocked = _blocked_ids(rules, table, packets)

    def entry(spec: FlowSpec):
        if spec.id in blocked or not _guard_ok(spec, blocked):
            return None
        return spec, layouts[spec.id]

    flows = [entry(spec) for spec in model.flows]
    refilter = any(port is not None and port >= EPHEMERAL_LO for rule in rules
                   for port in (rule.pattern.initiator_port,
                                rule.pattern.responder_port))
    return (table, arp, tuple(e for e in flows if e is not None),
            tuple(entry(spec) for spec in model.noise), refilter)


def run_capture(model: DeviceModel, rules: RuleSet, seed: int) -> CaptureResult:
    """One capture: the model's layouts with ports and times drawn into
    their templates, less what the deny list blocks."""
    rng = random.Random(seed)
    table, arp, flows, noise, refilter = _experiment_plan(model, rules)
    packets = list(arp)
    delivered = set()
    for spec, layout in _capture_flows(flows, noise, rng):
        sent = _emit_flow(spec, layout, rng)
        # The packet-level firewall, only when a rule pins an ephemeral
        # port: it cuts a flow whose drawn port equals the pinned one.  A
        # flow that loses a packet is not delivered.
        kept = [p for p in sent if not matches_packet(rules, p, table)] \
            if refilter else sent
        if len(kept) == len(sent):
            delivered.add(spec.id)
        packets.extend(kept)
    return CaptureResult(
        trace=Trace(packets=tuple(_in_time_order(packets))),
        success=eval_success(model.success, delivered),
        seed=seed,
    )


def model_table(model: DeviceModel) -> DnsTable:
    """DNS table preloaded with every model record (the simulated gateway
    knows all names)."""
    return DnsTable(model.topology,
                    {ip: rec_name for rec_name, ip in model.dns_records})


# -- packet generation ------------------------------------------------------------


def _endpoint_addr(model: DeviceModel, host: HostRef) -> str:
    if host.kind is HostKind.ROLE:
        return model.topology.addr_of(host.value)
    if host.kind is HostKind.DOMAIN:
        for rec_name, ip in model.dns_records:
            if rec_name == host.value:
                return ip
        raise UnresolvedDomain(host.value)  # unreachable on validated models
    if host.kind is HostKind.BROADCAST:
        return BROADCAST_ADDR
    return host.value  # ADDRESS and MULTICAST carry literals


def _answers_for(model: DeviceModel, app) -> tuple:
    if not isinstance(app, DnsSelector) or app.qtype not in ("A", "AAAA"):
        return ()
    want_v6 = app.qtype == "AAAA"
    # record addresses are normalized literals: only IPv6 ones hold a colon
    return tuple((rec_name, ip) for rec_name, ip in model.dns_records
                 if rec_name == app.qname and (":" in ip) == want_v6)


def _lay_out(model: DeviceModel) -> tuple:
    """(DNS table, ARP frames, layout of each flow spec by id, distinct
    packets of each flow spec by id), never mutated; a capture only draws
    ports and times into the layouts' template packets.  A spec's distinct
    packets are its templates with the ports its flow pins and None for
    the drawn ones, one per orientation and app: what the firewall verdict
    reads.  Raises SchemaError naming the first flow whose packets cannot
    be framed."""
    layouts, packets = {}, {}
    for spec in model.flows + model.noise:
        try:
            layout = layouts[spec.id] = _flow_layout(model, spec)
        except ValueError as exc:
            raise SchemaError(
                f"flow {spec.id!r} cannot be captured: {exc}") from exc
        pinned = (spec.flow.initiator_port, spec.flow.responder_port)
        distinct = {}
        for forward, _, _, template in layout:
            distinct.setdefault((forward, template.app), template._replace(
                src_port=pinned[not forward], dst_port=pinned[forward]))
        packets[spec.id] = tuple(distinct.values())
    return model_table(model), _arp_frames(model), layouts, packets


# The experiments on one model, which run back to back, share its layout,
# so the table's memo names each address once per model.
_model_layout = functools.lru_cache(maxsize=1)(_lay_out)


def _arp_frames(model: DeviceModel) -> tuple:
    topo = model.topology
    pairs = [(topo.device_addr, topo.gateway_addr, 10_000),
             (topo.phone_addr, topo.device_addr, 20_000)]
    out = []
    for src, dst, offset in pairs:
        if ":" in src + dst:
            continue  # ARP resolves IPv4 only; literals are normalized
        fields = dict(ts_us=BASE_TS_US + offset, src_addr=src, dst_addr=dst,
                      transport="arp", control_plane=True)
        out.append(new_packet(**fields,
                              wire_len=frame_len(new_packet(**fields))))
    return tuple(out)


def _flow_layout(model: DeviceModel, spec: FlowSpec) -> tuple:
    """Each packet of the flow as (forward, index of the data packet whose
    time it follows, offset in us from that time, template): the template
    is the packet with time 0 and no ports, built once per model, so a
    capture draws only the times and ports.  A TCP flow's data is wrapped in
    a handshake and a teardown that the side which sent the last data
    packet begins."""
    flow, shape = spec.flow, spec.shape
    init = _endpoint_addr(model, flow.initiator)
    resp = _endpoint_addr(model, flow.responder)
    transport = flow.transport.value
    tcp = transport == "tcp"
    bi = flow.direction is Direction.BIDIRECTIONAL
    # an app-less TCP flow opens with a ClientHello naming its domain
    domains = [host.value for host in (flow.responder, flow.initiator)
               if host.kind is HostKind.DOMAIN]
    hello = domains[0] if domains and tcp and flow.app is None else None
    answers = _answers_for(model, flow.app)
    headers = headers_len(transport, 6 if ":" in init else 4)

    def template(forward: bool, size: int, **fields):
        probe = new_packet(ts_us=0, src_addr=init if forward else resp,
                           dst_addr=resp if forward else init,
                           transport=transport, **fields)
        return probe._replace(wire_len=max(frame_len(probe), headers + size))

    layout = []
    for k in range(shape.count):
        forward = not (bi and k % 2)
        layout.append((forward, k, 0, template(
            forward, shape.sizes[k % len(shape.sizes)], app=flow.app,
            sni=None if k else hello, dns_answers=() if forward else answers,
            tcp_flags=TCP_PSH | TCP_ACK if tcp else None)))
    if tcp:
        last, step, closer = shape.count - 1, 5_000, layout[-1][0]
        ctrl = [(forward, anchor, offset,
                 template(forward, 0, control_plane=True, tcp_flags=flags))
                for forward, anchor, offset, flags in (
                    (True, 0, -3 * step, TCP_SYN),
                    (False, 0, -2 * step, TCP_SYN | TCP_ACK),
                    (True, 0, -step, TCP_ACK),
                    (closer, last, step, TCP_FIN | TCP_ACK),
                    (not closer, last, 2 * step, TCP_ACK))]
        layout = ctrl[:3] + layout + ctrl[3:]
    return tuple(layout)


def _emit_flow(spec: FlowSpec, layout: tuple, rng: random.Random) -> list:
    """The flow's packets: its layout's templates with the unset ports, the
    start time and the gaps between data packets drawn, in that order."""
    flow = spec.flow
    init_port = flow.initiator_port or rng.randint(EPHEMERAL_LO, EPHEMERAL_HI)
    resp_port = flow.responder_port or rng.randint(EPHEMERAL_LO, EPHEMERAL_HI)
    start_s = rng.uniform(0.05, 0.8) if isinstance(flow.app, DnsSelector) \
        else rng.uniform(1.0, 3.0)
    times = [BASE_TS_US + int(start_s * 1_000_000)]
    for _ in range(1, spec.shape.count):
        times.append(times[-1] + int(rng.uniform(0.01, 0.12) * 1_000_000))
    return [new_packet(ts_us=times[anchor] + offset,
                       src_addr=template.src_addr, dst_addr=template.dst_addr,
                       src_port=init_port if forward else resp_port,
                       dst_port=resp_port if forward else init_port,
                       transport=template.transport, app=template.app,
                       dns_answers=template.dns_answers, sni=template.sni,
                       wire_len=template.wire_len,
                       control_plane=template.control_plane,
                       tcp_flags=template.tcp_flags)
            for forward, anchor, offset, template in layout]


def _in_time_order(packets: list) -> list:
    """The packets sorted by time, in place and stably; if two times tie,
    a copy with each tied packet moved to 1 us past the one before it.  The
    check for a tie runs in C, and no bundled model draws one."""
    packets.sort(key=_TS_US)
    times = list(map(_TS_US, packets))
    if all(map(operator.lt, times, times[1:])):
        return packets
    return _strictly_increasing(packets)


def _strictly_increasing(packets: list) -> list:
    out = []
    prev = -1
    for pkt in packets:
        ts = max(pkt.ts_us, prev + 1)
        out.append(pkt if ts == pkt.ts_us else pkt._replace(ts_us=ts))
        prev = ts
    return out


# -- drivers and oracle -----------------------------------------------------------


class SimDriver:
    """Experiment driver backed by the simulator.

    Built, it lays out the model's flows (refusing one that cannot be
    framed), then writes the ARP frames and one emission of each layout to
    pcap and reads them back, raising SchemaError at the first field of a
    flow that reads back differently.  A capture is those same layouts with
    other ports and times drawn, which read back verbatim, so `run` hands
    over the simulator's captures without a codec pass.
    The successes drawn before an experiment's early stop still fold into
    the profiler's DNS table, which holds every model record already.
    """

    def __init__(self, model: DeviceModel):
        self.model = model
        _, arp, layouts, _ = _model_layout(model)
        rng = random.Random(0)
        emissions = [("the ARP frames", arp)] + [
            (f"flow {spec.id!r}", _emit_flow(spec, layouts[spec.id], rng))
            for spec in model.flows + model.noise]
        for name, sent in emissions:
            back = read_pcap(write_pcap(Trace(packets=tuple(sent)))).packets
            for pkt, got in zip(sent, back):
                for field, value, read in zip(pkt._fields, pkt, got):
                    if read != value:
                        raise SchemaError(
                            f"{name} cannot be captured: its {field} reads "
                            f"back as {read!r}, not {value!r}")

    def dns_table(self) -> DnsTable:
        """A fresh table seeded with the model's records; profiling mutates
        the table it is given."""
        return model_table(self.model)

    def run(self, rules: RuleSet, m: int, seed: int):
        """The m captures seeded seed, seed + 1, ..., each made when drawn."""
        if m < 1:
            raise ValueError("m must be at least 1")
        return (run_capture(self.model, rules, seed + i) for i in range(m))


def _blocked_ids_by_flow(model: DeviceModel):
    """A function from a blocking set to the `_blocked_ids` of the rules
    compiled from it.

    A rule set blocks a spec iff one of its rules does, and each rule comes
    from one flow, so each flow's verdict is computed once and a blocking
    set's is their union.  The model is laid out for this function alone,
    so an oracle run leaves no layout cached."""
    table, _, _, packets = _lay_out(model)

    @functools.cache
    def verdict(flow: FlowId) -> frozenset:
        return _blocked_ids(compile_rules([flow]), table, packets)

    def blocked_ids(blocking_set) -> frozenset:
        return frozenset().union(*map(verdict, blocking_set))

    return blocked_ids


def oracle_tree(model: DeviceModel, pruning: bool = True,
                max_depth: Optional[int] = None) -> SigTree:
    """Expected signature tree, computed symbolically from the model.

    Noise flows participate only when p >= 1 (present in every capture and
    therefore in every intersection); sub-certain noise never survives.
    """
    # per certain spec: its id, its flow and its guard's conjunctions, each
    # a set, which holds iff it is a subset of the blocked ids
    certain = [(s.id, s.flow, tuple(map(frozenset, s.guard)))
               for s in model.flows + tuple(s for s in model.noise
                                            if s.p >= 1.0)]
    blocked_ids = _blocked_ids_by_flow(model)
    failed = EventSignature(flows=frozenset(), m=1, m_plus=0)

    def observe(blocking_set):
        """The one capture's signature: m = 1, m_plus 1 when it succeeds."""
        blocked = blocked_ids(blocking_set)
        delivered = {spec_id: flow for spec_id, flow, guard in certain
                     if spec_id not in blocked
                     and (not guard or any(conj <= blocked for conj in guard))}
        if not eval_success(model.success, delivered):
            return failed
        return EventSignature(flows=frozenset(delivered.values()),
                              m=1, m_plus=1)

    return explore(SigTree(pruning=pruning), observe, max_depth)
