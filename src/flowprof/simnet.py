"""Simulated smart-home network standing in for a physical testbed.

A DeviceModel declares the flows a device (and its controlling phone) can
emit, guard conditions that activate fallback flows when defaults are
blocked, a monotone success formula over delivered flows, and optional
probabilistic noise flows.  run_capture turns the model into a concrete
trace under a deny list; oracle_tree computes the exact signature tree
symbolically, never touching packets or RNG.
"""

from __future__ import annotations

import functools
import ipaddress
import json
import random
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from .core import (
    BROADCAST_ADDR,
    DnsSelector,
    Direction,
    FlowId,
    HostKind,
    HostRef,
    ParsedPacket,
    Topology,
    Transport,
    canonicalize,
)
from .pcapio import (
    TCP_ACK,
    TCP_FIN,
    TCP_PSH,
    TCP_SYN,
    Trace,
    frame_len,
    read_pcap,
    write_pcap,
)
from .blocklist import RuleSet, compile_rules, matches_flow, matches_packet
from .signature import DnsTable, EventSignature, SeedSource
from .sigtree import RootFailed, SigTree


class SchemaError(ValueError):
    """Model document violates the schema."""


class GuardCycle(SchemaError):
    """Guard references form a cycle."""


class UnknownFlowRef(SchemaError):
    """Guard or success formula references an undeclared flow id."""


class UnresolvedDomain(SchemaError):
    """A domain used by a flow has no DNS record."""


SCHEMA_VERSION = 1
CAPTURE_SECONDS = 20.0
BASE_TS_US = 1_700_000_000 * 1_000_000
EPHEMERAL_LO, EPHEMERAL_HI = 49152, 65535

_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


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
    emitted: frozenset
    seed: int


@dataclass(frozen=True, eq=False)
class DeviceModel:
    name: str
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
    name = "model"
    if isinstance(source, (str, Path)) and not str(source).lstrip().startswith("{"):
        path = Path(source)
        name = path.stem
        try:
            text = path.read_text()
        except OSError as exc:
            raise SchemaError(f"cannot read model: {exc}") from exc
        source = text
    if isinstance(source, (str, bytes)):
        try:
            source = json.loads(source)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"model is not valid JSON: {exc}") from exc
    if not isinstance(source, dict):
        raise SchemaError("model document must be a JSON object")
    return _validate(source, name)


def _validate(obj: dict, name: str) -> DeviceModel:
    if obj.get("schema") != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema version {obj.get('schema')!r}")
    try:
        topo = Topology.from_obj(obj["topology"])
    except KeyError:
        raise SchemaError("missing topology") from None
    except ValueError as exc:
        raise SchemaError(f"bad topology: {exc}") from exc

    records = _validate_records(obj.get("dns_records", []), topo)
    record_names = {rec_name for rec_name, _ in records}
    record_ips = {ip for _, ip in records}

    flows = [_validate_spec(entry, topo, noise=False)
             for entry in _expect_list(obj, "flows")]
    noise = [_validate_spec(entry, topo, noise=True)
             for entry in obj.get("noise", [])]
    all_specs = flows + noise

    ids = [spec.id for spec in all_specs]
    for flow_id in ids:
        if ids.count(flow_id) > 1:
            raise SchemaError(f"duplicate flow id {flow_id!r}")
    templates = [spec.flow.canonical_json() for spec in all_specs]
    for spec in all_specs:
        if templates.count(spec.flow.canonical_json()) > 1:
            raise SchemaError(f"flow {spec.id!r} duplicates another template")

    id_set = set(ids)
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
            if spec.flow.responder_port not in (53, 5353):
                raise SchemaError(
                    f"DNS flow {spec.id!r} must pin responder port 53 or 5353")
            if app.qtype in ("A", "AAAA") and app.qname not in record_names:
                raise UnresolvedDomain(
                    f"flow {spec.id!r} queries {app.qname!r} "
                    "with no DNS record")

    success = obj.get("success")
    if success is None:
        raise SchemaError("missing success formula")
    _validate_formula(success, id_set)

    return DeviceModel(
        name=name,
        topology=topo,
        dns_records=records,
        flows=tuple(flows),
        success=success,
        noise=tuple(noise),
    )


def _expect_list(obj: dict, key: str) -> list:
    value = obj.get(key)
    if not isinstance(value, list) or not value:
        raise SchemaError(f"{key!r} must be a non-empty list")
    return value


def _validate_records(raw, topo: Topology) -> Tuple[Tuple[str, str], ...]:
    if not isinstance(raw, list):
        raise SchemaError("'dns_records' must be a list")
    records = []
    seen_ips = set()
    for entry in raw:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
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


def _validate_spec(entry, topo: Topology, noise: bool) -> FlowSpec:
    if not isinstance(entry, dict):
        raise SchemaError(f"flow entry must be an object, got {entry!r}")
    flow_id = entry.get("id")
    if not isinstance(flow_id, str) or not _ID_RE.match(flow_id):
        raise SchemaError(f"bad flow id {flow_id!r}")
    try:
        flow = canonicalize(FlowId.from_obj(entry["flow"]))
    except KeyError:
        raise SchemaError(f"flow {flow_id!r} missing 'flow'") from None
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"flow {flow_id!r}: {exc}") from exc
    guard_raw = entry.get("guard", [])
    if not isinstance(guard_raw, list):
        raise SchemaError(f"flow {flow_id!r}: guard must be a list")
    guard = []
    for conj in guard_raw:
        if (not isinstance(conj, list) or not conj
                or not all(isinstance(ref, str) for ref in conj)):
            raise SchemaError(
                f"flow {flow_id!r}: guard conjunction must be a non-empty "
                "list of flow ids")
        guard.append(tuple(conj))
    packets = entry.get("packets")
    if not isinstance(packets, dict):
        raise SchemaError(f"flow {flow_id!r} missing 'packets'")
    count = packets.get("count")
    sizes = packets.get("sizes")
    if not isinstance(count, int) or not (2 <= count <= 8):
        raise SchemaError(f"flow {flow_id!r}: packet count must be 2..8")
    if (not isinstance(sizes, list) or not sizes
            or not all(isinstance(s, int) and 1 <= s <= 1400 for s in sizes)):
        raise SchemaError(f"flow {flow_id!r}: sizes must be ints in 1..1400")
    p = None
    if noise:
        p = entry.get("p")
        if not isinstance(p, (int, float)) or not (0.0 <= p <= 1.0):
            raise SchemaError(f"noise flow {flow_id!r}: p must be in [0, 1]")
        p = float(p)
    elif "p" in entry:
        raise SchemaError(f"flow {flow_id!r}: only noise entries take 'p'")
    return FlowSpec(id=flow_id, flow=flow, guard=tuple(guard),
                    shape=PacketShape(count=count, sizes=tuple(sizes)), p=p)


def _check_guard_cycles(specs: List[FlowSpec]):
    edges = {spec.id: sorted({ref for conj in spec.guard for ref in conj})
             for spec in specs}
    state: Dict[str, int] = {}  # 1 = on stack, 2 = done

    def visit(node: str, path: List[str]):
        state[node] = 1
        for ref in edges[node]:
            if state.get(ref) == 1:
                cycle = path[path.index(ref):] + [ref] if ref in path else [
                    node, ref]
                raise GuardCycle("guard cycle: " + " -> ".join(cycle))
            if state.get(ref) != 2:
                visit(ref, path + [ref])
        state[node] = 2

    for spec in specs:
        if state.get(spec.id) != 2:
            visit(spec.id, [spec.id])


def _validate_formula(formula, ids: set):
    if not isinstance(formula, dict) or len(formula) != 1:
        raise SchemaError(f"bad success clause {formula!r}")
    key, value = next(iter(formula.items()))
    if key == "flow":
        if value not in ids:
            raise UnknownFlowRef(f"success references unknown flow {value!r}")
    elif key in ("and", "or"):
        if not isinstance(value, list) or not value:
            raise SchemaError(f"'{key}' needs a non-empty clause list")
        for clause in value:
            _validate_formula(clause, ids)
    else:
        raise SchemaError(f"unknown success operator {key!r}")


# -- semantics --------------------------------------------------------------------


def eval_success(formula: dict, delivered: frozenset) -> bool:
    key, value = next(iter(formula.items()))
    if key == "flow":
        return value in delivered
    clauses = (eval_success(c, delivered) for c in value)
    return all(clauses) if key == "and" else any(clauses)


def _blocked_map(model: DeviceModel, rules: RuleSet) -> Dict[str, bool]:
    return {spec.id: matches_flow(rules, spec.flow)
            for spec in model.flows + model.noise}


def _guard_ok(spec: FlowSpec, blocked: Dict[str, bool]) -> bool:
    if not spec.guard:
        return True
    return any(all(blocked[ref] for ref in conj) for conj in spec.guard)


def active_flows(model: DeviceModel, rules: RuleSet) -> List[str]:
    """Ids of main flows whose guard holds under the deny list, whether or
    not the flows themselves are blocked."""
    blocked = _blocked_map(model, rules)
    return [spec.id for spec in model.flows if _guard_ok(spec, blocked)]


def _capture_flows(model: DeviceModel, blocked: Dict[str, bool],
                   rng: random.Random):
    """Shared emission logic: noise Bernoulli draws happen first, in
    declaration order, so packet-level draws never shift them."""
    draws = [rng.random() for _ in model.noise]
    active = [spec for spec in model.flows if _guard_ok(spec, blocked)]
    fired = [spec for spec, draw in zip(model.noise, draws)
             if draw < spec.p and _guard_ok(spec, blocked)]
    emitted = active + fired
    delivered = frozenset(s.id for s in emitted if not blocked[s.id])
    return emitted, delivered


def capture_emission(model: DeviceModel, rules: RuleSet, seed: int):
    """(emitted flow ids, delivered flow ids, success) without building
    packets; mirrors run_capture's draws exactly."""
    emitted, delivered = _capture_flows(model, _blocked_map(model, rules),
                                        random.Random(seed))
    return (frozenset(s.id for s in emitted), delivered,
            eval_success(model.success, delivered))


@functools.lru_cache(maxsize=1)
def _experiment_plan(model: DeviceModel, rules: RuleSet) -> tuple:
    """(blocked map, DNS table, ARP dressing) shared by the captures of one
    experiment, which run back to back: all three depend on the model and
    the deny list only, and run_capture never mutates them."""
    return _blocked_map(model, rules), model_table(model), _arp_dressing(model)


def run_capture(model: DeviceModel, rules: RuleSet, seed: int) -> CaptureResult:
    rng = random.Random(seed)
    blocked, table, arp = _experiment_plan(model, rules)
    emitted, delivered = _capture_flows(model, blocked, rng)
    packets = list(arp)
    for spec in emitted:
        if blocked[spec.id]:
            continue
        packets.extend(_emit_flow(model, spec, rng))
    packets.sort(key=lambda p: p.ts_us)
    packets = _strictly_increasing(packets)
    # Not redundant with skipping blocked specs: `blocked` compares whole
    # flows, direction included, so a uni rule never blocks a bi flow on the
    # same endpoints, yet it matches that flow's packets in its own direction.
    packets = [p for p in packets
               if not matches_packet(rules, p, table, model.topology)]
    trace = Trace(packets=tuple(packets), capture_duration=CAPTURE_SECONDS,
                  label=f"{model.name}-seed{seed}")
    return CaptureResult(
        trace=trace,
        success=eval_success(model.success, delivered),
        emitted=frozenset(s.id for s in emitted),
        seed=seed,
    )


def run_experiment(model: DeviceModel, rules: RuleSet, m: int,
                   seed: int) -> List[CaptureResult]:
    if m < 1:
        raise ValueError("m must be at least 1")
    return [run_capture(model, rules, seed + i) for i in range(m)]


def model_table(model: DeviceModel) -> DnsTable:
    """DNS table preloaded with every model record (the simulated gateway
    knows all names)."""
    return DnsTable(model.topology, seed_source=SeedSource.MODEL_RECORDS,
                    entries={ip: rec_name for rec_name, ip in model.dns_records})


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


def _answers_for(model: DeviceModel, sel: DnsSelector) -> tuple:
    if sel.qtype not in ("A", "AAAA"):
        return ()
    want_v6 = sel.qtype == "AAAA"
    # record addresses are normalized literals: only IPv6 ones hold a colon
    return tuple((rec_name, ip) for rec_name, ip in model.dns_records
                 if rec_name == sel.qname and (":" in ip) == want_v6)


def _arp_dressing(model: DeviceModel) -> tuple:
    topo = model.topology
    pairs = [(topo.device_addr, topo.gateway_addr, 10_000),
             (topo.phone_addr, topo.device_addr, 20_000)]
    out = []
    for src, dst, offset in pairs:
        fields = dict(ts_us=BASE_TS_US + offset, src_addr=src, dst_addr=dst,
                      transport="arp", control_plane=True)
        out.append(ParsedPacket(**fields,
                                wire_len=frame_len(ParsedPacket(**fields))))
    return tuple(out)


def _emit_flow(model: DeviceModel, spec: FlowSpec,
               rng: random.Random) -> list:
    flow = spec.flow
    init_addr = _endpoint_addr(model, flow.initiator)
    resp_addr = _endpoint_addr(model, flow.responder)
    init_port = flow.initiator_port or rng.randint(EPHEMERAL_LO, EPHEMERAL_HI)
    resp_port = flow.responder_port or rng.randint(EPHEMERAL_LO, EPHEMERAL_HI)
    transport = flow.transport.value
    is_dns = isinstance(flow.app, DnsSelector)
    start_s = rng.uniform(0.05, 0.8) if is_dns else rng.uniform(1.0, 3.0)
    ts = BASE_TS_US + int(start_s * 1_000_000)

    sni = None
    if transport == "tcp" and flow.app is None:
        for host in (flow.responder, flow.initiator):
            if host.kind is HostKind.DOMAIN:
                sni = host.value
                break

    data = []
    for k in range(spec.shape.count):
        if k:
            ts += int(rng.uniform(0.01, 0.12) * 1_000_000)
        forward = (k % 2 == 0) if flow.direction is Direction.BIDIRECTIONAL \
            else True
        answers = ()
        if is_dns and not forward:
            answers = _answers_for(model, flow.app)
        fields = dict(
            ts_us=ts,
            src_addr=init_addr if forward else resp_addr,
            dst_addr=resp_addr if forward else init_addr,
            src_port=init_port if forward else resp_port,
            dst_port=resp_port if forward else init_port,
            transport=transport,
            app=flow.app,
            dns_answers=answers,
            sni=sni if (forward and k == 0) else None,
            control_plane=False,
            tcp_flags=(TCP_PSH | TCP_ACK) if transport == "tcp" else None,
        )
        size = spec.shape.sizes[k % len(spec.shape.sizes)]
        overhead = 14 + _ip_overhead(init_addr) + (20 if transport == "tcp"
                                                   else 8)
        wire_len = max(frame_len(ParsedPacket(**fields)), overhead + size)
        data.append(ParsedPacket(**fields, wire_len=wire_len))

    if transport != "tcp":
        return data
    return _tcp_dressing(data)


def _ip_overhead(addr: str) -> int:
    return 40 if ":" in addr else 20


def _tcp_dressing(data: list) -> list:
    """Wrap data packets in a synthetic handshake and teardown."""
    first, last = data[0], data[-1]
    step = 5_000  # microseconds

    def ctrl(template: ParsedPacket, ts: int, flags: int, forward: bool,
             wire_len: int = 0) -> ParsedPacket:
        return ParsedPacket(
            ts_us=ts,
            src_addr=template.src_addr if forward else template.dst_addr,
            dst_addr=template.dst_addr if forward else template.src_addr,
            src_port=template.src_port if forward else template.dst_port,
            dst_port=template.dst_port if forward else template.src_port,
            transport="tcp", app=None, dns_answers=(), sni=None,
            wire_len=wire_len, control_plane=True, tcp_flags=flags,
        )

    # every control segment is bare headers of the flow's address family
    size = frame_len(ctrl(first, 0, TCP_ACK, True))
    shake = [
        ctrl(first, first.ts_us - 3 * step, TCP_SYN, True, size),
        ctrl(first, first.ts_us - 2 * step, TCP_SYN | TCP_ACK, False, size),
        ctrl(first, first.ts_us - step, TCP_ACK, True, size),
    ]
    close = [
        ctrl(last, last.ts_us + step, TCP_FIN | TCP_ACK, True, size),
        ctrl(last, last.ts_us + 2 * step, TCP_ACK, False, size),
    ]
    return shake + data + close


def _strictly_increasing(packets: list) -> list:
    out = []
    prev = -1
    for pkt in packets:
        ts = max(pkt.ts_us, prev + 1)
        out.append(pkt if ts == pkt.ts_us else replace(pkt, ts_us=ts))
        prev = ts
    return out


# -- drivers and oracle -----------------------------------------------------------


class SimDriver:
    """Experiment driver backed by the simulator.

    Traces are serialized to pcap bytes and read back so profiling always
    exercises the codec path, matching what a live capture would provide.
    """

    def __init__(self, model: DeviceModel, through_pcap: bool = True):
        self.model = model
        self.through_pcap = through_pcap

    def topology(self) -> Topology:
        return self.model.topology

    def dns_seed(self) -> Dict[str, str]:
        return {ip: rec_name for rec_name, ip in self.model.dns_records}

    def run(self, rules: RuleSet, m: int, seed: int) -> List[CaptureResult]:
        results = run_experiment(self.model, rules, m, seed)
        if not self.through_pcap:
            return results
        out = []
        for result in results:
            blob = write_pcap(result.trace, self.model.topology)
            out.append(replace(result, trace=read_pcap(blob)))
        return out


def oracle_tree(model: DeviceModel, pruning: bool = True,
                max_depth: Optional[int] = None) -> SigTree:
    """Expected signature tree, computed symbolically from the model.

    Noise flows participate only when p >= 1 (present in every capture and
    therefore in every intersection); sub-certain noise never survives.
    """
    tree = SigTree(pruning=pruning)
    while (handle := tree.next_node()) is not None:
        if max_depth is not None and tree.node(handle).depth > max_depth:
            tree.prune(handle, "depth-capped")
            continue
        rules = compile_rules(tree.blocking_set(handle))
        blocked = _blocked_map(model, rules)
        certain = list(model.flows) + [s for s in model.noise if s.p >= 1.0]
        delivered = frozenset(
            s.id for s in certain if _guard_ok(s, blocked) and not blocked[s.id])
        if eval_success(model.success, delivered):
            flows = frozenset(s.flow for s in certain if s.id in delivered)
            tree.add_children(handle, EventSignature(flows=flows, m=1, m_plus=1))
        elif handle == tree.root:
            raise RootFailed(f"model {model.name!r} cannot succeed unblocked")
        else:
            tree.mark_failed(handle)
    return tree
