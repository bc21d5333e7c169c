"""Deny-list rules: compilation from FlowIds, matching, text grammar.

A rule mirrors a FlowId (lossless in both directions for compiled rules).
Unspecified rule ports are wildcards; a rule with no matchers places no
constraint on the application selector.  The text grammar is line-oriented
and bit-exact:

    block <tcp|udp> init <host>[:<port>] resp <host>[:<port>] dir <uni|bi>
        [match <key>=<value>]*

with full-line '#' comments and '\\n' terminators.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Optional

from .core import (
    ADDRESS_CACHE_SIZE,
    AppSelector,
    CoapSelector,
    Direction,
    DnsSelector,
    FlowId,
    HostKind,
    HostRef,
    HttpSelector,
    ParsedPacket,
    Topology,
    Transport,
    canonicalize,
    sorted_flows,
)
from .signature import DnsTable, name_endpoints

MATCHER_KEYS = (
    "dns.qtype", "dns.qname",
    "http.method", "http.uri", "http.is_response",
    "coap.type", "coap.code", "coap.uri_path",
)


class RuleSyntaxError(ValueError):
    """Unparseable rule text; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Rule:
    """One deny rule; field-for-field image of a FlowId."""

    transport: Transport
    init_host: HostRef
    resp_host: HostRef
    init_port: Optional[int] = None
    resp_port: Optional[int] = None
    direction: Direction = Direction.BIDIRECTIONAL
    matchers: tuple = ()

    def __post_init__(self):
        seen = set()
        for key, value in self.matchers:
            if key not in MATCHER_KEYS:
                raise ValueError(f"unknown matcher key {key!r}")
            if key in seen:
                raise ValueError(f"duplicate matcher key {key!r}")
            if any(c.isspace() for c in value):
                raise ValueError(f"matcher value may not contain spaces: {value!r}")
            seen.add(key)
        for port in (self.init_port, self.resp_port):
            if port is not None and not (1 <= port <= 65535):
                raise ValueError(f"port {port} out of range")

    @staticmethod
    def from_flow(flow: FlowId) -> "Rule":
        return Rule(
            transport=flow.transport,
            init_host=flow.initiator,
            resp_host=flow.responder,
            init_port=flow.initiator_port,
            resp_port=flow.responder_port,
            direction=flow.direction,
            matchers=_matchers_from_app(flow.app),
        )

    def to_flow(self) -> FlowId:
        """Reconstruct the FlowId image; requires a complete matcher set."""
        return FlowId(
            initiator=self.init_host,
            responder=self.resp_host,
            initiator_port=self.init_port,
            responder_port=self.resp_port,
            transport=self.transport,
            direction=self.direction,
            app=_app_from_matchers(self.matchers),
        )

    def render(self) -> str:
        parts = [
            "block", self.transport.value,
            "init", _host_port(self.init_host, self.init_port),
            "resp", _host_port(self.resp_host, self.resp_port),
            "dir", self.direction.value,
        ]
        for key, value in self.matchers:
            parts.append("match")
            parts.append(f"{key}={value}")
        return " ".join(parts)


def _host_port(host: HostRef, port: Optional[int]) -> str:
    token = host.token()
    return f"{token}:{port}" if port is not None else token


def _matchers_from_app(app: AppSelector) -> tuple:
    if app is None:
        return ()
    if isinstance(app, DnsSelector):
        return (("dns.qtype", app.qtype), ("dns.qname", app.qname))
    if isinstance(app, HttpSelector):
        return (
            ("http.method", app.method),
            ("http.uri", app.uri),
            ("http.is_response", "true" if app.is_response else "false"),
        )
    if isinstance(app, CoapSelector):
        return (
            ("coap.type", app.type),
            ("coap.code", app.code),
            ("coap.uri_path", app.uri_path),
        )
    raise TypeError(f"not an app selector: {app!r}")


def _app_from_matchers(matchers: tuple) -> AppSelector:
    by_key = dict(matchers)
    if not by_key:
        return None
    protos = {key.split(".")[0] for key in by_key}
    if len(protos) != 1:
        raise ValueError("matchers span multiple protocols")
    proto = protos.pop()
    if proto == "dns":
        return DnsSelector(qtype=by_key["dns.qtype"], qname=by_key["dns.qname"])
    if proto == "http":
        return HttpSelector(
            method=by_key.get("http.method", ""),
            uri=by_key.get("http.uri", ""),
            is_response=by_key.get("http.is_response", "false") == "true",
        )
    return CoapSelector(
        type=by_key["coap.type"],
        code=by_key["coap.code"],
        uri_path=by_key.get("coap.uri_path", ""),
    )


def _app_field(app: AppSelector, key: str) -> Optional[str]:
    """Value of one matcher key for a selector, or None when absent."""
    if isinstance(app, DnsSelector):
        fields = {"dns.qtype": app.qtype, "dns.qname": app.qname}
    elif isinstance(app, HttpSelector):
        fields = {
            "http.method": app.method,
            "http.uri": app.uri,
            "http.is_response": "true" if app.is_response else "false",
        }
    elif isinstance(app, CoapSelector):
        fields = {
            "coap.type": app.type,
            "coap.code": app.code,
            "coap.uri_path": app.uri_path,
        }
    else:
        return None
    return fields.get(key)


def _matchers_hit(matchers: tuple, app: AppSelector) -> bool:
    return all(_app_field(app, key) == value for key, value in matchers)


@dataclass(frozen=True)
class RuleSet:
    """Deduplicated rule collection in one canonical (rendered-line) order."""

    rules: tuple = ()

    def __post_init__(self):
        unique = {}
        for rule in self.rules:
            unique.setdefault(rule.render(), rule)
        ordered = tuple(unique[line] for line in sorted(unique))
        object.__setattr__(self, "rules", ordered)

    def __iter__(self):
        return iter(self.rules)

    def __len__(self):
        return len(self.rules)


def compile_rules(flows: Iterable[FlowId]) -> RuleSet:
    """One rule per FlowId, canonicalized; deterministic order."""
    canon = [canonicalize(f) for f in flows]
    return RuleSet(tuple(Rule.from_flow(f) for f in sorted_flows(set(canon))))


# -- matching -------------------------------------------------------------------


def matches_flow(rules: RuleSet, flow: FlowId) -> bool:
    """True iff some rule's FlowId image equals the flow on all specified
    fields; unspecified rule ports and an empty matcher list are wildcards.
    Bidirectional rules match either endpoint orientation."""
    flow = canonicalize(flow)
    return any(_rule_matches_flow(rule, flow) for rule in rules)

def _rule_matches_flow(rule: Rule, flow: FlowId) -> bool:
    if rule.transport is not flow.transport:
        return False
    if rule.direction is not flow.direction:
        return False
    if not _matchers_hit(rule.matchers, flow.app):
        return False
    orientations = [
        (flow.initiator, flow.initiator_port, flow.responder, flow.responder_port)
    ]
    if rule.direction is Direction.BIDIRECTIONAL:
        orientations.append(
            (flow.responder, flow.responder_port, flow.initiator,
             flow.initiator_port)
        )
    for init, init_port, resp, resp_port in orientations:
        if (
            init == rule.init_host
            and resp == rule.resp_host
            and _port_ok(rule.init_port, init_port)
            and _port_ok(rule.resp_port, resp_port)
        ):
            return True
    return False


def _port_ok(rule_port: Optional[int], flow_port: Optional[int]) -> bool:
    return rule_port is None or rule_port == flow_port


_PACKET_TRANSPORTS = {t.value: t for t in Transport}


def matches_packet(rules: RuleSet, packet: ParsedPacket, table: DnsTable,
                   topo: Topology) -> bool:
    """Packet-level verdict with endpoints resolved through the DNS table.

    A Domain host matches any address the table maps to it; an Address host
    matches the literal regardless of naming.  DNS responses carry their
    question identity, so a rule with DNS matchers also matches the response
    paired to a matching query.
    """
    transport = _PACKET_TRANSPORTS.get(packet.transport)
    if transport is None:
        return False
    src_ref, dst_ref = name_endpoints(packet, table, topo)
    forward = (src_ref, packet.src_addr, packet.src_port,
               dst_ref, packet.dst_addr, packet.dst_port)
    backward = (dst_ref, packet.dst_addr, packet.dst_port,
                src_ref, packet.src_addr, packet.src_port)
    for rule in rules:
        if rule.transport is not transport:
            continue
        if not _matchers_hit(rule.matchers, packet.app):
            continue
        if _rule_hits_endpoints(rule, *forward):
            return True
        if rule.direction is Direction.BIDIRECTIONAL \
                and _rule_hits_endpoints(rule, *backward):
            return True
    return False


def _rule_hits_endpoints(rule: Rule, iref: HostRef, iaddr: str, iport,
                         rref: HostRef, raddr: str, rport) -> bool:
    return (_port_ok(rule.init_port, iport)
            and _port_ok(rule.resp_port, rport)
            and _host_hits(rule.init_host, iref, iaddr)
            and _host_hits(rule.resp_host, rref, raddr))


def _host_hits(rule_host: HostRef, ref: HostRef, raw_addr: str) -> bool:
    if rule_host == ref:
        return True
    return rule_host.kind is HostKind.ADDRESS and \
        _address_ref(raw_addr) == rule_host


@functools.lru_cache(maxsize=ADDRESS_CACHE_SIZE)
def _address_ref(raw_addr: str) -> Optional[HostRef]:
    """HostRef.address(raw_addr), or None when it is no unicast literal."""
    try:
        return HostRef.address(raw_addr)
    except ValueError:
        return None


# -- text grammar -----------------------------------------------------------------


def render(rules: RuleSet) -> str:
    """One line per rule, sorted, newline-terminated."""
    return "".join(rule.render() + "\n" for rule in rules)


def parse(text: str) -> RuleSet:
    rules = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rules.append(_parse_line(lineno, line))
    return RuleSet(tuple(rules))


def _parse_line(lineno: int, line: str) -> Rule:
    tokens = line.split()
    pos = 0

    def take(expected: str = None) -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise RuleSyntaxError(lineno, "unexpected end of rule")
        token = tokens[pos]
        pos += 1
        if expected is not None and token != expected:
            raise RuleSyntaxError(lineno, f"expected {expected!r}, got {token!r}")
        return token

    take("block")
    transport = take()
    if transport not in ("tcp", "udp"):
        raise RuleSyntaxError(lineno, f"unknown transport {transport!r}")
    take("init")
    init_host, init_port = _parse_host_port(lineno, take())
    take("resp")
    resp_host, resp_port = _parse_host_port(lineno, take())
    take("dir")
    direction = take()
    if direction not in ("uni", "bi"):
        raise RuleSyntaxError(lineno, f"unknown direction {direction!r}")
    matchers = []
    seen = set()
    while pos < len(tokens):
        take("match")
        pair = take()
        if "=" not in pair:
            raise RuleSyntaxError(lineno, f"matcher {pair!r} is not key=value")
        key, value = pair.split("=", 1)
        if key not in MATCHER_KEYS:
            raise RuleSyntaxError(lineno, f"unknown matcher key {key!r}")
        if key in seen:
            raise RuleSyntaxError(lineno, f"duplicate matcher key {key!r}")
        seen.add(key)
        matchers.append((key, value))
    matchers.sort(key=lambda kv: MATCHER_KEYS.index(kv[0]))
    try:
        return Rule(
            transport=Transport(transport),
            init_host=init_host,
            resp_host=resp_host,
            init_port=init_port,
            resp_port=resp_port,
            direction=Direction.BIDIRECTIONAL if direction == "bi"
            else Direction.UNIDIRECTIONAL,
            matchers=tuple(matchers),
        )
    except ValueError as exc:
        raise RuleSyntaxError(lineno, str(exc)) from exc


def _parse_host_port(lineno: int, token: str):
    try:
        return HostRef.from_token(token), None
    except ValueError:
        pass
    host_part, sep, port_part = token.rpartition(":")
    if sep and port_part.isdigit():
        try:
            host = HostRef.from_token(host_part)
        except ValueError as exc:
            raise RuleSyntaxError(lineno, f"bad host {token!r}: {exc}") from exc
        port = int(port_part)
        if not (1 <= port <= 65535):
            raise RuleSyntaxError(lineno, f"port {port} out of range")
        return host, port
    raise RuleSyntaxError(lineno, f"bad host {token!r}")
