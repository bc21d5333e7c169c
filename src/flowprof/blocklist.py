"""Deny-list rules: compilation from FlowIds, matching, text grammar.

A rule is a FlowId pattern plus application matchers; a rule compiled from
a flow names every field of it.  Unspecified rule ports are wildcards; a
rule with no matchers places no constraint on the application selector.
The text grammar is line-oriented and bit-exact:

    block <tcp|udp> init <host>[:<port>] resp <host>[:<port>] dir <uni|bi>
        [match <key>=<value>]*

with full-line '#' comments and '\\n' terminators.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields, replace
from typing import Iterable, Optional

from .core import (
    ADDRESS_CACHE_SIZE,
    COAP_CODES,
    COAP_TYPES,
    HTTP_METHODS,
    SELECTORS,
    AppSelector,
    Direction,
    FlowId,
    HostKind,
    HostRef,
    ParsedPacket,
    Transport,
    app_items,
    canonicalize,
    qtype_code,
)
from .signature import DnsTable, name_endpoints

MATCHER_KEYS = tuple(f"{proto}.{f.name}" for proto, cls in SELECTORS.items()
                     for f in fields(cls))
# the values of bool and coded matchers, from core's tables (qtype_code
# checks a dns.qtype value); an HTTP response has the empty method
_MATCHER_VALUES = {f"{proto}.{f.name}": ("true", "false") for proto, cls
                   in SELECTORS.items() for f in fields(cls) if f.type == "bool"}
_MATCHER_VALUES.update({"http.method": ("",) + HTTP_METHODS,
                        "coap.type": COAP_TYPES, "coap.code": COAP_CODES})


class RuleSyntaxError(ValueError):
    """Unparseable rule text; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Rule:
    """One deny rule: a flow pattern and the application matchers.

    The pattern is a FlowId without app; a None port is a wildcard.  The
    matchers are (key, value text) pairs kept in MATCHER_KEYS order; none
    places no constraint on the application selector."""

    pattern: FlowId
    matchers: tuple = ()

    def __post_init__(self):
        if self.pattern.app is not None:
            raise ValueError("a rule pattern carries no app selector")
        seen = set()
        for key, value in self.matchers:
            if key not in MATCHER_KEYS:
                raise ValueError(f"unknown matcher key {key!r}")
            if key in seen:
                raise ValueError(f"duplicate matcher key {key!r}")
            if any(c.isspace() for c in value):
                raise ValueError(f"matcher value may not contain spaces: {value!r}")
            if key == "dns.qtype":
                qtype_code(value)
            elif key in _MATCHER_VALUES and value not in _MATCHER_VALUES[key]:
                raise ValueError(f"matcher {key} cannot be {value!r}")
            seen.add(key)
        object.__setattr__(self, "matchers", tuple(sorted(
            self.matchers, key=lambda kv: MATCHER_KEYS.index(kv[0]))))

    @staticmethod
    def from_flow(flow: FlowId) -> "Rule":
        return Rule(replace(flow, app=None), _matchers(flow.app))

    def render(self) -> str:
        pattern = self.pattern
        parts = [
            "block", pattern.transport.value,
            "init", _host_port(pattern.initiator, pattern.initiator_port),
            "resp", _host_port(pattern.responder, pattern.responder_port),
            "dir", pattern.direction.value,
        ]
        for key, value in self.matchers:
            parts.append("match")
            parts.append(f"{key}={value}")
        return " ".join(parts)


def _host_port(host: HostRef, port: Optional[int]) -> str:
    token = host.token()
    return f"{token}:{port}" if port is not None else token


def _matchers(app: AppSelector) -> tuple:
    """(key, value text) matchers naming every field of a selector."""
    if app is None:
        return ()
    proto, items = app_items(app)
    return tuple((f"{proto}.{name}", _text(value)) for name, value in items)


def _text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return value


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


def compile_rules(flows: Iterable[FlowId]) -> RuleSet:
    """One rule per distinct canonical FlowId, in RuleSet order."""
    return RuleSet(tuple(Rule.from_flow(canonicalize(f)) for f in flows))


# -- matching -------------------------------------------------------------------


def matches_flow(rules: RuleSet, packets: Iterable[ParsedPacket],
                 table: DnsTable) -> bool:
    """True iff the rules drop one of a flow's packets whatever ports a
    capture draws.  `packets` are the flow's distinct packets, a port left
    None standing for a drawn one: no pinned rule port matches it, while
    an unspecified rule port does."""
    return any(matches_packet(rules, packet, table) for packet in packets)


_PACKET_TRANSPORTS = {t.value: t for t in Transport}


def matches_packet(rules: RuleSet, packet: ParsedPacket,
                   table: DnsTable) -> bool:
    """Packet-level verdict with endpoints resolved through the DNS table.

    A Domain host matches any address the table maps to it; an Address host
    matches the literal regardless of naming.  DNS responses carry their
    question identity, so a rule with DNS matchers also matches the response
    paired to a matching query.
    """
    transport = _PACKET_TRANSPORTS.get(packet.transport)
    if transport is None:
        return False
    src_ref, dst_ref = name_endpoints(packet, table)
    return _rules_hit(rules, transport, packet.app,
                      (src_ref, packet.src_addr, packet.src_port),
                      (dst_ref, packet.dst_addr, packet.dst_port))


def could_match_packet(rules: RuleSet, packet: ParsedPacket,
                       table: DnsTable) -> bool:
    """Port-free packet verdict: some rule matches the packet's transport,
    app and named endpoints in either orientation, whatever its ports.  So
    when it is false, matches_packet is false for every pair of ports, and
    a flow whose packets it all refuses loses none at any drawn port."""
    transport = _PACKET_TRANSPORTS.get(packet.transport)
    if transport is None:
        return False
    src_ref, dst_ref = name_endpoints(packet, table)
    return _rules_hit(rules, transport, packet.app,
                      (src_ref, packet.src_addr, None),
                      (dst_ref, packet.dst_addr, None), ports=False)


def _rules_hit(rules, transport: Transport, app: AppSelector, init: tuple,
               resp: tuple, ports: bool = True) -> bool:
    """The rule loop of the packet verdicts.  `init` and `resp` are (host
    ref, raw address or None, port) ends; they are also tried swapped when
    the rule is bidirectional.  Without `ports`, every rule port is taken
    as a wildcard and both orientations are tried."""
    app_matchers = None
    for rule in rules:
        pattern = rule.pattern
        if pattern.transport is not transport:
            continue
        if rule.matchers:
            if app_matchers is None:
                app_matchers = set(_matchers(app))
            if not app_matchers.issuperset(rule.matchers):
                continue
        init_port, resp_port = (pattern.initiator_port,
                                pattern.responder_port) if ports else (None, None)
        if _end_hits(pattern.initiator, init_port, init) \
                and _end_hits(pattern.responder, resp_port, resp):
            return True
        if (not ports or pattern.direction is Direction.BIDIRECTIONAL) \
                and _end_hits(pattern.initiator, init_port, resp) \
                and _end_hits(pattern.responder, resp_port, init):
            return True
    return False


def _end_hits(host: HostRef, port: Optional[int], end: tuple) -> bool:
    ref, raw_addr, end_port = end
    if port is not None and port != end_port:
        return False
    return host == ref or (raw_addr is not None
                           and host.kind is HostKind.ADDRESS
                           and _address_ref(raw_addr) == host)


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
    keywords = ["block", "init", "resp", "dir"] + ["match"] * len(tokens)
    for token, keyword in zip(tokens[::2], keywords):
        if token != keyword:
            raise RuleSyntaxError(lineno, f"expected {keyword!r}, got {token!r}")
    if len(tokens) < 8 or len(tokens) % 2:
        raise RuleSyntaxError(lineno, "unexpected end of rule")
    matchers = []
    for pair in tokens[9::2]:
        key, sep, value = pair.partition("=")
        if not sep:
            raise RuleSyntaxError(lineno, f"matcher {pair!r} is not key=value")
        matchers.append((key, value))
    try:
        initiator, initiator_port = _parse_host_port(tokens[3])
        responder, responder_port = _parse_host_port(tokens[5])
        pattern = FlowId(initiator, responder, initiator_port, responder_port,
                         Transport(tokens[1]), Direction(tokens[7]))
        return Rule(pattern, tuple(matchers))
    except ValueError as exc:
        raise RuleSyntaxError(lineno, str(exc)) from exc


def _parse_host_port(token: str) -> tuple:
    """(host, port or None) of a `<host>[:<port>]` token; raises ValueError."""
    try:
        return HostRef.from_token(token), None
    except ValueError:
        host, sep, port = token.rpartition(":")
        if not (sep and port.isdigit()):
            raise
    return HostRef.from_token(host), int(port)
