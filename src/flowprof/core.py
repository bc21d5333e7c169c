"""Shared domain model: host references, flow identifiers, packet records.

Everything downstream (aggregation, blocking rules, tree search, the simulator)
speaks in terms of these types.  A FlowId is a multi-layer, bidirectional flow
descriptor; its canonical JSON serialization doubles as equality/sort key and
as the on-disk representation inside signature and tree files.
"""

from __future__ import annotations

import functools
import ipaddress
import json
import logging
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Union

log = logging.getLogger(__name__)

ROLES = ("device", "phone", "gateway")
BROADCAST_ADDR = "255.255.255.255"

_LABEL_RE = re.compile(r"^[a-z0-9_-]+$")
_QTYPE_RE = re.compile(r"^[A-Z][A-Z0-9]*$")
_METHOD_RE = re.compile(r"^[A-Z]+$")
_COAP_CODE_RE = re.compile(r"^([A-Z]+|\d\.\d\d)$")

# Entries kept by each per-address memo on the packet path.  A capture set
# names a few dozen addresses; the bound only matters for inputs that touch
# thousands of hosts, where the least recently used entries are dropped.
ADDRESS_CACHE_SIZE = 4096


def is_valid_domain(name: str) -> bool:
    """Lowercase dot-separated labels, letters/digits/hyphen/underscore."""
    if not name or len(name) > 253:
        return False
    return all(_LABEL_RE.match(label) for label in name.split("."))


def normalize_address(text: str) -> str:
    """Canonical textual form of an IPv4/IPv6 literal; raises ValueError."""
    return str(ipaddress.ip_address(text))


class HostKind(str, Enum):
    ROLE = "role"
    DOMAIN = "domain"
    ADDRESS = "address"
    BROADCAST = "broadcast"
    MULTICAST = "multicast"


@dataclass(frozen=True, order=True)
class HostRef:
    """One endpoint of a flow: a topology role, a DNS name, or an address.

    The textual token form (`device`, `dom:api.example.com`, `ip:10.0.0.8`,
    `broadcast`, `multicast:224.0.0.251`) is the canonical serialization used
    in flow JSON and in the deny-list rule grammar.
    """

    kind: HostKind
    value: str

    def __post_init__(self):
        if self.kind is HostKind.ROLE:
            if self.value not in ROLES:
                raise ValueError(f"unknown role {self.value!r}")
        elif self.kind is HostKind.DOMAIN:
            if not is_valid_domain(self.value):
                raise ValueError(f"invalid domain name {self.value!r}")
        elif self.kind is HostKind.BROADCAST:
            if self.value != BROADCAST_ADDR:
                raise ValueError("broadcast ref must be 255.255.255.255")
        elif self.kind is HostKind.MULTICAST:
            addr = ipaddress.ip_address(self.value)
            if not addr.is_multicast:
                raise ValueError(f"{self.value} is not a multicast group")
            object.__setattr__(self, "value", str(addr))
        elif self.kind is HostKind.ADDRESS:
            addr = ipaddress.ip_address(self.value)
            if addr.is_multicast or str(addr) == BROADCAST_ADDR:
                raise ValueError(f"{self.value} needs a broadcast/multicast ref")
            object.__setattr__(self, "value", str(addr))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def role(name: str) -> "HostRef":
        return HostRef(HostKind.ROLE, name)

    @staticmethod
    def domain(name: str) -> "HostRef":
        return HostRef(HostKind.DOMAIN, name)

    @staticmethod
    def address(addr: str) -> "HostRef":
        return HostRef(HostKind.ADDRESS, addr)

    @staticmethod
    def broadcast() -> "HostRef":
        return HostRef(HostKind.BROADCAST, BROADCAST_ADDR)

    @staticmethod
    def multicast(group: str) -> "HostRef":
        return HostRef(HostKind.MULTICAST, group)

    # -- serialization -----------------------------------------------------

    def token(self) -> str:
        if self.kind is HostKind.ROLE:
            return self.value
        if self.kind is HostKind.BROADCAST:
            return "broadcast"
        if self.kind is HostKind.MULTICAST:
            return f"multicast:{self.value}"
        if self.kind is HostKind.DOMAIN:
            return f"dom:{self.value}"
        # IPv6 literals are bracketed so a :port suffix stays unambiguous.
        if ":" in self.value:
            return f"ip:[{self.value}]"
        return f"ip:{self.value}"

    @staticmethod
    def from_token(token: str) -> "HostRef":
        if token in ROLES:
            return HostRef.role(token)
        if token == "broadcast":
            return HostRef.broadcast()
        if token.startswith("multicast:"):
            return HostRef.multicast(token[len("multicast:"):])
        if token.startswith("dom:"):
            return HostRef.domain(token[len("dom:"):])
        if token.startswith("ip:"):
            addr = token[len("ip:"):]
            if addr.startswith("[") and addr.endswith("]"):
                addr = addr[1:-1]
            return HostRef.address(addr)
        raise ValueError(f"unknown host token {token!r}")

    def display(self) -> str:
        """Bare human-readable value (role name, domain, or address)."""
        if self.kind is HostKind.BROADCAST:
            return BROADCAST_ADDR
        return self.value


class Transport(str, Enum):
    TCP = "tcp"
    UDP = "udp"


class Direction(str, Enum):
    BIDIRECTIONAL = "bi"
    UNIDIRECTIONAL = "uni"


# -- application selectors --------------------------------------------------


@dataclass(frozen=True)
class DnsSelector:
    """DNS question identity: query type token and query name."""

    qtype: str
    qname: str

    def __post_init__(self):
        if not _QTYPE_RE.match(self.qtype):
            raise ValueError(f"bad DNS qtype token {self.qtype!r}")
        if not is_valid_domain(self.qname):
            raise ValueError(f"bad DNS qname {self.qname!r}")


@dataclass(frozen=True)
class HttpSelector:
    """HTTP request-line identity; responses carry only the is_response bit."""

    method: str = ""
    uri: str = ""
    is_response: bool = False

    def __post_init__(self):
        if self.method and not _METHOD_RE.match(self.method):
            raise ValueError(f"bad HTTP method {self.method!r}")
        if self.uri and (not self.uri.startswith("/") or _has_space(self.uri)):
            raise ValueError(f"bad HTTP uri {self.uri!r}")


@dataclass(frozen=True)
class CoapSelector:
    """CoAP message identity: type (CON/NON/ACK/RST), code, Uri-Path."""

    type: str
    code: str
    uri_path: str = ""

    def __post_init__(self):
        if self.type not in ("CON", "NON", "ACK", "RST"):
            raise ValueError(f"bad CoAP type {self.type!r}")
        if not _COAP_CODE_RE.match(self.code):
            raise ValueError(f"bad CoAP code {self.code!r}")
        if self.uri_path and (
            not self.uri_path.startswith("/") or _has_space(self.uri_path)
        ):
            raise ValueError(f"bad CoAP uri_path {self.uri_path!r}")


def _has_space(s: str) -> bool:
    return any(c.isspace() for c in s)


AppSelector = Union[DnsSelector, HttpSelector, CoapSelector, None]


def app_to_obj(app: AppSelector):
    if app is None:
        return None
    if isinstance(app, DnsSelector):
        return {"proto": "dns", "qtype": app.qtype, "qname": app.qname}
    if isinstance(app, HttpSelector):
        return {
            "proto": "http",
            "method": app.method,
            "uri": app.uri,
            "is_response": app.is_response,
        }
    if isinstance(app, CoapSelector):
        return {
            "proto": "coap",
            "type": app.type,
            "code": app.code,
            "uri_path": app.uri_path,
        }
    raise TypeError(f"not an app selector: {app!r}")


def app_from_obj(obj) -> AppSelector:
    if obj is None:
        return None
    if not isinstance(obj, dict):
        raise ValueError("app selector must be an object or null")
    proto = obj.get("proto")
    if proto == "dns":
        return DnsSelector(qtype=obj["qtype"], qname=obj["qname"])
    if proto == "http":
        return HttpSelector(
            method=obj.get("method", ""),
            uri=obj.get("uri", ""),
            is_response=bool(obj.get("is_response", False)),
        )
    if proto == "coap":
        return CoapSelector(
            type=obj["type"], code=obj["code"], uri_path=obj.get("uri_path", "")
        )
    raise ValueError(f"unknown app selector protocol {proto!r}")


# -- flow identifiers --------------------------------------------------------


@dataclass(frozen=True)
class FlowId:
    """Multi-layer bidirectional flow descriptor.

    Ports are optional: an absent port means the slot was dropped by the
    cross-capture retention rule (ephemeral).  `app` refines the flow with
    protocol identity per the supported selector set.
    """

    initiator: HostRef
    responder: HostRef
    initiator_port: Optional[int] = None
    responder_port: Optional[int] = None
    transport: Transport = Transport.TCP
    direction: Direction = Direction.BIDIRECTIONAL
    app: AppSelector = None

    def __post_init__(self):
        for port in (self.initiator_port, self.responder_port):
            if port is not None and not (1 <= port <= 65535):
                raise ValueError(f"port {port} out of range")
        if isinstance(self.app, DnsSelector):
            if self.transport is not Transport.UDP:
                raise ValueError("DNS flows are UDP")
            if self.responder_port not in (None, 53, 5353):
                raise ValueError("DNS responder port must be 53 or 5353")

    def to_obj(self) -> dict:
        return {
            "initiator": self.initiator.token(),
            "responder": self.responder.token(),
            "initiator_port": self.initiator_port,
            "responder_port": self.responder_port,
            "transport": self.transport.value,
            "direction": self.direction.value,
            "app": app_to_obj(self.app),
        }

    def canonical_json(self) -> str:
        """Exact serialization used as sort/tie-break key and export format."""
        return json.dumps(self.to_obj(), separators=(",", ":"), ensure_ascii=True)

    @staticmethod
    def from_obj(obj: dict) -> "FlowId":
        if not isinstance(obj, dict):
            raise ValueError("flow must be an object")
        try:
            return FlowId(
                initiator=HostRef.from_token(obj["initiator"]),
                responder=HostRef.from_token(obj["responder"]),
                initiator_port=obj.get("initiator_port"),
                responder_port=obj.get("responder_port"),
                transport=Transport(obj.get("transport", "tcp")),
                direction=Direction(obj.get("direction", "bi")),
                app=app_from_obj(obj.get("app")),
            )
        except KeyError as exc:
            raise ValueError(f"flow object missing field {exc.args[0]!r}") from exc

    def describe(self) -> str:
        """Compact human-readable label (used in DOT output)."""
        arrow = "<->" if self.direction is Direction.BIDIRECTIONAL else "->"
        left = self.initiator.display()
        if self.initiator_port is not None:
            left += f":{self.initiator_port}"
        right = self.responder.display()
        if self.responder_port is not None:
            right += f":{self.responder_port}"
        tag = self.transport.value.upper()
        if isinstance(self.app, DnsSelector):
            tag += f" DNS {self.app.qtype} {self.app.qname}"
        elif isinstance(self.app, HttpSelector):
            if self.app.is_response:
                tag += " HTTP response"
            else:
                tag += f" HTTP {self.app.method} {self.app.uri}"
        elif isinstance(self.app, CoapSelector):
            tag += f" CoAP {self.app.type} {self.app.code} {self.app.uri_path}"
        return f"{left} {arrow} {right} [{tag}]"


def flow_sort_key(flow: FlowId) -> str:
    return flow.canonical_json()


def sorted_flows(flows) -> list:
    return sorted(flows, key=flow_sort_key)


# -- topology ----------------------------------------------------------------


@dataclass(frozen=True)
class Topology:
    """LAN layout: the three role addresses plus the local prefixes."""

    device_addr: str
    phone_addr: str
    gateway_addr: str
    local_prefixes: tuple = ("192.168.0.0/16",)

    def __post_init__(self):
        addrs = {}
        for name in ROLES:
            raw = getattr(self, name + "_addr")
            norm = normalize_address(raw)
            object.__setattr__(self, name + "_addr", norm)
            addrs[name] = norm
        if len(set(addrs.values())) != 3:
            raise ValueError("role addresses must be distinct")
        nets = tuple(
            ipaddress.ip_network(p, strict=False) for p in self.local_prefixes
        )
        if not nets:
            raise ValueError("at least one local prefix required")
        object.__setattr__(
            self, "local_prefixes", tuple(str(n) for n in nets)
        )
        object.__setattr__(self, "_networks", nets)
        for name, addr in addrs.items():
            if not self.is_local(addr):
                raise ValueError(f"{name} address {addr} outside local prefixes")
        for i, a in enumerate(nets):
            for b in nets[i + 1:]:
                if a.version == b.version and a.overlaps(b):
                    log.warning("local prefixes %s and %s overlap", a, b)

    def is_local(self, addr: str) -> bool:
        return _is_local(self._networks, addr)

    def role_of(self, addr: str) -> Optional[str]:
        for name in ROLES:
            if getattr(self, name + "_addr") == addr:
                return name
        return None

    def addr_of(self, role: str) -> str:
        if role not in ROLES:
            raise ValueError(f"unknown role {role!r}")
        return getattr(self, role + "_addr")

    def to_obj(self) -> dict:
        return {
            "device": self.device_addr,
            "phone": self.phone_addr,
            "gateway": self.gateway_addr,
            "local_prefixes": list(self.local_prefixes),
        }

    @staticmethod
    def from_obj(obj: dict) -> "Topology":
        return Topology(
            device_addr=obj["device"],
            phone_addr=obj["phone"],
            gateway_addr=obj["gateway"],
            local_prefixes=tuple(obj.get("local_prefixes", ("192.168.0.0/16",))),
        )


@functools.lru_cache(maxsize=ADDRESS_CACHE_SIZE)
def _is_local(networks: tuple, addr: str) -> bool:
    try:
        ip = ipaddress.ip_address(addr)
    except ValueError:
        return False
    return any(ip.version == net.version and ip in net for net in networks)


# -- canonical orientation ----------------------------------------------------


def _endpoint_key(ref: HostRef, port: Optional[int]):
    return (ref.token(), -1 if port is None else port)


def canonicalize(flow: FlowId, topo: Optional[Topology] = None) -> FlowId:
    """Deterministic orientation for bidirectional flows.

    The device role occupies the initiator slot when exactly one endpoint is
    the device; otherwise endpoints order lexicographically on their serialized
    form.  Unidirectional flows are never reoriented (the direction is the
    identity), and neither are DNS flows (the question orients the client
    toward the resolver).  Ports travel with their endpoint.  Idempotent; the
    topology is accepted for signature stability but orientation needs no
    resolution.
    """
    del topo
    if flow.direction is Direction.UNIDIRECTIONAL:
        return flow
    if isinstance(flow.app, DnsSelector):
        return flow
    a_dev = flow.initiator.kind is HostKind.ROLE and flow.initiator.value == "device"
    b_dev = flow.responder.kind is HostKind.ROLE and flow.responder.value == "device"
    if a_dev and not b_dev:
        swap = False
    elif b_dev and not a_dev:
        swap = True
    else:
        swap = _endpoint_key(flow.responder, flow.responder_port) < _endpoint_key(
            flow.initiator, flow.initiator_port
        )
    if not swap:
        return flow
    return FlowId(
        initiator=flow.responder,
        responder=flow.initiator,
        initiator_port=flow.responder_port,
        responder_port=flow.initiator_port,
        transport=flow.transport,
        direction=flow.direction,
        app=flow.app,
    )


# -- parsed packets -----------------------------------------------------------


@dataclass(frozen=True)
class ParsedPacket:
    """Transport-level view of one captured frame.

    `transport` is a lowercase token: "tcp", "udp", or a degraded label such
    as "arp", "icmp", "ip-proto-47" for frames the dissector cannot refine.
    `dns_answers` holds (name, address) pairs when the packet is a DNS
    response; `sni` is the TLS ClientHello server name when present.
    """

    ts_us: int
    src_addr: str
    dst_addr: str
    src_port: Optional[int] = None
    dst_port: Optional[int] = None
    transport: str = "tcp"
    app: AppSelector = None
    dns_answers: tuple = ()
    sni: Optional[str] = None
    wire_len: int = 0
    control_plane: bool = False
    tcp_flags: Optional[int] = None
