"""Shared domain model: host references, flow identifiers, packet records.

Everything downstream (aggregation, blocking rules, tree search, the simulator)
speaks in terms of these types.  A FlowId is a multi-layer, bidirectional flow
descriptor and, being frozen, its own identity in sets and dicts; its
canonical JSON serialization is the sort key and the on-disk representation
inside signature and tree files.

FlowId and HostRef compute their hash once, when built, and a FlowId encodes
its canonical JSON once, on first use; both are kept on the instance.  Build
them only through their constructors or `dataclasses.replace` (copy and
pickle go through the constructor too): a field changed in place would leave
both stale.
"""

from __future__ import annotations

import functools
import ipaddress
import json
import logging
import re
import reprlib
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from typing import Callable, NamedTuple, Optional, Tuple, Union

log = logging.getLogger(__name__)

ROLES = ("device", "phone", "gateway")
# (role, its Topology attribute): constant names, since the type's attribute
# cache keeps each name it is asked for
_ROLE_ATTRS = tuple(zip(ROLES, ("device_addr", "phone_addr", "gateway_addr")))
BROADCAST_ADDR = "255.255.255.255"
# UDP ports that carry DNS: unicast DNS and multicast DNS
DNS_PORTS = (53, 5353)

_LABEL_RE = re.compile(r"^[a-z0-9_-]+$")

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


# -- JSON input ---------------------------------------------------------------

# Every JSON input (model, tree, flows file, manifest) is read by read_json
# and its fields by check and member, which refuse a value of the wrong JSON
# type with a SchemaError naming its path, like flows[2].flow.initiator.
_KIND_NAMES = {str: "a string", int: "an integer", (int, float): "a number",
               bool: "true or false", list: "a list", dict: "an object"}


class SchemaError(ValueError):
    """An input document violates its schema."""


def read_json(build: Callable, what: str, path=None, text=None):
    """build(document) for the JSON in the file at `path`, or in `text`; a
    failure to read, decode or build it is one SchemaError naming the input."""
    try:
        if path is not None:
            with open(path, "rb") as file:
                text = file.read()
        return build(json.loads(text))
    except (OSError, ValueError, RecursionError) as exc:
        where = what if path is None else f"{what} file {path}"
        raise SchemaError(f"bad {where}: {exc}") from exc


def check(value, kind, path: tuple = ()):
    """`value`, refused unless it is of `kind`: str, int, (int, float) for a
    number, bool, list, dict, or [kind] for a list of that kind.  A boolean
    is not a number.  `path`, a tuple of keys and indices, is where it is."""
    if type(kind) is list and isinstance(value, list):
        for index, item in enumerate(value):
            if type(item) is not kind[0]:
                check(item, kind[0], path + (index,))
        return value
    if type(kind) is not list and isinstance(value, kind) \
            and (kind is bool or type(value) is not bool):
        return value
    name = "a list" if type(kind) is list else _KIND_NAMES[kind]
    raise SchemaError(f"{path_text(path)} is missing" if value is MISSING else
                      f"{path_text(path)} must be {name}, not {reprlib.repr(value)}")


def member(obj: dict, key: str, kind, path: tuple = (), default=MISSING):
    """obj[key] checked by `check`, where `path` is obj's.  An absent key gives
    `default`, or is refused without one; null only passes a None default."""
    value = obj.get(key, default)
    if type(value) is kind or value is default and default is not MISSING:
        return value
    return check(value, kind, path + (key,))


def path_text(path: tuple) -> str:
    """Where `path` is, as an error names it: `root.children[0].depth`."""
    return "".join(f"[{key}]" if type(key) is int else f".{key}"
                   for key in path).lstrip(".") or "document"


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
        # the value is final now; a dataclass hash would rehash it per call
        object.__setattr__(self, "_hash", hash((self.kind, self.value)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuilt through the constructor: a str hash differs per process
        return HostRef, (self.kind, self.value)

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

# The one vocabulary of the selector fields a capture carries as codes, read
# by the selector checks below, the pcap writer and the dissector: DNS qtype
# names (an unnamed code n is TYPE<n>), HTTP methods, CoAP types in the order
# of their 2-bit field, and the CoAP code bytes of the empty message, the
# four methods and the response classes 2-5, written c.dd.
DNS_QTYPES = {"A": 1, "NS": 2, "CNAME": 5, "SOA": 6, "PTR": 12, "MX": 15,
              "TXT": 16, "AAAA": 28, "SRV": 33, "ANY": 255}
HTTP_METHODS = ("GET", "POST", "PUT", "DELETE", "HEAD", "OPTIONS", "PATCH",
                "CONNECT", "TRACE")
COAP_TYPES = ("CON", "NON", "ACK", "RST")
COAP_CODES = {"0.00": 0, "GET": 1, "POST": 2, "PUT": 3, "DELETE": 4,
              **{f"{c}.{d:02d}": c << 5 | d
                 for c in range(2, 6) for d in range(32)}}
_QTYPE_NAMES = {code: name for name, code in DNS_QTYPES.items()}
_COAP_CODE_TOKENS = {code: token for token, code in COAP_CODES.items()}


def qtype_token(code: int) -> str:
    """The token of a DNS qtype code: its name, or TYPE<code>."""
    return _QTYPE_NAMES.get(code) or f"TYPE{code}"


def qtype_code(token: str) -> int:
    """The code of a qtype token, which is a name or TYPE<n> for an unnamed
    n <= 65535 without leading zeros; raises ValueError for any other."""
    code = DNS_QTYPES.get(token)
    if code is None:
        digits = token[4:]
        code = int(digits) if digits.isdecimal() else -1
        if not 0 <= code <= 0xFFFF or qtype_token(code) != token:
            raise ValueError(f"bad DNS qtype token {token!r}")
    return code


def coap_code_token(code: int) -> Optional[str]:
    """The token of a CoAP code byte, or None for a code outside the table."""
    return _COAP_CODE_TOKENS.get(code)


@dataclass(frozen=True)
class DnsSelector:
    """DNS question identity: query type token and query name."""

    qtype: str
    qname: str

    def __post_init__(self):
        qtype_code(self.qtype)
        if not is_valid_domain(self.qname):
            raise ValueError(f"bad DNS qname {self.qname!r}")


@dataclass(frozen=True)
class HttpSelector:
    """HTTP request-line identity; responses carry only the is_response bit."""

    method: str = ""
    uri: str = ""
    is_response: bool = False

    def __post_init__(self):
        if self.method and self.method not in HTTP_METHODS:
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
        if self.type not in COAP_TYPES:
            raise ValueError(f"bad CoAP type {self.type!r}")
        if self.code not in COAP_CODES:
            raise ValueError(f"bad CoAP code {self.code!r}")
        if self.uri_path and (
            not self.uri_path.startswith("/") or _has_space(self.uri_path)
        ):
            raise ValueError(f"bad CoAP uri_path {self.uri_path!r}")


def _has_space(s: str) -> bool:
    return any(c.isspace() for c in s)


AppSelector = Union[DnsSelector, HttpSelector, CoapSelector, None]

# The one encoding of application selectors: protocol token -> class.  A
# class's dataclass fields, in declaration order, are its JSON keys after
# "proto" and, as "<proto>.<field>", its deny-rule matcher keys; a field is
# optional exactly when it has a default.  Bool fields are JSON booleans.
SELECTORS = {"dns": DnsSelector, "http": HttpSelector, "coap": CoapSelector}
_PROTOS = {cls: proto for proto, cls in SELECTORS.items()}
_FIELDS = {cls: fields(cls) for cls in _PROTOS}


def app_items(app) -> Tuple[str, tuple]:
    """(proto token, ((field, value), ...)) of a selector, in field order."""
    cls = type(app)
    return _PROTOS[cls], tuple((f.name, getattr(app, f.name))
                               for f in _FIELDS[cls])


def app_to_obj(app: AppSelector):
    if app is None:
        return None
    proto, items = app_items(app)
    return {"proto": proto, **dict(items)}


def app_from_obj(obj: Optional[dict], path: tuple = ()) -> AppSelector:
    """The selector of its JSON object at `path`, or None for null."""
    if obj is None:
        return None
    proto = member(obj, "proto", str, path)
    cls = SELECTORS.get(proto)
    if cls is None:
        raise ValueError(f"unknown app selector protocol {proto!r}")
    # f.type is "str" or "bool", a string under postponed annotations
    return cls(**{f.name: member(obj, f.name, str if f.type == "str" else bool,
                                path, f.default) for f in _FIELDS[cls]})


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
            if port is None:
                continue
            if not (1 <= port <= 65535):
                raise ValueError(f"port {port} out of range")
        if isinstance(self.app, DnsSelector):
            if self.transport is not Transport.UDP:
                raise ValueError("DNS flows are UDP")
            if self.responder_port not in (None, *DNS_PORTS):
                raise ValueError("DNS responder port must be 53 or 5353")
        object.__setattr__(self, "_hash", hash((
            self.initiator, self.responder, self.initiator_port,
            self.responder_port, self.transport, self.direction, self.app)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuilt through the constructor, as HostRef is
        return FlowId, (self.initiator, self.responder, self.initiator_port,
                        self.responder_port, self.transport, self.direction,
                        self.app)

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
        """Exact serialization used as sort/tie-break key and export format,
        encoded on the first call and kept on the instance."""
        text = self.__dict__.get("_json")
        if text is None:
            text = json.dumps(self.to_obj(), separators=(",", ":"),
                              ensure_ascii=True)
            object.__setattr__(self, "_json", text)
        return text

    @staticmethod
    def from_obj(obj: dict, path: tuple = ()) -> "FlowId":
        """The flow of its JSON object at `path`; a fault names the path."""
        check(obj, dict, path)
        try:
            return FlowId(
                initiator=HostRef.from_token(member(obj, "initiator", str, path)),
                responder=HostRef.from_token(member(obj, "responder", str, path)),
                initiator_port=member(obj, "initiator_port", int, path, None),
                responder_port=member(obj, "responder_port", int, path, None),
                transport=Transport(member(obj, "transport", str, path, "tcp")),
                direction=Direction(member(obj, "direction", str, path, "bi")),
                app=app_from_obj(member(obj, "app", dict, path, None), path + ("app",)),
            )
        except SchemaError:
            raise
        except ValueError as exc:
            raise SchemaError(f"{path_text(path)}: {exc}") from exc

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


def sorted_flows(flows) -> list:
    return sorted(flows, key=FlowId.canonical_json)


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
        for name, attr in _ROLE_ATTRS:
            norm = normalize_address(getattr(self, attr))
            object.__setattr__(self, attr, norm)
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
        for name, addr in addrs.items():
            if not self.is_local(addr):
                raise ValueError(f"{name} address {addr} outside local prefixes")
        for i, a in enumerate(nets):
            for b in nets[i + 1:]:
                if a.version == b.version and a.overlaps(b):
                    log.warning("local prefixes %s and %s overlap", a, b)

    def is_local(self, addr: str) -> bool:
        return _is_local(self.local_prefixes, addr)

    def role_of(self, addr: str) -> Optional[str]:
        for name, attr in _ROLE_ATTRS:
            if getattr(self, attr) == addr:
                return name
        return None

    def addr_of(self, role: str) -> str:
        for name, attr in _ROLE_ATTRS:
            if name == role:
                return getattr(self, attr)
        raise ValueError(f"unknown role {role!r}")

    @staticmethod
    def from_obj(obj: dict, path: tuple = ()) -> "Topology":
        """The topology of its JSON object at `path`; a fault names the path."""
        addrs = [member(obj, role, str, path) for role in ROLES]
        prefixes = member(obj, "local_prefixes", [str], path, ("192.168.0.0/16",))
        try:
            return Topology(*addrs, local_prefixes=tuple(prefixes))
        except ValueError as exc:
            raise SchemaError(f"{path_text(path)}: {exc}") from exc


@functools.lru_cache(maxsize=ADDRESS_CACHE_SIZE)
def _is_local(prefixes: tuple, addr: str) -> bool:
    """Whether `addr` lies in one of the prefixes.  Keyed on the normalized
    prefix strings, which hash and compare in C: ip_network objects hash and
    compare in Python, which would cost each hit.  The networks are parsed
    on a miss only."""
    try:
        ip = ipaddress.ip_address(addr)
    except ValueError:
        return False
    return any(ip.version == net.version and ip in net
               for net in map(ipaddress.ip_network, prefixes))


# -- canonical orientation ----------------------------------------------------


def _endpoint_key(ref: HostRef, port: Optional[int]):
    return (ref.token(), -1 if port is None else port)


def canonicalize(flow: FlowId) -> FlowId:
    """Deterministic orientation for bidirectional flows.

    The device role occupies the initiator slot when exactly one endpoint is
    the device; otherwise endpoints order lexicographically on their serialized
    form.  Unidirectional flows are never reoriented (the direction is the
    identity), and neither are DNS flows (the question orients the client
    toward the resolver).  Ports travel with their endpoint.  Idempotent.
    """
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


class ParsedPacket(NamedTuple):
    """Transport-level view of one captured frame.

    `transport` is a lowercase token: "tcp", "udp", or a degraded label such
    as "arp", "icmp", "ip-proto-47" for frames the dissector cannot refine.
    `dns_answers` holds (name, address) pairs when the packet is a DNS
    response; `sni` is the TLS ClientHello server name when present.  The
    address slots hold IPv4/IPv6 literals, or "" when the frame has none.
    A named tuple, four times cheaper to build than a frozen dataclass.
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


# Build packets through this, with every field passed by keyword.  Calling
# the class goes through type.__call__, which packs the keywords into a dict
# before the generated __new__ binds them; calling that __new__ directly
# binds them in place, under half the cost, for the same tuple.
new_packet = functools.partial(ParsedPacket.__new__, ParsedPacket)
