"""Classic libpcap codec and frame dissection.

Reads and writes the classic capture format only (24-byte global header,
magic 0xA1B2C3D4, microsecond timestamps, linktype 1 = Ethernet).  pcapng
input is rejected up front.  `dissect` is total: any byte string comes back
as a ParsedPacket, degrading to an opaque transport token instead of raising.
"""

from __future__ import annotations

import functools
import ipaddress
import struct
from dataclasses import dataclass, replace

from .core import (
    ADDRESS_CACHE_SIZE,
    BROADCAST_ADDR,
    CoapSelector,
    DnsSelector,
    HttpSelector,
    ParsedPacket,
    ROLES,
    Topology,
    is_valid_domain,
)


class MalformedHeader(ValueError):
    """The input is not a classic libpcap byte stream."""


class TruncatedRecord(ValueError):
    """A record header or body extends past the end of the input."""


class UnresolvedHost(ValueError):
    """A packet references a role with no topology binding."""


PCAP_MAGIC = 0xA1B2C3D4
PCAP_MAGIC_SWAPPED = 0xD4C3B2A1
PCAPNG_MAGIC = 0x0A0D0D0A
LINKTYPE_ETHERNET = 1

_GLOBAL_LE = struct.Struct("<IHHiIII")
_REC_LE = struct.Struct("<IIII")
_IPV4_HEADER_WORDS = struct.Struct(">10H")

ETH_IPV4 = 0x0800
ETH_IPV6 = 0x86DD
ETH_ARP = 0x0806

TCP_FIN = 0x01
TCP_SYN = 0x02
TCP_RST = 0x04
TCP_PSH = 0x08
TCP_ACK = 0x10

_HTTP_METHODS = (
    "GET", "POST", "PUT", "DELETE", "HEAD", "OPTIONS", "PATCH", "CONNECT", "TRACE",
)

_QTYPE_NAMES = {
    1: "A", 2: "NS", 5: "CNAME", 6: "SOA", 12: "PTR", 15: "MX", 16: "TXT",
    28: "AAAA", 33: "SRV", 255: "ANY",
}
_QTYPE_CODES = {name: code for code, name in _QTYPE_NAMES.items()}

_COAP_TYPES = ("CON", "NON", "ACK", "RST")
_COAP_REQ_CODES = {1: "GET", 2: "POST", 3: "PUT", 4: "DELETE"}
_COAP_REQ_TOKENS = {name: code for code, name in _COAP_REQ_CODES.items()}


@dataclass(frozen=True)
class Trace:
    """One capture: parsed packets plus capture metadata."""

    packets: tuple = ()
    capture_duration: float = 0.0
    label: str = ""

    def without_control_plane(self) -> "Trace":
        kept = tuple(p for p in self.packets if not p.control_plane)
        return replace(self, packets=kept)


def filter_control_plane(trace: Trace) -> Trace:
    """Drop control-plane packets; order, duration and label are preserved."""
    return trace.without_control_plane()


# -- reading ------------------------------------------------------------------


def read_pcap(data: bytes) -> Trace:
    if len(data) < 24:
        raise MalformedHeader("input shorter than a pcap global header")
    (le_magic,) = struct.unpack_from("<I", data, 0)
    if le_magic == PCAPNG_MAGIC:
        raise MalformedHeader("pcapng input is not supported; classic pcap only")
    if le_magic == PCAP_MAGIC:
        order = "<"
    elif le_magic == PCAP_MAGIC_SWAPPED:
        order = ">"
    else:
        raise MalformedHeader(f"unknown capture magic 0x{le_magic:08X}")
    hdr = struct.Struct(order + "IHHiIII")
    _, vmajor, _vminor, _zone, _sigfigs, _snaplen, network = hdr.unpack_from(data, 0)
    if vmajor != 2:
        raise MalformedHeader(f"unsupported pcap major version {vmajor}")
    if network != LINKTYPE_ETHERNET:
        raise MalformedHeader(f"unsupported linktype {network}; need Ethernet (1)")
    rec = struct.Struct(order + "IIII")
    packets = []
    offset = 24
    total = len(data)
    while offset < total:
        if total - offset < 16:
            raise TruncatedRecord(f"record header truncated at offset {offset}")
        ts_sec, ts_usec, incl_len, _orig_len = rec.unpack_from(data, offset)
        offset += 16
        if total - offset < incl_len:
            raise TruncatedRecord(f"record body truncated at offset {offset}")
        frame = data[offset:offset + incl_len]
        offset += incl_len
        packets.append(dissect(frame, ts_sec * 1_000_000 + ts_usec))
    duration = 0.0
    if packets:
        duration = (packets[-1].ts_us - packets[0].ts_us) / 1e6
    return Trace(packets=tuple(packets), capture_duration=duration)


# -- dissection --------------------------------------------------------------


def dissect(frame: bytes, ts_us: int = 0) -> ParsedPacket:
    """Parse one Ethernet frame; never raises.

    Undissectable frames degrade to an opaque transport token with app None.
    Control-plane classification: ARP, ICMP/ICMPv6, DHCP, TCP segments with
    SYN/FIN/RST and no payload, pure payloadless ACKs, and TLS handshake
    records except ClientHello-with-SNI.
    """
    try:
        return _dissect(frame, ts_us)
    except Exception:
        return ParsedPacket(
            ts_us=ts_us, src_addr="", dst_addr="", transport="undecoded",
            wire_len=len(frame),
        )


def _dissect(frame: bytes, ts_us: int) -> ParsedPacket:
    wire_len = len(frame)
    if wire_len < 14:
        return ParsedPacket(
            ts_us=ts_us, src_addr="", dst_addr="", transport="short",
            wire_len=wire_len,
        )
    ethertype = int.from_bytes(frame[12:14], "big")
    if ethertype == ETH_ARP:
        return _dissect_arp(frame, ts_us)
    if ethertype == ETH_IPV4:
        return _dissect_ipv4(frame, ts_us)
    if ethertype == ETH_IPV6:
        return _dissect_ipv6(frame, ts_us)
    return ParsedPacket(
        ts_us=ts_us, src_addr="", dst_addr="",
        transport=f"ether-0x{ethertype:04x}", wire_len=wire_len,
    )


def _dissect_arp(frame: bytes, ts_us: int) -> ParsedPacket:
    body = frame[14:]
    src = dst = ""
    # hardware/protocol sizes at offsets 4/5; IPv4-over-Ethernet layout only.
    if len(body) >= 28 and body[4] == 6 and body[5] == 4:
        src = _addr_text(bytes(body[14:18]))
        dst = _addr_text(bytes(body[24:28]))
    return ParsedPacket(
        ts_us=ts_us, src_addr=src, dst_addr=dst, transport="arp",
        wire_len=len(frame), control_plane=True,
    )


def _dissect_ipv4(frame: bytes, ts_us: int) -> ParsedPacket:
    wire_len = len(frame)
    ip = frame[14:]
    if len(ip) < 20 or (ip[0] >> 4) != 4:
        return _opaque(frame, ts_us, "ipv4-bad")
    ihl = (ip[0] & 0x0F) * 4
    if ihl < 20 or len(ip) < ihl:
        return _opaque(frame, ts_us, "ipv4-bad")
    total_len = int.from_bytes(ip[2:4], "big")
    frag = int.from_bytes(ip[6:8], "big")
    proto = ip[9]
    src = _addr_text(bytes(ip[12:16]))
    dst = _addr_text(bytes(ip[16:20]))
    if frag & 0x1FFF:
        # Later fragment: no transport header; reassembly is out of scope.
        return ParsedPacket(
            ts_us=ts_us, src_addr=src, dst_addr=dst, transport="ip-frag",
            wire_len=wire_len,
        )
    end = min(len(ip), total_len) if total_len >= ihl else len(ip)
    payload = ip[ihl:end]
    return _dissect_l4(frame, ts_us, proto, src, dst, payload, icmp6=False)


def _dissect_ipv6(frame: bytes, ts_us: int) -> ParsedPacket:
    wire_len = len(frame)
    ip = frame[14:]
    if len(ip) < 40 or (ip[0] >> 4) != 6:
        return _opaque(frame, ts_us, "ipv6-bad")
    nxt = ip[6]
    src = _addr_text(bytes(ip[8:24]))
    dst = _addr_text(bytes(ip[24:40]))
    pos = 40
    # Walk simple extension headers; fragments degrade like IPv4.
    for _ in range(8):
        if nxt in (0, 43, 60):
            if len(ip) < pos + 8:
                return _opaque(frame, ts_us, "ipv6-bad", src, dst)
            length = (ip[pos + 1] + 1) * 8
            nxt = ip[pos]
            pos += length
        elif nxt == 44:
            return ParsedPacket(
                ts_us=ts_us, src_addr=src, dst_addr=dst, transport="ip-frag",
                wire_len=wire_len,
            )
        else:
            break
    payload = ip[pos:]
    return _dissect_l4(frame, ts_us, nxt, src, dst, payload, icmp6=True)


@functools.lru_cache(maxsize=ADDRESS_CACHE_SIZE)
def _addr_text(packed: bytes) -> str:
    """Textual form of a 4- or 16-byte packed address."""
    return str(ipaddress.ip_address(packed))


def _opaque(frame, ts_us, token, src="", dst=""):
    return ParsedPacket(
        ts_us=ts_us, src_addr=src, dst_addr=dst, transport=token,
        wire_len=len(frame),
    )


def _dissect_l4(frame, ts_us, proto, src, dst, payload, icmp6):
    wire_len = len(frame)
    if proto == 1 or (icmp6 and proto == 58):
        return ParsedPacket(
            ts_us=ts_us, src_addr=src, dst_addr=dst,
            transport="icmpv6" if proto == 58 else "icmp",
            wire_len=wire_len, control_plane=True,
        )
    if proto == 6:
        return _dissect_tcp(ts_us, src, dst, payload, wire_len)
    if proto == 17:
        return _dissect_udp(ts_us, src, dst, payload, wire_len)
    return ParsedPacket(
        ts_us=ts_us, src_addr=src, dst_addr=dst,
        transport=f"ip-proto-{proto}", wire_len=wire_len,
    )


def _dissect_tcp(ts_us, src, dst, seg, wire_len):
    if len(seg) < 20:
        return ParsedPacket(
            ts_us=ts_us, src_addr=src, dst_addr=dst, transport="tcp-bad",
            wire_len=wire_len,
        )
    sport, dport = struct.unpack_from(">HH", seg, 0)
    offset = (seg[12] >> 4) * 4
    flags = seg[13]
    payload = seg[offset:] if offset >= 20 else b""
    app = None
    sni = None
    control = False
    if not payload:
        if flags & (TCP_SYN | TCP_FIN | TCP_RST) or flags & TCP_ACK:
            control = True
    else:
        tls = _classify_tls(payload)
        if tls is not None:
            control, sni = tls
        else:
            app = _parse_http(payload)
    return ParsedPacket(
        ts_us=ts_us, src_addr=src, dst_addr=dst, src_port=sport, dst_port=dport,
        transport="tcp", app=app, sni=sni, wire_len=wire_len,
        control_plane=control, tcp_flags=flags,
    )


def _dissect_udp(ts_us, src, dst, seg, wire_len):
    if len(seg) < 8:
        return ParsedPacket(
            ts_us=ts_us, src_addr=src, dst_addr=dst, transport="udp-bad",
            wire_len=wire_len,
        )
    sport, dport, ulen, _ck = struct.unpack_from(">HHHH", seg, 0)
    end = min(len(seg), ulen) if ulen >= 8 else len(seg)
    payload = seg[8:end]
    app = None
    answers = ()
    control = False
    if sport in (67, 68) or dport in (67, 68):
        control = True
    elif sport in (53, 5353) or dport in (53, 5353):
        parsed = _parse_dns(payload)
        if parsed is not None:
            app, answers = parsed
    else:
        app = _parse_coap(payload)
    return ParsedPacket(
        ts_us=ts_us, src_addr=src, dst_addr=dst, src_port=sport, dst_port=dport,
        transport="udp", app=app, dns_answers=answers, wire_len=wire_len,
        control_plane=control,
    )


# -- TLS ----------------------------------------------------------------------


def _classify_tls(payload: bytes):
    """(control_plane, sni) for TLS records, or None if not TLS.

    Handshake, alert and change-cipher-spec records are control plane except
    a ClientHello carrying an SNI extension; application data is kept.
    """
    if len(payload) < 5 or payload[1] != 3 or payload[2] > 4:
        return None
    rtype = payload[0]
    if rtype == 0x17:
        return (False, None)
    if rtype in (0x14, 0x15):
        return (True, None)
    if rtype != 0x16:
        return None
    if len(payload) >= 6 and payload[5] == 0x01:
        sni = _parse_sni(payload)
        if sni is not None:
            return (False, sni)
    return (True, None)


def _parse_sni(record: bytes):
    try:
        body = record[5:5 + int.from_bytes(record[3:5], "big")]
        if len(body) < 4 or body[0] != 0x01:
            return None
        hello = body[4:4 + int.from_bytes(body[1:4], "big")]
        pos = 2 + 32  # client version + random
        sid_len = hello[pos]
        pos += 1 + sid_len
        cs_len = int.from_bytes(hello[pos:pos + 2], "big")
        pos += 2 + cs_len
        comp_len = hello[pos]
        pos += 1 + comp_len
        ext_total = int.from_bytes(hello[pos:pos + 2], "big")
        pos += 2
        end = min(len(hello), pos + ext_total)
        while pos + 4 <= end:
            etype = int.from_bytes(hello[pos:pos + 2], "big")
            elen = int.from_bytes(hello[pos + 2:pos + 4], "big")
            pos += 4
            if etype == 0:
                ext = hello[pos:pos + elen]
                if len(ext) < 5 or ext[2] != 0:
                    return None
                nlen = int.from_bytes(ext[3:5], "big")
                name = ext[5:5 + nlen].decode("ascii").lower()
                return name if is_valid_domain(name) else None
            pos += elen
    except Exception:
        return None
    return None


# -- HTTP ----------------------------------------------------------------------


def _parse_http(payload: bytes):
    line = payload.split(b"\r\n", 1)[0][:2048]
    try:
        text = line.decode("ascii")
    except UnicodeDecodeError:
        return None
    if text.startswith("HTTP/1."):
        return HttpSelector(is_response=True)
    parts = text.split(" ")
    if (
        len(parts) == 3
        and parts[0] in _HTTP_METHODS
        and parts[1].startswith("/")
        and parts[2].startswith("HTTP/1.")
    ):
        return HttpSelector(method=parts[0], uri=parts[1])
    return None


# -- DNS ------------------------------------------------------------------------


def _read_dns_name(msg: bytes, pos: int, jumps: int = 0):
    """Decompress one name; returns (name, next_pos) or None on bad data."""
    labels = []
    while True:
        if pos >= len(msg) or jumps > 5 or len(labels) > 127:
            return None
        length = msg[pos]
        if length == 0:
            break
        if length & 0xC0 == 0xC0:
            if pos + 1 >= len(msg):
                return None
            target = ((length & 0x3F) << 8) | msg[pos + 1]
            inner = _read_dns_name(msg, target, jumps + 1)
            if inner is None:
                return None
            labels.extend(inner[0].split(".") if inner[0] else [])
            return (".".join(labels), pos + 2)
        if length & 0xC0:
            return None
        label = msg[pos + 1:pos + 1 + length]
        if len(label) != length:
            return None
        labels.append(label.decode("ascii", errors="replace").lower())
        pos += 1 + length
    return (".".join(labels), pos + 1)


def _parse_dns(payload: bytes):
    """(DnsSelector, answers) or None.  Answers only for responses."""
    if len(payload) < 12:
        return None
    try:
        _ident, flags, qdcount, ancount, _ns, _ar = struct.unpack_from(
            ">HHHHHH", payload, 0
        )
    except struct.error:
        return None
    if qdcount < 1:
        return None
    parsed = _read_dns_name(payload, 12)
    if parsed is None:
        return None
    qname, pos = parsed
    if not is_valid_domain(qname):
        return None
    if pos + 4 > len(payload):
        return None
    qtype_code = int.from_bytes(payload[pos:pos + 2], "big")
    pos += 4
    qtype = _QTYPE_NAMES.get(qtype_code, f"TYPE{qtype_code}")
    selector = DnsSelector(qtype=qtype, qname=qname)
    answers = []
    if flags & 0x8000:
        # Skip any further questions, then walk the answer section.
        for _ in range(qdcount - 1):
            step = _read_dns_name(payload, pos)
            if step is None:
                return (selector, ())
            pos = step[1] + 4
        for _ in range(ancount):
            step = _read_dns_name(payload, pos)
            if step is None:
                break
            rname, pos = step
            if pos + 10 > len(payload):
                break
            rtype = int.from_bytes(payload[pos:pos + 2], "big")
            rdlen = int.from_bytes(payload[pos + 8:pos + 10], "big")
            pos += 10
            rdata = payload[pos:pos + rdlen]
            if len(rdata) != rdlen:
                break
            pos += rdlen
            if not is_valid_domain(rname):
                continue
            if (rtype, rdlen) in ((1, 4), (28, 16)):
                answers.append((rname, _addr_text(bytes(rdata))))
    return (selector, tuple(answers))


# -- CoAP -----------------------------------------------------------------------


def _parse_coap(payload: bytes):
    """Strict CoAP parse; None when the bytes do not form a message.

    The whole datagram must parse cleanly (version bits, token length,
    options), which keeps random payloads from masquerading as CoAP.
    """
    if len(payload) < 4 or (payload[0] >> 6) != 1:
        return None
    mtype = _COAP_TYPES[(payload[0] >> 4) & 0x3]
    tkl = payload[0] & 0x0F
    if tkl > 8 or len(payload) < 4 + tkl:
        return None
    code = payload[1]
    klass, detail = code >> 5, code & 0x1F
    if klass in (1, 6, 7):
        return None
    if klass == 0:
        token = _COAP_REQ_CODES.get(detail)
        if token is None:
            if detail != 0:
                return None
            token = "0.00"
    else:
        token = f"{klass}.{detail:02d}"
    pos = 4 + tkl
    number = 0
    segments = []
    while pos < len(payload):
        byte = payload[pos]
        if byte == 0xFF:
            break
        delta, olen = byte >> 4, byte & 0x0F
        pos += 1
        delta, pos = _coap_ext(payload, delta, pos)
        if delta is None:
            return None
        olen, pos = _coap_ext(payload, olen, pos)
        if olen is None:
            return None
        value = payload[pos:pos + olen]
        if len(value) != olen:
            return None
        pos += olen
        number += delta
        if number == 11:
            try:
                seg = value.decode("ascii")
            except UnicodeDecodeError:
                return None
            if any(c.isspace() or c == "/" for c in seg):
                return None
            segments.append(seg)
    uri_path = "/" + "/".join(segments) if segments else ""
    try:
        return CoapSelector(type=mtype, code=token, uri_path=uri_path)
    except ValueError:
        return None


def _coap_ext(payload: bytes, nibble: int, pos: int):
    if nibble == 13:
        if pos >= len(payload):
            return None, pos
        return payload[pos] + 13, pos + 1
    if nibble == 14:
        if pos + 2 > len(payload):
            return None, pos
        return int.from_bytes(payload[pos:pos + 2], "big") + 269, pos + 2
    if nibble == 15:
        return None, pos
    return nibble, pos


# -- writing ----------------------------------------------------------------------


def write_pcap(trace: Trace, topo: Topology = None) -> bytes:
    """Serialize a trace to classic pcap bytes.

    Packets must carry enough to synthesize Ethernet/IP/transport headers;
    role tokens in the address slots resolve through `topo` or raise
    UnresolvedHost.  read_pcap(write_pcap(t)) reproduces the ParsedPacket
    sequence field for field (wire_len may be recomputed).
    """
    out = bytearray(_GLOBAL_LE.pack(PCAP_MAGIC, 2, 4, 0, 0, 65535,
                                    LINKTYPE_ETHERNET))
    for pkt in trace.packets:
        frame = _synth_frame(pkt, topo)
        out += _REC_LE.pack(
            pkt.ts_us // 1_000_000, pkt.ts_us % 1_000_000, len(frame), len(frame)
        )
        out += frame
    return bytes(out)


# Frame lengths of the fixed-size control frames _synth_arp and _synth_icmp
# build: Ethernet header plus ARP body, or IP header plus an 8-byte echo.
_FIXED_FRAME_LEN = {"arp": 14 + 28, "icmp": 14 + 20 + 8, "icmpv6": 14 + 40 + 8}


def frame_len(pkt: ParsedPacket, topo: Topology = None) -> int:
    """Length of the frame write_pcap would emit for `pkt` before wire_len
    padding (pkt.wire_len is ignored), computed without building the frame.

    TCP/UDP frames are Ethernet + IP + transport header + the synthesized
    payload, where an empty UDP payload outside the control plane becomes one
    byte; ARP and ICMP frames have fixed lengths.  Raises what write_pcap
    raises for unresolvable hosts and mixed address families.
    """
    fixed = _FIXED_FRAME_LEN.get(pkt.transport)
    if fixed is not None:
        return fixed
    if pkt.transport not in ("tcp", "udp"):
        raise ValueError(f"cannot synthesize transport {pkt.transport!r}")
    src = _resolve_addr(pkt.src_addr, topo)
    if src.version != _resolve_addr(pkt.dst_addr, topo).version:
        raise ValueError("mixed address families in one packet")
    payload = len(_synth_payload(pkt))
    if not payload and not pkt.control_plane and pkt.transport == "udp":
        payload = 1
    return _headers_len(pkt.transport, src.version) + payload


def _headers_len(transport: str, version: int) -> int:
    """Ethernet, IP and TCP/UDP header bytes of a synthesized frame."""
    return 14 + (20 if version == 4 else 40) + (20 if transport == "tcp" else 8)


class _Endpoint:
    """What frame synthesis needs of one address."""

    # a plain slotted class: a namedtuple's generated code costs more memory
    __slots__ = ("version", "packed", "mac")

    def __init__(self, version: int, packed: bytes, mac: bytes):
        self.version = version
        self.packed = packed
        self.mac = mac


def _resolve_addr(raw: str, topo: Topology) -> _Endpoint:
    if raw in ROLES:
        if topo is None:
            raise UnresolvedHost(f"role {raw!r} has no topology binding")
        return _endpoint(topo.addr_of(raw))
    try:
        return _endpoint(raw)
    except ValueError:
        raise UnresolvedHost(
            f"cannot resolve host {raw!r} to an address") from None


@functools.lru_cache(maxsize=ADDRESS_CACHE_SIZE)
def _endpoint(literal: str) -> _Endpoint:
    """Parse an address literal once; raises ValueError if it is none."""
    addr = ipaddress.ip_address(literal)
    return _Endpoint(addr.version, addr.packed, _mac_for(addr))


def _mac_for(addr) -> bytes:
    if str(addr) == BROADCAST_ADDR:
        return b"\xff" * 6
    if addr.is_multicast:
        if addr.version == 4:
            low = addr.packed[1:]
            return bytes([0x01, 0x00, 0x5E, low[0] & 0x7F, low[1], low[2]])
        return b"\x33\x33" + addr.packed[-4:]
    if addr.version == 4:
        return b"\x02\x00" + addr.packed
    return b"\x02\x06" + addr.packed[-4:]


def _ipv4_checksum(header: bytes) -> int:
    """Internet checksum of a 20-byte IPv4 header."""
    total = sum(_IPV4_HEADER_WORDS.unpack(header))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def _synth_frame(pkt: ParsedPacket, topo: Topology) -> bytes:
    if pkt.transport == "arp":
        return _synth_arp(pkt, topo)
    if pkt.transport in ("icmp", "icmpv6"):
        return _synth_icmp(pkt, topo)
    if pkt.transport not in ("tcp", "udp"):
        raise ValueError(f"cannot synthesize transport {pkt.transport!r}")
    src = _resolve_addr(pkt.src_addr, topo)
    dst = _resolve_addr(pkt.dst_addr, topo)
    if src.version != dst.version:
        raise ValueError("mixed address families in one packet")
    payload = _synth_payload(pkt)
    want = pkt.wire_len - _headers_len(pkt.transport, src.version)
    if len(payload) < want:
        pad = want - len(payload)
        if isinstance(pkt.app, CoapSelector):
            # Payload marker keeps the padding out of the option list.
            payload += b"\xff" + b"\x00" * (pad - 1)
        else:
            payload += b"\x00" * pad
    if not payload and not pkt.control_plane and pkt.transport == "udp":
        payload = b"\x00"
    sport = pkt.src_port or 0
    dport = pkt.dst_port or 0
    if pkt.transport == "tcp":
        flags = pkt.tcp_flags
        if flags is None:
            flags = TCP_ACK if not payload else (TCP_PSH | TCP_ACK)
        l4 = struct.pack(
            ">HHIIBBHHH", sport, dport, 1, 1, 5 << 4, flags, 8192, 0, 0
        ) + payload
        proto = 6
    else:
        l4 = struct.pack(">HHHH", sport, dport, 8 + len(payload), 0) + payload
        proto = 17
    if src.version == 4:
        header = struct.pack(
            ">BBHHHBBH4s4s", 0x45, 0, 20 + len(l4), 0, 0, 64, proto, 0,
            src.packed, dst.packed,
        )
        checksum = _ipv4_checksum(header)
        header = header[:10] + checksum.to_bytes(2, "big") + header[12:]
        ethertype = ETH_IPV4
    else:
        header = struct.pack(
            ">IHBB16s16s", 0x60000000, len(l4), proto, 64, src.packed, dst.packed
        )
        ethertype = ETH_IPV6
    return dst.mac + src.mac + ethertype.to_bytes(2, "big") + header + l4


def _synth_arp(pkt: ParsedPacket, topo: Topology) -> bytes:
    src = _resolve_addr(pkt.src_addr, topo)
    dst = _resolve_addr(pkt.dst_addr, topo)
    if src.version != 4 or dst.version != 4:
        raise ValueError("ARP synthesis needs IPv4 endpoints")
    body = struct.pack(
        ">HHBBH6s4s6s4s", 1, ETH_IPV4, 6, 4, 1,
        src.mac, src.packed, b"\x00" * 6, dst.packed,
    )
    return b"\xff" * 6 + src.mac + ETH_ARP.to_bytes(2, "big") + body


def _synth_icmp(pkt: ParsedPacket, topo: Topology) -> bytes:
    src = _resolve_addr(pkt.src_addr, topo)
    dst = _resolve_addr(pkt.dst_addr, topo)
    if pkt.transport == "icmpv6":
        if src.version != 6:
            raise ValueError("icmpv6 needs IPv6 endpoints")
        body = struct.pack(">BBHI", 128, 0, 0, 0)
        header = struct.pack(
            ">IHBB16s16s", 0x60000000, len(body), 58, 64, src.packed, dst.packed
        )
        return dst.mac + src.mac + ETH_IPV6.to_bytes(2, "big") + header + body
    if src.version != 4:
        raise ValueError("icmp needs IPv4 endpoints")
    body = struct.pack(">BBHI", 8, 0, 0, 0)
    header = struct.pack(
        ">BBHHHBBH4s4s", 0x45, 0, 20 + len(body), 0, 0, 64, 1, 0,
        src.packed, dst.packed,
    )
    checksum = _ipv4_checksum(header)
    header = header[:10] + checksum.to_bytes(2, "big") + header[12:]
    return dst.mac + src.mac + ETH_IPV4.to_bytes(2, "big") + header + body


def _synth_payload(pkt: ParsedPacket) -> bytes:
    if isinstance(pkt.app, DnsSelector):
        return _synth_dns(pkt.app, pkt.dns_answers)
    if isinstance(pkt.app, HttpSelector):
        if pkt.app.is_response:
            return b"HTTP/1.1 200 OK\r\n\r\n"
        return f"{pkt.app.method} {pkt.app.uri} HTTP/1.1\r\n\r\n".encode("ascii")
    if isinstance(pkt.app, CoapSelector):
        return _synth_coap(pkt.app)
    if pkt.sni:
        return _synth_client_hello(pkt.sni)
    if pkt.control_plane:
        return b""
    if pkt.transport == "tcp":
        # Opaque application data; zero bytes parse as nothing in particular.
        return b"\x00"
    return b""


def _encode_dns_name(name: str) -> bytes:
    out = bytearray()
    for label in name.split("."):
        raw = label.encode("ascii")
        out.append(len(raw))
        out += raw
    out.append(0)
    return bytes(out)


def _synth_dns(app: DnsSelector, answers: tuple) -> bytes:
    qtype_code = _QTYPE_CODES.get(app.qtype)
    if qtype_code is None and app.qtype.startswith("TYPE"):
        qtype_code = int(app.qtype[4:])
    if qtype_code is None:
        qtype_code = 255
    is_response = bool(answers)
    flags = 0x8180 if is_response else 0x0100
    msg = bytearray(struct.pack(">HHHHHH", 0, flags, 1, len(answers), 0, 0))
    msg += _encode_dns_name(app.qname)
    msg += struct.pack(">HH", qtype_code, 1)
    for name, addr in answers:
        ip = _endpoint(addr)
        rtype = 1 if ip.version == 4 else 28
        msg += _encode_dns_name(name)
        msg += struct.pack(">HHIH", rtype, 1, 300, len(ip.packed))
        msg += ip.packed
    return bytes(msg)


def _synth_coap(app: CoapSelector) -> bytes:
    type_idx = _COAP_TYPES.index(app.type)
    if app.code in _COAP_REQ_TOKENS:
        code = _COAP_REQ_TOKENS[app.code]
    else:
        klass, detail = app.code.split(".")
        code = (int(klass) << 5) | int(detail)
    msg = bytearray([0x40 | (type_idx << 4), code, 0, 0])
    number = 0
    for segment in [s for s in app.uri_path.split("/") if s]:
        raw = segment.encode("ascii")
        delta = 11 - number
        number = 11
        if delta > 12 or len(raw) > 12:
            msg += _coap_option_header(delta, len(raw))
        else:
            msg.append((delta << 4) | len(raw))
        msg += raw
    return bytes(msg)


def _coap_option_header(delta: int, olen: int) -> bytes:
    head = bytearray([0])
    nibbles = []
    for value in (delta, olen):
        if value <= 12:
            nibbles.append((value, b""))
        elif value <= 268:
            nibbles.append((13, bytes([value - 13])))
        else:
            nibbles.append((14, (value - 269).to_bytes(2, "big")))
    head[0] = (nibbles[0][0] << 4) | nibbles[1][0]
    return bytes(head) + nibbles[0][1] + nibbles[1][1]


def _synth_client_hello(sni: str) -> bytes:
    name = sni.encode("ascii")
    sni_ext = struct.pack(">HBH", len(name) + 3, 0, len(name)) + name
    extensions = struct.pack(">HH", 0, len(sni_ext)) + sni_ext
    body = (
        b"\x03\x03" + b"\x00" * 32 + b"\x00"
        + struct.pack(">H", 2) + b"\x13\x01" + b"\x01\x00"
        + struct.pack(">H", len(extensions)) + extensions
    )
    handshake = b"\x01" + len(body).to_bytes(3, "big") + body
    return b"\x16\x03\x03" + len(handshake).to_bytes(2, "big") + handshake
