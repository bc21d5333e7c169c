"""Classic libpcap codec and frame dissection.

Reads and writes the classic capture format only (24-byte global header,
linktype 1 = Ethernet).  The reader takes the microsecond magic 0xA1B2C3D4
and the nanosecond magic 0xA1B23C4D in either byte order, truncating
nanoseconds to microseconds; the writer emits little-endian microseconds.
pcapng input is rejected up front.  A read Trace is the dissected packets in
file order and nothing else of the file.  `dissect` is total: any byte string
comes back as a ParsedPacket, degrading to an opaque transport token instead
of raising.  The writer and the dissector code selector fields through the
tables in `core` that the selectors themselves are checked against.

Dissection makes one pass per frame: the Ethernet and IPv4 headers are read
in `_dissect` itself and TCP and UDP in one transport function, which IPv6
frames reach too, and packets are built through `core.new_packet`, which
skips the keyword dict a call of the class would build.  An opaque TCP
payload is rejected by its first bytes before any HTTP parse.

The DNS and TLS ClientHello parses, the two that check names, are memoized
on the payload bytes, so a capture set that repeats a message parses it once
per process.  No other parse is memoized.  The writer memoizes each TCP or
UDP frame on every packet field but ts_us and the two ports, and splices the
ports in (see write_pcap).  Each of these memos keeps PAYLOAD_CACHE_SIZE
entries and no failure: a packet that cannot be framed raises on every
write, and a payload that does not parse is memoized as None.
"""

from __future__ import annotations

import functools
import ipaddress
import itertools
import operator
import struct
from dataclasses import dataclass

from .core import (
    ADDRESS_CACHE_SIZE,
    BROADCAST_ADDR,
    COAP_CODES,
    COAP_TYPES,
    DNS_PORTS,
    HTTP_METHODS,
    CoapSelector,
    DnsSelector,
    HttpSelector,
    ParsedPacket,
    coap_code_token,
    is_valid_domain,
    new_packet,
    qtype_code,
    qtype_token,
)


class MalformedHeader(ValueError):
    """The input is not a classic libpcap byte stream."""


class TruncatedRecord(ValueError):
    """A record header or body extends past the end of the input."""


class UnresolvedHost(ValueError):
    """A packet address slot holds no address literal."""


PCAP_MAGIC = 0xA1B2C3D4
PCAPNG_MAGIC = 0x0A0D0D0A
# magic read little-endian -> (byte order, timestamp fraction units per us)
_MAGICS = {PCAP_MAGIC: ("<", 1), 0xD4C3B2A1: (">", 1),
           0xA1B23C4D: ("<", 1000), 0x4D3CB2A1: (">", 1000)}
LINKTYPE_ETHERNET = 1

# Entries kept by each of the DNS and ClientHello parse memos, each holding
# its payload as the key: at most 256 x the largest one read, as the reader
# bounds no record's length.  Such messages are usually under 2 KB.  The
# frame memo holds 256 frames of at most 64 KiB each; the bundled models
# need 12-63 entries each, 197 in all, of under 1.5 KB.
PAYLOAD_CACHE_SIZE = 256

_GLOBAL_LE = struct.Struct("<IHHiIII")
_REC_LE = struct.Struct("<IIII")
_PORTS = struct.Struct(">HH")
_IPV4_HEADER_WORDS = struct.Struct(">10H")

# the header fields the dissector reads, unpacked at the header's start
_IPV4_HEAD = struct.Struct(">BxHxxHxBxx4s4s")  # IHL, len, frag, proto, addrs
_IPV6_HEAD = struct.Struct(">B5xBx16s16s")  # version, next header, addrs
_TCP_HEAD = struct.Struct(">HH8xBB")  # ports, data offset, flags
_UDP_HEAD = struct.Struct(">HHH")  # ports, length
_ARP_ADDRS = struct.Struct(">14x4s6x4s")  # sender and target IPv4 addresses

ETH_IPV4 = 0x0800
ETH_IPV6 = 0x86DD
ETH_ARP = 0x0806

TCP_FIN = 0x01
TCP_SYN = 0x02
TCP_RST = 0x04
TCP_PSH = 0x08
TCP_ACK = 0x10


@dataclass(frozen=True)
class Trace:
    """One capture: its parsed packets in capture order."""

    packets: tuple = ()


def filter_control_plane(trace: Trace) -> Trace:
    """Drop control-plane packets, keeping the others in order."""
    return Trace(tuple(itertools.filterfalse(
        operator.attrgetter("control_plane"), trace.packets)))


# -- reading ------------------------------------------------------------------


def read_pcap(data: bytes) -> Trace:
    if len(data) < 24:
        raise MalformedHeader("input shorter than a pcap global header")
    (le_magic,) = struct.unpack_from("<I", data, 0)
    if le_magic == PCAPNG_MAGIC:
        raise MalformedHeader("pcapng input is not supported; classic pcap only")
    if le_magic not in _MAGICS:
        raise MalformedHeader(f"unknown capture magic 0x{le_magic:08X}")
    order, frac_per_us = _MAGICS[le_magic]
    hdr = struct.Struct(order + "IHHiIII")
    _, vmajor, _vminor, _zone, _sigfigs, _snaplen, network = hdr.unpack_from(data, 0)
    if vmajor != 2:
        raise MalformedHeader(f"unsupported pcap major version {vmajor}")
    if network != LINKTYPE_ETHERNET:
        raise MalformedHeader(f"unsupported linktype {network}; need Ethernet (1)")
    unpack_record = struct.Struct(order + "IIII").unpack_from
    packets = []
    append = packets.append
    offset = 24
    total = len(data)
    while offset < total:
        if total - offset < 16:
            raise TruncatedRecord(f"record header truncated at offset {offset}")
        ts_sec, ts_frac, incl_len, _orig_len = unpack_record(data, offset)
        offset += 16
        end = offset + incl_len
        if end > total:
            raise TruncatedRecord(f"record body truncated at offset {offset}")
        append(dissect(data[offset:end],
                       ts_sec * 1_000_000 + ts_frac // frac_per_us))
        offset = end
    return Trace(tuple(packets))


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
        return _opaque(ts_us, len(frame), "undecoded")


def _dissect(frame: bytes, ts_us: int) -> ParsedPacket:
    wire_len = len(frame)
    if wire_len < 14:
        return _opaque(ts_us, wire_len, "short")
    ethertype = frame[12] << 8 | frame[13]
    if ethertype == ETH_IPV4:
        # the common frame, parsed here rather than one call further down
        if wire_len < 34:
            return _opaque(ts_us, wire_len, "ipv4-bad")
        ver_ihl, total_len, frag, proto, src, dst = _IPV4_HEAD.unpack_from(
            frame, 14)
        ihl = (ver_ihl & 0x0F) * 4
        if ver_ihl >> 4 != 4 or ihl < 20 or wire_len - 14 < ihl:
            return _opaque(ts_us, wire_len, "ipv4-bad")
        src = _addr_text(src)
        dst = _addr_text(dst)
        if frag & 0x1FFF:
            # Later fragment: no transport header; reassembly is out of scope.
            return _opaque(ts_us, wire_len, "ip-frag", src, dst)
        end = 14 + total_len if ihl <= total_len <= wire_len - 14 else wire_len
        return _dissect_l4(frame, ts_us, proto, src, dst, 14 + ihl, end,
                           wire_len, False)
    if ethertype == ETH_IPV6:
        return _dissect_ipv6(frame, ts_us)
    if ethertype == ETH_ARP:
        return _dissect_arp(frame, ts_us)
    return _opaque(ts_us, wire_len, f"ether-0x{ethertype:04x}")


def _dissect_arp(frame: bytes, ts_us: int) -> ParsedPacket:
    src = dst = ""
    # hardware/protocol sizes at body offsets 4/5; IPv4-over-Ethernet only.
    if len(frame) >= 42 and frame[18] == 6 and frame[19] == 4:
        src, dst = map(_addr_text, _ARP_ADDRS.unpack_from(frame, 14))
    return new_packet(
        ts_us=ts_us, src_addr=src, dst_addr=dst, transport="arp",
        wire_len=len(frame), control_plane=True,
    )


def _dissect_ipv6(frame: bytes, ts_us: int) -> ParsedPacket:
    wire_len = len(frame)
    if wire_len < 54:
        return _opaque(ts_us, wire_len, "ipv6-bad")
    version, nxt, src, dst = _IPV6_HEAD.unpack_from(frame, 14)
    if version >> 4 != 6:
        return _opaque(ts_us, wire_len, "ipv6-bad")
    src = _addr_text(src)
    dst = _addr_text(dst)
    pos = 54
    # Walk simple extension headers; fragments degrade like IPv4.
    for _ in range(8):
        if nxt in (0, 43, 60):
            if wire_len < pos + 8:
                return _opaque(ts_us, wire_len, "ipv6-bad", src, dst)
            nxt, length = frame[pos], (frame[pos + 1] + 1) * 8
            pos += length
        elif nxt == 44:
            return _opaque(ts_us, wire_len, "ip-frag", src, dst)
        else:
            break
    return _dissect_l4(frame, ts_us, nxt, src, dst, pos, wire_len, wire_len,
                       True)


@functools.lru_cache(maxsize=ADDRESS_CACHE_SIZE)
def _addr_text(packed: bytes) -> str:
    """Textual form of a 4- or 16-byte packed address."""
    return str(ipaddress.ip_address(packed))


def _opaque(ts_us, wire_len, token, src="", dst=""):
    """A frame degraded to the transport token `token`, app None."""
    return new_packet(
        ts_us=ts_us, src_addr=src, dst_addr=dst, transport=token,
        wire_len=wire_len,
    )


def _dissect_l4(frame, ts_us, proto, src, dst, start, end, wire_len, icmp6):
    """The transport layer at frame[start:end] of a `wire_len`-byte frame:
    TCP and UDP in one pass."""
    app = sni = flags = None
    answers = ()
    control = False
    if proto == 6:
        if end - start < 20:
            return _opaque(ts_us, wire_len, "tcp-bad", src, dst)
        sport, dport, offset, flags = _TCP_HEAD.unpack_from(frame, start)
        offset = (offset >> 4) * 4
        payload = frame[start + offset:end] if offset >= 20 else b""
        if not payload:
            control = bool(flags & (TCP_SYN | TCP_FIN | TCP_RST | TCP_ACK))
        else:
            tls = _classify_tls(payload)
            if tls is not None:
                control, sni = tls
            else:
                app = _parse_http(payload)
    elif proto == 17:
        if end - start < 8:
            return _opaque(ts_us, wire_len, "udp-bad", src, dst)
        sport, dport, ulen = _UDP_HEAD.unpack_from(frame, start)
        if ulen >= 8 and start + ulen < end:
            end = start + ulen
        payload = frame[start + 8:end]
        if sport in (67, 68) or dport in (67, 68):
            control = True
        elif sport in DNS_PORTS or dport in DNS_PORTS:
            parsed = _parse_dns(bytes(payload))
            if parsed is not None:
                app, answers = parsed
        else:
            app = _parse_coap(payload)
    elif proto == 1 or (icmp6 and proto == 58):
        return new_packet(
            ts_us=ts_us, src_addr=src, dst_addr=dst,
            transport="icmpv6" if proto == 58 else "icmp",
            wire_len=wire_len, control_plane=True,
        )
    else:
        return _opaque(ts_us, wire_len, f"ip-proto-{proto}", src, dst)
    return new_packet(
        ts_us=ts_us, src_addr=src, dst_addr=dst, src_port=sport, dst_port=dport,
        transport="tcp" if proto == 6 else "udp", app=app, dns_answers=answers,
        sni=sni, wire_len=wire_len, control_plane=control, tcp_flags=flags,
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
        sni = _parse_sni(bytes(payload))
        if sni is not None:
            return (False, sni)
    return (True, None)


@functools.lru_cache(maxsize=PAYLOAD_CACHE_SIZE)
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


# what an HTTP status line or a request line can begin with
_HTTP_STARTS = (b"HTTP/1.",) + tuple(method.encode("ascii") + b" "
                                     for method in HTTP_METHODS)


def _parse_http(payload: bytes):
    """The selector of an HTTP request or status line, or None."""
    if not payload.startswith(_HTTP_STARTS):
        return None
    try:
        text = payload.split(b"\r\n", 1)[0][:2048].decode("ascii")
        if text.startswith("HTTP/1."):
            return HttpSelector(is_response=True)
        parts = text.split(" ")
        if len(parts) == 3 and parts[0] in HTTP_METHODS \
                and parts[1].startswith("/") and parts[2].startswith("HTTP/1."):
            return HttpSelector(method=parts[0], uri=parts[1])
    except ValueError:  # not ASCII, or a URI the selector refuses ("/a\tb")
        pass
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


@functools.lru_cache(maxsize=PAYLOAD_CACHE_SIZE)
def _parse_dns(payload: bytes):
    """(DnsSelector, answers) or None.  Answers only for responses.  The
    selector checks the qname; a name it refuses makes the message None."""
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
    if pos + 4 > len(payload):
        return None
    qtype = qtype_token(int.from_bytes(payload[pos:pos + 2], "big"))
    pos += 4
    try:
        selector = DnsSelector(qtype=qtype, qname=qname)
    except ValueError:
        return None
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
    mtype = COAP_TYPES[(payload[0] >> 4) & 0x3]
    tkl = payload[0] & 0x0F
    code = coap_code_token(payload[1])
    if tkl > 8 or len(payload) < 4 + tkl or code is None:
        return None
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
    return CoapSelector(type=mtype, code=code, uri_path=uri_path)


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


def write_pcap(trace: Trace) -> bytes:
    """Serialize a trace to classic pcap bytes.

    Packets must carry enough to synthesize Ethernet/IP/transport headers;
    an address slot that holds no address literal raises UnresolvedHost.
    Each TCP or UDP frame is padded to at least the packet's wire_len;
    ARP and ICMP frames are never padded.
    read_pcap(write_pcap(t)) reproduces the ParsedPacket sequence field for
    field (wire_len may be recomputed) when the packets are ones a capture
    can carry; SimDriver checks that of a model's packets once.
    A frame whose IP length field cannot hold it raises ValueError.

    A TCP or UDP frame is synthesized once per port-free packet: the memo
    is keyed on every field but ts_us, src_port and dst_port, and holds the
    frame's bytes before and after the two port words, the first 4 bytes
    of the transport header.  Each record splices its packet's ports in
    between.  That is exact: the TCP and UDP checksums are written as 0,
    and the IPv4 header checksum does not cover the ports.  The memo pays
    off when packets repeat port-free, as a simulated capture's do: the
    simulator draws only ports and times into fixed layouts.  A packet
    that does not repeat costs a miss, about 1.7x the time of synthesizing
    its frame without the memo; no benchmark workload writes such packets.
    """
    out = bytearray(_GLOBAL_LE.pack(PCAP_MAGIC, 2, 4, 0, 0, 65535,
                                    LINKTYPE_ETHERNET))
    for pkt in trace.packets:
        if pkt.transport in ("tcp", "udp"):
            head, tail = _port_free_frame(
                pkt.src_addr, pkt.dst_addr, pkt.transport, pkt.app,
                pkt.dns_answers, pkt.sni, pkt.wire_len, pkt.control_plane,
                pkt.tcp_flags)
            ports = _PORTS.pack(pkt.src_port or 0, pkt.dst_port or 0)
        else:
            head, ports, tail = _synth_frame(pkt, pkt.wire_len), b"", b""
        size = len(head) + len(ports) + len(tail)
        out += _REC_LE.pack(pkt.ts_us // 1_000_000, pkt.ts_us % 1_000_000,
                            size, size)
        out += head
        out += ports
        out += tail
    return bytes(out)


@functools.lru_cache(maxsize=PAYLOAD_CACHE_SIZE)
def _port_free_frame(src_addr, dst_addr, transport, app, dns_answers, sni,
                     wire_len, control_plane, tcp_flags) -> tuple:
    """(bytes before, bytes after) the port words of the TCP or UDP frame
    of a packet with these fields.

    Keyed on the fields themselves: building a port-free copy of each
    packet with _replace cost about half the gain.  write_pcap appends the
    pieces and the ports to its output one by one rather than joining them
    into a frame first, which would allocate one more frame per packet."""
    frame = _synth_frame(new_packet(
        ts_us=0, src_addr=src_addr, dst_addr=dst_addr, transport=transport,
        app=app, dns_answers=dns_answers, sni=sni, wire_len=wire_len,
        control_plane=control_plane, tcp_flags=tcp_flags), wire_len)
    ports = 34 if _endpoint(src_addr).version == 4 else 54  # Ethernet + IP
    return frame[:ports], frame[ports + 4:]


def frame_len(pkt: ParsedPacket) -> int:
    """Length of the frame write_pcap would emit for `pkt` before wire_len
    padding (pkt.wire_len is ignored).  Raises what write_pcap raises for
    unresolvable hosts, mixed or wrong address families and IP overflow."""
    return len(_synth_frame(pkt, 0))


def headers_len(transport: str, version: int) -> int:
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


@functools.lru_cache(maxsize=ADDRESS_CACHE_SIZE)
def _endpoint(literal: str) -> _Endpoint:
    """Parse an address literal once; raises UnresolvedHost if it is none."""
    try:
        addr = ipaddress.ip_address(literal)
    except ValueError:
        raise UnresolvedHost(
            f"cannot resolve host {literal!r} to an address") from None
    return _Endpoint(addr.version, addr.packed, _mac_for(addr))


def _endpoints(pkt: ParsedPacket, version: int = 0) -> tuple:
    """(src, dst) endpoints of a packet, of one address family: IP
    `version`'s, when one is given."""
    src = _endpoint(pkt.src_addr)
    dst = _endpoint(pkt.dst_addr)
    if src.version != dst.version:
        raise ValueError("mixed address families in one packet")
    if version and src.version != version:
        raise ValueError(f"{pkt.transport} needs IPv{version} endpoints")
    return src, dst


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


def _synth_frame(pkt: ParsedPacket, wire_len: int) -> bytes:
    """The frame of `pkt`, its TCP or UDP payload padded so that the frame
    is at least `wire_len` bytes long."""
    if pkt.transport == "arp":
        return _synth_arp(pkt)
    if pkt.transport in ("icmp", "icmpv6"):
        return _synth_icmp(pkt)
    if pkt.transport not in ("tcp", "udp"):
        raise ValueError(f"cannot synthesize transport {pkt.transport!r}")
    src, dst = _endpoints(pkt)
    payload = _synth_payload(pkt)
    want = wire_len - headers_len(pkt.transport, src.version)
    if len(payload) < want:
        pad = want - len(payload)
        if isinstance(pkt.app, CoapSelector):
            # Payload marker keeps the padding out of the option list.
            payload += b"\xff" + b"\x00" * (pad - 1)
        else:
            payload += b"\x00" * pad
    if not payload and not pkt.control_plane and pkt.transport == "udp":
        payload = b"\x00"
    # The IPv4 total length or the IPv6 payload length, a 16-bit field.
    # UDP's own length never overflows first: it counts 20 bytes fewer than
    # the IPv4 total length, and as many as the IPv6 payload length.
    ip_len = (20 if src.version == 4 else 0) + len(payload) \
        + (20 if pkt.transport == "tcp" else 8)
    if ip_len > 0xFFFF:
        raise ValueError(f"an IPv{src.version} length field cannot hold "
                         f"{ip_len} bytes (at most 65535)")
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
    return _ip_frame(src, dst, proto, l4)


def _ip_frame(src: _Endpoint, dst: _Endpoint, proto: int, l4: bytes) -> bytes:
    """Ethernet frame carrying `l4` in one IP packet of src's family."""
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


def _synth_arp(pkt: ParsedPacket) -> bytes:
    src, dst = _endpoints(pkt, 4)
    body = struct.pack(
        ">HHBBH6s4s6s4s", 1, ETH_IPV4, 6, 4, 1,
        src.mac, src.packed, b"\x00" * 6, dst.packed,
    )
    return b"\xff" * 6 + src.mac + ETH_ARP.to_bytes(2, "big") + body


def _synth_icmp(pkt: ParsedPacket) -> bytes:
    """An ICMP or ICMPv6 echo request."""
    proto, echo, version = (58, 128, 6) if pkt.transport == "icmpv6" \
        else (1, 8, 4)
    src, dst = _endpoints(pkt, version)
    return _ip_frame(src, dst, proto, struct.pack(">BBHI", echo, 0, 0, 0))


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
    is_response = bool(answers)
    flags = 0x8180 if is_response else 0x0100
    msg = bytearray(struct.pack(">HHHHHH", 0, flags, 1, len(answers), 0, 0))
    msg += _encode_dns_name(app.qname)
    msg += struct.pack(">HH", qtype_code(app.qtype), 1)
    for name, addr in answers:
        ip = _endpoint(addr)
        rtype = 1 if ip.version == 4 else 28
        msg += _encode_dns_name(name)
        msg += struct.pack(">HHIH", rtype, 1, 300, len(ip.packed))
        msg += ip.packed
    return bytes(msg)


def _synth_coap(app: CoapSelector) -> bytes:
    type_idx = COAP_TYPES.index(app.type)
    msg = bytearray([0x40 | (type_idx << 4), COAP_CODES[app.code], 0, 0])
    number = 0
    for segment in [s for s in app.uri_path.split("/") if s]:
        raw = segment.encode("ascii")
        msg += _coap_option_header(11 - number, len(raw)) + raw
        number = 11
    return bytes(msg)


def _coap_option_header(delta: int, olen: int) -> bytes:
    nibbles = []
    for value in (delta, olen):
        if value <= 12:
            nibbles.append((value, b""))
        elif value <= 268:
            nibbles.append((13, bytes([value - 13])))
        else:
            nibbles.append((14, (value - 269).to_bytes(2, "big")))
    (delta_nibble, delta_ext), (len_nibble, len_ext) = nibbles
    return bytes([delta_nibble << 4 | len_nibble]) + delta_ext + len_ext


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
