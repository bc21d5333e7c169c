import hashlib
import random
import struct

import pytest

from conftest import MODEL_DIR
from flowprof import (
    CoapSelector,
    DnsSelector,
    HttpSelector,
    MalformedHeader,
    ParsedPacket,
    RuleSet,
    Trace,
    TruncatedRecord,
    UnresolvedHost,
    compile_rules,
    dissect,
    filter_control_plane,
    load_model,
    oracle_tree,
    read_pcap,
    run_capture,
    write_pcap,
)
from flowprof import core, pcapio
from flowprof.core import (COAP_CODES, COAP_TYPES, DNS_QTYPES, HTTP_METHODS,
                           is_valid_domain)
from flowprof.pcapio import TCP_ACK, TCP_PSH, TCP_SYN, _synth_frame, frame_len


def _round_trip(pkt: ParsedPacket) -> ParsedPacket:
    back = read_pcap(write_pcap(Trace(packets=(pkt,))))
    assert len(back.packets) == 1
    return back.packets[0]


def _data(**kw):
    base = dict(
        ts_us=1_700_000_000_123_456,
        src_addr="192.168.1.53",
        dst_addr="52.44.10.100",
        src_port=49321,
        dst_port=443,
        transport="tcp",
        wire_len=120,
        tcp_flags=TCP_PSH | TCP_ACK,
    )
    base.update(kw)
    return ParsedPacket(**base)


# -- file level ---------------------------------------------------------------


def _rewritten(data: bytes, order: str, magic: int, frac) -> bytes:
    """A write_pcap capture re-encoded in byte order `order` under `magic`,
    each record's microsecond fraction mapped through `frac`."""
    header = struct.unpack_from("<IHHiIII", data, 0)
    out = bytearray(struct.pack(order + "IHHiIII", magic, *header[1:]))
    offset = 24
    while offset < len(data):
        sec, usec, incl, orig = struct.unpack_from("<IIII", data, offset)
        out += struct.pack(order + "IIII", sec, frac(usec), incl, orig)
        out += data[offset + 16:offset + 16 + incl]
        offset += 16 + incl
    return bytes(out)


def test_rejects_non_pcap_input():
    with pytest.raises(MalformedHeader):
        read_pcap(b"not a capture file at all....")
    with pytest.raises(MalformedHeader):
        read_pcap(struct.pack("<IHHiIII", 0x0A0D0D0A, 2, 4, 0, 0, 0, 1))
    with pytest.raises(MalformedHeader):
        read_pcap(b"\x00" * 10)
    capture = write_pcap(Trace(packets=(_data(),)))
    for magic in (0xA1B23C4E, 0xA1B2C3D5, 0x4D3CB2A2):
        with pytest.raises(MalformedHeader,
                           match=f"unknown capture magic 0x{magic:08X}"):
            read_pcap(_rewritten(capture, "<", magic, lambda usec: usec))


def test_rejects_truncated_record():
    data = write_pcap(Trace(packets=(_data(),)))
    with pytest.raises(TruncatedRecord):
        read_pcap(data[:-3])
    with pytest.raises(TruncatedRecord):
        read_pcap(data[: 24 + 7])


@pytest.mark.parametrize("order", ["<", ">"])
def test_reads_nanosecond_captures_in_either_byte_order(order):
    pkts = (_data(ts_us=5), _data(ts_us=1_700_000_001_000_999, wire_len=200),
            _data(ts_us=1_700_000_002_999_999, dst_port=80))
    data = write_pcap(Trace(packets=pkts))
    nano = _rewritten(data, order, 0xA1B23C4D,
                      lambda usec: usec * 1000 + 999)
    assert nano[:4] == struct.pack(order + "I", 0xA1B23C4D)
    back = read_pcap(nano)
    assert back == read_pcap(data)
    assert [p.ts_us for p in back.packets] == [p.ts_us for p in pkts]
    micro = _rewritten(data, order, 0xA1B2C3D4, lambda usec: usec)
    assert read_pcap(micro) == back


def test_empty_capture_round_trips():
    assert read_pcap(write_pcap(Trace())).packets == ()


# -- packet round-trips --------------------------------------------------------


def test_tcp_data_packet_round_trips():
    pkt = _data()
    back = _round_trip(pkt)
    assert back.ts_us == pkt.ts_us
    assert (back.src_addr, back.dst_addr) == (pkt.src_addr, pkt.dst_addr)
    assert (back.src_port, back.dst_port) == (pkt.src_port, pkt.dst_port)
    assert back.transport == "tcp"
    assert back.wire_len == pkt.wire_len
    assert back.tcp_flags == pkt.tcp_flags
    assert not back.control_plane


def test_tcp_syn_reads_back_as_control_plane():
    # Control packets travel at their natural frame length (no payload pad).
    pkt = _data(tcp_flags=TCP_SYN, wire_len=54, control_plane=True)
    back = _round_trip(pkt)
    assert back.control_plane
    assert back.tcp_flags == TCP_SYN


def test_dns_query_and_response_round_trip():
    query = _data(
        src_port=51111, dst_port=53, transport="udp", tcp_flags=None,
        dst_addr="192.168.1.1", wire_len=80,
        app=DnsSelector(qtype="A", qname="use1-api.tplinkra.com"),
    )
    back = _round_trip(query)
    assert back.app == query.app
    assert back.dns_answers == ()
    response = _data(
        src_addr="192.168.1.1", dst_addr="192.168.1.53",
        src_port=53, dst_port=51111, transport="udp", tcp_flags=None,
        wire_len=120,
        app=DnsSelector(qtype="A", qname="use1-api.tplinkra.com"),
        dns_answers=(("use1-api.tplinkra.com", "52.44.10.100"),),
    )
    back = _round_trip(response)
    assert back.app == response.app
    assert back.dns_answers == response.dns_answers


def test_aaaa_answers_round_trip():
    response = _data(
        src_addr="192.168.1.1", dst_addr="192.168.1.53",
        src_port=53, dst_port=50001, transport="udp", tcp_flags=None,
        wire_len=140,
        app=DnsSelector(qtype="AAAA", qname="v6.example"),
        dns_answers=(("v6.example", "2a00:1450::5"),),
    )
    assert _round_trip(response).dns_answers == response.dns_answers


def test_http_request_and_response_round_trip():
    req = _data(
        dst_port=80, wire_len=200,
        app=HttpSelector(method="POST", uri="/api/toggle", is_response=False),
    )
    assert _round_trip(req).app == req.app
    resp = _data(
        src_addr="52.44.10.100", dst_addr="192.168.1.53",
        src_port=80, dst_port=49321, wire_len=220,
        app=HttpSelector(is_response=True),
    )
    assert _round_trip(resp).app == resp.app


def test_coap_round_trip():
    req = _data(
        transport="udp", tcp_flags=None, dst_port=5683, wire_len=60,
        app=CoapSelector(type="CON", code="GET", uri_path="/state"),
    )
    assert _round_trip(req).app == req.app
    ack = _data(
        transport="udp", tcp_flags=None, src_port=5683, wire_len=55,
        app=CoapSelector(type="ACK", code="2.05"),
    )
    assert _round_trip(ack).app == ack.app


def test_every_table_token_round_trips():
    apps = [DnsSelector(qtype=qtype, qname="a.example")
            for qtype in list(DNS_QTYPES) + ["TYPE0", "TYPE65", "TYPE65535"]]
    apps += [HttpSelector(method=method, uri="/x") for method in HTTP_METHODS]
    apps += [CoapSelector(type=mtype, code=code, uri_path="/state")
             for mtype in COAP_TYPES for code in COAP_CODES]
    sent = tuple(_data(
        transport="tcp" if isinstance(app, HttpSelector) else "udp",
        tcp_flags=TCP_PSH | TCP_ACK if isinstance(app, HttpSelector) else None,
        dst_port=53 if isinstance(app, DnsSelector) else 5683, app=app,
        ts_us=1_700_000_000_000_000 + i) for i, app in enumerate(apps))
    back = read_pcap(write_pcap(Trace(packets=sent))).packets
    assert [p.app for p in back] == apps


def test_http_uri_with_a_tab_keeps_the_tcp_packet():
    pkt = _data(dst_port=80, wire_len=200,
                app=HttpSelector(method="GET", uri="/a"))
    frame = _synth_frame(pkt, pkt.wire_len).replace(b"GET /a ", b"GET /a\tb ")
    got = dissect(frame, pkt.ts_us)
    assert got.transport == "tcp" and got.app is None
    assert (got.src_addr, got.dst_addr, got.src_port, got.dst_port) \
        == (pkt.src_addr, pkt.dst_addr, pkt.src_port, pkt.dst_port)


def test_client_hello_sni_round_trips():
    hello = _data(wire_len=300, sni="n-wap.tplinkcloud.com")
    back = _round_trip(hello)
    assert back.sni == hello.sni
    assert back.app is None


def test_ipv6_endpoints_round_trip():
    pkt = _data(src_addr="fd00::53", dst_addr="2a00:1450::5", wire_len=140)
    back = _round_trip(pkt)
    assert (back.src_addr, back.dst_addr) == (pkt.src_addr, pkt.dst_addr)


def test_wire_len_padding_is_preserved():
    pkt = _data(wire_len=900)
    assert _round_trip(pkt).wire_len == 900


# -- dissection fallbacks --------------------------------------------------------


def test_dissect_degrades_unknown_ethertype():
    frame = b"\x02" * 12 + b"\x88\xb5" + b"payload"
    pkt = dissect(frame)
    assert pkt.transport not in ("tcp", "udp")
    assert pkt.app is None


def test_dissect_degrades_unknown_ip_protocol():
    ip = struct.pack(
        "!BBHHHBBH4s4s", 0x45, 0, 20, 0, 0, 64, 47, 0,
        bytes([10, 0, 0, 1]), bytes([10, 0, 0, 2]),
    )
    frame = b"\x02" * 12 + b"\x08\x00" + ip
    pkt = dissect(frame)
    assert pkt.transport == "ip-proto-47"
    assert pkt.src_addr == "10.0.0.1"


def test_dissect_arp_is_control_plane():
    arp = struct.pack("!HHBBH", 1, 0x0800, 6, 4, 1) + b"\x02" * 6 \
        + bytes([10, 0, 0, 1]) + b"\x00" * 6 + bytes([10, 0, 0, 2])
    frame = b"\xff" * 6 + b"\x02" * 6 + b"\x08\x06" + arp
    pkt = dissect(frame)
    assert pkt.transport == "arp"
    assert pkt.control_plane


def test_dissect_never_raises_on_short_garbage():
    for size in range(14, 80):
        dissect(bytes(range(size % 251)) [:size].ljust(size, b"\xaa"))


def test_filter_control_plane_keeps_data_only():
    data = _data()
    syn = _data(tcp_flags=TCP_SYN, wire_len=60, control_plane=True)
    trace = Trace(packets=(syn, data))
    kept = filter_control_plane(trace)
    assert kept.packets == (data,)


# -- frame length ---------------------------------------------------------------


def padded_len(pkt: ParsedPacket, wire_len: int) -> int:
    """The length of pkt's frame synthesized for `wire_len`: a TCP or UDP
    frame is padded up to wire_len bytes; ARP and ICMP frames never are."""
    unpadded = frame_len(pkt)
    return max(wire_len, unpadded) if pkt.transport in ("tcp", "udp") \
        else unpadded


@pytest.mark.parametrize("path", sorted(MODEL_DIR.glob("*.json")),
                         ids=lambda path: path.stem)
def test_frame_len_matches_the_synthesized_frame(path):
    """Each frame a capture carries, synthesized for a wire_len below, at
    and above its frame_len: a TCP or UDP frame is max(wire_len,
    frame_len) bytes long, an ARP frame frame_len bytes."""
    model = load_model(path)
    tree = oracle_tree(model)
    first_level = [tree.node(h).flow for h in tree.node(tree.root).children]
    for rules in [RuleSet()] + [compile_rules([f]) for f in first_level]:
        for seed in range(5):
            for pkt in run_capture(model, rules, seed).trace.packets:
                unpadded = frame_len(pkt)
                for wire_len in (0, unpadded - 1, unpadded, unpadded + 1,
                                 unpadded + 333):
                    assert len(_synth_frame(pkt, wire_len)) == \
                        padded_len(pkt, wire_len), (pkt, wire_len)


@pytest.mark.parametrize("transport,src,dst,message", [
    ("icmp", "192.168.1.53", "2001:db8::1",
     "mixed address families in one packet"),
    ("icmpv6", "fd00::53", "192.168.1.53",
     "mixed address families in one packet"),
    ("arp", "192.168.1.53", "2001:db8::1",
     "mixed address families in one packet"),
    ("arp", "fd00::53", "2001:db8::1", "arp needs IPv4 endpoints"),
    ("icmpv6", "192.168.1.53", "52.44.10.100", "icmpv6 needs IPv6 endpoints"),
])
def test_control_frames_check_address_families(transport, src, dst, message):
    pkt = ParsedPacket(ts_us=0, src_addr=src, dst_addr=dst,
                       transport=transport, control_plane=True)
    with pytest.raises(ValueError, match=message):
        write_pcap(Trace(packets=(pkt,)))
    with pytest.raises(ValueError, match=message):
        frame_len(pkt)


# -- dissector pin --------------------------------------------------------------


def _ipv4_parts(frame: bytes):
    """(IPv4 header, transport bytes) of a synthesized IPv4 frame."""
    ihl = (frame[14] & 0x0F) * 4
    return frame[14:14 + ihl], frame[14 + ihl:]


def _as_ipv6(frame: bytes, hop_by_hop: bool) -> bytes:
    """The IPv4 frame's transport bytes in an IPv6 packet, the addresses
    mapped into fd00::/8, optionally behind an 8-byte hop-by-hop header."""
    header, l4 = _ipv4_parts(frame)
    nxt = header[9]
    if hop_by_hop:
        l4 = bytes([nxt, 0, 1, 4, 0, 0, 0, 0]) + l4
        nxt = 0
    pad = b"\xfd" + b"\x00" * 11
    ip6 = struct.pack(">IHBB16s16s", 0x60000000, len(l4), nxt, 64,
                      pad + header[12:16], pad + header[16:20])
    return frame[:12] + b"\x86\xdd" + ip6 + l4


def _with_ipv4_options(frame: bytes) -> bytes:
    """The IPv4 frame with one word of NOP options: IHL 6, total + 4."""
    header, l4 = _ipv4_parts(frame)
    total = int.from_bytes(header[2:4], "big") + 4
    header = bytes([0x46]) + header[1:2] + total.to_bytes(2, "big") \
        + header[4:] + b"\x01" * 4
    return frame[:14] + header + l4


def _mutated(frame: bytes, rng) -> bytes:
    """Byte flips (mostly in the headers), a truncation, or appended bytes."""
    kind = rng.randrange(4)
    if kind == 0:
        return frame[:rng.randrange(len(frame) + 1)]
    if kind == 1:
        return frame + bytes(rng.randrange(256)
                             for _ in range(rng.randint(1, 40)))
    out = bytearray(frame)
    for _ in range(rng.randint(1, 3)):
        span = 80 if kind == 2 else len(out)
        out[rng.randrange(min(span, len(out)))] ^= rng.randint(1, 255)
    return bytes(out)


def _pinned_frames() -> list:
    """Seeded simulator frames of every bundled model, with nothing and with
    each first-level flow blocked, IPv6 and IP-option variants of them, and
    20,000 mutations of those."""
    bases = []
    for path in sorted(MODEL_DIR.glob("*.json")):
        model = load_model(path)
        tree = oracle_tree(model)
        first_level = [tree.node(h).flow
                       for h in tree.node(tree.root).children]
        for seed, rules in enumerate(
                [RuleSet()] + [compile_rules([f]) for f in first_level]):
            for pkt in run_capture(model, rules, seed).trace.packets:
                frame = _synth_frame(pkt, pkt.wire_len)
                bases.append(frame)
                if frame[12:14] == b"\x08\x00":
                    bases.append(_as_ipv6(frame, len(bases) % 2 == 1))
                    bases.append(_with_ipv4_options(frame))
    rng = random.Random(8)
    return bases + [_mutated(rng.choice(bases), rng) for _ in range(20_000)]


def _clear_payload_memos():
    pcapio._parse_dns.cache_clear()
    pcapio._parse_sni.cache_clear()


def _payload_memo_stats():
    infos = (pcapio._parse_dns.cache_info(), pcapio._parse_sni.cache_info())
    return (sum(i.misses for i in infos), sum(i.hits for i in infos),
            sum(i.currsize for i in infos))


def test_dissector_output_is_pinned():
    """A digest of what dissect returns for every pinned frame, so any
    change to its output shows.  Each frame dissects alike with its DNS or
    ClientHello payload parsed afresh, then from the payload memo, then
    from the memo as a bytearray frame (an address or payload slice left a
    bytearray is unhashable for the memos, which would degrade the frame to
    `undecoded`)."""
    digest = hashlib.sha256()
    for i, frame in enumerate(_pinned_frames()):
        _clear_payload_memos()
        pkt = dissect(frame, i)
        assert dissect(frame, i) == pkt
        assert dissect(bytearray(frame), i) == pkt
        misses, hits, _ = _payload_memo_stats()
        assert misses <= 1 and hits == 2 * misses
        digest.update(repr(pkt).encode() + b"\n")
    assert digest.hexdigest() == (
        "0511a2a86b5db3149507f462fdaa76202fd1589593adcab06f7a6a5e93b46514")


def _dns_response_frame():
    response = _data(
        src_addr="192.168.1.1", dst_addr="192.168.1.53",
        src_port=53, dst_port=51111, transport="udp", tcp_flags=None,
        app=DnsSelector(qtype="A", qname="use1-api.tplinkra.com"),
        dns_answers=(("use1-api.tplinkra.com", "52.44.10.100"),),
    )
    return response, _synth_frame(response, 0)


@pytest.mark.parametrize("first, second", [(bytes, bytearray),
                                           (bytearray, bytes)])
def test_bytes_and_bytearray_frames_share_one_memo_entry(first, second):
    response, frame = _dns_response_frame()
    _clear_payload_memos()
    pkt = dissect(first(frame), 7)
    assert dissect(second(frame), 7) == pkt
    assert pkt.app == response.app
    assert pkt.dns_answers == response.dns_answers
    assert _payload_memo_stats() == (1, 1, 1)


def test_dns_parse_checks_each_name_once(monkeypatch):
    """A DNS response's qname is checked by its selector only, and each
    answer name once, on a cold parse as on any other."""
    response, frame = _dns_response_frame()
    calls = []

    def counted(name):
        calls.append(name)
        return is_valid_domain(name)

    monkeypatch.setattr(core, "is_valid_domain", counted)
    monkeypatch.setattr(pcapio, "is_valid_domain", counted)
    _clear_payload_memos()
    assert dissect(frame).app == response.app
    assert calls == ["use1-api.tplinkra.com"] * 2



# -- IPv4 boundaries --------------------------------------------------------------


def _ipv4_frame(l4: bytes, proto: int = 6, options: bytes = b"",
                total=None, frag: int = 0, trailer: bytes = b"") -> bytes:
    """An IPv4 frame 192.168.1.53 -> 52.44.10.100 carrying `l4`, its total
    length the header's and l4's unless given, `trailer` after the packet."""
    ihl = 5 + len(options) // 4
    if total is None:
        total = 4 * ihl + len(l4)
    header = struct.pack(">BBHHHBBH4s4s", 0x40 | ihl, 0, total, 0, frag, 64,
                         proto, 0, bytes([192, 168, 1, 53]),
                         bytes([52, 44, 10, 100]))
    return b"\x02" * 12 + b"\x08\x00" + header + options + l4 + trailer


def _tcp(flags: int, payload: bytes = b"", offset: int = 5) -> bytes:
    return struct.pack(">HHIIBBHHH", 49321, 80, 1, 1, offset << 4, flags,
                       8192, 0, 0) + payload


def _udp(sport: int, dport: int, payload: bytes, length=None) -> bytes:
    length = 8 + len(payload) if length is None else length
    return struct.pack(">HHHH", sport, dport, length, 0) + payload


_GET = b"GET /x HTTP/1.1\r\n\r\n"
_GET_X = HttpSelector(method="GET", uri="/x")
_QUERY_APP = DnsSelector(qtype="A", qname="a.example")
_QUERY = pcapio._synth_dns(_QUERY_APP, ())
_COAP = pcapio._synth_coap(CoapSelector(type="CON", code="GET", uri_path="/x"))


@pytest.mark.parametrize("frame, expected", [
    (_ipv4_frame(_tcp(TCP_PSH | TCP_ACK, _GET), options=b"\x01" * 4),
     dict(transport="tcp", src_port=49321, dst_port=80, app=_GET_X)),
    # Ethernet padding past the IP total length is not payload
    (_ipv4_frame(_tcp(TCP_ACK), trailer=_GET),
     dict(transport="tcp", app=None, control_plane=True)),
    # a total length below the IHL (0 under segmentation offload) is ignored
    (_ipv4_frame(_tcp(TCP_PSH | TCP_ACK, _GET), total=19),
     dict(transport="tcp", app=_GET_X, control_plane=False)),
    # a data offset under 5 leaves no payload: the flags decide alone
    (_ipv4_frame(_tcp(TCP_PSH | TCP_ACK, _GET, offset=4)),
     dict(transport="tcp", app=None, control_plane=True, tcp_flags=0x18)),
    (_ipv4_frame(_tcp(TCP_PSH, _GET, offset=4)),
     dict(transport="tcp", app=None, control_plane=False, tcp_flags=0x08)),
    # a UDP length under 8 is ignored: the IP length bounds the payload
    (_ipv4_frame(_udp(40000, 53, _QUERY, length=4), proto=17),
     dict(transport="udp", app=_QUERY_APP, control_plane=False)),
    (_ipv4_frame(_udp(68, 67, _COAP), proto=17),
     dict(transport="udp", src_port=68, app=None, control_plane=True)),
    (_ipv4_frame(_udp(67, 68, _COAP), proto=17),
     dict(transport="udp", src_port=67, app=None, control_plane=True)),
    (_ipv4_frame(_udp(5353, 5353, _QUERY), proto=17),
     dict(transport="udp", app=_QUERY_APP, tcp_flags=None)),
    (_ipv4_frame(_tcp(TCP_PSH | TCP_ACK, _GET), frag=185),
     dict(transport="ip-frag", src_port=None, app=None, tcp_flags=None)),
], ids=["ihl-6-options", "ip-length-short-of-frame", "ip-length-below-ihl",
        "tcp-offset-4-ack", "tcp-offset-4-no-ack", "udp-length-under-8",
        "dhcp-68-to-67", "dhcp-67-to-68", "dns-port-5353", "later-fragment"])
def test_ipv4_frame_boundaries(frame, expected):
    pkt = dissect(frame, 5)
    assert (pkt.ts_us, pkt.src_addr, pkt.dst_addr, pkt.wire_len) == (
        5, "192.168.1.53", "52.44.10.100", len(frame))
    assert {field: getattr(pkt, field) for field in expected} == expected
    assert dissect(bytearray(frame), 5) == pkt


# -- payloads that never repeat ---------------------------------------------------


def _randomized(data: bytes, packets, rng) -> bytes:
    """The write_pcap capture `data` of `packets` with each DNS ID, each
    ClientHello random and each opaque TCP or UDP payload drawn from `rng`,
    as they differ from message to message in a real capture."""
    out = bytearray(data)
    end = 24
    for pkt in packets:
        start = end + 16
        end = start + struct.unpack_from("<IIII", out, end)[2]
        if pkt.transport not in ("tcp", "udp"):
            continue
        start += pcapio.headers_len(pkt.transport, 6 if ":" in pkt.src_addr
                                    else 4)
        if isinstance(pkt.app, DnsSelector):
            out[start:start + 2] = rng.randbytes(2)
        elif pkt.sni:
            out[start + 11:start + 43] = rng.randbytes(32)  # after 3 headers
        elif pkt.app is None and not pkt.control_plane:
            out[start:end] = rng.randbytes(end - start)
    return bytes(out)


def test_payloads_that_never_repeat_dissect_alike():
    """Every bundled model's captures with the per-message bytes drawn at
    random: the DNS and ClientHello memos only miss, and what they held
    before is read off each frame again."""
    rng = random.Random(19)
    for path in sorted(MODEL_DIR.glob("*.json")):
        model = load_model(path)
        for seed in range(3):
            packets = run_capture(model, RuleSet(), seed).trace.packets
            data = write_pcap(Trace(packets=packets))
            randomized = _randomized(data, packets, rng)
            assert randomized != data or all(
                isinstance(p.app, CoapSelector) for p in packets
                if p.transport in ("tcp", "udp"))
            _clear_payload_memos()
            back = read_pcap(randomized).packets
            misses, hits, _ = _payload_memo_stats()
            assert hits == 0
            assert misses == sum(isinstance(p.app, DnsSelector) or bool(p.sni)
                                 for p in packets)
            assert back == tuple(dissect(frame, pkt.ts_us) for frame, pkt
                                 in zip(_frames(randomized), packets))
            assert all(p.transport != "undecoded" for p in back)
            for sent, read in zip(packets, back):
                if isinstance(sent.app, (DnsSelector, CoapSelector)):
                    assert (read.app, read.dns_answers) == \
                        (sent.app, sent.dns_answers)
                if sent.sni:
                    assert read.sni == sent.sni


# -- frame memo -------------------------------------------------------------------


def _frames(data: bytes) -> list:
    """The frames of a write_pcap capture, in record order."""
    frames, offset = [], 24
    while offset < len(data):
        incl = struct.unpack_from("<IIII", data, offset)[2]
        frames.append(data[offset + 16:offset + 16 + incl])
        offset += 16 + incl
    return frames


@pytest.mark.parametrize("src, dst", [("192.168.1.53", "52.44.10.100"),
                                      ("fd00::53", "2001:db8::1")],
                         ids=["ipv4", "ipv6"])
@pytest.mark.parametrize("fields", [
    dict(transport="tcp", sni="use1-api.tplinkra.com"),
    dict(transport="tcp", control_plane=True, tcp_flags=TCP_SYN),
    dict(transport="udp", tcp_flags=None,
         app=CoapSelector(type="CON", code="GET", uri_path="/x")),
    dict(transport="udp", tcp_flags=None,
         app=DnsSelector(qtype="A", qname="use1-api.tplinkra.com"),
         dns_answers=(("use1-api.tplinkra.com", "52.44.10.100"),)),
], ids=["tcp-sni", "tcp-syn", "udp-coap", "udp-dns"])
def test_packets_differing_in_ports_differ_in_the_port_words_only(
        src, dst, fields):
    """The second packet's frame is the first's, read from the frame memo,
    with other port words spliced in: byte for byte what the synthesizer
    builds for it."""
    one = _data(src_addr=src, dst_addr=dst, **fields)
    two = one._replace(ts_us=one.ts_us + 1, src_port=53, dst_port=None)
    pcapio._port_free_frame.cache_clear()
    first, second = _frames(write_pcap(Trace(packets=(one, two))))
    info = pcapio._port_free_frame.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert first == _synth_frame(one, one.wire_len)
    assert second == _synth_frame(two, two.wire_len)
    ports = 34 if one.src_addr.count(".") == 3 else 54
    assert len(first) == len(second)
    assert first[:ports] == second[:ports]
    assert first[ports + 4:] == second[ports + 4:]
    assert first[ports:ports + 4] == struct.pack(">HH", 49321, 443)
    assert second[ports:ports + 4] == struct.pack(">HH", 53, 0)


@pytest.mark.parametrize("src, dst, error, message", [
    ("a.example", "52.44.10.100", UnresolvedHost, "cannot resolve host"),
    ("192.168.1.53", "2001:db8::1", ValueError, "mixed address families"),
])
def test_the_frame_memo_keeps_no_failure(src, dst, error, message):
    pcapio._port_free_frame.cache_clear()
    for transport in ("tcp", "udp"):
        pkt = _data(src_addr=src, dst_addr=dst, transport=transport)
        for _ in range(3):
            with pytest.raises(error, match=message):
                write_pcap(Trace(packets=(pkt,)))
    info = pcapio._port_free_frame.cache_info()
    assert (info.hits, info.currsize) == (0, 0)


def test_the_frame_memo_stays_within_its_bound():
    pcapio._port_free_frame.cache_clear()
    for path in sorted(MODEL_DIR.glob("*.json")):
        model = load_model(path)
        for seed in range(3):
            write_pcap(run_capture(model, RuleSet(), seed).trace)
    info = pcapio._port_free_frame.cache_info()
    assert info.maxsize == pcapio.PAYLOAD_CACHE_SIZE
    assert 0 < info.currsize <= info.maxsize
    assert info.hits > info.misses


@pytest.mark.parametrize("transport", ["tcp", "udp"])
@pytest.mark.parametrize("src, dst, largest", [
    ("192.168.1.53", "52.44.10.100", 14 + 0xFFFF),
    ("fd00::53", "2001:db8::1", 54 + 0xFFFF),
], ids=["ipv4", "ipv6"])
def test_a_frame_its_ip_length_field_cannot_hold_is_refused(
        src, dst, largest, transport):
    """The IPv4 total length counts the IP header, the IPv6 payload length
    does not; both are 16 bits wide."""
    pkt = _data(src_addr=src, dst_addr=dst, transport=transport,
                tcp_flags=None, wire_len=largest)
    assert _round_trip(pkt).wire_len == largest
    version = 4 if src.count(".") == 3 else 6
    for bad in (pkt._replace(wire_len=largest + 1), pkt._replace(
            wire_len=0, app=HttpSelector(method="GET", uri="/" + "a" * 70000))):
        with pytest.raises(ValueError, match=(
                rf"an IPv{version} length field cannot hold \d+ bytes")):
            write_pcap(Trace(packets=(bad,)))
    with pytest.raises(ValueError, match="65536 bytes"):
        write_pcap(Trace(packets=(pkt._replace(wire_len=largest + 1),)))
