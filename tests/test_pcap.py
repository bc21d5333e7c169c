import struct
from dataclasses import replace

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
    compile_rules,
    dissect,
    filter_control_plane,
    load_model,
    oracle_tree,
    read_pcap,
    run_capture,
    write_pcap,
)
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


def test_rejects_non_pcap_input():
    with pytest.raises(MalformedHeader):
        read_pcap(b"not a capture file at all....")
    with pytest.raises(MalformedHeader):
        read_pcap(struct.pack("<IHHiIII", 0x0A0D0D0A, 2, 4, 0, 0, 0, 1))
    with pytest.raises(MalformedHeader):
        read_pcap(b"\x00" * 10)


def test_rejects_truncated_record():
    data = write_pcap(Trace(packets=(_data(),)))
    with pytest.raises(TruncatedRecord):
        read_pcap(data[:-3])
    with pytest.raises(TruncatedRecord):
        read_pcap(data[: 24 + 7])


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


@pytest.mark.parametrize("path", sorted(MODEL_DIR.glob("*.json")),
                         ids=lambda path: path.stem)
def test_frame_len_matches_the_synthesized_frame(path):
    model = load_model(path)
    tree = oracle_tree(model)
    first_level = [tree.node(h).flow for h in tree.node(tree.root).children]
    for rules in [RuleSet()] + [compile_rules([f]) for f in first_level]:
        for seed in range(5):
            for pkt in run_capture(model, rules, seed).trace.packets:
                frame = _synth_frame(replace(pkt, wire_len=0), model.topology)
                assert frame_len(pkt, model.topology) == len(frame)
