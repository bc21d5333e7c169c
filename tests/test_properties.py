import json
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from flowprof import (
    CoapSelector,
    Direction,
    DnsSelector,
    EventSignature,
    FlowId,
    HostRef,
    HttpSelector,
    ParsedPacket,
    SigTree,
    Transport,
    canonicalize,
    compile_rules,
    extract_signature,
    matches_flow,
    render,
    sorted_flows,
)
from flowprof.blocklist import parse as parse_rules
from flowprof.pcapio import _synth_frame, frame_len

HOSTS = st.sampled_from([
    HostRef.role("device"),
    HostRef.role("phone"),
    HostRef.role("gateway"),
    HostRef.broadcast(),
    HostRef.multicast("224.0.0.251"),
    HostRef.domain("a.example"),
    HostRef.domain("cdn.vendor-cloud.example"),
    HostRef.address("52.1.2.3"),
    HostRef.address("114.114.114.114"),
    HostRef.address("2001:db8::17"),
])
PORTS = st.one_of(st.none(), st.sampled_from(
    [53, 80, 123, 443, 5353, 5683, 8883, 9999, 49152]))
QNAMES = st.sampled_from(
    ["a.example", "n-devs.vendor.example", "_hue._tcp.local"])


@st.composite
def apps(draw):
    kind = draw(st.sampled_from(["none", "dns", "http", "coap"]))
    if kind == "none":
        return None
    if kind == "dns":
        return DnsSelector(qtype=draw(st.sampled_from(["A", "AAAA", "PTR"])),
                           qname=draw(QNAMES))
    if kind == "http":
        return HttpSelector(
            method=draw(st.sampled_from(["", "GET", "POST"])),
            uri=draw(st.sampled_from(["", "/", "/api/toggle"])),
            is_response=draw(st.booleans()))
    return CoapSelector(
        type=draw(st.sampled_from(["CON", "NON", "ACK", "RST"])),
        code=draw(st.sampled_from(["GET", "2.05", "0.01"])),
        uri_path=draw(st.sampled_from(["", "/state"])))


@st.composite
def flow_ids(draw):
    app = draw(apps())
    transport = Transport.UDP if isinstance(app, DnsSelector) \
        else draw(st.sampled_from([Transport.TCP, Transport.UDP]))
    resp_port = draw(st.sampled_from([None, 53, 5353])) \
        if isinstance(app, DnsSelector) else draw(PORTS)
    return FlowId(
        initiator=draw(HOSTS),
        responder=draw(HOSTS),
        initiator_port=draw(PORTS),
        responder_port=resp_port,
        transport=transport,
        direction=draw(st.sampled_from(list(Direction))),
        app=app,
    )


@given(flow_ids())
def test_flow_obj_round_trip(flow):
    assert FlowId.from_obj(json.loads(flow.canonical_json())) == flow


@given(flow_ids())
def test_canonicalize_idempotent(flow):
    once = canonicalize(flow)
    assert canonicalize(once) == once
    if flow.direction is Direction.UNIDIRECTIONAL:
        assert once == flow


@given(st.lists(flow_ids(), max_size=8))
def test_sorted_flows_is_total_and_stable(flows):
    ordering = sorted_flows(frozenset(flows))
    assert ordering == sorted_flows(reversed(ordering))
    keys = [f.canonical_json() for f in ordering]
    assert keys == sorted(keys)


@given(st.lists(flow_ids(), min_size=1, max_size=6))
def test_rules_render_parse_identity(flows):
    rules = compile_rules(flows)
    text = render(rules)
    parsed = parse_rules(text)
    assert parsed == rules
    assert render(parsed) == text


@given(st.lists(flow_ids(), min_size=1, max_size=6))
def test_compiled_rules_match_their_flows(flows):
    rules = compile_rules(flows)
    for flow in flows:
        assert matches_flow(rules.rules, flow)


@given(st.data())
def test_signature_soundness_and_monotonicity(data):
    pool = data.draw(st.lists(flow_ids(), min_size=1, max_size=6,
                              unique=True))
    sets = data.draw(st.lists(
        st.frozensets(st.sampled_from(pool)), min_size=1, max_size=6))
    sig = extract_signature(sets, m=len(sets))
    for flow_set in sets:
        assert sig.flows <= flow_set
    extra = data.draw(st.frozensets(st.sampled_from(pool)))
    grown = extract_signature(sets + [extra], m=len(sets) + 1)
    assert grown.flows <= sig.flows


@given(st.data())
@settings(deadline=None)
def test_tree_export_import_identity(data):
    pool = data.draw(st.lists(flow_ids(), min_size=1, max_size=5,
                              unique=True))
    tree = SigTree(pruning=data.draw(st.booleans()))
    for _ in range(6):
        node = tree.next_node()
        if node is None:
            break
        if node != 0 and data.draw(st.booleans()):
            tree.mark_failed(node)
            continue
        picked = data.draw(st.frozensets(st.sampled_from(pool)))
        tree.add_children(node, EventSignature(
            flows=picked, m=3, m_plus=3))
    blob = tree.export_json()
    clone = SigTree.import_json(blob)
    assert clone.export_json() == blob
    assert clone.stats() == tree.stats()


V4 = st.ip_addresses(v=4).map(str)
V6 = st.ip_addresses(v=6).map(str)


@st.composite
def synthesizable_packets(draw):
    """Packets write_pcap can build: TCP/UDP over IPv4 or IPv6 with every
    payload kind (none, DNS with or without answers, HTTP, CoAP, TLS SNI),
    ARP over IPv4, ICMP and ICMPv6, control plane or not, any wire_len."""
    transport = draw(st.sampled_from(["tcp", "udp", "arp", "icmp", "icmpv6"]))
    app, answers, sni = None, (), None
    if transport in ("tcp", "udp"):
        app = draw(apps())
        if isinstance(app, DnsSelector):
            transport = "udp"
            answers = tuple(draw(st.lists(
                st.tuples(QNAMES, st.one_of(V4, V6)), max_size=3)))
        elif app is None and transport == "tcp":
            sni = draw(st.one_of(st.none(), QNAMES))
        addrs = draw(st.sampled_from([V4, V6]))
    else:
        addrs = V6 if transport == "icmpv6" else V4
    return ParsedPacket(
        ts_us=0, src_addr=draw(addrs), dst_addr=draw(addrs),
        src_port=draw(PORTS), dst_port=draw(PORTS), transport=transport,
        app=app, dns_answers=answers, sni=sni,
        wire_len=draw(st.integers(0, 1600)),
        control_plane=draw(st.booleans()),
        tcp_flags=draw(st.one_of(st.none(), st.integers(0, 255)))
        if transport == "tcp" else None,
    )


@given(synthesizable_packets())
def test_frame_len_is_the_unpadded_synthesized_length(pkt):
    assert frame_len(pkt) == len(_synth_frame(replace(pkt, wire_len=0), None))
