import copy
import json
from dataclasses import replace
from unittest import mock

from hypothesis import assume, example, given, settings, strategies as st

from flowprof import (
    CoapSelector,
    Direction,
    DnsSelector,
    DnsTable,
    EventSignature,
    FlowId,
    HostRef,
    HttpSelector,
    ParsedPacket,
    Rule,
    RuleSet,
    SigTree,
    Trace,
    Transport,
    aggregate_flows,
    canonicalize,
    compile_rules,
    extract_signature,
    matches_flow,
    matches_packet,
    render,
    sorted_flows,
)
from flowprof import signature
from flowprof.blocklist import parse as parse_rules
from flowprof.pcapio import _synth_frame, frame_len
from flowprof.simnet import EPHEMERAL_HI, EPHEMERAL_LO

from test_blocklist import (DOMAIN_ADDRS, TABLE, TOPO, blocks, flow_packets,
                            one_field_variants)
from test_pcap import padded_len
from test_sigtree import assert_stdlib_encoding, dot_is_well_formed

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
        code=draw(st.sampled_from(["GET", "2.05", "0.00"])),
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


@given(flow_ids(), st.booleans(), flow_ids())
def test_flow_equality_is_canonical_json_equality(a, copy, other):
    # sets key on FlowId equality, files on canonical JSON: both must agree
    b = FlowId.from_obj(json.loads(a.canonical_json())) if copy else other
    assert (a == b) == (a.canonical_json() == b.canonical_json())
    if a == b:
        assert hash(a) == hash(b)


def _one_identity(a, b):
    """Equal values hash equal and encode alike, as sets and files need."""
    assert a == b
    assert hash(a) == hash(b)
    assert a.canonical_json() == b.canonical_json()
    for host_a, host_b in ((a.initiator, b.initiator),
                           (a.responder, b.responder)):
        assert host_a == host_b and hash(host_a) == hash(host_b)


def _rebuilt_in_a_tree(flow: FlowId) -> FlowId:
    tree = SigTree()
    tree.add_children(tree.next_node(), EventSignature(
        flows=frozenset([flow]), m=1, m_plus=1))
    return SigTree.import_json(tree.export_json()).node(1).flow


@given(flow_ids())
def test_equal_flows_hash_and_encode_alike_however_built(flow):
    for built in (FlowId.from_obj(flow.to_obj()),
                  replace(flow),
                  replace(replace(flow, initiator_port=None),
                          initiator_port=flow.initiator_port),
                  copy.deepcopy(flow),
                  _rebuilt_in_a_tree(flow)):
        _one_identity(flow, built)
    _one_identity(canonicalize(flow), canonicalize(replace(flow)))
    if flow.direction is Direction.BIDIRECTIONAL \
            and not isinstance(flow.app, DnsSelector):
        _one_identity(canonicalize(flow), canonicalize(_swapped(flow)))


# host texts that normalize to the same host
ALIKE_HOSTS = st.sampled_from([
    ("ip:[::0001]", "ip:[::1]"),
    ("ip:[2001:DB8:0::17]", "ip:[2001:db8::17]"),
    ("multicast:FF02::FB", "multicast:ff02:0:0::fb"),
])


@given(flow_ids(), ALIKE_HOSTS, st.booleans())
def test_hosts_written_two_ways_are_one_identity(flow, texts, as_initiator):
    one, other = (HostRef.from_token(text) for text in texts)
    assert one == other and hash(one) == hash(other)
    assert one.token() == other.token()
    slot = "initiator" if as_initiator else "responder"
    _one_identity(replace(flow, **{slot: one}),
                  replace(flow, **{slot: other}))


@given(flow_ids())
def test_canonical_json_is_the_compact_encoding_on_every_call(flow):
    fresh = replace(flow)  # nothing has encoded this instance yet
    text = json.dumps(flow.to_obj(), separators=(",", ":"),
                      ensure_ascii=True)
    assert fresh.canonical_json() == text
    assert fresh.canonical_json() == text
    assert flow.canonical_json() == text


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


@given(flow_ids())
def test_compiled_rule_blocks_its_flow_and_no_one_field_variant(flow):
    rules = compile_rules([flow])
    assert blocks(rules, flow)
    for variant in one_field_variants(flow):
        assert not blocks(rules, variant), variant


@given(st.lists(flow_ids(), min_size=1, max_size=6))
def test_compiled_rules_match_their_flows(flows):
    rules = compile_rules(flows)
    for flow in flows:
        assert blocks(rules.rules, flow)


@given(flow_ids(), st.data())
def test_a_rule_sets_verdict_is_the_or_of_its_parts(flow, data):
    a = data.draw(st.lists(near_flows(flow), max_size=3))
    b = data.draw(st.lists(near_flows(flow), max_size=3))
    assert blocks(compile_rules(a + b), flow) == (
        blocks(compile_rules(a), flow) or blocks(compile_rules(b), flow))


UNPINNED_PORT = 60001  # no rule pins it
EPHEMERAL_PORTS = (UNPINNED_PORT, EPHEMERAL_LO, EPHEMERAL_HI)


def _loosen(line: str, keep: list) -> str:
    """The rule line with the ports and matchers whose `keep` flag is false
    dropped, so they become wildcards."""
    tokens = line.split()
    for i in (3, 5):
        host, sep, port = tokens[i].rpartition(":")
        if sep and port.isdigit() and not keep.pop():
            tokens[i] = host
    pairs = [tokens[j:j + 2] for j in range(8, len(tokens), 2)]
    return " ".join(tokens[:8] + [t for pair in pairs if keep.pop()
                                  for t in pair])


@st.composite
def near_flows(draw, flow):
    """A drawn flow that shares each group of fields with `flow` at even
    odds, its ends swapped at even odds, so rules often touch `flow`."""
    near = draw(flow_ids())
    for group in (("initiator", "responder"), ("initiator_port",),
                  ("transport", "responder_port", "app"), ("direction",)):
        if draw(st.booleans()):
            near = replace(near, **{name: getattr(flow, name)
                                    for name in group})
    if draw(st.booleans()) and not isinstance(near.app, DnsSelector):
        near = replace(near, initiator=near.responder,
                       responder=near.initiator,
                       initiator_port=near.responder_port,
                       responder_port=near.initiator_port)
    return near


def _near_rules(flow, data):
    """Rules compiled from 1-3 flows near `flow`, each of their ports and
    matchers dropped at even odds."""
    others = data.draw(st.lists(near_flows(flow), min_size=1, max_size=3))
    lines = render(compile_rules(others)).splitlines()
    return parse_rules("".join(_loosen(line, data.draw(st.lists(
        st.booleans(), min_size=8, max_size=8))) + "\n" for line in lines))


@given(flow_ids(), st.data())
def test_a_rule_blocks_a_flow_iff_it_drops_one_of_its_packets(flow, data):
    """matches_flow on the flow's packets, each unpinned port None, is true
    iff matches_packet drops one of them at every drawn pair of ports.  A
    rule compiled from the flow with its unpinned ports pinned to drawn
    ones is always among the rules: it drops the flow at those ports only."""
    rule = Rule.from_flow(flow)
    drawn = st.sampled_from((EPHEMERAL_LO, EPHEMERAL_HI))
    pinned = Rule(replace(
        rule.pattern,
        initiator_port=flow.initiator_port or data.draw(drawn),
        responder_port=flow.responder_port or data.draw(drawn)), rule.matchers)
    rules = RuleSet((pinned,) + _near_rules(flow, data).rules)
    assert matches_flow(rules, flow_packets(flow), TABLE) == all(
        any(matches_packet(rules, p, TABLE)
            for p in flow_packets(flow, init_port, resp_port))
        for init_port in EPHEMERAL_PORTS for resp_port in EPHEMERAL_PORTS)


@given(flow_ids(), st.data())
def test_without_a_pinned_ephemeral_port_no_drawn_port_changes_the_verdict(
        flow, data):
    """When no rule pins a port >= EPHEMERAL_LO, matches_packet drops one of
    a flow's packets at drawn ports iff matches_flow blocks the flow on its
    None-port packets: a capture need not check its packets one by one."""
    rules = _near_rules(flow, data)
    assume(all(port is None or port < EPHEMERAL_LO for rule in rules
               for port in (rule.pattern.initiator_port,
                            rule.pattern.responder_port)))
    drawn = st.integers(EPHEMERAL_LO, EPHEMERAL_HI)
    packets = flow_packets(flow, data.draw(drawn), data.draw(drawn))
    assert any(matches_packet(rules, p, TABLE) for p in packets) \
        == matches_flow(rules, flow_packets(flow), TABLE)


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


ODD_URIS = st.sampled_from(['/a"b\\', "/caf\u00e9/\u2603", '/\\"\u00fc"'])


@st.composite
def odd_uri_flows(draw):
    """A drawn flow whose HTTP or CoAP URI, if it has one, holds characters
    that JSON and DOT escape."""
    flow = draw(flow_ids())
    if isinstance(flow.app, HttpSelector):
        return replace(flow, app=replace(flow.app, uri=draw(ODD_URIS)))
    if isinstance(flow.app, CoapSelector):
        return replace(flow, app=replace(flow.app, uri_path=draw(ODD_URIS)))
    return flow


@given(st.data())
@settings(deadline=None)
def test_tree_export_import_identity(data):
    pool = data.draw(st.lists(st.one_of(flow_ids(), odd_uri_flows()),
                              min_size=1, max_size=5, unique=True))
    tree = SigTree(pruning=data.draw(st.booleans()))
    for _ in range(6):
        node = tree.next_node()
        if node is None:
            break
        action = data.draw(st.sampled_from(["expand", "fail", "prune"]))
        if action == "prune":
            tree.prune(node, data.draw(st.text(max_size=8)))
        elif node != 0 and action == "fail":
            tree.mark_failed(node)
        else:
            picked = data.draw(st.frozensets(st.sampled_from(pool)))
            tree.add_children(node, EventSignature(
                flows=picked, m=3, m_plus=3))
    assert_stdlib_encoding(tree)
    assert dot_is_well_formed(tree.to_dot())


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


@given(synthesizable_packets(), st.integers(-80, 80))
def test_frame_len_is_the_unpadded_synthesized_length(pkt, offset):
    """Synthesized for a wire_len near its frame_len, a TCP or UDP frame is
    max(wire_len, frame_len) long; an ARP or ICMP frame is never padded."""
    wire_len = max(0, frame_len(pkt) + offset)
    assert len(_synth_frame(pkt, wire_len)) == padded_len(pkt, wire_len)


ADDRS = st.sampled_from([
    TOPO.device_addr, TOPO.phone_addr, TOPO.gateway_addr,
    *DOMAIN_ADDRS.values(), "203.0.113.9", "2001:db8::17", "224.0.0.251",
    "255.255.255.255",
])


@st.composite
def data_packets(draw, dns=True):
    """Packets aggregation groups: TCP or UDP, any app selector (a DNS one
    only if `dns`), DNS answers and SNI that name the drawn addresses."""
    app = draw(apps() if dns else
               apps().filter(lambda app: not isinstance(app, DnsSelector)))
    transport = "udp" if isinstance(app, DnsSelector) \
        else draw(st.sampled_from(["tcp", "udp"]))
    answers = tuple(draw(st.lists(st.tuples(QNAMES, ADDRS), max_size=2))) \
        if isinstance(app, DnsSelector) else ()
    sni = draw(st.one_of(st.none(), QNAMES)) \
        if app is None and transport == "tcp" else None
    return ParsedPacket(
        ts_us=0, src_addr=draw(ADDRS), dst_addr=draw(ADDRS),
        src_port=draw(PORTS), dst_port=draw(PORTS), transport=transport,
        app=app, dns_answers=answers, sni=sni)


@st.composite
def control_packets(draw):
    """Control-plane packets that carry no name for the DNS table."""
    return ParsedPacket(
        ts_us=0, src_addr=draw(ADDRS), dst_addr=draw(ADDRS),
        src_port=draw(PORTS), dst_port=draw(PORTS),
        transport=draw(st.sampled_from(["tcp", "udp", "arp", "icmp"])),
        app=draw(apps()), control_plane=True)


TRACE_SETS = st.lists(st.lists(data_packets(), max_size=8),
                      min_size=1, max_size=4)


def _aggregate(traces: list) -> tuple:
    """(flow sets, the DNS table they were named by) of packet lists."""
    table = DnsTable(TOPO, {addr: name for name, addr in DOMAIN_ADDRS.items()})
    flow_sets = aggregate_flows([Trace(tuple(t)) for t in traces], table)
    return flow_sets, table


@given(TRACE_SETS, st.data())
def test_aggregation_ignores_repeats_and_control_plane_packets(traces, data):
    changed = []
    for packets in traces:
        out = []
        for pkt in packets:
            out += data.draw(st.lists(control_packets(), max_size=2))
            out += [pkt] * data.draw(st.integers(1, 2))
        changed.append(out + data.draw(st.lists(control_packets(),
                                                max_size=2)))
    assert _aggregate(changed)[0] == _aggregate(traces)[0]


def _swapped(flow: FlowId) -> FlowId:
    return replace(flow, initiator=flow.responder, responder=flow.initiator,
                   initiator_port=flow.responder_port,
                   responder_port=flow.initiator_port)


@given(TRACE_SETS, data_packets(dns=False), st.data())
def test_the_first_direction_seen_names_the_initiator(traces, pkt, data):
    # Canonicalization is patched out so the orientation shows; DNS groups
    # are left out because their client slot never keeps a non-DNS port.
    index = data.draw(st.integers(0, len(traces) - 1))
    back = pkt._replace(src_addr=pkt.dst_addr, dst_addr=pkt.src_addr,
                        src_port=pkt.dst_port, dst_port=pkt.src_port)

    def led_by(first, second):
        return traces[:index] + [[first, second] + traces[index]] \
            + traces[index + 1:]

    with mock.patch.object(signature, "canonicalize", lambda flow: flow):
        forward, table = _aggregate(led_by(pkt, back))
        reverse, _ = _aggregate(led_by(back, pkt))
    src, dst = table.name(pkt.src_addr), table.name(pkt.dst_addr)
    (flow,) = [f for f in forward[index]
               if f.transport.value == pkt.transport and f.app == pkt.app
               and {f.initiator, f.responder} == {src, dst}]
    assert flow.initiator == src
    assert reverse[index] == forward[index] - {flow} | {_swapped(flow)}
    del forward[index], reverse[index]
    assert reverse == forward


# ports a conversation keeps in every capture, and ports drawn per capture
# (None: the end has no port in that capture)
FIXED_PORTS = st.sampled_from([53, 443, 5353, 7000, 8899, 49152])
DRAWN_PORTS = st.one_of(st.none(), st.sampled_from([0, 7000, 49152, 50001,
                                                    50002, 61000]))


@st.composite
def conversations(draw):
    """Two addresses, transport and app of one group, each end's port
    fixed for the whole set or (None) drawn per capture."""
    app = draw(apps())
    transport = "udp" if isinstance(app, DnsSelector) \
        else draw(st.sampled_from(["tcp", "udp"]))
    return (draw(ADDRS), draw(ADDRS), transport, app,
            draw(st.one_of(st.none(), FIXED_PORTS)),
            draw(st.one_of(st.none(), FIXED_PORTS)))


@st.composite
def retention_cases(draw):
    """Capture sets over a few conversations: a conversation is held by some
    captures only, sends either way first, or one way only (a DNS one sent
    by its server only is a response-only group), and its drawn ports may
    recur or be missing in some captures."""
    pool = draw(st.lists(conversations(), min_size=1, max_size=4))
    traces = []
    for _ in range(draw(st.integers(1, 5))):
        packets = []
        for a, b, transport, app, a_port, b_port in draw(
                st.lists(st.sampled_from(pool), max_size=5)):
            ports = (draw(DRAWN_PORTS) if a_port is None else a_port,
                     draw(DRAWN_PORTS) if b_port is None else b_port)
            # the ends that send, in order: one way only, or both
            for sender in draw(st.sampled_from(["a", "b", "ab", "ba"])):
                (src, sport), (dst, dport) = ((a, ports[0]), (b, ports[1])) \
                    if sender == "a" else ((b, ports[1]), (a, ports[0]))
                answers = tuple(draw(st.lists(st.tuples(QNAMES, ADDRS),
                                              max_size=1))) \
                    if isinstance(app, DnsSelector) else ()
                packets.append(ParsedPacket(
                    ts_us=0, src_addr=src, dst_addr=dst, src_port=sport,
                    dst_port=dport, transport=transport, app=app,
                    dns_answers=answers))
        traces.append(packets)
    return traces


def _by_the_rule(traces: list, table: DnsTable) -> list:
    """aggregate_flows restated from its docstring: each trace's groups,
    then one port decision per group and host over the traces holding the
    group."""
    for packets in traces:
        for pkt in packets:
            table.update(pkt)
    per_trace = []
    for packets in traces:
        groups = {}  # key -> (first (src, dst), {(src, dst)}, {host: ports})
        for pkt in packets:
            if pkt.control_plane or pkt.transport not in ("tcp", "udp"):
                continue
            src, dst = table.name(pkt.src_addr), table.name(pkt.dst_addr)
            ends, senders, ports = groups.setdefault(
                (frozenset((src, dst)), pkt.transport, pkt.app),
                ((src, dst), set(), {}))
            senders.add((src, dst))
            for host, port in ((src, pkt.src_port), (dst, pkt.dst_port)):
                if port is not None:
                    ports.setdefault(host, set()).add(port)
        per_trace.append(groups)
    flow_sets = []
    for groups in per_trace:
        flows = set()
        for key, ((init, resp), senders, _) in groups.items():
            holding = [other[key][2] for other in per_trace if key in other]
            kept = {}
            for host in set().union(*holding):
                used = [ports.get(host, set()) for ports in holding]
                well_known = [port for port in set().union(*used)
                              if signature.is_well_known_port(port)]
                common = set.intersection(*used) - {0}
                if well_known:
                    kept[host] = min(well_known)
                elif common and len(holding) >= 2:
                    kept[host] = min(common)
            _, transport, app = key
            resp_port = kept.get(resp)
            if isinstance(app, DnsSelector) and resp_port not in (None, 53,
                                                                  5353):
                resp_port = None  # a response-only group: no client port
            flows.add(canonicalize(FlowId(
                initiator=init, responder=resp,
                initiator_port=kept.get(init), responder_port=resp_port,
                transport=Transport(transport),
                direction=Direction.UNIDIRECTIONAL if len(senders) == 1
                else Direction.BIDIRECTIONAL,
                app=app)))
        flow_sets.append(flows)
    return flow_sets


def _tcp(src, dst, sport, dport):
    return ParsedPacket(ts_us=0, src_addr=src, dst_addr=dst, src_port=sport,
                        dst_port=dport, transport="tcp")


def _answer(addr):
    """A DNS response naming `addr` a.example."""
    return ParsedPacket(ts_us=0, src_addr=TOPO.gateway_addr,
                        dst_addr=TOPO.device_addr, src_port=53,
                        dst_port=49152, transport="udp",
                        app=DnsSelector(qtype="A", qname="a.example"),
                        dns_answers=(("a.example", addr),))


@given(retention_cases())
# a conversation whose two ends are one address: both its ports land in the
# one host's tally, and 7000, common to both captures, is kept
@example([[_tcp(TOPO.device_addr, TOPO.device_addr, 50001, 7000)],
          [_tcp(TOPO.device_addr, TOPO.device_addr, 7000, 50002)]])
# two addresses answered for a.example in one capture: two address pairs
# name one group, whose two senders make it bidirectional
@example([[_answer("203.0.113.9"), _answer("2001:db8::17"),
           _tcp(TOPO.device_addr, "203.0.113.9", 50001, 7000),
           _tcp("2001:db8::17", TOPO.device_addr, 7000, 50002)]])
@settings(deadline=None)
def test_aggregation_follows_the_retention_rule(traces):
    seed = {addr: name for name, addr in DOMAIN_ADDRS.items()}
    table, expected_table = DnsTable(TOPO, seed), DnsTable(TOPO, seed)
    flow_sets = aggregate_flows((Trace(tuple(t)) for t in traces), table)
    assert flow_sets == _by_the_rule(traces, expected_table)
    assert table.entries == expected_table.entries
