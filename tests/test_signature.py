import json
import weakref

import pytest

from flowprof import (
    Direction,
    DnsSelector,
    DnsTable,
    EventSignature,
    FlowId,
    HostRef,
    ParsedPacket,
    Trace,
    Transport,
    accept_signature,
    aggregate_flows,
    extract_signature,
)


def _pkt(src, dst, sport=None, dport=None, transport="udp", **kw):
    return ParsedPacket(
        ts_us=kw.pop("ts_us", 0), src_addr=src, dst_addr=dst,
        src_port=sport, dst_port=dport, transport=transport,
        wire_len=kw.pop("wire_len", 80), **kw,
    )


DEVICE = "192.168.1.53"
PHONE = "192.168.1.77"
GATEWAY = "192.168.1.1"
CLOUD = "52.44.10.100"


# -- dns table -----------------------------------------------------------------


def test_table_learns_from_answers(topo):
    table = DnsTable(topo)
    table.update(_pkt(GATEWAY, DEVICE, 53, 50000,
                      app=DnsSelector(qtype="A", qname="a.example"),
                      dns_answers=(("a.example", CLOUD),)))
    assert table.lookup(CLOUD) == "a.example"
    assert table.lookup("52.0.0.1") is None


def test_table_never_stores_local_addresses(topo):
    table = DnsTable(topo)
    table.update(_pkt(GATEWAY, DEVICE, 53, 50000,
                      app=DnsSelector(qtype="A", qname="nas.example"),
                      dns_answers=(("nas.example", "192.168.1.9"),)))
    assert table.lookup("192.168.1.9") is None


def test_table_learns_from_sni(topo):
    table = DnsTable(topo)
    table.update(_pkt(DEVICE, CLOUD, 49321, 443, transport="tcp",
                      sni="api.example"))
    assert table.lookup(CLOUD) == "api.example"


def test_latest_observation_wins(topo):
    table = DnsTable(topo)
    table.update(_pkt(GATEWAY, DEVICE, 53, 50000,
                      app=DnsSelector(qtype="A", qname="old.example"),
                      dns_answers=(("old.example", CLOUD),)))
    table.update(_pkt(DEVICE, CLOUD, 49321, 443, transport="tcp",
                      sni="new.example"))
    assert table.lookup(CLOUD) == "new.example"


def test_table_accepts_seed_entries(topo):
    table = DnsTable(topo, {CLOUD: "a.example"})
    assert table.lookup(CLOUD) == "a.example"


# -- endpoint naming --------------------------------------------------------------


def test_address_naming_covers_all_kinds(topo):
    table = DnsTable(topo, {CLOUD: "a.example"})
    assert table.name(DEVICE) == HostRef.role("device")
    assert table.name(CLOUD) == HostRef.domain("a.example")
    assert table.name(PHONE).token() == "phone"
    assert table.name("255.255.255.255").token() == "broadcast"
    assert table.name("224.0.0.251").token() == "multicast:224.0.0.251"
    assert table.name(GATEWAY).token() == "gateway"
    assert table.name("8.8.8.8").token() == "ip:8.8.8.8"


def _answer(name, addr=CLOUD):
    return _pkt(GATEWAY, DEVICE, 53, 50000,
                app=DnsSelector(qtype="A", qname=name),
                dns_answers=((name, addr),))


def test_naming_follows_each_table_update(topo):
    table = DnsTable(topo)
    assert table.name(CLOUD) == HostRef.address(CLOUD)
    table.update(_answer("old.example"))
    assert table.name(CLOUD) == HostRef.domain("old.example")
    table.update(_answer("new.example"))  # latest wins
    assert table.name(CLOUD) == HostRef.domain("new.example")


def test_naming_follows_updates_for_every_spelling_of_an_address(topo):
    table = DnsTable(topo)
    spelled = "2001:DB8:0:0::10"
    assert table.name(spelled) == HostRef.address("2001:db8::10")
    table.update(_answer("v6.example", "2001:db8::10"))
    assert table.name(spelled) == HostRef.domain("v6.example")


# -- aggregation -------------------------------------------------------------------


def _trace(*packets):
    return Trace(packets=tuple(packets))


def test_bidirectional_flow_with_ephemeral_port_dropped(topo):
    traces = [
        _trace(
            _pkt(DEVICE, CLOUD, 49200, 443, "tcp"),
            _pkt(CLOUD, DEVICE, 443, 49200, "tcp"),
        ),
        _trace(
            _pkt(DEVICE, CLOUD, 51800, 443, "tcp"),
            _pkt(CLOUD, DEVICE, 443, 51800, "tcp"),
        ),
    ]
    sets = aggregate_flows(traces, DnsTable(topo))
    assert len(sets) == 2 and sets[0] == sets[1]
    (flow,) = sets[0]
    assert flow.initiator == HostRef.role("device")
    assert flow.responder == HostRef.address(CLOUD)
    assert flow.initiator_port is None
    assert flow.responder_port == 443
    assert flow.direction is Direction.BIDIRECTIONAL
    assert flow.transport is Transport.TCP


def test_constant_non_well_known_port_is_retained(topo):
    traces = [
        _trace(_pkt(DEVICE, PHONE, 8899, 50000, "tcp"),
               _pkt(PHONE, DEVICE, 50000, 8899, "tcp")),
        _trace(_pkt(DEVICE, PHONE, 8899, 51111, "tcp"),
               _pkt(PHONE, DEVICE, 51111, 8899, "tcp")),
    ]
    sets = aggregate_flows(traces, DnsTable(topo))
    (flow,) = sets[0]
    assert flow.initiator_port == 8899
    assert flow.responder_port is None


def test_a_port_recurs_only_across_two_traces(topo):
    """One trace cannot tell a fixed port from a drawn ephemeral one."""
    def trace():
        return _trace(_pkt(DEVICE, PHONE, 7000, 7001, "tcp"),
                      _pkt(PHONE, DEVICE, 7001, 7000, "tcp"))
    (alone,) = aggregate_flows([trace()], DnsTable(topo))[0]
    assert (alone.initiator_port, alone.responder_port) == (None, None)
    (twice,) = aggregate_flows([trace(), trace()], DnsTable(topo))[0]
    assert (twice.initiator_port, twice.responder_port) == (7000, 7001)


def test_one_way_traffic_stays_unidirectional(topo):
    sets = aggregate_flows(
        [_trace(_pkt(PHONE, "255.255.255.255", 49000, 9999),
                _pkt(PHONE, "255.255.255.255", 49000, 9999, ts_us=10))],
        DnsTable(topo))
    (flow,) = sets[0]
    assert flow.direction is Direction.UNIDIRECTIONAL
    assert flow.initiator.token() == "phone"
    assert flow.responder.token() == "broadcast"
    assert flow.responder_port == 9999


def test_dns_response_joins_its_query_group(topo):
    sel = DnsSelector(qtype="A", qname="a.example")
    sets = aggregate_flows(
        [_trace(
            _pkt(DEVICE, GATEWAY, 50000, 53, app=sel),
            _pkt(GATEWAY, DEVICE, 53, 50000, app=sel,
                 dns_answers=(("a.example", CLOUD),)),
        )],
        DnsTable(topo))
    (flow,) = sets[0]
    assert flow.app == sel
    assert flow.direction is Direction.BIDIRECTIONAL
    assert flow.responder_port == 53


def test_answers_name_later_endpoints_within_the_set(topo):
    sel = DnsSelector(qtype="A", qname="a.example")
    sets = aggregate_flows(
        [_trace(
            _pkt(GATEWAY, DEVICE, 53, 50000, app=sel,
                 dns_answers=(("a.example", CLOUD),)),
            _pkt(DEVICE, CLOUD, 49200, 443, "tcp"),
            _pkt(CLOUD, DEVICE, 443, 49200, "tcp"),
        )],
        DnsTable(topo))
    tokens = {f.responder.token() for f in sets[0]} \
        | {f.initiator.token() for f in sets[0]}
    assert "dom:a.example" in tokens
    assert f"ip:{CLOUD}" not in tokens


def test_sni_names_endpoints_in_every_trace_of_the_set(topo):
    data = (_pkt(DEVICE, CLOUD, 49200, 443, "tcp"),
            _pkt(CLOUD, DEVICE, 443, 49200, "tcp"))
    hello = _pkt(DEVICE, CLOUD, 49300, 443, "tcp", sni="api.example")
    sets = aggregate_flows([_trace(*data), _trace(hello, *data)],
                           DnsTable(topo))
    assert sets[0] == sets[1]
    (flow,) = sets[0]
    assert flow.responder.token() == "dom:api.example"


def test_response_only_dns_group_drops_client_port(topo):
    sel = DnsSelector(qtype="A", qname="a.example")
    sets = aggregate_flows(
        [_trace(_pkt(GATEWAY, DEVICE, 53, 50000, app=sel,
                     dns_answers=(("a.example", CLOUD),)))],
        DnsTable(topo))
    (flow,) = sets[0]
    assert flow.direction is Direction.UNIDIRECTIONAL
    assert flow.initiator_port == 53
    assert flow.responder_port is None


def test_control_plane_and_non_ip_packets_ignored(topo):
    sets = aggregate_flows(
        [_trace(
            _pkt(DEVICE, PHONE, transport="arp", wire_len=42,
                 control_plane=True),
            _pkt(DEVICE, PHONE, 49000, 80, "tcp", control_plane=True),
            _pkt(DEVICE, PHONE, 49000, 80, "tcp"),
        )],
        DnsTable(topo))
    assert len(sets[0]) == 1


def test_selector_splits_groups(topo):
    a = DnsSelector(qtype="A", qname="a.example")
    b = DnsSelector(qtype="AAAA", qname="a.example")
    sets = aggregate_flows(
        [_trace(_pkt(DEVICE, GATEWAY, 50000, 53, app=a),
                _pkt(DEVICE, GATEWAY, 50000, 53, app=b))],
        DnsTable(topo))
    assert len(sets[0]) == 2


def _capture_packets():
    """Packet lists of a capture set whose later captures are named by the
    earlier ones' DNS answers and SNI, with fixed and drawn ports."""
    sel = DnsSelector(qtype="A", qname="a.example")
    return [
        (_pkt(DEVICE, GATEWAY, 50000, 53, app=sel),
         _pkt(GATEWAY, DEVICE, 53, 50000, app=sel,
              dns_answers=(("a.example", CLOUD),)),
         _pkt(DEVICE, CLOUD, 49200, 443, "tcp"),
         _pkt(CLOUD, DEVICE, 443, 49200, "tcp")),
        (_pkt(DEVICE, CLOUD, 51800, 443, "tcp"),
         _pkt(PHONE, DEVICE, 7000, 7001, "tcp"),
         _pkt(DEVICE, PHONE, 7001, 7000, "tcp")),
        (_pkt(DEVICE, "52.44.10.101", 52000, 443, "tcp", sni="api.example"),
         _pkt(PHONE, DEVICE, 7000, 7001, "tcp"),
         _pkt(PHONE, "255.255.255.255", 49000, 9999)),
    ]


def test_aggregation_reads_a_one_shot_stream_one_trace_at_a_time(topo):
    expected = aggregate_flows([_trace(*packets)
                                for packets in _capture_packets()],
                               DnsTable(topo))
    drawn = []

    def stream():
        for packets in _capture_packets():
            assert all(ref() is None for ref in drawn), \
                "an earlier trace is alive while the next one is drawn"
            trace = _trace(*packets)
            drawn.append(weakref.ref(trace))
            yield trace
            del trace

    table = DnsTable(topo)
    assert aggregate_flows(stream(), table) == expected
    assert len(drawn) == 3
    assert table.lookup(CLOUD) == "a.example"


# -- signatures ---------------------------------------------------------------------


def _flow(name):
    return FlowId(
        initiator=HostRef.role("device"),
        responder=HostRef.domain(name),
        responder_port=443,
        transport=Transport.TCP,
        direction=Direction.BIDIRECTIONAL,
    )


def test_extract_signature_intersects():
    a, b, c = _flow("a.example"), _flow("b.example"), _flow("c.example")
    sig = extract_signature([{a, b}, {a, c}, {a, b, c}], m=20)
    assert sig.flows == frozenset({a})
    assert sig.m_plus == 3 and sig.m == 20


def test_extract_signature_requires_captures():
    # without a successful capture the signature is empty, with m_plus = 0
    assert extract_signature([], m=20) \
        == EventSignature(frozenset(), m=20, m_plus=0)


def test_acceptance_thresholds():
    flows = frozenset({_flow("a.example")})
    assert not accept_signature(EventSignature(frozenset(), m=20, m_plus=0))
    assert not accept_signature(EventSignature(flows, m=20, m_plus=9))
    assert accept_signature(EventSignature(flows, m=20, m_plus=10))
    assert accept_signature(EventSignature(flows, m=20, m_plus=20))
    assert accept_signature(EventSignature(flows, m=1, m_plus=1))


def test_signature_validation():
    with pytest.raises(ValueError):
        EventSignature(frozenset({_flow("a.example")}), m=20, m_plus=0)
    with pytest.raises(ValueError):
        EventSignature(frozenset(), m=20, m_plus=21)


def test_signature_obj_round_trip():
    sig = EventSignature(
        frozenset({_flow("a.example"), _flow("b.example")}), m=20, m_plus=17)
    obj = json.loads(json.dumps(sig.to_obj()))
    again = EventSignature(frozenset(FlowId.from_obj(f) for f in obj["flows"]),
                           m=obj["m"], m_plus=obj["m_plus"])
    assert again == sig
    tokens = [f["responder"] for f in sig.to_obj()["flows"]]
    assert tokens == sorted(tokens)
