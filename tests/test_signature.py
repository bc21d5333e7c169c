import pytest

from flowprof import (
    Direction,
    DnsSelector,
    DnsTable,
    EmptyTraceSet,
    EventSignature,
    FlowId,
    HostRef,
    ParsedPacket,
    SeedSource,
    Topology,
    Trace,
    Transport,
    accept_signature,
    aggregate_flows,
    extract_signature,
    name_endpoints,
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
    table = DnsTable(topo, SeedSource.MODEL_RECORDS, {CLOUD: "a.example"})
    assert table.seed_source is SeedSource.MODEL_RECORDS
    assert table.lookup(CLOUD) == "a.example"


# -- endpoint naming --------------------------------------------------------------


def test_name_endpoints_covers_all_kinds(topo):
    table = DnsTable(topo, SeedSource.MODEL_RECORDS, {CLOUD: "a.example"})
    src, dst = name_endpoints(_pkt(DEVICE, CLOUD), table, topo)
    assert src == HostRef.role("device")
    assert dst == HostRef.domain("a.example")
    src, dst = name_endpoints(_pkt(PHONE, "255.255.255.255"), table, topo)
    assert (src.token(), dst.token()) == ("phone", "broadcast")
    src, dst = name_endpoints(_pkt(PHONE, "224.0.0.251"), table, topo)
    assert dst.token() == "multicast:224.0.0.251"
    src, dst = name_endpoints(_pkt(GATEWAY, "8.8.8.8"), table, topo)
    assert (src.token(), dst.token()) == ("gateway", "ip:8.8.8.8")


def _answer(name, addr=CLOUD):
    return _pkt(GATEWAY, DEVICE, 53, 50000,
                app=DnsSelector(qtype="A", qname=name),
                dns_answers=((name, addr),))


def test_naming_follows_each_table_update(topo):
    table = DnsTable(topo)
    to_cloud = _pkt(DEVICE, CLOUD, 49321, 443, transport="tcp")
    assert name_endpoints(to_cloud, table, topo)[1] == HostRef.address(CLOUD)
    table.update(_answer("old.example"))
    assert name_endpoints(to_cloud, table, topo)[1] == \
        HostRef.domain("old.example")
    table.update(_answer("new.example"))  # latest wins
    assert name_endpoints(to_cloud, table, topo)[1] == \
        HostRef.domain("new.example")


def test_naming_follows_updates_for_every_spelling_of_an_address(topo):
    table = DnsTable(topo)
    spelled = _pkt(DEVICE, "2001:DB8:0:0::10")
    assert name_endpoints(spelled, table, topo)[1] == \
        HostRef.address("2001:db8::10")
    table.update(_answer("v6.example", "2001:db8::10"))
    assert name_endpoints(spelled, table, topo)[1] == \
        HostRef.domain("v6.example")


def test_naming_under_another_topology_is_not_the_tables(topo):
    table = DnsTable(topo, SeedSource.MODEL_RECORDS, {CLOUD: "a.example"})
    packet = _pkt(DEVICE, CLOUD)
    assert name_endpoints(packet, table, topo) == (
        HostRef.role("device"), HostRef.domain("a.example"))
    moved = Topology(device_addr="192.168.1.99", phone_addr=PHONE,
                     gateway_addr=GATEWAY, local_prefixes=("192.168.1.0/24",))
    assert name_endpoints(packet, table, moved) == (
        HostRef.address(DEVICE), HostRef.domain("a.example"))
    assert name_endpoints(packet, table, topo)[0] == HostRef.role("device")


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
    sets = aggregate_flows(traces, topo, DnsTable(topo))
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
    sets = aggregate_flows(traces, topo, DnsTable(topo))
    (flow,) = sets[0]
    assert flow.initiator_port == 8899
    assert flow.responder_port is None


def test_one_way_traffic_stays_unidirectional(topo):
    sets = aggregate_flows(
        [_trace(_pkt(PHONE, "255.255.255.255", 49000, 9999),
                _pkt(PHONE, "255.255.255.255", 49000, 9999, ts_us=10))],
        topo, DnsTable(topo))
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
        topo, DnsTable(topo))
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
        topo, DnsTable(topo))
    tokens = {f.responder.token() for f in sets[0]} \
        | {f.initiator.token() for f in sets[0]}
    assert "dom:a.example" in tokens
    assert f"ip:{CLOUD}" not in tokens


def test_response_only_dns_group_drops_client_port(topo):
    sel = DnsSelector(qtype="A", qname="a.example")
    sets = aggregate_flows(
        [_trace(_pkt(GATEWAY, DEVICE, 53, 50000, app=sel,
                     dns_answers=(("a.example", CLOUD),)))],
        topo, DnsTable(topo))
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
        topo, DnsTable(topo))
    assert len(sets[0]) == 1


def test_selector_splits_groups(topo):
    a = DnsSelector(qtype="A", qname="a.example")
    b = DnsSelector(qtype="AAAA", qname="a.example")
    sets = aggregate_flows(
        [_trace(_pkt(DEVICE, GATEWAY, 50000, 53, app=a),
                _pkt(DEVICE, GATEWAY, 50000, 53, app=b))],
        topo, DnsTable(topo))
    assert len(sets[0]) == 2


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
    with pytest.raises(EmptyTraceSet):
        extract_signature([], m=20)


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
    again = EventSignature.from_obj(sig.to_obj())
    assert again == sig
    tokens = [f["responder"] for f in sig.to_obj()["flows"]]
    assert tokens == sorted(tokens)
