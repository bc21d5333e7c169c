import ipaddress
import json
import types

import pytest

from flowprof import (
    CoapSelector,
    Direction,
    DnsSelector,
    DnsTable,
    FlowId,
    HostKind,
    HostRef,
    HttpSelector,
    ParsedPacket,
    Topology,
    Transport,
    canonicalize,
    name_endpoints,
    sorted_flows,
)
from flowprof import blocklist, core, pcapio, signature, simnet
from flowprof.core import ADDRESS_CACHE_SIZE


# -- host references ---------------------------------------------------------


@pytest.mark.parametrize("token", [
    "device", "phone", "gateway", "broadcast",
    "multicast:224.0.0.251", "multicast:ff02::fb",
    "ip:52.44.10.100", "ip:[2a00:1450::5]",
    "dom:use1-api.tplinkra.com", "dom:_tplink._tcp.local",
])
def test_host_token_round_trip(token):
    assert HostRef.from_token(token).token() == token


@pytest.mark.parametrize("token", [
    "router", "ip:999.1.1.1", "ip:224.0.0.251", "ip:255.255.255.255",
    "multicast:10.0.0.1", "dom:", "dom:bad..name", "", "unknown:x",
])
def test_host_token_rejects_garbage(token):
    with pytest.raises(ValueError):
        HostRef.from_token(token)


def test_host_display_is_bare_value():
    assert HostRef.broadcast().display() == "255.255.255.255"
    assert HostRef.role("device").display() == "device"
    assert HostRef.domain("a.example").display() == "a.example"
    assert HostRef.from_token("ip:[::1]").display() == "::1"


# -- selectors ---------------------------------------------------------------


def test_dns_selector_validates_tokens():
    DnsSelector(qtype="A", qname="a.example")
    with pytest.raises(ValueError):
        DnsSelector(qtype="a", qname="a.example")
    with pytest.raises(ValueError):
        DnsSelector(qtype="A", qname="no spaces allowed")


def test_http_selector_validates_shape():
    HttpSelector(method="GET", uri="/x", is_response=False)
    HttpSelector(is_response=True)
    with pytest.raises(ValueError):
        HttpSelector(method="GET", uri="nope")
    with pytest.raises(ValueError):
        HttpSelector(method="get!", uri="/x")


def test_coap_selector_validates_shape():
    CoapSelector(type="CON", code="GET", uri_path="/state")
    CoapSelector(type="ACK", code="2.05")
    with pytest.raises(ValueError):
        CoapSelector(type="QQQ", code="GET")
    with pytest.raises(ValueError):
        CoapSelector(type="CON", code="GET", uri_path="state")


# -- flow identifiers ---------------------------------------------------------


def _flow(**kw):
    base = dict(
        initiator=HostRef.role("device"),
        responder=HostRef.role("phone"),
        transport=Transport.TCP,
        direction=Direction.BIDIRECTIONAL,
    )
    base.update(kw)
    return FlowId(**base)


def test_flow_port_bounds():
    _flow(initiator_port=1, responder_port=65535)
    with pytest.raises(ValueError):
        _flow(initiator_port=0)
    with pytest.raises(ValueError):
        _flow(responder_port=65536)


def test_dns_flows_are_udp_with_pinned_port():
    sel = DnsSelector(qtype="A", qname="a.example")
    _flow(transport=Transport.UDP, responder_port=53, app=sel)
    with pytest.raises(ValueError):
        _flow(transport=Transport.TCP, responder_port=53, app=sel)
    with pytest.raises(ValueError):
        _flow(transport=Transport.UDP, responder_port=443, app=sel)


def test_canonical_json_is_compact_and_ordered():
    flow = _flow(initiator_port=9999)
    text = flow.canonical_json()
    assert text == (
        '{"initiator":"device","responder":"phone",'
        '"initiator_port":9999,"responder_port":null,'
        '"transport":"tcp","direction":"bi","app":null}'
    )
    assert FlowId.from_obj(json.loads(text)) == flow


def test_obj_round_trip_with_selectors():
    flows = [
        _flow(app=HttpSelector(method="POST", uri="/api", is_response=False)),
        _flow(transport=Transport.UDP, responder_port=5683,
              app=CoapSelector(type="CON", code="GET", uri_path="/s")),
        _flow(transport=Transport.UDP, responder_port=53,
              app=DnsSelector(qtype="AAAA", qname="x.example")),
    ]
    for flow in flows:
        assert FlowId.from_obj(flow.to_obj()) == flow


def test_canonicalize_puts_device_first():
    flipped = _flow(
        initiator=HostRef.role("phone"),
        responder=HostRef.role("device"),
        initiator_port=1234,
        responder_port=9999,
    )
    canon = canonicalize(flipped)
    assert canon.initiator == HostRef.role("device")
    assert canon.initiator_port == 9999
    assert canon.responder_port == 1234
    assert canonicalize(canon) == canon


def test_canonicalize_orders_non_device_endpoints_lexicographically():
    flow = _flow(
        initiator=HostRef.role("phone"),
        responder=HostRef.domain("a.example"),
        responder_port=443,
    )
    canon = canonicalize(flow)
    assert canon.initiator.token() == "dom:a.example"
    assert canon.initiator_port == 443


def test_canonicalize_never_reorients_unidirectional():
    flow = _flow(
        initiator=HostRef.role("phone"),
        responder=HostRef.role("device"),
        direction=Direction.UNIDIRECTIONAL,
    )
    assert canonicalize(flow) == flow


def test_canonicalize_keeps_dns_query_orientation():
    # lexicographic order would put the resolver first and push a client
    # port into the responder slot, which the DNS invariant forbids
    flow = _flow(
        initiator=HostRef.role("phone"),
        responder=HostRef.role("gateway"),
        initiator_port=7070,
        responder_port=53,
        transport=Transport.UDP,
        app=DnsSelector(qtype="A", qname="a.example"),
    )
    assert canonicalize(flow) == flow


def test_sorted_flows_orders_by_canonical_json():
    a = _flow(responder=HostRef.domain("a.example"), responder_port=443)
    b = _flow(responder=HostRef.domain("b.example"), responder_port=443)
    c = _flow(initiator_port=9999)
    ordered = sorted_flows({c, b, a})
    assert ordered == sorted(ordered, key=lambda f: f.canonical_json())
    assert set(ordered) == {a, b, c}


# -- topology ------------------------------------------------------------------


def test_topology_classifies_addresses(topo):
    assert topo.is_local("192.168.1.200")
    assert not topo.is_local("52.44.10.100")
    assert topo.role_of("192.168.1.53") == "device"
    assert topo.role_of("8.8.8.8") is None
    assert topo.addr_of("gateway") == "192.168.1.1"


def test_topology_rejects_bad_layouts():
    with pytest.raises(ValueError):
        Topology("10.0.0.1", "10.0.0.1", "10.0.0.2",
                 local_prefixes=("10.0.0.0/24",))
    with pytest.raises(ValueError):
        Topology("10.0.0.1", "10.0.0.2", "10.0.0.3",
                 local_prefixes=("192.168.0.0/24",))


def test_topology_obj_round_trip(topo):
    assert Topology.from_obj(topo.to_obj()) == topo


# -- per-address memos -----------------------------------------------------------


def test_every_memo_has_a_fixed_bound():
    memos = [obj for module in (core, pcapio, signature, blocklist, simnet)
             for obj in vars(module).values() if hasattr(obj, "cache_info")]
    assert len(memos) >= 5
    assert all(memo.cache_info().maxsize is not None for memo in memos)


def test_address_memos_stay_within_their_bound(topo):
    table = DnsTable(topo)
    for i in range(ADDRESS_CACHE_SIZE + 100):
        ip = ipaddress.IPv4Address(0x34000000 + i)
        addr = str(ip)
        topo.is_local(addr)
        pcapio._endpoint(addr)
        pcapio._addr_text(ip.packed)
        blocklist._address_ref(addr)
        name_endpoints(ParsedPacket(ts_us=0, src_addr=addr, dst_addr=addr),
                       table, topo)
    for memo in (core._is_local, pcapio._endpoint, pcapio._addr_text,
                 blocklist._address_ref):
        info = memo.cache_info()
        assert info.maxsize == ADDRESS_CACHE_SIZE
        assert info.currsize <= info.maxsize
    assert len(table._names) <= ADDRESS_CACHE_SIZE


def test_memo_misses_parse_through_the_module_attribute(topo, monkeypatch):
    calls = []

    def counted(text):
        calls.append(text)
        return ipaddress.ip_address(text)

    counting = types.SimpleNamespace(**{**vars(ipaddress),
                                        "ip_address": counted})
    for module in (core, pcapio, signature):
        monkeypatch.setattr(module, "ipaddress", counting)
    for memo in (core._is_local, pcapio._endpoint, pcapio._addr_text):
        memo.cache_clear()
    fresh = "52.9.8.7"
    for _ in range(3):
        topo.is_local(fresh)
        pcapio._endpoint(fresh)
        pcapio._addr_text(ipaddress.IPv4Address(fresh).packed)
    assert len(calls) == 3  # one real parse per memo, then hits
