import ipaddress
import json
import os
import pathlib
import subprocess
import sys
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


@pytest.mark.parametrize("qtype", ["HTTPS", "TYPE1", "TYPE01", "TYPE70000"])
def test_dns_selector_takes_only_a_table_name_or_unnamed_type(qtype):
    with pytest.raises(ValueError, match=qtype):
        DnsSelector(qtype=qtype, qname="a.example")


@pytest.mark.parametrize("code", ["0.01", "1.00", "2.45", "9.99", "FETCH"])
def test_coap_selector_takes_only_a_table_code(code):
    with pytest.raises(ValueError, match="bad CoAP code"):
        CoapSelector(type="CON", code=code)


def test_http_selector_takes_only_a_table_method():
    with pytest.raises(ValueError, match="bad HTTP method"):
        HttpSelector(method="FOO", uri="/x")


def test_unnamed_qtypes_and_the_last_response_code_are_accepted():
    for qtype in ("TYPE0", "TYPE65"):
        assert DnsSelector(qtype=qtype, qname="a.example").qtype == qtype
    assert CoapSelector(type="ACK", code="5.31").code == "5.31"


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


@pytest.mark.parametrize("port", [80.0, 80.5, True])
def test_flow_ports_must_be_integers(port):
    obj = _flow().to_obj()
    obj["responder_port"] = port
    with pytest.raises(ValueError, match="responder_port must be an integer"):
        FlowId.from_obj(obj)


def test_selector_flags_must_be_json_booleans():
    obj = _flow(app=HttpSelector(is_response=True)).to_obj()
    for flag in ("false", 1):
        obj["app"]["is_response"] = flag
        with pytest.raises(ValueError, match="true or false"):
            FlowId.from_obj(obj)
    obj["app"]["is_response"] = False
    assert FlowId.from_obj(obj).app == HttpSelector(is_response=False)


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
    golden = {
        _flow(transport=Transport.UDP, responder=HostRef.role("gateway"),
              responder_port=53,
              app=DnsSelector(qtype="A", qname="a.example")):
            '{"initiator":"device","responder":"gateway",'
            '"initiator_port":null,"responder_port":53,'
            '"transport":"udp","direction":"bi",'
            '"app":{"proto":"dns","qtype":"A","qname":"a.example"}}',
        _flow(responder_port=80, app=HttpSelector(is_response=True)):
            '{"initiator":"device","responder":"phone",'
            '"initiator_port":null,"responder_port":80,'
            '"transport":"tcp","direction":"bi",'
            '"app":{"proto":"http","method":"","uri":"","is_response":true}}',
        _flow(transport=Transport.UDP, responder_port=5683,
              app=CoapSelector(type="NON", code="2.05", uri_path="/s")):
            '{"initiator":"device","responder":"phone",'
            '"initiator_port":null,"responder_port":5683,'
            '"transport":"udp","direction":"bi",'
            '"app":{"proto":"coap","type":"NON","code":"2.05",'
            '"uri_path":"/s"}}',
    }
    for flow, line in golden.items():
        assert flow.canonical_json() == line
        assert FlowId.from_obj(json.loads(line)) == flow


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


# built alike in both processes of the pickling test below
_PICKLED_FLOWS = """
from flowprof import FlowId, HostRef, HttpSelector, Transport
flows = [
    FlowId(HostRef.role("device"), HostRef.domain("a.example"),
           responder_port=443, app=HttpSelector(method="GET", uri="/x")),
    FlowId(HostRef.address("2001:db8::17"), HostRef.multicast("ff02::fb"),
           5353, 5353, Transport.UDP),
]
"""


def _run_python(code: str, hash_seed: int, stdin: str = "") -> str:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=str(pathlib.Path(core.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", _PICKLED_FLOWS + code],
                          input=stdin, capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_flows_pickled_in_one_process_hash_right_in_another():
    # a str hashes differently per process, so a hash kept on the instance
    # must not travel in the pickle
    dumped = _run_python(
        "import pickle\n"
        "for flow in flows:\n"
        "    hash(flow), flow.canonical_json()\n"
        "print(pickle.dumps(flows).hex())\n", hash_seed=1)
    _run_python(
        "import pickle, sys\n"
        "loaded = pickle.loads(bytes.fromhex(sys.stdin.read()))\n"
        "assert loaded == flows\n"
        "assert all(flow in set(flows) for flow in loaded)\n"
        "hosts = {h for f in flows for h in (f.initiator, f.responder)}\n"
        "assert all(f.initiator in hosts and f.responder in hosts\n"
        "           for f in loaded)\n", hash_seed=2, stdin=dumped)


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
    obj = {"device": topo.device_addr, "phone": topo.phone_addr,
           "gateway": topo.gateway_addr,
           "local_prefixes": list(topo.local_prefixes)}
    assert Topology.from_obj(json.loads(json.dumps(obj))) == topo
    del obj["local_prefixes"]
    assert Topology.from_obj(obj).local_prefixes == ("192.168.0.0/16",)


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
                       table)
    for memo in (core._is_local, pcapio._endpoint, pcapio._addr_text,
                 blocklist._address_ref):
        info = memo.cache_info()
        assert info.maxsize == ADDRESS_CACHE_SIZE
        assert info.currsize <= info.maxsize
    assert len(table._names) <= ADDRESS_CACHE_SIZE


def test_memo_misses_parse_through_the_module_attribute(topo, monkeypatch):
    calls = []
    networks = []

    def counted(text):
        calls.append(text)
        return ipaddress.ip_address(text)

    def counted_network(text):
        networks.append(text)
        return ipaddress.ip_network(text)

    counting = types.SimpleNamespace(**{**vars(ipaddress),
                                        "ip_address": counted,
                                        "ip_network": counted_network})
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
    # the locality memo is keyed on the prefix text, parsed on a miss only
    assert networks == list(topo.local_prefixes)
