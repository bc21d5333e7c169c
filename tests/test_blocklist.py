from dataclasses import replace

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
    Rule,
    RuleSet,
    RuleSyntaxError,
    Topology,
    Transport,
    compile_rules,
    load_model,
    matches_flow,
    matches_packet,
    parse,
    render,
)
from flowprof.core import app_items
from flowprof.pcapio import TCP_SYN

from conftest import MODEL_DIR, model_path


def _flow(**kw):
    base = dict(
        initiator=HostRef.role("device"),
        responder=HostRef.domain("a.example"),
        responder_port=443,
        transport=Transport.TCP,
        direction=Direction.BIDIRECTIONAL,
    )
    base.update(kw)
    return FlowId(**base)


TOPO = Topology("192.168.1.53", "192.168.1.77", "192.168.1.1")
DOMAIN_ADDRS = {"a.example": "198.51.100.1",
                "cdn.vendor-cloud.example": "198.51.100.2"}
TABLE = DnsTable(TOPO, {addr: name for name, addr in DOMAIN_ADDRS.items()})


def host_addr(host: HostRef) -> str:
    if host.kind is HostKind.ROLE:
        return TOPO.addr_of(host.value)
    if host.kind is HostKind.DOMAIN:
        return DOMAIN_ADDRS[host.value]
    return host.display()


def flow_packets(flow: FlowId, init_port=None, resp_port=None) -> list:
    """The flow's distinct packets as a capture lays them out: one from the
    initiator and, for a bi flow, one back.  A port the flow does not pin
    is the drawn port given, None when none is drawn yet."""
    init = (host_addr(flow.initiator), flow.initiator_port or init_port)
    resp = (host_addr(flow.responder), flow.responder_port or resp_port)
    ends = [(init, resp), (resp, init)]
    if flow.direction is Direction.UNIDIRECTIONAL:
        del ends[1]
    return [ParsedPacket(ts_us=0, src_addr=src[0], dst_addr=dst[0],
                         src_port=src[1], dst_port=dst[1],
                         transport=flow.transport.value, app=flow.app)
            for src, dst in ends]


def blocks(rules, flow: FlowId) -> bool:
    """The flow verdict on the flow's packets, named through TABLE."""
    return matches_flow(rules, flow_packets(flow), TABLE)


# -- grammar ---------------------------------------------------------------------


def test_rule_renders_golden_line():
    rule = Rule.from_flow(_flow())
    assert rule.render() == "block tcp init device resp dom:a.example:443 dir bi"


def test_matchers_render_in_fixed_order():
    flow = _flow(
        transport=Transport.UDP,
        responder=HostRef.role("gateway"),
        responder_port=53,
        app=DnsSelector(qtype="A", qname="a.example"),
    )
    line = Rule.from_flow(flow).render()
    assert line == ("block udp init device resp gateway:53 dir bi "
                    "match dns.qtype=A match dns.qname=a.example")
    http = _flow(responder_port=80, app=HttpSelector(
        method="POST", uri="/api", is_response=False))
    assert Rule.from_flow(http).render() == (
        "block tcp init device resp dom:a.example:80 dir bi "
        "match http.method=POST match http.uri=/api "
        "match http.is_response=false")
    response = _flow(responder_port=80, app=HttpSelector(is_response=True))
    assert Rule.from_flow(response).render() == (
        "block tcp init device resp dom:a.example:80 dir bi "
        "match http.method= match http.uri= match http.is_response=true")
    coap = _flow(transport=Transport.UDP, responder_port=5683,
                 app=CoapSelector(type="CON", code="GET", uri_path="/s"))
    assert Rule.from_flow(coap).render() == (
        "block udp init device resp dom:a.example:5683 dir bi "
        "match coap.type=CON match coap.code=GET match coap.uri_path=/s")


def test_rule_is_an_app_less_pattern_with_ordered_matchers():
    pattern = _flow(transport=Transport.UDP, responder=HostRef.role("gateway"),
                    responder_port=53)
    rule = Rule(pattern, (("dns.qname", "a.example"), ("dns.qtype", "A")))
    assert rule.matchers == (("dns.qtype", "A"), ("dns.qname", "a.example"))
    with pytest.raises(ValueError):
        Rule(replace(pattern, app=DnsSelector(qtype="A", qname="a.example")))


def test_parse_render_identity():
    text = (
        "# deny list\n"
        "\n"
        "block tcp init device resp dom:a.example:443 dir bi\n"
        "block udp init phone resp broadcast:9999 dir uni\n"
        "block udp init device resp gateway:53 dir bi "
        "match dns.qtype=A match dns.qname=a.example\n"
    )
    rules = parse(text)
    assert parse(render(rules)) == rules
    assert render(parse(render(rules))) == render(rules)


def test_parse_normalizes_matcher_order_and_duplicates():
    a = parse("block udp init device resp gateway:53 dir bi "
              "match dns.qname=a.example match dns.qtype=A\n")
    b = parse("block udp init device resp gateway:53 dir bi "
              "match dns.qtype=A match dns.qname=a.example\n")
    assert a == b
    dup = ("block tcp init device resp phone dir bi\n"
           "block tcp init device resp phone dir bi\n")
    assert len(parse(dup).rules) == 1


@pytest.mark.parametrize("line,lineno", [
    ("permit tcp init device resp phone dir bi", 1),
    ("block icmp init device resp phone dir bi", 1),
    ("block tcp init device resp phone dir sideways", 1),
    ("block tcp init device resp phone", 1),
    ("block tcp init device resp phone:70000 dir bi", 1),
    ("block tcp init device resp phone dir bi match nope=1", 1),
    ("block tcp init device resp phone dir bi match dns.qtype=A "
     "match dns.qtype=A", 1),
    ("block tcp init device resp phone dir bi trailing", 1),
    ("# fine\nblock tcp init bad..host resp phone dir bi", 2),
    ("# fine\nblock tcp init device resp phone dir bi "
     "match http.is_response=yes", 2),
])
def test_parse_reports_line_numbers(line, lineno):
    with pytest.raises(RuleSyntaxError) as err:
        parse(line + "\n")
    assert err.value.line == lineno


@pytest.mark.parametrize("matcher", [
    "dns.qtype=HTTPS", "dns.qtype=AAA", "dns.qtype=TYPE1",
    "coap.code=0.01", "coap.type=CONFIRMABLE", "http.method=FOO",
])
def test_parse_refuses_a_coded_value_no_selector_holds(matcher):
    text = ("block tcp init device resp phone dir bi\n"
            f"block udp init device resp gateway:53 dir bi match {matcher}\n")
    with pytest.raises(RuleSyntaxError) as err:
        parse(text)
    assert err.value.line == 2


@pytest.mark.parametrize(
    "name", sorted(path.stem for path in MODEL_DIR.glob("*.json")))
def test_every_bundled_flow_compiles_to_a_rule(name):
    model = load_model(model_path(name))
    for spec in model.flows + model.noise:
        rule = Rule.from_flow(spec.flow)
        assert parse(rule.render() + "\n").rules == (rule,)


def test_ruleset_sorts_and_dedupes():
    flows = [_flow(responder=HostRef.domain(n), responder_port=443)
             for n in ("b.example", "a.example", "b.example")]
    rules = compile_rules(flows)
    lines = render(rules).splitlines()
    assert lines == sorted(lines)
    assert len(lines) == 2


def test_compile_canonicalizes_orientation():
    flipped = FlowId(
        initiator=HostRef.role("phone"),
        responder=HostRef.role("device"),
        responder_port=9999,
        transport=Transport.TCP,
        direction=Direction.BIDIRECTIONAL,
    )
    rules = compile_rules([flipped])
    assert render(rules) == "block tcp init device:9999 resp phone dir bi\n"


# two valid values of each selector field: a variant takes the one its flow
# does not hold
_OTHER_VALUES = {
    "qtype": ("A", "TXT"), "qname": ("a.example", "b.example"),
    "method": ("GET", "PUT"), "uri": ("/s", "/t"),
    "is_response": (False, True), "type": ("CON", "NON"),
    "code": ("GET", "2.05"), "uri_path": ("/s", "/t"),
}


def one_field_variants(flow: FlowId) -> list:
    """Flows that differ from `flow` in one pinned port or in one field of
    its app selector."""
    variants = []
    for slot in ("initiator_port", "responder_port"):
        if getattr(flow, slot) is None:
            continue  # an unpinned port compiles to a wildcard
        for port in (None, 53, 5353, 9999):
            if port != getattr(flow, slot):
                try:
                    variants.append(replace(flow, **{slot: port}))
                except ValueError:  # DNS pins its responder port
                    pass
    if flow.app is not None:
        for name, value in app_items(flow.app)[1]:
            other = next(v for v in _OTHER_VALUES[name] if v != value)
            variants.append(replace(flow, app=replace(flow.app,
                                                      **{name: other})))
    return variants


def test_compiled_rule_blocks_exactly_its_flow():
    flows = [
        _flow(),
        _flow(initiator_port=9999, direction=Direction.UNIDIRECTIONAL),
        _flow(transport=Transport.UDP,
              responder=HostRef.role("gateway"), responder_port=53,
              app=DnsSelector(qtype="A", qname="a.example")),
        _flow(app=HttpSelector(method="GET", uri="/s", is_response=False),
              responder_port=80),
        _flow(transport=Transport.UDP, responder_port=5683,
              app=CoapSelector(type="CON", code="GET", uri_path="/s")),
    ]
    for flow in flows:
        rules = RuleSet((Rule.from_flow(flow),))
        assert blocks(rules, flow)
        variants = one_field_variants(flow)
        assert variants
        for variant in variants:
            assert not blocks(rules, variant), variant


# -- flow matching -----------------------------------------------------------------


def test_matches_flow_requires_transport_and_direction():
    rules = compile_rules([_flow()])
    assert blocks(rules, _flow())
    assert not blocks(rules, _flow(transport=Transport.UDP,
                                   responder_port=None))
    # a bi rule drops the packets of the uni flow on its endpoints
    assert blocks(rules, _flow(direction=Direction.UNIDIRECTIONAL))
    uni = compile_rules([_flow(direction=Direction.UNIDIRECTIONAL)])
    reverse = FlowId(
        initiator=HostRef.domain("a.example"),
        responder=HostRef.role("device"),
        initiator_port=443,
        transport=Transport.TCP,
        direction=Direction.UNIDIRECTIONAL,
    )
    assert not blocks(uni, reverse)


def test_matches_flow_tries_both_orientations_for_bi():
    rules = compile_rules([_flow()])
    swapped = FlowId(
        initiator=HostRef.domain("a.example"),
        responder=HostRef.role("device"),
        initiator_port=443,
        transport=Transport.TCP,
        direction=Direction.BIDIRECTIONAL,
    )
    assert blocks(rules, swapped)


def test_unspecified_rule_port_is_wildcard():
    rules = parse("block tcp init device resp dom:a.example dir bi\n")
    assert blocks(rules, _flow(responder_port=443))
    assert blocks(rules, _flow(responder_port=None))
    pinned = parse("block tcp init device resp dom:a.example:443 dir bi\n")
    assert not blocks(pinned, _flow(responder_port=None))
    assert not blocks(pinned, _flow(responder_port=8443))


def test_an_address_rule_blocks_the_flows_of_the_domain_it_answers_for():
    rules = parse("block tcp init device resp ip:198.51.100.1 dir bi\n")
    assert blocks(rules, _flow())
    assert not blocks(rules, _flow(
        responder=HostRef.domain("cdn.vendor-cloud.example")))


def test_matchers_are_field_subset():
    rules = parse("block udp init device resp gateway:53 dir bi "
                  "match dns.qname=a.example\n")
    hit = _flow(transport=Transport.UDP,
                responder=HostRef.role("gateway"), responder_port=53,
                app=DnsSelector(qtype="AAAA", qname="a.example"))
    miss = _flow(transport=Transport.UDP,
                 responder=HostRef.role("gateway"), responder_port=53,
                 app=DnsSelector(qtype="A", qname="b.example"))
    assert blocks(rules, hit)
    assert not blocks(rules, miss)
    bare = _flow(transport=Transport.UDP,
                 responder=HostRef.role("gateway"), responder_port=53)
    assert not blocks(rules, bare)


# -- packet matching ----------------------------------------------------------------


DEVICE = "192.168.1.53"
CLOUD = "52.44.10.100"


def _pkt(src, dst, sport, dport, transport="tcp", **kw):
    return ParsedPacket(ts_us=0, src_addr=src, dst_addr=dst, src_port=sport,
                        dst_port=dport, transport=transport, wire_len=80, **kw)


def test_matches_packet_names_roles_and_domains(topo):
    table = DnsTable(topo, {CLOUD: "a.example"})
    rules = compile_rules([_flow()])
    assert matches_packet(rules, _pkt(DEVICE, CLOUD, 49000, 443), table)
    assert matches_packet(rules, _pkt(CLOUD, DEVICE, 443, 49000), table)
    assert not matches_packet(rules, _pkt(DEVICE, "52.0.0.9", 49000, 443),
                              table)


def test_address_rule_matches_raw_literal(topo):
    rules = parse("block tcp init device resp ip:52.0.0.9:443 dir bi\n")
    assert matches_packet(rules, _pkt(DEVICE, "52.0.0.9", 49000, 443),
                          DnsTable(topo))


def test_domain_rule_needs_table_entry(topo):
    rules = compile_rules([_flow()])
    assert not matches_packet(rules, _pkt(DEVICE, CLOUD, 49000, 443),
                              DnsTable(topo))


def test_dns_response_matches_via_question(topo):
    sel = DnsSelector(qtype="A", qname="a.example")
    rules = compile_rules([
        _flow(transport=Transport.UDP,
              responder=HostRef.role("gateway"), responder_port=53, app=sel)])
    gw = topo.gateway_addr
    query = _pkt(DEVICE, gw, 50000, 53, "udp", app=sel)
    response = _pkt(gw, DEVICE, 53, 50000, "udp", app=sel,
                    dns_answers=(("a.example", CLOUD),))
    table = DnsTable(topo)
    assert matches_packet(rules, query, table)
    assert matches_packet(rules, response, table)


def test_control_packets_of_blocked_flow_match(topo):
    rules = parse("block tcp init device resp ip:52.0.0.9:443 dir bi\n")
    syn = _pkt(DEVICE, "52.0.0.9", 49000, 443, tcp_flags=TCP_SYN,
               control_plane=True)
    assert matches_packet(rules, syn, DnsTable(topo))


def test_non_ip_packets_never_match(topo):
    rules = parse("block tcp init device resp phone dir bi\n")
    arp = ParsedPacket(ts_us=0, src_addr=DEVICE, dst_addr=topo.phone_addr,
                       transport="arp", wire_len=42, control_plane=True)
    assert not matches_packet(rules, arp, DnsTable(topo))


def test_empty_ruleset_matches_nothing(topo):
    assert not blocks(RuleSet(), _flow())
    assert not matches_packet(RuleSet(), _pkt(DEVICE, CLOUD, 49000, 443),
                              DnsTable(topo))
