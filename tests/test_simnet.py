import copy
import gc
import hashlib
import itertools
import json
import re
import tracemalloc

import pytest

from flowprof import (
    Direction,
    DnsTable,
    FlowId,
    GuardCycle,
    HostKind,
    HostRef,
    ParsedPacket,
    ProfileConfig,
    Rule,
    RuleSet,
    SchemaError,
    SimDriver,
    UnknownFlowRef,
    UnresolvedDomain,
    aggregate_flows,
    compile_rules,
    extract_signature,
    filter_control_plane,
    load_model,
    matches_flow,
    oracle_tree,
    profile_event,
    read_pcap,
    run_capture,
    write_pcap,
)
from flowprof import simnet
from flowprof.blocklist import matches_packet, parse as parse_rules
from flowprof.simnet import (
    _blocked_ids,
    _blocked_ids_by_flow,
    _in_time_order,
    eval_success,
    model_table,
)

from conftest import MODEL_DIR, model_path

BASE = {
    "schema": 1,
    "topology": {
        "device": "192.168.1.53",
        "phone": "192.168.1.77",
        "gateway": "192.168.1.1",
        "local_prefixes": ["192.168.1.0/24"],
    },
    "dns_records": [["a.example", "52.1.1.1"]],
    "flows": [
        {
            "id": "ctrl",
            "flow": {
                "initiator": "device", "responder": "phone",
                "initiator_port": 9999, "responder_port": None,
                "transport": "tcp", "direction": "bi", "app": None,
            },
            "packets": {"count": 2, "sizes": [64]},
        },
        {
            "id": "cloud",
            "flow": {
                "initiator": "device", "responder": "dom:a.example",
                "initiator_port": None, "responder_port": 443,
                "transport": "tcp", "direction": "bi", "app": None,
            },
            "guard": [["ctrl"]],
            "packets": {"count": 3, "sizes": [128]},
        },
    ],
    "success": {"or": [{"flow": "ctrl"}, {"flow": "cloud"}]},
    "noise": [],
}


def _model(mutate=None):
    obj = copy.deepcopy(BASE)
    if mutate:
        mutate(obj)
    return obj


# -- validation -----------------------------------------------------------------


def test_loads_from_path_text_and_dict(tmp_path):
    path = tmp_path / "mini_plug.json"
    path.write_text(json.dumps(BASE))
    for source in (path, str(path), json.dumps(BASE), _model()):
        model = load_model(source)
        assert [s.id for s in model.flows] == ["ctrl", "cloud"]
        assert model.topology.device_addr == "192.168.1.53"


def test_loading_leaves_no_reference_cycle():
    gc.collect()
    load_model(_model())
    assert gc.collect() == 0


def test_a_refused_guard_cycle_leaves_no_reference_cycle():
    def twist(obj):
        obj["flows"][0]["guard"] = [["cloud"]]
    obj = _model(twist)
    gc.collect()
    try:
        load_model(obj)
    except GuardCycle:
        pass
    assert gc.collect() == 0


def test_rejects_unknown_schema_version():
    with pytest.raises(SchemaError):
        load_model(_model(lambda o: o.update(schema=2)))


def test_rejects_guard_cycles():
    def twist(obj):
        obj["flows"][0]["guard"] = [["cloud"]]
    with pytest.raises(GuardCycle):
        load_model(_model(twist))


def test_rejects_unknown_guard_reference():
    def twist(obj):
        obj["flows"][1]["guard"] = [["ghost"]]
    with pytest.raises(UnknownFlowRef):
        load_model(_model(twist))


def test_rejects_unknown_success_reference():
    with pytest.raises(UnknownFlowRef):
        load_model(_model(lambda o: o.update(success={"flow": "ghost"})))


def test_rejects_unresolved_domain_endpoint():
    with pytest.raises(UnresolvedDomain):
        load_model(_model(lambda o: o.update(dns_records=[])))


def test_rejects_unresolved_query_name():
    def twist(obj):
        obj["flows"].append({
            "id": "lookup",
            "flow": {
                "initiator": "device", "responder": "gateway",
                "initiator_port": None, "responder_port": 53,
                "transport": "udp", "direction": "bi",
                "app": {"proto": "dns", "qtype": "A", "qname": "ghost.example"},
            },
            "packets": {"count": 2, "sizes": [70]},
        })
    with pytest.raises(UnresolvedDomain):
        load_model(_model(twist))


def test_rejects_duplicate_ids_and_templates():
    def same_id(obj):
        obj["flows"][1]["id"] = "ctrl"
    with pytest.raises(SchemaError):
        load_model(_model(same_id))

    def same_template(obj):
        clone = copy.deepcopy(obj["flows"][0])
        clone["id"] = "ctrl2"
        obj["flows"].append(clone)
    with pytest.raises(SchemaError):
        load_model(_model(same_template))


def test_rejects_address_endpoint_shadowing_a_record():
    def twist(obj):
        obj["flows"][1]["flow"]["responder"] = "ip:52.1.1.1"
    with pytest.raises(SchemaError):
        load_model(_model(twist))


def test_rejects_bad_packet_shapes():
    def bad_count(obj):
        obj["flows"][0]["packets"]["count"] = 1
    with pytest.raises(SchemaError):
        load_model(_model(bad_count))

    def bad_size(obj):
        obj["flows"][0]["packets"]["sizes"] = [0]
    with pytest.raises(SchemaError):
        load_model(_model(bad_size))


def test_noise_requires_probability_and_main_flows_reject_it():
    def noise_no_p(obj):
        obj["noise"] = [{
            "id": "hum",
            "flow": {
                "initiator": "phone", "responder": "dom:a.example",
                "initiator_port": None, "responder_port": 443,
                "transport": "tcp", "direction": "bi", "app": None,
            },
            "packets": {"count": 2, "sizes": [80]},
        }]
    with pytest.raises(SchemaError):
        load_model(_model(noise_no_p))

    def main_with_p(obj):
        obj["flows"][0]["p"] = 0.5
    with pytest.raises(SchemaError):
        load_model(_model(main_with_p))

    def bad_p(obj):
        noise_no_p(obj)
        obj["noise"][0]["p"] = 1.5
    with pytest.raises(SchemaError):
        load_model(_model(bad_p))


def test_rejects_unpinned_dns_flow():
    def twist(obj):
        obj["flows"].append({
            "id": "lookup",
            "flow": {
                "initiator": "device", "responder": "gateway",
                "initiator_port": None, "responder_port": None,
                "transport": "udp", "direction": "bi",
                "app": {"proto": "dns", "qtype": "A", "qname": "a.example"},
            },
            "packets": {"count": 2, "sizes": [70]},
        })
    with pytest.raises(SchemaError):
        load_model(_model(twist))


def test_a_json_boolean_is_not_a_number():
    def noisy(obj):
        obj["noise"] = [{
            "id": "hum",
            "flow": {"initiator": "phone", "responder": "dom:a.example",
                     "responder_port": 443},
            "packets": {"count": 2, "sizes": [80]},
            "p": True,
        }]

    def boolean_size(obj):
        obj["flows"][0]["packets"]["sizes"] = [True]
    for path, kind, mutate in (
            ("schema", "an integer", lambda obj: obj.update(schema=True)),
            ("noise[0].p", "a number", noisy),
            ("flows[0].packets.sizes[0]", "an integer", boolean_size)):
        with pytest.raises(SchemaError,
                           match=re.escape(f"{path} must be {kind}, not True")):
            load_model(_model(mutate))


def test_loading_from_a_path_retains_no_memory():
    """Loads of one path keep nothing: the path is opened as it is, not
    parsed by pathlib, which interns its parts, and the topology names its
    attributes with constant strings."""
    path = str(model_path("hs110_toggle"))
    load_model(path)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(2000):
            load_model(path)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 64 * 1024


# -- capture behavior ---------------------------------------------------------------


def test_run_capture_is_deterministic():
    model = load_model(_model())
    one = run_capture(model, RuleSet(), seed=5)
    two = run_capture(model, RuleSet(), seed=5)
    other = run_capture(model, RuleSet(), seed=6)
    assert one.trace.packets == two.trace.packets
    assert one.trace.packets != other.trace.packets
    assert one.seed == 5


def test_timestamps_strictly_increase():
    model = load_model(_model())
    packets = run_capture(model, RuleSet(), seed=0).trace.packets
    stamps = [p.ts_us for p in packets]
    assert stamps == sorted(stamps)
    assert len(set(stamps)) == len(stamps)


def test_tied_times_are_nudged_past_the_packet_before():
    """Unsorted packets with a two-way and a three-way tie come out in time
    order, ties in input order, each tied packet after the first moved 1 us
    past the one before it; every other packet is the same object."""
    packets = [ParsedPacket(ts_us=ts, src_addr="192.168.1.53",
                            dst_addr="52.1.1.1", wire_len=index)
               for index, ts in enumerate((30, 10, 20, 10, 20, 20, 40))]
    out = _in_time_order(list(packets))
    assert [p.ts_us for p in out] == [10, 11, 20, 21, 22, 30, 40]
    assert [p.wire_len for p in out] == [1, 3, 2, 4, 5, 0, 6]
    for got in out:
        sent = packets[got.wire_len]
        if got.ts_us == sent.ts_us:
            assert got is sent
        else:
            assert got == sent._replace(ts_us=got.ts_us)
    assert sum(got is packets[got.wire_len] for got in out) == 4


def test_capture_carries_dressing_but_filter_removes_it():
    model = load_model(_model())
    trace = run_capture(model, RuleSet(), seed=0).trace
    transports = {p.transport for p in trace.packets}
    assert "arp" in transports
    assert any(p.transport == "tcp" and p.control_plane for p in trace.packets)
    clean = filter_control_plane(trace)
    assert all(not p.control_plane for p in clean.packets)
    assert all(p.transport in ("tcp", "udp") for p in clean.packets)


def _blocked(model, rules) -> frozenset:
    """Ids of the specs the rules block, on the model's laid-out packets."""
    table, _, _, packets = simnet._model_layout(model)
    return _blocked_ids(rules, table, packets)


def _flows_in(model, trace) -> set:
    """Ids of the model flows some packet of the trace belongs to."""
    table = model_table(model)
    return {spec.id for spec in model.flows + model.noise
            if any(matches_packet(compile_rules([spec.flow]), p, table)
                   for p in trace.packets)}


def test_blocked_flow_leaves_no_packets():
    model = load_model(_model())
    rules = compile_rules([model.spec("ctrl").flow])
    result = run_capture(model, rules, seed=0)
    # blocking ctrl leaves none of its packets and activates the guarded
    # fallback, whose packets keep the event alive
    assert _flows_in(model, result.trace) == {"cloud"}
    assert result.success


def test_guard_activates_only_after_blocking():
    model = load_model(_model())
    unblocked = run_capture(model, RuleSet(), seed=0)
    assert _flows_in(model, unblocked.trace) == {"ctrl"}
    assert unblocked.success


def _sometimes_noisy(obj):
    """Two noise flows of p=0.5, so the delivered set depends on the draws."""
    obj["noise"] = [
        {"id": "hum",
         "flow": {"initiator": "phone", "responder": "dom:a.example",
                  "responder_port": 8443, "transport": "tcp",
                  "direction": "bi", "app": None},
         "p": 0.5, "packets": {"count": 2, "sizes": [80]}},
        {"id": "buzz",
         "flow": {"initiator": "device", "responder": "dom:a.example",
                  "responder_port": 7000, "transport": "udp",
                  "direction": "uni", "app": None},
         "p": 0.5, "packets": {"count": 3, "sizes": [40]}},
    ]


def test_a_capture_succeeds_on_the_flows_it_delivers():
    model = load_model(_model(_sometimes_noisy))
    seen = set()
    for rules in (RuleSet(), compile_rules([model.spec("ctrl").flow])):
        for seed in range(12):
            capture = run_capture(model, rules, seed)
            delivered = frozenset(_flows_in(model, capture.trace))
            assert capture.success == eval_success(model.success, delivered)
            seen.add(delivered)
    # the draws decide: every noise subset shows up under both rule sets
    assert len(seen) == 8


def test_success_formula_sees_only_delivered_flows():
    def essential(obj):
        obj["success"] = {"flow": "ctrl"}
    model = load_model(_model(essential))
    rules = compile_rules([model.spec("ctrl").flow])
    assert not run_capture(model, rules, seed=0).success
    assert run_capture(model, RuleSet(), seed=0).success


def _uni_beside_http(obj):
    """Two flows on one endpoint pair: an app-less uni TCP flow and a bi
    HTTP flow."""
    pair = {"initiator": "device", "responder": "dom:a.example.com",
            "initiator_port": None, "responder_port": 8883,
            "transport": "tcp"}
    obj["dns_records"] = [["a.example.com", "52.1.1.1"]]
    obj["flows"] = [
        {"id": "x_uni", "flow": dict(pair, direction="uni", app=None),
         "packets": {"count": 2, "sizes": [64]}},
        {"id": "y_http",
         "flow": dict(pair, direction="bi",
                      app={"proto": "http", "method": "GET", "uri": "/s",
                           "is_response": False}),
         "packets": {"count": 4, "sizes": [120]}},
    ]
    obj["success"] = {"or": [{"flow": "x_uni"}, {"flow": "y_http"}]}


def test_uni_rule_blocks_the_bi_flow_beside_it():
    model = load_model(_model(_uni_beside_http))
    topo = model.topology
    captures = SimDriver(model).run(RuleSet(), m=3, seed=0)
    flow_sets = aggregate_flows([filter_control_plane(c.trace)
                                 for c in captures], DnsTable(topo))
    observed = extract_signature(flow_sets, m=3).flows
    x_flow, = [f for f in observed if f.direction is Direction.UNIDIRECTIONAL]
    rules = compile_rules([x_flow])
    y_http = model.spec("y_http").flow
    # the uni rule would drop y_http's device->cloud packets, so it blocks
    # the whole flow
    table, _, _, packets = simnet._model_layout(model)
    assert matches_flow(rules, packets["y_http"], table)
    for seed in range(5):
        assert any(p.app == y_http.app
                   for p in run_capture(model, RuleSet(), seed).trace.packets)
        assert not any(p.app == y_http.app
                       for p in run_capture(model, rules, seed).trace.packets)
    for config in (ProfileConfig(m=5), ProfileConfig(m=5, pruning=False,
                                                     max_depth=3)):
        assert profile_event(SimDriver(model), config).export_json() == \
            oracle_tree(model, pruning=config.pruning,
                        max_depth=config.max_depth).export_json()


def _pinned_beside_web(obj):
    """Two flows to a.example:443: an app-less one from the device's port
    50000, and an HTTP request from an ephemeral port, which the event
    needs."""
    pair = {"initiator": "device", "responder": "dom:a.example",
            "responder_port": 443, "transport": "tcp", "direction": "bi"}
    obj["flows"] = [
        {"id": "pinned", "flow": dict(pair, initiator_port=50000, app=None),
         "packets": {"count": 2, "sizes": [64]}},
        {"id": "web",
         "flow": dict(pair, initiator_port=None,
                      app={"proto": "http", "method": "GET", "uri": "/x",
                           "is_response": False}),
         "packets": {"count": 2, "sizes": [120]}},
    ]
    obj["success"] = {"flow": "web"}


def test_a_flow_the_packet_firewall_cuts_is_not_delivered():
    model = load_model(_model(_pinned_beside_web))
    rules = compile_rules([model.spec("pinned").flow])
    cut = 0
    for seed in range(4000):
        capture = run_capture(model, rules, seed)
        if "web" not in _flows_in(model, capture.trace):
            # web's ephemeral port was drawn as 50000, so the re-filter
            # dropped its packets: the event has nothing to succeed on
            assert not capture.success, seed
            cut += 1
    assert cut >= 1


COAP_BY_ADDRESS = "block udp init device resp ip:198.51.100.80 dir bi\n"


def test_an_address_rule_blocks_the_flows_of_its_domain():
    """coap_http names its CoAP server svc.coap-home.example, at
    198.51.100.80.  A rule on that address drops every CoAP packet, so both
    CoAP specs are blocked and the guarded HTTP fallback carries the event."""
    model = load_model(model_path("coap_http"))
    rules = parse_rules(COAP_BY_ADDRESS)
    assert _blocked(model, rules) == {"coap_req", "coap_resp"}
    for seed in range(5):
        capture = run_capture(model, rules, seed)
        assert capture.success, seed
        assert _flows_in(model, capture.trace) == {"http_req", "http_resp"}


def _always_emitted(obj):
    """Every spec in every capture: no guards, and noise of p = 1."""
    for entry in obj["flows"] + obj.get("noise", []):
        entry.pop("guard", None)
    for entry in obj.get("noise", []):
        entry["p"] = 1
    return obj


def _single_rule_sets(model) -> list:
    """A rule set compiled from each spec flow, and one for each spec end
    at a domain: the flow's other host to the domain's record address, on
    any ports and app, both ways."""
    record = dict(model.dns_records)
    out = []
    for spec in model.flows + model.noise:
        flow = spec.flow
        out.append(compile_rules([flow]))
        for end, other in ((flow.initiator, flow.responder),
                           (flow.responder, flow.initiator)):
            if end.kind is HostKind.DOMAIN:
                out.append(RuleSet((Rule(FlowId(
                    other, HostRef.address(record[end.value]),
                    transport=flow.transport,
                    direction=Direction.BIDIRECTIONAL)),)))
    return out


@pytest.mark.parametrize(
    "name", sorted(path.stem for path in MODEL_DIR.glob("*.json")))
def test_a_spec_is_blocked_iff_the_packet_firewall_drops_it(name):
    """With every spec emitted in every capture, the specs a one-rule set
    blocks are those the packet filter drops a packet of in each of 3
    unfiltered captures, and those none of whose packets survive any of 3
    captures under the rule.  Data packets name the specs: the handshakes
    of a uni request and its reply look alike, and no rule here drops a
    handshake packet of a spec without one of its data packets."""
    model = load_model(_always_emitted(json.loads(
        model_path(name).read_text())))
    table, _, layouts, _ = simnet._model_layout(model)
    owner = {}  # data template packet -> id of the spec laying it out
    for spec_id, layout in layouts.items():
        for _, _, _, template in layout:
            if not template.control_plane:
                assert owner.setdefault(template, spec_id) == spec_id

    def spec_ids(packets) -> set:
        return {owner[p._replace(ts_us=0, src_port=None, dst_port=None)]
                for p in packets if not p.control_plane}

    for rules in _single_rule_sets(model):
        blocked = _blocked(model, rules)
        for seed in range(3):
            sent = run_capture(model, RuleSet(), seed).trace.packets
            assert spec_ids(p for p in sent
                            if matches_packet(rules, p, table)) == blocked
            kept = run_capture(model, rules, seed).trace.packets
            assert spec_ids(kept) == set(layouts) - blocked, (rules, seed)


def test_only_flows_a_rule_could_hit_are_refiltered(monkeypatch):
    """Under each first-level block of appendix_c no rule touches a flow
    it does not block, so no packet is re-checked; beside a pinned rule,
    each of web's 7 packets is."""
    checked = []

    def counting(rules, packet, table):
        checked.append(packet)
        return matches_packet(rules, packet, table)
    monkeypatch.setattr(simnet, "matches_packet", counting)
    model = load_model(model_path("appendix_c"))
    tree = oracle_tree(model)
    for handle in tree.node(tree.root).children:
        rules = compile_rules([tree.node(handle).flow])
        for seed in range(3):
            run_capture(model, rules, seed)
    assert checked == []
    model = load_model(_model(_pinned_beside_web))
    rules = compile_rules([model.spec("pinned").flow])
    for seed in range(3):
        capture = run_capture(model, rules, seed)
        assert checked[-7:] == [p for p in capture.trace.packets
                                if p.transport == "tcp"]
    assert len(checked) == 21


def test_driver_run_seeds_sequentially():
    driver = SimDriver(load_model(_model()))
    results = driver.run(RuleSet(), m=4, seed=10)
    assert [r.seed for r in results] == [10, 11, 12, 13]
    with pytest.raises(ValueError):
        driver.run(RuleSet(), m=0, seed=0)  # refused at the call, not drawn


def test_model_table_names_all_records():
    model = load_model(_model())
    assert model_table(model).lookup("52.1.1.1") == "a.example"


# -- driver and oracle ----------------------------------------------------------------


def test_an_ipv6_lan_profiles_as_the_oracle_does():
    def ipv6(obj):
        obj["topology"] = {"device": "fd00::53", "phone": "fd00::77",
                           "gateway": "fd00::1", "local_prefixes": ["fd00::/8"]}
        obj["dns_records"] = [["a.example", "2001:db8::1"]]
    model = load_model(_model(ipv6))
    tree = profile_event(SimDriver(model),
                         ProfileConfig(m=5, seed=0, audit_blocking=True))
    assert tree.export_json() == oracle_tree(model).export_json()
    assert len(tree.nodes) == 3  # the root, ctrl, and cloud below ctrl


def test_one_capture_profiles_as_the_oracle_does():
    """At m = 1 an ephemeral port drawn once is not taken for a fixed one."""
    model = load_model(_model())
    tree = profile_event(SimDriver(model), ProfileConfig(m=1, seed=0))
    assert tree.export_json() == oracle_tree(model).export_json()


def test_driver_round_trips_through_pcap():
    model = load_model(_model())
    direct = [run_capture(model, RuleSet(), seed) for seed in range(2)]
    driven = SimDriver(model).run(RuleSet(), m=2, seed=0)
    for a, b in zip(direct, driven):
        assert b.trace.packets == a.trace.packets
        assert b.success == a.success


@pytest.mark.parametrize(
    "name", sorted(path.stem for path in MODEL_DIR.glob("*.json")))
def test_pcap_round_trip_is_the_identity_on_simulator_captures(name):
    """Why the driver hands over captures without a codec pass: with nothing,
    each spec flow and each pair of spec flows blocked, seeds 0-9."""
    model = load_model(model_path(name))
    flows = [spec.flow for spec in model.flows + model.noise]
    for blocking_set in [()] + [(flow,) for flow in flows] \
            + list(itertools.combinations(flows, 2)):
        rules = compile_rules(blocking_set)
        for seed in range(10):
            trace = run_capture(model, rules, seed).trace
            assert read_pcap(write_pcap(trace)).packets == trace.packets, \
                (blocking_set, seed)


def test_simulator_captures_are_pinned():
    """The round-trip test's 1,620 captures, each written to pcap and
    followed by its success bit, hash to one fixed digest."""
    digest = hashlib.sha256()
    for name in sorted(path.stem for path in MODEL_DIR.glob("*.json")):
        model = load_model(model_path(name))
        flows = [spec.flow for spec in model.flows + model.noise]
        for blocking_set in [()] + [(flow,) for flow in flows] \
                + list(itertools.combinations(flows, 2)):
            rules = compile_rules(blocking_set)
            for seed in range(10):
                capture = run_capture(model, rules, seed)
                digest.update(write_pcap(capture.trace))
                digest.update(b"1" if capture.success else b"0")
    assert digest.hexdigest() == \
        "c3aa89ff4850d15fda9ce1ade5fa9483561ee739a94a3d16c71f49497fb8d350"


def test_experiments_on_one_model_share_its_dns_table():
    """The plan's table is the model's, so its memo names each address once
    per model, not once per experiment."""
    model = load_model(model_path("appendix_c"))
    plans = [simnet._experiment_plan(model, compile_rules([spec.flow]))
             for spec in model.flows]
    assert all(plan[0] is plans[0][0] for plan in plans)


@pytest.mark.parametrize("m", [20, 5])
def test_each_flow_is_laid_out_once_per_model(monkeypatch, m):
    """Frame lengths are worked out when a model's flows are laid out, not
    per capture: the unpruned appendix_c walk sizes 46 frames at any m."""
    frame_len = simnet.frame_len
    calls = []

    def counting(pkt):
        calls.append(pkt)
        return frame_len(pkt)
    monkeypatch.setattr(simnet, "frame_len", counting)
    model = load_model(model_path("appendix_c"))
    profile_event(SimDriver(model), ProfileConfig(m=m, pruning=False))
    assert len(calls) == 46


def _odd_flow(transport, port, app):
    def add(obj):
        obj["flows"].append({
            "id": "odd",
            "flow": {"initiator": "device", "responder": "dom:a.example",
                     "responder_port": port, "transport": transport,
                     "direction": "bi", "app": app},
            "packets": {"count": 2, "sizes": [100]},
        })
    return add


COAP_GET = {"proto": "coap", "type": "CON", "code": "GET", "uri_path": "/x"}


def _v6_only_domain(obj):
    """The IPv4 device's odd flow goes to a domain with only an IPv6 record."""
    _odd_flow("tcp", 443, None)(obj)
    obj["dns_records"] = [["a.example", "2001:db8::1"]]
    obj["flows"] = obj["flows"][2:]
    obj["success"] = {"flow": "odd"}


READS_BACK = "its app reads back as"


@pytest.mark.parametrize("mutate,message", [
    (_odd_flow("udp", 80, {"proto": "http", "method": "GET", "uri": "/x"}),
     READS_BACK),
    (_odd_flow("tcp", 5683, COAP_GET), READS_BACK),
    (_odd_flow("udp", 53, COAP_GET), READS_BACK),
    (_odd_flow("tcp", 80, {"proto": "http", "method": "GET",
                           "is_response": True}), READS_BACK),
    (_odd_flow("udp", 5683, dict(COAP_GET, uri_path="/a//b")), READS_BACK),
    (_odd_flow("udp", 53, {"proto": "dns", "qtype": "TXT",
                           "qname": "x" * 70 + ".example"}), READS_BACK),
    (_v6_only_domain, "mixed address families in one packet"),
], ids=["http-over-udp", "coap-over-tcp", "coap-on-53", "http-response-method",
        "coap-empty-segment", "dns-70-char-label", "v6-only-domain"])
def test_driver_refuses_a_flow_a_capture_cannot_carry(mutate, message):
    model = load_model(_model(mutate))
    with pytest.raises(SchemaError,
                       match=f"flow 'odd' cannot be captured: {message}"):
        SimDriver(model)


def test_driver_hands_over_a_fresh_dns_table():
    model = load_model(_model())
    driver = SimDriver(model)
    table = driver.dns_table()
    assert table.topo == model.topology
    assert table.entries == {"52.1.1.1": "a.example"}
    # profiling folds answers into the table it is given; the next one is new
    table.update(ParsedPacket(ts_us=0, src_addr="192.168.1.1",
                              dst_addr="192.168.1.53", transport="udp",
                              dns_answers=(("b.example", "52.2.2.2"),)))
    assert table.lookup("52.2.2.2") == "b.example"
    assert driver.dns_table().entries == {"52.1.1.1": "a.example"}


def test_oracle_tree_explores_guarded_flows():
    model = load_model(_model())
    tree = oracle_tree(model)
    stats = tree.stats()
    assert stats.first_level == 1
    assert stats.hidden_flows == 1
    assert stats.unique_flows == 2


def test_oracle_certain_noise_joins_the_tree():
    def noisy(obj):
        obj["noise"] = [{
            "id": "hum",
            "flow": {
                "initiator": "phone", "responder": "dom:a.example",
                "initiator_port": None, "responder_port": 443,
                "transport": "tcp", "direction": "bi", "app": None,
            },
            "p": 1.0,
            "packets": {"count": 2, "sizes": [80]},
        }]
    tree = oracle_tree(load_model(_model(noisy)))
    assert tree.stats().first_level == 2


def test_oracle_depth_cap_prunes():
    tree = oracle_tree(load_model(_model()), max_depth=1)
    stats = tree.stats()
    # the capped node is discovered (counts as hidden) but never explored
    assert stats.hidden_flows == 1
    assert stats.expanded_count == 1
    assert stats.pruned_per_depth == ((2, 1),)


@pytest.mark.parametrize(
    "name", sorted(path.stem for path in MODEL_DIR.glob("*.json")))
def test_oracle_blocked_maps_compose_from_per_flow_verdicts(name):
    model = load_model(model_path(name))
    blocked_ids = _blocked_ids_by_flow(model)
    tree = oracle_tree(model, pruning=False, max_depth=3)
    for handle in range(len(tree.nodes)):
        blocking_set = tree.blocking_set(handle)
        assert blocked_ids(blocking_set) \
            == _blocked(model, compile_rules(blocking_set)), blocking_set


def test_pcap_file_of_capture_round_trips():
    model = load_model(_model())
    trace = run_capture(model, RuleSet(), seed=3).trace
    again = read_pcap(write_pcap(trace))
    assert again.packets == trace.packets
