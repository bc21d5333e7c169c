import copy
import json

import pytest

from flowprof import (
    Direction,
    DnsTable,
    GuardCycle,
    RuleSet,
    SchemaError,
    SimDriver,
    UnknownFlowRef,
    UnresolvedDomain,
    active_flows,
    aggregate_flows,
    compile_rules,
    extract_signature,
    filter_control_plane,
    load_model,
    matches_flow,
    oracle_tree,
    read_pcap,
    run_capture,
    run_experiment,
    write_pcap,
)
from flowprof.simnet import capture_emission, model_table

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
    by_path = load_model(path)
    assert by_path.name == "mini_plug"
    assert load_model(json.dumps(BASE)).name == "model"
    assert load_model(_model()).name == "model"
    assert [s.id for s in by_path.flows] == ["ctrl", "cloud"]


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


# -- capture behavior ---------------------------------------------------------------


def test_run_capture_is_deterministic():
    model = load_model(_model())
    one = run_capture(model, RuleSet(), seed=5)
    two = run_capture(model, RuleSet(), seed=5)
    other = run_capture(model, RuleSet(), seed=6)
    assert one.trace.packets == two.trace.packets
    assert one.trace.packets != other.trace.packets
    assert one.seed == 5
    assert one.trace.label == "model-seed5"


def test_timestamps_strictly_increase():
    model = load_model(_model())
    packets = run_capture(model, RuleSet(), seed=0).trace.packets
    stamps = [p.ts_us for p in packets]
    assert stamps == sorted(stamps)
    assert len(set(stamps)) == len(stamps)


def test_capture_carries_dressing_but_filter_removes_it():
    model = load_model(_model())
    trace = run_capture(model, RuleSet(), seed=0).trace
    transports = {p.transport for p in trace.packets}
    assert "arp" in transports
    assert any(p.transport == "tcp" and p.control_plane for p in trace.packets)
    clean = filter_control_plane(trace)
    assert all(not p.control_plane for p in clean.packets)
    assert all(p.transport in ("tcp", "udp") for p in clean.packets)


def test_blocked_flow_leaves_no_packets():
    model = load_model(_model())
    rules = compile_rules([model.spec("ctrl").flow])
    result = run_capture(model, rules, seed=0)
    # attempted but dropped: the id stays in emitted, the trace stays clean
    assert "ctrl" in result.emitted
    assert not any(
        p.transport == "tcp" and 9999 in (p.src_port, p.dst_port)
        for p in result.trace.packets
    )
    # the guarded fallback keeps the event alive
    assert result.success
    assert "cloud" in result.emitted


def test_guard_activates_only_after_blocking():
    model = load_model(_model())
    unblocked = run_capture(model, RuleSet(), seed=0)
    assert unblocked.emitted == frozenset({"ctrl"})
    assert unblocked.success


def test_capture_emission_mirrors_full_run():
    model = load_model(_model())
    rules = compile_rules([model.spec("ctrl").flow])
    for seed in range(5):
        emitted, delivered, success = capture_emission(model, rules, seed)
        full = run_capture(model, rules, seed)
        assert emitted == full.emitted
        assert success == full.success
        assert delivered <= emitted


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


def test_packet_refilter_drops_what_flow_blocking_lets_through():
    model = load_model(_model(_uni_beside_http))
    topo = model.topology
    captures = SimDriver(model).run(RuleSet(), m=3, seed=0)
    flow_sets = aggregate_flows([filter_control_plane(c.trace)
                                 for c in captures], topo, DnsTable(topo))
    observed = extract_signature(flow_sets, m=3).flows
    x_flow, = [f for f in observed if f.direction is Direction.UNIDIRECTIONAL]
    rules = compile_rules([x_flow])
    y_http = model.spec("y_http").flow
    # the flow-level verdict lets y_http through: the directions differ
    assert not matches_flow(rules, y_http)
    up, down = (topo.device_addr, "52.1.1.1"), ("52.1.1.1", topo.device_addr)

    def y_http_packets(rules, seed):
        return [(p.src_addr, p.dst_addr)
                for p in run_capture(model, rules, seed).trace.packets
                if p.app == y_http.app]

    for seed in range(5):
        assert sorted(y_http_packets(RuleSet(), seed)) == \
            sorted([up, up, down, down])
        # the re-filter drops the device->cloud half, packet by packet
        assert y_http_packets(rules, seed) == [down, down]


def test_run_experiment_seeds_sequentially():
    model = load_model(_model())
    results = run_experiment(model, RuleSet(), m=4, seed=10)
    assert [r.seed for r in results] == [10, 11, 12, 13]
    with pytest.raises(ValueError):
        run_experiment(model, RuleSet(), m=0, seed=0)


def test_model_table_names_all_records():
    model = load_model(_model())
    assert model_table(model).lookup("52.1.1.1") == "a.example"


def test_active_flows_tracks_guard_state():
    model = load_model(_model())
    assert active_flows(model, RuleSet()) == ["ctrl"]
    rules = compile_rules([model.spec("ctrl").flow])
    # activation only: the blocked trigger still counts as active
    assert active_flows(model, rules) == ["ctrl", "cloud"]


# -- driver and oracle ----------------------------------------------------------------


def test_driver_round_trips_through_pcap():
    model = load_model(_model())
    direct = run_experiment(model, RuleSet(), m=2, seed=0)
    driven = SimDriver(model).run(RuleSet(), m=2, seed=0)
    for a, b in zip(direct, driven):
        assert b.trace.packets == a.trace.packets
        assert b.success == a.success
    raw = SimDriver(model, through_pcap=False).run(RuleSet(), m=2, seed=0)
    for a, b in zip(direct, raw):
        assert b.trace.packets == a.trace.packets


def test_driver_exposes_topology_and_seed():
    model = load_model(_model())
    driver = SimDriver(model)
    assert driver.topology() == model.topology
    assert driver.dns_seed() == {"52.1.1.1": "a.example"}


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


def test_pcap_file_of_capture_round_trips():
    model = load_model(_model())
    trace = run_capture(model, RuleSet(), seed=3).trace
    again = read_pcap(write_pcap(trace, model.topology))
    assert again.packets == trace.packets
