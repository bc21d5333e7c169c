from dataclasses import replace

import pytest

from flowprof import (
    BlockingViolation,
    Direction,
    DnsSelector,
    EventSignature,
    FlowId,
    HostRef,
    NodeStatus,
    ParsedPacket,
    ProfileConfig,
    RootFailed,
    SigTree,
    SimDriver,
    Transport,
    build_report,
    dns_stats,
    load_model,
    oracle_tree,
    profile_event,
    render_csv,
)
from flowprof.profiler import CSV_COLUMNS

from conftest import model_path
from test_simnet import _model


def test_config_validation():
    with pytest.raises(ValueError):
        ProfileConfig(m=0)
    with pytest.raises(ValueError):
        ProfileConfig(max_depth=0)
    assert ProfileConfig().m == 20


def test_profile_matches_oracle_on_mini_model():
    model = load_model(_model())
    tree = profile_event(SimDriver(model),
                         ProfileConfig(m=5, seed=0, audit_blocking=True))
    assert tree.export_json() == oracle_tree(model).export_json()


def test_profile_raises_when_root_fails():
    def unreachable(obj):
        obj["success"] = {"flow": "cloud"}     # guarded off at the root
    model = load_model(_model(unreachable))
    with pytest.raises(RootFailed):
        profile_event(SimDriver(model), ProfileConfig(m=3, seed=0))
    with pytest.raises(RootFailed):
        oracle_tree(model)


def test_profile_marks_essential_flow_failed():
    def essential(obj):
        obj["success"] = {"flow": "ctrl"}
    model = load_model(_model(essential))
    tree = profile_event(SimDriver(model), ProfileConfig(m=3, seed=0))
    stats = tree.stats()
    assert stats.failed_count == 1
    assert stats.hidden_flows == 0


def test_profile_depth_cap():
    model = load_model(_model())
    tree = profile_event(SimDriver(model),
                         ProfileConfig(m=3, seed=0, max_depth=1))
    assert tree.stats().pruned_per_depth == ((2, 1),)
    reasons = {n.reason for n in tree.nodes if n.reason}
    assert reasons == {"depth-capped"}


def test_experiment_seeds_step_by_m():
    model = load_model(_model())
    seen = []

    class Recorder:
        def dns_table(self):
            return SimDriver(model).dns_table()

        def run(self, rules, m, seed):
            seen.append((seed, m))
            return SimDriver(model).run(rules, m, seed)

    profile_event(Recorder(), ProfileConfig(m=4, seed=100))
    # one experiment of m captures each at the root, ctrl and cloud
    assert seen == [(100, 4), (104, 4), (108, 4)]


class _Counting(SimDriver):
    """Records each experiment's seed and the captures drawn from it."""

    def __init__(self, model):
        super().__init__(model)
        self.seeds, self.drawn = [], []

    def run(self, rules, m, seed):
        self.seeds.append(seed)
        self.drawn.append(0)
        return self._count(super().run(rules, m, seed))

    def _count(self, captures):
        for capture in captures:
            self.drawn[-1] += 1
            yield capture


def test_blind_walk_runs_one_experiment_per_distinct_blocking_set():
    model = load_model(model_path("appendix_c"))
    driver = _Counting(model)
    tree = profile_event(driver, ProfileConfig(m=20, seed=0, pruning=False))
    # 76 paths, 20 distinct blocking sets; 4 of them fail after 11 captures
    assert tree.stats().node_count == 75
    assert len(tree.nodes) == 20  # one node per set
    assert driver.seeds == list(range(0, 400, 20))
    assert sum(driver.drawn) == 364
    assert tree.export_json() == oracle_tree(model, pruning=False).export_json()


def test_pruning_misses_a_flow_guarded_by_a_conjunction():
    """A pruned walk observes a set only when the flow it adds is new to
    the tree, so the {a, b} node is cut as a duplicate and `c`, which fires
    only when both a and b are blocked, is never seen; unpruned, it is
    found at depth 3."""
    def flow(flow_id, responder):
        return {"id": flow_id, "flow": {
            "initiator": "device", "responder": responder,
            "initiator_port": None, "responder_port": 443,
            "transport": "tcp", "direction": "bi", "app": None},
            "packets": {"count": 2, "sizes": [64]}}

    def conjunction(obj):
        guarded = flow("c", "ip:52.9.9.9")
        guarded["guard"] = [["a", "b"]]
        obj["flows"] = [flow("a", "dom:a.example"), flow("b", "phone"),
                        guarded]
        obj["success"] = {"or": [{"flow": "a"}, {"flow": "b"},
                                 {"flow": "c"}]}
    model = load_model(_model(conjunction))
    a, b, c = (spec.flow for spec in model.flows)
    for pruning, found in ((True, {a, b}), (False, {a, b, c})):
        tree = profile_event(SimDriver(model),
                             ProfileConfig(m=6, seed=0, pruning=pruning))
        assert tree.export_json() == \
            oracle_tree(model, pruning=pruning).export_json()
        assert {node.flow for node in tree.nodes[1:]} == found
        (both,) = [node for node in tree.nodes if node.blocked == {a, b}]
        if pruning:
            assert (both.status, both.reason) == (NodeStatus.PRUNED,
                                                  "duplicate")
        else:
            (found_c,) = [node for node in tree.nodes if node.flow == c]
            assert found_c.depth == 3
            assert tree.node(found_c.parent) is both


@pytest.mark.parametrize("m", [5, 6])
def test_failed_experiment_stops_once_settled(m):
    def essential(obj):
        obj["success"] = {"flow": "ctrl"}
    driver = _Counting(load_model(_model(essential)))
    tree = profile_event(driver, ProfileConfig(m=m, seed=0))
    assert tree.stats().failed_count == 1
    # the root draws all m captures; blocking ctrl fails every capture
    assert driver.drawn == [m, m // 2 + 1]


def test_audit_catches_leaky_driver():
    model = load_model(_model())

    class Leaky(SimDriver):
        def run(self, rules, m, seed):
            results = list(super().run(rules, m, seed))
            if not rules.rules:
                return results
            # smuggle one packet of the blocked local flow back in
            bad = ParsedPacket(
                ts_us=999_999_999, src_addr="192.168.1.53",
                dst_addr="192.168.1.77", src_port=9999, dst_port=50123,
                transport="tcp", wire_len=100,
            )
            trace = results[0].trace
            results[0] = replace(results[0], trace=replace(
                trace, packets=trace.packets + (bad,)))
            return results

    with pytest.raises(BlockingViolation):
        profile_event(Leaky(model),
                      ProfileConfig(m=3, seed=0, audit_blocking=True))


# -- dns statistics -----------------------------------------------------------------


def _dns_flow(responder, qname, port=53):
    return FlowId(
        initiator=HostRef.role("device"),
        responder=responder,
        responder_port=port,
        transport=Transport.UDP,
        direction=Direction.BIDIRECTIONAL,
        app=DnsSelector(qtype="A", qname=qname),
    )


def _tcp_flow(name):
    return FlowId(
        initiator=HostRef.role("device"),
        responder=HostRef.domain(name),
        responder_port=443,
        transport=Transport.TCP,
        direction=Direction.BIDIRECTIONAL,
    )


def _sig(*flows):
    return EventSignature(flows=frozenset(flows), m=3, m_plus=3)


def test_dns_stats_split_by_depth():
    gw_lookup = _dns_flow(HostRef.role("gateway"), "a.example")
    first_ctrl = _tcp_flow("b.example")
    fallback_lookup = _dns_flow(HostRef.address("9.9.9.9"), "a.example")
    hidden_ctrl = _tcp_flow("c.example")

    tree = SigTree()
    tree.add_children(tree.next_node(), _sig(gw_lookup, first_ctrl))
    first = tree.next_node()
    tree.add_children(first, _sig(fallback_lookup, hidden_ctrl))
    stats = dns_stats(tree)
    assert stats.domains_first_level == {"a.example", "b.example"}
    assert stats.domains_hidden == {"c.example"}
    assert stats.resolvers_first_level == {"gateway"}
    assert stats.resolvers_hidden == {"9.9.9.9"}


def test_multicast_responder_counts_as_resolver():
    mdns = FlowId(
        initiator=HostRef.role("phone"),
        responder=HostRef.multicast("224.0.0.251"),
        responder_port=5353,
        transport=Transport.UDP,
        direction=Direction.UNIDIRECTIONAL,
        app=DnsSelector(qtype="PTR", qname="_svc._tcp.local"),
    )
    tree = SigTree()
    tree.add_children(tree.next_node(), _sig(mdns))
    stats = dns_stats(tree)
    assert stats.resolvers_first_level == {"224.0.0.251"}
    assert stats.domains_first_level == {"_svc._tcp.local"}


def test_min_depth_wins_for_repeated_names():
    lookup = _dns_flow(HostRef.role("gateway"), "a.example")
    ctrl = _tcp_flow("a.example")
    tree = SigTree()
    tree.add_children(tree.next_node(), _sig(ctrl))
    first = tree.next_node()
    tree.add_children(first, _sig(lookup))
    stats = dns_stats(tree)
    assert stats.domains_first_level == {"a.example"}
    assert stats.domains_hidden == set()


# -- reports --------------------------------------------------------------------------


def test_report_and_csv_shape():
    model = load_model(_model())
    tree = profile_event(SimDriver(model), ProfileConfig(m=3, seed=0))
    report = build_report(tree, "mini", {"category": "plug", "app": "Kasa"})
    assert report.robustness_score == tree.stats().hidden_flows
    assert report.group == (("app", "Kasa"), ("category", "plug"))

    text = render_csv([report])
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1].startswith("mini,")
    assert "# events=1" in lines
    assert "# scored=1" in lines
    assert "# mean_robustness_scored=1.00" in lines
    assert "# group category=plug events=1 mean_robustness=1.00" in lines
    assert "# group app=Kasa events=1 mean_robustness=1.00" in lines


def test_csv_sorts_rows_and_skips_zero_scores_in_mean():
    model = load_model(_model())
    scored_tree = profile_event(SimDriver(model), ProfileConfig(m=3, seed=0))

    def essential(obj):
        obj["success"] = {"flow": "ctrl"}
    flat_tree = profile_event(SimDriver(load_model(_model(essential))),
                              ProfileConfig(m=3, seed=0))
    text = render_csv([
        build_report(scored_tree, "zz_deep"),
        build_report(flat_tree, "aa_flat"),
    ])
    lines = text.splitlines()
    assert lines[1].startswith("aa_flat,")
    assert lines[2].startswith("zz_deep,")
    assert "# events=2" in lines
    assert "# scored=1" in lines
    assert "# mean_robustness_scored=1.00" in lines


def test_csv_handles_empty_report_list():
    text = render_csv([])
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
    assert "# events=0" in text
    assert "# mean_robustness_scored=0.00" in text
