"""End-to-end acceptance checks for the profiling pipeline.

Each test prints one `criterion N: PASS|FAIL` line so a full run reads as a
checklist.  Budgeted tests also assert their wall-clock limit.
"""

import json
import random
import struct
import time
from dataclasses import replace

import pytest

from flowprof import (
    BlockingViolation,
    CoapSelector,
    Direction,
    DnsSelector,
    DnsTable,
    EventSignature,
    FlowId,
    HostRef,
    HttpSelector,
    ParsedPacket,
    ProfileConfig,
    RuleSet,
    SigTree,
    SimDriver,
    Topology,
    Transport,
    aggregate_flows,
    build_report,
    dns_stats,
    extract_signature,
    load_model,
    oracle_tree,
    profile_event,
    run_capture,
)
from flowprof.blocklist import Rule, parse as parse_rules, render
from flowprof.cli import main as cli_main
from flowprof.pcapio import Trace, dissect, read_pcap, write_pcap

from conftest import MODEL_DIR, model_path


_CAPTURE = None


@pytest.fixture(autouse=True)
def _verdicts_reach_stdout(capsys):
    # verdict lines must land in the test log, not the capture buffer
    global _CAPTURE
    _CAPTURE = capsys
    yield
    _CAPTURE = None


def _verdict(num: int, ok: bool, detail: str):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    if _CAPTURE is None:
        print(line)
    else:
        with _CAPTURE.disabled():
            print(line)
    assert ok, line


def _flow(obj) -> FlowId:
    return FlowId.from_obj(obj)


def _expanded(tree: SigTree, depth=None):
    out = set()
    for handle, node in enumerate(tree.nodes):
        if handle == tree.root or node.status.value != "expanded":
            continue
        if depth is None or node.depth == depth:
            out.add(node.flow)
    return out


# -- shared expensive runs ----------------------------------------------------------


@pytest.fixture(scope="module")
def hs110_run():
    model = load_model(model_path("hs110_toggle"))
    start = time.monotonic()
    tree = profile_event(SimDriver(model),
                         ProfileConfig(m=20, seed=0, audit_blocking=True))
    return tree, time.monotonic() - start


@pytest.fixture(scope="module")
def pipeline_runs():
    mismatches = []
    violations = []
    runs = 0
    start = time.monotonic()
    for path in sorted(MODEL_DIR.glob("*.json")):
        model = load_model(path)
        expected = oracle_tree(model).export_json()
        for seed in (0, 1, 7):
            runs += 1
            try:
                tree = profile_event(
                    SimDriver(model),
                    ProfileConfig(m=20, seed=seed, audit_blocking=True))
            except BlockingViolation as exc:
                violations.append(f"{path.stem} seed {seed}: {exc}")
                continue
            if tree.export_json() != expected:
                mismatches.append(f"{path.stem} seed {seed}")
    elapsed = time.monotonic() - start
    return {"runs": runs, "mismatches": mismatches,
            "violations": violations, "elapsed": elapsed}


# -- criterion 1: plug profile recovers the published flow sets --------------------


HS110_FIRST_LEVEL = [
    {"initiator": "device", "responder": "dom:use1-api.tplinkra.com",
     "responder_port": 443, "transport": "tcp", "direction": "bi"},
    {"initiator": "device", "responder": "gateway", "responder_port": 53,
     "transport": "udp", "direction": "bi",
     "app": {"proto": "dns", "qtype": "A", "qname": "use1-api.tplinkra.com"}},
    {"initiator": "device", "responder": "phone", "initiator_port": 9999,
     "transport": "tcp", "direction": "bi"},
    {"initiator": "device", "responder": "phone", "initiator_port": 9999,
     "transport": "udp", "direction": "bi"},
    {"initiator": "dom:xx-device-telemetry-gw.iot.i.tplinknbu.com",
     "responder": "phone", "initiator_port": 443, "transport": "tcp",
     "direction": "bi"},
    {"initiator": "phone", "responder": "broadcast", "responder_port": 9999,
     "transport": "udp", "direction": "uni"},
    {"initiator": "phone", "responder": "multicast:224.0.0.251",
     "responder_port": 5353, "transport": "udp", "direction": "uni",
     "app": {"proto": "dns", "qtype": "PTR", "qname": "_tplink._tcp.local"}},
]

HS110_HIDDEN = [
    {"initiator": "device", "responder": "ip:79.125.56.92",
     "responder_port": 443, "transport": "tcp", "direction": "bi"},
    {"initiator": "dom:n-wap.tplinkcloud.com", "responder": "phone",
     "initiator_port": 443, "transport": "tcp", "direction": "bi"},
    {"initiator": "device", "responder": "ip:34.240.186.173",
     "responder_port": 443, "transport": "tcp", "direction": "bi"},
    {"initiator": "device", "responder": "dom:n-devs.tplinkcloud.com",
     "responder_port": 443, "transport": "tcp", "direction": "bi"},
]


def test_plug_profile_recovers_expected_flows(hs110_run):
    tree, elapsed = hs110_run
    first = _expanded(tree, depth=1)
    hidden = _expanded(tree) - first
    score = build_report(tree, "hs110_toggle").robustness_score
    ok = (first == {_flow(o) for o in HS110_FIRST_LEVEL}
          and hidden == {_flow(o) for o in HS110_HIDDEN}
          and score == 4
          and elapsed < 10.0)
    _verdict(1, ok, f"7 first-level + 4 hidden flows, robustness "
                    f"{score}, {elapsed:.1f}s")


# -- criterion 2: exhaustive vs pruned exploration ----------------------------------


def test_pruning_preserves_discovered_flows():
    model = load_model(model_path("appendix_c"))
    start = time.monotonic()
    full = profile_event(SimDriver(model),
                         ProfileConfig(m=20, seed=0, pruning=False))
    pruned = profile_event(SimDriver(model), ProfileConfig(m=20, seed=0))
    elapsed = time.monotonic() - start
    flows_full = {n.flow for h, n in enumerate(full.nodes) if h != full.root}
    flows_pruned = {n.flow for h, n in enumerate(pruned.nodes)
                    if h != pruned.root}
    ok = (full.stats().node_count == 75
          and len(flows_full) == 5
          and pruned.stats().expanded_count == 5
          and flows_pruned == flows_full
          and elapsed < 30.0)
    _verdict(2, ok, f"{full.stats().node_count} nodes unpruned vs "
                    f"{pruned.stats().expanded_count} expansions pruned, "
                    f"same {len(flows_full)} flows, {elapsed:.1f}s")


# -- criterion 3: simulated profiling reproduces the symbolic tree ------------------


def test_profiler_matches_oracle_for_every_model(pipeline_runs):
    ok = (pipeline_runs["runs"] >= 18
          and not pipeline_runs["mismatches"]
          and pipeline_runs["elapsed"] < 120.0)
    _verdict(3, ok, f"{pipeline_runs['runs']} model/seed runs identical to "
                    f"the oracle, {pipeline_runs['elapsed']:.1f}s"
                    + (f"; mismatches: {pipeline_runs['mismatches']}"
                       if pipeline_runs["mismatches"] else ""))


# -- criterion 4: signature soundness, monotonicity, noise rejection ----------------


_HOSTS = ["192.168.1.53", "192.168.1.77", "192.168.1.1",
          "52.1.2.3", "198.51.100.7"]
_PORTS = [443, 80, 9999, 8883, 49152, 50001]

NOISE_MODEL = {
    "schema": 1,
    "topology": {
        "device": "192.168.1.53",
        "phone": "192.168.1.77",
        "gateway": "192.168.1.1",
        "local_prefixes": ["192.168.1.0/24"],
    },
    "dns_records": [["ctrl.noisy.example", "198.51.100.9"]],
    "flows": [
        {"id": "ctrl",
         "flow": {"initiator": "device",
                  "responder": "dom:ctrl.noisy.example",
                  "responder_port": 443,
                  "transport": "tcp", "direction": "bi", "app": None},
         "packets": {"count": 4, "sizes": [310, 1290]}},
    ],
    "noise": [
        {"id": "chatter", "p": 0.5,
         "flow": {"initiator": "phone",
                  "responder": "ip:203.0.113.60",
                  "responder_port": 123,
                  "transport": "udp", "direction": "bi", "app": None},
         "packets": {"count": 2, "sizes": [90]}},
    ],
    "success": {"flow": "ctrl"},
}


def _random_trace(rng):
    ts = 1_700_000_000_000_000
    pkts = []
    for _ in range(rng.randint(3, 12)):
        ts += rng.randint(1, 400_000)
        src, dst = rng.sample(_HOSTS, 2)
        pkts.append(ParsedPacket(
            ts_us=ts, src_addr=src, dst_addr=dst,
            src_port=rng.choice(_PORTS), dst_port=rng.choice(_PORTS),
            transport=rng.choice(["tcp", "udp"]),
            wire_len=rng.randint(60, 700), tcp_flags=0x18))
    return Trace(packets=tuple(pkts))


def test_signature_soundness_monotonicity_and_noise_rejection(topo):
    for case in range(1000):
        rng = random.Random(case)
        n = rng.randint(2, 5)
        traces = [_random_trace(rng) for _ in range(n)]
        flow_sets = aggregate_flows(traces, DnsTable(topo))
        sig = extract_signature(flow_sets, m=n)
        for flow_set in flow_sets:
            assert sig.flows <= frozenset(flow_set), case
        prev = None
        for k in range(1, n + 1):
            cur = extract_signature(flow_sets[:k], m=n).flows
            assert prev is None or cur <= prev, case
            prev = cur

    model = load_model(NOISE_MODEL)
    chatter = model.spec("chatter").flow
    for seed in range(1000):
        captures = [run_capture(model, RuleSet(), seed + i) for i in range(20)]
        assert all(capture.success for capture in captures)
        flow_sets = aggregate_flows([capture.trace for capture in captures],
                                    DnsTable(model.topology))
        assert any(chatter in flow_set for flow_set in flow_sets), seed
        assert chatter not in extract_signature(flow_sets, m=20).flows, seed
    _verdict(4, True, "1000 trace sets sound and monotone; p=0.5 noise "
                      "absent from every m=20 signature, seeds 0-999")


# -- criterion 5: majority-success thresholds decide node state ---------------------


MINI_MODEL = {
    "schema": 1,
    "topology": {
        "device": "192.168.1.53",
        "phone": "192.168.1.77",
        "gateway": "192.168.1.1",
        "local_prefixes": ["192.168.1.0/24"],
    },
    "dns_records": [["a.example", "52.1.1.1"]],
    "flows": [
        {"id": "ctrl",
         "flow": {"initiator": "device", "responder": "phone",
                  "initiator_port": 9999, "transport": "tcp",
                  "direction": "bi", "app": None},
         "packets": {"count": 2, "sizes": [91]}},
        {"id": "cloud",
         "flow": {"initiator": "device", "responder": "dom:a.example",
                  "responder_port": 443, "transport": "tcp",
                  "direction": "bi", "app": None},
         "guard": [["ctrl"]],
         "packets": {"count": 3, "sizes": [310]}},
    ],
    "noise": [],
    "success": {"or": [{"flow": "ctrl"}, {"flow": "cloud"}]},
}


class _ForcedDriver:
    """Simulator wrapper that forces success flags below the root."""

    def __init__(self, model, flags):
        self._inner = SimDriver(model)
        self._flags = flags

    def dns_table(self):
        return self._inner.dns_table()

    def run(self, rules, m, seed):
        results = self._inner.run(rules, m, seed)
        if not rules.rules:
            return results
        return [replace(r, success=flag)
                for r, flag in zip(results, self._flags)]


def _child_status(flags):
    model = load_model(MINI_MODEL)
    tree = profile_event(_ForcedDriver(model, flags),
                         ProfileConfig(m=len(flags), seed=0))
    (child,) = [n for h, n in enumerate(tree.nodes)
                if h != tree.root and n.depth == 1]
    return child.status.value


def test_success_thresholds_decide_node_state():
    none_ok = _child_status([False, False, False, False])
    all_ok = _child_status([True, True, True, True])
    half_ok = _child_status([True, True, False, False])
    below_ok = _child_status([True, False, False, False])
    ok = (none_ok == "failed" and all_ok == "expanded"
          and half_ok == "expanded" and below_ok == "failed")
    _verdict(5, ok, f"0/m -> {none_ok}, m/m -> {all_ok}, "
                    f"m/2 -> {half_ok}, under half -> {below_ok}")


# -- criterion 6: codec round-trips and dissector fuzz ------------------------------


_RULE_TOKENS = ["device", "phone", "gateway", "broadcast",
                "multicast:224.0.0.251", "dom:a.example",
                "dom:cdn.vendor-cloud.example", "ip:52.1.2.3",
                "ip:[2001:db8::17]"]
_MATCHER_POOL = [
    (("dns.qtype", "A"), ("dns.qname", "a.example")),
    (("http.method", "GET"), ("http.uri", "/api"),
     ("http.is_response", "false")),
    (("coap.type", "CON"), ("coap.code", "GET"), ("coap.uri_path", "/s")),
    (("dns.qname", "b.example"),),
    (),
]


def _random_packet(rng, ts):
    kind = rng.choice(["tcp", "udp", "dns_q", "dns_r", "http", "coap", "sni"])
    if rng.random() < 0.1:
        src, dst = "2001:db8::53", "2001:db8::17"
    else:
        src = rng.choice(_HOSTS[:3])
        dst = rng.choice(["52.44.10.100", "198.51.100.7", "192.168.1.77"])
        if dst == src:
            dst = "198.51.100.7"
    base = dict(ts_us=ts, src_addr=src, dst_addr=dst,
                src_port=rng.choice([49152 + rng.randrange(1000), 9999, 443]),
                dst_port=rng.choice([443, 80, 9999, 8883]),
                wire_len=rng.choice([0, 0, 0, 600]))
    if kind == "tcp":
        return ParsedPacket(transport="tcp",
                            tcp_flags=rng.choice([0x18, 0x10]), **base)
    if kind == "udp":
        return ParsedPacket(transport="udp", **base)
    if kind == "dns_q":
        base.update(dst_port=53)
        return ParsedPacket(
            transport="udp",
            app=DnsSelector(qtype=rng.choice(["A", "AAAA"]),
                            qname="ctrl.noisy.example"), **base)
    if kind == "dns_r":
        base.update(src_port=53)
        return ParsedPacket(
            transport="udp",
            app=DnsSelector(qtype="A", qname="ctrl.noisy.example"),
            dns_answers=(("ctrl.noisy.example", "198.51.100.9"),), **base)
    if kind == "http":
        base.update(dst_port=80)
        return ParsedPacket(transport="tcp", tcp_flags=0x18,
                            app=HttpSelector(method="POST", uri="/api"),
                            **base)
    if kind == "coap":
        base.update(dst_port=5683)
        return ParsedPacket(transport="udp",
                            app=CoapSelector(type="CON", code="GET",
                                             uri_path="/state"), **base)
    base.update(dst_port=443)
    return ParsedPacket(transport="tcp", tcp_flags=0x18,
                        sni="ctrl.noisy.example", **base)


def _random_rule(rng):
    return Rule(FlowId(
        transport=rng.choice([Transport.TCP, Transport.UDP]),
        initiator=HostRef.from_token(rng.choice(_RULE_TOKENS)),
        responder=HostRef.from_token(rng.choice(_RULE_TOKENS)),
        initiator_port=rng.choice([None, 443, 9999, 53]),
        responder_port=rng.choice([None, 443, 80, 8883]),
        direction=rng.choice([Direction.BIDIRECTIONAL,
                              Direction.UNIDIRECTIONAL]),
    ), matchers=rng.choice(_MATCHER_POOL))


def _random_tree_flow(rng):
    return FlowId(
        initiator=HostRef.from_token(rng.choice(_RULE_TOKENS)),
        responder=HostRef.from_token(rng.choice(_RULE_TOKENS)),
        initiator_port=rng.choice([None, 9999]),
        responder_port=rng.choice([None, 443, 80]),
        transport=rng.choice([Transport.TCP, Transport.UDP]),
        direction=rng.choice([Direction.BIDIRECTIONAL,
                              Direction.UNIDIRECTIONAL]),
    )


def _pcap_frames(blob):
    pos = 24
    frames = []
    while pos + 16 <= len(blob):
        incl = struct.unpack_from("<I", blob, pos + 8)[0]
        frames.append(blob[pos + 16: pos + 16 + incl])
        pos += 16 + incl
    return frames


def test_codec_round_trips_and_dissector_fuzz():
    rng = random.Random(6)
    for case in range(1000):
        ts = 1_700_000_000_000_000
        pkts = []
        for _ in range(rng.randint(1, 8)):
            ts += rng.randint(1, 100_000)
            pkts.append(_random_packet(rng, ts))
        blob = write_pcap(Trace(packets=tuple(pkts)))
        blob2 = write_pcap(read_pcap(blob))
        assert blob2 == blob, case

    for case in range(1000):
        rules = RuleSet(tuple(_random_rule(rng)
                              for _ in range(rng.randint(1, 6))))
        text = render(rules)
        back = parse_rules(text)
        assert back == rules and render(back) == text, case

    for case in range(1000):
        pool = list({_random_tree_flow(rng) for _ in range(rng.randint(1, 5))})
        tree = SigTree(pruning=rng.random() < 0.5)
        for _ in range(6):
            node = tree.next_node()
            if node is None:
                break
            if node != tree.root and rng.random() < 0.3:
                tree.mark_failed(node)
                continue
            picked = frozenset(f for f in pool if rng.random() < 0.6)
            tree.add_children(node, EventSignature(flows=picked, m=3,
                                                   m_plus=3))
        blob = tree.export_json()
        clone = SigTree.import_json(blob)
        assert clone.export_json() == blob, case
        assert clone.stats() == tree.stats(), case

    seeds = []
    for case in range(20):
        ts = 1_700_000_000_000_000
        pkts = []
        for _ in range(6):
            ts += rng.randint(1, 100_000)
            pkts.append(_random_packet(rng, ts))
        seeds.extend(_pcap_frames(write_pcap(
            Trace(packets=tuple(pkts)))))
    for i in range(100_000):
        if i % 2 == 0:
            frame = bytes(rng.getrandbits(8)
                          for _ in range(rng.randint(14, 120)))
        else:
            frame = bytearray(rng.choice(seeds))
            for _ in range(rng.randint(1, 6)):
                frame[rng.randrange(len(frame))] = rng.getrandbits(8)
            frame = bytes(frame[:rng.randint(14, len(frame))])
        dissect(frame, ts_us=i)
    _verdict(6, True, "1000 round-trips per codec (pcap, rules, tree); "
                      "100000 fuzzed frames dissected without error")


# -- criterion 7: blocking is airtight across every profiled capture ----------------


def test_no_blocked_packets_survive_in_any_capture(pipeline_runs):
    ok = not pipeline_runs["violations"]
    _verdict(7, ok, f"0 rule-matching packets across "
                    f"{pipeline_runs['runs']} audited runs"
                    + (f"; violations: {pipeline_runs['violations']}"
                       if pipeline_runs["violations"] else ""))


# -- criterion 8: DNS statistics expose fallback resolvers and hidden domains -------


def test_dns_statistics_split(hs110_run):
    model = load_model(model_path("resolver_fallback"))
    tree = profile_event(SimDriver(model), ProfileConfig(m=20, seed=0))
    fallback = dns_stats(tree)
    hs110_stats = dns_stats(hs110_run[0])
    ok = (set(fallback.resolvers_hidden) == {"114.114.114.114"}
          and {"n-wap.tplinkcloud.com", "n-devs.tplinkcloud.com"}
          <= set(hs110_stats.domains_hidden))
    _verdict(8, ok, f"fallback resolver hidden set "
                    f"{sorted(fallback.resolvers_hidden)}; plug hidden "
                    f"domains {sorted(hs110_stats.domains_hidden)}")


# -- criterion 9: repeated command runs are byte-identical --------------------------


def test_cli_reruns_are_byte_identical(tmp_path):
    cap_dir = tmp_path / "caps"
    assert cli_main(["simulate", "--model", str(model_path("hs110_toggle")),
                     "--m", "5", "--seed", "3",
                     "--out-dir", str(cap_dir)]) == 0
    tree_dir = tmp_path / "tree"
    assert cli_main(["oracle", "--model", str(model_path("appendix_c")),
                     "--out-dir", str(tree_dir)]) == 0
    flows_path = tmp_path / "flows.json"
    flows_path.write_text(json.dumps(HS110_HIDDEN))

    commands = [
        ["simulate", "--model", str(model_path("alt_domain_chain")),
         "--m", "5", "--seed", "3"],
        ["profile", "--model", str(model_path("protocol_switch")),
         "--m", "5", "--seed", "1"],
        ["oracle", "--model", str(model_path("coap_http"))],
        ["extract", "--dir", str(cap_dir), "--m", "5",
         "--model", str(model_path("hs110_toggle"))],
        ["analyze", str(tree_dir / "tree.json")],
        ["rules", str(flows_path)],
    ]
    checked = 0
    for index, argv in enumerate(commands):
        out_a = tmp_path / f"a{index}"
        out_b = tmp_path / f"b{index}"
        for out in (out_a, out_b):
            assert cli_main(argv + ["--out-dir", str(out)]) == 0, argv
        files_a = sorted(p.relative_to(out_a)
                         for p in out_a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(out_b)
                         for p in out_b.rglob("*") if p.is_file())
        assert files_a == files_b and files_a, argv
        for rel in files_a:
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), \
                (argv, rel)
            checked += 1
    _verdict(9, True, f"{len(commands)} commands re-run byte-identical "
                      f"({checked} files compared)")
