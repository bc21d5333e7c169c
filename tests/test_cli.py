import gc
import hashlib
import json
import threading
import tracemalloc
from pathlib import Path

import pytest

from flowprof import (FlowId, cli, compile_rules, core, pcapio, read_pcap,
                      render)
from flowprof.blocklist import parse as parse_rules
from flowprof.cli import main
from flowprof.core import is_valid_domain
from flowprof.simnet import MAX_FORMULA_DEPTH

from conftest import MODEL_DIR, model_path
from test_simnet import _model, _odd_flow


@pytest.fixture
def mini_model(tmp_path):
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(_model()))
    return path


def test_simulate_then_extract(tmp_path, mini_model):
    cap_dir = tmp_path / "caps"
    assert main(["simulate", "--model", str(mini_model), "--m", "5",
                 "--seed", "3", "--out-dir", str(cap_dir)]) == 0
    pcaps = sorted(cap_dir.glob("*.pcap"))
    assert [p.name for p in pcaps] == [f"capture_{i:03d}.pcap"
                                       for i in range(5)]
    assert (cap_dir / "success.txt").read_text().split() == ["1"] * 5

    out_dir = tmp_path / "sig"
    assert main(["extract", "--dir", str(cap_dir), "--m", "5",
                 "--model", str(mini_model), "--out-dir", str(out_dir)]) == 0
    sig = json.loads((out_dir / "signature.json").read_text())
    assert sig["m"] == 5 and sig["m_plus"] == 5
    # only the unguarded local flow runs when nothing is blocked
    assert len(sig["flows"]) == 1
    assert sig["flows"][0]["initiator_port"] == 9999


def test_simulate_makes_its_output_directory_once(tmp_path, mini_model,
                                                  monkeypatch):
    made = []
    mkdir = Path.mkdir

    def counted(path, *args, **kwargs):
        made.append(path)
        return mkdir(path, *args, **kwargs)

    monkeypatch.setattr(Path, "mkdir", counted)
    for m in (2, 6):
        made.clear()
        out_dir = tmp_path / f"caps{m}"
        assert main(["simulate", "--model", str(mini_model), "--m", str(m),
                     "--out-dir", str(out_dir)]) == 0
        assert made == [out_dir]
        assert len(list(out_dir.glob("*.pcap"))) == m


def test_simulate_joins_capture_names_as_strings(tmp_path, mini_model,
                                                monkeypatch):
    """pathlib interns the parts of each path it parses, so simulate joins
    no capture name through it: 6 captures parse as few paths as 2."""
    joins = []
    truediv, with_name = Path.__truediv__, Path.with_name

    def counted(method):
        def call(path, *args):
            joins.append(args)
            return method(path, *args)
        return call

    monkeypatch.setattr(Path, "__truediv__", counted(truediv))
    monkeypatch.setattr(Path, "with_name", counted(with_name))
    counts = []
    for m in (2, 6):
        joins.clear()
        assert main(["simulate", "--model", str(mini_model), "--m", str(m),
                     "--out-dir", str(tmp_path / f"caps{m}")]) == 0
        counts.append(len(joins))
    assert counts[0] == counts[1]


def test_simulate_honors_rules_file(tmp_path, mini_model):
    flow = FlowId.from_obj({
        "initiator": "device", "responder": "phone",
        "initiator_port": 9999, "responder_port": None,
        "transport": "tcp", "direction": "bi", "app": None,
    })
    rules_path = tmp_path / "deny.rules"
    rules_path.write_text(render(compile_rules([flow])))
    cap_dir = tmp_path / "caps"
    assert main(["simulate", "--model", str(mini_model), str(rules_path),
                 "--m", "3", "--out-dir", str(cap_dir)]) == 0
    for path in cap_dir.glob("*.pcap"):
        trace = read_pcap(path.read_bytes())
        ports = {p.src_port for p in trace.packets} \
            | {p.dst_port for p in trace.packets}
        assert 9999 not in ports
    # the fallback cloud flow keeps the event alive
    assert (cap_dir / "success.txt").read_text().split() == ["1"] * 3


def test_simulate_falls_back_when_an_address_rule_drops_coap(tmp_path):
    """The rule drops coap_http's CoAP packets by the server's address, so
    the device's guarded HTTP fallback carries every capture."""
    rules_path = tmp_path / "deny.rules"
    rules_path.write_text(
        "block udp init device resp ip:198.51.100.80 dir bi\n")
    cap_dir = tmp_path / "caps"
    assert main(["simulate", "--model", str(model_path("coap_http")),
                 str(rules_path), "--m", "5", "--out-dir", str(cap_dir)]) == 0
    assert (cap_dir / "success.txt").read_text().split() == ["1"] * 5


def test_profile_matches_oracle_output(tmp_path, mini_model):
    prof_dir = tmp_path / "prof"
    oracle_dir = tmp_path / "oracle"
    assert main(["profile", "--model", str(mini_model), "--m", "4",
                 "--out-dir", str(prof_dir)]) == 0
    assert main(["oracle", "--model", str(mini_model),
                 "--out-dir", str(oracle_dir)]) == 0
    assert (prof_dir / "tree.json").read_bytes() \
        == (oracle_dir / "tree.json").read_bytes()
    assert (prof_dir / "tree.dot").read_bytes() \
        == (oracle_dir / "tree.dot").read_bytes()
    assert (prof_dir / "report.csv").read_text().splitlines()[1] \
        .startswith("mini,")


def test_profile_reruns_are_byte_identical(tmp_path, mini_model):
    dirs = [tmp_path / "one", tmp_path / "two"]
    for out in dirs:
        assert main(["profile", "--model", str(mini_model), "--m", "3",
                     "--seed", "9", "--out-dir", str(out)]) == 0
    for name in ("tree.json", "tree.dot", "report.csv"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_profile_hide_failed_prunes_dot(tmp_path, mini_model):
    shown = tmp_path / "shown"
    hidden = tmp_path / "hidden"
    argv = ["profile", "--model", str(mini_model), "--m", "3"]
    assert main(argv + ["--out-dir", str(shown)]) == 0
    assert main(argv + ["--hide-failed", "--out-dir", str(hidden)]) == 0
    assert "[failed]" in (shown / "tree.dot").read_text()
    assert "[failed]" not in (hidden / "tree.dot").read_text()


def test_profile_manifest(tmp_path, mini_model):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([
        {"label": "alpha", "model_path": "mini.json",
         "group": {"category": "plug"}},
        {"label": "beta", "model_path": str(mini_model),
         "group": {"category": "plug"}},
    ]))
    out_dir = tmp_path / "out"
    assert main(["profile", "--manifest", str(manifest), "--m", "3",
                 "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "alpha" / "tree.json").read_bytes() \
        == (out_dir / "beta" / "tree.json").read_bytes()
    lines = (out_dir / "report.csv").read_text().splitlines()
    assert lines[1].startswith("alpha,") and lines[2].startswith("beta,")
    assert "# group category=plug events=2 mean_robustness=1.00" in lines


def test_analyze_rebuilds_report(tmp_path, mini_model):
    prof_dir = tmp_path / "prof"
    main(["profile", "--model", str(mini_model), "--m", "3",
          "--out-dir", str(prof_dir)])
    out_dir = tmp_path / "analysis"
    assert main(["analyze", str(prof_dir / "tree.json"),
                 "--out-dir", str(out_dir)]) == 0
    by_dir = tmp_path / "analysis2"
    assert main(["analyze", "--dir", str(prof_dir),
                 "--out-dir", str(by_dir)]) == 0
    report = (out_dir / "report.csv").read_text()
    assert report == (by_dir / "report.csv").read_text()
    # a tree.json is labelled by its directory, as profile --manifest lays out
    assert report.splitlines()[1].startswith("prof,")


def test_analyze_labels_manifest_trees_by_directory(tmp_path, mini_model,
                                                    capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([
        {"label": label, "model_path": str(mini_model)}
        for label in ("a", "b")]))
    out_dir = tmp_path / "out"
    assert main(["profile", "--manifest", str(manifest), "--m", "3",
                 "--out-dir", str(out_dir)]) == 0
    trees = [str(out_dir / label / "tree.json") for label in ("a", "b")]
    copy = tmp_path / "b.json"
    copy.write_bytes((out_dir / "b" / "tree.json").read_bytes())
    assert main(["analyze", *trees, "--out-dir", str(tmp_path)]) == 0
    rows = (tmp_path / "report.csv").read_text().splitlines()[1:3]
    assert [row.split(",")[0] for row in rows] == ["a", "b"]
    # b/tree.json and b.json both label as b: refused, naming both files
    (tmp_path / "report.csv").unlink()
    capsys.readouterr()
    assert main(["analyze", *trees, str(copy),
                 "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert trees[1] in err and str(copy) in err
    assert not (tmp_path / "report.csv").exists()


def test_rules_command_round_trips(tmp_path):
    flows = [{
        "initiator": "device", "responder": "dom:api.example",
        "initiator_port": None, "responder_port": 443,
        "transport": "tcp", "direction": "bi", "app": None,
    }]
    flows_path = tmp_path / "flows.json"
    flows_path.write_text(json.dumps({"flows": flows}))
    assert main(["rules", str(flows_path),
                 "--out-dir", str(tmp_path)]) == 0
    text = (tmp_path / "rules.txt").read_text()
    assert text.startswith("block tcp init ")
    parsed = parse_rules(text)
    assert render(parsed) == text


def test_no_temp_files_left_behind(tmp_path, mini_model):
    out_dir = tmp_path / "out"
    main(["profile", "--model", str(mini_model), "--m", "3",
          "--out-dir", str(out_dir)])
    assert not list(out_dir.rglob("*.tmp"))


# -- error handling -----------------------------------------------------------------


def test_failed_write_removes_its_temp_file(tmp_path, mini_model, capsys):
    out_dir = tmp_path / "out"
    (out_dir / "report.csv").mkdir(parents=True)
    assert main(["profile", "--model", str(mini_model), "--m", "3",
                 "--out-dir", str(out_dir)]) == 1
    assert "Is a directory" in capsys.readouterr().err
    assert sorted(p.name for p in out_dir.iterdir()) \
        == ["report.csv", "tree.dot", "tree.json"]


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["extract"]) == 1
    assert "error:" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "extract" in capsys.readouterr().out


def test_extract_rejects_bad_inputs(tmp_path, mini_model, capsys):
    assert main(["extract", "--dir", str(tmp_path / "nope"),
                 "--m", "3", "--model", str(mini_model)]) == 1
    cap_dir = tmp_path / "caps"
    main(["simulate", "--model", str(mini_model), "--m", "3",
          "--out-dir", str(cap_dir)])
    assert main(["extract", "--dir", str(cap_dir), "--m", "5",
                 "--model", str(mini_model)]) == 1
    assert "expected 5 captures, found 3" in capsys.readouterr().err


def _simulate(model, cap_dir, m: int):
    assert main(["simulate", "--model", str(model), "--m", str(m),
                 "--out-dir", str(cap_dir)]) == 0
    return cap_dir


def _extract(model, cap_dir, m: int, out_dir) -> int:
    return main(["extract", "--dir", str(cap_dir), "--m", str(m),
                 "--model", str(model), "--out-dir", str(out_dir)])


def test_extract_reads_each_capture_once_in_sorted_order(tmp_path, mini_model,
                                                         monkeypatch):
    cap_dir = _simulate(mini_model, tmp_path / "caps", 4)
    wanted = [path.read_bytes() for path in sorted(cap_dir.glob("*.pcap"))]
    assert len(set(wanted)) == 4
    read = []

    def recording(data):
        read.append(data)
        return real(data)

    real = cli.read_pcap
    monkeypatch.setattr(cli, "read_pcap", recording)
    assert _extract(mini_model, cap_dir, 4, tmp_path / "sig") == 0
    assert read == wanted


def test_a_corrupt_capture_fails_extract_even_when_its_flag_is_zero(
        tmp_path, mini_model, capsys):
    cap_dir = _simulate(mini_model, tmp_path / "caps", 3)
    last = cap_dir / "capture_002.pcap"
    last.write_bytes(last.read_bytes()[:-5])
    (cap_dir / "success.txt").write_text("1\n1\n0\n")
    out_dir = tmp_path / "sig"
    assert _extract(mini_model, cap_dir, 3, out_dir) == 1
    assert "record body truncated" in capsys.readouterr().err
    assert not (out_dir / "signature.json").exists()


def _traced_peak(command, *args) -> int:
    """The traced peak of `command(*args)`, which must return 0."""
    gc.collect()
    tracemalloc.start()
    try:
        assert command(*args) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_extract_memory_does_not_grow_with_every_capture(tmp_path):
    """Memory guard: extraction keeps each capture's distinct packet keys,
    packed as machine ints, not its packets, so 120 more captures add under
    1.5 KB each to the traced peak (about 1 KB; keeping each key as a tuple
    cost about 2.9 KB, and keeping every packet about 20 KB)."""
    model = model_path("hs110_toggle")
    sizes = (40, 160)
    dirs = {m: _simulate(model, tmp_path / f"caps{m}", m) for m in sizes}
    assert _extract(model, dirs[40], 40, tmp_path / "warm") == 0
    peaks = {m: _traced_peak(_extract, model, dirs[m], m, tmp_path / f"sig{m}")
             for m in sizes}
    per_capture = (peaks[160] - peaks[40]) / (160 - 40)
    assert per_capture < 1500, f"{per_capture:.0f} B per capture"


def test_extract_checks_dns_names_per_distinct_payload(tmp_path,
                                                      monkeypatch):
    """The dissector checks the names of a DNS message or ClientHello once,
    when it first parses it, so extract makes as many `is_valid_domain`
    calls over 16 simulated captures of one event as over 4, cold or warm."""
    model = model_path("hs110_toggle")
    dirs = {m: _simulate(model, tmp_path / f"caps{m}", m) for m in (4, 16)}
    assert _extract(model, dirs[16], 16, tmp_path / "warm") == 0
    calls = []

    def counted(name):
        calls.append(name)
        return is_valid_domain(name)

    monkeypatch.setattr(core, "is_valid_domain", counted)
    monkeypatch.setattr(pcapio, "is_valid_domain", counted)
    counts = {}
    for m, cold in ((4, True), (16, True), (4, False), (16, False)):
        if cold:
            pcapio._parse_dns.cache_clear()
            pcapio._parse_sni.cache_clear()
        calls.clear()
        assert _extract(model, dirs[m], m, tmp_path / f"sig{m}") == 0
        counts[m, cold] = len(calls)
    assert counts[4, True] == counts[16, True] > counts[16, False]
    assert counts[4, False] == counts[16, False]


def test_simulate_m_below_one_exits_one(tmp_path, mini_model, capsys):
    out_dir = tmp_path / "caps"
    assert main(["simulate", "--model", str(mini_model), "--m", "0",
                 "--out-dir", str(out_dir)]) == 1
    assert "m must be at least 1" in capsys.readouterr().err
    assert not out_dir.exists()


def test_profile_needs_exactly_one_source(tmp_path, mini_model):
    assert main(["profile"]) == 1
    assert main(["profile", "--model", str(mini_model),
                 "--manifest", str(mini_model)]) == 1


def test_profile_reports_root_failure_as_two(tmp_path, capsys):
    def unreachable(obj):
        obj["success"] = {"flow": "cloud"}
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(_model(unreachable)))
    assert main(["profile", "--model", str(path), "--m", "3",
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out" / "tree.json").exists()
    assert main(["oracle", "--model", str(path),
                 "--out-dir", str(tmp_path / "oracle")]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "oracle" / "tree.json").exists()


@pytest.mark.parametrize("command", ["profile", "oracle"])
@pytest.mark.parametrize("depth", ["0", "-1"])
def test_max_depth_below_one_exits_one(tmp_path, mini_model, command, depth):
    out_dir = tmp_path / "out"
    assert main([command, "--model", str(mini_model), "--max-depth", depth,
                 "--out-dir", str(out_dir)]) == 1
    assert not (out_dir / "tree.json").exists()


def test_bad_manifest_rejected(tmp_path, mini_model):
    bad = tmp_path / "manifest.json"
    for body in ("[]", "{}", "not json",
                 json.dumps([{"label": "a/b", "model_path": "mini.json"}]),
                 json.dumps([{"label": "a", "model_path": "mini.json"},
                             {"label": "a", "model_path": "mini.json"}]),
                 json.dumps([{"label": 5, "model_path": "mini.json"}]),
                 json.dumps([{"label": "a", "model_path": 5}]),
                 json.dumps([{"label": "..", "model_path": "mini.json"}]),
                 json.dumps([{"label": ".", "model_path": "mini.json"}]),
                 json.dumps([{"label": "report.csv",
                              "model_path": "mini.json"}]),
                 json.dumps([{"label": "report.csv.tmp",
                              "model_path": "mini.json"}])):
        bad.write_text(body)
        assert main(["profile", "--manifest", str(bad),
                     "--out-dir", str(tmp_path / "out")]) == 1, body
    # nothing was written, inside --out-dir or beside it
    assert sorted(p.name for p in tmp_path.rglob("*")) \
        == ["manifest.json", "mini.json"]


def test_string_selector_flag_exits_one(tmp_path):
    flow = {"initiator": "device", "responder": "phone",
            "app": {"proto": "http", "is_response": "false"}}
    flows_path = tmp_path / "flows.json"
    flows_path.write_text(json.dumps([flow]))
    assert main(["rules", str(flows_path), "--out-dir", str(tmp_path)]) == 1
    tree_path = tmp_path / "tree.json"
    tree_path.write_text(json.dumps({"root": {
        "status": "expanded", "depth": 0, "children": [
            {"flow": flow, "status": "unexplored", "depth": 1}]}}))
    assert main(["analyze", str(tree_path), "--out-dir", str(tmp_path)]) == 1
    assert not (tmp_path / "rules.txt").exists()
    assert not (tmp_path / "report.csv").exists()


_APPS = ({"proto": "dns", "qtype": "A", "qname": "a.example"},
         {"proto": "http", "method": "GET", "uri": "/x"},
         {"proto": "coap", "type": "CON", "code": "GET", "uri_path": "/x"})


@pytest.mark.parametrize("app, key", [
    pytest.param(app, key, id=f"{app['proto']}.{key}")
    for app in _APPS for key in app if key != "proto"])
def test_a_selector_string_field_of_another_type_exits_one(
        tmp_path, capsys, app, key):
    flows_path, tree_path = tmp_path / "flows.json", tmp_path / "tree.json"
    for value in (["x"], 1, {"a": 1}):
        flow = {"initiator": "device", "responder": "gateway",
                "transport": "udp", "app": {**app, key: value}}
        flows_path.write_text(json.dumps([flow]))
        tree_path.write_text(json.dumps({"root": {
            "status": "expanded", "depth": 0, "children": [
                {"flow": flow, "status": "unexplored", "depth": 1}]}}))
        for argv in (["rules", str(flows_path)], ["analyze", str(tree_path)]):
            capsys.readouterr()
            assert main(argv + ["--out-dir", str(tmp_path)]) == 1, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert f"app.{key} must be a string, not " in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) \
        == ["flows.json", "tree.json"]


def test_profile_refuses_a_qtype_out_of_range(tmp_path, capsys):
    def add_query(obj):
        obj["flows"].append({
            "id": "odd",
            "flow": {"initiator": "device", "responder": "gateway",
                     "responder_port": 53, "transport": "udp",
                     "app": {"proto": "dns", "qtype": "TYPE70000",
                             "qname": "a.example"}},
            "packets": {"count": 2, "sizes": [80]},
        })
    model_path = tmp_path / "odd.json"
    model_path.write_text(json.dumps(_model(add_query)))
    assert main(["profile", "--model", str(model_path),
                 "--out-dir", str(tmp_path / "out")]) == 1
    assert "TYPE70000" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "profile"])
def test_simulate_and_profile_refuse_what_a_capture_cannot_carry(
        tmp_path, capsys, command):
    http = {"proto": "http", "method": "GET", "uri": "/x"}
    model_path = tmp_path / "odd.json"
    model_path.write_text(json.dumps(_model(_odd_flow("udp", 80, http))))
    assert main([command, "--model", str(model_path),
                 "--out-dir", str(tmp_path / "out")]) == 1
    assert "flow 'odd' cannot be captured" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "profile", "oracle"])
def test_a_frame_too_long_for_ip_is_an_error_line(tmp_path, capsys, command):
    http = {"proto": "http", "method": "GET", "uri": "/" + "a" * 70000}
    model_path = tmp_path / "odd.json"
    model_path.write_text(json.dumps(_model(_odd_flow("tcp", 80, http))))
    assert main([command, "--model", str(model_path),
                 "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: flow 'odd' cannot be captured: ") \
        and err.count("\n") == 1, err
    assert "70058 bytes" in err, err
    assert not (tmp_path / "out").exists()


def test_simulate_writes_alike_from_a_warm_and_a_cold_frame_memo(tmp_path):
    """Two runs in one process, the second reading every frame from the
    memo, and a third after clearing it, write the same bytes."""
    pcapio._port_free_frame.cache_clear()
    outputs = []
    for run in range(3):
        if run == 2:
            pcapio._port_free_frame.cache_clear()
        before = pcapio._port_free_frame.cache_info()
        out = tmp_path / f"run{run}"
        assert main(["simulate", "--model", str(model_path("hs110_toggle")),
                     "--m", "4", "--seed", "3", "--out-dir", str(out)]) == 0
        after = pcapio._port_free_frame.cache_info()
        assert after.hits > before.hits
        assert (after.misses == before.misses) == (run == 1)
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert len(outputs[0]) == 5 and "success.txt" in outputs[0]
    assert outputs[0] == outputs[1] == outputs[2]


def test_analyze_rejects_missing_and_bad_trees(tmp_path, capsys):
    assert main(["analyze", "--out-dir", str(tmp_path)]) == 1
    junk = tmp_path / "junk.json"
    for body in ({"not": "a tree"}, {"root": []},
                 {"root": {"status": "expanded", "depth": 0,
                           "children": ["leaf"]}},
                 {"root": {"status": "expanded", "depth": 0,
                           "children": [{"status": "unexplored",
                                         "depth": 1}]}},
                 {"root": {"status": "expanded", "depth": 0,
                           "reason": {"a": [1]}}}):
        junk.write_text(json.dumps(body))
        capsys.readouterr()
        assert main(["analyze", str(junk), "--out-dir", str(tmp_path)]) == 1
        assert f"bad tree file {junk}" in capsys.readouterr().err
    # junk.json still holds the last body, whose reason is not a string
    assert main(["analyze", str(junk), "--out-dir", str(tmp_path)]) == 1
    assert f"bad tree file {junk}: root.reason must be a string" \
        in capsys.readouterr().err
    assert not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("depth, message", [
    ('"x"', "must be an integer, not 'x'"),
    ("false", "must be an integer, not False"),
    ("3", "must be 1, not 3")])
def test_analyze_refuses_a_node_depth_its_path_does_not_have(
        tmp_path, mini_model, capsys, depth, message):
    assert main(["oracle", "--model", str(mini_model),
                 "--out-dir", str(tmp_path)]) == 0
    tree_path = tmp_path / "tree.json"
    text = tree_path.read_text()
    tree_path.write_text(text.replace('"depth": 1', f'"depth": {depth}', 1))
    out_dir = tmp_path / "out"
    assert main(["analyze", str(tree_path), "--out-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err == f"error: bad tree file {tree_path}: " \
        f"root.children[0].depth {message}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["oracle", "analyze", "manifest", "rules"])
def test_over_deep_json_is_an_input_error(tmp_path, capsys, command):
    """JSON nested past the decoder's recursion limit gives one error line."""
    path = tmp_path / "deep.json"
    argv = {"oracle": ["oracle", "--model"], "analyze": ["analyze"],
            "manifest": ["profile", "--manifest"], "rules": ["rules"]}[command]
    if command == "oracle":  # 900 nested "and"s
        obj = _model()
        obj["success"] = "SUCCESS"
        path.write_text(json.dumps(obj).replace(
            '"SUCCESS"', '{"and": [' * 900 + '{"flow": "ctrl"}' + "]}" * 900))
    elif command == "analyze":  # a tree 1,200 nodes deep
        node = '{"status": "expanded", "depth": 0, "children": ['
        path.write_text('{"root": ' + node * 1200
                        + '{"status": "unexplored", "depth": 1}'
                        + "]}" * 1200 + "}")
    else:
        path.write_text("[" * 1200 + "]" * 1200)
    assert main(argv + [str(path), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err[-300:]
    assert not (tmp_path / "out").exists()


def _nested_success(path, ands: int):
    """The mini model with its success formula `ands` "and"s deep."""
    obj = _model()
    obj["success"] = "SUCCESS"
    path.write_text(json.dumps(obj).replace(
        '"SUCCESS"', '{"and": [' * ands + '{"flow": "ctrl"}' + "]}" * ands))


def _main_on_a_fresh_stack(argv) -> int:
    """cli.main(argv) on a thread of its own, as from a shell: the test
    runner's frames do not count against the decoder's recursion limit."""
    codes = []
    thread = threading.Thread(target=lambda: codes.append(main(argv)))
    thread.start()
    thread.join()
    return codes[0]


def test_an_over_nested_success_formula_is_a_schema_error(tmp_path, capsys):
    """A formula the decoder reads but eval_success could not recurse
    through is refused when the model loads."""
    path = tmp_path / "deep.json"
    _nested_success(path, 480)
    assert _main_on_a_fresh_stack(["oracle", "--model", str(path),
                                   "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: bad model file {path}: " \
        f"success formula nests deeper than {MAX_FORMULA_DEPTH} clauses\n"
    assert not (tmp_path / "out").exists()


def test_a_success_formula_at_the_depth_limit_evaluates(tmp_path, capsys):
    path = tmp_path / "deep.json"
    _nested_success(path, MAX_FORMULA_DEPTH - 1)
    assert main(["oracle", "--model", str(path),
                 "--out-dir", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "tree.json").exists()
    _nested_success(path, MAX_FORMULA_DEPTH)
    assert main(["oracle", "--model", str(path),
                 "--out-dir", str(tmp_path / "out2")]) == 1
    assert "nests deeper than" in capsys.readouterr().err


def test_repeated_commands_retain_no_memory(tmp_path, mini_model):
    """Memory guard: main parses with one parser per process, so a long
    run of commands keeps nothing of each (a parser built per call left
    about 800 B of strings behind every time)."""
    argv = ["oracle", "--model", str(mini_model), "--out-dir",
            str(tmp_path / "out")]
    assert main(argv) == 0
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(30):
            assert main(argv) == 0
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 4096, f"{retained} B retained over 30 commands"


def test_an_unfolded_tree_is_never_held_as_one_file_text(tmp_path):
    """Memory guard: tree.json and tree.dot are written a chunk of parts at
    a time, so an unpruned oracle's traced peak stays below the size of
    the tree.json it writes (about 0.54x; joining the whole text and
    encoding it took about 2.1x)."""
    out_dir = tmp_path / "out"
    peak = _traced_peak(main, ["oracle", "--model",
                               str(model_path("hs110_toggle")),
                               "--no-pruning", "--max-depth", "4",
                               "--out-dir", str(out_dir)])
    size = (out_dir / "tree.json").stat().st_size
    assert peak < size, f"traced peak {peak} B, tree.json {size} B"


@pytest.mark.parametrize("count", [0, 1, cli.CHUNK - 1, cli.CHUNK,
                                   cli.CHUNK + 1])
def test_parts_are_written_whole_across_chunk_boundaries(tmp_path, count):
    parts = [f"{i}\u00e9," for i in range(count)]
    cli._write_parts(tmp_path / "out.txt", parts)
    assert (tmp_path / "out.txt").read_bytes() == "".join(parts).encode()


def test_a_write_that_fails_building_a_chunk_leaves_nothing(tmp_path):
    """The temporary file goes whatever raised, here the encoder, after
    one chunk was written."""
    with pytest.raises(UnicodeEncodeError):
        cli._write_parts(tmp_path / "tree.json",
                         ["{"] * cli.CHUNK + ["\ud800"])
    assert list(tmp_path.iterdir()) == []


def test_oracle_trees_of_the_bundled_models_are_pinned(tmp_path):
    """The oracle's tree.json and tree.dot of every bundled model, pruned
    and unpruned to depth 3, hash to one fixed digest: a change that moves
    any byte of them changes it."""
    digest = hashlib.sha256()
    for path in sorted(MODEL_DIR.glob("*.json")):
        for flags in ([], ["--no-pruning", "--max-depth", "3"]):
            out_dir = tmp_path / f"{path.stem}-{len(flags)}"
            assert main(["oracle", "--model", str(path), *flags,
                         "--out-dir", str(out_dir)]) == 0
            for name in ("tree.json", "tree.dot"):
                digest.update((out_dir / name).read_bytes())
    assert digest.hexdigest() == \
        "fdb5df3e56062720113bc152fb70045b772d8a26efb3323b7e87bbbd0c41f24b"
