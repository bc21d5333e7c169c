import gc
import json
import re
import tracemalloc
from collections import Counter, deque
from dataclasses import replace

import pytest

from flowprof import (
    CoapSelector,
    Direction,
    EventSignature,
    FlowId,
    HostRef,
    HttpSelector,
    NodeAlreadyVisited,
    NodeStatus,
    ProfileConfig,
    SchemaError,
    SigNode,
    SigTree,
    SimDriver,
    Transport,
    TreeStats,
    accept_signature,
    build_report,
    explore,
    load_model,
    oracle_tree,
    profile_event,
    profiler,
    render_csv,
    sigtree,
    simnet,
    sorted_flows,
)

from conftest import MODEL_DIR, model_path


def _flow(name):
    return FlowId(
        initiator=HostRef.role("device"),
        responder=HostRef.domain(name),
        responder_port=443,
        transport=Transport.TCP,
        direction=Direction.BIDIRECTIONAL,
    )


A, B, C = _flow("a.example"), _flow("b.example"), _flow("c.example")
D = _flow("d.example")


def _sig(*flows):
    return EventSignature(flows=frozenset(flows), m=20, m_plus=20)


def test_root_pops_first():
    tree = SigTree()
    handle = tree.next_node()
    assert handle == tree.root
    assert tree.node(handle).flow is None
    assert tree.node(handle).depth == 0


def test_children_appear_in_canonical_order():
    tree = SigTree()
    handles = tree.add_children(tree.next_node(), _sig(C, A, B))
    flows = [tree.node(h).flow for h in handles]
    assert flows == [A, B, C]
    assert [tree.node(h).depth for h in handles] == [1, 1, 1]


def test_expansion_is_single_shot():
    tree = SigTree()
    root = tree.next_node()
    tree.add_children(root, _sig(A))
    with pytest.raises(NodeAlreadyVisited):
        tree.add_children(root, _sig(B))
    a = tree.next_node()
    tree.add_children(a, _sig())
    with pytest.raises(NodeAlreadyVisited):
        tree.mark_failed(a)


def test_path_flows_never_reappear_as_children():
    tree = SigTree()
    tree.add_children(tree.next_node(), _sig(A, B))
    a = tree.next_node()
    handles = tree.add_children(a, _sig(A, B, C))
    flows = {tree.node(h).flow for h in handles}
    assert A not in flows
    assert flows == {B, C}


def test_duplicates_prune_at_pop():
    tree = SigTree()
    tree.add_children(tree.next_node(), _sig(A, B))
    a = tree.next_node()
    tree.add_children(a, _sig(B))          # B now queued twice
    b = tree.next_node()
    tree.add_children(b, _sig(C))          # first B instance expands
    dup = tree.next_node()                 # duplicate B skipped, C returned
    assert tree.node(dup).flow == C
    pruned = [n for n in tree.nodes if n.status is NodeStatus.PRUNED]
    assert len(pruned) == 1
    assert pruned[0].flow == B
    assert pruned[0].reason == "duplicate"


def test_failed_flows_also_count_as_explored():
    tree = SigTree()
    tree.add_children(tree.next_node(), _sig(A, B))
    a = tree.next_node()
    tree.mark_failed(a)
    b = tree.next_node()
    tree.add_children(b, _sig(A))          # A queued again under B
    assert tree.next_node() is None        # duplicate A pruned, frontier empty
    assert tree.node(a).status is NodeStatus.FAILED


def test_pruning_off_revisits_duplicates():
    tree = SigTree(pruning=False)
    tree.add_children(tree.next_node(), _sig(A, B))
    a = tree.next_node()
    tree.add_children(a, _sig(B))
    first_b = tree.next_node()
    tree.add_children(first_b, _sig())
    second_b = tree.next_node()
    assert tree.node(second_b).flow == B
    assert tree.node(second_b).status is NodeStatus.UNEXPLORED


def test_explore_observes_each_distinct_blocking_set_once():
    calls = []

    def observe(blocking_set):
        calls.append(blocking_set)
        return _sig(A, B)

    tree = explore(SigTree(pruning=False), observe)
    unfolded = _unfolded(tree)
    paths = [unfolded.blocking_set(h) for h in range(len(unfolded.nodes))]
    assert (A, B) in paths and (B, A) in paths
    # the path B -> A reaches the node of A -> B, observed once
    assert calls == [(), (A,), (B,), (A, B)]
    assert len(tree.nodes) == 4
    assert {node.status for node in tree.nodes} == {NodeStatus.EXPANDED}


def test_root_cannot_be_marked_failed():
    tree = SigTree()
    with pytest.raises(ValueError):
        tree.mark_failed(tree.root)


def test_blocking_set_runs_root_side_first():
    tree = SigTree()
    tree.add_children(tree.next_node(), _sig(A))
    a = tree.next_node()
    tree.add_children(a, _sig(B))
    b = tree.next_node()
    assert list(tree.blocking_set(b)) == [A, B]
    assert list(tree.blocking_set(tree.root)) == []


def test_stats_counts_by_status_and_depth():
    tree = SigTree()
    tree.add_children(tree.next_node(), _sig(A, B))
    a = tree.next_node()
    tree.add_children(a, _sig(B, C))       # queues B (dup) and C
    b = tree.next_node()
    tree.mark_failed(b)
    c = tree.next_node()                   # pops depth-2 C (dup B pruned)
    assert tree.node(c).flow == C
    tree.add_children(c, _sig())
    assert tree.next_node() is None
    stats = tree.stats()
    assert stats.unique_flows == 3
    assert stats.first_level == 2
    assert stats.hidden_flows == 1
    assert stats.pruned_per_depth == ((2, 1),)
    assert stats.failed_count == 1
    assert stats.expanded_count == 2
    assert stats.node_count == 4


def test_export_import_is_byte_stable():
    tree = SigTree()
    tree.add_children(tree.next_node(), _sig(A, B))
    a = tree.next_node()
    tree.add_children(a, _sig(C))
    text = tree.export_json()
    again = SigTree.import_json(text)
    assert again.export_json() == text
    assert text.endswith("\n")


def test_import_restores_frontier_and_dedupe():
    tree = SigTree()
    tree.add_children(tree.next_node(), _sig(A, B))
    a = tree.next_node()
    tree.add_children(a, _sig(B))
    resumed = SigTree.import_json(tree.export_json())
    # B under the root still expands; the copy under A then prunes.
    b = resumed.next_node()
    assert resumed.node(b).flow == B
    resumed.add_children(b, _sig())
    assert resumed.next_node() is None
    assert any(n.status is NodeStatus.PRUNED for n in resumed.nodes)


def test_an_imported_node_keeps_its_path_flows_out_of_its_children():
    tree = SigTree()
    tree.add_children(tree.next_node(), _sig(A, B))
    tree.add_children(tree.next_node(), _sig(A, B))  # B below A
    resumed = SigTree.import_json(tree.export_json())
    (handle,) = (h for h, n in enumerate(resumed.nodes) if n.depth == 2)
    assert resumed.node(handle).status is NodeStatus.UNEXPLORED
    children = resumed.add_children(handle, _sig(A, B, C))
    assert [resumed.node(h).flow for h in children] == [C]


def test_import_refuses_a_reason_that_is_not_a_string():
    tree = SigTree()
    (a,) = tree.add_children(tree.next_node(), _sig(A))
    tree.prune(a, "depth")
    obj = json.loads(tree.export_json())
    child = obj["root"]["children"][0]
    assert child["reason"] == "depth"
    assert SigTree.from_obj(obj).export_json() == tree.export_json()
    for bad in ({"a": [1]}, 7, ["depth"], True):
        child["reason"] = bad
        with pytest.raises(SchemaError, match="reason must be a string"):
            SigTree.from_obj(obj)


def test_dot_output_marks_statuses():
    tree = SigTree()
    tree.add_children(tree.next_node(), _sig(A, B))
    a = tree.next_node()
    tree.mark_failed(a)
    b = tree.next_node()
    tree.add_children(b, _sig(A))
    assert tree.next_node() is None
    dot = tree.to_dot()
    assert dot.startswith("digraph")
    assert "event" in dot
    assert "[failed]" in dot
    assert "dashed" in dot       # pruned duplicate of A
    hidden = tree.to_dot(hide_failed=True)
    assert "[failed]" not in hidden


def assert_stdlib_encoding(tree):
    """export_json is json.dumps(..., indent=2) + newline of what it holds,
    and importing it gives back the same tree, numbered alike in DOT."""
    text = tree.export_json()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    again = SigTree.import_json(text)
    assert again.export_json() == text
    assert again.stats() == tree.stats()
    assert again.to_dot() == tree.to_dot()


# a DOT line of to_dot once each quoted string is replaced by S
_DOT_LINE = re.compile(r"digraph sigtree \{|  rankdir=LR;|\}|  n\d+ -> n\d+;"
                       r"|  n\d+ \[\w+=(S|\w+)(, \w+=(S|\w+))*\];")


def dot_is_well_formed(dot: str) -> bool:
    """Every quoted string of the DOT text ends where its attribute does."""
    bare = re.sub(r'"(?:[^"\\]|\\.)*"', "S", dot, flags=re.S)
    return all(_DOT_LINE.fullmatch(line) for line in bare.splitlines())


def _odd_tree():
    """Expanded nodes with and without children, a Failed node, Pruned
    nodes carrying reasons, and HTTP and CoAP URIs that JSON and DOT
    escape."""
    http = replace(A, app=HttpSelector(method="GET", uri='/a"b\\'))
    http2 = replace(A, app=HttpSelector(method="POST",
                                        uri="/caf\u00e9/\u2603"))
    coap = replace(A, transport=Transport.UDP, app=CoapSelector(
        type="CON", code="GET", uri_path='/\\"\u00fc"'))
    tree = SigTree()
    tree.add_children(tree.next_node(), _sig(A, http, http2, coap))
    while (handle := tree.next_node()) is not None:
        node = tree.node(handle)
        if node.depth > 1:
            tree.prune(handle, "depth-capped")
        elif node.flow == A:
            tree.mark_failed(handle)
        elif node.flow == http:
            tree.add_children(handle, _sig())
        elif node.flow == http2:
            tree.prune(handle, 'capped "here" \\ \u00e9')
        else:
            tree.add_children(handle, _sig(http, B))  # http: a duplicate
    return tree


def test_export_is_the_stdlib_encoding():
    tree = _odd_tree()
    statuses = {n.status for n in tree.nodes}
    assert statuses == set(NodeStatus) - {NodeStatus.UNEXPLORED}
    assert any(n.status is NodeStatus.EXPANDED and not n.children
               for n in tree.nodes)
    assert_stdlib_encoding(tree)
    assert_stdlib_encoding(SigTree())  # an unexplored root, no children


@pytest.mark.parametrize(
    "name", sorted(path.stem for path in MODEL_DIR.glob("*.json")))
def test_bundled_trees_export_as_the_stdlib_encoding(name):
    model = load_model(model_path(name))
    driver = SimDriver(model)
    for tree in (oracle_tree(model),
                 oracle_tree(model, pruning=False, max_depth=3),
                 profile_event(driver, ProfileConfig(m=4, seed=0)),
                 profile_event(driver, ProfileConfig(m=4, seed=0,
                                                     pruning=False,
                                                     max_depth=2))):
        assert_stdlib_encoding(tree)


def test_equal_flows_share_one_instance_per_tree():
    # a flow's hash and canonical JSON are kept on its instance, so a tree
    # keeps one instance of each flow however many signatures rebuild it
    tree = SigTree(pruning=False)
    tree.add_children(tree.next_node(), _sig(A, B))
    tree.add_children(tree.next_node(), _sig(replace(B)))
    first, again = (n.flow for n in tree.nodes if n.flow == B)
    assert first is again


def test_a_flow_and_a_reason_at_two_depths_export_as_the_stdlib_encoding():
    # export_json reuses each flow's and reason's block per indent
    tree = SigTree(pruning=False)
    tree.add_children(tree.next_node(), _sig(A, B))
    tree.add_children(tree.next_node(), _sig(B))  # B again, below A
    while (handle := tree.next_node()) is not None:
        tree.prune(handle, "depth-capped")
    assert sorted((n.depth, n.reason) for n in tree.nodes if n.flow == B) \
        == [(1, "depth-capped"), (2, "depth-capped")]
    assert_stdlib_encoding(tree)


def _unfolded(tree):
    """The tree of paths `tree` stands for, one node per root path, numbered
    breadth-first; a child's flow is the one its blocking set adds to its
    parent's."""
    plain = SigTree()
    plain.nodes[0] = replace(tree.node(tree.root), children=[])
    queue = deque([(tree.root, plain.root)])
    while queue:
        handle, copy = queue.popleft()
        for child in tree.node(handle).children:
            node = tree.node(child)
            (flow,) = node.blocked - tree.node(handle).blocked
            plain.nodes.append(replace(node, flow=flow, parent=copy,
                                       children=[]))
            plain.node(copy).children.append(len(plain.nodes) - 1)
            queue.append((child, len(plain.nodes) - 1))
    return plain


def _dot_by_hand(tree, hide_failed: bool) -> str:
    """The DOT text of the unfolding rendered node by node from each flow's
    describe()."""
    def quoted(text):
        return text.replace("\\", "\\\\").replace('"', '\\"')

    tree = _unfolded(tree)
    nodes, edges = [], []

    def visit(handle):
        for child in tree.node(handle).children:
            node = tree.node(child)
            label = quoted(node.flow.describe())
            if node.status is NodeStatus.FAILED:
                if hide_failed:
                    continue
                attrs = f'label="{label}\\n[failed]", color=red'
            elif node.status is NodeStatus.PRUNED:
                attrs = (f'label="{label}", style=dashed, '
                         f'tooltip="pruned: {quoted(node.reason)}"')
            else:
                attrs = f'label="{label}"'
            nodes.append(f"  n{child} [{attrs}];")
            edges.append(f"  n{handle} -> n{child};")
            visit(child)

    visit(tree.root)
    return "\n".join(["digraph sigtree {", "  rankdir=LR;",
                      '  n0 [label="event", shape=box];',
                      *nodes, *edges, "}"]) + "\n"


@pytest.mark.parametrize(
    "name", sorted(path.stem for path in MODEL_DIR.glob("*.json")))
def test_bundled_trees_render_dot_node_by_node(name):
    model = load_model(model_path(name))
    for tree in (oracle_tree(model),
                 oracle_tree(model, pruning=False, max_depth=3)):
        for hide_failed in (False, True):
            assert tree.to_dot(hide_failed) == _dot_by_hand(tree, hide_failed)


def test_odd_tree_renders_dot_node_by_node():
    tree = _odd_tree()
    dot = tree.to_dot()
    assert '\\n[failed]", color=red' in dot
    assert dot == _dot_by_hand(tree, False)
    assert tree.to_dot(True) == _dot_by_hand(tree, True)


def test_dot_labels_escape_quotes_and_backslashes():
    dot = _odd_tree().to_dot()
    assert dot_is_well_formed(dot)
    assert 'HTTP GET /a\\"b\\\\]' in dot
    assert 'tooltip="pruned: capped \\"here\\" \\\\ \u00e9"' in dot


def _held_after(call) -> int:
    """Bytes still allocated after `call` returns and its result is dropped,
    with the cyclic collector off."""
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()


def test_export_render_and_import_leave_their_buffers_behind():
    tree = oracle_tree(load_model(model_path("hs110_toggle")), pruning=False,
                       max_depth=3)
    text = tree.export_json()
    for call in (tree.export_json, tree.to_dot,
                 lambda: SigTree.import_json(text)):
        assert _held_after(call) < len(text) / 4, call


def test_a_refused_tree_file_leaves_no_reference_cycle():
    text = '{"root": {"status": "expanded", "depth": 0, "children": [5]}}'
    gc.collect()
    try:
        SigTree.import_json(text)
    except SchemaError:
        pass
    assert gc.collect() == 0


def test_paths_to_one_blocking_set_share_its_node():
    # A -> B and B -> A share a blocking set, so they are one node, queued
    # and expanded once, whose parent is the first path's
    tree = SigTree(pruning=False)
    tree.add_children(tree.next_node(), _sig(A, B))
    (ab,) = tree.add_children(tree.next_node(), _sig(A, B))
    (ba,) = tree.add_children(tree.next_node(), _sig(A, B))
    assert ab == ba and tree.node(ab).blocked == {A, B}
    assert tree.blocking_set(ab) == (A, B)
    assert tree.next_node() == ab
    below = tree.add_children(ab, _sig(A, B, C))
    with pytest.raises(NodeAlreadyVisited):
        tree.add_children(ab, _sig(D))  # the path B -> A is the same node
    assert [tree.node(h).flow for h in below] == [C]
    while (handle := tree.next_node()) is not None:
        tree.prune(handle, "depth-capped")
    assert len(tree.nodes) == 5 and tree.stats().node_count == 6
    # written out, each path is a node: B -> A, then C below it
    plain = _unfolded(tree)
    assert [plain.blocking_set(h) for h in range(len(plain.nodes))] \
        == [(), (A,), (B,), (A, B), (B, A), (A, B, C), (B, A, C)]
    assert_stdlib_encoding(tree)
    assert json.loads(tree.export_json()) == json.loads(_json_by_hand(tree))
    for hide_failed in (False, True):
        assert tree.to_dot(hide_failed) == _dot_by_hand(tree, hide_failed)


def test_each_set_sorts_its_children_once_and_each_block_encodes_once(
        monkeypatch):
    """Counts calls, not time: an unpruned tree repeats each blocking set
    once per order of its flows, and the work that depends only on the set
    or on a flow's text is not repeated with it."""
    sorts, dumps = [], []
    sort, encode = sigtree.sorted_flows, json.dumps
    monkeypatch.setattr(sigtree, "sorted_flows",
                        lambda flows: sorts.append(1) or sort(flows))
    tree = oracle_tree(load_model(model_path("hs110_toggle")), pruning=False,
                       max_depth=4)
    expanded = [h for h, n in enumerate(tree.nodes)
                if n.status is NodeStatus.EXPANDED]
    # explore observes each set once, so a set has one signature, and the
    # signature is the set's children plus the set itself
    pairs = {(frozenset(tree.blocking_set(h)),
              frozenset(tree.node(c).blocked for c in tree.node(h).children))
             for h in expanded}
    assert len(pairs) == len(expanded)
    assert 0 < len(sorts) <= len(pairs)
    monkeypatch.setattr(sigtree.json, "dumps",
                        lambda *args, **kwargs: dumps.append(1)
                        or encode(*args, **kwargs))
    tree.export_json()
    plain = _unfolded(tree)
    blocks = {(value, n.depth) for n in plain.nodes[1:]
              for value in (n.flow, n.reason) if value is not None}
    assert len(blocks) < len(plain.nodes)
    assert 0 < len(dumps) <= len(blocks)


# -- the unfolding against a path-by-path reference ---------------------------


def _json_by_hand(tree) -> str:
    """tree.json of the unfolding, built as objects and encoded by the
    stdlib."""
    def obj(handle):
        node = plain.node(handle)
        out = {} if node.flow is None else {"flow": node.flow.to_obj()}
        out.update(status=node.status.value, depth=node.depth)
        if node.reason is not None:
            out["reason"] = node.reason
        out["children"] = [obj(child) for child in node.children]
        return out

    plain = _unfolded(tree)
    return json.dumps({"root": obj(plain.root)}, indent=2) + "\n"


def _stats_by_hand(tree) -> TreeStats:
    """stats() counted node by node over the unfolding."""
    nodes = _unfolded(tree).nodes[1:]
    flows = {n.flow for n in nodes}
    first = {n.flow for n in nodes if n.depth == 1}
    statuses = Counter(n.status for n in nodes)
    pruned = Counter(n.depth for n in nodes if n.status is NodeStatus.PRUNED)
    return TreeStats(unique_flows=len(flows), first_level=len(first),
                     hidden_flows=len(flows - first),
                     pruned_per_depth=tuple(sorted(pruned.items())),
                     failed_count=statuses[NodeStatus.FAILED],
                     node_count=len(nodes),
                     expanded_count=statuses[NodeStatus.EXPANDED])


def _path_walk(signatures: dict, pruning: bool, max_depth):
    """The tree explore grows, grown one node per path as before blocking
    sets shared nodes, each set's signature taken from `signatures`.
    Returns the tree and the blocking sets it observes, in order."""
    tree, observed, seen, explored = SigTree(), [], set(), set()
    queue = deque([tree.root])
    while queue:
        handle = queue.popleft()
        node = tree.node(handle)
        if pruning and node.flow in explored:
            node.status, node.reason = NodeStatus.PRUNED, "duplicate"
            continue
        if max_depth is not None and node.depth > max_depth:
            node.status, node.reason = NodeStatus.PRUNED, "depth-capped"
            continue
        if node.blocked not in seen:
            seen.add(node.blocked)
            observed.append(tree.blocking_set(handle))
        signature = signatures[node.blocked]
        explored.add(node.flow)
        if not accept_signature(signature):
            node.status = NodeStatus.FAILED
            continue
        node.status = NodeStatus.EXPANDED
        for flow in sorted_flows(signature.flows - node.blocked):
            tree.nodes.append(SigNode(flow=flow, parent=handle,
                                      depth=node.depth + 1,
                                      blocked=node.blocked | {flow}))
            node.children.append(len(tree.nodes) - 1)
            queue.append(len(tree.nodes) - 1)
    return tree, observed


def _recorded(monkeypatch, module, grow):
    """The tree `grow` returns, with the blocking sets its explore observes
    in order and the signature of each."""
    calls, signatures = [], {}

    def recording(tree, observe, max_depth=None):
        def recorded(blocking_set):
            calls.append(blocking_set)
            signature = signatures[frozenset(blocking_set)] = \
                observe(blocking_set)
            return signature
        return sigtree.explore(tree, recorded, max_depth)

    monkeypatch.setattr(module, "explore", recording)
    tree = grow()
    monkeypatch.undo()
    return tree, calls, signatures


@pytest.mark.parametrize(
    "name", sorted(path.stem for path in MODEL_DIR.glob("*.json")))
def test_trees_write_what_a_path_by_path_walk_grows(monkeypatch, name):
    model = load_model(model_path(name))
    # unpruned and uncapped, hs110_toggle has 704 sets and far more paths
    caps = (1, 2, 3) if name == "hs110_toggle" else (1, 2, 3, None)
    for pruning, cap in [(True, cap) for cap in (1, 2, 3, None)] \
            + [(False, cap) for cap in caps]:
        for module, grow in (
                (simnet, lambda: oracle_tree(model, pruning, cap)),
                (profiler, lambda: profile_event(SimDriver(model), (
                    ProfileConfig(m=2, seed=1, pruning=pruning,
                                  max_depth=cap))))):
            tree, calls, signatures = _recorded(monkeypatch, module, grow)
            expected, observed = _path_walk(signatures, pruning, cap)
            case = (module.__name__, pruning, cap)
            assert calls == observed, case
            # every tree holds one node per blocking set
            assert len(tree.nodes) == len(
                {n.blocked for n in expected.nodes}), case
            assert tree.export_json() == _json_by_hand(expected), case
            for hide_failed in (False, True):
                assert tree.to_dot(hide_failed) \
                    == _dot_by_hand(expected, hide_failed), case
            assert tree.stats() == _stats_by_hand(expected), case
            assert render_csv([build_report(tree, name)]) \
                == render_csv([build_report(expected, name)]), case


def test_an_unpruned_tree_keeps_one_node_per_blocking_set():
    """Counts nodes, not time: the wide_oracle tree written with 10,227
    nodes below its root is held as one node per distinct blocking set."""
    tree = oracle_tree(load_model(model_path("hs110_toggle")), pruning=False,
                       max_depth=4)
    plain = _unfolded(tree)
    sets = {frozenset(plain.blocking_set(h)) for h in range(len(plain.nodes))}
    assert len(tree.nodes) == len(sets) == 337
    assert tree.stats().node_count == len(plain.nodes) - 1 == 10_227


def test_stats_count_every_path_of_a_tree_grown_out_of_order():
    # expanding A -> B before B: the set {A, B, C} gets a node, then a
    # parent, B -> C, with a higher handle
    tree = SigTree(pruning=False)
    tree.add_children(tree.root, _sig(A, B, C))
    a, b, _ = tree.node(tree.root).children
    ab, _ = tree.add_children(a, _sig(A, B, C))
    (abc,) = tree.add_children(ab, _sig(A, B, C))
    _, bc = tree.add_children(b, _sig(A, B, C))
    assert tree.add_children(bc, _sig(A, B, C)) == [abc] and bc > abc
    assert tree.stats() == _stats_by_hand(tree)
    assert tree.stats().node_count == 10


def test_import_refuses_a_depth_that_is_not_the_nodes_own():
    tree = SigTree()
    tree.add_children(tree.next_node(), _sig(A))
    obj = json.loads(tree.export_json())
    child = obj["root"]["children"][0]
    for bad, message in (("x", "must be an integer, not 'x'"),
                         (True, "must be an integer, not True"),
                         (2, "must be 1, not 2")):
        child["depth"] = bad
        with pytest.raises(SchemaError, match=re.escape(
                f"root.children[0].depth {message}")):
            SigTree.from_obj(obj)
    child["depth"] = 1
    del obj["root"]["depth"]
    with pytest.raises(SchemaError, match=r"^root\.depth is missing$"):
        SigTree.from_obj(obj)
    obj["root"]["depth"] = 1
    with pytest.raises(SchemaError, match=r"^root\.depth must be 0, not 1$"):
        SigTree.from_obj(obj)
    obj["root"]["depth"] = 0
    assert SigTree.from_obj(obj).export_json() == tree.export_json()
