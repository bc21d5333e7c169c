"""Signature tree: breadth-first exploration state over blocked-flow paths.

Nodes live in an arena indexed by integer handles; handle 0 is the synthetic
root (no flow).  Each node carries its blocking set, the flows on its root
path.  Each distinct blocking set has one node, which every path to the set
reaches; export_json, to_dot and stats() describe the unfolding, one node
per path.  The frontier is FIFO.  With pruning enabled, a popped node whose
flow already reached a terminal explored state (Expanded or Failed)
anywhere in the tree is marked Pruned instead of being returned.  So in a
pruned tree a set that two paths reach is a duplicate on both: each path
ends in a flow that the other expanded.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, Optional, Tuple

from .core import (FlowId, SchemaError, check, member, path_text, read_json,
                   sorted_flows)
from .signature import EventSignature, accept_signature


class NodeStatus(Enum):
    UNEXPLORED = "unexplored"
    EXPANDED = "expanded"
    PRUNED = "pruned"
    FAILED = "failed"


class NodeAlreadyVisited(ValueError):
    """Node left the Unexplored state once already."""


class RootFailed(RuntimeError):
    """The unblocked baseline produced no accepted signature."""


@dataclass
class SigNode:
    """A blocking set's node: the last flow of the first path reaching it,
    whose parent is `parent`, and the set, the parent's set plus that flow,
    empty at the root.  Every path to a set has its length as `depth`."""
    flow: Optional[FlowId]  # None only for the root
    parent: Optional[int]
    depth: int
    status: NodeStatus = NodeStatus.UNEXPLORED
    children: list = field(default_factory=list)
    reason: Optional[str] = None  # set for Pruned nodes
    blocked: frozenset = frozenset()


@dataclass(frozen=True)
class TreeStats:
    unique_flows: int
    first_level: int
    hidden_flows: int  # flows reached only after blocking another
    pruned_per_depth: Tuple[Tuple[int, int], ...]  # (depth, count), sorted
    failed_count: int
    node_count: int  # non-root nodes of the unfolding, one per root path
    expanded_count: int


class SigTree:
    def __init__(self, pruning: bool = True):
        self.pruning = pruning
        self.nodes = [SigNode(flow=None, parent=None, depth=0)]
        self.frontier = deque([0])
        self._explored: set = set()  # flows with Expanded/Failed nodes
        # one instance per distinct flow, so that each flow's hash and
        # canonical JSON are computed once per tree, not once per node
        self._flows: dict = {}
        self._sets: dict = {}  # blocking set -> its node

    @property
    def root(self) -> int:
        return 0

    def node(self, handle: int) -> SigNode:
        return self.nodes[handle]

    def next_node(self) -> Optional[int]:
        """Pop the next frontier node; prune duplicates at pop time."""
        while self.frontier:
            handle = self.frontier.popleft()
            if self.pruning and self.nodes[handle].flow in self._explored:
                self.prune(handle, "duplicate")
            else:
                return handle
        return None

    def add_children(self, handle: int, signature: EventSignature) -> list:
        """Expand a node with the signature seen under its blocking set.

        Children are the signature flows minus the node's blocking set,
        appended in canonical sort order.  Returns their handles.  A child
        whose blocking set already has a node is that node, which is
        neither made nor queued again.
        """
        node = self._settle(handle, NodeStatus.EXPANDED)
        handles, depth = [], node.depth + 1
        for flow in sorted_flows(self._flows.setdefault(flow, flow)
                                 for flow in signature.flows - node.blocked):
            blocked = node.blocked | {flow}
            child = self._sets.get(blocked)
            if child is None:
                child = len(self.nodes)
                self.nodes.append(SigNode(flow=flow, parent=handle,
                                          depth=depth, blocked=blocked))
                self.frontier.append(child)
                self._sets[blocked] = child
            handles.append(child)
        node.children.extend(handles)
        return handles

    def mark_failed(self, handle: int):
        if handle == self.root:
            raise ValueError("root cannot be marked failed")
        self._settle(handle, NodeStatus.FAILED)

    def prune(self, handle: int, reason: str):
        self._settle(handle, NodeStatus.PRUNED, reason)

    def _settle(self, handle: int, status: NodeStatus,
                reason: Optional[str] = None) -> SigNode:
        """Move a node out of the Unexplored state, which it leaves once."""
        node = self.nodes[handle]
        if node.status is not NodeStatus.UNEXPLORED:
            raise NodeAlreadyVisited(f"node {handle} is {node.status.value}")
        node.status, node.reason = status, reason
        if status is not NodeStatus.PRUNED and node.flow is not None:
            self._explored.add(node.flow)
        return node

    def blocking_set(self, handle: int) -> Tuple[FlowId, ...]:
        """Flows on the first path from the root to this node, root side
        first."""
        flows = []
        while handle != self.root:
            flows.append(self.nodes[handle].flow)
            handle = self.nodes[handle].parent
        return tuple(reversed(flows))

    def edges(self, handle: int) -> list:
        """(flow, child) for each child of a node: the flow that the child's
        blocking set adds to the node's."""
        blocked = self.nodes[handle].blocked
        return [(next(iter(self.nodes[child].blocked - blocked)), child)
                for child in self.nodes[handle].children]

    def stats(self) -> TreeStats:
        """Counts over the unfolding, where a node stands for its root paths,
        the sum of its parents'; every flow there is some node's own."""
        paths = [1] + [0] * (len(self.nodes) - 1)
        counts: Dict[tuple, int] = {}  # (status, depth) -> non-root paths
        # parents first, however the tree grew: each edge goes one level down
        for handle in sorted(range(len(self.nodes)),
                             key=lambda h: self.nodes[h].depth):
            node = self.nodes[handle]
            for child in node.children:
                paths[child] += paths[handle]
            if handle != self.root:
                key = (node.status, node.depth)
                counts[key] = counts.get(key, 0) + paths[handle]
        flows = {node.flow for node in self.nodes[1:]}
        first = {node.flow for node in self.nodes[1:] if node.depth == 1}

        def per_depth(status: NodeStatus) -> tuple:
            return tuple(sorted((depth, count) for (kind, depth), count
                                in counts.items() if kind is status))

        return TreeStats(
            unique_flows=len(flows),
            first_level=len(first),
            hidden_flows=len(flows - first),
            pruned_per_depth=per_depth(NodeStatus.PRUNED),
            failed_count=sum(n for _, n in per_depth(NodeStatus.FAILED)),
            node_count=sum(counts.values()),
            expanded_count=sum(n for _, n in per_depth(NodeStatus.EXPANDED)),
        )

    # -- serialization ---------------------------------------------------------

    def export_json(self) -> str:
        """The unfolding as `json.dumps(obj, indent=2) + "\n"`, where each
        node object holds flow (except the root), status, depth, reason
        (Pruned nodes) and children.  The text is written directly, because
        the stdlib's indented encoder is pure Python.  A node's text up to
        its children is built once per (flow, status, depth, reason), the
        text of a node's children once per node, and each flow's and each
        reason's block once per depth, by json.dumps itself."""
        parts = ['{\n  "root": ']
        nodes = self.nodes
        blocks: dict = {}  # (flow or reason, indent) -> encoded block
        heads: dict = {}  # (flow, status, depth, reason) -> node texts
        spans: dict = {}  # handle -> slice of parts holding its children

        def block(value, inner: str) -> str:
            key = (value, inner)
            if key not in blocks:
                text = json.dumps(value, indent=2, default=FlowId.to_obj)
                blocks[key] = text.replace("\n", "\n" + inner)
            return blocks[key]

        def texts(flow: Optional[FlowId], node: SigNode) -> tuple:
            """(leaf text, head and first separator, separator, tail)"""
            pad = "  " * (2 * node.depth + 1)
            inner = pad + "  "
            head = "{\n"
            if flow is not None:
                head += f'{inner}"flow": {block(flow, inner)},\n'
            head += (f'{inner}"status": "{node.status.value}",\n'
                     f'{inner}"depth": {node.depth},\n')
            if node.reason is not None:
                head += f'{inner}"reason": {block(node.reason, inner)},\n'
            head += f'{inner}"children": ['
            return (f"{head}]\n{pad}}}", f"{head}\n{inner}  ",
                    f",\n{inner}  ", f"\n{inner}]\n{pad}}}")

        def write(handle: int, flow: Optional[FlowId]):
            node = nodes[handle]
            key = (flow, node.status, node.depth, node.reason)
            text = heads.get(key) or heads.setdefault(key, texts(flow, node))
            if not node.children:
                parts.append(text[0])
                return
            parts.append(text[1])
            if handle in spans:
                parts.extend(parts[spans[handle]])
            else:
                start = len(parts)
                for child_flow, child in self.edges(handle):
                    write(child, child_flow)
                    parts.append(text[2])
                parts.pop()  # no separator follows the last child
                spans[handle] = slice(start, len(parts))
            parts.append(text[3])

        write(self.root, None)
        del write  # the closure refers to itself; the cycle would hold parts
        parts.append("\n}\n")
        return "".join(parts)

    @staticmethod
    def from_obj(obj: dict) -> "SigTree":
        """The tree of its JSON object; a bad field raises SchemaError."""
        tree = SigTree()
        tree.frontier.clear()
        _build_node(tree, check(obj, dict).get("root"), None, 0, ("root",))
        return tree

    @staticmethod
    def import_json(text: str) -> "SigTree":
        return read_json(SigTree.from_obj, "tree", text=text)

    def to_dot(self, hide_failed: bool = False) -> str:
        """Graphviz rendering of the unfolding, its nodes numbered
        breadth-first; Pruned nodes dashed, Failed nodes annotated.  Each
        (flow, status, reason) has its attribute text built once."""
        nodes = self.nodes
        # order[i] is the handle of the i-th node of the unfolding, breadth
        # first, and its children are numbered first[i] to first[i + 1] - 1
        order, first = [self.root], []
        for handle in order:
            first.append(len(order))
            order.extend(nodes[handle].children)
        first.append(len(order))
        lines = ["digraph sigtree {", "  rankdir=LR;",
                 '  n0 [label="event", shape=box];']
        edges = []
        attrs: dict = {}  # (flow, status, reason) -> attribute text

        def attributes(flow: FlowId, node: SigNode) -> Optional[str]:
            key = (flow, node.status, node.reason)
            if key not in attrs:
                label = _dot_escape(flow.describe())
                attrs[key] = (
                    f'label="{label}", style=dashed, '
                    f'tooltip="pruned: {_dot_escape(node.reason)}"'
                    if node.status is NodeStatus.PRUNED else
                    f'label="{label}\\n[failed]", color=red'
                    if node.status is NodeStatus.FAILED else
                    f'label="{label}"')
            hidden = hide_failed and node.status is NodeStatus.FAILED
            return None if hidden else attrs[key]

        rows = [[attributes(flow, nodes[child]) for flow, child in
                 self.edges(handle)] for handle in range(len(nodes))]

        def visit(number: int):
            for child, text in zip(range(first[number], first[number + 1]),
                                   rows[order[number]]):
                if text is not None:
                    lines.append(f"  n{child} [{text}];")
                    edges.append(f"  n{number} -> n{child};")
                    if first[child] < first[child + 1]:
                        visit(child)

        visit(0)
        del visit  # the closure refers to itself; the cycle would hold lines
        return "\n".join(lines + edges + ["}"]) + "\n"


def _build_node(tree, node_obj: dict, parent: Optional[int], depth: int,
                path: tuple):
    """Add `node_obj`, the node at `path`, under `parent`, then its subtree."""
    check(node_obj, dict, path)
    if (written := member(node_obj, "depth", int, path)) != depth:
        raise SchemaError(f"{path_text(path + ('depth',))} must be {depth}, "
                          f"not {written}")
    # every node but the root carries a flow; a root's is not read
    flow = None if parent is None \
        else FlowId.from_obj(node_obj.get("flow"), path + ("flow",))
    node = SigNode(flow=flow, parent=parent, depth=depth,
                   status=NodeStatus(member(node_obj, "status", str, path)),
                   reason=member(node_obj, "reason", str, path, None))
    if parent is None:
        tree.nodes.clear()
    else:
        node.blocked = tree.nodes[parent].blocked | {flow}
        tree.nodes[parent].children.append(len(tree.nodes))
    handle = len(tree.nodes)
    tree.nodes.append(node)
    if node.status in (NodeStatus.EXPANDED, NodeStatus.FAILED) and flow:
        tree._explored.add(flow)
    if node.status is NodeStatus.UNEXPLORED:
        tree.frontier.append(handle)
    for index, child in enumerate(member(node_obj, "children", list, path, ())):
        _build_node(tree, child, handle, depth + 1,
                    path + ("children", index))


def _dot_escape(text) -> str:
    """Text for the inside of a DOT quoted string: backslashes and double
    quotes escaped, so the string ends where it should."""
    return str(text).replace("\\", "\\\\").replace('"', '\\"')


def explore(tree: SigTree,
            observe: Callable[[Tuple[FlowId, ...]], EventSignature],
            max_depth: Optional[int] = None) -> SigTree:
    """Grow the tree breadth-first until its frontier is exhausted.

    Each popped node is observed with its blocking set blocked: `observe`
    returns the node's signature, which depends on the set and not on its
    order.  Each set is observed once: B -> A is the node of A -> B, which
    a pruned tree cuts as a duplicate.  An accepted
    signature (2 * m_plus >= m) expands the node, its flows becoming the
    children; any other marks the node Failed.  Nodes deeper than
    `max_depth` are pruned unobserved.  Raises RootFailed when the unblocked
    event's signature is not accepted.
    """
    if max_depth is not None and max_depth < 1:
        raise ValueError("max_depth must be at least 1 when set")
    while (handle := tree.next_node()) is not None:
        if max_depth is not None and tree.node(handle).depth > max_depth:
            tree.prune(handle, "depth-capped")
            continue
        signature = observe(tree.blocking_set(handle))
        if accept_signature(signature):
            tree.add_children(handle, signature)
        elif handle == tree.root:
            raise RootFailed("the event fails with nothing blocked")
        else:
            tree.mark_failed(handle)
    return tree
