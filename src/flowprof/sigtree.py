"""Signature tree: breadth-first exploration state over blocked-flow paths.

Nodes live in an arena indexed by integer handles; handle 0 is the synthetic
root (no flow).  Each node carries its blocking set, the flows on its root
path.  The frontier is FIFO.  With pruning enabled, a popped node whose flow
already reached a terminal explored state (Expanded or Failed) anywhere in
the tree is marked Pruned instead of being returned.  explore, the one loop
that grows a tree, observes each distinct blocking set once.  An unpruned
tree repeats each set once per order of its flows, so a tree sorts each
set's children once, and its export writes each distinct node head once.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, Optional, Tuple

from .core import FlowId, check, member, read_json, sorted_flows
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
    """A path's last flow and its blocking set: the parent's set plus that
    flow, empty at the root; nodes of one set may share the instance."""
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
    node_count: int  # non-root nodes
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
        # (blocking set, signature flows) -> [(child flow, child set), ...]
        self._children: dict = {}

    @property
    def root(self) -> int:
        return 0

    def node(self, handle: int) -> SigNode:
        return self.nodes[handle]

    def next_node(self) -> Optional[int]:
        """Pop the next frontier node; prune duplicates at pop time."""
        while self.frontier:
            handle = self.frontier.popleft()
            node = self.nodes[handle]
            if (
                self.pruning
                and node.flow is not None
                and node.flow in self._explored
            ):
                node.status = NodeStatus.PRUNED
                node.reason = "duplicate"
                continue
            return handle
        return None

    def add_children(self, handle: int, signature: EventSignature) -> list:
        """Expand a node with the signature seen under its blocking set.

        Children are the signature flows minus the node's blocking set,
        appended in canonical sort order.  Returns their handles.  Nodes of
        one set and signature share one sort and each child's set.
        """
        node = self.nodes[handle]
        if node.status is not NodeStatus.UNEXPLORED:
            raise NodeAlreadyVisited(f"node {handle} is {node.status.value}")
        key = (node.blocked, signature.flows)
        if key not in self._children:
            fresh = sorted_flows(self._flows.setdefault(flow, flow)
                                 for flow in signature.flows - node.blocked)
            self._children[key] = [(flow, node.blocked | {flow})
                                   for flow in fresh]
        first, depth = len(self.nodes), node.depth + 1
        self.nodes.extend(SigNode(flow=flow, parent=handle, depth=depth,
                                  blocked=blocked)
                          for flow, blocked in self._children[key])
        handles = list(range(first, len(self.nodes)))
        node.children.extend(handles)
        self.frontier.extend(handles)
        node.status = NodeStatus.EXPANDED
        if node.flow is not None:
            self._explored.add(node.flow)
        return handles

    def mark_failed(self, handle: int):
        node = self.nodes[handle]
        if handle == self.root:
            raise ValueError("root cannot be marked failed")
        if node.status is not NodeStatus.UNEXPLORED:
            raise NodeAlreadyVisited(f"node {handle} is {node.status.value}")
        node.status = NodeStatus.FAILED
        self._explored.add(node.flow)

    def prune(self, handle: int, reason: str):
        node = self.nodes[handle]
        if node.status is not NodeStatus.UNEXPLORED:
            raise NodeAlreadyVisited(f"node {handle} is {node.status.value}")
        node.status = NodeStatus.PRUNED
        node.reason = reason

    def blocking_set(self, handle: int) -> Tuple[FlowId, ...]:
        """Flows on the path from the root to this node, root side first."""
        flows = []
        current: Optional[int] = handle
        while current is not None:
            node = self.nodes[current]
            if node.flow is not None:
                flows.append(node.flow)
            current = node.parent
        return tuple(reversed(flows))

    def stats(self) -> TreeStats:
        unique: set = set()
        first_level: set = set()
        pruned: Dict[int, int] = {}
        failed = 0
        expanded = 0
        for handle, node in enumerate(self.nodes):
            if handle == self.root:
                continue
            unique.add(node.flow)
            if node.depth == 1:
                first_level.add(node.flow)
            if node.status is NodeStatus.PRUNED:
                pruned[node.depth] = pruned.get(node.depth, 0) + 1
            elif node.status is NodeStatus.FAILED:
                failed += 1
            elif node.status is NodeStatus.EXPANDED:
                expanded += 1
        return TreeStats(
            unique_flows=len(unique),
            first_level=len(first_level),
            hidden_flows=len(unique - first_level),
            pruned_per_depth=tuple(sorted(pruned.items())),
            failed_count=failed,
            node_count=len(self.nodes) - 1,
            expanded_count=expanded,
        )

    # -- serialization ---------------------------------------------------------

    def export_json(self) -> str:
        """The tree as `json.dumps(obj, indent=2) + "\n"`, where each node
        object holds flow (except the root), status, depth, reason (Pruned
        nodes) and children.  The text is written directly, because the
        stdlib's indented encoder is pure Python.  A node's text up to its
        children, and the separators its depth sets, are built once per
        (flow, status, depth, reason); each flow's and each reason's block
        is encoded once per depth, by json.dumps itself."""
        parts = ['{\n  "root": ']
        nodes = self.nodes
        blocks: dict = {}  # (flow or reason, indent) -> encoded block
        heads: dict = {}  # (flow, status, depth, reason) -> node texts

        def block(value, inner: str) -> str:
            key = (value, inner)
            if key not in blocks:
                text = json.dumps(value, indent=2, default=FlowId.to_obj)
                blocks[key] = text.replace("\n", "\n" + inner)
            return blocks[key]

        def texts(node: SigNode) -> tuple:
            """(leaf text, head and first separator, separator, tail)"""
            pad = "  " * (2 * node.depth + 1)
            inner = pad + "  "
            head = "{\n"
            if node.flow is not None:
                head += f'{inner}"flow": {block(node.flow, inner)},\n'
            head += (f'{inner}"status": "{node.status.value}",\n'
                     f'{inner}"depth": {node.depth},\n')
            if node.reason is not None:
                head += f'{inner}"reason": {block(node.reason, inner)},\n'
            head += f'{inner}"children": ['
            return (f"{head}]\n{pad}}}", f"{head}\n{inner}  ",
                    f",\n{inner}  ", f"\n{inner}]\n{pad}}}")

        def write(handle: int):
            node = nodes[handle]
            key = (node.flow, node.status, node.depth, node.reason)
            text = heads.get(key) or heads.setdefault(key, texts(node))
            if not node.children:
                parts.append(text[0])
                return
            parts.append(text[1])
            write(node.children[0])
            for child in node.children[1:]:
                parts.append(text[2])
                write(child)
            parts.append(text[3])

        write(self.root)
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
        """Graphviz rendering; Pruned nodes dashed, Failed nodes annotated.
        Each (flow, status, reason) has its attribute text built once."""
        lines = ["digraph sigtree {", "  rankdir=LR;",
                 '  n0 [label="event", shape=box];']
        edges = []
        nodes = self.nodes
        attrs: dict = {}  # (flow, status, reason) -> attribute text

        def attributes(node: SigNode) -> str:
            label = _dot_escape(node.flow.describe())
            if node.status is NodeStatus.PRUNED:
                return (f'label="{label}", style=dashed, '
                        f'tooltip="pruned: {_dot_escape(node.reason)}"')
            if node.status is NodeStatus.FAILED:
                return f'label="{label}\\n[failed]", color=red'
            return f'label="{label}"'

        def visit(handle: int):
            for child in nodes[handle].children:
                node = nodes[child]
                if hide_failed and node.status is NodeStatus.FAILED:
                    continue
                key = (node.flow, node.status, node.reason)
                text = attrs.get(key) or attrs.setdefault(key, attributes(node))
                lines.append(f"  n{child} [{text}];")
                edges.append(f"  n{handle} -> n{child};")
                visit(child)

        visit(self.root)
        del visit  # the closure refers to itself; the cycle would hold lines
        return "\n".join(lines + edges + ["}"]) + "\n"


def _build_node(tree, node_obj: dict, parent: Optional[int], depth: int,
                path: tuple):
    """Add `node_obj`, the node at `path`, under `parent`, then its subtree."""
    check(node_obj, dict, path)
    # every node but the root carries a flow; a root's is not read
    flow = None if parent is None \
        else FlowId.from_obj(node_obj.get("flow"), path + ("flow",))
    node = SigNode(flow=flow, parent=parent, depth=depth,
                   status=NodeStatus(member(node_obj, "status", str, path)),
                   reason=member(node_obj, "reason", str, path, None))
    if parent is None:
        tree.nodes[0] = node
        handle = 0
    else:
        node.blocked = tree.nodes[parent].blocked | {flow}
        tree.nodes.append(node)
        handle = len(tree.nodes) - 1
        tree.nodes[parent].children.append(handle)
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
    order, so a node whose set was observed (B -> A after A -> B) reuses it.
    An accepted signature (2 * m_plus >= m) expands the node, its flows
    becoming the children; any other marks the node Failed.  Nodes deeper
    than `max_depth` are pruned unobserved.  Raises RootFailed when the
    unblocked event's signature is not accepted.
    """
    if max_depth is not None and max_depth < 1:
        raise ValueError("max_depth must be at least 1 when set")
    observed: dict = {}  # blocking set -> its signature
    while (handle := tree.next_node()) is not None:
        node = tree.node(handle)
        if max_depth is not None and node.depth > max_depth:
            tree.prune(handle, "depth-capped")
            continue
        signature = observed.get(node.blocked)
        if signature is None:
            signature = observed[node.blocked] = observe(
                tree.blocking_set(handle))
        if accept_signature(signature):
            tree.add_children(handle, signature)
        elif handle == tree.root:
            raise RootFailed("the event fails with nothing blocked")
        else:
            tree.mark_failed(handle)
    return tree
