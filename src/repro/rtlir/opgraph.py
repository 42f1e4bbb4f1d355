"""Dataflow graph construction over a module's assignments.

The graph is used for

* *serial* operation selection in ASSURE (operations ordered by their
  topological position in the dataflow, mirroring the paper's "serial manner
  w.r.t. the design topology"),
* structural statistics (fan-out, dataflow depth),
* the extra context features of the SnapShot locality extractor.

Nodes are either *signal* nodes (named wires/regs/ports) or *operation* nodes
(one per lockable operation site).  Edges point from producers to consumers.

The graph is a :class:`DataflowGraph`, which keeps nodes and edges in
insertion order as ``networkx.DiGraph`` does; the few graph algorithms the
analyses need (cycle search, topological sort, longest path) are exact
ports of networkx's, so every order they yield, and with it every serial
ASSURE lock, is the one networkx would give.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterator, List, Optional, Set, Tuple

from ..verilog import ast_nodes as ast
from .sites import OperationSite, SiteCollection, collect_sites


@dataclass(frozen=True)
class SignalNode:
    """Graph node representing a named signal."""

    name: str

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"sig:{self.name}"


@dataclass(frozen=True)
class OperationNode:
    """Graph node representing one operation site (identified by site index)."""

    index: int
    op: str

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"op{self.index}:{self.op}"


class DataflowGraph:
    """A directed graph whose nodes and edges keep their insertion order.

    ``succ[u]`` and ``pred[v]`` map each node to its successors and
    predecessors, as dicts used as ordered sets (the values are None).
    Iterating the graph yields the nodes in insertion order, and a node's
    successors come in the order their edges were added: the orders of
    ``networkx.DiGraph``, on which the ports below rely.
    """

    def __init__(self) -> None:
        self.succ: Dict[Hashable, Dict[Hashable, None]] = {}
        self.pred: Dict[Hashable, Dict[Hashable, None]] = {}

    def add_node(self, node: Hashable) -> None:
        if node not in self.succ:
            self.succ[node] = {}
            self.pred[node] = {}

    def add_edge(self, tail: Hashable, head: Hashable) -> None:
        """Add ``tail -> head``, adding either end that is new (tail first)."""
        self.add_node(tail)
        self.add_node(head)
        self.succ[tail][head] = None
        self.pred[head][tail] = None

    def remove_edge(self, tail: Hashable, head: Hashable) -> None:
        del self.succ[tail][head]
        del self.pred[head][tail]

    def copy(self) -> DataflowGraph:
        other = DataflowGraph()
        other.succ = {node: dict(heads) for node, heads in self.succ.items()}
        other.pred = {node: dict(tails) for node, tails in self.pred.items()}
        return other

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self.succ)

    def __len__(self) -> int:
        return len(self.succ)

    def __contains__(self, node: object) -> bool:
        return node in self.succ

    def number_of_edges(self) -> int:
        return sum(len(heads) for heads in self.succ.values())

    def out_degree(self, node: Hashable) -> int:
        return len(self.succ[node])


class OperationGraph:
    """Dataflow graph of a single module.

    Attributes:
        graph: The underlying :class:`DataflowGraph`.
        sites: The operation sites the graph was built from.
    """

    def __init__(self, graph: DataflowGraph, sites: SiteCollection,
                 module: ast.Module) -> None:
        self.graph = graph
        self.sites = sites
        self.module = module

    # ------------------------------------------------------------------ stats

    def operation_nodes(self) -> List[OperationNode]:
        """Return all operation nodes."""
        return [n for n in self.graph if isinstance(n, OperationNode)]

    def signal_nodes(self) -> List[SignalNode]:
        """Return all signal nodes."""
        return [n for n in self.graph if isinstance(n, SignalNode)]

    def depth(self) -> int:
        """Return the longest path length (dataflow depth) ignoring cycles."""
        return _longest_path_length(*self._acyclic_view())

    def _acyclic_view(self) -> Tuple[DataflowGraph, List[Hashable]]:
        """The graph with cycles broken, and its topological order.

        Cycles are broken by dropping each found cycle's first edge.
        Kahn's order is taken first: when it keeps every node the graph
        has no cycle and is returned as is, with that order and no cycle
        search.  Else the graph is copied before the first removal, and
        the order is Kahn's order of the copy; callers only read the
        result.
        """
        graph = self.graph
        order = _kahn_order(graph)
        if len(order) == len(graph):
            return graph, order
        graph = graph.copy()
        while True:
            cycle = _find_cycle(graph)
            if cycle is None:
                return graph, _kahn_order(graph)
            graph.remove_edge(*cycle[0])

    def topological_site_order(self) -> List[OperationSite]:
        """Return sites ordered by topological position (ties by site index).

        This order is used by ASSURE's *serial* selection: operations closer
        to the primary inputs are locked first, and the order is deterministic
        for a given design.  The positions are those of the acyclic view's
        order (:meth:`_acyclic_view`), which breaks cycles only when the
        graph has one.
        """
        _, nodes = self._acyclic_view()
        order: Dict[int, int] = {}
        for position, node in enumerate(nodes):
            if isinstance(node, OperationNode):
                order[node.index] = position
        return sorted(self.sites,
                      key=lambda s: (order.get(s.index, len(order)), s.index))

    def statistics(self) -> Dict[str, float]:
        """Return a dictionary of structural statistics of the dataflow graph."""
        op_nodes = self.operation_nodes()
        sig_nodes = self.signal_nodes()
        return {
            "num_operations": float(len(op_nodes)),
            "num_signals": float(len(sig_nodes)),
            "num_edges": float(self.graph.number_of_edges()),
            "depth": float(self.depth()),
            "avg_fanout": (
                float(sum(self.graph.out_degree(n) for n in sig_nodes)) / len(sig_nodes)
                if sig_nodes else 0.0
            ),
        }


def _kahn_order(graph: DataflowGraph) -> List[Hashable]:
    """Kahn's algorithm by generations; nodes on or behind a cycle are left out.

    The first generation is the nodes without predecessors, in node order;
    each later one collects, in the order the previous generation's
    successor lists are walked, the nodes whose last predecessor it removed.
    On a DAG it is ``list(nx.topological_sort(graph))``.
    """
    indegree = {node: len(tails) for node, tails in graph.pred.items()}
    generation = [node for node, degree in indegree.items() if degree == 0]
    order: List[Hashable] = []
    while generation:
        order.extend(generation)
        following = []
        for node in generation:
            for child in graph.succ[node]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    following.append(child)
        generation = following
    return order


def _longest_path_length(graph: DataflowGraph, order: List[Hashable]) -> int:
    """``nx.dag_longest_path_length(graph)``: edges on a longest path (0 if empty).

    networkx walks the topological order (``order``, :func:`_kahn_order` of
    the DAG ``graph``), gives each node the longest distance over its
    predecessors plus one (0 at a source) and returns the length of the
    path ending at the farthest node; with unit weights that length is the
    largest distance.
    """
    distance: Dict[Hashable, int] = {}
    for node in order:
        distance[node] = max((distance[tail] + 1 for tail in graph.pred[node]),
                             default=0)
    return max(distance.values(), default=0)


#: Sentinel of an exhausted successor iterator in :func:`_find_cycle`.
_EXHAUSTED = object()


def _find_cycle(graph: DataflowGraph) -> Optional[List[Tuple[object, object]]]:
    """``nx.find_cycle(graph)`` in one pass over the edges; None if acyclic.

    An exact port of networkx's default (``source=None``,
    ``orientation=None``) cycle search on a directed graph: the same start
    nodes, the same edge order and the same returned cycle.  networkx runs a
    fresh ``edge_dfs`` from every unexplored start node, and that walk
    descends into nodes an earlier start already explored, only to skip
    each of their edges.  Everything reachable from an explored node is
    explored too, so those skipped edges never touch the cycle state; this
    port does not descend into explored nodes at all, which makes one call
    linear in the graph size instead of quadratic on long DAGs.
    """
    succ = graph.succ
    explored: Set[object] = set()
    for start in graph:
        if start in explored:
            continue
        # edge_dfs state: one successor iterator per node, kept for the walk.
        neighbours: Dict[object, object] = {}
        stack = [start]
        # find_cycle state: the active path's edges and nodes.
        edges: List[Tuple[object, object]] = []
        seen = {start}
        active = {start}
        previous_head = None
        while stack:
            tail = stack[-1]
            if tail not in neighbours:
                neighbours[tail] = iter(succ[tail])
            head = next(neighbours[tail], _EXHAUSTED)
            if head is _EXHAUSTED:
                stack.pop()
                continue
            if head in explored:
                continue
            stack.append(head)
            if previous_head is not None and tail != previous_head:
                # Backtracked: pop the path back to the edge ending at tail.
                while True:
                    if not edges:
                        active = {tail}
                        break
                    active.remove(edges.pop()[1])
                    if edges and edges[-1][1] == tail:
                        break
            edges.append((tail, head))
            if head in active:
                for index, (edge_tail, _) in enumerate(edges):
                    if edge_tail == head:
                        return edges[index:]
            seen.add(head)
            active.add(head)
            previous_head = head
        explored.update(seen)
    return None


def _referenced_signals(expr: ast.Expression) -> List[str]:
    names: List[str] = []
    for node in expr.iter_tree():
        if isinstance(node, ast.Identifier):
            names.append(node.name)
    return names


def _target_signal(lhs: ast.Expression) -> Optional[str]:
    if isinstance(lhs, ast.Identifier):
        return lhs.name
    if isinstance(lhs, (ast.BitSelect, ast.PartSelect, ast.IndexedPartSelect)):
        return _target_signal(lhs.target)
    if isinstance(lhs, ast.Concat) and lhs.parts:
        return _target_signal(lhs.parts[0])
    return None


def build_operation_graph(module: ast.Module,
                          key_names: Optional[Set[str]] = None,
                          sites: Optional[SiteCollection] = None) -> OperationGraph:
    """Build the dataflow :class:`OperationGraph` of ``module``.

    Args:
        module: Module to analyse.
        key_names: Key signal names (passed through to site collection).
        sites: Pre-collected sites; collected on demand when omitted.
    """
    if sites is None:
        sites = collect_sites(module, key_names)
    graph = DataflowGraph()

    site_by_node: Dict[int, OperationSite] = {id(s.node): s for s in sites}

    def op_node_for(site: OperationSite) -> OperationNode:
        return OperationNode(site.index, site.op)

    # Operation-level edges: operand expressions feed the operation.
    for site in sites:
        target = op_node_for(site)
        graph.add_node(target)
        for operand in (site.node.left, site.node.right):
            inner_site = site_by_node.get(id(operand))
            if inner_site is not None:
                graph.add_edge(op_node_for(inner_site), target)
                continue
            for name in _referenced_signals(operand):
                graph.add_edge(SignalNode(name), target)

    # Assignment-level edges: operations and signals feed the assigned signal.
    assignments: List[Tuple[ast.Expression, ast.Expression]] = []
    for item in module.items:
        if isinstance(item, ast.ContinuousAssign):
            assignments.append((item.lhs, item.rhs))
        elif isinstance(item, ast.NetDeclaration) and item.init is not None:
            assignments.append((ast.Identifier(item.names[0]), item.init))
        elif isinstance(item, (ast.AlwaysBlock, ast.InitialBlock)):
            for node in item.statement.iter_tree():
                if isinstance(node, (ast.BlockingAssign, ast.NonBlockingAssign)):
                    assignments.append((node.lhs, node.rhs))

    for lhs, rhs in assignments:
        target_name = _target_signal(lhs)
        if target_name is None:
            continue
        target = SignalNode(target_name)
        top_site = site_by_node.get(id(rhs))
        if top_site is not None:
            graph.add_edge(op_node_for(top_site), target)
        else:
            for node in rhs.iter_tree():
                inner = site_by_node.get(id(node))
                if inner is not None:
                    graph.add_edge(op_node_for(inner), target)
            for name in _referenced_signals(rhs):
                graph.add_edge(SignalNode(name), target)

    return OperationGraph(graph, sites, module)
