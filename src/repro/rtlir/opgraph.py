"""Dataflow graph construction over a module's assignments.

The graph is used for

* *serial* operation selection in ASSURE (operations ordered by their
  topological position in the dataflow, mirroring the paper's "serial manner
  w.r.t. the design topology"),
* structural statistics (fan-out, dataflow depth, connected operation
  networks such as the ``+``-network of Fig. 4),
* the extra context features of the SnapShot locality extractor.

Nodes are either *signal* nodes (named wires/regs/ports) or *operation* nodes
(one per lockable operation site).  Edges point from producers to consumers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import networkx as nx

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


class OperationGraph:
    """Dataflow graph of a single module.

    Attributes:
        graph: The underlying :class:`networkx.DiGraph`.
        sites: The operation sites the graph was built from.
    """

    def __init__(self, graph: nx.DiGraph, sites: SiteCollection,
                 module: ast.Module) -> None:
        self.graph = graph
        self.sites = sites
        self.module = module

    # ------------------------------------------------------------------ stats

    def operation_nodes(self) -> List[OperationNode]:
        """Return all operation nodes."""
        return [n for n in self.graph.nodes if isinstance(n, OperationNode)]

    def signal_nodes(self) -> List[SignalNode]:
        """Return all signal nodes."""
        return [n for n in self.graph.nodes if isinstance(n, SignalNode)]

    def fanout(self, signal: str) -> int:
        """Return the out-degree of a signal node (0 if the signal is unknown)."""
        node = SignalNode(signal)
        if node not in self.graph:
            return 0
        return self.graph.out_degree(node)

    def depth(self) -> int:
        """Return the longest path length (dataflow depth) ignoring cycles."""
        acyclic = self._acyclic_view()
        if acyclic.number_of_nodes() == 0:
            return 0
        return nx.dag_longest_path_length(acyclic)

    def _acyclic_view(self) -> nx.DiGraph:
        """The graph with cycles broken: drop each found cycle's first edge.

        The graph is copied at the first removal only; an acyclic graph is
        returned as is, and callers only read the result.
        """
        graph = self.graph
        while True:
            cycle = _find_cycle(graph)
            if cycle is None:
                return graph
            if graph is self.graph:
                graph = graph.copy()
            graph.remove_edge(*cycle[0])

    def topological_site_order(self) -> List[OperationSite]:
        """Return sites ordered by topological position (ties by site index).

        This order is used by ASSURE's *serial* selection: operations closer
        to the primary inputs are locked first, and the order is deterministic
        for a given design.
        """
        acyclic = self._acyclic_view()
        order: Dict[int, int] = {}
        for position, node in enumerate(nx.topological_sort(acyclic)):
            if isinstance(node, OperationNode):
                order[node.index] = position
        return sorted(self.sites,
                      key=lambda s: (order.get(s.index, len(order)), s.index))

    def connected_operation_network(self, operator: str) -> List[Set[int]]:
        """Return connected components of operation sites with the given operator.

        Two sites are connected when one feeds the other (possibly through a
        named signal).  This is the "network of + operations" view of Fig. 4.
        """
        wanted = {site.index for site in self.sites if site.op == operator}
        projected = nx.Graph()
        projected.add_nodes_from(wanted)
        undirected = self.graph.to_undirected(as_view=True)
        for index in wanted:
            source = OperationNode(index, operator)
            if source not in undirected:
                continue
            for neighbour in undirected.neighbors(source):
                targets = self._reachable_ops(neighbour, wanted, operator)
                for target in targets:
                    if target != index:
                        projected.add_edge(index, target)
        return [set(component) for component in nx.connected_components(projected)]

    def _reachable_ops(self, start, wanted: Set[int], operator: str) -> Set[int]:
        found: Set[int] = set()
        if isinstance(start, OperationNode) and start.index in wanted:
            found.add(start.index)
            return found
        if isinstance(start, SignalNode):
            for neighbour in self.graph.to_undirected(as_view=True).neighbors(start):
                if isinstance(neighbour, OperationNode) and neighbour.index in wanted:
                    found.add(neighbour.index)
        return found

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


#: Sentinel of an exhausted successor iterator in :func:`_find_cycle`.
_EXHAUSTED = object()


def _find_cycle(graph: nx.DiGraph) -> Optional[List[Tuple[object, object]]]:
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
    graph = nx.DiGraph()

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
