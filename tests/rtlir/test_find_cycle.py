"""Differential tests of the dataflow graph against networkx.

``repro.rtlir.opgraph`` keeps its own insertion-ordered ``DataflowGraph``
and ports the networkx algorithms its analyses need: ``find_cycle``
(without its quadratic re-walks of explored nodes), ``topological_sort``
and ``dag_longest_path_length``.  Each must give networkx's result
exactly, so the edges the cycle breaker removes — and therefore
``topological_site_order`` and every serial ASSURE lock — stay the same.  networkx is only the test's reference; the package never
imports it.

``depth`` and ``topological_site_order`` read the order the acyclic view
returns with its graph.  The view takes Kahn's order of the graph itself
and breaks cycles only when that order leaves nodes out; the site order
must be that of the path that always breaks cycles first, and a cycle is
searched for exactly on the cyclic graphs.
"""

import random
from collections import Counter
from types import SimpleNamespace
from unittest import mock

import pytest

from repro.rtlir.opgraph import (DataflowGraph, OperationGraph, OperationNode,
                                 SignalNode, _find_cycle)

nx = pytest.importorskip("networkx")

SEEDS = range(300)


def random_graphs(seed: int):
    """A seeded random digraph, built twice in the same insertion order.

    Returns ``(reference, graph)``: the ``nx.DiGraph`` and the
    ``DataflowGraph``.  Node and edge order are shuffled; the graph has
    self-loops and cycles, or is a DAG (a third of the seeds).  Operation
    nodes alternate between ``+`` and ``*``.
    """
    rng = random.Random(seed)
    count = rng.randint(1, 24)
    nodes = [OperationNode(i, "+*"[i % 2]) if rng.random() < 0.5
             else SignalNode(f"s{i}") for i in range(count)]
    dag = seed % 3 == 0
    edges = []
    for _ in range(rng.randint(0, 3 * count)):
        u, v = rng.randrange(count), rng.randrange(count)
        if dag and u >= v:
            continue
        edges.append((nodes[u], nodes[v]))
    rng.shuffle(nodes)
    rng.shuffle(edges)
    reference = nx.DiGraph()
    reference.add_nodes_from(nodes)
    reference.add_edges_from(edges)
    graph = DataflowGraph()
    for node in nodes:
        graph.add_node(node)
    for edge in edges:
        graph.add_edge(*edge)
    return reference, graph


def networkx_cycle(graph: nx.DiGraph):
    try:
        return nx.find_cycle(graph)
    except nx.NetworkXNoCycle:
        return None


def removed_edges(graph, find):
    """The edges a cycle breaker removes, one per found cycle, in order."""
    graph = graph.copy()
    removed = []
    while True:
        cycle = find(graph)
        if cycle is None:
            return removed
        removed.append(cycle[0][:2])
        graph.remove_edge(*cycle[0][:2])


def operation_graph(graph: DataflowGraph) -> OperationGraph:
    sites = [SimpleNamespace(index=node.index, op=node.op) for node in graph
             if isinstance(node, OperationNode)]
    return OperationGraph(graph, sites, module=None)


def reference_acyclic(graph: nx.DiGraph) -> nx.DiGraph:
    """``graph`` with cycles broken by ``nx.find_cycle``."""
    acyclic = graph.copy()
    for edge in removed_edges(graph, networkx_cycle):
        acyclic.remove_edge(*edge)
    return acyclic


def reference_site_order(graph: nx.DiGraph):
    """``topological_site_order`` as computed with networkx."""
    order = {node.index: position for position, node
             in enumerate(nx.topological_sort(reference_acyclic(graph)))
             if isinstance(node, OperationNode)}
    return sorted((node.index for node in graph
                   if isinstance(node, OperationNode)),
                  key=lambda index: (order.get(index, len(order)), index))


def reference_depth(graph: nx.DiGraph) -> int:
    """``depth()`` as computed with ``nx.dag_longest_path_length``."""
    acyclic = reference_acyclic(graph)
    return nx.dag_longest_path_length(acyclic) if len(acyclic) else 0


#: Each analysis on the package graph next to its networkx reference.
ANALYSES = {
    "topological_order": (
        lambda graph: operation_graph(graph)._acyclic_view()[1],
        lambda reference: list(nx.topological_sort(reference_acyclic(reference)))),
    "depth": (lambda graph: operation_graph(graph).depth(), reference_depth),
}


def check_analysis(name: str) -> None:
    """Compare one analysis with its networkx reference on every seed."""
    analysis, reference_analysis = ANALYSES[name]
    for seed in SEEDS:
        reference, graph = random_graphs(seed)
        assert analysis(graph) == reference_analysis(reference), (name, seed)


@pytest.mark.parametrize("name", sorted(ANALYSES))
def test_analysis_matches_networkx(name):
    check_analysis(name)


def test_port_matches_networkx():
    for seed in SEEDS:
        reference, graph = random_graphs(seed)
        assert _find_cycle(graph) == networkx_cycle(reference), seed
        assert (removed_edges(graph, _find_cycle)
                == removed_edges(reference, networkx_cycle)), seed
        assert ([site.index for site in
                 operation_graph(graph).topological_site_order()]
                == reference_site_order(reference)), seed


def acyclic_view_site_order(graph: DataflowGraph):
    """``topological_site_order`` that always breaks cycles before sorting."""
    operations = operation_graph(graph)
    order = {node.index: position for position, node
             in enumerate(operations._acyclic_view()[1])
             if isinstance(node, OperationNode)}
    return sorted((site.index for site in operations.sites),
                  key=lambda index: (order.get(index, len(order)), index))


def test_kahn_first_site_order_matches_the_acyclic_view_path():
    cyclic_graphs = 0
    for seed in SEEDS:
        _, graph = random_graphs(seed)
        cyclic = _find_cycle(graph) is not None
        with mock.patch("repro.rtlir.opgraph._find_cycle",
                        wraps=_find_cycle) as find:
            order = [site.index for site in
                     operation_graph(graph).topological_site_order()]
        assert order == acyclic_view_site_order(graph), seed
        assert (find.call_count > 0) == cyclic, seed
        cyclic_graphs += cyclic
    # The cyclic graphs take the fallback; a third of the seeds are DAGs.
    assert 50 <= cyclic_graphs <= len(SEEDS) - 50


def test_seeds_cover_cycles_self_loops_and_dags():
    graphs = [random_graphs(seed)[0] for seed in SEEDS]
    assert sum(networkx_cycle(graph) is None for graph in graphs) >= 50
    assert sum(any(u == v for u, v in graph.edges) for graph in graphs) >= 50
    assert sum(len(removed_edges(graph, networkx_cycle)) > 1
               for graph in graphs) >= 50


def test_acyclic_view_leaves_the_graph_alone():
    _, graph = random_graphs(0)
    assert _find_cycle(graph) is None
    assert operation_graph(graph)._acyclic_view()[0] is graph
    cyclic = DataflowGraph()
    cyclic.add_edge(SignalNode("a"), SignalNode("b"))
    cyclic.add_edge(SignalNode("b"), SignalNode("a"))
    view, order = operation_graph(cyclic)._acyclic_view()
    assert view is not cyclic and cyclic.number_of_edges() == 2
    assert view.number_of_edges() == 1
    assert len(order) == len(view)


def test_depth_searches_for_a_cycle_only_on_cyclic_graphs():
    for seed in SEEDS:
        reference, graph = random_graphs(seed)
        cyclic = networkx_cycle(reference) is not None
        with mock.patch("repro.rtlir.opgraph._find_cycle",
                        wraps=_find_cycle) as find:
            depth = operation_graph(graph).depth()
        assert depth == reference_depth(reference), seed
        assert (find.call_count > 0) == cyclic, seed


def test_cyclic_graph_keeps_its_depth():
    # a -> b -> c -> a closes a loop, c -> d -> e hangs a tail off it;
    # breaking the loop's first found edge (a -> b) leaves b -> c -> a
    # and c -> d -> e, whose longest path b -> c -> d -> e has 3 edges.
    a, b, c, d, e = (SignalNode(name) for name in "abcde")
    edges = [(a, b), (b, c), (c, a), (c, d), (d, e)]
    graph = DataflowGraph()
    for edge in edges:
        graph.add_edge(*edge)
    reference = nx.DiGraph(edges)
    with mock.patch("repro.rtlir.opgraph._find_cycle",
                    wraps=_find_cycle) as find:
        assert operation_graph(graph).depth() == 3
    assert find.call_count == 2
    assert reference_depth(reference) == 3


def counting_graph(source: DataflowGraph):
    """A copy of ``source`` that counts every successor it yields, per edge."""
    examined = Counter()

    class CountingSuccessors(dict):
        def __iter__(self):
            for head in dict.__iter__(self):
                examined[id(self), head] += 1
                yield head

        def items(self):
            for head, data in dict.items(self):
                examined[id(self), head] += 1
                yield head, data

    graph = source.copy()
    graph.succ = {node: CountingSuccessors(heads)
                  for node, heads in graph.succ.items()}
    return graph, examined


def test_one_call_examines_each_edge_at_most_once():
    for seed in SEEDS:
        graph, examined = counting_graph(random_graphs(seed)[1])
        _find_cycle(graph)
        assert max(examined.values(), default=0) <= 1, seed


def test_reversed_chain_is_one_pass():
    # Inserting a chain's nodes sink-first makes every start node re-walk
    # the explored suffix in networkx; the port examines each edge once.
    chain = DataflowGraph()
    nodes = [SignalNode(f"n{i}") for i in range(200)]
    for node in reversed(nodes):
        chain.add_node(node)
    for edge in zip(nodes, nodes[1:]):
        chain.add_edge(*edge)
    graph, examined = counting_graph(chain)
    assert _find_cycle(graph) is None
    assert sum(examined.values()) == graph.number_of_edges()
    assert set(examined.values()) == {1}
