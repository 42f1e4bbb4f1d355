"""Differential tests of the linear cycle search behind ASSURE's serial order.

``repro.rtlir.opgraph._find_cycle`` ports ``nx.find_cycle`` without its
quadratic re-walks of explored nodes.  It must return networkx's cycle
exactly, so the edges the cycle breaker removes — and therefore
``topological_site_order`` and every serial ASSURE lock — stay the same.
"""

import random
from collections import Counter
from types import SimpleNamespace

import networkx as nx

from repro.rtlir.opgraph import (OperationGraph, OperationNode, SignalNode,
                                 _find_cycle)

SEEDS = range(300)


def random_digraph(seed: int) -> nx.DiGraph:
    """A seeded random digraph: shuffled node and edge insertion order,
    self-loops and cycles, or a DAG (a third of the seeds)."""
    rng = random.Random(seed)
    count = rng.randint(1, 24)
    nodes = [OperationNode(i, "+") if rng.random() < 0.5 else SignalNode(f"s{i}")
             for i in range(count)]
    dag = seed % 3 == 0
    edges = []
    for _ in range(rng.randint(0, 3 * count)):
        u, v = rng.randrange(count), rng.randrange(count)
        if dag and u >= v:
            continue
        edges.append((nodes[u], nodes[v]))
    rng.shuffle(nodes)
    rng.shuffle(edges)
    graph = nx.DiGraph()
    graph.add_nodes_from(nodes)
    graph.add_edges_from(edges)
    return graph


def networkx_cycle(graph: nx.DiGraph):
    try:
        return nx.find_cycle(graph)
    except nx.NetworkXNoCycle:
        return None


def removed_edges(graph: nx.DiGraph, find):
    """The edges a cycle breaker removes, one per found cycle, in order."""
    graph = graph.copy()
    removed = []
    while True:
        cycle = find(graph)
        if cycle is None:
            return removed
        removed.append(cycle[0][:2])
        graph.remove_edge(*cycle[0][:2])


def operation_graph(graph: nx.DiGraph) -> OperationGraph:
    sites = [SimpleNamespace(index=node.index) for node in graph
             if isinstance(node, OperationNode)]
    return OperationGraph(graph, sites, module=None)


def reference_site_order(graph: nx.DiGraph):
    """``topological_site_order`` as computed with ``nx.find_cycle``."""
    acyclic = graph.copy()
    for edge in removed_edges(graph, networkx_cycle):
        acyclic.remove_edge(*edge)
    order = {node.index: position
             for position, node in enumerate(nx.topological_sort(acyclic))
             if isinstance(node, OperationNode)}
    return sorted((node.index for node in graph
                   if isinstance(node, OperationNode)),
                  key=lambda index: (order.get(index, len(order)), index))


def test_port_matches_networkx():
    for seed in SEEDS:
        graph = random_digraph(seed)
        assert _find_cycle(graph) == networkx_cycle(graph), seed
        assert (removed_edges(graph, _find_cycle)
                == removed_edges(graph, networkx_cycle)), seed
        assert ([site.index for site in
                 operation_graph(graph).topological_site_order()]
                == reference_site_order(graph)), seed


def test_seeds_cover_cycles_self_loops_and_dags():
    graphs = [random_digraph(seed) for seed in SEEDS]
    assert sum(networkx_cycle(graph) is None for graph in graphs) >= 50
    assert sum(any(u == v for u, v in graph.edges) for graph in graphs) >= 50
    assert sum(len(removed_edges(graph, networkx_cycle)) > 1
               for graph in graphs) >= 50


def test_acyclic_view_leaves_the_graph_alone():
    graph = random_digraph(0)
    assert networkx_cycle(graph) is None
    assert operation_graph(graph)._acyclic_view() is graph
    cyclic = nx.DiGraph([(SignalNode("a"), SignalNode("b")),
                         (SignalNode("b"), SignalNode("a"))])
    view = operation_graph(cyclic)._acyclic_view()
    assert view is not cyclic and cyclic.number_of_edges() == 2
    assert view.number_of_edges() == 1


def counting_digraph():
    """A DiGraph that counts every successor it yields, per edge."""
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

    class CountingDiGraph(nx.DiGraph):
        adjlist_inner_dict_factory = CountingSuccessors

    return CountingDiGraph(), examined


def test_one_call_examines_each_edge_at_most_once():
    for seed in SEEDS:
        graph, examined = counting_digraph()
        source = random_digraph(seed)
        graph.add_nodes_from(source)
        graph.add_edges_from(source.edges)
        examined.clear()
        _find_cycle(graph)
        assert max(examined.values(), default=0) <= 1, seed


def test_reversed_chain_is_one_pass():
    # Inserting a chain's nodes sink-first makes every start node re-walk
    # the explored suffix in networkx; the port examines each edge once.
    graph, examined = counting_digraph()
    nodes = [SignalNode(f"n{i}") for i in range(200)]
    graph.add_nodes_from(reversed(nodes))
    graph.add_edges_from(zip(nodes, nodes[1:]))
    examined.clear()
    assert _find_cycle(graph) is None
    assert sum(examined.values()) == graph.number_of_edges()
    assert set(examined.values()) == {1}
