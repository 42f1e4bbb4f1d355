"""Unit tests for the dataflow operation graph."""

from repro.rtlir import OperationNode, SignalNode, build_operation_graph
from repro.verilog.parser import parse_module


class TestGraphConstruction:
    def test_every_site_becomes_a_node(self, mixer_design):
        graph = build_operation_graph(mixer_design.top)
        assert len(graph.operation_nodes()) == mixer_design.num_operations()

    def test_signal_nodes_present(self, mixer_design):
        graph = build_operation_graph(mixer_design.top)
        names = {node.name for node in graph.signal_nodes()}
        assert {"a", "b", "t1", "t3"}.issubset(names)

    def test_chain_depth(self, plus_chain_design):
        graph = build_operation_graph(plus_chain_design.top)
        # Six chained additions produce a long dependency path.
        assert graph.depth() >= 6

    def test_statistics_keys(self, mixer_design):
        stats = build_operation_graph(mixer_design.top).statistics()
        assert set(stats) == {"num_operations", "num_signals", "num_edges",
                              "depth", "avg_fanout"}
        assert stats["num_operations"] == mixer_design.num_operations()


class TestTopologicalOrder:
    def test_topological_order_respects_dataflow(self, plus_chain_design):
        graph = build_operation_graph(plus_chain_design.top)
        order = graph.topological_site_order()
        # In the chain s0 -> s1 -> ... the additions must come out in order.
        positions = {site.index: position for position, site in enumerate(order)}
        indices = sorted(positions)
        assert [positions[i] for i in indices] == sorted(positions.values())

    def test_order_covers_all_sites(self, mixer_design):
        graph = build_operation_graph(mixer_design.top)
        order = graph.topological_site_order()
        assert len(order) == mixer_design.num_operations()
        assert len({site.index for site in order}) == len(order)

    def test_order_is_deterministic(self, mixer_design):
        first = [s.index for s in
                 build_operation_graph(mixer_design.top).topological_site_order()]
        second = [s.index for s in
                  build_operation_graph(mixer_design.top).topological_site_order()]
        assert first == second

    def test_cyclic_design_does_not_crash(self):
        module = parse_module("""
            module loopy (input [3:0] a, output [3:0] y);
              wire [3:0] u;
              wire [3:0] v = u + a;
              assign u = v - a;
              assign y = v;
            endmodule
        """)
        graph = build_operation_graph(module)
        order = graph.topological_site_order()
        assert len(order) == 2
        assert graph.depth() >= 0


class TestGraphNodes:
    def test_node_dataclasses(self):
        assert SignalNode("x") == SignalNode("x")
        assert OperationNode(0, "+") != OperationNode(1, "+")
