"""Unit tests for operation-site collection."""

import random

from repro.locking import LockingSession
from repro.rtlir import Design, collect_sites, operation_census
from repro.verilog.parser import parse_module


class TestBasicCollection:
    def test_census_of_mixer(self, mixer_design):
        census = mixer_design.operation_census()
        assert census == {"+": 3, "*": 1, "<<": 1, "^": 2, ">": 1, "-": 1, "&": 1}

    def test_sites_are_preordered_and_indexed(self, mixer_design):
        sites = mixer_design.sites()
        assert [site.index for site in sites] == list(range(len(sites)))

    def test_grouping_by_operator(self, plus_chain_design):
        sites = plus_chain_design.sites()
        grouped = sites.by_operator()
        assert set(grouped) == {"+"}
        assert len(grouped["+"]) == 6
        assert sites.operators() == {"+"}

    def test_parent_links_are_correct(self, mixer_design):
        for site in mixer_design.sites():
            assert any(child is site.node for child in site.parent.children())


class TestContextExclusions:
    def test_range_expressions_are_not_sites(self):
        module = parse_module("""
            module m #(parameter W = 8) (input [W-1:0] a, output [W-1:0] y);
              assign y = a;
            endmodule
        """)
        assert collect_sites(module).count_by_operator() == {}

    def test_parameter_values_are_not_sites(self):
        module = parse_module("""
            module m (input [7:0] a, output [7:0] y);
              localparam TOTAL = 4 + 4;
              assign y = a;
            endmodule
        """)
        assert collect_sites(module).count_by_operator() == {}

    def test_part_select_bounds_are_not_sites(self):
        module = parse_module("""
            module m (input [15:0] a, output [7:0] y);
              assign y = a[15:8];
            endmodule
        """)
        assert collect_sites(module).count_by_operator() == {}

    def test_bit_select_index_is_a_site(self):
        module = parse_module("""
            module m (input [7:0] a, input [2:0] i, output y);
              assign y = a[i + 1];
            endmodule
        """)
        assert collect_sites(module).count_by_operator() == {"+": 1}

    def test_lhs_index_operations_excluded(self):
        module = parse_module("""
            module m (input clk, input [2:0] i, input d);
              reg [7:0] mem;
              always @(posedge clk) mem[i + 1] <= d;
            endmodule
        """)
        assert collect_sites(module).count_by_operator() == {}

    def test_condition_and_case_expressions_are_sites(self):
        module = parse_module("""
            module m (input [3:0] a, b, output reg y);
              always @(*) begin
                if (a + b > 4)
                  y = 1;
                else
                  case (a - b)
                    4'd0: y = 0;
                    default: y = 1;
                  endcase
              end
            endmodule
        """)
        census = collect_sites(module).count_by_operator()
        assert census == {"+": 1, ">": 1, "-": 1}

    def test_instance_connections_are_sites(self):
        module = parse_module("""
            module top (input [7:0] a, b, output [7:0] y);
              leaf u0 (.x(a + b), .z(y));
            endmodule
        """)
        assert collect_sites(module).count_by_operator() == {"+": 1}

    def test_function_body_operations_are_sites(self):
        module = parse_module("""
            module m (input [7:0] a, output [7:0] y);
              function [7:0] mix;
                input [7:0] v;
                mix = (v << 1) ^ v;
              endfunction
              assign y = mix(a);
            endmodule
        """)
        assert collect_sites(module).count_by_operator() == {"<<": 1, "^": 1}


class TestLockedContextTracking:
    def test_key_controlled_sites_flagged_after_locking(self, mixer_design, rng):
        session = LockingSession(mixer_design, rng=rng)
        ref = session.ops_of_type("+")[0]
        session.add_pair(ref)
        sites = mixer_design.sites()
        locked_sites = [s for s in sites if s.in_locked_branch]
        # The wrapped real operation and its dummy both sit in a locked branch.
        assert len(locked_sites) == 2
        assert {s.op for s in locked_sites} == {"+", "-"}

    def test_unlocked_design_has_all_original_sites(self, mixer_design):
        sites = mixer_design.sites()
        assert not any(site.in_locked_branch for site in sites)

    def test_census_helper_matches_sites(self, mixer_design):
        assert operation_census(mixer_design.top) == \
            mixer_design.sites().count_by_operator()
