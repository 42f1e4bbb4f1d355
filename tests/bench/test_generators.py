"""Unit tests for the benchmark design generators."""

import hashlib

import pytest

from repro.bench import benchmark_names, load_benchmark
from repro.bench.generators import alternating_network, plus_network, profile_design
from repro.bench.profiles import BENCHMARK_PROFILES, BenchmarkProfile
from repro.locking import odt_from_design
from repro.verilog import ast_nodes as ast
from repro.verilog.parser import parse

#: ``(benchmark, scale, seed)``: every registered benchmark, full size and
#: reduced, at two generation seeds.
FRONTEND_CASES = [(name, scale, seed) for name in benchmark_names()
                  for scale in (1.0, 0.1) for seed in (0, 3)]

#: SHA-256 over the rendered Verilog of every case in ``FRONTEND_CASES``
#: order, as generated when designs were still built by parsing that text.
FRONTEND_DIGEST = \
    "a4d8ee182038c8a33e802c428abc978fb92bbb0047b9e7cb3e1fb73fa758a6f8"


def same_tree(first, second) -> bool:
    """Node-for-node equality: same types and equal ``vars()`` throughout."""
    if type(first) is not type(second):
        return False
    if isinstance(first, ast.Node):
        fields, others = vars(first), vars(second)
        return (fields.keys() == others.keys()
                and all(same_tree(fields[key], others[key]) for key in fields))
    if isinstance(first, list):
        return (len(first) == len(second)
                and all(same_tree(a, b) for a, b in zip(first, second)))
    return first == second


def check_generator_matches_frontend(designs) -> str:
    """Assert each ``(label, design)`` holds the tree the parser reads back.

    Returns the SHA-256 over the rendered texts, in iteration order.
    """
    digest = hashlib.sha256()
    for label, design in designs:
        text = design.to_verilog()
        assert same_tree(design.source, parse(text)), \
            f"{label}: generator and parser build different trees"
        digest.update(text.encode())
    return digest.hexdigest()


def test_every_benchmark_builds_the_tree_the_frontend_parses():
    designs = ((case, load_benchmark(case[0], scale=case[1], seed=case[2]))
               for case in FRONTEND_CASES)
    assert check_generator_matches_frontend(designs) == FRONTEND_DIGEST


def test_combinational_profile_builds_the_tree_the_frontend_parses():
    # Every registered profile is sequential; this covers the other branch.
    profile = BenchmarkProfile("cmp", "comparison heavy",
                               {"==": 3, "<": 2, "+": 2}, sequential=False)
    check_generator_matches_frontend([("cmp", profile_design(profile, seed=1))])


class TestPlusNetwork:
    def test_operation_count_exact(self):
        design = plus_network(30)
        assert design.operation_census() == {"+": 30}

    def test_fully_imbalanced(self):
        odt = odt_from_design(plus_network(20))
        assert odt["+"] == 20

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            plus_network(0)
        with pytest.raises(ValueError):
            plus_network(5, n_inputs=1)


class TestAlternatingNetwork:
    def test_balanced_counts(self):
        design = alternating_network(12)
        assert design.operation_census() == {"+": 12, "-": 12}

    def test_fully_balanced_odt(self):
        odt = odt_from_design(alternating_network(7))
        assert odt["+"] == 0


class TestProfileDesign:
    @pytest.mark.parametrize("name", ["MD5", "FIR", "SASC"])
    def test_census_matches_profile_exactly(self, name):
        profile = BENCHMARK_PROFILES[name].scaled(0.3)
        design = profile_design(profile, seed=0)
        census = design.operation_census()
        assert census == profile.operations

    def test_seed_changes_structure_not_census(self):
        profile = BENCHMARK_PROFILES["RSA"].scaled(0.2)
        first = profile_design(profile, seed=1)
        second = profile_design(profile, seed=2)
        assert first.operation_census() == second.operation_census()
        assert first.to_verilog() != second.to_verilog()

    def test_same_seed_is_deterministic(self):
        profile = BENCHMARK_PROFILES["IIR"].scaled(0.2)
        first = profile_design(profile, seed=5)
        second = profile_design(profile, seed=5)
        assert first.to_verilog() == second.to_verilog()

    def test_sequential_profile_has_register_stage(self):
        profile = BENCHMARK_PROFILES["MD5"].scaled(0.1)
        design = profile_design(profile, seed=0)
        text = design.to_verilog()
        assert "always @(posedge clk" in text
        assert "state_q" in text

    def test_combinational_profile_has_no_always_block(self):
        profile = BenchmarkProfile("comb", "combinational", {"+": 5, "^": 3},
                                   sequential=False)
        design = profile_design(profile, seed=0)
        assert "always" not in design.to_verilog()

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError):
            profile_design(BenchmarkProfile("empty", "none", {}))

    def test_generated_design_is_lockable(self, rng):
        from repro.locking import AssureLocker
        profile = BENCHMARK_PROFILES["USB_PHY"].scaled(0.3)
        design = profile_design(profile, seed=3)
        result = AssureLocker("serial", rng=rng).lock(design, 10)
        assert result.bits_used == 10

    def test_relational_results_are_scalar_wires(self):
        profile = BenchmarkProfile("cmp", "comparison heavy",
                                   {"==": 3, "<": 2, "+": 2}, sequential=False)
        design = profile_design(profile, seed=0)
        text = design.to_verilog()
        # Scalar comparison wires are declared without a range.
        assert "wire n" in text
