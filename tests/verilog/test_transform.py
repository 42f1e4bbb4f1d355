"""Unit tests for the structural transformation helpers."""

import copy

import pytest

from repro.bench import benchmark_names, load_benchmark
from repro.verilog import ast
from repro.verilog.codegen import generate
from repro.verilog.parser import parse_module
from repro.verilog.transform import clone, declared_names, unique_name

from ..conftest import MIXER_SOURCE

_ATOMS = (str, int, float, type(None))


def _nodes_and_mutables(root):
    """Identities of every node and every mutable attribute value under ``root``."""
    nodes, mutables = set(), set()
    for node in root.iter_tree():
        nodes.add(id(node))
        for value in vars(node).values():
            if not isinstance(value, _ATOMS) and not isinstance(value, ast.Node):
                mutables.add(id(value))
    return nodes, mutables


class TestClone:
    def test_clone_is_deep(self):
        module = parse_module(MIXER_SOURCE)
        copy = clone(module)
        assert copy is not module
        copy.items[0].names[0] = "renamed"
        assert module.items[0].names[0] != "renamed"

    @pytest.mark.parametrize("name", benchmark_names())
    def test_clone_matches_deepcopy_and_shares_nothing(self, name):
        top = load_benchmark(name, seed=5).top
        cloned = clone(top)
        assert generate(cloned) == generate(copy.deepcopy(top))
        assert type(cloned) is type(top)
        nodes, mutables = _nodes_and_mutables(top)
        clone_nodes, clone_mutables = _nodes_and_mutables(cloned)
        assert len(clone_nodes) == len(nodes)
        assert not nodes & clone_nodes
        assert not mutables & clone_mutables

    def test_clone_copies_lists_that_hold_no_nodes(self):
        # ``names`` is a list of strings outside ``_fields``: the one-call
        # attribute copy would share it unless the clone replaces it too.
        decl = ast.NetDeclaration("wire", ["x", "y"],
                                  width=ast.Range(ast.IntConst("7"),
                                                  ast.IntConst("0")),
                                  signed=True)
        cloned = clone(decl)
        assert cloned.names == ["x", "y"] and cloned.names is not decl.names
        assert cloned.array_dims == [] and cloned.array_dims is not decl.array_dims
        assert cloned.width is not decl.width
        assert (cloned.net_type, cloned.signed) == ("wire", True)
        cloned.names.append("z")
        assert decl.names == ["x", "y"]

    def test_clone_copies_attributes_outside_fields(self):
        expr = ast.BinaryOp("+", ast.Identifier("a"), ast.IntConst("1"))
        expr.annotations = {"origin": ["parser"]}
        cloned = clone(expr)
        assert cloned.op == "+"
        assert cloned.annotations == expr.annotations
        assert cloned.annotations is not expr.annotations
        assert cloned.annotations["origin"] is not expr.annotations["origin"]


class TestPortsAndWires:
    def test_declared_names_and_unique_name(self):
        module = parse_module(MIXER_SOURCE)
        names = declared_names(module)
        assert "t1" in names and "clk" in names
        assert unique_name(module, "t1") != "t1"
        assert unique_name(module, "fresh") == "fresh"
