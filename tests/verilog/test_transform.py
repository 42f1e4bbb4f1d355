"""Unit tests for the structural transformation helpers."""

from repro.verilog.parser import parse_module
from repro.verilog.transform import clone, declared_names, unique_name

from ..conftest import MIXER_SOURCE


class TestClone:
    def test_clone_is_deep(self):
        module = parse_module(MIXER_SOURCE)
        copy = clone(module)
        assert copy is not module
        copy.items[0].names[0] = "renamed"
        assert module.items[0].names[0] != "renamed"


class TestPortsAndWires:
    def test_declared_names_and_unique_name(self):
        module = parse_module(MIXER_SOURCE)
        names = declared_names(module)
        assert "t1" in names and "clk" in names
        assert unique_name(module, "t1") != "t1"
        assert unique_name(module, "fresh") == "fresh"
