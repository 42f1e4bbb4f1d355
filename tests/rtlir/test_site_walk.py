"""The one-walk site collector against the per-operand reference rule.

``collect_sites`` learns whether a site's operands read a key, and whether
a ternary's condition does, from the one walk that collects the sites.
The rule before it scanned both operands of every lockable operation, and
the condition of every ternary, again.  ``reference_collect_sites`` keeps
that rule.  Both must give every site the same index, operator, depth and
flags, on hand-written cases that put a key read where the walk does not
descend, and on every benchmark locked by every registered locker.
"""

import random

import pytest

from repro.api.registry import locker_names, make_locker
from repro.bench import benchmark_names, load_benchmark
from repro.rtlir.sites import (OperationSite, SiteCollection, _SiteCollector,
                               collect_sites)
from repro.rtlir.operations import is_lockable, normalize_operator
from repro.verilog import ast_nodes as ast
from repro.verilog.parser import parse_module

#: Node types the reference walk does not enter.
_EXCLUDED_CONTEXTS = (ast.Range, ast.ParamDeclaration, ast.SensitivityItem)


def reads_key(expr: ast.Node, key_names) -> bool:
    """The reference scan: any identifier of the subtree names a key."""
    return any(isinstance(node, ast.Identifier) and node.name in key_names
               for node in expr.iter_tree())


class ReferenceCollector(_SiteCollector):
    """The site walk that scans each site's operands for a key again."""

    def _walk(self, expr, parent, container, depth, locked):
        if isinstance(expr, _EXCLUDED_CONTEXTS):
            return
        walk = self._walk
        if isinstance(expr, ast.BinaryOp):
            op = normalize_operator(expr.op)
            if is_lockable(op):
                self.sites.append(OperationSite(
                    node=expr, op=op, index=len(self.sites), parent=parent,
                    container=container, depth=depth, in_locked_branch=locked,
                    key_controlled=(reads_key(expr.left, self._key_names)
                                    or reads_key(expr.right,
                                                 self._key_names))))
            walk(expr.left, expr, container, depth + 1, locked)
            walk(expr.right, expr, container, depth + 1, locked)
        elif isinstance(expr, ast.TernaryOp):
            branch = locked or reads_key(expr.cond, self._key_names)
            walk(expr.cond, expr, container, depth + 1, locked)
            walk(expr.true_value, expr, container, depth + 1, branch)
            walk(expr.false_value, expr, container, depth + 1, branch)
        elif isinstance(expr, ast.UnaryOp):
            walk(expr.operand, expr, container, depth + 1, locked)
        elif isinstance(expr, (ast.Concat, ast.FunctionCall)):
            for part in (expr.parts if isinstance(expr, ast.Concat)
                         else expr.args):
                walk(part, expr, container, depth + 1, locked)
        elif isinstance(expr, ast.Replication):
            walk(expr.value, expr, container, depth + 1, locked)
        elif isinstance(expr, ast.BitSelect):
            walk(expr.index, expr, container, depth + 1, locked)
        elif isinstance(expr, ast.IndexedPartSelect):
            walk(expr.base, expr, container, depth + 1, locked)


def reference_collect_sites(module: ast.Module, key_names) -> SiteCollection:
    collector = ReferenceCollector(set(key_names))
    for item in module.items:
        collector.collect_item(item)
    return SiteCollection(collector.sites)


def site_rows(sites: SiteCollection):
    return [(site.index, site.op, site.depth, site.in_locked_branch,
             site.key_controlled) for site in sites]


HEADER = ("module m (input clk, input [7:0] a, input [7:0] b, input [7:0] c, "
          "input [2:0] i, input [3:0] k, output [7:0] y, "
          "output reg [7:0] r);\n")

#: ``name: module body`` with key port ``k`` read where the walk does not
#: descend, or read by a ternary's condition, or read deep in an operand.
CASES = {
    "bit-select-target": "assign y = a + k[i];",
    "part-select": "assign y = a + k[3:0];",
    "replication-count": "assign y = a + {k{b}};",
    "indexed-part-select-target": "assign y = a + k[i +: 2];",
    "indexed-part-select-width": "assign y = a + b[i +: k];",
    "bit-select-index": "assign y = a + b[k[1:0] + 1];",
    "key-ternary-in-condition":
        "assign y = ((k[0] ? a : b) > c) ? a + b : a - b;",
    "key-ternary-in-if-condition":
        "always @(posedge clk) if ((k[0] ? a : b) > c) r <= a * b; "
        "else r <= (k[1] ? a ^ b : a ~^ b) + c; assign y = a;",
    "key-read-three-levels-down": "assign y = a + (b * (c - (a ^ k[0])));",
    "nested-locked-pairs":
        "assign y = k[0] ? (k[1] ? a + b : a & b) : a - (c | k[2]);",
}


def case_module(name: str) -> ast.Module:
    if name == "range":
        # No parser path puts a range in an expression; a hand-built one
        # stands for the excluded contexts the walk does not enter.
        module = parse_module(HEADER + "assign y = a + b; endmodule")
        module.items[-1].rhs.right = ast.Range(ast.Identifier("k"),
                                               ast.IntConst("0"))
        return module
    return parse_module(HEADER + CASES[name] + " endmodule")


@pytest.mark.parametrize("name", sorted(CASES) + ["range"])
def test_hand_written_case_matches_reference(name):
    module = case_module(name)
    rows = site_rows(collect_sites(module, {"k"}))
    assert rows == site_rows(reference_collect_sites(module, {"k"}))
    # Every case flags a site, so no case passes by reading no key at all.
    assert any(locked or controlled
               for _, _, _, locked, controlled in rows), rows


#: ``(benchmark, locker)``: every benchmark locked by every registered locker.
LOCKED_CASES = [(name, locker) for name in benchmark_names()
                for locker in locker_names()]


# ``benchmark`` would clash with the pytest-benchmark fixture name.
@pytest.mark.parametrize("design_name,locker", LOCKED_CASES,
                         ids=[f"{name}-{locker}"
                              for name, locker in LOCKED_CASES])
def test_locked_benchmark_matches_reference(design_name, locker):
    design = load_benchmark(design_name, scale=0.1, seed=1)
    budget = max(1, design.num_operations() // 2)
    locked = make_locker(locker, random.Random(1)).lock(design, budget).design
    for source in (design, locked):
        rows = site_rows(source.sites())
        assert rows == site_rows(reference_collect_sites(
            source.top, source.key_names())), (design_name, locker)
    assert any(locked_branch for _, _, _, locked_branch, _
               in site_rows(locked.sites()))
