"""The assignment order both engines evaluate in, against a reference sort.

``_ordered_assignments`` orders a module's combinational assignments by
their dependencies; the plan compiler and the scalar engine both evaluate
in that order.  It walks each expression once and tests membership against
the pending set.  The reference below is the round-robin sort it replaced,
which re-walked every pending expression in every round: a round visits
the pending assignments in declaration order and emits each one none of
whose reads (itself excluded) is still pending.  The two must agree on the
order and on the cycle error, on every benchmark locked by every locker
(as declared and with its items shuffled, so that most assignments wait
for later ones) and on hand-written modules held as data.
"""

import random

import pytest

from repro.api.registry import LOCKERS, locker_names, make_locker
from repro.bench import benchmark_names, load_benchmark
from repro.rtlir import Design
from repro.sim import CombinationalSimulator, SimulationError, compile_plan
from repro.sim.plan.steps import _ordered_assignments, _target_name
from repro.verilog import ast_nodes as ast

from ..api.test_registry_contracts import packaged


def round_robin_order(module: ast.Module):
    """The reference sort: one pass over the pending assignments per round,
    re-walking each pending expression on every visit."""
    assignments = {}
    for item in module.items:
        if isinstance(item, ast.NetDeclaration) and item.init is not None:
            assignments[item.names[0]] = item.init
        elif isinstance(item, ast.ContinuousAssign):
            target = _target_name(item.lhs)
            if target is not None:
                assignments[target] = item.rhs

    order = []
    pending = dict(assignments)
    while pending:
        progressed = False
        for name in list(pending):
            deps = {ident.name for ident in pending[name].iter_tree()
                    if isinstance(ident, ast.Identifier)}
            unresolved = deps & set(pending) - {name}
            if not unresolved:
                order.append((name, pending.pop(name)))
                progressed = True
        if not progressed:
            raise SimulationError(
                "combinational dependency cycle involving: "
                + ", ".join(sorted(pending)))
    return order


#: Hand-written modules: (id, Verilog, the names in the order they must
#: come out, or None when the module has a cycle).
MODULES = [
    ("declared-in-order", """
     module m (input [3:0] a, output [3:0] y);
       wire [3:0] s0 = a + 1;
       wire [3:0] s1 = s0 ^ 3;
       assign y = s1;
     endmodule""", ["s0", "s1", "y"]),
    ("reverse-chain", """
     module m (input [3:0] a, output [3:0] y);
       wire [3:0] s0, s1, s2;
       assign y = s2;
       assign s2 = s1 & 7;
       assign s1 = s0 ^ 3;
       assign s0 = a + 1;
     endmodule""", ["s0", "s1", "s2", "y"]),
    ("diamond-out-of-order", """
     module m (input [3:0] a, input [3:0] b, output [3:0] y, output [3:0] z);
       wire [3:0] l, r, top;
       assign y = l + r;
       assign l = top & a;
       assign z = r;
       assign r = top | b;
       assign top = a ^ b;
     endmodule""", ["top", "l", "r", "y", "z"]),
    ("ready-in-the-round-its-read-is-emitted", """
     module m (input [3:0] a, output [3:0] y);
       wire [3:0] b, c, d, e;
       assign d = e;
       assign b = a;
       assign c = b;
       assign e = a + 1;
       assign y = c ^ d;
     endmodule""", ["b", "c", "e", "d", "y"]),
    ("reads-itself", """
     module m (input [3:0] a, output [3:0] y);
       wire [3:0] s;
       assign y = s ^ y;
       assign s = a + 1;
     endmodule""", ["s", "y"]),
    ("live-cycle", """
     module m (input [3:0] a, output [3:0] y, output [3:0] z);
       wire [3:0] p, q;
       assign z = a + 1;
       assign p = q + a;
       assign q = p ^ 1;
       assign y = q;
     endmodule""", None),
    ("dead-cycle", """
     module m (input [3:0] a, output [3:0] y);
       wire [3:0] p, q, r;
       assign r = p & q;
       assign p = q + a;
       assign q = p ^ 1;
       assign y = a;
     endmodule""", None),
]


def check_order(module: ast.Module, label: str) -> None:
    """Order and cycle error equal the reference sort's."""
    try:
        expected = round_robin_order(module)
    except SimulationError as error:
        with pytest.raises(SimulationError) as excinfo:
            _ordered_assignments(module)
        assert str(excinfo.value) == str(error), label
        return
    order, reads = _ordered_assignments(module)
    assert [name for name, _ in order] == [name for name, _ in expected], \
        label
    assert all(mine is theirs for (_, mine), (_, theirs)
               in zip(order, expected)), label
    assert set(reads) == {name for name, _ in order}, label


@pytest.mark.parametrize("source,names", [case[1:] for case in MODULES],
                         ids=[case[0] for case in MODULES])
def test_hand_written_module_order(source, names):
    design = Design.from_verilog(source)
    check_order(design.top, "hand-written module")
    if names is None:
        with pytest.raises(SimulationError):
            round_robin_order(design.top)
        # Both engines refuse it, with the sort's message.
        for build in (compile_plan, CombinationalSimulator):
            with pytest.raises(SimulationError,
                               match="combinational dependency cycle"):
                build(design)
    else:
        order, _ = _ordered_assignments(design.top)
        assert [name for name, _ in order] == names


LOCKER_NAMES = packaged(LOCKERS, locker_names())
CASES = [(name, locker) for name in benchmark_names()
         for locker in LOCKER_NAMES]


# ``benchmark`` would clash with the pytest-benchmark fixture name.
@pytest.mark.parametrize("design_name,locker", CASES,
                         ids=[f"{name}-{locker}" for name, locker in CASES])
def test_locked_benchmark_order(design_name, locker):
    design = load_benchmark(design_name, scale=0.1, seed=0)
    budget = max(1, design.num_operations() // 2)
    locked = make_locker(locker, random.Random(0)).lock(design,
                                                        budget).design
    label = f"{design_name} locked by {locker!r}"
    check_order(locked.top, label)
    shuffled = locked.copy()
    random.Random(1).shuffle(shuffled.top.items)
    check_order(shuffled.top, f"{label}, items shuffled")
