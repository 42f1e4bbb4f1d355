"""Process-wide plan cache: identity, sharing, invalidation, eviction."""

import random

import pytest

from repro.bench import load_benchmark, plus_network
from repro.locking import AssureLocker
from repro.rtlir import Design
from repro.sim import (
    BatchCompileError,
    cached_simulator,
    clear_plan_cache,
    get_plan,
    plan_cache_info,
)
from repro.sim import plan_cache


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


def _locked_md5(seed=0):
    design = load_benchmark("MD5", scale=0.15, seed=seed)
    budget = max(1, int(0.75 * design.num_operations()))
    return AssureLocker("serial", rng=random.Random(seed),
                        track_metrics=False).lock(design, budget).design


class TestFingerprint:
    def test_stable_and_memoized(self):
        design = _locked_md5()
        assert design.fingerprint() == design.fingerprint()

    def test_copies_share_fingerprint(self):
        design = _locked_md5()
        assert design.copy().fingerprint() == design.fingerprint()

    def test_different_designs_differ(self):
        assert _locked_md5(seed=0).fingerprint() != \
            _locked_md5(seed=1).fingerprint()

    def test_locking_mutation_changes_fingerprint(self):
        design = load_benchmark("FIR", scale=0.15, seed=0)
        before = design.fingerprint()
        locker = AssureLocker("serial", rng=random.Random(0),
                              track_metrics=False)
        locker.lock(design, key_budget=4, in_place=True)
        assert design.fingerprint() != before

    def test_key_metadata_does_not_affect_fingerprint(self):
        # The plan binds whatever key the caller passes; the recorded
        # correct values steer nothing in the netlist evaluation.
        design = _locked_md5()
        twin = design.copy()
        for bit in twin.key_bits:
            bit.correct_value = 1 - bit.correct_value
        assert twin.fingerprint() == design.fingerprint()

    def test_invalidate_fingerprint_recomputes(self):
        design = _locked_md5()
        before = design.fingerprint()
        design.invalidate_fingerprint()
        assert design.fingerprint() == before

    def test_lock_undo_relock_never_reuses_stale_fingerprint(self):
        # The memo token (key width, item count) returns to its prior value
        # across lock -> fingerprint -> undo -> lock-a-different-op, but the
        # netlist differs; LockingSession must invalidate explicitly.
        from repro.locking.base import LockingSession

        design = load_benchmark("FIR", scale=0.15, seed=0)
        session = LockingSession(design, rng=random.Random(0))
        candidates = session.all_ops()
        first = session.add_pair(candidates[0])
        locked_first = design.fingerprint()
        session.undo(first)
        session.add_pair(candidates[1])
        assert design.fingerprint() != locked_first


class TestTouch:
    SOURCE = """
    module editable (input [3:0] a, input [3:0] b, output [3:0] y);
      assign y = a + b;
    endmodule
    """

    def _design_and_op_node(self):
        from repro.verilog import ast_nodes as ast

        design = Design.from_verilog(self.SOURCE)
        (item,) = [i for i in design.top.items
                   if isinstance(i, ast.ContinuousAssign)]
        assert isinstance(item.rhs, ast.BinaryOp)
        return design, item.rhs

    def test_touch_invalidates_after_direct_ast_edit(self):
        design, node = self._design_and_op_node()
        before = design.fingerprint()
        node.op = "-"
        # Direct surgery leaves the cheap mutation token unchanged...
        assert design.fingerprint() == before
        # ...until the design is touched.
        assert design.touch() is design
        assert design.fingerprint() != before

    def test_stale_plan_cannot_be_served_after_touch(self):
        from repro.sim import cached_simulator

        design, node = self._design_and_op_node()
        plus = cached_simulator(design).run({"a": 7, "b": 2})
        assert plus["y"] == 9

        node.op = "-"
        design.touch()
        minus = cached_simulator(design).run({"a": 7, "b": 2})
        assert minus["y"] == 5, "stale '+' plan must not be served"
        # The scalar oracle agrees with the freshly compiled plan.
        from repro.sim import CombinationalSimulator
        assert CombinationalSimulator(design).run({"a": 7, "b": 2})["y"] == 5

    def test_touch_is_idempotent_on_unmutated_designs(self):
        design, _ = self._design_and_op_node()
        before = design.fingerprint()
        assert design.touch().fingerprint() == before
        assert get_plan(design) is get_plan(design.touch())


class TestPlanCache:
    def test_second_lookup_hits(self):
        design = _locked_md5()
        first = get_plan(design)
        second = get_plan(design)
        assert first is second
        info = plan_cache_info()
        assert info.hits == 1 and info.misses == 1 and info.size == 1

    def test_copies_share_one_compilation(self):
        design = _locked_md5()
        assert get_plan(design) is get_plan(design.copy())
        assert plan_cache_info().misses == 1

    def test_cached_simulator_matches_direct_simulation(self):
        design = _locked_md5()
        simulator = cached_simulator(design)
        assert simulator.plan is get_plan(design)
        batch = simulator.random_batch(random.Random(0), 4)
        from repro.sim import BatchSimulator
        direct = BatchSimulator(design)
        assert simulator.run_batch(batch, key=design.correct_key, n=4) == \
            direct.run_batch(batch, key=design.correct_key, n=4)

    def test_compile_failure_cached_negatively(self):
        design = Design.from_verilog("""
        module dynrep (input [3:0] a, input [1:0] n, output [7:0] y);
          assign y = {n{a}};
        endmodule
        """)
        with pytest.raises(BatchCompileError):
            get_plan(design)
        with pytest.raises(BatchCompileError):
            get_plan(design)
        info = plan_cache_info()
        assert info.misses == 1 and info.hits == 1

    def test_lru_eviction(self, monkeypatch):
        monkeypatch.setattr(plan_cache, "DEFAULT_CACHE_SIZE", 2)
        designs = [plus_network(4 + i, n_inputs=2, name=f"p{i}")
                   for i in range(3)]
        for design in designs:
            get_plan(design)
        assert plan_cache_info().size == 2
        # The oldest entry was evicted: looking it up again is a miss.
        before = plan_cache_info().misses
        get_plan(designs[0])
        assert plan_cache_info().misses == before + 1

    def test_consumers_share_the_cache(self):
        design = load_benchmark("FIR", scale=0.15, seed=0)
        budget = max(1, int(0.75 * design.num_operations()))
        locked = AssureLocker("serial", rng=random.Random(0),
                              track_metrics=False).lock(design, budget).design
        from repro.attacks.kpa import functional_kpa
        from repro.locking import key_bit_sensitivity
        from repro.sim import check_equivalence

        check_equivalence(design, locked, key=locked.correct_key, vectors=8,
                          rng=random.Random(1))
        misses_after_first = plan_cache_info().misses
        functional_kpa(locked, locked.correct_key, vectors=8,
                       rng=random.Random(2))
        key_bit_sensitivity(locked, vectors=8, rng=random.Random(3))
        info = plan_cache_info()
        # The locked design compiled once; later consumers only hit.
        assert info.misses == misses_after_first
        assert info.hits > 0
