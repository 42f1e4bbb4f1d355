"""Unit tests for ASSURE-style locking (baseline scheme)."""

import random

import pytest

from repro.api import make_locker
from repro.api.scenario import key_budget
from repro.bench import benchmark_names, load_benchmark
from repro.locking import AssureLocker, LockingSession
from repro.locking.assure import random_round_draws
from repro.locking.pairs import ORIGINAL_ASSURE_TABLE, SYMMETRIC_PAIR_TABLE
from repro.verilog import ast


class TestOperationLocking:
    def test_budget_respected_exactly(self, mixer_design, rng):
        result = AssureLocker("serial", rng=rng).lock(mixer_design, key_budget=4)
        assert result.bits_used == 4
        assert result.design.key_width == 4

    def test_budget_larger_than_design_locks_everything(self, mixer_design, rng):
        total = mixer_design.num_operations()
        result = AssureLocker("serial", rng=rng).lock(mixer_design, key_budget=999)
        assert result.bits_used == total

    def test_zero_budget(self, mixer_design, rng):
        result = AssureLocker("serial", rng=rng).lock(mixer_design, key_budget=0)
        assert result.bits_used == 0
        assert not result.design.is_locked

    def test_negative_budget_rejected(self, mixer_design, rng):
        with pytest.raises(ValueError):
            AssureLocker("serial", rng=rng).lock(mixer_design, key_budget=-1)

    def test_input_design_untouched_by_default(self, mixer_design, rng):
        before = mixer_design.to_verilog()
        AssureLocker("serial", rng=rng).lock(mixer_design, key_budget=3)
        assert mixer_design.to_verilog() == before

    def test_lock_returns_a_copy(self, mixer_design, rng):
        result = AssureLocker("serial", rng=rng).lock(mixer_design, key_budget=3)
        assert result.design is not mixer_design
        assert result.design.key_width == 3
        assert mixer_design.key_width == 0

    def test_dummy_operator_follows_pair_table(self, mixer_design, rng):
        result = AssureLocker("serial", rng=rng).lock(mixer_design, key_budget=6)
        from repro.locking.pairs import SYMMETRIC_PAIR_TABLE
        for bit in result.design.key_bits:
            assert bit.kind == "operation"
            assert bit.dummy_op is not None
            # With the symmetric table the dummy is always the pair partner.
            assert SYMMETRIC_PAIR_TABLE.dummy_of(bit.real_op) == bit.dummy_op

    def test_key_values_are_not_constant(self, plus_chain_design):
        result = AssureLocker("serial", rng=random.Random(3)).lock(
            plus_chain_design, key_budget=6)
        values = {bit.correct_value for bit in result.design.key_bits}
        assert values == {0, 1}

    def test_original_pair_table_supported(self, mixer_design, rng):
        locker = AssureLocker("serial", pair_table=ORIGINAL_ASSURE_TABLE, rng=rng)
        result = locker.lock(mixer_design, key_budget=5)
        for bit in result.design.key_bits:
            assert ORIGINAL_ASSURE_TABLE.dummy_of(bit.real_op) == bit.dummy_op

    def test_invalid_selection_mode(self):
        with pytest.raises(ValueError):
            AssureLocker("alphabetical")

    def test_algorithm_name_includes_selection(self, mixer_design, rng):
        result = AssureLocker("random", rng=rng).lock(mixer_design, 2)
        assert result.algorithm == "assure-random"


class TestSelectionStrategies:
    def test_serial_selection_is_deterministic_in_targets(self, plus_chain_design):
        first = AssureLocker("serial", rng=random.Random(0)).lock(
            plus_chain_design, key_budget=3)
        second = AssureLocker("serial", rng=random.Random(99)).lock(
            plus_chain_design, key_budget=3)
        # Key values differ (random), but the same operations are locked: the
        # generated ternaries sit in the same assignments.
        def locked_wires(design):
            wires = []
            for item in design.top.items:
                if isinstance(item, ast.NetDeclaration) and item.init is not None:
                    if isinstance(item.init, ast.TernaryOp):
                        wires.append(item.names[0])
            return wires

        assert locked_wires(first.design) == locked_wires(second.design)

    def test_serial_selection_follows_topological_order(self, plus_chain_design, rng):
        result = AssureLocker("serial", rng=rng).lock(plus_chain_design, key_budget=2)
        locked = [item.names[0] for item in result.design.top.items
                  if isinstance(item, ast.NetDeclaration)
                  and isinstance(item.init, ast.TernaryOp)]
        assert locked == ["s0", "s1"]

    def test_random_selection_varies_targets(self, plus_chain_design):
        def locked_wires(seed):
            result = AssureLocker("random", rng=random.Random(seed)).lock(
                plus_chain_design, key_budget=2)
            return tuple(item.names[0] for item in result.design.top.items
                         if isinstance(item, ast.NetDeclaration)
                         and isinstance(item.init, ast.TernaryOp))

        outcomes = {locked_wires(seed) for seed in range(12)}
        assert len(outcomes) > 1


class TestRelocking:
    def test_relock_appends_key_bits(self, mixer_design, rng):
        first = AssureLocker("serial", rng=rng).lock(mixer_design, key_budget=3)
        second = AssureLocker("random", rng=random.Random(5)).lock(
            first.design, key_budget=4)
        assert second.design.key_width == 7
        assert [b.index for b in second.design.key_bits] == list(range(7))
        # The original target is untouched.
        assert first.design.key_width == 3

    def test_relock_creates_nested_ternaries(self, plus_chain_design):
        first = AssureLocker("serial", rng=random.Random(0)).lock(
            plus_chain_design, key_budget=6)
        second = AssureLocker("random", rng=random.Random(1)).lock(
            first.design, key_budget=6)
        text = second.design.to_verilog()
        # At least one branch of an existing ternary now holds another ternary.
        nested = [node for node in second.design.top.iter_tree()
                  if isinstance(node, ast.TernaryOp)
                  and (isinstance(node.true_value, ast.TernaryOp)
                       or isinstance(node.false_value, ast.TernaryOp))]
        assert nested
        assert text.count("?") == 12

    @pytest.mark.parametrize("selection", ["serial", "random"])
    def test_session_relock_matches_lock(self, mixer_design, selection):
        first = AssureLocker("serial", rng=random.Random(0)).lock(
            mixer_design, key_budget=3)
        expected = AssureLocker(selection, rng=random.Random(4)).lock(
            first.design, key_budget=4).design
        session = LockingSession(first.design.copy())
        actions = AssureLocker(selection, rng=random.Random(4)).relock(
            session, key_budget=4)
        assert len(actions) == 4
        assert actions == session.actions
        assert session.design.to_verilog() == expected.to_verilog()
        assert session.design.correct_key == expected.correct_key

    def test_session_relock_rejects_negative_budget(self, mixer_design, rng):
        session = LockingSession(mixer_design)
        with pytest.raises(ValueError):
            AssureLocker("random", rng=rng).relock(session, key_budget=-1)


#: The draw checks lock every benchmark at DRAW_SCALE with a DRAW_FRACTION
#: budget, once per seed of DRAW_SEEDS.
DRAW_SCALE, DRAW_FRACTION, DRAW_SEEDS = 0.1, 0.75, (0, 1, 2)


def _draw_cases(name, algorithm):
    """``(seed, design, budget, locked result)`` per seed of DRAW_SEEDS."""
    for seed in DRAW_SEEDS:
        design = load_benchmark(name, scale=DRAW_SCALE, seed=seed)
        budget = key_budget(DRAW_FRACTION, name, algorithm,
                            design.num_operations())
        result = make_locker(algorithm, random.Random(seed)).lock(design,
                                                                  budget)
        yield seed, design, budget, result


def _bits(design):
    return [(bit.real_op, bit.dummy_op, bit.correct_value)
            for bit in design.key_bits]


class TestRoundDraws:
    """Each ASSURE selection draws its round in one documented order."""

    @pytest.mark.parametrize("name", benchmark_names())
    def test_random_lock_locks_its_round_draws(self, name):
        for seed, design, budget, result in _draw_cases(name, "assure-random"):
            candidates = [site.op for site in design.sites()
                          if not site.key_controlled
                          and SYMMETRIC_PAIR_TABLE.has_pair(site.op)]
            draws = random_round_draws(random.Random(seed), len(candidates),
                                       budget)
            assert _bits(result.design) == [
                (candidates[position],
                 SYMMETRIC_PAIR_TABLE.dummy_of(candidates[position]), value)
                for position, value in draws], (name, seed)
            # The same draws applied by hand lock the same netlist.
            replay = design.copy()
            session = LockingSession(replay)
            refs = [ref for ref in session.all_ops()
                    if SYMMETRIC_PAIR_TABLE.has_pair(ref.op)]
            for position, value in draws:
                session.add_pair(refs[position], correct_value=value)
            assert result.design.to_verilog() == replay.to_verilog(), \
                (name, seed)

    @pytest.mark.parametrize("name", benchmark_names())
    def test_serial_lock_draws_one_key_value_per_lock(self, name):
        for seed, design, budget, result in _draw_cases(name, "assure"):
            candidates = sum(1 for site in design.sites()
                             if not site.key_controlled
                             and SYMMETRIC_PAIR_TABLE.has_pair(site.op))
            replay = random.Random(seed)
            assert result.bits_used == min(budget, candidates)
            assert ([value for _, _, value in _bits(result.design)]
                    == [replay.randint(0, 1)
                        for _ in range(result.bits_used)]), (name, seed)


class TestMetricsTracking:
    def test_tracker_present_by_default(self, mixer_design, rng):
        result = AssureLocker("serial", rng=rng).lock(mixer_design, key_budget=3)
        assert result.tracker is not None
        assert len(result.tracker.points) == 3

    def test_tracker_disabled(self, mixer_design, rng):
        result = AssureLocker("serial", rng=rng, track_metrics=False).lock(
            mixer_design, key_budget=3)
        assert result.tracker is None

    def test_summary_mentions_algorithm(self, mixer_design, rng):
        result = AssureLocker("serial", rng=rng).lock(mixer_design, key_budget=3)
        assert "assure-serial" in result.summary()
