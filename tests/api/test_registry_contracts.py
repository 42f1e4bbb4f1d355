"""Registry contracts that sharing one locked cell between jobs rests on.

The runner locks each (design, locker, seed, key budget) cell once per
process and hands the same locked design to every attack and metric job of
that cell.  That is only sound when

* locking is a pure function of its seed: the same seed gives the same
  netlist and the same key,
* locking leaves its input design untouched (the base design is shared
  too),
* no attack and no metric mutates the locked design it is given, and
* an attack is a pure function of its seed: the same seed gives the same
  predicted key, KPA, model and functional KPA (records, resume and the
  server's dedup by scenario fingerprint all rest on this).

What a record says about the key is read off the result, not trusted:

* a lock reports as ``new_key_bits`` exactly the last ``bits_used`` key
  bits of its locked design, and
* an attack's ``correct_key`` is the locked design's key, its ``kpa`` and
  ``per_bit_correct`` are those of its predicted key against it, and the
  ``result`` block of the job record holds the attack result's fields, in
  their declared order.

Two more contracts make a locked design worth attacking at all:

* a wrong key corrupts the outputs, and
* one attack relock round keeps the design transparent under its full
  correct key, leaves the design it copied alone, and its new key bits
  read exactly the rows that replaying the round's draws over the
  target's candidate operations gives, the exactness the type-level
  training set of ``TrainingSetBuilder.build`` rests on; this holds on
  generated designs and on every benchmark locked by every locker.

And every benchmark locked by every locker simulates the same on the
compiled bit-parallel plan as on the scalar AST oracle, which shares no
code with plans, under the correct key and under a wrong key.  Its plan
holds only live steps, and it pruned exactly the assignments no output
reads, counted here from the design without the plan compiler.

Tiled sweeps of every benchmark locked by every locker, which drop each
value after its last reader, equal per-point ``run_batch``; no step drops a
value a later step reads or the caller keeps.

Locking every benchmark with every locker is a function of the seed and
leaves the benchmark alone, the same contract the runner's shared cells
rest on, and wrong keys corrupt every locked benchmark.  What ``lock``
writes for every locked benchmark, Verilog plus key metadata, reads back
the way ``attack`` reads it as the design locking made.

Every locked design is a tree (no AST node reachable twice), which is what
lets :meth:`Design.copy` clone it structurally: the copy renders and
fingerprints the same, shares no node, list, key bit or metadata dict with
the original, and locking it in place leaves the original alone.

Every packaged metric declares bounds for exactly the numeric fields it
returns, and on every benchmark locked by every locker each number lies
inside them; a metric registered without bounds fails.

Every benchmark locked by every packaged locker built on
:class:`~repro.locking.AssureLocker` has no key bit whose locality reads the
same operation code in both branches (C1 = C2): ASSURE pairs each operation
with a dummy of another type.  HRA has such bits, where a later step locks
an earlier dummy, so the contract is one of ASSURE's selection.

The cases are data drawn from the live registries, run through one helper
per contract, so no plugin of the package can register without passing
them.
"""

import dataclasses
import functools
import itertools
import random
from unittest import mock

import pytest

from repro.api import runner
from repro.api.registry import (ATTACKS, LOCKERS, METRICS, attack_names,
                                locker_names, make_attack, make_locker,
                                make_metric, metric_names, register_metric)
from repro.api.scenario import AttackSpec, JobSpec, LockerSpec, key_budget
from repro.attacks import kpa
from repro.attacks.baselines import RandomGuessAttack
from repro.attacks.locality import LocalityExtractor, operation_code
from repro.bench import benchmark_names, load_benchmark
from repro.bench.generators import profile_design
from repro.bench.profiles import BenchmarkProfile
from repro.cli import _design_from_key_metadata, main
from repro.locking import AssureLocker
from repro.locking.assure import random_round_draws
from repro.locking.base import LockingSession
from repro.locking.metrics import functional_corruption
from repro.rtlir import Design
from repro.sim import (BatchSimulator, CombinationalSimulator,
                       batch_to_vectors, differing_lanes, input_signals,
                       plan_lane_bits, random_input_batch, random_wrong_key)
from repro.sim.plan import compile_plan, executor
from repro.sim.plan.executor import batch_release
from repro.verilog import ast_nodes as ast
from tests.helpers import check_equivalence

from ..conftest import MIXER_SOURCE

#: Key budget of every lock (the mixer design has 8 operations).
BUDGET = 4

#: Tiny settings for every attack; factories ignore options they lack.
ATTACK_OPTIONS = {"rounds": 2, "time_budget": 1.0, "feature_set": "pair",
                  "functional_vectors": 8}

#: Tiny settings for every metric; metrics ignore options they lack.
METRIC_OPTIONS = {"vectors": 8, "wrong_keys": 2}


def packaged(registry, names):
    """The names the ``repro`` package registers.

    Other test modules register test doubles (a metric that kills its
    worker, one that sleeps) at import time; they are not plugins.
    """
    return [name for name in names
            if registry.get(name).__module__.startswith("repro.")]


#: ``(kind, name, locker)``: each locker alone, and each attack and metric
#: against a design locked by each locker.
LOCKER_NAMES = packaged(LOCKERS, locker_names())
CASES = ([("locker", name, name) for name in LOCKER_NAMES]
         + [(kind, name, locker)
            for kind, names in (("metric", packaged(METRICS, metric_names())),
                                ("attack", packaged(ATTACKS, attack_names())))
            for name in names for locker in LOCKER_NAMES])


def state(design: Design):
    """Everything a shared design must keep: netlist, key width, key bits."""
    design.invalidate_fingerprint()
    return (design.fingerprint(), design.key_width,
            [dataclasses.asdict(bit) for bit in design.key_bits])


def lock(algorithm: str, design: Design, seed: int = 5):
    return make_locker(algorithm, random.Random(seed)).lock(design, BUDGET)


def check_contract(kind: str, name: str, locker: str) -> None:
    """Run one case and assert that the designs it shares are unchanged."""
    base = Design.from_verilog(MIXER_SOURCE, name="mixer")
    base_state = state(base)
    locked = lock(locker, base)
    assert state(base) == base_state, "locking mutated its input design"
    if kind == "locker":
        again = lock(locker, base)
        assert state(again.design) == state(locked.design), \
            "the same seed gave a different locked design or key"
        assert again.design.correct_key == locked.design.correct_key
        key_bits = locked.design.key_bits
        assert locked.bits_used == len(locked.new_key_bits)
        assert locked.new_key_bits == key_bits[len(key_bits)
                                               - locked.bits_used:], \
            f"locker {name!r} reports key bits its design does not end with"
        return
    locked_state = state(locked.design)
    if kind == "metric":
        make_metric(name)(locked.design, rng=random.Random(7),
                          **METRIC_OPTIONS)
    else:
        first, second = (
            make_attack(name, random.Random(7), **ATTACK_OPTIONS)
            .attack(locked.design, algorithm=locker) for _ in range(2))
        assert len(first.predicted_key) == locked.design.key_width
        assert 0 <= first.kpa <= 100
        assert ((first.predicted_key, first.kpa, first.model_name,
                 first.functional_kpa)
                == (second.predicted_key, second.kpa, second.model_name,
                    second.functional_kpa)), \
            f"attack {name!r} gave two results for one seed"
        correct = locked.design.correct_key
        assert first.correct_key == correct
        assert first.kpa == kpa(first.predicted_key, correct)
        assert first.per_bit_correct == [
            p == c for p, c in zip(first.predicted_key, correct)]
        check_record(name, locker, base, locked)
    assert state(locked.design) == locked_state, \
        f"{kind} {name!r} mutated the locked design"


def check_record(name: str, locker: str, base: Design, locked) -> None:
    """The job record's ``result`` block is the attack result's fields."""
    spec = AttackSpec(name, rounds=ATTACK_OPTIONS["rounds"],
                      time_budget=ATTACK_OPTIONS["time_budget"],
                      functional_vectors=ATTACK_OPTIONS["functional_vectors"])
    job = JobSpec(kind="attack", benchmark=base.name,
                  locker=LockerSpec(locker), sample=0, seed=5, scale=1.0,
                  attack=spec)
    with mock.patch.object(runner, "_load_base_design",
                           return_value=(base, base.num_operations())), \
            mock.patch.object(runner, "_lock_cell", return_value=locked):
        record = runner.execute_job(job)
    result = make_attack(name, random.Random(job.attack_seed),
                         **ATTACK_OPTIONS).attack(locked.design,
                                                  algorithm=locker)
    fields = {field.name: getattr(result, field.name)
              for field in dataclasses.fields(result)}
    assert list(record["result"]) == list(fields)
    assert record["result"] == fields, \
        f"the record of attack {name!r} differs from its result"


@pytest.mark.parametrize("kind,name,locker", CASES,
                         ids=[f"{kind}-{name}-{locker}"
                              for kind, name, locker in CASES])
def test_registered_component_keeps_shared_designs(kind, name, locker):
    check_contract(kind, name, locker)


def _flip_key_bit(design: Design) -> None:
    design.key_bits[0].correct_value ^= 1


def _swap_operator(design: Design) -> None:
    # In-place AST surgery that leaves the fingerprint's memo token alone.
    site = design.sites()[0]
    site.node.op = "-" if site.node.op != "-" else "+"


@pytest.mark.parametrize("mutate", [_flip_key_bit, _swap_operator])
def test_a_mutating_plugin_is_caught(mutate):
    @METRICS.register("test-mutating-metric")
    def mutating_metric(design, **_):
        mutate(design)
        return {}

    try:
        with pytest.raises(AssertionError, match="mutated the locked"):
            check_contract("metric", "test-mutating-metric", "assure")
    finally:
        METRICS.unregister("test-mutating-metric")


def test_an_attack_that_is_not_a_function_of_its_seed_is_caught():
    runs = itertools.count()

    @ATTACKS.register("test-impure-attack")
    def impure_attack(rng, **_):
        # Same seed, but the result also depends on process state.
        attack = RandomGuessAttack(rng)
        attack.name = f"guess-{next(runs)}"
        return attack

    try:
        with pytest.raises(AssertionError, match="two results for one seed"):
            check_contract("attack", "test-impure-attack", "assure")
    finally:
        ATTACKS.unregister("test-impure-attack")


#: The combinational design of the locking contracts.  The mixer cannot
#: host them: its output is registered, and the simulator ignores
#: registered outputs, so a locker that puts every key bit in the always
#: block shows no corruption at all.
LOCKING_PROFILE = BenchmarkProfile(
    name="contract", description="combinational locking-contract design",
    operations={"+": 3, "-": 2, "*": 2, "^": 2, "&": 1, "|": 1},
    sequential=False, n_inputs=4, width=8)

#: ``(locker, seed)``: every packaged locker on three generated designs.
LOCKING_CASES = [(locker, seed) for locker in LOCKER_NAMES
                 for seed in (0, 1, 2)]


def check_locking_contract(locker: str, seed: int) -> None:
    """Wrong keys corrupt; a relock round is transparent and replays."""
    design = profile_design(LOCKING_PROFILE, seed=seed)
    budget = design.num_operations() // 2
    locked = make_locker(locker, random.Random(seed)).lock(design, budget)
    corruption = functional_corruption(locked.design, wrong_keys=8,
                                       rng=random.Random(seed))
    assert corruption.mean_corruption > 0, \
        f"wrong keys of {locker!r} never corrupt the outputs"
    check_relock_round(design, locked.design, budget, seed,
                       f"a {locker!r} design")


def check_relock_round(design: Design, locked: Design, budget: int,
                       seed: int, label: str) -> None:
    """Relock a session over a copy of ``locked``: transparent, replayable.

    ``design`` is the unlocked original ``locked`` was made from.  The
    round's new key bits, read back with ``extract_matrix``, must be the
    rows that ``random_round_draws`` with the round's rng gives over the
    codes of the target's candidate operations.
    """
    target = state(locked)
    session = LockingSession(locked.copy())
    table = session.pair_table
    codes = [[operation_code(ref.op), operation_code(table.dummy_of(ref.op))]
             for ref in session.all_ops() if table.has_pair(ref.op)]
    actions = AssureLocker(selection="random", rng=random.Random(seed + 1),
                           track_metrics=False).relock(session,
                                                       key_budget=budget)
    relocked = session.design
    assert relocked.key_width > locked.key_width
    assert state(locked) == target, f"relocking a copy of {label} changed it"
    report = check_equivalence(design, relocked, key=relocked.correct_key,
                               vectors=16, rng=random.Random(seed))
    assert report.equivalent, \
        f"relocking {label} broke it: {report.first_mismatch}"
    draws = random_round_draws(random.Random(seed + 1), len(codes), budget)
    features, labels = LocalityExtractor().extract_matrix(
        relocked, range(locked.key_width, relocked.key_width))
    assert len(actions) == len(draws)
    assert labels.tolist() == [value for _, value in draws], \
        f"relocking {label}: key values differ from the replayed draws"
    assert features.tolist() == [
        codes[position] if value else codes[position][::-1]
        for position, value in draws], \
        f"relocking {label}: localities differ from the replayed draws"


@pytest.mark.parametrize("locker,seed", LOCKING_CASES,
                         ids=[f"{locker}-{seed}"
                              for locker, seed in LOCKING_CASES])
def test_registered_locker_corrupts_and_survives_relocking(locker, seed):
    check_locking_contract(locker, seed)


#: ``(benchmark, locker)``: every benchmark locked by every packaged locker.
SIMULATION_CASES = [(name, locker) for name in benchmark_names()
                    for locker in LOCKER_NAMES]

#: Input vectors of each plan-vs-oracle comparison.
SIMULATION_VECTORS = 8


def check_plan_matches_oracle(benchmark: str, locker: str) -> None:
    """Plan outputs equal the scalar oracle's, right key and wrong key."""
    design = load_benchmark(benchmark, scale=0.1, seed=0)
    budget = max(1, design.num_operations() // 2)
    locked = make_locker(locker, random.Random(0)).lock(design,
                                                        budget).design
    wrong = [1 - bit for bit in locked.correct_key]
    batch = random_input_batch(locked, random.Random(1), SIMULATION_VECTORS)
    vectors = batch_to_vectors(batch, SIMULATION_VECTORS)
    plan, oracle = BatchSimulator(locked), CombinationalSimulator(locked)
    for key in (locked.correct_key, wrong):
        outputs = plan.run_batch(batch, key=key, n=SIMULATION_VECTORS)
        expected = [oracle.run(vector, key=key) for vector in vectors]
        assert [{name: values[lane] for name, values in outputs.items()}
                for lane in range(SIMULATION_VECTORS)] == expected, \
            f"{benchmark} locked by {locker!r}: plan and oracle disagree"


# ``benchmark`` would clash with the pytest-benchmark fixture name.
@pytest.mark.parametrize("design_name,locker", SIMULATION_CASES,
                         ids=[f"{name}-{locker}"
                              for name, locker in SIMULATION_CASES])
def test_locked_benchmark_plan_matches_scalar_oracle(design_name, locker):
    check_plan_matches_oracle(design_name, locker)


def dead_assignments(design: Design) -> int:
    """Assignments of ``design`` no output port transitively reads."""
    reads = {}
    for item in design.top.items:
        if isinstance(item, ast.NetDeclaration) and item.init is not None:
            target, expr = item.names[0], item.init
        elif isinstance(item, ast.ContinuousAssign) \
                and isinstance(item.lhs, ast.Identifier):
            target, expr = item.lhs.name, item.rhs
        else:
            continue
        reads[target] = {node.name for node in expr.iter_tree()
                         if isinstance(node, ast.Identifier)}
    live = set()
    frontier = [port.name for port in design.top.ports
                if port.direction == "output"]
    while frontier:
        name = frontier.pop()
        if name not in live:
            live.add(name)
            frontier.extend(reads.get(name, ()))
    return len(set(reads) - live)


def check_plan_is_live(benchmark: str, locker: str) -> None:
    """Every plan step is an output or read by a later step, and the plan
    pruned exactly the design's dead assignments."""
    design = load_benchmark(benchmark, scale=0.1, seed=0)
    budget = max(1, design.num_operations() // 2)
    locked = make_locker(locker, random.Random(0)).lock(design,
                                                        budget).design
    plan = compile_plan(locked)
    label = f"{benchmark} locked by {locker!r}"
    live = set(plan.outputs)
    for step in reversed(plan.steps):
        assert step.target in live, \
            f"{label}: no output reads step {step.target!r}"
        live.update(step.reads)
    assert plan.stats.pruned_steps == dead_assignments(locked), label


@pytest.mark.parametrize("design_name,locker", SIMULATION_CASES,
                         ids=[f"{name}-{locker}"
                              for name, locker in SIMULATION_CASES])
def test_locked_benchmark_plan_holds_only_live_steps(design_name, locker):
    check_plan_is_live(design_name, locker)


def check_benchmark_relock(benchmark: str, locker: str) -> None:
    """A relock round of a locked benchmark is transparent and replays."""
    design = load_benchmark(benchmark, scale=0.1, seed=0)
    budget = max(1, design.num_operations() // 2)
    locked = make_locker(locker, random.Random(0)).lock(design,
                                                        budget).design
    check_relock_round(design, locked, budget, seed=0,
                       label=f"{benchmark} locked by {locker!r}")


@pytest.mark.parametrize("design_name,locker", SIMULATION_CASES,
                         ids=[f"{name}-{locker}"
                              for name, locker in SIMULATION_CASES])
def test_locked_benchmark_survives_relocking(design_name, locker):
    check_benchmark_relock(design_name, locker)


def check_benchmark_lock(benchmark: str, locker: str) -> None:
    """Locking a benchmark is a function of its seed, leaves the benchmark
    alone, and wrong keys corrupt the locked benchmark's outputs."""
    design = load_benchmark(benchmark, scale=0.1, seed=0)
    budget = max(1, design.num_operations() // 2)
    design_state = state(design)
    first, second = (make_locker(locker, random.Random(0)).lock(design,
                                                                budget).design
                     for _ in range(2))
    label = f"{benchmark} locked by {locker!r}"
    assert state(design) == design_state, f"{label}: locking mutated it"
    assert state(first) == state(second), \
        f"{label}: the same seed gave a different locked design or key"
    corruption = functional_corruption(first, wrong_keys=8,
                                       rng=random.Random(0))
    assert corruption.mean_corruption > 0, \
        f"{label}: wrong keys never corrupt the outputs"


@pytest.mark.parametrize("design_name,locker", SIMULATION_CASES,
                         ids=[f"{name}-{locker}"
                              for name, locker in SIMULATION_CASES])
def test_locked_benchmark_is_seeded_and_wrong_keys_corrupt(design_name,
                                                           locker):
    check_benchmark_lock(design_name, locker)


def check_lock_handoff(benchmark: str, locker: str, directory) -> None:
    """``lock`` on a benchmark's Verilog writes the design locking makes,
    and ``attack``'s reader restores its netlist and every key bit field
    the key metadata carries."""
    design = load_benchmark(benchmark, scale=0.1, seed=0)
    budget = max(1, design.num_operations() // 2)
    source = directory / f"{benchmark}.v"
    output, key_file = directory / "locked.v", directory / "key.json"
    source.write_text(design.to_verilog())
    assert main(["lock", str(source), "-a", locker, "--seed", "0",
                 "--key-bits", str(budget), "-o", str(output),
                 "--key-file", str(key_file)]) == 0
    expected = make_locker(locker, random.Random(0)).lock(design,
                                                          budget).design
    read = _design_from_key_metadata(output, None, key_file)
    label = f"{benchmark} locked by {locker!r}"
    assert read.to_verilog() == expected.to_verilog(), \
        f"{label}: the written netlist differs"
    assert read.fingerprint() == expected.fingerprint()
    assert read.key_port == expected.key_port
    assert ([(bit.index, bit.kind, bit.correct_value, bit.real_op,
              bit.dummy_op) for bit in read.key_bits]
            == [(bit.index, bit.kind, bit.correct_value, bit.real_op,
                 bit.dummy_op) for bit in expected.key_bits]), \
        f"{label}: the key metadata reads back different key bits"


@pytest.mark.parametrize("design_name,locker", SIMULATION_CASES,
                         ids=[f"{name}-{locker}"
                              for name, locker in SIMULATION_CASES])
def test_locked_benchmark_files_read_back(design_name, locker, tmp_path):
    check_lock_handoff(design_name, locker, tmp_path)



def mutable_parts(design: Design):
    """``{id: object}`` of every AST node, list and key bit."""
    parts = {}
    for node in design.source.iter_tree():
        assert id(node) not in parts, \
            f"{type(node).__name__} node reachable twice: not a tree"
        parts[id(node)] = node
        parts.update((id(value), value) for value in vars(node).values()
                     if isinstance(value, list))
    for bit in design.key_bits:
        parts[id(bit)] = bit
    return parts


def check_copy_contract(benchmark: str, locker: str) -> None:
    """A locked design is a tree, and its copy is equal but independent."""
    design = load_benchmark(benchmark, scale=0.1, seed=0)
    budget = max(1, design.num_operations() // 2)
    locked = make_locker(locker, random.Random(5)).lock(design,
                                                        budget).design
    original = mutable_parts(locked)
    text, bits = locked.to_verilog(), state(locked)[2]

    duplicate = locked.copy()
    assert duplicate.to_verilog() == text
    assert duplicate.fingerprint() == locked.fingerprint()
    shared = original.keys() & mutable_parts(duplicate).keys()
    assert not shared, \
        f"the copy shares {[type(original[i]).__name__ for i in shared]}"

    AssureLocker("random", rng=random.Random(6)).relock(
        LockingSession(duplicate), BUDGET)
    assert duplicate.key_width > locked.key_width
    assert locked.to_verilog() == text, "locking the copy changed the original"
    assert state(locked)[2] == bits


@pytest.mark.parametrize("design_name,locker", SIMULATION_CASES,
                         ids=[f"{name}-{locker}"
                              for name, locker in SIMULATION_CASES])
def test_locked_design_is_a_tree_and_copies_independently(design_name,
                                                          locker):
    check_copy_contract(design_name, locker)


#: Base lanes of the release-rule sweeps: whole bytes and not.
RELEASE_BASES = (8, 12)

#: Sweep points of the release-rule sweeps; tiles of two points make three
#: tiles, the last one ragged.
RELEASE_POINTS, RELEASE_TILE_POINTS = 5, 2


def check_release_schedule(steps, release, keep) -> None:
    """Each name outside ``keep`` is dropped once, after its last use."""
    assert len(release) == len(steps)
    used = set()
    read_later = set()
    for index in range(len(steps) - 1, -1, -1):
        dropped = set(release[index])
        assert not dropped & set(keep), f"step {index} drops a kept name"
        assert not dropped & read_later, \
            f"step {index} drops {sorted(dropped & read_later)} too early"
        assert not dropped & used, "a name is dropped twice"
        used |= dropped
        read_later |= steps[index].reads
    written = {step.target for step in steps}
    assert used == (read_later | written) - set(keep), \
        "a value outlives its last use"


def _count_differences(reference, outputs):
    lanes = len(differing_lanes(reference, outputs))
    bits = sum((reference[name][lane] ^ outputs[name][lane]).bit_count()
               for name in reference for lane in range(len(reference[name])))
    return lanes, bits


def check_release_rule(benchmark: str, locker: str) -> None:
    """Tiled sweeps that drop each value after its last reader equal
    per-point ``run_batch``, for a key sweep (the key cone varies) and a
    binding sweep under one shared key (the key cone is hoisted)."""
    design = load_benchmark(benchmark, scale=0.1, seed=0)
    budget = max(1, design.num_operations() // 2)
    locked = make_locker(locker, random.Random(0)).lock(design,
                                                        budget).design
    simulator = BatchSimulator(locked)
    plan = simulator.plan
    rng = random.Random(3)
    probe, width = max(input_signals(locked), key=lambda item: item[1])
    for base in RELEASE_BASES:
        batch = random_input_batch(locked, rng, base)
        keys = [locked.correct_key] + [random_wrong_key(locked.correct_key,
                                                        rng)
                                       for _ in range(RELEASE_POINTS - 1)]
        context = {name: values for name, values in batch.items()
                   if name != probe}
        values = [rng.getrandbits(width) for _ in range(RELEASE_POINTS)]
        sweeps = [
            ({"inputs": batch, "keys": keys},
             [simulator.run_batch(batch, key=key, n=base) for key in keys]),
            ({"inputs": context, "keys": [locked.correct_key] * len(values),
              "bindings": [{probe: value} for value in values]},
             [simulator.run_batch({**context, probe: [value] * base},
                                  key=locked.correct_key, n=base)
              for value in values]),
        ]
        lanes = RELEASE_TILE_POINTS * base
        for sweep, expected in sweeps:
            with mock.patch.object(executor, "DEFAULT_LANE_BITS_BUDGET",
                                   lanes * plan_lane_bits(plan)):
                swept = simulator.run_sweep(n=base, max_lanes=lanes, **sweep)
                counted = simulator.sweep_differences(n=base, **sweep)
            label = f"{benchmark} locked by {locker!r}, {base} base lanes"
            assert swept == expected, f"{label}: run_sweep differs"
            assert list(zip(counted.lanes, counted.bits)) == [
                _count_differences(expected[0], outputs)
                for outputs in expected[1:]], \
                f"{label}: sweep_differences differs"
    check_release_schedule(plan.steps, batch_release(plan), plan.outputs)
    for schedule in plan._sweep_schedules.values():
        kept = schedule.needed | set(schedule.invariant_outputs)
        check_release_schedule(schedule.invariant_steps,
                               schedule.invariant_release, kept)
        check_release_schedule(schedule.varying_steps,
                               schedule.varying_release,
                               schedule.varying_outputs)


@pytest.mark.parametrize("design_name,locker", SIMULATION_CASES,
                         ids=[f"{name}-{locker}"
                              for name, locker in SIMULATION_CASES])
def test_tiled_sweeps_drop_values_after_their_last_reader(design_name,
                                                          locker):
    check_release_rule(design_name, locker)


#: ``(metric, benchmark, locker)``: every packaged metric on every
#: benchmark locked by every packaged locker, one locked design per run of
#: three metrics.
METRIC_NAMES = packaged(METRICS, metric_names())
BOUNDS_CASES = [(metric, name, locker) for name, locker in SIMULATION_CASES
                for metric in METRIC_NAMES]


@functools.lru_cache(maxsize=1)
def locked_benchmark(benchmark: str, locker: str) -> Design:
    design = load_benchmark(benchmark, scale=0.1, seed=0)
    budget = max(1, design.num_operations() // 2)
    return make_locker(locker, random.Random(0)).lock(design, budget).design


def numbers(value):
    """The numbers of a numeric field or list field (``None``: the field
    is not numeric)."""
    def is_number(item):
        return isinstance(item, (int, float)) and not isinstance(item, bool)

    if is_number(value):
        return [value]
    if isinstance(value, list) and all(is_number(item) for item in value):
        return value
    return None


def check_metric_bounds(name: str, design: Design) -> None:
    """Every numeric field the metric returns has declared bounds, every
    declared field is returned, and every number lies in its bounds."""
    bounds = METRICS.bounds(name)
    assert bounds is not None, f"metric {name!r} declares no bounds"
    result = make_metric(name)(design, rng=random.Random(7),
                               **METRIC_OPTIONS)
    label = f"metric {name!r} on {design.name}"
    numeric = {field for field, value in result.items()
               if numbers(value) is not None}
    assert numeric <= set(bounds), \
        f"{label}: no bounds declared for {sorted(numeric - set(bounds))}"
    assert set(bounds) <= numeric, \
        f"{label}: declared bounds of {sorted(set(bounds) - numeric)}, " \
        "which it does not return as numbers"
    for field, ends in bounds.items():
        low, high = (end(design) if callable(end) else end for end in ends)
        outside = [value for value in numbers(result[field])
                   if not low <= value <= high]
        assert not outside, \
            f"{label}: {field} = {outside} outside [{low}, {high}]"


@pytest.mark.parametrize("metric,design_name,locker", BOUNDS_CASES,
                         ids=[f"{metric}-{name}-{locker}"
                              for metric, name, locker in BOUNDS_CASES])
def test_metric_stays_inside_its_declared_bounds(metric, design_name,
                                                 locker):
    check_metric_bounds(metric, locked_benchmark(design_name, locker))


#: ``(what a bad metric returns, its bounds, the message)``.
BAD_METRICS = [
    ({"rate": 0.5}, None, "declares no bounds"),
    ({"rate": 0.5, "count": 3}, {"rate": (0.0, 1.0)},
     r"no bounds declared for \['count'\]"),
    ({"rate": 0.5}, {"rate": (0.0, 1.0), "gone": (0, 1)},
     r"declared bounds of \['gone'\]"),
    ({"rate": 1.5}, {"rate": (0.0, 1.0)}, r"rate = \[1.5\] outside"),
    ({"rates": [0.5, -0.25]}, {"rates": (0.0, 1.0)},
     r"rates = \[-0.25\] outside"),
    ({"dead": 99}, {"dead": (0, lambda design: design.key_width)},
     r"dead = \[99\] outside \[0, 4\]"),
]


@pytest.mark.parametrize("result,bounds,message", BAD_METRICS,
                         ids=[message for _, _, message in BAD_METRICS])
def test_a_metric_outside_its_bounds_is_caught(result, bounds, message):
    @register_metric("test-bounded-metric", bounds=bounds)
    def bad_metric(design, **_):
        return dict(result)

    design = lock("assure", Design.from_verilog(MIXER_SOURCE, name="mixer"))
    try:
        with pytest.raises(AssertionError, match=message):
            check_metric_bounds("test-bounded-metric", design.design)
    finally:
        METRICS.unregister("test-bounded-metric")


#: Packaged lockers built on :class:`AssureLocker`.
ASSURE_LOCKERS = [name for name in LOCKER_NAMES
                  if isinstance(make_locker(name, random.Random(0)),
                                AssureLocker)]
EQUAL_CODE_CASES = list(itertools.product(benchmark_names(), ASSURE_LOCKERS,
                                          (1, 2)))


def equal_code_bits(benchmark: str, locker: str, seed: int):
    """Key bits whose locality has C1 = C2, with ``benchmark`` at scale
    0.15 locked by ``locker`` at a 75 % key budget."""
    design = load_benchmark(benchmark, scale=0.15, seed=seed)
    budget = key_budget(0.75, benchmark, locker, design.num_operations())
    locked = make_locker(locker, random.Random(seed)).lock(design,
                                                           budget).design
    features, _ = LocalityExtractor().extract_matrix(locked)
    indices = sorted(bit.index for bit in locked.key_bits)
    return [index for index, (c1, c2) in zip(indices, features) if c1 == c2]


def test_assure_lockers_are_found():
    assert sorted(ASSURE_LOCKERS) == ["assure", "assure-random"]


@pytest.mark.parametrize("design_name,locker,seed", EQUAL_CODE_CASES,
                         ids=[f"{name}-{locker}-{seed}"
                              for name, locker, seed in EQUAL_CODE_CASES])
def test_assure_targets_have_no_equal_code_bits(design_name, locker, seed):
    assert equal_code_bits(design_name, locker, seed) == []


def test_hra_targets_do_have_equal_code_bits():
    assert equal_code_bits("N_2046", "hra", 1)
