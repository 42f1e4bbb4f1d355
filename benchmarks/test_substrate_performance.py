"""Substrate performance benchmarks (not tied to a paper figure).

These measure the cost of the building blocks a user pays for on every call:
parsing, code generation, locking a full-size synthetic benchmark, extracting
localities from a locked design, and simulating input batches through the
scalar and bit-parallel engines.  They use pytest-benchmark's normal repeated
timing (no shape assertions beyond sanity checks) — except the batch-engine
speedup, which is the acceptance gate of the bit-parallel substrate and is
asserted explicitly.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.attacks import LocalityExtractor
from repro.bench import load_benchmark
from repro.locking import AssureLocker, ERALocker, functional_corruption
from repro.rtlir import Design
from repro.sim import (
    BatchSimulator,
    CombinationalSimulator,
    batch_to_vectors,
    compile_plan,
    random_input_batch,
    random_key,
)
from repro.verilog import generate, parse

from .conftest import write_result
from .sim_cases import (ENGINES, KEY_SWEEPS, PIPELINED_SWEEP, SWEEP_VN,
                        Sizes, assert_outputs_match, compare, report_json,
                        run_cases)


@pytest.fixture(scope="module")
def n2046_design() -> Design:
    return load_benchmark("N_2046")


@pytest.fixture(scope="module")
def md5_design() -> Design:
    return load_benchmark("MD5", seed=0)


@pytest.fixture(scope="module")
def locked_md5(md5_design) -> Design:
    budget = int(0.75 * md5_design.num_operations())
    return AssureLocker("serial", rng=random.Random(0),
                        track_metrics=False).lock(md5_design, budget).design


@pytest.fixture(scope="module")
def era_locked_md5(md5_design) -> Design:
    budget = int(0.75 * md5_design.num_operations())
    return ERALocker(rng=random.Random(0),
                     track_metrics=False).lock(md5_design, budget).design


def test_parse_throughput_n2046(benchmark, n2046_design):
    text = n2046_design.to_verilog()
    source = benchmark(parse, text)
    assert source.top.name == "N_2046"


def test_codegen_throughput_n2046(benchmark, n2046_design):
    text = benchmark(generate, n2046_design.source)
    assert "module N_2046" in text


def test_assure_locking_full_md5(benchmark, md5_design):
    budget = int(0.75 * md5_design.num_operations())

    def lock():
        return AssureLocker("serial", rng=random.Random(0),
                            track_metrics=False).lock(md5_design, budget)

    result = benchmark.pedantic(lock, rounds=3, iterations=1)
    assert result.bits_used == budget


def test_era_locking_full_md5(benchmark, md5_design):
    budget = int(0.75 * md5_design.num_operations())

    def lock():
        return ERALocker(rng=random.Random(0),
                         track_metrics=False).lock(md5_design, budget)

    result = benchmark.pedantic(lock, rounds=3, iterations=1)
    assert result.bits_used >= budget


def test_locality_extraction_locked_md5(benchmark, locked_md5):
    extractor = LocalityExtractor()
    features, labels = benchmark(extractor.extract_matrix, locked_md5)
    assert features.shape[0] == locked_md5.key_width
    assert labels.shape[0] == locked_md5.key_width


def test_operation_census_n2046(benchmark, n2046_design):
    census = benchmark(n2046_design.operation_census)
    assert census["+"] == 2046


# ---------------------------------------------------------------------------
# Simulation engines
# ---------------------------------------------------------------------------


def test_scalar_simulation_locked_md5(benchmark, locked_md5):
    simulator = CombinationalSimulator(locked_md5)
    key = locked_md5.correct_key
    vectors = batch_to_vectors(
        random_input_batch(locked_md5, random.Random(0), 1), 1) * 32

    def run():
        return [simulator.run(v, key=key) for v in vectors]

    outputs = benchmark(run)
    assert len(outputs) == 32


def test_batch_simulation_locked_md5(benchmark, locked_md5):
    simulator = BatchSimulator(locked_md5)
    key = locked_md5.correct_key
    batch = random_input_batch(locked_md5, random.Random(0), 256)

    outputs = benchmark(simulator.run_batch, batch, key=key, n=256)
    assert all(len(values) == 256 for values in outputs.values())


def test_batch_plan_compilation_locked_md5(benchmark, locked_md5):
    simulator = benchmark(BatchSimulator, locked_md5)
    assert simulator.plan.steps


def test_functional_corruption_locked_md5(benchmark, locked_md5):
    report = benchmark.pedantic(
        functional_corruption, args=(locked_md5,),
        kwargs={"vectors": 64, "wrong_keys": 4, "rng": random.Random(0)},
        rounds=2, iterations=1)
    assert report.mean_corruption > 0.0


def test_batch_engine_speedup_at_256_vectors(results_dir, locked_md5):
    """Acceptance gate: >= 10x over per-vector simulation at 256 vectors."""
    comparison = compare(ENGINES, locked_md5, Sizes(vectors=256),
                         rng=random.Random(0), repeats=3)
    assert comparison.outputs_match
    write_result(results_dir, "batch_engine_speedup",
                 f"design={comparison.design} vectors=256 "
                 f"scalar={comparison.baseline_seconds * 1e3:.2f}ms "
                 f"batch={comparison.candidate_seconds * 1e3:.2f}ms "
                 f"speedup={comparison.speedup:.1f}x")
    assert comparison.speedup >= 10.0, (
        f"batch engine only {comparison.speedup:.1f}x faster than scalar")


# ---------------------------------------------------------------------------
# Per-lane key sweeps
# ---------------------------------------------------------------------------


def test_key_sweep_speedup_at_64_keys(results_dir, locked_md5):
    """Acceptance gate: one sweep >= 5x over the per-key batch loop."""
    comparison = compare(KEY_SWEEPS, locked_md5, Sizes(keys=64, vectors=32),
                         rng=random.Random(0), repeats=3)
    assert comparison.outputs_match
    write_result(results_dir, "key_sweep_speedup",
                 f"design={comparison.design} keys=64 vectors=32 "
                 f"loop={comparison.baseline_seconds * 1e3:.2f}ms "
                 f"sweep={comparison.candidate_seconds * 1e3:.2f}ms "
                 f"speedup={comparison.speedup:.1f}x")
    assert comparison.speedup >= 5.0, (
        f"key sweep only {comparison.speedup:.1f}x faster than the "
        "per-key batch loop")


@pytest.mark.parametrize("fixture_name", ["locked_md5", "era_locked_md5"])
def test_key_sweep_bit_identical_to_scalar_oracle(request, fixture_name):
    """Sweep lanes vs the scalar oracle, including a CSE-active design."""
    design = request.getfixturevalue(fixture_name)
    if fixture_name == "era_locked_md5":
        # ERA dummies duplicate operand subtrees: the CSE pass must fire.
        assert compile_plan(design).stats.cse_steps > 0
    rng = random.Random(1)
    batch = random_input_batch(design, rng, 16)
    keys = [design.correct_key] + [random_key(design.key_width, rng)
                                   for _ in range(7)]
    swept = BatchSimulator(design).run_sweep(batch, keys=keys, n=16)
    scalar = CombinationalSimulator(design)
    vectors = batch_to_vectors(batch, 16)
    for key, outputs in zip(keys, swept):
        rows = [scalar.run(vector, key=key) for vector in vectors]
        assert outputs == {name: [row[name] for row in rows]
                           for name in scalar.output_names}


def test_key_sweep_throughput_era_md5(benchmark, era_locked_md5):
    simulator = BatchSimulator(era_locked_md5)
    batch = random_input_batch(era_locked_md5, random.Random(0), 32)
    rng = random.Random(1)
    keys = [random_key(era_locked_md5.key_width, rng) for _ in range(64)]

    results = benchmark(simulator.run_sweep, batch, keys=keys, n=32)
    assert len(results) == 64


# ---------------------------------------------------------------------------
# Sweep value-numbering
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def era_locked_i2c() -> Design:
    base = load_benchmark("I2C_SL", scale=0.25, seed=0)
    budget = max(1, int(0.75 * base.num_operations()))
    return ERALocker(rng=random.Random(0),
                     track_metrics=False).lock(base, budget).design


def test_sweep_vn_speedup_on_kpa_shape(results_dir, era_locked_i2c):
    """Acceptance gate: value-numbering >= 1.5x on the KPA sweep shape.

    64 key hypotheses over one shared 512-vector batch — the SnapShot
    functional-KPA pattern — on an ERA-locked control-style design whose
    key cone leaves most of the plan point-invariant.  The baseline is
    ``sim_cases.flat_sweep``, every step on all S×V lanes.
    """
    comparison = compare(SWEEP_VN, era_locked_i2c,
                         Sizes(keys=64, vn_vectors=512),
                         rng=random.Random(0), repeats=3)
    counters = comparison.counters
    assert comparison.outputs_match
    assert counters["invariant_steps"] > 0
    assert counters["hoisted_subexprs"] > 0
    write_result(results_dir, "sweep_vn_speedup",
                 f"design={comparison.design} keys=64 vectors=512 "
                 f"flat={comparison.baseline_seconds * 1e3:.2f}ms "
                 f"hoisted={comparison.candidate_seconds * 1e3:.2f}ms "
                 f"invariant={counters['invariant_steps']}/"
                 f"{counters['total_steps']} "
                 f"speedup={comparison.speedup:.2f}x")
    assert comparison.speedup >= 1.5, (
        f"sweep value-numbering only {comparison.speedup:.2f}x faster "
        "than the flat S*V sweep")


def test_sweep_vn_stats_count_hoisted_work(era_locked_i2c):
    """plan.stats carries the value-numbering counters the gate reports."""
    plan = compile_plan(era_locked_i2c)
    assert plan.stats.invariant_steps > 0
    assert plan.stats.hoisted_subexprs > 0


# ---------------------------------------------------------------------------
# Memory-bounded pipelined sweeps
# ---------------------------------------------------------------------------


#: Fixed peak-memory budget of the 10^6-lane sweep gate.  Measured peaks:
#: ~19 MB chunked (1.5x headroom), ~36 MB unchunked (~38 MB before each
#: tile value was dropped after its last reader) — so the gate fails
#: without chunking and the budget is a real bound, not a formality.
PIPELINED_SWEEP_MEMORY_BUDGET_BYTES = 28 * 1024 * 1024


def test_pipelined_sweep_memory_gate_at_million_lanes(results_dir,
                                                      era_locked_i2c):
    """Acceptance gate: a 10^6-lane sweep stays under a fixed memory budget.

    2048 keys x 512 vectors = 1,048,576 sweep lanes on the ERA-locked
    I2C_SL, tiled at ``max_lanes=65536`` (128-point tiles).  The tracemalloc
    peak of the tiled run must stay under the fixed budget — the unchunked
    pass exceeds it — and spot-checked points must match ``run_batch``
    bit for bit.
    """
    import tracemalloc

    keys_n, vectors, max_lanes = 2048, 512, 65536
    simulator = BatchSimulator(era_locked_i2c)
    rng = random.Random(0)
    batch = random_input_batch(era_locked_i2c, rng, vectors)
    keys = [random_key(era_locked_i2c.key_width, rng) for _ in range(keys_n)]

    tracemalloc.start()
    try:
        results = simulator.run_sweep(batch, keys=keys, n=vectors,
                                      max_lanes=max_lanes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    assert len(results) == keys_n
    for index in (0, keys_n // 2, keys_n - 1):
        assert results[index] == simulator.run_batch(batch, key=keys[index],
                                                     n=vectors)
    write_result(results_dir, "pipelined_sweep_memory",
                 f"design=i2c_sl_era keys={keys_n} vectors={vectors} "
                 f"lanes={keys_n * vectors} max_lanes={max_lanes} "
                 f"peak={peak / 1e6:.1f}MB "
                 f"budget={PIPELINED_SWEEP_MEMORY_BUDGET_BYTES / 1e6:.1f}MB")
    assert peak <= PIPELINED_SWEEP_MEMORY_BUDGET_BYTES, (
        f"10^6-lane pipelined sweep peaked at {peak / 1e6:.1f} MB, over the "
        f"{PIPELINED_SWEEP_MEMORY_BUDGET_BYTES / 1e6:.1f} MB budget")


def test_pipelined_sweep_throughput_gate(results_dir, era_locked_i2c):
    """Acceptance gate: tiling costs <= 10% throughput where both paths fit.

    256 keys x 512 vectors fits unchunked and tiled (8 tiles at
    ``max_lanes=16384``); the tiled run must deliver >= 90% of the
    unchunked throughput with bit-identical outputs.
    """
    comparison = compare(PIPELINED_SWEEP, era_locked_i2c,
                         Sizes(keys=256, vn_vectors=512, max_lanes=16384),
                         rng=random.Random(0), repeats=3)
    assert comparison.outputs_match
    assert comparison.candidate_peak_bytes < comparison.baseline_peak_bytes
    write_result(results_dir, "pipelined_sweep_throughput",
                 f"design={comparison.design} keys=256 vectors=512 "
                 f"max_lanes=16384 tiles={comparison.counters['tiles']} "
                 f"full={comparison.baseline_seconds * 1e3:.2f}ms "
                 f"tiled={comparison.candidate_seconds * 1e3:.2f}ms "
                 f"throughput={comparison.speedup:.2f}x "
                 f"mem={comparison.memory_ratio:.2f}x")
    assert comparison.speedup >= 0.9, (
        f"pipelined sweep delivers only "
        f"{comparison.speedup:.2f}x of unchunked throughput")


def test_plan_cache_hit_rate_in_attack_validation(locked_md5):
    """Repeated functional validation compiles the target exactly once."""
    from repro.attacks.kpa import functional_kpa
    from repro.sim import clear_plan_cache, plan_cache_info

    clear_plan_cache()
    for seed in range(5):
        functional_kpa(locked_md5, locked_md5.correct_key, vectors=16,
                       rng=random.Random(seed))
    info = plan_cache_info()
    assert info.misses == 1
    assert info.hits == 4


# ---------------------------------------------------------------------------
# The whole case table
# ---------------------------------------------------------------------------


def test_case_table_writes_bench_sim_json(results_dir):
    """Every case on its suite at the default sizes; both paths of every
    comparison must agree, and the numbers go to ``BENCH_sim.json``."""
    results = run_cases(Sizes(), scale=0.25, seed=0, repeats=3)
    assert_outputs_match(results)
    payload = report_json(results)
    assert set(payload) == {"engines", "key_sweeps", "sweep_vn",
                            "pipelined_sweep", "key_flips"}
    common = {"design", "baseline", "candidate", "baseline_ms",
              "candidate_ms", "speedup", "baseline_peak_bytes",
              "candidate_peak_bytes", "memory_ratio", "outputs_match"}
    counters = {"engines": {"vectors", "compile_ms"},
                "key_sweeps": {"keys", "vectors", "cse_steps",
                               "pruned_steps"},
                "sweep_vn": {"keys", "vectors", "invariant_steps",
                             "total_steps", "hoisted_subexprs"},
                "pipelined_sweep": {"keys", "vectors", "max_lanes", "tiles"},
                "key_flips": {"keys", "vectors", "total_steps",
                              "cone_steps"}}
    for name, entries in payload.items():
        assert entries, f"{name}: no comparisons"
        for entry in entries:
            assert set(entry) == common | counters[name], name
    assert {entry["design"] for entry in payload["sweep_vn"]} \
        == {"i2c_sl_era", "md5_scaled_era"}
    (results_dir / "BENCH_sim.json").write_text(
        json.dumps(payload, indent=2) + "\n")
