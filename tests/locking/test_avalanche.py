"""Avalanche sensitivity: single-bit input flips via run_sweep bindings."""

import random

import pytest

import repro.sim.plan_cache
from repro.locking import AssureLocker, avalanche_sensitivity
from repro.locking.metrics import AvalancheReport
from repro.rtlir import Design
from repro.sim import BatchCompileError

PASSTHROUGH = """
module pass4 (input [3:0] a, input [3:0] b, output [3:0] y, output [3:0] z);
  assign y = a;
  assign z = b;
endmodule
"""

MIXER = """
module mixer (input [7:0] a, input [7:0] b, input [7:0] c, output [7:0] y);
  wire [7:0] t0 = a + b;
  wire [7:0] t1 = t0 ^ c;
  wire [7:0] t2 = t1 * a;
  assign y = t2 - b;
endmodule
"""

DYNAMIC = """
module dynrep (input [3:0] a, input [1:0] n, output [7:0] y);
  assign y = {n{a}} + a;
endmodule
"""


class TestAvalancheSemantics:
    def test_passthrough_flips_exactly_one_output_bit(self):
        design = Design.from_verilog(PASSTHROUGH)
        report = avalanche_sensitivity(design, signal="a", vectors=4,
                                       rng=random.Random(0))
        # Flipping bit i of `a` flips exactly bit i of `y`: 1 of 8 output
        # bits, on every context lane.
        assert report.signal == "a"
        assert report.bit_indices == [0, 1, 2, 3]
        assert report.per_bit == [1.0 / 8] * 4
        assert report.lanes_changed == [1.0] * 4

    def test_dead_input_scores_zero(self):
        design = Design.from_verilog(PASSTHROUGH.replace(
            "assign z = b;", "assign z = a;"))
        report = avalanche_sensitivity(design, signal="b", vectors=4,
                                       rng=random.Random(0))
        assert report.per_bit == [0.0] * 4
        assert report.lanes_changed == [0.0] * 4

    def test_default_signal_is_widest_input(self):
        design = Design.from_verilog(MIXER)
        report = avalanche_sensitivity(design, vectors=4,
                                       rng=random.Random(0))
        assert report.signal == "a"

    def test_bit_subset(self):
        design = Design.from_verilog(MIXER)
        report = avalanche_sensitivity(design, signal="c", bits=[0, 7],
                                       vectors=4, rng=random.Random(0))
        assert report.bit_indices == [0, 7]
        assert len(report.per_bit) == 2

    def test_report_statistics(self):
        report = AvalancheReport(signal="a", base_value=0, vectors=2,
                                 bit_indices=[0, 1], per_bit=[0.25, 0.75],
                                 lanes_changed=[1.0, 1.0])
        assert report.mean_sensitivity == 0.5
        assert report.min_sensitivity == 0.25
        assert report.max_sensitivity == 0.75

    def test_validation_errors(self):
        design = Design.from_verilog(MIXER)
        with pytest.raises(ValueError):
            avalanche_sensitivity(design, vectors=0)
        with pytest.raises(ValueError):
            avalanche_sensitivity(design, signal="nope")
        with pytest.raises(ValueError):
            avalanche_sensitivity(design, signal="a", bits=[8])


class TestEngineEquivalence:
    def test_locked_design_under_correct_key_matches_original(self):
        design = Design.from_verilog(MIXER)
        locked = AssureLocker("serial", rng=random.Random(0),
                              track_metrics=False).lock(design, 4).design
        plain = avalanche_sensitivity(design, signal="a", vectors=8,
                                      rng=random.Random(5))
        under_key = avalanche_sensitivity(locked, signal="a", vectors=8,
                                          rng=random.Random(5))
        assert plain.per_bit == under_key.per_bit
        assert plain.lanes_changed == under_key.lanes_changed

    def test_scalar_fallback_matches_batch(self, monkeypatch):
        design = Design.from_verilog(MIXER)
        batch = avalanche_sensitivity(design, signal="b", vectors=8,
                                      rng=random.Random(3))

        calls = []

        def refuse(_design):
            calls.append(_design)
            raise BatchCompileError("forced fallback")

        monkeypatch.setattr(repro.sim.plan_cache, "cached_simulator", refuse)
        scalar = avalanche_sensitivity(design, signal="b", vectors=8,
                                       rng=random.Random(3))
        assert calls, "the batch path was never refused"
        assert scalar.per_bit == batch.per_bit
        assert scalar.lanes_changed == batch.lanes_changed
        assert scalar.base_value == batch.base_value

    def test_non_compilable_design_uses_scalar_path(self):
        design = Design.from_verilog(DYNAMIC)
        report = avalanche_sensitivity(design, signal="a", vectors=4,
                                       rng=random.Random(0))
        assert len(report.per_bit) == 4
        assert all(0.0 <= value <= 1.0 for value in report.per_bit)


class TestMetricRegistration:
    def test_avalanche_registered_as_metric(self):
        from repro.api import make_metric

        design = Design.from_verilog(MIXER)
        locked = AssureLocker("serial", rng=random.Random(0),
                              track_metrics=False).lock(design, 2).design
        value = make_metric("avalanche")(locked, rng=random.Random(1),
                                         vectors=4)
        assert set(value) >= {"signal", "mean", "min", "max", "per_bit"}
        assert 0.0 <= value["mean"] <= 1.0

    def test_metric_scenario_roundtrip(self, tmp_path):
        from repro.api import (MetricSpec, LockerSpec, ResultsStore, Runner,
                               Scenario)

        scenario = Scenario(name="avalanche-study", benchmarks=("SASC",),
                            lockers=(LockerSpec("era"),),
                            attacks=(),
                            metrics=(MetricSpec("avalanche",
                                                {"vectors": 4}),),
                            samples=1, scale=0.15, seed=2)
        store = ResultsStore(tmp_path / "store")
        report = Runner(scenario, store=store).run()
        assert report.executed == 1
        (record,) = store.metric_values("avalanche")
        assert record["result"]["per_bit"]
