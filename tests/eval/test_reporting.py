"""Unit tests for the Fig. 6 report and shape checks."""

from repro.api import AttackSpec, LockerSpec, Runner, Scenario
from repro.attacks.kpa import KpaSample
from repro.eval.reporting import ShapeCheck, report_from_samples, shape_checks


class TestShapeChecks:
    def test_paper_like_numbers_pass_all_checks(self):
        average = {"assure": 74.8, "hra": 74.3, "era": 47.9}
        per_benchmark = {
            "N_1023": {"assure": 52.0, "hra": 49.0, "era": 50.0},
            "N_2046": {"assure": 99.0, "hra": 97.0, "era": 51.0},
        }
        checks = shape_checks(average, per_benchmark)
        assert checks["era_random"].holds
        assert checks["assure_above_era"].holds
        assert checks["hra_above_era"].holds
        assert checks["assure_hra_similar"].holds
        assert checks["n1023_balanced"].holds
        assert checks["n2046_worst_case"].holds

    def test_broken_scheme_fails_checks(self):
        average = {"assure": 52.0, "hra": 51.0, "era": 90.0}
        checks = shape_checks(average)
        assert not checks["era_random"].holds
        assert not checks["assure_above_era"].holds

    def test_missing_algorithms_produce_partial_checks(self):
        checks = shape_checks({"era": 49.0})
        assert "era_random" in checks
        assert "assure_above_era" not in checks

    def test_shape_check_text(self):
        check = ShapeCheck("claim", True, "detail")
        assert "OK" in check.to_text()
        assert "claim" in check.to_text()
        failing = ShapeCheck("claim", False, "detail")
        assert "FAIL" in failing.to_text()


class TestExperimentReport:
    def test_report_contains_tables_and_checks(self):
        scenario = Scenario(
            name="report-unit",
            benchmarks=("SASC",),
            lockers=(LockerSpec("assure"), LockerSpec("era")),
            attacks=(AttackSpec("snapshot", rounds=5, time_budget=1.0),),
            samples=1,
            scale=0.15,
            seed=7,
        )
        samples = Runner(scenario).run().kpa_samples()
        report = report_from_samples(samples, algorithms=["assure", "era"])
        assert "Fig. 6a" in report
        assert "Fig. 6b" in report
        assert "Shape checks" in report
        assert "SASC" in report

    def test_rows_follow_the_listed_benchmarks(self):
        samples = [KpaSample(design_name=name, algorithm="era", value=50.0,
                             key_width=4)
                   for name in ("FIR", "SASC", "I2C_SL", "MD5")]
        report = report_from_samples(samples, algorithms=["era"],
                                     benchmarks=["I2C_SL", "FIR", "SASC"])
        rows = [line.split(" |")[0].strip()
                for line in report.splitlines()[3:7]]
        # Listed benchmarks first, in list order; the rest in sample order.
        assert rows == ["I2C_SL", "FIR", "SASC", "MD5"]
