"""Unit tests for the KPA metric and aggregation helpers."""

import pytest

from repro.attacks.kpa import (
    RANDOM_GUESS_KPA,
    KpaAggregate,
    KpaSample,
    aggregate_by,
    kpa,
)


class TestKpa:
    def test_extremes(self):
        assert kpa([1, 1, 0], [1, 1, 0]) == 100.0
        assert kpa([0, 0, 1], [1, 1, 0]) == 0.0

    def test_partial(self):
        assert kpa([1, 0, 1, 0], [1, 0, 0, 1]) == 50.0

    def test_random_guess_reference(self):
        assert RANDOM_GUESS_KPA == 50.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            kpa([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            kpa([1, 0], [1])


class TestAggregation:
    def _samples(self):
        return [
            KpaSample("MD5", "assure", 80.0, 100),
            KpaSample("MD5", "era", 50.0, 100),
            KpaSample("SHA256", "assure", 70.0, 120),
            KpaSample("SHA256", "era", 45.0, 120),
        ]

    def test_aggregate_from_values(self):
        agg = KpaAggregate.from_values([40.0, 60.0])
        assert agg.mean == 50.0
        assert agg.minimum == 40.0
        assert agg.maximum == 60.0
        assert agg.count == 2

    def test_aggregate_empty_rejected(self):
        with pytest.raises(ValueError):
            KpaAggregate.from_values([])

    def test_aggregate_by_algorithm(self):
        result = aggregate_by(self._samples(), key="algorithm")
        assert result["assure"].mean == 75.0
        assert result["era"].mean == 47.5

    def test_aggregate_by_benchmark(self):
        result = aggregate_by(self._samples(), key="design_name")
        assert result["MD5"].count == 2

    def test_aggregate_invalid_key(self):
        with pytest.raises(ValueError):
            aggregate_by(self._samples(), key="model")

    def test_report_average_is_sample_weighted(self, tmp_path):
        """The Fig. 6b average of a store report is the mean over every
        sample of a locker, so a benchmark with more samples weighs more
        (here 70 %, where the mean of the per-benchmark means is 60 %)."""
        from repro.api import ResultsStore
        from repro.eval import store_report_json

        store = ResultsStore(tmp_path / "store")
        values = [("MD5", 80.0)] * 3 + [("SHA256", 40.0)]
        for index, (benchmark, value) in enumerate(values):
            store.save(f"job{index}", {
                "kind": "attack", "benchmark": benchmark,
                "locker": "assure", "attack": "snapshot",
                "result": {"kpa": value, "correct_key": [0, 1]}})
        figure6 = store_report_json(store)["figure6"]
        assert figure6["per_benchmark"] == {"MD5": {"assure": 80.0},
                                            "SHA256": {"assure": 40.0}}
        assert figure6["average"] == {"assure": 70.0}
