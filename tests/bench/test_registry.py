"""Unit tests for the benchmark registry."""

import pytest

from repro.bench import (
    UnknownBenchmarkError,
    benchmark_names,
    get_profile,
    load_benchmark,
)


class TestLookup:
    def test_names_follow_paper_order(self):
        names = benchmark_names()
        assert names[0] == "DES3"
        assert names[-2:] == ["N_2046", "N_1023"]
        assert len(names) == 14

    def test_get_profile(self):
        assert get_profile("MD5").name == "MD5"

    def test_unknown_name_raises(self):
        with pytest.raises(UnknownBenchmarkError):
            get_profile("AES_XL")
        with pytest.raises(UnknownBenchmarkError):
            load_benchmark("AES_XL")


class TestLoading:
    def test_full_scale_synthetic_sizes(self):
        # Loading the synthetic designs at full size is cheap enough to test.
        n2046 = load_benchmark("N_2046")
        assert n2046.operation_census() == {"+": 2046}
        n1023 = load_benchmark("N_1023")
        assert n1023.operation_census() == {"+": 1023, "-": 1023}

    def test_scaled_synthetic(self):
        design = load_benchmark("N_2046", scale=0.01)
        assert design.operation_census()["+"] == 20

    def test_profile_benchmark_scaled(self):
        design = load_benchmark("SHA256", scale=0.1, seed=1)
        census = design.operation_census()
        assert census == get_profile("SHA256").scaled(0.1).operations

    def test_full_scale_profile_benchmark(self):
        design = load_benchmark("SASC", seed=0)
        assert design.operation_census() == get_profile("SASC").operations

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            load_benchmark("MD5", scale=0.0)

    def test_same_seed_gives_the_same_design(self):
        first = load_benchmark("FIR", scale=0.2, seed=0)
        again = load_benchmark("FIR", scale=0.2, seed=0)
        assert first.to_verilog() == again.to_verilog()

    def test_every_evaluation_benchmark_loads(self):
        for name in benchmark_names():
            design = load_benchmark(name, scale=0.05, seed=0)
            assert design.num_operations() > 0, name
