"""Benchmark suite: synthetic stand-ins for the paper's evaluation designs."""

from .generators import alternating_network, plus_network, profile_design
from .profiles import (
    BENCHMARK_PROFILES,
    EVALUATION_ORDER,
    SYNTHETIC_PROFILES,
    BenchmarkProfile,
    all_profiles,
)
from .registry import (
    UnknownBenchmarkError,
    benchmark_names,
    get_profile,
    load_benchmark,
)

__all__ = [
    "alternating_network",
    "plus_network",
    "profile_design",
    "BENCHMARK_PROFILES",
    "EVALUATION_ORDER",
    "SYNTHETIC_PROFILES",
    "BenchmarkProfile",
    "all_profiles",
    "UnknownBenchmarkError",
    "benchmark_names",
    "get_profile",
    "load_benchmark",
]
