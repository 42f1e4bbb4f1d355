"""Benchmark registry: named access to every design of the evaluation suite."""

from __future__ import annotations

from typing import List, Optional

from ..rtlir.design import Design
from .generators import alternating_network, plus_network, profile_design
from .profiles import EVALUATION_ORDER, BenchmarkProfile, all_profiles


class UnknownBenchmarkError(KeyError):
    """Raised when a benchmark name is not in the registry."""


def benchmark_names() -> List[str]:
    """Return every available benchmark name in the paper's Fig. 6a order."""
    return list(EVALUATION_ORDER)


def get_profile(name: str) -> BenchmarkProfile:
    """Return the profile of a benchmark.

    Raises:
        UnknownBenchmarkError: for unknown names.
    """
    profiles = all_profiles()
    if name not in profiles:
        raise UnknownBenchmarkError(
            f"unknown benchmark {name!r}; available: {sorted(profiles)}")
    return profiles[name]


def load_benchmark(name: str, scale: float = 1.0,
                   seed: Optional[int] = None) -> Design:
    """Instantiate a benchmark design.

    Args:
        name: Benchmark name (see :func:`benchmark_names`).
        scale: Scale factor on the operation counts.  ``1.0`` reproduces the
            full-size design; smaller values produce profile-faithful reduced
            designs for quick experiments and tests.
        seed: Generation seed (affects dataflow interleaving, not the census).

    Raises:
        UnknownBenchmarkError: for unknown names.
        ValueError: for a non-positive scale.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    profile = get_profile(name)

    if name == "N_2046":
        n_ops = max(2, int(round(2046 * scale)))
        return plus_network(n_ops, width=profile.width,
                            n_inputs=profile.n_inputs, name="N_2046")
    if name == "N_1023":
        n_pairs = max(1, int(round(1023 * scale)))
        return alternating_network(n_pairs, width=profile.width,
                                   n_inputs=profile.n_inputs, name="N_1023")

    scaled = profile if scale == 1.0 else profile.scaled(scale)
    return profile_design(scaled, seed=seed)


__all__ = [
    "UnknownBenchmarkError",
    "benchmark_names",
    "get_profile",
    "load_benchmark",
    "BENCHMARK_PROFILES",
    "SYNTHETIC_PROFILES",
    "EVALUATION_ORDER",
]
