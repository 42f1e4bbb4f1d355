"""Operation profiles of the evaluation benchmarks.

The paper evaluates on a subset of the open-source benchmarks used by ASSURE
(crypto cores, filters, bus controllers) plus two synthetic networks.  The
original RTL is not redistributed here; instead every benchmark is described
by an *operation profile* — how many operations of each type its dataflow
contains — and regenerated as a synthetic design with the same profile
(:mod:`repro.bench.generators`).

The locking algorithms, the security metrics and the SnapShot attack only
depend on the operation-type distribution and the dataflow connectivity, so a
profile-faithful synthetic stand-in preserves the behaviour the paper
measures (see ``docs/benchmarks.md``, profile substitution table).

Profile shapes follow the functional character of each core:

* block ciphers / hashes (DES3, MD5, SHA256): XOR/AND/OR and addition heavy,
  with rotates/shifts,
* transforms and filters (DFT, IDFT, FIR, IIR): multiply-accumulate heavy,
* public-key arithmetic (RSA): multiplication, modulo and subtraction,
* peripherals and bus controllers (SASC, SIM_SPI, USB_PHY, I2C_SL): small,
  comparison and counter dominated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List


@dataclass(frozen=True)
class BenchmarkProfile:
    """Operation profile and generation parameters of one benchmark.

    Attributes:
        name: Benchmark name as used in the paper's Fig. 6a.
        description: One-line functional description.
        operations: ``{operator: count}`` of lockable dataflow operations.
        width: Default signal bit-width of the generated design.
        n_inputs: Number of primary data inputs.
        sequential: Generate a clocked register stage (adds realism; does not
            change the operation census).
    """

    name: str
    description: str
    operations: Dict[str, int]
    width: int = 8
    n_inputs: int = 8
    sequential: bool = True

    @property
    def total_operations(self) -> int:
        """Total number of lockable operations in the profile."""
        return sum(self.operations.values())

    def scaled(self, scale: float) -> "BenchmarkProfile":
        """Return a copy with operation counts scaled by ``scale`` (min 1).

        Scaling is used by the quick-running test/benchmark configurations;
        the relative operation mix (and hence every imbalance the paper
        exploits) is preserved.
        """
        if scale <= 0:
            raise ValueError("scale must be positive")
        scaled_ops = {op: max(1, int(round(count * scale)))
                      for op, count in self.operations.items()}
        return BenchmarkProfile(
            name=self.name,
            description=self.description,
            operations=scaled_ops,
            width=self.width,
            n_inputs=self.n_inputs,
            sequential=self.sequential,
        )


#: Profiles of the twelve open-source benchmark stand-ins (operation counts
#: chosen to match the functional character and rough size of each core).
BENCHMARK_PROFILES: Dict[str, BenchmarkProfile] = {
    "DES3": BenchmarkProfile(
        "DES3", "triple-DES block cipher round logic",
        {"^": 96, "&": 40, "|": 36, "<<": 24, ">>": 24, "+": 8, "==": 10},
    ),
    "DFT": BenchmarkProfile(
        "DFT", "discrete Fourier transform butterfly network",
        {"*": 72, "+": 64, "-": 60, "<<": 8, ">>": 8},
        width=16,
    ),
    "FIR": BenchmarkProfile(
        "FIR", "finite impulse response filter (MAC chain)",
        {"*": 48, "+": 52, "-": 6, ">>": 10},
        width=16,
    ),
    "IDFT": BenchmarkProfile(
        "IDFT", "inverse discrete Fourier transform butterfly network",
        {"*": 72, "+": 60, "-": 64, "<<": 8, ">>": 8},
        width=16,
    ),
    "IIR": BenchmarkProfile(
        "IIR", "infinite impulse response filter",
        {"*": 40, "+": 36, "-": 26, ">>": 12, "<<": 4},
        width=16,
    ),
    "MD5": BenchmarkProfile(
        "MD5", "MD5 hash round logic",
        {"+": 96, "^": 48, "&": 36, "|": 30, "~^": 6, "<<": 24, ">>": 24, "==": 8},
    ),
    "RSA": BenchmarkProfile(
        "RSA", "modular exponentiation datapath",
        {"*": 36, "%": 16, "+": 48, "-": 36, "<<": 18, ">>": 18, "<": 12, "==": 10},
        width=16,
    ),
    "SHA256": BenchmarkProfile(
        "SHA256", "SHA-256 compression function",
        {"+": 112, "^": 84, "&": 48, "|": 16, ">>": 48, "<<": 16, "==": 6},
    ),
    "SASC": BenchmarkProfile(
        "SASC", "simple asynchronous serial controller",
        {"==": 18, "+": 14, "-": 8, "&": 12, "|": 10, "<": 6, ">": 4},
        n_inputs=6,
    ),
    "SIM_SPI": BenchmarkProfile(
        "SIM_SPI", "SPI master/slave controller",
        {"==": 14, "+": 10, "-": 6, "&": 10, "|": 8, "<<": 6, ">>": 4, "<": 4},
        n_inputs=6,
    ),
    "USB_PHY": BenchmarkProfile(
        "USB_PHY", "USB 1.1 physical-layer transceiver",
        {"==": 22, "+": 12, "-": 4, "&": 14, "|": 12, "^": 10, "<": 6},
        n_inputs=6,
    ),
    "I2C_SL": BenchmarkProfile(
        "I2C_SL", "I2C slave controller",
        {"==": 16, "+": 8, "-": 5, "&": 10, "|": 8, "<": 4, ">": 3},
        n_inputs=6,
    ),
}

#: Synthetic designs of Section 5: a fully imbalanced +-network and a fully
#: balanced +/- network.
SYNTHETIC_PROFILES: Dict[str, BenchmarkProfile] = {
    "N_2046": BenchmarkProfile(
        "N_2046", "fully imbalanced synthetic network of 2046 '+' operations",
        {"+": 2046},
        n_inputs=16,
        sequential=False,
    ),
    "N_1023": BenchmarkProfile(
        "N_1023", "fully balanced synthetic network of 1023 '+' and 1023 '-' operations",
        {"+": 1023, "-": 1023},
        n_inputs=16,
        sequential=False,
    ),
}


def all_profiles() -> Dict[str, BenchmarkProfile]:
    """Return every profile (benchmarks plus synthetic designs)."""
    profiles = dict(BENCHMARK_PROFILES)
    profiles.update(SYNTHETIC_PROFILES)
    return profiles


#: Benchmark order of Fig. 6a in the paper.
EVALUATION_ORDER: List[str] = [
    "DES3", "DFT", "FIR", "IDFT", "IIR", "MD5", "RSA", "SHA256",
    "SASC", "SIM_SPI", "USB_PHY", "I2C_SL", "N_2046", "N_1023",
]
