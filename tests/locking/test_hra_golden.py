"""Golden digests of HRA and Greedy locking, pinned bit for bit.

The example-scenario goldens run only ``assure`` and ``era``; this module
pins the two lockers that search with trial steps.  Each case locks one
benchmark and hashes what a caller can observe of the result: the locked
Verilog, every new key bit (index, correct value, real and dummy operator),
``bits_used``, ``statistics`` and both metric series of the tracker.  The
Fig. 5 cases hash the three trajectories of :func:`figure5_trajectories`.

Both series are in the digest on purpose: ``M_r_sec`` reads which pairs a
run has marked affected, so a trial step that forgets (or invents) a mark
changes the restricted series and nothing else.

Policy: a refactor leaves these digests alone.  A change that is meant to
alter a locker's output updates the digest here and says in CHANGES.md
which cases changed and why.
"""

import dataclasses
import hashlib
import json
import random

import pytest

from repro.api import make_locker
from repro.bench import benchmark_names, load_benchmark
from repro.eval import figure5_trajectories
from repro.locking import ORIGINAL_ASSURE_TABLE

SCALE = 0.1
SEED = 0

#: ``{(benchmark, locker, pair table): digest}``; the budget of every case
#: is half the benchmark's operation count.
GOLDEN = {
    ("DES3", "hra", "symmetric"):
        "2ea0569c8dab9858923ef021981b740837f3af0a11c6fc5f3961fb47257e02e5",
    ("DES3", "greedy", "symmetric"):
        "1eef233cabe9bbbea2573bd7b69d4b2eff74c1ed84172d6a62de882c3f291b05",
    ("DFT", "hra", "symmetric"):
        "ade38ed32bc6f1ac1b953de9e4eb840be43c232453bd85015c4ede6209e36b0d",
    ("DFT", "greedy", "symmetric"):
        "a2d4ded58ed0585f130524a1eb40c548f3d379c710983f9ff0242a065401b3b3",
    ("FIR", "hra", "symmetric"):
        "0195a9fd643aa796f2be3efa6aa97eb0f531fe413c853f8450ab8e38dde6a633",
    ("FIR", "greedy", "symmetric"):
        "050379ed42b396937e2a07be78e97fd1b14cda2bc9f8ef7210521efb1adb7f8c",
    ("IDFT", "hra", "symmetric"):
        "2b18d38bd25d01a48d1fb0a5c447a2c1bcda184453991f18b0b37198c5412ea2",
    ("IDFT", "greedy", "symmetric"):
        "dd9def03a490a12d32cbbef9b81eeef15b6870e301b83053477cc07ec602ef2c",
    ("IIR", "hra", "symmetric"):
        "4ea3a5e67b1d9f412c75003d1d8065ad99d784173daac836ec42fb05be48d94f",
    ("IIR", "greedy", "symmetric"):
        "c8356d32e187ee91737a142cda6fdfb49b460c468f610eca1689c44cc198cd9f",
    ("MD5", "hra", "symmetric"):
        "a08d859bb490332394e15e3df3d3cdd094a493056cef24081676f693223b9e9e",
    ("MD5", "greedy", "symmetric"):
        "81cb80b9dc5fce53a9ffbcdab5d0b9ca695cec7862f8119eeeddc107eb046eb5",
    ("RSA", "hra", "symmetric"):
        "4539acd7e07e2effd9eac9a9acd484a03534d7e5829beab84d6488ec040b022b",
    ("RSA", "greedy", "symmetric"):
        "db0e832c0d1bfccd0d20d75d17645d4fc489652b1ec7552f571022462ae36dac",
    ("SHA256", "hra", "symmetric"):
        "bef985d15b6e844a1a19c0244ade0834aca3aecd4763aa9e6d3d2f61b99b2add",
    ("SHA256", "greedy", "symmetric"):
        "709330b64575012331e101aa85329bde5e8bb9299b10d0313562db11d06d2540",
    ("SASC", "hra", "symmetric"):
        "9d85fc3b5dac489406e675f713ea135cc6c0bc1eab03c7e52ba5b1c6aae581c3",
    ("SASC", "greedy", "symmetric"):
        "8f269822778d3b6dca5544cfefb99bdd5268abd5dac424b583e02680fa5de74c",
    ("SIM_SPI", "hra", "symmetric"):
        "ac1c79a84ce1fd1e08b61d1fb5aa3ef504fbe4f268acd018c97f19ba2ca91d31",
    ("SIM_SPI", "greedy", "symmetric"):
        "85c81d8b6afb66149cd257bb014dc7f0d266c56e21149f7b12cf344a2462b423",
    ("USB_PHY", "hra", "symmetric"):
        "a7f0dd3f78754cbf84a139df2cc2527f8c75ede35cbd792c482899247a165978",
    ("USB_PHY", "greedy", "symmetric"):
        "e8de4df8192dae053c0298c279f74eee370943a82d706e4f8f1355be0ba608bf",
    ("I2C_SL", "hra", "symmetric"):
        "2ea86db2486e646229d37f4b1ffbdd074a94c6c63eb966339cd4618c7edaf5ba",
    ("I2C_SL", "greedy", "symmetric"):
        "a36a3c2ff45bba330c11ccd829059127bc8c3040488a3204fb3e7fd584330bcf",
    ("N_2046", "hra", "symmetric"):
        "cbea15e37d27dfc31256cf842d767f3827dd75e2815509db3e6dbe386f59b625",
    ("N_2046", "greedy", "symmetric"):
        "f8a03f5ed7d6d8d29e3608cb734c700d6e45481d037ee17fb57ce30947488f73",
    ("N_1023", "hra", "symmetric"):
        "759be36a882e6968629440ffd28b0bd1f2b10714d37a1f4efd81dfc130a1fa23",
    ("N_1023", "greedy", "symmetric"):
        "293e5fbeeb21402d0fd05d17d4f26b82e79774ed2f034e7ff332c814817d48c7",
    ("MD5", "hra", "assure-original"):
        "fd491eae738ea98a5f635a9d5e70f3ea2d009ccefb02ed0b51a08f61add70d7b",
}

#: ``{seed: digest}`` of ``figure5_trajectories(seed=seed)``.
FIGURE5_GOLDEN = {
    0: "a96212e9a243949efa3fee5801e04b1b69cfa939901e20f34f8035da02cb518f",
    1: "491af10e0e1c9172b16e8f7f4b4354e28403fffb2826077bdc8628576d8b41d9",
    2: "a54522303d138282b1b30d2397cf185f87381f4358221b1711e13afe5acd67a5",
}

PAIR_TABLES = {"symmetric": None, "assure-original": ORIGINAL_ASSURE_TABLE}


def sha256_of(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def lock_digest(benchmark: str, algorithm: str, table: str) -> str:
    design = load_benchmark(benchmark, scale=SCALE, seed=SEED)
    locker = make_locker(algorithm, rng=random.Random(SEED),
                         pair_table=PAIR_TABLES[table], track_metrics=True)
    result = locker.lock(design, design.num_operations() // 2)
    return sha256_of({
        "verilog": result.design.to_verilog(),
        "key_bits": [[bit.index, bit.correct_value, bit.real_op, bit.dummy_op]
                     for bit in result.new_key_bits],
        "bits_used": result.bits_used,
        "statistics": result.statistics,
        "series": result.tracker.as_series(),
    })


def figure5_digest(seed: int) -> str:
    trajectories = figure5_trajectories(seed=seed)
    return sha256_of({name: dataclasses.asdict(data)
                      for name, data in trajectories.items()})


def test_cases_cover_every_benchmark_and_both_lockers():
    symmetric = {(name, algorithm) for name, algorithm, table in GOLDEN
                 if table == "symmetric"}
    assert symmetric == {(name, algorithm) for name in benchmark_names()
                         for algorithm in ("hra", "greedy")}


@pytest.mark.parametrize("case", list(GOLDEN), ids="-".join)
def test_lock_matches_golden_digest(case):
    assert lock_digest(*case) == GOLDEN[case]


@pytest.mark.parametrize("seed", sorted(FIGURE5_GOLDEN))
def test_figure5_trajectories_match_golden_digest(seed):
    assert figure5_digest(seed) == FIGURE5_GOLDEN[seed]
