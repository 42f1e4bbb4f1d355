"""Golden training-set digests: relocking output is pinned bit for bit.

Every stored SnapShot record depends on the exact ``features``/``labels``
that :class:`~repro.attacks.relock.TrainingSetBuilder` produces for a given
relock rng.  Any rework of the relocking loop (design copies, session
reuse, incremental extraction) must keep them bit-identical, so stored
records stay valid and a resume executes 0 jobs.  The digests below were
recorded with the per-round copy-and-rebuild loop that relocking started
from; a mismatch means the training set changed, not that the digest needs
refreshing.
"""

import hashlib
import random

import pytest

from repro.api import make_locker
from repro.api.scenario import key_budget
from repro.attacks import TrainingSetBuilder
from repro.bench import load_benchmark

SCALE = 0.2
ROUNDS = 4
SEED = 7

#: sha256 of ``features.tobytes() + labels.tobytes()`` per
#: (benchmark, locker).
GOLDEN = {
    ("MD5", "era"):
        "3bdebc025497a2ded88baed46269f696aa6f04df1fc5ef5024b1f13dfbb9cb24",
    ("MD5", "assure"):
        "87d738631b8746bc27d29c1be93b03fbfe3399079bb2b6c6bf64ff08b450cfd2",
    ("FIR", "era"):
        "b56cd2e8c299fb974355cfac0c236926aabbd3475f649afa2bfc027104fbfb02",
    ("FIR", "assure"):
        "3d3927ae0cbb7a3c0aa357ab1c52ce01dc3932283b4639c029dd6caaeeeebf73",
    ("N_2046", "era"):
        "1dd8ad9a3049bbd5cb2ad2ad00ea706c9e620211f74338b5a6fb4e11aa9ff463",
    ("N_2046", "assure"):
        "9ae3e48704651750e82e2eb5fe5a64037fe7c45f2cbc4e6887b772cfded19711",
}


def training_digest(benchmark: str, algorithm: str) -> str:
    design = load_benchmark(benchmark, scale=SCALE, seed=SEED)
    budget = key_budget(0.75, benchmark, algorithm, design.num_operations())
    locker = make_locker(algorithm, rng=random.Random(SEED))
    target = locker.lock(design, budget).design
    builder = TrainingSetBuilder(rounds=ROUNDS, rng=random.Random(SEED + 1))
    training = builder.build(target)
    payload = training.features.tobytes() + training.labels.tobytes()
    return hashlib.sha256(payload).hexdigest()


@pytest.mark.parametrize("config", sorted(GOLDEN), ids="-".join)
def test_training_set_matches_golden_digest(config):
    assert training_digest(*config) == GOLDEN[config]
