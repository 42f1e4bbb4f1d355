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
from repro.attacks import LocalityExtractor, TrainingSetBuilder
from repro.bench import load_benchmark

SCALE = 0.2
ROUNDS = 4
SEED = 7

#: sha256 of ``features.tobytes() + labels.tobytes()`` per
#: (benchmark, locker, feature set).
GOLDEN = {
    ("MD5", "era", "pair"):
        "3bdebc025497a2ded88baed46269f696aa6f04df1fc5ef5024b1f13dfbb9cb24",
    ("MD5", "era", "extended"):
        "b62f0689831aadcda198d176211172485b11048f1ee0e37001de816e0c9f7b34",
    ("MD5", "era", "behavioral"):
        "6faab39912cc7f1a99115bf11b3ea766a40a3e5720adb2019a7bbbe2b53d39ef",
    ("MD5", "assure", "pair"):
        "87d738631b8746bc27d29c1be93b03fbfe3399079bb2b6c6bf64ff08b450cfd2",
    ("MD5", "assure", "extended"):
        "ff87ec40b7a9028f3f5a81824e3e6fff53939aab721cb56e0463f3a470d2815c",
    ("MD5", "assure", "behavioral"):
        "e30f32c713ba34a4ec9185142a6ffbbeaff5d063b8b0e575299d7b2578d64e48",
    ("FIR", "era", "pair"):
        "b56cd2e8c299fb974355cfac0c236926aabbd3475f649afa2bfc027104fbfb02",
    ("FIR", "era", "extended"):
        "53f33053133481a268f4ac572231826117573facbbab15e8c3c23418aef91611",
    ("FIR", "era", "behavioral"):
        "dd6b20bb564080c5f5077cd23303f4a16e0551fc1beaccf1c1744659a082c82a",
    ("FIR", "assure", "pair"):
        "3d3927ae0cbb7a3c0aa357ab1c52ce01dc3932283b4639c029dd6caaeeeebf73",
    ("FIR", "assure", "extended"):
        "0ced09333aa787cb14b1570e1b83309e5a3d43e8c9ef77d90412036d5d37760a",
    ("FIR", "assure", "behavioral"):
        "90ea449f015b27990d5561fe642afb5760acd24215286e704bf4ae83bf3599be",
    ("N_2046", "era", "pair"):
        "1dd8ad9a3049bbd5cb2ad2ad00ea706c9e620211f74338b5a6fb4e11aa9ff463",
    ("N_2046", "era", "extended"):
        "40915c8c5d0bc2f26152aaaaacd6e5fb46526c5d924f537d333ba18d4cbcc309",
    ("N_2046", "era", "behavioral"):
        "af4408da0d954ba136caf92cc23b622073ac10e48f31229478fd81803cdf360f",
    ("N_2046", "assure", "pair"):
        "9ae3e48704651750e82e2eb5fe5a64037fe7c45f2cbc4e6887b772cfded19711",
    ("N_2046", "assure", "extended"):
        "2ceffe5e57e366b4ed5a56e74d17cd5c59a068f3231f54baa67af9fcd3695632",
    ("N_2046", "assure", "behavioral"):
        "10ccda1c61e299c230e8b96e316b17f3dfd5e277afa7edc10372a838d7176acb",
}


def training_digest(benchmark: str, algorithm: str, feature_set: str) -> str:
    design = load_benchmark(benchmark, scale=SCALE, seed=SEED)
    budget = key_budget(0.75, benchmark, algorithm, design.num_operations())
    locker = make_locker(algorithm, rng=random.Random(SEED))
    target = locker.lock(design, budget).design
    builder = TrainingSetBuilder(extractor=LocalityExtractor(feature_set),
                                 rounds=ROUNDS, rng=random.Random(SEED + 1))
    training = builder.build(target)
    payload = training.features.tobytes() + training.labels.tobytes()
    return hashlib.sha256(payload).hexdigest()


@pytest.mark.parametrize("config", sorted(GOLDEN), ids="-".join)
def test_training_set_matches_golden_digest(config):
    assert training_digest(*config) == GOLDEN[config]
