"""Registry contracts that sharing one locked cell between jobs rests on.

The runner locks each (design, locker, seed, key budget) cell once per
process and hands the same locked design to every attack and metric job of
that cell.  That is only sound when

* locking is a pure function of its seed: the same seed gives the same
  netlist and the same key,
* locking leaves its input design untouched (the base design is shared
  too),
* no attack and no metric mutates the locked design it is given, and
* an attack is a pure function of its seed: the same seed gives the same
  predicted key, KPA, model and functional KPA (records, resume and the
  server's dedup by scenario fingerprint all rest on this).

The cases are data drawn from the live registries, run through one helper,
so no plugin of the package can register without passing them.
"""

import dataclasses
import itertools
import random

import pytest

from repro.api.registry import (ATTACKS, LOCKERS, METRICS, attack_names,
                                locker_names, make_attack, make_locker,
                                make_metric, metric_names)
from repro.attacks.baselines import RandomGuessAttack
from repro.rtlir import Design

from ..conftest import MIXER_SOURCE

#: Key budget of every lock (the mixer design has 8 operations).
BUDGET = 4

#: Tiny settings for every attack; factories ignore options they lack.
ATTACK_OPTIONS = {"rounds": 2, "time_budget": 1.0, "feature_set": "pair",
                  "functional_vectors": 8, "oracle_queries": 8,
                  "vectors": 8}

#: Tiny settings for every metric; metrics ignore options they lack.
METRIC_OPTIONS = {"vectors": 8, "wrong_keys": 2}


def packaged(registry, names):
    """The names the ``repro`` package registers.

    Other test modules register test doubles (a metric that kills its
    worker, one that sleeps) at import time; they are not plugins.
    """
    return [name for name in names
            if registry.get(name).__module__.startswith("repro.")]


#: ``(kind, name, locker)``: each locker alone, and each attack and metric
#: against a design locked by each locker.
LOCKER_NAMES = packaged(LOCKERS, locker_names())
CASES = ([("locker", name, name) for name in LOCKER_NAMES]
         + [(kind, name, locker)
            for kind, names in (("metric", packaged(METRICS, metric_names())),
                                ("attack", packaged(ATTACKS, attack_names())))
            for name in names for locker in LOCKER_NAMES])


def state(design: Design):
    """Everything a shared design must keep: netlist, key width, key bits."""
    design.invalidate_fingerprint()
    return (design.fingerprint(), design.key_width,
            [dataclasses.asdict(bit) for bit in design.key_bits])


def lock(algorithm: str, design: Design, seed: int = 5):
    return make_locker(algorithm, random.Random(seed)).lock(design, BUDGET)


def check_contract(kind: str, name: str, locker: str) -> None:
    """Run one case and assert that the designs it shares are unchanged."""
    base = Design.from_verilog(MIXER_SOURCE, name="mixer")
    base_state = state(base)
    locked = lock(locker, base)
    assert state(base) == base_state, "locking mutated its input design"
    if kind == "locker":
        again = lock(locker, base)
        assert state(again.design) == state(locked.design), \
            "the same seed gave a different locked design or key"
        assert again.design.correct_key == locked.design.correct_key
        return
    locked_state = state(locked.design)
    if kind == "metric":
        make_metric(name)(locked.design, rng=random.Random(7),
                          **METRIC_OPTIONS)
    else:
        first, second = (
            make_attack(name, random.Random(7), **ATTACK_OPTIONS)
            .attack(locked.design, algorithm=locker) for _ in range(2))
        assert len(first.predicted_key) == locked.design.key_width
        assert 0 <= first.kpa <= 100
        assert ((first.predicted_key, first.kpa, first.model_name,
                 first.functional_kpa)
                == (second.predicted_key, second.kpa, second.model_name,
                    second.functional_kpa)), \
            f"attack {name!r} gave two results for one seed"
    assert state(locked.design) == locked_state, \
        f"{kind} {name!r} mutated the locked design"


@pytest.mark.parametrize("kind,name,locker", CASES,
                         ids=[f"{kind}-{name}-{locker}"
                              for kind, name, locker in CASES])
def test_registered_component_keeps_shared_designs(kind, name, locker):
    check_contract(kind, name, locker)


def _flip_key_bit(design: Design) -> None:
    design.key_bits[0].correct_value ^= 1


def _swap_operator(design: Design) -> None:
    # In-place AST surgery that leaves the fingerprint's memo token alone.
    site = design.sites()[0]
    site.node.op = "-" if site.node.op != "-" else "+"


@pytest.mark.parametrize("mutate", [_flip_key_bit, _swap_operator])
def test_a_mutating_plugin_is_caught(mutate):
    @METRICS.register("test-mutating-metric")
    def mutating_metric(design, **_):
        mutate(design)
        return {}

    try:
        with pytest.raises(AssertionError, match="mutated the locked"):
            check_contract("metric", "test-mutating-metric", "assure")
    finally:
        METRICS.unregister("test-mutating-metric")


def test_an_attack_that_is_not_a_function_of_its_seed_is_caught():
    runs = itertools.count()

    @ATTACKS.register("test-impure-attack")
    def impure_attack(rng, **_):
        # Same seed, but the result also depends on process state.
        attack = RandomGuessAttack(rng)
        attack.name = f"guess-{next(runs)}"
        return attack

    try:
        with pytest.raises(AssertionError, match="two results for one seed"):
            check_contract("attack", "test-impure-attack", "assure")
    finally:
        ATTACKS.unregister("test-impure-attack")
