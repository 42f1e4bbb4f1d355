"""Span tracing around the public functions of each layer.

The benchmark times layers from the outside: :meth:`Tracer.install` replaces
a fixed list of public functions and methods of the ``repro`` package with
wrappers that record one span (name, start, end, parent) per call.  Spans
stay in memory until the run ends; :func:`summarise` then derives call
counts, total and self seconds and the share of each layer.

Nothing in ``repro`` knows about this module.  Wrappers are installed in the
one process that runs the workload; pool workers forked from it inherit the
wrappers, but their spans stay in the worker and are never reported, so the
service workload is traced on the parent side only.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Package modules, used as the layers of the share table.
LAYERS = ("bench", "verilog", "rtlir", "locking", "attacks", "ml", "sim",
          "api", "eval")

#: Traced entry points: (span name, "module:qualname", counter, self time).
#: ``counter`` names a function of the call's return value that adds to a
#: count metric; ``self time`` marks spans that contain other traced spans,
#: for which a self-seconds metric is reported.
TARGETS: Tuple[Tuple[str, str, Optional[str], bool], ...] = (
    ("bench.load", "repro.bench.registry:load_benchmark", None, True),
    ("verilog.parse", "repro.rtlir.design:Design.from_verilog", None, False),
    ("rtlir.copy", "repro.rtlir.design:Design.copy", None, False),
    ("locking.session_init", "repro.locking.base:LockingSession.__init__",
     None, False),
    ("locking.add_pair", "repro.locking.base:LockingSession.add_pair", None,
     False),
    ("attacks.relock.build",
     "repro.attacks.relock:TrainingSetBuilder.build", None, True),
    ("attacks.relock.round", "repro.locking.assure:AssureLocker.relock",
     None, True),
    ("attacks.extract",
     "repro.attacks.locality:LocalityExtractor.extract_matrix", "rows",
     False),
    ("attacks.functional_kpa", "repro.attacks.kpa:functional_kpa", None,
     True),
    ("ml.fit", "repro.ml.automl:AutoMLClassifier.fit", None, False),
    ("ml.predict", "repro.attacks.snapshot:SnapShotAttack.predict_key", None,
     True),
    ("sim.compile", "repro.sim.plan.passes:compile_plan", None, False),
    ("sim.sweep", "repro.sim.plan.executor:BatchSimulator.run_sweep",
     "lanes", False),
    ("sim.vectors", "repro.sim.vectors:random_input_batch", None, False),
    ("sim.vectors", "repro.sim.vectors:random_vector_batch", None, False),
    ("sim.compare", "repro.sim.plan.executor:differing_lanes", None, False),
    ("locking.metrics.corruption",
     "repro.locking.metrics:functional_corruption", None, True),
    ("locking.metrics.key_sensitivity",
     "repro.locking.metrics:key_bit_sensitivity", None, True),
    ("locking.metrics.avalanche",
     "repro.locking.metrics:avalanche_sensitivity", None, True),
    ("api.runner.run", "repro.api.runner:Runner.run", None, True),
    ("api.backend.round", "repro.api.backends:SerialBackend.run_round", None,
     True),
    ("api.backend.round", "repro.api.backends:ProcessPoolBackend.run_round",
     None, True),
    ("api.store.save", "repro.api.store:ResultsStore.save", None, False),
    ("api.store.load", "repro.api.store:ResultsStore.load", None, False),
    ("api.store.manifest", "repro.api.store:ResultsStore.write_manifest",
     None, False),
    ("eval.report", "repro.eval.reporting:store_context", None, True),
    ("eval.report", "repro.eval.reporting:store_report", None, True),
    ("eval.report", "repro.eval.reporting:store_report_json", None, True),
    ("api.protocol.encode", "repro.api.protocol:encode", None, False),
    ("api.protocol.decode", "repro.api.protocol:decode_line", None, False),
)

#: The job's own locker ``.lock`` (wrapped per instance, see ``install``).
LOCK_SPAN = "locking.lock"


def span_names() -> List[str]:
    """Every span name the tracer can record, in report order."""
    names = [LOCK_SPAN]
    for name, _, _, _ in TARGETS:
        if name not in names:
            names.append(name)
    return names


def self_time_spans() -> List[str]:
    """Span names that contain other traced spans (self time is reported)."""
    names = [LOCK_SPAN]
    for name, _, _, has_children in TARGETS:
        if has_children and name not in names:
            names.append(name)
    return names


def _count_rows(result) -> int:
    features = result[0]
    return int(features.shape[0])


def _count_lanes(result) -> int:
    lanes = 0
    for point in result:
        for values in point.values():
            lanes += len(values)
            break
    return lanes


COUNTERS: Dict[str, Callable[[object], int]] = {
    "rows": _count_rows,
    "lanes": _count_lanes,
}


class Tracer:
    """In-memory span recorder with per-thread parent stacks.

    A span is ``[name, start, end, parent_id]`` keyed by its id; times are
    ``time.perf_counter()`` seconds.  ``counts`` accumulates the counter
    values of spans that declare one.
    """

    def __init__(self) -> None:
        self.spans: Dict[int, list] = {}
        self.counts: Dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable,
             counter: Optional[str] = None) -> Callable:
        """Return ``fn`` wrapped so every call records a ``name`` span."""
        count = COUNTERS[counter] if counter else None
        spans, counts = self.spans, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            span = [name, 0.0, 0.0, stack[-1] if stack else 0]
            stack.append(span_id)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                spans[span_id] = span
            if count is not None:
                counts[name] += count(result)
            return result

        return traced

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._restore.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        """Wrap every target, in its defining module and wherever imported.

        Module-level functions are also replaced in every loaded ``repro``
        module that imported them by name, so ``from x import f`` call
        sites record spans too.
        """
        for name, target, counter, _ in TARGETS:
            module_name, qualname = target.split(":")
            module = importlib.import_module(module_name)
            if "." in qualname:
                class_name, attribute = qualname.split(".")
                owner = getattr(module, class_name)
                raw = owner.__dict__[attribute]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(name, raw.__func__,
                                                    counter))
                else:
                    wrapped = self.wrap(name, raw, counter)
                self._patch(owner, attribute, wrapped)
                continue
            original = getattr(module, qualname)
            wrapped = self.wrap(name, original, counter)
            for loaded in list(sys.modules.values()):
                if (getattr(loaded, "__name__", "").startswith("repro")
                        and getattr(loaded, qualname, None) is original):
                    self._patch(loaded, qualname, wrapped)
        self._install_lock_span()

    def _install_lock_span(self) -> None:
        """Trace the ``.lock`` of each job's registered locker.

        Relocking inside the attack calls ``AssureLocker.lock`` as well, so
        the job's lock is told apart by wrapping the instance the runner
        obtains from the registry rather than the class.
        """
        runner = importlib.import_module("repro.api.runner")
        make_locker = runner.make_locker
        tracer = self

        @functools.wraps(make_locker)
        def traced_make_locker(*args, **kwargs):
            locker = make_locker(*args, **kwargs)
            locker.lock = tracer.wrap(LOCK_SPAN, locker.lock)
            return locker

        self._patch(runner, "make_locker", traced_make_locker)

    def uninstall(self) -> None:
        """Restore every patched attribute (last patched first)."""
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    def export(self) -> Dict[str, object]:
        """Spans and counters in JSON form (written when the run ends)."""
        return {
            "spans": [[span_id] + span
                      for span_id, span in sorted(self.spans.items())],
            "counters": dict(self.counts),
        }


def summarise(spans: Sequence[Sequence]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``total`` and ``self`` seconds.

    ``spans`` rows are ``[id, name, start, end, parent_id]``.  Self time is
    a span's duration minus the durations of its child spans (children run
    on the parent's thread, one after another, so they never overlap).  The
    total counts only outermost spans of a name, so a span nested in one of
    the same name is not counted twice.
    """
    by_id = {row[0]: row for row in spans}
    child_time: Dict[int, float] = defaultdict(float)
    for span_id, _, start, end, parent in spans:
        if parent:
            child_time[parent] += end - start
    summary: Dict[str, Dict[str, float]] = {}
    for span_id, name, start, end, parent in spans:
        entry = summary.setdefault(name, {"calls": 0, "total": 0.0,
                                          "self": 0.0})
        duration = end - start
        entry["calls"] += 1
        entry["self"] += duration - child_time[span_id]
        ancestor = by_id.get(parent)
        while ancestor is not None and ancestor[1] != name:
            ancestor = by_id.get(ancestor[4])
        if ancestor is None:
            entry["total"] += duration
    return summary


def layer_of(span_name: str) -> str:
    """The package module a span belongs to (its first name component)."""
    return span_name.split(".", 1)[0]


def layer_shares(summary: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Share of all traced self time spent in each layer (sums to 1)."""
    totals = {layer: 0.0 for layer in LAYERS}
    for name, entry in summary.items():
        totals[layer_of(name)] += entry["self"]
    grand = sum(totals.values())
    return {layer: (value / grand if grand > 0 else 0.0)
            for layer, value in totals.items()}
