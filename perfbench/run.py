"""End-to-end benchmark of the locking / attack / scenario-service pipeline.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload attack-relock --seed 1 \
        --seconds 30 --trace 0

Every measurement runs in a fresh interpreter (``perfbench/child.py``), so
the program's per-process caches start empty.  ``--trace 0`` measures the
end-to-end metrics: several set-up samples, then one closed-loop run of
``--seconds``.  The work is fixed: ``--seconds`` sizes it from the time it
takes on the reference machine (``workloads.work``), so two versions of
the program always do the same work.  ``--trace 1`` runs half that work
untraced, then the same scenarios traced, checks that both produce the
same record digest and reports the per-layer metrics and the tracing
overhead.  A human-readable table goes to standard output first; the last
line is the JSON result.  The exit code is 1 when an output check failed
and 2 when the benchmark cannot run at all (no ``src/repro`` to import).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from host import SAMPLE_PERIOD_S, HostSpeed  # noqa: E402

#: Extra set-up samples taken before the measured run (its own set-up is
#: one more sample); ``setup_s`` is their median.
SETUP_SAMPLES = 4

#: Wall-clock limit of one benchmark run; a child still running at this
#: point is killed and the run fails.
RUN_LIMIT_S = 170.0

#: Directory (under the checkout root) for stores, sockets and spans.
WORK_ROOT = Path(".perfbench")


class ChildFailed(RuntimeError):
    """A measurement interpreter exited abnormally."""


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full", choices=workloads.SIZES,
                        help="'tiny' runs the same shapes at test size")
    return parser.parse_args(argv)


def _child(args: argparse.Namespace, work: Path, name: str,
           seconds: float, extra: List[str], deadline: float
           ) -> Tuple[Dict, HostSpeed]:
    """Run ``child.py`` on ``seconds`` worth of work in a fresh interpreter.

    Returns its result and the host speed sampled while it ran.
    """
    out = work / f"{name}.json"
    counts = workloads.work(args.workload, seconds, args.size)
    command = [sys.executable, str(HERE / "child.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--size", args.size, "--counts", counts,
               "--work", str(work / name), "--out", str(out)] + extra
    cpus = sorted(os.sched_getaffinity(0))
    if args.workload != "service-matrix":
        # Serial workloads use one CPU: pin them, and sample that CPU.
        cpus = cpus[:1]
        command += ["--cpu", str(cpus[0])]
    (work / name).mkdir(parents=True)
    t0 = time.monotonic()
    process = subprocess.Popen(command + ["--t0", repr(t0)],
                               start_new_session=True)
    try:
        with HostSpeed(cpus) as speed:
            while process.poll() is None:
                if time.monotonic() > deadline:
                    raise ChildFailed(f"{name} did not finish within the "
                                      f"{RUN_LIMIT_S:.0f} s run limit")
                speed.sample()
                time.sleep(SAMPLE_PERIOD_S)
            speed.sample()
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
    if process.returncode != 0 or not out.exists():
        raise ChildFailed(f"{name} exited with code {process.returncode}")
    return json.loads(out.read_text()), speed


def _requests_summary(result: Dict) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, errors)`` of a child run.

    Attempted counts jobs plus client requests that failed before their
    jobs were known; a scenario whose output check failed counts all its
    jobs as failed.
    """
    attempted = failed = 0
    errors: List[str] = []
    for request in result["requests"]:
        count = request["jobs"] + request["failed_requests"]
        attempted += count
        if request["errors"]:
            failed += count
            errors.extend(request["errors"])
    return attempted, failed, errors


def end_to_end(args: argparse.Namespace, work: Path, deadline: float
               ) -> Tuple[Dict, Dict, List[str], List[str]]:
    """Measure the end-to-end metrics: metrics, counts, errors, notes."""
    probes = [_child(args, work, f"setup{number}", args.seconds,
                     ["--setup-only"], deadline)
              for number in range(SETUP_SAMPLES)]
    run, speed = _child(args, work, "run", args.seconds, [], deadline)
    setups = [probe_speed.seconds(probe["setup"])
              for probe, probe_speed in probes + [(run, speed)]]
    attempted, failed, errors = _requests_summary(run)
    good = [request for request in run["requests"] if not request["errors"]]
    counts = {"attempted": attempted, "failed": failed}
    if not good:
        return {}, counts, errors or ["no scenario completed"], []
    scenario_s = [speed.seconds(request["scenario"]) for request in good]
    job_s = [speed.seconds(job) for request in good
             for job in request["jobs_at"]]
    report_s = [speed.seconds(report) for request in good
                for report in request["reports"]]
    tail_value, tail_pct, tail_n = check.tail(scenario_s)
    jobs = sum(request["completed"] for request in good)
    wall = run["wall"]
    metrics = {
        "setup_s": (check.median(setups), "s"),
        "jobs_per_s": (jobs / speed.seconds(wall), "1/s"),
        "job_p50_s": (check.median(job_s), "s"),
        "scenario_p50_s": (check.median(scenario_s), "s"),
        "report_p50_s": (check.median(report_s), "s"),
        "peak_rss_mib": (run["peak_rss_mib"], "MiB"),
    }
    notes = [f"times at reference host speed; the host ran "
             f"{speed.factor():.3f}x the reference kernel time",
             f"setup samples: {len(setups)}",
             f"jobs: {jobs} in {wall[1] - wall[0]:.2f} s measured "
             f"({len(job_s)} job latencies)",
             f"scenarios: {len(scenario_s)}; tail p{tail_pct} of {tail_n} "
             f"samples {tail_value:.6g} s (a per-layer metric: it is "
             "too noisy to bound)",
             f"failed: {failed} of {attempted} attempted"]
    return check.as_metrics(metrics), counts, errors, notes


def per_layer(args: argparse.Namespace, work: Path, deadline: float
              ) -> Tuple[Dict, Dict, List[str], List[str]]:
    """Measure untraced, then the same work traced; per-layer metrics etc."""
    plain, plain_speed = _child(args, work, "plain", args.seconds / 2, [],
                                deadline)
    traced, speed = _child(args, work, "traced", args.seconds / 2,
                           ["--trace", "1"], deadline)
    attempted, failed, errors = _requests_summary(traced)
    if plain["digest"] != traced["digest"]:
        errors.append(f"traced record digest {traced['digest'][:12]} != "
                      f"untraced {plain['digest'][:12]}")
    keep = WORK_ROOT / f"spans-{args.workload}-seed{args.seed}.json"
    keep.write_text(json.dumps(traced["spans"]))
    summary = spans.summarise(traced["spans"])
    factor = speed.factor()
    values: Dict[str, Tuple[float, str]] = {}
    with_self = set(spans.self_time_spans())
    for name in spans.span_names():
        entry = summary.get(name, {"calls": 0, "total": 0.0, "self": 0.0})
        values[f"{name}_calls"] = (entry["calls"], "count")
        values[f"{name}_s"] = (entry["total"] / factor, "s")
        if name in with_self:
            values[f"{name}_self_s"] = (entry["self"] / factor, "s")
    counters = traced.get("counters", {})
    values["attacks.extract_rows"] = (counters.get("attacks.extract", 0),
                                      "count")
    values["sim.sweep_lanes"] = (counters.get("sim.sweep", 0), "count")
    hits = traced["plan_cache"]["hits"]
    misses = traced["plan_cache"]["misses"]
    values["sim.plan_hits"] = (hits, "count")
    values["sim.plan_misses"] = (misses, "count")
    values["sim.plan_hit_ratio"] = (hits / (hits + misses) if hits + misses
                                    else 0.0, "ratio")
    requests = traced["requests"]
    values["scenario_tail_s"] = (check.tail([
        speed.seconds(request["scenario"]) for request in requests
        if not request["errors"]] or [0.0])[0], "s")
    values["api.server.queue_wait_s"] = (sum(
        request.get("queue_wait_s", 0.0) for request in requests) / factor,
        "s")
    values["api.server.run_s"] = (sum(
        request.get("run_s", 0.0) for request in requests) / factor, "s")
    rounds = summary.get("api.backend.round", {}).get("total", 0.0)
    values["api.backend.pool_idle_s"] = (
        (workloads.SERVICE_RUN_JOBS * rounds - traced["record_elapsed_s"])
        / factor if args.workload == "service-matrix" else 0.0, "s")
    shares = spans.layer_shares(summary)
    for layer, share in shares.items():
        values[f"share.{layer}"] = (share, "ratio")
    covered = sum(entry["self"] for entry in summary.values())
    build = summary.get("attacks.relock.build", {}).get("total", 0.0)
    values["share.relock"] = (build / covered if covered else 0.0, "ratio")
    plain_wall = plain_speed.seconds(plain["wall"])
    traced_wall = speed.seconds(traced["wall"])
    values["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    values["trace.overhead_ratio"] = (traced_wall / plain_wall - 1.0, "ratio")
    notes = [f"times at reference host speed; work "
             f"{workloads.work(args.workload, args.seconds / 2, args.size)}:"
             f" untraced {plain_wall:.2f} s, traced {traced_wall:.2f} s "
             f"(host {plain_speed.factor():.3f}x / {factor:.3f}x the "
             "reference kernel time)",
             f"spans kept in {keep}",
             f"record digests: untraced {plain['digest'][:16]}, traced "
             f"{traced['digest'][:16]}",
             "layer shares of traced self time: " + ", ".join(
                 f"{layer} {share:.1%}" for layer, share in sorted(
                     shares.items(), key=lambda item: -item[1]) if share)]
    return (check.as_metrics(values), {"attempted": attempted,
                                       "failed": failed}, errors, notes)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (Path("src") / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a checkout that holds "
              "src/repro", file=sys.stderr)
        return 2
    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, counts, errors, notes = measure(args, work, deadline)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = not errors and counts["failed"] == 0 and bool(metrics)
    print(f"== perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace} correct={correct}")
    for note in notes:
        print(f"   {note}")
    for error in errors[:20]:
        print(f"   CHECK FAILED: {error}")
    for name, metric in metrics.items():
        print(f"   {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": counts["attempted"],
                      "failed": counts["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
