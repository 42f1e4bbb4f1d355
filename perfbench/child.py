"""Run one workload in a fresh interpreter and write its raw results.

``run.py`` starts this script once per measurement, so the program's
per-process caches (base designs, compiled plans) start empty, as they do
for a user's ``repro-lock run``.  The script imports the program from
``src/`` of the current directory, drives it through its public API, checks
every output and writes one JSON document to ``--out``:

* ``setup`` — from ``--t0`` (the parent's ``time.monotonic()`` just before
  it started this interpreter) to the first job submitted;
* ``requests`` — one entry per scenario: the ``[start, end]`` monotonic
  times of the scenario, of each job and of each report, the server's
  timestamps and the output-check errors.  A serial job spans the gap
  between two Runner progress callbacks (the caller starts the next job
  when the previous one ends); a service job spans submission to its
  progress event, since the two jobs of a scenario run side by side on the
  pool;
* ``digest`` — of every record, ``elapsed_seconds`` removed;
* ``spans`` — with ``--trace 1``, every span the tracer recorded.

``--counts`` fixes the work: whole cycles of a serial workload, or the
scenarios each service client submits (see ``workloads.work``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

#: Local report renders per finished store in the serial workloads, which
#: run few scenarios; one millisecond-scale sample each would make the
#: report median noisy.
REPORT_SAMPLES = 5


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=workloads.SIZES)
    parser.add_argument("--counts", required=True,
                        help="cycles (serial) or comma-separated scenarios "
                             "per client (service)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up (a set-up time sample)")
    parser.add_argument("--cpu", type=int, default=None,
                        help="pin this interpreter to one CPU")
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    return parser.parse_args(argv)


def _peak_rss_mib() -> float:
    """Peak RSS of this process or any child it waited for, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _gaps(start: float, stamps: List[float]) -> List[List[float]]:
    """Intervals from ``start`` to the first stamp, then between stamps."""
    return [[begin, end] for begin, end in zip([start] + stamps, stamps)]


def run_serial(args: argparse.Namespace, result: Dict) -> None:
    """One caller in a closed loop: run a scenario, report it, repeat."""
    from repro.api import ResultsStore, Runner, Scenario
    from repro.eval import store_report

    per_cycle = len(workloads.cycle(args.workload, args.size))

    def build(index: int):
        data = workloads.scenario(args.workload, args.seed, index, args.size)
        return data, Scenario.from_dict(data)

    first_cycle = [build(index) for index in range(per_cycle)]
    result["setup"] = [args.t0, time.monotonic()]
    if args.setup_only:
        return
    tracer = _start_tracer(args)

    records = []
    start = time.monotonic()
    for cycle_index in range(int(args.counts)):
        for position in range(per_cycle):
            index = cycle_index * per_cycle + position
            data, scenario = (first_cycle[position] if cycle_index == 0
                              else build(index))
            store = ResultsStore(args.work / "stores" / f"{index:04d}")
            stamps: List[float] = []
            submitted = time.monotonic()
            report = Runner(scenario, store=store,
                            progress=lambda *_: stamps.append(
                                time.monotonic())).run()
            done = time.monotonic()
            reports = []
            for _ in range(REPORT_SAMPLES):
                began = time.monotonic()
                text = store_report(store)
                reports.append([began, time.monotonic()])
            errors = check.check_run({
                "executed": report.executed, "skipped": report.skipped,
                "total": report.total, "failures": len(report.failures),
                "quarantined": report.quarantined})
            if not text:
                errors.append("empty store report")
            for record in report.records.values():
                errors += check.check_record(record, data)
                records.append((f"{index:04d}/{record['job_id']}", record))
            result["requests"].append({
                "index": index, "jobs": report.total,
                "completed": report.executed, "errors": errors,
                "failed_requests": 0,
                "scenario": [submitted, done],
                "jobs_at": _gaps(submitted, stamps),
                "reports": reports})
    result["wall"] = [start, time.monotonic()]
    result["digest"] = check.record_digest(records)
    _stop_tracer(tracer, result)


def run_service(args: argparse.Namespace, result: Dict) -> None:
    """Two clients in a closed loop against an in-process scenario server.

    Each client submits a scenario, watches it to the end, fetches the
    store's report over the socket and only then submits its next one.
    """
    from repro.api import (ResultsStore, Scenario, ScenarioClient,
                           ScenarioServer, ServerError)

    limits = [int(value) for value in args.counts.split(",")]
    clients_n = workloads.SERVICE_CLIENTS
    for client in range(clients_n):
        Scenario.from_dict(workloads.scenario(args.workload, args.seed, 0,
                                              args.size, client=client))
    # A relative socket path keeps it short whatever the checkout path is.
    socket_path = Path(os.path.relpath(args.work / "server.sock"))
    server = ScenarioServer(runs_root=args.work / "runs",
                            socket_path=socket_path, workers=1,
                            run_jobs=workloads.SERVICE_RUN_JOBS)
    server.start()
    clients = [ScenarioClient(server.address).connect()
               for _ in range(clients_n)]
    try:
        result["setup"] = [args.t0, time.monotonic()]
        if args.setup_only:
            return
        tracer = _start_tracer(args)
        records: List = []
        lock = threading.Lock()
        start = time.monotonic()

        def loop(number: int) -> None:
            client = clients[number]
            for index in range(limits[number]):
                data = workloads.scenario(args.workload, args.seed, index,
                                          args.size, client=number)
                entry = {"client": number, "index": index, "jobs": 0,
                         "completed": 0, "errors": [], "failed_requests": 0}
                stamps: List[float] = []
                submitted = time.monotonic()
                try:
                    job = client.submit(data)
                    final = client.watch(job["job_id"], on_event=lambda _:
                                         stamps.append(time.monotonic()))
                    done = time.monotonic()
                    report = client.report(job_id=job["job_id"])
                    reported = time.monotonic()
                except (ServerError, ConnectionError, OSError) as exc:
                    entry["failed_requests"] = 1
                    entry["errors"].append(f"request failed: {exc!r}")
                    with lock:
                        result["requests"].append(entry)
                    return
                entry["errors"] = check.check_run(final)
                if not report.get("report"):
                    entry["errors"].append("empty remote report")
                store_records = list(ResultsStore(final["store"]).records())
                for record in store_records:
                    entry["errors"] += check.check_record(record, data)
                entry.update({
                    "jobs": final["total"], "completed": final["executed"],
                    "scenario": [submitted, done],
                    "jobs_at": [[submitted, stamp] for stamp in stamps],
                    "reports": [[done, reported]],
                    "queue_wait_s": final["started_at"]
                    - final["submitted_at"],
                    "run_s": final["finished_at"] - final["started_at"]})
                with lock:
                    result["requests"].append(entry)
                    records.extend((f"c{number}/{index:04d}/"
                                    f"{record['job_id']}", record)
                                   for record in store_records)

        threads = [threading.Thread(target=loop, args=(number,),
                                    name=f"perfbench-client-{number}")
                   for number in range(clients_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        result["wall"] = [start, time.monotonic()]
        result["digest"] = check.record_digest(records)
        result["record_elapsed_s"] = sum(record["elapsed_seconds"]
                                         for _, record in records)
        _stop_tracer(tracer, result)
    finally:
        for client in clients:
            client.close()
        server.stop(mode="drain")


def _start_tracer(args: argparse.Namespace) -> Optional[Tracer]:
    if not args.trace:
        return None
    tracer = Tracer()
    tracer.install()
    return tracer


def _stop_tracer(tracer: Optional[Tracer], result: Dict) -> None:
    if tracer is None:
        return
    tracer.uninstall()
    result.update(tracer.export())


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    sys.path.insert(0, str(Path.cwd() / "src"))
    result: Dict = {"workload": args.workload, "seed": args.seed,
                    "requests": []}
    if args.workload == "service-matrix":
        run_service(args, result)
    else:
        run_serial(args, result)
    if not args.setup_only:
        from repro.sim.plan_cache import plan_cache_info

        info = plan_cache_info()
        result["plan_cache"] = {"hits": info.hits, "misses": info.misses}
    result["peak_rss_mib"] = _peak_rss_mib()
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
