"""Command-line interface for the repro library.

The CLI wraps the most common workflows so a design can be analysed, locked
and attacked without writing Python:

* ``repro-lock analyze  design.v``                    — operation census, imbalance, dataflow stats
* ``repro-lock lock     design.v -a era -o out.v``    — lock a design, write Verilog + key
* ``repro-lock attack   locked.v --key-file key.txt`` — run SnapShot against a locked design
* ``repro-lock bench    --list``                      — list / generate benchmark designs
* ``repro-lock evaluate --benchmarks MD5 FIR``        — run the Fig. 6 style evaluation
* ``repro-lock run      scenario.json --jobs 4``      — run a declarative scenario (resumable)
* ``repro-lock report   runs/<name>``                 — re-render figures/tables from a results store
* ``repro-lock serve    --runs-root runs``            — persistent scenario service (warm plan cache)
* ``repro-lock submit   scenario.json --watch``       — submit a scenario to a running server
* ``repro-lock status   [job-0001]``                  — server/job status over the service protocol
* ``repro-lock watch    job-0001``                    — stream a job's progress events
* ``repro-lock report   job-0001 --remote SOCK``      — fetch a store report from the server

Locking algorithms and attacks are resolved through the :mod:`repro.api`
registries, so the ``--algorithm``/``--attack`` choices (and their ``--help``
listings) always reflect what is registered — including third-party
components registered before :func:`main` is invoked.

Every subcommand is importable and tested through :func:`main` with an
argument list, and is also installed as the ``repro-lock`` console script.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from collections import Counter
from pathlib import Path
from typing import Optional, Sequence

from .api import (
    AttackSpec,
    LockerSpec,
    Runner,
    ResultsStore,
    Scenario,
    ScenarioError,
    StoreError,
    attack_names,
    locker_names,
    make_attack,
    make_locker,
)
from .bench import benchmark_names, get_profile, load_benchmark
from .eval import format_table, report_from_samples
from .eval.tables import failures_table_text
from .locking import odt_from_design
from .rtlir import Design, KeyBit, analyze_design



def _load_design(path: Path, top: Optional[str]) -> Design:
    if not path.exists():
        raise SystemExit(f"error: input file {path} does not exist")
    return Design.from_file(path, top_name=top)


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def cmd_analyze(args: argparse.Namespace) -> int:
    """Print the structural report of a design."""
    design = _load_design(args.input, args.top)
    print(analyze_design(design).to_text())
    print()
    print(odt_from_design(design).to_text())
    return 0


def cmd_lock(args: argparse.Namespace) -> int:
    """Lock a design and write the locked Verilog plus key metadata."""
    design = _load_design(args.input, args.top)
    if design.num_operations() == 0:
        print("error: the design contains no lockable operations", file=sys.stderr)
        return 1
    if args.key_bits is not None:
        budget = args.key_bits
    else:
        budget = max(1, int(round(args.budget * design.num_operations())))

    locker = make_locker(args.algorithm, random.Random(args.seed),
                         track_metrics=True)
    result = locker.lock(design, key_budget=budget)
    locked = result.design

    print(f"Locked {design.name} with {result.algorithm}: {result.summary()}")
    print(f"Correct key (MSB first): {locked.correct_key_string()}")

    output = args.output or args.input.with_suffix(".locked.v")
    output.write_text(locked.to_verilog())
    print(f"Locked Verilog written to {output}")

    key_file = args.key_file or output.with_suffix(".key.json")
    key_file.write_text(json.dumps(_key_metadata(locked), indent=2) + "\n")
    print(f"Key metadata written to {key_file}")
    return 0


def _key_metadata(design: Design) -> dict:
    return {
        "design": design.name,
        "key_port": design.key_port,
        "key_width": design.key_width,
        "correct_key": design.correct_key_string(),
        "bits": [
            {
                "index": bit.index,
                "kind": bit.kind,
                "correct_value": bit.correct_value,
                "real_op": bit.real_op,
                "dummy_op": bit.dummy_op,
            }
            for bit in design.key_bits
        ],
    }


def _design_from_key_metadata(path: Path, top: Optional[str],
                              key_file: Path) -> Design:
    design = _load_design(path, top)
    metadata = json.loads(key_file.read_text())
    design.key_port = metadata["key_port"]
    design.key_bits = [
        KeyBit(index=entry["index"], kind=entry["kind"],
               correct_value=entry["correct_value"],
               real_op=entry.get("real_op"), dummy_op=entry.get("dummy_op"))
        for entry in metadata["bits"]
    ]
    return design


def cmd_attack(args: argparse.Namespace) -> int:
    """Attack a locked design and report the KPA."""
    if args.key_file is None:
        print("error: --key-file (produced by 'lock') is required to score the "
              "attack", file=sys.stderr)
        return 1
    design = _design_from_key_metadata(args.input, args.top, args.key_file)
    if not design.is_locked:
        print("error: the key metadata lists no key bits", file=sys.stderr)
        return 1

    attack = make_attack(args.attack, random.Random(args.seed),
                         rounds=args.rounds, time_budget=args.time_budget)
    result = attack.attack(design)
    print(f"Attack        : {args.attack}")
    print(f"Model         : {result.model_name}")
    print(f"Training size : {result.training_size}")
    print(f"Key width     : {result.key_width}")
    print(f"KPA           : {result.kpa:.2f} % (random guess = 50 %)")
    if args.show_key:
        predicted = "".join(str(b) for b in reversed(result.predicted_key))
        print(f"Predicted key : {predicted}")
        print(f"Correct key   : {design.correct_key_string()}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """List benchmarks or emit one as Verilog."""
    if args.list or args.name is None:
        rows = []
        for name in benchmark_names():
            profile = get_profile(name)
            rows.append([name, profile.total_operations, profile.width,
                         profile.description])
        print(format_table(["benchmark", "operations", "width", "description"],
                           rows, title="Available benchmarks"))
        return 0
    design = load_benchmark(args.name, scale=args.scale, seed=args.seed)
    text = design.to_verilog()
    if args.output is not None:
        args.output.write_text(text)
        print(f"{args.name} written to {args.output} "
              f"({design.num_operations()} operations)")
    else:
        print(text)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    """Run the Fig. 6 evaluation on a set of benchmarks.

    The flags build a one-attack SnapShot :class:`Scenario`
    (``--emit-scenario`` writes it out for ``repro-lock run``), which runs
    through the same execute-and-print path as ``run``: same records, same
    report, same error handling.  Without ``--store`` the records stay in
    memory.
    """
    try:
        scenario = Scenario(
            name="evaluate",
            benchmarks=tuple(args.benchmarks
                             or ("MD5", "FIR", "SASC", "N_2046", "N_1023")),
            lockers=tuple(LockerSpec(algorithm)
                          for algorithm in args.algorithms),
            attacks=(AttackSpec("snapshot", rounds=args.rounds,
                                time_budget=args.time_budget),),
            samples=args.samples, scale=args.scale, seed=args.seed)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.emit_scenario is not None:
        scenario.save(args.emit_scenario)
        print(f"Equivalent scenario written to {args.emit_scenario}")
    store = ResultsStore(args.store) if args.store is not None else None
    return _execute(scenario, store, jobs=args.jobs, output=args.output)


def _dry_run(scenario: Scenario, store: ResultsStore,
             **runner_options) -> int:
    """Print the jobs a real run with the same options would execute.

    The answer is :meth:`Runner.plan`, the rule the real run starts from,
    so the two agree on every store state; nothing is written.  Errors
    print and return exactly as :func:`_execute` does.
    """
    try:
        plan = Runner(scenario, store=store, **runner_options).plan()
    except (ScenarioError, StoreError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    per_benchmark = Counter(job.benchmark for _, job in plan.todo)
    rows = [[benchmark, count]
            for benchmark, count in sorted(per_benchmark.items())]
    rows.append(["TOTAL", len(plan.todo)])
    print(f"Scenario {scenario.name!r}: {len(plan.jobs)} job(s) expanded, "
          f"{len(plan.records)} already in {store.root}, "
          f"{len(plan.quarantined)} quarantined, "
          f"{len(plan.todo)} to execute")
    print()
    print(format_table(["benchmark", "jobs"], rows,
                       title="Dry run — nothing was executed"))
    return 0


def _sigterm_as_keyboard_interrupt():
    """Route SIGTERM through KeyboardInterrupt for the duration of a run.

    ``kill <pid>`` then behaves like Ctrl-C: the process pool kills its
    in-flight workers, commits everything already reported, and the runner
    writes the manifest — so the store stays cleanly resumable.  Returns a
    restore callable; a no-op off the main thread (tests drive :func:`main`
    from worker threads) and on platforms without SIGTERM.
    """
    import signal

    def handler(signum, frame):
        raise KeyboardInterrupt

    try:
        previous = signal.signal(signal.SIGTERM, handler)
    except (ValueError, AttributeError, OSError):
        return lambda: None
    return lambda: signal.signal(signal.SIGTERM, previous)


def cmd_run(args: argparse.Namespace) -> int:
    """Run a declarative scenario file through the parallel runner."""
    try:
        scenario = Scenario.from_file(args.scenario)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    store = ResultsStore(args.store if args.store is not None
                         else Path("runs") / scenario.name)
    if args.dry_run:
        return _dry_run(scenario, store, jobs=args.jobs,
                        resume=not args.no_resume, retries=args.retries,
                        job_timeout=args.job_timeout)

    fault_plan = None
    if args.fault_plan is not None:
        from .api.faults import FaultPlan, FaultPlanError

        try:
            fault_plan = FaultPlan.from_file(args.fault_plan)
        except FaultPlanError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    return _execute(scenario, store, jobs=args.jobs,
                    resume=not args.no_resume, quiet=args.quiet,
                    retries=args.retries, job_timeout=args.job_timeout,
                    fault_plan=fault_plan)


def _execute(scenario: Scenario, store: Optional[ResultsStore], *,
             jobs: int, resume: bool = True, quiet: bool = False,
             output: Optional[Path] = None, **runner_options) -> int:
    """Run a scenario and print its summary, Fig. 6 report and failures.

    The execution path shared by ``run`` and ``evaluate``.  Bad runner
    arguments (``Runner`` raises ``ValueError``) print one ``error:`` line
    and return 1; SIGTERM/SIGINT return 130 with every finished job
    committed; quarantined jobs are listed and return 1.  ``output``
    additionally receives the Fig. 6 report text.
    """
    def progress(done: int, total: int, record: dict) -> None:
        if quiet:
            return
        label = record.get("attack") or record.get("metric") or "?"
        print(f"[{done}/{total}] {record['kind']:6s} {record['benchmark']}"
              f"/{record['locker']}/{label} s{record['sample']}"
              f" ({record.get('elapsed_seconds', 0.0):.2f}s)")

    restore_sigterm = _sigterm_as_keyboard_interrupt()
    try:
        report = Runner(scenario, store=store, jobs=jobs, resume=resume,
                        progress=progress, **runner_options).run()
    except (ScenarioError, StoreError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # SIGTERM/SIGINT mid-run: the pool killed its workers and the
        # runner's finally block wrote the manifest, so everything that
        # finished is committed and the store resumes cleanly.
        if store is None:
            print("\ninterrupted — no results store, nothing was kept",
                  file=sys.stderr)
        else:
            print(f"\ninterrupted — completed jobs are committed in "
                  f"{store.root}; re-run the same command to resume",
                  file=sys.stderr)
        return 130
    finally:
        restore_sigterm()
    print(f"Scenario {scenario.name!r}: {report.total} job(s) — "
          f"{report.executed} executed, {report.skipped} skipped "
          f"(resume {'on' if resume else 'off'})")
    if store is not None:
        print(f"Results store: {store.root} (manifest: {store.manifest_path})")

    samples = report.kpa_samples()
    if samples:
        text = report_from_samples(
            samples, algorithms=[spec.algorithm for spec in scenario.lockers])
        print()
        print(text)
        if output is not None:
            output.write_text(text + "\n")
            print(f"\nReport written to {output}")
    metric_names_run = sorted({record["metric"]
                               for record in report.records.values()
                               if record.get("kind") == "metric"})
    if metric_names_run:
        print(f"\nMetrics recorded: {', '.join(metric_names_run)}"
              + (f" (see {store.jobs_dir})" if store is not None else ""))
    if report.failures:
        ledger = (f" (ledger: {store.failures_path})"
                  if store is not None else "")
        print(f"\n{len(report.failures)} job(s) failed past their retry "
              f"budget{ledger}:")
        print(failures_table_text(report.failures))
        print("Completed jobs were committed; raise the retry budget "
              "('repro-lock run --retries N') to re-execute the quarantined "
              "ones on resume.")
        return 1
    return 0


# ---------------------------------------------------------------------------
# Scenario service commands
# ---------------------------------------------------------------------------


def _default_socket(args: argparse.Namespace) -> str:
    """The address a service command talks to: --socket, else the default
    the server binds without one (``<runs-root>/server.sock``)."""
    if args.socket is not None:
        return str(args.socket)
    return str(Path("runs") / "server.sock")


def _format_job_line(job: dict) -> str:
    done = job.get("done", 0)
    total = job.get("total") or "?"
    return (f"{job.get('job_id', '?'):10s} {job.get('state', '?'):9s} "
            f"{done}/{total}  {job.get('scenario', '?')} "
            f"-> {job.get('store', '?')}")


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the persistent scenario service in the foreground."""
    from .api.client import parse_address
    from .api.server import run_server

    host = port = None
    socket_path = args.socket
    if args.tcp is not None:
        try:
            kind, target = parse_address(f"tcp:{args.tcp}")
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        host, port = target
        socket_path = None
    if args.workers < 1:
        print("error: --workers must be positive", file=sys.stderr)
        return 1
    if args.run_jobs < 1:
        print("error: --run-jobs must be positive", file=sys.stderr)
        return 1
    try:
        return run_server(runs_root=args.runs_root, socket_path=socket_path,
                          host=host, port=port, workers=args.workers,
                          run_jobs=args.run_jobs, ready=args.ready_file)
    except OSError as exc:
        print(f"error: cannot start server: {exc}", file=sys.stderr)
        return 1


def _progress_printer(quiet: bool):
    def on_event(data: dict) -> None:
        if quiet:
            return
        total = data.get("total") or "?"
        print(f"[{data.get('done', 0)}/{total}] {data.get('kind', 'progress')}"
              f" ({data.get('elapsed_seconds', 0.0):.2f}s)")
    return on_event


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit a scenario to a running server (optionally watch it finish)."""
    from .api.client import ScenarioClient, ServerError

    try:
        with ScenarioClient(_default_socket(args)) as client:
            submitted = client.submit(args.scenario, store=args.store)
            job_id = submitted["job_id"]
            if submitted.get("deduplicated"):
                print(f"{job_id}: already known "
                      f"(state {submitted.get('state')}, "
                      f"store {submitted.get('store')})")
            else:
                print(f"{job_id}: queued at position "
                      f"{submitted.get('position', '?')} "
                      f"(store {submitted.get('store')})")
            if not args.watch:
                return 0
            final = client.watch(job_id,
                                 on_event=_progress_printer(args.quiet))
    except (ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ServerError as exc:
        print(f"error [{exc.code}]: {exc.message}", file=sys.stderr)
        return 1
    except ConnectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{job_id}: {final['state']} — {final.get('executed', 0)} executed, "
          f"{final.get('skipped', 0)} skipped, "
          f"{final.get('quarantined', 0)} quarantined")
    if final["state"] != "done" or final.get("failures"):
        if final.get("error"):
            print(f"error: {final['error']}", file=sys.stderr)
        return 1
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    """Show server status (no argument) or one job's status."""
    from .api.client import ScenarioClient, ServerError

    try:
        with ScenarioClient(_default_socket(args)) as client:
            if args.job is None:
                info = client.ping()
                cache = info.get("plan_cache") or {}
                print(f"server pid {info.get('pid')} at "
                      f"{info.get('address')} — protocol "
                      f"v{info.get('protocol')}, uptime "
                      f"{info.get('uptime_seconds', 0.0):.1f}s")
                states = info.get("jobs") or {}
                print("jobs: " + ", ".join(f"{state}={states.get(state, 0)}"
                                           for state in sorted(states))
                      if states else "jobs: none yet")
                print(f"plan cache: {cache.get('hits', 0)} hits, "
                      f"{cache.get('misses', 0)} misses, "
                      f"{cache.get('size', 0)}/{cache.get('maxsize', '?')} "
                      f"plans held")
                if args.json:
                    print(json.dumps(info, indent=2))
                return 0
            status = client.status(args.job)
            if args.json:
                print(json.dumps(status, indent=2))
            else:
                print(_format_job_line(status))
                if status.get("error"):
                    print(f"error: {status['error']}")
            return 0
    except ServerError as exc:
        print(f"error [{exc.code}]: {exc.message}", file=sys.stderr)
        return 1
    except ConnectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def cmd_watch(args: argparse.Namespace) -> int:
    """Stream a job's progress events until it reaches a terminal state."""
    from .api.client import ScenarioClient, ServerError

    try:
        with ScenarioClient(_default_socket(args)) as client:
            final = client.watch(args.job,
                                 on_event=_progress_printer(args.quiet))
    except ServerError as exc:
        print(f"error [{exc.code}]: {exc.message}", file=sys.stderr)
        return 1
    except ConnectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(_format_job_line(final))
    if final.get("error"):
        print(f"error: {final['error']}", file=sys.stderr)
    return 0 if final["state"] == "done" and not final.get("failures") else 1


def _cmd_report_remote(args: argparse.Namespace) -> int:
    """The --remote branch of ``report``: render server-side, print here."""
    from .api.client import ScenarioClient, ServerError

    target = str(args.store)
    params = {"job_id": target} if target.startswith("job-") \
        else {"store": target}
    try:
        with ScenarioClient(args.remote) as client:
            result = client.report(**params)
    except ServerError as exc:
        print(f"error [{exc.code}]: {exc.message}", file=sys.stderr)
        return 1
    except ConnectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = result.get("report", "")
    print(report)
    if args.output is not None:
        args.output.write_text(report + "\n")
        print(f"\nReport written to {args.output}")
    if args.json is not None:
        args.json.write_text(json.dumps(result.get("data"), indent=2) + "\n")
        print(f"\nJSON report written to {args.json}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Render figures and tables from a results store — no re-simulation.

    Works on complete stores (full report: Fig. 6 tables, per-axis and
    per-(benchmark, axis) sweep tables for matrix scenarios, measured wall
    time per benchmark × locker) and degrades gracefully on partial ones
    (interrupted runs, stores still filling): the report covers the records
    present and flags the run as PARTIAL.  ``--json`` additionally writes
    the machine-readable report (Fig. 6 + axis-sweep data with confidence
    intervals) for downstream tooling.
    """
    from .eval import store_report, store_report_json
    from .eval.reporting import store_context

    if args.remote is not None:
        return _cmd_report_remote(args)
    store = ResultsStore(args.store)
    if not store.root.exists():
        print(f"error: results store {store.root} does not exist",
              file=sys.stderr)
        return 1
    try:
        # One disk read serves both renderings (and keeps them consistent
        # if the store is still being written to).
        context = store_context(store)
        report = store_report(store, context=context)
        data = store_report_json(store, context=context) \
            if args.json is not None else None
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(report)
    if args.output is not None:
        args.output.write_text(report + "\n")
        print(f"\nReport written to {args.output}")
    if data is not None:
        args.json.write_text(json.dumps(data, indent=2) + "\n")
        print(f"\nJSON report written to {args.json}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-lock",
        description="ML-resilient RTL logic locking (DAC 2022 reproduction)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    analyze = subparsers.add_parser("analyze", help="analyse a Verilog design")
    analyze.add_argument("input", type=Path)
    analyze.add_argument("--top", default=None)
    analyze.set_defaults(func=cmd_analyze)

    lockers = tuple(locker_names(include_aliases=True))
    attacks = tuple(attack_names(include_aliases=True))

    lock = subparsers.add_parser("lock", help="lock a Verilog design")
    lock.add_argument("input", type=Path)
    lock.add_argument("--top", default=None)
    lock.add_argument("-a", "--algorithm", choices=lockers, default="era",
                      help="registered locking algorithm (default: era)")
    lock.add_argument("--budget", type=float, default=0.75,
                      help="key budget as a fraction of lockable operations")
    lock.add_argument("--key-bits", type=int, default=None,
                      help="absolute key budget (overrides --budget)")
    lock.add_argument("-o", "--output", type=Path, default=None)
    lock.add_argument("--key-file", type=Path, default=None)
    lock.add_argument("--seed", type=int, default=0)
    lock.set_defaults(func=cmd_lock)

    attack = subparsers.add_parser("attack", help="attack a locked design")
    attack.add_argument("input", type=Path)
    attack.add_argument("--top", default=None)
    attack.add_argument("--key-file", type=Path, default=None,
                        help="key metadata JSON produced by the lock command")
    attack.add_argument("--attack", choices=attacks, default="snapshot",
                        help="registered attack (default: snapshot)")
    attack.add_argument("--rounds", type=int, default=30)
    attack.add_argument("--time-budget", type=float, default=8.0,
                        help="search budget: how many auto-ML roster "
                             "candidates, cheapest first, to evaluate "
                             "(default: 8)")
    attack.add_argument("--show-key", action="store_true")
    attack.add_argument("--seed", type=int, default=0)
    attack.set_defaults(func=cmd_attack)

    bench = subparsers.add_parser("bench", help="list or generate benchmarks")
    bench.add_argument("name", nargs="?", default=None)
    bench.add_argument("--list", action="store_true")
    bench.add_argument("--scale", type=float, default=1.0)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("-o", "--output", type=Path, default=None)
    bench.set_defaults(func=cmd_bench)

    evaluate = subparsers.add_parser("evaluate",
                                     help="run the Fig. 6 style evaluation")
    evaluate.add_argument("--benchmarks", nargs="*", default=None,
                          choices=benchmark_names())
    evaluate.add_argument("--algorithms", nargs="*",
                          default=["assure", "hra", "era"], choices=lockers,
                          help="registered locking algorithms to evaluate")
    evaluate.add_argument("--scale", type=float, default=0.15)
    evaluate.add_argument("--samples", type=int, default=2)
    evaluate.add_argument("--rounds", type=int, default=25)
    evaluate.add_argument("--time-budget", type=float, default=4.0)
    evaluate.add_argument("--seed", type=int, default=0)
    evaluate.add_argument("--jobs", type=int, default=1,
                          help="worker processes for the scenario runner")
    evaluate.add_argument("--store", type=Path, default=None,
                          help="results-store directory (makes the run "
                               "resumable)")
    evaluate.add_argument("--emit-scenario", type=Path, default=None,
                          help="write the equivalent scenario JSON for "
                               "'repro-lock run'")
    evaluate.add_argument("-o", "--output", type=Path, default=None)
    evaluate.set_defaults(func=cmd_evaluate)

    run = subparsers.add_parser(
        "run", help="run a declarative scenario JSON (resumable, parallel)")
    run.add_argument("scenario", type=Path,
                     help="scenario JSON file (see repro.api.Scenario)")
    run.add_argument("-j", "--jobs", type=int, default=1,
                     help="worker processes (default: 1, in-process; "
                          "more run on a process pool)")
    run.add_argument("--store", type=Path, default=None,
                     help="results-store directory "
                          "(default: runs/<scenario name>)")
    run.add_argument("--no-resume", action="store_true",
                     help="re-execute jobs even when their record exists")
    run.add_argument("-q", "--quiet", action="store_true",
                     help="suppress per-job progress lines")
    run.add_argument("--dry-run", action="store_true",
                     help="print the jobs a run with the same flags would "
                          "execute, per benchmark, without writing anything")
    run.add_argument("--retries", type=int, default=None,
                     help="extra attempts per job after a transient failure "
                          "(crash/timeout/retryable error) before it is "
                          "quarantined to the failures.jsonl ledger "
                          "(default: scenario setting, else 0)")
    run.add_argument("--job-timeout", type=float, default=None,
                     help="per-job wall-clock budget in seconds; an overdue "
                          "job counts as a transient failure (default: "
                          "scenario setting, else none)")
    run.add_argument("--fault-plan", type=Path, default=None,
                     help="JSON fault-injection plan (testing: deterministic "
                          "crashes/hangs/transient errors/corrupt writes)")
    run.set_defaults(func=cmd_run)

    report = subparsers.add_parser(
        "report",
        help="render figures/tables from a results store (no re-simulation)")
    report.add_argument("store", type=Path,
                        help="results-store directory written by 'run' or "
                             "'evaluate --store' (with --remote: a store "
                             "path visible to the server, or a job id like "
                             "job-0001)")
    report.add_argument("-o", "--output", type=Path, default=None,
                        help="also write the report to a file")
    report.add_argument("--json", type=Path, nargs="?",
                        const=Path("report.json"), default=None,
                        help="write the machine-readable report (Fig. 6 + "
                             "axis-sweep data with confidence intervals) as "
                             "JSON (default path: report.json)")
    report.add_argument("--remote", metavar="ADDR", default=None,
                        help="render on a running scenario server instead "
                             "of reading the store locally (socket path or "
                             "tcp:HOST:PORT)")
    report.set_defaults(func=cmd_report)

    serve = subparsers.add_parser(
        "serve", help="run the persistent scenario service (warm plan cache)")
    serve.add_argument("--runs-root", type=Path, default=Path("runs"),
                       help="directory holding per-scenario stores and the "
                            "default socket (default: runs)")
    serve.add_argument("--socket", type=Path, default=None,
                       help="Unix socket path "
                            "(default: <runs-root>/server.sock)")
    serve.add_argument("--tcp", metavar="HOST:PORT", default=None,
                       help="listen on TCP instead of a Unix socket "
                            "(port 0 picks a free port)")
    serve.add_argument("--workers", type=int, default=1,
                       help="concurrent scenario runs (default: 1)")
    serve.add_argument("--run-jobs", type=int, default=1,
                       help="runner worker processes per scenario "
                            "(default: 1, in-process)")
    serve.add_argument("--ready-file", type=Path, default=None,
                       help="write {address, pid} JSON here once the "
                            "listener is bound (for scripts/CI)")
    serve.set_defaults(func=cmd_serve)

    submit = subparsers.add_parser(
        "submit", help="submit a scenario to a running server")
    submit.add_argument("scenario", type=Path,
                        help="scenario JSON file (validated server-side)")
    submit.add_argument("--socket", default=None,
                        help="server address: socket path or tcp:HOST:PORT "
                             "(default: runs/server.sock)")
    submit.add_argument("--store", type=Path, default=None,
                        help="override the server's per-fingerprint store "
                             "directory")
    submit.add_argument("--watch", action="store_true",
                        help="stream progress and wait for the job to finish")
    submit.add_argument("-q", "--quiet", action="store_true",
                        help="suppress per-job progress lines while watching")
    submit.set_defaults(func=cmd_submit)

    status = subparsers.add_parser(
        "status", help="server status, or one job's status")
    status.add_argument("job", nargs="?", default=None,
                        help="job id (omit for the server summary, including "
                             "plan-cache statistics)")
    status.add_argument("--socket", default=None,
                        help="server address (default: runs/server.sock)")
    status.add_argument("--json", action="store_true",
                        help="print the raw JSON result")
    status.set_defaults(func=cmd_status)

    watch = subparsers.add_parser(
        "watch", help="stream a job's progress events until it finishes")
    watch.add_argument("job", help="job id (e.g. job-0001)")
    watch.add_argument("--socket", default=None,
                       help="server address (default: runs/server.sock)")
    watch.add_argument("-q", "--quiet", action="store_true",
                       help="only print the final state line")
    watch.set_defaults(func=cmd_watch)

    return parser


class _ClosedStdoutGuard:
    """``sys.stdout`` while a command runs: once a write finds the reader
    gone (``repro-lock run ... | head -1``), the file descriptor is pointed
    at :data:`os.devnull`, so no later write or flush can raise again."""

    def __init__(self, stream) -> None:
        self._stream = stream

    def write(self, text: str) -> int:
        try:
            return self._stream.write(text)
        except BrokenPipeError:
            self._discard()
            return len(text)

    def flush(self) -> None:
        try:
            self._stream.flush()
        except BrokenPipeError:
            self._discard()

    def _discard(self) -> None:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, self._stream.fileno())
        os.close(devnull)

    def __getattr__(self, name: str):
        return getattr(self._stream, name)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    A closed stdout does not change it: the command runs to the end with
    its remaining output discarded, and returns what it would have.
    """
    stdout = sys.stdout
    sys.stdout = _ClosedStdoutGuard(stdout)
    try:
        parser = build_parser()
        args = parser.parse_args(list(argv) if argv is not None else None)
        status = args.func(args)
        sys.stdout.flush()
        return status
    finally:
        sys.stdout = stdout


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
