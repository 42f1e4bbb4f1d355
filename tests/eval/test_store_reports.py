"""Store reports render one snapshot: read once, degrade on bad records.

``store_context`` reads the manifest (or the stamp), the job listing, the
ledger and each record once; ``store_report`` and ``store_report_json``
render from that snapshot only.  An unreadable record is skipped, named in
one line, and counted as outstanding, as a resume re-executes it.
"""

import json
import shutil
from contextlib import ExitStack, contextmanager
from pathlib import Path
from unittest import mock

import pytest

from repro.api import AttackSpec, LockerSpec, ResultsStore, Runner, Scenario
from repro.api.client import ScenarioClient
from repro.api.faults import FaultPlan, corrupt_record_file
from repro.api.server import ScenarioServer
from repro.cli import main
from repro.eval import store_report, store_report_json
from repro.eval.reporting import store_context

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def two_job_scenario():
    return Scenario(name="snapshot-cases", benchmarks=("SASC",),
                    lockers=(LockerSpec("era", key_budget_fraction=0.5),),
                    attacks=(AttackSpec("majority", rounds=2),
                             AttackSpec("random")),
                    samples=1, scale=0.1, seed=3)


@pytest.fixture(scope="module")
def base_store(tmp_path_factory):
    store = ResultsStore(tmp_path_factory.mktemp("base") / "store")
    Runner(two_job_scenario(), store=store).run()
    assert len(store.job_ids()) == 2
    return store


# (case id, records to corrupt, keep the manifest) — SNIPPETS-style data.
CORRUPT_CASES = [
    ("clean-manifest", 0, True),
    ("one-manifest", 1, True),
    ("all-manifest", 2, True),
    ("clean-stamp", 0, False),
    ("one-stamp", 1, False),
    ("all-stamp", 2, False),
]


@pytest.fixture(params=CORRUPT_CASES, ids=[case[0] for case in CORRUPT_CASES])
def corrupt_case(request, base_store, tmp_path):
    _, corrupt, keep_manifest = request.param
    store = ResultsStore(tmp_path / "store")
    shutil.copytree(base_store.root, store.root)
    if not keep_manifest:
        store.manifest_path.unlink()
    bad = store.job_ids()[:corrupt]
    for job_id in bad:
        corrupt_record_file(store.record_path(job_id))
    return store, bad, keep_manifest


class TestUnreadableRecords:
    def test_text_and_json_report_over_the_readable_records(
            self, corrupt_case):
        store, bad, keep_manifest = corrupt_case
        text = store_report(store)
        data = store_report_json(store)
        readable = 2 - len(bad)
        assert data["completion"] == {"records": readable, "total": 2,
                                      "complete": not bad}
        assert f"Records: {readable}/2" in text
        assert ("no manifest" in text) is not keep_manifest
        if bad:
            assert f"Unreadable records: {len(bad)} (skipped" in text
            assert data["unreadable"] == bad
            assert f"PARTIAL — {len(bad)} job(s) outstanding" in text
        else:
            assert "Unreadable" not in text
            assert "unreadable" not in data
            assert "COMPLETE" in text

    def test_resume_executes_exactly_the_unreadable_records(
            self, corrupt_case):
        store, bad, _ = corrupt_case
        plan = Runner(two_job_scenario(), store=store).plan()
        assert sorted(job.job_id for _, job in plan.todo) == bad

    def test_cli_report_json_exits_cleanly(self, corrupt_case, tmp_path,
                                           capsys):
        store, bad, _ = corrupt_case
        json_path = tmp_path / "report.json"
        assert main(["report", str(store.root), "--json",
                     str(json_path)]) == 0
        out = capsys.readouterr().out
        assert ("Unreadable records" in out) is bool(bad)
        assert json.loads(json_path.read_text()).get("unreadable",
                                                     []) == bad

    def test_raw_unreadable_records_still_report(self, base_store,
                                                 tmp_path):
        """No manifest, no stamp, no readable record: still a store."""
        store = ResultsStore(tmp_path / "store")
        shutil.copytree(base_store.root, store.root)
        store.manifest_path.unlink()
        store.scenario_stamp_path.unlink()
        for job_id in store.job_ids():
            corrupt_record_file(store.record_path(job_id))
        text = store_report(store)
        assert "Records: 0 (expected total unknown" in text
        assert "Unreadable records: 2" in text


@pytest.fixture
def server(tmp_path):
    instance = ScenarioServer(runs_root=tmp_path / "runs")
    instance.start()
    yield instance
    instance.stop()


def test_service_report_op_survives_a_corrupt_record(base_store, tmp_path,
                                                     server):
    store = ResultsStore(tmp_path / "store")
    shutil.copytree(base_store.root, store.root)
    bad = store.job_ids()[0]
    corrupt_record_file(store.record_path(bad))
    with ScenarioClient(server.address) as client:
        result = client.report(store=str(store.root))
    assert "Unreadable records: 1" in result["report"]
    assert result["data"]["unreadable"] == [bad]


READS = ("manifest", "job_ids", "failures", "stamped_scenario", "load")


@contextmanager
def spy_reads(store):
    """Yield ``{method: spy}`` counting ``store``'s disk reads."""
    with ExitStack() as stack:
        yield {name: stack.enter_context(mock.patch.object(
                   store, name, wraps=getattr(store, name)))
               for name in READS}


class TestReadsOnce:
    @pytest.mark.parametrize("keep_manifest", [True, False],
                             ids=["manifest", "stamp"])
    def test_service_op_reads_each_file_once(self, base_store, tmp_path,
                                             keep_manifest):
        """Context, then text, then JSON: the shape of the service op."""
        store = ResultsStore(tmp_path / "store")
        shutil.copytree(base_store.root, store.root)
        if not keep_manifest:
            store.manifest_path.unlink()
        with spy_reads(store) as spies:
            context = store_context(store)
            store_report(store, context=context)
            store_report_json(store, context=context)
        assert spies["manifest"].call_count == 1
        assert spies["job_ids"].call_count == 1
        assert spies["failures"].call_count == 1
        assert spies["stamped_scenario"].call_count == \
            (0 if keep_manifest else 1)
        loaded = [call.args[0] for call in spies["load"].call_args_list]
        assert loaded == store.job_ids()

    def test_local_report_reads_each_file_once(self, base_store):
        with spy_reads(base_store) as spies:
            store_report(base_store)
        assert [spies[name].call_count for name in READS] == [1, 1, 1, 0, 2]


@pytest.fixture(scope="module")
def poison_store(tmp_path_factory):
    """The CI ``chaos-poison`` store: ERA jobs quarantined, ASSURE done."""
    scenario = Scenario.from_file(EXAMPLES / "scenario_chaos.json")
    plan = FaultPlan.from_file(EXAMPLES / "faults_poison.json")
    store = ResultsStore(tmp_path_factory.mktemp("poison") / "store")
    Runner(scenario, store=store, fault_plan=plan, retries=1).run()
    return store


def test_text_and_json_agree_on_a_partial_quarantined_store(poison_store,
                                                           tmp_path):
    """Both renderings show one disk state, even while the store changes
    between them (a run still filling it, a job newly quarantined)."""
    store = ResultsStore(tmp_path / "store")
    shutil.copytree(poison_store.root, store.root)
    context = store_context(store)
    text = store_report(store, context=context)
    store.record_path(store.job_ids()[0]).unlink()
    store.append_failure({"job_id": "late", "attempts": 1})
    data = store_report_json(store, context=context)
    completion = data["completion"]
    assert not completion["complete"]
    assert f"Records: {completion['records']}/{completion['total']} " \
           "(PARTIAL" in text
    quarantined = {entry["job_id"] for entry in data["failures"]}
    assert quarantined
    assert f"Quarantined jobs: {len(quarantined)} " in text
    assert completion["records"] + len(quarantined) == completion["total"]
