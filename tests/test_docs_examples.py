"""Docs/examples validation: every documented scenario must actually parse.

The CI ``docs`` job runs this module: each fenced ```json block in
``docs/scenario-format.md`` and every ``examples/*.json`` file must be a
complete scenario that round-trips through ``Scenario.from_json`` — so the
documentation cannot drift from the implementation without failing CI.
"""

import json
import re
from pathlib import Path

import pytest

from repro.api import Scenario

REPO_ROOT = Path(__file__).resolve().parents[1]
SCENARIO_DOC = REPO_ROOT / "docs" / "scenario-format.md"
SERVICE_DOC = REPO_ROOT / "docs" / "service.md"
EXAMPLES_DIR = REPO_ROOT / "examples"

_FENCED_JSON = re.compile(r"```json\n(.*?)```", re.DOTALL)


def doc_json_blocks():
    """Every fenced ```json block of the scenario-format reference."""
    text = SCENARIO_DOC.read_text()
    return [match.strip() for match in _FENCED_JSON.findall(text)]


def test_docs_tree_exists():
    for page in ("architecture.md", "benchmarks.md", "scenario-format.md",
                 "performance.md", "robustness.md"):
        path = REPO_ROOT / "docs" / page
        assert path.exists(), f"missing docs page {path}"
        assert path.read_text().strip(), f"empty docs page {path}"


def test_scenario_doc_has_json_examples():
    assert len(doc_json_blocks()) >= 3


@pytest.mark.parametrize("index", range(len(_FENCED_JSON.findall(
    SCENARIO_DOC.read_text()))))
def test_doc_json_block_round_trips(index):
    block = doc_json_blocks()[index]
    scenario = Scenario.from_json(block)
    assert Scenario.from_dict(scenario.to_dict()) == scenario
    assert Scenario.from_json(scenario.to_json()).fingerprint() == \
        scenario.fingerprint()


@pytest.mark.parametrize("path", sorted(EXAMPLES_DIR.glob("scenario_*.json")),
                         ids=lambda p: p.name)
def test_example_scenario_round_trips(path):
    scenario = Scenario.from_file(path)
    assert Scenario.from_dict(scenario.to_dict()) == scenario
    # The on-disk file is canonical JSON (an edit that breaks formatting or
    # adds unknown fields fails here, not at a user's machine).
    json.loads(path.read_text())


@pytest.mark.parametrize("path", sorted(EXAMPLES_DIR.glob("faults_*.json")),
                         ids=lambda p: p.name)
def test_example_fault_plans_round_trip(path):
    """The chaos-gate fault plans CI runs must parse and round-trip."""
    from repro.api.faults import FaultPlan

    plan = FaultPlan.from_file(path)
    assert FaultPlan.from_dict(plan.to_dict()) == plan
    assert plan.faults, f"{path.name} declares no faults"


def test_example_json_files_are_covered():
    """Every examples/*.json is either a scenario or a fault plan — a new
    kind of example file must be added to these docs tests explicitly."""
    covered = set(EXAMPLES_DIR.glob("scenario_*.json")) \
        | set(EXAMPLES_DIR.glob("faults_*.json"))
    assert set(EXAMPLES_DIR.glob("*.json")) == covered


def test_matrix_example_exercises_all_three_axes():
    scenario = Scenario.from_file(EXAMPLES_DIR / "scenario_matrix.json")
    axes = scenario.axis_values()
    assert set(axes) == {"seed", "key_budget_fraction", "time_budget"}
    assert all(len(values) == 2 for values in axes.values())
    attack_jobs = [job for job in scenario.expand() if job.kind == "attack"]
    assert len(attack_jobs) == 8  # 2 seeds x 2 key sizes x 2 budgets


def service_doc_blocks():
    """Every fenced ```json block of the service-protocol reference."""
    return [match.strip()
            for match in _FENCED_JSON.findall(SERVICE_DOC.read_text())]


def test_service_doc_has_envelope_examples():
    assert len(service_doc_blocks()) >= 6


@pytest.mark.parametrize("index", range(len(_FENCED_JSON.findall(
    SERVICE_DOC.read_text()))))
def test_service_doc_envelope_round_trips(index):
    """Every documented wire example decodes through the real protocol.

    Requests go through the server-side decoder, responses/events through
    the client-side one, and each re-encodes to the identical payload —
    so the protocol page cannot drift from ``repro.api.protocol``.
    """
    from repro.api.protocol import (Event, Request, Response, decode_request,
                                    decode_server_message, encode)

    block = service_doc_blocks()[index]
    payload = json.loads(block)
    if "op" in payload:
        message = decode_request(block)
        assert isinstance(message, Request)
        if "scenario" in message.params:
            # The documented submit body must be a real, valid scenario.
            Scenario.from_dict(message.params["scenario"])
    else:
        message = decode_server_message(block)
        assert isinstance(message, (Response, Event))
        error = getattr(message, "error", None)
        if error is not None:
            from repro.api.protocol import ERROR_CODES

            assert error["code"] in ERROR_CODES
    assert json.loads(encode(message)) == payload


def test_service_doc_error_table_is_complete():
    """The error-code table documents exactly the canonical codes."""
    from repro.api.protocol import ERROR_CODES

    text = SERVICE_DOC.read_text()
    for code in ERROR_CODES:
        assert f"`{code}`" in text, f"service.md does not document {code}"


def test_readme_links_into_docs():
    readme = (REPO_ROOT / "README.md").read_text()
    for page in ("docs/architecture.md", "docs/scenario-format.md",
                 "docs/performance.md"):
        assert page in readme, f"README does not link {page}"
    # CLI drift guards: every current subcommand is documented.
    from repro.cli import build_parser

    parser = build_parser()
    subparsers = next(action for action in parser._actions
                      if hasattr(action, "choices") and action.choices)
    for command in subparsers.choices:
        assert f"{command}" in readme, \
            f"README does not mention the {command!r} subcommand"
