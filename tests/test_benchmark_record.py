"""The benchmark's recorded check lists match what `simulate` reports.

perfbench compares the check names of each oracle-verify run with those in
perfbench/expected.json, so a changed check list would otherwise show up
only at benchmark time, as incorrect outputs.  These tests read the
workload definitions and that record; they write nothing under perfbench/.
"""

import json
from pathlib import Path

import pytest

from stabshare.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _oracle_catalog_items() -> list[dict]:
    """The oracle-verify items that run a catalog code, each with its seed.

    The workload file is executed from its source, so no bytecode is
    cached next to it."""
    path = PERFBENCH / "workloads.py"
    namespace: dict = {}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
         namespace)
    return [item for family in namespace["families"]("oracle-verify")
            for item in family if "catalog" in item["code"]]


ITEMS = _oracle_catalog_items()
EXPECTED = json.loads(
    (PERFBENCH / "expected.json").read_text(encoding="utf-8"))["items"]


def test_the_workload_has_catalog_items():
    # An empty selection would leave the test below with no cases.
    assert ITEMS


@pytest.mark.parametrize("item", ITEMS, ids=lambda item: item["id"])
def test_simulate_checks_match_the_benchmark_record(capsys, item):
    code = item["code"]
    size = ["--n", str(code["n"])] if code["n"] is not None else []
    status = main(["simulate", f"catalog:{code['catalog']}", *size,
                   "--seed", str(item["seed"]), "--check", "all",
                   "--format", "structured"])
    payload = json.loads(capsys.readouterr().out)
    assert status == 0 and payload["passed"] is True
    assert ([rec["check"] for rec in payload["results"]]
            == EXPECTED[item["id"]]["expected"]["checks"])
