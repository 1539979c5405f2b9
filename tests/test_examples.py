"""Smoke tests: the example scripts must run and produce their
headline output.  Guards against API drift rotting the examples.

Only the fast examples run here (the clickstream example mines
kosarak exactly and belongs to a manual pass); each is executed in a
subprocess exactly as a user would run it.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py", "1.0", "20")
        assert "false negative rate" in out
        assert "median relative error" in out
        assert "lambda" in out

    def test_bring_your_own_data(self):
        out = run_example("bring_your_own_data.py")
        assert "released" in out
        assert "rank,itemset,size" in out

    def test_market_basket(self):
        out = run_example("market_basket_release.py", "1.0")
        assert "association rules" in out
        assert "PrivBasis finds" in out

    def test_census_attributes(self):
        out = run_example("census_attributes.py")
        assert "consistent?" in out
        assert "epsilon" in out

    def test_serving_session(self):
        out = run_example("serving_session.py", "--smoke")
        assert "serving a batch" in out
        assert "over-budget request refused" in out
        assert "cache info" in out

    def test_streaming_ingest(self):
        out = run_example("streaming_ingest.py", "--smoke")
        assert "session at v0" in out
        assert "v2:" in out  # releases advanced with the feed
        assert "historical snapshot v0" in out

    def test_planned_release(self):
        out = run_example("planned_release.py", "--smoke")
        assert "dry-run pricing" in out
        assert "ledger untouched after planning" in out
        assert "traced release" in out
        assert "ledger after release" in out
