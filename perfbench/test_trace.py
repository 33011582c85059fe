"""Two traced runs of the same tiny inputs must give the same counts, byte
for byte; only times may differ.  Run with ``python3 -m pytest perfbench``."""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))

# Runs one tiny traced workload in a fresh process and prints its
# clock-free metrics, plus whether the run checked out.
SCRIPT = """
import json, sys
sys.path.insert(0, {here!r})
import run
from layertrace import CLOCK_FREE
result = run.run({workload!r}, 3, 1, trace=True, tiny=True)
counts = {{name: entry["value"] for name, entry in result["metrics"].items()
          if name in CLOCK_FREE}}
print(json.dumps({{"ok": result["correct"] and result["failed"] == 0,
                  "counts": counts}}, sort_keys=True))
"""


def traced_counts(workload: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(here=HERE, workload=workload)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return proc.stdout.strip().splitlines()[-1]


@pytest.mark.parametrize(
    "workload, busy",
    [("solve", "damks.a6_damks.calls"), ("dalks", "flow.max_quasi_density.calls")],
)
def test_traced_counts_repeat_exactly(workload, busy):
    first, second = traced_counts(workload), traced_counts(workload)
    assert first == second
    parsed = json.loads(first)
    assert parsed["ok"]
    assert parsed["counts"][busy] > 0
