"""Smoke test of the loopback benchmark itself.

Runs every workload briefly, traced (which also runs the untraced
reference and prints its end-to-end table), plus one short untraced run,
and checks the output contract: every end-to-end metric printed by name
with its unit and sample count, every correctness check passing, and the
last line's JSON carrying exactly the metrics ``BENCHMARK.json`` lists.

    python3 -m pytest perfbench/test_smoke.py -q     # from the repo root
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT))
from perfbench.run import ALSO_PRINTED, END_TO_END, PER_LAYER  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402
SHORT = {"fanin": 4, "flap": 4, "scrape": 6}  # seconds; scrape pauses are long


def run_bench(workload: str, trace: int, seconds: float) -> tuple:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def check_common(lines, result) -> None:
    assert result["correct"] is True, "\n".join(lines)
    assert result["attempted"] >= 1
    assert result["failed"] >= 0
    assert not [l for l in lines if "check FAIL" in l]
    printed = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    for name, unit in printed + list(ALSO_PRINTED):
        pattern = rf"^\s+{re.escape(name)}\s+\S+\s+{re.escape(unit)}\s+n=\d+$"
        assert any(re.match(pattern, l) for l in lines), name


def test_spec_matches_workloads():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(PER_LAYER)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_emits_every_layer_metric(workload):
    lines, result = run_bench(workload, 1, SHORT[workload])
    check_common(lines, result)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert any("(residual)" in l for l in lines)


def test_untraced_run_emits_every_end_to_end_metric():
    lines, result = run_bench("flap", 0, SHORT["flap"])
    check_common(lines, result)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
