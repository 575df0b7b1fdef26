"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=300, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run(workload, trace):
    """One round of every workload: no failures, every declared metric."""
    result = bench("--workload", workload, "--seed", str(run.DEFAULT_SEED), "--seconds", "0.1",
                   "--trace", str(trace))
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared


def corrupt(report):
    """Add one to the first integer of the results block (depth first, keys
    sorted): a report that is wrong in one number."""
    def walk(node):
        items = sorted(node.items()) if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            if isinstance(value, int) and not isinstance(value, bool):
                node[key] = value + 1
                return True
            if isinstance(value, (dict, list)) and walk(value):
                return True
        return False

    assert walk(report["results"])
    return report


@pytest.mark.parametrize("group", [workloads.cover_calls, workloads.gomory_hu_calls])
def test_checker_fails_corrupted_reports(group, tmp_path):
    from ordolab import cli

    calls = group(random.Random(5), run.writer(str(tmp_path)))
    honest = run.run_round(calls, cli.run)
    assert all(o.ok for o in honest)
    corrupted = run.run_round(calls, lambda argv: (corrupt(cli.run(argv)[0]), 0))
    assert [o.ok for o in corrupted] == [False] * len(calls)
    assert all(o.error.startswith(("check failed", "malformed report")) for o in corrupted)


def test_tracer_restores_the_program():
    from ordolab import cli, partition, sfm

    originals = (partition.minimize_offset, sfm.minimize_offset, cli.run)
    with Tracer().installed():
        assert partition.minimize_offset is not originals[0]
        assert partition.minimize_offset is sfm.minimize_offset
    assert (partition.minimize_offset, sfm.minimize_offset, cli.run) == originals


def test_runs_fail_without_the_program(tmp_path):
    """A checkout holding only the benchmark exits non-zero, printing no result."""
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cuts", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode != 0 and proc.stdout == ""
