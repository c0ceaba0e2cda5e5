"""Smoke test of the benchmark itself, at tiny sizes.

Runs every workload once with tracing off and the traced pass (which
covers all three workloads) once, checks each result line against
``BENCHMARK.json``, and checks that the benchmark refuses to run
without the program's source.

    python3 perfbench/check_smoke.py
    python3 -m pytest perfbench/check_smoke.py -q

The file name keeps it out of the repository's default test run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BARE = ROOT / ".perfbench-out" / "smoke-bare"


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + list(args)
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout[-3000:]
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    return result


def check_metrics(result: dict, spec: list) -> None:
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)), (m["name"], got)


def test_spec_names_the_workloads() -> None:
    names = {w["name"] for w in SPEC["workloads"]}
    assert names == {"vc_port", "sc_broadcast", "churn_serve"}


def test_end_to_end_tiny() -> None:
    for w in SPEC["workloads"]:
        result = result_of(run(
            "--workload", w["name"], "--seed", "3", "--seconds", "1",
            "--trace", "0", "--size", "tiny"))
        check_metrics(result, SPEC["end_to_end"])
        assert all(result["metrics"][m["name"]]["value"] > 0
                   for m in SPEC["end_to_end"])


def test_traced_tiny() -> None:
    result = result_of(run("--workload", "vc_port", "--seed", "3",
                           "--seconds", "1", "--trace", "1", "--size", "tiny"))
    check_metrics(result, SPEC["per_layer"])
    assert (ROOT / ".perfbench-out" / "vc_port-seed3-trace.json").is_file()


def test_refuses_without_program() -> None:
    shutil.rmtree(BARE, ignore_errors=True)
    BARE.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", BARE)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, BARE / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = run("--workload", "vc_port", "--seed", "0", "--seconds", "1",
               "--trace", "0", cwd=BARE)
    shutil.rmtree(BARE, ignore_errors=True)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
    sys.exit(0)
