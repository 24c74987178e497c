#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Run from the root of a checkout.  For every workload it runs run.py with
--size tiny in both modes and asserts that the result has exactly the keys
correct, attempted, failed and metrics, that every metric BENCHMARK.json
names is emitted with its unit, that the outputs match the recorded
reference (mismatch_frac == 0), and that the exact counts repeat between
two traced runs.  It also checks
that run.py fails, printing no result, in a directory that holds only the
benchmark.  Takes about two minutes.
"""
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import EXACT_COUNTS, PER_LAYER  # noqa: E402


def run(workload: str, trace: int, seed: int = 1, cwd: str = ".") -> subprocess.CompletedProcess:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(result: dict, expected: dict) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert set(result["metrics"]) == set(expected), set(result["metrics"]) ^ set(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name], (name, metric["unit"])
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), (name, metric)


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == PER_LAYER

    for workload in (w["name"] for w in bench["workloads"]):
        check_result(result_of(run(workload, 0)), end_to_end)
        traced = [result_of(run(workload, 1)) for _ in range(2)]
        for result in traced:
            check_result(result, per_layer)
            assert result["metrics"]["check.mismatch_frac"]["value"] == 0
        for name in EXACT_COUNTS:
            assert traced[0]["metrics"][name] == traced[1]["metrics"][name], name
        print(f"{workload}: ok", file=sys.stderr)

    bare = os.path.abspath(os.path.join(".perfbench_out", "bare"))
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(path, os.path.join(bare, path), ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bench["workloads"][0]["name"], 0, cwd=bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    shutil.rmtree(bare)
    print("bare directory: fails without a result", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
