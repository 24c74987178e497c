#!/usr/bin/env python3
"""symphmc benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size tiny]

Run from the root of a checkout: the library is imported from ./src, not
from an installed copy.  Every process it starts is single threaded (BLAS
pools and SYMPHMC_THREADS pinned to 1) and fresh.

--trace 0 times set-up in SETUP_SAMPLES fresh processes, then runs the
workload in one more and prints the end-to-end metrics.  --trace 1 takes
the import split from `python -X importtime`, runs the workload with spans
around symphmc's public functions, and prints the per-layer metrics.  The
last line of stdout is the JSON result; a record of the run (environment,
versions, every repetition) goes to .perfbench_out/.  See README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
TIME_LIMIT_S = 170.0
PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "SYMPHMC_THREADS": "1",
}


class BenchError(Exception):
    pass


def pinned_env(root: str) -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list, env: dict, deadline: float) -> subprocess.CompletedProcess:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before the workload finished")
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(argv[1:3])} exceeded the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return proc


def importtime_split(env: dict, deadline: float) -> dict:
    """Cumulative import times, in seconds, of symphmc and of scipy.optimize
    when imported after it: inside symphmc's time while `import symphmc`
    loads scipy.optimize, outside it once the import is lazy."""
    samples = {"symphmc": [], "scipy.optimize": []}
    for _ in range(IMPORTTIME_SAMPLES):
        code = "import symphmc; import scipy.optimize"
        proc = run_child([sys.executable, "-X", "importtime", "-c", code], env, deadline)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
        for name in samples:
            samples[name].append(cumulative.get(name, 0.0))
    return {
        "setup.import_symphmc_s": statistics.median(samples["symphmc"]),
        "setup.import_scipy_optimize_s": statistics.median(samples["scipy.optimize"]),
    }


def git_sha(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest(root: str) -> str:
    """SHA-256 over the library's source files: identifies the code where no
    git SHA is available."""
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "symphmc")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs each workload at a small size, for the self-test")
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "symphmc", "__init__.py")):
        print("perfbench: ./src/symphmc not found; run from the root of a symphmc checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    env = pinned_env(root)
    out_dir = os.path.join(root, ".perfbench_out")
    worker = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed), "--size", args.size, "--out-dir", out_dir]

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": len(os.sched_getaffinity(0)),
        "pinned": PINNED,
        "git_sha": git_sha(root),
        "source_sha256": source_digest(root),
    }
    try:
        if args.trace:
            imports = importtime_split(env, deadline)
        else:
            setup = []
            for _ in range(SETUP_SAMPLES):
                t0 = time.perf_counter()
                run_child(worker + ["--seconds", "0", "--setup-only"], env, deadline)
                setup.append(time.perf_counter() - t0)
            record["setup_samples_s"] = setup
        proc = run_child(worker + ["--seconds", str(args.seconds), "--trace", str(args.trace)], env, deadline)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    record.update(result)
    if args.trace:
        metrics = {name: {"value": value, "unit": "s"} for name, value in imports.items()}
        metrics.update(result["layers"])
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(result["walls"]), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    with open(os.path.join(out_dir, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if result["mismatches"]:
        print(f"perfbench: outputs differ from the reference: {result['mismatches']}", file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
