#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, written to one BENCH_<pr>.json.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --pairs K \\
        --workloads generic-large generic-small --out BENCH_<pr>.json \\
        [--seed S] [--seconds 20] [--size full|tiny]

Pair i runs `perfbench/run.py --workload W --seed S+i --seconds T --trace 0`
once in each checkout, each from its own root and with its own perfbench/;
the parent runs first in even pairs and the change in odd ones.  Every run
is recorded.  Per workload and end-to-end metric (names, direction and
bounds from the change's BENCHMARK.json) the file holds each side's median
and quartiles and the number of pairs the change won, ties counting for
neither, and this script prints whether a gain would meet the rule of
paired measurement: at least 10 pairs, the change wins at least 9 in 10 of
them, and the medians differ by more than the parent's interquartile range.  It also prints
whether the change's median is within the metric's bound of the parent's,
and calls that unresolved where the parent's own spread exceeds the bound.

Both sides start from the same bytecode state, and neither checkout gets a
__pycache__ from this script: each side's processes read and write bytecode
in a fresh PYTHONPYCACHEPREFIX directory of its own (PYTHONDONTWRITEBYTECODE
is dropped, so that directory may fill), and before pair 1 each checkout's
src/ and perfbench/ are compiled into it and one untimed --size tiny run of
each workload caches everything else a run imports.  The BENCH file records
that state under "bytecode".  Exit status 1 when any run, warm-up included,
failed or reported failed checks.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

SIDES = ("parent", "change")
MIN_PAIRS = 10  # fewer pairs than this support no claim of a gain


def load_run_module(root: str):
    """The checkout's perfbench/run.py as a module, for its git_sha and source_digest."""
    spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(root, "perfbench", "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def checkout_pycache(root: str) -> set:
    return {os.path.relpath(os.path.join(d, name), root) for tree in ("src", "perfbench")
            for d, dirs, _ in os.walk(os.path.join(root, tree)) for name in dirs if name == "__pycache__"}


def count_pyc(path: str) -> int:
    return sum(name.endswith(".pyc") for _, _, files in os.walk(path) for name in files)


def prepare_side(root: str, env: dict, workloads: list, seed: int) -> dict:
    """Compile the checkout into the side's bytecode prefix, then warm the
    prefix with one untimed tiny run per workload, so that no measured
    process compiles anything."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"], cwd=root, env=env, check=True,
                   capture_output=True)
    prefix = env["PYTHONPYCACHEPREFIX"]
    tree_pyc = count_pyc(os.path.join(prefix, root.lstrip(os.sep)))
    warm = [run_once(root, workload, seed, 0, "tiny", env)["exit_code"] for workload in workloads]
    return {"tree_pyc": tree_pyc, "pyc_before_pair_1": count_pyc(prefix), "warm_up_exit_codes": warm}


def run_once(root: str, workload: str, seed: int, seconds: float, size: str, env: dict) -> dict:
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0", "--size", size]
    proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)
    record = {"exit_code": proc.returncode, "failed": None, "metrics": None}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
        record["failed"] = result["failed"]
        record["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    else:
        record["stderr"] = proc.stderr[-2000:]
    return record


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs: list, metric: dict) -> dict:
    """Medians, quartiles, wins and the two verdicts of one metric over the
    pairs in which both sides produced it."""
    name, sign = metric["name"], (1.0 if metric["better"] == "lower" else -1.0)
    both = [(p["parent"]["metrics"][name], p["change"]["metrics"][name]) for p in pairs
            if p["parent"]["metrics"] and p["change"]["metrics"]]
    if not both:
        return {"pairs": 0}
    out = {"pairs": len(both)}
    for side, values in zip(SIDES, zip(*both)):
        q1, q3 = quartiles(list(values))
        out[side] = {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": list(values)}
    parent, change = out["parent"], out["change"]
    wins = sum(1 for a, b in both if sign * (a - b) > 0)
    iqr = parent["q3"] - parent["q1"]
    gain = sign * (parent["median"] - change["median"])
    scale = abs(parent["median"]) or 1.0
    worse_by = -gain / scale
    out.update(
        change_better_in=wins,
        median_gain=gain,
        parent_iqr=iqr,
        meets_gain_rule=len(both) >= MIN_PAIRS and wins >= 0.9 * len(both) and gain > iqr,
        relative_worsening=worse_by,
        within_bound=worse_by <= metric["bound"],
        # a spread wider than the bound decides nothing, unless every run of
        # the change beat every run of the parent
        unresolved=iqr / scale > metric["bound"] and max(sign * v for v in change["runs"])
        >= min(sign * v for v in parent["runs"]),
    )
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="root of the parent checkout")
    ap.add_argument("--change", required=True, help="root of the changed checkout")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", type=int, default=1, help="seed of pair 0; pair i uses seed + i")
    ap.add_argument("--seconds", type=float, default=None, help="run length (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    roots = {"parent": os.path.realpath(args.parent), "change": os.path.realpath(args.change)}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-pycache-") as cache_root:
        return measure(args, roots, cache_root)


def measure(args, roots: dict, cache_root: str) -> int:
    with open(os.path.join(roots["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    sys.dont_write_bytecode = True  # loading each checkout's run.py must not cache it in that checkout
    modules = {side: load_run_module(root) for side, root in roots.items()}
    envs = {}
    for side in SIDES:
        envs[side] = dict(os.environ, PYTHONPYCACHEPREFIX=os.path.join(cache_root, side))
        envs[side].pop("PYTHONDONTWRITEBYTECODE", None)
    pycache_before = {side: checkout_pycache(root) for side, root in roots.items()}
    bytecode = {side: prepare_side(roots[side], envs[side], args.workloads, args.seed) for side in SIDES}
    ok = all(code == 0 for side in SIDES for code in bytecode[side]["warm_up_exit_codes"])

    doc = {
        "description": f"perfbench/run.py --seconds {seconds:g} --trace 0 --size {args.size}, parent and change "
                       "alternately, pair i on seed S+i, the side that runs first alternating from pair to pair",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": f"{platform.system()} {platform.machine()}",
        "sides": {side: {"git_sha": modules[side].git_sha(root),
                         "source_sha256": modules[side].source_digest(root)} for side, root in roots.items()},
        "bytecode": {
            "state": "a fresh PYTHONPYCACHEPREFIX per side, outside both checkouts, PYTHONDONTWRITEBYTECODE "
                     "unset; before pair 1: compileall src perfbench, then one untimed --size tiny run per workload",
            "sides": bytecode,
        },
        "workloads": {},
    }
    for workload in args.workloads:
        pairs = []
        for i in range(args.pairs):
            seed = args.seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first_side": order[0]}
            for side in order:
                pair[side] = run_once(roots[side], workload, seed, seconds, args.size, envs[side])
                ok &= pair[side]["exit_code"] == 0 and pair[side]["failed"] == 0
            pairs.append(pair)
        summary = {m["name"]: summarize(pairs, m) for m in bench["end_to_end"]}
        doc["workloads"][workload] = {"pairs": pairs, "summary": summary}
        for m in bench["end_to_end"]:
            s = summary[m["name"]]
            if not s["pairs"]:
                print(f"{workload} {m['name']}: no pair completed")
                continue
            bound = "unresolved" if s["unresolved"] else ("within" if s["within_bound"] else "OUTSIDE")
            print(f"{workload} {m['name']}: parent {s['parent']['median']:.4g} "
                  f"[{s['parent']['q1']:.4g}, {s['parent']['q3']:.4g}] -> change {s['change']['median']:.4g}; "
                  f"change better in {s['change_better_in']}/{s['pairs']} pairs, gain {s['median_gain']:.3g} "
                  f"vs parent IQR {s['parent_iqr']:.3g}: gain rule {'met' if s['meets_gain_rule'] else 'not met'}; "
                  f"{'worse' if s['relative_worsening'] > 0 else 'better'} by {abs(s['relative_worsening']):.1%}, "
                  f"bound {m['bound']:g}: {bound}")
    for side, root in roots.items():
        bytecode[side]["new_checkout_pycache"] = sorted(checkout_pycache(root) - pycache_before[side])
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
