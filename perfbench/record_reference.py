#!/usr/bin/env python3
"""Record the reference outputs every benchmark run is checked against.

    python3 perfbench/record_reference.py

Run from the root of a checkout at the commit whose outputs are the
reference.  Runs each workload once per input variant and size, with the
same thread pins as the benchmark, and rewrites perfbench/reference.json.
"""
import json
import os
import subprocess
import sys

from run import PINNED

os.environ.update(PINNED)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import workloads  # noqa: E402  (numpy reads the thread pins at import)

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    out_dir = os.path.abspath(".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
    reference = {"recorded_at": sha}
    for name, workload in workloads.WORKLOADS.items():
        variants = range(workloads.POOL) if workload.seeded else [0]
        reference[name] = {}
        for size in workload.sizes:
            reference[name][size] = {}
            for variant in variants:
                ctx = workload.setup(size, variant, out_dir)
                out = workload.run(ctx)
                reference[name][size][str(variant)] = out
                print(name, size, variant, json.dumps(out)[:120], file=sys.stderr)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
