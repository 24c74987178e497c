"""One benchmark process: set up a workload, repeat it for a time budget,
check every repetition against the recorded reference, print one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        [--size full|tiny] [--out-dir DIR] [--setup-only]

run.py starts it with src/ on PYTHONPATH and the thread pins set.  With
--setup-only it stops after the workload's set-up, so that run.py can time
interpreter start, `import symphmc` and set-up from outside.  With --trace 1
it alternates untraced and traced repetitions (at least one of each); the
traced ones record spans and give the per-layer metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

import workloads  # imports symphmc

HERE = os.path.dirname(os.path.abspath(__file__))


def load_reference(workload, size: str, variant: int) -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)[workload.name][size][str(variant)]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--out-dir", default=".perfbench_out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    variant = workloads.variant_of(workload, args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    ctx = workload.setup(args.size, variant, os.path.abspath(args.out_dir))
    if args.setup_only:
        return 0
    reference = load_reference(workload, args.size, variant)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    walls = {False: [], True: []}
    layer_reps = []
    checks = []
    deadline = time.perf_counter() + args.seconds
    traced = False
    while True:
        if traced:
            (out, wall), layers = tracer.measure(timed, workload.run, ctx)
            layer_reps.append(layers)
        else:
            out, wall = timed(workload.run, ctx)
        walls[traced].append(wall)
        checks.extend(workload.check(out, reference))
        if time.perf_counter() >= deadline and (tracer is None or walls[True]):
            break
        traced = tracer is not None and not traced

    if tracer is not None:
        layers, repeat = tracing.combine(layer_reps)
        checks.append(("trace counts repeat", repeat))
        _, probe = tracer.measure(workloads.layer_probe, os.path.abspath(args.out_dir))
        layers = tracing.fill_unused_times(layers, probe)
    failed = sum(1 for _, ok in checks if not ok)
    result = {
        "variant": variant,
        "walls": walls[False],
        "traced_walls": walls[True],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(checks),
        "failed": failed,
        "mismatches": sorted({name for name, ok in checks if not ok}),
        "versions": versions(),
    }
    if tracer is not None:
        untraced = statistics.median(walls[False])
        traced_wall = statistics.median(walls[True])
        layers.update({
            "trace.untraced_wall_s": untraced,
            "trace.traced_wall_s": traced_wall,
            "trace.overhead_s": traced_wall - untraced,
            "check.mismatch_frac": failed / len(checks),
        })
        result["layers"] = {k: {"value": v, "unit": tracing.PER_LAYER[k][0]} for k, v in layers.items()}
        spans = os.path.join(args.out_dir, f"spans-{workload.name}-seed{args.seed}.npz")
        tracer.save(spans)
        result["spans_file"] = spans
    print(json.dumps(result))
    return 0


def timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def versions() -> dict:
    import numpy
    import scipy

    import symphmc

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "symphmc": symphmc.__version__,
    }


if __name__ == "__main__":
    sys.exit(main())
