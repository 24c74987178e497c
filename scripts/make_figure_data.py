#!/usr/bin/env python3
"""Generate the Gaussian-benchmark sweep CSVs for all integrators and dims.

Writes one CSV per (integrator, dim) into --out-dir, using the default
geometric step grid.  Desk scale keeps d = 4096 at 1000 samples; --full
passes --samples 5000 to every sweep.
"""
import argparse
import sys
from pathlib import Path

from symphmc.cli import main as cli_main

INTEGRATORS = ("leapfrog", "blcasa", "proc-3.0", "proc-4.5")
DIMS = (256, 1024, 4096)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="figure_data")
    parser.add_argument("--seed", type=int, default=20260809)
    parser.add_argument("--full", action="store_true")
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for dim in DIMS:
        for name in INTEGRATORS:
            out = out_dir / f"sweep_{name}_d{dim}.csv"
            argv = ["sweep", "--integrator", name, "--dim", str(dim),
                    "--seed", str(args.seed), "--out", str(out)]
            if args.full:
                argv += ["--samples", "5000"]
            print(f"-> {out}")
            code = cli_main(argv)
            if code != 0:
                return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
