#!/usr/bin/env python3
"""Re-derive the processed-family parameter rows by continuation.

Starts from the budget-3 row and chains the tuner over increasing budgets,
printing the resulting parameters next to the shipped values.
"""
import argparse
import sys

from symphmc.catalog import REFERENCE_ROWS, row_by_name
from symphmc.tuning import continuation_sweep


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budgets", default="3.0,3.5,4.0,4.5")
    args = parser.parse_args()
    try:
        budgets = [float(tok) for tok in args.budgets.split(",") if tok.strip()]
    except ValueError:
        parser.error(f"--budgets must be comma-separated numbers, got {args.budgets!r}")
    if not budgets:
        parser.error("--budgets names no budget")

    seed_row = row_by_name("proc-3.0")
    try:
        results = continuation_sweep(budgets, (seed_row.b, seed_row.c, seed_row.d))
    except ValueError as exc:
        parser.error(str(exc))
    shipped = {row.hbar: row for row in REFERENCE_ROWS[1:]}
    print(f"{'hbar':>5} {'b':>12} {'c':>12} {'d':>12} {'rho_norm':>12} {'shipped':>9}")
    for res in results:
        bound = shipped[res.hbar].rho_bound if res.hbar in shipped else float("nan")
        print(
            f"{res.hbar:5.1f} {res.b:12.6f} {res.c:12.6f} {res.d:12.6f} "
            f"{res.rho_norm:12.3e} {bound:9.0e}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
