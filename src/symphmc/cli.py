"""Benchmark command line.

Subcommands:
  table2          check the shipped parameter rows (rho norms, stability)
  sweep           Gaussian-target efficiency sweep, CSV output
  tune            minimize the rho metric from a named or explicit seed
  stability       print kernel stability-interval lengths
  rho-scan        emit (h, rho_h) CSV for plotting
  rowlands-order  verify fourth-order decay of the processed scheme

Exit codes: 0 success/pass, 1 acceptance failure, 2 usage error.  The
environment variable SYMPHMC_THREADS caps the sweep worker pool.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import catalog
from .errors import NoDescent
from .fourth_order import POSITIVE_COEFFICIENTS, order_estimate, rowlands_leg
from .harmonic import rho, rho_norm, stability_length
from .hmc import HmcConfig, efficiency_curve
from .splitting import PhaseState
from .targets import anharmonic_model, gaussian_model
from .tuning import tune

USAGE_ERROR = 2

SWEEP_CSV_HEADER = "integrator,d,h,N,grad_per_leg,accepted,proposed,acceptance_pct,accept_per_grad,seed"


class CliUsageError(Exception):
    pass


def _fmt(x: float) -> str:
    """17 significant digits: lossless float round trip."""
    return format(float(x), ".17g")


@dataclass
class ExperimentConfig:
    """Parameters merged from flags and an optional JSON config file; flags win."""

    integrator: Optional[str] = None
    dim: Optional[int] = None
    h: Optional[str] = None
    h_grid: Optional[int] = None
    leg_time: Optional[float] = None
    samples: Optional[int] = None
    seed: Optional[int] = None
    out: Optional[str] = None
    full: Optional[bool] = None
    init: Optional[Sequence[float]] = None

    _FIELDS = ("integrator", "dim", "h", "h_grid", "leg_time", "samples", "seed", "out", "full", "init")

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "ExperimentConfig":
        file_values: dict = {}
        if getattr(args, "config", None):
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    file_values = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise CliUsageError(f"cannot read config {args.config!r}: {exc}") from exc
            if not isinstance(file_values, dict):
                raise CliUsageError(f"config {args.config!r} must hold a JSON object")
            unknown = set(file_values) - set(cls._FIELDS)
            if unknown:
                raise CliUsageError(f"unknown config keys: {sorted(unknown)}")
        merged = {}
        for name in cls._FIELDS:
            flag = getattr(args, name, None)
            merged[name] = flag if flag is not None else file_values.get(name)
        if merged["integrator"] is not None and merged["integrator"] not in catalog.INTEGRATOR_NAMES:
            raise CliUsageError(
                f"unknown integrator {merged['integrator']!r}; choose from {', '.join(catalog.INTEGRATOR_NAMES)}"
            )
        return cls(**merged)

    def h_list(self) -> Optional[list[float]]:
        if self.h is None:
            return None
        value = self.h
        if isinstance(value, (int, float)):
            return [float(value)]
        if isinstance(value, (list, tuple)):
            return [float(v) for v in value]
        tokens = [tok.strip() for tok in str(value).split(",")]
        try:
            return [float(tok) for tok in tokens if tok]
        except ValueError as exc:
            raise CliUsageError(f"bad --h value {value!r}: {exc}") from exc

    def h_scalar(self, default: float) -> float:
        values = self.h_list()
        if values is None:
            return default
        if len(values) != 1:
            raise CliUsageError("this command takes a single --h value")
        return values[0]


def _workers(n_jobs: int) -> int:
    if n_jobs <= 1:
        return 1
    cap_env = os.environ.get("SYMPHMC_THREADS")
    workers = min(os.cpu_count() or 1, n_jobs)
    if cap_env is not None:
        try:
            cap = int(cap_env)
        except ValueError as exc:
            raise CliUsageError(f"SYMPHMC_THREADS must be an integer, got {cap_env!r}") from exc
        workers = min(workers, max(1, cap))
    return workers


def _write_text(out: Optional[str], text: str) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliUsageError(f"cannot write {out!r}: {exc}") from exc


def default_h_grid(name: str, dim: int, points: int = 12) -> list[float]:
    """Geometric grid spanning 0.3 to 0.98 of the stability limit of the
    stiffest mode."""
    integ = catalog.named_integrator(name)
    h_stab = stability_length(integ.kernel)
    return [float(v) for v in np.geomspace(0.3 * h_stab / dim, 0.98 * h_stab / dim, points)]


def cmd_table2(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig.from_args(args)
    lines = []
    all_ok = True
    for row in catalog.REFERENCE_ROWS:
        integ = catalog.named_integrator(row.name)
        norm = rho_norm(integ, row.hbar)
        h_stab = stability_length(integ.kernel)
        ok_rho = norm <= row.rho_bound and norm >= row.rho_bound / 10.0
        ok_stab = abs(h_stab - row.stability) <= 0.005
        all_ok &= ok_rho and ok_stab
        lines.append(
            f"{row.name:<9} hbar={row.hbar:<4} "
            f"rho_norm={norm:.6e} shipped<={row.rho_bound:.0e} [{'PASS' if ok_rho else 'FAIL'}]  "
            f"h_s={h_stab:.4f} shipped={row.stability:.3f}+-0.005 [{'PASS' if ok_stab else 'FAIL'}]"
        )
    report = "\n".join(lines) + "\n"
    _write_text(cfg.out, report)
    if cfg.out is not None:
        sys.stdout.write(report)
    return 0 if all_ok else 1


def cmd_stability(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig.from_args(args)
    names = [cfg.integrator] if cfg.integrator else ["leapfrog"] + [r.name for r in catalog.REFERENCE_ROWS]
    lines = []
    for name in names:
        if name == "rowlands":
            raise CliUsageError("the rowlands scheme has no drift/kick stability scan")
        integ = catalog.named_integrator(name)
        lines.append(f"{name:<9} h_s={stability_length(integ.kernel):.6f}")
    _write_text(cfg.out, "\n".join(lines) + "\n")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig.from_args(args)
    if cfg.integrator is None:
        raise CliUsageError("sweep requires --integrator")
    if cfg.integrator == "rowlands":
        raise CliUsageError("rowlands is not an HMC leg integrator; see rowlands-order")
    dim = int(cfg.dim) if cfg.dim is not None else 1024
    if dim < 1:
        raise CliUsageError(f"--dim must be >= 1, got {dim}")
    leg_time = float(cfg.leg_time) if cfg.leg_time is not None else 5.0
    seed = int(cfg.seed) if cfg.seed is not None else 1
    full = bool(cfg.full)
    if cfg.samples is not None:
        samples = int(cfg.samples)
    else:
        samples = 5000 if (dim <= 1024 or full) else 1000
    h_values = cfg.h_list()
    if h_values is None:
        h_values = default_h_grid(cfg.integrator, dim, int(cfg.h_grid) if cfg.h_grid else 12)

    integ = catalog.named_integrator(cfg.integrator)
    target = gaussian_model(dim)
    lines = [SWEEP_CSV_HEADER]
    if h_values:
        template = HmcConfig(h=h_values[0], n_samples=samples, seed=seed, integrator=integ, leg_time=leg_time)
        points = efficiency_curve(target, integ, h_values, template, workers=_workers(len(h_values)))
        for pt in points:
            lines.append(
                ",".join(
                    (
                        cfg.integrator,
                        str(dim),
                        _fmt(pt.h),
                        str(pt.n_steps),
                        _fmt(pt.grad_per_leg),
                        str(pt.accepted),
                        str(pt.proposed),
                        _fmt(pt.acceptance_pct),
                        _fmt(pt.accept_per_grad),
                        str(pt.seed),
                    )
                )
            )
        best = next(pt for pt in points if pt.best)
        print(
            f"best accept-per-gradient: h={_fmt(best.h)} N={best.n_steps} "
            f"acceptance={best.acceptance_pct:.2f}% accept_per_grad={_fmt(best.accept_per_grad)}",
            file=sys.stderr,
        )
    _write_text(cfg.out, "\n".join(lines) + "\n")
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig.from_args(args)
    hbar = cfg.h_scalar(default=3.0)
    if cfg.init is not None:
        if len(cfg.init) != 3:
            raise CliUsageError("config key 'init' must be [b, c, d]")
        seed_params = tuple(float(v) for v in cfg.init)
    elif cfg.integrator is not None:
        if cfg.integrator in ("leapfrog", "rowlands"):
            raise CliUsageError(f"{cfg.integrator} carries no (b, c, d) seed; pick a reference row")
        row = catalog.row_by_name(cfg.integrator)
        seed_params = (row.b, row.c or 0.0, row.d or 0.0)
    else:
        raise CliUsageError("tune needs --integrator <row> or a config with 'init': [b, c, d]")

    result = tune(hbar, seed_params)
    print(f"hbar={hbar}: b={_fmt(result.b)} c={_fmt(result.c)} d={_fmt(result.d)}")
    print(
        f"rho_norm={result.rho_norm:.6e} at_hbar={result.rho_at_hbar:.6e} "
        f"interior_peak={result.interior_peak:.6e} evaluations={len(result.trace)}"
    )
    if cfg.out is not None:
        payload = {
            "hbar": hbar,
            "b": result.b,
            "c": result.c,
            "d": result.d,
            "rho_norm": result.rho_norm,
            "evaluations": len(result.trace),
        }
        _write_text(cfg.out, json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_rho_scan(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig.from_args(args)
    if cfg.integrator is None:
        raise CliUsageError("rho-scan requires --integrator")
    if cfg.integrator == "rowlands":
        raise CliUsageError("rowlands is not a drift/kick integrator")
    integ = catalog.named_integrator(cfg.integrator)
    h_max = cfg.h_scalar(default=catalog.scan_budget(cfg.integrator))
    points = int(cfg.h_grid) if cfg.h_grid else 1000
    lines = ["h,rho"]
    for h in np.linspace(h_max / points, h_max, points):
        lines.append(f"{_fmt(h)},{_fmt(rho(integ, float(h)))}")
    _write_text(cfg.out, "\n".join(lines) + "\n")
    return 0


def cmd_rowlands_order(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig.from_args(args)
    h0 = cfg.h_scalar(default=0.25)
    t_final = float(cfg.leg_time) if cfg.leg_time is not None else 2.0
    target = anharmonic_model(1)

    processed = order_estimate(target, "processed", t_final, h0, levels=4)
    bare = order_estimate(target, "kernel", t_final, h0, levels=4)
    verlet = order_estimate(target, "verlet", t_final, h0, levels=4)
    positive = all(f > 0 for f in POSITIVE_COEFFICIENTS)

    # per-leg cost of the modified-potential kicks: gradients and
    # Hessian-vector products are billed separately
    cost_target = target.fresh()
    n_cost = max(4, round(t_final / h0))
    rowlands_leg(PhaseState(np.full(1, 0.4), np.full(1, 0.3)), h0, n_cost, cost_target)
    ok = (
        all(3.5 <= v <= 4.5 for v in processed)
        and all(1.7 <= v <= 2.3 for v in bare)
        and positive
    )
    print(f"processed scheme orders: {[round(v, 3) for v in processed]} (target 4)")
    print(f"bare kernel orders:      {[round(v, 3) for v in bare]} (target 2)")
    print(f"velocity verlet orders:  {[round(v, 3) for v in verlet]} (target 2)")
    print(
        f"leg cost at h={h0}, N={n_cost}: {cost_target.grad_evals} gradients, "
        f"{cost_target.hess_evals} hessian-vector products"
    )
    print(f"all substep coefficients positive: {positive}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="symphmc", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--integrator", choices=catalog.INTEGRATOR_NAMES, default=None)
        sp.add_argument("--dim", type=int, default=None)
        sp.add_argument("--h", type=str, default=None,
                        help="step size(s); comma separated where a list is accepted")
        sp.add_argument("--h-grid", dest="h_grid", type=int, default=None,
                        help="number of grid points for generated step-size grids")
        sp.add_argument("--leg-time", dest="leg_time", type=float, default=None,
                        help="leg duration N*h (default 5; rowlands-order uses 2)")
        sp.add_argument("--samples", type=int, default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--config", type=str, default=None, help="JSON config file; flags override")
        sp.add_argument("--out", type=str, default=None)
        sp.add_argument("--full", action="store_true", default=None,
                        help="full-length chains (5000 samples) at every dimension")
        sp.set_defaults(func=func)
        return sp

    add("table2", cmd_table2, "check shipped rho norms and stability lengths")
    add("sweep", cmd_sweep, "Gaussian efficiency sweep; CSV output")
    add("tune", cmd_tune, "minimize the rho metric over (b, c, d)")
    add("stability", cmd_stability, "print kernel stability-interval lengths")
    add("rho-scan", cmd_rho_scan, "emit (h, rho_h) CSV")
    add("rowlands-order", cmd_rowlands_order, "verify fourth-order decay")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliUsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except NoDescent as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
