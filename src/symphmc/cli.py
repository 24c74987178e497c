"""Benchmark command line.

Each subcommand takes only the options it reads, as flags or as keys of a
JSON object given with --config; flags win over config values.  Exit codes:
0 success/pass, 1 acceptance failure, 2 usage error.  The environment
variable SYMPHMC_THREADS caps the sweep worker pool.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Optional, Sequence

import numpy as np

from . import catalog
from .errors import NoDescent
from .fourth_order import order_estimate, rowlands_leg
from .harmonic import rho, rho_norm, stability_length
from .hmc import efficiency_curve
from .splitting import FlowSchedule, PhaseState, ProcessedIntegrator, whole
from .targets import anharmonic_model, gaussian_model
from .tuning import tune

USAGE_ERROR = 2

SWEEP_CSV_HEADER = "integrator,d,h,N,grad_per_leg,accepted,proposed,acceptance_pct,accept_per_grad,seed"


def _fmt(x: float) -> str:
    """17 significant digits: lossless float round trip."""
    return format(float(x), ".17g")


def _positive(text: str) -> float:
    x = float(text)
    if not 0.0 < x < math.inf:
        raise ValueError("must be positive and finite")
    return x


def _steps(text: str) -> list[float]:
    """Comma-separated positive finite steps, at least one; empty tokens are skipped."""
    steps = [_positive(tok) for tok in text.split(",") if tok.strip()]
    if not steps:
        raise ValueError("must list at least one step")
    return steps


def _init(text: str) -> tuple[float, float, float]:
    values = tuple(float(tok) for tok in text.split(","))
    if len(values) != 3 or not all(map(math.isfinite, values)):
        raise ValueError("must be three finite numbers [b, c, d]")
    return values


def _out(text: str) -> str:
    """A file in an existing, writable directory, checked before any work; creates nothing."""
    folder = os.path.dirname(text) or "."
    if not text or os.path.isdir(text):
        raise ValueError("must name a file, not a directory")
    if not (os.path.isdir(folder) and os.access(folder, os.W_OK | os.X_OK)):
        raise ValueError(f"directory {folder!r} is missing or not writable")
    return text


def _integrator(text: str) -> str:
    if text not in catalog.INTEGRATOR_NAMES:
        raise ValueError(f"choose from {', '.join(catalog.INTEGRATOR_NAMES)}")
    return text


# Each option's converter and flag help.  A flag's text, a config value (as
# the text the flag would carry) and a default all pass through the one
# converter.  `init` has no flag: it is a config key of `tune` only.
OPTIONS = {
    "integrator": (_integrator, f"integrator name: {', '.join(catalog.INTEGRATOR_NAMES)}"),
    "dim": (lambda text: whole(int(text), "the value", 1), "target dimension"),
    "h": (_steps, "step size(s); comma separated where a list is accepted"),
    "h_grid": (lambda text: whole(int(text), "the value", 1), "number of points of the generated step-size grid"),
    "leg_time": (_positive, "leg duration N*h"),
    "samples": (lambda text: whole(int(text), "the value", 1), "chain length (default 5000 up to d=1024, else 1000)"),
    "seed": (lambda text: whole(int(text), "the value", 0), "base seed; chain i uses seed ^ i"),
    "out": (_out, "output file (default stdout)"),
    "init": (_init, None),
}


def _flag_text(value) -> str:
    """The text a flag would carry for a JSON config value."""

    def number(v) -> bool:
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    if isinstance(value, str):
        return value
    if number(value):
        return repr(value)
    if isinstance(value, list) and all(map(number, value)):
        return ",".join(map(repr, value))
    raise ValueError("expected a number, a string or a list of numbers")


def _read_config(path: Optional[str], names: Sequence[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            values = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read config {path!r}: {exc}") from exc
    if not isinstance(values, dict):
        raise ValueError(f"config {path!r} must hold a JSON object")
    unknown = set(values) - set(names)
    if unknown:
        raise ValueError(f"config keys this command does not take: {sorted(unknown)}")
    return values


def _options(args: argparse.Namespace) -> dict:
    """The command's options, converted: from its flag, else its config key,
    else its default; an option with none of these is left out."""
    config = _read_config(args.config, list(args.defaults))
    opts = {}
    for name, default in args.defaults.items():
        flag = getattr(args, name, None)
        if flag is not None:
            raw, where = flag, "--" + name.replace("_", "-")
        elif name in config:
            raw, where = config[name], f"config key {name!r}"
        elif default is not None:
            raw, where = default, "default"
        else:
            continue
        convert = OPTIONS[name][0]
        try:
            opts[name] = convert(_flag_text(raw))
        except ValueError as exc:
            raise ValueError(f"bad {where} value {json.dumps(raw)}: {exc}") from exc
    return opts


def _single_h(steps: list[float]) -> float:
    if len(steps) != 1:
        raise ValueError("this command takes a single --h value")
    return steps[0]


def _workers(n_jobs: int) -> int:
    cap = os.environ.get("SYMPHMC_THREADS")
    try:
        cap = n_jobs if cap is None else int(cap)
    except ValueError as exc:
        raise ValueError(f"SYMPHMC_THREADS must be an integer, got {cap!r}") from exc
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(usable, n_jobs, cap))


def _write_text(out: Optional[str], text: str) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {out!r}: {exc}") from exc


def default_h_grid(name: str, dim: int, points: int = 12) -> list[float]:
    """Geometric grid spanning 0.3 to 0.98 of the stability limit of the
    stiffest mode."""
    integ = catalog.named_integrator(name)
    h_stab = stability_length(integ.kernel)
    return [float(v) for v in np.geomspace(0.3 * h_stab / dim, 0.98 * h_stab / dim, points)]


def cmd_table2(opts: dict) -> int:
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
    _write_text(opts.get("out"), report)
    if "out" in opts:
        sys.stdout.write(report)
    return 0 if all_ok else 1


def cmd_stability(opts: dict) -> int:
    names = [opts["integrator"]] if "integrator" in opts else catalog.INTEGRATOR_NAMES
    lines = []
    for name in names:
        integ = catalog.named_integrator(name)
        lines.append(f"{name:<9} h_s={stability_length(integ.kernel):.6f}")
    _write_text(opts.get("out"), "\n".join(lines) + "\n")
    return 0


def cmd_sweep(opts: dict) -> int:
    name = opts.get("integrator")
    if name is None:
        raise ValueError("sweep requires --integrator")
    dim = opts["dim"]
    samples = opts.get("samples", 5000 if dim <= 1024 else 1000)
    h_values = opts.get("h")
    if h_values is None:
        h_values = default_h_grid(name, dim, opts["h_grid"])

    points = efficiency_curve(gaussian_model(dim), h_values, catalog.named_integrator(name), samples,
                              opts["seed"], opts["leg_time"], workers=_workers(len(h_values)))
    lines = [SWEEP_CSV_HEADER]
    for st in points:
        fields = (name, str(dim), _fmt(st.cfg.h), str(st.cfg.n_steps), _fmt(st.grad_per_leg), str(st.accepted),
                  str(st.proposed), _fmt(100.0 * st.acceptance_rate), _fmt(st.accept_per_grad), str(st.seed))
        lines.append(",".join(fields))
    best = max(points, key=lambda st: st.accept_per_grad)  # the first maximum
    print(f"best accept-per-gradient: h={_fmt(best.cfg.h)} N={best.cfg.n_steps} acceptance="
          f"{100.0 * best.acceptance_rate:.2f}% accept_per_grad={_fmt(best.accept_per_grad)}", file=sys.stderr)
    _write_text(opts.get("out"), "\n".join(lines) + "\n")
    return 0


def cmd_tune(opts: dict) -> int:
    hbar = _single_h(opts["h"])
    name = opts.get("integrator")
    if "init" in opts:
        seed_params = opts["init"]
    elif name is not None:
        row = catalog.row_by_name(name)
        seed_params = (row.b, row.c, row.d)
    else:
        raise ValueError("tune needs --integrator <row> or a config with 'init': [b, c, d]")

    result = tune(hbar, seed_params)
    if result.rho_norm < np.finfo(float).eps ** 2:
        raise ValueError(f"hbar={hbar} is too small: the tuned rho_norm {result.rho_norm:.6e} is below eps^2, "
                         "so (b, c, d) follow rounding noise")
    print(f"hbar={hbar}: b={_fmt(result.b)} c={_fmt(result.c)} d={_fmt(result.d)}")
    print(f"rho_norm={result.rho_norm:.6e} at_hbar={result.rho_at_hbar:.6e} "
          f"interior_peak={result.interior_peak:.6e} evaluations={len(result.trace)}")
    if "out" in opts:
        payload = {"hbar": hbar, "b": result.b, "c": result.c, "d": result.d,
                   "rho_norm": result.rho_norm, "evaluations": len(result.trace)}
        _write_text(opts["out"], json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_rho_scan(opts: dict) -> int:
    name = opts.get("integrator")
    if name is None:
        raise ValueError("rho-scan requires --integrator")
    integ = catalog.named_integrator(name)
    h_max = _single_h(opts["h"]) if "h" in opts else catalog.scan_budget(name)
    hs = np.linspace(h_max / opts["h_grid"], h_max, opts["h_grid"])
    lines = ["h,rho"]
    for h, value in zip(hs, rho(integ, hs)):
        lines.append(f"{_fmt(h)},{_fmt(value)}")
    _write_text(opts.get("out"), "\n".join(lines) + "\n")
    return 0


def cmd_rowlands_order(opts: dict) -> int:
    h0 = _single_h(opts["h"])
    t_final = opts["leg_time"]
    target = anharmonic_model(1)

    rowlands = catalog.named_integrator("rowlands")
    processed = order_estimate(target, rowlands, t_final, h0)
    bare = order_estimate(target, ProcessedIntegrator(rowlands.kernel, FlowSchedule()), t_final, h0)
    verlet = order_estimate(target, catalog.named_integrator("leapfrog"), t_final, h0)
    # a drift or plain kick carries weights (1, 0); a modified kick needs both positive
    positive = all(f.coefficient > 0 and ((f.b_mod, f.c_mod) == (1.0, 0.0) or min(f.b_mod, f.c_mod) > 0)
                   for f in (*rowlands.pre, *rowlands.kernel))

    # per-leg cost of the modified-potential kicks: gradients and
    # Hessian-vector products are billed separately
    cost_target = target.fresh()
    n_cost = round(t_final / h0)
    rowlands_leg(PhaseState(np.full(1, 0.4), np.full(1, 0.3)), h0, n_cost, cost_target)
    ok = all(3.5 <= v <= 4.5 for v in processed) and all(1.7 <= v <= 2.3 for v in bare) and positive
    print(f"processed scheme orders: {[round(v, 3) for v in processed]} (target 4)")
    print(f"bare kernel orders:      {[round(v, 3) for v in bare]} (target 2)")
    print(f"velocity verlet orders:  {[round(v, 3) for v in verlet]} (target 2)")
    print(f"leg cost at h={h0}, N={n_cost}: {cost_target.grad_evals} gradients, "
          f"{cost_target.hess_evals} hessian-vector products")
    print(f"all substep coefficients positive: {positive}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


# Each command: handler, help, and the options it reads with their defaults
# as flag text (None: no default).  Every command also takes --config.
COMMANDS = {
    "table2": (cmd_table2, "check shipped rho norms and stability lengths", {"out": None}),
    "stability": (cmd_stability, "print kernel stability-interval lengths", {"integrator": None, "out": None}),
    "sweep": (cmd_sweep, "Gaussian efficiency sweep; CSV output", {
        "integrator": None, "dim": "1024", "h": None, "h_grid": "12", "leg_time": "5",
        "samples": None, "seed": "1", "out": None,
    }),
    "tune": (cmd_tune, "minimize the rho metric over (b, c, d)", {
        "integrator": None, "h": "3.0", "out": None, "init": None,
    }),
    "rho-scan": (cmd_rho_scan, "emit (h, rho_h) CSV", {"integrator": None, "h": None, "h_grid": "1000", "out": None}),
    "rowlands-order": (cmd_rowlands_order, "verify fourth-order decay", {"h": "0.25", "leg_time": "2"}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="symphmc", description=__doc__, allow_abbrev=False,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_text, defaults) in COMMANDS.items():
        sp = sub.add_parser(command, help=help_text, allow_abbrev=False)
        for name, default in defaults.items():
            flag, flag_help = "--" + name.replace("_", "-"), OPTIONS[name][1]
            if flag_help is None:
                continue
            if default is not None:
                flag_help += f" (default {default})"
            sp.add_argument(flag, dest=name, help=flag_help)
        sp.add_argument("--config", help=f"JSON object with keys {', '.join(defaults)}; flags override")
        sp.set_defaults(func=func, defaults=defaults)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(_options(args))
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except NoDescent as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
