"""Derivative-free tuning of the processed family against the rho metric.

The objective is the exact maximum of rho over (0, hbar], taken at hbar or
at a critical point of rho (no grid, no smoothed surrogate), minimized over
(b, c, d) with a Nelder-Mead simplex seeded at the caller's initial point.  Unstable or
degenerate parameter sets evaluate to +inf, which keeps the objective
totally ordered.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateParameter, NoDescent
from .harmonic import _rho_profile, rho_norm
from .splitting import processed_family

TraceEntry = tuple[int, tuple[float, float, float], float]
FATOL, XATOL = 1e-12, 1e-10  # Nelder-Mead stopping tolerances on the objective and on (b, c, d)


@dataclass(frozen=True)
class TuneResult:
    b: float
    c: float
    d: float
    rho_norm: float
    hbar: float
    trace: tuple[TraceEntry, ...]
    rho_at_hbar: float
    interior_peak: float

    @property
    def interior_dominated(self) -> bool:
        """No interior critical point of rho exceeds the value at hbar (to
        1e-12), the shape the continuation procedure maintains."""
        return self.interior_peak <= self.rho_at_hbar + 1e-12


def evaluate(b: float, c: float, d: float, hbar: float) -> float:
    """rho_norm of the (b, c, d) family member; +inf when unstable inside
    (0, hbar].  Raises DegenerateParameter at 6b - 1 = 0."""
    return rho_norm(processed_family(b, c, d), hbar)


def tune(hbar: float, init: Sequence[float], restarts: int = 2, max_iter: int = 2000) -> TuneResult:
    """Minimize evaluate(b, c, d, hbar) from the given seed.

    Runs a Nelder-Mead simplex with initial size 1e-2 per coordinate, then
    the given number of deterministic restarts from the incumbent with a
    tenfold smaller simplex.  Never returns an objective worse than the
    seed's.
    """
    # scipy.optimize dominates `import symphmc`; only the tuner needs it
    from scipy.optimize import minimize

    b0, c0, d0 = (float(v) for v in init)
    f_init = evaluate(b0, c0, d0, hbar)
    if not math.isfinite(f_init):
        raise NoDescent(f"objective is not finite at {(b0, c0, d0)} for hbar={hbar}")

    trace: list[TraceEntry] = []

    def objective(x: np.ndarray) -> float:
        try:
            value = evaluate(x[0], x[1], x[2], hbar)
        except DegenerateParameter:
            value = math.inf
        trace.append((len(trace), (float(x[0]), float(x[1]), float(x[2])), value))
        return value

    best_x = np.array([b0, c0, d0])
    best_f = f_init
    size = 1e-2
    for _ in range(restarts + 1):
        simplex = np.vstack([best_x] + [best_x + size * np.eye(3)[i] for i in range(3)])
        res = minimize(
            objective,
            best_x,
            method="Nelder-Mead",
            options={
                "initial_simplex": simplex,
                "fatol": FATOL,
                "xatol": XATOL,
                "maxiter": max_iter,
                "maxfev": 2 * max_iter,
            },
        )
        if res.fun < best_f:
            best_f = float(res.fun)
            best_x = np.asarray(res.x, dtype=float)
        size *= 0.1

    norm, at_hbar, interior = _rho_profile(processed_family(*best_x), float(hbar))
    return TuneResult(
        b=float(best_x[0]),
        c=float(best_x[1]),
        d=float(best_x[2]),
        rho_norm=norm,
        hbar=float(hbar),
        trace=tuple(trace),
        rho_at_hbar=at_hbar,
        interior_peak=interior,
    )


def continuation_sweep(hbars: Sequence[float], init: Sequence[float]) -> list[TuneResult]:
    """Chain tune calls over increasing budgets, seeding each from the
    previous optimum."""
    budgets = [float(x) for x in hbars]
    if any(b2 <= b1 for b1, b2 in zip(budgets, budgets[1:])):
        raise ValueError("hbar values must be strictly increasing")
    results: list[TuneResult] = []
    seed = tuple(float(v) for v in init)
    for hbar in budgets:
        result = tune(hbar, seed)
        results.append(result)
        seed = (result.b, result.c, result.d)
    return results
