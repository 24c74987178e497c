"""Derivative-free tuning of the processed family against the rho metric.

The objective is the exact maximum of rho over (0, hbar], taken at hbar or
at a critical point of rho (no grid, no smoothed surrogate), minimized over
(b, c, d) with a Nelder-Mead simplex seeded at the caller's initial point.
The simplex is this module's own and takes the steps of SciPy's non-adaptive
Nelder-Mead, so its iterates are SciPy's bit for bit.  Unstable or
degenerate parameter sets evaluate to +inf, which keeps the objective
totally ordered.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateParameter, NoDescent
from .harmonic import _rho_profile, rho_norm
from .splitting import processed_family

FATOL, XATOL = 1e-12, 1e-10  # Nelder-Mead stopping tolerances on the objective and on (b, c, d)


@dataclass(frozen=True)
class TuneResult:
    b: float
    c: float
    d: float
    rho_norm: float
    hbar: float
    trace: np.ndarray = field(compare=False)  # (evaluations, 4) rows of b, c, d, objective
    rho_at_hbar: float
    interior_peak: float


def evaluate(b: float, c: float, d: float, hbar: float) -> float:
    """rho_norm of the (b, c, d) family member; +inf when unstable inside
    (0, hbar].  Raises DegenerateParameter exactly where 6.0*b - 1.0 == 0.0:
    every other finite (b, c, d) builds, so it returns a float."""
    return rho_norm(processed_family(b, c, d), hbar)


class _EvalCap(Exception):
    pass


def _sorted(sim: np.ndarray, fsim: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    order = np.argsort(fsim)
    return np.take(sim, order, 0), np.take(fsim, order, 0)


def _nelder_mead(
    f: Callable[[np.ndarray], float], simplex: np.ndarray, max_iter: int, max_eval: int
) -> tuple[np.ndarray, float]:
    """Minimize f from the given (n+1, n) simplex; return the best vertex and
    its value.

    The steps of SciPy's minimize(method="Nelder-Mead") without `adaptive`
    (Nelder & Mead, Comput. J. 7, 1965): reflect 1, expand 2,
    outside and inside contraction 1/2, shrink 1/2; the same ordering, the
    same XATOL/FATOL stopping test, and at most max_iter - 1 iterations.  The
    evaluation cap is checked before every call, and reaching it ends the
    iteration under way.
    """
    sim = np.array(simplex, dtype=float)
    n = sim.shape[1]
    fsim = np.full(n + 1, np.inf)
    calls = 0

    def call(x: np.ndarray) -> float:
        nonlocal calls
        if calls >= max_eval:
            raise _EvalCap
        calls += 1
        return f(x)

    try:
        for k in range(n + 1):
            fsim[k] = call(sim[k])
    except _EvalCap:
        pass
    sim, fsim = _sorted(*_sorted(sim, fsim))  # SciPy sorts twice before the first iteration

    iterations = 1
    while calls < max_eval and iterations < max_iter:
        try:
            if np.max(np.abs(sim[1:] - sim[0])) <= XATOL and np.max(np.abs(fsim[0] - fsim[1:])) <= FATOL:
                break
            xbar = sim[:-1].sum(axis=0) / n
            xr = 2.0 * xbar - sim[-1]
            fxr = call(xr)
            if fxr < fsim[0]:
                xe = 3.0 * xbar - 2.0 * sim[-1]
                fxe = call(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = call(xc)
                    accept = fxc <= fxr
                else:
                    xc = 0.5 * xbar + 0.5 * sim[-1]
                    fxc = call(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = call(sim[j])
            iterations += 1
        except _EvalCap:
            pass
        sim, fsim = _sorted(sim, fsim)
    return sim[0], float(np.min(fsim))


def tune(hbar: float, init: Sequence[float], restarts: int = 2, max_iter: int = 2000) -> TuneResult:
    """Minimize evaluate(b, c, d, hbar) from the given seed.

    Runs the in-repo Nelder-Mead simplex (SciPy's non-adaptive steps) with
    initial size 1e-2 per coordinate, then the given number of deterministic
    restarts from the incumbent with a tenfold smaller simplex, each capped
    at max_iter iterations and 2 * max_iter evaluations.  Never returns an
    objective worse than the seed's.

    The result's `trace` is a read-only float64 array of shape
    (evaluations, 4), one row per objective evaluation in the order made
    (the seed's own check excluded), with columns b, c, d and the objective:
    32 bytes per evaluation.
    """
    b0, c0, d0 = (float(v) for v in init)
    f_init = evaluate(b0, c0, d0, hbar)
    if not math.isfinite(f_init):
        raise NoDescent(f"objective is not finite at {(b0, c0, d0)} for hbar={hbar}")

    import array  # here, not at module top: processes that never tune do not pay for it

    trace = array.array("d")

    def objective(x: np.ndarray) -> float:
        try:
            value = evaluate(x[0], x[1], x[2], hbar)
        except DegenerateParameter:
            value = math.inf
        trace.extend((x[0], x[1], x[2], value))
        return value

    best_x = np.array([b0, c0, d0])
    best_f = f_init
    size = 1e-2
    for _ in range(restarts + 1):
        simplex = np.vstack([best_x] + [best_x + size * np.eye(3)[i] for i in range(3)])
        x, fx = _nelder_mead(objective, simplex, max_iter, 2 * max_iter)
        if fx < best_f:
            best_f, best_x = fx, x
        size *= 0.1

    norm, at_hbar, interior = _rho_profile(processed_family(*best_x), float(hbar))
    rows = np.frombuffer(trace, dtype=float).reshape(-1, 4)
    rows.flags.writeable = False
    return TuneResult(
        b=float(best_x[0]),
        c=float(best_x[1]),
        d=float(best_x[2]),
        rho_norm=norm,
        hbar=float(hbar),
        trace=rows,
        rho_at_hbar=at_hbar,
        interior_peak=interior,
    )


def continuation_sweep(hbars: Sequence[float], init: Sequence[float]) -> list[TuneResult]:
    """Chain tune calls over increasing budgets, seeding each from the
    previous optimum.  Every budget is checked before the first tune."""
    budgets = [float(x) for x in hbars]
    if not all(0.0 < b < math.inf for b in budgets) or any(b2 <= b1 for b1, b2 in zip(budgets, budgets[1:])):
        raise ValueError(f"hbar values must be positive, finite and strictly increasing, got {budgets}")
    results: list[TuneResult] = []
    seed = tuple(float(v) for v in init)
    for hbar in budgets:
        result = tune(hbar, seed)
        results.append(result)
        seed = (result.b, result.c, result.d)
    return results
