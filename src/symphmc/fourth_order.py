"""Fourth-order positive-coefficient integration via modified-potential kicks.

The kernel is a velocity-Verlet-shaped step whose kicks use the modified
potential b*V - h^2*c*(grad V)^T M^{-1} (grad V) at (b, c) = (1/2, 1/48).
Folding one kernel step into the preprocessor gives the map kappa, so a leg
of N steps runs kappa, N-2 kernel steps, then the adjoint of kappa; every
substep coefficient is strictly positive, yet the processed leg converges
at fourth order while the bare kernel is second order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .catalog import leapfrog_integrator
from .errors import InsufficientSteps
from .splitting import (
    ElementaryFlow,
    FlowKind,
    FlowSchedule,
    PhaseState,
    _leg_flows,
    _run_flows,
    drift,
    kick,
    modified_kick,
)
from .targets import GaussianModel, TargetModel

KERNEL_KICK_B = Fraction(1, 2)
KERNEL_KICK_C = Fraction(1, 48)
KAPPA_ALPHA_1 = Fraction(6, 7)
KAPPA_BETA_1 = Fraction(23, 72)
KAPPA_GAMMA_1 = Fraction(55, 1728)
KAPPA_ALPHA_2 = Fraction(1, 7)
KAPPA_BETA_2 = Fraction(49, 72)

POSITIVE_COEFFICIENTS = (
    KERNEL_KICK_B,
    KERNEL_KICK_C,
    KAPPA_ALPHA_1,
    KAPPA_BETA_1,
    KAPPA_GAMMA_1,
    KAPPA_ALPHA_2,
    KAPPA_BETA_2,
)

@dataclass(frozen=True)
class RowlandsScheme:
    kernel: FlowSchedule
    kappa: FlowSchedule
    kappa_star: FlowSchedule


def rowlands_scheme() -> RowlandsScheme:
    mk = modified_kick(1.0, float(KERNEL_KICK_B), float(KERNEL_KICK_C))
    kernel = FlowSchedule((mk, drift(1.0), mk))
    kappa = FlowSchedule(
        (
            modified_kick(1.0, float(KAPPA_BETA_1), float(KAPPA_GAMMA_1)),
            drift(float(KAPPA_ALPHA_1)),
            kick(float(KAPPA_BETA_2)),
            drift(float(KAPPA_ALPHA_2)),
        )
    )
    return RowlandsScheme(kernel=kernel, kappa=kappa, kappa_star=kappa.adjoint())


def modified_force(q: np.ndarray, b_mod: float, c_mod: float, h: float, target: TargetModel) -> np.ndarray:
    """Gradient of the modified potential:
    b*grad V - 2 h^2 c * HessV M^{-1} grad V."""
    q = np.asarray(q, dtype=float)
    g = target.gradient(q)
    if c_mod == 0.0:
        return b_mod * g
    hvp = target.hessian_vec(q, target.inv_mass_apply(g))
    return b_mod * g - (2.0 * c_mod * h * h) * hvp


def effective_kick_coefficient(f: ElementaryFlow, h: float) -> float:
    """Kick slope of a flow on the unit oscillator (V = q^2/2, M = 1), where
    the modified force is (b_mod - 2 h^2 c_mod) q."""
    if f.kind is FlowKind.KICK:
        return f.coefficient
    if f.kind is FlowKind.MODIFIED_KICK:
        return f.coefficient * (f.b_mod - 2.0 * f.c_mod * h * h)
    raise ValueError("drifts have no kick coefficient")


def _run_leg(
    state: PhaseState,
    pre: FlowSchedule,
    kernel: FlowSchedule,
    n: int,
    post: FlowSchedule,
    h: float,
    target: TargetModel,
) -> PhaseState:
    q, p = _run_flows(state.q, state.p, _leg_flows(pre, kernel, n, post), h, target)
    return PhaseState(q, p)


def rowlands_leg(
    state: PhaseState,
    h: float,
    n_steps: int,
    target: TargetModel,
    scheme: Optional[RowlandsScheme] = None,
) -> PhaseState:
    """Processed leg kappa* . kernel^(N-2) . kappa spanning time N*h."""
    if n_steps < 2:
        raise InsufficientSteps("the processed leg needs n_steps >= 2")
    if scheme is None:
        scheme = rowlands_scheme()
    return _run_leg(state, scheme.kappa, scheme.kernel, n_steps - 2, scheme.kappa_star, h, target)


def order_estimate(
    target: TargetModel, scheme: str = "processed", t_final: float = 2.0, h0: float = 0.25, levels: int = 4
) -> list[float]:
    """Observed convergence orders over successive halvings of the step,
    from q = 0.4, p = 0.3 in every coordinate.

    scheme is 'processed' (the full fourth-order leg), 'kernel' (the bare
    modified kernel, second order), or 'verlet'.  The reference solution is
    the exact flow for Gaussian targets and a processed run at h0/64
    otherwise.  Returns levels-1 values of log2(err_k / err_{k+1}).
    """
    if levels < 2:
        raise ValueError("need at least two levels")
    n0 = round(t_final / h0)
    if abs(n0 * h0 - t_final) > 1e-12 * max(1.0, t_final) or n0 < 4 or n0 % 2:
        raise ValueError("choose h0 so that t_final/h0 is an even integer >= 4")
    if scheme not in ("processed", "kernel", "verlet"):
        raise ValueError(f"unknown scheme {scheme!r}")

    initial_state = PhaseState(np.full(target.dim, 0.4), np.full(target.dim, 0.3))
    rs = rowlands_scheme()
    verlet = leapfrog_integrator()

    if isinstance(target, GaussianModel):
        reference = target.exact_flow(initial_state, t_final)
    else:
        reference = rowlands_leg(initial_state, h0 / 64.0, n0 * 64, target, rs)

    errors = []
    for k in range(levels):
        h = h0 / 2**k
        n = n0 * 2**k
        if scheme == "processed":
            out = rowlands_leg(initial_state, h, n, target, rs)
        elif scheme == "kernel":
            out = _run_leg(initial_state, FlowSchedule(), rs.kernel, n, FlowSchedule(), h, target)
        else:
            out = _run_leg(initial_state, verlet.pre, verlet.kernel, n, verlet.post, h, target)
        err = max(
            float(np.max(np.abs(out.q - reference.q))),
            float(np.max(np.abs(out.p - reference.p))),
        )
        errors.append(err)
    return [math.log2(errors[k] / errors[k + 1]) for k in range(levels - 1)]
