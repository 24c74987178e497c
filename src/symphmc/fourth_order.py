"""Fourth-order positive-coefficient integration via modified-potential kicks.

The scheme is the catalog's 'rowlands' integrator.  Its kernel is a
velocity-Verlet-shaped step whose kicks use the modified potential
b*V - h^2*c*|grad V|^2 at (b, c) = (1/2, 1/48).
Folding one kernel step into the processor gives the map kappa, which is
the preprocessor of a ProcessedIntegrator like any other: a leg of N steps
runs kappa, N-2 kernel steps, then the adjoint of kappa.  Every substep
coefficient is strictly positive, yet the processed leg converges at fourth
order while the bare kernel is second order.
"""
from __future__ import annotations

import math

import numpy as np

from .catalog import named_integrator
from .splitting import PhaseState, ProcessedIntegrator, integrate_leg
from .targets import TargetModel

_ROWLANDS = named_integrator("rowlands")


def rowlands_leg(state: PhaseState, h: float, n_steps: int, target: TargetModel) -> PhaseState:
    """Processed leg kappa* . kernel^(N-2) . kappa spanning time N*h."""
    return integrate_leg(state, h, n_steps, _ROWLANDS, target)


def order_estimate(target: TargetModel, integ: ProcessedIntegrator, t_final: float, h0: float) -> list[float]:
    """Observed convergence orders of integ's legs at steps h0, h0/2, h0/4
    and h0/8, from q = 0.4, p = 0.3 in every coordinate.

    The reference solution is a fourth-order leg at h0/64, for every
    target.  Returns the three values log2(err_k / err_{k+1}).
    """
    rule = "choose h0 so that t_final/h0 is an even integer >= 4"
    ratio = t_final / h0
    if not math.isfinite(ratio):
        raise ValueError(f"{rule}, not {ratio}")
    n0 = round(ratio)
    if abs(n0 * h0 - t_final) > 1e-12 * max(1.0, t_final) or n0 < 4 or n0 % 2:
        raise ValueError(rule)

    initial_state = PhaseState(np.full(target.dim, 0.4), np.full(target.dim, 0.3))
    reference = rowlands_leg(initial_state, h0 / 64.0, n0 * 64, target)

    errors = []
    for k in range(4):
        out = integrate_leg(initial_state, h0 / 2**k, n0 * 2**k, integ, target)
        err = max(
            float(np.max(np.abs(out.q - reference.q))),
            float(np.max(np.abs(out.p - reference.p))),
        )
        errors.append(err)
    return [math.log2(errors[k] / errors[k + 1]) for k in range(3)]
