"""The allocating flow-by-flow executor the lowered one replaced.

Each flow builds new arrays, q + (c*h)*p for a drift and p - (c*h)*force
for a kick, and a kick always recomputes its scaled force.  The library's
executor updates q and p in place and reuses a scaled force between equal
kicks; these functions are the reference its bytes and evaluation counts
are checked against.
"""
from itertools import chain, repeat
from typing import Iterable, Optional

import numpy as np

from symphmc import PhaseState, ProcessedIntegrator
from symphmc.errors import NonFiniteState
from symphmc.splitting import ElementaryFlow


def allocating_run_flows(
    q: np.ndarray, p: np.ndarray, flows: Iterable[ElementaryFlow], h: float, target
) -> tuple[np.ndarray, np.ndarray]:
    """Apply flows in order, caching the gradient and the Hessian-vector
    product while q is unchanged; zero-coefficient flows are skipped."""
    grad: Optional[np.ndarray] = None
    hvp: Optional[np.ndarray] = None
    h2 = h * h
    for f in flows:
        coeff = f.coefficient
        if coeff == 0.0:
            continue
        if f.is_drift:
            q = q + (coeff * h) * p
            grad = None
            hvp = None
        else:
            if grad is None:
                grad = target.gradient(q)
            force = grad if f.b_mod == 1.0 else f.b_mod * grad
            if f.c_mod != 0.0:
                if hvp is None:
                    hvp = target.hessian_vec(q, grad)
                force = force - (2.0 * f.c_mod * h2) * hvp
            p = p - (coeff * h) * force
    if not (np.isfinite(q).all() and np.isfinite(p).all()):
        raise NonFiniteState("the flows produced a non-finite state")
    return q, p


def allocating_leg(state: PhaseState, h: float, n_steps: int, integ: ProcessedIntegrator, target) -> PhaseState:
    """A leg of N steps through the allocating executor: pre, the kernel
    N - 2*folded times, post."""
    kernel = chain.from_iterable(repeat(integ.kernel.flows, integ.kernel_steps(n_steps)))
    flows = chain(integ.pre.flows, kernel, integ.post.flows)
    return PhaseState(*allocating_run_flows(state.q, state.p, flows, h, target))
