"""Splitting schedules and symmetrically processed integration legs.

A schedule is an ordered tuple of elementary flows (drifts, kicks, modified
kicks) listed in the order they act on the state; every coefficient
multiplies the step size h.  A processed leg applies a preprocessor once,
iterates the kernel N times, and applies the adjoint of the preprocessor
once, which keeps the whole leg time reversible whenever the kernel is
palindromic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain, repeat
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

import numpy as np

from .errors import DegenerateParameter, NonFiniteState

if TYPE_CHECKING:
    from .targets import TargetModel

# Consistency sums (drift weights and kick weights of a kernel must equal 1,
# those of a processor must vanish) are enforced to this tolerance.
CONSISTENCY_TOL = 1e-14


class FlowKind(Enum):
    DRIFT = "drift"
    KICK = "kick"
    MODIFIED_KICK = "modified_kick"


@dataclass(frozen=True)
class ElementaryFlow:
    """One exact sub-flow: kind, step coefficient, and for modified kicks the
    (b_mod, c_mod) weights of the modified potential b*V - h^2*c*|grad V|^2."""

    kind: FlowKind
    coefficient: float
    b_mod: float = 0.0
    c_mod: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefficient", float(self.coefficient))
        object.__setattr__(self, "b_mod", float(self.b_mod))
        object.__setattr__(self, "c_mod", float(self.c_mod))
        if not math.isfinite(self.coefficient):
            raise ValueError("flow coefficient must be finite")
        if self.kind is FlowKind.MODIFIED_KICK:
            if not (math.isfinite(self.b_mod) and math.isfinite(self.c_mod)):
                raise ValueError("modified kick requires finite (b_mod, c_mod)")


def drift(coefficient: float) -> ElementaryFlow:
    return ElementaryFlow(FlowKind.DRIFT, coefficient)


def kick(coefficient: float) -> ElementaryFlow:
    return ElementaryFlow(FlowKind.KICK, coefficient)


def modified_kick(coefficient: float, b_mod: float, c_mod: float) -> ElementaryFlow:
    return ElementaryFlow(FlowKind.MODIFIED_KICK, coefficient, b_mod, c_mod)


def _kick_weight(f: ElementaryFlow) -> float:
    """Weight a flow contributes to the total kick consistency sum."""
    if f.kind is FlowKind.DRIFT:
        return 0.0
    if f.kind is FlowKind.MODIFIED_KICK:
        return f.coefficient * f.b_mod
    return f.coefficient


@dataclass(frozen=True, eq=False)
class PhaseState:
    """Position/momentum pair advanced by the integrators (value semantics)."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self) -> None:
        q = np.atleast_1d(np.asarray(self.q, dtype=float))
        p = np.atleast_1d(np.asarray(self.p, dtype=float))
        if q.ndim != 1 or p.ndim != 1:
            raise ValueError("q and p must be one-dimensional")
        if q.shape != p.shape:
            raise ValueError(f"q and p lengths differ: {q.shape[0]} vs {p.shape[0]}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    @property
    def dim(self) -> int:
        return self.q.shape[0]

    @property
    def is_finite(self) -> bool:
        return bool(np.isfinite(self.q).all() and np.isfinite(self.p).all())


def momentum_flip(state: PhaseState) -> PhaseState:
    """(q, p) -> (q, -p); involution used by the reversibility identity."""
    return PhaseState(state.q, -state.p)


@dataclass(frozen=True)
class FlowSchedule:
    """Ordered flows, listed first-to-last in the order they act."""

    flows: tuple[ElementaryFlow, ...] = ()

    def __post_init__(self) -> None:
        flows = tuple(self.flows)
        if any(not isinstance(f, ElementaryFlow) for f in flows):
            raise TypeError("FlowSchedule holds ElementaryFlow items only")
        object.__setattr__(self, "flows", flows)

    def __iter__(self) -> Iterator[ElementaryFlow]:
        return iter(self.flows)

    def __len__(self) -> int:
        return len(self.flows)

    def adjoint(self) -> "FlowSchedule":
        """Exact flows are self-adjoint, so adjoining just reverses the order."""
        return FlowSchedule(tuple(reversed(self.flows)))

    def is_palindromic(self) -> bool:
        return self.flows == tuple(reversed(self.flows))

    def drift_sum(self) -> float:
        return math.fsum(f.coefficient for f in self.flows if f.kind is FlowKind.DRIFT)

    def kick_weight_sum(self) -> float:
        return math.fsum(_kick_weight(f) for f in self.flows)


@dataclass(frozen=True)
class FamilyParams:
    """Provenance record for the two-stage processed family."""

    b: float
    a: float
    c: float
    d: float


@dataclass(frozen=True)
class ProcessedIntegrator:
    """Kernel plus symmetric pre/postprocessor (post is the adjoint of pre)."""

    kernel: FlowSchedule
    pre: FlowSchedule
    post: FlowSchedule
    params: Optional[FamilyParams] = None

    def __post_init__(self) -> None:
        if self.post != self.pre.adjoint():
            raise ValueError("postprocessor must be the adjoint of the preprocessor")
        if abs(self.kernel.drift_sum() - 1.0) > CONSISTENCY_TOL:
            raise ValueError("kernel drift coefficients must sum to 1")
        if abs(self.kernel.kick_weight_sum() - 1.0) > CONSISTENCY_TOL:
            raise ValueError("kernel kick weights must sum to 1")
        if abs(self.pre.drift_sum()) > CONSISTENCY_TOL:
            raise ValueError("processor drift coefficients must sum to 0")
        if abs(self.pre.kick_weight_sum()) > CONSISTENCY_TOL:
            raise ValueError("processor kick coefficients must sum to 0")

    @classmethod
    def symmetric(
        cls,
        kernel: FlowSchedule,
        pre: FlowSchedule,
        params: Optional[FamilyParams] = None,
    ) -> "ProcessedIntegrator":
        return cls(kernel, pre, pre.adjoint(), params)


def build_kernel(b: float) -> FlowSchedule:
    """Two-stage palindromic kernel (1/2-b, a, b, 1-2a, b, a, 1/2-b) with
    a = b/(6b-1), the only choice giving a usable stability interval."""
    b = float(b)
    den = 6.0 * b - 1.0
    if abs(den) < 1e-12:
        raise DegenerateParameter(f"6b - 1 vanishes for b = {b}")
    a = b / den
    coeffs = (0.5 - b, a, b, 1.0 - 2.0 * a, b, a, 0.5 - b)
    if any(not math.isfinite(x) for x in coeffs):
        raise DegenerateParameter(f"non-finite kernel coefficients for b = {b}")
    return FlowSchedule(
        (
            kick(0.5 - b),
            drift(a),
            kick(b),
            drift(1.0 - 2.0 * a),
            kick(b),
            drift(a),
            kick(0.5 - b),
        )
    )


def build_processor(c: float, d: float) -> FlowSchedule:
    """Preprocessor acting as kick(d), drift(c), kick(-d), drift(-c); both
    coefficient sums vanish exactly, so the map is O(h^2) close to identity."""
    c, d = float(c), float(d)
    if not (math.isfinite(c) and math.isfinite(d)):
        raise ValueError("processor parameters must be finite")
    return FlowSchedule((kick(d), drift(c), kick(-d), drift(-c)))


def processed_family(b: float, c: float, d: float) -> ProcessedIntegrator:
    """Three-parameter symmetric processed integrator built from the two-stage
    kernel and the minimal two-stage processor."""
    kernel = build_kernel(b)
    a = kernel.flows[1].coefficient
    pre = build_processor(c, d)
    return ProcessedIntegrator.symmetric(kernel, pre, FamilyParams(b=b, a=a, c=float(c), d=float(d)))


def _run_flows(
    q: np.ndarray,
    p: np.ndarray,
    flows: Iterable[ElementaryFlow],
    h: float,
    target: "TargetModel",
    fuse: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply flows in order, caching the gradient between kicks.

    The cache is keyed on the position being unchanged since the last force
    evaluation: any drift with nonzero coefficient invalidates it, and kicks
    with coefficient exactly zero are skipped outright (no evaluation, no
    counter increment).  With ``fuse=False`` every kick re-evaluates; the
    trajectory is bit-identical either way.
    """
    grad: Optional[np.ndarray] = None
    hvp: Optional[np.ndarray] = None
    h2 = h * h
    for f in flows:
        coeff = f.coefficient
        if coeff == 0.0:
            continue
        if f.kind is FlowKind.DRIFT:
            q = q + (coeff * h) * target.inv_mass_apply(p)
            if not np.isfinite(q).all():
                raise NonFiniteState("drift produced a non-finite position")
            grad = None
            hvp = None
        else:
            if grad is None or not fuse:
                grad = target.gradient(q)
            if f.kind is FlowKind.KICK:
                force = grad
            else:
                force = f.b_mod * grad
                if f.c_mod != 0.0:
                    if hvp is None or not fuse:
                        hvp = target.hessian_vec(q, target.inv_mass_apply(grad))
                    force = force - (2.0 * f.c_mod * h2) * hvp
            p = p - (coeff * h) * force
            if not np.isfinite(p).all():
                raise NonFiniteState("kick produced a non-finite momentum")
    return q, p


def _leg_flows(pre: FlowSchedule, kernel: FlowSchedule, n: int, post: FlowSchedule) -> Iterator[ElementaryFlow]:
    """Flows of a leg in the order they act: pre, n kernel steps, post."""
    return chain(pre.flows, chain.from_iterable(repeat(kernel.flows, n)), post.flows)


def integrate_leg(
    state: PhaseState,
    h: float,
    n_steps: int,
    integ: ProcessedIntegrator,
    target: "TargetModel",
    fuse: bool = True,
) -> tuple[PhaseState, int]:
    """Run one processed leg: pre, N kernel steps, post.

    Returns the final state and the number of gradient evaluations consumed,
    which with fusion is 3N+5 for the processed family, 3N+1 with empty
    processors and N+1 for leapfrog.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError("h must be positive and finite")
    if state.dim != target.dim:
        raise ValueError(f"state dimension {state.dim} != target dimension {target.dim}")
    before = target.grad_evals
    flows = _leg_flows(integ.pre, integ.kernel, n_steps, integ.post)
    q, p = _run_flows(state.q, state.p, flows, h, target, fuse)
    return PhaseState(q, p), target.grad_evals - before


def _fused_count(flows: Iterable[ElementaryFlow], cached: bool) -> tuple[int, bool]:
    """Gradient evaluations fused flows consume from the given cache state,
    and the cache state they leave."""
    count = 0
    for f in flows:
        if f.coefficient == 0.0:
            continue
        if f.kind is FlowKind.DRIFT:
            cached = False
        elif not cached:
            count += 1
            cached = True
    return count, cached


def leg_gradient_count(integ: ProcessedIntegrator, n_steps: int) -> int:
    """Gradient evaluations a fused leg will consume, from the schedule alone.

    A kernel's drifts sum to 1, so every kernel step contains a drift and
    leaves the same cache state whatever state it starts from: kernel steps
    2..N all cost the same, and the count takes O(1) work in N.
    """
    count, cached = _fused_count(integ.pre, False)
    if n_steps > 0:
        first, cached = _fused_count(integ.kernel, cached)
        steady, _ = _fused_count(integ.kernel, cached)
        count += first + (n_steps - 1) * steady
    return count + _fused_count(integ.post, cached)[0]
