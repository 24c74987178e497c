"""Splitting schedules and symmetrically processed integration legs.

A schedule is an ordered tuple of elementary flows, listed in the order
they act; each is a drift or a kick, told apart by its is_drift flag (a
plain kick is a modified kick with (b, c) = (1, 0)), and every coefficient
multiplies the step size h.  A leg applies a preprocessor once, iterates
the kernel, and applies the adjoint of the preprocessor once, which keeps
the whole leg time reversible whenever the kernel is palindromic.  A
preprocessor whose drift and kick weights sum to 1 has one kernel step
folded in (the fourth-order kappa); a leg of N steps then runs the kernel
N - 2 times instead of N, so it always spans N*h.  Processed, fourth-order
and Verlet legs all run through integrate_leg.

A leg lowers each schedule once to plain (is_drift, c*h, b_mod,
2*c_mod*h^2) tuples, dropping zero-coefficient flows, and runs them through
the one executor, _run_flows, which alone decides when a gradient or a
Hessian-vector product is evaluated; leg_gradient_count counts by running it.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

import numpy as np

from .errors import DegenerateParameter, InsufficientSteps, NonFiniteState

if TYPE_CHECKING:
    from .targets import TargetModel

# Consistency sums (a kernel's drift and kick weights equal 1, a preprocessor's
# both 0 or both 1) hold to this tolerance, or to it relative to their terms.
CONSISTENCY_TOL = 1e-14


def whole(value, what: str, minimum: int, short: type = ValueError) -> int:
    """The count `value` as an int.  Integers pass, numpy integers too;
    anything else, a float or a bool included, is a TypeError, and a value
    below `minimum` raises `short`, a ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{what}={value!r} is not an integer")
    if value < minimum:
        raise short(f"{what} must be at least {minimum}, not {value!r}")
    return int(value)


@dataclass(frozen=True)
class ElementaryFlow:
    """One exact sub-flow, a drift or a kick: step coefficient and the kick's
    weights (b_mod, c_mod) in b*V - h^2*c*|grad V|^2, (1, 0) for a plain kick.
    All finite, 2*c_mod too: a leg lowers it to (2*c_mod)*h^2, inf at every h if 2*c_mod is."""

    is_drift: bool
    coefficient: float
    b_mod: float = 1.0
    c_mod: float = 0.0

    def __post_init__(self) -> None:
        if not (type(self.coefficient) is type(self.b_mod) is type(self.c_mod) is float):
            object.__setattr__(self, "coefficient", float(self.coefficient))
            object.__setattr__(self, "b_mod", float(self.b_mod))
            object.__setattr__(self, "c_mod", float(self.c_mod))
        if not math.isfinite(self.coefficient):
            raise ValueError("flow coefficient must be finite")
        if not (math.isfinite(self.b_mod) and math.isfinite(2.0 * self.c_mod)):
            raise ValueError("flow b_mod and 2*c_mod must be finite")


def drift(coefficient: float) -> ElementaryFlow:
    return ElementaryFlow(True, coefficient)


def kick(coefficient: float) -> ElementaryFlow:
    return ElementaryFlow(False, coefficient)


def modified_kick(coefficient: float, b_mod: float, c_mod: float) -> ElementaryFlow:
    return ElementaryFlow(False, coefficient, b_mod, c_mod)


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

    def adjoint(self) -> "FlowSchedule":
        """Exact flows are self-adjoint, so adjoining just reverses the order."""
        return FlowSchedule(tuple(reversed(self.flows)))

    def is_palindromic(self) -> bool:
        return self.flows == tuple(reversed(self.flows))

    def weights(self, drifts: bool) -> list[float]:
        """The drifts' coefficients, or the kicks' weights coefficient*b_mod."""
        if drifts:
            return [f.coefficient for f in self.flows if f.is_drift]
        return [f.coefficient * f.b_mod for f in self.flows if not f.is_drift]


def _sums_to(terms: list[float], target: float) -> bool:
    """fsum(terms) is target within CONSISTENCY_TOL, or within it times n*max|term|,
    which bounds the roundings the n terms carry (1 - 2a, 0.5 - b).  That scale is
    formed only if needed and never overflows; an infinite sum never passes."""
    miss = abs(math.fsum(terms) - target)
    return miss <= CONSISTENCY_TOL or miss < CONSISTENCY_TOL * len(terms) * max(map(abs, terms), default=0.0)


@dataclass(frozen=True)
class ProcessedIntegrator:
    """Kernel plus preprocessor; the postprocessor is the preprocessor's adjoint.

    The kernel is palindromic, with drift and kick-weight sums of 1: the
    leg's reversibility and the oscillator analysis's sign test rest on its
    symmetry.  The preprocessor's sums are both 0 (a pure processor) or
    both 1: one kernel step is folded into it, as in
    kappa = kernel . processor.  A leg of N steps then runs the kernel
    N - 2*folded times and always spans N*h.  Sums are checked relative to
    their terms (_sums_to): large coefficients' rounding is no inconsistency.
    """

    kernel: FlowSchedule
    pre: FlowSchedule

    def __post_init__(self) -> None:
        if not self.kernel.is_palindromic():
            raise ValueError("the kernel must be palindromic")
        if not _sums_to(self.kernel.weights(True), 1.0):
            raise ValueError("kernel drift coefficients must sum to 1")
        if not _sums_to(self.kernel.weights(False), 1.0):
            raise ValueError("kernel kick weights must sum to 1")
        self.folded  # raises unless the preprocessor sums are both 0 or both 1

    @cached_property
    def post(self) -> FlowSchedule:
        return self.pre.adjoint()

    @cached_property
    def folded(self) -> int:
        """Kernel steps folded into the preprocessor, 0 or 1, read off its sums."""
        terms = (self.pre.weights(True), self.pre.weights(False))
        for folded in (0, 1):
            if all(_sums_to(t, folded) for t in terms):
                return folded
        raise ValueError("processor drift and kick-weight sums must both be 0, or both be 1")

    def kernel_steps(self, n_steps: int) -> int:
        """Kernel steps in a leg of N steps: N - 2*folded.  N is an integer
        (numpy integers too), never a float or a bool."""
        return whole(n_steps, "the number of steps N", 1 + self.folded, InsufficientSteps) - 2 * self.folded


def build_kernel(b: float) -> FlowSchedule:
    """Two-stage palindromic kernel (1/2-b, a, b, 1-2a, b, a, 1/2-b) with
    a = b/(6b-1), the only choice giving a usable stability interval.  Raises
    DegenerateParameter exactly where 6.0*b - 1.0 == 0.0 or b is not finite;
    any other b gives finite coefficients: |6b - 1| >= ~1.1e-16 next to 1/6,
    so |a| <= ~1.5e15, and past |b| ~ 3e307 6b - 1 is inf, so a = 0."""
    b = float(b)
    den = 6.0 * b - 1.0
    if den == 0.0 or not math.isfinite(b):
        raise DegenerateParameter(f"6b - 1 vanishes or b is not finite for b = {b}")
    a = b / den
    # one object per distinct flow, so the palindrome check compares identities
    outer, inner, middle = kick(0.5 - b), drift(a), kick(b)
    return FlowSchedule((outer, inner, middle, drift(1.0 - 2.0 * a), middle, inner, outer))


def build_processor(c: float, d: float) -> FlowSchedule:
    """Preprocessor acting as kick(d), drift(c), kick(-d), drift(-c); both
    coefficient sums vanish exactly, so the map is O(h^2) close to identity."""
    c, d = float(c), float(d)
    return FlowSchedule((kick(d), drift(c), kick(-d), drift(-c)))


def processed_family(b: float, c: float, d: float) -> ProcessedIntegrator:
    """Three-parameter symmetric processed integrator built from the two-stage
    kernel and the minimal two-stage processor."""
    return ProcessedIntegrator(build_kernel(b), build_processor(c, d))


def _lower(flows: Iterable[ElementaryFlow], h: float) -> tuple[tuple[bool, float, float, Optional[float]], ...]:
    """Flows as (is_drift, c*h, b_mod, 2*c_mod*h^2), the last None for c_mod = 0;
    flows with coefficient exactly zero are dropped (no evaluation, no count)."""
    h2 = h * h
    # tuple(generator) builds by resizing, past the tuple free list that freeing
    # refills, so each leg would leave its tuples there (up to 2000 per length)
    lowered = [(f.is_drift, f.coefficient * h, f.b_mod, 2.0 * f.c_mod * h2 if f.c_mod != 0.0 else None)
               for f in flows if f.coefficient != 0.0]
    return tuple(lowered)


def _run_flows(
    q: np.ndarray,
    p: np.ndarray,
    steps: Iterable[tuple[bool, float, float, Optional[float]]],
    target: "TargetModel",
) -> tuple[np.ndarray, np.ndarray]:
    """Apply lowered flows in order to copies of q and p, updated in place.

    Each flow scales into one scratch buffer and adds it to q or subtracts
    it from p: the same two roundings as q + (c*h)*p and p - (c*h)*force.
    The gradient and Hessian-vector product are cached while q is unchanged;
    a drift invalidates them.  A kick equal to the previous kick, with no
    drift between, subtracts the scaled force still in the buffer.
    Finiteness is checked once, at the end: no flow turns a non-finite
    entry finite again.
    """
    q, p = q.copy(), p.copy()
    scaled = np.empty_like(q)
    grad: Optional[np.ndarray] = None
    hvp: Optional[np.ndarray] = None
    last_kick = None
    for step in steps:
        is_drift, ch, b_mod, c2h2 = step
        if is_drift:
            np.add(q, np.multiply(p, ch, out=scaled), out=q)
            grad = hvp = last_kick = None
            continue
        if step != last_kick:
            if grad is None:
                grad = target.gradient(q)
            force = grad if b_mod == 1.0 else b_mod * grad  # a multiply by 1 costs an array pass
            if c2h2 is not None:
                if hvp is None:
                    hvp = target.hessian_vec(q, grad)
                force = force - c2h2 * hvp
            np.multiply(force, ch, out=scaled)
            last_kick = step
        np.subtract(p, scaled, out=p)
    if not (np.isfinite(q).all() and np.isfinite(p).all()):
        raise NonFiniteState("the flows produced a non-finite state")
    return q, p


def _leg_steps(integ: ProcessedIntegrator, h: float, kernel_steps: int) -> Iterator[tuple]:
    """A leg's lowered flows: pre, the kernel's tuple repeated lazily, post."""
    kernel = chain.from_iterable(repeat(_lower(integ.kernel, h), kernel_steps))
    return chain(_lower(integ.pre, h), kernel, _lower(integ.post, h))


def integrate_leg(
    state: PhaseState,
    h: float,
    n_steps: int,
    integ: ProcessedIntegrator,
    target: "TargetModel",
) -> PhaseState:
    """Run one leg of N steps spanning N*h: pre, N - 2*folded kernel steps, post.

    Each schedule is lowered once per leg and the kernel's lowered steps are
    repeated lazily.  Returns the final state, in new arrays.  The target's
    grad_evals and hess_evals counters record what the leg consumed, the
    total leg_gradient_count reads off a leg of at most two kernel steps.
    """
    kernel_steps = integ.kernel_steps(n_steps)
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError("h must be positive and finite")
    if state.dim != target.dim:
        raise ValueError(f"state dimension {state.dim} != target dimension {target.dim}")
    return PhaseState(*_run_flows(state.q, state.p, _leg_steps(integ, h, kernel_steps), target))


class _EvaluationProbe:
    """Counts gradient and Hessian-vector calls; no TargetModel, so no target's counters move."""
    evaluations = 0

    def _count(self, q: np.ndarray, *_: np.ndarray) -> np.ndarray:
        self.evaluations += 1
        return q

    gradient = hessian_vec = _count


def leg_gradient_count(integ: ProcessedIntegrator, n_steps: int) -> int:
    """Evaluations a leg of N steps will consume, each Hessian-vector product
    billed as one gradient: 3N+5 for the processed family, 3N+1 with empty or
    zero processors, N+1 for leapfrog and 2N+4 (N+3 gradients, N+1 products)
    for the fourth-order scheme at N >= 3.

    The executor counts them on probe legs of 0 or 1 and of 2 kernel steps,
    at h = 1 from q = p = 0, a fixed point of every flow that builds.  Every
    kernel step contains a drift (its drifts sum to 1), so it leaves the
    same cache state from any state: steps 2..N - 2*folded all cost what the
    second does, and the count takes O(1) work in N.
    """
    def cost(kernel_steps: int) -> int:
        probe = _EvaluationProbe()
        _run_flows(np.zeros(1), np.zeros(1), _leg_steps(integ, 1.0, kernel_steps), probe)
        return probe.evaluations

    kernel_steps = integ.kernel_steps(n_steps)
    first = cost(min(kernel_steps, 1))
    return first + max(kernel_steps - 1, 0) * (cost(2) - first)
