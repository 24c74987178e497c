"""Named integrators and the reference parameter sets shipped with the package.

Each reference row records the step-size budget hbar the parameters were
tuned for, the kernel parameter b, the processor parameters (c, d), the
guaranteed upper bound on the energy-error metric over (0, hbar], and the
length of the kernel's linear stability interval.  Leapfrog and the
fourth-order positive-coefficient scheme 'rowlands' are named here too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .splitting import (
    FlowSchedule,
    ProcessedIntegrator,
    build_kernel,
    drift,
    kick,
    modified_kick,
    processed_family,
)

VERLET_STABILITY = 2.0  # |1 - h^2/2| <= 1 iff h <= 2
ROWLANDS_STABILITY = 2.0 * math.sqrt(3.0)  # kick slope h(1/2 - h^2/24) > 0 iff h < 2*sqrt(3)

# The fourth-order scheme: modified kicks at (b, c) = (1/2, 1/48) in the
# kernel, and the processor kappa's substep coefficients.
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
class ReferenceRow:
    name: str
    hbar: float
    b: float
    c: Optional[float]
    d: Optional[float]
    rho_bound: float
    stability: float


REFERENCE_ROWS = (
    ReferenceRow("blcasa", 3.0, 0.381120, None, None, 7e-5, 4.662),
    ReferenceRow("proc-3.0", 3.0, 0.348674, -0.075640, 0.069720, 6e-8, 4.985),
    ReferenceRow("proc-3.5", 3.5, 0.346660, -0.079510, 0.070171, 5e-7, 5.010),
    ReferenceRow("proc-4.0", 4.0, 0.343684, -0.084690, 0.071880, 5e-6, 5.048),
    ReferenceRow("proc-4.5", 4.5, 0.340200, -0.093500, 0.072800, 5e-5, 5.095),
)

INTEGRATOR_NAMES = ("leapfrog",) + tuple(row.name for row in REFERENCE_ROWS) + ("rowlands",)


def row_by_name(name: str) -> ReferenceRow:
    for row in REFERENCE_ROWS:
        if row.name == name:
            return row
    raise KeyError(f"no reference row named {name!r}")


def leapfrog_integrator() -> ProcessedIntegrator:
    kernel = FlowSchedule((kick(0.5), drift(1.0), kick(0.5)))
    return ProcessedIntegrator(kernel, FlowSchedule())


def blcasa_integrator() -> ProcessedIntegrator:
    """Unprocessed two-stage baseline: the blcasa row's b, empty processors."""
    return ProcessedIntegrator(build_kernel(row_by_name("blcasa").b), FlowSchedule())


def rowlands_integrator() -> ProcessedIntegrator:
    """The modified kernel with kappa as its preprocessor (one kernel step folded in)."""
    mk = modified_kick(1.0, float(KERNEL_KICK_B), float(KERNEL_KICK_C))
    kappa = FlowSchedule(
        (
            modified_kick(1.0, float(KAPPA_BETA_1), float(KAPPA_GAMMA_1)),
            drift(float(KAPPA_ALPHA_1)),
            kick(float(KAPPA_BETA_2)),
            drift(float(KAPPA_ALPHA_2)),
        )
    )
    return ProcessedIntegrator(FlowSchedule((mk, drift(1.0), mk)), kappa)


def named_integrator(name: str) -> ProcessedIntegrator:
    """Resolve a CLI integrator name to its coefficient set."""
    if name == "leapfrog":
        return leapfrog_integrator()
    if name == "blcasa":
        return blcasa_integrator()
    if name == "rowlands":
        return rowlands_integrator()
    for row in REFERENCE_ROWS[1:]:
        if row.name == name:
            return processed_family(row.b, row.c, row.d)
    raise ValueError(f"unknown integrator name {name!r} (choose from {INTEGRATOR_NAMES})")


def scan_budget(name: str) -> float:
    """Default upper step size for rho scans of a named integrator."""
    if name == "leapfrog":
        return 0.98 * VERLET_STABILITY
    if name == "rowlands":
        return 0.98 * ROWLANDS_STABILITY
    return row_by_name(name).hbar
