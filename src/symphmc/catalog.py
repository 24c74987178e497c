"""Named integrators and the reference parameter sets shipped with the package.

Each reference row records the step-size budget hbar the parameters were
tuned for, the kernel parameter b, the processor parameters (c, d), the
guaranteed upper bound on the energy-error metric over (0, hbar], and the
length of the kernel's linear stability interval; 'blcasa', the unprocessed
baseline, is the row with c = d = 0.  Leapfrog and the fourth-order scheme
'rowlands', built from exact Fraction constants, are named here too.  Each
named integrator is built once, at import: that copy is what runs and what
is checked.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .splitting import (
    FlowSchedule,
    ProcessedIntegrator,
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


@dataclass(frozen=True)
class ReferenceRow:
    name: str
    hbar: float
    b: float
    c: float
    d: float
    rho_bound: float
    stability: float


REFERENCE_ROWS = (
    ReferenceRow("blcasa", 3.0, 0.381120, 0.0, 0.0, 7e-5, 4.662),
    ReferenceRow("proc-3.0", 3.0, 0.348674, -0.075640, 0.069720, 6e-8, 4.985),
    ReferenceRow("proc-3.5", 3.5, 0.346660, -0.079510, 0.070171, 5e-7, 5.010),
    ReferenceRow("proc-4.0", 4.0, 0.343684, -0.084690, 0.071880, 5e-6, 5.048),
    ReferenceRow("proc-4.5", 4.5, 0.340200, -0.093500, 0.072800, 5e-5, 5.095),
)


def row_by_name(name: str) -> ReferenceRow:
    for row in REFERENCE_ROWS:
        if row.name == name:
            return row
    raise ValueError(f"no reference row named {name!r} (choose from {', '.join(r.name for r in REFERENCE_ROWS)})")


_KERNEL_KICK = modified_kick(1.0, KERNEL_KICK_B, KERNEL_KICK_C)
_INTEGRATORS = {
    "leapfrog": ProcessedIntegrator(FlowSchedule((kick(0.5), drift(1.0), kick(0.5))), FlowSchedule()),
    **{row.name: processed_family(row.b, row.c, row.d) for row in REFERENCE_ROWS},
    # the modified kernel with kappa as its preprocessor (one kernel step folded in)
    "rowlands": ProcessedIntegrator(
        FlowSchedule((_KERNEL_KICK, drift(1.0), _KERNEL_KICK)),
        FlowSchedule(
            (
                modified_kick(1.0, KAPPA_BETA_1, KAPPA_GAMMA_1),
                drift(KAPPA_ALPHA_1),
                kick(KAPPA_BETA_2),
                drift(KAPPA_ALPHA_2),
            )
        ),
    ),
}

INTEGRATOR_NAMES = tuple(_INTEGRATORS)


def named_integrator(name: str) -> ProcessedIntegrator:
    """Resolve a CLI integrator name to its coefficient set."""
    try:
        return _INTEGRATORS[name]
    except KeyError:
        raise ValueError(f"unknown integrator name {name!r} (choose from {INTEGRATOR_NAMES})") from None


def scan_budget(name: str) -> float:
    """Default upper step size for rho scans of a named integrator."""
    if name == "leapfrog":
        return 0.98 * VERLET_STABILITY
    if name == "rowlands":
        return 0.98 * ROWLANDS_STABILITY
    return row_by_name(name).hbar
