"""Named integrators and the reference parameter sets shipped with the package.

Each reference row records the step-size budget hbar the parameters were
tuned for, the kernel parameter b, the processor parameters (c, d), the
guaranteed upper bound on the energy-error metric over (0, hbar], and the
length of the kernel's linear stability interval.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .splitting import (
    FlowSchedule,
    ProcessedIntegrator,
    build_kernel,
    drift,
    kick,
    processed_family,
)

VERLET_STABILITY = 2.0  # |1 - h^2/2| <= 1 iff h <= 2


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


def named_integrator(name: str) -> ProcessedIntegrator:
    """Resolve a CLI integrator name to its coefficient set.

    The 'rowlands' name is reserved for the fourth-order scheme and is not an
    HMC leg integrator.
    """
    if name == "leapfrog":
        return leapfrog_integrator()
    if name == "blcasa":
        return blcasa_integrator()
    for row in REFERENCE_ROWS[1:]:
        if row.name == name:
            return processed_family(row.b, row.c, row.d)
    raise ValueError(f"unknown integrator name {name!r} (choose from {INTEGRATOR_NAMES})")


def scan_budget(name: str) -> float:
    """Default upper step size for rho scans of a named integrator."""
    if name == "leapfrog":
        return 0.98 * VERLET_STABILITY
    return row_by_name(name).hbar
