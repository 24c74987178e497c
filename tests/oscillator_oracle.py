"""The closed-form leg map on the unit oscillator, in (chi, theta).

A stable palindromic kernel step factors as
[[cos theta, chi sin theta], [-sin theta / chi, cos theta]], so N kernel
steps rotate by N*theta and a whole processed leg has entries in closed
form.  The library computes rho from the schedule matrices alone; these
functions are the second, independent representation the tests check it
(and the per-mode matrix powers of the fast path) against.
"""
import math
from dataclasses import dataclass
from typing import Optional

from symphmc import ProcessedIntegrator, TransferMatrix, schedule_matrix


class UnstableStep(RuntimeError):
    """Harmonic-oscillator analysis requested at an unstable step size."""


@dataclass(frozen=True)
class KernelSpectrum:
    """(chi, theta) of a stable kernel step; chi/theta are None when unstable."""

    chi: Optional[float]
    theta: Optional[float]
    stable: bool


def det(m: TransferMatrix):
    return m.m11 * m.m22 - m.m12 * m.m21


def spectrum(m: TransferMatrix) -> KernelSpectrum:
    """Stability and (chi, theta) of a palindromic kernel matrix (m11 == m22).

    chi = sqrt(m12 / -m21) > 0 and theta = arccos(m11) in (0, pi), so that
    m = [[cos theta, chi sin theta], [-sin theta / chi, cos theta]].
    Instability is reported through the ``stable`` flag, not an exception.
    """
    if not m.m12 * m.m21 < 0.0:
        return KernelSpectrum(None, None, False)
    chi = math.sqrt(m.m12 / -m.m21)
    theta = math.acos(max(-1.0, min(1.0, m.m11)))
    return KernelSpectrum(chi, theta, True)


def sandwich(
    alpha: float, beta: float, gamma: float, delta: float, chi: float, big_c: float, big_s: float
) -> tuple[float, float, float]:
    """Closed-form entries (A, B, C) of post . kernel^N . pre on the oscillator."""
    inv_chi = 1.0 / chi
    a_ = big_c * (alpha * delta + beta * gamma) + big_s * (gamma * delta * chi - alpha * beta * inv_chi)
    b_ = big_c * (2.0 * beta * delta) + big_s * (delta * delta * chi - beta * beta * inv_chi)
    c_ = big_c * (2.0 * alpha * gamma) + big_s * (gamma * gamma * chi - alpha * alpha * inv_chi)
    return a_, b_, c_


def leg_matrix(integ: ProcessedIntegrator, h: float, n_steps: int) -> TransferMatrix:
    """Oscillator map of a whole processed leg of N steps at step h.

    Uses the signed per-step angle: in the upper stretch of the stability
    interval the kernel's m12 turns negative (rotation angle past pi), and
    there sin(theta) carries the sign of m12 while chi stays positive.
    """
    kernel = schedule_matrix(integ.kernel, h)
    sp = spectrum(kernel)
    if not sp.stable:
        raise UnstableStep(f"kernel unstable at h = {h}")
    theta = math.copysign(sp.theta, kernel.m12)
    angle = integ.kernel_steps(n_steps) * theta
    big_c, big_s = math.cos(angle), math.sin(angle)
    a_, b_, c_ = sandwich(*schedule_matrix(integ.pre, h), sp.chi, big_c, big_s)
    return TransferMatrix(a_, b_, c_, a_)


def expected_energy_error(m: TransferMatrix) -> float:
    """Expected energy change over a leg at stationarity: (1/2)(B + C)^2."""
    s = m.m12 + m.m21
    return 0.5 * s * s
