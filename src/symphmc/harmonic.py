"""Transfer-matrix analysis of schedules on the unit harmonic oscillator.

On the model Hamiltonian p^2/2 + q^2/2 every flow is a 2x2 shear: a drift
moves q by c*h*p, and a kick moves p by -c*h*(b_mod - 2*c_mod*h^2)*q, by
-c*h*q for a plain kick.  A schedule becomes a 2x2 map with unit
determinant.  From a kernel's and a preprocessor's maps we get rho_h, the
N-independent upper bound on a leg's expected energy error at
stationarity, whose maximum over a step-size budget is the tuning
objective.
"""
from __future__ import annotations

import math
import sys
from typing import Any, NamedTuple, Optional, Union

import numpy as np

from .splitting import _DRIFT, FlowSchedule, ProcessedIntegrator

# stability scan spacing and bisection tolerance
SCAN_STEP, STABILITY_TOL = 1e-3, 1e-6


class TransferMatrix(NamedTuple):
    """Oscillator map [[m11, m12], [m21, m22]]; the entries are scalars or
    per-mode arrays (elementwise 2x2 maps)."""

    m11: Any
    m12: Any
    m21: Any
    m22: Any

    def __matmul__(self, other: "TransferMatrix") -> "TransferMatrix":
        return TransferMatrix(
            self.m11 * other.m11 + self.m12 * other.m21,
            self.m11 * other.m12 + self.m12 * other.m22,
            self.m21 * other.m11 + self.m22 * other.m21,
            self.m21 * other.m12 + self.m22 * other.m22,
        )

    def power(self, n: int) -> "TransferMatrix":
        """self^n (n >= 0) by repeated squaring."""
        one, zero = np.ones_like(self.m11), np.zeros_like(self.m11)
        result = TransferMatrix(one, zero, zero, one)
        base = self
        while n:
            if n & 1:
                result = base @ result
            base = base @ base
            n >>= 1
        return result


def schedule_matrix(schedule: FlowSchedule, h: Union[float, np.ndarray]) -> TransferMatrix:
    """Ordered product of the flow shears, in the order the flows act; h may
    be a scalar or an array of step sizes."""
    m11, m12, m21, m22 = 1.0, 0.0, 0.0, 1.0
    for f in schedule:
        c = f.coefficient * h
        if f.kind is _DRIFT:
            m11 = m11 + c * m21
            m12 = m12 + c * m22
            continue
        if f.c_mod != 0.0 or f.b_mod != 1.0:  # a plain kick's factor 1 - 0*h*h is 1 at finite h
            c = c * (f.b_mod - 2.0 * f.c_mod * h * h)
        m21 = m21 - c * m11
        m22 = m22 - c * m12
    return TransferMatrix(m11, m12, m21, m22)


def _is_stable(m12, m21):
    # Scalar or per-mode entries.  A unit-determinant palindromic map has
    # m12*m21 = m11^2 - 1, so opposite signs decide |m11| < 1.  Unlike m11
    # they stay resolved near a kernel passing through -I, where m12 and m21
    # are linear in the distance but m11 + 1 is quadratic and rounds to 0.
    # The signs are compared, not the product, which underflows to -0.0
    # below h ~ 1e-162.
    return ((m12 < 0.0) & (m21 > 0.0)) | ((m12 > 0.0) & (m21 < 0.0))


def _first_instability(kernel: FlowSchedule) -> Optional[tuple[float, float]]:
    """(last stable h, first unstable h) of the scan grid, or None if stable throughout."""
    chunk = 5000
    prev_stable = 0.0
    n_total = int(round(1000.0 / SCAN_STEP))  # h up to 1000
    for start in range(1, n_total + 1, chunk):
        stop = min(start + chunk, n_total + 1)
        hs = np.arange(start, stop, dtype=float) * SCAN_STEP
        stable = _is_stable(*schedule_matrix(kernel, hs)[1:3])
        if stable.all():
            prev_stable = float(hs[-1])
            continue
        idx = int(np.argmin(stable))
        lo = float(hs[idx - 1]) if idx > 0 else prev_stable
        return lo, float(hs[idx])
    return None


def stability_length(kernel: FlowSchedule) -> float:
    """Supremum h_s of step sizes below which the kernel map stays power
    bounded: scan in steps of SCAN_STEP, then bisect the first crossing
    down to absolute tolerance STABILITY_TOL."""
    bracket = _first_instability(kernel)
    if bracket is None:
        return math.inf
    lo, hi = bracket
    while hi - lo > STABILITY_TOL:
        mid = 0.5 * (lo + hi)
        if _is_stable(*schedule_matrix(kernel, mid)[1:3]):
            lo = mid
        else:
            hi = mid
    if hi <= STABILITY_TOL:
        return 0.0
    return 0.5 * (lo + hi)


def rho(integ: ProcessedIntegrator, h: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """N-independent upper bound on the expected leg energy error at step h.

    A float for a scalar h, elementwise values for an array of steps; +inf
    where the kernel is unstable or the value overflows to NaN, so the
    tuner's objective stays totally ordered.  A subnormal step is a
    ValueError naming the first: the maps lose their precision there, while
    the true value underflows.
    """
    hs, tiny = np.asarray(h, dtype=float), sys.float_info.min
    subnormal = hs[(0.0 < hs) & (hs < tiny)]
    if subnormal.size:
        raise ValueError(f"h={float(subnormal[0])} is subnormal: rho is not resolved below {tiny}")
    with np.errstate(all="ignore"):
        _, k12, k21, _ = schedule_matrix(integ.kernel, hs)
        chi = np.sqrt(k12 / -k21)
        alpha, beta, gamma, delta = schedule_matrix(integ.pre, hs)
        cross = alpha * gamma + beta * delta
        spread = (delta * delta + gamma * gamma) * chi - (alpha * alpha + beta * beta) / chi
        value = 2.0 * cross * cross + 0.5 * spread * spread
    # Where the kernel is unstable, k12 and k21 are 0 or share a sign, so
    # k12 / -k21 is negative, +-0, +-inf or NaN and value is NaN or +inf.
    value = np.fmin(value, math.inf)  # NaN reads +inf, every other value stays
    return value if isinstance(h, np.ndarray) else float(value)


def _series_matrix(schedule: FlowSchedule) -> np.ndarray:
    """schedule_matrix with h left symbolic: row i holds the coefficients of
    entry i of (m11, m12, m21, m22) in ascending powers of h.  A drift or a
    kick with c_mod = 0 raises the degree by one, a kick with c_mod != 0
    (slope linear plus cubic in h) by three.  Each flow updates every entry
    of the Python float rows once, as a + c*x or a - c*x."""
    zeros = [0.0] * sum(3 if f.c_mod != 0.0 else 1 for f in schedule)
    m11, m12, m21, m22 = [1.0, *zeros], [0.0, *zeros], [0.0, *zeros], [1.0, *zeros]
    for f in schedule:
        c = f.coefficient
        if f.kind is _DRIFT:
            m11[1:] = [a + c * x for a, x in zip(m11[1:], m21)]
            m12[1:] = [a + c * x for a, x in zip(m12[1:], m22)]
            continue
        c *= f.b_mod
        m21[1:] = [a - c * x for a, x in zip(m21[1:], m11)]
        m22[1:] = [a - c * x for a, x in zip(m22[1:], m12)]
        if f.c_mod != 0.0:
            c = 2.0 * f.coefficient * f.c_mod
            m21[3:] = [a + c * x for a, x in zip(m21[3:], m11)]
            m22[3:] = [a + c * x for a, x in zip(m22[3:], m12)]
    return np.array((m11, m12, m21, m22))


def _roots(coeffs: np.ndarray) -> np.ndarray:
    """Nonzero roots of the polynomial with ascending coefficients: those of
    np.roots(coeffs[::-1]), from the same companion matrix, bit for bit and in
    its order.  While the companion's first row is not finite (by Vieta, a
    root with |s| >~ 1e16), the leading coefficient is dropped where np.roots
    raises.  Callers silence overflow, division and invalid warnings."""
    nonzero = np.flatnonzero(coeffs)
    p = coeffs[nonzero[0] : nonzero[-1] + 1][::-1] if nonzero.size else coeffs[:1]
    row = -p[1:] / p[0]
    while not np.isfinite(row).all():
        p = p[1:]
        row = -p[1:] / p[0]
    companion = np.eye(len(row), k=-1)
    companion[:1] = row  # a constant's companion is 0 x 0
    return np.linalg.eigvals(companion)


def _rho_profile(integ: ProcessedIntegrator, hbar: float) -> tuple[float, float, float]:
    """(max over (0, hbar], value at hbar, max at the interior critical points).

    With chi^2 = k12 / -k21 cleared, rho = 2 cross^2 + S^2 / (2D) = N / (2D),
    where S = (delta^2 + gamma^2) k12 + (alpha^2 + beta^2) k21, D = -k12 k21
    and N = 4 cross^2 D + S^2 are polynomials in h.  Both N and D are even
    and vanish at h = 0, so n = N / s and d = D / s are polynomials in
    s = h^2, and rho peaks at hbar or at a root of n'd - nd' in (0, hbar^2).
    One rho call covers hbar, every such root and a probe between each pair
    of real roots of d: extra points cannot raise the maximum past the true
    one.  All three values are +inf if rho is +inf at hbar or a probe (the
    kernel is unstable inside (0, hbar]) or if n, d or n'd - nd' overflows.
    """
    if not (hbar > 0.0 and math.isfinite(hbar)):
        raise ValueError("hbar must be positive and finite")
    s_max = hbar * hbar
    if s_max == 0.0:
        raise ValueError(f"hbar={hbar} is too small: hbar^2 underflows to 0")
    unstable = (math.inf, math.inf, math.inf)
    mul = np.convolve
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        _, k12, k21, _ = _series_matrix(integ.kernel)
        alpha, beta, gamma, delta = _series_matrix(integ.pre)
        big_d = -mul(k12, k21)
        cross = mul(alpha, gamma) + mul(beta, delta)
        big_s = mul(mul(delta, delta) + mul(gamma, gamma), k12) + mul(mul(alpha, alpha) + mul(beta, beta), k21)
        n = (4.0 * mul(mul(cross, cross), big_d) + mul(big_s, big_s))[2::2]
        d = big_d[2::2]
        dn, dd = n[1:] * np.arange(1, len(n)), d[1:] * np.arange(1, len(d))
        slope = mul(dn, d) - mul(n, dd)  # n'd - nd'; an inf or NaN in n or d carries into it
        if not np.isfinite(slope).all():
            return unstable
        roots = sorted(x.real for x in _roots(d).tolist() if x.imag == 0.0 and 0.0 < x.real < s_max)
        critical = [math.sqrt(x.real) for x in _roots(slope).tolist() if 0.0 < x.real < s_max]

    # Stability changes only where d changes sign, at a real root.  Probe each
    # stretch between roots a third of the way in: a double root where the
    # kernel passes through -I splits into a close pair centred on itself.
    edges = [0.0, *roots, s_max]
    probes = [math.sqrt(lo + (hi - lo) / 3.0) for lo, hi in zip(edges, edges[1:])]
    values = rho(integ, np.array([hbar, *probes, *critical])).tolist()
    if max(values[: len(probes) + 1]) == math.inf:
        return unstable
    at_hbar, interior = values[0], max(values[len(probes) + 1 :], default=-math.inf)
    return max(at_hbar, interior), at_hbar, interior


def rho_norm(integ: ProcessedIntegrator, hbar: float) -> float:
    """max of rho over (0, hbar]; +inf if the kernel loses stability inside."""
    norm, _, _ = _rho_profile(integ, hbar)
    return norm
