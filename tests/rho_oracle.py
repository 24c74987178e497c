"""The scalar rho and the rho profile the one-call versions replaced.

scalar_rho evaluates the bound at one step in Python floats.  scalar_profile
checks stability at the probes with a separate map, calls scalar_rho at hbar
first (its +inf is the early exit) and then once per critical point.  The
library's rho takes a scalar or an array of steps and its profile makes one
rho call; these functions are the reference their bits are checked against
wherever the old code's arithmetic does not overflow.  series_matrix is the
slice-update form of the library's _series_matrix, which builds its rows as
Python float lists; the profile reads its polynomials from this copy.
"""
import math
import sys

import numpy as np

from symphmc.harmonic import _is_stable, schedule_matrix


def series_matrix(schedule) -> np.ndarray:
    m = np.zeros((4, 1 + sum(3 if f.c_mod != 0.0 else 1 for f in schedule)))
    m[0, 0] = m[3, 0] = 1.0
    for f in schedule:
        if f.is_drift:
            m[0:2, 1:] += f.coefficient * m[2:4, :-1]
            continue
        m[2:4, 1:] -= (f.coefficient * f.b_mod) * m[0:2, :-1]
        if f.c_mod != 0.0:
            m[2:4, 3:] += (2.0 * f.coefficient * f.c_mod) * m[0:2, :-3]
    return m


def scalar_rho(integ, h: float) -> float:
    if 0.0 < h < sys.float_info.min:
        raise ValueError(f"h={h} is subnormal: rho is not resolved below {sys.float_info.min}")
    _, k12, k21, _ = schedule_matrix(integ.kernel, h)
    if not _is_stable(k12, k21):
        return math.inf
    chi = math.sqrt(k12 / -k21)
    alpha, beta, gamma, delta = schedule_matrix(integ.pre, h)
    cross = alpha * gamma + beta * delta
    spread = (delta * delta + gamma * gamma) * chi - (alpha * alpha + beta * beta) / chi
    return 2.0 * cross * cross + 0.5 * spread * spread


def scalar_profile(integ, hbar: float) -> tuple[float, float, float]:
    if not (hbar > 0.0 and math.isfinite(hbar)):
        raise ValueError("hbar must be positive and finite")
    s_max = hbar * hbar
    if s_max == 0.0:
        raise ValueError(f"hbar={hbar} is too small: hbar^2 underflows to 0")
    unstable = (math.inf, math.inf, math.inf)
    at_hbar = scalar_rho(integ, hbar)
    if at_hbar == math.inf:
        return unstable
    mul = np.convolve
    _, k12, k21, _ = series_matrix(integ.kernel)
    alpha, beta, gamma, delta = series_matrix(integ.pre)
    big_d = -mul(k12, k21)
    cross = mul(alpha, gamma) + mul(beta, delta)
    big_s = mul(mul(delta, delta) + mul(gamma, gamma), k12) + mul(mul(alpha, alpha) + mul(beta, beta), k21)
    n = (4.0 * mul(mul(cross, cross), big_d) + mul(big_s, big_s))[2::2]
    d = big_d[2::2]
    dn, dd = n[1:] * np.arange(1, len(n)), d[1:] * np.arange(1, len(d))

    roots = np.roots(d[::-1])
    roots = np.sort(roots.real[(roots.imag == 0.0) & (roots.real > 0.0) & (roots.real < s_max)])
    edges = np.concatenate(([0.0], roots, [s_max]))
    probes = np.sqrt(edges[:-1] + np.diff(edges) / 3.0)
    if not _is_stable(*schedule_matrix(integ.kernel, probes)[1:3]).all():
        return unstable

    critical = np.roots((mul(dn, d) - mul(n, dd))[::-1]).real
    critical = critical[(critical > 0.0) & (critical < s_max)]
    interior = max((scalar_rho(integ, math.sqrt(x)) for x in critical), default=-math.inf)
    return max(at_hbar, interior), at_hbar, interior
