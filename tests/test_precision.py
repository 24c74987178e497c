"""50-digit cross-checks of the two numbers the paper's table rests on: the
maximum of rho over a step-size budget and the kernel stability length."""
import math

import pytest
from mpmath import mp, mpf

from symphmc import rho_norm, stability_length
from symphmc.catalog import INTEGRATOR_NAMES, REFERENCE_ROWS, named_integrator

DIGITS = 50


def mp_matrix(schedule, h):
    """schedule_matrix in mpmath: the ordered product of the flow shears.
    A kick's force on the oscillator is (b_mod - 2 h^2 c_mod) q, q for a
    plain kick."""
    m11, m12, m21, m22 = mpf(1), mpf(0), mpf(0), mpf(1)
    for f in schedule:
        c = mpf(f.coefficient) * h
        if f.is_drift:
            m11, m12 = m11 + c * m21, m12 + c * m22
            continue
        c *= mpf(f.b_mod) - 2 * mpf(f.c_mod) * h * h
        m21, m22 = m21 - c * m11, m22 - c * m12
    return m11, m12, m21, m22


def mp_stable(kernel, h):
    k11, k12, k21, _ = mp_matrix(kernel, h)
    return abs(k11) < 1 and k12 * k21 < 0


def mp_rho(integ, h):
    k11, k12, k21, _ = mp_matrix(integ.kernel, h)
    assert abs(k11) < 1 and k12 * k21 < 0, "unstable inside the budget"
    chi = mp.sqrt(k12 / -k21)
    alpha, beta, gamma, delta = mp_matrix(integ.pre, h)
    cross = alpha * gamma + beta * delta
    spread = (delta * delta + gamma * gamma) * chi - (alpha * alpha + beta * beta) / chi
    return 2 * cross * cross + spread * spread / 2


def golden_max(f, a, b, width):
    inv_phi = (mp.sqrt(5) - 1) / 2
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > width:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return max(fc, fd)


def mp_rho_max(integ, hbar, points=2000):
    """Max of rho over (0, hbar]: every local maximum of a uniform grid,
    refined by golden section, and the value at hbar, all at 50 digits."""
    hbar = mpf(hbar)
    hs = [hbar * k / points for k in range(1, points + 1)]
    vals = [mp_rho(integ, h) for h in hs]
    best = vals[-1]
    for i in range(1, points - 1):
        if vals[i] >= vals[i - 1] and vals[i] >= vals[i + 1]:
            best = max(best, golden_max(lambda h: mp_rho(integ, h), hs[i - 1], hs[i + 1], mpf(10) ** -30))
    return best


def mp_first_instability(kernel, step=mpf("0.01")):
    """First h where the kernel map stops being power bounded: a scan in
    steps of `step`, then bisection at 50 digits."""
    hi = step
    while mp_stable(kernel, hi):
        hi += step
    lo = hi - step
    while hi - lo > mpf(10) ** -30:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if mp_stable(kernel, mid) else (lo, mid)
    return hi


@pytest.mark.parametrize("row", REFERENCE_ROWS, ids=lambda r: r.name)
def test_rho_norm_matches_50_digit_maximum(row):
    integ = named_integrator(row.name)
    with mp.workdps(DIGITS):
        exact = mp_rho_max(integ, row.hbar)
        assert abs(rho_norm(integ, row.hbar) - exact) <= 5e-12 * exact


@pytest.mark.parametrize("name", INTEGRATOR_NAMES)
def test_stability_length_matches_50_digit_instability(name):
    kernel = named_integrator(name).kernel
    with mp.workdps(DIGITS):
        assert abs(stability_length(kernel) - mp_first_instability(kernel)) <= 1e-6


def test_rowlands_stability_length_is_two_root_three():
    # the kernel's modified kick has slope h(1/2 - h^2/24), positive iff
    # h < 2*sqrt(3); 1/48 rounded to a double moves the root by ~1e-16
    kernel = named_integrator("rowlands").kernel
    with mp.workdps(DIGITS):
        assert abs(mp_first_instability(kernel) - 2 * mp.sqrt(3)) <= mpf(10) ** -15
    assert abs(stability_length(kernel) - 2.0 * math.sqrt(3.0)) <= 1e-6
