"""Exact order of a leg, from Taylor series in the step h with Fraction coefficients.

q and p are power series in h, truncated after h^K.  Every drift and kick of
a leg of N steps acts on them exactly, for V = q^2/2 + q^4/4 from
(q0, p0), by default (2/5, 3/10), and the result is compared with the
exact flow's Taylor series at t = N*h, whose coefficients follow from
q' = p, p' = -V'(q).  A leg matches the flow through h^r when every coefficient up
to h^r agrees, and r is its order (Hairer, Lubich & Wanner, Geometric
Numerical Integration, 2nd ed., 2006, ch. III).

A flow here is (is_drift, coefficient, b_mod, c_mod) in Fractions, and a
kick's force is b*V' - 2*h^2*c*V''*V', the gradient of the modified
potential b*V - h^2*c*V'^2.  The library's schedules hold floats, whose
sums are not exact: as floats 6/7 + 1/7 != 1, so rowlands' float flows,
read as Fractions, already miss the h^1 term and read order 0.  The named
integrators are therefore rebuilt here from catalog's Fraction constants
and from the exact values of the reference rows' floats.
"""
from fractions import Fraction

from symphmc.catalog import (
    KAPPA_ALPHA_1,
    KAPPA_ALPHA_2,
    KAPPA_BETA_1,
    KAPPA_BETA_2,
    KAPPA_GAMMA_1,
    KERNEL_KICK_B,
    KERNEL_KICK_C,
    REFERENCE_ROWS,
)

K = 7
Q0, P0 = Fraction(2, 5), Fraction(3, 10)
ZERO = Fraction(0)


def drift(c):
    return (True, Fraction(c), Fraction(1), ZERO)


def kick(c, b_mod=1, c_mod=0):
    return (False, Fraction(c), Fraction(b_mod), Fraction(c_mod))


def _mul(a, b):
    out = [ZERO] * (K + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(K + 1 - i):
                out[i + j] += x * b[j]
    return out


def _shift(a, k):
    """a * h^k, truncated."""
    return [ZERO] * k + a[: K + 1 - k]


def _force(q):
    """V'(q) = q + q^3."""
    return [x + y for x, y in zip(q, _mul(q, _mul(q, q)))]


def run(flows, q0=Q0, p0=P0):
    """The leg's (q, p) from (q0, p0) as series in h."""
    q, p = [Fraction(q0)] + [ZERO] * K, [Fraction(p0)] + [ZERO] * K
    for is_drift, c, b_mod, c_mod in flows:
        if is_drift:
            q = [x + c * y for x, y in zip(q, _shift(p, 1))]
            continue
        force = _force(q)
        slope = [b_mod * x for x in force]
        if c_mod:
            curvature = [3 * x for x in _mul(q, q)]  # V'' = 1 + 3q^2
            curvature[0] += 1
            correction = _shift(_mul(curvature, force), 2)
            slope = [s - 2 * c_mod * x for s, x in zip(slope, correction)]
        p = [x - c * y for x, y in zip(p, _shift(slope, 1))]
    return q, p


def exact(n_steps, q0=Q0, p0=P0):
    """The exact flow's (q, p) at t = N*h from (q0, p0) as series in h."""
    q, p = [Fraction(q0)] + [ZERO] * K, [Fraction(p0)] + [ZERO] * K
    for k in range(K):  # coefficient k of V'(q) needs q's coefficients up to k
        q[k + 1] = p[k] / (k + 1)
        p[k + 1] = -_force(q)[k] / (k + 1)
    scale = [Fraction(n_steps) ** k for k in range(K + 1)]
    return [x * s for x, s in zip(q, scale)], [x * s for x, s in zip(p, scale)]


def leg(pre, kernel, n_steps):
    """pre, the kernel N - 2*folded times, then pre's adjoint (its reverse)."""
    folded = round(sum(c for is_drift, c, _, _ in pre if is_drift))
    return [*pre, *kernel * (n_steps - 2 * folded), *reversed(pre)]


def matched_order(flows, n_steps, q0=Q0, p0=P0):
    """The last power of h through which the leg from (q0, p0) matches the exact flow."""
    numeric, reference = run(flows, q0, p0), exact(n_steps, q0, p0)
    for k in range(K + 1):
        if any(a[k] != b[k] for a, b in zip(numeric, reference)):
            return k - 1
    return K


def error(flows, n_steps, k):
    """The h^k coefficient of the leg's q minus the exact flow's."""
    return run(flows)[0][k] - exact(n_steps)[0][k]


def processed_row(b, c, d):
    """build_kernel(b) and build_processor(c, d) with a = b/(6b - 1) exact."""
    b, c, d = Fraction(b), Fraction(c), Fraction(d)
    a = b / (6 * b - 1)
    outer = kick(Fraction(1, 2) - b)
    kernel = [outer, drift(a), kick(b), drift(1 - 2 * a), kick(b), drift(a), outer]
    return [kick(d), drift(c), kick(-d), drift(-c)], kernel


ROWLANDS_KERNEL = [kick(1, KERNEL_KICK_B, KERNEL_KICK_C), drift(1), kick(1, KERNEL_KICK_B, KERNEL_KICK_C)]


def rowlands_kappa(gamma_1=KAPPA_GAMMA_1):
    return [kick(1, KAPPA_BETA_1, gamma_1), drift(KAPPA_ALPHA_1), kick(KAPPA_BETA_2), drift(KAPPA_ALPHA_2)]


# name -> (preprocessor, kernel), the catalog's schedules in exact arithmetic
SCHEDULES = {
    "leapfrog": ([], [kick(Fraction(1, 2)), drift(1), kick(Fraction(1, 2))]),
    **{row.name: processed_row(row.b, row.c, row.d) for row in REFERENCE_ROWS},
    "rowlands": (rowlands_kappa(), ROWLANDS_KERNEL),
}
