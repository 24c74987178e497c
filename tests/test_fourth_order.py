import math
from fractions import Fraction

import numpy as np
import pytest

from symphmc import (
    FlowSchedule,
    InsufficientSteps,
    PhaseState,
    ProcessedIntegrator,
    anharmonic_model,
    gaussian_model,
    modified_kick,
    order_estimate,
    rowlands_leg,
)
from symphmc.catalog import (
    INTEGRATOR_NAMES,
    KAPPA_ALPHA_1,
    KAPPA_ALPHA_2,
    KAPPA_BETA_1,
    KAPPA_BETA_2,
    KAPPA_GAMMA_1,
    KERNEL_KICK_B,
    KERNEL_KICK_C,
    named_integrator,
)
from symphmc.splitting import _lower, _run_flows

from conftest import assert_states_close
from series_oracle import ROWLANDS_KERNEL, SCHEDULES, error, leg, matched_order, rowlands_kappa

SCHEME = named_integrator("rowlands")
BARE_KERNEL = ProcessedIntegrator(SCHEME.kernel, FlowSchedule())


def modified_force(q, b_mod, c_mod, h, target):
    """The force of one unit modified_kick flow, read off its momentum from p = 0."""
    _, p = _run_flows(q, np.zeros_like(q), _lower((modified_kick(1.0, b_mod, c_mod),), h), target)
    return -p / h


class TestCoefficients:
    def test_exact_rational_positivity(self):
        # the flows that run, as rowlands-order checks them; then the exact constants
        assert all(f.coefficient > 0 and ((f.b_mod, f.c_mod) == (1.0, 0.0) or min(f.b_mod, f.c_mod) > 0)
                   for f in (*SCHEME.pre, *SCHEME.kernel))
        assert KAPPA_ALPHA_1 == Fraction(6, 7)
        assert KAPPA_BETA_1 == Fraction(23, 72)
        assert KAPPA_GAMMA_1 == Fraction(55, 1728)
        assert KAPPA_ALPHA_2 == Fraction(1, 7)
        assert KAPPA_BETA_2 == Fraction(49, 72)
        assert KERNEL_KICK_B == Fraction(1, 2)
        assert KERNEL_KICK_C == Fraction(1, 48)

    def test_schedules_carry_the_rationals(self):
        mk, dr, ki, dr2 = SCHEME.pre.flows
        assert (mk.is_drift, mk.b_mod, mk.c_mod) == (False, float(KAPPA_BETA_1), float(KAPPA_GAMMA_1))
        assert (dr.is_drift, dr.coefficient) == (True, float(KAPPA_ALPHA_1))
        assert (ki.is_drift, ki.coefficient) == (False, float(KAPPA_BETA_2))
        assert (dr2.is_drift, dr2.coefficient) == (True, float(KAPPA_ALPHA_2))
        assert all(f.coefficient > 0 for f in SCHEME.pre.flows)
        assert all(f.coefficient > 0 for f in SCHEME.kernel.flows)

    def test_consistency_sums(self):
        # drifts: 6/7 + 1/7 = 1; kick weights: 23/72 + 49/72 = 1
        assert abs(math.fsum(SCHEME.pre.weights(True)) - 1.0) <= 1e-15
        assert abs(math.fsum(SCHEME.pre.weights(False)) - 1.0) <= 1e-15
        assert SCHEME.folded == 1
        assert abs(math.fsum(SCHEME.kernel.weights(True)) - 1.0) <= 1e-15
        assert abs(math.fsum(SCHEME.kernel.weights(False)) - 1.0) <= 1e-15

    def test_kernel_is_palindromic(self):
        assert SCHEME.kernel.is_palindromic()


class TestModifiedForce:
    def test_reduces_to_scaled_gradient(self):
        tgt = anharmonic_model(2)
        q = np.array([0.4, -0.7])
        out = modified_force(q, 0.3, 0.0, 0.5, tgt.fresh())
        assert np.allclose(out, 0.3 * tgt.fresh().gradient(q), rtol=0, atol=0)

    def test_quadratic_potential_closed_form(self):
        tgt = gaussian_model(1)
        q = np.array([1.7])
        h, b, c = 0.4, 0.5, 1.0 / 48.0
        out = modified_force(q, b, c, h, tgt)
        assert math.isclose(out[0], (b - 2.0 * h * h * c) * q[0], rel_tol=1e-14)

    def test_matches_finite_differences_of_modified_potential(self):
        tgt = anharmonic_model(3)
        q = np.array([0.4, -0.9, 1.2])
        h, b, c = 0.3, float(KAPPA_BETA_1), float(KAPPA_GAMMA_1)

        def v_mod(x):
            g = tgt._gradient(x)
            return b * tgt.potential(x) - h * h * c * float(g @ g)

        eps = 1e-6
        fd = np.empty(3)
        for j in range(3):
            e = np.zeros(3)
            e[j] = eps
            fd[j] = (v_mod(q + e) - v_mod(q - e)) / (2 * eps)
        out = modified_force(q, b, c, h, tgt)
        assert np.allclose(out, fd, rtol=1e-5, atol=1e-8)


class TestRowlandsLeg:
    def test_requires_two_steps(self):
        with pytest.raises(InsufficientSteps):
            rowlands_leg(PhaseState([0.1], [0.0]), 0.1, 1, anharmonic_model(1))

    def test_validates_like_integrate_leg(self):
        with pytest.raises(ValueError):
            rowlands_leg(PhaseState([0.1], [0.0]), -0.1, 4, anharmonic_model(1))
        with pytest.raises(ValueError):
            rowlands_leg(PhaseState([0.1], [0.0]), 0.1, 4, anharmonic_model(2))

    def test_two_steps_is_kappa_star_kappa(self):
        tgt = anharmonic_model(2)
        s0 = PhaseState(np.array([0.4, -0.3]), np.array([0.2, 0.6]))
        out = rowlands_leg(s0, 0.3, 2, tgt)
        q, p = _run_flows(s0.q, s0.p, _lower(SCHEME.pre.flows + SCHEME.post.flows, 0.3), tgt)
        assert np.array_equal(out.q, q) and np.array_equal(out.p, p)

    def test_reversibility_with_momentum_flip(self):
        tgt = anharmonic_model(2)
        s0 = PhaseState(np.array([0.5, -0.2]), np.array([0.1, 0.7]))
        fwd = rowlands_leg(s0, 0.2, 8, tgt)
        back = rowlands_leg(PhaseState(fwd.q, -fwd.p), 0.2, 8, tgt)
        assert_states_close(PhaseState(back.q, -back.p), s0, rtol=1e-10)

    def test_volume_preservation(self):
        tgt = anharmonic_model(2)
        x0 = np.array([0.4, -0.2, 0.3, 0.5])
        eps = 1e-6

        def leg(x):
            out = rowlands_leg(PhaseState(x[:2], x[2:]), 0.25, 4, tgt)
            return np.concatenate([out.q, out.p])

        jac = np.empty((4, 4))
        for j in range(4):
            e = np.zeros(4)
            e[j] = eps
            jac[:, j] = (leg(x0 + e) - leg(x0 - e)) / (2 * eps)
        assert abs(np.linalg.det(jac) - 1.0) <= 1e-6

    def test_oscillator_leg_matches_shear_product(self):
        # on the unit oscillator every flow is a shear; a kick's force is
        # (b_mod - 2 h^2 c_mod) q, so that is its slope
        tgt = gaussian_model(1)
        h, n = 0.3, 4
        s0 = PhaseState(np.array([0.8]), np.array([-0.4]))
        out = rowlands_leg(s0, h, n, tgt)

        m = np.eye(2)
        flows = list(SCHEME.pre.flows) + list(SCHEME.kernel.flows) * (n - 2) + list(SCHEME.post.flows)
        for f in flows:
            if f.is_drift:
                step = np.array([[1.0, f.coefficient * h], [0.0, 1.0]])
            else:
                slope = f.coefficient * (f.b_mod - 2.0 * f.c_mod * h * h)
                step = np.array([[1.0, 0.0], [-slope * h, 1.0]])
            m = step @ m
        expected = m @ np.array([s0.q[0], s0.p[0]])
        assert math.isclose(out.q[0], expected[0], rel_tol=1e-12)
        assert math.isclose(out.p[0], expected[1], rel_tol=1e-12)


class TestOrderEstimate:
    def test_processed_is_fourth_order_on_anharmonic(self):
        orders = order_estimate(anharmonic_model(1), SCHEME, 2.0, 0.25)
        assert all(3.5 <= v <= 4.5 for v in orders)

    def test_processed_is_fourth_order_on_harmonic(self):
        orders = order_estimate(gaussian_model(1), SCHEME, 2.0, 0.25)
        assert all(3.5 <= v <= 4.5 for v in orders)

    def test_bare_kernel_is_second_order(self):
        orders = order_estimate(anharmonic_model(1), BARE_KERNEL, 2.0, 0.25)
        assert all(1.7 <= v <= 2.3 for v in orders)

    def test_verlet_is_second_order(self):
        orders = order_estimate(anharmonic_model(1), named_integrator("leapfrog"), 2.0, 0.25)
        assert all(1.7 <= v <= 2.3 for v in orders)

    def test_step_compatibility_enforced(self):
        with pytest.raises(ValueError):
            order_estimate(anharmonic_model(1), SCHEME, 2.0, 0.3)


class TestExactOrder:
    """Orders read off exact Taylor series in h: the last power a leg of N
    steps matches the exact flow through (tests/series_oracle.py)."""

    @pytest.mark.parametrize("name", INTEGRATOR_NAMES)
    def test_oracle_schedules_are_the_catalog_schedules(self, name):
        integ = named_integrator(name)
        for exact, flows in zip(SCHEDULES[name], (integ.pre, integ.kernel)):
            assert [is_drift for is_drift, *_ in exact] == [f.is_drift for f in flows]
            for (_, *values), f in zip(exact, flows):
                assert all(math.isclose(float(x), y, rel_tol=1e-15)
                           for x, y in zip(values, (f.coefficient, f.b_mod, f.c_mod)))

    @pytest.mark.parametrize("n_steps, q5_error", [(3, -0.369), (4, -0.551), (6, -0.915)])
    def test_rowlands_is_fourth_order(self, n_steps, q5_error):
        flows = leg(*SCHEDULES["rowlands"], n_steps)
        assert matched_order(flows, n_steps) == 4
        assert round(float(error(flows, n_steps, 5)), 3) == q5_error

    @pytest.mark.parametrize("name", ["bare-kernel", *(n for n in INTEGRATOR_NAMES if n != "rowlands")])
    def test_second_order(self, name):
        pre, kernel = ([], ROWLANDS_KERNEL) if name == "bare-kernel" else SCHEDULES[name]
        assert matched_order(leg(pre, kernel, 3), 3) == 2

    def test_perturbed_gamma_1_is_second_order(self):
        # the float gate, order_estimate, reads this kappa as fourth order
        pre = rowlands_kappa(KAPPA_GAMMA_1 + Fraction(1, 1000))
        assert matched_order(leg(pre, ROWLANDS_KERNEL, 4), 4) == 2
