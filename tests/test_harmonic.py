import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from symphmc import (
    FlowSchedule,
    TransferMatrix,
    drift,
    kick,
    modified_kick,
    rho,
    rho_norm,
    schedule_matrix,
    stability_length,
)
from symphmc.catalog import INTEGRATOR_NAMES, REFERENCE_ROWS, named_integrator, row_by_name
from symphmc.harmonic import _is_stable, _leg_map, _rho_profile, _roots, _series_matrix
from symphmc.splitting import processed_family
from symphmc.tuning import tune

from oscillator_oracle import UnstableStep, det, expected_energy_error, leg_matrix, sandwich, spectrum
from rho_oracle import scalar_profile, scalar_rho, series_matrix

VERLET = named_integrator("leapfrog")
ROW2 = named_integrator("proc-3.0")


def kernel_stability(name):
    return stability_length(named_integrator(name).kernel)


class TestFlowMatrices:
    def test_drift_shear(self):
        m = schedule_matrix(FlowSchedule((drift(1.0),)), 0.5)
        assert (m.m11, m.m12, m.m21, m.m22) == (1.0, 0.5, 0.0, 1.0)

    def test_kick_shear(self):
        m = schedule_matrix(FlowSchedule((kick(1.0),)), 0.5)
        assert (m.m11, m.m12, m.m21, m.m22) == (1.0, 0.0, -0.5, 1.0)

    @given(st.floats(-3, 3), st.floats(-1, 1))
    def test_shear_determinant(self, h, c):
        assert abs(det(schedule_matrix(FlowSchedule((drift(c),)), h)) - 1.0) <= 1e-14
        assert abs(det(schedule_matrix(FlowSchedule((kick(c),)), h)) - 1.0) <= 1e-14

    def test_modified_kick_shear(self):
        # force (b_mod - 2 h^2 c_mod) q on the unit oscillator: a kick of that slope
        m = schedule_matrix(FlowSchedule((modified_kick(1.0, 0.5, 1.0 / 48.0),)), 0.5)
        assert (m.m11, m.m12, m.m21, m.m22) == (1.0, 0.0, -0.5 * (0.5 - 2.0 / 48.0 * 0.25), 1.0)

    @pytest.mark.parametrize("name", ["proc-3.0", "rowlands"])
    def test_series_matrix_matches_schedule_matrix(self, name):
        integ = named_integrator(name)
        for schedule in (integ.kernel, integ.pre):
            series = _series_matrix(schedule)
            for h in (0.3, 1.7, 2.9):
                want = schedule_matrix(schedule, h)
                for row, entry in zip(series, want):
                    assert abs(np.polynomial.polynomial.polyval(h, row) - entry) <= 1e-12 * max(1.0, abs(entry))


class TestScheduleMatrix:
    def test_verlet_kernel_at_unit_step(self):
        m = schedule_matrix(VERLET.kernel, 1.0)
        # hand-multiplied: K(1/2) D(1) K(1/2) = [[1-h^2/2, h], [-h(1-h^2/4), 1-h^2/2]]
        assert (m.m11, m.m12, m.m21, m.m22) == (0.5, 1.0, -0.75, 0.5)

    def test_zero_step_is_identity(self):
        for name in ("leapfrog", "proc-3.0"):
            integ = named_integrator(name)
            m = schedule_matrix(integ.kernel, 0.0)
            assert (m.m11, m.m12, m.m21, m.m22) == (1.0, 0.0, 0.0, 1.0)

    @pytest.mark.parametrize("row", REFERENCE_ROWS, ids=lambda r: r.name)
    def test_named_schedules_unit_determinant_and_symmetric(self, row):
        integ = named_integrator(row.name)
        for h in np.linspace(0.06, 3.0, 50):
            k = schedule_matrix(integ.kernel, float(h))
            assert abs(det(k) - 1.0) <= 1e-12
            assert abs(k.m11 - k.m22) <= 1e-12  # palindromic kernel
            p = schedule_matrix(integ.pre, float(h))
            assert abs(det(p) - 1.0) <= 1e-12

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 64])
    def test_power_matches_repeated_product(self, n):
        # n kernel steps; 0 only in a folded leg of N = 2
        integ = named_integrator("rowlands") if n == 0 else ROW2
        x = np.array([0.3, 1.1, 2.9])
        k = schedule_matrix(integ.kernel, x)
        expected = schedule_matrix(integ.pre, x)
        for _ in range(n):
            expected = k @ expected
        expected = schedule_matrix(integ.post, x) @ expected
        for got, want in zip(_leg_map(integ, x, n + 2 * integ.folded), expected):
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_processor_parity(self):
        # m11, m22 even in h; m12, m21 odd
        for h in np.linspace(0.05, 3.0, 50):
            plus = schedule_matrix(ROW2.pre, float(h))
            minus = schedule_matrix(ROW2.pre, float(-h))
            assert abs(plus.m11 - minus.m11) <= 1e-12
            assert abs(plus.m12 + minus.m12) <= 1e-12
            assert abs(plus.m21 + minus.m21) <= 1e-12
            assert abs(plus.m22 - minus.m22) <= 1e-12


class TestSpectrum:
    def test_verlet_unit_step(self):
        sp = spectrum(schedule_matrix(VERLET.kernel, 1.0))
        assert sp.stable
        assert math.isclose(sp.theta, math.pi / 3.0, rel_tol=1e-12)
        assert math.isclose(sp.chi, math.sqrt(4.0 / 3.0), rel_tol=1e-12)

    def test_verlet_unstable_step(self):
        sp = spectrum(schedule_matrix(VERLET.kernel, 2.5))
        assert not sp.stable
        assert sp.chi is None and sp.theta is None

    def test_exact_rotation(self):
        h = 0.37
        sp = spectrum(TransferMatrix(math.cos(h), math.sin(h), -math.sin(h), math.cos(h)))
        assert sp.stable
        assert math.isclose(sp.chi, 1.0, rel_tol=1e-14)
        assert math.isclose(sp.theta, h, rel_tol=1e-14)

    def test_reconstruction_in_primary_window(self):
        # below the angle-pi crossing: m11 = cos t, m12 = chi sin t, m21 = -sin t / chi
        for h in np.linspace(0.1, 2.5, 25):
            m = schedule_matrix(ROW2.kernel, float(h))
            sp = spectrum(m)
            assert sp.stable
            assert abs(m.m11 - math.cos(sp.theta)) <= 1e-10
            assert abs(m.m12 - sp.chi * math.sin(sp.theta)) <= 1e-10
            assert abs(m.m21 + math.sin(sp.theta) / sp.chi) <= 1e-10


class TestStabilityLength:
    def test_verlet_analytic(self):
        assert abs(stability_length(VERLET.kernel) - 2.0) <= 1e-6

    def test_rowlands_analytic(self):
        # the modified kick's slope h(1/2 - h^2/24) changes sign at 2*sqrt(3)
        assert abs(stability_length(named_integrator("rowlands").kernel) - 2.0 * math.sqrt(3.0)) <= 1e-6

    @pytest.mark.parametrize("row", REFERENCE_ROWS, ids=lambda r: r.name)
    def test_reference_rows(self, row):
        assert abs(kernel_stability(row.name) - row.stability) <= 0.005

    def test_unstable_from_start_returns_zero(self):
        # an inconsistent schedule and the empty one are unstable for every
        # h > 0; the empty schedule's map is the identity, in Python scalars
        # even for an array of steps
        for flows in [(kick(1.0), drift(-1.0), kick(1.0)), ()]:
            assert stability_length(FlowSchedule(flows)) == 0.0

    def test_named_kernel_bits(self):
        # the sweep's default step grid is built from these exact values
        pinned = ["0x1.fffff7ced9168p+0", "0x1.2a5bac083126ep+2", "0x1.3f0ec28f5c290p+2", "0x1.40a6439581062p+2",
                  "0x1.431751eb851ecp+2", "0x1.4618cac083126p+2", "0x1.bb67b22d0e560p+1"]
        assert [kernel_stability(name).hex() for name in INTEGRATOR_NAMES] == pinned

    @pytest.mark.parametrize("h_s", [5.0005, 200.0])
    def test_crossing_past_the_first_scan_chunk(self, h_s):
        # leapfrog with every coefficient scaled by 2/h_s is stable for h < h_s;
        # 5.0005 puts the first unstable grid point first in the second chunk
        c = 2.0 / h_s
        kernel = FlowSchedule((kick(0.5 * c), drift(c), kick(0.5 * c)))
        assert abs(stability_length(kernel) - h_s) <= 1e-6

    def test_stable_over_the_whole_scan_is_infinite(self):
        kernel = FlowSchedule((kick(5e-4), drift(1e-3), kick(5e-4)))  # stable for h < 2000
        assert stability_length(kernel) == math.inf


class TestLegMatrix:
    def test_identity_processor_reduces_to_kernel_power(self):
        h, n = 0.9, 17
        sp = spectrum(schedule_matrix(VERLET.kernel, h))
        m = leg_matrix(VERLET, h, n)
        big_c, big_s = math.cos(n * sp.theta), math.sin(n * sp.theta)
        assert math.isclose(m.m11, big_c, rel_tol=0, abs_tol=1e-12)
        assert math.isclose(m.m12, sp.chi * big_s, rel_tol=0, abs_tol=1e-12)
        assert math.isclose(m.m21, -big_s / sp.chi, rel_tol=0, abs_tol=1e-12)

    def test_ideal_processor_gives_rotation(self):
        chi = 1.7
        alpha = math.sqrt(chi)
        big_c, big_s = math.cos(1.1), math.sin(1.1)
        a, b, c = sandwich(alpha, 0.0, 0.0, 1.0 / alpha, chi, big_c, big_s)
        assert math.isclose(a, big_c, rel_tol=1e-14)
        assert math.isclose(b, big_s, rel_tol=1e-14)
        assert math.isclose(c, -big_s, rel_tol=1e-14)

    @pytest.mark.parametrize("name", ["leapfrog", "blcasa", "proc-3.0", "proc-4.5", "rowlands"])
    def test_closed_form_matches_matrix_powering(self, name):
        integ = named_integrator(name)
        h_max = 0.985 * stability_length(integ.kernel)
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 40:
            h = float(rng.uniform(0.05, h_max))
            if not spectrum(schedule_matrix(integ.kernel, h)).stable:
                continue
            n = int(rng.integers(1, 1001)) + integ.folded
            closed = leg_matrix(integ, h, n)
            acc = schedule_matrix(integ.pre, h)
            k = schedule_matrix(integ.kernel, h)
            for _ in range(integ.kernel_steps(n)):
                acc = k @ acc
            acc = schedule_matrix(integ.post, h) @ acc
            scale = max(1.0, abs(acc.m11), abs(acc.m12), abs(acc.m21), abs(acc.m22))
            err = max(
                abs(closed.m11 - acc.m11),
                abs(closed.m12 - acc.m12),
                abs(closed.m21 - acc.m21),
                abs(closed.m22 - acc.m22),
            )
            assert err <= 1e-9 * scale
            checked += 1

    def test_unstable_step_raises(self):
        with pytest.raises(UnstableStep):
            leg_matrix(VERLET, 2.5, 10)


class TestExpectedEnergyError:
    def test_rotation_has_zero_error(self):
        m = TransferMatrix(math.cos(0.8), math.sin(0.8), -math.sin(0.8), math.cos(0.8))
        assert expected_energy_error(m) == 0.0

    def test_unprocessed_form(self):
        h, n = 1.0, 13
        sp = spectrum(schedule_matrix(VERLET.kernel, h))
        m = leg_matrix(VERLET, h, n)
        s2 = math.sin(n * sp.theta) ** 2
        expected = 0.5 * s2 * (sp.chi - 1.0 / sp.chi) ** 2
        assert math.isclose(expected_energy_error(m), expected, rel_tol=1e-12)

    def test_monte_carlo_oracle(self):
        m = leg_matrix(ROW2, 1.3, 37)
        closed = expected_energy_error(m)
        rng = np.random.default_rng(99)
        q0 = rng.standard_normal(200_000)
        p0 = rng.standard_normal(200_000)
        qn = m.m11 * q0 + m.m12 * p0
        pn = m.m21 * q0 + m.m22 * p0
        delta = 0.5 * (qn * qn + pn * pn - q0 * q0 - p0 * p0)
        se = delta.std(ddof=1) / math.sqrt(delta.size)
        assert abs(delta.mean() - closed) <= 3.0 * se


class TestRho:
    def test_identity_processor_value_at_unit_step(self):
        # chi = sqrt(4/3) for velocity Verlet at h = 1, so rho = 1/24
        assert math.isclose(rho(VERLET, 1.0), 1.0 / 24.0, rel_tol=1e-12)

    def test_vanishes_as_h_to_zero(self):
        assert rho(ROW2, 1e-4) < 1e-20

    def test_unstable_is_inf(self):
        assert rho(VERLET, 2.5) == math.inf

    @pytest.mark.parametrize("name", INTEGRATOR_NAMES)
    def test_stable_below_product_underflow(self, name):
        # k12*k21 ~ -h^2 underflows to -0.0 below h ~ 1.5e-162; the signs do not
        integ = named_integrator(name)
        k12, k21 = schedule_matrix(integ.kernel, 1e-200)[1:3]
        assert k12 * k21 == 0.0 and _is_stable(k12, k21)
        assert rho(integ, 1e-200) == 0.0
        hs = np.array([1e-200, 1e-100, 1.0])
        assert _is_stable(*schedule_matrix(integ.kernel, hs)[1:3]).all()

    @pytest.mark.parametrize("h", [1e-310, 1e-320, 5e-324])
    @pytest.mark.parametrize("name", INTEGRATOR_NAMES)
    def test_subnormal_step_is_rejected(self, name, h):
        # the maps lose their precision there while the true rho underflows to 0
        with pytest.raises(ValueError, match=f"h={h} is subnormal"):
            rho(named_integrator(name), h)

    @given(st.floats(-1e150, 1e150), st.floats(-1e150, 1e150))
    def test_sign_test_is_the_product_test(self, m12, m21):
        # wherever the product does not underflow, the decisions agree
        product = m12 * m21
        if product != 0.0 or m12 == 0.0 or m21 == 0.0:
            assert _is_stable(m12, m21) == (product < 0.0)

    @pytest.mark.parametrize("row", REFERENCE_ROWS, ids=lambda r: r.name)
    def test_bounds_expected_error_for_any_leg_length(self, row):
        integ = named_integrator(row.name)
        h_max = 0.98 * stability_length(integ.kernel)
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 50:
            h = float(rng.uniform(0.05, h_max))
            if not spectrum(schedule_matrix(integ.kernel, h)).stable:
                continue
            n = int(rng.integers(1, 1001))
            err = expected_energy_error(leg_matrix(integ, h, n))
            assert err <= rho(integ, h) + 1e-12
            checked += 1


class TestRhoNorm:
    def test_row2_wrong_budget_is_diagnostically_larger(self):
        assert rho_norm(ROW2, 4.5) > 6e-8

    def test_beyond_stability_is_inf(self):
        assert rho_norm(VERLET, 2.5) == math.inf
        for name in INTEGRATOR_NAMES:
            integ = named_integrator(name)
            h_s = stability_length(integ.kernel)
            assert rho_norm(integ, 1.001 * h_s) == math.inf, name
            assert math.isfinite(rho_norm(integ, 0.999 * h_s)), name
        # 6.2 lies in a stable island past blcasa's h_s = 4.66: rho is finite
        # there, but the kernel is unstable in between
        blcasa = named_integrator("blcasa")
        assert math.isfinite(rho(blcasa, 6.2))
        assert rho_norm(blcasa, 6.2) == math.inf
        # every two-stage kernel equals -I at h^2 = (6b - 1) / b^2, near 3 for
        # these b; D touches zero there without changing sign
        row = row_by_name("proc-3.0")
        for b in np.linspace(0.335, 0.385, 1001):
            assert math.isfinite(rho_norm(processed_family(float(b), row.c, row.d), 3.5)), b

    def test_interior_peak_below_budget_end(self):
        # the interior maximum near h = 1.58 that sets rho_norm(proc-3.0, 3.0)
        # is still reported at budget 4.5, where rho ends far above it
        _, at_hbar, interior = _rho_profile(ROW2, 4.5)
        assert at_hbar > 1e3 * interior
        assert math.isclose(interior, rho_norm(ROW2, 3.0), rel_tol=1e-12)

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            rho_norm(ROW2, 0.0)
        with pytest.raises(ValueError):
            rho_norm(ROW2, math.inf)

    def test_budget_whose_square_underflows_is_rejected(self):
        with pytest.raises(ValueError, match="hbar=1e-200 is too small"):
            rho_norm(ROW2, 1e-200)

    def test_monotone_in_budget(self):
        budgets = [1e-4, 1.5, 2.0, 2.5, 3.0]  # at 1e-4 the kernel's m11 rounds to 1.0
        values = [rho_norm(ROW2, b) for b in budgets]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 1e-12

    @pytest.mark.parametrize("row", REFERENCE_ROWS[1:], ids=lambda r: r.name)
    def test_reference_rows_within_shipped_bounds(self, row):
        integ = named_integrator(row.name)
        value = rho_norm(integ, row.hbar)
        assert row.rho_bound / 10.0 <= value <= row.rho_bound

    @pytest.mark.parametrize("hbar", [1.0, 3.0, 3.3])
    def test_rowlands_matches_fine_grid(self, hbar):
        integ = named_integrator("rowlands")
        grid = max(rho(integ, float(h)) for h in np.linspace(hbar / 20000, hbar, 20000))
        assert math.isclose(rho_norm(integ, hbar), grid, rel_tol=1e-12)

    @pytest.mark.xfail(
        strict=True,
        reason="near the two-stage kernel's -I point (h^2 = (6b - 1)/b^2) the numerator and "
        "denominator of rho share a near-double factor, so np.roots misplaces the critical "
        "point and rho_norm reads 7.5e-7 low",
    )
    def test_maximum_next_to_the_minus_identity_point(self):
        integ = processed_family(0.342190496023116, -0.09384966107273601, 0.07038437456450704)
        # a grid over (0, 3.5] puts the maximum near h = 3.008; refine it twice
        lo, hi = 2.9, 3.1
        for _ in range(2):
            hs = np.linspace(lo, hi, 2001)
            values = [rho(integ, float(h)) for h in hs]
            i = int(np.argmax(values))
            lo, hi = hs[i - 1], hs[i + 1]
        assert math.isclose(max(values), 6.92595037e-05, rel_tol=1e-8)
        assert math.isclose(rho_norm(integ, 3.5), max(values), rel_tol=1e-9)

    def test_blcasa_regression_value(self):
        # the shipped blcasa bound (7e-5) reflects a coarse scan of the open
        # interval; the true supremum sits at the budget end and is frozen
        # here as a regression value (verified against 50-digit arithmetic)
        value = rho_norm(named_integrator("blcasa"), 3.0)
        assert math.isclose(value, 7.420004184501961e-05, rel_tol=1e-12)


def hexes(values):
    return [float(v).hex() for v in values]


class TestArrayRho:
    # steps from near 0 to well past every kernel's stability length, plus
    # extremes where k12*k21 underflows or the maps overflow
    STEPS = np.concatenate((np.linspace(1e-3, 8.0, 4001), [1e-300, 1e-200, 1e-100, 1e100, 1e200, 1e300]))

    @pytest.mark.parametrize("name", INTEGRATOR_NAMES)
    def test_array_is_the_scalar_loop_bit_for_bit(self, name):
        integ = named_integrator(name)
        values = rho(integ, self.STEPS)
        assert isinstance(values, np.ndarray) and values.shape == self.STEPS.shape
        assert hexes(values) == hexes(rho(integ, float(h)) for h in self.STEPS)
        assert hexes(rho(integ, self.STEPS.tolist())) == hexes(values)  # a list is an array of steps too
        assert np.isinf(values).any() and np.isfinite(values).any()  # unstable steps are covered
        # where the old scalar arithmetic stays finite, it gives the same bits
        finite = self.STEPS < 1e100
        assert hexes(values[finite]) == hexes(scalar_rho(integ, float(h)) for h in self.STEPS[finite])

    @pytest.mark.parametrize("h", [1.0, 2.5, 1e-200, pytest.param(np.array(2.5), id="0-d-array")])
    def test_scalar_step_gives_a_python_float(self, h):
        assert type(rho(VERLET, h)) is float
        assert type(rho(ROW2, h)) is float

    def test_subnormal_error_names_the_first_subnormal_step(self):
        with pytest.raises(ValueError, match=r"^h=1e-320 is subnormal"):
            rho(ROW2, np.array([1.0, 0.0, 1e-320, 1e-323]))

    def test_array_warns_nothing(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            values = rho(ROW2, np.linspace(2e199, 1e200, 5))
            rho(named_integrator("rowlands"), np.array([0.0, -1.0, 1e300, math.inf]))
        assert caught == [] and (values == math.inf).all()


def _rows_nearby(count, seed):
    """(b, c, d, hbar) scattered around the reference rows and budgets."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        row = REFERENCE_ROWS[i % len(REFERENCE_ROWS)]
        b = row.b + rng.normal(0.0, 0.01)
        c, d = row.c + rng.normal(0.0, 0.02), row.d + rng.normal(0.0, 0.02)
        yield b, c, d, float(rng.uniform(0.3, 5.0))


class TestProfileMatchesScalarOracle:
    @pytest.mark.parametrize("name", INTEGRATOR_NAMES)
    def test_named_integrators(self, name):
        integ = named_integrator(name)
        h_s = stability_length(integ.kernel)
        # below 1.5e-154 hbar^2 is subnormal and its root is not hbar, while
        # rho's rounding noise (~1e-32) there depends on the step's last bits
        tiny = [1e-160, 1e-158, 1e-157]
        budgets = tiny + [0.5, 1.0, 1.58274, 2.0, 3.0, 3.5, 4.0, 4.5, 5.0, 6.2, 0.999 * h_s, 1.001 * h_s, 8.0]
        for hbar in budgets:
            # past h_s (1.001*h_s and 8.0 for every member) the kernel is
            # unstable at hbar, and the profile still reaches the polynomial roots
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _rho_profile(integ, hbar)
            assert hexes(got) == hexes(scalar_profile(integ, hbar)), hbar
        assert any(math.isinf(_rho_profile(integ, hbar)[0]) for hbar in budgets)

    def test_random_members_near_the_rows(self):
        finite = 0
        for b, c, d, hbar in _rows_nearby(400, seed=15):
            integ = processed_family(b, c, d)
            got = _rho_profile(integ, hbar)
            assert hexes(got) == hexes(scalar_profile(integ, hbar)), (b, c, d, hbar)
            finite += math.isfinite(got[0])
        assert 300 <= finite < 400  # stable and unstable members both occur

    def test_tuner_traffic(self):
        # every member the simplex visits, at the budget it tunes for
        row = row_by_name("proc-3.0")
        trace = tune(3.0, (row.b, row.c, row.d), restarts=0, max_iter=100).trace
        assert len(trace) > 100
        for b, c, d, value in trace:
            integ = processed_family(b, c, d)
            got = _rho_profile(integ, 3.0)
            assert hexes(got) == hexes(scalar_profile(integ, 3.0)), (b, c, d)
            assert got[0] == value

    def test_series_matrix_matches_the_slice_update_form(self):
        members = [named_integrator(name) for name in INTEGRATOR_NAMES]
        members += [processed_family(b, c, d) for b, c, d, _ in _rows_nearby(200, seed=18)]
        assert any(f.c_mod != 0.0 for f in named_integrator("rowlands").kernel)  # modified kicks are covered
        for integ in members:
            for schedule in (integ.kernel, integ.pre):
                got, want = _series_matrix(schedule), series_matrix(schedule)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestRoots:
    """_roots gives the nonzero roots of np.roots on the reversed
    coefficients, bit for bit and in its order."""

    @staticmethod
    def coefficient_arrays(seed):
        rng = np.random.default_rng(seed)
        yield from (np.zeros(k) for k in (1, 2, 5))
        for degree in range(21):
            for _ in range(6):
                coeffs = rng.normal(size=degree + 1) * 10.0 ** rng.integers(-8, 9, size=degree + 1)
                zeros = rng.integers(0, 3, size=2)  # zero roots, vanishing leading terms
                yield np.concatenate((np.zeros(zeros[0]), coeffs, np.zeros(zeros[1])))
            single = np.zeros(degree + 1)
            single[rng.integers(0, degree + 1)] = rng.normal()
            yield single

    def test_nonzero_roots_of_np_roots(self):
        checked = 0
        for coeffs in self.coefficient_arrays(seed=18):
            try:
                want = np.roots(coeffs[::-1])
            except np.linalg.LinAlgError:
                continue
            nonzero = np.flatnonzero(coeffs)
            zero_roots = nonzero[0] if nonzero.size else 0
            got = _roots(coeffs)
            assert got.dtype == want.dtype or got.size == 0
            assert got.tobytes() == want[: want.size - zero_roots].tobytes(), coeffs
            checked += 1
        assert checked > 120

    @pytest.mark.parametrize("lead", [1e-300, 1e-310, 5e-324])
    def test_an_overflowing_first_row_drops_the_leading_coefficient(self, lead):
        # np.roots raises on these; with the leading term dropped, and a zero
        # term below it, the companion is the one of the remaining polynomial
        rng = np.random.default_rng(18)
        for degree in range(1, 12):
            coeffs = rng.choice([-1.0, 1.0], size=degree + 1) * rng.uniform(2.0, 4.0, size=degree + 1) * (1e308 * lead)
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                with pytest.raises(np.linalg.LinAlgError):
                    np.roots(np.append(coeffs, lead)[::-1])
                want = _roots(coeffs).tobytes()
                assert _roots(np.append(coeffs, lead)).tobytes() == want
                assert _roots(np.concatenate((coeffs, [0.0, lead]))).tobytes() == want


class TestOverflow:
    # (c, d) this large overflows the processor's maps and the products
    # building n and d; the tuner's objective must still read +inf
    @pytest.mark.parametrize("cd", [1e60, 1e100])
    def test_rho_reads_inf_not_nan(self, cd):
        integ = processed_family(0.348674, cd, cd)
        assert rho(integ, 3.0) == math.inf
        assert (rho(integ, np.array([0.5, 3.0])) == math.inf).all()

    # a tiny processor parameter makes the leading coefficient of n'd - nd'
    # tiny, so np.roots' companion row overflows; the member is the c = d = 0
    # one to within far less than an ulp of rho_norm
    @pytest.mark.parametrize("tiny", [1e-20, 1e-50, 1e-100, 1e-140, 1e-145, 1e-150, 1e-300])
    def test_tiny_processor_parameter_is_silent_and_finite(self, tiny):
        bare = rho_norm(processed_family(0.348674, 0.0, 0.0), 3.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for c, d in ((-0.07564, tiny), (tiny, -0.07564)):
                assert rho_norm(processed_family(0.348674, c, d), 3.0) == bare
        assert caught == []

    # at c = d = 1.778e19 (b = 0.348674) n is still finite, and n' and n'd - nd' overflow
    @pytest.mark.parametrize("cd", [1.778e19, 1e100])
    @pytest.mark.parametrize("b", [0.348674, 1.0 / 6.0 + 1e-8, 0.2, 0.25])
    def test_profile_is_inf_and_silent(self, b, cd):
        integ = processed_family(b, cd, cd)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for hbar in (0.5, 3.0):
                assert _rho_profile(integ, hbar) == (math.inf, math.inf, math.inf)
                assert rho_norm(integ, hbar) == math.inf
        assert caught == []
