import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from symphmc import (
    DegenerateParameter,
    FlowSchedule,
    HmcConfig,
    InsufficientSteps,
    NonFiniteState,
    PhaseState,
    ProcessedIntegrator,
    anharmonic_model,
    build_kernel,
    build_processor,
    drift,
    gaussian_model,
    hmc_run,
    integrate_leg,
    kick,
    leg_gradient_count,
    modified_kick,
    processed_family,
)
from symphmc.catalog import INTEGRATOR_NAMES, REFERENCE_ROWS, named_integrator, row_by_name, scan_budget
from symphmc.harmonic import _series_matrix, rho_norm, schedule_matrix
from symphmc.splitting import _lower, _run_flows
from symphmc.targets import TargetModel

from conftest import assert_states_close
from flow_oracle import allocating_leg, allocating_run_flows

finite_coeffs = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


# plain kicks, and modified kicks both without (c_mod = 0) and with the
# Hessian-vector correction
any_flow = st.one_of(
    st.builds(drift, finite_coeffs),
    st.builds(kick, finite_coeffs),
    st.builds(modified_kick, finite_coeffs, finite_coeffs, st.just(0.0)),
    st.builds(modified_kick, finite_coeffs, finite_coeffs, finite_coeffs.filter(lambda x: x != 0.0)),
)


def schedules():
    return st.lists(any_flow, max_size=6).map(lambda fs: FlowSchedule(tuple(fs)))


class TestPhaseState:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PhaseState(np.zeros(3), np.zeros(2))

    def test_matrix_input_rejected(self):
        for q, p in [(np.zeros((2, 2)), np.zeros((2, 2))), (np.zeros(3), np.zeros((3, 1)))]:
            with pytest.raises(ValueError, match="^q and p must be one-dimensional$"):
                PhaseState(q, p)


class TestBuildKernel:
    @pytest.mark.parametrize(
        "b, a_expected",
        [(0.381120, 0.296195), (0.348674, 0.319286)],
    )
    def test_drift_coefficient(self, b, a_expected):
        kernel = build_kernel(b)
        a = b / (6.0 * b - 1.0)
        assert kernel.flows[1].coefficient == a
        assert abs(a - a_expected) < 1e-6

    def test_degenerate_parameter(self):
        with pytest.raises(DegenerateParameter):
            build_kernel(1.0 / 6.0)

    def test_non_finite_parameter(self):
        with pytest.raises((DegenerateParameter, ValueError)):
            build_kernel(float("inf"))
        with pytest.raises(ValueError):
            build_processor(float("nan"), 0.1)

    def test_flow_validation(self):
        with pytest.raises(ValueError):
            drift(float("nan"))
        with pytest.raises(ValueError):
            modified_kick(1.0, float("inf"), 0.0)
        with pytest.raises(ValueError, match="2\\*c_mod"):  # finite, but 2*c_mod*h^2 is inf at every h
            modified_kick(0.5, 1.0, 1e308)
        with pytest.raises(TypeError):
            FlowSchedule((1.0, 2.0))
        # an int, a numpy scalar or a Fraction weight is stored as the Python float of its input
        cases = ((drift, (1,)), (kick, (np.float64(0.5),)), (modified_kick, (1, Fraction(1, 2), Fraction(1, 48))))
        for make, args in cases:
            flow = make(*args)
            weights = (flow.coefficient, flow.b_mod, flow.c_mod)[: len(args)]
            assert [type(w) for w in weights] == [float] * len(args) and weights == tuple(map(float, args))

    @given(st.floats(min_value=0.2, max_value=0.49))
    def test_consistency_sums(self, b):
        kernel = build_kernel(b)
        assert abs(math.fsum(kernel.weights(True)) - 1.0) <= 1e-14
        assert abs(math.fsum(kernel.weights(False)) - 1.0) <= 1e-14

    def test_palindromic(self):
        assert build_kernel(0.348674).is_palindromic()


class TestBuildProcessor:
    def test_zero_sums_exact(self):
        pre = build_processor(-0.075640, 0.069720)
        assert math.fsum(pre.weights(True)) == 0.0
        assert math.fsum(pre.weights(False)) == 0.0

    def test_action_order(self):
        c, d = -0.07564, 0.06972
        pre = build_processor(c, d)
        assert [f.is_drift for f in pre] == [False, True, False, True]
        assert [f.coefficient for f in pre] == [d, c, -d, -c]

    def test_adjoint_coefficients(self):
        c, d = -0.07564, 0.06972
        post = build_processor(c, d).adjoint()
        assert [f.coefficient for f in post] == [-c, -d, c, d]

    def test_zero_processor_is_identity_equivalent(self):
        tgt = gaussian_model(2)
        integ = processed_family(0.381120, 0.0, 0.0)
        bare = ProcessedIntegrator(build_kernel(0.381120), FlowSchedule())
        s0 = PhaseState(np.array([0.3, -0.2]), np.array([0.1, 0.5]))
        tgt_a, tgt_b = tgt.fresh(), tgt.fresh()
        a = integrate_leg(s0, 0.1, 4, integ, tgt_a)
        b = integrate_leg(s0, 0.1, 4, bare, tgt_b)
        ga, gb = tgt_a.grad_evals + tgt_a.hess_evals, tgt_b.grad_evals + tgt_b.hess_evals
        assert np.array_equal(a.q, b.q) and np.array_equal(a.p, b.p)
        assert ga == gb  # zero-coefficient kicks are skipped entirely

        # the four zero flows are exact identity shears on the oscillator
        hs = np.linspace(0.01, 6.0, 600)
        for got, want in ((integ.pre, bare.pre), (integ.post, bare.post)):
            for x, y in zip(schedule_matrix(got, hs), schedule_matrix(want, hs)):
                assert np.broadcast_to(x, hs.shape).tobytes() == np.broadcast_to(y, hs.shape).tobytes()
        assert rho_norm(integ, 3.0).hex() == rho_norm(bare, 3.0).hex()
        for n in (1, 2, 3, 10, 1001):
            assert leg_gradient_count(integ, n) == leg_gradient_count(bare, n) == 3 * n + 1
        # fast path: per-mode leg maps with the processor maps multiplied in
        _, st_a = hmc_run(gaussian_model(64), HmcConfig(0.05, 50, 3, integ))
        _, st_b = hmc_run(gaussian_model(64), HmcConfig(0.05, 50, 3, bare))
        assert st_a.energy_errors.tobytes() == st_b.energy_errors.tobytes()
        assert (st_a.accepted, st_a.grad_evals) == (st_b.accepted, st_b.grad_evals)


class TestCatalog:
    def test_names_keep_their_order(self):
        assert INTEGRATOR_NAMES == (
            "leapfrog", "blcasa", "proc-3.0", "proc-3.5", "proc-4.0", "proc-4.5", "rowlands"
        )

    @pytest.mark.parametrize("name", INTEGRATOR_NAMES)
    def test_each_integrator_is_built_once(self, name):
        assert named_integrator(name) is named_integrator(name)

    def test_every_reference_row_is_a_family_member(self):
        for row in REFERENCE_ROWS:
            assert named_integrator(row.name) == processed_family(row.b, row.c, row.d)
        assert (row_by_name("blcasa").c, row_by_name("blcasa").d) == (0.0, 0.0)

    def test_unknown_names_are_value_errors(self):
        with pytest.raises(ValueError, match="unknown integrator name 'nope'"):
            named_integrator("nope")
        with pytest.raises(ValueError, match="no reference row named 'leapfrog'.*blcasa, proc-3.0"):
            row_by_name("leapfrog")


class TestAdjoint:
    def test_order_reversal(self):
        s = FlowSchedule((kick(0.2), drift(0.7)))
        adj = s.adjoint()
        assert [f.is_drift for f in adj] == [True, False]
        assert [f.coefficient for f in adj] == [0.7, 0.2]

    @given(schedules())
    def test_involution(self, s):
        assert s.adjoint().adjoint() == s

    def test_rowlands_kappa_reversal(self):
        integ = named_integrator("rowlands")
        assert integ.post.flows == tuple(reversed(integ.pre.flows))


class TestProcessedIntegrator:
    def test_bad_kernel_sums_rejected(self):
        broken = FlowSchedule((kick(0.5), drift(0.9), kick(0.5)))
        with pytest.raises(ValueError):
            ProcessedIntegrator(broken, FlowSchedule())
        # a miss of 1e-9 is no rounding: the sums are held to 1e-14
        with pytest.raises(ValueError, match="drift coefficients must sum to 1"):
            ProcessedIntegrator(FlowSchedule((kick(0.5), drift(1.0 + 1e-9), kick(0.5))), FlowSchedule())
        with pytest.raises(ValueError, match="kernel kick weights must sum to 1"):
            ProcessedIntegrator(FlowSchedule((kick(0.3), drift(1.0), kick(0.3))), FlowSchedule())

    def test_non_palindromic_kernel_rejected(self):
        # symplectic Euler has consistent sums but no time symmetry: at h=2.5
        # its map has trace -4.25 (unstable) while the sign test reads it
        # stable, and a flipped leg does not return to its start
        with pytest.raises(ValueError, match="palindromic"):
            ProcessedIntegrator(FlowSchedule((kick(1.0), drift(1.0))), FlowSchedule())
        with pytest.raises(ValueError, match="palindromic"):
            ProcessedIntegrator(FlowSchedule((kick(0.25), drift(1.0), kick(0.75))), FlowSchedule())

    def test_bad_processor_sums_rejected(self):
        kernel = build_kernel(0.348674)
        with pytest.raises(ValueError):
            ProcessedIntegrator(kernel, FlowSchedule((kick(0.1),)))
        with pytest.raises(ValueError):
            ProcessedIntegrator(kernel, FlowSchedule((drift(0.1),)))
        with pytest.raises(ValueError):  # a folded kernel step needs both sums at 1
            ProcessedIntegrator(kernel, FlowSchedule((drift(1.0),)))

    def test_params_provenance(self):
        integ = processed_family(0.348674, -0.07564, 0.06972)
        assert integ.kernel.flows[2].coefficient == 0.348674
        assert integ.kernel.flows[1].coefficient == 0.348674 / (6 * 0.348674 - 1)
        assert [f.coefficient for f in integ.pre] == [0.06972, -0.07564, -0.06972, 0.07564]
        assert integ.post == integ.pre.adjoint()
        assert integ.folded == 0

    def test_folded_kernel_step_keeps_the_leg_span(self):
        # leapfrog with one kernel step folded into pre (and so into post)
        # runs the same flows as plain leapfrog over N steps
        plain = named_integrator("leapfrog")
        folded = ProcessedIntegrator(plain.kernel, plain.kernel)
        assert folded.folded == 1
        s0 = PhaseState(np.array([0.3, -0.6]), np.array([0.5, 0.1]))
        for n in (2, 3, 7):
            tgt_a, tgt_b = anharmonic_model(2), anharmonic_model(2)
            a = integrate_leg(s0, 0.2, n, folded, tgt_a)
            b = integrate_leg(s0, 0.2, n, plain, tgt_b)
            ga, gb = tgt_a.grad_evals + tgt_a.hess_evals, tgt_b.grad_evals + tgt_b.hess_evals
            assert np.array_equal(a.q, b.q) and np.array_equal(a.p, b.p)
            assert ga == gb == leg_gradient_count(folded, n)
        with pytest.raises(ValueError):
            integrate_leg(s0, 0.2, 1, folded, anharmonic_model(2))

    @pytest.mark.parametrize("n_steps", [10.0, np.float64(10.0), 10.5, True, np.bool_(True), "10"])
    def test_non_integer_step_count_is_rejected(self, n_steps):
        # the count and the leg fail the same way, naming N
        integ = named_integrator("proc-3.0")
        message = re.escape(f"N={n_steps!r}")
        with pytest.raises(TypeError, match=message):
            integ.kernel_steps(n_steps)
        with pytest.raises(TypeError, match=message):
            leg_gradient_count(integ, n_steps)
        tgt = gaussian_model(2)
        with pytest.raises(TypeError, match=message):
            integrate_leg(PhaseState(np.ones(2), np.ones(2)), 0.1, n_steps, integ, tgt)
        assert tgt.grad_evals == 0

    @pytest.mark.parametrize("n_steps", [0, 1, np.int64(1), -3])
    def test_too_few_steps_name_the_minimum(self, n_steps):
        with pytest.raises(InsufficientSteps, match="at least 2"):
            named_integrator("rowlands").kernel_steps(n_steps)

    @pytest.mark.parametrize("n_steps", [np.int64(10), np.int32(10), np.uint8(10)])
    def test_numpy_integer_step_count_is_accepted(self, n_steps):
        integ = named_integrator("proc-3.0")
        assert leg_gradient_count(integ, n_steps) == leg_gradient_count(integ, 10) == 35
        s0 = PhaseState(np.array([0.3, -0.6]), np.array([0.5, 0.1]))
        a = integrate_leg(s0, 0.1, n_steps, integ, gaussian_model(2))
        b = integrate_leg(s0, 0.1, 10, integ, gaussian_model(2))
        assert a.q.tobytes() == b.q.tobytes() and a.p.tobytes() == b.p.tobytes()


class TestApplyFlow:
    def test_drift_shift(self):
        tgt = gaussian_model(2)
        s = PhaseState(np.zeros(2), np.array([2.0, 0.0]))
        q, p = _run_flows(s.q, s.p, _lower((drift(1.0),), 0.1), tgt)
        assert np.allclose(q, [0.2, 0.0], atol=0, rtol=0)
        assert np.array_equal(p, s.p)
        assert tgt.grad_evals == 0

    def test_zero_kick_skipped(self):
        tgt = gaussian_model(2)
        s = PhaseState(np.array([1.0, 2.0]), np.array([0.3, 0.4]))
        q, p = _run_flows(s.q, s.p, _lower((kick(0.0),), 0.1), tgt)
        assert np.array_equal(q, s.q) and np.array_equal(p, s.p)
        assert tgt.grad_evals == 0

    def test_modified_kick_without_correction_is_scaled_kick(self):
        tgt = anharmonic_model(2)
        s = PhaseState(np.array([0.4, -0.8]), np.array([0.0, 0.1]))
        _, p = _run_flows(s.q, s.p, _lower((modified_kick(1.0, 0.25, 0.0),), 0.3), tgt.fresh())
        expected = s.p - 0.3 * 0.25 * tgt.fresh().gradient(s.q)
        assert np.allclose(p, expected, rtol=0, atol=0)


def walked_gradient_count(integ, n_steps):
    """Reference count: walk every flow of the fused leg, O(N), billing each
    Hessian-vector product as one gradient.  A preprocessor whose drifts
    sum to 1 holds one folded kernel step."""
    folded = round(math.fsum(integ.pre.weights(True)))
    flows = (*integ.pre, *(integ.kernel.flows * (n_steps - 2 * folded)), *integ.post)
    count = 0
    grad_cached = hvp_cached = False
    for f in flows:
        if f.coefficient == 0.0:
            continue
        if f.is_drift:
            grad_cached = hvp_cached = False
            continue
        if not grad_cached:
            count += 1
            grad_cached = True
        if f.c_mod != 0.0 and not hvp_cached:
            count += 1
            hvp_cached = True
    return count


def unfused_leg(state, h, n_steps, integ, target):
    """Reference leg: one _run_flows call per flow, so every kick starts
    from an empty gradient cache."""
    flows = (*integ.pre, *(integ.kernel.flows * integ.kernel_steps(n_steps)), *integ.post)
    q, p = state.q, state.p
    for f in flows:
        q, p = _run_flows(q, p, _lower((f,), h), target)
    return PhaseState(q, p)


def with_zero_modified_kick():
    # a zero-coefficient modified kick right after a drift is dropped before
    # the executor: it bills no gradient and no Hessian-vector product
    integ = named_integrator("proc-3.0")
    kd, dc, *rest = integ.pre
    return ProcessedIntegrator(integ.kernel, FlowSchedule((kd, dc, modified_kick(0.0, 0.5, 1 / 48), *rest)))


# a kernel that starts with a drift, bare, processed, and inside a folded
# preprocessor that also starts with a drift
DRIFT_FIRST = FlowSchedule((drift(0.5), kick(1.0), drift(0.5)))
EXTRA_SHAPES = {
    "proc-3.0+zero-modified-kick": with_zero_modified_kick,
    "drift-first": lambda: ProcessedIntegrator(DRIFT_FIRST, FlowSchedule()),
    "drift-first+processor": lambda: ProcessedIntegrator(DRIFT_FIRST, build_processor(0.1, -0.07)),
    "drift-first+folded": lambda: ProcessedIntegrator(
        DRIFT_FIRST, FlowSchedule((drift(0.5), kick(0.6), drift(0.5), kick(0.4)))
    ),
}

# each named integrator's smallest N and its leg's evaluations as a function of N
LEG_COUNTS = {
    "leapfrog": (1, lambda n: n + 1),
    "blcasa": (1, lambda n: 3 * n + 1),
    **{name: (1, lambda n: 3 * n + 5) for name in ("proc-3.0", "proc-3.5", "proc-4.0", "proc-4.5")},
    "rowlands": (2, lambda n: 6 if n == 2 else 2 * n + 4),
}


class TestGradientCounts:
    @pytest.mark.parametrize(
        "name, n_steps, expected",
        [
            ("proc-3.0", 10, 35),  # 3N + 5
            ("blcasa", 10, 31),  # 3N + 1
            ("leapfrog", 10, 11),  # N + 1
            ("proc-4.5", 1, 8),
            ("proc-3.0", 10**9, 3 * 10**9 + 5),
            ("blcasa", 10**9, 3 * 10**9 + 1),
            ("leapfrog", 10**9, 10**9 + 1),
            ("rowlands", 2, 6),
            ("rowlands", 10, 24),  # 2N + 4: N + 3 gradients, N + 1 Hessian-vector products
            ("rowlands", 10**9, 2 * 10**9 + 4),
        ],
    )
    def test_leg_counts(self, name, n_steps, expected):
        integ = named_integrator(name)
        assert leg_gradient_count(integ, n_steps) == expected
        if n_steps > 1000:
            return  # the count runs at most two kernel steps; a leg this long is not
        tgt = gaussian_model(3)
        s0 = PhaseState(np.array([0.1, 0.2, 0.3]), np.array([-0.2, 0.4, 0.0]))
        integrate_leg(s0, 0.02, n_steps, integ, tgt)
        grads = tgt.grad_evals + tgt.hess_evals
        assert grads == expected

    @pytest.mark.parametrize(
        "n_steps, name",
        [
            (n, name)
            for name in (*INTEGRATOR_NAMES, *EXTRA_SHAPES)
            for n in (1, 2, 3, 10, 1001)
            if n > 1 or name not in ("rowlands", "drift-first+folded")
        ],
    )
    def test_closed_form_matches_walk(self, n_steps, name):
        integ = EXTRA_SHAPES[name]() if name in EXTRA_SHAPES else named_integrator(name)
        walked = walked_gradient_count(integ, n_steps)
        assert leg_gradient_count(integ, n_steps) == walked
        tgt = anharmonic_model(3)
        s0 = PhaseState(np.array([0.1, 0.2, 0.3]), np.array([-0.2, 0.4, 0.0]))
        integrate_leg(s0, 0.01, n_steps, integ, tgt)
        assert tgt.grad_evals + tgt.hess_evals == walked

    def test_count_evaluates_no_target(self, monkeypatch):
        # the count runs the executor on a probe, never on a TargetModel, so
        # a tracer that wraps TargetModel.gradient sees no calls from it
        def refuse(*args):
            raise AssertionError("the count evaluated a target")

        monkeypatch.setattr(TargetModel, "gradient", refuse)
        monkeypatch.setattr(TargetModel, "hessian_vec", refuse)
        for name in INTEGRATOR_NAMES:
            first, count = LEG_COUNTS[name]
            integ = named_integrator(name)
            for n in (*range(first, 61), 10**9):
                assert leg_gradient_count(integ, n) == count(n), (name, n)
        cfg = HmcConfig(0.1, 20, 5, named_integrator("proc-3.0"))
        _, stats = hmc_run(gaussian_model(8), cfg, use_fast_path=True)
        assert stats.grad_evals == 20 * (3 * cfg.n_steps + 5)

    def test_count_of_the_largest_modified_kick(self):
        # 2*c_mod = 1.78e308 is the largest that builds; the probe leg at
        # h = 1 stays at q = p = 0, warning nothing
        big = modified_kick(0.5, 1.0, 8.9e307)
        integ = ProcessedIntegrator(FlowSchedule((big, drift(1.0), big)), FlowSchedule())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert leg_gradient_count(integ, 10) == walked_gradient_count(integ, 10) == 22

    @given(
        st.floats(min_value=0.2, max_value=0.49),
        st.one_of(st.just(0.0), st.floats(min_value=-0.3, max_value=0.3)),
        st.one_of(st.just(0.0), st.floats(min_value=-0.3, max_value=0.3)),
        st.integers(min_value=1, max_value=50),
    )
    def test_closed_form_matches_walk_on_family(self, b, c, d, n_steps):
        integ = processed_family(b, c, d)
        assert leg_gradient_count(integ, n_steps) == walked_gradient_count(integ, n_steps)

    @pytest.mark.parametrize("name", ["proc-3.0", "rowlands"])
    def test_fused_leg_matches_unfused_reference(self, name):
        integ = named_integrator(name)
        s0 = PhaseState(np.array([0.4, -0.1, 0.2]), np.array([0.3, 0.2, -0.5]))
        fused_tgt, plain_tgt = anharmonic_model(3), anharmonic_model(3)
        fused = integrate_leg(s0, 0.2, 6, integ, fused_tgt)
        plain = unfused_leg(s0, 0.2, 6, integ, plain_tgt)
        assert np.array_equal(fused.q, plain.q)
        assert np.array_equal(fused.p, plain.p)
        # the cache saves the boundary kicks' gradients and, between the
        # modified kicks of consecutive rowlands kernel steps, their
        # Hessian-vector products
        assert fused_tgt.grad_evals < plain_tgt.grad_evals
        if name == "rowlands":
            assert fused_tgt.hess_evals < plain_tgt.hess_evals


def with_unit_modified_kicks(schedule):
    """The schedule with every plain kick rewritten as modified_kick(c, 1.0, 0.0)."""
    return FlowSchedule(
        tuple(modified_kick(f.coefficient, 1.0, 0.0) if f == kick(f.coefficient) else f for f in schedule)
    )


class TestOneKickRule:
    """A plain kick is a modified kick with (b, c) = (1, 0): rewriting every
    plain kick that way leaves every output bit-identical."""

    def test_plain_kick_is_a_unit_modified_kick(self):
        assert kick(0.3) == modified_kick(0.3, 1.0, 0.0)
        assert kick(-0.7) == modified_kick(-0.7, 1.0, 0.0)

    @pytest.mark.parametrize("name", INTEGRATOR_NAMES)
    def test_rewritten_integrator_is_bit_identical(self, name):
        integ = named_integrator(name)
        rewritten = ProcessedIntegrator(with_unit_modified_kicks(integ.kernel), with_unit_modified_kicks(integ.pre))
        hs = np.linspace(0.01, 6.0, 600)
        for a, b in ((integ.kernel, rewritten.kernel), (integ.pre, rewritten.pre), (integ.post, rewritten.post)):
            for entry_a, entry_b in zip(schedule_matrix(a, hs), schedule_matrix(b, hs)):
                assert np.asarray(entry_a).tobytes() == np.asarray(entry_b).tobytes()
            series_a, series_b = _series_matrix(a), _series_matrix(b)
            assert series_a.shape == series_b.shape
            assert series_a.tobytes() == series_b.tobytes()

        budget = scan_budget(name)
        assert rho_norm(integ, budget).hex() == rho_norm(rewritten, budget).hex()
        for n_steps in (2, 3, 10):
            assert leg_gradient_count(integ, n_steps) == leg_gradient_count(rewritten, n_steps)

        s0 = PhaseState(np.array([0.4, -0.1, 0.2]), np.array([0.3, 0.2, -0.5]))
        tgt_a, tgt_b = anharmonic_model(3), anharmonic_model(3)
        a = integrate_leg(s0, 0.2, 10, integ, tgt_a)
        b = integrate_leg(s0, 0.2, 10, rewritten, tgt_b)
        assert a.q.tobytes() == b.q.tobytes() and a.p.tobytes() == b.p.tobytes()
        assert (tgt_a.grad_evals, tgt_a.hess_evals) == (tgt_b.grad_evals, tgt_b.hess_evals)
        assert rewritten.kernel == integ.kernel and rewritten.pre == integ.pre


class TestIntegrateLeg:
    def test_reversibility_with_momentum_flip(self):
        integ = named_integrator("proc-3.0")
        tgt = anharmonic_model(2)
        s0 = PhaseState(np.array([0.3, -0.7]), np.array([0.9, 0.4]))
        fwd = integrate_leg(s0, 0.3, 7, integ, tgt)
        back = integrate_leg(PhaseState(fwd.q, -fwd.p), 0.3, 7, integ, tgt)
        assert_states_close(PhaseState(back.q, -back.p), s0, rtol=1e-10)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_volume_preservation(self, dim):
        integ = named_integrator("proc-3.0")
        tgt = anharmonic_model(dim)
        x0 = np.concatenate([np.linspace(0.2, 0.4, dim), np.linspace(-0.3, 0.5, dim)])
        eps = 1e-6

        def leg(x):
            out = integrate_leg(PhaseState(x[:dim], x[dim:]), 0.2, 5, integ, tgt)
            return np.concatenate([out.q, out.p])

        jac = np.empty((2 * dim, 2 * dim))
        for j in range(2 * dim):
            e = np.zeros(2 * dim)
            e[j] = eps
            jac[:, j] = (leg(x0 + e) - leg(x0 - e)) / (2 * eps)
        assert abs(np.linalg.det(jac) - 1.0) <= 1e-6

    def test_non_finite_state_raised(self):
        integ = named_integrator("leapfrog")
        tgt = anharmonic_model(1)
        s0 = PhaseState(np.array([10.0]), np.array([0.0]))
        with pytest.raises(NonFiniteState):
            with np.errstate(over="ignore", invalid="ignore"):
                integrate_leg(s0, 50.0, 50, integ, tgt)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            integrate_leg(PhaseState(np.zeros(2), np.zeros(2)), 0.1, 1, named_integrator("leapfrog"), gaussian_model(3))

    def test_argument_validation(self):
        integ = named_integrator("leapfrog")
        tgt = gaussian_model(1)
        s0 = PhaseState([0.1], [0.2])
        with pytest.raises(ValueError):
            integrate_leg(s0, 0.1, 0, integ, tgt)
        for h in (-0.1, 0.0):
            with pytest.raises(ValueError, match="h must be positive"):
                integrate_leg(s0, h, 3, integ, tgt)


class WrongShape(TargetModel):
    """V = |q|^2/2 whose gradient, or only whose Hessian-vector product,
    comes back summed to shape (1,): numpy would broadcast either into q."""

    def __init__(self, dim, bad_hook):
        super().__init__(dim)
        self.bad_hook = bad_hook

    def _potential(self, q):
        return 0.5 * float(q @ q)

    def _gradient(self, q):
        return q[:1] + q[1:].sum() if self.bad_hook == "gradient" else q.copy()

    def _hessian_vec(self, q, v):
        return v[:1] + v[1:].sum() if self.bad_hook == "hessian_vec" else v.copy()


class TestHookShapes:
    """A gradient or Hessian-vector product of the wrong shape is an error, not a broadcast."""

    @pytest.mark.parametrize("name, hook", [("leapfrog", "gradient"), ("proc-3.0", "gradient"),
                                            ("rowlands", "gradient"), ("rowlands", "hessian_vec")])
    def test_integrate_leg_raises(self, name, hook):
        s0 = PhaseState(np.array([0.3, -0.2, 0.1]), np.array([0.1, 0.4, -0.5]))
        message = rf"WrongShape\.{hook} returned shape \(1,\), not q's shape \(3,\)"
        with pytest.raises(ValueError, match=message):
            integrate_leg(s0, 0.1, 4, named_integrator(name), WrongShape(3, hook))

    @pytest.mark.parametrize("name, hook", [("leapfrog", "gradient"), ("rowlands", "hessian_vec")])
    def test_generic_chain_raises(self, name, hook):
        cfg = HmcConfig(h=0.1, n_samples=3, seed=1, integrator=named_integrator(name), leg_time=0.5)
        with pytest.raises(ValueError, match=rf"WrongShape\.{hook} returned shape \(1,\)"):
            hmc_run(WrongShape(3, hook), cfg, use_fast_path=False)

    def test_right_shapes_run(self):
        s0 = PhaseState(np.array([0.3, -0.2, 0.1]), np.array([0.1, 0.4, -0.5]))
        out = integrate_leg(s0, 0.1, 4, named_integrator("rowlands"), WrongShape(3, None))
        assert out.q.shape == (3,) and np.isfinite(out.q).all()


def same_bytes(a_q, a_p, b_q, b_p):
    return a_q.tobytes() == b_q.tobytes() and a_p.tobytes() == b_p.tobytes()


# kicks of equal lowered form recur in this pool, so that random schedules
# hit the reuse rule, zero drifts between kicks and the cases it must refuse
flow_pool = st.sampled_from(
    (
        kick(0.3),
        kick(-0.2),
        modified_kick(0.3, 0.5, 0.0),
        modified_kick(0.3, 0.5, 0.02),
        modified_kick(0.3, 0.25, 0.02),
        drift(0.0),
        kick(0.0),
        drift(0.4),
        drift(-0.1),
    )
)


class TestLoweredExecutor:
    """The in-place executor against the allocating one it replaced
    (tests/flow_oracle.py): identical q and p bytes, identical counts."""

    @pytest.mark.parametrize("make_target", [lambda: gaussian_model(64), lambda: anharmonic_model(16)],
                             ids=["gaussian64", "anharmonic16"])
    @pytest.mark.parametrize("name", INTEGRATOR_NAMES)
    def test_named_legs_match_the_allocating_executor(self, name, make_target):
        integ = named_integrator(name)
        dim = make_target().dim
        rng = np.random.default_rng(20261018)
        s0 = PhaseState(rng.standard_normal(dim) * 0.5, rng.standard_normal(dim))
        for n_steps in sorted({1 + integ.folded, 2, 7, 50}):
            new_tgt, old_tgt = make_target(), make_target()
            new = integrate_leg(s0, 0.02, n_steps, integ, new_tgt)
            old = allocating_leg(s0, 0.02, n_steps, integ, old_tgt)
            assert same_bytes(new.q, new.p, old.q, old.p), (name, n_steps)
            assert (new_tgt.grad_evals, new_tgt.hess_evals) == (old_tgt.grad_evals, old_tgt.hess_evals)

    @pytest.mark.parametrize(
        "flows",
        [
            (kick(0.3), kick(0.3)),  # reused
            (kick(0.3), drift(0.0), kick(0.3)),  # the zero drift is dropped: reused
            (kick(0.3), drift(0.4), kick(0.3)),  # q moved: not reused
            (modified_kick(0.3, 0.5, 0.0), kick(0.3)),  # equal coefficients, other b_mod: not reused
            (kick(0.3), modified_kick(0.3, 0.5, 0.0), kick(0.3)),
            (modified_kick(0.3, 0.5, 0.02), modified_kick(0.3, 0.5, 0.02)),  # reused, product cached
            (modified_kick(0.3, 0.5, 0.02), drift(0.4), modified_kick(0.3, 0.5, 0.02)),
            (modified_kick(0.3, 0.5, 0.02), modified_kick(0.3, 0.5, 0.03)),  # other c_mod: not reused
        ],
        ids=["equal", "zero-drift", "drift", "b_mod", "b_mod-between", "modified", "modified-drift", "c_mod"],
    )
    def test_hand_built_schedules_match_the_allocating_executor(self, flows):
        q0, p0 = np.array([0.4, -0.9, 1.3]), np.array([0.2, 0.7, -0.5])
        for h in (0.1, 0.7):
            new_tgt, old_tgt = anharmonic_model(3), anharmonic_model(3)
            new = _run_flows(q0, p0, _lower(flows, h), new_tgt)
            old = allocating_run_flows(q0, p0, flows, h, old_tgt)
            assert same_bytes(*new, *old)
            assert (new_tgt.grad_evals, new_tgt.hess_evals) == (old_tgt.grad_evals, old_tgt.hess_evals)

    @given(st.lists(flow_pool, max_size=12), st.floats(min_value=0.01, max_value=0.5))
    def test_random_schedules_match_the_allocating_executor(self, flows, h):
        q0, p0 = np.array([0.4, -0.9, 1.3]), np.array([0.2, 0.7, -0.5])
        new_tgt, old_tgt = anharmonic_model(3), anharmonic_model(3)
        new = _run_flows(q0, p0, _lower(flows, h), new_tgt)
        old = allocating_run_flows(q0, p0, flows, h, old_tgt)
        assert same_bytes(*new, *old)
        assert (new_tgt.grad_evals, new_tgt.hess_evals) == (old_tgt.grad_evals, old_tgt.hess_evals)

    def test_zero_flows_lower_to_nothing(self):
        assert _lower((kick(0.0), drift(0.0), modified_kick(0.0, 0.5, 0.1)), 0.3) == ()
        assert _lower(named_integrator("blcasa").pre, 0.3) == ()
        assert _lower(named_integrator("leapfrog").kernel, 0.5) == (
            (False, 0.25, 1.0, None), (True, 0.5, 1.0, None), (False, 0.25, 1.0, None)
        )


class AliasingTarget(TargetModel):
    """V = |q|^2/2, whose gradient hook hands back q itself and whose
    Hessian-vector hook hands back v itself when alias is set."""

    def __init__(self, dim, alias):
        super().__init__(dim)
        self.alias = alias

    def _gradient(self, q):
        return q if self.alias else q.copy()

    def _hessian_vec(self, q, v):
        return v if self.alias else v.copy()


class TestValueSemantics:
    """The executor moves its own copies in place, never its inputs."""

    @pytest.mark.parametrize("name", INTEGRATOR_NAMES)
    def test_inputs_unchanged_and_outputs_fresh(self, name):
        q0, p0 = np.array([0.3, -0.6, 0.1]), np.array([0.5, 0.1, -0.2])
        q0.setflags(write=False)
        p0.setflags(write=False)
        keep_q, keep_p = q0.tobytes(), p0.tobytes()
        s0 = PhaseState(q0, p0)
        out = integrate_leg(s0, 0.1, 5, named_integrator(name), anharmonic_model(3))
        assert q0.tobytes() == keep_q and p0.tobytes() == keep_p
        assert not np.shares_memory(out.q, q0) and not np.shares_memory(out.p, p0)
        assert not np.shares_memory(out.q, out.p)

    @pytest.mark.parametrize("flows", [(kick(0.0),), (drift(0.0), kick(0.0)), named_integrator("blcasa").pre.flows])
    def test_all_skipped_flows_still_return_new_arrays(self, flows):
        q0, p0 = np.array([1.0, 2.0]), np.array([0.3, 0.4])
        q0.setflags(write=False)
        q, p = _run_flows(q0, p0, _lower(flows, 0.1), gaussian_model(2))
        assert np.array_equal(q, q0) and np.array_equal(p, p0)
        for out in (q, p):
            assert not np.shares_memory(out, q0) and not np.shares_memory(out, p0)
        assert not np.shares_memory(q, p)

    @pytest.mark.parametrize("name", INTEGRATOR_NAMES)
    def test_gradient_returning_its_argument(self, name):
        # a target whose gradient (and Hessian-vector product) is the array
        # it was handed gives the same bytes as one that returns copies
        s0 = PhaseState(np.array([0.3, -0.6, 0.1]), np.array([0.5, 0.1, -0.2]))
        integ = named_integrator(name)
        aliased = integrate_leg(s0, 0.1, 6, integ, AliasingTarget(3, alias=True))
        copied = integrate_leg(s0, 0.1, 6, integ, AliasingTarget(3, alias=False))
        assert same_bytes(aliased.q, aliased.p, copied.q, copied.p)
