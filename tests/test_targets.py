import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from symphmc import HmcConfig, TargetModel, anharmonic_model, gaussian_model, hmc_run, leg_gradient_count
from symphmc.catalog import INTEGRATOR_NAMES, named_integrator

points = st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=6)


def central_diff_gradient(target, q, eps=1e-6):
    g = np.empty_like(q)
    for j in range(q.size):
        e = np.zeros_like(q)
        e[j] = eps
        g[j] = (target.potential(q + e) - target.potential(q - e)) / (2 * eps)
    return g


class TestGaussianModel:
    def test_potential_values(self):
        model = gaussian_model(3)
        assert model.potential(np.ones(3)) == pytest.approx(7.0, abs=0)  # (1 + 4 + 9) / 2
        assert model.potential(np.zeros(3)) == 0.0

    def test_oscillator_is_unit_gaussian(self):
        osc = gaussian_model(1)
        assert osc.potential(np.array([1.0])) == 0.5
        assert osc.gradient(np.array([2.0]))[0] == 2.0

    def test_gradient_and_hessian(self):
        model = gaussian_model(4)
        q = np.array([0.5, -1.0, 2.0, 0.1])
        v = np.array([1.0, 0.0, -1.0, 3.0])
        assert np.array_equal(model.gradient(q), model.precisions * q)
        assert np.array_equal(model.hessian_vec(q, v), model.precisions * v)

    def test_stiffest_mode_sets_the_scaled_stability_limit(self):
        # mode j behaves like the unit oscillator at step h*j, so verlet
        # stays stable only below 2/d
        from symphmc import stability_length
        from symphmc.catalog import named_integrator

        limit = stability_length(named_integrator("leapfrog").kernel)
        assert abs(limit / 256 - 2.0 / 256) < 1e-8

    def test_exact_sample_variances(self):
        model = gaussian_model(8)
        rng = np.random.default_rng(123)
        draws = np.stack([model.exact_sample(rng) for _ in range(100_000)])
        n = draws.shape[0]
        for j in range(8):
            var = draws[:, j].var(ddof=1)
            target_var = 1.0 / (j + 1) ** 2
            se = target_var * math.sqrt(2.0 / n)
            assert abs(var - target_var) <= 5 * se


class TestAnharmonicModel:
    def test_point_values(self):
        model = anharmonic_model(1)
        q = np.array([1.0])
        assert model.potential(q) == 0.75
        assert model.gradient(q)[0] == 2.0

    @given(points)
    def test_gradient_matches_finite_differences(self, values):
        model = anharmonic_model(len(values))
        q = np.array(values)
        g = model.fresh().gradient(q)
        fd = central_diff_gradient(model, q)
        assert np.allclose(g, fd, rtol=1e-6, atol=1e-8)

    def test_hessian_vec_matches_finite_differences(self):
        model = anharmonic_model(3)
        q = np.array([0.4, -0.9, 1.3])
        v = np.array([0.7, 0.2, -0.5])
        eps = 1e-6
        fd = (model._gradient(q + eps * v) - model._gradient(q - eps * v)) / (2 * eps)
        assert np.allclose(model.hessian_vec(q, v), fd, rtol=1e-5, atol=1e-8)


class GradientOnly(TargetModel):
    """V = |q|^2/2 + |q|^4/4 with no Hessian-vector hook; fresh() hands back
    the instance itself, so a test reads the counters a chain used."""

    def _potential(self, q):
        return float(np.sum(0.5 * q * q + 0.25 * q**4))

    def _gradient(self, q):
        return q + q**3

    def fresh(self):
        self.grad_evals = self.hess_evals = 0
        return self


class TestHessianContract:
    @pytest.mark.parametrize("name", [n for n in INTEGRATOR_NAMES if n != "rowlands"])
    def test_drift_kick_integrators_need_only_the_gradient(self, name):
        target = GradientOnly(3)
        cfg = HmcConfig(h=0.25, n_samples=20, seed=3, integrator=named_integrator(name), leg_time=2.0)
        _, stats = hmc_run(target, cfg)
        assert target.hess_evals == 0
        assert target.grad_evals == stats.grad_evals == leg_gradient_count(cfg.integrator, cfg.n_steps) * 20

    def test_modified_kicks_need_the_hessian_hook(self):
        cfg = HmcConfig(h=0.25, n_samples=20, seed=3, integrator=named_integrator("rowlands"), leg_time=2.0)
        with pytest.raises(NotImplementedError, match="_hessian_vec"):
            hmc_run(GradientOnly(3), cfg)


class TestCounters:
    def test_gradient_counter_semantics(self):
        model = gaussian_model(2)
        q = np.zeros(2)
        model.potential(q)
        assert model.grad_evals == 0  # potential-only calls are free
        model.gradient(q)
        model.gradient(q)
        assert model.grad_evals == 2
        model.hessian_vec(q, np.ones(2))
        assert model.hess_evals == 1
        assert model.grad_evals == 2  # hessian product billed separately

    def test_fresh_isolates_counters(self):
        model = gaussian_model(2)
        model.gradient(np.zeros(2))
        clone = model.fresh()
        assert clone.grad_evals == 0
        clone.gradient(np.zeros(2))
        assert model.grad_evals == 1

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            gaussian_model(0)

    @pytest.mark.parametrize("dim", [2.5, 2.0, np.float64(3.0), True, np.bool_(True), "2"])
    @pytest.mark.parametrize("model", [gaussian_model, anharmonic_model])
    def test_dimension_is_never_truncated(self, model, dim):
        with pytest.raises(TypeError, match=re.escape(f"dimension={dim!r} is not an integer")):
            model(dim)

    @pytest.mark.parametrize("dim", [np.int64(3), np.uint8(3)])
    def test_numpy_integer_dimension(self, dim):
        model = gaussian_model(dim)
        assert type(model.dim) is int and model.dim == 3 and model.frequencies.shape == (3,)
