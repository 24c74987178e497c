import math
import re
import tracemalloc

import numpy as np
import pytest

from symphmc import (
    HmcConfig,
    InsufficientSteps,
    anharmonic_model,
    efficiency_curve,
    energy,
    gaussian_model,
    hmc_run,
    leg_gradient_count,
    PhaseState,
    ProcessedIntegrator,
    rho,
    stability_length,
)
from symphmc.catalog import INTEGRATOR_NAMES, named_integrator
from symphmc.hmc import _metropolis

ROW2 = named_integrator("proc-3.0")


def batch_means_se(x, n_batches=50):
    usable = (len(x) // n_batches) * n_batches
    means = x[:usable].reshape(n_batches, -1).mean(axis=1)
    return means.std(ddof=1) / math.sqrt(n_batches)


class TestEnergy:
    def test_simple_values(self):
        tgt = gaussian_model(1)
        assert energy(tgt, PhaseState([1.0], [1.0])) == 1.0
        assert energy(tgt, PhaseState([0.0], [0.0])) == 0.0

    def test_invariant_under_momentum_flip(self):
        tgt = gaussian_model(3)
        s = PhaseState(np.array([0.1, -0.4, 0.2]), np.array([1.0, 0.3, -0.7]))
        assert energy(tgt, s) == energy(tgt, PhaseState(s.q, -s.p))


class TestConfig:
    def test_step_rounding(self):
        cfg = HmcConfig(h=0.5, n_samples=1, seed=0, integrator=ROW2, leg_time=5.0)
        assert cfg.n_steps == 10
        big = HmcConfig(h=12.0, n_samples=1, seed=0, integrator=ROW2, leg_time=5.0)
        assert big.n_steps == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            HmcConfig(h=0.0, n_samples=1, seed=0, integrator=ROW2)
        with pytest.raises(ValueError):
            HmcConfig(h=0.1, n_samples=0, seed=0, integrator=ROW2)
        with pytest.raises(ValueError):
            HmcConfig(h=0.1, n_samples=1, seed=0, integrator=ROW2, leg_time=0.0)

    @pytest.mark.parametrize("field, value", [("n_samples", 2.5), ("n_samples", True), ("n_samples", 5.0),
                                              ("seed", 1.5), ("seed", True), ("seed", "1")])
    def test_counts_must_be_integers(self, field, value):
        kwargs = {"h": 0.1, "n_samples": 5, "seed": 1, "integrator": ROW2, field: value}
        with pytest.raises(TypeError, match=re.escape(f"{field}={value!r} is not an integer")):
            HmcConfig(**kwargs)

    def test_counts_below_their_minimum(self):
        with pytest.raises(ValueError, match="n_samples must be at least 1, not 0"):
            HmcConfig(0.1, 0, 1, ROW2)
        with pytest.raises(ValueError, match="seed must be at least 0, not -1"):
            HmcConfig(0.1, 5, -1, ROW2)
        assert HmcConfig(0.1, np.int64(5), np.uint32(0), ROW2).n_samples == 5

    def test_too_few_steps_for_a_folded_integrator(self):
        # rowlands folds a kernel step into each processor, so a leg needs N >= 2
        with pytest.raises(InsufficientSteps, match=r"h=4\.0 gives N=1 steps"):
            HmcConfig(4.0, 5, 0, named_integrator("rowlands"))
        assert HmcConfig(2.5, 5, 0, named_integrator("rowlands")).n_steps == 2


class TestMetropolis:
    def test_zero_energy_change_is_always_accepted(self):
        q0 = np.array([0.5, -1.0, 2.0])
        for positions in (True, False):
            samples, dh, accepted = _metropolis(lambda q, p: (0.0, q), q0, 500, np.random.default_rng(3), positions)
            assert accepted == 500
            assert np.array_equal(dh, np.zeros(500))
            if positions:
                assert np.array_equal(samples, np.tile(q0, (500, 1)))
            else:
                assert samples is None


class TestHmcRun:
    def test_deterministic_given_seed(self):
        cfg = HmcConfig(h=0.3, n_samples=200, seed=711, integrator=ROW2, leg_time=5.0)
        s1, st1 = hmc_run(gaussian_model(5), cfg)
        s2, st2 = hmc_run(gaussian_model(5), cfg)
        assert np.array_equal(s1, s2)
        assert st1.accepted == st2.accepted
        assert np.array_equal(st1.energy_errors, st2.energy_errors)

    def test_fast_path_matches_generic_execution(self):
        # every named integrator, modified kicks included; each at the same
        # fraction of its own stability length as proc-3.0 at h = 0.35
        tgt = gaussian_model(6)
        for name in INTEGRATOR_NAMES:
            integ = named_integrator(name)
            h = 0.35 * stability_length(integ.kernel) / stability_length(ROW2.kernel)
            cfg = HmcConfig(h=h, n_samples=300, seed=42, integrator=integ, leg_time=5.0)
            s_fast, st_fast = hmc_run(tgt, cfg, use_fast_path=True)
            s_gen, st_gen = hmc_run(tgt, cfg, use_fast_path=False)
            assert st_fast.accepted == st_gen.accepted, name
            assert st_fast.grad_evals == st_gen.grad_evals, name
            assert np.max(np.abs(s_fast - s_gen)) <= 1e-10, name
            assert np.max(np.abs(st_fast.energy_errors - st_gen.energy_errors)) <= 1e-10, name

    @pytest.mark.parametrize("fast", [True, False], ids=["fast", "generic"])
    @pytest.mark.parametrize("name", INTEGRATOR_NAMES)
    def test_dropping_positions_changes_nothing_else(self, name, fast):
        integ = named_integrator(name)
        h = 0.35 * stability_length(integ.kernel) / stability_length(ROW2.kernel)
        cfg = HmcConfig(h=h, n_samples=100, seed=9, integrator=integ)
        _, kept = hmc_run(gaussian_model(6), cfg, use_fast_path=fast)
        samples, dropped = hmc_run(gaussian_model(6), cfg, use_fast_path=fast, positions=False)
        assert samples is None
        assert dropped.cfg == kept.cfg
        assert (dropped.accepted, dropped.grad_evals) == (kept.accepted, kept.grad_evals)
        assert dropped.energy_errors.tobytes() == kept.energy_errors.tobytes()

    def test_fast_path_honours_a_folded_kernel_step(self):
        # leapfrog with one kernel step folded into its preprocessor is
        # leapfrog: both paths must run N - 2 kernel steps between pre and post
        plain = named_integrator("leapfrog")
        folded = ProcessedIntegrator(plain.kernel, plain.kernel)
        tgt = gaussian_model(6)
        runs = [
            hmc_run(tgt, HmcConfig(h=0.3, n_samples=50, seed=2, integrator=integ), use_fast_path=fast)
            for integ, fast in ((plain, True), (folded, True), (folded, False))
        ]
        for samples, stats in runs[1:]:
            assert stats.accepted == runs[0][1].accepted
            assert stats.grad_evals == runs[0][1].grad_evals
            assert np.max(np.abs(samples - runs[0][0])) <= 1e-10

    def test_nonlinear_target_chain(self):
        # no exact sampler: the chain starts at the origin and mixes from there
        cfg = HmcConfig(h=0.25, n_samples=400, seed=6, integrator=ROW2, leg_time=5.0)
        samples, stats = hmc_run(anharmonic_model(2), cfg)
        assert np.all(np.isfinite(samples))
        assert 0.5 < stats.acceptance_rate <= 1.0
        assert stats.grad_evals == stats.proposed * (3 * cfg.n_steps + 5)

    def test_divergent_legs_are_billed_the_closed_form_count(self):
        integ = named_integrator("leapfrog")
        cfg = HmcConfig(h=1.0, n_samples=20, seed=0, integrator=integ, leg_time=20.0)
        _, stats = hmc_run(anharmonic_model(2), cfg)
        assert np.isinf(stats.energy_errors).any()
        assert stats.grad_evals == stats.proposed * leg_gradient_count(integ, cfg.n_steps)

    def test_grad_accounting(self):
        cfg = HmcConfig(h=0.5, n_samples=40, seed=9, integrator=ROW2, leg_time=5.0)
        _, stats = hmc_run(gaussian_model(4), cfg)
        assert stats.proposed == 40
        assert stats.grad_per_leg == 3 * cfg.n_steps + 5
        assert stats.accept_per_grad == 100.0 * stats.acceptance_rate / stats.grad_per_leg

    def test_acceptance_collapses_beyond_scaled_stability(self):
        d = 64
        h_kernel = stability_length(ROW2.kernel)
        cfg = HmcConfig(h=1.05 * h_kernel / d, n_samples=400, seed=5, integrator=ROW2, leg_time=5.0)
        _, stats = hmc_run(gaussian_model(d), cfg)
        assert stats.acceptance_rate < 0.05

    def test_rejection_keeps_position(self):
        d = 64
        h_kernel = stability_length(ROW2.kernel)
        cfg = HmcConfig(h=1.3 * h_kernel / d, n_samples=10, seed=1, integrator=ROW2, leg_time=5.0)
        samples, stats = hmc_run(gaussian_model(d), cfg)
        assert stats.accepted == 0
        assert np.all(np.isfinite(samples))
        for m in range(1, samples.shape[0]):
            assert np.array_equal(samples[m], samples[0])

    def test_generic_path_stationarity_small(self):
        cfg = HmcConfig(h=0.5, n_samples=5000, seed=21, integrator=ROW2, leg_time=5.0)
        samples, _ = hmc_run(gaussian_model(1), cfg, use_fast_path=False)
        q2 = samples[:, 0] ** 2
        se = batch_means_se(q2)
        assert abs(q2.mean() - 1.0) <= 5 * se

    def test_mean_energy_error_within_per_mode_bound(self):
        d, h = 32, 0.06
        cfg = HmcConfig(h=h, n_samples=4000, seed=77, integrator=ROW2, leg_time=5.0)
        _, stats = hmc_run(gaussian_model(d), cfg)
        dh = stats.energy_errors
        se = dh.std(ddof=1) / math.sqrt(dh.size)
        bound = sum(rho(ROW2, h * j) for j in range(1, d + 1))
        assert dh.mean() >= -3 * se  # expected energy error is non-negative
        assert dh.mean() <= bound + 3 * se


class TestEfficiencyCurve:
    def test_seeds_and_best_flag(self):
        tgt = gaussian_model(16)
        h_list = [0.02, 0.05, 0.1]
        points = efficiency_curve(tgt, h_list, ROW2, n_samples=150, seed=1000, leg_time=5.0)
        assert [pt.seed for pt in points] == [1000 ^ 0, 1000 ^ 1, 1000 ^ 2]
        # the best-point check is TestSweep::test_best_line_names_the_best_row in test_cli.py

    def test_bad_counts_fail_before_any_chain(self):
        # every config is built first, so a bad count never reaches a chain
        with pytest.raises(TypeError, match="n_samples=2.5 is not an integer"):
            efficiency_curve(gaussian_model(4), [0.1, 0.2], ROW2, 2.5, 1)
        with pytest.raises(ValueError, match="seed must be at least 0, not -1"):
            efficiency_curve(gaussian_model(4), [0.1, 0.2], ROW2, 5, -1)
        for seed in (True, 1.0):  # seed ^ i would make True an int and fail on 1.0
            with pytest.raises(TypeError, match=f"seed={seed!r} is not an integer"):
                efficiency_curve(gaussian_model(4), [0.1, 0.2], ROW2, 5, seed)

    def test_empty_h_list(self):
        assert efficiency_curve(gaussian_model(4), [], ROW2, n_samples=10, seed=0) == []

    def test_worker_count_does_not_change_results(self):
        tgt = gaussian_model(16)
        h_list = [0.02, 0.06]
        serial = efficiency_curve(tgt, h_list, ROW2, n_samples=100, seed=4, leg_time=5.0, workers=1)
        parallel = efficiency_curve(tgt, h_list, ROW2, n_samples=100, seed=4, leg_time=5.0, workers=2)

        def record(st):
            return st.cfg, st.accepted, st.grad_evals, st.energy_errors.tobytes()

        assert [record(st) for st in serial] == [record(st) for st in parallel]

    def test_chain_memory_does_not_grow_with_samples_times_dim(self):
        # a stored chain would hold n * d * 8 bytes (16 MiB here); a sweep
        # chain keeps only its energy errors and O(d) work arrays
        from symphmc.cli import default_h_grid

        d, n = 1024, 2000
        target, integ = gaussian_model(d), named_integrator("proc-3.0")
        h = default_h_grid("proc-3.0", d, 12)[6]
        tracemalloc.start()
        try:
            efficiency_curve(target, [h], integ, n_samples=n, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * d * 8 / 4

    def test_efficiency_ordering_at_moderate_dimension(self):
        # the multistage integrators beat verlet per gradient at d = 256 too,
        # with the processed set on top
        from symphmc.cli import default_h_grid

        dim = 256
        target = gaussian_model(dim)
        best = {}
        for name in ("leapfrog", "blcasa", "proc-3.0"):
            integ = named_integrator(name)
            grid = default_h_grid(name, dim, 8)
            points = efficiency_curve(target, grid, integ, n_samples=1000, seed=7, leg_time=5.0)
            best[name] = max(pt.accept_per_grad for pt in points)
        assert best["proc-3.0"] > best["blcasa"] > best["leapfrog"]

    def test_acceptance_nonincreasing_up_to_noise(self):
        d = 64
        tgt = gaussian_model(d)
        h_kernel = stability_length(ROW2.kernel)
        h_list = list(np.geomspace(0.3 * h_kernel / d, 0.95 * h_kernel / d, 6))
        n = 400
        points = efficiency_curve(tgt, h_list, ROW2, n_samples=n, seed=8, leg_time=5.0)
        for lo, hi in zip(points, points[1:]):
            a1, a2 = lo.acceptance_rate, hi.acceptance_rate
            noise = math.sqrt((a1 * (1 - a1) + a2 * (1 - a2)) / n + 1e-12)
            assert a2 <= a1 + 3 * noise
