import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from symphmc import DegenerateParameter, NoDescent, cli, continuation_sweep, evaluate, rho_norm, tune
from symphmc import processed_family, tuning
from symphmc.catalog import REFERENCE_ROWS, row_by_name

ROW2 = row_by_name("proc-3.0")
ROW2_SEED = (ROW2.b, ROW2.c, ROW2.d)
ROW5 = row_by_name("proc-4.5")
ROW5_SEED = (ROW5.b, ROW5.c, ROW5.d)

# Kernel parameters b: 4,001 log-spaced magnitudes over the finite range,
# both signs, and 20,001 points spanning 1/6 +- 2e-3 (1/6 itself included).
_MAGNITUDES = np.logspace(-320, math.log10(1.7e308), 4001)
B_SETS = {"log-spaced": np.concatenate([_MAGNITUDES, -_MAGNITUDES]),
          "near-one-sixth": np.linspace(1 / 6 - 2e-3, 1 / 6 + 2e-3, 20001)}


class TestEvaluate:
    def test_row2_parameters(self):
        assert evaluate(0.348674, -0.075640, 0.069720, 3.0) <= 6e-8

    def test_unprocessed_regression(self):
        # frozen supremum of the metric for the bare two-stage baseline
        value = evaluate(0.381120, 0.0, 0.0, 3.0)
        assert math.isclose(value, 7.420004184501961e-05, rel_tol=1e-12)

    def test_sign_flipped_processor_is_equivalent(self):
        # flipping (c, d) evaluates the profile at -h, and rho is even in h
        flipped = evaluate(0.348674, 0.075640, -0.069720, 3.0)
        original = evaluate(0.348674, -0.075640, 0.069720, 3.0)
        assert math.isclose(flipped, original, rel_tol=1e-14)

    def test_degenerate_kernel_parameter(self):
        with pytest.raises(DegenerateParameter):
            evaluate(1.0 / 6.0, 0.0, 0.0, 3.0)

    def test_unstable_budget_is_inf(self):
        assert evaluate(*ROW2_SEED, 1000.0) == math.inf

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", sorted(B_SETS))
    def test_every_finite_b_builds_off_the_singular_surface(self, name):
        # each member is built; every 25th is also evaluated, at ~0.3 ms each
        for i, b in enumerate(B_SETS[name].tolist()):
            on_surface = 6.0 * b - 1.0 == 0.0
            try:
                processed_family(b, -0.07, 0.07)
            except DegenerateParameter:
                assert on_surface, b
                continue
            assert not on_surface, b
            if i % 25 == 0:
                assert isinstance(evaluate(b, -0.07, 0.07, 3.0), float), b


class TestTune:
    def test_from_row2_seed(self):
        result = tune(3.0, ROW2_SEED)
        assert result.rho_norm <= 6e-8
        assert result.rho_norm <= evaluate(*ROW2_SEED, 3.0)  # never worse than the seed
        assert result.interior_peak <= result.rho_at_hbar + 1e-12  # no interior peak above rho(hbar)
        # result matches an independent re-evaluation of the metric
        assert abs(result.rho_norm - rho_norm(processed_family(result.b, result.c, result.d), 3.0)) <= 1e-12
        assert len(result.trace) > 0

    def test_reproducible(self):
        r1 = tune(3.0, ROW2_SEED, restarts=0, max_iter=150)
        r2 = tune(3.0, ROW2_SEED, restarts=0, max_iter=150)
        assert (r1.b, r1.c, r1.d, r1.rho_norm) == (r2.b, r2.c, r2.d, r2.rho_norm)
        assert r1.trace.tobytes() == r2.trace.tobytes()

    def test_from_row5_seed_at_its_own_budget(self):
        result = tune(4.5, ROW5_SEED, restarts=0)
        assert result.rho_norm <= 5e-5

    def test_trace_is_a_read_only_float_array(self):
        result = tune(3.0, ROW2_SEED, restarts=0, max_iter=10)  # stops at its cap of 20 evaluations
        trace = result.trace
        assert trace.dtype == np.float64 and trace.shape == (20, 4)
        assert not trace.flags.writeable
        with pytest.raises(ValueError):
            trace[0, 0] = 0.0
        # the trace takes no part in equality or hashing
        assert hash(result) == hash(tune(3.0, ROW2_SEED, restarts=0, max_iter=10))

    def test_trace_holds_at_most_48_bytes_per_evaluation(self):
        tune(3.0, ROW2_SEED, restarts=0, max_iter=10)  # warm-up: first-call allocations are not the trace's
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = tune(3.0, ROW2_SEED)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(result.trace) == 1111
        assert held <= 48 * len(result.trace), held / len(result.trace)

    def test_no_descent_from_an_overflowing_seed(self):
        # c = d = 1e100 overflows the polynomials: +inf, never NaN or a numpy error
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert evaluate(0.348674, 1e100, 1e100, 3.0) == math.inf
            with pytest.raises(NoDescent):
                tune(3.0, (0.348674, 1e100, 1e100))
        assert caught == []

    def test_no_descent_from_infinite_seed(self):
        with pytest.raises(NoDescent):
            tune(1000.0, ROW2_SEED)


class TestContinuation:
    def test_monotone_budgets_required(self):
        with pytest.raises(ValueError):
            continuation_sweep([3.0, 3.0], ROW2_SEED)

    @pytest.mark.parametrize("budgets", [[3.0, math.inf], [3.0, math.nan], [0.0, 3.0], [-1.0], [math.inf]])
    def test_bad_budgets_fail_before_any_tuning(self, monkeypatch, budgets):
        def no_tune(*args, **kwargs):
            raise AssertionError("tune called")

        monkeypatch.setattr(tuning, "tune", no_tune)
        with pytest.raises(ValueError, match="positive, finite and strictly increasing"):
            continuation_sweep(budgets, ROW2_SEED)

    def test_empty_list(self):
        assert continuation_sweep([], ROW2_SEED) == []

    def test_single_budget_equals_plain_tune(self):
        alone = continuation_sweep([3.0], ROW2_SEED)[0]
        direct = tune(3.0, ROW2_SEED)
        assert (alone.b, alone.c, alone.d, alone.rho_norm) == (direct.b, direct.c, direct.d, direct.rho_norm)

    def test_chain_beats_reference_bounds(self):
        results = continuation_sweep([3.0, 3.5, 4.0, 4.5], ROW2_SEED)
        for result, row in zip(results, REFERENCE_ROWS[1:]):
            assert result.hbar == row.hbar
            assert result.rho_norm <= row.rho_bound


def scipy_nelder_mead(f, simplex, max_iter, max_eval):
    """tuning._nelder_mead's contract, run by scipy."""
    from scipy.optimize import minimize

    res = minimize(
        f,
        simplex[0],
        method="Nelder-Mead",
        options={
            "initial_simplex": simplex,
            "xatol": tuning.XATOL,
            "fatol": tuning.FATOL,
            "maxiter": max_iter,
            "maxfev": max_eval,
        },
    )
    return res.x, float(res.fun)


class TestSimplexMatchesScipy:
    @pytest.mark.parametrize(
        "hbar, seed, kwargs, evaluations, infinite",
        [
            (3.0, ROW2_SEED, {}, 1111, 0),  # three simplices, 11 shrink steps
            (3.0, ROW2_SEED, {"restarts": 0, "max_iter": 10}, 20, 0),  # stops at the evaluation cap
            (3.0, ROW2_SEED, {"restarts": 0, "max_iter": 14}, 28, 0),  # the cap cuts an iteration short
            (5.0, ROW5_SEED, {"restarts": 0, "max_iter": 100}, 164, 1),  # a vertex past the stability length
        ],
        ids=["row2", "capped", "capped-mid-iteration", "unstable-vertex"],
    )
    def test_same_trace_as_scipy(self, monkeypatch, hbar, seed, kwargs, evaluations, infinite):
        pytest.importorskip("scipy")
        ours = tune(hbar, seed, **kwargs)
        monkeypatch.setattr(tuning, "_nelder_mead", scipy_nelder_mead)
        theirs = tune(hbar, seed, **kwargs)
        assert len(ours.trace) == evaluations
        assert sum(math.isinf(value) for b, c, d, value in ours.trace) == infinite
        assert ours == theirs and ours.trace.tobytes() == theirs.trace.tobytes()  # every field, the full trace included


NO_SCIPY_RUN = f"""
import sys
from symphmc import cli, continuation_sweep, tune

tune(3.0, {ROW2_SEED!r}, restarts=0, max_iter=10)
assert "scipy" not in sys.modules, "import symphmc or tune loaded scipy"
sys.modules["scipy"] = None  # any later `import scipy...` raises ImportError
code = cli.main(["tune", "--integrator", "proc-3.0", "--h", "3.0"])
r = continuation_sweep([3.0], {ROW2_SEED!r})[0]
print(repr((r.b, r.c, r.d, r.rho_norm, len(r.trace))))
sys.exit(code)
"""


def src_env() -> dict:
    src = os.path.dirname(os.path.dirname(os.path.abspath(tuning.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_runs_without_scipy(capsys):
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_RUN], env=src_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr

    assert cli.main(["tune", "--integrator", "proc-3.0", "--h", "3.0"]) == 0
    r = continuation_sweep([3.0], ROW2_SEED)[0]
    print(repr((r.b, r.c, r.d, r.rho_norm, len(r.trace))))
    assert proc.stdout == capsys.readouterr().out


RETUNE_SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts", "retune_table2.py")


@pytest.mark.parametrize("budgets", ["abc", "4.0,3.0", "", "3.0,inf"])
def test_retune_script_rejects_bad_budgets(budgets):
    proc = subprocess.run([sys.executable, RETUNE_SCRIPT, "--budgets", budgets], env=src_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert len([line for line in proc.stderr.splitlines() if "error:" in line]) == 1, proc.stderr
