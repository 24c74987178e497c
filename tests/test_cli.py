import json
import math
import os
import re
import subprocess
import sys
import warnings
from datetime import timedelta

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import symphmc
from symphmc import (FlowSchedule, HmcConfig, ProcessedIntegrator, catalog, cli, continuation_sweep, gaussian_model,
                     hmc_run, leg_gradient_count, modified_kick)
from symphmc.cli import COMMANDS, SWEEP_CSV_HEADER, _fmt, _workers, main
from symphmc.harmonic import rho
from symphmc.catalog import named_integrator


@pytest.fixture(autouse=True)
def serial_pool(monkeypatch):
    monkeypatch.setenv("SYMPHMC_THREADS", "1")


def run_cli(args):
    return main(args)


class TestTable2:
    def test_reports_every_row(self, capsys):
        code = run_cli(["table2"])
        out = capsys.readouterr().out
        for name in ("blcasa", "proc-3.0", "proc-3.5", "proc-4.0", "proc-4.5"):
            assert name in out
        # the blcasa metric bound is known to sit below the computed
        # supremum, so the command honestly reports that cell as FAIL
        assert code == 1
        blcasa_line = next(line for line in out.splitlines() if line.startswith("blcasa"))
        assert "FAIL" in blcasa_line
        for name in ("proc-3.0", "proc-3.5", "proc-4.0", "proc-4.5"):
            line = next(line for line in out.splitlines() if line.startswith(name))
            assert "FAIL" not in line


class TestStability:
    def test_prints_all_kernels(self, capsys):
        assert run_cli(["stability"]) == 0
        out = capsys.readouterr().out
        assert out.count("h_s=") == 7
        assert [line.split()[0] for line in out.splitlines()] == list(catalog.INTEGRATOR_NAMES)
        leapfrog = next(line for line in out.splitlines() if line.startswith("leapfrog"))
        assert abs(float(leapfrog.split("h_s=")[1]) - 2.0) < 1e-5
        assert out.splitlines()[-1] == "rowlands  h_s=3.464102"

    def test_single_integrator(self, capsys):
        assert run_cli(["stability", "--integrator", "proc-4.0"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("proc-4.0")

    def test_rowlands_stability_length(self, capsys):
        assert run_cli(["stability", "--integrator", "rowlands"]) == 0
        out = capsys.readouterr().out
        assert out == f"rowlands  h_s={2.0 * math.sqrt(3.0):.6f}\n"


class TestSweep:
    def test_requires_integrator(self, capsys):
        assert run_cli(["sweep"]) == 2

    def test_rowlands_sweep_bills_hessian_vector_products(self, tmp_path):
        # the fast path's count, the executor's on a probe leg, equals what the
        # generic path's target counts: N + 3 gradients, N + 1 Hessian-vector products
        out = tmp_path / "rowlands.csv"
        args = ["sweep", "--integrator", "rowlands", "--dim", "16", "--samples", "40", "--h", "0.05,0.1"]
        assert run_cli(args + ["--seed", "3", "--out", str(out)]) == 0
        for line in out.read_text().splitlines()[1:]:
            fields = line.split(",")
            h, n, grad_per_leg = float(fields[2]), int(fields[3]), float(fields[4])
            assert grad_per_leg == 2 * n + 4
            cfg = HmcConfig(h, 5, 0, named_integrator("rowlands"))
            _, stats = hmc_run(gaussian_model(16), cfg, use_fast_path=False)
            assert stats.grad_per_leg == grad_per_leg

    def test_unknown_integrator_is_usage_error(self, capsys):
        # the flag passes through the option's converter; --help lists the names
        assert run_cli(["sweep", "--integrator", "nope"]) == 2
        names = ", ".join(catalog.INTEGRATOR_NAMES)
        assert capsys.readouterr().err == f'error: bad --integrator value "nope": choose from {names}\n'
        with pytest.raises(SystemExit):
            run_cli(["sweep", "--help"])
        assert names in " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize("argv, line", [
        (["--h-grid", "0"], 'bad --h-grid value "0": the value must be at least 1, not 0'),
        (["--seed", "-1"], 'bad --seed value "-1": the value must be at least 0, not -1'),
    ], ids=["h-grid-0", "seed-negative"])
    def test_count_below_minimum_is_usage_error(self, capsys, argv, line):
        # the four count options convert with int, then splitting.whole
        assert run_cli(["sweep", "--integrator", "leapfrog", "--dim", "8", *argv]) == 2
        assert capsys.readouterr().err == f"error: {line}\n"

    def test_csv_schema_and_consistency(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            ["sweep", "--integrator", "proc-3.0", "--dim", "16", "--samples", "200",
             "--h", "0.05,0.1", "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 3
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[0] == "proc-3.0"
            assert int(fields[1]) == 16
            grad_per_leg = float(fields[4])
            acceptance_pct = float(fields[7])
            accept_per_grad = float(fields[8])
            # apg recomputed from the same row round-trips exactly
            assert acceptance_pct / grad_per_leg == accept_per_grad
            n = int(fields[3])
            assert grad_per_leg == 3 * n + 5

    def test_byte_identical_reruns(self, tmp_path):
        args = ["sweep", "--integrator", "blcasa", "--dim", "8", "--samples", "100",
                "--h", "0.1,0.2,0.4", "--seed", "7"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(a)]) == 0
        assert run_cli(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_default_grid_size(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = run_cli(["sweep", "--integrator", "leapfrog", "--dim", "16", "--samples", "50",
                        "--h-grid", "4", "--seed", "2", "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 5

    def test_bad_h_token(self):
        assert run_cli(["sweep", "--integrator", "leapfrog", "--dim", "8", "--h", "0.1,abc"]) == 2

    def test_unwritable_output_reports_path(self, tmp_path, monkeypatch, capsys):
        # every command that takes --out rejects an empty path, a directory,
        # a missing directory and an unwritable one before any of its work runs
        def work(*args, **kwargs):
            raise AssertionError("the command ran before --out was checked")

        for name in ("efficiency_curve", "continuation_sweep", "rho", "rho_norm", "stability_length"):
            monkeypatch.setattr(cli, name, work)
        monkeypatch.setattr(os, "access", lambda *args, **kwargs: False)  # every existing directory is read-only
        commands = [["table2"], ["stability"], ["sweep", "--integrator", "leapfrog", "--dim", "8", "--h", "0.1"],
                    ["tune", "--integrator", "proc-3.0"], ["rho-scan", "--integrator", "proc-3.0"]]
        assert sorted(c[0] for c in commands) == sorted(c for c, (*_, opts) in COMMANDS.items() if "out" in opts)
        for args in commands:
            for path in ("", str(tmp_path), str(tmp_path / "missing-dir" / "x.csv"), str(tmp_path / "x.csv")):
                assert run_cli(args + ["--out", path]) == 2
                assert f"--out value {json.dumps(path)}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_is_usage_error(self, tmp_path, monkeypatch, capsys):
        # --out passes its check, then the write itself fails
        def full_disk(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "open", full_disk, raising=False)
        path = str(tmp_path / "x.txt")
        assert run_cli(["stability", "--out", path]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: cannot write {path!r}: [Errno 28] No space left on device\n"

    def test_samples_flag_restores_long_chains(self, tmp_path):
        base = ["sweep", "--integrator", "leapfrog", "--dim", "2048",
                "--h", "0.0002", "--seed", "1"]
        desk, long = tmp_path / "desk.csv", tmp_path / "long.csv"
        assert run_cli(base + ["--out", str(desk)]) == 0
        assert run_cli(base + ["--samples", "5000", "--out", str(long)]) == 0
        assert desk.read_text().splitlines()[1].split(",")[6] == "1000"
        assert long.read_text().splitlines()[1].split(",")[6] == "5000"

    def test_thread_cap_must_be_integer(self, monkeypatch):
        monkeypatch.setenv("SYMPHMC_THREADS", "lots")
        code = run_cli(["sweep", "--integrator", "leapfrog", "--dim", "8",
                        "--h", "0.05,0.1", "--samples", "20", "--seed", "1"])
        assert code == 2

    def test_pool_size_does_not_change_csv(self, tmp_path, monkeypatch):
        args = ["sweep", "--integrator", "proc-3.0", "--dim", "8", "--samples", "80",
                "--h", "0.05,0.1,0.2", "--seed", "9"]
        serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
        monkeypatch.setenv("SYMPHMC_THREADS", "1")
        assert run_cli(args + ["--out", str(serial)]) == 0
        monkeypatch.setenv("SYMPHMC_THREADS", "3")
        assert run_cli(args + ["--out", str(pooled)]) == 0
        assert serial.read_bytes() == pooled.read_bytes()

    def test_pool_never_exceeds_usable_cpus(self, monkeypatch):
        monkeypatch.delenv("SYMPHMC_THREADS")
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert _workers(12) == 1
        # where the platform cannot report affinity, the CPU count caps it
        monkeypatch.delattr(os, "sched_getaffinity")
        assert _workers(12) == 8
        assert _workers(3) == 3

    def test_single_process_runs_do_not_load_the_pool(self, tmp_path):
        script = "\n".join([
            "import sys",
            "import symphmc",
            "from symphmc import cli",
            "assert cli.main(['stability']) == 0",
            "assert cli.main(['sweep', '--integrator', 'proc-3.0', '--dim', '8', '--samples', '20',",
            "                 '--h', '0.05,0.1', '--out', 'sweep.csv']) == 0",
            "loaded = {'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)",
            "assert not loaded, loaded",
        ])
        src = os.path.dirname(os.path.dirname(symphmc.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, SYMPHMC_THREADS="1", PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "sweep.csv").read_text().count("\n") == 3


    def test_best_line_names_the_best_row(self, tmp_path, capsys):
        out = tmp_path / "best.csv"
        code = run_cli(["sweep", "--integrator", "proc-3.0", "--dim", "16", "--samples", "150",
                        "--h", "0.02,0.05,0.1,0.2", "--seed", "1000", "--out", str(out)])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        best = max(rows, key=lambda fields: float(fields[8]))  # the first maximum
        assert best is not rows[0]
        line = capsys.readouterr().err.splitlines()[-1]
        assert line.startswith(f"best accept-per-gradient: h={best[2]} N={best[3]} ")
        assert line.endswith(f" accept_per_grad={best[8]}")

    def test_too_few_steps_fails_before_any_chain(self, tmp_path, capsys):
        # a rowlands leg needs N >= 2; h=4 over the default leg time gives N=1
        out = tmp_path / "short.csv"
        code = run_cli(["sweep", "--integrator", "rowlands", "--dim", "4", "--h", "0.1,4", "--samples", "5",
                        "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "h=4" in err and "N=1" in err
        assert not out.exists()

    def test_oversized_request_is_usage_error(self, monkeypatch, capsys):
        # numpy raises MemoryError for a chain it cannot allocate; a real
        # allocation is not made, since with overcommit a huge one may succeed
        message = "Unable to allocate 7.28 TiB for an array with shape (1000000000000,) and data type float64"

        def refuse(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "efficiency_curve", refuse)
        assert run_cli(["sweep", "--integrator", "proc-3.0", "--dim", "4", "--samples", "1000000000000",
                        "--h", "0.1"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("name", ["proc-3.0", "rowlands"])
    def test_rows_are_direct_chains(self, name, tmp_path):
        # the sweep adds nothing to the chain: row i is hmc_run's ChainStats at seed ^ i
        dim, samples, seed, steps = 8, 60, 5, [0.05, 0.1, 0.2]
        out = tmp_path / "rows.csv"
        code = run_cli(["sweep", "--integrator", name, "--dim", str(dim), "--samples", str(samples),
                        "--h", ",".join(map(str, steps)), "--seed", str(seed), "--out", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == len(steps)
        for i, (h, row) in enumerate(zip(steps, rows)):
            _, st = hmc_run(gaussian_model(dim), HmcConfig(h, samples, seed ^ i, named_integrator(name)))
            fields = (name, str(dim), _fmt(h), str(st.cfg.n_steps), _fmt(st.grad_per_leg), str(st.accepted),
                      str(st.proposed), _fmt(100.0 * st.acceptance_rate), _fmt(st.accept_per_grad), str(st.seed))
            assert row == ",".join(fields)


class TestRhoScan:
    def test_values_match_library(self, tmp_path):
        out = tmp_path / "rho.csv"
        assert run_cli(["rho-scan", "--integrator", "proc-3.0", "--h-grid", "50", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "h,rho"
        assert len(lines) == 51
        integ = named_integrator("proc-3.0")
        h, value = map(float, lines[25].split(","))
        assert value == rho(integ, h)

    def test_requires_integrator(self):
        assert run_cli(["rho-scan"]) == 2

    def test_rowlands_default_budget(self, tmp_path):
        out = tmp_path / "rowlands.csv"
        assert run_cli(["rho-scan", "--integrator", "rowlands", "--h-grid", "10", "--out", str(out)]) == 0
        rows = [tuple(map(float, line.split(","))) for line in out.read_text().splitlines()[1:]]
        assert rows[-1][0] == 0.98 * 2.0 * math.sqrt(3.0)
        integ = named_integrator("rowlands")
        assert all(value == rho(integ, h) and math.isfinite(value) for h, value in rows)

    def test_leapfrog_default_budget(self, capsys):
        assert run_cli(["rho-scan", "--integrator", "leapfrog", "--h-grid", "10"]) == 0
        assert capsys.readouterr().out.splitlines()[-1].split(",")[0] == _fmt(0.98 * 2.0)

    def test_stable_below_product_underflow(self, tmp_path):
        out = tmp_path / "tiny.csv"
        assert run_cli(["rho-scan", "--integrator", "proc-3.0", "--h", "1e-200",
                        "--h-grid", "5", "--out", str(out)]) == 0
        assert [line.split(",")[1] for line in out.read_text().splitlines()[1:]] == ["0"] * 5

    def test_subnormal_budget_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "subnormal.csv"
        assert run_cli(["rho-scan", "--integrator", "blcasa", "--h", "1e-320",
                        "--h-grid", "3", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: h=")
        assert "is subnormal" in err[0]

    def test_unstable_steps_read_inf(self, capsys):
        # leapfrog is unstable from h = 2: the last 11 of 30 steps up to 3
        assert run_cli(["rho-scan", "--integrator", "leapfrog", "--h", "3", "--h-grid", "30"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 31 and sum(line.endswith(",inf") for line in lines) == 11
        assert all(line.endswith(",inf") for line in lines[20:])

    def test_explicit_budget(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run_cli(["rho-scan", "--integrator", "leapfrog", "--h", "1.5",
                        "--h-grid", "10", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 11
        assert float(lines[-1].split(",")[0]) == 1.5


class TestTune:
    def test_seeded_from_reference_row(self, tmp_path, capsys):
        out = tmp_path / "tune.json"
        code = run_cli(["tune", "--integrator", "proc-3.0", "--h", "3.0", "--out", str(out)])
        assert code == 0
        [payload] = json.loads(out.read_text())
        assert payload["hbar"] == 3.0
        assert payload["rho_norm"] <= 6e-8

    def test_budget_list_is_the_continuation(self, tmp_path, capsys):
        out = tmp_path / "tune.json"
        assert run_cli(["tune", "--integrator", "proc-3.0", "--h", "3.0,3.5", "--out", str(out)]) == 0
        row = catalog.row_by_name("proc-3.0")
        results = continuation_sweep([3.0, 3.5], (row.b, row.c, row.d))
        lines = []
        for r in results:
            lines.append(f"hbar={r.hbar}: b={_fmt(r.b)} c={_fmt(r.c)} d={_fmt(r.d)}")
            lines.append(f"rho_norm={r.rho_norm:.6e} at_hbar={r.rho_at_hbar:.6e} "
                         f"interior_peak={r.interior_peak:.6e} evaluations={len(r.trace)}")
        assert capsys.readouterr().out.splitlines() == lines
        assert json.loads(out.read_text()) == [
            {"hbar": r.hbar, "b": r.b, "c": r.c, "d": r.d, "rho_norm": r.rho_norm, "evaluations": len(r.trace)}
            for r in results]

    @pytest.mark.parametrize("init", [
        pytest.param("0.348674,-0.075640,0.069720", id="proc-3.0"),
        # a tiny processor parameter is valid input: its member tunes, warning nothing
        pytest.param("0.348674,-0.07564,1e-300", id="tiny-d"),
    ])
    def test_init_flag(self, capsys, init):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(["tune", "--init=" + init, "--h", "3.0"]) == 0
        assert caught == []
        assert "rho_norm=5.125362e-08" in capsys.readouterr().out

    def test_negative_init_needs_the_equals_form(self, capsys):
        # argparse reads "-0.1,0.2,0.3" as a flag, not as --init's value
        with pytest.raises(SystemExit) as exc:
            run_cli(["tune", "--init", "-0.1,0.2,0.3"])
        assert exc.value.code == 2
        assert "argument --init: expected one argument" in capsys.readouterr().err

    def test_no_descent_exits_nonzero(self, capsys):
        code = run_cli(["tune", "--integrator", "proc-3.0", "--h", "1000"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("init", [
        pytest.param((0.348674, 1.778e19, 1.778e19), id="1.778e+19"),
        pytest.param((0.348674, 1e100, 1e100), id="1e+100"),
        # 6b - 1 = -0.0026: 1 - 2a rounds by more than 1e-14, yet the member builds
        pytest.param((0.16623066666666667, -0.07, 0.07), id="near-singular"),
    ])
    def test_overflowing_init_is_no_descent(self, capsys, init):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(["tune", "--init=" + ",".join(map(repr, init)), "--h", "3.0"]) == 1
        assert caught == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: objective is not finite at {init!r} for hbar=3.0\n"

    def test_rounding_noise_budget_is_a_usage_error(self, capsys):
        # tuned rho_norm 1.9e-34 at hbar = 1e-4, below eps^2 ~ 4.9e-32
        assert run_cli(["tune", "--integrator", "proc-3.0", "--h", "1e-4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "hbar=0.0001" in err[0]

    def test_small_budget_above_eps_squared_tunes(self, capsys):
        # tuned rho_norm 1.09e-26 at hbar = 0.01
        assert run_cli(["tune", "--integrator", "proc-3.0", "--h", "0.01"]) == 0
        assert "rho_norm=1.09" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["leapfrog", "rowlands"])
    def test_no_seed_outside_the_reference_rows(self, name, capsys):
        assert run_cli(["tune", "--integrator", name]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: no reference row named {name!r}")

    def test_budget_whose_square_underflows_is_a_usage_error(self, capsys):
        assert run_cli(["tune", "--integrator", "proc-3.0", "--h", "1e-200"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: hbar=1e-200 is too small")

    def test_needs_some_seed(self):
        assert run_cli(["tune", "--h", "3.0"]) == 2

    def test_malformed_init(self, capsys):
        assert run_cli(["tune", "--init=0.3,0.0", "--h", "3.0"]) == 2
        assert capsys.readouterr().err == 'error: bad --init value "0.3,0.0": must be three finite numbers [b, c, d]\n'


SWEEP_LEAPFROG = ["sweep", "--integrator", "leapfrog", "--dim", "8", "--samples", "5"]


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--integrator", "leapfrog", "--dim", "0"],
        SWEEP_LEAPFROG + ["--h", "0.1", "--dim", "abc"],
        SWEEP_LEAPFROG + ["--h", "0.1", "--dim", "8.9"],
        SWEEP_LEAPFROG + ["--h", "0.1", "--samples", "5.7"],
        SWEEP_LEAPFROG + ["--h", "0.1", "--seed", "2.5"],
        SWEEP_LEAPFROG + ["--h", "0.1", "--samples", "0"],
        SWEEP_LEAPFROG + ["--h", "-1"],
        SWEEP_LEAPFROG + ["--h", "nan"],
        SWEEP_LEAPFROG + ["--h", ""],
        SWEEP_LEAPFROG + ["--h", ","],
        SWEEP_LEAPFROG + ["--h", "0.1", "--leg-time", "0"],
        SWEEP_LEAPFROG + ["--h", "0.1", "--leg-time", "nan"],
        SWEEP_LEAPFROG + ["--h", "0.1", "--leg-time", "inf"],
        ["rowlands-order", "--h", "0.3"],
        ["rowlands-order", "--h", "0.25,0.5"],
        ["rho-scan", "--integrator", "proc-3.0", "--h", "1,2"],
        ["tune", "--integrator", "proc-3.0", "--h", "-1"],
        # tune's budgets must increase strictly
        ["tune", "--integrator", "proc-3.0", "--h", "3.5,3.0"],
        ["tune", "--integrator", "proc-3.0", "--h", "3.0,3.0"],
        SWEEP_LEAPFROG + ["--h-grid", "0"],
        ["rho-scan", "--integrator", "leapfrog", "--h-grid", "0"],
        ["rho-scan", "--integrator", "leapfrog", "--h", "-1"],
        # finite inputs whose leg_time/h overflows the step count
        ["rowlands-order", "--leg-time", "1e308"],
        ["rowlands-order", "--h", "1e-320"],
        ["sweep", "--integrator", "proc-3.0", "--dim", "4", "--samples", "5", "--h", "1e-320"],
        ["sweep", "--integrator", "proc-3.0", "--dim", "4", "--samples", "5", "--leg-time", "1e308", "--h", "1e-10"],
    ],
    ids=["dim-0", "dim-abc", "dim-float", "samples-float", "seed-float", "samples-0", "h-negative", "h-nan", "h-empty", "h-comma", "leg-time-0", "leg-time-nan", "leg-time-inf",
         "rowlands-order-h", "rowlands-order-h-list", "rho-scan-h-list", "tune-h-negative", "tune-h-decreasing", "tune-h-repeated", "sweep-h-grid-0", "rho-scan-h-grid-0", "rho-scan-h-negative",
         "rowlands-order-leg-time-1e308", "rowlands-order-h-1e-320", "sweep-h-1e-320", "sweep-leg-time-1e308"],
)
def test_invalid_values_are_usage_errors(argv, capsys):
    code = run_cli(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_overflowing_leg_time_is_usage_error(capsys):
    # finite, but leg-time / h overflows the step count; the error gives the ratio
    assert run_cli(["rowlands-order", "--leg-time", "1e308"]) == 2
    assert capsys.readouterr().err == "error: choose h0 so that t_final/h0 is an even integer >= 4, not inf\n"


class TestRowlandsOrder:
    def test_reports_fourth_order(self, capsys):
        assert run_cli(["rowlands-order"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "positive: True" in out

    @pytest.mark.parametrize("argv, n_steps, evaluations", [([], 8, 20), (["--h", "0.125"], 16, 36)])
    def test_cost_line_is_the_executor_count(self, capsys, argv, n_steps, evaluations):
        # 2N + 4: N + 3 gradients and N + 1 Hessian-vector products
        assert evaluations == 2 * n_steps + 4 == leg_gradient_count(named_integrator("rowlands"), n_steps)
        assert run_cli(["rowlands-order", *argv]) == 0
        h = argv[1] if argv else "0.25"
        assert (f"leg cost at h={h}, N={n_steps}: {evaluations} evaluations, "
                "a Hessian-vector product billed as one gradient\n") in capsys.readouterr().out

    @pytest.mark.parametrize("part, c_mod", [
        ("pre", -float(catalog.KAPPA_GAMMA_1)),  # gamma_1 negated
        ("pre", 0.0),  # gamma_1 zeroed
        ("kernel", 0.0),  # the kernel's c zeroed, in both kicks
    ])
    def test_positivity_reads_the_running_flows(self, monkeypatch, capsys, part, c_mod):
        # only c_mod changes, so the kick weight sums, which ProcessedIntegrator checks, stay
        rowlands = catalog.named_integrator("rowlands")
        schedules = {"pre": rowlands.pre, "kernel": rowlands.kernel}
        old = schedules[part].flows[0]  # a modified kick in both
        new = modified_kick(old.coefficient, old.b_mod, c_mod)
        schedules[part] = FlowSchedule(tuple(new if f == old else f for f in schedules[part]))
        monkeypatch.setitem(catalog._INTEGRATORS, "rowlands",
                            ProcessedIntegrator(schedules["kernel"], schedules["pre"]))
        assert run_cli(["rowlands-order"]) == 1  # the order gate fails too
        assert "all substep coefficients positive: False\n" in capsys.readouterr().out


DECLARED_FLAGS = {
    "table2": ["--out"],
    "stability": ["--integrator", "--out"],
    "sweep": ["--integrator", "--dim", "--h", "--h-grid", "--leg-time", "--samples", "--seed", "--out"],
    "tune": ["--integrator", "--h", "--out", "--init"],
    "rho-scan": ["--integrator", "--h", "--h-grid", "--out"],
    "rowlands-order": ["--h", "--leg-time"],
}
ALL_FLAGS = sorted({flag for flags in DECLARED_FLAGS.values() for flag in flags})


@pytest.mark.parametrize("command", sorted(DECLARED_FLAGS))
def test_help_lists_only_declared_flags(command, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"(--[a-z-]+)", capsys.readouterr().out))
    assert listed == set(DECLARED_FLAGS[command]) | {"--help"}


@pytest.mark.parametrize(
    "argv",
    [["table2", "--dim", "5"], ["stability", "--h", "1"], ["sweep", "--int", "leapfrog"],
     ["rowlands-order", "--out", "x"], ["rho-scan", "--init", "0.3,0,0"],
     ["sweep", "--integrator", "leapfrog", "--full"], ["sweep", "--config", "cfg.json"]],
)
def test_undeclared_flags_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2


# The exit-code probe.  Any flag may carry an edge token: a subnormal, an
# underflowing and an overflowing float, non-finite and non-positive values,
# a hex and an underscored spelling, non-numbers and the empty string.
EDGE_TOKENS = ["5e-324", "1e-300", "1e400", "nan", "inf", "-1", "0", "0x10", "1_0", "2.5", "abc", "0.1,abc", ""]
OUT_TOKENS = ["out.csv", "missing-dir/out.csv"]
# Each command's flags with small valid values, so that no drawn call runs
# long.  rowlands-order's --leg-time is drawn only up to 8 (so without the
# edge token 1_0 = 10): its legs run leg_time/h flows, and a value such as
# 1e8 has no bound on its work, though it breaks no contract.
VALID_TOKENS = {
    "table2": {"--out": OUT_TOKENS},
    "stability": {"--integrator": ["leapfrog", "rowlands"], "--out": OUT_TOKENS},
    "sweep": {
        "--integrator": ["leapfrog", "proc-3.0", "rowlands"], "--dim": ["1", "4", "16"],
        "--samples": ["1", "20"], "--h": ["0.05", "0.1,0.2", "3"], "--h-grid": ["1", "3"],
        "--leg-time": ["1", "5"], "--seed": ["0", "7"], "--out": OUT_TOKENS,
    },
    "tune": {"--integrator": ["leapfrog", "proc-4.0", "proc-4.5"], "--h": ["3.0", "4.5"], "--out": OUT_TOKENS,
             "--init": ["0.348674,-0.07564,0.06972", "0.348674,1e100,1e100"]},
    "rho-scan": {"--integrator": ["blcasa", "rowlands"], "--h": ["0.5", "3.0"], "--h-grid": ["1", "3"],
                 "--out": OUT_TOKENS},
    "rowlands-order": {"--h": ["0.1", "0.25", "0.5"], "--leg-time": ["1", "2", "8"]},
}


@st.composite
def cheap_argv(draw):
    command = draw(st.sampled_from(sorted(VALID_TOKENS)))
    valid = VALID_TOKENS[command]
    argv = [command]
    # a valid start: sweep's defaults, d = 1024 and 5000 samples, are not
    # small, and these three commands require an integrator
    for flag in {"sweep": ["--integrator", "--dim", "--samples"], "tune": ["--integrator"],
                 "rho-scan": ["--integrator"]}.get(command, []):
        argv += [flag, draw(st.sampled_from(valid[flag]))]
    for flag in draw(st.lists(st.sampled_from(sorted(valid)), max_size=4)):
        edges = [token for token in EDGE_TOKENS if (command, flag, token) != ("rowlands-order", "--leg-time", "1_0")]
        argv += [flag, draw(st.sampled_from(valid[flag]) | st.sampled_from(edges))]
    if draw(st.integers(0, 9)) == 0:
        argv += [draw(st.sampled_from(ALL_FLAGS)), "0"]  # declared by this command or not
    return argv


@settings(max_examples=60, deadline=timedelta(seconds=3), suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cheap_argv())
def test_exit_code_contract(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = run_cli(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in capsys.readouterr().err
