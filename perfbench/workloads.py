"""The benchmark's workloads: inputs, one repetition of fixed work, checks.

Every workload drives symphmc only through its public functions, looked up
as module attributes (``cli.main``, ``hmc.hmc_run``, ...) so that the tracer
in ``tracing.py`` sees each call.  A workload's inputs come from a variant
index, and the benchmark maps its ``--seed`` to that index (seed mod
``POOL``); the reference outputs in ``reference.json`` were recorded for
every variant, which is what lets a run check its outputs for any seed.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import re
import zlib

import numpy as np

from symphmc import catalog, cli, fourth_order, harmonic, hmc, splitting, targets, tuning

POOL = 8

# Tolerances of the tune-continuation checks.  The shipped-row values are
# deterministic closed computations; the Nelder-Mead optimum is not: a
# 3e-12 relative change of the objective (the accuracy ROADMAP asks of an
# exact rho maximum) moved the optimum by up to 1.4e-5 in (b, c, d) and in
# relative rho_norm, so the tuner is held to 1e-4 absolute in (b, c, d) and
# 1e-4 relative in rho_norm, finer than the 6 decimals of the shipped rows.
TABLE2_RHO_RTOL = 1e-12
TABLE2_STABILITY_ATOL = 1e-6
TUNER_PARAM_ATOL = 1e-4
TUNER_RHO_RTOL = 1e-4


def _rng(workload: str, variant: int) -> np.random.Generator:
    return np.random.default_rng([variant, zlib.crc32(workload.encode())])


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def _close(x: float, ref: float, rtol: float = 0.0, atol: float = 0.0) -> bool:
    return abs(x - ref) <= atol + rtol * abs(ref)


class GaussSweep:
    """`symphmc sweep` on the stiff diagonal Gaussian, four integrators."""

    name = "gauss-sweep"
    seeded = True
    sizes = {"full": {"dim": 4096, "samples": 1000}, "tiny": {"dim": 256, "samples": 50}}
    integrators = ("leapfrog", "blcasa", "proc-3.0", "proc-4.5")

    def setup(self, size: str, variant: int, out_dir: str) -> dict:
        cfg = dict(self.sizes[size])
        cfg["seed"] = int(_rng(self.name, variant).integers(1, 2**31))
        cfg["out_dir"] = out_dir
        # what `symphmc sweep` builds before its chains; the sweep builds its own
        for name in self.integrators:
            catalog.named_integrator(name)
        targets.gaussian_model(cfg["dim"])
        return cfg

    def run(self, ctx: dict) -> dict:
        out = {}
        for name in self.integrators:
            path = os.path.join(ctx["out_dir"], f"sweep-{name}.csv")
            argv = ["sweep", "--integrator", name, "--dim", str(ctx["dim"]),
                    "--samples", str(ctx["samples"]), "--seed", str(ctx["seed"]), "--out", path]
            with contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            with open(path, "rb") as fh:
                out[name] = {"exit": code, "csv_sha256": hashlib.sha256(fh.read()).hexdigest()}
        return out

    def check(self, out: dict, ref: dict) -> list:
        return [(f"sweep {name}", out[name] == ref[name]) for name in self.integrators]


class GenericSmall:
    """Flow-by-flow legs at d=100: HMC chains on the quartic target, then
    fourth-order legs with modified kicks (Hessian-vector products)."""

    name = "generic-small"
    seeded = True
    sizes = {
        "full": {"dim": 100, "samples": 1000, "rowlands_legs": 200},
        "tiny": {"dim": 10, "samples": 50, "rowlands_legs": 10},
    }
    chains = (("proc-3.0", 0.5), ("leapfrog", 0.25))
    rowlands_h = 0.1
    rowlands_steps = 50

    def setup(self, size: str, variant: int, out_dir: str) -> dict:
        cfg = dict(self.sizes[size])
        rng = _rng(self.name, variant)
        cfg["target"] = targets.anharmonic_model(cfg["dim"])
        cfg["chains"] = [
            (name, h, int(rng.integers(1, 2**31)), catalog.named_integrator(name)) for name, h in self.chains
        ]
        q, p = rng.standard_normal((2, cfg["rowlands_legs"], cfg["dim"]))
        cfg["states"] = [splitting.PhaseState(qi, pi) for qi, pi in zip(q, p)]
        return cfg

    def run(self, ctx: dict) -> dict:
        out = {}
        for name, h, seed, integ in ctx["chains"]:
            cfg = hmc.HmcConfig(h=h, n_samples=ctx["samples"], seed=seed, integrator=integ)
            _, stats = hmc.hmc_run(ctx["target"], cfg)
            out[name] = {"accepted": stats.accepted, "dh_sha256": _digest(stats.energy_errors)}
        target = ctx["target"].fresh()
        finals = [
            fourth_order.rowlands_leg(s, self.rowlands_h, self.rowlands_steps, target) for s in ctx["states"]
        ]
        out["rowlands"] = {
            "states_sha256": _digest(*(a for s in finals for a in (s.q, s.p))),
            "grad_evals": target.grad_evals,
            "hess_evals": target.hess_evals,
        }
        return out

    def check(self, out: dict, ref: dict) -> list:
        checks = []
        for name, _ in self.chains:
            checks.append((f"{name} accepted", out[name]["accepted"] == ref[name]["accepted"]))
            checks.append((f"{name} dH digest", out[name]["dh_sha256"] == ref[name]["dh_sha256"]))
        checks.append(("rowlands final states", out["rowlands"] == ref["rowlands"]))
        return checks


class GenericLarge:
    """Flow-by-flow legs at d=4096: the processed integrator forced off the
    per-mode fast path at a mid-grid step."""

    name = "generic-large"
    seeded = True
    sizes = {"full": {"dim": 4096, "legs": 4}, "tiny": {"dim": 256, "legs": 2}}
    integrator = "proc-3.0"
    grid_index = 6  # of the default 12-point grid; N = 7180 kernel steps at d=4096

    def setup(self, size: str, variant: int, out_dir: str) -> dict:
        cfg = dict(self.sizes[size])
        cfg["seed"] = int(_rng(self.name, variant).integers(1, 2**31))
        cfg["target"] = targets.gaussian_model(cfg["dim"])
        cfg["integ"] = catalog.named_integrator(self.integrator)
        cfg["h"] = cli.default_h_grid(self.integrator, cfg["dim"])[self.grid_index]
        return cfg

    def run(self, ctx: dict) -> dict:
        cfg = hmc.HmcConfig(h=ctx["h"], n_samples=ctx["legs"], seed=ctx["seed"], integrator=ctx["integ"])
        _, stats = hmc.hmc_run(ctx["target"], cfg, use_fast_path=False)
        return {"accepted": stats.accepted, "dh_sha256": _digest(stats.energy_errors)}

    def check(self, out: dict, ref: dict) -> list:
        return [
            ("accepted", out["accepted"] == ref["accepted"]),
            ("dH digest", out["dh_sha256"] == ref["dh_sha256"]),
        ]


class TuneContinuation:
    """The tuner's continuation over budgets (what scripts/retune_table2.py
    runs), then the `table2` check of the shipped rows.  Its inputs are the
    paper's and have nothing random in them, so every seed runs variant 0."""

    name = "tune-continuation"
    seeded = False
    sizes = {"full": {"budgets": [3.0, 3.5, 4.0, 4.5]}, "tiny": {"budgets": [3.0]}}
    seed_row = "proc-3.0"

    def setup(self, size: str, variant: int, out_dir: str) -> dict:
        cfg = dict(self.sizes[size])
        row = catalog.row_by_name(self.seed_row)
        cfg["init"] = (row.b, row.c, row.d)
        cfg["rows"] = [
            (row.name, row.hbar, splitting.processed_family(row.b, row.c or 0.0, row.d or 0.0))
            for row in catalog.REFERENCE_ROWS
        ]
        return cfg

    def run(self, ctx: dict) -> dict:
        results = tuning.continuation_sweep(ctx["budgets"], ctx["init"])
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["table2"])
        rows = [
            {
                "name": name,
                "rho_norm": harmonic.rho_norm(integ, hbar),
                "stability": harmonic.stability_length(integ.kernel),
            }
            for name, hbar, integ in ctx["rows"]
        ]
        return {
            "tuned": [
                {"hbar": r.hbar, "b": r.b, "c": r.c, "d": r.d, "rho_norm": r.rho_norm, "evaluations": len(r.trace)}
                for r in results
            ],
            "table2_exit": code,
            "table2_verdicts": [re.findall(r"\[(PASS|FAIL)\]", line) for line in buf.getvalue().splitlines()],
            "rows": rows,
        }

    def check(self, out: dict, ref: dict) -> list:
        checks = []
        for got, want in zip(out["tuned"], ref["tuned"]):
            params_ok = all(_close(got[k], want[k], atol=TUNER_PARAM_ATOL) for k in ("b", "c", "d"))
            checks.append((f"tune {want['hbar']} (b, c, d)", got["hbar"] == want["hbar"] and params_ok))
            checks.append((f"tune {want['hbar']} rho_norm", _close(got["rho_norm"], want["rho_norm"], rtol=TUNER_RHO_RTOL)))
        checks.append(("tune budgets", len(out["tuned"]) == len(ref["tuned"])))
        for got, want in zip(out["rows"], ref["rows"]):
            ok_rho = got["name"] == want["name"] and _close(got["rho_norm"], want["rho_norm"], rtol=TABLE2_RHO_RTOL)
            checks.append((f"table2 {want['name']} rho_norm", ok_rho))
            checks.append(
                (f"table2 {want['name']} stability", _close(got["stability"], want["stability"], atol=TABLE2_STABILITY_ATOL))
            )
        # table2 exits 1 by design: the bare blcasa row misses its rho bound
        checks.append(("table2 verdict", out["table2_exit"] == ref["table2_exit"]
                       and out["table2_verdicts"] == ref["table2_verdicts"]))
        return checks


WORKLOADS = {w.name: w for w in (GaussSweep(), GenericSmall(), GenericLarge(), TuneContinuation())}


def layer_probe(out_dir: str) -> None:
    """A few small calls into every layer.  A traced run times them after the
    workload, so that a layer the workload does not call still has a
    measured per-call time."""
    with contextlib.redirect_stderr(io.StringIO()):
        cli.main(["sweep", "--integrator", "proc-3.0", "--dim", "16", "--samples", "50", "--seed", "1",
                  "--out", os.path.join(out_dir, "probe.csv")])
    row = catalog.row_by_name("proc-3.0")
    tuning.tune(3.0, (row.b, row.c, row.d), restarts=0, max_iter=10)
    target = targets.anharmonic_model(16)
    cfg = hmc.HmcConfig(h=0.25, n_samples=20, seed=1, integrator=catalog.named_integrator("leapfrog"))
    hmc.hmc_run(target, cfg)
    fourth_order.rowlands_leg(splitting.PhaseState(np.full(16, 0.4), np.full(16, 0.3)), 0.1, 20, target)


def variant_of(workload, seed: int) -> int:
    return seed % POOL if workload.seeded else 0
