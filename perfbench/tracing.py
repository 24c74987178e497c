"""In-memory spans around symphmc's public functions, and the per-layer
metrics derived from them.

A span is (name, start, end, parent) in four flat arrays.  Each function is
wrapped at every module attribute its callers look it up through: `hmc`
imports `leg_gradient_count` and `integrate_leg` by name, `tuning` imports
`rho_norm`, `cli` imports most of the library, and `TargetModel.gradient`
is reached through instances, so it is patched on the class.  A site that a
later version of symphmc no longer has is skipped, and its metrics read 0.
"""
from __future__ import annotations

import importlib
import inspect
import statistics
import time
from array import array

import numpy as np

# span name -> the (module, attribute) sites it is looked up through
SITES = {
    "cli.main": [("symphmc.cli", "main")],
    "cli.default_h_grid": [("symphmc.cli", "default_h_grid")],
    "harmonic.rho_norm": [("symphmc.harmonic", "rho_norm"), ("symphmc.tuning", "rho_norm"), ("symphmc.cli", "rho_norm")],
    "harmonic.rho": [("symphmc.harmonic", "rho"), ("symphmc.cli", "rho")],
    "harmonic.stability_length": [("symphmc.harmonic", "stability_length"), ("symphmc.cli", "stability_length")],
    "tuning.tune": [("symphmc.tuning", "tune"), ("symphmc.cli", "tune")],
    "tuning.evaluate": [("symphmc.tuning", "evaluate")],
    "hmc.hmc_run": [("symphmc.hmc", "hmc_run")],
    "hmc.fast": [("symphmc.hmc", "_run_fast")],
    "hmc.generic": [("symphmc.hmc", "_run_generic")],
    "splitting.leg_gradient_count": [("symphmc.splitting", "leg_gradient_count"), ("symphmc.hmc", "leg_gradient_count")],
    "splitting.integrate_leg": [("symphmc.splitting", "integrate_leg"), ("symphmc.hmc", "integrate_leg")],
    "targets.gradient": [("symphmc.targets", "TargetModel.gradient")],
    "targets.hessian_vec": [("symphmc.targets", "TargetModel.hessian_vec")],
    "fourth_order.rowlands_leg": [("symphmc.fourth_order", "rowlands_leg"), ("symphmc.cli", "rowlands_leg")],
}

# Per-layer metrics: name -> (unit, better).  Counts are per repetition of
# the workload and must repeat exactly; times are medians over repetitions.
PER_LAYER = {
    "setup.import_symphmc_s": ("s", "lower"),
    "setup.import_scipy_optimize_s": ("s", "lower"),
    "cli.sweep.self_s": ("s", "lower"),
    "cli.default_h_grid.calls": ("count", "lower"),
    "harmonic.rho_norm.calls": ("count", "lower"),
    "harmonic.rho_norm.us_per_call": ("us", "lower"),
    "harmonic.rho.calls": ("count", "lower"),
    "harmonic.stability_length.us_per_call": ("us", "lower"),
    "tuning.evaluate.calls": ("count", "lower"),
    "tuning.evaluate.us_per_call": ("us", "lower"),
    "tuning.optimizer_self_s": ("s", "lower"),
    "hmc.hmc_run.calls": ("count", "lower"),
    "hmc.fast.us_per_iter": ("us", "lower"),
    "hmc.generic.us_per_iter": ("us", "lower"),
    "hmc.accept_ratio": ("ratio", "higher"),
    "hmc.nonfinite_legs": ("count", "lower"),
    "splitting.leg_gradient_count.calls": ("count", "lower"),
    "splitting.leg_gradient_count.us_per_call": ("us", "lower"),
    "splitting.integrate_leg.us_per_call": ("us", "lower"),
    "splitting.flows_per_leg": ("count", "lower"),
    "splitting.ns_per_flow": ("ns", "lower"),
    "targets.grad_evals": ("count", "lower"),
    "targets.hess_evals": ("count", "lower"),
    "targets.gradient.us_per_call": ("us", "lower"),
    "targets.gradient_share": ("ratio", "higher"),
    "fourth_order.rowlands_leg.calls": ("count", "lower"),
    "fourth_order.rowlands_leg.us_per_call": ("us", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.traced_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "check.mismatch_frac": ("ratio", "lower"),
}

EXACT_COUNTS = (
    "cli.default_h_grid.calls",
    "harmonic.rho_norm.calls",
    "harmonic.rho.calls",
    "tuning.evaluate.calls",
    "hmc.hmc_run.calls",
    "splitting.leg_gradient_count.calls",
    "targets.grad_evals",
    "targets.hess_evals",
    "fourth_order.rowlands_leg.calls",
)


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    return owner, last


class Tracer:
    """Records spans while installed; `install`/`uninstall` patch and restore
    every site in SITES."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = {}
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, span_name: str, fn, observe):
        nid = self._name_id(span_name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter
        sig = inspect.signature(fn) if observe is not None else None
        sub = {}
        if span_name == "cli.main":
            # one span name per subcommand: cli.sweep, cli.table2, ...
            def name_of(args, kwargs):
                argv = args[0] if args else kwargs.get("argv")
                key = argv[0] if argv else ""
                if key not in sub:
                    sub[key] = self._name_id(f"cli.{key}")
                return sub[key]
        else:
            name_of = None

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_of(args, kwargs) if name_of else nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(sig.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def install(self) -> None:
        observers = {
            "hmc.hmc_run": self._observe_chain,
            "hmc.fast": self._observe_iterations("fast_iters"),
            "hmc.generic": self._observe_iterations("generic_iters"),
            "splitting.integrate_leg": self._observe_leg,
        }
        wrapped = {}
        for span_name, sites in SITES.items():
            for module, attr in sites:
                owner, last = _resolve(module, attr)
                fn = getattr(owner, last, None) if owner is not None else None
                if fn is None:
                    continue
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self._wrap(span_name, fn, observers.get(span_name))
                self._saved.append((owner, last, fn))
                setattr(owner, last, wrapped[id(fn)])

    def uninstall(self) -> None:
        for owner, last, fn in reversed(self._saved):
            setattr(owner, last, fn)
        self._saved.clear()

    def _count(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def _observe_chain(self, bound: dict, result) -> None:
        stats = result[1]
        self._count("accepted", stats.accepted)
        self._count("proposed", stats.proposed)
        self._count("nonfinite", int(np.count_nonzero(~np.isfinite(stats.energy_errors))))

    def _observe_iterations(self, key: str):
        def observe(bound: dict, result) -> None:
            self._count(key, bound["cfg"].n_samples)
        return observe

    def _observe_leg(self, bound: dict, result) -> None:
        """Flows a leg applies: zero-coefficient flows are skipped by the executor."""
        integ, n = bound["integ"], bound["n_steps"]

        def active(schedule) -> int:
            return sum(1 for f in schedule.flows if f.coefficient != 0.0)

        self._count("flows", active(integ.pre) + n * active(integ.kernel) + active(integ.post))

    def measure(self, fn, *args):
        """Call fn traced; return its result and the per-layer metrics of
        the spans and counts it produced."""
        lo = len(self.start)
        self.counters = counters = {}
        self.install()
        try:
            result = fn(*args)
        finally:
            self.uninstall()
        return result, self.rep_metrics(lo, len(self.start), counters)

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )

    def rep_metrics(self, lo: int, hi: int, counters: dict) -> dict:
        """Per-layer metrics of the spans [lo, hi) of one repetition."""
        name = np.frombuffer(self.name, dtype=np.int32)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi]
        dur = (np.frombuffer(self.end) - np.frombuffer(self.start))[lo:hi]
        ids = {n: i for i, n in enumerate(self.names)}

        def mask(n: str) -> np.ndarray:
            return name == ids.get(n, -1)

        def calls(n: str) -> int:
            return int(np.count_nonzero(mask(n)))

        def total(n: str) -> float:
            return float(dur[mask(n)].sum())

        def per(numerator: float, denominator: float, scale: float = 1.0) -> float:
            return scale * numerator / denominator if denominator else 0.0

        def under(child: str, parent_name: str) -> float:
            """Time of `child` spans whose direct parent is a `parent_name` span."""
            sel = mask(child) & (parent >= 0)
            idx = parent[sel] - lo
            return float(dur[sel][name[idx] == ids.get(parent_name, -1)].sum())

        c = counters.get
        return {
            "cli.sweep.self_s": total("cli.sweep") - under("hmc.hmc_run", "cli.sweep"),
            "cli.default_h_grid.calls": calls("cli.default_h_grid"),
            "harmonic.rho_norm.calls": calls("harmonic.rho_norm"),
            "harmonic.rho_norm.us_per_call": per(total("harmonic.rho_norm"), calls("harmonic.rho_norm"), 1e6),
            "harmonic.rho.calls": calls("harmonic.rho"),
            "harmonic.stability_length.us_per_call": per(
                total("harmonic.stability_length"), calls("harmonic.stability_length"), 1e6
            ),
            "tuning.evaluate.calls": calls("tuning.evaluate"),
            "tuning.evaluate.us_per_call": per(total("tuning.evaluate"), calls("tuning.evaluate"), 1e6),
            "tuning.optimizer_self_s": total("tuning.tune") - under("tuning.evaluate", "tuning.tune"),
            "hmc.hmc_run.calls": calls("hmc.hmc_run"),
            "hmc.fast.us_per_iter": per(total("hmc.fast"), c("fast_iters", 0), 1e6),
            "hmc.generic.us_per_iter": per(total("hmc.generic"), c("generic_iters", 0), 1e6),
            "hmc.accept_ratio": per(c("accepted", 0), c("proposed", 0)),
            "hmc.nonfinite_legs": int(c("nonfinite", 0)),
            "splitting.leg_gradient_count.calls": calls("splitting.leg_gradient_count"),
            "splitting.leg_gradient_count.us_per_call": per(
                total("splitting.leg_gradient_count"), calls("splitting.leg_gradient_count"), 1e6
            ),
            "splitting.integrate_leg.us_per_call": per(
                total("splitting.integrate_leg"), calls("splitting.integrate_leg"), 1e6
            ),
            "splitting.flows_per_leg": per(c("flows", 0), calls("splitting.integrate_leg")),
            "splitting.ns_per_flow": per(total("splitting.integrate_leg"), c("flows", 0), 1e9),
            "targets.grad_evals": calls("targets.gradient"),
            "targets.hess_evals": calls("targets.hessian_vec"),
            "targets.gradient.us_per_call": per(total("targets.gradient"), calls("targets.gradient"), 1e6),
            "targets.gradient_share": per(
                under("targets.gradient", "splitting.integrate_leg"), total("splitting.integrate_leg")
            ),
            "fourth_order.rowlands_leg.calls": calls("fourth_order.rowlands_leg"),
            "fourth_order.rowlands_leg.us_per_call": per(
                total("fourth_order.rowlands_leg"), calls("fourth_order.rowlands_leg"), 1e6
            ),
        }


def combine(reps: list[dict]) -> tuple[dict, bool]:
    """Exact counts of the first repetition and medians of the rest; also
    whether every exact count repeated."""
    repeat = all(r[k] == reps[0][k] for r in reps for k in EXACT_COUNTS)
    return {k: reps[0][k] if k in EXACT_COUNTS else statistics.median(r[k] for r in reps) for k in reps[0]}, repeat


def fill_unused_times(layers: dict, probe: dict) -> dict:
    """Times of layers the workload never called (exactly 0) taken from the
    layer probe; counts and ratios stay the workload's own."""
    return {
        k: probe[k] if v == 0 and PER_LAYER[k][0] in ("s", "us", "ns") else v
        for k, v in layers.items()
    }
