"""HMC chain driver with Metropolis correction and gradient-cost accounting.

Each iteration refreshes the momentum, integrates one leg, and accepts the
proposal with probability min(1, exp(-dH)); on rejection the position is
retained.  Everything is driven by a single seeded generator per chain, so
runs are bit-reproducible and independent chains (one per step size in a
sweep) use independent streams derived from the base seed.

For the diagonal Gaussian benchmark the leg map factors into independent
2x2 mode maps, which lets a chain run in O(d) per leg after an O(d log N)
set-up per chain, instead of O(N d) per leg; this fast path is used
automatically for every integrator on Gaussian targets (a drift and every
kick are exact shears there) and is cross-checked against the generic
flow-by-flow execution in the test suite.  The two paths differ only in
their set-up and their proposal; both run the same Metropolis loop.  A
chain's one record, also a sweep's row, is its ChainStats: the config, the
accepted count, the energy errors and the evaluations used, each
Hessian-vector product billed as one gradient; its rates derive from these.
A sweep chain keeps no positions, so it holds O(d + n) memory, not O(n d).
Only a sweep with more than one worker loads multiprocessing, for its process
pool, whose size the CLI caps at the CPUs this process may run on.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InsufficientSteps, NonFiniteState
from .harmonic import schedule_matrix
from .splitting import PhaseState, ProcessedIntegrator, integrate_leg, leg_gradient_count, whole
from .targets import GaussianModel, TargetModel


@dataclass(frozen=True)
class HmcConfig:
    """One chain's settings, checked before any chain runs: h and leg_time
    positive and finite, n_samples >= 1 and seed >= 0 integers (a float or a
    bool is a TypeError), and h must round the leg to enough steps."""

    h: float
    n_samples: int
    seed: int
    integrator: ProcessedIntegrator
    leg_time: float = 5.0

    def __post_init__(self) -> None:
        if not (self.h > 0.0 and math.isfinite(self.h)):
            raise ValueError("h must be positive and finite")
        if not (self.leg_time > 0.0 and math.isfinite(self.leg_time)):
            raise ValueError("leg_time must be positive and finite")
        whole(self.n_samples, "n_samples", 1)
        whole(self.seed, "seed", 0)
        try:
            self.integrator.kernel_steps(self.n_steps)
        except InsufficientSteps as exc:
            raise InsufficientSteps(f"h={self.h!r} gives N={self.n_steps} steps per leg; {exc}") from None

    @property
    def n_steps(self) -> int:
        """Steps per leg; the leg spans n_steps * h close to leg_time."""
        return max(1, round(self.leg_time / self.h))


@dataclass(frozen=True, eq=False)
class ChainStats:
    """What one chain observed; its rates are derived from these counts."""

    cfg: HmcConfig
    accepted: int
    grad_evals: int
    energy_errors: np.ndarray

    @property
    def proposed(self) -> int:
        return self.cfg.n_samples

    @property
    def seed(self) -> int:
        return self.cfg.seed

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.proposed

    @property
    def grad_per_leg(self) -> float:
        return self.grad_evals / self.proposed

    @property
    def accept_per_grad(self) -> float:
        # acceptance enters as a percentage, matching the efficiency metric
        return (100.0 * self.acceptance_rate) / self.grad_per_leg


def energy(target: TargetModel, state: PhaseState) -> float:
    """H = (1/2) p^T p + V(q)."""
    kinetic = 0.5 * float(np.dot(state.p, state.p))
    return kinetic + target.potential(state.q)


def hmc_run(
    target: TargetModel,
    cfg: HmcConfig,
    use_fast_path: bool = True,
    *,
    positions: bool = True,
) -> tuple[np.ndarray | None, ChainStats]:
    """Run one chain of cfg.n_samples iterations.

    Momentum refreshment draws standard normals (unit mass matrix).  Returns
    the positions after each iteration (shape (n_samples, dim)) and the
    chain statistics.  With positions=False no positions are stored and the
    first item is None; the statistics are the same.  A leg that leaves the
    floating-point range is treated as dH = +inf (certain rejection), never
    a crash.  Fully deterministic given (target, cfg).  The per-mode fast
    path runs whenever the target is a GaussianModel, unless use_fast_path=False.
    """
    tgt = target.fresh()
    gaussian = isinstance(tgt, GaussianModel)
    rng = np.random.default_rng(cfg.seed)
    q0 = tgt.exact_sample(rng) if gaussian else np.zeros(tgt.dim)
    if use_fast_path and gaussian:
        return _run_fast(tgt, cfg, rng, q0, positions)
    return _run_generic(tgt, cfg, rng, q0, positions)


def _metropolis(propose, q0: np.ndarray, n: int, rng: np.random.Generator, positions: bool):
    """The accept/reject loop shared by both paths.

    propose(q, p) returns (dH, proposed position); a non-finite dH counts as
    +inf.  Returns the positions after each iteration (None unless
    positions), the dH values and the number of accepted proposals.
    """
    d = q0.shape[0]
    samples = np.empty((n, d)) if positions else None
    dh = np.empty(n)
    accepted = 0
    q = q0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for m in range(n):
            p = rng.standard_normal(d)
            u = rng.random()
            delta, proposal = propose(q, p)
            if not math.isfinite(delta):
                delta = math.inf
            dh[m] = delta
            if float(np.log(u)) < -delta:
                q = proposal
                accepted += 1
            if positions:
                samples[m] = q
    return samples, dh, accepted


def _run_generic(tgt: TargetModel, cfg: HmcConfig, rng: np.random.Generator, q0: np.ndarray, positions: bool):
    integ, n_steps = cfg.integrator, cfg.n_steps

    def propose(q: np.ndarray, p: np.ndarray):
        state = PhaseState(q, p)
        h_current = energy(tgt, state)
        try:
            proposal = integrate_leg(state, cfg.h, n_steps, integ, tgt)
        except NonFiniteState:
            return math.inf, q
        return energy(tgt, proposal) - h_current, proposal.q

    samples, dh, accepted = _metropolis(propose, q0, cfg.n_samples, rng, positions)
    return samples, ChainStats(cfg, accepted, tgt.grad_evals + tgt.hess_evals, dh)


def _run_fast(tgt: GaussianModel, cfg: HmcConfig, rng: np.random.Generator, q0: np.ndarray, positions: bool):
    integ, n_steps = cfg.integrator, cfg.n_steps
    x = cfg.h * tgt.frequencies  # per-mode step on the unit oscillator

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        kernel_n = schedule_matrix(integ.kernel, x).power(integ.kernel_steps(n_steps))
        pre = schedule_matrix(integ.pre, x)
        post = schedule_matrix(integ.post, x)
        l11, l12, l21, l22 = post @ (kernel_n @ pre)
    grad_per_leg = leg_gradient_count(integ, n_steps)

    def propose(q: np.ndarray, p: np.ndarray):
        h_current = 0.5 * (q @ q + p @ p)
        q1 = l11 * q + l12 * p
        p1 = l21 * q + l22 * p
        return 0.5 * (q1 @ q1 + p1 @ p1) - h_current, q1

    # scaled coordinates: each mode is a unit oscillator
    samples, dh, accepted = _metropolis(propose, tgt.frequencies * q0, cfg.n_samples, rng, positions)
    if positions:
        samples /= tgt.frequencies
    return samples, ChainStats(cfg, accepted, grad_per_leg * cfg.n_samples, dh)


def _chain_stats(job) -> ChainStats:
    return hmc_run(*job, positions=False)[1]


def efficiency_curve(
    target: TargetModel,
    h_list: Sequence[float],
    integrator: ProcessedIntegrator,
    n_samples: int,
    seed: int,
    leg_time: float = HmcConfig.leg_time,
    workers: int = 1,
) -> list[ChainStats]:
    """Each chain's ChainStats, one chain per step size, chain i seeded with
    seed ^ i; every config is built before any chain runs.  Results are
    bit-identical for any worker count because every chain owns its stream.
    Chains keep no positions, so each holds O(d + n) memory.
    """
    seed = whole(seed, "seed", 0)  # checked before `seed ^ i` turns a bool into an int
    jobs = [(target, HmcConfig(float(h), n_samples, seed ^ i, integrator, leg_time)) for i, h in enumerate(h_list)]
    if workers > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing only for a pool
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            return list(pool.map(_chain_stats, jobs))
    return [_chain_stats(job) for job in jobs]
