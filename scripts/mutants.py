#!/usr/bin/env python3
"""Mutation check of the tier-1 suite: every mutant in MUTANTS must be caught.

    python3 scripts/mutants.py

Each row of MUTANTS is (file, old text, new text, reason): a one- or
two-line change to the source that a correct test suite must notice.  The
script copies the checkout (without .git and caches) into a temporary
directory outside it, runs the tier-1 suite there once unmutated, which
must pass, and then once per row with that row's old text replaced by its
new text, with `pytest -x`, so a caught mutant stops at its first failure.
A mutant is caught when the suite fails or runs past TIMEOUT_S seconds.
Every row's old text must occur exactly once in its file; a row that no
longer applies, or an unmutated suite that fails, is an error (exit 2).
Prints one line per mutant and the survivors; exit status 1 when any mutant
survives.  Standard library only.  A full run takes about a minute per
mutant on two cores.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
TIMEOUT_S = 600.0

HMC, HARMONIC, SPLITTING = "src/symphmc/hmc.py", "src/symphmc/harmonic.py", "src/symphmc/splitting.py"
TARGETS, TUNING, CATALOG = "src/symphmc/targets.py", "src/symphmc/tuning.py", "src/symphmc/catalog.py"
CLI = "src/symphmc/cli.py"

MUTANTS = [
    (CATALOG, "KAPPA_GAMMA_1 = Fraction(55, 1728)", "KAPPA_GAMMA_1 = Fraction(56, 1728)",
     "a wrong fourth-order processor coefficient"),
    (HARMONIC, "return ((m12 < 0.0) & (m21 > 0.0)) | ((m12 > 0.0) & (m21 < 0.0))",
     "return ((m12 <= 0.0) & (m21 >= 0.0)) | ((m12 >= 0.0) & (m21 <= 0.0))",
     "the stability sign test reads a zero entry as stable"),
    (HARMONIC, "math.sqrt(lo + (hi - lo) / 3.0)", "math.sqrt(lo + (hi - lo) / 2.0)",
     "the stretch probe lands on the centre of a split double root"),
    (HARMONIC, "SCAN_STEP, STABILITY_TOL = 1e-3, 1e-6", "SCAN_STEP, STABILITY_TOL = 1e-3, 1e-4",
     "stability lengths bisected a hundred times more coarsely"),
    (HMC, "seed ^ i, integrator", "seed + i, integrator",
     "sweep chains seeded seed + i: the CSVs' streams change"),
    (TUNING, "xc = 1.5 * xbar - 0.5 * sim[-1]", "xc = 1.4 * xbar - 0.4 * sim[-1]",
     "an outside contraction off SciPy's 1/2"),
    (TUNING, "size *= 0.1", "size *= 0.2",
     "restart simplices shrink fivefold, not tenfold"),
    (CATALOG, 'ReferenceRow("proc-3.0", 3.0, 0.348674,', 'ReferenceRow("proc-3.0", 3.0, 0.348774,',
     "proc-3.0's shipped b moved by 1e-4"),
    (HARMONIC, "value = 2.0 * cross * cross + 0.5 * spread * spread",
     "value = (2.0 * cross * cross + 0.5 * spread * spread) * (1.0 + 1e-9)",
     "rho scaled by 1 + 1e-9"),
    (TARGETS, "0.25 * q**4", "0.2501 * q**4",
     "the quartic potential disagrees with its gradient"),
    (TARGETS, "(1.0 + 3.0 * q * q) * v", "(1.0 + 3.1 * q * q) * v",
     "the quartic Hessian-vector product disagrees with the gradient"),
    (HMC, "p = rng.standard_normal(d)", "p = 1.05 * rng.standard_normal(d)",
     "momenta drawn with variance 1.1025: the wrong kinetic law"),
    (HMC, "                q = proposal\n                accepted += 1\n",
     "                accepted += 1\n            q = proposal\n",
     "a rejected proposal is kept"),
    (TARGETS, "rng.standard_normal(self.dim) / self.frequencies", "rng.standard_normal(self.dim) / self.precisions",
     "exact samples with the wrong variances"),
    (HMC, "q0 = target.exact_sample(rng) if gaussian", "q0 = 3.0 * target.exact_sample(rng) if gaussian",
     "a Gaussian chain starts at 3x an exact sample"),
    (HMC, "return 0.5 * (q1 @ q1 + p1 @ p1) - h_current, q1",
     "return 0.5 * (q1 @ q1 + p1 @ p1) - h_current, q1 * (1.0 + 1e-3)",
     "the fast path proposes a point its dH does not describe"),
    (HMC, "if float(np.log(u)) < -delta:", "if float(np.log(u)) < -0.9 * delta:",
     "accepts with probability exp(-0.9 dH): breaks detailed balance"),
    (HMC, "return max(1, round(self.leg_time / self.h))", "return max(1, int(self.leg_time / self.h))",
     "leg_time/h truncated, not rounded, to a step count"),
    (SPLITTING, "return miss <= CONSISTENCY_TOL or", "return miss <= 1e-6 or",
     "consistency sums held to 1e-6, not 1e-14"),
    (HMC, "q0 = target.exact_sample(rng) if gaussian", "q0 = 1.05 * target.exact_sample(rng) if gaussian",
     "a Gaussian chain starts 5% off an exact sample"),
    (HMC, "leg_gradient_count(cfg.integrator, cfg.n_steps) * cfg.n_samples",
     "leg_gradient_count(cfg.integrator, cfg.n_steps) * (cfg.n_samples - 1)",
     "a chain bills one leg too few"),
    (TUNING, "for _ in range(1, max_iter):", "for _ in range(max_iter):",
     "the simplex runs one iteration past SciPy's cap"),
    (CLI, "results = continuation_sweep(opts[\"h\"], seed_params)",
     "results = [continuation_sweep([h], seed_params)[0] for h in opts[\"h\"]]",
     "tune seeds every budget from the row, not from the previous optimum"),
    (CLI, "leg_gradient_count(rowlands, n_cost)}", "leg_gradient_count(rowlands, n_cost - 1)}",
     "rowlands-order's cost line bills a leg one step short"),
    (CATALOG, "return 0.98 * VERLET_STABILITY", "return 0.97 * VERLET_STABILITY",
     "rho-scan's default leapfrog budget at 0.97 of the stability length"),
    (SPLITTING, "if not (h > 0.0 and math.isfinite(h)):", "if not (h >= 0.0 and math.isfinite(h)):",
     "integrate_leg accepts a zero step"),
    (CLI, "os.path.isdir(folder) and os.access(", "os.path.isdir(folder) or os.access(",
     "--out accepts any existing directory, writable or not"),
    (SPLITTING, "if q.ndim != 1 or p.ndim != 1:", "if q.ndim != 1 and p.ndim != 1:",
     "PhaseState takes a one-dimensional q with a two-dimensional p"),
    (SPLITTING, '                    raise _wrong_shape(target, "gradient", grad, q)\n', "                    pass\n",
     "a gradient of the wrong shape is broadcast into q"),
    (HARMONIC, "lo, hi = float(hs[i]), float(hs[i + 1])", "lo, hi = float(hs[i - 1]), float(hs[i])",
     "the stability bisection starts one grid point below the crossing"),
    (HARMONIC, "n = integ.kernel_steps(n_steps)", "n = n_steps",
     "the fast path's leg map runs N kernel steps where a folded leg runs N - 2"),
    (SPLITTING, "if not (type(self.coefficient) is type(self.b_mod) is type(self.c_mod) is float):", "if False:",
     "a flow keeps an int, numpy or Fraction weight instead of its float"),
    (SPLITTING, 'raise ValueError("kernel kick weights must sum to 1")', "pass",
     "a kernel whose kick weights miss 1 builds"),
    (CLI, 'raise ValueError("this command takes a single --h value")', "pass",
     "a single-step command runs the first of several --h values"),
    (CLI, 'raise ValueError(f"cannot write {out!r}: {exc}") from exc', "pass",
     "a failed --out write exits 0"),
    (TARGETS, "    def _potential(self, q: np.ndarray) -> float:\n        raise NotImplementedError\n",
     "    def _potential(self, q: np.ndarray) -> float:\n        return 0.0\n",
     "the base class's potential reads 0 instead of raising"),
    (TARGETS, "    def _gradient(self, q: np.ndarray) -> np.ndarray:\n        raise NotImplementedError\n",
     "    def _gradient(self, q: np.ndarray) -> np.ndarray:\n        return np.zeros_like(q)\n",
     "the base class's gradient reads 0 instead of raising"),
    (TUNING, "        except DegenerateParameter:\n            value = math.inf\n",
     "        except DegenerateParameter:\n            value = 0.0\n",
     "a simplex vertex on 6b - 1 = 0 reads 0, not inf"),
]


def _apply(tree: Path, row: tuple) -> str:
    """Write the row's mutant into tree; return the file's original text."""
    path, old, new, _ = row
    text = (tree / path).read_text()
    (tree / path).write_text(text.replace(old, new))
    return text


def _tier1(tree: Path) -> tuple[bool, float]:
    """Run tier-1 in tree; (passed, seconds).  A timeout counts as a failure."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env, timeout=TIMEOUT_S,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        passed = done.returncode == 0
    except subprocess.TimeoutExpired:
        passed = False
    return passed, time.perf_counter() - start


def main() -> int:
    stale = [i for i, (path, old, _, _) in enumerate(MUTANTS) if (ROOT / path).read_text().count(old) != 1]
    for i in stale:
        print(f"row {i}: old text does not occur exactly once in {MUTANTS[i][0]}", file=sys.stderr)
    if stale:
        return 2

    with tempfile.TemporaryDirectory(prefix="symphmc-mutants-") as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info", ".perfbench_out"))
        passed, seconds = _tier1(tree)
        print(f"unmutated: {'passed' if passed else 'FAILED'} in {seconds:.0f} s", flush=True)
        if not passed:
            return 2
        survivors = []
        for i, row in enumerate(MUTANTS):
            original = _apply(tree, row)
            try:
                passed, seconds = _tier1(tree)
            finally:
                (tree / row[0]).write_text(original)
            if passed:
                survivors.append(i)
            print(f"{i:2d} {'SURVIVED' if passed else 'caught  '} {seconds:5.0f} s  {row[3]}", flush=True)
    print(f"{len(survivors)} of {len(MUTANTS)} mutants survived" + (f": rows {survivors}" if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
