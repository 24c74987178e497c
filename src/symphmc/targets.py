"""Target distributions: potential, gradient, optional Hessian-vector product.

Each model owns its evaluation counters so the cost of pre/postprocessing and
every kick is captured at one choke point; potential-only calls never touch
the gradient counter.
"""
from __future__ import annotations

import copy

import numpy as np

from .splitting import whole


class TargetModel:
    """Base class for targets proportional to exp(-V(q)).

    The dimension is an integer >= 1, numpy integers included; a float or a
    bool is a TypeError, never truncated.  The mass matrix is the identity:
    the momentum refresh draws from N(0, I) and the kinetic energy is
    p^T p / 2.

    Subclasses implement ``_potential`` and ``_gradient``.  Modified kicks
    (the ``rowlands`` scheme) also need ``_hessian_vec``; the base hook
    raises NotImplementedError, and drift/kick integrators never call it.

    The leg executor never writes into an array that ``gradient`` or
    ``hessian_vec`` returns, so a hook may return its argument itself.  It
    does move its ``q`` in place between calls, so a target must not keep a
    reference to the ``q`` it was given.
    """

    def __init__(self, dim: int):
        self.dim = whole(dim, "dimension", 1)
        self.grad_evals = 0
        self.hess_evals = 0

    # -- capabilities -------------------------------------------------------

    def potential(self, q: np.ndarray) -> float:
        return self._potential(np.asarray(q, dtype=float))

    def gradient(self, q: np.ndarray) -> np.ndarray:
        self.grad_evals += 1
        return self._gradient(np.asarray(q, dtype=float))

    def hessian_vec(self, q: np.ndarray, v: np.ndarray) -> np.ndarray:
        self.hess_evals += 1
        return self._hessian_vec(np.asarray(q, dtype=float), np.asarray(v, dtype=float))

    def fresh(self) -> "TargetModel":
        """Copy with zeroed counters; each chain owns its own instance."""
        other = copy.copy(self)
        other.grad_evals = 0
        other.hess_evals = 0
        return other

    # -- implementation hooks ------------------------------------------------

    def _potential(self, q: np.ndarray) -> float:
        raise NotImplementedError

    def _gradient(self, q: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _hessian_vec(self, q: np.ndarray, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError(f"{type(self).__name__} has no _hessian_vec, which modified kicks (rowlands) need")


class GaussianModel(TargetModel):
    """Diagonal Gaussian benchmark: V(q) = (1/2) sum_j j^2 q_j^2.

    Mode j is a harmonic oscillator of frequency j, so a step h acts on mode
    j like a step h*j on the unit oscillator; the stiffest mode governs
    stability.
    """

    def __init__(self, dim: int):
        super().__init__(dim)
        self.frequencies = np.arange(1, self.dim + 1, dtype=float)
        self.precisions = self.frequencies**2

    def _potential(self, q: np.ndarray) -> float:
        return 0.5 * float(np.dot(self.precisions, q * q))

    def _gradient(self, q: np.ndarray) -> np.ndarray:
        return self.precisions * q

    def _hessian_vec(self, q: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self.precisions * v

    def exact_sample(self, rng: np.random.Generator) -> np.ndarray:
        return rng.standard_normal(self.dim) / self.frequencies


class AnharmonicModel(TargetModel):
    """Quartic test bed: V(q) = sum_j (q_j^2/2 + q_j^4/4)."""

    def _potential(self, q: np.ndarray) -> float:
        return float(np.sum(0.5 * q * q + 0.25 * q**4))

    def _gradient(self, q: np.ndarray) -> np.ndarray:
        return q + q**3

    def _hessian_vec(self, q: np.ndarray, v: np.ndarray) -> np.ndarray:
        return (1.0 + 3.0 * q * q) * v


def gaussian_model(dim: int) -> GaussianModel:
    return GaussianModel(dim)


def anharmonic_model(dim: int) -> AnharmonicModel:
    return AnharmonicModel(dim)
