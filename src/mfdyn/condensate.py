"""Projector-weight distribution w_k = <Psi, P_k Psi> and the functionals
alpha = <Psi, m(dGamma(q)/...)> and beta, computed from moments of the
excitation-number operator dGamma(q).

dGamma(q) with q a projector has spectrum in {0, ..., N}, so the weights
solve an (N+1)-node Vandermonde system with known integer nodes (N products
with dGamma(q)). An independent Lagrange filter-polynomial route cross-checks
every call: since dGamma(q) is Hermitian, each filter polynomial splits into
the factors below and above k, and one prefix chain and one suffix chain of
N products each give every w_k as an inner product.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalFailure
from .fock import ManyBodyState, second_quantize_onebody
from .onebody import Orbital, condensate_projectors

WEIGHT_SUM_TOL = 1e-8
WEIGHT_NEG_TOL = 1e-7
CROSS_CHECK_TOL = 1e-6
MAX_N = 9


@dataclass(frozen=True)
class WeightDistribution:
    """(w_0, ..., w_N): spectral weights of Psi on the P_k sectors."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise NumericalFailure(f"weights sum to {w.sum()}, not 1")
        if w.min() < -WEIGHT_NEG_TOL:
            raise NumericalFailure(
                f"weight {w.min()} is negative beyond the roundoff allowance"
            )
        object.__setattr__(self, "weights", np.clip(w, 0.0, None))

    @property
    def n_particles(self) -> int:
        return self.weights.shape[0] - 1


def weight_function_m(N: int) -> np.ndarray:
    return np.arange(N + 1) / N


def weight_function_n(N: int) -> np.ndarray:
    return np.sqrt(np.arange(N + 1) / N)


def moment_weights(A, amps: np.ndarray, N: int) -> np.ndarray:
    """Weights from the moments mu_j = <Psi, A^j Psi>, j = 0..N: the
    (N+1)-node Vandermonde system with nodes 0..N (N products with A)."""
    vecs = [amps]
    for _ in range(N):
        vecs.append(A @ vecs[-1])
    mu = np.array([np.real(np.vdot(amps, v)) for v in vecs])
    nodes = np.arange(N + 1, dtype=float)
    V = nodes[None, :] ** np.arange(N + 1)[:, None]
    V[0] = 1.0  # 0^0 = 1
    return np.linalg.solve(V, mu)


def lagrange_weights(A, amps: np.ndarray, N: int) -> np.ndarray:
    """Weights from the Lagrange filter polynomials, split through the
    Hermiticity of A:

        w_k = <prod_{l<k} (A - l) Psi, prod_{l>k} (A - l) Psi> / prod_{l != k} (k - l).

    One prefix chain and one suffix chain of N products with A each."""
    prefix = [amps]  # prefix[k] = prod_{l<k} (A - l) Psi
    for l in range(N):
        prefix.append(A @ prefix[-1] - l * prefix[-1])
    w = np.empty(N + 1)
    suffix = amps  # prod_{l>k} (A - l) Psi, from k = N down
    for k in range(N, -1, -1):
        denom = (-1) ** (N - k) * math.factorial(k) * math.factorial(N - k)
        w[k] = np.real(np.vdot(prefix[k], suffix)) / denom
        if k > 0:
            suffix = A @ suffix - k * suffix
    return w


def occupation_weights(psi: ManyBodyState, phi: Orbital) -> WeightDistribution:
    """Weights from moments of dGamma(q), q = 1 - |phi><phi|, cross-checked
    by the split Lagrange route; 3N products with dGamma(q) in all."""
    N = psi.basis.particles
    if N > MAX_N:
        raise ConfigError(
            f"occupation weights are capped at N <= {MAX_N} for conditioning, got {N}"
        )
    _, q = condensate_projectors(phi)
    A = second_quantize_onebody(q, psi.basis)
    w_mom = moment_weights(A, psi.amps, N)
    w_lag = lagrange_weights(A, psi.amps, N)
    if np.max(np.abs(w_mom - w_lag)) > CROSS_CHECK_TOL:
        raise NumericalFailure(
            "moment and Lagrange weight paths disagree by "
            f"{np.max(np.abs(w_mom - w_lag))}; N may be too large for this method"
        )
    return WeightDistribution(w_mom)


def alpha_of(wd: WeightDistribution) -> float:
    """sum_k (k/N) w_k = <Psi, q_1 Psi> = E^(1)."""
    return float(weight_function_m(wd.n_particles) @ wd.weights)


def beta_of(wd: WeightDistribution) -> float:
    """sum_k sqrt(k/N) w_k; alpha <= beta <= sqrt(alpha)."""
    return float(weight_function_n(wd.n_particles) @ wd.weights)
