"""Projector-weight distribution w_k = <Psi, P_k Psi> and the functionals
alpha = <Psi, m(dGamma(q)/...)> and beta, computed from moments of the
excitation-number operator dGamma(q).

dGamma(q) with q a projector has spectrum in {0, ..., N}, so the weights
solve an (N+1)-node Vandermonde system with known integer nodes (N products
with dGamma(q)). An independent factorial-moment route cross-checks every
call: one chain of N products gives nu_m = <Psi, dGamma(q) (dGamma(q) - 1)
... (dGamma(q) - m + 1) Psi> = sum_k w_k k!/(k - m)!, a triangular system
that inverts exactly.
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
    v, mu = amps, [np.real(np.vdot(amps, amps))]
    for _ in range(N):
        v = A @ v
        mu.append(np.real(np.vdot(amps, v)))
    nodes = np.arange(N + 1, dtype=float)
    V = nodes[None, :] ** np.arange(N + 1)[:, None]  # 0.0**0 is 1.0
    return np.linalg.solve(V, np.array(mu))


def factorial_moment_weights(A, amps: np.ndarray, N: int) -> np.ndarray:
    """Weights from the factorial moments
    nu_m = <Psi, A (A - 1) ... (A - m + 1) Psi> = sum_k w_k k!/(k - m)!,
    inverted exactly:

        w_k = sum_{m >= k} (-1)^(m - k) nu_m / (k! (m - k)!).

    One chain of N products with A."""
    v, nu = amps, [np.real(np.vdot(amps, amps))]
    for m in range(N):
        v = A @ v - m * v
        nu.append(np.real(np.vdot(amps, v)))
    return np.array([
        sum((-1) ** (m - k) * nu[m] / (math.factorial(k) * math.factorial(m - k))
            for m in range(k, N + 1))
        for k in range(N + 1)
    ])


def occupation_weights(psi: ManyBodyState, phi: Orbital) -> WeightDistribution:
    """Weights from moments of dGamma(q), q = 1 - |phi><phi|, cross-checked
    by the factorial-moment route; 2N products with dGamma(q) in all."""
    N = psi.basis.particles
    if N > MAX_N:
        raise ConfigError(
            f"occupation weights are capped at N <= {MAX_N} for conditioning, got {N}"
        )
    _, q = condensate_projectors(phi)
    A = second_quantize_onebody(q, psi.basis)
    w_mom = moment_weights(A, psi.amps, N)
    w_fac = factorial_moment_weights(A, psi.amps, N)
    if np.max(np.abs(w_mom - w_fac)) > CROSS_CHECK_TOL:
        raise NumericalFailure(
            "moment and factorial-moment weight paths disagree by "
            f"{np.max(np.abs(w_mom - w_fac))}; N may be too large for this method"
        )
    return WeightDistribution(w_mom)


def alpha_of(wd: WeightDistribution) -> float:
    """sum_k (k/N) w_k = <Psi, q_1 Psi> = E^(1)."""
    return float(weight_function_m(wd.n_particles) @ wd.weights)


def pair_depletion_of(wd: WeightDistribution) -> float:
    """1 - sum_k C(N-k,2)/C(N,2) w_k = E^(2), for N >= 2: the share of
    particle pairs not both in phi."""
    N = wd.n_particles
    pairs = np.array([math.comb(N - k, 2) for k in range(N + 1)]) / math.comb(N, 2)
    return float(1.0 - pairs @ wd.weights)


def beta_of(wd: WeightDistribution) -> float:
    """sum_k sqrt(k/N) w_k; alpha <= beta <= sqrt(alpha)."""
    return float(weight_function_n(wd.n_particles) @ wd.weights)
