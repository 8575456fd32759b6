"""Reduced density matrices and the closeness indicators.

Density matrices are mode-basis matrices with plain trace 1; the condensate
comparison uses the sqrt(dx)-scaled orbital mode vector. The two-particle
matrix lives on the symmetric pair space of `fock.pair_modes`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalFailure
from .fock import ManyBodyState, annihilate_all, annihilate_pairs, pair_modes
from .onebody import Orbital

HERM_TOL = 1e-10
TRACE_TOL = 1e-10


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian positive unit-trace operator on the k-particle mode space:
    M x M for k = 1; for k = 2, M(M+1)/2 square on the symmetric pair space
    of `fock.pair_modes`, which holds every bosonic two-particle state. Its
    embedding into C^M (x) C^M through the pair isometry (`checks`) is the
    tensor-space matrix, with the same nonzero spectrum."""

    k: int
    mat: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=complex)
        if self.k not in (1, 2):
            raise ConfigError(f"only k in {{1, 2}} is supported, got {self.k}")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ConfigError("density matrix must be square")
        # `not <=`, so that a NaN entry fails both checks
        if not np.max(np.abs(m - m.conj().T)) <= HERM_TOL:
            raise NumericalFailure("density matrix is not Hermitian within tolerance")
        if not abs(np.trace(m).real - 1.0) <= TRACE_TOL:
            raise NumericalFailure(f"density matrix trace {np.trace(m)} is not 1")
        object.__setattr__(self, "mat", m)


def gamma1(psi: ManyBodyState) -> DensityMatrix:
    """gamma1[x, y] = <a_y^dag a_x> / N."""
    N = psi.basis.particles
    if N < 1:
        raise ConfigError("gamma1 needs at least one particle")
    A, _ = annihilate_all(psi.amps, psi.basis)
    return DensityMatrix(1, (A @ A.conj().T) / N)


def gamma2(psi: ManyBodyState) -> DensityMatrix:
    """<a_y1^dag a_y2^dag a_x2 a_x1> / (N(N-1)) on the symmetric pair space:
    one gather of every pair component of a_x a_y Psi."""
    N = psi.basis.particles
    if N < 2:
        raise ConfigError("gamma2 needs at least two particles")
    B, _ = annihilate_pairs(psi.amps, psi.basis)
    return DensityMatrix(2, (B @ B.conj().T) / (N * (N - 1)))


def _condensate_vector(phi: Orbital, k: int) -> np.ndarray:
    """phi^(x)k in the mode space of a k-particle density matrix."""
    u = phi.mode
    if k == 1:
        return u
    x, y, weight = pair_modes(phi.grid.sites)
    return weight * u[x] * u[y]


def E_k(gamma: DensityMatrix, phi: Orbital) -> float:
    """1 - <phi^(x)k, gamma phi^(x)k>."""
    uk = _condensate_vector(phi, gamma.k)
    if uk.shape[0] != gamma.mat.shape[0]:
        raise ConfigError("orbital dimension does not match the density matrix")
    return float(1.0 - np.real(np.vdot(uk, gamma.mat @ uk)))


def R_k(gamma: DensityMatrix, phi: Orbital) -> float:
    """Trace norm of gamma - |phi><phi|^(x)k."""
    uk = _condensate_vector(phi, gamma.k)
    if uk.shape[0] != gamma.mat.shape[0]:
        raise ConfigError("orbital dimension does not match the density matrix")
    diff = gamma.mat - np.outer(uk, uk.conj())
    return float(np.sum(np.abs(np.linalg.eigvalsh(diff))))
