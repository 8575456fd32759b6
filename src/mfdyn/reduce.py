"""Reduced density matrices and the closeness indicators.

Density matrices are mode-basis matrices with plain trace 1; the condensate
comparison uses the sqrt(dx)-scaled orbital mode vector.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalFailure
from .fock import ManyBodyState, annihilate_all
from .onebody import Orbital

HERM_TOL = 1e-10
TRACE_TOL = 1e-10


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian positive unit-trace operator on the k-particle mode space."""

    k: int
    mat: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=complex)
        if self.k not in (1, 2):
            raise ConfigError(f"only k in {{1, 2}} is supported, got {self.k}")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ConfigError("density matrix must be square")
        if np.max(np.abs(m - m.conj().T)) > HERM_TOL:
            raise NumericalFailure("density matrix is not Hermitian within tolerance")
        if abs(np.trace(m).real - 1.0) > TRACE_TOL:
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
    """gamma2[(x1,x2),(y1,y2)] = <a_y1^dag a_y2^dag a_x2 a_x1> / (N(N-1))."""
    N = psi.basis.particles
    if N < 2:
        raise ConfigError("gamma2 needs at least two particles")
    M = psi.basis.sites
    A, sub = annihilate_all(psi.amps, psi.basis)
    B, _ = annihilate_all(A, sub)  # B[x2, x1] = a_x1 a_x2 psi
    B = B.transpose(1, 0, 2).reshape(M * M, -1)
    return DensityMatrix(2, (B @ B.conj().T) / (N * (N - 1)))


def _condensate_vector(phi: Orbital, k: int) -> np.ndarray:
    u = phi.mode
    return u if k == 1 else np.kron(u, u)


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
