"""Reduced density matrices and the closeness indicators.

Density matrices are mode-basis matrices with plain trace 1; the condensate
comparison uses the sqrt(dx)-scaled orbital mode vector. The k-particle
matrix lives on the symmetric k-particle space `fock.k_basis(M, k)`, and
phi^(x)k is the product state of phi on that basis.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalFailure
from .fock import ManyBodyState, annihilate, k_basis, product_state
from .onebody import Orbital

HERM_TOL = 1e-10
TRACE_TOL = 1e-10


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian positive unit-trace operator on the k-particle mode space:
    C(M+k-1, k) square on the symmetric k-particle space `fock.k_basis(M, k)`
    (M x M for k = 1), which holds every bosonic k-particle state. Its
    embedding into (C^M)^(x)k through `checks.occupation_to_tensor_isometry`
    is the tensor-space matrix, with the same nonzero spectrum."""

    k: int
    mat: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=complex)
        if self.k < 1:
            raise ConfigError(f"a density matrix needs k >= 1 particles, got {self.k}")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ConfigError("density matrix must be square")
        # `not <=`, so that a NaN entry fails both checks
        if not np.max(np.abs(m - m.conj().T)) <= HERM_TOL:
            raise NumericalFailure("density matrix is not Hermitian within tolerance")
        if not abs(np.trace(m).real - 1.0) <= TRACE_TOL:
            raise NumericalFailure(f"density matrix trace {np.trace(m)} is not 1")
        object.__setattr__(self, "mat", m)


def gamma(psi: ManyBodyState, k: int) -> DensityMatrix:
    """<a_y1^dag ... a_yk^dag a_xk ... a_x1> / (N!/(N-k)!) on the symmetric
    k-particle space, 1 <= k <= N: one gather of every component of
    a_x1 ... a_xk Psi."""
    N = psi.basis.particles
    if not 1 <= k <= N:
        raise ConfigError(f"gamma{k} needs 1 <= k <= N, got N={N}")
    B, _ = annihilate(psi.amps, psi.basis, k)
    return DensityMatrix(k, (B @ B.conj().T) / math.perm(N, k))


def gamma1(psi: ManyBodyState) -> DensityMatrix:
    """gamma1[x, y] = <a_y^dag a_x> / N."""
    return gamma(psi, 1)


def gamma2(psi: ManyBodyState) -> DensityMatrix:
    """<a_y1^dag a_y2^dag a_x2 a_x1> / (N(N-1)) on the symmetric pair space."""
    return gamma(psi, 2)


def _condensate_vector_for(gamma: DensityMatrix, phi: Orbital) -> np.ndarray:
    """phi^(x)k for the k of `gamma`, checked against its mode space."""
    uk = product_state(phi, k_basis(phi.grid.sites, gamma.k)).amps
    if uk.shape[0] != gamma.mat.shape[0]:
        raise ConfigError("orbital dimension does not match the density matrix")
    return uk


def E_k(gamma: DensityMatrix, phi: Orbital) -> float:
    """1 - <phi^(x)k, gamma phi^(x)k>."""
    uk = _condensate_vector_for(gamma, phi)
    return float(1.0 - np.vdot(uk, gamma.mat @ uk).real)


def R_k(gamma: DensityMatrix, phi: Orbital) -> float:
    """Trace norm of gamma - |phi><phi|^(x)k."""
    uk = _condensate_vector_for(gamma, phi)
    diff = gamma.mat - uk[:, None] * uk.conj()  # np.outer's bytes, without its wrapper
    return float(np.sum(np.abs(np.linalg.eigvalsh(diff))))
