"""Unitary time evolution of a many-body state and expectation values."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, NumericalFailure
from .fock import ManyBodyState

DENSE_EIG_CAP = 3000
KRYLOV_MAXDIM = 40
UNITARITY_TOL = 1e-8


@dataclass(frozen=True)
class PropagatorConfig:
    dt: float
    steps: int
    method: str = "krylov"  # "krylov" | "dense"
    krylov_tol: float = 1e-10

    def __post_init__(self):
        if not self.dt > 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if self.steps < 0:
            raise ConfigError(f"steps must be nonnegative, got {self.steps}")
        if self.method not in ("krylov", "dense"):
            raise ConfigError(f"unknown propagator method {self.method!r}")


def expectation(psi: ManyBodyState, A) -> complex:
    """<psi, A psi> for a sparse or dense operator on the same basis."""
    if A.shape != (psi.basis.dim, psi.basis.dim):
        raise ConfigError("operator and state dimensions do not match")
    return complex(np.vdot(psi.amps, A @ psi.amps))


def lanczos_expm_apply(H, v: np.ndarray, dt: float, maxdim: int, tol: float) -> np.ndarray:
    """exp(-i dt H) v for Hermitian H via an adaptive Lanczos subspace.

    The small exponential y = exp(-i dt T_j) e_1 comes from the
    eigendecomposition T_j = U diag(lam) U^T of the real symmetric
    tridiagonal Lanczos matrix: y = U (exp(-i dt lam) * U[0]). Using numpy's
    eigh keeps the step loop inside numpy's BLAS; calling into scipy's
    separate OpenBLAS pool from the same loop slows every small BLAS call.

    Stops when the standard residual estimate beta_{j+1} |y_j| drops below
    tol, or on happy breakdown; raises if maxdim is reached unconverged.
    """
    nrm = np.linalg.norm(v)
    if nrm == 0:
        return v.copy()
    V = np.empty((maxdim, v.shape[0]), dtype=complex)
    T = np.zeros((maxdim, maxdim))  # tridiagonal Lanczos matrix, filled in place
    V[0] = v / nrm
    w = H @ V[0]
    T[0, 0] = np.real(np.vdot(V[0], w))
    w = w - T[0, 0] * V[0]
    for j in range(1, maxdim + 1):
        b = np.linalg.norm(w)
        lam, U = np.linalg.eigh(T[:j, :j])
        y = U @ (np.exp(-1j * dt * lam) * U[0])
        if b < 1e-14 or b * abs(y[-1]) * abs(dt) < tol:
            return nrm * (y @ V[:j])
        if j == maxdim:
            break
        T[j - 1, j] = T[j, j - 1] = b
        V[j] = w / b
        w = H @ V[j] - b * V[j - 1]
        T[j, j] = np.real(np.vdot(V[j], w))
        w = w - T[j, j] * V[j]
        # full reorthogonalization; cheap at desk-scale subspace sizes
        w = w - (V[: j + 1].conj() @ w) @ V[: j + 1]
    raise NumericalFailure(
        f"Lanczos exponential did not converge within maxdim={maxdim}"
    )


class DenseEigPropagator:
    """Exact propagation from a one-time dense eigendecomposition."""

    def __init__(self, H):
        dim = H.shape[0]
        if dim > DENSE_EIG_CAP:
            raise ConfigError(
                f"dense method allowed only for dim <= {DENSE_EIG_CAP}, got {dim}"
            )
        Hd = H.toarray() if sp.issparse(H) else np.asarray(H)
        self.evals, self.evecs = np.linalg.eigh(Hd)

    def apply(self, v: np.ndarray, dt: float) -> np.ndarray:
        c = self.evecs.conj().T @ v
        return self.evecs @ (np.exp(-1j * dt * self.evals) * c)


class NBodyStepper:
    """One exp(-i dt H) step, method per PropagatorConfig."""

    def __init__(self, H, cfg: PropagatorConfig):
        self.H = H
        self.cfg = cfg
        self._dense = DenseEigPropagator(H) if cfg.method == "dense" else None

    def step(self, amps: np.ndarray) -> np.ndarray:
        if self._dense is not None:
            out = self._dense.apply(amps, self.cfg.dt)
        else:
            out = lanczos_expm_apply(
                self.H, amps, self.cfg.dt, KRYLOV_MAXDIM, self.cfg.krylov_tol
            )
        if not np.all(np.isfinite(out)):
            raise NumericalFailure("propagation produced nonfinite amplitudes")
        if abs(np.linalg.norm(out) - 1.0) > UNITARITY_TOL:
            raise NumericalFailure(
                f"norm drifted to {np.linalg.norm(out)} beyond the unitarity tolerance"
            )
        return out
