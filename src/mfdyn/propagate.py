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
METHODS = ("krylov", "dense")  # NBodyStepper's routes; the first is the default


@dataclass(frozen=True)
class PropagatorConfig:
    dt: float
    steps: int
    method: str = METHODS[0]
    krylov_tol: float = 1e-10

    def __post_init__(self):
        if not self.dt > 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if self.steps < 0:
            raise ConfigError(f"steps must be nonnegative, got {self.steps}")
        if self.method not in METHODS:
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
    V = np.empty((maxdim, v.shape[0]), dtype=complex)
    return _lanczos_expm(H, v, dt, tol, V, np.zeros((maxdim, maxdim)))


def _lanczos_expm(H, v, dt, tol, V, T) -> np.ndarray:
    """`lanczos_expm_apply` with maxdim = len(V) in caller-owned workspace:
    V (maxdim, dim) complex for the Lanczos vectors, and T (maxdim, maxdim)
    real, zero off its tridiagonal band, which this fills in place. Every
    entry read is written first, so the workspace serves call after call."""
    nrm = np.linalg.norm(v)
    if nrm == 0:
        return v.copy()
    maxdim = V.shape[0]
    np.divide(v, nrm, out=V[0])
    w = H @ V[0]
    T[0, 0] = np.real(np.vdot(V[0], w))
    w -= T[0, 0] * V[0]
    for j in range(1, maxdim + 1):
        b = np.linalg.norm(w)
        if j == 1:
            y = np.exp(-1j * dt * T[:1, 0])
        else:
            lam, U = np.linalg.eigh(T[:j, :j])
            y = U @ (np.exp(-1j * dt * lam) * U[0])
        if b < 1e-14 or b * abs(y[-1]) * abs(dt) < tol:
            return nrm * (y @ V[:j])
        if j == maxdim:
            break
        T[j - 1, j] = T[j, j - 1] = b
        np.divide(w, b, out=V[j])
        w = H @ V[j]
        w -= b * V[j - 1]
        T[j, j] = np.real(np.vdot(V[j], w))
        w -= T[j, j] * V[j]
        # full reorthogonalization; cheap at desk-scale subspace sizes.
        # conj(V) w is taken as conj(V conj(w)), which copies no block of V.
        w -= np.conj(V[: j + 1] @ np.conj(w)) @ V[: j + 1]
    raise NumericalFailure(
        f"Lanczos exponential did not converge within maxdim={maxdim}"
    )


class NBodyStepper:
    """One exp(-i dt H) step, method per PropagatorConfig: adaptive Lanczos
    in a workspace made here and reused by every step, or exact propagation
    from one eigendecomposition of H made here."""

    def __init__(self, H, cfg: PropagatorConfig):
        self.H = H
        self.cfg = cfg
        self.evals = self.evecs = None
        if cfg.method == "dense":
            if H.shape[0] > DENSE_EIG_CAP:
                raise ConfigError(
                    f"dense method allowed only for dim <= {DENSE_EIG_CAP}, got {H.shape[0]}"
                )
            Hd = H.toarray() if sp.issparse(H) else np.asarray(H)
            self.evals, self.evecs = np.linalg.eigh(Hd)
        else:
            self._V = np.empty((KRYLOV_MAXDIM, H.shape[0]), dtype=complex)
            self._T = np.zeros((KRYLOV_MAXDIM, KRYLOV_MAXDIM))

    def step(self, amps: np.ndarray) -> np.ndarray:
        if self.evecs is not None:
            c = self.evecs.conj().T @ amps
            out = self.evecs @ (np.exp(-1j * self.cfg.dt * self.evals) * c)
        else:
            out = _lanczos_expm(
                self.H, amps, self.cfg.dt, self.cfg.krylov_tol, self._V, self._T
            )
        if not np.all(np.isfinite(out)):
            raise NumericalFailure("propagation produced nonfinite amplitudes")
        if abs(np.linalg.norm(out) - 1.0) > UNITARITY_TOL:
            raise NumericalFailure(
                f"norm drifted to {np.linalg.norm(out)} beyond the unitarity tolerance"
            )
        return out
