"""Unitary time evolution of a many-body state and expectation values."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalFailure
from .fock import ManyBodyState

KRYLOV_MAXDIM = 40
MAX_HALVINGS = 10  # NBodyStepper splits a step into at most 2^MAX_HALVINGS
UNITARITY_TOL = 1e-8
# allowance on |y_j[-1]| for the roundoff of eigh's small exponential, which
# is O(j eps) for j <= KRYLOV_MAXDIM when dt ||T_j|| < 1
_EIGH_ROUNDOFF = 1e-12


@dataclass(frozen=True)
class PropagatorConfig:
    dt: float
    steps: int
    method: str = "krylov"  # the only propagator; kept for callers that name it
    krylov_tol: float = 1e-10

    def __post_init__(self):
        if not self.dt > 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if self.steps < 0:
            raise ConfigError(f"steps must be nonnegative, got {self.steps}")
        if self.method != "krylov":
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
    V = np.empty((2, maxdim, v.shape[0]), dtype=complex)
    return _lanczos_expm(H, v, dt, tol, V, np.zeros((maxdim, maxdim)))


def _lanczos_expm(H, v, dt, tol, V, T) -> np.ndarray:
    """`lanczos_expm_apply` with maxdim = V.shape[1] in caller-owned workspace:
    V (2, maxdim, dim) complex holds the Lanczos vectors in V[0] and their
    complex conjugates in V[1], and T (maxdim, maxdim) real, zero off its
    tridiagonal band, is filled in place. Every entry read is written first,
    so the workspace serves call after call. A zero or nonfinite v is
    returned as it is.

    Each new vector is orthogonalised against the basis by classical
    Gram-Schmidt twice, h = conj(V) w then w -= h V, with T[j, j] from the
    first pass. The small eigh is skipped at every j where a Taylor bound
    already proves the residual estimate at or above tol. |y_j[-1]| does
    not change when T_j is shifted by c times the identity, so with x = dt
    times the half-width of T_j's Gershgorin interval, which bounds
    dt ||T_j - c|| for its midpoint c, and x < 1,
        |y_j[-1]| >= dt^(j-1) prod(beta_i) / (j-1)! - x^j e^x / j!,
    less _EIGH_ROUNDOFF for the roundoff of eigh's y. So the stopping
    dimension is the one eigh alone gives, and the returned y comes from
    eigh of the final T_j.
    """
    nrm = math.sqrt(np.vdot(v, v).real)
    if nrm == 0 or not math.isfinite(nrm):
        return v.copy()
    B, Bc = V
    maxdim = B.shape[0]
    adt = abs(dt)
    np.multiply(v, 1.0 / nrm, out=B[0])
    np.conjugate(B[0], out=Bc[0])
    lead = 1.0  # dt^(j-1) prod(beta_i) / (j-1)!
    lo, hi = math.inf, -math.inf  # Gershgorin interval of T_j's complete rows
    b = 0.0
    for j in range(1, maxdim + 1):
        w = H @ B[j - 1]
        h = Bc[:j] @ w
        w -= h @ B[:j]
        w -= (Bc[:j] @ w) @ B[:j]
        a = T[j - 1, j - 1] = float(h[j - 1].real)
        b_prev, b = b, math.sqrt(np.vdot(w, w).real)
        x = 0.5 * adt * (max(hi, a + b_prev) - min(lo, a - b_prev))
        lo, hi = min(lo, a - b_prev - b), max(hi, a + b_prev + b)
        unconverged = (
            b >= 1e-14
            and x < 1.0
            and b * adt * (lead - x**j * math.exp(x) / math.factorial(j) - _EIGH_ROUNDOFF)
            >= tol
        )
        if not unconverged:
            lam, U = np.linalg.eigh(T[:j, :j])
            y = U @ (np.exp(-1j * dt * lam) * U[0])
            if b < 1e-14 or b * abs(y[-1]) * adt < tol:
                return nrm * (y @ B[:j])
        if j == maxdim:
            break
        T[j - 1, j] = T[j, j - 1] = b
        lead *= adt * b / j
        np.multiply(w, 1.0 / b, out=B[j])
        np.conjugate(B[j], out=Bc[j])
    raise NumericalFailure(
        f"Lanczos exponential did not converge within maxdim={maxdim}"
    )


class NBodyStepper:
    """One exp(-i dt H) step by adaptive Lanczos, in a workspace made here
    and reused by every step.

    A step whose Krylov space reaches KRYLOV_MAXDIM unconverged is applied
    as 2^k equal sub-steps instead, with the smallest k <= MAX_HALVINGS at
    which a sub-step converges; the remaining sub-steps start at that k.
    Only an unconverged sub-step of dt / 2^MAX_HALVINGS raises."""

    def __init__(self, H, cfg: PropagatorConfig):
        self.H = H
        self.cfg = cfg
        self._V = np.empty((2, KRYLOV_MAXDIM, H.shape[0]), dtype=complex)
        self._T = np.zeros((KRYLOV_MAXDIM, KRYLOV_MAXDIM))

    def step(self, amps: np.ndarray) -> np.ndarray:
        out, k, left = amps, 0, 1  # left: sub-steps of dt / 2^k still to apply
        while left:
            try:
                out = _lanczos_expm(
                    self.H, out, self.cfg.dt / 2**k, self.cfg.krylov_tol, self._V, self._T
                )
            except NumericalFailure as exc:
                if k == MAX_HALVINGS:
                    raise NumericalFailure(f"{exc}, even in 2^{k} sub-steps") from None
                k, left = k + 1, 2 * left
                continue
            left -= 1
        # one norm decides both checks: a nonfinite amplitude makes it nonfinite
        norm = math.sqrt(np.vdot(out, out).real)
        if not abs(norm - 1.0) <= UNITARITY_TOL:
            if not math.isfinite(norm):
                raise NumericalFailure("propagation produced nonfinite amplitudes")
            raise NumericalFailure(
                f"norm drifted to {norm} beyond the unitarity tolerance"
            )
        return out
