"""One-particle Hamiltonian and the nonlinear Hartree propagator.

Operators are plain M x M matrices acting on mode vectors u = sqrt(dx) * f,
so that plain matrix traces and matvecs realize the dx-weighted inner
product <f, g> = dx * sum conj(f) g.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalFailure
from .lattice import (
    Grid,
    LatticeField,
    laplacian_eigenvalues,
    laplacian_matrix,
    periodic_convolution,
)

ORBITAL_NORM_TOL = 1e-10


@dataclass(frozen=True)
class Orbital:
    """Normalized one-particle wave function on a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        nrm2 = self.grid.spacing * np.sum(np.abs(vals) ** 2)
        if abs(nrm2 - 1.0) > ORBITAL_NORM_TOL:
            raise ConfigError(f"orbital is not normalized: |phi|^2 = {nrm2}")
        object.__setattr__(self, "values", vals)

    @classmethod
    def normalized(cls, grid: Grid, values) -> "Orbital":
        vals = np.asarray(values, dtype=complex)
        nrm = np.sqrt(grid.spacing * np.sum(np.abs(vals) ** 2))
        if nrm == 0:
            raise ConfigError("cannot normalize the zero function")
        return cls(grid, vals / nrm)

    @property
    def mode(self) -> np.ndarray:
        """sqrt(dx)-scaled amplitudes; unit vector in the plain 2-norm."""
        return np.sqrt(self.grid.spacing) * self.values

    def field(self) -> LatticeField:
        return LatticeField(self.grid, self.values)

    def density(self) -> LatticeField:
        return LatticeField(self.grid, np.abs(self.values) ** 2)


def build_h(grid: Grid, v: LatticeField | None = None) -> np.ndarray:
    """-Laplacian stencil plus a real multiplicative trap v."""
    h = laplacian_matrix(grid).astype(float)
    if v is not None:
        h = h + np.diag(v.real_values())
    return h


def harmonic_potential(grid: Grid, omega: float) -> LatticeField:
    """v(x) = omega^2 d(x, L/2)^2 / 4, centered on the ring."""
    d = grid.min_image(grid.coords - grid.length / 2.0)
    return LatticeField(grid, omega**2 * d**2 / 4.0)


def ground_state(h: np.ndarray, grid: Grid) -> Orbital:
    """Lowest eigenvector of h, normalized with the dx weight, sign-fixed."""
    _, vecs = np.linalg.eigh(h)
    v = vecs[:, 0]
    j = int(np.argmax(np.abs(v)))
    v = v * (np.sign(v[j].real) or 1.0)
    return Orbital.normalized(grid, v)


def gaussian_orbital(grid: Grid, x0: float, sigma: float) -> Orbital:
    if not sigma > 0:
        raise ConfigError(f"gaussian orbital needs sigma > 0, got {sigma}")
    d = grid.min_image(grid.coords - x0)
    return Orbital.normalized(grid, np.exp(-(d**2) / (4.0 * sigma**2)))


def condensate_projectors(phi: Orbital) -> tuple[np.ndarray, np.ndarray]:
    """p = |phi><phi| and q = 1 - p as mode-basis matrices."""
    u = phi.mode
    p = np.outer(u, u.conj())
    q = np.eye(phi.grid.sites) - p
    return p, q


def mean_field_potential(w: LatticeField, phi: Orbital) -> LatticeField:
    """W^phi = w * |phi|^2."""
    return periodic_convolution(w, phi.density())


def hartree_energy(phi: Orbital, h: np.ndarray, w: LatticeField) -> float:
    """<phi, h phi> + (1/2) integral w(x-y) |phi(x)|^2 |phi(y)|^2."""
    u = phi.mode
    kin = np.real(np.vdot(u, h @ u))
    wphi = mean_field_potential(w, phi).values.real
    pot = 0.5 * phi.grid.spacing * float(np.abs(phi.values) ** 2 @ wphi)
    return float(kin + pot)


class HartreeStepper:
    """Strang splitting for i d/dt phi = (-Lap + v) phi + (w * |phi|^2) phi.

    The kinetic half-steps diagonalize the stencil Laplacian by DFT and the
    nonlinear phase step is exact (|phi|^2 is invariant under it), so the
    mass is conserved to roundoff and the energy drift is O(dt^2).
    """

    def __init__(self, grid: Grid, v, w: LatticeField, dt: float):
        if not dt > 0:
            raise ConfigError(f"dt must be positive, got {dt}")
        self.grid = grid
        self.dt = dt
        self.w = w
        self._v = v  # LatticeField, callable t -> LatticeField, or None
        self._kin_half = np.exp(-0.5j * dt * laplacian_eigenvalues(grid))

    def _v_values(self, t_mid: float) -> np.ndarray:
        if self._v is None:
            return np.zeros(self.grid.sites)
        v = self._v(t_mid) if callable(self._v) else self._v
        return v.real_values()

    def step(self, values: np.ndarray, t: float) -> np.ndarray:
        psi = np.fft.ifft(self._kin_half * np.fft.fft(values))
        rho = LatticeField(self.grid, np.abs(psi) ** 2)
        wphi = periodic_convolution(self.w, rho).values.real
        psi = psi * np.exp(-1j * self.dt * (self._v_values(t + 0.5 * self.dt) + wphi))
        psi = np.fft.ifft(self._kin_half * np.fft.fft(psi))
        if not np.all(np.isfinite(psi)):
            raise NumericalFailure(f"Hartree step produced nonfinite amplitudes at t={t}")
        return psi


def evolve_hartree(
    grid: Grid,
    v,
    w: LatticeField,
    phi0: Orbital,
    dt: float,
    steps: int,
) -> list[Orbital]:
    """Integrate the Hartree equation; entry k is the orbital at t = k * dt."""
    stepper = HartreeStepper(grid, v, w, dt)
    orbitals = [phi0]
    vals = phi0.values
    for k in range(steps):
        vals = stepper.step(vals, k * dt)
        orbitals.append(Orbital(grid, vals))
    return orbitals
