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
    circulant,
    laplacian_eigenvalues,
    laplacian_matrix,
    periodic_convolution,
)

ORBITAL_NORM_TOL = 1e-10


@dataclass(frozen=True)
class Orbital(LatticeField):
    """Normalized one-particle wave function on a grid."""

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        nrm2 = self.grid.spacing * np.sum(np.abs(vals) ** 2)
        if not abs(nrm2 - 1.0) <= ORBITAL_NORM_TOL:  # NaN fails too
            raise ConfigError(f"orbital is not normalized: |phi|^2 = {nrm2}")
        super().__post_init__()

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

    def density(self) -> LatticeField:
        return LatticeField(self.grid, np.abs(self.values) ** 2)


def _on(grid: Grid, f: LatticeField, name: str) -> LatticeField:
    """f, refused unless it is sampled on `grid`, spacing included."""
    if f.grid != grid:
        raise ConfigError(f"{name} on {f.grid} does not match {grid}")
    return f


def build_h(grid: Grid, v: LatticeField | None = None) -> np.ndarray:
    """-Laplacian stencil plus a real multiplicative trap v on the same grid."""
    h = laplacian_matrix(grid)
    if v is not None:
        h = h + np.diag(_on(grid, v, "v").real_values())
    return h


@np.errstate(all="ignore")  # LatticeField refuses a nonfinite v, without a warning
def harmonic_potential(grid: Grid, omega: float) -> LatticeField:
    """v(x) = omega^2 d(x, L/2)^2 / 4, centered on the ring."""
    d = grid.min_image(grid.coords - grid.length / 2.0)
    return LatticeField(grid, np.float64(omega) ** 2 * d**2 / 4.0)


def ground_state(h: np.ndarray, grid: Grid) -> Orbital:
    """Lowest eigenvector of h, normalized with the dx weight, sign-fixed."""
    _, vecs = np.linalg.eigh(h)
    v = vecs[:, 0]
    j = int(np.argmax(np.abs(v)))
    v = v * (np.sign(v[j].real) or 1.0)
    return Orbital.normalized(grid, v)


@np.errstate(all="ignore")  # Orbital refuses nonfinite values, without a warning
def gaussian_orbital(grid: Grid, x0: float, sigma: float) -> Orbital:
    if not sigma > 0:
        raise ConfigError(f"gaussian orbital needs sigma > 0, got {sigma}")
    d = grid.min_image(grid.coords - x0)
    return Orbital.normalized(grid, np.exp(-(d**2) / (4.0 * np.float64(sigma) ** 2)))


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
    if h.shape != (u.size, u.size):
        raise ConfigError(f"operator shape {h.shape} does not match M={u.size}")
    kin = np.real(np.vdot(u, h @ u))
    wphi = mean_field_potential(w, phi).values.real
    pot = 0.5 * phi.grid.spacing * float(np.abs(phi.values) ** 2 @ wphi)
    return float(kin + pot)


class HartreeStepper:
    """Strang splitting for i d/dt phi = (-Lap + v) phi + (w * |phi|^2) phi on w's grid.

    The kinetic half-steps diagonalize the stencil Laplacian by DFT and the
    nonlinear phase step is exact (|phi|^2 is invariant under it), so the
    mass is conserved to roundoff and the energy drift is O(dt^2).
    """

    def __init__(self, v, w: LatticeField, dt: float):
        if not dt > 0:
            raise ConfigError(f"dt must be positive, got {dt}")
        self.grid = grid = w.grid
        self.dt = dt
        self._W = circulant(w)  # the mean field is dx * (W @ |phi|^2)
        # a callable v is read at each step's midpoint, a static or absent one once
        if callable(v):
            self._v_at = lambda t: v(t).real_values()
        else:
            values = np.zeros(grid.sites) if v is None else _on(grid, v, "v").real_values()
            self._v_at = lambda t: values
        self._kin_half = np.exp(-0.5j * dt * laplacian_eigenvalues(grid))

    def step(self, values: np.ndarray, t: float) -> np.ndarray:
        psi = np.fft.ifft(self._kin_half * np.fft.fft(values))
        wphi = (self.grid.spacing * (self._W @ np.abs(psi) ** 2)).real
        psi = psi * np.exp(-1j * self.dt * (self._v_at(t + 0.5 * self.dt) + wphi))
        return np.fft.ifft(self._kin_half * np.fft.fft(psi))


def evolve_hartree(v, w: LatticeField, phi0: Orbital, dt: float, steps: int) -> np.ndarray:
    """Integrate the Hartree equation on phi0's grid, which w and a static v
    must share: a (steps + 1, M) array whose row k holds the orbital's
    values at t = k * dt. The whole flow is checked once: every row must be
    finite and normalized, as an `Orbital` would be, and the first row that
    is not names the start t of the step that produced it."""
    grid = phi0.grid
    stepper = HartreeStepper(v, _on(grid, w, "w"), dt)
    flow = np.empty((steps + 1, grid.sites), dtype=complex)
    flow[0] = phi0.values
    for k in range(steps):
        flow[k + 1] = stepper.step(flow[k], k * dt)
    drift = np.abs(grid.spacing * np.sum(np.abs(flow) ** 2, axis=1) - 1.0)
    bad = ~(drift <= ORBITAL_NORM_TOL)  # a nonfinite amplitude makes its row's drift nonfinite
    if bad.any():
        row = int(np.argmax(bad))
        t = (row - 1) * dt
        if not np.isfinite(drift[row]):
            raise NumericalFailure(f"Hartree step produced nonfinite amplitudes at t={t}")
        raise NumericalFailure(
            f"Hartree flow lost normalization: |phi|^2 - 1 = {drift[row]} at t={t}"
        )
    return flow
