"""Periodic 1-D lattice: grid, fields, discrete norms, convolution, potentials.

All integrals carry the measure dx (one factor of the grid spacing per sum),
so continuum formulas transcribe verbatim.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

NORM_TOL = 1e-12


@dataclass(frozen=True)
class Grid:
    """Periodic chain of `sites` points with spacing `spacing`."""

    sites: int
    spacing: float

    def __post_init__(self):
        if self.sites < 2:
            raise ConfigError(f"grid needs at least 2 sites, got {self.sites}")
        if not self.spacing > 0:
            raise ConfigError(f"grid spacing must be positive, got {self.spacing}")

    @property
    def length(self) -> float:
        return self.sites * self.spacing

    @property
    def coords(self) -> np.ndarray:
        return np.arange(self.sites) * self.spacing

    def min_image(self, x) -> np.ndarray:
        """Minimal-image distance of coordinate(s) x to the origin."""
        r = np.mod(x, self.length)
        return np.minimum(r, self.length - r)


@dataclass(frozen=True)
class LatticeField:
    """Complex-valued function sampled on a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.grid.sites,):
            raise ConfigError(
                f"field has {vals.shape} values for a grid of {self.grid.sites} sites"
            )
        if not np.all(np.isfinite(vals)):
            raise ConfigError("field has nonfinite entries")
        object.__setattr__(self, "values", vals)

    @property
    def is_normalized(self) -> bool:
        return abs(self.grid.spacing * np.sum(np.abs(self.values) ** 2) - 1.0) < NORM_TOL

    def real_values(self) -> np.ndarray:
        if np.max(np.abs(self.values.imag)) > 1e-14:
            raise ConfigError("field is not real")
        return self.values.real.copy()


def laplacian_matrix(grid: Grid) -> np.ndarray:
    """Periodic 3-point stencil for -d^2/dx^2; real symmetric PSD."""
    M, dx = grid.sites, grid.spacing
    A = np.zeros((M, M))
    np.fill_diagonal(A, 2.0 / dx**2)
    for j in range(M):
        A[j, (j + 1) % M] -= 1.0 / dx**2
        A[j, (j - 1) % M] -= 1.0 / dx**2
    return A


def laplacian_eigenvalues(grid: Grid) -> np.ndarray:
    """Stencil eigenvalues 2(1-cos(k dx))/dx^2 on the DFT modes, in fft order."""
    M, dx = grid.sites, grid.spacing
    k = 2.0 * np.pi * np.fft.fftfreq(M, d=dx)
    return 2.0 * (1.0 - np.cos(k * dx)) / dx**2


def lp_norm(f: LatticeField, p: float) -> float:
    """(dx * sum |f|^p)^(1/p); max |f| for p = inf."""
    if p == np.inf:
        return float(np.max(np.abs(f.values)))
    if p < 1:
        raise ConfigError(f"lp_norm requires p >= 1, got {p}")
    dx = f.grid.spacing
    m = float(np.max(np.abs(f.values)))
    if m == 0.0:
        return 0.0
    # factor out the max so large p cannot overflow
    return float(m * (dx * np.sum((np.abs(f.values) / m) ** p)) ** (1.0 / p))


def periodic_convolution(w: LatticeField, rho: LatticeField) -> LatticeField:
    """(w * rho)(x) = dx * sum_y w(x - y) rho(y) with periodic wrap, as a
    direct O(M^2) sum."""
    if w.grid != rho.grid:
        raise ConfigError("convolution operands live on different grids")
    M = w.grid.sites
    idx = (np.arange(M)[:, None] - np.arange(M)[None, :]) % M
    return LatticeField(w.grid, w.grid.spacing * (w.values[idx] @ rho.values))


def convolution_kernel_matrix(w: LatticeField) -> np.ndarray:
    """Circulant matrix W[x, y] = w(x - y) of pointwise pair values (no dx)."""
    M = w.grid.sites
    idx = (np.arange(M)[:, None] - np.arange(M)[None, :]) % M
    return w.values[idx].real.copy()


def sample_interaction(grid: Grid, kind: str, **params) -> LatticeField:
    """Sample an even, real interaction potential on the grid.

    Kinds and parameters:
      constant: c
      gaussian: lam, sigma         lam * exp(-d^2 / (2 sigma^2))
      softcoulomb: lam, eps        lam / sqrt(d^2 + eps^2)
      invsquare: lam               lam / d^2, with w(0) = lam / dx^2
      random: seed                 bounded even noise in [-1, 1]

    Singular kinds are regularized at the origin by the explicit w(0) rule
    above; d is the minimal-image distance.
    """
    d = grid.min_image(grid.coords)
    if kind == "constant":
        c = float(params.pop("c"))
        vals = np.full(grid.sites, c)
    elif kind == "gaussian":
        lam = float(params.pop("lam"))
        sigma = float(params.pop("sigma"))
        if not sigma > 0:
            raise ConfigError(f"gaussian interaction needs sigma > 0, got {sigma}")
        vals = lam * np.exp(-(d**2) / (2.0 * sigma**2))
    elif kind == "softcoulomb":
        lam = float(params.pop("lam"))
        eps = float(params.pop("eps"))
        if not eps > 0:
            raise ConfigError(f"soft-coulomb interaction needs eps > 0, got {eps}")
        vals = lam / np.sqrt(d**2 + eps**2)
    elif kind == "invsquare":
        lam = float(params.pop("lam"))
        vals = np.empty(grid.sites)
        vals[0] = lam / grid.spacing**2
        vals[1:] = lam / d[1:] ** 2
    elif kind == "random":
        seed = int(params.pop("seed"))
        rng = np.random.default_rng(seed)
        raw = rng.uniform(-1.0, 1.0, grid.sites)
        # symmetrize to make w even under x -> L - x
        vals = 0.5 * (raw + raw[(-np.arange(grid.sites)) % grid.sites])
    else:
        raise ConfigError(f"unknown interaction kind {kind!r}")
    if params:
        raise ConfigError(f"unexpected parameters for {kind!r}: {sorted(params)}")
    return LatticeField(grid, vals)
