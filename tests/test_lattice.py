import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfdyn.errors import ConfigError
from mfdyn.lattice import (
    Grid,
    LatticeField,
    convolution_kernel_matrix,
    laplacian_eigenvalues,
    laplacian_matrix,
    lp_norm,
    periodic_convolution,
    sample_interaction,
)

from conftest import random_field


def test_grid_basics():
    g = Grid(8, 0.5)
    assert g.length == 4.0
    assert np.allclose(g.coords, 0.5 * np.arange(8))
    # minimal image folds beyond half the ring length
    assert g.min_image(3.5) == pytest.approx(0.5)
    assert np.all(g.min_image(g.coords) <= g.length / 2)


def test_grid_validation():
    with pytest.raises(ConfigError):
        Grid(1, 1.0)
    with pytest.raises(ConfigError):
        Grid(4, 0.0)


def test_field_validation(grid6):
    with pytest.raises(ConfigError):
        LatticeField(grid6, np.zeros(5))
    with pytest.raises(ConfigError):
        LatticeField(grid6, np.array([np.nan] + [0.0] * 5))
    f = LatticeField(grid6, np.full(6, 1.0 / np.sqrt(6)))
    assert f.is_normalized
    with pytest.raises(ConfigError):
        LatticeField(grid6, 1j * np.ones(6)).real_values()


def test_laplacian_matrix_properties(grid8):
    A = laplacian_matrix(grid8)
    assert np.allclose(A, A.T)
    assert np.allclose(A @ np.ones(8), 0.0)  # constants are harmonic
    lam = np.linalg.eigvalsh(A)
    assert lam.min() > -1e-12


def test_laplacian_eigenvalues_match_matrix(grid8):
    A = laplacian_matrix(grid8)
    ev_matrix = np.sort(np.linalg.eigvalsh(A))
    ev_fft = np.sort(laplacian_eigenvalues(grid8))
    assert np.allclose(ev_matrix, ev_fft, atol=1e-12)


def test_plane_waves_diagonalize_laplacian(grid8):
    M, dx = grid8.sites, grid8.spacing
    A = laplacian_matrix(grid8)
    for k in range(M):
        v = np.exp(2j * np.pi * k * np.arange(M) / M)
        lam = 2.0 * (1.0 - np.cos(2.0 * np.pi * k / M)) / dx**2
        assert np.allclose(A @ v, lam * v, atol=1e-10)


def test_lp_norm_values(grid6):
    f = LatticeField(grid6, np.array([3.0, 0, 0, 0, 0, 0]))
    assert lp_norm(f, 1) == pytest.approx(3.0)
    assert lp_norm(f, 2) == pytest.approx(3.0)
    assert lp_norm(f, np.inf) == pytest.approx(3.0)
    g = LatticeField(Grid(4, 0.25), np.ones(4))
    assert lp_norm(g, 1) == pytest.approx(1.0)
    assert lp_norm(g, 2) == pytest.approx(1.0)
    with pytest.raises(ConfigError):
        lp_norm(g, 0.5)


def test_lp_norm_large_p_no_overflow(grid6):
    f = LatticeField(grid6, np.array([2.0, 1.0, 0.5, 0.0, 0.0, 0.0]))
    assert math.isfinite(lp_norm(f, 1e6))
    assert lp_norm(f, 1e6) == pytest.approx(lp_norm(f, np.inf), rel=1e-4)


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 2**31 - 1), st.floats(1.0, 12.0))
def test_lp_norm_monotone_scaling(seed, p):
    rng = np.random.default_rng(seed)
    g = Grid(6, 0.7)
    f = random_field(rng, g, real=False)
    c = 2.5
    scaled = LatticeField(g, c * f.values)
    assert lp_norm(scaled, p) == pytest.approx(c * lp_norm(f, p), rel=1e-10, abs=1e-12)
    # p -> lebesgue norms are not monotone in p on finite measure with dx<1,
    # but the max-factored form must still agree with the direct definition
    direct = (g.spacing * np.sum(np.abs(f.values) ** p)) ** (1 / p)
    assert lp_norm(f, p) == pytest.approx(float(direct), rel=1e-12)


def test_convolution_identity_kernel():
    g = Grid(5, 0.2)
    # delta kernel (1/dx at the origin) acts as the identity
    delta = LatticeField(g, np.array([1.0 / g.spacing, 0, 0, 0, 0]))
    rho = LatticeField(g, np.arange(5.0))
    out = periodic_convolution(delta, rho)
    assert np.allclose(out.values, rho.values, atol=1e-12)


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 2**31 - 1))
def test_convolution_linearity_and_commutativity(seed):
    rng = np.random.default_rng(seed)
    g = Grid(7, 0.9)
    w = random_field(rng, g)
    a = random_field(rng, g)
    b = random_field(rng, g)
    lin = periodic_convolution(w, LatticeField(g, 2.0 * a.values + b.values)).values
    sep = 2.0 * periodic_convolution(w, a).values + periodic_convolution(w, b).values
    assert np.allclose(lin, sep, atol=1e-10)
    assert np.allclose(
        periodic_convolution(w, a).values, periodic_convolution(a, w).values, atol=1e-10
    )


def test_convolution_grid_mismatch(rng, grid6):
    w = random_field(rng, grid6)
    rho = random_field(rng, Grid(6, 0.5))
    with pytest.raises(ConfigError):
        periodic_convolution(w, rho)


def test_kernel_matrix_is_symmetric_circulant(rng, grid6):
    w = sample_interaction(grid6, "random", seed=3)
    W = convolution_kernel_matrix(w)
    assert np.allclose(W, W.T, atol=1e-14)  # even w => symmetric kernel
    for s in range(1, 6):
        assert np.allclose(np.diag(W, s), W[0, s])  # circulant structure


def test_sample_interaction_kinds(grid8):
    c = sample_interaction(grid8, "constant", c=2.0)
    assert np.allclose(c.values, 2.0)
    gsn = sample_interaction(grid8, "gaussian", lam=1.5, sigma=0.8)
    assert gsn.values[0] == pytest.approx(1.5)
    sc = sample_interaction(grid8, "softcoulomb", lam=1.0, eps=0.5)
    assert sc.values[0] == pytest.approx(2.0)
    inv = sample_interaction(grid8, "invsquare", lam=3.0)
    assert inv.values[0] == pytest.approx(3.0 / grid8.spacing**2)
    assert inv.values[1] == pytest.approx(3.0 / grid8.spacing**2)
    rnd = sample_interaction(grid8, "random", seed=0)
    # even under x -> L - x
    v = rnd.values.real
    assert np.allclose(v[1:], v[:0:-1], atol=1e-14)


def test_sample_interaction_errors(grid8):
    with pytest.raises(ConfigError):
        sample_interaction(grid8, "gaussian", lam=1.0, sigma=0.0)
    with pytest.raises(ConfigError):
        sample_interaction(grid8, "nosuch", lam=1.0)
    with pytest.raises(ConfigError):
        sample_interaction(grid8, "constant", c=1.0, extra=2.0)
