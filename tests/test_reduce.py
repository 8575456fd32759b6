import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfdyn.checks import (
    bbgky_rhs_k1,
    mean_field_sandwich_residual,
    occupation_to_tensor_isometry,
    partial_trace_2to1,
    seiringer_check,
)
from mfdyn.errors import ConfigError, NumericalFailure
from mfdyn.fock import ManyBodyState, build_HN, enumerate_basis, product_state
from mfdyn.lattice import Grid, sample_interaction
from mfdyn.onebody import Orbital, build_h
from mfdyn.propagate import NBodyStepper, PropagatorConfig
from mfdyn.reduce import DensityMatrix, E_k, R_k, gamma1, gamma2

from conftest import random_orbital


def random_state(rng, M, N):
    basis = enumerate_basis(M, N)
    amps = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    return ManyBodyState(basis, amps / np.linalg.norm(amps))


def tensor_gamma_k(psi: ManyBodyState, k: int) -> np.ndarray:
    """Independent oracle: embed into (C^M)^(x)N and partial-trace N-k slots."""
    basis = psi.basis
    M, N = basis.sites, basis.particles
    U = occupation_to_tensor_isometry(basis)
    t = (U @ psi.amps).reshape((M,) * N)
    rho = np.tensordot(t, t.conj(), axes=0)  # indices x1..xN, y1..yN
    for _ in range(N - k):
        rho = np.trace(rho, axis1=N - 1, axis2=rho.ndim - 1)
        N -= 1
    return rho.reshape(M**k, M**k)


def test_density_matrix_validation():
    with pytest.raises(ConfigError):
        DensityMatrix(3, np.eye(2))
    with pytest.raises(NumericalFailure):
        DensityMatrix(1, np.array([[0.5, 0.3], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(NumericalFailure):
        DensityMatrix(1, np.eye(2))  # trace 2


def test_gamma1_product_state_rank_one(rng, grid6):
    phi = random_orbital(rng, grid6)
    psi = product_state(phi, enumerate_basis(6, 4))
    g1 = gamma1(psi)
    u = phi.mode
    assert np.allclose(g1.mat, np.outer(u, u.conj()), atol=1e-12)


def test_gamma1_hand_value():
    # N=2 on M=2 sites, state (1,1): each site holds exactly one particle
    basis = enumerate_basis(2, 2)
    amps = np.zeros(3)
    amps[basis.rank((1, 1))] = 1.0
    g1 = gamma1(ManyBodyState(basis, amps))
    assert np.allclose(g1.mat, np.diag([0.5, 0.5]), atol=1e-14)


def test_gamma2_product_state(rng, grid6):
    phi = random_orbital(rng, grid6)
    psi = product_state(phi, enumerate_basis(6, 3))
    g2 = gamma2(psi)
    u2 = np.kron(phi.mode, phi.mode)
    assert np.allclose(g2.mat, np.outer(u2, u2.conj()), atol=1e-12)


def test_gamma2_requires_two_particles(rng):
    psi = random_state(rng, 3, 1)
    with pytest.raises(ConfigError):
        gamma2(psi)


@settings(deadline=None, max_examples=15)
@given(st.integers(0, 10**6))
def test_gammas_match_tensor_oracle(seed):
    rng = np.random.default_rng(seed)
    for M, N in ((3, 2), (2, 3), (3, 3)):
        basis = enumerate_basis(M, N)
        psi = random_state(rng, M, N)
        assert np.allclose(gamma1(psi).mat, tensor_gamma_k(psi, 1), atol=1e-10)
        assert np.allclose(gamma2(psi).mat, tensor_gamma_k(psi, 2), atol=1e-10)


def test_partial_trace_consistency(rng):
    psi = random_state(rng, 4, 3)
    g1 = gamma1(psi)
    g2 = gamma2(psi)
    assert np.allclose(partial_trace_2to1(g2).mat, g1.mat, atol=1e-10)
    with pytest.raises(ConfigError):
        partial_trace_2to1(g1)


def test_gamma2_supported_on_symmetric_subspace(rng):
    psi = random_state(rng, 3, 3)
    g2 = gamma2(psi).mat
    M = 3
    swap = np.zeros((M * M, M * M))
    for x in range(M):
        for y in range(M):
            swap[y * M + x, x * M + y] = 1.0
    assert np.allclose(swap @ g2, g2, atol=1e-12)
    assert np.allclose(g2 @ swap, g2, atol=1e-12)


def test_indicator_values_pure_state(rng, grid6):
    phi = random_orbital(rng, grid6)
    chi = random_orbital(rng, grid6)
    g = DensityMatrix(1, np.outer(chi.mode, chi.mode.conj()))
    overlap2 = abs(np.vdot(phi.mode, chi.mode)) ** 2
    assert E_k(g, phi) == pytest.approx(1.0 - overlap2, abs=1e-12)
    # trace distance between pure states: 2 sqrt(1 - |<phi,chi>|^2)
    assert R_k(g, phi) == pytest.approx(2.0 * math.sqrt(1.0 - overlap2), abs=1e-10)


def test_indicator_zero_on_condensate(rng, grid6):
    phi = random_orbital(rng, grid6)
    g = DensityMatrix(1, np.outer(phi.mode, phi.mode.conj()))
    assert abs(E_k(g, phi)) < 1e-12
    assert R_k(g, phi) < 1e-6  # sqrt roundoff of eigensolver


def test_indicator_dimension_check(rng, grid6):
    phi = random_orbital(rng, grid6)
    g = DensityMatrix(1, np.eye(3) / 3)
    with pytest.raises(ConfigError):
        E_k(g, phi)
    with pytest.raises(ConfigError):
        R_k(g, phi)


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 10**6))
def test_indicator_inequalities_random(seed):
    rng = np.random.default_rng(seed)
    g = Grid(5, 1.0)
    phi = random_orbital(rng, g)
    A = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    rho = A @ A.conj().T
    gam = DensityMatrix(1, rho / np.trace(rho).real)
    e, r = E_k(gam, phi), R_k(gam, phi)
    assert -1e-10 <= e <= 1.0 + 1e-10
    assert 0.0 <= r <= 2.0 + 1e-10
    assert e <= r + 1e-10
    assert r <= math.sqrt(8.0 * max(e, 0.0)) + 1e-10
    tn, opn = seiringer_check(gam, phi)
    assert tn == pytest.approx(opn, abs=1e-10)


def test_sandwich_identity_random(rng, grid6):
    for _ in range(10):
        phi = random_orbital(rng, grid6)
        w = sample_interaction(grid6, "random", seed=int(rng.integers(10**6)))
        assert mean_field_sandwich_residual(phi, w) < 1e-12


def test_bbgky_k1_residual(rng):
    grid = Grid(4, 1.0)
    w = sample_interaction(grid, "gaussian", lam=1.0, sigma=1.0)
    h = build_h(grid)
    basis = enumerate_basis(4, 3)
    phi = random_orbital(rng, grid)
    psi0 = product_state(phi, basis)
    H = build_HN(h, w, basis)
    dt = 1e-3
    stepper = NBodyStepper(H, PropagatorConfig(dt=dt, steps=2, krylov_tol=1e-13))
    states = [psi0]
    for _ in range(2):
        states.append(ManyBodyState(basis, stepper.step(states[-1].amps)))
    g_minus = gamma1(states[0]).mat
    g_mid = gamma1(states[1])
    g_plus = gamma1(states[2]).mat
    lhs = (g_plus - g_minus) / (2 * dt)
    rhs = bbgky_rhs_k1(g_mid, gamma2(states[1]), h, w, 3)
    res = float(np.max(np.abs(lhs - rhs)))
    assert res < max(1e-4, 10 * dt**2)
