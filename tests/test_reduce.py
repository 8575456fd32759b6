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
    tensor_gamma2,
)
from mfdyn.errors import ConfigError, NumericalFailure
from mfdyn.condensate import occupation_weights
from mfdyn.fock import (
    ManyBodyState,
    _sqrt_multinomial,
    build_HN,
    enumerate_basis,
    k_basis,
    product_state,
)
from mfdyn.lattice import Grid, sample_interaction
from mfdyn.onebody import Orbital, build_h
from mfdyn.propagate import NBodyStepper, PropagatorConfig
from mfdyn.reduce import DensityMatrix, E_k, R_k, gamma, gamma1, gamma2

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
        DensityMatrix(0, np.eye(2) / 2)
    assert DensityMatrix(3, np.eye(4) / 4).k == 3  # any k >= 1
    with pytest.raises(NumericalFailure):
        DensityMatrix(1, np.array([[0.5, 0.3], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(NumericalFailure):
        DensityMatrix(1, np.eye(2))  # trace 2
    with pytest.raises(ConfigError, match="square"):
        DensityMatrix(1, np.ones((2, 3)) / 2)


def test_density_matrix_rejects_nan():
    with pytest.raises(NumericalFailure, match="not Hermitian"):
        DensityMatrix(1, np.full((3, 3), np.nan))


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
    assert g2.mat.shape == (21, 21)  # the M(M+1)/2 pair modes of M = 6
    assert np.allclose(tensor_gamma2(g2), np.outer(u2, u2.conj()), atol=1e-12)


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
        assert np.allclose(tensor_gamma2(gamma2(psi)), tensor_gamma_k(psi, 2), atol=1e-10)


def test_partial_trace_consistency(rng):
    psi = random_state(rng, 4, 3)
    g1 = gamma1(psi)
    g2 = gamma2(psi)
    assert np.allclose(partial_trace_2to1(g2).mat, g1.mat, atol=1e-10)
    with pytest.raises(ConfigError):
        partial_trace_2to1(g1)


def test_gamma2_supported_on_symmetric_subspace(rng):
    # the tensor-space gamma2 of a bosonic state is swap-invariant and lies
    # in the range of the isometry of the two-particle occupation basis, so
    # the pair space loses nothing
    psi = random_state(rng, 3, 3)
    g2 = tensor_gamma_k(psi, 2)
    M = 3
    swap = np.zeros((M * M, M * M))
    for x in range(M):
        for y in range(M):
            swap[y * M + x, x * M + y] = 1.0
    assert np.allclose(swap @ g2, g2, atol=1e-12)
    assert np.allclose(g2 @ swap, g2, atol=1e-12)
    S = occupation_to_tensor_isometry(enumerate_basis(M, 2))
    assert np.allclose(S.T @ S, np.eye(M * (M + 1) // 2), atol=1e-15)
    assert np.allclose(S @ S.T @ g2 @ S @ S.T, g2, atol=1e-12)


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


@pytest.mark.parametrize("k", [1, 2])
def test_pair_modes_are_made_once_and_read_only(rng, grid6, k):
    # E_k and R_k share one k-particle basis per (M, k), and one multinomial
    # vector on it; no caller may write them
    kb = k_basis(6, k)
    assert k_basis(6, k) is kb
    assert _sqrt_multinomial(kb) is _sqrt_multinomial(kb)
    for a in (kb.states, _sqrt_multinomial(kb)):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = a[0]
    # on the shared basis, E_k and R_k equal the same formulas evaluated on
    # a condensate vector built afresh on a basis of its own
    psi = random_state(rng, 6, 3)
    g = gamma1(psi) if k == 1 else gamma2(psi)
    phi = random_orbital(rng, grid6)
    uk = product_state(phi, enumerate_basis(6, k)).amps
    ek = float(1.0 - np.real(np.vdot(uk, g.mat @ uk)))
    rk = float(np.sum(np.abs(np.linalg.eigvalsh(g.mat - np.outer(uk, uk.conj())))))
    for _ in range(2):
        assert E_k(g, phi) == ek
        assert R_k(g, phi) == rk
    # H_N's hops, gamma1 and gamma2 keep one lowering map per k on the
    # basis, and the map k is made once. H_N lays out only the hops h has:
    # the all-pairs pattern is made for the weights' dGamma(q) alone.
    basis = psi.basis
    HN = build_HN(build_h(grid6), sample_interaction(grid6, "gaussian", lam=1.0, sigma=1.0), basis)
    assert HN.nnz <= 2 * 6 * enumerate_basis(6, 2).dim + basis.dim
    lowered = basis._cache[("lower", k)]
    gamma1(psi), gamma2(psi)
    assert basis._cache[("lower", k)] is lowered
    assert set(basis._cache) == {"rank", ("lower", 1), ("lower", 2)}
    occupation_weights(psi, phi)
    assert set(basis._cache) == {"rank", "pattern", ("lower", 1), ("lower", 2)}
    with pytest.raises(ConfigError):
        gamma(psi, 4)  # k > N


@pytest.mark.parametrize("M, N", [(2, 2), (4, 3), (8, 4), (8, 6), (3, 9)])
def test_lowering_map_is_bit_identical_to_the_two_gathers(rng, M, N):
    # The oracle is the pair of gathers the k-particle lowering map replaced,
    # written out as they were: a_x for k = 1, the weighted pair component
    # of a_x a_y for k = 2, and the condensate vectors u and w u[x] u[y].
    psi = random_state(rng, M, N)
    basis = psi.basis
    eye = np.eye(M, dtype=np.int64)

    sub = enumerate_basis(M, N - 1)
    rows = np.stack([basis.rank(sub.states + e) for e in eye])
    A = np.sqrt(sub.states.T + 1) * psi.amps[rows]
    old_g1 = (A @ A.conj().T) / N

    sub2 = enumerate_basis(M, N - 2)
    x, y = np.triu_indices(M)
    weight = np.where(x < y, np.sqrt(2.0), 1.0)
    rows = np.stack([basis.rank(sub2.states + e) for e in eye[x] + eye[y]])
    t = sub2.states.T
    coef = weight[:, None] * np.sqrt((t[x] + 1) * (t[y] + 1 + (x == y)[:, None]))
    B = coef * psi.amps[rows]
    old_g2 = (B @ B.conj().T) / (N * (N - 1))

    assert gamma1(psi).mat.tobytes() == old_g1.astype(complex).tobytes()
    assert gamma2(psi).mat.tobytes() == old_g2.astype(complex).tobytes()
    # phi^(x)k is now the product state on the k-particle basis: at k = 1
    # the same bytes; at k = 2 it multiplies sqrt(2) * (u[x] u[y]), not
    # (w u[x]) u[y], so the last bits may move (up to 2.2e-16 over 200
    # random orbitals)
    u = random_orbital(rng, Grid(M, 1.0))
    assert product_state(u, enumerate_basis(M, 1)).amps.tobytes() == u.mode.tobytes()
    old_u2 = weight * u.mode[x] * u.mode[y]
    moved = np.max(np.abs(product_state(u, enumerate_basis(M, 2)).amps - old_u2))
    assert moved <= 2 * np.finfo(float).eps


@pytest.mark.parametrize("M, N", [(5, 4), (8, 6)])
def test_E_k_is_a_function_of_the_sector_weights(rng, M, N):
    # E^(k) = 1 - sum_j w_j C(N-j, k) / C(N, k) for every k <= N
    grid = Grid(M, 1.0)
    for _ in range(3):
        psi, phi = random_state(rng, M, N), random_orbital(rng, grid)
        w = occupation_weights(psi, phi).weights
        for k in range(1, N + 1):
            kept = sum(w[j] * math.comb(N - j, k) for j in range(N + 1)) / math.comb(N, k)
            assert abs(E_k(gamma(psi, k), phi) - (1.0 - kept)) <= 1e-12


def test_gamma3_matches_tensor_oracle(rng):
    # the tensor-space partial trace over N - 3 particles, compressed to the
    # three-particle occupation basis
    psi = random_state(rng, 3, 4)
    U = occupation_to_tensor_isometry(enumerate_basis(3, 3))
    g3 = gamma(psi, 3)
    assert g3.k == 3 and g3.mat.shape == (10, 10)
    assert np.allclose(g3.mat, U.T @ tensor_gamma_k(psi, 3) @ U, atol=1e-12, rtol=0)
    assert np.allclose(U @ g3.mat @ U.T, tensor_gamma_k(psi, 3), atol=1e-12, rtol=0)


@pytest.mark.parametrize("k", [0, 5])
def test_gamma_needs_k_between_1_and_N(rng, k):
    psi = random_state(rng, 3, 4)
    with pytest.raises(ConfigError):
        gamma(psi, k)


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
