import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfdyn.condensate as condensate
from mfdyn.checks import occupation_to_tensor_isometry, tensor_hat_f, tensor_sector_projectors
from mfdyn.condensate import (
    CROSS_CHECK_TOL,
    MAX_N,
    WeightDistribution,
    alpha_of,
    beta_of,
    factorial_moment_weights,
    moment_weights,
    occupation_weights,
    weight_function_m,
    weight_function_n,
)
from mfdyn.errors import ConfigError, NumericalFailure
from mfdyn.fock import (
    ManyBodyState,
    enumerate_basis,
    product_state,
    second_quantize_onebody,
)
from mfdyn.lattice import Grid
from mfdyn.onebody import Orbital, condensate_projectors
from mfdyn.reduce import E_k, gamma1

from conftest import CountingOperator, random_orbital


def random_state(rng, M, N):
    basis = enumerate_basis(M, N)
    amps = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    return ManyBodyState(basis, amps / np.linalg.norm(amps))


def test_weight_distribution_validation():
    with pytest.raises(NumericalFailure):
        WeightDistribution(np.array([0.5, 0.4]))  # sums to 0.9
    with pytest.raises(NumericalFailure):
        WeightDistribution(np.array([1.1, -0.1]))  # negative beyond roundoff
    wd = WeightDistribution(np.array([1.0 + 1e-9, -1e-9]))
    assert wd.weights.min() == 0.0  # tiny negativity clamped
    assert wd.n_particles == 1


def test_weight_functions():
    assert np.allclose(weight_function_m(4), [0, 0.25, 0.5, 0.75, 1.0])
    assert np.allclose(weight_function_n(4), np.sqrt([0, 0.25, 0.5, 0.75, 1.0]))


def test_product_state_weights_concentrate_at_zero(rng, grid6):
    phi = random_orbital(rng, grid6)
    psi = product_state(phi, enumerate_basis(6, 4))
    wd = occupation_weights(psi, phi)
    assert wd.weights[0] == pytest.approx(1.0, abs=1e-10)
    assert alpha_of(wd) == pytest.approx(0.0, abs=1e-10)
    assert beta_of(wd) == pytest.approx(0.0, abs=1e-7)  # sqrt amplifies roundoff


def test_weights_match_spectral_oracle(rng):
    # independent oracle: diagonalize dGamma(q) and bin the spectral weight
    # by the (integer) eigenvalue
    M, N = 4, 4
    grid = Grid(M, 1.0)
    phi = random_orbital(rng, grid)
    psi = random_state(rng, M, N)
    _, q = condensate_projectors(phi)
    A = second_quantize_onebody(q, psi.basis).toarray()
    lam, vecs = np.linalg.eigh(A)
    coef = np.abs(vecs.conj().T @ psi.amps) ** 2
    oracle = np.zeros(N + 1)
    for ev, c in zip(lam, coef):
        oracle[int(round(ev))] += c
    wd = occupation_weights(psi, phi)
    assert np.allclose(wd.weights, oracle, atol=1e-8)


def test_alpha_equals_depletion(rng):
    for M, N in ((4, 3), (3, 4), (5, 2)):
        grid = Grid(M, 0.8)
        phi = random_orbital(rng, grid)
        psi = random_state(rng, M, N)
        wd = occupation_weights(psi, phi)
        assert alpha_of(wd) == pytest.approx(E_k(gamma1(psi), phi), abs=1e-10)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10**6))
def test_alpha_beta_ordering(seed):
    rng = np.random.default_rng(seed)
    grid = Grid(4, 1.0)
    phi = random_orbital(rng, grid)
    psi = random_state(rng, 4, 3)
    wd = occupation_weights(psi, phi)
    a, b = alpha_of(wd), beta_of(wd)
    assert a <= b + 1e-12
    assert b <= np.sqrt(max(a, 0.0)) + 1e-9
    assert wd.weights.sum() == pytest.approx(1.0, abs=1e-8)


def _lagrange_weights_per_k(A, amps, N):
    """The Lagrange route one filter polynomial at a time:
    w_k = <Psi, prod_{l != k} (A - l)/(k - l) Psi>, N (N + 1) products."""
    w = np.empty(N + 1)
    for k in range(N + 1):
        v = amps.copy()
        for l in range(N + 1):
            if l != k:
                v = (A @ v - l * v) / (k - l)
        w[k] = np.real(np.vdot(amps, v))
    return w


@pytest.mark.parametrize("M,N", [(2, 12), (3, 12), (8, 6)])
def test_factorial_moments_match_per_k_product_form(rng, M, N):
    phi = random_orbital(rng, Grid(M, 1.0))
    psi = random_state(rng, M, N)
    A = second_quantize_onebody(condensate_projectors(phi)[1], psi.basis)
    got = factorial_moment_weights(A, psi.amps, N)
    want = _lagrange_weights_per_k(A, psi.amps, N)
    assert np.max(np.abs(got - want)) <= 1e-10


@pytest.mark.parametrize("theta", [0.3, 0.8, 1.2, np.pi / 2])
def test_weights_match_binomial_oracle(rng, theta):
    # chi = cos(theta) phi + sin(theta) eta with eta orthogonal to phi: each
    # particle of chi^(x)N is outside phi with probability s = sin^2(theta)
    M, N = 4, 9
    grid = Grid(M, 1.0)
    phi = random_orbital(rng, grid)
    eta = random_orbital(rng, grid).values
    eta = Orbital.normalized(grid, eta - grid.spacing * np.vdot(phi.values, eta) * phi.values)
    chi = Orbital.normalized(grid, np.cos(theta) * phi.values + np.sin(theta) * eta.values)
    psi = product_state(chi, enumerate_basis(M, N))
    s = np.sin(theta) ** 2
    want = np.array([math.comb(N, k) * s**k * (1 - s) ** (N - k) for k in range(N + 1)])
    A = second_quantize_onebody(condensate_projectors(phi)[1], psi.basis)
    assert np.max(np.abs(factorial_moment_weights(A, psi.amps, N) - want)) <= 1e-12
    assert np.max(np.abs(occupation_weights(psi, phi).weights - want)) <= CROSS_CHECK_TOL


def test_cross_check_fires_on_perturbed_moment_solve(rng, monkeypatch):
    phi = random_orbital(rng, Grid(4, 1.0))
    psi = random_state(rng, 4, 3)
    occupation_weights(psi, phi)  # the unperturbed routes agree

    def perturbed(A, amps, N):
        w = moment_weights(A, amps, N)
        w[1] += 1e-3
        return w

    monkeypatch.setattr(condensate, "moment_weights", perturbed)
    with pytest.raises(NumericalFailure, match="disagree"):
        occupation_weights(psi, phi)


def test_cross_check_fires_on_perturbed_factorial_moments(rng, monkeypatch):
    phi = random_orbital(rng, Grid(4, 1.0))
    psi = random_state(rng, 4, 3)
    occupation_weights(psi, phi)  # the unperturbed routes agree

    def perturbed(A, amps, N):
        w = factorial_moment_weights(A, amps, N)
        w[1] += 1e-3
        return w

    monkeypatch.setattr(condensate, "factorial_moment_weights", perturbed)
    with pytest.raises(NumericalFailure, match="disagree"):
        occupation_weights(psi, phi)


@pytest.mark.parametrize("N", [1, 4, MAX_N])
def test_one_call_makes_2n_products(rng, monkeypatch, N):
    phi = random_orbital(rng, Grid(3, 1.0))
    psi = random_state(rng, 3, N)
    ops = []

    def counted(q, basis):
        ops.append(CountingOperator(second_quantize_onebody(q, basis)))
        return ops[-1]

    monkeypatch.setattr(condensate, "second_quantize_onebody", counted)
    occupation_weights(psi, phi)
    assert [op.products for op in ops] == [2 * N]


def test_weights_capped_at_max_n(rng):
    grid = Grid(2, 1.0)
    phi = random_orbital(rng, grid)
    psi = random_state(rng, 2, MAX_N + 1)
    with pytest.raises(ConfigError):
        occupation_weights(psi, phi)


@pytest.mark.parametrize("M", [2, 3, 4])
def test_weights_hold_at_max_n(rng, M):
    # the cap is where the moment solve still passes the factorial-moment cross-check
    for _ in range(10):
        phi = random_orbital(rng, Grid(M, 1.0))
        wd = occupation_weights(random_state(rng, M, MAX_N), phi)
        assert wd.n_particles == MAX_N


def test_tensor_sector_projectors_resolution(rng):
    grid = Grid(3, 1.0)
    phi = random_orbital(rng, grid)
    N = 3
    Pk = tensor_sector_projectors(phi, N)
    dim = 3**N
    total = sum(Pk)
    assert np.allclose(total, np.eye(dim), atol=1e-12)
    for i, P in enumerate(Pk):
        assert np.allclose(P @ P, P, atol=1e-12)
        for j in range(i + 1, N + 1):
            assert np.allclose(P @ Pk[j], 0.0, atol=1e-12)


def test_hat_f_identity_on_symmetric_states(rng):
    # <Psi, f-hat q_1 Psi> = <Psi, f-hat m-hat Psi> for symmetric Psi:
    # the m weight function averages q over the N particle slots
    M, N = 3, 3
    grid = Grid(M, 1.0)
    phi = random_orbital(rng, grid)
    psi = random_state(rng, M, N)
    U = occupation_to_tensor_isometry(psi.basis)
    big = U @ psi.amps
    _, q = condensate_projectors(phi)
    q1 = np.kron(q, np.eye(M**2))
    m_hat = tensor_hat_f(weight_function_m(N), phi, N)
    for f in (
        np.ones(N + 1),
        weight_function_n(N),
        np.array([0.0, 1.0, 1.0 / np.sqrt(2.0 / N), 1.0 / np.sqrt(3.0 / N)]),
    ):
        f_hat = tensor_hat_f(f, phi, N)
        lhs = np.vdot(big, f_hat @ (q1 @ big))
        rhs = np.vdot(big, f_hat @ (m_hat @ big))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_weights_equal_tensor_projector_weights(rng):
    M, N = 3, 3
    grid = Grid(M, 1.0)
    phi = random_orbital(rng, grid)
    psi = random_state(rng, M, N)
    U = occupation_to_tensor_isometry(psi.basis)
    big = U @ psi.amps
    Pk = tensor_sector_projectors(phi, N)
    oracle = np.array([np.vdot(big, P @ big).real for P in Pk])
    wd = occupation_weights(psi, phi)
    assert np.allclose(wd.weights, oracle, atol=1e-8)
