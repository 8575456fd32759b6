import numpy as np
import pytest
import scipy.linalg

from mfdyn.errors import ConfigError, NumericalFailure
from mfdyn.fock import ManyBodyState, build_HN, enumerate_basis, product_state
from mfdyn.harness import make_config, run_simulation
from mfdyn.lattice import Grid, sample_interaction
from mfdyn.onebody import build_h
from mfdyn.propagate import (
    DenseEigPropagator,
    NBodyStepper,
    PropagatorConfig,
    expectation,
    lanczos_expm_apply,
)

from conftest import random_orbital


@pytest.fixture
def small_system(rng):
    grid = Grid(4, 1.0)
    w = sample_interaction(grid, "gaussian", lam=1.0, sigma=1.0)
    h = build_h(grid)
    basis = enumerate_basis(4, 3)
    H = build_HN(h, w, basis)
    phi = random_orbital(rng, grid)
    psi0 = product_state(phi, basis)
    return H, psi0


def test_config_validation():
    with pytest.raises(ConfigError):
        PropagatorConfig(dt=0.0, steps=1)
    with pytest.raises(ConfigError):
        PropagatorConfig(dt=1e-3, steps=-1)
    with pytest.raises(ConfigError):
        PropagatorConfig(dt=1e-3, steps=1, method="magic")


def test_expectation_energy_real(small_system):
    H, psi0 = small_system
    e = expectation(psi0, H)
    assert abs(e.imag) < 1e-12
    with pytest.raises(ConfigError):
        expectation(psi0, np.eye(2))


def test_lanczos_matches_scipy_expm(small_system):
    H, psi0 = small_system
    dt = 0.05
    got = lanczos_expm_apply(H, psi0.amps, dt, maxdim=40, tol=1e-12)
    want = scipy.linalg.expm(-1j * dt * H.toarray()) @ psi0.amps
    assert np.allclose(got, want, atol=1e-11)


@pytest.mark.parametrize("dt", [1e-3, 0.05, 1.0, 50.0])
def test_tridiagonal_exponential_matches_scipy_expm(rng, dt):
    # Lanczos from e_1 on a symmetric tridiagonal T reproduces T up to the
    # signs of its off-diagonal, and with tol=0 it stops only on the happy
    # breakdown at j = dim, so the result is exp(-i dt T) e_1 from the
    # eigendecomposition of the whole of T.
    for j in range(1, 13):
        T = np.diag(rng.normal(size=j)) + np.diag(rng.normal(size=j - 1), 1)
        T = T + np.triu(T, 1).T
        e1 = np.eye(j, dtype=complex)[0]
        got = lanczos_expm_apply(T, e1, dt, maxdim=j, tol=0.0)
        want = scipy.linalg.expm(-1j * dt * T)[:, 0]
        assert np.max(np.abs(got - want)) <= 1e-12, (j, dt)


def test_step_loop_never_calls_scipy_expm(monkeypatch):
    # scipy's expm runs on scipy's own OpenBLAS pool; calling it between
    # numpy's small BLAS calls in the step loop slows every one of them
    def refuse(*args, **kwargs):
        raise AssertionError("scipy.linalg.expm called")

    monkeypatch.setattr(scipy.linalg, "expm", refuse)
    cfg = make_config(sites=4, particles=3, tfinal=0.02, dt=1e-3, stride=5)
    assert len(run_simulation(cfg).records) == 5


def test_lanczos_zero_vector(small_system):
    H, psi0 = small_system
    z = np.zeros_like(psi0.amps)
    assert np.allclose(lanczos_expm_apply(H, z, 0.1, 40, 1e-12), z)


def test_lanczos_unconverged_raises(small_system):
    H, psi0 = small_system
    with pytest.raises(NumericalFailure):
        # a 2-vector subspace cannot capture exp(-i dt H) at large dt
        lanczos_expm_apply(H, psi0.amps, 50.0, maxdim=2, tol=1e-14)


def test_dense_eig_propagator_matches_expm(small_system):
    H, psi0 = small_system
    prop = DenseEigPropagator(H)
    got = prop.apply(psi0.amps, 0.3)
    want = scipy.linalg.expm(-1j * 0.3 * H.toarray()) @ psi0.amps
    assert np.allclose(got, want, atol=1e-11)


def test_dense_eig_cap():
    with pytest.raises(ConfigError):
        DenseEigPropagator(np.eye(3001))


def test_krylov_and_dense_paths_agree(small_system):
    H, psi0 = small_system
    krylov = NBodyStepper(H, PropagatorConfig(dt=1e-2, steps=50, krylov_tol=1e-13))
    dense = NBodyStepper(H, PropagatorConfig(dt=1e-2, steps=50, method="dense"))
    amps_k = amps_d = psi0.amps
    for _ in range(50):
        amps_k, amps_d = krylov.step(amps_k), dense.step(amps_d)
    assert np.allclose(amps_k, amps_d, atol=1e-10)


def test_evolution_unitary_and_energy_conserving(small_system):
    H, psi0 = small_system
    stepper = NBodyStepper(H, PropagatorConfig(dt=1e-2, steps=100, krylov_tol=1e-12))
    e0 = expectation(psi0, H).real
    amps = psi0.amps
    for k in range(100 + 1):
        if k > 0:
            amps = stepper.step(amps)
        if k % 10 == 0:
            s = ManyBodyState(psi0.basis, amps)
            assert abs(np.linalg.norm(s.amps) - 1.0) < 1e-10
            assert abs(expectation(s, H).real - e0) < 1e-10


def test_time_reversal(small_system):
    H, psi0 = small_system
    fwd = psi0.amps
    stepper = NBodyStepper(H, PropagatorConfig(dt=1e-2, steps=1, krylov_tol=1e-13))
    for _ in range(30):
        fwd = stepper.step(fwd)
    back = NBodyStepper(H, PropagatorConfig(dt=1e-2, steps=1, krylov_tol=1e-13))
    amps = np.conj(fwd)
    for _ in range(30):
        amps = back.step(amps)
    assert np.allclose(np.conj(amps), psi0.amps, atol=1e-10)


def test_stepper_detects_norm_drift(small_system):
    H, psi0 = small_system
    stepper = NBodyStepper(H, PropagatorConfig(dt=1e-2, steps=1))
    with pytest.raises(NumericalFailure):
        stepper.step(2.0 * psi0.amps)  # non-normalized input trips the check


def test_manybody_state_shape_check():
    basis = enumerate_basis(3, 2)
    with pytest.raises(ConfigError):
        ManyBodyState(basis, np.ones(basis.dim + 1))
