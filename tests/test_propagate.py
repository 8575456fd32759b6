import re

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from mfdyn import propagate
from mfdyn.checks import DENSE_ORACLE_CAP, exact_propagator
from mfdyn.errors import ConfigError, NumericalFailure
from mfdyn.fock import ManyBodyState, build_HN, enumerate_basis, product_state
from mfdyn.harness import make_config, run_simulation
from mfdyn.lattice import Grid, sample_interaction
from mfdyn.onebody import build_h, gaussian_orbital
from mfdyn.propagate import (
    KRYLOV_MAXDIM,
    MAX_HALVINGS,
    NBodyStepper,
    PropagatorConfig,
    expectation,
    lanczos_expm_apply,
)

from conftest import CountingOperator, random_orbital


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
    with pytest.raises(ConfigError):
        PropagatorConfig(dt=1e-3, steps=1, method="dense")  # exact stepping is in checks


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


def three_term_lanczos_expm(H, v, dt, maxdim, tol):
    """The oracle for the stopping rule: Lanczos by the three-term
    recurrence plus one full reorthogonalisation pass, with an eigh of T_j
    at every j, as the propagator ran before it skipped provably
    unconverged checks."""
    V = np.empty((maxdim, v.shape[0]), dtype=complex)
    T = np.zeros((maxdim, maxdim))
    nrm = np.linalg.norm(v)
    if nrm == 0:
        return v.copy()
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
        w -= np.conj(V[: j + 1] @ np.conj(w)) @ V[: j + 1]
    raise NumericalFailure(f"Lanczos exponential did not converge within maxdim={maxdim}")


def random_hermitian(rng, dim):
    A = sp.random(dim, dim, density=min(1.0, 5.0 / dim), format="csr", random_state=rng)
    A = A + 1j * sp.random(dim, dim, density=min(1.0, 5.0 / dim), format="csr", random_state=rng)
    return (A + A.conj().T).tocsr()


def run_counted(f, H, v, dt, tol, maxdim=KRYLOV_MAXDIM):
    op = CountingOperator(H)
    try:
        return f(op, v, dt, maxdim, tol), op.products
    except NumericalFailure as exc:
        return exc, op.products


@pytest.mark.parametrize("tol", [1e-12, 1e-8])
@pytest.mark.parametrize("dt", [1e-3, 0.05, 1.0, 50.0])
@pytest.mark.parametrize("dim", [1, 2, 5, 40, 330])
def test_stopping_dimension_matches_three_term_oracle(monkeypatch, rng, dim, dt, tol):
    # skipping the small eigh where a bound proves the step unconverged may
    # not move the stopping dimension: the same products, the same result
    H = random_hermitian(rng, dim)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    eigh, eighs = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda T: eighs.append(T.shape) or eigh(T))
    got, n_got = run_counted(lanczos_expm_apply, H, v, dt, tol)
    if dt == 1e-3:  # dt ||H|| << 1: the bound decides every check but the last
        assert eighs == [(n_got, n_got)]
    monkeypatch.undo()
    want, n_want = run_counted(three_term_lanczos_expm, H, v, dt, tol)
    assert n_got == n_want, (n_got, n_want)
    if isinstance(want, NumericalFailure):
        assert isinstance(got, NumericalFailure) and str(got) == str(want)
    else:
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_one_eigh_per_step_on_a_lattice_hamiltonian(monkeypatch):
    # H_N's diagonal sits far from 0 (||T_j|| is about 10 at M=8, N=4), so
    # the bound decides every check before the last only on T_j - c
    grid = Grid(8, 1.0)
    w = sample_interaction(grid, "gaussian", lam=1.0, sigma=1.0)
    basis = enumerate_basis(8, 4)
    H = build_HN(build_h(grid), w, basis)
    amps = product_state(gaussian_orbital(grid, 3.0, 1.0), basis).amps
    stepper = NBodyStepper(H, PropagatorConfig(dt=1e-3, steps=20, krylov_tol=1e-12))
    eigh, calls = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda T: calls.append(T.shape) or eigh(T))
    for _ in range(20):
        amps = stepper.step(amps)
    assert len(calls) == 20


@pytest.mark.parametrize("dt", [50.0, 1e6])
def test_large_dt_still_ends_in_the_maxdim_failure(rng, dt):
    # dt ||T|| >= 1 leaves the Taylor bound unused (its x^j e^x would
    # overflow at dt = 1e6), so every j takes the eigh route, and an
    # unconverged subspace still raises after maxdim products
    H = random_hermitian(rng, 330)
    v = rng.normal(size=330) + 1j * rng.normal(size=330)
    for f in (lanczos_expm_apply, three_term_lanczos_expm):
        failure, products = run_counted(f, H, v, dt, 1e-8)
        assert isinstance(failure, NumericalFailure)
        assert "maxdim=40" in str(failure) and products == KRYLOV_MAXDIM


def test_bound_keeps_a_stop_its_leading_term_would_miss():
    # Off resonance, |y_3[-1]| lies below its leading Taylor term. With tol
    # between the two, the step must stop at j = 3: a bound without the
    # remainder x^j e^x / j! would skip that check and take a fourth product.
    dt, beta = 0.05, 1.0
    T = np.diag([0.0, 10.0, 20.0, 30.0, 40.0]) + np.diag([beta] * 4, 1) + np.diag([beta] * 4, -1)
    e1 = np.eye(5, dtype=complex)[0]
    true = abs(scipy.linalg.expm(-1j * dt * T[:3, :3])[2, 0])
    lead = dt**2 * beta**2 / 2
    assert true < lead
    tol = beta * dt * (true + lead) / 2
    for f in (lanczos_expm_apply, three_term_lanczos_expm):
        _, products = run_counted(f, T, e1, dt, tol)
        assert products == 3, f


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
    got = exact_propagator(H, 0.3) @ psi0.amps
    want = scipy.linalg.expm(-1j * 0.3 * H.toarray()) @ psi0.amps
    assert np.allclose(got, want, atol=1e-11)


def test_dense_eig_cap():
    with pytest.raises(ConfigError, match="exceeds cap"):
        exact_propagator(sp.identity(DENSE_ORACLE_CAP + 1, format="csr"), 1e-2)


def test_krylov_and_dense_paths_agree(small_system):
    H, psi0 = small_system
    krylov = NBodyStepper(H, PropagatorConfig(dt=1e-2, steps=50, krylov_tol=1e-13))
    exact = exact_propagator(H, 1e-2)
    amps_k = amps_d = psi0.amps
    for _ in range(50):
        amps_k, amps_d = krylov.step(amps_k), exact @ amps_d
    assert np.allclose(amps_k, amps_d, atol=1e-10)


@pytest.fixture(scope="module")
def lattice_M8N4():
    # the benchmark's sim-M8N4 problem: ||H|| is about 16.5
    grid = Grid(8, 1.0)
    w = sample_interaction(grid, "gaussian", lam=1.0, sigma=1.0)
    basis = enumerate_basis(8, 4)
    H = build_HN(build_h(grid), w, basis)
    return H, product_state(gaussian_orbital(grid, 4.0, 1.0), basis).amps


@pytest.mark.parametrize("dt", [5.0, 50.0])
def test_long_steps_split_and_match_the_exact_oracle(monkeypatch, lattice_M8N4, dt):
    H, amps = lattice_M8N4
    with pytest.raises(NumericalFailure, match="maxdim=40"):
        lanczos_expm_apply(H, amps, dt, KRYLOV_MAXDIM, 1e-12)
    lanczos, calls = propagate._lanczos_expm, []

    def record(H, v, sub_dt, *args):
        calls.append((sub_dt, "unconverged"))
        out = lanczos(H, v, sub_dt, *args)
        calls[-1] = (sub_dt, "converged")
        return out

    monkeypatch.setattr(propagate, "_lanczos_expm", record)
    got = NBodyStepper(H, PropagatorConfig(dt=dt, steps=1, krylov_tol=1e-12)).step(amps)
    assert np.linalg.norm(got - exact_propagator(H, dt) @ amps) <= 1e-10
    # dt, dt/2, ... fail until dt/2^k converges; the other 2^k - 1 sub-steps
    # start at that k and, here, converge too
    k = [status for _, status in calls].index("converged")
    assert 0 < k <= MAX_HALVINGS
    assert calls == [(dt / 2**n, "unconverged") for n in range(k)] + [
        (dt / 2**k, "converged")
    ] * 2**k


def test_unconverged_sub_step_past_the_halving_cap_raises(lattice_M8N4):
    # dt / 2^MAX_HALVINGS is still about 1e3: no 40-vector space follows it
    H, amps = lattice_M8N4
    stepper = NBodyStepper(H, PropagatorConfig(dt=1e6, steps=1, krylov_tol=1e-12))
    message = rf"maxdim=40, even in 2\^{MAX_HALVINGS} sub-steps"
    with pytest.raises(NumericalFailure, match=message):
        stepper.step(amps)


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


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_stepper_names_nonfinite_amplitudes(small_system):
    H, psi0 = small_system
    stepper = NBodyStepper(H, PropagatorConfig(dt=1e-2, steps=1))
    for bad in (np.nan, np.inf):
        amps = psi0.amps.copy()
        amps[1] = bad
        with pytest.raises(NumericalFailure, match="nonfinite amplitudes"):
            stepper.step(amps)


def test_stepper_unitarity_tolerance(small_system):
    H, psi0 = small_system
    stepper = NBodyStepper(H, PropagatorConfig(dt=1e-2, steps=1))
    with pytest.raises(NumericalFailure, match=re.escape("beyond the unitarity tolerance")):
        stepper.step((1.0 + 1e-6) * psi0.amps)
    assert abs(np.linalg.norm(stepper.step(psi0.amps)) - 1.0) < 1e-12


def test_manybody_state_shape_check():
    basis = enumerate_basis(3, 2)
    with pytest.raises(ConfigError):
        ManyBodyState(basis, np.ones(basis.dim + 1))
