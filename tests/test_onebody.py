import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfdyn.errors import ConfigError
from mfdyn.lattice import Grid, sample_interaction
from mfdyn.onebody import (
    HartreeStepper,
    Orbital,
    build_h,
    condensate_projectors,
    evolve_hartree,
    gaussian_orbital,
    ground_state,
    harmonic_potential,
    hartree_energy,
    mean_field_potential,
)

from conftest import random_orbital


def test_orbital_normalization(grid6):
    with pytest.raises(ConfigError):
        Orbital(grid6, np.ones(6))  # |phi|^2 integrates to 6, not 1
    phi = Orbital.normalized(grid6, np.ones(6))
    assert phi.field().is_normalized
    assert np.linalg.norm(phi.mode) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ConfigError):
        Orbital.normalized(grid6, np.zeros(6))


def test_build_h_hermitian_and_potential(grid8):
    v = harmonic_potential(grid8, omega=2.0)
    h = build_h(grid8, v)
    assert np.allclose(h, h.T)
    h0 = build_h(grid8)
    assert np.allclose(h - h0, np.diag(v.values.real))
    # trap is centered at L/2 and even around it
    vals = v.values.real
    assert vals[grid8.sites // 2] == pytest.approx(0.0)
    assert vals[1] == pytest.approx(vals[-1])


def test_ground_state_is_lowest_eigenpair(grid8):
    h = build_h(grid8, harmonic_potential(grid8, omega=3.0))
    phi = ground_state(h, grid8)
    u = phi.mode
    e = np.real(np.vdot(u, h @ u))
    lam = np.linalg.eigvalsh(h)
    assert e == pytest.approx(lam[0], abs=1e-10)
    # Perron-Frobenius: nodeless ground state, fixed to positive sign
    assert np.all(phi.values.real > 0)


def test_gaussian_orbital_peak_and_norm(grid8):
    phi = gaussian_orbital(grid8, x0=2.0, sigma=0.5)
    assert phi.field().is_normalized
    assert int(np.argmax(np.abs(phi.values))) == int(round(2.0 / grid8.spacing))
    with pytest.raises(ConfigError):
        gaussian_orbital(grid8, x0=0.0, sigma=0.0)


def test_condensate_projectors(rng, grid6):
    phi = random_orbital(rng, grid6)
    p, q = condensate_projectors(phi)
    assert np.allclose(p @ p, p, atol=1e-12)
    assert np.allclose(q @ q, q, atol=1e-12)
    assert np.allclose(p @ q, 0.0, atol=1e-12)
    assert np.trace(p).real == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(p @ phi.mode, phi.mode, atol=1e-12)


def test_mean_field_potential_constant_kernel(grid6):
    phi = Orbital.normalized(grid6, np.exp(-np.arange(6.0)))
    w = sample_interaction(grid6, "constant", c=3.0)
    wphi = mean_field_potential(w, phi)
    # constant kernel sees only the total mass, which is 1
    assert np.allclose(wphi.values.real, 3.0, atol=1e-12)


def test_hartree_energy_free_plane_wave(grid6):
    # zero-momentum plane wave has zero kinetic energy
    phi = Orbital.normalized(grid6, np.ones(6))
    h = build_h(grid6)
    w = sample_interaction(grid6, "constant", c=2.0)
    assert hartree_energy(phi, h, w) == pytest.approx(1.0, abs=1e-12)  # 0 + c/2


def test_hartree_plane_wave_exact(grid6):
    # |phi|^2 uniform => the nonlinearity is a constant phase; the profile is
    # stationary for the zero-momentum plane wave
    phi0 = Orbital.normalized(grid6, np.ones(6))
    w = sample_interaction(grid6, "gaussian", lam=1.0, sigma=1.0)
    orbitals = evolve_hartree(grid6, None, w, phi0, dt=1e-2, steps=200)
    rho_t = np.abs(orbitals[-1].values) ** 2
    assert np.allclose(rho_t, np.abs(phi0.values) ** 2, atol=1e-12)


def test_hartree_mass_conservation(grid6, gaussian_w):
    phi0 = gaussian_orbital(grid6, x0=3.0, sigma=0.7)
    orbitals = evolve_hartree(grid6, None, gaussian_w, phi0, dt=1e-3, steps=500)
    for orb in orbitals[::50]:
        assert orb.field().is_normalized or abs(
            grid6.spacing * np.sum(np.abs(orb.values) ** 2) - 1
        ) < 1e-10


def test_hartree_energy_drift_second_order(grid6, gaussian_w):
    h = build_h(grid6)
    phi0 = gaussian_orbital(grid6, x0=3.0, sigma=0.7)

    def drift(dt, steps):
        orbitals = evolve_hartree(grid6, None, gaussian_w, phi0, dt, steps)
        e = np.array([hartree_energy(o, h, gaussian_w) for o in orbitals])
        return float(np.max(np.abs(e - e[0])))

    d1 = drift(4e-3, 250)
    d2 = drift(2e-3, 500)
    assert d1 < 1e-6
    assert d2 < d1 / 2.5  # at least ~O(dt^2) improvement


def test_strang_splitting_second_order_in_state(grid6, gaussian_w):
    phi0 = gaussian_orbital(grid6, x0=2.0, sigma=0.8)
    T = 0.5

    def solve(dt):
        steps = int(round(T / dt))
        return evolve_hartree(grid6, None, gaussian_w, phi0, dt, steps)[-1].values

    ref = solve(T / 3200)
    e1 = np.linalg.norm(solve(T / 100) - ref)
    e2 = np.linalg.norm(solve(T / 200) - ref)
    ratio = e1 / e2
    assert 3.0 < ratio < 5.0  # second-order convergence gives ~4


def test_stepper_rejects_bad_dt(grid6, gaussian_w):
    with pytest.raises(ConfigError):
        HartreeStepper(grid6, None, gaussian_w, dt=0.0)


@settings(deadline=None, max_examples=15)
@given(st.integers(0, 2**31 - 1))
def test_hartree_time_reversal(seed):
    rng = np.random.default_rng(seed)
    g = Grid(6, 1.0)
    w = sample_interaction(g, "gaussian", lam=1.0, sigma=1.0)
    phi0 = random_orbital(rng, g)
    stepper = HartreeStepper(g, None, w, dt=1e-3)
    vals = phi0.values
    for k in range(50):
        vals = stepper.step(vals, k * 1e-3)
    # conjugation reverses time for the real kernel
    back = np.conj(vals)
    for k in range(50):
        back = stepper.step(back, k * 1e-3)
    assert np.allclose(np.conj(back), phi0.values, atol=1e-9)
