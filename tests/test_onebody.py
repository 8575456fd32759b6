import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfdyn.errors import ConfigError, NumericalFailure
from mfdyn.lattice import Grid, LatticeField, sample_interaction
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
    assert abs(grid6.spacing * np.sum(np.abs(phi.values) ** 2) - 1.0) < 1e-12
    assert np.linalg.norm(phi.mode) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ConfigError):
        Orbital.normalized(grid6, np.zeros(6))
    # normalized values that do not fit the grid: refused as a field is
    grid = Grid(8, 1.0)
    with pytest.raises(ConfigError, match=re.escape("(6,) values for a grid of 8 sites")):
        Orbital(grid, np.ones(6) / np.sqrt(6))
    with pytest.raises(ConfigError, match=re.escape("(2, 4) values for a grid of 8 sites")):
        Orbital(grid, np.ones((2, 4)) / np.sqrt(8))
    with pytest.raises(ConfigError, match=re.escape("(6,) values for a grid of 8 sites")):
        Orbital.normalized(grid, np.ones(6))


def test_orbital_rejects_nan():
    # a NaN norm is not within any tolerance of 1
    with pytest.raises(ConfigError, match="not normalized"):
        Orbital(Grid(4, 1.0), [np.nan] * 4)


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
    assert abs(grid8.spacing * np.sum(np.abs(phi.values) ** 2) - 1.0) < 1e-12
    assert int(np.argmax(np.abs(phi.values))) == int(round(2.0 / grid8.spacing))
    with pytest.raises(ConfigError):
        gaussian_orbital(grid8, x0=0.0, sigma=0.0)


@pytest.mark.filterwarnings("error")
def test_gaussian_orbital_wider_than_the_float_range_is_flat(grid8):
    # sigma^2 overflows to inf, not to an OverflowError
    phi = gaussian_orbital(grid8, x0=0.0, sigma=1e200)
    assert np.allclose(phi.values, 1 / np.sqrt(grid8.length), rtol=0, atol=1e-15)


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
    flow = evolve_hartree(None, w, phi0, dt=1e-2, steps=200)
    rho_t = np.abs(flow[-1]) ** 2
    assert np.allclose(rho_t, np.abs(phi0.values) ** 2, atol=1e-12)


def test_hartree_mass_conservation(grid6, gaussian_w):
    phi0 = gaussian_orbital(grid6, x0=3.0, sigma=0.7)
    flow = evolve_hartree(None, gaussian_w, phi0, dt=1e-3, steps=500)
    for values in flow[::50]:
        assert abs(grid6.spacing * np.sum(np.abs(values) ** 2) - 1.0) < 1e-10


def test_hartree_energy_drift_second_order(grid6, gaussian_w):
    h = build_h(grid6)
    phi0 = gaussian_orbital(grid6, x0=3.0, sigma=0.7)

    def drift(dt, steps):
        flow = evolve_hartree(None, gaussian_w, phi0, dt, steps)
        e = np.array([hartree_energy(Orbital(grid6, values), h, gaussian_w) for values in flow])
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
        return evolve_hartree(None, gaussian_w, phi0, dt, steps)[-1]

    ref = solve(T / 3200)
    e1 = np.linalg.norm(solve(T / 100) - ref)
    e2 = np.linalg.norm(solve(T / 200) - ref)
    ratio = e1 / e2
    assert 3.0 < ratio < 5.0  # second-order convergence gives ~4


def test_uniform_drive_is_a_pure_phase(grid6, gaussian_w):
    # v(t) = c(t) everywhere commutes with the flow and leaves |phi|^2 alone,
    # so each step multiplies by exp(-i dt c) at the step's midpoint
    def c(t):
        return 2.0 + np.sin(3.0 * t)

    def drive(t):
        return LatticeField(grid6, np.full(grid6.sites, c(t)))

    phi0 = gaussian_orbital(grid6, x0=2.0, sigma=0.8)
    dt, steps = 0.05, 20
    driven = evolve_hartree(drive, gaussian_w, phi0, dt, steps)
    free = evolve_hartree(None, gaussian_w, phi0, dt, steps)
    mids = dt * (np.arange(steps) + 0.5)
    for k in range(steps + 1):
        phase = np.exp(-1j * dt * sum(c(t) for t in mids[:k]))
        assert np.max(np.abs(driven[k] - phase * free[k])) < 1e-12, k


@pytest.mark.parametrize("drive", ["none", "static", "callable"])
def test_flow_array_equals_stepping_by_hand(grid8, drive):
    # the array of evolve_hartree holds exactly what HartreeStepper gives
    # step by step, each row a normalized orbital
    w = sample_interaction(grid8, "invsquare", lam=1.0)
    trap = harmonic_potential(grid8, 2.0)
    v = {"none": None, "static": trap, "callable": lambda t: trap}[drive]
    phi0 = gaussian_orbital(grid8, x0=1.5, sigma=0.6)
    dt, steps = 2e-3, 40
    flow = evolve_hartree(v, w, phi0, dt, steps)
    assert flow.shape == (steps + 1, grid8.sites)
    stepper = HartreeStepper(v, w, dt)
    vals = phi0.values
    assert np.array_equal(flow[0], vals)
    for k in range(steps):
        vals = stepper.step(vals, k * dt)
        assert np.array_equal(flow[k + 1], vals), k
        Orbital(grid8, flow[k + 1])


@pytest.mark.parametrize("k", [0, 7, 19])
def test_flow_names_the_first_nonfinite_step(monkeypatch, grid6, gaussian_w, k):
    # the steps themselves no longer check; evolve_hartree checks the whole
    # flow once and names the step that first produced a nonfinite amplitude
    dt, steps = 1e-2, 20
    step = HartreeStepper.step

    def step_nan_from_k(self, values, t):
        out = step(self, values, t)
        return np.full_like(out, np.nan) if t >= k * dt else out

    monkeypatch.setattr(HartreeStepper, "step", step_nan_from_k)
    phi0 = gaussian_orbital(grid6, x0=2.0, sigma=0.8)
    with pytest.raises(NumericalFailure, match=re.escape(f"nonfinite amplitudes at t={k * dt}")):
        evolve_hartree(None, gaussian_w, phi0, dt, steps)


@pytest.mark.parametrize(
    "k, gradual", [(0, False), (7, False), (18, False), (7, True)],
    ids=["0", "7", "18", "gradual-7"],
)
def test_flow_names_the_step_that_lost_normalization(
    monkeypatch, grid6, gaussian_w, k, gradual
):
    # the step from t = k dt doubles its output and the next one halves it,
    # so only the orbital at t = (k + 1) dt has |phi|^2 = 4; or, gradually,
    # every step from t = k dt on grows |phi|^2 by about 2e-6, so the drift
    # is largest at the last row. Either way the failure names the start of
    # the step that produced the first row off, as a nonfinite one does
    dt, steps = 1e-2, 20
    step = HartreeStepper.step

    def step_scaled_from_k(self, values, t):
        out = step(self, values, t)
        if gradual:
            return out * (1.0 + 1e-6) if round(t / dt) >= k else out
        return out * {k: 2.0, k + 1: 0.5}.get(round(t / dt), 1.0)

    monkeypatch.setattr(HartreeStepper, "step", step_scaled_from_k)
    phi0 = gaussian_orbital(grid6, x0=2.0, sigma=0.8)
    with pytest.raises(NumericalFailure, match=rf"lost normalization: .* at t={k * dt}$"):
        evolve_hartree(None, gaussian_w, phi0, dt, steps)


def operands_on(grid: Grid) -> dict:
    """A trap v, an interaction w, an orbital phi0 and h = build_h(grid, v)."""
    v = harmonic_potential(grid, omega=1.0)
    return {
        "v": v,
        "w": sample_interaction(grid, "gaussian", lam=1.0, sigma=1.0),
        "phi0": gaussian_orbital(grid, x0=4.0, sigma=1.0),
        "h": build_h(grid, v),
    }


SOLVE_GRID = Grid(8, 1.0)
# each call, handed operands of SOLVE_GRID but for one taken from another grid
GRID_CALLS = {
    "evolve_hartree": lambda o: evolve_hartree(o["v"], o["w"], o["phi0"], 1e-3, 2),
    "HartreeStepper": lambda o: HartreeStepper(o["v"], o["w"], 1e-3),
    "build_h": lambda o: build_h(SOLVE_GRID, o["v"]),
    "hartree_energy": lambda o: hartree_energy(o["phi0"], o["h"], o["w"]),
}


@pytest.mark.parametrize(
    "call,odd,other",
    [
        pytest.param(call, odd, other, id=f"{call}-{odd}-{kind}")
        for call, odd in [
            ("evolve_hartree", "w"),
            ("evolve_hartree", "v"),
            ("evolve_hartree", "phi0"),
            ("HartreeStepper", "v"),
            ("build_h", "v"),
            ("hartree_energy", "h"),
        ]
        for kind, other in [("sites", Grid(6, 1.0)), ("spacing", Grid(8, 0.5))]
        if not (odd == "h" and kind == "spacing")  # a bare 8 x 8 h carries no spacing
    ],
)
def test_an_operand_on_another_grid_is_refused(call, odd, other):
    operands = {**operands_on(SOLVE_GRID), odd: operands_on(other)[odd]}
    with pytest.raises(ConfigError) as refused:
        GRID_CALLS[call](operands)
    if odd == "h":
        assert "operator shape (6, 6) does not match M=8" in str(refused.value)
    else:
        assert str(SOLVE_GRID) in str(refused.value) and str(other) in str(refused.value)


def test_stepper_rejects_bad_dt(grid6, gaussian_w):
    with pytest.raises(ConfigError):
        HartreeStepper(None, gaussian_w, dt=0.0)


@settings(deadline=None, max_examples=15)
@given(st.integers(0, 2**31 - 1))
def test_hartree_time_reversal(seed):
    rng = np.random.default_rng(seed)
    g = Grid(6, 1.0)
    w = sample_interaction(g, "gaussian", lam=1.0, sigma=1.0)
    phi0 = random_orbital(rng, g)
    stepper = HartreeStepper(None, w, dt=1e-3)
    vals = phi0.values
    for k in range(50):
        vals = stepper.step(vals, k * 1e-3)
    # conjugation reverses time for the real kernel
    back = np.conj(vals)
    for k in range(50):
        back = stepper.step(back, k * 1e-3)
    assert np.allclose(np.conj(back), phi0.values, atol=1e-9)
