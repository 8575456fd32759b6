import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfdyn.bounds import (
    beta_bound_envelope,
    conjugate_q,
    energies,
    envelope_integrand,
    eta_of,
    fitted_K,
    gronwall_alpha_bound,
    p0_of,
    phi_envelope_integral,
    phi_tilde_integral,
    phi_tilde_integrand,
    sobolev_sup_norm,
    wnorm_upper_bound,
)
from mfdyn.checks import pair_interaction_expectation
from mfdyn.errors import ConfigError
from mfdyn.fock import build_HN, enumerate_basis, product_state
from mfdyn.lattice import Grid, LatticeField, lp_norm, sample_interaction
from mfdyn.onebody import build_h, evolve_hartree, gaussian_orbital

from conftest import random_orbital


def test_p0_values():
    assert p0_of(3) == Fraction(6, 5)
    assert p0_of(1) == Fraction(2, 3)
    assert p0_of(2) == Fraction(1, 1)
    with pytest.raises(ConfigError):
        p0_of(0)


def test_eta_checkpoints_exact():
    assert eta_of(Fraction(3, 2), 3) == Fraction(1, 3)
    assert eta_of(Fraction(2), 3) == Fraction(1, 2)
    assert isinstance(eta_of(Fraction(3, 2), 3), Fraction)


def test_eta_range_validation():
    with pytest.raises(ConfigError):
        eta_of(Fraction(6, 5), 3)  # p must exceed p0
    with pytest.raises(ConfigError):
        eta_of(Fraction(5, 2), 3)  # p must be <= 2


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 6), st.integers(1, 400))
def test_eta_monotone_and_bounded(d, k):
    p0 = p0_of(d)
    # sample two ordered points in (p0, 2]
    step = (Fraction(2) - p0) / 401
    p_lo = p0 + k * step
    p_hi = p_lo + step
    e_lo, e_hi = eta_of(p_lo, d), eta_of(p_hi, d)
    assert 0 < e_lo <= e_hi
    assert e_hi <= eta_of(Fraction(2), d)


def test_conjugate_q():
    assert conjugate_q(np.inf) == 2.0
    assert conjugate_q(2.0) == np.inf
    assert conjugate_q(4.0) == pytest.approx(4.0)
    # defining identity 1/2 = 1/p + 1/q
    for p in (2.5, 3.0, 6.0, 10.0):
        q = conjugate_q(p)
        assert 1 / p + 1 / q == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ConfigError):
        conjugate_q(1.5)


def test_wnorm_upper_bound_brute_force(rng):
    # oracle: scan a fine grid of cutoffs; the implementation minimizes over
    # its own cutoff list, so it must upper-bound the fine-scan minimum and
    # be bounded below by it minus nothing (it IS a valid split for each a)
    grid = Grid(10, 0.7)
    w = sample_interaction(grid, "random", seed=9)
    absw = np.abs(w.values)
    fine = np.linspace(0.0, float(absw.max()), 400)
    best = np.inf
    for a in fine:
        big = LatticeField(grid, np.where(absw > a, w.values, 0.0))
        small = LatticeField(grid, np.where(absw > a, 0.0, w.values))
        best = min(best, lp_norm(big, 2.0) + lp_norm(small, 6.0))
    got = wnorm_upper_bound(w, 2.0, 6.0, [0.0, 0.1, 0.2, 0.4, float(absw.max())])
    assert got >= best - 1e-12  # any coarse minimum upper-bounds the fine one
    # with the full value set as cutoffs it matches the discrete infimum
    exact = wnorm_upper_bound(w, 2.0, 6.0, sorted(set(absw.tolist()) | {0.0}))
    assert exact <= best + 1e-12


def test_wnorm_single_piece_reduces_to_lp(rng):
    grid = Grid(8, 0.5)
    w = sample_interaction(grid, "gaussian", lam=2.0, sigma=1.0)
    # cutoff 0 puts everything in the p1 piece; cutoff above max puts all in p2
    hi = float(np.abs(w.values).max()) + 1.0
    assert wnorm_upper_bound(w, 2.0, 4.0, [0.0]) == pytest.approx(lp_norm(w, 2.0))
    assert wnorm_upper_bound(w, 2.0, 4.0, [hi]) == pytest.approx(lp_norm(w, 4.0))
    with pytest.raises(ConfigError):
        wnorm_upper_bound(w, 2.0, 4.0, [])
    with pytest.raises(ConfigError):
        wnorm_upper_bound(w, 4.0, 2.0, [0.0])


def test_phi_integral_sup_norm_case(grid6, gaussian_w):
    # p1 = p2 = inf gives q1 = q2 = 2 and ||phi||_2 = 1, so the integrand is
    # the constant 64 ||w||_inf
    phi0 = gaussian_orbital(grid6, x0=3.0, sigma=1.0)
    orbitals = evolve_hartree(grid6, None, gaussian_w, phi0, dt=1e-2, steps=100)
    times = 1e-2 * np.arange(101)
    integrand = envelope_integrand(orbitals, 2.0, 2.0)
    winf = lp_norm(gaussian_w, np.inf)
    for k, t in ((0, 0.0), (50, 0.5), (100, 1.0)):
        got = phi_envelope_integral(integrand[: k + 1], times[: k + 1], winf)
        assert got == pytest.approx(64.0 * winf * t, abs=1e-9)
    with pytest.raises(ConfigError):
        envelope_integrand(orbitals, 2.0, 4.0)  # needs q2 <= q1


def test_gronwall_alpha_bound_values():
    assert gronwall_alpha_bound(0.0, 4, 0.0) == pytest.approx(0.25)
    assert gronwall_alpha_bound(0.1, 10, math.log(2.0)) == pytest.approx(0.4)
    with pytest.raises(ConfigError):
        gronwall_alpha_bound(-0.2, 4, 0.0)
    with pytest.raises(ConfigError):
        gronwall_alpha_bound(0.0, 0, 0.0)


def test_pair_interaction_expectation_constant_kernel(rng, grid6):
    phi = random_orbital(rng, grid6)
    w = sample_interaction(grid6, "constant", c=5.0)
    # <phi x phi, W phi x phi> = c for normalized phi
    assert pair_interaction_expectation(phi, w) == pytest.approx(5.0, abs=1e-12)


def test_energies_per_particle(rng, grid6, gaussian_w, h6):
    phi = random_orbital(rng, grid6)
    basis = enumerate_basis(6, 3)
    psi = product_state(phi, basis)
    H = build_HN(h6, gaussian_w, basis)
    e_psi, e_phi = energies(psi, H, phi, h6, gaussian_w)
    # closed forms for factorized data
    u = phi.mode
    kin = float(np.real(np.vdot(u, h6 @ u)))
    pw = pair_interaction_expectation(phi, gaussian_w)
    assert e_psi == pytest.approx(kin + (3 - 1) / (2 * 3) * pw, abs=1e-10)
    assert e_phi == pytest.approx(kin + 0.5 * pw, abs=1e-10)


def test_sobolev_sup_norm_plane_wave(grid6, h6):
    from mfdyn.onebody import Orbital

    phi = Orbital.normalized(grid6, np.ones(6))
    # h phi = 0 for the flat state, so the X-norm part is ||phi||_2 = 1
    got = sobolev_sup_norm(phi, h6)
    assert got == pytest.approx(1.0 + 1.0 / math.sqrt(6.0), abs=1e-12)


def test_phi_tilde_integral_monotone(grid6, gaussian_w, h6):
    phi0 = gaussian_orbital(grid6, x0=3.0, sigma=1.0)
    orbitals = evolve_hartree(grid6, None, gaussian_w, phi0, dt=1e-2, steps=100)
    times = 1e-2 * np.arange(101)
    integrand = phi_tilde_integrand(orbitals, h6)
    vals = [phi_tilde_integral(integrand[: k + 1], times[: k + 1]) for k in (0, 25, 50, 100)]
    assert vals[0] == 0.0
    assert all(a < b for a, b in zip(vals, vals[1:]))
    # integrand >= 1, so the integral is at least t
    assert vals[-1] >= 1.0


def test_beta_bound_envelope_substitution():
    # beta0 = 0, gap = 0, N = 16, eta = 1/3, K phi~ = 0 => envelope = 16^{-1/3}
    got = beta_bound_envelope(0.0, 0.0, 16, 1.0 / 3.0, 1.0, 0.0)
    assert got == pytest.approx(16.0 ** (-1.0 / 3.0), abs=1e-12)
    with pytest.raises(ConfigError):
        beta_bound_envelope(0.0, 0.0, 16, 1.0 / 3.0, 0.0, 0.0)


def test_fitted_K_recovers_planted_constant():
    times = np.linspace(0.0, 1.0, 21)
    phi_tildes = 2.0 * times  # linear envelope integral
    base = 0.3
    K_true = 0.7
    betas = base * np.exp(K_true * phi_tildes)
    got = fitted_K(times, betas, phi_tildes, beta0=0.1, gap=0.2, N=10, eta=1.0)
    # beta0 + gap + N^-1 = 0.4 > base, so the required K is smaller than K_true
    expect = np.log(betas[-1] / 0.4) / phi_tildes[-1]
    assert got == pytest.approx(expect, abs=1e-12)
    # if beta never exceeds the base, the minimal K is 0
    low = fitted_K(times, 0.1 * np.ones_like(times), phi_tildes, 0.1, 0.2, 10, 1.0)
    assert low == 0.0
