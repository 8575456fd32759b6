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
    # oracle: scan a fine grid of cutoffs; every cutoff gives a level-set
    # split, and 400 levels reach every distinct split of these 10 values,
    # so the bound lies within rounding of the scan's minimum
    grid = Grid(10, 0.7)
    w = sample_interaction(grid, "random", seed=9)
    absw = np.abs(w.values)
    fine = np.linspace(0.0, float(absw.max()), 400)
    best = np.inf
    for a in fine:
        big = LatticeField(grid, np.where(absw > a, w.values, 0.0))
        small = LatticeField(grid, np.where(absw > a, 0.0, w.values))
        best = min(best, lp_norm(big, 2.0) + lp_norm(small, 6.0))
    got = wnorm_upper_bound(w, 2.0, 6.0)
    assert abs(got - best) <= 1e-12


def test_wnorm_single_piece_reduces_to_lp(rng):
    grid = Grid(8, 0.5)
    w = sample_interaction(grid, "gaussian", lam=2.0, sigma=1.0)
    # the splits with all of w in one piece are among the candidates
    got = wnorm_upper_bound(w, 2.0, 4.0)
    assert got <= min(lp_norm(w, 2.0), lp_norm(w, 4.0))
    with pytest.raises(ConfigError):
        wnorm_upper_bound(w, 4.0, 2.0)


def _power_kernel(grid, s):
    """|x|^-s with w(0) = dx^-s, the invsquare rule for the exponent s."""
    d = np.abs(grid.min_image(grid.coords))
    d[0] = grid.spacing
    return LatticeField(grid, d**-s)


def _split_value(w, big, p1, p2):
    """||w 1_big||_p1 + ||w 1_{not big}||_p2."""
    outer = LatticeField(w.grid, np.where(big, w.values, 0.0))
    inner = LatticeField(w.grid, np.where(big, 0.0, w.values))
    return lp_norm(outer, p1) + lp_norm(inner, p2)


def _quartile_bound(w, p1, p2):
    """The least split at the cutoffs 0, the quartiles of |w| and max |w|,
    the list that wnorm_upper_bound was once given."""
    absw = np.abs(w.values)
    cutoffs = {0.0, *np.quantile(absw, [0.25, 0.5, 0.75]).tolist(), float(absw.max())}
    return min(_split_value(w, absw > a, p1, p2) for a in cutoffs)


_TIES_AND_ZEROS = np.array([0.0, 0.5, -0.5, 0.0, 1.25, 0.5, -1.25, 0.0, 0.25, 0.5])


def _peak_on_plateau():
    """One site at 4 on a plateau rising from 1 to 1.1, on a fine grid:
    at p = (2, inf) the least split puts the peak alone in L^2, a cutoff
    that no quartile of |w| gives."""
    values = np.linspace(1.0, 1.1, 64)
    values[0] = 4.0
    return LatticeField(Grid(64, 0.05), values)


@pytest.mark.parametrize(
    "w",
    [
        LatticeField(Grid(10, 0.7), _TIES_AND_ZEROS),
        LatticeField(Grid(9, 1.0), np.round(np.random.default_rng(3).uniform(-2, 2, 9))),
        LatticeField(Grid(12, 0.5), np.random.default_rng(4).integers(-2, 3, 12) * 0.75),
        sample_interaction(Grid(11, 0.8), "random", seed=2),
        sample_interaction(Grid(8, 1.0), "invsquare", lam=1.0),
        sample_interaction(Grid(12, 0.5), "softcoulomb", lam=1.0, eps=0.5),
        _power_kernel(Grid(10, 1.0), 0.4),
        _power_kernel(Grid(12, 0.3), 0.8),
        _peak_on_plateau(),
    ],
    ids=["ties-zeros", "rounded", "integer-levels", "random", "invsquare", "softcoulomb",
         "power0.4", "power0.8", "peak-on-plateau"],
)
@pytest.mark.parametrize("p1, p2", [(2.0, np.inf), (2.0, 4.0), (3.0, 6.0), (4.0, 8.0), (np.inf, np.inf)])
def test_wnorm_is_the_least_level_set_split(w, p1, p2):
    # oracle: every level set S = the k largest |w|, for each k that does
    # not part two equal |w|, summed as ||w 1_S||_p1 + ||w 1_{not S}||_p2;
    # and it never exceeds the bound of the quartile cutoffs
    absw = np.abs(w.values)
    order = np.argsort(-absw, kind="stable")
    best = np.inf
    for k in range(w.grid.sites + 1):
        if 0 < k < w.grid.sites and absw[order[k - 1]] == absw[order[k]]:
            continue
        big = np.zeros(w.grid.sites, dtype=bool)
        big[order[:k]] = True
        best = min(best, _split_value(w, big, p1, p2))
    got = wnorm_upper_bound(w, p1, p2)
    assert got == best
    assert got <= _quartile_bound(w, p1, p2)


def test_wnorm_equals_the_per_split_loop_bit_for_bit():
    # oracle: the loop over a in {0} and the values of |w| with one pair of
    # fields per split, as wnorm_upper_bound once ran it; the one-array pass
    # must give its float bit for bit
    rng = np.random.default_rng(11)
    for M, dx in [(2, 1.0), (3, 0.7), (8, 1.0), (17, 0.3), (64, 0.05)]:
        grid = Grid(M, dx)
        kernels = [
            sample_interaction(grid, "constant", c=0.0),
            sample_interaction(grid, "constant", c=-1.5),
            sample_interaction(grid, "gaussian", lam=2.0, sigma=1.0),
            sample_interaction(grid, "softcoulomb", lam=1.0, eps=0.5),
            sample_interaction(grid, "invsquare", lam=1.0),
            sample_interaction(grid, "random", seed=M),
            _power_kernel(grid, 0.8),
            *(LatticeField(grid, 10.0**e * rng.standard_normal(M)) for e in (-3, 0, 3)),
        ]
        for w in kernels:
            absw = np.abs(w.values)
            for p1, p2 in [(2.0, 2.0), (2.0, np.inf), (2.0, 4.0), (3.0, 6.0), (np.inf, np.inf)]:
                want = min(
                    _split_value(w, absw > a, p1, p2) for a in np.unique(np.append(absw, 0.0))
                )
                got = wnorm_upper_bound(w, p1, p2)
                assert type(got) is float and got.hex() == want.hex(), (M, dx, p1, p2)


def test_wnorm_finds_a_split_no_quartile_gives():
    w = _peak_on_plateau()
    peak_alone = np.arange(64) == 0
    got = wnorm_upper_bound(w, 2.0, np.inf)
    assert got == _split_value(w, peak_alone, 2.0, np.inf)
    assert got == pytest.approx(4.0 * np.sqrt(0.05) + 1.1, abs=1e-12)
    assert _quartile_bound(w, 2.0, np.inf) > got + 0.07  # 2.069 against 1.994


def test_phi_integral_sup_norm_case(grid6, gaussian_w):
    # p1 = p2 = inf gives q1 = q2 = 2 and ||phi||_2 = 1, so the integrand is
    # the constant 64 ||w||_inf
    phi0 = gaussian_orbital(grid6, x0=3.0, sigma=1.0)
    flow = evolve_hartree(None, gaussian_w, phi0, dt=1e-2, steps=100)
    times = 1e-2 * np.arange(101)
    integrand = envelope_integrand(flow, grid6.spacing, np.inf, np.inf)
    winf = lp_norm(gaussian_w, np.inf)
    for k, t in ((0, 0.0), (50, 0.5), (100, 1.0)):
        got = phi_envelope_integral(integrand[: k + 1], times[: k + 1], winf)
        assert got == pytest.approx(64.0 * winf * t, abs=1e-9)
    with pytest.raises(ConfigError):
        envelope_integrand(flow, grid6.spacing, 4.0, 2.0)  # needs p1 <= p2
    with pytest.raises(ConfigError):
        envelope_integrand(flow, grid6.spacing, 1.5, 4.0)  # needs p1 >= 2


@pytest.mark.parametrize("M, dx", [(6, 0.7), (8, 0.5), (12, 1.3)])
def test_envelope_integrands_on_the_flow_array(M, dx):
    # each row of the flow array gets the arithmetic of lp_norm on that
    # orbital alone, byte for byte; the Sobolev norm follows its formula
    grid = Grid(M, dx)
    w = sample_interaction(grid, "softcoulomb", lam=1.0, eps=0.5)
    h = build_h(grid)
    phi0 = gaussian_orbital(grid, x0=0.4 * grid.length, sigma=0.8)
    flow = evolve_hartree(None, w, phi0, dt=1e-2, steps=60)
    fields = [LatticeField(grid, values) for values in flow]
    # (q1, q2) = (2, 2), (4, 2), (inf, 4), (inf, 2)
    for p1, p2 in ((np.inf, np.inf), (4.0, np.inf), (2.0, 4.0), (2.0, np.inf)):
        got = envelope_integrand(flow, dx, p1, p2)
        q1, q2 = conjugate_q(p1), conjugate_q(p2)
        want = np.array([lp_norm(f, q1) + lp_norm(f, q2) for f in fields])
        assert np.array_equal(got, want), (p1, p2)
    sobolev = []
    for values in flow:
        u = np.sqrt(dx) * values
        x12 = np.sqrt(np.real(np.vdot(u, u + h @ (h @ u))))
        sobolev.append(x12 + np.max(np.abs(values)))
    got = phi_tilde_integrand(flow, dx, h)
    assert np.allclose(got, 1.0 + np.array(sobolev) ** 3, rtol=1e-14, atol=0)


@pytest.mark.filterwarnings("error")
def test_envelopes_overflow_to_inf_without_a_warning():
    assert gronwall_alpha_bound(0.1, 4, 1000.0) == math.inf
    assert beta_bound_envelope(0.1, -0.05, 4, 1.0 / 3.0, 1.0, 1000.0) == math.inf
    assert beta_bound_envelope(0.0, -2.0, 4, 1.0 / 3.0, 1.0, 1000.0) == -math.inf
    # a base of exactly 0 (beta0 + gap = -N^-eta) stays 0, not 0 * inf = nan
    assert beta_bound_envelope(0.0, -0.25, 4, 1.0, 1.0, 1000.0) == 0.0
    # below the float range the product is np.exp's, as before
    assert gronwall_alpha_bound(0.1, 4, 700.0) == float((0.1 + 1.0 / 4) * np.exp(700.0))
    assert math.isfinite(gronwall_alpha_bound(0.0, 1, 709.0))
    assert gronwall_alpha_bound(1.0, 1, 709.5) == math.inf  # 2 e^709.5 > float max


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
    got = sobolev_sup_norm(phi.values, grid6.spacing, h6)
    assert got == pytest.approx(1.0 + 1.0 / math.sqrt(6.0), abs=1e-12)


def test_phi_tilde_integral_monotone(grid6, gaussian_w, h6):
    phi0 = gaussian_orbital(grid6, x0=3.0, sigma=1.0)
    flow = evolve_hartree(None, gaussian_w, phi0, dt=1e-2, steps=100)
    times = 1e-2 * np.arange(101)
    integrand = phi_tilde_integrand(flow, grid6.spacing, h6)
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
    # a non-positive base beta0 + gap + N^-eta: no K can make the envelope hold
    assert fitted_K(times, betas, phi_tildes, 0.0, -0.1, 10, 1.0) == math.inf
    assert fitted_K(times, betas, phi_tildes, 0.0, -0.5, 10, 1.0) == math.inf
