"""Explicit error bounds: the Gronwall envelope for alpha, the singular-case
rate exponent eta, sum-space norm upper bounds, and the two energies."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import ConfigError
from .fock import ManyBodyState
from .lattice import LatticeField, lp_norms
from .onebody import Orbital, hartree_energy
from .propagate import expectation

_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


def p0_of(d: int) -> Fraction:
    """Critical exponent: 1/p0 = 1/2 + 1/d, i.e. p0 = 2d/(d+2)."""
    if d < 1:
        raise ConfigError(f"dimension must be >= 1, got {d}")
    return Fraction(2 * d, d + 2)


def eta_of(p: Fraction, d: int) -> Fraction:
    """Rate exponent eta = (p/p0 - 1) / (2 p/p0 - p/2 - 1), exact rational."""
    p = Fraction(p)
    p0 = p0_of(d)
    if not (p0 < p <= 2):
        raise ConfigError(f"p must lie in (p0, 2] = ({p0}, 2] for d={d}, got {p}")
    r = p / p0
    return (r - 1) / (2 * r - Fraction(p, 2) - 1)


def conjugate_q(p: float) -> float:
    """q with 1/2 = 1/p + 1/q; requires p >= 2."""
    if p == np.inf:
        return 2.0
    if p < 2:
        raise ConfigError(f"sum-space exponent must be >= 2, got {p}")
    if p == 2:
        return np.inf
    return 2.0 * p / (p - 2.0)


def wnorm_upper_bound(w: LatticeField, p1: float, p2: float) -> float:
    """Upper bound on ||w||_{L^p1 + L^p2}: the least ||w 1_{|w|>a}||_p1 + ||w 1_{|w|<=a}||_p2
    over a in {0} and the values of |w|, i.e. over every level-set split. Any
    split upper-bounds the infimum, so envelopes built from this stay valid.
    Each split is one row of a (splits, M) array, and `lp_norms` gives a row
    the norm its own field would get."""
    if not (2 <= p1 <= p2):
        raise ConfigError(f"need 2 <= p1 <= p2, got p1={p1}, p2={p2}")
    absw = np.abs(w.values)
    big = absw > np.unique(np.append(absw, 0.0))[:, None]  # one row per split
    dx = w.grid.spacing
    sums = lp_norms(np.where(big, absw, 0.0), dx, p1) + lp_norms(np.where(big, 0.0, absw), dx, p2)
    return float(np.min(sums))


def envelope_integrand(flow: np.ndarray, dx: float, p1: float, p2: float) -> np.ndarray:
    """||phi(s)||_q1 + ||phi(s)||_q2, 1/2 = 1/p_i + 1/q_i, at every step of a Hartree
    solution: the (steps + 1, M) array of `evolve_hartree` on a grid of spacing dx."""
    if not (2 <= p1 <= p2):
        raise ConfigError(f"need 2 <= p1 <= p2, got p1={p1}, p2={p2}")
    norms = {p: lp_norms(flow, dx, conjugate_q(p)) for p in {p1, p2}}
    return norms[p1] + norms[p2]


def phi_envelope_integral(
    integrand: np.ndarray, times: np.ndarray, w_norm_bound: float
) -> float:
    """32 ||w||_{L^p1+L^p2} * int_0^t (||phi(s)||_q1 + ||phi(s)||_q2) ds,
    trapezoidal over the step prefix given (t = times[-1])."""
    return 32.0 * w_norm_bound * phi_tilde_integral(integrand, times)


def _times_exp(base: float, exponent: float) -> float:
    """base * e^exponent; +-inf once that leaves the float range, where
    numpy would warn about an overflow (0 for base 0)."""
    if base == 0:
        return 0.0
    if exponent > _LOG_FLOAT_MAX - math.log(abs(base)):
        return math.copysign(math.inf, base)
    return float(base * np.exp(exponent))


def gronwall_alpha_bound(alpha0: float, N: int, phi_t: float) -> float:
    """(alpha(0) + 1/N) e^{phi(t)}."""
    if not (0 <= alpha0 <= 1 + 1e-12):
        raise ConfigError(f"alpha0 must be in [0, 1], got {alpha0}")
    if N < 1:
        raise ConfigError(f"N must be >= 1, got {N}")
    return _times_exp(alpha0 + 1.0 / N, phi_t)


def energies(
    psi: ManyBodyState, H, phi: Orbital, h: np.ndarray, w: LatticeField
) -> tuple[float, float]:
    """(E^Psi, E^phi): microscopic energy per particle and Hartree energy."""
    N = psi.basis.particles
    e_psi = float(np.real(expectation(psi, H))) / N
    e_phi = hartree_energy(phi, h, w)
    return e_psi, e_phi


def sobolev_sup_norm(flow: np.ndarray, dx: float, h: np.ndarray) -> np.ndarray:
    """||phi||_{X_1^2 cap L^inf} = ||(1 + h^2)^(1/2) phi|| + ||phi||_inf of
    each orbital phi on the last axis of `flow`, on a grid of spacing dx."""
    u = np.sqrt(dx) * flow[..., None]  # mode vectors as columns
    x12 = np.sqrt(np.real(np.conj(u).swapaxes(-1, -2) @ (u + h @ (h @ u))))[..., 0, 0]
    return x12 + np.max(np.abs(flow), axis=-1)


def phi_tilde_integrand(flow: np.ndarray, dx: float, h: np.ndarray) -> np.ndarray:
    """1 + ||phi(s)||^3_{X_1^2 cap L^inf} at every step of a Hartree solution,
    given as the (steps + 1, M) array of `evolve_hartree`."""
    return 1.0 + sobolev_sup_norm(flow, dx, h) ** 3


def phi_tilde_integral(integrand: np.ndarray, times: np.ndarray) -> float:
    """int_0^t (1 + ||phi(s)||^3_{X_1^2 cap L^inf}) ds, trapezoidal over the
    step prefix given (t = times[-1]; 0 for one sample)."""
    return float(np.trapezoid(integrand, times))


def beta_bound_envelope(
    beta0: float, gap: float, N: int, eta: float, K: float, phi_tilde: float
) -> float:
    """(beta(0) + (E^Psi - E^phi) + N^-eta) e^{K phi~(t)}; K is configured,
    not derived (the underlying result only asserts a constant exists)."""
    if K <= 0:
        raise ConfigError(f"K must be positive, got {K}")
    return _times_exp(beta0 + gap + N ** (-float(eta)), K * phi_tilde)


def fitted_K(
    times: np.ndarray,
    betas: np.ndarray,
    phi_tildes: np.ndarray,
    beta0: float,
    gap: float,
    N: int,
    eta: float,
) -> float:
    """Minimal K >= 0 making beta(t) <= envelope hold at every stored time."""
    base = beta0 + gap + N ** (-float(eta))
    if base <= 0:
        return float("inf")
    ks = [0.0]
    for t, b, ph in zip(times, betas, phi_tildes):
        if t <= 0 or ph <= 0 or b <= 0:
            continue
        ks.append(np.log(b / base) / ph)
    return float(max(ks))

