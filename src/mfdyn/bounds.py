"""Explicit error bounds: the Gronwall envelope for alpha, the singular-case
rate exponent eta, sum-space norm upper bounds, and the two energies."""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import ConfigError
from .fock import ManyBodyState
from .lattice import LatticeField, lp_norm
from .onebody import Orbital, hartree_energy
from .propagate import expectation


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


def wnorm_upper_bound(
    w: LatticeField, p1: float, p2: float, cutoffs: list[float]
) -> float:
    """Upper bound on ||w||_{L^p1 + L^p2} via the split w = w 1_{|w|>a} + w 1_{|w|<=a},
    minimized over the provided cutoffs a. Any split upper-bounds the infimum,
    so envelopes built from this stay valid."""
    if not cutoffs:
        raise ConfigError("need at least one cutoff to bound the sum-space norm")
    if not (2 <= p1 <= p2):
        raise ConfigError(f"need 2 <= p1 <= p2, got p1={p1}, p2={p2}")
    best = np.inf
    absw = np.abs(w.values)
    for a in cutoffs:
        big = LatticeField(w.grid, np.where(absw > a, w.values, 0.0))
        small = LatticeField(w.grid, np.where(absw > a, 0.0, w.values))
        best = min(best, lp_norm(big, p1) + lp_norm(small, p2))
    return float(best)


def envelope_integrand(orbitals: list[Orbital], q1: float, q2: float) -> np.ndarray:
    """||phi(s)||_q1 + ||phi(s)||_q2 at every step of a Hartree solution."""
    if not (2 <= q2 <= q1):
        raise ConfigError(f"need 2 <= q2 <= q1, got q1={q1}, q2={q2}")
    norms = {q: np.array([lp_norm(o.field(), q) for o in orbitals]) for q in {q1, q2}}
    return norms[q1] + norms[q2]


def phi_envelope_integral(
    integrand: np.ndarray, times: np.ndarray, w_norm_bound: float
) -> float:
    """32 ||w||_{L^p1+L^p2} * int_0^t (||phi(s)||_q1 + ||phi(s)||_q2) ds,
    trapezoidal over the step prefix given (t = times[-1])."""
    integral = np.trapezoid(integrand, times) if len(times) > 1 else 0.0
    return float(32.0 * w_norm_bound * integral)


def gronwall_alpha_bound(alpha0: float, N: int, phi_t: float) -> float:
    """(alpha(0) + 1/N) e^{phi(t)}."""
    if not (0 <= alpha0 <= 1 + 1e-12):
        raise ConfigError(f"alpha0 must be in [0, 1], got {alpha0}")
    if N < 1:
        raise ConfigError(f"N must be >= 1, got {N}")
    return float((alpha0 + 1.0 / N) * np.exp(phi_t))


def energies(
    psi: ManyBodyState, H, phi: Orbital, h: np.ndarray, w: LatticeField
) -> tuple[float, float]:
    """(E^Psi, E^phi): microscopic energy per particle and Hartree energy."""
    N = psi.basis.particles
    e_psi = float(np.real(expectation(psi, H))) / N
    e_phi = hartree_energy(phi, h, w)
    return e_psi, e_phi


def sobolev_sup_norm(phi: Orbital, h: np.ndarray) -> float:
    """||phi||_{X_1^2 cap L^inf} = ||(1 + h^2)^(1/2) phi|| + ||phi||_inf."""
    u = phi.mode
    x12 = np.sqrt(np.real(np.vdot(u, u + h @ (h @ u))))
    return float(x12 + np.max(np.abs(phi.values)))


def phi_tilde_integrand(orbitals: list[Orbital], h: np.ndarray) -> np.ndarray:
    """1 + ||phi(s)||^3_{X_1^2 cap L^inf} at every step of a Hartree solution."""
    return 1.0 + np.array([sobolev_sup_norm(o, h) for o in orbitals]) ** 3


def phi_tilde_integral(integrand: np.ndarray, times: np.ndarray) -> float:
    """int_0^t (1 + ||phi(s)||^3_{X_1^2 cap L^inf}) ds, trapezoidal over the
    step prefix given (t = times[-1])."""
    return float(np.trapezoid(integrand, times)) if len(times) > 1 else 0.0


def beta_bound_envelope(
    beta0: float, gap: float, N: int, eta: float, K: float, phi_tilde: float
) -> float:
    """(beta(0) + (E^Psi - E^phi) + N^-eta) e^{K phi~(t)}; K is configured,
    not derived (the underlying result only asserts a constant exists)."""
    if K <= 0:
        raise ConfigError(f"K must be positive, got {K}")
    return float((beta0 + gap + N ** (-float(eta))) * np.exp(K * phi_tilde))


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

