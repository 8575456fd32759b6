"""Runnable invariant suites backing the `check` CLI subcommand, and the
first-quantised reference they and the tests compare against: the dense
tensor-space Hamiltonian and symmetrizer, the occupation-to-tensor
isometry, tensor sector projectors, and the hierarchy and mean-field
residuals. No run imports this module.

Each suite returns CheckResult rows with measured residuals; a suite passes
iff every row does.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bounds import eta_of, p0_of
from .errors import ConfigError
from .fock import OccupationBasis, _multinomial, build_HN, enumerate_basis, product_state
from .lattice import (
    Grid,
    LatticeField,
    convolution_kernel_matrix,
    lp_norm,
    periodic_convolution,
    sample_interaction,
)
from .onebody import (
    Orbital,
    build_h,
    condensate_projectors,
    evolve_hartree,
    hartree_energy,
    mean_field_potential,
)
from .propagate import NBodyStepper, PropagatorConfig
from .reduce import DensityMatrix, E_k, R_k, _condensate_vector

DENSE_ORACLE_CAP = 4096


# ---------------------------------------------------------------------------
# First-quantised reference on the tensor space (C^M)^(x)N
# ---------------------------------------------------------------------------

def _site_indices(M: int, N: int) -> np.ndarray:
    """(M^N, N) array: particle coordinates for each tensor basis index."""
    if M**N > DENSE_ORACLE_CAP:
        raise ConfigError(f"dense oracle size {M**N} exceeds cap {DENSE_ORACLE_CAP}")
    return np.indices((M,) * N).reshape(N, -1).T


def symmetrizer(M: int, N: int) -> np.ndarray:
    """Orthogonal projector onto the symmetric subspace of (C^M)^(x) N."""
    flat = _site_indices(M, N)
    dim = M**N
    S = np.zeros((dim, dim))
    weights = M ** np.arange(N - 1, -1, -1)
    for perm in itertools.permutations(range(N)):
        permuted = flat[:, list(perm)] @ weights
        S[permuted, np.arange(dim)] += 1.0
    return S / math.factorial(N)


def dense_oracle(h: np.ndarray, w: LatticeField, M: int, N: int):
    """First-quantized H = sum h_i + (1/N) sum_{i<j} w(x_i - x_j) on (C^M)^(x)N,
    together with the symmetrizer."""
    flat = _site_indices(M, N)
    dim = M**N
    H = np.zeros((dim, dim), dtype=complex)
    eye = np.eye(M)
    for i in range(N):
        ops = [eye] * N
        ops[i] = h
        term = ops[0]
        for op in ops[1:]:
            term = np.kron(term, op)
        H += term
    W = convolution_kernel_matrix(w)
    diag = np.zeros(dim)
    for i in range(N):
        for j in range(i + 1, N):
            diag += W[flat[:, i], flat[:, j]]
    H += np.diag(diag) / N
    return H, symmetrizer(M, N)


def occupation_to_tensor_isometry(basis: OccupationBasis) -> np.ndarray:
    """(M^N, dim) isometry mapping occupation vectors to symmetric tensors."""
    M, N = basis.sites, basis.particles
    occ = (_site_indices(M, N)[:, :, None] == np.arange(M)).sum(axis=1)
    U = np.zeros((M**N, basis.dim))
    U[np.arange(M**N), basis.rank(occ)] = np.sqrt((1 / _multinomial(occ, N)).astype(float))
    return U


def tensor_sector_projectors(phi: Orbital, N: int) -> list[np.ndarray]:
    """P_k on the (C^M)^(x)N tensor space: multiply out (p+q)^(x)N and
    collect the summands with exactly k factors q."""
    p, q = condensate_projectors(phi)
    M = phi.grid.sites
    Pk = [np.zeros((M**N, M**N), dtype=complex) for _ in range(N + 1)]
    for bits in itertools.product((0, 1), repeat=N):
        term = np.eye(1, dtype=complex)
        for b in bits:
            term = np.kron(term, q if b else p)
        Pk[sum(bits)] += term
    return Pk


def tensor_hat_f(f: np.ndarray, phi: Orbital, N: int) -> np.ndarray:
    """f-hat = sum_k f(k) P_k on the tensor space."""
    Pk = tensor_sector_projectors(phi, N)
    return sum(f[k] * Pk[k] for k in range(N + 1))


def partial_trace_2to1(g2: DensityMatrix) -> DensityMatrix:
    """Trace out the second particle of a two-particle density matrix."""
    if g2.k != 2:
        raise ConfigError("partial_trace_2to1 expects a two-particle density matrix")
    M = int(round(np.sqrt(g2.mat.shape[0])))
    t = g2.mat.reshape(M, M, M, M)
    return DensityMatrix(1, np.einsum("xzyz->xy", t))


def seiringer_check(gamma: DensityMatrix, phi: Orbital) -> tuple[float, float]:
    """(trace norm, 2 * operator norm) of p^(x)k - gamma; the two agree for
    a rank-one projector against a nonnegative density matrix."""
    uk = _condensate_vector(phi, gamma.k)
    diff = np.outer(uk, uk.conj()) - gamma.mat
    lam = np.linalg.eigvalsh(diff)
    return float(np.sum(np.abs(lam))), float(2.0 * np.max(np.abs(lam)))


def mean_field_sandwich_residual(phi: Orbital, w: LatticeField) -> float:
    """Max-abs residual of the identity p_2 W_12 p_2 = p_2 W_1^phi on the
    two-particle mode space."""
    M = phi.grid.sites
    u = phi.mode
    p = np.outer(u, u.conj())
    p2 = np.kron(np.eye(M), p)
    W12 = np.diag(convolution_kernel_matrix(w).reshape(-1))
    wphi = mean_field_potential(w, phi).values.real
    W1 = np.kron(np.diag(wphi), np.eye(M))
    return float(np.max(np.abs(p2 @ W12 @ p2 - p2 @ W1)))


def bbgky_rhs_k1(
    g1: DensityMatrix, g2: DensityMatrix, h: np.ndarray, w: LatticeField, N: int
) -> np.ndarray:
    """d(gamma1)/dt predicted by the first hierarchy equation:
    -i ( [h, gamma1] + (N-1)/N tr_2 [W_12, gamma2] )."""
    M = h.shape[0]
    Wdiag = convolution_kernel_matrix(w).reshape(-1)
    comm2 = Wdiag[:, None] * g2.mat - g2.mat * Wdiag[None, :]
    tr2 = np.einsum("xzyz->xy", comm2.reshape(M, M, M, M))
    return -1j * ((h @ g1.mat - g1.mat @ h) + (N - 1) / N * tr2)


def pair_interaction_expectation(phi: Orbital, w: LatticeField) -> float:
    """<phi (x) phi, W_12 phi (x) phi> = integral w(x-y) |phi(x)|^2 |phi(y)|^2."""
    wphi = mean_field_potential(w, phi).values.real
    return float(phi.grid.spacing * (np.abs(phi.values) ** 2 @ wphi))


# ---------------------------------------------------------------------------
# Invariant suites
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol

    def line(self) -> str:
        word = "PASS" if self.passed else "FAIL"
        return f"{word} {self.suite}/{self.name} residual={self.residual:.3e} tol={self.tol:.3e}"


def _random_density(rng, dim: int) -> np.ndarray:
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = A @ A.conj().T
    return rho / np.trace(rho).real


def _random_orbital(rng, grid: Grid) -> Orbital:
    vals = rng.normal(size=grid.sites) + 1j * rng.normal(size=grid.sites)
    return Orbital.normalized(grid, vals)


def random_symmetric_gamma2(rng, sym: np.ndarray) -> DensityMatrix:
    """Random PSD unit-trace matrix supported on the range of the
    two-particle symmetrizer `sym`."""
    rho = sym @ _random_density(rng, sym.shape[0]) @ sym
    return DensityMatrix(2, rho / np.trace(rho).real)


def indicators_suite(samples: int = 1000, seed: int = 7) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    grid = Grid(6, 1.0)
    M = grid.sites
    sym = symmetrizer(M, 2)
    worst = {"E<=R": 0.0, "R<=sqrt8E": 0.0, "seiringer": 0.0, "E2<=2E1": 0.0}
    for _ in range(samples):
        phi = _random_orbital(rng, grid)
        g = DensityMatrix(1, _random_density(rng, M))
        e, r = E_k(g, phi), R_k(g, phi)
        worst["E<=R"] = max(worst["E<=R"], e - r)
        worst["R<=sqrt8E"] = max(worst["R<=sqrt8E"], r - math.sqrt(8 * max(e, 0.0)))
        tn, opn = seiringer_check(g, phi)
        worst["seiringer"] = max(worst["seiringer"], abs(tn - opn))
        g2 = random_symmetric_gamma2(rng, sym)
        e2, r2 = E_k(g2, phi), R_k(g2, phi)
        worst["E<=R"] = max(worst["E<=R"], e2 - r2)
        worst["R<=sqrt8E"] = max(worst["R<=sqrt8E"], r2 - math.sqrt(8 * max(e2, 0.0)))
        e1_of_2 = E_k(partial_trace_2to1(g2), phi)
        worst["E2<=2E1"] = max(worst["E2<=2E1"], e2 - 2 * e1_of_2)
    out = [CheckResult("indicators", k, v, 1e-10) for k, v in worst.items()]
    # sharpness witnesses from the two diagonal/rotation families
    for a in (0.01, 0.25, 0.5):
        g2 = Grid(2, 1.0)
        phi = Orbital(g2, np.array([1.0, 0.0]))
        gam = DensityMatrix(1, np.diag([1 - a, a]).astype(complex))
        out.append(CheckResult("indicators", f"family1-E(a={a})", abs(E_k(gam, phi) - a), 1e-12))
        out.append(CheckResult("indicators", f"family1-R(a={a})", abs(R_k(gam, phi) - 2 * a), 1e-12))
        # rotated pure state: E = a, tr|gamma (1 - p)| = sqrt(a)
        psi = np.array([math.sqrt(1 - a), math.sqrt(a)])
        gam2 = DensityMatrix(1, np.outer(psi, psi).astype(complex))
        q = np.diag([0.0, 1.0])
        sv = np.linalg.svd(gam2.mat @ q, compute_uv=False)
        out.append(CheckResult("indicators", f"family2-E(a={a})", abs(E_k(gam2, phi) - a), 1e-12))
        out.append(
            CheckResult(
                "indicators", f"family2-trGq(a={a})", abs(float(sv.sum()) - math.sqrt(a)), 1e-12
            )
        )
    return out


def fock_oracle_suite() -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(11)
    for M, N in ((2, 2), (3, 2), (2, 3)):
        grid = Grid(M, 0.7)
        v = LatticeField(grid, rng.normal(size=M))
        w = sample_interaction(grid, "random", seed=5 * M + N)
        h = build_h(grid, v)
        basis = enumerate_basis(M, N)
        H = build_HN(h, w, basis).toarray()
        Hor, S = dense_oracle(h, w, M, N)
        U = occupation_to_tensor_isometry(basis)
        res = float(np.max(np.abs(U.conj().T @ Hor @ U - H)))
        out.append(CheckResult("fock-oracle", f"HN-vs-oracle(M={M},N={N})", res, 1e-10))
        res_s = float(np.max(np.abs(S @ Hor - Hor @ S)))
        out.append(CheckResult("fock-oracle", f"[H,S]=0(M={M},N={N})", res_s, 1e-12))
    return out


def conservation_suite() -> list[CheckResult]:
    grid = Grid(6, 1.0)
    w = sample_interaction(grid, "gaussian", lam=1.0, sigma=1.0)
    h = build_h(grid)
    phi0 = Orbital.normalized(grid, np.exp(-((grid.coords - 3.0) ** 2)))
    dt, steps = 1e-3, 1000
    orbitals = evolve_hartree(grid, None, w, phi0, dt, steps)
    masses = np.array([grid.spacing * np.sum(np.abs(o.values) ** 2) for o in orbitals])
    energies_h = np.array([hartree_energy(o, h, w) for o in orbitals])
    e0 = energies_h[0]
    out = [
        CheckResult("conservation", "hartree-mass", float(np.max(np.abs(masses - 1))), 1e-10),
        CheckResult(
            "conservation",
            "hartree-energy",
            float(np.max(np.abs(energies_h - e0)) / max(1.0, abs(e0))),
            1e-6,
        ),
    ]
    basis = enumerate_basis(4, 3)
    g4 = Grid(4, 1.0)
    w4 = sample_interaction(g4, "gaussian", lam=1.0, sigma=1.0)
    h4 = build_h(g4)
    phi4 = Orbital.normalized(g4, np.exp(1j * 2 * np.pi * np.arange(4) / 4) + 1.5)
    psi = product_state(phi4, basis)
    H = build_HN(h4, w4, basis)
    stepper = NBodyStepper(H, PropagatorConfig(dt=1e-3, steps=1000, krylov_tol=1e-12))
    amps = psi.amps
    e_start = np.real(np.vdot(amps, H @ amps))
    worst_norm = worst_energy = 0.0
    for _ in range(1000):
        amps = stepper.step(amps)
        worst_norm = max(worst_norm, abs(np.linalg.norm(amps) - 1.0))
        e_now = np.real(np.vdot(amps, H @ amps))
        worst_energy = max(worst_energy, abs(e_now - e_start) / max(1.0, abs(e_start)))
    out.append(CheckResult("conservation", "nbody-norm", float(worst_norm), 1e-8))
    out.append(CheckResult("conservation", "nbody-energy", float(worst_energy), 1e-8))
    return out


def bounds_suite() -> list[CheckResult]:
    out = [
        CheckResult("bounds", "p0(3)=6/5", float(abs(p0_of(3) - Fraction(6, 5))), 0.0),
        CheckResult(
            "bounds", "eta(3/2,3)=1/3", float(abs(eta_of(Fraction(3, 2), 3) - Fraction(1, 3))), 0.0
        ),
        CheckResult(
            "bounds", "eta(2,3)=1/2", float(abs(eta_of(Fraction(2), 3) - Fraction(1, 2))), 0.0
        ),
    ]
    ps = [Fraction(6, 5) + Fraction(k, 40) for k in range(1, 33)]
    etas = [eta_of(p, 3) for p in ps]
    mono = max(
        (float(a - b) for a, b in zip(etas[:-1], etas[1:])), default=0.0
    )
    out.append(CheckResult("bounds", "eta-monotone(d=3)", max(mono, 0.0), 0.0))

    rng = np.random.default_rng(3)
    grid = Grid(12, 0.5)
    worst_holder = worst_young = 0.0
    for _ in range(200):
        f = Orbital.normalized(grid, rng.normal(size=12) + 1j * rng.normal(size=12)).field()
        q = float(rng.uniform(2.0, 10.0))
        r = 1.0 / (0.5 * (0.5 + 1.0 / q))
        worst_holder = max(worst_holder, lp_norm(f, r) ** 2 - lp_norm(f, q))
        wv = LatticeField(grid, rng.normal(size=12))
        rho = LatticeField(grid, np.abs(rng.normal(size=12)))
        pp = float(rng.uniform(1.0, 4.0))
        qq = pp / (pp - 1.0) if pp > 1 else np.inf
        lhs = lp_norm(periodic_convolution(wv, rho), np.inf)
        worst_young = max(worst_young, lhs - lp_norm(wv, pp) * lp_norm(rho, qq))
    out.append(CheckResult("bounds", "holder-interpolation", float(max(worst_holder, 0.0)), 1e-12))
    out.append(CheckResult("bounds", "young-convolution", float(max(worst_young, 0.0)), 1e-12))
    return out


_RUNNERS = {
    "indicators": indicators_suite,
    "fock-oracle": fock_oracle_suite,
    "conservation": conservation_suite,
    "bounds": bounds_suite,
}
SUITES = (*_RUNNERS, "all")


def run_suite(name: str) -> list[CheckResult]:
    if name not in SUITES:
        raise ConfigError(f"unknown check suite {name!r}; choose from {SUITES}")
    runners = _RUNNERS.values() if name == "all" else [_RUNNERS[name]]
    return [row for run in runners for row in run()]
