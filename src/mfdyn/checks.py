"""Runnable invariant suites backing the `check` CLI subcommand.

Each suite returns CheckResult rows with measured residuals; a suite passes
iff every row does.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import eta_of, p0_of
from .errors import ConfigError
from .fock import (
    build_HN,
    dense_oracle,
    enumerate_basis,
    occupation_to_tensor_isometry,
    product_state,
)
from .lattice import Grid, LatticeField, lp_norm, periodic_convolution, sample_interaction
from .onebody import Orbital, build_h, evolve_hartree, hartree_energy
from .propagate import NBodyStepper, PropagatorConfig
from .reduce import DensityMatrix, E_k, R_k, partial_trace_2to1, seiringer_check

SUITES = ("indicators", "fock-oracle", "conservation", "bounds", "all")


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


def _symmetric_two_particle_projector(M: int) -> np.ndarray:
    """Projector onto the symmetric subspace of C^M (x) C^M."""
    swap = np.zeros((M * M, M * M))
    for x in range(M):
        for y in range(M):
            swap[y * M + x, x * M + y] = 1.0
    return 0.5 * (np.eye(M * M) + swap)


def random_symmetric_gamma2(rng, M: int, sym: np.ndarray | None = None) -> DensityMatrix:
    """Random PSD unit-trace matrix supported on the symmetric two-particle
    subspace."""
    if sym is None:
        sym = _symmetric_two_particle_projector(M)
    rho = sym @ _random_density(rng, M * M) @ sym
    return DensityMatrix(2, rho / np.trace(rho).real)


def indicators_suite(samples: int = 1000, seed: int = 7) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    grid = Grid(6, 1.0)
    M = grid.sites
    sym = _symmetric_two_particle_projector(M)
    worst = {"E<=R": 0.0, "R<=sqrt8E": 0.0, "seiringer": 0.0, "E2<=2E1": 0.0}
    for _ in range(samples):
        phi = _random_orbital(rng, grid)
        g = DensityMatrix(1, _random_density(rng, M))
        e, r = E_k(g, phi), R_k(g, phi)
        worst["E<=R"] = max(worst["E<=R"], e - r)
        worst["R<=sqrt8E"] = max(worst["R<=sqrt8E"], r - math.sqrt(8 * max(e, 0.0)))
        tn, opn = seiringer_check(g, phi)
        worst["seiringer"] = max(worst["seiringer"], abs(tn - opn))
        g2 = random_symmetric_gamma2(rng, M, sym)
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
    from fractions import Fraction

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


def run_suite(name: str) -> list[CheckResult]:
    if name not in SUITES:
        raise ConfigError(f"unknown check suite {name!r}; choose from {SUITES}")
    table = {
        "indicators": indicators_suite,
        "fock-oracle": fock_oracle_suite,
        "conservation": conservation_suite,
        "bounds": bounds_suite,
    }
    if name == "all":
        results = []
        for fn in table.values():
            results.extend(fn())
        return results
    return table[name]()
