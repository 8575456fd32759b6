"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line (run with `pytest -s` to see the lines
for passing criteria too). Two criteria rest on derivations that go beyond
the paper's bounds:

* criterion-6b: the paper bounds the trace-norm error only from above,
  tr|gamma^(1) - p| <= sqrt(8 alpha), i.e. at the rate 1/sqrt(N). For
  factorized initial data both the depletion and the orbital tilt of
  gamma^(1) are O(1/N), so the trace-norm error decays like 1/N, the same
  rate as the depletion; the sqrt(E) bound is not saturated. 6b asserts that
  the trace-norm slope tracks the depletion slope to within 0.3. Under
  saturation the two slopes would differ by |E-slope|/2, which is at least
  0.35 whenever criterion-6a holds, so 6b tells the two rates apart.
  Criterion-6c is the paper's one-sided statement: the trace-norm error
  decays at least at the sqrt rate (slope at most -0.5 + 0.3).
* criterion-8b: counting pairs in H_N = sum_i h_i + (1/N) sum_{i<j} w(x_i-x_j)
  for the product state phi_0^(x)N gives the energies per particle
  E^Psi(0) = <phi_0,h phi_0> + (N-1)/(2N) <W> and
  E^phi(0) = <phi_0,h phi_0> + <W>/2, with <W> = <phi_0 x phi_0, W phi_0 x phi_0>.
  8b asserts both identities to 1e-10 at every N of the sweep, which also
  catches an error common to the two energies. Criterion-8c asserts their
  difference, the gap E^Psi - E^phi = -<W>/(2N), which 8b implies.
"""
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from mfdyn.bounds import eta_of, p0_of
from mfdyn.checks import (
    bbgky_rhs_k1,
    conservation_suite,
    dense_oracle,
    indicators_suite,
    occupation_to_tensor_isometry,
    pair_interaction_expectation,
)
from mfdyn.fock import ManyBodyState, build_HN, enumerate_basis, product_state
from mfdyn.harness import (
    initial_orbital,
    interaction_field,
    make_config,
    potential_field,
    run_simulation,
    sweep_N,
)
from mfdyn.lattice import Grid, LatticeField, lp_norm, sample_interaction
from mfdyn.onebody import Orbital, build_h, gaussian_orbital
from mfdyn.condensate import occupation_weights
from mfdyn.propagate import NBodyStepper, PropagatorConfig
from mfdyn.reduce import DensityMatrix, E_k, R_k, gamma1, gamma2


def report(name: str, ok: bool, detail: str = "") -> bool:
    tail = f"  [{detail}]" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'} {name}{tail}")
    return ok


@pytest.fixture(scope="module")
def sweep5():
    """The pinned rate sweep: gaussian lam=1 sigma=1, M=8, N in 2..6,
    factorized data, T=1, dt=1e-3. Shared by criteria 5, 6, 7, 8."""
    cfg = make_config(
        sites=8, particles_list=(2, 3, 4, 5, 6), tfinal=1.0, dt=1e-3,
        interaction="gaussian:1,1",
    )
    return cfg, sweep_N(cfg)


@pytest.fixture(scope="module")
def invsq_sweeps():
    """Criterion 11 sweeps: regularized inverse-square kernel, two dt values."""
    out = {}
    for dt in (4e-3, 2e-3):
        cfg = make_config(
            sites=8, particles_list=(2, 3, 4, 5, 6), tfinal=1.0, dt=dt,
            interaction="invsquare:1",
        )
        out[dt] = sweep_N(cfg)
    return out


def test_criterion_1_indicator_inequalities():
    rows = indicators_suite(samples=1000, seed=7)
    ineq = [r for r in rows if r.name in ("E<=R", "R<=sqrt8E", "seiringer", "E2<=2E1")]
    assert len(ineq) == 4
    worst = max(r.residual for r in ineq)
    ok = all(r.residual <= 1e-10 for r in ineq)
    assert report("criterion-1 indicator inequalities (1000 random pairs)", ok,
                  f"worst violation {worst:.2e} <= 1e-10")


def test_criterion_2_sharpness_families():
    g = Grid(2, 1.0)
    phi = Orbital(g, np.array([1.0, 0.0]))
    worst = 0.0
    for a in (0.01, 0.25, 0.5):
        gam = DensityMatrix(1, np.diag([1 - a, a]).astype(complex))
        worst = max(worst, abs(E_k(gam, phi) - a), abs(R_k(gam, phi) - 2 * a))
        psi = np.array([math.sqrt(1 - a), math.sqrt(a)])
        rot = DensityMatrix(1, np.outer(psi, psi).astype(complex))
        sv = np.linalg.svd(rot.mat @ np.diag([0.0, 1.0]), compute_uv=False)
        worst = max(worst, abs(E_k(rot, phi) - a), abs(float(sv.sum()) - math.sqrt(a)))
    ok = worst <= 1e-12
    assert report("criterion-2 sharpness families", ok, f"worst {worst:.2e} <= 1e-12")


def tensor_gamma_k(U, amps, M, N, k):
    t = (U @ amps).reshape((M,) * N)
    rho = np.tensordot(t, t.conj(), axes=0)
    n = N
    while n > k:
        rho = np.trace(rho, axis1=n - 1, axis2=rho.ndim - 1)
        n -= 1
    return rho.reshape(M**k, M**k)


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(123)
    worst = 0.0
    for M, N in ((2, 2), (3, 2), (2, 3)):
        grid = Grid(M, 0.8)
        v = LatticeField(grid, rng.normal(size=M))
        w = sample_interaction(grid, "random", seed=10 * M + N)
        h = build_h(grid, v)
        basis = enumerate_basis(M, N)
        H = build_HN(h, w, basis).toarray()
        Hor, _ = dense_oracle(h, w, M, N)
        U = occupation_to_tensor_isometry(basis)
        worst = max(worst, float(np.max(np.abs(U.T @ Hor @ U - H))))
        # T = 1 evolution: Krylov occupation path vs exact tensor path
        phi0 = Orbital.normalized(grid, rng.normal(size=M) + 1j * rng.normal(size=M))
        psi = product_state(phi0, basis)
        stepper = NBodyStepper(
            build_HN(h, w, basis), PropagatorConfig(dt=0.01, steps=100, krylov_tol=1e-13)
        )
        amps = psi.amps
        for _ in range(100):
            amps = stepper.step(amps)
        lam, vecs = np.linalg.eigh(Hor)
        big = vecs @ (np.exp(-1j * lam) * (vecs.conj().T @ (U @ psi.amps)))
        worst = max(worst, float(np.max(np.abs(U @ amps - big))))
        state = ManyBodyState(basis, amps)
        worst = max(
            worst,
            float(np.max(np.abs(gamma1(state).mat - tensor_gamma_k(U, amps, M, N, 1)))),
        )
        if N >= 2:
            worst = max(
                worst,
                float(np.max(np.abs(gamma2(state).mat - tensor_gamma_k(U, amps, M, N, 2)))),
            )
    ok = worst <= 1e-10
    assert report("criterion-3 oracle equivalence incl. T=1 evolution", ok,
                  f"worst {worst:.2e} <= 1e-10")


def test_criterion_4_degenerate_exactness():
    worst = 0.0
    for spec in ("constant:0", "constant:2"):
        cfg = make_config(sites=8, particles=4, tfinal=2.0, dt=1e-3, stride=100,
                          interaction=spec)
        res = run_simulation(cfg)
        worst = max(worst, max(r.alpha for r in res.records))
    ok = worst <= 1e-8
    assert report("criterion-4 exactness for w=0 and w=const", ok,
                  f"max alpha {worst:.2e} <= 1e-8")


def test_criterion_5_alpha_envelope(sweep5):
    cfg, sw = sweep5
    grid = Grid(cfg.sites, cfg.dx)
    winf = lp_norm(interaction_field(cfg, grid), np.inf)
    worst_slack = min(r.slack_alpha for r in sw.records)
    worst_phi = max(abs(r.phi_t - 64.0 * winf * r.t) for r in sw.records)
    ok = worst_slack >= -1e-9 and worst_phi <= 1e-6
    assert report("criterion-5 alpha Gronwall envelope", ok,
                  f"min slack {worst_slack:.2e} >= -1e-9, "
                  f"phi(t) = 64||w||_inf t within {worst_phi:.2e}")


def test_criterion_6a_depletion_rate(sweep5):
    _, sw = sweep5
    ok = sw.e_slope is not None and -1.3 <= sw.e_slope <= -0.7
    assert report("criterion-6a depletion slope in [-1.3, -0.7]", ok,
                  f"E-slope {sw.e_slope:.3f}")


def test_criterion_6b_trace_norm_rate_saturation(sweep5):
    _, sw = sweep5
    diff = abs(sw.r_slope - sw.e_slope)
    ok = diff <= 0.3
    assert report("criterion-6b trace-norm slope within 0.3 of the depletion slope", ok,
                  f"R-slope {sw.r_slope:.3f}, E-slope {sw.e_slope:.3f}, diff {diff:.3f}")


def test_criterion_6c_trace_norm_rate_one_sided(sweep5):
    _, sw = sweep5
    ok = sw.r_slope <= -0.5 + 0.3
    assert report("criterion-6c trace-norm error at least the sqrt-rate", ok,
                  f"R-slope {sw.r_slope:.3f} <= -0.2")


def test_criterion_7_alpha_beta_consistency(sweep5):
    _, sw = sweep5
    worst_ae = max(abs(r.alpha - r.E1) for r in sw.records)
    worst_ab = max(r.alpha - r.beta for r in sw.records)
    worst_bs = max(r.beta - math.sqrt(max(r.alpha, 0.0)) for r in sw.records)
    # weight normalization, recomputed directly on a fresh co-evolution
    cfg = make_config(sites=8, particles=4, tfinal=0.2, dt=1e-3, stride=50)
    grid = Grid(cfg.sites, cfg.dx)
    h = build_h(grid)
    w = interaction_field(cfg, grid)
    phi0 = initial_orbital(cfg, grid, h)
    basis = enumerate_basis(cfg.sites, cfg.particles)
    stepper = NBodyStepper(
        build_HN(h, w, basis), PropagatorConfig(dt=cfg.dt, steps=1, krylov_tol=1e-12)
    )
    amps = product_state(phi0, basis).amps
    worst_sum = 0.0
    for k in range(cfg.steps):
        amps = stepper.step(amps)
        if (k + 1) % cfg.stride == 0:
            wd = occupation_weights(ManyBodyState(basis, amps), phi0)
            worst_sum = max(worst_sum, abs(float(wd.weights.sum()) - 1.0))
    ok = worst_ae < 1e-7 and worst_ab <= 1e-9 and worst_bs <= 1e-9 and worst_sum <= 1e-8
    assert report("criterion-7 alpha/beta/weights consistency", ok,
                  f"|alpha-E1| {worst_ae:.2e}, beta ordering {max(worst_ab, worst_bs):.2e}, "
                  f"|sum w - 1| {worst_sum:.2e}")


def test_criterion_8a_conservation():
    rows = conservation_suite()
    ok = all(r.passed for r in rows)
    detail = ", ".join(f"{r.name} {r.residual:.1e}" for r in rows)
    assert report("criterion-8a norm/energy conservation", ok, detail)


def _factorized_data(cfg):
    """h, phi_0 and <phi_0 x phi_0, W phi_0 x phi_0> of a run's initial data."""
    grid = Grid(cfg.sites, cfg.dx)
    h = build_h(grid, potential_field(cfg, grid))
    phi0 = initial_orbital(cfg, grid, h)
    return h, phi0, pair_interaction_expectation(phi0, interaction_field(cfg, grid))


def test_criterion_8b_gap_identity_as_stated(sweep5):
    cfg, sw = sweep5
    h, phi0, pw = _factorized_data(cfg)
    kin = float(np.real(np.vdot(phi0.mode, h @ phi0.mode)))
    worst = 0.0
    for N, run in sw.runs.items():
        rec = run.records[0]
        worst = max(
            worst,
            abs(rec.EPsi - (kin + (N - 1) / (2 * N) * pw)),
            abs(rec.Ephi - (kin + pw / 2)),
        )
    ok = worst <= 1e-10
    assert report("criterion-8b factorized E^Psi = <h> + (N-1)/(2N)<W>, "
                  "E^phi = <h> + <W>/2", ok, f"worst {worst:.2e} <= 1e-10")


def test_criterion_8c_gap_identity_corrected(sweep5):
    cfg, sw = sweep5
    _, _, pw = _factorized_data(cfg)
    worst = max(abs(run.gap + pw / (2 * N)) for N, run in sw.runs.items())
    ok = worst <= 1e-10
    assert report("criterion-8c factorized gap = -<W>/(2N)", ok,
                  f"worst {worst:.2e} <= 1e-10")


def test_criterion_9_eta_checkpoints():
    ok = (
        p0_of(3) == Fraction(6, 5)
        and eta_of(Fraction(3, 2), 3) == Fraction(1, 3)
        and eta_of(Fraction(2), 3) == Fraction(1, 2)
    )
    p0 = p0_of(3)
    ps = [p0 + k * (Fraction(2) - p0) / 200 for k in range(1, 201)]
    etas = [eta_of(p, 3) for p in ps]
    ok = ok and all(a <= b for a, b in zip(etas, etas[1:]))
    assert report("criterion-9 eta checkpoints and monotone curve", ok,
                  "p0(3)=6/5, eta(3/2,3)=1/3, eta(2,3)=1/2 exact")


def test_criterion_10_bbgky_residual():
    grid = Grid(4, 1.0)
    w = sample_interaction(grid, "gaussian", lam=1.0, sigma=1.0)
    h = build_h(grid)
    basis = enumerate_basis(4, 3)
    phi0 = gaussian_orbital(grid, x0=2.0, sigma=0.8)
    dt = 1e-3
    stepper = NBodyStepper(
        build_HN(h, w, basis), PropagatorConfig(dt=dt, steps=1, krylov_tol=1e-13)
    )
    amps = [product_state(phi0, basis).amps]
    for _ in range(2):
        amps.append(stepper.step(amps[-1]))
    states = [ManyBodyState(basis, a) for a in amps]
    lhs = (gamma1(states[2]).mat - gamma1(states[0]).mat) / (2 * dt)
    rhs = bbgky_rhs_k1(gamma1(states[1]), gamma2(states[1]), h, w, 3)
    res = float(np.max(np.abs(lhs - rhs)))
    tol = max(1e-4, 10 * dt**2)
    ok = res < tol
    assert report("criterion-10 first hierarchy equation residual", ok,
                  f"residual {res:.2e} < {tol:.0e}")


def test_criterion_11_beta_envelope_diagnostic(invsq_sweeps):
    sw1, sw2 = invsq_sweeps[4e-3], invsq_sweeps[2e-3]
    k1, k2 = sw1.fitted_Ks(), sw2.fitted_Ks()
    finite = all(math.isfinite(v) for v in list(k1.values()) + list(k2.values()))
    stable = True
    for N in k1:
        denom = max(k1[N], k2[N])
        if denom > 0 and abs(k1[N] - k2[N]) > 0.2 * denom:
            stable = False
    betas = {N: run.records[-1].beta for N, run in sw2.runs.items()}
    Ns = sorted(betas)
    mono = all(betas[a] >= betas[b] - 1e-12 for a, b in zip(Ns, Ns[1:]))
    ok = finite and stable and mono
    assert report("criterion-11 beta envelope diagnostic", ok,
                  f"fitted-K {sorted(k2.items())}, beta(1) by N "
                  f"{[round(betas[N], 5) for N in Ns]}")
