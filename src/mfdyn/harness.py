"""End-to-end driver: co-evolve the exact N-body state and the Hartree
orbital on one time grid, emit indicator/bound records, run N-sweeps with
rate fits, and produce the eta(p) curve."""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from fractions import Fraction

import numpy as np

from .bounds import (
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
    wnorm_upper_bound,
)
from .condensate import MAX_N, alpha_of, beta_of, occupation_weights
from .errors import ConfigError
from .fock import ManyBodyState, build_HN, enumerate_basis, product_state
from .lattice import Grid, LatticeField, sample_interaction
from .onebody import (
    Orbital,
    build_h,
    evolve_hartree,
    gaussian_orbital,
    ground_state,
    harmonic_potential,
)
from .propagate import NBodyStepper, PropagatorConfig
from .reduce import E_k, R_k, gamma1, gamma2

CSV_HEADER = "t,N,M,alpha,beta,E1,E2,R1,R2,EPsi,Ephi,phi_t,alpha_bound,beta_bound,slack_alpha"

# Spec strings 'kind:a,b': {kind: parameter names}.
POTENTIALS = {"none": (), "harmonic": ("omega",)}
INTERACTIONS = {
    "constant": ("c",),
    "gaussian": ("lam", "sigma"),
    "softcoulomb": ("lam", "eps"),
    "invsquare": ("lam",),
    "random": (),
}
INITIALS = {"gaussian": ("x0", "sigma"), "groundstate": ()}


@dataclass(frozen=True)
class RunConfig:
    sites: int = 8
    particles: int = 4
    particles_list: tuple = ()
    dx: float = 1.0
    tfinal: float = 1.0
    dt: float = 1e-3
    stride: int = 10
    potential: str = "none"
    interaction: str = "gaussian:1,1"
    initial: str = ""  # default: gaussian at L/2 with sigma 1
    p1: float = math.inf
    p2: float = math.inf
    p: str = "3/2"
    dim: int = 3
    K: float = 1.0
    method: str = "krylov"
    out: str = ""
    seed: int = 0

    def __post_init__(self):
        for name in ("sites", "particles", "dx", "tfinal", "dt", "stride"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(
                    f"{name} must be positive and finite, got {getattr(self, name)}"
                )
        if self.particles_list and list(self.particles_list) != sorted(
            set(self.particles_list)
        ):
            raise ConfigError("particles-list must be strictly increasing")
        largest = max((self.particles, *self.particles_list))
        if largest > MAX_N:
            raise ConfigError(f"N = {largest} is above the sector-weight cap N <= {MAX_N}")
        if not (2 <= self.p1 <= self.p2):
            raise ConfigError(f"need 2 <= p1 <= p2, got p1={self.p1}, p2={self.p2}")
        if not 0 < self.K < math.inf:
            raise ConfigError(f"K must be positive and finite, got {self.K}")
        try:
            p = Fraction(self.p)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"p: {exc}") from None
        eta_of(p, self.dim)  # validates p against (p0, 2]
        if self.method not in ("krylov", "dense"):
            raise ConfigError(f"unknown method {self.method!r}")
        _parse_spec(self.potential, POTENTIALS, "potential")
        _parse_spec(self.interaction, INTERACTIONS, "interaction")
        if self.initial:
            _parse_spec(self.initial, INITIALS, "initial orbital")

    @property
    def steps(self) -> int:
        n = round(self.tfinal / self.dt)
        if abs(n * self.dt - self.tfinal) > 1e-9 * max(1.0, self.tfinal):
            raise ConfigError("tfinal must be an integer multiple of dt")
        return int(n)

    @property
    def eta(self) -> Fraction:
        return eta_of(Fraction(self.p), self.dim)


_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}


def make_config(**kwargs) -> RunConfig:
    unknown = kwargs.keys() - _DEFAULTS.keys()
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    return RunConfig(**kwargs)


def parse_config_file(path: str) -> dict:
    """Plain-text `key = value` configuration; unknown keys are errors."""
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (s.strip() for s in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in _DEFAULTS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = value
    return out


def parse_setting(key: str, text: str):
    """Convert one setting given as text to the type of its `RunConfig`
    field: int, float (`inf` included), str, or a comma list of ints for
    `particles_list`."""
    default = _DEFAULTS[key]
    try:
        if isinstance(default, tuple):
            return tuple(int(s) for s in text.split(",") if s)
        return type(default)(text)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _parse_spec(spec: str, kinds: dict, what: str):
    """Parse 'kind:a,b' against {kind: (param names...)}."""
    name, _, rest = spec.partition(":")
    if name not in kinds:
        raise ConfigError(f"unknown {what} {name!r}; choose from {sorted(kinds)}")
    names = kinds[name]
    parts = [s for s in rest.split(",") if s] if rest else []
    if len(parts) != len(names):
        raise ConfigError(
            f"{what} {name!r} takes {len(names)} parameter(s) {names}, got {parts}"
        )
    try:
        values = [float(s) for s in parts]
    except ValueError as exc:
        raise ConfigError(f"{what} {name!r}: {exc}") from None
    return name, dict(zip(names, values))


def potential_field(cfg: RunConfig, grid: Grid):
    name, params = _parse_spec(cfg.potential, POTENTIALS, "potential")
    if name == "none":
        return None
    return harmonic_potential(grid, params["omega"])


def interaction_field(cfg: RunConfig, grid: Grid) -> LatticeField:
    name, params = _parse_spec(cfg.interaction, INTERACTIONS, "interaction")
    if name == "random":
        return sample_interaction(grid, "random", seed=cfg.seed)
    return sample_interaction(grid, name, **params)


def initial_orbital(cfg: RunConfig, grid: Grid, h: np.ndarray) -> Orbital:
    spec = cfg.initial or f"gaussian:{grid.length / 2.0},1"
    name, params = _parse_spec(spec, INITIALS, "initial orbital")
    if name == "groundstate":
        return ground_state(h, grid)
    return gaussian_orbital(grid, params["x0"], params["sigma"])


@dataclass(frozen=True)
class TimeRecord:
    t: float
    N: int
    M: int
    alpha: float
    beta: float
    E1: float
    E2: float
    R1: float
    R2: float
    EPsi: float
    Ephi: float
    phi_t: float
    alpha_bound: float
    beta_bound: float
    slack_alpha: float

    def csv_row(self) -> str:
        vals = []
        for f in fields(self):
            v = getattr(self, f.name)
            vals.append(str(int(v)) if f.name in ("N", "M") else repr(float(v)))
        return ",".join(vals)


@dataclass
class RunResult:
    config: RunConfig
    records: list
    phi_tildes: np.ndarray
    beta0: float
    gap: float

    @property
    def times(self) -> np.ndarray:
        return np.array([r.t for r in self.records])

    def fitted_K(self) -> float:
        return fitted_K(
            self.times,
            np.array([r.beta for r in self.records]),
            self.phi_tildes,
            self.beta0,
            self.gap,
            self.config.particles,
            float(self.config.eta),
        )


def default_cutoffs(w: LatticeField) -> list[float]:
    absw = np.abs(w.values)
    qs = np.quantile(absw, [0.25, 0.5, 0.75])
    return sorted(set([0.0, *(float(q) for q in qs), float(absw.max())]))


@dataclass(frozen=True)
class HartreeSide:
    """The part of a run that does not depend on N: the one-body
    Hamiltonian, the interaction, the Hartree orbital at every step
    (`orbitals[0]` is phi_0), the time grid, the bound on ||w|| and the
    integrands of the alpha and beta envelopes."""

    h: np.ndarray
    w: LatticeField
    orbitals: list
    times: np.ndarray
    w_bound: float
    env_integrand: np.ndarray
    ptil_integrand: np.ndarray


def hartree_side(cfg: RunConfig) -> HartreeSide:
    """Build the lattice problem of `cfg` and solve its Hartree flow."""
    grid = Grid(cfg.sites, cfg.dx)
    v = potential_field(cfg, grid)
    w = interaction_field(cfg, grid)
    h = build_h(grid, v)
    steps = cfg.steps
    orbitals = evolve_hartree(grid, v, w, initial_orbital(cfg, grid, h), cfg.dt, steps)
    return HartreeSide(
        h=h,
        w=w,
        orbitals=orbitals,
        times=cfg.dt * np.arange(steps + 1),
        w_bound=wnorm_upper_bound(w, cfg.p1, cfg.p2, default_cutoffs(w)),
        env_integrand=envelope_integrand(orbitals, conjugate_q(cfg.p1), conjugate_q(cfg.p2)),
        ptil_integrand=phi_tilde_integrand(orbitals, h),
    )


def run_simulation(cfg: RunConfig, side: HartreeSide | None = None) -> RunResult:
    """Co-evolve Psi (exact) and phi (Hartree); one record per stride.

    `side` is `hartree_side(c)` of a config `c` that differs from `cfg` at
    most in `particles`; it is computed here when not given.
    """
    N = cfg.particles
    basis = enumerate_basis(cfg.sites, N)
    if side is None:
        side = hartree_side(cfg)
    h, w, orbitals, times = side.h, side.w, side.orbitals, side.times
    H = build_HN(h, w, basis)
    steps = cfg.steps
    eta = float(cfg.eta)

    pcfg = PropagatorConfig(
        dt=cfg.dt,
        steps=steps,
        method=cfg.method,
        krylov_tol=1e-12,
    )
    stepper = NBodyStepper(H, pcfg)

    record_steps = sorted(set(list(range(0, steps + 1, cfg.stride)) + [steps]))
    psi = product_state(orbitals[0], basis)
    records: list[TimeRecord] = []
    phi_tildes: list[float] = []
    alpha0 = beta0 = gap = 0.0

    amps = psi.amps
    next_idx = 0
    for k in range(steps + 1):
        if k == record_steps[next_idx]:
            t = k * cfg.dt
            state = ManyBodyState(basis, amps)
            phi_t = orbitals[k]
            g1 = gamma1(state)
            e1 = E_k(g1, phi_t)
            r1 = R_k(g1, phi_t)
            if N >= 2:
                g2 = gamma2(state)
                e2 = E_k(g2, phi_t)
                r2 = R_k(g2, phi_t)
            else:
                e2 = r2 = 0.0
            wd = occupation_weights(state, phi_t)
            alpha = alpha_of(wd)
            beta = beta_of(wd)
            e_psi, e_phi = energies(state, H, phi_t, h, w)
            if k == 0:
                alpha0, beta0, gap = alpha, beta, e_psi - e_phi
            phi_env = phi_envelope_integral(
                side.env_integrand[: k + 1], times[: k + 1], side.w_bound
            )
            a_bound = gronwall_alpha_bound(alpha0, N, phi_env)
            ptil = phi_tilde_integral(side.ptil_integrand[: k + 1], times[: k + 1])
            b_bound = beta_bound_envelope(beta0, gap, N, eta, cfg.K, ptil)
            records.append(
                TimeRecord(
                    t=t, N=N, M=cfg.sites,
                    alpha=alpha, beta=beta,
                    E1=e1, E2=e2, R1=r1, R2=r2,
                    EPsi=e_psi, Ephi=e_phi,
                    phi_t=phi_env, alpha_bound=a_bound,
                    beta_bound=b_bound, slack_alpha=a_bound - alpha,
                )
            )
            phi_tildes.append(ptil)
            next_idx += 1
            if next_idx == len(record_steps):
                break
        amps = stepper.step(amps)
    return RunResult(cfg, records, np.array(phi_tildes), beta0, gap)


@dataclass
class SweepResult:
    records: list
    runs: dict  # N -> RunResult
    e_slope: float | None
    r_slope: float | None
    degenerate: bool

    def fitted_Ks(self) -> dict:
        return {N: run.fitted_K() for N, run in self.runs.items()}


def sweep_N(cfg: RunConfig) -> SweepResult:
    """Run each N in turn on one shared Hartree side, merge records by
    (N, t), fit log-log slopes of the final-time indicators against N."""
    Ns = list(cfg.particles_list)
    if len(Ns) < 3:
        raise ConfigError("a sweep needs at least 3 values of N")
    side = hartree_side(cfg)
    runs = {
        N: run_simulation(replace(cfg, particles=N, particles_list=()), side) for N in Ns
    }

    records = [r for N in Ns for r in runs[N].records]
    records.sort(key=lambda r: (r.N, r.t))

    e_final = np.array([runs[N].records[-1].E1 for N in Ns])
    r_final = np.array([runs[N].records[-1].R1 for N in Ns])
    if np.max(e_final) < 1e-12:
        return SweepResult(records, runs, None, None, True)
    logN = np.log(np.array(Ns, dtype=float))
    e_slope = float(np.polyfit(logN, np.log(e_final), 1)[0])
    r_slope = float(np.polyfit(logN, np.log(r_final), 1)[0])
    return SweepResult(records, runs, e_slope, r_slope, False)


def eta_curve(d: int, p_values: list[Fraction]):
    """(p, eta) rows, exact rationals; out-of-range p values are skipped."""
    p0 = p0_of(d)
    rows, skipped = [], []
    for p in p_values:
        p = Fraction(p)
        if not (p0 < p <= 2):
            skipped.append(p)
            continue
        rows.append((p, eta_of(p, d)))
    return rows, skipped


def records_csv(records: list) -> str:
    return "\n".join([CSV_HEADER, *(r.csv_row() for r in records)]) + "\n"
