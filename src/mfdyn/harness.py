"""End-to-end driver: co-evolve the exact N-body state and the Hartree
orbital on one time grid, emit indicator/bound records, run N-sweeps with
rate fits, and produce the eta(p) curve."""
from __future__ import annotations

import math
import os
import pickle
import signal
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .blas import pin_one_thread
from .bounds import (
    beta_bound_envelope,
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
from .condensate import MAX_N, alpha_of, beta_of, occupation_weights, pair_depletion_of
from .errors import ChildLost, ConfigError, NumericalFailure
from .fock import ManyBodyState, build_HN, enumerate_basis, product_state
from .lattice import INTERACTIONS, Grid, LatticeField, sample_interaction
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

# Spec strings 'kind:a,b': {kind: parameter names}, as in lattice.INTERACTIONS.
POTENTIALS = {"none": (), "harmonic": ("omega",)}
INITIALS = {"gaussian": ("x0", "sigma"), "groundstate": ()}

# Largest residual of alpha = E^(1) and of the E^(2) weight identity that a
# record may carry; perfbench's ALPHA_E1_TOL.
IDENTITY_TOL = 1e-8


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
    out: str = ""

    def __post_init__(self):
        for name in ("sites", "particles", "dx", "tfinal", "dt", "stride"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(
                    f"{name} must be positive and finite, got {getattr(self, name)}"
                )
        steps = self.steps
        if steps < 1 or abs(steps * self.dt - self.tfinal) > 1e-9 * max(1.0, self.tfinal):
            raise ConfigError("tfinal must be a positive integer multiple of dt")
        if list(self.particles_list) != sorted(set(self.particles_list)):
            raise ConfigError("particles-list must be strictly increasing")
        if min(self.particles_list, default=1) < 1:
            raise ConfigError("particles_list: particles must be positive")
        largest = max(self.particles_list or (self.particles,))
        if largest > MAX_N:
            raise ConfigError(f"N = {largest} is above the sector-weight cap N <= {MAX_N}")
        if not (2 <= self.p1 <= self.p2):
            raise ConfigError(f"need 2 <= p1 <= p2, got p1={self.p1}, p2={self.p2}")
        if not 0 < self.K < math.inf:
            raise ConfigError(f"K must be positive and finite, got {self.K}")
        try:
            self.eta  # validates p against (p0, 2]
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"p: {exc}") from None
        _parse_spec(self.potential, POTENTIALS, "potential")
        _parse_spec(self.interaction, INTERACTIONS, "interaction")
        if self.initial:
            _parse_spec(self.initial, INITIALS, "initial orbital")

    @property
    def steps(self) -> int:
        """round(tfinal / dt), or 0 where that ratio overflows."""
        ratio = self.tfinal / self.dt
        return round(ratio) if ratio < math.inf else 0

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
    """Plain-text `key = value` configuration; unknown or repeated keys are errors."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    out = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (s.strip() for s in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: key {key!r} set twice")
        out[key] = value
    return out


def parse_setting(key: str, text: str):
    """Convert one setting given as text to the type of its `RunConfig`
    field: int, float (`inf` included), str, or a comma list of ints for
    `particles_list`."""
    default = _DEFAULTS[key]
    try:
        if isinstance(default, tuple):
            return tuple(int(s) for s in comma_fields(text, key))
        return type(default)(text)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def comma_fields(text: str, what: str) -> list:
    """The comma-separated fields of the setting `what`; refuses an empty one."""
    parts = text.split(",") if text else []
    if not all(s.strip() for s in parts):
        raise ConfigError(f"{what}: empty field in {text!r}")
    return parts


def _parse_spec(spec: str, kinds: dict, what: str):
    """Parse 'kind:a,b' against {kind: (param names...)}."""
    name, _, rest = spec.partition(":")
    if name not in kinds:
        raise ConfigError(f"unknown {what} {name!r}; choose from {sorted(kinds)}")
    names = kinds[name]
    parts = comma_fields(rest, f"{what} {name!r}")
    if len(parts) != len(names):
        raise ConfigError(
            f"{what} {name!r} takes {len(names)} parameter(s) {names}, got {parts}"
        )
    try:
        values = [float(s) for s in parts]
    except ValueError as exc:
        raise ConfigError(f"{what} {name!r}: {exc}") from None
    if not all(math.isfinite(x) for x in values):
        raise ConfigError(f"{what} {name!r} takes finite parameters, got {parts}")
    return name, dict(zip(names, values))


@contextmanager
def _named(what: str, spec: str):
    """Prefix a ConfigError raised in the block with the setting and its spec."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(f"{what} {spec!r}: {exc}") from None


def potential_field(cfg: RunConfig, grid: Grid):
    name, params = _parse_spec(cfg.potential, POTENTIALS, "potential")
    if name == "none":
        return None
    with _named("potential", cfg.potential):
        return harmonic_potential(grid, params["omega"])


def interaction_field(cfg: RunConfig, grid: Grid) -> LatticeField:
    name, params = _parse_spec(cfg.interaction, INTERACTIONS, "interaction")
    with _named("interaction", cfg.interaction):
        return sample_interaction(grid, name, **params)


def initial_orbital(cfg: RunConfig, grid: Grid, h: np.ndarray) -> Orbital:
    spec = cfg.initial or f"gaussian:{grid.length / 2.0},1"
    name, params = _parse_spec(spec, INITIALS, "initial orbital")
    with _named("initial orbital", spec):
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


CSV_HEADER = ",".join(f.name for f in fields(TimeRecord))


@dataclass
class RunResult:
    config: RunConfig
    records: list
    side: HartreeSide

    @property
    def times(self) -> np.ndarray:
        return np.array([r.t for r in self.records])

    @property
    def gap(self) -> float:
        """E^Psi(0) - E^phi(0)."""
        return self.records[0].EPsi - self.records[0].Ephi

    def fitted_K(self) -> float:
        return fitted_K(
            self.times,
            np.array([r.beta for r in self.records]),
            np.array(self.side.phi_tildes),
            self.records[0].beta,
            self.gap,
            self.config.particles,
            float(self.config.eta),
        )


class LatticeProblem(NamedTuple):
    """The lattice problem of a config: grid, external potential (None
    for none), interaction, one-body Hamiltonian, initial orbital phi_0
    and the record steps `0, stride, ..., steps`."""

    grid: Grid
    v: LatticeField | None
    w: LatticeField
    h: np.ndarray
    phi0: Orbital
    record_steps: list


def lattice_problem(cfg: RunConfig) -> LatticeProblem:
    """The lattice problem of `cfg`. It is refused when the bound
    ||H_N|| <= N ||h||_inf + (N - 1)/2 max|w| at the run's largest N
    overflows when squared: the Lanczos norms of the propagator square
    that scale, so it could not step such an H_N."""
    grid = Grid(cfg.sites, cfg.dx)
    v = potential_field(cfg, grid)
    w = interaction_field(cfg, grid)
    h = build_h(grid, v)
    N = max(cfg.particles_list or (cfg.particles,))
    with np.errstate(over="ignore"):  # an overflow is refused below
        bound = N * np.linalg.norm(h, np.inf) + (N - 1) / 2 * np.max(np.abs(w.values))
        square = bound * bound
    if not np.isfinite(square):
        raise ConfigError(
            f"N ||h||_inf + (N-1)/2 max|w| = {bound:.3g} at N = {N} squared overflows: "
            "the propagator cannot represent this N-body scale"
        )
    record_steps = [*range(0, cfg.steps, cfg.stride), cfg.steps]
    return LatticeProblem(grid, v, w, h, initial_orbital(cfg, grid, h), record_steps)


@dataclass(frozen=True)
class HartreeSide:
    """The part of a run that does not depend on N: its lattice problem,
    and at each of the problem's record steps the Hartree orbital
    (`orbitals[0]` is phi_0) and the exponents phi(t) of the alpha
    envelope and phi~(t) of the beta envelope."""

    problem: LatticeProblem
    orbitals: list
    phi_ts: list
    phi_tildes: list


def hartree_side(cfg: RunConfig, problem: LatticeProblem) -> HartreeSide:
    """Solve the Hartree flow of `cfg` and integrate both envelope
    exponents up to every record step; `problem` is `lattice_problem(cfg)`."""
    grid, v, w, h, phi0, record_steps = problem
    steps = cfg.steps
    flow = evolve_hartree(v, w, phi0, cfg.dt, steps)
    times = cfg.dt * np.arange(steps + 1)
    w_bound = wnorm_upper_bound(w, cfg.p1, cfg.p2)
    env = envelope_integrand(flow, cfg.dx, cfg.p1, cfg.p2)
    ptil = phi_tilde_integrand(flow, cfg.dx, h)
    return HartreeSide(
        problem=problem,
        orbitals=[Orbital(grid, values) for values in flow[record_steps]],
        phi_ts=[
            phi_envelope_integral(env[: k + 1], times[: k + 1], w_bound)
            for k in record_steps
        ],
        phi_tildes=[phi_tilde_integral(ptil[: k + 1], times[: k + 1]) for k in record_steps],
    )


def run_simulation(cfg: RunConfig) -> RunResult:
    """Co-evolve Psi (exact) and phi (Hartree) for one N; one record per stride.

    Psi steps through `_in_child` while this process solves the Hartree
    side, and each record is built as its state arrives. This process
    keeps numpy's OpenBLAS pool at one thread afterwards. A record whose
    alpha = E1 or E2 weight identity is off by more than IDENTITY_TOL
    raises NumericalFailure.
    """
    if cfg.particles_list:
        raise ConfigError("--particles-list belongs to `mfdyn sweep`; a run takes one N")
    problem = lattice_problem(cfg)
    measure, snapshots = _nbody_side(cfg, problem)
    with _in_child(snapshots) as states:
        side = hartree_side(cfg, problem)
        records = _records(cfg, side, measure, states)
    return RunResult(cfg, records, side)


def _nbody_side(cfg: RunConfig, problem: LatticeProblem):
    """The lab route of `cfg`'s N: `measure(amps, phi)`, which reads Psi's
    gamma1, gamma2 (None at N = 1), occupation weights and (E^Psi, E^phi) at
    phi, and the unstarted stream of Psi's amplitudes at the record steps."""
    basis = enumerate_basis(cfg.sites, cfg.particles)
    H = build_HN(problem.h, problem.w, basis)
    psi0 = product_state(problem.phi0, basis).amps

    def measure(amps: np.ndarray, phi: Orbital):
        state = ManyBodyState(basis, amps)
        g1, g2 = gamma1(state), gamma2(state) if cfg.particles >= 2 else None
        wd = occupation_weights(state, phi)
        return g1, g2, wd, energies(state, H, phi, problem.h, problem.w)

    return measure, _snapshots(H, psi0, cfg, problem.record_steps)


def _snapshots(H, amps: np.ndarray, cfg: RunConfig, record_steps: list):
    """Step Psi from `amps` and yield its amplitudes at every record step."""
    stepper = NBodyStepper(H, PropagatorConfig(dt=cfg.dt, steps=cfg.steps, krylov_tol=1e-12))
    k_prev = 0
    for k in record_steps:
        for _ in range(k - k_prev):
            amps = stepper.step(amps)
        k_prev = k
        yield amps


def _records(cfg: RunConfig, side: HartreeSide, measure, snapshots) -> list:
    """One record per snapshot of Psi, judged against the Hartree side at its step."""
    N = cfg.particles
    eta = float(cfg.eta)
    records: list[TimeRecord] = []
    for amps, k, phi_t, phi_env, ptil in zip(
        snapshots, side.problem.record_steps, side.orbitals, side.phi_ts, side.phi_tildes
    ):
        t = k * cfg.dt
        g1, g2, wd, (e_psi, e_phi) = measure(amps, phi_t)
        e1, r1 = E_k(g1, phi_t), R_k(g1, phi_t)
        alpha, beta = alpha_of(wd), beta_of(wd)
        _check_identity("alpha = E1", alpha, e1, t)
        e2 = r2 = 0.0
        if g2 is not None:
            e2, r2 = E_k(g2, phi_t), R_k(g2, phi_t)
            _check_identity("E2 = 1 - sum_k w_k C(N-k,2)/C(N,2)", pair_depletion_of(wd), e2, t)
        if k == 0:
            alpha0, beta0, gap = alpha, beta, e_psi - e_phi
        a_bound = gronwall_alpha_bound(alpha0, N, phi_env)
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
    return records


def _check_identity(name: str, want: float, got: float, t: float) -> None:
    """Raise NumericalFailure when the two sides of the identity `name`
    differ by more than IDENTITY_TOL at time t."""
    residual = abs(want - got)
    if not residual <= IDENTITY_TOL:
        raise NumericalFailure(
            f"identity {name} broken at t = {t!r}: residual {residual:.3g} > {IDENTITY_TOL}"
        )


@contextmanager
def _in_child(items):
    """Give the block an iterator over the unstarted generator `items`,
    after pinning numpy's OpenBLAS pool to one thread for the rest of this
    process (`pin_one_thread`).

    If it could be pinned and two or more cores are usable, `items` runs
    in a child forked (not spawned: it inherits the pinned pool and the
    imported modules) while this process goes on, and the items arrive
    through a pipe, equal bit for bit to those of a one-process, one-thread
    run; elsewhere it runs in this process. A failure in the child is
    raised from the iterator with its own type and message, and a stream
    that ends without the end mark raises ChildLost. The child is
    reaped on leaving the block, and killed first if the block fails."""
    if not pin_one_thread() or len(os.sched_getaffinity(0)) < 2:
        yield items
        return
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        os.close(read_fd)
        _feed(items, write_fd)  # does not return
    os.close(write_fd)
    pipe = open(read_fd, "rb")
    try:
        yield _received(pipe)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        pipe.close()
        os.waitpid(pid, 0)


def _feed(items, fd: int):
    """The child: write each item of `items` to the pipe `fd` as a pickled
    ("item", item), then the end mark ("end", None) or ("failure", exc)
    for the exception that stops it, and leave by `os._exit` without
    running the parent's exit handlers or printing anything."""
    try:
        with open(fd, "wb") as pipe:
            try:
                for item in items:
                    pickle.dump(("item", item), pipe)
                    pipe.flush()
                message = ("end", None)
            except Exception as exc:
                message = ("failure", exc)
            pickle.dump(message, pipe)
    finally:
        os._exit(0)


def _received(pipe):
    while True:
        try:
            tag, payload = pickle.load(pipe)
        except (EOFError, pickle.UnpicklingError):
            raise ChildLost("the child process ended before its end mark") from None
        if tag == "failure":
            raise payload
        if tag == "end":
            return
        yield payload


@dataclass
class SweepResult:
    runs: dict  # N -> RunResult, in increasing N
    e_slope: float | None
    r_slope: float | None

    @property
    def records(self) -> list:  # every run's records, in (N, t) order
        return [r for run in self.runs.values() for r in run.records]

    @property
    def degenerate(self) -> bool:  # some final-time E1 below 1e-12: no fit
        return self.e_slope is None

    @property
    def below_floor(self) -> list:  # the N whose final-time E1 is roundoff, below 1e-12
        return [N for N, run in self.runs.items() if run.records[-1].E1 < 1e-12]

    def fitted_Ks(self) -> dict:
        return {N: run.fitted_K() for N, run in self.runs.items()}


def sweep_N(cfg: RunConfig) -> SweepResult:
    """Run every N on one shared Hartree side and fit log-log slopes of
    the final-time indicators against N.

    The N values wait in a job pipe, largest first, for one `_sweep_worker`
    per usable core. Each worker runs through `_in_child` and steps and
    records its N values in its own process. A failure in a worker
    is raised here, and the runs that have not started are dropped. This
    process and every worker keep numpy's OpenBLAS pool at one thread.
    """
    Ns = list(cfg.particles_list)
    if len(Ns) < 3:
        raise ConfigError(f"a sweep needs at least 3 values of N in --particles-list, got {Ns}")
    configs = {N: replace(cfg, particles=N, particles_list=()) for N in Ns}
    side = hartree_side(cfg, lattice_problem(cfg))
    jobs, write_fd = os.pipe()
    os.write(write_fd, b"".join(N.to_bytes(4, "little") for N in reversed(Ns)))
    os.close(write_fd)  # before any fork, so an empty pipe reads as its end
    with ExitStack() as stack:
        stack.callback(os.close, jobs)
        streams = [
            stack.enter_context(_in_child(_sweep_worker(jobs, configs, side)))
            for _ in range(min(len(Ns), len(os.sched_getaffinity(0))))
        ]
        records = dict(item for stream in streams for item in stream)
    runs = {N: RunResult(configs[N], records[N], side) for N in Ns}
    result = SweepResult(runs, None, None)
    if result.below_floor:
        return result
    e_final = np.array([run.records[-1].E1 for run in runs.values()])
    r_final = np.array([run.records[-1].R1 for run in runs.values()])
    logN = np.log(np.array(Ns, dtype=float))
    e_slope = float(np.polyfit(logN, np.log(e_final), 1)[0])
    r_slope = float(np.polyfit(logN, np.log(r_final), 1)[0])
    return replace(result, e_slope=e_slope, r_slope=r_slope)


def _sweep_worker(jobs: int, configs: dict, side: HartreeSide):
    """Run N after N read from the job pipe `jobs` until it is empty, then
    yield `(N, records)` of each run. A 4-byte read from a pipe is atomic,
    so each N runs exactly once. A failing run takes every job left before
    it is raised, so no N starts after it."""
    done = []
    try:
        while job := os.read(jobs, 4):
            N = int.from_bytes(job, "little")
            measure, snapshots = _nbody_side(configs[N], side.problem)
            done.append((N, _records(configs[N], side, measure, snapshots)))
    except BaseException:
        os.read(jobs, 4 * len(configs))
        raise
    yield from done


def eta_curve(d: int, p_values: list[Fraction]):
    """(p, eta) rows, exact rationals; the p values `eta_of` refuses are
    skipped, and a d that `p0_of` refuses is raised."""
    p0_of(d)
    rows, skipped = [], []
    for p in map(Fraction, p_values):
        try:
            rows.append((p, eta_of(p, d)))
        except ConfigError:
            skipped.append(p)
    return rows, skipped


def records_csv(records: list) -> str:
    return "\n".join([CSV_HEADER, *(r.csv_row() for r in records)]) + "\n"
