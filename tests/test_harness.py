import ctypes
import errno
import glob
import itertools
import json
import math
import os
import runpy
import signal
import subprocess
import sys
import time
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest

from mfdyn import blas, condensate, harness
from mfdyn.bounds import conjugate_q, wnorm_upper_bound
from mfdyn.checks import SUITES
from mfdyn.cli import build_parser, config_from_args, main
from mfdyn.errors import ConfigError, NumericalFailure
from mfdyn.harness import (
    CSV_HEADER,
    INITIALS,
    INTERACTIONS,
    POTENTIALS,
    RunConfig,
    eta_curve,
    initial_orbital,
    interaction_field,
    lattice_problem,
    make_config,
    parse_config_file,
    potential_field,
    records_csv,
    run_simulation,
    sweep_N,
)
from mfdyn.lattice import Grid, LatticeField, lp_norm, sample_interaction
from mfdyn.onebody import Orbital, build_h, evolve_hartree, hartree_energy


FAST = dict(sites=6, particles=3, tfinal=0.05, dt=5e-3, stride=5)


def test_make_config_defaults_and_validation():
    cfg = make_config()
    assert cfg.sites == 8 and cfg.particles == 4
    assert cfg.steps == 1000
    assert cfg.eta == Fraction(1, 3)
    with pytest.raises(ConfigError):
        make_config(nonsense=3)
    with pytest.raises(ConfigError):
        make_config(dt=-1.0)
    with pytest.raises(ConfigError):
        make_config(particles_list=(4, 2))
    with pytest.raises(ConfigError):
        make_config(p1=4.0, p2=2.0)  # needs p1 <= p2
    with pytest.raises(ConfigError):
        make_config(p="6/5")  # p must exceed p0(3)


@pytest.mark.parametrize(
    "tfinal, dt",
    [(1.0, 3e-4), (1e-12, 1e-3), (1e300, 1e-300)],
    ids=["not-a-multiple", "no-step", "overflow"],
)
def test_config_rejects_a_time_grid_without_whole_steps(tfinal, dt, capsys):
    with pytest.raises(ConfigError, match="integer multiple of dt"):
        make_config(tfinal=tfinal, dt=dt)
    assert main(["simulate", "--tfinal", repr(tfinal), "--dt", repr(dt)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_parse_config_file(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text(
        "# comment\nsites = 6\nparticles-list = 2,3,4\ninteraction = gaussian:1,1\n"
    )
    kv = parse_config_file(str(f))
    assert kv == {
        "sites": "6",
        "particles_list": "2,3,4",
        "interaction": "gaussian:1,1",
    }
    bad = tmp_path / "bad.cfg"
    bad.write_text("mystery = 1\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(bad))
    noeq = tmp_path / "noeq.cfg"
    noeq.write_text("sites 6\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(noeq))


@pytest.mark.parametrize(
    "command, text, lineno, key",
    [
        ("simulate", "sites = 6\nparticles = 3\n# then\n\nparticles = 2\n", 5, "particles"),
        ("sweep", "particles-list = 2,3,4\nparticles_list = 3,4,5\n", 2, "particles_list"),
    ],
)
def test_config_file_refuses_a_key_set_twice(command, text, lineno, key, tmp_path, capsys):
    # the last value used to win without a word; '-' and '_' name one key
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(text)
    with pytest.raises(ConfigError):
        parse_config_file(str(cfg_file))
    assert main([command, "--config", str(cfg_file)]) == 1
    assert capsys.readouterr().err == f"error: {cfg_file}:{lineno}: key {key!r} set twice\n"


def test_spec_string_parsing():
    grid = Grid(6, 1.0)
    cfg = make_config(potential="harmonic:2.0", interaction="softcoulomb:1,0.5")
    v = potential_field(cfg, grid)
    assert v is not None and v.values.real.max() > 0
    w = interaction_field(cfg, grid)
    assert w.values.real[0] == pytest.approx(2.0)
    with pytest.raises(ConfigError):
        potential_field(make_config(potential="cubic:1"), grid)
    with pytest.raises(ConfigError):
        interaction_field(make_config(interaction="gaussian:1"), grid)  # missing sigma


def test_run_simulation_record_grid():
    cfg = make_config(**FAST)
    res = run_simulation(cfg)
    times = res.times
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(cfg.tfinal)
    assert np.allclose(np.diff(times), cfg.stride * cfg.dt)
    for r in res.records:
        assert r.N == cfg.particles and r.M == cfg.sites
        assert math.isfinite(r.alpha) and math.isfinite(r.beta_bound)


def test_records_use_hartree_orbital_of_their_step():
    cfg = make_config(**{**FAST, "stride": 4}, p1=4.0)  # q1 = 4, q2 = 2
    grid = Grid(cfg.sites, cfg.dx)
    v = potential_field(cfg, grid)
    w = interaction_field(cfg, grid)
    h = build_h(grid, v)
    flow = evolve_hartree(v, w, initial_orbital(cfg, grid, h), cfg.dt, cfg.steps)
    times = cfg.dt * np.arange(cfg.steps + 1)
    w_bound = wnorm_upper_bound(w, cfg.p1, cfg.p2)
    fields = [LatticeField(grid, values) for values in flow]
    integrand = np.array(
        [lp_norm(f, conjugate_q(cfg.p1)) + lp_norm(f, conjugate_q(cfg.p2)) for f in fields]
    )
    side = harness.hartree_side(cfg, lattice_problem(cfg))
    record_steps = side.problem.record_steps
    assert record_steps == [0, 4, 8, 10]  # the last step is a record step
    assert len(side.orbitals) == len(record_steps)
    for k, orb in zip(record_steps, side.orbitals):
        assert np.array_equal(orb.values, flow[k])
    res = run_simulation(cfg)
    assert [round(r.t / cfg.dt) for r in res.records] == record_steps
    for r in res.records:
        k = round(r.t / cfg.dt)
        assert r.Ephi == hartree_energy(Orbital(grid, flow[k]), h, w)
        want = 32.0 * w_bound * np.trapezoid(integrand[: k + 1], times[: k + 1])
        assert r.phi_t == pytest.approx(want, rel=1e-14, abs=0)


@pytest.mark.parametrize("N", [1, 3])
def test_records_read_psi_only_through_measure(N):
    # Record a run's measurements, then judge them again from placeholder
    # snapshots: the records must come out byte for byte the same.
    cfg = make_config(**{**FAST, "particles": N})
    problem = lattice_problem(cfg)
    side = harness.hartree_side(cfg, problem)
    measure, snapshots = harness._nbody_side(cfg, problem)
    measured = []

    def recording(amps, phi):
        measured.append((phi, measure(amps, phi)))
        return measured[-1][1]

    records = harness._records(cfg, side, recording, snapshots)
    assert records_csv(records) == records_csv(run_simulation(cfg).records)
    assert [g2 is None for _, (_, g2, _, _) in measured] == [N == 1] * len(records)
    placeholders = [object() for _ in problem.record_steps]
    replay = iter(zip(placeholders, measured))

    def replaying(amps, phi):
        placeholder, (seen_phi, values) = next(replay)
        assert amps is placeholder and phi is seen_phi
        return values

    replayed = harness._records(cfg, side, replaying, placeholders)
    assert next(replay, None) is None
    assert records_csv(replayed) == records_csv(records)


def test_csv_roundtrip_and_determinism(tmp_path):
    cfg = make_config(**FAST)
    res1 = run_simulation(cfg)
    res2 = run_simulation(cfg)
    csv1 = records_csv(res1.records)
    csv2 = records_csv(res2.records)
    assert csv1 == csv2  # bitwise deterministic
    assert csv1.splitlines()[0] == CSV_HEADER
    path = tmp_path / "out.csv"
    path.write_text(records_csv(res1.records))
    assert path.read_text() == csv1
    # repr round-trip: parsing the floats back reproduces them exactly
    row = csv1.splitlines()[1].split(",")
    assert float(row[3]) == res1.records[0].alpha


def test_sweep_requires_enough_points():
    with pytest.raises(ConfigError, match="--particles-list"):
        sweep_N(make_config(**FAST, particles_list=(2, 3)))
    with pytest.raises(ConfigError, match="--particles-list"):
        sweep_N(make_config(**FAST))


def test_run_takes_one_N():
    with pytest.raises(ConfigError, match="--particles-list"):
        run_simulation(make_config(**FAST, particles_list=(2, 3, 4)))


def test_sweep_merging_and_order():
    cfg = make_config(**FAST, particles_list=(2, 3, 4))
    res = sweep_N(cfg)
    keys = [(r.N, r.t) for r in res.records]
    assert keys == sorted(keys)
    assert set(res.runs) == {2, 3, 4}
    assert res.degenerate or (res.e_slope is not None and res.r_slope is not None)


def test_one_particle_run_has_no_pair_indicators():
    res = run_simulation(make_config(**{**FAST, "particles": 1}))
    assert len(res.records) == 3
    for r in res.records:
        assert r.N == 1
        assert r.E2 == 0.0 and r.R2 == 0.0
        assert abs(r.alpha - r.E1) <= 1e-8
        assert r.slack_alpha >= 0


def test_sweep_with_a_constant_interaction_is_degenerate(capsys):
    # w = const keeps the product state exact: every final E1 is below 1e-12
    argv = ["--interaction", "constant:1", "--particles-list", "2,3,4"]
    res = sweep_N(make_config(**FAST, interaction="constant:1", particles_list=(2, 3, 4)))
    assert res.degenerate
    assert res.e_slope is None and res.r_slope is None
    assert max(run.records[-1].E1 for run in res.runs.values()) < 1e-12
    fast = [f"--{k}={v}" for k, v in FAST.items()]
    assert main(["sweep", *fast, *argv]) == 0
    captured = capsys.readouterr()
    assert "# fit: degenerate (all E1 below 1e-12)" in captured.err.splitlines()
    assert captured.out == records_csv(res.records)


def test_sweep_with_one_final_E1_at_roundoff_is_degenerate(capsys):
    # N = 1 keeps the ground state on the Hartree orbital: its final E1 is
    # roundoff, and a fit through it read slopes of 23.4 and 24.0
    settings = dict(sites=6, particles_list=(1, 2, 3), initial="groundstate", tfinal=0.1)
    res = sweep_N(make_config(**settings))
    assert res.degenerate
    assert res.e_slope is None and res.r_slope is None
    assert res.below_floor == [1]
    assert min(res.runs[N].records[-1].E1 for N in (2, 3)) > 1e-4
    argv = ["--sites", "6", "--particles-list", "1,2,3", "--initial", "groundstate",
            "--tfinal", "0.1"]
    assert main(["sweep", *argv]) == 0
    captured = capsys.readouterr()
    fits = [line for line in captured.err.splitlines() if line.startswith("# fit:")]
    assert fits == ["# fit: degenerate (E1 below 1e-12 at N = 1)"]
    assert captured.out == records_csv(res.records)


def test_sweep_solves_hartree_once_and_matches_single_runs(monkeypatch):
    cfg = make_config(**FAST, particles_list=(2, 3, 4))
    calls = []
    solve = harness.evolve_hartree

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(harness, "evolve_hartree", counted)
    res = sweep_N(cfg)
    assert len(calls) == 1
    # the workers send back records only: every run holds the parent's side,
    # in increasing N although the largest N was submitted first
    assert list(res.runs) == list(cfg.particles_list)
    side = res.runs[cfg.particles_list[0]].side
    assert all(run.side is side for run in res.runs.values())
    for N in cfg.particles_list:
        single = run_simulation(replace(cfg, particles=N, particles_list=()))
        assert records_csv(res.runs[N].records) == records_csv(single.records)
    assert len(calls) == 1 + len(cfg.particles_list)


def perfbench_blas_pool_sizes():
    """perfbench/child.py's reader of both OpenBLAS pool sizes."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return runpy.run_path(os.path.join(root, "perfbench", "child.py"))["blas_pool_sizes"]


def size_scipy_blas_pool(n: int) -> None:
    """Size scipy's bundled OpenBLAS pool, if loaded, to n threads: a size
    other than one shows whether a run leaves that pool alone."""
    import scipy

    libdir = os.path.join(os.path.dirname(os.path.dirname(scipy.__file__)), "scipy.libs")
    for path in glob.glob(os.path.join(libdir, "libscipy_openblas-*.so*")):
        set_fn = ctypes.CDLL(path, mode=os.RTLD_NOLOAD).scipy_openblas_set_num_threads
        set_fn.argtypes, set_fn.restype = [ctypes.c_int], None
        set_fn(n)


def test_sweep_workers_run_one_blas_thread_and_the_parent_keeps_one_after(
    tmp_path, monkeypatch
):
    pool_sizes = perfbench_blas_pool_sizes()
    pool_sizes()  # loads scipy's OpenBLAS too, as the benchmark does
    set_numpy = blas.openblas_pool()
    if set_numpy is None:
        pytest.skip("numpy's bundled OpenBLAS is not loaded")
    records = harness._records

    def reporting_records(cfg, *args):
        report = {"pid": os.getpid(), "blas": pool_sizes()}
        (tmp_path / f"{cfg.particles}.json").write_text(json.dumps(report))
        return records(cfg, *args)

    monkeypatch.setattr(harness, "_records", reporting_records)
    set_numpy(2)  # a parent pool size that the sweep pins to one for good
    size_scipy_blas_pool(2)
    before = pool_sizes()
    sweep_N(make_config(**FAST, particles_list=(2, 3, 4)))
    assert before["numpy"] == 2
    pinned = {"numpy": 1, "scipy": before["scipy"]}  # scipy's is left as it was
    assert pool_sizes() == pinned
    reports = [json.loads((tmp_path / f"{N}.json").read_text()) for N in (2, 3, 4)]
    # on one usable core the workers run in this process, by design
    assert all((r["pid"] != os.getpid()) == runs_would_fork() for r in reports)
    assert [r["blas"] for r in reports] == [pinned] * 3


@pytest.mark.parametrize("reason", ["no-blas-entry-points", "one-core"])
def test_sweep_without_pinned_pools_or_a_second_core_runs_in_one_process(
    tmp_path, monkeypatch, reason
):
    cfg = make_config(**FAST, particles_list=(2, 3, 4))
    forked = records_csv(sweep_N(cfg).records)
    records = harness._records

    def reporting_records(cfg, *args):
        (tmp_path / f"{cfg.particles}.pid").write_text(str(os.getpid()))
        return records(cfg, *args)

    monkeypatch.setattr(harness, "_records", reporting_records)
    if reason == "one-core":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    else:
        monkeypatch.setattr(blas, "OPENBLAS_LIB", ("no-such-library-*.so*", blas.OPENBLAS_LIB[1]))
        assert blas.openblas_pool() is None
    res = sweep_N(cfg)
    pids = {(tmp_path / f"{N}.pid").read_text() for N in cfg.particles_list}
    assert pids == {str(os.getpid())}
    assert records_csv(res.records) == forked


FORK_ARGV = {
    "simulate": ["--sites", "6", "--particles", "3", "--tfinal", "0.01", "--stride", "5"],
    "envelope": ["--sites", "6", "--particles", "3", "--tfinal", "0.01", "--stride", "5",
                 "--out", "{out}"],
    "sweep": ["--sites", "6", "--particles-list", "2,3,4", "--tfinal", "0.01", "--stride", "5"],
}


@pytest.mark.parametrize("command", sorted(FORK_ARGV))
def test_cli_forks_without_a_deprecation_warning_at_default_threads(command, tmp_path):
    # Python 3.12+ warns when a process with more than one OS thread forks.
    # At default threads the parent holds OpenBLAS's pool threads until the
    # fork, whose handler joins them. The warning comes from inside os.fork,
    # which discards it as an error under -W error, so it is printed
    # (-W always) and looked for on stderr. A single run forks its stepping
    # child, a sweep its workers. The fresh interpreter also runs the set-up
    # (and a sweep's Hartree side) at default threads, which this process,
    # pinned by its first run, no longer does: the output must equal the
    # pinned in-process run byte for byte.
    src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = tmp_path / "run.csv"
    argv = [a.format(out=out) for a in FORK_ARGV[command]]
    proc = subprocess.run(
        [sys.executable, "-W", "always::DeprecationWarning", "-m", "mfdyn", command, *argv],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "DeprecationWarning" not in proc.stderr
    cfg = config_from_args(build_parser().parse_args([command, *argv]))
    run = sweep_N if command == "sweep" else run_simulation
    csv = out.read_text() if command == "envelope" else proc.stdout
    assert csv == records_csv(run(cfg).records)


def no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def runs_would_fork() -> bool:
    return blas.openblas_pool() is not None and len(os.sched_getaffinity(0)) > 1


def test_openblas_pool_skips_a_match_this_process_has_not_loaded(monkeypatch):
    # the glob also matches a library this process never loaded, sorted
    # first: it is passed over, and not loaded, on the way to numpy's own
    if blas.openblas_pool() is None:
        pytest.skip("numpy's bundled OpenBLAS is not loaded")
    matches, load = glob.glob, ctypes.CDLL
    tried = []

    def with_an_unloaded_match(pattern):
        return [*matches(pattern), os.path.join(os.path.dirname(pattern), "a-not-loaded.so")]

    def logged_load(path, mode):
        tried.append(os.path.basename(path))
        return load(path, mode=mode)

    monkeypatch.setattr(blas.glob, "glob", with_an_unloaded_match)
    monkeypatch.setattr(blas.ctypes, "CDLL", logged_load)
    set_fn = blas.openblas_pool()
    assert set_fn is not None and set_fn.__name__ == blas.OPENBLAS_LIB[1]
    assert len(tried) == 2 and tried[0] == "a-not-loaded.so"


def test_sweep_workers_outnumbering_the_cores_run_each_N_once(tmp_path, monkeypatch):
    if not runs_would_fork():
        pytest.skip("the sweep runs in this process")
    cfg = make_config(**FAST, particles_list=(2, 3, 4, 5, 6))
    one_per_core = records_csv(sweep_N(cfg).records)
    records = harness._records

    def logging_records(cfg, *args):
        with open(tmp_path / str(cfg.particles), "a") as log:
            log.write(f"{os.getpid()}\n")
        return records(cfg, *args)

    monkeypatch.setattr(harness, "_records", logging_records)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))  # 5 workers
    res = sweep_N(cfg)
    for N in cfg.particles_list:
        assert len((tmp_path / str(N)).read_text().split()) == 1
    assert records_csv(res.records) == one_per_core
    assert no_child_left()


def test_runs_in_a_forked_child_never_fork_again(tmp_path, monkeypatch):
    # a sweep worker steps Psi in its own process: every process that
    # steps is a child of this one, and there are no more than workers
    if not runs_would_fork():
        pytest.skip("the sweep runs in this process")
    log = tmp_path / "stepping"
    snapshots = harness._snapshots

    def logging_snapshots(*args):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {os.getppid()}\n")
        yield from snapshots(*args)

    monkeypatch.setattr(harness, "_snapshots", logging_snapshots)
    sweep_N(make_config(**FAST, particles_list=(2, 3, 4)))
    pairs = [line.split() for line in log.read_text().splitlines()]
    assert len(pairs) == 3
    assert {ppid for _, ppid in pairs} == {str(os.getpid())}
    assert len({pid for pid, _ in pairs}) <= min(3, len(os.sched_getaffinity(0)))
    assert no_child_left()


@pytest.mark.parametrize("error", [NumericalFailure, ConfigError])
def test_sweep_raises_a_worker_failure_with_its_type_and_message(monkeypatch, error):
    def failing_records(cfg, *args):
        if cfg.particles == 3:
            raise error("planted failure at N = 3")
        return []

    monkeypatch.setattr(harness, "_records", failing_records)
    with pytest.raises(error) as info:
        sweep_N(make_config(**FAST, particles_list=(2, 3, 4)))
    assert type(info.value) is error and str(info.value) == "planted failure at N = 3"
    assert no_child_left()


def test_sweep_failure_drops_the_runs_still_waiting(tmp_path, monkeypatch):
    # N = 9 goes first and fails at once. N = 8 fails in the second worker
    # while the first runs N = 9, so the failing worker must take the jobs
    # left. Either way N = 2, last in line, never starts.
    for failing in (9, 8):
        started = tmp_path / str(failing)
        started.mkdir()

        def failing_records(cfg, *args, started=started, failing=failing):
            (started / str(cfg.particles)).touch()
            if cfg.particles == failing:
                raise NumericalFailure(f"planted failure at N = {failing}")
            time.sleep(0.15)
            return []

        monkeypatch.setattr(harness, "_records", failing_records)
        with pytest.raises(NumericalFailure, match=f"planted failure at N = {failing}"):
            sweep_N(make_config(**FAST, particles_list=tuple(range(2, 10))))
        Ns = {int(path.name) for path in started.iterdir()}
        assert failing in Ns and 2 not in Ns
        assert no_child_left()


def kill_the_sweep_worker_of_N3(monkeypatch):
    """Plant a SIGKILL in the sweep worker that records N = 3."""
    test_pid = os.getpid()

    def dying_records(cfg, *args):
        if cfg.particles == 3 and os.getpid() != test_pid:
            os.kill(os.getpid(), signal.SIGKILL)
        return []

    monkeypatch.setattr(harness, "_records", dying_records)


def kill_the_stepping_child_at_step_3(monkeypatch):
    """Plant a SIGKILL in the stepping child at its third step."""
    test_pid = os.getpid()

    class DyingStepper(harness.NBodyStepper):
        calls = 0

        def step(self, amps):
            self.calls += 1
            if self.calls == 3 and os.getpid() != test_pid:
                os.kill(os.getpid(), signal.SIGKILL)
            return super().step(amps)

    monkeypatch.setattr(harness, "NBodyStepper", DyingStepper)


def test_sweep_worker_killed_mid_sweep_raises_instead_of_dropping_its_runs(monkeypatch):
    if not runs_would_fork():
        pytest.skip("the sweep runs in this process")
    kill_the_sweep_worker_of_N3(monkeypatch)
    with pytest.raises(RuntimeError, match="ended before its end mark"):
        sweep_N(make_config(**FAST, particles_list=(2, 3, 4)))
    assert no_child_left()


@pytest.mark.parametrize("error", [NumericalFailure, ConfigError])
def test_run_raises_a_stepping_failure_with_its_type_and_message(monkeypatch, error):
    class FailingStepper(harness.NBodyStepper):
        calls = 0

        def step(self, amps):
            self.calls += 1
            if self.calls == 3:
                raise error("planted failure at step 3")
            return super().step(amps)

    monkeypatch.setattr(harness, "NBodyStepper", FailingStepper)
    with pytest.raises(error) as info:
        run_simulation(make_config(**FAST))
    assert type(info.value) is error and str(info.value) == "planted failure at step 3"
    assert no_child_left()


def test_run_with_a_killed_stepping_child_raises_instead_of_ending_early(monkeypatch):
    if not runs_would_fork():
        pytest.skip("the run steps in this process")
    kill_the_stepping_child_at_step_3(monkeypatch)
    with pytest.raises(RuntimeError, match="ended before its end mark"):
        run_simulation(make_config(**FAST))
    assert no_child_left()


def test_run_whose_fork_fails_raises_it_and_closes_the_pipe(monkeypatch):
    if not runs_would_fork():
        pytest.skip("the run steps in this process")
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("no /proc/self/fd to count this process's open files in")

    def failing_fork():
        raise OSError(errno.EAGAIN, "planted fork failure")

    monkeypatch.setattr(os, "fork", failing_fork)
    before = len(os.listdir("/proc/self/fd"))
    with pytest.raises(OSError, match="planted fork failure"):
        run_simulation(make_config(**FAST))
    assert len(os.listdir("/proc/self/fd")) == before
    assert no_child_left()


def test_run_failure_in_the_records_ends_the_stepping_child(monkeypatch):
    class SlowStepper(harness.NBodyStepper):
        calls = 0

        def step(self, amps):
            self.calls += 1
            if self.calls > 10:
                time.sleep(1.0)
            return super().step(amps)

    weights = harness.occupation_weights
    calls = []

    def failing_weights(state, phi):
        calls.append(state)
        if len(calls) == 3:
            raise NumericalFailure("planted failure at record 3")
        return weights(state, phi)

    monkeypatch.setattr(harness, "NBodyStepper", SlowStepper)
    monkeypatch.setattr(harness, "occupation_weights", failing_weights)
    cfg = make_config(**{**FAST, "tfinal": 0.1})  # records at steps 0, 5, 10, 15, 20
    start = time.perf_counter()
    with pytest.raises(NumericalFailure) as info:
        run_simulation(cfg)
    elapsed = time.perf_counter() - start
    assert str(info.value) == "planted failure at record 3"
    assert no_child_left()
    assert elapsed < 5.0  # the 10 steps after record 3 take 10 s


def test_run_steps_in_a_child_with_one_blas_thread_and_the_parent_keeps_one_after(
    tmp_path, monkeypatch
):
    pool_sizes = perfbench_blas_pool_sizes()
    pool_sizes()  # loads scipy's OpenBLAS too, as the benchmark does
    set_numpy = blas.openblas_pool()
    if set_numpy is None:
        pytest.skip("numpy's bundled OpenBLAS is not loaded")
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one usable core: the run steps in its own process")
    report = tmp_path / "stepper.json"

    class ReportingStepper(harness.NBodyStepper):
        def __init__(self, *args, **kwargs):
            report.write_text(json.dumps({"pid": os.getpid(), "blas": pool_sizes()}))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(harness, "NBodyStepper", ReportingStepper)
    set_numpy(2)  # a parent pool size that the run pins to one for good
    size_scipy_blas_pool(2)
    before = pool_sizes()
    run_simulation(make_config(**FAST))
    assert before["numpy"] == 2
    pinned = {"numpy": 1, "scipy": before["scipy"]}  # scipy's is left as it was
    assert pool_sizes() == pinned
    stepper = json.loads(report.read_text())
    assert stepper["pid"] != os.getpid()
    assert stepper["blas"] == pinned
    assert no_child_left()


def test_no_openblas_worker_restarts_after_a_run():
    # A pool of two threads holds one worker thread. The fork handler joins
    # the workers, and a pool left at one thread starts none again.
    if not runs_would_fork():
        pytest.skip("the run steps in this process")
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to count this process's threads in")
    perfbench_blas_pool_sizes()()  # loads scipy's OpenBLAS too
    blas.openblas_pool()(2)
    before = len(os.listdir("/proc/self/task"))
    run_simulation(make_config(**FAST))
    assert len(os.listdir("/proc/self/task")) < before


@pytest.mark.parametrize("reason", ["no-blas-entry-points", "one-core"])
def test_run_without_pinned_pools_or_a_second_core_steps_in_one_process(
    monkeypatch, reason
):
    cfg = make_config(**FAST)
    two_processes = records_csv(run_simulation(cfg).records)
    pids = []

    class ReportingStepper(harness.NBodyStepper):
        def __init__(self, *args, **kwargs):
            pids.append(os.getpid())  # seen here only if it runs in this process
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(harness, "NBodyStepper", ReportingStepper)
    if reason == "one-core":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    else:
        monkeypatch.setattr(blas, "OPENBLAS_LIB", ("no-such-library-*.so*", blas.OPENBLAS_LIB[1]))
        assert blas.openblas_pool() is None
    assert records_csv(run_simulation(cfg).records) == two_processes
    assert pids == [os.getpid()]


def test_every_weight_call_of_a_run_reuses_one_layout(monkeypatch):
    # the dGamma(q) of every record of one N take the layout the first one
    # made; a run of another N has a basis, and a layout, of its own
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # runs in this process
    built = []

    def keeping(q, basis, *args, _fn=condensate.second_quantize_onebody):
        built.append((basis.particles, _fn(q, basis, *args)))
        return built[-1][1]

    monkeypatch.setattr(condensate, "second_quantize_onebody", keeping)
    for run, cfg in [
        (run_simulation, make_config(**FAST)),
        (sweep_N, make_config(**FAST, particles_list=(2, 3, 4))),
    ]:
        built.clear()
        res = run(cfg)
        by_N = {}
        for N, op in built:
            by_N.setdefault(N, []).append(op.indptr)
        assert sorted(by_N) == sorted({r.N for r in res.records})
        records_per_N = cfg.steps // cfg.stride + 1
        for indptrs in by_N.values():
            assert len(indptrs) == records_per_N
            assert all(np.shares_memory(a, indptrs[0]) for a in indptrs)
        firsts = [indptrs[0] for indptrs in by_N.values()]
        for a, b in itertools.combinations(firsts, 2):
            assert not np.shares_memory(a, b)


def test_sweep_integrates_each_envelope_once_per_record_step(monkeypatch):
    cfg = make_config(**FAST, particles_list=(2, 3, 4))
    calls = {"phi_envelope_integral": 0, "phi_tilde_integral": 0}
    for name in calls:

        def counted(*args, _name=name, _fn=getattr(harness, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(harness, name, counted)
    res = sweep_N(cfg)
    records_per_N = cfg.steps // cfg.stride + 1
    assert len(res.records) == len(cfg.particles_list) * records_per_N
    assert calls == dict.fromkeys(calls, records_per_N)


def test_random_interaction_takes_its_seed_in_the_spec():
    grid = Grid(6, 1.0)
    for seed in (3, 4):
        cfg = config_from_args(
            build_parser().parse_args(["simulate", "--interaction", f"random:{seed}"])
        )
        want = sample_interaction(grid, "random", seed=seed)
        assert np.array_equal(interaction_field(cfg, grid).values, want.values)


def test_eta_curve_rows_and_skips():
    rows, skipped = eta_curve(3, [Fraction(1, 1), Fraction(3, 2), Fraction(2, 1)])
    assert skipped == [Fraction(1, 1)]
    assert rows == [
        (Fraction(3, 2), Fraction(1, 3)),
        (Fraction(2, 1), Fraction(1, 2)),
    ]
    # a dimension p0_of refuses is raised, not taken as a reason to skip every p
    with pytest.raises(ConfigError, match="dimension must be >= 1"):
        eta_curve(0, [Fraction(3, 2)])


# --- CLI ---------------------------------------------------------------


def test_cli_simulate_writes_csv(tmp_path, capsys):
    out = tmp_path / "run.csv"
    rc = main(
        [
            "simulate", "--sites", "6", "--particles", "3", "--tfinal", "0.05",
            "--dt", "0.005", "--stride", "5", "--out", str(out),
        ]
    )
    assert rc == 0
    text = out.read_text()
    assert text.splitlines()[0] == CSV_HEADER
    assert len(text.splitlines()) >= 3


def test_cli_config_file_with_flag_override(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("sites = 6\nparticles = 3\ntfinal = 0.05\ndt = 0.005\n")
    out = tmp_path / "o.csv"
    rc = main(["simulate", "--config", str(cfgfile), "--tfinal", "0.01",
               "--out", str(out)])
    assert rc == 0
    last = out.read_text().splitlines()[-1].split(",")
    assert float(last[0]) == pytest.approx(0.01)  # flag overrode the file


def test_cli_exit_code_config_error(capsys):
    rc = main(["simulate", "--dt", "-1"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_cli_exit_code_numerical_failure(capfd):
    # an absurd dt makes the Krylov exponential unconvergable at maxdim
    rc = main(
        ["simulate", "--sites", "6", "--particles", "3", "--tfinal", "1000000",
         "--dt", "1000000", "--stride", "1"]
    )
    assert rc == 2
    err = capfd.readouterr().err  # file-descriptor capture sees the stepping child too
    assert err.count("numerical failure:") == 1
    assert "Traceback" not in err


def test_cli_sweep_numerical_failure_in_a_worker(capfd):
    rc = main(
        ["sweep", "--sites", "6", "--particles-list", "2,3,4", "--tfinal", "1000000",
         "--dt", "1000000", "--stride", "1"]
    )
    assert rc == 2
    err = capfd.readouterr().err  # file-descriptor capture sees the workers too
    assert err.count("numerical failure:") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, plant",
    [("simulate", kill_the_stepping_child_at_step_3), ("sweep", kill_the_sweep_worker_of_N3)],
    ids=["simulate", "sweep"],
)
def test_cli_reports_a_killed_child_in_one_line(command, plant, monkeypatch, capfd):
    if not runs_would_fork():
        pytest.skip("the run steps in this process")
    plant(monkeypatch)
    argv = [f"--{key}={value}" for key, value in FAST.items()]
    if command == "sweep":
        argv.append("--particles-list=2,3,4")
    assert main([command, *argv]) == 1
    # file-descriptor capture sees the children too
    assert capfd.readouterr().err == "error: the child process ended before its end mark\n"
    assert no_child_left()


def test_cli_envelope_runs(tmp_path, capfd):
    out = tmp_path / "run.csv"
    rc = main(
        ["envelope", "--sites", "6", "--particles", "3", "--tfinal", "0.05",
         "--dt", "0.005", "--stride", "5", "--out", str(out)]
    )
    assert rc == 0
    lines = capfd.readouterr().out.splitlines()
    assert lines[-2] == "envelope violated: False"
    assert lines[-1].startswith("fitted-K for the beta envelope: ")
    cfg = make_config(sites=6, particles=3, tfinal=0.05, dt=0.005, stride=5)
    assert out.read_text() == records_csv(run_simulation(cfg).records)


def test_cli_envelope_reads_stride_from_config_file(tmp_path, capfd):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("stride = 5\nsites = 6\nparticles = 3\ntfinal = 0.05\ndt = 0.005\n")
    assert main(["envelope", "--config", str(cfg_file)]) == 0
    lines = capfd.readouterr().out.splitlines()
    assert lines[0].split() == ["t", "alpha", "envelope", "slack", "beta"]
    # records at steps 0, 5, 10; a `--stride` default of its own would drop one
    assert lines.index("envelope violated: False") == 1 + 3


def test_cli_envelope_violated_exits_3(monkeypatch, capfd):
    monkeypatch.setattr(harness, "gronwall_alpha_bound", lambda alpha0, N, phi_t: 0.0)
    rc = main(["envelope", *(f"--{k}={v}" for k, v in FAST.items())])
    assert rc == 3
    assert capfd.readouterr().out.splitlines()[-2] == "envelope violated: True"


def test_cli_envelope_rejects_particles_list(capfd):
    rc = main(["envelope", "--particles-list", "2,3,4"])
    err = capfd.readouterr().err
    assert rc == 1
    assert "--particles-list" in err.splitlines()[-1]
    assert "Traceback" not in err


def test_cli_envelope_reports_numerical_failure(capfd):
    # an absurd dt leaves the Krylov exponential unconverged at maxdim;
    # exit 3 would read as "envelope violated"
    rc = main(
        ["envelope", "--sites", "6", "--particles", "3", "--tfinal", "1000000",
         "--dt", "1000000", "--stride", "1"]
    )
    err = capfd.readouterr().err
    assert rc == 2
    assert err.startswith("numerical failure: ")
    assert len(err.splitlines()) == 1


def test_cli_envelope_reports_run_config_errors(capfd):
    # the basis cap is checked inside the run, after the flags parse
    rc = main(["envelope", "--sites", "30", "--particles", "9"])
    err = capfd.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "above the cap" in err
    assert "Traceback" not in err


def test_cli_eta_curve_output(capsys):
    rc = main(["eta-curve", "--dim", "3", "--p-grid", "1,3/2,2"])
    assert rc == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines[0] == "p,eta"
    assert lines[1].startswith("1.500000000000,0.333333333333")
    assert lines[2].startswith("2.000000000000,0.500000000000")
    assert "skipped" in captured.err


def test_cli_check_suite(capsys):
    for suite in ("bounds", "fock-oracle"):
        rc = main(["check", suite])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"PASS {suite}/" in out
        assert "FAIL" not in out
    assert main(["check", "nosuch"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert all(suite in err for suite in SUITES)


def test_cli_sweep_reports_fit(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(
        ["sweep", "--sites", "6", "--particles-list", "2,3,4", "--tfinal", "0.05",
         "--dt", "0.005", "--stride", "5", "--out", str(out)]
    )
    assert rc == 0
    err = capsys.readouterr().err
    assert "fit:" in err and "fitted-K" in err
    assert out.read_text().splitlines()[0] == CSV_HEADER


def test_cli_sweep_caps_only_the_N_it_runs(tmp_path):
    # --particles 10 is above MAX_N, but a sweep runs only its list
    out = tmp_path / "sweep.csv"
    rc = main(
        ["sweep", "--sites", "4", "--particles", "10", "--particles-list", "2,3,4",
         "--tfinal", "0.01", "--dt", "0.005", "--out", str(out)]
    )
    assert rc == 0
    assert {row.split(",")[1] for row in out.read_text().splitlines()[1:]} == {"2", "3", "4"}


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--sites", "abc"],
        ["simulate", "--method", "dense"],  # exact stepping is mfdyn.checks' oracle
        ["simulate", "--p1", "x"],
        ["simulate", "--interaction", "gaussian:1,x"],
        ["sweep", "--particles-list", "2,x"],
        ["simulate", "--p", "abc"],
        ["simulate", "--tfinal", "inf"],
        ["simulate", "--K", "nan"],
        ["simulate", "--config", "{bad_cfg}"],
        ["eta-curve", "--p-grid", "abc"],
        ["eta-curve", "--dim", "abc", "--p-grid", "3/2"],
        ["simulate", "--sites", "2", "--particles", "10", "--tfinal", "0.01", "--dt", "0.005"],
        ["sweep", "--sites", "2", "--particles-list", "2,3,10", "--tfinal", "0.01",
         "--dt", "0.005"],
        ["simulate", "--sites", "4", "--particles", "2", "--particles-list", "2,3,4"],
        ["simulate", "--interaction", "random:2.5"],
        ["simulate", "--seed", "3"],
        ["simulate", "--potential", "harmonic:inf"],
        ["simulate", "--initial", "gaussian:nan,1"],
        ["simulate", "--initial", "gaussian:1,inf"],
        ["simulate", "--config", "{method_cfg}"],
        ["simulate", "--config", "{tmp_path}/missing.cfg"],
        ["simulate", "--config", "{tmp_path}"],
        ["simulate", "--config", "{binary_cfg}"],
        ["simulate", "--sites", "4", "--particles", "2", "--tfinal", "0.01", "--dt", "0.005",
         "--out", "{tmp_path}/missing/run.csv"],
        ["eta-curve", "--p-grid", "3/2", "--out", "{tmp_path}/missing/eta.csv"],
        ["simulate", "--dx", "1e-200", "--tfinal", "0.01"],  # dx^2 underflows to 0
        ["simulate", "--dx", "1e-160", "--tfinal", "0.01"],  # 2/dx^2 overflows
        ["simulate", "--potential", "harmonic:1e200"],  # omega^2 overflows
        ["simulate", "--interaction", "gaussian:1,1e-300"],  # sigma^2 underflows to 0
        ["simulate", "--interaction", "softcoulomb:1,1e-300"],
        ["simulate", "--initial", "gaussian:0,1e-300"],
        ["simulate", "--interaction", "gaussian:1,,1"],
        ["simulate", "--interaction", "gaussian:1,1,"],
        ["simulate", "--initial", "groundstate:,"],
        ["sweep", "--particles-list", "2,,3,4"],
        ["sweep", "--particles-list", ",2,3,4"],
        ["sweep", "--particles-list", "0,2,3"],
        ["sweep", "--particles-list", "-1,2,3"],  # values that start with "-"
        ["simulate", "--dt", "-1e-3"],
        ["simulate", "--tfinal", "-2e-3"],
        ["simulate", "--p", "-3/2"],
        ["eta-curve", "--p-grid", "3/2,,2"],
        ["eta-curve", "--p-grid", "-3/2,,2"],
        ["eta-curve", "--p-grid", ","],
        ["eta-curve", "--p-grid", ""],
    ],
)
@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
def test_cli_malformed_input_exits_1(argv, tmp_path, capsys):
    # Specs that parse but give an unusable field or orbital: the error names them.
    named_specs = ("harmonic:1e200", "gaussian:1,1e-300", "softcoulomb:1,1e-300",
                   "gaussian:0,1e-300")
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("sites = abc\n")
    method_cfg = tmp_path / "method.cfg"
    method_cfg.write_text("method = dense\n")
    binary_cfg = tmp_path / "binary.cfg"
    binary_cfg.write_bytes(b"\xff\xfe sites = 6\n")
    # Lists with an empty or a non-positive field, and values that start
    # with "-": the error names the setting.
    named_settings = {
        "gaussian:1,,1": "interaction 'gaussian': empty field",
        "gaussian:1,1,": "interaction 'gaussian': empty field",
        "groundstate:,": "initial orbital 'groundstate': empty field",
        "2,,3,4": "particles_list: empty field",
        ",2,3,4": "particles_list: empty field",
        "0,2,3": "particles_list: particles must be positive",
        "-1,2,3": "particles_list: particles must be positive",
        "-1e-3": "dt must be positive and finite, got -0.001",
        "-2e-3": "tfinal must be positive and finite, got -0.002",
        "-3/2": "p must lie in (p0, 2]",
        "3/2,,2": "p-grid: empty field",
        "-3/2,,2": "p-grid: empty field",
        ",": "p-grid: empty field",
        "": "p-grid: no p values",
    }
    names = dict(bad_cfg=bad_cfg, method_cfg=method_cfg, binary_cfg=binary_cfg, tmp_path=tmp_path)
    rc = main([a.format(**names) for a in argv])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err
    if argv[-1] in named_specs:
        assert f"'{argv[-1]}'" in err
    if argv[-1] in named_settings:
        assert err.startswith("error: " + named_settings[argv[-1]])


# (identity, the harness name whose result is faulted, the fault)
PLANTED_FAULTS = {
    "alpha": (  # weight 1e-6 moved from w_0 to w_1
        "alpha = E1",
        "occupation_weights",
        lambda wd: condensate.WeightDistribution(wd.weights + [-1e-6, 1e-6, 0.0, 0.0]),
    ),
    "E2": ("E2 = 1 - sum_k w_k C(N-k,2)/C(N,2)", "pair_depletion_of", lambda e2: e2 + 1e-6),
}


@pytest.mark.parametrize("fault_in", sorted(PLANTED_FAULTS))
def test_a_broken_identity_fails_the_run_at_its_record(monkeypatch, capsys, fault_in):
    identity, planted, fault = PLANTED_FAULTS[fault_in]
    real = getattr(harness, planted)
    calls = []

    def faulty(*args):
        calls.append(real(*args))
        return fault(calls[-1]) if len(calls) == 2 else calls[-1]  # record 1 only

    monkeypatch.setattr(harness, planted, faulty)
    with pytest.raises(NumericalFailure) as info:
        run_simulation(make_config(**FAST))
    t1 = FAST["stride"] * FAST["dt"]
    assert str(info.value).startswith(f"identity {identity} broken at t = {t1!r}: residual ")
    assert no_child_left()
    calls.clear()
    argv = [f"--{key}={value}" for key, value in FAST.items()]
    assert main(["simulate", *argv]) == 2
    err = capsys.readouterr().err
    assert err == f"numerical failure: {info.value}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--dx", "1e-150"],  # hops of 1/dx^2 = 1e300
        ["simulate", "--interaction", "constant:1e200"],
        ["envelope", "--interaction", "invsquare:1e300"],  # w(0) = 1e300
        ["simulate", "--potential", "harmonic:1e150"],  # v up to 4e300
        ["sweep", "--particles-list", "2,3,9", "--interaction", "constant:1e154"],
    ],
)
@pytest.mark.filterwarnings("error")
def test_cli_refuses_an_N_body_scale_the_propagator_cannot_represent(
    argv, monkeypatch, capfd
):
    def never(*args, **kwargs):
        raise AssertionError("Psi was stepped")

    monkeypatch.setattr("mfdyn.harness._snapshots", never)
    monkeypatch.setattr("mfdyn.harness._in_child", never)
    assert main(argv + ["--tfinal", "0.01"]) == 1
    err = capfd.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "squared overflows" in err


def test_propagator_scale_bound_reads_the_largest_N():
    # 1e154 * (N-1)/2 squared is finite at N = 2 and overflows at N = 9
    small = make_config(particles=2, interaction="constant:1e154", tfinal=0.01)
    assert lattice_problem(small).w.values[0] == 1e154
    with pytest.raises(ConfigError, match="at N = 9"):
        lattice_problem(replace(small, particles_list=(2, 3, 9)))
    lattice_problem(make_config(dx=1e-60, tfinal=0.01))  # refused later, by step control


@pytest.mark.parametrize("command", ["simulate", "sweep", "envelope", "eta-curve"])
def test_cli_refuses_out_into_a_missing_directory_before_the_run(
    command, tmp_path, monkeypatch, capsys
):
    def never(*args, **kwargs):
        raise AssertionError("the run started")

    for name in ("run_simulation", "sweep_N", "eta_curve"):
        monkeypatch.setattr(f"mfdyn.cli.{name}", never)
    existing = tmp_path / "existing"
    existing.mkdir()
    for out in (tmp_path / "missing" / "x.csv", existing):
        argv = [command, "--out", str(out)]
        argv += ["--p-grid", "3/2"] if command == "eta-curve" else ["--tfinal", "0.01"]
        if command == "sweep":
            argv += ["--particles-list", "2,3"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not (tmp_path / "missing").exists()
    assert not any(existing.iterdir())


@pytest.mark.parametrize("command", ["simulate", "eta-curve"])
def test_cli_reports_a_failed_write_after_the_run_in_one_line(
    command, tmp_path, monkeypatch, capsys
):
    # a full disk shows only when the records are written, after the run
    def full_disk(*args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr("mfdyn.cli.open", full_disk, raising=False)
    out = tmp_path / "x.csv"
    argv = [f"--{key}={value}" for key, value in FAST.items()]
    if command == "eta-curve":
        argv = ["--p-grid", "3/2"]
    assert main([command, *argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: cannot write {out}: {os.strerror(errno.ENOSPC)}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "where, message",
    [
        ("lattice_problem", ""),  # the record-step list of --tfinal 1e9
        # the Hartree flow array of --tfinal 1e6
        ("evolve_hartree", "Unable to allocate 119. GiB for an array with shape "
                           "(1000000001, 8) and data type complex128"),
    ],
)
@pytest.mark.filterwarnings("error")
def test_cli_reports_a_run_too_large_for_memory_in_one_line(
    where, message, monkeypatch, capsys
):
    # the allocation is planted: a real one this size would take the machine
    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(harness, where, out_of_memory)
    argv = [f"--{key}={value}" for key, value in FAST.items()]
    assert main(["simulate", *argv]) == 1
    assert capsys.readouterr().err == f"error: {message or 'out of memory'}\n"
    assert no_child_left()


def test_cli_help_names_every_spec_kind(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for kinds in (POTENTIALS, INTERACTIONS, INITIALS):
        for kind in kinds:
            assert kind in out


@pytest.mark.parametrize("command", ["simulate", "sweep", "envelope"])
def test_every_config_field_has_a_flag(command):
    for f in fields(RunConfig):
        args = build_parser().parse_args([command, "--" + f.name.replace("_", "-"), "7"])
        assert getattr(args, f.name) == "7"


@pytest.mark.parametrize(
    "key, text, value",
    [
        ("sites", "6", 6),
        ("dx", "0.5", 0.5),
        ("p1", "inf", math.inf),
        ("interaction", "softcoulomb:1,0.5", "softcoulomb:1,0.5"),
        ("particles_list", "2,3,4", (2, 3, 4)),
    ],
)
def test_flag_and_config_file_give_equal_configs(key, text, value, tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{key} = {text}\n")
    flag = "--" + key.replace("_", "-")
    from_flag = config_from_args(build_parser().parse_args(["simulate", flag, text]))
    from_file = config_from_args(
        build_parser().parse_args(["simulate", "--config", str(cfg_file)])
    )
    assert from_flag == from_file == make_config(**{key: value})


def test_module_entrypoint_runs():
    # the child imports mfdyn from the tree under test, installed or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "mfdyn", "check", "bounds"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "PASS bounds/" in proc.stdout


MOVED_TO_CHECKS = {
    "fock": (
        "DENSE_ORACLE_CAP",
        "_site_indices",
        "symmetrizer",
        "dense_oracle",
        "occupation_to_tensor_isometry",
    ),
    "condensate": ("tensor_sector_projectors", "tensor_hat_f"),
    "reduce": (
        "partial_trace_2to1",
        "seiringer_check",
        "mean_field_sandwich_residual",
        "bbgky_rhs_k1",
    ),
    "bounds": ("pair_interaction_expectation",),
    "propagate": ("exact_propagator",),
}


def test_run_path_leaves_out_the_reference():
    # a fresh interpreter: this process has long imported mfdyn.checks;
    # the CLI loads it only for `mfdyn check`. Every command, `check all`
    # included, then leaves scipy.linalg and so scipy's OpenBLAS unloaded:
    # numpy's is the only pool a run computes in, and the only one pinned.
    from mfdyn import checks

    for names in MOVED_TO_CHECKS.values():
        assert all(hasattr(checks, name) for name in names)
    src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    script = (
        "import sys, mfdyn.harness, mfdyn.cli\n"
        "assert 'mfdyn.checks' not in sys.modules, 'mfdyn.checks imported'\n"
        f"for mod, names in {MOVED_TO_CHECKS!r}.items():\n"
        "    left = [n for n in names if hasattr(sys.modules['mfdyn.' + mod], n)]\n"
        "    assert not left, f'mfdyn.{mod} still defines {left}'\n"
        "run = ['--sites', '4', '--particles', '2', '--tfinal', '0.01', '--stride', '5']\n"
        "sweep = ['--sites', '4', '--particles-list', '2,3,4', '--tfinal', '0.01']\n"
        "for argv in (['simulate', *run], ['envelope', *run], ['sweep', *sweep],\n"
        "             ['check', 'all']):\n"
        "    assert mfdyn.cli.main(argv) == 0, argv\n"
        "assert 'scipy.linalg' not in sys.modules, 'scipy.linalg imported'\n"
        "try:\n"
        "    maps = open('/proc/self/maps').read()\n"
        "except OSError:\n"
        "    maps = ''\n"
        "assert 'libscipy_openblas-' not in maps, \"scipy's OpenBLAS loaded\"\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr


# What perfbench/child.py builds its set-up from, besides the traced calls.
BENCHMARK_SETUP_NAMES = (
    "make_config", "Grid", "potential_field", "interaction_field", "build_h",
    "initial_orbital", "PropagatorConfig", "enumerate_basis", "build_HN",
    "product_state", "NBodyStepper", "records_csv",
)


def test_benchmark_entry_points_exist():
    # run_path compiles the tracer from source and leaves perfbench/ untouched
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    tracer = runpy.run_path(os.path.join(root, "perfbench", "tracer.py"))
    traced = [attr for attr, _ in tracer["HARNESS_CALLS"]]
    assert [n for n in (*traced, *BENCHMARK_SETUP_NAMES) if not hasattr(harness, n)] == []
    assert callable(harness.NBodyStepper.step)
    assert callable(condensate.second_quantize_onebody)
    harness.PropagatorConfig(dt=1e-3, steps=10, method="krylov", krylov_tol=1e-12)
