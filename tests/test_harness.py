import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest

from mfdyn import harness
from mfdyn.bounds import conjugate_q, wnorm_upper_bound
from mfdyn.cli import build_parser, config_from_args, main
from mfdyn.errors import ConfigError
from mfdyn.harness import (
    CSV_HEADER,
    INITIALS,
    INTERACTIONS,
    POTENTIALS,
    RunConfig,
    default_cutoffs,
    eta_curve,
    initial_orbital,
    interaction_field,
    make_config,
    parse_config_file,
    potential_field,
    records_csv,
    run_simulation,
    sweep_N,
)
from mfdyn.lattice import Grid, lp_norm
from mfdyn.onebody import build_h, evolve_hartree, hartree_energy


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
    with pytest.raises(ConfigError):
        make_config(tfinal=1.0, dt=3e-4).steps  # not an integer multiple


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
    cfg = make_config(**FAST, p1=4.0)  # q1 = 4, q2 = 2
    grid = Grid(cfg.sites, cfg.dx)
    v = potential_field(cfg, grid)
    w = interaction_field(cfg, grid)
    h = build_h(grid, v)
    orbitals = evolve_hartree(grid, v, w, initial_orbital(cfg, grid, h), cfg.dt, cfg.steps)
    times = cfg.dt * np.arange(cfg.steps + 1)
    w_bound = wnorm_upper_bound(w, cfg.p1, cfg.p2, default_cutoffs(w))
    integrand = np.array(
        [lp_norm(o.field(), conjugate_q(cfg.p1)) + lp_norm(o.field(), conjugate_q(cfg.p2))
         for o in orbitals]
    )
    res = run_simulation(cfg)
    assert len(res.records) == cfg.steps // cfg.stride + 1
    for r in res.records:
        k = round(r.t / cfg.dt)
        assert r.Ephi == hartree_energy(orbitals[k], h, w)
        want = 32.0 * w_bound * np.trapezoid(integrand[: k + 1], times[: k + 1])
        assert r.phi_t == pytest.approx(want, rel=1e-14, abs=0)


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
    with pytest.raises(ConfigError):
        sweep_N(make_config(**FAST, particles_list=(2, 3)))


def test_sweep_merging_and_order():
    cfg = make_config(**FAST, particles_list=(2, 3, 4))
    res = sweep_N(cfg)
    keys = [(r.N, r.t) for r in res.records]
    assert keys == sorted(keys)
    assert set(res.runs) == {2, 3, 4}
    assert res.degenerate or (res.e_slope is not None and res.r_slope is not None)


def test_sweep_concurrency_matches_serial():
    cfg = make_config(**FAST, particles_list=(2, 3, 4))
    res = sweep_N(cfg)
    from dataclasses import replace

    serial = run_simulation(replace(cfg, particles=3, particles_list=()))
    assert records_csv(res.runs[3].records) == records_csv(serial.records)


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
    for N in cfg.particles_list:
        single = run_simulation(replace(cfg, particles=N, particles_list=()))
        assert records_csv(res.runs[N].records) == records_csv(single.records)
    assert len(calls) == 1 + len(cfg.particles_list)


def test_eta_curve_rows_and_skips():
    rows, skipped = eta_curve(3, [Fraction(1, 1), Fraction(3, 2), Fraction(2, 1)])
    assert skipped == [Fraction(1, 1)]
    assert rows == [
        (Fraction(3, 2), Fraction(1, 3)),
        (Fraction(2, 1), Fraction(1, 2)),
    ]


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


def test_cli_exit_code_numerical_failure(capsys):
    # an absurd dt makes the Krylov exponential unconvergable at maxdim
    rc = main(
        ["simulate", "--sites", "6", "--particles", "3", "--tfinal", "1000000",
         "--dt", "1000000", "--stride", "1"]
    )
    assert rc == 2
    assert "numerical failure:" in capsys.readouterr().err


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
    rc = main(["check", "bounds"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS bounds/" in out
    assert "FAIL" not in out


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


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--sites", "abc"],
        ["simulate", "--method", "foo"],
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
    ],
)
def test_cli_malformed_input_exits_1(argv, tmp_path, capsys):
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("sites = abc\n")
    rc = main([a.format(bad_cfg=bad_cfg) for a in argv])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_cli_help_names_every_spec_kind(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for kinds in (POTENTIALS, INTERACTIONS, INITIALS):
        for kind in kinds:
            assert kind in out


@pytest.mark.parametrize("command", ["simulate", "sweep"])
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
        ("method", "dense", "dense"),
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
}


def test_run_path_leaves_out_the_reference():
    # a fresh interpreter: this process has long imported mfdyn.checks
    from mfdyn import checks

    for names in MOVED_TO_CHECKS.values():
        assert all(hasattr(checks, name) for name in names)
    src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    script = (
        "import sys, mfdyn.harness\n"
        "assert 'mfdyn.checks' not in sys.modules, 'mfdyn.checks imported'\n"
        f"for mod, names in {MOVED_TO_CHECKS!r}.items():\n"
        "    left = [n for n in names if hasattr(sys.modules['mfdyn.' + mod], n)]\n"
        "    assert not left, f'mfdyn.{mod} still defines {left}'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
