import dataclasses
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from nozzleflow.checks import Report
from nozzleflow.cli import main as cli_main
from nozzleflow.diagnostics import SnapshotSet
from nozzleflow.entropy import ReferenceState, special_pair_check
from nozzleflow.errors import ConfigError
from nozzleflow.geometry import SphericalProfile, TabulatedProfile
from nozzleflow.harness import (RunConfig, _cauchy,
                                lp_distance, single_run, sweep,
                                write_sweep_outputs)
from nozzleflow.schedule import certify
from nozzleflow.solver import SolverContext
from nozzleflow.thermo import GasLaw


def _snap(rng, nt=7, nx=41, K=(-2.0, 2.0), T=1.0, shift=0.0):
    t = np.linspace(0.0, T, nt)
    x = np.linspace(K[0], K[1], nx)
    rho = 1.0 + 0.2 * rng.standard_normal((nt, nx)) + shift
    m = 0.1 * rng.standard_normal((nt, nx))
    return SnapshotSet(t, x, rho, m)


_TINY_SWEEP = dict(
    gamma=2.0, profile="constant", bc="dirichlet_nozzle",
    rho_minus=1.0, rho_plus=0.125, u_minus=0.0, u_plus=0.0,
    init="riemann", blend_width=1.0,
    t_end=0.2, dx=1.0 / 32.0, eps0=0.1, n_eps=3, snapshots=9,
    window_lo=-1.0, window_hi=1.0, workers=1,
)


def _tiny_sweep_config(**over):
    return RunConfig.from_mapping(dict(_TINY_SWEEP, **over))


def _write_cfg(path, values):
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return path


# ---------------------------------------------------------------------------
# configuration parsing
# ---------------------------------------------------------------------------


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("""
# a comment
gamma = 1.4
profile = gaussian_bump
profile_amp = 0.5    # trailing comment
bc = dirichlet_nozzle
rho_plus = 0.25
n_eps = 3
force = true
output_dir = results
""")
    cfg = RunConfig.from_file(path)
    assert cfg.gamma == 1.4
    assert cfg.profile == "gaussian_bump"
    assert cfg.profile_amp == 0.5
    assert cfg.rho_plus == 0.25
    assert cfg.n_eps == 3
    assert cfg.force is True
    assert cfg.output_dir == str(tmp_path / "results")   # beside the file


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("gamma = 2.0\nturbo = yes\n")
    with pytest.raises(ConfigError):
        RunConfig.from_file(path)


def test_snapshot_margin_is_an_unknown_key(tmp_path, capsys):
    # snapshots are stored on the comparison window itself
    values = dict(_RUN_CFG, output_dir=str(tmp_path / "out"),
                  snapshot_margin="0.5")
    cfg_path = tmp_path / "margin.cfg"
    cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    assert cli_main(["run", str(cfg_path)]) == 2
    assert "unknown config key 'snapshot_margin'" in capsys.readouterr().err


def test_config_rejects_malformed_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("gamma 2.0\n")
    with pytest.raises(ConfigError):
        RunConfig.from_file(path)


def test_config_builders():
    cfg = _tiny_sweep_config()
    sched = cfg.build_schedule()
    assert sched.eps_list == (0.1, 0.05, 0.025)
    assert cfg.build_gas(0.1).delta == pytest.approx(0.1 ** 5)
    prof = cfg.build_profile()
    assert prof.area(0.3) == 1.0
    ref = cfg.build_reference(0.1)
    assert ref.state(-5.0)[0] == 1.0 and ref.state(5.0)[0] == 0.125


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def test_lp_distance_identical_is_zero():
    rng = np.random.default_rng(0)
    a = _snap(rng)
    assert lp_distance(a, a, (-1.0, 1.0), 1.0) == 0.0


def test_lp_distance_constant_closed_form():
    rng = np.random.default_rng(1)
    a = _snap(rng)
    b = SnapshotSet(a.t.copy(), a.x.copy(), a.rho + 0.3, a.m.copy())
    for p in (1.0, 2.0):
        expected = 0.3 * (2.0 * 1.0) ** (1.0 / p)  # c (|K| T)^(1/p)
        assert lp_distance(a, b, (-1.0, 1.0), p) == pytest.approx(expected,
                                                                  rel=1e-12)


def test_lp_distance_brute_force_oracle():
    rng = np.random.default_rng(2)
    a = _snap(rng)
    b = _snap(rng)
    K, p = (-1.5, 0.5), 2.0
    got = lp_distance(a, b, K, p, "rho")
    # independent oracle: explicit trapezoid sums over the common grid
    mask = (a.x >= K[0]) & (a.x <= K[1])
    xq = a.x[mask]
    diff = np.abs(a.rho[:, mask] - b.rho[:, mask]) ** p
    wx = np.gradient(xq)
    wx[0] = 0.5 * (xq[1] - xq[0])
    wx[-1] = 0.5 * (xq[-1] - xq[-2])
    wt = np.gradient(a.t)
    wt[0] = 0.5 * (a.t[1] - a.t[0])
    wt[-1] = 0.5 * (a.t[-1] - a.t[-2])
    oracle = float(np.sum(diff * wt[:, None] * wx[None, :]) ** (1.0 / p))
    assert got == pytest.approx(oracle, rel=1e-12)


def test_lp_distance_triangle_inequality():
    rng = np.random.default_rng(3)
    for p in (1.0, 2.0):
        a, b, c = _snap(rng), _snap(rng), _snap(rng)
        dab = lp_distance(a, b, (-1.0, 1.0), p)
        dbc = lp_distance(b, c, (-1.0, 1.0), p)
        dac = lp_distance(a, c, (-1.0, 1.0), p)
        assert dac <= dab + dbc + 1e-12


def test_lp_distance_window_mismatch():
    rng = np.random.default_rng(4)
    a = _snap(rng, nt=7)
    b = _snap(rng, nt=9)
    with pytest.raises(ConfigError):
        lp_distance(a, b, (-1.0, 1.0), 1.0)


def test_lp_distance_interpolates_to_finer_grid():
    rng = np.random.default_rng(5)
    a = _snap(rng, nx=41)
    b = _snap(rng, nx=81)
    d = lp_distance(a, b, (-1.0, 1.0), 1.0)
    assert d > 0.0


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_sweep_constant_data_all_distances_zero():
    cfg = _tiny_sweep_config(init="constant", rho_minus=0.8, rho_plus=0.8)
    res = sweep(cfg)
    assert not res.failures
    assert np.max(res.d_rho) < 1e-13
    assert np.max(res.d_m) < 1e-13
    assert not res.failing()


def test_sweep_tolerates_single_rung_failure():
    # blend gate kills only the smallest domain; the sweep carries on
    cfg = _tiny_sweep_config(blend_width=6.0)
    res = sweep(cfg)
    assert len(res.failures) == 1
    assert res.failures[0][0] == pytest.approx(0.1)
    assert len(res.runs) == 2
    assert len(res.d_rho) == 1


def test_sweep_error_when_too_few_runs():
    from nozzleflow.errors import SweepError
    cfg = _tiny_sweep_config(blend_width=25.0)  # gate fails on every domain
    with pytest.raises(SweepError):
        sweep(cfg)


def test_sweep_exponent_range_enforced():
    with pytest.raises(ConfigError):
        sweep(_tiny_sweep_config(p_rho=3.0))   # p >= gamma + 1
    with pytest.raises(ConfigError):
        sweep(_tiny_sweep_config(q_mom=1.8))   # q >= 3(gamma+1)/(gamma+3)


def test_sweep_determinism():
    cfg = _tiny_sweep_config()
    r1 = sweep(cfg)
    r2 = sweep(cfg)
    assert np.array_equal(r1.d_rho, r2.d_rho)
    assert np.array_equal(r1.d_m, r2.d_m)
    for a, b in zip(r1.runs, r2.runs):
        assert np.array_equal(a.snapshots.rho, b.snapshots.rho)
        assert np.array_equal(a.snapshots.m, b.snapshots.m)


def test_sweep_parallel_matches_serial():
    cfg = _tiny_sweep_config()
    serial = sweep(cfg)
    cfg2 = _tiny_sweep_config(workers=2)
    parallel = sweep(cfg2)
    assert np.array_equal(serial.d_rho, parallel.d_rho)
    assert np.array_equal(serial.d_m, parallel.d_m)


def test_sweep_outputs_written(tmp_path):
    cfg = _tiny_sweep_config(output_dir=str(tmp_path / "out"))
    res = sweep(cfg)
    out = write_sweep_outputs(res, cfg)
    assert (out / "summary.txt").exists()
    finals = list(out.glob("final_*.csv"))
    assert len(finals) == 3
    header = finals[0].read_text().splitlines()
    assert header[0].startswith("# t=")
    assert header[2] == "x,rho,m,u,A"


def test_sweep_summary_reports_cells_advanced_per_rung():
    res = sweep(_tiny_sweep_config())
    lines = res.summary().splitlines()
    for r in res.runs:
        n = r.field.grid.n_nodes
        assert 0 < r.report.cells_advanced
        assert (f"  run {r.label}: cells_advanced={r.report.cells_advanced} "
                f"on {n} nodes") in lines
    assert any(line.startswith("  verdict:") for line in lines)


def test_sweep_summary_prints_each_rung_s_entropy_violation():
    # with weak residuals on, one line holds every rung's largest normalized
    # entropy-inequality residual, in ladder order; without, no such line
    res = sweep(_tiny_sweep_config(weak_residuals=True))
    assert len(res.weak) == len(res.runs) == 3
    line = "  max_entropy_violation per rung: " + ", ".join(
        f"{w.max_entropy_violation:.5g}" for w in res.weak)
    assert line in res.summary().splitlines()
    assert "max_entropy_violation" not in dataclasses.replace(
        res, weak=[]).summary()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_entropy_table(tmp_path):
    out = tmp_path / "table.csv"
    rc = cli_main(["entropy-table", "--gamma", "2.0", "--generator",
                   "half_square", "--n", "8", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "rho,u,eta,q"
    assert len(lines) == 2 + 64


def test_cli_entropy_table_builds_every_generator(tmp_path):
    from nozzleflow.entropy import GENERATOR_FACTORIES
    for name in GENERATOR_FACTORIES:
        out = tmp_path / f"{name}.csv"
        assert cli_main(["entropy-table", "--gamma", "2.0", "--generator",
                         name, "--n", "3", "--out", str(out)]) == 0, name
        rows = np.loadtxt(out, delimiter=",", skiprows=2, ndmin=2)
        assert rows.shape == (9, 4) and np.all(np.isfinite(rows)), name


def test_cli_entropy_table_unknown_generator(tmp_path):
    rc = cli_main(["entropy-table", "--gamma", "2.0", "--generator", "nope"])
    assert rc == 2


def test_cli_run_and_check(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"""
gamma = 2.0
profile = constant
bc = dirichlet_nozzle
rho_minus = 1.0
rho_plus = 0.125
init = riemann
t_end = 0.1
dx = 0.03125
eps = 0.05
snapshots = 5
output_dir = {tmp_path / 'out'}
""")
    assert cli_main(["run", str(cfg_path)]) == 0
    assert (tmp_path / "out" / "final.csv").exists()
    assert (tmp_path / "out" / "report.csv").exists()
    assert cli_main(["check", str(cfg_path)]) == 0
    assert cli_main(["check", str(cfg_path), "--with-run"]) == 0


def test_cli_check_fails_uncertifiable(tmp_path):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("""
gamma = 1.4
profile = exponential
profile_rate = 0.5
bc = dirichlet_nozzle
""")
    assert cli_main(["check", str(cfg_path)]) == 1


def test_cli_sweep(tmp_path):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(f"""
gamma = 2.0
profile = constant
bc = dirichlet_nozzle
rho_minus = 1.0
rho_plus = 0.125
init = riemann
t_end = 0.2
dx = 0.03125
eps0 = 0.1
n_eps = 3
snapshots = 9
check_riemann = false
output_dir = {tmp_path / 'out'}
""")
    rc = cli_main(["sweep", str(cfg_path)])
    assert (tmp_path / "out" / "summary.txt").exists()
    assert rc in (0, 1)  # verdict may fail at this desk scale; files must exist


def test_cli_config_error_returns_2(tmp_path):
    cfg_path = tmp_path / "broken.cfg"
    cfg_path.write_text("gamma = 2.0\nwhat = ever\n")
    assert cli_main(["run", str(cfg_path)]) == 2


# ---------------------------------------------------------------------------
# validation and failure reporting
# ---------------------------------------------------------------------------


def test_config_parses_by_declared_type():
    cfg = RunConfig.from_mapping({"profile_n": "4", "kappa": "none",
                                  "a": "-12", "force": "yes", "eps": "0.1",
                                  "profile_file": "table.csv"})
    assert cfg.profile_n == 4 and isinstance(cfg.profile_n, int)
    assert cfg.kappa is None
    assert cfg.a == -12.0 and isinstance(cfg.a, float)
    assert cfg.force is True
    assert cfg.profile_file == "table.csv"


_RUN_CFG = dict(gamma="2.0", profile="constant", bc="dirichlet_nozzle",
                rho_minus="1.0", rho_plus="0.125", init="riemann",
                t_end="0.1", dx="0.03125", eps="0.05", snapshots="5")


# the other keys a bad value is checked with: a spherical ladder for rho_bar,
# and for a = -1 (no rung's domain then holds [-L0, L0] = [-2, 2]) a
# comparison window inside every rung's domain
_BAD_INPUT_CONTEXT = {
    "rho_bar": dict(bc="dirichlet_spherical", profile="spherical",
                    window_lo="0.5", window_hi="4"),
    "a": dict(window_lo="-0.5", window_hi="0.5"),
    "profile_file": dict(profile="tabulated")}

# area tables the profile must refuse: loadtxt reads 1e400 as inf, and a
# table of comments only as no rows
_BAD_TABLES = {"nan.dat": "0 1\n1 nan\n2 1\n3 1\n",
               "inf.dat": "0 1\n1 1e400\n2 1\n3 1\n",
               "empty.dat": "# x A\n"}


@pytest.mark.parametrize("key,value", [
    ("profile_n", "3.0"), ("eps", "abc"), ("eps", "nan"), ("dx", "-1"),
    ("dx", "10"), ("cfl", "5"), ("snapshots", "1"), ("t_end", "0"),
    ("kappa", "-2"), ("mollify_width", "-0.01"), ("blend_width", "-1"),
    ("workers", "-1"), ("n_eps", "1"), ("bc", "dirichlet_spherica"),
    ("init", "riemman"), ("L0", "3"), ("rho_bar", "-1"), ("a", "-1"),
    ("p_rho", "0.5"), ("q_mom", "0.5"), ("profile", "spherical"),
    ("profile_file", "nan.dat"), ("profile_file", "inf.dat"),
    ("profile_file", "empty.dat")])
def test_cli_bad_input_is_error_exit_2(tmp_path, capsys, monkeypatch, key,
                                       value):
    import nozzleflow.cli as cli
    import nozzleflow.harness as harness

    def no_rung(*args, **kwargs):
        raise AssertionError("a sweep rung ran before the config was rejected")

    monkeypatch.setattr(harness, "single_run", no_rung)
    monkeypatch.setattr(harness, "prepare_rung", no_rung)
    monkeypatch.setattr(cli, "single_run", no_rung)
    values = dict(_RUN_CFG, output_dir=str(tmp_path / "out"),
                  **_BAD_INPUT_CONTEXT.get(key, {}), **{key: value})
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    for name, text in _BAD_TABLES.items():
        (tmp_path / name).write_text(text)
    # a sweep must reject a one-rung ladder and a distance exponent before
    # any rung runs, and check a name no rung could be built from and a
    # ladder it cannot certify; check and sweep build the profile before
    # any rung
    command = {"n_eps": "sweep", "bc": "check", "init": "check",
               "rho_bar": "check", "a": "check", "p_rho": "sweep",
               "nan.dat": "check", "inf.dat": "sweep", "empty.dat": "check",
               }.get(value if key == "profile_file" else key, "run")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli_main([command, str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert not caught, [str(w.message) for w in caught]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["config", "config_bytes", "table",
                                  "table_text", "nan.dat", "inf.dat",
                                  "empty.dat", "output_dir", "table_out"])
def test_cli_file_error_is_error_exit_2(tmp_path, capsys, monkeypatch, case):
    # a file the CLI cannot read or write ends as one error line naming it;
    # an output_dir below a regular file fails before the run steps
    import nozzleflow.cli as cli

    def no_run(*args, **kwargs):
        raise AssertionError("the run stepped before the config was rejected")

    if case == "output_dir":
        monkeypatch.setattr(cli, "single_run", no_run)
    (tmp_path / "words.dat").write_text("0.0 one\n1.0 two\n")
    (tmp_path / "plain").write_text("a file, not a directory\n")
    (tmp_path / "bytes.cfg").write_bytes(b"gamma = 2\n\xff\xfe\n")
    for name, text in _BAD_TABLES.items():
        (tmp_path / name).write_text(text)
    paths = {"config": tmp_path / "missing.cfg",
             "config_bytes": tmp_path / "bytes.cfg",
             "table": tmp_path / "missing.dat",
             "table_text": tmp_path / "words.dat",
             **{name: tmp_path / name for name in _BAD_TABLES},
             "output_dir": tmp_path / "plain" / "out",
             "table_out": tmp_path / "missing" / "table.csv"}
    keys = {name: dict(profile="tabulated", profile_file=paths[name])
            for name in ("table", "table_text", *_BAD_TABLES)}
    keys["output_dir"] = dict(output_dir=paths["output_dir"])
    argv = ["run", str(paths[case])]
    if case in keys:
        argv[1] = str(_write_cfg(tmp_path / "run.cfg", {
            **_RUN_CFG, "output_dir": tmp_path / "out", **keys[case]}))
    elif case == "table_out":
        argv = ["entropy-table", "--gamma", "2", "--out", str(paths[case])]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert str(paths[case]) in err


def test_tabulated_profile_through_a_config(tmp_path, capsys):
    # profile_file feeds both commands, and final.csv writes the table's A
    x = np.linspace(-25.0, 25.0, 501)
    table = tmp_path / "area.dat"
    np.savetxt(table, np.column_stack((x, 1.0 + 0.5 * np.exp(-x * x))))
    cfg = _write_cfg(tmp_path / "tab.cfg", dict(
        profile="tabulated", profile_file=table, n_eps=2, dx=0.0625,
        t_end=0.1, snapshots=5, output_dir=tmp_path / "out"))
    assert cli_main(["check", str(cfg)]) == 0
    assert cli_main(["run", str(cfg)]) == 0
    capsys.readouterr()
    final = np.loadtxt(tmp_path / "out" / "final.csv", delimiter=",",
                       skiprows=3)
    np.testing.assert_allclose(
        final[:, 4], TabulatedProfile.from_file(table).area(final[:, 0]),
        rtol=1e-10)


def test_config_paths_are_relative_to_the_config_file(tmp_path, monkeypatch,
                                                    capsys):
    # profile_file and output_dir written relative in a config name paths
    # beside it, whatever the working directory
    x = np.linspace(-25.0, 25.0, 501)
    (tmp_path / "tab").mkdir()
    (tmp_path / "elsewhere").mkdir()
    np.savetxt(tmp_path / "tab" / "area.dat",
               np.column_stack((x, 1.0 + 0.5 * np.exp(-x * x))))
    _write_cfg(tmp_path / "tab" / "tab.cfg", dict(
        profile="tabulated", profile_file="area.dat", n_eps=2, dx=0.0625,
        t_end=0.1, snapshots=5, output_dir="out"))
    monkeypatch.chdir(tmp_path)
    assert cli_main(["check", "tab/tab.cfg"]) == 0
    monkeypatch.chdir(tmp_path / "elsewhere")
    assert cli_main(["check", "../tab/tab.cfg"]) == 0
    assert cli_main(["run", str(tmp_path / "tab" / "tab.cfg")]) == 0
    capsys.readouterr()
    assert (tmp_path / "tab" / "out" / "final.csv").exists()
    assert not any((tmp_path / "elsewhere").iterdir())


def test_output_dir_below_a_file_is_a_config_error(tmp_path):
    (tmp_path / "plain").write_text("a file, not a directory\n")
    with pytest.raises(ConfigError, match="plain"):
        RunConfig(output_dir=str(tmp_path / "plain" / "a" / "b"))
    assert RunConfig(output_dir=str(tmp_path / "new" / "out")).output_dir
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("flag,value", [
    ("--n", "0"), ("--n", "-3"), ("--rho-max", "nan"), ("--u-max", "inf"),
    ("--gamma", "inf")])
def test_cli_entropy_table_bad_number_is_error_exit_2(tmp_path, capsys, flag,
                                                      value):
    out = tmp_path / "table.csv"
    # argparse keeps the last of a repeated flag
    assert cli_main(["entropy-table", "--gamma", "2.0", "--out", str(out),
                     flag, value]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_cli_entropy_table_size_limit_refuses_before_allocating(tmp_path,
                                                                capsys):
    # 2897 is the least --n whose n^2 states pass MAX_TABLE_STATES = 2^23
    out = tmp_path / "table.csv"
    tracemalloc.start()
    try:
        for n in (2897, 1_000_000):
            assert cli_main(["entropy-table", "--gamma", "2", "--n", str(n),
                             "--out", str(out)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20
    assert capsys.readouterr().err.splitlines() == [
        f"error: entropy-table --n {n} gives {n * n} states, above the limit "
        "of 8388608" for n in (2897, 1_000_000)]
    assert not out.exists()


def test_single_run_builds_one_context(monkeypatch):
    builds = []
    init = SolverContext.__init__

    def counted(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)
    monkeypatch.setattr(SolverContext, "__init__", counted)
    cfg = RunConfig.from_mapping(dict(_RUN_CFG, check_quartic="true"))
    out = single_run(cfg)
    assert "energy" in out.report.series and "quartic" in out.report.series
    assert len(builds) == 1


@pytest.mark.parametrize("n_eps", [3, 4])
def test_sweep_notes_a_cauchy_check_that_cannot_fail(n_eps):
    # three rungs give one ratio per field: each check passes at -inf, and
    # the note says so; four rungs give two ratios and no note
    res = sweep(_tiny_sweep_config(n_eps=n_eps, check_riemann=False))
    notes = [f"{name} Cauchy check rests on 1 ratio(s), fewer than the 2 it "
             "needs to fail, so its pass is no evidence" for name in ("rho", "m")]
    assert res.notes == (notes if n_eps == 3 else [])
    lines = res.summary().splitlines()
    assert [line for line in lines if "note:" in line] == [
        f"  note: {note}" for note in res.notes]
    for name in ("rho", "m"):
        check = res.checks[f"converging_{name}"]
        assert len(res.series[f"ratios_{name}"]) == n_eps - 2
        assert (check.value == -np.inf) is (n_eps == 3)
    assert res.passed


_VERDICTS = {
    "special_pair_check": lambda: special_pair_check(
        GasLaw(2.0), ReferenceState(1.0, 0.5, 0.5, 0.0),
        np.array([0.5, 1.0, 2.0]), np.array([0.0, 0.5, -1.0]), M=50.0),
    "validate_conditions": lambda: SphericalProfile(n_dim=3)
    .validate_conditions((0.1, 10.0)),
    "certify": lambda: certify(_tiny_sweep_config().build_schedule(),
                               _tiny_sweep_config().build_profile(),
                               GasLaw(2.0)),
    "sweep": lambda: sweep(_tiny_sweep_config()),
}


@pytest.mark.parametrize("name", sorted(_VERDICTS))
def test_every_verdict_is_a_report_that_prints_its_checks(name):
    rep = _VERDICTS[name]()
    assert isinstance(rep, Report) and rep.checks
    lines = rep.check_lines("{name}: {check}")
    assert lines == [f"{key}: {check}"
                     for key, check in sorted(rep.checks.items())]
    for line in lines:
        assert re.fullmatch(r"\S+: (pass|FAIL) value=\S+ bound=\S+ "
                            r"margin=\S+", line), line


def test_sweep_builds_the_gas_law_once_per_rung(monkeypatch, tmp_path):
    # one per rung inside single_run plus one for the certificate; the
    # integrability, weak-residual and CSV steps reuse each rung's gas law
    builds = []
    real = RunConfig.build_gas

    def counted(self, eps=None):
        builds.append(eps)
        return real(self, eps)
    monkeypatch.setattr(RunConfig, "build_gas", counted)
    cfg = _tiny_sweep_config(weak_residuals=True,
                             output_dir=str(tmp_path / "out"))
    res = sweep(cfg)
    write_sweep_outputs(res, cfg)
    assert len(res.runs) == 3 and len(res.weak) == 3
    assert len(builds) == 3 + 1
    assert [r.g.delta for r in res.runs] == [
        real(cfg, e).delta for e in res.series["eps"].tolist()]


def test_sweep_window_must_fit_every_rung(monkeypatch):
    import nozzleflow.harness as harness

    def no_run(*args, **kwargs):
        raise AssertionError("a rung ran before the window was checked")

    monkeypatch.setattr(harness, "single_run", no_run)
    with pytest.raises(ConfigError, match="window"):
        # window_lo = -2.8 leaves [a, b], which still contains [-L0, L0]
        sweep(_tiny_sweep_config(a=-2.5, window_lo=-2.8))


@pytest.mark.parametrize("command", ["check", "run"])
@pytest.mark.parametrize("window", [(1.0, 0.0), (0.5, 0.5), (30.0, 40.0)])
def test_a_window_with_no_part_of_a_rung_s_domain_is_refused(
        tmp_path, capsys, command, window):
    # window_lo above window_hi, an empty window and one past the eps = 0.05
    # domain [-20, 20]: exit 2, one error line and no output for check and
    # run alike (a run of the first raised numpy's ValueError in the
    # Recorder)
    path = _write_cfg(tmp_path / "w.cfg", dict(
        window_lo=window[0], window_hi=window[1], dx=0.0625, snapshots=5,
        output_dir=tmp_path / "out"))
    assert cli_main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: window [{window[0]:g}, {window[1]:g}] "
                          "holds no part of the eps=0.05 domain") \
        and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


def test_sweep_error_lists_every_failed_rung():
    from nozzleflow.errors import SweepError
    with pytest.raises(SweepError) as info:
        sweep(_tiny_sweep_config(blend_width=25.0))
    msg = str(info.value)
    for eps in ("0.1", "0.05", "0.025"):
        assert f"eps={eps}: ConfigError: blend width" in msg


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_records_domain_error_of_one_rung(workers):
    # a negative bump at x = 30 lies only inside the eps = 0.025 domain
    cfg = _tiny_sweep_config(init="bump", init_center=30.0, init_amp=-1.0,
                             workers=workers)
    res = sweep(cfg)
    assert [r.eps for r in res.runs] == [0.1, 0.05]
    assert len(res.failures) == 1
    eps, msg = res.failures[0]
    assert eps == pytest.approx(0.025)
    assert msg.startswith("DomainError:")


def test_sweep_records_quadrature_error_of_one_rung(monkeypatch):
    # the lockstep sweep prepares each rung by prepare_rung, where a rung's
    # package error is recorded as a rung-by-rung sweep records it
    import nozzleflow.harness as harness
    from nozzleflow.errors import QuadratureError
    real = harness.prepare_rung

    def flaky(cfg, eps, *args, **kwargs):
        if eps < 0.03:
            raise QuadratureError("node doubling did not settle")
        return real(cfg, eps, *args, **kwargs)

    monkeypatch.setattr(harness, "prepare_rung", flaky)
    res = sweep(_tiny_sweep_config())
    assert len(res.runs) == 2
    assert res.failures == [(0.025, "QuadratureError: node doubling did not "
                                    "settle")]


def test_spherical_far_state_follows_the_rung():
    # the initial and boundary far densities both follow rho_bar(eps) of the
    # rung being built, not of the config's own eps
    cfg = RunConfig.from_mapping(dict(
        eps=0.05, init="constant", bc="dirichlet_spherical",
        profile="spherical", window_lo=0.5, window_hi=4.0))
    rho_bc = cfg.build_bc(0.1).right_values(0.0)[0]
    assert rho_bc == pytest.approx(0.031623, rel=1e-5)
    x = np.linspace(0.1, 10.0, 7)
    assert np.array_equal(cfg.build_initial(0.1).rho0(x), np.full(7, rho_bc))
    assert cfg.build_reference(0.1).state(1.0)[0] == rho_bc


# ---------------------------------------------------------------------------
# verdicts and run files, each with one owner
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("over,passed", [
    ({}, True),
    # eps |b - a| = 2 exceeds the budget; force runs the ladder anyway
    (dict(M_budget=0.5, force=True), False)])
def test_sweep_passed_is_the_cli_exit_status(tmp_path, monkeypatch, over,
                                             passed):
    import nozzleflow.cli as cli
    results = []
    real = cli.sweep

    def captured(cfg):
        results.append(real(cfg))
        return results[-1]
    monkeypatch.setattr(cli, "sweep", captured)
    cfg_path = _write_cfg(tmp_path / "sweep.cfg", dict(
        _TINY_SWEEP, output_dir=tmp_path / "out", **over))
    rc = cli_main(["sweep", str(cfg_path)])
    res, = results
    assert res.passed is passed
    assert res.certificate.passed is passed and not res.failing()
    assert rc == (0 if res.passed else 1)


@pytest.mark.parametrize("command", ["check", "sweep"])
@pytest.mark.parametrize("over,reason", [
    (dict(a="-2.5", window_lo="-2.8"),
     "comparison window [-2.8, 1] leaves the eps=0.1 domain [-2.5, 10]"),
    # a spherical ladder whose set a = -1 reaches past the profile's x > 0:
    # "the eps=0.1 domain [-1, 10] leaves the profile's"
    (dict(profile="spherical", bc="dirichlet_spherical", a="-1",
          window_lo="0.5", window_hi="4"), "leaves the profile's")])
def test_check_and_sweep_refuse_the_same_ladders(tmp_path, capsys, monkeypatch,
                                                 command, over, reason):
    import nozzleflow.harness as harness

    def no_rung(*args, **kwargs):
        raise AssertionError("a rung ran before the config was rejected")
    monkeypatch.setattr(harness, "single_run", no_rung)
    cfg_path = _write_cfg(tmp_path / "bad.cfg", dict(
        _TINY_SWEEP, output_dir=tmp_path / "out", **over))
    assert cli_main([command, str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and reason in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["check", "run", "sweep"])
def test_a_spherical_bc_on_a_duct_profile_is_refused(tmp_path, capsys,
                                                     monkeypatch, command):
    # a spherical boundary mode must not certify or run a constant duct
    import nozzleflow.cli as cli
    import nozzleflow.harness as harness

    def no_rung(*args, **kwargs):
        raise AssertionError("a rung ran before the config was rejected")
    monkeypatch.setattr(harness, "single_run", no_rung)
    monkeypatch.setattr(harness, "prepare_rung", no_rung)
    monkeypatch.setattr(cli, "single_run", no_rung)
    cfg_path = _write_cfg(tmp_path / "mismatch.cfg", dict(
        profile="constant", bc="dirichlet_spherical", init="bump",
        window_lo="0.5", window_hi="4", output_dir=tmp_path / "out"))
    assert cli_main([command, str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert re.match(r"error: bc = dirichlet_spherical .*profile = constant",
                    err)
    assert not (tmp_path / "out").exists()


def test_cli_check_prints_each_check_with_its_margin(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path / "budget.cfg", dict(M_budget="0.5"))
    assert cli_main(["check", str(cfg_path)]) == 1
    out = capsys.readouterr().out
    assert "failing: eps_domain, " in out
    assert "  sup_k eps_domain: FAIL value=2 bound=0.5 margin=-1.5" in out
    cfg_path = _write_cfg(tmp_path / "run.cfg", _RUN_CFG)
    assert cli_main(["check", str(cfg_path), "--with-run"]) == 0
    assert re.search(r"^  check energy_inequality: pass value=\S+ bound=\S+ "
                     r"margin=\S+$", capsys.readouterr().out, re.M)


@pytest.mark.parametrize("over,key,line,per_rung", [
    # with a = -3 the eps = 0.1 rung runs on [-3, 10]: eps |b - a| = 1.3,
    # not the 2 of the ladder rule's [-10, 10]; eps (1/eps + 3) per rung
    (dict(a="-3", M_budget="1.29"),
     "eps_domain", "FAIL value=1.3 bound=1.29 margin=-0.01",
     [1.3, 1.15, 1.075, 1.0375]),
    # a fixed delta = 1e-3, not eps^5: (delta/eps) |a|^4 = 1e-3 / eps^5
    (dict(delta="1e-3"), "delta_inv_eps_area_abeta",
     "FAIL value=3.2768e+06", [100.0, 3200.0, 102400.0, 3276800.0]),
    # a fixed rho_bar = 1, not eps^(3/2): rho_bar^gamma b^3 = eps^-3
    (dict(bc="dirichlet_spherical", profile="spherical", window_lo="0.5",
          window_hi="4", rho_bar="1"), "rho_bar_pressure_volume",
     "FAIL value=512000", [1e3, 8e3, 64e3, 512e3])],
    ids=["a", "delta", "rho_bar"])
def test_cli_check_certifies_the_values_each_rung_runs_with(
        tmp_path, capsys, over, key, line, per_rung):
    cfg_path = _write_cfg(tmp_path / "over.cfg", over)
    assert cli_main(["check", str(cfg_path)]) == 1
    assert f"  sup_k {key}: {line}" in capsys.readouterr().out
    cfg = RunConfig.from_file(cfg_path)
    sched = cfg.build_schedule()
    series = certify(sched, cfg.build_profile(), cfg.build_gas()).series
    assert list(series[key]) == pytest.approx(per_rung)
    # the runs read every rung's values from the schedule the certificate read
    for eps in sched.eps_list:
        assert cfg.build_gas(eps).delta == sched.delta_of(eps)
        assert cfg.domain_of(eps) == (sched.a_of(eps), sched.b_of(eps))
        if sched.spherical:
            rho_bar = sched.rho_bar_of(eps)
            assert cfg.build_bc(eps).right_values(0.0)[0] == rho_bar
            assert cfg.build_reference(eps).state(1.0)[0] == rho_bar


def test_cli_run_overflowing_initial_state_prints_only_the_error(tmp_path,
                                                                 capsys):
    # the gas law overflows at rho = 1e20 and gamma = 50: one error line, no
    # numpy warning (the filter turns any into an exception), no output
    cfg_path = _write_cfg(tmp_path / "g50.cfg", dict(
        gamma="50", rho_minus="1e20", check_riemann="false",
        output_dir=tmp_path / "out"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli_main(["run", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err == ("error: the gas law leaves the float range on the initial "
                   "data (relative energy nan, max rho = 1e+20, gamma = 50)\n")
    assert not (tmp_path / "out").exists()


def test_cauchy_rule_allows_one_violation_and_passes_at_the_bound():
    def rule(distances):
        return _cauchy(np.array(distances))[1]
    # ratios 0.9, 1/9, 0.9: the second-largest sits at the bound and passes
    assert rule([10.0, 9.0, 1.0, 0.9]).value == 0.9
    assert rule([10.0, 9.0, 1.0, 0.9])
    # ratios 0.5, 2, 0.5 pass: one violation is allowed; 2, 0.95, 0.5 fail
    assert rule([4.0, 2.0, 4.0, 2.0]).value == 0.5
    assert not rule([4.0, 8.0, 7.6, 3.8])
    # fewer than two ratios, or vanishing distances: a vacuous pass
    assert rule([1.0, 2.0]).value == -np.inf
    assert rule([1e-15, 1e-14, 1e-15]).value == -np.inf
    assert len(_cauchy(np.array([1e-15, 1e-14, 1e-15]))[0]) == 0
    # a NaN ratio sorts above every number: two of them fail
    assert not rule([1.0, np.nan, np.nan, 0.5])


def test_cli_rejected_run_leaves_no_output_dir(tmp_path, capsys):
    # fewer than 8 cells: the config rejects dx, naming the rung and limit
    cfg_path = _write_cfg(tmp_path / "bad.cfg", dict(
        _RUN_CFG, dx="10", output_dir=tmp_path / "out"))
    assert cli_main(["run", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: dx = 10 leaves 4 cells on the eps=0.05 rung")
    assert "at least 8" in err
    assert not (tmp_path / "out").exists()
    # a ladder rung counts too: at eps0 = 0.1 the domain [-10, 10] gets 7
    with pytest.raises(ConfigError, match=r"dx = 3 leaves 7 cells on the "
                                          r"eps=0\.1 rung"):
        RunConfig(dx=3.0)


def test_cli_gamma_beyond_the_wave_table_is_error_exit_2(tmp_path, capsys):
    # the Riemann check is on by default and delta comes from the ladder rule;
    # at gamma 300 the wave table ends near rho = 10.4, where p' overflows
    cfg_path = _write_cfg(tmp_path / "g300.cfg", dict(
        gamma="300", rho_minus="1e3", output_dir=tmp_path / "out"))
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli_main(["run", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "rho = 1000" in err and "gamma = 300" in err
    assert not (tmp_path / "out").exists()


def test_run_files_use_the_run_profile(tmp_path, monkeypatch):
    # the writer reads the run context's areas, RunOutput.A: one profile
    # build per run
    builds = []
    real = RunConfig.build_profile

    def counted(self):
        builds.append(1)
        return real(self)
    monkeypatch.setattr(RunConfig, "build_profile", counted)
    cfg_path = _write_cfg(tmp_path / "run.cfg", dict(
        _RUN_CFG, profile="gaussian_bump", output_dir=tmp_path / "out"))
    assert cli_main(["run", str(cfg_path)]) == 0
    assert len(builds) == 1
    final = np.loadtxt(tmp_path / "out" / "final.csv", delimiter=",",
                       skiprows=3)
    profile = real(RunConfig.from_file(cfg_path))
    assert np.allclose(final[:, 4], profile.area(final[:, 0]), rtol=1e-11)
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "final.csv", "report.csv", "summary.txt"]
