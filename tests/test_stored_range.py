"""A run stores only a node range around its flow; the rest is far state.

The solver context stores the nodes [lo, hi) of the grid that cover every
window a step moved, plus a margin, and every node outside holds its end's
far state exactly.  Initial data, monitors and output rows are built from
that range and the far states.  Each run case here runs twice: as the
package runs it, and with every context storing the whole grid from its
first node on (the plain path, ``whole_field_monitors``).  Fields and
snapshots must be bit-identical, every report series must agree to 1e-13
of its scale, and the verdicts must be the same.  Acceptance's
``test_hull_monitors_match_whole_field_on_every_rung`` runs both paths on
every rung of both acceptance ladders, distances and final CSVs included.
"""

import tracemalloc

import numpy as np
import pytest

import plain_step
from helpers import assert_same_series, whole_field_monitors
from nozzleflow import diagnostics, harness, solver
from nozzleflow.diagnostics import (energy_budget, llf_dissipation_rate,
                                    riemann_monitor)
from nozzleflow.errors import ConfigError
from nozzleflow.geometry import (ConstantProfile, ExponentialProfile,
                                 GaussianBumpProfile, NozzleProfile,
                                 PowerLawClosingProfile,
                                 SphericalProfile, TabulatedProfile)
from nozzleflow.harness import RunConfig, single_run, write_snapshot_csv
from nozzleflow.solver import (BoundarySpec, FluidField, Grid, InitialData,
                               SolverContext, hyperbolic_interface_data,
                               prepare_initial_data, run)
from nozzleflow.thermo import GasLaw


def _ladder_config(gamma: float = 2.0, **over) -> RunConfig:
    # an acceptance sweep's configuration
    values = dict(
        gamma=gamma, profile="constant", bc="dirichlet_nozzle",
        rho_minus=1.0, rho_plus=0.125, u_minus=0.75, u_plus=0.0,
        init="riemann", blend_width=1.0, t_end=0.5, dx=1.0 / 128.0,
        eps0=0.1, n_eps=6, snapshots=97, window_lo=-1.0, window_hi=1.0,
        workers=1, check_riemann=False)
    values.update(over)
    return RunConfig.from_mapping(values)


def _monitors_duct(u_minus: float = 0.0) -> RunConfig:
    # the benchmark's monitors duct: a Gaussian bump with every monitor on
    return RunConfig.from_mapping(dict(
        gamma=2.0, profile="gaussian_bump", bc="dirichlet_nozzle",
        rho_minus=1.0, rho_plus=0.125, u_minus=u_minus, u_plus=0.0,
        init="riemann", blend_width=1.0, t_end=1.0, dx=1.0 / 128.0,
        snapshots=257, eps=0.05, delta=1e-4, riemann_tol=1e-3,
        check_energy=True, check_riemann=True))


def _monitors_sphere(amp: float = 1.0, centre: float = 2.0) -> RunConfig:
    # the benchmark's monitors sphere: an axis end and the quartic monitor
    return RunConfig.from_mapping(dict(
        gamma=2.0, profile="spherical", profile_n=3, bc="neumann_spherical",
        init="bump", init_amp=amp, init_center=centre, init_width=1.0,
        mollify_width=0.0, blend_width=0.5, t_end=0.5,
        dx=(1.0 / 0.05 - 0.05) / 400, snapshots=257, eps=0.05, window_lo=0.5,
        window_hi=4.0, check_energy=True, check_riemann=True,
        check_quartic=True))


def _plain(go):
    with pytest.MonkeyPatch.context() as mp:
        whole_field_monitors(mp)
        return go()


def _assert_same_field(a: FluidField, b: FluidField):
    a, b = a.whole(), b.whole()
    assert a.t == b.t
    assert a.rho.tobytes() == b.rho.tobytes()
    assert a.m.tobytes() == b.m.tobytes()


# ---------------------------------------------------------------------------
# Node ranges
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("a, b, cells", [(-320.0, 320.0, 81920),
                                         (0.05, 2.05, 48), (-3.0, 3.0, 97)])
def test_grid_nodes_and_search_match_linspace(a, b, cells):
    grid = Grid(a, b, cells)
    x = grid.x
    n = grid.n_nodes
    for lo, hi in ((0, n), (0, 1), (n - 1, n), (3, 9), (n // 2, n), (5, 5)):
        assert grid.nodes(lo, hi).tobytes() == x[lo:hi].tobytes()
    rng = np.random.default_rng(cells)
    values = np.concatenate([x[rng.integers(0, n, 50)],
                             rng.uniform(a - 1.0, b + 1.0, 50),
                             [a, b, -np.inf, np.inf, a - 1e-12, b + 1e-12]])
    for v in values:
        for side in ("left", "right"):
            assert grid.searchsorted(v, side) == np.searchsorted(x, v, side)


def test_field_values_widen_and_whole():
    grid = Grid(-1.0, 1.0, 16)
    f = FluidField(grid, np.arange(3.0), -np.arange(3.0), 0.5, 6,
                   ((1.0, 0.5), (2.0, 0.0)))
    whole = f.whole()
    assert (whole.lo, whole.hi, whole.ends) == (0, 17, (None, None))
    np.testing.assert_array_equal(whole.rho[:6], 1.0)
    np.testing.assert_array_equal(whole.rho[6:9], [0.0, 1.0, 2.0])
    np.testing.assert_array_equal(whole.m[9:], 0.0)
    assert f.values(4, 12).tobytes() == whole.values(4, 12).tobytes()
    assert whole.whole() is whole
    with pytest.raises(ConfigError):
        FluidField(grid, np.ones(3), np.ones(3), lo=6)  # no end states


def test_prepared_data_do_not_depend_on_the_block_size():
    # blocks of 257 nodes against one block for the whole grid: the same
    # nodes kept and the same values, bit for bit; the finest ladder rung
    # keeps only its mollified jump
    cfg = _ladder_config()
    eps = 0.003125
    args = (cfg.build_initial(eps), cfg.build_bc(eps), cfg.build_gas(eps),
            cfg.build_profile(), cfg.grid_of(eps))
    blocked = prepare_initial_data(*args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "BLOCK", 257)
        small = prepare_initial_data(*args)
        mp.setattr(solver, "BLOCK", 1 << 30)
        plain = prepare_initial_data(*args)
    for other in (small, plain):
        _assert_same_field(blocked, other)
        assert (blocked.lo, blocked.hi, blocked.ends) == \
            (other.lo, other.hi, other.ends)
    assert blocked.hi - blocked.lo <= 8
    whole = blocked.whole()
    assert np.all(whole.rho[:blocked.lo] == 1.0)
    assert np.all(whole.m[blocked.hi:] == 0.0)


def test_mollified_flat_data_stay_exact():
    # 43 kernel taps round a constant by an ulp; a flat neighbourhood keeps
    # its value, and the prepared Riemann data of the dx = 1/1024 rung hold
    # their boundary states exactly away from the jump
    values = np.full(200, 0.75)
    values[100:] = 0.125
    out = solver._mollify(values, 0.02, 1.0 / 1024.0)
    assert np.all(out[:79] == 0.75) and np.all(out[121:] == 0.125)
    assert np.all((out[81:119] < 0.75) & (out[81:119] > 0.125))
    assert np.all(np.diff(out) <= 1e-15)
    cfg = _ladder_config(gamma=5.0, dx=1.0 / 1024.0)
    eps = 0.003125
    f = prepare_initial_data(cfg.build_initial(eps), cfg.build_bc(eps),
                             cfg.build_gas(eps), cfg.build_profile(),
                             cfg.grid_of(eps))
    assert f.hi - f.lo <= 2 * 21 + 2


def test_csv_rows_do_not_depend_on_the_block_size(tmp_path):
    cfg = _ladder_config()
    out = single_run(cfg, eps=0.05, collect_snapshots=False)
    texts = []
    for block in (7, 1 << 30):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(diagnostics, "BLOCK", block)
            write_snapshot_csv(tmp_path / "final.csv", out.field, out.ctx,
                               cfg.cfl)
            out.report.to_csv(tmp_path / "report.csv")
        texts.append([(tmp_path / name).read_bytes()
                      for name in ("final.csv", "report.csv")])
    assert texts[0] == texts[1]
    final = np.loadtxt(tmp_path / "final.csv", delimiter=",", skiprows=3)
    assert final.shape[0] == out.field.grid.n_nodes
    np.testing.assert_array_equal(final[:, 4], 1.0)


def test_context_areas_on_any_range():
    grid = Grid(-6.0, 6.0, 96)
    profile = GaussianBumpProfile()
    ctx = SolverContext(grid, GasLaw(2.0, delta=1e-3), profile, 0.05,
                        BoundarySpec.dirichlet_nozzle(1.0, 0.0, 1.0, 0.0))
    assert ctx.store(40, 50) and not ctx.store(40, 50)  # whether it grew
    assert 0 < ctx.lo < 40 and 50 < ctx.hi < grid.n_nodes
    full = profile.area(grid.x)
    for lo, hi in ((0, 97), (0, 10), (30, 60), (45, 47), (90, 97), (5, 5)):
        assert ctx.area(lo, hi).tobytes() == full[lo:hi].tobytes()
    # growing re-evaluates the range, and stays bit for bit the whole-grid
    # coefficients
    assert ctx.store(0, 97)
    whole = SolverContext(grid, ctx.g, profile, 0.05, ctx.bc)
    whole.store(0, 97)
    for name in ("x", "A", "G", "Ah", "Ah_full", "bands", "inv_Adx", "dG"):
        assert getattr(ctx, name).tobytes() == getattr(whole, name).tobytes()


def test_interface_data_refuse_a_context_that_stores_no_nodes():
    grid = Grid(-1.0, 1.0, 16)
    ctx = SolverContext(grid, GasLaw(2.0, delta=1e-3), ConstantProfile(), 0.05,
                        BoundarySpec.dirichlet_nozzle(1.0, 0.0, 1.0, 0.0))
    rho, m = np.ones(grid.n_nodes), np.zeros(grid.n_nodes)
    with pytest.raises(ConfigError, match="store or start"):
        hyperbolic_interface_data(ctx, rho, m)
    assert (ctx.lo, ctx.hi) == (0, 0)
    ctx.store(0, grid.n_nodes)
    assert hyperbolic_interface_data(ctx, rho, m)["phi"].size == grid.n_nodes + 1


# ---------------------------------------------------------------------------
# The live range against a scan of the stored nodes
# ---------------------------------------------------------------------------


def _scanned_live(ctx: SolverContext) -> tuple[int, int]:
    """The plain path of ``start``'s ``live``: every stored node scanned,
    from the first off the left far state to the last off the right one (an
    end without a far state has none on)."""
    off = [np.ones(ctx.rho.size, bool) if end is None
           else (ctx.rho != end[0]) | (ctx.m != end[1])
           for end in ctx.far_states]
    i = ctx.lo + int(off[0].argmax()) if off[0].any() else ctx.hi
    j = ctx.hi - int(off[1][::-1].argmax()) if off[1].any() else ctx.lo
    return min(i, j), j


def _bump_inflow() -> RunConfig:
    # a Gaussian bump duct with inflow: the left end has no far state
    return RunConfig.from_mapping(dict(
        gamma=2.0, profile="gaussian_bump", bc="dirichlet_nozzle",
        rho_minus=1.0, rho_plus=0.125, u_minus=0.2, u_plus=0.0,
        init="riemann", blend_width=1.0, t_end=0.5, dx=1.0 / 64.0, eps=0.05,
        delta=1e-4))


def _sphere_neumann() -> RunConfig:
    return RunConfig.from_mapping(dict(
        gamma=2.0, profile="spherical", profile_n=3, bc="neumann_spherical",
        init="bump", init_amp=1.0, init_center=2.0, init_width=1.0,
        mollify_width=0.0, blend_width=0.5, t_end=0.5, dx=0.025, eps=0.05))


class _LiveRanges:
    """Hooks that record each sampled field's node range and the run's
    ``live`` when it was sampled."""

    def __init__(self, t_end: float):
        self.sample_times = np.linspace(0.0, t_end, 5)
        self.seen = []

    def sample(self, field, ctx):
        self.ctx = ctx
        self.seen.append(((field.lo, field.hi), ctx.live))

    def finalize(self):
        return diagnostics.DiagnosticsReport()


@pytest.mark.parametrize("case, eps", [("ladder", 0.003125),
                                       ("bump_inflow", 0.05),
                                       ("sphere_neumann", 0.05)])
def test_started_live_range_matches_a_scan(case, eps):
    cfg = {"ladder": _ladder_config, "bump_inflow": _bump_inflow,
           "sphere_neumann": _sphere_neumann}[case]()
    ctx = SolverContext(cfg.grid_of(eps), cfg.build_gas(eps),
                        cfg.build_profile(), eps, cfg.build_bc(eps))
    field = prepare_initial_data(cfg.build_initial(eps), ctx.bc, ctx.g,
                                 ctx.profile, ctx.grid)
    ctx.start(field)
    live = ctx.live
    assert live == _scanned_live(ctx)
    n = ctx.grid.n_nodes
    assert live[1] - live[0] < n
    if case != "ladder":  # no far state on the left: live starts at 0
        assert ctx.far_states[0] is None and ctx.live[0] == 0
    ctx.start(field.whole())
    assert ctx.live == (0, n) and (ctx.lo, ctx.hi) == (0, n)
    # every field the run samples or returns holds exactly its live nodes
    hooks = _LiveRanges(cfg.t_end)
    out, _ = run(field, ctx.g, ctx.profile, eps, ctx.bc, cfg.t_end,
                 hooks=hooks, cfl=cfg.cfl)
    assert len(hooks.seen) == 5
    assert hooks.seen[0][0] == live
    for got, run_live in hooks.seen:
        assert got == run_live
    assert (out.lo, out.hi) == hooks.ctx.live
    assert out.hi - out.lo < n


def test_monitors_read_any_field_with_a_finished_run_s_context():
    # a whole-grid field that leaves the far state at nodes outside the
    # run's live nodes, inside and outside its stored range: the run's
    # context gives each monitor's value with a fresh context
    cfg = RunConfig(eps=0.05, dx=1.0 / 32.0, t_end=0.2, snapshots=5)
    out = single_run(cfg)
    ctx, lo = out.ctx, out.ctx.live[0]
    ctx.store(lo - 60, ctx.hi)  # a stored range that holds node lo - 50
    assert ctx.lo < lo - 50 and 100 < ctx.lo
    moved = out.field.whole()
    moved.rho[[lo - 50, 100]] += 0.3
    ref = cfg.build_reference(cfg.eps)
    monitors = {"energy_budget": lambda c, f: energy_budget(c, f, ref),
                "llf_dissipation_rate": llf_dissipation_rate,
                "riemann_monitor": riemann_monitor}
    for name, monitor in monitors.items():
        fresh = SolverContext(ctx.grid, ctx.g, ctx.profile, ctx.eps, ctx.bc)
        expect = monitor(fresh, moved)
        assert monitor(ctx, moved) == expect, name
        assert monitor(ctx, out.field) != expect, name


# ---------------------------------------------------------------------------
# The steady test on BLOCK-node pieces against the whole-grid probe
# ---------------------------------------------------------------------------


_TABLE_X = np.linspace(-8.0, 8.0, 33)
_STEADY_PROFILES = {
    "bump": GaussianBumpProfile(), "throat": GaussianBumpProfile(amp=-0.5),
    "closing": PowerLawClosingProfile(), "exponential": ExponentialProfile(),
    "tabulated": TabulatedProfile(_TABLE_X,
                                  1.0 + 0.5 * np.exp(-_TABLE_X * _TABLE_X))}


@pytest.mark.parametrize("name", _STEADY_PROFILES)
def test_pieced_steady_test_matches_the_whole_grid_probe(name, monkeypatch):
    # moving far states in a duct whose area varies, on grids below and
    # above BLOCK nodes: the same verdicts, residuals and rates, bit for
    # bit; the steady test builds no context, and evaluates the area on at
    # most a piece, one neighbour a side and their faces at a time
    built, sizes = [], []
    init, area = SolverContext.__init__, NozzleProfile.area
    monkeypatch.setattr(SolverContext, "__init__", lambda ctx, *args: (
        built.append(ctx), init(ctx, *args))[1])
    monkeypatch.setattr(NozzleProfile, "area", lambda prof, x: (
        sizes.append(np.size(x)), area(prof, x))[1])
    g, profile = GasLaw(2.0, delta=1e-3), _STEADY_PROFILES[name]
    verdicts = set()
    for cells in (48, 200, 5120, 81920):
        grid = Grid(-8.0, 8.0, cells)
        for m_f in (0.1, 1e-11, 1.3e-13):
            bc = BoundarySpec.dirichlet_nozzle(1.0, m_f, 0.5, m_f)
            ctx = SolverContext(grid, g, profile, 0.05, bc)
            built.clear()
            sizes.clear()
            ends = ctx.far_states
            assert not built, (cells, m_f)
            assert sizes and max(sizes) <= solver.BLOCK + 3, (cells, m_f)
            assert ends == plain_step.far_states(ctx), (cells, m_f)
            for rho_f in (1.0, 0.5):
                assert ctx._residual(rho_f, m_f) == \
                    plain_step.steady_residual(ctx, rho_f, m_f), (cells, m_f)
            verdicts.update(end is None for end in ends)
    assert verdicts == {True, False}  # both verdicts are tested


def test_steady_test_holds_no_whole_grid_array():
    # a bump duct with inflow on the 81,921 nodes of the finest ladder
    # rung: a probe of the whole grid peaked at 31 MiB
    cfg, eps = _bump_inflow(), 0.003125
    ctx = SolverContext(_ladder_config().grid_of(eps), cfg.build_gas(eps),
                        cfg.build_profile(), eps, cfg.build_bc(eps))
    assert ctx.grid.n_nodes == 81921
    tracemalloc.start()
    try:
        ends = ctx.far_states
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ends == (None, (0.125, 0.0))
    assert peak <= 16 * 2 ** 20


# ---------------------------------------------------------------------------
# The stored range against whole-grid storage
# ---------------------------------------------------------------------------


def _assert_same_run(fast, plain):
    _assert_same_field(fast.field, plain.field)
    assert_same_series(fast.report, plain.report)
    for name in ("cells_advanced", "undershoots", "hull"):
        assert getattr(fast.report, name) == getattr(plain.report, name)
    if fast.report.snapshots is not None:
        for name in ("t", "x", "rho", "m"):
            assert getattr(fast.snapshots, name).tobytes() == \
                getattr(plain.snapshots, name).tobytes(), name


def test_monitors_duct_matches_whole_grid_storage():
    cfg = _monitors_duct()
    fast = single_run(cfg)
    plain = _plain(lambda: single_run(cfg))
    _assert_same_run(fast, plain)
    assert {"max_w", "energy"} <= fast.report.series.keys()
    assert fast.ctx.hi - fast.ctx.lo < fast.field.grid.n_nodes


def _monitors_alone(mp):
    """Make the Recorder call each public monitor without its row block,
    so that each builds its own from the context and the field."""
    for name in ("energy_budget", "llf_dissipation_rate", "riemann_monitor"):
        monitor = getattr(diagnostics, name)
        mp.setattr(diagnostics, name, lambda ctx, field, *args, _m=monitor:
                   _m(ctx, field, *args[:-1]))


# the benchmark's monitors configs at seed 0 and at seed 3's jitter: the
# duct's u_minus != 0 leaves its bump duct no left far state
@pytest.mark.parametrize("cfg", [
    _monitors_duct(), _monitors_duct(u_minus=-0.00016115848191681353),
    _monitors_sphere(), _monitors_sphere(1.006245754042505, 1.982978751548553)],
    ids=["duct", "duct-jitter", "sphere", "sphere-jitter"])
def test_one_row_block_matches_the_monitors_alone_and_whole_grid(cfg):
    # the Recorder's row block against every public monitor building its
    # own block, and against whole-grid storage and summation
    block = single_run(cfg)
    with pytest.MonkeyPatch.context() as mp:
        _monitors_alone(mp)
        alone = single_run(cfg)
    for other in (alone, _plain(lambda: single_run(cfg))):
        _assert_same_run(block, other)
    assert {"max_w", "energy", "llf_rate", "vacuum_phi"} <= \
        block.report.series.keys()


@pytest.mark.parametrize("case", ["gaussian_bump", "spherical"])
def test_small_runs_match_whole_grid_storage(case):
    # the benchmark's direct run calls: whole-grid fields, stored whole
    g = GasLaw(2.0, delta=1e-3)
    if case == "gaussian_bump":
        grid, profile, t_end = Grid(-4.0, 4.0, 200), GaussianBumpProfile(), 0.25
        s = 0.5 * (1.0 + np.tanh(grid.x / 0.3))
        rho, m = 1.0 - 0.5 * s, 0.1 * (1.0 - 0.5 * s) * (1.0 - s)
        bc = BoundarySpec.dirichlet_nozzle(rho[0], m[0], rho[-1], m[-1])
    else:
        grid, profile, t_end = Grid(1.0, 5.0, 800), SphericalProfile(3), 0.05
        z = (grid.x - 3.0) / 0.8
        rho = 0.7 + 0.3 * np.where(np.abs(z) < 1.0, np.exp(
            1.0 - 1.0 / np.maximum(1.0 - z * z, 1e-12)), 0.0)
        m = np.zeros_like(rho)
        bc = BoundarySpec.dirichlet_spherical(rho[-1])
    field = FluidField(grid, rho, m)
    fast = run(field, g, profile, 0.05, bc, t_end)
    plain = _plain(lambda: run(field, g, profile, 0.05, bc, t_end))
    _assert_same_field(fast[0], plain[0])
    assert fast[1].cells_advanced == plain[1].cells_advanced


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------


def test_finest_ladder_rung_stores_few_nodes():
    # gamma 2, eps = 0.003125, dx = 1/128: 81,921 nodes around a hull of
    # about 160; the run's allocations stay far below the grid's size
    cfg = _ladder_config()
    single_run(cfg, eps=0.1)  # the caches a first run fills
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = single_run(cfg, eps=0.003125)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert out.field.grid.n_nodes == 81921
    assert out.ctx.hi - out.ctx.lo <= 4096
    assert (out.field.lo, out.field.hi) == out.ctx.live
    assert peak < 8 * 2 ** 20


def test_quartic_monitor_stores_no_more_nodes():
    # a duct whose flow leaves both far states untouched: the quartic
    # monitor integrates A past the summed nodes without storing them, so
    # the stored range is the one a run without it keeps, and it holds at
    # most twice the live nodes (the second case stored 2.8 times them
    # when a growth added the range's size on the side a window passed)
    for dx, t_end in ((1.0 / 32.0, 0.2), (1.0 / 128.0, 0.5)):
        runs = [single_run(RunConfig(eps=0.05, dx=dx, t_end=t_end,
                                     snapshots=5, check_quartic=quartic))
                for quartic in (True, False)]
        ctx = runs[0].ctx
        lo, hi = ctx.live
        assert 0 < lo and hi < ctx.grid.n_nodes
        assert "quartic" in runs[0].report.series
        assert (ctx.lo, ctx.hi) == (runs[1].ctx.lo, runs[1].ctx.hi)
        assert ctx.hi - ctx.lo <= 2 * (hi - lo) + 2 * solver.STORE_MARGIN, dx


@pytest.mark.parametrize("over, text", [
    (dict(dx=1e-7), "above the limit of 8388608"),
    (dict(snapshots=100_000_000), "above the limit of 268435456"),
])
def test_size_limits_refuse_before_allocating(over, text):
    values = dict(over, output_dir="out")
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=text):
            RunConfig.from_mapping(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20


def test_snapshot_limit_counts_the_nodes_the_recorder_keeps(monkeypatch):
    # the window [-1, 1] holds 257 nodes at dx = 1/128, its ends included
    cfg = _ladder_config(snapshots=5, t_end=0.05)
    kept = single_run(cfg).snapshots.x.size
    assert kept == 257
    monkeypatch.setattr(harness, "MAX_SNAPSHOT_BYTES", 0)
    with pytest.raises(ConfigError, match=f"of {kept} window nodes on the "
                                          f"eps={cfg.eps:g} rung"):
        cfg.validate()


def test_size_limits_admit_the_resolved_rung():
    cfg = _ladder_config(gamma=5.0, dx=1.0 / 2048.0, check_riemann=True)
    assert cfg.grid_of(0.003125).n_nodes == 1_310_721
    assert harness.MAX_NODES >= 2 * 1_310_721


def test_prepared_field_starts_a_run_with_its_exact_ends():
    # a field that leaves its ends at other states than the far states is
    # stored up to those ends
    g = GasLaw(2.0, delta=1e-3)
    grid = Grid(-4.0, 4.0, 64)
    bc = BoundarySpec.dirichlet_nozzle(1.0, 0.0, 0.5, 0.0)
    raw = InitialData(lambda x: np.where(x < 0.0, 1.0, 0.5),
                      lambda x: np.zeros_like(x), 0.0, 1.0)
    field = prepare_initial_data(raw, bc, g, GaussianBumpProfile(), grid)
    ctx = SolverContext(grid, g, GaussianBumpProfile(), 0.05, bc)
    ctx.start(field)
    assert 0 < ctx.lo <= field.lo and field.hi <= ctx.hi < grid.n_nodes
    odd = FluidField(grid, field.rho, field.m, 0.0, field.lo,
                     ((1.0, 0.1), field.ends[1]))
    ctx.start(odd)
    assert ctx.lo == 0 and ctx.rho[0] == 1.0 and ctx.m[0] == 0.1
