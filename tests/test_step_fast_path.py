"""The solver's step against the plain step of ``plain_step.py``.

``plain_step.py`` lists what the fast step does differently.  Each case
runs twice: as the solver runs it, and with the plain step, advance, wave
speed and interface data patched in.  The final fields must be
bit-identical.  The cases are the direct step and run calls of the
benchmark's ``small_steps`` workload and one windowed acceptance rung at
gamma 2 and at gamma 5.

``hyperbolic_interface_data``, which the llf monitor reads, must equal the
plain stage's dict bit for bit on all nine arrays: on every step case, on
windows that reach past a stored edge onto far-state ghosts, and at the
axis end, whose ghost slope is mirrored; and so must a stack of samples,
which the llf monitor passes, sample by sample.

``SolverContext.scan`` finds each window by scanning only the window the
last step moved.  Its cases run once so and once with every scan forced to
the whole grid; fields, counters and snapshots must be bit-identical.
"""

import numpy as np
import pytest

import plain_step
from helpers import manufactured_forcing, manufactured_state
from nozzleflow import diagnostics, solver
from nozzleflow.geometry import (GaussianBumpProfile, TabulatedProfile,
                                 make_profile)
from nozzleflow.harness import RunConfig, single_run
from nozzleflow.solver import (BoundarySpec, FluidField, Grid, SolverContext,
                               run)
from nozzleflow.thermo import GasLaw

G = GasLaw(2.0, delta=1e-3)
EPS = 0.05


def _both(go):
    """(fast result, plain result) of go()."""
    fast = go()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "step", plain_step.step)
        mp.setattr(SolverContext, "advance", plain_step.advance)
        mp.setattr(SolverContext, "max_wave_speed", plain_step.max_wave_speed)
        for module in (solver, diagnostics):
            mp.setattr(module, "hyperbolic_interface_data",
                       plain_step.hyperbolic_interface_data)
        plain = go()
    return fast, plain


def _assert_bit_identical(a: FluidField, b: FluidField):
    a, b = a.whole(), b.whole()
    assert a.t == b.t
    assert a.rho.tobytes() == b.rho.tobytes()
    assert a.m.tobytes() == b.m.tobytes()


def _profile(kind):
    if kind == "tabulated":
        xs = np.linspace(-3.5, 3.5, 29)
        return TabulatedProfile.from_columns(xs, 1.0 + 0.5 * np.exp(-xs * xs))
    params = {"power_law_closing": dict(alpha=1.0), "exponential": dict(rate=0.4),
              "spherical": dict(n_dim=3)}.get(kind, {})
    return make_profile(kind, **params)


def _data(kind, grid):
    x = grid.x
    if kind == "constant":
        return np.full(x.size, 0.7), np.zeros(x.size)
    if kind == "riemann":
        s = 0.5 * (1.0 + np.tanh(x / 0.3))
        rho = 1.0 - 0.5 * s
        return rho, 0.1 * rho * (1.0 - s)
    z = (x - 0.5 * (grid.a + grid.b)) / (0.2 * (grid.b - grid.a))
    bump = np.where(np.abs(z) < 1.0,
                    np.exp(1.0 - 1.0 / np.maximum(1.0 - z * z, 1e-12)), 0.0)
    return 0.7 + 0.3 * bump, np.zeros(x.size)


def _case(kind, mode, domain, cells, data):
    grid = Grid(*domain, cells)
    rho, m = _data(data, grid)
    bc = {"nozzle": lambda: BoundarySpec.dirichlet_nozzle(rho[0], m[0],
                                                          rho[-1], m[-1]),
          "dirichlet_sph": lambda: BoundarySpec.dirichlet_spherical(rho[-1]),
          "neumann_sph": lambda: BoundarySpec.neumann_spherical(rho[-1])}[mode]()
    return grid, _profile(kind), bc, FluidField(grid, rho, m)


# the benchmark's ``small_steps`` step cases
STEP_CASES = [
    ("constant", "nozzle", (-3.0, 3.0), 48, "bump"),
    ("gaussian_bump", "nozzle", (-3.0, 3.0), 48, "riemann"),
    ("power_law_closing", "nozzle", (-3.0, 3.0), 64, "bump"),
    ("exponential", "nozzle", (-3.0, 3.0), 64, "bump"),
    ("tabulated", "nozzle", (-3.0, 3.0), 96, "bump"),
    ("spherical", "dirichlet_sph", (1.0, 2.0), 48, "bump"),
    ("spherical", "neumann_sph", (0.05, 2.05), 48, "bump"),
    ("gaussian_bump", "nozzle", (-4.0, 4.0), 48, "constant"),
]


@pytest.mark.parametrize("kind, mode, domain, cells, data", STEP_CASES)
def test_steps_match_the_plain_step(kind, mode, domain, cells, data):
    grid, profile, bc, field0 = _case(kind, mode, domain, cells, data)

    def stepped():
        ctx = SolverContext(grid, G, profile, EPS, bc)
        dt = 0.3 * grid.dx / ctx.max_wave_speed(field0.rho, field0.m)
        field = field0
        for _ in range(300):
            field = solver.step(field, G, profile, EPS, bc, dt, ctx=ctx)
        return field

    _assert_bit_identical(*_both(stepped))


@pytest.mark.parametrize("kind, mode, domain, cells, data, t_end", [
    ("gaussian_bump", "nozzle", (-4.0, 4.0), 200, "riemann", 0.25),
    ("spherical", "dirichlet_sph", (1.0, 5.0), 800, "bump", 0.05),
])
def test_runs_match_the_plain_step(kind, mode, domain, cells, data, t_end):
    grid, profile, bc, field0 = _case(kind, mode, domain, cells, data)
    fast, plain = _both(lambda: run(field0, G, profile, EPS, bc, t_end)[0])
    _assert_bit_identical(fast, plain)


# ---------------------------------------------------------------------------
# The public interface data against the plain stage's
# ---------------------------------------------------------------------------


def _assert_same_interface_data(ctx, rho, m, t, window):
    """The nine arrays of hyperbolic_interface_data bit for bit against the
    plain stage's, for the state alone and for a stack of it and a
    perturbed copy at a later time, which the plain stage takes one sample
    at a time; returns the fast dict of the state alone."""
    stack = (np.array((rho, 1.01 * rho)), np.array((m, 0.9 * m + 0.01)),
             np.array((t, t + 0.1)))
    for args in ((rho, m, t), stack):
        fast = solver.hyperbolic_interface_data(ctx, *args, window)
        plain = plain_step.hyperbolic_interface_data(ctx, *args, window)
        assert len(fast) == 9 and fast.keys() == plain.keys()
        for name, values in fast.items():
            assert values.shape == plain[name].shape, name
            assert values.tobytes() == plain[name].tobytes(), name
    return solver.hyperbolic_interface_data(ctx, rho, m, t, window)


@pytest.mark.parametrize("kind, mode, domain, cells, data", STEP_CASES)
def test_interface_data_matches_the_plain_stage(kind, mode, domain, cells,
                                                data):
    # the initial data and a state 40 steps on, over every node and over a
    # window inside the grid
    grid, profile, bc, field = _case(kind, mode, domain, cells, data)
    ctx = SolverContext(grid, G, profile, EPS, bc)
    dt = 0.3 * grid.dx / ctx.max_wave_speed(field.rho, field.m)
    for k in range(41):
        if k % 40 == 0:
            ctx.start(field)
            n = ctx.rho.size
            for window in (None, (3, n - 5)):
                _assert_same_interface_data(ctx, ctx.rho, ctx.m, field.t,
                                            window)
        field = solver.step(field, G, profile, EPS, bc, dt, ctx=ctx)


def test_interface_data_matches_past_a_stored_edge():
    # a field on nodes 90 .. 110 of 201 between two far states: windows at
    # either edge of the stored range reach past it, onto far-state ghosts
    grid = Grid(-4.0, 4.0, 200)
    x = grid.nodes(90, 110)
    s = 0.5 * (1.0 + np.tanh(x / 0.1))
    rho, m = 1.0 - 0.5 * s, 0.1 * (1.0 - s)
    bc = BoundarySpec.dirichlet_nozzle(1.0, 0.1, 0.5, 0.0)
    field = FluidField(grid, rho, m, 0.0, 90, ((1.0, 0.1), (0.5, 0.0)))
    ctx = SolverContext(grid, G, _profile("constant"), EPS, bc)
    ctx.start(field)
    n = ctx.rho.size
    assert 0 < ctx.lo and ctx.hi < grid.n_nodes
    for window in ((0, 12), (n - 12, n), (1, n - 1), None):
        _assert_same_interface_data(ctx, ctx.rho, ctx.m, 0.0, window)


def test_interface_data_matches_at_the_axis():
    # data with a slope at the axis: the ghost's mirrored slope is nonzero
    grid, profile, bc, _ = _case("spherical", "neumann_sph", (0.05, 2.05), 48,
                                 "bump")
    x = grid.x
    field = FluidField(grid, 0.7 + 0.2 * np.cos(2.0 * x), 0.05 * x)
    ctx = SolverContext(grid, G, profile, EPS, bc)
    ctx.start(field)
    for window in ((0, 10), None):
        data = _assert_same_interface_data(ctx, ctx.rho, ctx.m, 0.0, window)
        assert data["rho_L"][0] != data["rho_ext"][0]
        assert data["m_L"][0] != data["m_ext"][0]


def _manufactured_run(cells: int, t_end: float):
    """The forced manufactured-solution run, with its time-dependent
    boundary values; returns (field, report)."""
    g, eps, profile = GasLaw(2.0, delta=0.01), 0.05, GaussianBumpProfile()
    grid = Grid(-2.0, 2.0, cells)
    bc = BoundarySpec.dirichlet_nozzle(
        lambda t: manufactured_state(grid.a, t)[0],
        lambda t: manufactured_state(grid.a, t)[1],
        lambda t: manufactured_state(grid.b, t)[0],
        lambda t: manufactured_state(grid.b, t)[1])
    field0 = FluidField(grid, *manufactured_state(grid.x, 0.0))
    return run(field0, g, profile, eps, bc, t_end, dt_fixed=2.0 * grid.dx ** 2,
               forcing=manufactured_forcing(profile, g, eps))


def test_forced_run_matches_the_plain_step():
    fast, plain = _both(lambda: _manufactured_run(200, 0.05)[0])
    _assert_bit_identical(fast, plain)


def _acceptance_config(gamma: float) -> RunConfig:
    return RunConfig.from_mapping(dict(
        gamma=gamma, profile="constant", bc="dirichlet_nozzle",
        rho_minus=1.0, rho_plus=0.125, u_minus=0.75, u_plus=0.0,
        init="riemann", blend_width=1.0, t_end=0.5, dx=1.0 / 128.0,
        eps0=0.1, n_eps=6, snapshots=97, window_lo=-1.0, window_hi=1.0,
        check_riemann=False))


@pytest.mark.parametrize("gamma", [2.0, 5.0])
def test_windowed_acceptance_rung_matches_the_plain_step(gamma):
    # the acceptance sweeps' configuration, coarsest rung
    cfg = _acceptance_config(gamma)
    fast, plain = _both(lambda: single_run(cfg, eps=0.1,
                                           collect_snapshots=False))
    lo, hi = fast.report.hull
    assert hi - lo < fast.field.grid.n_nodes   # the run stepped windows
    _assert_bit_identical(fast.field.whole(), plain.field)
    # the plain step stores every node, so its monitors sum over more of
    # them: extremes agree bit for bit, sums to 1e-13 of their scale
    for name, series in fast.report.series.items():
        other = plain.report.series[name]
        if name in ("t", "max_w", "min_z", "min_rho"):
            assert series.tobytes() == other.tobytes(), name
        else:
            assert np.max(np.abs(series - other)) \
                <= 1e-13 * np.max(np.abs(other)), name


# ---------------------------------------------------------------------------
# The incremental window scan against the whole-grid scan
# ---------------------------------------------------------------------------


def _scanned(go, whole: bool):
    """(go(), the span of every rest-end scan); with ``whole`` each scan
    covers the whole grid, the plain path of ``SolverContext.scan``."""
    spans, scan = [], SolverContext._rest_ends

    def recorded(ctx, rho, m, span):
        spans.append(span)
        return scan(ctx, rho, m, None if whole else span)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SolverContext, "_rest_ends", recorded)
        return go(), spans


def _small_run(kind, mode, domain, cells, data, t_end):
    grid, profile, bc, field0 = _case(kind, mode, domain, cells, data)
    return run(field0, G, profile, EPS, bc, t_end)


def _finest_rung(gamma):
    out = single_run(_acceptance_config(gamma), eps=0.003125)
    return out.field, out.report


# the benchmark's CFL-stepped run calls and its forced run, and the finest
# rung of each acceptance sweep
SCAN_CASES = {
    "run[gaussian_bump]": lambda: _small_run("gaussian_bump", "nozzle",
                                             (-4.0, 4.0), 200, "riemann", 0.25),
    "run[spherical]": lambda: _small_run("spherical", "dirichlet_sph",
                                         (1.0, 5.0), 800, "bump", 0.05),
    "manufactured": lambda: _manufactured_run(400, 0.1),
    "rung[gamma=2]": lambda: _finest_rung(2.0),
    "rung[gamma=5]": lambda: _finest_rung(5.0),
}


@pytest.mark.parametrize("case", sorted(SCAN_CASES))
def test_incremental_scan_matches_the_whole_grid_scan(case):
    ((fast, fast_rep), spans), ((plain, plain_rep), _) = (
        _scanned(SCAN_CASES[case], whole) for whole in (False, True))
    _assert_bit_identical(fast, plain)
    assert fast_rep.cells_advanced == plain_rep.cells_advanced
    assert fast_rep.hull == plain_rep.hull
    for name, series in fast_rep.series.items():
        assert series.tobytes() == plain_rep.series[name].tobytes(), name
    if fast_rep.snapshots is not None:
        for name in ("t", "rho", "m"):
            assert getattr(fast_rep.snapshots, name).tobytes() == \
                getattr(plain_rep.snapshots, name).tobytes(), name
    if case.startswith("rung"):
        # after the first step no scan falls back to the whole grid
        n = fast.grid.n_nodes
        assert spans[0] is None and len(spans) > 100
        assert all(span is not None and span[1] - span[0] < n
                   for span in spans[1:])
