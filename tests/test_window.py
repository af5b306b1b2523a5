"""Active-window stepping against whole-grid stepping.

A step advances only the nodes off their end's far state plus a stencil and
a diffusive margin.  Each case runs twice: as the solver runs it, and with
the window finder replaced by one that returns the whole grid (the plain
path).  Both must give the same run within roundoff.
"""

import numpy as np
import pytest

from helpers import manufactured_forcing, manufactured_state
from nozzleflow import solver
from nozzleflow.diagnostics import integrability_window
from nozzleflow.geometry import GaussianBumpProfile
from nozzleflow.harness import RunConfig, single_run
from nozzleflow.solver import (BoundarySpec, FluidField, Grid, SolverContext,
                               run)
from nozzleflow.thermo import GasLaw


def _ladder_config(**over) -> RunConfig:
    # the gamma = 2 acceptance sweep's configuration
    values = dict(
        gamma=2.0, profile="constant", bc="dirichlet_nozzle",
        rho_minus=1.0, rho_plus=0.125, u_minus=0.75, u_plus=0.0,
        init="riemann", blend_width=1.0,
        t_end=0.5, dx=1.0 / 128.0, eps0=0.1, n_eps=6, snapshots=97,
        window_lo=-1.0, window_hi=1.0, workers=1, weak_residuals=True,
        check_riemann=False)
    values.update(over)
    return RunConfig.from_mapping(values)


def _bump_duct_config(u_minus: float) -> RunConfig:
    return RunConfig.from_mapping(dict(
        gamma=2.0, profile="gaussian_bump", bc="dirichlet_nozzle",
        rho_minus=1.0, rho_plus=0.125, u_minus=u_minus, u_plus=0.0,
        init="riemann", blend_width=1.0, t_end=0.5, dx=1.0 / 64.0,
        snapshots=17, eps=0.05, delta=1e-4, check_riemann=True))


def _sphere_config() -> RunConfig:
    eps = 0.05
    return RunConfig.from_mapping(dict(
        gamma=2.0, profile="spherical", profile_n=3, bc="neumann_spherical",
        init="bump", init_amp=1.0, init_center=2.0, init_width=1.0,
        mollify_width=0.0, blend_width=0.5, t_end=0.5,
        dx=(1.0 / eps - eps) / 800.0, snapshots=17, eps=eps, window_lo=0.5,
        window_hi=4.0, check_quartic=True))


class _Trace:
    """Step count and the union of the stepped windows of one run."""

    def __init__(self, mp, whole: bool):
        self.steps = 0
        self.lo, self.hi = np.inf, -np.inf
        step, find = solver.step, SolverContext.active_window

        def counted(*args, **kwargs):
            self.steps += 1
            return step(*args, **kwargs)

        def window(ctx, rho, m, dt):
            lo, hi = (0, rho.size) if whole else find(ctx, rho, m, dt)
            if dt > 0.0:
                self.lo, self.hi = min(self.lo, lo), max(self.hi, hi)
            return lo, hi

        mp.setattr(solver, "step", counted)
        mp.setattr(SolverContext, "active_window", window)


def _traced(go, whole: bool):
    with pytest.MonkeyPatch.context() as mp:
        trace = _Trace(mp, whole)
        return go(), trace


def _single_runs(cfg: RunConfig):
    """(windowed output, trace), (whole-grid output, trace) of one run."""
    return (_traced(lambda: single_run(cfg), whole=False),
            _traced(lambda: single_run(cfg), whole=True))


def _assert_same_run(cfg: RunConfig, window, whole, K):
    (a, ta), (b, tb) = window, whole
    assert ta.steps == tb.steps
    assert a.report.checks == b.report.checks
    sa, sb = a.snapshots, b.snapshots
    np.testing.assert_array_equal(sa.t, sb.t)
    assert np.max(np.abs(sa.rho - sb.rho)) <= 1e-12
    assert np.max(np.abs(sa.m - sb.m)) <= 1e-12
    g, profile = cfg.build_gas(cfg.eps), cfg.build_profile()
    ra = integrability_window(sa, g, K, profile=profile, eps=cfg.eps)
    rb = integrability_window(sb, g, K, profile=profile, eps=cfg.eps)
    for name in ("rho_gamma_plus_one", "delta_rho_cubed", "rho_u_cubed",
                 "rho_gamma_theta", "eps_rho_cubed_area"):
        assert getattr(ra, name) == pytest.approx(getattr(rb, name),
                                                  rel=1e-10, abs=0.0)
    n = a.field.grid.n_nodes
    assert b.report.cells_advanced == n * tb.steps
    # the window path really froze part of the grid
    assert a.report.cells_advanced < n * ta.steps


@pytest.fixture(scope="module")
def ladder_rung():
    cfg = _ladder_config(eps=0.0125)
    return cfg, _single_runs(cfg)


def test_window_matches_whole_grid_on_a_ladder_rung(ladder_rung):
    cfg, (window, whole) = ladder_rung
    _assert_same_run(cfg, window, whole, (-1.0, 1.0))


def test_window_matches_whole_grid_on_a_bump_duct_at_rest_far_out():
    cfg = _bump_duct_config(u_minus=0.0)
    _assert_same_run(cfg, *_single_runs(cfg), (-1.0, 1.0))


def test_window_matches_whole_grid_on_neumann_spherical():
    cfg = _sphere_config()
    _assert_same_run(cfg, *_single_runs(cfg), (0.5, 4.0))


def test_ladder_rung_exterior_stays_exact_far_state(ladder_rung):
    cfg, ((out, trace), (whole, _)) = ladder_rung
    f = out.field
    lo, hi = trace.lo, trace.hi
    assert 0 < lo < hi < f.grid.n_nodes
    # nodes no step ever advanced hold the far states bit for bit
    assert np.all(f.rho[:lo] == cfg.rho_minus)
    assert np.all(f.m[:lo] == cfg.rho_minus * cfg.u_minus)
    assert np.all(f.rho[hi:] == cfg.rho_plus)
    assert np.all(f.m[hi:] == 0.0)
    tiny = np.finfo(float).tiny
    assert not np.any((f.m != 0.0) & (np.abs(f.m) < tiny))
    assert not np.any((f.rho != 0.0) & (np.abs(f.rho) < tiny))


def test_ladder_rung_advances_few_cells(ladder_rung):
    # roundoff inside the window must not creep it out to the whole grid
    _, ((out, trace), _) = ladder_rung
    total = out.field.grid.n_nodes * trace.steps
    assert out.report.cells_advanced <= 0.05 * total


def test_fallback_to_whole_grid_for_time_dependent_boundary_values():
    g = GasLaw(2.0, delta=1e-4)
    profile = GaussianBumpProfile()
    grid = Grid(-6.0, 6.0, 384)
    x = grid.x
    rho0 = 1.0 + 0.5 * np.exp(-4.0 * x * x)
    field = FluidField(grid, rho0, np.zeros_like(x))
    bc = BoundarySpec.dirichlet_nozzle(lambda t: 1.0, lambda t: 0.0,
                                       lambda t: 1.0, lambda t: 0.0)
    assert SolverContext(grid, g, profile, 0.05, bc).far_states == (None, None)
    (a, ta), (b, tb) = (_traced(lambda: run(field, g, profile, 0.05, bc, 0.3),
                                whole=flag) for flag in (False, True))
    assert ta.steps == tb.steps
    np.testing.assert_array_equal(a[0].rho, b[0].rho)
    np.testing.assert_array_equal(a[0].m, b[0].m)
    assert a[1].cells_advanced == grid.n_nodes * ta.steps


def _forced_cases():
    """(field, profile, g, eps, bc, forcing, dt) of two forced runs."""
    g = GasLaw(2.0, delta=0.01)
    eps = 0.05
    profile = GaussianBumpProfile()
    grid = Grid(-2.0, 2.0, 100)
    rho0, m0 = manufactured_state(grid.x, 0.0)
    # the manufactured solution, with its time-dependent boundary values
    bc = BoundarySpec.dirichlet_nozzle(
        lambda t: manufactured_state(grid.a, t)[0],
        lambda t: manufactured_state(grid.a, t)[1],
        lambda t: manufactured_state(grid.b, t)[0],
        lambda t: manufactured_state(grid.b, t)[1])
    yield (FluidField(grid, rho0, m0), profile, g, eps, bc,
           manufactured_forcing(profile, g, eps), 2.0 * grid.dx ** 2)
    # a bump at rest in a steady far state, with a source that reaches the
    # ends: only the forcing keeps the exterior from being frozen
    grid = Grid(-6.0, 6.0, 384)
    x = grid.x
    bump = FluidField(grid, 1.0 + 0.5 * np.exp(-4.0 * x * x), np.zeros_like(x))
    bc = BoundarySpec.dirichlet_nozzle(1.0, 0.0, 1.0, 0.0)

    def source(x, t):
        return 0.1 * np.exp(-x * x / 16.0), np.zeros_like(x)

    yield bump, profile, g, eps, bc, source, None


def test_fallback_to_whole_grid_for_forcing():
    for field, profile, g, eps, bc, forcing, dt in _forced_cases():
        def go():
            return run(field, g, profile, eps, bc, 0.02, dt_fixed=dt,
                       forcing=forcing)

        (a, ta), (b, tb) = (_traced(go, whole=flag) for flag in (False, True))
        assert ta.steps == tb.steps
        np.testing.assert_array_equal(a[0].rho, b[0].rho)
        np.testing.assert_array_equal(a[0].m, b[0].m)
        assert a[1].cells_advanced == field.grid.n_nodes * ta.steps


def test_fallback_for_a_far_state_that_is_not_steady():
    # inflow through the bump: the left far state (1, 0.2) is no discrete
    # steady state where A' != 0, so the left end stays active
    cfg = _bump_duct_config(u_minus=0.2)
    window, whole = _single_runs(cfg)
    _assert_same_run(cfg, window, whole, (-1.0, 1.0))
    assert window[1].lo == 0
    eps = cfg.eps
    ctx = SolverContext(Grid(-4.0, 4.0, 64), cfg.build_gas(eps),
                        cfg.build_profile(), eps, cfg.build_bc(eps))
    left, right = ctx.far_states
    assert left is None and right == (0.125, 0.0)


def test_report_counts_cells_advanced(tmp_path, ladder_rung):
    _, ((out, _), _) = ladder_rung
    path = tmp_path / "report.csv"
    out.report.to_csv(path)
    assert f"# cells_advanced={out.report.cells_advanced}\n" in \
        path.read_text()
