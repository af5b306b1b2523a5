"""Active-window stepping against whole-grid stepping.

A step advances only the nodes off their end's far state plus a stencil and
a diffusive margin.  Each case runs twice: as the solver runs it, and with
the far-state scan replaced by one that finds no node at rest, so every
step advances the whole grid (the plain path).  Both must give the same
run within roundoff.  The monitors evaluate only the hull of those windows;
each recorded case also runs with the monitors' node range forced to the
whole grid, and both must record the same series.
"""

import numpy as np
import pytest

from helpers import (assert_same_checks, assert_same_series,
                     manufactured_forcing, manufactured_state,
                     whole_field_monitors)
from nozzleflow import harness, solver
from nozzleflow.diagnostics import (Recorder, RecorderOptions,
                                    energy_budget, integrability_window,
                                    llf_dissipation_rate, riemann_monitor,
                                    vacuum_functional)
from nozzleflow.entropy import ReferenceState, quartic_entropy
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
    """Step count, the union of the stepped windows and the prepared
    starting field (of a ``single_run``) of one run."""

    def __init__(self, mp, whole: bool):
        self.steps = 0
        self.lo, self.hi = np.inf, -np.inf
        self.start = None
        advance = solver.advance
        prepare = harness.prepare_initial_data

        def prepared(*args):
            self.start = prepare(*args)
            return self.start

        def counted(*args, **kwargs):
            (lo, hi), = moved = advance(*args, **kwargs)  # one rung
            self.steps += 1
            self.lo, self.hi = min(self.lo, lo), max(self.hi, hi)
            return moved

        def no_rest(ctx, rho, m, span):
            return 0, ctx.grid.n_nodes

        mp.setattr(solver, "advance", counted)
        if whole:
            mp.setattr(SolverContext, "_rest_ends", no_rest)
        mp.setattr(harness, "prepare_initial_data", prepared)


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
    assert_same_checks(a.report.checks, b.report.checks, atol=1e-12)
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
    f = out.field.whole()
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


def test_span_scan_matches_the_whole_grid_scan():
    # fields that rest on the left far state below a and on the right one
    # from b on, scanned on every span that holds [a, b); a span resting
    # wholly on one far state must fall back to the whole grid
    g = GasLaw(2.0, delta=1e-3)
    grid = Grid(-4.0, 4.0, 64)
    n = grid.n_nodes
    ctx = SolverContext(grid, g, GaussianBumpProfile(), 0.05,
                        BoundarySpec.dirichlet_nozzle(1.0, 0.0, 0.125, 0.0))
    rng = np.random.default_rng(7)
    for a, b in ((40, 40), (30, 34), (0, 12), (50, n), (20, 21)):
        rho = np.where(np.arange(n) < b, 1.0, 0.125)
        rho[a:b] = rng.choice([1.0, 0.125, 0.6], b - a)
        m = np.zeros(n)
        whole = ctx._rest_ends(rho, m, None)
        for lo in {*range(0, a, 3), a}:
            for hi in {*range(max(b, lo + 1), n, 3), max(b, lo + 1), n}:
                assert ctx._rest_ends(rho, m, (lo, hi)) == whole, (a, b, lo, hi)


def test_report_counts_cells_advanced(tmp_path, ladder_rung):
    _, ((out, _), _) = ladder_rung
    path = tmp_path / "report.csv"
    out.report.to_csv(path)
    assert f"# cells_advanced={out.report.cells_advanced}\n" in \
        path.read_text()


# ---------------------------------------------------------------------------
# The hull: nodes outside it never moved, and the monitors skip them
# ---------------------------------------------------------------------------


def _assert_frozen_outside_hull(window_run):
    out, trace = window_run
    lo, hi = out.report.hull
    # the hull is the union of the windows the steps advanced, short of
    # the whole grid
    assert (lo, hi) == (trace.lo, trace.hi)
    assert hi - lo < out.field.grid.n_nodes
    start, end = trace.start.whole(), out.field.whole()
    for now, then in ((end.rho, start.rho), (end.m, start.m)):
        assert np.array_equal(now[:lo], then[:lo])
        assert np.array_equal(now[hi:], then[hi:])
    return lo, hi


def test_nodes_outside_the_hull_keep_their_start_values(ladder_rung):
    _, (window, _) = ladder_rung
    lo, hi = _assert_frozen_outside_hull(window)
    assert 0 < lo < hi < window[0].field.grid.n_nodes


def test_hull_of_neumann_spherical_and_of_an_active_left_end():
    for cfg in (_sphere_config(), _bump_duct_config(u_minus=0.2)):
        lo, _ = _assert_frozen_outside_hull(
            _traced(lambda: single_run(cfg), whole=False))
    assert lo == 0  # the bump duct's inflow end stays active


def test_report_gives_the_hull(tmp_path, ladder_rung):
    _, ((out, _), _) = ladder_rung
    lo, hi = out.report.hull
    path = tmp_path / "report.csv"
    out.report.to_csv(path)
    assert (f"# cells_advanced={out.report.cells_advanced}\n"
            f"# hull={lo},{hi}\n") in path.read_text()


def _hull_and_whole_reports(go):
    with pytest.MonkeyPatch.context() as mp:
        whole_field_monitors(mp)
        whole = go()
    return go(), whole


def test_hull_monitors_match_whole_field_monitors():
    # a Gaussian-bump duct with delta > 0 and the Riemann monitor, and a
    # neumann_spherical run with the quartic monitor
    for cfg, extra in ((_bump_duct_config(u_minus=0.0), "max_w"),
                       (_sphere_config(), "quartic")):
        hull, whole = _hull_and_whole_reports(lambda: single_run(cfg))
        lo, hi = hull.report.hull
        assert hi - lo < hull.field.grid.n_nodes
        assert extra in hull.report.series
        assert_same_series(hull.report, whole.report)


def test_forced_run_monitors_are_bit_identical():
    # forcing steps the whole grid, so the hull is the whole grid
    for field, profile, g, eps, bc, forcing, dt in _forced_cases():
        def go():
            rec = Recorder(0.02, ref=ReferenceState.constant(1.0),
                           options=RecorderOptions(sample_count=5,
                                                   quartic=True))
            return run(field, g, profile, eps, bc, 0.02, hooks=rec,
                       dt_fixed=dt, forcing=forcing)[1]

        hull, whole = _hull_and_whole_reports(go)
        assert hull.hull == (0, field.grid.n_nodes)
        assert_same_checks(hull.checks, whole.checks)
        for name, vals in hull.series.items():
            np.testing.assert_array_equal(vals, whole.series[name], name)


def test_hull_monitors_see_every_item_a_moved_node_touches():
    # a field moved on exactly the nodes [lo, hi) of the hull, by O(1):
    # every monitor item whose stencil reaches a moved node must be
    # evaluated again, so a pad one node too small shows at once
    g = GasLaw(2.0, delta=1e-3)
    grid = Grid(-4.0, 4.0, 64)
    x = grid.x
    bc = BoundarySpec.dirichlet_nozzle(1.0, 0.3, 0.5, 0.0)
    ctx = SolverContext(grid, g, GaussianBumpProfile(), 0.05, bc)
    ref = ReferenceState(1.0, 0.3, 0.5, 0.0)
    rng = np.random.default_rng(3)
    start = FluidField(grid, 1.0 + 0.2 * np.cos(x), 0.3 * np.sin(x))
    rec = Recorder(1.0, ref=ref, options=RecorderOptions(
        sample_count=3, quartic=True, collect_snapshots=False))
    rec.sample(start, ctx)
    rho_tilde = float(np.min(start.rho))
    lo, hi = 20, 41
    ctx.hull = (lo, hi)
    moved = start.copy()
    moved.rho[lo:hi] += rng.uniform(-0.4, 0.5, hi - lo)  # some below rho_tilde
    moved.m[lo:hi] += rng.uniform(-0.5, 0.5, hi - lo)
    # and a field that also moved a node outside the hull: the recorder
    # must notice and evaluate the whole grid
    stray = moved.copy()
    stray.rho[5] += 0.25
    moved.t, stray.t = 0.5, 1.0
    rec.sample(moved, ctx)
    rec.sample(stray, ctx)
    rep = rec.finalize()
    for i, f in ((1, moved), (2, stray)):
        E, comp = energy_budget(ctx, f, ref)
        w, z, _ = riemann_monitor(ctx, f)
        eta = quartic_entropy(g, f.rho, f.m)
        expect = dict(energy=E, diss_rate_hessian=comp["rate_hessian"],
                      diss_rate_geometric=comp["rate_geometric"],
                      llf_rate=llf_dissipation_rate(ctx, f), max_w=w,
                      min_z=z, vacuum_phi=vacuum_functional(f, rho_tilde),
                      quartic=float(np.trapezoid(eta * ctx.A, x)))
        for name, val in expect.items():
            assert rep.series[name][i] == pytest.approx(val, rel=1e-12,
                                                        abs=0.0), (i, name)
