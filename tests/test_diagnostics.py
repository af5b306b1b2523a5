import numpy as np
import pytest

from helpers import assert_same_series, single_shock_states
from nozzleflow import diagnostics, harness
from nozzleflow.diagnostics import (Recorder, RecorderOptions, SnapshotSet,
                                    SpaceTimeBump, default_generator_family,
                                    default_test_functions, energy_budget,
                                    integrability_window, riemann_monitor,
                                    vacuum_functional, weak_residual)
from nozzleflow.entropy import (ReferenceState, gen_half_square, gen_linear,
                                weight_moment)
from nozzleflow.errors import CavitationError, ConfigError
from nozzleflow.geometry import ConstantProfile, GaussianBumpProfile
from nozzleflow.harness import RunConfig, single_run
from nozzleflow.solver import (BoundarySpec, FluidField, Grid, InitialData,
                               SolverContext, prepare_initial_data, run)
from nozzleflow.thermo import GasLaw
from plain_recorder import PlainRecorder


_AT_REST = BoundarySpec.dirichlet_nozzle(1.0, 0.0, 1.0, 0.0)


def _constant_field(grid, rho_bar, m_bar=0.0):
    n = grid.n_nodes
    return FluidField(grid, np.full(n, rho_bar), np.full(n, m_bar))


def _constant_snapshots(rho_bar, m_bar, K=(-2.0, 2.0), T=1.0, nt=9, nx=65):
    t = np.linspace(0.0, T, nt)
    x = np.linspace(K[0], K[1], nx)
    return SnapshotSet(t, x, np.full((nt, nx), rho_bar), np.full((nt, nx), m_bar))


# ---------------------------------------------------------------------------
# energy budget
# ---------------------------------------------------------------------------


def test_energy_budget_vanishes_at_reference():
    g = GasLaw(2.0, delta=0.0)
    ref = ReferenceState.constant(1.0, 0.0)
    grid = Grid(-2.0, 2.0, 64)
    ctx = SolverContext(grid, g, ConstantProfile(), 0.05, _AT_REST)
    E, comp = energy_budget(ctx, _constant_field(grid, 1.0), ref)
    assert E == pytest.approx(0.0, abs=1e-14)
    assert comp["rate_total"] == pytest.approx(0.0, abs=1e-14)


def test_energy_budget_single_node_contribution():
    # one interior node at (2, 0) against reference (1, 0) adds 0.125 dx
    g = GasLaw(2.0, delta=0.0)
    ref = ReferenceState.constant(1.0, 0.0)
    grid = Grid(-2.0, 2.0, 64)
    f = _constant_field(grid, 1.0)
    f.rho[30] = 2.0
    ctx = SolverContext(grid, g, ConstantProfile(), 0.05, _AT_REST)
    E, _ = energy_budget(ctx, f, ref)
    assert E == pytest.approx(0.125 * grid.dx, rel=1e-12)


def test_vacuum_functional_values():
    grid = Grid(0.0, 1.0, 10)
    f = _constant_field(grid, 0.5)
    assert vacuum_functional(f, 0.5) == pytest.approx(0.0)
    # single interior node at rho_tilde / 2 contributes dx / (2 rho_tilde)
    f.rho[4] = 0.25
    assert vacuum_functional(f, 0.5) == pytest.approx(grid.dx / (2 * 0.5) , rel=1e-12)
    with pytest.raises(ConfigError):
        vacuum_functional(f, 0.0)
    rho = np.linspace(0.05, 1.0, 40)
    phi = np.where(rho < 0.5, 1 / rho - 2.0 + (rho - 0.5) / 0.25, 0.0)
    assert np.all(phi >= 0.0)
    assert np.all(np.diff(phi, 2)[rho[1:-1] < 0.45] >= -1e-12)  # convex branch


@pytest.mark.parametrize("rho_tilde", [0.5, 0.9])
def test_vacuum_functional_adds_the_end_states_below_rho_tilde(rho_tilde):
    # a field on the nodes [12, 20) of 33 with end states 0.2 and 0.8: each
    # end below rho_tilde adds its phi times the length past the nodes,
    # which whole-field evaluation sums node by node
    grid = Grid(0.0, 1.0, 32)
    field = FluidField(grid, np.linspace(0.2, 0.8, 8), np.zeros(8), 0.0, 12,
                       ((0.2, 0.0), (0.8, 0.0)))
    value = vacuum_functional(field, rho_tilde)
    assert value == pytest.approx(vacuum_functional(field.whole(), rho_tilde),
                                  rel=1e-13)
    # the left end's term alone: phi(0.2) past node 11
    assert value > 11.0 / 32.0 * (1.0 / 0.2 - 1.0 / rho_tilde
                                  + (0.2 - rho_tilde) / rho_tilde ** 2)


def test_riemann_monitor_constant_state():
    g = GasLaw(2.0, delta=1e-3)
    grid = Grid(-2.0, 2.0, 32)
    ctx = SolverContext(grid, g, ConstantProfile(), 0.05, _AT_REST)
    opts = RecorderOptions(collect_snapshots=False)
    rec = Recorder(0.2, options=opts)
    for t in (0.0, 0.1, 0.2):
        f = _constant_field(grid, 1.0)
        f.t = t
        rec.sample(f, ctx)
    rep = rec.finalize()
    assert np.ptp(rep.max_w) < 1e-12
    assert rep.correction[-1] == 0.0  # A'/A = 0 kills the integrand
    f = _constant_field(grid, 1.0)
    f.rho[3] = 0.0
    with pytest.raises(CavitationError):
        riemann_monitor(ctx, f)


# the benchmark's two densely monitored runs (gamma 2, delta > 0), shortened:
# a bump duct with the Riemann monitor, a collapsing sphere with the quartic
MONITOR_CONFIGS = {
    "duct": dict(gamma=2.0, profile="gaussian_bump", bc="dirichlet_nozzle",
                 rho_minus=1.0, rho_plus=0.125, u_minus=0.0, u_plus=0.0,
                 init="riemann", blend_width=1.0, t_end=0.2, dx=1.0 / 128.0,
                 snapshots=9, eps=0.2, delta=1e-4, riemann_tol=1e-3,
                 check_energy=True, check_riemann=True),
    "sphere": dict(gamma=2.0, profile="spherical", profile_n=3,
                   bc="neumann_spherical", init="bump", init_amp=1.0,
                   init_center=2.0, init_width=1.0, mollify_width=0.0,
                   blend_width=0.5, t_end=0.1, dx=(1.0 / 0.05 - 0.05) / 64,
                   snapshots=9, eps=0.05, window_lo=0.5, window_hi=4.0,
                   check_energy=True, check_riemann=True, check_quartic=True),
}


@pytest.mark.parametrize("name", sorted(MONITOR_CONFIGS))
def test_monitors_agree_on_the_table_and_closed_form_paths(name, monkeypatch):
    # gamma 2 takes R in closed form; forced through the wave table, the
    # invariants agree to rounding and every other series to the bit.  Each
    # flush's vacuum functionals, one per sample of its stack, are also
    # taken from the stacked field without the row block
    cfg = RunConfig(**MONITOR_CONFIGS[name])
    vacuum = diagnostics.vacuum_functional

    def both(field, rho_tilde, block=None):
        value = vacuum(field, rho_tilde, block)
        assert block is not None and value.shape == field.t.shape
        assert value.tobytes() == vacuum(field, rho_tilde).tobytes()
        return value

    monkeypatch.setattr(diagnostics, "vacuum_functional", both)
    closed = single_run(cfg, collect_snapshots=False).report
    monkeypatch.setattr(GasLaw, "_riemann_R", GasLaw._table_R)
    table = single_run(cfg, collect_snapshots=False).report
    assert {k: bool(v) for k, v in closed.checks.items()} \
        == {k: bool(v) for k, v in table.checks.items()}
    assert closed.series.keys() == table.series.keys()
    for key, series in closed.series.items():
        if key in ("max_w", "min_z"):
            np.testing.assert_allclose(series, table.series[key], rtol=1e-14, atol=0.0)
        else:
            np.testing.assert_array_equal(series, table.series[key])


@pytest.mark.parametrize("name", sorted(MONITOR_CONFIGS))
def test_stacked_monitors_match_per_sample_evaluation(name, monkeypatch):
    # the Recorder evaluates its samples a stack at a time; the per-sample
    # Recorder of plain_recorder.py evaluates each as it is taken
    cfg = RunConfig(**MONITOR_CONFIGS[name])
    flushes = []
    flush = Recorder._flush
    monkeypatch.setattr(Recorder, "_flush", lambda rec: (
        flushes.append(len(rec._pending)), flush(rec))[1])
    stacked = single_run(cfg)
    assert 1 < max(flushes) and sum(flushes) == cfg.snapshots
    monkeypatch.setattr(harness, "Recorder", PlainRecorder)
    plain = single_run(cfg)
    assert stacked.field.rho.tobytes() == plain.field.rho.tobytes()
    for key in ("rho", "m"):
        assert getattr(stacked.snapshots, key).tobytes() == \
            getattr(plain.snapshots, key).tobytes()
    assert_same_series(stacked.report, plain.report)


def test_a_stack_across_a_growth_and_new_end_states_matches_per_sample():
    # a bump duct whose flow spreads to both domain ends: the first stack
    # holds samples from before and after the stored range grows, and each
    # change of the end states flushes the pending samples first
    g, prof = GasLaw(2.0, delta=1e-4), GaussianBumpProfile()
    bc = BoundarySpec.dirichlet_nozzle(1.0, 0.0, 0.5, 0.0)
    grid = Grid(-6.0, 6.0, 192)
    field = prepare_initial_data(
        InitialData(lambda x: np.where(x < 0, 1.0, 0.5),
                    lambda x: np.zeros_like(x), 0.0, 0.5), bc, g, prof, grid)
    ref = ReferenceState(1.0, 0.0, 0.5, 0.0)

    class Logged(Recorder):
        def sample(self, field, ctx):
            super().sample(field, ctx)
            log.append((len(self._pending), field.ends, (ctx.lo, ctx.hi)))

    log, reports = [], []
    for cls in (Logged, PlainRecorder):
        rec = cls(2.5, ref=ref, options=RecorderOptions(sample_count=21,
                                                        quartic=True))
        reports.append(run(field, g, prof, 0.05, bc, 2.5, hooks=rec)[1])
    stacks = [k for k, (pending, _, _) in enumerate(log) if pending == 1]
    assert len(stacks) == 3   # one per end states: far, left None, none
    assert len({ends for _, ends, _ in log}) == 3
    first = {stored for _, _, stored in log[:stacks[1]]}
    assert len(first) > 1     # the first stack spans a growth
    assert_same_series(*reports)


def test_a_sample_is_copied_when_it_is_taken():
    # the monitors run after the sample: rho, m and t mutated in the
    # sampled field afterwards leave the report unchanged
    g = GasLaw(2.0, delta=1e-4)
    grid = Grid(-2.0, 2.0, 64)
    ctx = SolverContext(grid, g, ConstantProfile(), 0.05, _AT_REST)
    reports = []
    for mutate in (False, True):
        rec = Recorder(0.1, ref=ReferenceState.constant(1.0, 0.0),
                       options=RecorderOptions(sample_count=3))
        for k, t in enumerate((0.0, 0.05, 0.1)):
            f = _constant_field(grid, 1.0)
            f.rho[20 + k] = 1.5
            f.m[30] = 0.1 * k
            f.t = t
            rec.sample(f, ctx)
            if mutate:
                f.rho[:], f.m[:], f.t = 0.5, 0.3, 7.0
        reports.append(rec.finalize())
    assert reports[0].series.keys() == reports[1].series.keys()
    for name, series in reports[0].series.items():
        assert series.tobytes() == reports[1].series[name].tobytes(), name
    assert reports[0].snapshots.rho.tobytes() == \
        reports[1].snapshots.rho.tobytes()


def test_riemann_monitor_correction_positive_on_bump():
    g = GasLaw(2.0, delta=1e-3)
    grid = Grid(-2.0, 2.0, 32)
    f = _constant_field(grid, 1.0, m_bar=0.5)
    ctx = SolverContext(grid, g, GaussianBumpProfile(), 0.05, _AT_REST)
    _, _, rate = riemann_monitor(ctx, f)
    assert rate > 0.0


# ---------------------------------------------------------------------------
# integrability windows
# ---------------------------------------------------------------------------


def test_integrability_constant_state():
    g = GasLaw(2.0, delta=0.2)
    rho_bar = 0.8
    snap = _constant_snapshots(rho_bar, 0.0, T=1.0)
    rec = integrability_window(snap, g, (-1.0, 1.0), ConstantProfile(), 0.1)
    assert rec.rho_gamma_plus_one == pytest.approx(2.0 * rho_bar ** 3.0, rel=1e-12)
    assert rec.delta_rho_cubed == pytest.approx(2.0 * 0.2 * rho_bar ** 3, rel=1e-12)
    assert rec.rho_u_cubed == pytest.approx(0.0, abs=1e-15)
    assert rec.rho_gamma_theta == pytest.approx(2.0 * rho_bar ** 2.5, rel=1e-12)


def test_integrability_vacuum_adjacent():
    g = GasLaw(2.0)
    snap = _constant_snapshots(1e-12, 0.0)
    rec = integrability_window(snap, g, (-1.0, 1.0), ConstantProfile(), 0.1)
    assert rec.density_total < 1e-23
    assert rec.velocity_total < 1e-17


def test_integrability_window_validation():
    g = GasLaw(2.0)
    snap = _constant_snapshots(1.0, 0.0, K=(-1.0, 1.0))
    with pytest.raises(ConfigError):
        integrability_window(snap, g, (-3.0, 1.0), ConstantProfile(), 0.1)


def test_snapshots_cover_a_window_between_nodes():
    # the fewest nodes that cover K: one node past each end that is no node
    g = GasLaw(2.0)
    grid = Grid(-3.0, 3.0, 60)
    opts = RecorderOptions(sample_count=4, snapshot_window=(-0.75, 0.25),
                           riemann=False)
    rec = Recorder(0.1, options=opts)
    field = FluidField(grid, np.ones(61), np.zeros(61))
    _, rep = run(field, g, ConstantProfile(), 0.1, _AT_REST, 0.1, hooks=rec)
    np.testing.assert_allclose(rep.snapshots.x[[0, -1]], [-0.8, 0.3])
    integrability_window(rep.snapshots, g, (-0.75, 0.25), ConstantProfile(),
                         0.1)


def test_snapshots_keep_window_end_nodes_that_round_past_it():
    # on this grid the node at 0.3 is 0.30000000000000027: the stored range
    # must allow the 1e-12 its consumers allow, or K loses its end node
    g = GasLaw(2.0)
    prof = ConstantProfile()
    grid = Grid(-3.0, 3.0, 60)
    K = (-0.7, 0.3)
    assert grid.x[33] > K[1]
    opts = RecorderOptions(sample_count=9, snapshot_window=K, riemann=False)
    rec = Recorder(0.2, options=opts)
    field = FluidField(grid, 1.0 + 0.1 * np.exp(-grid.x ** 2), np.zeros(61))
    _, rep = run(field, g, prof, 0.1, _AT_REST, 0.2, hooks=rec)
    x = rep.snapshots.x
    assert abs(x[0] - K[0]) < 1e-12 and abs(x[-1] - K[1]) < 1e-12
    assert x.size == 11
    integrability_window(rep.snapshots, g, K, prof, 0.1)
    tests = default_test_functions(0.02, 0.18, K, nt=2, nx=2)
    weak = weak_residual(rep.snapshots, g, prof, tests, [gen_half_square()])
    assert np.all(np.isfinite(weak.entropy))


# ---------------------------------------------------------------------------
# weak residuals
# ---------------------------------------------------------------------------


def test_weak_residual_constant_state_all_zero():
    # constant states solve the limit system exactly; the residual is pure
    # quadrature noise, which decays superalgebraically with the sampling
    g = GasLaw(2.0)
    tests = default_test_functions(0.05, 0.95, (-1.5, 1.5), nt=2, nx=3)
    gens = default_generator_family()

    def worst(nt, nx):
        snap = _constant_snapshots(0.7, 0.21, K=(-2.0, 2.0), T=1.0, nt=nt, nx=nx)
        rec = weak_residual(snap, g, ConstantProfile(), tests, gens)
        return max(np.max(np.abs(rec.mass)), np.max(np.abs(rec.momentum)),
                   np.max(np.abs(rec.entropy))) / np.max(rec.norms)

    coarse = worst(33, 129)
    fine = worst(257, 257)
    assert fine < 1e-7
    assert fine < 1e-3 * coarse


def test_weak_residual_rejects_nonconvex_generator():
    from nozzleflow.entropy import gen_half_signed_square
    g = GasLaw(2.0)
    snap = _constant_snapshots(1.0, 0.0)
    tests = default_test_functions(0.1, 0.9, (-1.0, 1.0), nt=1, nx=1)
    with pytest.raises(ConfigError):
        weak_residual(snap, g, ConstantProfile(), tests,
                      [gen_half_signed_square(0.0)])


def test_weak_residual_support_validation():
    g = GasLaw(2.0)
    snap = _constant_snapshots(1.0, 0.0, K=(-1.0, 1.0), T=0.5)
    bad = [SpaceTimeBump(t0=0.25, rt=0.3, x0=0.0, rx=0.5)]
    with pytest.raises(ConfigError):
        weak_residual(snap, g, ConstantProfile(), bad, [gen_half_square()])


def _shock_snapshots():
    g = GasLaw(2.0, delta=1e-4)
    prof = ConstantProfile()
    rm, um, rp, up = single_shock_states(2.0)
    bc = BoundarySpec.dirichlet_nozzle(rm, rm * um, rp, rp * up)
    grid = Grid(-6.0, 6.0, 512)
    raw = InitialData(lambda x: np.where(x < 0, rm, rp),
                      lambda x: np.where(x < 0, rm * um, rp * up),
                      mollify_width=0.02, blend_width=0.5)
    field = prepare_initial_data(raw, bc, g, prof, grid)
    opts = RecorderOptions(sample_count=65, snapshot_window=(-2.0, 2.0),
                           riemann=False)
    rec = Recorder(0.5, options=opts)
    _, rep = run(field, g, prof, 0.025, bc, 0.5, hooks=rec)
    return rep.snapshots, g


def test_linear_generator_reduces_to_momentum_form():
    snap, g = _shock_snapshots()
    tests = default_test_functions(0.02, 0.48, (-1.5, 1.5), nt=2, nx=4)
    rec = weak_residual(snap, g, ConstantProfile(), tests, [gen_linear()])
    c = weight_moment(g.lambda_exp, 0)
    lhs = rec.entropy[0]
    rhs = -c * rec.momentum
    scale = np.max(np.abs(rhs)) + np.max(rec.norms) * 1e-16
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * scale


def test_half_square_pairing_matches_scaled_mechanical_form():
    # for psi = s^2/2 the kernel pairing is c_lam times the mechanical-energy
    # pairing built from the closed-form pair
    from nozzleflow.entropy import mechanical_energy
    snap, g = _shock_snapshots()
    tests = default_test_functions(0.02, 0.48, (-1.5, 1.5), nt=2, nx=4)
    rec = weak_residual(snap, g, ConstantProfile(), tests, [gen_half_square()])
    c = weight_moment(g.lambda_exp, 0)
    eta_s, q_s = mechanical_energy(g, snap.rho, snap.m)
    t, x = snap.t, snap.x
    for j, tf in enumerate(tests):
        bt, dbt, bx, dbx = tf.factors(t, x)
        phi_t, phi_x = np.outer(dbt, bx), np.outer(bt, dbx)
        direct = -np.trapezoid(np.trapezoid(eta_s * phi_t + q_s * phi_x,
                                            x, axis=1), t)
        assert rec.entropy[0][j] == pytest.approx(c * direct,
                                                  rel=1e-10, abs=1e-14)


def test_mass_residual_refinement_order():
    # against a fixed test function the mass defect is the viscous flux
    # pairing and decays at first order under simultaneous (eps, dx) halving
    g0 = GasLaw(2.0)
    prof = ConstantProfile()
    rm, um, rp, up = single_shock_states(2.0)
    phi = SpaceTimeBump(t0=0.25, rt=0.22, x0=0.2, rx=0.7)
    vals = []
    for eps, n in [(0.1, 64 * 12), (0.05, 128 * 12), (0.025, 256 * 12)]:
        g = GasLaw(2.0, delta=eps ** 5)
        bc = BoundarySpec.dirichlet_nozzle(rm, rm * um, rp, rp * up)
        grid = Grid(-6.0, 6.0, n)
        raw = InitialData(lambda x: np.where(x < 0, rm, rp),
                          lambda x: np.where(x < 0, rm * um, rp * up),
                          mollify_width=0.02, blend_width=0.5)
        field = prepare_initial_data(raw, bc, g, prof, grid)
        opts = RecorderOptions(sample_count=97, snapshot_window=(-2.0, 2.0),
                               riemann=False)
        rec = Recorder(0.5, options=opts)
        _, rep = run(field, g, prof, eps, bc, 0.5, hooks=rec)
        wk = weak_residual(rep.snapshots, g, prof, [phi], [gen_half_square()])
        vals.append(abs(float(wk.mass[0])))
    orders = np.log2(np.array(vals[:-1]) / np.array(vals[1:]))
    assert np.all(orders >= 1.0), orders


# ---------------------------------------------------------------------------
# recorder plumbing
# ---------------------------------------------------------------------------


def test_recorder_full_run_checks():
    g = GasLaw(2.0, delta=1e-4)
    prof = ConstantProfile()
    rm, um, rp, up = single_shock_states(2.0)
    ref = ReferenceState(rm, um, rp, up)
    bc = BoundarySpec.dirichlet_nozzle(rm, rm * um, rp, rp * up)
    grid = Grid(-6.0, 6.0, 256)
    raw = InitialData(lambda x: np.where(x < 0, rm, rp),
                      lambda x: np.where(x < 0, rm * um, rp * up),
                      mollify_width=0.0, blend_width=0.5)
    field = prepare_initial_data(raw, bc, g, prof, grid)
    rec = Recorder(0.4, ref=ref, options=RecorderOptions(sample_count=17),
                   label="shock")
    _, rep = run(field, g, prof, 0.05, bc, 0.4, hooks=rec)
    assert len(rep.t) == 17
    assert rep.checks["energy_nonnegative"]
    assert rep.checks["dissipation_monotone"]
    assert rep.checks["energy_inequality"]
    assert np.all(np.diff(rep.dissipation) >= 0.0)
    assert np.all(rep.llf_rate >= -1e-14)
    assert rep.snapshots is not None
    assert rep.snapshots.rho.shape == (17, grid.n_nodes)


def _sequential_trapezoid(t, rates):
    """The running trapezoid integral, one interval added at a time."""
    total, out = 0.0, [0.0]
    for k in range(1, len(t)):
        total += 0.5 * (float(t[k]) - float(t[k - 1])) \
            * (float(rates[k - 1]) + float(rates[k]))
        out.append(total)
    return np.array(out)


@pytest.mark.parametrize("samples", [1, 17])
def test_recorder_integrals_are_sequential_trapezoid_sums(samples):
    g = GasLaw(2.0, delta=1e-4)
    prof = GaussianBumpProfile()
    rm, um, rp, up = single_shock_states(2.0)
    bc = BoundarySpec.dirichlet_nozzle(rm, rm * um, rp, rp * up)
    grid = Grid(-4.0, 4.0, 128)
    field = prepare_initial_data(
        InitialData(lambda x: np.where(x < 0, rm, rp),
                    lambda x: np.where(x < 0, rm * um, rp * up), 0.0, 0.5),
        bc, g, prof, grid)
    rec = Recorder(0.2, ref=ReferenceState(rm, um, rp, up),
                   options=RecorderOptions(sample_count=samples))
    if samples == 1:
        rec.sample(field, SolverContext(grid, g, prof, 0.05, bc))
        rep = rec.finalize()
    else:
        _, rep = run(field, g, prof, 0.05, bc, 0.2, hooks=rec)
    rates = rec._rates
    assert np.array_equal(rates["dissipation"],
                          rep.diss_rate_hessian + rep.diss_rate_geometric)
    assert np.array_equal(rates["llf_cumulative"], rep.llf_rate)
    for name in ("dissipation", "llf_cumulative", "correction"):
        assert len(rates[name]) == samples
        assert getattr(rep, name).tobytes() == \
            _sequential_trapezoid(rep.t, rates[name]).tobytes(), name


def test_energy_budget_gronwall_verdict(monkeypatch):
    # the Recorder's E + D <= M (E0 + 1) check on a fixed bump field: a
    # generous budget passes, a budget below the bump's own energy fails
    g = GasLaw(2.0, delta=0.0)
    ref = ReferenceState.constant(1.0, 0.0)
    grid = Grid(-2.0, 2.0, 64)
    ctx = SolverContext(grid, g, ConstantProfile(), 0.05, _AT_REST)
    f = _constant_field(grid, 1.0)
    f.rho[20] = 2.0
    verdicts = {}
    for M in (10.0, 1e-3):
        monkeypatch.setattr(diagnostics, "GRONWALL_M", M)
        opts = RecorderOptions(riemann=False, collect_snapshots=False)
        rec = Recorder(0.1, ref=ref, options=opts)
        for t in (0.0, 0.05, 0.1):
            f.t = t
            rec.sample(f, ctx)
        rep = rec.finalize()
        assert rep.energy[0] > 0.0
        assert "energy_inequality_sharp" not in rep.checks
        verdicts[M] = bool(rep.checks["energy_inequality"])
    assert verdicts == {10.0: True, 1e-3: False}
    # a spherical Dirichlet run checks the sharp form E + D <= E0 (1 + tol):
    # a real bump cannot fit the near-zero budget of a run that started at
    # the reference state
    opts = RecorderOptions(riemann=False, collect_snapshots=False)
    ctx = SolverContext(grid, g, ConstantProfile(), 0.05,
                        BoundarySpec.dirichlet_spherical(1.0))
    rec = Recorder(0.1, ref=ref, options=opts)
    rec.sample(_constant_field(grid, 1.0), ctx)
    f.t = 0.1
    rec.sample(f, ctx)
    assert not rec.finalize().checks["energy_inequality_sharp"]


def test_quartic_energy_nonincreasing_neumann_collapse():
    # axis-end mode: the quartic-generator energy must not grow (within 1e-3
    # of its initial value) while a bump collapses inward
    from nozzleflow.geometry import SphericalProfile
    g = GasLaw(2.0, delta=1e-4)
    prof = SphericalProfile(n_dim=3)
    grid = Grid(0.2, 8.2, 400)
    bc = BoundarySpec.neumann_spherical(0.05)
    x = grid.x
    s = (x - 2.0) / 1.0
    rho = 0.05 + 0.8 * np.where(np.abs(s) < 1,
                                np.exp(1.0 - 1.0 / np.maximum(1 - s * s, 1e-12)),
                                0.0)
    f = FluidField(grid, rho, np.zeros_like(x))
    opts = RecorderOptions(sample_count=17, quartic=True, riemann=False,
                           collect_snapshots=False)
    rec = Recorder(0.5, options=opts)
    _, rep = run(f, g, prof, 0.05, bc, 0.5, hooks=rec)
    assert rep.checks["quartic_energy_nonincreasing"]
    assert np.all(np.diff(rep.quartic) <= 1e-3 * rep.quartic[0] + 1e-14)


def test_report_csv(tmp_path):
    g = GasLaw(2.0, delta=1e-4)
    prof = ConstantProfile()
    bc = BoundarySpec.dirichlet_nozzle(1.0, 0.0, 1.0, 0.0)
    grid = Grid(-2.0, 2.0, 64)
    ref = ReferenceState.constant(1.0)
    f = _constant_field(grid, 1.0)
    rec = Recorder(0.2, ref=ref, options=RecorderOptions(sample_count=5),
                   label="a")
    _, rep = run(f, g, prof, 0.05, bc, 0.2, hooks=rec)
    assert rep.passed
    path = tmp_path / "report.csv"
    rep.to_csv(path)
    data = path.read_bytes()
    assert b"\r" not in data
    text = data.decode()
    check = rep.checks["energy_nonnegative"]
    assert f"# check energy_nonnegative = {check}\n" in text
    assert "# check energy_nonnegative = pass value=" in text
    assert text.count("\n") > 5


def test_recorder_rejects_a_second_context_or_a_foreign_grid():
    g = GasLaw(2.0, delta=1e-4)
    grid, other = Grid(-2.0, 2.0, 16), Grid(-2.0, 2.0, 32)
    ctx = SolverContext(grid, g, ConstantProfile(), 0.05, _AT_REST)
    rec = Recorder(0.2)
    rec.sample(_constant_field(grid, 1.0), ctx)
    with pytest.raises(ConfigError):
        rec.sample(_constant_field(other, 1.0),
                   SolverContext(other, g, ConstantProfile(), 0.05, _AT_REST))
    with pytest.raises(ConfigError):
        rec.sample(_constant_field(other, 1.0), ctx)


def test_recorded_run_evaluates_the_profile_once(monkeypatch):
    # every monitor reads the run's context, so denser sampling evaluates
    # the profile on no more nodes
    from nozzleflow.geometry import NozzleProfile
    g = GasLaw(2.0, delta=1e-4)
    prof = GaussianBumpProfile()
    bc = BoundarySpec.dirichlet_nozzle(1.0, 0.3, 1.0, 0.3)
    grid = Grid(-4.0, 4.0, 128)
    field = FluidField(grid, 1.0 + 0.2 * np.exp(-grid.x ** 2),
                       np.full(grid.n_nodes, 0.3))
    nodes = [0]
    for name in ("area", "d_area", "dlog", "dlog_prime"):
        def counted(self, x, _orig=getattr(NozzleProfile, name)):
            nodes[0] += np.size(x)
            return _orig(self, x)
        monkeypatch.setattr(NozzleProfile, name, counted)
    totals = []
    for count in (5, 33):
        nodes[0] = 0
        rec = Recorder(0.2, ref=ReferenceState.constant(1.0, 0.3),
                       options=RecorderOptions(sample_count=count,
                                               quartic=True))
        _, rep = run(field, g, prof, 0.05, bc, 0.2, hooks=rec)
        assert len(rep.energy) == count
        totals.append(nodes[0])
    assert totals[0] == totals[1] > 0
