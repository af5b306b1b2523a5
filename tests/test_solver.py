import warnings

import numpy as np
import pytest

from helpers import manufactured_error, single_shock_states
from nozzleflow.errors import (CavitationError, ConfigError, NonFiniteError,
                               SolverError, StabilityError)
from nozzleflow.geometry import (ConstantProfile, ExponentialProfile,
                                 GaussianBumpProfile, PowerLawClosingProfile,
                                 SphericalProfile)
from nozzleflow.solver import (BoundarySpec, FluidField, Grid,
                               InitialData, hyperbolic_interface_data,
                               SolverContext, prepare_initial_data, run, step)
from nozzleflow.thermo import GasLaw


def _constant_field(grid, rho_bar):
    n = grid.n_nodes
    return FluidField(grid, np.full(n, rho_bar), np.zeros(n))


def test_grid_and_field_validation():
    with pytest.raises(ConfigError):
        Grid(1.0, 0.0, 64)
    grid = Grid(0.0, 1.0, 16)
    assert grid.dx == pytest.approx(1.0 / 16.0)
    with pytest.raises(ConfigError):
        FluidField(grid, np.zeros(4), np.zeros(4))


def test_boundary_spec_validation():
    with pytest.raises(ConfigError):
        BoundarySpec.dirichlet_nozzle(-1.0, 0.0, 1.0, 0.0)
    with pytest.raises(ConfigError):
        BoundarySpec.dirichlet_spherical(0.0)
    spec = BoundarySpec.neumann_spherical(0.3)
    assert spec.left_values(0.0) == (None, 0.0)
    assert spec.right_values(1.0) == (0.3, 0.0)


def test_constant_state_is_exact_steady_state():
    g = GasLaw(2.0, delta=1e-4)
    profiles = [ConstantProfile(), GaussianBumpProfile(),
                PowerLawClosingProfile(1.0), ExponentialProfile(0.4)]
    for prof in profiles:
        grid = Grid(-4.0, 4.0, 48)
        bc = BoundarySpec.dirichlet_nozzle(0.7, 0.0, 0.7, 0.0)
        f = _constant_field(grid, 0.7)
        ctx = SolverContext(grid, g, prof, 0.05, bc)
        for _ in range(200):
            dt = 0.4 * grid.dx / ctx.max_wave_speed(f.rho, f.m)
            f = step(f, g, prof, 0.05, bc, dt, ctx=ctx)
        assert np.max(np.abs(f.rho - 0.7)) < 1e-13
        assert np.max(np.abs(f.m)) < 1e-13


def test_constant_state_spherical_modes():
    g = GasLaw(2.0, delta=1e-4)
    prof = SphericalProfile(n_dim=3)
    grid = Grid(0.5, 6.0, 48)
    for bc in (BoundarySpec.dirichlet_spherical(0.4),
               BoundarySpec.neumann_spherical(0.4)):
        f = _constant_field(grid, 0.4)
        ctx = SolverContext(grid, g, prof, 0.05, bc)
        for _ in range(200):
            dt = 0.4 * grid.dx / ctx.max_wave_speed(f.rho, f.m)
            f = step(f, g, prof, 0.05, bc, dt, ctx=ctx)
        assert np.max(np.abs(f.rho - 0.4)) < 1e-13
        assert np.max(np.abs(f.m)) < 1e-13


def test_single_step_mass_ledger():
    # interior trapezoid mass changes exactly by the interface plus viscous
    # boundary fluxes: conservative-form telescoping
    g = GasLaw(2.0, delta=1e-4)
    prof = GaussianBumpProfile()
    grid = Grid(-5.0, 5.0, 256)
    eps = 0.05
    x = grid.x
    rho0 = np.where(x < 0.0, 1.0, 0.125)
    m0 = np.zeros_like(x)
    bc = BoundarySpec.dirichlet_nozzle(1.0, 0.0, 0.125, 0.0)
    ctx = SolverContext(grid, g, prof, eps, bc)
    f0 = FluidField(grid, rho0, m0)
    dt = 0.4 * grid.dx / ctx.max_wave_speed(rho0, m0)
    f1 = step(f0, g, prof, eps, bc, dt, ctx=ctx)

    # recompute the averaged stage fluxes exactly as the step does
    d1 = hyperbolic_interface_data(ctx, rho0, m0, 0.0)
    c1 = -(d1["phi"][1:] - d1["phi"][:-1]) / (ctx.A * grid.dx)
    p = g.pressure(np.maximum(d1["rho_ext"], 0.0))
    c1m = (-(d1["psi"][1:] - d1["psi"][:-1]) / (ctx.A * grid.dx)
           - (p[2:] - p[:-2]) / (2.0 * grid.dx))
    rho_1 = np.maximum(rho0 + dt * c1, g.rho_floor)
    m_1 = m0 + dt * c1m
    d2 = hyperbolic_interface_data(ctx, rho_1, m_1, dt)
    phi_eff = 0.5 * (d1["phi"] + d2["phi"])

    interior0 = np.sum((ctx.A * rho0)[1:-1]) * grid.dx
    interior1 = np.sum((ctx.A * f1.rho)[1:-1]) * grid.dx
    explicit = -dt * (phi_eff[-2] - phi_eff[1])
    viscous = eps * dt * (ctx.Ah[-1] * (f1.rho[-1] - f1.rho[-2])
                          - ctx.Ah[0] * (f1.rho[1] - f1.rho[0])) / grid.dx
    resid = (interior1 - interior0) - (explicit + viscous)
    assert abs(resid) / interior0 < 1e-12


def test_step_guards():
    g = GasLaw(2.0, delta=1e-3)
    prof = ConstantProfile()
    grid = Grid(-1.0, 1.0, 32)
    bc = BoundarySpec.dirichlet_nozzle(1.0, 0.0, 1.0, 0.0)
    f = _constant_field(grid, 1.0)
    ctx = SolverContext(grid, g, prof, 0.05, bc)
    bound = 0.4 * grid.dx / ctx.max_wave_speed(f.rho, f.m)
    with pytest.raises(StabilityError):
        step(f, g, prof, 0.05, bc, 2.0 * bound, ctx=ctx)
    with pytest.raises(StabilityError):
        step(f, g, prof, 0.05, bc, -1.0, ctx=ctx)

    def nan_forcing(x, t):
        return np.full_like(x, np.nan), np.zeros_like(x)

    with pytest.raises(NonFiniteError):
        step(f, g, prof, 0.05, bc, 0.5 * bound, ctx=ctx, forcing=nan_forcing)

    def drain(x, t):
        return np.full_like(x, -500.0), np.zeros_like(x)

    with pytest.raises(CavitationError):
        step(f, g, prof, 0.05, bc, 0.5 * bound, ctx=ctx, forcing=drain)


def _guard_case():
    g = GasLaw(2.0, delta=1e-3)
    prof = ConstantProfile()
    grid = Grid(-1.0, 1.0, 32)
    bc = BoundarySpec.dirichlet_nozzle(1.0, 0.0, 1.0, 0.0)
    return _constant_field(grid, 1.0), g, prof, 0.05, bc


@pytest.mark.parametrize("call, kwargs, name", [
    ("run", dict(cfl=2.0), "cfl"),
    ("run", dict(cfl=5.0), "cfl"),
    ("run", dict(cfl=-1.0), "cfl"),
    ("run", dict(cfl=0.0), "cfl"),
    ("run", dict(cfl=float("nan")), "cfl"),
    ("step", dict(cfl=2.0), "cfl"),
    ("step", dict(cfl=-1.0), "cfl"),
    ("run", dict(t_end=float("nan")), "t_end"),
    ("run", dict(t_end=float("inf")), "t_end"),
    ("run", dict(dt_fixed=float("nan")), "dt_fixed"),
    ("run", dict(dt_fixed=-1e-3), "dt_fixed"),
])
def test_scheme_limits_are_config_errors(call, kwargs, name):
    # the config refuses cfl > CFL_MAX; a direct call refuses it too, and a
    # t_end or dt_fixed that cannot make a run
    f, g, prof, eps, bc = _guard_case()
    kwargs = dict(kwargs)
    with pytest.raises(ConfigError, match=f"^{name} must"):
        if call == "step":
            step(f, g, prof, eps, bc, 1e-3, **kwargs)
        else:
            run(f, g, prof, eps, bc, kwargs.pop("t_end", 0.1), **kwargs)


@pytest.mark.parametrize("dt", [float("nan"), float("inf"), 0.0, -1.0])
def test_step_refuses_a_dt_that_is_not_positive_and_finite(dt):
    f, g, prof, eps, bc = _guard_case()
    with pytest.raises(StabilityError, match="dt must be positive and finite"):
        step(f, g, prof, eps, bc, dt)


def test_config_cfl_ceiling_is_the_solver_s():
    from nozzleflow.harness import RunConfig
    from nozzleflow.solver import CFL_MAX
    assert RunConfig.from_mapping({"cfl": CFL_MAX}).cfl == CFL_MAX
    with pytest.raises(ConfigError, match="^cfl must lie in"):
        RunConfig.from_mapping({"cfl": np.nextafter(CFL_MAX, 1.0)})


def test_cfl_check_covers_the_whole_stepped_window():
    # a dip at rest: every node of the scan window is slower than the far
    # state, and one resting node just outside it (inside the stepped
    # window's diffusive margin) is faster by 6e-13 relative
    g = GasLaw(2.0, delta=1e-3)
    grid = Grid(-8.0, 8.0, 256)
    x = grid.x
    bc = BoundarySpec.dirichlet_nozzle(1.0, 0.0, 1.0, 0.0)
    rho, m = 1.0 - 0.2 * np.exp(-16.0 * x * x), np.zeros_like(x)
    ctx = SolverContext(grid, g, GaussianBumpProfile(), 0.05, bc)
    i, _ = ctx._rest_ends(rho, m, None)
    m[i - 5] = 0.9e-12
    ctx.start(FluidField(grid, rho, m))
    lo, hi, lam = ctx.scan(False)
    assert lo == i - 4 and lam == ctx.far_speed
    # within the scan window's bound, above the stepped window's
    dt = 0.4 * grid.dx / lam * (1.0 + 1e-9)
    with pytest.raises(StabilityError, match="exceeds the advective bound"):
        step(FluidField(grid, rho, m), g, GaussianBumpProfile(), 0.05, bc, dt,
             ctx=ctx)


def test_overflowing_wave_speed_is_a_non_finite_error():
    # p'(1e20) = kappa gamma 1e980 at gamma 50 leaves the float range
    g = GasLaw(50.0, delta=1e-4)
    grid = Grid(-1.0, 1.0, 32)
    bc = BoundarySpec.dirichlet_nozzle(1.0, 0.0, 1.0, 0.0)
    ctx = SolverContext(grid, g, ConstantProfile(), 0.05, bc)
    f = _constant_field(grid, 1.0)
    f.rho[3] = 1e20
    with np.errstate(over="ignore"), \
            pytest.raises(NonFiniteError, match=r"wave speed max\(\|u\| \+ c\) = inf"):
        ctx.max_wave_speed(f.rho, f.m)


def test_run_checks_the_initial_wave_speed_before_the_first_sample():
    g = GasLaw(50.0, delta=1e-4)
    grid = Grid(-1.0, 1.0, 32)
    bc = BoundarySpec.dirichlet_nozzle(1.0, 0.0, 1.0, 0.0)
    f = _constant_field(grid, 1.0)
    f.rho[3] = 1e20

    class Hooks:
        sample_times = [0.0, 0.1]

        def sample(self, field, ctx):
            raise AssertionError("sampled a state the gas law overflows on")

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteError, match="wave speed"):
            run(f, g, ConstantProfile(), 0.05, bc, 0.1, Hooks())


def test_run_identity_and_error_time():
    g = GasLaw(2.0, delta=1e-4)
    prof = ConstantProfile()
    grid = Grid(-1.0, 1.0, 32)
    bc = BoundarySpec.dirichlet_nozzle(1.0, 0.0, 1.0, 0.0)
    f = _constant_field(grid, 1.0)
    out, rep = run(f, g, prof, 0.05, bc, f.t)
    assert out is f
    assert len(rep.t) == 0

    def blow_up(x, t):
        return np.zeros_like(x), np.full_like(x, np.inf if t > 0.01 else 0.0)

    with pytest.raises(SolverError, match="at t="):
        run(f, g, prof, 0.05, bc, 0.2, forcing=blow_up)


def _windowed_bump():
    """A bump at rest between two steady far states: steps move windows."""
    g = GasLaw(2.0, delta=1e-3)
    grid = Grid(-8.0, 8.0, 256)
    x = grid.x
    bc = BoundarySpec.dirichlet_nozzle(1.0, 0.0, 1.0, 0.0)
    field = FluidField(grid, 1.0 + 0.3 * np.exp(-16.0 * x * x), np.zeros_like(x))
    return g, GaussianBumpProfile(), bc, field


def test_step_returns_arrays_it_keeps_no_alias_of():
    g, prof, bc, f = _windowed_bump()
    ctx = SolverContext(f.grid, g, prof, 0.05, bc)
    dt = 0.3 * f.grid.dx / ctx.max_wave_speed(f.rho, f.m)
    start = f.copy()
    out = step(f, g, prof, 0.05, bc, dt, ctx=ctx)
    lo, hi = ctx.hull
    assert 0 < lo < hi < f.grid.n_nodes   # the step moved a window
    owned = [v for v in vars(ctx).values() if isinstance(v, np.ndarray)]
    for arr in (out.rho, out.m):
        assert not any(np.shares_memory(arr, other)
                       for other in [f.rho, f.m, *owned, *ctx.rest_box])
    # the input is untouched, and a later step leaves this result as it was
    kept = out.copy()
    step(out, g, prof, 0.05, bc, dt, ctx=ctx)
    step(f, g, prof, 0.05, bc, dt, ctx=ctx)
    for now, then in ((f, start), (out, kept)):
        assert now.rho.tobytes() == then.rho.tobytes()
        assert now.m.tobytes() == then.m.tobytes()
    # a second bump outside the last window: the step scans the field whole
    two = FluidField(f.grid, f.rho + np.roll(f.rho - 1.0, 90), f.m)
    a = step(two, g, prof, 0.05, bc, dt, ctx=ctx)
    b = step(two, g, prof, 0.05, bc, dt,
             ctx=SolverContext(f.grid, g, prof, 0.05, bc))
    assert a.rho.tobytes() == b.rho.tobytes()
    assert a.m.tobytes() == b.m.tobytes()


def test_run_hooks_keep_the_fields_they_were_given():
    from nozzleflow.diagnostics import DiagnosticsReport

    g, prof, bc, f = _windowed_bump()

    class Keeper:
        sample_times = np.linspace(0.0, 0.2, 6)

        def __init__(self):
            self.kept = []

        def sample(self, field, ctx):
            self.kept.append((field, field.rho.copy(), field.m.copy(), field.t))

        def finalize(self):
            return DiagnosticsReport()

    hooks = Keeper()
    out, rep = run(f, g, prof, 0.05, bc, 0.2, hooks)
    assert 0 < rep.hull[0] < rep.hull[1] < f.grid.n_nodes
    assert [t for *_, t in hooks.kept] == pytest.approx(Keeper.sample_times)
    for field, rho, m, t in hooks.kept:
        assert field.t == t
        assert field.rho.tobytes() == rho.tobytes()
        assert field.m.tobytes() == m.tobytes()
    assert not np.array_equal(hooks.kept[0][0].rho, out.rho)


def test_run_constant_state_long():
    g = GasLaw(2.0, delta=1e-4)
    prof = GaussianBumpProfile()
    grid = Grid(-4.0, 4.0, 64)
    bc = BoundarySpec.dirichlet_nozzle(0.7, 0.0, 0.7, 0.0)
    f = _constant_field(grid, 0.7)
    out, _ = run(f, g, prof, 0.05, bc, 10.0)
    assert out.t == pytest.approx(10.0)
    assert np.max(np.abs(out.rho - 0.7)) < 1e-10
    assert np.max(np.abs(out.m)) < 1e-10


def test_prepare_initial_data_fixed_point():
    g = GasLaw(2.0, delta=1e-4)
    prof = ConstantProfile()
    grid = Grid(-5.0, 5.0, 128)
    bc = BoundarySpec.dirichlet_nozzle(0.8, 0.0, 0.8, 0.0)
    raw = InitialData(lambda x: np.full_like(x, 0.8),
                      lambda x: np.zeros_like(x),
                      mollify_width=0.2, blend_width=1.0)
    f = prepare_initial_data(raw, bc, g, prof, grid).whole()
    assert np.max(np.abs(f.rho - 0.8)) < 1e-14
    assert np.max(np.abs(f.m)) < 1e-14


def test_prepare_initial_data_jump():
    g = GasLaw(2.0, delta=1e-4)
    prof = ConstantProfile()
    grid = Grid(-5.0, 5.0, 256)
    bc = BoundarySpec.dirichlet_nozzle(1.0, 0.0, 0.125, 0.0)
    raw = InitialData(lambda x: np.where(x < 0, 1.0, 0.125),
                      lambda x: np.zeros_like(x),
                      mollify_width=0.02, blend_width=1.0)
    f = prepare_initial_data(raw, bc, g, prof, grid).whole()
    assert f.rho[0] == pytest.approx(1.0)
    assert f.rho[-1] == pytest.approx(0.125)
    assert np.all(np.diff(f.rho) <= 1e-12)  # monotone through the jump
    assert np.min(f.rho) >= g.rho_floor


def test_prepare_initial_data_energy_ratio():
    # smooth bump data: construction must keep the relative energy within 5%
    g = GasLaw(2.0, delta=1e-4)
    prof = ConstantProfile()
    grid = Grid(-6.0, 6.0, 256)
    bc = BoundarySpec.dirichlet_nozzle(1.0, 0.0, 1.0, 0.0)
    raw = InitialData(lambda x: 1.0 + 0.5 * np.exp(-x * x),
                      lambda x: np.zeros_like(x),
                      mollify_width=0.1, blend_width=1.0)
    f = prepare_initial_data(raw, bc, g, prof, grid).whole()
    x = grid.x
    h = g.h_delta
    raw_rho = 1.0 + 0.5 * np.exp(-x * x)

    def rel_energy(rho):
        return np.trapezoid(h(rho) - h(1.0) - g.h_delta_prime(1.0) * (rho - 1.0), x)

    ratio = rel_energy(f.rho) / rel_energy(raw_rho)
    assert 0.95 <= ratio <= 1.05


def test_prepare_zero_blend_pins_only_the_end_nodes():
    # blend_width = 0: each end node takes the boundary values, every other
    # node keeps the mollified data; the axis end pins only the momentum
    from nozzleflow.solver import _mollify
    g = GasLaw(2.0, delta=1e-4)
    grid = Grid(0.1, 4.0, 64)
    x = grid.x
    rho_s = _mollify(1.0 + 0.1 * np.sin(x), 0.1, grid.dx)
    m_s = _mollify(0.05 * np.cos(x), 0.1, grid.dx)
    for bc, prof in ((BoundarySpec.dirichlet_nozzle(0.9, 0.02, 1.2, -0.03),
                      ConstantProfile()),
                     (BoundarySpec.neumann_spherical(1.1), SphericalProfile(3))):
        raw = InitialData(lambda x: 1.0 + 0.1 * np.sin(x),
                          lambda x: 0.05 * np.cos(x),
                          mollify_width=0.1, blend_width=0.0)
        f = prepare_initial_data(raw, bc, g, prof, grid).whole()
        rho_l, m_l = bc.left_values(0.0)
        rho_r, m_r = bc.right_values(0.0)
        assert f.rho[0] == (rho_s[0] if rho_l is None else rho_l)
        assert (f.m[0], f.rho[-1], f.m[-1]) == (m_l, rho_r, m_r)
        assert np.array_equal(f.rho[1:-1], rho_s[1:-1])
        assert np.array_equal(f.m[1:-1], m_s[1:-1])


def test_prepare_blend_width_gate():
    g = GasLaw(2.0)
    prof = ConstantProfile()
    grid = Grid(-1.0, 1.0, 32)
    bc = BoundarySpec.dirichlet_nozzle(1.0, 0.0, 1.0, 0.0)
    raw = InitialData(lambda x: np.ones_like(x), lambda x: np.zeros_like(x),
                      blend_width=0.6)
    with pytest.raises(ConfigError):
        prepare_initial_data(raw, bc, g, prof, grid)


def test_manufactured_convergence_small():
    g = GasLaw(2.0, delta=0.01)
    e1 = manufactured_error(100, g, eps=0.05)
    e2 = manufactured_error(200, g, eps=0.05)
    assert np.log2(e1 / e2) > 1.6


def test_refinement_halving_order_at_least_one():
    # halving dx (and the advective dt with it) changes the final state at
    # first order or better in the discrete L1 norm
    g = GasLaw(2.0, delta=1e-4)
    prof = ConstantProfile()
    rm, um, rp, up = single_shock_states(2.0)
    bc = BoundarySpec.dirichlet_nozzle(rm, rm * um, rp, rp * up)
    fields = {}
    for n in (128, 256, 512):
        grid = Grid(-4.0, 4.0, n)
        raw = InitialData(lambda x: np.where(x < 0, rm, rp),
                          lambda x: np.where(x < 0, rm * um, rp * up),
                          mollify_width=0.0, blend_width=0.5)
        f = prepare_initial_data(raw, bc, g, prof, grid)
        out, _ = run(f, g, prof, 0.05, bc, 0.5)
        fields[n] = out.whole()
    x = fields[512].grid.x
    d1 = np.trapezoid(np.abs(np.interp(x, fields[128].grid.x, fields[128].rho)
                             - np.interp(x, fields[256].grid.x, fields[256].rho)), x)
    d2 = np.trapezoid(np.abs(np.interp(x, fields[256].grid.x, fields[256].rho)
                             - fields[512].rho), x)
    assert np.log2(d1 / d2) >= 1.0


def test_total_variation_monotone_in_viscosity():
    # heuristic sanity property: more viscosity, less final variation
    g0 = GasLaw(2.0)
    prof = ConstantProfile()
    rm, um, rp, up = 1.0, 0.0, 0.125, 0.0
    bc = BoundarySpec.dirichlet_nozzle(rm, 0.0, rp, 0.0)
    tvs = []
    for eps in (0.1, 0.05, 0.025):
        g = GasLaw(2.0, delta=eps ** 5)
        grid = Grid(-6.0, 6.0, 512)
        raw = InitialData(lambda x: np.where(x < 0, rm, rp),
                          lambda x: np.zeros_like(x),
                          mollify_width=0.02, blend_width=0.5)
        f = prepare_initial_data(raw, bc, g, prof, grid)
        out, _ = run(f, g, prof, eps, bc, 0.5)
        tvs.append(float(np.sum(np.abs(np.diff(out.rho)))
                         + np.sum(np.abs(np.diff(out.m)))))
    assert tvs[0] <= tvs[1] <= tvs[2]


def test_neumann_axis_reflection_consistency():
    # the mirror closure pins m(axis) = 0 and drives the one-sided density
    # slope at the axis to zero at second order under refinement
    g = GasLaw(2.0, delta=1e-3)
    prof = SphericalProfile(n_dim=3)
    bc = BoundarySpec.neumann_spherical(0.3)
    slopes = {}
    for n in (128, 256):
        grid = Grid(0.25, 4.25, n)
        x = grid.x
        rho = 0.3 + 0.4 * np.exp(-((x - 1.5) ** 2))
        f = FluidField(grid, rho, np.zeros_like(x))
        out, _ = run(f, g, prof, 0.05, bc, 0.3)
        assert out.m[0] == 0.0
        assert np.min(out.rho) > 0.0
        slopes[n] = abs(out.rho[1] - out.rho[0]) / grid.dx
        interior = np.max(np.abs(np.diff(out.rho))) / grid.dx
        assert slopes[n] <= 0.15 * interior + 1e-8
    assert slopes[256] <= 0.6 * slopes[128]


# ---------------------------------------------------------------------------
# implicit solves and context ownership
# ---------------------------------------------------------------------------


def _contexts_for_every_mode(n_nodes):
    g = GasLaw(2.0, delta=1e-3)
    duct = Grid(-3.0, 3.0, n_nodes - 1)
    sphere = Grid(0.5, 6.0, n_nodes - 1)
    contexts = [
        SolverContext(duct, g, GaussianBumpProfile(), 0.05,
                      BoundarySpec.dirichlet_nozzle(1.0, 0.2, 0.5, 0.0)),
        SolverContext(sphere, g, SphericalProfile(n_dim=3), 0.05,
                      BoundarySpec.dirichlet_spherical(0.4)),
        SolverContext(sphere, g, SphericalProfile(n_dim=3), 0.05,
                      BoundarySpec.neumann_spherical(0.4)),
    ]
    for ctx in contexts:
        ctx.store(0, n_nodes)  # the bands of every node
    return contexts


@pytest.mark.parametrize("n_nodes", [9, 49, 1025])
def test_tridiag_solve_matches_solve_banded(n_nodes):
    # the LAPACK gtsv path against scipy's checked banded solver, on each
    # boundary mode's bands, assembled as the plain step assembles them
    from scipy.linalg import solve_banded
    from nozzleflow.solver import _tridiag_solve
    from plain_step import _implicit_system
    rng = np.random.default_rng(n_nodes)
    for ctx in _contexts_for_every_mode(n_nodes):
        rho_l, m_l = ctx.bc.left_values(0.0)
        rho_r, m_r = ctx.bc.right_values(0.0)
        for bands, left, right in ((ctx.bands[:, 0], rho_l, rho_r),
                                   (ctx.bands[:, 1], m_l, m_r)):
            for coef in (0.05 * 0.4 * ctx.dx, 0.05):
                rhs = 0.5 + rng.random(n_nodes)
                dl, d, du, b = _implicit_system(bands, coef, rhs, left, right)
                ab = np.zeros((3, n_nodes))
                ab[0, 1:], ab[1], ab[2, :-1] = du, d, dl
                plain = solve_banded((1, 1), ab, b)
                fast = _tridiag_solve(dl, d, du, b)
                assert np.max(np.abs(fast - plain)) \
                    <= 1e-14 * np.max(np.abs(plain))


def test_tridiag_solve_singular_raises():
    from nozzleflow.solver import _tridiag_solve
    with pytest.raises(SolverError):
        _tridiag_solve(np.zeros(3), np.zeros(4), np.zeros(3), np.ones(4))


def test_step_rejects_context_built_for_other_inputs():
    g = GasLaw(2.0, delta=1e-3)
    prof = ConstantProfile()
    grid = Grid(-1.0, 1.0, 32)
    bc = BoundarySpec.dirichlet_nozzle(1.0, 0.0, 1.0, 0.0)
    f = _constant_field(grid, 1.0)
    ctx = SolverContext(grid, g, prof, 0.05, bc)
    dt = 0.2 * grid.dx / ctx.max_wave_speed(f.rho, f.m)
    for other in (dict(eps=0.1), dict(g=GasLaw(2.0, delta=2e-3)),
                  dict(bc=BoundarySpec.dirichlet_nozzle(1.0, 0.0, 0.9, 0.0))):
        args = {**dict(g=g, profile=prof, eps=0.05, bc=bc), **other}
        with pytest.raises(ConfigError):
            step(f, args["g"], args["profile"], args["eps"], args["bc"], dt,
                 ctx=ctx)
    # equal inputs built separately are the same inputs
    out = step(f, GasLaw(2.0, delta=1e-3), ConstantProfile(), 0.05,
               BoundarySpec.dirichlet_nozzle(1.0, 0.0, 1.0, 0.0), dt, ctx=ctx)
    assert np.max(np.abs(out.rho - 1.0)) < 1e-13
