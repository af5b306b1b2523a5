"""Shared verification machinery for the test suite."""

import numpy as np

from nozzleflow import BoundarySpec, FluidField, Grid, diagnostics, run
from nozzleflow.solver import SolverContext
from nozzleflow.geometry import GaussianBumpProfile
from nozzleflow.thermo import GasLaw


def manufactured_state(x, t):
    """Smooth exact fields used by the forced-solution convergence studies."""
    rho = 2.0 + np.sin(x - t)
    u = 0.5 * np.cos(x)
    return rho, rho * u


def manufactured_forcing(profile, g: GasLaw, eps: float):
    """Source terms that make manufactured_state solve the viscous system."""

    def forcing(x, t):
        s, c = np.sin(x - t), np.cos(x - t)
        rho = 2.0 + s
        r_t, r_x, r_xx = -c, c, -s
        u = 0.5 * np.cos(x)
        u_x = -0.5 * np.sin(x)
        u_xx = -0.5 * np.cos(x)
        m = rho * u
        m_t = r_t * u
        m_x = r_x * u + rho * u_x
        m_xx = r_xx * u + 2.0 * r_x * u_x + rho * u_xx
        G = profile.dlog(x)
        Gp = profile.dlog_prime(x)
        f_rho = r_t + m_x + G * m - eps * (r_xx + G * r_x)
        f_m = (m_t + (r_x * u * u + 2.0 * rho * u * u_x)
               + g.pressure_prime(rho) * r_x + G * rho * u * u
               - eps * (m_xx + Gp * m + G * m_x))
        return f_rho, f_m

    return forcing


def manufactured_error(n_cells, g: GasLaw, eps: float, t_end: float = 0.1,
                       domain=(-2.0, 2.0)):
    """Discrete L1 error of the forced run at t_end on n_cells cells.

    The step is tied to dx^2 so the spatial truncation dominates.
    """
    profile = GaussianBumpProfile()
    grid = Grid(domain[0], domain[1], n_cells)
    x = grid.x
    rho0, m0 = manufactured_state(x, 0.0)
    bc = BoundarySpec.dirichlet_nozzle(
        lambda t: manufactured_state(grid.a, t)[0],
        lambda t: manufactured_state(grid.a, t)[1],
        lambda t: manufactured_state(grid.b, t)[0],
        lambda t: manufactured_state(grid.b, t)[1])
    field = FluidField(grid, rho0, m0)
    field, _ = run(field, g, profile, eps, bc, t_end,
                   dt_fixed=2.0 * grid.dx ** 2,
                   forcing=manufactured_forcing(profile, g, eps))
    rho_e, m_e = manufactured_state(x, t_end)
    return float(np.trapezoid(np.abs(field.rho - rho_e)
                              + np.abs(field.m - m_e), x))


def single_shock_states(gamma: float = 2.0):
    """End states of an exact single shock for the gamma-law pressure.

    With the right state (rho_plus, 0), the jump conditions fix the left
    momentum via m^2 = [p] * rho_minus * (rho_minus - rho_plus) / rho_plus.
    """
    g = GasLaw(gamma)
    rho_minus, rho_plus = 1.0, 0.5
    dp = g.pressure_gamma(rho_minus) - g.pressure_gamma(rho_plus)
    m_minus = np.sqrt(dp * rho_minus * (rho_minus - rho_plus) / rho_plus)
    return rho_minus, float(m_minus / rho_minus), rho_plus, 0.0


def whole_field_monitors(mp):
    """Make every context store the whole grid from its first node on, and
    the monitors sum every node, so that no closed form stands in for a
    node: the plain path of the stored range and of the monitors."""
    mp.setattr(SolverContext, "_cover",
               lambda ctx, lo, hi: (0, ctx.grid.n_nodes))
    mp.setattr(diagnostics, "HULL_PAD", 10 ** 9)


def assert_same_checks(a, b, atol=0.0):
    """The same checks pass and fail, with margins within ``atol``."""
    assert a.keys() == b.keys()
    for name, ca in a.items():
        cb = b[name]
        assert bool(ca) == bool(cb), (name, str(ca), str(cb))
        assert np.isclose(ca.margin, cb.margin, rtol=0.0, atol=atol,
                          equal_nan=True), (name, str(ca), str(cb))


def assert_same_series(a, b):
    """Stored-range and whole-grid reports record the same series and checks.

    Sum series may differ by summation order, to 1e-13 of their scale, and
    the margins of the checks read from them to 1e-12; extremes and
    pass/FAIL must be identical.
    """
    assert_same_checks(a.checks, b.checks, atol=1e-12)
    assert a.series.keys() == b.series.keys()
    for name, va in a.series.items():
        vb = b.series[name]
        if name in ("t", "max_w", "min_z", "min_rho"):
            np.testing.assert_array_equal(va, vb, err_msg=name)
        else:
            scale = np.max(np.abs(vb))
            assert np.max(np.abs(va - vb)) <= 1e-13 * scale, name
