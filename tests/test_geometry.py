import os
import subprocess
import sys

import numpy as np
import pytest

from nozzleflow import geometry
from nozzleflow.errors import ConfigError, DomainError
from nozzleflow.geometry import (ConstantProfile, ExponentialProfile,
                                 GaussianBumpProfile, PowerLawClosingProfile,
                                 SphericalProfile, TabulatedProfile,
                                 make_profile, unit_sphere_area)

BUILTINS = [
    ConstantProfile(),
    GaussianBumpProfile(),
    PowerLawClosingProfile(alpha=1.0),
    ExponentialProfile(rate=0.5),
    SphericalProfile(n_dim=3),
]


def test_area_examples():
    assert ConstantProfile().area(3.7) == 1.0
    sph = SphericalProfile(n_dim=3)
    assert sph.omega_n == pytest.approx(4.0 * np.pi)
    assert sph.area(2.0) == pytest.approx(4.0 * np.pi * 4.0)
    assert GaussianBumpProfile().area(0.0) == pytest.approx(2.0)


def test_dlog_examples():
    assert ConstantProfile().dlog(17.3) == 0.0
    assert SphericalProfile(n_dim=3).dlog(0.5) == pytest.approx(4.0)
    expected = (-2.0 * np.exp(-1.0)) / (1.0 + np.exp(-1.0))
    assert GaussianBumpProfile().dlog(1.0) == pytest.approx(expected, rel=1e-12)


def test_domain_errors():
    sph = SphericalProfile(n_dim=3)
    with pytest.raises(DomainError):
        sph.area(0.0)
    with pytest.raises(DomainError):
        sph.dlog(-1.0)
    with pytest.raises(DomainError):
        sph.validate_conditions((-1.0, 5.0))
    with pytest.raises(DomainError):
        ConstantProfile().validate_conditions((3.0, 3.0))


def test_dlog_matches_log_area_difference():
    rng = np.random.default_rng(7)
    h = 1e-5
    for prof in BUILTINS:
        lo, hi = (0.2, 8.0) if prof.name == "spherical" else (-8.0, 8.0)
        x = rng.uniform(lo, hi, 1000)
        fd = (np.log(prof.area(x + h)) - np.log(prof.area(x - h))) / (2.0 * h)
        scale = np.maximum(np.abs(fd), 1.0)
        assert np.max(np.abs(prof.dlog(x) - fd) / scale) < 1e-6


def test_spherical_area_dlog_identity():
    rng = np.random.default_rng(8)
    for n in (2, 3, 4):
        prof = SphericalProfile(n_dim=n)
        x = rng.uniform(0.1, 10.0, 200)
        lhs = prof.area(x) * prof.dlog(x)
        rhs = prof.omega_n * (n - 1) * x ** (n - 2)
        assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) < 1e-14


def test_dlog_prime_matches_difference():
    rng = np.random.default_rng(9)
    h = 1e-5
    for prof in BUILTINS:
        lo, hi = (0.3, 8.0) if prof.name == "spherical" else (-8.0, 8.0)
        x = rng.uniform(lo, hi, 300)
        fd = (prof.dlog(x + h) - prof.dlog(x - h)) / (2.0 * h)
        scale = np.maximum(np.abs(fd), 1.0)
        assert np.max(np.abs(prof.dlog_prime(x) - fd) / scale) < 1e-6


def test_closing_dlog_stays_exact_where_the_area_underflows():
    # A = (1 + x^2)^-60 is 5.7e-313 at x = 400 and 0 at x = 500; A'/A and
    # (A'/A)' have closed forms there
    prof = PowerLawClosingProfile(alpha=60.0)
    exact_prime = -120.0 * (1.0 - 400.0 ** 2) / (1.0 + 400.0 ** 2) ** 2
    assert exact_prime == pytest.approx(7.49986e-4, rel=1e-6)
    assert prof.dlog_prime(400.0) == pytest.approx(exact_prime, rel=1e-12)
    assert prof.dlog(500.0) == pytest.approx(-120.0 * 500.0 / 250001.0,
                                             rel=1e-12)
    assert np.all(np.isfinite(prof.dlog(np.linspace(-1e4, 1e4, 101))))


def test_exponential_dlog_is_the_rate():
    prof = ExponentialProfile(rate=0.4)
    x = np.linspace(-800.0, 800.0, 9)  # A overflows at the right end
    np.testing.assert_array_equal(prof.dlog(x), np.full(9, 0.4))
    np.testing.assert_array_equal(prof.dlog_prime(x), np.zeros(9))
    assert prof.dlog(1.0) == 0.4 and isinstance(prof.dlog(1.0), float)


def _conditions(prof, interval):
    """validate_conditions' Report with the three conditions as booleans:
    (1.3a), (1.3b), (1.4)-(1.5)."""
    rep = prof.validate_conditions(interval)
    return rep, tuple(bool(rep.checks[k]) for k in (
        "13a_left_half_line", "13b_right_half_line", "14_15_area_bounds"))


def test_validate_conditions_constant():
    rep, ok = _conditions(ConstantProfile(), (-10.0, 10.0))
    assert np.max(np.abs(rep.series["dlog"])) == 0.0
    assert ok == (True, True, True) and rep.passed
    assert np.min(rep.series["A"]) == np.max(rep.series["A"]) == 1.0
    assert rep.series["x"][0] == -10.0 and rep.series["x"][-1] == 10.0


def test_validate_conditions_spherical():
    rep, ok = _conditions(SphericalProfile(n_dim=3), (0.1, 10.0))
    assert ok == (False, False, True)
    assert sorted(rep.failing()) == ["13a_left_half_line", "13b_right_half_line"]
    # (n-1)/x at x = 0.1
    assert np.max(np.abs(rep.series["dlog"])) == pytest.approx(20.0, rel=1e-3)


def test_validate_conditions_power_law_sup():
    # |A'/A| = 2 a |x| / (1 + x^2) attains its maximum alpha at |x| = 1
    alpha = 1.0
    rep, ok = _conditions(PowerLawClosingProfile(alpha=alpha), (-50.0, 50.0))
    sup_dlog = np.max(np.abs(rep.series["dlog"]))
    assert sup_dlog == pytest.approx(alpha, rel=1e-3)
    assert sup_dlog <= 2.0 * alpha
    assert ok[0]


def test_validate_conditions_area_must_stay_positive():
    # A = (1 + x^2)^(-60) underflows to 0 at x = 1e6: A_0 > 0 fails there
    rep, ok = _conditions(PowerLawClosingProfile(alpha=60.0), (-1e6, 1e6))
    assert ok == (True, True, False)
    assert rep.checks["14_15_area_bounds"].value == 0.0
    _, ok = _conditions(PowerLawClosingProfile(alpha=60.0), (-10.0, 10.0))
    assert ok == (True, True, True)


def test_exponential_one_sided_integrability():
    _, ok = _conditions(ExponentialProfile(rate=0.5), (-10.0, 10.0))
    assert ok[:2] == (True, False)
    _, ok = _conditions(ExponentialProfile(rate=-0.5), (-10.0, 10.0))
    assert ok[:2] == (False, True)
    _, ok = _conditions(ExponentialProfile(rate=0.0), (-10.0, 10.0))
    assert ok[:2] == (True, True)


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (-2.0, 2.0), (1e-6, 3.5),
                                  (-40.0, -39.999), (0.25, 1e6)])
def test_sample_interval_is_np_unique_bit_for_bit(a, b):
    # the sort and neighbour mask that replace np.unique (which imports
    # numpy.ma) give its bytes, duplicate samples at the clipped ends too
    base = np.linspace(a, b, geometry.N_SAMPLES)
    tails = (b - a) * np.geomspace(1e-12, 1e-1, 23)
    pts = np.unique(np.clip(np.concatenate([base, a + tails, b - tails]), a, b))
    assert geometry.sample_interval(a, b).tobytes() == pts.tobytes()


def test_unit_sphere_area_values():
    assert unit_sphere_area(2) == pytest.approx(2.0 * np.pi)
    assert unit_sphere_area(3) == pytest.approx(4.0 * np.pi)
    assert unit_sphere_area(4) == pytest.approx(2.0 * np.pi ** 2)


def test_tabulated_profile_roundtrip(tmp_path):
    x = np.linspace(-2.0, 2.0, 401)
    a = 1.0 + np.exp(-x * x)
    path = tmp_path / "area.dat"
    lines = ["# x A"] + [f"{xi} {ai}" for xi, ai in zip(x, a)]
    path.write_text("\n".join(lines))
    prof = make_profile("tabulated", file=str(path))
    xs = np.linspace(-1.9, 1.9, 64)
    exact = GaussianBumpProfile()
    assert np.max(np.abs(prof.area(xs) - exact.area(xs))) < 1e-8
    assert np.max(np.abs(prof.dlog(xs) - exact.dlog(xs))) < 1e-5
    with pytest.raises(DomainError):
        prof.area(2.5)


def test_tabulated_derivative_consistency_gate():
    x = np.linspace(0.0, 1.0, 101)
    a = 2.0 + np.sin(x)
    fd = np.gradient(a, x)
    fd[1:-1] = (a[2:] - a[:-2]) / (x[2:] - x[:-2])
    fd2 = np.gradient(fd, x)
    fd2[1:-1] = (a[2:] - 2.0 * a[1:-1] + a[:-2]) / np.diff(x)[1:] ** 2
    TabulatedProfile.from_columns(x, a, d_a=fd, dd_a=fd2)  # consistent: accepted
    bad = fd + 0.5
    with pytest.raises(ConfigError, match="spline's A'"):
        TabulatedProfile.from_columns(x, a, d_a=bad)
    with pytest.raises(ConfigError, match="spline's A''"):
        TabulatedProfile.from_columns(x, a, dd_a=fd2 + 0.5)


@pytest.mark.parametrize("rate", [1.0, 16.0])
def test_tabulated_accepts_exact_derivative_columns(rate):
    # a centered difference is off by h^2/6 |A'''| here, more than 1e-6 of
    # A'; the spline's A'' is off by about h^2/12 |A''''|, which the narrow
    # bump makes 8 times h^2 max |A''|
    x = np.linspace(-3.0, 3.0, 601)
    e = np.exp(-rate * x * x)
    TabulatedProfile.from_columns(x, 1.0 + 0.5 * e, d_a=-rate * x * e,
                                  dd_a=(2.0 * rate * rate * x * x - rate) * e)


def test_tabulated_accepts_exact_derivative_columns_on_uneven_rows():
    # spacing alternating 0.1 and 0.2, where second differences over the
    # half-width are not A''
    x = np.concatenate([[0.0], np.cumsum(np.tile([0.1, 0.2], 10))]) - 1.5
    TabulatedProfile.from_columns(x, 1.0 + x * x, d_a=2.0 * x,
                                  dd_a=np.full_like(x, 2.0))


def test_tabulated_rejects_bad_tables():
    with pytest.raises(ConfigError):
        TabulatedProfile(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    x = np.linspace(0.0, 1.0, 10)
    with pytest.raises(ConfigError):
        TabulatedProfile(x, np.where(x > 0.5, -1.0, 1.0))


def _spline_table(n):
    """A Gaussian-bump table of n uniform rows, or for n = 2000 a smooth
    table on knots spaced at random within a factor 3."""
    if n == 2000:
        x = np.cumsum(np.random.default_rng(5).uniform(0.5, 1.5, n)) * 0.005
        return x, 2.0 + np.sin(3.0 * x)
    x = np.linspace(-3.5, 3.5, n)
    return x, 1.0 + 0.5 * np.exp(-x * x)


@pytest.mark.parametrize("n", [4, 5, 29, 401, 2000])
def test_tabulated_spline_is_scipy_cubic_spline_bit_for_bit(n):
    # the plain path the numpy spline replaces is the oracle
    from scipy.interpolate import CubicSpline
    x, a = _spline_table(n)
    prof, plain = TabulatedProfile(x, a), CubicSpline(x, a)
    inner = np.linspace(x[0], x[-1], 5001)[1:-1]
    for pts in (x, inner, x[:1], x[-1:]):  # the last knot: interval n - 2
        for nu, fn in enumerate((prof.area, prof.d_area, prof.dd_area)):
            assert np.array_equal(fn(pts), plain(pts, nu)), (nu, pts[:3])


def test_tabulated_scalar_input_gives_a_float():
    prof = TabulatedProfile(*_spline_table(29))
    for fn in (prof.area, prof.d_area, prof.dd_area, prof.dlog):
        assert type(fn(0.3)) is float
        assert fn(0.3) == fn(np.array([0.3]))[0]


def test_tabulated_run_leaves_scipy_interpolate_unimported():
    # the small_steps tabulated case: profile, context and a few steps
    code = """if True:
        import sys
        import numpy as np
        from nozzleflow.geometry import TabulatedProfile
        from nozzleflow.solver import (BoundarySpec, FluidField, Grid,
                                       SolverContext, step)
        from nozzleflow.thermo import GasLaw
        xs = np.linspace(-3.5, 3.5, 29)
        profile = TabulatedProfile.from_columns(xs, 1.0 + 0.5 * np.exp(-xs * xs))
        g, grid = GasLaw(2.0, delta=1e-3), Grid(-3.0, 3.0, 96)
        rho = 0.7 + 0.3 * np.exp(-grid.x ** 2)
        bc = BoundarySpec.dirichlet_nozzle(rho[0], 0.0, rho[-1], 0.0)
        ctx = SolverContext(grid, g, profile, 0.05, bc)
        field = FluidField(grid, rho, np.zeros_like(rho))
        dt = 0.3 * grid.dx / ctx.max_wave_speed(field.rho, field.m)
        for _ in range(5):
            field = step(field, g, profile, 0.05, bc, dt, ctx=ctx)
        assert np.all(np.isfinite(field.rho)) and field.t > 0
        print("scipy.interpolate" in sys.modules)
    """
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(geometry.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize("text,message", [
    ("0 1\n1 nan\n2 1\n3 1\n", "A column holds a non-finite value"),
    ("0 1\n1 1e400\n2 1\n3 1\n", "A column holds a non-finite value"),
    ("0 1\ninf 1\n2 1\n3 1\n", "x column holds a non-finite value"),
    ("# x A\n", "the table has no rows"),
], ids=["nan_A", "inf_A", "inf_x", "empty"])
def test_tabulated_file_refuses_non_finite_and_empty_tables(tmp_path, text,
                                                            message):
    path = tmp_path / "area.dat"
    path.write_text(text)
    with pytest.raises(ConfigError, match=message) as err:
        TabulatedProfile.from_file(path)
    assert str(path) in str(err.value)


def test_tabulated_refuses_non_finite_derivative_columns():
    x = np.linspace(0.0, 1.0, 11)
    a = 2.0 + np.sin(x)
    bad = np.cos(x)
    bad[3] = np.nan
    with pytest.raises(ConfigError, match="A' column"):
        TabulatedProfile.from_columns(x, a, d_a=bad)
    with pytest.raises(ConfigError, match="A'' column"):
        TabulatedProfile.from_columns(x, a, dd_a=bad)


def test_make_profile_unknown_kind():
    with pytest.raises(ConfigError):
        make_profile("venturi")
