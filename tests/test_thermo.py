import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import hyp2f1

from nozzleflow import thermo
from nozzleflow.errors import DomainError, QuadratureError
from nozzleflow.thermo import GasLaw, default_kappa


def test_default_kappa_normalization():
    assert default_kappa(2.0) == pytest.approx(0.125)
    g = GasLaw(2.0)
    assert g.kappa == pytest.approx(0.125)
    assert GasLaw(3.0, 0.7).kappa == 0.7  # override survives


def test_derived_exponents():
    g = GasLaw(2.0)
    assert g.theta == 0.5
    assert g.lambda_exp == 0.5
    for gamma in (1.2, 1.4, 2.0, 3.0, 5.0, 7.0):
        assert GasLaw(gamma).lambda_exp > -0.5


def test_pressure_examples():
    assert GasLaw(2.0).pressure(1.0) == pytest.approx(0.125)
    assert GasLaw(5.0, delta=0.3).pressure(0.0) == 0.0
    assert GasLaw(2.0, delta=0.01).pressure(2.0) == pytest.approx(0.54)
    with pytest.raises(DomainError):
        GasLaw(2.0).pressure(-1.0)


@pytest.mark.parametrize("method", [
    "pressure", "pressure_gamma", "pressure_prime", "sound_speed", "h_delta",
    "e_delta", "h_delta_prime", "h_delta_second", "riemann_R"])
@pytest.mark.parametrize("delta", [0.0, 1e-3])
def test_public_methods_reject_negative_density(method, delta):
    # the solver's unchecked kernels sit behind these; the public entry
    # points keep validating
    g = GasLaw(2.0, delta=delta)
    for rho in (-1.0, np.array([1.0, -1e-300])):
        with pytest.raises(DomainError):
            getattr(g, method)(rho)
    with pytest.raises(DomainError):
        g.riemann_invariants(np.array([1.0, -1.0]), np.zeros(2))


def test_gas_law_validation():
    with pytest.raises(DomainError):
        GasLaw(1.0)
    with pytest.raises(DomainError):
        GasLaw(2.0, delta=-0.1)


@pytest.mark.parametrize("fields", [
    dict(gamma=np.inf), dict(gamma=2.0, kappa=np.nan),
    dict(gamma=2.0, kappa=np.inf), dict(gamma=2.0, delta=np.nan)])
def test_gas_law_rejects_non_finite_fields(fields):
    with pytest.raises(DomainError):
        GasLaw(**fields)


def test_h_delta_closed_form_and_quadrature():
    g = GasLaw(2.0)
    assert g.h_delta(1.0) == pytest.approx(0.125)
    assert g.h_delta(0.0) == 0.0
    # independent oracle: rho * int_0^rho p(s)/s^2 ds by adaptive quadrature
    g2 = GasLaw(3.0, 1.0 / 3.0, delta=0.5)
    rho = 2.0
    oracle = rho * quad(lambda s: g2.pressure(s) / s ** 2, 0.0, rho,
                        epsabs=1e-12)[0]
    assert oracle == pytest.approx(10.0 / 3.0, rel=1e-10)
    assert g2.h_delta(rho) == pytest.approx(oracle, rel=1e-10)
    assert g2.e_delta(rho) == pytest.approx(oracle / rho, rel=1e-10)


def test_h_second_is_pressure_prime_over_rho():
    rng = np.random.default_rng(3)
    for _ in range(40):
        gamma = rng.uniform(1.1, 6.0)
        delta = rng.uniform(0.0, 0.5)
        g = GasLaw(gamma, delta=delta)
        rho = rng.uniform(0.05, 8.0, 25)
        lhs = g.h_delta_second(rho)
        rhs = g.pressure_prime(rho) / rho
        assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) < 1e-8


def test_riemann_R_closed_form_delta_zero():
    g = GasLaw(3.0)  # theta = 1
    assert g.riemann_R(0.7) == pytest.approx(0.7, rel=1e-12)
    assert g.riemann_R(0.0) == 0.0
    g2 = GasLaw(2.0)  # theta = 1/2 with the normalized kappa
    assert g2.riemann_R(0.49) == pytest.approx(0.7, rel=1e-12)


def test_riemann_R_quadrature_oracle():
    g = GasLaw(2.0, delta=0.1)
    oracle = quad(lambda s: np.sqrt(g.pressure_prime(s)) / s, 0.0, 1.0,
                  epsabs=1e-13, limit=300)[0]
    assert g.riemann_R(1.0) == pytest.approx(oracle, abs=1e-10)


def _riemann_R_closed_form(g, rho):
    # Euler's integral (DLMF 15.6.1) with the larger term of p' factored out
    # at rho -> 0: a = theta/(2 - gamma) below gamma 2, the mirror form with
    # b = 1/(2 (gamma - 2)) above it; gamma 2 is a pure power law
    kg, c = g.kappa * g.gamma, 2.0 * g.delta / (g.kappa * g.gamma)
    if g.gamma < 2.0:
        a = g.theta / (2.0 - g.gamma)
        return (np.sqrt(kg) * rho ** g.theta / g.theta
                * hyp2f1(-0.5, a, 1.0 + a, -c * rho ** (2.0 - g.gamma)))
    if g.gamma == 2.0:
        return 2.0 * np.sqrt((kg + 2.0 * g.delta) * rho)
    b = 1.0 / (2.0 * (g.gamma - 2.0))
    return (2.0 * np.sqrt(2.0 * g.delta * rho)
            * hyp2f1(-0.5, b, 1.0 + b, -rho ** (g.gamma - 2.0) / c))


@pytest.mark.parametrize("gamma", [1.001, 1.005, 1.01, 1.05, 1.4, 1.9, 2.0, 2.1, 5.0, 10.0])
def test_riemann_R_matches_the_hypergeometric_closed_form(gamma):
    # 400 points of [2e-9, 5e3]: the crossover rho^(gamma - 2) = 2 delta /
    # (kappa gamma) sits at 0.037 (gamma 5) and 0.24 (gamma 10)
    g = GasLaw(gamma, delta=1e-4)
    pts = np.geomspace(2e-9, 5e3, 400)
    R = g.riemann_R(pts)
    assert np.max(np.abs(R / _riemann_R_closed_form(g, pts) - 1.0)) < 1e-13
    assert [g.riemann_R(float(p)) for p in pts[::37]] == list(R[::37])


@pytest.mark.parametrize("delta", [1e-4, 0.1])
def test_gamma_2_closed_form_R_matches_the_wave_table(delta):
    # at gamma 2, p' = (kappa gamma + 2 delta) rho: the closed form replaces
    # the table path, which still evaluates on the same states
    g = GasLaw(2.0, delta=delta)
    rho = np.geomspace(g.rho_floor, 1e3, 500)
    R = g.riemann_R(rho)
    assert "_wave_table" not in vars(g)   # the closed form builds no table
    assert np.max(np.abs(R / g._table_R(rho) - 1.0)) < 1e-13
    assert [g.riemann_R(float(r)) for r in rho] == list(R)


@pytest.mark.parametrize("gamma", [1.05, 1.4])
def test_riemann_invariants_below_1e_9_use_the_true_R(gamma):
    g = GasLaw(gamma, delta=1e-4)
    rho = np.array([g.rho_floor, 5e-12, 5e-10, 9.9e-10])
    R = _riemann_R_closed_form(g, rho)
    w, z = g.riemann_invariants(rho, np.full(4, 0.25))
    np.testing.assert_allclose(w, 0.25 + R, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(z, 0.25 - R, rtol=1e-13, atol=0.0)
    assert g.riemann_invariants(5e-10, 0.0)[0] == pytest.approx(R[2], rel=1e-13)


def test_wave_table_spans_gamma_1_001_to_300_and_ends_with_a_domain_error():
    # p'(rho) = kappa gamma rho^(gamma - 1) + 2 delta rho reaches the float
    # range near rho = 10.4 at gamma 300 and 1.2e3 at gamma 100
    for gamma in (1.001, 100.0, 300.0):
        g = GasLaw(gamma, delta=1e-4)
        R = g.riemann_R(np.array([g.rho_floor, 1.0, 10.0]))
        assert np.all(np.isfinite(R)) and np.all(np.diff(R) > 0.0)
    with pytest.raises(DomainError, match=r"rho = 1000 .* gamma = 300"):
        GasLaw(300.0, delta=1e-4).riemann_invariants(np.array([0.5, 1e3]), np.zeros(2))
    with pytest.raises(DomainError, match=r"rho = 10000 .* gamma = 100"):
        GasLaw(100.0, delta=1e-4).riemann_R(1e4)


def test_wave_table_check_fails_on_a_coarse_rule(monkeypatch):
    # the 1- and 2-point rules differ by about (h d/dy log sqrt(p'))^2 / 24
    # per segment, far above the 1e-14 the check allows
    # (gamma 5: at gamma 2, R has a closed form and builds no table)
    monkeypatch.setattr(thermo, "WAVE_POINTS", 1)
    with pytest.raises(QuadratureError, match="gamma = 5: the 1- and 2-point"):
        GasLaw(5.0, delta=1e-4).riemann_R(1.0)


def test_import_leaves_out_scipy_integrate_and_interpolate(tmp_path):
    # nor scipy.linalg: LAPACK comes from its compiled module alone, after
    # import and through a CLI check, a run and a 3-rung sweep with weak
    # residuals; nor concurrent or multiprocessing: a sweep steps its rungs
    # in one process; nor numpy.ma (np.unique's masked check) or
    # numpy.polynomial (the Legendre rule and the spline's composition)
    run_cfg, sweep_cfg = tmp_path / "run.cfg", tmp_path / "sweep.cfg"
    run_cfg.write_text(f"dx = 0.0625\nt_end = 0.1\nsnapshots = 5\n"
                       f"output_dir = {tmp_path / 'run'}\n")
    sweep_cfg.write_text(f"n_eps = 3\ndx = 0.0625\nt_end = 0.1\nsnapshots = 5\n"
                         f"u_minus = 0.75\ncheck_riemann = false\n"
                         f"weak_residuals = true\noutput_dir = {tmp_path / 'sweep'}\n")
    code = ("import sys, nozzleflow\n"
            "from nozzleflow.cli import main\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules\n"
            "                  if m in ('scipy.linalg', 'numpy.ma', 'numpy.polynomial')\n"
            "                  or m.startswith(('scipy.integrate', 'scipy.interpolate',\n"
            "                                   'concurrent', 'multiprocessing',\n"
            "                                   'numpy.ma.', 'numpy.polynomial.')))\n"
            "print('loaded:', loaded())\n"
            f"assert main(['check', {str(sweep_cfg)!r}]) == 0\n"
            "print('loaded:', loaded())\n"
            f"assert main(['run', {str(run_cfg)!r}]) == 0\n"
            "print('loaded:', loaded())\n"
            f"assert main(['sweep', {str(sweep_cfg)!r}]) == 0\n"
            "print('loaded:', loaded())\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(thermo.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert [ln for ln in out.splitlines() if ln.startswith("loaded:")] == \
        ["loaded: []"] * 4


def test_riemann_R_derivative_identity():
    # dR/drho = sqrt(p'(rho)) / rho against centered differences at step 1e-5
    rng = np.random.default_rng(11)
    h = 1e-5
    for _ in range(24):
        gamma = rng.uniform(1.2, 6.0)
        delta = rng.uniform(1e-4, 0.5)
        g = GasLaw(gamma, delta=delta)
        for rho in rng.uniform(0.1, 5.0, 3):
            fd = (g.riemann_R(rho + h) - g.riemann_R(rho - h)) / (2.0 * h)
            exact = np.sqrt(g.pressure_prime(rho)) / rho
            assert abs(fd - exact) / abs(exact) < 1e-6


@pytest.mark.parametrize("gamma", [40.0, 77.0, 100.0, 300.0])
def test_riemann_R_derivative_identity_at_large_gamma(gamma):
    # relative step 1e-7: R grows like rho^((gamma - 1)/2) above the crossover
    g = GasLaw(gamma, delta=1e-4)
    rho = np.geomspace(1e-3, 8.0, 9)
    h = 1e-7 * rho
    fd = (g.riemann_R(rho + h) - g.riemann_R(rho - h)) / (2.0 * h)
    exact = np.sqrt(g.pressure_prime(rho)) / rho
    assert np.max(np.abs(fd / exact - 1.0)) < 1e-6


def test_riemann_invariants():
    g = GasLaw(3.0)
    w, z = g.riemann_invariants(2.0, 1.0)
    assert (w, z) == (pytest.approx(3.0), pytest.approx(-1.0))
    w, z = g.riemann_invariants(1.3, 0.0)
    assert w == pytest.approx(-z)
    w, z = g.riemann_invariants(1e-11, 5.0)
    assert w == pytest.approx(5.0, abs=1e-5)
    assert z == pytest.approx(5.0, abs=1e-5)
    with pytest.raises(DomainError):
        g.riemann_invariants(0.0, 1.0)
    rng = np.random.default_rng(5)
    rho = rng.uniform(0.01, 4.0, 100)
    u = rng.uniform(-3.0, 3.0, 100)
    w, z = g.riemann_invariants(rho, u)
    assert np.all(w >= z)


def test_eigenvalue_ordering():
    rng = np.random.default_rng(6)
    for gamma, delta in [(1.4, 0.0), (2.0, 0.2), (5.0, 1e-3)]:
        g = GasLaw(gamma, delta=delta)
        rho = rng.uniform(1e-3, 5.0, 200)
        u = rng.uniform(-2.0, 2.0, 200)
        c = g.sound_speed(rho)
        assert np.all(u - c < u + c)
        assert np.all(c > 0)


def test_velocity_vacuum_guard():
    g = GasLaw(2.0)
    assert g.velocity(0.0, 0.5) == 0.0
    assert g.velocity(2.0, 1.0) == 0.5
    out = g.velocity(np.array([0.0, 1.0]), np.array([3.0, 3.0]))
    assert out[0] == 0.0 and out[1] == 3.0
