import numpy as np
import pytest
from scipy.integrate import quad

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


def test_riemann_R_table_matches_direct():
    g = GasLaw(5.0, delta=1e-4)
    pts = np.geomspace(1e-6, 50.0, 25)
    tab = g.riemann_R_table(pts)
    direct = np.array([g.riemann_R(float(p)) for p in pts])
    assert np.max(np.abs(tab - direct) / (1.0 + direct)) < 1e-7


@pytest.mark.parametrize("gamma", [5.0, 10.0])
def test_riemann_R_table_is_relative_1e7_across_the_crossover(gamma):
    # rho^(gamma - 2) = 2 delta / (kappa gamma) at 0.037 (gamma 5) and 0.24
    # (gamma 10): relative, not absolute, accuracy on both sides of it
    g = GasLaw(gamma, delta=1e-4)
    pts = np.geomspace(1e-4, 30.0, 61)
    tab = g.riemann_R_table(pts)
    direct = np.array([g.riemann_R(float(p)) for p in pts])
    assert np.max(np.abs(tab / direct - 1.0)) < 1e-7


def test_riemann_table_overflow_is_a_quadrature_error():
    # rho^(gamma-1) leaves the float range inside the table's rho <= 1e4
    g = GasLaw(100.0, delta=1e-4)
    with np.errstate(over="ignore"), \
            pytest.raises(QuadratureError, match="gamma = 100"):
        g.riemann_invariants(np.array([0.5, 1.0]), np.zeros(2))


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
