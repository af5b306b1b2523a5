import math

import numpy as np
import pytest

from nozzleflow.checks import Check, Report
from nozzleflow.errors import ConfigError
from nozzleflow.harness import RunConfig
from nozzleflow.geometry import (ConstantProfile, ExponentialProfile,
                                 GaussianBumpProfile, NozzleProfile,
                                 PowerLawClosingProfile, SphericalProfile)
from nozzleflow.schedule import (BETA, ViscositySchedule,
                                 certificate_summary, certify, make_default)
from nozzleflow.thermo import GasLaw


def test_rule_arithmetic():
    s = ViscositySchedule((0.1, 0.05), q=3.0)
    assert s.delta_of(0.1) == pytest.approx(1e-3)
    # delta |a|^beta / eps with delta = 1e-3, |a| = 10, beta = 3, eps = 0.1
    assert s.delta_of(0.1) * abs(s.a_of(0.1)) ** 3.0 / 0.1 == pytest.approx(10.0)
    assert certify(s, ConstantProfile(), GasLaw(2.0)) \
        .series["eps_domain"][0] == pytest.approx(2.0)


def test_default_rules_symbolic_unit():
    # q = 1 + beta makes delta |a|^beta / eps identically one on the ladder
    s = ViscositySchedule(tuple(0.1 * 0.5 ** k for k in range(4)), q=5.0)
    for eps in s.eps_list:
        val = s.delta_of(eps) * abs(s.a_of(eps)) ** BETA / eps
        assert val == pytest.approx(1.0)


def test_make_default_ladder():
    s = make_default(ConstantProfile(), gamma=2.0, n_eps=4)
    assert s.eps_list == (0.1, 0.05, 0.025, 0.0125)
    assert s.q == 5.0
    assert [s.delta_of(e) for e in s.eps_list] == \
        [pytest.approx(e ** 5) for e in s.eps_list]
    sp = make_default(SphericalProfile(n_dim=3), gamma=2.0)
    assert (sp.a_of(0.1), sp.b_of(0.1)) == (0.1, 10.0)
    assert sp.rho_bar_of(0.1) == pytest.approx(0.1 ** 1.5)


def test_validation_errors():
    with pytest.raises(ConfigError):
        ViscositySchedule((), q=5.0)
    with pytest.raises(ConfigError):
        ViscositySchedule((0.05, 0.1), q=5.0)
    with pytest.raises(ConfigError):
        ViscositySchedule((0.1, 0.05), q=-1.0)
    with pytest.raises(ConfigError):
        # |a| = 1/eps must exceed L0
        ViscositySchedule((0.9, 0.45), q=5.0)


def test_certify_passes_builtin_profiles():
    for prof, gamma in [(ConstantProfile(), 2.0), (GaussianBumpProfile(), 2.0),
                        (SphericalProfile(n_dim=2), 2.0),
                        (SphericalProfile(n_dim=3), 2.0),
                        (SphericalProfile(n_dim=4), 2.0),
                        (ConstantProfile(), 5.0), (GaussianBumpProfile(), 5.0)]:
        s = make_default(prof, gamma=gamma)
        rep = certify(s, prof, GasLaw(gamma))
        assert rep.passed, certificate_summary(rep)


def test_certify_gamma_two_skips_singular_exponent():
    s = make_default(ConstantProfile(), gamma=2.0)
    rep = certify(s, ConstantProfile(), GasLaw(2.0))
    assert any("singular at gamma = 2" in msg for msg in rep.notes)
    assert "delta_area_a2_negexp" not in rep.checks
    rep5 = certify(make_default(ConstantProfile(), gamma=5.0),
                   ConstantProfile(), GasLaw(5.0))
    assert "delta_area_a2_negexp" in rep5.checks


def test_combined_quantity_bounded():
    s = make_default(GaussianBumpProfile(), gamma=2.0)
    rep = certify(s, GaussianBumpProfile(), GasLaw(2.0))
    combined = rep.checks["eq_3_6_combined"]
    assert combined and combined.bound == s.M_budget


def test_constant_profile_quantities_nonincreasing_along_ladder():
    s = make_default(ConstantProfile(), gamma=2.0, n_eps=5)
    rep = certify(s, ConstantProfile(), GasLaw(2.0))
    for key in rep.checks:
        series = rep.series[key]
        assert all(b <= a + 1e-12 for a, b in zip(series, series[1:])), key


def test_make_default_rejects_uncertifiable_profile():
    # symmetric domains cannot tame eps * sup|A''| on an exponential horn
    with pytest.raises(ConfigError):
        make_default(ExponentialProfile(rate=0.5), gamma=1.4)


def test_certify_rejects_a_gas_law_of_another_gamma():
    # the rho_bar rule would read the schedule's gamma 2, the pressure gamma 5
    prof = SphericalProfile(n_dim=3)
    with pytest.raises(ConfigError, match="gamma"):
        certify(make_default(prof, gamma=2.0), prof, GasLaw(5.0))


def test_spherical_certificate_quantities():
    s = make_default(SphericalProfile(n_dim=3), gamma=2.0)
    rep = certify(s, SphericalProfile(n_dim=3), GasLaw(2.0))
    assert rep.label == "spherical"
    assert set(rep.checks) == {"eps_domain", "rho_bar_pressure_volume",
                               "delta_volume"}
    # default rho_bar rule makes rho_bar^gamma b^n identically one
    assert rep.checks["rho_bar_pressure_volume"].value == pytest.approx(1.0)


def test_certificate_nan_quantity_fails_and_is_named():
    rep = Report(checks={
        key: Check(value, 10.0) for key, value in (
            ("finite_ok", 1.0), ("undefined", math.nan), ("large", 20.0))},
        label="duct")
    assert not rep.passed
    assert set(rep.failing()) == {"undefined", "large"}
    summary = certificate_summary(rep)
    assert "failing: undefined, large" in summary
    assert "  sup_k undefined: FAIL value=nan bound=10 margin=nan" in summary
    assert "  sup_k large: FAIL value=20 bound=10 margin=-10" in summary
    assert "  sup_k finite_ok: pass value=1 bound=10 margin=9" in summary


def test_closing_profile_certificate_is_finite_where_the_area_underflows():
    # profile_alpha = 60, eps0 = 0.001: A underflows far out on every rung,
    # yet the closed-form (A'/A)' keeps both quantities that read it finite
    cfg = RunConfig.from_mapping(dict(profile="power_law_closing",
                                      profile_alpha=60.0, eps0=0.001))
    with np.errstate(all="ignore"):
        rep = certify(cfg.build_schedule(), cfg.build_profile(),
                      GasLaw(cfg.gamma))
    for k, eps in enumerate(rep.series["eps"]):
        for name in ("eps_dlog_prime_area_domain", "eq_3_6_combined"):
            assert math.isfinite(rep.series[name][k]), (eps, name)


class _RatioFormClosing(PowerLawClosingProfile):
    """A = (1 + x^2)^-alpha with A'/A and (A'/A)' taken from the raw area."""

    _dlog = NozzleProfile._dlog
    _dlog_prime = NozzleProfile._dlog_prime


def test_certificate_keeps_a_nan_of_a_later_rung():
    # A = (1 + x^2)^-60 underflows to 0 on the eps = 0.001 rung's domain, so
    # the ratio form of (A'/A)' is NaN there; the eps = 0.01 rung is finite
    with np.errstate(all="ignore"):
        rep = certify(ViscositySchedule((0.01, 0.001), q=5.0),
                      _RatioFormClosing(60.0), GasLaw(2.0))
    assert math.isfinite(rep.series["eq_3_6_combined"][0])
    assert math.isnan(rep.series["eq_3_6_combined"][1])
    assert not rep.passed
    assert math.isnan(rep.failing()["eq_3_6_combined"].value)
    assert math.isnan(np.max([rep.series[k][1] for k in rep.checks]))


def test_certificate_series_hold_one_value_per_rung():
    for prof in (GaussianBumpProfile(), SphericalProfile(n_dim=3)):
        s = make_default(prof, gamma=2.0, n_eps=5)
        rep = certify(s, prof, GasLaw(2.0))
        assert list(rep.series["eps"]) == list(s.eps_list)
        assert set(rep.series) == {"eps"} | set(rep.checks)
        for key, check in rep.checks.items():
            assert rep.series[key].shape == (5,)
            assert check == Check(np.max(rep.series[key]), s.M_budget)


def test_default_certificate_summary_is_unchanged():
    cfg = RunConfig()
    assert certificate_summary(cfg.certify_ladder(cfg.build_profile())) == (
        "schedule certificate (duct mode), failing: none\n"
        "  sup_k delta_inv_eps_area_a: pass value=0.001 bound=10 margin=10\n"
        "  sup_k delta_inv_eps_area_abeta: pass value=1 bound=10 margin=9\n"
        "  sup_k eps_area_second: pass value=0 bound=10 margin=10\n"
        "  sup_k eps_dlog_prime_area_domain: pass value=0 bound=10 margin=10\n"
        "  sup_k eps_domain: pass value=2 bound=10 margin=8\n"
        "  sup_k eq_3_6_combined: pass value=2 bound=10 margin=8\n"
        "  [skip] delta_area_a2_negexp (exponent -4/(2 gamma - 4) singular "
        "at gamma = 2)")
