"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they pass.  The two viscosity sweeps are shared module fixtures;
everything else is self-contained.
"""

import numpy as np
import pytest

from helpers import (assert_same_series, manufactured_error,
                     whole_field_monitors)
from nozzleflow.diagnostics import (default_generator_family,
                                    default_test_functions, weak_residual)
from nozzleflow.entropy import (EntropyKernel, ReferenceState, gen_bump,
                                gen_half_square,
                                gen_linear, gen_one, gen_quartic,
                                gen_smoothed_abs, get_kernel,
                                mechanical_energy, special_pair_check,
                                weight_moment)
from nozzleflow.geometry import (ConstantProfile, ExponentialProfile,
                                 GaussianBumpProfile, PowerLawClosingProfile,
                                 SphericalProfile)
from nozzleflow import entropy, harness
from nozzleflow.harness import (RunConfig, lp_distance, single_run, sweep,
                                write_snapshot_csv)
from nozzleflow.schedule import certify, make_default
from nozzleflow.solver import (BoundarySpec, FluidField, Grid, SolverContext,
                               step)
from nozzleflow.thermo import GasLaw
from plain_recorder import PlainRecorder
from plain_weak_residual import plain_weak_residual


def _verdict(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number:02d} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def _sweep_config(gamma: float) -> RunConfig:
    # inflow Riemann data: the velocity integrals must be O(1) at every rung
    # for the uniformity comparison to be meaningful
    return RunConfig.from_mapping(dict(
        gamma=gamma, profile="constant", bc="dirichlet_nozzle",
        rho_minus=1.0, rho_plus=0.125, u_minus=0.75, u_plus=0.0,
        init="riemann", blend_width=1.0,
        t_end=0.5, dx=1.0 / 128.0, eps0=0.1, n_eps=6, snapshots=97,
        window_lo=-1.0, window_hi=1.0, workers=1, weak_residuals=True,
        check_riemann=False,
    ))


@pytest.fixture(scope="module")
def sweep_gamma2():
    return sweep(_sweep_config(2.0))


@pytest.fixture(scope="module")
def sweep_gamma5():
    return sweep(_sweep_config(5.0))


# ---------------------------------------------------------------------------


def test_01_entropy_kernel_closed_forms():
    rng = np.random.default_rng(42)
    worst = 0.0
    for gamma in (1.2, 1.4, 2.0, 3.0, 5.0, 7.0):
        g = GasLaw(gamma)
        c = weight_moment(g.lambda_exp, 0)
        kern = get_kernel(g)
        rho = rng.uniform(0.01, 5.0, 1000)
        u = rng.uniform(0.05, 3.0, 1000) * rng.choice([-1.0, 1.0], 1000)
        m = rho * u
        eta1, q1 = kern.pair_certified(gen_one(), rho, m)
        etas, qs = kern.pair_certified(gen_linear(), rho, m)
        etah, _ = kern.pair_certified(gen_half_square(), rho, m)
        e_star, _ = mechanical_energy(g, rho, m)
        flux = c * (m * m / rho + g.kappa * rho ** gamma)
        worst = max(
            worst,
            np.max(np.abs(eta1 - c * rho) / np.abs(c * rho)),
            np.max(np.abs(q1 - c * m) / np.abs(c * m)),
            np.max(np.abs(etas - c * m) / np.abs(c * m)),
            np.max(np.abs(qs - flux) / np.abs(flux)),
            np.max(np.abs(etah - c * e_star) / np.abs(c * e_star)),
        )
    _verdict(1, f"kernel closed forms, worst rel err {worst:.2e}", worst < 1e-9)


def test_02_compatibility_relation():
    rng = np.random.default_rng(43)
    g = GasLaw(1.4)
    kern = get_kernel(g)
    gens = [gen_half_square(), gen_quartic(), gen_smoothed_abs(0.0, 0.5),
            gen_bump(0.0, 2.0)]
    rho = rng.uniform(0.2, 3.0, 100)
    m = rho * rng.uniform(-2.0, 2.0, 100)
    h = 1e-5
    worst = 0.0
    for gen in gens:
        qr = (kern.pair(gen, rho + h, m)[1]
              - kern.pair(gen, rho - h, m)[1]) / (2 * h)
        qm = (kern.pair(gen, rho, m + h)[1]
              - kern.pair(gen, rho, m - h)[1]) / (2 * h)
        er = (kern.pair(gen, rho + h, m)[0]
              - kern.pair(gen, rho - h, m)[0]) / (2 * h)
        em = (kern.pair(gen, rho, m + h)[0]
              - kern.pair(gen, rho, m - h)[0]) / (2 * h)
        u = m / rho
        pp = g.kappa * g.gamma * rho ** (g.gamma - 1.0)
        scale = 1.0 + np.abs(qr) + np.abs(qm)
        worst = max(worst,
                    np.max(np.abs(qr - em * (pp - u * u)) / scale),
                    np.max(np.abs(qm - (er + 2.0 * u * em)) / scale))
    _verdict(2, f"compatibility relation, worst defect {worst:.2e}",
             worst < 1e-5)


def test_03_steady_state_exactness():
    g = GasLaw(2.0, delta=1e-4)
    eps = 0.05
    cases = [
        (ConstantProfile(), Grid(-4.0, 4.0, 48), "nozzle"),
        (GaussianBumpProfile(), Grid(-4.0, 4.0, 48), "nozzle"),
        (PowerLawClosingProfile(1.0), Grid(-4.0, 4.0, 48), "nozzle"),
        (ExponentialProfile(0.4), Grid(-4.0, 4.0, 48), "nozzle"),
        (SphericalProfile(n_dim=3), Grid(0.5, 6.0, 48), "spherical"),
    ]
    worst = 0.0
    for prof, grid, mode in cases:
        rho_bar = 0.7
        bc = (BoundarySpec.dirichlet_nozzle(rho_bar, 0.0, rho_bar, 0.0)
              if mode == "nozzle"
              else BoundarySpec.dirichlet_spherical(rho_bar))
        f = FluidField(grid, np.full(grid.n_nodes, rho_bar),
                       np.zeros(grid.n_nodes))
        ctx = SolverContext(grid, g, prof, eps, bc)
        dt = 0.4 * grid.dx / ctx.max_wave_speed(f.rho, f.m)
        for _ in range(10_000):
            f = step(f, g, prof, eps, bc, dt, ctx=ctx)
        worst = max(worst, float(np.max(np.abs(f.rho - rho_bar))),
                    float(np.max(np.abs(f.m))))
    _verdict(3, f"steady states over 1e4 steps, drift {worst:.2e}",
             worst < 1e-10)


def test_04_manufactured_solution_order():
    g = GasLaw(2.0, delta=0.01)
    errs = [manufactured_error(n, g, eps=0.05) for n in (200, 400, 800)]
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    _verdict(4, f"manufactured-solution orders {np.round(orders, 3)}",
             bool(np.all(orders >= 1.8)))


def test_05_spherical_energy_inequality():
    eps = 0.05
    cfg = RunConfig.from_mapping(dict(
        gamma=2.0, profile="spherical", profile_n=3, bc="dirichlet_spherical",
        init="bump", init_amp=1.0, init_center=2.0, init_width=1.0,
        mollify_width=0.0, blend_width=0.5,
        t_end=0.5, dx=(1.0 / eps - eps) / 800.0, snapshots=33,
        eps=eps, window_lo=0.5, window_hi=4.0, workers=1,
    ))
    rep = single_run(cfg, eps=eps, collect_snapshots=False).report
    # max(E + D) against E0 (1 + diagnostics.ENERGY_TOL), ENERGY_TOL = 1e-3
    check = rep.checks["energy_inequality_sharp"]
    excess = check.value / rep.energy[0] - 1.0
    _verdict(5, f"sharp energy inequality, max excess {excess:.2e}: {check}",
             bool(check))


def test_06_nozzle_spherical_consistency():
    g = GasLaw(2.0, delta=1e-3)
    prof = SphericalProfile(n_dim=3)
    grid = Grid(1.0, 2.0, 128)
    x = grid.x
    rho_bar = 0.5
    s = (x - 1.5) / 0.3
    rho0 = rho_bar + 0.3 * np.where(np.abs(s) < 1.0,
                                    np.exp(1.0 - 1.0 / np.maximum(1 - s * s, 1e-12)),
                                    0.0)
    eps = 0.05
    trajs = []
    for bc in (BoundarySpec.dirichlet_nozzle(rho_bar, 0.0, rho_bar, 0.0),
               BoundarySpec.dirichlet_spherical(rho_bar)):
        f = FluidField(grid, rho0.copy(), np.zeros_like(x))
        ctx = SolverContext(grid, g, prof, eps, bc)
        dt = 0.3 * grid.dx / 1.2
        states = []
        for _ in range(1000):
            f = step(f, g, prof, eps, bc, dt, ctx=ctx)
            states.append((f.rho.copy(), f.m.copy()))
        trajs.append(states)
    worst = max(max(np.max(np.abs(a[0] - b[0])), np.max(np.abs(a[1] - b[1])))
                for a, b in zip(*trajs))
    _verdict(6, f"nozzle/spherical trajectories differ by {worst:.2e}",
             worst < 1e-12)


def test_07_maximum_principle_monitor():
    ok = True
    details = []
    for eps in (0.1, 0.05):
        cfg = RunConfig.from_mapping(dict(
            gamma=2.0, profile="gaussian_bump", bc="dirichlet_nozzle",
            rho_minus=1.0, rho_plus=0.125, u_minus=0.0, u_plus=0.0,
            init="riemann", blend_width=1.0,
            t_end=1.0, dx=1.0 / 128.0, snapshots=33,
            eps=eps, delta=1e-4, riemann_tol=1e-3, workers=1,
        ))
        rep = single_run(cfg, eps=eps, collect_snapshots=False).report
        ok = ok and rep.checks["max_w_corrected_nonincreasing"] \
            and rep.checks["min_z_corrected_nondecreasing"]
        details.append(f"eps={eps}: corr(T)={rep.correction[-1]:.3f}")
    _verdict(7, "corrected invariant extremes monotone; " + "; ".join(details),
             ok)


def test_08_integrability_uniformity(sweep_gamma2, sweep_gamma5):
    ok = True
    details = []
    for label, res in (("gamma=2", sweep_gamma2), ("gamma=5", sweep_gamma5)):
        # the default four-rung ladder is the head of the sweep ladder
        recs = res.integrability[:4]
        base = recs[0]
        worst = 0.0
        for key in ("rho_gamma_plus_one", "delta_rho_cubed", "rho_u_cubed",
                    "rho_gamma_theta"):
            v0 = getattr(base, key)
            for rec in recs[1:]:
                v = getattr(rec, key)
                if v > 1e-300:
                    worst = max(worst, v / max(v0, 1e-300))
        details.append(f"{label}: worst ratio {worst:.3f}")
        ok = ok and worst <= 1.5
    _verdict(8, "windowed integrals uniform; " + "; ".join(details), ok)


def test_09_cauchy_convergence(sweep_gamma2, sweep_gamma5):
    ok = True
    details = []
    for label, res in (("gamma=2", sweep_gamma2), ("gamma=5", sweep_gamma5)):
        ok = ok and res.passed  # also the exit status of nozzleflow sweep
        details.append(f"{label}: rho ratios "
                       f"{np.round(res.series['ratios_rho'], 3)}, m ratios "
                       f"{np.round(res.series['ratios_m'], 3)}")
    _verdict(9, "L1 distances Cauchy; " + "; ".join(details), ok)


def test_10_entropy_inequality_residuals(sweep_gamma2, sweep_gamma5):
    ok = True
    details = []
    for label, res in (("gamma=2", sweep_gamma2), ("gamma=5", sweep_gamma5)):
        violations = np.array([rec.max_entropy_violation for rec in res.weak])
        decreasing = bool(np.all(np.diff(violations) <= 1e-12))
        ok = ok and decreasing and violations[-1] <= 1e-2
        details.append(f"{label}: violations {np.round(violations, 4)}")
    _verdict(10, "entropy residuals small and shrinking; " + "; ".join(details),
             ok)


def test_weak_residual_matches_plain_evaluation(sweep_gamma2, sweep_gamma5):
    # the contracted, unique-state evaluation against the direct one on the
    # coarsest and the finest rung, with the sweep's tests and generators
    for res, gamma in ((sweep_gamma2, 2.0), (sweep_gamma5, 5.0)):
        cfg = _sweep_config(gamma)
        K = (cfg.window_lo, cfg.window_hi)
        tests = default_test_functions(0.02 * cfg.t_end, 0.98 * cfg.t_end, K)
        gens = default_generator_family((-1.0, 0.0, 1.0))
        for rung in (res.runs[0], res.runs[-1]):
            args = (rung.snapshots, cfg.build_gas(rung.eps),
                    cfg.build_profile(), tests, gens)
            fast, plain = weak_residual(*args), plain_weak_residual(*args)
            for name in ("mass", "momentum", "entropy", "norms"):
                a, b = getattr(fast, name), getattr(plain, name)
                assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), \
                    (gamma, rung.eps, name)


def test_weak_residual_default_rule_matches_512_nodes(sweep_gamma2,
                                                     sweep_gamma5):
    # on every rung of both sweeps, the residual on each chunk's own node
    # count against every callable on 512 nodes: each row within 1e-12 of
    # its largest entry, and each generator's reported quadrature error at
    # least the error its states' moments show
    real = EntropyKernel.moments
    seen = []

    def spy(self, gens, rho_f, m_f, max_order=0, n=None, errors=None):
        seen.append((self, gens, rho_f, m_f, max_order))
        return real(self, gens, rho_f, m_f, max_order, n, errors)

    def fine(self, gens, rho_f, m_f, max_order=0, n=None, errors=None):
        return real(self, gens, rho_f, m_f, max_order, 512, errors)
    for res, gamma in ((sweep_gamma2, 2.0), (sweep_gamma5, 5.0)):
        cfg = _sweep_config(gamma)
        K = (cfg.window_lo, cfg.window_hi)
        tests = default_test_functions(0.02 * cfg.t_end, 0.98 * cfg.t_end, K)
        gens = default_generator_family((-1.0, 0.0, 1.0))
        for rung, rec in zip(res.runs, res.weak):
            args = (rung.snapshots, cfg.build_gas(rung.eps),
                    cfg.build_profile(), tests, gens)
            seen.clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(EntropyKernel, "moments", spy)
                default = weak_residual(*args)
                mp.setattr(EntropyKernel, "moments", fine)
                ref = weak_residual(*args)
            assert default.entropy.tobytes() == rec.entropy.tobytes()
            for name in ("mass", "momentum", "entropy"):
                a, b = getattr(default, name), getattr(ref, name)
                scale = np.max(np.abs(b), axis=-1, keepdims=True)
                assert np.all(np.abs(a - b) <= 1e-12 * scale), \
                    (gamma, rung.eps, name)
            (kern, fam, rho_f, m_f, order), = seen
            fast = real(kern, fam, rho_f, m_f, order)
            slow = real(kern, fam, rho_f, m_f, order, 512)
            for gen, M, R, est in zip(fam, fast, slow, rec.quadrature_error):
                if gen.pieces:
                    assert est == 0.0
                    continue
                scale = np.max(np.abs(np.array(list(R.values()))), axis=0)
                err = np.max(np.abs(np.array([M[k] - R[k] for k in R])) / scale)
                assert err <= est <= 2.0 * entropy.KERNEL_RTOL, \
                    (gamma, rung.eps, gen.name, err, est)


def test_hull_monitors_match_whole_field_on_every_rung(sweep_gamma2,
                                                     sweep_gamma5, tmp_path):
    # each rung again with every node stored, so that the monitors see the
    # whole grid: the same fields, snapshots, distances and final CSV bit
    # for bit, the same series to 1e-13, checks and therefore verdicts
    for res, gamma in ((sweep_gamma2, 2.0), (sweep_gamma5, 5.0)):
        cfg = _sweep_config(gamma)
        with pytest.MonkeyPatch.context() as mp:
            whole_field_monitors(mp)
            plain = [single_run(cfg, eps=rung.eps) for rung in res.runs]
        for rung, whole in zip(res.runs, plain):
            n = rung.field.grid.n_nodes
            lo, hi = rung.report.hull
            assert hi - lo < n and rung.ctx.hi - rung.ctx.lo < n
            assert (whole.ctx.lo, whole.ctx.hi) == (0, n)
            field, other = rung.field.whole(), whole.field.whole()
            for name in ("rho", "m"):
                assert getattr(field, name).tobytes() == \
                    getattr(other, name).tobytes()
                assert getattr(rung.snapshots, name).tobytes() == \
                    getattr(whole.snapshots, name).tobytes()
            assert_same_series(rung.report, whole.report)
            texts = []
            for out in (rung, whole):
                write_snapshot_csv(tmp_path / "final.csv", out.field, out.ctx,
                                   cfg.cfl)
                texts.append((tmp_path / "final.csv").read_bytes())
            assert texts[0] == texts[1]
        K = (cfg.window_lo, cfg.window_hi)
        for name, p in (("rho", cfg.p_rho), ("m", cfg.q_mom)):
            d = [lp_distance(a.snapshots, b.snapshots, K, p, name)
                 for a, b in zip(plain, plain[1:])]
            assert np.array(d).tobytes() == res.series[f"d_{name}"].tobytes()


def test_stacked_monitors_match_per_sample_evaluation_on_every_rung(
        sweep_gamma2):
    # each gamma 2 rung again with the per-sample Recorder: the same
    # fields and snapshots bit for bit, the same series to 1e-13 and checks
    cfg = _sweep_config(2.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "Recorder", PlainRecorder)
        plain = [single_run(cfg, eps=rung.eps) for rung in sweep_gamma2.runs]
    for rung, other in zip(sweep_gamma2.runs, plain):
        assert rung.field.rho.tobytes() == other.field.rho.tobytes()
        for name in ("rho", "m"):
            assert getattr(rung.snapshots, name).tobytes() == \
                getattr(other.snapshots, name).tobytes()
        assert_same_series(rung.report, other.report)


def test_11_special_pair_sign():
    worst, ok = -np.inf, True
    for gamma in (1.4, 2.0, 3.0, 5.0):
        for rho_minus in (0.1, 1.0):
            for u_minus in (0.0, 1.0):
                ref = ReferenceState(rho_minus, u_minus, 0.5, 0.0)
                rep = special_pair_check(GasLaw(gamma), ref,
                                         np.array([1.0]), np.array([0.0]))
                worst = max(worst, rep.checks["q_tilde_at_ref"].value)
                ok = ok and rep.passed
    _verdict(11, f"companion-flux linearization sign, max value {worst:.3e}",
             ok)


def test_12_schedule_certificates():
    profiles = [ConstantProfile(), GaussianBumpProfile(),
                SphericalProfile(n_dim=2), SphericalProfile(n_dim=3),
                SphericalProfile(n_dim=4)]
    ok = True
    combined = []
    for prof in profiles:
        # every quantity against the schedule's budget M = 10
        rep = certify(make_default(prof, gamma=2.0), prof, GasLaw(2.0))
        ok = ok and rep.passed
        if "eq_3_6_combined" in rep.checks:
            combined.append(rep.checks["eq_3_6_combined"])
    tightest = min(combined, key=lambda check: check.margin)
    _verdict(12, f"default ladders certified (combined bound {tightest})", ok)
