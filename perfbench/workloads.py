"""The benchmark's workloads: inputs from a seed, set-up, one pass, checks.

Each workload is split the way a user pays for it:

* ``make_inputs`` turns the seed into the run's inputs (parent process);
* ``write_inputs`` writes the config files one child process parses;
* ``setup`` is what a fresh process does before it can run: parse and
  validate the configs, build the cases, certify the ladder;
* ``run_pass`` does the work, writes the outputs, reads them back, and
  returns per operation the values the reference gate compares, plus the
  problems found by the checks that hold at every seed.  It runs its own
  checking inside ``check()``, which is a traced span in traced passes.

The seed perturbs only initial data: bump centre and amplitude, and the
Riemann left velocity.  The perturbations are small, so every seed does
nearly the same amount of work and stays inside the range where every check
passes and every verdict converges.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from pathlib import Path

DEFAULT_SEED = 0

REPORT_SERIES = ("t", "energy", "dissipation", "diss_rate_hessian",
                 "diss_rate_geometric", "llf_rate", "llf_cumulative", "max_w",
                 "min_z", "correction", "vacuum_phi", "min_rho", "quartic")


def _jitter(rng: random.Random, seed: int, half_width: float) -> float:
    return 0.0 if seed == DEFAULT_SEED else rng.uniform(-half_width, half_width)


def _config_text(values: dict) -> str:
    lines = []
    for key, val in values.items():
        if isinstance(val, bool):
            val = "true" if val else "false"
        elif isinstance(val, float):
            val = repr(val)
        lines.append(f"{key} = {val}")
    return "\n".join(lines) + "\n"


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def _capture(module, name: str, store: list):
    """Rebind module.name so each return value is also appended to store."""
    inner = getattr(module, name)

    def capture(*args, **kwargs):
        result = inner(*args, **kwargs)
        store.append(result)
        return result

    setattr(module, name, capture)


def _run_cli(nf, argv: list) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = nf.cli.main(argv)
    return code, out.getvalue()


def _csv_rows(path: Path) -> tuple[int, list[str]]:
    """Data rows (after '#' comments and the header) and the last row."""
    lines = [ln for ln in path.read_text().splitlines()
             if ln and not ln.startswith("#")]
    return len(lines) - 1, lines[-1].split(",")


class Modules:
    """The package's modules, imported once per child (part of set-up)."""

    def __init__(self):
        import nozzleflow
        import nozzleflow.cli
        import nozzleflow.geometry
        import nozzleflow.harness
        import nozzleflow.schedule
        import nozzleflow.solver
        import nozzleflow.thermo
        import numpy

        self.package = nozzleflow
        self.cli = nozzleflow.cli
        self.geometry = nozzleflow.geometry
        self.harness = nozzleflow.harness
        self.schedule = nozzleflow.schedule
        self.solver = nozzleflow.solver
        self.thermo = nozzleflow.thermo
        self.np = numpy


# ---------------------------------------------------------------------------
# ladder: the gamma = 2 acceptance sweep through the CLI
# ---------------------------------------------------------------------------


class Ladder:
    name = "ladder"

    SIZES = {
        "full": dict(dx=1.0 / 128.0, n_eps=6, snapshots=97, t_end=0.5),
        "smoke": dict(dx=1.0 / 32.0, n_eps=3, snapshots=17, t_end=0.25),
    }

    def make_inputs(self, seed: int, size: str) -> dict:
        rng = random.Random(f"ladder-{seed}")
        u_minus = 0.75 * (1.0 + _jitter(rng, seed, 0.01))
        return dict(self.SIZES[size], u_minus=u_minus)

    def _eps_list(self, inputs):
        return [0.1 * 0.5 ** k for k in range(inputs["n_eps"])]

    def op_names(self, inputs) -> list[str]:
        return [f"rung[eps={e:g}]" for e in self._eps_list(inputs)] + ["verdict"]

    def seed_free(self, inputs) -> set:
        return set()

    def write_inputs(self, inputs, pass_dir: Path) -> None:
        values = dict(
            gamma=2.0, profile="constant", bc="dirichlet_nozzle",
            rho_minus=1.0, u_minus=inputs["u_minus"], rho_plus=0.125,
            u_plus=0.0, init="riemann", blend_width=1.0,
            t_end=inputs["t_end"], dx=inputs["dx"], eps0=0.1,
            n_eps=inputs["n_eps"], snapshots=inputs["snapshots"],
            window_lo=-1.0, window_hi=1.0, workers=1, weak_residuals=True,
            check_riemann=False, output_dir=str(pass_dir / "out"))
        (pass_dir / "sweep.cfg").write_text(_config_text(values))

    def setup(self, nf: Modules, inputs, pass_dir: Path):
        path = pass_dir / "sweep.cfg"
        cfg = nf.harness.RunConfig.from_file(path)
        sched = cfg.build_schedule()
        kappa = cfg.kappa if cfg.kappa is not None else -1.0
        cert = nf.schedule.certify(sched, cfg.build_profile(),
                                   nf.thermo.GasLaw(cfg.gamma, kappa))
        if not cert.passed:
            raise RuntimeError(f"ladder certificate failed: {cert.failing()}")
        captured: list = []
        _capture(nf.cli, "sweep", captured)
        return dict(nf=nf, path=path, captured=captured, inputs=inputs,
                    out=pass_dir / "out")

    def run_pass(self, st, check):
        code, text = _run_cli(st["nf"], ["sweep", str(st["path"])])
        with check():
            return self._gather(st, code, text)

    def _gather(self, st, code, text):
        names = self.op_names(st["inputs"])
        values: dict = {}
        problems: dict = {name: [] for name in names}
        if code != 0:
            problems["verdict"].append(f"sweep exit code {code}")
        if not st["captured"]:
            for name in names:
                problems[name].append("no sweep result")
            return values, problems
        res = st["captured"][-1]
        eps_list = self._eps_list(st["inputs"])
        by_eps = {round(r.eps, 12): r for r in res.runs}
        weak = {round(r.eps, 12): w for r, w in zip(res.runs, res.weak)}
        integ = {round(r.eps, 12): rec for r, rec in zip(res.runs,
                                                          res.integrability)}
        for name, eps in zip(names, eps_list):
            key = round(eps, 12)
            run = by_eps.get(key)
            if run is None:
                problems[name].append("rung missing from the sweep")
                continue
            rec = integ[key]
            vals = {
                "checks": {k: bool(v) for k, v in run.report.checks.items()},
                "integrability": {
                    f: float(getattr(rec, f)) for f in (
                        "rho_gamma_plus_one", "delta_rho_cubed", "rho_u_cubed",
                        "rho_gamma_theta", "eps_rho_cubed_area")},
                "max_entropy_violation": float(weak[key].max_entropy_violation),
            }
            values[name] = vals
            if not all(vals["checks"].values()):
                problems[name].append(f"failed checks {vals['checks']}")
            if not _finite(list(vals["integrability"].values())
                           + [vals["max_entropy_violation"]]):
                problems[name].append("non-finite integrability or residual")
            label = run.label.replace("=", "_")
            final = st["out"] / f"final_{label}.csv"
            report = st["out"] / f"report_{label}.csv"
            if not final.is_file() or not report.is_file():
                problems[name].append("missing output files")
                continue
            rows, last = _csv_rows(final)
            if rows != run.field.grid.n_nodes:
                problems[name].append(f"final csv has {rows} rows")
            elif abs(float(last[1]) - float(run.field.rho[-1])) \
                    > 1e-10 * abs(float(run.field.rho[-1])):
                problems[name].append("final csv disagrees with the field")
        values["verdict"] = {
            "d_rho": [float(d) for d in res.d_rho],
            "d_m": [float(d) for d in res.d_m],
            "converging_rho": bool(res.converging_rho),
            "converging_m": bool(res.converging_m),
            "certificate_passed": bool(res.certificate.passed),
        }
        v = values["verdict"]
        if not (v["converging_rho"] and v["converging_m"]):
            problems["verdict"].append("ladder not converging")
        if res.failures:
            problems["verdict"].append(f"rung failures {res.failures}")
        if "verdict:" not in text or not (st["out"] / "summary.txt").is_file():
            problems["verdict"].append("sweep summary missing")
        return values, problems


# ---------------------------------------------------------------------------
# small_steps: direct step/run calls on small grids, no recorder
# ---------------------------------------------------------------------------


def _bump(np, x, centre, width):
    s = (x - centre) / width
    inside = np.abs(s) < 1.0
    return np.where(inside, np.exp(1.0 - 1.0 / np.maximum(1.0 - s * s, 1e-12)),
                    0.0)


class SmallSteps:
    name = "small_steps"

    SIZES = {
        "full": dict(steps=500, run_cells=200, sphere_cells=800, mms_cells=400,
                     mms_t_end=0.1),
        "smoke": dict(steps=10, run_cells=48, sphere_cells=64, mms_cells=48,
                      mms_t_end=0.01),
    }

    # (op name, profile, bc mode, domain, cells, initial data)
    STEP_CASES = [
        ("step[constant,dirichlet_nozzle]", "constant", "nozzle",
         (-3.0, 3.0), 48, "bump"),
        ("step[gaussian_bump,dirichlet_nozzle]", "gaussian_bump", "nozzle",
         (-3.0, 3.0), 48, "riemann"),
        ("step[power_law_closing,dirichlet_nozzle]", "power_law_closing",
         "nozzle", (-3.0, 3.0), 64, "bump"),
        ("step[exponential,dirichlet_nozzle]", "exponential", "nozzle",
         (-3.0, 3.0), 64, "bump"),
        ("step[tabulated,dirichlet_nozzle]", "tabulated", "nozzle",
         (-3.0, 3.0), 96, "bump"),
        ("step[spherical,dirichlet_spherical]", "spherical", "dirichlet_sph",
         (1.0, 2.0), 48, "bump"),
        ("step[spherical,neumann_spherical]", "spherical", "neumann_sph",
         (0.05, 2.05), 48, "bump"),
        ("steady[gaussian_bump,dirichlet_nozzle]", "gaussian_bump", "nozzle",
         (-4.0, 4.0), 48, "constant"),
    ]
    RUN_CASES = ["run[gaussian_bump,dirichlet_nozzle]",
                 "run[spherical,dirichlet_spherical]"]
    MMS = "manufactured[gaussian_bump,forced]"

    def make_inputs(self, seed: int, size: str) -> dict:
        rng = random.Random(f"small_steps-{seed}")
        return dict(
            self.SIZES[size],
            bump_amp=0.3 * (1.0 + _jitter(rng, seed, 0.02)),
            bump_shift=_jitter(rng, seed, 0.02),
            u_minus=0.1 * (1.0 + _jitter(rng, seed, 0.02)))

    def op_names(self, inputs) -> list[str]:
        return [c[0] for c in self.STEP_CASES] + self.RUN_CASES + [self.MMS]

    def seed_free(self, inputs) -> set:
        return {"steady[gaussian_bump,dirichlet_nozzle]", self.MMS}

    def write_inputs(self, inputs, pass_dir: Path) -> None:
        pass

    def _profile(self, nf, kind):
        np, geo = nf.np, nf.geometry
        if kind == "tabulated":
            xs = np.linspace(-3.5, 3.5, 29)
            return geo.TabulatedProfile.from_columns(xs, 1.0 + 0.5 * np.exp(-xs * xs))
        params = {"power_law_closing": dict(alpha=1.0),
                  "exponential": dict(rate=0.4),
                  "spherical": dict(n_dim=3)}.get(kind, {})
        return geo.make_profile(kind, **params)

    def _bc(self, nf, mode, left, right):
        spec = nf.solver.BoundarySpec
        if mode == "nozzle":
            return spec.dirichlet_nozzle(left[0], left[1], right[0], right[1])
        if mode == "dirichlet_sph":
            return spec.dirichlet_spherical(right[0])
        return spec.neumann_spherical(right[0])

    def _data(self, nf, inputs, kind, grid):
        np = nf.np
        x = grid.x
        a, b = grid.a, grid.b
        if kind == "constant":
            return np.full(x.size, 0.7), np.zeros(x.size)
        if kind == "riemann":
            u_m = inputs["u_minus"]
            s = 0.5 * (1.0 + np.tanh(x / 0.3))
            rho = 1.0 - 0.5 * s
            return rho, rho * u_m * (1.0 - s)
        centre = 0.5 * (a + b) + inputs["bump_shift"]
        width = 0.2 * (b - a)
        rho = 0.7 + inputs["bump_amp"] * _bump(np, x, centre, width)
        return rho, np.zeros(x.size)

    def setup(self, nf: Modules, inputs, pass_dir: Path):
        solver = nf.solver
        g = nf.thermo.GasLaw(2.0, delta=1e-3)
        cases = []
        for name, kind, mode, (a, b), cells, data in self.STEP_CASES:
            profile = self._profile(nf, kind)
            grid = solver.Grid(a, b, cells)
            rho, m = self._data(nf, inputs, data, grid)
            bc = self._bc(nf, mode, (rho[0], m[0]), (rho[-1], m[-1]))
            cases.append((name, grid, profile, bc, solver.FluidField(grid, rho, m),
                          data == "constant"))
        runs = []
        for name, kind, mode, (a, b), cells, t_end in (
                (self.RUN_CASES[0], "gaussian_bump", "nozzle", (-4.0, 4.0),
                 inputs["run_cells"], 0.25),
                (self.RUN_CASES[1], "spherical", "dirichlet_sph", (1.0, 5.0),
                 inputs["sphere_cells"], 0.05)):
            profile = self._profile(nf, kind)
            grid = solver.Grid(a, b, cells)
            rho, m = self._data(nf, inputs, "riemann" if mode == "nozzle"
                                else "bump", grid)
            bc = self._bc(nf, mode, (rho[0], m[0]), (rho[-1], m[-1]))
            runs.append((name, grid, profile, bc,
                         solver.FluidField(grid, rho, m), t_end))
        mms = self._manufactured_case(nf, inputs)
        return dict(nf=nf, g=g, cases=cases, runs=runs, mms=mms, inputs=inputs)

    def _manufactured_case(self, nf, inputs):
        """Forced smooth solution with time-dependent boundary callables."""
        np, solver = nf.np, nf.solver
        g = nf.thermo.GasLaw(2.0, delta=0.01)
        eps = 0.05
        profile = nf.geometry.GaussianBumpProfile()
        grid = solver.Grid(-2.0, 2.0, inputs["mms_cells"])

        def state(x, t):
            rho = 2.0 + np.sin(x - t)
            return rho, rho * 0.5 * np.cos(x)

        def forcing(x, t):
            s, c = np.sin(x - t), np.cos(x - t)
            rho = 2.0 + s
            r_t, r_x, r_xx = -c, c, -s
            u, u_x, u_xx = 0.5 * np.cos(x), -0.5 * np.sin(x), -0.5 * np.cos(x)
            m, m_t = rho * u, r_t * u
            m_x = r_x * u + rho * u_x
            m_xx = r_xx * u + 2.0 * r_x * u_x + rho * u_xx
            G, Gp = profile.dlog(x), profile.dlog_prime(x)
            f_rho = r_t + m_x + G * m - eps * (r_xx + G * r_x)
            f_m = (m_t + (r_x * u * u + 2.0 * rho * u * u_x)
                   + g.pressure_prime(rho) * r_x + G * rho * u * u
                   - eps * (m_xx + Gp * m + G * m_x))
            return f_rho, f_m

        bc = solver.BoundarySpec.dirichlet_nozzle(
            lambda t: state(grid.a, t)[0], lambda t: state(grid.a, t)[1],
            lambda t: state(grid.b, t)[0], lambda t: state(grid.b, t)[1])
        rho0, m0 = state(grid.x, 0.0)
        return dict(g=g, eps=eps, profile=profile, grid=grid, bc=bc,
                    field=solver.FluidField(grid, rho0, m0), forcing=forcing,
                    state=state)

    def run_pass(self, st, check):
        nf, g, inputs = st["nf"], st["g"], st["inputs"]
        np, solver = nf.np, nf.solver
        eps = 0.05
        values, problems = {}, {}

        def record(name, work, post=None):
            problems[name] = []
            try:
                field = work()
                with check():
                    x = field.grid.x
                    vals = {"l1_rho": float(np.trapezoid(np.abs(field.rho), x)),
                            "l1_m": float(np.trapezoid(np.abs(field.m), x)),
                            "t": float(field.t)}
                    if post is not None:
                        vals.update(post(field))
                    if not (_finite(vals.values())
                            and np.all(np.isfinite(field.rho))
                            and np.all(np.isfinite(field.m))
                            and float(np.min(field.rho)) > 0.0):
                        problems[name].append(
                            "non-finite or non-positive final state")
                values[name] = vals
            except Exception as err:  # every failure counts, whatever raised
                problems[name].append(f"raised {type(err).__name__}: {err}")

        def steady_drift(field):
            drift = max(float(np.max(np.abs(field.rho - 0.7))),
                        float(np.max(np.abs(field.m))))
            if drift > 1e-10:
                raise RuntimeError(f"steady state drifted by {drift:.3e}")
            return {}

        for name, grid, profile, bc, field0, steady in st["cases"]:
            def stepped(grid=grid, profile=profile, bc=bc, field=field0):
                ctx = solver.SolverContext(grid, g, profile, eps, bc)
                dt = 0.3 * grid.dx / ctx.max_wave_speed(field.rho, field.m)
                for _ in range(inputs["steps"]):
                    field = solver.step(field, g, profile, eps, bc, dt, ctx=ctx)
                return field
            record(name, stepped, steady_drift if steady else None)

        for name, grid, profile, bc, field0, t_end in st["runs"]:
            def marched(profile=profile, bc=bc, field=field0, t_end=t_end):
                return solver.run(field, g, profile, eps, bc, t_end)[0]
            record(name, marched)

        mms, t_mms = st["mms"], inputs["mms_t_end"]

        def manufactured():
            return solver.run(mms["field"], mms["g"], mms["profile"],
                              mms["eps"], mms["bc"], t_mms,
                              dt_fixed=2.0 * mms["grid"].dx ** 2,
                              forcing=mms["forcing"])[0]

        def error(field):
            x = field.grid.x
            rho_e, m_e = mms["state"](x, t_mms)
            return {"error": float(np.trapezoid(np.abs(field.rho - rho_e)
                                                + np.abs(field.m - m_e), x))}
        record(self.MMS, manufactured, error)
        return values, problems


# ---------------------------------------------------------------------------
# monitors: two densely sampled CLI runs with every monitor on
# ---------------------------------------------------------------------------


class Monitors:
    name = "monitors"

    SIZES = {
        "full": dict(snapshots=257, duct_eps=0.05, duct_t_end=1.0,
                     sphere_cells=400, sphere_t_end=0.5),
        "smoke": dict(snapshots=9, duct_eps=0.2, duct_t_end=0.2,
                      sphere_cells=64, sphere_t_end=0.1),
    }
    RUNS = ("run[gaussian_bump,riemann_monitor]",
            "run[neumann_spherical,quartic]")

    def make_inputs(self, seed: int, size: str) -> dict:
        rng = random.Random(f"monitors-{seed}")
        return dict(
            self.SIZES[size],
            u_minus=_jitter(rng, seed, 0.01),
            bump_amp=1.0 * (1.0 + _jitter(rng, seed, 0.02)),
            bump_centre=2.0 + _jitter(rng, seed, 0.02))

    def op_names(self, inputs) -> list[str]:
        return list(self.RUNS)

    def seed_free(self, inputs) -> set:
        return set()

    def write_inputs(self, inputs, pass_dir: Path) -> None:
        eps_s = 0.05
        duct = dict(
            gamma=2.0, profile="gaussian_bump", bc="dirichlet_nozzle",
            rho_minus=1.0, rho_plus=0.125, u_minus=inputs["u_minus"],
            u_plus=0.0, init="riemann", blend_width=1.0,
            t_end=inputs["duct_t_end"], dx=1.0 / 128.0,
            snapshots=inputs["snapshots"], eps=inputs["duct_eps"], delta=1e-4,
            riemann_tol=1e-3, check_energy=True, check_riemann=True,
            output_dir=str(pass_dir / "duct"))
        sphere = dict(
            gamma=2.0, profile="spherical", profile_n=3, bc="neumann_spherical",
            init="bump", init_amp=inputs["bump_amp"],
            init_center=inputs["bump_centre"], init_width=1.0,
            mollify_width=0.0, blend_width=0.5, t_end=inputs["sphere_t_end"],
            dx=(1.0 / eps_s - eps_s) / inputs["sphere_cells"],
            snapshots=inputs["snapshots"], eps=eps_s, window_lo=0.5,
            window_hi=4.0, check_energy=True, check_riemann=True,
            check_quartic=True, output_dir=str(pass_dir / "sphere"))
        (pass_dir / "duct.cfg").write_text(_config_text(duct))
        (pass_dir / "sphere.cfg").write_text(_config_text(sphere))

    def setup(self, nf: Modules, inputs, pass_dir: Path):
        paths = [pass_dir / "duct.cfg", pass_dir / "sphere.cfg"]
        for path in paths:
            cfg = nf.harness.RunConfig.from_file(path)
            cfg.build_profile()
            cfg.build_gas(cfg.eps)
            cfg.domain_of(cfg.eps)
            cfg.build_bc(cfg.eps)
        captured: list = []
        _capture(nf.cli, "single_run", captured)
        return dict(nf=nf, paths=paths, captured=captured)

    def run_pass(self, st, check):
        values, problems = {}, {}
        for name, path in zip(self.RUNS, st["paths"]):
            before = len(st["captured"])
            try:
                code, _ = _run_cli(st["nf"], ["run", str(path)])
            except Exception as err:  # every failure counts, whatever raised
                problems[name] = [f"raised {type(err).__name__}: {err}"]
                continue
            with check():
                problems[name] = self._inspect(st, name, path, code, before,
                                               values)
        return values, problems

    def _inspect(self, st, name, path, code, before, values) -> list:
        problems = [] if code == 0 else [f"run exit code {code}"]
        if len(st["captured"]) == before:
            return problems + ["no run result"]
        res = st["captured"][-1]
        rep = res.report
        last = {s: float(getattr(rep, s)[-1]) for s in REPORT_SERIES
                if len(getattr(rep, s, ()))}
        values[name] = {"checks": {k: bool(v) for k, v in rep.checks.items()},
                        "last": last}
        if not all(rep.checks.values()):
            problems.append(f"failed checks {rep.checks}")
        if not _finite(last.values()):
            problems.append("non-finite series")
        out = path.parent / ("duct" if "duct" in path.name else "sphere")
        report_csv, final_csv = out / "report.csv", out / "final.csv"
        if not (report_csv.is_file() and final_csv.is_file()
                and (out / "summary.txt").is_file()):
            return problems + ["missing output files"]
        rows, last_row = _csv_rows(report_csv)
        if rows != len(rep.t):
            problems.append(f"report csv has {rows} rows")
        elif not all(abs(float(a) - b) <= 1e-10 * abs(b) + 1e-300
                     for a, b in zip(last_row, last.values())):
            problems.append("report csv disagrees with the series")
        rows, _ = _csv_rows(final_csv)
        if rows != res.field.grid.n_nodes:
            problems.append(f"final csv has {rows} rows")
        return problems


WORKLOADS = {w.name: w for w in (Ladder(), SmallSteps(), Monitors())}
