"""Run orchestration: configs, single runs, viscosity sweeps, distances.

A sweep runs the solver once per ladder rung on its own expanding domain
(common grid spacing, so the rung-to-rung comparison isolates the
viscosity), interpolates the stored snapshots onto a shared comparison
window, and measures pairwise space-time L^p distances.  The qualitative
verdict is Cauchy-style: successive distances should shrink.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path
from typing import Optional, get_args, get_type_hints

import numpy as np

from .checks import Check, Report
from .diagnostics import (DiagnosticsReport, Recorder, RecorderOptions,
                          SnapshotSet, WeakResidualRecord, _write_csv,
                          default_generator_family, default_test_functions,
                          integrability_window, snapshot_nodes, weak_residual)
from .entropy import ReferenceState
from .errors import ConfigError, DomainError, NozzleflowError, SweepError
from .geometry import NozzleProfile, make_profile
from .schedule import (M_BUDGET, Q_LADDER, ViscositySchedule, certify,
                       certificate_summary)
from .solver import (CFL, MIN_CELLS, BCMode, BoundarySpec, FluidField, Grid,
                     InitialData, Rung, SolverContext, check_cfl, march,
                     prepare_initial_data, run)
from .thermo import GasLaw

# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

# the most nodes a rung's grid may have: only its final CSV is a whole grid
# (about 60 bytes a node)
MAX_NODES = 1 << 23
# the most bytes a run's snapshots may take: 2 x snapshots x window nodes x 8
MAX_SNAPSHOT_BYTES = 1 << 28
# the most rungs a ladder may have: eps falls by 2^63 over them
MAX_RUNGS = 64

_BOOL = {"true": True, "false": False, "yes": True, "no": False,
         "on": True, "off": False, "1": True, "0": False}
_BC_MODES = tuple(mode.value for mode in BCMode)
_INIT_KINDS = ("riemann", "bump", "constant")


@dataclass(frozen=True)
class RunConfig:
    """Flat configuration for runs and sweeps (see README for the file keys)."""

    # gas
    gamma: float = 2.0
    kappa: Optional[float] = None
    delta: Optional[float] = None          # None: delta(eps) from the ladder rule
    # geometry
    profile: str = "constant"
    profile_amp: float = 1.0
    profile_rate: float = 1.0
    profile_alpha: float = 1.0
    profile_n: int = 3
    profile_file: Optional[str] = None
    # far states / reference
    rho_minus: float = 1.0
    u_minus: float = 0.0
    rho_plus: float = 0.125
    u_plus: float = 0.0
    # boundary mode
    bc: str = "dirichlet_nozzle"
    rho_bar: Optional[float] = None        # spherical modes; None: ladder rule
    # initial data
    init: str = "riemann"                  # riemann | bump | constant
    init_amp: float = 0.5
    init_center: float = 0.0
    init_width: float = 1.0
    # mollifying a jump trades ~ width * jump^2 * h'' of relative energy, so
    # the width must stay small against the data's energy content
    mollify_width: float = 0.02
    blend_width: float = 1.0
    # solver
    eps: float = 0.05
    t_end: float = 0.5
    cfl: float = CFL
    dx: float = 1.0 / 128.0
    a: Optional[float] = None              # None: ladder rule a(eps)
    b: Optional[float] = None
    # ladder / sweep
    eps0: float = 0.1
    n_eps: int = 4
    M_budget: float = M_BUDGET
    window_lo: float = -1.0
    window_hi: float = 1.0
    p_rho: float = 1.0
    q_mom: float = 1.0
    snapshots: int = 32
    workers: int = 1                       # 0: one per processor
    force: bool = False
    # diagnostics
    check_energy: bool = True
    check_riemann: bool = True
    check_quartic: bool = False
    riemann_tol: float = 1e-3
    weak_residuals: bool = False
    output_dir: str = "out"

    def __post_init__(self):
        self.validate()

    # -- parsing --------------------------------------------------------------
    @classmethod
    def from_mapping(cls, data: dict) -> "RunConfig":
        """Build a config from key -> value; strings parse by the field type."""
        hints = get_type_hints(cls)
        values = {}
        for key, raw in data.items():
            if key not in hints:
                raise ConfigError(f"unknown config key {key!r}")
            values[key] = _parse(key, raw, hints[key]) if isinstance(raw, str) \
                else raw
        return cls(**values)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        """Parse ``key = value`` lines; a relative ``profile_file`` or
        ``output_dir`` names a path beside the config file."""
        data: dict[str, str] = {}
        try:
            with open(path) as fh:
                lines = fh.read().splitlines()
        except UnicodeDecodeError as err:
            raise ConfigError(f"{path}: not a text file: {err}") from None
        for lineno, line in enumerate(lines, 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, val = (part.strip() for part in stripped.split("=", 1))
            data[key] = val
        for key in ("profile_file", "output_dir"):
            if key in data:
                data[key] = str(Path(path).parent / data[key])
        return cls.from_mapping(data)

    def validate(self) -> None:
        """Raise ConfigError for the first value outside its range."""
        for f in fields(self):
            val = getattr(self, f.name)
            if isinstance(val, float) and not math.isfinite(val):
                raise ConfigError(f"{f.name} must be finite, got {val}")
        for name, allowed in (("bc", _BC_MODES), ("init", _INIT_KINDS)):
            if getattr(self, name) not in allowed:
                raise ConfigError(f"unknown {name} {getattr(self, name)!r}; "
                                  f"choose from {', '.join(allowed)}")
        # the boundary mode picks the certificate's mode and the far states
        if self.spherical != (self.profile == "spherical"):
            raise ConfigError(
                f"bc = {self.bc} does not fit profile = {self.profile}: "
                "bc = dirichlet_spherical or neumann_spherical needs profile "
                "= spherical, and profile = spherical needs one of them")
        # kappa = None selects the normalized default; GasLaw would read a
        # negative kappa as that default too, so it is rejected here
        for name in ("dx", "eps", "eps0", "t_end", "kappa", "rho_bar"):
            val = getattr(self, name)
            if val is not None and not val > 0.0:
                raise ConfigError(f"{name} must be positive, got {val}")
        for name in ("mollify_width", "blend_width", "workers"):
            val = getattr(self, name)
            if val < 0:
                raise ConfigError(f"{name} must be nonnegative, got {val}")
        check_cfl(self.cfl)
        # a time-series check on too few samples would pass without evidence
        need = 4 if (self.check_energy or self.check_riemann or self.quartic_check
                     or self.weak_residuals) else 1
        if self.snapshots < need:
            raise ConfigError(f"snapshots must be at least {need} with these "
                              f"checks on, got {self.snapshots}")
        # outputs are written after the rungs run: fail a path below a file now
        parent = Path(self.output_dir)
        while not parent.exists():
            parent = parent.parent
        if not parent.is_dir():
            raise ConfigError(f"output_dir {self.output_dir} lies below the "
                              f"file {parent}")
        gam = self.gamma
        for name, top, spelt in (
                ("p_rho", gam + 1.0, "gamma + 1"),
                ("q_mom", 3.0 * (gam + 1.0) / (gam + 3.0),
                 "3(gamma+1)/(gamma+3)")):
            if not 1.0 <= getattr(self, name) < top:
                raise ConfigError(f"{name} must lie in [1, {spelt}) = "
                                  f"[1, {top:.4g}), got {getattr(self, name)}")
        # a grid too coarse, or too large, for the run or any ladder rung,
        # or a window with no node of it, fails before any of them runs or
        # allocates; a run keeps the part of the window its domain holds
        if self.n_eps > MAX_RUNGS:
            raise ConfigError(f"n_eps = {self.n_eps} rungs, above the limit of "
                              f"{MAX_RUNGS}")
        for eps in (self.eps, *self._schedule.eps_list):
            grid = self.grid_of(eps)
            window = (max(self.window_lo, grid.a), min(self.window_hi, grid.b))
            if not window[0] < window[1]:
                raise ConfigError(
                    f"window [{self.window_lo:g}, {self.window_hi:g}] holds no "
                    f"part of the eps={eps:g} domain [{grid.a:g}, {grid.b:g}]")
            lo, hi = snapshot_nodes(grid, window)
            window = hi - lo
            size = 2 * self.snapshots * window * 8
            if size > MAX_SNAPSHOT_BYTES:
                raise ConfigError(
                    f"snapshots = {self.snapshots} of {window} window nodes on "
                    f"the eps={eps:g} rung take {size} bytes, above the limit "
                    f"of {MAX_SNAPSHOT_BYTES}")

    @property
    def spherical(self) -> bool:
        return self.bc in ("dirichlet_spherical", "neumann_spherical")

    @property
    def quartic_check(self) -> bool:
        """The axis-end mode always monitors the quartic energy."""
        return self.check_quartic or self.bc == "neumann_spherical"

    # -- object builders --------------------------------------------------------
    def build_profile(self) -> NozzleProfile:
        params = {
            "gaussian_bump": dict(amp=self.profile_amp, rate=self.profile_rate),
            "power_law_closing": dict(alpha=self.profile_alpha),
            "exponential": dict(rate=self.profile_rate),
            "spherical": dict(n_dim=self.profile_n),
            "tabulated": dict(file=self.profile_file),
        }
        return make_profile(self.profile, **params.get(self.profile, {}))

    @cached_property
    def _schedule(self) -> ViscositySchedule:
        eps = tuple(self.eps0 * 0.5 ** k for k in range(self.n_eps))
        return ViscositySchedule(
            eps, q=Q_LADDER, M_budget=self.M_budget,
            spherical=self.spherical, n_dim=self.profile_n, gamma=self.gamma,
            delta=self.delta, a=self.a, b=self.b, rho_bar=self.rho_bar)

    def build_schedule(self) -> ViscositySchedule:
        """The ladder that owns every rung's delta, domain and far density."""
        return self._schedule

    def build_gas(self, eps: Optional[float] = None) -> GasLaw:
        delta = self._schedule.delta_of(self.eps if eps is None else eps)
        kappa = self.kappa if self.kappa is not None else -1.0
        return GasLaw(self.gamma, kappa, delta)

    def build_reference(self, eps: float) -> ReferenceState:
        if self.spherical:
            return ReferenceState.constant(self._schedule.rho_bar_of(eps))
        return ReferenceState(self.rho_minus, self.u_minus,
                              self.rho_plus, self.u_plus)

    def domain_of(self, eps: float) -> tuple[float, float]:
        return float(self._schedule.a_of(eps)), float(self._schedule.b_of(eps))

    def grid_of(self, eps: float) -> Grid:
        """The eps rung's domain in whole cells of about dx, refused above
        MAX_NODES nodes."""
        a, b = self.domain_of(eps)
        cells = (b - a) / self.dx
        if not cells < MAX_NODES or round(cells) + 1 > MAX_NODES:
            raise ConfigError(
                f"dx = {self.dx:g} gives the eps={eps:g} rung {cells + 1:.0f} "
                f"nodes, above the limit of {MAX_NODES}")
        cells = round(cells)
        if b > a and cells < MIN_CELLS:  # Grid itself rejects b <= a
            raise ConfigError(
                f"dx = {self.dx:g} leaves {cells} cells on the eps={eps:g} "
                f"rung's domain [{a:g}, {b:g}]; a grid needs at least "
                f"{MIN_CELLS}")
        return Grid(a, b, cells)

    def certify_ladder(self, profile: NozzleProfile) -> Report:
        """Certify the ladder; ConfigError unless every rung's domain lies
        inside the profile's and holds the comparison window."""
        for eps in self._schedule.eps_list:
            a, b = self.domain_of(eps)
            try:
                profile.area(np.array([a, b]))
            except DomainError as err:
                raise ConfigError(f"the eps={eps:g} domain [{a:g}, {b:g}] "
                                  f"leaves the profile's: {err}") from None
            if not a <= self.window_lo < self.window_hi <= b:
                raise ConfigError(
                    f"comparison window [{self.window_lo:g}, {self.window_hi:g}] "
                    f"leaves the eps={eps:g} domain [{a:g}, {b:g}]")
        return certify(self._schedule, profile, self.build_gas())

    def build_bc(self, eps: float) -> BoundarySpec:
        if self.bc == "dirichlet_nozzle":
            return BoundarySpec.dirichlet_nozzle(
                self.rho_minus, self.rho_minus * self.u_minus,
                self.rho_plus, self.rho_plus * self.u_plus)
        rho_bar = self._schedule.rho_bar_of(eps)
        if self.bc == "dirichlet_spherical":
            return BoundarySpec.dirichlet_spherical(rho_bar)
        return BoundarySpec.neumann_spherical(rho_bar)

    def build_initial(self, eps: float) -> InitialData:
        ref = self.build_reference(eps)
        if self.init == "riemann":
            def rho0(x):
                return np.where(x < self.init_center, self.rho_minus, self.rho_plus)

            def m0(x):
                return np.where(x < self.init_center,
                                self.rho_minus * self.u_minus,
                                self.rho_plus * self.u_plus)
        elif self.init == "bump":
            # a duct run with rho_bar set bumps that flat state at rest
            flat = None if self.spherical else self.rho_bar
            amp, x0, wdt = self.init_amp, self.init_center, self.init_width

            def rho0(x):
                base = ref.state(x)[0] if flat is None else flat
                s = (x - x0) / wdt
                bump = np.where(np.abs(s) < 1.0,
                                np.exp(1.0 - 1.0 / np.maximum(1.0 - s * s, 1e-12)),
                                0.0)
                return base + amp * bump

            def m0(x):
                return np.multiply(*ref.state(x)) if flat is None \
                    else np.zeros_like(np.asarray(x, dtype=float))
        else:                              # "constant"
            def rho0(x):
                return np.asarray(ref.state(x)[0])

            def m0(x):
                return np.multiply(*ref.state(x))
        return InitialData(rho0, m0, self.mollify_width, self.blend_width)


def _parse(key: str, raw: str, hint):
    """Parse one config string as its field's declared type."""
    raw = raw.strip()
    args = get_args(hint)
    if type(None) in args and raw.lower() in ("", "none"):
        return None
    kind = next((k for k in args if k is not type(None)), hint)
    if kind is bool:
        if raw.lower() not in _BOOL:
            raise ConfigError(f"{key}: cannot parse boolean from {raw!r}")
        return _BOOL[raw.lower()]
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(
            f"{key}: cannot parse {kind.__name__} from {raw!r}") from None


# ---------------------------------------------------------------------------
# Single runs
# ---------------------------------------------------------------------------


@dataclass
class RunOutput:
    ctx: SolverContext             # the run's context: its inputs and areas
    field: FluidField              # the final state on the context's nodes
    report: DiagnosticsReport
    label: str = ""
    eps = property(lambda self: self.ctx.eps)
    g = property(lambda self: self.ctx.g)  # its gas law (delta from eps)
    snapshots = property(lambda self: self.report.snapshots)


def prepare_rung(cfg: RunConfig, eps: float, label: str,
                 collect_snapshots: bool = True) -> Rung:
    """The eps rung's starting field, solver inputs and Recorder."""
    g = cfg.build_gas(eps)
    profile = cfg.build_profile()
    grid = cfg.grid_of(eps)
    bc = cfg.build_bc(eps)
    raw = cfg.build_initial(eps)
    field = prepare_initial_data(raw, bc, g, profile, grid)
    window = (max(cfg.window_lo, grid.a), min(cfg.window_hi, grid.b))
    opts = RecorderOptions(
        sample_count=cfg.snapshots,
        collect_snapshots=collect_snapshots,
        snapshot_window=window,
        riemann=cfg.check_riemann,
        quartic=cfg.quartic_check,
        riemann_tol=cfg.riemann_tol,
    )
    ref = cfg.build_reference(eps) if cfg.check_energy else None
    rec = Recorder(cfg.t_end, ref=ref, options=opts, label=label)
    return Rung(field, g, profile, eps, bc, rec)


def _output(rung: Rung, result) -> RunOutput:
    field, report = result
    return RunOutput(ctx=rung.hooks.ctx, field=field, report=report,
                     label=rung.hooks.label)


def single_run(cfg: RunConfig, eps: Optional[float] = None,
               label: str = "run", collect_snapshots: bool = True) -> RunOutput:
    rung = prepare_rung(cfg, cfg.eps if eps is None else eps, label,
                        collect_snapshots)
    return _output(rung, run(rung.field, rung.g, rung.profile, rung.eps,
                             rung.bc, cfg.t_end, hooks=rung.hooks, cfl=cfg.cfl))


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------


def lp_distance(snap_a: SnapshotSet, snap_b: SnapshotSet, K, p: float = 1.0,
                which: str = "rho") -> float:
    """Space-time L^p distance of one field over K x [t0, t1].

    Both snapshot sets must share their sample times; the comparison grid is
    the finer of the two restricted to K, the coarser run interpolating
    linearly onto it.
    """
    if p < 1.0:
        raise ConfigError("p must be at least 1")
    if snap_a.t.shape != snap_b.t.shape or not np.allclose(snap_a.t, snap_b.t,
                                                           atol=1e-10):
        raise ConfigError("snapshot sets cover different time windows")
    lo, hi = float(K[0]), float(K[1])
    wa = snap_a.window(lo, hi)
    wb = snap_b.window(lo, hi)
    xq = wa.x if wa.x.size >= wb.x.size else wb.x
    fa, fb = (np.vstack([np.interp(xq, w.x, row) for row in getattr(w, which)])
              for w in (wa, wb))
    diff = np.abs(fa - fb) ** p
    per_t = np.trapezoid(diff, xq, axis=1)
    return float(np.trapezoid(per_t, snap_a.t) ** (1.0 / p))


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


@dataclass
class SweepResult(Report):
    """The sweep's Report: the series ``eps`` (the ladder), ``d_rho`` and
    ``d_m`` (successive L^p distances), ``ratios_rho`` and ``ratios_m`` (the
    ratios the Cauchy rule reads) and the Cauchy checks ``converging_rho``
    and ``converging_m``, with a note for a check that rests on fewer than
    two ratios.  It also holds the certificate, the runs and the rungs that
    failed, and per run its integrability and weak-residual records."""

    certificate: Report = field(default_factory=Report)
    runs: list = field(default_factory=list)          # RunOutput per rung
    failures: list = field(default_factory=list)      # (eps, message)
    integrability: list = field(default_factory=list)
    weak: list = field(default_factory=list)          # empty unless asked

    d_rho = property(lambda self: self.series["d_rho"])
    d_m = property(lambda self: self.series["d_m"])
    converging_rho = property(lambda self: self.checks["converging_rho"])
    converging_m = property(lambda self: self.checks["converging_m"])

    @property
    def passed(self) -> bool:
        """The sweep's verdict: its checks and the certificate pass, no rung
        failed and every run's checks pass (``nozzleflow sweep`` exits 0
        exactly then)."""
        return (super().passed and self.certificate.passed
                and not self.failures
                and all(r.report.passed for r in self.runs))

    def summary(self) -> str:
        ladder = tuple(round(e, 6) for e in self.series["eps"].tolist())
        lines = [f"sweep over eps = {ladder}",
                 certificate_summary(self.certificate)]
        for r in self.runs:
            lines.append(f"  run {r.label}: cells_advanced="
                         f"{r.report.cells_advanced} on {r.field.grid.n_nodes} "
                         "nodes")
        for eps, msg in self.failures:
            lines.append(f"  run eps={eps:g} FAILED: {msg}")
        if len(self.d_rho):
            lines.append("  pairwise L^p distances (rho): "
                         + ", ".join(f"{d:.5g}" for d in self.d_rho))
            lines.append("  pairwise L^q distances (m):   "
                         + ", ".join(f"{d:.5g}" for d in self.d_m))
        if self.weak:
            lines.append("  max_entropy_violation per rung: "
                         + ", ".join(f"{w.max_entropy_violation:.5g}"
                                     for w in self.weak))
        for name in ("rho", "m"):
            lines.append(f"  verdict: {name} Cauchy, second-largest of "
                         f"{len(self.series[f'ratios_{name}'])} ratios: "
                         f"{self.checks[f'converging_{name}']}")
        lines += [f"  note: {note}" for note in self.notes]
        failing = [f"  run {r.label} check {key}: {check}"
                   for r in self.runs
                   for key, check in sorted(r.report.failing().items())]
        lines.append(f"  per-run inequality checks failing: {len(failing)} of "
                     f"{sum(len(r.report.checks) for r in self.runs)}")
        return "\n".join(lines + failing)


def _cauchy(distances: np.ndarray) -> tuple[np.ndarray, Check]:
    """The Cauchy rule on the successive distances: the ratios
    d_{k+1} / d_k it reads (none when every distance is at most 1e-14) and
    its check, every ratio at most 0.9 with one violation allowed.

    The check's value is the second-largest ratio (a NaN sorts above every
    number); with fewer than two ratios it is -inf, a vacuous pass.
    """
    if np.max(distances, initial=0.0) <= 1e-14:
        ratios = np.array([])
    else:
        ratios = distances[1:] / np.maximum(distances[:-1], 1e-300)
    ranked = np.sort(ratios)
    return ratios, Check(ranked[-2] if ranked.size >= 2 else -math.inf, 0.9)


def _failure(err: NozzleflowError) -> str:
    return f"{type(err).__name__}: {err}"


def _sweep_worker(args):
    """One rung in a process of its own: its RunOutput, or the text of the
    package error it raised."""
    cfg, eps, label = args
    try:
        return single_run(cfg, eps=eps, label=label)
    except NozzleflowError as err:
        return _failure(err)


def _lockstep(cfg: RunConfig, jobs: list) -> list:
    """Every rung through one ``march``: per rung its RunOutput, or the
    text of the package error it raised, as ``_sweep_worker`` gives it."""
    outcomes = []
    for job in jobs:
        try:
            outcomes.append(prepare_rung(*job))
        except NozzleflowError as err:
            outcomes.append(_failure(err))
    rungs = [out for out in outcomes if isinstance(out, Rung)]
    results = iter(march(rungs, cfg.t_end, cfl=cfg.cfl))
    for k, rung in enumerate(outcomes):
        if isinstance(rung, Rung):
            res = next(results)
            outcomes[k] = (_failure(res) if isinstance(res, Exception)
                           else _output(rung, res))
    return outcomes


def sweep(cfg: RunConfig) -> SweepResult:
    """Run the ladder, measure pairwise distances, and aggregate verdicts.

    A rung that raises a package error is recorded as failed with its
    message; the sweep needs two successful rungs to compare.
    """
    sched = cfg.build_schedule()
    profile = cfg.build_profile()
    cert = cfg.certify_ladder(profile)
    if not cert.passed and not cfg.force:
        failing = "; ".join(f"{k}: {c}" for k, c in cert.failing().items())
        raise ConfigError(f"schedule failed its certificate ({failing}); "
                          "pass force=true to override")
    jobs = [(cfg, eps, f"eps={eps:g}") for eps in sched.eps_list]
    workers = cfg.workers if cfg.workers > 0 else (os.cpu_count() or 1)
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_sweep_worker, jobs))
    else:
        outcomes = _lockstep(cfg, jobs)
    runs = [out for out in outcomes if isinstance(out, RunOutput)]
    failures = [(job[1], out) for job, out in zip(jobs, outcomes)
                if isinstance(out, str)]
    if len(runs) < 2:
        raise SweepError(f"only {len(runs)} of {len(jobs)} runs succeeded: "
                         + "; ".join(f"eps={eps:g}: {msg}"
                                     for eps, msg in failures))

    K = (cfg.window_lo, cfg.window_hi)
    series = {"eps": np.array(sched.eps_list)}
    checks, notes = {}, []
    for p, name in ((cfg.p_rho, "rho"), (cfg.q_mom, "m")):
        d = series[f"d_{name}"] = np.array(
            [lp_distance(a.snapshots, b.snapshots, K, p, name)
             for a, b in zip(runs, runs[1:])])
        ratios, checks[f"converging_{name}"] = _cauchy(d)
        series[f"ratios_{name}"] = ratios
        if ratios.size < 2:
            notes.append(f"{name} Cauchy check rests on {ratios.size} ratio(s), "
                         "fewer than the 2 it needs to fail, so its pass is "
                         "no evidence")
    integ = [integrability_window(r.snapshots, r.g, K, profile, r.eps)
             for r in runs]
    weak: list[WeakResidualRecord] = []
    if cfg.weak_residuals:
        t1, t2 = 0.02 * cfg.t_end, 0.98 * cfg.t_end
        tests = default_test_functions(t1, t2, K)
        u_span = max(abs(cfg.u_minus), abs(cfg.u_plus), 1.0)
        gens = default_generator_family((-u_span, 0.0, u_span))
        for r in runs:
            weak.append(weak_residual(r.snapshots, r.g, profile, tests, gens))
    return SweepResult(series=series, checks=checks, notes=notes,
                       certificate=cert, runs=runs, failures=failures,
                       integrability=integ, weak=weak)


# ---------------------------------------------------------------------------
# File output
# ---------------------------------------------------------------------------


def write_snapshot_csv(path, field: FluidField, ctx: SolverContext,
                       cfl: float) -> None:
    """``field`` on every node, with the gas law, eps, boundary mode and
    node areas of ``ctx``, the run's context."""
    grid, g = field.grid, ctx.g

    def columns(lo, hi):
        rho, m = field.values(lo, hi)
        return grid.nodes(lo, hi), rho, m, g.velocity(rho, m), ctx.area(lo, hi)

    _write_csv(path, [f"t={field.t:.10g} gamma={g.gamma:.10g} "
                      f"kappa={g.kappa:.10g} delta={g.delta:.10g} "
                      f"eps={ctx.eps:.10g}",
                      f"a={grid.a:.10g} b={grid.b:.10g} n_cells={grid.n_cells} "
                      f"cfl={cfl:g} bc={ctx.bc.mode.value}"],
               ("x", "rho", "m", "u", "A"), grid.n_nodes, columns)


def write_outputs(cfg: RunConfig, runs: dict, summary: str) -> Path:
    """Write each run's final{suffix}.csv and report{suffix}.csv, for
    ``runs`` mapping suffix -> RunOutput, then summary.txt, all under
    ``cfg.output_dir``, which is created here."""
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for suffix, r in runs.items():
        write_snapshot_csv(out / f"final{suffix}.csv", r.field, r.ctx, cfg.cfl)
        r.report.to_csv(out / f"report{suffix}.csv")
    (out / "summary.txt").write_text(summary + "\n")
    return out


def write_sweep_outputs(result: SweepResult, cfg: RunConfig) -> Path:
    return write_outputs(
        cfg, {f"_{r.label.replace('=', '_')}": r for r in result.runs},
        result.summary())
