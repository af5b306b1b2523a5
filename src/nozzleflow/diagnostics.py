"""Monitored functionals and inequality residuals for solver runs.

Everything here is computed from field snapshots: the relative-energy
budget and its viscous dissipation, the corrected invariant extremes whose
monotonicity is the testable form of the parabolic maximum principle, the
windowed higher-integrability integrals, the vacuum functional, and the
weak-form residuals of the limit system (mass/momentum forms and the
entropy inequality for convex generators).

The per-sample monitors read the grid, gas law, eps and fixed geometry
(A, A'/A, (A'/A)') from the SolverContext that ``run`` steps with and hands
to ``Recorder.sample``.  The Recorder runs them over stacks of samples, on
one ``RowBlock`` of the rows they all read per stack.  The monitors sum a
field's live nodes (``SolverContext.reach``:
those that may differ from their end's far state); every other node holds
its far state, whose terms each monitor adds in closed form, from the
profile past the stored range once per growth of it.  The weak residuals
contract the tensor-product test functions with small matrix products and
evaluate the entropy kernel once per state they see.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .checks import Check, Report
from .entropy import (BLEND_HALF_WIDTH, EntropyGenerator, ReferenceState,
                      gen_convex_spline, gen_half_square, gen_smoothed_abs,
                      get_kernel, modified_energy_gradient, quartic_entropy,
                      smooth_bump)
from .errors import CavitationError, ConfigError
from .geometry import NozzleProfile, SphericalProfile
from .solver import (BLOCK, BCMode, FluidField, Grid, SolverContext,
                     hyperbolic_interface_data)
from .thermo import GasLaw

# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------


# a node within WINDOW_TOL of a window end counts as inside the window
WINDOW_TOL = 1e-12


def snapshot_nodes(grid: Grid, window: Optional[tuple[float, float]]
                   ) -> tuple[int, int]:
    """The nodes [lo, hi) a Recorder keeps of each sample for ``window``
    (None: all): the fewest that cover it to the consumers' WINDOW_TOL, and
    one more on each side; ``Grid.searchsorted`` builds no ``x``."""
    lo, hi = window or (-np.inf, np.inf)
    return (max(grid.searchsorted(lo + WINDOW_TOL) - 1, 0),
            min(grid.searchsorted(hi - WINDOW_TOL, "right") + 1, grid.n_nodes))


@dataclass
class SnapshotSet:
    """Fields sampled on a fixed grid at a set of times."""

    t: np.ndarray          # (nt,)
    x: np.ndarray          # (nx,)
    rho: np.ndarray        # (nt, nx)
    m: np.ndarray          # (nt, nx)

    def window(self, lo: float, hi: float) -> "SnapshotSet":
        """Views of the nodes inside [lo, hi], a node within WINDOW_TOL of an
        end included; the rows stay contiguous."""
        win = slice(np.searchsorted(self.x, lo - WINDOW_TOL),
                    np.searchsorted(self.x, hi + WINDOW_TOL, side="right"))
        if win.stop - win.start < 2:
            raise ConfigError(f"window [{lo}, {hi}] holds fewer than 2 nodes")
        return SnapshotSet(self.t, self.x[win], self.rho[:, win], self.m[:, win])


# ---------------------------------------------------------------------------
# Report container
# ---------------------------------------------------------------------------


# (report attribute, CSV column) of every monitored time series, in CSV order
SERIES = (
    ("t", "t"), ("energy", "E"), ("dissipation", "D"),
    ("diss_rate_hessian", "diss_rate_hessian"),
    ("diss_rate_geometric", "diss_rate_geometric"),
    ("llf_rate", "llf_rate"), ("llf_cumulative", "llf_cumulative"),
    ("max_w", "max_w"), ("min_z", "min_z"), ("correction", "correction"),
    ("vacuum_phi", "vacuum_phi"), ("min_rho", "min_rho"), ("quartic", "quartic"),
)


@dataclass
class DiagnosticsReport(Report):
    """A run's Report: the monitored time series plus the checks on them.

    ``series`` maps the names in SERIES to arrays; each name also reads as
    an attribute, empty when the run did not record it.  ``checks`` maps
    each check's name to a Check of its worst value over the series.
    """

    undershoots: int = 0
    cells_advanced: int = 0        # node updates summed over the run's steps
    hull: tuple = (0, 0)           # nodes [lo, hi) some step advanced
    snapshots: Optional[SnapshotSet] = None

    def to_csv(self, path) -> None:
        present = [(col, self.series[name]) for name, col in SERIES
                   if len(self.series.get(name, ()))]
        _write_csv(path, [f"diagnostics report label={self.label}",
                          f"undershoots={self.undershoots}",
                          f"cells_advanced={self.cells_advanced}",
                          f"hull={self.hull[0]},{self.hull[1]}"]
                   + self.check_lines("check {name} = {check}")
                   + [f"note: {note}" for note in self.notes],
                   [col for col, _ in present], len(self.t),
                   lambda lo, hi: [arr[lo:hi] for _, arr in present])


def _write_csv(path, comments, header, n_rows, columns) -> None:
    """``# `` comment lines, the header and n_rows rows, LF-ended.  The rows
    go out BLOCK at a time, ``columns(lo, hi)`` giving the columns of rows
    [lo, hi); each distinct value of a block's column is formatted once,
    as %.12g."""
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join([f"# {c}" for c in comments] + [",".join(header)])
                 + "\n")
        for lo in range(0, n_rows, BLOCK):
            text = []
            for col in columns(lo, min(lo + BLOCK, n_rows)):
                # distinct bit patterns, so -0.0 keeps its sign
                bits, inverse = np.unique(np.ascontiguousarray(col, dtype=float)
                                          .view(np.int64), return_inverse=True)
                text.append(np.array(["%.12g" % v for v in bits.view(float).tolist()],
                                     dtype=object)[inverse].tolist())
            fh.write("\n".join(map(",".join, zip(*text))) + "\n")


for _name, _ in SERIES:
    setattr(DiagnosticsReport, _name, property(
        lambda self, name=_name: self.series.get(name, np.array([]))))


# ---------------------------------------------------------------------------
# Pointwise budgets
# ---------------------------------------------------------------------------


# a node that differs from its far state changes monitored items up to
# HULL_PAD nodes away: an energy-rate interval reads the centered gradients
# at both its end nodes
HULL_PAD = 2


class RowBlock:
    """The rows of a stack of samples that every monitor reads, built once.

    ``field`` is one sample, or a stack of k samples that share their node
    range and end states (``FluidField``).  The monitors sum the nodes
    [lo, hi): the field's live nodes (``ctx.reach``) padded by HULL_PAD,
    which the context comes to store; every other node holds its end's far
    state, the field's end state there.  The rows, from grid node
    ``first`` on, are those and the explicit stencil's two more on each
    side that the grid has: rho and m (``state``, of shape (2, k, N), one
    sample a row) and u = m / rho (0 at vacuum), with the samples' times
    ``t``.  On the summed nodes (``core`` of the rows, ``held`` of the
    stored arrays) the block holds the context's x, A, G and dG = (A'/A)'
    and the trapezoid weights dx A.  What the samples of one context share
    lives in the context's ``memo`` (``per_range``).
    """

    def __init__(self, ctx: SolverContext, field: FluidField):
        self.ctx = ctx
        n, (lo, hi) = ctx.grid.n_nodes, ctx.reach(field)
        self.lo, self.hi = lo, hi = max(lo - HULL_PAD, 0), min(hi + HULL_PAD, n)
        ctx.store(lo, hi)
        self.first = max(lo - 2, 0)
        rows = field.values(self.first, min(hi + 2, n))
        self.state = rows.reshape(2, -1, rows.shape[-1])
        self.rho, self.m = self.state
        self.t = np.reshape(field.t, -1)
        self.u = ctx.g.velocity(self.rho, self.m)
        self.core = slice(lo - self.first, hi - self.first)
        self.held = slice(lo - ctx.lo, hi - ctx.lo)
        self.x, self.A, self.G, self.dG = (
            v[self.held] for v in (ctx.x, ctx.A, ctx.G, ctx.dG))
        self.weights = ctx.dx * self.A
        self.weights[0] *= 0.5
        self.weights[-1] *= 0.5

    def per_range(self, key, build):
        """build() for the context's stored range, kept in its ``memo``
        under ``key`` until that range grows."""
        memo = self.ctx.memo
        if key not in memo:
            memo[key] = build()
        return memo[key]


def _per_sample(field: FluidField, values):
    """``values``, one per sample, as they are for a stack and as a float
    for a single field."""
    return values if np.ndim(field.t) else float(values[0])


def _trapezoid(v: np.ndarray, dx: float):
    """The trapezoid sum of each row of v at the node spacing dx."""
    return 0.5 * dx * np.sum(v[..., 1:] + v[..., :-1], axis=-1)


def _past(block: RowBlock, key, values, h0: int, h1: int) -> list:
    """Trapezoid sums of the rows ``values(i, j, side)``, given on the
    nodes [i, j) all at the end state of ``side``, over the nodes [h0, lo]
    and [hi - 1, h1) on each side of the summed nodes [lo, hi); 0.0 for a
    side with none.  Per side and stored range the values on the stored
    nodes are kept, and the nodes outside the range summed once, BLOCK at
    a time."""
    ctx, sums = block.ctx, [0.0, 0.0]
    s0, s1 = ctx.lo, ctx.hi
    for side, (i, j) in enumerate(((h0, block.lo + 1), (block.hi - 1, h1))):
        if j - i < 2:
            continue

        def build(side=side, i=i, j=j):
            a, b = (i, s0 + 1) if side == 0 else (s1 - 1, j)
            return values(s0, s1, side), sum(
                _trapezoid(values(k, min(k + BLOCK + 1, b), side), ctx.dx)
                for k in range(a, b - 1, BLOCK))
        held, outside = block.per_range((key, side), build)
        sums[side] = outside + _trapezoid(
            held[:, max(i, s0) - s0:min(j, s1) - s0], ctx.dx)
    return sums


@lru_cache(maxsize=16)
def _energy_nodes(grid: Grid, g: GasLaw, ref: ReferenceState,
                  ends: tuple) -> tuple[int, int]:
    """The nodes [lo, hi) the energy monitor sums besides a field's live
    nodes, (n, 0) for none: the reference's blend [-L0, L0] with one node
    more on each side, and up to the domain end each end whose state in
    ``ends`` is not the reference's there, up to the rounding of m / rho."""
    n = grid.n_nodes
    lo, hi = n, 0
    if (ref.rho_minus, ref.u_minus) != (ref.rho_plus, ref.u_plus):
        L0 = BLEND_HALF_WIDTH
        lo, hi = grid.searchsorted(-L0) - 1, grid.searchsorted(L0, "right") + 1
    for side, end in enumerate(ends):
        rho_r, u_r = ((ref.rho_minus, ref.u_minus),
                      (ref.rho_plus, ref.u_plus))[side]
        if end is not None and not (
                end[0] == rho_r and abs(g.velocity(*end) - u_r)
                <= 4.0 * np.spacing(abs(u_r))):
            lo, hi = (0, max(hi, 1)) if side == 0 else (min(lo, n - 1), n)
    return lo, hi


def _reference_terms(g: GasLaw, ref: ReferenceState, x: np.ndarray) -> np.ndarray:
    """Rows rho_bar, u_bar, h(rho_bar) and h'(rho_bar) at x."""
    rho_bar, u_bar = ref.state(x)
    return np.array((rho_bar, u_bar, g.h_delta(rho_bar), g.h_delta_prime(rho_bar)))


def _energy_densities(ctx: SolverContext, rho, u, terms: np.ndarray,
                      x: np.ndarray, dG) -> tuple:
    """The relative energy density (``GasLaw.relative_energy`` from the
    reference ``terms``) and the geometric dissipation piece before eps,
    of the states (rho, u) at x; ``dG()`` gives (A'/A)' there, read in a
    duct alone."""
    g, profile = ctx.g, ctx.profile
    rho_bar, u_bar, h_bar, hp_bar = terms
    kinetic = np.where(rho > g.rho_floor, 0.5 * rho * (u - u_bar) ** 2, 0.0)
    dens = kinetic + g.h_delta(rho) - h_bar - hp_bar * (rho - rho_bar)
    if isinstance(profile, SphericalProfile):
        geo = (profile.n_dim - 1) * rho * u * u / (x * x)
    else:
        geo = np.abs(dG() * rho * u * (u - u_bar))
    return dens, geo


def energy_budget(ctx: SolverContext, field: FluidField, ref: ReferenceState,
                  block: Optional[RowBlock] = None) -> tuple:
    """Relative energy E and the instantaneous dissipation-rate components.

    E integrates the relative energy density against A(x) dx (trapezoid).
    The dissipation rate integrates eps*(h''(rho) rho_x^2 + rho u_x^2 + geo)
    with centered differences; the geometric piece is (n-1) rho u^2 / x^2 in
    the spherical geometry and |(A'/A)' rho u (u - u_bar)| otherwise.

    The terms are summed over the field's live nodes (``block``, built
    here when None), with the reference evaluated once per stored range.
    Every other node holds its end's far state, where the gradients
    vanish; so do the relative energy and the geometric piece where the
    reference is that same state, up to the rounding of u = m / rho.  So
    the monitor also adds the reference's blend [-L0, L0], and up to each
    domain end whose far state differs from the reference's there
    (``_past``).  A stack of samples gives each value per sample.
    """
    block = RowBlock(ctx, field) if block is None else block
    g, core, ends = ctx.g, block.core, field.ends
    rho, u = block.rho[:, core], block.u[:, core]
    terms = block.per_range(("reference", ref),
                            lambda: _reference_terms(g, ref, ctx.x))
    dens, geo = _energy_densities(ctx, rho, u, terms[:, block.held], block.x,
                                  lambda: block.dG)
    rho_x, u_x = np.gradient(np.array((block.rho, block.u)), ctx.dx,
                             axis=-1)[..., core]
    hess = g.h_delta_second(np.maximum(rho, g.rho_floor)) * rho_x ** 2 \
        + rho * u_x ** 2
    E, rate_h, rate_g = np.array((dens, hess, geo)) @ block.weights

    def values(i, j, side):  # E and geo, times A, at the end state
        x, (r, m) = ctx.grid.nodes(i, j), ends[side]
        return np.array(_energy_densities(
            ctx, r, g.velocity(r, m), _reference_terms(g, ref, x), x,
            lambda: ctx.profile.dlog_prime(x))) * ctx.area(i, j)

    h0, h1 = _energy_nodes(ctx.grid, g, ref, ends)
    past_E, past_g = sum(_past(block, ("energy", ref, ends), values,
                               max(h0, 0), min(h1, ctx.grid.n_nodes)),
                         np.zeros(2))
    rate_h, rate_g = ctx.eps * rate_h, ctx.eps * (rate_g + past_g)
    return _per_sample(field, E + past_E), {
        name: _per_sample(field, rate) for name, rate in (
            ("rate_hessian", rate_h), ("rate_geometric", rate_g),
            ("rate_total", rate_h + rate_g))}


def llf_dissipation_rate(ctx: SolverContext, field: FluidField,
                         block: Optional[RowBlock] = None):
    """Energy drain of the interface dissipation (scheme-internal estimate).

    Sums alpha/2 * A * (jump of grad eta_bar) . (jump of state) over the
    interfaces around the field's live nodes, ghost faces included;
    nonnegative by convexity.  The stage reads the block's rows (built
    here when None), each sample with its own ghosts.  Every other
    interface lies between equal far states, where both jumps are zero.
    Heuristic in the sense that it describes the scheme, not the equations.
    """
    block = RowBlock(ctx, field) if block is None else block
    core = block.core
    data = hyperbolic_interface_data(ctx, block.rho, block.m, block.t,
                                     (core.start, core.stop), block.first)
    # both sides of every face in one call: rows (left, right), then
    # (face, sample)
    rho = np.array((data["rho_L"], data["rho_R"]))
    m = np.array((data["m_L"], data["m_R"]))
    g_r, g_m = modified_energy_gradient(ctx.g, rho, m)
    # reference part of grad eta_bar cancels in the jump
    jump = ((g_r[1] - g_r[0]) * (rho[1] - rho[0])
            + (g_m[1] - g_m[0]) * (m[1] - m[0]))
    faces = ctx.Ah_full[block.held.start:block.held.stop + 1, None]
    return _per_sample(field, np.sum(0.5 * data["alpha"] * faces * jump, axis=0))


def riemann_monitor(ctx: SolverContext, field: FluidField,
                    block: Optional[RowBlock] = None) -> tuple:
    """(max w, min z, correction rate) for the current field.

    The rate is the sup-norm of u sqrt(p') A'/A - eps (A'/A)' u; its time
    integral is the correction, and max w minus the correction is what
    should be non-increasing (min z plus it non-decreasing).  The extremes
    run over the block's rows (built here when None), the far states past
    the live nodes included; their rate is zero, since a far state is at
    rest or lies in a duct of uniform area.  A stack of samples gives each
    value per sample.
    """
    block = RowBlock(ctx, field) if block is None else block
    g = ctx.g
    if np.min(block.rho) < g.rho_floor:
        raise CavitationError("invariants undefined: density at the vacuum floor")
    w, z = g.riemann_invariants(block.rho, block.u)
    u = block.u[:, block.core]
    c = g.sound_speed(block.rho[:, block.core])
    rate = np.abs(u * c * block.G - ctx.eps * block.dG * u)
    return tuple(_per_sample(field, v) for v in (
        np.max(w, axis=-1), np.min(z, axis=-1), np.max(rate, axis=-1)))


def vacuum_functional(field: FluidField, rho_tilde: float,
                      block: Optional[RowBlock] = None):
    """Trapezoid integral of 1/rho - 1/rho_t + (rho - rho_t)/rho_t^2 on {rho < rho_t}.

    The nodes that reach the field's arrays, read from ``block`` when given,
    are summed; past them the integrand is the end state's, times the
    length.  A stack of samples gives one value per sample.
    """
    if rho_tilde <= 0.0:
        raise ConfigError("rho_tilde must be positive")

    def phi(rho):
        r = np.maximum(rho, 1e-300)
        return np.where(rho < rho_tilde,
                        1.0 / r - 1.0 / rho_tilde + (rho - rho_tilde) / rho_tilde ** 2,
                        0.0)

    grid = field.grid
    lo, hi = max(field.lo - 1, 0), min(field.hi + 1, grid.n_nodes)
    rows = field.values(lo, hi) if block is None else block.state[..., lo - block.first:]
    rho, x = rows[0, ..., :hi - lo], grid.nodes(lo, hi)
    # phi vanishes on {rho >= rho_t}
    total = _trapezoid(phi(rho), grid.dx) if np.min(rho) < rho_tilde \
        else np.zeros(rho.shape[:-1])
    for end, length in zip(field.ends, (x[0] - grid.a, grid.b - x[-1])):
        if end is not None and end[0] < rho_tilde:
            total = total + phi(end[0]) * length
    return _per_sample(field, np.reshape(total, -1))


def _quartic(block: RowBlock) -> np.ndarray:
    """Integral of the quartic entropy against A dx, per sample: the
    trapezoid sum of the summed nodes, then each end state's eta times the
    integral of A past them (``_past``)."""
    ctx, n = block.ctx, block.ctx.grid.n_nodes
    eta = quartic_entropy(ctx.g, block.rho, block.m)
    left, right = _past(block, "area", lambda i, j, _: ctx.area(i, j)[None],
                        0, n)
    return (eta[:, block.core] @ block.weights + eta[:, 0] * np.sum(left)
            + eta[:, -1] * np.sum(right))


# ---------------------------------------------------------------------------
# Windowed integrability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntegrabilityRecord:
    window: tuple[float, float]
    t_span: tuple[float, float]
    rho_gamma_plus_one: float      # integral of rho^(gamma+1)
    delta_rho_cubed: float         # integral of delta rho^3
    rho_u_cubed: float             # integral of rho |u|^3
    rho_gamma_theta: float         # integral of rho^(gamma+theta)
    eps_rho_cubed_area: float      # eps * integral of rho^3 A

    @property
    def density_total(self) -> float:
        return self.rho_gamma_plus_one + self.delta_rho_cubed

    @property
    def velocity_total(self) -> float:
        return self.rho_u_cubed + self.rho_gamma_theta


def integrability_window(history: SnapshotSet, g: GasLaw, K,
                         profile: NozzleProfile,
                         eps: float) -> IntegrabilityRecord:
    """Space-time integrals of the higher-integrability densities over K.

    The integrals run over every stored time and over ``history.window(K)``
    (trapezoid in both); ``eps_rho_cubed_area`` weighs rho^3 with the
    profile's A(x).
    """
    lo, hi = float(K[0]), float(K[1])
    if not (history.x[0] - WINDOW_TOL < lo < hi < history.x[-1] + WINDOW_TOL):
        raise ConfigError(f"window [{lo}, {hi}] is not inside the stored grid")
    if len(history.t) < 2:
        raise ConfigError("integrability window needs at least 2 snapshot times")
    w = history.window(lo, hi)
    rho = w.rho
    u = g.velocity(rho, w.m)
    A = np.asarray(profile.area(w.x), dtype=float)

    def integral(values):
        return float(np.trapezoid(np.trapezoid(values, w.x, axis=1), w.t))

    return IntegrabilityRecord(
        window=(lo, hi), t_span=(float(w.t[0]), float(w.t[-1])),
        rho_gamma_plus_one=integral(rho ** (g.gamma + 1.0)),
        delta_rho_cubed=integral(g.delta * rho ** 3),
        rho_u_cubed=integral(rho * np.abs(u) ** 3),
        rho_gamma_theta=integral(rho ** (g.gamma + g.theta)),
        eps_rho_cubed_area=eps * integral(rho ** 3 * A[None, :]))


# ---------------------------------------------------------------------------
# Weak-form residuals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpaceTimeBump:
    """Tensor-product C-infinity bump used as a test function."""

    t0: float
    rt: float
    x0: float
    rx: float

    def factors(self, t, x):
        """(b_t, b_t', b_x, b_x') on the axes: phi = b_t(t) b_x(x)."""
        bt, dbt = smooth_bump((t - self.t0) / self.rt)
        bx, dbx = smooth_bump((x - self.x0) / self.rx)
        return bt, dbt / self.rt, bx, dbx / self.rx


# a default test bump's radius in lattice half-spacings: the bumps overlap,
# which keeps their supports well resolved by the snapshot cadence
TEST_FILL = 3.5
# w of the default family's smoothed |v - c| generators sqrt((v - c)^2 + w^2)
GENERATOR_WIDTH = 0.5


def default_test_functions(t1: float, t2: float, K, nt: int = 4,
                           nx: int = 8) -> list[SpaceTimeBump]:
    """nt x nx lattice of bumps supported strictly inside (t1, t2) x K."""
    lo, hi = float(K[0]), float(K[1])
    tc = t1 + (np.arange(nt) + 0.5) * (t2 - t1) / nt
    xc = lo + (np.arange(nx) + 0.5) * (hi - lo) / nx
    rt = min(TEST_FILL * (t2 - t1) / (2 * nt), 0.499 * (t2 - t1))
    rx = min(TEST_FILL * (hi - lo) / (2 * nx), 0.499 * (hi - lo))
    out = []
    for t0 in tc:
        rt0 = min(rt, (t0 - t1) * 0.999, (t2 - t0) * 0.999)
        for x0 in xc:
            rx0 = min(rx, (x0 - lo) * 0.999, (hi - x0) * 0.999)
            out.append(SpaceTimeBump(float(t0), float(rt0), float(x0), float(rx0)))
    return out


def default_generator_family(u_centers: Sequence[float] = (-1.0, 0.0, 1.0)
                             ) -> list[EntropyGenerator]:
    """Convex generators with sub-quadratic growth for the entropy inequality."""
    gens = [gen_half_square()]
    gens += [gen_smoothed_abs(c, GENERATOR_WIDTH) for c in u_centers]
    gens.append(gen_convex_spline(0.0, 1.0))
    return gens


@dataclass
class WeakResidualRecord:
    test_functions: list
    generators: list
    mass: np.ndarray                # (n_phi,)
    momentum: np.ndarray            # (n_phi,)
    entropy: np.ndarray             # (n_gen, n_phi)
    norms: np.ndarray               # (n_phi,) W^{1,1} norms of the tests
    # (n_gen,) largest kernel error estimate each generator's states met,
    # relative to a state's largest moment (``EntropyKernel.moments``)
    quadrature_error: np.ndarray

    @property
    def max_entropy_violation(self) -> float:
        """Largest positive normalized entropy-inequality residual."""
        return float(np.max(np.maximum(self.entropy / self.norms[None, :],
                                       0.0)))

    @property
    def max_quadrature_error(self) -> float:
        """Largest ``quadrature_error`` over the generators (NaN if one has
        no estimate)."""
        return float(np.max(self.quadrature_error, initial=0.0))


def _unique_states(rho, m, support):
    """The distinct (rho, m) among the flat indices ``support``, as two
    contiguous arrays, and each index's place among them."""
    # one complex key per state sorts as (rho, m) rows do, without row views
    states, inverse = np.unique(rho.ravel()[support] + 1j * m.ravel()[support],
                                return_inverse=True)
    return states.real.copy(), states.imag.copy(), inverse.ravel()


def weak_residual(history: SnapshotSet, g: GasLaw, profile: NozzleProfile,
                  test_set: Sequence[SpaceTimeBump],
                  gen_set: Sequence[EntropyGenerator]) -> WeakResidualRecord:
    """Residuals of the limit-system weak forms over stored snapshots.

    Mass:      int (rho phi_t + m phi_x) A
    Momentum:  int (m phi_t + (m^2/rho + p) phi_x + p (A'/A) phi) A
    Entropy:   int (-eta A phi_t - q A phi_x + A'(m eta_rho + (m^2/rho) eta_m - q) phi)
               which must be <= 0 for convex generators as the viscosity
               vanishes.  The gamma-law pressure (no quadratic term) is used:
               these are the target system's forms, not the regularized one's.

    Each test is a product b_t(t) b_x(x); with the trapezoid weights in the
    rows of B_t (tests x times) and B_x (tests x nodes), int F phi_t for all
    tests is ((B_t' @ F) * B_x).sum(1).  The kernel runs once for the whole
    family, one order-1 moment pass (``pair_grads``) on the unique (rho, m)
    states inside the union of the test supports: exact moments for piece
    tables, the kernel's default rules for callables, whose error estimates
    the record keeps.  Each generator's eta, q and source are then
    assembled, scattered and contracted in turn.
    """
    for gen in gen_set:
        if not gen.convex:
            raise ConfigError(f"generator {gen.name!r} is not convex")
    t, x = history.t, history.x
    if len(t) < 4 or not test_set:
        raise ConfigError("weak residuals need at least 4 snapshot times "
                          "and one test function")
    for tf in test_set:
        if not (t[0] <= tf.t0 - tf.rt and tf.t0 + tf.rt <= t[-1]
                and x[0] <= tf.x0 - tf.rx and tf.x0 + tf.rx <= x[-1]):
            raise ConfigError("test function support leaves the snapshot window")
    # trapezoid weights w, with w @ y the integral of y
    wt, wx = (np.convolve(np.diff(a), [0.5, 0.5]) for a in (t, x))
    fac = [tf.factors(t, x) for tf in test_set]
    Bt, dBt, Bx, dBx = (np.array([f[i] for f in fac]) * w
                        for i, w in enumerate((wt, wt, wx, wx)))

    def contract(f_t, f_x, f=None):
        """int (f_t phi_t + f_x phi_x + f phi) dx dt for every test."""
        out = ((dBt @ f_t) * Bx).sum(1) + ((Bt @ f_x) * dBx).sum(1)
        return out if f is None else out + ((Bt @ f) * Bx).sum(1)

    rho, m = history.rho, history.m
    A, dA = (np.asarray(f(x), dtype=float) for f in (profile.area, profile.d_area))
    p = g.pressure_gamma(rho)
    mass = contract(rho * A, m * A)
    momentum = contract(m * A, (m * g.velocity(rho, m) + p) * A, p * dA)
    del p  # freed before the kernel pass, the residual's peak
    # B_t, B_x >= 0: bumps times positive weights
    norms = (Bt.sum(1) + np.abs(dBt).sum(1)) * (Bx @ A) \
        + Bt.sum(1) * (np.abs(dBx) @ A)

    # the kernel on each state a test function sees, once
    support = np.flatnonzero((Bt.T @ Bx).ravel())
    r_s, m_s, inverse = _unique_states(rho, m, support)
    u_s = g.velocity(r_s, m_s)
    entropy = np.zeros((len(gen_set), len(test_set)))
    errors: list[float] = []
    pairs = get_kernel(g).pair_grads(gen_set, r_s, m_s, errors)
    field = np.zeros(rho.shape)
    for i, (eta, q, eta_r, eta_m) in enumerate(pairs):
        src = m_s * eta_r + m_s * u_s * eta_m - q
        # contract's three terms, each scattered into the one field
        terms = []
        for vals, weight, left, right in ((eta, -A, dBt, Bx), (q, -A, Bt, dBx),
                                          (src, dA, Bt, Bx)):
            field.ravel()[support] = vals[inverse]
            terms.append(((left @ (field * weight)) * right).sum(1))
        entropy[i] = terms[0] + terms[1] + terms[2]
    return WeakResidualRecord(list(test_set), list(gen_set), mass, momentum,
                              entropy, norms, np.array(errors))


# ---------------------------------------------------------------------------
# Recorder driving a run
# ---------------------------------------------------------------------------


@dataclass
class RecorderOptions:
    sample_count: int = 32
    collect_snapshots: bool = True
    snapshot_window: Optional[tuple[float, float]] = None
    riemann: bool = True
    quartic: bool = False
    riemann_tol: float = 1e-3      # slack per unit time, relative to osc(w_0)


# the Gronwall bound E + D <= GRONWALL_M (E0 + 1) of every run but the
# spherical Dirichlet ones
GRONWALL_M = 10.0
# the sharp energy form E + D <= E0 (1 + ENERGY_TOL) of spherical Dirichlet runs
ENERGY_TOL = 1e-3

# the most bytes of pending sample rows (rho and m on the pending samples'
# common node range) a Recorder holds before it evaluates them: a flush
# then allocates under about 1.5 MiB (the explicit stage's dozen arrays of
# the rows' size, and the exterior sums of a stored range that grew)
FLUSH_BYTES = 1 << 16


class Recorder:
    """Samples a run at fixed times and accumulates the report.

    Every sample reads the grid, gas law, profile, eps and boundary spec from
    the run's SolverContext; the first sample fixes it.  The llf and vacuum
    series are always recorded, the energy budget when a reference state is
    given.  The boundary mode picks the energy check: the sharp form for
    spherical Dirichlet runs, the Gronwall bound otherwise.

    ``sample`` checks a sample, keeps its snapshot and copies what the
    monitors read: t, its rows and its end states.  The monitors run later,
    once over a stack of every pending sample (``_flush``): before the
    pending rows would pass FLUSH_BYTES, before a sample whose end states
    differ from theirs, and in ``finalize``; so a monitor's error surfaces
    at that flush.  A flush builds one RowBlock, which every monitor reads;
    what the samples share lives in the context's ``memo``.  The monitors
    sum the stack's live nodes and add the far states elsewhere in closed
    form, so the series equal per-sample and whole-grid evaluation up to
    the order of their sums.
    """

    def __init__(self, t_end: float, ref: Optional[ReferenceState] = None,
                 options: Optional[RecorderOptions] = None, label: str = ""):
        self.ref = ref
        self.opt = options or RecorderOptions()
        self.label = label
        self.sample_times = np.linspace(0.0, t_end, self.opt.sample_count)
        self._series: dict[str, list] = {name: [] for name, _ in SERIES}
        # the sampled rate of each series that integrates one in time
        self._rates: dict[str, list] = {}
        self.ctx: Optional[SolverContext] = None   # fixed by the first sample
        self._snaps: Optional[np.ndarray] = None
        self._taken = 0
        # copies of the samples the monitors have not read, and the nodes
        # [lo, hi) their arrays cover together
        self._pending: list[FluidField] = []
        self._span = (0, 0)

    # -- sampling ------------------------------------------------------------
    def sample(self, field: FluidField, ctx: SolverContext) -> None:
        opt = self.opt
        grid = ctx.grid
        if field.grid != grid:
            raise ConfigError("field grid differs from the context's grid")
        k = self._taken  # samples taken so far
        if opt.collect_snapshots and k == opt.sample_count:
            raise ConfigError("recorder already holds sample_count snapshots")
        if self.ctx is None:
            self.ctx = ctx
            self._snap = snapshot_nodes(grid, opt.snapshot_window)
            if opt.collect_snapshots:  # (rho, m) rows of each sample in turn
                self._snaps = np.empty((2, opt.sample_count,
                                        self._snap[1] - self._snap[0]))
            self._rho_tilde = _min_rho(field)
        elif ctx is not self.ctx:
            raise ConfigError("recorder sampled with another run's context")
        span = (field.lo, field.hi)
        if self._pending:  # the rows rho and m take 16 bytes a node
            span = (min(self._span[0], field.lo), max(self._span[1], field.hi))
            if field.ends != self._pending[0].ends or \
                    16 * (len(self._pending) + 1) * (span[1] - span[0]) > FLUSH_BYTES:
                self._flush()
                span = (field.lo, field.hi)
        self._span = span
        self._pending.append(field.copy())
        self._taken += 1
        if opt.collect_snapshots:
            self._snaps[:, k] = field.values(*self._snap)

    def _flush(self) -> None:
        """Every monitor once over the pending samples, stacked on the nodes
        their arrays cover together, each with its end states past its own."""
        pending, self._pending = self._pending, []
        if not pending:
            return
        (lo, hi), ctx, opt = self._span, self.ctx, self.opt
        rows = np.empty((2, len(pending), hi - lo))
        for i, sample in enumerate(pending):
            rows[:, i] = sample.values(lo, hi)
        field = FluidField(ctx.grid, *rows, np.array([f.t for f in pending]),
                           lo, pending[0].ends)
        row, rates = {"t": field.t}, {}
        block = RowBlock(ctx, field)
        if self.ref is not None:
            E, comp = energy_budget(ctx, field, self.ref, block)
            row.update(energy=E, diss_rate_hessian=comp["rate_hessian"],
                       diss_rate_geometric=comp["rate_geometric"])
            rates["dissipation"] = comp["rate_total"]
        rates["llf_cumulative"] = row["llf_rate"] = llf_dissipation_rate(
            ctx, field, block)
        if opt.riemann:
            row["max_w"], row["min_z"], rates["correction"] = riemann_monitor(
                ctx, field, block)
        row.update(vacuum_phi=vacuum_functional(field, self._rho_tilde, block),
                   min_rho=_min_rho(field))
        if opt.quartic:
            row["quartic"] = _quartic(block)
        for name, values in row.items():
            self._series[name].extend(values)
        for name, values in rates.items():
            self._rates.setdefault(name, []).extend(values)

    # -- wrap-up ---------------------------------------------------------------
    def finalize(self) -> DiagnosticsReport:
        self._flush()
        series = {name: np.array(vals) for name, vals in self._series.items()}
        # each integral's trapezoid terms summed in sample order, from 0
        for name, rate in self._rates.items():
            rate = np.array(rate)
            series[name] = np.cumsum(np.concatenate((
                [0.0], 0.5 * np.diff(series["t"]) * (rate[:-1] + rate[1:]))))
        rep = DiagnosticsReport(
            series={name: vals for name, vals in series.items() if vals.size},
            label=self.label)
        opt, checks = self.opt, rep.checks
        if "energy" in rep.series:
            scale = rep.energy[0] + 1.0  # rounding floor even for E0 = 0 runs
            checks["energy_nonnegative"] = Check(_worst(-rep.energy),
                                                 1e-12 * scale)
            checks["dissipation_monotone"] = Check(
                _worst(-np.diff(rep.dissipation)), 1e-12 * scale)
            total = _worst(rep.energy + rep.dissipation)
            if self.ctx.bc.mode is BCMode.DIRICHLET_SPHERICAL:
                checks["energy_inequality_sharp"] = Check(
                    total, rep.energy[0] * (1.0 + ENERGY_TOL) + 1e-14)
            else:
                checks["energy_inequality"] = Check(
                    total, GRONWALL_M * (rep.energy[0] + 1.0))
        if "llf_rate" in rep.series:
            rep.notes.append("llf series estimates the scheme's interface "
                             "dissipation; heuristic, not an estimate of the "
                             "equations")
        if "max_w" in rep.series:
            osc = max(rep.max_w[0] - rep.min_z[0], 1e-300)
            drift = opt.riemann_tol * osc * np.diff(rep.t)
            checks["max_w_corrected_nonincreasing"] = Check(
                _worst(np.diff(rep.max_w - rep.correction) - drift),
                1e-12 * osc)
            checks["min_z_corrected_nondecreasing"] = Check(
                _worst(-np.diff(rep.min_z + rep.correction) - drift),
                1e-12 * osc)
        if "vacuum_phi" in rep.series:
            checks["vacuum_functional_finite"] = Check(
                np.count_nonzero(~np.isfinite(rep.vacuum_phi)), 0.0)
        if "quartic" in rep.series:
            checks["quartic_energy_nonincreasing"] = Check(
                _worst(np.diff(rep.quartic)),
                1e-3 * abs(rep.quartic[0]) + 1e-14)
        if self._snaps is not None:
            rho, m = self._snaps[:, :rep.t.size]
            rep.snapshots = SnapshotSet(t=rep.t.copy(),
                                        x=self.ctx.grid.nodes(*self._snap),
                                        rho=rho, m=m)
        return rep


def _min_rho(field: FluidField):
    """The least density of every node, the end states' included (per
    sample of a stack)."""
    ends = np.min([end[0] for end in field.ends if end is not None],
                  initial=np.inf)
    return _per_sample(field, np.min(field.rho, axis=-1, initial=ends).reshape(-1))


def _worst(values: np.ndarray) -> float:
    """The largest value, NaN if any is NaN; -inf for no values."""
    return float(np.max(values, initial=-np.inf))
