"""The plain explicit stage and step, kept as the oracle of the fast ones.

The package's step differs from this copy in how it computes, not in what:

* it evaluates the gas law through its unchecked kernels, whose
  coefficients are 0-d float64 arrays, and passes 0.5, LIMITER_THETA, dt
  and the other scalar operands of the stage as 0-d arrays too;
* it takes the generalized minmod from signs and magnitudes;
* it stacks the rows (rho, m): the run's state is one (2, n) array, the
  stencil holds one node a row, and one ufunc call covers both rows in the
  stencil copy, the slopes, the face states, the fluxes, the Heun updates
  and the finite checks; the two implicit systems are assembled in one
  (3, 2, N) array and solved in one call;
* it advances the run's state in place after a scan of the last window;
* it steps every rung of a march in lockstep, their windows laid end to
  end on one ragged row (``solver.advance``).

This copy does none of that: it calls the validating ``GasLaw`` methods,
tests all three slope signs with ``np.where``, computes each variable's
fluxes, updates and implicit system on their own with Python float
operands, and finds every window by a whole-grid scan and steps a copy of
the field on a context that stores every node.  It imports from the
package only the data types, the limiter parameter, the window margin, the
steady tolerance and the tridiagonal solve (the rung-by-rung oracle below
also takes the package's window and explicit stage: its stencil, fluxes and
rates, ``solver._extend``, ``_fluxes`` and ``_rates``, on one rung's
row; the plain stage would not do there, for its minmod turns a NaN slope
into 0 where the package's keeps it).  Monkeypatch ``solver.step``,
``solver.advance``, ``SolverContext.max_wave_speed`` and the
``hyperbolic_interface_data`` bindings with these to run the plain path.

``run`` and ``march`` are the oracle of the lockstep march: the package's
run loop as it was before the rungs stepped together, one rung after
another, each step the package's window and explicit stage on that rung
alone (``advance_window``) and one tridiagonal solve per row.  Monkeypatch
``harness.march`` with ``march`` to sweep rung by rung.

``steady_residual`` and ``far_states`` are the plain steady test: the
stage and both diffusion operators of a constant state on a probe context
that stores every node, where the package takes the stage's fluxes of a
constant state in closed form, BLOCK nodes at a time, on no context.
"""

import math
from typing import Callable, Optional

import numpy as np

from nozzleflow import solver
from nozzleflow.diagnostics import DiagnosticsReport
from nozzleflow.errors import (CavitationError, NonFiniteError,
                               NozzleflowError, SolverError, StabilityError)
from nozzleflow.geometry import ConstantProfile, NozzleProfile
from nozzleflow.solver import (LIMITER_THETA, STEADY_RTOL, BCMode,
                               BoundarySpec, FluidField, SolverContext,
                               _green_margin, _tridiag_solve)
from nozzleflow.thermo import GasLaw


def max_wave_speed(self, rho: np.ndarray, m: np.ndarray) -> float:
    u = self.g.velocity(rho, m)
    c = self.g.sound_speed(np.maximum(rho, 0.0))
    lam = float(np.max(np.abs(u) + c))
    if not math.isfinite(lam):
        raise NonFiniteError(f"wave speed max(|u| + c) = {lam} is not finite")
    return lam + 1e-300


def _minmod3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    pos = np.minimum(np.minimum(a, b), c)
    neg = np.maximum(np.maximum(a, b), c)
    return np.where((a > 0) & (b > 0) & (c > 0), pos,
                    np.where((a < 0) & (b < 0) & (c < 0), neg, 0.0))


def _extend(rho, m, ctx: SolverContext, t: float, lo: int,
            hi: int, first: int) -> np.ndarray:
    """Rows (rho, m) on nodes lo-2 .. hi+1 of the arrays, which hold the
    grid nodes from ``first`` on: far states past an end of the arrays
    inside the grid, linear extrapolation through the Dirichlet value or
    the axis mirror past a domain end."""
    n = rho.size
    s0, s1 = max(lo - 2, 0), min(hi + 2, n)
    head, tail = s0 - (lo - 2), hi + 2 - s1  # entries past each array end
    ve = np.empty((2, hi - lo + 4))
    ve[0, head:head + s1 - s0], ve[1, head:head + s1 - s0] = rho[s0:s1], m[s0:s1]
    if head:
        if first > 0:
            ve[:, :head] = np.reshape(ctx.far_states[0], (2, 1))
        elif ctx.bc.mode is BCMode.NEUMANN_SPHERICAL:
            ve[:, :head] = ((rho[1],), (-m[1],))
        else:
            rl, ml = ctx.bc.left_values(t)
            ve[:, :head] = ((max(2.0 * rl - rho[1], ctx.g.rho_floor),),
                            (2.0 * ml - m[1],))
    if tail:
        if first + n < ctx.grid.n_nodes:
            ve[:, -tail:] = np.reshape(ctx.far_states[1], (2, 1))
        else:
            rr, mr = ctx.bc.right_values(t)
            ve[:, -tail:] = ((max(2.0 * rr - rho[-2], ctx.g.rho_floor),),
                             (2.0 * mr - m[-2],))
    return ve


def _slopes(ve: np.ndarray, mirror_left: bool) -> np.ndarray:
    """Limited undivided slopes at ve[:, 1:-1]; ``mirror_left`` reflects the
    axis ghost's slope from node 1 (even density, odd momentum)."""
    d = np.diff(ve)
    s = _minmod3(LIMITER_THETA * d[:, :-1], 0.5 * (d[:, :-1] + d[:, 1:]),
                 LIMITER_THETA * d[:, 1:])
    if mirror_left:
        s[0, 0], s[1, 0] = -s[0, 2], s[1, 2]
    return s


def hyperbolic_interface_data(ctx: SolverContext, rho: np.ndarray,
                              m: np.ndarray, t: float = 0.0,
                              window: Optional[tuple[int, int]] = None,
                              first: Optional[int] = None) -> dict:
    """Interface states/fluxes of the explicit stage (also used by diagnostics).

    ``rho`` and ``m`` hold the grid nodes from ``first`` on (default: the
    context's stored nodes).  For the nodes [lo, hi) of ``window``
    (default: all), returns arrays over the hi-lo+1 interfaces around them;
    on the whole grid these are the n_cells+2 interfaces I_{-1}..I_{n_cells}
    of the ghost-padded grid.
    ``rho_ext``/``m_ext`` hold the states on nodes lo-1 .. hi.  A stack of
    samples, rows (k, N) at the times t (k,), is taken one sample at a
    time, and each array stacks the samples' along a last axis.
    """
    if np.ndim(rho) == 2:
        each = [hyperbolic_interface_data(ctx, r, mm, ti, window, first)
                for r, mm, ti in zip(rho, m, t)]
        return {key: np.stack([d[key] for d in each], axis=-1)
                for key in each[0]}
    g = ctx.g
    lo, hi = window or (0, rho.size)
    first = ctx.lo if first is None else first
    ve = _extend(rho, m, ctx, t, lo, hi, first)
    s = _slopes(ve, lo + first == 0
                and ctx.bc.mode is BCMode.NEUMANN_SPHERICAL)
    v = ve[:, 1:-1]
    # sides[0] / sides[1]: (rho, m) reconstructed left / right of each face
    sides = np.stack((v[:, :-1] + 0.5 * s[:, :-1], v[:, 1:] - 0.5 * s[:, 1:]))
    r = np.maximum(sides[:, 0], g.rho_floor)
    mm = sides[:, 1]
    u = mm / r
    wave = np.abs(u) + g.sound_speed(r)
    alpha = np.maximum(wave[0], wave[1])
    (rl, rr), (ml, mr), (ul, ur) = r, mm, u
    Ah = ctx.Ah_full[first - ctx.lo + lo:first - ctx.lo + hi + 1]
    phi = Ah * (0.5 * (ml + mr) - 0.5 * alpha * (rr - rl))
    psi = Ah * (0.5 * (ml * ul + mr * ur) - 0.5 * alpha * (mr - ml))
    return {"rho_L": rl, "rho_R": rr, "m_L": ml, "m_R": mr,
            "alpha": alpha, "phi": phi, "psi": psi, "rho_ext": v[0],
            "m_ext": v[1]}


def _hyperbolic_rhs(ctx: SolverContext, rho, m, t, window: tuple[int, int]):
    """Explicit rates on the window's nodes, from the full-grid arrays."""
    data = hyperbolic_interface_data(ctx, rho, m, t, window)
    phi, psi = data["phi"], data["psi"]
    p = ctx.g.pressure(np.maximum(data["rho_ext"], 0.0))
    inv = ctx.inv_Adx[window[0]:window[1]]
    conv_rho = -(phi[1:] - phi[:-1]) * inv
    conv_m = -(psi[1:] - psi[:-1]) * inv - (p[2:] - p[:-2]) / (2.0 * ctx.dx)
    return conv_rho, conv_m


def steady_residual(ctx: SolverContext, rho_f: float,
                    m_f: float) -> tuple[float, float]:
    """(residual, rate) of the constant state (rho_f, m_f): the largest
    interior explicit rate and eps times diffusion row, and the rate scale
    (wave speed / dx + eps * largest band entry) times |rho_f| + |m_f|, on
    a probe context that stores every node."""
    n = ctx.grid.n_nodes
    probe = SolverContext(ctx.grid, ctx.g, ctx.profile, ctx.eps, ctx.bc)
    probe.store(0, n)
    rho, m = np.full(n, rho_f), np.full(n, m_f)
    c_rho, c_m = _hyperbolic_rhs(probe, rho, m, 0.0, (2, n - 2))

    def interior(bands, u):  # rows 1 .. n-2 of the banded operator
        return bands[2, :-2] * u[:-2] + bands[1, 1:-1] * u[1:-1] \
            + bands[0, 2:] * u[2:]

    resid = max(np.max(np.abs(c_rho)), np.max(np.abs(c_m)),
                ctx.eps * np.max(np.abs(interior(probe.bands[:, 0], rho))),
                ctx.eps * np.max(np.abs(interior(probe.bands[:, 1], m))))
    rate = (max_wave_speed(ctx, rho[:1], m[:1]) / ctx.dx
            + ctx.eps * probe.band_max) * (abs(rho_f) + abs(m_f))
    return resid, rate


def far_states(ctx: SolverContext) -> tuple:
    """``SolverContext.far_states`` from ``steady_residual``, for constant
    boundary values: an end's state when it is at rest, the duct uniform,
    or the residual at most STEADY_RTOL times the rate."""
    bc, out = ctx.bc, []
    for rho_f, m_f in ((bc.rho_left, bc.m_left), (bc.rho_right, bc.m_right)):
        steady = rho_f is not None and (
            m_f == 0.0 or isinstance(ctx.profile, ConstantProfile))
        if rho_f is not None and not steady:
            resid, rate = steady_residual(ctx, rho_f, m_f)
            steady = resid <= STEADY_RTOL * rate
        out.append((float(rho_f), float(m_f)) if steady else None)
    return tuple(out)



def _implicit_system(bands: np.ndarray, coef: float, rhs: np.ndarray,
                     left: Optional[float], right: float):
    """Bands (dl, d, du) and right side of (I - coef L) u = rhs.

    The end rows pin u to the Dirichlet values; ``left=None`` keeps the
    assembled first row (the mirrored axis end).
    """
    ab = -coef * bands
    ab[1] += 1.0
    dl, d, du = ab[2, :-1], ab[1], ab[0, 1:]
    b = rhs.copy()
    if left is not None:
        d[0], du[0], b[0] = 1.0, 0.0, left
    d[-1], dl[-1], b[-1] = 1.0, 0.0, right
    return dl, d, du, b


def step(field: FluidField, g: GasLaw, profile: NozzleProfile, eps: float,
         bc: BoundarySpec, dt: float, *, ctx: Optional[SolverContext] = None,
         cfl: float = 0.4, forcing: Optional[Callable] = None) -> FluidField:
    """Advance one IMEX step of size dt.

    dt must respect the advective bound cfl * dx / max(|u| + c); the implicit
    diffusion imposes no restriction.  ``forcing(x, t)`` may return extra
    (mass, momentum) source arrays (manufactured-solution studies).  A given
    ``ctx`` must have been built for this grid, g, profile, eps and bc.
    Only the nodes of the whole-grid scan's window advance (all of them
    under ``forcing``); the others rest on a steady far state and are copied.
    """
    if ctx is None:
        ctx = SolverContext(field.grid, g, profile, eps, bc)
    else:
        ctx.require(field.grid, g, profile, eps, bc)
    ctx.store(0, field.grid.n_nodes)  # the coefficients of every node
    if dt <= 0.0:
        raise StabilityError("dt must be positive")
    rho, m = field.rho, field.m
    n = rho.size
    if forcing is not None:
        lo, hi = 0, n
    else:
        i, j = ctx._rest_ends(rho, m, None)  # the whole-grid scan
        pad = 4 + _green_margin(ctx.eps * dt * ctx.band_max)
        lo, hi = max(i - pad, 0), min(j + pad, n)
    lam = ctx.max_wave_speed(rho[lo:hi], m[lo:hi])
    if hi - lo < n:
        lam = max(lam, ctx.far_speed)
    bound = cfl * ctx.dx / lam
    win = slice(lo, hi)
    if dt > bound * (1.0 + 1e-9):
        raise StabilityError(
            f"dt={dt:.3e} exceeds the advective bound {bound:.3e}")

    # two-stage (Heun) explicit convection: a single forward-Euler stage
    # feeds energy into the resolved waves at O(dt) and visibly pollutes the
    # discrete energy identity; averaging the stage fluxes removes that while
    # keeping one tridiagonal solve per equation below.  The output arrays
    # carry the stage state, so stage 2 reads frozen neighbours from them.
    floor = ctx.g.rho_floor
    t0 = field.t
    rho_out, m_out = rho.copy(), m.copy()
    c1_rho, c1_m = _hyperbolic_rhs(ctx, rho, m, t0, (lo, hi))
    rho_out[win] = np.maximum(rho[win] + dt * c1_rho, floor)
    m_out[win] = m[win] + dt * c1_m
    if forcing is not None:
        f1_rho, f1_m = (np.asarray(v, dtype=float) for v in forcing(ctx.x, t0))
        rho_out[win] = np.maximum(rho_out[win] + dt * f1_rho, floor)
        m_out[win] = m_out[win] + dt * f1_m
    c2_rho, c2_m = _hyperbolic_rhs(ctx, rho_out, m_out, t0 + dt, (lo, hi))
    rho_s = rho[win] + 0.5 * dt * (c1_rho + c2_rho)
    m_s = m[win] + 0.5 * dt * (c1_m + c2_m)
    if forcing is not None:
        f2_rho, f2_m = (np.asarray(v, dtype=float)
                        for v in forcing(ctx.x, t0 + dt))
        rho_s = rho_s + 0.5 * dt * (f1_rho + f2_rho)
        m_s = m_s + 0.5 * dt * (f1_m + f2_m)

    if not (np.all(np.isfinite(rho_s)) and np.all(np.isfinite(m_s))):
        raise NonFiniteError("non-finite values after the explicit stage")
    # transient undershoots are counted, not clamped: the implicit diffusion
    # usually lifts an isolated dip, and a persistent one must surface as a
    # cavitation fault below rather than be masked
    ctx.undershoots += int(np.sum(rho_s[1:-1] < floor))
    ctx.cells_advanced += hi - lo
    ctx.hull = (min(ctx.hull[0], lo), max(ctx.hull[1], hi))

    # the window's end rows are pinned: to the boundary values at a domain
    # end (the axis end keeps its mirrored row), else to the frozen values
    t1 = t0 + dt
    rho_l, m_l = ctx.bc.left_values(t1) if lo == 0 else (rho[lo], m[lo])
    rho_r, m_r = ctx.bc.right_values(t1) if hi == n else (rho[hi - 1],
                                                           m[hi - 1])
    coef = ctx.eps * dt
    rho_n = _tridiag_solve(*_implicit_system(ctx.bands[:, 0, win], coef,
                                             rho_s, rho_l, rho_r))
    m_n = _tridiag_solve(*_implicit_system(ctx.bands[:, 1, win], coef, m_s,
                                           m_l, m_r))

    if not (np.all(np.isfinite(rho_n)) and np.all(np.isfinite(m_n))):
        raise NonFiniteError("non-finite values after the implicit stage")
    if np.min(rho_n) < floor:
        raise CavitationError(
            f"density fell to {np.min(rho_n):.3e} (< floor {floor:.0e})")
    rho_out[win] = rho_n
    m_out[win] = m_n
    return FluidField(field.grid, rho_out, m_out, t1)


def _advance(ctx: SolverContext, t: float, dt: float, *, cfl: float = 0.4,
             forcing: Optional[Callable] = None) -> tuple[int, int]:
    """The plain ``step`` on the context's state, which it first widens to
    every node, written back in place; the next scan covers every node, and
    every node is live, so a sampled field and the monitors' sums cover
    every node."""
    ctx.store(0, ctx.grid.n_nodes)
    out = step(FluidField(ctx.grid, ctx.rho, ctx.m, t), ctx.g, ctx.profile,
               ctx.eps, ctx.bc, dt, ctx=ctx, cfl=cfl, forcing=forcing)
    ctx.rho[:], ctx.m[:] = out.rho, out.m
    ctx.live = (0, ctx.grid.n_nodes)
    ctx.rescan()
    return ctx.live


def advance(ctxs: list, ts: list, dts: list, *, cfl: float = 0.4,
            forcing: Optional[Callable] = None) -> list:
    """``solver.advance`` by the plain step, one context after another."""
    return [_caught(SolverError, _advance, ctx, t, dt, cfl=cfl,
                    forcing=forcing) for ctx, t, dt in zip(ctxs, ts, dts)]


def _caught(kind, fn, *args, **kwargs):
    """fn's result, or the ``kind`` error it raised."""
    try:
        return fn(*args, **kwargs)
    except kind as err:
        return err


# ---------------------------------------------------------------------------
# The rung-by-rung march: the oracle of the lockstep one
# ---------------------------------------------------------------------------


def _package_rates(ctx: SolverContext, t: float, a: int,
                   b: int) -> np.ndarray:
    """The package's explicit rates (rho, m) on the stored columns [a, b)
    of the context's state at time t: its stencil, fluxes and rates on the
    one-rung row of the window."""
    ve = np.empty((b - a + 4, 2))
    solver._extend(ctx.state, ctx, t, a, b, ctx.lo, ve)
    axis = ctx.lo + a == 0 and ctx.bc.mode is BCMode.NEUMANN_SPHERICAL
    _, _, F = solver._fluxes(ve, ctx.g, ctx.Ah_full[a:b + 1],
                             (0,) if axis else ())
    return solver._rates(ve, F, ctx.g, ctx.inv_Adx[a:b], ctx._two_dx)


def advance_window(ctx: SolverContext, t: float, dt: float, *,
                   cfl: float = 0.4,
                   forcing: Optional[Callable] = None) -> tuple[int, int]:
    """One context's windowed step as the package took it before its rungs
    stepped in lockstep: the package's window and explicit stage, on this
    context alone, and one tridiagonal solve per row."""
    lo, hi = ctx._window(dt, cfl, forcing is not None)
    n, state, a, b = ctx.grid.n_nodes, ctx.state, lo - ctx.lo, hi - ctx.lo
    floor, h, half_h = ctx.g._floor, np.array(dt), np.array(0.5 * dt)
    state0 = state[:, a:b].copy()
    c1 = _package_rates(ctx, t, a, b)
    mid = state0 + h * c1
    np.maximum(mid[0], floor, out=mid[0])
    if forcing is not None:
        f1 = np.array(forcing(ctx.x, t), dtype=float)
        mid = mid + h * f1
        np.maximum(mid[0], floor, out=mid[0])
    state[:, a:b] = mid
    c2 = _package_rates(ctx, t + dt, a, b)
    new = state0 + half_h * (c1 + c2)
    if forcing is not None:
        new = new + half_h * (f1 + np.array(forcing(ctx.x, t + dt),
                                            dtype=float))
    if not np.isfinite(new).all():
        raise NonFiniteError("non-finite values after the explicit stage")
    ctx.undershoots += np.count_nonzero(new[0, 1:-1] < floor)
    ctx.cells_advanced += hi - lo
    ctx.hull = (min(ctx.hull[0], lo), max(ctx.hull[1], hi))
    ctx.live = ((lo, hi) if ctx.live[0] >= ctx.live[1] else
                (min(ctx.live[0], lo), max(ctx.live[1], hi)))
    t1 = t + dt
    left = ctx.bc.left_values(t1) if lo == 0 else state0[:, 0]
    right = ctx.bc.right_values(t1) if hi == n else state0[:, -1]
    ab = np.array(-(ctx.eps * dt)) * ctx.bands[:, :, a:b].transpose(1, 0, 2)
    ab[:, 1] += 1.0
    pin = slice(0 if left[0] is not None else 1, 2)
    ab[pin, 1, 0], ab[pin, 0, 1], new[pin, 0] = 1.0, 0.0, left[pin]
    ab[:, 1, -1], ab[:, 2, -2], new[:, -1] = 1.0, 0.0, right
    for k in (0, 1):
        new[k] = _tridiag_solve(ab[k, 2, :-1], ab[k, 1], ab[k, 0, 1:], new[k])
    if not np.isfinite(new).all():
        raise NonFiniteError("non-finite values after the implicit stage")
    low = new[0].min()
    if low < floor:
        raise CavitationError(
            f"density fell to {low:.3e} (< floor {ctx.g.rho_floor:.0e})")
    state[:, a:b] = new
    return lo, hi


def run(field: FluidField, g: GasLaw, profile: NozzleProfile, eps: float,
        bc: BoundarySpec, t_end: float, hooks=None, *, cfl: float = 0.4,
        forcing: Optional[Callable] = None,
        dt_fixed: Optional[float] = None):
    """``solver.run`` as the rung-by-rung loop it was: ``advance_window``
    once a step."""
    if t_end <= field.t + 1e-15 * max(1.0, abs(t_end)):
        return field, (hooks.finalize() if hooks is not None else
                       DiagnosticsReport())
    ctx = SolverContext(field.grid, g, profile, eps, bc)
    ends = [e for e in field.ends if e is not None]
    with np.errstate(over="ignore"):
        ctx.max_wave_speed(np.append(field.rho, [e[0] for e in ends]),
                           np.append(field.m, [e[1] for e in ends]))
    ctx.start(field)
    forced = forcing is not None
    if forced:
        ctx.store(0, field.grid.n_nodes)
        ctx.live = (0, field.grid.n_nodes)
    targets = []
    if hooks is not None:
        targets = [ts for ts in np.sort(np.asarray(hooks.sample_times, dtype=float))
                   if field.t - 1e-12 <= ts <= t_end + 1e-12]
        if targets and abs(targets[0] - field.t) <= 1e-12:
            hooks.sample(ctx.field(field.t), ctx)
            targets = targets[1:]
    t = field.t
    while t < t_end - 1e-13 * max(1.0, t_end):
        dt = dt_fixed
        if dt is None:
            dt = cfl * ctx.dx / ctx.scan(forced)[2]
        t_next = min(targets[0] if targets else t_end, t_end)
        snap = False
        if t + dt >= t_next - 1e-13 * max(1.0, t_next):
            dt = t_next - t
            snap = True
        try:
            advance_window(ctx, t, dt, cfl=cfl, forcing=forcing)
        except SolverError as err:
            raise type(err)(f"{err} [at t={t:.8g}]") from err
        t = t_next if snap else t + dt
        if snap and targets and abs(t_next - targets[0]) <= 1e-12:
            hooks.sample(ctx.field(t), ctx)
            targets = targets[1:]
    if hooks is None:
        report = DiagnosticsReport()
    else:
        for _ in targets:
            hooks.sample(ctx.field(t), ctx)
        report = hooks.finalize()
    report.undershoots = ctx.undershoots
    report.cells_advanced = ctx.cells_advanced
    report.hull = ctx.hull
    return ctx.field(t), report


def march(rungs: list, t_end: float, *, cfl: float = 0.4,
          forcing: Optional[Callable] = None,
          dt_fixed: Optional[float] = None) -> list:
    """``solver.march`` one rung after another, each by ``run``."""
    return [_caught(NozzleflowError, run, r.field, r.g, r.profile, r.eps, r.bc,
                    t_end, r.hooks, cfl=cfl, forcing=forcing, dt_fixed=dt_fixed)
            for r in rungs]
