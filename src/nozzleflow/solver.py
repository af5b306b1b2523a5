"""Time integration of the viscous quasi-1D system on a bounded interval.

One step is an IMEX split:

* convection and geometric sources advance explicitly with MUSCL-limited
  central interface states (generalized minmod, theta = LIMITER_THETA) and
  local Lax-Friedrichs dissipation on the reconstructed jumps (raw-jump
  dissipation would cap accuracy at first order);
* the O(eps) diffusion advances implicitly, one tridiagonal solve per
  equation, so the step is limited only by the advective CFL condition.

The mass convection and mass diffusion are discretized in area-weighted
flux form, so the discrete total mass changes only through the boundary
fluxes.  The momentum keeps the pointwise grouping eps*(m_x + (A'/A) m)_x
and a centered pressure gradient, which makes every constant state with
zero momentum an exact steady state regardless of the profile.

A step advances only an index window [i0, i1) of the grid.  Where an end's
Dirichlet far state is a discrete steady state of the scheme, the nodes that
rest on it (within FAR_STATE_TOL of its size) are frozen and left as they
are.  The window covers every other node, plus the two explicit stages'
stencils (4 nodes), plus a margin across which the implicit solve's
discrete Green's function decays below GREEN_DECAY; its first and last
nodes are pinned to their frozen values in both tridiagonal solves.  A
window that touches a domain end uses that end's ghost and boundary row, so
the whole grid is the window [0, n).  Time-dependent boundary values,
``forcing`` and far states that are not steady (nonzero far momentum where
A' != 0) keep their end, or the whole grid, active.

``SolverContext.advance`` steps arrays that the caller hands over for the
whole run, in place.  Every node outside the window a step advanced still
rests on its far state afterwards, so the next window is found by scanning
only that window; the whole grid is scanned on a run's first step and when
the scanned window rests wholly on one far state.  The same scan gives the
wave speed the next dt is taken from.  ``run`` calls ``advance``; ``step``
copies its field and advances the copy after a whole-grid scan.

The explicit stage and ``SolverContext.max_wave_speed`` call the gas law's
unchecked kernels (``GasLaw._pressure``, ``_p_prime``, ``_velocity``) on
densities clamped at rho_floor (faces) or 0, where validation cannot fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import (CavitationError, ConfigError, DomainError, NonFiniteError,
                     SolverError, StabilityError)
from .entropy import smooth_bump, smoothstep
from .geometry import NozzleProfile
from .thermo import GasLaw

BCValue = Union[float, Callable[[float], float]]

# the fewest cells a grid may have
MIN_CELLS = 8


@dataclass(frozen=True)
class Grid:
    """Uniform node grid on [a, b] with n_cells intervals (n_cells+1 nodes)."""

    a: float
    b: float
    n_cells: int

    def __post_init__(self):
        if not self.b > self.a:
            raise ConfigError(f"grid needs b > a, got [{self.a}, {self.b}]")
        if self.n_cells < MIN_CELLS:
            raise ConfigError(f"grid needs at least {MIN_CELLS} cells")

    @property
    def dx(self) -> float:
        return (self.b - self.a) / self.n_cells

    @property
    def n_nodes(self) -> int:
        return self.n_cells + 1

    @cached_property
    def x(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.n_nodes)


@dataclass
class FluidField:
    """Discrete (rho, m) state with its time stamp."""

    grid: Grid
    rho: np.ndarray
    m: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=float)
        self.m = np.asarray(self.m, dtype=float)
        if self.rho.shape != (self.grid.n_nodes,) or self.m.shape != (self.grid.n_nodes,):
            raise ConfigError("field arrays must match the grid node count")

    def copy(self) -> "FluidField":
        return FluidField(self.grid, self.rho.copy(), self.m.copy(), self.t)


class BCMode(Enum):
    DIRICHLET_NOZZLE = "dirichlet_nozzle"
    DIRICHLET_SPHERICAL = "dirichlet_spherical"
    NEUMANN_SPHERICAL = "neumann_spherical"


@dataclass(frozen=True)
class BoundarySpec:
    """Boundary construction; values may be constants or callables of t."""

    mode: BCMode
    rho_left: Optional[BCValue] = None
    m_left: Optional[BCValue] = None
    rho_right: Optional[BCValue] = None
    m_right: Optional[BCValue] = None

    @staticmethod
    def _at(v: Optional[BCValue], t: float) -> float:
        return float(v(t)) if callable(v) else float(v)  # type: ignore[arg-type]

    @classmethod
    def dirichlet_nozzle(cls, rho_minus: BCValue, m_minus: BCValue,
                         rho_plus: BCValue, m_plus: BCValue) -> "BoundarySpec":
        return cls(BCMode.DIRICHLET_NOZZLE, rho_minus, m_minus, rho_plus, m_plus)

    @classmethod
    def dirichlet_spherical(cls, rho_bar: BCValue) -> "BoundarySpec":
        return cls(BCMode.DIRICHLET_SPHERICAL, rho_bar, 0.0, rho_bar, 0.0)

    @classmethod
    def neumann_spherical(cls, rho_bar: BCValue) -> "BoundarySpec":
        # left end: rho_x = 0 (mirror), m = 0; right end: Dirichlet (rho_bar, 0)
        return cls(BCMode.NEUMANN_SPHERICAL, None, 0.0, rho_bar, 0.0)

    def __post_init__(self):
        for v in (self.rho_left, self.rho_right):
            if v is not None and not callable(v) and v <= 0.0:
                raise ConfigError("Dirichlet boundary densities must be positive")

    def left_values(self, t: float) -> tuple[Optional[float], float]:
        rho = None if self.rho_left is None else self._at(self.rho_left, t)
        return rho, self._at(self.m_left, t)

    def right_values(self, t: float) -> tuple[float, float]:
        return self._at(self.rho_right, t), self._at(self.m_right, t)


@dataclass
class InitialData:
    """Raw initial data plus the mollification and boundary-blend widths."""

    rho0: Callable[[np.ndarray], np.ndarray]
    m0: Callable[[np.ndarray], np.ndarray]
    mollify_width: float = 0.0
    blend_width: float = 0.0


# ---------------------------------------------------------------------------
# Context: everything that does not change from step to step
# ---------------------------------------------------------------------------

# the default Courant number of ``step``, ``run`` and a config's ``cfl``
CFL = 0.4


class SolverContext:
    """The solver's inputs for one run, with the coefficient arrays they fix.

    A context owns the grid, gas law, profile, viscosity and boundary spec;
    ``step`` and ``run`` take all five from it.  It also keeps the window
    the last ``advance`` moved and the scan made since, never the arrays.
    """

    def __init__(self, grid: Grid, g: GasLaw, profile: NozzleProfile,
                 eps: float, bc: BoundarySpec):
        if eps <= 0.0:
            raise ConfigError("viscosity eps must be positive")
        self.grid = grid
        self.g = g
        self.profile = profile
        self.eps = eps
        self.bc = bc
        x = grid.x
        dx = grid.dx
        self.x = x
        self.dx = dx
        self.A = np.asarray(profile.area(x), dtype=float)
        self.G = np.asarray(profile.dlog(x), dtype=float)
        # interface areas I_j between nodes j, j+1, plus mirrored ghost faces
        Ah = np.asarray(profile.area(x[:-1] + 0.5 * dx), dtype=float)
        self.Ah = Ah
        self.Ah_full = np.concatenate([[Ah[0]], Ah, [Ah[-1]]])
        self.undershoots = 0
        # diffusion operators per unit eps*dt in LAPACK band rows
        # (super, diagonal, sub): row 0 holds L[j-1, j] at column j, row 2
        # holds L[j+1, j]
        n = grid.n_nodes
        self.mass_bands = np.zeros((3, n))
        self.mass_bands[0, 1:] = Ah / (self.A[:-1] * dx * dx)
        self.mass_bands[2, :-1] = Ah / (self.A[1:] * dx * dx)
        if bc.mode is BCMode.NEUMANN_SPHERICAL:
            self.mass_bands[0, 1] = 2.0 * Ah[0] / (self.A[0] * dx * dx)
        self.mass_bands[1] = -(np.concatenate([[0.0], self.mass_bands[2, :-1]])
                               + np.concatenate([self.mass_bands[0, 1:], [0.0]]))
        self.mom_bands = np.zeros((3, n))
        self.mom_bands[0, 1:] = 1.0 / (dx * dx) + self.G[1:] / (2.0 * dx)
        self.mom_bands[1] = -2.0 / (dx * dx)
        self.mom_bands[2, :-1] = 1.0 / (dx * dx) - self.G[:-1] / (2.0 * dx)
        self.inv_Adx = 1.0 / (self.A * dx)
        self.cells_advanced = 0
        # [lo, hi): union of every window ``advance`` moved, empty at first;
        # each node outside it holds its value from before the first step
        self.hull = (n, 0)
        self.rescan()

    @cached_property
    def dG(self) -> np.ndarray:
        """(A'/A)' at the nodes; only the monitors read it."""
        return np.asarray(self.profile.dlog_prime(self.x), dtype=float)

    def max_wave_speed(self, rho: np.ndarray, m: np.ndarray) -> float:
        """max(|u| + c) over float arrays; rho clamped at 0 needs no check."""
        speed = np.abs(self.g._velocity(rho, m)) + np.sqrt(
            self.g._p_prime(np.maximum(rho, 0.0)))
        lam = float(speed.max())
        if not math.isfinite(lam):
            i = int(np.isfinite(speed).argmin())
            raise NonFiniteError(f"wave speed max(|u| + c) = {lam} is not finite "
                                 f"at rho = {rho[i]:g} (gamma = {self.g.gamma:g})")
        return lam + 1e-300

    # -- active window ---------------------------------------------------------
    @cached_property
    def far_states(self) -> tuple:
        """Per end, the far state (rho, m) that frozen nodes may rest on.

        None where the end has no constant Dirichlet state, or where that
        state is not a discrete steady state: the explicit stage and both
        diffusion operators applied to it must vanish on the interior.
        """
        n = self.grid.n_nodes
        bc = self.bc
        ends = []
        for rho_f, m_f in ((bc.rho_left, bc.m_left), (bc.rho_right, bc.m_right)):
            if rho_f is None or callable(rho_f) or callable(m_f):
                ends.append(None)
                continue
            rho, m = np.full(n, float(rho_f)), np.full(n, float(m_f))
            c_rho, c_m = _hyperbolic_rhs(self, rho, m, 0.0, (2, n - 2))
            resid = max(np.max(np.abs(c_rho)), np.max(np.abs(c_m)),
                        self.eps * np.max(np.abs(_apply(self.mass_bands, rho))),
                        self.eps * np.max(np.abs(_apply(self.mom_bands, m))))
            rate = (self.max_wave_speed(rho[:1], m[:1]) / self.dx
                    + self.eps * self.band_max) * (abs(rho_f) + abs(m_f))
            ends.append((float(rho_f), float(m_f))
                        if resid <= STEADY_RTOL * rate else None)
        return tuple(ends)

    @cached_property
    def band_max(self) -> float:
        """Largest off-diagonal entry of either diffusion operator."""
        return float(max(np.max(np.abs(b[[0, 2]]))
                         for b in (self.mass_bands, self.mom_bands)))

    @cached_property
    def far_speed(self) -> float:
        """Largest |u| + c over the far states that nodes may rest on."""
        states = [end for end in self.far_states if end is not None]
        if not states:
            return 0.0
        rho, m = np.array(states).T
        return self.max_wave_speed(rho, m)

    @cached_property
    def rest_speed(self) -> float:
        """An upper bound of |u| + c over every state in the rest box: the
        largest |m| over the smallest rho, plus c at the largest rho."""
        speeds = [0.0]
        for end in self.far_states:
            if end is not None:
                r, mm = end
                tol = FAR_STATE_TOL * (abs(r) + abs(mm))
                u = (abs(mm) + tol) / (r - tol) if r > tol else math.inf
                speeds.append(u + math.sqrt(self.g._p_prime(r + tol)))
        return max(speeds)

    @cached_property
    def rest_box(self) -> tuple:
        """(rho_lo, rho_hi, m_lo, m_hi), each of shape (2, 1): the states
        resting on the left (row 0) and the right (row 1) far state, within
        FAR_STATE_TOL of its size; an end without a far state admits none."""
        rows = []
        for end in self.far_states:
            if end is None:
                rows.append((math.inf, -math.inf, math.inf, -math.inf))
                continue
            r, mm = end
            tol = FAR_STATE_TOL * (abs(r) + abs(mm))
            rows.append((r - tol, r + tol, mm - tol, mm + tol))
        return tuple(np.array(rows).T[:, :, None])

    def _rest_ends(self, rho: np.ndarray, m: np.ndarray,
                   span: Optional[tuple[int, int]]) -> tuple[int, int]:
        """(i, j): i is the first node off the left far state and j - 1 the
        last node off the right one, swapped when i > j; (0, n) when no node
        is off either.  NaN rests nowhere.

        Only the nodes of ``span`` (None: all) are scanned, which is exact
        when every node below it rests on the left far state and every node
        past it on the right one.  A span that rests wholly on one far state
        cannot place that end, and the whole grid is scanned instead.
        """
        n = rho.size
        lo, hi = span or (0, n)
        rho_lo, rho_hi, m_lo, m_hi = self.rest_box
        r, q = rho[lo:hi], m[lo:hi]
        rests = (r >= rho_lo) & (r <= rho_hi) & (q >= m_lo) & (q <= m_hi)
        left, right = rests[0], rests[1, ::-1]
        i, k = int(left.argmin()), int(right.argmin())
        if hi - lo < n and (left[i] or right[k]):
            return self._rest_ends(rho, m, None)
        i = n if left[i] else lo + i
        j = 0 if right[k] else hi - k
        return min(i, j), max(i, j)

    def rescan(self) -> None:
        """Forget the last scan, so the next one covers the whole grid; due
        before ``advance`` is handed arrays its last call did not update."""
        self._moved: Optional[tuple[int, int]] = None
        self._scan: Optional[tuple[int, int, float]] = None

    def scan(self, rho: np.ndarray, m: np.ndarray,
             forced: bool) -> tuple[int, int, float]:
        """(lo, hi, lam): the nodes off their far states padded by the
        explicit stencil, and lam = max(|u| + c) over them and the far
        states outside them; cfl dx / lam bounds the next dt.  ``forced``
        (a run with forcing) gives the whole grid.

        The scan covers the window the last ``advance`` moved (the whole
        grid after ``rescan``) and is kept until the next ``advance``.
        """
        if self._scan is None:
            n = rho.size
            i, j = (0, n) if forced else self._rest_ends(rho, m, self._moved)
            lo, hi = max(i - 4, 0), min(j + 4, n)
            lam = self.max_wave_speed(rho[lo:hi], m[lo:hi])
            if hi - lo < n:
                lam = max(lam, self.far_speed)
            self._scan = lo, hi, lam
        return self._scan

    def advance(self, rho: np.ndarray, m: np.ndarray, t: float, dt: float, *,
                cfl: float = CFL, forcing: Optional[Callable] = None
                ) -> tuple[int, int]:
        """Advance (rho, m) at time t by one IMEX step of size dt, in place;
        returns the node range [lo, hi) it moved.

        The arrays belong to the caller's run: between calls nothing else
        may change them (call ``rescan`` when other arrays come in).  The
        range is the ``scan`` window (the whole grid under ``forcing``)
        padded by the margin after which the implicit solve's Green's
        function has decayed below GREEN_DECAY; the other nodes are frozen.
        dt must respect the advective bound cfl dx / max(|u| + c) over the
        range; the rest box's ``rest_speed`` bounds the nodes that the scan
        window leaves out.
        """
        if dt <= 0.0:
            raise StabilityError("dt must be positive")
        forced = forcing is not None
        n = rho.size
        lo, hi, lam = self.scan(rho, m, forced)
        if hi - lo < n:
            lam = max(lam, self.rest_speed)
        bound = cfl * self.dx / lam
        if dt > bound * (1.0 + 1e-9):
            raise StabilityError(
                f"dt={dt:.3e} exceeds the advective bound {bound:.3e}")
        pad = _green_margin(self.eps * dt * self.band_max)
        lo, hi = max(lo - pad, 0), min(hi + pad, n)
        win = slice(lo, hi)
        self._moved, self._scan = (lo, hi), None

        # two-stage (Heun) explicit convection: a single forward-Euler stage
        # feeds energy into the resolved waves at O(dt) and visibly pollutes
        # the discrete energy identity; averaging the stage fluxes removes
        # that while keeping one tridiagonal solve per equation below.  The
        # arrays carry the stage state, so stage 2 reads frozen neighbours.
        floor = self.g.rho_floor
        rho0, m0 = rho[win].copy(), m[win].copy()
        c1_rho, c1_m = _hyperbolic_rhs(self, rho, m, t, (lo, hi))
        rho[win] = np.maximum(rho0 + dt * c1_rho, floor)
        m[win] = m0 + dt * c1_m
        if forced:
            f1_rho, f1_m = (np.asarray(v, dtype=float) for v in forcing(self.x, t))
            rho[win] = np.maximum(rho[win] + dt * f1_rho, floor)
            m[win] = m[win] + dt * f1_m
        c2_rho, c2_m = _hyperbolic_rhs(self, rho, m, t + dt, (lo, hi))
        rho_s = rho0 + 0.5 * dt * (c1_rho + c2_rho)
        m_s = m0 + 0.5 * dt * (c1_m + c2_m)
        if forced:
            f2_rho, f2_m = (np.asarray(v, dtype=float)
                            for v in forcing(self.x, t + dt))
            rho_s = rho_s + 0.5 * dt * (f1_rho + f2_rho)
            m_s = m_s + 0.5 * dt * (f1_m + f2_m)

        if not (np.isfinite(rho_s).all() and np.isfinite(m_s).all()):
            raise NonFiniteError("non-finite values after the explicit stage")
        # transient undershoots are counted, not clamped: the implicit
        # diffusion usually lifts an isolated dip, and a persistent one must
        # surface as a cavitation fault below rather than be masked
        self.undershoots += np.count_nonzero(rho_s[1:-1] < floor)
        self.cells_advanced += hi - lo
        self.hull = (min(self.hull[0], lo), max(self.hull[1], hi))

        # the window's end rows are pinned: to the boundary values at a
        # domain end (the axis end keeps its mirrored row), else to the
        # frozen values
        t1 = t + dt
        rho_l, m_l = self.bc.left_values(t1) if lo == 0 else (rho0[0], m0[0])
        rho_r, m_r = self.bc.right_values(t1) if hi == n else (rho0[-1],
                                                                m0[-1])
        coef = self.eps * dt
        rho_n = _tridiag_solve(*_implicit_system(self.mass_bands[:, win], coef,
                                                 rho_s, rho_l, rho_r))
        m_n = _tridiag_solve(*_implicit_system(self.mom_bands[:, win], coef,
                                               m_s, m_l, m_r))

        if not (np.isfinite(rho_n).all() and np.isfinite(m_n).all()):
            raise NonFiniteError("non-finite values after the implicit stage")
        if rho_n.min() < floor:
            raise CavitationError(
                f"density fell to {rho_n.min():.3e} (< floor {floor:.0e})")
        rho[win] = rho_n
        m[win] = m_n
        return lo, hi

    def require(self, grid: Grid, g: GasLaw, profile: NozzleProfile,
                eps: float, bc: BoundarySpec) -> None:
        """Raise ConfigError unless this context was built for these inputs."""
        for what, mine, given in (("grid", self.grid, grid),
                                  ("gas law", self.g, g),
                                  ("profile", self.profile, profile),
                                  ("eps", self.eps, eps),
                                  ("boundary spec", self.bc, bc)):
            if mine is not given and mine != given:
                raise ConfigError(f"solver context was built for another {what}")


# a node within FAR_STATE_TOL * (|rho| + |m|) of its end's far state rests
# there; the bound sits well above the roundoff that the explicit stage and
# gtsv accumulate on a resting far state (3.7e-14 over the 288 steps of the
# eps = 0.1 ladder rung stepped whole), so that noise never widens the window
FAR_STATE_TOL = 1e-12
# a far state is steady when its residual rates stay below this fraction of
# the scheme's rate scale (wave speed / dx + eps * largest band entry)
STEADY_RTOL = 1e-14
# the implicit solve's influence is cut where its Green's function falls
# below this
GREEN_DECAY = 1e-16


def _green_margin(r: float) -> int:
    """Nodes across which the Green's function of the implicit operator
    -r u[j-1] + (1 + 2r) u[j] - r u[j+1] decays below GREEN_DECAY.

    The decay per node is the smaller root q of r q^2 - (1 + 2r) q + r = 0;
    r is eps dt times the largest off-diagonal band entry.
    """
    if r <= 0.0:
        return 0
    q = 2.0 * r / (1.0 + 2.0 * r + math.sqrt(1.0 + 4.0 * r))
    return math.ceil(math.log(GREEN_DECAY) / math.log(q))


def _apply(bands: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Interior rows 1..n-2 of the banded operator applied to u."""
    return bands[2, :-2] * u[:-2] + bands[1, 1:-1] * u[1:-1] + bands[0, 2:] * u[2:]


# ---------------------------------------------------------------------------
# Explicit stage
# ---------------------------------------------------------------------------

# generalized minmod parameter; minmod is TVD for theta in [1, 2], and the
# diagnostics' interface dissipation must see the limiter the run stepped with
LIMITER_THETA = 1.5


def _minmod3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Generalized minmod.  Here b is the mean of a/theta and c/theta, so b
    shares the sign of a and c whenever they agree; sign(a) + sign(c) then
    selects the same value as a test of all three signs, for finite slopes."""
    mag = np.minimum(np.minimum(np.abs(a), np.abs(b)), np.abs(c))
    return 0.5 * (np.sign(a) + np.sign(c)) * mag


def _extend(rho, m, ctx: SolverContext, t: float, lo: int,
            hi: int) -> np.ndarray:
    """Rows (rho, m) on nodes lo-2 .. hi+1, the reconstruction stencil of
    the nodes [lo, hi).

    Inside the grid the values come from the full arrays (frozen neighbours
    are stencil data); past a domain end the ghost node repeats once more, so
    its limited slope comes out zero.  Dirichlet ghosts extrapolate linearly
    through the pinned boundary value (constant extrapolation would cut the
    boundary cells to first order); the axis end mirrors with even density
    and odd momentum.
    """
    n = rho.size
    s0, s1 = max(lo - 2, 0), min(hi + 2, n)
    head, tail = s0 - (lo - 2), hi + 2 - s1  # ghost entries at each end
    ve = np.empty((2, hi - lo + 4))
    ve[0, head:head + s1 - s0], ve[1, head:head + s1 - s0] = rho[s0:s1], m[s0:s1]
    if head:
        if ctx.bc.mode is BCMode.NEUMANN_SPHERICAL:
            ve[:, :head] = ((rho[1],), (-m[1],))
        else:
            rl, ml = ctx.bc.left_values(t)
            ve[:, :head] = ((max(2.0 * rl - rho[1], ctx.g.rho_floor),),
                            (2.0 * ml - m[1],))
    if tail:
        rr, mr = ctx.bc.right_values(t)
        ve[:, -tail:] = ((max(2.0 * rr - rho[-2], ctx.g.rho_floor),),
                         (2.0 * mr - m[-2],))
    return ve


def _slopes(ve: np.ndarray, mirror_left: bool) -> np.ndarray:
    """Limited undivided slopes at ve[:, 1:-1]; ``mirror_left`` reflects the
    axis ghost's slope from node 1 (even density, odd momentum)."""
    d = ve[:, 1:] - ve[:, :-1]
    s = _minmod3(LIMITER_THETA * d[:, :-1], 0.5 * (d[:, :-1] + d[:, 1:]),
                 LIMITER_THETA * d[:, 1:])
    if mirror_left:
        s[0, 0], s[1, 0] = -s[0, 2], s[1, 2]
    return s


def hyperbolic_interface_data(ctx: SolverContext, rho: np.ndarray,
                              m: np.ndarray, t: float = 0.0,
                              window: Optional[tuple[int, int]] = None) -> dict:
    """Interface states/fluxes of the explicit stage (also used by diagnostics).

    For the nodes [lo, hi) of ``window`` (default: all), returns arrays over
    the hi-lo+1 interfaces around them; on the whole grid these are the
    n_cells+2 interfaces I_{-1}..I_{n_cells} of the ghost-padded grid.
    ``rho_ext``/``m_ext`` hold the states on nodes lo-1 .. hi.
    """
    g = ctx.g
    lo, hi = window or (0, rho.size)
    ve = _extend(rho, m, ctx, t, lo, hi)
    s = _slopes(ve, lo == 0 and ctx.bc.mode is BCMode.NEUMANN_SPHERICAL)
    v, half = ve[:, 1:-1], 0.5 * s
    # sides[0] / sides[1]: (rho, m) reconstructed left / right of each face
    sides = np.array((v[:, :-1] + half[:, :-1], v[:, 1:] - half[:, 1:]))
    r = np.maximum(sides[:, 0], g.rho_floor)
    mm = sides[:, 1]
    u = mm / r
    wave = np.abs(u) + np.sqrt(g._p_prime(r))
    alpha = np.maximum(wave[0], wave[1])
    (rl, rr), (ml, mr), (ul, ur) = r, mm, u
    Ah = ctx.Ah_full[lo:hi + 1]
    phi = Ah * (0.5 * (ml + mr) - 0.5 * alpha * (rr - rl))
    psi = Ah * (0.5 * (ml * ul + mr * ur) - 0.5 * alpha * (mr - ml))
    return {"rho_L": rl, "rho_R": rr, "m_L": ml, "m_R": mr,
            "alpha": alpha, "phi": phi, "psi": psi, "rho_ext": v[0],
            "m_ext": v[1]}


def _hyperbolic_rhs(ctx: SolverContext, rho, m, t, window: tuple[int, int]):
    """Explicit rates on the window's nodes, from the full-grid arrays."""
    data = hyperbolic_interface_data(ctx, rho, m, t, window)
    phi, psi = data["phi"], data["psi"]
    p = ctx.g._pressure(np.maximum(data["rho_ext"], 0.0))
    inv = ctx.inv_Adx[window[0]:window[1]]
    conv_rho = -(phi[1:] - phi[:-1]) * inv
    conv_m = -(psi[1:] - psi[:-1]) * inv - (p[2:] - p[:-2]) / (2.0 * ctx.dx)
    return conv_rho, conv_m


# ---------------------------------------------------------------------------
# Implicit stage
# ---------------------------------------------------------------------------


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


def _tridiag_solve(dl, d, du, b) -> np.ndarray:
    """LAPACK gtsv: Gaussian elimination with partial pivoting."""
    *_, x, info = dgtsv(dl, d, du, b)
    if info != 0:
        raise SolverError(f"singular implicit system (gtsv info={info})")
    return x


# ---------------------------------------------------------------------------
# Public stepping interface
# ---------------------------------------------------------------------------

def step(field: FluidField, g: GasLaw, profile: NozzleProfile, eps: float,
         bc: BoundarySpec, dt: float, *, ctx: Optional[SolverContext] = None,
         cfl: float = CFL, forcing: Optional[Callable] = None) -> FluidField:
    """Advance one IMEX step of size dt; returns a new field.

    dt must respect the advective bound cfl * dx / max(|u| + c); the implicit
    diffusion imposes no restriction.  ``forcing(x, t)`` may return extra
    (mass, momentum) source arrays (manufactured-solution studies).  A given
    ``ctx`` must have been built for this grid, g, profile, eps and bc.
    The step copies the field, scans the whole copy and advances it with
    ``ctx.advance``; the result shares no memory with the input or ``ctx``.
    """
    if ctx is None:
        ctx = SolverContext(field.grid, g, profile, eps, bc)
    else:
        ctx.require(field.grid, g, profile, eps, bc)
    rho, m = field.rho.copy(), field.m.copy()
    ctx.rescan()
    ctx.advance(rho, m, field.t, dt, cfl=cfl, forcing=forcing)
    return FluidField(field.grid, rho, m, field.t + dt)


# a run that needs more steps than this to reach t_end is stuck
MAX_STEPS = 10_000_000


def run(field: FluidField, g: GasLaw, profile: NozzleProfile, eps: float,
        bc: BoundarySpec, t_end: float, hooks=None, *, cfl: float = CFL,
        forcing: Optional[Callable] = None,
        dt_fixed: Optional[float] = None):
    """March to t_end; returns (final field, diagnostics report).

    ``hooks`` (any object with sample_times, sample(field, ctx), finalize())
    is sampled at its requested times with the run's SolverContext and a
    field that no later step changes; the step size is clipped so those
    times are hit exactly.  With hooks=None an empty report is returned.
    Each step is one ``ctx.advance`` on the run's own arrays, with dt from
    the wave speed of ``ctx.scan``.
    """
    from .diagnostics import DiagnosticsReport  # local import to avoid a cycle

    if t_end < field.t - 1e-12:
        raise ConfigError("t_end lies before the field's current time")
    if t_end <= field.t + 1e-15 * max(1.0, abs(t_end)):
        return field, (hooks.finalize() if hooks is not None else
                       DiagnosticsReport())
    ctx = SolverContext(field.grid, g, profile, eps, bc)
    # a state the gas law overflows on fails here, before any monitor sees it
    with np.errstate(over="ignore"):
        ctx.max_wave_speed(field.rho, field.m)
    targets = []
    if hooks is not None:
        targets = [ts for ts in np.sort(np.asarray(hooks.sample_times, dtype=float))
                   if field.t - 1e-12 <= ts <= t_end + 1e-12]
        if targets and abs(targets[0] - field.t) <= 1e-12:
            hooks.sample(field, ctx)
            targets = targets[1:]
    # the run's own arrays: advance updates them in place, and each hook
    # sample gets a copy that no later step touches
    rho, m, t = field.rho.copy(), field.m.copy(), field.t
    forced = forcing is not None
    k = 0
    while t < t_end - 1e-13 * max(1.0, t_end):
        if k >= MAX_STEPS:
            raise SolverError(f"exceeded {MAX_STEPS} steps before t_end")
        dt = dt_fixed
        if dt is None:
            dt = cfl * ctx.dx / ctx.scan(rho, m, forced)[2]
        t_next = targets[0] if targets else t_end
        t_next = min(t_next, t_end)
        snap = False
        if t + dt >= t_next - 1e-13 * max(1.0, t_next):
            dt = t_next - t
            snap = True
        try:
            ctx.advance(rho, m, t, dt, cfl=cfl, forcing=forcing)
        except SolverError as err:
            raise type(err)(f"{err} [at t={t:.8g}]") from err
        t = t_next if snap else t + dt
        if snap and targets and abs(t_next - targets[0]) <= 1e-12:
            hooks.sample(FluidField(field.grid, rho.copy(), m.copy(), t), ctx)
            targets = targets[1:]
        k += 1
    field = FluidField(field.grid, rho, m, t)
    if hooks is None:
        report = DiagnosticsReport()
    else:
        for _ in targets:  # sample times at/after t_end collapse onto the end
            hooks.sample(field, ctx)
        report = hooks.finalize()
    report.undershoots = ctx.undershoots
    report.cells_advanced = ctx.cells_advanced
    report.hull = ctx.hull
    return field, report


# ---------------------------------------------------------------------------
# Initial data preparation
# ---------------------------------------------------------------------------


def _mollify(values: np.ndarray, width: float, dx: float) -> np.ndarray:
    if width <= dx:
        return values.copy()
    half = int(np.ceil(width / dx))
    kern = smooth_bump(np.linspace(-1.0, 1.0, 2 * half + 1))[0]
    kern /= kern.sum()
    padded = np.concatenate([np.full(half, values[0]), values,
                             np.full(half, values[-1])])
    return np.convolve(padded, kern, mode="valid")


def prepare_initial_data(raw: InitialData, bc: BoundarySpec, g: GasLaw,
                         profile: NozzleProfile, grid: Grid) -> FluidField:
    """Mollify, lift off vacuum, and blend the raw data into the boundary values.

    The blend equals the boundary values identically within blend_width/2 of
    each end.  The construction must not distort the relative energy of the
    data by more than 5%; that is enforced, because a distorted start would
    invalidate every energy-based comparison downstream.
    """
    span = grid.b - grid.a
    if raw.blend_width >= span / 4.0:
        raise ConfigError("blend width must be below a quarter of the domain")
    x = grid.x
    rho = np.asarray(raw.rho0(x), dtype=float)
    m = np.asarray(raw.m0(x), dtype=float)
    if rho.shape != x.shape or m.shape != x.shape:
        raise ConfigError("initial data callables must return node-shaped arrays")
    if np.any(rho < 0.0):
        raise DomainError("raw initial density must be nonnegative")

    rho_l, m_l = bc.left_values(0.0)
    rho_r, m_r = bc.right_values(0.0)
    if rho_l is None:
        rho_l = float(rho[0])  # axis end carries no density target

    rho_s = _mollify(rho, raw.mollify_width, grid.dx)
    m_s = _mollify(m, raw.mollify_width, grid.dx)
    lift = max(g.rho_floor, 1e-4 * min(rho_l, rho_r))
    rho_s = np.maximum(rho_s, lift)

    # weight w of the boundary values: 1 within blend_width/2 of the end (at
    # the end node alone for a zero width), smoothly down to 0 at blend_width
    half = 0.5 * raw.blend_width
    axis = bc.mode is BCMode.NEUMANN_SPHERICAL
    for d, rv, mv, pin_rho in ((x - grid.a, rho_l, m_l, not axis),
                               (grid.b - x, rho_r, m_r, True)):
        if half > 0.0:
            w = 1.0 - smoothstep((d - half) / half)
        else:
            w = (d <= 0.0).astype(float)
        m_s = (1.0 - w) * m_s + w * mv
        if pin_rho:  # the axis end pins only the momentum
            rho_s = (1.0 - w) * rho_s + w * rv

    # relative-energy distortion gate, measured against a bc-implied reference
    mid = 0.5 * (grid.a + grid.b)
    halo = max(span / 8.0, 2.0 * grid.dx)
    blend = smoothstep((x - (mid - halo)) / (2.0 * halo))
    rb = rho_l + (rho_r - rho_l) * blend
    ub_l = m_l / rho_l
    ub_r = m_r / rho_r
    ub = ub_l + (ub_r - ub_l) * blend
    A = profile.area(x)

    def _rel_energy(rr, mm):
        return float(np.trapezoid(g.relative_energy(rr, mm, rb, ub) * A, x))

    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        e_raw = _rel_energy(np.maximum(rho, lift), m)
        e_out = _rel_energy(rho_s, m_s)
    if not math.isfinite(e_raw + e_out):
        raise ConfigError(f"the gas law leaves the float range on the initial data "
                          f"(relative energy {e_raw:g}, max rho = {np.max(rho):g}, "
                          f"gamma = {g.gamma:g})")
    if abs(e_out - e_raw) > 0.05 * e_raw + 1e-10 * (1.0 + abs(e_raw)):
        raise ConfigError(
            f"prepared data distorts the relative energy by more than 5% "
            f"({e_raw:.6g} -> {e_out:.6g}); reduce the mollify/blend widths")
    return FluidField(grid, rho_s, m_s, 0.0)
