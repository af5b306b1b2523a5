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

A run stores only a node range: ``SolverContext.start`` takes the run's
state on the nodes around the initial data that are not exactly their
end's far state, and the context grows the range as the windows spread;
every node outside it holds its far state exactly.  ``advance`` steps that
state in place and adds each window to ``live``, outside which every node
holds its far state.  Every node outside the window a step advanced still
rests on its far state afterwards, so the next window is found by scanning
only that window; every stored node is scanned on a run's first step and
when the scanned window rests wholly on one far state.  The same scan gives
the wave speed the next dt is taken from.  ``step`` starts the context on
its field and advances it after a scan of every stored node.

``march`` steps the rungs of a viscosity ladder in lockstep, each with its
own context, scan, CFL check, dt and hooks; ``run`` is a march of one.  One
``advance`` steps them all: it lays every rung's window, with its two ghost
nodes a side (``_extend``), end to end on one ragged row, runs each
explicit stage once on the row, with dt, eps dt, 2 dx and the gas law's
delta as per-node rows, and solves both implicit systems of every rung in
one tridiagonal call.  The stencils cross from one block into the next
only on the dead columns between them (the ghosts), whose rates nothing
reads.  In the solve the dead columns are identity rows with right side 0,
and a block's pinned end rows have exact zeros where they would couple to
a dead row (the bands ``ab[0, :, first]`` and ``ab[2, :, last]``), so
gtsv's elimination, partial pivoting included, never mixes two blocks and
each rung's numbers are bit for bit those it gets alone; without the zeros
a pivot could swap rows across a junction.  A rung that fails leaves the
row before the solve.  On the small windows of a ladder a numpy call costs
more than its arithmetic, so one call for every rung pays that cost once;
a row stops at ROW_NODES columns, where its arrays leave the cache.  With
one rung the rows are views of its context's arrays and the coefficients
0-d arrays.

The explicit stage and ``SolverContext.max_wave_speed`` call the gas law's
unchecked kernels (``GasLaw._pressure``, ``_p_prime``, ``_velocity``) on
densities clamped at rho_floor (faces) or 0, where validation cannot fail.
For the same reason each call covers both variables (``_fluxes``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np

from ._native import flapack
from .errors import (CavitationError, ConfigError, DomainError, NonFiniteError,
                     NozzleflowError, SolverError, StabilityError)
from .entropy import smooth_bump, smoothstep
from .geometry import ConstantProfile, NozzleProfile
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

    @cached_property
    def n_nodes(self) -> int:
        return self.n_cells + 1

    @cached_property
    def x(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.n_nodes)

    def nodes(self, lo: int, hi: int) -> np.ndarray:
        """x on the nodes [lo, hi), bit for bit as ``x`` (np.linspace) holds
        them, without building ``x``."""
        x = np.arange(lo, hi, dtype=float) * self.dx + self.a
        if hi == self.n_nodes and hi > lo:
            x[-1] = self.b
        return x

    def searchsorted(self, v: float, side: str = "left") -> int:
        """np.searchsorted(x, v, side) from the few nodes next to v."""
        k = int(min(max((v - self.a) / self.dx, -2), self.n_nodes + 2))
        lo, hi = max(k - 2, 0), min(k + 3, self.n_nodes)
        return lo + int(np.searchsorted(self.nodes(lo, hi), v, side))


@dataclass
class FluidField:
    """Discrete (rho, m) state with its time stamp.

    The arrays hold the nodes [lo, hi) of the grid.  Every node below them
    holds the state ``ends[0]`` and every node past them ``ends[1]``, each
    a (rho, m) pair, None at a domain end the arrays reach; a whole-grid
    field has lo = 0 and no ends.  A stack of k samples that share lo and
    the ends has arrays of shape (k, hi - lo) and t of shape (k,): the
    monitors take one, the solver steps single fields only.
    """

    grid: Grid
    rho: np.ndarray
    m: np.ndarray
    t: float = 0.0
    lo: int = 0
    ends: tuple = (None, None)

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=float)
        self.m = np.asarray(self.m, dtype=float)
        n, hi = self.grid.n_nodes, self.lo + self.rho.shape[-1]
        if self.rho.ndim != getattr(self.t, "ndim", 0) + 1 or self.rho.ndim > 2 \
                or self.m.shape != self.rho.shape or not 0 <= self.lo <= hi <= n:
            raise ConfigError("field arrays must match the grid node count")
        if (self.ends[0] is None) != (self.lo == 0) \
                or (self.ends[1] is None) != (hi == n):
            raise ConfigError("field arrays must match the grid node count: "
                              "an end state stands for the nodes they leave out")
        if self.ends != (None, None):
            self.ends = tuple(None if e is None else (float(e[0]), float(e[1]))
                              for e in self.ends)

    @property
    def hi(self) -> int:
        return self.lo + self.rho.shape[-1]

    def copy(self) -> "FluidField":
        return FluidField(self.grid, self.rho.copy(), self.m.copy(), self.t,
                          self.lo, self.ends)

    def values(self, lo: int, hi: int) -> np.ndarray:
        """Rows (rho, m) on the nodes [lo, hi), the ends' states included;
        a stack's are of shape (2, k, hi - lo)."""
        out = np.empty((2, *self.rho.shape[:-1], hi - lo))
        a, b = min(max(self.lo, lo), hi), max(min(self.hi, hi), lo)
        # row by row: a tuple of rows, or an end state, would first be made
        # an array
        if a > lo:
            out[0, ..., :a - lo], out[1, ..., :a - lo] = self.ends[0]
        if b < hi:
            out[0, ..., b - lo:], out[1, ..., b - lo:] = self.ends[1]
        if a < b:
            out[0, ..., a - lo:b - lo] = self.rho[..., a - self.lo:b - self.lo]
            out[1, ..., a - lo:b - lo] = self.m[..., a - self.lo:b - self.lo]
        return out

    def whole(self) -> "FluidField":
        """The same field with its arrays on every node; self when they are."""
        if self.ends == (None, None):
            return self
        return FluidField(self.grid, *self.values(0, self.grid.n_nodes),
                          self.t)


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

    # both ends' values when none is a callable, found once
    _fixed = None

    def __post_init__(self):
        for v in (self.rho_left, self.rho_right):
            if v is not None and not callable(v) and v <= 0.0:
                raise ConfigError("Dirichlet boundary densities must be positive")
        if not any(map(callable, (self.rho_left, self.m_left, self.rho_right,
                                  self.m_right))):
            object.__setattr__(self, "_fixed", (self.left_values(0.0),
                                                self.right_values(0.0)))

    def left_values(self, t: float) -> tuple[Optional[float], float]:
        if self._fixed:
            return self._fixed[0]
        rho = None if self.rho_left is None else self._at(self.rho_left, t)
        return rho, self._at(self.m_left, t)

    def right_values(self, t: float) -> tuple[float, float]:
        if self._fixed:
            return self._fixed[1]
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

# the default Courant number of ``step``, ``run`` and a config's ``cfl``,
# and the largest that any of them accepts: Heun is SSP with coefficient 1,
# and the MUSCL/central stencil allows 1/2 (Kurganov-Tadmor 2000)
CFL = 0.4
CFL_MAX = 0.5


def check_cfl(cfl: float) -> None:
    """Raise ConfigError unless cfl lies in (0, CFL_MAX]."""
    if not 0.0 < cfl <= CFL_MAX:
        raise ConfigError(f"cfl must lie in (0, {CFL_MAX:g}], got {cfl}")


class SolverContext:
    """The solver's inputs for one run, with the coefficient arrays they fix.

    A context owns the grid, gas law, profile, viscosity and boundary spec;
    ``step`` and ``run`` take all five from it.  It alone owns the nodes
    [lo, hi) of the grid that it stores: on them it holds the coefficient
    arrays (``x``, ``A``, ``G``, ``dG`` = (A'/A)', ``Ah``, ``Ah_full``, the
    bands and ``inv_Adx``), the monitors' values per stored range
    (``memo``) and, from ``start`` on, the run's ``state``, rows (rho, m)
    with the views ``rho`` and ``m``.  Every node outside holds its end's
    far state, and so does every stored node outside ``live``, the nodes
    that ``field`` copies.  ``store`` grows the range by ``_cover``'s rule,
    to at most about twice the nodes asked for, and evaluates the profile
    on the whole new range.  The context also keeps the window the last
    ``advance`` moved and the scan.
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
        self.dx = grid.dx
        self._two_dx = np.array(2.0 * grid.dx)   # the pressure term's divisor
        self.lo = self.hi = 0          # nothing stored yet
        self.x = self.A = self.G = self.dG = self.Ah = np.empty(0)
        self.memo: dict = {}           # the monitors' values per stored range
        self.state = None              # the run's state, from ``start``
        # [lo, hi): the nodes that may differ from their end's far state,
        # from ``start`` on (None before it)
        self.live: Optional[tuple[int, int]] = None
        self.undershoots = 0
        self.cells_advanced = 0
        # [lo, hi): union of every window ``advance`` moved, empty at first;
        # each node outside it holds its value from before the first step
        self.hull = (grid.n_nodes, 0)
        self.rescan()

    # -- the stored range ------------------------------------------------------
    def _cover(self, lo: int, hi: int) -> tuple[int, int]:
        """The nodes to store for [lo, hi): half its size plus STORE_MARGIN
        more on each side, so that the range grows geometrically as the
        flow spreads but holds at most twice the nodes asked for, plus the
        margins."""
        pad = (hi - lo) // 2 + STORE_MARGIN
        return max(lo - pad, 0), min(hi + pad, self.grid.n_nodes)

    def store(self, lo: int, hi: int) -> bool:
        """Store at least the nodes [lo, hi); returns whether the range
        grew.  A range that grows takes the nodes of ``_cover`` too,
        empties ``memo`` and evaluates the profile on all its nodes.  Nodes
        new to a state get their end's far state."""
        n, s0, s1 = self.grid.n_nodes, self.lo, self.hi
        if s0 <= max(lo, 0) and min(hi, n) <= s1 and s0 < s1:
            return False
        lo, hi = self._cover(lo, hi)
        if s0 < s1:
            lo, hi = min(lo, s0), max(hi, s1)
        if self.state is not None:
            self.state = self._state(0.0).values(lo, hi)
        prof, x = self.profile, self.grid.nodes(lo, hi)
        self.x, self.A, self.G, self.dG = (x, prof.area(x), prof.dlog(x),
                                           prof.dlog_prime(x))
        # the faces I_j between nodes j, j+1 that the range reaches
        self.Ah = prof.area(self.grid.nodes(max(lo - 1, 0), min(hi, n - 1))
                            + 0.5 * self.dx)
        self.lo, self.hi = lo, hi
        self.memo = {}
        self.Ah_full, self.bands, self.inv_Adx, self.band_max = _coefficients(
            self, lo, hi, self.A, self.G, self.Ah)
        return True

    def area(self, lo: int, hi: int) -> np.ndarray:
        """A on the nodes [lo, hi): the stored values on stored nodes, the
        profile's on the others."""
        a, b = min(max(self.lo, lo), hi), max(min(self.hi, hi), lo)
        stored = self.A[a - self.lo:b - self.lo] if a < b else np.empty(0)
        return np.concatenate([self.profile.area(self.grid.nodes(lo, a)), stored,
                               self.profile.area(self.grid.nodes(b, hi))])

    # -- the run's state -------------------------------------------------------
    @property
    def rho(self) -> np.ndarray:
        return self.state[0]

    @property
    def m(self) -> np.ndarray:
        return self.state[1]

    def start(self, field: FluidField) -> None:
        """Take a copy of ``field`` as the run's state, which ``advance``
        steps in place, and forget the last scan.  ``live`` becomes the
        field's ``reach``, and the stored range comes to hold it."""
        if field.rho.ndim != 1:
            raise ConfigError("the solver steps one field, not a stack of samples")
        self.live = self.reach(field)
        self.state = None
        self.store(*self.live)
        if (self.lo, self.hi) == (field.lo, field.hi):
            self.state = np.array((field.rho, field.m))
        else:
            self.state = field.values(self.lo, self.hi)
        self.rescan()

    def reach(self, field: FluidField) -> tuple[int, int]:
        """The nodes [lo, hi) of ``field`` that may differ from their end's
        far state: its arrays, and every node up to each domain end whose
        nodes the field leaves at another state than that end's far state."""
        n, (left, right), far = self.grid.n_nodes, field.ends, self.far_states
        return (field.lo if left is not None and left == far[0] else 0,
                field.hi if right is not None and right == far[1] else n)

    def _state(self, t: float) -> FluidField:
        """The run's state at time t on its ``live`` nodes, with the far
        states as end states: a field of views of the context's arrays."""
        lo, hi = self.live
        n = self.grid.n_nodes
        return FluidField(self.grid, *self.state[:, lo - self.lo:hi - self.lo],
                          t, lo, (self.far_states[0] if lo > 0 else None,
                                  self.far_states[1] if hi < n else None))

    def field(self, t: float) -> FluidField:
        """A copy of the run's state at time t on exactly its ``live``
        nodes (every node after a whole-grid start)."""
        return self._state(t).copy()

    def max_wave_speed(self, rho: np.ndarray, m: np.ndarray) -> float:
        """max(|u| + c) over float arrays; rho clamped at 0 needs no check."""
        speed = np.abs(self.g._velocity(rho, m)) + np.sqrt(
            self.g._p_prime(np.maximum(rho, _ZERO)))
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
        state is not a discrete steady state (``_steady``).
        """
        bc = self.bc
        ends = []
        for rho_f, m_f in ((bc.rho_left, bc.m_left), (bc.rho_right, bc.m_right)):
            ends.append(None if rho_f is None or callable(rho_f) or callable(m_f)
                        or not self._steady(float(rho_f), float(m_f))
                        else (float(rho_f), float(m_f)))
        return tuple(ends)

    def _steady(self, rho_f: float, m_f: float) -> bool:
        """Whether the explicit stage and both diffusion operators, applied
        to the constant state, vanish on the interior to STEADY_RTOL times
        the rate scale (wave speed / dx + eps * largest band entry).

        On a constant state the limited slopes, the face jumps and the
        pressure difference are exact zeros: the explicit rates are m_f
        times differences of face areas, and the diffusion rows rounding
        plus m_f times differences of A'/A.  So a state at rest, or any
        state in a uniform duct, is steady; only a moving state in a duct
        whose area varies is tested (``_residual``).
        """
        if m_f == 0.0 or isinstance(self.profile, ConstantProfile):
            return True
        resid, rate = self._residual(rho_f, m_f)
        return resid <= STEADY_RTOL * rate

    def _residual(self, rho_f: float, m_f: float) -> tuple[float, float]:
        """(largest interior rate, rate scale times |rho_f| + |m_f|) of the
        constant state: the explicit rates on the grid's nodes [2, n - 2)
        and the diffusion rows on [1, n - 1), BLOCK nodes at a time.

        The stage's slopes and jumps on a constant state are exact zeros,
        so its fluxes are exactly the face areas times q = (m_f, m_f u_f)
        and node j's rates -(q Ah_j - q Ah_(j-1)) / (A_j dx).  A piece
        evaluates the profile on its nodes, one neighbour a side, and
        their faces, and ``_coefficients`` builds the bands there; each
        rate and band entry is computed node by node, so the maxima are
        the whole grid's exactly."""
        n, eps, prof, nodes = (self.grid.n_nodes, self.eps, self.profile,
                               self.grid.nodes)
        q = np.array(((m_f,), (m_f * (m_f / max(rho_f, self.g.rho_floor)),)))
        resid = band_max = 0.0
        for k in range(0, n, BLOCK):
            lo, hi = max(k - 1, 0), min(k + BLOCK + 1, n)  # piece, neighbours
            x, faces = nodes(lo, hi), nodes(max(lo - 1, 0), min(hi, n - 1))
            Ah_full, bands, inv_Adx, piece_max = _coefficients(
                self, lo, hi, prof.area(x), prof.dlog(x),
                prof.area(faces + 0.5 * self.dx))
            F = q * Ah_full
            a, b = max(k, 2) - lo, min(k + BLOCK, n - 2) - lo  # explicit rows
            resid = max(resid, *(np.max(np.abs(r), initial=0.0) for r in (
                -(F[:, a + 1:b + 1] - F[:, a:b]) * inv_Adx[a:b],
                eps * _apply(bands[:, 0], np.full(hi - lo, rho_f)),
                eps * _apply(bands[:, 1], np.full(hi - lo, m_f)))))
            band_max = max(band_max, piece_max)
        speed = self.max_wave_speed(np.array([rho_f]), np.array([m_f]))
        rate = (speed / self.dx + eps * band_max) * (abs(rho_f) + abs(m_f))
        return resid, rate

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
        """(i, j) in grid indices: i is the first node off the left far
        state and j - 1 the last node off the right one, swapped when
        i > j; (0, n) when no node is off either.  NaN rests nowhere.

        ``rho`` and ``m`` hold the stored nodes.  Only the nodes of
        ``span`` (None: all stored) are scanned, which is exact when every
        node below it rests on the left far state and every node past it
        on the right one; the nodes past the stored range hold their far
        states, as the range's outermost nodes do.  A span that rests
        wholly on one far state cannot place that end, and every stored
        node is scanned instead.
        """
        n, s0 = self.grid.n_nodes, self.lo
        lo, hi = span or (s0, s0 + rho.size)
        rho_lo, rho_hi, m_lo, m_hi = self.rest_box
        r, q = rho[lo - s0:hi - s0], m[lo - s0:hi - s0]
        rests = (r >= rho_lo) & (r <= rho_hi) & (q >= m_lo) & (q <= m_hi)
        left, right = rests[0], rests[1, ::-1]
        i, k = int(left.argmin()), int(right.argmin())
        if span is not None and (left[i] or right[k]):
            return self._rest_ends(rho, m, None)
        i = n if left[i] else lo + i
        j = 0 if right[k] else hi - k
        return min(i, j), max(i, j)

    def rescan(self) -> None:
        """Forget the last scan, so the next one covers every stored node."""
        self._moved: Optional[tuple[int, int]] = None
        self._scan: Optional[tuple[int, int, float]] = None

    def scan(self, forced: bool) -> tuple[int, int, float]:
        """(lo, hi, lam): the nodes off their far states padded by the
        explicit stencil, and lam = max(|u| + c) over them and the far
        states outside them; cfl dx / lam bounds the next dt.  ``forced``
        (a run with forcing) gives the whole grid.

        The scan covers the window the last ``advance`` moved (every stored
        node after ``start``) and is kept until the next ``advance``.
        """
        if self._scan is None:
            n = self.grid.n_nodes
            i, j = (0, n) if forced else self._rest_ends(self.rho, self.m,
                                                         self._moved)
            lo, hi = max(i - 4, 0), min(j + 4, n)
            self.store(lo, hi)
            win = slice(lo - self.lo, hi - self.lo)
            lam = self.max_wave_speed(self.rho[win], self.m[win])
            if hi - lo < n:
                lam = max(lam, self.far_speed)
            self._scan = lo, hi, lam
        return self._scan

    def _window(self, dt: float, cfl: float, forced: bool) -> tuple[int, int]:
        """The node range [lo, hi) that a step of size dt moves: the
        ``scan`` window (the whole grid when ``forced``) padded by the
        margin after which the implicit solve's Green's function has
        decayed below GREEN_DECAY; the other nodes are frozen.  The stored
        range first grows to hold it with STORE_MARGIN to spare.  dt must
        respect the advective bound cfl dx / max(|u| + c) over the range;
        the rest box's ``rest_speed`` bounds the nodes that the scan window
        leaves out.  The next scan covers this range."""
        if not 0.0 < dt < math.inf:
            raise StabilityError(f"dt must be positive and finite, got {dt}")
        n = self.grid.n_nodes
        lo, hi, lam = self.scan(forced)
        if hi - lo < n:
            lam = max(lam, self.rest_speed)
        bound = cfl * self.dx / lam
        if dt > bound * (1.0 + 1e-9):
            raise StabilityError(
                f"dt={dt:.3e} exceeds the advective bound {bound:.3e}")
        while True:  # the margin reads the band entries of the nodes it adds
            pad = _green_margin(self.eps * dt * self.band_max)
            wlo, whi = max(lo - pad, 0), min(hi + pad, n)
            if not self.store(wlo - STORE_MARGIN, whi + STORE_MARGIN):
                break
        self._moved, self._scan = (wlo, whi), None
        return wlo, whi

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


# the stored range reaches this many nodes past every window a step moves
# (and past a started field's arrays), so that its outermost nodes hold the
# far states and every stencil of a step or a monitor stays inside it
STORE_MARGIN = 4
# initial data and output rows go in blocks of this many nodes, so that a
# pass over the whole grid holds no whole-grid array
BLOCK = 1 << 14

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


def _coefficients(ctx: SolverContext, lo: int, hi: int, A: np.ndarray,
                  G: np.ndarray, Ah: np.ndarray) -> tuple:
    """(``Ah_full``, ``bands``, ``inv_Adx``, ``band_max``) of the nodes
    [lo, hi) from A and G on them and the face areas Ah between the nodes
    the range reaches: Ah_full holds the faces I_(lo-1) .. I_(hi-1), a
    domain end's ghost face mirrored; band_max is the largest off-diagonal
    band entry.  The bands hold the diffusion operators per unit eps*dt in
    LAPACK band rows (super, diagonal, sub), indexed (band, operator, node)
    with the mass operator first: row 0 holds L[j-1, j] at column j, row 2
    holds L[j+1, j].  At an edge of the range that is no domain end, the
    columns' entries that reach outside it are not built; no window or
    steady test reads them.  Every other entry is computed node by node."""
    n, dx, N = ctx.grid.n_nodes, ctx.dx, hi - lo
    Ah_full = np.concatenate([Ah[:1]] * (lo == 0) + [Ah]
                             + [Ah[-1:]] * (hi == n))
    inner = Ah_full[1:N]
    # both operators in one array: a step assembles both systems at once,
    # each band one contiguous row
    bands = np.zeros((3, 2, N))
    mass, mom = bands[:, 0], bands[:, 1]
    mass[0, 1:] = inner / (A[:-1] * dx * dx)
    mass[2, :-1] = inner / (A[1:] * dx * dx)
    if ctx.bc.mode is BCMode.NEUMANN_SPHERICAL and lo == 0:
        mass[0, 1] = 2.0 * inner[0] / (A[0] * dx * dx)
    mass[1] = -(np.concatenate([[0.0], mass[2, :-1]])
                + np.concatenate([mass[0, 1:], [0.0]]))
    mom[0] = 1.0 / (dx * dx) + G / (2.0 * dx)
    mom[1] = -2.0 / (dx * dx)
    mom[2] = 1.0 / (dx * dx) - G / (2.0 * dx)
    if lo == 0:
        mom[0, 0] = 0.0
    if hi == n:
        mom[2, -1] = 0.0
    band_max = float(max(np.max(np.abs(b[[0, 2]])) for b in (mass, mom)))
    return Ah_full, bands, 1.0 / (A * dx), band_max


def _apply(bands: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Interior rows 1..n-2 of the banded operator applied to u."""
    return bands[2, :-2] * u[:-2] + bands[1, 1:-1] * u[1:-1] + bands[0, 2:] * u[2:]


# ---------------------------------------------------------------------------
# Explicit stage
# ---------------------------------------------------------------------------

# generalized minmod parameter; minmod is TVD for theta in [1, 2], and the
# diagnostics' interface dissipation must see the limiter the run stepped with
LIMITER_THETA = 1.5


# the stage's scalar operands as 0-d arrays: on arrays of a few dozen nodes
# a ufunc converts a Python float operand at about the cost of its arithmetic
_HALF, _THETA, _ZERO = np.array(0.5), np.array(LIMITER_THETA), np.array(0.0)
_MIRROR = np.array((-1.0, 1.0))  # (rho, m) reflected at the axis


def _extend(state: np.ndarray, ctx: SolverContext, t, lo: int, hi: int,
            first: int, ve: np.ndarray) -> None:
    """Fill ``ve``, a block of hi - lo + 4 rows, with (rho, m) on columns
    lo-2 .. hi+1 of ``state`` (rows rho, m of the grid nodes from
    ``first`` on), the reconstruction stencil of the nodes [lo, hi), one
    node a row: a shift along the nodes is then a contiguous block of both
    variables.  A stack of k samples, ``state`` of shape (2, k, n) at the
    times t (k,), gives each node a (k, 2) block.

    Inside the state the values come from it (frozen neighbours are
    stencil data); past an end of it inside the grid, a node holds its
    end's far state; past a domain end the ghost node repeats once more,
    so its limited slope comes out zero.  Dirichlet ghosts
    extrapolate linearly through the pinned boundary value (constant
    extrapolation would cut the boundary cells to first order); the axis
    end mirrors with even density and odd momentum.
    """
    n = state.shape[-1]
    s0, s1 = max(lo - 2, 0), min(hi + 2, n)
    head, tail = s0 - (lo - 2), hi + 2 - s1  # entries past each array end
    ve[head:head + s1 - s0] = state[..., s0:s1].T
    if head:
        if first > 0:
            ve[:head] = ctx.far_states[0]
        elif state.ndim > 2:  # a stack: each sample's ghosts at its own time
            for i, ti in enumerate(t):
                _extend(state[:, i], ctx, ti, lo, lo, first, ve[:4, i])
        elif ctx.bc.mode is BCMode.NEUMANN_SPHERICAL:
            ve[:head] = state[0, 1], -state[1, 1]
        else:
            rl, ml = ctx.bc.left_values(t)
            ve[:head] = (max(2.0 * rl - state[0, 1], ctx.g.rho_floor),
                         2.0 * ml - state[1, 1])
    if tail:
        if first + n < ctx.grid.n_nodes:
            ve[-tail:] = ctx.far_states[1]
        elif state.ndim > 2:
            for i, ti in enumerate(t):
                _extend(state[:, i], ctx, ti, hi, hi, first, ve[-4:, i])
        else:
            rr, mr = ctx.bc.right_values(t)
            ve[-tail:] = (max(2.0 * rr - state[0, -2], ctx.g.rho_floor),
                          2.0 * mr - state[1, -2])


def _fluxes(ve: np.ndarray, gas, areas: np.ndarray, axes) -> tuple:
    """On the faces between the stencil rows ``ve``[1:-1]: the face states
    ``S`` indexed (var, side, face) with var rho (floored), m, m u and side
    left, right of the face; the local Lax-Friedrichs speed ``alpha``; and
    the fluxes ``F`` (mass, momentum) weighted by ``areas``.  ``axes``
    lists the ghost rows ve[o + 1] whose limited slope is the axis mirror
    of ve[o + 3]'s.  ``gas`` is the gas law or a ragged row's ``_RowGas``.
    Each call covers both variables or both sides, in the order of the
    per-variable formulas, so each element rounds alike.  A stack of
    samples (``_extend``) adds a last axis to S, alpha and F.
    """
    d = ve[1:] - ve[:-1]
    # generalized minmod of theta d_-, (d_- + d_+)/2, theta d_+: the mean
    # shares the others' sign when they agree, so sign(d_-) + sign(d_+)
    # selects as a test of all three signs does, for finite slopes
    td = _THETA * d
    mag = np.abs(td)
    mag = np.minimum(np.minimum(mag[:-1], np.abs(_HALF * (d[:-1] + d[1:]))),
                     mag[1:])
    sign = np.sign(td)
    s = _HALF * (sign[:-1] + sign[1:]) * mag
    for o in axes:  # the axis ghost's slope is node 1's, reflected
        s[o] = s[o + 2] * _MIRROR
    v, half = ve[1:-1], _HALF * s
    sides = np.array((v[:-1] + half[:-1], v[1:] - half[1:]))  # side, face, var
    faces = ve.shape[0] - 3
    if ve.ndim == 2:
        S = np.empty((3, 2, faces))
        S[:2] = sides.transpose(2, 0, 1)  # one copy, cheaper than strided sums
    else:  # a stack: face arrays (face, sample)
        S = np.empty((3, 2, faces, ve.shape[1]))
        S[:2] = sides.transpose(3, 0, 1, 2)
    r = S[0]
    np.maximum(r, GasLaw._floor, out=r)
    u = S[1] / r
    np.multiply(S[1], u, out=S[2])
    wave = np.abs(u) + np.sqrt(gas._p_prime(r))
    alpha = np.maximum(wave[0], wave[1])
    F = (areas if ve.ndim == 2 else areas[:, None]) * (
        _HALF * (S[1:, 0] + S[1:, 1]) - _HALF * alpha * (S[:2, 1] - S[:2, 0]))
    return S, alpha, F


def _rates(ve: np.ndarray, F: np.ndarray, gas, inv_Adx, two_dx) -> np.ndarray:
    """Explicit rates (rho, m) on the nodes ve[2:-2] from the stencil rows
    and ``_fluxes``' F."""
    p = gas._pressure(np.maximum(ve[1:-1, 0], _ZERO))
    rates = -(F[:, 1:] - F[:, :-1]) * inv_Adx
    rates[1] -= (p[2:] - p[:-2]) / two_dx
    return rates


class _RowGas:
    """The gas law's kernels on a ragged row of rungs that share gamma and
    kappa: delta per node, ``_delta`` on the pressure's stencil rows
    (ve[1:-1]) and 2 delta on the faces."""

    _pressure, _p_prime = GasLaw._pressure, GasLaw._p_prime

    def __init__(self, g: GasLaw, delta: np.ndarray):
        self.gamma, self._kappa, self._kappa_gamma = (g.gamma, g._kappa,
                                                      g._kappa_gamma)
        self._delta, self._two_delta = delta[1:-1], 2.0 * delta[1:-2]


def hyperbolic_interface_data(ctx: SolverContext, rho: np.ndarray,
                              m: np.ndarray, t: float = 0.0,
                              window: Optional[tuple[int, int]] = None,
                              first: Optional[int] = None) -> dict:
    """Interface states/fluxes of the explicit stage (also used by diagnostics).

    ``rho`` and ``m`` hold grid nodes from ``first`` on (default: the
    context's stored nodes; a context that stores none is refused), inside
    the stored range, and ``window`` indexes them.
    For the nodes [lo, hi) of ``window`` (default: all), returns arrays over
    the hi-lo+1 interfaces around them; on the whole grid these are the
    n_cells+2 interfaces I_{-1}..I_{n_cells} of the ghost-padded grid.
    ``rho_ext``/``m_ext`` hold the states on nodes lo-1 .. hi.  The arrays
    are views of the stencil (``_extend``) and of ``_fluxes``' arrays.
    Rows of shape (k, N) with t of shape (k,) are a stack of samples, each
    with its own ghosts, and give each array a last axis of length k.
    """
    if ctx.lo == ctx.hi:
        raise ConfigError("the solver context stores no nodes: call its "
                          "store or start first")
    state = np.array((rho, m))
    lo, hi = window or (0, state.shape[-1])
    first = ctx.lo if first is None else first
    ve = np.empty((hi - lo + 4, *state.shape[1:-1], 2))
    _extend(state, ctx, t, lo, hi, first, ve)
    axis = lo + first == 0 and ctx.bc.mode is BCMode.NEUMANN_SPHERICAL
    face = first - ctx.lo + lo  # Ah_full[0] is the face I_(ctx.lo - 1)
    S, alpha, F = _fluxes(ve, ctx.g, ctx.Ah_full[face:face + hi - lo + 1],
                          (0,) if axis else ())
    return {"rho_L": S[0, 0], "rho_R": S[0, 1], "m_L": S[1, 0], "m_R": S[1, 1],
            "alpha": alpha, "phi": F[0], "psi": F[1],
            "rho_ext": ve[1:-1, ..., 0], "m_ext": ve[1:-1, ..., 1]}


# ---------------------------------------------------------------------------
# Implicit stage
# ---------------------------------------------------------------------------


def _tridiag_solve(dl, d, du, b) -> np.ndarray:
    """LAPACK gtsv: Gaussian elimination with partial pivoting."""
    *_, x, info = flapack.dgtsv(dl, d, du, b)
    if info != 0:
        raise SolverError(f"singular implicit system (gtsv info={info})")
    return x


# ---------------------------------------------------------------------------
# The lockstep step: every rung's window on one ragged row
# ---------------------------------------------------------------------------

# a ragged row holds at most this many columns, so that its arrays stay in
# cache; a window longer than that is a row of its own
ROW_NODES = 1 << 14
# what fills the row between two blocks: face areas (3 faces), node
# coefficients (4 nodes), forcing, and the bands of a dead column, -0.0 so
# that -(eps dt) times it is +0.0 (every coupling entry an exact +0.0)
_FACE_GAP, _NODE_GAP, _NO_FORCE = np.ones(3), np.ones(4), np.zeros((2, 4))
_DEAD = np.full((3, 2, 4), -0.0)


def _join(pieces: list, gap: np.ndarray) -> np.ndarray:
    """The pieces end to end along their last axis, ``gap`` between each
    two: a ragged row.  One piece is returned as it is, a view."""
    if len(pieces) == 1:
        return pieces[0]
    parts = [gap] * (2 * len(pieces) - 1)
    parts[::2] = pieces
    return np.concatenate(parts, axis=-1)


def _check_one_gas(items: list) -> None:
    """Raise ConfigError unless every item's gas law ``g`` has the first's
    gamma and kappa: a row steps with one law, each block's delta its own."""
    if any((c.g.gamma, c.g.kappa) != (items[0].g.gamma, items[0].g.kappa)
           for c in items):
        raise ConfigError("rungs stepped together must share gamma and kappa")


def advance(ctxs: list, ts: list, dts: list, *, cfl: float = CFL,
            forcing: Optional[Callable] = None) -> list:
    """One IMEX step of every context's state, in place: each at its time
    t by its dt, in one pass; returns per context the node range [lo, hi)
    it moved (``SolverContext._window``), or the SolverError it raised.
    A context that raises leaves the others as they would be alone.

    The windows lie end to end on ragged rows of at most ROW_NODES
    columns each (see the module docstring).  The contexts must share
    gamma and kappa (else ConfigError, before any moves); eps, delta, dt,
    the grid, the profile and the boundary spec are each context's own.
    """
    _check_one_gas(ctxs)
    out: list = [None] * len(ctxs)
    # per context of a row (index, context, t, dt, a, b, o): it moves its
    # stored columns [a, b), and its block takes the stencil row's columns
    # o .. o + b - a + 3 and the node rows' (the stencil's [2:-2])
    # o .. o + b - a - 1; the 4 node columns between two blocks are dead
    blocks, o = [], 0
    for i, (c, t, dt) in enumerate(zip(ctxs, ts, dts)):
        try:
            lo, hi = c._window(dt, cfl, forcing is not None)
        except SolverError as err:
            out[i] = err
            continue
        if blocks and o + hi - lo + 4 > ROW_NODES:
            _step_row(blocks, o, out, forcing)
            blocks, o = [], 0
        blocks.append((i, c, t, dt, lo - c.lo, hi - c.lo, o))
        o += hi - lo + 4
    if blocks:
        _step_row(blocks, o, out, forcing)
    return out


def _step_row(blocks: list, width: int, out: list,
              forcing: Optional[Callable]) -> None:
    """``advance`` on the blocks of one ragged row of ``width`` columns;
    ``out`` gets each context's result at its index."""
    g = blocks[0][1].g
    if len(blocks) == 1:  # the coefficients as 0-d arrays, the rows views
        (_, c, _, dt, a, b, _), = blocks
        areas, inv_Adx = c.Ah_full[a:b + 1], c.inv_Adx[a:b]
        gas, h, half_h, e, two_dx = (g, np.array(dt), np.array(0.5 * dt),
                                     np.array(-(c.eps * dt)), c._two_dx)
    else:
        areas = _join([c.Ah_full[a:b + 1] for _, c, _, _, a, b, _ in blocks],
                      _FACE_GAP)
        inv_Adx = _join([c.inv_Adx[a:b] for _, c, _, _, a, b, _ in blocks],
                        _NODE_GAP)
        coef = np.repeat(np.array(
            [(dt, 0.5 * dt, -(c.eps * dt), 2.0 * c.dx, c.g.delta)
             for _, c, _, dt, *_ in blocks]).T,
            [b - a + 4 for *_, a, b, _ in blocks], axis=1)
        (h, half_h, e, two_dx), gas = coef[:4, 2:-2], _RowGas(g, coef[4])
    axes = [o for _, c, _, _, a, _, o in blocks
            if c.lo + a == 0 and c.bc.mode is BCMode.NEUMANN_SPHERICAL]
    stencil = np.empty((width, 2))

    def rates(later: bool):
        """The explicit rates on the node row, from each state at its t,
        or t + dt, with the stencil row filled from them."""
        for _, c, t, dt, a, b, o in blocks:
            _extend(c.state, c, t + dt if later else t, a, b, c.lo,
                    stencil[o:o + b - a + 4])
        _, _, F = _fluxes(stencil, gas, areas, axes)
        return _rates(stencil, F, gas, inv_Adx, two_dx)

    def forced(later: bool):
        return _join([np.array(forcing(c.x, t + dt if later else t),
                               dtype=float)
                      for _, c, t, dt, *_ in blocks], _NO_FORCE)

    # two-stage (Heun) explicit convection: a single forward-Euler stage
    # feeds energy into the resolved waves at O(dt) and visibly pollutes
    # the discrete energy identity; averaging the stage fluxes removes
    # that while keeping one tridiagonal solve per equation below.  Each
    # state carries the stage state, so stage 2 reads frozen neighbours.
    floor = GasLaw._floor
    c1 = rates(False)
    state0 = stencil[2:-2].T.copy()
    mid = state0 + h * c1
    np.maximum(mid[0], floor, out=mid[0])
    if forcing is not None:
        f1 = forced(False)
        mid = mid + h * f1
        np.maximum(mid[0], floor, out=mid[0])
    for _, c, _, _, a, b, o in blocks:
        c.state[:, a:b] = mid[:, o:o + b - a]
    new = state0 + half_h * (c1 + rates(True))
    if forcing is not None:
        new = new + half_h * (f1 + forced(True))

    if not math.isfinite(new.sum()):  # then find whose entries are not
        for i, _, _, _, a, b, o in blocks:
            if not np.isfinite(new[:, o:o + b - a]).all():
                out[i] = NonFiniteError("non-finite values after the "
                                        "explicit stage")
        if all(out[i] is not None for i, *_ in blocks):
            return

    # (I - eps dt L) u = new for both rows of every block at once.  A
    # block's end rows are pinned: to the boundary values at a domain end
    # (the axis end keeps its mirrored density row), else to the frozen
    # values; a dead column, or a block that failed, is an identity row
    # with right side 0, and no entry couples a block to its neighbours
    ab = e * _join([c.bands[..., a:b] if out[i] is None else
                    np.full((3, 2, b - a), -0.0)
                    for i, c, _, _, a, b, _ in blocks], _DEAD)
    ab[1] += 1.0
    below = new[0] < floor
    for i, c, t, dt, a, b, o in blocks:
        f, l = o, o + b - a - 1  # the block's first and last node columns
        new[:, f if out[i] is not None else l + 1:l + 5] = 0.0
        if out[i] is not None:
            continue
        # transient undershoots are counted, not clamped: the implicit
        # diffusion usually lifts an isolated dip, and a persistent one
        # must surface as a cavitation fault below rather than be masked
        c.undershoots += np.count_nonzero(below[f + 1:l])
        c.cells_advanced += b - a
        lo, hi = c.lo + a, c.lo + b
        c.hull = (min(c.hull[0], lo), max(c.hull[1], hi))
        c.live = ((lo, hi) if c.live[0] >= c.live[1] else
                  (min(c.live[0], lo), max(c.live[1], hi)))
        t1 = t + dt
        left = c.bc.left_values(t1) if lo == 0 else state0[:, f]
        right = c.bc.right_values(t1) if hi == c.grid.n_nodes else state0[:, l]
        pin = slice(0 if left[0] is not None else 1, 2)
        ab[1, pin, f], ab[0, pin, f + 1], new[pin, f] = 1.0, 0.0, left[pin]
        ab[1, :, l], ab[2, :, l - 1], new[:, l] = 1.0, 0.0, right
        ab[0, :, f] = ab[2, :, l] = 0.0
    try:
        x = _tridiag_solve(ab[2].reshape(-1)[:-1], ab[1].reshape(-1),
                           ab[0].reshape(-1)[1:], new.reshape(-1)).reshape(2, -1)
    except SolverError:  # a zero pivot: solving each block's rows alone,
        x = new.copy()      # as a lone rung does, finds whose
        for i, _, _, _, a, b, o in blocks:
            try:
                for k in (0, 1) if out[i] is None else ():
                    x[k, o:o + b - a] = _tridiag_solve(
                        ab[2, k, o:o + b - a - 1], ab[1, k, o:o + b - a],
                        ab[0, k, o + 1:o + b - a], new[k, o:o + b - a])
            except SolverError as err:
                out[i] = err

    finite = math.isfinite(x.sum())
    for i, c, _, _, a, b, o in blocks:
        if out[i] is not None:
            continue
        u = x[:, o:o + b - a]
        if not (finite or np.isfinite(u).all()):
            out[i] = NonFiniteError("non-finite values after the implicit "
                                    "stage")
            continue
        low = u[0].min()
        if low < floor:
            out[i] = CavitationError(
                f"density fell to {low:.3e} (< floor {c.g.rho_floor:.0e})")
            continue
        c.state[:, a:b] = u
        out[i] = (c.lo + a, c.lo + b)


# ---------------------------------------------------------------------------
# Public stepping interface
# ---------------------------------------------------------------------------

def step(field: FluidField, g: GasLaw, profile: NozzleProfile, eps: float,
         bc: BoundarySpec, dt: float, *, ctx: Optional[SolverContext] = None,
         cfl: float = CFL, forcing: Optional[Callable] = None) -> FluidField:
    """Advance one IMEX step of size dt; returns a new field.

    dt must be positive and respect the advective bound cfl * dx /
    max(|u| + c), with cfl in (0, CFL_MAX]; the implicit diffusion imposes
    no restriction.  ``forcing(x, t)`` may return extra
    (mass, momentum) source arrays (manufactured-solution studies).  A given
    ``ctx`` must have been built for this grid, g, profile, eps and bc.
    The step starts ``ctx`` on a copy of the field, scans it whole and
    ``advance``s it; the result, on the context's ``live`` nodes (every
    node for a whole-grid field), shares no memory with the input or ``ctx``.
    """
    check_cfl(cfl)
    if ctx is None:
        ctx = SolverContext(field.grid, g, profile, eps, bc)
    else:
        ctx.require(field.grid, g, profile, eps, bc)
    ctx.start(field)
    moved, = advance([ctx], [field.t], [dt], cfl=cfl, forcing=forcing)
    if isinstance(moved, Exception):
        raise moved
    out = ctx._state(field.t + dt)
    ctx.state = None
    return out


# a run that needs more steps than this to reach t_end is stuck
MAX_STEPS = 10_000_000


@dataclass
class Rung:
    """One run of a ``march``: its starting field, the solver's inputs and
    ``hooks`` (see ``run``) or None."""

    field: FluidField
    g: GasLaw
    profile: NozzleProfile
    eps: float
    bc: BoundarySpec
    hooks: object = None


class _March:
    """A rung on its way to t_end: its context, time, steps and the sample
    times ahead.  ``result`` becomes its (field, report), or the package
    error it raised, when it ends."""

    def __init__(self, rung: Rung, t_end: float, forced: bool):
        from .diagnostics import DiagnosticsReport  # a cycle at import time

        field, hooks = rung.field, rung.hooks
        self.hooks, self.t_end, self.t, self.steps = hooks, t_end, field.t, 0
        self.forced, self.targets, self.stop, self.result = forced, [], t_end, None
        if t_end < field.t - 1e-12:
            raise ConfigError("t_end lies before the field's current time")
        if t_end <= field.t + 1e-15 * max(1.0, abs(t_end)):
            self.result = field, (hooks.finalize() if hooks is not None else
                                  DiagnosticsReport())
            return
        ctx = self.ctx = SolverContext(field.grid, rung.g, rung.profile,
                                       rung.eps, rung.bc)
        # a state the gas law overflows on fails here, before any monitor
        # sees it
        ends = [e for e in field.ends if e is not None]
        with np.errstate(over="ignore"):
            ctx.max_wave_speed(np.append(field.rho, [e[0] for e in ends]),
                               np.append(field.m, [e[1] for e in ends]))
        ctx.start(field)
        if forced:  # forcing moves every node from the first step on
            ctx.store(0, field.grid.n_nodes)
            ctx.live = (0, field.grid.n_nodes)
        if hooks is not None:
            self.targets = [
                ts for ts in np.sort(np.asarray(hooks.sample_times, dtype=float))
                if field.t - 1e-12 <= ts <= t_end + 1e-12]
            if self.targets and abs(self.targets[0] - field.t) <= 1e-12:
                hooks.sample(ctx.field(field.t), ctx)
                self.targets = self.targets[1:]
        self._check_end()

    def dt(self, cfl: float, dt_fixed: Optional[float]) -> float:
        """The next step's size: from the wave speed of ``ctx.scan``, or
        ``dt_fixed``, clipped to ``stop``."""
        if self.steps >= MAX_STEPS:
            raise SolverError(f"exceeded {MAX_STEPS} steps before t_end")
        dt = dt_fixed
        if dt is None:
            dt = cfl * self.ctx.dx / self.ctx.scan(self.forced)[2]
        stop = self.stop
        self.snap = self.t + dt >= stop - 1e-13 * max(1.0, stop)
        return stop - self.t if self.snap else dt

    def stepped(self, dt: float) -> None:
        """Take the step of size dt: sample at a sample time, end at t_end."""
        stop = self.stop
        self.t = stop if self.snap else self.t + dt
        if self.snap and self.targets and abs(stop - self.targets[0]) <= 1e-12:
            self.hooks.sample(self.ctx.field(self.t), self.ctx)
            self.targets = self.targets[1:]
        self.steps += 1
        self._check_end()

    def _check_end(self) -> None:
        """``stop``, the time the next steps are clipped to (a sample time
        or t_end), or the result at t_end."""
        t_end, ctx, hooks = self.t_end, self.ctx, self.hooks
        if self.t < t_end - 1e-13 * max(1.0, t_end):
            self.stop = min(self.targets[0], t_end) if self.targets else t_end
            return
        from .diagnostics import DiagnosticsReport
        if hooks is None:
            report = DiagnosticsReport()
        else:
            for _ in self.targets:  # sample times at/after t_end collapse
                hooks.sample(ctx.field(self.t), ctx)  # onto the end
            report = hooks.finalize()
        report.undershoots = ctx.undershoots
        report.cells_advanced = ctx.cells_advanced
        report.hull = ctx.hull
        self.result = ctx.field(self.t), report


def march(rungs: list, t_end: float, *, cfl: float = CFL,
          forcing: Optional[Callable] = None,
          dt_fixed: Optional[float] = None) -> list:
    """March every rung to t_end in lockstep; returns per rung what ``run``
    returns for it alone, or the package error it raised.

    Each rung keeps its own context, scan, CFL check, dt and hooks, and
    every step of every rung is bit for bit the step it takes alone.  A
    lockstep step is one ``advance`` of the rungs that step: those behind
    the earliest time any rung is clipped to next, and the rungs clipped
    to it, so a rung that reaches a sample time waits there until every
    rung has.  A rung that raises ends alone; the error of a step names
    its t.  The shared arguments are checked as ``run`` checks them, and
    rungs that do not share gamma and kappa are refused before any starts.
    """
    check_cfl(cfl)
    if not math.isfinite(t_end):
        raise ConfigError(f"t_end must be finite, got {t_end}")
    if dt_fixed is not None and not 0.0 < dt_fixed < math.inf:
        raise ConfigError(f"dt_fixed must be positive and finite, got {dt_fixed}")
    _check_one_gas(rungs)
    runs: list = []
    for rung in rungs:
        try:
            runs.append(_March(rung, t_end, forcing is not None))
        except NozzleflowError as err:
            runs.append(err)
    going = [r for r in runs if isinstance(r, _March) and r.result is None]
    while going:
        clip = min(r.stop for r in going)
        now, dts = [], []
        for r in going:
            if r.t < clip or r.stop == clip:
                try:
                    dts.append(r.dt(cfl, dt_fixed))
                    now.append(r)
                except NozzleflowError as err:
                    r.result = err
        moved = advance([r.ctx for r in now], [r.t for r in now], dts,
                        cfl=cfl, forcing=forcing)
        for r, dt, res in zip(now, dts, moved):
            if isinstance(res, Exception):
                r.result = type(res)(f"{res} [at t={r.t:.8g}]")
                r.result.__cause__ = res
                continue
            try:
                r.stepped(dt)
            except NozzleflowError as err:
                r.result = err
        going = [r for r in going if r.result is None]
    return [r.result if isinstance(r, _March) else r for r in runs]


def run(field: FluidField, g: GasLaw, profile: NozzleProfile, eps: float,
        bc: BoundarySpec, t_end: float, hooks=None, *, cfl: float = CFL,
        forcing: Optional[Callable] = None,
        dt_fixed: Optional[float] = None):
    """March to t_end; returns (final field, diagnostics report).  The
    field is ``SolverContext.field``, the run's state on its ``live`` nodes;
    a run of zero length returns ``field`` itself.

    ``hooks`` (any object with sample_times, sample(field, ctx), finalize())
    is sampled at its requested times with the run's SolverContext and its
    ``field``; the step size is clipped so those times are hit exactly.
    With hooks=None an empty report is returned.  The run is a ``march``
    of one rung: its context holds the run's state (``start``), and each
    step is one ``advance``, with dt from the wave speed of ``ctx.scan``,
    or ``dt_fixed``.  A cfl outside (0, CFL_MAX], a t_end that is not
    finite and a dt_fixed that is not positive and finite are refused
    (ConfigError).
    """
    result, = march([Rung(field, g, profile, eps, bc, hooks)], t_end, cfl=cfl,
                    forcing=forcing, dt_fixed=dt_fixed)
    if isinstance(result, Exception):
        raise result
    return result


# ---------------------------------------------------------------------------
# Initial data preparation
# ---------------------------------------------------------------------------


def _mollify(values: np.ndarray, width: float, dx: float,
             pad: Optional[tuple[int, int]] = None) -> np.ndarray:
    """``values`` smoothed by the normalized smooth bump on 2 half + 1
    nodes, half = ceil(width / dx) (none for width <= dx).  They hold the
    nodes to smooth plus up to half neighbours on each side; ``pad`` edge
    copies (default: half on each side) stand for the missing ones.  A node
    whose 2 half + 1 nodes hold one value keeps it exactly, where the
    weighted sum would round it by an ulp or so."""
    if width <= dx:
        return values.copy()
    half = int(np.ceil(width / dx))
    kern = smooth_bump(np.linspace(-1.0, 1.0, 2 * half + 1))[0]
    kern /= kern.sum()
    pad = pad or (half, half)
    padded = np.concatenate([np.full(pad[0], values[0]), values,
                             np.full(pad[1], values[-1])])
    # changes[k]: how often the value changes between padded nodes 0 .. k
    changes = np.concatenate(([0], np.cumsum(padded[1:] != padded[:-1])))
    return np.where(changes[2 * half:] == changes[:-2 * half], padded[half:-half],
                    np.convolve(padded, kern, mode="valid"))


def prepare_initial_data(raw: InitialData, bc: BoundarySpec, g: GasLaw,
                         profile: NozzleProfile, grid: Grid) -> FluidField:
    """Mollify, lift off vacuum, and blend the raw data into the boundary values.

    The blend equals the boundary values identically within blend_width/2 of
    each end.  The construction must not distort the relative energy of the
    data by more than 5%; that is enforced, because a distorted start would
    invalidate every energy-based comparison downstream.  The grid is
    prepared BLOCK nodes at a time.  The field's arrays run from the first
    node that is not exactly the left boundary state to the last that is
    not exactly the right one; the nodes outside hold those states.
    """
    span = grid.b - grid.a
    if raw.blend_width >= span / 4.0:
        raise ConfigError("blend width must be below a quarter of the domain")
    n, dx, width = grid.n_nodes, grid.dx, raw.mollify_width
    half = int(np.ceil(width / dx)) if width > dx else 0

    def raw_data(lo, hi):
        x = grid.nodes(lo, hi)
        rho = np.asarray(raw.rho0(x), dtype=float)
        m = np.asarray(raw.m0(x), dtype=float)
        if rho.shape != x.shape or m.shape != x.shape:
            raise ConfigError("initial data callables must return node-shaped arrays")
        if np.any(rho < 0.0):
            raise DomainError("raw initial density must be nonnegative")
        return rho, m

    rho_l, m_l = bc.left_values(0.0)
    rho_r, m_r = bc.right_values(0.0)
    if rho_l is None:
        rho_l = float(raw_data(0, 1)[0][0])  # axis end carries no density target
    lift = max(g.rho_floor, 1e-4 * min(rho_l, rho_r))
    axis = bc.mode is BCMode.NEUMANN_SPHERICAL

    def block(lo, hi):
        """x, the lifted raw data and the prepared data on nodes [lo, hi)."""
        e0, e1 = max(lo - half, 0), min(hi + half, n)
        rho, m = raw_data(e0, e1)
        pad = (half - (lo - e0), half - (e1 - hi))
        rho_s = np.maximum(_mollify(rho, width, dx, pad), lift)
        m_s = _mollify(m, width, dx, pad)
        x = grid.nodes(lo, hi)
        # weight w of the boundary values: 1 within blend_width/2 of the end
        # (at the end node alone for a zero width), smoothly down to 0 at
        # blend_width; a value blended with itself stays that value exactly
        bw = 0.5 * raw.blend_width
        for d, rv, mv, pin_rho in ((x - grid.a, rho_l, m_l, not axis),
                                   (grid.b - x, rho_r, m_r, True)):
            if bw > 0.0:
                w = 1.0 - smoothstep((d - bw) / bw)
            else:
                w = (d <= 0.0).astype(float)
            m_s = np.where(m_s == mv, m_s, (1.0 - w) * m_s + w * mv)
            if pin_rho:  # the axis end pins only the momentum
                rho_s = np.where(rho_s == rv, rho_s, (1.0 - w) * rho_s + w * rv)
        core = slice(lo - e0, hi - e0)
        return x, np.maximum(rho[core], lift), m[core], rho_s, m_s

    # relative-energy distortion gate, measured against a bc-implied reference
    mid = 0.5 * (grid.a + grid.b)
    halo = max(span / 8.0, 2.0 * grid.dx)
    ub_l = m_l / rho_l
    ub_r = m_r / rho_r
    e_raw = e_out = 0.0
    first, last = n, 0  # nodes off the left / right boundary state
    for lo in range(0, n - 1, BLOCK):
        hi = min(lo + BLOCK + 1, n)  # blocks share their end nodes
        x, rho, m, rho_s, m_s = block(lo, hi)
        blend = smoothstep((x - (mid - halo)) / (2.0 * halo))
        rb = rho_l + (rho_r - rho_l) * blend
        ub = ub_l + (ub_r - ub_l) * blend
        A = profile.area(x)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            e_raw += float(np.trapezoid(g.relative_energy(rho, m, rb, ub) * A, x))
            e_out += float(np.trapezoid(g.relative_energy(rho_s, m_s, rb, ub) * A,
                                        x))
        off = np.flatnonzero((rho_s != rho_l) | (m_s != m_l))
        if off.size:
            first = min(first, lo + int(off[0]))
        off = np.flatnonzero((rho_s != rho_r) | (m_s != m_r))
        if off.size:
            last = max(last, lo + int(off[-1]) + 1)
    if not math.isfinite(e_raw + e_out):
        rho_max = max(float(np.max(raw_data(lo, min(lo + BLOCK, n))[0]))
                      for lo in range(0, n, BLOCK))
        raise ConfigError(f"the gas law leaves the float range on the initial data "
                          f"(relative energy {e_raw:g}, max rho = {rho_max:g}, "
                          f"gamma = {g.gamma:g})")
    if abs(e_out - e_raw) > 0.05 * e_raw + 1e-10 * (1.0 + abs(e_raw)):
        raise ConfigError(
            f"prepared data distorts the relative energy by more than 5% "
            f"({e_raw:.6g} -> {e_out:.6g}); reduce the mollify/blend widths")
    # nodes below lo hold the left state and nodes from hi on the right one,
    # an empty range where the data jump straight from one to the other
    lo, hi = min(first, last), last
    parts = [block(b, min(b + BLOCK, hi))[3:] for b in range(lo, hi, BLOCK)]
    rho_s, m_s = (np.concatenate([p[i] for p in parts]) if parts else np.empty(0)
                  for i in (0, 1))
    return FluidField(grid, rho_s, m_s, 0.0, lo,
                      ((rho_l, m_l) if lo > 0 else None,
                       (rho_r, m_r) if hi < n else None))
