"""Entropy pairs of the isentropic system via kernel quadrature.

Every entropy that vanishes at vacuum arises from a scalar generator psi
through the averaging

    eta(rho, m) = rho * int_{-1}^{1} psi(u + rho^theta s) (1 - s^2)^lam ds,
    q(rho, m)   = rho * int_{-1}^{1} (u + theta rho^theta s) psi(...) (1 - s^2)^lam ds,

with u = m/rho, theta = (gamma-1)/2 and lam = (3-gamma)/(2(gamma-1)).
Gauss-Jacobi rules for the weight (1-s^2)^lam take their nodes from the
eigenvalues of the Jacobi matrix and their weights from the orthonormal
recurrence, which stays accurate for lam in (-1/2, 0) where the weight
blows up at s = +-1 (gamma > 3).  lam = 0 is plain Gauss-Legendre.

A piecewise-polynomial generator is a table of psi's coefficients on the
intervals between its kinks, and its moments are exact: each piece between
[-1, kinks inside (-1, 1)..., 1] sums Taylor terms of its polynomial against
closed-form weight moments, ``weight_moment`` at s = +-1 and a tail recurrence
at a kink.  A piece too narrow for those sums takes fixed 20-node local rules.
A generator given by callables is evaluated on one full-interval rule, in
chunks of states, as one matrix product per derivative order.  When it
declares where psi stops being analytic, each chunk takes the node count its
states need: Gauss quadrature of a function analytic inside the Bernstein
ellipse E_r converges like r^(-2n) (Trefethen, ATAP ch. 19).  Node-doubling
certifies a pair.  One moment pass serves a whole family of generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Callable, Optional, Sequence

import numpy as np

from ._native import flapack
from .checks import Check, Report
from .errors import ConfigError, DomainError, QuadratureError
from .thermo import GasLaw, _match

# ---------------------------------------------------------------------------
# Gauss-Jacobi rules
# ---------------------------------------------------------------------------

# a rule's nodes with |x| above this take their weights in extended
# precision (np.longdouble, 80 bits on x86-64): in doubles the recurrence
# loses up to 8e-13 of the largest weight there at n = 4096 (lam = -1/3)
END_X = 0.99
# a node's rows of the orthonormal recurrence are scaled down once they pass
# 2^SCALE_EXP, looked at every 8 steps; one step grows them by less than
# 2^13, so p_n'^2 stays finite
SCALE_EXP = 256


def _gamma_ratio(scale, a, b, c):
    """scale Gamma(a) Gamma(b) / Gamma(c); past Gamma's float range, the
    exponential of log(scale) and lgamma terms, so no factor overflows."""
    try:
        return scale * math.gamma(a) * math.gamma(b) / math.gamma(c)
    except OverflowError:
        return np.exp(np.log(scale) + (math.lgamma(a) + math.lgamma(b) - math.lgamma(c)))


def jacobi_recurrence(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """First n three-term recurrence coefficients for the weight
    (1-x)^a (1+x)^b, in extended precision."""
    alpha = np.zeros(n, dtype=np.longdouble)
    beta = np.zeros(n, dtype=np.longdouble)
    a, b = np.longdouble(a), np.longdouble(b)
    apb = a + b
    alpha[0] = (b - a) / (apb + 2.0)
    beta[0] = _gamma_ratio(2.0 ** (apb + 1.0), a + 1.0, b + 1.0, apb + 2.0)
    if n > 1:
        k = np.arange(1, n, dtype=np.longdouble)
        alpha[1:] = (b * b - a * a) / ((2.0 * k + apb) * (2.0 * k + apb + 2.0))
        beta[1:] = (4.0 * k * (k + a) * (k + b) * (k + apb)
                    / ((2.0 * k + apb) ** 2 * (2.0 * k + apb + 1.0)
                       * (2.0 * k + apb - 1.0)))
    return alpha, beta


def _christoffel(x, a, b, alpha, off, beta0):
    """Nodes and weights of an n-node rule from some of its nodes x, in x's
    float type.

    With the orthonormal p_n and p_n' run up the recurrence at every node,
    a Newton step p_n / p_n' moves each node onto the root, and its weight
    is w = (2n + a + b + 1) / ((1 - x^2) p_n'(x)^2) there, to first order in
    the step, with p_n'' from the Jacobi equation: near x = +-1 the rounding
    of a node alone moves w by up to 1e-10 of itself at n = 4096.  Below
    exponent 84.5, p_k stays below 1e86 inside END_X, and past it the type
    is extended.  Above, p_k grows past the float range: a node's rows are
    then scaled by 2^-e, exactly, once they pass 2^SCALE_EXP, and its
    weight by 2^(2e) at the end, so a weight that truly underflows comes
    out as an exact 0.
    """
    n = alpha.size - 1
    alpha, off = alpha.astype(x.dtype), off.astype(x.dtype)
    # rows p_k and p_k', times 2^-scale
    P, P_prev = np.zeros((2, x.size), x.dtype), np.zeros((2, x.size), x.dtype)
    P[0] = 1.0 / math.sqrt(beta0)
    scale = np.zeros(x.size, dtype=int)
    for k in range(n):
        P_next = (x - alpha[k]) * P - (off[k - 1] if k else 0.0) * P_prev
        P_next[1] += P[0]
        P_next /= off[k]
        P, P_prev = P_next, P
        if k % 8 == 7 and np.max(np.abs(P), initial=0.0) > 2.0 ** SCALE_EXP:
            e = np.frexp(np.max(np.abs(P), axis=0))[1]
            P, P_prev, scale = np.ldexp(P, -e), np.ldexp(P_prev, -e), scale + e
    p, dp = P
    step = p / dp
    om = (1.0 - x) * (1.0 + x)
    d2p = -((b - a - (a + b + 2.0) * x) * dp + n * (n + a + b + 1.0) * p) / om
    w = (2 * n + a + b + 1.0) / ((om + 2.0 * x * step) * (dp - d2p * step) ** 2)
    return (x - step).astype(float), np.ldexp(w, -2 * scale).astype(float)


def _tridiagonal_eigvals(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, of the symmetric tridiagonal matrix with
    diagonal d and off-diagonal e: LAPACK stevd, the call and size-1 exit
    of scipy's ``eigvalsh_tridiagonal`` for all eigenvalues."""
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        raise DomainError("Jacobi matrix is not finite")
    if d.size == 1:
        return d.copy()
    w, _, info = flapack.dstevd(d, e, compute_v=0)
    if info != 0:
        raise DomainError(f"Jacobi matrix eigenvalues failed (stevd info={info})")
    return w


def gauss_jacobi(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1] for the weight (1-x)^a (1+x)^b.

    The eigenvalues of the Jacobi matrix T start the nodes, and
    ``_christoffel`` polishes them and weighs them: O(n) memory and no
    eigenvectors.  The nodes past END_X are weighed again in extended
    precision, with the coefficients of ``jacobi_recurrence`` in the same.
    A symmetric rule (a = b) takes the nodes in [0, 1] from half of T^2 and
    mirrors them.
    """
    if min(a, b) <= -1.0:
        raise DomainError("Jacobi exponents must exceed -1")
    alpha, beta = jacobi_recurrence(n + 1, a, b)
    off = np.sqrt(beta[1:])
    e = off[:n - 1].astype(float)
    if a == b:
        # T has a zero diagonal, so the even rows and columns of T^2 form a
        # tridiagonal matrix whose eigenvalues are the squared nodes >= 0
        e2 = np.r_[0.0, e, 0.0] ** 2
        x = np.sqrt(np.maximum(_tridiagonal_eigvals(
            e2[0:n:2] + e2[1:n + 1:2], e[0:n - 2:2] * e[1:n - 1:2]), 0.0))
    else:
        x = _tridiagonal_eigvals(alpha[:n].astype(float), e)
    x, w = _christoffel(x, a, b, alpha, off, beta[0])
    ends = np.abs(x) > END_X
    x[ends], w[ends] = _christoffel(x[ends].astype(np.longdouble), a, b, alpha,
                                    off, beta[0])
    if a == b:
        x, w = np.r_[-x[n % 2:][::-1], x], np.r_[w[n % 2:][::-1], w]
    return x, w


def weight_moment(lam: float, k: int) -> float:
    """int_{-1}^{1} s^k (1-s^2)^lam ds in closed form (0 for odd k); k = 0
    gives the kernel's total mass c_lam = sqrt(pi) Gamma(lam+1) / Gamma(lam+3/2)."""
    return 0.0 if k % 2 else _gamma_ratio(1.0, (k + 1) / 2.0, lam + 1.0, lam + k / 2.0 + 1.5)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EntropyGenerator:
    """Scalar generator psi with analytic first and second derivatives.

    ``kinks`` lists, sorted, the velocity-space locations where psi'' jumps,
    and ``pieces`` psi's ascending coefficients in v on each of the
    ``len(kinks) + 1`` intervals between them: the kernel integrates such a
    table exactly.  A generator given by its callables alone has no kinks;
    its ``jet(v, order)``, when given, returns psi and its derivatives up to
    ``order`` from one evaluation.  ``singularities`` lists the points v off
    the real line (their conjugates implied) where such a psi stops being
    analytic; the kernel sizes its rules from them.
    """

    name: str
    psi: Callable[[np.ndarray], np.ndarray]
    dpsi: Callable[[np.ndarray], np.ndarray]
    d2psi: Callable[[np.ndarray], np.ndarray]
    convex: bool = False
    kinks: tuple[float, ...] = ()
    pieces: tuple[tuple[float, ...], ...] = ()
    jet: Optional[Callable[[np.ndarray, int], list]] = None
    singularities: tuple[complex, ...] = ()

    def __post_init__(self):
        if list(self.kinks) != sorted(self.kinks) or (
                (self.kinks or self.pieces)
                and len(self.pieces) != len(self.kinks) + 1):
            raise ConfigError(f"generator {self.name!r} needs sorted kinks and "
                              "one piece more than kinks, or neither")

    def derivatives(self, v, order: int) -> list:
        """[psi(v), psi'(v), ...] up to ``order``."""
        if self.jet is not None:
            return self.jet(v, order)
        return [f(v) for f in (self.psi, self.dpsi, self.d2psi)[:order + 1]]

    @cached_property
    def tables(self) -> list[list[list[float]]]:
        """Per piece, ``_derivatives`` of its polynomial."""
        return [_derivatives(p) for p in self.pieces]


def _derivatives(coeffs) -> list[list[float]]:
    """Descending (np.polyval) coefficients of a polynomial and its derivatives."""
    c, out = [float(a) for a in coeffs], []
    while c:
        out.append(c[::-1])
        c = [i * a for i, a in enumerate(c)][1:]
    return out


def _horner(c, x):
    """np.polyval(c, x) for finite x, bit for bit, without its set-up."""
    y = c[0]
    for a in c[1:]:
        y = y * x + a
    return y


def _piece_values(kinks, coeffs, v):
    """Each v's piece polynomial, from np.polyval coefficients per piece."""
    return np.choose(np.searchsorted(kinks, v, side="right"),
                     [np.polyval(c, v) for c in coeffs])[()]


def _from_jet(name: str, jet, convex: bool = False,
              singularities: tuple[complex, ...] = ()) -> EntropyGenerator:
    """Generator whose psi, psi' and psi'' each read one order of ``jet``."""
    return EntropyGenerator(name, *(lambda v, j=j: jet(v, j)[j] for j in range(3)),
                            convex=convex, jet=jet, singularities=singularities)


def _piecewise(name: str, kinks, *pieces, convex: bool = True) -> EntropyGenerator:
    """Generator from psi's ascending coefficients in v on each interval
    between the sorted ``kinks``; psi, psi' and psi'' all come from them."""
    kv = np.array(kinks, dtype=float)
    polys = [_derivatives(p) + [[0.0]] * 2 for p in pieces]
    fns = [partial(_piece_values, kv, [d[j] for d in polys]) for j in range(3)]
    return EntropyGenerator(name, *fns, convex=convex,
                            kinks=tuple(map(float, kinks)),
                            pieces=tuple(tuple(map(float, p)) for p in pieces))


def gen_one() -> EntropyGenerator:
    return _piecewise("one", (), (1.0,))


def gen_linear() -> EntropyGenerator:
    return _piecewise("linear", (), (0.0, 1.0))


def gen_half_square() -> EntropyGenerator:
    """psi = v^2/2; its entropy is the mechanical energy up to the factor c_lam."""
    return _piecewise("half_square", (), (0.0, 0.0, 0.5))


def gen_quartic() -> EntropyGenerator:
    return _piecewise("quartic", (), (0.0, 0.0, 0.0, 0.0, 1.0))


def gen_half_signed_square(u_minus: float) -> EntropyGenerator:
    """psi(v) = (v - u_minus)|v - u_minus| / 2: the flux-dominating generator.

    Odd about u_minus, hence not convex; its value is that the companion
    flux grows a power faster than the entropy itself.
    """
    a = float(u_minus)
    return _piecewise(f"half_signed_square[{a:g}]", (a,),
                      (-0.5 * a * a, a, -0.5), (0.5 * a * a, -a, 0.5),
                      convex=False)


def gen_smoothed_abs(center: float = 0.0, width: float = 0.5) -> EntropyGenerator:
    """Smooth convex regularization of |v - center| with linear growth; its
    branch points are center +- i width."""
    c, w = float(center), float(width)

    def jet(v, order):
        d = v - c
        q = d ** 2 + w * w
        out = [np.sqrt(q)]
        if order:
            out.append(d / out[0])
        if order > 1:
            out.append(w * w / q ** 1.5)
        return out

    return _from_jet(f"smoothed_abs[{c:g},{w:g}]", jet, convex=True,
                     singularities=(complex(c, w),))


def gen_convex_spline(center: float = 0.0, width: float = 1.0) -> EntropyGenerator:
    """Convex C^3 generator whose curvature (1-t^2)^2 is compactly supported.

    The core w^2 (t^2/2 - t^4/6 + t^6/30), t = (v - center)/w, continues
    linearly outside [center - w, center + w] with value 11/30 w^2 and slope
    -+8/15 w, so sub-quadratic growth holds with room to spare.
    """
    c, w = float(center), float(width)
    # the core's coefficients in v: t^k = sum_j C(k, j) (-c/w)^(k-j) (v/w)^j
    a, s = (0.0, 0.0, 0.5, 0.0, -1.0 / 6.0, 0.0, 1.0 / 30.0), -c / w
    core = [w * w * (1.0 / w) ** j * sum(math.comb(k, j) * a[k] * s ** (k - j)
                                        for k in range(j, len(a)))
            for j in range(len(a))]
    edge, slope = 11.0 / 30.0 * w * w, 8.0 / 15.0 * w
    return _piecewise(f"convex_spline[{c:g},{w:g}]", (c - w, c + w),
                      (edge + slope * (c - w), -slope), core,
                      (edge - slope * (c + w), slope))


def smooth_bump(s):
    """(b, b') for the C-infinity bump b = exp(-1/(1-s^2)) on |s| < 1."""
    inside = np.abs(s) < 1.0
    ss = np.where(inside, s, 0.0)
    val = np.where(inside, np.exp(-1.0 / (1.0 - ss * ss)), 0.0)
    return val, val * (-2.0 * ss / np.maximum((1.0 - ss * ss) ** 2, 1e-300))


def smoothstep(t):
    """The C^2 ramp 10t^3 - 15t^4 + 6t^5 of t clipped to [0, 1]."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def gen_bump(center: float = 0.0, width: float = 1.0) -> EntropyGenerator:
    """Compactly supported C-infinity bump exp(-1/(1-t^2)); not convex."""
    c, w = float(center), float(width)

    def jet(v, order):
        t = (v - c) / w
        b, db = smooth_bump(t)
        out = [b, db / w][:order + 1]
        if order > 1:
            inside = np.abs(t) < 1.0
            t = np.where(inside, t, 0.0)
            om = 1.0 - t * t
            g = -2.0 * t / om ** 2
            gp = -2.0 / om ** 2 - 8.0 * t * t / om ** 3
            out.append(np.where(inside, b * (g * g + gp) / (w * w), 0.0))
        return out

    return _from_jet(f"bump[{c:g},{w:g}]", jet)


# every factory builds with no arguments
GENERATOR_FACTORIES = {
    "one": gen_one,
    "linear": gen_linear,
    "half_square": gen_half_square,
    "quartic": gen_quartic,
    "half_signed_square": partial(gen_half_signed_square, 0.0),
    "smoothed_abs": gen_smoothed_abs,
    "convex_spline": gen_convex_spline,
    "bump": gen_bump,
}


# ---------------------------------------------------------------------------
# Kernel evaluation
# ---------------------------------------------------------------------------

# node-doubling tolerance of pair_certified (relative, with a scale floor)
CERTIFY_RTOL = 1e-10
# pair_certified gives up when the next doubling would pass this many nodes
CERTIFY_MAX_NODES = 4096
# Gauss-Jacobi nodes of the default rule of a callable generator that
# declares no singularities
KERNEL_NODES = 64
# a generator that declares its singularities takes, per chunk of states,
# the fewest nodes (a multiple of 8, at least MIN_NODES) whose truncation
# estimate C rho^(-2n) is at most KERNEL_RTOL, relative to a state's largest
# moment; rho is the Bernstein ellipse through the nearest singularity
KERNEL_RTOL = 1e-14
MIN_NODES = 16
# C per moment order, at least twice the largest ratio of error to
# rho^(-2n) seen on smoothed |v - c| generators (gammas 1.2 to 7, widths
# 0.002 to 2, 16 to 1024 nodes, against 4096): 0.75 at orders 0 and 1, 32
# at order 2
KERNEL_ERROR_C = (2.0, 2.0, 64.0)
# the rounding of a rule's node sums, relative to a state's largest moment,
# added to every reported estimate: up to 12 ulps seen at gamma 5
KERNEL_ROUNDING = 32 * 2.0 ** -52
# states per chunk of a piece table's moment pass: caps its per-piece tail
# tables below a MiB, and each chunk costs about 0.7 ms of Python
CHUNK = 2048
# bytes of each (states x nodes) array of a callable generator's chunk: a
# larger temporary is mapped and unmapped by the allocator per chunk, and
# faulting its pages in again cost the ladder's weak residuals 0.2 s
NODE_CHUNK_BYTES = 1 << 16
# nodes of the fixed local rules.  A Jacobi rule on [y, 1], y > -1/2, sees
# its smooth factor (1 + s)^lam analytic two thirds of a half-width past the
# end: 20 nodes reach rounding, as they do for Legendre on narrow pieces
TAIL_NODES = 20
# largest growth of the Taylor terms a piece's exact moments may sum
TAYLOR_GROWTH = 100.0


def _flat_states(rho, m):
    """Broadcast (rho, m) to a common shape and flatten; remember the shape."""
    r = np.asarray(rho, dtype=float)
    mm = np.asarray(m, dtype=float)
    shape = np.broadcast_shapes(r.shape, mm.shape)
    rf = np.ascontiguousarray(np.broadcast_to(r, shape), dtype=float).ravel()
    mf = np.ascontiguousarray(np.broadcast_to(mm, shape), dtype=float).ravel()
    return rf, mf, shape


def _shaped(shape, *arrs):
    if shape == ():
        out = tuple(float(a[0]) for a in arrs)
    else:
        out = tuple(a.reshape(shape) for a in arrs)
    return out if len(out) > 1 else out[0]


class EntropyKernel:
    """Quadrature engine for one gas law; rules are cached per (a, b, n)."""

    def __init__(self, g: GasLaw):
        if g.lambda_exp <= -0.5:
            raise DomainError("kernel exponent must exceed -1/2")
        self.g = g
        self.lam = g.lambda_exp
        self.theta = g.theta
        self._rule = _rule  # (n, a, b) -> (nodes, weights)

    def moments(self, gens: Sequence[EntropyGenerator], rho_f: np.ndarray,
                m_f: np.ndarray, max_order: int = 0, n: Optional[int] = None,
                errors: Optional[list] = None) -> list[dict[tuple[int, int], np.ndarray]]:
        """Per generator of ``gens``, in order, the moments
        M[(j, k)] = int s^k psi^(j)(u + rho^theta s) (1-s^2)^lam ds per state.

        Takes flat state arrays and returns the moments the assembled
        quantities read: j <= max_order, k <= max(1, j).  Vacuum states
        (rho <= floor) contribute zero to every moment.  One pass serves the
        whole family: the state checks, u, rho^theta and the vacuum split are
        done once, and piece tables share each chunk's powers of rho^theta;
        every generator's moments are bit for bit those of a call with it
        alone.  A piece table takes the exact moments of ``_piece_moments``,
        CHUNK states at a time, and ignores ``n``; a callable takes the rules
        of ``_node_moments``: the n-node rule when n is given, else each
        chunk's own.  A list given as ``errors`` gets, per generator, the
        largest error estimate its states met, relative to each state's
        largest moment: 0 for a piece table, NaN for a callable on a fixed
        rule (n given, or no singularities).
        """
        if not (np.isfinite(rho_f).all() and np.isfinite(m_f).all()):
            raise DomainError("states must be finite")
        if np.any(rho_f < 0.0):
            raise DomainError("density must be nonnegative")
        keys = [(j, k) for j in range(max_order + 1) for k in range(max(1, j) + 1)]
        pos_idx = np.flatnonzero(rho_f > self.g.rho_floor)
        r = rho_f[pos_idx]
        u, rt = m_f[pos_idx] / r, r ** self.theta
        # per generator, one row per key over the states above the floor;
        # the piece tables go first, before the callables' rows exist
        vals = [np.empty((len(keys), u.size)) if gen.pieces else None for gen in gens]
        tables = [i for i, gen in enumerate(gens) if gen.pieces]
        if tables:
            top = max(len(d) for i in tables for d in gens[i].tables) + 1
            W = [weight_moment(self.lam, m) for m in range(top)]
        for c in range(0, u.size if tables else 0, CHUNK):
            sl = slice(c, c + CHUNK)
            rt_l = [rt[sl] ** l for l in range(top - 1)]
            for i in tables:
                chunk = self._piece_moments(gens[i], u[sl], rt[sl], rt_l, W, keys)
                for row, key in zip(vals[i], keys):
                    row[sl] = chunk[key]
        nodal = [i for i, gen in enumerate(gens) if not gen.pieces]
        err = [0.0] * len(gens)
        if nodal:
            node_vals, node_err = self._node_moments(
                [gens[i] for i in nodal], u, rt, len(keys), max_order, n)
            for i, val, e in zip(nodal, node_vals, node_err):
                vals[i], err[i] = val, e
        if errors is not None:
            errors.extend(err)
        if pos_idx.size < rho_f.size:
            for i, val in enumerate(vals):
                vals[i] = np.zeros((len(keys), rho_f.size))
                vals[i][:, pos_idx] = val
        return [dict(zip(keys, val)) for val in vals]

    def _piece_moments(self, gen, u, rt, rt_l, W, keys):
        """Exact moments of a piece table, piece by piece between the
        breakpoints [-1, kinks inside (-1, 1)..., 1] of each state.

        On piece p, psi^(j)(u + rt s) = sum_l psi_p^(j+l)(u) (rt s)^l / l!,
        and s^(l+k) integrates against the weight in closed form: the whole
        interval gives ``weight_moment`` (``W``), a kink the tails of
        ``_tail_moments``.  ``rt_l`` holds the powers rt^l.  A generator
        without kinks never builds a tail.  The terms grow like
        (2 / width)^degree against the piece, so a piece of width < 1 where
        that passes TAYLOR_GROWTH takes the local rules of
        ``_local_moments`` instead.
        """
        polys = gen.tables
        if gen.kinks:
            S = np.clip((np.asarray(gen.kinks) - u[:, None]) / rt[:, None], -1.0, 1.0)
            ends = np.hstack([np.full((u.size, 1), -1.0), S, np.ones((u.size, 1))])
            # T_m at each breakpoint: W_m at s = -1, 0 at s = 1
            tails = self._tail_moments(S, max(len(d) for d in polys) + 1, W)
            T = [[Wm, *(Tm[:, i] for i in range(S.shape[1]))] for Wm, Tm in zip(W, tails)]
        vals = {key: np.zeros(u.size) if gen.kinks else 0.0 for key in keys}
        for p, poly in enumerate(polys):
            I = W
            if gen.kinks:
                lo, hi = ends[:, p], ends[:, p + 1]
                deg = len(poly) - 1
                narrow = min(1.0, 2.0 * TAYLOR_GROWTH ** (-1.0 / deg)) if deg else 0.0
                near = (hi > lo) & (hi - lo < narrow)
                I = [Tm[p] - Tm[p + 1] if p + 1 < len(Tm) else Tm[p] for Tm in T]
                if near.any():
                    I = [np.where(near, 0.0, Im) for Im in I]
                    local = self._local_moments(poly, u[near], rt[near], lo[near],
                                                hi[near], keys)
                    for key in keys:
                        vals[key][near] += local[key]
            D = [_horner(d, u) for d in poly]
            for j, k in keys:
                # odd weight moments of the whole interval are exact zeros
                vals[(j, k)] += sum(D[j + l] * (I[l + k] / math.factorial(l)) * rt_l[l]
                                    for l in range(len(D) - j)
                                    if gen.kinks or (l + k) % 2 == 0)
        return vals

    def _local_moments(self, poly, u, rt, lo, hi, keys):
        """Moments of one polynomial piece on a narrow [lo, hi] by local rules.

        At least its width away from s = +-1, a Gauss-Legendre rule on
        [lo, hi] with the weight at its nodes converges geometrically.
        Nearer to the end e, the piece is the ``_tail_rule`` on [lo, e] minus
        the one on [hi, e]: the polynomial runs on past the piece by less
        than its width.
        """
        out = {key: np.empty(u.size) for key in keys}
        far = 1.0 - np.maximum(-lo, hi) >= hi - lo
        for legendre, sel in ((True, np.flatnonzero(far)), (False, np.flatnonzero(~far))):
            a, b = lo[sel], hi[sel]
            if legendre:
                x, w = self._rule(TAIL_NODES, 0.0, 0.0)
                half = 0.5 * (b - a)[:, None]
                S = 0.5 * (b + a)[:, None] + half * x
                W = half * w * ((1.0 - S) * (1.0 + S)) ** self.lam
            else:
                # reflected by e, the piece lies in (-1/2, 1]
                e = np.where(b + a > 0.0, 1.0, -1.0)
                (S_a, W_a), (S_b, W_b) = (self._tail_rule(np.where(e > 0.0, y, -z))
                                          for y, z in ((a, b), (b, a)))
                S, W = e[:, None] * np.hstack((S_a, S_b)), np.hstack((W_a, -W_b))
            V = u[sel, None] + rt[sel, None] * S
            for j in range(max(key[0] for key in keys) + 1):
                PW = (np.polyval(poly[j], V) if j < len(poly) else np.zeros_like(V)) * W
                for k in range(max(1, j) + 1):
                    out[(j, k)][sel] = PW.sum(axis=1)
                    PW = PW * S
        return out

    def _tail_rule(self, y):
        """Nodes and weights on [y, 1] of int f(s) (1 - s^2)^lam ds for smooth
        f: a Jacobi rule for the factor (1 - s)^lam, with (1 + s)^lam smooth
        for y > -1/2.  y is 1-D; nodes and weights are (y.size, TAIL_NODES)."""
        t, w = self._rule(TAIL_NODES, self.lam, 0.0)
        h = 0.5 * (1.0 - y)[:, None]
        return 1.0 - h * (1.0 - t), h ** (self.lam + 1.0) * w * (2.0 - h * (1.0 - t)) ** self.lam

    def _tail_moments(self, S, top, W):
        """T_m(s) = int_s^1 sigma^m (1 - sigma^2)^lam d sigma for m < top.

        With y = |s|, U_0(y) comes from the ``_tail_rule`` on [y, 1],
        U_1 = (1 - y^2)^(lam+1) / (2(lam+1)), and the positive recurrence
        U_(m+2) = ((m+1) U_m + y^(m+1) (1 - y^2)^(lam+1)) / (m + 2 lam + 3)
        the rest; parity gives T_m(s) = W_m - (-1)^m U_m(y) for s < 0.
        T_m(1) = 0 and T_m(-1) = W_m exactly.
        """
        lam = self.lam
        y = np.abs(S)
        e = ((1.0 - y) * (1.0 + y)) ** (lam + 1.0)
        U0 = np.zeros_like(y)
        inner = y < 1.0
        U0[inner] = self._tail_rule(y[inner])[1].sum(axis=1)
        U = [U0, e / (2.0 * (lam + 1.0))]
        for m in range(top - 2):
            U.append(((m + 1) * U[m] + y ** (m + 1) * e) / (m + 2.0 * lam + 3.0))
        neg = S < 0.0
        return [np.where(neg, Wm - (-1) ** m * Um, Um)
                for m, (Um, Wm) in enumerate(zip(U, W))]

    def _node_moments(self, gens, u, rt, n_keys, order, n):
        """Moments of callable generators on full-interval rules, as one
        (keys x states) array per generator, and each one's error estimate.

        Each generator goes through the chunks of ``_chunks``: a chunk reads
        one node array V = u + rt t, and each order j is one product
        psi^(j)(V) @ Q with Q[:, k] = w t^k.
        """
        rows = np.cumsum([0] + [max(1, j) + 1 for j in range(order + 1)])
        rules, vals, errs = {}, [], []
        for gen in gens:
            out = np.empty((n_keys, u.size))
            chunks, err = self._chunks(gen, u, rt, order, n)
            for lo, hi, nn in chunks:
                if nn not in rules:
                    t, w = self._rule(nn, self.lam, self.lam)
                    Q = w[:, None] * t[:, None] ** np.arange(max(1, order) + 1)
                    rules[nn] = t, [Q[:, :max(1, j) + 1] for j in range(order + 1)]
                t, Qj = rules[nn]
                V = u[lo:hi, None] + rt[lo:hi, None] * t
                for j, F in enumerate(gen.derivatives(V, order)):
                    out[rows[j]:rows[j + 1], lo:hi] = (F @ Qj[j]).T
            vals.append(out)
            errs.append(err)
        return vals, errs

    def _chunks(self, gen, u, rt, order, n):
        """(lo, hi, nodes) chunks of the states for one callable generator,
        each (states x nodes) array at most NODE_CHUNK_BYTES, and the largest
        error estimate they meet.

        With n given, or no singularities declared, every chunk takes n
        (KERNEL_NODES) nodes, with no estimate.  Otherwise psi(u + rt s) is
        analytic in s inside the Bernstein ellipse with log r =
        arccosh((|z - 1| + |z + 1|) / 2), z = (v_0 - u) / rt, of its nearest
        singularity v_0, and each block of the states that fit one
        MIN_NODES chunk takes, from its smallest r, the fewest nodes in
        [MIN_NODES, CERTIFY_MAX_NODES], a multiple of 8, with
        C r^(-2n) <= KERNEL_RTOL.
        """
        if n or not gen.singularities:
            n = n or KERNEL_NODES
            step = max(1, NODE_CHUNK_BYTES // (8 * n))
            return [(c, c + step, n) for c in range(0, u.size, step)], math.nan
        if not u.size:
            return [], 0.0
        a = np.inf
        # a square that overflows puts its singularity at infinity, rightly
        with np.errstate(over="ignore"):
            for v0 in gen.singularities:
                x, y2 = (v0.real - u) / rt, (v0.imag / rt) ** 2
                a = np.minimum(a, np.sqrt((x - 1.0) ** 2 + y2)
                               + np.sqrt((x + 1.0) ** 2 + y2))
        block = NODE_CHUNK_BYTES // (8 * MIN_NODES)
        starts = np.arange(0, u.size, block)
        log_r = np.arccosh(np.maximum(0.5 * np.minimum.reduceat(a, starts), 1.0))
        C = KERNEL_ERROR_C[order]
        L = math.log(C / KERNEL_RTOL)
        need = L / np.maximum(2.0 * log_r, L / CERTIFY_MAX_NODES)
        counts = np.clip(8 * np.ceil(need / 8.0), MIN_NODES, CERTIFY_MAX_NODES).astype(int)
        chunks = []
        for lo, nn in zip(starts.tolist(), counts.tolist()):
            end, step = min(lo + block, u.size), NODE_CHUNK_BYTES // (8 * nn)
            chunks += [(c, min(c + step, end), nn) for c in range(lo, end, step)]
        return chunks, float(np.max(C * np.exp(-2.0 * counts * log_r))) + KERNEL_ROUNDING

    # -- assembled quantities -------------------------------------------------
    def _assembled(self, gens, rho, m, max_order, n, errors=None):
        """Per generator, (eta, q), then (eta_rho, eta_m) and
        (eta_rr, eta_rm, eta_mm) up to max_order, by differentiating under
        the integral of one moment pass for the whole family.  The pass runs
        at once; each generator's quantities are assembled as they are
        taken, and its moments freed then."""
        rf, mf, shape = _flat_states(rho, m)
        if max_order == 2 and np.any(rf <= self.g.rho_floor):
            raise DomainError("entropy Hessian needs rho above the vacuum floor")
        moments = self.moments(gens, rf, mf, max_order, n, errors)
        th = self.theta
        flux = th * rf ** (1.0 + th)
        if max_order:
            u = self.g.velocity(rf, mf)
            rt = rf ** th

        def assemble(M):
            out = [rf * M[(0, 0)], mf * M[(0, 0)] + flux * M[(0, 1)]]
            if max_order:
                out += [M[(0, 0)] - u * M[(1, 0)] + th * rt * M[(1, 1)], M[(1, 0)]]
            if max_order == 2:
                out += [th * (1.0 + th) * rf ** (th - 1.0) * M[(1, 1)]
                        + (th * th * rt * rt * M[(2, 2)] - 2.0 * u * th * rt * M[(2, 1)]
                           + u * u * M[(2, 0)]) / rf,
                        (th * rt * M[(2, 1)] - u * M[(2, 0)]) / rf, M[(2, 0)] / rf]
            return _shaped(shape, *out)

        return (assemble(moments.pop(0)) for _ in gens)

    def pair(self, gen, rho, m, n: Optional[int] = None):
        """(eta, q) for one generator, vectorized over states of any shape."""
        return next(self._assembled([gen], rho, m, 0, n))

    def pair_grad(self, gen, rho, m):
        """(eta, q, eta_rho, eta_m) from one order-1 moment pass."""
        return next(self._assembled([gen], rho, m, 1, None))

    def pair_grads(self, gens, rho, m, errors: Optional[list] = None):
        """``pair_grad`` of each generator in turn, from one moment pass
        for the whole family; each tuple is assembled as it is taken.
        ``errors`` is as in ``moments``."""
        return self._assembled(gens, rho, m, 1, None, errors)

    def hessian(self, gen, rho, m):
        """(eta_rr, eta_rm, eta_mm); states must be away from vacuum."""
        return next(self._assembled([gen], rho, m, 2, None))[4:]

    def pair_certified(self, gen, rho, m):
        """(eta, q) with a node-doubling certificate.

        Starts from the default node count, doubles until consecutive rules
        agree to CERTIFY_RTOL (relative, with a scale floor so symmetric
        zeros do not trip it), and returns the finer evaluation; past
        CERTIFY_MAX_NODES nodes it raises QuadratureError.  A piece table's
        moments are exact and use no nodes, so it is evaluated once.
        """
        if gen.pieces:
            return self.pair(gen, rho, m)
        rf, mf, shape = _flat_states(rho, m)
        u = self.g.velocity(rf, mf)
        scale = rf * (1.0 + u * u + rf ** (2.0 * self.theta)) + 1e-300
        n = KERNEL_NODES
        eta_c, q_c = self.pair(gen, rf, mf, n)
        while True:
            eta_f, q_f = self.pair(gen, rf, mf, 2 * n)
            tol_eta = CERTIFY_RTOL * (np.abs(eta_f) + 1e-3 * scale)
            tol_q = CERTIFY_RTOL * (np.abs(q_f) + 1e-3 * scale)
            if (np.all(np.abs(eta_f - eta_c) <= tol_eta)
                    and np.all(np.abs(q_f - q_c) <= tol_q)):
                return _shaped(shape, eta_f, q_f)
            n *= 2
            if 2 * n > CERTIFY_MAX_NODES:
                raise QuadratureError(
                    f"entropy pair for generator {gen.name!r} failed the "
                    f"node-doubling check at {CERTIFY_MAX_NODES} nodes")
            eta_c, q_c = eta_f, q_f


# rules depend on the gas law through lam alone, so kernels share them
_rule = lru_cache(maxsize=256)(gauss_jacobi)


@lru_cache(maxsize=64)
def get_kernel(g: GasLaw) -> EntropyKernel:
    return EntropyKernel(g)


# ---------------------------------------------------------------------------
# Mechanical energy and relative energies
# ---------------------------------------------------------------------------


def mechanical_energy(g: GasLaw, rho, m):
    """(eta*, q*) = (m^2/2rho + kappa rho^gamma/(gamma-1), m^3/2rho^2 + ...m rho^(gamma-1))."""
    rf, mf, shape = _flat_states(rho, m)
    if np.any(rf < 0.0):
        raise DomainError("density must be nonnegative")
    pos = rf > g.rho_floor
    rs = np.maximum(rf, 1e-300)
    coeff = g.kappa / (g.gamma - 1.0)
    eta = np.where(pos, 0.5 * mf * mf / rs + coeff * rf ** g.gamma, 0.0)
    q = np.where(pos, 0.5 * mf ** 3 / rs ** 2
                 + g.gamma * coeff * mf * rf ** (g.gamma - 1.0), 0.0)
    return _shaped(shape, eta, q)


def modified_energy_gradient(g: GasLaw, rho, m):
    """Gradient of eta_delta* = m^2/2rho + h_delta(rho) in (rho, m)."""
    r = np.maximum(np.asarray(rho, dtype=float), g.rho_floor)
    ma = np.asarray(m, dtype=float)
    u = ma / r
    return g.h_delta_prime(r) - 0.5 * u * u, u


# the reference blend half-width L0 of the construction: the blend between
# the far states lies in [-L0, L0], which every duct rung's domain contains
BLEND_HALF_WIDTH = 2.0


@dataclass(frozen=True)
class ReferenceState:
    """Smooth monotone interpolation between prescribed far states.

    Constant equal to (rho_minus, u_minus) for x <= -L0 and to
    (rho_plus, u_plus) for x >= L0, with a C^2 monotone blend between.
    """

    rho_minus: float
    u_minus: float
    rho_plus: float
    u_plus: float

    def __post_init__(self):
        if self.rho_minus < 0.0 or self.rho_plus < 0.0:
            raise DomainError("reference densities must be nonnegative")

    @classmethod
    def constant(cls, rho_bar: float, u_bar: float = 0.0):
        return cls(rho_bar, u_bar, rho_bar, u_bar)

    def state(self, x):
        """(rho_bar, u_bar) at x from one evaluation of the blend."""
        L0 = BLEND_HALF_WIDTH
        s = smoothstep((np.asarray(x, dtype=float) + L0) / (2.0 * L0))
        return (_match(x, self.rho_minus + (self.rho_plus - self.rho_minus) * s),
                _match(x, self.u_minus + (self.u_plus - self.u_minus) * s))


def quartic_entropy(g: GasLaw, rho, m):
    """eta for psi = s^4 (controls rho u^4 + rho^(2 gamma - 1)), 0 at or below rho_floor:
    rho (u^4 W_0 + 6 u^2 rho^(gamma-1) W_2 + rho^(2(gamma-1)) W_4), W_k = ``weight_moment``."""
    r, mm = np.asarray(rho, dtype=float), np.asarray(m, dtype=float)
    if not (np.isfinite(r).all() and np.isfinite(mm).all()):
        raise DomainError("states must be finite")
    W0, W2, W4 = (weight_moment(g.lambda_exp, k) for k in (0, 2, 4))
    u2, p = g._velocity(r, mm) ** 2, g._rho(r) ** (g.gamma - 1.0)
    eta = np.where(r > g.rho_floor, r * (W0 * u2 * u2 + 6.0 * W2 * u2 * p + W4 * p * p), 0.0)
    return eta if eta.ndim else float(eta)


# ---------------------------------------------------------------------------
# The flux-dominating shifted pair and its inequality battery
# ---------------------------------------------------------------------------


# allowance on max(lhs - M rhs) of a shifted-pair inequality over a sample
PAIR_INEQUALITY_TOL = 1e-9


def _special_pair(g: GasLaw, ref: ReferenceState, rho_a, m_a):
    """Shifted-pair fields on flat states from two order-1 kernel passes.

    Returns (eta_check, q_check, eta_tilde, q_tilde, eta_check_rho,
    eta_check_m) on the states, then eta_check_m and q_tilde at the left far
    state (rho_minus, rho_minus * u_minus), where the linearization is
    taken.  The pair is built for the pure gamma-law pressure (the quadratic
    stiffener plays no role here).
    """
    g0 = GasLaw(g.gamma, g.kappa, 0.0)
    kern = get_kernel(g0)
    gen = gen_half_signed_square(ref.u_minus)
    rm = ref.rho_minus
    mm = rm * ref.u_minus
    eta_c, q_c, etc_r, etc_m = kern.pair_grad(gen, rho_a, m_a)
    _, q_ref, gr, gm = kern.pair_grad(gen, rm, mm)

    def tilde(rho, m, eta, q):
        rs = np.maximum(rho, g0.rho_floor)
        flux_m = np.where(rho > g0.rho_floor, m * m / rs, 0.0) + g0.pressure(rho)
        return eta - gr * (rho - rm) - gm * (m - mm), q - gr * m - gm * flux_m

    eta_t, q_t = tilde(rho_a, m_a, eta_c, q_c)
    q_t_ref = float(tilde(rm, mm, 0.0, q_ref)[1])
    return eta_c, q_c, eta_t, q_t, etc_r, etc_m, gm, q_t_ref


def special_pair_fields(g: GasLaw, ref: ReferenceState, rho, m):
    """(eta_check, q_check, eta_tilde, q_tilde) for the shifted generator."""
    return _special_pair(g, ref, *_flat_states(rho, m)[:2])[:4]


def special_pair_check(g: GasLaw, ref: ReferenceState, rho, m,
                       M: Optional[float] = None) -> Report:
    """Fit/verify the growth and domination inequalities of the shifted pair.

    The Report's series hold ``q_tilde_at_ref`` and, per inequality, the
    minimal constant that makes it hold on the given sample.  Its checks
    hold ``Check(q_tilde_at_ref, 0)`` and, if ``M`` is supplied, one check
    per inequality of max(lhs - M rhs) over the sample against
    ``PAIR_INEQUALITY_TOL``.
    """
    rho_a, m_a, _ = _flat_states(rho, m)
    if np.any(rho_a < 0.0):
        raise DomainError("density must be nonnegative")
    eta_c, q_c, eta_t, q_t, etc_r, etc_m, gm_ref, q_t_ref = _special_pair(
        g, ref, rho_a, m_a)
    rm, um = ref.rho_minus, ref.u_minus

    th = g.theta
    pos = rho_a > g.rho_floor
    rs = np.maximum(rho_a, 1e-300)
    u = g.velocity(rho_a, m_a)
    du = np.abs(u - um)
    drt = np.abs(rho_a ** th - rm ** th)
    G1 = rho_a * du ** 2 + rho_a * drt ** 2
    G2p = rho_a * du ** 3 + rho_a ** (g.gamma + th)
    G2n = rho_a + rho_a * du ** 2 + rho_a ** g.gamma
    source = np.where(pos, -q_c + m_a * etc_r + (m_a * m_a / rs) * etc_m, 0.0)
    eta_tm = etc_m - gm_ref

    def _ratio(num, den):
        mask = den > 1e-14 * (1.0 + np.abs(num))
        return float(np.max(num[mask] / den[mask])) if mask.any() else 0.0

    fitted: dict[str, float] = {}
    fitted["eta_tilde_bound"] = _ratio(np.abs(eta_t), G1)
    mask = G2n > 1e-300
    mfit = (-q_t[mask] + np.sqrt(q_t[mask] ** 2 + 4.0 * G2n[mask] * G2p[mask])) \
        / (2.0 * G2n[mask])
    fitted["q_tilde_growth"] = float(np.max(mfit)) if mask.any() else 0.0
    mask = (q_t + 1.0) > 1e-12
    fitted["source_domination"] = _ratio(np.abs(source[mask]), q_t[mask] + 1.0)
    fitted["eta_tilde_m_bound"] = _ratio(np.abs(eta_tm), du + drt)
    fitted["m_eta_tilde_m_bound"] = _ratio(
        np.abs(m_a * eta_tm), rho_a * du ** 2 + rho_a * drt ** 2 + rho_a)

    checks = {"q_tilde_at_ref": Check(q_t_ref, 0.0)}
    if M is not None:
        excess = {
            "eta_tilde_bound": np.abs(eta_t) - M * G1,
            "q_tilde_growth": G2p / M - M * G2n - q_t,
            "source_domination": np.abs(source) - M * (q_t + 1.0),
            "eta_tilde_m_bound": np.abs(eta_tm) - M * (du + drt),
            "m_eta_tilde_m_bound": np.abs(m_a * eta_tm)
            - M * (rho_a * du ** 2 + rho_a * drt ** 2 + rho_a),
        }
        checks.update((name, Check(np.max(v), PAIR_INEQUALITY_TOL))
                      for name, v in excess.items())
    return Report(series={"q_tilde_at_ref": q_t_ref, **fitted}, checks=checks)
