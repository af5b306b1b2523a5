"""Entropy pairs of the isentropic system via kernel quadrature.

Every entropy that vanishes at vacuum arises from a scalar generator psi
through the averaging

    eta(rho, m) = rho * int_{-1}^{1} psi(u + rho^theta s) (1 - s^2)^lam ds,
    q(rho, m)   = rho * int_{-1}^{1} (u + theta rho^theta s) psi(...) (1 - s^2)^lam ds,

with u = m/rho, theta = (gamma-1)/2 and lam = (3-gamma)/(2(gamma-1)).
Nodes and weights for the weight (1-s^2)^lam come from the Golub-Welsch
eigenvalue method, which stays accurate for lam in (-1/2, 0) where the
weight blows up at s = +-1 (gamma > 3).  lam = 0 degenerates to plain
Gauss-Legendre.

A piecewise-polynomial generator is a table of psi's coefficients on the
intervals between its kinks.  A state whose range u + rho^theta s meets one
piece needs no nodes: its moments are exact sums of ``weight_moment`` terms.
Any other state is integrated piecewise between [-1, kinks inside (-1, 1)...,
1], each segment with a Jacobi rule for its ends at +-1, so the node-doubling
certification retains spectral accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache, partial
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import Polynomial
from scipy.linalg import eigh_tridiagonal

from .errors import ConfigError, DomainError, QuadratureError
from .thermo import GasLaw, _match

# ---------------------------------------------------------------------------
# Gauss-Jacobi rules (Golub-Welsch)
# ---------------------------------------------------------------------------


def jacobi_recurrence(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """First n three-term recurrence coefficients for the weight (1-x)^a (1+x)^b."""
    alpha = np.zeros(n)
    beta = np.zeros(n)
    apb = a + b
    alpha[0] = (b - a) / (apb + 2.0)
    beta[0] = (2.0 ** (apb + 1.0) * math.gamma(a + 1.0) * math.gamma(b + 1.0)
               / math.gamma(apb + 2.0))
    if n > 1:
        k = np.arange(1, n, dtype=float)
        alpha[1:] = (b * b - a * a) / ((2.0 * k + apb) * (2.0 * k + apb + 2.0))
        beta[1:] = (4.0 * k * (k + a) * (k + b) * (k + apb)
                    / ((2.0 * k + apb) ** 2 * (2.0 * k + apb + 1.0)
                       * (2.0 * k + apb - 1.0)))
    return alpha, beta


def gauss_jacobi(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1] for the weight (1-x)^a (1+x)^b."""
    if min(a, b) <= -1.0:
        raise DomainError("Jacobi exponents must exceed -1")
    alpha, beta = jacobi_recurrence(n, a, b)
    nodes, vec = eigh_tridiagonal(alpha, np.sqrt(beta[1:]))
    weights = beta[0] * vec[0] ** 2
    return nodes, weights


def weight_moment(lam: float, k: int) -> float:
    """int_{-1}^{1} s^k (1-s^2)^lam ds in closed form (0 for odd k)."""
    if k % 2 == 1:
        return 0.0
    return math.gamma((k + 1) / 2.0) * math.gamma(lam + 1.0) / math.gamma(lam + k / 2.0 + 1.5)


def kernel_total_mass(lam: float) -> float:
    """c_lam = sqrt(pi) Gamma(lam+1) / Gamma(lam+3/2)."""
    return weight_moment(lam, 0)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EntropyGenerator:
    """Scalar generator psi with analytic first and second derivatives.

    ``kinks`` lists, sorted, the velocity-space locations where psi'' jumps;
    the kernel quadrature splits its integration there.  ``pieces`` holds
    psi's ascending coefficients in v on each of the ``len(kinks) + 1``
    intervals between them when psi is piecewise polynomial.
    """

    name: str
    psi: Callable[[np.ndarray], np.ndarray]
    dpsi: Callable[[np.ndarray], np.ndarray]
    d2psi: Callable[[np.ndarray], np.ndarray]
    convex: bool = False
    kinks: tuple[float, ...] = ()
    pieces: tuple[tuple[float, ...], ...] = ()

    def __post_init__(self):
        if list(self.kinks) != sorted(self.kinks) or (
                self.pieces and len(self.pieces) != len(self.kinks) + 1):
            raise ConfigError(f"generator {self.name!r} needs sorted kinks and, "
                              "if any pieces, one more piece than kinks")


def _derivatives(coeffs) -> list[list[float]]:
    """Descending (np.polyval) coefficients of a polynomial and its derivatives."""
    c, out = [float(a) for a in coeffs], []
    while c:
        out.append(c[::-1])
        c = [i * a for i, a in enumerate(c)][1:]
    return out


def _piece_values(kinks, coeffs, v):
    """Each v's piece polynomial, from np.polyval coefficients per piece."""
    return np.choose(np.searchsorted(kinks, v, side="right"),
                     [np.polyval(c, v) for c in coeffs])[()]


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
    """Smooth convex regularization of |v - center| with linear growth."""
    c, w = float(center), float(width)
    return EntropyGenerator(
        f"smoothed_abs[{c:g},{w:g}]",
        lambda v: np.sqrt((v - c) ** 2 + w * w),
        lambda v: (v - c) / np.sqrt((v - c) ** 2 + w * w),
        lambda v: w * w / ((v - c) ** 2 + w * w) ** 1.5,
        convex=True,
    )


def gen_convex_spline(center: float = 0.0, width: float = 1.0) -> EntropyGenerator:
    """Convex C^3 generator whose curvature (1-t^2)^2 is compactly supported.

    The core w^2 (t^2/2 - t^4/6 + t^6/30), t = (v - center)/w, continues
    linearly outside [center - w, center + w] with value 11/30 w^2 and slope
    -+8/15 w, so sub-quadratic growth holds with room to spare.
    """
    c, w = float(center), float(width)
    core = w * w * Polynomial([0.0, 0.0, 0.5, 0.0, -1.0 / 6.0, 0.0, 1.0 / 30.0])(
        Polynomial([-c / w, 1.0 / w]))
    edge, slope = 11.0 / 30.0 * w * w, 8.0 / 15.0 * w
    return _piecewise(f"convex_spline[{c:g},{w:g}]", (c - w, c + w),
                      (edge + slope * (c - w), -slope), core.coef,
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

    def d2psi(v):
        t = (v - c) / w
        inside = np.abs(t) < 1.0
        t = np.where(inside, t, 0.0)
        om = 1.0 - t * t
        g = -2.0 * t / om ** 2
        gp = -2.0 / om ** 2 - 8.0 * t * t / om ** 3
        return np.where(inside, smooth_bump(t)[0] * (g * g + gp) / (w * w), 0.0)

    return EntropyGenerator(f"bump[{c:g},{w:g}]",
                            lambda v: smooth_bump((v - c) / w)[0],
                            lambda v: smooth_bump((v - c) / w)[1] / w, d2psi)


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

_EDGE = 1e-10  # kinks this close to s = +-1 are treated as outside
# node-doubling tolerance of pair_certified (relative, with a scale floor)
CERTIFY_RTOL = 1e-10
# pair_certified gives up when the next doubling would pass this many nodes
CERTIFY_MAX_NODES = 4096
# Gauss-Jacobi nodes of a kernel's default rules
KERNEL_NODES = 64


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

    def __init__(self, g: GasLaw, n_nodes: int):
        if g.lambda_exp <= -0.5:
            raise DomainError("kernel exponent must exceed -1/2")
        self.g = g
        self.lam = g.lambda_exp
        self.theta = g.theta
        self.n_default = int(n_nodes)
        self._rule = cache(gauss_jacobi)  # (n, a, b) -> (nodes, weights)

    def _pieces(self, ks: np.ndarray, n: int):
        """(S, W) for each piece between the breakpoints [-1, ks..., 1].

        ``ks`` (npts, k) holds each state's sorted interior kinks.  An end at
        +-1 keeps its factor (1 -+ s)^lam in the Jacobi rule, a kink end
        multiplies it into W.  Without kink ends S and W stay (npts, n)
        broadcast views: unbroadcast (n,) arrays slowed the sums 10-35 %.
        """
        npts, k = ks.shape
        lam = self.lam
        for j in range(k + 1):
            lo_kink, hi_kink = j > 0, j < k
            a = 0.0 if hi_kink else lam
            b = 0.0 if lo_kink else lam
            t, w = self._rule(n, a, b)
            lo = ks[:, j - 1:j] if lo_kink else -1.0
            hi = ks[:, j:j + 1] if hi_kink else 1.0
            half = 0.5 * (hi - lo)
            # a piece with one end at +-1 maps from that end: with a kink
            # near +-1, mid + half t rounded the moments 4-11x worse
            if lo_kink == hi_kink:
                S = 0.5 * (hi + lo) + half * t
            elif hi_kink:
                S = lo + half * (1.0 + t)
            else:
                S = hi - half * (1.0 - t)
            S = np.broadcast_to(S, (npts, n))
            W = half ** (1.0 + a + b) * w
            if lo_kink:
                W = W * (1.0 + S) ** lam
            if hi_kink:
                W = W * (1.0 - S) ** lam
            yield S, np.broadcast_to(W, (npts, n))

    def moments(self, gen: EntropyGenerator, rho_f: np.ndarray, m_f: np.ndarray,
                max_order: int = 0,
                n: Optional[int] = None) -> dict[tuple[int, int], np.ndarray]:
        """M[(j, k)] = int s^k psi^(j)(u + rho^theta s) (1-s^2)^lam ds per state.

        Takes flat state arrays and returns the moments the assembled
        quantities read: j <= max_order, k <= max(1, j).  Vacuum states
        (rho <= floor) contribute zero to every moment.  States are grouped
        by the kinks left of and inside their range u +- rho^theta: a group
        inside one polynomial piece takes exact sums of ``weight_moment``
        terms, every other group the Jacobi rules of ``_pieces``.
        """
        n = n or self.n_default
        if not (np.isfinite(rho_f).all() and np.isfinite(m_f).all()):
            raise DomainError("states must be finite")
        if np.any(rho_f < 0.0):
            raise DomainError("density must be nonnegative")
        out = {(j, k): np.zeros(rho_f.size)
               for j in range(max_order + 1) for k in range(max(1, j) + 1)}
        pos_idx, u, rt, S_k = self._kink_positions(gen, rho_f, m_f)
        if not pos_idx.size:
            return out
        nk = len(gen.kinks)
        if nk:
            # i0 kinks lie left of s = -1, i1 - i0 strictly inside (-1, 1)
            i0 = np.count_nonzero(S_k <= -1.0 + _EDGE, axis=1)
            key = i0 * (nk + 1) + np.count_nonzero(S_k < 1.0 - _EDGE, axis=1)
            groups = [(*divmod(int(code), nk + 1), np.flatnonzero(key == code))
                      for code in np.unique(key)]
        else:
            groups = [(0, 0, slice(None))]
        polys = [_derivatives(p) for p in gen.pieces]
        for i0, i1, sel in groups:
            uu, rr, idx = u[sel], rt[sel], pos_idx[sel]
            if i0 == i1 and polys:
                # psi^(j)(u + rt s) = sum_l psi^(j+l)(u) (rt s)^l / l!
                D = [np.polyval(d, uu) for d in polys[i0]]
                for j, k in out:
                    out[(j, k)][idx] = sum(
                        D[j + l] * (weight_moment(self.lam, l + k) / math.factorial(l))
                        * rr ** l for l in range(len(D) - j) if (l + k) % 2 == 0)
                continue
            for p, (S, W) in enumerate(self._pieces(S_k[sel, i0:i1], n), i0):
                V = uu[:, None] + rr[:, None] * S
                fns = ([partial(np.polyval, d) for d in polys[p] + [[0.0]] * 2]
                       if polys else (gen.psi, gen.dpsi, gen.d2psi))
                for j in range(max_order + 1):
                    PW = fns[j](V) * W
                    for k in range(max(1, j) + 1):
                        if k:
                            PW = PW * S
                        out[(j, k)][idx] += PW.sum(axis=1)
        return out

    def _kink_positions(self, gen, rho_f, m_f):
        """The states above the vacuum floor: their indices, u, rho^theta and
        each kink's position s = (kink - u) / rho^theta."""
        pos_idx = np.flatnonzero(rho_f > self.g.rho_floor)
        r = rho_f[pos_idx]
        u = m_f[pos_idx] / r
        rt = r ** self.theta
        S_k = (np.asarray(gen.kinks)[None, :] - u[:, None]) / rt[:, None]
        return pos_idx, u, rt, S_k

    # -- assembled quantities -------------------------------------------------
    def _assembled(self, gen, rho, m, max_order, n):
        """(eta, q), then (eta_rho, eta_m) and (eta_rr, eta_rm, eta_mm) up to
        max_order, by differentiating under the integral of one pass."""
        rf, mf, shape = _flat_states(rho, m)
        if max_order == 2 and np.any(rf <= self.g.rho_floor):
            raise DomainError("entropy Hessian needs rho above the vacuum floor")
        M = self.moments(gen, rf, mf, max_order, n)
        th = self.theta
        out = [rf * M[(0, 0)], mf * M[(0, 0)] + th * rf ** (1.0 + th) * M[(0, 1)]]
        if max_order:
            u = self.g.velocity(rf, mf)
            rt = rf ** th
            out += [M[(0, 0)] - u * M[(1, 0)] + th * rt * M[(1, 1)], M[(1, 0)]]
        if max_order == 2:
            out += [th * (1.0 + th) * rf ** (th - 1.0) * M[(1, 1)]
                    + (th * th * rt * rt * M[(2, 2)] - 2.0 * u * th * rt * M[(2, 1)]
                       + u * u * M[(2, 0)]) / rf,
                    (th * rt * M[(2, 1)] - u * M[(2, 0)]) / rf, M[(2, 0)] / rf]
        return _shaped(shape, *out)

    def pair(self, gen, rho, m, n: Optional[int] = None):
        """(eta, q) for one generator, vectorized over states of any shape."""
        return self._assembled(gen, rho, m, 0, n)

    def pair_grad(self, gen, rho, m):
        """(eta, q, eta_rho, eta_m) from one order-1 moment pass."""
        return self._assembled(gen, rho, m, 1, None)

    def hessian(self, gen, rho, m):
        """(eta_rr, eta_rm, eta_mm); states must be away from vacuum."""
        return self._assembled(gen, rho, m, 2, None)[4:]

    def pair_certified(self, gen, rho, m):
        """(eta, q) with a node-doubling certificate.

        Starts from the default node count, doubles until consecutive rules
        agree to CERTIFY_RTOL (relative, with a scale floor so symmetric
        zeros do not trip it), and returns the finer evaluation; past
        CERTIFY_MAX_NODES nodes it raises QuadratureError.  When every
        state's range u +- rho^theta lies inside one polynomial piece, the
        moments are exact and use no nodes, so they are evaluated once.
        """
        rf, mf, shape = _flat_states(rho, m)
        S_k = self._kink_positions(gen, rf, mf)[3]
        inside = (S_k > -1.0 + _EDGE) & (S_k < 1.0 - _EDGE)
        if gen.pieces and not inside.any():
            return self.pair(gen, rho, m)
        u = self.g.velocity(rf, mf)
        scale = rf * (1.0 + u * u + rf ** (2.0 * self.theta)) + 1e-300
        n = self.n_default
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


@lru_cache(maxsize=64)
def get_kernel(g: GasLaw, n_nodes: int = KERNEL_NODES) -> EntropyKernel:
    return EntropyKernel(g, n_nodes)


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

    def rho_bar(self, x):
        return self.state(x)[0]

    def u_bar(self, x):
        return self.state(x)[1]

    def m_bar(self, x):
        rho_bar, u_bar = self.state(x)
        return _match(x, np.asarray(rho_bar) * np.asarray(u_bar))


def relative_energy_density(g: GasLaw, ref: ReferenceState, x, rho, m):
    """The relative energy density (``GasLaw.relative_energy``) against the
    reference state at x."""
    out = g.relative_energy(rho, m, *ref.state(x))
    scalar = not (np.ndim(x) or np.ndim(rho) or np.ndim(m))
    return float(out) if scalar else np.asarray(out)


def quartic_entropy(g: GasLaw, rho, m):
    """eta for psi = s^4 (exact moments); controls rho u^4 + rho^(2 gamma - 1)."""
    eta, _ = get_kernel(g).pair(gen_quartic(), rho, m)
    return eta


# ---------------------------------------------------------------------------
# The flux-dominating shifted pair and its inequality battery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpecialPairReport:
    """Numerical survey of the shifted-pair inequalities on a state sample."""

    q_tilde_at_ref: float
    fitted: dict[str, float]
    margins: Optional[dict[str, float]]
    n_points: int


# Gauss-Jacobi nodes of the shifted pair's kernel (its generator has a kink)
SPECIAL_PAIR_NODES = 256


def _special_pair(g: GasLaw, ref: ReferenceState, rho_a, m_a):
    """Shifted-pair fields on flat states from two order-1 kernel passes.

    Returns (eta_check, q_check, eta_tilde, q_tilde, eta_check_rho,
    eta_check_m) on the states, then eta_check_m and q_tilde at the left far
    state (rho_minus, rho_minus * u_minus), where the linearization is
    taken.  The pair is built for the pure gamma-law pressure (the quadratic
    stiffener plays no role here).
    """
    g0 = GasLaw(g.gamma, g.kappa, 0.0)
    kern = get_kernel(g0, SPECIAL_PAIR_NODES)
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
                       M: Optional[float] = None) -> SpecialPairReport:
    """Fit/verify the growth and domination inequalities of the shifted pair.

    For each inequality the minimal constant that makes it hold on the given
    sample is fitted; if ``M`` is supplied, the worst margin (right side
    minus left side) at that constant is also reported.
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

    margins = None
    if M is not None:
        margins = {
            "eta_tilde_bound": float(np.min(M * G1 - np.abs(eta_t))),
            "q_tilde_growth": float(np.min(q_t - G2p / M + M * G2n)),
            "source_domination": float(np.min(M * (q_t + 1.0) - np.abs(source))),
            "eta_tilde_m_bound": float(np.min(M * (du + drt) - np.abs(eta_tm))),
            "m_eta_tilde_m_bound": float(np.min(
                M * (rho_a * du ** 2 + rho_a * drt ** 2 + rho_a)
                - np.abs(m_a * eta_tm))),
        }
    return SpecialPairReport(q_tilde_at_ref=q_t_ref, fitted=fitted,
                             margins=margins, n_points=rho_a.size)
