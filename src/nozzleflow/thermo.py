"""Polytropic gas law with a quadratic stiffener and derived wave quantities.

The pressure is p(rho) = kappa * rho^gamma + delta * rho^2.  The quadratic
term (delta > 0) keeps the parabolic runs away from vacuum and is sent to
zero together with the viscosity.  With the normalized kappa the integrated
wave variable R(rho) collapses to rho^theta; at gamma = 2 it is a power of
rho for every delta.  Otherwise log R is tabulated in y = log rho with numpy
only (one Gauss-Legendre rule per segment, summed by np.logaddexp), for
every gamma in (1, inf) up to the density where p' leaves the float range.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import DomainError, QuadratureError

RHO_FLOOR = 1e-12
WAVE_SEGMENTS = 4096      # uniform segments of the log R table in y = log rho
WAVE_POINTS = 4           # Gauss-Legendre points per segment
_LOG_HALF_MAX = float(np.log(np.finfo(float).max / 2.0))


def default_kappa(gamma: float) -> float:
    """Normalized pressure constant (gamma-1)^2 / (4 gamma)."""
    return (gamma - 1.0) ** 2 / (4.0 * gamma)


def _match(x, out):
    return out if np.ndim(x) else float(out)


@cache
def _gauss_legendre(q: int):
    """Nodes and weights of the q-point Gauss-Legendre rule; numpy.polynomial
    loads on the first call, which only ``_riemann_R``'s quadrature makes."""
    from numpy.polynomial.legendre import leggauss
    return leggauss(q)


@dataclass(frozen=True)
class GasLaw:
    """gamma-law gas with optional quadratic pressure modification.

    kappa defaults to the normalization that makes R(rho) = rho^theta exact
    when delta = 0 (any negative kappa selects it); override it for physical
    units at the cost of those closed forms.  Densities at or below the
    vacuum floor ``rho_floor`` count as vacuum.

    The public methods reject a negative density (DomainError) and then call
    the unchecked kernels ``_pressure``, ``_p_prime``, ``_velocity`` and
    ``_riemann_R``, which own the formulas.  The solver calls the kernels
    directly on float arrays it has clamped at 0 or rho_floor, where the
    check cannot fail, so a step pays no validation.  The first three take
    their coefficients as 0-d arrays, which numpy converts faster than floats.
    """

    gamma: float
    kappa: float = -1.0
    delta: float = 0.0
    rho_floor = RHO_FLOOR     # class constant, not a field
    _floor, _zero = np.array(RHO_FLOOR), np.array(0.0)   # as 0-d operands

    def __post_init__(self):
        if not 1.0 < self.gamma < np.inf:
            raise DomainError(f"gamma must be finite and > 1, got {self.gamma}")
        if self.kappa < 0.0:
            try:
                object.__setattr__(self, "kappa", default_kappa(self.gamma))
            except OverflowError:
                raise DomainError(f"gamma = {self.gamma} leaves the default "
                                  "kappa outside the float range") from None
        if not 0.0 < self.kappa < np.inf:
            raise DomainError(f"kappa must be finite and > 0, got {self.kappa}")
        if not 0.0 <= self.delta < np.inf:
            raise DomainError(f"delta must be finite and >= 0, got {self.delta}")
        # the kernels' coefficients; kappa * gamma and 2 delta are the
        # products the formulas evaluate first
        for name, value in (("_kappa", self.kappa), ("_delta", self.delta),
                            ("_kappa_gamma", self.kappa * self.gamma),
                            ("_two_delta", 2.0 * self.delta)):
            object.__setattr__(self, name, np.array(value))

    # -- derived exponents ---------------------------------------------------
    @property
    def theta(self) -> float:
        return (self.gamma - 1.0) / 2.0

    @property
    def lambda_exp(self) -> float:
        """Kernel weight exponent (3 - gamma) / (2 (gamma - 1)); always > -1/2."""
        return (3.0 - self.gamma) / (2.0 * (self.gamma - 1.0))

    # -- pressure family -----------------------------------------------------
    def _rho(self, rho) -> np.ndarray:
        r = np.asarray(rho, dtype=float)
        if (r < 0.0).any():
            raise DomainError("density must be nonnegative")
        return r

    def _pressure(self, r):
        return self._kappa * r ** self.gamma + self._delta * r * r

    def pressure(self, rho):
        return _match(rho, self._pressure(self._rho(rho)))

    def pressure_gamma(self, rho):
        """Pure gamma-law part kappa * rho^gamma (no quadratic term)."""
        r = self._rho(rho)
        return _match(rho, self.kappa * r ** self.gamma)

    def _p_prime(self, r):
        return self._kappa_gamma * r ** (self.gamma - 1.0) + self._two_delta * r

    def pressure_prime(self, rho):
        return _match(rho, self._p_prime(self._rho(rho)))

    def sound_speed(self, rho):
        return _match(rho, np.sqrt(self._p_prime(self._rho(rho))))

    # -- internal energy -----------------------------------------------------
    def h_delta(self, rho):
        """h(rho) = rho * int_0^rho p(s)/s^2 ds = kappa rho^gamma/(gamma-1) + delta rho^2."""
        r = self._rho(rho)
        return _match(rho, self.kappa * r ** self.gamma / (self.gamma - 1.0)
                      + self.delta * r * r)

    def e_delta(self, rho):
        """Specific internal energy h(rho)/rho, extended by 0 at vacuum."""
        r = self._rho(rho)
        return _match(rho, self.kappa * r ** (self.gamma - 1.0) / (self.gamma - 1.0)
                      + self.delta * r)

    def h_delta_prime(self, rho):
        r = self._rho(rho)
        return _match(rho, self.kappa * self.gamma * r ** (self.gamma - 1.0)
                      / (self.gamma - 1.0) + 2.0 * self.delta * r)

    def h_delta_second(self, rho):
        """h''(rho) = p'(rho)/rho = kappa gamma rho^(gamma-2) + 2 delta."""
        r = self._rho(rho)
        return _match(rho, self.kappa * self.gamma * r ** (self.gamma - 2.0)
                      + 2.0 * self.delta)

    # -- wave variable R and invariants ---------------------------------------
    def _log_integrand(self, y):
        """log sqrt(p'(e^y)), the integrand of R in y = log rho, without overflow."""
        return 0.5 * np.logaddexp(np.log(self.kappa * self.gamma) + (self.gamma - 1.0) * y,
                                  np.log(2.0 * self.delta) + y)

    @staticmethod
    def _gauss_rule(a, b, q):
        """(half-widths, nodes, weights) of the q-point Gauss-Legendre rule on [a, b]."""
        x, w = _gauss_legendre(q)
        half = 0.5 * (b - a)
        return half, (a + half)[..., None] + half[..., None] * x, w

    @cached_property
    def _wave_table(self) -> tuple:
        """(y0, h, rho_end, s0, log R at y = y0 + h k for k = 0 .. WAVE_SEGMENTS).

        The table ends where rho or a term of p'(e^y) reaches half the largest
        float.  It starts where the smaller term is below e^-69 of the larger,
        or 80 e-folds below rho_floor if that is higher; below it, log R has
        the larger term's slope s0.  The table built with twice WAVE_POINTS
        per segment must agree with it on every node.
        """
        lk, l2d = np.log(self.kappa * self.gamma), np.log(2.0 * self.delta)
        gap = self.gamma - 2.0
        y0 = np.log(self.rho_floor) - 80.0
        if gap:
            y0 = max(y0, (-69.0 - np.sign(gap) * (lk - l2d)) / abs(gap))
        y_end = min((_LOG_HALF_MAX - lk) / (self.gamma - 1.0), _LOG_HALF_MAX - max(l2d, 0.0))
        h = (y_end - y0) / WAVE_SEGMENTS
        y = y0 + h * np.arange(WAVE_SEGMENTS + 1)
        s0 = 0.5 * min(self.gamma - 1.0, 1.0)   # p'(rho) ~ rho^(2 s0) as rho -> 0
        tables = []
        for q in (WAVE_POINTS, 2 * WAVE_POINTS):
            half, nodes, w = self._gauss_rule(y[:-1], y[1:], q)
            seg = np.log(half) + np.logaddexp.reduce(
                self._log_integrand(nodes) + np.log(w), axis=-1)
            tables.append(np.logaddexp.accumulate(
                np.append(self._log_integrand(y0) - np.log(s0), seg)))
        diff = np.max(np.abs(tables[0] - tables[1]) / (1.0 + np.abs(tables[1])))
        if not diff <= 1e-14:
            raise QuadratureError(
                f"wave-variable table for gamma = {self.gamma:g}: the {WAVE_POINTS}- "
                f"and {2 * WAVE_POINTS}-point rules differ by {diff:.2g} in log R")
        return y0, h, np.exp(y_end), s0, tables[0]

    def riemann_R(self, rho):
        """R(rho) = int_0^rho sqrt(p'(s))/s ds, the wave variable.

        Closed form sqrt(kappa gamma + 2 delta)/theta rho^theta when delta = 0 or
        gamma = 2; otherwise ``_wave_table``'s value at the node below log rho
        plus one Gauss-Legendre sub-segment (relative error against 30-digit
        quadrature below 7e-14 up to gamma 77, 2.6e-13 at 100 and 300, where
        log R nears 300).  A density beyond the table's end raises DomainError.
        """
        return _match(rho, self._riemann_R(self._rho(rho)))

    def _riemann_R(self, r):
        if self.delta == 0.0 or self.gamma == 2.0:   # builds no wave table
            return np.sqrt(self._kappa_gamma + self._two_delta) / self.theta * r ** self.theta
        return self._table_R(r)

    def _table_R(self, r):
        y0, h, rho_end, s0, table = self._wave_table
        beyond = r > rho_end
        if beyond.any():
            raise DomainError(
                f"rho = {np.max(r[beyond]):g} is beyond the wave-variable table's "
                f"end {rho_end:.6g} at gamma = {self.gamma:g}, where p'(rho) leaves "
                "the float range")
        y = np.log(np.where(r == 0.0, 1.0, r))
        k = np.fmin(np.fmax(np.floor((y - y0) / h), 0.0), WAVE_SEGMENTS).astype(np.intp)
        # below the table: slope s0 from its first node and an empty sub-segment
        base = table[k] + s0 * np.minimum(y - y0, 0.0)
        half, nodes, w = self._gauss_rule(np.minimum(y0 + h * k, y), y, WAVE_POINTS)
        terms = np.exp(self._log_integrand(nodes) - base[..., None]) * w
        R = np.exp(base) * (1.0 + half * terms.sum(axis=-1))
        return np.where(r == 0.0, 0.0, R)

    def riemann_invariants(self, rho, u):
        """w = u + R(rho), z = u - R(rho); requires rho > 0."""
        r = np.asarray(rho, dtype=float)
        if (r <= 0.0).any():
            raise DomainError("Riemann invariants need strictly positive density")
        R, ua = self._riemann_R(r), np.asarray(u, dtype=float)
        w, z = ua + R, ua - R
        return (w, z) if np.ndim(rho) or np.ndim(u) else (float(w), float(z))

    def _velocity(self, r, m):
        return np.where(r > self._floor, m / np.maximum(r, self._floor), self._zero)

    def velocity(self, rho, m):
        """u = m / rho with the vacuum guard: u = 0 wherever rho <= rho_floor."""
        out = self._velocity(np.asarray(rho, dtype=float), np.asarray(m, dtype=float))
        return out if (np.ndim(rho) or np.ndim(m)) else float(out)

    def relative_energy(self, rho, m, rho_bar, u_bar):
        """rho|u - u_bar|^2/2 + h(rho) - h(rho_bar) - h'(rho_bar)(rho - rho_bar) >= 0,
        the relative mechanical energy density against (rho_bar, u_bar)."""
        r = self._rho(rho)
        kinetic = np.where(r > self.rho_floor,
                           0.5 * r * (self.velocity(r, m) - u_bar) ** 2, 0.0)
        return (kinetic + self.h_delta(r) - self.h_delta(rho_bar)
                - self.h_delta_prime(rho_bar) * (r - rho_bar))
