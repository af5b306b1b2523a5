"""Polytropic gas law with a quadratic stiffener and derived wave quantities.

The pressure is p(rho) = kappa * rho^gamma + delta * rho^2.  The quadratic
term (delta > 0) keeps the parabolic runs away from vacuum and is sent to
zero together with the viscosity.  With the normalized kappa the integrated
wave variable R(rho) collapses to rho^theta, which several closed-form
checks rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicHermiteSpline

from .errors import DomainError, QuadratureError

RHO_FLOOR = 1e-12


def default_kappa(gamma: float) -> float:
    """Normalized pressure constant (gamma-1)^2 / (4 gamma)."""
    return (gamma - 1.0) ** 2 / (4.0 * gamma)


def _match(x, out):
    return out if np.ndim(x) else float(out)


@dataclass(frozen=True)
class GasLaw:
    """gamma-law gas with optional quadratic pressure modification.

    kappa defaults to the normalization that makes R(rho) = rho^theta exact
    when delta = 0 (any negative kappa selects it); override it for physical
    units at the cost of those closed forms.  Densities at or below the
    vacuum floor ``rho_floor`` count as vacuum.
    """

    gamma: float
    kappa: float = -1.0
    delta: float = 0.0
    rho_floor = RHO_FLOOR     # class constant, not a field

    def __post_init__(self):
        if not 1.0 < self.gamma < np.inf:
            raise DomainError(f"gamma must be finite and > 1, got {self.gamma}")
        if self.kappa < 0.0:
            object.__setattr__(self, "kappa", default_kappa(self.gamma))
        if not 0.0 < self.kappa < np.inf:
            raise DomainError(f"kappa must be finite and > 0, got {self.kappa}")
        if not 0.0 <= self.delta < np.inf:
            raise DomainError(f"delta must be finite and >= 0, got {self.delta}")

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
        if np.any(r < 0.0):
            raise DomainError("density must be nonnegative")
        return r

    def pressure(self, rho):
        r = self._rho(rho)
        return _match(rho, self.kappa * r ** self.gamma + self.delta * r * r)

    def pressure_gamma(self, rho):
        """Pure gamma-law part kappa * rho^gamma (no quadratic term)."""
        r = self._rho(rho)
        return _match(rho, self.kappa * r ** self.gamma)

    def _p_prime(self, r):
        return self.kappa * self.gamma * r ** (self.gamma - 1.0) + 2.0 * self.delta * r

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
    def _r_integrand_log(self, y: float) -> float:
        return np.sqrt(self._p_prime(np.exp(y)))

    def _riemann_quad(self, rho: float) -> float:
        if rho <= 0.0:
            return 0.0
        # log substitution removes the s -> 0 endpoint; below the cutoff the
        # integrand decays at least like exp(min(theta, 1/2) y)
        hi = np.log(rho)
        lo = hi - 45.0 / min(self.theta, 0.5)
        val, _ = quad(self._r_integrand_log, lo, hi,
                      epsabs=1e-13, epsrel=1e-12, limit=400)
        return val

    @cached_property
    def _riemann_table(self) -> CubicHermiteSpline:
        """Cubic Hermite interpolant of log R in log rho (delta > 0 runs).

        The slopes are exact, d log R / d log rho = sqrt(p'(rho)) / R.  log R
        is asymptotically linear in log rho in both power-law regimes, so the
        interpolation error concentrates in the crossover zone; against
        40-digit quadrature on 400 points of [2e-9, 5e3] (delta = 1e-4) the
        worst relative error is 1.5e-15 at gamma 2, 6.5e-10 at 5, 1.9e-8
        at 10, 1.7e-6 at 40 and 1.9e-5 at 77.
        """
        nodes = np.geomspace(1e-9, 1e4, 1536)
        y = np.log(nodes)
        vals = np.empty_like(nodes)
        vals[0] = self._riemann_quad(nodes[0])
        for k in range(1, len(nodes)):
            seg, _ = quad(self._r_integrand_log, y[k - 1], y[k],
                          epsabs=1e-13, epsrel=1e-12, limit=200)
            vals[k] = vals[k - 1] + seg
        if not np.all(np.isfinite(vals)):
            raise QuadratureError(
                f"wave-variable table overflows for gamma = {self.gamma:g}: "
                f"R(rho) is not finite on [{nodes[0]:g}, {nodes[-1]:g}]")
        table = CubicHermiteSpline(y, np.log(vals),
                                   np.sqrt(self._p_prime(nodes)) / vals,
                                   extrapolate=False)
        probe = np.geomspace(3e-9, 3e3, 13)
        for r in probe:
            exact = self._riemann_quad(r)
            if abs(np.exp(float(table(np.log(r)))) - exact) > 1e-7 * (1.0 + exact):
                raise QuadratureError("wave-variable table failed its tolerance check")
        return table

    def riemann_R(self, rho):
        """R(rho) = int_0^rho sqrt(p'(s))/s ds via adaptive quadrature.

        Closed form rho^theta * sqrt(kappa gamma)/theta when delta = 0;
        otherwise one adaptive quadrature per point (absolute tolerance
        1e-10 class).  Use riemann_R_table for bulk grid evaluation.
        """
        r = self._rho(rho)
        if self.delta == 0.0:
            coeff = np.sqrt(self.kappa * self.gamma) / self.theta
            return _match(rho, coeff * r ** self.theta)
        flat = np.atleast_1d(r).ravel()
        out = np.array([self._riemann_quad(float(s)) for s in flat])
        out = out.reshape(np.shape(r))
        return _match(rho, out)

    def riemann_R_table(self, rho):
        """Vectorized R via the cached Hermite table (relative error below 1e-7
        for gamma <= 10 at delta = 1e-4; see ``_riemann_table``)."""
        r = self._rho(rho)
        if self.delta == 0.0:
            return self.riemann_R(rho)
        table = self._riemann_table
        flat = np.atleast_1d(np.asarray(r, dtype=float))
        lo, hi = 1e-9, 1e4
        clipped = np.clip(flat, lo, hi)
        out = np.exp(np.asarray(table(np.log(clipped)), dtype=float))
        small = flat < lo
        out[small] *= 0.0  # R(rho < 1e-9) is below the table resolution anyway
        big = flat > hi
        if np.any(big):
            out[big] = [self._riemann_quad(float(s)) for s in flat[big]]
        out = out.reshape(np.shape(r))
        return _match(rho, out)

    def riemann_invariants(self, rho, u):
        """w = u + R(rho), z = u - R(rho); requires rho > 0."""
        r = self._rho(rho)
        if np.any(r <= 0.0):
            raise DomainError("Riemann invariants need strictly positive density")
        R = self.riemann_R_table(r) if self.delta > 0.0 else self.riemann_R(r)
        ua = np.asarray(u, dtype=float)
        w = ua + R
        z = ua - R
        if np.ndim(rho) or np.ndim(u):
            return w, z
        return float(w), float(z)

    def velocity(self, rho, m):
        """u = m / rho with the vacuum guard: u = 0 wherever rho <= rho_floor."""
        r = np.asarray(rho, dtype=float)
        ma = np.asarray(m, dtype=float)
        out = np.where(r > self.rho_floor, ma / np.maximum(r, self.rho_floor), 0.0)
        return out if (np.ndim(rho) or np.ndim(m)) else float(out)

    def relative_energy(self, rho, m, rho_bar, u_bar):
        """rho|u - u_bar|^2/2 + h(rho) - h(rho_bar) - h'(rho_bar)(rho - rho_bar) >= 0,
        the relative mechanical energy density against (rho_bar, u_bar)."""
        r = self._rho(rho)
        kinetic = np.where(r > self.rho_floor,
                           0.5 * r * (self.velocity(r, m) - u_bar) ** 2, 0.0)
        return (kinetic + self.h_delta(r) - self.h_delta(rho_bar)
                - self.h_delta_prime(rho_bar) * (r - rho_bar))
