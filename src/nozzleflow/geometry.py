"""Cross-sectional area functions A(x) and their admissibility checks.

The solver accepts any strictly positive C^2 area function.  Builtin shapes
cover constant ducts, Gaussian bumps, algebraically closing ends,
exponential horns, and the spherical weight omega_n * x^(n-1).  Arbitrary
profiles come in as two-column tables and are interpolated with the
not-a-knot cubic spline so that A'/A stays smooth.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
import numpy as np
from scipy.linalg.lapack import dgtsv

from .checks import Check, Report
from .errors import ConfigError, DomainError


def unit_sphere_area(n: int) -> float:
    """Surface area of the unit sphere in R^n (4*pi for n=3)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


# uniform samples per interval for the admissibility checks and certificates
N_SAMPLES = 10_000


def sample_interval(a: float, b: float) -> np.ndarray:
    """N_SAMPLES uniform samples of [a, b] plus geometric refinement toward
    both ends."""
    base = np.linspace(a, b, N_SAMPLES)
    span = b - a
    tails = span * np.geomspace(1e-12, 1e-1, 23)
    pts = np.concatenate([base, a + tails, b - tails])
    return np.unique(np.clip(pts, a, b))


class NozzleProfile:
    """Base class; subclasses provide A, A', A'', the domain and ``name``,
    the profile's config-file name."""

    name: str
    xmin: float = -math.inf
    xmax: float = math.inf
    # (1.3a), (1.3b): |A'/A| globally bounded with A' in L^1 on the left and
    # on the right half-line (a table is taken to hold both on its window)
    half_line_integrable: tuple[bool, bool] = (True, True)

    # -- raw shape callbacks (no domain checks) ----------------------------
    def _area(self, x):
        raise NotImplementedError

    def _d_area(self, x):
        raise NotImplementedError

    def _dd_area(self, x):
        raise NotImplementedError

    def _dlog(self, x):
        return self._d_area(x) / self._area(x)

    def _dlog_prime(self, x):
        a = self._area(x)
        g = self._d_area(x) / a
        return self._dd_area(x) / a - g * g

    # -- public evaluations -------------------------------------------------
    def _check_domain(self, x) -> np.ndarray:
        xa = np.asarray(x, dtype=float)
        bad = (self.xmin > -math.inf and np.any(xa <= self.xmin)) or \
              (self.xmax < math.inf and np.any(xa >= self.xmax))
        if bad:
            raise DomainError(
                f"{self.name} profile evaluated outside its domain "
                f"({self.xmin}, {self.xmax})")
        return xa

    def _eval(self, fn, x):
        """fn on the domain-checked nodes: a float for a scalar x.  A
        parameter whose values overflow the float range is a DomainError;
        a NaN or an infinity that arises from an underflowed area or an
        infinite parameter is returned, without a numpy warning, for the
        caller's checks to fail on."""
        try:
            with np.errstate(over="raise", invalid="ignore", divide="ignore"):
                out = fn(self._check_domain(x))
        except (OverflowError, FloatingPointError) as err:
            raise DomainError(f"{self!r} leaves the float range: {err}") from None
        return out if np.ndim(x) else float(out)

    def area(self, x):
        return self._eval(self._area, x)

    def d_area(self, x):
        return self._eval(self._d_area, x)

    def dd_area(self, x):
        return self._eval(self._dd_area, x)

    def dlog(self, x):
        """A'(x)/A(x)."""
        return self._eval(self._dlog, x)

    def dlog_prime(self, x):
        """(A'/A)'(x) = A''/A - (A'/A)^2."""
        return self._eval(self._dlog_prime, x)

    # -- admissibility -------------------------------------------------------
    def validate_conditions(self, interval) -> Report:
        """Admissibility of A on ``sample_interval`` of the interval: the
        series ``x``, ``A`` and ``dlog`` (A'/A) and one check per condition.
        (1.3a) and (1.3b) read ``half_line_integrable`` (value 0 when the
        fact holds, 1 when not); (1.4)-(1.5) checks -A_0, A_0 the least
        sampled area, against minus the least positive float, so it passes
        when A_0 > 0, with a NaN value when A, A' or A'' is not finite."""
        a, b = float(interval[0]), float(interval[1])
        if not (a < b):
            raise DomainError(f"invalid interval [{a}, {b}]")
        if a <= self.xmin or b >= self.xmax:
            raise DomainError(f"interval [{a}, {b}] leaves the profile domain")
        xs = sample_interval(a, b)
        area = self._area(xs)
        finite = all(np.all(np.isfinite(v))
                     for v in (area, self._d_area(xs), self._dd_area(xs)))
        left, right = self.half_line_integrable
        return Report(
            series={"x": xs, "A": area, "dlog": self._dlog(xs)},
            checks={"13a_left_half_line": Check(not left, 0.0),
                    "13b_right_half_line": Check(not right, 0.0),
                    "14_15_area_bounds": Check(
                        -np.min(area) if finite else math.nan, -math.ulp(0.0))},
            label=f"[{a:g}, {b:g}]")


@dataclass(frozen=True)
class ConstantProfile(NozzleProfile):
    value: float = 1.0
    name = "constant"

    def __post_init__(self):
        if self.value <= 0:
            raise ConfigError("constant area must be positive")

    def _area(self, x):
        return np.full_like(x, self.value, dtype=float)

    def _d_area(self, x):
        return np.zeros_like(x, dtype=float)

    def _dd_area(self, x):
        return np.zeros_like(x, dtype=float)


@dataclass(frozen=True)
class GaussianBumpProfile(NozzleProfile):
    """A(x) = 1 + amp * exp(-rate * x^2)."""

    amp: float = 1.0
    rate: float = 1.0
    name = "gaussian_bump"

    def __post_init__(self):
        if self.rate <= 0 or self.amp <= -1.0:
            raise ConfigError("gaussian bump needs rate > 0, amp > -1")

    def _area(self, x):
        return 1.0 + self.amp * np.exp(-self.rate * x * x)

    def _d_area(self, x):
        return -2.0 * self.rate * x * self.amp * np.exp(-self.rate * x * x)

    def _dd_area(self, x):
        e = self.amp * np.exp(-self.rate * x * x)
        return e * (4.0 * self.rate ** 2 * x * x - 2.0 * self.rate)


@dataclass(frozen=True)
class PowerLawClosingProfile(NozzleProfile):
    """A(x) = (1 + x^2)^(-alpha): both ends close algebraically."""

    alpha: float = 1.0
    name = "power_law_closing"

    def __post_init__(self):
        if self.alpha <= 0:
            raise ConfigError("power-law closing needs alpha > 0")

    def _area(self, x):
        return (1.0 + x * x) ** (-self.alpha)

    def _d_area(self, x):
        return -2.0 * self.alpha * x * (1.0 + x * x) ** (-self.alpha - 1.0)

    def _dd_area(self, x):
        # d/dx of -2 a x (1+x^2)^(-a-1)
        return (-2.0 * self.alpha * (1.0 + x * x) ** (-self.alpha - 2.0)
                * (1.0 - (2.0 * self.alpha + 1.0) * x * x))

    # closed forms: A'/A from the raw area fails where A underflows
    def _dlog(self, x):
        return -2.0 * self.alpha * x / (1.0 + x * x)

    def _dlog_prime(self, x):
        return -2.0 * self.alpha * (1.0 - x * x) / (1.0 + x * x) ** 2


@dataclass(frozen=True)
class ExponentialProfile(NozzleProfile):
    """A(x) = exp(rate * x): unbounded at one end, closing at the other."""

    rate: float = 1.0
    name = "exponential"

    def _area(self, x):
        return np.exp(self.rate * x)

    def _d_area(self, x):
        return self.rate * np.exp(self.rate * x)

    def _dd_area(self, x):
        return self.rate ** 2 * np.exp(self.rate * x)

    def _dlog(self, x):
        return np.full_like(x, self.rate, dtype=float)

    def _dlog_prime(self, x):
        return np.zeros_like(x, dtype=float)

    @property
    def half_line_integrable(self):
        # A' = rate A is integrable where A closes
        return self.rate >= 0, self.rate <= 0


@dataclass(frozen=True)
class SphericalProfile(NozzleProfile):
    """A(x) = omega_n x^(n-1) on x > 0, omega_n the unit-sphere area."""

    n_dim: int = 3
    name = "spherical"
    xmin = 0.0
    half_line_integrable = (False, False)  # A'/A = (n-1)/x blows up at 0

    def __post_init__(self):
        if self.n_dim < 2:
            raise ConfigError("spherical profile needs dimension n >= 2")

    @cached_property
    def omega_n(self) -> float:
        return unit_sphere_area(self.n_dim)

    def _area(self, x):
        return self.omega_n * x ** (self.n_dim - 1)

    def _d_area(self, x):
        return self.omega_n * (self.n_dim - 1) * x ** (self.n_dim - 2)

    def _dd_area(self, x):
        n = self.n_dim
        return self.omega_n * (n - 1) * (n - 2) * x ** (n - 3)

    def _dlog(self, x):
        return (self.n_dim - 1) / x

    def _dlog_prime(self, x):
        return -(self.n_dim - 1) / (x * x)


def _finite_column(name: str, values) -> np.ndarray:
    """A table column as floats; a ConfigError naming the column if an entry
    is NaN or infinite."""
    col = np.asarray(values, dtype=float)
    bad = np.flatnonzero(~np.isfinite(col))
    if bad.size:
        raise ConfigError(f"tabulated {name} column holds a non-finite value "
                          f"({col.flat[bad[0]]:g} in data row {bad[0] + 1})")
    return col


def _not_a_knot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients (c3, c2, c1, c0), one column per interval, of the
    not-a-knot cubic spline through (x, y), len(x) >= 4 (de Boor 1978,
    ch. IV).  The knot slopes solve one tridiagonal system; the system and
    the coefficients are formed as scipy's CubicSpline forms them, so the
    two agree bit for bit."""
    dx = np.diff(x)
    slope = np.diff(y) / dx
    lower, diag, upper = np.empty(x.size - 1), np.empty(x.size), np.empty(x.size - 1)
    rhs = np.empty(x.size)
    diag[1:-1] = 2 * (dx[:-1] + dx[1:])
    lower[:-1], upper[1:] = dx[1:], dx[:-1]
    rhs[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    d = x[2] - x[0]  # the first two intervals share one cubic
    diag[0], upper[0] = dx[1], d
    rhs[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
    d = x[-1] - x[-3]  # and so do the last two
    diag[-1], lower[-1] = dx[-2], d
    rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    *_, s, info = dgtsv(lower, diag, upper, rhs)
    if info != 0:
        raise ConfigError(f"tabulated spline system is singular (gtsv info={info})")
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))


@dataclass(frozen=True, eq=False)
class TabulatedProfile(NozzleProfile):
    """Not-a-knot cubic-spline interpolant of (x, A) samples; derivatives come
    from the spline.  Two tables are equal only when they are the same
    object."""

    x_samples: np.ndarray
    a_samples: np.ndarray
    name = "tabulated"

    def __post_init__(self):
        xs = _finite_column("x", self.x_samples)
        As = _finite_column("A", self.a_samples)
        if xs.ndim != 1 or xs.size < 4 or As.shape != xs.shape:
            raise ConfigError("tabulated profile needs >= 4 matching (x, A) samples")
        if np.any(np.diff(xs) <= 0):
            raise ConfigError("tabulated x samples must be strictly increasing")
        if np.any(As <= 0):
            raise ConfigError("tabulated areas must be strictly positive")
        object.__setattr__(self, "x_samples", xs)
        object.__setattr__(self, "a_samples", As)
        object.__setattr__(self, "_coef", _not_a_knot(xs, As))
        object.__setattr__(self, "xmin", float(xs[0]))
        object.__setattr__(self, "xmax", float(xs[-1]))
        if np.any(self._area(np.linspace(xs[0], xs[-1], 4 * xs.size)) <= 0):
            raise ConfigError("tabulated area interpolant dips below zero")

    def _check_domain(self, x):
        xa = np.asarray(x, dtype=float)
        if np.any(xa < self.xmin) or np.any(xa > self.xmax):
            raise DomainError(
                f"tabulated profile evaluated outside [{self.xmin}, {self.xmax}]")
        return xa

    def _piece(self, x):
        """Each node's interval coefficients and its offset from the
        interval's left knot; the last knot takes the last interval."""
        knots = self.x_samples
        i = np.clip(np.searchsorted(knots, x, side="right") - 1, 0, knots.size - 2)
        return self._coef[:, i], x - knots[i]

    # the powers are summed from low order up, as scipy's PPoly sums them
    # (Horner's rule differs from it in the last bit)
    def _area(self, x):
        (c3, c2, c1, c0), z = self._piece(x)
        return c0 + c1 * z + c2 * (z * z) + c3 * (z * z * z)

    def _d_area(self, x):
        (c3, c2, c1, _), z = self._piece(x)
        return c1 + c2 * z * 2 + c3 * (z * z) * 3

    def _dd_area(self, x):
        (c3, c2, _, _), z = self._piece(x)
        return c2 * 2 + c3 * z * 6

    @classmethod
    def from_columns(cls, x, a, d_a=None, dd_a=None) -> "TabulatedProfile":
        """Build from sample columns, validating optional derivative columns.

        Supplied A' and A'' columns must be finite and match the spline's own
        A' and A'' at the interior knots to h_max^2 times a scale, h_max the
        widest row spacing.  The scale is max(1, |column|, |the derivative
        two orders up|) over the spline (A''' from its cubic coefficients,
        A'''' from their jumps per spacing), the sizes that the spline's
        error and a centered difference's grow with.  The columns are then
        discarded: the solver needs the spline's C^2 derivatives.
        """
        prof = cls(x_samples=x, a_samples=a)
        h = np.diff(prof.x_samples)
        d3 = 6.0 * prof._coef[0]
        d4 = np.diff(d3) / (0.5 * (h[:-1] + h[1:]))
        knots = prof.x_samples[1:-1]
        for name, col, spline, higher in (("A'", d_a, prof._d_area, d3),
                                          ("A''", dd_a, prof._dd_area, d4)):
            if col is None:
                continue
            col, own = _finite_column(name, col), spline(knots)
            scale = max(1.0, np.max(np.abs(own)), np.max(np.abs(higher)))
            tol = h.max() ** 2 * scale
            if np.max(np.abs(col[1:-1] - own)) > tol:
                raise ConfigError(f"supplied {name} samples disagree with the "
                                  f"spline's {name} beyond {tol:.3g} "
                                  "(h_max^2 times their scale)")
        return prof

    @classmethod
    def from_file(cls, path) -> "TabulatedProfile":
        """Read a whitespace-delimited (x, A[, A'[, A'']]) table; '#' comments."""
        with warnings.catch_warnings():
            # an empty table is refused below, with its own message
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            try:
                data = np.loadtxt(path, comments="#", ndmin=2)
            except ValueError as err:
                raise ConfigError(f"{path}: not a numeric table: {err}") from None
        if data.size == 0:
            raise ConfigError(f"{path}: the table has no rows")
        if data.shape[1] < 2:
            raise ConfigError(f"{path}: need at least two columns (x, A)")
        cols = [data[:, i] for i in range(min(data.shape[1], 4))]
        try:
            return cls.from_columns(*cols)
        except ConfigError as err:
            raise ConfigError(f"{path}: {err}") from None


# config-file name -> profile class
PROFILES = {cls.name: cls for cls in (
    ConstantProfile, GaussianBumpProfile, PowerLawClosingProfile,
    ExponentialProfile, SphericalProfile, TabulatedProfile)}


def make_profile(name: str, **params) -> NozzleProfile:
    """Construct a profile from its config-file name and parameters."""
    cls = PROFILES.get(name)
    if cls is None:
        raise ConfigError(f"unknown profile kind {name!r}")
    if cls is TabulatedProfile:
        path = params.get("file")
        if path is None:
            raise ConfigError("tabulated profile needs file=<path>")
        return TabulatedProfile.from_file(path)
    return cls(**params)
