"""Coupled small-viscosity parameter ladders and their certificates.

A ladder couples the viscosity eps_k to the pressure stiffener
delta = eps^q and to the expanding domain (a, b).  The certificate checks,
for every rung, the sampled sup-norm combinations that must stay below a
single budget M for the a-priori bounds to be uniform in eps.  Duct
geometries use the six general-area combinations; the spherical weight
omega_n x^(n-1) with a = eps -> 0 instead satisfies its own constraint
rho_bar^gamma b^n + (delta/eps) b^n <= M, which the certificate checks in
that mode (the general-area combinations involving (A'/A)' diverge toward
the axis and do not apply there).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .checks import Check, Report
from .entropy import BLEND_HALF_WIDTH
from .errors import ConfigError
from .geometry import NozzleProfile, SphericalProfile, sample_interval
from .thermo import GasLaw

# the exponent beta of the certificate quantity delta_inv_eps_area_abeta,
# (delta/eps) sup A |a|^beta sup A^((gamma-3)/(gamma-1))
BETA = 4.0
# the delta exponent q of every config's ladder, and the first q make_default
# tries: the aggressive delta = eps^(1 + beta)
Q_LADDER = 1.0 + BETA
# the default budget M that every certificate quantity must stay below
M_BUDGET = 10.0


@dataclass(frozen=True)
class ViscositySchedule:
    """Decreasing viscosities with the coupled delta / domain / far-state rules.

    delta(eps) = eps^q, and the domain is (-1/eps, 1/eps) for ducts or
    (eps, 1/eps) with far density rho_bar(eps) = eps^(n/gamma) in the
    spherical mode.  A set ``delta``, ``a``, ``b`` or ``rho_bar`` replaces
    its rule on every rung, for the runs and the certificate alike.  Every
    duct rung's domain must contain the reference blend [-L0, L0]
    (``entropy.BLEND_HALF_WIDTH``).
    """

    eps_list: tuple[float, ...]
    q: float
    M_budget: float = M_BUDGET
    spherical: bool = False
    n_dim: int = 3
    gamma: float = 2.0
    delta: Optional[float] = None
    a: Optional[float] = None
    b: Optional[float] = None
    rho_bar: Optional[float] = None

    def __post_init__(self):
        eps = tuple(float(e) for e in self.eps_list)
        if len(eps) < 2:
            raise ConfigError(f"an eps ladder needs at least two rungs to "
                              f"compare, got {len(eps)}")
        if any(e <= 0 for e in eps) or any(np.diff(eps) >= 0):
            raise ConfigError("eps ladder must be positive and strictly decreasing")
        object.__setattr__(self, "eps_list", eps)
        if self.q <= 0:
            raise ConfigError("delta exponent q must be positive")
        L0 = BLEND_HALF_WIDTH
        for e in eps:
            a, b = self.a_of(e), self.b_of(e)
            if not self.spherical and not (a < -L0 and b > L0):
                raise ConfigError(
                    f"the eps={e:g} domain [{a:g}, {b:g}] does not contain "
                    f"[-L0, L0] = [{-L0:g}, {L0:g}]")

    # -- rules ---------------------------------------------------------------
    def delta_of(self, eps: float) -> float:
        return eps ** self.q if self.delta is None else self.delta

    def a_of(self, eps: float) -> float:
        if self.a is not None:
            return self.a
        return eps if self.spherical else -1.0 / eps

    def b_of(self, eps: float) -> float:
        return 1.0 / eps if self.b is None else self.b

    def rho_bar_of(self, eps: float) -> float:
        if not self.spherical:
            raise ConfigError("rho_bar rule applies to spherical ladders only")
        return eps ** (self.n_dim / self.gamma) if self.rho_bar is None \
            else self.rho_bar


def certificate_summary(report: Report) -> str:
    """The certificate's verdict line, its checks and its skipped quantities."""
    return "\n".join(
        [f"schedule certificate ({report.label} mode), failing: "
         f"{', '.join(report.failing()) or 'none'}"]
        + report.check_lines("  sup_k {name}: {check}")
        + [f"  [skip] {note}" for note in report.notes])


def _sup(values: np.ndarray) -> float:
    return float(np.max(np.abs(values)))


def certify(sched: ViscositySchedule, profile: NozzleProfile,
            g: GasLaw) -> Report:
    """Evaluate the per-rung constraint quantities by sampling on [a, b].

    Every rung reads its delta, domain (a, b) and far density from
    ``sched``, the values the runs use, and ``sched.spherical`` picks the
    mode.  The samples are ``geometry.sample_interval(a, b)``.  ``g`` must
    have the schedule's gamma.

    Duct mode checks, per rung: eps|b-a|; eps sup|(A'/A)'| sup A |b-a|;
    eps sup|A''|; (delta/eps) sup A |a|^beta sup A^((gamma-3)/(gamma-1));
    (delta/eps) sup A |a|; delta sup A |a|^2 sup A^(-4/(2 gamma - 4)) (the
    last is skipped at gamma = 2 where its exponent is singular); plus the
    combined quantity eps (1 + sup|(A'/A)'|) |b - a|.
    Spherical mode checks eps|b-a|, rho_bar^gamma b^n and (delta/eps) b^n.
    The Report holds ``eps`` and each quantity as per-rung series, a
    Check(sup over the rungs, M_budget) per quantity, the skipped quantities
    as notes and the mode as label.
    """
    if g.gamma != sched.gamma:
        raise ConfigError(f"the gas law's gamma = {g.gamma:g} differs from "
                          f"the schedule's gamma = {sched.gamma:g}")
    rungs = []
    singular = not sched.spherical and abs(g.gamma - 2.0) <= 1e-12
    for eps in sched.eps_list:
        a, b = sched.a_of(eps), sched.b_of(eps)
        delta = sched.delta_of(eps)
        quant: dict[str, float] = {"eps_domain": eps * abs(b - a)}
        if sched.spherical:
            n, rb = sched.n_dim, sched.rho_bar_of(eps)
            quant["rho_bar_pressure_volume"] = rb ** g.gamma * b ** n
            quant["delta_volume"] = delta / eps * b ** n
        else:
            xs = sample_interval(a, b)
            A = np.asarray(profile.area(xs), dtype=float)
            supA = _sup(A)
            sup_glp = _sup(profile.dlog_prime(xs))
            sup_A2 = _sup(profile.dd_area(xs))
            quant["eps_dlog_prime_area_domain"] = eps * sup_glp * supA * abs(b - a)
            quant["eps_area_second"] = eps * sup_A2
            exp1 = (g.gamma - 3.0) / (g.gamma - 1.0)
            quant["delta_inv_eps_area_abeta"] = (
                delta / eps * supA * abs(a) ** BETA * _sup(A ** exp1))
            quant["delta_inv_eps_area_a"] = delta / eps * supA * abs(a)
            if not singular:
                exp2 = -4.0 / (2.0 * g.gamma - 4.0)
                quant["delta_area_a2_negexp"] = (
                    delta * supA * abs(a) ** 2 * _sup(A ** exp2))
            quant["eq_3_6_combined"] = eps * (1.0 + sup_glp) * abs(b - a)
        rungs.append(quant)
    series = {"eps": np.array(sched.eps_list)}
    series.update((k, np.array([q[k] for q in rungs])) for k in rungs[0])
    # np.max keeps a NaN of any rung, which then fails the certificate
    checks = {k: Check(np.max(series[k]), sched.M_budget) for k in rungs[0]}
    skipped = ["delta_area_a2_negexp (exponent -4/(2 gamma - 4) singular at "
               "gamma = 2)"] if singular else []
    return Report(series, checks, skipped,
                  "spherical" if sched.spherical else "duct")


def make_default(profile: NozzleProfile, gamma: float,
                 n_eps: int = 4) -> ViscositySchedule:
    """Geometric ladder eps_k = 0.1 / 2^k with q chosen so certify passes.

    The schedule keeps the default budget M_BUDGET and the profile's own
    dimension (3 for a duct).  The search starts from Q_LADDER, the q every
    config's ladder uses, and raises q until the certificate clears the
    budget; a profile that cannot be certified with any q <= 12 is rejected.
    """
    eps = tuple(0.1 * 0.5 ** k for k in range(n_eps))
    spherical = isinstance(profile, SphericalProfile)
    n_dim = getattr(profile, "n_dim", 3)
    gas = GasLaw(gamma)
    q = Q_LADDER
    while q <= 12.0:
        sched = ViscositySchedule(eps, q=q, spherical=spherical, n_dim=n_dim,
                                  gamma=gamma)
        if certify(sched, profile, gas).passed:
            return sched
        q += 1.0
    raise ConfigError(
        f"no delta exponent q <= 12 certifies the {profile.name} "
        f"profile against budget M = {M_BUDGET}")
