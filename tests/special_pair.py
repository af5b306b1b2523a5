"""The flux-dominating shifted pair and its inequality battery, kept as the
oracle of the paper's shifted-pair lemma.

The generator psi(v) = (v - u_minus)|v - u_minus| / 2 gives a pair
(eta_check, q_check) whose flux grows a power faster than the entropy.
Taken relative to its linearization at the left far state, as
(eta_tilde, q_tilde), it satisfies growth and domination inequalities
with one constant M.  Those are algebraic facts about states, not evidence
about a run, so no command evaluates them: the tests fit M on samples of
states, verify the inequalities with it, and check the sign of q_tilde at
the far state.
"""

from typing import Optional

import numpy as np

from nozzleflow.checks import Check, Report
from nozzleflow.entropy import (ReferenceState, _flat_states,
                                gen_half_signed_square, get_kernel)
from nozzleflow.errors import DomainError
from nozzleflow.thermo import GasLaw

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
