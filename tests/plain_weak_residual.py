"""The direct weak-residual evaluation, kept as the oracle of the fast one.

``weak_residual`` in the package contracts tensor-product test functions
and evaluates the kernel once per unique in-support state.  This copy does
neither: it forms every test function on the whole snapshot array, calls
``pair`` and ``pair_grad`` on every stored state, and integrates each
product with nested trapezoid sums.
"""

import numpy as np

from nozzleflow.diagnostics import WeakResidualRecord
from nozzleflow.entropy import get_kernel


def plain_weak_residual(history, g, profile, test_set, gen_set):
    t, x = history.t, history.x
    rho, m = history.rho, history.m
    A = np.asarray(profile.area(x), dtype=float)[None, :]
    dA = np.asarray(profile.d_area(x), dtype=float)[None, :]
    pos = rho > g.rho_floor
    u = np.where(pos, m / np.maximum(rho, g.rho_floor), 0.0)
    p = g.pressure_gamma(rho)
    mom_flux = m * u + p

    kern = get_kernel(g)
    fields = []
    for gen in gen_set:
        eta, q = kern.pair(gen, rho, m)
        eta_r, eta_m = kern.pair_grad(gen, rho, m)[2:]
        fields.append((eta, q, eta_r, eta_m))

    def _integrate(vals):
        per_t = np.trapezoid(vals, x, axis=1)
        return float(np.trapezoid(per_t, t))

    n_phi = len(test_set)
    mass = np.zeros(n_phi)
    momentum = np.zeros(n_phi)
    entropy = np.zeros((len(gen_set), n_phi))
    norms = np.zeros(n_phi)
    for j, tf in enumerate(test_set):
        bt, dbt, bx, dbx = tf.factors(t, x)
        phi = np.outer(bt, bx)
        phi_t = np.outer(dbt, bx)
        phi_x = np.outer(bt, dbx)
        norms[j] = _integrate((np.abs(phi) + np.abs(phi_t) + np.abs(phi_x)) * A)
        mass[j] = _integrate((rho * phi_t + m * phi_x) * A)
        momentum[j] = _integrate((m * phi_t + mom_flux * phi_x) * A
                                 + p * dA * phi)
        for i, (eta, q, eta_r, eta_m) in enumerate(fields):
            src = dA * (m * eta_r + m * u * eta_m - q)
            entropy[i, j] = _integrate(-eta * A * phi_t - q * A * phi_x
                                       + src * phi)
    return WeakResidualRecord(list(test_set), list(gen_set), mass, momentum,
                              entropy, norms, np.full(len(gen_set), np.nan))
