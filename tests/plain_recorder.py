"""The per-sample Recorder, kept as the oracle of the stacked one.

The package's Recorder copies each sample and evaluates the monitors later,
once over a stack of the pending samples (``Recorder._flush``), on the
nodes the stack's arrays cover together.  This copy evaluates every monitor
on each sample as it is taken, on one row block of that sample's own live
nodes, as the Recorder did before it stacked its samples.  It takes from
the package the per-node terms (``_reference_terms``,
``_energy_densities``), the closed-form exterior (``_past``,
``_energy_nodes``), the single-state explicit stage that ``advance`` steps
with, the quartic entropy and the Recorder's checks (``finalize``).  Run
``single_run`` with ``harness.Recorder`` patched to ``PlainRecorder`` for
the plain path.
"""

import numpy as np

from nozzleflow import diagnostics
from nozzleflow.diagnostics import (Recorder, _energy_densities, _energy_nodes,
                                    _past, _reference_terms, _trapezoid)
from nozzleflow.entropy import modified_energy_gradient, quartic_entropy
from nozzleflow.errors import CavitationError
from nozzleflow.solver import hyperbolic_interface_data


class RowBlock:
    """The rows of one sample over its live nodes padded by HULL_PAD and
    the stencil's two more on each side: rho, m and u, and on the summed
    nodes the context's x, A, G, dG and trapezoid weights."""

    def __init__(self, ctx, field):
        self.ctx = ctx
        pad = diagnostics.HULL_PAD
        n, (lo, hi) = ctx.grid.n_nodes, ctx.reach(field)
        self.lo, self.hi = lo, hi = max(lo - pad, 0), min(hi + pad, n)
        ctx.store(lo, hi)
        self.first = max(lo - 2, 0)
        self.state = field.values(self.first, min(hi + 2, n))
        self.rho, self.m = self.state
        self.u = ctx.g.velocity(self.rho, self.m)
        self.core = slice(lo - self.first, hi - self.first)
        self.held = slice(lo - ctx.lo, hi - ctx.lo)
        self.x, self.A, self.G, self.dG = (
            v[self.held] for v in (ctx.x, ctx.A, ctx.G, ctx.dG))
        self.weights = ctx.dx * self.A
        self.weights[0] *= 0.5
        self.weights[-1] *= 0.5

    def per_range(self, key, build):
        memo = self.ctx.memo
        if key not in memo:
            memo[key] = build()
        return memo[key]


def energy_budget(ctx, field, ref, block):
    g, core, ends = ctx.g, block.core, field.ends
    rho, u = block.rho[core], block.u[core]
    terms = block.per_range(("reference", ref),
                            lambda: _reference_terms(g, ref, ctx.x))
    dens, geo = _energy_densities(ctx, rho, u, terms[:, block.held], block.x,
                                  lambda: block.dG)
    rho_x, u_x = np.gradient(np.array((block.rho, block.u)), ctx.dx,
                             axis=1)[:, core]
    hess = g.h_delta_second(np.maximum(rho, g.rho_floor)) * rho_x ** 2 \
        + rho * u_x ** 2
    E, rate_h, rate_g = np.array((dens, hess, geo)) @ block.weights

    def values(i, j, side):
        x, (r, m) = ctx.grid.nodes(i, j), ends[side]
        return np.array(_energy_densities(
            ctx, r, g.velocity(r, m), _reference_terms(g, ref, x), x,
            lambda: ctx.profile.dlog_prime(x))) * ctx.area(i, j)

    h0, h1 = _energy_nodes(ctx.grid, g, ref, ends)
    past_E, past_g = sum(_past(block, ("energy", ref, ends), values,
                               max(h0, 0), min(h1, ctx.grid.n_nodes)),
                         np.zeros(2))
    rate_h, rate_g = ctx.eps * rate_h, ctx.eps * (rate_g + past_g)
    return E + past_E, rate_h, rate_g


def llf_dissipation_rate(ctx, field, block):
    core = block.core
    data = hyperbolic_interface_data(ctx, block.rho, block.m, field.t,
                                     (core.start, core.stop), block.first)
    rho = np.array((data["rho_L"], data["rho_R"]))
    m = np.array((data["m_L"], data["m_R"]))
    g_r, g_m = modified_energy_gradient(ctx.g, rho, m)
    jump = ((g_r[1] - g_r[0]) * (rho[1] - rho[0])
            + (g_m[1] - g_m[0]) * (m[1] - m[0]))
    faces = ctx.Ah_full[block.held.start:block.held.stop + 1]
    return float(np.sum(0.5 * data["alpha"] * faces * jump))


def riemann_monitor(ctx, block):
    g = ctx.g
    if np.min(block.rho) < g.rho_floor:
        raise CavitationError("invariants undefined: density at the vacuum floor")
    w, z = g.riemann_invariants(block.rho, block.u)
    u = block.u[block.core]
    c = g.sound_speed(block.rho[block.core])
    rate = np.abs(u * c * block.G - ctx.eps * block.dG * u)
    return float(np.max(w)), float(np.min(z)), float(np.max(rate))


def vacuum_functional(field, rho_tilde):
    def phi(rho):
        r = np.maximum(rho, 1e-300)
        return np.where(rho < rho_tilde,
                        1.0 / r - 1.0 / rho_tilde + (rho - rho_tilde) / rho_tilde ** 2,
                        0.0)

    grid = field.grid
    lo, hi = max(field.lo - 1, 0), min(field.hi + 1, grid.n_nodes)
    rho, x = field.values(lo, hi)[0], grid.nodes(lo, hi)
    total = float(_trapezoid(phi(rho), grid.dx))
    for end, length in zip(field.ends, (x[0] - grid.a, grid.b - x[-1])):
        if end is not None and end[0] < rho_tilde:
            total += float(phi(end[0])) * length
    return total


def quartic(block):
    ctx, n = block.ctx, block.ctx.grid.n_nodes
    eta = quartic_entropy(ctx.g, block.rho, block.m)
    left, right = _past(block, "area", lambda i, j, _: ctx.area(i, j)[None],
                        0, n)
    return (float(eta[block.core] @ block.weights)
            + float(eta[0] * np.sum(left)) + float(eta[-1] * np.sum(right)))


def min_rho(field):
    return float(np.min(np.append(field.rho, [end[0] for end in field.ends
                                               if end is not None])))


class PlainRecorder(Recorder):
    """The Recorder with every monitor evaluated on each sample as it is
    taken; the checks, the snapshots and the report are the Recorder's."""

    def sample(self, field, ctx):
        super().sample(field, ctx)
        self._flush()

    def _flush(self):
        ctx, opt = self.ctx, self.opt
        for field in self._pending:
            block = RowBlock(ctx, field)
            row, rates = {"t": field.t}, {}
            if self.ref is not None:
                E, rate_h, rate_g = energy_budget(ctx, field, self.ref, block)
                row.update(energy=E, diss_rate_hessian=rate_h,
                           diss_rate_geometric=rate_g)
                rates["dissipation"] = rate_h + rate_g
            rates["llf_cumulative"] = row["llf_rate"] = llf_dissipation_rate(
                ctx, field, block)
            if opt.riemann:
                row["max_w"], row["min_z"], rates["correction"] = \
                    riemann_monitor(ctx, block)
            row.update(vacuum_phi=vacuum_functional(field, self._rho_tilde),
                       min_rho=min_rho(field))
            if opt.quartic:
                row["quartic"] = quartic(block)
            for name, val in row.items():
                self._series[name].append(val)
            for name, rate in rates.items():
                self._rates.setdefault(name, []).append(rate)
        self._pending = []
