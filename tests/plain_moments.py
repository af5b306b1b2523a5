"""The kink-split quadrature of the kernel moments, kept as the oracle of the
exact piece moments and the chunked node products.

``EntropyKernel.moments`` integrates a piece table exactly and a callable
generator by one matrix product per order over chunks of states.  This copy
does neither: every state is integrated piece by piece between the
breakpoints [-1, kinks inside (-1, 1)..., 1] with Gauss-Jacobi rules, and
every moment is an elementwise product summed over the nodes.
"""

import numpy as np

from nozzleflow.entropy import _derivatives

# kinks this close to s = +-1 are treated as outside
EDGE = 1e-10


def _segments(kern, ks, n):
    """(S, W) for each piece between the breakpoints [-1, ks..., 1].

    ``ks`` (npts, k) holds each state's sorted interior kinks.  An end at
    +-1 keeps its factor (1 -+ s)^lam in the Jacobi rule, a kink end
    multiplies it into W; a piece with one end at +-1 maps from that end.
    """
    npts, k = ks.shape
    lam = kern.lam
    for j in range(k + 1):
        lo_kink, hi_kink = j > 0, j < k
        a = 0.0 if hi_kink else lam
        b = 0.0 if lo_kink else lam
        t, w = kern._rule(n, a, b)
        lo = ks[:, j - 1:j] if lo_kink else -1.0
        hi = ks[:, j:j + 1] if hi_kink else 1.0
        half = 0.5 * (hi - lo)
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


def plain_moments(kern, gen, rho_f, m_f, max_order=0, n=64):
    """M[(j, k)] of ``EntropyKernel.moments`` by the n-node kink-split rule.

    A piece table evaluates, on each segment, the polynomial of the piece it
    lies in; a generator without one evaluates its callables.
    """
    out = {(j, k): np.zeros(rho_f.size)
           for j in range(max_order + 1) for k in range(max(1, j) + 1)}
    pos_idx = np.flatnonzero(rho_f > kern.g.rho_floor)
    r = rho_f[pos_idx]
    u, rt = m_f[pos_idx] / r, r ** kern.theta
    S_k = (np.asarray(gen.kinks)[None, :] - u[:, None]) / rt[:, None]
    # i0 kinks lie left of s = -1, i1 - i0 strictly inside (-1, 1)
    i0 = np.count_nonzero(S_k <= -1.0 + EDGE, axis=1)
    i1 = np.count_nonzero(S_k < 1.0 - EDGE, axis=1)
    polys = [_derivatives(p) + [[0.0]] * 2 for p in gen.pieces]
    for lo, hi in {(int(a), int(b)) for a, b in zip(i0, i1)}:
        sel = np.flatnonzero((i0 == lo) & (i1 == hi))
        uu, rr, idx = u[sel], rt[sel], pos_idx[sel]
        for p, (S, W) in enumerate(_segments(kern, S_k[sel, lo:hi], n), lo):
            V = uu[:, None] + rr[:, None] * S
            fns = ([lambda v, d=d: np.polyval(d, v) for d in polys[p]]
                   if polys else (gen.psi, gen.dpsi, gen.d2psi))
            for j in range(max_order + 1):
                PW = fns[j](V) * W
                for k in range(max(1, j) + 1):
                    if k:
                        PW = PW * S
                    out[(j, k)][idx] += PW.sum(axis=1)
    return out
