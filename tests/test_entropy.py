import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import roots_jacobi

from nozzleflow.entropy import (GENERATOR_FACTORIES, EntropyGenerator,
                                EntropyKernel, ReferenceState, gauss_jacobi,
                                gen_bump, gen_convex_spline,
                                gen_half_signed_square,
                                gen_half_square, gen_linear, gen_one,
                                gen_quartic, gen_smoothed_abs, get_kernel,
                                mechanical_energy, quartic_entropy,
                                special_pair_check, special_pair_fields,
                                weight_moment)
from nozzleflow import entropy
from plain_moments import plain_moments
from nozzleflow.diagnostics import default_generator_family
from nozzleflow.errors import ConfigError, DomainError, QuadratureError
from nozzleflow.thermo import GasLaw

GAMMAS = (1.2, 1.4, 2.0, 3.0, 5.0, 7.0)


def _states(rng, n=50):
    rho = rng.uniform(0.01, 5.0, n)
    u = rng.uniform(0.1, 3.0, n) * rng.choice([-1.0, 1.0], n)
    return rho, rho * u


# ---------------------------------------------------------------------------
# quadrature rules
# ---------------------------------------------------------------------------


def test_gauss_jacobi_against_scipy():
    # symmetric rules of odd and even size, and the one-sided (lam, 0) ones
    # of the tail rules
    for lam in (4.5, 2.0, 0.5, 0.0, -0.25, -1.0 / 3.0):
        for n in (8, 21, 32, 64):
            for a, b in ((lam, lam), (lam, 0.0)):
                x, w = gauss_jacobi(n, a, b)
                xo, wo = roots_jacobi(n, a, b)
                assert np.max(np.abs(x - xo)) < 1e-12
                assert np.max(np.abs(w - wo)) < 1e-12


def _mp_rule_point(mp, n, lam, x0):
    """(node, weight) of the n-node rule for (1 - x^2)^lam at the node
    nearest x0, in mpmath: two Newton steps on the orthonormal p_n from a
    node good to 1e-15, then the Christoffel number 1 / sum_(k<n) p_k^2."""
    a = mp.mpf(lam)
    sb = [mp.sqrt(2 ** (2 * a + 1) * mp.gamma(a + 1) ** 2 / mp.gamma(2 * a + 2))]
    sb += [mp.sqrt(4 * k * (k + a) ** 2 * (k + 2 * a)
                   / ((2 * k + 2 * a) ** 2 * (2 * k + 2 * a + 1) * (2 * k + 2 * a - 1)))
           for k in range(1, n + 1)]

    def run(x):
        p_prev, p, dp_prev, dp = 0, 1 / sb[0], 0, 0
        total = p * p
        for k in range(n):
            p_prev, p, dp_prev, dp = (p, (x * p - sb[k] * p_prev) / sb[k + 1], dp,
                                      (p + x * dp - sb[k] * dp_prev) / sb[k + 1])
            total += p * p if k < n - 1 else 0
        return p / dp, total

    x = mp.mpf(x0)
    for _ in range(2):
        x -= run(x)[0]
    return x, 1 / run(x)[1]


# per n, the kernel exponents lam and the nodes checked (the upper half of
# a symmetric rule when None; the rest mirror it): lam = 4.5, 0.5, -1/4 and
# -1/3 are gamma = 1.2, 2, 5 and 7, where the weight is singular at s = +-1.
# At n = 512 and 4096, the picks are both ends, a node inside END_X next to
# where the weights change precision, and the middle
RULE_CASES = {20: ((4.5, 0.5, 0.0, -0.25, -1.0 / 3.0), None),
              64: ((4.5, 0.5, -0.25, -1.0 / 3.0), None),
              512: ((0.5, -0.25, -1.0 / 3.0), (0, 1, 25, 256)),
              4096: ((0.5, -1.0 / 3.0), (0, 204, 2048))}


@pytest.mark.parametrize("n", sorted(RULE_CASES))
def test_gauss_jacobi_matches_mpmath_and_scipy(n):
    # nodes to 1e-13 against scipy and 40-digit mpmath, weights to 1e-13 of
    # the largest against mpmath; scipy's own weights are off by up to
    # 1e-12 of the largest at n = 64 and 4e-8 at n = 4096 for lam < 0
    import mpmath as mp  # in the test extra: without it the test fails
    lams, picks = RULE_CASES[n]
    for lam in lams:
        x, w = gauss_jacobi(n, lam, lam)
        xs, _ = roots_jacobi(n, lam, lam)
        assert np.max(np.abs(x - xs)) <= 1e-13
        with mp.workdps(40):
            for i in picks or range(n // 2, n):
                xr, wr = _mp_rule_point(mp, n, lam, x[i])
                assert abs(x[i] - xr) <= 1e-13, (lam, i)
                assert abs(w[i] - wr) <= 1e-13 * np.max(w), (lam, i)


def test_weight_moments_closed_form():
    for lam in (-0.25, 0.0, 0.5, 2.0):
        x, w = gauss_jacobi(96, lam, lam)
        for k in range(5):
            assert np.sum(w * x ** k) == pytest.approx(weight_moment(lam, k),
                                                       abs=1e-13)
    lam = 0.5
    c = math.sqrt(math.pi) * math.gamma(lam + 1.0) / math.gamma(lam + 1.5)
    assert weight_moment(lam, 0) == pytest.approx(c)


def test_weight_moments_and_rules_stay_finite_near_gamma_1():
    # lam = 99.5, 199.5 and 999.5 are gamma = 1.01, 1.005 and 1.001, where
    # Gamma(2 lam + 2), then Gamma(lam + 1) leave the float range, and
    # 2^-(2 lam + 1) that of doubles
    for lam in (99.5, 199.5, 999.5):
        W = [weight_moment(lam, k) for k in range(9)]
        x, w = gauss_jacobi(64, lam, lam)
        assert np.all(np.isfinite(W)) and np.all(np.isfinite(x))
        assert np.all(np.isfinite(w)) and np.sum(w) == pytest.approx(W[0], rel=1e-12)
    # the Gamma-ratio form wherever it stays finite
    for lam in np.linspace(-0.49, 170.0, 400):
        for k in range(0, 9, 2):
            try:
                old = (math.gamma((k + 1) / 2.0) * math.gamma(lam + 1.0)
                       / math.gamma(lam + k / 2.0 + 1.5))
            except OverflowError:
                continue
            assert weight_moment(lam, k) == pytest.approx(old, rel=1e-14, abs=0.0)


def test_large_rules_near_gamma_1_emit_no_warning():
    # gamma 1.01 and 1.005: the recurrence rows p_k pass the float range, so
    # they are rescaled; p_n'^2 overflowed and warned before, and weights
    # that underflow come out as exact zeros
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n, lam in ((4096, 99.5), (1024, 199.5)):
            x, w = gauss_jacobi(n, lam, lam)
            assert np.all(np.isfinite(x)) and np.all(np.diff(x) > 0.0)
            assert np.all(w >= 0.0)
            assert np.sum(w) == pytest.approx(weight_moment(lam, 0), rel=1e-12)


@pytest.mark.parametrize("gamma", [1.4, 2.0, 5.0])
def test_rescaled_recurrence_leaves_the_rules_bit_identical(gamma,
                                                           monkeypatch):
    # scaling by powers of two is exact: a rule whose rows are rescaled at
    # every look comes out bit for bit as one whose rows never are, as at
    # these gammas with the default SCALE_EXP
    lam = (3.0 - gamma) / (2.0 * (gamma - 1.0))
    for n, b in ((64, lam), (512, lam), (1024, lam + 0.5)):
        rule = gauss_jacobi(n, lam, b)
        with monkeypatch.context() as mp:
            mp.setattr(entropy, "SCALE_EXP", -1100)
            scaled = gauss_jacobi(n, lam, b)
        for a, c in zip(rule, scaled):
            assert a.tobytes() == c.tobytes(), (gamma, n)


# ---------------------------------------------------------------------------
# closed-form pairs
# ---------------------------------------------------------------------------


def test_pair_closed_forms_across_gamma():
    rng = np.random.default_rng(0)
    for gamma in GAMMAS:
        g = GasLaw(gamma)
        c = weight_moment(g.lambda_exp, 0)
        rho, m = _states(rng)
        eta, q = get_kernel(g).pair_certified(gen_one(), rho, m)
        assert np.max(np.abs(eta - c * rho) / (c * rho)) < 1e-9
        assert np.max(np.abs(q - c * m) / np.abs(c * m)) < 1e-9
        eta, q = get_kernel(g).pair_certified(gen_linear(), rho, m)
        flux = c * (m * m / rho + g.kappa * rho ** gamma)
        assert np.max(np.abs(eta - c * m) / np.abs(c * m)) < 1e-9
        assert np.max(np.abs(q - flux) / np.abs(flux)) < 1e-9
        eta, _ = get_kernel(g).pair_certified(gen_half_square(), rho, m)
        e_star, _ = mechanical_energy(g, rho, m)
        assert np.max(np.abs(eta - c * e_star) / (c * e_star)) < 1e-9


def test_vacuum_and_domain():
    g = GasLaw(2.0)
    assert get_kernel(g).pair_certified(gen_quartic(), 0.0, 0.0) == (0.0, 0.0)
    with pytest.raises(DomainError):
        get_kernel(g).pair_certified(gen_one(), -0.1, 0.0)


@pytest.mark.parametrize("rho,m", [(np.nan, 0.0), (1.0, np.inf),
                                   (-np.inf, 0.0), (1.0, np.nan)])
def test_non_finite_state_is_domain_error(rho, m):
    g = GasLaw(2.0)
    with pytest.raises(DomainError):
        get_kernel(g).pair(gen_convex_spline(), np.array([1.0, rho]),
                           np.array([0.0, m]))
    with pytest.raises(DomainError):
        get_kernel(g).pair_certified(gen_smoothed_abs(), rho, m)


PIECEWISE_GENERATORS = (gen_one(), gen_linear(), gen_half_square(),
                        gen_quartic(), gen_half_signed_square(0.0),
                        gen_convex_spline(), gen_convex_spline(0.35, 0.5))


def _moment_keys(order):
    return sorted((j, k) for j in range(order + 1) for k in range(max(1, j) + 1))


def _kinks_in_range(gen, theta, rho, m):
    """Each state's kink positions s = (kink - u) / rho^theta."""
    return (np.array(gen.kinks)[None, :] - (m / rho)[:, None]) \
        / (rho ** theta)[:, None]


@settings(max_examples=40, deadline=None)
@given(gamma=st.sampled_from((1.4, 2.0, 3.0, 5.0)),
       states=st.lists(st.tuples(st.floats(-12.0, 1.0), st.floats(-10.0, 10.0)),
                       min_size=1, max_size=12))
def test_exact_polynomial_moments_match_quadrature(gamma, states):
    # the exact piece moments against the kink-split rule at n = 2048, which
    # has converged on states whose kinks lie at least 1e-2 from s = +-1;
    # log10(rho) from -12 reaches the floor, and rho^theta up to 100 at
    # gamma 5 makes the spline's core piece narrow
    g = GasLaw(gamma)
    kern = get_kernel(g)  # cached, with its 2048-node rules
    rho0 = np.array([g.rho_floor] + [10.0 ** a for a, _ in states])
    m0 = rho0 * np.array([0.0] + [u for _, u in states])
    for gen in PIECEWISE_GENERATORS:
        with np.errstate(divide="ignore", invalid="ignore"):
            s_k = _kinks_in_range(gen, g.theta, rho0, m0)
        keep = np.all(np.abs(np.abs(s_k) - 1.0) >= 1e-2, axis=1)
        rho, m = rho0[keep], m0[keep]
        plain = plain_moments(kern, gen, rho, m, 2, 2048)
        scale = np.max(np.abs(np.array(list(plain.values()))), axis=0)
        for order in range(3):
            exact = kern.moments([gen], rho, m, order)[0]
            assert sorted(exact) == _moment_keys(order)
            for key in exact:
                assert np.all(np.abs(exact[key] - plain[key]) <= 1e-13 * scale), \
                    (gen.name, order, key)


def _mp_moments(mp, gen, lam, theta, rho, m):
    """Every M[(j, k)] of order <= 2 at one state in mpmath arithmetic.

    Each piece's polynomial psi_p^(j)(u + rt s) is expanded in powers of s,
    and each power integrates against the weight as an incomplete beta
    function: int_0^y s^q (1 - s^2)^lam ds = B(y^2; (q+1)/2, lam+1) / 2.
    """
    lam, rho, m = mp.mpf(lam), mp.mpf(rho), mp.mpf(m)
    u, rt = m / rho, rho ** mp.mpf(theta)

    @functools.cache
    def cumulative(q, y):
        c = mp.betainc((q + 1) / mp.mpf(2), lam + 1, 0, y * y) / 2
        return c if y >= 0 else (-1) ** (q + 1) * c

    cuts = [(mp.mpf(kink) - u) / rt for kink in gen.kinks]
    ends = [mp.mpf(-1)] + [c for c in cuts if -1 < c < 1] + [mp.mpf(1)]
    out = {key: mp.mpf(0) for key in _moment_keys(2)}
    for lo, hi in zip(ends[:-1], ends[1:]):
        mid = u + rt * (lo + hi) / 2
        p = sum(1 for kink in gen.kinks if kink <= mid)
        coeffs = [mp.mpf(c) for c in gen.pieces[p]]
        for j in range(3):
            d = [mp.mpf(c) * mp.ff(i + j, j) for i, c in enumerate(coeffs[j:])]
            # d_i (u + rt s)^i = sum_q binom(i, q) u^(i-q) rt^q s^q
            poly_s = [sum(d[i] * mp.binomial(i, q) * u ** (i - q) * rt ** q
                          for i in range(q, len(d))) for q in range(len(d))]
            for k in range(max(1, j) + 1):
                out[(j, k)] += sum(c * (cumulative(q + k, hi) - cumulative(q + k, lo))
                                   for q, c in enumerate(poly_s))
    return out


def _edge_states(gen, theta, d):
    """(rho, m) placing each kink at s = -+(1 +- d): just inside and just
    outside both ends of the state's range."""
    rt = np.array([0.3, 1.0, 2.5])
    rho, m = [], []
    for kink in gen.kinks:
        for side in (-1.0, 1.0):
            for off in (-d, d):
                u = kink - side * (1.0 + off) * rt
                rho.append(rt ** (1.0 / theta))
                m.append(rho[-1] * u)
    return np.concatenate(rho), np.concatenate(m)


@pytest.mark.parametrize("gamma", [1.4, 2.0, 5.0])
def test_piece_moments_near_the_kernel_edge_match_mpmath(gamma):
    # a kink at s = -+(1 - d) splits off a piece of width d beside the
    # weight's end; the 64-node kink-split rule of plain_moments is off there
    # by up to 1.0e-6 of the moment scale at gamma 2 and 3.3e-4 at gamma 5
    import mpmath as mp  # in the test extra: without it the test fails
    g = GasLaw(gamma)
    kern = get_kernel(g)
    with mp.workdps(40):
        for gen in (gen_convex_spline(0.0, 0.3), gen_convex_spline(),
                    gen_half_signed_square(0.0)):
            for d in (1e-3, 1e-6, 1e-9):
                rho, m = _edge_states(gen, g.theta, d)
                refs = [_mp_moments(mp, gen, g.lambda_exp, g.theta, r, mm)
                        for r, mm in zip(rho, m)]
                for order in range(3):
                    got = kern.moments([gen], rho, m, order)[0]
                    for i, ref in enumerate(refs):
                        scale = max(abs(ref[key]) for key in got)
                        for key in got:
                            err = abs(got[key][i] - ref[key])
                            assert err <= 1e-13 * scale, (gen.name, d, order, key, i)


@pytest.mark.parametrize("gen", [gen_smoothed_abs(0.3, 0.4), gen_bump(0.0, 2.0)],
                         ids=lambda gen: gen.name)
def test_chunked_node_products_match_elementwise_sums(gen):
    # more than two chunks of states, so the last one is partial
    rng = np.random.default_rng(7)
    g = GasLaw(2.0)
    kern = get_kernel(g)
    size = 2 * entropy.CHUNK + 37
    rho = np.concatenate([[0.0, g.rho_floor], rng.uniform(1e-3, 4.0, size)])
    m = rho * np.concatenate([[0.0, 1.0], rng.uniform(-3.0, 3.0, size)])
    for order in range(3):
        fast = kern.moments([gen], rho, m, order, entropy.KERNEL_NODES)[0]
        plain = plain_moments(kern, gen, rho, m, order, entropy.KERNEL_NODES)
        assert sorted(fast) == sorted(plain) == _moment_keys(order)
        scale = np.max(np.abs(np.array(list(plain.values()))), axis=0) + 1e-300
        for key in plain:
            assert np.all(np.abs(fast[key] - plain[key]) <= 1e-14 * scale), key


@pytest.mark.parametrize("gen", [gen_half_square(), gen_convex_spline(0.0, 1.0)],
                         ids=lambda gen: gen.name)
def test_chunked_piece_moments_match_one_pass(gen, monkeypatch):
    # piece tables go CHUNK states at a time, bit for bit as in one pass
    rng = np.random.default_rng(11)
    kern = get_kernel(GasLaw(5.0, delta=1e-4))
    size = 2 * entropy.CHUNK + 37
    rho = np.concatenate([[0.0], rng.uniform(1e-3, 4.0, size)])
    m = rho * np.concatenate([[0.0], rng.uniform(-3.0, 3.0, size)])
    chunked = kern.moments([gen], rho, m, 2)[0]
    monkeypatch.setattr(entropy, "CHUNK", 10 ** 9)
    whole = kern.moments([gen], rho, m, 2)[0]
    for key in whole:
        assert chunked[key].tobytes() == whole[key].tobytes(), key


# the sweep's family with a non-convex table and a non-convex callable
FAMILY = (gen_half_square(), gen_convex_spline(), gen_half_signed_square(0.0),
          gen_smoothed_abs(-1.0, 0.5), gen_smoothed_abs(0.0, 0.5),
          gen_smoothed_abs(1.0, 0.5), gen_bump(0.0, 2.0))


@pytest.mark.parametrize("gamma", [2.0, 5.0])
def test_one_moment_pass_gives_each_generator_its_own_moments(gamma):
    # the family in one pass: each generator's moments bit for bit those of
    # a call with it alone, in any order of the family, and within the
    # plain kink-split rule's tolerances of the tests above; the first two
    # states sit at and below the vacuum floor, and 300 states make three
    # chunks of the callables' nodes
    rng = np.random.default_rng(12)
    g = GasLaw(gamma)
    kern = get_kernel(g)
    rho = np.concatenate([[0.0, g.rho_floor], rng.uniform(1e-3, 4.0, 300)])
    m = rho * np.concatenate([[0.0, 1.0], rng.uniform(-3.0, 3.0, 300)])
    perm = rng.permutation(len(FAMILY))
    for order in range(3):
        family = kern.moments(FAMILY, rho, m, order)
        shuffled = kern.moments([FAMILY[i] for i in perm], rho, m, order)
        for i, gen in enumerate(FAMILY):
            alone = kern.moments([gen], rho, m, order)[0]
            moved = shuffled[list(perm).index(i)]
            assert sorted(family[i]) == sorted(alone) == _moment_keys(order)
            for key in alone:
                assert family[i][key].tobytes() == alone[key].tobytes(), (gen.name, key)
                assert moved[key].tobytes() == alone[key].tobytes(), (gen.name, key)
    # a callable that declares its singularities within its reported
    # estimate of 512 nodes, the others within rounding of their fixed rule
    errors = []
    family = kern.moments(FAMILY, rho, m, 2, errors=errors)
    for gen, fast, err in zip(FAMILY, family, errors):
        if gen.pieces:
            with np.errstate(divide="ignore", invalid="ignore"):
                s_k = _kinks_in_range(gen, g.theta, rho, m)
            keep = np.all(np.abs(np.abs(s_k) - 1.0) >= 1e-2, axis=1)
            n, tol = 2048, 1e-13
        elif gen.singularities:
            keep, n, tol = np.ones(rho.size, dtype=bool), 512, err
        else:
            keep, n, tol = np.ones(rho.size, dtype=bool), entropy.KERNEL_NODES, 1e-14
        plain = plain_moments(kern, gen, rho[keep], m[keep], 2, n)
        scale = np.max(np.abs(np.array(list(plain.values()))), axis=0) + 1e-300
        for key in plain:
            assert np.all(np.abs(fast[key][keep] - plain[key]) <= tol * scale), \
                (gen.name, key)


def test_convex_spline_core_matches_the_polynomial_composition():
    # the binomial sums give numpy.polynomial's composition of the core with
    # (v - c) / w: bit for bit at c = 0, so for the default family's (0, 1)
    # spline, else within an ulp
    from numpy.polynomial import Polynomial
    core = [0.0, 0.0, 0.5, 0.0, -1.0 / 6.0, 0.0, 1.0 / 30.0]
    for c, w in ((0.0, 1.0), (0.0, 0.5), (0.35, 0.5), (-1.0, 2.0), (3.0, 0.2)):
        want = (w * w * Polynomial(core)(Polynomial([-c / w, 1.0 / w]))).coef
        got = np.array(gen_convex_spline(c, w).pieces[1])
        if c == 0.0:
            assert got.tobytes() == want.tobytes(), (c, w)
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=4e-16 * np.max(np.abs(want)))


# states with rho^theta = 4, 4 and 9, eight to eighteen times the width:
# the fixed 64-node rule is off there by 5.0e-9, 3.0e-9 and 9.2e-6 of a
# state's largest moment
DENSE = ((2.0, 16.0), (5.0, 2.0), (3.0, 9.0))


@pytest.mark.parametrize("gamma, rho", DENSE)
def test_default_rule_meets_its_tolerance_on_dense_states(gamma, rho):
    # each chunk's node count holds the error of the moments, relative to a
    # state's largest, to KERNEL_RTOL against 512 nodes, and each reported
    # estimate covers the error seen, at every order
    g = GasLaw(gamma)
    kern = get_kernel(g)
    rho_f = np.full(301, rho)
    m_f = rho_f * np.linspace(-3.0, 3.0, 301)
    gens = [gen for gen in default_generator_family() if not gen.pieces]
    assert len(gens) == 3 and all(gen.singularities for gen in gens)
    for order in range(3):
        errors = []
        fast = kern.moments(gens, rho_f, m_f, order, errors=errors)
        ref = kern.moments(gens, rho_f, m_f, order, 512)
        for gen, M, R, est in zip(gens, fast, ref, errors):
            scale = np.max(np.abs(np.array(list(R.values()))), axis=0)
            seen = np.max(np.abs(np.array([M[k] - R[k] for k in R])) / scale)
            assert seen <= entropy.KERNEL_RTOL, (gen.name, order, seen)
            assert seen <= est, (gen.name, order, seen, est)
    # and the fixed rule does not: it is what the counts replace
    fixed = kern.moments(gens, rho_f, m_f, 1, entropy.KERNEL_NODES)
    ref = kern.moments(gens, rho_f, m_f, 1, 512)
    assert max(np.max(np.abs(M[k] - R[k]) / np.abs(R[(0, 0)]))
               for M, R in zip(fixed, ref) for k in R) > 1e-10


@pytest.mark.parametrize("fields", [dict(kinks=(1.0, 0.0), pieces=()),
                                    dict(kinks=(0.0,), pieces=((1.0,),)),
                                    dict(kinks=(0.0,), pieces=())])
def test_generator_rejects_a_bad_piece_table(fields):
    with pytest.raises(ConfigError):
        dataclasses.replace(gen_half_signed_square(0.0), **fields)


def test_generator_derivatives_match_finite_differences():
    # psi' and psi'' of every factory and of the sweep's family against
    # central differences of psi and psi', away from the kinks
    h = 1e-5
    gens = [f() for f in GENERATOR_FACTORIES.values()]
    gens += default_generator_family() + [gen_convex_spline(0.35, 0.5),
                                          gen_half_signed_square(0.35)]
    for gen in gens:
        v = np.linspace(-3.0, 3.0, 1201)
        for kink in gen.kinks:
            v = v[np.abs(v - kink) > 10.0 * h]
        for f, df in ((gen.psi, gen.dpsi), (gen.dpsi, gen.d2psi)):
            fd = (f(v + h) - f(v - h)) / (2.0 * h)
            assert np.max(np.abs(df(v) - fd)) <= 1e-7 * (1.0 + np.max(np.abs(fd))), \
                gen.name


def test_pair_linearity_in_generator():
    g = GasLaw(1.4)
    kern = get_kernel(g)
    rng = np.random.default_rng(1)
    rho, m = _states(rng, 30)
    e1, q1 = kern.pair(gen_linear(), rho, m)
    e2, q2 = kern.pair(gen_half_square(), rho, m)
    combo = EntropyGenerator("combo", lambda v: 2.0 * v + 3.0 * 0.5 * v * v,
                             lambda v: 2.0 + 3.0 * v,
                             lambda v: 3.0 * np.ones_like(v))
    e3, q3 = kern.pair(combo, rho, m)
    assert np.max(np.abs(e3 - (2 * e1 + 3 * e2))) < 1e-12 * np.max(np.abs(e3))
    assert np.max(np.abs(q3 - (2 * q1 + 3 * q2))) < 1e-12 * np.max(np.abs(q3))


def test_mechanical_energy_examples():
    g = GasLaw(2.0)
    eta, q = mechanical_energy(g, 1.0, 1.0)
    assert eta == pytest.approx(0.625)
    assert q == pytest.approx(0.75)
    eta, q = mechanical_energy(g, 2.0, 0.0)
    assert eta == pytest.approx(0.125 * 4.0)
    assert q == 0.0


def test_quartic_entropy_moment():
    g = GasLaw(2.0)
    assert quartic_entropy(g, 1.0, 0.0) == pytest.approx(np.pi / 16.0, rel=1e-12)
    assert quartic_entropy(g, 0.0, 0.0) == 0.0


@pytest.mark.parametrize("gamma", [1.4, 2.0, 5.0])
def test_quartic_entropy_matches_the_moment_pass(gamma):
    # the closed form against the exact piece-table moments of psi = s^4,
    # vacuum states (at and below the floor) and scalar states included
    g = GasLaw(gamma)
    rho, m = _states(np.random.default_rng(5), 200)
    rho = np.r_[rho, 0.0, g.rho_floor, 0.5 * g.rho_floor, 1e-9, 50.0]
    m = np.r_[m, 0.0, 1e-13, -1e-13, 1e-9, -400.0]
    eta = quartic_entropy(g, rho, m)
    ref = get_kernel(g).pair(gen_quartic(), rho, m)[0]
    assert np.all(eta[-5:-2] == 0.0) and np.all(ref[-5:-2] == 0.0)
    np.testing.assert_allclose(eta, ref, rtol=1e-14, atol=0.0)
    for i in (0, 3, -1):
        e = quartic_entropy(g, float(rho[i]), float(m[i]))
        assert isinstance(e, float) and e == eta[i]
    for bad in ((-1.0, 0.0), (np.nan, 0.0), (1.0, np.inf)):
        with pytest.raises(DomainError):
            quartic_entropy(g, *bad)


def test_quartic_dominates_rho_u4_and_density_power():
    # fit the smallest constant on a coarse grid, then verify on a finer one
    for gamma in (1.4, 2.0, 5.0):
        g = GasLaw(gamma)
        rho, u = np.meshgrid(np.linspace(0.05, 8.0, 30),
                             np.linspace(-6.0, 6.0, 31), indexing="ij")
        target = rho * u ** 4 + rho ** (2.0 * gamma - 1.0)
        eta = quartic_entropy(g, rho, rho * u)
        M = float(np.max(target / eta))
        rho2, u2 = np.meshgrid(np.linspace(0.02, 10.0, 61),
                               np.linspace(-7.0, 7.0, 63), indexing="ij")
        target2 = rho2 * u2 ** 4 + rho2 ** (2.0 * gamma - 1.0)
        eta2 = quartic_entropy(g, rho2, rho2 * u2)
        assert np.all(target2 <= 1.05 * M * eta2)


# ---------------------------------------------------------------------------
# derivatives and the compatibility relation
# ---------------------------------------------------------------------------


def test_gradient_matches_finite_differences():
    g = GasLaw(2.0)
    kern = get_kernel(g)
    rng = np.random.default_rng(2)
    rho, m = _states(rng, 40)
    h = 1e-6
    for gen in (gen_half_square(), gen_smoothed_abs(0.3, 0.4)):
        er, em = kern.pair_grad(gen, rho, m)[2:]
        e_p, _ = kern.pair(gen, rho + h, m)
        e_m, _ = kern.pair(gen, rho - h, m)
        fd_r = (e_p - e_m) / (2.0 * h)
        e_p, _ = kern.pair(gen, rho, m + h)
        e_m, _ = kern.pair(gen, rho, m - h)
        fd_m = (e_p - e_m) / (2.0 * h)
        scale = np.maximum(np.abs(fd_r), 1.0)
        assert np.max(np.abs(er - fd_r) / scale) < 1e-6
        assert np.max(np.abs(em - fd_m) / np.maximum(np.abs(fd_m), 1.0)) < 1e-6


def test_hessian_matches_finite_differences():
    g = GasLaw(1.4)
    kern = get_kernel(g)
    rng = np.random.default_rng(3)
    rho = rng.uniform(0.3, 3.0, 20)
    m = rho * rng.uniform(-1.5, 1.5, 20)
    h = 1e-4
    err, erm, emm = kern.hessian(gen_half_square(), rho, m)
    ep, _ = kern.pair(gen_half_square(), rho + h, m)
    e0, _ = kern.pair(gen_half_square(), rho, m)
    em_, _ = kern.pair(gen_half_square(), rho - h, m)
    fd_rr = (ep - 2 * e0 + em_) / h ** 2
    assert np.max(np.abs(err - fd_rr) / np.maximum(np.abs(fd_rr), 1.0)) < 1e-5
    gp = kern.pair_grad(gen_half_square(), rho, m + h)[2]
    gm = kern.pair_grad(gen_half_square(), rho, m - h)[2]
    fd_rm = (gp - gm) / (2 * h)
    assert np.max(np.abs(erm - fd_rm) / np.maximum(np.abs(fd_rm), 1.0)) < 1e-6
    # half_square entropy equals c_lam * mechanical energy: check eta_mm
    c = weight_moment(g.lambda_exp, 0)
    assert np.max(np.abs(emm - c / rho)) < 1e-10
    # kinked generators, on states whose range u +- rho^theta straddles a
    # kink, and on states off every kink (the far states of the ladder)
    for gen in (gen_half_signed_square(0.35), gen_convex_spline(0.0, 1.0),
                gen_convex_spline(0.35, 0.5)):
        rho_k = rng.uniform(0.3, 3.0, 20)
        u = np.array(gen.kinks)[rng.integers(len(gen.kinks), size=20)] \
            + rho_k ** g.theta * rng.uniform(-0.9, 0.9, 20)
        rho_k = np.concatenate([rho_k, [1.0, 0.125]])
        m_k = rho_k * np.concatenate([u, [0.75, 0.0]])
        grad = np.array(kern.pair_grad(gen, rho_k, m_k)[2:])
        hess = np.array(kern.hessian(gen, rho_k, m_k))
        fd_grad = [(kern.pair(gen, rho_k + dr, m_k + dm)[0]
                    - kern.pair(gen, rho_k - dr, m_k - dm)[0]) / (2 * h)
                   for dr, dm in ((h, 0.0), (0.0, h))]
        d_r = [(a - b) / (2 * h) for a, b in zip(
            kern.pair_grad(gen, rho_k + h, m_k)[2:],
            kern.pair_grad(gen, rho_k - h, m_k)[2:])]
        d_m = [(a - b) / (2 * h) for a, b in zip(
            kern.pair_grad(gen, rho_k, m_k + h)[2:],
            kern.pair_grad(gen, rho_k, m_k - h)[2:])]
        fd_hess = np.array([d_r[0], d_r[1], d_m[1]])
        assert np.max(np.abs(grad - fd_grad)) < 1e-6 * (1.0 + np.max(np.abs(grad))), \
            gen.name
        assert np.max(np.abs(hess - fd_hess)) < 1e-5 * (1.0 + np.max(np.abs(hess))), \
            gen.name
        assert np.max(np.abs(d_m[0] - hess[1])) < 1e-5 * (1.0 + np.max(np.abs(hess)))


def test_compatibility_relation_by_finite_differences():
    # grad q = grad eta . dF with dF = [[0, 1], [p' - u^2, 2u]]
    rng = np.random.default_rng(4)
    gens = [gen_half_square(), gen_quartic(), gen_smoothed_abs(0.0, 0.5),
            gen_bump(0.0, 2.0)]
    g = GasLaw(1.4)
    kern = get_kernel(g)
    rho = rng.uniform(0.2, 3.0, 25)
    m = rho * rng.uniform(-2.0, 2.0, 25)
    h = 1e-5
    for gen in gens:
        qr = (kern.pair(gen, rho + h, m)[1] - kern.pair(gen, rho - h, m)[1]) / (2 * h)
        qm = (kern.pair(gen, rho, m + h)[1] - kern.pair(gen, rho, m - h)[1]) / (2 * h)
        er = (kern.pair(gen, rho + h, m)[0] - kern.pair(gen, rho - h, m)[0]) / (2 * h)
        em = (kern.pair(gen, rho, m + h)[0] - kern.pair(gen, rho, m - h)[0]) / (2 * h)
        u = m / rho
        pp = g.kappa * g.gamma * rho ** (g.gamma - 1.0)
        scale = 1.0 + np.abs(qr) + np.abs(qm)
        assert np.max(np.abs(qr - em * (pp - u * u)) / scale) < 1e-5
        assert np.max(np.abs(qm - (er + 2.0 * u * em)) / scale) < 1e-5


def test_hessian_domination_by_mechanical_energy():
    # |xi' H_psi xi| <= M_psi xi' H_* xi for a bounded-curvature generator;
    # the worst xi per state is the generalized eigen-direction of the pencil
    g = GasLaw(2.0)
    kern = get_kernel(g)
    gen = gen_bump(0.0, 1.5)

    def worst_ratio(rr, mm):
        hr, hm, hmm = kern.hessian(gen, rr, mm)
        u = mm / rr
        s_rr = u * u / rr + g.kappa * g.gamma * rr ** (g.gamma - 2.0)
        s_rm = -u / rr
        s_mm = 1.0 / rr
        a2 = s_rr * s_mm - s_rm ** 2          # det of the energy Hessian > 0
        a1 = hr * s_mm + hmm * s_rr - 2.0 * hm * s_rm
        a0 = hr * hmm - hm ** 2
        disc = np.sqrt(np.maximum(a1 * a1 - 4.0 * a2 * a0, 0.0))
        return np.maximum(np.abs(a1 + disc), np.abs(a1 - disc)) / (2.0 * a2)

    rho, u = np.meshgrid(np.geomspace(0.02, 6.0, 160),
                         np.linspace(-5.0, 5.0, 161), indexing="ij")
    M = float(np.max(worst_ratio(rho.ravel(), (rho * u).ravel())))
    assert M > 0.0
    rng = np.random.default_rng(5)
    rho2 = rng.uniform(0.02, 6.0, 2000)
    m2 = rho2 * rng.uniform(-5.0, 5.0, 2000)
    assert np.all(worst_ratio(rho2, m2) <= 1.05 * M)


# ---------------------------------------------------------------------------
# kink splitting and certification
# ---------------------------------------------------------------------------


def _kernel_quad(f, lam, kinks):
    """int_{-1}^{1} f(s) (1 - s^2)^lam ds by adaptive quadrature split at the
    kinks; an end at +-1 hands its factor to QUADPACK's algebraic weight."""
    pts = [-1.0] + sorted(kinks) + [1.0]
    total = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        at_lo, at_hi = lo == -1.0, hi == 1.0

        def piece(s):
            return (f(s) * (1.0 if at_lo else (1.0 + s) ** lam)
                    * (1.0 if at_hi else (1.0 - s) ** lam))
        total += quad(piece, lo, hi, weight="alg",
                      wvar=(lam if at_lo else 0.0, lam if at_hi else 0.0),
                      epsabs=1e-14, limit=300)[0]
    return total


def test_kinked_generator_against_adaptive_quadrature():
    # every piece shape of the kernel quadrature: the full interval (no kink
    # inside), the left and right pieces (one kink) and an interior piece
    # (two kinks) against an independent adaptive oracle
    um = 0.35
    spline_states = {1.4: [(0.05, 0.3), (0.5, 0.8), (3.0, 0.1)],
                     5.0: [(0.5, 0.3), (0.5, 0.8), (1.3, 0.1)]}  # singular weight
    for gamma, states in spline_states.items():
        g = GasLaw(gamma)
        kern = get_kernel(g)
        lam, th = g.lambda_exp, g.theta
        cases = [(gen_half_signed_square(um), st)
                 for st in [(1.3, 0.2), (0.5, 0.35), (2.0, -1.0), (0.05, 0.3)]]
        cases += [(gen_convex_spline(0.0, 1.0), st) for st in states]
        inside_counts = []
        for gen, (rho, u) in cases:
            m = rho * u
            rt = rho ** th
            kinks = [s for s in ((k - u) / rt for k in gen.kinks) if -1 < s < 1]
            if gen.name.startswith("convex_spline"):
                inside_counts.append(len(kinks))
            oracle = rho * _kernel_quad(lambda s: gen.psi(u + rt * s), lam, kinks)
            oracle_q = rho * _kernel_quad(
                lambda s: (u + th * rt * s) * gen.psi(u + rt * s), lam, kinks)
            eta, q = kern.pair_certified(gen, rho, m)
            assert eta == pytest.approx(oracle, abs=1e-11 * (1.0 + abs(oracle)))
            assert q == pytest.approx(oracle_q, abs=1e-11 * (1.0 + abs(oracle_q)))
        assert inside_counts == [0, 1, 2]


def test_convex_spline_kink_split_certifies():
    g = GasLaw(5.0)  # singular weight
    kern = get_kernel(g)
    gen = gen_convex_spline(0.0, 1.0)
    rho = np.linspace(0.05, 3.0, 40)
    m = 0.4 * rho
    eta, q = kern.pair_certified(gen, rho, m)
    assert np.all(np.isfinite(eta)) and np.all(np.isfinite(q))


def test_certified_pair_evaluates_exact_states_once(monkeypatch):
    # a piece table's moments are exact and ignore n, so pair_certified
    # evaluates it once, with kinks inside the states' ranges or not; a
    # generator on quadrature nodes still doubles them
    calls = []
    real = EntropyKernel.moments

    def counted(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)
    monkeypatch.setattr(EntropyKernel, "moments", counted)
    g = GasLaw(2.0)
    rho = np.array([0.01, 0.5, 1.0, 2.0])
    u = np.array([2.5, 0.9, 0.5, -1.1])   # the last three straddle a kink
    for gen in (gen_convex_spline(), gen_half_signed_square(0.35)):
        calls.clear()
        eta, q = get_kernel(g).pair_certified(gen, rho, rho * u)
        assert len(calls) == 1, gen.name
        eta_n, q_n = get_kernel(g).pair(gen, rho, rho * u, 128)
        np.testing.assert_array_equal(eta, eta_n)
        np.testing.assert_array_equal(q, q_n)
    calls.clear()
    get_kernel(g).pair_certified(gen_smoothed_abs(), rho, rho * u)
    assert len(calls) >= 2


def test_certification_rejects_undeclared_discontinuity(monkeypatch):
    monkeypatch.setattr(entropy, "CERTIFY_MAX_NODES", 256)
    g = GasLaw(2.0)
    nasty = EntropyGenerator("step", lambda v: np.sign(v),
                             lambda v: np.zeros_like(v),
                             lambda v: np.zeros_like(v))
    with pytest.raises(QuadratureError):
        get_kernel(g).pair_certified(nasty, 1.3, 0.4)


def test_generators_report_convexity():
    v = np.linspace(-4.0, 4.0, 401)
    for gen in (gen_half_square(), gen_quartic(), gen_smoothed_abs(0.5, 0.3),
                gen_convex_spline(-0.2, 0.8)):
        assert gen.convex
        assert np.all(gen.d2psi(v) >= -1e-14)
    assert not gen_half_signed_square(0.1).convex  # odd about its shift
    assert not gen_bump(0.0, 1.0).convex


# ---------------------------------------------------------------------------
# reference states and relative energy
# ---------------------------------------------------------------------------


def test_reference_state_shape():
    ref = ReferenceState(1.0, 0.5, 0.25, -0.5)
    assert ref.state(-3.0)[0] == 1.0 and ref.state(2.0)[0] == 0.25
    assert ref.state(-2.0)[1] == 0.5 and ref.state(5.0)[1] == -0.5
    x = np.linspace(-2.0, 2.0, 101)
    assert np.all(np.diff(ref.state(x)[0]) <= 1e-15)
    assert np.all(np.diff(ref.state(x)[1]) <= 1e-15)


def test_relative_energy_density():
    g = GasLaw(2.0, delta=0.0)
    ref = ReferenceState.constant(1.0, 0.0)
    assert g.relative_energy(1.0, 0.0, *ref.state(0.0)) == pytest.approx(0.0)
    # h(rho) = rho^2/8: h(2) - h(1) - h'(1)(2-1) = 0.5 - 0.125 - 0.25 = 0.125
    assert g.relative_energy(2.0, 0.0, *ref.state(0.0)) == pytest.approx(0.125)
    rng = np.random.default_rng(6)
    ref2 = ReferenceState(1.0, 0.4, 0.2, 0.0)
    x = rng.uniform(-5.0, 5.0, 100_000)
    rho = rng.uniform(0.0, 6.0, 100_000)
    m = rho * rng.uniform(-4.0, 4.0, 100_000)
    vals = GasLaw(1.4, delta=0.05).relative_energy(rho, m, *ref2.state(x))
    assert np.all(vals >= -1e-13)


# ---------------------------------------------------------------------------
# the shifted (flux-dominating) pair
# ---------------------------------------------------------------------------


def _count_moments(monkeypatch):
    calls = []
    real = EntropyKernel.moments

    def counted(self, gens, rho_f, m_f, max_order=0, *args):
        calls.append((rho_f.size, max_order))
        return real(self, gens, rho_f, m_f, max_order, *args)
    monkeypatch.setattr(EntropyKernel, "moments", counted)
    return calls


def test_special_pair_check_takes_two_order_one_passes(monkeypatch):
    # one on the states, one at the far state, whatever fields it reports
    calls = _count_moments(monkeypatch)
    rng = np.random.default_rng(8)
    rho = rng.uniform(0.01, 3.0, 200)
    m = rho * rng.uniform(-2.0, 2.0, 200)
    rep = special_pair_check(GasLaw(2.0), ReferenceState(1.0, 0.5, 0.5, 0.0),
                             rho, m, M=50.0)
    assert len(rep.checks) == 6  # q_tilde_at_ref and the five inequalities
    assert sorted(calls) == [(1, 1), (200, 1)]


def test_pair_certified_evaluates_polynomial_generator_once(monkeypatch):
    calls = _count_moments(monkeypatch)
    rho, m = _states(np.random.default_rng(9), 30)
    get_kernel(GasLaw(2.0)).pair_certified(gen_quartic(), rho, m)
    assert calls == [(30, 0)]
    # a generator on quadrature nodes still doubles them
    get_kernel(GasLaw(2.0)).pair_certified(gen_smoothed_abs(), rho, m)
    assert len(calls) >= 3


def test_special_pair_vanishes_at_reference_velocity():
    g = GasLaw(2.0)
    ref = ReferenceState(0.8, 0.3, 0.2, 0.0)
    rho = np.linspace(0.05, 4.0, 17)
    eta_c, _, _, _ = special_pair_fields(g, ref, rho, rho * ref.u_minus)
    assert np.max(np.abs(eta_c)) < 1e-14


def test_q_tilde_negative_at_reference():
    for gamma in (1.4, 2.0, 3.0, 5.0):
        for rho_minus in (0.1, 1.0):
            for u_minus in (0.0, 1.0):
                ref = ReferenceState(rho_minus, u_minus, 0.5, 0.0)
                rep = special_pair_check(GasLaw(gamma), ref,
                                         np.array([1.0]), np.array([0.0]))
                assert rep.series["q_tilde_at_ref"] < 0.0
                assert list(rep.checks) == ["q_tilde_at_ref"] and rep.passed


def test_growth_inequality_fit_and_verify():
    g = GasLaw(2.0)
    ref = ReferenceState(1.0, 0.0, 0.125, 0.0)
    rho, u = np.meshgrid(np.linspace(0.0, 10.0, 100),
                         np.linspace(-10.0, 10.0, 100), indexing="ij")
    rep = special_pair_check(g, ref, rho, rho * u)
    M = 1.02 * max(v for k, v in rep.series.items() if k != "q_tilde_at_ref")
    rho2, u2 = np.meshgrid(np.linspace(0.0, 10.0, 173),
                           np.linspace(-10.0, 10.0, 171), indexing="ij")
    rep2 = special_pair_check(g, ref, rho2, rho2 * u2, M=M)
    assert len(rep2.checks) == 6 and not rep2.failing()
