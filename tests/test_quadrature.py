"""The Gauss-Legendre rule, and the stopping rule and cap of the adaptive
quadrature rules.

They stop against sum |w f|, so an integral that cancels to zero converges
like any other, and one that reaches its cap raises. Integrand evaluations
are counted, not timed.
"""

import pytest
from mpmath import mp, mpf

from birthcut import equilibrium, quadrature
from birthcut.critical import two_cut_guess
from birthcut.potentials import quartic_etilde
from birthcut.quadrature import (TOL_DIGITS, ConvergenceError,
                                 gauss_legendre, integrate_bracket,
                                 integrate_doubling, legendre_seeds)
from conftest import quartic


def test_vanishing_integral_converges_in_few_doublings():
    # A1's vanishing condition for the quartic closed form; running to
    # max_panels = 64 would cost 64 * 127 = 8128 evaluations
    for phi in ("0.5", "1.0", "1.5"):
        phi = mpf(phi)
        e = 2 * mp.cosh(phi)
        closed = quartic_etilde(phi)
        calls = [0]

        def f(t):
            calls[0] += 1
            return (2 * mp.cosh(t) - e) * (2 * mp.cosh(t) - closed) * 4 * mp.sinh(t) ** 2

        val = integrate_doubling(f, 0, phi)
        assert abs(val) < mpf("1e-30")
        assert calls[0] <= 64 * (1 + 2 + 4 + 8)


def test_cap_raises_convergence_error():
    # |x - 1/3| has a kink off every panel boundary: no small cap resolves it
    kink = lambda x: abs(x - mpf(1) / 3)
    with pytest.raises(ConvergenceError):
        integrate_doubling(kink, 0, 1, max_panels=4)
    with pytest.raises(ConvergenceError):
        integrate_bracket(kink, -1, 1, max_n=128)
    assert equilibrium.ConvergenceError is ConvergenceError


def counted(f):
    """f and a list whose length is the number of calls made to it."""
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    return g, calls


def test_nested_bracket_run_that_ends_at_n_calls_f_n_plus_one_times():
    # the trapezoid nodes i pi/n of each level are nodes of the next: a
    # cubic is exact at n = 4 and 8, so the run ends at n = 8 (the midpoint
    # rule called f 4 + 8 times); a kink runs to the cap, 128 + 1 calls
    # where the midpoint rule made 32 + 64 + 128
    f, calls = counted(lambda x: x ** 3 - 2 * x + 1)
    integrate_bracket(f, -1, 2, n_start=4)
    assert len(calls) == 8 + 1 and len(set(calls)) == len(calls)
    f, calls = counted(lambda x: abs(x - mpf(1) / 3))
    with pytest.raises(ConvergenceError):
        integrate_bracket(f, -1, 1, max_n=128)
    assert len(calls) == 128 + 1


def test_normalization_of_a_two_cut_measure_calls_f_129_and_65_times(
        monkeypatch):
    # each cut's run ends where the midpoint rule's did (n = 128 and 64),
    # with n + 1 calls each; the midpoint rule made 224 and 96
    spec = quartic("1.0")
    t = mpf("1e-4") * spec.Tc
    mu = equilibrium.solve_two_cut(spec.V, spec.Tc + t, two_cut_guess(spec, t))
    runs = []

    def spy(f, a, b, **kwargs):
        g, calls = counted(f)
        runs.append(calls)
        return integrate_bracket(g, a, b, **kwargs)

    monkeypatch.setattr(equilibrium, "integrate_bracket", spy)
    assert abs(equilibrium.normalization(mu) - 1) < mpf("1e-35")
    assert [len(calls) for calls in runs] == [129, 65]


def test_bracket_nodes_take_no_mp_cos(monkeypatch):
    # the cosine nodes come from one integer rotation per level, not from
    # mp.cos: the ends first, then i pi/32 for 0 < i < 32, then the odd i
    # of each doubled level, each node within 2^-prec (b - a) of
    # mid + half cos(i pi/n) formed at twice the precision
    a, b = mpf("-1.5"), mpf("2.25")
    f, nodes = counted(lambda x: mp.exp(x) * mp.sin(3 * x))
    with monkeypatch.context() as m:
        m.setattr(mp, "cos", None)
        integrate_bracket(f, a, b)
    angles = [(i, 32) for i in range(1, 32)]
    while len(angles) < len(nodes) - 2:
        n = 2 * angles[-1][1]
        angles += [(i, n) for i in range(1, n, 2)]
    assert nodes[:2] == [a, b] and len(angles) == len(nodes) - 2 > 31
    with mp.workprec(2 * mp.prec):
        worst = max(abs(x - (a + b) / 2 - (b - a) / 2 * mp.cos(i * mp.pi / n))
                    for x, (i, n) in zip(nodes[2:], angles))
    assert worst <= mp.ldexp(b - a, -mp.prec)


@pytest.mark.parametrize("n", [5, 37])
def test_legendre_newton_raises_at_its_cap(monkeypatch, n):
    # a root that needs more than NEWTON_CAP steps raises, in the float
    # seeds (Tricomi's start is not a root to 1e-15) and in the integer
    # Newton from those seeds (3 passes at 320 bits)
    seeds = legendre_seeds(n)
    monkeypatch.setattr(quadrature, "NEWTON_CAP", 1)
    with pytest.raises(ConvergenceError, match="P_%d" % n):
        legendre_seeds(n)
    monkeypatch.setattr(quadrature, "legendre_seeds", lambda order: seeds)
    monkeypatch.setattr(quadrature, "_CACHE", {})
    with mp.workprec(320):
        with pytest.raises(ConvergenceError, match="P_%d" % n):
            gauss_legendre(n)


def midpoint_bracket(f, a, b, n):
    """The cosine-substituted midpoint rule of n nodes: the bracket rule
    before its nodes nested."""
    mid, half, h = (mpf(a) + b) / 2, (mpf(b) - a) / 2, mp.pi / n
    return h * mp.fsum(f(mid + half * mp.cos((i + mpf(1) / 2) * h))
                       for i in range(n))


@pytest.mark.parametrize("f", [lambda x: mp.exp(x) * mp.cos(3 * x),
                               lambda x: 1 / (x * x + 4),
                               lambda x: mp.sqrt(x + 3) * (x - mpf(1) / 7)])
def test_nested_bracket_agrees_with_the_midpoint_rule(f):
    # both rules are spectrally accurate for smooth f: the adaptive nested
    # value agrees with a converged 512-node midpoint value to rel_tol
    # times sum |w f|
    a, b = mpf("-1.5"), mpf("2.25")
    scale = midpoint_bracket(lambda x: abs(f(x)), a, b, 512)
    rel_tol = mpf(10) ** (TOL_DIGITS - mp.dps)
    assert abs(integrate_bracket(f, a, b) - midpoint_bracket(f, a, b, 512)) \
        <= rel_tol * scale


@pytest.mark.parametrize("prec", [136, 256, 320])
def test_gauss_legendre_rule_is_symmetric_and_exact(prec):
    # the 64-point rule integrates x^{2j}, j < 64, exactly: 2/(2j + 1), and
    # j = 0 is sum w = 2; the sums are formed 64 bits above the rule's
    with mp.workprec(prec):
        xs, ws = gauss_legendre(64)
        assert xs == sorted(xs) and len(xs) == 64
        assert xs == [-x for x in reversed(xs)] and ws == ws[::-1]
    with mp.workprec(prec + 64):
        for j in range(64):
            s = mp.fsum(w * x ** (2 * j) for x, w in zip(xs, ws))
            assert abs(s - mpf(2) / (2 * j + 1)) <= mpf(2) ** (-prec + 4), j


ORDERS = [1, 2, 3, 16, 64, 65, 128]


@pytest.mark.parametrize("n", ORDERS)
def test_legendre_seeds_are_the_non_negative_roots(n):
    # ceil(n/2) roots, strictly ascending in [0, 1), 0 exactly when n is
    # odd, and each a float root of P_n: within 1e-14 of the 256-bit node
    seeds = legendre_seeds(n)
    assert len(seeds) == (n + 1) // 2
    assert all(a < b for a, b in zip(seeds, seeds[1:]))
    assert 0 <= seeds[0] and seeds[-1] < 1
    assert (seeds[0] == 0) == (n % 2 == 1)
    with mp.workprec(256):
        xs, _ = gauss_legendre(n)
    assert all(abs(s - x) < 1e-14 for s, x in zip(seeds, xs[n // 2:]))


@pytest.mark.parametrize("n", ORDERS)
def test_gauss_legendre_rule_is_exact_at_every_order(n):
    # as for the 64-point rule above: x^{2j}, j < n, integrates to 2/(2j + 1)
    prec = 256
    with mp.workprec(prec):
        xs, ws = gauss_legendre(n)
        assert len(xs) == len(ws) == n and xs == sorted(xs)
        assert xs == [-x for x in reversed(xs)] and ws == ws[::-1]
    with mp.workprec(prec + 64):
        for j in range(n):
            s = mp.fsum(w * x ** (2 * j) for x, w in zip(xs, ws))
            assert abs(s - mpf(2) / (2 * j + 1)) <= mpf(2) ** (-prec + 4), (n, j)


def test_rules_derived_across_precisions_equal_fresh_builds(monkeypatch):
    # a rule rounded from a finer cached rule, or refined by Newton from a
    # coarser one, equals the rule built from the float seeds bit for bit;
    # from 256 to 320 bits Newton takes 1 pass per root, not 3
    from birthcut import quadrature
    slopes = []
    slope = quadrature._legendre_slope
    monkeypatch.setattr(quadrature, "_legendre_slope",
                        lambda *a: slopes.append(1) or slope(*a))

    def rule(prec, cached=()):
        monkeypatch.setattr(quadrature, "_CACHE", {})
        for p in cached:
            with mp.workprec(p):
                gauss_legendre(64)
        slopes.clear()
        with mp.workprec(prec):
            xs, ws = gauss_legendre(64)
        return [v._mpf_ for v in xs + ws], len(slopes)

    fresh = {p: rule(p) for p in (136, 256, 320)}
    assert fresh[320][1] == 32 * 3
    for prec, cached in ((136, (320,)), (256, (320,)), (136, (256, 320)),
                         (320, (256,)), (320, (136,))):
        got, steps = rule(prec, cached)
        assert got == fresh[prec][0], (prec, cached)
        if min(cached) > prec:
            assert steps == 0
    assert rule(320, (256,))[1] == 32 * 1
