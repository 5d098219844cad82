import random

import pytest
from mpmath import mp, mpf
from mpmath.libmp import to_fixed

from birthcut.poly import (Poly, _fixed, _fixed_monic, _fixed_series,
                           _fixed_split, count_real_roots, isolate_real_roots,
                           monic_from_roots)


def test_ring_operations():
    p = Poly([1, 2, 3])
    q = Poly([0, 1])
    assert (p * q).c == Poly([0, 1, 2, 3]).c
    assert (p + q)(mpf(2)) == p(mpf(2)) + 2
    assert (p - p).degree == -1
    assert (q ** 5)(mpf(3)) == 3 ** 5


def test_trailing_zeros_trimmed():
    assert Poly([1, 0, 0]).degree == 0
    assert not Poly([0, 0])


def test_deriv_antideriv_roundtrip():
    p = Poly([mpf("0.5"), -3, 0, mpf("2.25"), 7])
    q = p.deriv().antideriv(p[0])
    assert max(abs(a - b) for a, b in zip(p.c, q.c)) == 0


def test_horner_matches_powers():
    p = Poly([3, -1, 4, -1, 5])
    x = mpf("1.37")
    direct = sum(c * x ** k for k, c in enumerate(p.c))
    assert abs(p(x) - direct) < mpf("1e-35")


@pytest.mark.parametrize("n", [-1, -3])
def test_negative_power_is_an_error(n):
    # -1 >> 1 == -1, so the square-and-multiply loop never ended
    with pytest.raises(ValueError, match="need a power >= 0"):
        Poly([-2, 1]) ** n


def _fixed_sigma(roots, W):
    return _fixed_monic([to_fixed(mpf(r)._mpf_, W) for r in roots], W)


def test_fixed_floors_like_mp_floor_ldexp():
    # the one way into the integer layer floors, negatives included, and is
    # exact where v 2^F is an integer
    rng = random.Random(5)
    F = 256 + 32
    with mp.workprec(256):
        values = [mpf(0), mpf(1), mpf(-1), mp.ldexp(mpf(-3), -F - 1),
                  mp.ldexp(mpf(5), -F - 3), 2 ** 300 + mpf(1)]
        for _ in range(300):
            v = mp.ldexp(mpf(rng.random()), rng.randint(-F - 20, 60))
            values.append(v if rng.random() < 0.5 else -v)
        assert [_fixed(v, F) for v in values] \
            == [int(mp.floor(mp.ldexp(v, F))) for v in values]


def test_sqrt_sigma_tail_squares_back():
    # the integer series of sqrt(sigma)/x^{2s} times itself reproduces
    # sigma/x^{2s} to 2^-(W-8) of the largest product
    W = 160
    S = _fixed_sigma([-2, 2, 3, "3.5"], W)
    t = _fixed_series(S, 12, W, root=True)
    for n in range(13):
        products = [t[k] * t[n - k] for k in range(n + 1)]
        expect = S[4 - n] << W if n <= 4 else 0
        bound = max(max(abs(v) for v in products), 1 << 2 * W) >> (W - 8)
        assert abs(sum(products) - expect) <= bound, n


@pytest.mark.parametrize("roots", [
    (-2, 2), (-2, 2, 3, "3.5"), ("-1.9", "1.7", "2.41", "2.43", 4, "4.5")])
def test_sqrt_sigma_tail_power_identities(roots):
    # the series of sigma^(1/2) and sigma^(-1/2) to n = 50 at W = 200:
    # half^2 = sigma/x^{2s} and half * inv = 1, each to 2^-(W-8) of the
    # sum of the products' sizes
    W, jmax = 200, 50
    S = _fixed_sigma(roots, W)
    d = len(S) - 1
    half = _fixed_series(S, jmax, W, root=True)
    inv = _fixed_series(S, jmax, W)
    assert len(half) == len(inv) == jmax + 1
    for n in range(jmax + 1):
        sq = sum(half[k] * half[n - k] for k in range(n + 1))
        one = sum(half[k] * inv[n - k] for k in range(n + 1))
        scale = max(sum(abs(half[k] * half[n - k]) for k in range(n + 1)),
                    sum(abs(half[k] * inv[n - k]) for k in range(n + 1)),
                    1 << 2 * W)
        expect = S[d - n] << W if n <= d else 0
        assert abs(sq - expect) <= scale >> (W - 8), n
        assert abs(one - (1 << 2 * W if n == 0 else 0)) <= scale >> (W - 8), n


def test_laurent_split_contour_moments():
    # c_j of the split of f/sqrt(sigma), sigma = x^2 - 4, equals the contour
    # integral (1/2pi i) oint x^{j-1} f/sqrt(sigma); at W = 0 the series,
    # binom(2k, k) at x^-2k, and the split are exact integers
    import mpmath
    f = Poly([1, -2, 0, 1])  # x^3 - 2x + 1
    t = _fixed_series([-4, 0, 1], 8, 0)
    assert t == [1, 0, 2, 0, 6, 0, 20, 0, 70]
    M, c = _fixed_split([1, -2, 0, 1], t, 1, 6)
    R = mpf(7)
    for j in (1, 2, 3):
        val = mpmath.quad(
            lambda th: (R * mpmath.exp(1j * th)) ** (j - 1)
            * f(R * mpmath.exp(1j * th))
            / (R * mpmath.exp(1j * th) * mpmath.sqrt(1 - 4 / (R * mpmath.exp(1j * th)) ** 2))
            * 1j * R * mpmath.exp(1j * th) / (2j * mpmath.pi),
            [0, 2 * mpmath.pi])
        assert abs(val.real - c[j]) < mpf("1e-25")
    # the polynomial part of (x^3 - 2x + 1)/sqrt(x^2 - 4) is x^2
    assert M == [0, 0, 1]


def test_sturm_counts():
    p = monic_from_roots([-3, mpf("-0.5"), 1, 2, 4])
    assert count_real_roots(p, -10, 10) == 5
    assert count_real_roots(p, 0, 3) == 2
    assert count_real_roots(p, mpf("1.5"), mpf("1.7")) == 0
    nroots = Poly([1, 0, 1])  # x^2 + 1
    assert count_real_roots(nroots, -100, 100) == 0


def test_isolation_brackets_each_root():
    roots = [mpf(r) for r in ("-1.25", "0.5", "2.75")]
    p = monic_from_roots(roots)
    boxes = isolate_real_roots(p, -5, 5)
    assert len(boxes) == 3
    for (lo, hi), r in zip(boxes, roots):
        assert lo < r <= hi
