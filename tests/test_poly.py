import pytest
from mpmath import mp, mpf

from birthcut.poly import (Poly, _float_horner, count_real_roots,
                           isolate_real_roots, laurent_split, monic_from_roots,
                           sqrt_sigma_tail)


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


def test_float_horner_value_and_scale():
    # 5x^4 - x^3 + 4x^2 - x + 3, highest degree first, exact in floats
    coeffs = [5.0, -1.0, 4.0, -1.0, 3.0]
    assert _float_horner(coeffs, 2.0) == (89.0, 109.0)
    assert _float_horner(coeffs, -2.0) == (109.0, 109.0)
    assert _float_horner([], 2.0) == (0.0, 0.0)


def test_sqrt_sigma_tail_squares_back():
    # sqrt(sigma) series times itself must reproduce sigma/x^{2s}
    sigma = monic_from_roots([-2, 2, 3, mpf("3.5")])
    t = sqrt_sigma_tail(sigma, 12)
    sq = [mpf(0)] * 13
    for i, a in enumerate(t):
        for j, b in enumerate(t):
            if i + j <= 12:
                sq[i + j] += a * b
    for j in range(13):
        expect = sigma[4 - j] if j <= 4 else mpf(0)
        assert abs(sq[j] - expect) < mpf("1e-30")


@pytest.mark.parametrize("roots", [
    (-2, 2), (-2, 2, 3, "3.5"), ("-1.9", "1.7", "2.41", "2.43", 4, "4.5")])
def test_sqrt_sigma_tail_power_identities(roots):
    # tail(1/2)^2 = sigma / x^{2s} and tail(1/2) tail(-1/2) = 1 to jmax = 50
    sigma = monic_from_roots([mpf(r) for r in roots])
    jmax, d = 50, sigma.degree
    half = sqrt_sigma_tail(sigma, jmax)
    inv = sqrt_sigma_tail(sigma, jmax, alpha=-mpf(1) / 2)
    assert len(half) == len(inv) == jmax + 1
    for n in range(jmax + 1):
        sq = sum(half[k] * half[n - k] for k in range(n + 1))
        one = sum(half[k] * inv[n - k] for k in range(n + 1))
        scale = sum(abs(half[k] * half[n - k]) for k in range(n + 1))
        expect = sigma[d - n] if n <= d else 0
        assert abs(sq - expect) <= mpf("1e-36") * max(scale, 1), n
        assert abs(one - (1 if n == 0 else 0)) <= mpf("1e-36") * max(scale, 1), n


def test_laurent_split_contour_moments():
    # c_j from the series equals the contour integral (1/2pi i) oint x^{j-1} f/sqrt(sigma)
    import mpmath
    sigma = monic_from_roots([-2, 2])
    f = Poly([1, -2, 0, 1])  # x^3 - 2x + 1
    tail = sqrt_sigma_tail(sigma, 8, alpha=-mpf(1) / 2)
    M, c = laurent_split(f, tail, 1, 6)
    R = mpf(7)
    for j in (1, 2, 3):
        val = mpmath.quad(
            lambda th: (R * mpmath.exp(1j * th)) ** (j - 1)
            * f(R * mpmath.exp(1j * th))
            / (R * mpmath.exp(1j * th) * mpmath.sqrt(1 - 4 / (R * mpmath.exp(1j * th)) ** 2))
            * 1j * R * mpmath.exp(1j * th) / (2j * mpmath.pi),
            [0, 2 * mpmath.pi])
        assert abs(val.real - c[j]) < mpf("1e-25")
    # polynomial part of x^3/sqrt((x-2)(x+2)) is x^2 + 2 to leading orders
    assert M.degree == 2


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
