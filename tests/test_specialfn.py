import random
from math import isqrt

import mpmath
import pytest
from mpmath import mp, mpc, mpf
from mpmath.libmp import to_fixed

from birthcut.quadrature import ConvergenceError
from birthcut.specialfn import (agm_fixed, agm_integrals, theta1_axis,
                                theta1_prime0)
from conftest import (agm_reference, ln_factorial, ln_zeta_asymptotic,
                      ln_zeta_nu1_exact, small_m_E, small_m_Eprime, small_m_K,
                      sn_cn_dn)


def test_m_zero_degeneration():
    u = mpf("0.7")
    sn, cn, dn = sn_cn_dn(u, 0)
    assert abs(sn - mp.sin(u)) < mpf("1e-35")
    assert abs(cn - mp.cos(u)) < mpf("1e-35")
    assert abs(dn - 1) < mpf("1e-35")


def test_sn_at_complete_integral():
    for m in ("0.3", "0.8"):
        K = agm_integrals(1 - mpf(m)).K
        sn, _, _ = sn_cn_dn(K, mpf(m))
        assert abs(sn - 1) < mpf("1e-30")


def test_pythagorean_identities_random():
    rng = random.Random(7)
    worst = mpf(0)
    for _ in range(200):
        u = mpf(rng.uniform(-3, 3))
        m = mpf(rng.uniform(0, 0.999))
        sn, cn, dn = sn_cn_dn(u, m)
        worst = max(worst, abs(sn * sn + cn * cn - 1),
                    abs(dn * dn + m * sn * sn - 1))
    assert worst < mpf("1e-25")


def test_pole_rejection():
    Kprime = agm_integrals(mpf("0.5")).K
    with pytest.raises(ValueError):
        sn_cn_dn(mpc(0, 1) * Kprime, mpf("0.5"))


def test_complete_integral_values():
    K, E = agm_integrals(1)[:2]          # m = 0
    assert abs(K - mp.pi / 2) < mpf("1e-35")
    assert abs(E - mp.pi / 2) < mpf("1e-35")


def test_legendre_relation_across_m():
    for m in ("1e-8", "1e-4", "0.01", "0.25", "0.5", "0.75", "0.99"):
        K, E = agm_integrals(1 - mpf(m))[:2]
        Kp, Ep = agm_integrals(mpf(m))[:2]
        legendre = E * Kp + Ep * K - K * Kp
        assert abs(legendre - mp.pi / 2) < mpf("1e-12")


def agm_fixed_K_E_Pi(mc, n):
    """K, E and Pi(n|m) at m = 1 - mc, n < 1, from `agm_fixed`'s sums closed
    in mpf at 20 guard bits, with W sized as `agm_integrals` sizes it plus
    -mag(1 - n) for the sum that n/(1-n) multiplies (the closing that
    `equilibrium._gap_moments` does in integers)."""
    mc, n = mpf(mc), mpf(n)
    with mp.workprec(mp.prec + 20):
        W = mp.prec + 32 + max(0, -mp.mag(mc)) + max(0, -mp.mag(1 - n))
        one = 1 << W
        a, csum, qsum, _, _ = agm_fixed(
            W, isqrt(to_fixed(mc._mpf_, 2 * W)),
            (one - to_fixed(mc._mpf_, W)) >> 1, 1 << (W - mp.prec),
            one - to_fixed(n._mpf_, W))
        a = mpf((a, -W))
        K = mp.pi / (2 * a)
        E = K * mpf((one - csum, -W))
        Pi = mp.pi / (4 * a) * (2 + n / (1 - n) * mpf((qsum, -W)))
    return +K, +E, +Pi


def test_complete_K_E_Pi_matches_mpmath():
    # one AGM sequence against mpmath's ellipk/ellipe/ellippi, including the
    # newborn-cut regime m -> 1 and a negative characteristic: K and E from
    # `agm_integrals`, and all three from `agm_fixed`'s sums with the Pi sum
    for mc, n in (("1e-12", "0.1"), ("1e-6", "0.13"), ("0.003", "0.45"),
                  ("0.3", "0.5"), ("0.9", "0.05"), ("1", "0.2"),
                  ("0.5", "-0.7")):
        mc, n = mpf(mc), mpf(n)
        with mp.workprec(mp.prec + 40):
            m = 1 - mc
            ref = (mpmath.ellipk(m), mpmath.ellipe(m), mpmath.ellippi(n, m))
        for got in (agm_integrals(mc)[:2], agm_fixed_K_E_Pi(mc, n)):
            for g, r in zip(got, ref):
                assert abs(g - r) < mpf("1e-38") * abs(r), (mc, n)
    with pytest.raises(ValueError):
        agm_integrals(0)


@pytest.mark.parametrize("m", ["1e-12", "0.3", "0.9", "0.999999999999"])
def test_incomplete_F_E_from_the_agm_match_mpmath(m):
    # the Landen amplitude on the AGM sequence, against mpmath's F and E at
    # 40 more bits; the amplitude goes in as (cos phi, sin phi), so that
    # phi = pi/2 - 1e-15 enters as cos phi = sin(1e-15), not as a rounded phi
    m = mpf(m)
    cases = [(mp.cos(mpf(v)), mp.sin(mpf(v))) for v in ("1e-20", "0.3", "1.2")]
    cases.append((mp.sin(mpf("1e-15")), mp.cos(mpf("1e-15"))))
    for x, y in cases:
        got = agm_integrals(1 - m, amplitude=(x, y))
        with mp.workprec(mp.prec + 40):
            phi = mp.atan2(y, x)
            ref_F, ref_E = mpmath.ellipf(phi, m), mpmath.ellipe(phi, m)
        assert abs(got.F - ref_F) <= mpf("1e-38") * abs(ref_F), (m, phi)
        assert abs(got.E_phi - ref_E) <= mpf("1e-38") * abs(ref_E), (m, phi)
    with pytest.raises(ValueError):
        agm_integrals(mpf("0.5"), amplitude=(mpf(-1), mpf(1)))


@pytest.mark.parametrize("dps", [15, 40, 60])
def test_fixed_point_agm_equals_the_mpf_loop(dps):
    # the integer loop against the same sequence in mpf at 20 guard bits,
    # bit for bit: mc down to 1e-30, amplitude coordinates from 1e-6 to 1e3
    # through `agm_integrals`, and n up to 1 - 1e-8 (and negative) through
    # `agm_fixed`'s Pi sum
    rng = random.Random(dps)
    with mp.workdps(dps):
        for i in range(1200):
            mc = mpf(10) ** mpf(rng.uniform(-30, 0))
            if i % 2:
                n = 1 - mpf(10) ** mpf(rng.uniform(-8, 0.5))
                got = agm_fixed_K_E_Pi(mc, n)
                assert got == agm_reference(mc, n)[:3], (mc, n)
            else:
                amplitude = tuple(mpf(10) ** mpf(rng.uniform(-6, 3))
                                  for _ in range(2))
                got = tuple(agm_integrals(mc, amplitude))
                K, E, _, F, E_phi = agm_reference(mc, amplitude=amplitude)
                assert got == (K, E, F, E_phi), (mc, amplitude)


def test_theta1_odd_and_zero():
    tau = mpf("0.8")
    assert theta1_axis(0, tau) == 0
    v = mpf("0.3")
    assert abs(theta1_axis(-v, tau) + theta1_axis(v, tau)) < mpf("1e-30")


def test_theta1_quasi_periodicity():
    # theta1(z + T | T) = -q^{-1} e^{-2 pi i z} theta1(z | T) at z = iv,
    # T = i tau: a shift of v by tau multiplies by -e^{pi (tau + 2 v)}
    tau = mpf("0.9")
    for v in (mpf("0.21"), mpf("-0.35")):
        lhs = theta1_axis(v + tau, tau)
        rhs = -mp.exp(mp.pi * (tau + 2 * v)) * theta1_axis(v, tau)
        assert abs(lhs - rhs) < mpf("1e-25") * abs(rhs)


def test_theta1_prime_is_z_derivative():
    tau = mpf("1.2")
    h = mpf("1e-12")
    fd = (theta1_axis(h, tau) - theta1_axis(-h, tau)) / (2 * h)
    assert abs(fd - theta1_prime0(tau)) < mpf("1e-20")


@pytest.mark.parametrize("dps", [60, 100])
def test_theta1_at_the_working_precision(dps):
    # mpmath's jtheta(1, z, q) takes a period-2 pi argument; v = 0.2 keeps
    # off the zeros of theta1_axis at the multiples of tau
    with mp.workdps(dps):
        tol = mpf(2) ** (16 - mp.prec)
        v = mpf("0.2")
        for tau in ("0.3", "1", "3"):
            tau = mpf(tau)
            q = mp.exp(-mp.pi * tau)
            ref = (mpmath.jtheta(1, mpc(0, mp.pi * v), q) / mpc(0, 1)).real
            assert abs(theta1_axis(v, tau) - ref) <= tol * abs(ref), tau
            ref = mp.pi * mpmath.jtheta(1, 0, q, 1)
            assert abs(theta1_prime0(tau) - ref) <= tol * abs(ref), tau


def test_theta1_says_when_its_series_does_not_converge():
    # at tau = 1e-5 the nome is 1 - 3e-5 and the series needs thousands of
    # terms; the 200-term partial sum is not returned
    tau = mpf("1e-5")
    with pytest.raises(ConvergenceError):
        theta1_axis(mpf("0.3"), tau)
    with pytest.raises(ConvergenceError):
        theta1_prime0(tau)


def test_theta1_rejects_lower_half_plane():
    # T = i tau with tau <= 0 is not in the upper half plane
    for tau in (-1, 0):
        with pytest.raises(ValueError):
            theta1_axis(mpf("0.2"), tau)
        with pytest.raises(ValueError):
            theta1_prime0(tau)


def test_gamma_formula_small_m_reduction():
    # gamma from theta1 tends to exp(-pi u_inf^2/(K K')) = exp(pi F_inf^2/(K K'))
    # as m -> 0 (E1 anchor)
    from birthcut.equilibrium import EqMeasure, _fill_two_cut_data, gamma_two_cut
    from birthcut.poly import Poly
    a, b, c = mpf(-2), mpf(2), mpf(3)
    delta = mpf("1.25e-6")           # makes the biratio ~ 1e-6
    mu = EqMeasure(s=2, endpoints=(a, b, c, c + delta), M=Poly([1]), T=mpf(1),
                   V=Poly([0, 0, 1]))
    _fill_two_cut_data(mu)
    assert mu.m < mpf("2e-6")
    gam = gamma_two_cut(mu)
    lead = mp.exp(mp.pi * mu.F_inf ** 2 / (mu.K * mu.Kprime))
    assert abs(gam - lead) / lead < mpf("1e-5")


def test_ln_factorial():
    assert abs(ln_factorial(5) - mp.log(120)) < mpf("1e-35")
    assert ln_factorial(0) == 0


def test_ln_zeta_nu1_closed_form():
    val = ln_zeta_nu1_exact(3)
    expect = mpf(3) / 2 * mp.log(2 * mp.pi) + mp.log(1) + mp.log(1) + mp.log(2)
    assert abs(val - expect) < mpf("1e-30")


def test_ln_zeta_asymptotic_scaling():
    # doubling k quadruples the leading k^2 ln k/(2 nu) term, roughly
    a = ln_zeta_asymptotic(20, 2)
    b = ln_zeta_asymptotic(40, 2)
    assert b > 3 * a


def test_small_m_expansions_match_true_functions():
    # the acceptance tolerances: < 5 m^3 for K, E and < 5 m^2 for E'
    for m in (mpf("1e-3"), mpf("1e-4"), mpf("1e-5")):
        assert abs(mpmath.ellipk(m) - small_m_K(m)) < 5 * m ** 3
        assert abs(mpmath.ellipe(m) - small_m_E(m)) < 5 * m ** 3
        assert abs(mpmath.ellipe(1 - m) - small_m_Eprime(m)) < 5 * m ** 2
