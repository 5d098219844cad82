"""Near-critical scaling data: exact polynomial identities and solver checks."""

from fractions import Fraction
from math import comb, factorial

import pytest
from mpmath import mp, mpf

from birthcut.critical import (g_scaling_poly, newborn_scaling, one_cut_drift,
                               scaling_constant_C, scaling_zeta,
                               transition_curvature, two_cut_guess)
from birthcut.equilibrium import PhaseError
from birthcut.poly import Poly
from conftest import quartic, spec_nu


def g_fraction_coeffs(nu):
    """G with zeta = 1 as exact rationals, ascending in xi."""
    c = [Fraction(0)] * (2 * nu - 1)
    for k in range(nu):
        c[2 * (nu - 1 - k)] = Fraction(comb(2 * k, k))
    return c


def poly_eval_frac(c, x):
    acc = Fraction(0)
    for ck in reversed(c):
        acc = acc * x + ck
    return acc


@pytest.mark.parametrize("nu", [1, 2, 3, 4, 5, 6])
def test_g_differential_identity_exact(nu):
    # (2nu-2) G - xi G' = 4 zeta^2 (G - G(2 zeta))/(xi^2 - 4 zeta^2),
    # coefficient-wise in exact arithmetic with zeta = 1 (homogeneity)
    G = g_fraction_coeffs(nu)
    dG = [k * G[k] for k in range(1, len(G))]
    lhs = [(2 * nu - 2) * G[k] - k * G[k] for k in range(len(G))]
    # rhs: divide G(xi) - G(2) exactly by (xi^2 - 4)
    num = list(G)
    num[0] -= poly_eval_frac(G, Fraction(2))
    # synthetic division by xi^2 - 4
    q = [Fraction(0)] * (len(num) - 2)
    rem = list(num)
    for k in range(len(num) - 1, 1, -1):
        q[k - 2] = rem[k]
        rem[k] = Fraction(0)
        rem[k - 2] += 4 * q[k - 2]
    assert rem[0] == 0 and all(v == 0 for v in rem), "division must be exact"
    rhs = [4 * v for v in q] + [Fraction(0), Fraction(0)]
    assert all(a == b for a, b in zip(lhs, rhs))


@pytest.mark.parametrize("nu", [1, 2, 3, 4, 5, 6])
def test_zeta_closure_exact(nu):
    # 4 zeta^2 G(2 zeta) = C reduces to 2 S nu! (nu-1)! = (2 nu)! with
    # S = sum_k binom(2k, k) 4^{nu-1-k}
    S = sum(comb(2 * k, k) * 4 ** (nu - 1 - k) for k in range(nu))
    assert 2 * S * factorial(nu) * factorial(nu - 1) == factorial(2 * nu)


def test_zeta_closure_numeric():
    for phi in ("0.6", "1.0"):
        spec = quartic(phi)
        z = scaling_zeta(spec)
        C = scaling_constant_C(spec)
        G = g_scaling_poly(spec.nu, z)
        assert abs(4 * z ** 2 * G(2 * z) - C) < mpf("1e-12") * C
        lhs = G(2 * z) / z ** (2 * spec.nu - 2)
        rhs = mpf(factorial(2 * spec.nu)) / (2 * factorial(spec.nu - 1)
                                             * factorial(spec.nu))
        assert abs(lhs - rhs) < mpf("1e-12") * rhs


def test_g_small_nu_forms():
    assert g_scaling_poly(1, mpf("0.7")).c == Poly([1]).c
    z = mpf("0.83")
    G2 = g_scaling_poly(2, z)
    expect = Poly([2 * z * z, 0, 1])
    assert all(abs(a - b) < mpf("1e-30") for a, b in zip(G2.c, expect.c))


def g_scaling_hyperbolic(nu, zeta, psi):
    """The second form of G: G(2 zeta cosh(psi)) = zeta^{2nu-2} *
    sum_j binom(2nu-1, nu+j) sinh((2j+1) psi)/sinh(psi)."""
    acc = mpf(0)
    for j in range(nu):
        acc += comb(2 * nu - 1, nu + j) * mp.sinh((2 * j + 1) * psi) / mp.sinh(psi)
    return zeta ** (2 * nu - 2) * acc


@pytest.mark.parametrize("nu", [1, 2, 3, 4])
def test_g_hyperbolic_form(nu):
    z = mpf("0.9")
    G = g_scaling_poly(nu, z)
    for psi in ("0.3", "0.8", "1.7"):
        xi = 2 * z * mp.cosh(mpf(psi))
        alt = g_scaling_hyperbolic(nu, z, mpf(psi))
        assert abs(G(xi) - alt) < mpf("1e-12") * max(abs(alt), mpf(1))


def test_one_cut_drift_limits_and_signs():
    spec = quartic("1.0")
    d = one_cut_drift(spec, mpf("-1e-12"))
    assert abs(d["a"] + 2) < mpf("1e-11")
    assert abs(d["b"] - 2) < mpf("1e-11")
    assert abs(d["gamma_n"] - 1) < mpf("1e-11")
    assert abs(d["beta_n"]) < mpf("1e-11")
    d2 = one_cut_drift(spec, mpf("-1e-3"))
    assert d2["a"] > -2 and d2["b"] < 2      # the cut shrinks below T_c
    with pytest.raises(ValueError):
        one_cut_drift(spec, mpf("1e-3"))


def test_newborn_constants():
    spec = quartic("1.0")
    ns = newborn_scaling(spec, mpf("1e-4") * spec.Tc)
    # nu = 1: zeta = sqrt(phi_e/(sinh(phi_e) Q(e)))
    z_expect = mp.sqrt(spec.phi_e / (mp.sinh(spec.phi_e) * spec.Q(spec.e)))
    assert abs(ns.zeta - z_expect) < mpf("1e-25")
    assert ns.C > 0
    assert ns.c < spec.e < ns.d
    assert ns.delta_x0 < 0                  # x0 sits left of d (ln t < 0)
    assert ns.m_asym > 0 and ns.epsilon > 0
    with pytest.raises(ValueError):
        newborn_scaling(spec, mpf("-1e-4"))


def test_newborn_endpoints_bracket_solver():
    # |(d-c)/2 - 2 zeta (-t/ln that)^{1/2}| shrinks as t decreases
    from birthcut.equilibrium import solve_two_cut
    spec = quartic("1.0")
    gaps = []
    for texp in ("1e-3", "1e-4"):
        t = mpf(texp) * spec.Tc
        ns = newborn_scaling(spec, t)
        a = -2 + t / ((2 + spec.e) * spec.Q(mpf(-2)))
        b = 2 - t / ((spec.e - 2) * spec.Q(mpf(2)))
        mu = solve_two_cut(spec.V, spec.Tc + t, guess=(a, b, ns.c, ns.d))
        half_solver = (mu.endpoints[3] - mu.endpoints[2]) / 2
        half_ansatz = (ns.d - ns.c) / 2
        gaps.append(abs(half_solver - half_ansatz) / half_ansatz)
    assert gaps[1] < gaps[0] < mpf("0.25")


def test_transition_curvature_sides():
    spec = quartic("1.0")
    below = transition_curvature(spec, mpf("-1e-6") * spec.Tc)
    above = transition_curvature(spec, mpf("1e-6") * spec.Tc)
    assert below > 0 and above < 0
    # both sides vanish at the transition: second derivative continuous
    assert abs(below) < mpf("1e-4")
    assert abs(above) < mpf("0.5")
    tiny = transition_curvature(spec, mpf("1e-30") * spec.Tc)
    assert abs(tiny) < abs(above)
    for t in (0, 1, -1, 2):       # in units of T_c: ln(t/T_c) = 0 at t = T_c
        with pytest.raises(ValueError):
            transition_curvature(spec, t * spec.Tc)


def test_two_cut_guess_is_drift_plus_newborn_cut():
    # bit-identical to the inline guesses it replaced: the general form, and
    # the nu = 1 form without the power (2 + e)^(2 nu - 1). Where that form
    # has b >= c (nu = 2, e = 2.6 past t* ~ 7.4e-5) the guess raises instead
    crossed = []
    for spec in (quartic("1.0"), quartic("0.6"), spec_nu(2, "2.6")):
        for that in ("1e-5", "3e-4", "1e-3"):
            t = mpf(that) * spec.Tc
            ns = newborn_scaling(spec, t)
            a = -2 + t / ((2 + spec.e) ** (2 * spec.nu - 1) * spec.Q(mpf(-2)))
            b = 2 - t / ((spec.e - 2) ** (2 * spec.nu - 1) * spec.Q(mpf(2)))
            if b >= ns.c:
                crossed.append((spec.nu, that))
                with pytest.raises(PhaseError, match="^two-cut guess crossed"):
                    two_cut_guess(spec, t)
                continue
            assert two_cut_guess(spec, t) == (a, b, ns.c, ns.d)
            if spec.nu == 1:
                assert a == -2 + t / ((2 + spec.e) * spec.Q(mpf(-2)))
                assert b == 2 - t / ((spec.e - 2) * spec.Q(mpf(2)))
    assert crossed == [(2, "3e-4"), (2, "1e-3")]
    with pytest.raises(ValueError):
        two_cut_guess(quartic("1.0"), mpf(0))


def test_two_cut_guess_names_its_crossing():
    # nu = 2, e = 2.6: in order at t/T_c = 1e-4, b past c at 1.1e-4; the
    # message names both ends and has no comma, since `transition` prints it
    # in a CSV field
    spec = spec_nu(2, "2.6")
    a, b, c, d = two_cut_guess(spec, mpf("1e-4") * spec.Tc)
    assert a < b < c < d
    with pytest.raises(PhaseError) as exc:
        two_cut_guess(spec, mpf("1.1e-4") * spec.Tc)
    assert str(exc.value) == ("two-cut guess crossed: b = 2.2384 >= c = 2.22021;"
                              " t may be past the two-cut window")
