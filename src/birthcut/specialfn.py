"""High-precision special functions for the two-cut parametrization.

Conventions: the elliptic parameter m is the squared modulus, i.e. the m in
integral_0^sn dy / sqrt((1-y^2)(1-m y^2)); theta1 takes a period-1 argument,

    theta1(z, tau) = 2 sum_{n>=0} (-1)^n q^{(n+1/2)^2} sin((2n+1) pi z),
    q = exp(i pi tau),

so that the two-cut gamma formula reads gamma = (i/4K) sqrt((d-b)(c-a))
  * exp(-pi u_inf^2/(K K')) * theta1'(0)/theta1(u_inf/K).

Complete integrals and Jacobi functions are delegated to mpmath (AGM/Landen
based, valid at arbitrary precision); this module owns the conventions, the
theta1 series, the incomplete second integral along straight paths, one AGM
sequence for K, E and Pi together, and the Stirling-type asymptotics of the
model partition functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
from mpmath import mp, mpc, mpf

from .quadrature import ConvergenceError


@dataclass(frozen=True)
class EllipticParams:
    """Complete-integral data at parameter m (squared-modulus convention)."""

    m: mpf
    K: mpf
    Kprime: mpf
    E: mpf
    Eprime: mpf
    tau: mpc        # i K'/K
    q: mpf          # nome exp(i pi tau) = exp(-pi K'/K)


def complete_integrals(m) -> EllipticParams:
    m = mpf(m)
    if not (0 <= m < 1):
        raise ValueError("parameter m must lie in [0, 1)")
    with mp.workprec(mp.prec + 20):
        K = mpmath.ellipk(m)
        Kp = mpmath.ellipk(1 - m)
        E = mpmath.ellipe(m)
        Ep = mpmath.ellipe(1 - m)
        tau = mpc(0, 1) * Kp / K
        q = mp.exp(-mp.pi * Kp / K)
    return EllipticParams(m=m, K=+K, Kprime=+Kp, E=+E, Eprime=+Ep,
                          tau=+tau, q=+q)


def sn_cn_dn(u, m, pole_tol=None):
    """Jacobi sn, cn, dn at (possibly complex) u; fails close to a pole of sn."""
    m = mpf(m)
    if not (0 <= m < 1):
        raise ValueError("parameter m must lie in [0, 1)")
    if pole_tol is None:
        pole_tol = mpf(10) ** (-mp.dps + 8)
    with mp.workprec(mp.prec + 20):
        sn = mpmath.ellipfun("sn", u, m=m)
        cn = mpmath.ellipfun("cn", u, m=m)
        dn = mpmath.ellipfun("dn", u, m=m)
        if abs(dn) < pole_tol or (abs(sn) > 1 / pole_tol):
            raise ValueError("u is too close to a lattice pole of sn")
    return +sn, +cn, +dn


def complete_K_E_Pi(mc, n):
    """(K, E, Pi(n|.)) at parameter m = 1 - mc, for 0 < mc <= 1 and n < 1.

    One arithmetic-geometric mean sequence a_j, g_j from (1, sqrt(mc)) gives
    all three (DLMF 19.8.1, 19.8.6; Abramowitz & Stegun 17.6.3):

        K = pi / (2 M),  E = K (1 - sum_j 2^(j-1) c_j^2),  c_0^2 = m,
        Pi(n|m) = pi/(4 M) (2 + n/(1-n) sum_j Q_j),

    with c_{j+1} = (a_j - g_j)/2 and p_0^2 = 1 - n, Q_0 = 1,
    p_{j+1} = (p_j^2 + a_j g_j)/(2 p_j), Q_{j+1} = Q_j (p_j^2 - a_j g_j)
    / (2 (p_j^2 + a_j g_j)). Taking the complementary parameter keeps full
    relative accuracy as m -> 1, where K is log-singular. Each sum converges
    quadratically, in about log2(prec) steps.
    """
    mc, n = mpf(mc), mpf(n)
    if not (0 < mc <= 1 and n < 1):
        raise ValueError("need 0 < mc <= 1 and n < 1")
    with mp.workprec(mp.prec + 20):
        tol = mp.ldexp(1, -mp.prec)
        a, g = mpf(1), mp.sqrt(mc)
        p2 = 1 - n
        p = mp.sqrt(p2)
        q = qsum = mpf(1)
        csum = (1 - mc) / 2
        weight = mpf(1) / 2
        for _ in range(mp.prec):
            ag = a * g
            q *= (p2 - ag) / (2 * (p2 + ag))
            p = (p2 + ag) / (2 * p)
            p2 = p * p
            qsum += q
            c = (a - g) / 2
            a, g = (a + g) / 2, mp.sqrt(ag)
            weight *= 2
            csum += weight * c * c
            if abs(c) <= tol and abs(q) <= tol:
                break
        else:
            raise ConvergenceError("AGM did not converge for mc = %s, n = %s"
                                   % (mp.nstr(mc, 8), mp.nstr(n, 8)))
        K = mp.pi / (2 * a)
        E = K * (1 - csum)
        Pi = mp.pi / (4 * a) * (2 + n / (1 - n) * qsum)
    return +K, +E, +Pi


def incomplete_E(u, m):
    """E(u, m) = integral_0^{sn(u,m)} sqrt((1-m y^2)/(1-y^2)) dy, straight path.

    Real u (|sn|<=1) uses the trigonometric form; purely imaginary u stays on
    the imaginary axis, where the Jacobi imaginary transformation gives a
    closed form. Other arguments are rejected rather than silently crossing a
    branch cut.
    """
    m = mpf(m)
    u = mpc(u)
    if u == 0:
        return mpf(0)
    if abs(u.imag) <= mpf(10) ** (-mp.dps) * (1 + abs(u.real)):
        # real path: y = sin(theta), E = int_0^phi sqrt(1 - m sin^2) dtheta
        with mp.workprec(mp.prec + 20):
            sn, _, _ = sn_cn_dn(u.real, m)
            phi = mp.asin(sn)
            val = mpmath.ellipe(phi, m)
        return +val.real if abs(val.imag) < mpf(10) ** (-mp.dps + 4) else +val
    if abs(u.real) <= mpf(10) ** (-mp.dps) * (1 + abs(u.imag)):
        # imaginary path: sn = i s. With y = i tan(theta) and s = tan(phi),
        # the integral is i int_0^phi sqrt(1 - (1-m) sin^2) sec^2 dtheta, which
        # integrates by parts to the Jacobi imaginary transformation
        #   E(iv|m) = i (v + tan(phi) sqrt(1 - (1-m) sin^2 phi) - E(phi|1-m)),
        # v = F(phi|1-m); sqrt(1 - (1-m) sin^2 phi) = sqrt((1+m s^2)/(1+s^2))
        with mp.workprec(mp.prec + 20):
            sn, _, _ = sn_cn_dn(u, m)
            s = sn.imag
            phi = mp.atan(s)
            mc = 1 - m
            val = mpc(0, mpmath.ellipf(phi, mc) - mpmath.ellipe(phi, mc)
                      + s * mp.sqrt((1 + m * s * s) / (1 + s * s)))
        return +val
    raise ValueError("incomplete_E: straight path would cross a branch cut "
                     "for general complex u; only real or imaginary u supported")


def _nome(tau):
    tau = mpc(tau)
    if tau.imag <= 0:
        raise ValueError("theta1 requires Im tau > 0")
    return mp.exp(mpc(0, 1) * mp.pi * tau)


def theta1(z, tau):
    """theta1(z, tau) with period-1 argument, truncated at relative 1e-30."""
    q = _nome(tau)
    z = mpc(z)
    with mp.workprec(mp.prec + 20):
        tol = max(mpf(10) ** (-30), mpf(2) ** (-mp.prec + 8))
        acc = mpc(0)
        scale = mpf(0)
        for n in range(200):
            term = (-1) ** n * q ** ((n + mpf(1) / 2) ** 2) \
                * mp.sin((2 * n + 1) * mp.pi * z)
            acc += term
            scale = max(scale, abs(term))
            if n >= 1 and abs(term) < tol * max(scale, abs(acc)):
                break
        out = 2 * acc
    if abs(out.imag) < mpf(10) ** (-mp.dps + 6) * abs(out):
        return +out.real
    return +out


def theta1_prime0(tau):
    """d theta1/dz at z = 0."""
    q = _nome(tau)
    with mp.workprec(mp.prec + 20):
        tol = max(mpf(10) ** (-30), mpf(2) ** (-mp.prec + 8))
        acc = mpc(0)
        for n in range(200):
            term = (-1) ** n * q ** ((n + mpf(1) / 2) ** 2) * (2 * n + 1)
            acc += term
            if n >= 1 and abs(term) < tol * abs(acc):
                break
        out = 2 * mp.pi * acc
    if abs(out.imag) < mpf(10) ** (-mp.dps + 6) * abs(out):
        return +out.real
    return +out


# ----------------------------------------------------------------------------
# Stirling-type asymptotics (model partition functions)
# ----------------------------------------------------------------------------

def ln_factorial(n: int):
    """ln n!, by direct summation up to n = 10^4."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n <= 10_000:
        acc = mpf(0)
        for k in range(2, n + 1):
            acc += mp.log(k)
        return acc
    return mpmath.loggamma(n + 1).real


def ln_Hn(n: int):
    """Asymptotic ln H_n ~ n ln(2 pi) - (ln n)/12 of the group-volume factor."""
    if n <= 0:
        raise ValueError("n must be >= 1")
    return n * mp.log(2 * mp.pi) - mp.log(n) / 12


def ln_Hn_exact(n: int):
    """ln[(2 pi)^{n/2} n^{-n^2/2} e^{3n^2/4} prod_{k<n} k!]."""
    acc = mpf(n) / 2 * mp.log(2 * mp.pi) - mpf(n) ** 2 / 2 * mp.log(n) \
        + mpf(3) * n * n / 4
    for k in range(n):
        acc += ln_factorial(k)
    return acc


def ln_zeta_nu1_exact(k: int):
    """Closed form ln zeta_{k,1} = (k/2) ln(2 pi) + sum_{j<k} ln j!."""
    acc = mpf(k) / 2 * mp.log(2 * mp.pi)
    for j in range(k):
        acc += ln_factorial(j)
    return acc


def ln_zeta_asymptotic(k: int, nu: int):
    """Large-k law (k^2/2nu) ln k - 3k^2/4nu + (k/nu) ln k."""
    if k <= 0:
        raise ValueError("k must be >= 1")
    k = mpf(k)
    return k * k / (2 * nu) * mp.log(k) - 3 * k * k / (4 * nu) \
        + k / nu * mp.log(k)


def small_m_K(m):
    """K to O(m^3): (pi/2)(1 + m/4 + 9 m^2/64)."""
    m = mpf(m)
    return mp.pi / 2 * (1 + m / 4 + 9 * m * m / 64)


def small_m_E(m):
    """E to O(m^3): (pi/2)(1 - m/4 - 3 m^2/64)."""
    m = mpf(m)
    return mp.pi / 2 * (1 - m / 4 - 3 * m * m / 64)


def small_m_Eprime(m):
    """E' to O(m^2 log m): 1 + (m/2)(ln(4/sqrt(m)) - 1/2)."""
    m = mpf(m)
    return 1 + m / 2 * (mp.log(4 / mp.sqrt(m)) - mpf(1) / 2)
