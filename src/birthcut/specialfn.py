"""High-precision special functions for the two-cut parametrization.

Conventions: the elliptic parameter m is the squared modulus, i.e. the m in
integral_0^sn dy / sqrt((1-y^2)(1-m y^2)); theta1 takes a period-1 argument,

    theta1(z, tau) = 2 sum_{n>=0} (-1)^n q^{(n+1/2)^2} sin((2n+1) pi z),
    q = exp(i pi tau),

so that the two-cut gamma formula reads gamma = (i/4K) sqrt((d-b)(c-a))
  * exp(-pi u_inf^2/(K K')) * theta1'(0)/theta1(u_inf/K).

Complete integrals and Jacobi functions are delegated to mpmath (AGM/Landen
based, valid at arbitrary precision); this module owns the conventions, the
one theta1 series behind theta1 and theta1'(0), one AGM sequence for K, E and
Pi together, and the Stirling-type asymptotics of the model partition
functions. The incomplete integrals of the two-cut abelian map are mpmath's
F and E of a real amplitude (see `equilibrium`).
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
    return EllipticParams(m=m, K=+K, Kprime=+Kp, E=+E, Eprime=+Ep, tau=+tau)


def sn_cn_dn(u, m):
    """Jacobi sn, cn, dn at (possibly complex) u; fails where |dn| or 1/|sn|
    falls below 10^(8 - dps), close to a pole of sn."""
    m = mpf(m)
    if not (0 <= m < 1):
        raise ValueError("parameter m must lie in [0, 1)")
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


def _nome(tau):
    tau = mpc(tau)
    if tau.imag <= 0:
        raise ValueError("theta1 requires Im tau > 0")
    return mp.exp(mpc(0, 1) * mp.pi * tau)


def _theta1_series(tau, weight):
    """2 sum_{n>=0} (-1)^n q^{(n+1/2)^2} weight(n), truncated once a term is
    at most 2^(8-p) of the largest term and of the partial sum, p the working
    precision plus 20 guard bits; ConvergenceError if 200 terms do not."""
    q = _nome(tau)
    with mp.workprec(mp.prec + 20):
        tol = mpf(2) ** (-mp.prec + 8)
        acc = mpc(0)
        scale = mpf(0)
        for n in range(200):
            term = (-1) ** n * q ** ((n + mpf(1) / 2) ** 2) * weight(n)
            acc += term
            scale = max(scale, abs(term))
            if n >= 1 and abs(term) <= tol * max(scale, abs(acc)):
                break
        else:
            raise ConvergenceError("theta1 series: 200 terms at tau = %s"
                                   % mp.nstr(tau, 8))
        out = 2 * acc
    if abs(out.imag) < mpf(10) ** (-mp.dps + 6) * abs(out):
        return +out.real
    return +out


def theta1(z, tau):
    """theta1(z, tau) with period-1 argument."""
    z = mpc(z)
    return _theta1_series(tau, lambda n: mp.sin((2 * n + 1) * mp.pi * z))


def theta1_prime0(tau):
    """d theta1/dz at z = 0."""
    return mp.pi * _theta1_series(tau, lambda n: 2 * n + 1)


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
