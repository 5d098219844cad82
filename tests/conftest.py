import functools

import mpmath
import pytest
from mpmath import mp, mpf

mp.dps = 40

from birthcut.equilibrium import _u_from_inf_two_cut
from birthcut.modelchain import build_chain
from birthcut.oracle import build_rec_chain
from birthcut.poly import Poly, monic_from_roots
from birthcut.potentials import make_quartic_spec, make_spec
from birthcut.quadrature import ConvergenceError
from birthcut.specialfn import agm_integrals


@functools.lru_cache(maxsize=None)
def quartic(phi_e: str):
    return make_quartic_spec(mpf(phi_e))


@functools.lru_cache(maxsize=None)
def spec_nu(nu: int, e: str):
    return make_spec(nu, mpf(e))


def model_chain(nu: int, k_max: int, prec: int = 256, nodes: int = None):
    return build_chain(nu, k_max=k_max, prec=prec, nodes=nodes)


@functools.lru_cache(maxsize=None)
def oracle_chain(phi_e: str, N: int, bits: int = 320, nodes: int = None,
                 n_extra: int = 0):
    """The quartic oracle at (phi_e, N); by default on the first converged
    rung of the node ladder, or on `nodes` nodes where given."""
    spec = quartic(phi_e)
    n_max = N + int(mp.ceil(3 * mp.log(N))) + n_extra
    return build_rec_chain(spec.V, N, spec.Tc, n_max=n_max, bits=bits, nodes=nodes)


def monic_reference(beta, gsq, n, x):
    """(p_{n-1}, p_n, p'_{n-1}, p'_n) of the monic recurrence by plain mpf
    arithmetic at the working precision: the reference for the integer
    fixed-point evaluators."""
    q, p, dq, dp = mpf(0), mpf(1), mpf(0), mpf(0)
    for j in range(n):
        t = x - beta[j]
        dq, dp = dp, p + t * dp - gsq[j] * dq
        q, p = p, t * p - gsq[j] * q
    return q, p, dq, dp


def sn_cn_dn(u, m):
    """Jacobi sn, cn, dn at (possibly complex) u by mpmath's `ellipfun`, at
    20 guard bits: the reference for the elliptic data of the two-cut
    measure. Fails where |dn| or 1/|sn| falls below 10^(8 - dps), close to
    a pole of sn."""
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


def gamma_jtheta(mu):
    """gamma of a two-cut measure by mpmath's `jtheta`, at 60 guard bits
    from the measure's K, K', F_inf = Im u_inf and endpoints:
    sqrt((d-b)(c-a))/(4K) e^{pi F_inf^2/(K K')} theta1'(0)/theta1(i F_inf/K)
    times i, with the nome q = e^{-pi K'/K}. jtheta(1, z, q) takes a
    period-2 pi argument, so theta1(iv) = jtheta(1, i pi v, q) and
    theta1'(0) = pi jtheta(1, 0, q, 1): the reference for
    `equilibrium.gamma_two_cut`."""
    a, b, c, d = mu.endpoints
    K, Kp, F_inf = mu.K, mu.Kprime, mu.F_inf
    with mp.workprec(mp.prec + 60):
        q = mp.exp(-mp.pi * Kp / K)
        theta = mpmath.jtheta(1, mpmath.mpc(0, mp.pi * F_inf / K), q)
        gamma = mp.sqrt((d - b) * (c - a)) / (4 * K) \
            * mp.exp(mp.pi * F_inf ** 2 / (K * Kp)) \
            * mp.pi * mpmath.jtheta(1, 0, q, 1) / theta.imag
    return +gamma


def u_direct(mu, x):
    """F(x) = Im u(x) = F(arctan rho(x) | 1-m) of a two-cut measure at
    x > d, from one AGM amplitude (sqrt((b-a)(x-d)), sqrt((d-b)(x-a))),
    whose ratio is rho(x), at 20 guard bits: the direct route. F(x) - F_inf
    formed from it loses about log2(x) bits, which
    `equilibrium._u_from_inf_two_cut` does not."""
    a, b, c, d = mu.endpoints
    with mp.workprec(mp.prec + 20):
        F = agm_integrals(mu.m, amplitude=(mp.sqrt((b - a) * (x - d)),
                                           mp.sqrt((d - b) * (x - a)))).F
    return +F


def lambda_jtheta(mu, x, G=None):
    """Lambda(x) of a two-cut measure by mpmath's `jtheta`, at 60 guard bits
    from the measure's K, K', F_inf and G = F - F_inf, F = Im u(x) (by
    default G from `equilibrium._u_from_inf_two_cut`):
    e^{-pi F F_inf/(K K')} theta1(i(F + F_inf)/2K) / theta1(i G/2K), with
    the nome and argument conventions of `gamma_jtheta`: the reference for
    `equilibrium.lambda_two_cut`."""
    K, Kp, F_inf = mu.K, mu.Kprime, mu.F_inf
    if G is None:
        G = _u_from_inf_two_cut(mu, x)
    with mp.workprec(mp.prec + 60):
        q = mp.exp(-mp.pi * Kp / K)
        F = F_inf + G

        def theta(v):
            return mpmath.jtheta(1, mpmath.mpc(0, mp.pi * v), q).imag
        lam = mp.exp(-mp.pi * F * F_inf / (K * Kp)) \
            * theta((F + F_inf) / (2 * K)) / theta(G / (2 * K))
    return +lam


def agm_reference(mc, n=None, amplitude=None):
    """(K, E, Pi, F, E_phi) by the AGM sequence of `specialfn.agm_fixed` in
    plain mpf arithmetic at 20 guard bits, Pi(n|m) where n is given, F and
    E(phi|m) where the amplitude is: the reference for the fixed-point loop
    of `agm_integrals` and for the Pi sum of `agm_fixed`."""
    mc = mpf(mc)
    n = None if n is None else mpf(n)
    with mp.workprec(mp.prec + 20):
        tol = mp.ldexp(1, -mp.prec)
        a, g = mpf(1), mp.sqrt(mc)
        if n is not None:
            p2 = 1 - n
            p = mp.sqrt(p2)
            q = qsum = mpf(1)
        if amplitude is not None:
            x, y = (mpf(v) for v in amplitude)
            xx, yy = x * x, y * y
            turns = 0               # phi_j = atan2(y, x) + turns pi
            e_sum = mpf(0)
        csum = (1 - mc) / 2
        weight = mpf(1) / 2
        for steps in range(1, mp.prec + 1):
            ag = a * g
            if n is not None:
                q *= (p2 - ag) / (2 * (p2 + ag))
                p = (p2 + ag) / (2 * p)
                p2 = p * p
                qsum += q
            c = (a - g) / 2
            if amplitude is not None:
                x, y, rising = a * xx - g * yy, (a + g) * x * y, y > 0
                turns *= 2
                if x < 0:
                    x, y = -x, -y
                    turns += 1 if rising else -1
                xx, yy = x * x, y * y
                sin_phi = y / mp.sqrt(xx + yy)
                e_sum += c * sin_phi if turns % 2 == 0 else -c * sin_phi
            a, g = (a + g) / 2, mp.sqrt(ag)
            weight *= 2
            csum += weight * c * c
            if abs(c) <= tol and (n is None or abs(q) <= tol):
                break
        else:
            raise ConvergenceError("AGM did not converge")
        K = mp.pi / (2 * a)
        E = K * (1 - csum)
        Pi = F = E_phi = None
        if n is not None:
            Pi = mp.pi / (4 * a) * (2 + n / (1 - n) * qsum)
        if amplitude is not None:
            F = mp.ldexp(mp.atan2(y, x) + turns * mp.pi, -steps) / a
            E_phi = E / K * F + e_sum
    return tuple(v if v is None else +v for v in (K, E, Pi, F, E_phi))


def sqrt_sigma_tail(sigma, jmax, alpha=None):
    """Series t with sqrt(sigma(x)) = x^s sum_j t[j] x^-j, sigma monic of
    degree 2s, in mpf at the working precision; with alpha = -1/2 the
    series of x^s/sqrt(sigma). J.C.P. Miller's recurrence for
    (1 + w)^alpha, sigma/x^{2s} = 1 + sum_k w_k x^-k,
    t[n] = (1/n) sum_{k=1}^{min(n, 2s)} ((alpha+1) k - n) w_k t[n-k]: the
    mpf reference for `poly._fixed_series`."""
    if alpha is None:
        alpha = mpf(1) / 2
    d = sigma.degree
    if d % 2 or sigma[d] != 1:
        raise ValueError("sigma must be monic of even degree")
    w = [sigma[d - k] for k in range(d + 1)]
    out = [mpf(1)]
    for n in range(1, jmax + 1):
        acc = mpf(0)
        for k in range(1, min(n, d) + 1):
            acc += ((alpha + 1) * k - n) * w[k] * out[n - k]
        out.append(acc / n)
    return out


def laurent_split(f, tail, s, jmax):
    """(P, c): the polynomial part P of f(x) x^-s sum_j tail[j] x^-j and
    c[j] its x^-j coefficient, 1 <= j <= jmax (c[0] = 0), in mpf: the
    reference for `poly._fixed_split`."""
    pol = [mpf(0)] * (f.degree - s + 1 if f.degree >= s else 0)
    neg = [mpf(0)] * (jmax + 1)
    for k in range(f.degree + 1):
        for j, tj in enumerate(tail):
            m = k - s - j
            if m >= 0:
                if m < len(pol):
                    pol[m] += f[k] * tj
            elif -m <= jmax:
                neg[-m] += f[k] * tj
    return Poly(pol), neg


def cut_system_reference(Vp, T, x):
    """(r, J, M) of `equilibrium._cut_system` by the same formulas in plain
    mpf at the working precision: the reference for its fixed-point
    evaluation. sigma from its roots, the Laurent split of V'/sqrt(sigma)
    by `sqrt_sigma_tail` and `laurent_split`, the Jacobian rows by
    Horner in the endpoints, and at s = 2 the gap moments from
    `gap_moments_reference` and the cofactors sigma/(x - e_i) by synthetic
    division."""
    s = len(x) // 2
    sigma = monic_from_roots(x)
    tail = sqrt_sigma_tail(sigma, Vp.degree + 1, alpha=-mpf(1) / 2)
    M, c = laurent_split(Vp, tail, s, s + 1)
    Me = [M(e) for e in x]

    def dc_de(j, i):
        acc = Me[i]
        for k in range(1, j):
            acc = acc * x[i] + c[k]
        return acc / 2

    J = [[dc_de(j, i) for i in range(2 * s)] for j in range(1, s + 2)]
    r = list(c[1:s + 2])
    r[s] -= 2 * T
    if s == 2:
        P = M * sigma
        I = gap_moments_reference(x, sigma, len(P))
        r.append(mp.fsum(p * Ik for p, Ik in zip(P.c, I)))
        row = []
        for i, e in enumerate(x):
            q = [sigma.c[-1]]
            for ck in reversed(sigma.c[1:-1]):
                q.append(ck + e * q[-1])
            row.append(-Me[i] / 2 * mp.fsum(
                qk * Ik for qk, Ik in zip(reversed(q), I)))
        J.append(row)
    return r, J, M


def gap_moments_reference(endpoints, sigma, count):
    """I_0..I_{count-1} of `equilibrium._gap_moments` in mpf: the closed
    forms on K, E and Pi(alpha^2 | k^2), taken from mpmath's `ellipk`,
    `ellipe` and `ellippi` at 40 more bits, so independent of the AGM under
    test, and the recurrence from integral_b^c d/dt [t^j sqrt(sigma)] dt = 0."""
    a, b, c, d = endpoints
    ca, db, ba = c - a, d - b, b - a
    k2 = (c - b) * (d - a) / (ca * db)
    n = (c - b) / ca
    with mp.workprec(mp.prec + 40):
        m = (c - b) * (d - a) / ((c - a) * (d - b))
        K, E, Pi = (mpmath.ellipk(m), mpmath.ellipe(m),
                    mpmath.ellippi((c - b) / (c - a), m))
    K, E, Pi = +K, +E, +Pi
    g = 2 / mp.sqrt(ca * db)
    J0, J1 = g * K, g * ba * Pi
    J2 = g * ba * ba * (n * E + (k2 - n) * K
                        + (2 * n * k2 + 2 * n - n * n - 3 * k2) * Pi) \
        / (2 * (n - 1) * (k2 - n))
    moments = [J0, J1 + a * J0, J2 + 2 * a * J1 + a * a * J0]
    s = sigma.c
    for j in range(count - 3):
        acc = mp.fsum((j + mpf(i) / 2) * s[i] * moments[i + j - 1]
                      for i in range(0 if j else 1, 4))
        moments.append(-acc / (j + 2))
    return moments[:count]


def lu_solve_reference(A, b):
    """x with A x = b by Gaussian elimination with partial pivoting in mpf,
    10 bits above the working precision, back substitution by `fsum`;
    ZeroDivisionError where a pivot is at most n eps max_k |A_ik| of its
    own row i as given: the reference for `equilibrium._lu_solve`'s integer
    elimination."""
    n = len(A)
    with mp.extraprec(10):
        rows = [list(row) + [v] for row, v in zip(A, b)]
        tols = [n * mp.eps * max(abs(v) for v in row) for row in A]
        for j in range(n):
            piv = max(range(j, n), key=lambda k: abs(rows[k][j]))
            rows[j], rows[piv] = rows[piv], rows[j]
            tols[j], tols[piv] = tols[piv], tols[j]
            pivot = rows[j]
            if abs(pivot[j]) <= tols[j]:
                raise ZeroDivisionError("matrix is numerically singular")
            for row in rows[j + 1:]:
                f = row[j] / pivot[j]
                for k in range(j + 1, n + 1):
                    row[k] -= f * pivot[k]
        x = [mpf(0)] * n
        for i in range(n - 1, -1, -1):
            tail = mp.fsum(rows[i][k] * x[k] for k in range(i + 1, n))
            x[i] = (rows[i][n] - tail) / rows[i][i]
    return x


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
    """Closed form ln zeta_{k,1} = (k/2) ln(2 pi) + sum_{j<k} ln j!: the
    reference for the nu = 1 model chain (A4)."""
    acc = mpf(k) / 2 * mp.log(2 * mp.pi)
    for j in range(k):
        acc += ln_factorial(j)
    return acc


def ln_zeta_asymptotic(k: int, nu: int):
    """Large-k law (k^2/2nu) ln k - 3k^2/4nu + (k/nu) ln k of the model
    partition functions: the envelope of A4's residual."""
    if k <= 0:
        raise ValueError("k must be >= 1")
    k = mpf(k)
    return k * k / (2 * nu) * mp.log(k) - 3 * k * k / (4 * nu) \
        + k / nu * mp.log(k)


def small_m_K(m):
    """K to O(m^3): (pi/2)(1 + m/4 + 9 m^2/64), A3's expansion."""
    m = mpf(m)
    return mp.pi / 2 * (1 + m / 4 + 9 * m * m / 64)


def small_m_E(m):
    """E to O(m^3): (pi/2)(1 - m/4 - 3 m^2/64), A3's expansion."""
    m = mpf(m)
    return mp.pi / 2 * (1 - m / 4 - 3 * m * m / 64)


def small_m_Eprime(m):
    """E' to O(m^2 log m): 1 + (m/2)(ln(4/sqrt(m)) - 1/2), A3's expansion."""
    m = mpf(m)
    return 1 + m / 2 * (mp.log(4 / mp.sqrt(m)) - mpf(1) / 2)


@pytest.fixture(scope="session")
def quartic_phi1():
    return quartic("1.0")
