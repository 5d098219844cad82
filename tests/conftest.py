import functools

import mpmath
import pytest
from mpmath import mp, mpf

mp.dps = 40

from birthcut.modelchain import build_chain
from birthcut.oracle import build_rec_chain
from birthcut.potentials import make_quartic_spec, make_spec


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


@pytest.fixture(scope="session")
def quartic_phi1():
    return quartic("1.0")
