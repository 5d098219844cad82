"""The effective matrix model in the potential y^{2 nu}/(2 nu).

Its chain is the recurrence chain of the weight w(y) = exp(-y^{2 nu}/(2 nu)):
an `oracle.RecChain` with V = y^{2 nu}/(2 nu), N = T_c = 1 and
n_max = k_max - 1. w is a Freud weight, so its recurrence needs no
quadrature: beta_n = 0 by parity, and gamma_n^2 solves the Freud string
equation n = a_n [J^{2 nu - 1}]_{n,n-1}, a discrete Painleve I at nu = 2
(Magnus, "Freud's equations for orthogonal polynomials as discrete Painleve
equations", 1999; Van Assche, Orthogonal Polynomials and Painleve Equations,
2018). `freud_gsq` takes the first nu - 1 values from the closed-form moments
and solves the equation forward for the rest, which loses about 2 bits per
step, hence the guard of 3 bits per step. The one grid a model chain has is
the Gauss-Legendre grid of its orthonormality check, an integer
`oracle.NodeGrid` of exp(-y^{2 nu}/(2 nu)), which the Hilbert seed reuses.
The oracle keeps its Stieltjes builder: for exp(-(N/T_c) V) the
forward string recursion loses 5-30 bits per step.

What is specific to the model lives here. The k-eigenvalue partition
functions are zeta_k = prod_{j<k} h_j (the chain's `ln_zeta`), and the
amplitudes are

    A_k = A^{-k^2} (2 pi)^{-k} zeta_k

for the model constant A = (2 sinh phi_e)^2 (2 sinh(phi_e) Q(e)/T_c)^{1/2nu}.

Wavefunctions: psi_k = P_k e^{-y^{2nu}/4nu} / sqrt(h_k), as
`oracle.eval_psi_exact` gives them; `psi_values` returns psi_0..psi_n from
one pass of the recurrence. The Hilbert-transform partners start from the
principal-value Cauchy transform of the weight (`oracle.pihat_direct` at
n = 0) and climb the same three-term recurrence with the delta_{k,0} h_0
inhomogeneity. At 256-bit precision the forward recurrence keeps the hat
solution clean for every k used here (contamination by the growing solution
enters at the seed's relative accuracy, far below any tolerance in play).

No work is done twice. `build_chain` keeps the last few chains it built and
returns the same object for the same arguments, so chains are shared and
read-only. The Hilbert seed is computed once per point y and kept on the
chain (`RecChain.cached`), as are the k-sum terms that `asymptotics` needs
once per regime.
"""

from __future__ import annotations

from collections import OrderedDict

from mpmath import mp, mpf

from .oracle import (GUARD_BITS, PANEL_POINTS, RecChain, _domain, _monic_at,
                     _node_grid, _to_fixed, orthogonality_residual,
                     pihat_direct)
from .poly import Poly
from .potentials import CriticalSpec


def A_constant(spec: CriticalSpec):
    """A = (2 sinh phi_e)^2 (2 sinh(phi_e) Q(e)/T_c)^{1/(2 nu)}."""
    sh = mp.sinh(spec.phi_e)
    return (2 * sh) ** 2 * (2 * sh * spec.Q(spec.e) / spec.Tc) ** (mpf(1) / (2 * spec.nu))


def ln_A_k(chain: RecChain, lnA, k: int):
    """ln A_k = ln zeta_k - k^2 ln A - k ln(2 pi); A_{-1} follows the
    zeta_{-1} = 1 convention used by the shifted Hilbert sums."""
    if k == -1:
        return -lnA + mp.log(2 * mp.pi)
    return chain.ln_zeta[k] - k * k * lnA - k * mp.log(2 * mp.pi)


def freud_moments(nu: int, count: int):
    """[m_0, m_2, ..., m_{2 count - 2}], the even moments of
    exp(-y^{2nu}/(2nu)): m_{2j} = 2 (2nu)^{(2j+1)/(2nu) - 1} Gamma((2j+1)/(2nu))."""
    return [2 * mpf(2 * nu) ** (mpf(2 * j + 1) / (2 * nu) - 1)
            * mp.gamma(mpf(2 * j + 1) / (2 * nu)) for j in range(count)]


def string_guard_bits(k_max: int) -> int:
    """Bits beyond the chain's precision for `freud_gsq` up to k_max: the
    forward string recursion loses about 2 bits per step (1.9 at nu = 2,
    2.2 at nu = 6, measured to k_max = 200)."""
    return 3 * k_max + 32


def freud_gsq(nu: int, count: int):
    """[0, gamma_1^2, ..., gamma_count^2] of exp(-y^{2nu}/(2nu)) at the
    working precision, which must exceed the wanted one by
    `string_guard_bits(count + 1)`.

    gamma_1^2 .. gamma_{nu-1}^2 come from the moments (monic Gram-Schmidt,
    <p_k, p_k> = <p_k, y^k>). Each later one is the top coefficient of the
    Freud string equation n = a_n [J^{2nu-1}]_{n,n-1} (J the Jacobi matrix,
    a_n = gamma_n, beta_n = 0 by parity): summed over the lattice paths of
    2nu - 1 steps from n - 1 to n, where a step down from k weighs
    g_k = gamma_k^2 and a step up weighs 1, the right side is g_n times the
    path sum. Only the path that climbs straight to n + nu - 1 and back
    reaches g_{n+nu-1}, with the factor g_n ... g_{n+nu-2}, so the equation
    is linear in it.
    """
    m = freud_moments(nu, min(nu, count + 1))
    g = [mpf(0)]
    prev, cur, h = [], [mpf(1)], m[0]
    for k in range(1, min(nu - 1, count) + 1):
        nxt = [mpf(0)] + cur                   # p_k = y p_{k-1} - g_{k-1} p_{k-2}
        for i, c in enumerate(prev):
            nxt[i] -= g[-1] * c
        prev, cur = cur, nxt
        hk = mp.fsum(c * m[(i + k) // 2] for i, c in enumerate(cur)
                     if (i + k) % 2 == 0)      # the odd moments vanish
        g.append(hk / h)
        h = hk
    for n in range(1, count - nu + 2):
        top = n + nu - 1                       # g[top] is the unknown
        paths = {n - 1: mpf(1)}
        for _ in range(2 * nu - 1):
            step = {}
            for j, v in paths.items():
                if j + 1 < top:                # a path through top weighs g[top]
                    step[j + 1] = step.get(j + 1, 0) + v
                if j:
                    step[j - 1] = step.get(j - 1, 0) + g[j] * v
            paths = step
        rest = g[n] * paths[n] if n in paths else 0
        g.append((n - rest) / mp.fprod(g[n:top]))
    return g


CHAIN_CACHE_SIZE = 4   # chains kept by build_chain, least recently used dropped
_chains = OrderedDict()


def build_chain(nu: int, k_max: int = 100, prec: int = 256, nodes: int = 4096,
                check_orthonormality: bool = True) -> RecChain:
    """Chain of the y^{2 nu}/(2 nu) model up to k_max: the oracle chain of
    V = y^{2 nu}/(2 nu) at N = T_c = 1, n_max = k_max - 1, on the oracle's
    domain, with its recurrence from the Freud string equation (`freud_gsq`,
    at prec + `string_guard_bits(k_max)` bits) instead of a Stieltjes sweep:
    beta_n = 0, h_0 = m_0 and h_n = h_{n-1} gamma_n^2.

    The chain's grid (an `oracle.NodeGrid`, built in integers, with the mpf
    views xs, gl_w, wv) is the composite 64-point GL rule that the oracle
    would use to check a chain built on `nodes` nodes, 1.37x as many. Every
    fresh build checks its orthonormality there when asked to:
    the re-integrated <psi_j, psi_k> at the highest (worst-resolved) index.
    The same grid serves `pihat_direct` for the Hilbert seed.

    A call with the same arguments as one of the last CHAIN_CACHE_SIZE
    distinct calls returns the chain that call built (shared, read-only)."""
    if nu < 1 or not 1 <= k_max <= 200:
        raise ValueError("need nu >= 1 and 1 <= k_max <= 200")
    key = (nu, k_max, prec, nodes, check_orthonormality)
    chain = _chains.get(key)
    if chain is not None:
        _chains.move_to_end(key)
        return chain
    n_max = k_max - 1
    with mp.workprec(prec + string_guard_bits(k_max)):
        gsq = freud_gsq(nu, n_max)
        log_h = [mp.log(freud_moments(nu, 1)[0])]
        for g in gsq[1:]:
            log_h.append(log_h[-1] + mp.log(g))
        ln_zeta = [mpf(0)]
        for v in log_h:
            ln_zeta.append(ln_zeta[-1] + v)
        gamma = [mp.sqrt(g) for g in gsq]
    with mp.workprec(prec):
        V = Poly([0] * (2 * nu) + [mpf(1) / (2 * nu)])
        x_min, x_max = _domain(V, 1, 1, n_max, prec)
        panels = int(max(1, nodes // PANEL_POINTS) * mpf("1.37"))
        grid = _node_grid(x_min, x_max, panels, V, 1, prec + GUARD_BITS)
        gsq, gamma, log_h, ln_zeta = ([+v for v in vs] for vs in (
            gsq, gamma, log_h, ln_zeta))
        chain = RecChain(N=1, Tc=mpf(1), V=V, n_max=n_max, prec=prec,
                         x_min=x_min, x_max=x_max, log_h=log_h, gamma=gamma,
                         beta=[mpf(0)] * k_max, gsq=gsq,
                         hs=[mp.exp(v) for v in log_h], ln_zeta=ln_zeta,
                         beta_fx=[0] * k_max,
                         gsq_fx=_to_fixed(gsq, prec + GUARD_BITS),
                         grid=grid)
        if check_orthonormality:
            resid = orthogonality_residual(
                chain, ((n_max, n_max), (n_max, 0)), grid=grid)
            if resid > mpf(10) ** (-20):
                raise ArithmeticError(
                    "orthonormality residual %s > 1e-20 at k_max = %d: "
                    "increase nodes or prec" % (mp.nstr(resid, 5), k_max))
    _chains[key] = chain
    if len(_chains) > CHAIN_CACHE_SIZE:
        _chains.popitem(last=False)
    return chain


def psi_values(chain: RecChain, n: int, y):
    """[psi_0(y), ..., psi_n(y)], as `oracle.eval_psi_exact` gives them, from
    one pass of the recurrence."""
    if not 0 <= n <= chain.n_max:
        raise ValueError("k out of range")
    with mp.workprec(chain.prec):
        y = mpf(y)
        g = -chain.N / (2 * chain.Tc) * chain.V(y)
        return [p * mp.exp(g - chain.log_h[k] / 2)
                for k, p in enumerate(_monic_at(chain, n, y, every=True))]


def phat_values(chain: RecChain, k: int, y):
    """(phat_{k-1}, phat_k) where phat_j(y) = int P_j(x) w(x)/(y-x) dx,
    built from the seed phat_0 (computed once per y) and the inhomogeneous
    three-term recurrence."""
    with mp.workprec(chain.prec):
        y = mpf(y)
        q_prev = mpf(0)
        q = chain.cached(("phat seed", y), lambda: pihat_direct(chain, 0, y))
        for j in range(k):
            g = chain.gsq[j]
            inhom = chain.hs[0] if j == 0 else 0
            q_prev, q = q, (y - chain.beta[j]) * q - g * q_prev - inhom
        return q_prev, q


def psihat_values(chain: RecChain, k: int, y):
    """(psihat_{k-1}(y), psihat_k(y)) from one phat_values call, with
    psihat_j = phat_j e^{+y^{2nu}/(4nu)} / sqrt(h_j) and psihat_{-1} the
    bare e^{+y^{2nu}/(4nu)} (empty-average convention)."""
    if not 0 <= k <= chain.n_max:
        raise ValueError("k out of range")
    with mp.workprec(chain.prec):
        y = mpf(y)
        g = chain.N / (2 * chain.Tc) * chain.V(y)
        q_prev, q = phat_values(chain, k, y)
        up = q * mp.exp(g - chain.log_h[k] / 2)
        down = q_prev * mp.exp(g - chain.log_h[k - 1] / 2) if k else mp.exp(g)
        return down, up


def psihat_model(chain: RecChain, k: int, y):
    """psihat_k(y) = phat_k(y) e^{+y^{2nu}/(4nu)} / sqrt(h_k); k = -1 returns
    the bare e^{+y^{2nu}/(4nu)} (empty-average convention)."""
    if k == -1:
        with mp.workprec(chain.prec):
            y = mpf(y)
            return mp.exp(chain.N / (2 * chain.Tc) * chain.V(y))
    return psihat_values(chain, k, y)[1]


# ----------------------------------------------------------------------------
# plain-text cache
# ----------------------------------------------------------------------------

def chain_to_table(chain: RecChain, lnA=None) -> str:
    """Columns k, ln_zeta, gamma, ln_A (ln_A only when lnA given), 30 digits;
    the header's R is the domain end x_max."""
    lines = ["# nu=%d k_max=%d prec=%d R=%s" % (
        chain.V.degree // 2, chain.n_max + 1, chain.prec,
        mp.nstr(chain.x_max, 10))]
    lines.append("# k ln_zeta gamma ln_A")
    for k in range(chain.n_max + 1):
        g = chain.gamma[k] if k >= 1 else mpf(0)
        la = ln_A_k(chain, lnA, k) if lnA is not None else mpf(0)
        lines.append("%d %s %s %s" % (
            k, mp.nstr(chain.ln_zeta[k], 30), mp.nstr(g, 30), mp.nstr(la, 30)))
    return "\n".join(lines) + "\n"
