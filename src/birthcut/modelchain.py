"""The effective matrix model in the potential y^{2 nu}/(2 nu).

Its chain is the recurrence chain of the weight w(y) = exp(-y^{2 nu}/(2 nu)),
built by the oracle's integer Stieltjes procedure: an `oracle.RecChain` with
V = y^{2 nu}/(2 nu), N = T_c = 1 and n_max = k_max - 1. What is specific to
the model lives here. The k-eigenvalue partition functions are
zeta_k = prod_{j<k} h_j (the chain's `ln_zeta`), and the amplitudes are

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

from .oracle import (RecChain, _monic_at, build_rec_chain,
                     orthogonality_residual, pihat_direct)
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


CHAIN_CACHE_SIZE = 4   # chains kept by build_chain, least recently used dropped
_chains = OrderedDict()


def build_chain(nu: int, k_max: int = 100, prec: int = 256, nodes: int = 4096,
                check_orthonormality: bool = True) -> RecChain:
    """Chain of the y^{2 nu}/(2 nu) model up to k_max: the oracle chain of
    V = y^{2 nu}/(2 nu) at N = T_c = 1, n_max = k_max - 1.

    A call with the same arguments as one of the last CHAIN_CACHE_SIZE
    distinct calls returns the chain that call built (shared, read-only).
    Every fresh build runs its orthonormality check when asked to: the
    re-integrated <psi_j, psi_k> at the highest (worst-resolved) index."""
    if nu < 1 or not 1 <= k_max <= 200:
        raise ValueError("need nu >= 1 and 1 <= k_max <= 200")
    key = (nu, k_max, prec, nodes, check_orthonormality)
    chain = _chains.get(key)
    if chain is not None:
        _chains.move_to_end(key)
        return chain
    with mp.workprec(prec):
        V = Poly([0] * (2 * nu) + [mpf(1) / (2 * nu)])
    chain = build_rec_chain(V, 1, 1, n_max=k_max - 1, bits=prec, nodes=nodes,
                            check_orthogonality=False)
    if check_orthonormality:
        top = k_max - 1
        resid = orthogonality_residual(chain, ((top, top), (top, 0)))
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
