"""The effective matrix model in the potential y^{2 nu}/(2 nu).

Its chain is the recurrence chain of the weight w(y) = exp(-y^{2 nu}/(2 nu)):
an `oracle.RecChain` of the `oracle.Weight` with V = y^{2 nu}/(2 nu),
N = T_c = 1 on the oracle's domain (`Weight.default`), and
n_max = k_max - 1. w is a Freud weight, so its recurrence needs no
quadrature: beta_n = 0 by parity, and gamma_n^2 solves the Freud string
equation n = a_n [J^{2 nu - 1}]_{n,n-1}, a discrete Painleve I at nu = 2
(Magnus, "Freud's equations for orthogonal polynomials as discrete Painleve
equations", 1999; Van Assche, Orthogonal Polynomials and Painleve Equations,
2018). `freud_gsq` takes the first nu - 1 values from the closed-form moments
and solves the equation forward for the rest, which loses about 2 bits per
step, hence the guard of 3 bits per step. The one grid a model chain has is
the Gauss-Legendre grid of its orthonormality check, the weight's integer
`oracle.NodeGrid` (`Weight.grid`), which the Hilbert seed reuses.
The weight is even and the domain symmetric, so the grid is mirrored: only
its upper half is formed, and the check sweeps only that half, by the
parity of psi_k (`oracle.Weight.grid`, `oracle.gram_entries`); both cost
half of what they cost on an oracle grid of the same size.
Its size is that of the first rung of the oracle's node ladder on which
the check converges (`oracle._first_converged`); `nodes=` pins it.
The oracle keeps its Stieltjes builder: for exp(-(N/T_c) V) the
forward string recursion loses 5-30 bits per step.

What is specific to the model lives here. The k-eigenvalue partition
functions are zeta_k = prod_{j<k} h_j (the chain's `ln_zeta`), and the
amplitudes are

    A_k = A^{-k^2} (2 pi)^{-k} zeta_k

for the model constant A = (2 sinh phi_e)^2 (2 sinh(phi_e) Q(e)/T_c)^{1/2nu}.

Its wavefunctions psi_k and their Hilbert-transform partners are the
chain's, from the oracle's evaluators (`oracle.psi_values`,
`oracle.phat_values`, `oracle.psihat_values`).

No work is done twice. `build_chain` returns the same, read-only chain for
the same arguments, and what is derived from it is kept in its one memo
(`RecChain.cached`).
"""

from __future__ import annotations

from collections import OrderedDict
from functools import lru_cache

from mpmath import mp, mpf

from .oracle import (CHECK_GRID_RATIO, GUARD_BITS, PANEL_POINTS, RecChain,
                     Weight, _first_converged, _ladder, _recent,
                     assemble_chain, orthogonality_residual)
from .poly import Poly
from .potentials import CriticalSpec

CHAIN_CACHE_SIZE = 4   # chains kept by build_chain, least recently used dropped


def A_constant(spec: CriticalSpec):
    """A = (2 sinh phi_e)^2 (2 sinh(phi_e) Q(e)/T_c)^{1/(2 nu)}, formed once
    per (spec, working precision): later calls return the same mpf."""
    return _A_constant(spec, mp.prec)


@lru_cache(maxsize=16)     # (spec, precision) pairs kept
def _A_constant(spec: CriticalSpec, prec: int):
    sh = mp.sinh(spec.phi_e)
    return (2 * sh) ** 2 * (2 * sh * spec.Q(spec.e) / spec.Tc) ** (mpf(1) / (2 * spec.nu))


@lru_cache(maxsize=None)
def _ln_2pi(prec: int):
    """ln(2 pi) at prec bits, formed once per precision."""
    with mp.workprec(prec):
        return mp.log(2 * mp.pi)


def ln_A_k(chain: RecChain, lnA, k: int):
    """ln A_k = ln zeta_k - k^2 ln A - k ln(2 pi); A_{-1} follows the
    zeta_{-1} = 1 convention used by the shifted Hilbert sums."""
    if k == -1:
        return -lnA + _ln_2pi(mp.prec)
    return chain.ln_zeta[k] - k * k * lnA - k * _ln_2pi(mp.prec)


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


_chains = OrderedDict()

def build_chain(nu: int, k_max: int = 100, prec: int = 256,
                nodes: int = None) -> RecChain:
    """Chain of the y^{2 nu}/(2 nu) model up to k_max: the oracle chain of
    V = y^{2 nu}/(2 nu) at N = T_c = 1, n_max = k_max - 1, on the oracle's
    domain, with its recurrence from the Freud string equation (`freud_gsq`,
    at prec + `string_guard_bits(k_max)` bits) instead of a Stieltjes sweep:
    beta_n = 0, h_0 = m_0 and h_n = h_{n-1} gamma_n^2.

    The chain's grid (an `oracle.NodeGrid`, built in integers, with the mpf
    views xs, gl_w, wv) is a composite 64-point GL rule on which the chain's
    orthonormality is checked: the re-integrated <psi_j, psi_k> at the
    highest (worst-resolved) index. The same grid serves
    `oracle.pihat_direct` for the Hilbert seed. By default it is the first converged rung of the
    oracle's ladder (`oracle._first_converged`); `nodes` pins it to the
    grid the oracle checks a `nodes`-node chain on, `CHECK_GRID_RATIO`
    times as many.

    A call with the same arguments as one of the last CHAIN_CACHE_SIZE
    distinct calls returns the chain that call built (shared, read-only)."""
    if nu < 1 or not 1 <= k_max <= 200:
        raise ValueError("need nu >= 1 and 1 <= k_max <= 200")
    return _recent(_chains, (nu, k_max, prec, nodes),
                   lambda: _build_chain(nu, k_max, prec, nodes),
                   CHAIN_CACHE_SIZE)


def _build_chain(nu, k_max, prec, nodes):
    n_max = k_max - 1
    with mp.workprec(prec):
        weight = Weight.default(Poly([0] * (2 * nu) + [mpf(1) / (2 * nu)]),
                                1, mpf(1), n_max, prec)
    with mp.workprec(prec + string_guard_bits(k_max)):
        gsq = freud_gsq(nu, n_max)
        log_h = [mp.log(freud_moments(nu, 1)[0])]
        for g in gsq[1:]:
            log_h.append(log_h[-1] + mp.log(g))
        chain = assemble_chain(weight, prec, [mpf(0)] * k_max,
                               [mp.sqrt(g) for g in gsq], log_h, None)
    with mp.workprec(prec):
        if nodes is not None:
            rungs = (int(max(1, nodes // PANEL_POINTS)
                         * mpf(CHECK_GRID_RATIO)),)
        else:
            rungs = _ladder(nu, n_max, weight.hi, prec)

        def chain_on(panels):
            chain.grid = weight.grid(panels, prec + GUARD_BITS)
            return chain
        return _first_converged(
            rungs, chain_on, lambda ch, pairs: orthogonality_residual(
                ch, pairs, grid=ch.grid), prec)
