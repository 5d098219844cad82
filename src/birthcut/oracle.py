"""Exact finite-N recurrence chain: the ground truth for every asymptotic law.

The n-dependent-temperature partition functions collapse to a single fixed
weight: Z_n(T_c n/N, V) couples as n/T = N/T_c, so

    h_n = Z_{n+1}/Z_n,  gamma_n = sqrt(h_n/h_{n-1}),  beta_n

are exactly the norm and recurrence data of the monic orthogonal polynomials
of w(x) = exp(-(N/T_c) V(x)) on the line. (The identity n/(T_c n/N) = N/T_c
is what makes one discretized-Stieltjes pass sufficient; the test suite
re-derives h_1, h_2 from 1- and 2-dimensional integrals as a cross-check.)

Chains are built at >= 256-bit precision on a composite Gauss-Legendre grid
wide enough that the x^{2 n_max}-weighted tail is negligible at the target
precision, by the integer Stieltjes kernel `modelchain.stieltjes_chain`. Its
node vectors sqrt(w) pi_n / sqrt(h_n) span about 150 orders of magnitude
across the grid (phi_e = 0.62, N = 80: tiny in the newborn well, and growing
there as n nears N), so each node keeps its own binary exponent on top of the
fixed-point fraction; without it the well's entries flush to zero and the
chain loses accuracy at n ~ N.

gamma_n^2 and h_n are stored with the chain at its precision, and beta_n,
gamma_n^2 also as integers over 2^F, F = bits + GUARD_BITS. The evaluators
(psi_n, phi_n, the Christoffel-Darboux kernel, counting integrals) are pure
functions of the immutable chain and run their recurrences on those integers
(see `modelchain`): point values through `modelchain._monic_at`, whose block
exponent covers the growth of pi_n towards the domain ends, and counts as the
diagonal Gram entries of one node-vector sweep, `modelchain._node_vectors`.
Only the prefactors e^{-NV/2T_c} / sqrt(h_n) are formed in mpf. The diagonal
kernel keeps the Christoffel-Darboux derivative form, so that it stays an
independent check of the count.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from mpmath import mp, mpf

from .modelchain import (GUARD_BITS, _monic_at, _node_vectors, _to_fixed,
                         gram_entries, stieltjes_chain)
from .poly import Poly
from .quadrature import panel_nodes


@dataclass
class RecChain:
    N: int
    Tc: mpf
    V: Poly
    n_max: int
    prec: int
    x_min: mpf
    x_max: mpf
    log_h: list            # ln h_n, n = 0..n_max
    gamma: list            # gamma_n, n = 1..n_max (index n; gamma[0] = 0)
    beta: list             # beta_n, n = 0..n_max
    gsq: list              # gamma_n^2 (index n; gsq[0] = 0)
    hs: list               # h_n = exp(log_h[n])
    beta_fx: list = field(repr=False)   # beta_n 2^F, F = prec + GUARD_BITS
    gsq_fx: list = field(repr=False)    # gamma_n^2 2^F
    xs: list = field(repr=False, default=None)
    gl_w: list = field(repr=False, default=None)
    wv: list = field(repr=False, default=None)     # weight at nodes

    def h(self, n):
        return self.hs[n]

    def gamma_sq(self, n):
        return self.gsq[n]

    def weight(self, x):
        return mp.exp(-self.N / self.Tc * self.V(x))


def _domain(V: Poly, N: int, Tc, n_max: int, prec: int):
    """[x_min, x_max] with (N/Tc)(V - V_min) - 2 n_max ln(1+|x|) beyond the
    precision budget at both ends."""
    coupling = mpf(N) / Tc
    lo, hi = mpf(-3), mpf(3)
    vmin = min(V(lo + (hi - lo) * k / 400) for k in range(401))
    budget = mpf(prec) * mp.log(2) * mpf("0.45") + 60

    def deficit(x):
        return coupling * (V(x) - vmin) - 2 * n_max * mp.log(1 + abs(x)) - budget

    while deficit(lo) < 0:
        lo -= mpf(1) / 2
        vmin = min(vmin, V(lo))
    while deficit(hi) < 0:
        hi += mpf(1) / 2
        vmin = min(vmin, V(hi))
    return lo, hi


def build_rec_chain(V: Poly, N: int, Tc, n_max: int = None, bits: int = 320,
                    nodes: int = 6000, check_orthogonality: bool = True) -> RecChain:
    """Stieltjes chain of w = exp(-(N/Tc) V) up to n_max (default N + 3 ln N)."""
    if bits < 256:
        raise ValueError("bits must be >= 256")
    Tc = mpf(Tc)
    if n_max is None:
        n_max = N + int(mp.ceil(3 * mp.log(N)))
    with mp.workprec(bits):
        lo, hi = _domain(V, N, Tc, n_max, bits)
        panels = max(1, nodes // 64)
        xs, glw = panel_nodes(lo, hi, panels, 64)
        coupling = mpf(N) / Tc
        wv = [mp.exp(-coupling * V(x)) for x in xs]
        ws = [g * w for g, w in zip(glw, wv)]
        betas, gammas, ln_hs = stieltjes_chain(xs, ws, n_max + 1)
        gsq = [g * g for g in gammas]
        F = bits + GUARD_BITS
        chain = RecChain(N=N, Tc=Tc, V=V, n_max=n_max, prec=bits,
                         x_min=lo, x_max=hi, log_h=ln_hs, gamma=gammas,
                         beta=betas, gsq=gsq, hs=[mp.exp(v) for v in ln_hs],
                         beta_fx=_to_fixed(betas, F), gsq_fx=_to_fixed(gsq, F),
                         xs=xs, gl_w=glw, wv=wv)
        if check_orthogonality:
            resid = orthogonality_residual(chain, pairs=((0, 0), (1, 3), (4, 4)))
            if resid > mpf(10) ** (-15):
                raise ArithmeticError(
                    "orthogonality residual %s > 1e-15: increase bits or nodes"
                    % mp.nstr(resid, 5))
    return chain


def orthogonality_residual(chain: RecChain, pairs, panels=None):
    """max over pairs of |<pi_n, pi_m>/sqrt(h_n h_m) - delta_nm| on an
    independently panelized grid (1.37x nodes)."""
    with mp.workprec(chain.prec):
        if panels is None:
            panels = max(1, int(len(chain.xs) * mpf("1.37") / 64))
        xs, glw = panel_nodes(chain.x_min, chain.x_max, panels, 64)
        coupling = mpf(chain.N) / chain.Tc
        ws = (g * mp.exp(-coupling * chain.V(x)) for x, g in zip(xs, glw))
        gram = gram_entries(xs, ws, chain.beta, chain.gamma, chain.log_h[0],
                            pairs)
        return max(abs(v - (1 if n == m_ else 0))
                   for v, (n, m_) in zip(gram, pairs))


def eval_psi_exact(chain: RecChain, n: int, x):
    """psi_n(x) = pi_n(x) e^{-(N/2Tc) V(x)} / sqrt(h_n)."""
    if not 0 <= n <= chain.n_max:
        raise ValueError("n out of range")
    with mp.workprec(chain.prec):
        x = mpf(x)
        _, p = _monic_at(chain, n, x)
        ex = -mpf(chain.N) / (2 * chain.Tc) * chain.V(x) - chain.log_h[n] / 2
        return p * mp.exp(ex)


def pihat_direct(chain: RecChain, n: int, x):
    """pihat_n(x) = int pi_n(x') w(x')/(x - x') dx' by direct (PV) quadrature.

    Unlike a seeded forward recurrence this is accurate at every n: outside
    the bulk support the hat solution decays like Lambda^{-n} while the
    recurrence's roundoff feeds the growing pi_n branch, which overtakes the
    true value near n ~ 45 at 320 bits.
    """
    with mp.workprec(chain.prec):
        x = mpf(x)
        p = [_monic_at(chain, n, xi)[1] for xi in chain.xs]
        if chain.x_min < x < chain.x_max:
            fx = _monic_at(chain, n, x)[1] * chain.weight(x)
            acc = mpf(0)
            nodes = list(zip(chain.xs, chain.gl_w, chain.wv, p))
            i = bisect.bisect_left(chain.xs, x)
            if i < len(chain.xs) and chain.xs[i] == x:
                # x is node i: its term has the finite limit -g_i (pi_n w)'(x_i)
                # with (pi_n w)' = w (pi_n' - (N/T_c) V' pi_n)
                _, pn, _, dn = _monic_at(chain, n, x, deriv=True)
                slope = dn - mpf(chain.N) / chain.Tc * chain.V.deriv()(x) * pn
                acc = -chain.gl_w[i] * chain.wv[i] * slope
                del nodes[i]
            for xi, g, w, pi in nodes:
                acc += g * (pi * w - fx) / (x - xi)
            return acc + fx * mp.log((x - chain.x_min) / (chain.x_max - x))
        acc = mpf(0)
        for xi, g, w, pi in zip(chain.xs, chain.gl_w, chain.wv, p):
            acc += g * pi * w / (x - xi)
        return acc


def eval_phi_exact(chain: RecChain, n: int, x):
    """phi_n(x) = pihat_n(x) e^{+(N/2Tc) V(x)} / sqrt(h_n)."""
    if not 0 <= n <= chain.n_max:
        raise ValueError("n out of range")
    with mp.workprec(chain.prec):
        x = mpf(x)
        q = pihat_direct(chain, n, x)
        ex = mpf(chain.N) / (2 * chain.Tc) * chain.V(x) - chain.log_h[n] / 2
        return q * mp.exp(ex)


def kernel_exact(chain: RecChain, n: int, x, x2):
    """K_n(x, x') by Christoffel-Darboux; derivative form on the diagonal."""
    if not 1 <= n <= chain.n_max:
        raise ValueError("n out of range")
    with mp.workprec(chain.prec):
        x, x2 = mpf(x), mpf(x2)
        coupling = mpf(chain.N) / (2 * chain.Tc)
        gam = chain.gamma[n]
        lh = (chain.log_h[n] + chain.log_h[n - 1]) / 2
        if abs(x - x2) > mpf(10) ** (-8) * (1 + abs(x)):
            pn1, pn = _monic_at(chain, n, x)
            qn1, qn = _monic_at(chain, n, x2)
            ex = mp.exp(-coupling * (chain.V(x) + chain.V(x2)) - lh)
            return gam * ex * (pn * qn1 - pn1 * qn) / (x - x2)
        pn1, pn, dn1, dn = _monic_at(chain, n, x, deriv=True)
        s = coupling * chain.V.deriv()(x)
        ex = mp.exp(-2 * coupling * chain.V(x) - lh)
        return gam * ex * ((dn - s * pn) * pn1 - (dn1 - s * pn1) * pn)


def expected_count_exact(chain: RecChain, n: int, lo, hi=None, panels=24):
    """integral_lo^hi K_n(x, x) dx = sum_{j<n} <psi_j, psi_j> on [lo, hi]:
    the diagonal Gram entries of one `_node_vectors` sweep over the
    composite Gauss-Legendre grid of [lo, hi]."""
    F = chain.prec + GUARD_BITS
    with mp.workprec(chain.prec):
        lo = mpf(lo)
        hi = mpf(hi) if hi is not None else chain.x_max
        xs, glw = panel_nodes(lo, hi, panels, 64)
        coupling = mpf(chain.N) / chain.Tc
        ws = [g * mp.exp(-coupling * chain.V(x)) for x, g in zip(xs, glw)]
        with mp.workprec(F + 16):
            total = mp.fsum(mp.ldexp(mpf(S), -F) / (alpha * alpha)
                            for _, _, S, alpha in _node_vectors(
                                xs, ws, chain.beta, chain.gamma,
                                chain.log_h[0], n, F))
        return +total


def chain_to_table(chain: RecChain) -> str:
    """Plain-text export: n, ln h_n, gamma_n, beta_n at 30 significant digits."""
    lines = ["# N=%d Tc=%s n_max=%d bits=%d" % (
        chain.N, mp.nstr(chain.Tc, 30), chain.n_max, chain.prec)]
    lines.append("# n ln_h gamma beta")
    for n in range(chain.n_max + 1):
        lines.append("%d %s %s %s" % (
            n, mp.nstr(chain.log_h[n], 30),
            mp.nstr(chain.gamma[n] if n >= 1 else mpf(0), 30),
            mp.nstr(chain.beta[n], 30)))
    return "\n".join(lines) + "\n"
