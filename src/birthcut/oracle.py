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

gamma_n^2 and h_n are stored with the chain at its precision, so the
recurrences of the evaluators (psi_n, phi_n, the Christoffel-Darboux kernel,
counting integrals), which are pure functions of the immutable chain, make no
exp per step. The evaluators work in mpf, whose unbounded exponents cover
pi_n e^{-NV/2T_c} at single points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from mpmath import mp, mpf

from .modelchain import gram_entries, stieltjes_chain
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
    if vmin < V(lo) and vmin < V(hi):
        pass  # interior minimum as assumed
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
        chain = RecChain(N=N, Tc=Tc, V=V, n_max=n_max, prec=bits,
                         x_min=lo, x_max=hi, log_h=ln_hs, gamma=gammas,
                         beta=betas, gsq=[g * g for g in gammas],
                         hs=[mp.exp(v) for v in ln_hs], xs=xs, gl_w=glw, wv=wv)
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


def _pi_value(chain: RecChain, n: int, x):
    p_prev, p = mpf(0), mpf(1)
    for j in range(n):
        g = chain.gsq[j]
        p_prev, p = p, (x - chain.beta[j]) * p - g * p_prev
    return p


def _pi_pair(chain: RecChain, n: int, x):
    p_prev, p = mpf(0), mpf(1)
    for j in range(n):
        g = chain.gsq[j]
        p_prev, p = p, (x - chain.beta[j]) * p - g * p_prev
    return p_prev, p


def eval_psi_exact(chain: RecChain, n: int, x):
    """psi_n(x) = pi_n(x) e^{-(N/2Tc) V(x)} / sqrt(h_n)."""
    if not 0 <= n <= chain.n_max:
        raise ValueError("n out of range")
    with mp.workprec(chain.prec):
        x = mpf(x)
        p = _pi_value(chain, n, x)
        ex = -mpf(chain.N) / (2 * chain.Tc) * chain.V(x) - chain.log_h[n] / 2
        return p * mp.exp(ex)


def _pihat_seed(chain: RecChain, x):
    """PV (or plain, outside the grid) integral of w(x')/(x - x')."""
    x = mpf(x)
    if x <= chain.x_min or x >= chain.x_max:
        acc = mpf(0)
        for xi, g, w in zip(chain.xs, chain.gl_w, chain.wv):
            acc += g * w / (x - xi)
        return acc
    coupling = mpf(chain.N) / chain.Tc
    wx = mp.exp(-coupling * chain.V(x))
    acc = mpf(0)
    for xi, g, w in zip(chain.xs, chain.gl_w, chain.wv):
        acc += g * (w - wx) / (x - xi)
    return acc + wx * mp.log((x - chain.x_min) / (chain.x_max - x))


def pihat_values(chain: RecChain, n: int, x):
    """(pihat_{n-1}, pihat_n): seed plus the recurrence with the delta_{j,0}
    h_0 inhomogeneity. Stable at this precision; see the module docstring."""
    with mp.workprec(chain.prec):
        x = mpf(x)
        q_prev, q = mpf(0), _pihat_seed(chain, x)
        for j in range(n):
            g = chain.gsq[j]
            inhom = chain.hs[0] if j == 0 else 0
            q_prev, q = q, (x - chain.beta[j]) * q - g * q_prev - inhom
        return q_prev, q


def pihat_direct(chain: RecChain, n: int, x):
    """pihat_n(x) = int pi_n(x') w(x')/(x - x') dx' by direct (PV) quadrature.

    Unlike the seeded forward recurrence this is accurate at every n: outside
    the bulk support the hat solution decays like Lambda^{-n} while the
    recurrence's roundoff feeds the growing pi_n branch, which overtakes the
    true value near n ~ 45 at 320 bits.
    """
    with mp.workprec(chain.prec):
        x = mpf(x)
        pn = [None] * len(chain.xs)
        p_prev = [mpf(0)] * len(chain.xs)
        p = [mpf(1)] * len(chain.xs)
        for j in range(n):
            g = chain.gsq[j]
            b = chain.beta[j]
            p_prev, p = p, [(xi - b) * pi - g * pp
                            for xi, pi, pp in zip(chain.xs, p, p_prev)]
        if chain.x_min < x < chain.x_max:
            fx = _pi_value(chain, n, x) * chain.weight(x)
            acc = mpf(0)
            for xi, g, w, pi in zip(chain.xs, chain.gl_w, chain.wv, p):
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
            pn1, pn = _pi_pair(chain, n, x)
            qn1, qn = _pi_pair(chain, n, x2)
            ex = mp.exp(-coupling * (chain.V(x) + chain.V(x2)) - lh)
            return gam * ex * (pn * qn1 - pn1 * qn) / (x - x2)
        pn1, pn = _pi_pair(chain, n, x)
        dn1, dn = _dpi_pair(chain, n, x)
        s = coupling * chain.V.deriv()(x)
        ex = mp.exp(-2 * coupling * chain.V(x) - lh)
        return gam * ex * ((dn - s * pn) * pn1 - (dn1 - s * pn1) * pn)


def _dpi_pair(chain: RecChain, n: int, x):
    p_prev, p = mpf(0), mpf(1)
    d_prev, d = mpf(0), mpf(0)
    for j in range(n):
        g = chain.gsq[j]
        d_prev, d = d, p + (x - chain.beta[j]) * d - g * d_prev
        p_prev, p = p, (x - chain.beta[j]) * p - g * p_prev
    return d_prev, d


def expected_count_exact(chain: RecChain, n: int, lo, hi=None, panels=24):
    """integral_lo^hi K_n(x, x) dx via the direct sum_{j<n} psi_j^2 form."""
    with mp.workprec(chain.prec):
        lo = mpf(lo)
        hi = mpf(hi) if hi is not None else chain.x_max
        xs, glw = panel_nodes(lo, hi, panels, 64)
        coupling = mpf(chain.N) / chain.Tc
        total = mpf(0)
        for x, g in zip(xs, glw):
            w = mp.exp(-coupling * chain.V(x))
            p_prev, p = mpf(0), mpf(1)
            acc = w * p * p / chain.hs[0]
            for j in range(1, n):
                p_prev, p = p, ((x - chain.beta[j - 1]) * p
                                - chain.gsq[j - 1] * p_prev)
                acc += w * p * p / chain.hs[j]
            total += g * acc
        return total


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
