"""The effective matrix model in the potential y^{2 nu}/(2 nu), and the
integer Stieltjes kernel that builds every recurrence chain in the package.

Everything reduces to the monic orthogonal polynomials P_k of the weight
w(y) = exp(-y^{2 nu}/(2 nu)) on the line. Their recurrence data is computed
with the discretized Stieltjes procedure on a composite Gauss-Legendre grid
(stable, unlike Hankel-determinant routes); the k-eigenvalue partition
functions follow as zeta_k = prod_{j<k} h_j, kept in log space, and the
amplitudes as

    A_k = A^{-k^2} (2 pi)^{-k} zeta_k

for the model constant A = (2 sinh phi_e)^2 (2 sinh(phi_e) Q(e)/T_c)^{1/2nu}.

The Stieltjes procedure (`stieltjes_chain`, shared with the finite-N oracle)
runs in Lanczos form on the orthonormal node vectors v_k(x_i) =
sqrt(w_i) P_k(x_i)/sqrt(h_k), in Python-integer fixed point with F = prec +
GUARD_BITS fraction bits (Gautschi, Orthogonal Polynomials: Computation and
Approximation, 2004, section 2.2). Each node carries its own exponent e_i >= 0
and holds v_k, v_{k-1} as integers a_i, c_i over 2^(F + e_i). For the
quartic oracle at phi_e = 0.62, N = 80 the start vector spans about 150
orders of magnitude over the grid (about e^{-1.96 N} in the newborn well),
and the well's entries grow by as much as n nears N. A single fixed-point
scale would flush them to zero and lose the accuracy they carry into later
steps (1e-25 at n = 94); the per-node exponent keeps every node at F
significant bits. Only the per-step scalars (beta_k, b_{k+1} = gamma_{k+1},
ln h_{k+1} = ln h_k + 2 ln b_{k+1}) are formed in mpf.

The evaluators of both chain types run on the same integers. A finished
chain stores beta_k and gamma_k^2 as integers over 2^F (`beta_fx`,
`gsq_fx`). Point values p_{k-1}(y), p_k(y), and their y-derivatives for the
diagonal Christoffel-Darboux kernel, come from `_monic_at`: the recurrence
for one node, whose entries share one block exponent that follows p_k up and
down the way e_i does (p_k grows like e^{+N V / 2 T_c} towards the domain
ends, so a single fixed scale would not do). Sums over a grid come from one
sweep of the node vectors with the chain's coefficients (`_node_vectors`):
`gram_entries` re-integrates a finished chain on an independent grid for the
orthogonality checks, and the oracle's `expected_count_exact` sums the
diagonal entries of the same sweep over its counting grid.

Wavefunctions: psi_k = P_k e^{-y^{2nu}/4nu} / sqrt(h_k); the Hilbert-transform
partners start from the principal-value Cauchy transform of the weight and
climb the same three-term recurrence with the delta_{k,0} h_0 inhomogeneity.
At 256-bit precision the forward recurrence keeps the hat solution clean for
every k used here (contamination by the growing solution enters at the seed's
relative accuracy, far below any tolerance in play).

No work is done twice. `build_chain` keeps the last few chains it built and
returns the same object for the same arguments, so chains are shared and
read-only. The Hilbert seed (the principal-value integral over all chain
nodes) is one integer fixed-point sweep over the grid, computed once per
point y and kept on the chain (`ModelChain.cached`), as are the k-sum terms
that `asymptotics` needs once per regime.
"""

from __future__ import annotations

import bisect
from collections import OrderedDict
from dataclasses import dataclass, field

from mpmath import mp, mpf

from .potentials import CriticalSpec
from .quadrature import panel_nodes


@dataclass
class ModelChain:
    """Recurrence data of the y^{2 nu}/(2 nu) model up to k_max.

    Read-only: `build_chain` hands the same object to every caller with the
    same arguments. Its one mutable part is a memo of values derived from
    the chain on first use (`cached`): the Hilbert seed per point y, and the
    k-sum terms per regime that `asymptotics` keys by spec, regime and
    working precision.
    """
    nu: int
    k_max: int
    prec: int
    R: mpf
    ln_zeta: list          # ln zeta_k, k = 0..k_max (zeta_0 = 1)
    ln_h: list             # ln h_k, k = 0..k_max-1
    gamma: list            # gamma_k = sqrt(h_k/h_{k-1}), k = 1..k_max-1 (index k)
    beta: list             # recurrence beta_k (all ~ 0 by parity)
    gsq: list              # gamma_k^2 (index k; gsq[0] = 0)
    hs: list               # h_k = exp(ln_h[k])
    beta_fx: list = field(repr=False)   # beta_k 2^F, F = prec + GUARD_BITS
    gsq_fx: list = field(repr=False)    # gamma_k^2 2^F
    xs: list = field(repr=False, default=None)      # quadrature nodes
    gl_w: list = field(repr=False, default=None)    # bare GL weights
    wv: list = field(repr=False, default=None)      # weight values at nodes
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def cached(self, key, compute):
        """The value stored under key, from compute() on first use."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = compute()
            return value

    def h(self, k):
        return self.hs[k]

    def gamma_sq(self, k):
        return self.gsq[k]


def A_constant(spec: CriticalSpec):
    """A = (2 sinh phi_e)^2 (2 sinh(phi_e) Q(e)/T_c)^{1/(2 nu)}."""
    sh = mp.sinh(spec.phi_e)
    return (2 * sh) ** 2 * (2 * sh * spec.Q(spec.e) / spec.Tc) ** (mpf(1) / (2 * spec.nu))


def ln_A_k(chain: ModelChain, lnA, k: int):
    """ln A_k = ln zeta_k - k^2 ln A - k ln(2 pi); A_{-1} follows the
    zeta_{-1} = 1 convention used by the shifted Hilbert sums."""
    if k == -1:
        return -lnA + mp.log(2 * mp.pi)
    return chain.ln_zeta[k] - k * k * lnA - k * mp.log(2 * mp.pi)


def _model_domain(nu: int, k_max: int, prec: int):
    """R with y^{2 k_max} w(y) below the h_k scale by ~0.45*prec bits."""
    target = mpf(prec) * mp.log(2) * mpf("0.45") + 40
    R = mpf(4)
    while 2 * k_max * mp.log(R) - R ** (2 * nu) / (2 * nu) > -target:
        R += mpf(1) / 2
    return R


GUARD_BITS = 32        # fixed-point fraction bits beyond the working precision
BAND_BITS = 8          # a node is rescaled when its integer leaves F +- 8 bits


def _start_vector(ws, norm, F):
    """v_0 = sqrt(ws[i]/norm) as per-node integers a_i and exponents
    e_i >= 0 with a_i / 2^(F + e_i) = v_0(x_i) to F bits."""
    a, e = [], []
    with mp.workprec(F):
        for w in ws:
            man, ex = mp.sqrt(w / norm).man_exp
            ei = max(0, -(ex + man.bit_length()))
            a.append(man << (F + ei + ex))
            e.append(ei)
    return a, e


def _sums(X, a, e, F):
    """S = 2^F sum v^2 and T = 2^(2F) sum x v^2 of one node vector."""
    S = T = 0
    for xi, ai, ei in zip(X, a, e):
        q = ai * ai >> (F + 2 * ei)
        S += q
        T += xi * q
    return S, T


def _advance(X, a, c, e, B, G, sh, F):
    """One three-term step on every node: a' = ((x - beta) a - g c) / 2^sh
    with B = beta 2^F and G = g 2^F, then each node whose a' has left
    F +- BAND_BITS bits is rescaled together with its c' = a. Returns
    (a', c', e', S', T') with the sums of `_sums` over a'."""
    lo, hi = F - BAND_BITS, F + BAND_BITS
    na, nc, ne = [], [], []
    S = T = 0
    for xi, ai, ci, ei in zip(X, a, c, e):
        v = ((xi - B) * ai - G * ci) >> sh
        bl = v.bit_length()
        if bl < lo:
            if v:
                d = F - bl
                v <<= d
                ai <<= d
                ei += d
        elif bl > hi and ei:
            d = min(bl - F, ei)
            v >>= d
            ai >>= d
            ei -= d
        na.append(v)
        nc.append(ai)
        ne.append(ei)
        q = v * v >> (F + 2 * ei)
        S += q
        T += xi * q
    return na, nc, ne, S, T


def _nearest_shift(x):
    """s with 2^s nearest to x > 0 on a log scale."""
    return int(mp.nint(mp.log(x, 2)))


def stieltjes_chain(xs, ws, n_steps):
    """Recurrence data of the orthogonal polynomials of the discrete measure
    sum_i ws[i] delta(x - xs[i]), at the working precision.

    Returns (beta, gamma, ln_h), each of length n_steps, with gamma[0] = 0:
    the monic recurrence is p_{k+1} = (x - beta_k) p_k - gamma_k^2 p_{k-1}
    and h_k = h_{k-1} gamma_k^2 = sum_i ws[i] p_k(xs[i])^2.

    Lanczos form on integer node vectors (module docstring). The vector
    held at step k is alpha_k v_k, alpha_k = sqrt(S_k / 2^F); forming the
    next one with an extra factor 2^-s_k keeps alpha near 1, so that
    b_{k+1} = 2^s_k sqrt(S_{k+1}/S_k) and the coefficient of v_{k-1} in
    step k is g_k = b_k alpha_k / alpha_{k-1} = 2^s_{k-1} S_k / S_{k-1}.
    """
    prec = mp.prec
    F = prec + GUARD_BITS
    betas, gammas, ln_hs = [], [], []
    with mp.workprec(F + 16):
        total = mp.fsum(ws)
        ln_h = mp.log(total)
        X = _to_fixed(xs, F)
        a, e = _start_vector(ws, total, F)
        c = [0] * len(a)
        S, T = _sums(X, a, e, F)
        S_prev = s_prev = G = 0
        b = mpf(0)
        for k in range(n_steps):
            if S <= 0:
                raise ArithmeticError(
                    "norm collapsed at k = %d: more nodes or bits needed" % k)
            if k:
                b = mp.ldexp(mp.sqrt(mpf(S) / S_prev), s_prev)
                ln_h += 2 * mp.log(b)
                G = (S << (F + s_prev)) // S_prev
            betas.append(mp.ldexp(mpf(T) / S, -F))
            gammas.append(b)
            ln_hs.append(ln_h)
            if k + 1 < n_steps:
                alpha = mp.sqrt(mp.ldexp(mpf(S), -F))
                s = _nearest_shift(alpha * b if k else alpha)
                a, c, e, S_next, T = _advance(X, a, c, e, T // S, G, F + s, F)
                S_prev, S, s_prev = S, S_next, s
    return ([+v for v in betas], [+v for v in gammas], [+v for v in ln_hs])


def _to_fixed(values, F):
    """Each value times 2^F, truncated toward 0 to an integer, as
    int(mp.ldexp(v, F)) gives it, by shifting the mpf mantissa directly."""
    out = []
    for v in values:
        sign, man, exp, _ = (v if isinstance(v, mpf) else mpf(v))._mpf_
        shift = exp + F
        # the magnitude is shifted, so a right shift truncates toward 0
        n = man << shift if shift >= 0 else man >> -shift
        out.append(-n if sign else n)
    return out


def _node_vectors(xs, ws, beta, gamma, ln_h0, count, F):
    """The monic polynomials p_0..p_{count-1} of the recurrence data (beta,
    gamma, ln_h0) on the grid (xs, ws), as the integer node vectors of
    `stieltjes_chain` with the given coefficients in place of those formed
    from the sums. Yields (a, e, S, alpha) for k = 0..count-1, where
    a_i / 2^(F + e_i) = alpha v_k(x_i), v_k = sqrt(ws) p_k / sqrt(h_k), and
    S = 2^F sum_i (alpha v_k(x_i))^2; alpha = prod_{j<k} 2^-s_j b_{j+1},
    with s_j chosen to keep alpha near 1. The caller holds the working
    precision at F + 16 while it iterates.
    """
    X = _to_fixed(xs, F)
    a, e = _start_vector(ws, mp.exp(ln_h0), F)
    c = [0] * len(a)
    S, _ = _sums(X, a, e, F)
    alpha = mpf(1)
    s = 0
    for k in range(count):
        if k:
            s_prev = s
            s = _nearest_shift(alpha * gamma[k])
            B = int(mp.ldexp(beta[k - 1], F))
            G = int(mp.ldexp(gamma[k - 1] ** 2, F - s_prev))
            a, c, e, S, _ = _advance(X, a, c, e, B, G, F + s, F)
            alpha = mp.ldexp(alpha * gamma[k], -s)
        yield a, e, S, alpha


def gram_entries(xs, ws, beta, gamma, ln_h0, pairs):
    """<psi_n, psi_m> = sum_i ws[i] p_n p_m / sqrt(h_n h_m) for each (n, m)
    in pairs, where p_k are the monic polynomials of the recurrence data
    (beta, gamma, ln_h0) evaluated on the grid (xs, ws); for a chain built on
    another grid these are the identity up to that chain's error. ws may be
    an iterator.

    One sweep of `_node_vectors`; only the lower vector of each off-diagonal
    pair is kept, until the step that completes the pair.
    """
    top = max(max(pq) for pq in pairs)
    lower = {min(pq) for pq in pairs if pq[0] != pq[1]}
    F = mp.prec + GUARD_BITS
    gram = {}
    with mp.workprec(F + 16):
        alpha = []
        kept = {}
        for k, (a, e, S, al) in enumerate(
                _node_vectors(xs, ws, beta, gamma, ln_h0, top + 1, F)):
            alpha.append(al)
            if k in lower:
                kept[k] = (a, e)
            for n, m_ in pairs:
                if max(n, m_) != k:
                    continue
                if n == m_:
                    P = S
                else:
                    a2, e2 = kept[min(n, m_)]
                    P = sum(x * y >> (F + i + j)
                            for x, y, i, j in zip(a, a2, e, e2))
                gram[n, m_] = mp.ldexp(mpf(P), -F) / (alpha[n] * alpha[m_])
    return [+gram[pq] for pq in pairs]


CHAIN_CACHE_SIZE = 4   # chains kept by build_chain, least recently used dropped
_chains = OrderedDict()


def build_chain(nu: int, k_max: int = 100, prec: int = 256, nodes: int = 4096,
                check_orthonormality: bool = True) -> ModelChain:
    """Chain of the y^{2 nu}/(2 nu) model up to k_max.

    A call with the same arguments as one of the last CHAIN_CACHE_SIZE
    distinct calls returns the chain that call built (shared, read-only);
    every fresh build runs its orthonormality check when asked to."""
    if k_max > 200:
        raise ValueError("k_max beyond 200 is not supported")
    key = (nu, k_max, prec, nodes, check_orthonormality)
    chain = _chains.get(key)
    if chain is None:
        chain = _build_chain(*key)
        _chains[key] = chain
        if len(_chains) > CHAIN_CACHE_SIZE:
            _chains.popitem(last=False)
    else:
        _chains.move_to_end(key)
    return chain


def _build_chain(nu, k_max, prec, nodes, check_orthonormality):
    with mp.workprec(prec):
        R = _model_domain(nu, k_max, prec)
        panels = max(1, nodes // 64)
        xs, glw = panel_nodes(-R, R, panels, 64)
        wv = [mp.exp(-x ** (2 * nu) / (2 * nu)) for x in xs]
        ws = [g * w for g, w in zip(glw, wv)]
        betas, gammas, ln_hs = stieltjes_chain(xs, ws, k_max)
        ln_zeta = [mpf(0)]
        for k in range(k_max):
            ln_zeta.append(ln_zeta[-1] + ln_hs[k])
        gsq = [g * g for g in gammas]
        F = prec + GUARD_BITS
        chain = ModelChain(nu=nu, k_max=k_max, prec=prec, R=R,
                           ln_zeta=ln_zeta, ln_h=ln_hs, gamma=gammas,
                           beta=betas, gsq=gsq,
                           hs=[mp.exp(v) for v in ln_hs],
                           beta_fx=_to_fixed(betas, F), gsq_fx=_to_fixed(gsq, F),
                           xs=xs, gl_w=glw, wv=wv)
        if check_orthonormality:
            resid = _orthonormality_residual(chain)
            if resid > mpf(10) ** (-20):
                raise ArithmeticError(
                    "orthonormality residual %s > 1e-20 at k_max = %d: "
                    "increase nodes or prec" % (mp.nstr(resid, 5), k_max))
        return chain


def _orthonormality_residual(chain: ModelChain):
    """Worst re-integrated deviation of <psi_j, psi_k> from delta_jk on an
    independently panelized grid, at the highest (worst-resolved) index."""
    with mp.workprec(chain.prec):
        panels = max(1, int(len(chain.xs) * mpf("1.37") / 64))
        xs, ws = panel_nodes(-chain.R, chain.R, panels, 64)
        wv = (w * mp.exp(-x ** (2 * chain.nu) / (2 * chain.nu))
              for x, w in zip(xs, ws))
        top = chain.k_max - 1
        norm, cross = gram_entries(xs, wv, chain.beta, chain.gamma,
                                   chain.ln_h[0], ((top, top), (top, 0)))
        return max(abs(norm - 1), abs(cross))


def _monic_at(chain, n, x, deriv=False, every=False):
    """(p_{n-1}(x), p_n(x)) of the chain's monic recurrence at one point,
    followed by (p'_{n-1}(x), p'_n(x)) when deriv, as mpf at the working
    precision; with every, the list p_0(x), ..., p_n(x) instead. chain is a
    ModelChain or an oracle RecChain.

    Integer fixed point on the chain's beta_fx, gsq_fx: all entries share
    one block exponent E (value = integer 2^(E - F), F = chain.prec +
    GUARD_BITS), and the block is shifted whenever p_n leaves F +- BAND_BITS
    bits, the one-node version of `_advance`. Unlike a single fixed scale
    this covers the e^{N V / 2 T_c}-sized growth of p_n at the domain ends.
    """
    F = chain.prec + GUARD_BITS
    lo, hi = F - BAND_BITS, F + BAND_BITS
    X = int(mp.ldexp(x, F))
    bs, gs = chain.beta_fx, chain.gsq_fx
    q, p = 0, 1 << F
    dq = dp = 0
    E = 0
    ps = [(p, E)]
    for j in range(n):
        t = X - bs[j]
        g = gs[j]
        if deriv:
            dq, dp = dp, p + ((t * dp - g * dq) >> F)
        q, p = p, (t * p - g * q) >> F
        bl = p.bit_length()
        if bl > hi:
            d = bl - F
            p >>= d
            q >>= d
            dp >>= d
            dq >>= d
            E += d
        elif bl < lo and p:
            d = F - bl
            p <<= d
            q <<= d
            dp <<= d
            dq <<= d
            E -= d
        if every:
            ps.append((p, E))
    if every:
        return [mp.ldexp(mpf(v), e - F) for v, e in ps]
    vals = (q, p, dq, dp) if deriv else (q, p)
    return tuple(mp.ldexp(mpf(v), E - F) for v in vals)


def psi_model(chain: ModelChain, k: int, y):
    """Orthonormal psi_k(y) = P_k(y) e^{-y^{2nu}/(4nu)} / sqrt(h_k)."""
    if not 0 <= k < chain.k_max:
        raise ValueError("k out of range")
    with mp.workprec(chain.prec):
        y = mpf(y)
        _, p = _monic_at(chain, k, y)
        return p * mp.exp(-y ** (2 * chain.nu) / (4 * chain.nu) - chain.ln_h[k] / 2)


def psi_values(chain: ModelChain, n: int, y):
    """[psi_0(y), ..., psi_n(y)], as psi_model gives them, from one pass of
    the recurrence."""
    if not 0 <= n < chain.k_max:
        raise ValueError("k out of range")
    with mp.workprec(chain.prec):
        y = mpf(y)
        g = -y ** (2 * chain.nu) / (4 * chain.nu)
        return [p * mp.exp(g - chain.ln_h[k] / 2)
                for k, p in enumerate(_monic_at(chain, n, y, every=True))]


def _seed_grid(chain: ModelChain):
    """The chain's nodes x_i, GL weights g_i and g_i w(x_i), each times 2^F
    (F = prec + GUARD_BITS) as integers."""
    F = chain.prec + GUARD_BITS
    with mp.workprec(F):
        gw = [g * w for g, w in zip(chain.gl_w, chain.wv)]
        return _to_fixed(chain.xs, F), _to_fixed(chain.gl_w, F), _to_fixed(gw, F)


def _phat_seed(chain: ModelChain, y):
    """PV integral of w(x)/(y-x) over the truncated support, by singularity
    subtraction against w(y) for |y| < R (the plain sum outside).

    One integer sweep over the chain's grid: sum_i g_i (w_i - w(y))/(y - x_i)
    in fixed point with F = prec + GUARD_BITS fraction bits, an absolute
    error of about one unit of 2^-F per node."""
    F = chain.prec + GUARD_BITS
    X, G, GW = chain.cached("seed grid", lambda: _seed_grid(chain))
    y = mpf(y)
    R = chain.R
    inside = abs(y) < R
    wy = mp.exp(-y ** (2 * chain.nu) / (2 * chain.nu)) if inside else mpf(0)
    Y, WY = int(mp.ldexp(y, F)), int(mp.ldexp(wy, F))
    acc = 0
    nodes = zip(X, G, GW)
    i = bisect.bisect_left(X, Y)
    if i < len(X) and X[i] == Y:
        # y is node i (to 2^-F): its term has the finite limit
        # -g_i w'(x_i) = g_i w_i x_i^(2nu-1)
        p = 2 * chain.nu - 1
        acc = (GW[i] * X[i] ** p) >> (F * p)
        nodes = zip(X[:i] + X[i + 1:], G[:i] + G[i + 1:], GW[:i] + GW[i + 1:])
    for x, g, gw in nodes:
        acc += ((gw - (g * WY >> F)) << F) // (Y - x)
    seed = mp.ldexp(mpf(acc), -F)
    if inside:
        seed += wy * mp.log((y + R) / (R - y))
    return seed


def phat_values(chain: ModelChain, k: int, y):
    """(phat_{k-1}, phat_k) where phat_j(y) = int P_j(x) w(x)/(y-x) dx,
    built from the seed (computed once per y) and the inhomogeneous
    three-term recurrence."""
    with mp.workprec(chain.prec):
        y = mpf(y)
        q_prev = mpf(0)
        q = chain.cached(("phat seed", y), lambda: _phat_seed(chain, y))
        for j in range(k):
            g = chain.gsq[j]
            inhom = chain.hs[0] if j == 0 else 0
            q_prev, q = q, (y - chain.beta[j]) * q - g * q_prev - inhom
        return q_prev, q


def psihat_values(chain: ModelChain, k: int, y):
    """(psihat_{k-1}(y), psihat_k(y)) from one phat_values call, with
    psihat_j = phat_j e^{+y^{2nu}/(4nu)} / sqrt(h_j) and psihat_{-1} the
    bare e^{+y^{2nu}/(4nu)} (empty-average convention)."""
    if not 0 <= k < chain.k_max:
        raise ValueError("k out of range")
    with mp.workprec(chain.prec):
        y = mpf(y)
        g = y ** (2 * chain.nu) / (4 * chain.nu)
        q_prev, q = phat_values(chain, k, y)
        up = q * mp.exp(g - chain.ln_h[k] / 2)
        down = q_prev * mp.exp(g - chain.ln_h[k - 1] / 2) if k else mp.exp(g)
        return down, up


def psihat_model(chain: ModelChain, k: int, y):
    """psihat_k(y) = phat_k(y) e^{+y^{2nu}/(4nu)} / sqrt(h_k); k = -1 returns
    the bare e^{+y^{2nu}/(4nu)} (empty-average convention)."""
    if k == -1:
        with mp.workprec(chain.prec):
            y = mpf(y)
            return mp.exp(y ** (2 * chain.nu) / (4 * chain.nu))
    return psihat_values(chain, k, y)[1]


def kernel_model(chain: ModelChain, k: int, y, y2):
    """Christoffel-Darboux kernel K_k(y, y') of the model, degenerating to the
    derivative form on the diagonal."""
    if not 1 <= k < chain.k_max:
        raise ValueError("k out of range")
    with mp.workprec(chain.prec):
        y, y2 = mpf(y), mpf(y2)
        gam = chain.gamma[k]
        if abs(y - y2) > mpf(10) ** (-8) * (1 + abs(y)):
            pk1, pk = _monic_at(chain, k, y)
            qk1, qk = _monic_at(chain, k, y2)
            ex = mp.exp(-(y ** (2 * chain.nu) + y2 ** (2 * chain.nu)) / (4 * chain.nu)
                        - (chain.ln_h[k] + chain.ln_h[k - 1]) / 2)
            return gam * ex * (pk * qk1 - pk1 * qk) / (y - y2)
        # diagonal limit: gamma_k (psi_k' psi_{k-1} - psi_{k-1}' psi_k)
        pk1, pk, dk1, dk = _monic_at(chain, k, y, deriv=True)
        nu = chain.nu
        s = y ** (2 * nu - 1) / 2
        ex = mp.exp(-y ** (2 * nu) / (2 * nu) - (chain.ln_h[k] + chain.ln_h[k - 1]) / 2)
        num = (dk - s * pk) * pk1 - (dk1 - s * pk1) * pk
        return gam * ex * num


# ----------------------------------------------------------------------------
# plain-text cache
# ----------------------------------------------------------------------------

def chain_to_table(chain: ModelChain, lnA=None) -> str:
    """Columns k, ln_zeta, gamma, ln_A (ln_A only when lnA given), 30 digits."""
    lines = ["# nu=%d k_max=%d prec=%d R=%s" % (
        chain.nu, chain.k_max, chain.prec, mp.nstr(chain.R, 10))]
    lines.append("# k ln_zeta gamma ln_A")
    for k in range(chain.k_max):
        g = chain.gamma[k] if k >= 1 else mpf(0)
        la = ln_A_k(chain, lnA, k) if lnA is not None else mpf(0)
        lines.append("%d %s %s %s" % (
            k, mp.nstr(chain.ln_zeta[k], 30), mp.nstr(g, 30), mp.nstr(la, 30)))
    return "\n".join(lines) + "\n"
