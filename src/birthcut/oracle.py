"""Recurrence chains of the weight exp(-(N/T_c) V): the exact finite-N
oracle, the ground truth for every asymptotic law, and the effective model
chain of exp(-y^{2 nu}/(2 nu)), which is the same object at N = T_c = 1
(`modelchain.build_chain` fills it from the Freud string equation instead of
the Stieltjes procedure below, and checks it with `orthogonality_residual`
on its own grid).

The n-dependent-temperature partition functions collapse to a single fixed
weight: Z_n(T_c n/N, V) couples as n/T = N/T_c, so

    h_n = Z_{n+1}/Z_n,  gamma_n = sqrt(h_n/h_{n-1}),  beta_n

are exactly the norm and recurrence data of the monic orthogonal polynomials
of w(x) = exp(-(N/T_c) V(x)) on the line, and zeta_n = prod_{j<n} h_j is the
n-eigenvalue partition function (kept in log space). (The identity
n/(T_c n/N) = N/T_c is what makes one discretized-Stieltjes pass sufficient;
the test suite re-derives h_1, h_2 from 1- and 2-dimensional integrals as a
cross-check.)

Chains are built at >= 256-bit precision on a composite Gauss-Legendre grid
wide enough that the x^{2 n_max}-weighted tail is negligible at the target
precision, by the discretized Stieltjes procedure (stable, unlike
Hankel-determinant routes; Gautschi, Orthogonal Polynomials: Computation and
Approximation, 2004, section 2.2), which needs only sqrt(g_i w(x_i)) at each
node to working precision.

Every grid a chain sweep reads (the Stieltjes grid, both orthogonality
checks' grids, the counting grid and the principal-value grid) is one
`NodeGrid` from `_node_grid`, built once in integers: nodes in fixed point,
rounded to prec significant bits so that each is an exact mpf, and
sqrt(g_i w_i) as an integer of about F bits with its own power of 2, from an
integer Horner pass on V, an ln 2 argument reduction and mpmath's
fixed-point exp series. No mpf is formed per node but the node itself. A
chain keeps its grid; the mpf views `gl_w` (GL weights) and `wv` (w at the
nodes) are derived from it on demand.

`stieltjes_chain` runs it in Lanczos form on the orthonormal node vectors
v_k(x_i) = sqrt(w_i) P_k(x_i)/sqrt(h_k), in Python-integer fixed point with
F = prec + GUARD_BITS fraction bits. Each node carries its own exponent
e_i >= 0 and holds v_k, v_{k-1} as integers a_i, c_i over 2^(F + e_i). For
the quartic oracle at phi_e = 0.62, N = 80 the start vector spans about 150
orders of magnitude over the grid (about e^{-1.96 N} in the newborn well),
and the well's entries grow by as much as n nears N. A single fixed-point
scale would flush them to zero and lose the accuracy they carry into later
steps (1e-25 at n = 94); the per-node exponent keeps every node at F
significant bits. Only the per-step scalars (beta_k, b_{k+1} = gamma_{k+1},
ln h_{k+1} = ln h_k + 2 ln b_{k+1}) are formed in mpf.

The evaluators run on the same integers. A finished chain stores beta_k and
gamma_k^2 as integers over 2^F (`beta_fx`, `gsq_fx`). Point values
p_{k-1}(x), p_k(x), and their x-derivatives for the diagonal
Christoffel-Darboux kernel, come from `_monic_at`: the recurrence for one
node, whose entries share one block exponent that follows p_k up and down
the way e_i does (p_k grows like e^{+N V / 2 T_c} towards the domain ends,
so a single fixed scale would not do). Sums over a grid come from one sweep
of the node vectors with the chain's coefficients (`_node_vectors`), which
forms a step's sums only where they are read: `gram_entries` re-integrates
a finished chain on an independent grid for the orthogonality checks,
`expected_count_exact` sums the diagonal entries of the same sweep over its
counting grid, and `pihat_direct` sums g_i w_i pi_n(x_i)/(x - x_i) over the
chain's own grid. Only the prefactors
e^{-NV/2T_c} / sqrt(h_n) are formed in mpf. The diagonal kernel keeps the
Christoffel-Darboux derivative form, so that it stays an independent check
of the count.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from mpmath import mp, mpf
from mpmath.libmp import from_man_exp
from mpmath.libmp.libelefun import exp_basecase, ln2_fixed

from .poly import Poly
from .quadrature import gauss_legendre

GUARD_BITS = 32        # fixed-point fraction bits beyond the working precision
BAND_BITS = 8          # a node is rescaled when its integer leaves F +- 8 bits
PANEL_POINTS = 64      # Gauss-Legendre points per panel of every chain grid


@dataclass(frozen=True, eq=False)
class NodeGrid:
    """A composite Gauss-Legendre grid carrying a weight w, in integers over
    2^F: node i is xs[i] = X[i] 2^-F exactly (an exact prec-bit mpf), and
    sqrt(g_i w_i) = U[i] 2^-(F + K[i] + m) with K[i] >= 0 and U[i] of about
    F bits, g_i the GL weight of the node. Every panel has the same width,
    so the weights of one panel (`g`) serve them all. Built by `_node_grid`.
    """
    F: int
    xs: list = field(repr=False)
    X: list = field(repr=False)
    U: list = field(repr=False)
    K: list = field(repr=False)
    m: int
    g: list = field(repr=False)

    def __len__(self):
        return len(self.X)

    def gw(self, i):
        """g_i w_i as an mpf at the working precision."""
        shift = 2 * (self.F + self.K[i] + self.m)
        return mp.ldexp(mpf(self.U[i] ** 2), -shift)

    def gl_w(self):
        """The GL weights g_i of every node."""
        return self.g * (len(self.X) // len(self.g))

    def wv(self):
        """The weights w(x_i) = g_i w_i / g_i of every node."""
        return [self.gw(i) / g for i, g in enumerate(self.gl_w())]


def _node_grid(lo, hi, panels, V: Poly, coupling, F):
    """The `NodeGrid` of w = exp(-coupling V) on [lo, hi], `panels` panels
    of the PANEL_POINTS-point Gauss-Legendre rule, with F fraction bits
    (the rule at F - GUARD_BITS bits).

    All in integers but 64 square roots of the panel's GL weights: node
    X = LO + i H + H (t_j + 1)/2 rounded to prec significant bits, then
    (coupling/2) V(x) 2^F by Horner, split as k ln 2 + r with 0 <= r < ln 2,
    and sqrt(w) = 2^-k exp(-r) from mpmath's fixed-point exp series (argument
    reduction as in Brent and Zimmermann, Modern Computer Arithmetic, 2010,
    section 4.3). Each term is accurate to a few units of 2^-F.
    """
    prec = F - GUARD_BITS
    with mp.workprec(prec):
        ts, gs = gauss_legendre(PANEL_POINTS)
    with mp.workprec(F + 16):
        LO, HI = _to_fixed([mpf(lo), mpf(hi)], F)
        H = (HI - LO) // panels
        T = [t + (1 << F) for t in _to_fixed(ts, F)]
        g = [mp.ldexp(mpf(H), -F - 1) * w for w in gs]
        roots = []                   # sqrt(g_j) = S_j 2^-(F + s_j)
        for gj in g:
            man, ex = mp.sqrt(gj).man_exp
            bl = man.bit_length()
            roots.append((man << (F - bl) if bl < F else man >> (bl - F),
                          -(ex + bl)))
        C = _to_fixed([coupling * c / 2 for c in reversed(V.c)], F)
    L = ln2_fixed(F)
    xs, X, U, K = [], [], [], []
    for i in range(panels):
        base = LO + i * H
        for tj, (Sj, sj) in zip(T, roots):
            x = base + (H * tj >> (F + 1))
            d = abs(x).bit_length() - prec
            if d > 0:                # round to prec significant bits
                x = ((x >> (d - 1)) + 1 >> 1) << d
            acc = 0
            for c in C:
                acc = (acc * x >> F) + c
            k, r = divmod(acc, L)
            xs.append(mp.make_mpf(from_man_exp(x, -F)))
            X.append(x)
            U.append(exp_basecase(-r, F) * Sj >> F)
            K.append(k + sj)
    m = min(K)
    return NodeGrid(F=F, xs=xs, X=X, U=U, K=[k - m for k in K], m=m, g=g)


@dataclass
class RecChain:
    """Recurrence data of w = exp(-(N/Tc) V) up to n_max on [x_min, x_max].

    Read-only once built, so it can be shared. Its one mutable part is a
    memo of values derived from the chain on first use (`cached`), such as
    the principal-value node sums of `pihat_direct` and the k-sum terms that
    `asymptotics` keys by spec, regime and working precision.
    """
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
    ln_zeta: list          # ln zeta_n, n = 0..n_max+1 (zeta_0 = 1)
    beta_fx: list = field(repr=False)   # beta_n 2^F, F = prec + GUARD_BITS
    gsq_fx: list = field(repr=False)    # gamma_n^2 2^F
    grid: NodeGrid = field(repr=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def cached(self, key, compute):
        """The value stored under key, from compute() on first use."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = compute()
            return value

    def h(self, n):
        return self.hs[n]

    def gamma_sq(self, n):
        return self.gsq[n]

    def weight(self, x):
        return mp.exp(-self.N / self.Tc * self.V(x))

    @property
    def xs(self):
        return self.grid.xs

    @property
    def gl_w(self):
        return self.grid.gl_w()

    @property
    def wv(self):
        return self.grid.wv()


def _start_vector(grid, norm):
    """v_0 = sqrt(g_i w_i / norm) on the grid as per-node integers a_i and
    exponents e_i >= 0 with a_i / 2^(F + e_i) = v_0(x_i) to F = grid.F bits:
    one integer product U_i M per node, with 2^-m / sqrt(norm) = M 2^(q - F).
    """
    F = grid.F
    man, ex = mp.ldexp(1 / mp.sqrt(norm), -grid.m).man_exp
    bl = man.bit_length()
    M = man << (F - bl) if bl < F else man >> (bl - F)
    q = ex + bl
    a, e = [], []
    for u, k in zip(grid.U, grid.K):
        ei = max(0, k - q)
        a.append(u * M >> (F + k - q - ei))
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


def _advance(X, a, c, e, B, G, sh, F, sums):
    """One three-term step on every node: a' = ((x - beta) a - g c) / 2^sh
    with B = beta 2^F and G = g 2^F, then each node whose a' has left
    F +- BAND_BITS bits is rescaled together with its c' = a. Returns
    (a', c', e', S', T') with the sums of `_sums` over a' if sums, else
    S' = T' = None (the step then costs about 60% of one with sums)."""
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
        if sums:
            q = v * v >> (F + 2 * ei)
            S += q
            T += xi * q
    if not sums:
        S = T = None
    return na, nc, ne, S, T


def _nearest_shift(x):
    """s with 2^s nearest to x > 0 on a log scale."""
    return int(mp.nint(mp.log(x, 2)))


def stieltjes_chain(xs, n_steps):
    """Recurrence data of the orthogonal polynomials of the discrete measure
    sum_i g_i w_i delta(x - x_i) of the `NodeGrid` xs, at the working
    precision. (The grid is named xs after the nodes it holds:
    `bench/tracer.py` counts node-steps as len(xs) * n_steps.)

    Returns (beta, gamma, ln_h), each of length n_steps, with gamma[0] = 0:
    the monic recurrence is p_{k+1} = (x - beta_k) p_k - gamma_k^2 p_{k-1}
    and h_k = h_{k-1} gamma_k^2 = sum_i g_i w_i p_k(x_i)^2.

    Lanczos form on integer node vectors (module docstring). The vector
    held at step k is alpha_k v_k, alpha_k = sqrt(S_k / 2^F); forming the
    next one with an extra factor 2^-s_k keeps alpha near 1, so that
    b_{k+1} = 2^s_k sqrt(S_{k+1}/S_k) and the coefficient of v_{k-1} in
    step k is g_k = b_k alpha_k / alpha_{k-1} = 2^s_{k-1} S_k / S_{k-1}.
    h_0 is the integer sum of U_i^2 over the grid.
    """
    grid = xs
    F, X = grid.F, grid.X
    betas, gammas, ln_hs = [], [], []
    with mp.workprec(F + 16):
        total = mp.ldexp(mpf(sum(u * u >> 2 * k
                                 for u, k in zip(grid.U, grid.K))),
                         -2 * (F + grid.m))
        ln_h = mp.log(total)
        a, e = _start_vector(grid, total)
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
                a, c, e, S_next, T = _advance(X, a, c, e, T // S, G, F + s, F,
                                              True)
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


def _node_vectors(grid, beta, gamma, ln_h0, count, sums=()):
    """The monic polynomials p_0..p_{count-1} of the recurrence data (beta,
    gamma, ln_h0) on the `NodeGrid` grid, as the integer node vectors of
    `stieltjes_chain` with the given coefficients in place of those formed
    from the sums. Yields (a, e, S, alpha) for k = 0..count-1, where
    a_i / 2^(F + e_i) = alpha v_k(x_i), v_k = sqrt(g w) p_k / sqrt(h_k), and
    S = 2^F sum_i (alpha v_k(x_i))^2 for k in sums, else None;
    alpha = prod_{j<k} 2^-s_j b_{j+1}, with s_j chosen to keep alpha near 1.
    The caller holds the working precision at F + 16 while it iterates.
    """
    F, X = grid.F, grid.X
    a, e = _start_vector(grid, mp.exp(ln_h0))
    c = [0] * len(a)
    S = _sums(X, a, e, F)[0] if 0 in sums else None
    alpha = mpf(1)
    s = 0
    for k in range(count):
        if k:
            s_prev = s
            s = _nearest_shift(alpha * gamma[k])
            B = int(mp.ldexp(beta[k - 1], F))
            G = int(mp.ldexp(gamma[k - 1] ** 2, F - s_prev))
            a, c, e, S, _ = _advance(X, a, c, e, B, G, F + s, F, k in sums)
            alpha = mp.ldexp(alpha * gamma[k], -s)
        yield a, e, S, alpha


def gram_entries(grid, beta, gamma, ln_h0, pairs):
    """<psi_n, psi_m> = sum_i g_i w_i p_n p_m / sqrt(h_n h_m) for each (n, m)
    in pairs, where p_k are the monic polynomials of the recurrence data
    (beta, gamma, ln_h0) evaluated on the `NodeGrid` grid; for a chain built
    on another grid these are the identity up to that chain's error.

    One sweep of `_node_vectors`, which forms its sums only at the diagonal
    pairs' steps; only the lower vector of each off-diagonal pair is kept,
    until the step that completes the pair.
    """
    top = max(max(pq) for pq in pairs)
    lower = {min(pq) for pq in pairs if pq[0] != pq[1]}
    diagonal = {n for n, m_ in pairs if n == m_}
    F = grid.F
    gram = {}
    with mp.workprec(F + 16):
        alpha = []
        kept = {}
        for k, (a, e, S, al) in enumerate(
                _node_vectors(grid, beta, gamma, ln_h0, top + 1, diagonal)):
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


def _monic_at(chain, n, x, deriv=False, every=False):
    """(p_{n-1}(x), p_n(x)) of the chain's monic recurrence at one point,
    followed by (p'_{n-1}(x), p'_n(x)) when deriv, as mpf at the working
    precision; with every, the list p_0(x), ..., p_n(x) instead.

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
        F = bits + GUARD_BITS
        grid = _node_grid(lo, hi, max(1, nodes // PANEL_POINTS), V,
                          mpf(N) / Tc, F)
        betas, gammas, ln_hs = stieltjes_chain(grid, n_max + 1)
        ln_zeta = [mpf(0)]
        for v in ln_hs:
            ln_zeta.append(ln_zeta[-1] + v)
        gsq = [g * g for g in gammas]
        chain = RecChain(N=N, Tc=Tc, V=V, n_max=n_max, prec=bits,
                         x_min=lo, x_max=hi, log_h=ln_hs, gamma=gammas,
                         beta=betas, gsq=gsq, hs=[mp.exp(v) for v in ln_hs],
                         ln_zeta=ln_zeta, beta_fx=_to_fixed(betas, F),
                         gsq_fx=_to_fixed(gsq, F), grid=grid)
        if check_orthogonality:
            resid = orthogonality_residual(chain, pairs=((0, 0), (1, 3), (4, 4)))
            if resid > mpf(10) ** (-15):
                raise ArithmeticError(
                    "orthogonality residual %s > 1e-15: increase bits or nodes"
                    % mp.nstr(resid, 5))
    return chain


def orthogonality_residual(chain: RecChain, pairs, grid=None):
    """max over pairs of |<pi_n, pi_m>/sqrt(h_n h_m) - delta_nm| on a
    `NodeGrid` of the chain's weight that the chain was not built on, by
    default an independent panelization of [x_min, x_max] with 1.37x the
    chain's nodes."""
    with mp.workprec(chain.prec):
        if grid is None:
            panels = max(1, int(len(chain.xs) * mpf("1.37") / PANEL_POINTS))
            grid = _node_grid(chain.x_min, chain.x_max, panels, chain.V,
                              mpf(chain.N) / chain.Tc, chain.grid.F)
        gram = gram_entries(grid, chain.beta, chain.gamma, chain.log_h[0],
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


def _pv_weights(grid: NodeGrid):
    """The GL weights g_i of the grid's nodes times 2^F, as integers."""
    return _to_fixed(grid.g, grid.F) * (len(grid) // len(grid.g))


def _pv_values(chain: RecChain, n: int):
    """g_i w_i pi_n(x_i) / unit times 2^F as integers, and unit.

    pi_0 = 1, so at n = 0 unit is the power of 2 nearest h_0 and the values
    are the grid's U_i^2, shifted. Otherwise one sweep of `_node_vectors` to
    k = n, forming no sums: with v_k = sqrt(g w) pi_k / sqrt(h_k),
    g_i w_i pi_n(x_i) = sqrt(h_0 h_n) v_0(x_i) v_n(x_i), and the sweep holds
    alpha v_k, so unit = sqrt(h_0 h_n) / alpha."""
    grid = chain.grid
    F = grid.F
    if n:
        for k, (a, e, _, alpha) in enumerate(_node_vectors(
                grid, chain.beta, chain.gamma, chain.log_h[0], n + 1)):
            if not k:
                a0, e0 = a, e
        P = [u * v >> (F + i + j) for u, v, i, j in zip(a0, a, e0, e)]
        unit = mp.exp((chain.log_h[0] + chain.log_h[n]) / 2) / alpha
    else:
        s = _nearest_shift(mp.exp(chain.log_h[0]))
        unit = mp.ldexp(1, s)
        # g_i w_i 2^(F - s) = U_i^2 2^-(F + 2 K_i + 2 m + s); F + 2 m + s > 0
        # since the largest g_i w_i, about 2^-2m, is below 4 h_0
        sh = F + 2 * grid.m + s
        P = [u * u >> (sh + 2 * k) for u, k in zip(grid.U, grid.K)]
    return P, unit


def pihat_direct(chain: RecChain, n: int, x):
    """pihat_n(x) = int pi_n(x') w(x')/(x - x') dx' by direct (PV) quadrature
    on the chain's grid.

    Unlike a seeded forward recurrence this is accurate at every n: outside
    the bulk support the hat solution decays like Lambda^{-n} while the
    recurrence's roundoff feeds the growing pi_n branch, which overtakes the
    true value near n ~ 45 at 320 bits.

    One integer sweep over the chain's `NodeGrid`, its GL weights (kept on
    the chain by `_pv_weights`) and the values of `_pv_values` (kept per n),
    in fixed point with F = prec + GUARD_BITS fraction bits: an absolute
    error of about one unit of 2^-F per node, in units of sqrt(h_0 h_n).
    Inside (x_min, x_max) each node's term subtracts f = pi_n w at x, and
    f(x) ln((x - x_min)/(x_max - x)) adds the subtracted integral back.
    """
    F = chain.grid.F
    with mp.workprec(F + 16):
        x = mpf(x)
        X = chain.grid.X
        G = chain.cached("pv weights", lambda: _pv_weights(chain.grid))
        P, unit = chain.cached(("pv values", n), lambda: _pv_values(chain, n))
        total = mpf(0)
        FX = 0
        if chain.x_min < x < chain.x_max:
            fx = _monic_at(chain, n, x)[1] * chain.weight(x)
            FX = int(mp.ldexp(fx / unit, F))
            total = fx * mp.log((x - chain.x_min) / (chain.x_max - x))
        Y = int(mp.ldexp(x, F))
        terms = zip(X, G, P)
        i = bisect.bisect_left(X, Y)
        if i < len(X) and X[i] == Y:
            # x is node i (to 2^-F): its term has the finite limit
            # -g_i (pi_n w)'(x_i) with (pi_n w)' = w (pi_n' - (N/T_c) V' pi_n)
            xi = chain.xs[i]
            _, pn, _, dn = _monic_at(chain, n, xi, deriv=True)
            slope = dn - chain.N / chain.Tc * chain.V.deriv()(xi) * pn
            total -= chain.grid.gw(i) * slope
            terms = zip(X[:i] + X[i + 1:], G[:i] + G[i + 1:], P[:i] + P[i + 1:])
        acc = 0
        for xj, g, p in terms:
            acc += ((p - (g * FX >> F)) << F) // (Y - xj)
        total += mp.ldexp(mpf(acc), -F) * unit
    with mp.workprec(chain.prec):
        return +total


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
    `NodeGrid` of [lo, hi] with `panels` panels."""
    F = chain.prec + GUARD_BITS
    with mp.workprec(chain.prec):
        hi = hi if hi is not None else chain.x_max
        grid = _node_grid(lo, hi, panels, chain.V, mpf(chain.N) / chain.Tc, F)
        with mp.workprec(F + 16):
            total = mp.fsum(mp.ldexp(mpf(S), -F) / (alpha * alpha)
                            for _, _, S, alpha in _node_vectors(
                                grid, chain.beta, chain.gamma,
                                chain.log_h[0], n, range(n)))
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
