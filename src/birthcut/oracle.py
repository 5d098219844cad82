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
node to working precision. Both chain builders climb one node ladder
(`_first_converged`) until the check at the top index converges;
Gauss-Legendre rules converge geometrically on analytic integrands
(Trefethen, SIAM Rev. 50, 2008).

A chain is the recurrence chain of one `Weight` (V, N, T_c and the ends
lo, hi that `Weight.default` chooses), the one place N/T_c is formed.
Whatever builds the recurrence (beta_n, gamma_n, ln h_n), `assemble_chain`
derives the rest of a `RecChain` from it in one place: gamma_n^2, ln zeta_n,
the fixed-point copies and the factors 1/sqrt(h_n).

Every grid a chain sweep reads (the Stieltjes grid, both orthogonality
checks' grids, the counting grid and the principal-value grid) is one
`NodeGrid` of the weight (`Weight.grid`), built in integers, with no mpf
formed per node. A chain keeps its grid. Where the weight is even on a
symmetric interval (every model chain, never an oracle), only the upper
half of the grid is formed and the lower half is its mirror.

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
ln h_{k+1} = ln h_k + 2 ln b_{k+1}) are formed in mpf; the power of 2 that
keeps the vectors near unit norm comes from an integer compare
(`_nearest_shift`).

The evaluators run on the same integers. A finished chain stores beta_k and
gamma_k^2 as integers over 2^F (`beta_fx`, `gsq_fx`). Point values
p_{k-1}(x), p_k(x) and their x-derivatives come from `_monic_steps`, the
recurrence for one point under one block exponent that follows p_k up and
down the way e_i does. Every point evaluator reads its point from the
chain's point store (`RecChain.point`): a `_Point` formed in integers the
way a grid node is, which keeps the recurrence state its last call reached,
so a grid evaluated at increasing n costs each point max(n) steps
(`_monic_point`); a lower n starts again from index 0. `psi_values` lists
psi_0..psi_n at a point from one such pass, and `phat_values` and
`psihat_values` climb the recurrence from a `pihat_direct` seed: the
k-sums of `asymptotics` read a model chain's psi_k and their Hilbert
partners through these three. The Hilbert factor
e^{(N/2T_c) V(x) - ln h_n/2} comes from the point's fixed-point exponent
(`_antiweight`), and the kernel's Christoffel-Darboux numerators from the
integer states, each rounded once. Sums over a grid come from one sweep of
the node vectors (`_node_vectors`): `gram_entries` re-integrates a finished
chain on an independent grid for the orthogonality checks (folded by
parity, p_k(-x) = (-1)^k p_k(x), on a mirrored grid of a chain with every
beta_k = 0), `expected_count_exact` sums its diagonal entries over a
counting grid (one sweep per grid, kept in the chain's memo and resumed),
and `pihat_direct` sums g_i w_i pi_n(x_i)/(x - x_i) over the chain's own
grid. The diagonal kernel keeps the Christoffel-Darboux derivative form, so
that it stays an independent check of the count.
"""

from __future__ import annotations

import bisect
import math
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import islice

from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, round_nearest
from mpmath.libmp.libelefun import exp_basecase, ln2_fixed

from .poly import FLOAT_MARGIN, Poly, _float_horner
from .quadrature import gauss_legendre

GUARD_BITS = 32        # fixed-point fraction bits beyond the working precision
BAND_BITS = 8          # a node is rescaled when its integer leaves F +- 8 bits
PANEL_POINTS = 64      # Gauss-Legendre points per panel of every chain grid
MEMO_SIZE = 64         # values a chain's memo keeps, least recently used dropped
POINT_STORE_SIZE = 2048  # points a chain's point store keeps, the same way
DIAGONAL_GAP = 1e-8    # kernel_exact's relative |x - x'| of the derivative form
CHECK_GRID_RATIO = "1.37"  # check-grid nodes per chain node, as mpf text


@dataclass(frozen=True, eq=False)
class NodeGrid:
    """A composite Gauss-Legendre grid carrying a weight w, in integers over
    2^F: node i is X[i] 2^-F exactly (a prec-bit value, the mpf xs[i]), and
    sqrt(g_i w_i) = U[i] 2^-(F + K[i] + m) with K[i] >= 0 and U[i] of about
    F bits, g_i the GL weight of the node. Every panel has the same width,
    so the weights of one panel (`g`) serve them all. Built by `Weight.grid`.
    """
    F: int
    X: list = field(repr=False)
    U: list = field(repr=False)
    K: list = field(repr=False)
    m: int
    g: list = field(repr=False)
    mirrored: bool = False   # node n-1-j is -X[j] with U[j] and K[j]

    def __len__(self):
        return len(self.X)

    @cached_property
    def upper(self):
        """The nodes n/2..n-1 as a grid of their own, for the sweeps of
        `gram_entries` on a mirrored grid (which read only F, X, U, K and
        m: its `gl_w` and `wv` are not its nodes' when panels is odd)."""
        h = len(self.X) // 2
        return NodeGrid(F=self.F, X=self.X[h:], U=self.U[h:], K=self.K[h:],
                        m=self.m, g=self.g)

    @cached_property
    def squares(self):
        """X[j]^2 of the nodes n/2..n-1, for the folded principal-value sum
        of `pihat_direct` on a mirrored grid."""
        return [x * x for x in self.X[len(self.X) // 2:]]

    @cached_property
    def xs(self):
        """The nodes as exact mpf, formed on first read: no chain sweep
        reads them."""
        return [mp.make_mpf(from_man_exp(x, -self.F)) for x in self.X]

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


@dataclass(frozen=True, eq=False)
class Weight:
    """w = exp(-(N/T_c) V) on [lo, hi], the weight of a `RecChain`, and the
    one place N/T_c is formed (`coupling`); a counting grid is the same
    weight with other ends (`dataclasses.replace`)."""
    V: Poly
    N: int
    Tc: mpf
    lo: mpf
    hi: mpf
    _polys: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def default(cls, V: Poly, N: int, Tc, n_max: int, prec: int):
        """The weight on [lo, hi] with (N/Tc)(V - V_min) - 2 n_max ln(1+|x|)
        beyond the precision budget at both ends. V_min starts as the
        minimum of V over 401 points of [-3, 3] (`_scan_min`) and takes in
        every end tried; each end walks out from -3 or 3 in half-steps
        (`_walk_end`), the left one first."""
        w = cls(V, N, Tc, mpf(-3), mpf(3))
        coupling = w.coupling
        vmin = _scan_min(V, w.lo, w.hi)
        budget = domain_budget(prec)
        half = mpf(1) / 2
        lo, vmin = _walk_end(V, w.lo, -half, vmin, coupling, n_max, budget)
        hi, _ = _walk_end(V, w.hi, half, vmin, coupling, n_max, budget)
        return replace(w, lo=lo, hi=hi)

    @property
    def coupling(self):
        """N/T_c at the working precision."""
        return mpf(self.N) / self.Tc

    def poly(self, F):
        """(N/2 T_c) V's coefficients times 2^F as integers, highest degree
        first (N/T_c at F - GUARD_BITS bits, each product at F + 16): the
        Horner coefficients of `_root_weight`, formed once per F."""
        if F not in self._polys:
            with mp.workprec(F - GUARD_BITS):
                coupling = self.coupling
            with mp.workprec(F + 16):
                self._polys[F] = _to_fixed(
                    [coupling * c / 2 for c in reversed(self.V.c)], F)
        return self._polys[F]

    def grid(self, panels, F):
        """The weight's `NodeGrid`, `panels` panels of the PANEL_POINTS-point
        Gauss-Legendre rule, with F fraction bits (the rule at F - GUARD_BITS).

        All in integers but 64 square roots of the panel's GL weights: node
        X = LO + i H + H (t_j + 1)/2 rounded to prec significant bits, then
        (N/2 T_c) V(x) 2^F by Horner, split as k ln 2 + r, 0 <= r < ln 2, and
        sqrt(w) = 2^-k exp(-r) from mpmath's fixed-point exp series (argument
        reduction as in Brent and Zimmermann, Modern Computer Arithmetic,
        2010, section 4.3). Each term is accurate to a few units of 2^-F.

        Where V has no odd coefficients and the fixed-point ends meet
        LO == -HI (every model chain's grid), w is even on a symmetric
        interval: only the upper half, nodes n/2..n-1, is formed as above,
        and node n-1-j is its mirror, -X[j] with U[j] and K[j]
        (`NodeGrid.mirrored`). No oracle potential is even.
        """
        prec = F - GUARD_BITS
        with mp.workprec(prec):
            ts, gs = gauss_legendre(PANEL_POINTS)
        with mp.workprec(F + 16):
            LO, HI = _to_fixed([mpf(self.lo), mpf(self.hi)], F)
            H = (HI - LO) // panels
            T = [t + (1 << F) for t in _to_fixed(ts, F)]
            g = [mp.ldexp(mpf(H), -F - 1) * w for w in gs]
            roots = []                   # sqrt(g_j) = S_j 2^-(F + s_j)
            for gj in g:
                man, ex = mp.sqrt(gj).man_exp
                bl = man.bit_length()
                roots.append((man << (F - bl) if bl < F else man >> (bl - F),
                              -(ex + bl)))
        C = self.poly(F)
        n = panels * PANEL_POINTS
        mirrored = LO == -HI and not any(self.V.c[1::2])
        X, U, K = [], [], []
        for node in range(n // 2 if mirrored else 0, n):
            i, j = divmod(node, PANEL_POINTS)
            x = LO + i * H + (H * T[j] >> (F + 1))
            d = abs(x).bit_length() - prec
            if d > 0:                    # round to prec significant bits
                x = ((x >> (d - 1)) + 1 >> 1) << d
            _, k, W = _root_weight(C, x, F)
            Sj, sj = roots[j]
            X.append(x)
            U.append(W * Sj >> F)
            K.append(k + sj)
        if mirrored:
            X = [-x for x in reversed(X)] + X
            U = U[::-1] + U
            K = K[::-1] + K
        m = min(K)
        return NodeGrid(F=F, X=X, U=U, K=[k - m for k in K], m=m, g=g,
                        mirrored=mirrored)


def _root_weight(C, X, F):
    """(G, k, W) at x = X 2^-F for the `Weight.poly` coefficients C of
    (N/2 T_c) V: G = (N/2 T_c) V(x) 2^F by Horner, and
    sqrt(w(x)) = W 2^-(F + k), W = 2^F e^{-r 2^-F} from mpmath's fixed-point
    exp series, where G = k L + r with L = 2^F ln 2 and 0 <= r < L."""
    G = 0
    for c in C:
        G = (G * X >> F) + c
    k, r = divmod(G, ln2_fixed(F))
    return G, k, exp_basecase(-r, F)


def _recent(store: OrderedDict, key, compute, size: int):
    """The value stored under key in store, from compute() on first use;
    store keeps the `size` keys used last."""
    try:
        store.move_to_end(key)
        return store[key]
    except KeyError:
        value = store[key] = compute()
        if len(store) > size:
            store.popitem(last=False)
        return value


class _Point:
    """What a chain keeps of one evaluation point x (an mpf at the chain's
    precision), with F = prec + GUARD_BITS:
    - X = x 2^F truncated to an integer;
    - G = (N/2 T_c) V(x) 2^F as an integer and the psi weight
      w = e^{-(N/2 T_c) V(x)} = W 2^-(F + k), W good to a few units, both
      from `_root_weight` on the chain's `Weight.poly`, as a grid node's
      are; w and its square w2 are each rounded once to the chain's
      precision from these integers;
    - state, the `_monic_steps` state its last call reached.
    """
    __slots__ = ("X", "G", "w", "w2", "state")

    def __init__(self, chain, x):
        F = chain.prec + GUARD_BITS
        self.X = _fixed(x, F)
        self.G, k, W = _root_weight(chain.weight.poly(F), self.X, F)
        self.w = _rounded(W, -F - k, chain.prec)
        self.w2 = _rounded(W * W, -2 * (F + k), chain.prec)
        self.state = _monic_start(F)


def _rounded(man, exp, prec):
    """man 2^exp as an mpf rounded to nearest at prec bits."""
    return mp.make_mpf(from_man_exp(man, exp, prec, round_nearest))


@dataclass
class RecChain:
    """Recurrence data of its `Weight` w = exp(-(N/Tc) V) on [x_min, x_max]
    up to n_max, as `assemble_chain` forms it.

    Read-only once built, so it can be shared. Its mutable parts hold values
    derived from the chain on first use, in two places:
    - the point store (`point`), one LRU of POINT_STORE_SIZE entries, one
      per evaluation point and derivative flag, each a `_Point`: the
      point's (N/2 T_c) V(x) in fixed point, its psi weight and square,
      and the one-point recurrence state of `_monic_steps` that the next
      call at x resumes (about 1.5 KB each with its key at 320 bits, so
      about 3 MB when full; 2048 holds A10b's 24 x 64-node counting grid);
    - the memo (`cached`), one LRU of MEMO_SIZE entries, each under one flat
      key, such as the principal-value node sums of `pihat_direct`, the
      resumable counting sweep of `expected_count_exact` per counting grid,
      the `kernel_exact` prefactor per n, the `psi_values` passes and
      Hilbert seeds per point, the k-sum term tables that `asymptotics`
      keys by spec, N, index N + m/2 and working precision, the base they
      share per (spec, N, working precision), and its values per regime.
    """
    weight: Weight
    n_max: int
    prec: int
    log_h: list            # ln h_n, n = 0..n_max
    gamma: list            # gamma_n, n = 1..n_max (index n; gamma[0] = 0)
    beta: list             # beta_n, n = 0..n_max
    gsq: list              # gamma_n^2 (index n; gsq[0] = 0)
    inv_sqrt_h: list       # 1/sqrt(h_n) = exp(-log_h[n]/2), the psi_n norms
    ln_zeta: list          # ln zeta_n, n = 0..n_max+1 (zeta_0 = 1)
    beta_fx: list = field(repr=False)   # beta_n 2^F, F = prec + GUARD_BITS
    gsq_fx: list = field(repr=False)    # gamma_n^2 2^F
    grid: NodeGrid = field(repr=False)
    resid: mpf = None      # residual of the build's orthogonality check
    converged: bool = None  # whether resid met converged_residual(prec)
    _memo: OrderedDict = field(default_factory=OrderedDict, init=False,
                               repr=False, compare=False)
    _points: OrderedDict = field(default_factory=OrderedDict, init=False,
                                 repr=False, compare=False)

    def cached(self, key, compute):
        """The value stored under key, from compute() on first use; the
        memo keeps the MEMO_SIZE keys used last."""
        return _recent(self._memo, key, compute, MEMO_SIZE)

    def point(self, x, deriv=False):
        """The `_Point` of x, an mpf at the chain's precision, whose state
        tracks derivatives if deriv; the store keeps the POINT_STORE_SIZE
        (x._mpf_, deriv) keys used last (a tuple of ints hashes in C, an
        mpf in Python)."""
        return _recent(self._points, (x._mpf_, deriv),
                       lambda: _Point(self, x), POINT_STORE_SIZE)

    @property
    def xs(self):
        return self.grid.xs

    x_min = property(lambda self: self.weight.lo)   # the weight's ends
    x_max = property(lambda self: self.weight.hi)


def assemble_chain(weight: Weight, prec: int, beta, gamma, log_h,
                   grid) -> RecChain:
    """The `RecChain` of the weight's recurrence (beta_n, gamma_n, ln h_n),
    n = 0..n_max,
    with gamma_0 = 0: gamma_n^2 and ln zeta_n at the working precision, then
    everything rounded to prec, and from the rounded values the fixed-point
    copies (F = prec + GUARD_BITS) and 1/sqrt(h_n) at prec."""
    gsq = [g * g for g in gamma]
    ln_zeta = [mpf(0)]
    for v in log_h:
        ln_zeta.append(ln_zeta[-1] + v)
    with mp.workprec(prec):
        beta, gamma, gsq, log_h, ln_zeta = ([+v for v in vs] for vs in (
            beta, gamma, gsq, log_h, ln_zeta))
        F = prec + GUARD_BITS
        return RecChain(weight=weight, n_max=len(log_h) - 1, prec=prec,
                        log_h=log_h, gamma=gamma, beta=beta, gsq=gsq,
                        inv_sqrt_h=[mp.exp(-v / 2) for v in log_h],
                        ln_zeta=ln_zeta, beta_fx=_to_fixed(beta, F),
                        gsq_fx=_to_fixed(gsq, F), grid=grid)


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


def _advance(X, a, c, e, B, G, sh, F, sums, moment=False):
    """One three-term step on every node: a' = ((x - beta) a - g c) / 2^sh
    with B = beta 2^F and G = g 2^F, then each node whose a' has left
    F +- BAND_BITS bits is rescaled together with its c' = a. Returns
    (a', c', e', S', T'): S' the sum of `_sums` over a' if sums, else None,
    and T' that sum if moment too (Stieltjes steps only), else None. A node
    with 2 bit_length(a') <= F + 2 e' adds 0 to both, and its square is
    skipped."""
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
                bl = F
        elif bl > hi and ei:
            d = min(bl - F, ei)
            v >>= d
            ai >>= d
            ei -= d
            bl -= d
        na.append(v)
        nc.append(ai)
        ne.append(ei)
        if sums and 2 * bl > F + 2 * ei:
            q = v * v >> (F + 2 * ei)
            S += q
            if moment:
                T += xi * q
    return na, nc, ne, S if sums else None, T if moment else None


def _nearest_shift(x):
    """s with 2^s nearest to the mpf x > 0 on a log scale, nint(log2 x),
    exactly in integers: x = m 2^e with m of bl bits is nearer 2^(e + bl - 1)
    than 2^(e + bl) iff m^2 < 2^(2 bl - 1) (never equal: the power is odd)."""
    _, m, e, bl = x._mpf_
    return e + bl - (m * m < 1 << (2 * bl - 1))


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
                                              True, True)
                S_prev, S, s_prev = S, S_next, s
    return ([+v for v in betas], [+v for v in gammas], [+v for v in ln_hs])


def _fixed(v, F):
    """v times 2^F, truncated toward 0 to an integer, as int(mp.ldexp(v, F))
    gives it, by shifting the mpf mantissa directly."""
    sign, man, exp, _ = (v if isinstance(v, mpf) else mpf(v))._mpf_
    shift = exp + F
    # the magnitude is shifted, so a right shift truncates toward 0
    n = man << shift if shift >= 0 else man >> -shift
    return -n if sign else n


def _to_fixed(values, F):
    """`_fixed` of each value."""
    return [_fixed(v, F) for v in values]


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
            t = alpha * gamma[k]
            s = _nearest_shift(t)
            B = _fixed(beta[k - 1], F)
            G = _fixed(gamma[k - 1] ** 2, F - s_prev)
            a, c, e, S, _ = _advance(X, a, c, e, B, G, F + s, F, k in sums)
            alpha = mp.ldexp(t, -s)
        yield a, e, S, alpha


def gram_entries(grid, beta, gamma, ln_h0, pairs):
    """<psi_n, psi_m> = sum_i g_i w_i p_n p_m / sqrt(h_n h_m) for each (n, m)
    in pairs, where p_k are the monic polynomials of the recurrence data
    (beta, gamma, ln_h0) evaluated on the `NodeGrid` grid; for a chain built
    on another grid these are the identity up to that chain's error.

    One sweep of `_node_vectors`, which forms its sums only at the diagonal
    pairs' steps; only the lower vector of each off-diagonal pair is kept,
    until the step that completes the pair.

    On a mirrored grid with beta_k = 0 for every k the sweep reads (every
    model chain), p_k(-x) = (-1)^k p_k(x), so the sweep folds: it runs over
    the upper half only (`NodeGrid.upper`), each pair n + m even is twice
    its half-sum, and each pair n + m odd is exactly 0.
    """
    top = max(max(pq) for pq in pairs)
    fold = grid.mirrored and not any(beta[:top])
    summed = [pq for pq in pairs if not fold or sum(pq) % 2 == 0]
    lower = {min(pq) for pq in summed if pq[0] != pq[1]}
    diagonal = {n for n, m_ in summed if n == m_}
    F = grid.F
    gram = {pq: mpf(0) for pq in pairs}
    with mp.workprec(F + 16):
        alpha = []
        kept = {}
        for k, (a, e, S, al) in enumerate(_node_vectors(
                grid.upper if fold else grid, beta, gamma, ln_h0, top + 1,
                diagonal)):
            alpha.append(al)
            if k in lower:
                kept[k] = (a, e)
            for n, m_ in summed:
                if max(n, m_) != k:
                    continue
                if n == m_:
                    P = S
                else:
                    a2, e2 = kept[min(n, m_)]
                    P = sum(x * y >> (F + i + j)
                            for x, y, i, j in zip(a, a2, e, e2))
                # folded, P is the upper half's sum: both halves give 2 P
                gram[n, m_] = mp.ldexp(mpf(P), int(fold) - F) \
                    / (alpha[n] * alpha[m_])
    return [+gram[pq] for pq in pairs]


def _monic_start(F):
    """The `_monic_steps` state at index 0: p_{-1} = 0, p_0 = 1."""
    return 0, 0, 1 << F, 0, 0, 0


def _monic_steps(chain, X, state, n, deriv=False, every=None):
    """The one-point state (j, q, p, dq, dp, E) of the chain's monic
    recurrence at x = X 2^-F advanced from index j to n >= j: q, p and dq,
    dp are p_{n-1}(x), p_n(x) and their x-derivatives (kept only if deriv,
    else 0), each the integer times 2^(E - F), F = chain.prec + GUARD_BITS.
    With every, a list, (p, E) of each step is appended to it.

    Integer fixed point on the chain's beta_fx, gsq_fx: all entries share
    one block exponent E, and the block is shifted whenever p_n leaves
    F +- BAND_BITS bits, the one-node version of `_advance`. Unlike a single
    fixed scale this covers the e^{N V / 2 T_c}-sized growth of p_n at the
    domain ends. The steps depend on x and the chain only, so a state
    advanced in parts is the state of one pass.
    """
    F = chain.prec + GUARD_BITS
    lo, hi = F - BAND_BITS, F + BAND_BITS
    bs, gs = chain.beta_fx, chain.gsq_fx
    j, q, p, dq, dp, E = state
    for k in range(j, n):
        t = X - bs[k]
        g = gs[k]
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
        if every is not None:
            every.append((p, E))
    return n, q, p, dq, dp, E


def _monic_point(chain, n, x, deriv=False):
    """(pt, state): the chain's `_Point` of x and the `_monic_steps` state at
    index n, which the point keeps: its state advanced to n, or from index 0
    if its state is past n."""
    pt = chain.point(x, deriv)
    if n < pt.state[0]:
        pt.state = _monic_start(chain.prec + GUARD_BITS)
    pt.state = _monic_steps(chain, pt.X, pt.state, n, deriv)
    return pt, pt.state


def domain_budget(prec: int):
    """The precision budget of `Weight.default`: ln of the factor by which the
    weight times x^{2 n_max} has fallen at the domain's ends."""
    return mpf(prec) * mp.log(2) * mpf("0.45") + 60


def _scan_min(V: Poly, lo, hi):
    """min of V over the 401 points lo + (hi - lo) k/400, as the mpf
    minimum of all of them at the working precision gives it.

    V is scanned in floats (`poly._float_horner`); V is formed in mpf only
    at the float minimum and at every point whose float value is within
    `poly.FLOAT_MARGIN` of the scan's scale, max sum_j |c_j| |x|^j, above
    it, so the mpf minimum is among those points. Where V leaves the float
    range, every point is formed in mpf."""
    count = 401
    c = [float(v) for v in reversed(V.c)]
    f_lo, f_hi = float(lo), float(hi)
    fs, scale = [], 0.0
    for k in range(count):
        acc, size = _float_horner(c, f_lo + (f_hi - f_lo) * k / (count - 1))
        fs.append(acc)
        scale = max(scale, size)
    near = min(fs) + FLOAT_MARGIN * scale
    keep = [k for k, f in enumerate(fs) if f <= near] \
        if math.isfinite(near) else range(count)
    return min(V(lo + (hi - lo) * k / (count - 1)) for k in keep)


def _deficit(V: Poly, x, vmin, coupling, n_max: int, budget):
    """(N/Tc)(V(x) - vmin) - 2 n_max ln(1+|x|) - budget in mpf;
    `Weight.default` stops at the first end where it is >= 0."""
    return coupling * (V(x) - vmin) - 2 * n_max * mp.log(1 + abs(x)) - budget


def _walk_end(V: Poly, x, step, vmin, coupling, n_max: int, budget):
    """(end, vmin): the first of x, x + step, x + 2 step, ... where
    `_deficit` >= 0, with vmin lowered by V at each point after x up to it,
    as an mpf walk gives them.

    The walk runs in floats (`poly._float_horner`). V is formed in mpf
    only at points whose float value is within `poly.FLOAT_MARGIN` of its
    scale above vmin, `_deficit` only where its float value is within that
    margin of its scale of 0, and at the chosen end and the step before
    it, which confirm the float walk. Where V leaves the float range, or
    the confirmation fails, the walk is redone in mpf from x."""
    def mpf_walk(x, vmin):
        while _deficit(V, x, vmin, coupling, n_max, budget) < 0:
            x += step
            vmin = min(vmin, V(x))
        return x, vmin

    c = [float(v) for v in reversed(V.c)]
    f_coupling, f_budget = float(coupling), float(budget)
    start, last = (x, vmin), None
    while True:
        fx = float(x)
        acc, size = _float_horner(c, fx)
        f_vmin, f_log = float(vmin), 2 * n_max * math.log1p(abs(fx))
        tol = FLOAT_MARGIN * (f_coupling * (size + abs(f_vmin)) + f_log
                              + f_budget)
        if not math.isfinite(tol + acc):
            return mpf_walk(*start)
        near_min = f_vmin + FLOAT_MARGIN * (size + abs(f_vmin))
        if last is not None and acc <= near_min:
            vmin = min(vmin, V(x))
            f_vmin = float(vmin)
        f_def = f_coupling * (acc - f_vmin) - f_log - f_budget
        if abs(f_def) <= tol:
            f_def = _deficit(V, x, vmin, coupling, n_max, budget)
        if f_def >= 0:
            break
        last = (x, vmin)
        x += step
    confirmed = _deficit(V, x, vmin, coupling, n_max, budget) >= 0 and (
        last is None or _deficit(V, *last, coupling, n_max, budget) < 0)
    return (x, vmin) if confirmed else mpf_walk(*start)


# the node ladder's panel counts: 320, 640, 1344, 2752, 5568 and 11200 nodes,
# the last the check grid of an 8192-node chain (k_max = 200 at 512 bits)
PANEL_LADDER = (5, 10, 21, 43, 87, 175)


def converged_residual(prec: int):
    """The orthonormality residual at which a rung of PANEL_LADDER has
    converged: 2^(-3 prec/4) (1.6e-58 at 256 bits), or what the domain's
    ends leave out, e^-`domain_budget(prec)`, where that is larger (above
    289 bits; 3.9e-70 at 320)."""
    return max(mp.ldexp(1, -(3 * prec) // 4), mp.exp(-domain_budget(prec)))


def first_rung(nu: int, n_max: int, x_max, bits) -> int:
    """Index of the first PANEL_LADDER rung with the panels the
    Gauss-Legendre error bound asks for to integrate psi_{n_max}^2 of
    exp(-y^{2 nu}/(2 nu)) over [-x_max, x_max] to 2^-bits.

    An m-point rule (m = PANEL_POINTS) on a panel of width h leaves about
    (h/4)^{2m} f^(2m)/(2m)! of an integrand f, s (e q h/4m)^{2m} for f of
    size s oscillating or decaying at rate 2q: 2 x_max e q 2^{bits/2m}/4m
    panels reach 2^-bits. On [-a, a] (a the Mhaskar-Rakhmanov-Saff number)
    psi^2 oscillates with q = pi n_max rho/a, rho the Ullman density's top.
    Past a it is about s(x) = (x/a)^{2n} e^{V(a) - V(x)}, decaying at rate
    2q = V'(x) - 2n/x, or by Cauchy's bound f^(2m)/(2m)! <= max_{|z - x| = r}
    |s(z)| r^{-2m} where that is smaller: the rate falls within the distance
    m/q (at nu = 7, k_max = 200, 87 panels, not 175)."""
    m, n, x_max = PANEL_POINTS, max(n_max, 1), float(x_max)
    ln_a = (math.log(2 * n) + sum(math.log(2 * j / (2 * j - 1))
                                  for j in range(1, nu + 1))) / (2 * nu)
    a = math.exp(ln_a)
    rho = max(2 * nu / math.pi * sum(    # binomial terms in logs
        math.exp(math.lgamma(nu) - math.lgamma(j + 1) - math.lgamma(nu - j)
                 + 2 * (nu - 1 - j) * math.log(t)
                 + (j + 0.5) * math.log(1 - t * t)) / (2 * j + 1)
        for j in range(nu)) for t in ((i + 0.5) / 128 for i in range(128)))
    q = math.pi * n * rho / a

    def rung(q):
        panels = 2 * x_max * math.e * q * 2 ** (float(bits) / (2 * m)) / (4 * m)
        return min(bisect.bisect_left(PANEL_LADDER, panels), len(PANEL_LADDER) - 1)

    def ln_s(z):
        return (2 * n * (math.log(abs(z)) - ln_a)
                - ((z ** (2 * nu)).real - a ** (2 * nu)) / (2 * nu))

    turns = [complex(math.cos(t), math.sin(t))
             for t in (math.pi * (j + 0.5) / 8 for j in range(8))]
    tail = sorted(((x ** (2 * nu - 1) - 2 * n / x) / 2
                   * math.exp(ln_s(x) / (2 * m)), x)
                  for x in (a + (x_max - a) * i / 128 for i in range(1, 129))
                  if 2 * nu * math.log(1.5 * x) <= 700)   # else s underflows
    for v, x in reversed(tail):          # (rate/2) s^{1/2m}, largest first
        if rung(v) <= rung(q):
            break
        cauchy = m / math.e * math.exp(min(   # over r = x/2 down to 0.013 x
            max(ln_s(x + r * t) for t in turns) / (2 * m) - math.log(r)
            for r in (x / 2 * 1.5 ** -k for k in range(10))))
        q = max(q, min(v, cauchy))
    return rung(q)


def _ladder(nu: int, n_max: int, x_max, prec: int):
    """PANEL_LADDER from `first_rung`'s rung, to `converged_residual(prec)`."""
    bits = -mp.log(converged_residual(prec), 2)
    return PANEL_LADDER[first_rung(nu, n_max, x_max, bits):]


def _first_converged(rungs, chain_on, residual, prec: int) -> RecChain:
    """chain_on(panels) of the first of rungs whose residual(chain, pairs)
    at (n_max, n_max), (n_max, 0) is at most `converged_residual(prec)`,
    else of the last, with that `resid` and `converged` recorded;
    ArithmeticError above 1e-20."""
    bound = converged_residual(prec)
    for panels in rungs:
        chain = chain_on(panels)
        n = chain.n_max
        chain.resid = residual(chain, ((n, n), (n, 0)))
        chain.converged = chain.resid <= bound
        if chain.converged:
            break
    if chain.resid > mpf(10) ** -20:
        raise ArithmeticError("orthonormality residual %s > 1e-20 on %d nodes: "
                              "increase nodes or prec"
                              % (mp.nstr(chain.resid, 5), len(chain.grid)))
    return chain


def build_rec_chain(V: Poly, N: int, Tc, n_max: int = None, bits: int = 320,
                    nodes: int = None, check_orthogonality: bool = True) -> RecChain:
    """Stieltjes chain of w = exp(-(N/Tc) V) up to n_max (default N + 3 ln N).
    Its grid climbs PANEL_LADDER from the rung of exp(-y^2/2) at n_max, whose
    top polynomial has as many zeros, checked on an independent 1.37x grid
    (its own orthogonalises it exactly); `nodes` pins one grid, and
    check_orthogonality False builds one rung unchecked."""
    if bits < 256:
        raise ValueError("bits must be >= 256")
    Tc = mpf(Tc)
    if n_max is None:
        n_max = N + int(mp.ceil(3 * mp.log(N)))
    with mp.workprec(bits):
        weight = Weight.default(V, N, Tc, n_max, bits)
        if nodes is not None:
            rungs = (max(1, nodes // PANEL_POINTS),)
        else:
            gauss = Weight.default(Poly([0, 0, mpf(1) / 2]), 1, 1, n_max, bits)
            rungs = _ladder(1, n_max, gauss.hi, bits)

        def chain_on(panels):
            grid = weight.grid(panels, bits + GUARD_BITS)
            return assemble_chain(weight, bits,
                                  *stieltjes_chain(grid, n_max + 1), grid)
        if not check_orthogonality:
            return chain_on(rungs[0])
        return _first_converged(rungs, chain_on, orthogonality_residual, bits)


def orthogonality_residual(chain: RecChain, pairs, grid=None):
    """max over pairs of |<pi_n, pi_m>/sqrt(h_n h_m) - delta_nm| on a
    `NodeGrid` of the chain's weight that the chain was not built on, by
    default an independent panelization of [x_min, x_max] with
    `CHECK_GRID_RATIO` (1.37) times the chain's nodes."""
    with mp.workprec(chain.prec):
        if grid is None:
            panels = max(1, int(len(chain.grid) * mpf(CHECK_GRID_RATIO)
                                / PANEL_POINTS))
            grid = chain.weight.grid(panels, chain.grid.F)
        gram = gram_entries(grid, chain.beta, chain.gamma, chain.log_h[0],
                            pairs)
        return max(abs(v - (1 if n == m_ else 0))
                   for v, (n, m_) in zip(gram, pairs))


def _check_index(name, n, lo, chain: RecChain, hi=None):
    """ValueError naming n and the limits unless lo <= n <= hi, by default
    hi = chain.n_max."""
    hi = chain.n_max if hi is None else hi
    if not lo <= n <= hi:
        raise ValueError("%s out of range: %s = %s not in %d..%d"
                         % (name, name, n, lo, hi))


def eval_psi_exact(chain: RecChain, n: int, x):
    """psi_n(x) = pi_n(x) e^{-(N/2Tc) V(x)} / sqrt(h_n), formed as
    (pi_n(x) w) inv_sqrt_h[n] with w the psi weight of x's `_Point`, as
    `psi_values` forms every psi_k."""
    _check_index("n", n, 0, chain)
    with mp.workprec(chain.prec):
        pt, (_, _, p, _, _, E) = _monic_point(chain, n, mpf(x))
        p = _rounded(p, E - chain.prec - GUARD_BITS, chain.prec)
        return p * pt.w * chain.inv_sqrt_h[n]


def psi_values(chain: RecChain, n: int, y):
    """[psi_0(y), ..., psi_n(y)], bit for bit as `eval_psi_exact` gives
    them, from one `_monic_steps` pass from index 0 at y's point
    (`RecChain.point`) that lists every step, and the point's psi weight:
    each psi_k is (p_k(y) w) inv_sqrt_h[k].

    The pass is kept in the chain's memo under ("psi", n, y), y at the
    chain's precision; a repeated call returns a fresh list of the kept
    values."""
    _check_index("k", n, 0, chain)
    with mp.workprec(chain.prec):
        y = mpf(y)

        def one_pass():
            pt = chain.point(y)
            F = chain.prec + GUARD_BITS
            ps = [(1 << F, 0)]                 # (p_k, E_k), p_0 = 1
            _monic_steps(chain, pt.X, _monic_start(F), n, every=ps)
            return [_rounded(p, E - F, chain.prec) * pt.w * c
                    for (p, E), c in zip(ps, chain.inv_sqrt_h)]
        return list(chain.cached(("psi", n, y), one_pass))


def _pv_weights(grid: NodeGrid):
    """The GL weights g_i of the grid's nodes times 2^F, as integers."""
    return _to_fixed(grid.g, grid.F) * (len(grid) // len(grid.g))


def _pv_values(chain: RecChain, n: int):
    """g_i w_i pi_n(x_i) / unit times 2^F as integers, and unit, from one
    sweep of `_node_vectors` to k = n, forming no sums: with
    v_k = sqrt(g w) pi_k / sqrt(h_k), g_i w_i pi_n(x_i) =
    sqrt(h_0 h_n) v_0(x_i) v_n(x_i), and the sweep holds alpha v_k, so
    unit = sqrt(h_0 h_n) / alpha."""
    F = chain.grid.F
    for k, (a, e, _, alpha) in enumerate(_node_vectors(
            chain.grid, chain.beta, chain.gamma, chain.log_h[0], n + 1)):
        if not k:
            a0, e0 = a, e
    P = [u * v >> (F + i + j) for u, v, i, j in zip(a0, a, e0, e)]
    return P, mp.exp((chain.log_h[0] + chain.log_h[n]) / 2) / alpha


def pihat_direct(chain: RecChain, n: int, x):
    """pihat_n(x) = int pi_n(x') w(x')/(x - x') dx' by direct (PV) quadrature
    on the chain's grid, x taken at the chain's precision.

    Unlike a seeded forward recurrence this is accurate at every n: outside
    the bulk support the hat solution decays like Lambda^{-n} while the
    recurrence's roundoff feeds the growing pi_n branch, which overtakes the
    true value near n ~ 45 at 320 bits.

    One integer sweep over the chain's `NodeGrid`, its GL weights (kept on
    the chain by `_pv_weights`) and the values of `_pv_values` (kept per n),
    in fixed point with F = prec + GUARD_BITS fraction bits: an absolute
    error of about one unit of 2^-F per node, in units of sqrt(h_0 h_n).
    Inside (x_min, x_max) each node's term subtracts f = pi_n w at x, with
    pi_n(x) from x's `_Point` and w at the sweep's precision (the point's
    psi weight squared would move the last bit), and
    f(x) ln((x - x_min)/(x_max - x)) adds the subtracted integral back.

    Inside (x_min, x_max) and off the nodes, on a mirrored grid with
    beta_k = 0 for k < n (every model chain), pi_n(-x) = (-1)^n pi_n(x), so
    the sum folds as `gram_entries` does: the nodes +-x_j make one term over
    Y^2 - x_j^2 with numerator 2 Y (P_j - g_j F_X) for n even and
    2 (P_j x_j - g_j F_X Y) for n odd, from the upper half's values alone.
    For n even the folded sum is odd in x: x (the mpf, not its truncation
    Y) multiplies it once, after its floor divisions, and the subtracted
    integral is 2 f(x) atanh(x/x_max), so both keep their relative accuracy
    as x -> 0 instead of an absolute error of about 2^-F.
    """
    _check_index("n", n, 0, chain)
    F, w = chain.grid.F, chain.weight
    with mp.workprec(chain.prec):
        x = mpf(x)
    with mp.workprec(F + 16):
        X = chain.grid.X
        G = chain.cached(("pv weights",), lambda: _pv_weights(chain.grid))
        P, unit = chain.cached(("pv values", n), lambda: _pv_values(chain, n))
        total = mpf(0)
        FX = 0
        inside = chain.x_min < x < chain.x_max
        Y = int(mp.ldexp(x, F))
        i = bisect.bisect_left(X, Y)
        hit = i < len(X) and X[i] == Y
        fold = (inside and not hit and chain.grid.mirrored
                and not any(chain.beta[:n]))
        if inside:
            _, _, p, _, _, E = _monic_point(chain, n, x)[1]
            fx = mp.ldexp(mpf(p), E - F) * mp.exp(-w.coupling * w.V(x))
            FX = int(mp.ldexp(fx / unit, F))
            if fold:                # x_min = -x_max: no ratio rounded near 1
                total = 2 * fx * mp.atanh(x / chain.x_max)
            else:
                total = fx * mp.log((x - chain.x_min) / (chain.x_max - x))
        if hit:
            # x is node i (to 2^-F): its term has the finite limit
            # -g_i (pi_n w)'(x_i) with (pi_n w)' = w (pi_n' - (N/T_c) V' pi_n)
            xi = mp.make_mpf(from_man_exp(X[i], -F))
            _, (_, _, p, _, dp, E) = _monic_point(chain, n, xi, deriv=True)
            pn, dn = (mp.ldexp(mpf(v), E - F) for v in (p, dp))
            slope = dn - w.coupling * w.V.deriv()(xi) * pn
            total -= chain.grid.gw(i) * slope
            X, G, P = X[:i] + X[i + 1:], G[:i] + G[i + 1:], P[:i] + P[i + 1:]
        acc = 0
        if fold:
            # the nodes +-x_j in one term over Y^2 - x_j^2 (docstring)
            h = len(X) // 2
            YY = Y * Y
            XX = chain.grid.squares
            if n % 2:
                for xj, xx, g, p in zip(X[h:], XX, G[h:], P[h:]):
                    acc += (p * xj - (g * FX >> F) * Y << F + 1) // (YY - xx)
            else:
                for xx, g, p in zip(XX, G[h:], P[h:]):
                    acc += (p - (g * FX >> F) << 2 * F + 1) // (YY - xx)
        else:
            for xj, g, p in zip(X, G, P):
                acc += ((p - (g * FX >> F)) << F) // (Y - xj)
        acc = mp.ldexp(mpf(acc), -F)
        if fold and n % 2 == 0:
            acc *= x
        total += acc * unit
    with mp.workprec(chain.prec):
        return +total


def _antiweight(chain: RecChain, n: int, x):
    """e^{(N/2Tc) V(x) - ln h_n / 2} at the chain's precision, x an mpf at
    that precision; n = -1 gives the bare e^{(N/2Tc) V(x)}. The exponent
    E 2^-F is formed in fixed point, from the integer G of x's `_Point` and
    ln h_n 2^(F-1) (exact at every |ln h_n| above 2^-31), and exponentiated
    as `_root_weight` does: E = k L + r, e^{E 2^-F} = 2^k e^{r 2^-F} from
    mpmath's fixed-point exp series, then rounded once. So the factor
    carries no rounding of its argument, which at prec bits would cost
    about log2 |E 2^-F| bits."""
    F = chain.prec + GUARD_BITS
    E = chain.point(x).G
    if n >= 0:
        E -= _fixed(chain.log_h[n], F - 1)
    k, r = divmod(E, ln2_fixed(F))
    return _rounded(exp_basecase(r, F), k - F, chain.prec)


def eval_phi_exact(chain: RecChain, n: int, x):
    """phi_n(x) = pihat_n(x) e^{+(N/2Tc) V(x)} / sqrt(h_n), the factor from
    `_antiweight`."""
    _check_index("n", n, 0, chain)
    with mp.workprec(chain.prec):
        x = mpf(x)
        return pihat_direct(chain, n, x) * _antiweight(chain, n, x)


def phat_values(chain: RecChain, k: int, y):
    """(phat_{k-1}, phat_k) where phat_j(y) = int P_j(x) w(x)/(y-x) dx,
    built from the seed phat_0 (`pihat_direct` at n = 0, kept in the
    chain's memo per y) and the three-term recurrence with the
    delta_{j,0} h_0 inhomogeneity. Unlike `pihat_direct` it is not
    accurate at every k (the growing solution enters at the seed's relative
    accuracy); on the model chains at 256 bits it keeps the hat solution
    clean for every k the k-sums use."""
    _check_index("k", k, 0, chain)
    with mp.workprec(chain.prec):
        y = mpf(y)
        q_prev = mpf(0)
        q = chain.cached(("phat seed", y), lambda: pihat_direct(chain, 0, y))
        for j in range(k):
            g = chain.gsq[j]
            inhom = mp.exp(chain.log_h[0]) if j == 0 else 0
            q_prev, q = q, (y - chain.beta[j]) * q - g * q_prev - inhom
        return q_prev, q


def psihat_values(chain: RecChain, k: int, y):
    """(psihat_{k-1}(y), psihat_k(y)) from one phat_values call, with
    psihat_j = phat_j e^{+y^{2nu}/(4nu)} / sqrt(h_j) and psihat_{-1} the
    bare e^{+y^{2nu}/(4nu)} (empty-average convention); the factors are
    `_antiweight`'s, as `eval_phi_exact` forms them."""
    with mp.workprec(chain.prec):
        y = mpf(y)
        q_prev, q = phat_values(chain, k, y)
        return ((q_prev if k else 1) * _antiweight(chain, k - 1, y),
                q * _antiweight(chain, k, y))


def kernel_exact(chain: RecChain, n: int, x, x2):
    """K_n(x, x') by Christoffel-Darboux: gamma_n w(x) w(x') times
    (p_n(x) p_{n-1}(x') - p_{n-1}(x) p_n(x')) / ((x - x') sqrt(h_n h_{n-1})),
    w the psi weights and p the states of the two points' `_Point`s. At
    x' = x, and wherever |x - x'| <= DIAGONAL_GAP (1 + |x|), it takes the
    derivative form gamma_n w(x)^2 (p_n' p_{n-1} - p_{n-1}' p_n) /
    sqrt(h_n h_{n-1}) at x: the V' terms of (p_n w)' cancel there. Each
    numerator is formed exactly from the integer states and rounded once;
    the prefactor gamma_n / sqrt(h_n h_{n-1}) is kept in the chain's memo."""
    _check_index("n", n, 1, chain)
    F = chain.prec + GUARD_BITS
    with mp.workprec(chain.prec):
        x, x2 = mpf(x), mpf(x2)
        scale = chain.cached(("kernel scale", n), lambda: chain.gamma[n]
                             * chain.inv_sqrt_h[n] * chain.inv_sqrt_h[n - 1])
        if x2 != x and abs(x - x2) > DIAGONAL_GAP * (1 + abs(x)):
            a, (_, q1, p1, _, _, E1) = _monic_point(chain, n, x)
            b, (_, q2, p2, _, _, E2) = _monic_point(chain, n, x2)
            cd = _rounded(p1 * q2 - q1 * p2, E1 + E2 - 2 * F, chain.prec)
            return scale * a.w * b.w * cd / (x - x2)
        a, (_, q, p, dq, dp, E) = _monic_point(chain, n, x, deriv=True)
        return scale * a.w2 * _rounded(dp * q - dq * p, 2 * (E - F),
                                       chain.prec)


def _count_sweep(chain: RecChain, lo, hi, panels):
    """The counting sweep of `expected_count_exact` on [lo, hi]: a
    `_node_vectors` sweep over that `NodeGrid` to k = n_max with a sum at
    every step, and the list of diagonal entries <psi_k, psi_k> it has
    given so far."""
    grid = replace(chain.weight, lo=lo, hi=hi).grid(
        panels, chain.prec + GUARD_BITS)
    steps = chain.n_max + 1
    return _node_vectors(grid, chain.beta, chain.gamma, chain.log_h[0], steps,
                         range(steps)), []


def expected_count_exact(chain: RecChain, n: int, lo, hi=None, panels=24):
    """integral_lo^hi K_n(x, x) dx = sum_{j<n} <psi_j, psi_j> on [lo, hi],
    0 <= n <= n_max + 1: the diagonal Gram entries of one `_node_vectors`
    sweep over the `NodeGrid` of [lo, hi] with `panels` panels.

    The sweep and the entries it has given are kept in the chain's memo
    under (lo, hi, panels), with hi = None read as x_max, so a later count
    on the same grid sums the entries held and resumes the sweep only past
    them. lo and hi reach `Weight.grid` as given, and every entry is formed
    at the same precision, so each count is the one a fresh chain gives."""
    _check_index("n", n, 0, chain, chain.n_max + 1)
    F = chain.prec + GUARD_BITS
    with mp.workprec(chain.prec):
        hi = chain.x_max if hi is None else hi
        key = ("count sweep", lo, hi, panels)
        sweep, terms = chain.cached(
            key, lambda: _count_sweep(chain, lo, hi, panels))
        with mp.workprec(F + 16):
            try:
                for _, _, S, alpha in islice(sweep, max(0, n - len(terms))):
                    terms.append(mp.ldexp(mpf(S), -F) / (alpha * alpha))
            except BaseException:
                # a sweep stopped by an exception cannot resume: drop it
                chain._memo.pop(key, None)
                raise
            total = mp.fsum(terms[:n])
        return +total
