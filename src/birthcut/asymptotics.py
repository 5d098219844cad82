"""Mean-field asymptotics near the transition: the partition-function
k-sum Z_N(p) and its dominant-term reductions.

Everything is driven by the scaling variable u = 2 nu phi_e p / ln N of the
index offset p = n - N. At the index N + p the partition function is, up to
factors that cancel from every ratio used here,

    Z_N(p) = sum_k N^{(2ku - k^2)/2nu} A_k,

a sum over the number k of eigenvalues in the newborn well. Since
2ku ln N/(2nu) = 2kp phi_e, a factor e^{+-2k phi_e} in a term is the same
as moving p by +-1, so one table of terms per (N, index) serves every sum
(`_terms`, at half-integer indices too). A term depends on the index only
through e^{k m phi_e}, so each table is one base E_k = N^{-k^2/2nu} A_k per
(spec, N) (`_base`, the only place that reads ln A_k) times the powers of
r = e^{m phi_e}: one exponential per table. The recurrence coefficients are

    gamma_{N+p} = sqrt(Z_N(p+1) Z_N(p-1)) / Z_N(p),
    beta_{N+p}  = 2 sinh(phi_e) (<k>_{p+1} - <k>_p),

<k>_p the mean of k over the terms of Z_N(p), and the wavefunctions sum the
model's psi_k against the terms at the half-integer index N + p + 1/2.
`_k_limit` is the one place that decides where a sum is truncated.

The dominant k is ubar (the nonnegative integer closest to u), the
runner-up ubar + eps_u. The reduced forms are the dominant window of the
same table: they read only the ratios t_k/t_ubar at k = ubar - 1, ubar + 1
and ubar + eps_u (`_over_dominant`) and keep one correction term, while the
full forms keep the whole (truncated) sum - at desk-scale N both are exposed
because their difference is itself O(1) near half-integer u. Below threshold
(u < 0, ubar = 0) the window's ratios vanish as u -> -inf, so the reduced
gamma and beta fall to 1 and 0 with the full ones.

x-space and the model's y-space are linked by the scaling map
x = e + N^{-1/(2 nu)} (2 sinh(phi_e) Q(e)/T_c)^{-1/(2 nu)} y, under which the
finite-N kernel reduces to the model kernel times dy/dx.

No work is done twice: what the sums derive from a model chain is kept in
its one memo (`RecChain.cached`), the `oracle.psi_values` passes and Hilbert
seeds per point, the term tables per (spec, N, index N + m/2) and their one
base per (spec, N), and what is needed per regime. On the A10a kernel grid
(25 pairs, 10 distinct y) that is 10 recurrence passes for 100 psi_full
requests and one gamma_full for 25.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from mpmath import mp, mpf

from .modelchain import A_constant, ln_A_k
from .oracle import RecChain, kernel_exact, psi_values, psihat_values
from .potentials import CriticalSpec

FORBIDDEN_BAND = mpf("0.02")     # guard band around integer / half-integer u
MIN_N = 3                        # the smallest N of a regime point


@dataclass(frozen=True)
class RegimePoint:
    N: int
    p: int
    u: mpf
    ubar: int
    eps_u: int
    valid_Z: bool        # u > 0 and u not within the band of an integer
    valid_psi: bool      # u > 1/2 and u not within the band of a half-integer


@dataclass(frozen=True)
class ScalingMap:
    spec: CriticalSpec
    N: int
    scale: mpf           # (2 sinh(phi_e) Q(e)/T_c)^{-1/(2 nu)} N^{-1/(2 nu)}

    def y_of_x(self, x):
        return (mpf(x) - self.spec.e) / self.scale

    def x_of_y(self, y):
        return self.spec.e + self.scale * mpf(y)

    def dy_dx(self):
        return 1 / self.scale


def make_scaling_map(spec: CriticalSpec, N: int) -> ScalingMap:
    """The scaling map at N, formed once per (spec, N, working precision):
    later calls return the same (frozen) map."""
    return _scaling_map(spec, N, mp.prec)


@lru_cache(maxsize=16)     # (spec, N, precision) triples kept
def _scaling_map(spec: CriticalSpec, N: int, prec: int) -> ScalingMap:
    nu = spec.nu
    base = (2 * mp.sinh(spec.phi_e) * spec.Q(spec.e) / spec.Tc) ** (-mpf(1) / (2 * nu))
    return ScalingMap(spec=spec, N=N, scale=base * mpf(N) ** (-mpf(1) / (2 * nu)))


def make_regime(spec: CriticalSpec, N: int, p: int) -> RegimePoint:
    if N < MIN_N:
        raise ValueError("need N >= %d" % MIN_N)
    if N + p < 1:
        raise ValueError("index n = N + p = %d: need n >= 1" % (N + p))
    u = 2 * spec.nu * spec.phi_e * p / mp.log(N)
    if u >= 0:
        ubar = int(mp.floor(u + mpf(1) / 2))
    else:
        ubar = 0
    if u > 0:
        eps = 1 if u - ubar >= 0 else -1
    else:
        eps = 1
    dist_int = abs(u - mp.nint(u))
    dist_half = abs(u - (mp.floor(u) + mpf(1) / 2))
    valid_Z = bool(u > 0 and dist_int > FORBIDDEN_BAND)
    valid_psi = bool(u > mpf(1) / 2 and dist_half > FORBIDDEN_BAND)
    return RegimePoint(N=N, p=p, u=+u, ubar=ubar, eps_u=eps,
                       valid_Z=valid_Z, valid_psi=valid_psi)


# ----------------------------------------------------------------------------
# k-sums
# ----------------------------------------------------------------------------

def _k_limit(chain: RecChain, rp: RegimePoint):
    """The largest k of every k-sum at rp: the one truncation rule."""
    margin = 10                        # k-sums run to ubar + 10 at most
    return min(rp.ubar + margin, chain.n_max, rp.N + rp.p - 1)


def _base(spec, chain, N: int):
    """E_k = N^{-k^2/2nu} A_k, k = 0..chain.n_max + 1: the part of every
    term table at N that does not depend on the index, formed once per
    (spec, N, working precision) and kept on the chain."""
    def compute():
        lnA = mp.log(A_constant(spec))
        b = mp.log(N) / (2 * spec.nu)
        return [mp.exp(ln_A_k(chain, lnA, k) - k * k * b)
                for k in range(chain.n_max + 2)]
    return chain.cached(("k-base", spec, N, mp.prec), compute)


def _terms(spec, chain, N: int, m: int):
    """The terms t_k = E_k r^k, r = e^{m phi_e}, k = 0..chain.n_max + 1, of
    Z_N at the index N + m/2 (where N^{2ku/2nu} = e^{k m phi_e}), E_k the
    `_base` at N: one exponential per table, the powers of r by products.
    Formed once per (spec, N, m, working precision) and kept on the chain.
    Every k-sum reads its first `_k_limit` + 1 terms, every reduced form the
    window `_over_dominant`."""
    def compute():
        r, rk, out = mp.exp(m * spec.phi_e), mpf(1), []
        for E in _base(spec, chain, N):
            out.append(E * rk)
            rk *= r
        return out
    return chain.cached(("k-terms", spec, N, m, mp.prec), compute)


def _Z(spec, chain, rp: RegimePoint, m: int):
    """Z_N at the index N + m/2, truncated at rp's k limit."""
    return sum(_terms(spec, chain, rp.N, m)[:_k_limit(chain, rp) + 1], mpf(0))


def sum_Z(spec: CriticalSpec, chain: RecChain, N: int, p: int):
    """ln Z_N(p), the k-sum at the index N + p truncated at its k limit,
    without the factors that cancel from every ratio. Its k = 0 term is
    A_0 = 1, so this is -ln P(0), P(0) the k-sum's weight of an empty
    newborn well."""
    return mp.log(_Z(spec, chain, make_regime(spec, N, p), 2 * p))


def _over_dominant(spec, chain, rp: RegimePoint, m: int, k: int):
    """t_k/t_ubar in the terms at the index N + m/2: the window around the
    dominant term of the table that every reduced form reads. k = -1, below
    the table, takes A_{-1} = 2 pi/A (`ln_A_k`'s convention)."""
    t = _terms(spec, chain, rp.N, m)
    if k >= 0:
        return t[k] / t[rp.ubar]
    below = -m * spec.phi_e - mp.log(rp.N) / (2 * spec.nu) \
        + ln_A_k(chain, mp.log(A_constant(spec)), -1)
    return mp.exp(below) / t[rp.ubar]


def gamma_reduced(spec: CriticalSpec, chain: RecChain, rp: RegimePoint):
    """gamma_{N+p} ~ 1 + 2 sinh^2(phi_e) t_{ubar+eps}/t_ubar at the index
    N + p: the runner-up term of Z_N(p) over the dominant one, which is
    N^{(2|u-ubar|-1)/2nu} A_{ubar+eps}/A_ubar for u >= 0."""
    return 1 + 2 * mp.sinh(spec.phi_e) ** 2 \
        * _over_dominant(spec, chain, rp, 2 * rp.p, rp.ubar + rp.eps_u)


def gamma_full(spec: CriticalSpec, chain: RecChain, rp: RegimePoint):
    """gamma_{N+p} = sqrt(Z_N(p+1) Z_N(p-1)) / Z_N(p), each sum truncated at
    rp's k limit; computed once per (spec, regime, working precision) and
    kept on the chain, as `_terms` keeps its terms."""
    def compute():
        m = 2 * rp.p
        return mp.sqrt(_Z(spec, chain, rp, m + 2) * _Z(spec, chain, rp, m - 2)) \
            / _Z(spec, chain, rp, m)
    return chain.cached(("gamma_full", spec, rp, mp.prec), compute)


def beta_reduced(spec: CriticalSpec, chain: RecChain, rp: RegimePoint):
    """beta_{N+p} ~ 4 sinh^2(phi_e) e^{eps phi_e} t_{ubar+eps}/t_ubar, the
    ratio of `gamma_reduced`."""
    phi = spec.phi_e
    return 4 * mp.sinh(phi) ** 2 * mp.exp(rp.eps_u * phi) \
        * _over_dominant(spec, chain, rp, 2 * rp.p, rp.ubar + rp.eps_u)


def beta_full(spec: CriticalSpec, chain: RecChain, rp: RegimePoint):
    """2 sinh(phi_e) [<k>_{p+1} - <k>_p] with <k>_p the weight-average of k
    over the terms of Z_N(p), both truncated at rp's k limit."""
    k_hi = _k_limit(chain, rp)

    def mean_k(m):
        ts = _terms(spec, chain, rp.N, m)[:k_hi + 1]
        return sum((k * t for k, t in enumerate(ts)), mpf(0)) / sum(ts, mpf(0))

    return 2 * mp.sinh(spec.phi_e) * (mean_k(2 * rp.p + 2) - mean_k(2 * rp.p))


# ----------------------------------------------------------------------------
# wavefunctions
# ----------------------------------------------------------------------------

def _psi_prefactor(spec, N: int):
    """N^{1/4nu} sqrt(A / 2 sinh phi_e), the prefactor of every wavefunction
    form."""
    return mpf(N) ** (mpf(1) / (4 * spec.nu)) \
        * mp.sqrt(A_constant(spec) / (2 * mp.sinh(spec.phi_e)))


def _two_term(spec, chain, rp, index_offset, lower, upper, partner):
    """The dominant window of `psi_full` at p' = p + index_offset, over the
    values lower and upper at k = ubar - 1 and ubar: psi_full's prefactor
    and amplitudes sqrt(t_k t_{k+1}), divided by t_ubar (1 + cosh(phi_e)
    t_{ubar+eps}/t_ubar), all read at the odd index N + p' + 1/2 (m =
    2p + sgn). The divisor is the two-term, first-order form of psi_full's
    sqrt(Z_N(p'+1) Z_N(p')); a Hilbert partner takes its ratio at the other
    odd index, 2p - sgn."""
    if index_offset not in (0, -1):
        raise ValueError("index_offset must be 0 or -1")
    sgn = 1 if index_offset == 0 else -1
    m, ub = 2 * rp.p + sgn, rp.ubar
    num = mp.sqrt(_over_dominant(spec, chain, rp, m, ub + 1)) * upper \
        + mp.sqrt(_over_dominant(spec, chain, rp, m, ub - 1)) * lower
    r = _over_dominant(spec, chain, rp, m - 2 * sgn if partner else m,
                       ub + rp.eps_u)
    return _psi_prefactor(spec, rp.N) * num / (1 + mp.cosh(spec.phi_e) * r)


def psi_reduced(spec, chain, rp: RegimePoint, y, index_offset=0):
    """Two-term reduction of psi_{N+p}(x) (index_offset 0) or psi_{N+p-1}
    (index_offset -1), evaluated at the rescaled coordinate y; psi_ubar and
    psi_{ubar-1} come from the pass that `psi_full` reads at (rp, y), and
    ubar > chain.n_max is a ValueError."""
    ub = rp.ubar
    psis = psi_values(chain, max(ub, _k_limit(chain, rp)), y)
    return _two_term(spec, chain, rp, index_offset,
                     psis[ub - 1] if ub else mpf(0), psis[ub], partner=False)


def phi_reduced(spec, chain, rp: RegimePoint, y, index_offset=0):
    """Hilbert-transform partner phi_{N+p} (offset 0) or phi_{N+p-1} (-1)."""
    hat_dn, hat_up = psihat_values(chain, rp.ubar, y)
    return _two_term(spec, chain, rp, index_offset, hat_dn, hat_up,
                     partner=True)


def Psi_matrix(spec, chain, rp: RegimePoint, y):
    """2x2 matrix [[psi_{n-1}, phi_{n-1}], [psi_n, phi_n]] at n = N + p,
    assembled from the same L^-1 M R factorization as the scalar formulas."""
    rows = []
    for off in (-1, 0):
        rows.append([psi_reduced(spec, chain, rp, y, index_offset=off),
                     phi_reduced(spec, chain, rp, y, index_offset=off)])
    return rows


def _psi_full_terms(spec, chain, rp, index_offset):
    """The y-independent parts of psi_full at p' = p + index_offset: the
    prefactor N^{1/4nu} sqrt(A / 2 sinh phi_e), the amplitudes
    sqrt(t_k t_{k+1}) of psi_0..psi_{k_hi} from the terms at the odd index
    N + p' + 1/2 (k_hi rp's k limit), and the normalizer
    sqrt(Z_N(p'+1) Z_N(p')) at p''s own k limit."""
    here = make_regime(spec, rp.N, rp.p + index_offset)
    m = 2 * here.p
    odd = _terms(spec, chain, rp.N, m + 1)
    amps = [mp.sqrt(a * b)
            for a, b in zip(odd, odd[1:_k_limit(chain, rp) + 2])]
    norm = mp.sqrt(_Z(spec, chain, here, m + 2) * _Z(spec, chain, here, m))
    return _psi_prefactor(spec, rp.N), amps, norm


def psi_full(spec, chain, rp: RegimePoint, y, index_offset=0):
    """Full half-shifted-sum form of psi_{N+p+index_offset}(x(y)). Its
    y-independent parts and its value at each point y (keyed by y as given)
    are kept in the chain's memo, per (spec, regime, offset, working
    precision): `kernel_full` asks for each point once per pair."""
    key = ("psi_full", spec, rp, index_offset, mp.prec)
    pref, amps, norm = chain.cached(
        key, lambda: _psi_full_terms(spec, chain, rp, index_offset))

    def value():
        num = mpf(0)
        for amp, psi in zip(amps, psi_values(chain, len(amps) - 1, y)):
            num += amp * psi
        return pref * num / norm
    return chain.cached(key + (y,), value)


def kernel_reduced(spec, chain, rp: RegimePoint, x, x2):
    """K_{N+p}(x, x') ~ K_{ubar}(y, y') dy/dx under the scaling map."""
    smap = make_scaling_map(spec, rp.N)
    y, y2 = smap.y_of_x(x), smap.y_of_x(x2)
    if rp.ubar < 1:
        return mpf(0)
    return kernel_exact(chain, rp.ubar, y, y2) * smap.dy_dx()


def kernel_full(spec, chain, rp: RegimePoint, x, x2):
    """CD kernel assembled from the full-sum psi's and the full-sum gamma."""
    smap = make_scaling_map(spec, rp.N)
    y, y2 = smap.y_of_x(x), smap.y_of_x(x2)
    gam = gamma_full(spec, chain, rp)
    pn_y = psi_full(spec, chain, rp, y, 0)
    pm_y = psi_full(spec, chain, rp, y, -1)
    pn_y2 = psi_full(spec, chain, rp, y2, 0)
    pm_y2 = psi_full(spec, chain, rp, y2, -1)
    return gam * (pn_y * pm_y2 - pm_y * pn_y2) / (mpf(x) - mpf(x2))
