"""One- and two-cut equilibrium measures and their derivative objects.

The resolvent is W = (V' - M sqrt(sigma))/2, where sigma is the monic
polynomial whose roots are the 2s endpoints of the s cuts:

    s = 1:  (x-a)(x-b),          s = 2:  (x-a)(x-b)(x-c)(x-d).

Both phases solve one system (`_cut_system`). Writing the Laurent series at
infinity as V'/sqrt(sigma) = M + sum_j c_j x^{-j}, the condition
W ~ T/x + O(1/x^2) reads

    c_1 = ... = c_s = 0,  c_{s+1} = 2T,

and for s = 2 the effective potential must also be equal across the gap:
integral_b^c M sqrt(sigma) = 0. A damped Newton iteration (`_solve`) solves
the 2s conditions for the endpoints to max |r| <= 2^-(prec - 16) max(T, 1)
at either cut count, prec the working precision in bits. The gap condition
is in closed form too: with P = M sigma it is sum_k p_k I_k over the moments
I_k = integral_b^c t^k / sqrt(sigma), which reduce to the complete elliptic
integrals K, E and Pi of the parameter 1 - m (`_gap_moments`). No step of
the two-cut solve is an adaptive quadrature, and its cost does not grow as
the newborn cut [c, d] shrinks.

The abelian map u(x) = u_inf + (i/2) sqrt((d-b)(c-a)) integral_x^inf dy /
sqrt(sigma) is closed too. The substitution tan^2 theta = (d-b)(y-a) /
((b-a)(y-d)) (Byrd & Friedman, section 258) turns it into one incomplete
integral of the parameter 1 - m, for every x > d:

    u(x) = i F(arctan rho(x) | 1-m),  rho(x)^2 = (d-b)(x-a) / ((b-a)(x-d)),

with u(d) = i K' and u_inf = u(inf) = i v, v = F(phi | 1-m), at
phi = arctan r, r = sqrt((d-b)/(b-a)). Since sn(u_inf) = i r, the Jacobi
imaginary transformation gives E(u_inf) = i (v + sqrt((d-b)/(c-a))
- E(phi | 1-m)), so the zero of Omega in the gap,
x0 = d + i sqrt((c-a)(d-b)) (E(u_inf) - (1 - E'/K') u_inf), is real:

    x0 = b + sqrt((c-a)(d-b)) (E(phi | 1-m) - (E'/K') v).

Lambda reads u(x) - u_inf, which goes to 0 like 1/x, so it is formed
without subtracting two numbers near u_inf: with the addition theorem
F(phi | k) - F(theta | k) = F(psi | k) (DLMF 19.11.1, sign reversed),
tan phi = rho(x) and tan theta = r, u(x) - u_inf = i F(psi | 1-m), and psi
comes from rho(x)^2 - r^2 = (d-b)(d-a) / ((b-a)(x-d)), which does not
cancel (`_u_from_inf_two_cut`).

One AGM pass at the parameter 1 - m (`specialfn.agm_integrals`) gives K',
E', F(phi | 1-m) and E(phi | 1-m) together, one at m gives K, and the gap
moments take K, E and Pi from the same kind of pass; none comes from mpmath.
The measure keeps the reals K, K' and F_inf = Im u_inf = v.

Newton's Jacobian is exact and comes from the same Laurent data. Write l_m
for the x^m coefficient of V'/sqrt(sigma): M's coefficients for m >= 0 and
c_{-m} for m < 0. Since d sigma^{-1/2}/d e_i = sigma^{-1/2} / (2 (x - e_i)),
and 1/(x - e_i) = sum_{k>=0} e_i^k x^{-k-1},

    dc_j/de_i = (1/2) sum_{k>=0} e_i^k l_{k+1-j}
              = (1/2) (e_i^{j-1} M(e_i) + sum_{l<j} c_l e_i^{j-1-l}),
    dM/de_i   = polynomial part of the same series
              = (1/2) (M(x) - M(e_i)) / (x - e_i).

The endpoints of [b, c] move with the e_i, but M sqrt(sigma) vanishes at b
and c, so Leibniz's rule leaves no boundary terms, and

    d/de_i integral_b^c M sqrt(sigma) = sum_k q_k I_k,
    Q = (dM/de_i) sigma - (1/2) M sigma / (x - e_i)
      = -(1/2) M(e_i) sigma / (x - e_i),

over the moments I_k the gap condition has already formed. One evaluation of
the conditions thus gives Newton its residual and its Jacobian.

That evaluation runs in Python-integer fixed point with W fraction bits
(Brent & Zimmermann, Modern Computer Arithmetic, section 4.8): products
shifted down by W, quotients by floor division, square roots by
`math.isqrt`. The endpoints, V' and T are converted once; sigma, Miller's
series of x^s/sqrt(sigma) and its split into M and c_1..c_{s+1}
(`poly._fixed_series`, `poly._fixed_split`), M(e_i) and the Jacobian rows,
and at s = 2 the gap moments, P = M sigma and the gap row are all
integers; K, E and Pi come from one `specialfn.agm_fixed` pass as the
integers it holds and are closed in integers. Each output (r, J and M's
coefficients) is rounded once to the working precision. W is the
working precision plus `GAP_GUARD_BITS`, plus at s = 2 the bits that a
narrow newborn cut or gap costs (`_narrow_bits`): -log2 of
m = (b-a)(d-c)/((c-a)(d-b)), whose square root starts the AGM, and three
times -log2 of k^2 - alpha^2 = (c-b)(b-a)/((c-a)(d-b)), which divides I_2
and whose gap-row entries at a and d cancel by (c-b)^2. Every endpoint
difference is exact in fixed point, so m and k^2 - alpha^2 keep relative
error 2^-W over their size.

Newton's linear solve J dx = -r runs in integers too (`_lu_solve`): J is
scaled by one power of two and truncated to prec + 20 fraction bits of its
smallest row's largest entry, -r is read exactly, the elimination runs on
those integers, and each component of dx is rounded once.

W's tail at infinity, summed by `veff_const_bs`, is split off the same
integer layer: V' is a polynomial, so W's x^{-k} coefficient is -1/2 that
of M sqrt(sigma), the split of M against Miller's series of
sqrt(sigma)/x^s.

Density: rho(x) = M(x) sqrt(-sigma(x)) / (2 pi T) on the support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from mpmath import mp, mpf
from mpmath.libmp import pi_fixed, to_fixed

from .poly import (FLOAT_MARGIN, Poly, _fixed_deflate, _fixed_horner,
                   _fixed_monic, _fixed_series, _fixed_split, _float_horner,
                   _int_product, monic_from_roots)
from .quadrature import (GUARD_BITS, ConvergenceError, integrate_bracket,
                         integrate_doubling)
from .specialfn import agm_fixed, agm_integrals, theta1_axis, theta1_prime0

# fraction bits of the cut system's fixed point beyond the working
# precision: the gap condition's terms p_k I_k are thousands of times
# larger than their sum, which Newton drives to 0
GAP_GUARD_BITS = 32
NEWTON_STEPS = 40                      # step cap of either cut solve
_CLOSED = 10**10                       # cut or gap < span / _CLOSED: closed


class PhaseError(RuntimeError):
    """The requested cut structure is not the right phase at this T."""


@dataclass
class EqMeasure:
    """An s-cut equilibrium measure; every field is real, the two-cut ones
    from `_fill_two_cut_data`."""
    s: int
    endpoints: tuple          # (a, b) or (a, b, c, d), increasing
    M: Poly
    T: mpf
    V: Poly
    x0: Optional[mpf] = None          # two-cut: zero of Omega in the gap
    m: Optional[mpf] = None           # two-cut: biratio of the endpoints
    F_inf: Optional[mpf] = None       # two-cut: Im u_inf, u_inf = u(infinity)
    K: Optional[mpf] = None           # two-cut: K at parameter m
    Kprime: Optional[mpf] = None      # two-cut: K' = K at parameter 1 - m
    newton_steps: Optional[int] = None    # Newton steps the solve took
    residual: Optional[mpf] = None        # max |residual| at the solution
    _sigmas: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def sigma(self) -> Poly:
        """The monic polynomial with the endpoints as roots, at the working
        precision; formed once per precision, since the endpoints do not
        change after construction."""
        sigma = self._sigmas.get(mp.prec)
        if sigma is None:
            sigma = self._sigmas[mp.prec] = monic_from_roots(self.endpoints)
        return sigma

    def cut_sign(self, i):
        """Branch sign of the density on cut i (0-based): +1 on the last cut,
        alternating leftwards, from the discontinuity of sqrt(sigma)."""
        return 1 if (self.s - 1 - i) % 2 == 0 else -1


# ----------------------------------------------------------------------------
# moment conditions via Laurent data
# ----------------------------------------------------------------------------

def _lu_solve(A, b):
    """x with A x = b for a small square A of mpf entries: Gaussian
    elimination with partial pivoting on Python integers (module docstring).

    Each entry is read from its mantissa and exponent. All of A is scaled
    by one power of two, 2^(W - t), W = prec + 20 and t the top bit of the
    smallest row's largest |A_ij|, and floored to integers R_ij: every row
    keeps its largest entry, a prec-bit mantissa, exact and at least W bits
    below it, and the low bits of smaller entries are truncated.
    The column b is scaled by 2^-u more, u the least of top(b_i) - top(A_i)
    over the rows, so that every nonzero b_i keeps at least W bits and b is
    exact. Under the one scale the pivot is the largest |R_kj|, the largest
    |A_kj| as truncated, not a row-scaled value. The multiplier
    R_ij / R_jj keeps W + (the spread of the rows' top bits) fraction bits,
    so that each update R_ik - R_ij R_jk / R_jj is off by at most two units,
    2^(1 - W) of row i's largest entry, however far row i lies below the
    pivot row. Back substitution forms each x_k from one exact sum and one
    floor division and rounds it once, 10 bits above the working precision,
    so that a full Newton step x + dx is rounded once, to the working
    precision. ZeroDivisionError where a pivot is at most n eps times the
    largest |A_ik| of its own row as given, eps = 2^(1 - (prec + 10)), a
    bound that scales with its row: A is numerically singular."""
    n = len(A)
    W = mp.prec + 20
    A = [[v._mpf_ for v in row] for row in A]
    b = [v._mpf_ for v in b]
    tops = [max((e + bc for _, m, e, bc in row if m), default=0)
            for row in A]
    t = min(tops)
    F = W + max(tops) - t
    u = min((e + bc - top for (_, m, e, bc), top in zip(b, tops) if m),
            default=0)
    rows = [[to_fixed(v, W - t) for v in row] + [to_fixed(v, W - t - u)]
            for row, v in zip(A, b)]
    # singular where |pivot| <= n 2^(1 - (prec + 10)) max_k |A_ik| of its row
    tols = [n * max(map(abs, row[:n])) for row in rows]
    for j in range(n):
        piv = j
        for k in range(j + 1, n):
            if abs(rows[k][j]) > abs(rows[piv][j]):
                piv = k
        rows[j], rows[piv] = rows[piv], rows[j]
        tols[j], tols[piv] = tols[piv], tols[j]
        pivot = rows[j]
        p = pivot[j]
        if abs(p) << mp.prec + 9 <= tols[j]:
            raise ZeroDivisionError("matrix is numerically singular")
        for row in rows[j + 1:]:
            if row[j]:
                f = (row[j] << F) // p
                for k in range(j + 1, n + 1):
                    row[k] -= f * pivot[k] >> F
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = rows[i]
        y[i] = ((row[n] << W) - sum(row[k] * y[k] for k in range(i + 1, n))) \
            // row[i]
    return [mpf((v, u - W), prec=mp.prec + 10) for v in y]


def _newton(F, x0, T):
    """Damped Newton on F(x) -> (r, J, data), J[i][j] = dr_i/dx_j exactly,
    to max |r| <= 2^-(prec - 16) max(T, 1) in at most `NEWTON_STEPS` steps.

    F evaluates the residual and its Jacobian together, from one set of
    Laurent data (see the module docstring), so a step whose full length is
    accepted costs one evaluation, and each halving of the line search one
    more; no evaluation is made for the Jacobian alone. Returns
    (x, data, steps, residual): data from the evaluation at x, the number of
    Newton steps taken and max |r| there.

    Each step solves J dx = -r by `_lu_solve`, Gaussian elimination with
    partial pivoting on Python integers: J truncated to prec + 20 fraction
    bits of its smallest row's largest entry, r exact; a numerically
    singular J raises ConvergenceError.

    Each step component is capped at 0.2 (1 + |x_j|), 0.2 formed once per
    call; near a degenerate critical point the Jacobian is stiff and an
    uncapped step can jump into the basin of a spurious (negative-density)
    root of the moment system.
    """
    n = len(x0)
    x = [mpf(v) for v in x0]
    tol = mp.ldexp(max(T, 1), 16 - mp.prec)
    fifth = mpf("0.2")
    r, J, data = F(x)
    rn = max(abs(v) for v in r)
    for steps in range(NEWTON_STEPS):
        if rn <= tol:
            return x, data, steps, rn
        try:
            dx = _lu_solve(J, [-v for v in r])
        except ZeroDivisionError as exc:
            raise ConvergenceError("singular Jacobian: %s" % exc)
        big = max(abs(dx[j]) / (fifth * (1 + abs(x[j]))) for j in range(n))
        if big > 1:
            dx = [dx[j] / big for j in range(n)]
        lam = mpf(1)
        for _ in range(30):
            xt = [x[j] + lam * dx[j] for j in range(n)]
            try:
                rt, Jt, data_t = F(xt)
                rtn = max(abs(v) for v in rt)
            except (PhaseError, ValueError):
                rtn = None
            if rtn is not None and rtn < rn:
                x, r, J, data, rn = xt, rt, Jt, data_t, rtn
                break
            lam /= 2
        else:
            raise ConvergenceError("line search stalled at residual %s" % rn)
    if rn <= tol:
        return x, data, NEWTON_STEPS, rn
    raise ConvergenceError("no convergence after %d iterations (residual %s)"
                           % (NEWTON_STEPS, rn))


def _cut_system(Vp: Poly, T, x):
    """Residual (c_1, .., c_s, c_{s+1} - 2T), plus the gap row when s = 2, at
    the endpoints x of s = len(x)//2 cuts, its exact Jacobian and M.

    One evaluation in W-bit fixed point (module docstring): the endpoints,
    V' and T are converted once, and each output is rounded once to the
    working precision. A cut or the gap narrower than 1e-10 times the span
    has closed."""
    s = len(x) // 2
    if not all(lo < hi for lo, hi in zip(x, x[1:])):
        raise PhaseError("cut collision: need %s" % " < ".join("abcd"[:2 * s]))
    span = x[-1] - x[0]
    if any((hi - lo) * _CLOSED < span for lo, hi in zip(x[1:], x[2:])):
        raise PhaseError("cut collision: a cut or the gap has closed")
    W = mp.prec + GAP_GUARD_BITS + (_narrow_bits(x) if s == 2 else 0)
    X = [to_fixed(v._mpf_, W) for v in x]
    vp = [to_fixed(c._mpf_, W) for c in Vp.c]
    S = _fixed_monic(X, W)
    # V'(x) x^-s sum_j t_j x^-j: M_k at x^k, c_l at x^-l
    M, c = _fixed_split(vp, _fixed_series(S, len(vp), W), s, s + 1)
    M = [v >> W for v in M]
    c = [v >> W for v in c]
    Me = [_fixed_horner(M, E, W) for E in X]
    # 2 dc_j/de_i = e_i^{j-1} M(e_i) + sum_{l<j} c_l e_i^{j-1-l}
    J = [[mpf((_fixed_horner(c[j - 1:0:-1] + [Me[i]], E, W), -W - 1))
          for i, E in enumerate(X)] for j in range(1, s + 2)]
    r = c[1:]
    r[s] -= 2 * to_fixed(T._mpf_, W)
    r = [mpf((v, -W)) for v in r]
    if s == 2:
        # integral_b^c M sqrt(sigma) = sum_k p_k I_k, P = M sigma; its
        # e_i-derivative is -(M(e_i)/2) sum_k q_k I_k, q = sigma/(x - e_i)
        P = _int_product(M, S)
        I = _gap_moments(X, S, len(P), W)
        r.append(mpf((sum(p * Ik for p, Ik in zip(P, I)), -3 * W)))
        J.append([mpf((-Me[i] * sum(q * Ik for q, Ik in zip(
            _fixed_deflate(S, E, W), I)), -3 * W - 1))
                  for i, E in enumerate(X)])
    return r, J, Poly([mpf((v, -W)) for v in M])


def _narrow_bits(x):
    """Guard bits for a narrow newborn cut [c, d] or gap [b, c] at the
    endpoints x = (a, b, c, d), from m = (b-a)(d-c)/((c-a)(d-b)) and
    g = k^2 - alpha^2 = (c-b)(b-a)/((c-a)(d-b)), each formed from W-bit
    endpoints with relative error 2^-W over its size.

    -log2 m keeps sqrt(m), which starts the AGM, at full relative accuracy,
    as `specialfn.agm_integrals` sizes its own W. -log2 g counts three
    times: g divides I_2 (`_gap_moments`), so every I_k carries an error of
    2^-W/g, and the gap row's entries at a and d, integrals of
    (t-b)(t-c) times a smooth factor over [b, c], are O((c-b)^2) against
    terms p_k I_k of O(1)."""
    a, b, c, d = (float(v) for v in x)
    scale = (c - a) * (d - b)
    return (max(0, -math.frexp((b - a) * (d - c) / scale)[1])
            + 3 * max(0, -math.frexp((c - b) * (b - a) / scale)[1]))


def _solve(V: Poly, T, guess) -> EqMeasure:
    """The s-cut measure, s = len(guess)//2, from Newton on `_cut_system`."""
    T = mpf(T)
    if not T > 0:
        raise ValueError("temperature T = %s: need T > 0" % mp.nstr(T, 10))
    Vp = V.deriv()
    ends, M, steps, rn = _newton(lambda x: _cut_system(Vp, T, x), guess, T)
    mu = EqMeasure(s=len(ends) // 2, endpoints=tuple(ends), M=M, T=T, V=V,
                   newton_steps=steps, residual=rn)
    _check_density(mu)
    if mu.s == 2:
        _fill_two_cut_data(mu)
    return mu


def solve_one_cut(V: Poly, T, guess=(-2, 2)) -> EqMeasure:
    """Endpoints (a, b) with c_1 = 0 and c_2 = 2T; raises PhaseError if the
    resulting density is negative somewhere on [a, b]."""
    return _solve(V, T, guess)


def solve_two_cut(V: Poly, T, guess) -> EqMeasure:
    """Endpoints (a, b, c, d) with c_1 = c_2 = 0, c_3 = 2T and equal effective
    potential across the gap; populates x0, m, K, K' and F_inf."""
    return _solve(V, T, guess)


def _gap_moments(X, S, count, W):
    """[I_0, ..., I_{count-1}] over 2^W, I_k = integral_b^c t^k dt /
    sqrt(sigma(t)), in closed form, for the endpoints X = (A, B, C, D) over
    2^W, a < b < c < d, and S the coefficients over 2^W of their monic
    sigma.

    The substitution sn^2(u|k^2) = (c-a)(t-b) / ((c-b)(t-a)) maps [b, c] onto
    [0, K] and gives t - a = (b-a) / (1 - alpha^2 sn^2), with
    k^2 = (c-b)(d-a) / ((c-a)(d-b)) = 1 - m and alpha^2 = (c-b)/(c-a). So
    (Byrd & Friedman, Handbook of Elliptic Integrals, 2nd ed., 1971, section
    254 and 336.02)

        J_k = integral_b^c (t-a)^k / sqrt(sigma) = g (b-a)^k V_k,
        g = 2 / sqrt((c-a)(d-b)),  V_0 = K,  V_1 = Pi(alpha^2|k^2),
        V_2 = [alpha^2 E + (k^2 - alpha^2) K
               + (2 alpha^2 k^2 + 2 alpha^2 - alpha^4 - 3 k^2) Pi]
              / (2 (alpha^2 - 1)(k^2 - alpha^2)),

    and I_0..I_2 follow from t = (t-a) + a. sqrt(sigma) vanishes at b and c,
    so integral_b^c d/dt [t^j sqrt(sigma)] dt = 0, that is
    sum_i (j + i/2) s_i I_{i+j-1} = 0 for sigma = sum_i s_i t^i, s_4 = 1:
    each I_{j+3} from I_{j-1} .. I_{j+2}.

    K, E and Pi come from one `specialfn.agm_fixed` pass at W bits and are
    closed in integers. Every endpoint difference is exact, and m and
    k^2 - alpha^2 are formed as products of them, so each keeps its
    relative accuracy as the new cut or the gap closes; `_cut_system`
    sizes W for the bits their size costs (`_narrow_bits`).
    """
    A, B, C, D = X
    one = 1 << W
    ca, db, ba = C - A, D - B, B - A
    den = ca * db
    k2 = ((C - B) * (D - A) << W) // den
    n = ((C - B) << W) // ca
    kn = ((C - B) * ba << W) // den          # k^2 - alpha^2
    mc = (ba * (D - C) << 2 * W) // den      # m = 1 - k^2, over 2^(2W)
    a, csum, qsum, _, _ = agm_fixed(W, math.isqrt(mc), k2 >> 1,
                                    1 << GAP_GUARD_BITS, one - n)
    pi = pi_fixed(W)
    K = (pi << W) // (2 * a)
    E = K * (one - csum) >> W
    Pi = ((pi << W) // (4 * a)) * (2 * one + ((n << W) // (one - n)) * qsum
                                   // one) >> W
    g = (2 << 2 * W) // math.isqrt(den)
    gb = g * ba >> W
    J0 = g * K >> W
    J1 = gb * Pi >> W
    coeff = (2 * n * k2 >> W) + 2 * n - (n * n >> W) - 3 * k2
    J2 = (gb * ba >> W) * ((n * E + kn * K + coeff * Pi) >> W) \
        // (2 * (n - one) * kn >> W)
    moments = [J0, J1 + (A * J0 >> W),
               J2 + (2 * A * J1 + (A * A >> W) * J0 >> W)]
    for j in range(count - 3):
        acc = sum((2 * j + i) * S[i] * moments[i + j - 1]
                  for i in range(0 if j else 1, 4))
        moments.append(-acc // ((j + 2) << W + 1))
    return moments[:count]


def _check_density(mu: EqMeasure):
    """Raise PhaseError at the first of 199 evenly spaced points per cut
    where sgn M(x) < -10^(8 - dps) max_k |c_k| (1 + |x|)^deg M.

    M is scanned in floats (`poly._float_horner`); the test is formed in
    mpf only where sgn M_float <= `poly.FLOAT_MARGIN` of the scale
    sum_k |c_k| |x|^k there, so every point skipped passes in mpf too.
    Where the coefficients leave the float range, no point is skipped."""
    samples = 200                      # points per cut where M's sign is checked
    eps = mu.endpoints
    mscale = max(abs(v) for v in mu.M.c) if mu.M else mpf(1)
    floor = -mscale * mpf(10) ** (-mp.dps + 8)
    coeffs = [float(v) for v in reversed(mu.M.c)]
    in_range = all(v == 0 or 1e-290 < abs(ck) < math.inf
                   for ck, v in zip(coeffs, reversed(mu.M.c)))
    for cut in range(mu.s):
        lo, hi = eps[2 * cut], eps[2 * cut + 1]
        f_lo, f_hi = float(lo), float(hi)
        sgn = mu.cut_sign(cut)
        for i in range(1, samples):
            if in_range:
                acc, size = _float_horner(coeffs,
                                         f_lo + (f_hi - f_lo) * i / samples)
                if sgn * acc > FLOAT_MARGIN * size:
                    continue
            x = lo + (hi - lo) * mpf(i) / samples
            if sgn * mu.M(x) < floor * (1 + abs(x)) ** mu.M.degree:
                raise PhaseError("negative density at x = %s; wrong cut count "
                                 "for this temperature" % mp.nstr(x, 10))


def _fill_two_cut_data(mu: EqMeasure):
    """m, K, K', F_inf = F(phi | 1-m) and x0 (module docstring), each rounded
    once from 20 guard bits: one AGM pass at 1 - m, with the amplitude
    tan phi = sqrt((d-b)/(b-a)), gives K', E', F and E(phi | 1-m)."""
    a, b, c, d = mu.endpoints
    m = (b - a) * (d - c) / ((c - a) * (d - b))
    with mp.workprec(mp.prec + 20):
        prime = agm_integrals(m, amplitude=(mp.sqrt(b - a), mp.sqrt(d - b)))
        x0 = b + mp.sqrt((c - a) * (d - b)) * (
            prime.E_phi - prime.E / prime.K * prime.F)
        K = agm_integrals(1 - m).K
    mu.m, mu.K, mu.Kprime, mu.F_inf, mu.x0 = m, +K, +prime.K, +prime.F, +x0


def normalization(mu: EqMeasure):
    """integral of the density over the support (should be 1).

    Each cut [lo, hi] is one `integrate_bracket` run on
    M(x) sqrt|sigma_other(x)| (x - lo)(hi - x), sigma_other the product of
    x - r over the other cut's ends. The integrand is formed in
    Python-integer fixed point at W = prec + GUARD_BITS fraction bits: x is
    converted once, M by Horner on coefficients converted once per call,
    the root by `math.isqrt`, and the value is rounded once."""
    eps = mu.endpoints
    W = mp.prec + GUARD_BITS
    M = [to_fixed(c._mpf_, W) for c in mu.M.c]
    total = mpf(0)
    for cut in range(mu.s):
        lo, hi = eps[2 * cut], eps[2 * cut + 1]
        sgn = mu.cut_sign(cut)
        LO, HI = to_fixed(lo._mpf_, W), to_fixed(hi._mpf_, W)
        others = [to_fixed(r._mpf_, W) for r in eps if r < lo or r > hi]

        def integrand(x):
            X = to_fixed(x._mpf_, W)
            m = _fixed_horner(M, X, W)
            rest = 1 << W
            for R in others:
                rest = rest * abs(X - R) >> W
            v = m * math.isqrt(rest << W) >> W
            v = v * (X - LO) >> W
            return mpf((v * (HI - X) >> W, -W))

        total += (sgn * integrate_bracket(integrand, lo, hi)
                  / (2 * mp.pi * mu.T))
    return total


# ----------------------------------------------------------------------------
# effective potential
# ----------------------------------------------------------------------------

def _sqrt_sigma_signed(mu: EqMeasure, x):
    """sqrt(sigma) on the real axis off the support, with the branch that is
    +|.| right of the support and flips sign across each cut: its sign is
    (-1)^(number of cut left ends right of x)."""
    root = mp.sqrt(abs(mu.sigma()(x)))
    cuts_right = sum(1 for e in mu.endpoints[0::2] if x < e)
    return -root if cuts_right % 2 else root


def effective_potential(mu: EqMeasure, x):
    """V_eff(x) - V_eff(b_s) = integral_{b_s}^x M sqrt(sigma), x off the open
    support. V_eff equals V_eff(b_s) on every cut (flat on each, equal across
    the gap), so the integral is taken from the next cut's left end right of
    x, or from b_s right of the support; the square-root vanishing there is
    absorbed by t = p + w^2.
    """
    x = mpf(x)
    eps = mu.endpoints
    for i in range(0, len(eps), 2):
        if eps[i] < x < eps[i + 1]:
            raise ValueError("x = %s lies inside the support" % x)
    if x in eps:
        return mpf(0)
    p = next((e for e in eps[0::2] if x < e), eps[-1])
    sign_dir = 1 if x > p else -1

    def f(w):
        # integral_p^x M sqrt(sigma) dt, with t = p + sign_dir * w^2
        t = p + sign_dir * w * w
        return 2 * w * sign_dir * mu.M(t) * _sqrt_sigma_signed(mu, t)
    return integrate_doubling(f, 0, mp.sqrt(abs(x - p)), max_panels=256)


# ----------------------------------------------------------------------------
# Lambda and gamma
# ----------------------------------------------------------------------------

def joukowski_lambda(mu: EqMeasure, x):
    """One-cut Lambda(x) = exp(phi(x)), branch fixed by x/Lambda -> gamma at
    +infinity and continuity along the real axis."""
    a, b = mu.endpoints
    w = (2 * mpf(x) - a - b) / (b - a)
    if abs(w) < 1:
        raise ValueError("x inside the cut")
    root = mp.sqrt(w * w - 1)
    return w + root if w >= 1 else w - root


def _u_from_inf_two_cut(mu: EqMeasure, x):
    """F(x) - F_inf = Im (u(x) - u_inf) = F(psi | 1-m) for real x > d (module
    docstring). With y = rho(x)^2, z = r^2 and D = y - z formed directly,

        sin psi = D / (sqrt(y (1 + m z)(1 + y)) + sqrt(z (1 + m y)(1 + z))),
        cos psi = (sqrt((1 + z)(1 + y)) + sqrt(z y (1 + m z)(1 + m y)))
                  / (1 + z + y + m z y),

    both sums of positive terms, so psi keeps its relative accuracy as it
    goes to 0 like 1/x; x - d enters through D alone."""
    a, b, c, d = mu.endpoints
    x, m = mpf(x), mu.m
    if x <= d:
        raise ValueError("need x > d")
    with mp.workprec(mp.prec + 20):
        z = (d - b) / (b - a)
        D = (d - b) * (d - a) / ((b - a) * (x - d))
        y = z + D
        sin_psi = D / (mp.sqrt(y * (1 + m * z) * (1 + y))
                       + mp.sqrt(z * (1 + m * y) * (1 + z)))
        cos_psi = (mp.sqrt((1 + z) * (1 + y))
                   + mp.sqrt(z * y * (1 + m * z) * (1 + m * y))) \
            / (1 + z + y + m * z * y)
        F = agm_integrals(m, amplitude=(cos_psi, sin_psi)).F
    return +F


def lambda_two_cut(mu: EqMeasure, x):
    """Lambda(x) = e^{pi u u_inf/(K K')} theta1((u+u_inf)/2K) / theta1((u-u_inf)/2K)
    for real x > d, a real formula in F = Im u(x) and F_inf = Im u_inf
    (`specialfn` conventions, tau = K'/K) at 20 guard bits, rounded once;
    F - F_inf comes from `_u_from_inf_two_cut`, not from F."""
    K, Kp, F_inf = mu.K, mu.Kprime, mu.F_inf
    with mp.workprec(mp.prec + 20):
        G = _u_from_inf_two_cut(mu, x)
        F = F_inf + G
        tau = Kp / K
        lam = mp.exp(-(mp.pi * F * F_inf) / (K * Kp)) \
            * theta1_axis((F + F_inf) / (2 * K), tau) \
            / theta1_axis(G / (2 * K), tau)
    return +lam


def gamma_two_cut(mu: EqMeasure):
    """gamma = (i/4K) sqrt((d-b)(c-a)) e^{-pi u_inf^2/(K K')} theta1'(0) /
    theta1(u_inf/K), a real formula in F_inf = Im u_inf (`specialfn`
    conventions, tau = K'/K) at 20 guard bits, rounded once."""
    a, b, c, d = mu.endpoints
    K, Kp, F_inf = mu.K, mu.Kprime, mu.F_inf
    with mp.workprec(mp.prec + 20):
        tau = Kp / K
        gamma = mp.sqrt((d - b) * (c - a)) / (4 * K) \
            * mp.exp(mp.pi * F_inf ** 2 / (K * Kp)) \
            * theta1_prime0(tau) / theta1_axis(F_inf / K, tau)
    return +gamma


def measure_gamma(mu: EqMeasure):
    """gamma = lim x/Lambda(x), the capacity of the support: (b - a)/4 on one
    cut, `gamma_two_cut` on two."""
    if mu.s == 1:
        a, b = mu.endpoints
        return (b - a) / 4
    return gamma_two_cut(mu)


def veff_const_bs(mu: EqMeasure):
    """Absolute V_eff(b_s) = V(b_s) - 2T ln(b_s) - 2 int_inf^{b_s} (W - T/x).

    Past x = X the integral is summed from W's Laurent tail (module
    docstring); the finite part is integrated with the w^2 substitution at
    b_s. Both read M at 24 guard bits, re-derived from V' and the endpoints
    by the integer split of `_cut_system` (`poly._fixed_split`), which also
    gives W's tail from the integer series of sqrt(sigma)/x^s. The
    integrand is formed at the same 24 guard bits and rounded once: V' and
    M sqrt(sigma) agree to about 20 bits at x = X, and the integrand grows
    like x^3 up to X, so M or the integrand at the working precision would
    cost V_eff(b_s) up to about 4e-37 relative at 40 digits. Requires
    b_s > 0 (true for every critical model here).
    """
    tail_terms = 40                    # Laurent terms of W - T/x past x = X
    bs = mu.endpoints[-1]
    if bs <= 0:
        raise ValueError("normalization constant needs b_s > 0")
    T, Vp, s = mu.T, mu.V.deriv(), mu.s
    W = mp.prec + 24
    vp = [to_fixed(c._mpf_, W) for c in Vp.c]
    S = _fixed_monic([to_fixed(v._mpf_, W) for v in mu.endpoints], W)
    M = [v >> W for v in _fixed_split(
        vp, _fixed_series(S, len(vp) - 1 - s, W), s, 0)[0]]
    _, n = _fixed_split(M, _fixed_series(S, tail_terms + len(M) - 1 + s, W,
                                         root=True), -s, tail_terms)

    # integral_X^inf (W - T/x) dx; W - T/x has no x^{-k} term at k <= 1
    X = 8 * max(abs(v) for v in mu.endpoints) + 8
    with mp.workprec(W):
        M = Poly([mpf((v, -W)) for v in M])
        tail = -mp.fsum(mpf((n[k], -2 * W)) * X ** (1 - k) / (k - 1)
                        for k in range(2, tail_terms + 1)) / 2

    def integrand(w):
        with mp.workprec(W):
            x = bs + w * w
            v = 2 * w * ((Vp(x) - M(x) * _sqrt_sigma_signed(mu, x)) / 2
                         - T / x)
        return +v

    finite = integrate_doubling(integrand, 0, mp.sqrt(X - bs), max_panels=256)
    return mu.V(bs) - 2 * T * mp.log(bs) + 2 * (finite + tail)


def thermo_derivatives(mu: EqMeasure):
    """dF/dT = V_eff(b_s), d2F/dT2 = -2 ln gamma, and the trace derivative
    dT(race)/dT ((a+b)/2 for one cut, (a+b+c+d)/2 - x0 for two)."""
    gamma = measure_gamma(mu)
    eps = mu.endpoints
    if mu.s == 1:
        trace = (eps[0] + eps[1]) / 2
    else:
        trace = sum(eps) / 2 - mu.x0
    return {
        "dF_dT": veff_const_bs(mu),
        "d2F_dT2": -2 * mp.log(gamma),
        "dT_dT_trace": trace,
        "gamma": gamma,
    }


def classical_gamma_beta(mu: EqMeasure):
    """Large-n recurrence coefficients: values for s = 1, oscillation bounds
    for s = 2."""
    eps = mu.endpoints
    if mu.s == 1:
        a, b = eps
        return {"gamma_n": (b - a) / 4, "beta_n": (a + b) / 2}
    a, b, c, d = eps
    return {
        "gamma_lo": (d - a - c + b) / 4, "gamma_hi": (d - a + c - b) / 4,
        "beta_lo": (d + a - c + b) / 2, "beta_hi": (d + a + c - b) / 2,
    }
