"""Construction and validation of critical potentials.

A critical model of order nu places the outer well of the effective potential
exactly at the Fermi level, at x = e = 2 cosh(phi_e) > 2, with the density
vanishing like (x-e)^{2 nu - 1} at criticality. The data is encoded by a
polynomial Q with

    M(x) = (x - e)^{2 nu - 1} Q(x),
    V'(x) = polynomial part at infinity of M(x) sqrt(x^2 - 4),
    T_c   = (1/2) Res_infinity M(x) sqrt(x^2 - 4) dx,

subject to the sign and vanishing conditions checked by `validate_critical`.
`build_critical_Q` produces a valid Q = (x - e_tilde) Qtilde from any strictly
positive even Qtilde by fixing e_tilde as a ratio of two cut integrals.

Every integral here is of a polynomial times sqrt(x^2 - 4) over an interval
of [2, inf) (for x < -2, of the mirrored polynomial), so it has an exact
antiderivative: in x = 2 cosh(t) the integrand is a cosine polynomial in t
(`_cut_integral`). No quadrature runs; near a high-order zero of M the
antiderivative's terms cancel, and guard bits sized from the measured
cancellation keep the result at working precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from mpmath import mp, mpf

from .poly import Poly, count_real_roots, isolate_real_roots

# extra bits for the first pass of a `_cut_integral`; later passes add the
# bits that the measured cancellation costs
CUT_GUARD_BITS = 32
# the sign checks of `validate_critical` need a sample above this many units
# of 2^-prec of the vanishing integral's scale
SIGN_FLOOR_UNITS = 16


@dataclass(frozen=True)
class CriticalSpec:
    nu: int
    e: mpf
    phi_e: mpf
    Q: Poly
    e_tilde: mpf
    V: Poly
    Tc: mpf
    d: int          # deg V = d + 1

    def Vp(self) -> Poly:
        return self.V.deriv()

    def M_critical(self) -> Poly:
        """(x - e)^{2 nu - 1} Q(x), the critical measure polynomial."""
        return Poly([-self.e, 1]) ** (2 * self.nu - 1) * self.Q


@dataclass
class ValidationCheck:
    name: str
    passed: bool
    measured: str


@dataclass
class ValidationReport:
    checks: list

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self):
        return [c for c in self.checks if not c.passed]

    def __str__(self):
        lines = []
        for c in self.checks:
            lines.append("%-34s %s  (%s)" % (c.name, "PASS" if c.passed else "FAIL", c.measured))
        return "\n".join(lines)


def _cosh_coefficients(P: Poly):
    """c with P(2 cosh t) = c[0] + sum_k c[k] cosh(k t), from
    (2 cosh t)^n = (e^t + e^-t)^n = sum_j binom(n, j) e^{(n - 2j) t}."""
    c = [mpf(0)] * (P.degree + 1)
    for n, r in enumerate(P.c):
        for j in range(n // 2 + 1):
            k = n - 2 * j
            c[k] += r * comb(n, j) * (2 if k else 1)
    return c


def _sinh_terms(x, K):
    """[t, sinh(t), sinh(2t)/2, ..., sinh(K t)/K] at x = 2 cosh(t) >= 2:
    the antiderivatives of 1, cosh(t), ..., cosh(K t). The addition
    formulas add only positive terms, so nothing cancels as t -> 0."""
    s1 = mp.sqrt((x - 2) * (x + 2)) / 2
    c1 = x / 2
    out = [mp.asinh(s1)]
    s, c = mpf(0), mpf(1)       # sinh(k t), cosh(k t)
    for k in range(1, K + 1):
        s, c = s * c1 + c * s1, c * c1 + s * s1
        out.append(s / k)
    return out


def _cut_integral(factors):
    """The function (lo, hi) -> integral_lo^hi P(x) sqrt(x^2-4) dx for
    2 <= lo <= hi, P the product of the Polys `factors`, in closed form.

    x = 2 cosh(t) turns the integrand into P(x)(x^2-4) dt = (c_0 + sum_k c_k
    cosh(k t)) dt, with antiderivative c_0 t + sum_k c_k sinh(k t)/k. The
    terms can be far larger than their sum (near a high-order zero of P, or
    on a short interval next to x = 2), so P is expanded and the terms are
    summed with guard bits: CUT_GUARD_BITS first, then again with the bits
    that the measured cancellation sum |terms| / |value| costs, until the
    guard covers it. The absolute terms come from the product of the
    factors' absolute coefficients, so they bound the rounding of the
    expansion too. Expansions are kept per precision and shared by all
    intervals.
    """
    expansions = {}

    def expansion():
        got = expansions.get(mp.prec)
        if got is None:
            P, A = Poly([-4, 0, 1]), Poly([4, 0, 1])
            for f in factors:
                P = P * f
                A = A * Poly([abs(a) for a in f.c])
            got = expansions[mp.prec] = (_cosh_coefficients(P),
                                         _cosh_coefficients(A))
        return got

    def integral(lo, hi):
        prec = mp.prec
        guard = CUT_GUARD_BITS
        while True:
            with mp.workprec(prec + guard):
                c, ca = expansion()
                value = mass = mpf(0)
                for x, sign in ((mpf(hi), 1), (mpf(lo), -1)):
                    for ck, ak, T in zip(c, ca, _sinh_terms(x, len(c) - 1)):
                        value += sign * ck * T
                        mass += ak * T
            lost = mp.mag(mass) - mp.mag(value) if value else prec + guard
            if lost + CUT_GUARD_BITS <= guard or guard >= 4 * prec:
                return +value
            guard = CUT_GUARD_BITS * (lost // CUT_GUARD_BITS + 2)

    return integral


def _mirror(p: Poly) -> Poly:
    """p(-x)."""
    return Poly([-a if k % 2 else a for k, a in enumerate(p.c)])


def _weight_factors(g: Poly, e, nu):
    """The factors of g(x) (x-e)^{2 nu - 1}, for `_cut_integral`."""
    return [Poly([-e, 1])] * (2 * nu - 1) + [g]


def _sign_change_points(Q: Poly, lo, hi):
    """The zeros of Q in (lo, hi] at which Q changes sign (where |Q| has a
    kink), bisected to working precision."""
    if Q.degree <= 0:
        return []
    out = []
    for a, b in isolate_real_roots(Q, lo, hi):
        qb = Q(b)
        if qb == 0:
            out.append(b)
        elif Q(a) * qb <= 0:
            for _ in range(mp.prec):
                m = (a + b) / 2
                if Q(m) * qb > 0:
                    b = m
                else:
                    a = m
            out.append(b)
    return out


def build_critical_Q(nu: int, e, Q_tilde: Poly):
    """Return (Q, e_tilde) with Q = (x - e_tilde) * Q_tilde.

    e_tilde is the weighted average of x over (2, e) against the (negative-
    definite) weight Qtilde(x) (x-e)^{2 nu -1} sqrt(x^2-4), hence lies in (2, e)
    and makes the total weight integral vanish.
    """
    e = mpf(e)
    if e <= 2:
        raise ValueError("need e > 2")
    if nu < 1:
        raise ValueError("need nu >= 1")
    if not isinstance(Q_tilde, Poly):
        Q_tilde = Poly([Q_tilde])
    if Q_tilde.degree % 2 != 0:
        raise ValueError("Q_tilde must have even degree")
    if Q_tilde[Q_tilde.degree] <= 0:
        raise ValueError("Q_tilde must have positive leading coefficient")
    if count_real_roots(Q_tilde, -mpf(10) ** 9, mpf(10) ** 9) != 0:
        raise ValueError("Q_tilde must have no real zero")

    den = _cut_integral(_weight_factors(Q_tilde, e, nu))(2, e)
    num = _cut_integral(_weight_factors(Poly([0, 1]) * Q_tilde, e, nu))(2, e)
    if den == 0:
        raise ValueError("degenerate weight: the weight integral is zero")
    e_tilde = num / den
    if not (2 < e_tilde < e):
        raise ValueError("computed e_tilde = %s not in (2, e)" % e_tilde)
    return Poly([-e_tilde, 1]) * Q_tilde, e_tilde


def build_potential(nu: int, e, Q: Poly):
    """V and T_c from Q via the expansion of M(x) sqrt(x^2-4) at infinity.

    sqrt(x^2-4) = x sum_k binom(1/2,k) (-4)^k x^{-2k}; the polynomial part of
    the product is V' and T_c = -(1/2) [x^{-1}-coefficient] (the residue at
    infinity of f dx is minus the 1/x coefficient of f).
    """
    e = mpf(e)
    P = Poly([-e, 1]) ** (2 * nu - 1) * Q
    # binomial coefficients binom(1/2, k) (-4)^k
    nterms = P.degree // 2 + 3
    b = [mpf(1)]
    for k in range(nterms):
        b.append(b[-1] * (mpf(1) / 2 - k) / (k + 1))
    Vp = [mpf(0)] * (P.degree + 2)
    c_m1 = mpf(0)
    for k in range(nterms + 1):
        coef = b[k] * (-4) ** k
        # P(x) * x^{1-2k}: power m picks P_{m - 1 + 2k}
        for m in range(P.degree + 2 - 2 * k):
            Vp[m] += coef * P[m - 1 + 2 * k]
        idx = 2 * k - 2
        if 0 <= idx <= P.degree:
            c_m1 += coef * P[idx]
    Tc = -c_m1 / 2
    if Tc <= 0:
        raise ValueError("residue gives non-positive T_c = %s" % Tc)
    V = Poly(Vp).antideriv(0)
    return V, Tc


def quartic_etilde(phi_e):
    """Closed form for e_tilde in the nu = 1, Qtilde = 1 quartic family.

    Solves integral_2^e (x-e)(x-e_tilde) sqrt(x^2-4) dx = 0 at e = 2 cosh(phi_e):

        e_tilde = [ (1/3) sinh cosh (5 - 2 cosh^2) - phi_e ]
                  / ( 2 [ phi_e cosh - (1/3) sinh (2 + cosh^2) ] ).
    """
    phi_e = mpf(phi_e)
    if phi_e <= 0:
        raise ValueError("need phi_e > 0")
    tol = mpf(10) ** (-mp.dps + 4)
    # num and den cancel like phi_e^3 and phi_e^5 as phi_e -> 0
    with mp.workprec(mp.prec + CUT_GUARD_BITS):
        ch, sh = mp.cosh(phi_e), mp.sinh(phi_e)
        num = sh * ch * (5 - 2 * ch * ch) / 3 - phi_e
        den = 2 * (phi_e * ch - sh * (2 + ch * ch) / 3)
    if abs(den) < tol * (1 + abs(num)):
        raise ValueError("denominator vanishes at phi_e = %s" % phi_e)
    return num / den


def make_quartic_spec(phi_e) -> CriticalSpec:
    """The nu = 1 quartic critical model at e = 2 cosh(phi_e)."""
    phi_e = mpf(phi_e)
    e = 2 * mp.cosh(phi_e)
    et = quartic_etilde(phi_e)
    Q = Poly([-et, 1])
    V, Tc = build_potential(1, e, Q)
    return CriticalSpec(nu=1, e=e, phi_e=phi_e, Q=Q, e_tilde=et, V=V, Tc=Tc, d=3)


def make_spec(nu: int, e, Q_tilde=None) -> CriticalSpec:
    """Critical model for arbitrary nu from build_critical_Q (Qtilde = 1 default)."""
    if Q_tilde is None:
        Q_tilde = Poly([1])
    e = mpf(e)
    Q, et = build_critical_Q(nu, e, Q_tilde)
    V, Tc = build_potential(nu, e, Q)
    d = Q.degree + 2 * nu
    return CriticalSpec(nu=nu, e=e, phi_e=mp.acosh(e / 2), Q=Q, e_tilde=et,
                        V=V, Tc=Tc, d=d)


def validate_critical(spec: CriticalSpec) -> ValidationReport:
    """Check every defining condition of a critical model; nothing raises."""
    checks = []
    nu, e, Q = spec.nu, spec.e, spec.Q

    def add(name, passed, measured):
        checks.append(ValidationCheck(name, bool(passed), measured))

    d = spec.d
    add("deg Q = d - 2 nu, d odd, d > 2 nu",
        Q.degree == d - 2 * nu and d % 2 == 1 and d > 2 * nu,
        "deg Q = %d, d = %d" % (Q.degree, d))
    add("leading coefficient of Q > 0", Q[Q.degree] > 0, mp.nstr(Q[Q.degree], 8))

    n_mid = count_real_roots(Q, mpf(2), e)
    add("odd number of zeros of Q in (2, e)", n_mid % 2 == 1, "count = %d" % n_mid)

    n_core = count_real_roots(Q, mpf(-2), mpf(2))
    mid_ok = Q(mpf(0)) < 0 and Q(mpf(-2)) < 0 and Q(mpf(2)) < 0
    add("Q < 0 on [-2, 2]", n_core == 0 and mid_ok,
        "roots in (-2,2] = %d, Q(0) = %s" % (n_core, mp.nstr(Q(mpf(0)), 8)))

    add("Q(e) > 0", Q(e) > 0, mp.nstr(Q(e), 8))

    # F(lo, hi) = integral_lo^hi M sqrt(x^2-4) dx, M = Q (x-e)^{2nu-1}.
    # Integrated piecewise between the sign changes of Q, each piece has an
    # integrand of one sign: the pieces sum to the vanishing integral, and
    # their absolute values to its scale integral_2^e |M| sqrt(x^2-4) dx.
    M_factors = _weight_factors(Q, e, nu)
    F = _cut_integral(M_factors)
    cuts = [mpf(2)] + _sign_change_points(Q, mpf(2), e) + [e]
    pieces = [F(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    vanish = mp.fsum(pieces)
    scale = mp.fsum(pieces, absolute=True)
    tol = mpf(10) ** (-mp.dps + 10)
    add("integral_2^e Q (x-e)^{2nu-1} sqrt(x^2-4) dx = 0",
        abs(vanish) <= tol * max(scale, mpf(1)),
        "value = %s (scale %s)" % (mp.nstr(vanish, 6), mp.nstr(scale, 4)))

    # for x < -2: integral_x^{-2} M sqrt(s^2-4) ds = F_mirror(2, -x), the
    # same integral of M(-s)
    F_mirror = _cut_integral([_mirror(f) for f in M_factors])

    # each sample is exact to about 2^-prec of itself (`_cut_integral`); a
    # sample past e also carries the vanishing integral, zero only to a few
    # units of 2^-prec of the scale. So the sign floor is SIGN_FLOOR_UNITS
    # such units, not the vanishing tolerance (at 15 digits that one is 1e-5
    # of the scale, above genuine samples: 4.9e-9 at phi_e = 0.5). For
    # nu = 4, e = 2.2 the scale is 1.5e-9 and the smallest sample 4.9e-32.
    floor = SIGN_FLOOR_UNITS * mp.ldexp(scale, -mp.prec)
    left_pts = [-2 - mpf(10) ** k for k in range(-3, 3)]
    left_vals = [F_mirror(2, -x) for x in left_pts]
    left_ok = all(v > -floor and v != 0 for v in left_vals)
    left_min = min(left_vals)
    add("effective potential rises for x < -2", left_ok and left_min > floor,
        "min sampled integral = %s" % mp.nstr(left_min, 6))

    right_pts = []
    for k in range(-3, 3):
        step = mpf(10) ** k
        if 2 + step < e:
            right_pts.append(2 + step)
        right_pts.append(e + step)
    right_pts += [e - (e - 2) * mpf(10) ** (-k) for k in range(1, 4)]
    right_vals = [F(2, x) for x in right_pts]
    add("effective potential > 0 on (2, inf) away from e",
        all(v > floor for v in right_vals),
        "min sampled integral = %s" % mp.nstr(min(right_vals), 6))

    V2, Tc2 = None, None
    try:
        V2, Tc2 = build_potential(nu, e, Q)
    except ValueError as exc:
        add("V' matches polynomial part of M sqrt(x^2-4)", False, str(exc))
    if V2 is not None:
        dV = spec.Vp() - V2.deriv()
        vscale = max([abs(c) for c in spec.Vp().c] or [mpf(1)])
        v_ok = all(abs(c) <= tol * vscale for c in dV.c) if dV else True
        add("V' matches polynomial part of M sqrt(x^2-4)", v_ok,
            "max coeff dev = %s" % mp.nstr(max([abs(c) for c in dV.c] or [mpf(0)]), 6))
        add("T_c matches residue and is positive",
            Tc2 > 0 and abs(spec.Tc - Tc2) <= tol * max(abs(Tc2), mpf(1)),
            "T_c = %s" % mp.nstr(Tc2, 12))

    add("deg V even with positive leading coefficient",
        spec.V.degree % 2 == 0 and spec.V[spec.V.degree] > 0,
        "deg V = %d, lead = %s" % (spec.V.degree, mp.nstr(spec.V[spec.V.degree], 8)))

    return ValidationReport(checks)
