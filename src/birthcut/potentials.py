"""Construction and validation of critical potentials.

A critical model of order nu places the outer well of the effective potential
exactly at the Fermi level, at x = e = 2 cosh(phi_e) > 2, with the density
vanishing like (x-e)^{2 nu - 1} at criticality. The data is encoded by a
polynomial Q with

    M(x) = (x - e)^{2 nu - 1} Q(x),
    V'(x) = polynomial part at infinity of M(x) sqrt(x^2 - 4),
    T_c   = (1/2) Res_infinity M(x) sqrt(x^2 - 4) dx,

both split exactly, in integers, off the integer series of
sqrt(x^2 - 4)/x (`poly._fixed_series`, `build_potential`),
subject to the sign and vanishing conditions checked by `validate_critical`.
`build_critical_Q` produces a valid Q = (x - e_tilde) Qtilde from any strictly
positive even Qtilde by fixing e_tilde as a ratio of two cut integrals.

Every integral here is of a polynomial times sqrt(x^2 - 4) over an interval
of [2, inf) (for x < -2, of the mirrored polynomial), so it has an exact
antiderivative: in x = 2 cosh(t) the integrand is a cosine polynomial in t
(`_cut_integral`). No quadrature runs; near a high-order zero of M the
antiderivative's terms cancel, and guard bits sized from the measured
cancellation keep the result at working precision. An end at x = 2 (t = 0)
adds nothing and is not evaluated, and the first pass carries enough guard
bits for the usual cancellation, so most integrals take one pass. The
cosine polynomial is expanded exactly in Python integers, the
antiderivative's terms are formed in fixed point and summed exactly, and
the result is rounded once.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, isqrt

from mpmath import mp, mpf
from mpmath.libmp import to_fixed

from .poly import (Poly, _exact, _fixed_series, _fixed_split, _int_product,
                   count_real_roots, isolate_real_roots)
from .quadrature import ConvergenceError

# the step of a `_cut_integral`'s guard bits: its first pass takes twice
# this, later passes add the bits that the measured cancellation costs
CUT_GUARD_BITS = 32
# the sign checks of `validate_critical` need a sample above this many units
# of 2^-prec of the vanishing integral's scale
SIGN_FLOOR_UNITS = 16


@dataclass(frozen=True, eq=False)
class CriticalSpec:
    """A critical potential at its birth-of-a-cut point. Hashed and compared
    by identity: memo keys hold the spec, and hashing every mpf of Q and V
    on each lookup would cost more than the lookup saves."""
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


def _cosh_coefficients(p):
    """c with P(2 cosh t) = c[0] + sum_k c[k] cosh(k t), for P with the
    ascending coefficients p (mpf, or integers for an exact expansion),
    from (2 cosh t)^n = (e^t + e^-t)^n = sum_j binom(n, j) e^{(n - 2j) t}."""
    c = [0] * len(p)
    for n, r in enumerate(p):
        for j in range(n // 2 + 1):
            k = n - 2 * j
            c[k] += r * comb(n, j) * (2 if k else 1)
    return c


def _sinh_terms(x, K):
    """(F, [t, sinh(t), sinh(2t)/2, ..., sinh(K t)/K] 2^F) at x = 2 cosh(t)
    > 2, an mpf: the antiderivatives of 1, cosh(t), ..., cosh(K t) as
    Python integers with F fraction bits.

    F is the working precision plus the bits by which t falls below 1 near
    x = 2, plus 8, so every term carries the working precision relative to
    itself. x, of at most the working precision, is taken exactly,
    2 sinh(t) = isqrt((x - 2)(x + 2)), and t is one mpf asinh. The addition
    formulas add only positive terms, so nothing cancels as t -> 0."""
    F = mp.prec + max(0, -mp.mag(x - 2)) // 2 + 8
    X = to_fixed(x._mpf_, F)                    # 2 cosh(t)
    R = isqrt((X - (2 << F)) * (X + (2 << F)))  # 2 sinh(t)
    out = [to_fixed(mp.asinh(mpf((R, -F - 1)))._mpf_, F)]
    s, c = 0, 1 << F            # sinh(k t), cosh(k t)
    for k in range(1, K + 1):
        s, c = (s * X + c * R) >> (F + 1), (c * X + s * R) >> (F + 1)
        out.append(s // k)
    return F, out


def _cut_integral(factors):
    """The function (lo, hi, mirrored=False) -> integral_lo^hi P(x)
    sqrt(x^2-4) dx for 2 <= lo <= hi, P the product of the Polys `factors`
    (with mirrored=True, of P(-x)), in closed form; ValueError for an end
    below 2.

    x = 2 cosh(t) turns the integrand into P(x)(x^2-4) dt = (c_0 + sum_k c_k
    cosh(k t)) dt, with antiderivative c_0 t + sum_k c_k sinh(k t)/k. An end
    at x = 2 is t = 0, where every term is 0, so it is skipped; an empty
    interval or P = 0 gives 0 at once. The terms can be far larger than
    their sum (near a high-order zero of P, or on a short interval next to
    x = 2), so the antiderivative terms are formed with guard bits:
    2 CUT_GUARD_BITS first, which covers a loss of up to CUT_GUARD_BITS in
    one pass, then again with the bits that the measured cancellation
    sum |terms| / |value| costs, until the guard covers it. A pass whose
    value keeps fewer than CUT_GUARD_BITS/2 bits reads only a lower bound
    on the loss, one that grows with the guard; such passes go on to 4 prec
    guard bits. Past them one more pass is made only where the last one
    measured its loss (its value kept CUT_GUARD_BITS/2 bits), at the
    prec + lost + CUT_GUARD_BITS bits that meet it; otherwise
    ConvergenceError names the interval and the bits lost.

    P and the product A of (x^2 + 4) and the factors with their absolute
    coefficients are expanded exactly, in Python integers over one power
    of 2 (every mpf coefficient is such a ratio), once per closure and
    mirror side, and shared by all intervals and precisions. A's terms
    sum to the scale against which the cancellation is measured. P(-x)
    has the coefficients (-1)^k c_k: c_k collects only x^n with
    n = k mod 2. A pass sums both ends' terms (`_sinh_terms`) against these
    integers exactly, reads the cancellation from the bit lengths of the two
    sums and rounds the value once.
    """
    expansions = {}

    def expansion(mirrored):
        """(S, c 2^S, c_A 2^S), c_A the expansion of A."""
        got = expansions.get(mirrored)
        if got is None:
            if mirrored:
                S, c, ca = expansion(False)
                got = (S, [-v if k % 2 else v for k, v in enumerate(c)], ca)
            else:
                S, P, A = 0, [-4, 0, 1], [4, 0, 1]
                for f in factors:
                    Sf, a = _exact(f)
                    S += Sf
                    P = _int_product(P, a)
                    A = _int_product(A, [abs(v) for v in a])
                got = (S, _cosh_coefficients(P), _cosh_coefficients(A))
            expansions[mirrored] = got
        return got

    def integral(lo, hi, mirrored=False):
        lo, hi = mpf(lo), mpf(hi)
        if lo < 2 or hi < 2:
            raise ValueError("cut integral from %s to %s: need ends >= 2"
                             % (mp.nstr(lo, 8), mp.nstr(hi, 8)))
        S, c, ca = expansion(mirrored)
        if lo == hi or not any(c):
            return mpf(0)
        prec = mp.prec
        guard, followed = 2 * CUT_GUARD_BITS, False
        while True:
            value = mass = F = 0        # the two sums, times 2^(S + F)
            for x, sign in ((hi, 1), (lo, -1)):
                if x == 2:
                    continue
                with mp.workprec(prec + guard):
                    Fx, terms = _sinh_terms(x, len(c) - 1)
                v = sum(ck * T for ck, T in zip(c, terms))
                m = sum(ak * T for ak, T in zip(ca, terms))
                if Fx > F:
                    value, mass, F = value << Fx - F, mass << Fx - F, Fx
                value += sign * v << F - Fx
                mass += m << F - Fx
            lost = (mass.bit_length() - abs(value).bit_length() if value
                    else prec + guard)
            if lost + CUT_GUARD_BITS <= guard:
                return mpf((value, -S - F))
            capped = guard >= 4 * prec
            if capped and (followed or
                           lost + CUT_GUARD_BITS // 2 > prec + guard):
                raise ConvergenceError(
                    "cut integral from %s to %s%s: %d bits lost to "
                    "cancellation at %d guard bits, past the cap of %d" % (
                        mp.nstr(lo, 20), mp.nstr(hi, 20),
                        " (mirrored)" if mirrored else "", lost, guard,
                        4 * prec))
            followed = capped
            guard = CUT_GUARD_BITS * (lost // CUT_GUARD_BITS + 2)

    return integral


def _weight_factors(g: Poly, e, nu):
    """The factors of g(x) (x-e)^{2 nu - 1}, for `_cut_integral`."""
    return [Poly([-e, 1])] * (2 * nu - 1) + [g]


def _sign_change_points(Q: Poly, lo, hi):
    """The zeros of Q in (lo, hi] at which Q changes sign (where |Q| has a
    kink), each refined inside its Sturm bracket by `_bracketed_zero`."""
    if Q.degree <= 0:
        return []
    out = []
    for a, b in isolate_real_roots(Q, lo, hi):
        qb = Q(b)
        if qb == 0:
            out.append(b)
        elif Q(a) * qb <= 0:
            out.append(_bracketed_zero(Q, a, b, qb))
    return out


def _bracketed_zero(Q: Poly, a, b, qb):
    """The zero of Q in [a, b], Q(b) = qb != 0 and Q(a) qb <= 0, at the
    working precision, by safeguarded Newton at 10 guard bits.

    Each step evaluates Q and Q' in one Horner pass (`_value_slope`) and
    narrows the bracket by the sign of Q; a Newton step that leaves the
    bracket is replaced by bisection. Newton converges quadratically once
    near the zero, so a Sturm bracket takes about 6 passes where bisection
    takes prec. Stops at a step below 2^-(prec+2) max(|a|, |b|)."""
    with mp.workprec(mp.prec + 10):
        tol = mp.ldexp(max(abs(a), abs(b)), -mp.prec + 8)
        x = (a + b) / 2
        for _ in range(mp.prec):
            q, dq = _value_slope(Q.c, x)
            if q == 0:
                break
            if q * qb > 0:
                b = x
            else:
                a = x
            step = q / dq if dq else None
            if step is None or not a < x - step < b:
                step = x - (a + b) / 2
            x -= step
            if abs(step) <= tol:
                break
    return +x


def _value_slope(coeffs, x):
    """(p(x), p'(x)) by one Horner pass over p's coefficients, ascending."""
    p = dp = mpf(0)
    for ck in reversed(coeffs):
        dp = dp * x + p
        p = p * x + ck
    return p, dp


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

    Split against sqrt(x^2-4)/x, whose coefficients are integers, the
    polynomial part is V' and T_c = -(1/2) [x^{-1}-coefficient] (the residue
    at infinity of f dx is minus the 1/x coefficient of f). M's
    coefficients are taken exactly as integers over 2^S (`poly._exact`), so
    the split is exact and each coefficient of V' and T_c is rounded once.
    """
    P = Poly([-mpf(e), 1]) ** (2 * nu - 1) * Q
    S, p = _exact(P)
    pol, c = _fixed_split(p, _fixed_series([-4, 0, 1], len(p) + 1, 0,
                                           root=True), -1, 1)
    Vp = Poly([mpf((v, -S)) for v in pol])
    Tc = mpf((-c[1], -S - 1))
    if Tc <= 0:
        raise ValueError("residue gives non-positive T_c = %s" % Tc)
    return Vp.antideriv(0), Tc


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
    """Check every defining condition of a critical model. A failed check
    is reported, not raised; only a cut integral whose cancellation passes
    its guard cap raises ConvergenceError (`_cut_integral`; no spec tested
    reaches it)."""
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

    # each sample is exact to about 2^-prec of itself (`_cut_integral`); a
    # sample past e also carries the vanishing integral, zero only to a few
    # units of 2^-prec of the scale. So the sign floor is SIGN_FLOOR_UNITS
    # such units, not the vanishing tolerance (at 15 digits that one is 1e-5
    # of the scale, above genuine samples: 4.9e-9 at phi_e = 0.5). For
    # nu = 4, e = 2.2 the scale is 1.5e-9 and the smallest sample 4.9e-32.
    # The spec's coefficients are themselves rounded, each Q_j by up to
    # 2^-prec |Q_j|, which moves the vanishing integral by up to that times
    # integral_2^e x^j |x - e|^{2nu-1} sqrt(x^2-4) dx; the floor adds that
    # sum (one cut integral, x^j > 0 on (2, e)). At nu = 5, e = 2.1 and 15
    # digits the vanishing integral is -7.6e-29, the units' floor 2.3e-29
    # and this term 7.7e-28.
    rounding = Poly([mp.ldexp(abs(c), -mp.prec) for c in Q.c])
    floor = SIGN_FLOOR_UNITS * mp.ldexp(scale, -mp.prec) \
        - _cut_integral(_weight_factors(rounding, e, nu))(2, e)
    # for x < -2: integral_x^{-2} M sqrt(s^2-4) ds = F(2, -x, mirrored=True),
    # the same integral of M(-s)
    left_pts = [-2 - mpf(10) ** k for k in range(-3, 3)]
    left_vals = [F(2, -x, mirrored=True) for x in left_pts]
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
    # a sample next to e is the vanishing integral plus O(|x - e|^{2 nu}),
    # which can be below the floor (1.9e-26 at e + 1e-3 for nu = 4, e = 2.2,
    # against a floor of 2.7e-24 at 15 digits). A sample within the floor of
    # zero has an undecidable sign, not a violation; one below -floor fails.
    decided = [v for v in right_vals if abs(v) > floor]
    undecided = len(right_vals) - len(decided)
    measured = "min sampled integral = %s" % mp.nstr(
        min(decided or right_vals), 6)
    if undecided:
        measured += "; %d undecidable within %s" % (
            undecided, mp.nstr(floor, 3))
    add("effective potential > 0 on (2, inf) away from e",
        decided and min(decided) > 0, measured)

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
