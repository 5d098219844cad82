from fractions import Fraction

import mpmath
import pytest
from mpmath import mp, mpf
from mpmath.libmp import from_rational, round_nearest

from birthcut import potentials, quadrature
from birthcut.poly import Poly, isolate_real_roots
from birthcut.potentials import (CUT_GUARD_BITS, _cosh_coefficients,
                                 _cut_integral, _sinh_terms, _weight_factors,
                                 build_critical_Q, build_potential,
                                 make_quartic_spec, make_spec, quartic_etilde,
                                 validate_critical)
from birthcut.kvio import spec_from_kv, spec_to_kv
from conftest import quartic, spec_nu


def quad_etilde_oracle(phi_e):
    """Independent adaptive-quadrature ratio for the quartic e_tilde."""
    e = 2 * mp.cosh(mpf(phi_e))
    f = lambda x, k: x ** k * (x - e) * mp.sqrt(x * x - 4)
    return mpmath.quad(lambda x: f(x, 1), [2, e]) / mpmath.quad(lambda x: f(x, 0), [2, e])


def test_quartic_closed_form_against_quadrature():
    for phi in ("0.5", "1.0", "1.5"):
        closed = quartic_etilde(mpf(phi))
        ratio = quad_etilde_oracle(phi)
        assert abs(closed - ratio) / ratio < mpf("1e-25")
        e = 2 * mp.cosh(mpf(phi))
        assert 2 < closed < e


def test_quartic_potential_coefficients():
    # V' = x^3 - (e+et) x^2 + (e et - 2) x + 2 (e+et),  T_c = 1 + e et
    spec = quartic("1.0")
    e, et = spec.e, spec.e_tilde
    expect = Poly([2 * (e + et), e * et - 2, -(e + et), 1])
    dv = spec.Vp() - expect
    assert all(abs(c) < mpf("1e-30") for c in dv.c)
    assert abs(spec.Tc - (1 + e * et)) < mpf("1e-30")


def test_formal_specialization_e_zero():
    # e = e_tilde = 0 collapses the coefficients to V' = x^3 - 2x, T_c = 1
    V, Tc = build_potential(1, 0, Poly([0, 1]))
    assert all(abs(c) < mpf("1e-30") for c in (V.deriv() - Poly([0, -2, 0, 1])).c)
    assert abs(Tc - 1) < mpf("1e-30")


def test_build_critical_q_matches_closed_form():
    spec = quartic("1.0")
    Q, et = build_critical_Q(1, spec.e, Poly([1]))
    assert abs(et - spec.e_tilde) / spec.e_tilde < mpf("1e-10")
    assert 2 < et < mpf("3.0862")  # e = 2 cosh 1 = 3.08616...


@pytest.mark.parametrize("phi", ["0.2", "0.7", "1.3", "2.0"])
def test_closed_form_family_agreement(phi):
    e = 2 * mp.cosh(mpf(phi))
    _, et = build_critical_Q(1, e, Poly([1]))
    assert abs(et - quartic_etilde(mpf(phi))) / et < mpf("1e-10")


def test_etilde_inside_interval_for_generic_qtilde():
    # positive-definite even Qtilde with no real zeros
    e = mpf("2.9")
    for Qt in (Poly([1]), Poly([2, 0, 1]), Poly([1, 1, 1]), Poly([5, -2, 0, 0, 3])):
        Q, et = build_critical_Q(2, e, Qt)
        assert 2 < et < e
        assert Q.degree == Qt.degree + 1


def test_build_critical_q_rejects_bad_qtilde():
    with pytest.raises(ValueError):
        build_critical_Q(1, mpf("2.5"), Poly([0, 1]))           # odd degree
    with pytest.raises(ValueError):
        build_critical_Q(1, mpf("2.5"), Poly([-1, 0, 1]))        # real zeros
    with pytest.raises(ValueError):
        build_critical_Q(1, mpf("1.5"), Poly([1]))               # e <= 2


def test_nu2_potential_degree_and_residue():
    # d = 2 nu + 1 = 5: deg V = 6, deg V' = 5 (the V' degree equals d);
    # residue cross-checked on a large circle with the principal branch
    spec = spec_nu(2, "2.6")
    assert spec.d == 5
    assert spec.V.degree == 6
    assert spec.Vp().degree == 5
    assert spec.Tc > 0
    P = spec.M_critical()
    R = mpf(50)

    def f(th):
        z = R * mpmath.exp(1j * th)
        return P(z) * z * mpmath.sqrt(1 - 4 / (z * z)) * 1j * z / (2j * mp.pi)

    c_m1 = mpmath.quad(f, [0, 2 * mp.pi]).real
    assert abs(-c_m1 / 2 - spec.Tc) / spec.Tc < mpf("1e-20")


# (nu, e) of the critical models with Q_tilde = 1 whose V and T_c are checked
# bit for bit, at nu = 1..5
POTENTIAL_SPECS = [(1, "2.6"), (2, "2.6"), (3, "2.3"), (4, "2.2"), (5, "2.1"),
                   (1, "2.1"), (1, "5.0"), (2, "2.2"), (2, "5.0"), (3, "2.6"),
                   (3, "5.0"), (4, "3.0"), (5, "2.6")]


def _binomial_potential(nu, e, Q):
    """V and T_c from the binomial series sqrt(x^2-4) =
    x sum_k binom(1/2, k) (-4)^k x^{-2k}, summed term by term."""
    P = Poly([-e, 1]) ** (2 * nu - 1) * Q
    nterms = P.degree // 2 + 3
    b = [mpf(1)]
    for k in range(nterms):
        b.append(b[-1] * (mpf(1) / 2 - k) / (k + 1))
    Vp = [mpf(0)] * (P.degree + 2)
    c_m1 = mpf(0)
    for k in range(nterms + 1):
        coef = b[k] * (-4) ** k
        for m in range(P.degree + 2 - 2 * k):
            Vp[m] += coef * P[m - 1 + 2 * k]
        if 0 <= 2 * k - 2 <= P.degree:
            c_m1 += coef * P[2 * k - 2]
    return Poly(Vp).antideriv(0), -c_m1 / 2


def _exact_potential(nu, e, Q):
    """V and T_c from the exact rational binomial series: P's mpf
    coefficients as fractions times sqrt(x^2-4) = x sum_k binom(1/2, k)
    (-4)^k x^{-2k}, each coefficient of V' and T_c rounded once."""
    def exact(v):
        sign, man, exp, _ = v._mpf_
        return (-1) ** sign * man * Fraction(2) ** exp

    def rounded(q):
        return mp.make_mpf(from_rational(q.numerator, q.denominator,
                                         mp.prec, round_nearest))

    P = [exact(v) for v in (Poly([-e, 1]) ** (2 * nu - 1) * Q).c]
    b = [Fraction(1)]
    for k in range(len(P) // 2 + 1):
        b.append(b[-1] * (Fraction(1, 2) - k) / (k + 1) * -4)
    # P(x) x sum_k b_k x^{-2k}: P_i b_k lands at x^{i + 1 - 2k}
    Vp = [sum(b[k] * P[i] for i in range(len(P)) for k in range(len(b))
              if i + 1 - 2 * k == m) for m in range(len(P) + 1)]
    c_m1 = sum(b[k] * P[2 * k - 2] for k in range(1, len(b))
               if 2 * k - 2 < len(P))
    return Poly([rounded(v) for v in Vp]).antideriv(0), rounded(-c_m1 / 2)


@pytest.mark.parametrize("nu, e", POTENTIAL_SPECS)
def test_build_potential_matches_binomial_series_bit_for_bit(nu, e):
    # the exact integer split of `build_potential` rounds each coefficient
    # of V' and T_c once, as the exact rational series does, at 15 to 60
    # digits (a split summed in mpf missed by one unit in one coefficient
    # in 24 of these 65 cases, all at nu >= 3)
    for dps in (15, 20, 30, 40, 60):
        with mp.workdps(dps):
            spec = make_spec(nu, mpf(e))
            assert (spec.V, spec.Tc) == _exact_potential(nu, spec.e, spec.Q), \
                dps


def test_quartic_spec_matches_binomial_series_bit_for_bit():
    for phi in ("0.5", "1.0", "1.5"):
        spec = quartic(phi)
        assert (spec.V, spec.Tc) == _binomial_potential(1, spec.e, spec.Q)


def test_validate_critical_passes_on_valid_specs():
    for s in (quartic("1.0"), spec_nu(2, "2.6"), spec_nu(4, "2.2")):
        report = validate_critical(s)
        assert report.ok, "\n" + str(report)


def _bisected_zero(Q, a, b, qb):
    """The sign change of Q in the Sturm bracket [a, b] by mp.prec
    bisections, the upper end of the last bracket: the earlier route of
    `_sign_change_points`."""
    for _ in range(mp.prec):
        m = (a + b) / 2
        if Q(m) * qb > 0:
            b = m
        else:
            a = m
    return b


@pytest.mark.parametrize("nu,e,Q_tilde", [
    (2, "2.6", None), (3, "5.0", None), (4, "2.2", None), (5, "2.1", None),
    (2, "5.0", (2, 0, 1))])
def test_sign_change_points_by_safeguarded_newton(monkeypatch, nu, e, Q_tilde):
    # each sign change of Q in (2, e] costs at most 12 evaluations of Q (or
    # of Q with Q', one Horner pass) and lands within 2 ulps of the
    # bisection's point, the upper end of a bracket that bisection narrows
    # to an ulp or two; a nonlinear Q takes Newton steps of its own
    spec = make_spec(nu, mpf(e), None if Q_tilde is None else Poly(Q_tilde))
    Q = spec.Q
    brackets = [(a, b) for a, b in isolate_real_roots(Q, mpf(2), spec.e)
                if Q(a) * Q(b) <= 0]
    calls = []
    plain, slope = Poly.__call__, potentials._value_slope
    monkeypatch.setattr(Poly, "__call__",
                        lambda p, x: calls.append(1) or plain(p, x))
    monkeypatch.setattr(potentials, "_value_slope",
                        lambda c, x: calls.append(1) or slope(c, x))
    zeros = potentials._sign_change_points(Q, mpf(2), spec.e)
    monkeypatch.undo()
    assert len(zeros) == len(brackets) >= 1
    assert len(calls) <= 12 * len(zeros)
    for x, (a, b) in zip(zeros, brackets):
        ref = _bisected_zero(Q, a, b, Q(b))
        assert abs(x - ref) <= 2 * mp.ldexp(1, mp.mag(ref) - mp.prec), (x, ref)


def test_validate_flags_sign_violation():
    spec = quartic("1.0")
    # push e_tilde beyond e: Q(e) < 0 and the vanishing integral breaks
    bad = type(spec)(nu=1, e=spec.e, phi_e=spec.phi_e,
                     Q=Poly([-(spec.e + mpf("0.3")), 1]),
                     e_tilde=spec.e + mpf("0.3"), V=spec.V, Tc=spec.Tc, d=3)
    report = validate_critical(bad)
    failed = {c.name for c in report.failed()}
    assert any("Q(e) > 0" in name for name in failed)


def test_validate_flags_negative_samples_past_e():
    # e_tilde pulled below its critical value: the integral up to e is
    # negative, and so are the samples next to e, far beyond the sign floor
    spec = quartic("1.0")
    bad = type(spec)(nu=1, e=spec.e, phi_e=spec.phi_e,
                     Q=Poly([-(spec.e_tilde - mpf("0.1")), 1]),
                     e_tilde=spec.e_tilde - mpf("0.1"), V=spec.V, Tc=spec.Tc, d=3)
    report = validate_critical(bad)
    failed = {c.name for c in report.failed()}
    assert "effective potential > 0 on (2, inf) away from e" in failed
    assert "undecidable" not in str(report)


def test_validate_flags_negative_samples_within_vanishing_tolerance():
    # at 15 digits the vanishing check accepts an integral up to e of 1e-5;
    # e_tilde lowered so that it is -1e-12 passes that check, but the
    # samples next to e are as negative, far below the sign floor (2.7e-24)
    with mp.workdps(15):
        spec = make_spec(4, "2.2")
        slope = _cut_integral(_weight_factors(Poly([1]), spec.e, 4))(2, spec.e)
        et = spec.e_tilde + mpf("1e-12") / slope
        bad = type(spec)(nu=4, e=spec.e, phi_e=spec.phi_e, Q=Poly([-et, 1]),
                         e_tilde=et, V=spec.V, Tc=spec.Tc, d=spec.d)
        checks = {c.name: c for c in validate_critical(bad).checks}
    assert checks["integral_2^e Q (x-e)^{2nu-1} sqrt(x^2-4) dx = 0"].passed
    assert "value = -1.0e-12" in \
        checks["integral_2^e Q (x-e)^{2nu-1} sqrt(x^2-4) dx = 0"].measured
    assert not checks["effective potential > 0 on (2, inf) away from e"].passed


def test_validate_flags_forced_vanishing_violation():
    spec = quartic("1.0")
    bad = type(spec)(nu=1, e=spec.e, phi_e=spec.phi_e,
                     Q=Poly([-(spec.e_tilde + mpf("0.1")), 1]),
                     e_tilde=spec.e_tilde + mpf("0.1"), V=spec.V, Tc=spec.Tc, d=3)
    report = validate_critical(bad)
    failed = {c.name for c in report.failed()}
    assert any("sqrt(x^2-4) dx = 0" in name for name in failed)


def test_spec_kv_roundtrip():
    spec = quartic("0.8")
    text = spec_to_kv(spec)
    back = spec_from_kv(text)
    assert back.nu == spec.nu
    assert abs(back.e - spec.e) < mpf("1e-28")
    assert abs(back.Tc - spec.Tc) < mpf("1e-28")
    assert all(abs(a - b) < mpf("1e-28") for a, b in zip(back.V.c, spec.V.c))


def test_spec_hashes_and_compares_by_identity():
    # memo keys hold the spec: a lookup must not hash every mpf of Q and V
    a, b = make_quartic_spec(mpf("0.8")), make_quartic_spec(mpf("0.8"))
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)


@pytest.mark.parametrize("nu, e, Q_tilde", [
    (1, "2.6", None), (2, "2.6", None), (3, "2.3", None), (4, "2.2", None),
    (2, "2.6", (5, -2, 0, 0, 3))])
def test_cut_integrals_match_quadrature(nu, e, Q_tilde):
    # integral_2^x M(+-s) sqrt(s^2-4) ds in closed form against mpmath.quad
    # at 90 digits, on the same binary inputs; near e the integral is
    # O((x-e)^{2nu+1}) while its antiderivative terms are O(1)
    spec = make_spec(nu, mpf(e), Poly(Q_tilde) if Q_tilde else None)
    e = spec.e
    factors = _weight_factors(spec.Q, e, nu)
    xs = [2 + mpf("1e-3"), (2 + e) / 2, e - mpf("1e-3"), e + mpf("1e-3"),
          e + 1, e + 100]
    F = _cut_integral(factors)
    for mirrored in (False, True):
        for x in xs:
            got = F(2, x, mirrored)
            with mp.workdps(90):
                M = lambda s: mp.fprod(f(-s if mirrored else s)
                                       for f in factors)
                pts = [mpf(2)] + ([e] if e < x else []) + [x]
                ref = mpmath.quad(lambda s: M(s) * mp.sqrt((s - 2) * (s + 2)),
                                  pts)
                assert abs(got - ref) <= mpf("1e-36") * abs(ref), (nu, x)


def test_cut_integral_of_zero_and_empty_interval(monkeypatch):
    # both are 0 at once, before any antiderivative term is formed
    ends = []

    def counted(x, K):
        ends.append(x)
        return _sinh_terms(x, K)

    monkeypatch.setattr(potentials, "_sinh_terms", counted)
    x = mpf("2.5")
    assert _cut_integral([Poly()])(2, x) == 0
    assert _cut_integral([Poly([1]), Poly()])(x, 2 * x, mirrored=True) == 0
    assert _cut_integral([Poly([1])])(x, x) == 0
    assert _cut_integral([Poly([-3, 1])])(x, x, mirrored=True) == 0
    assert ends == []


def test_cut_integral_rejects_an_end_below_two():
    # below x = 2, sqrt(x^2 - 4) is imaginary (or, past -2, belongs to the
    # mirrored integral): an end there is outside the closed form
    F = _cut_integral(_weight_factors(Poly([1]), mpf("2.6"), 1))
    for lo, hi in ((2, mpf("1.6")), (2, mpf("-7.4")), (mpf("1.99"), 3),
                   (mpf("-3"), mpf("-2"))):
        with pytest.raises(ValueError):
            F(lo, hi)
        with pytest.raises(ValueError):
            F(lo, hi, mirrored=True)
    assert F(2, 2) == 0 and F(2, mpf("2.6")) < 0


def test_cut_integral_past_its_guard_cap_raises():
    # at 15 digits, nu = 5, e = 2.1, F(e - 1e-8, e + 1e-8) is 1.68e-89
    # (mpmath.quad at 150 digits) against antiderivative terms of size 1:
    # the cancellation passes the cap of 4 prec guard bits, where the last
    # pass read -3.6e-89, so the integral raises, naming its interval and
    # the bits lost; the same interval at 40 digits is within the cap
    with mp.workdps(15):
        spec = make_spec(5, mpf("2.1"))
        e, d = spec.e, mpf("1e-8")
        F = _cut_integral(_weight_factors(spec.Q, e, 5))
        with pytest.raises(quadrature.ConvergenceError,
                           match=r"from 2\.09999999.* to 2\.10000001.*: "
                                 r"\d+ bits lost"):
            F(e - d, e + d)
    with mp.workdps(40):
        got = F(e - d, e + d)
    with mp.workdps(150):
        M = lambda s: mp.fprod(f(s) for f in _weight_factors(spec.Q, e, 5))
        ref = mpmath.quad(lambda s: M(s) * mp.sqrt((s - 2) * (s + 2)),
                          [e - d, e, e + d])
    assert mpf("1e-89") < ref < mpf("2e-89")
    assert abs(got - ref) <= mpf("1e-30") * ref


def test_cut_integral_follows_a_measured_loss_past_the_cap():
    # at 15 digits, nu = 5, e = 2.1, F(e - 1e-7, e + 1e-7) loses 281 bits:
    # the pass at 256 guard bits, past the cap of 4 prec = 212, measures
    # that loss with 28 bits of the value left, and one more pass at 320
    # gives the value. The reference is mpmath.quad at 150 digits over the
    # same binary ends; over e -+ 1e-7 formed at 150 digits the integral is
    # 1.6826586201e-78, 1.8e-8 away, as the ends round at 15 digits
    with mp.workdps(15):
        spec = make_spec(5, mpf("2.1"))
        e, d = spec.e, mpf("1e-7")
        lo, hi = e - d, e + d
        got = _cut_integral(_weight_factors(spec.Q, e, 5))(lo, hi)
    with mp.workdps(150):
        M = lambda s: mp.fprod(f(s) for f in _weight_factors(spec.Q, e, 5))
        ref = mpmath.quad(lambda s: M(s) * mp.sqrt((s - 2) * (s + 2)),
                          [lo, e, hi])
    assert abs(ref - mpf("1.6826585898e-78")) < mpf("1e-88")
    assert abs(got - ref) <= mpf("1e-13") * ref


def mpf_sinh_terms(x, K):
    """[t, sinh(t), sinh(2t)/2, ..., sinh(K t)/K] at x = 2 cosh(t) >= 2 in
    mpf at the working precision, by the same addition formulas."""
    s1 = mp.sqrt((x - 2) * (x + 2)) / 2
    c1 = x / 2
    out = [mp.asinh(s1)]
    s, c = mpf(0), mpf(1)       # sinh(k t), cosh(k t)
    for k in range(1, K + 1):
        s, c = s * c1 + c * s1, c * c1 + s * s1
        out.append(s / k)
    return out


def two_pass_cut_integral(factors):
    """Each integral in full and in mpf: both ends evaluated, x = 2 too,
    the first pass at CUT_GUARD_BITS, the mirrored integral from mirrored
    factors and nothing cached. The reference for `_cut_integral`."""
    def integral(lo, hi, mirrored=False):
        side = factors
        if mirrored:
            side = [Poly([-a if k % 2 else a for k, a in enumerate(f.c)])
                    for f in factors]
        prec = mp.prec
        guard = CUT_GUARD_BITS
        while True:
            with mp.workprec(prec + guard):
                P, A = Poly([-4, 0, 1]), Poly([4, 0, 1])
                for f in side:
                    P = P * f
                    A = A * Poly([abs(a) for a in f.c])
                c, ca = _cosh_coefficients(P.c), _cosh_coefficients(A.c)
                value = mass = mpf(0)
                for x, sign in ((mpf(hi), 1), (mpf(lo), -1)):
                    for ck, ak, T in zip(c, ca, mpf_sinh_terms(x, len(c) - 1)):
                        value += sign * ck * T
                        mass += ak * T
            lost = mp.mag(mass) - mp.mag(value) if value else prec + guard
            if lost + CUT_GUARD_BITS <= guard or guard >= 4 * prec:
                return +value
            guard = CUT_GUARD_BITS * (lost // CUT_GUARD_BITS + 2)
    return integral


@pytest.mark.parametrize("dps", [15, 40])
@pytest.mark.parametrize("nu, e", [(1, "2.6"), (2, "2.6"), (4, "2.2")])
def test_cut_integral_equals_the_two_pass_loop(nu, e, dps):
    # the one-pass integer form with no t = 0 end, bit for bit, on
    # intervals from x = 2, next to e (where up to 2 nu + 1 orders cancel)
    # and inside (2, e); an end below 2 (e - 1, e - 10, e - 100) raises
    with mp.workdps(dps):
        spec = make_spec(nu, mpf(e))
        e = spec.e
        factors = _weight_factors(spec.Q, e, nu)
        F, ref = _cut_integral(factors), two_pass_cut_integral(factors)
        xs = [2 + mpf(10) ** k for k in range(-6, 0)] + [(2 + e) / 2, e] \
            + [e + s * mpf(10) ** k for k in range(-6, 3) for s in (-1, 1)]
        for mirrored in (False, True):
            for x in xs:
                if x < 2:
                    with pytest.raises(ValueError):
                        F(2, x, mirrored)
                    continue
                assert F(2, x, mirrored) == ref(2, x, mirrored), (x, mirrored)
        for lo, hi in ((2 + mpf("0.01"), e), ((2 + e) / 2, e + 1),
                       (e - mpf("1e-3"), e + mpf("1e-3"))):
            assert F(lo, hi) == ref(lo, hi), (lo, hi)


def test_validate_nu2_makes_no_sinh_terms_call_at_two(monkeypatch):
    # a t = 0 end is skipped, and a cancellation of up to CUT_GUARD_BITS
    # takes one pass: 28 sets of antiderivative terms, where evaluating
    # x = 2 and starting at CUT_GUARD_BITS took 86
    ends = []

    def counted(x, K):
        ends.append(x)
        return _sinh_terms(x, K)

    monkeypatch.setattr(potentials, "_sinh_terms", counted)
    with mp.workdps(40):
        assert validate_critical(make_spec(2, mpf("2.6"))).ok
    assert 2 not in ends
    assert len(ends) <= 28


def test_critical_spec_runs_no_adaptive_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("adaptive quadrature in a critical potential")

    monkeypatch.setattr(quadrature, "integrate_doubling", refuse)
    monkeypatch.setattr(quadrature, "_refine", refuse)
    Q, et = build_critical_Q(3, mpf("2.3"), Poly([1, 0, 1]))
    assert 2 < et < mpf("2.3")
    spec = make_spec(2, mpf("2.6"))
    assert validate_critical(spec).ok
