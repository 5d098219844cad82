"""Equilibrium-measure solvers against closed forms and cross-route identities."""

import dataclasses

import mpmath
import pytest
from mpmath import mp, mpc, mpf
from mpmath.libmp import to_fixed

from birthcut import equilibrium, kvio, quadrature
from birthcut.equilibrium import (ConvergenceError, PhaseError,
                                  classical_gamma_beta, effective_potential,
                                  gamma_two_cut, joukowski_lambda,
                                  lambda_two_cut, measure_gamma,
                                  normalization, solve_one_cut,
                                  solve_two_cut, thermo_derivatives,
                                  veff_const_bs)
from birthcut.poly import Poly, _fixed_deflate, _fixed_monic, monic_from_roots
from birthcut.quadrature import integrate_bracket, integrate_doubling
from birthcut.critical import one_cut_drift, two_cut_guess
from birthcut.potentials import make_quartic_spec, make_spec
from conftest import (cut_system_reference, gamma_jtheta, lambda_jtheta,
                      laurent_split, lu_solve_reference, quartic, sn_cn_dn,
                      spec_nu, sqrt_sigma_tail, u_direct)


def gamma_from_lambda_limit(mu, x=None):
    """gamma as x/Lambda(x) of a two-cut measure at large finite x (O(1/x)
    away from the limit): the numeric limit that checks `gamma_two_cut`."""
    if x is None:
        x = mpf(10) ** 9 * max(abs(v) for v in mu.endpoints)
    return mpf(x) / lambda_two_cut(mu, mpf(x))


def test_gaussian_semicircle():
    mu = solve_one_cut(Poly([0, 0, mpf(1) / 2]), 1, guess=(-1.7, 2.4))
    a, b = mu.endpoints
    assert abs(a + 2) < mpf("1e-30")
    assert abs(b - 2) < mpf("1e-30")
    assert mu.M.degree == 0 and abs(mu.M[0] - 1) < mpf("1e-30")
    assert abs(normalization(mu) - 1) < mpf("1e-25")


def test_critical_spec_at_tc_is_degenerate_one_cut():
    spec = quartic("1.0")
    mu = solve_one_cut(spec.V, spec.Tc, guess=(-2.05, 1.95))
    a, b = mu.endpoints
    assert abs(a + 2) < mpf("1e-28") and abs(b - 2) < mpf("1e-28")
    dM = mu.M - spec.M_critical()
    assert all(abs(c) < mpf("1e-28") for c in dM.c)
    # M has a root of multiplicity exactly 2 nu - 1 = 1 at e
    assert abs(mu.M(spec.e)) < mpf("1e-25")
    assert abs(mu.M.deriv()(spec.e)) > mpf("0.1")


def test_nu2_critical_root_multiplicity():
    # at the nu = 2 degenerate point the basin of the physical root is thin,
    # so the caller supplies the critical endpoints themselves as the guess
    spec = spec_nu(2, "2.6")
    mu = solve_one_cut(spec.V, spec.Tc, guess=(-2, 2))
    M = mu.M
    vals = [abs(M(spec.e)), abs(M.deriv()(spec.e)), abs(M.deriv().deriv()(spec.e))]
    assert all(v < mpf("1e-22") for v in vals)       # triple root at e
    third = M.deriv().deriv().deriv()(spec.e)
    assert abs(third) > mpf("0.01")


def test_nu2_off_guess_lands_on_wide_root_and_is_rejected():
    # the same conditions have a wide-cut root with negative density; the
    # solver must refuse it rather than return it
    spec = spec_nu(2, "2.6")
    with pytest.raises((PhaseError, ConvergenceError)):
        solve_one_cut(spec.V, spec.Tc, guess=(-2.02, 1.98))


def test_one_cut_drift_matches_solver_slopes():
    spec = quartic("1.0")
    t = -mpf("1e-5") * spec.Tc
    mu = solve_one_cut(spec.V, spec.Tc + t, guess=(-2, 2))
    drift = one_cut_drift(spec, t)
    a, b = mu.endpoints
    assert abs(a - drift["a"]) < mpf("3e-2") * abs(t)
    assert abs(b - drift["b"]) < mpf("3e-2") * abs(t)
    # the cut shrinks: Q(2) < 0 and Q(-2) < 0
    assert a > -2 and b < 2


def test_one_cut_rejects_negative_density_phase():
    # deep symmetric double well forced into one cut: M < 0 in the middle
    V = Poly([0, 0, -1, 0, mpf(1) / 4])
    with pytest.raises((PhaseError, ConvergenceError)):
        solve_one_cut(V, mpf("0.1"), guess=(-2.2, 2.2))


def test_symmetric_double_well():
    V = Poly([0, 0, -1, 0, mpf(1) / 4])
    mu = solve_two_cut(V, mpf("0.1"), guess=(-2.2, -1.6, 1.6, 2.2))
    a, b, c, d = mu.endpoints
    assert abs(a + d) < mpf("1e-28") and abs(b + c) < mpf("1e-28")
    assert abs(mu.x0) < mpf("1e-25")
    assert abs(normalization(mu) - 1) < mpf("1e-20")
    th = thermo_derivatives(mu)
    assert abs(th["dT_dT_trace"]) < mpf("1e-25")


def test_two_cut_near_critical_objects():
    spec = quartic("1.0")
    t = mpf("1e-4") * spec.Tc
    mu = solve_two_cut(spec.V, spec.Tc + t, guess=two_cut_guess(spec, t))
    a, b, c, d = mu.endpoints
    assert a < b < c < d
    assert abs(normalization(mu) - 1) < mpf("1e-20")
    # x0 makes the gap period of Omega vanish (independent quadrature)
    val = integrate_bracket(
        lambda x: (x - mu.x0) / mp.sqrt((x - a) * (d - x)), b, c)
    scale = integrate_bracket(
        lambda x: (abs(x) + abs(mu.x0)) / mp.sqrt((x - a) * (d - x)), b, c)
    assert abs(val) < mpf("1e-12") * scale
    # u_inf satisfies the sn identity
    sn, cn, dn = sn_cn_dn(mpc(0, mu.F_inf), mu.m)
    assert abs(sn - mp.mpc(0, 1) * mp.sqrt((d - b) / (b - a))) < mpf("1e-25")
    assert abs(cn - mp.sqrt((d - a) / (b - a))) < mpf("1e-25")
    assert abs(dn - mp.sqrt((d - a) / (c - a))) < mpf("1e-25")
    # biratio matches its leading-order law within the slow-log band
    from birthcut.critical import newborn_scaling
    ns = newborn_scaling(spec, t)
    assert abs(mu.m - ns.m_asym) / ns.m_asym < mpf("0.35")


def test_gap_period_bracket_converges_in_few_doublings():
    # the x0 gap period vanishes; running to max_n = 4096 would cost
    # 4096 + 1 evaluations
    spec = quartic("1.0")
    t = mpf("1e-4") * spec.Tc
    mu = solve_two_cut(spec.V, spec.Tc + t, guess=two_cut_guess(spec, t))
    a, b, c, d = mu.endpoints
    calls = [0]

    def f(x):
        calls[0] += 1
        return (x - mu.x0) / mp.sqrt((x - a) * (d - x))

    assert abs(integrate_bracket(f, b, c)) < mpf("1e-30")
    assert calls[0] <= 32 * (1 + 2 + 4 + 8)


def _fixed_sigma(ends):
    """(W, X, S): the width `_cut_system` takes at these endpoints, the
    endpoints and the coefficients of their sigma over 2^W."""
    W = mp.prec + equilibrium.GAP_GUARD_BITS
    if len(ends) == 4:
        W += equilibrium._narrow_bits(ends)
    X = [to_fixed(mpf(v)._mpf_, W) for v in ends]
    return W, X, _fixed_monic(X, W)


def test_gap_moments_match_bracket_quadrature():
    # the closed-form gap condition sum_k p_k I_k against the cosine-rule
    # quadrature of M sqrt(sigma) at 50 digits, as the new cut shrinks
    # ((d-c)/(c-b) from 0.17 down to 0.0034)
    spec = quartic("1.0")
    for that in ("1e-3", "1e-4", "1e-5", "1e-6"):
        ends = two_cut_guess(spec, mpf(that) * spec.Tc)
        a, b, c, d = ends
        r, _, M = equilibrium._cut_system(spec.V.deriv(), spec.Tc, list(ends))
        gap = r[3]
        W, X, S = _fixed_sigma(ends)
        with mp.workprec(W):
            P = M * monic_from_roots(ends)
            I = [mp.ldexp(v, -W) for v in equilibrium._gap_moments(
                X, S, len(P), W)]
            scale = mp.fsum((p * Ik for p, Ik in zip(P.c, I)), absolute=True)
        with mp.workdps(50):
            ref = integrate_bracket(
                lambda x: M(x) * mp.sqrt((x - a) * (d - x)) * (x - b) * (c - x),
                b, c, max_n=2 ** 13)
        assert abs(gap - ref) <= mpf("1e-35") * scale, that


def _endpoint_sets():
    """Three two-cut endpoint sets: the guesses at phi_e = 1.0, t/T_c = 1e-3
    and 1e-6, and at phi_e = 0.62, t/T_c = 1e-4."""
    for phi_e, that in (("1.0", "1e-3"), ("1.0", "1e-6"), ("0.62", "1e-4")):
        spec = quartic(phi_e)
        yield spec, list(two_cut_guess(spec, mpf(that) * spec.Tc))


@pytest.mark.parametrize("s", [1, 2])
def test_moments_equal_a_long_tail_split(s):
    # the cut system expands V'/sqrt(sigma) only to the c_{s+1} it reads;
    # a tail six terms longer, split to c_6 in mpf at 80 digits, gives the
    # same M to 2^-(prec-8) relative and c_1..c_{s+1} (the residual at
    # T = 0) to 2^-(prec-4)
    for spec, ends in _endpoint_sets():
        ends = ends if s == 2 else ends[:2]
        Vp = spec.V.deriv()
        r, _, M = equilibrium._cut_system(Vp, mpf(0), ends)
        prec = mp.prec
        with mp.workdps(80):
            tail = sqrt_sigma_tail(monic_from_roots(ends), 6 + Vp.degree + s,
                                   alpha=-mpf(1) / 2)
            M_ref, c_ref = laurent_split(Vp, tail, s, 6)
            assert len(M) == len(M_ref)
            assert all(abs(u - v) <= mp.ldexp(abs(v), 8 - prec)
                       for u, v in zip(M.c, M_ref.c))
            assert all(abs(u - v) <= mp.ldexp(1, 4 - prec)
                       for u, v in zip(r[:s + 1], c_ref[1:s + 2]))


def test_gap_row_cofactors_by_synthetic_division():
    # sigma/(x - e_i) by deflation against the product of the other three
    # factors, in the gap row's fixed point: within 16 units of 2^-W of
    # the cofactor's largest coefficient
    for _, ends in _endpoint_sets():
        W, X, S = _fixed_sigma(ends)
        for i, E in enumerate(X):
            ref = _fixed_monic(X[:i] + X[i + 1:], W)
            got = _fixed_deflate(S, E, W)
            assert len(got) == len(ref) == 4
            bound = 16 * max(abs(v) for v in ref) >> W
            assert max(abs(g - r) for g, r in zip(got, ref)) <= bound, \
                (ends, i)


def _narrow_gap_endpoints():
    """The phi_e = 0.62 two-cut solve at t/T_c = 1.58e-3, just below t*
    (ROADMAP item 9), reached by continuation from the guess at 1e-3:
    m = 0.96, c - b = 0.014."""
    spec = quartic("0.62")
    ends = two_cut_guess(spec, mpf("1e-3") * spec.Tc)
    for that in ("1e-3", "1.3e-3", "1.45e-3", "1.52e-3", "1.56e-3", "1.58e-3"):
        T = spec.Tc * (1 + mpf(that))
        ends = solve_two_cut(spec.V, T, ends).endpoints
    return spec, T, list(ends)


def _system_cases():
    """(name, V', T, x) for the fixed-point system against its mpf
    reference: both cut counts at phi_e in {0.62, 1.0, 1.3} and t/T_c in
    {1e-6, 1e-4, 1e-3} (one-cut below T_c from the first-order drift,
    two-cut above from `two_cut_guess`), the narrow gap just below t*,
    nu = 2, e = 5.0 at t/T_c = 1e-4, and quartic endpoints with a gap or a
    newborn cut 1e-9 wide (the collision guard allows 1e-10 of the span),
    where the width W grows by `_narrow_bits`."""
    for phi_e in ("0.62", "1.0", "1.3"):
        spec = quartic(phi_e)
        for that in ("1e-6", "1e-4", "1e-3"):
            t = mpf(that) * spec.Tc
            drift = one_cut_drift(spec, -t)
            yield ("one-cut %s %s" % (phi_e, that), spec.V.deriv(),
                   spec.Tc - t, [drift["a"], drift["b"]])
            yield ("two-cut %s %s" % (phi_e, that), spec.V.deriv(),
                   spec.Tc + t, list(two_cut_guess(spec, t)))
    spec, T, ends = _narrow_gap_endpoints()
    yield "two-cut 0.62 1.58e-3", spec.V.deriv(), T, ends
    spec = spec_nu(2, "5.0")
    t = mpf("1e-4") * spec.Tc
    yield "two-cut nu=2 1e-4", spec.V.deriv(), spec.Tc + t, \
        list(two_cut_guess(spec, t))
    spec = quartic("1.0")
    T = spec.Tc * (1 + mpf("1e-4"))
    for name, ends in (("gap", ("-2", "2", "2.000000001", "3.1")),
                       ("newborn cut", ("-2", "2", "3", "3.000000001"))):
        yield "two-cut, %s 1e-9 wide" % name, spec.V.deriv(), T, \
            [mpf(v) for v in ends]


def test_cut_system_matches_mpf_at_80_digits():
    # the fixed-point evaluation against the same system in mpf at 80
    # digits: residual rows within 2^-(prec-4) max(T, 1), every Jacobian
    # entry and M's coefficients within 2^-(prec-8) relative
    prec = mp.prec
    for name, Vp, T, x in _system_cases():
        r, J, M = equilibrium._cut_system(Vp, T, x)
        with mp.workdps(80):
            r_ref, J_ref, M_ref = cut_system_reference(Vp, T, x)
            assert len(r) == len(r_ref) and len(M) == len(M_ref), name
            tol = mp.ldexp(max(T, 1), 4 - prec)
            assert all(abs(u - v) <= tol for u, v in zip(r, r_ref)), name
            for got, ref in [(M.c, M_ref.c)] + list(zip(J, J_ref)):
                assert all(abs(u - v) <= mp.ldexp(abs(v), 8 - prec)
                           for u, v in zip(got, ref)), name


# endpoints of the A9 solves (phi_e = 1.0, t/Tc = 1e-3 and 1e-4) as the
# adaptive cosine-rule gap condition gave them
A9_ENDPOINTS = {
    "1e-3": ("-2.000348128603838385020056234064379746369",
             "2.010570972032395250028071324307153766012",
             "3.020385928348357596288753590232676378823",
             "3.150518649606191940034187488343582446744"),
    "1e-4": ("-2.000035392057564578555083853879133949336",
             "2.001155397104226640720995275176107817663",
             "3.06755213803972576917834955578343064634",
             "3.104834485114464449628288830260079829162"),
}


def test_two_cut_endpoints_unchanged():
    spec = quartic("1.0")
    for that, ref in A9_ENDPOINTS.items():
        t = mpf(that) * spec.Tc
        mu = solve_two_cut(spec.V, spec.Tc + t, guess=two_cut_guess(spec, t))
        assert max(abs(x - mpf(r)) for x, r in zip(mu.endpoints, ref)) \
            < mpf("1e-30"), that


def test_two_cut_solve_runs_no_adaptive_quadrature(monkeypatch):
    # nor any mpmath elliptic function: every elliptic integral comes from
    # specialfn's AGM, through the solve, Lambda and a measure read back
    def refuse(*args, **kwargs):
        raise AssertionError("adaptive quadrature or mpmath elliptic "
                             "function inside the two-cut solve")

    for name in ("integrate_bracket", "integrate_doubling"):
        monkeypatch.setattr(equilibrium, name, refuse)
    monkeypatch.setattr(quadrature, "_refine", refuse)
    for name in ("ellipk", "ellipe", "ellipf", "ellippi", "ellipfun"):
        monkeypatch.setattr(mpmath, name, refuse)
        monkeypatch.setattr(mp, name, refuse)
    spec = quartic("1.0")
    t = mpf("1e-5") * spec.Tc
    mu = solve_two_cut(spec.V, spec.Tc + t, guess=two_cut_guess(spec, t))
    assert mu.x0 is not None and mu.F_inf is not None   # _fill_two_cut_data ran
    # the abelian map behind Lambda is closed too, near d and far out
    gamma = gamma_two_cut(mu)
    d = mu.endpoints[3]
    for x in (d * (1 + mpf("1e-8")), d + 1):
        assert lambda_two_cut(mu, x) > 1
    assert abs(gamma_from_lambda_limit(mu) - gamma) < mpf("1e-8") * gamma
    back = kvio.measure_from_kv(kvio.measure_to_kv(mu), spec.V)
    assert abs(back.x0 - mu.x0) < mpf("1e-25")


def _u_by_quadrature(mu, x):
    """F(x) = Im u(x) by the integral route u = u_inf + (i/2)
    sqrt((d-b)(c-a)) integral_x^inf dy / sqrt(sigma): beyond
    X = max(x, 2d + 1) by y = 1/tau, on [x, X] by y = x + w^2."""
    a, b, c, d = mu.endpoints
    X = max(x, 2 * d + 1)

    def tail(tau):
        acc = mpf(1)
        for r in (a, b, c, d):
            acc *= 1 - r * tau
        return 1 / mp.sqrt(acc)

    total = integrate_doubling(tail, 0, 1 / X, max_panels=256)
    if x < X:
        total += integrate_doubling(lambda w: 2 * w / _sqrt_sigma(mu, x + w * w),
                                    0, mp.sqrt(X - x), max_panels=256)
    return mu.F_inf + mp.sqrt((d - b) * (c - a)) / 2 * total


def _sqrt_sigma(mu, y):
    # the product form keeps its relative accuracy next to d
    acc = mpf(1)
    for r in mu.endpoints:
        acc *= y - r
    return mp.sqrt(acc)


@pytest.mark.parametrize("phi_e,that", [("1.0", "3e-4"), ("1.0", "1e-6"),
                                        ("0.62", "1e-3")])
def test_u_of_x_closed_form_matches_integral_route(phi_e, that):
    spec = quartic(phi_e)
    t = mpf(that) * spec.Tc
    mu = solve_two_cut(spec.V, spec.Tc + t, guess=two_cut_guess(spec, t))
    a, b, c, d = mu.endpoints
    for x in (d * (1 + mpf("1e-5")), d * mpf("1.0001"), 2 * d + 1, mpf(50),
              mpf(10) ** 9 * d):
        ref = _u_by_quadrature(mu, x)
        got = mu.F_inf + equilibrium._u_from_inf_two_cut(mu, x)
        assert abs(got - ref) < mpf("1e-35") * abs(ref), x
    # F_inf itself from F(d) = K': K' - (1/2) sqrt((d-b)(c-a)) times
    # integral_d^inf dy / sqrt(sigma), with y = d + w^2 on [d, 2d + 1]
    ref = mu.Kprime - (
        _u_by_quadrature(mu, 2 * d + 1) - mu.F_inf
        + mp.sqrt((d - b) * (c - a)) / 2 * integrate_doubling(
            lambda w: 2 / mp.sqrt((d + w * w - a) * (d + w * w - b)
                                  * (d + w * w - c)),
            0, mp.sqrt(d + 1), max_panels=256))
    assert abs(mu.F_inf - ref) < mpf("1e-35") * abs(ref)


def test_u_of_x_at_the_branch_point():
    # at x = d (1 + 1e-8) the integral route needs more than 256 panels;
    # F - K' = -(1/2) sqrt((d-b)(c-a)) integral_d^x dy / sqrt(sigma), and
    # with g = ((y-a)(y-b)(y-c))^(-1/2) that integral is
    # 2 g(d) sqrt(delta) (1 + (g'/g)(d) delta/3), to a relative
    # O((delta/(d-c))^2), about 1e-13 here
    spec = quartic("1.0")
    t = mpf("3e-4") * spec.Tc
    mu = solve_two_cut(spec.V, spec.Tc + t, guess=two_cut_guess(spec, t))
    a, b, c, d = mu.endpoints
    delta = d * mpf("1e-8")
    g = 1 / mp.sqrt((d - a) * (d - b) * (d - c))
    dlng = -(1 / (d - a) + 1 / (d - b) + 1 / (d - c)) / 2
    lead = -mp.sqrt((d - b) * (c - a)) * g * mp.sqrt(delta) \
        * (1 + dlng * delta / 3)
    F = mu.F_inf + equilibrium._u_from_inf_two_cut(mu, d + delta)
    assert abs(F - mu.Kprime - lead) < mpf("1e-12") * abs(lead)


def test_two_cut_measure_is_real():
    # the two-cut data are K, K', F_inf = Im u_inf and Im u(x): no field of
    # the measure, and no value the module forms, is complex
    spec = quartic("1.0")
    t = mpf("3e-4") * spec.Tc
    mu = solve_two_cut(spec.V, spec.Tc + t, guess=two_cut_guess(spec, t))
    for f in dataclasses.fields(mu):
        if not f.init:                  # the per-precision sigma cache
            continue
        v = getattr(mu, f.name)
        ok = (v is None or isinstance(v, (mpf, int, Poly))
              or (isinstance(v, tuple) and all(isinstance(e, mpf) for e in v)))
        assert ok, (f.name, type(v))
    assert None not in (mu.K, mu.Kprime, mu.F_inf)
    assert type(equilibrium._u_from_inf_two_cut(mu, mu.endpoints[3] + 1)) is mpf
    assert mpc not in vars(equilibrium).values()


def test_two_cut_collision_guard():
    spec = quartic("1.0")
    with pytest.raises((PhaseError, ConvergenceError)):
        solve_two_cut(spec.V, spec.Tc * (1 - mpf("1e-3")),
                      guess=two_cut_guess(spec, mpf("1e-3") * spec.Tc))


def test_effective_potential_critical_well():
    spec = quartic("1.0")
    mu = solve_one_cut(spec.V, spec.Tc, guess=(-2, 2))
    assert effective_potential(mu, mu.endpoints[1]) == 0
    # V_eff(e) = V_eff(b) at criticality
    assert abs(effective_potential(mu, spec.e)) < mpf("1e-25")
    # quadratic well shape: V_eff ~ (2 sinh(phi_e) Q(e)/(2 nu)) (x-e)^{2 nu}
    coef = 2 * mp.sinh(spec.phi_e) * spec.Q(spec.e) / (2 * spec.nu)
    for dx in (mpf("1e-3"), -mpf("1e-3")):
        got = effective_potential(mu, spec.e + dx)
        assert abs(got - coef * dx ** 2) < mpf("0.02") * abs(coef * dx ** 2)
    # confining on both far sides
    assert effective_potential(mu, mpf(-3)) > 0
    assert effective_potential(mu, mpf(6)) > 0
    with pytest.raises(ValueError):
        effective_potential(mu, mpf("0.5"))


def test_abelian_one_cut():
    spec = quartic("1.0")
    mu = solve_one_cut(spec.V, spec.Tc, guess=(-2, 2))
    assert abs(measure_gamma(mu) - 1) < mpf("1e-28")   # (b-a)/4 at T_c
    a, b = mu.endpoints
    for x in (mpf("2.7"), mpf("-4.1")):
        L = joukowski_lambda(mu, x)
        assert abs(L + 1 / L - (2 * x - a - b) / ((b - a) / 2)) < mpf("1e-28")


def test_measure_gamma_reads_the_cut_count():
    # (b - a)/4 on one cut and `gamma_two_cut` on two, bit for bit, and the
    # gamma that `thermo_derivatives` reports
    spec = quartic("1.0")
    t = mpf("1e-4") * spec.Tc
    one = solve_one_cut(spec.V, spec.Tc - t, guess=(-2, 2))
    two = solve_two_cut(spec.V, spec.Tc + t, guess=two_cut_guess(spec, t))
    a, b = one.endpoints
    assert measure_gamma(one) == (b - a) / 4
    assert measure_gamma(two) == gamma_two_cut(two)
    for mu in (one, two):
        assert thermo_derivatives(mu)["gamma"] == measure_gamma(mu)


def test_gamma_two_routes_agree():
    spec = quartic("1.0")
    t = mpf("1e-4") * spec.Tc
    mu = solve_two_cut(spec.V, spec.Tc + t, guess=two_cut_guess(spec, t))
    g1 = gamma_two_cut(mu)
    g2 = gamma_from_lambda_limit(mu)
    assert abs(g1 - g2) < mpf("1e-8") * g1


@pytest.mark.parametrize("that", ["1e-5", "1e-4", "1e-3"])
@pytest.mark.parametrize("phi_e", ["1.0", "0.62", "1.3"])
def test_gamma_two_cut_matches_jtheta(phi_e, that):
    # the real series on the imaginary axis against mpmath's jtheta, to 1
    # unit of the working precision
    spec = quartic(phi_e)
    t = mpf(that) * spec.Tc
    mu = solve_two_cut(spec.V, spec.Tc + t, guess=two_cut_guess(spec, t))
    ref = gamma_jtheta(mu)
    assert abs(gamma_two_cut(mu) - ref) <= mpf(2) ** -mp.prec * ref


@pytest.mark.parametrize("that", ["1e-5", "1e-4", "1e-3"])
@pytest.mark.parametrize("phi_e", ["1.0", "0.62", "1.3"])
def test_lambda_two_cut_matches_jtheta(phi_e, that):
    # at x from just right of d out to 1e12, to 2 units of the working
    # precision
    spec = quartic(phi_e)
    t = mpf(that) * spec.Tc
    mu = solve_two_cut(spec.V, spec.Tc + t, guess=two_cut_guess(spec, t))
    d = mu.endpoints[3]
    for x in (d + mpf("1e-20"), d + mpf("1e-3"), d + 1, 10 * d, mpf(10) ** 12):
        ref = lambda_jtheta(mu, x)
        assert abs(lambda_two_cut(mu, x) - ref) <= 2 * mpf(2) ** -mp.prec * ref, x


@pytest.mark.parametrize("that", ["1e-5", "1e-4", "1e-3"])
@pytest.mark.parametrize("phi_e", ["1.0", "0.62", "1.3"])
def test_lambda_two_cut_at_large_x_matches_a_wider_reference(phi_e, that):
    # F(x) - F_inf goes to 0 like 1/x; from the addition theorem it keeps
    # its relative accuracy, so Lambda is within 2 units of the working
    # precision of the same endpoints' two-cut data and Lambda formed at 60
    # more bits by the direct route, F(x) - F_inf, which cancels about
    # log2(x) of those bits
    spec = quartic(phi_e)
    t = mpf(that) * spec.Tc
    mu = solve_two_cut(spec.V, spec.Tc + t, guess=two_cut_guess(spec, t))
    wide = dataclasses.replace(mu)
    xs = [mpf(10) ** k for k in (6, 9, 12)]
    with mp.workprec(mp.prec + 60):
        equilibrium._fill_two_cut_data(wide)
        refs = [lambda_jtheta(wide, x, u_direct(wide, x) - wide.F_inf)
                for x in xs]
    for x, ref in zip(xs, refs):
        assert abs(lambda_two_cut(mu, x) - ref) <= 2 * mpf(2) ** -mp.prec * ref, x


def test_joukowski_lambda_slope_at_the_critical_point():
    # at T_c, (x - xi)/(Lambda(x) - Lambda(xi)) -> 2 sinh(phi_e) e^{-phi_e}
    # as x, xi -> e; Lambda is not defined on the cut
    spec = quartic("1.0")
    mu = solve_one_cut(spec.V, spec.Tc, guess=(-2, 2))
    xa, xb = spec.e + mpf("1e-7"), spec.e + mpf("2e-7")
    lim = (xa - xb) / (joukowski_lambda(mu, xa) - joukowski_lambda(mu, xb))
    assert abs(lim - 2 * mp.sinh(spec.phi_e) * mp.exp(-spec.phi_e)) < mpf("1e-3")
    with pytest.raises(ValueError):
        joukowski_lambda(mu, mpf("0.0"))


def _veff_measures():
    """The one-cut quartic at t/T_c = -1e-3, the two-cut quartic at 3e-4
    and nu = 2 at T_c."""
    spec = quartic("1.0")
    t = mpf("-1e-3") * spec.Tc
    drift = one_cut_drift(spec, t)
    yield solve_one_cut(spec.V, spec.Tc + t, guess=(drift["a"], drift["b"]))
    t = mpf("3e-4") * spec.Tc
    yield solve_two_cut(spec.V, spec.Tc + t, guess=two_cut_guess(spec, t))
    spec = spec_nu(2, "2.6")
    yield solve_one_cut(spec.V, spec.Tc, guess=(-2, 2))


def test_veff_const_bs_matches_the_product_route():
    # values of the earlier route, which multiplied the series of sqrt(sigma)
    # by the c_j of V'/sqrt(sigma) up to j = 46, at 40 digits on the nu = 2
    # one-cut measure (the finite part, shared by both routes, with its
    # integrand at 24 guard bits); the two-cut value is this route's on an
    # 80-digit solve, at 80 digits, and the one-cut quartic's is this
    # route's at 80 digits on the 40-digit endpoints (the product route read
    # M rounded to 40 digits, which left it 2.1e-38 relative off)
    earlier = ["7.131030771325478962430792836668651712277045",
               "7.130242759839804193191724826052794497449868",
               "17.80119239550302720917259453609043298382168"]
    for mu, ref in zip(_veff_measures(), earlier):
        assert abs(veff_const_bs(mu) - mpf(ref)) <= mpf("1e-38") * mpf(ref)


def test_veff_const_bs_is_within_1e_38_of_its_80_digit_value():
    # on the same endpoints, V and T: M is re-derived from V' and the
    # endpoints at 24 guard bits, so only the finite part's rounding and its
    # quadrature stop remain (measured 1.5e-41, 2.8e-42 and 1.1e-39; M
    # rounded to the working precision left the one-cut quartic 2.1e-38 off)
    for mu in _veff_measures():
        got = veff_const_bs(mu)
        with mp.workdps(80):
            ref = veff_const_bs(equilibrium.EqMeasure(
                s=mu.s, endpoints=mu.endpoints, M=mu.M, T=mu.T, V=mu.V))
            assert abs(got - ref) <= mpf("1e-38") * abs(ref), mu.endpoints


def test_sigma_is_formed_once_per_precision():
    # the measure keeps sigma per working precision; the values that read it
    # per point are those of a sigma formed afresh at every call
    mus = list(_veff_measures())
    for mu in mus:
        assert mu.sigma() is mu.sigma()
        with mp.workprec(2 * mp.prec):
            wide = mu.sigma()
            assert wide == monic_from_roots(mu.endpoints)
        assert mu.sigma() is not wide

    def values(mu):
        out = [effective_potential(mu, mu.endpoints[-1] + 1),
               veff_const_bs(mu)]
        return [v._mpf_ for v in out]

    cached = [values(mu) for mu in mus]
    fresh = [equilibrium.EqMeasure(s=mu.s, endpoints=mu.endpoints, M=mu.M,
                                   T=mu.T, V=mu.V) for mu in mus]
    for mu in fresh:
        mu.sigma = lambda mu=mu: monic_from_roots(mu.endpoints)
    assert cached == [values(mu) for mu in fresh]


def test_w_tail_from_m_sqrt_sigma_is_sqrt_sigma_times_moments():
    # W - T/x = -(1/2) [negative part of M sqrt(sigma)] = (1/2) sqrt(sigma)
    # sum_j c_j x^{-j}, c_j from V'/sqrt(sigma): the x^{-k} coefficients of
    # both, k <= 40, agree to 1e-38 of the sum of the product's |terms|
    half = mpf(1) / 2
    for mu in _veff_measures():
        s, sigma, Vp = mu.s, mu.sigma(), mu.V.deriv()
        _, n = laurent_split(mu.M, sqrt_sigma_tail(sigma, 40 + mu.M.degree + s,
                                                   half), -s, 40)
        _, c = laurent_split(Vp, sqrt_sigma_tail(sigma, 46 + Vp.degree + s,
                                                 -half), s, 46)
        root = sqrt_sigma_tail(sigma, 40 + s, half)
        for k in range(2, 41):
            terms = [c[j] * root[k + s - j] / 2
                     for j in range(1, min(k + s, 46) + 1)]
            assert abs(-n[k] / 2 - mp.fsum(terms)) <= \
                mpf("1e-38") * mp.fsum(terms, absolute=True), k


def test_dveff_dt_identity_two_cut():
    # finite-difference of the absolute V_eff across solves vs -2 ln(gamma Lambda)
    spec = quartic("1.0")
    t = mpf("1e-4") * spec.Tc
    h = mpf("1e-6") * spec.Tc
    mu = solve_two_cut(spec.V, spec.Tc + t, guess=two_cut_guess(spec, t))
    mup = solve_two_cut(spec.V, spec.Tc + t + h, guess=mu.endpoints)
    mum = solve_two_cut(spec.V, spec.Tc + t - h, guess=mu.endpoints)
    x = mu.endpoints[3] + 1
    fd = ((effective_potential(mup, x) + veff_const_bs(mup))
          - (effective_potential(mum, x) + veff_const_bs(mum))) / (2 * h)
    pred = -2 * mp.log(gamma_two_cut(mu) * lambda_two_cut(mu, x))
    assert abs(fd - pred) < mpf("1e-4") * abs(pred)


def test_thermo_derivatives_structure():
    spec = quartic("1.0")
    mu = solve_one_cut(spec.V, spec.Tc, guess=(-2, 2))
    th = thermo_derivatives(mu)
    assert abs(th["d2F_dT2"]) < mpf("1e-25")     # gamma = 1 at T_c
    assert abs(th["dT_dT_trace"]) < mpf("1e-25")  # a = -b
    cl = classical_gamma_beta(mu)
    assert abs(cl["gamma_n"] - 1) < mpf("1e-25")
    assert abs(cl["beta_n"]) < mpf("1e-25")


def test_classical_bounds_two_cut():
    spec = quartic("1.0")
    t = mpf("1e-3") * spec.Tc
    mu = solve_two_cut(spec.V, spec.Tc + t, guess=two_cut_guess(spec, t))
    cl = classical_gamma_beta(mu)
    a, b, c, d = mu.endpoints
    assert abs(cl["gamma_lo"] - (d - a - c + b) / 4) < mpf("1e-25")
    assert cl["gamma_lo"] < cl["gamma_hi"]
    assert cl["beta_lo"] < cl["beta_hi"]
    # degenerate c = d collapses the gamma band onto (b-a)/4
    width_hi = (d - a + c - b) / 4
    assert cl["gamma_hi"] == width_hi


def _central_jacobian(system, x, h=mpf("1e-13")):
    """J[i][j] = dr_i/dx_j by central differences of the residual alone."""
    cols = []
    for j in range(len(x)):
        step = h * (1 + abs(x[j]))
        xp, xm = list(x), list(x)
        xp[j] += step
        xm[j] -= step
        rp, rm = system(xp)[0], system(xm)[0]
        cols.append([(p - m) / (2 * step) for p, m in zip(rp, rm)])
    return [list(row) for row in zip(*cols)]


@pytest.mark.parametrize("case,that", [("quartic-below", "1e-5"),
                                       ("nu2", None), ("two-cut", "1e-5"),
                                       ("two-cut", "1e-3")])
def test_jacobian_matches_central_differences(case, that):
    # the Jacobian each system returns is exact: it must match central
    # differences of its own residual, whose error is about h^2 ~ 1e-26
    if case == "quartic-below":
        spec = quartic("1.0")
        T = spec.Tc * (1 - mpf(that))
        x = solve_one_cut(spec.V, T, guess=(-2, 2)).endpoints
    elif case == "nu2":
        spec = spec_nu(2, "2.6")
        T, x = spec.Tc, (mpf("-2.01"), mpf("1.99"))
    else:
        spec = quartic("1.0")
        t = mpf(that) * spec.Tc
        T, x = spec.Tc + t, two_cut_guess(spec, t)
    system = equilibrium._cut_system
    Vp = spec.V.deriv()
    _, J, _ = system(Vp, T, list(x))
    fd = _central_jacobian(lambda y: system(Vp, T, y), list(x))
    for i, (row, ref) in enumerate(zip(J, fd)):
        scale = max(abs(v) for v in ref)
        assert max(abs(u - v) for u, v in zip(row, ref)) < mpf("1e-20") * scale, i


def _systems():
    """(name, A, b): the one- and two-cut Jacobians Newton solves (the
    two-cut gap row carries 32 extra bits), one that needs a row swap and
    one with a row 1e30 larger than the others, at 2x2 and 4x4."""
    spec = quartic("1.0")
    Vp = spec.V.deriv()
    t = mpf("1e-4") * spec.Tc
    out = []
    for name, T, x in (("one-cut", spec.Tc - t, [mpf("-2.01"), mpf("1.99")]),
                       ("two-cut", spec.Tc + t, list(two_cut_guess(spec, t)))):
        r, J, _ = equilibrium._cut_system(Vp, T, x)
        out.append((name, J, [-v for v in r]))
    tiny = mpf(2) ** -200
    for n in (2, 4):
        A = [[mpf(3 * i + j + 1) / (i + 2 * j + 7) for j in range(n)]
             for i in range(n)]
        swap = [list(row) for row in A]
        swap[0][0] = tiny
        scaled = [list(row) for row in A]
        scaled[1] = [v * mpf("1e30") for v in scaled[1]]
        b = [mpf(1) / (k + 3) for k in range(n)]
        out += [("swap %d" % n, swap, b), ("scaled %d" % n, scaled, b)]
    return out


@pytest.mark.parametrize("case", range(6))
def test_list_solve_matches_mpmath_lu_solve(case):
    # the integer elimination and the mpf reference against mpmath's LU at
    # twice the working precision (same-precision LU is itself 25 units off
    # on the scaled 4x4 at 60 digits), to 16 units of 2^-prec relative in
    # every component, at 15, 40 and 60 digits. Each pivot is tested
    # against its own row, so the rows 1e30 larger leave the other rows'
    # pivots nonsingular at 15 digits too
    for dps in (15, 40, 60):
        with mp.workdps(dps):
            name, A, b = _systems()[case]
            with mp.extraprec(mp.prec):
                ref = mpmath.lu_solve(mpmath.matrix(A), mpmath.matrix(b))
            tol = 16 * mpf(2) ** -mp.prec
            for solve in (equilibrium._lu_solve, lu_solve_reference):
                got = solve(A, b)
                for i, v in enumerate(got):
                    assert abs(v - ref[i]) <= tol * abs(ref[i]), \
                        (dps, name, solve.__name__, i)


@pytest.mark.parametrize("J", [[[1, 2], [2, 4]], [[0, 1], [0, 3]]])
def test_singular_jacobian_is_a_convergence_error(J):
    # a rank-deficient Jacobian, and one with a zero column (no pivot at
    # all), reach Newton's caller as ConvergenceError
    J = [[mpf(v) for v in row] for row in J]

    def system(x):
        return [x[0] - 1, x[1] + 1], J, None

    with pytest.raises(ConvergenceError, match="singular Jacobian"):
        equilibrium._newton(system, [0, 0], 1)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_lu_solve_singular_at_n_eps_max(n):
    # the last row is (3, 0, .., 0, pivot) and leaves elimination as
    # (0, .., 0, pivot): a pivot of exactly n eps times its row's largest
    # entry, 3 (eps = 2^-(prec + 9), the machine epsilon 10 bits above the
    # working precision), is singular; one unit of the integer elimination
    # above it, 2^(2 - (prec + 20)) for a row whose top bit is that of 3,
    # is not; and scaling any row by 2^100 or 2^-100 moves neither verdict.
    # The mpf reference draws the same line
    tol = n * mpf(3) * mp.ldexp(1, -mp.prec - 9)
    above = tol + mp.ldexp(1, 2 - (mp.prec + 20))
    for pivot, singular in ((tol, True), (above, False)):
        for row, scale in ((0, 0), (0, 100), (n - 1, 100), (n - 1, -100)):
            A = [[mpf(0)] * n for _ in range(n)]
            for i in range(n):
                A[i][i] = mpf(3)
            A[n - 1][0], A[n - 1][n - 1] = mpf(3), pivot
            b = [mpf(1)] * (n - 1) + [mpf(2)]
            A[row] = [mp.ldexp(v, scale) for v in A[row]]
            b[row] = mp.ldexp(b[row], scale)
            for solve in (equilibrium._lu_solve, lu_solve_reference):
                if singular:
                    with pytest.raises(ZeroDivisionError):
                        solve(A, b)
                else:
                    x = solve(A, b)
                    assert abs(x[n - 1] * pivot - 1) < mp.eps
                    assert abs(3 * x[0] - 1) < mp.eps


def test_lu_solve_all_zero_row_is_singular():
    # a row of zeros, with a nonzero right-hand side or not, has no pivot
    A = [[mpf(1), mpf(2), mpf(3)], [mpf(0)] * 3, [mpf(4), mpf(5), mpf(7)]]
    for b in ([mpf(1)] * 3, [mpf(0)] * 3):
        with pytest.raises(ZeroDivisionError, match="numerically singular"):
            equilibrium._lu_solve(A, b)
    with pytest.raises(ConvergenceError, match="singular Jacobian"):
        equilibrium._newton(lambda x: ([x[0] - 1, mpf(1), x[2]], A, None),
                            [0, 0, 0], 1)


def _steep_system(calls):
    """r = (atan(100 (x_0 - 1)), x_1 - x_0), its exact Jacobian, recording
    each point it is evaluated at: from (1.2, 1.2) the Newton step is -6.1
    in both components, capped to 0.2 (1 + 1.2) = 0.44, and the capped step
    still overshoots the root, so the line search halves it."""
    def system(x):
        calls.append(list(x))
        k = mpf(100)
        z = k * (x[0] - 1)
        return ([mp.atan(z), x[1] - x[0]],
                [[k / (1 + z * z), mpf(0)], [mpf(-1), mpf(1)]], None)
    return system


def test_capped_halved_newton_takes_the_reference_iterates(monkeypatch):
    # the step cap binds and the line search halves, and every point Newton
    # evaluates is the one it evaluates with the mpf elimination
    runs = []
    for solve in (equilibrium._lu_solve, lu_solve_reference):
        monkeypatch.setattr(equilibrium, "_lu_solve", solve)
        calls = []
        x, _, steps, rn = equilibrium._newton(_steep_system(calls),
                                              [mpf("1.2"), mpf("1.2")], 1)
        runs.append((calls, x, steps, rn))
    assert runs[0] == runs[1]
    calls, x, steps, rn = runs[0]
    x0 = mpf("1.2")
    assert abs(abs(calls[1][0] - x0) - (1 + x0) / 5) < mpf("1e-30")
    assert calls[2][0] - x0 == (calls[1][0] - x0) / 2
    assert len(calls) > steps + 1
    assert abs(x[0] - 1) < mpf("1e-30") and x[0] == x[1]


def _bit_identity_cases():
    """(spec name, spec, t/T_c, cuts): the Newton corpus of the bit-identity
    test, quartic phi_e 1.0 and 0.62 and nu = 2 at e = 2.6."""
    specs = (("quartic 1.0", lambda: make_quartic_spec(mpf("1.0"))),
             ("quartic 0.62", lambda: make_quartic_spec(mpf("0.62"))),
             ("nu=2 e=2.6", lambda: make_spec(2, mpf("2.6"))))
    for name, make in specs:
        spec = make()
        for that in ("1e-5", "1e-4", "1e-3"):
            for cuts in (1, 2):
                yield name, spec, mpf(that), cuts


def _corpus_solve(spec, that, cuts):
    """The endpoints, Newton steps and residual of one cut solve, as exact
    mpf tuples, or the text of the error it raised."""
    t = that * spec.Tc
    try:
        if cuts == 1:
            mu = solve_one_cut(spec.V, spec.Tc - t, (-2, 2))
        else:
            mu = solve_two_cut(spec.V, spec.Tc + t, two_cut_guess(spec, t))
    except (PhaseError, ConvergenceError) as exc:
        return "%s: %s" % (type(exc).__name__, exc)
    return [v._mpf_ for v in mu.endpoints], mu.newton_steps, mu.residual._mpf_


@pytest.mark.parametrize("dps", [15, 40, 60])
def test_newton_corpus_is_bit_identical_to_the_mpf_elimination(dps,
                                                               monkeypatch):
    # the integer `_lu_solve` and the mpf reference give Newton the same
    # steps: the same endpoints, step counts and residuals bit for bit, and
    # the same error text where a solve fails
    with mp.workdps(dps):
        for name, spec, that, cuts in _bit_identity_cases():
            got = _corpus_solve(spec, that, cuts)
            with monkeypatch.context() as patch:
                patch.setattr(equilibrium, "_lu_solve", lu_solve_reference)
                ref = _corpus_solve(spec, that, cuts)
            assert got == ref, (name, that, cuts)


@pytest.mark.parametrize("x,match", [
    (("2", "-2"), "need a < b$"),
    (("1", "1"), "need a < b$"),
    (("-2", "2", "1", "3"), "need a < b < c < d"),
    (("-2", "2", "3", "3"), "need a < b < c < d"),
    (("-2", "2", "2.1", "2.1000000000001"), "a cut or the gap has closed"),
    (("-2", "2", "2.0000000000001", "3"), "a cut or the gap has closed"),
])
def test_cut_system_rejects_collided_endpoints(x, match):
    # one guard for both cut counts: ordering at s = 1 and 2, and at s = 2
    # a newborn cut or gap narrower than 1e-10 of the span
    Vp = quartic("1.0").V.deriv()
    with pytest.raises(PhaseError, match=match):
        equilibrium._cut_system(Vp, mpf(1), [mpf(v) for v in x])


@pytest.mark.parametrize("s", [1, 2])
def test_sqrt_sigma_branch_flips_across_each_cut(s):
    # +|sqrt(sigma)| right of the support, one sign flip per cut crossed
    spec = quartic("1.0")
    if s == 1:
        mu = solve_one_cut(spec.V, spec.Tc * (1 - mpf("1e-3")), guess=(-2, 2))
    else:
        t = mpf("1e-3") * spec.Tc
        mu = solve_two_cut(spec.V, spec.Tc + t, guess=two_cut_guess(spec, t))
    eps = mu.endpoints
    probes = [(eps[0] - 1, (-1) ** s), (eps[-1] + 1, 1)]
    if s == 2:
        probes.append(((eps[1] + eps[2]) / 2, -1))
    for x, sign in probes:
        val = equilibrium._sqrt_sigma_signed(mu, x)
        assert val * sign > 0, x
        assert abs(val * val - abs(mu.sigma()(x))) < mpf("1e-30") * val * val


def test_effective_potential_vanishes_at_every_endpoint():
    # V_eff = V_eff(b_s) on the whole support; at x = b the integral from c
    # did not converge
    spec = quartic("1.0")
    t = mpf("3e-4") * spec.Tc
    mu = solve_two_cut(spec.V, spec.Tc + t, guess=two_cut_guess(spec, t))
    assert all(effective_potential(mu, e) == 0 for e in mu.endpoints)


def test_two_cut_solve_forms_one_moment_set_per_newton_step(monkeypatch):
    # 6 Newton steps: the guess, one evaluation per accepted step, each
    # with one Laurent series of V'/sqrt(sigma), and no separate M at the
    # solution; forward differences made 27 evaluations
    calls = []
    series = equilibrium._fixed_series

    def counted(*args):
        calls.append(1)
        return series(*args)

    monkeypatch.setattr(equilibrium, "_fixed_series", counted)
    spec = quartic("1.0")
    t = mpf("3e-4") * spec.Tc
    mu = solve_two_cut(spec.V, spec.Tc + t, guess=two_cut_guess(spec, t))
    assert len(calls) <= 7
    assert mu.newton_steps == len(calls) - 1
    assert mu.residual <= mpf(10) ** (-mp.dps + 8)


def test_cut_solves_reach_the_working_precision():
    # both cut counts stop at 2^-(prec - 16) max(T, 1): at phi_e = 1.0 the
    # endpoints are within 1e-36 of an 80-digit solve of the same V and T,
    # relative to 1 + |x| (a tolerance of 10^(8 - dps) left the one-cut
    # solve at t/T_c = -3e-4 2.8e-33 off)
    spec = quartic("1.0")
    cases = [(solve_one_cut, spec.Tc * (1 - mpf("3e-4")), (-2, 2))]
    for that in ("3e-4", "1e-3"):
        t = mpf(that) * spec.Tc
        cases.append((solve_two_cut, spec.Tc + t, two_cut_guess(spec, t)))
    for solve, T, guess in cases:
        ends = solve(spec.V, T, guess).endpoints
        with mp.workdps(80):
            ref = solve(spec.V, T, guess).endpoints
            err = max(abs(x - y) / (1 + abs(y)) for x, y in zip(ends, ref))
        assert err <= mpf("1e-36"), (T, err)


@pytest.mark.parametrize("s", [1, 2])
def test_cut_system_forms_sigma_once(monkeypatch, s):
    # one sigma per evaluation, at the gap row's width, feeds both the
    # Laurent moments and (s = 2) the gap row
    spec = quartic("1.0")
    t = mpf("1e-4") * spec.Tc
    if s == 1:
        T, x = spec.Tc - t, [mpf("-2.01"), mpf("1.99")]
    else:
        T, x = spec.Tc + t, list(two_cut_guess(spec, t))
    width = _fixed_sigma(x)[0]
    calls = []
    monic = equilibrium._fixed_monic

    def counted(X, W):
        calls.append(W)
        return monic(X, W)

    monkeypatch.setattr(equilibrium, "_fixed_monic", counted)
    equilibrium._cut_system(spec.V.deriv(), T, x)
    assert calls == [width]


def _density_verdict_mpf(mu):
    """The all-mpf density scan: the message of the first point where
    sgn M < floor (1 + |x|)^deg M, or None."""
    eps = mu.endpoints
    mscale = max(abs(v) for v in mu.M.c) if mu.M else mpf(1)
    floor = -mscale * mpf(10) ** (-mp.dps + 8)
    for cut in range(mu.s):
        lo, hi = eps[2 * cut], eps[2 * cut + 1]
        for i in range(1, 200):
            x = lo + (hi - lo) * mpf(i) / 200
            if mu.cut_sign(cut) * mu.M(x) < floor * (1 + abs(x)) ** mu.M.degree:
                return ("negative density at x = %s; wrong cut count for this "
                        "temperature" % mp.nstr(x, 10))
    return None


def _density_verdict(mu):
    try:
        equilibrium._check_density(mu)
    except PhaseError as exc:
        return str(exc)
    return None


def test_float_density_scan_matches_mpf_scan():
    spec = quartic("1.0")
    one = solve_one_cut(spec.V, spec.Tc * (1 - mpf("1e-5")), guess=(-2, 2))
    t = mpf("1e-4") * spec.Tc
    two = solve_two_cut(spec.V, spec.Tc + t, guess=two_cut_guess(spec, t))
    semicircle = (mpf(-2), mpf(2))
    gauss = Poly([0, 0, mpf(1) / 2])

    def measure(M, endpoints=semicircle, s=1):
        return equilibrium.EqMeasure(s=s, endpoints=endpoints, M=M, T=mpf(1),
                                     V=gauss)

    def square_at_1(shift, scale=1):
        # scale ((x - 1)^2 + shift): x = 1 is sample 150 of [-2, 2], where
        # the float value is 0 whatever |shift| < 1e-16, so only mpf decides
        return Poly([scale * (1 + mpf(shift)), -2 * scale, scale])

    cases = {
        "one-cut solve": one,
        "two-cut solve": two,
        "two-cut, M flipped": measure(-two.M, two.endpoints, 2),
        "undecided in floats, negative": measure(square_at_1("-1e-30")),
        "undecided in floats, positive": measure(square_at_1("1e-30")),
        "undecided in floats, within the floor": measure(square_at_1("-1e-33")),
        "beyond float range, negative": measure(square_at_1("-1e-30", mpf("1e400"))),
        "beyond float range, positive": measure(square_at_1("1e-30", mpf("1e400"))),
        "below float range, negative": measure(square_at_1("-1e-30", mpf("1e-400"))),
        "zero M": measure(Poly()),
    }
    verdicts = {name: _density_verdict(mu) for name, mu in cases.items()}
    assert verdicts == {name: _density_verdict_mpf(mu)
                        for name, mu in cases.items()}
    assert verdicts["undecided in floats, negative"] == (
        "negative density at x = 1.0; wrong cut count for this temperature")
    assert verdicts["one-cut solve"] is None and verdicts["two-cut solve"] is None
    assert verdicts["two-cut, M flipped"] is not None
