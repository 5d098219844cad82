"""Acceptance criteria A1-A10.

Each test prints one PASS/FAIL line (run with `pytest tests/test_acceptance.py -sv`
to see them all) and appends it to the ledger, one JSON line per criterion
in `.pytest_cache/d/acceptance/ledger.jsonl`, written afresh by each pytest
session: the criterion, pass/fail, seconds and detail, and where the test
holds them, the measured value, the bound, N and the quartic member phi_e.
Criteria are pinned at their stated tolerances. The quartic family member
(phi_e) is chosen per criterion where the criterion itself does not pin one;
the choices are recorded next to each test and in its ledger row.

Three sub-criteria are expected to fail honestly at desk scale (N <= 80) and
are implemented verbatim anyway:

* A5 amplitude ratio (half-integer vs integer u >= 3x): the dip depth is
  2 sinh^2(phi_e) * 2/(A sqrt(N)) * [amplitude ratios]; the contrast is
  about 1x at N = 40 and 80, and 1.34x at N = 10240 (ROADMAP item 3).
* A5/A6 deviation-vs-reduced trend and the < 0.25 bound: the one-correction
  reduced forms carry amplitude ratios A_{ubar+eps}/A_ubar that are order-one
  wrong on whichever side of u the discarded neighbor dominates; at N = 80
  the genuine O(N^{-1/2nu}) mean-field error is ~0.3 of (gamma - 1).
* A10 kernel reduction < 0.2: the dropped correction denominators and
  gamma_n != 1 make the best achievable sup-norm deviation ~0.27 at N = 80
  over the whole family. On this test's grid the deviation is 0.355 at
  N = 160 (rounding p gives u = 1.24) and 0.087 at N = 320.
"""

import json
import time

import pytest
from mpmath import mp, mpf

from birthcut.asymptotics import (beta_reduced, gamma_full, gamma_reduced,
                                  kernel_full, kernel_reduced, make_regime,
                                  make_scaling_map)
from birthcut.critical import (g_scaling_poly, scaling_constant_C,
                               scaling_zeta, transition_curvature,
                               two_cut_guess)
from birthcut.equilibrium import (gamma_two_cut, measure_gamma,
                                  solve_one_cut, solve_two_cut)
from birthcut.oracle import eval_psi_exact, expected_count_exact, kernel_exact
from birthcut.poly import Poly
from birthcut.potentials import build_critical_Q, quartic_etilde
from birthcut.quadrature import integrate_doubling, panel_nodes
from birthcut.specialfn import agm_integrals
from conftest import (ln_zeta_asymptotic, ln_zeta_nu1_exact, model_chain,
                      oracle_chain, quartic, small_m_E, small_m_Eprime,
                      small_m_K, sn_cn_dn)

import mpmath


LEDGER = {}    # the session's ledger file and the running test's start


@pytest.fixture(scope="module", autouse=True)
def ledger_file(request):
    """Empty the ledger before the first criterion of the session; no
    ledger when pytest runs without its cache."""
    cache = getattr(request.config, "cache", None)
    path = cache.mkdir("acceptance") / "ledger.jsonl" if cache else None
    if path:
        path.write_text("")
    LEDGER["path"] = path


@pytest.fixture(autouse=True)
def criterion_clock():
    LEDGER["start"] = time.perf_counter()


def _plain(v):
    """v for JSON: a list item by item, an int as it is, else a float."""
    if isinstance(v, list):
        return [_plain(x) for x in v]
    return v if isinstance(v, int) else float(v)


def report(name, ok, detail="", value=None, bound=None, N=None, phi_e=None):
    """Print the criterion's PASS/FAIL line and append it to the ledger with
    the seconds since its test started; returns ok. value, bound, N and the
    quartic member(s) phi_e go in where given, each number as an int or a
    float."""
    seconds = time.perf_counter() - LEDGER["start"]
    print("%s: %s%s" % (name, "PASS" if ok else "FAIL",
                        " - " + detail if detail else ""))
    row = {"criterion": name, "pass": bool(ok), "seconds": round(seconds, 3),
           "detail": detail}
    for key, v in (("value", value), ("bound", bound), ("N", N),
                   ("phi_e", phi_e)):
        if v is not None:
            row[key] = _plain(v)
    if LEDGER["path"]:
        with open(LEDGER["path"], "a") as f:
            f.write(json.dumps(row) + "\n")
    return ok


# ---------------------------------------------------------------------------
# A1: quartic consistency
# ---------------------------------------------------------------------------

def test_A1_quartic_consistency():
    t0 = time.time()
    worst_rel, worst_int = mpf(0), mpf(0)
    for phi in ("0.5", "1.0", "1.5"):
        phi = mpf(phi)
        e = 2 * mp.cosh(phi)
        closed = quartic_etilde(phi)
        _, et = build_critical_Q(1, e, Poly([1]))
        worst_rel = max(worst_rel, abs(closed - et) / et)
        vanish = integrate_doubling(
            lambda t: (2 * mp.cosh(t) - e) * (2 * mp.cosh(t) - closed)
            * 4 * mp.sinh(t) ** 2, 0, phi)
        worst_int = max(worst_int, abs(vanish) / (e - 2) ** 3)
    dt = time.time() - t0
    ok = worst_rel < mpf("1e-10") and worst_int < mpf("1e-10") and dt < 1
    assert report("A1", ok, "closed-form vs quadrature rel %.2e, integral %.2e, %.2fs"
                  % (float(worst_rel), float(worst_int), dt),
                  phi_e=["0.5", "1.0", "1.5"])


# ---------------------------------------------------------------------------
# A2: exact polynomial identities of the newborn scaling
# ---------------------------------------------------------------------------

def test_A2_scaling_identities():
    from fractions import Fraction
    from math import comb, factorial
    t0 = time.time()
    ok = True
    for nu in range(1, 7):
        # coefficient-wise differential identity at zeta = 1 (exact)
        G = [Fraction(0)] * (2 * nu - 1)
        for k in range(nu):
            G[2 * (nu - 1 - k)] = Fraction(comb(2 * k, k))
        G2 = sum(G[k] * Fraction(2) ** k for k in range(len(G)))
        num = list(G)
        num[0] -= G2
        q = [Fraction(0)] * max(len(num) - 2, 1)
        rem = list(num)
        for k in range(len(num) - 1, 1, -1):
            q[k - 2] = rem[k]
            rem[k] = Fraction(0)
            rem[k - 2] += 4 * q[k - 2]
        lhs = [(2 * nu - 2 - k) * G[k] for k in range(len(G))]
        rhs = [4 * v for v in q] + [Fraction(0)] * (len(G) - len(q))
        ok &= all(v == 0 for v in rem)
        ok &= all(a == b for a, b in zip(lhs, rhs))
        # 4 zeta^2 G(2 zeta) = C as an integer identity
        S = sum(comb(2 * k, k) * 4 ** (nu - 1 - k) for k in range(nu))
        ok &= 2 * S * factorial(nu) * factorial(nu - 1) == factorial(2 * nu)
    # numeric closures on a concrete spec
    spec = quartic("1.0")
    z, C = scaling_zeta(spec), scaling_constant_C(spec)
    G = g_scaling_poly(1, z)
    ok &= abs(4 * z * z * G(2 * z) - C) < mpf("1e-12") * C
    ok &= abs(G(2 * z) / z ** 0 - 1) < mpf("1e-12")
    dt = time.time() - t0
    assert report("A2", bool(ok) and dt < 1,
                  "exact identities nu=1..6, %.2fs" % dt, phi_e="1.0")


# ---------------------------------------------------------------------------
# A3: special functions
# ---------------------------------------------------------------------------

def test_A3_special_functions():
    import random
    t0 = time.time()
    worst_leg = mpf(0)
    for m in ("1e-8", "1e-6", "1e-4", "0.01", "0.2", "0.5", "0.8", "0.99"):
        m = mpf(m)
        # both passes at 20 guard bits, rounded once, as the two-cut measure
        # forms K and K'
        with mp.workprec(mp.prec + 20):
            K, E = agm_integrals(1 - m)[:2]
            Kp, Ep = agm_integrals(m)[:2]
        K, E, Kp, Ep = +K, +E, +Kp, +Ep
        worst_leg = max(worst_leg, abs(E * Kp + Ep * K - K * Kp - mp.pi / 2))
    worst_K = worst_E = worst_Ep = mpf(0)
    for m in (mpf("1e-3"), mpf("1e-4"), mpf("1e-5")):
        worst_K = max(worst_K, abs(mpmath.ellipk(m) - small_m_K(m)) / (5 * m ** 3))
        worst_E = max(worst_E, abs(mpmath.ellipe(m) - small_m_E(m)) / (5 * m ** 3))
        worst_Ep = max(worst_Ep, abs(mpmath.ellipe(1 - m) - small_m_Eprime(m)) / (5 * m ** 2))
    rng = random.Random(3)
    worst_pyth = mpf(0)
    for _ in range(100):
        u = mpf(rng.uniform(-3, 3))
        m = mpf(rng.uniform(0, 0.999))
        sn, cn, dn = sn_cn_dn(u, m)
        worst_pyth = max(worst_pyth, abs(sn * sn + cn * cn - 1),
                         abs(dn * dn + m * sn * sn - 1))
    dt = time.time() - t0
    ok = (worst_leg < mpf("1e-12") and worst_K < 1 and worst_E < 1
          and worst_Ep < 1 and worst_pyth < mpf("1e-25") and dt < 5)
    assert report("A3", ok,
                  "legendre %.1e, K/E/E' expansion margins %.2f/%.2f/%.2f, "
                  "pythagorean %.1e, %.2fs" % (float(worst_leg), float(worst_K),
                                               float(worst_E), float(worst_Ep),
                                               float(worst_pyth), dt))


# ---------------------------------------------------------------------------
# A4: model chain ground truth
# ---------------------------------------------------------------------------

def test_A4_model_chain():
    t0 = time.time()
    ch1 = model_chain(1, 55)
    with mp.workprec(256):
        g_dev = max(abs(ch1.gsq[k] - k) for k in range(1, 51))
        z_dev = max(abs(ch1.ln_zeta[k] - ln_zeta_nu1_exact(k)) for k in range(51))
    ch2 = model_chain(2, 41)
    with mp.workprec(256):
        xs, ws = panel_nodes(ch2.x_min, ch2.x_max, 97, 64)
        ortho = mpf(0)
        for j, k in ((0, 0), (7, 7), (15, 15), (3, 11), (0, 14)):
            acc = mpf(0)
            for x, w in zip(xs, ws):
                acc += w * eval_psi_exact(ch2, j, x) * eval_psi_exact(ch2, k, x)
            ortho = max(ortho, abs(acc - (1 if j == k else 0)))
        # residual envelope: the appendix drops constant-level terms, so the
        # residual per k is bounded but not small (frozen empirical envelope)
        resid = max(abs(ch2.ln_zeta[k] - ln_zeta_asymptotic(k, 2)) / k
                    for k in range(10, 41))
    dt = time.time() - t0
    ok = (g_dev < mpf("1e-10") and z_dev < mpf("1e-10")
          and ortho < mpf("1e-20") and resid < 12 and dt < 60)
    assert report("A4", ok, "gamma^2 dev %.1e, ln zeta dev %.1e, nu=2 ortho %.1e, "
                  "resid/k <= %.2f, %.1fs" % (float(g_dev), float(z_dev),
                                              float(ortho), float(resid), dt))


# ---------------------------------------------------------------------------
# A5/A6: the saw-tooth scan (nu = 1 quartic, phi_e = 0.62, N in {40, 80})
# ---------------------------------------------------------------------------

SCAN_PHI = "0.62"


def scan(N):
    """(u, gamma_or, beta_or, gamma_red, beta_red) over integer p with
    u in (0, 3.3]."""
    spec = quartic(SCAN_PHI)
    ch = oracle_chain(SCAN_PHI, N)
    mc = model_chain(1, 30)
    rows = []
    p = 1
    while True:
        rp = make_regime(spec, N, p)
        if rp.u > mpf("3.3") or N + p > ch.n_max:
            break
        rows.append((rp.u, ch.gamma[N + p], ch.beta[N + p],
                     gamma_reduced(spec, mc, rp), beta_reduced(spec, mc, rp)))
        p += 1
    return rows


def in_guard_band(u, band=mpf("0.125")):
    du_int = abs(u - mp.nint(u))
    du_half = abs(u - (mp.floor(u) + mpf(1) / 2))
    return du_int <= band or du_half <= band


def test_A5a_sawtooth_minima_location():
    # central claim: local minima of oracle gamma_{N+p} sit near integer u
    t0 = time.time()
    ok = True
    detail = []
    for N in (40, 80):
        rows = [r for r in scan(N) if mpf("0.1") < r[0] < 3]
        gam = [r[1] for r in rows]
        mins = [i for i in range(1, len(gam) - 1)
                if gam[i] < gam[i - 1] and gam[i] <= gam[i + 1]]
        assert mins, "no interior minima found at N=%d" % N
        for i in mins:
            dist = abs(rows[i][0] - mp.nint(rows[i][0]))
            ok &= dist <= mpf("0.15")
            detail.append("N=%d min at u=%.3f (dist %.3f)" % (N, float(rows[i][0]),
                                                              float(dist)))
    dt = time.time() - t0
    assert report("A5a (minima location)", bool(ok),
                  "; ".join(detail) + ", scan %.0fs" % dt, N=[40, 80],
                  phi_e=SCAN_PHI)


def test_A5b_amplitude_ratio():
    # stated: amplitude at half-integer u exceeds amplitude at integer u by
    # >= 3x. At N <= 80 the dip depth 2 sinh^2 * 2/(A sqrt(N)) is comparable
    # to cosh(phi_e) - 1 for every quartic member, so the contrast is ~1x.
    ratios = []
    for N in (40, 80):
        rows = scan(N)
        us = [r[0] for r in rows]

        def amp_at(x):
            i = min(range(len(us)), key=lambda j: abs(us[j] - x))
            return rows[i][1] - 1

        halves = [amp_at(mpf(h) / 2) for h in (1, 3, 5)]
        ints = [amp_at(mpf(k)) for k in (1, 2)]
        ratios.append((sum(halves) / len(halves)) / (sum(ints) / len(ints)))
    ok = all(r >= 3 for r in ratios)
    report("A5b (amplitude ratio >= 3)", ok,
           "measured %.2fx (N=40), %.2fx (N=80)" %
           (float(ratios[0]), float(ratios[1])),
           value=ratios, bound=3, N=[40, 80], phi_e=SCAN_PHI)
    assert ok, "saw-tooth contrast is not yet formed at N <= 80 (see ledger)"


def test_A5c_reduced_deviation_trend():
    # stated: max |gamma_or - gamma_red|/(gamma_red - 1 + N^{-1/2}) decreasing
    # from N=40 to N=80 and < 0.25 at N=80 away from the guard bands.
    maxdev = {}
    for N in (40, 80):
        devs = []
        for u, go, _, gr, _ in scan(N):
            if not (mpf("0.1") < u < 3) or in_guard_band(u):
                continue
            devs.append(abs(go - gr) / (gr - 1 + mpf(N) ** (-mpf(1) / 2)))
        maxdev[N] = max(devs)
    ok = maxdev[80] < maxdev[40] and maxdev[80] < mpf("0.25")
    report("A5c (reduced-gamma deviation)", ok,
           "max dev N=40: %.2f, N=80: %.2f (bound 0.25)" %
           (float(maxdev[40]), float(maxdev[80])),
           value=[maxdev[40], maxdev[80]], bound=mpf("0.25"), N=[40, 80],
           phi_e=SCAN_PHI)
    assert ok, ("the one-correction reduced form carries O(1) amplitude-ratio "
                "error at desk scale (see ledger)")


def test_A6_beta_sawtooth():
    # same scan; sign, the N-power scaling at the dips, and the trend clause
    rows40, rows80 = scan(40), scan(80)
    sign_ok = all(r[2] > 0 for r in rows40 + rows80)

    # N-power of the dip: beta_or(80)/beta_or(40) at the gamma dips vs the
    # predicted N^{(2|u-ubar|-1)/2nu} ratio (amplitude ratios cancel)
    spec = quartic(SCAN_PHI)

    def dip(rows):
        gam = [r[1] for r in rows]
        i = min(range(1, len(gam) - 1), key=lambda j: gam[j])
        return rows[i]

    d40, d80 = dip(rows40), dip(rows80)
    pow_pred = (mpf(80) ** ((2 * abs(d80[0] - mp.nint(d80[0])) - 1) / 2)
                / mpf(40) ** ((2 * abs(d40[0] - mp.nint(d40[0])) - 1) / 2))
    pow_meas = d80[2] / d40[2]
    power_ok = pow_pred / 3 < pow_meas < pow_pred * 3

    devs = {}
    for N, rows in ((40, rows40), (80, rows80)):
        ds = [abs(bo - br) / (br + mpf(N) ** (-mpf(1) / 2))
              for u, _, bo, _, br in rows
              if mpf("0.1") < u < 3 and not in_guard_band(u)]
        devs[N] = max(ds)
    trend_ok = devs[80] < devs[40]

    report("A6 (beta saw-tooth)", sign_ok and power_ok and trend_ok,
           "sign %s, dip N-power meas/pred %.2f, max dev %.2f -> %.2f" %
           (sign_ok, float(pow_meas / pow_pred), float(devs[40]), float(devs[80])),
           value=[devs[40], devs[80]], N=[40, 80], phi_e=SCAN_PHI)
    assert sign_ok and power_ok, "beta sign or N-power scaling broken"
    assert trend_ok, ("reduced-beta deviation did not shrink with N at desk "
                      "scale (see ledger)")


# ---------------------------------------------------------------------------
# A7: transition order (t < 0 at phi_e = 1.0; t > 0 fit at phi_e = 0.6)
# ---------------------------------------------------------------------------

def test_A7_transition_order():
    t0 = time.time()
    spec1 = quartic("1.0")
    worst = mpf(0)
    for texp in ("-1e-3", "-1e-4", "-1e-5"):
        t = mpf(texp) * spec1.Tc
        mu = solve_one_cut(spec1.V, spec1.Tc + t, guess=(-2, 2))
        gam = measure_gamma(mu)
        law = transition_curvature(spec1, t)
        worst = max(worst, abs(-2 * mp.log(gam) / law - 1))
    below_ok = worst < mpf("0.10")

    spec2 = quartic("0.6")
    zeta = scaling_zeta(spec2)
    num = den = mpf(0)
    for k in range(7):
        that = mpf(10) ** (-5 + k * mpf(1) / 3)
        if that > mpf("1.01e-3"):
            break
        t = that * spec2.Tc
        mu = solve_two_cut(spec2.V, spec2.Tc + t, guess=two_cut_guess(spec2, t))
        y = -2 * mp.log(gamma_two_cut(mu))
        x = 1 / mp.log(that)
        num += y * x
        den += x * x
    a_fit = num / den
    target = 4 * spec2.nu * spec2.phi_e ** 2
    above_ok = abs(a_fit - target) < mpf("0.15") * target
    dt = time.time() - t0
    ok = below_ok and above_ok and dt < 120
    assert report("A7", ok, "below-Tc worst ratio dev %.3f (<= 0.10), "
                  "above-Tc fit a = %.4f vs 4 nu phi^2 = %.4f (%.1f%%), %.0fs"
                  % (float(worst), float(a_fit), float(target),
                     float(abs(a_fit - target) / target * 100), dt),
                  phi_e=["1.0", "0.6"])


# ---------------------------------------------------------------------------
# A8: filling fraction / expected count (phi_e = 0.5, N = 80)
# ---------------------------------------------------------------------------

COUNT_PHI = "0.5"


def a8_counts():
    spec = quartic(COUNT_PHI)
    N = 80
    ch = oracle_chain(COUNT_PHI, N)
    out = []
    for target in ("0.8", "1.3", "1.8"):
        p = int(mp.nint(mpf(target) * mp.log(N) / (2 * spec.nu * spec.phi_e)))
        rp = make_regime(spec, N, p)
        cnt = expected_count_exact(ch, N + p, spec.e_tilde)
        out.append((target, p, rp, cnt))
    return out


def test_A8_expected_count():
    t0 = time.time()
    rows = a8_counts()
    ok = True
    detail = []
    for target, p, rp, cnt in rows:
        dev = abs(cnt - rp.ubar)
        ok &= dev <= mpf("0.5")
        detail.append("u*=%s: p=%d u=%.3f count=%.3f ubar=%d" %
                      (target, p, float(rp.u), float(cnt), rp.ubar))
    dt = time.time() - t0
    ok &= dt < 600
    assert report("A8", bool(ok), "; ".join(detail) + ", %.0fs" % dt, N=80,
                  phi_e=COUNT_PHI)


# ---------------------------------------------------------------------------
# A9: newborn endpoints vs the two-cut solver (phi_e = 1.0)
# ---------------------------------------------------------------------------

def test_A9_newborn_endpoints():
    t0 = time.time()
    spec = quartic("1.0")
    zeta = scaling_zeta(spec)
    rels = []
    for texp in ("1e-3", "1e-4"):
        t = mpf(texp) * spec.Tc
        mu = solve_two_cut(spec.V, spec.Tc + t, guess=two_cut_guess(spec, t))
        half_solver = (mu.endpoints[3] - mu.endpoints[2]) / 2
        half_law = 2 * zeta * (-t / mp.log(t / spec.Tc)) ** (mpf(1) / 2)
        rels.append(abs(half_solver - half_law) / half_law)
    dt = time.time() - t0
    ok = rels[0] < mpf("0.25") and rels[1] < rels[0] and dt < 120
    assert report("A9", bool(ok), "rel dev %.3f (1e-3) -> %.3f (1e-4), %.0fs"
                  % (float(rels[0]), float(rels[1]), dt), phi_e="1.0")


# ---------------------------------------------------------------------------
# A10: kernel reduction (phi_e = 1.05, N = 80; p = nint(1.3 ln N / 2 phi_e)
# = 3 puts u at 1.44) and the count route
# ---------------------------------------------------------------------------

A10_PHI = "1.05"


def test_A10a_kernel_reduction():
    spec = quartic(A10_PHI)
    mc = model_chain(1, 30)
    N = 80
    p = int(mp.nint(mpf("1.3") * mp.log(N) / (2 * spec.phi_e)))
    rp = make_regime(spec, N, p)
    smap = make_scaling_map(spec, N)
    kf, kr = [], []
    for yi in (-2, -1, 0, 1, 2):
        for yj in (-2, -1, 0, 1, 2):
            x1 = smap.x_of_y(mpf(yi))
            x2 = smap.x_of_y(mpf(yj) + mpf(1) / 100)    # dodge the CD diagonal
            kf.append(kernel_full(spec, mc, rp, x1, x2))
            kr.append(kernel_reduced(spec, mc, rp, x1, x2))
    sup = max(abs(v) for v in kf)
    dev = max(abs(a - b) for a, b in zip(kf, kr)) / sup
    ok = dev < mpf("0.2")
    report("A10a (kernel reduction)", bool(ok),
           "sup-norm rel deviation %.3f (bound 0.2; O(N^-1/2) floor ~0.27 "
           "at N=80)" % float(dev), value=dev, bound=mpf("0.2"), N=N,
           phi_e=A10_PHI)
    assert ok, "kernel reduction error is the genuine O(N^{-1/2nu}) term (ledger)"


def test_A10b_kernel_diagonal_count():
    # the same counting integral through an independent route: CD-diagonal
    # kernel_exact quadrature vs the direct psi^2 sums of A8
    t0 = time.time()
    spec = quartic(COUNT_PHI)
    ch = oracle_chain(COUNT_PHI, 80)
    ok = True
    detail = []
    for target, p, rp, cnt in a8_counts():
        xs, ws = panel_nodes(spec.e_tilde, ch.x_max, 24, 64)
        diag = sum(w * kernel_exact(ch, 80 + p, x, x) for x, w in zip(xs, ws))
        ok &= abs(diag - cnt) < mpf("1e-6")
        ok &= abs(diag - rp.ubar) <= mpf("0.5")
        detail.append("u*=%s diag=%.3f" % (target, float(diag)))
    dt = time.time() - t0
    ok &= dt < 600
    assert report("A10b (diagonal count)", bool(ok),
                  "; ".join(detail) + ", %.0fs" % dt, N=80, phi_e=COUNT_PHI)
