"""Regime bookkeeping and the k-sum formulas (no oracle in this file)."""

from collections import OrderedDict

import pytest
from mpmath import mp, mpf

from birthcut.asymptotics import (Psi_matrix, beta_full, beta_reduced,
                                  gamma_full, gamma_reduced, kernel_full,
                                  kernel_reduced, make_regime, make_scaling_map,
                                  phi_reduced, psi_full, psi_reduced, sum_Z,
                                  _k_limit, _terms)
from birthcut import asymptotics, modelchain, oracle
from birthcut.modelchain import A_constant, ln_A_k
from birthcut.oracle import MEMO_SIZE, kernel_exact, psi_values
from birthcut.potentials import make_quartic_spec
from conftest import model_chain, quartic, spec_nu


def test_regime_bookkeeping():
    spec = quartic("1.0")
    rp0 = make_regime(spec, 80, 0)
    assert rp0.u == 0 and rp0.ubar == 0 and not rp0.valid_Z

    # u = 1.3...: ubar = 1, eps = +1
    rp = make_regime(spec, 80, 3)
    assert 1 < rp.u < mpf("1.5")
    assert rp.ubar == 1 and rp.eps_u == 1

    # u = 0.91...: ubar = 1, eps = -1
    rp2 = make_regime(spec, 80, 2)
    assert mpf("0.5") < rp2.u < 1
    assert rp2.ubar == 1 and rp2.eps_u == -1

    with pytest.raises(ValueError):
        make_regime(spec, 2, 1)
    # an index n = N + p below 1 leaves every k-sum empty
    make_regime(spec, 3, -2)
    with pytest.raises(ValueError, match="n = N \\+ p = 0"):
        make_regime(spec, 3, -3)


def test_regime_distance_property():
    spec = quartic("0.77")
    for p in range(0, 12):
        rp = make_regime(spec, 60, p)
        assert rp.eps_u * (rp.u - rp.ubar) <= mpf("0.5") + mpf("1e-30")
        # exponent-gap bookkeeping of the two leading terms
        gap = 1 - 2 * rp.eps_u * (rp.u - rp.ubar)
        assert gap >= -mpf("1e-30")


def test_sum_dominated_by_k0_below_threshold():
    spec = quartic("1.0")
    ch = model_chain(1, 30)
    ln_z = sum_Z(spec, ch, 80, -2)         # u < 0
    assert 0 < ln_z < mpf("0.1")           # ln A_0 = 0 dominates


def test_half_integer_u_ties_neighbor_exponents():
    # at u = 1.5 the N-exponents of k = 1 and k = 2 coincide
    u = mpf("1.5")
    e1 = (2 * u * 1 - 1) / 2
    e2 = (2 * u * 2 - 4) / 2
    assert e1 == e2


def test_truncation_insensitivity():
    spec = quartic("1.0")
    ch = model_chain(1, 30)
    rp = make_regime(spec, 100, 3)
    terms = _terms(spec, ch, 100, 2 * rp.p)
    assert len(terms) == ch.n_max + 2
    s_near = sum(terms[:rp.ubar + 11], mpf(0))
    s_far = sum(terms[:rp.ubar + 21], mpf(0))
    assert abs(s_far - s_near) < mpf("1e-12") * s_far


def _reference_log_terms(spec, chain, rp, shift_exp=0, k_hi=None, half=False):
    """ln of the k-sum terms N^{(2ku - k^2)/2nu} e^{shift_exp k phi_e} A_k at
    rp, k = 0..k_hi, or with half the k -> k + 1/2 variant with amplitudes
    sqrt(A_k A_{k+1}): each sum's own formula, before one table served all."""
    lnA = mp.log(A_constant(spec))
    lnN = mp.log(rp.N)
    if k_hi is None:
        k_hi = _k_limit(chain, rp)
    out = []
    for k in range(k_hi + 1):
        if half:
            kk = k + mpf(1) / 2
            amp = (ln_A_k(chain, lnA, k) + ln_A_k(chain, lnA, k + 1)) / 2
        else:
            kk = mpf(k)
            amp = ln_A_k(chain, lnA, k)
        out.append((2 * kk * rp.u - kk * kk) / (2 * spec.nu) * lnN
                   + shift_exp * kk * spec.phi_e + amp)
    return out


def _reference_sum(spec, chain, rp, shift_exp=0, k_hi=None):
    return sum((mp.exp(e) for e in _reference_log_terms(
        spec, chain, rp, shift_exp, k_hi)), mpf(0))


@pytest.mark.parametrize("spec, chain", [
    (quartic("0.62"), model_chain(1, 30)),
    (quartic("1.05"), model_chain(1, 30)),
    (spec_nu(2, "2.6"), model_chain(2, 25)),
], ids=["quartic-0.62", "quartic-1.05", "nu2-e2.6"])
def test_k_sums_match_their_own_formulas(spec, chain):
    # gamma = sqrt(Z(p+1) Z(p-1))/Z(p) and the rest read one table of terms
    # per index; each must equal the sum written out with its own shift
    rel, absolute = mpf("1e-36"), mpf("1e-38")
    y = mpf("0.3")
    for N in (3, 40, 80, 10 ** 6):
        for p in range(-3, 10):
            if N + p < 2:
                continue
            rp = make_regime(spec, N, p)
            k_hi = _k_limit(chain, rp)
            s0 = _reference_sum(spec, chain, rp)
            gam = mp.sqrt(_reference_sum(spec, chain, rp, 2)
                          * _reference_sum(spec, chain, rp, -2)) / s0
            assert abs(gamma_full(spec, chain, rp) / gam - 1) < rel, (N, p)
            ln_z = sum_Z(spec, chain, N, p)
            assert abs(mp.exp(ln_z) / s0 - 1) < rel, (N, p)

            def mean_k(here):
                ts = [mp.exp(e) for e in _reference_log_terms(
                    spec, chain, here, 0, k_hi)]
                return sum(k * t for k, t in enumerate(ts)) / sum(ts)
            beta = 2 * mp.sinh(spec.phi_e) * (
                mean_k(make_regime(spec, N, p + 1)) - mean_k(rp))
            assert abs(beta_full(spec, chain, rp) - beta) < absolute, (N, p)

            psis = psi_values(chain, k_hi, y)
            pref = mpf(N) ** (mpf(1) / (8 * spec.nu)) \
                * mp.sqrt(A_constant(spec) / (2 * mp.sinh(spec.phi_e)))
            for off in (0, -1):
                here = make_regime(spec, N, p + off)
                amps = [mp.exp(e) for e in _reference_log_terms(
                    spec, chain, here, 1, k_hi, half=True)]
                norm = mp.sqrt(_reference_sum(spec, chain, here, 2)
                               * _reference_sum(spec, chain, here, 0))
                psi = pref * sum(a * v for a, v in zip(amps, psis)) / norm
                got = psi_full(spec, chain, rp, y, off)
                assert abs(got / psi - 1) < rel, (N, p, off)


def test_gamma_and_beta_share_one_table_per_index(monkeypatch):
    # gamma at p reads the indices N + p - 1, N + p, N + p + 1 and beta
    # N + p, N + p + 1: over p = 0..9 that is 12 tables, each built once,
    # all from one base E_k, whose n_max + 2 amplitudes are the only ln A_k
    spec = quartic("1.05")
    ch = model_chain(1, 30)
    N = 57                                   # an N no other test evaluates
    calls = []
    monkeypatch.setattr(ch, "_memo", OrderedDict())
    monkeypatch.setattr(asymptotics, "ln_A_k",
                        lambda c, lnA, k: calls.append(k) or ln_A_k(c, lnA, k))
    for p in range(10):
        rp = make_regime(spec, N, p)
        assert gamma_full(spec, ch, rp) > 0
        beta_full(spec, ch, rp)
    keys = [key for key in ch._memo if key[0] == "k-terms"]
    assert sorted(key[3] for key in keys) == list(range(-2, 21, 2))
    assert all(key[2] == N for key in keys)
    assert len(calls) == ch.n_max + 2
    assert [key for key in ch._memo if key[0] == "k-base"] == \
        [("k-base", spec, N, mp.prec)]


def test_scan_forms_each_base_once_per_N(monkeypatch):
    # the `oracle-scan` benchmark's asymptotic calls on its model chain: at
    # N = 40 and 80, four forms at each of 29 u in (0.1, 3.0). Each new
    # table reads the base at its N, which keeps it in the chain's memo, so
    # no eviction from the MEMO_SIZE entries makes a base twice
    spec = quartic("0.62")
    ch = model_chain(1, 30, nodes=1024)
    calls = []
    monkeypatch.setattr(ch, "_memo", OrderedDict())
    monkeypatch.setattr(asymptotics, "ln_A_k",
                        lambda c, lnA, k: calls.append(k) or ln_A_k(c, lnA, k))
    for N in (40, 80):
        for j in range(29):
            u = mpf("0.15") + mpf(j) / 10
            p = int(mp.nint(u * mp.log(N) / (2 * spec.nu * spec.phi_e)))
            rp = make_regime(spec, N, p)
            for form in (gamma_reduced, gamma_full, beta_reduced, beta_full):
                assert mp.isfinite(form(spec, ch, rp))
    assert calls == 2 * list(range(ch.n_max + 2))


def count_psi_passes(monkeypatch):
    """The list to which each `psi_values` pass, an `oracle._monic_steps`
    call with `every`, appends its point's X from now on."""
    passes = []
    steps = oracle._monic_steps

    def counted(ch, X, state, n, deriv=False, every=None):
        if every is not None:
            passes.append(X)
        return steps(ch, X, state, n, deriv, every)
    monkeypatch.setattr(oracle, "_monic_steps", counted)
    return passes


def test_psi_reduced_and_psi_full_share_one_pass(monkeypatch):
    # psi_reduced reads psi_{ubar-1} and psi_ubar from the pass psi_full
    # makes for its own sum at the same (regime, y)
    spec = quartic("1.05")
    ch = model_chain(1, 30)
    rp = make_regime(spec, 80, 3)
    y = mpf("0.1414213562")                  # a point no other test evaluates
    passes = count_psi_passes(monkeypatch)
    for off in (0, -1):
        psi_reduced(spec, ch, rp, y, off)
        psi_full(spec, ch, rp, y, off)
    assert len(passes) == 1
    with pytest.raises(ValueError):
        psi_reduced(spec, ch, make_regime(spec, 10 ** 6, 400), y)


def test_reduced_positive_and_periodicity_structure():
    spec = quartic("0.77")
    ch = model_chain(1, 30)
    for p in range(1, 10):
        rp = make_regime(spec, 80, p)
        assert gamma_reduced(spec, ch, rp) >= 1
        assert beta_reduced(spec, ch, rp) >= 0


def test_gamma_near_periodicity_in_u():
    # u -> u + 1 shifts ubar by one and leaves the N power invariant; the
    # correction changes only through the amplitude ratio. At phi_e =
    # ln(80)/6 and N = 80, u = p/3: p = 2 and p = 5 are one unit of u apart
    N = 80
    spec = make_quartic_spec(mp.log(N) / 6)
    ch = model_chain(1, 30)
    lnA = mp.log(A_constant(spec))
    rp, rp2 = make_regime(spec, N, 2), make_regime(spec, N, 5)
    assert abs(rp2.u - rp.u - 1) < mpf("1e-30")
    assert (rp2.ubar, rp2.eps_u) == (rp.ubar + 1, rp.eps_u)
    g1 = gamma_reduced(spec, ch, rp) - 1
    g2 = gamma_reduced(spec, ch, rp2) - 1
    ratio = mp.exp(ln_A_k(ch, lnA, rp.ubar + 1 + rp.eps_u) - ln_A_k(ch, lnA, rp.ubar + 1)
                   - ln_A_k(ch, lnA, rp.ubar + rp.eps_u) + ln_A_k(ch, lnA, rp.ubar))
    assert abs(g2 / g1 - ratio) < mpf("1e-20") * ratio


def _closed_form_reduced(spec, chain, rp, y, index_offset):
    """(gamma, beta, psi, phi) reduced at rp, y and index_offset as closed
    forms in N^{(u-ubar)/2nu} and ratios of A_k, each written out on its
    own: the formulas of the reduced forms before they read the term table
    (valid for u >= 0)."""
    nu, phi, N, ub, eps = spec.nu, spec.phi_e, mpf(rp.N), rp.ubar, rp.eps_u
    lnA = mp.log(A_constant(spec))

    def amp(k_num, k_den):
        return mp.exp(ln_A_k(chain, lnA, k_num) - ln_A_k(chain, lnA, k_den))

    ratio = N ** ((2 * abs(rp.u - ub) - 1) / (2 * nu)) * amp(ub + eps, ub)
    gamma = 1 + 2 * mp.sinh(phi) ** 2 * ratio
    beta = 4 * mp.sinh(phi) ** 2 * mp.exp(eps * phi) * ratio
    sgn = 1 if index_offset == 0 else -1
    pref = mp.sqrt(A_constant(spec) / (2 * mp.sinh(phi)))
    pw = N ** ((rp.u - ub) / (2 * nu))
    up = pw * mp.exp(sgn * phi / 2) * mp.sqrt(amp(ub + 1, ub))
    dn = mp.exp(-sgn * phi / 2) * mp.sqrt(amp(ub - 1, ub)) / pw
    psis = psi_values(chain, ub, y)
    lower = dn * psis[ub - 1] if ub >= 1 else mpf(0)
    psi = pref * (up * psis[ub] + lower) \
        / (1 + mp.cosh(phi) * mp.exp(sgn * eps * phi) * ratio)
    hat_dn, hat_up = oracle.psihat_values(chain, ub, y)
    phi_val = pref * (up * hat_up + dn * hat_dn) \
        / (1 + mp.cosh(phi) * mp.exp(-sgn * eps * phi) * ratio)
    return gamma, beta, psi, phi_val


@pytest.mark.parametrize("spec, chain", [
    (quartic("0.62"), model_chain(1, 30)),
    (quartic("1.05"), model_chain(1, 30)),
    (spec_nu(2, "2.6"), model_chain(2, 25)),
], ids=["quartic-0.62", "quartic-1.05", "nu2-e2.6"])
def test_reduced_forms_match_their_closed_forms(spec, chain):
    # for u >= 0 the dominant window of the term table is the paper's
    # closed form; p = 0, 1 at N = 40 and 80 put ubar = 0, where phi's
    # lower term takes A_{-1} = 2 pi/A
    rel = mpf("1e-36")
    y = mpf("0.3")
    seen_ubar0 = False
    for N in (40, 80, 10 ** 6):
        for p in range(12):
            rp = make_regime(spec, N, p)
            seen_ubar0 |= rp.ubar == 0
            for off in (0, -1):
                ref = _closed_form_reduced(spec, chain, rp, y, off)
                got = (gamma_reduced(spec, chain, rp),
                       beta_reduced(spec, chain, rp),
                       psi_reduced(spec, chain, rp, y, off),
                       phi_reduced(spec, chain, rp, y, off))
                for name, g, r in zip(("gamma", "beta", "psi", "phi"), got, ref):
                    assert abs(g / r - 1) < rel, (name, N, p, off)
    assert seen_ubar0


def test_reduced_forms_fall_with_the_full_ones_below_threshold():
    # at u < 0 (ubar = 0) the runner-up term t_1/t_0 vanishes as u -> -inf:
    # gamma_reduced falls to 1 and beta_reduced to 0 with the full sums
    spec = quartic("1.0")
    ch = model_chain(1, 30)
    gammas, betas = [], []
    for p in range(-1, -7, -1):
        rp = make_regime(spec, 80, p)
        assert rp.u < 0 and rp.ubar == 0
        g_r, g_f = gamma_reduced(spec, ch, rp), gamma_full(spec, ch, rp)
        b_r, b_f = beta_reduced(spec, ch, rp), beta_full(spec, ch, rp)
        assert abs(g_r - g_f) < mpf("0.01") * (g_f - 1), p
        assert abs(b_r - b_f) < mpf("0.05") * b_f, p
        gammas.append(g_r)
        betas.append(b_r)
    assert all(a > b > 1 for a, b in zip(gammas, gammas[1:]))
    assert all(a > b > 0 for a, b in zip(betas, betas[1:]))
    assert gammas[-1] - 1 < mpf("1e-6") and betas[-1] < mpf("1e-5")


def test_full_approaches_reduced_at_large_N():
    # the discarded-neighbor term decays like N^{-2|u-ubar|/nu} relative to
    # the kept one, so full -> reduced only once N beats the amplitude ratios
    spec = quartic("1.0")
    ch = model_chain(1, 30)
    devs = []
    for N in (10 ** 6, 10 ** 9):
        p = int(mp.nint(mpf("1.3") * mp.log(N) / (2 * spec.phi_e)))
        rp = make_regime(spec, N, p)
        g_r = gamma_reduced(spec, ch, rp)
        g_f = gamma_full(spec, ch, rp)
        devs.append(abs(g_f - g_r) / (g_r - 1))
        b_r = beta_reduced(spec, ch, rp)
        b_f = beta_full(spec, ch, rp)
        assert abs(b_f - b_r) / b_r < 3 * mpf(N) ** (-mpf(1) / (2 * spec.nu)) + mpf("0.05")
    assert devs[1] < devs[0] < mpf("0.05")


def test_psi_matrix_assembles_scalars():
    spec = quartic("1.0")
    ch = model_chain(1, 30)
    rp = make_regime(spec, 80, 3)
    y = mpf("0.4")
    M = Psi_matrix(spec, ch, rp, y)
    assert abs(M[1][0] - psi_reduced(spec, ch, rp, y, 0)) < mpf("1e-25")
    assert abs(M[0][0] - psi_reduced(spec, ch, rp, y, -1)) < mpf("1e-25")
    assert abs(M[1][1] - phi_reduced(spec, ch, rp, y, 0)) < mpf("1e-25")
    assert abs(M[0][1] - phi_reduced(spec, ch, rp, y, -1)) < mpf("1e-25")


def test_psi_full_matches_reduced_at_large_N():
    spec = quartic("1.0")
    ch = model_chain(1, 30)
    N = 10 ** 6
    p = int(mp.nint(mpf("1.3") * mp.log(N) / (2 * spec.phi_e)))
    rp = make_regime(spec, N, p)
    for y in (mpf("-0.7"), mpf("0.5"), mpf("1.4")):
        fr = psi_full(spec, ch, rp, y, 0)
        rd = psi_reduced(spec, ch, rp, y, 0)
        assert abs(fr - rd) < mpf("0.02") * max(abs(rd), mpf("0.05"))


def test_both_terms_survive_near_integer_u():
    # at u - ubar ~ 0 the two R entries are O(1): psi_ubar and psi_{ubar-1}
    # both contribute to the reduced wavefunction
    spec = quartic("0.62")
    ch = model_chain(1, 30)
    N = 10 ** 5
    p = int(mp.nint(mp.log(N) / (2 * spec.phi_e)))   # u ~ 1
    rp = make_regime(spec, N, p)
    assert abs(rp.u - 1) < mpf("0.05")
    pw = mpf(N) ** ((rp.u - rp.ubar) / (2 * spec.nu))
    assert mpf("0.5") < pw < 2


def test_kernel_reduced_is_scaled_model_kernel():
    spec = quartic("1.0")
    ch = model_chain(1, 30)
    rp = make_regime(spec, 80, 3)
    smap = make_scaling_map(spec, 80)
    y1, y2 = mpf("0.3"), mpf("-0.9")
    lhs = kernel_reduced(spec, ch, rp, smap.x_of_y(y1), smap.x_of_y(y2))
    rhs = kernel_exact(ch, rp.ubar, y1, y2) * smap.dy_dx()
    assert abs(lhs - rhs) < mpf("1e-25") * max(abs(rhs), mpf("1e-10"))


def test_kernel_full_antisymmetric_numerator():
    spec = quartic("1.0")
    ch = model_chain(1, 30)
    rp = make_regime(spec, 80, 3)
    smap = make_scaling_map(spec, 80)
    x1, x2 = smap.x_of_y(mpf("0.3")), smap.x_of_y(mpf("-0.9"))
    k12 = kernel_full(spec, ch, rp, x1, x2)
    k21 = kernel_full(spec, ch, rp, x2, x1)
    assert abs(k12 - k21) < mpf("1e-20") * abs(k12)


def test_scaling_map_roundtrip():
    spec = quartic("1.0")
    smap = make_scaling_map(spec, 80)
    x = spec.e + mpf("0.01")
    assert abs(smap.x_of_y(smap.y_of_x(x)) - x) < mpf("1e-30")
    assert abs(smap.dy_dx() - 1 / smap.scale) < mpf("1e-30")


def test_psi_matrix_computes_one_seed_per_point(monkeypatch):
    # the four Hilbert partners of one Psi_matrix call share one seed
    seeds = []
    seed = oracle.pihat_direct
    monkeypatch.setattr(oracle, "pihat_direct",
                        lambda ch, n, y: seeds.append(y) or seed(ch, n, y))
    spec = quartic("1.0")
    ch = model_chain(1, 30)
    rp = make_regime(spec, 80, 3)
    y = mpf("0.2718281828")          # a point no other test evaluates
    first = Psi_matrix(spec, ch, rp, y)
    assert len(seeds) == 1
    assert Psi_matrix(spec, ch, rp, y) == first
    assert len(seeds) == 1


# A10a set-up (phi_e = 1.05, N = 80, p = 3, k_max = 30): kernel_full on the
# 5x5 grid of the acceptance test, (psi_full offset 0, offset -1) at
# y = -2..2 and Psi_matrix rows [psi_{n-1}, phi_{n-1}, psi_n, phi_n] at
# y = -1, 0, 1, recorded at 40 digits from the evaluation that recomputed
# every sum, seed and recurrence on each call.
A10A_KERNEL_FULL = [
    "0.1651844701317807412738477116823407304786",
    "0.3484858781667478344729222987099519180458",
    "0.445915838227076720754650421193455366673",
    "0.3460766999054679003889098386682379468431",
    "0.1629084362542842603253250109473594716996",
    "0.3502334647096930497243003385078230561803",
    "0.7390449718303806696760118693074310826231",
    "0.9458788609290568770889811749956060249754",
    "0.7342629325629136320236976970630379539405",
    "0.3457157182542923908384114903030416727861",
    "0.4503994054632615259556685249970323347531",
    "0.9506222455141934156622200931096877733674",
    "1.216940105953710982992230861656743544997",
    "0.944890556541950012134502861707758999699",
    "0.4449845096064693825394605673378315054329",
    "0.3513093608931068976125044601981496742572",
    "0.7416457420118004411639856845966127858556",
    "0.9496289765506531366045048724788574726983",
    "0.7375000978153347316560524457869065721974",
    "0.3473928611022786990283178131039440023193",
    "0.166200904874314099699189543423026156465",
    "0.3509429118568869058883029639841416437984",
    "0.4494586966041859441931108068557979457627",
    "0.3491349570873478796573043884996774356243",
    "0.1644928886254002175154356336205037782735",
]
A10A_PSI_FULL = [
    ("-0.1376508221227656626454788085439112822345", "0.2075045013735275477174837112095735671967"),
    ("-0.01224077517862690542430199539155806606115", "0.5148385675658262548745388508672294487027"),
    ("0.3440079655675916499004316658447411122323", "0.7581177638599438549590751801203937603148"),
    ("0.5490565693054945857670812521170723783723", "0.666039454691937079683270456545754425115"),
    ("0.3926253778481392706394441593781416669249", "0.3503489850869423636038743581144172356403"),
]
A10A_PSI_MATRIX = [
    ("0.7506183866886278530781637750836365209872", "-2.551082311235068376294859606789117858939", "-0.01296187962013606095599048279731542654621", "-1.260573774591321667306218682481345693174"),
    ("1.105342298976181514665679084878951736254", "-0.3347157926610019026563581783969910584325", "0.3649452909616211136704993836557600888173", "-1.01378352571332296002406417950360597832"),
    ("0.9710645093205663133137656194595936682804", "2.314510910041747543763153605056599916825", "0.581401236378400494343444096991955268799", "0.544048906499404716142962969966124503097"),
]


def test_full_forms_match_reference_on_A10a_grid():
    spec = quartic("1.05")
    mc = model_chain(1, 30)
    N = 80
    rp = make_regime(spec, N, int(mp.nint(mpf("1.3") * mp.log(N) / (2 * spec.phi_e))))
    assert rp.p == 3
    smap = make_scaling_map(spec, N)
    tol = mpf("1e-35")
    grid = [(yi, yj) for yi in (-2, -1, 0, 1, 2) for yj in (-2, -1, 0, 1, 2)]
    for (yi, yj), ref in zip(grid, A10A_KERNEL_FULL):
        v = kernel_full(spec, mc, rp, smap.x_of_y(mpf(yi)),
                        smap.x_of_y(mpf(yj) + mpf(1) / 100))
        assert abs(v - mpf(ref)) < tol, (yi, yj)
    for y, refs in zip((-2, -1, 0, 1, 2), A10A_PSI_FULL):
        for off, ref in zip((0, -1), refs):
            assert abs(psi_full(spec, mc, rp, mpf(y), off) - mpf(ref)) < tol, (y, off)
    for y, refs in zip((-1, 0, 1), A10A_PSI_MATRIX):
        flat = [v for row in Psi_matrix(spec, mc, rp, mpf(y)) for v in row]
        assert all(abs(v - mpf(r)) < tol for v, r in zip(flat, refs)), y


def test_A10a_kernel_grid_makes_one_psi_pass_per_point(monkeypatch):
    # kernel_full asks psi_full for both offsets at both points of each of
    # the 25 pairs; the offsets share one k limit and the grid has 10
    # distinct y, so 10 psi_values passes serve all 100 requests
    spec = quartic("1.05")
    mc = model_chain(1, 30)
    N = 80
    rp = make_regime(spec, N, 3)
    smap = make_scaling_map(spec, N)
    passes = count_psi_passes(monkeypatch)
    monkeypatch.setattr(mc, "_memo", OrderedDict())  # none from other tests
    for yi in (-2, -1, 0, 1, 2):
        for yj in (-2, -1, 0, 1, 2):
            kernel_full(spec, mc, rp, smap.x_of_y(mpf(yi)),
                        smap.x_of_y(mpf(yj) + mpf(1) / 100))
    assert len(passes) == len(set(passes)) == 10


def test_chain_memo_stays_bounded_over_every_kind_of_key(monkeypatch):
    # what is kept per point y (psi pass, psi_full value, Hilbert seed) sits
    # in the chain's one memo beside the per-regime values and the term
    # tables, which the reduced forms read at every point; the memo
    # keeps only the MEMO_SIZE keys used last
    spec = quartic("1.05")
    mc = model_chain(1, 30)
    rp = make_regime(spec, 80, 3)
    monkeypatch.setattr(mc, "_memo", OrderedDict())
    for i in range(300):
        y = mpf(i) / 100 - mpf("1.5")
        Psi_matrix(spec, mc, rp, y)
        psi_full(spec, mc, rp, y)
        assert gamma_full(spec, mc, rp) > 0
        assert len(mc._memo) <= MEMO_SIZE
    assert len(mc._memo) == MEMO_SIZE
    assert {key[0] for key in mc._memo} == {
        "pv weights", "pv values", "phat seed", "k-terms", "psi", "psi_full",
        "gamma_full"}


def test_gamma_full_and_A_constant_are_formed_once():
    spec = quartic("1.05")
    mc = model_chain(1, 30)
    rp = make_regime(spec, 80, 4)
    assert gamma_full(spec, mc, rp) is gamma_full(spec, mc, rp)
    assert modelchain.A_constant(spec) is modelchain.A_constant(spec)
    # one value per working precision
    with mp.workprec(mp.prec + 64):
        wide = modelchain.A_constant(spec)
    gap = abs(wide - modelchain.A_constant(spec))
    assert 0 < gap < mpf(10) ** (-mp.dps + 2)
