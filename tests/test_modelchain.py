"""The y^{2 nu}/(2 nu) model chain against Gaussian closed forms and
independently re-integrated identities."""

import random
from collections import OrderedDict
from dataclasses import replace
from types import SimpleNamespace

import pytest
from mpmath import mp, mpf

from birthcut import modelchain, oracle
from birthcut.kvio import chain_to_table
from birthcut.modelchain import (A_constant, build_chain, freud_gsq, ln_A_k,
                                 string_guard_bits)
from birthcut.oracle import (GUARD_BITS, MEMO_SIZE, _fixed, _monic_point,
                             _monic_start, _monic_steps,
                             _to_fixed, build_rec_chain, domain_budget,
                             eval_phi_exact, eval_psi_exact, kernel_exact,
                             orthogonality_residual, phat_values, pihat_direct,
                             psi_values, psihat_values)
from birthcut.poly import Poly
from birthcut.quadrature import panel_nodes
from conftest import (ln_zeta_nu1_exact, model_chain, monic_reference,
                      oracle_chain, quartic)


def test_gaussian_recurrence_closed_form():
    ch = model_chain(1, 55)
    with mp.workprec(256):
        assert max(abs(ch.gsq[k] - k) for k in range(1, 51)) < mpf("1e-40")
        assert max(abs(ch.ln_zeta[k] - ln_zeta_nu1_exact(k))
                   for k in range(51)) < mpf("1e-40")


def test_beta_vanishes_by_parity():
    for nu in (1, 2):
        ch = model_chain(nu, 25 if nu == 2 else 55)
        assert max(abs(b) for b in ch.beta) < mpf("1e-20")


def test_monic_p2():
    ch = model_chain(1, 55)
    y = mpf("0.7")
    _, (_, _, p2, _, _, E) = _monic_point(ch, 2, y)
    p2 = mp.ldexp(mpf(p2), E - ch.prec - GUARD_BITS)
    assert abs(p2 - (y * y - 1)) < mpf("1e-40")


def test_orthonormality_independent_grid():
    ch = model_chain(2, 25)
    pairs = ((0, 0), (3, 3), (11, 11), (2, 7), (0, 12), (5, 6))
    with mp.workprec(256):
        xs, ws = panel_nodes(ch.x_min, ch.x_max, 97, 64)
        acc = [mpf(0)] * len(pairs)
        for x, w in zip(xs, ws):
            psi = psi_values(ch, 12, x)
            for i, (j, k) in enumerate(pairs):
                acc[i] += w * psi[j] * psi[k]
        for v, (j, k) in zip(acc, pairs):
            assert abs(v - (1 if j == k else 0)) < mpf("1e-12"), (j, k)


def test_hat_recurrence_agrees_with_direct_transform():
    # phat by seeded recurrence vs the independent PV integral of P_k w
    ch = model_chain(2, 25)
    with mp.workprec(256):
        for y in (mpf("-1.3"), mpf("0.4"), mpf("2.1")):
            for k in (1, 3, 6):
                _, rec = phat_values(ch, k, y)
                fy = monic_reference(ch.beta, ch.gsq, k, y)[1] \
                    * mp.exp(-y ** 4 / 4)
                acc = mpf(0)
                for x, g, w in zip(ch.xs, ch.grid.gl_w(), ch.grid.wv()):
                    pk = monic_reference(ch.beta, ch.gsq, k, x)[1]
                    acc += g * (pk * w - fy) / (y - x)
                acc += fy * mp.log((y - ch.x_min) / (ch.x_max - y))
                assert abs(rec - acc) < mpf("1e-30") * max(abs(acc), mpf("1e-5"))


def test_hat_satisfies_inhomogeneous_recursion():
    # y phat_k = phat_{k+1} + beta_k phat_k + gamma_k^2 phat_{k-1} + delta_{k0} h_0
    ch = model_chain(2, 25)
    with mp.workprec(256):
        for y in (mpf("-0.8"), mpf("1.7")):
            qm1, q0 = phat_values(ch, 0, y)
            vals = [q0]
            for k in range(1, 8):
                vals.append(phat_values(ch, k, y)[1])
            h0 = mp.exp(ch.log_h[0])
            resid = y * vals[0] - (vals[1] + ch.beta[0] * vals[0] + h0)
            assert abs(resid) < mpf("1e-30")
            for k in range(1, 6):
                resid = y * vals[k] - (vals[k + 1] + ch.beta[k] * vals[k]
                                       + ch.gsq[k] * vals[k - 1])
                assert abs(resid) < mpf("1e-10") * max(abs(vals[k]), mpf("1e-6"))


def test_psihat_normalization_and_minus_one():
    ch = model_chain(1, 55)
    y = mpf("0.9")
    with mp.workprec(256):
        v = psihat_values(ch, 2, y)[1]
        _, q = phat_values(ch, 2, y)
        expect = q * mp.exp(y * y / 4 - ch.log_h[2] / 2)
        assert abs(v - expect) < mpf("1e-35")
        assert abs(psihat_values(ch, 0, y)[0] - mp.exp(y * y / 4)) < mpf("1e-35")


def test_hilbert_factors_are_within_one_ulp():
    # psihat_{k-1}, psihat_k and phi_k are their numerators (phat, pihat)
    # times e^{y^2/4 - ln h_j/2}, to 1 ulp of that product at 600 bits: the
    # factor's exponent is formed in fixed point and the factor rounded once
    ch = model_chain(1, 30)
    for ys in ("-1.3", "0.05", "0.4", "2.1", "3.7"):
        for k in (1, 3, 17, 29):
            with mp.workprec(ch.prec):
                y = mpf(ys)
                got = psihat_values(ch, k, y) + (eval_phi_exact(ch, k, y),)
                nums = phat_values(ch, k, y) + (pihat_direct(ch, k, y),)
            for v, q, j in zip(got, nums, (k - 1, k, k)):
                _, _, ex, bc = v._mpf_
                with mp.workprec(600):
                    ref = q * mp.exp(y * y / 4 - ch.log_h[j] / 2)
                    assert abs(v - ref) <= mp.ldexp(1, ex + bc - ch.prec), \
                        (ys, k, j)


def test_hilbert_evaluators_reject_indices_off_the_chain():
    # pihat_direct and phat_values check their index as every chain
    # evaluator does: below 0 and past n_max are ValueErrors
    ch = model_chain(1, 30)
    y = mpf("0.4")
    for call in (lambda: pihat_direct(ch, -1, y),
                 lambda: pihat_direct(ch, ch.n_max + 1, y),
                 lambda: phat_values(ch, -2, y)):
        with pytest.raises(ValueError, match="out of range"):
            call()


def test_kernel_identities():
    ch = model_chain(2, 25)
    with mp.workprec(256):
        y1, y2 = mpf("0.3"), mpf("-1.1")
        cd = kernel_exact(ch, 5, y1, y2)
        direct = sum(eval_psi_exact(ch, j, y1) * eval_psi_exact(ch, j, y2)
                     for j in range(5))
        assert abs(cd - direct) < mpf("1e-10")
        # antisymmetry of the numerator
        assert abs(kernel_exact(ch, 5, y2, y1) - cd) < mpf("1e-25")
        # diagonal limit consistent with nearby off-diagonal
        d1 = kernel_exact(ch, 4, y1, y1)
        d2 = kernel_exact(ch, 4, y1, y1 + mpf("1e-6"))
        assert abs(d1 - d2) < mpf("1e-4")


def test_integer_evaluators_match_mpf_recurrence():
    # eval_psi_exact and both kernel_exact forms at k = 29 against a plain
    # mpf recurrence at 640 bits, up to the domain ends
    ch = model_chain(1, 55)
    k = 29
    with mp.workprec(256):
        pts = [(y, y + mpf(1) / 7) for y in (
            ch.x_min + mpf("0.1"), mpf("-1.7"), mpf("0.3"), ch.x_max - mpf("0.1"))]
        got = [(eval_psi_exact(ch, k, y), kernel_exact(ch, k, y, y),
                kernel_exact(ch, k, y, y2)) for y, y2 in pts]
    with mp.workprec(640):
        lh = (ch.log_h[k] + ch.log_h[k - 1]) / 2
        for (y, y2), (psi, diag, off) in zip(pts, got):
            q, p, dq, dp = monic_reference(ch.beta, ch.gsq, k, y)
            q2, p2, _, _ = monic_reference(ch.beta, ch.gsq, k, y2)
            refs = (p * mp.exp(-y * y / 4 - ch.log_h[k] / 2),
                    ch.gamma[k] * mp.exp(-y * y / 2 - lh)
                    * ((dp - y / 2 * p) * q - (dq - y / 2 * q) * p),
                    ch.gamma[k] * mp.exp(-(y * y + y2 * y2) / 4 - lh)
                    * (p * q2 - q * p2) / (y - y2))
            for name, v, ref in zip(("psi", "diag", "off"), (psi, diag, off), refs):
                assert abs(v - ref) <= mpf("1e-70") * abs(ref), (name, y)


def test_monic_block_rescales_small_values():
    # gamma_j^2 = j sigma^2, the Gaussian of width sigma = 1e-3: p_n shrinks
    # like sigma^n, past any fixed scale of 2^-F, so the block exponent must
    # follow it down
    with mp.workprec(256):
        beta = [mpf(0)] * 40
        gsq = [j * mpf("1e-6") for j in range(40)]
        F = 256 + GUARD_BITS
        ch = SimpleNamespace(prec=256, beta_fx=_to_fixed(beta, F),
                             gsq_fx=_to_fixed(gsq, F))
        x = mpf("0.0013")
        _, q, p, dq, dp, E = _monic_steps(ch, _fixed(x, F), _monic_start(F),
                                          40, deriv=True)
        got = [mp.ldexp(mpf(v), E - F) for v in (q, p, dq, dp)]
    with mp.workprec(640):
        ref = monic_reference(beta, gsq, 40, x)
        for v, r in zip(got, ref):
            assert abs(v - r) <= mpf("1e-70") * abs(r)


def test_kernel_index_past_chain_top_is_rejected():
    ch = model_chain(1, 55)
    for k in (0, ch.n_max + 1):
        with pytest.raises(ValueError, match="n out of range"):
            kernel_exact(ch, k, mpf("0.3"), mpf("0.5"))


def test_kernel_trace_counts_states():
    ch = model_chain(1, 55)
    with mp.workprec(256):
        xs, ws = panel_nodes(ch.x_min, ch.x_max, 70, 64)
        for k in (1, 6):
            tr = mpf(0)
            for x, w in zip(xs, ws):
                tr += w * kernel_exact(ch, k, x, x)
            assert abs(tr - k) < mpf("1e-8")


def test_h_positive_and_log_convex_tail():
    ch = model_chain(1, 55)
    assert all(mp.isfinite(v) for v in ch.log_h)
    for k in range(4, 50):
        assert ch.log_h[k] > ch.log_h[k - 1]


def test_node_doubling_stability():
    a = build_chain(1, k_max=12, prec=256, nodes=1536)
    b = build_chain(1, k_max=12, prec=256, nodes=3072)
    with mp.workprec(256):
        for k in range(1, 12):
            ga, gb = a.gamma[k], b.gamma[k]
            assert abs(ga - gb) < mpf("1e-15") * gb


def test_A_constant_and_scaling_identity():
    spec = quartic("1.0")
    A = A_constant(spec)
    sh = mp.sinh(spec.phi_e)
    expect = 4 * sh ** 2 * mp.sqrt(2 * sh * spec.Q(spec.e) / spec.Tc)
    assert abs(A - expect) < mpf("1e-25")
    # 4 sinh^2/A = (2 sinh Q(e)/Tc)^{-1/2nu}: the two rescaling maps coincide
    lhs = 4 * sh ** 2 / A
    rhs = (2 * sh * spec.Q(spec.e) / spec.Tc) ** (-mpf(1) / (2 * spec.nu))
    assert abs(lhs - rhs) < mpf("1e-25")


def test_amplitude_ln_A_k():
    spec = quartic("1.0")
    ch = model_chain(1, 55)
    lnA = mp.log(A_constant(spec))
    assert abs(ln_A_k(ch, lnA, 0)) < mpf("1e-30")            # A_0 = 1
    v1 = ln_A_k(ch, lnA, 1)
    expect = ch.ln_zeta[1] - lnA - mp.log(2 * mp.pi)
    assert abs(v1 - expect) < mpf("1e-30")


def test_table_export_format():
    ch = model_chain(1, 55)
    spec = quartic("1.0")
    text = chain_to_table(ch, mp.log(A_constant(spec)))
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert len(lines) == ch.n_max + 1
    toks = lines[5].split()
    assert toks[0] == "5" and len(toks) == 6
    assert abs(mpf(toks[4]) - ch.ln_zeta[5]) < mpf("1e-25") * max(abs(ch.ln_zeta[5]), 1)


def test_psi_and_psihat_pairs_match_single_values():
    ch = model_chain(1, 55)
    y = mpf("-0.6")
    with mp.workprec(256):
        psis = psi_values(ch, 12, y)
        assert len(psis) == 13
        assert all(v == eval_psi_exact(ch, k, y) for k, v in enumerate(psis))
        for k in (1, 4):
            assert psihat_values(ch, k, y)[0] == psihat_values(ch, k - 1, y)[1]


def pihat_reference(ch, n, points):
    """(pihat_n(x), sum_i |g_i w_i p_n(x_i)/(x - x_i)|) for each x in points:
    the plain mpf principal-value sum over the chain's grid at the working
    precision, with the singularity subtracted inside (x_min, x_max) and a
    node's term at x = x_i taken as its limit -g_i w_i (p_n' - (N/T_c) V' p_n)
    (then the scale counts that limit's size instead)."""
    c = ch.weight.coupling
    dV = ch.weight.V.deriv()
    nodes = [(xi, g, g * w, monic_reference(ch.beta, ch.gsq, n, xi))
             for xi, g, w in zip(ch.xs, ch.grid.gl_w(), ch.grid.wv())]
    out = []
    for x in points:
        inside = ch.x_min < x < ch.x_max
        fx = (monic_reference(ch.beta, ch.gsq, n, x)[1] * mp.exp(-c * ch.weight.V(x))
              if inside else 0)
        acc, scale = mpf(0), mpf(0)
        for xi, g, gw, (_, p, _, dp) in nodes:
            if xi == x:
                limit = -gw * (dp - c * dV(xi) * p)
                acc += limit
                scale += abs(limit)
            else:
                acc += (gw * p - g * fx) / (x - xi)
                scale += abs(gw * p / (x - xi))
        if inside:
            acc += fx * mp.log((x - ch.x_min) / (ch.x_max - x))
        out.append((acc, scale))
    return out


def test_integer_seed_matches_mpf_sum():
    # the integer principal-value sweep against the plain mpf sum over the
    # same grid at 640 bits. The model chain's Hilbert seed (n = 0) inside
    # the support, next to a node and outside it, to 1e-60 of the value; at a
    # node, and an N = 20 oracle at n = 0, 10, n_max in the bulk, the newborn
    # well, at a node and outside the support, to 1e-60 of the absolute sum
    mc = model_chain(1, 30)
    node = min(x for x in mc.xs if x > mpf("0.7"))
    oc = oracle_chain("0.62", 20, nodes=1024)
    e = quartic("0.62").e
    cases = [(mc, 0, [mpf("-1.3"), mpf("0.4"), mpf("2.1"), node + mpf("1e-4"),
                      mc.x_max + mpf("0.5")], False),
             (mc, 0, [node], True)]
    cases += [(oc, n, [mpf("-1.3"), mpf("0.3"), e, oc.xs[500],
                       oc.x_max + mpf("0.5")], True)
              for n in (0, 10, oc.n_max)]
    assert oc.n_max == 29
    for ch, n, xs, by_scale in cases:
        with mp.workprec(ch.prec):
            got = [pihat_direct(ch, n, x) for x in xs]
            if n == 0:
                assert got == [phat_values(ch, 0, x)[1] for x in xs]
        with mp.workprec(640):
            for x, v, (ref, scale) in zip(xs, got, pihat_reference(ch, n, xs)):
                bound = scale if by_scale else abs(ref)
                assert abs(v - ref) <= mpf("1e-60") * bound, (n, x)


def test_seed_at_a_node_is_the_finite_limit():
    # y equal to a grid node takes that node's principal-value limit: it is
    # finite, and the seed (pihat_0) is smooth through it, so it lies at the
    # mean of the 640-bit mpf sums at node -+ 1e-30. Off the node, w(y)
    # carries the working precision's 2^-256 relative error, which the
    # difference quotient (w_i - w(y))/(y - x_i) magnifies by 1e30: hence
    # 1e-45.
    ch = build_chain(1, k_max=8, nodes=1024)
    assert ch.x_min == -ch.x_max
    R = ch.x_max
    for node in (ch.xs[600], ch.xs[100]):
        with mp.workprec(256):
            ys = (node - mpf("1e-30"), node + mpf("1e-30"))
            at = pihat_direct(ch, 0, node)
            sides = [pihat_direct(ch, 0, y) for y in ys]
            assert mp.isfinite(psihat_values(ch, 1, node)[1])
        with mp.workprec(640):
            refs = []
            for y in ys:
                wy = mp.exp(-y * y / 2)
                refs.append(mp.fsum(g * (w - wy) / (y - x) for x, g, w in zip(
                    ch.xs, ch.grid.gl_w(), ch.grid.wv()))
                    + wy * mp.log((y + R) / (R - y)))
            for v, ref in zip(sides, refs):
                assert abs(v - ref) <= mpf("1e-45") * abs(ref)
            assert abs(at - (refs[0] + refs[1]) / 2) <= mpf("1e-45") * abs(at)


def test_string_chain_matches_stieltjes_chain():
    # the string-equation chain against the oracle's Stieltjes chain of y^4/4
    # at N = T_c = 1 on 4096 nodes
    mc = build_chain(2, k_max=25)
    with mp.workprec(256):
        oc = build_rec_chain(Poly([0, 0, 0, 0, 1 / 4]), 1, 1, n_max=24,
                             bits=256, nodes=4096)
        for name in ("gamma", "log_h"):
            for a, b in zip(getattr(mc, name), getattr(oc, name)):
                assert abs(a - b) <= mpf("1e-70") * abs(b), name
        assert max(abs(b) for b in oc.beta) < mpf("1e-70")
    assert all(b == 0 for b in mc.beta)


def test_string_recursion_guard_suffices():
    # the forward string recursion loses about 2 bits per step; with the
    # builder's guard, doubling it changes nothing at the working precision
    prec, k_max = 256, 200
    for nu in (2, 6):
        runs = []
        for guard in (string_guard_bits(k_max), 2 * string_guard_bits(k_max)):
            with mp.workprec(prec + guard):
                runs.append(freud_gsq(nu, k_max - 1))
        a, b = runs
        assert len(a) == k_max
        with mp.workprec(prec + 2 * string_guard_bits(k_max)):
            assert max(abs(x - y) / y for x, y in zip(a[1:], b[1:])) \
                <= mpf(2) ** -prec, nu


def test_to_fixed_truncates_toward_zero_like_int_ldexp():
    rng = random.Random(5)
    F = 256 + GUARD_BITS
    with mp.workprec(256):
        values = [mpf(0), mpf(1), mpf(-1), mp.ldexp(mpf(-3), -F - 1),
                  mp.ldexp(mpf(5), -F - 3), 2 ** 300 + mpf(1)]
        for _ in range(300):
            v = mp.ldexp(mpf(rng.random()), rng.randint(-F - 20, 60))
            values.append(v if rng.random() < 0.5 else -v)
        assert _to_fixed(values, F) == [int(mp.ldexp(v, F)) for v in values]


def test_build_chain_shares_one_chain_per_argument_tuple(monkeypatch):
    monkeypatch.setattr(modelchain, "_chains", OrderedDict())
    checks = []
    residual = modelchain.orthogonality_residual
    monkeypatch.setattr(modelchain, "orthogonality_residual",
                        lambda ch, pairs, grid: checks.append(ch)
                        or residual(ch, pairs, grid))
    a = build_chain(1, k_max=4, nodes=128)
    assert len(checks) == 1                            # a fresh build checks
    assert build_chain(1, 4, 256, 128) is a            # defaults applied
    assert len(checks) == 1
    others = [build_chain(1, k_max=4, nodes=256),
              build_chain(1, k_max=5, nodes=128),
              build_chain(1, k_max=4, prec=320, nodes=128)]
    assert len({id(c) for c in others + [a]}) == 4
    assert len(checks) == 4
    assert build_chain(1, k_max=4, nodes=128) is a
    # the cache is bounded: the least recently used chain is built again
    for k in range(6, 6 + modelchain.CHAIN_CACHE_SIZE):
        build_chain(1, k_max=k, nodes=128)
    assert len(modelchain._chains) == modelchain.CHAIN_CACHE_SIZE
    assert build_chain(1, k_max=4, nodes=128) is not a


# the node count of each default build's rung; (1, 30, 256) is the chain of
# scan-u and psi, and (7, 200, 320) one the tail term once sent to 11200
FIRST_CONVERGED_NODES = {(1, 8, 256): 320, (2, 30, 256): 640,
                         (1, 55, 256): 1344, (6, 30, 256): 2752,
                         (1, 100, 320): 2752, (1, 30, 256): 640,
                         (7, 200, 320): 5568}


@pytest.mark.parametrize("nu, k_max, prec", list(FIRST_CONVERGED_NODES))
def test_default_grid_is_the_first_converged_rung(nu, k_max, prec):
    # the default build checks PANEL_LADDER from `first_rung` up and keeps
    # the first rung whose check residual is at most 2^(-3 prec/4) (at 320
    # bits e^-domain_budget); here that is the rung it starts on, and the
    # rung below fails. Its Hilbert seed agrees with the 87-panel rung's
    # (the grid every default build used before) inside and outside the
    # domain
    ch = build_chain(nu, k_max=k_max, prec=prec)
    top = build_chain(nu, k_max=k_max, prec=prec, nodes=4096)
    assert len(ch.grid) == FIRST_CONVERGED_NODES[nu, k_max, prec]
    panels = len(ch.grid) // 64
    assert len(top.grid) == 64 * 87 and 87 in oracle.PANEL_LADDER
    rung = oracle.PANEL_LADDER.index(panels)
    bound = oracle.converged_residual(prec)
    with mp.workprec(prec):
        assert rung == oracle.first_rung(nu, ch.n_max, ch.x_max,
                                             -mp.log(bound, 2))
    pairs = ((ch.n_max, ch.n_max), (ch.n_max, 0))
    with mp.workprec(ch.prec):
        assert ch.resid == orthogonality_residual(ch, pairs, grid=ch.grid)
        assert ch.resid <= bound
        if rung:
            below = ch.weight.grid(oracle.PANEL_LADDER[rung - 1], ch.grid.F)
            assert orthogonality_residual(ch, pairs, grid=below) > bound
        for y in (mpf("-1.3"), mpf("0.4"), mpf("2.1"), mpf("3.3"),
                  top.x_max + 1):
            ref = pihat_direct(top, 0, y)
            assert abs(pihat_direct(ch, 0, y) - ref) <= mpf("1e-70") * abs(ref), y


def test_converged_residual_is_capped_by_the_domain():
    # 3/4 of the working precision, unless the domain's ends leave more out
    assert oracle.converged_residual(256) == mp.ldexp(1, -192)
    for prec in (320, 512):
        assert oracle.converged_residual(prec) == \
            mp.exp(-domain_budget(prec)) > mp.ldexp(1, -(3 * prec) // 4)


def test_folded_pihat_matches_unfolded():
    # on the mirrored grid of a model chain (every beta_k = 0) the
    # principal-value sum folds over the node pairs +-x_j; it agrees to 1
    # unit of 2^-prec with the same chain on an unmirrored copy of its grid,
    # which sums every node, at points inside, on a node and outside
    ch = model_chain(1, 30)
    flat = replace(ch, grid=replace(ch.grid, mirrored=False))
    assert ch.grid.mirrored and not any(ch.beta)
    with mp.workprec(ch.prec):
        node = min(x for x in ch.xs if x > mpf("0.7"))
        ys = [mpf(y) for y in ("-3.3", "-0.83", "0.21", "1.17", "2.5")]
        for n in (0, 1, 5, 12, 29):
            for y in ys + [node, ch.x_max + 4]:
                ref = pihat_direct(flat, n, y)
                assert abs(pihat_direct(ch, n, y) - ref) \
                    <= mp.ldexp(abs(ref), -ch.prec), (n, y)


def test_folded_seed_keeps_its_relative_accuracy_near_zero():
    # pihat_0 is odd in y: the folded sum and the subtracted integral both
    # vanish like y, so each carries y as a factor, not inside a rounding
    # (with y inside the floor divisions pihat_0(1e-30) was about 4e22 units
    # of 2^-256 off). Against the 640-bit mpf sum of the same grid
    ch = model_chain(1, 30)
    ys = [s * mpf(y) for s in (1, -1) for y in ("1e-9", "1e-30")]
    with mp.workprec(ch.prec):
        got = [pihat_direct(ch, 0, y) for y in ys]
    with mp.workprec(640):
        for y, v, (ref, _) in zip(ys, got, pihat_reference(ch, 0, ys)):
            assert abs(v - ref) <= mp.ldexp(abs(ref), 1 - ch.prec), y


def test_explicit_nodes_pin_the_grid():
    # nodes=1024 keeps int(16 x 1.37) = 21 panels and the seed it always had
    ch = build_chain(1, k_max=8, nodes=1024)
    assert len(ch.grid) == 21 * 64
    seeds = {"-1.3": (int("5551957551567341391809294541685922608073"
                          "8186036975912015844642802888575416981"), -254),
             "2.1": (int("2219325729753583210713296683167325179771"
                         "9719665076544407147691359802351761285"), -253)}
    with mp.workprec(256):
        for y, man_exp in seeds.items():
            assert pihat_direct(ch, 0, mpf(y)).man_exp == man_exp, y


def test_unconverged_check_climbs_to_the_top_rung(monkeypatch):
    monkeypatch.setattr(modelchain, "_chains", OrderedDict())
    sizes = []
    monkeypatch.setattr(modelchain, "orthogonality_residual",
                        lambda ch, pairs, grid: sizes.append(len(grid)) or mpf(1))
    with pytest.raises(ArithmeticError, match="orthonormality residual"):
        build_chain(1, k_max=5)          # starts on the bottom rung
    assert sizes == [64 * p for p in oracle.PANEL_LADDER]


def test_512_bit_chain_converges_on_the_top_rung():
    # at k_max = 200 and 512 bits the 87-panel rung leaves a check residual
    # of 1.0e-92, above converged_residual(512) = 3.9e-96
    ch = build_chain(1, k_max=200, prec=512)
    assert len(ch.grid) == 64 * oracle.PANEL_LADDER[-1]
    assert ch.converged is True


def test_table_header_records_grid_and_residual():
    ch = build_chain(1, k_max=8)
    head = chain_to_table(ch).splitlines()[0].split()
    fields = dict(t.split("=") for t in head[1:])
    assert int(fields["nodes"]) == len(ch.grid)
    assert mpf(fields["resid"]) <= oracle.converged_residual(ch.prec)
    assert fields["converged"] == "yes" and ch.converged is True


def test_psi_memo_is_bounded_and_returns_fresh_lists():
    ch = model_chain(1, 55)
    with mp.workprec(256):
        first = psi_values(ch, 3, mpf("0.125"))
        first.append(None)                       # the caller's own list
        again = psi_values(ch, 3, mpf("0.125"))
        assert again == first[:-1] and again is not first
        for i in range(1000):
            psi_values(ch, 3, mpf(i) / 997)
        assert len(ch._memo) == MEMO_SIZE
        assert all(key[:2] == ("psi", 3) for key in ch._memo)
        assert psi_values(ch, 3, mpf("0.125")) == again


def test_unconverged_ladder_is_recorded_and_reported(monkeypatch, capsys):
    # a check that stays above converged_residual but below 1e-20 ends the
    # ladder on its top rung: the chain says so, its table header says so,
    # and `chain` warns once on stderr and still exits 0
    from birthcut.cli import main
    monkeypatch.setattr(modelchain, "_chains", OrderedDict())
    resid = mp.ldexp(1, -100)
    monkeypatch.setattr(modelchain, "orthogonality_residual",
                        lambda ch, pairs, grid: resid)
    with mp.workdps(mp.dps):             # main sets the global precision
        assert main(["chain", "--nu", "1", "--kmax", "5"]) == 0
    out, err = capsys.readouterr()
    ch = build_chain(1, k_max=5, prec=320)
    assert len(ch.grid) == 64 * oracle.PANEL_LADDER[-1]
    assert ch.converged is False and ch.resid == resid
    assert "converged=no" in out.splitlines()[0]
    assert len(err.splitlines()) == 1 and mp.nstr(resid, 3) in err
