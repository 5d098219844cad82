"""Finite-N oracle: closed-form Gaussian checks, the fixed-weight identity,
resolution independence, and the kernel/counting machinery."""

import functools
import random
import time
from collections import OrderedDict
from dataclasses import replace

import mpmath
import pytest
from mpmath import mp, mpf

from birthcut import modelchain, oracle, quadrature
from birthcut.kvio import chain_to_table
from birthcut.oracle import (GUARD_BITS, PANEL_POINTS, POINT_STORE_SIZE,
                             RecChain, build_rec_chain, eval_phi_exact,
                             eval_psi_exact, expected_count_exact,
                             gram_entries, kernel_exact,
                             orthogonality_residual, pihat_direct,
                             psi_values)
from birthcut.poly import Poly, _fixed, _fixed_horner
from birthcut.quadrature import gauss_legendre, panel_nodes
from conftest import model_chain, monic_reference, oracle_chain, quartic


@functools.lru_cache(maxsize=None)
def gaussian_chain():
    return build_rec_chain(Poly([0, 0, mpf(1) / 2]), 1, 1, n_max=20,
                           bits=256, nodes=2048)


@functools.lru_cache(maxsize=None)
def small_quartic_chain(bits=320, nodes=3008):
    spec = quartic("1.0")
    return build_rec_chain(spec.V, 10, spec.Tc, n_max=14, bits=bits, nodes=nodes)


def test_gaussian_closed_form():
    ch = gaussian_chain()
    with mp.workprec(256):
        assert max(abs(ch.gsq[n] - n) for n in range(1, 21)) < mpf("1e-40")
        assert max(abs(b) for b in ch.beta) < mpf("1e-40")
        assert abs(mp.exp(ch.log_h[0]) - mp.sqrt(2 * mp.pi)) < mpf("1e-40")


def test_fixed_weight_identity_small_n():
    # h_0, h_1 from the chain equal the 1- and 2-dimensional partition-function
    # ratios Z_1/Z_0 and Z_2/Z_1 computed by direct quadrature: the n-dependent
    # temperature T_c n/N couples as n/T = N/T_c, one fixed weight
    spec = quartic("1.0")
    ch = small_quartic_chain()
    with mp.workprec(320):
        coupling = mpf(10) / spec.Tc
        w = lambda x: mp.exp(-coupling * spec.V(x))
        lo, hi = float(ch.x_min), float(ch.x_max)
        Z1 = mpmath.quad(w, [lo, 0, hi])
        assert abs(Z1 - mp.exp(ch.log_h[0])) < mpf("1e-25") * Z1
        # Z_2 = (1/2) int int (x-y)^2 w w = h_0 h_1; reduce to 1-dim moments
        m0 = Z1
        m1 = mpmath.quad(lambda x: x * w(x), [lo, 0, hi])
        m2 = mpmath.quad(lambda x: x * x * w(x), [lo, 0, hi])
        Z2 = m2 * m0 - m1 * m1
        assert abs(Z2 - mp.exp(ch.log_h[0] + ch.log_h[1])) < mpf("1e-22") * Z2


def test_beta0_is_first_moment_ratio():
    spec = quartic("1.0")
    ch = small_quartic_chain()
    with mp.workprec(320):
        coupling = mpf(10) / spec.Tc
        w = lambda x: mp.exp(-coupling * spec.V(x))
        lo, hi = float(ch.x_min), float(ch.x_max)
        mu0 = mpmath.quad(w, [lo, 0, hi])
        mu1 = mpmath.quad(lambda x: x * w(x), [lo, 0, hi])
        assert abs(ch.beta[0] - mu1 / mu0) < mpf("1e-25")


def test_orthogonality_independent_grid():
    ch = small_quartic_chain()
    pairs = [(n, m) for n in range(7) for m in range(n, 7)]
    assert orthogonality_residual(ch, pairs) < mpf("1e-15")


def test_resolution_independence():
    base = small_quartic_chain()
    finer = small_quartic_chain(bits=384, nodes=4544)
    with mp.workprec(320):
        for n in range(1, 13):
            assert abs(base.gamma[n] - finer.gamma[n]) < mpf("1e-12") * finer.gamma[n]


def test_gamma_matches_renormed_h():
    ch = small_quartic_chain()
    with mp.workprec(320):
        for n in (3, 9):
            assert abs(ch.gamma[n] - mp.exp((ch.log_h[n] - ch.log_h[n - 1]) / 2)) \
                < mpf("1e-30")


def test_psi_orthonormal_and_kernel():
    ch = small_quartic_chain()
    with mp.workprec(320):
        xs, ws = panel_nodes(ch.x_min, ch.x_max, 60, 64)
        acc = mpf(0)
        cross = mpf(0)
        for x, wq in zip(xs, ws):
            acc += wq * eval_psi_exact(ch, 5, x) ** 2
            cross += wq * eval_psi_exact(ch, 5, x) * eval_psi_exact(ch, 8, x)
        assert abs(acc - 1) < mpf("1e-20")
        assert abs(cross) < mpf("1e-20")
        # CD kernel equals the direct sum
        x1, x2 = mpf("0.4"), mpf("-0.9")
        cd = kernel_exact(ch, 6, x1, x2)
        direct = sum(eval_psi_exact(ch, j, x1) * eval_psi_exact(ch, j, x2)
                     for j in range(6))
        assert abs(cd - direct) < mpf("1e-10")
        # projector trace
        tr = expected_count_exact(ch, 6, ch.x_min, ch.x_max, panels=40)
        assert abs(tr - 6) < mpf("1e-8")
        # diagonal derivative form continuous with near-diagonal values
        d1 = kernel_exact(ch, 6, x1, x1)
        d2 = kernel_exact(ch, 6, x1, x1 + mpf("1e-6"))
        assert abs(d1 - d2) < mpf("1e-3") * max(abs(d1), mpf(1))


def test_pihat_inhomogeneous_recursion_residual():
    ch = small_quartic_chain()
    with mp.workprec(320):
        for x in (mpf("3.2"), mpf("4.5")):
            vals = [pihat_direct(ch, n, x) for n in range(8)]
            h0 = mp.exp(ch.log_h[0])
            r0 = x * vals[0] - (vals[1] + ch.beta[0] * vals[0] + h0)
            assert abs(r0) < mpf("1e-12") * h0
            for n in range(1, 7):
                r = x * vals[n] - (vals[n + 1] + ch.beta[n] * vals[n]
                                   + ch.gsq[n] * vals[n - 1])
                assert abs(r) < mpf("1e-12") * max(abs(vals[n]), abs(h0) * mpf("1e-12"))


def test_pihat_at_a_node_is_the_finite_limit():
    # the node's PV term (pi_n w)(x_i) - (pi_n w)(x) over x - x_i divided by
    # zero at x = x_i; its limit is -g_i (pi_n w)'(x_i), and pihat_n is smooth
    # there, so it equals the mean of the values at x_i -+ 2^-100
    ch = oracle_chain("0.62", 20, nodes=1024)
    h = mp.ldexp(1, -100)
    with mp.workprec(ch.prec):
        for i in (0, 500, len(ch.xs) - 1):
            xi = ch.xs[i]
            got = pihat_direct(ch, 10, xi)
            mean = (pihat_direct(ch, 10, xi - h) + pihat_direct(ch, 10, xi + h)) / 2
            assert abs(got - mean) <= mpf("1e-50") * abs(mean), i


def test_phi_wronskian_with_psi():
    # the Casoratian gamma_n (psi_n phi_{n-1} - psi_{n-1} phi_n) is n-free;
    # checks the phi normalization against psi without any asymptotics
    ch = small_quartic_chain()
    spec = quartic("1.0")
    x = spec.e + mpf("0.3")
    with mp.workprec(320):
        vals = []
        for n in (4, 9):
            w = ch.gamma[n] * (eval_psi_exact(ch, n, x) * eval_phi_exact(ch, n - 1, x)
                               - eval_psi_exact(ch, n - 1, x) * eval_phi_exact(ch, n, x))
            vals.append(w)
        assert abs(vals[0] - vals[1]) < mpf("1e-12") * abs(vals[0])


def test_phi_factor_is_good_to_a_few_ulp():
    # phi_n = pihat_n e^{(N/2T_c) V(x) - ln h_n / 2} against pihat_n times
    # that factor at twice the chain's precision (N/T_c as the chain forms
    # it), at 15 points across the domain: the exponent is formed in fixed
    # point, so its size (up to about 40 here) costs no bits
    ch = oracle_chain("0.62", 20, nodes=1024)
    prec = ch.prec
    with mp.workprec(prec):
        coupling = ch.weight.coupling
        pts = [ch.x_min + (ch.x_max - ch.x_min) * (3 * i + 1) / 45
               for i in range(15)]
    for n in (1, 7, 15):
        for x in pts:
            with mp.workprec(prec):
                got = eval_phi_exact(ch, n, x)
                q = pihat_direct(ch, n, x)
            with mp.workprec(2 * prec):
                ref = q * mp.exp(coupling / 2 * ch.weight.V(x) - ch.log_h[n] / 2)
                ulp = mp.ldexp(1, got._mpf_[2] + got._mpf_[3] - prec)
                assert abs(got - ref) <= 4 * ulp, (n, x, abs(got - ref) / ulp)


def test_one_cut_gamma_limit_below_tc():
    # for T well below T_c, gamma_n -> (b-a)/4 of the equilibrium measure
    # at T = T_c n/N, with an error falling like N^-2: 2.29e-4, 5.67e-5 and
    # 1.42e-5 at N = 20, 40, 80, a ratio of 4.0 per doubling
    from birthcut.equilibrium import solve_one_cut
    spec = quartic("1.0")
    frac = mpf("0.6")
    tols = {20: mpf("1e-3"), 40: mpf("2.5e-4"), 80: mpf("6e-5")}
    devs = []
    for N, tol in tols.items():
        n = int(N * frac)
        ch = build_rec_chain(spec.V, N, spec.Tc, n_max=n + 1, bits=256, nodes=3008)
        mu = solve_one_cut(spec.V, spec.Tc * n / N, guess=(-1.5, 1.5))
        target = (mu.endpoints[1] - mu.endpoints[0]) / 4
        devs.append(abs(ch.gamma[n] / target - 1))
        assert devs[-1] < tol, (N, devs[-1])
    assert all(a >= 3 * b for a, b in zip(devs, devs[1:])), devs


def test_kernel_precision_at_n_near_N():
    # the integer Stieltjes kernel keeps each node's own exponent; a single
    # fixed-point scale flushes the newborn well's tiny entries to zero and
    # is off by ~1e-25 near n = N, where those entries have grown
    spec = quartic("0.62")
    chains = [build_rec_chain(spec.V, 80, spec.Tc, n_max=94, bits=bits,
                              nodes=1024, check_orthogonality=False)
              for bits in (320, 448)]
    base, fine = chains
    assert (base.x_min, base.x_max) == (fine.x_min, fine.x_max)
    with mp.workprec(448):
        for name in ("beta", "gamma", "log_h"):
            dev = max(abs(x - y) for x, y in zip(getattr(base, name),
                                                 getattr(fine, name)))
            assert len(getattr(base, name)) == 95
            assert dev <= mpf("1e-70"), (name, dev)


def test_integer_evaluators_match_mpf_recurrence():
    # psi, both kernel forms and the count against a plain mpf recurrence at
    # 640 bits on the same chain data, at n = n_max; next to x_min and x_max
    # p_n grows fastest and the fixed-point block is rescaled most often
    spec = quartic("0.5")
    ch = build_rec_chain(spec.V, 80, spec.Tc, bits=320, nodes=1024,
                         check_orthogonality=False)
    n = ch.n_max
    assert n == 94
    with mp.workprec(320):
        pts = [(x, x + mpf(1) / 7) for x in (
            ch.x_min + mpf("0.05"), mpf("-1.3"), mpf("0.2"),
            spec.e_tilde + mpf("0.1"), spec.e, ch.x_max - mpf("0.05"))]
        got = [(eval_psi_exact(ch, n, x), kernel_exact(ch, n, x, x),
                kernel_exact(ch, n, x, x2)) for x, x2 in pts]
        xs, gw = panel_nodes(spec.e_tilde, ch.x_max, 2, 64)
        count = expected_count_exact(ch, n, spec.e_tilde, panels=2)
    with mp.workprec(640):
        c = ch.weight.coupling
        lh = (ch.log_h[n] + ch.log_h[n - 1]) / 2
        dV = spec.V.deriv()
        for (x, x2), (psi, diag, off) in zip(pts, got):
            q, p, dq, dp = monic_reference(ch.beta, ch.gsq, n, x)
            q2, p2, _, _ = monic_reference(ch.beta, ch.gsq, n, x2)
            s = c / 2 * dV(x)
            refs = (p * mp.exp(-c / 2 * spec.V(x) - ch.log_h[n] / 2),
                    ch.gamma[n] * mp.exp(-c * spec.V(x) - lh)
                    * ((dp - s * p) * q - (dq - s * q) * p),
                    ch.gamma[n] * mp.exp(-c / 2 * (spec.V(x) + spec.V(x2)) - lh)
                    * (p * q2 - q * p2) / (x - x2))
            for name, v, ref in zip(("psi", "diag", "off"), (psi, diag, off), refs):
                assert abs(v - ref) <= mpf("1e-70") * abs(ref), (name, x)
        ref = mpf(0)
        for x, g in zip(xs, gw):
            q, p, acc = mpf(0), mpf(1), mpf(0)
            for j in range(n):
                acc += p * p / mp.exp(ch.log_h[j])
                q, p = p, (x - ch.beta[j]) * p - ch.gsq[j] * q
            ref += g * mp.exp(-c * spec.V(x)) * acc
        assert abs(count - ref) <= mpf("1e-70") * ref


def test_rejects_low_precision():
    with pytest.raises(ValueError):
        build_rec_chain(Poly([0, 0, 1]), 4, 1, bits=128)


def test_coarse_pinned_grid_fails_the_top_check():
    # 320 nodes resolve the low pairs (0,0), (1,3), (4,4) to 2.9e-21 but
    # leave gamma_n up to 35% off; the top pairs say so
    spec = quartic("0.62")
    with pytest.raises(ArithmeticError, match="orthonormality residual"):
        build_rec_chain(spec.V, 80, spec.Tc, n_max=94, bits=320, nodes=320)


@pytest.mark.parametrize("N", [40, 80])
def test_default_build_climbs_to_the_first_converged_rung(N, monkeypatch):
    # the ladder starts where the Gaussian of the same n_max would (21 panels
    # at n_max = 52, 43 at 94) and keeps the 43-panel rung, whose chain
    # agrees with the pinned 6000-node one to the converged bound
    spec = quartic("0.62")
    ref = oracle_chain("0.62", N, nodes=6000)
    bound = oracle.converged_residual(320)
    checked = []
    residual = oracle.orthogonality_residual
    monkeypatch.setattr(oracle, "orthogonality_residual",
                        lambda ch, pairs, grid=None: checked.append(
                            (len(ch.grid), residual(ch, pairs, grid)))
                        or checked[-1][1])
    ch = build_rec_chain(spec.V, N, spec.Tc, n_max=ref.n_max, bits=320)
    assert [n for n, _ in checked] == {40: [21 * 64, 43 * 64],
                                       80: [43 * 64]}[N]
    assert len(ch.grid) == 43 * 64 and ch.converged is True
    assert ch.resid == checked[-1][1] <= bound
    n = ch.n_max
    coarse = build_rec_chain(spec.V, N, spec.Tc, n_max=n, bits=320,
                             nodes=21 * 64, check_orthogonality=False)
    assert coarse.resid is None and coarse.converged is None
    with mp.workprec(320):
        assert residual(coarse, ((n, n), (n, 0))) > bound
        pairs = list(zip(ch.gamma[1:], ref.gamma[1:])) \
            + list(zip(ch.beta, ref.beta))          # gamma_0 = 0 by convention
        assert all(abs(a - b) <= bound * abs(b) for a, b in pairs)


def test_table_export():
    ch = gaussian_chain()
    text = chain_to_table(ch)
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert len(lines) == ch.n_max + 1
    toks = lines[3].split()
    assert toks[0] == "3" and len(toks) == 5
    with mp.workprec(256):
        assert abs(mpf(toks[2]) - ch.gamma[3]) < mpf("1e-25")


@pytest.fixture(scope="module")
def chain_grids():
    """(name, grid, weight, panels) of the grids of the N = 80, phi_e = 0.62
    oracle (its build grid and its default check grid, caught once from
    `orthogonality_residual`) and of the model chains at nu = 1, k_max = 30
    and nu = 6."""
    built = []
    make = oracle.Weight.grid

    def spy(weight, panels, F):
        grid = make(weight, panels, F)
        built.append((grid, weight, panels))
        return grid

    ch = oracle_chain("0.62", 80)
    out = [("oracle build", ch.grid, ch.weight, len(ch.xs) // PANEL_POINTS)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle.Weight, "grid", spy)
        orthogonality_residual(ch, ((0, 0),))
    out.append(("oracle check",) + built.pop())
    for nu, k_max in ((1, 30), (6, 30)):
        mc = model_chain(nu, k_max)
        out.append(("model nu=%d" % nu, mc.grid, mc.weight,
                    len(mc.xs) // PANEL_POINTS))
    return out


def test_chain_grids_are_their_weights_grids(chain_grids):
    # the build and check grids of an oracle and of model chains are
    # Weight.grid of the chain's weight at their panel count, bit for bit;
    # the check grid's weight is the chain's own
    ch = oracle_chain("0.62", 80)
    for name, grid, w, panels in chain_grids:
        again = w.grid(panels, grid.F)
        assert (again.X, again.U, again.K, again.m, again.mirrored) == \
            (grid.X, grid.U, grid.K, grid.m, grid.mirrored), name
        if name.startswith("oracle"):
            assert w is ch.weight, name


def test_counting_grid_is_the_weight_with_other_ends(monkeypatch):
    # expected_count_exact's grid is the chain's weight with the counting
    # interval's ends: the same V, N and T_c, bit for bit the replaced
    # weight's grid and the node-by-node reference
    spec = quartic("0.62")
    ch = replace(oracle_chain("0.62", 20, nodes=1024))
    built = []
    make = oracle.Weight.grid
    monkeypatch.setattr(oracle.Weight, "grid", lambda w, panels, F:
                        built.append((w, panels, F)) or make(w, panels, F))
    for lo, hi in ((spec.e_tilde, None), (ch.x_min, spec.e_tilde)):
        with mp.workprec(ch.prec):
            expected_count_exact(ch, 12, lo, hi, panels=3)
        w, panels, F = built.pop()
        assert (w.V, w.N, w.Tc) == (ch.weight.V, ch.weight.N, ch.weight.Tc)
        assert (w.lo, w.hi) == (lo, ch.x_max if hi is None else hi)
        assert (panels, F) == (3, ch.grid.F)
        grid = make(replace(ch.weight, lo=w.lo, hi=w.hi), panels, F)
        assert (grid.X, grid.U, [k + grid.m for k in grid.K]) == \
            reference_grid(w, panels, F)


def test_node_grid_nodes_are_exact_prec_bit_values(chain_grids):
    for name, grid, w, panels in chain_grids:
        lo, hi = w.lo, w.hi
        prec = grid.F - GUARD_BITS
        assert len(grid.xs) == len(grid.X) == panels * PANEL_POINTS, name
        assert all(x._mpf_[3] <= prec for x in grid.xs), name
        with mp.workprec(2 * grid.F):
            assert all(mp.ldexp(X, -grid.F) == x
                       for x, X in zip(grid.xs, grid.X)), name
        # the nodes of the composite rule, to their rounding
        with mp.workprec(prec):
            ts, _ = gauss_legendre(PANEL_POINTS)
        with mp.workprec(640):
            h = (mpf(hi) - mpf(lo)) / panels
            for i in range(0, len(grid.xs), 61):
                p, j = divmod(i, PANEL_POINTS)
                x = lo + p * h + h * (ts[j] + 1) / 2
                assert abs(grid.xs[i] - x) <= mp.ldexp(abs(x) + 1, 1 - prec), \
                    (name, i)


def test_node_grid_roots_match_mpf_weights(chain_grids):
    # sqrt(g_i w_i) = U_i 2^-(F + K_i + m) against sqrt(g exp(-c V(x_i))) at
    # 640 bits, at both domain ends, in the newborn well (where w is about
    # e^{-1.96 N} on the N = 80 oracle) and at every 41st node
    e = quartic("0.62").e
    for name, grid, w, panels in chain_grids:
        V, lo, hi = w.V, w.lo, w.hi
        prec = grid.F - GUARD_BITS
        with mp.workprec(prec):          # the coupling as the grid forms it
            c = w.coupling
        n = len(grid)
        well = sorted(range(n), key=lambda i: abs(grid.xs[i] - e))[:32]
        picks = sorted(set(range(32)) | set(range(n - 32, n))
                       | set(range(0, n, 41)) | set(well))
        with mp.workprec(prec):
            _, gs = gauss_legendre(PANEL_POINTS)
        with mp.workprec(640):
            h = (mpf(hi) - mpf(lo)) / (2 * panels)
            for i in picks:
                x = grid.xs[i]
                ref = mp.sqrt(h * gs[i % PANEL_POINTS] * mp.exp(-c * V(x)))
                got = mp.ldexp(grid.U[i], -(grid.F + grid.K[i] + grid.m))
                assert abs(got - ref) <= mp.ldexp(ref, 4 - prec), (name, i)


def reference_grid(weight, panels, F):
    """(X, U, K + m) of every node of the weight's `Weight.grid`, each node
    formed on its own as the builder forms an oracle grid: the reference for
    its mirrored grids."""
    prec = F - GUARD_BITS
    with mp.workprec(prec):
        ts, gs = gauss_legendre(PANEL_POINTS)
    with mp.workprec(F + 16):
        LO, HI = _fixed(mpf(weight.lo), F), _fixed(mpf(weight.hi), F)
        H = (HI - LO) // panels
        T = [_fixed(t, F) + (1 << F) for t in ts]
        roots = []
        for w in gs:
            man, ex = mp.sqrt(mp.ldexp(mpf(H), -F - 1) * w).man_exp
            bl = man.bit_length()
            roots.append((man << (F - bl) if bl < F else man >> (bl - F),
                          -(ex + bl)))
    C = weight.poly(F)
    X, U, K = [], [], []
    for i in range(panels):
        for tj, (Sj, sj) in zip(T, roots):
            x = LO + i * H + (H * tj >> (F + 1))
            d = abs(x).bit_length() - prec
            if d > 0:
                x = ((x >> (d - 1)) + 1 >> 1) << d
            _, k, W = oracle._root_weight(C, x, F)
            X.append(x)
            U.append(W * Sj >> F)
            K.append(k + sj)
    return X, U, K


def test_even_weight_grids_are_mirrored(chain_grids):
    # an even V on [-a, a] forms the upper half node by node and mirrors
    # it: X[n-1-j] = -X[j] with the same U and K, the upper half bit for bit
    # the reference's, for odd and even panel counts (the middle panel of an
    # odd count is split); an odd coefficient or unequal ends form every
    # node, and the oracle's grids are the reference's throughout
    F = 256 + GUARD_BITS
    with mp.workprec(256):
        even = Poly([1, 0, mpf("0.3"), 0, mpf(1) / 4])
        odd = Poly([1, mpf("1e-30"), mpf("0.3"), 0, mpf(1) / 4])
        cases = [(even, -4, 4, 5, True), (even, -4, 4, 10, True),
                 (model_chain(2, 30).weight.V, -7, 7, 3, True),
                 (odd, -4, 4, 5, False), (even, -4, mpf("4.5"), 5, False)]
    for V, lo, hi, panels, mirrored in cases:
        w = oracle.Weight(V, 3, 1, lo, hi)
        with mp.workprec(256):
            grid = w.grid(panels, F)
        X, U, K = reference_grid(w, panels, F)
        n, h = len(X), len(X) // 2
        assert grid.mirrored == mirrored and len(grid) == n
        K_abs = [k + grid.m for k in grid.K]
        if mirrored:
            assert all(grid.X[n - 1 - j] == -grid.X[j] for j in range(n))
            assert grid.U == grid.U[::-1] and grid.K == grid.K[::-1]
            assert (grid.X[h:], grid.U[h:], K_abs[h:]) == (X[h:], U[h:], K[h:])
        else:
            assert (grid.X, grid.U, K_abs) == (X, U, K)
    for name, grid, w, panels in chain_grids:
        if name.startswith("oracle"):
            X, U, K = reference_grid(w, panels, grid.F)
            assert not grid.mirrored, name
            assert (grid.X, grid.U, [k + grid.m for k in grid.K]) == \
                (X, U, K), name
        else:
            assert grid.mirrored, name


def unfolded_gram(grid, beta, gamma, ln_h0, pairs):
    """`gram_entries` summed over every node of the grid, both halves."""
    top = max(max(pq) for pq in pairs)
    F = grid.F
    vecs, alpha, out = [], [], []
    with mp.workprec(F + 16):
        for a, e, _, al in oracle._node_vectors(grid, beta, gamma, ln_h0,
                                                top + 1):
            vecs.append((a, e))
            alpha.append(al)
        for n, m_ in pairs:
            (a, e), (b, f) = vecs[n], vecs[m_]
            P = sum(x * y >> (F + i + j) for x, y, i, j in zip(a, b, e, f))
            out.append(mp.ldexp(mpf(P), -F) / (alpha[n] * alpha[m_]))
    return [+v for v in out]


@pytest.mark.parametrize("nu, k_max, prec", [(1, 8, 320), (1, 9, 320),
                                             (2, 30, 256)])
def test_folded_gram_entries_match_an_unfolded_sweep(nu, k_max, prec):
    # every pair up to n_max on the chain's own (mirrored) grid: the even
    # pairs to the last unit of the working precision (9.3e-97 at 320 bits,
    # 1.7e-77 at 256), the odd ones exactly 0 where the unfolded sweep
    # leaves its rounding asymmetry
    ch = model_chain(nu, k_max, prec)
    n = ch.n_max
    pairs = [(j, k) for j in range(n + 1) for k in range(j, n + 1)]
    with mp.workprec(ch.prec):
        got = gram_entries(ch.grid, ch.beta, ch.gamma, ch.log_h[0], pairs)
        ref = unfolded_gram(ch.grid, ch.beta, ch.gamma, ch.log_h[0], pairs)
    assert ch.grid.mirrored
    for v, r, (j, k) in zip(got, ref, pairs):
        if (j + k) % 2:
            assert v == 0 and abs(r) < mpf("1e-80"), (j, k)
        else:
            assert abs(v - r) <= mp.ldexp(1, 1 - prec), (j, k)


def test_sums_on_demand_match_a_sweep_that_forms_every_sum(monkeypatch):
    # the Gram check forms S only at its diagonal pairs' steps and the PV
    # values form none; with every sum formed the entries are bit for bit
    # the same
    ch = oracle_chain("0.62", 20, nodes=1024)
    e_tilde = quartic("0.62").e_tilde
    pairs = ((0, 0), (1, 3), (4, 4), (9, 2), (12, 12), (29, 0))

    def run():
        with mp.workprec(ch.prec):
            return (gram_entries(ch.grid, ch.beta, ch.gamma, ch.log_h[0],
                                 pairs),
                    orthogonality_residual(ch, pairs),
                    expected_count_exact(ch, ch.n_max, e_tilde, panels=2),
                    oracle._pv_values(ch, 10))

    lazy = run()
    sweep = oracle._node_vectors
    monkeypatch.setattr(
        oracle, "_node_vectors",
        lambda grid, beta, gamma, ln_h0, count, sums=():
            sweep(grid, beta, gamma, ln_h0, count, range(count)))
    assert run() == lazy


def test_counts_resume_one_sweep_per_grid(monkeypatch):
    # counts taken in any order on one chain equal those of a fresh chain;
    # each counting grid keeps one sweep, which a count at a larger n
    # resumes by exactly the missing steps and one at a smaller n leaves be
    ch = replace(oracle_chain("0.62", 20, nodes=1024))
    e_tilde = quartic("0.62").e_tilde
    top = ch.n_max + 1
    counts = [(n, e_tilde, None, 2) for n in (top - 2, top - 7, 1, top, 9)]
    counts += [(n, e_tilde, None, 3) for n in (12, top, 4)]
    counts += [(8, e_tilde, ch.x_max, 2), (0, e_tilde, None, 2),
               (17, ch.x_min, None, 2)]
    got = [expected_count_exact(ch, *c) for c in counts]
    assert got == [expected_count_exact(replace(ch), *c) for c in counts]
    steps = []
    advance = oracle._advance
    monkeypatch.setattr(oracle, "_advance",
                        lambda *a: steps.append(1) or advance(*a))
    assert expected_count_exact(ch, 9, e_tilde, ch.x_max, 2) == got[4]
    assert expected_count_exact(ch, 3, e_tilde, panels=3) > 0
    assert not steps
    fresh = replace(ch)
    expected_count_exact(fresh, 5, e_tilde, panels=2)
    steps.clear()
    expected_count_exact(fresh, 9, e_tilde, panels=2)
    assert len(steps) == 4


def test_count_stopped_mid_sweep_starts_over(monkeypatch):
    # a sweep left by an exception cannot resume; the next count on that
    # grid builds it again instead of summing the entries it had given
    ch = replace(oracle_chain("0.62", 20, nodes=1024))
    e_tilde = quartic("0.62").e_tilde
    steps = []
    advance = oracle._advance

    def stop_at_third(*a):
        steps.append(1)
        if len(steps) == 3:
            raise RuntimeError("stopped")
        return advance(*a)
    monkeypatch.setattr(oracle, "_advance", stop_at_third)
    with pytest.raises(RuntimeError, match="stopped"):
        expected_count_exact(ch, 9, e_tilde, panels=2)
    assert expected_count_exact(ch, 9, e_tilde, panels=2) \
        == expected_count_exact(replace(ch), 9, e_tilde, panels=2)


def test_count_index_range():
    ch = oracle_chain("0.62", 20, nodes=1024)
    e_tilde = quartic("0.62").e_tilde
    for n in (-1, ch.n_max + 2):
        with pytest.raises(ValueError, match="n = %d not in 0..%d"
                           % (n, ch.n_max + 1)):
            expected_count_exact(ch, n, e_tilde, panels=2)
    assert 0 < expected_count_exact(ch, ch.n_max + 1, e_tilde,
                                    panels=2) < ch.n_max + 1



def test_resumed_point_states_change_no_bits():
    # psi and both kernel forms from states resumed in the point store equal
    # those of a chain with an empty store, with n rising, repeated and
    # falling; next to x_min and x_max the block exponent shifts at every
    # step. psi_values then still matches eval_psi_exact bit for bit.
    ch = replace(oracle_chain("0.62", 20, nodes=1024))
    with mp.workprec(ch.prec):
        pts = [ch.x_min + mpf("0.05"), mpf("-0.7"),
               quartic("0.62").e_tilde + mpf("0.1"), ch.x_max - mpf("0.05")]
        for n in (3, 11, 11, ch.n_max, 7, 1, 2):
            for x in pts:
                x2 = x - mpf(1) / 7
                calls = [(eval_psi_exact, n, x), (kernel_exact, n, x, x),
                         (kernel_exact, n, x, x2), (kernel_exact, n, x2, x)]
                got = [f(ch, *args) for f, *args in calls]
                assert got == [f(replace(ch), *args) for f, *args in calls]
            if n == ch.n_max:            # the block exponent E has risen
                assert all(ch.point(x).state[5] > 0 for x in pts[::3])
        for x in pts:
            psis = psi_values(ch, ch.n_max, x)
            assert all(v == eval_psi_exact(ch, k, x)
                       for k, v in enumerate(psis))


def test_point_store_keeps_its_cap():
    ch = replace(model_chain(1, 8))
    with mp.workprec(ch.prec):
        xs = [mpf(i) / 1000 for i in range(POINT_STORE_SIZE + 50)]
        for x in xs:
            eval_psi_exact(ch, 1, x)
        kernel_exact(ch, 1, xs[-1], xs[-1])
    assert len(ch._points) == POINT_STORE_SIZE
    assert (xs[-1]._mpf_, True) in ch._points \
        and (xs[0]._mpf_, False) not in ch._points


def test_grid_at_rising_n_costs_each_point_its_largest_n(monkeypatch):
    # A10b's pattern: the diagonal kernel over one counting grid at three
    # rising n resumes each point, so a point takes max(n) recurrence steps
    # in all, not the sum of the three n
    ch = replace(oracle_chain("0.62", 20, nodes=1024))
    spec = quartic("0.62")
    xs, ws = panel_nodes(spec.e_tilde, ch.x_max, 2, 64)
    ns = (ch.weight.N + 1, ch.weight.N + 4, ch.weight.N + 9)
    steps = []
    run = oracle._monic_steps
    monkeypatch.setattr(oracle, "_monic_steps", lambda c, X, state, n, *a:
                        steps.append(n - state[0]) or run(c, X, state, n, *a))
    diag = [mp.fsum(w * kernel_exact(ch, n, x, x) for x, w in zip(xs, ws))
            for n in ns]
    assert sum(steps) == len(xs) * max(ns)
    monkeypatch.setattr(oracle, "_monic_steps", run)
    for n, d in zip(ns, diag):
        assert d == mp.fsum(w * kernel_exact(replace(ch), n, x, x)
                            for x, w in zip(xs, ws))
        count = expected_count_exact(ch, n, spec.e_tilde, panels=2)
        assert abs(d - count) < mpf("1e-20") * count


def test_diagonal_kernel_is_the_sum_of_psi_squares():
    # the derivative form leaves out the V' terms of (pi_n w)', which cancel
    # exactly; on the N = 80 oracle it is sum_{k<n} psi_k^2 on the cut and
    # in the newborn well
    spec = quartic("0.5")
    ch = oracle_chain("0.5", 80)
    n = ch.weight.N + 4
    with mp.workprec(ch.prec):
        for x in (mpf("-1.0"), mpf("0.5"), spec.e_tilde + mpf("0.1"), spec.e):
            direct = mp.fsum(eval_psi_exact(ch, k, x) ** 2 for k in range(n))
            diag = kernel_exact(ch, n, x, x)
            assert abs(diag - direct) <= mpf("1e-60") * direct, x


def test_chain_sweeps_build_no_mpf_grid(monkeypatch):
    # every chain grid comes from the integer builder: no composite rule
    # from `quadrature.panel_nodes`, no mpf weight or node per node, and a
    # count of mpf exp and sqrt calls that follows the steps, not the nodes;
    # a counting sweep forms no mpf log at all, nor a warm diagonal kernel
    # pass an mpf exp
    def refuse(*args, **kwargs):
        raise AssertionError("per-node mpf grid in a chain sweep")

    calls = {"exp": [], "sqrt": [], "log": []}
    for fn in calls:
        real = getattr(mp, fn)
        monkeypatch.setattr(mp, fn, lambda *a, real=real, fn=fn, **k:
                            calls[fn].append(1) or real(*a, **k))
    xs = oracle.NodeGrid.__dict__["xs"]
    monkeypatch.setattr(quadrature, "panel_nodes", refuse)
    monkeypatch.setattr(RecChain, "point", refuse)
    monkeypatch.setattr(oracle.NodeGrid, "xs", property(refuse))
    monkeypatch.setattr(modelchain, "_chains", OrderedDict())
    spec = quartic("0.62")
    ch = build_rec_chain(spec.V, 12, spec.Tc, n_max=15, bits=256, nodes=512)
    assert orthogonality_residual(ch, ((0, 0), (2, 5))) < mpf("1e-15")
    calls["log"].clear()
    assert 0 < expected_count_exact(ch, 12, spec.e_tilde, panels=2) < 12
    assert not calls["log"]
    mc = modelchain.build_chain(2, k_max=6, nodes=256)
    monkeypatch.setattr(oracle.NodeGrid, "xs", xs)
    assert len(ch.xs) == 512 and len(mc.xs) == 320
    # one square root per GL weight of each of the four grids, and about two
    # calls per step and chain entry; one call per node would make 1600
    assert len(calls["exp"] + calls["sqrt"]) < 4 * PANEL_POINTS + 150, \
        len(calls["exp"] + calls["sqrt"])
    monkeypatch.undo()
    with mp.workprec(ch.prec):
        pts = [spec.e_tilde + mpf(k) / 10 for k in range(8)]
        cold = [kernel_exact(ch, 12, x, x) for x in pts]
        exps = []
        monkeypatch.setattr(mp, "exp", lambda *a, **k: exps.append(1))
        assert [kernel_exact(ch, 12, x, x) for x in pts] == cold
    assert not exps


def reference_counts(ch, ns, lo, panels):
    """expected_count_exact(ch, n, lo, panels=panels) for each n in ns from
    a sweep written out with mpf per-step scalars: the shift from mp.log,
    beta 2^F and gamma^2 2^(F - s) from mp.ldexp, and every node's square
    summed."""
    F = ch.prec + GUARD_BITS
    lo_, hi_ = F - oracle.BAND_BITS, F + oracle.BAND_BITS
    with mp.workprec(ch.prec):
        grid = replace(ch.weight, lo=lo).grid(panels, F)
    with mp.workprec(F + 16):
        a, e = oracle._start_vector(grid, mp.exp(ch.log_h[0]))
        c = [0] * len(a)
        alpha, s, terms = mpf(1), 0, []
        for k in range(max(ns)):
            if k:
                s_prev, s = s, int(mp.nint(mp.log(alpha * ch.gamma[k], 2)))
                B = int(mp.ldexp(ch.beta[k - 1], F))
                G = int(mp.ldexp(ch.gamma[k - 1] ** 2, F - s_prev))
                na, nc, ne = [], [], []
                for xi, ai, ci, ei in zip(grid.X, a, c, e):
                    v = ((xi - B) * ai - G * ci) >> (F + s)
                    bl = v.bit_length()
                    if bl < lo_ and v:
                        v, ai, ei = v << F - bl, ai << F - bl, ei + F - bl
                    elif bl > hi_ and ei:
                        d = min(bl - F, ei)
                        v, ai, ei = v >> d, ai >> d, ei - d
                    na.append(v)
                    nc.append(ai)
                    ne.append(ei)
                a, c, e = na, nc, ne
                alpha = mp.ldexp(alpha * ch.gamma[k], -s)
            S = sum(v * v >> (F + 2 * ei) for v, ei in zip(a, e))
            terms.append(mp.ldexp(mpf(S), -F) / (alpha * alpha))
        counts = [mp.fsum(terms[:n]) for n in ns]
    with mp.workprec(ch.prec):
        return [+v for v in counts]


def test_counts_match_a_sweep_with_mpf_scalars():
    # the A8 counts (N = 80, phi_e = 0.5, 24 panels on [e_tilde, x_max]),
    # and a 2-panel grid taken to n_max + 1, bit for bit as the sweep with
    # mpf per-step scalars gives them
    spec = quartic("0.5")
    ch = oracle_chain("0.5", 80)
    ns = [80 + int(mp.nint(mpf(u) * mp.log(80) / (2 * spec.nu * spec.phi_e)))
          for u in ("0.8", "1.3", "1.8")]
    assert [expected_count_exact(ch, n, spec.e_tilde) for n in ns] \
        == reference_counts(ch, ns, spec.e_tilde, 24)
    small = oracle_chain("0.62", 20, nodes=1024)
    ns = [1, 9, small.n_max + 1]
    lo = quartic("0.62").e_tilde
    assert [expected_count_exact(replace(small), n, lo, panels=2)
            for n in ns] == reference_counts(small, ns, lo, 2)


def test_nearest_shift_is_nint_log2():
    # on random mpfs of every precision and size, on exact powers of 2 and
    # within 2^-100 of 2^(k + 1/2), where the rounding of log2 turns
    rng = random.Random(5)
    with mp.workprec(368):
        xs = [mp.ldexp(mpf(rng.random()) + mpf(rng.getrandbits(300)) / 2 ** 300,
                       rng.randint(-400, 400)) for _ in range(400)]
        xs += [mp.ldexp(1, k) for k in range(-300, 300, 7)]
        for k in range(-40, 40, 3):
            mid = mp.ldexp(mp.sqrt(2), k)
            xs += [mid * (1 + d * mp.ldexp(1, -100)) for d in (-1, 1)]
            xs += [mid * (1 + d * mp.ldexp(1, -300)) for d in (-1, 1)]
        for x in xs:
            assert oracle._nearest_shift(x) == int(mp.nint(mp.log(x, 2))), x


def test_point_weights_are_good_to_a_few_ulp():
    # w and w^2 of a point against exp(-(N/2T_c) V(x)) at twice the chain's
    # precision (N/T_c as the chain forms it), on the cut, in the newborn
    # well, next to both domain ends and outside the domain; G is
    # (N/2T_c) V(x) in fixed point, which phi reads
    spec = quartic("0.5")
    ch = replace(oracle_chain("0.5", 80))
    prec, F = ch.prec, ch.prec + GUARD_BITS
    with mp.workprec(prec):
        coupling = ch.weight.coupling
        pts = [mpf("-1.0"), mpf("0.5"), spec.e_tilde + mpf("0.1"), spec.e,
               ch.x_min + mpf("0.001"), ch.x_max - mpf("0.001"),
               ch.x_min - mpf("0.5"), ch.x_max + 1]
        got = [ch.point(x) for x in pts]
    with mp.workprec(2 * prec):
        for x, pt in zip(pts, got):
            arg = coupling / 2 * spec.V(x)
            ref = mp.exp(-arg)
            for v, r in ((pt.w, ref), (pt.w2, ref * ref)):
                ulp = mp.ldexp(1, v._mpf_[2] + v._mpf_[3] - prec)
                assert abs(v - r) <= 4 * ulp, (x, abs(v - r) / ulp)
            assert abs(mp.ldexp(pt.G, -F) - arg) <= mp.ldexp(1 + abs(arg), 16 - F)


def test_diagonal_shortcut_is_the_derivative_form(monkeypatch):
    # x' = x takes the derivative form without the threshold test; a pair
    # 1e-9 apart takes it too, and one 1e-6 apart the CD quotient. The form
    # agrees with gamma_n w^2 (p_n' p_{n-1} - p_{n-1}' p_n)/sqrt(h_n h_{n-1})
    # in mpf at 640 bits
    spec = quartic("0.62")
    ch = replace(oracle_chain("0.62", 20, nodes=1024))
    n = ch.weight.N + 3
    flags = []
    point = oracle._monic_point
    monkeypatch.setattr(oracle, "_monic_point", lambda c, n, x, deriv=False:
                        flags.append(deriv) or point(c, n, x, deriv))
    with mp.workprec(ch.prec):
        for x in (mpf("-0.7"), spec.e_tilde + mpf("0.1"), spec.e):
            flags.clear()
            diag = kernel_exact(ch, n, x, x)
            assert kernel_exact(ch, n, x, x + mpf("1e-9")) == diag
            assert flags == [True, True]
            kernel_exact(ch, n, x, x + mpf("1e-6"))
            assert flags[2:] == [False, False]
            with mp.workprec(640):
                q, p, dq, dp = monic_reference(ch.beta, ch.gsq, n, x)
                with mp.workprec(ch.prec):
                    c = ch.weight.coupling
                ref = ch.gamma[n] * mp.exp(-c * ch.weight.V(x) - (ch.log_h[n] + ch.log_h[n - 1]) / 2) \
                    * (dp * q - dq * p)
                assert abs(diag - ref) <= mpf("1e-90") * abs(ref), x


def test_kernel_prefactor_dropped_from_the_memo_changes_no_bits():
    # gamma_n / sqrt(h_n h_{n-1}) is kept in the chain's memo: both kernel
    # forms formed after the memo has dropped it equal a fresh chain's
    ch = replace(oracle_chain("0.62", 20, nodes=1024))
    with mp.workprec(ch.prec):
        x, x2 = quartic("0.62").e_tilde + mpf("0.1"), mpf("-0.7")
        calls = [(n, a, b) for n in (3, ch.weight.N + 3)
                 for a, b in ((x, x), (x, x2), (x2, x))]
        first = [kernel_exact(ch, *args) for args in calls]
        assert ("kernel scale", 3) in ch._memo
        ch._memo.clear()
        again = [kernel_exact(ch, *args) for args in calls]
        assert again == [kernel_exact(replace(ch), *args) for args in calls]
        assert again == first


# Weight.default's ends as the all-mpf scan of V over [-3, 3] gave them:
# quartic oracles (phi_e, N, bits) and model chains y^{2 nu}/(2 nu) (nu,
# k_max, bits), y^2/2 the symmetric case with its minimum on a scan point
DOMAIN_ENDS = [
    ("q", "0.3", 20, 256, -3.5, 5.5), ("q", "1.0", 40, 256, -3.0, 5.5),
    ("q", "0.62", 80, 320, -3.0, 4.5), ("q", "1.3", 320, 512, -3.0, 3.0),
    ("m", 1, 8, 256, -19.5, 19.5), ("m", 1, 200, 512, -61.5, 61.5),
    ("m", 2, 100, 320, -7.0, 7.0), ("m", 4, 55, 320, -3.0, 3.0),
    ("m", 6, 30, 256, -3.0, 3.0),
]


def domain(V, N, Tc, n_max, bits):
    """The ends (lo, hi) of `oracle.Weight.default`."""
    w = oracle.Weight.default(V, N, Tc, n_max, bits)
    return w.lo, w.hi


def domain_args(kind, a, b):
    """(V, N, Tc, n_max) of a `DOMAIN_ENDS` case."""
    if kind == "q":
        spec = quartic(a)
        return spec.V, b, spec.Tc, b + int(mp.ceil(3 * mp.log(b)))
    return Poly([0] * (2 * a) + [mpf(1) / (2 * a)]), 1, 1, b - 1


def mpf_domain(V, N, Tc, n_max, bits):
    """`domain` as a walk in mpf alone: V_min the mpf minimum of all 401
    points of [-3, 3], then each end walked out in half-steps."""
    coupling, budget = mpf(N) / Tc, oracle.domain_budget(bits)
    lo, hi = mpf(-3), mpf(3)
    vmin = min(V(lo + (hi - lo) * k / 400) for k in range(401))

    def deficit(x):
        return coupling * (V(x) - vmin) - 2 * n_max * mp.log(1 + abs(x)) - budget

    while deficit(lo) < 0:
        lo -= mpf(1) / 2
        vmin = min(vmin, V(lo))
    while deficit(hi) < 0:
        hi += mpf(1) / 2
        vmin = min(vmin, V(hi))
    return lo, hi


@pytest.mark.parametrize("kind, a, b, bits, lo, hi", DOMAIN_ENDS)
def test_domain_ends_from_the_float_scan(kind, a, b, bits, lo, hi):
    # the ends decided in integers are the pinned ones and the all-mpf
    # walk's, whose V_min is the mpf minimum of all 401 scan points
    V, N, Tc, n_max = domain_args(kind, a, b)
    with mp.workprec(bits):
        assert domain(V, N, Tc, n_max, bits) == (lo, hi) \
            == mpf_domain(V, N, Tc, n_max, bits)


@pytest.mark.parametrize("kind, a, b, bits, lo, hi", DOMAIN_ENDS)
def test_domain_walk_confirms_each_end_in_mpf(kind, a, b, bits, lo, hi):
    # each end is where the walk's mpf deficit first reaches 0: >= 0 at
    # the end, and < 0 one half-step inside it where the end is past +-3,
    # with V_min over the scan and the points walked up to that end
    V, N, Tc, n_max = domain_args(kind, a, b)
    with mp.workprec(bits):
        ends = domain(V, N, Tc, n_max, bits)
        coupling, budget = mpf(N) / Tc, oracle.domain_budget(bits)
        vmin = min(V(mpf(-3) + mpf(3) * k / 200) for k in range(401))
        for end in ends:
            steps = range(6, int(2 * abs(end)) + 1)
            vmin = min([vmin] + [V(mp.sign(end) * h / 2) for h in steps])

            def deficit(x):
                return (coupling * (V(x) - vmin)
                        - 2 * n_max * mp.log(1 + abs(x)) - budget)

            assert deficit(end) >= 0, end
            if abs(end) > 3:
                assert deficit(end - mp.sign(end) / 2) < 0, end


@pytest.mark.parametrize("bits", [256, 320])
@pytest.mark.parametrize("N", [3, 40, 160])
@pytest.mark.parametrize("phi_e", ["0.5", "0.62", "1.0", "1.3"])
def test_quartic_domain_ends_are_the_mpf_walks(phi_e, N, bits):
    V, N, Tc, n_max = domain_args("q", phi_e, N)
    with mp.workprec(bits):
        assert domain(V, N, Tc, n_max, bits) == mpf_domain(V, N, Tc, n_max,
                                                           bits)


@pytest.mark.parametrize("V, N, Tc", [
    (Poly([0, 0, 1]), 10, 0), (Poly([0, 0, 1]), 10, -1),
    (Poly([0, 0, 1]), 0, 1), (Poly([0, 0, -1]), 10, 1),
    (Poly([0, 1, 0, 1]), 10, 1), (Poly([1]), 10, 1)])
def test_default_weight_needs_a_growing_exponent(V, N, Tc):
    # the walk ends only where (N/Tc) V grows without bound; with these it
    # never met the budget and walked out for ever
    with pytest.raises(ValueError, match="need N/Tc > 0"):
        oracle.Weight.default(V, N, Tc, 10, 256)


def test_default_weight_that_grows_too_slowly_is_an_error():
    # 1e-3 x^2 ends at +-515; with 1e-30 x^2 the walk went on for ever, and
    # now stops at DOMAIN_HALF_STEPS half-steps, |x| about 8195
    with mp.workprec(256):
        w = oracle.Weight.default(Poly([0, 0, mpf("1e-3")]), 1, 1, 10, 256)
        assert (w.lo, w.hi) == (-515, 515)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="V grows too slowly"):
            oracle.Weight.default(Poly([0, 0, mpf("1e-30")]), 1, 1, 10, 256)
        assert time.perf_counter() - start < 1


def test_domain_where_floats_cannot_decide():
    # the all-mpf walk's ends where a float walk could not decide: V out
    # of float range; wells beyond [-3, 3] that lower V_min on the way
    # out; and a deficit that is 0 at 4.5 to within mpf rounding
    bits, n_max = 256, 10
    with mp.workprec(bits):
        budget = oracle.domain_budget(bits)
        tight = (2 * n_max * mp.log(mpf("5.5")) + budget) / mpf("4.5") ** 2
        for V in (Poly([0, 0, mpf("1e400")]), Poly([0, 0, -18, 0, mpf(1) / 4]),
                  Poly([0, mpf(1) / 10, -18, 0, mpf(1) / 4]), Poly([0, 0, tight])):
            assert domain(V, 1, 1, n_max, bits) == mpf_domain(
                V, 1, 1, n_max, bits), V


def test_scan_min_where_floats_cannot_decide():
    # (x^2 - 9/4)^2 - 6e-19 x: both wells' floors are scan points and read
    # 0 in floats, while in mpf the right one is 1.8e-18 lower, and the
    # weight's integer Horner orders them so; and a V whose coefficients
    # overflow floats. Both give the all-mpf walk's ends.
    bits, F = 256, 256 + GUARD_BITS
    wells = Poly([mpf(81) / 16, mpf("-6e-19"), -mpf(9) / 2, 0, 1])
    with mp.workprec(bits):
        three = mpf(3)
        assert wells(three / 2) < wells(-three / 2)
        C = oracle.Weight(wells, 1, 1, -three, three).poly(F)
        assert _fixed_horner(C, 3 << F - 1, F) \
            < _fixed_horner(C, -3 << F - 1, F)
        for V in (wells, Poly([0, 0, mpf("1e400")])):
            assert domain(V, 1, 1, 10, bits) == mpf_domain(V, 1, 1, 10, bits)
