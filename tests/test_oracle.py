"""Finite-N oracle: closed-form Gaussian checks, the fixed-weight identity,
resolution independence, and the kernel/counting machinery."""

import functools
from collections import OrderedDict

import mpmath
import pytest
from mpmath import mp, mpf

from birthcut import modelchain, oracle, quadrature
from birthcut.oracle import (GUARD_BITS, PANEL_POINTS, RecChain,
                             build_rec_chain, chain_to_table, eval_phi_exact,
                             eval_psi_exact, expected_count_exact,
                             gram_entries, kernel_exact,
                             orthogonality_residual, pihat_direct)
from birthcut.poly import Poly
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
        assert max(abs(ch.gamma_sq(n) - n) for n in range(1, 21)) < mpf("1e-40")
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
                                   + ch.gamma_sq(n) * vals[n - 1])
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


def test_one_cut_gamma_limit_below_tc():
    # for T well below T_c, gamma_n -> (b-a)/4 of the equilibrium measure
    from birthcut.equilibrium import solve_one_cut
    spec = quartic("1.0")
    frac = mpf("0.6")
    tols = {20: mpf("0.2"), 40: mpf("0.1"), 80: mpf("0.05")}
    for N, tol in tols.items():
        n = int(N * frac)
        ch = build_rec_chain(spec.V, N, spec.Tc, n_max=n + 1, bits=256, nodes=3008)
        mu = solve_one_cut(spec.V, spec.Tc * frac * n / (N * frac), guess=(-1.5, 1.5))
        mu = solve_one_cut(spec.V, spec.Tc * n / N, guess=(-1.5, 1.5))
        target = (mu.endpoints[1] - mu.endpoints[0]) / 4
        assert abs(ch.gamma[n] / target - 1) < tol


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
        c = mpf(ch.N) / ch.Tc
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


def test_table_export():
    ch = gaussian_chain()
    text = chain_to_table(ch)
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert len(lines) == ch.n_max + 1
    toks = lines[3].split()
    assert toks[0] == "3"
    with mp.workprec(256):
        assert abs(mpf(toks[2]) - ch.gamma[3]) < mpf("1e-25")


def chain_grids(monkeypatch):
    """(name, grid, V, coupling, lo, hi, panels) of the grids of the N = 80,
    phi_e = 0.62 oracle (its build grid and its default check grid, caught
    from `orthogonality_residual`) and of the model chains at nu = 1,
    k_max = 30 and nu = 6."""
    built = []
    make = oracle._node_grid

    def spy(lo, hi, panels, V, coupling, F):
        grid = make(lo, hi, panels, V, coupling, F)
        built.append((grid, V, coupling, lo, hi, panels))
        return grid

    ch = oracle_chain("0.62", 80)
    with mp.workprec(ch.prec):        # the coupling as the builder forms it
        c = mpf(ch.N) / ch.Tc
    out = [("oracle build", ch.grid, ch.V, c, ch.x_min, ch.x_max,
            len(ch.xs) // PANEL_POINTS)]
    monkeypatch.setattr(oracle, "_node_grid", spy)
    orthogonality_residual(ch, ((0, 0),))
    out.append(("oracle check",) + built.pop())
    for nu, k_max in ((1, 30), (6, 30)):
        mc = model_chain(nu, k_max)
        out.append(("model nu=%d" % nu, mc.grid, mc.V, 1, mc.x_min, mc.x_max,
                    len(mc.xs) // PANEL_POINTS))
    return out


def test_node_grid_nodes_are_exact_prec_bit_values(monkeypatch):
    for name, grid, V, c, lo, hi, panels in chain_grids(monkeypatch):
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


def test_node_grid_roots_match_mpf_weights(monkeypatch):
    # sqrt(g_i w_i) = U_i 2^-(F + K_i + m) against sqrt(g exp(-c V(x_i))) at
    # 640 bits, at both domain ends, in the newborn well (where w is about
    # e^{-1.96 N} on the N = 80 oracle) and at every 41st node
    e = quartic("0.62").e
    for name, grid, V, c, lo, hi, panels in chain_grids(monkeypatch):
        prec = grid.F - GUARD_BITS
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


def test_chain_sweeps_build_no_mpf_grid(monkeypatch):
    # every chain grid comes from the integer builder: no composite rule
    # from `quadrature.panel_nodes`, no mpf weight per node, and a count of
    # mpf exp and sqrt calls that follows the steps, not the nodes
    def refuse(*args, **kwargs):
        raise AssertionError("per-node mpf grid in a chain sweep")

    calls = []
    for fn in ("exp", "sqrt"):
        real = getattr(mp, fn)
        monkeypatch.setattr(mp, fn, lambda *a, real=real, **k:
                            calls.append(1) or real(*a, **k))
    monkeypatch.setattr(quadrature, "panel_nodes", refuse)
    monkeypatch.setattr(RecChain, "weight", refuse)
    monkeypatch.setattr(modelchain, "_chains", OrderedDict())
    spec = quartic("0.62")
    ch = build_rec_chain(spec.V, 12, spec.Tc, n_max=15, bits=256, nodes=512)
    assert orthogonality_residual(ch, ((0, 0), (2, 5))) < mpf("1e-15")
    assert 0 < expected_count_exact(ch, 12, spec.e_tilde, panels=2) < 12
    mc = modelchain.build_chain(2, k_max=6, nodes=256)
    assert len(ch.xs) == 512 and len(mc.xs) == 320
    # one square root per GL weight of each of the four grids, and about two
    # calls per step and chain entry; one call per node would make 1600
    assert len(calls) < 4 * PANEL_POINTS + 150, len(calls)
