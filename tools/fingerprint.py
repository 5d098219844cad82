"""Bit-level fingerprint of birthcut's outputs: one `name sha256` line per
output family, so that two checkouts whose lines all agree give the same
bits.

Run from a checkout:  python3 tools/fingerprint.py

Families: the recurrence data, orthogonality residual and `kvio` table text
of three quartic oracles on 1024 nodes, of one on the node ladder and of
three model chains; the oracle's point evaluators at fixed points (psi with
n rising, repeated and falling, both kernel forms, phi and the count) and
the model chain's psi lists and Hilbert pairs; the `asymptotics` forms on
the A10a grid; two one-cut measures, and on a line of its own their
V_eff(b_s); three two-cut quartic measures with their gamma, Lambda and
`kvio` text, and on a line of its own the normalization of all five; the
endpoints, Newton steps and residuals of the 30-solve Newton corpus; the
stdout of six CLI commands run through `cli.main`; the 64-point
Gauss-Legendre rule at 136-512 bits by every start path, with the model
chain's principal-value sums `pihat_direct` at fixed points; and V
and T_c of 13 critical models at nu = 1..5, one line per model, each at 15,
40 and 60 digits.
Values are hashed by their exact mpf tuples, tables and stdout as text.
Uses the standard library and birthcut only; under 10 s on one core.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mpmath import mp, mpf  # noqa: E402  (mpmath is birthcut's one dependency)

from birthcut import (asymptotics, cli, critical, equilibrium,  # noqa: E402
                      kvio, modelchain, oracle, quadrature)
from birthcut.potentials import make_quartic_spec, make_spec  # noqa: E402


def exact(v):
    """v as text that differs whenever a bit of it does: an mpf as its
    (sign, mantissa, exponent, bits) tuple, lists and tuples item by item."""
    if isinstance(v, (list, tuple)):
        return "[%s]" % ",".join(exact(u) for u in v)
    if isinstance(v, mpf):
        return repr(v._mpf_)
    return repr(v)


def emit(name, value):
    text = value if isinstance(value, str) else exact(value)
    print(name, hashlib.sha256(text.encode()).hexdigest(), flush=True)


def chain_families(name, ch):
    emit(name + " recurrence", [ch.n_max, ch.prec, ch.beta, ch.gamma, ch.log_h,
                                ch.gsq, ch.inv_sqrt_h, ch.ln_zeta, ch.beta_fx,
                                ch.gsq_fx, ch.x_min, ch.x_max])
    emit(name + " grid", [ch.grid.F, ch.grid.X, ch.grid.U, ch.grid.K,
                          ch.grid.m, ch.grid.mirrored])
    emit(name + " resid", [ch.resid, ch.converged])
    emit(name + " table", kvio.chain_to_table(ch))


def quartic_oracle(phi_e, N, nodes=None):
    """The quartic oracle at (phi_e, N) with n_max = N + ceil(3 ln N), 320
    bits: pinned to `nodes` nodes with its top-index residual recorded, or
    on the node ladder."""
    spec = make_quartic_spec(mpf(phi_e))
    n_max = N + int(mp.ceil(3 * mp.log(N)))
    if nodes is None:
        return spec, oracle.build_rec_chain(spec.V, N, spec.Tc, n_max=n_max)
    ch = oracle.build_rec_chain(spec.V, N, spec.Tc, n_max=n_max, nodes=nodes,
                                check_orthogonality=False)
    ch.resid = oracle.orthogonality_residual(ch, ((n_max, n_max), (n_max, 0)))
    return spec, ch


def chains():
    for phi_e, N in (("0.62", 40), ("0.62", 80), ("0.5", 80)):
        chain_families("oracle %s %d 1024" % (phi_e, N),
                       quartic_oracle(phi_e, N, 1024)[1])
    chain_families("oracle 0.62 40 ladder", quartic_oracle("0.62", 40)[1])
    for nu, k_max, prec in ((1, 8, 256), (1, 30, 256), (2, 30, 256)):
        chain_families("model %d %d %d" % (nu, k_max, prec),
                       modelchain.build_chain(nu, k_max=k_max, prec=prec))


def evaluators():
    spec, ch = quartic_oracle("0.62", 40, 1024)
    with mp.workprec(ch.prec):
        xs = [ch.x_min + mpf("0.05"), mpf("-0.7"), spec.e_tilde + mpf("0.1"),
              spec.e, ch.x_max - mpf("0.05")]
        ns = (3, 11, 11, ch.n_max, 7, 1, 2, 0)
        emit("oracle psi", [oracle.eval_psi_exact(ch, n, x)
                            for n in ns for x in xs])
        emit("oracle kernel diagonal", [oracle.kernel_exact(ch, n, x, x)
                                        for n in ns[:-1] for x in xs])
        emit("oracle kernel pair", [
            oracle.kernel_exact(ch, n, x, x - mpf(1) / 7)
            for n in ns[:-1] for x in xs])
        emit("oracle phi", [oracle.eval_phi_exact(ch, n, x)
                            for n in (0, 5, 40, ch.n_max) for x in xs[1:4]])
        emit("oracle count", [
            oracle.expected_count_exact(ch, n, spec.e_tilde, panels=4)
            for n in (41, 44, 49, 12)])
    mc = modelchain.build_chain(1, k_max=30, prec=256)
    with mp.workprec(mc.prec):
        ys = [mpf(-2), mpf("-0.37"), mpf(0), mpf("1.25"), mpf(3)]
        emit("model psi_values", [oracle.psi_values(mc, n, y)
                                  for n in (29, 5) for y in ys])
        emit("model phat_values", [oracle.phat_values(mc, k, y)
                                   for k in (0, 1, 4, 12) for y in ys])
        emit("model psihat_values", [oracle.psihat_values(mc, k, y)
                                     for k in (0, 1, 4, 12) for y in ys])


def a10a():
    """The asymptotic forms on A10a's set-up: phi_e = 1.05, N = 80, u near
    1.3, the nu = 1, k_max = 30 model chain, and the 5x5 y-grid."""
    spec = make_quartic_spec(mpf("1.05"))
    mc = modelchain.build_chain(1, k_max=30, prec=256)
    N = 80
    p = int(mp.nint(mpf("1.3") * mp.log(N) / (2 * spec.phi_e)))
    rp = asymptotics.make_regime(spec, N, p)
    smap = asymptotics.make_scaling_map(spec, N)
    ys = [mpf(j) for j in (-2, -1, 0, 1, 2)]
    pairs = [(smap.x_of_y(a), smap.x_of_y(b + mpf(1) / 100))
             for a in ys for b in ys]
    emit("a10a kernel_full", [asymptotics.kernel_full(spec, mc, rp, *xy)
                              for xy in pairs])
    emit("a10a kernel_reduced", [asymptotics.kernel_reduced(spec, mc, rp, *xy)
                                 for xy in pairs])
    emit("a10a psi", [[f(spec, mc, rp, y, off) for off in (0, -1)]
                      for f in (asymptotics.psi_full, asymptotics.psi_reduced,
                                asymptotics.phi_reduced) for y in ys])
    emit("a10a Psi_matrix", [asymptotics.Psi_matrix(spec, mc, rp, y)
                             for y in ys])
    emit("a10a gamma beta", [f(spec, mc, rp) for f in (
        asymptotics.gamma_full, asymptotics.gamma_reduced,
        asymptotics.beta_full, asymptotics.beta_reduced)])


def one_cut():
    """One-cut measures, the quartic at phi_e = 1.0, t/T_c = -1e-3 from its
    first-order drift and nu = 2, e = 2.6 at T_c: the endpoints, M and the
    Newton residual in one line, V_eff(b_s) in another."""
    spec = make_quartic_spec(mpf("1.0"))
    t = mpf("-1e-3") * spec.Tc
    drift = critical.one_cut_drift(spec, t)
    nu2 = make_spec(2, mpf("2.6"))
    mus = (equilibrium.solve_one_cut(spec.V, spec.Tc + t,
                                     (drift["a"], drift["b"])),
           equilibrium.solve_one_cut(nu2.V, nu2.Tc, (-2, 2)))
    emit("one-cut", [[mu.endpoints, mu.M.c, mu.residual] for mu in mus])
    emit("one-cut V_eff(b_s)", [equilibrium.veff_const_bs(mu) for mu in mus])
    return mus


def two_cut():
    """Two-cut quartic measures at (phi_e, t/T_c): the endpoints, m, x0,
    gamma, Lambda at five x > d and the `kvio` text, in one line."""
    values, mus = [], []
    for phi_e, that in (("1.0", "3e-4"), ("0.62", "1e-3"), ("1.3", "1e-5")):
        spec = make_quartic_spec(mpf(phi_e))
        t = mpf(that) * spec.Tc
        mu = equilibrium.solve_two_cut(spec.V, spec.Tc + t,
                                       critical.two_cut_guess(spec, t))
        d = mu.endpoints[3]
        xs = (d + mpf("1e-20"), d + mpf("1e-3"), d + 1, 10 * d, mpf(10) ** 12)
        values += [exact([mu.endpoints, mu.m, mu.x0,
                          equilibrium.gamma_two_cut(mu)]
                         + [equilibrium.lambda_two_cut(mu, x) for x in xs]),
                   kvio.measure_to_kv(mu)]
        mus.append(mu)
    emit("two-cut", "\n".join(values))
    return mus


def normalization(mus):
    """`equilibrium.normalization` of the one- and two-cut measures, the
    bits of `quadrature.integrate_bracket`, in one line."""
    emit("normalization", [equilibrium.normalization(mu) for mu in mus])


def newton_corpus():
    """The 30 cut solves of the Newton corpus: quartic phi_e in
    {1.0, 0.62, 1.3} at t/T_c in {1e-5, 3e-5, 1e-4, 3e-4, 1e-3}, one-cut
    below T_c from (-2, 2) and two-cut above from `two_cut_guess`: the
    endpoints, Newton steps and residual of each, in one line."""
    values = []
    for phi_e in ("1.0", "0.62", "1.3"):
        spec = make_quartic_spec(mpf(phi_e))
        for that in ("1e-5", "3e-5", "1e-4", "3e-4", "1e-3"):
            t = mpf(that) * spec.Tc
            guess = critical.two_cut_guess(spec, t)
            for mu in (equilibrium.solve_one_cut(spec.V, spec.Tc - t, (-2, 2)),
                       equilibrium.solve_two_cut(spec.V, spec.Tc + t, guess)):
                values.append([mu.endpoints, mu.newton_steps, mu.residual])
    emit("newton corpus", values)


COMMANDS = (
    ["chain", "--kmax", "8"],
    ["psi", "--phi-e", "1.05", "--N", "80", "--u", "1.3", "--with-oracle"],
    ["transition", "--phi-e", "1.0", "--t-grid", "1e-4:1e-4:1"],
    ["equilibrium", "--phi-e", "1.0", "--t", "1e-4", "--two-cut"],
    ["critical", "--phi-e", "1.0", "--t", "1e-4"],
    ["validate", "--nu", "2", "--e", "2.6"],
)


def commands():
    for argv in COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        emit("cli " + " ".join(argv), "exit %d\n%s" % (code, out.getvalue()))


def rules():
    """The 64-point rule at 136-512 bits built fresh, refined from the next
    coarser rule cached and rounded from the next finer one (the rule cache
    is restored afterwards), then `pihat_direct` on the (1, 30, 256) model
    chain inside its support, at a node and outside it."""
    paths = [(p, ()) for p in (136, 256, 320, 512)] + [
        (256, (136,)), (320, (256,)), (512, (320,)),
        (136, (256,)), (256, (320,)), (320, (512,))]
    held = dict(quadrature._CACHE)
    values = []
    for prec, cached in paths:
        quadrature._CACHE.clear()
        for p in cached:
            with mp.workprec(p):
                quadrature.gauss_legendre(64)
        with mp.workprec(prec):
            values.append(quadrature.gauss_legendre(64))
    quadrature._CACHE.clear()
    quadrature._CACHE.update(held)
    emit("rules gauss_legendre 64", values)
    mc = modelchain.build_chain(1, k_max=30, prec=256)
    with mp.workprec(mc.prec):
        node = min(x for x in mc.xs if x > mpf("0.7"))
        ys = [mpf(y) for y in ("-3.3", "-0.83", "0.21", "1.17", "2.5")]
        emit("rules pihat_direct", [oracle.pihat_direct(mc, n, y)
                                    for n in (0, 1, 5, 12, 29)
                                    for y in ys + [node, mc.x_max + 4]])


# (nu, e) of the critical models with Q_tilde = 1 of the `potentials` family
POTENTIAL_SPECS = ((1, "2.6"), (2, "2.6"), (3, "2.3"), (4, "2.2"), (5, "2.1"),
                   (1, "2.1"), (1, "5.0"), (2, "2.2"), (2, "5.0"), (3, "2.6"),
                   (3, "5.0"), (4, "3.0"), (5, "2.6"))


def potentials():
    """V and T_c of `make_spec(nu, e)` at 15, 40 and 60 digits, one line
    per model."""
    for nu, e in POTENTIAL_SPECS:
        values = []
        for dps in (15, 40, 60):
            with mp.workdps(dps):
                spec = make_spec(nu, mpf(e))
                values.append([spec.V.c, spec.Tc])
        emit("potentials %d %s" % (nu, e), values)


def main():
    mp.dps = 40                          # the CLI's default working precision
    chains()
    evaluators()
    a10a()
    normalization([*one_cut(), *two_cut()])
    newton_corpus()
    commands()
    rules()
    potentials()


if __name__ == "__main__":
    main()
