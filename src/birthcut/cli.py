"""Command-line front end.

Subcommands: validate, equilibrium, critical, chain, scan-u, psi, transition,
compare. All numeric output is CSV with a header row or key=value blocks,
deterministic at fixed precision. Exit codes: 0 ok, 1 validation failure,
2 usage/IO error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import re
import sys
from collections import OrderedDict

from mpmath import mp, mpf

from . import asymptotics, critical, equilibrium, kvio, modelchain, oracle
from .oracle import _recent
from .potentials import make_quartic_spec, make_spec, validate_critical

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


# what one process keeps between commands: a transition and an equilibrium
# at the same t share their measure. The bounds keep memory flat on any grid.
SPEC_CACHE_SIZE = 4
MEASURE_CACHE_SIZE = 8
_specs = OrderedDict()      # (option text, prec) -> CriticalSpec
_measures = OrderedDict()   # (spec, t, two_cut, prec) -> EqMeasure


def _fmt(x, digits=17):
    return mp.nstr(mpf(x), digits)


def _load_spec(args):
    """The spec the options name. One built from --phi-e or --nu/--e is kept
    under the option text and the precision, and the last SPEC_CACHE_SIZE
    of them are reused; a --spec FILE spec is read afresh on every call,
    since the file may change."""
    if args.spec:
        try:
            with open(args.spec) as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError("cannot read spec file: %s" % exc)
        try:
            return kvio.spec_from_kv(text)
        except (ValueError, KeyError) as exc:
            raise UsageError("malformed spec file %s: %s" % (args.spec, exc))
    if args.phi_e is not None and (args.nu is None or args.nu == 1):
        return _recent(_specs, ("phi_e", args.phi_e, mp.prec),
                       lambda: make_quartic_spec(mpf(args.phi_e)),
                       SPEC_CACHE_SIZE)
    if args.nu is not None and args.e is not None:
        return _recent(_specs, ("nu", args.nu, args.e, mp.prec),
                       lambda: make_spec(args.nu, mpf(args.e)), SPEC_CACHE_SIZE)
    raise UsageError("need --spec FILE, or --phi-e (nu=1), or --nu with --e")


def _measure(spec, t, two_cut):
    """The equilibrium measure of spec at T = T_c (1 + t): two-cut from
    `critical.two_cut_guess`, else one-cut from (-2, 2). A call with the
    same spec, t, cut count and precision as one of the last
    MEASURE_CACHE_SIZE distinct calls returns that call's measure (shared,
    read-only); a solve that raises is not kept."""
    def solve():
        T = spec.Tc * (1 + t)
        if two_cut:
            return equilibrium.solve_two_cut(
                spec.V, T, critical.two_cut_guess(spec, T - spec.Tc))
        return equilibrium.solve_one_cut(spec.V, T, guess=(-2, 2))

    return _recent(_measures, (spec, t, two_cut, mp.prec), solve,
                   MEASURE_CACHE_SIZE)


class UsageError(Exception):
    pass


MAX_GRID_POINTS = 10 ** 5        # a longer A:B:STEP grid is a usage error
MIN_DPS = 15                     # working decimal digits at least

# options that hold one real number (the commands convert them with mpf)
_NUMBER_OPTIONS = ("phi_e", "e", "t", "u")


def _check_numbers(args):
    """UsageError unless every number option given is a finite number."""
    for name in _NUMBER_OPTIONS:
        text = getattr(args, name, None)
        if text is None:
            continue
        try:
            finite = mp.isfinite(mpf(text))
        except ValueError:
            finite = False
        if not finite:
            raise UsageError("--%s: expected a finite number, got %r"
                             % (name.replace("_", "-"), text))


def _parse_Ns(text):
    """The comma list of --N values, each an integer N >= the regime's
    `asymptotics.MIN_N`, checked before any formula takes ln N."""
    try:
        Ns = [int(v) for v in text.split(",")]
    except ValueError:
        raise UsageError("--N: expected a comma list of integers, got %r"
                         % text)
    for N in Ns:
        if N < asymptotics.MIN_N:
            raise UsageError("--N %d: need N >= %d" % (N, asymptotics.MIN_N))
    return Ns


def _parse_grid(text):
    """A:B:STEP inclusive grid of finite mpf values."""
    try:
        a, b, step = (mpf(v) for v in text.split(":"))
    except Exception:
        raise UsageError("bad grid %r, expected A:B:STEP" % text)
    if not all(mp.isfinite(v) for v in (a, b, step)) or step <= 0 or b < a:
        raise UsageError("bad grid %r" % text)
    if (b - a) / step >= MAX_GRID_POINTS or a + step == a or b + step == b:
        # the loop below would not end, or not soon: v += step must move v
        raise UsageError("bad grid %r: more than %d points, or a step below "
                         "the precision of its bounds" % (text, MAX_GRID_POINTS))
    out = []
    v = a
    while v <= b + step / 2:
        out.append(+v)
        v += step
    return out


def _write(path, text):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_validate(args):
    spec = _load_spec(args)
    report = validate_critical(spec)
    print(report)
    if args.out:
        _write(args.out, kvio.spec_to_kv(spec))
    return EXIT_OK if report.ok else EXIT_VALIDATION


def cmd_equilibrium(args):
    spec = _load_spec(args)
    t = mpf(0 if args.t is None else args.t)
    mu = _measure(spec, t, args.two_cut)
    _write(args.out, kvio.measure_to_kv(mu))
    return EXIT_OK


def cmd_critical(args):
    spec = _load_spec(args)
    t = mpf(args.t if args.t is not None else "1e-4") * spec.Tc
    ns = critical.newborn_scaling(spec, t)
    lines = [
        "zeta = %s" % _fmt(ns.zeta),
        "C = %s" % _fmt(ns.C),
        "G = %s" % " ".join(_fmt(c) for c in ns.G.c),
        "c = %s" % _fmt(ns.c),
        "d = %s" % _fmt(ns.d),
        "delta_x0 = %s" % _fmt(ns.delta_x0),
        "m_asym = %s" % _fmt(ns.m_asym),
        "epsilon = %s" % _fmt(ns.epsilon),
    ]
    drift = critical.one_cut_drift(spec, -t)
    lines += ["below_%s = %s" % (k, _fmt(v)) for k, v in drift.items()]
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _warn_unconverged(ch):
    """One stderr line if the chain's node ladder ended unconverged."""
    if not ch.converged:
        print("warning: orthonormality residual %s on %d nodes is above the "
              "converged bound %s at %d bits" % (
                  _fmt(ch.resid, 3), len(ch.grid),
                  _fmt(oracle.converged_residual(ch.prec), 3), ch.prec),
              file=sys.stderr)


def cmd_chain(args):
    nu = 1 if args.nu is None else args.nu
    ch = modelchain.build_chain(nu, k_max=args.kmax, prec=max(args.bits, 256))
    _warn_unconverged(ch)
    lnA = None
    if args.phi_e is not None or args.spec:
        spec = _load_spec(args)
        lnA = mp.log(modelchain.A_constant(spec))
    _write(args.out, kvio.chain_to_table(ch, lnA))
    return EXIT_OK


def _model_chain(spec):
    """The model chain the asymptotic formulas read: k_max = 30, 256 bits."""
    return modelchain.build_chain(spec.nu, k_max=30, prec=256)


def _oracle_chain(spec, N, bits, pmax):
    n_max = N + max(pmax + 1, int(mp.ceil(3 * mp.log(N))))
    return oracle.build_rec_chain(spec.V, N, spec.Tc, n_max=n_max, bits=bits)


def _regime_at_u(spec, N, u):
    """The regime point of the index N + p nearest to u."""
    p = int(mp.nint(u * mp.log(N) / (2 * spec.nu * spec.phi_e)))
    return asymptotics.make_regime(spec, N, p)


def _warn_outside_Z(regimes):
    """One stderr line naming the u values outside the gamma/beta regime
    (`valid_Z` false), as `cmd_psi` does for the psi regime."""
    bad = ["%s (N = %d)" % (_fmt(rp.u, 6), rp.N)
           for rp in regimes if not rp.valid_Z]
    if bad:
        band = _fmt(asymptotics.FORBIDDEN_BAND, 3)
        print("warning: u = %s outside the gamma/beta regime (u > 0, more "
              "than %s from an integer)" % (", ".join(bad), band),
              file=sys.stderr)


def cmd_scan_u(args):
    spec = _load_spec(args)
    us = _parse_grid(args.u_grid or "0.1:3.0:0.1")
    Ns = _parse_Ns(args.N or "40")
    # every regime first: its domain check precedes the chain builds
    regimes = {N: [_regime_at_u(spec, N, u) for u in us] for N in Ns}
    _warn_outside_Z(rp for N in Ns for rp in regimes[N])
    mc = _model_chain(spec)
    rows = ["N,p,u,ubar,eps_u,gamma_oracle,gamma_reduced,gamma_full,"
            "beta_oracle,beta_reduced,beta_full,rel_err_gamma,rel_err_beta"]
    for N in Ns:
        pmax = max(rp.p for rp in regimes[N])
        try:
            ch = _oracle_chain(spec, N, args.bits, pmax)
        except ArithmeticError as exc:
            rows.append("%d,,,ERROR %s,,,,,,," % (N, exc))
            continue
        _warn_unconverged(ch)
        for rp in regimes[N]:
            p = rp.p
            go, bo = ch.gamma[N + p], ch.beta[N + p]
            gr = asymptotics.gamma_reduced(spec, mc, rp)
            gf = asymptotics.gamma_full(spec, mc, rp)
            br = asymptotics.beta_reduced(spec, mc, rp)
            bf = asymptotics.beta_full(spec, mc, rp)
            reg = abs(go - gr) / (gr - 1 + mpf(N) ** (-mpf(1) / (2 * spec.nu)))
            reb = abs(bo - br) / (br + mpf(N) ** (-mpf(1) / (2 * spec.nu)))
            rows.append(",".join([str(N), str(p), _fmt(rp.u),
                                  str(rp.ubar), str(rp.eps_u)] + [
                _fmt(v) for v in (go, gr, gf, bo, br, bf, reg, reb)]))
    _write(args.out, "\n".join(rows) + "\n")
    return EXIT_OK


def cmd_psi(args):
    spec = _load_spec(args)
    N = _parse_Ns(args.N or "80")[0]
    rp = _regime_at_u(spec, N, mpf(args.u or "1.3"))
    p = rp.p
    if rp.u < 0:
        raise UsageError("u = %s < 0 puts n = N + p below N; psi needs u > 1/2"
                         % _fmt(rp.u, 6))
    if not rp.valid_psi:
        print("warning: u = %s is outside the psi regime (u > 1/2, more than "
              "%s from a half-integer)" % (_fmt(rp.u, 6),
                                           _fmt(asymptotics.FORBIDDEN_BAND, 3)),
              file=sys.stderr)
    mc = _model_chain(spec)
    smap = asymptotics.make_scaling_map(spec, N)
    ys = _parse_grid(args.y_grid or "-2:2:0.5")
    ch = None
    if args.with_oracle:
        ch = _oracle_chain(spec, N, args.bits, p)
        _warn_unconverged(ch)
    rows = ["y,x,psi_reduced,psi_full,psi_oracle"]
    for y in ys:
        x = smap.x_of_y(y)
        pr = asymptotics.psi_reduced(spec, mc, rp, y, 0)
        pf = asymptotics.psi_full(spec, mc, rp, y, 0)
        po = oracle.eval_psi_exact(ch, N + p, x) if ch is not None else mpf("nan")
        rows.append(",".join(_fmt(v) for v in (y, x, pr, pf, po)))
    _write(args.out, "\n".join(rows) + "\n")
    return EXIT_OK


def cmd_transition(args):
    spec = _load_spec(args)
    ts = _parse_grid(args.t_grid or "1e-5:1e-3:1e-4")
    rows = ["t_over_Tc,side,d2F_solver,d2F_formula"]
    for that in ts:
        for side, t in (("below", -that), ("above", that)):
            law = critical.transition_curvature(spec, t * spec.Tc)
            try:
                gamma = equilibrium.measure_gamma(
                    _measure(spec, t, side == "above"))
                rows.append(",".join([_fmt(that), side, _fmt(-2 * mp.log(gamma)),
                                      _fmt(law)]))
            except (equilibrium.PhaseError, equilibrium.ConvergenceError) as exc:
                rows.append("%s,%s,ERROR %s," % (_fmt(that), side, exc))
    _write(args.out, "\n".join(rows) + "\n")
    return EXIT_OK


def cmd_compare(args):
    """Compare a chain table (`kvio.chain_to_table`) against the asymptotics."""
    spec = _load_spec(args)
    if not args.table:
        raise UsageError("compare needs --table FILE (oracle chain export)")
    try:
        with open(args.table) as fh:
            fields, table = kvio.table_from_text(fh.read())
        N = int(fields["N"])
    except OSError as exc:
        raise UsageError("cannot read table: %s" % exc)
    gam = {int(row[0]): row[2] for row in table}
    regimes = [asymptotics.make_regime(spec, N, n - N)
               for n in sorted(gam) if n >= N]
    _warn_outside_Z(regimes)
    mc = _model_chain(spec)
    rows = ["N,p,u,gamma_oracle,gamma_reduced,gamma_full"]
    for rp in regimes:
        rows.append(",".join([str(N), str(rp.p)] + [_fmt(v) for v in (
            rp.u, gam[N + rp.p], asymptotics.gamma_reduced(spec, mc, rp),
            asymptotics.gamma_full(spec, mc, rp))]))
    _write(args.out, "\n".join(rows) + "\n")
    return EXIT_OK


# a value such as -1e-4 or -2:2:0.1; argparse reads it as an unknown option
# ("expected one argument"). No option of this CLI starts with "-<digit>".
_NEGATIVE_VALUE = re.compile(r"-\.?\d")


def _attach_negative_values(argv):
    """Write `--opt -1e-4` as `--opt=-1e-4`, which argparse accepts."""
    out = []
    for tok in argv:
        if (out and _NEGATIVE_VALUE.match(tok) and out[-1].startswith("--")
                and "=" not in out[-1]):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def build_parser():
    ap = argparse.ArgumentParser(prog="birthcut", description=__doc__)
    ap.add_argument("--bits", type=int, default=320, help="oracle precision bits")
    ap.add_argument("--dps", type=int, default=40, help="working decimal digits")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--spec", help="critical-spec key=value file")
        p.add_argument("--nu", type=int)
        p.add_argument("--phi-e", dest="phi_e")
        p.add_argument("--e", help="well position e > 2 (with --nu)")
        p.add_argument("--out", help="output path (default stdout)")

    p = sub.add_parser("validate", help="check the critical-model conditions")
    common(p)

    p = sub.add_parser("equilibrium", help="solve the equilibrium measure")
    common(p)
    p.add_argument("--t", help="(T - Tc)/Tc, signed")
    p.add_argument("--two-cut", action="store_true")

    p = sub.add_parser("critical", help="near-critical scaling data")
    common(p)
    p.add_argument("--t", help="t/Tc > 0 for the newborn side")

    p = sub.add_parser("chain", help="build and export the model chain")
    common(p)
    p.add_argument("--kmax", type=int, default=100)

    p = sub.add_parser("scan-u", help="oracle vs asymptotics over a u grid")
    common(p)
    p.add_argument("--N", help="comma list of N values")
    p.add_argument("--u-grid", dest="u_grid", help="A:B:STEP")

    p = sub.add_parser("psi", help="wavefunction profiles near the newborn cut")
    common(p)
    p.add_argument("--N")
    p.add_argument("--u")
    p.add_argument("--y-grid", dest="y_grid")
    p.add_argument("--with-oracle", action="store_true")

    p = sub.add_parser("transition", help="second derivative of F on both sides")
    common(p)
    p.add_argument("--t-grid", dest="t_grid", help="A:B:STEP in t/Tc")

    p = sub.add_parser("compare", help="compare an oracle export to asymptotics")
    common(p)
    p.add_argument("--table", help="oracle chain table file")
    return ap


_parser = None


def main(argv=None):
    """Run one command line at --dps digits; returns its exit code and
    leaves the global precision as it found it.

    The parser is built on the first call and reused: each `parse_args`
    makes a fresh namespace, so no call sees another's arguments. The
    command runs through the module's current `cmd_*` binding, so one
    replaced after import (a wrapper or a test double) is the one called.
    """
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(_attach_negative_values(
            sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.dps < MIN_DPS:
            # the adaptive quadrature stops at 10^(TOL_DIGITS - dps)
            raise UsageError("--dps %d: need at least %d digits"
                             % (args.dps, MIN_DPS))
        with mp.workdps(args.dps):
            _check_numbers(args)
            return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (UsageError, ValueError) as exc:
        # ValueError here is an argument outside a function's domain, such as
        # mpf('abc'), phi_e <= 0 or k_max > 200
        print("error: %s" % (str(exc) or type(exc).__name__), file=sys.stderr)
        return EXIT_USAGE
    except (equilibrium.PhaseError, equilibrium.ConvergenceError,
            ArithmeticError) as exc:
        print("numerical failure: %s" % (str(exc) or type(exc).__name__),
              file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
