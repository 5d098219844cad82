"""Plain-text key=value blocks and tables used by the CLI.

Format: one `key = value` per line, `#` comments, lists space-separated,
30 significant digits. Diff-able and locale-free by construction.
"""

from __future__ import annotations

from mpmath import mp, mpf

from .poly import Poly
from .potentials import CriticalSpec
from .equilibrium import EqMeasure, _fill_two_cut_data
from .modelchain import ln_A_k
from .oracle import RecChain

DIGITS = 30


def _fmt(x):
    return mp.nstr(mpf(x), DIGITS)


def _fmt_list(xs):
    return " ".join(_fmt(x) for x in xs)


def parse_kv(text: str) -> dict:
    out = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError("line %d: expected 'key = value', got %r" % (ln, raw))
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def spec_to_kv(spec: CriticalSpec) -> str:
    lines = [
        "# birth-of-a-cut critical model",
        "nu = %d" % spec.nu,
        "e = %s" % _fmt(spec.e),
        "phi_e = %s" % _fmt(spec.phi_e),
        "e_tilde = %s" % _fmt(spec.e_tilde),
        "Q = %s" % _fmt_list(spec.Q.c),
        "V = %s" % _fmt_list(spec.V.c),
        "Tc = %s" % _fmt(spec.Tc),
        "d = %d" % spec.d,
    ]
    return "\n".join(lines) + "\n"


def spec_from_kv(text: str) -> CriticalSpec:
    """The spec of a key = value block; ValueError naming the key for a
    missing key, nu < 1, a non-finite number, e <= 2, phi_e <= 0, Tc <= 0,
    or a zero Q or V. The model's own conditions are the callers'."""
    kv = parse_kv(text)
    missing = [k for k in ("nu", "e", "Q", "V", "Tc") if k not in kv]
    if missing:
        raise ValueError("spec block missing keys: %s" % ", ".join(missing))
    nu = int(kv["nu"])
    if nu < 1:
        raise ValueError("nu = %d: need nu >= 1" % nu)

    def number(key, above=-mp.inf):
        v = mpf(kv[key])
        if not above < v < mp.inf:            # false for nan too
            raise ValueError("%s = %s: need a number in (%s, inf)"
                             % (key, kv[key], above))
        return v

    def poly(key):
        p = Poly([mpf(v) for v in kv[key].split()])
        if not p or not all(map(mp.isfinite, p.c)):
            raise ValueError("%s = %r: need finite coefficients, not all 0"
                             % (key, kv[key]))
        return p

    e, Q = number("e", 2), poly("Q")
    phi_e = number("phi_e", 0) if "phi_e" in kv else mp.acosh(e / 2)
    d = int(kv["d"]) if "d" in kv else Q.degree + 2 * nu
    kv.setdefault("e_tilde", "0")
    return CriticalSpec(nu=nu, e=e, phi_e=phi_e, Q=Q,
                        e_tilde=number("e_tilde"), V=poly("V"),
                        Tc=number("Tc", 0), d=d)


def measure_to_kv(mu: EqMeasure) -> str:
    """The measure's key = value block. Its `#` header gives the Newton
    steps and the final residual of the solve, where the measure records
    them (a measure read back by `measure_from_kv` records none)."""
    header = "# equilibrium measure"
    if mu.newton_steps is not None:
        header += " newton_steps=%d residual=%s" % (mu.newton_steps,
                                                    mp.nstr(mu.residual, 3))
    lines = [
        header,
        "s = %d" % mu.s,
        "endpoints = %s" % _fmt_list(mu.endpoints),
        "M = %s" % _fmt_list(mu.M.c),
        "T = %s" % _fmt(mu.T),
        "V = %s" % _fmt_list(mu.V.c),
    ]
    if mu.s == 2:
        lines += [
            "x0 = %s" % _fmt(mu.x0),
            "m = %s" % _fmt(mu.m),
            "u_inf_imag = %s" % _fmt(mu.F_inf),
        ]
    return "\n".join(lines) + "\n"


def measure_from_kv(text: str, V: Poly = None) -> EqMeasure:
    kv = parse_kv(text)
    mu = EqMeasure(
        s=int(kv["s"]),
        endpoints=tuple(mpf(v) for v in kv["endpoints"].split()),
        M=Poly([mpf(v) for v in kv["M"].split()]),
        T=mpf(kv["T"]),
        V=V if V is not None else Poly([mpf(v) for v in kv["V"].split()]),
    )
    if mu.s == 2:
        _fill_two_cut_data(mu)
    return mu


def chain_to_table(chain: RecChain, lnA=None) -> str:
    """The one table format of every chain, oracle or model, at the chain's
    precision: a header of N, Tc, n_max, bits, the domain, the grid size and
    the check's resid and converged (or none), then per n = 0..n_max the row
    n, ln h_n, gamma_n (gamma_0 = 0), beta_n, ln zeta_n and, given lnA, ln A_n."""
    w = chain.weight
    with mp.workprec(chain.prec):
        lines = ["# N=%d Tc=%s n_max=%d bits=%d x_min=%s x_max=%s nodes=%d "
                 "resid=%s converged=%s" % (
                     w.N, _fmt(w.Tc), chain.n_max, chain.prec,
                     _fmt(w.lo), _fmt(w.hi), len(chain.grid),
                     "none" if chain.resid is None else _fmt(chain.resid),
                     {None: "none", True: "yes", False: "no"}[chain.converged]),
                 "# n ln_h gamma beta ln_zeta" + (" ln_A" if lnA is not None else "")]
        for n in range(chain.n_max + 1):
            row = [chain.log_h[n], chain.gamma[n], chain.beta[n], chain.ln_zeta[n]]
            row += [ln_A_k(chain, lnA, n)] if lnA is not None else []
            lines.append("%d %s" % (n, _fmt_list(row)))
    return "\n".join(lines) + "\n"


def table_from_text(text: str):
    """(fields, rows): the key=value fields of the first line, which must
    give N, and as mpf each later row that is not blank or `#`: an integer n
    and at least two more numbers. A ValueError names the line that is not."""
    lines = text.splitlines() or [""]
    fields = dict(t.split("=", 1) for t in lines[0].lstrip("#").split() if "=" in t)
    if "N" not in fields:
        raise ValueError("line 1: expected '# N=... Tc=... n_max=...', got %r"
                         % lines[0])
    rows = []
    for ln, line in enumerate(lines[1:], 2):
        toks = line.split()
        if not toks or line.startswith("#"):
            continue
        try:
            if len(toks) < 3:
                raise ValueError
            rows.append([mpf(int(toks[0]))] + [mpf(t) for t in toks[1:]])
        except ValueError:
            raise ValueError("line %d: expected 'n ln_h gamma ...', got %r"
                             % (ln, line)) from None
    return fields, rows
