"""The four benchmark workloads: inputs drawn from the seed, the prebuilt
objects (set-up), the timed job list, and the correctness checks.

The seed only jitters u-, t- and y-grids inside fixed ranges; phi_e, N, node
counts and precision are fixed, so the cost of a job list does not depend on
the seed. Every job runs under an explicit ``mp.workdps`` so that the global
precision (which ``cli.main`` sets) is restored after it and job order cannot
change precision or quadrature-cache hits.

Sizes are smaller than the acceptance criteria's where a full-size job would
not fit a benchmark run (see NOTES.md): oracles use 1024 nodes instead of
6000 (the recurrence data agrees with the 6000-node chain to 1e-30 at N = 80)
and the counting integrals use 2 Gauss-Legendre panels instead of 24 (the
counts agree to 15 digits).
"""

from __future__ import annotations

import contextlib
import io
import math
import random

DPS = 40                      # the CLI's default --dps
ORACLE_BITS = 320             # the CLI's default --bits
ORACLE_NODES = 1024
ORTHO_PAIRS = ((0, 0), (1, 3), (4, 4))
ORTHO_BOUND = 1e-15


class Rep:
    """Checks, outputs and reference values collected by one repetition."""

    def __init__(self):
        self.checks = []      # [name, ok, detail]
        self.outputs = []     # text, compared between traced and untraced runs
        self.values = {}      # name -> value string, compared to the reference

    def check(self, name, ok, detail=""):
        self.checks.append([name, bool(ok), str(detail)[:300]])

    def value(self, name, v):
        from mpmath import mp
        self.values[name] = mp.nstr(v, 25)

    def output(self, text):
        self.outputs.append(text)


def run_cli(rep, argv):
    """cli.main(argv) with its output captured; checks the exit code."""
    from birthcut import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    rep.check("exit 0: " + " ".join(argv), rc == 0,
              "exit %s: %s" % (rc, err.getvalue()[-200:]))
    rep.output(out.getvalue())
    return out.getvalue()


def _floats(tokens):
    return [float(t) for t in tokens]


def parse_csv(rep, name, text, nan_columns=()):
    """Rows of a header-plus-rows CSV as dicts; checks that every row has the
    header's width and every numeric cell is finite (NaN in the columns that
    are NaN by design)."""
    lines = text.strip().splitlines()
    header = lines[0].split(",") if lines else []
    rows, bad = [], []
    for line in lines[1:]:
        cells = line.split(",")
        row, ok = {}, len(cells) == len(header)
        for col, cell in zip(header, cells):
            if col == "side":
                row[col], ok = cell, ok and cell in ("below", "above")
                continue
            try:
                v = float(cell)
            except ValueError:
                ok = False
                continue
            row[col] = v
            ok = ok and (math.isnan(v) if col in nan_columns else math.isfinite(v))
        if ok:
            rows.append(row)
        else:
            bad.append(line)
    rep.check("well-formed CSV: " + name, header and rows and not bad,
              "bad rows: %r" % bad[:2])
    return rows


def parse_kv(rep, name, text):
    """key = value(s) block as a dict of float lists; checks finiteness."""
    out, bad = {}, []
    for line in text.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        key, sep, val = line.partition(" = ")
        try:
            out[key] = _floats(val.split())
        except ValueError:
            bad.append(line)
            continue
        if not sep or not out[key] or not all(math.isfinite(v) for v in out[key]):
            bad.append(line)
    rep.check("well-formed key=value: " + name, out and not bad,
              "bad lines: %r" % bad[:2])
    return out


def parse_table(rep, name, text):
    """Whitespace table with '#' header lines as rows of floats."""
    rows, bad = [], []
    for line in text.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        try:
            row = _floats(line.split())
        except ValueError:
            bad.append(line)
            continue
        if not all(math.isfinite(v) for v in row):
            bad.append(line)
        rows.append(row)
    rep.check("well-formed table: " + name, rows and not bad,
              "bad lines: %r" % bad[:2])
    return rows


def _rng(workload, seed):
    return random.Random("%s:%d" % (workload, seed))


def _num(x):
    return "%.10g" % x


# ---------------------------------------------------------------------------
# oracle-scan: the scan-u path (A5/A6) at N = 40, 80
# ---------------------------------------------------------------------------

class OracleScan:
    """The library calls `birthcut scan-u --phi-e 0.62 --N 40,80` makes, over a
    seeded u-grid in (0.1, 3.0), with the model chain prebuilt. The oracle
    builds dominate; the asymptotic sums are cheap and no oracle evaluator
    runs."""

    name = "oracle-scan"
    layers = ("oracle", "modelchain", "asymptotics", "quadrature", "potentials")
    PHI_E = "0.62"
    NS = (40, 80)

    def __init__(self, seed):
        rng = _rng(self.name, seed)
        self.us = [0.1 + 0.1 * k + 0.1 * rng.random() for k in range(29)]

    def setup(self, rep):
        from mpmath import mpf
        from birthcut import modelchain
        from birthcut.potentials import make_quartic_spec
        spec = make_quartic_spec(mpf(self.PHI_E))
        return spec, modelchain.build_chain(spec.nu, k_max=30, prec=256,
                                            nodes=1024)

    def jobs(self, prebuilt):
        return [("scan", lambda rep: self._scan(rep, *prebuilt))]

    def _scan(self, rep, spec, mc):
        from mpmath import mp, mpf
        from birthcut import asymptotics, oracle
        us = [mpf(u) for u in self.us]
        for N in self.NS:
            ps = [int(mp.nint(u * mp.log(N) / (2 * spec.nu * spec.phi_e))) for u in us]
            # n_max as cmd_scan_u sets it; u < 3 keeps it seed-independent
            n_max = N + max(max(ps) + 1, int(mp.ceil(3 * mp.log(N))))
            ch = oracle.build_rec_chain(spec.V, N, spec.Tc, n_max=n_max,
                                        bits=ORACLE_BITS, nodes=ORACLE_NODES,
                                        check_orthogonality=False)
            resid = oracle.orthogonality_residual(ch, pairs=ORTHO_PAIRS)
            rep.check("N=%d orthogonality residual <= 1e-15" % N,
                      resid <= ORTHO_BOUND, mp.nstr(resid, 5))
            lines = []
            for i, p in enumerate(ps):
                rp = asymptotics.make_regime(spec, N, p)
                vals = (ch.gamma[N + p], asymptotics.gamma_reduced(spec, mc, rp),
                        asymptotics.gamma_full(spec, mc, rp), ch.beta[N + p],
                        asymptotics.beta_reduced(spec, mc, rp),
                        asymptotics.beta_full(spec, mc, rp))
                rep.check("N=%d p=%d row finite" % (N, p),
                          all(mp.isfinite(v) for v in vals))
                lines.append(",".join(mp.nstr(v, 30) for v in (rp.u,) + vals))
                if i in (0, 14, 28):
                    for key, v in zip(("gamma_or", "gamma_red", "gamma_full",
                                       "beta_or", "beta_red", "beta_full"), vals):
                        rep.value("N=%d p=%d %s" % (N, p, key), v)
            rep.output("\n".join(lines))


# ---------------------------------------------------------------------------
# transition: two-cut Newton and bracket quadrature (A7/A9)
# ---------------------------------------------------------------------------

class Transition:
    """`transition`, `equilibrium --two-cut` and `critical` at one seeded
    t/T_c in [1e-5, 1e-3] for phi_e = 1.0, and `validate --nu 2 --e 2.6`.
    The two-cut solves dominate; no oracle or model chain runs."""

    name = "transition"
    layers = ("equilibrium", "quadrature", "poly", "specialfn", "critical",
              "potentials", "kvio", "cli")

    def __init__(self, seed):
        rng = _rng(self.name, seed)
        self.t = "%.6e" % 10 ** rng.uniform(-5, -3)

    def setup(self, rep):
        from mpmath import mpf
        from birthcut.potentials import make_quartic_spec
        return make_quartic_spec(mpf("1.0"))

    def jobs(self, spec):
        return [("transition", self._transition),
                ("equilibrium", lambda rep: self._equilibrium(rep, spec)),
                ("critical", self._critical),
                ("validate", self._validate)]

    def _transition(self, rep):
        t = self.t
        rows = parse_csv(rep, "transition", run_cli(
            rep, ["transition", "--phi-e", "1.0", "--t-grid=%s:%s:1" % (t, t)]))
        sides = {r.get("side"): r for r in rows}
        rep.check("transition has both sides", set(sides) == {"below", "above"},
                  sorted(map(str, sides)))
        below = sides.get("below")
        if below:
            ratio = below["d2F_solver"] / below["d2F_formula"]
            rep.check("below-Tc curvature ratio within 0.10 of the law (A7)",
                      abs(ratio - 1) <= 0.10, "ratio %.4f" % ratio)
            rep.value("below d2F_solver", below["d2F_solver"])
        if sides.get("above"):
            rep.value("above d2F_solver", sides["above"]["d2F_solver"])

    def _equilibrium(self, rep, spec):
        from mpmath import mp
        from birthcut import equilibrium, kvio
        text = run_cli(rep, ["equilibrium", "--phi-e", "1.0", "--t", self.t,
                             "--two-cut"])
        kv = parse_kv(rep, "equilibrium", text)
        if len(kv.get("endpoints", ())) != 4:
            rep.check("two-cut measure has 4 endpoints", False, text[:200])
            return
        mu = kvio.measure_from_kv(text, spec.V)
        norm = equilibrium.normalization(mu)
        rep.check("two-cut normalization equals 1", abs(norm - 1) <= 1e-10,
                  mp.nstr(norm, 20))
        for i, v in enumerate(mu.endpoints):
            rep.value("endpoint %d" % i, v)

    def _critical(self, rep):
        kv = parse_kv(rep, "critical", run_cli(
            rep, ["critical", "--phi-e", "1.0", "--t", self.t]))
        for key in ("zeta", "c", "d", "epsilon"):
            if key in kv:
                rep.value("critical " + key, kv[key][0])

    def _validate(self, rep):
        text = run_cli(rep, ["validate", "--nu", "2", "--e", "2.6"])
        lines = [l for l in text.splitlines() if l.strip()]
        failing = [l for l in lines if "PASS" not in l]
        rep.check("validate --nu 2: every condition PASS", lines and not failing,
                  failing[:2])


# ---------------------------------------------------------------------------
# model-asymptotics: model chain and the asymptotic k-sums, no oracle (A4/A10a)
# ---------------------------------------------------------------------------

class ModelAsymptotics:
    """Set-up builds the k_max = 30 model chain; the timed part runs
    `chain --nu 1 --kmax 8`, `psi` (no oracle) at a seeded u, then the
    library sums on the prebuilt chain at two more seeded u: psi, the A10a
    5x5 kernel_full / kernel_reduced grid and Psi_matrix. The prebuilt chain
    has the same arguments as the one `psi` builds, so that build repeats."""

    name = "model-asymptotics"
    layers = ("modelchain", "asymptotics", "quadrature", "potentials", "cli")
    PHI_E = "1.05"
    N = 80
    KMAX = 8

    def __init__(self, seed):
        rng = _rng(self.name, seed)
        self.us = [rng.uniform(0.65, 0.95), rng.uniform(1.15, 1.35),
                   rng.uniform(1.65, 1.85)]
        self.y0 = -2 + 0.25 * rng.random()
        self.ys = [-1 + j + rng.uniform(-0.2, 0.2) for j in range(3)]

    def setup(self, rep):
        from mpmath import mpf
        from birthcut import modelchain
        from birthcut.potentials import make_quartic_spec
        spec = make_quartic_spec(mpf(self.PHI_E))
        return spec, modelchain.build_chain(spec.nu, k_max=30, prec=256)

    def jobs(self, prebuilt):
        return [("chain", self._chain),
                ("psi", self._psi),
                ("sums", lambda rep: self._sums(rep, *prebuilt))]

    def _chain(self, rep):
        rows = parse_table(rep, "chain", run_cli(
            rep, ["chain", "--nu", "1", "--kmax", str(self.KMAX)]))
        worst = max((abs(r[2] ** 2 / r[0] - 1) for r in rows if r[0] >= 1),
                    default=float("inf"))
        rep.check("model chain nu=1: gamma_k^2 = k (A4)",
                  len(rows) == self.KMAX and worst <= 1e-10, "worst %.3g" % worst)

    def _psi(self, rep):
        y0 = self.y0
        rows = parse_csv(rep, "psi", run_cli(
            rep, ["psi", "--phi-e", self.PHI_E, "--N", str(self.N),
                  "--u", _num(self.us[0]),
                  "--y-grid=%s:%s:0.5" % (_num(y0), _num(y0 + 4))]),
            nan_columns=("psi_oracle",))
        rep.check("psi emits 9 rows", len(rows) == 9, len(rows))
        for r in rows[::4]:
            rep.value("psi_full y=%.4f" % r["y"], r["psi_full"])

    def _sums(self, rep, spec, mc):
        from mpmath import mp, mpf
        from birthcut import asymptotics
        N = self.N
        smap = asymptotics.make_scaling_map(spec, N)
        regimes = []
        for u in self.us[1:]:
            p = int(mp.nint(mpf(u) * mp.log(N) / (2 * spec.nu * spec.phi_e)))
            regimes.append(asymptotics.make_regime(spec, N, p))
        lines = []
        for rp in regimes:
            for y in self.ys:
                y = mpf(y)
                vals = (asymptotics.psi_reduced(spec, mc, rp, y),
                        asymptotics.psi_full(spec, mc, rp, y))
                lines.append(" ".join(mp.nstr(v, 30) for v in vals))
                rep.check("psi p=%d y=%s finite" % (rp.p, mp.nstr(y, 5)),
                          all(mp.isfinite(v) for v in vals))
            rep.value("psi_full p=%d last y" % rp.p, vals[1])
        rp = regimes[0]
        kf, kr = [], []
        for yi in (-2, -1, 0, 1, 2):
            for yj in (-2, -1, 0, 1, 2):
                x1 = smap.x_of_y(mpf(yi))
                x2 = smap.x_of_y(mpf(yj) + mpf(1) / 100)
                kf.append(asymptotics.kernel_full(spec, mc, rp, x1, x2))
                kr.append(asymptotics.kernel_reduced(spec, mc, rp, x1, x2))
        rep.check("A10a kernel grid finite",
                  all(mp.isfinite(v) for v in kf + kr))
        lines += [mp.nstr(v, 30) for v in kf + kr]
        sup = max(abs(v) for v in kf)
        rep.value("A10a sup kernel_full", sup)
        rep.value("A10a deviation", max(abs(a - b) for a, b in zip(kf, kr)) / sup)
        for y in self.ys:
            mat = asymptotics.Psi_matrix(spec, mc, rp, mpf(y))
            flat = [v for row in mat for v in row]
            rep.check("Psi_matrix y=%.4f finite" % y, all(mp.isfinite(v) for v in flat))
            lines.append(" ".join(mp.nstr(v, 30) for v in flat))
        rep.value("Psi_matrix[1][1] last y", flat[3])
        rep.output("\n".join(lines))


# ---------------------------------------------------------------------------
# oracle-count: oracle evaluators on a prebuilt chain (A8/A10b)
# ---------------------------------------------------------------------------

class OracleCount:
    """Set-up builds the phi_e = 0.5, N = 80 oracle; the timed part counts
    the newborn-well eigenvalues at three seeded u* in (0.6, 2.0) by both
    routes (direct psi^2 sum and CD-diagonal kernel), then evaluates
    eval_psi_exact and kernel_exact on a seeded y-grid."""

    name = "oracle-count"
    layers = ("oracle", "quadrature", "asymptotics", "potentials")
    PHI_E = "0.5"
    N = 80
    PANELS = 2

    def __init__(self, seed):
        rng = _rng(self.name, seed)
        edges = (0.6, 1.07, 1.53, 2.0)
        self.targets = [rng.uniform(edges[i], edges[i + 1]) for i in range(3)]
        self.ys = [-2 + j + rng.uniform(-0.2, 0.2) for j in range(5)]

    def setup(self, rep):
        from mpmath import mp, mpf
        from birthcut import oracle
        from birthcut.potentials import make_quartic_spec
        spec = make_quartic_spec(mpf(self.PHI_E))
        ch = oracle.build_rec_chain(spec.V, self.N, spec.Tc, bits=ORACLE_BITS,
                                    nodes=ORACLE_NODES, check_orthogonality=False)
        resid = oracle.orthogonality_residual(ch, pairs=ORTHO_PAIRS)
        rep.check("orthogonality residual <= 1e-15", resid <= ORTHO_BOUND,
                  mp.nstr(resid, 5))
        return spec, ch

    def jobs(self, prebuilt):
        spec, ch = prebuilt
        return [("counts", lambda rep: self._counts(rep, spec, ch)),
                ("profiles", lambda rep: self._profiles(rep, spec, ch))]

    def _p(self, spec, u):
        from mpmath import mp, mpf
        return int(mp.nint(mpf(u) * mp.log(self.N) / (2 * spec.nu * spec.phi_e)))

    def _counts(self, rep, spec, ch):
        from mpmath import mp
        from birthcut import asymptotics, oracle
        from birthcut.quadrature import panel_nodes
        for u in self.targets:
            p = self._p(spec, u)
            rp = asymptotics.make_regime(spec, self.N, p)
            n = self.N + p
            cnt = oracle.expected_count_exact(ch, n, spec.e_tilde, panels=self.PANELS)
            xs, ws = panel_nodes(spec.e_tilde, ch.x_max, self.PANELS, 64)
            diag = sum(w * oracle.kernel_exact(ch, n, x, x) for x, w in zip(xs, ws))
            rep.check("p=%d count routes agree within 1e-6 (A10b)" % p,
                      abs(diag - cnt) < 1e-6, mp.nstr(diag - cnt, 5))
            rep.check("p=%d count within 0.5 of ubar (A8)" % p,
                      abs(cnt - rp.ubar) <= 0.5,
                      "count %s ubar %d" % (mp.nstr(cnt, 8), rp.ubar))
            rep.output("%d %s %s" % (p, mp.nstr(cnt, 30), mp.nstr(diag, 30)))
            rep.value("count p=%d" % p, cnt)

    def _profiles(self, rep, spec, ch):
        from mpmath import mp, mpf
        from birthcut import asymptotics, oracle
        n = self.N + self._p(spec, self.targets[1])
        smap = asymptotics.make_scaling_map(spec, self.N)
        xs = [smap.x_of_y(mpf(y)) for y in self.ys]
        x2s = [smap.x_of_y(mpf(y) + mpf(1) / 100) for y in self.ys]
        psis = [oracle.eval_psi_exact(ch, n, x) for x in xs]
        kern = [oracle.kernel_exact(ch, n, x, x2) for x in xs for x2 in x2s]
        rep.check("oracle psi and kernel finite",
                  all(mp.isfinite(v) for v in psis + kern))
        rep.output(" ".join(mp.nstr(v, 30) for v in psis + kern))
        rep.value("psi_exact y0", psis[0])
        rep.value("kernel_exact y2 y2", kern[12])


WORKLOADS = {w.name: w for w in (OracleScan, Transition, ModelAsymptotics,
                                 OracleCount)}
