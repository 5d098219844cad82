"""Span tracer for the birthcut package, installed from outside the package.

Every public function (module-level, name without a leading underscore,
defined in ``birthcut.*``) is replaced at *every* module-level binding that
holds it: ``equilibrium.integrate_bracket`` and ``quadrature.integrate_bracket``
get separate wrappers, so intra-module calls and ``from ... import`` callers
are both covered. A wrapper records one span (name, start, end, parent, run
id) per call; spans stay in memory and are written out at the end.

The layer of a span is the module that *defines* the function; the binding
through which it was called is kept as well, because some counters are
defined per binding (``ln_A_k`` as called from ``asymptotics``,
``stieltjes_chain`` as called from ``oracle``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
from collections import Counter

PACKAGE = "birthcut"
LAYERS = ("potentials", "specialfn", "equilibrium", "critical", "modelchain",
          "asymptotics", "oracle", "quadrature", "poly", "kvio", "cli")
CLI_COMMANDS = ("validate", "equilibrium", "critical", "chain", "psi",
                "transition")           # cli.cmd_<command>, timed inclusively
ADAPTIVE = ("integrate_doubling", "integrate_bracket")
QUADRATURE = ("integrate_gl",) + ADAPTIVE
ORACLE_EVALUATORS = ("eval_psi_exact", "eval_phi_exact", "kernel_exact",
                     "expected_count_exact", "pihat_direct", "pihat_values")


def _max_evaluations(name, bound):
    """Integrand evaluations of an adaptive rule that never met its tolerance."""
    if name == "integrate_bracket":
        n, total = bound["n_start"], bound["n_start"]
        while n < bound["max_n"]:
            n *= 2
            total += n
        return total
    panels, total = 1, 1
    while panels < bound["max_panels"]:
        panels *= 2
        total += panels
    return total * bound["n"]


class Tracer:
    """Collects spans and per-layer counters for one process."""

    def __init__(self):
        self.spans = []          # [name, layer, binding, start, end, parent, run_id]
        self.stack = []          # indices of open spans
        self.run_id = None
        self.counts = Counter()
        self.resid_max = 0.0
        self._gl_seen = set()
        self._chain_args = set()
        self._quad_depth = 0
        self._patched = []       # (module, name, original)

    # -- installation -----------------------------------------------------

    def install(self):
        pkg = importlib.import_module(PACKAGE)
        modules = [pkg] + [importlib.import_module("%s.%s" % (PACKAGE, info.name))
                           for info in pkgutil.iter_modules(pkg.__path__)]
        for mod in modules:
            binding = mod.__name__.rpartition(".")[2]
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith(PACKAGE + ".")):
                    continue
                self._patched.append((mod, name, obj))
                setattr(mod, name, self._wrap(obj, binding))

    def uninstall(self):
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()

    # -- spans ------------------------------------------------------------

    def _wrap(self, fn, binding):
        layer = fn.__module__.rpartition(".")[2]
        name = "%s.%s" % (layer, fn.__name__)
        short = fn.__name__
        sig = inspect.signature(fn)
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = self._before(short, binding, sig, args, kwargs)
            if before is not None:
                args, kwargs = before[0], before[1]
            idx = len(spans)
            parent = stack[-1] if stack else None
            spans.append([name, layer, binding, time.perf_counter(), None,
                          parent, self.run_id])
            stack.append(idx)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                spans[idx][4] = time.perf_counter()
                stack.pop()
                if failed and short in ("solve_one_cut", "solve_two_cut"):
                    counts["equilibrium.solver_errors"] += 1
                if before is not None:
                    self._after(short, before[2], failed,
                                None if failed else result)

        return wrapper

    def _before(self, short, binding, sig, args, kwargs):
        """Count what the call's arguments say; returns (args, kwargs, state)
        when the call needs post-processing, else None."""
        counts = self.counts
        if short == "ln_A_k" and binding == "asymptotics":
            counts["asymptotics.lnA_calls"] += 1
        elif short == "stieltjes_chain" and binding == "oracle":
            bound = sig.bind(*args, **kwargs)
            counts["oracle.node_steps"] += (len(bound.arguments["xs"])
                                            * bound.arguments["n_steps"])
        elif short == "build_chain":
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            key = tuple(bound.arguments.items())
            counts["modelchain.builds"] += 1
            if key in self._chain_args:
                counts["modelchain.build_repeats"] += 1
            self._chain_args.add(key)
        elif short == "gauss_legendre":
            from mpmath import mp
            key = (sig.bind(*args, **kwargs).arguments["n"], mp.prec)
            counts["quadrature.gl_calls"] += 1
            if key not in self._gl_seen:
                counts["quadrature.gl_builds"] += 1
                self._gl_seen.add(key)
        elif short == "laurent_split" and binding == "equilibrium":
            counts["equilibrium.moment_evals"] += 1
        elif short == "integrate_bracket" and binding == "equilibrium":
            if any(self.spans[i][0] == "equilibrium.solve_two_cut"
                   for i in self.stack):
                counts["equilibrium.two_cut_residuals"] += 1
        elif short == "orthogonality_residual":
            return args, kwargs, None
        if short not in QUADRATURE:
            return None
        # integrand evaluations: wrap the callable at the outermost rule only
        self._quad_depth += 1
        if self._quad_depth > 1:
            return args, kwargs, None
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        evals = [0]
        f = bound.arguments["f"]

        def counted(x):
            evals[0] += 1
            return f(x)

        bound.arguments["f"] = counted
        cap = _max_evaluations(short, bound.arguments) if short in ADAPTIVE else None
        return bound.args, bound.kwargs, (evals, cap)

    def _after(self, short, state, failed, result):
        counts = self.counts
        if short == "orthogonality_residual":
            if not failed:
                self.resid_max = max(self.resid_max, float(result))
            return
        self._quad_depth -= 1
        if state is None:
            return
        evals, cap = state
        counts["quadrature.integrand_evals"] += evals[0]
        if cap is not None:
            counts["quadrature.adaptive_calls"] += 1
            if evals[0] == cap:
                counts["quadrature.capped_calls"] += 1

    # -- results ----------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the time its children cover
        (children nest strictly, the program being single-threaded)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[5] is not None:
                child[s[5]] += s[4] - s[3]
        return [s[4] - s[3] - c for s, c in zip(self.spans, child)]

    def _outermost(self, names):
        """(count, inclusive time) of spans in `names` not nested in another
        span in `names`."""
        count, total = 0, 0.0
        for s in self.spans:
            if s[0] not in names:
                continue
            p = s[5]
            while p is not None and self.spans[p][0] not in names:
                p = self.spans[p][5]
            if p is None:
                count += 1
                total += s[4] - s[3]
        return count, total

    def metrics(self):
        """Per-layer metrics, named as in BENCHMARK.json (without the trace
        overhead, which needs an untraced run)."""
        out = {}
        selfs = self.self_times()
        calls, self_s = Counter(), Counter()
        for s, st in zip(self.spans, selfs):
            calls[s[1]] += 1
            self_s[s[1]] += st
        for layer in LAYERS:
            out[layer + ".calls"] = calls[layer]
            out[layer + ".self_s"] = self_s[layer]
        c = self.counts
        out["oracle.build_s"] = self._outermost({"oracle.build_rec_chain"})[1]
        out["oracle.node_steps"] = c["oracle.node_steps"]
        out["oracle.ortho_check_s"] = self._outermost(
            {"oracle.orthogonality_residual"})[1]
        out["oracle.ortho_resid_max"] = self.resid_max
        out["oracle.eval_calls"], out["oracle.eval_s"] = self._outermost(
            {"oracle." + n for n in ORACLE_EVALUATORS})
        out["modelchain.builds"] = c["modelchain.builds"]
        out["modelchain.build_repeats"] = c["modelchain.build_repeats"]
        out["modelchain.build_s"] = self._outermost({"modelchain.build_chain"})[1]
        out["modelchain.psihat_s"] = self._outermost({"modelchain.psihat_model"})[1]
        out["asymptotics.lnA_calls"] = c["asymptotics.lnA_calls"]
        solves, out["equilibrium.two_cut_s"] = self._outermost(
            {"equilibrium.solve_two_cut"})
        out["equilibrium.residuals_per_solve"] = (
            c["equilibrium.two_cut_residuals"] / solves if solves else 0.0)
        out["equilibrium.moment_evals"] = c["equilibrium.moment_evals"]
        out["equilibrium.solver_errors"] = c["equilibrium.solver_errors"]
        out["quadrature.integrand_evals"] = c["quadrature.integrand_evals"]
        adaptive = c["quadrature.adaptive_calls"]
        out["quadrature.capped_frac"] = (c["quadrature.capped_calls"] / adaptive
                                         if adaptive else 0.0)
        out["quadrature.gl_builds"] = c["quadrature.gl_builds"]
        gl = c["quadrature.gl_calls"]
        out["quadrature.gl_hit_ratio"] = ((gl - c["quadrature.gl_builds"]) / gl
                                          if gl else 0.0)
        for cmd in CLI_COMMANDS:
            out["cli.%s_s" % cmd] = self._outermost({"cli.cmd_" + cmd})[1]
        return out

    def write(self, path, header):
        """Spans as JSON lines, after one header line."""
        selfs = self.self_times()
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, (s, st) in enumerate(zip(self.spans, selfs)):
                fh.write(json.dumps({
                    "id": i, "name": s[0], "binding": s[2], "start": s[3],
                    "end": s[4], "parent": s[5], "run": s[6], "self": st,
                }) + "\n")
