"""Benchmark of the birthcut oracle-vs-asymptotics pipeline.

    python3 bench/run.py --workload oracle-scan --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload, one table

Each repetition is a fresh single-threaded process (bench/worker.py) that
imports birthcut, builds the workload's prebuilt objects (set-up) and runs
the timed job list, so caches start cold as they do for a CLI user.
Repetitions run one after another, never in parallel, until --seconds have
been measured (at least two). The run reports medians over repetitions; its
times are rescaled to a reference host speed (bench/speed.py, NOTES.md).

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json. With
--trace 1 untraced and traced repetitions alternate and the metrics are the
per-layer ones, plus the tracing overhead; the run also checks that traced
and untraced outputs are identical and that every layer the workload uses
reports spans. Every line but the last is for people; the last line is the
JSON result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BASELINE_BACKEND = "python"   # mpmath backend the baseline was measured with
RUN_LIMIT_S = 170             # a run must end within 180 s
MIN_REPS = 2
MIN_SETUPS = 11               # set-up samples per run, where set-up is cheap
CHEAP_SETUP_S = 1.0
REF_RTOL = 1e-10              # loose enough for a float64 oracle (~1e-12)
REF_FLOOR = 1e-3              # magnitude below which REF_RTOL acts absolutely
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER_UNITS = {"calls": "count", "self_s": "s", "build_s": "s",
                   "node_steps": "count", "ortho_check_s": "s",
                   "ortho_resid_max": "1", "eval_calls": "count", "eval_s": "s",
                   "builds": "count", "build_repeats": "count",
                   "psihat_s": "s", "lnA_calls": "count", "two_cut_s": "s",
                   "residuals_per_solve": "1/solve", "moment_evals": "count",
                   "solver_errors": "count", "integrand_evals": "count",
                   "capped_frac": "ratio", "gl_builds": "count",
                   "gl_hit_ratio": "ratio", "overhead_s": "s"}


def unit_of(metric):
    suffix = metric.rpartition(".")[2]
    return PER_LAYER_UNITS.get(suffix, "s")     # cli.<command>_s are times


def environment():
    """The machine and toolchain a result was measured on."""
    import mpmath
    env = {"backend": mpmath.libmp.BACKEND, "mpmath": mpmath.__version__,
           "python": sys.version.split()[0],
           "nproc": len(os.sched_getaffinity(0)),
           "loadavg": [round(v, 2) for v in os.getloadavg()],
           "probe_ms": round(1000 * speed.probe(25), 3),
           "baseline_backend": BASELINE_BACKEND}
    env["flagged"] = env["backend"] != BASELINE_BACKEND
    return env


def spawn(workload, seed, trace, timeout, setup_only=False):
    """One repetition in a fresh process; returns (result, error)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload",
           workload, "--seed", str(seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=SRC, OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, "repetition timed out after %.0f s" % timeout
    if proc.returncode != 0:
        return None, "worker exit %d: %s" % (proc.returncode, proc.stderr[-800:])
    return json.loads(proc.stdout.strip().splitlines()[-1]), ""


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def close(value, ref):
    return abs(value - ref) <= REF_RTOL * max(abs(ref), REF_FLOOR)


def run_workload(workload, seed, seconds, trace):
    """Repetitions for `seconds`; returns (result JSON, report lines)."""
    start = time.monotonic()
    reps, errors = [], []
    while True:
        flag = len(reps) % 2 if trace else 0     # untraced first
        remaining = RUN_LIMIT_S - (time.monotonic() - start)
        t = time.monotonic()
        res, err = spawn(workload, seed, flag, remaining)
        last = time.monotonic() - t
        if res is None:
            errors.append(err)
            break
        reps.append((flag, res))
        elapsed = time.monotonic() - start
        if len(reps) >= MIN_REPS and (elapsed + last > seconds
                                      or elapsed + 1.5 * last > RUN_LIMIT_S):
            break
    plain = [r for f, r in reps if not f]
    traced = [r for f, r in reps if f]
    # set-up alone is short and noisy; sample it more where that is cheap
    extra = []
    while (not trace and plain and not errors
           and len(plain) + len(extra) < MIN_SETUPS
           and statistics.median(r["raw_setup_s"] for r in plain) < CHEAP_SETUP_S):
        res, err = spawn(workload, seed, 0,
                         RUN_LIMIT_S - (time.monotonic() - start), setup_only=True)
        if res is None:
            errors.append(err)
        else:
            extra.append(res)

    checks = [c for r in [r for _, r in reps] + extra for c in r["checks"]]
    checks += [["repetition completes", False, e] for e in errors]
    if reps:
        digests = {r["digest"] for _, r in reps}
        checks.append(["outputs identical across repetitions"
                       + (" (traced and untraced)" if trace else ""),
                       len(digests) == 1, sorted(digests)])
    if traced:
        used = WORKLOADS[workload].layers
        for layer in used:
            n = traced[0]["layers"][layer + ".calls"]
            checks.append(["layer %s reports spans" % layer, n > 0, n])
    if seed == 0 and plain:
        ref = load_reference().get(workload, {})
        values = plain[0]["values"]
        for key, want in sorted(ref.items()):
            got = values.get(key)
            checks.append(["reference value %s" % key,
                           got is not None and close(float(got), float(want)),
                           "got %s want %s" % (got, want)])
    failed = [c for c in checks if not c[1]]

    lines = ["workload %s seed %d: %d repetitions (%d traced, %d more set-ups)"
             " in %.1f s" % (workload, seed, len(reps), len(traced), len(extra),
                             time.monotonic() - start)]
    metrics = {}
    if not trace and plain:
        samples = {"wall_s": [r["wall_s"] for r in plain],
                   "setup_s": [r["setup_s"] for r in plain + extra],
                   "peak_rss_mb": [r["peak_rss_mb"] for r in plain]}
        raw = {"wall_s": [r["raw_wall_s"] for r in plain],
               "setup_s": [r["raw_setup_s"] for r in plain + extra]}
        for name, unit in END_TO_END:
            vals = samples[name]
            metrics[name] = {"value": statistics.median(vals), "unit": unit}
            line = ("  %-12s %10.4f %-3s median of %d, range %.4f .. %.4f"
                    % (name, metrics[name]["value"], unit, len(vals),
                       min(vals), max(vals)))
            if name in raw:
                line += "; raw median %.4f" % statistics.median(raw[name])
            lines.append(line)
    elif trace and plain and traced:
        for name in traced[0]["layers"]:
            vals = [r["layers"][name] for r in traced]
            metrics[name] = {"value": statistics.median(vals), "unit": unit_of(name)}
        overhead = (statistics.median(r["wall_s"] for r in traced)
                    - statistics.median(r["wall_s"] for r in plain))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        width = max(map(len, metrics))
        for name, m in metrics.items():
            lines.append("  %-*s %14.6g %s" % (width, name, m["value"], m["unit"]))
    lines.append("  %-12s %10.4f     %d failed of %d checks"
                 % ("fail_frac", len(failed) / max(len(checks), 1),
                    len(failed), len(checks)))
    for c in failed[:10]:
        lines.append("  FAILED %s: %s" % (c[0], c[2]))
    result = {"correct": not failed, "attempted": max(len(checks), 1),
              "failed": len(failed), "metrics": metrics}
    if not metrics:
        result = None
    return result, lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "birthcut", "__init__.py")):
        print("error: no birthcut sources under %s" % SRC, file=sys.stderr)
        return 2
    compileall.compile_dir(SRC, quiet=1)    # every repetition imports bytecode
    env = environment()
    print("env " + json.dumps(env))
    if env["flagged"]:
        print("warning: mpmath backend %r differs from the baseline's %r; "
              "timings are not comparable" % (env["backend"], BASELINE_BACKEND),
              file=sys.stderr)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, lines = run_workload(name, args.seed, args.seconds, args.trace)
        print("\n".join(lines), flush=True)
        if result is None:
            print("error: workload %s produced no measurement" % name,
                  file=sys.stderr)
            return 1
        results[name] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
