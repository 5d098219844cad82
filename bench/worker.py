"""One repetition of one workload, in a fresh process.

Set-up (imports of ``birthcut`` and ``birthcut.cli`` plus the workload's
prebuilt objects) and the timed job list run here, under a SpeedClock; the
result is one JSON line on stdout: rescaled and raw set-up and job-list
times, peak RSS, the checks, a digest of every output, the values compared
against the frozen reference and, with ``--trace 1``, the per-layer
metrics. Run by bench/run.py, which starts one worker after another and
never two at once.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import traceback

from speed import SpeedClock
from workloads import DPS, WORKLOADS, Rep


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after set-up (an extra set-up sample)")
    args = ap.parse_args()

    clock = SpeedClock()
    clock.start()
    import birthcut.cli  # noqa: F401  (set-up cost a CLI user pays)
    from mpmath import mp

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.run_id = "setup"
    wl = WORKLOADS[args.workload](args.seed)
    rep = Rep()
    with mp.workdps(DPS):
        prebuilt = wl.setup(rep)
    setup_raw, setup_s = clock.read()

    jobs = [] if args.setup_only else wl.jobs(prebuilt)
    for name, job in jobs:
        if tracer:
            tracer.run_id = name
        try:
            with mp.workdps(DPS):
                job(rep)
        except Exception:
            rep.check("job %s completes" % name, False,
                      traceback.format_exc(limit=4))
    raw, scaled = clock.read()
    clock.stop()

    digest = hashlib.sha256("\0".join(rep.outputs).encode()).hexdigest()
    result = {
        "setup_s": setup_s,
        "wall_s": scaled - setup_s,
        "raw_setup_s": setup_raw,
        "raw_wall_s": raw - setup_raw,
        "probes": clock.probes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "checks": rep.checks,
        "digest": digest,
        "values": rep.values,
    }
    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               ".spans")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, "%s-seed%d.jsonl"
                                  % (args.workload, args.seed)),
                     {"workload": args.workload, "seed": args.seed,
                      "digest": digest})
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
