"""Rewrite bench/reference.json from one seed-0 repetition of each workload.

    python3 bench/freeze.py

The reference pins the values the default seed must reproduce. Regenerate it
only for a reviewed, intended change of the numbers, never to make a failing
run pass.
"""

from __future__ import annotations

import json
import os
import sys

from run import HERE, WORKLOADS, spawn


def main():
    reference = {}
    for name in sorted(WORKLOADS):
        result, err = spawn(name, 0, 0, timeout=170)
        if result is None:
            sys.exit("%s: %s" % (name, err))
        failed = [c for c in result["checks"] if not c[1]]
        if failed:
            sys.exit("%s: failed checks, not freezing: %s" % (name, failed))
        reference[name] = result["values"]
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
