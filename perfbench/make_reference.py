"""Regenerate reference.json, the final-state fingerprints the gates compare.

    python3 perfbench/make_reference.py [WORKLOAD ...]

One fingerprint per step workload and phase set, from the same fixed-length
run the benchmark times.  Regenerate only for a change that is meant to
alter the computed solution, and say so in that change.
"""

from __future__ import annotations

import json
import os
import sys

import run as bench


def main(names) -> int:
    os.environ.update(bench.PINNED_ENV)
    bench.import_capelast()
    import workloads

    ref = (workloads.load_reference() if workloads.REFERENCE_PATH.exists()
           else {})
    for name in names or [n for n, make in workloads.WORKLOADS.items()
                          if isinstance(make(), workloads.StepWorkload)]:
        wl = workloads.WORKLOADS[name]()
        table = {}
        for k in range(workloads.PHASE_SETS):
            res = workloads.run(wl.config(k))
            if res.aborted:
                sys.exit(f"error: {name} phase set {k} aborted: {res.aborted}")
            table[str(k)] = workloads.fingerprint(res)
            print(name, k, table[str(k)], flush=True)
        ref[name] = table
    workloads.REFERENCE_PATH.write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
