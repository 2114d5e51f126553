"""Run one capelast benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload capillary_32 --seed 0 --seconds 38 --trace 0

Run from the root of a checkout; the package is imported from ``src/``
there and nowhere else.  ``--trace 0`` measures the end-to-end metrics with
no instrumentation.  ``--trace 1`` alternates untraced and traced episodes,
reports the per-layer metrics of the first traced episode, and checks that
every traced episode repeats the exact counts.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  Each run also appends a record with its environment to
``.perfbench/results.jsonl``; traced runs write their spans beside it.

BLAS, OpenMP and FFT threads are pinned to 1: the reference machine has two
CPUs and is shared, and thread pools would turn that sharing into noise.
Step times are min-of-N over the run's identical episodes.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
# Set before numpy loads.  One thread each: the host has two CPUs and is
# shared.  No huge-page advice: whether the kernel grants huge pages depends
# on the host's memory fragmentation, which made peak RSS vary by 20%
# between identical runs.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMPY_MADVISE_HUGEPAGE": "0"}
SETUP_SAMPLES = 3      # set-up-only runs before the episodes; also warm-up
BUSY_CPUS = 0.5        # CPUs used by other processes that flag a busy host

END_TO_END_UNITS = {
    "setup_s": "s", "steps_per_s": "1/s", "step_ms_p50": "ms",
    "peak_rss_mb": "MB", "ok_share": "share",
}


def unit_of(name: str) -> str:
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    return {"grid.fft.mpoints": "Mpoint",
            "elliptic.matvecs_per_solve": "matvec/solve",
            "elliptic.warm_start_share": "share",
            "trace.overhead_share": "ratio"}.get(name, "count")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_capelast():
    """Import the package from this checkout's ``src``, or exit 2."""
    src = ROOT / "src"
    if not (src / "capelast" / "__init__.py").is_file():
        sys.exit(f"error: no capelast package under {src}; run the "
                 "benchmark from the root of a capelast checkout")
    sys.path.insert(0, str(src))
    import capelast
    import capelast.grid
    if Path(capelast.__file__).resolve().parent != (src / "capelast").resolve():
        sys.exit(f"error: capelast was imported from {capelast.__file__}")
    capelast.grid._WORKERS = 1      # FFT worker threads for stacked fields
    return capelast


# -- environment ---------------------------------------------------------------

def _cpu_jiffies():
    try:
        with open("/proc/stat") as fh:
            vals = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    idle = vals[3] + vals[4]
    steal = vals[7] if len(vals) > 7 else 0
    return sum(vals[:8]) - idle, sum(vals[:8]), steal


def host_load(window=0.25) -> dict:
    """Load averages, and CPUs busy with other work while this one sleeps."""
    out = {"loadavg": list(os.getloadavg())}
    a = _cpu_jiffies()
    time.sleep(window)
    b = _cpu_jiffies()
    if a and b and b[1] > a[1]:
        ncpu = os.cpu_count() or 1
        out["other_cpus"] = round(ncpu * (b[0] - a[0]) / (b[1] - a[1]), 3)
        out["steal_share"] = round((b[2] - a[2]) / (b[1] - a[1]), 4)
    return out


def environment(pkg) -> dict:
    import numpy as np
    import scipy
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = deps.get("blas", {})
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, AttributeError):
        blas = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "capelast": pkg.__version__,
        "blas": blas,
        "pinned_env": {k: os.environ.get(k) for k in PINNED_ENV},
        "fft_workers": pkg.grid._WORKERS,
    }


# -- measurement ---------------------------------------------------------------

def best_of(rows):
    """Min-of-N for each position over repeated, identical sequences.

    Every episode repeats the same computation, so position i of each row
    times the same work.  Contention on a shared host only ever adds time,
    and its minimum is far steadier than its median.
    """
    rows = [r for r in rows if r]
    if not rows:
        return []
    return [min(r[i] for r in rows) for i in range(min(map(len, rows)))]


def untraced(wl, seed, seconds):
    deadline = time.perf_counter() + seconds
    setups = [wl.setup_sample(seed) for _ in range(SETUP_SAMPLES)]
    episodes, peak_rss = [], None
    while True:
        ep = wl.episode(seed)
        episodes.append(ep)
        if peak_rss is None:
            # read at a fixed point: each later episode adds heap
            # fragmentation, and how many fit depends on the host's speed
            peak_rss = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if time.perf_counter() + ep.wall_s > deadline:
            break
    setups += [ep.setup_s for ep in episodes if ep.setup_s is not None]
    steps = best_of(ep.step_s for ep in episodes)
    checks = [c for ep in episodes for c in ep.checks]
    failed = sum(1 for _, ok in checks if not ok)
    metrics = {
        "setup_s": statistics.median(setups),
        "steps_per_s": len(steps) / sum(steps) if steps else 0.0,
        "step_ms_p50": 1e3 * statistics.median(steps) if steps else 0.0,
        "peak_rss_mb": peak_rss,
        "ok_share": 1.0 - failed / len(checks),
    }
    samples = {"episodes": len(episodes), "setup": len(setups),
               "steps": len(steps)}
    return metrics, episodes, checks, samples


def traced(wl, seed, seconds, pkg):
    from tracing import CoverageError, Instrumentation, Tracer, \
        exact_counts, layer_metrics

    deadline = time.perf_counter() + seconds
    tracer = Tracer()
    instr = Instrumentation(pkg, tracer)
    wl.setup_sample(seed)                       # warm-up, untraced
    plan = ["untraced", "traced", "traced"]
    walls = {"untraced": [], "traced": []}
    episodes, counts, first, spans = [], [], None, []
    while plan:
        kind = plan.pop(0)
        if kind == "untraced":
            ep = wl.episode(seed)
        else:
            tracer.reset(episode=len(episodes), keep_spans=first is None)
            instr.install()
            try:
                with tracer.span("bench.episode"):
                    ep = wl.episode(seed, span=tracer.span)
            finally:
                instr.uninstall()
            m = layer_metrics(tracer)
            m["verify.rows_failed"] = ep.rows_failed
            counts.append(exact_counts(m))
            if first is None:
                first, spans = m, list(tracer.spans)
                idle = [n for n in wl.traced_layers if not tracer.calls[n]]
                if idle and not ep.failed:
                    raise CoverageError(
                        "traced episode recorded no call of " + ", ".join(idle))
        episodes.append(ep)
        walls[kind].append(ep.wall_s)
        if not plan:
            pair = walls["untraced"][-1] + walls["traced"][-1]
            if time.perf_counter() + pair <= deadline:
                plan = ["untraced", "traced"]
    checks = [c for ep in episodes for c in ep.checks]
    repeat = all(c == counts[0] for c in counts[1:])
    checks.append((f"exact counts repeat over {len(counts)} traced episodes",
                   repeat))
    metrics = dict(first)
    metrics["trace.overhead_share"] = (min(walls["traced"])
                                       / min(walls["untraced"]))
    samples = {"episodes": len(episodes), "traced": len(counts)}
    return metrics, episodes, checks, samples, spans


def write_spans(path, spans):
    names = sorted({s[3] for s in spans})
    code = {n: i for i, n in enumerate(names)}
    t0 = min((s[4] for s in spans), default=0.0)
    with gzip.open(path, "wt") as fh:
        fh.write(json.dumps({"fields": ["id", "parent", "episode", "name",
                                        "start_us", "end_us"],
                             "names": names}) + "\n")
        for sid, parent, ep, name, a, b in spans:
            fh.write(json.dumps([sid, parent, ep, code[name],
                                 round((a - t0) * 1e6, 1),
                                 round((b - t0) * 1e6, 1)]) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(PINNED_ENV)
    pkg = import_capelast()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from "
                 f"{', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]()
    env = environment(pkg)
    before = host_load()
    wall0, ru0 = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
    spans = []
    if args.trace:
        metrics, episodes, checks, samples, spans = traced(
            wl, args.seed, args.seconds, pkg)
    else:
        metrics, episodes, checks, samples = untraced(
            wl, args.seed, args.seconds)
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    wall = time.perf_counter() - wall0
    cpu = (ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime)
    env["load_before"] = before
    env["load_after"] = host_load()
    env["busy_at_start"] = before.get("other_cpus", 0.0) > BUSY_CPUS
    env["cpu_over_wall"] = round(cpu / wall, 3)

    failed = [name for name, ok in checks if not ok]
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "samples": samples, "env": env,
        "failed_checks": failed,
        "report": episodes[-1].report if episodes else {},
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    if spans:
        write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}"
                              ".jsonl.gz", spans)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"samples={json.dumps(samples)}")
    print(f"# env {json.dumps(env)}")
    if record["report"]:
        print(f"# ungated {json.dumps(record['report'])}")
    for name in failed:
        print(f"# FAILED {name}")
    units = END_TO_END_UNITS if not args.trace else \
        {k: unit_of(k) for k in metrics}
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
