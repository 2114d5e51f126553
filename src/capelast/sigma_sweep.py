"""Surface-tension sweep harness: shared initial data, decreasing sigma,
discrete C^2-style distances, and a Rayleigh-Taylor-gated verdict.

Distances use the discrete H^2 norm as the computable stand-in for C^2
closeness, taking the sup over stored snapshot times.  The monotonicity
verdict is withheld whenever any member violates the requested sign
condition min(-d3 q) >= c0 somewhere along its run, since the sigma-uniform
behaviour is conditional on that bound.  Members run sequentially and
deterministically; they share the grid, time step, and snapshot cadence.

A sweep takes at least two members.  A sigma = 0 entry, which a
non-increasing list holds last, runs and is gated like any other member;
the verdict then reads the distances d(sigma_i, 0) of the positive members
to it, which is the zero-surface-tension limit, and otherwise the
distances between consecutive members.  Fewer than two such distances
compare nothing, and the verdict is then trivial.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

from .errors import ConfigError
from .evolve import RunConfig, RunResult, run
from .grid import Grid
from .state import State

log = logging.getLogger(__name__)


def state_distance(a: State, b: State, grid: Grid) -> float:
    """|psi_a - psi_b|_{H2(Sigma)} + ||v_a - v_b||_{H2} + sum_j ||dF_j||_{H2}."""
    n = grid.sobolev_norm
    return (n(a.psi - b.psi, 2) + n(a.v - b.v, 2)
            + sum(n(a.F[j] - b.F[j], 2) for j in range(3)))


def run_distance(r1: RunResult, r2: RunResult) -> float:
    """Sup over shared snapshot times of the state distance."""
    if len(r1.snapshots) != len(r2.snapshots) or any(
            abs(t1 - t2) > 1e-12 for t1, t2 in
            zip(r1.snapshot_times, r2.snapshot_times)):
        raise ConfigError("sweep members must share snapshot times")
    return max(state_distance(a, b, r1.grid)
               for a, b in zip(r1.snapshots, r2.snapshots))


@dataclass
class SweepMember:
    sigma: float
    rt_min: float
    result: RunResult


@dataclass
class SweepReport:
    members: list[SweepMember]
    pair_distances: list[tuple[float, float, float]]  # (sigma_i, sigma_j, d)
    limit_distances: list[tuple[float, float]]        # (sigma_i, d(sigma_i, 0))
    rt_required: float
    rt_ok: bool
    verdict: str

    @property
    def aborted(self) -> bool:
        return any(m.result.aborted for m in self.members)

    def csv_rows(self):
        rows = ["sigma_i,sigma_j,distance,rt_min_i,verdict"]
        for (si, sj, d) in self.pair_distances:
            rt_i = next(m.rt_min for m in self.members if m.sigma == si)
            rows.append(f"{si:.6e},{sj:.6e},{d:.16e},{rt_i:.6e},{self.verdict}")
        for (si, d) in self.limit_distances:
            rt_i = next(m.rt_min for m in self.members if m.sigma == si)
            rows.append(f"{si:.6e},{0.0:.6e},{d:.16e},{rt_i:.6e},{self.verdict}")
        return rows

    def summary(self) -> str:
        lines = [
            "sigma sweep summary",
            f"  members: {[m.sigma for m in self.members]}",
            f"  rt requirement: min(-d3 q) >= {self.rt_required:g}"
            f" -> {'holds' if self.rt_ok else 'violated'}",
        ]
        for (si, sj, d) in self.pair_distances:
            lines.append(f"  d({si:g}, {sj:g}) = {d:.6e}")
        for (si, d) in self.limit_distances:
            lines.append(f"  d({si:g}, 0) = {d:.6e}")
        lines.append(f"  verdict: {self.verdict}")
        return "\n".join(lines)


def sweep_sigma(base: RunConfig, sigmas,
                rt_c0: float = 0.0) -> SweepReport:
    """Run each sigma from shared initial data and measure distances.

    ``rt_c0`` is the threshold c0 of the Rayleigh-Taylor sign condition
    min(-d3 q) >= c0; this is the only place it is compared, against the
    smallest ``rt_min`` each member records.

    ``sigmas`` must hold at least two entries and be non-increasing and
    non-negative (equal entries are allowed and give zero distance); the
    monotonicity verdict only applies to strictly decreasing lists.
    ``pair_distances`` join consecutive positive members, and
    ``limit_distances`` join each positive member to the sigma = 0 member
    when the list holds one.
    """
    sigmas = [float(s) for s in sigmas]
    if len(sigmas) < 2:
        raise ConfigError(
            f"a sigma sweep needs at least two values, got {len(sigmas)}")
    if any(s2 > s1 for s1, s2 in zip(sigmas, sigmas[1:])):
        raise ConfigError("sigma list must be non-increasing")

    # every member's settings, sigma >= 0 included, are checked by its
    # InitSpec before the first member runs
    cfgs = [replace(base, init=replace(base.init, sigma=s)) for s in sigmas]
    members: list[SweepMember] = []
    for s, cfg in zip(sigmas, cfgs):
        result = run(cfg)
        rt_min = min(d.rt_min for d in result.diagnostics)
        members.append(SweepMember(sigma=s, rt_min=rt_min, result=result))
        log.info("sweep member sigma=%g: rt_min=%.4f aborted=%s",
                 s, rt_min, result.aborted)

    positive = [m for m in members if m.sigma > 0.0]
    zero = next((m for m in members if m.sigma == 0.0), None)
    aborted = any(m.result.aborted for m in members)
    pair, limit = [], []
    if not aborted:
        pair = [(m1.sigma, m2.sigma, run_distance(m1.result, m2.result))
                for m1, m2 in zip(positive, positive[1:])]
        if zero is not None:
            limit = [(m.sigma, run_distance(m.result, zero.result))
                     for m in positive]

    rt_ok = all(m.rt_min >= rt_c0 for m in members)
    strict = all(s1 > s2 for s1, s2 in zip(sigmas, sigmas[1:]))
    ds = ([d for (_, d) in limit] if zero is not None
          else [d for (_, _, d) in pair])
    if aborted:
        verdict = "void (member aborted)"
    elif not rt_ok:
        verdict = "withheld (sign condition violated)"
    elif not strict:
        verdict = "trivial (non-strict sigma list)"
    elif len(ds) < 2:
        verdict = "trivial (fewer than two distances)"
    elif all(d1 > d2 for d1, d2 in zip(ds, ds[1:])):
        verdict = "monotone decreasing"
    else:
        verdict = "not monotone"
    return SweepReport(members=members, pair_distances=pair,
                       limit_distances=limit, rt_required=rt_c0,
                       rt_ok=rt_ok, verdict=verdict)
