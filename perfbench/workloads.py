"""The four benchmark workloads, their seeded inputs and correctness gates.

README.md in this directory says why each workload exists and which layer
metric should move which end-to-end metric on which workload.

Seeds.  A seed picks one of ``PHASE_SETS`` phase sets (seed modulo
``PHASE_SETS``).  Set 0 is the data exactly as listed; set k > 0 adds
offsets drawn from ``default_rng(k)`` in [-PHASE_RANGE, PHASE_RANGE] to
every surface-mode and recipe phase.  The range is small so that the solver
effort, and with it the step time, stays close across seeds; the finite
table is what lets ``reference.json`` hold the final state of every seed.
identities_64 runs the fixed manufactured data of ``capelast.verify`` and
ignores the seed.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from capelast.diagnostics import lemma_checks
from capelast.errors import CapelastError
from capelast.evolve import RunConfig, run
from capelast.graphmap import make_cutoff
from capelast.grid import make_grid
from capelast.recipes import ShearRecipe, StreamRecipe
from capelast.state import History, InitSpec
from capelast import verify

PHASE_SETS = 16
PHASE_RANGE = 0.2

ENERGY_DRIFT_MAX = 1e-5          # acceptance criterion 3
INITIAL_RESIDUAL_MAX = 1e-10     # acceptance criterion 4
CHART_ROW_TOL = 1e-8             # the tolerance of the verify lemma battery
# Relative tolerance on the stored final-state fingerprint.  At seed 0,
# more FFT workers and a solver tolerance ten times tighter moved it by at
# most 4e-14; halving dt moved it by 8e-10 (elastic_32) and 1.4e-9
# (capillary_32), and one changed RK4 weight moved capillary_32's by 8e-5.
# On oblique_64's single step halving dt moves it by only 2e-12.
REFERENCE_RTOL = 1e-11
REFERENCE_PATH = Path(__file__).with_name("reference.json")


def phase_offsets(seed: int, n: int) -> tuple:
    k = seed % PHASE_SETS
    if k == 0:
        return (0.0,) * n
    rng = np.random.default_rng(k)
    return tuple(float(x) for x in rng.uniform(-PHASE_RANGE, PHASE_RANGE, n))


@dataclass
class Episode:
    """One fixed-length unit of work and what the gates made of it."""

    wall_s: float
    setup_s: float | None
    step_s: list                  # wall time of each step, in order
    checks: list = field(default_factory=list)    # (name, passed)
    rows_failed: int = 0                          # identity rows above tol
    report: dict = field(default_factory=dict)    # ungated values

    @property
    def failed(self) -> list:
        return [name for name, ok in self.checks if not ok]


def _row_checks(rows, label):
    """Checks for (name, passed) identity rows, and how many failed."""
    checks = [(f"{label} row: {name}", bool(ok)) for name, ok in rows]
    return checks, sum(1 for _, ok in checks if not ok)


# -- step workloads --------------------------------------------------------------

def elastic_32(ph) -> RunConfig:
    """Acceptance criteria 3 and 4 (``conservation_config`` at dt 0.025)."""
    return RunConfig(
        init=InitSpec(
            nx=32, ny=32, nz=17, b=1.0, sigma=0.1,
            psi_modes=((1, 0, 1e-2, ph[0]),),
            v_recipe=StreamRecipe(amp=0.35, k=1, profile="sinh", phase=ph[1]),
            F_recipes=(ShearRecipe(comp=2, dep_axis=1, amp=0.2, phase=ph[2]),
                       None, None)),
        dt=0.025, solver_tol=1e-12, kmax=1)


def capillary_32(ph) -> RunConfig:
    """Acceptance criterion 6: a linear capillary wave on a still slab."""
    return RunConfig(
        init=InitSpec(nx=32, ny=32, nz=17, b=1.0, sigma=1.0,
                      psi_modes=((1, 0, 1e-3, ph[0]),), dealias=False),
        dt=0.024, solver_tol=1e-11, kmax=0)


def oblique_64(ph) -> RunConfig:
    """Data that depend on x2, at 64x64x33.

    Ungated on purpose: the final div_F and FN_top are reported only.  They
    carry the known 3-D constraint defect (ROADMAP item 4); a one-step run
    neither covers that defect up nor is the place to judge it.
    """
    return RunConfig(
        init=InitSpec(
            nx=64, ny=64, nz=33, b=1.0, sigma=0.1,
            psi_modes=((1, 0, 1e-2, 0.0 + ph[0]), (1, 1, 5e-3, 0.3 + ph[1]),
                       (0, 2, 4e-3, 1.1 + ph[2])),
            v_recipe=StreamRecipe(amp=0.3, k=1, profile="sinh", plane="yz",
                                  phase=ph[3]),
            F_recipes=(StreamRecipe(amp=0.1, k=1, profile="confined",
                                    plane="xz", phase=ph[4]),
                       StreamRecipe(amp=0.1, k=2, profile="confined",
                                    plane="yz", phase=ph[5]),
                       None)),
        dt=0.01, solver_tol=1e-11, kmax=1)


def fingerprint(res) -> dict:
    """Scalars of the final state that a changed scheme moves."""
    s, g = res.final, res.grid
    X1, _ = g.mesh_surface()

    def vnorm(stack):
        return math.sqrt(sum(g.norm0(c) ** 2 for c in stack))

    return {
        "E_cons": res.diagnostics[-1].E_cons,
        "psi_norm": g.norm0(s.psi),
        "psi_mode_1_0": g.quad_surface(s.psi * np.cos(X1)) / (2 * math.pi**2),
        "v_norm": vnorm(s.v),
        "F_norm": vnorm(s.F.reshape((9,) + s.q.shape)),
        "q_norm": g.norm0(s.q),
    }


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


STEP_LAYERS = (
    "evolve.step", "evolve.tendencies", "evolve.cfl_limit", "elliptic.solve",
    "elliptic.pressure_rhs", "elliptic.project", "graphmap.build",
    "graphmap.grad_stack", "graphmap.mean_curvature", "grid.d_tan",
    "grid.d_vert", "state.build_initial_data", "state.constraint_residuals",
    "diagnostics.conserved_energy", "diagnostics.higher_energy")


class StepWorkload:
    """A fixed number of RK4 steps through ``capelast.evolve.run``."""

    def __init__(self, name, build, nphases, nsteps):
        self.name = name
        self.build = build
        self.nphases = nphases
        self.nsteps = nsteps
        self.reference = (load_reference().get(name, {})
                          if REFERENCE_PATH.exists() else {})

    @property
    def traced_layers(self) -> tuple:
        """Spans a traced episode must record; none may read zero."""
        dealias = ("grid.dealias",) if self.build((0.0,) * self.nphases
                                                  ).init.dealias else ()
        return STEP_LAYERS + dealias

    def config(self, seed, nsteps=None) -> RunConfig:
        cfg = self.build(phase_offsets(seed, self.nphases))
        n = self.nsteps if nsteps is None else nsteps
        return replace(cfg, t_final=n * cfg.dt, snapshot_every=10**9)

    def _timed_run(self, cfg):
        stamps = []
        cfg.probe = lambda state, grid: (stamps.append(time.perf_counter())
                                         or 0.0)
        t0 = time.perf_counter()
        res = run(cfg)
        return res, stamps[0] - t0, list(np.diff(stamps))

    def setup_sample(self, seed) -> float:
        """Set-up alone: ``run`` with no step stops after the first record."""
        return self._timed_run(self.config(seed, nsteps=0))[1]

    def chart_battery(self, res):
        """Commutation and integration-by-parts rows of ``lemma_checks`` on
        the final chart.  A one-slice history leaves out the transport rows,
        which need a time series; the verify lemma battery covers those."""
        hist = History(maxlen=5)
        hist.push(res.final)
        gm = res.final.graphmap(res.cutoff, res.grid)
        rows = lemma_checks(hist, gm, res.grid)
        return [(f"{r['lemma']} {r['case']}", r["residual"] <= CHART_ROW_TOL)
                for r in rows]

    def episode(self, seed, span=nullcontext) -> Episode:
        t0 = time.perf_counter()
        try:
            with span("bench.run"):
                res, setup, steps = self._timed_run(self.config(seed))
        except CapelastError as exc:
            return Episode(time.perf_counter() - t0, None, [],
                           [(f"run: {type(exc).__name__}: {exc}", False)])
        aborted = "" if res.aborted is None else f": {res.aborted}"
        checks = [(f"run completes{aborted}", res.aborted is None)]
        s = res.final
        checks.append(("final state finite", all(
            bool(np.isfinite(a).all()) for a in (s.psi, s.v, s.F, s.q))))
        E = np.array([d.E_cons for d in res.diagnostics])
        drift = float(np.abs(E - E[0]).max() / abs(E[0]))
        checks.append((f"energy drift {drift:.2e} <= {ENERGY_DRIFT_MAX:g}",
                       drift <= ENERGY_DRIFT_MAX))
        d0 = res.diagnostics[0]
        init_res = max(d0.div_v, d0.div_F, d0.FN_top, d0.v3_bot, d0.F3_bot)
        checks.append((f"initial constraint residual {init_res:.2e} <= "
                       f"{INITIAL_RESIDUAL_MAX:g}",
                       init_res <= INITIAL_RESIDUAL_MAX))
        checks += self._reference_checks(seed, res)

        with span("bench.chart_battery"):
            rows = self.chart_battery(res)
        row_checks, rows_failed = _row_checks(rows, "chart")
        checks += row_checks
        dn = res.diagnostics[-1]
        return Episode(
            wall_s=time.perf_counter() - t0, setup_s=setup, step_s=steps,
            checks=checks, rows_failed=rows_failed,
            report={"energy_drift": drift, "final_div_F": dn.div_F,
                    "final_FN_top": dn.FN_top, "final_div_v": dn.div_v})

    def _reference_checks(self, seed, res):
        key = str(seed % PHASE_SETS)
        ref = self.reference.get(key)
        if ref is None:
            return [(f"reference for phase set {key} exists", False)]
        got = fingerprint(res)
        return [(f"final {k} {got[k]!r} matches reference {v!r}",
                 math.isclose(got[k], v, rel_tol=REFERENCE_RTOL,
                              abs_tol=1e-15))
                for k, v in ref.items()]


# -- identity batteries ------------------------------------------------------------

class BatteryWorkload:
    """``operators``, ``lemmas`` and ``alinhac`` batteries at 64x64x33.

    One pass of the three batteries is this workload's step: it has no RK4
    step, so steps_per_s counts passes and step_ms_p50 times one pass,
    which is the batteries' wall time.
    """

    name = "identities_64"
    shape = dict(nx=64, ny=64, nz=33)
    hist_len = 6
    batteries = ("operators", "lemmas", "alinhac")
    traced_layers = ("verify.operators", "verify.lemmas", "verify.alinhac",
                     "good_unknowns.alinhac_residual", "graphmap.build",
                     "grid.d_tan", "grid.d_vert")

    def setup_sample(self, seed) -> float:
        """Build the fixtures the batteries start from: grid, cutoffs and
        the four manufactured histories of ``capelast.verify``."""
        t0 = time.perf_counter()
        grid = make_grid(b=1.0, dealias=False, **self.shape)
        psi = verify.battery_surface(grid)
        cut = make_cutoff(grid, grid.b / 8, float(np.abs(psi).max()),
                          strict=False)
        verify.compatible_history(grid, cut)
        cut = make_cutoff(grid, grid.b / 8, 0.06 * 1.6 * 1.4, strict=False)
        verify.static_history(grid, cut, nslices=self.hist_len)
        verify.moving_history(grid, cut, nslices=self.hist_len, dt=0.12)
        verify.steady_sheared_history(grid, cut, nslices=self.hist_len)
        return time.perf_counter() - t0

    def episode(self, seed, span=nullcontext) -> Episode:
        t0 = time.perf_counter()
        checks, rows_failed = [], 0
        for name in self.batteries:
            kwargs = dict(self.shape)
            if name == "alinhac":
                kwargs["hist_len"] = self.hist_len
            try:
                with span(f"verify.{name}"):
                    rows = verify.run_battery(name, **kwargs)
            except CapelastError as exc:
                checks.append((f"{name}: {type(exc).__name__}: {exc}", False))
                continue
            checks.append((f"{name} battery completes", True))
            row_checks, failed = _row_checks(
                [(f"{r.case} {r.residual:.2e} <= {r.tolerance:g}", r.passed)
                 for r in rows], name)
            checks += row_checks
            rows_failed += failed
        wall = time.perf_counter() - t0
        return Episode(wall_s=wall, setup_s=None, step_s=[wall],
                       checks=checks, rows_failed=rows_failed)


WORKLOADS = {
    "elastic_32": lambda: StepWorkload("elastic_32", elastic_32, 3, 10),
    "capillary_32": lambda: StepWorkload("capillary_32", capillary_32, 1, 20),
    "oblique_64": lambda: StepWorkload("oblique_64", oblique_64, 6, 1),
    "identities_64": BatteryWorkload,
}
