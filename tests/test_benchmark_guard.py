"""The benchmark's tracer must still cover the package, and its workloads
must still pass their correctness gates.

``perfbench/tracing.py`` wraps capelast functions by name and refuses to
run when a binding it needs is missing or unwrapped; this test installs it
so that an API change that breaks the benchmark fails here first.  The
seed-0 episodes of ``perfbench/workloads.py`` compare the final state with
the stored reference fingerprints, so a change that moves one fails here
before it lowers the benchmark's ok_share.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import capelast
from capelast import elliptic, make_grid
from capelast.graphmap import build_graphmap, make_cutoff

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    """Import ``perfbench/<name>.py`` afresh, registered under a private
    name so that its dataclasses resolve their module."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_benchmark_instrumentation_covers_package():
    tracing = load_perfbench("tracing")
    inst = tracing.Instrumentation(capelast, tracing.Tracer())
    try:
        inst.install()  # raises CoverageError on any unwrapped binding
    finally:
        inst.uninstall()
    assert not hasattr(capelast.evolve.step_rk4, "__wrapped__")


def test_traced_matvecs_are_the_solver_operator_applications(monkeypatch):
    # one solve that needs Krylov iterations makes one GMRES call, and the
    # tracer's matvec count is exactly the operator's applications
    g = make_grid(16, 16, 9, 1.0)
    X1, X2, X3 = g.mesh_volume()
    psi = 0.05 * np.cos(X1[:, :, 0] + X2[:, :, 0])
    cut = make_cutoff(g)
    gm = build_graphmap(psi, np.zeros_like(psi), cut, g)
    applied = [0]
    apply_op = elliptic._apply_bc_operator

    def counted_op(w, gm):
        applied[0] += 1
        return apply_op(w, gm)

    tracing = load_perfbench("tracing")
    tracer = tracing.Tracer()
    inst = tracing.Instrumentation(capelast, tracer)
    inst.install()
    try:
        monkeypatch.setattr(elliptic, "_apply_bc_operator", counted_op)
        elliptic.solve_poisson_phi(np.cos(X1) * np.sin(X2) * (1 + X3),
                                   0.1 * np.cos(X2[:, :, 0]),
                                   0.2 * np.sin(X1[:, :, 0]), gm, tol=1e-11)
    finally:
        inst.uninstall()
    assert tracer.counts["elliptic.gmres.calls"] == 1
    assert applied[0] >= 2
    assert tracer.counts["elliptic.matvecs"] == applied[0]


@pytest.mark.parametrize("name", ["capillary_32", "elastic_32", "oblique_64"])
def test_seed_zero_episode_passes_its_gates(name):
    # the run gates, the chart battery and the reference fingerprints
    workloads = load_perfbench("workloads")
    ep = workloads.WORKLOADS[name]().episode(0)
    assert ep.failed == []
