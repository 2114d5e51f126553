"""The benchmark's tracer must still cover the package.

``perfbench/tracing.py`` wraps capelast functions by name and refuses to
run when a binding it needs is missing or unwrapped; this test installs it
so that an API change that breaks the benchmark fails here first.
"""

import importlib.util
from pathlib import Path

import numpy as np

import capelast
from capelast import elliptic, make_grid
from capelast.graphmap import build_graphmap, make_cutoff

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_instrumentation_covers_package():
    tracing = load_tracing()
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
    cut = make_cutoff(g, g.b / 8, 0.05, strict=False)
    gm = build_graphmap(psi, np.zeros_like(psi), cut, g)
    applied = [0]
    apply_op = elliptic._apply_bc_operator

    def counted_op(w, gm):
        applied[0] += 1
        return apply_op(w, gm)

    tracing = load_tracing()
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
