"""The benchmark's tracer must still cover the package.

``perfbench/tracing.py`` wraps capelast functions by name and refuses to
run when a binding it needs is missing or unwrapped; this test installs it
so that an API change that breaks the benchmark fails here first.
"""

import importlib.util
from pathlib import Path

import capelast

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
