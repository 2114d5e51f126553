"""Spans and exact counts around the public functions of each capelast layer.

The wrappers live here, in the benchmark, and are installed by rebinding
module attributes; no file of the package changes.  A wrapped function is
rebound in every capelast module that holds it, so names imported with
``from .x import name`` are covered, and late imports inside function
bodies resolve to the wrapper through the defining module.
``Instrumentation.install`` then checks that coverage and raises
``CoverageError`` when any binding still reaches an original, because an
unwrapped binding would silently zero a layer's counts.

Spans are kept in memory as (id, parent id, episode, name, start, end) and
written out by the caller.  A span's self time is its duration minus the
time covered by its child spans.  FFT calls, GMRES calls and operator
applications are counted, not spanned: a span per transform would cost
more than the transform at these grid sizes.
"""

from __future__ import annotations

import ast
import functools
import importlib
import inspect
import pkgutil
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path


class CoverageError(RuntimeError):
    """A wrapped name still resolves to the unwrapped function somewhere."""


# (span name, defining module, attribute); "Class.method" wraps a method.
SPANNED = (
    ("grid.d_tan", "grid", "Grid.d_tan"),
    ("grid.d_vert", "grid", "Grid.d_vert"),
    ("grid.dealias", "grid", "Grid.dealias_tangential"),
    ("graphmap.build", "graphmap", "build_graphmap"),
    ("graphmap.grad_stack", "graphmap", "grad_phi_stack"),
    ("graphmap.mean_curvature", "graphmap", "mean_curvature"),
    ("elliptic.solve", "elliptic", "solve_poisson_phi"),
    ("elliptic.pressure_rhs", "elliptic", "pressure_rhs"),
    ("elliptic.project", "elliptic", "project_divfree"),
    ("evolve.step", "evolve", "step_rk4"),
    ("evolve.tendencies", "evolve", "tendencies"),
    ("evolve.cfl_limit", "evolve", "cfl_limit"),
    ("state.build_initial_data", "state", "build_initial_data"),
    ("state.constraint_residuals", "state", "constraint_residuals"),
    ("diagnostics.higher_energy", "diagnostics", "higher_energy"),
    ("diagnostics.conserved_energy", "diagnostics", "conserved_energy"),
    ("good_unknowns.alinhac_residual", "good_unknowns", "alinhac_residual"),
)

FFT_FUNCTIONS = ("rfft", "irfft", "rfft2", "irfft2")   # defined in grid

# Bindings that must exist and resolve to the wrapper.  The scan in
# ``install`` covers any other binding; this list makes a removed or moved
# import fail loudly instead of dropping out of the scan.
REQUIRED_BINDINGS = {
    "evolve": ("pressure_rhs", "solve_poisson_phi", "project_divfree",
               "mean_curvature", "conserved_energy", "higher_energy",
               "build_initial_data", "constraint_residuals",
               "step_rk4", "tendencies", "cfl_limit"),
    "state": ("pressure_rhs", "solve_poisson_phi", "project_divfree",
              "mean_curvature", "build_graphmap"),
    "graphmap": ("build_graphmap", "grad_phi_stack", "mean_curvature"),
    "elliptic": ("rfft2", "irfft2", "gmres", "solve_poisson_phi",
                 "pressure_rhs", "project_divfree"),
    "grid": FFT_FUNCTIONS,
    "verify": ("build_graphmap", "alinhac_residual", "solve_poisson_phi",
               "project_divfree"),
    "diagnostics": ("conserved_energy", "higher_energy"),
    "good_unknowns": ("alinhac_residual",),
}


class Tracer:
    """Span recorder with per-name aggregates and free-form counters."""

    def __init__(self):
        self.calls = Counter()
        self.errors = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.spans = []
        self._stack = []
        self.reset()

    def reset(self, episode: int = 0, keep_spans: bool = False):
        """Start an episode.  Containers are cleared in place because the
        installed wrappers hold references to them."""
        self.episode = episode
        self.keep_spans = keep_spans
        for table in (self.calls, self.errors, self.total, self.self_time,
                      self.counts, self.spans, self._stack):
            table.clear()
        self._next_id = 0

    @contextmanager
    def span(self, name):
        """Time a block as a child of the innermost open span."""
        stack = self._stack
        self._next_id += 1
        frame = [self._next_id, stack[-1][0] if stack else 0, 0.0]
        stack.append(frame)
        failed = True
        t0 = time.perf_counter()
        try:
            yield
            failed = False
        finally:
            t1 = time.perf_counter()
            stack.pop()
            d = t1 - t0
            if stack:
                stack[-1][2] += d
            self.calls[name] += 1
            self.total[name] += d
            self.self_time[name] += d - frame[2]
            self.errors[name] += failed
            if self.keep_spans:
                self.spans.append((frame[0], frame[1], self.episode, name,
                                   t0, t1))

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper


def _package_modules(pkg):
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        mods.append(importlib.import_module(f"{pkg.__name__}.{info.name}"))
    return mods


def _late_imports(mod):
    """(name, source module) of relative imports inside function bodies."""
    tree = ast.parse(Path(mod.__file__).read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for sub in ast.walk(node):
                if (isinstance(sub, ast.ImportFrom) and sub.level == 1
                        and sub.module):
                    for alias in sub.names:
                        found.append((alias.name, sub.module))
    return found


class Instrumentation:
    """Installs and removes the wrappers on a loaded capelast package."""

    def __init__(self, pkg, tracer: Tracer):
        self.pkg = pkg
        self.tracer = tracer
        self.modules = _package_modules(pkg)
        self._restore = []

    def _module(self, short):
        return importlib.import_module(f"{self.pkg.__name__}.{short}")

    def _wrappers(self):
        """Map original function -> (wrapper, owner, attribute), where the
        owner is the defining module or, for a method, its class."""
        t = self.tracer
        out = {}
        for name, modname, attr in SPANNED:
            owner = self._module(modname)
            cls_name, _, attr = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
            orig = getattr(owner, attr)
            fn = orig
            if name == "elliptic.solve":
                fn = self._warm_start_hook(orig)
            out[orig] = (t.wrap(name, fn), owner, attr)
        grid = self._module("grid")
        for attr in FFT_FUNCTIONS:
            orig = getattr(grid, attr)
            out[orig] = (self._fft_counter(orig), grid, attr)
        elliptic = self._module("elliptic")
        out[elliptic.gmres] = (self._gmres_counter(elliptic.gmres),
                               elliptic, "gmres")
        return out

    def _fft_counter(self, fn):
        counts = self.tracer.counts

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            counts["grid.fft.calls"] += 1
            counts["grid.fft.points"] += f.size
            return fn(f, *args, **kwargs)
        return wrapper

    def _gmres_counter(self, fn):
        from scipy.sparse.linalg import LinearOperator
        counts = self.tracer.counts

        @functools.wraps(fn)
        def wrapper(A, b, *args, **kwargs):
            counts["elliptic.gmres.calls"] += 1
            inner = A.matvec

            def matvec(x):
                counts["elliptic.matvecs"] += 1
                return inner(x)
            # dtype given, so LinearOperator does not probe the operator
            counted = LinearOperator(A.shape, matvec=matvec, dtype=A.dtype)
            return fn(counted, b, *args, **kwargs)
        return wrapper

    def _warm_start_hook(self, fn):
        counts = self.tracer.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = counts["elliptic.gmres.calls"]
            try:
                return fn(*args, **kwargs)
            finally:
                if counts["elliptic.gmres.calls"] == before:
                    counts["elliptic.solve.warm"] += 1
        return wrapper

    def install(self):
        if self._restore:
            raise RuntimeError("instrumentation already installed")
        wrappers = self._wrappers()
        for orig, (wrapper, owner, attr) in wrappers.items():
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                self._restore.append((owner, attr, orig))
        by_id = {id(o): w for o, w in wrappers.items()}
        for mod in self.modules:
            for key, val in list(vars(mod).items()):
                hit = by_id.get(id(val))
                if hit is not None:
                    setattr(mod, key, hit[0])
                    self._restore.append((mod, key, val))
        try:
            self.check(wrappers)
        except CoverageError:
            self.uninstall()
            raise

    def uninstall(self):
        for owner, key, val in reversed(self._restore):
            setattr(owner, key, val)
        self._restore = []

    def check(self, wrappers):
        """Raise CoverageError unless every binding reaches a wrapper."""
        originals = {id(o): f"{o.__module__}.{o.__qualname__}"
                     for o in wrappers}
        wrapped = {id(w) for w, _, _ in wrappers.values()}
        problems = []
        for mod in self.modules:
            short = mod.__name__.rpartition(".")[2]
            for key in REQUIRED_BINDINGS.get(short, ()):
                if id(getattr(mod, key, None)) not in wrapped:
                    problems.append(f"{mod.__name__}.{key} is not wrapped")
            for name, src in _late_imports(mod):
                val = getattr(self._module(src), name, None)
                if id(val) in originals:
                    problems.append(f"late import of {src}.{name} in "
                                    f"{mod.__name__} reaches the original")
            for key, val in vars(mod).items():
                for ref in _references(val):
                    if id(ref) in originals:
                        problems.append(f"{mod.__name__}.{key} holds "
                                        f"{originals[id(ref)]} unwrapped")
        if problems:
            raise CoverageError("; ".join(sorted(set(problems))))


def _references(val):
    """The value itself, a class's attributes, a dict's values, and the
    default arguments of each of these, looked up behind any wrapper: the
    places a module can keep a function object."""
    if isinstance(val, type):
        objs = [val, *vars(val).values()]
    elif isinstance(val, dict):
        objs = [val, *val.values()]
    else:
        objs = [val]
    for obj in objs:
        yield obj
        if callable(obj):
            fn = inspect.unwrap(obj)
            yield from getattr(fn, "__defaults__", None) or ()
            yield from (getattr(fn, "__kwdefaults__", None) or {}).values()


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metric values of one traced episode."""
    c, calls = tracer.counts, tracer.calls

    def ms(table, name):
        return 1e3 * table.get(name, 0.0)

    solves = calls["elliptic.solve"]
    out = {
        "grid.fft.calls": c["grid.fft.calls"],
        "grid.fft.mpoints": c["grid.fft.points"] / 1e6,
        "elliptic.solve.failures": tracer.errors["elliptic.solve"],
        "elliptic.gmres.calls": c["elliptic.gmres.calls"],
        "elliptic.matvecs": c["elliptic.matvecs"],
        "elliptic.matvecs_per_solve": (c["elliptic.matvecs"] / solves
                                       if solves else 0.0),
        "elliptic.warm_start_share": (c["elliptic.solve.warm"] / solves
                                      if solves else 0.0),
        "elliptic.project.total_ms": ms(tracer.total, "elliptic.project"),
        "evolve.cfl_limit.self_ms": ms(tracer.self_time, "evolve.cfl_limit"),
        "verify.operators.ms": ms(tracer.total, "verify.operators"),
        "verify.lemmas.ms": ms(tracer.total, "verify.lemmas"),
        "verify.alinhac.ms": ms(tracer.total, "verify.alinhac"),
    }
    for name in ("grid.d_tan", "grid.d_vert", "grid.dealias",
                 "graphmap.build", "graphmap.grad_stack", "elliptic.solve",
                 "elliptic.pressure_rhs", "evolve.step", "evolve.tendencies"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_ms"] = ms(tracer.self_time, name)
    for name in ("state.build_initial_data", "state.constraint_residuals",
                 "diagnostics.higher_energy", "diagnostics.conserved_energy",
                 "good_unknowns.alinhac_residual"):
        out[f"{name}.total_ms"] = ms(tracer.total, name)
    out["good_unknowns.alinhac_residual.calls"] = \
        calls["good_unknowns.alinhac_residual"]
    return out


def exact_counts(metrics: dict) -> dict:
    """The metrics that must repeat exactly between traced runs."""
    return {k: v for k, v in metrics.items()
            if k.endswith(".calls") or k.startswith("grid.fft.")
            or k in ("elliptic.matvecs", "elliptic.solve.failures")}
