"""No dead code under ``src/capelast``: every module-level import is used,
every function parameter is read, and every definition is used.

The check walks each module's syntax tree.  A name counts as used or read
when some expression of the module (for an import) or of the function body
(for a parameter) loads it.  A module-level function, class or constant,
or a method, counts as used when some expression of the package loads its
name, as a name or as an attribute, when its module exports it in
``__all__``, or when the benchmark tracer names it.  What stays on purpose
though nothing reads it is listed below, each with its reason.
"""

import ast
from pathlib import Path

from test_benchmark_guard import load_perfbench

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "capelast"
WORKLOADS = ROOT / "perfbench" / "workloads.py"

# (module, function, parameter) -> why the parameter stays unread
UNREAD_PARAMETERS = {
    ("elliptic", "pressure_rhs.column", "k"):
        "each_gradient_column calls every feed as feed(k, DF_k), and the "
        "pressure source sums the divergences of all columns alike",
    ("verify", "moving_history", "cutoff"):
        "perfbench/workloads.py passes a cutoff to every history builder",
    ("verify", "static_history", "cutoff"):
        "perfbench/workloads.py passes a cutoff to every history builder",
    ("verify", "steady_sheared_history", "cutoff"):
        "perfbench/workloads.py passes a cutoff to every history builder",
}

# (module, definition) -> why it stays though nothing in the package uses it
UNUSED_DEFINITIONS = {
    ("state", "load_state"):
        "the restart API the roadmap's third aim asks for; a resumed run "
        "will call it",
}


def _modules():
    for path in sorted(SRC.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), filename=str(path))


def _loaded(node) -> set:
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _exported(tree) -> set:
    """The names a module lists in ``__all__``."""
    for stmt in tree.body:
        if (isinstance(stmt, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in stmt.targets)):
            return set(ast.literal_eval(stmt.value))
    return set()


def _imports(tree):
    """(bound name, line) of each import statement at module level."""
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                yield (alias.asname or alias.name.split(".")[0]), stmt.lineno


def _functions(tree):
    """(qualified name, node) of every function, nested ones included."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                yield name, child
                yield from walk(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, prefix + child.name + ".")
            else:
                yield from walk(child, prefix)
    yield from walk(tree, "")


def _definitions(tree):
    """The qualified name of each module-level function, class and
    constant and each method.  Dunder names are left out: Python itself
    calls or reads them."""
    def named(name):
        return not (name.startswith("__") and name.endswith("__"))

    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield stmt.name
        if isinstance(stmt, ast.ClassDef):
            yield from (f"{stmt.name}.{m.name}" for m in stmt.body
                        if isinstance(m, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))
                        and named(m.name))
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target])
            yield from (n.id for t in targets for n in ast.walk(t)
                        if isinstance(n, ast.Name) and named(n.id))


def _parameters(fn) -> list:
    a = fn.args
    params = [*a.posonlyargs, *a.args, *a.kwonlyargs]
    params += [p for p in (a.vararg, a.kwarg) if p is not None]
    names = [p.arg for p in params]
    # a method's first parameter is the instance or class it is bound to
    if names and names[0] in ("self", "cls"):
        names = names[1:]
    return names


def dead_imports(bindings) -> list:
    """``module: name (line n)`` for each import nothing loads.  A name
    the module exports in ``__all__`` or that ``bindings`` (the
    benchmark tracer's required bindings) names for it is used."""
    found = []
    for module, tree in _modules():
        used = (_loaded(tree) | _exported(tree)
                | set(bindings.get(module, ())))
        found += [f"{module}: {name} (line {line})"
                  for name, line in _imports(tree) if name not in used]
    return found


def dead_definitions(traced) -> list:
    """(module, qualified name) for each definition nothing uses.  A
    method is used when its own name is loaded; ``traced`` holds the names
    the benchmark tracer binds."""
    modules = list(_modules())
    loaded = set(traced)
    for _, tree in modules:
        loaded |= _loaded(tree)
        loaded |= {n.attr for n in ast.walk(tree)
                   if isinstance(n, ast.Attribute)
                   and isinstance(n.ctx, ast.Load)}
    found = []
    for module, tree in modules:
        used = loaded | _exported(tree)
        found += [(module, name) for name in _definitions(tree)
                  if name.rpartition(".")[2] not in used]
    return found


def dead_parameters() -> list:
    """(module, function, parameter) for each parameter no body reads."""
    found = []
    for module, tree in _modules():
        for name, fn in _functions(tree):
            read = set().union(*(_loaded(stmt) for stmt in fn.body))
            found += [(module, name, p) for p in _parameters(fn)
                      if p not in read]
    return found


def test_every_module_level_import_is_used():
    tracing = load_perfbench("tracing")
    assert dead_imports(tracing.REQUIRED_BINDINGS) == []


def test_every_function_parameter_is_read():
    dead = dead_parameters()
    assert [d for d in dead if d not in UNREAD_PARAMETERS] == []
    # an allowlist entry whose parameter is read again, or gone, is stale
    assert sorted(set(UNREAD_PARAMETERS) - set(dead)) == []


def test_unread_parameters_kept_for_the_benchmark_are_passed_by_it():
    # an entry kept because perfbench/workloads.py passes the parameter is
    # stale once that file no longer calls the function
    tree = ast.parse(WORKLOADS.read_text(), filename=str(WORKLOADS))
    called = {n.func.attr if isinstance(n.func, ast.Attribute)
              else getattr(n.func, "id", None)
              for n in ast.walk(tree) if isinstance(n, ast.Call)}
    cited = [(module, function)
             for (module, function, _), reason in UNREAD_PARAMETERS.items()
             if "perfbench/workloads.py" in reason]
    assert [c for c in cited if c[1].rpartition(".")[2] not in called] == []


def test_every_definition_is_used():
    tracing = load_perfbench("tracing")
    traced = set(tracing.FFT_FUNCTIONS).union(
        *tracing.REQUIRED_BINDINGS.values())
    dead = dead_definitions(traced)
    assert [d for d in dead if d not in UNUSED_DEFINITIONS] == []
    # an allowlist entry that is used again, or gone, is stale
    assert sorted(set(UNUSED_DEFINITIONS) - set(dead)) == []
