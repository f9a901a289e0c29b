"""No dead names in the modules of ``src/refdep`` (``__init__.py`` aside).

Each module reads every name it takes with a ``from``-import, unless the
import line says that ``bench/tracing.py`` wraps the name there and its
``install()`` does replace that module global, reads every private name
it defines at module level, reads every parameter of each of its
functions (``self`` and ``cls`` aside) in that function, and reads every
local name a function binds, unless the name starts with ``_``.  Every
key passed to ``ChoiceDataset.cached`` starts with a string literal, and
each literal appears at exactly one call site: the keys of all modules
share one cache per dataset, so a repeated one would hand back another
computation's value.  Every exception class is read in another module.
Only ``choices.py`` reads ``maximizers`` or defines a ``choose``
function, so the models' choice rules all come from its one builder.
Only ``serialize.py`` imports ``json``, so JSON text has one boundary.
Only ``feasibility.py`` names ``_simplex_maximize`` or builds a
``Constraint``, so every LP takes one builder path.
Every public module-level function and class has a reader outside the
tests (being exported by ``__init__.py`` does not make one), and so has
every public method that overrides no base-class method.  The modules of
``tests/`` and ``demos/`` read every name they import.
"""

import ast
import importlib
from functools import cache
from pathlib import Path

import pytest

from test_bench_tracing import _load_tracing

SRC = Path(__file__).resolve().parents[1] / "src" / "refdep"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")
WRAPPED = "bench/tracing.py wraps it"


@cache
def _replaced_by_tracing():
    """(module stem, name) for each module global that the benchmark's
    ``install()`` replaces; every original is restored before returning."""
    modules = {path.stem: importlib.import_module(f"refdep.{path.stem}") for path in MODULES}
    before = {stem: dict(vars(module)) for stem, module in modules.items()}
    tracer = _load_tracing().install()
    try:
        return {(stem, name) for stem, module in modules.items()
                for name, value in vars(module).items() if before[stem].get(name) is not value}
    finally:
        tracer.remove()


def _parse(path):
    source = path.read_text()
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return source.splitlines(), tree, read


def _defined(statement):
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        yield statement.name
    targets = (statement.targets if isinstance(statement, ast.Assign)
               else [statement.target] if isinstance(statement, ast.AnnAssign) else [])
    for target in targets:
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                yield node.id


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_every_from_import_is_read(path):
    lines, tree, read = _parse(path)
    unused = [alias.asname or alias.name
              for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module != "__future__"
              for alias in node.names
              if (alias.asname or alias.name) not in read
              and not (WRAPPED in lines[alias.lineno - 1]
                       and (path.stem, alias.asname or alias.name) in _replaced_by_tracing())]
    assert not unused, f"{path.name} imports but never reads {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_every_private_module_name_is_read(path):
    _, tree, read = _parse(path)
    unread = [name for statement in tree.body for name in _defined(statement)
              if name.startswith("_") and not name.startswith("__") and name not in read]
    assert not unread, f"{path.name} defines but never reads {unread}"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_every_parameter_is_read(path):
    _, tree, _ = _parse(path)
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        spec = node.args
        params = [*spec.posonlyargs, *spec.args, *spec.kwonlyargs,
                  *filter(None, (spec.vararg, spec.kwarg))]
        read = {name.id for statement in node.body for name in ast.walk(statement)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
        unread += [f"{node.name}({arg.arg})" for arg in params
                   if arg.arg not in ("self", "cls") and arg.arg not in read]
    assert not unread, f"{path.name} never reads the parameters {unread}"


def _bound(node):
    """The names ``node`` binds: assignment and loop targets, ``as``
    names, and nested definitions and imports."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
        yield node.id
    elif isinstance(node, ast.ExceptHandler) and node.name:
        yield node.name
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        yield node.name
    elif isinstance(node, (ast.Import, ast.ImportFrom)):
        yield from ((alias.asname or alias.name).split(".")[0] for alias in node.names)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_every_local_name_is_read(path):
    _, tree, _ = _parse(path)
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        inside = [sub for statement in node.body for sub in ast.walk(statement)]
        read = {sub.id for sub in inside
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        unread += [f"{node.name}({name})"
                   for name in sorted({name for sub in inside for name in _bound(sub)})
                   if not name.startswith("_") and name not in read]
    assert not unread, f"{path.name} binds but never reads {unread}"


def _cache_tag(key):
    """The string literal a ``cached`` key is or starts with, else None."""
    if isinstance(key, ast.Tuple) and key.elts:
        key = key.elts[0]
    return key.value if isinstance(key, ast.Constant) and isinstance(key.value, str) else None


def test_every_cache_key_is_a_literal_used_at_one_call_site():
    sites = {}
    for path in MODULES:
        _, tree, _ = _parse(path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "cached":
                sites.setdefault(_cache_tag(node.args[0]), []).append(
                    f"{path.name}:{node.lineno}")
    assert None not in sites, f"cache keys with no literal tag at {sites[None]}"
    repeated = {tag: where for tag, where in sites.items() if len(where) > 1}
    assert not repeated, f"cache keys used at more than one call site: {repeated}"
    assert len(sites) >= 10


def test_every_exception_class_is_used():
    """Each class of ``exceptions.py`` is read in another module, so an
    error type whose last raise is gone does not linger."""
    _, tree, _ = _parse(SRC / "exceptions.py")
    defined = [node.name for node in tree.body if isinstance(node, ast.ClassDef)]
    read = set().union(*(_parse(path)[2] for path in MODULES if path.stem != "exceptions"))
    unused = [name for name in defined if name not in read]
    assert not unused, f"exceptions.py defines but no other module reads {unused}"
    assert len(defined) >= 19


def test_only_the_rule_builder_maximizes_or_defines_choose():
    """The models hand a reference and a score to
    ``choices.reference_rule``; none reads ``maximizers`` or builds its
    own ``choose`` closure."""
    found = {}
    for path in MODULES:
        _, tree, read = _parse(path)
        defines = any(isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and node.name == "choose" for node in ast.walk(tree))
        if defines or "maximizers" in read:
            found[path.stem] = defines, "maximizers" in read
    assert found == {"choices": (True, True)}, found


def test_only_feasibility_reaches_the_simplex_or_builds_constraints():
    """Every LP goes through one builder: no module but ``feasibility.py``
    names ``_simplex_maximize``, ``Constraint`` or ``constraint``, so the
    fitters hand rows to ``LinearFeasibilityProblem.add`` and the problem
    to ``solve_linear_feasibility``."""
    found = {}
    for path in MODULES:
        _, tree, _ = _parse(path)
        names = {sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(tree)
                 if isinstance(sub, (ast.Name, ast.Attribute))}
        hits = names & {"_simplex_maximize", "Constraint", "constraint"}
        if hits:
            found[path.stem] = sorted(hits)
    assert found == {"feasibility": ["Constraint", "_simplex_maximize", "constraint"]}, found


def test_only_serialize_imports_json():
    """JSON text is read and written in ``serialize.py`` alone, and it
    calls no ``json.dumps``: one emitter, whose bytes the tests pin
    against ``json.dumps`` itself."""
    importers, dumps = set(), set()
    for path in sorted(SRC.glob("*.py")):
        _, tree, _ = _parse(path)
        for node in ast.walk(tree):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(name == "json" or name.startswith("json.") for name in names):
                importers.add(path.stem)
            if isinstance(node, ast.Attribute) and node.attr == "dumps":
                dumps.add(f"{path.name}:{node.lineno}")
    assert importers == {"serialize"}, importers
    assert not dumps, f"json.dumps called at {sorted(dumps)}"


ROOT = SRC.parents[1]


def _names_read(node):
    """The names and attribute names read anywhere in ``node``."""
    return {sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(sub.ctx, ast.Load)}


@cache
def _outside_trees():
    """The parsed modules of ``demos/`` and ``bench/``, ``test_*.py`` aside."""
    return tuple(ast.parse(path.read_text())
                 for folder in ("demos", "bench") for path in sorted((ROOT / folder).glob("*.py"))
                 if not path.name.startswith("test_"))


def test_every_public_function_has_a_reader_outside_the_tests():
    """Each public module-level function and class of ``src/refdep`` is
    read by another statement of ``src/refdep``, by ``demos/``, by
    ``bench/`` (its ``test_*.py`` aside) or by ``tests/test_acceptance.py``;
    the ``cmd_<subcommand>`` handlers that ``main`` looks up for
    ``build_parser()``'s subcommands count as read.  An export in
    ``refdep/__init__.py`` is not a reader: code only the tests call is
    dead."""
    _, cli, _ = _parse(SRC / "cli.py")
    handlers = {"cmd_" + node.args[0].value.replace("-", "_") for node in ast.walk(cli)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_parser"}
    assert len(handlers) == 8, handlers
    acceptance = ast.parse(Path(__file__).with_name("test_acceptance.py").read_text())
    outside = handlers | set().union(*map(_names_read, (*_outside_trees(), acceptance)))
    statements = [(path.stem, node) for path in MODULES for node in _parse(path)[1].body]
    inside = [(node, _names_read(node)) for _, node in statements]
    unread = [f"{stem}.{node.name}" for stem, node in statements
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in outside
              and not any(node.name in names for other, names in inside if other is not node)]
    assert not unread, f"only the tests read {unread}"


def test_every_public_method_has_a_reader_outside_the_tests():
    """Each public method of a class of ``src/refdep`` is read as an
    attribute by ``src/refdep``, ``demos/`` or ``bench/`` (its ``test_*.py``
    aside), unless it overrides a method of a base class, as
    ``_Parser.error`` does for ``argparse``.  Like the function check it
    goes by name: a method that shares its name with an attribute read
    elsewhere passes."""
    trees = {path: _parse(path)[1] for path in MODULES}
    read = {node.attr for tree in (*trees.values(), *_outside_trees()) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = []
    for path, tree in trees.items():
        module = importlib.import_module(f"refdep.{path.stem}")
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            bases = getattr(module, node.name).__mro__[1:]
            unread += [f"{path.stem}.{node.name}.{method.name}" for method in node.body
                       if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                       and not method.name.startswith("_") and method.name not in read
                       and not any(hasattr(base, method.name) for base in bases)]
    assert not unread, f"only the tests read {unread}"


@pytest.mark.parametrize("path", sorted([*(ROOT / "tests").glob("*.py"),
                                          *(ROOT / "demos").glob("*.py")]),
                         ids=lambda path: f"{path.parent.name}/{path.stem}")
def test_every_name_a_test_or_demo_imports_is_read(path):
    _, tree, read = _parse(path)
    unused = [name for node in ast.walk(tree)
              if isinstance(node, ast.Import)
              or isinstance(node, ast.ImportFrom) and node.module != "__future__"
              for name in _bound(node) if name not in read]
    assert not unused, f"{path.parent.name}/{path.name} imports but never reads {unused}"
