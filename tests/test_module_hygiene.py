"""Static checks over the package sources with the stdlib ``ast`` module.

Every name a module exports through ``__all__`` must be bound at its top
level, and every name a module imports must be used in it (or re-exported
through ``__all__``).  Every private top-level function, class or constant
must be read somewhere in the package, and so must every name a submodule
exports, unless ``corostab/__init__.py`` re-exports it.  Deleting a function
leaves all four kinds of stale name behind, and no linter ships with the
package.  A model's regime is refused in one place: no ``raise UsageError``
outside ``MaterialModel.require`` words a message about compressibility.  The
package imports only the standard library and the dependencies
``pyproject.toml`` declares; scipy, mpmath, sympy and hypothesis are for the
tests alone.  Every backticked ``name(params)`` in README.md and PAPER.md
that names an export of ``corostab`` or a method of an exported class lists
the parameters of the code, in order.
"""

import ast
import inspect
import re
import sys
from pathlib import Path

import pytest

import corostab

SOURCES = sorted(Path(corostab.__file__).parent.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _imported_names(node):
    for alias in node.names:
        if isinstance(node, ast.Import):
            yield alias.asname or alias.name.split(".")[0]
        elif alias.name != "*":
            yield alias.asname or alias.name


def _top_level_names(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(_imported_names(node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "protocols.py", "tensor3.py"}


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_all_names_resolve(path):
    tree = _tree(path)
    exports = _exports(tree)
    assert len(exports) == len(set(exports)), "duplicate names in __all__"
    missing = sorted(set(exports) - _top_level_names(tree))
    assert not missing, f"{path.name}: __all__ names not defined: {missing}"


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_imports(path):
    tree = _tree(path)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= set(_exports(tree))
    imported = {
        name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in _imported_names(node)
    }
    unused = sorted(imported - used)
    assert not unused, f"{path.name}: unused imports {unused}"


def _private_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.startswith("__"))


def test_no_stranded_private_names():
    # a private name may be read in its own module or imported by another
    trees = {path.name: _tree(path) for path in SOURCES}
    read = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                read.update(alias.name for alias in n.names)
    stranded = sorted(
        f"{name}: {n}" for name, tree in trees.items() for n in _private_definitions(tree)
        if n not in read
    )
    assert not stranded, f"private names defined but never read: {stranded}"


def _package_module(node):
    """The corostab submodule a from-import reads from, "" for the package
    itself, None outside the package."""
    if node.level == 1:
        return node.module or ""
    if node.module == "corostab" or (node.module or "").startswith("corostab."):
        return node.module.partition(".")[2]
    return None


def test_no_unread_public_names():
    # a submodule's export is read as a bare name in its own module, through
    # a from-import (__init__.py's re-exports among them) or as an attribute
    # of its module (``stab.region_scan`` after ``from . import stability as
    # stab``); ``np.linalg.norm`` reads no ``norm`` of the package
    trees = {path.stem: _tree(path) for path in SOURCES}
    read = set()
    for mod, tree in trees.items():
        modules = {}  # local name -> the submodule it binds
        for n in ast.walk(tree):
            if isinstance(n, ast.ImportFrom) and _package_module(n) is not None:
                source = _package_module(n)
                for alias in n.names:
                    if source:
                        read.add((source, alias.name))
                    else:
                        modules[alias.asname or alias.name] = alias.name
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add((mod, n.id))
            elif (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                  and n.value.id in modules):
                read.add((modules[n.value.id], n.attr))
    unread = sorted(
        f"{mod}.{name}" for mod, tree in trees.items() if mod != "__init__"
        for name in _exports(tree) if (mod, name) not in read
    )
    assert not unread, f"exported names no package module reads: {unread}"


def _scoped_nodes(node, scope=()):
    """(qualified name of the enclosing def, node) of every node under
    ``node``; a def's own name is part of its scope."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = (*scope, child.name)
        yield ".".join(inner), child
        yield from _scoped_nodes(child, inner)


def _usage_errors(tree):
    """(qualified name of the enclosing def, text of the message) of every
    ``raise UsageError(...)`` in ``tree``; the text joins the string
    constants of the call, f-string parts included."""
    for where, node in _scoped_nodes(tree):
        if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and getattr(node.exc.func, "id", None) == "UsageError"):
            yield where, " ".join(n.value for n in ast.walk(node.exc)
                                  if isinstance(n, ast.Constant) and isinstance(n.value, str))


def test_regime_is_refused_only_by_the_rule():
    raised = [(f"{path.stem}.{where}", text) for path in SOURCES
              for where, text in _usage_errors(_tree(path))]
    assert len(raised) >= 5  # the walk sees the package's usage errors
    stray = [f"{where}: {text!r}" for where, text in raised
             if "compressible" in text and where != "materials.MaterialModel.require"]
    assert not stray, f"regime refusals outside MaterialModel.require: {stray}"


def test_cli_leaves_the_floating_point_policy_to_the_library():
    # the library silences numpy's floating-point warnings where it evaluates
    # (``errors.quiet_fp``); a CLI copy of that policy hid the library's gaps
    tree = _tree(next(p for p in SOURCES if p.name == "cli.py"))
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert not names & {"errstate", "seterr", "quiet_fp"}


def _format_site(node):
    """What of the output format ``node`` writes out: a JSON dump, a CSV
    field join or the ``repr`` that formats a CSV value; None otherwise."""
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    if name in ("dump", "dumps", "repr"):
        return name
    if name == "join" and getattr(node.value, "value", None) == ",":
        return '",".join'
    return None


def test_output_format_is_stated_once():
    # the CSV and JSON format lives in ``errors.csv_text`` and
    # ``errors.json_text``; a second copy of it could drift from them
    sites = {(f"{path.stem}.{where}", what) for path in SOURCES
             for where, node in _scoped_nodes(_tree(path)) if (what := _format_site(node))}
    assert sites == {("errors.json_text", "dumps"), ("errors.csv_text", '",".join'),
                     ("errors.csv_text", "repr")}


def _declared_dependencies():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    tomllib = pytest.importorskip("tomllib")
    deps = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", d).group(0).replace("-", "_") for d in deps}


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_imports_only_stdlib_and_declared_dependencies(path):
    allowed = set(sys.stdlib_module_names) | _declared_dependencies()
    tree = _tree(path)
    top = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            top.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            top.add(node.module.split(".")[0])
    assert top <= allowed, f"{path.name}: imports outside stdlib and dependencies {sorted(top - allowed)}"


DOCS = [Path(__file__).resolve().parents[1] / name for name in ("README.md", "PAPER.md")]
_DOC_CALL = re.compile(r"`([A-Za-z_][\w.]*)\(([^`()]*)\)`")


def _documented_callables(name):
    """The corostab exports or methods of exported classes a documented name
    (``sweep``, ``CurveTable.to_csv``, ``to_csv``) can mean."""
    name = name.rpartition(".")[2]
    if name in corostab.__all__:
        return [getattr(corostab, name)]
    classes = [getattr(corostab, n) for n in corostab.__all__]
    return [getattr(c, name) for c in classes
            if isinstance(c, type) and callable(getattr(c, name, None))]


def _parameter_names(fn):
    names = list(inspect.signature(fn).parameters)
    return names[1:] if names[:1] == ["self"] else names


def test_documented_signatures_match_code():
    # each backticked `name(p1, p2=default)` that names an export or one of its
    # methods lists the parameter names of the code, in order
    wrong, checked = [], 0
    for doc in DOCS:
        for name, params in _DOC_CALL.findall(doc.read_text()):
            fns = _documented_callables(name)
            documented = [p.partition("=")[0].strip() for p in params.split(",") if p.strip()]
            checked += bool(fns)
            if fns and all(_parameter_names(fn) != documented for fn in fns):
                wrong.append(f"{doc.name}: {name}({params}) vs {_parameter_names(fns[0])}")
    assert checked >= 20  # README.md and PAPER.md list 13 each
    assert not wrong, f"documented signatures that differ from the code: {wrong}"
