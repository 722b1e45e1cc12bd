"""Stale imports and re-exports in ``src/permflow`` and ``tests``.

No linter is a dependency, so this parses every module with ``ast``: each
imported name must be used in its module, where a name listed in the
module's ``__all__`` counts as used. A package module lists an imported
name in ``__all__`` without using it only for the two names that
``perfbench``'s answer check calls: ``oracle.OracleUnsat`` and
``oracle.oracle_solve``. Every other name is imported from the module
that defines it, and the package root exports nothing. ``permflow.oracle``
stays a leaf: no package module imports it. No package module imports
another's underscore-prefixed names: those stay behind the module boundary,
so each one that a package module defines must be used in it. Every
public module-level function and class of a package module, and every
public method of a module-level class, is loaded somewhere in the package
or in ``perfbench/*.py`` outside its own definition: a method counts as
loaded where any attribute of its name is read. Names that only tests use
belong in the tests; ``UNCALLED`` lists the exceptions, each with its
reason. README's library table names each package module but the root,
and no other.
"""

import ast
import os
import re
from collections import Counter

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
SRC = os.path.join(ROOT, "src", "permflow")
PERFBENCH = os.path.join(ROOT, "perfbench")
# package modules by file name, test modules as tests/<file name>
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py")) + sorted(
    f"tests/{f}" for f in os.listdir(os.path.join(ROOT, "tests")) if f.endswith(".py")
)
PACKAGE = [m for m in MODULES if "/" not in m]


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import in the module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _quoted(tree: ast.AST) -> list[str]:
    """The names in the tree's quoted annotations, which name types too."""
    return [n.id for ann in _annotations(tree) for node in ast.walk(ann)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            for n in ast.walk(ast.parse(node.value, mode="eval"))
            if isinstance(n, ast.Name)]


def _loaded(tree: ast.Module) -> set[str]:
    """Every name the module loads, in code or in a quoted annotation."""
    used = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return used | set(_quoted(tree))


def _exported(tree: ast.Module) -> set[str]:
    """The names in the module's ``__all__``."""
    return {e.value for node in tree.body
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for e in node.value.elts}


def _parse(module: str) -> ast.Module:
    path = os.path.join(ROOT if "/" in module else SRC, module)
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=module)


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree = _parse(module)
    used = _loaded(tree) | _exported(tree)
    unused = {n: line for n, line in _imported(tree).items() if n not in used}
    assert not unused, f"{module}: unused imports {unused}"


# (module, name): the only imported names a package module may re-export
# without using them, each one for perfbench
REEXPORTS = {
    ("oracle.py", "OracleUnsat"),
    ("oracle.py", "oracle_solve"),
}


@pytest.mark.parametrize("module", PACKAGE)
def test_only_perfbench_names_are_reexported(module):
    tree = _parse(module)
    reexported = (_imported(tree).keys() & _exported(tree)) - _loaded(tree)
    extra = sorted(n for n in reexported if (module, n) not in REEXPORTS)
    assert not extra, f"{module} re-exports {extra}"


def _imported_modules(tree: ast.Module):
    """Each module an import names, and each imported name qualified by its
    module, so that ``from . import oracle`` gives ``.oracle``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
            yield from (f"{node.module or ''}.{alias.name}" for alias in node.names)


@pytest.mark.parametrize("module", PACKAGE)
def test_no_package_module_imports_the_oracle(module):
    tree = _parse(module)
    oracle = [m for m in _imported_modules(tree) if m.split(".")[-1] == "oracle"]
    assert not oracle, f"{module} imports {oracle}"


@pytest.mark.parametrize("module", PACKAGE)
def test_no_package_module_imports_a_private_name(module):
    tree = _parse(module)
    private = [
        f"{'.' * node.level}{node.module or ''}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "permflow")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, f"{module} imports {private}"


def _defined(tree: ast.Module) -> dict[str, int]:
    """Name -> line of each module-level function, class and assignment."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        names[n.id] = node.lineno
    return names


@pytest.mark.parametrize("module", PACKAGE)
def test_every_private_name_is_used(module):
    tree = _parse(module)
    used = _loaded(tree) | _exported(tree)
    dead = {n: line for n, line in _defined(tree).items()
            if n.startswith("_") and not n.startswith("__") and n not in used}
    assert not dead, f"{module}: unused private names {dead}"


def test_readme_library_table_names_every_module():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("## Library layout", 1)[1].split("\n## ", 1)[0]
    rows = {name for line in section.splitlines() if line.startswith("| `permflow.")
            for name in re.findall(r"`permflow\.(\w+)`", line.split("|")[1])}
    modules = {m[:-3] for m in PACKAGE if m != "__init__.py"}
    assert rows == modules, (sorted(modules - rows), sorted(rows - modules))


# public names that nothing in the package or perfbench loads, with why
UNCALLED = {
    # the differential suite's reference for ``solve``; it moves to the
    # tests once no benchmark layer wraps the symbolic pipeline it runs
    "solver.symbolic_solve",
    # argparse calls it on ``--help``
    "_Parser.print_help",
}


def _public_definitions(tree: ast.Module):
    """(qualified name, node) of each public module-level function and
    class, and of each public method of a module-level class."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*funcs, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, funcs) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _reads(tree: ast.AST) -> list[str]:
    """Each name and attribute the tree loads, once per occurrence."""
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))
            and isinstance(n.ctx, ast.Load)] + _quoted(tree)


def test_every_public_name_is_loaded_outside_tests():
    bench = sorted(f for f in os.listdir(PERFBENCH) if f.endswith(".py"))
    trees = [_parse(m) for m in PACKAGE]
    reads = Counter()
    for tree in trees + [_parse(f"perfbench/{f}") for f in bench]:
        reads.update(_reads(tree))
    unloaded, excused = [], set()
    for module, tree in zip(PACKAGE, trees):
        for name, node in _public_definitions(tree):
            short = name.rsplit(".", 1)[-1]
            if reads[short] > _reads(node).count(short):
                continue
            qualified = name if "." in name else f"{module[:-3]}.{name}"
            if qualified in UNCALLED:
                excused.add(qualified)
            else:
                unloaded.append(f"{module}:{node.lineno} {name}")
    assert not unloaded, f"loaded by tests only: {unloaded}"
    assert excused == UNCALLED, f"no longer unloaded: {sorted(UNCALLED - excused)}"
