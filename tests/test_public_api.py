import ast
import types
from pathlib import Path

import toruskit as tk


def test_all_names_resolve_and_none_is_a_module():
    assert len(tk.__all__) == len(set(tk.__all__))
    for name in tk.__all__:
        assert not isinstance(getattr(tk, name), types.ModuleType), name
    # every public name the package imports is listed, submodules aside
    public = {name for name, value in vars(tk).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(tk.__all__)


def _bound_names(node):
    """Names a module-level import statement binds."""
    for alias in node.names:
        if alias.asname:
            yield alias.asname
        elif isinstance(node, ast.Import):
            yield alias.name.split(".")[0]
        else:
            yield alias.name


def test_every_module_import_is_used():
    # __init__ is exempt: its imports are the package's re-exports
    unused = []
    for path in sorted(Path(tk.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                unused += [f"{path.name}: {name}" for name in _bound_names(node)
                           if name not in used]
    assert unused == []


def _referenced_names(node):
    """Every name and attribute name that `node` refers to."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def test_every_private_helper_is_used():
    # a module-level function or class named _x that nothing in the package
    # refers to, outside its own definition, is dead code
    statements = []
    for path in sorted(Path(tk.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            statements.append((path.name, node, set(_referenced_names(node))))
    dead = [f"{name}: {node.name}" for name, node, _ in statements
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_")
            and not any(node.name in refs for _, other, refs in statements
                        if other is not node)]
    assert dead == []
