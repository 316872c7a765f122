"""The names of the package: each public one resolves, and each public or private one is read by
the package itself."""

import ast
import importlib
import pkgutil
from pathlib import Path

import accr

SRC = Path(accr.__file__).resolve().parent


def test_every_exported_name_resolves():
    missing = []
    for info in pkgutil.iter_modules(accr.__path__, "accr."):
        module = importlib.import_module(info.name)
        exported = getattr(module, "__all__", ())
        missing += [f"{info.name}.{name}" for name in exported if not hasattr(module, name)]
    assert missing == []


def _exported(node):
    """The names an `__all__ = [...]` statement lists; none for any other statement."""
    if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
        return ast.literal_eval(node.value)
    return []


def _public_definitions(tree):
    """(qualified name, definition node) for each name in the module's __all__, and each
    public method or property of an exported class defined in the module.

    A definition is its def, class or assignment statement.
    """
    exported = [name for node in tree.body for name in _exported(node)]
    found = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            found += [(t.id, node) for t in node.targets if isinstance(t, ast.Name) and t.id in exported]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in exported:
            found.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                found += [(f"{node.name}.{member.name}", member) for member in node.body
                          if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")]
    return found


def _named(node):
    """The name a node reads, if it is a name, an attribute or an imported name."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def _private_definitions(tree):
    """(name, definition node) for each private function, class or constant of the module.

    Dunders such as __all__ are not private.
    """
    found = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.id, node) for t in targets if isinstance(t, ast.Name)]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, node))
    return [(name, node) for name, node in found if name.startswith("_") and not name.endswith("__")]


def _unread(definitions):
    """Each definition of every module in src/ that nothing in src/ outside it reads."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    uses = [(node, _named(node)) for tree in trees.values() for node in ast.walk(tree) if _named(node)]
    unread = []
    for module, tree in trees.items():
        for qualified, definition in definitions(tree):
            inside = {id(node) for node in ast.walk(definition)}
            name = qualified.rsplit(".", 1)[-1]
            if not any(used == name and id(node) not in inside for node, used in uses):
                unread.append(f"{module}.{qualified}")
    return unread


def test_every_public_name_is_read_by_the_package():
    # public API that only tests call is not part of the program
    assert _unread(_public_definitions) == []


def test_every_private_name_is_read_by_the_package():
    # a private table or helper that the code no longer reads is dead
    assert _unread(_private_definitions) == []


def _unread_imports(tree):
    """Each name that one of the module's import statements binds and nothing in the module reads.

    A name the module exports through __all__ is read; `from __future__` binds nothing.
    """
    exported = {name for node in tree.body for name in _exported(node)}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | exported
    imported = [(alias.asname or alias.name.split(".")[0])
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for alias in node.names]
    return [name for name in imported if name not in read]


def test_every_imported_name_is_read_by_its_module():
    # an import that nothing reads is left over from code that moved or went
    unread = {path.stem: _unread_imports(ast.parse(path.read_text(encoding="utf-8")))
              for path in sorted(SRC.glob("*.py"))}
    assert {module: names for module, names in unread.items() if names} == {}
