"""Every module-level private function, class or constant in ``src/sst`` is
read somewhere in ``src/sst`` outside its own definition, and every
module-level import of a module other than ``__init__.py`` is read in that
module, so no dead helper or import stays behind."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "sst"


def _defined(statement) -> list:
    """The names a top-level statement binds by ``def``, ``class`` or ``=``."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        return [t.id for t in statement.targets if isinstance(t, ast.Name)]
    if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        return [statement.target.id]
    return []


def _read(statement) -> set:
    """The names a statement reads, as variables or as attributes."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(statement)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}


def test_every_private_module_name_is_read():
    private, read = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for statement in ast.parse(path.read_text()).body:
            names = _defined(statement)
            read |= _read(statement) - set(names)
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    private[name] = f"{path.name}:{statement.lineno}"
    unread = {name: where for name, where in private.items() if name not in read}
    assert not unread, f"private names nothing reads: {unread}"


def _imported(statement) -> list:
    """The names a top-level ``import`` or ``from ... import`` binds; none
    for ``from __future__``."""
    if isinstance(statement, ast.ImportFrom) and statement.module != "__future__":
        return [alias.asname or alias.name for alias in statement.names]
    if isinstance(statement, ast.Import):
        return [alias.asname or alias.name.partition(".")[0] for alias in statement.names]
    return []


def test_every_module_level_import_is_read():
    unread = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{path.name}:{statement.lineno} {name}"
                   for statement in tree.body for name in _imported(statement)
                   if name not in read]
    assert not unread, f"imports nothing reads: {unread}"
