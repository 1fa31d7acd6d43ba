"""Every module-level private function, class or constant in ``src/sst`` is
read somewhere in ``src/sst`` outside its own definition, so no dead helper
stays behind."""

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
