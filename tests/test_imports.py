"""Module imports and helpers: no beepsync module imports a private name of
another or a name it never reads, and every private helper is read."""

import ast
from pathlib import Path

import beepsync

PACKAGE = Path(beepsync.__file__).parent


def private_imports(path: Path) -> list[str]:
    """``from`` imports of underscore names out of beepsync modules in ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = "." * node.level + (node.module or "")
        if node.level or module.split(".")[0] == "beepsync":
            found.extend(
                f"{path.name}:{node.lineno} imports {alias.name} from {module}"
                for alias in node.names
                if alias.name.startswith("_")
            )
    return found


def test_no_module_imports_a_private_name():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    assert [hit for path in modules for hit in private_imports(path)] == []


def unused_imports(path: Path) -> list[str]:
    """Top-level imports in ``path`` that nothing in it reads, unless their
    line carries ``# unused here``."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for stmt in tree.body:
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        for alias in stmt.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and "# unused here" not in lines[alias.lineno - 1]:
                found.append(f"{path.name}:{alias.lineno} imports {alias.name} unused")
    return found


def test_no_module_imports_an_unused_name():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) > 1
    assert [hit for path in modules for hit in unused_imports(path)] == []


def unreferenced_helpers(paths: list[Path]) -> list[str]:
    """Top-level ``_name`` functions and classes in ``paths`` that no code in
    ``paths`` reads outside the helper's own definition."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    found = []
    for path, tree in trees.items():
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) or stmt.name[0] != "_":
                continue
            own = {id(node) for node in ast.walk(stmt)}
            read = any(
                id(node) not in own
                and stmt.name in (getattr(node, "id", None), getattr(node, "attr", None))
                for other in trees.values()
                for node in ast.walk(other)
            )
            if not read:
                found.append(f"{path.name}:{stmt.lineno} defines {stmt.name}, never read")
    return found


def test_no_private_helper_is_unreferenced():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    assert unreferenced_helpers(modules) == []
