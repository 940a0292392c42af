"""Module imports and helpers: no beepsync module imports a private name of
another or a name it never reads, and every private helper and constant is
read."""

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


def private_names(stmt: ast.stmt) -> list[str]:
    """The ``_name`` a top-level function, class or assignment defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [target.id for target in stmt.targets if isinstance(target, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = [stmt.target.id]
    else:
        names = []
    return [name for name in names if name[0] == "_" and not name.startswith("__")]


def unreferenced_helpers(paths: list[Path]) -> list[str]:
    """Top-level ``_name`` functions, classes and constants in ``paths`` that
    no code in ``paths`` reads outside the statement defining them."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    found = []
    for path, tree in trees.items():
        for stmt in tree.body:
            own = {id(node) for node in ast.walk(stmt)}
            for name in private_names(stmt):
                read = any(
                    id(node) not in own
                    and not isinstance(getattr(node, "ctx", None), ast.Store)
                    and name in (getattr(node, "id", None), getattr(node, "attr", None))
                    for other in trees.values()
                    for node in ast.walk(other)
                )
                if not read:
                    found.append(f"{path.name}:{stmt.lineno} defines {name}, never read")
    return found


def test_no_private_helper_is_unreferenced():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    assert unreferenced_helpers(modules) == []


def test_unread_private_constant_is_reported(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "_READ = 1\n_LEFT: int = 2\n_READ = 3\n__version__ = '0'\n\n\n"
        "def f():\n    return _READ\n",
        encoding="utf-8",
    )
    assert unreferenced_helpers([module]) == ["mod.py:2 defines _LEFT, never read"]
