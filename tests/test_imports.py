"""Module boundaries: no beepsync module imports a private name of another."""

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
