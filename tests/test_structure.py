"""Module boundaries of the crglab package, read from its source."""

import ast
from pathlib import Path

import crglab

_SRC = Path(crglab.__file__).parent


def _private_imports(path: Path) -> list[str]:
    """'module._name' for each private name that ``path`` takes from
    another crglab module, by ``from .module import _name`` or by
    ``module._name`` after ``from . import module``."""
    tree = ast.parse(path.read_text(), str(path))
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module is None:
                    modules.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    found.append(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_no_module_imports_another_modules_private_name():
    offenders = {p.name: _private_imports(p) for p in sorted(_SRC.glob("*.py"))}
    assert {k: v for k, v in offenders.items() if v} == {}
