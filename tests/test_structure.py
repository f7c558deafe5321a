"""Module boundaries of the crglab package, read from its source."""

import ast
import re
from collections import Counter
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


# Where a public name counts as reached: the package itself, the benchmark
# harness and the acceptance checks, never a unit test of the name alone.
_ROOT = Path(__file__).resolve().parents[1]
_REACHING = [*sorted(_SRC.glob("*.py")), *sorted((_ROOT / "perfbench").glob("*.py")),
             _ROOT / "tests" / "test_acceptance.py"]

_UNREACHED_ALLOWED = {
    "count_zeros_argument_principle",   # item 6 wires it
}


def _public_definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """(qualified name, node) of each public top-level function and class
    and of each public method of a top-level class."""
    defs = []
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            defs.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            defs += [(f"{node.name}.{m.name}", m) for m in node.body
                     if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
    return defs


def test_every_public_name_is_reached():
    """Each public name is named, as a word, somewhere in the reaching
    files outside the lines of its own definition."""
    words = Counter()
    for path in _REACHING:
        words.update(re.findall(r"\w+", path.read_text()))
    unreached = []
    for path in sorted(_SRC.glob("*.py")):
        lines = path.read_text().splitlines()
        for qualname, node in _public_definitions(ast.parse("\n".join(lines))):
            name = qualname.split(".")[-1]
            own = re.findall(r"\w+", "\n".join(lines[node.lineno - 1:node.end_lineno]))
            if words[name] <= own.count(name) and name not in _UNREACHED_ALLOWED:
                unreached.append(f"{path.stem}.{qualname}")
    assert unreached == []


def test_only_criteria_sweeps_through_the_pool():
    """Sampling a region and evaluating every point has one path,
    ``criteria.sweep``; no other module calls the pool directly."""
    callers = [p.name for p in sorted(_SRC.glob("*.py"))
               if "map_chunked" in re.findall(r"\w+", p.read_text())]
    assert callers == ["criteria.py", "parallel.py"]
