"""Module boundaries of the crglab package, read from its source."""

import ast
import re
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
    "render",                           # item 4 writes the canonical spec
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


def _references(tree: ast.Module) -> list[tuple[str, int, bool]]:
    """(name, line, through an attribute) of each name the code of ``tree``
    uses: ``ast.Name`` ids, ``ast.Attribute`` attrs and the names of a
    ``from ... import``. Docstrings, comments and string literals name
    nothing."""
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.append((node.id, node.lineno, False))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node.lineno, True))
        elif isinstance(node, ast.ImportFrom):
            refs += [(alias.name, node.lineno, False) for alias in node.names]
    return refs


def _unreached(sources: dict[str, str], defining: list[str]) -> list[str]:
    """'label.qualname' of each public name defined in the ``defining``
    sources that no code in ``sources`` uses outside the lines of its own
    definition; a method counts as used only through an attribute access."""
    uses: dict[str, list[tuple[str, int, bool]]] = {}
    for label, text in sources.items():
        for name, line, attr in _references(ast.parse(text)):
            uses.setdefault(name, []).append((label, line, attr))
    unreached = []
    for label in defining:
        for qualname, node in _public_definitions(ast.parse(sources[label])):
            name, is_method = qualname.split(".")[-1], "." in qualname
            own = range(node.lineno, node.end_lineno + 1)
            if not any((attr or not is_method) and not (where == label and line in own)
                       for where, line, attr in uses.get(name, ())):
                unreached.append(f"{label}.{qualname}")
    return unreached


def test_reach_check_reads_code_not_words():
    source = '''
def used():
    pass

def only_in_words():
    """only_in_words is named in this docstring."""
    return only_in_words  # its own lines do not count

class Box:
    def opened(self):
        pass

    def named_bare(self):
        pass

named_bare = "only_in_words"
print(used(), Box().opened())
'''
    assert _unreached({"m": source}, ["m"]) == ["m.only_in_words", "m.Box.named_bare"]


def test_every_public_name_is_reached():
    """Each public name is used by code somewhere in the reaching files,
    outside the lines of its own definition."""
    sources = {p.stem if p.parent == _SRC else str(p.relative_to(_ROOT)): p.read_text()
               for p in _REACHING}
    unreached = _unreached(sources, [p.stem for p in sorted(_SRC.glob("*.py"))])
    assert [u for u in unreached
            if u.split(".")[-1] not in _UNREACHED_ALLOWED] == []


def test_only_criteria_sweeps_through_the_pool():
    """Sampling a region and evaluating every point has one path,
    ``criteria.sweep``; no other module calls the pool directly."""
    callers = [p.name for p in sorted(_SRC.glob("*.py"))
               if "map_chunked" in re.findall(r"\w+", p.read_text())]
    assert callers == ["criteria.py", "parallel.py"]
