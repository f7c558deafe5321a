"""Module boundaries of the crglab package, read from its source."""

import argparse
import ast
import re
from pathlib import Path

import crglab
from crglab import cli

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


def _self_mutations(tree: ast.Module) -> list[str]:
    """'Class.method' of each store to, or deletion of, an attribute or item
    reached from ``self`` in a method other than ``__init__`` of a top-level
    class of ``tree``; tuple targets and augmented assignments count."""
    found = []
    for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
        for method in cls.body:
            if not isinstance(method, ast.FunctionDef) or method.name == "__init__":
                continue
            for node in ast.walk(method):
                if (isinstance(node, (ast.Attribute, ast.Subscript))
                        and not isinstance(node.ctx, ast.Load)):
                    root = node.value
                    while isinstance(root, (ast.Attribute, ast.Subscript)):
                        root = root.value
                    if isinstance(root, ast.Name) and root.id == "self":
                        found.append(f"{cls.name}.{method.name}")
    return found


def test_mutation_check_finds_attributes_items_and_tuples():
    source = '''
class Model:
    def __init__(self):
        self.cache = {}

    def memo(self, x):
        self.cache[x] = x

    def pair(self):
        a, self.b = 1, 2
        self.c.d += 1
        del self.cache[0]

    def pure(self, other):
        other.x = self.cache
        y = [self.cache]
'''
    assert _self_mutations(ast.parse(source)) == ["Model.memo"] + ["Model.pair"] * 3


def test_models_are_immutable_after_construction():
    """The pool's threads share one model per command, so no method other
    than ``__init__`` may change it."""
    source = (_SRC / "models.py").read_text()
    assert _self_mutations(ast.parse(source)) == []


# The model kinds, and the one function each where code may still ask which
# kind it holds: the AST-to-model boundary, the product --bailout-log cap,
# rendering a spec, and the guard of the one single-kind command, verify-crg.
_KINDS = {"ExponentialSum", "CanonicalProduct", "ExpSumNode", "ProductNode"}
_KIND_TESTS_ALLOWED = {"cli.build_model", "cli._build_dynamics_model", "parser.render",
                       "analytic.verify_crg_ray_product"}


def _kind_tests(label: str, tree: ast.Module) -> list[str]:
    """'label.function' of each ``isinstance`` call in ``tree`` whose class
    argument names a model kind, by name or attribute, alone or in a tuple."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            names = {k.id if isinstance(k, ast.Name) else getattr(k, "attr", None)
                     for k in kinds}
            if names & _KINDS:
                found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, label)
    return found


def test_kind_check_finds_names_attributes_and_tuples():
    source = '''
def f(m, ast):
    return isinstance(m, models.CanonicalProduct) or isinstance(ast, (int, ExpSumNode))

class Box:
    def g(self, m):
        return isinstance(m, ExponentialSum), isinstance(m, float)
'''
    assert _kind_tests("m", ast.parse(source)) == ["m.f", "m.f", "m.Box.g"]


def test_no_kind_dispatch_outside_the_boundaries():
    """Code outside the allowed sites reads a model's ``order``,
    ``exact_indicator()`` and ``certified_log_radius`` instead of asking
    which kind of model it holds."""
    found = [site for p in sorted(_SRC.glob("*.py"))
             for site in _kind_tests(p.stem, ast.parse(p.read_text(), str(p)))]
    assert [s for s in found if s not in _KIND_TESTS_ALLOWED] == []


def _options(parser: argparse.ArgumentParser) -> list[str]:
    """'prog option' for each option of ``parser`` and of every command
    under it, help excluded."""
    found = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                found += _options(sub)
        elif not isinstance(action, argparse._HelpAction):
            found.append(f"{parser.prog} {action.option_strings[0]}")
    return found


def test_option_count_is_pinned():
    """Each independently settable CLI value is a configuration to test; a
    change that adds or removes one changes this count on purpose."""
    assert len(_options(cli._build_parser())) == 66
