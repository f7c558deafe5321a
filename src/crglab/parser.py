"""Parser for the function-spec mini-language.

Grammar (whitespace insignificant, floats decimal or scientific):

    spec    := "expsum:" term (";" term)*
             | "product:" "zeros=pow(" float ["," "angle=" float] ")"
               ",genus=" int ",cut=" float
    term    := poly "exp(" cnum ")"
    poly    := "[" cnum ("," cnum)* "]"
    cnum    := float | "(" float "," float ")"

The grammar deliberately forbids nested arithmetic so every AST is canonical:
render(parse(s)) reparses to an equal AST.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError

_FLOAT_RE = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_INT_RE = re.compile(r"[+-]?\d+")


@dataclass(frozen=True)
class ExpTermNode:
    coeffs: tuple[complex, ...]
    exponent: complex


@dataclass(frozen=True)
class ExpSumNode:
    terms: tuple[ExpTermNode, ...]


@dataclass(frozen=True)
class ProductNode:
    power: float
    angle: float
    genus: int
    cut: float


FunctionSpecAST = ExpSumNode | ProductNode


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _line_col(self, pos: int) -> tuple[int, int]:
        prefix = self.text[:pos]
        line = prefix.count("\n") + 1
        col = pos - (prefix.rfind("\n") + 1) + 1
        return line, col

    def fail(self, message: str, expected: tuple[str, ...] = ()) -> ParseError:
        line, col = self._line_col(self.pos)
        return ParseError(message, line, col, expected)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def eat(self, literal: str) -> None:
        self.skip_ws()
        if not self.text.startswith(literal, self.pos):
            raise self.fail(f"unexpected input {self.text[self.pos:self.pos + 8]!r}",
                            expected=(literal,))
        self.pos += len(literal)

    def try_eat(self, literal: str) -> bool:
        self.skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def read_float(self) -> float:
        self.skip_ws()
        m = _FLOAT_RE.match(self.text, self.pos)
        if not m:
            raise self.fail("expected a number", expected=("float",))
        self.pos = m.end()
        return float(m.group())

    def read_int(self) -> int:
        self.skip_ws()
        m = _INT_RE.match(self.text, self.pos)
        if not m:
            raise self.fail("expected an integer", expected=("int",))
        nxt = self.text[m.end():m.end() + 1]
        if nxt in (".", "e", "E"):
            raise self.fail("expected an integer, found a float", expected=("int",))
        self.pos = m.end()
        return int(m.group())

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def _read_cnum(cur: _Cursor) -> complex:
    cur.skip_ws()
    if cur.try_eat("("):
        re_part = cur.read_float()
        cur.eat(",")
        im_part = cur.read_float()
        cur.eat(")")
        return complex(re_part, im_part)
    return complex(cur.read_float(), 0.0)


def _read_poly(cur: _Cursor) -> tuple[complex, ...]:
    cur.eat("[")
    coeffs = [_read_cnum(cur)]
    while cur.try_eat(","):
        coeffs.append(_read_cnum(cur))
    cur.eat("]")
    return tuple(coeffs)


def _read_term(cur: _Cursor) -> ExpTermNode:
    coeffs = _read_poly(cur)
    cur.eat("exp")
    cur.eat("(")
    b = _read_cnum(cur)
    cur.eat(")")
    return ExpTermNode(coeffs, b)


def parse_function_spec(text: str) -> FunctionSpecAST:
    """Parse the mini-language into an AST; malformed input raises ParseError
    with line/column and the expected-token set."""
    cur = _Cursor(text)
    cur.skip_ws()
    start = cur.pos
    if cur.try_eat("expsum"):
        cur.eat(":")
        starts, terms = [cur.pos], [_read_term(cur)]
        while cur.try_eat(";"):
            starts.append(cur.pos)
            terms.append(_read_term(cur))
        if not cur.at_end():
            raise cur.fail("trailing input after expsum terms", expected=(";", "end"))
        seen: set[complex] = set()
        for pos, t in zip(starts, terms):
            if t.exponent in seen:
                raise ParseError(
                    f"duplicate exponent {format_cnum(t.exponent)}; exponents "
                    "must be pairwise distinct", *cur._line_col(pos))
            seen.add(t.exponent)
        return ExpSumNode(tuple(terms))
    if cur.try_eat("product"):
        cur.eat(":")
        cur.eat("zeros")
        cur.eat("=")
        cur.eat("pow")
        cur.eat("(")
        power = cur.read_float()
        angle = 0.0
        if cur.try_eat(","):
            cur.eat("angle")
            cur.eat("=")
            angle = cur.read_float()
        cur.eat(")")
        cur.eat(",")
        cur.eat("genus")
        cur.eat("=")
        genus = cur.read_int()
        cur.eat(",")
        cur.eat("cut")
        cur.eat("=")
        cut = cur.read_float()
        if not cur.at_end():
            raise cur.fail("trailing input after product spec", expected=("end",))
        if power <= 0:
            raise ParseError("zero-rule power must be positive", *cur._line_col(start))
        if genus < 0:
            raise ParseError("genus must be nonnegative", *cur._line_col(start))
        if cut <= 0:
            raise ParseError("cut (tail tolerance) must be positive",
                             *cur._line_col(start))
        return ProductNode(power, angle, genus, cut)
    raise cur.fail("spec must start with 'expsum:' or 'product:'",
                   expected=("expsum:", "product:"))


def format_cnum(c: complex) -> str:
    if c.imag == 0.0:
        return repr(c.real)
    return f"({c.real!r},{c.imag!r})"


def render(ast: FunctionSpecAST) -> str:
    """Canonical text form; parses back to an equal AST."""
    if isinstance(ast, ExpSumNode):
        parts = []
        for t in ast.terms:
            poly = "[" + ",".join(format_cnum(c) for c in t.coeffs) + "]"
            parts.append(f"{poly}exp({format_cnum(t.exponent)})")
        return "expsum:" + ";".join(parts)
    angle = f",angle={ast.angle!r}" if ast.angle != 0.0 else ""
    return (f"product:zeros=pow({ast.power!r}{angle}),genus={ast.genus}"
            f",cut={ast.cut!r}")
