import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crglab.errors import ParseError
from crglab.parser import (ExpSumNode, ExpTermNode, ProductNode,
                           parse_function_spec, render)

FUZZ_CORPUS = [
    "",
    " ",
    "expsum",
    "expsum:",
    "expsum:[1]",
    "expsum:[1]exp",
    "expsum:[1]exp(",
    "expsum:[1]exp()",
    "expsum:[]exp(1)",
    "expsum:[1,]exp(1)",
    "expsum:[1]exp(1);",
    "expsum:[1]exp(1);;[2]exp(2)",
    "expsum:[1]exp(1)[2]exp(2)",
    "expsum:[1]exp(1) trailing",
    "expsum:[1]exp(1);[2]exp(1)",
    "expsum:[(1,)]exp(1)",
    "expsum:[(1 2)]exp(1)",
    "expsum:[1]exp((1,))",
    "product:",
    "product:zeros=pow",
    "product:zeros=pow(2)",
    "product:zeros=pow(2),genus=0",
    "product:zeros=pow(2),genus=0,cut=",
    "product:zeros=pow(2),genus=,cut=1e-3",
    "product:zeros=pow(2),genus=0.5,cut=1e-3",
    "product:zeros=pow(2),genus=0,cut=1e-3,extra=1",
    "product:zeros=pow(-1),genus=0,cut=1e-3",
    "product:zeros=pow(2),genus=-1,cut=1e-3",
    "product:zeros=pow(2),genus=0,cut=-1e-3",
    "product:zeros=pow(2,0.1),genus=0,cut=1e-3",
    "prod:zeros=pow(2),genus=0,cut=1e-3",
    "exp sum:[1]exp(1)",
    "[1]exp(1)",
    "expsum:[1e]exp(1)",
    "expsum:[nan]exp(1)",
]


class TestParseExamples:
    def test_exp(self):
        ast = parse_function_spec("expsum:[1]exp(1)")
        assert isinstance(ast, ExpSumNode)
        assert ast.terms == (ExpTermNode((1.0 + 0j,), 1.0 + 0j),)

    def test_sin_decomposition(self):
        ast = parse_function_spec(
            "expsum:[(0,-0.5)]exp((0,1));[(0,0.5)]exp((0,-1))")
        assert len(ast.terms) == 2
        assert ast.terms[0].coeffs == (-0.5j,)
        assert ast.terms[0].exponent == 1j
        assert ast.terms[1].exponent == -1j

    def test_product(self):
        ast = parse_function_spec("product:zeros=pow(2),genus=0,cut=1e-3")
        assert ast == ProductNode(2.0, 0.0, 0, 1e-3)

    def test_product_with_angle(self):
        ast = parse_function_spec(
            "product:zeros=pow(1.5,angle=0.25),genus=1,cut=1e-4")
        assert ast.angle == 0.25 and ast.genus == 1

    def test_whitespace_insignificant(self):
        a = parse_function_spec("expsum:[1,(2,3)]exp((0,1))")
        b = parse_function_spec(" expsum : [ 1 , (2,3) ] exp ( (0,1) ) ")
        assert a == b

    def test_scientific_floats(self):
        ast = parse_function_spec("expsum:[1.5e-3,-2E+4]exp(3.25)")
        assert ast.terms[0].coeffs == (0.0015 + 0j, -20000.0 + 0j)


class TestRoundTrip:
    @pytest.mark.parametrize("text", [
        "expsum:[1]exp(1)",
        "expsum:[(0,-0.5)]exp((0,1));[(0,0.5)]exp((0,-1))",
        "expsum:[1,2,3]exp(0);[(1,1)]exp((2,-2))",
        "product:zeros=pow(2),genus=0,cut=1e-3",
        "product:zeros=pow(1.5,angle=0.1),genus=2,cut=1e-8",
    ])
    def test_examples(self, text):
        ast = parse_function_spec(text)
        assert parse_function_spec(render(ast)) == ast

    @given(st.lists(
        st.tuples(
            st.lists(st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                                        allow_infinity=False),
                     min_size=1, max_size=3),
            st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                               allow_infinity=False)),
        min_size=1, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_random_expsum_asts(self, terms):
        exps = [b for _, b in terms]
        if len({(b.real, b.imag) for b in exps}) != len(exps):
            return
        ast = ExpSumNode(tuple(ExpTermNode(tuple(cs), b) for cs, b in terms))
        assert parse_function_spec(render(ast)) == ast

    @given(st.floats(min_value=0.1, max_value=10.0),
           st.floats(min_value=-3.0, max_value=3.0),
           st.integers(min_value=0, max_value=4),
           st.floats(min_value=1e-12, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_random_product_asts(self, power, angle, genus, cut):
        ast = ProductNode(power, angle, genus, cut)
        assert parse_function_spec(render(ast)) == ast


class TestDiagnostics:
    @pytest.mark.parametrize("text", FUZZ_CORPUS)
    def test_fuzz_corpus_raises_parse_error_only(self, text):
        with pytest.raises(ParseError):
            parse_function_spec(text)

    def test_duplicate_exponent_message(self):
        with pytest.raises(ParseError, match="duplicate exponent"):
            parse_function_spec("expsum:[1]exp(1);[2]exp(1)")

    def test_duplicate_exponent_position_is_its_term_start(self):
        # the offset just after the ';' that opens the repeated term
        with pytest.raises(ParseError, match="duplicate exponent") as info:
            parse_function_spec("expsum:[1]exp(1);\n[2]exp(2);[3]exp(1)")
        assert (info.value.line, info.value.column) == (2, 11)

    def test_trailing_input_reported_before_a_duplicate(self):
        with pytest.raises(ParseError, match="trailing input") as info:
            parse_function_spec("expsum:[1]exp(1);[2]exp(1) trailing")
        assert (info.value.line, info.value.column) == (1, 28)

    def test_line_column_reported(self):
        try:
            parse_function_spec("expsum:\n[1]exp(,)")
        except ParseError as exc:
            assert exc.line == 2 and exc.column == 8
        else:
            pytest.fail("no error raised")

    @given(st.text(max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_text_never_crashes(self, text):
        try:
            ast = parse_function_spec(text)
        except ParseError:
            return
        # accepted input must round-trip
        assert parse_function_spec(render(ast)) == ast
