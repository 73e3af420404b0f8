"""Parser robustness: random input never crashes with anything but ParseError."""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ParseError
from repro.logic import parse_formula
from repro.logic.parser import MAX_NESTING
from repro.sql import translate_select
from repro.database import Schema

SCHEMA = Schema({"R": 1, "E": 2})

#: Characters the tokenizers care about.
INTERESTING = "abcxyzRES01 ()&|!<>=,.:'\"%_-"


class TestFormulaParserFuzz:
    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet=INTERESTING, max_size=40))
    def test_random_text_raises_only_parse_error(self, text):
        try:
            parse_formula(text)
        except ParseError:
            pass  # expected for garbage

    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=20))
    def test_arbitrary_unicode(self, text):
        try:
            parse_formula(text)
        except ParseError:
            pass

    def test_deeply_nested_formula(self):
        text = "(" * 50 + "R(x)" + ")" * 50
        f = parse_formula(text)
        assert f.relation_names() == {"R"}

    @pytest.mark.parametrize("text", [
        "(" * 200 + "R(x)" + ")" * 200,
        "!" * 200 + "R(x)",
        "".join(f"exists x{i}: " for i in range(200)) + "R(x)",
        " -> ".join(["R(x)"] * 200),
        "x = " + "add_last(" * 200 + "y" + ", '0')" * 200,
        "(" * 5000 + "R(x)" + ")" * 5000,
    ], ids=["parentheses", "negations", "quantifiers", "implications",
            "terms", "parentheses-5000"])
    def test_nesting_past_the_bound_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="nest"):
            parse_formula(text)

    def test_nesting_within_the_bound_parses(self):
        depth = MAX_NESTING - 2  # the atom and its argument are two more
        assert parse_formula("!" * depth + "R(x)").relation_names() == {"R"}
        chain = parse_formula(" -> ".join(["R(x)"] * MAX_NESTING))
        assert chain.relation_names() == {"R"}

    def test_iff_expansion_is_bounded(self):
        # Each '<->' writes both sides twice: n of them make 2^n copies.
        assert parse_formula(" <-> ".join(["R(x)"] * 8))
        with pytest.raises(ParseError, match="nodes"):
            parse_formula(" <-> ".join(["R(x)"] * 16))

    def test_a_deep_stack_is_a_parse_error(self):
        def descend(n):
            return descend(n - 1) if n else parse_formula(
                "(" * 90 + "R(x)" + ")" * 90
            )
        with pytest.raises(ParseError, match="too deeply"):
            descend(sys.getrecursionlimit() - 120)

    def test_long_conjunction(self):
        text = " & ".join(["R(x)"] * 200)
        f = parse_formula(text)
        assert len(f.parts) == 200  # type: ignore[union-attr]


class TestSqlParserFuzz:
    @settings(max_examples=150, deadline=None)
    @given(st.text(alphabet=INTERESTING + "SELECTFROMWHERE", max_size=60))
    def test_random_sql_raises_only_parse_error(self, text):
        try:
            translate_select(text, SCHEMA)
        except ParseError:
            pass

    @settings(max_examples=80, deadline=None)
    @given(pattern=st.text(alphabet="01%_'a", max_size=10))
    def test_random_like_patterns(self, pattern):
        safe = pattern.replace("'", "''")
        try:
            translate_select(
                f"SELECT r.1 FROM R r WHERE r.1 LIKE '{safe}'", SCHEMA
            )
        except ParseError:
            pass
