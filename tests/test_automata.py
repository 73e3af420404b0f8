"""Tests for the automata substrate: DFA/NFA, regexes, star-freeness."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.automata import (
    DFA,
    EPSILON,
    NFA,
    compile_regex,
    contains_factor_dfa,
    dfa_all_strings,
    dfa_empty_language,
    dfa_from_finite_language,
    dfa_length_at_most,
    dfa_length_exactly,
    dfa_single_word,
    difference,
    ends_with_dfa,
    equivalent,
    intersection,
    is_star_free,
    parse_regex,
    starts_with_dfa,
    union,
)
from repro.errors import ParseError
from repro.strings import BINARY, ABC, Alphabet

short_binary = st.text(alphabet="01", max_size=6)


def brute_language(dfa: DFA, n: int = 6) -> set[str]:
    """All strings of length <= n the DFA accepts, by brute-force running."""
    out = set()
    for s in BINARY.strings_up_to(n):
        if dfa.accepts(s):
            out.add(s)
    return out


class TestDFABasics:
    def test_single_word(self):
        d = dfa_single_word(BINARY, "010")
        assert d.accepts("010")
        assert not d.accepts("01")
        assert not d.accepts("0100")
        assert d.count_words() == 1

    def test_empty_language(self):
        d = dfa_empty_language(BINARY)
        assert d.is_empty()
        assert d.is_finite_language()
        assert d.count_words() == 0

    def test_all_strings(self):
        d = dfa_all_strings(BINARY)
        assert d.accepts("")
        assert d.accepts("0101")
        assert not d.is_finite_language()
        with pytest.raises(ValueError):
            d.count_words()

    def test_finite_language_roundtrip(self):
        words = {"", "01", "10", "0110"}
        d = dfa_from_finite_language(BINARY, words)
        assert set(d.iter_strings()) == words
        assert d.count_words() == 4

    def test_length_at_most(self):
        d = dfa_length_at_most(BINARY, 2)
        assert set(d.iter_strings()) == {"", "0", "1", "00", "01", "10", "11"}
        assert d.count_words() == 7

    def test_length_exactly(self):
        d = dfa_length_exactly(BINARY, 2)
        assert set(d.iter_strings()) == {"00", "01", "10", "11"}

    def test_count_words_of_length(self):
        d = dfa_all_strings(BINARY)
        assert d.count_words_of_length(3) == 8
        assert dfa_length_exactly(BINARY, 2).count_words_of_length(3) == 0

    def test_complement(self):
        d = dfa_single_word(BINARY, "0").complement()
        assert not d.accepts("0")
        assert d.accepts("")
        assert d.accepts("1")
        assert d.accepts("00")

    def test_shortest_word(self):
        d = starts_with_dfa(BINARY, "11")
        assert d.shortest_word() == ("1", "1")
        assert dfa_empty_language(BINARY).shortest_word() is None

    def test_minimize_collapses(self):
        # Two equivalent chains accepting exactly "0".
        d = DFA(
            BINARY.symbols,
            [0, 1, 2],
            0,
            [1, 2],
            {0: {"0": 1, "1": 2}},
        )
        # states 1 and 2 are equivalent (both accept-and-die).
        assert d.minimize().num_states <= 2

    def test_canonical_preserves_language(self):
        # Rebuilding a DFA under other state names yields the same
        # canonical (BFS-numbered) arrays and the same language.
        d = starts_with_dfa(BINARY, "01")
        transitions = {}
        for q, sym, t in d.edges():
            transitions.setdefault(("s", q), {})[sym] = ("s", t)
        accepting = [("s", q) for q in d.accepting_states()]
        states = [("s", q) for q in range(d.num_states)]
        c = DFA(BINARY.symbols, states[::-1], ("s", 0), accepting, transitions)
        assert (c.delta, c.accepting) == (d.delta, d.accepting)
        for s in BINARY.strings_up_to(5):
            assert d.accepts(s) == c.accepts(s)

    def test_unreachable_states_are_dropped(self):
        d = DFA(BINARY.symbols, [0, 1, 2], 0, [1, 2], {0: {"0": 1}, 2: {"1": 2}})
        assert d.num_states == 2
        assert list(d.edges()) == [(0, "0", 1)]

    def test_constructor_validates_start_and_accepting(self):
        with pytest.raises(ValueError):
            DFA(BINARY.symbols, [0], 1, [], {})
        with pytest.raises(ValueError):
            DFA(BINARY.symbols, [0], 0, [1], {})


class TestBuilders:
    def test_starts_with(self):
        d = starts_with_dfa(BINARY, "01")
        assert brute_language(d, 4) == {s for s in BINARY.strings_up_to(4) if s.startswith("01")}

    def test_ends_with(self):
        d = ends_with_dfa(BINARY, "10")
        assert brute_language(d, 5) == {s for s in BINARY.strings_up_to(5) if s.endswith("10")}

    def test_contains_factor(self):
        d = contains_factor_dfa(BINARY, "010")
        assert brute_language(d, 6) == {s for s in BINARY.strings_up_to(6) if "010" in s}

    def test_contains_empty_factor(self):
        assert equivalent(contains_factor_dfa(BINARY, ""), dfa_all_strings(BINARY))

    @given(st.text(alphabet="01", min_size=1, max_size=3))
    def test_ends_with_property(self, suffix):
        d = ends_with_dfa(BINARY, suffix)
        for s in BINARY.strings_up_to(5):
            assert d.accepts(s) == s.endswith(suffix)


class TestBooleanOps:
    def test_intersection(self):
        d = intersection(starts_with_dfa(BINARY, "0"), ends_with_dfa(BINARY, "1"))
        assert brute_language(d, 5) == {
            s for s in BINARY.strings_up_to(5) if s.startswith("0") and s.endswith("1")
        }

    def test_union(self):
        d = union(dfa_single_word(BINARY, "0"), dfa_single_word(BINARY, "11"))
        assert set(d.iter_strings()) == {"0", "11"}

    def test_difference(self):
        d = difference(dfa_length_at_most(BINARY, 2), dfa_length_at_most(BINARY, 1))
        assert set(d.iter_strings()) == {"00", "01", "10", "11"}

    def test_equivalence(self):
        a = compile_regex("(0|1)*", BINARY)
        assert equivalent(a, dfa_all_strings(BINARY))
        assert not equivalent(a, dfa_length_at_most(BINARY, 3))

    @given(st.lists(short_binary, max_size=4), st.lists(short_binary, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_boolean_ops_model(self, ws1, ws2):
        a = dfa_from_finite_language(BINARY, ws1)
        b = dfa_from_finite_language(BINARY, ws2)
        assert set(union(a, b).iter_strings()) == set(ws1) | set(ws2)
        assert set(intersection(a, b).iter_strings()) == set(ws1) & set(ws2)
        assert set(difference(a, b).iter_strings()) == set(ws1) - set(ws2)


class TestNFA:
    def test_epsilon_closure_and_accepts(self):
        nfa = NFA(
            BINARY.symbols,
            [0, 1, 2],
            [0],
            [2],
            {0: {EPSILON: {1}}, 1: {"0": {2}}},
        )
        assert nfa.accepts("0")
        assert not nfa.accepts("")
        assert not nfa.accepts("1")

    def test_determinize_agrees(self):
        nfa = NFA(
            BINARY.symbols,
            [0, 1, 2],
            [0],
            [2],
            {0: {"0": {0, 1}, "1": {0}}, 1: {"1": {2}}},
        )
        dfa = nfa.determinize()
        for s in BINARY.strings_up_to(6):
            assert nfa.accepts(s) == dfa.accepts(s)

    def test_reversed(self):
        d = dfa_single_word(BINARY, "011")
        r = NFA.of_dfa(d).reversed().determinize()
        assert set(r.iter_strings()) == {"110"}


class TestRegex:
    def test_literal_concat(self):
        d = compile_regex("010", BINARY)
        assert set(d.iter_strings()) == {"010"}

    def test_union_star(self):
        d = compile_regex("0*|1", BINARY)
        assert d.accepts("")
        assert d.accepts("000")
        assert d.accepts("1")
        assert not d.accepts("11")
        assert not d.accepts("01")

    def test_plus_optional(self):
        d = compile_regex("01+0?", BINARY)
        assert d.accepts("01")
        assert d.accepts("0110")
        assert not d.accepts("0")

    def test_any_and_class(self):
        sigma = Alphabet("abc")
        d = compile_regex("a.c", sigma)
        assert d.accepts("abc") and d.accepts("aac") and d.accepts("acc")
        assert not d.accepts("ab")
        d2 = compile_regex("[ab]+", sigma)
        assert d2.accepts("abba")
        assert not d2.accepts("abca")

    def test_negated_class(self):
        sigma = Alphabet("abc")
        d = compile_regex("[^a]*", sigma)
        assert d.accepts("bcb")
        assert not d.accepts("ba")

    def test_escapes(self):
        sigma = Alphabet(["a", "*"])
        d = compile_regex(r"a\*", sigma)
        assert d.accepts("a*")
        assert not d.accepts("a")

    def test_empty_regex_is_epsilon(self):
        d = compile_regex("", BINARY)
        assert set(d.iter_strings()) == {""}

    def test_parse_errors(self):
        for bad in ["(", "(0", "*", "0[", "[]", "a)"]:
            with pytest.raises(ParseError):
                parse_regex(bad)

    def test_roundtrip_str(self):
        for text in ["0(1|0)*1", "[01]+", "0?1+"]:
            node = parse_regex(text)
            re_d = compile_regex(text, BINARY)
            again = compile_regex(str(node), BINARY)
            assert equivalent(re_d, again)

    @given(short_binary)
    def test_literal_word_regex(self, w):
        d = compile_regex(w, BINARY)
        assert set(d.iter_strings()) == {w}


class TestStarFreeness:
    def test_star_free_examples(self):
        # All LIKE-style languages are star-free.
        assert is_star_free(starts_with_dfa(BINARY, "01"))
        assert is_star_free(ends_with_dfa(BINARY, "10"))
        assert is_star_free(contains_factor_dfa(BINARY, "010"))
        assert is_star_free(dfa_all_strings(BINARY))
        assert is_star_free(dfa_single_word(BINARY, "0101"))

    def test_even_length_not_star_free(self):
        # (Sigma Sigma)* has a group in its syntactic monoid.
        d = compile_regex("((0|1)(0|1))*", BINARY)
        assert not is_star_free(d)

    def test_aa_star_not_star_free(self):
        sigma = Alphabet("ab")
        d = compile_regex("(aa)*", sigma)
        assert not is_star_free(d)

    def test_parity_not_star_free(self):
        # Even number of 1s: the classic AC0 separator (Corollary 2).
        d = DFA(
            BINARY.symbols,
            [0, 1],
            0,
            [0],
            {0: {"0": 0, "1": 1}, 1: {"0": 1, "1": 0}},
        )
        assert not is_star_free(d)

    def test_no_two_consecutive_ones_is_star_free(self):
        d = compile_regex("1?(01?)*", BINARY)
        assert is_star_free(d)
