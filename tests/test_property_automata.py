"""Property tests for the automata substrate against independent oracles."""

from hypothesis import given, settings, strategies as st

from repro.automata import (
    DFA,
    NFA,
    compile_regex,
    difference,
    dfa_from_finite_language,
    equivalent,
    intersection,
    is_star_free,
    union,
)
from repro.automata.regex import (
    AnySymbol,
    Concat,
    Epsilon,
    Literal,
    Regex,
    Star,
    Union as RUnion,
)
from repro.strings import BINARY


def regexes(depth: int) -> st.SearchStrategy[Regex]:
    base = (
        st.sampled_from([Literal("0"), Literal("1"), Epsilon(), AnySymbol()])
    )
    if depth == 0:
        return base
    sub = regexes(depth - 1)
    return (
        base
        | st.builds(Concat, sub, sub)
        | st.builds(RUnion, sub, sub)
        | st.builds(Star, sub)
    )


def oracle_matches(node: Regex, s: str) -> bool:
    """Independent regex matcher: set-of-reachable-splits semantics."""
    def positions(node: Regex, starts: set[int]) -> set[int]:
        if isinstance(node, Epsilon):
            return set(starts)
        if isinstance(node, Literal):
            return {i + 1 for i in starts if i < len(s) and s[i] == node.symbol}
        if isinstance(node, AnySymbol):
            return {i + 1 for i in starts if i < len(s)}
        if isinstance(node, Concat):
            return positions(node.right, positions(node.left, starts))
        if isinstance(node, RUnion):
            return positions(node.left, starts) | positions(node.right, starts)
        if isinstance(node, Star):
            reach = set(starts)
            frontier = set(starts)
            while frontier:
                nxt = positions(node.inner, frontier) - reach
                reach |= nxt
                frontier = nxt
            return reach
        raise TypeError(node)

    return len(s) in positions(node, {0})


class TestRegexCompilation:
    @settings(max_examples=60, deadline=None)
    @given(node=regexes(3), s=st.text(alphabet="01", max_size=6))
    def test_dfa_matches_oracle(self, node, s):
        dfa = node.to_dfa(BINARY)
        assert dfa.accepts(s) == oracle_matches(node, s), str(node)

    @settings(max_examples=30, deadline=None)
    @given(node=regexes(2))
    def test_minimize_preserves_language(self, node):
        dfa = node.to_nfa(BINARY).determinize()
        mini = dfa.minimize()
        assert equivalent(dfa, mini)
        assert mini.num_states <= max(dfa.num_states, 1)

    @settings(max_examples=30, deadline=None)
    @given(node=regexes(2))
    def test_double_complement(self, node):
        dfa = node.to_dfa(BINARY)
        assert equivalent(dfa, dfa.complement().complement())

    @settings(max_examples=30, deadline=None)
    @given(a=regexes(2), b=regexes(2), s=st.text(alphabet="01", max_size=5))
    def test_boolean_ops_pointwise(self, a, b, s):
        da, db_ = a.to_dfa(BINARY), b.to_dfa(BINARY)
        assert union(da, db_).accepts(s) == (da.accepts(s) or db_.accepts(s))
        assert intersection(da, db_).accepts(s) == (da.accepts(s) and db_.accepts(s))
        assert difference(da, db_).accepts(s) == (da.accepts(s) and not db_.accepts(s))

    @settings(max_examples=25, deadline=None)
    @given(node=regexes(2))
    def test_reverse_reverse(self, node):
        dfa = node.to_dfa(BINARY)
        double = NFA.of_dfa(
            NFA.of_dfa(dfa).reversed().determinize()
        ).reversed().determinize()
        assert equivalent(dfa, double)


class TestFiniteLanguages:
    @settings(max_examples=40, deadline=None)
    @given(words=st.sets(st.text(alphabet="01", max_size=5), max_size=8))
    def test_finite_language_roundtrip(self, words):
        dfa = dfa_from_finite_language(BINARY, words)
        assert set(dfa.iter_strings()) == words
        assert dfa.is_finite_language()
        assert dfa.count_words() == len(words)

    @settings(max_examples=30, deadline=None)
    @given(words=st.sets(st.text(alphabet="01", max_size=4), min_size=1, max_size=6))
    def test_complement_of_finite_is_infinite(self, words):
        dfa = dfa_from_finite_language(BINARY, words)
        comp = dfa.complement()
        assert not comp.is_finite_language()
        for w in words:
            assert not comp.accepts(w)

    @settings(max_examples=25, deadline=None)
    @given(words=st.sets(st.text(alphabet="01", max_size=4), max_size=6))
    def test_finite_languages_are_star_free(self, words):
        # Every finite language is star-free.
        assert is_star_free(dfa_from_finite_language(BINARY, words))

    @settings(max_examples=30, deadline=None)
    @given(words=st.sets(st.text(alphabet="01", max_size=4), max_size=6), n=st.integers(0, 4))
    def test_count_words_of_length(self, words, n):
        dfa = dfa_from_finite_language(BINARY, words)
        assert dfa.count_words_of_length(n) == sum(1 for w in words if len(w) == n)
