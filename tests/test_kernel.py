"""Differential property tests: the array automata vs the dict reference.

Every automaton is stored as flat arrays (:mod:`repro.automata.dfa`) and
combined by :mod:`repro.automata.kernel`.  The pre-kernel dict-of-dicts
pipeline — Moore ``minimize``, the dict-of-frozensets subset
construction, the eager pairwise product — survives in
``tests/_reference_dfa.py`` precisely so these tests can check the two
against each other on randomized inputs: random DFAs, NFAs, regexes, and
words.  Agreement is exact (same language, same minimal state count,
same enumeration order), not approximate.

The deterministic unit tests at the bottom pin the kernel-only
behaviours: lazy product short-circuiting, METRICS counters, and the
numpy/pure-Python path equivalence when numpy is present.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.automata import kernel
from repro.automata.dfa import DFA, SymbolTable
from repro.automata.kernel import (
    ProductPipeline,
    intersect_all_minimized,
    union_all_minimized,
)
from repro.automata.nfa import EPSILON, NFA
from repro.automata.regex import compile_regex, parse_regex
from repro.engine.metrics import METRICS
from repro.strings.alphabet import Alphabet

from tests import _reference_dfa as reference
from tests._reference_dfa import from_reference, to_reference

ALPHABET = ("a", "b")

MODES = ("and", "or", "diff", "xor")


# ---------------------------------------------------------------- strategies


@st.composite
def dfas(draw, max_states: int = 6) -> reference.DFA:
    """A random (possibly partial, possibly disconnected) reference DFA."""
    n = draw(st.integers(min_value=1, max_value=max_states))
    transitions = {}
    for q in range(n):
        row = {}
        for sym in ALPHABET:
            target = draw(st.integers(min_value=-1, max_value=n - 1))
            if target >= 0:
                row[sym] = target
        if row:
            transitions[q] = row
    accepting = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    return reference.DFA(ALPHABET, range(n), 0, accepting, transitions)


@st.composite
def nfas(draw, max_states: int = 5) -> NFA:
    n = draw(st.integers(min_value=1, max_value=max_states))
    transitions = {}
    for q in range(n):
        row = {}
        for sym in ALPHABET + (EPSILON,):
            targets = draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=2))
            if targets:
                row[sym] = targets
        if row:
            transitions[q] = row
    starts = draw(st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=2))
    accepting = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    return NFA(ALPHABET, range(n), starts, accepting, transitions)


@st.composite
def regex_texts(draw, depth: int = 3) -> str:
    """A random regex over {a, b} in the parser's concrete syntax."""
    if depth == 0:
        return draw(st.sampled_from(["a", "b", "(a|b)"]))
    left = draw(regex_texts(depth=depth - 1))
    right = draw(regex_texts(depth=depth - 1))
    shape = draw(st.sampled_from(["concat", "union", "star", "plus", "opt"]))
    if shape == "concat":
        return f"{left}{right}"
    if shape == "union":
        return f"({left}|{right})"
    if shape == "star":
        return f"({left})*"
    if shape == "plus":
        return f"({left})+"
    return f"({left})?"


words = st.lists(st.text(alphabet="ab", max_size=6), min_size=1, max_size=8)


# ------------------------------------------------------- agreement properties


class TestDenseAgreesWithLegacy:
    @settings(max_examples=80, deadline=None)
    @given(ref=dfas(), sample=words)
    def test_round_trip_preserves_language(self, ref, sample):
        dfa = from_reference(ref)
        back = to_reference(dfa)
        for w in sample:
            assert dfa.accepts(w) == ref.accepts(w) == back.accepts(w), w

    @settings(max_examples=80, deadline=None)
    @given(ref=dfas(), sample=words)
    def test_minimize_same_states_same_language(self, ref, sample):
        legacy_min = ref.minimize()
        kernel_min = from_reference(ref).minimize()
        assert kernel_min.num_states == legacy_min.num_states
        # Both are canonical: the same automaton, state for state.
        assert to_reference(kernel_min).transitions == legacy_min.transitions
        for w in sample:
            assert kernel_min.accepts(w) == legacy_min.accepts(w) == ref.accepts(w), w

    @settings(max_examples=60, deadline=None)
    @given(left=dfas(), right=dfas(), sample=words)
    def test_products_agree_all_modes(self, left, right, sample):
        keeps = {
            "and": lambda a, b: a and b,
            "or": lambda a, b: a or b,
            "diff": lambda a, b: a and not b,
            "xor": lambda a, b: a != b,
        }
        for mode in MODES:
            eager = reference.product(left, right, keeps[mode])
            lazy = kernel.product(from_reference(left), from_reference(right), mode)
            for w in sample:
                assert lazy.accepts(w) == eager.accepts(w), (mode, w)
            assert lazy.is_empty() == eager.minimize().is_empty(), mode

    @settings(max_examples=60, deadline=None)
    @given(nfa=nfas(), sample=words)
    def test_determinize_same_states_same_language(self, nfa, sample):
        legacy_det = reference.determinize(nfa)
        kernel_det = nfa.determinize()
        assert kernel_det.num_states == legacy_det.num_states
        legacy_min = legacy_det.minimize()
        kernel_min = nfa.to_min_dfa()
        assert kernel_min.num_states == legacy_min.num_states
        for w in sample:
            assert kernel_min.accepts(w) == kernel_det.accepts(w) == nfa.accepts(w), w

    @settings(max_examples=40, deadline=None)
    @given(text=regex_texts(), sample=words)
    def test_regex_compilation_agrees(self, text, sample):
        alphabet = Alphabet("ab")
        via_kernel = compile_regex(text, alphabet)
        via_legacy = reference.determinize(
            parse_regex(text).to_nfa(alphabet)
        ).minimize()
        assert via_kernel.num_states == via_legacy.num_states
        for w in sample:
            assert via_kernel.accepts(w) == via_legacy.accepts(w), w

    @settings(max_examples=60, deadline=None)
    @given(left=dfas(), right=dfas())
    def test_hopcroft_karp_equivalence_agrees(self, left, right):
        # Independent oracle: the eager XOR product is empty iff the two
        # automata accept the same language.
        xor = reference.product(left, right, lambda a, b: a != b)
        assert kernel.equivalent(
            from_reference(left), from_reference(right)
        ) == xor.minimize().is_empty()

    @settings(max_examples=40, deadline=None)
    @given(chain=st.lists(dfas(max_states=4), min_size=1, max_size=4), sample=words)
    def test_nary_pipelines_agree_with_folds(self, chain, sample):
        inter = intersect_all_minimized([from_reference(d) for d in chain])
        union = union_all_minimized([from_reference(d) for d in chain])
        for w in sample:
            assert inter.accepts(w) == all(d.accepts(w) for d in chain), w
            assert union.accepts(w) == any(d.accepts(w) for d in chain), w

    @settings(max_examples=80, deadline=None)
    @given(ref=dfas())
    def test_language_methods_agree(self, ref):
        dfa = from_reference(ref)
        assert dfa.is_empty() == ref.is_empty()
        assert dfa.is_finite_language() == ref.is_finite_language()
        if ref.is_finite_language():
            assert dfa.count_words() == ref.count_words()
            assert list(dfa.iter_words()) == list(ref.iter_words())
        assert list(dfa.iter_words(max_length=4)) == list(ref.iter_words(max_length=4))
        assert dfa.shortest_word() == ref.shortest_word()
        for n in range(4):
            assert dfa.count_words_of_length(n) == ref.count_words_of_length(n)
        assert to_reference(dfa.trim()).transitions == ref.trim().canonical().transitions
        comp = dfa.complement()
        assert comp.num_states == ref.complement().num_states
        assert list(comp.iter_words(max_length=3)) == list(
            ref.complement().iter_words(max_length=3)
        )
        swapped = {"a": "b", "b": "a"}
        renamed = dfa.map_symbols(swapped.__getitem__)
        assert to_reference(renamed).transitions == (
            ref.map_symbols(swapped.__getitem__).canonical().transitions
        )


# ------------------------------------------------------- kernel-only behaviour


class TestKernelBehaviour:
    def test_symbol_table_interning_is_stable(self):
        table = SymbolTable("ab")
        assert table.intern("a") == 0 and table.intern("b") == 1
        assert table.intern("a") == 0  # idempotent
        assert table.index("z") == -1 and "z" not in table
        assert table.symbols == ("a", "b")

    def test_lazy_product_short_circuits_emptiness(self):
        alphabet = Alphabet("ab")
        only_a = compile_regex("a*", alphabet)
        only_b = compile_regex("bb*", alphabet)
        anything = compile_regex("(a|b)*", alphabet)
        # Disjoint languages: empty intersection, decided lazily.
        assert ProductPipeline([only_a, only_b], "and").is_empty()
        # Overlapping languages: the first accepting product state stops
        # exploration and counts a short-circuit in METRICS.
        before = METRICS.snapshot().get("kernel.short_circuits", 0)
        assert not ProductPipeline([only_a, anything], "and").is_empty()
        assert METRICS.snapshot().get("kernel.short_circuits", 0) > before

    def test_pipeline_containment(self):
        alphabet = Alphabet("ab")
        small = compile_regex("ab", alphabet)
        big = compile_regex("(a|b)*", alphabet)
        assert ProductPipeline([big], "and").contains(small)
        assert not ProductPipeline([small], "and").contains(big)

    def test_metrics_count_dense_builds(self):
        before = METRICS.snapshot()
        dfa = DFA(ALPHABET, [0, 1], 0, [1], {0: {"a": 1, "b": 0}})
        dfa.minimize()
        after = METRICS.snapshot()
        assert after.get("kernel.dense_dfas", 0) > before.get("kernel.dense_dfas", 0)
        assert after.get("kernel.minimizations", 0) > before.get(
            "kernel.minimizations", 0
        )

    def test_empty_alphabet_edge(self):
        dfa = DFA([], [0], 0, [0], {})
        assert dfa.accepts("")
        assert dfa.minimize().accepts("")
        assert not dfa.accepts("a")
        assert dfa.complement().is_empty()


try:
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - numpy is in the image
    HAVE_NUMPY = False


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy fast paths not available")
class TestNumpyPurePathEquivalence:
    """The vectorized minimize/materialize must build byte-identical
    automata to the pure-Python fallbacks (state numbering included) —
    determinism across machines with and without numpy."""

    def _random_dense(self, rng: random.Random, n: int) -> DFA:
        transitions = {
            q: {s: rng.randrange(n) for s in ALPHABET if rng.random() < 0.8}
            for q in range(n)
        }
        accepting = [q for q in range(n) if rng.random() < 0.4]
        return DFA(ALPHABET, range(n), 0, accepting or [0], transitions)

    def test_minimize_paths_identical(self, monkeypatch):
        import repro.automata.dfa as dfa_module

        rng = random.Random(11)
        for trial in range(10):
            dense = self._random_dense(rng, 24)
            monkeypatch.setattr(dfa_module, "_NP_MINIMIZE_FLOOR", 0)
            via_np = dense.minimize()
            monkeypatch.setattr(dfa_module, "_NP_MINIMIZE_FLOOR", 1 << 30)
            via_pure = dense.minimize()
            assert via_np.delta == via_pure.delta, trial
            assert via_np.accepting == via_pure.accepting, trial

    def test_materialize_paths_identical(self):
        rng = random.Random(13)
        for trial in range(10):
            parts = [self._random_dense(rng, 8) for _ in range(3)]
            pipe = ProductPipeline(parts, "and")
            via_np = pipe._materialize_np(kernel._NP_PRODUCT_CAPACITY)
            via_pure = ProductPipeline(parts, "and")._materialize_lazy()
            assert via_np.delta == via_pure.delta, trial
            assert via_np.accepting == via_pure.accepting, trial
