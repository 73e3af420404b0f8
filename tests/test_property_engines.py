"""Differential property tests: the engines on random formulas.

For restricted-quantifier formulas the automata and direct engines
implement the same semantics by definition, so any disagreement is a bug
in one of them — most likely in the convolution automata
(complement/projection/padding), which is exactly where DESIGN.md locates
the correctness risk.  Hypothesis generates random formulas and random
databases; the engines must agree.

The set-at-a-time algebra engine joins the comparison on its eligibility
regime (ADOM-only quantifiers, anchored outputs — the planner's rule 3):
there, Theorem 4's calculus↔algebra equivalence says all three engines
return identical results.  The algebra engine's two strategies both
join: the forced engine runs interpreted, and :func:`tests._fused.
fused_rows` runs the same optimized plan through the fused closure.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Query
from repro.database import Database
from repro.eval import AutomataEngine, DirectEngine
from repro.logic.dsl import (
    and_,
    el,
    eq,
    exists_adom,
    exists_len,
    exists_prefix,
    forall_adom,
    last,
    len_le,
    lex_le,
    not_,
    or_,
    prefix,
    rel,
    sprefix,
)
from repro.logic.formulas import Formula
from repro.strings import BINARY
from repro.structures import S_len
from tests._fused import fused_rows

VARS = ["u", "v", "w"]

short_string = st.text(alphabet="01", max_size=3)


def atoms(variables: list[str]) -> st.SearchStrategy[Formula]:
    """Random atoms over the given variables (S_len signature)."""
    var = st.sampled_from(variables)
    unary = st.builds(
        lambda t, a: last(t, a), var, st.sampled_from("01")
    ) | st.builds(lambda t: rel("R", t), var) | st.builds(lambda t: rel("S", t), var)
    binary_ctor = st.sampled_from([prefix, sprefix, eq, el, len_le, lex_le])
    binary = st.builds(lambda c, t1, t2: c(t1, t2), binary_ctor, var, var)
    return unary | binary


def formulas(variables: list[str], depth: int) -> st.SearchStrategy[Formula]:
    base = atoms(variables)
    if depth == 0:
        return base
    sub = formulas(variables, depth - 1)
    quantifier = st.builds(
        lambda q, v, f: q(v, f),
        st.sampled_from([exists_adom, forall_adom, exists_prefix, exists_len]),
        st.sampled_from(VARS),
        sub,
    )
    boolean = (
        st.builds(lambda a, b: and_(a, b), sub, sub)
        | st.builds(lambda a, b: or_(a, b), sub, sub)
        | st.builds(not_, sub)
    )
    return base | quantifier | boolean


def sentences() -> st.SearchStrategy[Formula]:
    """Random sentences: close a depth-2 formula under adom quantifiers."""

    def close(f: Formula) -> Formula:
        for v in sorted(f.free_variables(), reverse=True):
            f = exists_adom(v, f)
        return f

    return formulas(VARS, depth=2).map(close)


databases = st.builds(
    lambda r, s: Database(BINARY, {"R": {(x,) for x in r}, "S": {(x,) for x in s}}),
    st.sets(short_string, min_size=1, max_size=3),
    st.sets(short_string, max_size=3),
)


class TestEngineAgreement:
    @settings(max_examples=60, deadline=None)
    @given(sentence=sentences(), db=databases)
    def test_sentences_agree(self, sentence, db):
        structure = S_len(BINARY)
        for slack in (0, 1):
            auto = AutomataEngine(structure, db, slack=slack).decide(sentence)
            direct = DirectEngine(structure, db, slack=slack).decide(sentence)
            assert auto == direct, f"{sentence} on {db} (slack={slack})"

    @settings(max_examples=40, deadline=None)
    @given(
        formula=formulas(["u"], depth=1),
        db=databases,
        value=short_string,
    )
    def test_ground_evaluation_agrees(self, formula, db, value):
        structure = S_len(BINARY)
        free = formula.free_variables()
        assignment = {v: value for v in free}
        direct = DirectEngine(structure, db, slack=0).holds(formula, assignment)
        auto_result = AutomataEngine(structure, db, slack=0).run(formula)
        variables = auto_result.variables
        auto = (
            auto_result.contains(tuple(assignment[v] for v in variables))
            if variables
            else auto_result.as_bool()
        )
        assert auto == direct, f"{formula} @ {assignment}"

    @settings(max_examples=30, deadline=None)
    @given(formula=formulas(["u"], depth=1), db=databases)
    def test_open_query_outputs_agree(self, formula, db):
        """Open queries with one free variable: anchored outputs agree."""
        structure = S_len(BINARY)
        guarded = and_(rel("R", "u"), formula)  # anchor the output
        auto = AutomataEngine(structure, db, slack=0).run(guarded)
        direct = DirectEngine(structure, db, slack=0).run(guarded)
        assert auto.is_finite()
        assert auto.as_set() == direct.as_set(), str(guarded)


def adom_formulas(variables: list[str], depth: int) -> st.SearchStrategy[Formula]:
    """Like :func:`formulas` but quantifiers are ADOM only — the algebra
    engine's eligibility regime (collapsed form is automatic: database
    atoms use bare variables and never sit under a non-ADOM quantifier)."""
    base = atoms(variables)
    if depth == 0:
        return base
    sub = adom_formulas(variables, depth - 1)
    quantifier = st.builds(
        lambda q, v, f: q(v, f),
        st.sampled_from([exists_adom, forall_adom]),
        st.sampled_from(VARS),
        sub,
    )
    boolean = (
        st.builds(lambda a, b: and_(a, b), sub, sub)
        | st.builds(lambda a, b: or_(a, b), sub, sub)
        | st.builds(not_, sub)
    )
    return base | quantifier | boolean


def _anchor(formula: Formula) -> Formula:
    """Conjoin ``R(v)`` for every free variable, so every engine's output
    ranges over the active domain and all three provably agree."""
    for v in sorted(formula.free_variables(), reverse=True):
        formula = and_(rel("R", v), formula)
    return formula


class TestThreeEngineAgreement:
    """direct == automata == algebra, interpreted and fused, on the
    algebra regime.

    The fused closure must agree tuple-for-tuple with the interpreter on
    the same optimized plan (:func:`tests._fused.fused_rows`), and both
    with the automata oracle; a shape that does not fuse (S_len's
    ``DownOp``) runs interpreted."""

    ENGINES = ("automata", "direct", "algebra")

    @settings(max_examples=50, deadline=None)
    @given(formula=adom_formulas(VARS, depth=2), db=databases)
    def test_open_queries_identical_results(self, formula, db):
        query = Query(_anchor(formula), structure="S_len")
        results = {e: query.result(db, engine=e) for e in self.ENGINES}
        variables = {e: r.variables for e, r in results.items()}
        assert len(set(variables.values())) == 1, variables
        rows = {e: r.as_set() for e, r in results.items()}
        rows["fused"] = fused_rows(
            query, db, variables=results["automata"].variables
        )
        assert len(set(map(frozenset, rows.values()))) == 1, (
            str(query.formula), rows,
        )

    @settings(max_examples=30, deadline=None)
    @given(formula=adom_formulas(VARS, depth=2), db=databases)
    def test_sentences_identical_answers(self, formula, db):
        closed = formula
        for v in sorted(formula.free_variables(), reverse=True):
            closed = exists_adom(v, and_(rel("R", v), formula))
            formula = closed
        query = Query(closed, structure="S_len")
        answers = {
            e: query.result(db, engine=e).as_bool() for e in self.ENGINES
        }
        answers["fused"] = bool(fused_rows(query, db))
        assert len(set(answers.values())) == 1, (str(closed), answers)

    @settings(max_examples=25, deadline=None)
    @given(formula=adom_formulas(VARS, depth=1), db=databases)
    def test_auto_planner_matches_forced_engines(self, formula, db):
        """Whatever the planner picks agrees with every forced engine."""
        query = Query(_anchor(formula), structure="S_len")
        result = query.result(db)
        auto = result.as_set()
        for engine in self.ENGINES:
            assert auto == query.result(db, engine=engine).as_set(), engine
        assert auto == fused_rows(query, db, variables=result.variables)


class TestKernelBackedAutomataRuns:
    """The automata engine's compilations now run on the dense kernel
    (``repro.automata.kernel``): re-assert three-engine agreement while
    checking the ``kernel.*`` METRICS actually move — evidence the dense
    path, not a silent dict-DFA fallback, produced the agreeing answers."""

    ENGINES = ("automata", "direct", "algebra")

    @settings(max_examples=30, deadline=None)
    @given(formula=adom_formulas(VARS, depth=2), db=databases)
    def test_dense_kernel_runs_underneath_agreeing_engines(self, formula, db):
        from repro.engine.metrics import METRICS

        structure = S_len(BINARY)
        anchored = _anchor(formula)
        before = METRICS.snapshot().get("kernel.dense_dfas", 0)
        auto = AutomataEngine(structure, db, slack=0).run(anchored)
        assert METRICS.snapshot().get("kernel.dense_dfas", 0) > before
        direct = DirectEngine(structure, db, slack=0).run(anchored)
        assert auto.as_set() == direct.as_set(), str(anchored)

    def test_explain_surfaces_kernel_stats(self):
        db = Database(BINARY, {"R": {("01",), ("10",)}, "S": set()})
        explain = Query(
            and_(rel("R", "u"), last("u", "0")), structure="S_len"
        ).explain(db, engine="automata")
        assert explain.kernel_stats, explain.counters
        assert "kernel" in explain.to_dict()
        assert "kernel:" in explain.render()


class TestCanonicalizationRoundTrip:
    """Canonicalization (repro.logic.canonical) is semantics-preserving:
    alpha-renaming binders and sorting commutative conjuncts/disjuncts
    must not change any engine's answer — that is what licenses keying
    every cache on the canonical fingerprint."""

    ENGINES = ("automata", "direct", "algebra")

    @settings(max_examples=40, deadline=None)
    @given(formula=adom_formulas(VARS, depth=2), db=databases)
    def test_canonicalize_preserves_three_engine_results(self, formula, db):
        from repro.logic.canonical import canonical_fingerprint, canonicalize

        original = _anchor(formula)
        canon = canonicalize(original)
        assert canonical_fingerprint(canon) == canonical_fingerprint(original)
        assert canon.free_variables() == original.free_variables()
        q_orig = Query(original, structure="S_len")
        q_canon = Query(canon, structure="S_len")
        for engine in self.ENGINES:
            before = q_orig.result(db, engine=engine)
            after = q_canon.result(db, engine=engine)
            assert before.variables == after.variables, engine
            assert before.as_set() == after.as_set(), (engine, str(original))
        assert fused_rows(q_orig, db) == fused_rows(q_canon, db), str(original)

    @settings(max_examples=40, deadline=None)
    @given(sentence=sentences(), db=databases)
    def test_canonicalize_preserves_natural_semantics(self, sentence, db):
        """Round-trip on the wider quantifier spectrum (PREFIX and LENGTH
        quantifiers included), via the exact automata engine."""
        from repro.logic.canonical import canonicalize

        structure = S_len(BINARY)
        engine = AutomataEngine(structure, db, slack=0)
        assert engine.decide(canonicalize(sentence)) == engine.decide(sentence)
