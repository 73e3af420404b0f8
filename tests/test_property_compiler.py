"""Differential property test: the calculus->algebra compiler vs the engine.

Random collapsed-form formulas (database quantifiers ADOM, pure-M
quantifiers natural) are compiled to RA plans and must reproduce the
exact engine's answers tuple-for-tuple on random databases — Theorem 4,
fuzzed.  The conditions use string constants (folded into plain
conditions) and the bodies put negated relation conjuncts next to
positive ones (applied to the join as differences), so filter placement
and the anti-join are fuzzed too.  The compiler's invariant — every
subplan's values lie inside the gamma-bound — is checked directly.
"""

from hypothesis import given, settings, strategies as st

from repro.algebra import compile_query, evaluate_with_cse, optimize
from repro.algebra.compile import bound_plan, query_constants
from repro.database import Database
from repro.eval import AutomataEngine
from repro.logic.dsl import (
    and_,
    eq,
    exists,
    exists_adom,
    last,
    lit,
    not_,
    or_,
    prefix,
    rel,
    sprefix,
)
from repro.logic.formulas import Formula
from repro.logic.transform import flatten_terms, fold_literal_graphs
from repro.strings import BINARY
from repro.structures import S

short = st.text(alphabet="01", max_size=3)

databases = st.builds(
    lambda r, s: Database(BINARY, {"R": {(x,) for x in r}, "S": {(x,) for x in s}}),
    st.sets(short, min_size=1, max_size=4),
    st.sets(short, max_size=3),
)


def conditions(variables: list[str]) -> st.SearchStrategy[Formula]:
    """Database-free conditions (may use natural quantifiers)."""
    var = st.sampled_from(variables)
    constant = st.sampled_from(["", "0", "01", "10"]).map(lit)
    base = (
        st.builds(lambda t, a: last(t, a), var, st.sampled_from("01"))
        | st.builds(prefix, var, var)
        | st.builds(sprefix, var, var)
        | st.builds(eq, var, var)
        | st.builds(prefix, constant, var)
        | st.builds(eq, var, constant)
    )
    quantified = st.builds(
        lambda v, f: exists(v, f), st.sampled_from(["w"]), conditions_inner(variables + ["w"])
    )
    return base | st.builds(not_, base) | quantified


def conditions_inner(variables: list[str]) -> st.SearchStrategy[Formula]:
    var = st.sampled_from(variables)
    return st.builds(lambda t, a: last(t, a), var, st.sampled_from("01")) | st.builds(
        prefix, var, var
    )


def collapsed_queries() -> st.SearchStrategy[Formula]:
    """phi(x): R/S atoms over x and an adom-quantified y, plus conditions."""
    guard = conditions(["x", "y"])
    body = st.builds(
        lambda g, r_or_s, connect, negated: and_(
            rel(r_or_s, "y"), connect, g, *negated
        ),
        guard,
        st.sampled_from(["R", "S"]),
        st.sampled_from([prefix("x", "y"), eq("x", "y"), sprefix("x", "y")]),
        st.sampled_from(
            [(), (not_(rel("R", "y")),), (not_(rel("S", "y")),), (not_(rel("S", "x")),)]
        ),
    )
    anchored = body.map(lambda b: exists_adom("y", b))
    with_negation = st.builds(
        lambda f, g: and_(f, not_(rel("S", "x"))) if g else f,
        anchored,
        st.booleans(),
    )
    disjunctions = st.builds(
        lambda f, g: or_(f, g) if g is not None else f,
        with_negation,
        st.none() | anchored,
    )
    return disjunctions


class TestCompilerProperty:
    @settings(max_examples=40, deadline=None)
    @given(formula=collapsed_queries(), db=databases)
    def test_compiled_matches_engine(self, formula, db):
        structure = S(BINARY)
        expected = AutomataEngine(structure, db).run(formula)
        assert expected.is_finite()  # outputs anchored to adom prefixes
        compiled = compile_query(formula, structure, db.schema, slack=1)
        got = compiled.evaluate(db)
        assert got == expected.as_set(), str(formula)

    @settings(max_examples=25, deadline=None)
    @given(formula=collapsed_queries(), db=databases)
    def test_optimizer_preserves_compiled_semantics(self, formula, db):
        structure = S(BINARY)
        compiled = compile_query(formula, structure, db.schema, slack=1)
        baseline = compiled.evaluate(db)
        optimized = optimize(compiled.plan)
        assert optimized.evaluate(db, structure) == baseline, str(formula)
        assert evaluate_with_cse(optimized, db, structure) == baseline, str(formula)

    @settings(max_examples=30, deadline=None)
    @given(formula=collapsed_queries(), db=databases)
    def test_compiled_output_lies_inside_the_bound(self, formula, db):
        structure = S(BINARY)
        compiled = compile_query(formula, structure, db.schema, slack=1)
        flat = fold_literal_graphs(flatten_terms(formula))
        gamma = bound_plan(structure, db.schema, 1, query_constants(flat))
        inside = {v for (v,) in gamma.evaluate(db, structure)}
        # Every subplan, not only the output: the invariant is what lets
        # a conjunction filter its generators instead of the bound.
        for node in set(compiled.plan.walk()):
            for row in node.evaluate(db, structure):
                assert set(row) <= inside, (str(formula), str(node), row)
