"""Differential property test: the calculus->algebra compiler vs the engine.

Random collapsed-form formulas (database quantifiers ADOM, pure-M
quantifiers natural) are compiled to RA plans and must reproduce the
exact engine's answers tuple-for-tuple on random databases — Theorem 4,
fuzzed.  The conditions use string constants (folded into plain
conditions) and the bodies put negated relation conjuncts next to
positive ones (applied to the join as differences), so filter placement
and the anti-join are fuzzed too.  The compiler's invariant — every
subplan's values lie inside the gamma-bound — is checked directly, and
the optimized plan's compiled closure (the algebra engine's executor) is
held against the reference interpreter (``tests/_reference_algebra.py``)
and the exact engine.

The engine compiles through the RANF translator alone
(:func:`~repro.algebra.optimize.compile_for_execution`); a last property
pins that wherever Theorem 4's :func:`~repro.algebra.compile_query`
compiles a query the translator accepts outside its gamma-bounded
branch, both make the same plan.
"""

from hypothesis import (
    HealthCheck,
    assume,
    given,
    reject,
    settings,
    strategies as st,
)

from repro.algebra import (
    compile_for_execution,
    compile_query,
    optimize,
    optimize_for_execution,
)
from repro.algebra.codegen import build_pipeline
from repro.algebra.compile import CompileError, bound_plan, query_constants
from repro.algebra.ranf import translation_verdict
from repro.database import Database
from repro.database.schema import Schema
from repro.eval import AutomataEngine
from repro.logic.dsl import (
    and_,
    el,
    eq,
    exists,
    exists_adom,
    forall,
    last,
    len_le,
    lit,
    matches,
    not_,
    or_,
    prefix,
    rel,
    sprefix,
)
from repro.logic.canonical import canonicalize
from repro.logic.formulas import Formula, QuantKind
from repro.logic.literals import lift_literals
from repro.logic.transform import flatten_terms, fold_literal_graphs
from repro.strings import BINARY
from repro.structures import S
from repro.structures.catalog import by_name
from tests._reference_algebra import AlgebraExecutor, evaluate
from tests.test_property_ranf import _anchor

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
        plan = optimize_for_execution(compiled.plan)
        closure = build_pipeline(plan, compiled.columns, structure, "fuzz")
        rows, _ = closure.run(db, compiled.params)
        reference, _ = AlgebraExecutor(
            structure, db, params=compiled.params
        ).run(plan)
        assert rows == reference == got, str(formula)

    @settings(max_examples=25, deadline=None)
    @given(formula=collapsed_queries(), db=databases)
    def test_optimizer_preserves_compiled_semantics(self, formula, db):
        structure = S(BINARY)
        compiled = compile_query(formula, structure, db.schema, slack=1)
        baseline = compiled.evaluate(db)
        optimized = optimize(compiled.plan)
        params = compiled.params
        assert evaluate(optimized, db, structure, params) == baseline, str(formula)
        assert (
            compiled.dialect.evaluate(optimized, db, params) == baseline
        ), str(formula)

    @settings(max_examples=30, deadline=None)
    @given(formula=collapsed_queries(), db=databases)
    def test_compiled_output_lies_inside_the_bound(self, formula, db):
        structure = S(BINARY)
        compiled = compile_query(formula, structure, db.schema, slack=1)
        template, params = lift_literals(formula)
        flat = fold_literal_graphs(flatten_terms(template))
        gamma = bound_plan(structure, db.schema, 1, query_constants(flat))
        dialect = compiled.dialect
        inside = {v for (v,) in dialect.evaluate(gamma, db, params)}
        # Every subplan, not only the output: the invariant is what lets
        # a conjunction filter its generators instead of the bound.
        for node in set(compiled.plan.walk()):
            for row in dialect.evaluate(node, db, params):
                assert set(row) <= inside, (str(formula), str(node), row)


# ------------------------------------------- the translator vs Theorem 4


AGREEMENT_VARS = ["u", "v", "w"]
AGREEMENT_SCHEMA = Schema({"R": 1, "S": 1, "T": 2})


def _agreement_atoms(structure: str) -> st.SearchStrategy[Formula]:
    var = st.sampled_from(AGREEMENT_VARS)
    constant = st.sampled_from(["", "0", "01"]).map(lit)
    binary = [prefix, sprefix, eq] + ([el, len_le] if structure == "S_len" else [])
    atoms = (
        st.builds(lambda t, a: last(t, a), var, st.sampled_from("01"))
        | st.builds(lambda t: rel("R", t), var)
        | st.builds(lambda t: rel("S", t), var)
        | st.builds(lambda a, b: rel("T", a, b), var, var)
        | st.builds(prefix, constant, var)
        | st.builds(lambda p, a, b: p(a, b), st.sampled_from(binary), var, var)
    )
    if structure == "S_reg":
        atoms = atoms | st.builds(lambda t: matches(t, "(01)*"), var)
    return atoms


def _agreement_formulas(structure: str, depth: int) -> st.SearchStrategy[Formula]:
    """Every quantifier kind the structure has, under and/or/not."""
    atoms = _agreement_atoms(structure)
    if depth == 0:
        return atoms
    sub = _agreement_formulas(structure, depth - 1)
    kinds = [QuantKind.ADOM, QuantKind.NATURAL, QuantKind.PREFIX]
    if structure == "S_len":
        kinds.append(QuantKind.LENGTH)
    quantified = st.builds(
        lambda q, k, v, f: q(v, f, k),
        st.sampled_from([exists, forall]),
        st.sampled_from(kinds),
        st.sampled_from(AGREEMENT_VARS),
        sub,
    )
    boolean = (
        st.builds(and_, sub, sub) | st.builds(or_, sub, sub) | st.builds(not_, sub)
    )
    # One draw picks the node shape first, so the atoms' many branches
    # do not crowd out the quantifiers.
    shapes = {"atom": atoms, "quantified": quantified, "boolean": boolean}
    return st.sampled_from(sorted(shapes)).flatmap(shapes.__getitem__)


class TestTranslatorAgreesWithTheorem4:
    """The fact that lets the engine compile through the translator
    alone: outside the gamma-bounded branch, on every query
    ``compile_query`` compiles, the translator makes its plan."""

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_translator_plan_equals_compile_query(self, data):
        name = data.draw(st.sampled_from(["S", "S_len", "S_left", "S_reg"]))
        structure = by_name(name, BINARY)
        formula = canonicalize(
            _anchor(data.draw(_agreement_formulas(name, depth=3)))
        )
        verdict = translation_verdict(lift_literals(formula)[0], structure)
        assume(verdict.ok and verdict.branch != "gamma-bounded")
        try:
            theorem4 = compile_query(
                formula, structure, AGREEMENT_SCHEMA, slack=1
            )
        except CompileError:
            reject()
        plans = compile_for_execution(
            formula, structure, AGREEMENT_SCHEMA, slack=1
        )
        assert plans.compiled.plan == theorem4.plan, str(formula)
        assert plans.compiled.columns == theorem4.columns, str(formula)
        assert plans.compiled.params == theorem4.params, str(formula)
        assert plans.fin == optimize_for_execution(theorem4.plan), str(formula)
        assert plans.inf is None, str(formula)
