"""Query templates: literals lifted into slots, one plan and one closure
per shape, values bound per run.

``lift_literals`` turns a query into a template plus the values of its
slots and ``bind`` undoes it.  The service interns one template handle
per shape, so ad hoc queries that differ only in their constants are
planned once and compiled once.  The exact automata engine on the
literal query stays the oracle for every engine running the template.
"""

import pathlib
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra.codegen import get_pipeline
from repro.algebra.optimize import compile_for_execution
from repro.core import Query, StringDatabase
from repro.database import Database
from repro.engine.backend import backend_names
from repro.engine.cache import reset_caches
from repro.engine.explain import execute_plan
from repro.engine.metrics import METRICS
from repro.engine.planner import Planner, with_values
from repro.eval import AutomataEngine
from repro.logic.canonical import (
    canonical_fingerprint,
    canonical_serialization,
    canonicalize,
)
from repro.logic.dsl import (
    add_last,
    and_,
    eq,
    exists,
    exists_adom,
    last,
    lit,
    matches,
    not_,
    or_,
    prefix,
    rel,
)
from repro.logic.literals import bind, lift_literals
from repro.logic.parser import parse_formula
from repro.logic.terms import Param
from repro.logic.transform import guard_existentials
from repro.service import Dispatcher, QueryService, RunRequest
from repro.strings import BINARY
from repro.structures import S_reg

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "benchmarks"))
import bench_service  # noqa: E402


@pytest.fixture(autouse=True)
def _fresh():
    reset_caches()
    METRICS.reset()
    yield
    reset_caches()


R = ["001", "0100", "0110", "10", "1011"]
DB = StringDatabase("01", {"R": set(R), "S": {"0", "01", "1"}})

constants = st.text(alphabet="01", max_size=3)
patterns = st.sampled_from(["0.*", "(00)*", "1|01", ".*1", "0(1|0)*0"])


# ------------------------------------------------------------- lift / bind


def conditions(var: str) -> st.SearchStrategy:
    """Database-free conditions on ``var`` carrying literals."""
    return st.one_of(
        st.builds(lambda c: prefix(lit(c), var), constants),
        st.builds(lambda c: prefix(var, lit(c)), constants),
        # A literal under a function term stays graph_const(c, ?i) after
        # folding: a quantified condition whose slot the checker binds.
        st.builds(
            lambda c, a: prefix(add_last(lit(c), a), var),
            constants, st.sampled_from("01"),
        ),
        st.builds(lambda c: eq(var, lit(c)), constants),
        st.builds(lambda p: matches(var, p), patterns),
        st.builds(lambda a: last(var, a), st.sampled_from("01")),
    )


def shapes() -> st.SearchStrategy:
    """Anchored S_reg queries over x: the regime every engine runs with
    the natural semantics, with literals in conditions, negations and an
    ``exists adom`` body."""
    part = st.one_of(
        conditions("x"),
        conditions("x").map(not_),
        st.builds(lambda: not_(rel("S", "x"))),
        st.builds(
            lambda c: exists_adom("y", and_(rel("S", "y"), prefix("y", "x"), c)),
            conditions("y"),
        ),
    )
    anchor = st.sampled_from(
        [rel("R", "x"), or_(rel("R", "x"), rel("S", "x"))]
    )
    return st.builds(
        lambda a, ps: and_(a, *ps), anchor, st.lists(part, min_size=1, max_size=3)
    )


databases = st.builds(
    lambda r, s: Database(BINARY, {"R": {(x,) for x in r}, "S": {(x,) for x in s}}),
    st.sets(constants, min_size=1, max_size=4),
    st.sets(constants, min_size=1, max_size=3),
)


class TestLiftAndBind:
    @settings(max_examples=150, deadline=None)
    @given(formula=shapes())
    def test_bind_inverts_lift(self, formula):
        template, values = lift_literals(formula)
        assert bind(template, values) == formula
        assert not any(
            isinstance(t, Param) for a in formula.atoms() for t in a.args
        )

    @settings(max_examples=100, deadline=None)
    @given(formula=shapes(), rng=st.randoms(use_true_random=False))
    def test_reordered_conjuncts_share_template_and_values(self, formula, rng):
        parts = list(formula.parts)
        rng.shuffle(parts)
        ta, va = lift_literals(formula)
        tb, vb = lift_literals(and_(*parts))
        assert canonical_fingerprint(ta) == canonical_fingerprint(tb)
        assert va == vb

    def test_literals_become_slots_and_symbols_stay(self):
        template, values = lift_literals(
            parse_formula("R(x) & last(x, '0') & '01' <<= x & matches(x, '0.*')")
        )
        # Slots follow the canonical order (matches sorts before prefix);
        # the template keeps the spelling it was lifted from.
        assert values == ("0.*", "01")
        assert str(template) == (
            "R(x) & last(x, '0') & prefix(?1, x) & matches(x, ?0)"
        )

    def test_canonically_equal_spellings_share_template_and_order(self):
        a = parse_formula("R(x) & R(y) & '01' <<= x & '10' <<= y")
        b = parse_formula("'10' <<= y & R(y) & '01' <<= x & R(x)")
        ta, va = lift_literals(a)
        tb, vb = lift_literals(b)
        assert canonical_fingerprint(ta) == canonical_fingerprint(tb)
        assert va == vb == ("01", "10")
        # Shape decides the order, constants only break ties: the same
        # shape with its constants swapped shares the template too.
        tc, vc = lift_literals(
            parse_formula("R(x) & R(y) & '10' <<= x & '01' <<= y")
        )
        assert canonical_fingerprint(tc) == canonical_fingerprint(ta)
        assert vc == ("10", "01")

    def test_slot_serializes_as_param(self):
        template, _ = lift_literals(parse_formula("R(x) & '01' <<= x"))
        assert "param(0)" in canonical_serialization(template)
        assert "'01'" not in canonical_serialization(template)
        assert canonicalize(template) == canonicalize(canonicalize(template))


# ------------------------------------------------- every engine vs automata


class TestTemplatesAgreeWithTheOracle:
    @settings(max_examples=60, deadline=None)
    @given(formula=shapes(), db=databases)
    def test_every_engine_runs_the_template(self, formula, db):
        structure = S_reg(BINARY)
        expected = AutomataEngine(structure, db).run(formula).as_set()
        template, values = lift_literals(formula)
        planner = Planner(structure, db)
        for engine in backend_names():
            if engine == "sharded":
                continue  # needs a coordinator; tests/test_property_shard.py
            # The planner plans the literal query as its template.
            plan = planner.plan(formula, slack=0, force=engine)
            assert plan.params == values
            assert plan.formula == planner.plan(
                template, slack=0, force=engine
            ).formula
            got = execute_plan(plan, db).as_set()
            assert got == expected, f"{engine}: {formula}"
            if engine == "algebra":
                # The same plan straight from its closure, past the
                # whole-result cache.
                got = _algebra_rows(plan, db, "codegen")
                assert got == expected, f"closure: {formula}"


def _algebra_rows(plan, db, strategy):
    """The answer of an algebra ``plan`` through the backend, the
    whole-result cache included (``"algebra"``), or straight from its
    compiled closure (``"codegen"``)."""
    if strategy == "codegen":
        pipeline, _ = get_pipeline(
            plan.formula, plan.structure, db.schema, plan.slack
        )
        return pipeline.run(db, plan.params)[0]
    return execute_plan(plan, db).as_set()


class TestSlotsInTheBound:
    """A query whose output the constants bound runs the gamma-bounded
    branch: the bound's base holds the slot's run-time value (ParamRel)."""

    @pytest.mark.parametrize("strategy", ["algebra", "codegen"])
    @pytest.mark.parametrize("text", ["R(x) | x = '0101'", "x = '1' & !S(x)"])
    def test_bound_is_built_from_the_values(self, strategy, text):
        structure = S_reg(BINARY)
        db = DB.db
        template, _ = lift_literals(parse_formula(text))
        plan = Planner(structure, db).plan(template, slack=0, force="algebra")
        optimized = compile_for_execution(
            plan.formula, structure, db.schema, slack=0
        ).fin
        assert "R[?0]" in str(optimized)
        for value in ("0101", "1", "", "111", "0110"):
            concrete = bind(template, (value,))
            expected = AutomataEngine(structure, db).run(concrete).as_set()
            bound = with_values(plan, (value,))
            got = _algebra_rows(bound, db, strategy)
            assert got == expected, (strategy, value)


class TestSlotsOutsideConditions:
    """A literal that is an argument of a function term or of a relation
    atom is not folded into a condition: it stays ``graph_const(c, ?i)``,
    and its slot must still be bound wherever the template runs."""

    DB = Database(BINARY, {
        "R": {("001",), ("0100",), ("010",), ("10",)},
        "S": {("0",), ("01",)},
        "T": {("001", "0"), ("10", "1")},
    })

    @pytest.mark.parametrize("strategy", ["algebra", "codegen"])
    @pytest.mark.parametrize("text", [
        "R(x) & x <<= add_last('{c}', '0')",
        "R(x) & add_last('{c}', '1') <<= x",
        "R(x) & !(x <<= add_last('{c}', '0'))",
        "R(x) & exists y: y = add_last('{c}', '0') & y <<= x",
    ])
    def test_function_term_literals(self, strategy, text):
        structure = S_reg(BINARY)
        for c in ("01", "", "0", "10"):
            formula = parse_formula(text.format(c=c))
            expected = AutomataEngine(structure, self.DB).run(formula)
            plan = Planner(structure, self.DB).plan(
                formula, slack=0, force="algebra"
            )
            got = _algebra_rows(plan, self.DB, strategy)
            assert got == expected.as_set(), (text, c)

    @pytest.mark.parametrize("text", [
        "R(x) & S('01')",
        "R(x) & T(x, '0')",
        "R(x) & S(add_last('0', '1'))",
    ])
    def test_relation_argument_literals(self, text):
        # Forced algebra rejects these at plan time (the literal's
        # natural quantifier reads the database), exactly as without
        # templates; every engine that accepts them answers correctly.
        with QueryService(workers=1) as svc:
            svc.register_database("main", self.DB)
            expected = AutomataEngine(S_reg(BINARY), self.DB).run(
                parse_formula(text)
            ).as_set()
            for engine in (None, "automata", "direct", "algebra"):
                resp = svc.execute(RunRequest(
                    query=text, database="main", structure="S_reg",
                    engine=engine,
                ))
                if engine == "algebra" and not resp.ok:
                    assert resp.error.code == "invalid", resp.error
                    assert "RANF translation bailed" in resp.error.message
                    continue
                assert resp.ok, (engine, resp.error)
                assert {tuple(r) for r in resp.rows} == expected, engine


# ------------------------------------------------- guarded existentials


def guarded_sentences() -> st.SearchStrategy:
    """``exists x`` over bodies whose conjunction may or may not hold x in
    a relation atom."""
    body_part = st.one_of(
        conditions("x"),
        st.builds(lambda: rel("R", "x")),
        st.builds(lambda: rel("S", "x")),
        st.builds(lambda: not_(rel("S", "x"))),
    )
    return st.builds(
        lambda ps: exists("x", and_(*ps)), st.lists(body_part, min_size=1, max_size=3)
    )


class TestGuardExistentials:
    def test_rewrites_only_relation_guarded_quantifiers(self):
        guarded = guard_existentials(
            parse_formula("exists x: R(x) & last(x, '0')")
        )
        assert str(guarded) == "exists adom x: (R(x) & last(x, '0'))"
        for text in (
            "exists x: !R(x) & last(x, '0')",
            "exists x: R(add_last(x, '0'))",
            "exists x: R(x) | last(x, '0')",
        ):
            assert guard_existentials(parse_formula(text)) == parse_formula(text)

    @settings(max_examples=80, deadline=None)
    @given(sentence=guarded_sentences(), db=databases)
    def test_agrees_with_automata(self, sentence, db):
        structure = S_reg(BINARY)
        engine = AutomataEngine(structure, db)
        assert engine.decide(guard_existentials(sentence)) == engine.decide(
            sentence
        ), str(sentence)


# ------------------------------------------------------------- the service


@pytest.fixture
def service():
    with QueryService(workers=2) as svc:
        svc.register_database("main", DB)
        yield svc


def _rows(service, text, structure="S"):
    resp = service.execute(
        RunRequest(query=text, database="main", structure=structure)
    )
    assert resp.ok, resp.error
    return resp


class TestServiceTemplates:
    def test_one_plan_and_one_closure_for_1000_constants(self, service):
        _rows(service, "R(x) & '1' <<= x")
        plans = METRICS.get("planner.plans")
        compiles = METRICS.get("codegen.compiles")
        for i in range(1000):
            c = format(i, "b")
            resp = _rows(service, f"R(x) & '{c}' <<= x")
            assert resp.rows == [[x] for x in R if x.startswith(c)]
        assert METRICS.get("planner.plans") - plans == 0
        assert METRICS.get("codegen.compiles") - compiles == 0
        # ... and the first request of the shape was the one plan and
        # the one compile.
        assert plans == 1 and compiles == 1

    def test_swapped_constants_give_distinct_correct_answers(self, service):
        a = _rows(service, "R(x) & R(y) & '01' <<= x & '10' <<= y")
        b = _rows(service, "'10' <<= y & R(y) & '01' <<= x & R(x)")
        c = _rows(service, "R(x) & R(y) & '10' <<= x & '01' <<= y")

        def pairs(cx, cy):
            return [
                [x, y] for x in R for y in R
                if x.startswith(cx) and y.startswith(cy)
            ]

        assert a.rows == b.rows == pairs("01", "10")
        assert c.rows == pairs("10", "01") != a.rows
        assert service.stats()["templates"] == 1
        assert METRICS.get("planner.plans") == 1

    def test_per_binding_signature_checks(self, service):
        # One template under S: the star-free pattern runs, the one with
        # a star is outside S's signature — before and after the other.
        bad = "R(x) & matches(x, '(00)*')"
        good = "R(x) & matches(x, '0.*')"
        for text in (bad, good, bad):
            resp = service.execute(RunRequest(query=text, database="main"))
            if text == bad:
                assert not resp.ok and resp.error.code == "invalid"
                assert "not star-free" in resp.error.message
            else:
                assert resp.ok and resp.rows == [["001"], ["0100"], ["0110"]]
        assert service.stats()["templates"] == 1

    def test_constant_outside_the_alphabet_matches_nothing(self, service):
        assert _rows(service, "R(x) & '01' <<= x").rows == [["0100"], ["0110"]]
        assert _rows(service, "R(x) & '2' <<= x").rows == []

    def test_pattern_slot_runs_per_binding(self, service):
        for pattern, expected in (
            ("(00)*", []),
            ("1.*", [["10"], ["1011"]]),
            ("0(1|0)*0", [["0100"], ["0110"]]),
        ):
            resp = _rows(service, f"R(x) & matches(x, '{pattern}')", "S_reg")
            assert resp.rows == expected
            assert resp.engine == "algebra"
        # One closure, run fused for every binding.
        assert METRICS.get("codegen.compiles") == 1
        assert METRICS.get("codegen.runs") == 3

    def test_guarded_natural_quantifier_leaves_automata(self, service):
        resp = _rows(service, "exists x: R(x) & last(x, '0') & '01' <<= x")
        assert resp.rows == [[]] and resp.engine == "algebra"
        resp = _rows(service, "exists x: R(x) & last(x, '0') & '11' <<= x")
        assert resp.rows == []

    def test_delta_maintenance_keeps_bindings_apart(self, service):
        # Answers cached for one binding on one version must not carry
        # over into another binding's answer on the next.
        rows = list(R)
        runs = METRICS.get("codegen.runs")

        def run(c):
            resp = service.execute(RunRequest(
                query=f"R(x) & !S(x) & '{c}' <<= x", database="main",
                engine="algebra",
            ))
            assert resp.ok, resp.error
            assert resp.rows == [[x] for x in sorted(rows) if x.startswith(c)]

        for i, word in enumerate(["0111", "1000", "0011"]):
            service.insert_rows("main", "R", [(word,)])
            rows.append(word)
            run("01" if i % 2 == 0 else "10")
        # Every write touches R, so each run re-ran the closure.
        assert METRICS.get("codegen.runs") == runs + 3

    def test_explain_and_stats_show_the_template(self, service):
        _rows(service, "R(x) & '01' <<= x")
        report = service.explain("R(x) & '0' <<= x", "main")
        template = report.to_dict()["template"]
        # The plan holds the canonicalized template.
        assert template["template"] == "prefix(?0, x) & R(x)"
        assert template["values"] == ["0"]
        assert template["template_fingerprint"] == canonical_fingerprint(
            canonicalize(lift_literals(parse_formula("R(x) & '1' <<= x"))[0])
        )
        assert "template: prefix(?0, x) & R(x)" in report.render()
        assert report.tuple_count == 3
        stats = service.stats()
        assert stats["templates"] == 1
        assert stats["counters"]["service.template_hits"] == 1

    def test_protocol_prepare_and_explain_ops(self, service):
        dispatcher = Dispatcher(service)
        prepared, _ = dispatcher.handle(
            {"op": "prepare", "query": "S(y) & '0' <<= y", "id": 1}
        )
        assert prepared["ok"] and prepared["variables"] == ["y"]
        assert prepared["template"] == "S(y) & prefix(?0, y)"
        assert prepared["values"] == ["0"]
        reply, _ = dispatcher.handle(
            {"op": "explain", "query": "S(y) & '01' <<= y", "db": "main"}
        )
        assert reply["ok"]
        assert reply["explain"]["template"]["values"] == ["01"]
        assert reply["explain"]["result"]["tuples"] == 1


# ------------------------------------------------ one planning behaviour


class TestLibraryServiceParity:
    """The planner applies the ADOM guard, so ``Query.plan`` and the
    service plan one text alike.  The library plans after the service
    prewarmed the shape's closure, so both price the algebra engine warm."""

    @pytest.mark.parametrize(
        "text,structure",
        bench_service.WORKLOAD + [("R(x) & exists y: (y <<= x & S(y))", "S")],
    )
    def test_same_engine_strategy_and_rows(self, text, structure):
        db = bench_service.make_db()
        with QueryService(workers=1) as svc:
            svc.register_database("main", db)
            served = svc.explain(text, "main", structure=structure).plan
            resp = svc.execute(
                RunRequest(query=text, database="main", structure=structure)
            )
        assert resp.ok, resp.error
        query = Query(text, structure=structure)
        planned = query.plan(db)
        assert planned.engine == served.engine
        assert {tuple(r) for r in resp.rows} == query.run(db).rows_set


# ---------------------------------------------- a concrete query's identity


class TestConcreteIdentity:
    """A concrete query is (template fingerprint, values in canonical slot
    order); the values' encoding must not collide where joining them
    naively would."""

    A = "R(x) & R(y) & '0' <<= x & '10' <<= y"
    B = "R(x) & R(y) & '01' <<= x & '0' <<= y"

    def test_colliding_joins_get_distinct_fingerprints(self, service):
        a, b = service.prepare(self.A), service.prepare(self.B)
        assert (a.values, b.values) == (("0", "10"), ("01", "0"))
        assert a.template is b.template
        entry = service._entry("main")
        assert a.plan_for(entry).fingerprint != b.plan_for(entry).fingerprint

    def test_colliding_joins_never_share_a_result(self, service):
        def pairs(cx, cy):
            return [
                [x, y] for x in R for y in R
                if x.startswith(cx) and y.startswith(cy)
            ]

        for _ in range(2):
            assert _rows(service, self.A).rows == pairs("0", "10")
            assert _rows(service, self.B).rows == pairs("01", "0")
