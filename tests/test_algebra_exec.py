"""The set-at-a-time algebra engine: fusion, physical joins, memo, planner.

Covers the execution layer added on top of the paper's RA(M) plans:
``optimize_for_execution``'s hash-join fusion and pushdowns
(:mod:`repro.algebra.optimize`), the reference interpreter's hash/semi/
anti joins and subplan memoization (``tests/_reference_algebra.py``, the
oracle the compiled closures are held against), the planner's third
engine (:mod:`repro.engine.planner`), and the EXPLAIN surface.
"""

import pytest

from repro.algebra.compile import CompileError, compile_query
from repro.algebra.optimize import (
    compile_for_execution,
    optimize,
    optimize_for_execution,
)
from repro.algebra.plan import BaseRel, Join, Product, Project, Select, col
from repro.algebra.to_calculus import to_calculus
from repro.core import Query
from repro.database import Database, random_database
from repro.engine.deadline import deadline_scope
from repro.engine.metrics import METRICS
from repro.engine.planner import Planner, algebra_eligible
from repro.errors import EvaluationTimeout
from repro.logic.dsl import and_, eq, exists, exists_prefix, prefix, rel
from repro.logic.parser import parse_formula
from repro.logic.transform import flatten_terms
from repro.strings import BINARY
from repro.structures.catalog import S as S_factory
from repro.algebra.dialects import RA_S
from tests._reference_algebra import AlgebraExecutor, evaluate

S_BIN = S_factory(BINARY)


def db2() -> Database:
    """Two binary relations with a joinable middle column."""
    return Database(
        BINARY,
        {
            "R": {("0", "01"), ("1", "11"), ("01", "0")},
            "T": {("01", "1"), ("11", "0")},
        },
    )


def run_algebra(formula, structure, db):
    """Columns, reference rows and operator stats of ``formula``'s plan."""
    plans = compile_for_execution(formula, structure, db.schema)
    rows, stats = AlgebraExecutor(
        structure, db, params=plans.compiled.params
    ).run(plans.fin)
    return plans.compiled.columns, rows, stats


def compiled_join_plan(db):
    formula = flatten_terms(parse_formula("R(x,y) & T(y,z)"))
    return compile_query(formula, S_BIN, db.schema)


class TestJoinFusion:
    def test_select_product_fuses_to_join(self):
        db = db2()
        plan = optimize_for_execution(compiled_join_plan(db).plan)
        assert isinstance(plan, Project)
        assert isinstance(plan.child, Join)
        assert plan.child.pairs == ((1, 0),)
        assert plan.child.residual is None

    def test_fused_plan_evaluates_identically(self):
        db = db2()
        compiled = compiled_join_plan(db)
        naive = evaluate(optimize(compiled.plan), db, S_BIN)
        fused = evaluate(optimize_for_execution(compiled.plan), db, S_BIN)
        assert naive == fused

    def test_residual_condition_survives_fusion(self):
        # eq(c0,c2) is a join key; prefix(c1,c3) stays as the residual.
        raw = Select(
            Product(BaseRel("R", 2), BaseRel("T", 2)),
            and_(eq(col(0), col(2)), prefix(col(1), col(3))),
        )
        fused = optimize_for_execution(raw)
        assert isinstance(fused, Join)
        assert fused.pairs == ((0, 0),)
        assert fused.residual is not None
        db = db2()
        assert evaluate(fused, db, S_BIN) == RA_S(BINARY).evaluate(raw, db)

    def test_single_side_conjuncts_are_pushed(self):
        raw = Select(
            Product(BaseRel("R", 2), BaseRel("T", 2)),
            and_(eq(col(1), col(2)), prefix(col(0), col(1))),
        )
        fused = optimize_for_execution(raw)
        assert isinstance(fused, Join)
        # The left-only prefix conjunct moved below the join.
        assert isinstance(fused.left, Select)
        assert fused.residual is None
        db = db2()
        assert evaluate(fused, db, S_BIN) == RA_S(BINARY).evaluate(raw, db)

    def test_projection_prunes_dead_columns(self):
        raw = Project(
            Select(
                Product(BaseRel("R", 2), BaseRel("T", 2)),
                eq(col(1), col(2)),
            ),
            (0,),
        )
        fused = optimize_for_execution(raw)
        db = db2()
        assert evaluate(fused, db, S_BIN) == RA_S(BINARY).evaluate(raw, db)
        # Only column 0 of the left and the key columns survive below.
        assert isinstance(fused, Project)
        join = fused.child
        assert isinstance(join, Join)
        assert join.right.arity == 1  # T's dead z column was pruned

    def test_join_round_trips_through_calculus(self):
        fused = Join(BaseRel("R", 2), BaseRel("T", 2), ((1, 0),), None)
        translated = to_calculus(fused)
        result = Query(translated, structure=S_BIN).result(
            db2(), engine="automata"
        )
        assert result.as_set() == evaluate(fused, db2(), S_BIN)


class TestExecutor:
    def test_hash_join_stats(self):
        db = db2()
        plan = optimize_for_execution(compiled_join_plan(db).plan)
        rows, stats = AlgebraExecutor(S_BIN, db).run(plan)
        assert len(rows) == 2
        kinds = set()
        stack = [stats]
        while stack:
            node = stack.pop()
            kinds.add(node.kind)
            stack.extend(node.children)
        assert "HashJoin" in kinds

    def test_semi_join_for_exists_projection(self):
        db = Database(
            BINARY,
            {"R": {("0110",), ("001",), ("11",)}, "U": {("0",), ("01",)}},
        )
        formula = flatten_terms(
            parse_formula("R(x) & exists adom y: U(y) & y <<= x")
        )
        _cols, rows, stats = run_algebra(formula, S_BIN, db)
        assert rows == {("0110",), ("001",)}
        kinds = set()
        stack = [stats]
        while stack:
            node = stack.pop()
            kinds.add(node.kind)
            stack.extend(node.children)
        assert "SemiJoin" in kinds

    def test_anti_join_for_difference(self):
        db = db2()
        formula = flatten_terms(
            parse_formula("R(x,y) & !(exists adom z: T(y, z))")
        )
        cols, rows, stats = run_algebra(formula, S_BIN, db)
        assert cols == ("x", "y")
        assert rows == {("01", "0")}
        direct = Query(parse_formula("R(x,y) & !(exists adom z: T(y, z))"),
                       structure=S_BIN).result(db, engine="direct")
        assert rows == direct.as_set()

    def test_subplan_memoization_counts(self):
        db = Database(
            BINARY,
            {"R": {("0110",), ("001",)}, "U": {("0",), ("01",)}},
        )
        # Both conjuncts mention the same bound subplan shapes; run twice
        # on one executor — the second run is answered from the memo.
        formula = flatten_terms(
            parse_formula("R(x) & exists adom y: U(y) & y <<= x")
        )
        compiled = compile_query(formula, S_BIN, db.schema)
        plan = optimize_for_execution(compiled.plan)
        executor = AlgebraExecutor(S_BIN, db)
        first, _ = executor.run(plan)
        mid = executor.memo_hits
        second, stats = executor.run(plan)
        after = executor.memo_hits
        assert first == second
        assert mid > 0               # repeated gamma-bound subplans
        assert after > mid           # whole plan memoized across runs
        assert stats.memo_hit

    def test_metrics_counters_increment(self):
        db = db2()
        plan = optimize_for_execution(compiled_join_plan(db).plan)
        joins0 = METRICS.get("algebra.joins")
        probed0 = METRICS.get("algebra.rows_probed")
        AlgebraExecutor(S_BIN, db).run(plan)
        assert METRICS.get("algebra.joins") == joins0 + 1
        assert METRICS.get("algebra.rows_probed") > probed0

    def test_join_loops_respect_deadlines(self):
        n = 300
        db = Database(
            BINARY,
            {
                "R": {(format(i, "09b"), format(i + 1, "09b")) for i in range(n)},
                "T": {(format(i + 1, "09b"), format(i, "09b")) for i in range(n)},
            },
        )
        plan = optimize_for_execution(compiled_join_plan(db).plan)
        with pytest.raises(EvaluationTimeout):
            with deadline_scope(1e-9):
                AlgebraExecutor(S_BIN, db).run(plan)

    def test_streamed_select_product_respects_deadlines(self):
        # The Select(Product) closure streams pairs and checkpoints, so a
        # deadline interrupts it mid-product instead of after a full
        # cross-product materialization.
        raw = Select(
            Product(BaseRel("R", 2), BaseRel("T", 2)), eq(col(1), col(2))
        )
        n = 300
        db = Database(
            BINARY,
            {
                "R": {(format(i, "09b"), format(i + 1, "09b")) for i in range(n)},
                "T": {(format(i + 1, "09b"), format(i, "09b")) for i in range(n)},
            },
        )
        with pytest.raises(EvaluationTimeout):
            with deadline_scope(1e-9):
                RA_S(BINARY).evaluate(raw, db)


class TestPlannerIntegration:
    def test_algebra_eligibility(self):
        assert algebra_eligible(parse_formula("R(x,y) & T(y,z)"))
        assert algebra_eligible(
            parse_formula("R(x) & exists adom y: U(y) & y <<= x")
        )
        # PREFIX quantifier: outside the slack-independent regime.
        assert not algebra_eligible(
            and_(rel("R", "x"), exists_prefix("y", prefix("y", "x")))
        )
        # NATURAL quantifier over a database atom: not collapsed.
        assert not algebra_eligible(
            exists("y", and_(rel("R", "y"), rel("U", "y")))
        )
        # Constant in a relation atom flattens to a NATURAL quantifier.
        assert not algebra_eligible(parse_formula("R(x, '01')"))

    def test_large_join_auto_selects_algebra(self):
        db = random_database(BINARY, {"R": 2, "T": 2}, 300, max_len=4, seed=3)
        plan = Planner(S_BIN, db).plan(parse_formula("R(x,y) & T(y,z)"))
        assert plan.engine == "algebra"
        assert plan.costs["algebra"] < plan.costs["direct"]
        assert "hash joins" in plan.reason

    def test_small_query_still_goes_direct(self):
        db = Database(
            BINARY,
            {"R": {("0110",), ("001",), ("11",)}, "U": {("0",), ("01",)}},
        )
        plan = Planner(S_BIN, db).plan(
            parse_formula("R(x) & exists adom y: U(y) & y <<= x")
        )
        assert plan.engine == "direct"
        assert plan.costs["algebra"] != float("inf")  # costed, just not chosen

    def test_forced_algebra_rejects_uncollapsible(self):
        db = db2()
        with pytest.raises(CompileError):
            # Constant argument in a database atom flattens to a NATURAL
            # quantifier over R — not collapsed, so not compilable.
            Planner(S_BIN, db).plan(
                parse_formula("R(x, '01')"), force="algebra"
            )

    def test_forced_algebra_agrees_with_other_engines(self):
        db = db2()
        q = Query("R(x,y) & T(y,z)", structure=S_BIN)
        expected = q.result(db, engine="automata").as_set()
        assert q.result(db, engine="algebra").as_set() == expected
        assert q.result(db, engine="direct").as_set() == expected

    def test_planner_counter_for_algebra(self):
        db = random_database(BINARY, {"R": 2, "T": 2}, 300, max_len=4, seed=3)
        before = METRICS.get("planner.backend.algebra.chosen")
        Planner(S_BIN, db).plan(parse_formula("R(x,y) & T(y,z)"))
        assert METRICS.get("planner.backend.algebra.chosen") == before + 1


class TestExplainSurface:
    def test_explain_shows_hash_join_not_select_product(self):
        db = random_database(BINARY, {"R": 2, "T": 2}, 300, max_len=4, seed=3)
        report = Query("R(x,y) & T(y,z)", structure=S_BIN).explain(db)
        assert report.plan.engine == "algebra"
        tree = report.to_dict()["tree"]
        kinds, labels = set(), []

        def walk(node):
            kinds.add(node["kind"])
            labels.append(node["label"])
            for child in node["children"]:
                walk(child)

        walk(tree)
        assert "HashJoin" in kinds
        # No Select(Product(...)) anywhere: products render as "(l x r)".
        assert not any(" x " in label for label in labels), labels
        assert "algebra.joins" in report.counters

    def test_explain_result_cache_round_trip(self):
        db = db2()
        q = Query("R(x,y) & T(y,z)", structure=S_BIN)
        first = q.explain(db, engine="algebra")
        second = q.explain(db, engine="algebra")
        assert first.to_dict()["result"] == second.to_dict()["result"]
        # Second run is a whole-result cache hit: no joins executed.
        assert "algebra.joins" not in second.counters
