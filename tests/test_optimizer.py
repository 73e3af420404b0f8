"""Tests for the algebra plan optimizer and CSE evaluation.

Every rewrite must preserve semantics: the raw plan's compiled closure
(through its dialect) is checked against the optimized plan on the
reference interpreter (``tests/_reference_algebra.py``), and (for
compiled queries) against the exact engine.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra import (
    BaseRel,
    Difference,
    PrefixOp,
    Product,
    Project,
    Select,
    Union,
    RA_S,
    col,
    compile_query,
    optimize,
)
from repro.database import Database, random_database
from repro.eval import AutomataEngine
from repro.logic import parse_formula
from repro.logic.dsl import eq, last, prefix
from repro.strings import BINARY
from repro.structures import S, S_len
from tests._reference_algebra import AlgebraExecutor, evaluate

S_BIN = S(BINARY)
DB = Database(BINARY, {"R": {("0",), ("01",), ("11",)}, "S": {("0",), ("1",)}})


def plan_size(plan) -> int:
    return sum(1 for _ in plan.walk())


class TestRewrites:
    def test_identity_projection_dropped(self):
        plan = Project(BaseRel("R", 1), (0,))
        assert optimize(plan) == BaseRel("R", 1)

    def test_projection_cascade(self):
        plan = Project(Project(BaseRel("E", 2), (1, 0)), (1,))
        out = optimize(plan)
        assert out == Project(BaseRel("E", 2), (0,))

    def test_selection_merge(self):
        plan = Select(Select(BaseRel("R", 1), last(col(0), "0")), last(col(0), "1"))
        out = optimize(plan)
        assert isinstance(out, Select)
        assert not isinstance(out.child, Select)

    def test_selection_pushed_through_projection(self):
        plan = Select(Project(BaseRel("E", 2), (1,)), last(col(0), "0"))
        out = optimize(plan)
        assert isinstance(out, Project)
        assert isinstance(out.child, Select)

    def test_selection_pushed_into_product_left(self):
        plan = Select(Product(BaseRel("R", 1), BaseRel("S", 1)), last(col(0), "0"))
        out = optimize(plan)
        assert isinstance(out, Product)
        assert isinstance(out.left, Select)

    def test_selection_pushed_into_product_right(self):
        plan = Select(Product(BaseRel("R", 1), BaseRel("S", 1)), last(col(1), "0"))
        out = optimize(plan)
        assert isinstance(out, Product)
        assert isinstance(out.right, Select)

    def test_join_condition_not_pushed(self):
        plan = Select(
            Product(BaseRel("R", 1), BaseRel("S", 1)), eq(col(0), col(1))
        )
        out = optimize(plan)
        assert isinstance(out, Select)  # spans both sides: stays put

    def test_union_idempotence(self):
        plan = Union(BaseRel("R", 1), BaseRel("R", 1))
        assert optimize(plan) == BaseRel("R", 1)

    def test_nested_union_dedup(self):
        plan = Union(Union(BaseRel("R", 1), BaseRel("S", 1)), BaseRel("S", 1))
        out = optimize(plan)
        assert plan_size(out) < plan_size(plan)


PLANS = [
    Select(Select(BaseRel("R", 1), last(col(0), "0")), prefix(col(0), col(0))),
    Project(Project(Product(BaseRel("R", 1), BaseRel("S", 1)), (1, 0)), (1,)),
    Select(Product(BaseRel("R", 1), BaseRel("S", 1)), last(col(0), "1")),
    Union(Union(BaseRel("R", 1), BaseRel("S", 1)), BaseRel("R", 1)),
    Difference(PrefixOp(BaseRel("R", 1), 0), Product(BaseRel("R", 1), BaseRel("S", 1))),
    Select(Project(Product(BaseRel("R", 1), BaseRel("S", 1)), (1, 0)), eq(col(0), col(1))),
]


class TestSemanticsPreserved:
    @pytest.mark.parametrize("plan", PLANS, ids=[str(p)[:40] for p in PLANS])
    def test_optimize_preserves_output(self, plan):
        before = RA_S(BINARY).evaluate(plan, DB)
        after = evaluate(optimize(plan), DB, S_BIN)
        assert before == after, str(plan)

    @pytest.mark.parametrize("plan", PLANS, ids=[str(p)[:40] for p in PLANS])
    def test_cse_matches_plain_evaluation(self, plan):
        # The reference executor's subplan memo against the memo-free
        # recursion; the closure's CSE is its emitter's memo.
        rows, _ = AlgebraExecutor(S_BIN, DB).run(plan)
        assert rows == evaluate(plan, DB, S_BIN)

    @pytest.mark.parametrize(
        "text,factory",
        [
            ("R(x) & last(x, '0')", S),
            ("exists adom y: R(y) & x <<= y", S),
            ("R(x) & !S(x)", S),
            ("R(x) & exists adom y: S(y) & el(x, y)", S_len),
        ],
    )
    def test_compiled_plans_survive_optimization(self, text, factory):
        structure = factory(BINARY)
        for seed in (0, 1):
            db = random_database(BINARY, {"R": 1, "S": 1}, 4, max_len=3, seed=seed)
            formula = parse_formula(text)
            compiled = compile_query(formula, structure, db.schema, slack=1)
            expected = AutomataEngine(structure, db).run(formula).as_set()
            optimized = optimize(compiled.plan)
            assert evaluate(optimized, db, structure) == expected
            assert compiled.dialect.evaluate(optimized, db) == expected
            # The optimizer should not grow the plan.
            assert plan_size(optimized) <= plan_size(compiled.plan)

    def test_optimizer_shrinks_compiled_plan(self):
        db = DB
        formula = parse_formula("R(x) & last(x, '0') & exists adom y: S(y)")
        compiled = compile_query(formula, S_BIN, db.schema, slack=1)
        optimized = optimize(compiled.plan)
        assert plan_size(optimized) < plan_size(compiled.plan)
