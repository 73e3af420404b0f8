"""Tests for the algebra engine's fused strategy (repro.algebra.codegen).

Covers the fusion shapes the emitter claims (scan→select→project chains
in one loop body, hash tables built once per join, prefix expansion
inlined), the per-plan-shape eligibility gate with its structured
fallback to the interpreted executor, bit-identity between the numpy
columnar branch and the pure-Python loop, the bounded closure cache's
LRU discipline, EXPLAIN output, planner integration (which strategy a
plan runs, and the warm-closure flip to fused), and delta behavior
(row-only deltas reuse closures).
"""

import pytest

import repro.algebra.codegen as codegen
from repro.algebra.codegen import (
    closure_cache,
    get_pipeline,
    has_pipeline,
    prewarm,
    shape_supported,
)
from repro.algebra.exec import AlgebraExecutor, compile_for_execution
from repro.core import Query
from repro.database import random_database
from repro.database.instance import Database
from repro.database.schema import Schema
from repro.delta import VersionedDatabase
from repro.engine import METRICS, global_cache
from repro.engine.backend import FUSED, INTERPRETED, get_backend
from repro.engine.cache import DEFAULT_MAXSIZE
from repro.engine.explain import execute_plan, explain_plan
from repro.engine.planner import Planner
from repro.logic import parse_formula
from repro.logic.canonical import canonicalize
from repro.strings import BINARY
from repro.structures import S_len
from repro.structures.catalog import S as S_factory
from tests._fused import fused_plan

STRUCT = S_factory(BINARY)

#: The database-free disjunct is compiled on its own, over the
#: gamma-bound — under S_len that bound needs DownOp.
S_LEN_PADDED = "R(x) & (S(x) | last(x, '0'))"


@pytest.fixture(autouse=True)
def _fresh():
    """Codegen closures persist process-wide; tests must not leak warm
    closures into each other (or into later test files — a warm closure
    flips the planner's argmin by design)."""
    global_cache().reset()
    closure_cache().reset()
    METRICS.reset()
    yield
    global_cache().reset()
    closure_cache().reset()


def _formula(text: str):
    return canonicalize(parse_formula(text))


def _binary_db(n: int = 40):
    return random_database(BINARY, {"R": 2, "S": 2}, n, max_len=3, seed=5)


def _ternary_db(n: int = 30):
    return random_database(BINARY, {"W": 3}, n, max_len=4, seed=9)


def _agree(text: str, db, structure=STRUCT):
    """Compile both ways and assert the pipeline matches the interpreter."""
    formula = _formula(text)
    _compiled, plan = compile_for_execution(
        formula, structure, db.schema, slack=0
    )
    pipeline, detail = get_pipeline(formula, structure, db.schema, slack=0)
    assert pipeline is not None, f"{text}: {detail}"
    rows, stage_rows = pipeline.run(db)
    interpreted = AlgebraExecutor(structure, db).run(plan)[0]
    assert rows == interpreted, text
    assert len(stage_rows) == len(pipeline.stages)
    return pipeline


class TestFusion:
    def test_scan_select_project_is_one_fused_stage(self):
        # W(x,x,y) compiles to project(select[eq](W)): one fused loop, no
        # intermediate relation between the select and the project.
        pipeline = _agree("W(x,x,y)", _ternary_db())
        kinds = [s["kind"] for s in pipeline.stages]
        assert kinds.count("FusedScan") == 1
        assert "HashJoin" not in kinds

    def test_join_hash_table_outside_the_loop(self):
        pipeline = _agree("R(x,y) & S(y,z)", _binary_db())
        kinds = [s["kind"] for s in pipeline.stages]
        assert "HashJoin" in kinds
        # Both build-side branches are emitted; the smaller side is
        # chosen at runtime, and either way the table is built once.
        assert pipeline.source.count("if len(") >= 1

    def test_prefix_expansion_fuses_into_the_row_loop(self):
        # A variable no relation binds ranges over the prefix-closed
        # adom; the emitter inlines that expansion as a nested range loop
        # instead of materializing PrefixOp output.
        pipeline = _agree("R(x,y) & S(y,z) & last(w, '0')", _binary_db())
        assert "for _i" in pipeline.source
        assert ".endswith(" in pipeline.source  # inlined `last`, no checker
        assert pipeline.line_count > 0

    @pytest.mark.parametrize(
        "text",
        [
            "R(x,y) | S(x,y)",
            "R(x,y) & !S(x,y)",
            "exists adom y: R(x,y)",
            "R(x,y) & S(y,z) & x = z",
            "R(x,y) & x <<= y",
            "R(x,x)",
        ],
    )
    def test_fused_pipelines_agree_with_interpreter(self, text):
        _agree(text, _binary_db())


class TestEligibilityGate:
    def test_downop_shapes_are_rejected(self):
        # S_len's gamma-bound needs DownOp, whose expansion is
        # exponential in string length — codegen refuses, by design.
        db = random_database(BINARY, {"R": 1, "S": 1}, 10, max_len=3, seed=3)
        ok, why = shape_supported(
            _formula(S_LEN_PADDED), S_len(BINARY), db.schema
        )
        assert not ok
        assert "DownOp" in why

    def test_forced_codegen_falls_back_to_interpreter(self):
        # A plan forced onto the fused (codegen) strategy whose shape the
        # emitter rejects still answers — structured fallback to the
        # interpreted algebra executor.
        db = random_database(BINARY, {"R": 1, "S": 1}, 10, max_len=3, seed=3)
        query = Query(S_LEN_PADDED, structure="S_len")
        got = execute_plan(fused_plan(query, db), db).as_set()
        global_cache().reset()
        want = query.result(db, engine="algebra").as_set()
        assert got == want
        assert METRICS.get("codegen.fallbacks") >= 1

    def test_rejections_are_cached(self):
        db = random_database(BINARY, {"R": 1, "S": 1}, 10, max_len=3, seed=3)
        formula = _formula(S_LEN_PADDED)
        first = get_pipeline(formula, S_len(BINARY), db.schema)
        misses = METRICS.get("codegen.cache.misses")
        second = get_pipeline(formula, S_len(BINARY), db.schema)
        assert first == second == (None, first[1])
        assert METRICS.get("codegen.cache.hits") >= 1
        assert METRICS.get("codegen.cache.misses") == misses
        assert METRICS.get("codegen.compiles") == 0


@pytest.mark.skipif(codegen._np is None, reason="numpy not available")
class TestNumpyColumnarIdentity:
    QUERY = "W(x,x,y)"

    def test_numpy_and_pure_loops_are_bit_identical(self, monkeypatch):
        db = _ternary_db(n=30)  # below the default 64-row threshold
        formula = _formula(self.QUERY)
        # Default threshold: the closure's runtime branch takes the pure
        # loop (30 < 64) even though the stage is vectorizable.
        pure = get_pipeline(formula, STRUCT, db.schema)[0]
        assert pure.np_stages == 1
        pure_rows, _ = pure.run(db)
        # Lowered threshold + fresh compile: the numpy branch engages.
        monkeypatch.setattr(codegen, "_NP_MIN_ROWS", 1)
        closure_cache().reset()
        vectorized = get_pipeline(formula, STRUCT, db.schema)[0]
        assert "len(" in vectorized.source and ">= 1:" in vectorized.source
        np_rows, _ = vectorized.run(db)
        assert np_rows == pure_rows
        _plan = compile_for_execution(formula, STRUCT, db.schema, slack=0)[1]
        assert np_rows == AlgebraExecutor(STRUCT, db).run(_plan)[0]


class TestClosureCache:
    def test_hit_after_compile(self):
        db = _binary_db()
        formula = _formula("R(x,y) & S(y,z)")
        _p1, detail1 = get_pipeline(formula, STRUCT, db.schema)
        _p2, detail2 = get_pipeline(formula, STRUCT, db.schema)
        assert (detail1, detail2) == ("compiled", "hit")
        assert METRICS.get("codegen.compiles") == 1
        assert METRICS.get("codegen.cache.hits") == 1
        assert has_pipeline(formula, STRUCT, db.schema)

    def test_lru_eviction_under_pressure(self):
        db = _binary_db()
        cache = closure_cache()
        try:
            cache.resize(1)
            get_pipeline(_formula("R(x,y)"), STRUCT, db.schema)
            get_pipeline(_formula("S(x,y)"), STRUCT, db.schema)
            assert METRICS.get("codegen.cache.evictions") >= 1
            assert not has_pipeline(_formula("R(x,y)"), STRUCT, db.schema)
        finally:
            cache.resize(DEFAULT_MAXSIZE)

    def test_service_stats_surface_the_closure_cache(self):
        from repro.service import QueryService

        with QueryService(workers=1) as service:
            stats = service.stats()
        assert "codegen_cache" in stats
        assert {"size", "maxsize", "hits", "misses"} <= stats[
            "codegen_cache"
        ].keys()


class TestExplain:
    def test_explain_shows_fused_pipeline(self):
        db = _binary_db()
        query = Query("R(x,y) & S(y,z)", structure="S")
        assert prewarm(query.formula, query.structure, db.schema)
        report = query.explain(db)
        assert (report.plan.engine, report.plan.strategy) == ("algebra", FUSED)
        assert "algebra (auto, fused)" in report.render()
        tree = report.to_dict()["tree"]
        assert tree["kind"] == "CodegenPipeline"
        assert tree["annotations"]["source_lines"] > 0
        assert tree["annotations"]["closure"] in ("warm", "compiled")
        assert tree["children"], "per-stage children missing"
        assert all("rows" in c["annotations"] for c in tree["children"])
        assert "codegen[" in report.render()

    def test_explain_fallback_is_annotated(self):
        db = random_database(BINARY, {"R": 1, "S": 1}, 10, max_len=3, seed=3)
        query = Query(S_LEN_PADDED, structure="S_len")
        report = explain_plan(fused_plan(query, db), db)
        tree = report.to_dict()["tree"]
        assert tree["kind"] != "CodegenPipeline"
        assert "codegen_fallback" in tree["annotations"]
        assert "DownOp" in tree["annotations"]["codegen_fallback"]

    def test_cached_result_explain(self):
        db = _binary_db()
        query = Query("R(x,y) & S(y,z)", structure="S")
        plan = fused_plan(query, db)
        assert explain_plan(plan, db).root.kind == "CodegenPipeline"
        second = explain_plan(plan, db)
        assert second.root.cache_hit


class TestPlannerIntegration:
    QUERY = "R(x,y) & S(y,z) & last(x, '0')"

    def test_warm_closure_flips_the_argmin(self):
        db = random_database(BINARY, {"R": 2, "S": 2}, 100, max_len=4, seed=11)
        query = Query(self.QUERY, structure="S")
        cold = query.plan(db)
        assert cold.strategy != FUSED, cold.costs
        assert prewarm(
            query.formula, query.structure, db.schema, slack=0
        )
        warm = query.plan(db)
        assert (warm.engine, warm.strategy) == ("algebra", FUSED), warm.costs
        # The flip is exactly the setup cost falling away.
        assert warm.costs["algebra"] < cold.costs["algebra"]
        assert METRICS.get("codegen.prewarms") == 1

    def test_prewarm_refuses_ineligible_shapes(self):
        db = _binary_db()
        # NATURAL over a database-dependent scope: even the RANF
        # translation bails (a db-free scope would now prewarm fine).
        natural = parse_formula("exists x: (R(x,y) & exists z: (z <<= x & S(z,y)))")
        assert not prewarm(natural, STRUCT, db.schema)
        assert METRICS.get("codegen.prewarms") == 0


class TestDeltaBehavior:
    def test_row_only_delta_reuses_the_closure(self):
        base = Database(
            BINARY,
            {"R": {("0",), ("01",)}, "S": {("1",)}},
            schema=Schema({"R": 1, "S": 1}),
        )
        vdb = VersionedDatabase(base)
        query = Query("R(x) | S(x)")

        def fused(db):
            return execute_plan(fused_plan(query, db), db).as_set()

        fused(vdb.head.database)
        assert METRICS.get("codegen.compiles") == 1
        head = vdb.insert("S", {"11", "0"})
        got = fused(head.database)
        # Same schema => same closure key: no recompilation, just a run.
        assert METRICS.get("codegen.compiles") == 1
        assert METRICS.get("codegen.runs") == 2
        fresh = Database(
            BINARY,
            {"R": {("0",), ("01",)}, "S": {("1",), ("11",), ("0",)}},
            schema=Schema({"R": 1, "S": 1}),
        )
        assert got == fused(fresh) == {("0",), ("01",), ("1",), ("11",)}

    def test_untouched_relation_promotes_the_result(self):
        base = Database(
            BINARY,
            {"R": {("0",), ("01",)}, "S": {("1",)}},
            schema=Schema({"R": 1, "S": 1}),
        )
        vdb = VersionedDatabase(base)
        query = Query("R(x)")

        def fused(db):
            return execute_plan(fused_plan(query, db), db).as_set()

        first = fused(vdb.head.database)
        runs = METRICS.get("codegen.runs")
        assert runs == 1
        head = vdb.insert("S", {"111"})  # delta misses the query's relation
        again = fused(head.database)
        assert again == first
        # Promotion re-keyed the old result: no new pipeline execution.
        assert METRICS.get("codegen.runs") == runs


class TestStrategy:
    """Which strategy the algebra engine runs a plan with, pinned."""

    def test_strategy_choice(self):
        db = random_database(BINARY, {"R": 2, "S": 2}, 100, max_len=4, seed=11)
        query = Query("R(x,y) & S(y,z) & last(x, '0')", structure="S")
        # Cold and small: the interpreter beats compiling a closure.
        cold = query.plan(db)
        assert (cold.engine, cold.strategy) == ("algebra", INTERPRETED)
        assert "fused (closure not compiled yet)" in cold.reason
        # Forced algebra runs interpreted (and keeps ΔQ maintenance).
        forced = query.plan(db, engine="algebra")
        assert (forced.engine, forced.strategy) == ("algebra", INTERPRETED)
        report = query.explain(db, engine="algebra")
        assert report.root.kind != "CodegenPipeline"
        # Warm: the same query runs fused, and EXPLAIN shows the pipeline.
        assert prewarm(query.formula, query.structure, db.schema)
        global_cache().reset()
        report = query.explain(db)
        assert (report.plan.engine, report.plan.strategy) == ("algebra", FUSED)
        assert report.plan.to_dict()["strategy"] == FUSED
        assert report.root.kind == "CodegenPipeline"
        assert METRICS.get("codegen.runs") == 1

    def test_large_cold_join_runs_fused(self):
        # Enough rows that half the row work outweighs the compile.
        db = random_database(BINARY, {"R": 2, "S": 2}, 2000, max_len=8, seed=4)
        plan = Query("R(x,y) & S(y,z)", structure="S").plan(db)
        assert not has_pipeline(plan.formula, plan.structure, db.schema)
        assert (plan.engine, plan.strategy) == ("algebra", FUSED), plan.costs

    def test_gamma_bounded_output_runs_interpreted_with_a_reason(self):
        # x is not anchored: only the interpreted RANF pair checks the
        # runtime bound, so the closure is not even priced.
        db = random_database(BINARY, {"R": 1, "S": 1}, 30, max_len=4, seed=3)
        plan = Query("eq(x, y) & R(y)", structure="S").plan(db)
        assert (plan.engine, plan.strategy) == ("algebra", INTERPRETED)
        assert "interpreted, not fuseable" in plan.reason
        assert "not anchored" in plan.reason

    def test_downop_shape_runs_interpreted_with_a_reason(self):
        db = random_database(BINARY, {"R": 1, "S": 1}, 10, max_len=3, seed=3)
        formula = _formula(S_LEN_PADDED)
        planner = Planner(S_len(BINARY), db)
        estimate = get_backend("algebra").estimate(
            formula, planner.structure, db, 0, planner
        )
        assert estimate.strategy == INTERPRETED
        assert "DownOp" in estimate.note
