"""Tests for the algebra engine's executor, the compiled closure
(repro.algebra.codegen).

Covers the fusion shapes the emitter claims (scan→select→project chains
in one loop body, hash tables built once per join, prefix and ``down``
expansion inlined), every closure held against the reference interpreter
(``tests/_reference_algebra.py``), the bounded closure cache's LRU
discipline, EXPLAIN output, planner integration (cold and warm
pricing, the warm-closure flip to algebra), and delta behavior (row-only
deltas reuse closures; store versions are maintained).
"""

import importlib
import pickle

import pytest

import repro.algebra.codegen as codegen
import repro.algebra.plan as plan_module
from repro.algebra.codegen import (
    build_pipeline,
    closure_cache,
    get_pipeline,
    has_pipeline,
    prewarm,
)
from repro.algebra.compile import CompileError, compile_query
from repro.algebra.optimize import compile_for_execution, optimize_for_execution
from repro.core import Query
from repro.database import random_database
from repro.database.instance import Database
from repro.database.schema import Schema
from repro.delta import VersionedDatabase
from repro.engine import METRICS, global_cache, reset_caches
from repro.engine.cache import DEFAULT_MAXSIZE
from repro.engine.explain import execute_plan, explain_plan
from repro.eval import AutomataEngine
from repro.logic import parse_formula
from repro.logic.canonical import canonicalize
from repro.strings import BINARY
from repro.structures import S_len
from repro.structures.catalog import S as S_factory
from tests._reference_algebra import AlgebraExecutor, reference_run

STRUCT = S_factory(BINARY)

#: The database-free disjunct is compiled on its own, over the
#: gamma-bound — under S_len that bound needs DownOp.
S_LEN_PADDED = "R(x) & (S(x) | last(x, '0'))"


@pytest.fixture(autouse=True)
def _fresh():
    """Codegen closures persist process-wide; tests must not leak warm
    closures into each other (or into later test files — a warm closure
    flips the planner's argmin by design)."""
    reset_caches()
    METRICS.reset()
    yield
    reset_caches()


def _formula(text: str):
    return canonicalize(parse_formula(text))


def _binary_db(n: int = 40):
    return random_database(BINARY, {"R": 2, "S": 2}, n, max_len=3, seed=5)


def _ternary_db(n: int = 30):
    return random_database(BINARY, {"W": 3}, n, max_len=4, seed=9)


def _agree(text: str, db, structure=STRUCT):
    """Compile the closure and assert it matches the interpreter."""
    formula = _formula(text)
    plan = compile_for_execution(formula, structure, db.schema, slack=0).fin
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
        # instead of materializing PrefixOp output.  The engine's
        # translator refuses the unanchored w, so Theorem 4's compiler
        # makes the plan.
        db = _binary_db()
        compiled = compile_query(
            _formula("R(x,y) & S(y,z) & last(w, '0')"), STRUCT, db.schema, slack=0
        )
        plan = optimize_for_execution(compiled.plan)
        pipeline = build_pipeline(plan, compiled.columns, STRUCT, "prefix-loop")
        rows, _ = pipeline.run(db, compiled.params)
        assert rows == AlgebraExecutor(STRUCT, db, params=compiled.params).run(plan)[0]
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
    """Every plan the algebra engine runs compiles; only a query outside
    RA(M) is refused, by a compile error."""

    def test_downop_shapes_fuse(self):
        # S_len's gamma-bound needs DownOp, whose expansion is exponential
        # in string length: a nested loop over alphabet.strings_up_to.
        db = random_database(BINARY, {"R": 1, "S": 1}, 10, max_len=3, seed=3)
        pipeline = _agree(S_LEN_PADDED, db, S_len(BINARY))
        assert "_strings_up_to(" in pipeline.source

    def test_forced_downop_plan_runs_through_the_closure(self):
        db = random_database(BINARY, {"R": 1, "S": 1}, 10, max_len=3, seed=3)
        query = Query(S_LEN_PADDED, structure="S_len")
        plan = query.plan(db, engine="algebra")
        assert any(
            type(node).__name__ == "DownOp"
            for node in compile_for_execution(
                plan.formula, plan.structure, db.schema, plan.slack
            ).fin.walk()
        )
        runs = METRICS.get("codegen.runs")
        got = query.result(db, engine="algebra").as_set()
        assert METRICS.get("codegen.runs") == runs + 1
        assert got == reference_run(plan, db)
        exact = AutomataEngine(S_len(BINARY), db, slack=plan.slack).run(
            query.formula
        )
        assert got == exact.as_set()

    def test_compile_errors_are_raised(self):
        db = _binary_db()
        # NATURAL over a database-dependent scope: neither Theorem 4's
        # compiler nor the RANF translation takes it.
        natural = _formula("exists x: (R(x,y) & exists z: (z <<= x & !S(z,y)))")
        with pytest.raises(CompileError):
            get_pipeline(natural, STRUCT, db.schema)
        assert METRICS.get("codegen.compiles") == 0


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
        assert "codegen_cache" not in stats
        assert {"size", "maxsize", "hits", "misses"} <= stats["caches"][
            "codegen.cache"
        ].keys()


class TestNodeHash:
    """A plan node's field hash is computed once, and stays out of
    pickles: string hashes differ between processes, and shard workers
    unpickle plans."""

    QUERY = "R(x) & exists prefix y: (S(y) & y <<= x)"

    def _plans(self):
        return compile_for_execution(
            _formula(self.QUERY), STRUCT, Schema({"R": 1, "S": 1}), slack=1
        )

    def test_a_pickle_round_trip_recomputes_the_hash(self):
        plan = self._plans().fin
        digest = hash(plan)
        assert "_hash" in plan.__dict__
        clone = pickle.loads(pickle.dumps(plan))
        assert all("_hash" not in node.__dict__ for node in clone.nodes())
        assert hash(clone) == digest and clone == plan
        assert clone.__dict__["_hash"] == digest

    def test_a_build_hashes_each_node_once(self, monkeypatch):
        computed = []
        for cls in vars(plan_module).values():
            if isinstance(cls, type) and "_field_hash" in vars(cls):
                def counted(node, _inner=cls._field_hash):
                    computed.append(node)
                    return _inner(node)
                monkeypatch.setattr(cls, "_field_hash", counted)
        plans = self._plans()
        # Fresh node objects, none carrying a stored hash.
        fin, inf = pickle.loads(pickle.dumps((plans.fin, plans.inf)))
        roots = [root for root in (fin, inf) if root is not None]
        distinct = {id(node) for root in roots for node in root.nodes()}

        def build():
            computed.clear()
            build_pipeline(fin, plans.compiled.columns, STRUCT, "0" * 40,
                           inf=inf)
            return len(computed)

        assert 0 < build() <= len(distinct)
        assert build() == 0


class TestExplain:
    def test_explain_shows_fused_pipeline(self):
        db = _binary_db()
        query = Query("R(x,y) & S(y,z)", structure="S")
        assert prewarm(query.formula, query.structure, db.schema)
        report = query.explain(db)
        assert report.plan.engine == "algebra"
        assert "strategy" not in report.plan.to_dict()
        assert "algebra (auto)" in report.render()
        tree = report.to_dict()["tree"]
        assert tree["kind"] == "CodegenPipeline"
        assert tree["annotations"]["source_lines"] > 0
        assert tree["annotations"]["closure"] in ("warm", "compiled")
        assert tree["children"], "per-stage children missing"
        assert all("rows" in c["annotations"] for c in tree["children"])
        assert "codegen[" in report.render()

    def test_explain_fallback_is_annotated(self, monkeypatch):
        # The pair's runtime bound check trips (doctored: the finite half
        # doubles as the inf half): the answer comes from automata, and
        # EXPLAIN shows the inf half's stages and the fallback.
        _doctor_inf_half(monkeypatch)
        db = random_database(BINARY, {"R": 1}, 12, max_len=3, seed=3)
        query = Query("eq(x, y) & R(y)", structure="S")
        bailouts = METRICS.get("algebra.ranf.infinite_bailouts")
        report = query.explain(db, engine="algebra", slack=1)
        assert METRICS.get("algebra.ranf.infinite_bailouts") == bailouts + 1
        tree = report.to_dict()["tree"]
        assert tree["kind"] == "RanfPipeline"
        assert tree["annotations"]["infinite"] is True
        assert tree["annotations"]["fallback"] == "automata"
        assert [c["annotations"]["half"] for c in tree["children"]] == ["inf"]
        assert "infinite=True" in report.render()
        exact = AutomataEngine(STRUCT, db, slack=1).run(query.formula)
        got = query.result(db, engine="algebra", slack=1)
        assert got.as_set() == exact.as_set()

    def test_cached_result_explain(self):
        db = _binary_db()
        query = Query("R(x,y) & S(y,z)", structure="S")
        plan = query.plan(db, engine="algebra")
        assert explain_plan(plan, db).root.kind == "CodegenPipeline"
        second = explain_plan(plan, db)
        assert second.root.cache_hit


def _doctor_inf_half(monkeypatch):
    """Make every execution plan carry a nonempty ``inf`` half.

    A sound gamma certificate means the runtime infinite check never
    fires organically, so the bail-out path is driven by doctoring the
    plans: the finite half doubles as the ``inf`` half."""
    optimize_mod = importlib.import_module("repro.algebra.optimize")
    real = optimize_mod.compile_for_execution

    def doctored(formula, structure, schema, slack=1):
        plans = real(formula, structure, schema, slack=slack)
        return plans._replace(inf=plans.fin)

    reset_caches()
    monkeypatch.setattr(optimize_mod, "compile_for_execution", doctored)
    monkeypatch.setattr(codegen, "compile_for_execution", doctored)


class TestPlannerIntegration:
    QUERY = "R(x,y) & S(y,x)"

    def test_warm_closure_flips_the_argmin(self):
        db = random_database(BINARY, {"R": 2, "S": 2}, 100, max_len=4, seed=11)
        query = Query(self.QUERY, structure="S")
        cold = query.plan(db)
        assert cold.engine == "direct", cold.costs
        assert prewarm(
            query.formula, query.structure, db.schema, slack=0
        )
        warm = query.plan(db)
        assert warm.engine == "algebra", warm.costs
        # The flip is exactly the setup cost falling away.
        assert warm.costs["algebra"] < cold.costs["algebra"]
        assert METRICS.get("codegen.prewarms") == 1

    def test_prewarm_refuses_ineligible_shapes(self):
        db = _binary_db()
        # NATURAL over a database-dependent scope: even the RANF
        # translation bails (a db-free scope would now prewarm fine).
        natural = parse_formula("exists x: (R(x,y) & exists z: (z <<= x & !S(z,y)))")
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

        def run(db):
            return execute_plan(query.plan(db, engine="algebra"), db).as_set()

        run(vdb.head.database)
        assert METRICS.get("codegen.compiles") == 1
        head = vdb.insert("S", {"11", "0"})
        got = run(head.database)
        # The delta touches S, so the new version re-runs the closure.
        assert METRICS.get("codegen.runs") == 2
        fresh = Database(
            BINARY,
            {"R": {("0",), ("01",)}, "S": {("1",), ("11",), ("0",)}},
            schema=Schema({"R": 1, "S": 1}),
        )
        # Same schema => same closure key: no recompilation, just a run.
        assert got == run(fresh) == {("0",), ("01",), ("1",), ("11",)}
        assert METRICS.get("codegen.compiles") == 1
        assert METRICS.get("codegen.runs") == 3

    def test_untouched_relation_promotes_the_result(self):
        base = Database(
            BINARY,
            {"R": {("0",), ("01",)}, "S": {("1",)}},
            schema=Schema({"R": 1, "S": 1}),
        )
        vdb = VersionedDatabase(base)
        query = Query("R(x)")

        def run(db):
            return execute_plan(query.plan(db, engine="algebra"), db).as_set()

        first = run(vdb.head.database)
        runs = METRICS.get("codegen.runs")
        assert runs == 1
        head = vdb.insert("S", {"111"})  # delta misses the query's relation
        again = run(head.database)
        assert again == first
        # Promotion re-keyed the old result: no new pipeline execution.
        assert METRICS.get("codegen.runs") == runs

    def test_forced_and_auto_reads_rerun_the_closure(self):
        vdb = VersionedDatabase(Database(
            BINARY,
            {"W0": {("0",), ("01",), ("110",)}, "R": {("01",)}},
            schema=Schema({"W0": 1, "R": 1}),
        ))
        query = Query("W0(x) & !R(x)", structure="S")
        forced = query.plan(vdb.head.database, engine="algebra")
        execute_plan(forced, vdb.head.database)
        head = vdb.insert("W0", {"1001"}).database
        got = execute_plan(query.plan(head, engine="algebra"), head).as_set()
        assert METRICS.get("codegen.runs") == 2
        assert got == reference_run(query.plan(head, engine="algebra"), head)
        assert got == {("0",), ("110",), ("1001",)}
        # An auto plan answers the next version the same way.
        assert prewarm(query.formula, query.structure, head.schema)
        auto = query.plan(head)
        assert auto.engine == "algebra", auto.costs
        execute_plan(auto, head)
        head = vdb.insert("W0", {"0011"}).database
        assert execute_plan(auto, head).as_set() == got | {("0011",)}
        assert METRICS.get("codegen.runs") == 4


    def test_an_infinite_answer_is_not_maintained(self, monkeypatch):
        # The pair's check trips (doctored) on a store version, and the
        # next version runs the check again instead of reusing a finite
        # half that is not the answer.
        _doctor_inf_half(monkeypatch)
        vdb = VersionedDatabase(Database(
            BINARY, {"R": {("01",), ("110",)}}, schema=Schema({"R": 1}),
        ))
        query = Query("eq(x, y) & R(y)", structure="S")
        execute_plan(query.plan(vdb.head.database, engine="algebra", slack=1),
                     vdb.head.database)
        head = vdb.insert("R", {"0"}).database
        got = execute_plan(query.plan(head, engine="algebra", slack=1), head)
        assert METRICS.get("algebra.ranf.infinite_bailouts") == 2
        exact = AutomataEngine(STRUCT, head, slack=1).run(query.formula)
        assert got.as_set() == exact.as_set()


class TestStrategy:
    """How the algebra engine runs a plan: always through its closure,
    priced cold until the closure is cached."""

    def test_strategy_choice(self):
        db = random_database(BINARY, {"R": 2, "S": 2}, 100, max_len=4, seed=11)
        query = Query("R(x,y) & S(y,z) & last(x, '0')", structure="S")
        cold = query.plan(db)
        assert cold.engine == "algebra"
        assert "strategy" not in cold.to_dict()
        # Forced algebra runs the same closure.
        report = query.explain(db, engine="algebra")
        assert report.root.kind == "CodegenPipeline"
        assert METRICS.get("codegen.runs") == 1
        # Warm: the setup cost falls away; the run is the same closure.
        assert prewarm(query.formula, query.structure, db.schema)
        global_cache().reset()
        report = query.explain(db)
        assert report.plan.costs["algebra"] < cold.costs["algebra"]
        assert report.root.kind == "CodegenPipeline"
        assert report.root.annotations["closure"] == "warm"
        assert METRICS.get("codegen.runs") == 2

    def test_large_cold_join_runs_fused(self):
        # Enough rows that the row work outweighs the compile.
        db = random_database(BINARY, {"R": 2, "S": 2}, 2000, max_len=8, seed=4)
        plan = Query("R(x,y) & S(y,z)", structure="S").plan(db)
        assert not has_pipeline(plan.formula, plan.structure, db.schema)
        assert plan.engine == "algebra", plan.costs

    def test_gamma_bounded_output_runs_its_pair_in_the_closure(self):
        # x is not anchored: the closure runs the pair's inf half first.
        db = random_database(BINARY, {"R": 1, "S": 1}, 30, max_len=4, seed=3)
        query = Query("eq(x, y) & R(y)", structure="S")
        plan = query.plan(db)
        assert plan.engine == "algebra", plan.costs
        checks = METRICS.get("algebra.ranf.inf_checks")
        report = query.explain(db)
        assert METRICS.get("algebra.ranf.inf_checks") == checks + 1
        tree = report.to_dict()["tree"]
        assert tree["kind"] == "RanfPipeline"
        assert [c["annotations"]["half"] for c in tree["children"]] == [
            "inf", "fin",
        ]
        exact = AutomataEngine(STRUCT, db, slack=plan.slack).run(query.formula)
        assert query.result(db).as_set() == exact.as_set()
