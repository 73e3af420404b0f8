"""Tests for the engine-backend registry: one dispatch path, extensible.

The acceptance property of the tentpole refactor: registering a backend is
*all* it takes for the planner's auto-selection, ``engine=`` forcing on
every API layer, EXPLAIN, and the CLI to see it — and unknown engine
names fail with a registry-sourced error everywhere.
"""

import io
import json

import pytest

from repro.__main__ import main
from repro.automatic.relation import RelationAutomaton
from repro.core import Query, StringDatabase
from repro.engine import METRICS, global_cache
from repro.engine.backend import (
    EngineBackend,
    all_backends,
    backend_names,
    get_backend,
    register_backend,
    resolve_engine,
    unregister_backend,
)
from repro.engine.planner import Planner
from repro.errors import EvaluationError
from repro.eval.result import QueryResult
from repro.logic import parse_formula
from repro.service import QueryService, serve_stdio
from repro.structures.catalog import by_name


ANCHORED = "R(x) & exists adom y: S(y) & y <<= x"


@pytest.fixture
def db():
    return StringDatabase("01", {"R": {"0110", "001", "11"}, "S": {"0", "01"}})


@pytest.fixture(autouse=True)
def _fresh():
    global_cache().reset()
    METRICS.reset()
    yield
    global_cache().reset()


class ToyBackend(EngineBackend):
    """A trivially-cheap backend that answers every query with one row."""

    name = "toy"
    priority = -1  # ahead of direct on ties

    def __init__(self):
        self.eligibility_checks = 0
        self.executions = 0

    def eligible(self, formula, structure, database):
        self.eligibility_checks += 1
        return True, "toy backends fear nothing"

    def estimate_cost(self, formula, structure, database, slack, planner):
        return 0.5  # cheaper than anything real

    def execute(self, plan, database, cache, observer=None):
        self.executions += 1
        columns = tuple(sorted(plan.formula.free_variables()))
        relation = RelationAutomaton.from_tuples(
            plan.structure.alphabet, len(columns), {("0",) * len(columns)}
        )
        return QueryResult(columns, relation)


@pytest.fixture
def toy():
    backend = register_backend(ToyBackend())
    yield backend
    unregister_backend("toy")


class TestRegistry:
    def test_builtins_are_registered(self):
        assert backend_names() == ("algebra", "automata", "direct")
        assert [b.name for b in all_backends()] == [
            "direct", "algebra", "automata",  # priority order
        ]

    def test_get_backend_unknown_lists_names(self):
        with pytest.raises(EvaluationError) as exc:
            get_backend("nosuch")
        msg = str(exc.value)
        assert "nosuch" in msg
        for name in backend_names():
            assert name in msg

    def test_duplicate_registration_rejected(self, toy):
        with pytest.raises(EvaluationError, match="already registered"):
            register_backend(ToyBackend())
        # replace=True swaps it.
        replacement = ToyBackend()
        assert register_backend(replacement, replace=True) is replacement

    def test_reserved_names_rejected(self):
        class Bad(ToyBackend):
            name = "auto"

        with pytest.raises(EvaluationError, match="reserved"):
            register_backend(Bad())

    def test_resolve_engine_normalization(self):
        assert resolve_engine(None) is None
        assert resolve_engine("auto") is None
        assert resolve_engine("direct") == "direct"
        with pytest.raises(EvaluationError, match="registered backends"):
            resolve_engine("nosuch")


class TestPlannerConsidersRegisteredBackends:
    def test_toy_backend_wins_auto_selection(self, db, toy):
        plan = Query(ANCHORED, structure="S").plan(db)
        assert toy.eligibility_checks > 0          # the planner consulted it
        assert plan.engine == "toy"                # ...and picked it (cheapest)
        assert "toy" in plan.costs
        assert METRICS.get("planner.backend.toy.chosen") == 1

    def test_toy_backend_executes_through_every_layer(self, db, toy):
        table = Query(ANCHORED, structure="S").run(db)
        assert toy.executions == 1
        assert table.rows() == [("0",)]
        assert METRICS.get("engine.toy.runs") == 1

    def test_forcing_toy_by_name(self, db, toy):
        plan = Query(ANCHORED, structure="S").plan(db, engine="toy")
        assert plan.engine == "toy" and plan.forced
        assert METRICS.get("planner.backend.toy.forced") == 1

    def test_without_toy_builtin_choice_unchanged(self, db):
        plan = Query(ANCHORED, structure="S").plan(db)
        assert plan.engine == "direct"

    def test_ineligible_backends_are_counted(self, db):
        # NATURAL over a database-dependent scope: direct cannot
        # enumerate it and the RANF translation bails, so algebra is
        # counted out too (a db-free NATURAL scope would now pass — the
        # RANF translation widened that regime).
        Planner(by_name("S", db.alphabet), db.db).plan(
            parse_formula("exists x: (R(x) & exists y: (y <<= x & S(y)))")
        )
        assert METRICS.get("planner.backend.direct.ineligible") == 1
        assert METRICS.get("planner.backend.algebra.ineligible") == 1

    def test_db_free_natural_scope_now_algebra_eligible(self, db):
        # The formula the old syntactic gate rejected outright.
        plan = Planner(by_name("S", db.alphabet), db.db).plan(
            parse_formula("R(x) & exists y: y <<= x")  # NATURAL, db-free scope
        )
        assert METRICS.get("planner.backend.direct.ineligible") == 1
        assert METRICS.get("planner.backend.algebra.ineligible") == 0
        assert "direct" in plan.ineligible
        assert "algebra" not in plan.ineligible


class TestUnknownEngineEverywhere:
    def test_query_plan_force_unknown(self, db):
        with pytest.raises(EvaluationError) as exc:
            Query(ANCHORED, structure="S").plan(db, engine="nosuch")
        assert "registered backends" in str(exc.value)
        assert "direct" in str(exc.value)

    def test_query_run_unknown(self, db):
        with pytest.raises(EvaluationError, match="registered backends"):
            Query(ANCHORED, structure="S").run(db, engine="nosuch")

    def test_cli_unknown_engine_clean_exit(self, tmp_path, capsys):
        good = tmp_path / "db.json"
        good.write_text('{"alphabet": "01", "relations": {"R": [["0"]]}}')
        rc = main(["run", "R(x)", "--db", str(good), "--engine", "nosuch"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "unknown engine" in err
        assert "direct" in err and "automata" in err and "algebra" in err
        assert "Traceback" not in err


    def test_codegen_is_not_an_engine_on_any_layer(self, db, tmp_path, capsys):
        # The fused pipeline is a strategy of the algebra engine, not an
        # engine of its own: library, CLI and NDJSON all reject the name.
        with pytest.raises(EvaluationError, match="unknown engine 'codegen'"):
            Query(ANCHORED, structure="S").run(db, engine="codegen")
        good = tmp_path / "db.json"
        good.write_text('{"alphabet": "01", "relations": {"R": [["0"]]}}')
        assert main(["run", "R(x)", "--db", str(good), "--engine", "codegen"]) == 1
        assert "unknown engine 'codegen'" in capsys.readouterr().err
        lines = [
            {"op": "register_db", "id": 0, "name": "main",
             "db": {"alphabet": "01", "relations": {"R": [["0"]]}}},
            {"op": "run", "id": 1, "query": "R(x)", "db": "main",
             "engine": "codegen"},
        ]
        stdin = io.StringIO("".join(json.dumps(line) + "\n" for line in lines))
        stdout = io.StringIO()
        assert serve_stdio(QueryService(workers=1), stdin, stdout) == 0
        reply = json.loads(stdout.getvalue().splitlines()[-1])
        assert reply["id"] == 1 and not reply["ok"]
        assert "unknown engine 'codegen'" in reply["error"]["message"]


class TestDecideThroughPlanner:
    def test_decide_goes_through_planner(self, db):
        sentence = Query("exists adom y: R(y)", structure="S")
        assert sentence.decide(db) is True
        # Historically decide() built the automata engine directly and no
        # planner counters moved; now it plans like any other evaluation.
        assert METRICS.get("planner.plans") == 1

    def test_decide_respects_forced_engine(self, db):
        sentence = Query("exists adom y: R(y)", structure="S")
        assert sentence.decide(db, engine="automata") is True
        assert METRICS.get("planner.backend.automata.forced") == 1

    def test_decide_rejects_free_variables(self, db):
        with pytest.raises(EvaluationError, match="sentence"):
            Query("R(x)", structure="S").decide(db)
