"""Tests for the engine core: planner, automaton cache, EXPLAIN, CLI.

The acceptance property of the planner is *conservatism*: auto-selection
must never change an answer.  These tests pin the selection rules, the
cache accounting, the EXPLAIN tree shape, and the planner-vs-forced
result equality across the catalog structures.
"""

import json

import pytest

from repro.__main__ import main
from repro.core import Query, StringDatabase
from repro.engine import METRICS, AutomatonCache, global_cache
from repro.engine.cache import database_fingerprint, formula_key
from repro.engine.planner import DIRECT_COST_CEILING, Planner
from repro.logic import parse_formula
from repro.structures.catalog import by_name


ANCHORED_ADOM = "R(x) & exists adom y: S(y) & y <<= x"
NATURAL = "R(x) & exists y: y <<= x"
NATURAL_DB = "R(x) & exists y: (y <<= x & S(y))"
UNANCHORED = "last(x, '0')"


@pytest.fixture
def db():
    return StringDatabase("01", {"R": {"0110", "001", "11"}, "S": {"0", "01"}})


@pytest.fixture(autouse=True)
def _fresh_cache():
    global_cache().reset()
    METRICS.reset()
    yield
    global_cache().reset()


class TestEngineSelection:
    def test_collapsed_restricted_query_goes_direct(self, db):
        plan = Query(ANCHORED_ADOM, structure="S").plan(db)
        assert plan.engine == "direct"
        assert not plan.forced
        assert plan.direct_cost <= plan.automata_cost
        assert "small enumeration domain" in plan.reason

    def test_db_dependent_natural_quantifier_goes_automata(self, db):
        # NATURAL over a scope that reads the database: no restricted
        # engine (nor the RANF translation) can evaluate it.
        plan = Query(NATURAL_DB, structure="S").plan(db)
        assert plan.engine == "automata"
        assert "NATURAL" in plan.reason
        assert plan.direct_cost == float("inf")

    def test_db_free_natural_scope_now_fast_engine(self, db):
        # The old gate sent every NATURAL quantifier to automata; the
        # RANF translation evaluates db-free scopes as per-row
        # conditions, so a fast engine takes it (direct still cannot).
        plan = Query(NATURAL, structure="S").plan(db)
        assert plan.engine == "algebra"
        assert plan.direct_cost == float("inf")
        got = Query(NATURAL, structure="S").result(db).as_set()
        want = Query(NATURAL, structure="S").result(db, engine="automata").as_set()
        assert got == want

    def test_unanchored_output_goes_automata(self, db):
        # x is constrained only by a string predicate; truncating its
        # domain would silently drop answers, so direct is unsound.
        plan = Query(UNANCHORED, structure="S").plan(db)
        assert plan.engine == "automata"
        assert "not anchored" in plan.reason

    def test_empty_adom_goes_automata(self):
        empty = StringDatabase("01", {"R": set()})
        plan = Query("R(x) & exists adom y: y <<= x", structure="S").plan(empty)
        assert plan.engine == "automata"

    def test_huge_length_domain_goes_automata(self):
        # S_len LENGTH domains are exponential in the longest string:
        # one 40-char string puts the direct estimate over the ceiling.
        long_db = StringDatabase("01", {"R": {"01" * 20}, "S": {"0"}})
        q = Query("R(x) & exists len y: S(y) & y <<= x", structure="S_len")
        plan = q.plan(long_db)
        assert plan.engine == "automata"
        assert plan.direct_cost > DIRECT_COST_CEILING

    def test_forced_engine_is_respected(self, db):
        for engine in ("automata", "direct"):
            plan = Query(ANCHORED_ADOM, structure="S").plan(db, engine=engine)
            assert plan.engine == engine
            assert plan.forced

    def test_auto_is_the_default_and_an_alias(self, db):
        q = Query(ANCHORED_ADOM, structure="S")
        assert q.plan(db).engine == q.plan(db, engine="auto").engine

    def test_planner_counters(self, db):
        Query(ANCHORED_ADOM, structure="S").plan(db)
        Query(NATURAL_DB, structure="S").plan(db)
        assert METRICS.get("planner.plans") == 2
        assert METRICS.get("planner.backend.direct.chosen") == 1
        assert METRICS.get("planner.backend.automata.chosen") == 1


class TestCacheAccounting:
    def test_repeat_automata_run_hits_cache(self, db):
        q = Query(NATURAL, structure="S")
        first = q.run(db)
        cold = global_cache().stats()
        assert cold["hits"] == 0 and cold["misses"] > 0
        second = q.run(db)
        warm = global_cache().stats()
        assert warm["hits"] > 0
        assert warm["misses"] == cold["misses"]  # nothing recompiled
        assert first.rows() == second.rows()

    def test_repeat_direct_run_hits_result_cache(self, db):
        q = Query(ANCHORED_ADOM, structure="S")
        assert q.plan(db).engine == "direct"
        first = q.run(db)
        misses = global_cache().stats()["misses"]
        second = q.run(db)
        assert global_cache().stats()["hits"] >= 1
        assert global_cache().stats()["misses"] == misses
        assert first.rows() == second.rows()

    def test_explain_counters_see_the_hit(self, db):
        q = Query(NATURAL, structure="S")
        q.run(db)
        report = q.explain(db)
        assert report.counters.get("cache.hits", 0) > 0

    def test_interning_respects_database_dependence(self, db):
        other = StringDatabase("01", {"R": {"1"}, "S": {"1"}})
        assert database_fingerprint(db.db) != database_fingerprint(other.db)
        # Restricted quantifiers range over adom(D), so they are NOT
        # database-independent even with no relation atom in sight.
        assert parse_formula("exists prefix y: y <<= x").database_dependent()
        assert parse_formula("forall adom v: eq(v, u)").database_dependent()
        # Pure presentation logic (NATURAL quantifiers only) is interned:
        # keyed without a fingerprint, shared across databases.
        f = parse_formula("exists y: y <<= x")
        assert not f.database_dependent()
        assert formula_key(f, "S", ("0", "1"), 0, None) == formula_key(
            f, "S", ("0", "1"), 0, None
        )
        # Fingerprinted keys for different databases differ.
        g = parse_formula("R(x)")
        key_a = formula_key(g, "S", ("0", "1"), 0, database_fingerprint(db.db))
        key_b = formula_key(g, "S", ("0", "1"), 0, database_fingerprint(other.db))
        assert key_a != key_b

    def test_adom_quantifier_not_leaked_across_databases(self):
        # Regression: `forall adom v: eq(v, u)` mentions no relation, but
        # its value ranges over adom(D).  A shared cache must key it per
        # database — interning it served database A's automaton to
        # database B (wrong rows, silently).
        q = Query("R(u) & (forall adom v: eq(v, u))", structure="S")
        db_a = StringDatabase("01", {"R": {"0"}, "S": set()})
        db_b = StringDatabase("01", {"R": {""}, "S": set()})
        assert q.run(db_a, engine="automata").rows() == [("0",)]
        assert q.run(db_b, engine="automata").rows() == [("",)]

    def test_lru_eviction_is_counted(self):
        cache = AutomatonCache(maxsize=2)
        cache.put(("k", 1), "a")
        cache.put(("k", 2), "b")
        cache.put(("k", 3), "c")
        assert len(cache) == 2
        assert cache.stats()["evictions"] == 1
        assert cache.get(("k", 1)) is None  # oldest entry gone

    def test_resize_shrinks(self):
        cache = AutomatonCache(maxsize=8)
        for i in range(8):
            cache.put(("k", i), i)
        cache.resize(3)
        assert len(cache) == 3
        assert cache.get(("k", 7)) == 7  # most recent survives


class TestExplain:
    def test_tree_shape_direct(self, db):
        report = Query(ANCHORED_ADOM, structure="S").explain(db)
        assert report.plan.engine == "direct"
        root = report.root
        assert root.label == "and"
        kids = [c.label for c in root.children]
        assert "R(x)" in kids
        assert any(c.label.startswith("exists adom") for c in root.children)
        assert root.seconds >= 0
        assert report.tuple_count == 2
        assert report.finite

    def test_tree_shape_automata(self, db):
        report = Query(NATURAL_DB, structure="S").explain(db)
        assert report.plan.engine == "automata"
        # Automata trees annotate nodes with automaton sizes.
        assert report.root.states is not None
        assert report.root.states > 0
        assert report.root.children  # compiled subformulas appear

    def test_to_dict_is_json_serializable(self, db):
        for query in (ANCHORED_ADOM, NATURAL_DB):
            payload = Query(query, structure="S").explain(db).to_dict()
            decoded = json.loads(json.dumps(payload))
            assert decoded["plan"]["engine"] in ("direct", "automata")
            assert "counters" in decoded and "cache" in decoded

    def test_render_mentions_engine_and_cache(self, db):
        text = Query(ANCHORED_ADOM, structure="S").explain(db).render()
        assert "engine: direct (auto)" in text
        assert "cache:" in text
        assert "counters" in text

    def test_plan_render_annotates_domains(self, db):
        text = Query(ANCHORED_ADOM, structure="S").plan(db).render()
        assert "domain=" in text
        assert "tuples=" in text


class TestPlannerAgreesWithForcedEngines:
    QUERIES = {
        "S": ANCHORED_ADOM,
        "S_left": "R(x) & exists adom y: S(y) & y <<= x",
        "S_reg": "R(x) & exists prefix y: S(y) & y <<= x",
        "S_len": "R(x) & exists adom y: S(y) & el(y, y)",
    }

    @pytest.mark.parametrize("structure", sorted(QUERIES))
    def test_equality_on_catalog_structures(self, structure, db):
        q = Query(self.QUERIES[structure], structure=structure)
        auto = q.run(db).rows()
        forced_automata = q.run(db, engine="automata").rows()
        forced_direct = q.run(db, engine="direct").rows()
        assert auto == forced_automata == forced_direct

    def test_planner_object_directly(self, db):
        structure = by_name("S", db.alphabet)
        plan = Planner(structure, db.db).plan(parse_formula(ANCHORED_ADOM))
        assert plan.engine == "direct"
        assert set(plan.quantifier_kinds) == {"adom"}
        assert plan.anchored_free


class TestCliDatabaseErrors:
    def test_missing_db_file_is_a_clean_error(self, tmp_path, capsys):
        rc = main(["run", "R(x)", "--db", str(tmp_path / "nope.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "cannot read database file" in err
        assert "Traceback" not in err

    def test_malformed_json_is_a_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["run", "R(x)", "--db", str(bad)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "not valid JSON" in err
        assert "Traceback" not in err

    def test_non_object_spec_is_a_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]")
        rc = main(["run", "R(x)", "--db", str(bad)])
        assert rc == 1
        assert "must hold a JSON object" in capsys.readouterr().err

    def test_bad_relation_rows_is_a_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"alphabet": "01", "relations": {"R": 7}}')
        rc = main(["run", "R(x)", "--db", str(bad)])
        assert rc == 1
        assert "must be a list of rows" in capsys.readouterr().err

    def test_unknown_relation_is_a_clean_error(self, tmp_path, capsys):
        good = tmp_path / "db.json"
        good.write_text('{"alphabet": "01", "relations": {"R": [["0"]]}}')
        rc = main(["run", "T(x) & R(x)", "--db", str(good)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "relation(s) T" in err
        assert "has: R" in err

    def test_explain_cli_runs(self, tmp_path, capsys):
        good = tmp_path / "db.json"
        good.write_text(
            '{"alphabet": "01", "relations": {"R": [["0110"], ["001"], ["11"]],'
            ' "S": [["0"], ["01"]]}}'
        )
        rc = main(["explain", ANCHORED_ADOM, "--db", str(good)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "engine: direct (auto)" in out
        rc = main(["explain", ANCHORED_ADOM, "--db", str(good), "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["plan"]["engine"] == "direct"
