"""Edge-case tests for QueryResult, Table, and output handling."""

import sys

import pytest

from repro import Query, StringDatabase, UnsafeQueryError
from repro.automatic.relation import RelationAutomaton
from repro.core.query import Table
from repro.database import Database
from repro.engine.cache import BoundedCache
from repro.engine.explain import execute_plan
from repro.engine.metrics import METRICS
from repro.engine.planner import Planner
from repro.errors import ArityError
from repro.eval import AutomataEngine
from repro.eval.result import QueryResult
from repro.logic import canonical, parse_formula
from repro.strings import BINARY
from repro.structures import S

DB = StringDatabase("01", {"R": {"0", "01", "11"}})

#: name -> (columns, rows): the row sets a rows result and an automaton
#: result of the same answer must read alike.
ROW_SETS = {
    "empty-unary": (("x",), frozenset()),
    "arity0-true": ((), frozenset({()})),
    "arity0-false": ((), frozenset()),
    "binary-3-rows": (
        ("x", "y"),
        frozenset({("0", "1"), ("", "01"), ("11", "")}),
    ),
}


class TestQueryResult:
    def test_boolean_result(self):
        result = AutomataEngine(S(BINARY), DB.db).run(parse_formula("exists adom x: R(x)"))
        assert result.variables == ()
        assert result.as_bool() is True
        assert result.is_finite()
        assert result.count() == 1  # the empty tuple

    def test_false_boolean_result(self):
        result = AutomataEngine(S(BINARY), DB.db).run(
            parse_formula("exists adom x: R(x) & x = '111'")
        )
        assert result.as_bool() is False
        assert result.count() == 0

    def test_empty_output(self):
        result = AutomataEngine(S(BINARY), DB.db).run(
            parse_formula("R(x) & x = '111'")
        )
        assert result.is_finite()
        assert result.as_set() == frozenset()
        assert list(result.tuples()) == []

    def test_infinite_tuples_requires_limit(self):
        result = AutomataEngine(S(BINARY), DB.db).run(parse_formula("!R(x)"))
        with pytest.raises(UnsafeQueryError):
            list(result.tuples())
        sample = list(result.tuples(limit=7))
        assert len(sample) == 7
        assert len(set(sample)) == 7  # no duplicates in enumeration

    def test_infinite_sample_is_shortest_first(self):
        result = AutomataEngine(S(BINARY), DB.db).run(parse_formula("last(x, '1')"))
        sample = [s for (s,) in result.tuples(limit=5)]
        lengths = [len(s) for s in sample]
        assert lengths == sorted(lengths)

    def test_contains_on_infinite(self):
        result = AutomataEngine(S(BINARY), DB.db).run(parse_formula("!R(x)"))
        assert result.contains(("0000",))
        assert not result.contains(("0",))

    def test_repr(self):
        finite = AutomataEngine(S(BINARY), DB.db).run(parse_formula("R(x)"))
        assert "finite" in repr(finite)
        infinite = AutomataEngine(S(BINARY), DB.db).run(parse_formula("!R(x)"))
        assert "infinite" in repr(infinite)


class TestRowsResult:
    """A restricted engine's answer is its rows; read through
    ``QueryResult`` it must be indistinguishable from the same rows held
    as a relation automaton."""

    @pytest.mark.parametrize(
        "columns, rows", list(ROW_SETS.values()), ids=list(ROW_SETS)
    )
    def test_rows_and_automaton_agree(self, columns, rows):
        by_rows = QueryResult(columns, rows)
        by_automaton = QueryResult(
            columns, RelationAutomaton.from_tuples(BINARY, len(columns), rows)
        )
        assert by_rows.relation is None and by_automaton.rows is None
        assert by_rows.is_finite() == by_automaton.is_finite()
        assert by_rows.count() == by_automaton.count()
        assert by_rows.as_set() == by_automaton.as_set() == rows
        for probe in rows | {("0101",) * len(columns)}:
            assert by_rows.contains(probe) == by_automaton.contains(probe)
        if columns:
            for result in (by_rows, by_automaton):
                with pytest.raises(ArityError):
                    result.as_bool()
        else:
            assert by_rows.as_bool() == by_automaton.as_bool() == bool(rows)
        assert sorted(by_rows.tuples()) == sorted(by_automaton.tuples())
        assert len(list(by_rows.tuples(limit=2))) == len(
            list(by_automaton.tuples(limit=2))
        )

    def test_rows_come_out_sorted(self):
        _, rows = ROW_SETS["binary-3-rows"]
        result = QueryResult(("x", "y"), rows)
        assert list(result.tuples()) == sorted(rows)
        assert list(result.tuples(limit=2)) == sorted(rows)[:2]


class TestWholeResultCache:
    """``execute_plan`` caches whole answers once, for every backend."""

    DB = StringDatabase(
        "01", {"R": {"0110", "001", "11", "0100"}, "S": {"0", "01"}}
    ).db
    TEXT = "R(x) & exists adom y: S(y) & y <<= x & last(x, '0')"

    def _plan(self, engine):
        return Planner(S(BINARY), self.DB).plan(
            parse_formula(self.TEXT), slack=1, force=engine
        )

    def test_forced_direct_is_not_answered_by_an_algebra_entry(self):
        cache = BoundedCache()
        algebra, direct = self._plan("algebra"), self._plan("direct")
        # Same query, database and slack: only the engine tells the two
        # cache keys apart.
        assert algebra.fingerprint == direct.fingerprint
        assert algebra.slack == direct.slack
        expected = execute_plan(algebra, self.DB, cache=cache).as_set()
        before = METRICS.get("direct.candidates")
        assert execute_plan(direct, self.DB, cache=cache).as_set() == expected
        assert METRICS.get("direct.candidates") > before

    @pytest.mark.parametrize("engine", ["direct", "algebra"])
    def test_a_hit_computes_no_canonical_fingerprint(self, engine, monkeypatch):
        plan = self._plan(engine)
        cache = BoundedCache()
        first = execute_plan(plan, self.DB, cache=cache)
        original = canonical.canonical_fingerprint
        calls = []

        def counting(formula):
            calls.append(formula)
            return original(formula)

        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and (
                vars(module).get("canonical_fingerprint") is original
            ):
                monkeypatch.setattr(module, "canonical_fingerprint", counting)
        second = execute_plan(plan, self.DB, cache=cache)
        assert second is first
        assert calls == []


class TestTable:
    def test_rows_sorted(self):
        t = Table(("x",), frozenset({("1",), ("0",), ("01",)}))
        assert t.rows() == [("0",), ("01",), ("1",)]

    def test_len_contains_iter(self):
        t = Table(("x",), frozenset({("0",), ("1",)}))
        assert len(t) == 2
        assert ("0",) in t
        assert ["0", "1"] == [row[0] for row in t]
        assert ("x",) == t.columns

    def test_empty_table(self):
        t = Table(("x", "y"), frozenset())
        assert len(t) == 0
        assert t.rows() == []


class TestQueryEdgeCases:
    def test_sentence_through_run(self):
        q = Query("exists adom x: R(x)")
        table = q.run(DB)
        assert table.columns == ()
        assert len(table) == 1  # true: one empty row

    def test_query_on_empty_database(self):
        db = StringDatabase("01", {"R": set()})
        assert Query("R(x)").run(db).rows() == []
        assert not Query("exists adom x: true").decide(db)

    def test_limit_on_finite_result_is_harmless(self):
        q = Query("R(x)")
        assert len(q.run(DB, limit=100)) == 3

    def test_constants_only_query(self):
        q = Query("x = '010'")
        assert q.run(DB).rows() == [("010",)]
