"""Tests for multi-process sharded scatter-gather execution.

The acceptance properties (ISSUE 6): the ``sharded`` backend is a
registered :class:`EngineBackend` whose merged answers equal
single-process execution on every distributable plan (empty and skewed
partitions included); non-distributing plans fall back rather than
merge wrongly; EXPLAIN shows the shard decomposition in text and JSON;
and a failed or unknown shard surfaces as a structured *retryable*
error — never as a silent partial result.
"""

import json
import time
from concurrent.futures import Future

import pytest

from repro.core import Query, StringDatabase
from repro.database.schema import Schema
from repro.engine import reset_caches
from repro.engine.backend import backend_names
from repro.engine.metrics import METRICS
from repro.engine.planner import plan_query
from repro.errors import ShardError
from repro.algebra.distribute import analyze
from repro.shard import (
    ShardCoordinator,
    partition_database,
    route_for,
    shard_database,
    shard_of_relation,
    shard_of_row,
)
from repro.shard.pool import gather_all

GUARDED = "R(x) & forall prefix y: (!(y <<= x) | !last(y, '1'))"

DB = StringDatabase(
    "01",
    {
        "R": {"0110", "001", "11", "010", "000", "100", "0"},
        "S": {"0", "01"},
        "T": {("0", "01"), ("11", "1")},
    },
)


@pytest.fixture(autouse=True)
def _fresh_cache():
    reset_caches()
    yield
    reset_caches()


@pytest.fixture(scope="module")
def coordinator():
    with ShardCoordinator(shards=2) as coord:
        coord.register_database("main", DB)
        yield coord


@pytest.fixture
def main(coordinator):
    """The snapshot of ``DB`` placed on the pool: the one that routes."""
    return coordinator.get("main").database


def _single(query, engine="direct"):
    return sorted(Query(query).result(DB, engine=engine).as_set())


def _sharded(query, database):
    return sorted(Query(query).result(database, engine="sharded").as_set())


# -------------------------------------------------------------- partitioner


class TestPartitioner:
    def test_hash_partitions_union_back(self):
        parts = partition_database(DB.db, 3)
        for name in DB.db.relation_names:
            merged = frozenset().union(*(p.relation(name) for p in parts))
            assert merged == DB.db.relation(name)
            # Disjoint: total tuples preserved.
            assert sum(len(p.relation(name)) for p in parts) == len(
                DB.db.relation(name)
            )

    def test_partitioning_is_deterministic(self):
        a = partition_database(DB.db, 4)
        b = partition_database(DB.db, 4)
        for pa, pb in zip(a, b):
            for name in DB.db.relation_names:
                assert pa.relation(name) == pb.relation(name)
        assert all(
            shard_of_row(row, 4) == shard_of_row(tuple(row), 4)
            for row in DB.db.relation("T")
        )

    def test_every_partition_keeps_the_full_schema(self):
        parts = partition_database(DB.db, 8)  # more shards than tuples
        for part in parts:
            assert set(part.relation_names) == set(DB.db.relation_names)
            assert part.schema.arity("T") == 2  # empty on most shards

    def test_relation_scheme_keeps_relations_whole(self):
        parts = partition_database(DB.db, 3, scheme="relation")
        for name in DB.db.relation_names:
            owner = shard_of_relation(name, 3)
            for i, part in enumerate(parts):
                expected = DB.db.relation(name) if i == owner else frozenset()
                assert part.relation(name) == expected

    def test_shard_database_fingerprints(self):
        sharded = shard_database("main", DB, 2)
        assert sharded.shards == 2
        assert len(sharded.part_fingerprints) == 2
        assert sum(sharded.part_sizes()) == DB.db.size

    def test_bad_arguments_raise(self):
        with pytest.raises(ShardError):
            partition_database(DB.db, 0)
        with pytest.raises(ShardError):
            partition_database(DB.db, 2, scheme="roundrobin")
        with pytest.raises(ShardError):
            ShardCoordinator(shards=2, scheme="nope")


# ------------------------------------------------------------ distributivity


class TestDistributivityAnalysis:
    def _analyze(self, query, **kwargs):
        q = Query(query)
        return analyze(q.formula, q.structure, DB.db, slack=1, **kwargs)

    def test_guarded_selection_scatters(self):
        d = self._analyze(GUARDED)
        assert d.mode == "scatter" and d.certificate == "guarded-formula"

    def test_plain_scan_and_union_scatter(self):
        assert self._analyze("R(x)").mode == "scatter"
        d = self._analyze("R(x) | S(x)")
        assert d.mode == "scatter" and d.certificate == "plan-shape"

    def test_join_does_not_distribute(self):
        d = self._analyze("R(x) & S(x)")
        assert d.mode == "single" and not d.distributes

    def test_join_routes_when_relations_colocated(self):
        d = self._analyze("R(x) & S(x)", relation_shards={"R": 1, "S": 1})
        assert d.mode == "route" and d.shard == 1
        d = self._analyze("R(x) & S(x)", relation_shards={"R": 0, "S": 1})
        assert d.mode == "single"

    def test_adom_quantifier_does_not_scatter(self):
        # `exists adom y` ranges over the *global* active domain; a shard
        # only sees its own strings, so scattering would change answers.
        d = self._analyze("R(x) & exists adom y: (y <<= x)")
        assert d.mode == "single"

    def test_database_free_sentence_routes_to_one_worker(self):
        # No relations, no restricted quantifiers: every shard computes
        # the identical answer, so one worker suffices.
        d = self._analyze("'01' <<= '010'")
        assert d.mode == "route" and d.shard == 0

    def test_relation_free_restricted_sentence_does_not_route(self):
        # Relation-free but *not* database-free: the PREFIX domain
        # derives from adom(D), and a partition's active domain is a
        # strict subset — a lone shard could answer differently.
        d = self._analyze("exists prefix y: last(y, '1')")
        assert d.mode == "single" and not d.distributes


# --------------------------------------------------------------- end-to-end


class TestScatterGather:
    @pytest.mark.parametrize(
        "query",
        [GUARDED, "R(x)", "R(x) | S(x)", "T(x, y)", "R(x) & last(x, '0')"],
    )
    def test_sharded_equals_single_process(self, main, query):
        assert _sharded(query, main) == _single(query)

    def test_fallback_answers_join_correctly(self, main):
        # No certificate: runs on a full copy, never a wrong merge.
        assert _sharded("R(x) & S(x)", main) == _single("R(x) & S(x)")
        assert METRICS.snapshot().get("shard.fallbacks", 0) >= 1

    def test_empty_and_skewed_partitions(self):
        tiny = StringDatabase("01", {"R": {"0110"}})
        with ShardCoordinator(shards=3) as coord:
            sharded = coord.register_database("tiny", tiny)
            assert sorted(sharded.part_sizes()).count(0) >= 2  # skew
            rows = Query("R(x)").result(
                sharded.database, engine="sharded"
            ).as_set()
            assert rows == {("0110",)}

    def test_empty_relation_keeps_arity_on_every_shard(self):
        # Binary T empty on some shards: without the register_db schema
        # field it would re-infer arity 1 and break T(x, y) there.
        db = StringDatabase(
            "01",
            {"R": {"0"}, "T": {("0", "01")}},
            schema=Schema({"R": 1, "T": 2}),
        )
        with ShardCoordinator(shards=2) as coord:
            placed = coord.register_database("arity", db).database
            rows = Query("T(x, y)").result(placed, engine="sharded").as_set()
            assert rows == {("0", "01")}

    def test_planner_costs_include_sharded(self, main):
        q = Query(GUARDED)
        plan = plan_query(q.formula, q.structure, main)
        assert "sharded" in plan.costs
        assert plan.costs["sharded"] != float("inf")
        assert "sharded" in backend_names()

    def test_relation_free_restricted_sentence_uses_full_adom(self):
        # Place every witness string (ending in '1') on shard 1 so that
        # worker 0's partition has none: routing the sentence to a lone
        # partition would answer False where the database answers True.
        zeros = [s for s in ("0", "00", "000", "0000") if shard_of_row((s,), 2) == 0]
        ones = [s for s in ("1", "01", "11", "011") if shard_of_row((s,), 2) == 1]
        assert zeros and ones  # SHA-1 placement is deterministic
        db = StringDatabase("01", {"R": set(zeros) | set(ones)})
        query = "exists prefix y: last(y, '1')"
        with ShardCoordinator(shards=2) as coord:
            placed = coord.register_database("witness", db).database
            sharded = Query(query).result(placed, engine="sharded").as_set()
        assert sharded == Query(query).result(db, engine="direct").as_set()

    def test_reregistering_a_name_withdraws_the_old_route(self):
        old = StringDatabase("01", {"R": {"0"}})
        new = StringDatabase("01", {"R": {"1"}})
        with ShardCoordinator(shards=2) as coord:
            old_placed = coord.register_database("swap", old).database
            assert route_for(old_placed) is not None
            new_placed = coord.register_database("swap", new).database
            # The old snapshot's route is gone: it falls back to the
            # in-process engines (correct answers) instead of scattering
            # against the replacement partitions.
            assert route_for(old_placed) is None
            assert route_for(new_placed) is not None
            assert Query("R(x)").result(old_placed).as_set() == {("0",)}
            assert (
                Query("R(x)").result(new_placed, engine="sharded").as_set()
                == {("1",)}
            )

    def test_reregistering_keeps_routes_shared_with_other_names(self):
        shared = StringDatabase("01", {"R": {"0"}})
        other = StringDatabase("01", {"R": {"1"}})
        with ShardCoordinator(shards=2) as coord:
            a = coord.register_database("a", shared).database
            b = coord.register_database("b", shared).database  # new name
            coord.register_database("a", other)
            # "b" still serves the shared content: its route survives.
            assert route_for(b) is not None
            assert route_for(a) is None

    def test_at_sign_in_database_name_is_rejected(self):
        # "@" is reserved for the coordinator's worker-side names — a
        # user database "x@full" would collide with x's fallback copy.
        with ShardCoordinator(shards=1) as coord:
            with pytest.raises(ShardError):
                coord.register_database("x@full", DB)

    def test_equal_content_built_separately_does_not_route(self, main):
        # Only the placed snapshot routes: the plain database handed to
        # register_database and an equal one built separately do not.
        assert route_for(main) is not None
        assert route_for(DB.db) is None
        twin = StringDatabase("01", {
            name: DB.db.relation(name) for name in DB.db.relation_names
        })
        assert route_for(twin.db) is None
        q = Query(GUARDED)
        plan = plan_query(q.formula, q.structure, twin.db)
        assert plan.ineligible["sharded"] == (
            "database is not placed on a shard coordinator"
        )


class TestExplain:
    def test_text_explain_shows_decomposition(self, main):
        report = Query(GUARDED).explain(main, engine="sharded")
        text = report.render()
        assert "gather[union-dedup]" in text
        assert "mode=scatter" in text
        assert "certificate=guarded-formula" in text
        assert "shard[0]" in text and "shard[1]" in text

    def test_json_explain_shows_decomposition(self, main):
        report = Query("R(x)").explain(main, engine="sharded")
        payload = json.loads(json.dumps(report.to_dict()))
        tree = payload["tree"]
        assert tree["kind"] == "shard-gather"
        assert tree["annotations"]["mode"] == "scatter"
        kinds = {child["kind"] for child in tree["children"]}
        assert kinds == {"shard-run"}


class TestFailureHandling:
    def test_killed_worker_is_restarted_and_retried(self):
        with ShardCoordinator(shards=2) as coord:
            placed = coord.register_database("main", DB).database
            victim = coord.pool.worker(1)
            victim.process.kill()
            victim.process.wait()
            before = METRICS.snapshot().get("shard.retries", 0)
            rows = Query("R(x)").result(placed, engine="sharded").as_set()
            assert rows == DB.db.relation("R")
            assert METRICS.snapshot().get("shard.retries", 0) > before
            assert coord.pool.worker(1).alive

    def test_closed_coordinator_raises_structured_error(self):
        coord = ShardCoordinator(shards=1)
        sharded = coord.register_database("main", DB)
        q = Query("R(x)")
        plan = plan_query(
            q.formula, q.structure, sharded.database, force="sharded"
        )
        coord.close()
        with pytest.raises(ShardError):
            coord.execute(sharded, plan)
        # Closing withdrew the route: the snapshot runs in process again.
        assert route_for(sharded.database) is None
        assert Query("R(x)").result(sharded.database).as_set() == (
            DB.db.relation("R")
        )

    def test_forcing_sharded_on_an_unplaced_database_raises(self):
        with pytest.raises(ShardError, match="not placed"):
            Query("R(x)").result(DB, engine="sharded")

    def test_gather_shares_one_budget_and_maps_stragglers(self):
        # One answered future and one that never completes: the gather
        # waits one budget in all (not one per pending future), and the
        # straggler's slot is a retryable ShardError, not an exception.
        answered = Future()
        answered.set_result({"ok": True, "rows": []})
        futures = {0: answered, 1: Future(), 2: Future()}
        budget = 0.3
        t0 = time.monotonic()
        out = gather_all(futures, budget)
        elapsed = time.monotonic() - t0
        assert budget * 0.9 <= elapsed < budget * 1.8
        assert out[0] == {"ok": True, "rows": []}
        for slot in (1, 2):
            assert isinstance(out[slot], ShardError)
            assert out[slot].retryable is True
            assert "straggler" in str(out[slot])

    def test_gather_maps_a_failed_future_to_its_error(self):
        failed = Future()
        failed.set_exception(ShardError("shard 0 died", retryable=True))
        out = gather_all({0: failed}, 5.0)
        assert out[0] is failed.exception()

    def test_shard_error_classifies_with_retryable_bit(self):
        from repro.service import classify_error

        soft = classify_error(ShardError("worker died", retryable=True))
        assert (soft.code, soft.retryable) == ("shard", True)
        hard = classify_error(ShardError("bad scheme", retryable=False))
        assert (hard.code, hard.retryable) == ("shard", False)


# ------------------------------------------------------------------ service


class TestServiceIntegration:
    def test_sharded_service_answers_and_reports_stats(self):
        from repro.service import QueryService, RunRequest

        with QueryService(workers=2, shards=2) as svc:
            svc.register_database("main", DB)
            response = svc.execute(
                RunRequest(query="R(x)", database="main", engine="sharded")
            )
            assert response.ok and response.engine == "sharded"
            assert response.rows == sorted(
                list(t) for t in DB.db.relation("R")
            )
            stats = svc.stats()
            assert stats["sharding"]["shards"] == 2
            assert stats["sharding"]["alive"] == [True, True]
            assert "main" in stats["sharding"]["databases"]

    @pytest.mark.parametrize("scheme", ["hash", "relation"])
    def test_superseded_version_never_answers_from_newer_partitions(
        self, scheme
    ):
        from repro.service import QueryService

        with QueryService(workers=1, shards=2, shard_scheme=scheme) as svc:
            svc.register_database("main", DB)
            pinned = svc.insert_rows("main", "R", ["1010"]).database
            svc.insert_rows("main", "R", ["0010"])
            q = Query("R(x)")
            plan = q.plan(pinned)
            assert plan.engine != "sharded"
            assert "not placed" in plan.ineligible["sharded"]
            rows = q.result(pinned).as_set()
            assert rows == pinned.relation("R")
            assert ("1010",) in rows and ("0010",) not in rows
            with pytest.raises(ShardError, match="not placed"):
                q.result(pinned, engine="sharded")

    def test_protocol_register_db_schema_field(self):
        from repro.service import Dispatcher, QueryService
        from repro.service.server import respond

        with QueryService(workers=1) as svc:
            dispatcher = Dispatcher(svc)
            response, _ = dispatcher.handle({
                "op": "register_db",
                "id": 1,
                "name": "main",
                "db": {
                    "alphabet": "01",
                    "relations": {"R": [["0"]], "T": []},
                    "schema": {"R": 1, "T": 2},
                },
            })
            assert response["ok"], response
            run = respond(
                dispatcher,
                {"op": "run", "id": 2, "query": "T(x, y)", "db": "main"},
            ).frames[0]
            assert run["ok"] and run["rows"] == []

    def test_protocol_rejects_bad_schema(self):
        from repro.service import Dispatcher, QueryService

        with QueryService(workers=1) as svc:
            dispatcher = Dispatcher(svc)
            response, _ = dispatcher.handle({
                "op": "register_db",
                "id": 1,
                "name": "main",
                "db": {"relations": {}, "schema": {"R": "one"}},
            })
            assert not response["ok"]
            assert response["error"]["code"] == "invalid"
