"""Unit tests for the MVCC delta store and cache promotion.

Covers the store's snapshot semantics (pinning, effective deltas,
pruning, schema extension, error cases), the chained-fingerprint memo,
and the promotion layer's cache survival guarantees — whole-result and
automata/subformula promotion, algebra re-runs where a delta touches
what a query reads, and the delta service verbs.
"""

import pytest

from repro.core.query import Query, StringDatabase
from repro.database.instance import Database
from repro.delta import (
    Delta,
    DeltaError,
    VersionedDatabase,
    chained_fingerprint,
    evolve_database,
    lineage,
)
from repro.engine.cache import database_fingerprint, global_cache
from repro.engine.metrics import METRICS
from repro.errors import ArityError
from repro.service import QueryService, RunRequest
from repro.service.protocol import Dispatcher
from repro.service.server import respond
from repro.strings import BINARY


def make_db(r=("01", "0110"), s=("0",)):
    return Database(BINARY, {"R": {(x,) for x in r}, "S": {(x,) for x in s}})


# ----------------------------------------------------------------- the store


class TestVersionedDatabase:
    def test_insert_creates_new_pinned_snapshot(self):
        vdb = VersionedDatabase(make_db())
        v0 = vdb.head
        v1 = vdb.insert("R", ["111"])
        assert v1.version == 1
        assert v0.database.relation("R") == {("01",), ("0110",)}
        assert v1.database.relation("R") == {("01",), ("0110",), ("111",)}
        # Untouched relations share the parent's frozenset object.
        assert v1.database.relation("S") is v0.database.relation("S")

    def test_delete_and_effective_normalization(self):
        vdb = VersionedDatabase(make_db())
        v1 = vdb.delete("R", ["01", "111111"])  # second row is absent
        assert dict(v1.delta.deletes)["R"] == {("01",)}  # absent rows dropped
        v2 = vdb.insert("R", ["0110"])  # already present: effective no-op
        assert v2 is v1
        assert vdb.head.version == 1

    def test_noop_counts_metric_not_version(self):
        vdb = VersionedDatabase(make_db())
        before = METRICS.get("delta.noops")
        vdb.delete("S", ["11111"])  # not present
        assert METRICS.get("delta.noops") == before + 1
        assert vdb.head.version == 0

    def test_combined_apply_is_atomic(self):
        vdb = VersionedDatabase(make_db())
        head = vdb.apply(inserts={"R": ["111"]}, deletes={"S": ["0"]})
        assert head.version == 1
        assert head.database.relation("S") == frozenset()
        assert ("111",) in head.database.relation("R")

    def test_same_relation_in_both_sides_rejected(self):
        vdb = VersionedDatabase(make_db())
        with pytest.raises(DeltaError, match="both inserts and deletes"):
            vdb.apply(inserts={"R": ["111"]}, deletes={"R": ["01"]})

    def test_delete_unknown_relation_rejected(self):
        vdb = VersionedDatabase(make_db())
        with pytest.raises(DeltaError, match="unknown relation"):
            vdb.delete("T", ["0"])

    def test_insert_unknown_relation_extends_schema(self):
        vdb = VersionedDatabase(make_db())
        head = vdb.insert("T", [("0", "1")])
        assert head.schema_changed
        assert head.database.schema.arity("T") == 2
        assert head.plan_epoch == vdb.version(0).plan_epoch + 1

    def test_arity_mismatch_rejected(self):
        vdb = VersionedDatabase(make_db())
        with pytest.raises(ArityError):
            vdb.insert("R", [("0", "1")])
        with pytest.raises(ArityError):
            vdb.insert("T", [("0", "1"), ("0",)])

    def test_adom_maintained_by_refcounts(self):
        vdb = VersionedDatabase(make_db(r=("01",), s=("01",)))
        # "01" occurs in R and S: deleting one occurrence keeps it active.
        v1 = vdb.delete("R", ["01"])
        assert not v1.adom_changed
        assert "01" in v1.database.adom
        v2 = vdb.delete("S", ["01"])
        assert v2.adom_changed
        assert v2.database.adom == frozenset()

    def test_plan_epoch_tracks_adom_and_schema_only(self):
        vdb = VersionedDatabase(make_db(r=("01",), s=("01", "0")))
        v1 = vdb.insert("R", ["0"])  # "0" already active via S
        assert not v1.adom_changed and v1.plan_epoch == 0
        v2 = vdb.insert("R", ["111"])  # new active string
        assert v2.adom_changed and v2.plan_epoch == 1

    def test_version_pruning(self):
        vdb = VersionedDatabase(make_db(), keep_versions=2)
        pinned = vdb.head
        for i in range(4):
            vdb.insert("R", [f"1{'0' * i}1"])
        with pytest.raises(DeltaError, match="unknown or pruned"):
            vdb.version(0)
        assert vdb.head.version == 4
        # Pinned references keep answering regardless of pruning.
        assert pinned.database.relation("R") == {("01",), ("0110",)}

    def test_versions_summary_shape(self):
        vdb = VersionedDatabase(make_db())
        vdb.insert("R", ["111"])
        summaries = vdb.versions()
        assert [v["version"] for v in summaries] == [0, 1]
        assert summaries[1]["delta_size"] == 1
        assert summaries[1]["fingerprint"] == vdb.head.fingerprint


class TestFingerprints:
    def test_chained_fingerprint_differs_from_content(self):
        vdb = VersionedDatabase(make_db())
        head = vdb.insert("R", ["111"])
        fresh = make_db(r=("01", "0110", "111"))
        assert head.database.relation("R") == fresh.relation("R")
        # Same content, different history: conservative cache miss.
        assert database_fingerprint(head.database) != database_fingerprint(fresh)
        assert head.fingerprint == chained_fingerprint(
            vdb.version(0).fingerprint, head.delta.digest()
        )

    def test_fingerprint_memoized_per_instance(self):
        db = make_db()
        first = database_fingerprint(db)
        before = METRICS.get("cache.fingerprint_memo_hits")
        assert database_fingerprint(db) == first
        assert METRICS.get("cache.fingerprint_memo_hits") == before + 1

    def test_delta_digest_order_invariant(self):
        a = Delta(
            inserts=(("R", frozenset({("0",), ("1",)})),),
            deletes=(("S", frozenset({("00",)})),),
        )
        b = Delta(
            inserts=(("R", frozenset({("1",), ("0",)})),),
            deletes=(("S", frozenset({("00",)})),),
        )
        assert a.digest() == b.digest()

    def test_evolve_database_shares_untouched_relations(self):
        db = make_db()
        out = evolve_database(db, {"R": frozenset({("111",)})}, {})
        assert out.relation("S") is db.relation("S")
        assert out.relation("R") == db.relation("R") | {("111",)}
        assert out.adom == db.adom | {"111"}


# ----------------------------------------------------------- cache survival


class TestIncrementalMaintenance:
    def test_algebra_result_maintained_across_delta(self):
        vdb = VersionedDatabase(
            Database(
                BINARY,
                {
                    "R": {(f"{i:04b}",) for i in range(12)},
                    "S": {(f"{i:05b}",) for i in range(12)},
                },
            )
        )
        query = Query("R(x) & S(y) & x <<= y")
        baseline = query.result(vdb.head.database, engine="algebra").as_set()
        assert baseline is not None
        before = METRICS.get("codegen.runs")
        head = vdb.insert("S", ["01010", "11111"])
        incremental = query.result(head.database, engine="algebra").as_set()
        # The delta touches S, so the new version re-runs the closure.
        assert METRICS.get("codegen.runs") == before + 1
        fresh = Database(
            BINARY,
            {
                "R": {(f"{i:04b}",) for i in range(12)},
                "S": {(f"{i:05b}",) for i in range(12)}
                | {("01010",), ("11111",)},
            },
        )
        assert incremental == query.result(fresh, engine="algebra").as_set()

    def test_untouched_formula_result_promoted(self):
        vdb = VersionedDatabase(make_db())
        query = Query("R(x) & last(x, '0')")
        first = query.result(vdb.head.database, engine="direct").as_set()
        before = METRICS.get("delta.result_promotions")
        head = vdb.insert("S", ["0110"])  # adom unchanged, R untouched
        promoted = query.result(head.database, engine="direct").as_set()
        assert promoted == first
        assert METRICS.get("delta.result_promotions") == before + 1

    def test_automata_cache_survives_deltas(self):
        cache = global_cache()
        vdb = VersionedDatabase(make_db())
        query = Query("exists adom x: R(x) & last(x, '0')")
        query.result(vdb.head.database, engine="automata")
        before = METRICS.get("delta.automata_promotions")
        head = vdb.insert("S", ["01"])  # R untouched, adom unchanged
        out = query.result(head.database, engine="automata").as_set()
        assert METRICS.get("delta.automata_promotions") > before
        fresh = make_db(s=("0", "01"))
        assert out == query.result(fresh, engine="automata").as_set()

    def test_adom_sensitive_formula_not_promoted_on_adom_change(self):
        vdb = VersionedDatabase(make_db())
        query = Query("exists adom x: R(x) & last(x, '0')")
        query.result(vdb.head.database, engine="automata")
        head = vdb.insert("S", ["111111"])  # R untouched but adom grew
        fresh = make_db(s=("0", "111111"))
        assert (
            query.result(head.database, engine="automata").as_set()
            == query.result(fresh, engine="automata").as_set()
        )

    def test_version_walk_records_chain(self):
        vdb = VersionedDatabase(make_db())
        v1 = vdb.insert("R", ["111"])
        v2 = vdb.delete("S", ["0"])
        walk = list(lineage(v2.database))
        assert [v.version for v in walk] == [2, 1, 0]
        assert walk[0] is v2 and walk[1] is v1
        assert walk[1].fingerprint == v1.fingerprint
        assert walk[2].fingerprint == vdb.version(0).fingerprint
        # A database no store made has no history.
        assert list(lineage(make_db())) == []

    def test_two_stores_over_equal_content_promote_independently(self):
        base = dict(r=("0010", "1000", "110"), s=("1",))
        a = VersionedDatabase(make_db(**base))
        b = VersionedDatabase(make_db(**base))
        query = Query("R(x) & last(x, '0')")
        first = query.result(a.head.database, engine="direct").as_set()
        head_a = a.insert("S", ["0010"])
        b.insert("S", ["1000"])
        head_b = b.delete("S", ["1"])
        assert ("0010",) not in head_b.database.relation("S")
        assert [v.version for v in lineage(head_a.database)] == [1, 0]
        assert [v.version for v in lineage(head_b.database)] == [2, 1, 0]
        before = METRICS.get("delta.result_promotions")
        assert query.result(head_a.database, engine="direct").as_set() == first
        assert METRICS.get("delta.result_promotions") == before + 1
        assert query.result(head_b.database, engine="direct").as_set() == first
        assert METRICS.get("delta.result_promotions") == before + 2

    def test_pruned_ancestors_answer_by_full_run(self):
        r, s = ("0100", "10", "0"), ("1",)
        vdb = VersionedDatabase(make_db(r=r, s=s), keep_versions=2)
        query = Query("R(x) & S(y) & x <<= y")
        query.result(vdb.head.database, engine="algebra")
        inserted = ["1001", "01001", "100", "0111"]
        for row in inserted:
            head = vdb.insert("S", [row])
        assert [v.version for v in lineage(head.database)] == [4, 3]
        runs = METRICS.get("codegen.runs")
        out = query.result(head.database, engine="algebra").as_set()
        assert METRICS.get("codegen.runs") == runs + 1
        fresh = make_db(r=r, s=s + tuple(inserted))
        assert out == query.result(fresh, engine="direct").as_set()

    def test_peek_does_not_distort_cache_stats(self):
        cache = global_cache()
        cache.put(("probe-key",), ("value",))
        stats = cache.stats()
        assert cache.peek(("probe-key",)) == ("value",)
        assert cache.peek(("missing-key",)) is None
        after = cache.stats()
        assert after["hits"] == stats["hits"]
        assert after["misses"] == stats["misses"]


# ------------------------------------------------------------- service layer


class TestServiceDeltas:
    @pytest.fixture()
    def service(self):
        svc = QueryService(workers=2)
        svc.register_database(
            "main", StringDatabase("01", {"R": {"01", "0110"}, "S": {"0"}})
        )
        yield svc
        svc.close()

    def test_insert_delete_roundtrip(self, service):
        d = Dispatcher(service)
        resp, _ = d.handle(
            {"op": "insert", "db": "main", "relation": "R", "rows": [["110"]]}
        )
        assert resp["ok"] and resp["version"] == 1
        (run,) = respond(
            d, {"op": "run", "query": "R(x) & last(x, '0')", "db": "main"}
        ).frames
        assert sorted(run["rows"]) == [["0110"], ["110"]]
        resp, _ = d.handle(
            {"op": "delete", "db": "main", "relation": "R", "rows": ["0110"]}
        )
        assert resp["ok"] and resp["version"] == 2
        (run,) = respond(
            d, {"op": "run", "query": "R(x) & last(x, '0')", "db": "main"}
        ).frames
        assert run["rows"] == [["110"]]

    def test_db_versions_and_stats(self, service):
        d = Dispatcher(service)
        d.handle({"op": "insert", "db": "main", "relation": "S", "rows": ["10"]})
        resp, _ = d.handle({"op": "db_versions", "name": "main"})
        assert [v["version"] for v in resp["versions"]] == [0, 1]
        stats = service.stats()
        assert stats["versions"]["main"]["head"] == 1
        assert stats["versions"]["main"]["retained"] == 2

    def test_unregister_db(self, service):
        d = Dispatcher(service)
        resp, _ = d.handle({"op": "unregister_db", "name": "main"})
        assert resp["ok"] and resp["removed"]
        resp, _ = d.handle({"op": "unregister_db", "name": "main"})
        assert resp["ok"] and not resp["removed"]
        (run,) = respond(d, {"op": "run", "query": "R(x)", "db": "main"}).frames
        assert not run["ok"] and run["error"]["code"] == "invalid"

    def test_plan_reused_across_adom_stable_delta(self, service):
        d = Dispatcher(service)
        query = "R(x) & last(x, '0')"
        # The run after the first delta caches the plan under the epoch key.
        d.handle({"op": "insert", "db": "main", "relation": "S", "rows": ["01"]})
        respond(d, {"op": "run", "query": query, "db": "main"})
        # "0110" is already active (it is in R): adom and schema unchanged,
        # so the prepared plan survives the delta without re-planning.
        d.handle(
            {"op": "insert", "db": "main", "relation": "S", "rows": ["0110"]}
        )
        before = METRICS.get("delta.replans_avoided")
        respond(d, {"op": "run", "query": query, "db": "main"})
        assert METRICS.get("delta.replans_avoided") == before + 1

    def test_first_delta_reruns_the_closure(self, service):
        # A forced-algebra answer on the first version a delta made is
        # computed by one run of the compiled closure, like any other.
        request = RunRequest(
            query="R(x) & S(y) & x <<= y", database="main", engine="algebra"
        )
        assert service.execute(request).rows == []
        runs = METRICS.get("codegen.runs")
        service.insert_rows("main", "S", ["011", "0110"])
        resp = service.execute(request)
        assert METRICS.get("codegen.runs") == runs + 1
        fresh = make_db(s=("0", "011", "0110"))
        assert resp.rows == sorted(
            list(t) for t in Query("R(x) & S(y) & x <<= y")
            .result(fresh, engine="algebra").as_set()
        )

    def test_never_mutated_versions_summary(self, service):
        fingerprint = service.register_database(
            "fresh", StringDatabase("01", {"R": {"01", "0110"}, "S": {"0"}})
        )
        assert service.database_versions("fresh") == [{
            "version": 0,
            "fingerprint": fingerprint,
            "tuples": 3,
            "adom_size": 3,
            "plan_epoch": 0,
            "delta_size": 0,
        }]
        assert fingerprint == database_fingerprint(make_db())
        assert service.stats()["versions"]["fresh"] == {
            "head": 0, "retained": 1, "plan_epoch": 0,
        }

    def test_pinned_snapshot_unaffected_by_delta(self, service):
        entry_db = service._entry("main").database
        service.insert_rows("main", "R", ["111"])
        # The pre-delta snapshot still answers identically (MVCC reads).
        assert entry_db.relation("R") == {("01",), ("0110",)}
        assert service._entry("main").database.relation("R") == {
            ("01",), ("0110",), ("111",)
        }
