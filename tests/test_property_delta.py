"""Property tests: delta evolution is answer-invariant.

Hypothesis generates random insert/delete sequences against a versioned
database and asserts that the evolved head answers every query exactly
like a from-scratch database built from the final state — across the
in-process engines and the sharded backend.  Queries also run *mid*
chain, so the incremental paths (result promotion, shard delta
forwarding) actually engage instead of every example starting cold.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import Query, StringDatabase
from repro.database.instance import Database
from repro.database.schema import Schema
from repro.delta import VersionedDatabase, lineage
from repro.service import QueryService, RunRequest
from repro.engine.cache import BoundedCache, reset_caches
from repro.engine.explain import execute_plan
from repro.engine.metrics import METRICS
from repro.engine.planner import Planner
from repro.eval.automata_engine import AutomataEngine
from repro.strings import BINARY
from tests._reference_algebra import checked_rows

QUERIES = [
    "R(x)",
    "R(x) | S(x)",
    "R(x) & S(x)",
    "R(x) & last(x, '0')",
    "R(x) & forall prefix y: (!(y <<= x) | !last(y, '1'))",
]

#: Algebra (interpreted and fused) only compiles the ADOM-only shapes.
ALGEBRA_OK = {"R(x)", "R(x) | S(x)", "R(x) & S(x)"}

strings = st.text(alphabet="01", min_size=0, max_size=6)
relation = st.frozensets(strings, max_size=8)
#: A delta: which side, which relation, which rows.
step = st.tuples(
    st.sampled_from(["insert", "delete"]),
    st.sampled_from(["R", "S"]),
    st.frozensets(strings, min_size=1, max_size=4),
)

_names = itertools.count()


def _evolve(vdb, model, ops):
    """Apply ``ops`` to both the versioned db and the plain-set model."""
    for op, rel, rows in ops:
        if op == "insert":
            vdb.insert(rel, rows)
            model[rel] |= rows
        else:
            vdb.delete(rel, rows)
            model[rel] -= rows


@given(r=relation, s=relation, ops=st.lists(step, max_size=5))
@settings(max_examples=20, deadline=None)
def test_evolved_equals_fresh_in_process(r, s, ops):
    vdb = VersionedDatabase(
        Database(
            BINARY,
            {"R": {(x,) for x in r}, "S": {(x,) for x in s}},
            schema=Schema({"R": 1, "S": 1}),
        )
    )
    model = {"R": set(r), "S": set(s)}
    probe = Query("R(x) & last(x, '0')")
    for op, rel, rows in ops:
        _evolve(vdb, model, [(op, rel, rows)])
        # Mid-chain query: warms the caches so later versions take the
        # promotion / maintenance paths rather than running cold.
        probe.result(vdb.head.database, engine="direct").as_set()
    fresh = Database(
        BINARY,
        {name: {(x,) for x in rows} for name, rows in model.items()},
        schema=Schema({"R": 1, "S": 1}),
    )
    evolved = vdb.head.database
    for text in QUERIES:
        query = Query(text)
        engines = ["direct", "automata"]
        if text in ALGEBRA_OK:
            engines.append("algebra")
        for engine in engines:
            got = query.result(evolved, engine=engine).as_set()
            want = query.result(fresh, engine=engine).as_set()
            assert got == want, (
                f"{text} via {engine}: evolved != fresh after {len(ops)} "
                f"deltas (|R|={len(model['R'])}, |S|={len(model['S'])})"
            )
        if text in ALGEBRA_OK:
            # Closure answers after deltas must match a fresh build too,
            # and the reference interpreter on the same plans: closures
            # are schema-keyed and row-only deltas reuse them, promotion
            # re-keys results whose relations no delta touched, and
            # anything else is a full compiled re-run.
            want = checked_rows(query, fresh)
            assert checked_rows(query, evolved) == want, text
            # A cache of its own, or the algebra column's result answers.
            got = execute_plan(
                query.plan(evolved, engine="algebra"), evolved,
                cache=BoundedCache(),
            ).as_set()
            assert got == want, f"{text} algebra: evolved != fresh"


@given(
    r=relation,
    s=relation,
    ops=st.lists(step, max_size=8),
    keep=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=60, deadline=None)
def test_seeded_statistics_equal_fresh(r, s, ops, keep):
    # Every planning statistic of a store-made snapshot — the prefix
    # closure size derived from the delta, the memoized lengths — must
    # equal what a from-scratch database computes, on every version.
    vdb = VersionedDatabase(
        Database(BINARY, {"R": {(x,) for x in r}, "S": {(x,) for x in s}}),
        keep_versions=keep,
    )
    model = {"R": set(r), "S": set(s)}
    for op, rel, rows in ops:
        _evolve(vdb, model, [(op, rel, rows)])
        evolved = vdb.head.database
        fresh = Database(
            BINARY, {name: {(x,) for x in rows} for name, rows in model.items()}
        )
        assert evolved.adom == fresh.adom
        if vdb.head.version:  # seeded by the store, not recounted
            assert evolved._prefix_closure_size == len(
                fresh.adom_prefix_closure()
            )
        assert evolved.max_string_length == fresh.max_string_length
        assert evolved.total_string_length() == fresh.total_string_length()
        assert next(lineage(evolved)) is vdb.head


def test_join_maintained_over_long_chain():
    # A deterministic long chain on forced algebra: every version's
    # answer is one closure run, exact at every intermediate version.
    vdb = VersionedDatabase(
        Database(
            BINARY,
            {
                "R": {(f"{i:03b}",) for i in range(6)},
                "S": {(f"{i:04b}",) for i in range(6)},
            },
        )
    )
    model = {"R": {f"{i:03b}" for i in range(6)}, "S": {f"{i:04b}" for i in range(6)}}
    query = Query("R(x) & S(y) & x <<= y")
    query.result(vdb.head.database, engine="algebra")
    ops = [
        ("insert", "S", {"0111", "1111"}),
        ("delete", "R", {"000"}),
        ("insert", "R", {"110", "111"}),
        ("delete", "S", {"0001", "0111"}),
        ("insert", "S", {"0000"}),
    ]
    for op, rel, rows in ops:
        parent = vdb.head
        _evolve(vdb, model, [(op, rel, rows)])
        fresh = Database(
            BINARY, {name: {(x,) for x in rows} for name, rows in model.items()}
        )
        runs = METRICS.get("codegen.runs")
        evolved = query.result(vdb.head.database, engine="algebra").as_set()
        # A new version re-runs the closure; a no-op step (the last
        # inserts a row S holds) made none and answers from the cache.
        new_version = vdb.head is not parent
        assert METRICS.get("codegen.runs") == runs + new_version
        assert evolved == query.result(fresh, engine="algebra").as_set()


#: The plan-cache differential's shapes: the in-process ones plus two
#: whose engine choice moves with the statistics.
PLANNED = QUERIES + [
    "R(x) & exists adom y: (S(y) & y <<= x)",
    "R(x) & S(y) & x <<= y",
]


@given(r=relation, s=relation, ops=st.lists(step, min_size=1, max_size=6))
@settings(max_examples=20, deadline=None)
def test_cached_plans_answer_like_the_oracle(r, s, ops):
    # Delta chains whose steps stay inside the plan cache's drift window
    # or cross it, through Query.result and the service alike: every
    # answer is the automata oracle's, and a plan reused on equal
    # statistics is the plan a fresh planner makes.
    reset_caches()
    base = Database(
        BINARY,
        {"R": {(x,) for x in r}, "S": {(x,) for x in s}},
        schema=Schema({"R": 1, "S": 1}),
    )
    vdb = VersionedDatabase(base)
    model = {"R": set(r), "S": set(s)}
    queries = [(text, Query(text)) for text in PLANNED]
    with QueryService(workers=1) as svc:
        svc.register_database("main", base)
        for op in [None, *ops]:
            if op is not None:
                _evolve(vdb, model, [op])
                side, rel, rows = op
                svc.apply_delta("main", **{f"{side}s": {rel: sorted(rows)}})
            db = vdb.head.database
            for text, query in queries:
                want = AutomataEngine(query.structure, db).run(
                    query.formula
                ).as_set()
                assert query.result(db).as_set() == want, text
                served = svc.execute(RunRequest(query=text, database="main"))
                assert {tuple(row) for row in served.rows} == want, text
                plan = query.plan(db)
                if plan.db_stats == plan.origin["current_stats"]:
                    fresh = Planner(query.structure, db).plan(query.formula)
                    assert plan.engine == fresh.engine, text


@pytest.fixture(scope="module", params=["hash", "relation"])
def service(request):
    with QueryService(workers=2, shards=2, shard_scheme=request.param) as svc:
        yield svc


def _rows(service, name, text, engine):
    response = service.execute(
        RunRequest(query=text, database=name, engine=engine)
    )
    assert response.ok, f"{text} via {engine}: {response.error}"
    return response.rows


@given(r=relation, s=relation, ops=st.lists(step, max_size=4))
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_evolved_equals_fresh_sharded(service, r, s, ops):
    name = f"prop{next(_names)}"
    schema = Schema({"R": 1, "S": 1})
    service.register_database(
        name, StringDatabase("01", {"R": r, "S": s}, schema=schema)
    )
    model = {"R": set(r), "S": set(s)}
    probe = "R(x) & last(x, '0')"
    for op, rel, rows in ops:
        if op == "insert":
            service.insert_rows(name, rel, rows)
            model[rel] |= rows
        else:
            service.delete_rows(name, rel, rows)
            model[rel] -= rows
        # Mid-chain sharded query: deltas were forwarded, not re-scattered.
        _rows(service, name, probe, "sharded")
    final = f"{name}-final"
    service.register_database(
        final, StringDatabase("01", dict(model), schema=schema)
    )
    for text in QUERIES:
        evolved = _rows(service, name, text, "sharded")
        assert evolved == _rows(service, final, text, "sharded"), (
            f"{text}: evolved sharded != from-scratch sharded "
            f"(scheme={service.config.shard_scheme})"
        )
        assert evolved == _rows(service, name, text, "direct"), (
            f"{text}: sharded != direct on the evolved head"
        )
    service.unregister_database(name)
    service.unregister_database(final)
