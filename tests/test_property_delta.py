"""Property tests: delta evolution is answer-invariant.

Hypothesis generates random insert/delete sequences against a versioned
database and asserts that the evolved head answers every query exactly
like a from-scratch database built from the final state — across the
in-process engines and the sharded backend.  Queries also run *mid*
chain, so the incremental paths (result promotion, ΔQ algebra
maintenance, shard delta forwarding) actually engage instead of every
example starting cold.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import Query, StringDatabase
from repro.database.instance import Database
from repro.database.schema import Schema
from repro.delta import VersionedDatabase
from repro.service import QueryService, RunRequest
from repro.engine.cache import AutomatonCache
from repro.engine.explain import execute_plan
from repro.strings import BINARY
from tests._fused import fused_plan, fused_rows

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
            # Fused answers after deltas must match a fresh build too:
            # closures are schema-keyed and row-only deltas reuse them,
            # promotion re-keys results whose relations no delta touched,
            # and anything else is a full compiled re-run.
            want = fused_rows(query, fresh)
            assert fused_rows(query, evolved) == want, text
            # A cache of its own, or the algebra column's result answers.
            got = execute_plan(
                fused_plan(query, evolved), evolved, cache=AutomatonCache()
            ).as_set()
            assert got == want, f"{text} fused: evolved != fresh"


def test_join_maintained_over_long_chain():
    # A deterministic long chain through the ΔQ algebra path: the join
    # must stay exact across every intermediate version.
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
        _evolve(vdb, model, [(op, rel, rows)])
        fresh = Database(
            BINARY, {name: {(x,) for x in rows} for name, rows in model.items()}
        )
        assert (
            query.result(vdb.head.database, engine="algebra").as_set()
            == query.result(fresh, engine="algebra").as_set()
        )


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
