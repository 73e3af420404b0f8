"""Property tests: sharded execution is answer-invariant.

Hypothesis generates random databases — including empty relations,
single-row databases (so most shards are empty), and skewed contents —
and asserts that scatter-gather execution over a live worker pool
returns exactly the rows of single-process execution, for every engine
that can run the query in-process (direct and automata always; algebra
on its ADOM-only shapes).

One worker pool per partitioning scheme is shared across all examples
(process spawns are the expensive part); each example registers its
database under a fresh name, so worker-side caches never leak answers
between examples.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import Query, StringDatabase
from repro.database.schema import Schema
from repro.engine import reset_caches
from repro.shard import ShardCoordinator

#: Queries with a distributivity certificate (scatter) plus one join
#: (falls back to a full copy) — the property must hold for both paths.
QUERIES = [
    "R(x)",
    "R(x) | S(x)",
    "R(x) & last(x, '0')",
    "R(x) & forall prefix y: (!(y <<= x) | !last(y, '1'))",
    "R(x) & S(x)",
]

#: Engines the answer is checked against.  Algebra only compiles the
#: ADOM-only shapes, so restricted-quantifier queries skip it.
ALGEBRA_OK = {"R(x)", "R(x) | S(x)", "R(x) & S(x)"}

strings = st.text(alphabet="01", min_size=0, max_size=6)
relation = st.frozensets(strings, max_size=8)

_names = itertools.count()


@pytest.fixture(scope="module", params=["hash", "relation"])
def coordinator(request):
    reset_caches()
    with ShardCoordinator(shards=3, scheme=request.param) as coord:
        yield coord
    reset_caches()


@given(r=relation, s=relation)
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_sharded_equals_every_engine(coordinator, r, s):
    db = StringDatabase("01", {"R": r, "S": s}, schema=Schema({"R": 1, "S": 1}))
    placed = coordinator.register_database(f"prop{next(_names)}", db).database
    for text in QUERIES:
        query = Query(text)
        sharded = query.result(placed, engine="sharded").as_set()
        engines = ["direct", "automata"]
        if text in ALGEBRA_OK:
            engines.append("algebra")
        for engine in engines:
            assert sharded == query.result(db, engine=engine).as_set(), (
                f"{text} via sharded != {engine} "
                f"(scheme={coordinator.scheme}, |R|={len(r)}, |S|={len(s)})"
            )


@given(row=strings)
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_single_row_database_leaves_most_shards_empty(coordinator, row):
    """Maximal skew: every shard but one holds nothing, answers still match."""
    db = StringDatabase("01", {"R": {row}, "S": set()},
                        schema=Schema({"R": 1, "S": 1}))
    name = f"skew{next(_names)}"
    sharded = coordinator.register_database(name, db)
    if coordinator.scheme == "hash":
        assert sorted(sharded.part_sizes()).count(0) >= 2
    for text in ("R(x)", "R(x) | S(x)", "S(x)"):
        query = Query(text)
        assert (
            query.result(sharded.database, engine="sharded").as_set()
            == query.result(db, engine="automata").as_set()
        )
