"""The plan cache: a template's plan is reused until what it was costed
on changes, and each replan says why (``planner.replans.<reason>``)."""

import importlib.util
import pathlib
import random
import sys
import threading
from types import SimpleNamespace

import pytest

from repro.algebra.codegen import get_pipeline, prewarm
from repro.core import Query, StringDatabase
from repro.database.instance import Database
from repro.delta import VersionedDatabase
from repro.engine import METRICS, reset_caches
from repro.engine.plan_cache import PLAN_DRIFT, drifted, plan_cache
from repro.engine.planner import Planner
from repro.errors import EvaluationError
from repro.eval.automata_engine import AutomataEngine
from repro.shard.partition import shard_database
from repro.strings import BINARY

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))
import bench_delta  # noqa: E402

# The read_write workload's shapes and database, from the service
# benchmark's own generator, loaded without leaving bytecode beside it.
_spec = importlib.util.spec_from_file_location(
    "perfbench_workload", ROOT / "perfbench" / "workload.py"
)
workload = importlib.util.module_from_spec(_spec)
_dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
try:
    _spec.loader.exec_module(workload)
finally:
    sys.dont_write_bytecode = _dont_write

JOIN = "R(x) & S(x)"
ADOM = "R(x) & exists adom y: (S(y) & y <<= x)"


@pytest.fixture(autouse=True)
def _fresh():
    reset_caches()
    METRICS.reset()
    yield
    reset_caches()


def _db(r, s=("0", "01"), **more) -> Database:
    return StringDatabase("01", {"R": set(r), "S": set(s), **more}).db


#: Two databases with equal planning statistics and different contents.
A = _db({"0110", "001", "11"})
B = _db({"1001", "110", "00"}, {"1", "10"})


def _oracle(q: Query, db: Database) -> set:
    return AutomataEngine(q.structure, db).run(q.formula).as_set()


def _origin(q: Query, db: Database) -> tuple:
    origin = q.plan(db).origin
    return origin["outcome"], origin["reason"]


def test_drift_window_boundary():
    assert PLAN_DRIFT == 2
    assert not drifted((4, 0), (8, 2))
    assert drifted((4,), (9,))
    assert drifted((9,), (4,))
    assert drifted((0,), (3,))


def test_equal_statistics_plan_once():
    q = Query(ADOM)
    assert q.result(A).as_set() == _oracle(q, A)
    assert METRICS.get("planner.plans") == 1
    assert q.result(B).as_set() == _oracle(q, B)
    assert METRICS.get("planner.plans") == 1
    assert METRICS.get("delta.replans_avoided") == 1
    # Another query of the same template (other constants) reuses it too.
    assert Query(JOIN).plan(A).origin["outcome"] == "planned"
    assert _origin(Query(JOIN), B) == ("reused", None)
    assert METRICS.get("planner.replans.miss") == 2


def test_size_past_the_window_replans_with_drift():
    q = Query(ADOM)
    q.plan(A)
    # Same longest string, three times the rows and active domain.
    big = _db({"0110", "001", "11", "1111", "0000", "1010", "0101",
               "100", "010"})
    assert _origin(q, big) == ("planned", "drift")
    assert _origin(q, big) == ("reused", None)
    assert q.result(big).as_set() == _oracle(q, big)
    assert METRICS.get("planner.replans.drift") == 1


def test_adom_empty_and_back_replans_with_eligibility():
    q = Query(ADOM)
    vdb = VersionedDatabase(A)
    assert _origin(q, vdb.head.database) == ("planned", "miss")
    vdb.delete("R", A.relation("R"))
    vdb.delete("S", A.relation("S"))
    empty = vdb.head.database
    assert not empty.adom
    assert _origin(q, empty) == ("planned", "eligibility")
    assert q.plan(empty).engine == "automata"
    assert q.result(empty).as_set() == _oracle(q, empty) == set()
    vdb.insert("R", A.relation("R"))
    vdb.insert("S", A.relation("S"))
    back = vdb.head.database
    assert _origin(q, back) == ("planned", "eligibility")
    assert q.result(back).as_set() == _oracle(q, back)
    assert METRICS.get("planner.replans.eligibility") == 2


def test_new_relation_in_the_schema_replans():
    q = Query(ADOM)
    q.plan(A)
    wider = _db({"0110", "001", "11"}, T={"1"})
    assert _origin(q, wider) == ("planned", "eligibility")
    assert q.result(wider).as_set() == _oracle(q, wider)


def test_another_alphabet_is_still_refused():
    q = Query(JOIN)
    q.plan(A)
    wider = StringDatabase("012", {
        "R": A.relation("R"), "S": A.relation("S"),
    }).db
    with pytest.raises(EvaluationError, match="alphabets differ"):
        q.plan(wider)


def test_sharded_route_replans():
    # Placing the very snapshot a plan was made on changes what
    # eligibility reads: one replan, then the plan is reused.
    q = Query(JOIN)
    store = VersionedDatabase(A)
    snapshot = store.head.database
    assert _origin(q, snapshot) == ("planned", "miss")
    assert _origin(q, snapshot) == ("reused", None)
    sharded = shard_database("a", snapshot, 2)
    coordinator = SimpleNamespace(scheme="hash", get=lambda name: sharded)
    store.placement = (coordinator, sharded)
    assert _origin(q, snapshot) == ("planned", "eligibility")
    assert _origin(q, snapshot) == ("reused", None)
    assert METRICS.get("planner.replans.eligibility") == 1


def test_sharded_writes_reuse_the_plan():
    # Each write moves the placement to the new head with the same
    # layout, so the template planned once serves every version (the
    # rows keep the longest string and stay inside the drift window).
    from repro.service import QueryService, RunRequest

    rows = {format(i, "05b") for i in range(20)}
    query = "R(x) & last(x, '0')"
    with QueryService(workers=1, shards=2) as svc:
        svc.register_database("main", StringDatabase("01", {"R": rows}))
        METRICS.reset()
        assert svc.execute(RunRequest(query=query, database="main")).ok
        for i in range(5):
            row = format(20 + i, "05b")
            rows.add(row)
            svc.insert_rows("main", "R", [row])
            response = svc.execute(RunRequest(query=query, database="main"))
            assert response.ok
            assert response.rows == sorted([r] for r in rows if r[-1] == "0")
        assert METRICS.get("planner.plans") == 1
        assert METRICS.get("planner.replans.eligibility") == 0


def test_closure_compiled_after_a_cold_plan_replans_once_with_warm():
    q = Query(JOIN)
    cold = q.plan(A)
    assert cold.cold_probes
    get_pipeline(cold.formula, q.structure, A.schema, cold.slack)
    assert _origin(q, A) == ("planned", "warm")
    assert _origin(q, A) == ("reused", None)
    assert METRICS.get("planner.replans.warm") == 1
    assert q.result(A).as_set() == _oracle(q, A)


def test_forced_runs_plan_once_though_they_warm_the_closure():
    # The first forced run compiles the closure; the forced plan's engine
    # is fixed, so that warmth is no reason to plan again.
    q = Query(ADOM)
    for _ in range(3):
        assert q.result(A, engine="algebra").as_set() == _oracle(q, A)
    assert METRICS.get("planner.plans") == 1
    assert METRICS.get("planner.replans.warm") == 0
    assert not q.plan(A, engine="algebra").cold_probes


def test_a_hit_on_an_unchanged_snapshot_reads_no_statistics(monkeypatch):
    q = Query(JOIN)
    cache = plan_cache()
    cache.lookup(q.template, q.structure, A)
    reads = []

    def counted(name):
        original = getattr(Database, name)
        if isinstance(original, property):
            return property(lambda db: reads.append(name) or original.fget(db))
        return lambda db, *args: reads.append(name) or original(db, *args)

    for name in ("adom", "max_string_length", "adom_prefix_closure_size",
                 "total_string_length", "relation", "size"):
        monkeypatch.setattr(Database, name, counted(name))
    found = cache.lookup(q.template, q.structure, A)
    assert found.replanned is None and not found.moved
    assert reads == []
    # Another snapshot is validated against the recorded statistics.
    assert cache.lookup(q.template, q.structure, B).moved
    assert reads


# ------------------------------------------------------------ regret guard
#
# A reused plan was chosen on statistics up to PLAN_DRIFT away from the
# database it runs on.  These shapes must choose the same engine and
# across that window (every size scaled to 0.5x, 1x and 2x), or
# the choice they make at each end is pinned here on purpose.

SCALES = (0.5, 1, 2)


def _scaled(relations: dict, factor: float) -> Database:
    """``relations`` with every relation's size times ``factor``: every
    other row kept, or one new row of the same length added per row."""
    rng = random.Random(0)
    taken = set().union(*relations.values())
    out = {}
    for name, rows in relations.items():
        rows = sorted(rows)
        if factor < 1:
            rows = rows[::2]
        elif factor > 1:
            for row in list(rows):
                width = len(row)
                while (new := "".join(
                    rng.choice("01") for _ in range(width)
                )) in taken:
                    width += rng.random() < 0.1
                taken.add(new)
                rows.append(new)
        out[name] = {(row,) for row in rows}
    return Database(BINARY, out)


def _service_plan(text: str, structure: str, db: Database):
    """Planned the way the service replans: the closure compiled first."""
    q = Query(text, structure=structure)
    prewarm(q.formula, q.structure, db.schema)
    return Planner(q.structure, db).plan(q.formula)


def test_read_write_shapes_choose_alike_across_the_window():
    relations, _ = workload.make_database(random.Random("read_write:1"), 2)
    shapes = (workload.w_not_in_r, workload.w_last, workload.w_union,
              workload.w_like)
    for factor in SCALES:
        db = _scaled(relations, factor)
        for shape in shapes:
            reset_caches()
            query = shape("W0")
            plan = _service_plan(query.text, query.structure, db)
            assert plan.engine == "algebra", (
                query.text, factor,
            )


#: bench_delta shape -> (auto choice in a cold process per scale, forced)
BENCH_DELTA_CHOICES = {
    "untouched_promote": (
        {0.5: "direct", 1: "direct", 2: "direct"},
        "direct",
    ),
    # Auto planning picks the algebra engine at every scale of the
    # window, so a plan cached at one end still fits the other.
    "prefix_join": (
        {0.5: "algebra", 1: "algebra", 2: "algebra"},
        "algebra",
    ),
}

#: A prefix join pinned beside bench_delta's shapes, in their layout.
PINNED_SHAPES = [
    ("prefix_join", "R(x) & S(y) & x <<= y", "algebra", [80], [80]),
]


def test_bench_delta_shapes_choices_across_the_window():
    for shape, text, engine, _, (n, *_) in bench_delta.SHAPES + PINNED_SHAPES:
        auto, forced = BENCH_DELTA_CHOICES[shape]
        relations = {
            "R": bench_delta.make_rows(n, seed=7 * n),
            "S": bench_delta.make_rows(n, seed=7 * n + 1),
        }
        q = Query(text)
        for factor in SCALES:
            db = _scaled(relations, factor)
            reset_caches()
            plan = Planner(q.structure, db).plan(q.formula)
            assert plan.engine == auto[factor], (shape, factor)
            plan = Planner(q.structure, db).plan(q.formula, force=engine)
            assert plan.engine == forced, shape


def test_concurrent_lookups_answer_correctly():
    """Worker threads sharing the plan cache across databases on both
    sides of the drift window must answer exactly, and every replan must
    be one counted planning."""
    empty = _db(set(), set())
    big = _db({"0110", "001", "11", "1111", "0000", "1010", "0101"})
    databases = (A, B, empty, big)
    queries = (Query(ADOM), Query(JOIN))
    expected = {
        (i, j): _oracle(q, db)
        for i, q in enumerate(queries) for j, db in enumerate(databases)
    }
    errors = []

    def work(thread: int):
        try:
            for k in range(60):
                i, j = k % 2, (thread + k) % len(databases)
                got = queries[i].result(databases[j]).as_set()
                if got != expected[i, j]:
                    errors.append((i, j, got))
        except Exception as exc:  # reported below, not swallowed
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    replans = sum(
        n for name, n in METRICS.snapshot().items()
        if name.startswith("planner.replans.")
    )
    assert replans == METRICS.get("planner.plans") > 0
