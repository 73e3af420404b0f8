"""Caches stay bounded under ad hoc traffic.

Every process-global memo table is a registered :class:`~repro.engine.
cache.BoundedCache` (or a registered ``functools.lru_cache``), and ad hoc
query text grows each of them without end: every new condition shape
brings a new plan, eligibility verdict and translation, and every
new quantified one a new checker (a string constant is a template slot,
but a constant spelt with ``add_last`` is shape), every new value of a quantified template
condition a bound automaton, every new template a plan-cache entry,
every literal the automata engine sees a ``constant`` presentation,
and every new answer a result entry.  In the service, every new query text
brings a text alias and a prepared query, and every new shape a
template handle.  Each cache is capped and drops its least recently
used entry first.
"""

import gc
import sys
import threading

import pytest

import repro.structures.base as structures_base
from repro.algebra.codegen import get_pipeline
from repro.core import Query
from repro.database import Database
from repro.engine.cache import (
    BoundedCache,
    cache_stats,
    registered_caches,
    reset_caches,
)
from repro.eval.result import QueryResult
from repro.logic import parse_formula
from repro.logic.canonical import canonicalize
from repro.logic.literals import lift_literals
from repro.service import QueryService, RunRequest
from repro.strings import BINARY
from repro.structures.catalog import by_name

CAP = 8
DB = Database(BINARY, {"R": {("0110",), ("001",), ("11",), ("0101",)}})
S = by_name("S", BINARY)


def _constants(n: int) -> list[str]:
    """``n`` distinct binary strings."""
    return [format(i, "b") for i in range(2, n + 2)]


def _spelt(c: str) -> str:
    """``c`` spelt with ``add_last`` from the empty string: its symbols
    are part of the query's shape, not a template slot."""
    term = "''"
    for a in c:
        term = f"add_last({term}, '{a}')"
    return term


def _starting_with(c: str) -> set:
    return {(x,) for (x,) in DB.relation("R") if x.startswith(c)}


# Each driver is a generator: one step per new key it brings to its
# cache, checking that step's answer; the test checks the cap in between.


def _literals_on_the_planner(n: int):
    """Whole answers: one result entry per constant."""
    for c in _constants(n):
        rows = Query(f"R(x) & '{c}' <<= x", structure="S").result(DB).as_set()
        assert rows == _starting_with(c)
        yield


def _spelt_shapes_on_forced_algebra(n: int):
    """A new shape per constant: a plan and a verdict each."""
    for c in _constants(n):
        rows = Query(f"R(x) & {_spelt(c)} <<= x", structure="S").result(
            DB, engine="algebra"
        ).as_set()
        assert rows == _starting_with(c)
        yield


def _spelt_shapes_on_the_planner(n: int):
    """A plan-cache entry per shape."""
    for c in _constants(n):
        rows = Query(f"R(x) & {_spelt(c)} <<= x", structure="S").result(
            DB
        ).as_set()
        assert rows == _starting_with(c)
        yield


def _spelt_shapes_fused(n: int):
    """A compiled closure per shape."""
    for c in _constants(n):
        template, values = lift_literals(parse_formula(f"R(x) & {_spelt(c)} <<= x"))
        pipeline, how = get_pipeline(template, S, DB.schema)
        assert how == "compiled"
        assert pipeline.run(DB, values)[0] == _starting_with(c)
        yield


def _values_of_one_quantified_condition(n: int):
    """One quantified template condition (``x`` is a strict prefix of the
    slot's value), a bound automaton per value."""
    for c in _constants(n):
        formula = canonicalize(
            parse_formula(f"R(x) & exists y: (x <<= y & sprefix(y, '{c}'))")
        )
        template, values = lift_literals(formula)
        pipeline, _ = get_pipeline(template, S, DB.schema, slack=1)
        rows = pipeline.run(DB, values)[0]
        assert rows == {
            (x,) for (x,) in DB.relation("R") if c.startswith(x) and x != c
        }
        yield


def _spelt_quantified_conditions(n: int):
    """A checker per shape: a quantified condition (``x`` is a strict
    prefix of a string that is itself a prefix of a spelt constant) —
    the closure inlines every quantifier-free one."""
    for c in _constants(n):
        formula = canonicalize(parse_formula(
            f"R(x) & exists y: (x <<= y & sprefix(y, {_spelt(c)}))"
        ))
        template, values = lift_literals(formula)
        pipeline, _ = get_pipeline(template, S, DB.schema, slack=1)
        rows = pipeline.run(DB, values)[0]
        assert rows == {
            (x,) for (x,) in DB.relation("R") if c.startswith(x) and x != c
        }
        yield


def _literals_on_the_automata_engine(n: int):
    """A ``constant`` presentation per literal."""
    for c in _constants(n):
        rows = Query(f"R(x) & '{c}' <<= x", structure="S").result(
            DB, engine="automata"
        ).as_set()
        assert rows == _starting_with(c)
        yield


#: registered cache name -> public-API traffic that grows it
DRIVERS = {
    "cache": _literals_on_the_planner,
    "codegen.cache": _spelt_shapes_fused,
    "algebra.checkers": _spelt_quantified_conditions,
    "algebra.bound_conditions": _values_of_one_quantified_condition,
    "algebra.plans": _spelt_shapes_on_forced_algebra,
    "planner.eligibility_memo": _spelt_shapes_on_forced_algebra,
    "planner.plan_cache": _spelt_shapes_on_the_planner,
    "automatic.presentations": _literals_on_the_automata_engine,
}


@pytest.fixture
def capped():
    """Resize a registered cache to ``CAP`` on a clean slate; restore it."""
    resized = []

    def cap(name: str) -> BoundedCache:
        cache = registered_caches()[name]
        resized.append((cache, cache.maxsize))
        cache.resize(CAP)
        return cache

    reset_caches()
    yield cap
    for cache, maxsize in resized:
        cache.resize(maxsize)
    reset_caches()


def test_every_registered_cache_has_a_driver():
    stats = cache_stats()
    caches = registered_caches()
    assert set(caches) == set(DRIVERS)
    memos = set(stats) - set(caches)
    assert len(memos) == 8
    for name in memos:
        assert stats[name]["maxsize"] is not None, name


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_cache_stays_within_its_cap(capped, name):
    cache = capped(name)
    for _ in DRIVERS[name](10 * CAP):
        assert len(cache) <= CAP
    assert cache.stats()["evictions"] >= 9 * CAP


def test_reset_caches_empties_every_registered_cache(capped):
    for name in ("cache", "algebra.checkers", "algebra.bound_conditions"):
        for _ in DRIVERS[name](2):
            pass
    stats = cache_stats()
    assert any(entry["size"] for entry in stats.values())
    assert any(entry["hits"] or entry["misses"] for entry in stats.values())
    reset_caches()
    for name, entry in cache_stats().items():
        assert entry["size"] == 0, name
        assert entry["hits"] == entry["misses"] == 0, name
        assert entry.get("evictions", 0) == entry.get("warm_hits", 0) == 0, name


def test_concurrent_puts_stay_within_the_cap(capped):
    """Threads inserting at once (a service's worker pool) must neither
    break an eviction nor overfill a registered cache."""
    cache = capped("algebra.plans")
    errors = []

    def put_own(thread: int):
        try:
            for i in range(400):
                cache.put(("stress", thread, i), (thread, i))
        except Exception as exc:  # reported below, not swallowed
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=put_own, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(cache) <= CAP
    assert cache.stats()["evictions"] == 8 * 400 - len(cache)


def test_pattern_caches_stay_within_the_cap():
    dfas = structures_base._pattern_dfa
    verdicts = structures_base._pattern_is_star_free
    cap = structures_base._PATTERN_CACHE_CAP
    dfas.cache_clear()
    verdicts.cache_clear()
    patterns = [f"{c}.*" for c in _constants(cap + CAP)]
    for pattern in patterns:
        rows = Query(f"R(x) & matches(x, '{pattern}')", structure="S").result(
            DB, engine="direct"
        ).as_set()
        prefix = pattern[:-2]
        assert rows == {(x,) for (x,) in DB.relation("R") if x.startswith(prefix)}
        for cache in (dfas, verdicts):
            info = cache.cache_info()
            assert info.currsize <= info.maxsize == cap
    # Every pattern brought its own entry, and the newest is still cached.
    assert verdicts.cache_info().misses == len(patterns)
    hits = verdicts.cache_info().hits
    verdicts(("0", "1"), patterns[-1])
    assert verdicts.cache_info().hits == hits + 1


def test_pattern_cache_survives_concurrent_eviction():
    """Worker threads compiling new patterns at once (the service's pool
    evaluating ``matches`` atoms) must neither break an eviction nor
    overfill the cache."""
    errors = []

    def compile_own(thread: int):
        # Each thread brings 400 patterns of its own: every call misses.
        try:
            for c in _constants(400):
                structures_base._pattern_dfa(("0", "1"), f"{c}{'0' * thread}.*")
        except Exception as exc:  # reported below, not swallowed
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=compile_own, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    info = structures_base._pattern_dfa.cache_info()
    assert info.currsize <= info.maxsize


def test_service_maps_stay_within_the_cap():
    """Text aliases, prepared queries and template handles stay within the
    cap under ad hoc text, and a handle's template keeps one plan-cache
    entry however many adom-changing writes it sees."""
    with QueryService(workers=1) as svc:
        maps = (svc._templates, svc._prepared, svc._prepared_text)
        for cache in maps:
            cache.resize(CAP)
        svc.register_database("main", DB)
        for i, c in enumerate(_constants(10 * CAP)):
            # Distinct output names make distinct templates too.
            text = f"R(x{i % (2 * CAP)}) & '{c}' <<= x{i % (2 * CAP)}"
            resp = svc.execute(RunRequest(query=text, database="main"))
            assert resp.ok
            assert resp.rows == sorted(
                [x] for (x,) in DB.relation("R") if x.startswith(c)
            )
            assert all(len(cache) <= CAP for cache in maps)
        handle = svc.prepare("R(x) & last(x, '0')")
        fingerprint = handle.template.query_for(BINARY).template.fingerprint
        plans = registered_caches()["planner.plan_cache"]
        rows = {x for (x,) in DB.relation("R")}
        for i in range(50):
            word = format(i + 2 * CAP, "b") + "0"
            svc.insert_rows("main", "R", [(word,)])
            rows.add(word)
            resp = svc.execute(RunRequest(query=handle, database="main"))
            assert resp.rows == sorted([x] for x in rows if x.endswith("0"))
            assert [k[0] for k, _ in plans.entries()].count(fingerprint) == 1
        stats = svc.stats()
        assert stats["versions"]["main"]["plan_epoch"] == 50
        for cache in maps:
            assert stats["caches"][cache.name]["evictions"] >= 9 * CAP


def test_memoized_rows_live_on_the_cached_results():
    """Each answer's sorted rows are memoized on its cached
    :class:`QueryResult` (where the service's event-loop probe reads
    them), not in a store of their own: the result cache's cap bounds
    them, and evicting a result frees its rows."""
    cache = BoundedCache(CAP)
    with QueryService(workers=1, cache=cache) as svc:
        svc.register_database("main", DB)
        for c in _constants(10 * CAP):
            text = f"R(capped) & '{c}' <<= capped"
            resp = svc.execute(RunRequest(query=text, database="main"))
            assert resp.rows == sorted(
                [x] for (x,) in DB.relation("R") if x.startswith(c)
            )
            assert len(cache) <= CAP
            cached = [v for _, v in cache.entries() if isinstance(v, QueryResult)]
            assert cached and all(r.sorted_memo is not None for r in cached)
        # The newest answer is served from its memo.
        hit = svc.answer_on_loop(
            RunRequest(query=text, database="main"), run=False
        )
        assert hit is not None and hit.rows == resp.rows
        gc.collect()
        memoized = [
            obj for obj in gc.get_objects()
            if isinstance(obj, QueryResult)
            and obj.variables == ("capped",)
            and obj.sorted_memo is not None
        ]
        in_cache = {id(v) for _, v in cache.entries()}
        assert 0 < len(memoized) <= CAP
        assert all(id(obj) in in_cache for obj in memoized)
