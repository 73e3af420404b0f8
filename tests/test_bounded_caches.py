"""Caches keyed by query text stay bounded under ad hoc traffic.

Every new condition shape brings a new checker (a string constant is a
template slot, but a constant spelt with ``add_last`` is shape), every
new pattern a new DFA and star-freeness verdict, and every literal the
automata engine sees a ``constant`` presentation; every new query text
a text alias and a prepared query in the service, every new shape a
template handle, and every adom-changing write a plan epoch.  A
service answering ad hoc text must not grow these caches without limit:
each is capped and drops its oldest entry first.
"""

import gc
import sys
import threading
from collections import OrderedDict

import repro.algebra.plan as plan_module
import repro.automatic.presentations as presentations
import repro.service.service as service_module
import repro.structures.base as structures_base
from repro.core import Query
from repro.database import Database
from repro.engine.cache import AutomatonCache
from repro.eval.result import QueryResult
from repro.service import QueryService, RunRequest
from repro.strings import BINARY

CAP = 8
DB = Database(BINARY, {"R": {("0110",), ("001",), ("11",), ("0101",)}})


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


def test_condition_checkers_stay_within_the_cap(monkeypatch):
    monkeypatch.setattr(plan_module, "_CHECKER_CACHE", {})
    monkeypatch.setattr(plan_module, "_CHECKER_CACHE_CAP", CAP)
    seen = set()
    for c in _constants(10 * CAP):
        rows = Query(f"R(x) & {_spelt(c)} <<= x", structure="S").result(
            DB, engine="algebra"
        ).as_set()
        assert rows == {(x,) for (x,) in DB.relation("R") if x.startswith(c)}
        assert len(plan_module._CHECKER_CACHE) <= CAP
        seen |= set(plan_module._CHECKER_CACHE)
    # Every shape brought its own checker.
    assert len(seen) == 10 * CAP


def test_presentations_stay_within_the_cap(monkeypatch):
    # The automata engine runs the bound query: each literal is a
    # ``constant`` presentation of its own.
    monkeypatch.setattr(presentations, "_BASIC_CACHE", OrderedDict())
    monkeypatch.setattr(presentations, "_BASIC_CACHE_CAP", CAP)
    seen = set()
    for c in _constants(10 * CAP):
        rows = Query(f"R(x) & '{c}' <<= x", structure="S").result(
            DB, engine="automata"
        ).as_set()
        assert rows == {(x,) for (x,) in DB.relation("R") if x.startswith(c)}
        assert len(presentations._BASIC_CACHE) <= CAP
        seen |= set(presentations._BASIC_CACHE)
    assert len({key for key in seen if key[1] == "constant"}) == 10 * CAP


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


def test_service_maps_stay_within_the_cap(monkeypatch):
    """Text aliases, prepared queries and template handles stay within the
    cap under ad hoc text, and a handle keeps one plan per plan epoch
    however many adom-changing writes it sees."""
    monkeypatch.setattr(service_module, "_PREPARED_CAP", CAP)
    with QueryService(workers=1) as svc:
        svc.register_database("main", DB)
        for i, c in enumerate(_constants(10 * CAP)):
            # Distinct output names make distinct templates too.
            text = f"R(x{i % (2 * CAP)}) & '{c}' <<= x{i % (2 * CAP)}"
            resp = svc.execute(RunRequest(query=text, database="main"))
            assert resp.ok
            assert resp.rows == sorted(
                [x] for (x,) in DB.relation("R") if x.startswith(c)
            )
            assert len(svc._prepared_text) <= CAP
            assert len(svc._prepared) <= CAP
            assert len(svc._templates) <= CAP
        handle = svc.prepare("R(x) & last(x, '0')")
        rows = {x for (x,) in DB.relation("R")}
        for i in range(50):
            word = format(i + 2 * CAP, "b") + "0"
            svc.insert_rows("main", "R", [(word,)])
            rows.add(word)
            resp = svc.execute(RunRequest(query=handle, database="main"))
            assert resp.rows == sorted([x] for x in rows if x.endswith("0"))
            assert len(handle.template._plans) == 1
        assert svc.stats()["versions"]["main"]["plan_epoch"] == 50


def test_memoized_rows_live_on_the_cached_results():
    """Each answer's sorted rows are memoized on its cached
    :class:`QueryResult` (where the service's event-loop probe reads
    them), not in a store of their own: the result cache's cap bounds
    them, and evicting a result frees its rows."""
    cache = AutomatonCache(CAP)
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
        hit = svc.answer_cached(RunRequest(query=text, database="main"))
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
