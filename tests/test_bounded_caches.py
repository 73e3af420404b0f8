"""Caches keyed by query text stay bounded under ad hoc traffic.

Every new string constant brings a new selection condition (one checker)
and every new pattern a new DFA and star-freeness verdict.  A service
answering ad hoc text must not grow these caches without limit: each is
capped and drops its oldest entry first.
"""

import repro.algebra.plan as plan_module
import repro.structures.base as structures_base
from repro.core import Query
from repro.database import Database
from repro.strings import BINARY

CAP = 8
DB = Database(BINARY, {"R": {("0110",), ("001",), ("11",), ("0101",)}})


def _constants(n: int) -> list[str]:
    """``n`` distinct binary strings."""
    return [format(i, "b") for i in range(2, n + 2)]


def test_condition_checkers_stay_within_the_cap(monkeypatch):
    monkeypatch.setattr(plan_module, "_CHECKER_CACHE", {})
    monkeypatch.setattr(plan_module, "_CHECKER_CACHE_CAP", CAP)
    for c in _constants(10 * CAP):
        rows = Query(f"R(x) & '{c}' <<= x", structure="S").result(
            DB, engine="algebra"
        ).as_set()
        assert rows == {(x,) for (x,) in DB.relation("R") if x.startswith(c)}
        assert len(plan_module._CHECKER_CACHE) <= CAP
        assert any(f"'{c}'" in key[0] for key in plan_module._CHECKER_CACHE)


def test_pattern_caches_stay_within_the_cap(monkeypatch):
    monkeypatch.setattr(structures_base, "_PATTERN_DFAS", {})
    monkeypatch.setattr(structures_base, "_PATTERN_STAR_FREE", {})
    monkeypatch.setattr(structures_base, "_PATTERN_CACHE_CAP", CAP)
    for c in _constants(10 * CAP):
        rows = Query(f"R(x) & matches(x, '{c}.*')", structure="S").result(
            DB, engine="direct"
        ).as_set()
        assert rows == {(x,) for (x,) in DB.relation("R") if x.startswith(c)}
        assert len(structures_base._PATTERN_DFAS) <= CAP
        assert len(structures_base._PATTERN_STAR_FREE) <= CAP
        assert (("0", "1"), f"{c}.*") in structures_base._PATTERN_STAR_FREE
