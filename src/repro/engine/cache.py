"""Bounded caches: one LRU map, and the registry of the process-global ones.

Every memo table of the engines is a :class:`BoundedCache`, with one
eviction policy (least recently used), one lock and the same counters
(``<name>.hits`` / ``.misses`` / ``.evictions`` in :data:`repro.engine.
metrics.METRICS`).  Values must be immutable (hits hand back the stored
object) and never ``None``; concurrent misses on one key may build the
value twice, and the last ``put`` wins — wasted work, never a wrong
answer.  The process-global caches come from :func:`registered`, the
remaining ``functools.lru_cache`` memos join them through
:func:`register_memo`, and :func:`cache_stats` / :func:`reset_caches`
report / empty them all; a ``BoundedCache(...)`` made directly (a
service's private caches, a test's) stays out of the registry.

:func:`global_cache` holds compiled automata and whole answers, keyed
structurally (:func:`formula_key`): canonical fingerprint, structure,
alphabet, slack, and a :func:`database_fingerprint` only when the
subformula depends on the database — so database-independent
presentation automata are interned once and shared across databases.

Usage::

    from repro.engine.cache import cache_stats, global_cache, reset_caches

    global_cache().stats()       # {"hits": 10, "misses": 4, "size": 4, ...}
    global_cache().resize(1024)  # tune capacity
    cache_stats()                # {"cache": {...}, "algebra.plans": {...}, ...}
    reset_caches()               # empty every registered cache

Depends only on the stdlib and :mod:`repro.logic.canonical` on purpose:
importable from any engine layer without cycles.
"""

from __future__ import annotations

import hashlib
import importlib
import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable, Optional

from repro.engine.metrics import METRICS
from repro.logic import canonical
from repro.logic.canonical import canonical_fingerprint

#: Default number of entries (per cache instance).
DEFAULT_MAXSIZE = 256


class BoundedCache:
    """A thread-safe LRU map counting hits, misses and evictions under
    ``<name>.*`` in :data:`~repro.engine.metrics.METRICS`.

    Values are opaque to the cache (the automata engine stores
    ``(RelationAutomaton, variables)`` pairs, :func:`repro.engine.explain.
    execute_plan` whole :class:`~repro.eval.result.QueryResult` answers).
    """

    __slots__ = (
        "maxsize", "name", "_data", "hits", "misses", "evictions", "_lock",
        "_miss_loader", "warm_hits", "_hit", "_miss", "_evict",
    )

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE, name: str = "cache"):
        if maxsize < 1:
            raise ValueError("cache maxsize must be >= 1")
        self.maxsize = maxsize
        self.name = name
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self.hits = self.misses = self.evictions = self.warm_hits = 0
        self._lock = threading.Lock()
        self._hit, self._miss, self._evict = (
            f"{name}.hits", f"{name}.misses", f"{name}.evictions"
        )
        self._miss_loader = None

    # ------------------------------------------------------------ access

    def attach_loader(self, loader) -> None:
        """Install ``loader(key) -> value | None`` as the miss fallback
        (``None`` detaches it).

        The warm-start hook: a :class:`~repro.engine.warmstart.
        WarmStartStore` attaches its ``load`` here, so entries spilled by
        a previous process are pulled off disk on first demand.  It runs
        outside the lock (disk IO must not serialize readers); a
        concurrent duplicate load is wasted work, never a wrong answer.
        """
        self._miss_loader = loader

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached value for ``key``, or ``None`` (counts hit/miss).

        A miss consults the attached warm-start loader, if any; a loader
        hit is inserted and counted under ``<name>.warm_hits`` *as well
        as* the miss it was, so the in-memory hit rate stays honest.
        """
        value = self.setdefault(key, None)
        if value is not None or self._miss_loader is None:
            return value
        value = self._miss_loader(key)
        if value is None:
            return None
        with self._lock:
            self.warm_hits += 1
        METRICS.inc(f"{self.name}.warm_hits")
        self.put(key, value)
        return value

    def setdefault(self, key: Hashable, value: Any) -> Any:
        """The entry under ``key`` (a hit), or else ``value`` — stored
        unless it is ``None`` (a miss).  One atomic lookup-or-insert, so
        every caller racing on one key gets the same object back."""
        with self._lock:
            hit = self._data.get(key)
            if hit is None:
                self.misses += 1
                if value is not None:
                    self._store(key, value)
            else:
                self._data.move_to_end(key)
                self.hits += 1
        METRICS.inc(self._miss if hit is None else self._hit)
        return value if hit is None else hit

    def peek(self, key: Hashable) -> Optional[Any]:
        """The cached value for ``key`` without counting a hit or miss —
        for probes: ancestor-version walks after the real lookup counted
        its miss, the planner pricing a translation it may never run, the
        event loop's look at a text alias."""
        with self._lock:
            value = self._data.get(key)
            if value is not None:
                self._data.move_to_end(key)
            return value

    def count_hit(self) -> None:
        """Count a hit for a value read with :meth:`peek` and then used —
        for a probe that may decline the entry it found, and whose miss
        the real lookup counts (:meth:`repro.service.QueryService.
        answer_on_loop`)."""
        with self._lock:
            self.hits += 1
        METRICS.inc(self._hit)

    def put(self, key: Hashable, value: Any) -> None:
        """Store ``value`` under ``key``, evicting the LRU entry if full."""
        with self._lock:
            self._store(key, value)

    def get_or_build(self, key: Hashable, builder: Callable[[], Any]) -> Any:
        """Cached value for ``key``, calling ``builder()`` (outside the
        lock) on a miss."""
        value = self.get(key)
        if value is None:
            value = builder()
            self.put(key, value)
        return value

    def _store(self, key: Hashable, value: Any) -> None:
        # The caller holds the lock.
        self._data[key] = value
        self._data.move_to_end(key)
        self._trim()

    def _trim(self) -> None:
        # The caller holds the lock.  The package's one eviction site.
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.evictions += 1
            METRICS.inc(self._evict)

    # ---------------------------------------------------------- management

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def entries(self) -> list[tuple[Hashable, Any]]:
        """A snapshot of (key, value) pairs, LRU-oldest first (the spill
        side of warm-start: values are immutable, so no copies)."""
        with self._lock:
            return list(self._data.items())

    def stats(self) -> dict[str, int]:
        """Hit/miss/eviction counters plus current occupancy."""
        with self._lock:
            return dict(
                hits=self.hits, misses=self.misses, evictions=self.evictions,
                warm_hits=self.warm_hits, size=len(self._data), maxsize=self.maxsize,
            )

    def clear(self) -> None:
        """Drop every entry (counters are kept; see :meth:`reset`)."""
        with self._lock:
            self._data.clear()

    def reset(self) -> None:
        """Drop entries *and* zero the counters."""
        with self._lock:
            self._data.clear()
            self.hits = self.misses = self.evictions = self.warm_hits = 0

    def resize(self, maxsize: int) -> None:
        """Change capacity, evicting LRU entries if shrinking."""
        if maxsize < 1:
            raise ValueError("cache maxsize must be >= 1")
        with self._lock:
            self.maxsize = maxsize
            self._trim()

    def __repr__(self) -> str:
        return f"BoundedCache({self.name!r}, {self.stats()})"


# ------------------------------------------------------------------- keying


def database_fingerprint(database) -> str:
    """A stable hex digest of a database instance, memoized per instance.

    Canonical serialization: alphabet symbols, then each relation name with
    its sorted tuples.  Two databases share a fingerprint iff they are
    extensionally equal (up to SHA-1 collisions) — except for snapshots
    produced by :mod:`repro.delta`, whose slot is pre-seeded with the
    **chained version fingerprint** (parent fingerprint + delta digest):
    still injective on content, computed in O(|delta|), but deliberately
    distinct from the content digest an independent registration of equal
    content would get (a conservative cache miss, never a wrong hit).

    Instances are immutable, so the digest is computed once and cached on
    the instance (``Database._fingerprint``); every plan/cache lookup
    after the first is O(1) instead of rehashing all tuples.
    """
    cached = getattr(database, "_fingerprint", None)
    if cached is not None:
        METRICS.inc("cache.fingerprint_memo_hits")
        return cached
    h = hashlib.sha1()
    h.update("|".join(database.alphabet.symbols).encode())
    for name in sorted(database.relation_names):
        h.update(b"\x00")
        h.update(name.encode())
        for tup in sorted(database.relation(name)):
            h.update(b"\x01")
            h.update("\x02".join(tup).encode())
    fingerprint = h.hexdigest()
    try:
        database._fingerprint = fingerprint
    except AttributeError:  # duck-typed stand-ins without the memo slot
        pass
    return fingerprint


def formula_key(
    formula,
    structure_name: str,
    alphabet_symbols: tuple[str, ...],
    slack: int,
    db_fingerprint: Optional[str],
    stage: str = "automata",
) -> tuple:
    """The structural cache key of one (sub)formula compilation.

    The formula component is its **canonical fingerprint**
    (:func:`repro.logic.canonical.canonical_fingerprint`), so
    alpha-equivalent and conjunct-reordered spellings share one entry.
    ``db_fingerprint`` must be ``None`` exactly when the formula is
    database-independent (no relation atoms *and* no restricted
    quantifiers, :meth:`repro.logic.formulas.Formula.database_dependent`)
    — that is what makes pure presentation automata
    *interned* across databases.  ``stage`` names the value space
    (``"automata"`` subformula compilations vs ``"result:<engine>"`` whole
    answers, one stage per backend, e.g. ``"result:direct"``) — together
    the key is (canonical fingerprint, db fingerprint, stage).
    ``formula`` may also be that fingerprint, already computed (a plan's
    ``fingerprint``, which also encodes the values bound to its
    template's slots).
    """
    return (
        stage,
        structure_name,
        alphabet_symbols,
        slack,
        db_fingerprint,
        formula if isinstance(formula, str) else canonical_fingerprint(formula),
    )


# ----------------------------------------------------------------- registry

#: name -> registered BoundedCache or ``functools.lru_cache`` function.
_REGISTRY: dict[str, Any] = {}

#: Modules that register when imported; :func:`cache_stats` imports them,
#: so its report does not depend on which ran first.
_OWNERS = (
    "algebra.codegen", "algebra.optimize", "algebra.plan", "algebra.ranf",
    "automatic.convolution", "automatic.presentations", "engine.plan_cache",
    "sql.like", "sql.similar", "structures.base",
)


def _register(name: str, entry):
    if name in _REGISTRY:
        raise ValueError(f"cache {name!r} is already registered")
    _REGISTRY[name] = entry
    return entry


def registered(name: str, maxsize: int) -> BoundedCache:
    """A new process-global :class:`BoundedCache`, registered as ``name``."""
    return _register(name, BoundedCache(maxsize, name))


def register_memo(name: str, fn: Callable) -> Callable:
    """Register ``fn``, an ``lru_cache`` function, as ``name``; returns it."""
    return _register(name, fn)


def registered_caches() -> dict[str, BoundedCache]:
    """The registered :class:`BoundedCache` instances by name."""
    return {n: c for n, c in _REGISTRY.items() if isinstance(c, BoundedCache)}


def cache_stats() -> dict[str, dict]:
    """``{name: stats}`` for every registered cache and memo (a memo's
    from its ``cache_info()``: hits, misses, size, maxsize)."""
    for module in _OWNERS:
        importlib.import_module(f"repro.{module}")
    out = {}
    for name, entry in _REGISTRY.items():
        if isinstance(entry, BoundedCache):
            out[name] = entry.stats()
        else:
            hits, misses, maxsize, size = entry.cache_info()
            out[name] = dict(hits=hits, misses=misses, size=size, maxsize=maxsize)
    return out


def reset_caches() -> None:
    """Empty every registered cache, zeroing its counters, and clear
    every registered memo."""
    for entry in list(_REGISTRY.values()):
        if isinstance(entry, BoundedCache):
            entry.reset()
        else:
            entry.cache_clear()


_SHARED = registered("cache", DEFAULT_MAXSIZE)

# repro.logic.canonical sits below this module in the import graph, so
# its memos are registered here rather than where they are defined.
for _fn in (canonical.canonical_serialization, canonical.canonical_fingerprint,
            canonical.canonicalize):
    register_memo(f"logic.canonical.{_fn.__name__}", _fn)


def global_cache() -> BoundedCache:
    """The session-wide cache shared by :class:`repro.core.query.Query`."""
    return _SHARED
