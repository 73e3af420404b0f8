"""The automaton cache: LRU memoization of compiled query automata.

Compiling a subformula to a :class:`~repro.automatic.relation.
RelationAutomaton` involves products, complements, determinizations and
minimizations — by far the dominant cost of the automata engine.  The
results are immutable, so they can be shared freely; this module provides
the session-wide store that makes repeated work free:

* **keys** are *structural*: the canonical fingerprint of the
  (term-flattened) subformula — alpha-invariant and conjunct-order
  invariant, see :mod:`repro.logic.canonical` — plus the structure name,
  alphabet, and slack.  Subformulas
  whose value depends on the database — they mention a relation, or a
  restricted (ADOM/PREFIX/LENGTH) quantifier ranges over the active
  domain (:meth:`repro.logic.formulas.Formula.database_dependent`) —
  additionally carry a **database fingerprint** (a SHA-1 over the
  canonicalized instance), so a cached entry is only reused against the
  identical database;
* database-independent subformulas (pure structure/presentation automata
  like ``x <<= y & last(y, '0')``, NATURAL quantifiers included) are
  keyed **without** the fingerprint — they are interned once per session
  and shared across every database;
* the store is **LRU-bounded** (default 256 entries) and counts hits /
  misses / evictions both locally and in :data:`repro.engine.metrics.
  METRICS` (``cache.hits`` / ``cache.misses`` / ``cache.evictions``);
* the store is **thread-safe**: the query service shares one cache across
  its whole worker pool, so lookups, insertions, and LRU eviction hold an
  internal lock.  Values must be immutable (they are handed back to
  concurrent readers without copying); concurrent misses on the same key
  may build the same automaton twice, in which case the last ``put`` wins
  — wasted work, never a wrong answer.

Usage::

    from repro.engine.cache import global_cache

    cache = global_cache()
    cache.stats()       # {"hits": 10, "misses": 4, "size": 4, ...}
    cache.clear()       # drop entries, keep counters
    cache.resize(1024)  # tune capacity

Depends only on the stdlib and :mod:`repro.logic.canonical` on purpose:
importable from any engine layer without cycles.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any, Hashable, Optional

from repro.engine.metrics import METRICS
from repro.logic.canonical import canonical_fingerprint

#: Default number of cached automata (per cache instance).
DEFAULT_MAXSIZE = 256


class AutomatonCache:
    """An LRU map from structural keys to compiled automata.

    Values are opaque to the cache (the automata engine stores
    ``(RelationAutomaton, variables)`` pairs, :func:`repro.engine.explain.
    execute_plan` whole :class:`~repro.eval.result.QueryResult` answers);
    they must be immutable, since hits hand back the stored object.
    """

    __slots__ = (
        "maxsize", "_data", "hits", "misses", "evictions", "_lock", "_prefix",
        "_miss_loader", "warm_hits",
    )

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE, metrics_prefix: str = "cache"):
        if maxsize < 1:
            raise ValueError("cache maxsize must be >= 1")
        self.maxsize = maxsize
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lock = threading.RLock()
        #: METRICS namespace: the automaton cache reports ``cache.*``,
        #: secondary caches (e.g. codegen closures) pick their own prefix
        #: so the shared registry keeps the hit rates apart.
        self._prefix = metrics_prefix
        #: Optional second-chance loader consulted on a miss — the
        #: warm-start persistence hook (:mod:`repro.engine.warmstart`).
        #: Called outside the lock (disk IO must not serialize readers);
        #: a concurrent duplicate load is wasted work, never a wrong
        #: answer, exactly like a concurrent duplicate build.
        self._miss_loader = None
        self.warm_hits = 0

    # ------------------------------------------------------------ access

    def attach_loader(self, loader) -> None:
        """Install ``loader(key) -> value | None`` as the miss fallback.

        The serialization hook behind warm-start persistence: a
        :class:`~repro.engine.warmstart.WarmStartStore` attaches its
        ``load`` here, so entries spilled by a previous process are pulled
        off disk lazily — on first demand, not in a boot-time stampede.
        Pass ``None`` to detach.
        """
        self._miss_loader = loader

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached value for ``key``, or ``None`` (counts hit/miss).

        A miss consults the attached warm-start loader (if any) before
        giving up; a loader hit is inserted, counted under
        ``<prefix>.warm_hits``, and *also* counted as the miss it was —
        the in-memory hit rate stays honest while the warm counter shows
        how much recompilation the spill avoided.
        """
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self.misses += 1
                METRICS.inc(f"{self._prefix}.misses")
                loader = self._miss_loader
            else:
                self._data.move_to_end(key)
                self.hits += 1
                METRICS.inc(f"{self._prefix}.hits")
                return value
        if loader is None:
            return None
        value = loader(key)
        if value is None:
            return None
        with self._lock:
            self.warm_hits += 1
        METRICS.inc(f"{self._prefix}.warm_hits")
        self.put(key, value)
        return value

    def peek(self, key: Hashable) -> Optional[Any]:
        """The cached value for ``key`` without counting a hit or miss.

        Used by the delta-maintenance promotion path (:mod:`repro.delta`),
        which probes *ancestor-version* keys after the real lookup already
        counted its miss — promotion probes must not distort the
        hit-rate the stats endpoints report."""
        with self._lock:
            value = self._data.get(key)
            if value is not None:
                self._data.move_to_end(key)
            return value

    def count_hit(self) -> None:
        """Count a hit for a value read with :meth:`peek` and then used —
        for a probe that may decline the entry it found, and whose miss
        the real lookup counts (:meth:`repro.service.QueryService.
        answer_cached`)."""
        with self._lock:
            self.hits += 1
        METRICS.inc(f"{self._prefix}.hits")

    def put(self, key: Hashable, value: Any) -> None:
        """Store ``value`` under ``key``, evicting the LRU entry if full."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            if len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1
                METRICS.inc(f"{self._prefix}.evictions")

    def get_or_build(self, key: Hashable, builder) -> Any:
        """Cached value for ``key``, calling ``builder()`` on a miss."""
        value = self.get(key)
        if value is None:
            value = builder()
            self.put(key, value)
        return value

    # ---------------------------------------------------------- management

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def entries(self) -> list[tuple[Hashable, Any]]:
        """A snapshot of (key, value) pairs, LRU-oldest first.

        The spill side of the warm-start serialization hooks: values are
        immutable by the cache's own contract, so handing them out for
        serialization is safe without copying.
        """
        with self._lock:
            return list(self._data.items())

    def stats(self) -> dict[str, int]:
        """Hit/miss/eviction counters plus current occupancy."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "warm_hits": self.warm_hits,
                "size": len(self._data),
                "maxsize": self.maxsize,
            }

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
            while len(self._data) > maxsize:
                self._data.popitem(last=False)
                self.evictions += 1
                METRICS.inc(f"{self._prefix}.evictions")

    def __repr__(self) -> str:
        return f"AutomatonCache({self.stats()})"


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


_GLOBAL = AutomatonCache()


def global_cache() -> AutomatonCache:
    """The session-wide cache shared by :class:`repro.core.query.Query`."""
    return _GLOBAL
