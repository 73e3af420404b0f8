"""The MVCC delta store: versioned databases evolved by insert/delete.

A :class:`VersionedDatabase` wraps an immutable
:class:`~repro.database.instance.Database` and turns it into a *chain of
immutable snapshots*: each :meth:`~VersionedDatabase.insert` /
:meth:`~VersionedDatabase.delete` produces a **new** ``Database`` (the
old one is untouched — in-flight queries that already resolved a
snapshot keep answering against it), built in O(|delta|):

* untouched relation frozensets are **shared** with the parent snapshot;
* the active domain is maintained from per-string occurrence refcounts
  (kept by the store), so adom membership is re-checked only for the
  strings the delta actually touched;
* the new snapshot's cache fingerprint is **chained** —
  ``sha1(parent_fingerprint + delta_digest)`` — and seeded into the
  instance, so no cache layer ever rehashes the full contents.  Chained
  fingerprints are injective on content (a fingerprint determines the
  base content plus the exact delta sequence) but deliberately distinct
  from the content digest a from-scratch registration would get: equal
  content reached by different histories is a conservative cache miss,
  never a wrong hit.

A :class:`DatabaseVersion` is the one record of an applied delta, and
every snapshot the store makes carries a link back to the store and its
version number: :func:`lineage` walks from a snapshot to its retained
ancestors, which is what lets the engines' caches survive the change
(see :mod:`repro.delta.maintenance`).  The store also keeps the active
domain sorted, so each child's planning statistics (``|prefix(adom(D))|``
and the longest and total string lengths) are derived from its parent's
and the delta instead of recounted.
"""

from __future__ import annotations

import bisect
import hashlib
import threading
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from typing import Optional, Union

from repro.database.instance import Database
from repro.database.schema import Schema
from repro.engine.cache import database_fingerprint
from repro.engine.metrics import METRICS
from repro.errors import ArityError, ReproError
from repro.strings import lcp_with_set

__all__ = [
    "DatabaseVersion", "Delta", "DeltaError", "VersionedDatabase", "lineage",
    "store_of",
]

Row = tuple[str, ...]

#: How many versions a promotion walk may visit before giving up —
#: bounds the work of promoting a cache entry across many small deltas.
MAX_CHAIN = 16


class DeltaError(ReproError):
    """An insert/delete the versioned store cannot apply."""


@dataclass(frozen=True)
class Delta:
    """One *effective* change set between two adjacent versions.

    ``inserts`` rows are guaranteed absent from the parent snapshot and
    ``deletes`` rows guaranteed present (the store normalizes no-op rows
    away): ``child = parent - deletes + inserts`` relation by relation,
    with the three sets pairwise disjoint per relation, so
    :attr:`touched` names exactly the relations whose contents changed.
    """

    inserts: tuple[tuple[str, frozenset[Row]], ...]
    deletes: tuple[tuple[str, frozenset[Row]], ...]

    @property
    def touched(self) -> frozenset[str]:
        """Relations whose contents differ between parent and child."""
        return frozenset(
            name for name, _ in self.inserts
        ) | frozenset(name for name, _ in self.deletes)

    @property
    def size(self) -> int:
        return sum(len(rows) for _, rows in self.inserts) + sum(
            len(rows) for _, rows in self.deletes
        )

    def digest(self) -> str:
        """Canonical SHA-1 of the change set (rows sorted per relation)."""
        h = hashlib.sha1()
        for tag, changes in ((b"+", self.inserts), (b"-", self.deletes)):
            for name, rows in sorted(changes):
                h.update(tag)
                h.update(name.encode())
                for row in sorted(rows):
                    h.update(b"\x01")
                    h.update("\x02".join(row).encode())
        return h.hexdigest()


@dataclass(frozen=True)
class DatabaseVersion:
    """One immutable snapshot in a version chain.

    Holding a ``DatabaseVersion`` pins its snapshot: the ``database`` it
    carries never changes, whatever deltas are applied to the store
    afterwards — that is the MVCC read side.
    """

    version: int
    fingerprint: str
    database: Database
    #: Bumps only when the schema or the active domain actually shifted;
    #: reported by the service's ``insert``/``delete``/``db_versions``
    #: replies (plans are kept by :mod:`repro.engine.plan_cache`).
    plan_epoch: int
    #: The effective delta from the parent version (``None`` for the base).
    delta: Optional[Delta] = None
    #: Did this delta change ``adom(D)``? (``False`` for the base.)
    adom_changed: bool = False
    #: Did this delta add a relation to the schema? (``False`` for the base.)
    schema_changed: bool = False


def chained_fingerprint(parent_fingerprint: str, delta_digest: str) -> str:
    """The child version's fingerprint: hash-chained, O(|delta|) to derive."""
    return hashlib.sha1(
        f"{parent_fingerprint}:{delta_digest}".encode()
    ).hexdigest()


def _normalize_rows(
    relation: str, rows: Iterable[Union[str, Sequence[str]]], alphabet
) -> set[Row]:
    normalized: set[Row] = set()
    for row in rows:
        if isinstance(row, str):
            row = (row,)
        row = tuple(row)
        for s in row:
            alphabet.check_string(s)
        normalized.add(row)
    if normalized:
        lengths = {len(r) for r in normalized}
        if len(lengths) != 1:
            raise ArityError(
                f"delta rows for {relation!r} have mixed arities {lengths}"
            )
    return normalized


def evolve_database(
    database: Database,
    inserts: Mapping[str, frozenset[Row]],
    deletes: Mapping[str, frozenset[Row]],
    fingerprint: Optional[str] = None,
    adom: Optional[frozenset[str]] = None,
    **seeds,
) -> Database:
    """Apply pre-normalized effective deltas to one snapshot, O(|delta|).

    Shares every untouched relation frozenset with ``database``.  The
    :class:`VersionedDatabase` passes its refcount-maintained ``adom``
    and ``seeds`` — the version link and planning statistics
    :meth:`Database._evolved` takes; without an ``adom`` (the shard
    coordinator evolving a partition) the active domain is recomputed
    from scratch.
    """
    relations = {name: database.relation(name) for name in database.relation_names}
    schema = database.schema
    new_names = {}
    for name, rows in inserts.items():
        if name not in relations:
            if not rows:
                continue
            new_names[name] = len(next(iter(rows)))
            relations[name] = frozenset()
        relations[name] = relations[name] | rows
    for name, rows in deletes.items():
        if name not in relations:
            raise DeltaError(f"cannot delete from unknown relation {name!r}")
        relations[name] = relations[name] - rows
    if new_names:
        arities = {n: schema.arity(n) for n in schema.relation_names}
        arities.update(new_names)
        schema = Schema(arities)
    if adom is None:
        adom = frozenset(
            s for rows in relations.values() for row in rows for s in row
        )
    return Database._evolved(
        database.alphabet, schema, relations, adom, fingerprint, **seeds
    )


def store_of(database: Database) -> Optional["VersionedDatabase"]:
    """The :class:`VersionedDatabase` that made ``database``, or ``None``."""
    made_by = database._version
    return None if made_by is None else made_by[0]


def lineage(database: Database) -> Iterator[DatabaseVersion]:
    """``database``'s own version, then its retained ancestors, newest first.

    Empty for a snapshot no :class:`VersionedDatabase` made.  The walk
    goes through the store's retained versions, so it ends at the first
    pruned one: past ``keep_versions`` an ancestor is a conservative
    miss, never a wrong version.
    """
    made_by = getattr(database, "_version", None)
    if made_by is None:
        return
    store, number = made_by
    # Lock-free: one dict read is atomic, and pruning only drops the
    # oldest versions, which just ends the walk sooner.
    while (version := store._versions.get(number)) is not None:
        yield version
        number -= 1


def _trie_nodes(strings: list[str], at: int, s: str) -> int:
    """Nodes ``s`` adds to the trie of sorted ``strings`` at index ``at``.

    One per character past the longest prefix ``s`` shares with a stored
    string, which a sorted neighbour attains (plus the root when the
    trie is empty).
    """
    if not strings:
        return len(s) + 1
    return len(s) - len(lcp_with_set(s, strings[max(at - 1, 0):at + 1]))


class VersionedDatabase:
    """A mutable *view* over a chain of immutable database snapshots.

    Thread-safe: deltas are applied under a lock; readers grab
    :attr:`head` (one attribute read) and keep evaluating against that
    pinned snapshot no matter what is applied concurrently.  Version 0
    is the store's own copy of ``database`` (sharing its relation
    frozensets), so that every snapshot of the chain is linked to it.

    Examples
    --------
    >>> from repro.strings import BINARY
    >>> from repro.database.instance import Database
    >>> vdb = VersionedDatabase(Database(BINARY, {"R": {("01",)}}))
    >>> v1 = vdb.insert("R", [("11",)])
    >>> sorted(vdb.head.database.relation("R"))
    [('01',), ('11',)]
    >>> vdb.version(0).database.relation("R")  # v0 snapshot is pinned
    frozenset({('01',)})
    """

    def __init__(
        self,
        database: Database,
        keep_versions: int = 64,
    ):
        if keep_versions < 1:
            raise DeltaError("keep_versions must be >= 1")
        self._lock = threading.Lock()
        self._keep = keep_versions
        fingerprint = database_fingerprint(database)
        base = DatabaseVersion(
            version=0,
            fingerprint=fingerprint,
            database=evolve_database(
                database, {}, {}, fingerprint, database.adom, version=(self, 0)
            ),
            plan_epoch=0,
        )
        self._versions: dict[int, DatabaseVersion] = {0: base}
        self._head = base
        # Per-string occurrence refcounts across all relation tuples:
        # O(|delta|) adom maintenance on every apply.
        self._adom_counts: Counter[str] = Counter()
        for name in database.relation_names:
            for row in database.relation(name):
                self._adom_counts.update(row)
        # The active domain in sorted order: a delta's strings find their
        # trie neighbours by bisection (prefix-closure size upkeep).
        self._adom_sorted = sorted(self._adom_counts)
        #: ``(coordinator, ShardedDatabase)`` once a :mod:`repro.shard`
        #: coordinator placed one of this store's snapshots on its worker
        #: pool; that snapshot alone routes there (``None``: unplaced).
        self.placement = None

    # ------------------------------------------------------------- reading

    @property
    def head(self) -> DatabaseVersion:
        """The newest version (new requests resolve against this)."""
        return self._head

    def version(self, number: int) -> DatabaseVersion:
        with self._lock:
            v = self._versions.get(number)
        if v is None:
            have = sorted(self._versions)
            raise DeltaError(
                f"version {number} is unknown or pruned (retained: {have})"
            )
        return v

    def versions(self) -> list[dict]:
        """Wire-friendly summaries of the retained versions, oldest first."""
        with self._lock:
            retained = sorted(self._versions.values(), key=lambda v: v.version)
        return [
            {
                "version": v.version,
                "fingerprint": v.fingerprint,
                "tuples": v.database.size,
                "adom_size": len(v.database.adom),
                "plan_epoch": v.plan_epoch,
                "delta_size": v.delta.size if v.delta is not None else 0,
            }
            for v in retained
        ]

    # ------------------------------------------------------------- writing

    def _statistics(
        self, parent: Database, delta: Delta, added: set, removed: set
    ) -> dict[str, Optional[int]]:
        """The child's planning statistics, from ``parent``'s and the
        delta's: O(|delta| log |adom|) instead of a rescan per snapshot.

        ``|prefix(adom)|`` moves by the trie nodes each added or removed
        string owns (this also moves the store's sorted active domain to
        the child's); the longest length is left to a lazy recount when a
        removed string may have been the longest.
        """
        closure = parent.adom_prefix_closure_size()
        strings = self._adom_sorted
        for s in removed:
            at = bisect.bisect_left(strings, s)
            del strings[at]
            closure -= _trie_nodes(strings, at, s)
        for s in added:
            at = bisect.bisect_left(strings, s)
            closure += _trie_nodes(strings, at, s)
            strings.insert(at, s)
        longest = max([parent.max_string_length, *map(len, added)])
        if any(len(s) == longest for s in removed):
            longest = None
        total = parent.total_string_length()
        for changes, sign in ((delta.inserts, 1), (delta.deletes, -1)):
            for _, rows in changes:
                total += sign * sum(len(s) for row in rows for s in row)
        return {
            "prefix_closure_size": closure,
            "max_string_length": longest,
            "total_string_length": total,
        }

    def insert(
        self, relation: str, rows: Iterable[Union[str, Sequence[str]]]
    ) -> DatabaseVersion:
        """Apply an insert delta; returns the new head version."""
        return self.apply(inserts={relation: rows})

    def delete(
        self, relation: str, rows: Iterable[Union[str, Sequence[str]]]
    ) -> DatabaseVersion:
        """Apply a delete delta; returns the new head version."""
        return self.apply(deletes={relation: rows})

    def apply(
        self,
        inserts: Optional[Mapping[str, Iterable]] = None,
        deletes: Optional[Mapping[str, Iterable]] = None,
    ) -> DatabaseVersion:
        """Apply one combined delta atomically; returns the new head.

        Rows already present are not re-inserted and absent rows are not
        re-deleted (the recorded :class:`Delta` is the *effective*
        change); a delta that changes nothing returns the current head
        without creating a version.  Inserting into an unknown relation
        extends the schema (a ``plan_epoch`` bump); deleting from one is
        an error.
        """
        with self._lock:
            parent = self._head
            db = parent.database
            alphabet = db.alphabet
            eff_ins: dict[str, frozenset[Row]] = {}
            eff_del: dict[str, frozenset[Row]] = {}
            for name, rows in (inserts or {}).items():
                normalized = _normalize_rows(name, rows, alphabet)
                if name in db.schema:
                    arity = db.schema.arity(name)
                    if normalized and len(next(iter(normalized))) != arity:
                        raise ArityError(
                            f"insert into {name!r}/{arity} with arity "
                            f"{len(next(iter(normalized)))} rows"
                        )
                    effective = frozenset(normalized - db.relation(name))
                else:
                    effective = frozenset(normalized)
                if effective:
                    eff_ins[name] = effective
            for name, rows in (deletes or {}).items():
                if name not in db.schema:
                    raise DeltaError(
                        f"cannot delete from unknown relation {name!r}"
                    )
                if name in eff_ins:
                    raise DeltaError(
                        f"relation {name!r} appears in both inserts and "
                        "deletes of one delta; split into two deltas"
                    )
                normalized = _normalize_rows(name, rows, alphabet)
                effective = frozenset(normalized & db.relation(name))
                if effective:
                    eff_del[name] = effective
            if not eff_ins and not eff_del:
                METRICS.inc("delta.noops")
                return parent

            delta = Delta(
                inserts=tuple(sorted(eff_ins.items())),
                deletes=tuple(sorted(eff_del.items())),
            )
            # Adom maintenance from refcounts: O(|delta|), not O(|db|).
            added: set[str] = set()
            removed: set[str] = set()
            for rows in eff_ins.values():
                for row in rows:
                    for s in row:
                        self._adom_counts[s] += 1
                        if self._adom_counts[s] == 1:
                            added.add(s)
            for rows in eff_del.values():
                for row in rows:
                    for s in row:
                        self._adom_counts[s] -= 1
                        if self._adom_counts[s] == 0:
                            del self._adom_counts[s]
                            removed.add(s)
            adom_changed = bool(added or removed)
            adom = (db.adom | added) - removed if adom_changed else db.adom
            number = parent.version + 1
            fingerprint = chained_fingerprint(parent.fingerprint, delta.digest())
            child_db = evolve_database(
                db, eff_ins, eff_del, fingerprint, adom,
                version=(self, number),
                **self._statistics(db, delta, added, removed),
            )
            schema_changed = child_db.schema is not db.schema
            child = DatabaseVersion(
                version=number,
                fingerprint=fingerprint,
                database=child_db,
                plan_epoch=parent.plan_epoch
                + (1 if adom_changed or schema_changed else 0),
                delta=delta,
                adom_changed=adom_changed,
                schema_changed=schema_changed,
            )
            self._versions[number] = child
            self._head = child
            while len(self._versions) > self._keep:
                # Prune oldest; pinned DatabaseVersion refs stay valid.
                del self._versions[min(self._versions)]

        METRICS.inc("delta.versions")
        METRICS.inc(
            "delta.rows_inserted", sum(len(r) for r in eff_ins.values())
        )
        METRICS.inc(
            "delta.rows_deleted", sum(len(r) for r in eff_del.values())
        )
        return child
