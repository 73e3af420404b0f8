"""Horizontal partitioning of databases across shards.

Two schemes, both deterministic and machine-independent (the hash is
SHA-1 over the row content, not Python's per-process salted ``hash``):

``hash``
    Each *tuple* goes to ``sha1(row) % shards``.  Hashing the row value
    (not the relation name) means identical rows of different relations
    co-locate, every relation spreads across all shards, and adding a
    shard only moves ``1/n`` of the data.  This is the scheme the
    scatter certificates of :mod:`repro.algebra.distribute` target.

``relation``
    Each *relation* goes whole to ``sha1(name) % shards``.  Queries that
    only touch one shard's relations — join shapes included — route to
    that single worker unchanged.

Every partition keeps the **full schema** (relations not stored on a
shard are present and empty), so any shard can evaluate any query of
the schema without "unknown relation" errors, and the empty-relation
semantics do the right thing for the merge.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Union

from repro.core.query import StringDatabase
from repro.database.instance import Database
from repro.engine.cache import database_fingerprint
from repro.errors import ShardError

__all__ = [
    "SCHEMES",
    "ShardedDatabase",
    "partition_database",
    "relation_assignment",
    "shard_database",
    "shard_of_relation",
    "shard_of_row",
]

SCHEMES = ("hash", "relation")

#: Field separator for row hashing — outside every alphabet the library
#: accepts (alphabets are printable single characters).
_SEP = "\x1f"


def _stable_hash(text: str) -> int:
    return int.from_bytes(hashlib.sha1(text.encode("utf-8")).digest()[:8], "big")


def shard_of_row(row: tuple[str, ...], shards: int) -> int:
    """The shard storing ``row`` under hash-by-tuple partitioning."""
    return _stable_hash(_SEP.join(row)) % shards


def shard_of_relation(name: str, shards: int) -> int:
    """The shard storing relation ``name`` under by-relation partitioning."""
    return _stable_hash("relation:" + name) % shards


def relation_assignment(database: Database, shards: int) -> dict[str, int]:
    """Relation name -> owning shard, for by-relation partitioning."""
    return {
        name: shard_of_relation(name, shards)
        for name in database.relation_names
    }


def partition_database(
    database: Database, shards: int, scheme: str = "hash"
) -> list[Database]:
    """Split ``database`` into ``shards`` disjoint horizontal partitions.

    The partitions union back to the original relation-by-relation, and
    each carries the original schema (missing relations stay, empty).
    """
    if shards < 1:
        raise ShardError(f"shards must be >= 1, got {shards}", retryable=False)
    if scheme not in SCHEMES:
        raise ShardError(
            f"unknown partitioning scheme {scheme!r} "
            f"(supported: {', '.join(SCHEMES)})",
            retryable=False,
        )
    buckets: list[dict[str, list[tuple[str, ...]]]] = [
        {name: [] for name in database.relation_names} for _ in range(shards)
    ]
    for name in database.relation_names:
        if scheme == "relation":
            owner = shard_of_relation(name, shards)
            buckets[owner][name].extend(database.relation(name))
        else:
            for row in database.relation(name):
                buckets[shard_of_row(row, shards)][name].append(row)
    return [
        Database(database.alphabet, bucket, schema=database.schema)
        for bucket in buckets
    ]


@dataclass(frozen=True)
class ShardedDatabase:
    """One registered database, partitioned: the whole plus its parts.

    ``database`` is the placed snapshot — the one object the ``sharded``
    backend routes to these parts (see :mod:`repro.shard.backend`).
    ``fingerprint`` is its fingerprint, which the stats endpoint reports,
    and ``part_fingerprints`` the parts', which
    :meth:`~repro.shard.coordinator.ShardCoordinator.apply_delta` chains
    forward instead of rehashing a part.
    """

    name: str
    database: Database
    scheme: str
    parts: tuple[Database, ...]
    fingerprint: str
    part_fingerprints: tuple[str, ...]
    relation_shards: Optional[dict[str, int]] = None

    @property
    def shards(self) -> int:
        return len(self.parts)

    def part_sizes(self) -> list[int]:
        """Tuples per shard (the skew the stats endpoint surfaces)."""
        return [part.size for part in self.parts]


def shard_database(
    name: str,
    database: Union[Database, StringDatabase],
    shards: int,
    scheme: str = "hash",
) -> ShardedDatabase:
    """Partition + fingerprint a database for registration."""
    db = database.db if isinstance(database, StringDatabase) else database
    parts = partition_database(db, shards, scheme)
    return ShardedDatabase(
        name=name,
        database=db,
        scheme=scheme,
        parts=tuple(parts),
        fingerprint=database_fingerprint(db),
        part_fingerprints=tuple(database_fingerprint(p) for p in parts),
        relation_shards=(
            relation_assignment(db, shards) if scheme == "relation" else None
        ),
    )
