"""Warm-start persistence: spill compiled automata to disk, reload lazily.

Every restart of the query service used to cold-start the session-wide
:class:`~repro.engine.cache.BoundedCache`: the first request for each
query re-ran the products/determinizations/minimizations the previous
process had already paid for, and a fleet restart turned into a
recompilation stampede.  This module closes that gap:

* :meth:`WarmStartStore.spill` writes each cache entry to its own file
  under a warm directory, **keyed by the entry's structural cache key**
  (which already embeds the canonical formula fingerprint, structure,
  alphabet, slack, and — for database-dependent subformulas — the
  content-addressed database fingerprint, see
  :func:`repro.engine.cache.formula_key`).  Re-registering extensionally
  equal data after a restart therefore reproduces the same keys and the
  spill is directly reusable;
* each file is **versioned and checksummed**: a JSON header records the
  format version and the SHA-256 of the pickled payload, and a reader
  that finds a version it does not speak, a checksum mismatch, or a
  truncated file silently treats it as a miss (counted, never fatal) —
  a corrupt spill can cost a recompile, not an outage;
* loading is **lazy**: :meth:`WarmStartStore.attach` installs
  :meth:`WarmStartStore.load` as the cache's miss loader
  (:meth:`~repro.engine.cache.BoundedCache.attach_loader`), so a
  rebooted server reads exactly the entries its traffic asks for, one
  file per miss, instead of deserializing the whole directory at boot;
* values ride as pickles of the cache's own immutable entries — for the
  automata stage that is ``(RelationAutomaton, variables)``, whose DFA
  pickles as its symbol table, flat ``array('i')`` transition table and
  acceptance bitmap; for a whole-result stage it is the
  :class:`~repro.eval.result.QueryResult`, which holds its rows (or,
  for an answer the automata engine gave, its relation automaton).
  Values that do not pickle (e.g. anything holding a live closure) are
  simply skipped at spill time.

Writes are atomic (temp file + ``os.replace``) so concurrent services
sharing a warm directory can only ever observe whole files.  The store
is deliberately *not* a cache coherence protocol: files are only added
or wholly replaced, and a stale entry is impossible by construction —
keys are content-addressed on both the query and the data.

Usage (the service wires this up from ``ServiceConfig(warm_dir=...)``)::

    from repro.engine.cache import BoundedCache
    from repro.engine.warmstart import WarmStartStore

    store = WarmStartStore("/var/tmp/repro-warm")
    cache = BoundedCache()
    store.attach(cache)      # lazy reload on every miss from now on
    ...                      # serve traffic
    store.spill(cache)       # persist what this process compiled
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import tempfile
import threading
from typing import Any, Hashable, Optional

from repro.engine.cache import BoundedCache
from repro.engine.metrics import METRICS

__all__ = ["WARM_FORMAT_VERSION", "WarmStartStore", "key_digest"]

#: Bump on any incompatible change to the file layout *or* to the pickled
#: value classes; readers skip files from other versions.  Version 2: a
#: ``RelationAutomaton.dfa`` is the flat-array ``DFA``, no longer a dict one.
#: Version 3: whole-result entries are a rows ``QueryResult``, no longer a
#: ``(variables, RelationAutomaton)`` pair.
WARM_FORMAT_VERSION = 3

#: First bytes of every warm file, before the JSON header line.
_MAGIC = b"repro-warm\n"


def key_digest(key: Hashable) -> str:
    """Stable filename digest of a structural cache key.

    Cache keys are tuples of strings, symbol tuples, ints, and ``None``
    (see :func:`repro.engine.cache.formula_key`), whose ``repr`` is
    deterministic across processes — unlike ``hash()``, which is
    randomized per interpreter for strings.
    """
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


class WarmStartStore:
    """A directory of spilled cache entries, one checksummed file each."""

    def __init__(self, directory: str):
        self.directory = os.path.abspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self._lock = threading.Lock()
        # Local counters (METRICS carries the session-wide view).
        self.loads = 0
        self.load_misses = 0
        self.load_rejected = 0
        self.spilled = 0
        self.spill_skipped = 0

    # -------------------------------------------------------------- layout

    def path_for(self, key: Hashable) -> str:
        return os.path.join(self.directory, key_digest(key) + ".warm")

    def entry_count(self) -> int:
        """Number of warm files currently on disk."""
        try:
            return sum(
                1 for name in os.listdir(self.directory)
                if name.endswith(".warm")
            )
        except OSError:
            return 0

    # ---------------------------------------------------------------- load

    def load(self, key: Hashable) -> Optional[Any]:
        """The spilled value for ``key``, or ``None``.

        This is the miss-loader installed by :meth:`attach`.  Every
        failure mode — missing file, foreign format version, checksum
        mismatch, truncated payload, unpicklable content — degrades to a
        plain miss; warm files are an optimization, never a correctness
        dependency.
        """
        path = self.path_for(key)
        try:
            with open(path, "rb") as f:
                raw = f.read()
        except OSError:
            with self._lock:
                self.load_misses += 1
            return None
        value = self._decode(raw, key)
        if value is None:
            with self._lock:
                self.load_rejected += 1
            METRICS.inc("warmstart.load_rejected")
            return None
        with self._lock:
            self.loads += 1
        METRICS.inc("warmstart.loads")
        return value

    def _decode(self, raw: bytes, key: Hashable) -> Optional[Any]:
        if not raw.startswith(_MAGIC):
            return None
        body = raw[len(_MAGIC):]
        newline = body.find(b"\n")
        if newline < 0:
            return None
        try:
            header = json.loads(body[:newline].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        payload = body[newline + 1:]
        if (
            not isinstance(header, dict)
            or header.get("format") != WARM_FORMAT_VERSION
            or header.get("key") != key_digest(key)
            or header.get("len") != len(payload)
            or header.get("sha256") != hashlib.sha256(payload).hexdigest()
        ):
            return None
        try:
            return pickle.loads(payload)
        except Exception:
            # A payload that checksums but does not unpickle means the
            # value classes moved without a format bump; still a miss.
            return None

    def attach(self, cache: BoundedCache) -> None:
        """Install :meth:`load` as ``cache``'s lazy miss loader."""
        cache.attach_loader(self.load)

    # --------------------------------------------------------------- spill

    def spill_entry(self, key: Hashable, value: Any) -> bool:
        """Persist one entry; returns ``False`` when the value won't pickle
        (skipped, e.g. codegen closures) — an existing file is reused
        as-is (keys are content-addressed, rewrites are redundant)."""
        path = self.path_for(key)
        if os.path.exists(path):
            return True
        try:
            buf = io.BytesIO()
            pickle.dump(value, buf, protocol=pickle.HIGHEST_PROTOCOL)
            payload = buf.getvalue()
        except Exception:
            with self._lock:
                self.spill_skipped += 1
            METRICS.inc("warmstart.spill_skipped")
            return False
        header = json.dumps({
            "format": WARM_FORMAT_VERSION,
            "key": key_digest(key),
            "len": len(payload),
            "sha256": hashlib.sha256(payload).hexdigest(),
        }, sort_keys=True).encode("utf-8")
        # Atomic publish: a reader either sees the whole file or no file.
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(_MAGIC)
                f.write(header)
                f.write(b"\n")
                f.write(payload)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return False
        with self._lock:
            self.spilled += 1
        METRICS.inc("warmstart.spilled")
        return True

    def spill(self, cache: BoundedCache) -> dict:
        """Persist every picklable entry of ``cache``; returns counters."""
        written = skipped = 0
        for key, value in cache.entries():
            if self.spill_entry(key, value):
                written += 1
            else:
                skipped += 1
        return {"written": written, "skipped": skipped}

    # ---------------------------------------------------------------- misc

    def stats(self) -> dict:
        with self._lock:
            return {
                "directory": self.directory,
                "entries": self.entry_count(),
                "loads": self.loads,
                "load_misses": self.load_misses,
                "load_rejected": self.load_rejected,
                "spilled": self.spilled,
                "spill_skipped": self.spill_skipped,
            }

    def __repr__(self) -> str:
        return f"WarmStartStore({self.directory!r})"
