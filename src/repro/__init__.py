"""strqlib — string operations in query languages.

A complete, executable reproduction of *"String Operations in Query
Languages"* (Benedikt, Libkin, Schwentick, Segoufin — PODS 2001): the
relational calculi RC(S), RC(S_left), RC(S_reg), RC(S_len) over string
databases, their relational algebras, safety analyses, and the problematic
RC_concat, together with the automata-theoretic machinery that makes all
of it decidable.

Quick start::

    from repro import Query, StringDatabase

    db = StringDatabase("01", {"R": {"0110", "001"}})
    # The paper's Section 2 example: strings in R ending with "10".
    q = Query("R(x) & last(x, '0') & exists y: ext1(y, x) & last(y, '1')")
    q.run(db).rows()        # [('0110',)]
    q.is_safe_on(db)        # True

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
reproduction of every figure and claim.
"""

from repro.core import (
    Query,
    StringDatabase,
    Table,
    definable_language,
    language_is_star_free,
    parse_query,
)
from repro.database import Database, Schema
from repro.errors import (
    EvaluationError,
    EvaluationTimeout,
    ParseError,
    ReproError,
    ServiceError,
    SignatureError,
    UndecidableError,
    UnsafeQueryError,
)
from repro.logic import parse_formula
from repro.strings import ABC, Alphabet, BINARY
from repro.structures import S, S_left, S_len, S_reg

# Importing it registers the ``sharded`` backend beside the built-ins.
from repro.shard import backend as _sharded_backend  # noqa: E402,F401

__version__ = "1.0.0"

__all__ = [
    "ABC",
    "Alphabet",
    "BINARY",
    "Database",
    "EvaluationError",
    "EvaluationTimeout",
    "ParseError",
    "Query",
    "ReproError",
    "S",
    "S_left",
    "S_len",
    "S_reg",
    "Schema",
    "ServiceError",
    "SignatureError",
    "StringDatabase",
    "Table",
    "UndecidableError",
    "UnsafeQueryError",
    "definable_language",
    "language_is_star_free",
    "parse_formula",
    "parse_query",
]
