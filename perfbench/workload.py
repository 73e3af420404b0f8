"""Seeded inputs for the service benchmark, with reference answers.

Everything here is plain Python and independent of the program under
test: the database, the request stream of every client, and the answer
each request must get are all derived from ``--seed``.  The reference
evaluator understands exactly the query shapes generated below.

The query mix is the one the repository's own service benchmark
(``benchmarks/bench_service.py``) defines as its workload: the core
shapes under structure ``S`` (``last``, negation, disjunction,
``exists adom`` quantifiers on either side, a boolean query, a
two-variable prefix join) and the SQL-pattern shapes under ``S_reg``
(SIMILAR TO and LIKE with ESCAPE, rendered as ``matches()`` atoms the way
the SQL layer renders them).  Part of the requests ask for a streamed
answer (``row_batch`` frames and a ``done`` frame).

Three workloads:

* ``hot_lookup``  -- the twelve queries of that mix, each sent plain and
  streamed, repeated by every client, so the plan, automaton and result
  caches answer nearly every request;
* ``adhoc_mix``   -- the same shapes with a string constant taken from a
  per-client counter, so no query text is ever sent twice and each
  request is parsed, planned and compiled;
* ``read_write``  -- each client inserts into and deletes from a
  relation of its own and reads it back through negation, ``last``,
  disjunction and pattern shapes, so every read meets a new database
  version and active domain.
"""

from __future__ import annotations

import itertools
import random
import re

ALPHABET = "01"
#: String lengths of the unary relations R (100 strings, 11 or 12 of each
#: length 4..12) and S (16 strings: every string of length 1 and 2, five
#: of length 3, five of length 4).  A seed picks which strings, never how
#: many of each length: the two-variable prefix shapes cost up to a third
#: more on one random draw of lengths than on another.
R_LENGTHS = tuple(4 + i % 9 for i in range(100))
S_LENGTHS = (1,) * 2 + (2,) * 4 + (3,) * 5 + (4,) * 5
W_SIZE = 24           # per-client relation W<c>: strings of length 3..8
W_POOL = 48           # strings a client's writes draw from
STREAM_PAGE = 16      # rows per row_batch frame of a streamed answer
ADHOC_MIN_LEN = 4     # adhoc constants start at this length and grow


def _word(rng: random.Random, lo: int, hi: int) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randint(lo, hi)))


def _distinct(rng: random.Random, lengths) -> set:
    """Distinct random strings, one of each length in ``lengths``."""
    out: set = set()
    for length in lengths:
        word = _word(rng, length, length)
        while word in out:
            word = _word(rng, length, length)
        out.add(word)
    return out


# ------------------------------------------------------------- SQL patterns


def like_regex(pattern: str, escape: str | None = None) -> str:
    """A SQL LIKE pattern as regex text, in the form the SQL layer renders
    it: ``%`` is ``.*``, ``_`` is ``.``, the escape character makes the next
    symbol literal, and concatenation nests to the left, ``((ab)c)d``.
    The same text is a Python regex."""
    tokens = []
    i = 0
    while i < len(pattern):
        ch = pattern[i]
        if escape is not None and ch == escape:
            tokens.append(pattern[i + 1])
            i += 2
            continue
        tokens.append({"%": ".*", "_": "."}.get(ch, ch))
        i += 1
    text = tokens[0]
    for n, token in enumerate(tokens[1:], 1):
        text = (f"({text})" if n > 1 else text) + token
    return text


def similar_regex(pattern: str) -> str:
    """A SIMILAR TO pattern without classes or escapes as regex text."""
    return pattern.replace("%", ".*").replace("_", ".")


# ------------------------------------------------------------------ shapes
#
# A shape maps a string constant ``c`` to a Query.  The empty constant
# (or, for the pattern shapes, the constant bench_service.py uses) gives
# that benchmark's query text exactly; any other constant adds a prefix
# condition or pattern head.  A reference maps the current relations to
# (columns, rows) exactly as the service answers: columns sorted, rows
# sorted, a boolean as [[]] or [].


class Query:
    __slots__ = ("text", "structure", "reference")

    def __init__(self, text: str, structure: str, reference):
        self.text = text
        self.structure = structure
        self.reference = reference


def _and_prefix(c: str, var: str) -> str:
    return f" & '{c}' <<= {var}" if c else ""


def _unary(rows) -> tuple:
    return ["x"], [[x] for x in sorted(rows)]


def last_shape(a: str):
    def shape(c: str) -> Query:
        return Query(
            f"R(x) & last(x, '{a}')" + _and_prefix(c, "x"), "S",
            lambda db: _unary(
                x for x in db["R"] if x.endswith(a) and x.startswith(c)
            ),
        )
    return shape


def not_in_s(c: str) -> Query:
    return Query(
        "R(x) & !S(x)" + _and_prefix(c, "x"), "S",
        lambda db: _unary(
            x for x in db["R"] if x.startswith(c) and x not in db["S"]
        ),
    )


def union(c: str) -> Query:
    text = f"(S(y) | R(y)){_and_prefix(c, 'y')}" if c else "S(y) | R(y)"
    return Query(
        text, "S",
        lambda db: (["y"], [
            [y] for y in sorted(db["S"] | db["R"]) if y.startswith(c)
        ]),
    )


def adom_left(c: str) -> Query:
    return Query(
        "R(x)" + _and_prefix(c, "x") + " & exists adom y: S(y) & y <<= x", "S",
        lambda db: _unary(
            x for x in db["R"]
            if x.startswith(c) and any(x.startswith(y) for y in db["S"])
        ),
    )


def adom_right(c: str) -> Query:
    return Query(
        "S(y) & exists adom x: R(x) & y <<= x" + _and_prefix(c, "x"), "S",
        lambda db: (["y"], [
            [y] for y in sorted(db["S"])
            if any(x.startswith(y) and x.startswith(c) for x in db["R"])
        ]),
    )


def exists_last(c: str) -> Query:
    return Query(
        "exists x: R(x) & last(x, '0')" + _and_prefix(c, "x"), "S",
        lambda db: ([], [[]] if any(
            x.endswith("0") and x.startswith(c) for x in db["R"]
        ) else []),
    )


def join(c: str) -> Query:
    return Query(
        "R(x) & S(y) & y <<= x" + _and_prefix(c, "x"), "S",
        lambda db: (["x", "y"], [
            [x, y] for x in sorted(db["R"]) if x.startswith(c)
            for y in sorted(db["S"]) if x.startswith(y)
        ]),
    )


def _matches(rel: str, var: str, regex: str) -> Query:
    compiled = re.compile(regex)
    return Query(
        f"{rel}({var}) & matches({var}, '{regex}')", "S_reg",
        lambda db: ([var], [
            [v] for v in sorted(db[rel]) if compiled.fullmatch(v)
        ]),
    )


def similar_even_zeros(c: str) -> Query:
    return _matches("R", "x", similar_regex(f"{c}(00)*"))


def similar_ones_tail(c: str) -> Query:
    return _matches("R", "x", similar_regex(f"{c}%(11)*"))


def like_escape(c: str) -> Query:
    return _matches("R", "x", like_regex(f"{c}%!1", "!"))


def like_s(c: str) -> Query:
    return _matches("S", "y", like_regex(f"{c}%"))


#: (shape, the constant bench_service.py instantiates it with).
SHAPES = (
    (last_shape("0"), ""),
    (last_shape("1"), ""),
    (not_in_s, ""),
    (union, ""),
    (adom_left, ""),
    (adom_right, ""),
    (exists_last, ""),
    (join, ""),
    (similar_even_zeros, ""),
    (similar_ones_tail, "0"),
    (like_escape, "0"),
    (like_s, "0"),
)


# ----------------------------------------------- read_write: a client's own W
#
# Only shapes whose engine choice does not hinge on the data: on a
# two-variable prefix condition (the join, the adom quantifiers) the
# planner weighs adom^2 direct checks against a (prefix closure)^2
# codegen estimate, and as writes shift that ratio the choice flips
# between engines three times apart in latency.


def w_last(rel: str) -> Query:
    return Query(
        f"{rel}(x) & last(x, '1')", "S",
        lambda db: _unary(x for x in db[rel] if x.endswith("1")),
    )


def w_union(rel: str) -> Query:
    return Query(
        f"S(y) | {rel}(y)", "S",
        lambda db: (["y"], [[y] for y in sorted(db["S"] | db[rel])]),
    )


def w_not_in_r(rel: str) -> Query:
    return Query(
        f"{rel}(x) & !R(x)", "S",
        lambda db: _unary(x for x in db[rel] if x not in db["R"]),
    )


def w_like(rel: str) -> Query:
    return _matches(rel, "x", like_regex("0%!1", "!"))


# ------------------------------------------------------------------ inputs


def make_database(rng: random.Random, clients: int) -> tuple[dict, list]:
    """Relations as sets of strings, R, S and one W<c> per client, and each
    client's pool: W_POOL strings (length 3..8) in no other relation or
    pool, of which W<c> starts with the first W_SIZE.  A client only ever
    writes strings of its pool, so its relation keeps the same statistics
    however long the run is."""
    db = {
        "R": _distinct(rng, R_LENGTHS),
        "S": _distinct(rng, S_LENGTHS),
    }
    taken = db["R"] | db["S"]
    pools = []
    for c in range(clients):
        pool: list = []
        while len(pool) < W_POOL:
            w = _word(rng, 3, 8)
            if w not in taken:
                taken.add(w)
                pool.append(w)
        pools.append(pool)
        db[f"W{c}"] = set(pool[:W_SIZE])
    return db, pools


def register_request(db: dict) -> dict:
    return {
        "op": "register_db",
        "name": "main",
        "db": {
            "alphabet": ALPHABET,
            "relations": {rel: sorted([v] for v in rows) for rel, rows in db.items()},
        },
    }


def run_request(query: Query, stream: bool) -> dict:
    body = {
        "op": "run", "db": "main", "query": query.text,
        "structure": query.structure,
    }
    if stream:
        body.update(stream=True, page_size=STREAM_PAGE)
    return body


class Client:
    """One closed-loop client's request stream.

    ``next_request()`` returns the next request body; ``check(response)``
    says whether the answer is right and, for writes, updates the mirror
    of the relation this client owns.  A streamed answer is handed to
    ``check`` as one response: the ``done`` frame's fields plus ``columns``
    and ``rows`` gathered from the ``row_batch`` frames.  Requests of one
    client are strictly sequential, so its mirror is always the server's
    state.
    """

    def __init__(self, ops):
        self._ops = ops
        self._pending = None

    def next_request(self) -> dict:
        body, self._pending = next(self._ops)
        return body

    def check(self, response: dict) -> bool:
        if not response.get("ok"):
            return False
        return self._pending(response)


def _same_answer(response: dict, expected: tuple) -> bool:
    """Columns and rows as expected; a streamed answer must also count
    its rows right (row order across frames is not part of the protocol)."""
    columns, rows = expected
    if response.get("columns") != columns:
        return False
    if "row_count" in response:
        got = response.get("rows") or []
        return response["row_count"] == len(got) and sorted(got) == rows
    return response.get("rows") == rows


def _answer_checker(db: dict, query: Query):
    def check(response: dict) -> bool:
        return _same_answer(response, query.reference(db))
    return check


def _expected_checker(db: dict, query: Query):
    """Like :func:`_answer_checker` for relations that never change: the
    reference answer is computed once."""
    expected = query.reference(db)

    def check(response: dict) -> bool:
        return _same_answer(response, expected)
    return check


def _hot_ops(rng: random.Random, db: dict, requests: list):
    """Every hot request once per round, in a fresh seeded order each round."""
    checks = [
        (run_request(query, stream), _expected_checker(db, query))
        for query, stream in requests
    ]
    while True:
        rng.shuffle(checks)
        yield from checks


class ConstantRepeated(Exception):
    """An ad hoc client was about to send a query text a second time."""


def adhoc_constant(n: int, mask: int) -> str:
    """The ``n``-th ad hoc constant: binary strings in order of length
    from ``ADHOC_MIN_LEN`` up, each length's strings permuted by XOR with
    the seeded ``mask``.  Distinct ``n`` give distinct strings."""
    length = ADHOC_MIN_LEN
    while n >= 2 ** length:
        n -= 2 ** length
        length += 1
    return format(n ^ (mask & (2 ** length - 1)), f"0{length}b")


def _adhoc_ops(rng: random.Random, db: dict, client: int, clients: int,
               mask: int):
    """A fresh query text on every request, from a counter that never
    wraps: request ``k`` of client ``c`` gets constant number
    ``k * clients + c``.  Each round sends every shape once, in a fresh
    seeded order, and streams a quarter of them, each shape every fourth
    round.  (Clients running the mix in one fixed order fall into step,
    and how often their two slowest shapes meet then sets p90.)  Sent
    texts are remembered, and a repeat stops the run."""
    sent: set = set()
    order = list(range(len(SHAPES)))
    k = 0
    for round_no in itertools.count():
        rng.shuffle(order)
        for shape_no in order:
            shape, _ = SHAPES[shape_no]
            query = shape(adhoc_constant(k * clients + client, mask))
            if query.text in sent:
                raise ConstantRepeated(f"query text sent twice: {query.text}")
            sent.add(query.text)
            stream = (shape_no + round_no) % 4 == 3
            yield run_request(query, stream), _answer_checker(db, query)
            k += 1


def _read_write_ops(rng: random.Random, db: dict, client: int, pool: list):
    """Insert a row of the pool that is not in the relation, run each read
    once, delete a row, run each read once: forever.  Every write changes
    the active domain (pool strings are in no other relation), so every
    read meets a version its query has not been planned for.  With four
    reads per write, no request kind is half or a tenth of the mix, so
    neither p50 nor p90 sits on the border between two kinds.  No read
    is streamed: a streamed read takes about three plain ones, and as a
    fifth of the mix it alone would set p90.  The reads come in a fresh
    seeded order each time, so clients do not fall into step."""
    rel = f"W{client}"
    reads = [w_not_in_r(rel), w_last(rel), w_union(rel), w_like(rel)]

    def write_checker(op: str, row: str):
        def check(response: dict) -> bool:
            if "version" not in response:
                return False
            if op == "insert":
                db[rel].add(row)
            else:
                db[rel].discard(row)
            return True
        return check

    while True:
        row = rng.choice([w for w in pool if w not in db[rel]])
        yield (
            {"op": "insert", "db": "main", "relation": rel, "rows": [[row]]},
            write_checker("insert", row),
        )
        rng.shuffle(reads)
        for query in reads:
            yield run_request(query, False), _answer_checker(db, query)
        row = rng.choice(sorted(db[rel]))
        yield (
            {"op": "delete", "db": "main", "relation": rel, "rows": [[row]]},
            write_checker("delete", row),
        )
        rng.shuffle(reads)
        for query in reads:
            yield run_request(query, False), _answer_checker(db, query)


class Workload:
    """The seeded inputs of one run: database, warm-up requests, clients.

    ``warmup`` lists (request, checker) pairs the set-up phase sends once
    so that lazy initialisation and first compilations are not timed.
    """

    def __init__(self, name: str, seed: int, clients: int):
        rng = random.Random(f"{name}:{seed}")
        self.db, pools = make_database(rng, clients)
        db = self.db
        if name == "hot_lookup":
            queries = [shape(c) for shape, c in SHAPES]
            self.warmup = [
                (run_request(q, False), _answer_checker(db, q)) for q in queries
            ]
            requests = [(q, stream) for q in queries for stream in (False, True)]
            streams = [
                _hot_ops(random.Random(rng.random()), db, requests)
                for _ in range(clients)
            ]
        elif name == "adhoc_mix":
            # Warm-up constants are shorter than any measured one, so no
            # measured query text is ever served from the warm-up's work.
            warm = "1" * (ADHOC_MIN_LEN - 1)
            self.warmup = [
                (run_request(q, False), _answer_checker(db, q))
                for q in (shape(warm) for shape, _ in SHAPES)
            ]
            mask = rng.getrandbits(64)
            streams = [
                _adhoc_ops(random.Random(rng.random()), db, c, clients, mask)
                for c in range(clients)
            ]
        elif name == "read_write":
            self.warmup = [
                (run_request(q, False), _answer_checker(db, q))
                for c in range(clients)
                for q in (
                    w_not_in_r(f"W{c}"), w_last(f"W{c}"), w_union(f"W{c}"),
                    w_like(f"W{c}"),
                )
            ]
            streams = [
                _read_write_ops(random.Random(rng.random()), db, c, pools[c])
                for c in range(clients)
            ]
        else:
            raise ValueError(f"unknown workload {name!r}")
        self.clients = [Client(ops) for ops in streams]


WORKLOADS = ("hot_lookup", "adhoc_mix", "read_write")
