"""Warm plans answered on the transport's event loop under a deadline
budget (``QueryService.answer_on_loop``).

A request whose plan the plan cache holds and whose compiled closure is
warm runs on the calling thread, under ``LOOP_RUN_BUDGET``, instead of
waiting for a worker; a never-seen text of such a template is parsed
and its binding checked there first.  These tests pin that such an
answer is the automata oracle's and byte-for-byte a worker's (timings
aside), that an overrun falls back to a worker once per plan, that it
cannot hold up another connection, and which requests never run on the
loop.
"""

import io
import json
import random
import re
import socket
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

import repro.service.service as service_module
from repro.core import Query, StringDatabase
from repro.engine import reset_caches
from repro.engine.cache import BoundedCache
from repro.engine.metrics import METRICS
from repro.eval.automata_engine import AutomataEngine
from repro.service import QueryService, RunRequest, serve_stdio

from tests.test_service import _stop, _tcp_server


@pytest.fixture(autouse=True)
def _fresh_cache():
    reset_caches()
    METRICS.reset()
    yield
    reset_caches()


#: perfbench read_write's four read shapes over one written relation W:
#: negation, last, union and the SQL layer's rendering of LIKE '0%!1'
#: ESCAPE '!'.
READS = [
    ("W(x) & !R(x)", "S"),
    ("W(x) & last(x, '1')", "S"),
    ("S(y) | W(y)", "S"),
    ("W(x) & matches(x, '(0.*)1')", "S_reg"),
]

BASE = {"R": {"01", "110", "1"}, "S": {"0", "11", "011"}, "W": {"011", "00"}}

#: Strings a chain writes to W; none is longer than the longest string of
#: BASE, so no write changes an exact plan input.
POOL = ["0", "1", "01", "011", "101", "001", "111", "110", "00", "10"]


def _untimed(line: str) -> str:
    return re.sub(r'"(queue_ms|exec_ms)": [0-9.e+-]+', r'"\1": 0', line)


class _Connection:
    """One NDJSON connection: send a request line, read its reply lines."""

    def __init__(self, server):
        host, port = server.server_address[:2]
        self.sock = socket.create_connection((host, port), timeout=30)
        self.replies = self.sock.makefile("r", encoding="utf-8")

    def lines(self, body: dict) -> list[str]:
        self.sock.sendall((json.dumps(body) + "\n").encode())
        out = []
        for line in self.replies:
            out.append(_untimed(line.rstrip("\n")))
            if json.loads(line).get("frame") in (None, "done"):
                return out
        raise ConnectionError("server closed the connection")

    def close(self) -> None:
        self.replies.close()
        self.sock.close()


def _database(relations: dict) -> StringDatabase:
    return StringDatabase(
        "01", {name: [(s,) for s in rows] for name, rows in relations.items()}
    )


def _oracle(relations: dict, text: str, structure: str) -> list[list[str]]:
    db = _database(relations)
    q = Query(text, structure=structure, alphabet=db.alphabet)
    result = AutomataEngine(q.structure, db.db).run(q.formula)
    return [list(row) for row in result.sorted_rows()]


def _jobs(svc) -> list:
    """Count the requests ``svc`` hands to a worker."""
    jobs = []
    inner = svc._evaluate

    def counted(request):
        jobs.append(request)
        return inner(request)

    svc._evaluate = counted
    return jobs


# ------------------------------------------------------------ differential


def test_inline_answers_match_the_oracle_and_a_worker():
    """Insert/delete chains over the four read shapes, each request sent
    to a service that answers on its loop and to one that sends every
    request to a worker: the frames agree byte for byte (timings aside)
    and the rows are the automata oracle's."""
    loop_svc = QueryService(workers=2, cache=BoundedCache(4096, "test.loop"))
    pool_svc = QueryService(workers=2, cache=BoundedCache(4096, "test.pool"))
    pool_svc.answer_on_loop = lambda request, run=True: None
    pool_jobs = _jobs(pool_svc)
    servers = [_tcp_server(loop_svc), _tcp_server(pool_svc)]
    conns = [_Connection(server) for server, _ in servers]
    mirror = {name: set(rows) for name, rows in BASE.items()}
    try:
        for conn in conns:
            conn.lines({"op": "register_db", "name": "main", "db": {
                "alphabet": "01",
                "relations": {
                    name: [[s] for s in sorted(rows)]
                    for name, rows in BASE.items()
                },
            }})

        def both(body: dict) -> list[str]:
            inline, pooled = (conn.lines(body) for conn in conns)
            assert inline == pooled, body
            return inline

        @settings(max_examples=25, deadline=None, derandomize=True)
        @given(st.lists(
            st.tuples(st.booleans(), st.sampled_from(POOL)),
            min_size=1, max_size=5,
        ))
        def chain(writes):
            for insert, row in writes:
                op = "insert" if insert else "delete"
                reply = json.loads(both({
                    "op": op, "db": "main", "relation": "W", "rows": [[row]],
                })[0])
                assert reply["ok"], reply
                if insert:
                    mirror["W"].add(row)
                else:
                    mirror["W"].discard(row)
                for text, structure in READS:
                    (line,) = both({
                        "op": "run", "db": "main", "query": text,
                        "structure": structure,
                    })
                    reply = json.loads(line)
                    assert reply["ok"], reply
                    assert reply["rows"] == _oracle(mirror, text, structure)

        chain()
    finally:
        for conn in conns:
            conn.close()
        for server, thread in servers:
            _stop(server, thread)
    assert METRICS.get("service.inline_runs") > 0
    assert METRICS.get("service.inline_overruns") == 0
    # The pool twin answered every read through a worker.
    assert len(pool_jobs) == METRICS.get("service.requests") / 2


def test_both_transports_answer_a_chain_alike():
    """The stdio loop takes the same loop answers as TCP: a write-then-read
    chain gets the same reply lines on either transport, and both run
    reads inline."""
    lines = [json.dumps({"op": "register_db", "id": 0, "name": "main", "db": {
        "alphabet": "01",
        "relations": {n: [[s] for s in sorted(r)] for n, r in BASE.items()},
    }})]
    for i, row in enumerate(["101", "001", "111"]):
        lines.append(json.dumps({
            "op": "insert", "id": f"w{i}", "db": "main", "relation": "W",
            "rows": [[row]],
        }))
        for j, (text, structure) in enumerate(READS):
            lines.append(json.dumps({
                "op": "run", "id": f"r{i}.{j}", "db": "main", "query": text,
                "structure": structure,
            }))
    lines.append(json.dumps({"op": "run", "id": "s", "db": "main",
                             "query": READS[0][0], "stream": True,
                             "page_size": 1}))

    stdout = io.StringIO()
    stdin = io.StringIO("".join(line + "\n" for line in lines))
    assert serve_stdio(QueryService(workers=2), stdin, stdout) == 0
    stdio = [_untimed(line) for line in stdout.getvalue().splitlines()]
    stdio_inline = METRICS.get("service.inline_runs")
    reset_caches()
    METRICS.reset()
    server, thread = _tcp_server(QueryService(workers=2))
    conn = _Connection(server)
    try:
        tcp = [out for line in lines for out in conn.lines(json.loads(line))]
    finally:
        conn.close()
        _stop(server, thread)
    assert stdio == tcp
    assert stdio_inline > 0
    assert METRICS.get("service.inline_runs") == stdio_inline


# ------------------------------------------------------------------ bounds


def _words(n: int, seed: int = 7) -> list[str]:
    rng = random.Random(seed)
    words: set[str] = set()
    while len(words) < n:
        words.add("".join(rng.choice("01") for _ in range(rng.randint(3, 12))))
    return sorted(words)


def _absent(rows: set[str]) -> str:
    """A string of length 7 not in ``rows``: writing it makes a new version
    without changing the longest string, an exact plan input."""
    return next(
        w for w in (format(i, "07b") for i in range(128)) if w not in rows
    )


class TestOverrun:
    """A warm plan that does not finish within the budget is answered by a
    worker, and is not run on the loop again until a replan."""

    QUERY = "R(x) & last(x, '1')"

    def test_an_overrun_falls_back_to_a_worker_once(self, monkeypatch):
        # 600 rows: the closure's scan reaches its deadline checkpoint
        # (every 256 rows), where a budget of a nanosecond has expired.
        monkeypatch.setattr(service_module, "LOOP_RUN_BUDGET", 1e-9)
        rows = {"R": set(_words(600)), "S": {"0"}}
        svc = QueryService(workers=2)
        svc.register_database("main", _database(rows))
        jobs = _jobs(svc)
        server, thread = _tcp_server(svc)
        conn = _Connection(server)

        def read() -> list[list[str]]:
            (line,) = conn.lines({"op": "run", "db": "main", "query": self.QUERY})
            return json.loads(line)["rows"]

        def write(relation: str) -> None:
            row = _absent(rows.get(relation, set()))
            (line,) = conn.lines({"op": "insert", "db": "main",
                                  "relation": relation, "rows": [[row]]})
            assert json.loads(line)["ok"]
            rows.setdefault(relation, set()).add(row)

        try:
            assert read() == _oracle(rows, self.QUERY, "S")
            assert len(jobs) == 1
            # A new version: the result cache misses, the plan is reused
            # and warm, so it runs on the loop — and overruns.
            write("R")
            assert read() == _oracle(rows, self.QUERY, "S")
            assert len(jobs) == 2
            assert METRICS.get("service.inline_overruns") == 1
            # The next version's read goes straight to a worker.
            write("R")
            assert read() == _oracle(rows, self.QUERY, "S")
            assert len(jobs) == 3
            assert METRICS.get("service.inline_overruns") == 1
            # A new relation changes the schema: the worker replans, and
            # the new plan is tried on the loop again.
            write("T")
            assert read() == _oracle(rows, self.QUERY, "S")
            assert len(jobs) == 4
            write("R")
            assert read() == _oracle(rows, self.QUERY, "S")
            assert len(jobs) == 5
            assert METRICS.get("service.inline_overruns") == 2
            assert METRICS.get("service.inline_runs") == 0
        finally:
            conn.close()
            _stop(server, thread)

    def test_an_overrunning_run_does_not_hold_up_a_ping(self):
        """With the real budget, a join that takes a worker a good part of
        a second gives up the loop after the budget: another connection's
        pings are answered within 0.25 s throughout."""
        query = "R(x) & R(y) & x << y"
        rows = {"R": set(_words(2000)), "S": {"0"}}
        svc = QueryService(workers=2)
        svc.register_database("main", _database(rows))
        server, thread = _tcp_server(svc)
        heavy, probe = _Connection(server), _Connection(server)
        body = {"op": "run", "db": "main", "query": query}
        try:
            assert json.loads(heavy.lines(body)[0])["ok"]  # warm the closure
            row = _absent(rows["R"])
            assert json.loads(heavy.lines({
                "op": "insert", "db": "main", "relation": "R",
                "rows": [[row]],
            })[0])["ok"]
            rows["R"].add(row)
            answer: list = []
            sender = threading.Thread(
                target=lambda: answer.append(heavy.lines(body)), daemon=True
            )
            sender.start()
            latencies = []
            while sender.is_alive() or not latencies:
                t0 = time.perf_counter()
                assert json.loads(probe.lines({"op": "ping"})[0])["ok"]
                latencies.append(time.perf_counter() - t0)
                time.sleep(0.005)
            sender.join(30)
            assert not sender.is_alive()
            assert max(latencies) < 0.25, latencies
            (line,) = answer[0]
            assert json.loads(line)["rows"] == _oracle(rows, query, "S")
            assert METRICS.get("service.inline_overruns") == 1
        finally:
            heavy.close()
            probe.close()
            _stop(server, thread)


# ------------------------------------------------------------ pool cases


def _takes_the_pool(svc, request) -> None:
    """The probe returns ``None`` for ``request`` and runs nothing."""
    before = METRICS.snapshot()
    assert svc.answer_on_loop(request) is None
    after = METRICS.snapshot()
    for name in ("service.inline_runs", "service.inline_overruns",
                 "service.requests", "engine.algebra.runs"):
        assert after.get(name, 0) == before.get(name, 0), name


class TestTakesThePool:
    """Requests the loop leaves to a worker even though their plan is in
    the plan cache: each probe returns ``None`` and runs nothing."""

    QUERY = "R(x) & last(x, '1')"

    @pytest.fixture
    def svc(self):
        svc = QueryService(workers=2)
        svc.register_database("main", _database(
            {"R": {"0110", "001", "11"}, "S": {"0", "01"}}
        ))
        yield svc
        svc.close()

    @staticmethod
    def _warm_new_version(svc, **fields) -> RunRequest:
        """Run the query once through the pool, then write, so the next
        request misses the result cache with a warm, reusable plan."""
        request = RunRequest(query=TestTakesThePool.QUERY, database="main",
                             **fields)
        assert svc.execute(request).ok
        svc.insert_rows("main", "R", [["0101"]])
        return request

    def test_a_warm_plan_runs_on_the_loop(self, svc):
        request = self._warm_new_version(svc)
        response = svc.answer_on_loop(request)
        assert response.rows == [["001"], ["0101"], ["11"]]
        assert response.rows == svc.execute(request).rows
        assert METRICS.get("service.inline_runs") == 1
        # Lookups only: the same state is not answered without a run.
        svc.insert_rows("main", "R", [["0111"]])
        assert svc.answer_on_loop(request, run=False) is None

    def test_a_closed_service(self, svc):
        request = self._warm_new_version(svc)
        svc.close()
        _takes_the_pool(svc, request)

    def test_a_spent_timeout(self, svc):
        request = self._warm_new_version(svc)
        request.timeout = 0.0
        _takes_the_pool(svc, request)
        assert svc.execute(request).error.code == "timeout"

    def test_a_timeout_shorter_than_the_budget(self, svc):
        request = self._warm_new_version(svc)
        request.timeout = service_module.LOOP_RUN_BUDGET / 2
        _takes_the_pool(svc, request)

    def test_a_cold_closure(self, svc):
        from repro.algebra.codegen import closure_cache

        request = self._warm_new_version(svc)
        closure_cache().clear()
        _takes_the_pool(svc, request)
        assert svc.execute(request).rows == [["001"], ["0101"], ["11"]]

    @pytest.mark.parametrize("engine", ["direct", "automata"])
    def test_a_backend_that_does_not_opt_in(self, svc, engine):
        request = self._warm_new_version(svc, engine=engine)
        _takes_the_pool(svc, request)
        assert svc.execute(request).rows == [["001"], ["0101"], ["11"]]

    def test_a_limit_request(self, svc):
        request = self._warm_new_version(svc, limit=5)
        _takes_the_pool(svc, request)

    def test_a_batch_item(self, svc):
        server, thread = _tcp_server(svc)
        conn = _Connection(server)
        try:
            self._warm_new_version(svc)
            (line,) = conn.lines({"op": "batch", "requests": [
                {"query": self.QUERY, "db": "main"},
                {"query": "S(y)", "db": "main"},
            ]})
            first, _ = json.loads(line)["results"]
            assert first["rows"] == [["001"], ["0101"], ["11"]]
            assert METRICS.get("service.inline_runs") == 0
        finally:
            conn.close()
            _stop(server, thread)


# -------------------------------------------------- never-seen query texts


def _fresh(c: str, var: str) -> str:
    return f" & '{c}' <<= {var}"


#: bench_service.py's twelve shapes, each taking a string constant ``c``
#: (a prefix condition, or a pattern's head) so that every request can
#: send a query text the service has never seen.
SHAPES = [
    (lambda c: "R(x) & last(x, '0')" + _fresh(c, "x"), "S"),
    (lambda c: "R(x) & last(x, '1')" + _fresh(c, "x"), "S"),
    (lambda c: "R(x) & !S(x)" + _fresh(c, "x"), "S"),
    (lambda c: "(S(y) | R(y))" + _fresh(c, "y"), "S"),
    (lambda c: "R(x)" + _fresh(c, "x") + " & exists adom y: S(y) & y <<= x",
     "S"),
    (lambda c: "S(y) & exists adom x: R(x) & y <<= x" + _fresh(c, "x"), "S"),
    (lambda c: "exists x: R(x) & last(x, '0')" + _fresh(c, "x"), "S"),
    (lambda c: "R(x) & S(y) & y <<= x" + _fresh(c, "x"), "S"),
    (lambda c: f"R(x) & matches(x, '{c}(00)*')", "S_reg"),
    (lambda c: f"R(x) & matches(x, '{c}.*(11)*')", "S_reg"),
    (lambda c: f"R(x) & matches(x, '({c}.*)1')", "S_reg"),
    (lambda c: f"S(y) & matches(y, '{c}.*')", "S_reg"),
]


def _bench_relations(seed: int = 3) -> dict:
    """R: 100 strings of length 4..12; S: 16 strings of length 1..4 (the
    sizes of the service benchmarks' database)."""
    rng = random.Random(seed)

    def distinct(lengths) -> set[str]:
        out: set[str] = set()
        for length in lengths:
            word = "".join(rng.choice("01") for _ in range(length))
            while word in out:
                word = "".join(rng.choice("01") for _ in range(length))
            out.add(word)
        return out

    return {
        "R": distinct(4 + i % 9 for i in range(100)),
        "S": distinct((1,) * 2 + (2,) * 4 + (3,) * 5 + (4,) * 5),
    }


def _register(conn: _Connection, relations: dict) -> None:
    (line,) = conn.lines({"op": "register_db", "name": "main", "db": {
        "alphabet": "01",
        "relations": {n: [[s] for s in sorted(r)] for n, r in relations.items()},
    }})
    assert json.loads(line)["ok"]


class TestNeverSeenTexts:
    """A text the alias map does not know, of a shape whose plan is cached
    and whose closure is warm, is parsed and run on the loop."""

    def test_frames_match_a_worker_and_run_on_the_loop(self, monkeypatch):
        """Each shape warmed up once, then sent with a fresh constant,
        plain and streamed: the loop service answers every one on its
        loop (``service.inline_runs``), and its frames are the pool
        twin's byte for byte, timings aside.  The budget is raised so a
        loaded host cannot overrun it: what it bounds is pinned
        elsewhere in this module."""
        monkeypatch.setattr(service_module, "LOOP_RUN_BUDGET", 1.0)
        relations = _bench_relations()
        loop_svc = QueryService(workers=2, cache=BoundedCache(4096, "test.loop"))
        pool_svc = QueryService(workers=2, cache=BoundedCache(4096, "test.pool"))
        pool_svc.answer_on_loop = lambda request, run=True: None
        loop_jobs = _jobs(loop_svc)
        servers = [_tcp_server(loop_svc), _tcp_server(pool_svc)]
        conns = [_Connection(server) for server, _ in servers]
        try:
            for conn in conns:
                _register(conn, relations)
            for shape, structure in SHAPES:
                body = {"op": "run", "db": "main", "structure": structure,
                        "query": shape("111")}
                for conn in conns:
                    assert json.loads(conn.lines(body)[0])["ok"], body
            warm_jobs = len(loop_jobs)
            for n, (shape, structure) in enumerate(SHAPES):
                for c, stream in (("0", False), ("01", True)):
                    body = {"op": "run", "db": "main", "structure": structure,
                            "query": shape(c)}
                    if stream:
                        body.update(stream=True, page_size=4)
                    before = METRICS.get("service.inline_runs")
                    inline, pooled = (conn.lines(body) for conn in conns)
                    assert inline == pooled, body
                    assert json.loads(inline[-1])["ok"], body
                    assert METRICS.get("service.inline_runs") == before + 1, body
            assert len(loop_jobs) == warm_jobs
            assert METRICS.get("service.inline_overruns") == 0
        finally:
            for conn in conns:
                conn.close()
            for server, thread in servers:
                _stop(server, thread)

    def test_a_ping_is_not_held_up(self):
        """With the real budget, never-seen texts of every shape sent
        back to back over one connection: another connection's pings are
        answered within 0.25 s throughout."""
        svc = QueryService(workers=2)
        server, thread = _tcp_server(svc)
        sender_conn, probe = _Connection(server), _Connection(server)
        _register(sender_conn, _bench_relations())
        for shape, structure in SHAPES:
            assert json.loads(sender_conn.lines({
                "op": "run", "db": "main", "structure": structure,
                "query": shape("111"),
            })[0])["ok"]
        replies: list = []

        def send() -> None:
            for k in range(120):
                shape, structure = SHAPES[k % len(SHAPES)]
                replies.append(json.loads(sender_conn.lines({
                    "op": "run", "db": "main", "structure": structure,
                    "query": shape(format(k, "b")),
                })[-1]))

        sender = threading.Thread(target=send, daemon=True)
        try:
            sender.start()
            latencies = []
            while sender.is_alive() or not latencies:
                t0 = time.perf_counter()
                assert json.loads(probe.lines({"op": "ping"})[0])["ok"]
                latencies.append(time.perf_counter() - t0)
                time.sleep(0.002)
            sender.join(30)
            assert not sender.is_alive()
            assert max(latencies) < 0.25, latencies
            assert len(replies) == 120 and all(r["ok"] for r in replies)
            assert METRICS.get("service.inline_runs") > 0
        finally:
            sender_conn.close()
            probe.close()
            _stop(server, thread)


class TestNeverSeenTextsTakeThePool:
    """Never-seen texts the loop leaves to a worker: the probe returns
    ``None`` without raising, and the worker gives the answer or the
    structured error it always gave."""

    @pytest.fixture
    def svc(self):
        svc = QueryService(workers=2)
        svc.register_database("main", _database(
            {"R": {"0110", "001", "11"}, "S": {"0", "01"}}
        ))
        yield svc
        svc.close()

    def _warm(self, svc, text: str, structure: str = "S") -> None:
        assert svc.execute(RunRequest(query=text, database="main",
                                      structure=structure)).ok

    def test_a_text_over_the_parse_cap(self, svc):
        self._warm(svc, "R(x) & '1' <<= x")
        text = "R(x) & '" + "0" * service_module.LOOP_PARSE_MAX_CHARS + "' <<= x"
        request = RunRequest(query=text, database="main")
        _takes_the_pool(svc, request)
        assert svc.execute(request).rows == []
        short = RunRequest(query="R(x) & '0' <<= x", database="main")
        assert svc.answer_on_loop(short).rows == [["001"], ["0110"]]

    def test_an_iff(self, svc):
        """``<->`` copies both sides: a worker parses it, whatever its
        length."""
        self._warm(svc, "R(x) & (last(x, '0') <-> '1' <<= x)")
        request = RunRequest(query="R(x) & (last(x, '0') <-> '0' <<= x)",
                             database="main")
        _takes_the_pool(svc, request)
        assert svc._prepared_text.peek((request.query, "S")) is None

    def test_a_parse_error(self, svc):
        request = RunRequest(query="R(x) &", database="main")
        _takes_the_pool(svc, request)
        assert svc.execute(request).error.code == "parse"

    @pytest.mark.parametrize("text", [
        "(" * 200 + "R(x)" + ")" * 200,
        "!" * 200 + "R(x)",
        " <-> ".join(["R(x)"] * 16),
    ], ids=["parentheses", "negations", "iff-chain"])
    def test_nesting_the_parser_refuses(self, svc, monkeypatch, text):
        monkeypatch.setattr(service_module, "LOOP_PARSE_MAX_CHARS", 1024)
        request = RunRequest(query=text, database="main")
        _takes_the_pool(svc, request)
        error = svc.execute(request).error
        assert error.code == "parse", error

    def test_a_signature_error(self, svc):
        self._warm(svc, "R(x) & matches(x, '0.*')")
        request = RunRequest(query="R(x) & matches(x, '(00)*')",
                             database="main")
        _takes_the_pool(svc, request)
        assert svc.execute(request).error.code == "invalid"
        # A failed check marks nothing: the next binding runs here.
        template = svc.prepare("R(x) & matches(x, '0.*')").template
        assert template.overran == {}
        response = svc.answer_on_loop(
            RunRequest(query="R(x) & matches(x, '1.*')", database="main")
        )
        assert response.rows == [["11"]]

    def test_a_check_over_the_budget(self, svc):
        """A pattern whose star-freeness check outlasts the budget (its
        transition monoid has 456,211 elements) leaves the loop within a
        few budgets."""
        self._warm(svc, "R(x) & matches(x, '0.*')")
        request = RunRequest(
            query="R(x) & matches(x, '(((1|0)11(0|1)((0)*1|11(1|0)))*)*')",
            database="main",
        )
        t0 = time.perf_counter()
        _takes_the_pool(svc, request)
        assert time.perf_counter() - t0 < 0.5

    def test_a_plan_cache_miss(self, svc):
        request = RunRequest(query="R(x) & last(x, '0') & '1' <<= x",
                             database="main")
        _takes_the_pool(svc, request)
        assert svc.execute(request).rows == []
        # The template's plan is cached now: a new binding runs here.
        response = svc.answer_on_loop(
            RunRequest(query="R(x) & last(x, '0') & '0' <<= x",
                       database="main")
        )
        assert response.rows == [["0110"]]
        assert METRICS.get("service.inline_runs") == 1

    def test_a_batch_item_is_not_parsed(self, svc):
        self._warm(svc, "R(x) & '1' <<= x")
        request = RunRequest(query="R(x) & '0' <<= x", database="main")
        assert svc.answer_on_loop(request, run=False) is None
        assert svc._prepared_text.peek(("R(x) & '0' <<= x", "S")) is None
