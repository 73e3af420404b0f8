"""Tests for the concurrent query service: registry, prepared queries,
worker pool, admission control, deadlines, and the NDJSON protocol over
stdio and TCP.

The acceptance properties (ISSUE 2): a 1 ms-deadline request against an
adversarial query returns a *structured* retryable timeout over the serve
protocol — no hang, no traceback — and concurrent execution through the
pool returns exactly the serial answers.

ISSUE 9 adds the asyncio front end: streamed ``row_batch``/``done``
frames (identical rows to a plain run on every backend), per-client
token-bucket quotas, cooperative cancellation when a client disconnects
mid-request, graceful drain on shutdown, and a client-side read deadline
with a structured retryable error.
"""

import asyncio
import io
import json
import re
import socket
import sys
import threading
import time

import pytest

from repro.core import Query, StringDatabase
from repro.engine import reset_caches
from repro.engine.metrics import METRICS
from repro.errors import (
    ClientReadTimeoutError,
    EvaluationTimeout,
    QueueFullError,
    QuotaExceededError,
    ReproError,
    RequestCancelledError,
    ServiceClosedError,
    ServiceError,
)
from repro.service import (
    AsyncServiceClient,
    AsyncTCPQueryServer,
    Dispatcher,
    FairQueue,
    PreparedQuery,
    QueryService,
    RunRequest,
    ServiceClient,
    ServiceConfig,
    classify_error,
    serve_stdio,
    serve_tcp,
)
from repro.service.server import respond
from repro.service.service import PREPARED_CAP

from tests.test_timeouts import ADVERSARIAL_QUERY, ADVERSARIAL_STRINGS


@pytest.fixture(autouse=True)
def _fresh_cache():
    reset_caches()
    METRICS.reset()
    yield
    reset_caches()


def small_db():
    return StringDatabase(
        "01", {"R": {"0110", "001", "11"}, "S": {"0", "01"}}
    )


def adversarial_db():
    return StringDatabase("01", {"R": [(s,) for s in ADVERSARIAL_STRINGS]})


@pytest.fixture
def service():
    svc = QueryService(workers=4)
    svc.register_database("main", small_db())
    yield svc
    svc.close()


class TestRegistry:
    def test_register_returns_fingerprint(self, service):
        fp = service.register_database("other", small_db())
        assert isinstance(fp, str) and len(fp) == 40
        assert service.database_names() == ["main", "other"]

    def test_reregistering_changes_fingerprint_with_contents(self, service):
        fp1 = service.register_database("d", StringDatabase("01", {"R": {"0"}}))
        fp2 = service.register_database("d", StringDatabase("01", {"R": {"1"}}))
        assert fp1 != fp2
        assert service.database_names() == ["d", "main"]

    def test_unknown_database_is_a_structured_error(self, service):
        resp = service.execute(RunRequest(query="R(x)", database="nope"))
        assert not resp.ok
        assert resp.error.code == "invalid"
        assert not resp.error.retryable
        assert "nope" in resp.error.message

    def test_unregister(self, service):
        service.register_database("gone", small_db())
        service.unregister_database("gone")
        assert "gone" not in service.database_names()


class TestPreparedQueries:
    def test_prepare_is_interned(self, service):
        a = service.prepare("R(x) & last(x, '0')")
        b = service.prepare("R(x) & last(x, '0')")
        assert a is b
        assert isinstance(a, PreparedQuery)

    def test_prepared_executes_like_text(self, service):
        prep = service.prepare("R(x) & last(x, '0')")
        r1 = service.execute(RunRequest(query=prep, database="main"))
        r2 = service.execute(
            RunRequest(query="R(x) & last(x, '0')", database="main")
        )
        assert r1.ok and r2.ok
        assert r1.rows == r2.rows == [["0110"]]

    def test_plan_reused_until_statistics_drift(self, service):
        prep = service.prepare("R(x) & last(x, '0')")
        p1 = prep.plan_for(service._entry("main"))
        assert prep.plan_for(service._entry("main")) is p1
        # Other contents with the same statistics reuse the plan.
        service.register_database("main", StringDatabase(
            "01", {"R": {"1001", "110", "00"}, "S": {"1", "10"}}
        ))
        plans = METRICS.get("planner.plans")
        drifts = METRICS.get("planner.replans.drift")
        assert prep.plan_for(service._entry("main")) is p1
        assert METRICS.get("planner.plans") == plans
        # Contents past the drift window (three R rows to seven) replan.
        service.register_database("main", StringDatabase("01", {
            "R": {"1001", "110", "00", "0100", "111", "01", "10"},
            "S": {"1", "10"},
        }))
        p3 = prep.plan_for(service._entry("main"))
        assert p3 is not p1
        assert METRICS.get("planner.plans") == plans + 1
        assert METRICS.get("planner.replans.drift") == drifts + 1

    def test_parse_error_is_structured(self, service):
        resp = service.execute(RunRequest(query="R(x", database="main"))
        assert not resp.ok
        assert resp.error.code == "parse"
        assert not resp.error.retryable


class TestExecution:
    def test_single_request(self, service):
        resp = service.execute(
            RunRequest(query="R(x) & last(x, '0')", database="main")
        )
        assert resp.ok
        assert resp.columns == ["x"]
        assert resp.rows == [["0110"]]
        # Prepared service queries prewarm the fused closure, so the
        # planner may pick the algebra engine over direct/automata here.
        assert resp.engine in ("automata", "direct", "algebra")
        assert resp.finite is True
        assert resp.exec_seconds >= 0

    def test_results_match_the_library(self, service):
        for src in ["R(x) & last(x, '0')", "S(y)", "R(x) & !S(x)"]:
            expected = [list(t) for t in Query(src).run(small_db()).rows()]
            resp = service.execute(RunRequest(query=src, database="main"))
            assert resp.ok and resp.rows == expected

    def test_batch_keeps_order_and_isolates_errors(self, service):
        responses = service.execute_batch([
            RunRequest(query="R(x) & last(x, '0')", database="main"),
            RunRequest(query="R(x", database="main"),
            RunRequest(query="S(y)", database="main"),
            RunRequest(query="R(x)", database="nowhere"),
        ])
        assert [r.ok for r in responses] == [True, False, True, False]
        assert responses[0].rows == [["0110"]]
        assert responses[1].error.code == "parse"
        assert responses[2].rows == [["0"], ["01"]]
        assert responses[3].error.code == "invalid"

    def test_infinite_output_needs_limit(self, service):
        resp = service.execute(RunRequest(query="last(x, '0')", database="main"))
        assert not resp.ok and resp.error.code == "unsafe"
        resp = service.execute(
            RunRequest(query="last(x, '0')", database="main", limit=3)
        )
        assert resp.ok and resp.finite is False and len(resp.rows) == 3

    def test_deadline_returns_structured_timeout(self):
        svc = QueryService(workers=2)
        svc.register_database("adv", adversarial_db())
        try:
            t0 = time.monotonic()
            resp = svc.execute(
                RunRequest(query=ADVERSARIAL_QUERY, database="adv",
                           timeout=0.001)
            )
            wall = time.monotonic() - t0
            assert not resp.ok
            assert resp.error.code == "timeout"
            assert resp.error.retryable
            assert wall < 2.0
            assert METRICS.get("service.timeouts") == 1
        finally:
            svc.close()

    def test_default_timeout_from_config(self):
        svc = QueryService(workers=1, default_timeout=0.001)
        svc.register_database("adv", adversarial_db())
        try:
            resp = svc.execute(
                RunRequest(query=ADVERSARIAL_QUERY, database="adv")
            )
            assert not resp.ok and resp.error.code == "timeout"
        finally:
            svc.close()

    def test_pool_survives_bad_requests(self, service):
        # Workers must outlive parse errors, unknown dbs, and timeouts.
        for _ in range(3):
            service.execute(RunRequest(query="R(x", database="main"))
        resp = service.execute(RunRequest(query="S(y)", database="main"))
        assert resp.ok and resp.rows == [["0"], ["01"]]


class TestAdmissionControl:
    def _occupy(self, svc, budget=0.5):
        """Fill the single worker with an adversarial request, and wait
        until it has actually been dequeued."""
        pending = svc.submit(RunRequest(
            query=ADVERSARIAL_QUERY, database="adv", timeout=budget,
        ))
        deadline = time.monotonic() + 5
        while svc.stats()["pending"] > 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        return pending

    def test_reject_backpressure(self):
        svc = QueryService(workers=1, max_pending=1, backpressure="reject")
        svc.register_database("adv", adversarial_db())
        try:
            busy = self._occupy(svc)
            queued = svc.submit(RunRequest(
                query=ADVERSARIAL_QUERY, database="adv", timeout=0.5,
            ))
            with pytest.raises(QueueFullError) as exc_info:
                svc.submit(RunRequest(query=ADVERSARIAL_QUERY, database="adv"))
            assert "retry" in str(exc_info.value)
            assert METRICS.get("service.rejected") == 1
            # Both admitted requests finish with their own deadlines.
            assert busy.wait(10).error.code == "timeout"
            assert queued.wait(10).error.code == "timeout"
        finally:
            svc.close()

    def test_rejected_batch_items_get_structured_errors(self):
        svc = QueryService(workers=1, max_pending=1, backpressure="reject")
        svc.register_database("adv", adversarial_db())
        try:
            self._occupy(svc)
            responses = svc.execute_batch([
                RunRequest(query=ADVERSARIAL_QUERY, database="adv",
                           timeout=0.4)
                for _ in range(4)
            ])
            codes = {r.error.code for r in responses if not r.ok}
            assert "overloaded" in codes
            overloaded = [
                r for r in responses if not r.ok and r.error.code == "overloaded"
            ]
            assert all(r.error.retryable for r in overloaded)
        finally:
            svc.close()

    def test_block_backpressure_waits_for_space(self):
        svc = QueryService(workers=1, max_pending=1, backpressure="block")
        svc.register_database("adv", adversarial_db())
        svc.register_database("main", small_db())
        try:
            self._occupy(svc, budget=0.3)
            svc.submit(RunRequest(query=ADVERSARIAL_QUERY, database="adv",
                                  timeout=0.3))
            # Queue full; a blocking submit must wait, then succeed.
            resp = svc.execute(RunRequest(query="S(y)", database="main"))
            assert resp.ok and resp.rows == [["0"], ["01"]]
        finally:
            svc.close()

    def test_block_backpressure_respects_request_deadline(self):
        svc = QueryService(workers=1, max_pending=1, backpressure="block")
        svc.register_database("adv", adversarial_db())
        try:
            self._occupy(svc, budget=1.0)
            svc.submit(RunRequest(query=ADVERSARIAL_QUERY, database="adv",
                                  timeout=1.0))
            t0 = time.monotonic()
            with pytest.raises(EvaluationTimeout):
                svc.submit(RunRequest(query=ADVERSARIAL_QUERY, database="adv",
                                      timeout=0.05))
            assert time.monotonic() - t0 < 1.0
        finally:
            svc.close()

    def test_blocked_submit_fails_promptly_when_the_service_closes(self):
        # A thread parked in a block-mode submit waits on the queue's
        # condition, so close() wakes it at once: no polling slice.
        svc = QueryService(workers=1, max_pending=1, backpressure="block")
        svc.register_database("adv", adversarial_db())
        try:
            self._occupy(svc, budget=1.0)
            svc.submit(RunRequest(query=ADVERSARIAL_QUERY, database="adv",
                                  timeout=1.0))
            outcome = []

            def blocked_submit():
                try:
                    svc.submit(RunRequest(query="R(x)", database="adv"))
                except ReproError as exc:
                    outcome.append((exc, time.monotonic()))

            submitter = threading.Thread(target=blocked_submit)
            submitter.start()
            time.sleep(0.1)
            assert submitter.is_alive() and not outcome
            closed_at = time.monotonic()
            svc.close(drain=False, timeout=0)
            submitter.join(5)
            assert len(outcome) == 1
            exc, raised_at = outcome[0]
            assert isinstance(exc, ServiceClosedError)
            assert raised_at - closed_at < 0.2
        finally:
            svc.close()


class TestLifecycle:
    def test_close_drains_queued_requests(self):
        svc = QueryService(workers=2)
        svc.register_database("main", small_db())
        handles = [
            svc.submit(RunRequest(query="R(x) & last(x, '0')", database="main"))
            for _ in range(8)
        ]
        svc.close(drain=True)
        assert all(h.wait(5).ok for h in handles)

    def test_close_without_drain_fails_pending(self):
        svc = QueryService(workers=1, max_pending=8)
        svc.register_database("adv", adversarial_db())
        busy = svc.submit(RunRequest(query=ADVERSARIAL_QUERY, database="adv",
                                     timeout=0.3))
        deadline = time.monotonic() + 5
        while svc.stats()["pending"] > 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        queued = svc.submit(RunRequest(query="R(x)", database="adv"))
        svc.close(drain=False)
        resp = queued.wait(5)
        assert not resp.ok
        assert resp.error.code == "unavailable"
        assert resp.error.retryable
        assert busy.wait(5).error.code == "timeout"

    def test_submit_after_close_raises(self):
        svc = QueryService(workers=1)
        svc.close()
        with pytest.raises(ServiceClosedError):
            svc.submit(RunRequest(query="R(x)", database="main"))
        # execute() surfaces the same thing structurally.
        resp = svc.execute(RunRequest(query="R(x)", database="main"))
        assert not resp.ok and resp.error.code == "unavailable"

    def test_context_manager_closes(self):
        with QueryService(workers=1) as svc:
            svc.register_database("main", small_db())
            assert svc.execute(
                RunRequest(query="R(x)", database="main")
            ).ok
        assert svc.closed

    def test_config_validation(self):
        with pytest.raises(ServiceError):
            ServiceConfig(workers=0)
        with pytest.raises(ServiceError):
            ServiceConfig(max_pending=0)
        with pytest.raises(ServiceError):
            ServiceConfig(backpressure="drop")

    def test_stats_shape(self, service):
        service.execute(RunRequest(query="R(x)", database="main"))
        stats = service.stats()
        assert stats["workers"] == 4
        assert stats["databases"] == ["main"]
        assert stats["counters"]["service.requests"] >= 1
        assert "hits" in stats["cache"]


class TestErrorClassification:
    def test_codes_and_retryability(self):
        cases = [
            (EvaluationTimeout("t"), "timeout", True),
            (QueueFullError("q"), "overloaded", True),
            (QuotaExceededError("quota"), "quota", True),
            (RequestCancelledError("gone"), "cancelled", True),
            (ServiceClosedError("c"), "unavailable", True),
            (ReproError("r"), "invalid", False),
            (ValueError("boom"), "internal", False),
        ]
        for exc, code, retryable in cases:
            info = classify_error(exc)
            assert info.code == code
            assert info.retryable is retryable
        assert "boom" in classify_error(ValueError("boom")).message


class TestStdioProtocol:
    def _serve(self, lines):
        svc = QueryService(workers=2)
        stdin = io.StringIO("".join(line + "\n" for line in lines))
        stdout = io.StringIO()
        code = serve_stdio(svc, stdin=stdin, stdout=stdout)
        assert code == 0
        assert svc.closed
        return [json.loads(line) for line in stdout.getvalue().splitlines()]

    def test_round_trip(self):
        out = self._serve([
            json.dumps({"op": "ping", "id": 1}),
            json.dumps({
                "op": "register_db", "id": 2, "name": "main",
                "db": {"alphabet": "01",
                       "relations": {"R": [["0110"], ["001"], ["11"]]}},
            }),
            json.dumps({"op": "run", "id": 3,
                        "query": "R(x) & last(x, '0')", "db": "main"}),
            json.dumps({"op": "list_dbs", "id": 4}),
        ])
        assert out[0] == {"id": 1, "pong": True, "version": 1, "ok": True}
        assert out[1]["ok"] and len(out[1]["fingerprint"]) == 40
        assert out[2]["ok"] and out[2]["rows"] == [["0110"]]
        assert out[3]["databases"] == ["main"]

    def test_malformed_lines_are_structured_errors(self):
        out = self._serve([
            "this is not json",
            json.dumps({"op": "warp", "id": 2}),
            json.dumps({"id": 3}),
            json.dumps({"op": "run", "id": 4, "db": "main"}),
        ])
        assert [o["ok"] for o in out] == [False, False, False, False]
        assert out[0]["id"] is None
        assert "unknown op" in out[1]["error"]["message"]
        assert all(not o["error"]["retryable"] for o in out)

    def test_shutdown_op_stops_the_loop(self):
        out = self._serve([
            json.dumps({"op": "shutdown", "id": 1}),
            json.dumps({"op": "ping", "id": 2}),  # never reached
        ])
        assert len(out) == 1
        assert out[0] == {"id": 1, "closing": True, "drain": True, "ok": True}

    def test_eof_without_shutdown_exits_cleanly(self):
        assert self._serve([]) == []


class TestTCPProtocol:
    @pytest.fixture
    def server(self):
        svc = QueryService(workers=4)
        svc.register_database("main", small_db())
        svc.register_database("adv", adversarial_db())
        server = serve_tcp(svc, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server
        server.shutdown()
        thread.join(5)
        server.close_service()

    def _client(self, server):
        host, port = server.server_address[:2]
        return ServiceClient(host, port)

    def test_round_trip(self, server):
        with self._client(server) as client:
            assert client.ping()["pong"] is True
            resp = client.run("R(x) & last(x, '0')", db="main")
            assert resp["ok"] and resp["rows"] == [["0110"]]

    def test_prepared_and_batch(self, server):
        with self._client(server) as client:
            prep = client.prepare("R(x) & last(x, '0')")
            assert prep["ok"] and prep["variables"] == ["x"]
            resp = client.batch([
                {"prepared": prep["prepared"], "db": "main"},
                {"query": "S(y)", "db": "main"},
                {"query": "R(x", "db": "main"},
            ])
            results = resp["results"]
            assert results[0]["rows"] == [["0110"]]
            assert results[1]["rows"] == [["0"], ["01"]]
            assert results[2]["error"]["code"] == "parse"

    def test_acceptance_1ms_deadline_is_structured_not_a_hang(self, server):
        # ISSUE 2 acceptance: 1 ms deadline against the adversarial query,
        # over the serve protocol -> structured retryable timeout, fast.
        with self._client(server) as client:
            t0 = time.monotonic()
            resp = client.run(ADVERSARIAL_QUERY, db="adv", timeout_ms=1)
            wall = time.monotonic() - t0
            assert resp["ok"] is False
            assert resp["error"]["code"] == "timeout"
            assert resp["error"]["retryable"] is True
            assert "Traceback" not in resp["error"]["message"]
            assert wall < 2.0

    def test_register_db_over_the_wire(self, server):
        with self._client(server) as client:
            client.register_db("wire", "ab", {"T": [["ab"], ["ba"]]})
            resp = client.run("T(x) & last(x, 'b')", db="wire")
            assert resp["ok"] and resp["rows"] == [["ab"]]

    def test_concurrent_clients_share_one_pool(self, server):
        results = {}

        def hit(i):
            with self._client(server) as client:
                results[i] = client.run("R(x) & last(x, '0')", db="main")

        threads = [threading.Thread(target=hit, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert len(results) == 6
        assert all(r["ok"] and r["rows"] == [["0110"]] for r in results.values())

    def test_stats_op(self, server):
        with self._client(server) as client:
            client.run("R(x)", db="main")
            stats = client.stats()["stats"]
            assert stats["workers"] == 4
            assert set(stats["databases"]) == {"adv", "main"}


def _tcp_server(svc):
    """Bind + serve ``svc`` in a thread; returns (server, thread)."""
    server = serve_tcp(svc, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def _stop(server, thread):
    server.shutdown()
    thread.join(10)
    server.close_service()


class TestStreaming:
    @pytest.fixture
    def server(self):
        svc = QueryService(workers=4)
        svc.register_database("main", small_db())
        server, thread = _tcp_server(svc)
        yield server
        _stop(server, thread)

    def _client(self, server):
        host, port = server.server_address[:2]
        return ServiceClient(host, port)

    def test_frames_over_tcp(self, server):
        with self._client(server) as client:
            frames = list(client.run_stream("S(y)", db="main", page_size=1))
        batches, done = frames[:-1], frames[-1]
        assert [f["frame"] for f in batches] == ["row_batch", "row_batch"]
        assert [f["seq"] for f in batches] == [0, 1]
        assert batches[0]["columns"] == ["y"]  # only the first frame
        assert "columns" not in batches[1]
        assert [f["rows"] for f in batches] == [[["0"]], [["01"]]]
        assert done["frame"] == "done" and done["ok"]
        assert done["row_count"] == 2 and done["batches"] == 2
        assert done["engine"] and done["finite"] is True

    def test_page_size_shapes_batches(self, server):
        with self._client(server) as client:
            frames = list(
                client.run_stream("S(y) | R(y)", db="main", page_size=2)
            )
        assert [len(f["rows"]) for f in frames[:-1]] == [2, 2, 1]
        assert frames[-1]["row_count"] == 5 and frames[-1]["batches"] == 3

    def test_empty_answer_still_announces_columns(self, server):
        # R and S are disjoint in small_db: zero rows, but the client
        # must still learn the column list from a single empty batch.
        with self._client(server) as client:
            frames = list(client.run_stream("R(x) & S(x)", db="main"))
        assert len(frames) == 2
        assert frames[0]["rows"] == [] and frames[0]["columns"] == ["x"]
        assert frames[1]["ok"] and frames[1]["row_count"] == 0
        assert frames[1]["batches"] == 1

    def test_streamed_rows_equal_plain_rows_per_backend(self, server):
        with self._client(server) as client:
            for engine in ("automata", "direct", "algebra", "auto"):
                plain = client.run("R(x) & !S(x)", db="main", engine=engine)
                assert plain["ok"], (engine, plain.get("error"))
                rows = client.run_stream_rows(
                    "R(x) & !S(x)", db="main", page_size=1, engine=engine
                )
                assert sorted(rows) == sorted(plain["rows"]), engine

    def test_error_becomes_failed_done_frame(self, server):
        with self._client(server) as client:
            frames = list(client.run_stream("R(x", db="main"))
        assert len(frames) == 1
        done = frames[0]
        assert done["frame"] == "done" and done["ok"] is False
        assert done["error"]["code"] == "parse"

    def test_stream_rejected_inside_batch(self, server):
        with self._client(server) as client:
            resp = client.batch([
                {"query": "R(x)", "db": "main", "stream": True},
                {"query": "S(y)", "db": "main"},
            ])
        results = resp["results"]
        assert not results[0]["ok"]
        assert "stream" in results[0]["error"]["message"]
        assert results[1]["rows"] == [["0"], ["01"]]

    def test_interleaved_plain_requests_on_one_connection(self, server):
        # Frames are contiguous per request; a plain run after a
        # streamed one must still line up by id.
        with self._client(server) as client:
            rows = client.run_stream_rows("S(y)", db="main", page_size=1)
            assert rows == [["0"], ["01"]]
            resp = client.run("R(x) & last(x, '0')", db="main")
            assert resp["ok"] and resp["rows"] == [["0110"]]

    def test_stdio_streaming(self):
        svc = QueryService(workers=2)
        lines = [
            json.dumps({
                "op": "register_db", "id": 1, "name": "main",
                "db": {"alphabet": "01",
                       "relations": {"S": [["0"], ["01"]]}},
            }),
            json.dumps({"op": "run", "id": 2, "query": "S(y)", "db": "main",
                        "stream": True, "page_size": 1}),
        ]
        stdin = io.StringIO("".join(line + "\n" for line in lines))
        stdout = io.StringIO()
        assert serve_stdio(svc, stdin=stdin, stdout=stdout) == 0
        out = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert out[0]["ok"]
        frames = out[1:]
        assert [f.get("frame") for f in frames] == \
            ["row_batch", "row_batch", "done"]
        assert all(f["id"] == 2 for f in frames)
        assert frames[-1]["row_count"] == 2


class TestTransportParity:
    """One request pipeline: stdio and TCP answer the same request lines
    with the same response lines, up to timings."""

    LINES = [
        json.dumps({
            "op": "register_db", "id": 0, "name": "main",
            "db": {"alphabet": "01",
                   "relations": {"R": [["0110"], ["001"]], "S": [["0"]]}},
        }),
        json.dumps({"op": "run", "id": 1, "query": "R(x)", "db": "main",
                    "stream": True, "page_size": 0}),
        json.dumps({"op": "run", "id": 2, "query": "R(x)", "db": "main",
                    "stream": "yes"}),
        json.dumps({"op": "run", "id": 3, "query": "R(x)", "db": "main",
                    "weight": -1}),
        json.dumps({"op": "batch", "id": 4, "weight": -1,
                    "requests": [{"query": "R(x)", "db": "main"}]}),
        json.dumps({"op": "batch", "id": 5, "requests": [
            {"query": "R(x)", "db": "main", "stream": True},
            {"query": "S(y)", "db": "main"},
            "not an object",
        ]}),
        json.dumps({"op": "warp", "id": 6}),
        "this is not json",
        '{"op": "ping", "id": 7',
        json.dumps({"op": "run", "id": 8, "prepared": "p9", "db": "main"}),
        json.dumps({"op": "run", "id": 9, "prepared": "p9", "db": "main",
                    "stream": True}),
        json.dumps({"op": "run", "id": 10, "query": "R(x)", "db": "main",
                    "stream": True, "page_size": 1}),
        json.dumps({"op": "run", "id": 11, "query": "R(x)", "db": "main"}),
        json.dumps({"op": "ping", "id": "end"}),
    ]

    @staticmethod
    def _untimed(lines):
        return [
            re.sub(r'"(queue_ms|exec_ms)": [0-9.e+-]+', r'"\1": 0', line)
            for line in lines
        ]

    def _stdio(self):
        stdin = io.StringIO("".join(line + "\n" for line in self.LINES))
        stdout = io.StringIO()
        assert serve_stdio(QueryService(workers=2), stdin, stdout) == 0
        return stdout.getvalue().splitlines()

    def _tcp(self):
        server, thread = _tcp_server(QueryService(workers=2))
        try:
            host, port = server.server_address[:2]
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(
                    "".join(line + "\n" for line in self.LINES).encode()
                )
                out = []
                with sock.makefile("r", encoding="utf-8") as replies:
                    for line in replies:
                        out.append(line.rstrip("\n"))
                        if json.loads(line).get("id") == "end":
                            break
            return out
        finally:
            _stop(server, thread)

    def test_same_lines_on_both_transports(self):
        stdio, tcp = self._untimed(self._stdio()), self._untimed(self._tcp())
        assert stdio == tcp
        replies = [json.loads(line) for line in tcp]
        by_id = {}
        for reply in replies:
            by_id.setdefault(reply["id"], []).append(reply)
        # Invalid streamed runs answer with a failed done frame.
        for request_id in (1, 2, 9):
            (done,) = by_id[request_id]
            assert done["frame"] == "done" and done["ok"] is False
        assert "page_size" in by_id[1][0]["error"]["message"]
        assert "boolean" in by_id[2][0]["error"]["message"]
        assert "weight" in by_id[3][0]["error"]["message"]
        assert "weight" in by_id[4][0]["error"]["message"]
        results = by_id[5][0]["results"]
        assert "stream" in results[0]["error"]["message"]
        assert results[1]["rows"] == [["0"]]
        assert not results[2]["ok"]
        assert "unknown op" in by_id[6][0]["error"]["message"]
        assert [r["ok"] for r in by_id[None]] == [False, False]
        assert "unknown prepared query" in by_id[8][0]["error"]["message"]
        assert [f.get("frame") for f in by_id[10]] == \
            ["row_batch", "row_batch", "done"]
        assert by_id[11][0]["rows"] == [["001"], ["0110"]]


class TestLoopHits:
    """A repeated query whose finite answer the result cache holds is
    answered on the event loop: no fair queue, no worker job, the same
    frames as the pool path."""

    QUERY = "R(x) & last(x, '0') & S(y) & y <<= x"

    @pytest.fixture
    def served(self):
        svc = QueryService(workers=2)
        svc.register_database("main", small_db())
        jobs = []
        inner = svc._evaluate

        def counted_evaluate(request):
            jobs.append(request)
            return inner(request)

        svc._evaluate = counted_evaluate
        server, thread = _tcp_server(svc)
        yield svc, server, jobs
        _stop(server, thread)

    @staticmethod
    def _lines(server, body):
        """Send one request line; return its reply lines, untimed."""
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall((json.dumps(body) + "\n").encode())
            out = []
            with sock.makefile("r", encoding="utf-8") as replies:
                for line in replies:
                    out.append(line.rstrip("\n"))
                    if json.loads(line).get("frame") in (None, "done"):
                        break
        return TestTransportParity._untimed(out)

    @pytest.mark.parametrize("stream", [False, True])
    def test_repeat_is_answered_on_the_loop(self, served, stream):
        svc, server, jobs = served
        body = {"op": "run", "id": 1, "query": self.QUERY, "db": "main"}
        if stream:
            body.update(stream=True, page_size=1)
        first = self._lines(server, body)
        assert len(jobs) == 1 and METRICS.get("service.loop_hits") == 0
        before = METRICS.snapshot()
        second = self._lines(server, body)
        assert second == first
        assert len(jobs) == 1  # no worker job for the repeat
        after = METRICS.snapshot()

        def grew(name):
            return after.get(name, 0) - before.get(name, 0)

        for name in (
            "service.loop_hits", "service.requests", "service.ok",
            "service.plan_cache_hits", "engine.algebra.runs", "cache.hits",
        ):
            assert grew(name) == 1, name
        assert grew("cache.misses") == 0
        assert grew("service.queue_wait_seconds") == 0
        frames = [json.loads(line) for line in second]
        rows = [row for frame in frames for row in frame.get("rows", ())]
        assert rows == [["0110", "0"], ["0110", "01"]]
        if stream:
            assert [f["frame"] for f in frames] == \
                ["row_batch", "row_batch", "done"]

    def test_exhausted_quota_still_rejects_a_cached_answer(self):
        svc = QueryService(ServiceConfig(
            workers=1, quota_rate=0.001, quota_burst=1.0,
            backpressure="reject",
        ))
        svc.register_database("main", small_db())
        # Cache the answer on another connection (its own bucket).
        assert svc.execute(RunRequest(query="R(x)", database="main")).ok
        server, thread = _tcp_server(svc)
        try:
            host, port = server.server_address[:2]
            with ServiceClient(host, port) as client:
                assert client.run("R(x)", db="main")["ok"]
                assert METRICS.get("service.loop_hits") == 1
                refused = client.run("R(x)", db="main")
                assert refused["ok"] is False
                assert refused["error"]["code"] == "quota"
                assert METRICS.get("service.loop_hits") == 1
        finally:
            _stop(server, thread)

    def test_insert_makes_the_same_text_miss(self, served):
        svc, server, jobs = served
        host, port = server.server_address[:2]
        with ServiceClient(host, port) as client:
            assert client.run("R(x)", db="main")["rows"] == \
                [["001"], ["0110"], ["11"]]
            client.run("R(x)", db="main")
            assert len(jobs) == 1
            # "0" is already active (in S): the plan survives the write,
            # and the new version's fingerprint alone makes the result-
            # cache probe miss.
            assert client.insert("main", "R", [["0"]])["ok"]
            assert svc.answer_on_loop(
                RunRequest(query="R(x)", database="main"), run=False
            ) is None
            # The read then runs its warm plan on the loop: no worker job.
            resp = client.run("R(x)", db="main")
            assert resp["rows"] == [["0"], ["001"], ["0110"], ["11"]]
            assert len(jobs) == 1
            assert METRICS.get("service.loop_hits") == 1
            assert METRICS.get("service.inline_runs") == 1

    def test_answer_above_the_row_cap_goes_through_the_pool(
        self, served, monkeypatch
    ):
        import repro.service.service as service_module

        monkeypatch.setattr(service_module, "LOOP_HIT_MAX_ROWS", 2)
        svc, server, jobs = served
        host, port = server.server_address[:2]
        with ServiceClient(host, port) as client:
            for _ in range(2):
                assert len(client.run("R(x)", db="main")["rows"]) == 3
                assert len(client.run("S(y)", db="main")["rows"]) == 2
        # R(x) twice: over the cap neither the cached answer nor an
        # inline run answers it; S(y) once.
        assert len(jobs) == 3
        assert METRICS.get("service.loop_hits") == 1
        assert METRICS.get("service.inline_runs") == 0

    def test_a_repeat_binds_its_plan_once(self, service, monkeypatch):
        import repro.service.service as service_module

        bound = []
        with_values = service_module.with_values

        def counted_with_values(plan, values):
            bound.append(values)
            return with_values(plan, values)

        monkeypatch.setattr(service_module, "with_values", counted_with_values)
        request = RunRequest(
            query="R(x) & matches(x, '0.*')", database="main",
            structure="S_reg",
        )
        assert service.execute(request).rows == [["001"], ["0110"]]
        hit = service.answer_on_loop(request, run=False)
        assert hit.rows == [["001"], ["0110"]]
        bound.clear()
        hit = service.answer_on_loop(request, run=False)
        assert hit.rows == [["001"], ["0110"]]
        assert bound == []
        # "0000" is a new active-domain string, but the statistics stay
        # within the drift window: the plan is reused, not bound again.
        service.insert_rows("main", "R", [["0000"]])
        assert service.answer_on_loop(request, run=False) is None
        rows = [["0000"], ["001"], ["0110"]]
        assert service.execute(request).rows == rows
        assert service.answer_on_loop(request, run=False).rows == rows
        assert bound == []
        # A new relation changes the schema: the template is replanned,
        # and the new plan is bound once for the same text.
        service.insert_rows("main", "T", [["1"]])
        assert service.answer_on_loop(request, run=False) is None
        assert service.execute(request).rows == rows
        assert service.answer_on_loop(request, run=False).rows == rows
        assert bound == [("0.*",)]

    def test_a_missing_probe_neither_parses_nor_plans(self, service):
        def counts():
            return (
                METRICS.get("planner.plans"),
                METRICS.get("service.prepared_queries"),
                METRICS.get("service.plan_cache_hits"),
                METRICS.get("cache.misses"),
            )

        before = counts()
        # Never-seen text: not even parsed.
        assert service.answer_on_loop(
            RunRequest(query="R(x) & last(x, '1')", database="main"),
            run=False,
        ) is None
        assert counts() == before
        # Prepared, but never planned or run.
        handle = service.prepare("S(y) & last(y, '1')")
        before = counts()
        for request in (
            RunRequest(query=handle, database="main"),
            RunRequest(query="S(y) & last(y, '1')", database="main"),
            RunRequest(query=handle, database="main", engine="warp"),
            RunRequest(query=handle, database="nowhere"),
        ):
            assert service.answer_on_loop(request, run=False) is None
        assert counts() == before
        # Run once through the pool: a repeat is answered, but not with
        # its budget already spent.
        request = RunRequest(query=handle, database="main")
        assert service.execute(request).ok
        assert service.answer_on_loop(request, run=False).rows == [["01"]]
        request.timeout = 0.0
        assert service.answer_on_loop(request, run=False) is None
        assert service.execute(request).error.code == "timeout"


class TestFairQueue:
    """The service's one queue pops in start-time fair order."""

    @staticmethod
    def _drain(fair, count):
        return [fair.get() for _ in range(count)]

    def test_a_single_job_is_not_queued_behind_a_backlog(self):
        fair = FairQueue()
        for i in range(8):
            fair.put(("a", i), "a", limit=100)
        fair.put(("b", 0), "b", limit=100)
        assert ("b", 0) in self._drain(fair, 2)

    def test_backlogged_clients_share_by_weight(self):
        fair = FairQueue()
        for i in range(30):
            fair.put("heavy", "heavy", weight=2, limit=100)
            fair.put("light", "light", weight=1, limit=100)
        popped = self._drain(fair, 30)
        assert abs(popped.count("heavy") - 20) <= 1
        assert abs(popped.count("light") - 10) <= 1

    def test_full_queue_refuses_and_close_hands_back_the_jobs(self):
        fair = FairQueue()
        fair.put("first", limit=1)
        with pytest.raises(QueueFullError):
            fair.put("second", limit=1)
        assert fair.close(drain=False) == ["first"]
        assert fair.get() is None
        with pytest.raises(ServiceClosedError):
            fair.put("late", limit=1)

    def test_blocking_producers_and_workers_lose_no_wakeup(self):
        # More threads than cores and a tiny switch interval: blocked
        # producers and idle workers share the one condition, so a lost
        # wake-up would leave a producer parked with room to spare (or a
        # job unpopped) and the joins would time out.
        fair = FairQueue()
        popped = []

        def worker():
            while (job := fair.get()) is not None:
                popped.append(job)

        def producer(client):
            for i in range(200):
                fair.put((client, i), client, limit=2, block=True)

        workers = [threading.Thread(target=worker, daemon=True)
                   for _ in range(8)]
        producers = [threading.Thread(target=producer, args=(c,), daemon=True)
                     for c in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in workers + producers:
                t.start()
            for t in producers:
                t.join(30)
            assert not any(t.is_alive() for t in producers)
        finally:
            fair.close(drain=True)
            for t in workers:
                t.join(30)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers)
        assert sorted(popped) == [(c, i) for c in range(4) for i in range(200)]


class TestStreamingSharded:
    def test_streamed_equals_plain_on_the_sharded_backend(self):
        svc = QueryService(workers=2, shards=2)
        svc.register_database("main", small_db())
        server, thread = _tcp_server(svc)
        try:
            host, port = server.server_address[:2]
            with ServiceClient(host, port) as client:
                plain = client.run("R(x)", db="main", engine="sharded")
                assert plain["ok"] and plain["engine"] == "sharded"
                frames = list(client.run_stream(
                    "R(x)", db="main", page_size=2, engine="sharded"
                ))
                rows = [r for f in frames[:-1] for r in f["rows"]]
                assert sorted(rows) == sorted(plain["rows"])
                assert frames[-1]["engine"] == "sharded"
        finally:
            _stop(server, thread)


class TestAsyncClient:
    @pytest.fixture
    def server(self):
        svc = QueryService(workers=2)
        svc.register_database("main", small_db())
        server, thread = _tcp_server(svc)
        yield server
        _stop(server, thread)

    def test_async_round_trip(self, server):
        host, port = server.server_address[:2]

        async def body():
            async with await AsyncServiceClient.connect(host, port) as client:
                pong = await client.ping()
                assert pong["pong"] is True
                resp = await client.run("R(x) & last(x, '0')", db="main")
                assert resp["ok"] and resp["rows"] == [["0110"]]
                rows = []
                async for frame in client.run_stream(
                    "S(y)", db="main", page_size=1
                ):
                    if frame.get("frame") == "row_batch":
                        rows.extend(frame["rows"])
                    else:
                        assert frame["ok"] and frame["row_count"] == 2
                assert rows == [["0"], ["01"]]
                batch = await client.batch([
                    {"query": "S(y)", "db": "main"},
                    {"query": "R(x", "db": "main"},
                ])
                results = batch["results"]
                assert results[0]["rows"] == [["0"], ["01"]]
                assert results[1]["error"]["code"] == "parse"

        asyncio.run(body())

    def test_async_client_speaks_the_registry_and_delta_verbs(self, server):
        host, port = server.server_address[:2]

        async def body():
            async with await AsyncServiceClient.connect(host, port) as client:
                await client.register_db("extra", "01", {"R": [["0"]]})
                assert (await client.list_dbs())["databases"] == [
                    "extra", "main"
                ]
                inserted = await client.insert("extra", "R", [["01"]])
                assert inserted["ok"] and inserted["version"] == 1
                deleted = await client.delete("extra", "R", [["0"]])
                assert deleted["ok"] and deleted["version"] == 2
                versions = (await client.db_versions("extra"))["versions"]
                assert [v["version"] for v in versions] == [0, 1, 2]
                resp = await client.run("R(x)", db="extra")
                assert resp["rows"] == [["01"]]
                assert (await client.unregister_db("extra"))["removed"]
                assert (await client.list_dbs())["databases"] == ["main"]

        asyncio.run(body())

    def test_many_concurrent_async_clients(self, server):
        host, port = server.server_address[:2]

        async def one():
            async with await AsyncServiceClient.connect(host, port) as client:
                resp = await client.run("R(x) & last(x, '0')", db="main")
                return resp["ok"] and resp["rows"] == [["0110"]]

        async def body():
            return await asyncio.gather(*(one() for _ in range(32)))

        assert all(asyncio.run(body()))


class TestQuota:
    def _server(self, **cfg):
        svc = QueryService(ServiceConfig(workers=2, **cfg))
        svc.register_database("main", small_db())
        return _tcp_server(svc)

    def test_reject_mode_returns_structured_quota_error(self):
        # burst=1 with a glacial refill: the second request in the same
        # instant must be rejected with a retryable quota error.
        server, thread = self._server(
            quota_rate=0.001, quota_burst=1.0, backpressure="reject"
        )
        try:
            host, port = server.server_address[:2]
            with ServiceClient(host, port) as client:
                first = client.run("R(x)", db="main")
                assert first["ok"]
                second = client.run("R(x)", db="main")
                assert second["ok"] is False
                assert second["error"]["code"] == "quota"
                assert second["error"]["retryable"] is True
                assert second["retry_after"] > 0
                assert METRICS.get("service.quota_rejections") >= 1
                # Control ops are never metered.
                assert client.ping()["pong"] is True
        finally:
            _stop(server, thread)

    def test_quota_is_per_connection(self):
        server, thread = self._server(
            quota_rate=0.001, quota_burst=1.0, backpressure="reject"
        )
        try:
            host, port = server.server_address[:2]
            with ServiceClient(host, port) as a:
                assert a.run("R(x)", db="main")["ok"]
                with ServiceClient(host, port) as b:
                    # A fresh connection has its own bucket.
                    assert b.run("R(x)", db="main")["ok"]
        finally:
            _stop(server, thread)

    def test_block_mode_delays_instead_of_rejecting(self):
        # rate=2 → the bucket needs 500ms to refill, so the second run
        # must wait even when the first one's round trip was slow (a
        # fast refill rate makes this assertion timing-flaky).
        server, thread = self._server(
            quota_rate=2.0, quota_burst=1.0, backpressure="block"
        )
        try:
            host, port = server.server_address[:2]
            with ServiceClient(host, port) as client:
                assert client.run("R(x)", db="main")["ok"]
                assert client.run("R(x)", db="main")["ok"]  # delayed, not dropped
            assert METRICS.get("service.quota_delays") >= 1
        finally:
            _stop(server, thread)

    def test_batch_is_charged_per_item(self):
        server, thread = self._server(
            quota_rate=0.001, quota_burst=2.0, backpressure="reject"
        )
        try:
            host, port = server.server_address[:2]
            with ServiceClient(host, port) as client:
                # A batch within burst drains one token per item...
                first = client.batch([
                    {"query": "R(x)", "db": "main"} for _ in range(2)
                ])
                assert first["ok"] is True
                # ...so the next single run finds the bucket empty.
                resp = client.run("R(x)", db="main")
                assert resp["ok"] is False
                assert resp["error"]["code"] == "quota"
                assert resp["error"]["retryable"] is True
        finally:
            _stop(server, thread)

    @pytest.mark.parametrize("mode", ["reject", "block"])
    def test_oversized_batch_fails_fast_not_retryable(self, mode):
        # A batch costing more than the bucket's burst can never be
        # admitted: under "block" it used to hang the connection forever
        # and under "reject" the retry_after hint was a lie.  Both modes
        # must fail it up front with a non-retryable structured error.
        server, thread = self._server(
            quota_rate=0.001, quota_burst=2.0, backpressure=mode
        )
        try:
            host, port = server.server_address[:2]
            with ServiceClient(host, port, read_timeout=10.0) as client:
                resp = client.batch([
                    {"query": "R(x)", "db": "main"} for _ in range(5)
                ])
                assert resp["ok"] is False
                assert resp["error"]["code"] == "invalid"
                assert resp["error"]["retryable"] is False
                assert "quota_burst" in resp["error"]["message"]
                # The connection is still usable afterwards.
                assert client.ping()["pong"] is True
        finally:
            _stop(server, thread)

    def test_invalid_weight_is_a_protocol_error(self):
        server, thread = self._server()
        try:
            host, port = server.server_address[:2]
            with ServiceClient(host, port) as client:
                resp = client.run("R(x)", db="main", weight=-2)
                assert resp["ok"] is False and "weight" in resp["error"]["message"]
                resp = client.run("R(x)", db="main", weight=3)
                assert resp["ok"]
        finally:
            _stop(server, thread)


class TestDisconnectCancellation:
    def test_disconnect_mid_request_frees_the_only_worker(self):
        svc = QueryService(workers=1, max_pending=8)
        svc.register_database("main", small_db())
        svc.register_database("adv", adversarial_db())
        server, thread = _tcp_server(svc)
        try:
            host, port = server.server_address[:2]
            # A raw socket sends a long streamed run, then vanishes.
            sock = socket.create_connection((host, port))
            sock.sendall((json.dumps({
                "op": "run", "id": 1, "query": ADVERSARIAL_QUERY,
                "db": "adv", "stream": True, "timeout_ms": 30_000,
            }) + "\n").encode())
            time.sleep(0.3)  # let the worker dequeue it
            sock.close()
            # The abandoned request must be cancelled cooperatively; the
            # single worker comes back to serve the next client.
            with ServiceClient(host, port, read_timeout=30.0) as client:
                resp = client.run("R(x) & last(x, '0')", db="main")
                assert resp["ok"] and resp["rows"] == [["0110"]]
            assert METRICS.get("service.cancel_requested") >= 1
            assert METRICS.get("service.disconnects_inflight") >= 1
            assert METRICS.get("service.streams_cancelled") >= 1
        finally:
            _stop(server, thread)

    def test_disconnect_while_queued_skips_execution(self):
        # One worker busy + one queued request whose client vanishes: the
        # queued job must be skipped before any engine work happens.
        svc = QueryService(workers=1, max_pending=8)
        svc.register_database("main", small_db())
        svc.register_database("adv", adversarial_db())
        server, thread = _tcp_server(svc)
        try:
            host, port = server.server_address[:2]
            busy = socket.create_connection((host, port))
            busy.sendall((json.dumps({
                "op": "run", "id": 1, "query": ADVERSARIAL_QUERY,
                "db": "adv", "timeout_ms": 2_000,
            }) + "\n").encode())
            time.sleep(0.2)
            queued = socket.create_connection((host, port))
            queued.sendall((json.dumps({
                "op": "run", "id": 2, "query": ADVERSARIAL_QUERY,
                "db": "adv", "timeout_ms": 30_000,
            }) + "\n").encode())
            time.sleep(0.2)
            queued.close()   # vanish while still in the queue
            busy.close()
            with ServiceClient(host, port, read_timeout=30.0) as client:
                assert client.run("R(x)", db="main")["ok"]
            assert METRICS.get("service.cancel_requested") >= 1
        finally:
            _stop(server, thread)

    def test_disconnect_while_queued_behind_a_busy_worker(self, caplog):
        # The only worker is held on a gate; a second connection's request
        # queues behind it and the client vanishes.  Cancelling the
        # queued future must leave the worker able to complete it, so the
        # worker survives and the next connection is answered.
        svc = QueryService(workers=1, max_pending=8)
        svc.register_database("main", small_db())
        release, started = _gated(svc)
        server, thread = _tcp_server(svc)
        busy = queued = None
        try:
            host, port = server.server_address[:2]
            busy = socket.create_connection((host, port))
            busy.sendall((json.dumps({
                "op": "run", "id": 1, "query": "R(x)", "db": "main",
            }) + "\n").encode())
            _wait_until(lambda: len(started) == 1)
            queued = socket.create_connection((host, port))
            queued.sendall((json.dumps({
                "op": "run", "id": 2, "query": "S(y)", "db": "main",
            }) + "\n").encode())
            _wait_until(lambda: svc.stats()["pending"] == 1)
            queued.close()
            _wait_until(
                lambda: METRICS.get("service.cancel_requested") >= 1
            )
            release.set()
            assert _read_reply(busy)["rows"] == [["001"], ["0110"], ["11"]]
            with ServiceClient(host, port, read_timeout=30.0) as client:
                resp = client.run("R(x) & last(x, '0')", db="main")
                assert resp["ok"] and resp["rows"] == [["0110"]]
            assert METRICS.get("service.cancelled") >= 1
            workers = [
                t for t in threading.enumerate()
                if t.name.startswith("repro-worker-")
            ]
            assert len(workers) == 1 and all(t.is_alive() for t in workers)
            assert started == ["R(x)", "R(x) & last(x, '0')"]
            assert "InvalidStateError" not in caplog.text
            assert "never retrieved" not in caplog.text
        finally:
            release.set()
            for sock in (busy, queued):
                if sock is not None:
                    sock.close()
            _stop(server, thread)


def _gated(svc):
    """Make ``svc``'s workers record each query they start, then wait on
    the returned event before evaluating it; returns (release, started)."""
    release = threading.Event()
    started = []
    inner = svc._evaluate

    def gated_evaluate(request):
        started.append(request.query)
        release.wait(20)
        return inner(request)

    svc._evaluate = gated_evaluate
    return release, started


def _wait_until(predicate):
    deadline = time.monotonic() + 5
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.005)
    assert predicate()


def _read_reply(sock):
    with sock.makefile("r", encoding="utf-8") as replies:
        return json.loads(replies.readline())


class TestBlockModeEventLoop:
    def test_server_answers_pings_while_block_mode_queue_is_full(self):
        # Saturate a block-mode server: one worker busy, max_pending
        # requests queued, and one more past the bound.  A connection's
        # request never parks the event loop: it joins the fair queue
        # past max_pending and waits its turn there, so pings keep being
        # answered.  The worker is gated on an event so the saturation
        # window is deterministic, not a race against how fast the
        # machine evaluates queries.
        svc = QueryService(workers=1, max_pending=1, backpressure="block")
        svc.register_database("main", small_db())
        release, started = _gated(svc)
        server, thread = _tcp_server(svc)
        socks = []
        try:
            host, port = server.server_address[:2]
            for i in range(3):
                sock = socket.create_connection((host, port))
                sock.settimeout(30)
                sock.sendall((json.dumps({
                    "op": "run", "id": i, "query": "R(x)",
                    "db": "main", "timeout_ms": 30_000,
                }) + "\n").encode())
                socks.append(sock)
                if i == 0:
                    _wait_until(lambda: started == ["R(x)"])
            # Request 0 gates the worker; 1 fills the queue, 2 is past it.
            _wait_until(lambda: svc.stats()["pending"] == 2)
            t0 = time.monotonic()
            with ServiceClient(host, port, read_timeout=10.0) as client:
                assert client.ping()["pong"] is True
            assert time.monotonic() - t0 < 2.0
            release.set()
            for i, sock in enumerate(socks):
                reply = _read_reply(sock)
                assert reply["id"] == i and reply["ok"], reply
                assert reply["rows"] == [["001"], ["0110"], ["11"]]
        finally:
            release.set()
            for sock in socks:
                sock.close()
            _stop(server, thread)


class TestFairOrder:
    def test_one_request_is_not_queued_behind_another_clients_batch(self):
        # Fair order holds all the way to the worker: connection A's
        # 8-item batch is queued first, then connection B's one run,
        # and B's query is evaluated second at the latest — not ninth,
        # behind all of A's items.
        svc = QueryService(workers=1, backpressure="block")
        svc.register_database("main", small_db())
        release, started = _gated(svc)
        server, thread = _tcp_server(svc)
        try:
            host, port = server.server_address[:2]
            a = socket.create_connection((host, port))
            b = socket.create_connection((host, port))
            for sock in (a, b):
                sock.settimeout(30)
            a.sendall((json.dumps({
                "op": "batch", "id": "a",
                "requests": [
                    {"query": f"R(x) & last(x, '{i % 2}')", "db": "main"}
                    for i in range(8)
                ],
            }) + "\n").encode())
            # One item is at the gated worker, seven are queued.
            _wait_until(
                lambda: len(started) == 1 and svc.stats()["pending"] == 7
            )
            b.sendall((json.dumps({
                "op": "run", "id": "b", "query": "S(y)", "db": "main",
            }) + "\n").encode())
            _wait_until(lambda: svc.stats()["pending"] == 8)
            release.set()
            reply_b = _read_reply(b)
            reply_a = _read_reply(a)
            assert reply_b["ok"] and reply_b["rows"] == [["0"], ["01"]]
            assert reply_a["ok"] and len(reply_a["results"]) == 8
            assert len(started) == 9
            assert started.index("S(y)") <= 1, started
            a.close()
            b.close()
        finally:
            release.set()
            _stop(server, thread)


class TestOversizedLines:
    def test_line_over_limit_gets_structured_error_and_clean_close(self):
        from repro.service.server import READ_LIMIT

        svc = QueryService(workers=1)
        svc.register_database("main", small_db())
        server, thread = _tcp_server(svc)
        try:
            host, port = server.server_address[:2]
            sock = socket.create_connection((host, port))
            sock.settimeout(30)
            try:
                # One "line" past READ_LIMIT with no newline: the server
                # must answer with a structured protocol error and close
                # the connection, not die with an unretrieved ValueError.
                # Overshoot by exactly one byte — a bigger tail can still
                # be in the server's kernel buffer when it closes, which
                # turns the close into an RST that races the error reply.
                sock.sendall(b"a" * (READ_LIMIT + 1))
                buf = b""
                while not buf.endswith(b"\n"):
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    buf += chunk
                resp = json.loads(buf)
                assert resp["ok"] is False
                assert resp["error"]["code"] == "invalid"
                assert "limit" in resp["error"]["message"]
                assert sock.recv(1) == b""  # clean EOF, not a hang
            finally:
                sock.close()
            # The server survived and serves the next client normally.
            with ServiceClient(host, port, read_timeout=10.0) as client:
                assert client.run("R(x)", db="main")["ok"]
        finally:
            _stop(server, thread)


class TestGracefulShutdown:
    def test_inflight_request_completes_during_drain(self):
        svc = QueryService(workers=2)
        svc.register_database("adv", adversarial_db())
        server, thread = _tcp_server(svc)
        stopped = []
        try:
            host, port = server.server_address[:2]
            with ServiceClient(host, port, read_timeout=30.0) as client:
                # Kick off a request that outlives the shutdown request,
                # then ask the server to stop while it is in flight.
                # The budget is well under the query's cold run time
                # (about 1 s on a 2-vCPU host), so the request always
                # outlives it.
                threading.Timer(0.15, server.begin_shutdown).start()
                t0 = time.monotonic()
                resp = client.run(ADVERSARIAL_QUERY, db="adv",
                                  timeout_ms=500)
                # The in-flight request got its full deadline and a
                # structured answer despite the drain.
                assert resp["ok"] is False
                assert resp["error"]["code"] == "timeout"
                assert time.monotonic() - t0 < 4.0
            thread.join(10)
            stopped.append(not thread.is_alive())
            # The listener is gone: new connections are refused.
            with pytest.raises(OSError):
                socket.create_connection((host, port), timeout=1.0)
        finally:
            if not stopped:
                _stop(server, thread)
            else:
                server.close_service()
        assert stopped == [True]
        assert svc.closed

    def test_streamed_inflight_gets_its_done_frame(self):
        svc = QueryService(workers=1)
        svc.register_database("main", small_db())
        server, thread = _tcp_server(svc)
        try:
            host, port = server.server_address[:2]
            with ServiceClient(host, port, read_timeout=30.0) as client:
                threading.Timer(0.05, server.begin_shutdown).start()
                frames = list(client.run_stream("S(y)", db="main",
                                                page_size=1))
                assert frames[-1]["frame"] == "done" and frames[-1]["ok"]
            thread.join(10)
            assert not thread.is_alive()
        finally:
            server.close_service()


class TestClientReadDeadline:
    def test_read_timeout_is_a_structured_retryable_error(self):
        # A listener that accepts but never answers: the client must
        # surface a structured retryable timeout, not hang forever.
        sink = socket.socket()
        sink.bind(("127.0.0.1", 0))
        sink.listen(1)
        host, port = sink.getsockname()
        try:
            client = ServiceClient(host, port, read_timeout=0.2)
            t0 = time.monotonic()
            with pytest.raises(ClientReadTimeoutError) as exc_info:
                client.ping()
            assert time.monotonic() - t0 < 2.0
            assert exc_info.value.retryable is True
            assert exc_info.value.code == "client_timeout"
            # The connection is poisoned: later requests fail fast
            # instead of desynchronizing on a late reply.
            with pytest.raises(ServiceError):
                client.ping()
            client.close()
        finally:
            sink.close()

    def test_read_timeout_defaults_to_timeout(self):
        svc = QueryService(workers=1)
        svc.register_database("main", small_db())
        server, thread = _tcp_server(svc)
        try:
            host, port = server.server_address[:2]
            client = ServiceClient(host, port, timeout=7.5)
            assert client.read_timeout == 7.5
            explicit = ServiceClient(host, port, timeout=7.5,
                                     read_timeout=1.25)
            assert explicit.read_timeout == 1.25
            client.close()
            explicit.close()
        finally:
            _stop(server, thread)


    def test_async_read_timeout_defaults_to_timeout(self):
        # The async client bounds reads like the sync one: with no
        # read_timeout given, the connect timeout bounds every read.
        sink = socket.socket()
        sink.bind(("127.0.0.1", 0))
        sink.listen(1)
        host, port = sink.getsockname()

        async def body():
            client = await AsyncServiceClient.connect(host, port, timeout=0.2)
            assert client.read_timeout == 0.2
            t0 = time.monotonic()
            with pytest.raises(ClientReadTimeoutError):
                await client.ping()
            assert time.monotonic() - t0 < 2.0
            unbounded = await AsyncServiceClient.connect(
                host, port, timeout=0.2, read_timeout=None
            )
            assert unbounded.read_timeout is None
            await unbounded.close()

        try:
            asyncio.run(body())
        finally:
            sink.close()


class TestDispatcherDirect:
    def test_response_ids_echo_any_json_value(self):
        svc = QueryService(workers=1)
        try:
            dispatcher = Dispatcher(svc)
            for request_id in ["abc", 7, None, {"k": 1}]:
                resp, _ = dispatcher.handle({"op": "ping", "id": request_id})
                assert resp["id"] == request_id
        finally:
            svc.close()

    def test_prepared_handles_are_bounded(self):
        svc = QueryService(workers=1)
        svc.register_database("main", small_db())
        try:
            dispatcher = Dispatcher(svc)
            pids = [
                dispatcher.handle({"op": "prepare", "query": "R(x)"})[0][
                    "prepared"
                ]
                for _ in range(PREPARED_CAP + 1)
            ]
            assert len(set(pids)) == PREPARED_CAP + 1
            stats = dispatcher.handle({"op": "stats"})[0]["stats"]
            handles = stats["caches"]["protocol.prepared"]
            assert handles["size"] == handles["maxsize"] == PREPARED_CAP
            assert handles["evictions"] == 1
            # The oldest id was evicted: a structured error, not a crash.
            gone = respond(
                dispatcher, {"op": "run", "prepared": pids[0], "db": "main"}
            ).frames[0]
            assert not gone["ok"]
            assert "unknown prepared query" in gone["error"]["message"]
            kept = respond(
                dispatcher, {"op": "run", "prepared": pids[1], "db": "main"}
            ).frames[0]
            assert kept["ok"] and kept["rows"] == [["001"], ["0110"], ["11"]]
        finally:
            svc.close()

    def test_every_explain_frame_is_strict_json(self):
        # RFC 8259 has no Infinity/NaN: an infinite cost is null.
        def refuse(constant):
            raise ValueError(f"non-JSON constant {constant}")

        svc = QueryService(workers=1)
        svc.register_database("main", small_db())
        try:
            dispatcher = Dispatcher(svc)
            nulls = 0
            for query in ("R(x)", "R(x) & last(x, '0')", "!R(x)",
                          "exists y: S(y) & y <<= x"):
                for engine in (None, "automata", "direct", "algebra"):
                    reply = respond(dispatcher, {
                        "op": "explain", "id": 1, "query": query,
                        "db": "main", "engine": engine,
                    })
                    for frame in reply.frames:
                        decoded = json.loads(
                            json.dumps(frame), parse_constant=refuse
                        )
                        if not decoded["ok"]:
                            continue
                        costs = decoded["explain"]["plan"]["costs"]
                        nulls += sum(cost is None for cost in costs.values())
            # The unplaced database always prices `sharded` infinite.
            assert nulls > 0
        finally:
            svc.close()

    def test_shutdown_can_be_disabled(self):
        svc = QueryService(workers=1)
        try:
            dispatcher = Dispatcher(svc, allow_shutdown=False)
            resp, shutdown = dispatcher.handle({"op": "shutdown", "id": 1})
            assert not resp["ok"] and not shutdown
        finally:
            svc.close()
