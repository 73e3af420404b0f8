"""Concurrency stress: many threads hammering one service must produce
exactly the serial answers, with consistent counters and a bounded cache.

This is the satellite test for the thread-safety work: the METRICS
registry and the LRU automaton cache are shared by every worker, so lost
increments, corrupted LRU state, or cross-request answer bleed would show
up here as wrong rows or counters that do not add up.

The asyncio front end (ISSUE 9) adds its own stress shapes: a thousand
concurrent TCP connections must not grow the thread count (connections
are coroutines, not threads), and clients that vanish mid-request at
random must never poison the worker pool for the clients that stayed.
"""

import asyncio
import json
import random
import socket
import sys
import threading
import time

import pytest

from repro.core import Query, StringDatabase
from repro.engine import BoundedCache, global_cache, reset_caches
from repro.engine.metrics import METRICS
from repro.service import (
    AsyncServiceClient,
    QueryService,
    RunRequest,
    ServiceClient,
    ServiceConfig,
    serve_tcp,
)

pytestmark = pytest.mark.slow

N_THREADS = 8
ROUNDS = 3  # each thread runs every query this many times

QUERIES = [
    "R(x) & last(x, '0')",
    "R(x) & last(x, '1')",
    "R(x) & !S(x)",
    "S(y) | R(y)",
    "R(x) & exists adom y: S(y) & y <<= x",
    "S(y) & exists adom x: R(x) & y <<= x",
    "exists x: R(x) & last(x, '0')",   # Boolean query
    "R(x) & S(y) & y <<= x",
]


def make_db():
    return StringDatabase(
        "01",
        {"R": {"0110", "001", "11", "0101"}, "S": {"0", "01", "1"}},
    )


@pytest.fixture(autouse=True)
def _fresh_cache():
    # Closure-cache entries carry no database fingerprint, so warm
    # closures from this module would flip the planner's argmin for
    # later test modules — reset every cache, not only the automata.
    reset_caches()
    METRICS.reset()
    yield
    reset_caches()


@pytest.fixture(scope="module")
def serial_answers():
    """The ground truth, computed single-threaded without any service."""
    db = make_db()
    return {src: [list(t) for t in Query(src).run(db).rows()] for src in QUERIES}


class TestStress:
    def test_threads_match_serial_and_counters_add_up(self, serial_answers):
        svc = QueryService(workers=N_THREADS, max_pending=256)
        svc.register_database("main", make_db())
        failures = []
        done = []

        def hammer(thread_index):
            # Deterministic per-thread order: rotate the query list so
            # threads interleave different queries at any instant.
            order = QUERIES[thread_index % len(QUERIES):] + \
                QUERIES[:thread_index % len(QUERIES)]
            for _ in range(ROUNDS):
                for src in order:
                    resp = svc.execute(RunRequest(query=src, database="main"))
                    if not resp.ok:
                        failures.append((src, resp.error.code, resp.error.message))
                    elif resp.rows != serial_answers[src]:
                        failures.append((src, "wrong-rows", resp.rows))
                    else:
                        done.append(src)

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(N_THREADS)
        ]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
            assert not any(t.is_alive() for t in threads)
        finally:
            svc.close()

        total = N_THREADS * ROUNDS * len(QUERIES)
        assert failures == []
        assert len(done) == total

        # Counter consistency: no increment was lost under contention.
        assert METRICS.get("service.requests") == total
        assert METRICS.get("service.ok") == total
        assert METRICS.get("service.errors") == 0
        # The planner may route each query to any in-process backend
        # (prepared queries prewarm fused closures, which can tip its
        # argmin to the algebra engine); the invariant is that every
        # request ran exactly one engine, not which engine won.
        engine_runs = sum(
            METRICS.get(f"engine.{name}.runs")
            for name in ("automata", "direct", "algebra")
        )
        assert engine_runs == total

        # The shared LRU stayed within bounds and did real work.
        stats = global_cache().stats()
        assert stats["size"] <= stats["maxsize"]
        assert stats["hits"] > 0

    def test_batched_fanout_matches_serial(self, serial_answers):
        # The bench_service shape: one big batch fanned out over the pool.
        svc = QueryService(workers=N_THREADS, max_pending=256)
        svc.register_database("main", make_db())
        try:
            requests = [
                RunRequest(query=src, database="main")
                for _ in range(N_THREADS) for src in QUERIES
            ]
            responses = svc.execute_batch(requests)
            assert all(r.ok for r in responses)
            for req, resp in zip(requests, responses):
                assert resp.rows == serial_answers[req.query]
        finally:
            svc.close()

    def test_private_cache_isolation(self, serial_answers):
        # A service with its own BoundedCache must leave the global one
        # untouched — and still answer correctly under concurrency.
        private = BoundedCache(maxsize=32)
        svc = QueryService(
            ServiceConfig(workers=4, max_pending=128, cache=private)
        )
        svc.register_database("main", make_db())
        try:
            responses = svc.execute_batch([
                RunRequest(query=src, database="main")
                for _ in range(4) for src in QUERIES
            ])
            assert all(r.ok for r in responses)
            for req, resp in zip(
                [s for _ in range(4) for s in QUERIES], responses
            ):
                assert resp.rows == serial_answers[req]
        finally:
            svc.close()
        assert private.stats()["size"] > 0
        assert global_cache().stats()["size"] == 0

    def test_concurrent_metrics_increments_are_not_lost(self):
        # Direct hammer on the registry itself: 8 threads x 5000 incs.
        METRICS.reset()
        barrier = threading.Barrier(8)

        def bump():
            barrier.wait()
            for _ in range(5000):
                METRICS.inc("stress.counter")

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert METRICS.get("stress.counter") == 8 * 5000

    def test_one_thousand_connections_without_thread_growth(self):
        # ISSUE 9 acceptance: 1k concurrent connections are 1k parked
        # coroutines on one event loop — the process thread count must
        # not move while they are all open.
        svc = QueryService(workers=4, max_pending=256)
        svc.register_database("main", make_db())
        server = serve_tcp(svc, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        baseline_threads = threading.active_count()

        async def body():
            clients = []
            # Connect in waves so the SYN backlog never overflows.
            for _ in range(10):
                clients.extend(await asyncio.gather(*(
                    AsyncServiceClient.connect(host, port)
                    for _ in range(100)
                )))
            pongs = await asyncio.gather(*(c.ping() for c in clients))
            threads_at_peak = threading.active_count()
            answers = await asyncio.gather(*(
                c.run("R(x) & last(x, '0')", db="main")
                for c in clients[:64]
            ))
            await asyncio.gather(*(c.close() for c in clients))
            return pongs, answers, threads_at_peak

        try:
            pongs, answers, threads_at_peak = asyncio.run(body())
            assert len(pongs) == 1000
            assert all(p["pong"] for p in pongs)
            assert all(a["ok"] and a["rows"] == [["0110"]] for a in answers)
            # The asyncio.run driver thread itself accounts for nothing
            # server-side; allow a little slack for unrelated churn.
            assert threads_at_peak - baseline_threads <= 4, (
                f"thread count grew from {baseline_threads} to "
                f"{threads_at_peak} under 1000 connections"
            )
            assert METRICS.get("service.connections") >= 1000
        finally:
            server.shutdown()
            thread.join(10)
            server.close_service()

    def test_random_disconnects_do_not_poison_the_pool(self, serial_answers):
        # Clients that vanish mid-request (queued or running) must have
        # their work cancelled cooperatively; the survivors' answers stay
        # exactly right afterwards.
        from tests.test_timeouts import ADVERSARIAL_QUERY, ADVERSARIAL_STRINGS

        svc = QueryService(workers=2, max_pending=64)
        svc.register_database("main", make_db())
        svc.register_database(
            "adv", StringDatabase("01", {"R": [(s,) for s in ADVERSARIAL_STRINGS]})
        )
        server = serve_tcp(svc, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        rng = random.Random(1729)
        try:
            # Wave of abrupt disconnects: long queries, then hang up.
            socks = []
            for i in range(12):
                sock = socket.create_connection((host, port))
                sock.sendall((json.dumps({
                    "op": "run", "id": i, "query": ADVERSARIAL_QUERY,
                    "db": "adv", "stream": bool(i % 2),
                    "timeout_ms": 30_000,
                }) + "\n").encode())
                socks.append(sock)
            for sock in socks:
                time.sleep(rng.uniform(0.0, 0.05))
                sock.close()
            # Survivors: every query still returns the serial answers.
            with ServiceClient(host, port, read_timeout=60.0) as client:
                for src in QUERIES:
                    resp = client.run(src, db="main")
                    assert resp["ok"], (src, resp.get("error"))
                    assert resp["rows"] == serial_answers[src]
            assert METRICS.get("service.cancel_requested") >= 1
        finally:
            server.shutdown()
            thread.join(10)
            server.close_service()

    def test_concurrent_cache_puts_stay_bounded(self):
        cache = BoundedCache(maxsize=16)
        barrier = threading.Barrier(8)

        def churn(base):
            barrier.wait()
            for i in range(500):
                key = ("k", base, i % 40)
                if cache.get(key) is None:
                    cache.put(key, ("value", base, i))

        threads = [threading.Thread(target=churn, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        stats = cache.stats()
        assert len(cache) <= 16
        assert stats["size"] == len(cache)
        assert stats["hits"] + stats["misses"] > 0

    def test_history_walks_hold_under_concurrent_deltas(self):
        # Readers walk snapshot histories without the store's lock while
        # a writer applies deltas and prunes (keep_versions=3): a walk is
        # empty (its version was pruned) or the snapshot's own version
        # followed by consecutive ancestors, and every answer equals a
        # fresh build of the pinned snapshot's content.
        from repro.database.instance import Database
        from repro.delta import VersionedDatabase, lineage
        from repro.strings import BINARY

        vdb = VersionedDatabase(
            Database(BINARY, {"R": {("0",)}, "S": {("1",)}}), keep_versions=3
        )
        query = Query("R(x) & last(x, '0')")
        errors = []
        done = threading.Event()

        def write():
            try:
                for i in range(200):
                    vdb.insert("RS"[i % 2], [format(i, "b") + "0"])
            finally:
                done.set()

        def read():
            while not done.is_set():
                head = vdb.head
                walk = [v.version for v in lineage(head.database)]
                if walk and walk != list(
                    range(head.version, head.version - len(walk), -1)
                ):
                    errors.append(walk)
                got = query.result(head.database, engine="direct").as_set()
                fresh = Database(
                    BINARY, {n: head.database.relation(n) for n in "RS"}
                )
                if got != query.result(fresh, engine="direct").as_set():
                    errors.append(head.version)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=write)] + [
                threading.Thread(target=read) for _ in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert vdb.head.version == 200

    def test_cached_answers_hold_under_concurrent_writes(self):
        # Readers take cached answers the way the transports do (the
        # event-loop probe, else the pool) while a writer grows R and a
        # tiny result cache evicts: an answer lies between the answers of
        # the heads before and after the call (R only grows), and the
        # request counters add up.
        svc = QueryService(ServiceConfig(
            workers=4, max_pending=256, cache=BoundedCache(4)
        ))
        rows = {"0110", "001", "11", "0101"}
        svc.register_database("main", StringDatabase("01", {"R": set(rows)}))
        shapes = {
            "R(x) & last(x, '0')": lambda r: {x for x in r if x.endswith("0")},
            "R(x) & last(x, '1')": lambda r: {x for x in r if x.endswith("1")},
            "R(x) & '01' <<= x": lambda r: {x for x in r if x.startswith("01")},
        }
        errors = []
        answered = []
        done = threading.Event()

        def heads():
            return {x for (x,) in svc._entry("main").database.relation("R")}

        def write():
            try:
                for i in range(150):
                    svc.insert_rows("main", "R", [(format(i + 4, "b") + "0",)])
                    time.sleep(0.002)  # let reads repeat on one version
            finally:
                done.set()

        def read(index):
            texts = list(shapes)
            while not done.is_set():
                text = texts[index % len(texts)]
                index += 1
                request = RunRequest(query=text, database="main")
                before = shapes[text](heads())
                resp = (
                    svc.answer_on_loop(request, run=False)
                    or svc.execute(request)
                )
                after = shapes[text](heads())
                got = {x for (x,) in resp.rows} if resp.ok else None
                if got is None or not before <= got <= after:
                    errors.append((text, resp.error or sorted(got)))
                answered.append(text)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=write)] + [
                threading.Thread(target=read, args=(i,)) for i in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
        finally:
            sys.setswitchinterval(interval)
            svc.close()
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert METRICS.get("service.requests") == len(answered)
        assert METRICS.get("service.ok") == len(answered)
        assert METRICS.get("service.loop_hits") > 0
