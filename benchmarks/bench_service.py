"""SRV-1: the asyncio front end — concurrent-client latency and throughput.

The serving claim of ``docs/service.md``: the asyncio TCP front end
multiplexes many concurrent client connections onto a small bounded
worker pool — at moderate concurrency, closed-loop throughput *rises*
with the client count (in-flight requests pipeline the submit/wake
handshake and the socket round-trip), and at a 512-connection storm
(one request per fresh connection) it stays within a constant factor of
the single-client loop instead of collapsing.  This
benchmark measures it: ``N`` concurrent :class:`AsyncServiceClient`
connections each run a closed loop (send one request, await the reply,
send the next) over a mixed workload against one in-process
:class:`AsyncTCPQueryServer`, for ``N`` in ``1, 64`` (smoke) or
``1, 64, 512`` (full), reporting req/s and p50/p95/p99 latency.

The workload mixes the core query shapes with SQL-pattern shapes from
Section 4 of the paper — ``matches()`` atoms compiled by
:func:`repro.sql.similar_to_regex_text` (SIMILAR TO, full regular) and
:func:`repro.sql.like_to_regex_text` with an ``ESCAPE`` character
(star-free), run under ``S_reg``.  Before timing, every workload query
is run both plain and streamed (``row_batch``/``done`` frames) and the
answers are asserted identical — the correctness half of the streaming
claim.

``--write-baseline`` commits each level's absolute warm throughput (the
best of five back-to-back windows, req/s) to ``BENCH_service.json`` via
``benchmarks/_regress.py``, the per-level minimum of three full sweeps;
``--compare`` exits non-zero when any measured level's throughput falls
by more than the baseline's threshold (1.3x).
``make bench-service`` runs the full gate and ``make test`` the
``--smoke`` subset.

Standalone::

    python benchmarks/bench_service.py [--smoke] [--compare]
        [--write-baseline] [--explain-json PATH]
"""

import asyncio
import threading
import time

import pytest

from repro.core import StringDatabase
from repro.engine import BoundedCache
from repro.engine.metrics import METRICS
from repro.service import (
    AsyncServiceClient,
    AsyncTCPQueryServer,
    QueryService,
    ServiceConfig,
)
from repro.sql import like_to_regex_text, similar_to_regex_text

from _common import print_table, write_explain_json
import _regress

#: Core workload shapes (structure ``S``): joins, negation, quantified
#: prefix tests — the mix the service bench has always used.
CORE_QUERIES = [
    ("R(x) & last(x, '0')", "S"),
    ("R(x) & last(x, '1')", "S"),
    ("R(x) & !S(x)", "S"),
    ("S(y) | R(y)", "S"),
    ("R(x) & exists adom y: S(y) & y <<= x", "S"),
    ("S(y) & exists adom x: R(x) & y <<= x", "S"),
    ("exists x: R(x) & last(x, '0')", "S"),
    ("R(x) & S(y) & y <<= x", "S"),
]

#: SQL-pattern shapes (Section 4): SIMILAR TO reaches all regular
#: languages, LIKE with ESCAPE stays star-free.  Both become
#: ``matches()`` atoms under ``S_reg``.
PATTERN_QUERIES = [
    (f"R(x) & matches(x, '{similar_to_regex_text('(00)*')}')", "S_reg"),
    (f"R(x) & matches(x, '{similar_to_regex_text('0%(11)*')}')", "S_reg"),
    (f"R(x) & matches(x, '{like_to_regex_text('0%!1', '!')}')", "S_reg"),
    (f"S(y) & matches(y, '{like_to_regex_text('0%', None)}')", "S_reg"),
]

WORKLOAD = CORE_QUERIES + PATTERN_QUERIES

POOL_WORKERS = 8
MAX_PENDING = 256

FULL_LEVELS = [1, 64, 512]
SMOKE_LEVELS = [1, 64]

#: Closed-loop requests per level (split across the clients), sized so
#: the single-client level still makes a few hundred round-trips.  High
#: levels get at least MIN_PER_CLIENT requests per connection so the
#: measurement is steady-state multiplexing, not just connection setup.
FULL_TOTAL = 512
SMOKE_TOTAL = 256
MIN_PER_CLIENT = 4

#: Each level is measured this many times back to back and reports its
#: fastest window: host noise only ever slows a window down, so the best
#: of several is the stable estimate an absolute gate needs.
WINDOWS = 5

STREAM_PAGE = 3  # small on purpose: several row_batch frames per answer


def make_db() -> StringDatabase:
    return StringDatabase(
        "01",
        {
            "R": {"0110", "001", "11", "0101", "1001", "00110",
                  "0000", "0011", "101", "1100"},
            "S": {"0", "01", "1", "00"},
        },
    )


def start_server():
    """An :class:`AsyncTCPQueryServer` on an ephemeral port, in a thread.

    Returns ``(server, thread, port)``; stop with :func:`stop_server`.
    """
    service = QueryService(ServiceConfig(
        workers=POOL_WORKERS,
        max_pending=MAX_PENDING,
        backpressure="block",
        cache=BoundedCache(maxsize=512),
    ))
    service.register_database("main", make_db())
    server = AsyncTCPQueryServer(("127.0.0.1", 0), service)
    thread = threading.Thread(
        target=server.serve_forever, name="bench-service-loop", daemon=True
    )
    thread.start()
    return server, thread, server.server_address[1]


def stop_server(server, thread) -> None:
    server.shutdown()
    thread.join(timeout=10)
    server.close_service()


# --------------------------------------------------------------- the driver


async def _client_loop(port, queries, latencies, failures):
    """One closed-loop client: send, await, repeat over its share."""
    client = await AsyncServiceClient.connect(
        "127.0.0.1", port, timeout=30.0, read_timeout=120.0
    )
    try:
        for src, structure in queries:
            t0 = time.perf_counter()
            response = await client.run(src, "main", structure=structure)
            latencies.append(time.perf_counter() - t0)
            if not response.get("ok"):
                failures.append(response.get("error"))
    finally:
        await client.close()


async def _drive(port, clients, total):
    """``total`` requests split round-robin across ``clients`` loops."""
    shares = [[] for _ in range(clients)]
    for i in range(total):
        shares[i % clients].append(WORKLOAD[i % len(WORKLOAD)])
    latencies: list[float] = []
    failures: list[dict] = []
    t0 = time.perf_counter()
    await asyncio.gather(*(
        _client_loop(port, share, latencies, failures)
        for share in shares if share
    ))
    return time.perf_counter() - t0, latencies, failures


async def _check_stream_agreement(port):
    """Every workload query: streamed rows == plain rows (order aside)."""
    client = await AsyncServiceClient.connect("127.0.0.1", port)
    try:
        for src, structure in WORKLOAD:
            plain = await client.run(src, "main", structure=structure)
            assert plain.get("ok"), (src, plain.get("error"))
            streamed: list = []
            batches = 0
            async for frame in client.run_stream(
                src, "main", page_size=STREAM_PAGE, structure=structure
            ):
                if frame.get("frame") == "row_batch":
                    streamed.extend(frame["rows"])
                    batches += 1
                else:
                    assert frame.get("ok"), (src, frame.get("error"))
                    assert frame["row_count"] == len(streamed)
                    assert frame["batches"] == batches
            expected = sorted(map(tuple, plain["rows"]))
            got = sorted(map(tuple, streamed))
            assert got == expected, f"streamed rows diverged for {src!r}"
    finally:
        await client.close()


def percentile(values, pct):
    ordered = sorted(values)
    index = round(pct / 100 * (len(ordered) - 1))
    return ordered[index]


def run_levels(levels, total) -> list[dict]:
    """Measure every concurrency level against one warm server (the
    fastest of :data:`WINDOWS` windows per level)."""
    server, thread, port = start_server()
    try:
        # Warm-up: caches (plans, automata) fill, and the streamed-vs-
        # plain agreement check doubles as the correctness pass.
        asyncio.run(_check_stream_agreement(port))
        rows = []
        for clients in levels:
            windows = []
            for _ in range(WINDOWS):
                elapsed, latencies, failures = asyncio.run(
                    _drive(port, clients, max(total, clients * MIN_PER_CLIENT))
                )
                assert not failures, f"clients={clients}: {failures[:3]}"
                windows.append((len(latencies) / elapsed, elapsed, latencies))
            _, elapsed, latencies = max(windows, key=lambda w: w[0])
            rows.append({
                "clients": clients,
                "requests": len(latencies),
                "elapsed_s": elapsed,
                "req_per_s": len(latencies) / elapsed,
                "p50_ms": percentile(latencies, 50) * 1000,
                "p95_ms": percentile(latencies, 95) * 1000,
                "p99_ms": percentile(latencies, 99) * 1000,
            })
        return rows
    finally:
        stop_server(server, thread)


#: The gated entry field: absolute warm throughput per level.
GATED = "req_per_s"


def entries_of(rows: list[dict]) -> dict[str, dict]:
    """Regression-gate entries: warm throughput (and latency) per level."""
    return {
        f"clients={r['clients']}": {
            GATED: round(r["req_per_s"], 1),
            "p50_ms": round(r["p50_ms"], 3),
            "p99_ms": round(r["p99_ms"], 3),
        }
        for r in rows
    }


def conservative_entries(sweeps: list[list[dict]]) -> dict[str, dict]:
    """Per-key minimum throughput across several sweeps, so normal jitter
    sits inside the gate's 1.3x threshold instead of tripping it."""
    merged: dict[str, dict] = {}
    for sweep in sweeps:
        for key, entry in entries_of(sweep).items():
            kept = merged.get(key)
            if kept is None or entry[GATED] < kept[GATED]:
                merged[key] = entry
    return merged


def _print_rows(rows: list[dict]) -> None:
    print_table(
        f"asyncio front end — closed-loop clients vs one "
        f"{POOL_WORKERS}-worker pool",
        ["clients", "requests", "req/s", "p50 ms", "p95 ms", "p99 ms"],
        [
            (
                r["clients"],
                r["requests"],
                f"{r['req_per_s']:.0f}",
                f"{r['p50_ms']:.3f}",
                f"{r['p95_ms']:.3f}",
                f"{r['p99_ms']:.3f}",
            )
            for r in rows
        ],
    )


# ------------------------------------------------------------------- pytest


@pytest.mark.slow
def test_service_concurrent_clients(benchmark):
    """Smoke sweep: answers agree streamed-vs-plain, no failed requests,
    and concurrency does not lose to the single-client loop."""
    rows = benchmark.pedantic(
        lambda: run_levels(SMOKE_LEVELS, SMOKE_TOTAL), rounds=1, iterations=1
    )
    _print_rows(rows)
    assert rows[-1]["req_per_s"] > 0.5 * rows[0]["req_per_s"]


# --------------------------------------------------------------- standalone


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="levels 1 and 64 only, fewer requests")
    parser.add_argument("--explain-json", metavar="PATH", default=None)
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="run the full sweep and (re)write BENCH_service.json",
    )
    parser.add_argument(
        "--compare",
        action="store_true",
        help="gate the measured speedups against BENCH_service.json",
    )
    args = parser.parse_args(argv)

    smoke = args.smoke and not args.write_baseline
    levels = SMOKE_LEVELS if smoke else FULL_LEVELS
    total = SMOKE_TOTAL if smoke else FULL_TOTAL
    METRICS.reset()

    rows = run_levels(levels, total)
    _print_rows(rows)
    entries = entries_of(rows)
    base = rows[0]["req_per_s"]
    for r in rows[1:]:
        print(f"clients={r['clients']}: {r['req_per_s'] / base:.2f}x "
              f"the single-client throughput")
    print(f"(streamed and plain answers identical across "
          f"{len(WORKLOAD)} workload queries)")

    write_explain_json(
        args.explain_json,
        {
            "benchmark": "bench_service",
            "workload": [src for src, _ in WORKLOAD],
            "levels": levels,
            "total_requests": total,
            "results": rows,
            "entries": entries,
            "metrics": METRICS.snapshot(),
        },
    )

    if args.write_baseline:
        extra = [run_levels(levels, total) for _ in range(2)]
        _regress.write_baseline(
            _regress.baseline_path("service"),
            "service",
            conservative_entries([rows, *extra]),
            metric=GATED,
        )
        return 0
    if args.compare:
        return _regress.gate("service", entries)
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
