"""End-to-end benchmark of the NDJSON query service.

Starts the real server (``python -m repro serve --port 0``) from the
sources in ``src/``, registers a seeded database over the wire, and
drives it with ``CLIENTS`` closed-loop TCP clients (each sends its next
request only after the previous answer arrived) for ``--seconds``
seconds.  Every answer is checked against a reference evaluator
(``workload.py``).  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The measured time is split into ``SERVERS`` equal windows, each served
by a server process of its own, started and set up just before it.
With ``--trace 0`` the metrics are the end-to-end ones: median and
90th-percentile request latency and throughput, each computed per window
and reported as the median over the windows (a passing disturbance moves
one window, not the result), and set-up time, the median of the
``SERVERS`` complete set-ups (server start, registration over the wire,
one pass of warm-up requests).  With ``--trace 1`` the server runs under
``traced_server.py``, which records a span around each service layer;
the metrics are then each layer's time per request plus cache and
planner ratios, taken over the measured windows only.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hot_lookup --seed 1 --seconds 10 --trace 0
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True   # leave nothing behind in this directory

import workload  # noqa: E402

#: Closed-loop connections.  Two keep a worker busy while the event loop
#: answers the other; runs of one seed spread several times wider with
#: one client (idle gaps between requests) or four (interpreter-lock
#: convoys among the workers).
CLIENTS = 2
WORKERS = 4          # the server's worker pool (the CLI default)
#: Server processes per run.  Each is started and set up (timed; setup_s
#: is the median) and then serves one window of 1/SERVERS of the measured
#: time (the end-to-end metrics are medians over the windows).  Runs of
#: one seed differ more than the windows of one server do, so a run
#: averages over many processes rather than measuring one.
SERVERS = 10
START_TIMEOUT = 60.0
READ_LIMIT = 16 * 1024 * 1024


class BenchError(Exception):
    pass


# ------------------------------------------------------------------ server


class Server:
    """One server process, started from the checkout's sources."""

    def __init__(self, traced: bool):
        if traced:
            argv = [sys.executable, str(HERE / "traced_server.py")]
        else:
            argv = [sys.executable, "-m", "repro"]
        argv += ["serve", "--port", "0", "--workers", str(WORKERS)]
        # A fixed hash seed keeps set and dict orders inside the server,
        # and so its work, the same from run to run.
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        self.stderr: list[str] = []
        ready = threading.Event()
        self.port = None

        def drain() -> None:
            for line in self.proc.stderr:
                if self.port is None and line.startswith("serving on "):
                    self.port = int(line.split()[2].rsplit(":", 1)[1])
                    ready.set()
                else:
                    self.stderr.append(line)
                    del self.stderr[:-20]
            ready.set()

        self._drain = threading.Thread(target=drain, daemon=True)
        self._drain.start()
        ready.wait(START_TIMEOUT)
        if self.port is None:
            self.stop()
            raise BenchError(
                "server did not start: " + "".join(self.stderr[-5:]).strip()
            )

    def stop(self) -> None:
        if self.proc.poll() is None and self.port is not None:
            try:
                asyncio.run(_one_request(self.port, {"op": "shutdown"}))
            except (OSError, BenchError):
                pass
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._drain.join(timeout=5)


# ------------------------------------------------------------------ client


class Connection:
    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=READ_LIMIT
        )
        return cls(reader, writer)

    async def request(self, body: dict) -> dict:
        """Send one request and return its answer.  A streamed answer is
        read up to its ``done`` frame and returned as that frame plus the
        ``columns`` and ``rows`` of its ``row_batch`` frames."""
        self.writer.write((json.dumps(body) + "\n").encode())
        await self.writer.drain()
        columns, rows = None, []
        while True:
            line = await self.reader.readline()
            if not line:
                raise BenchError("server closed the connection")
            frame = json.loads(line)
            if frame.get("frame") != "row_batch":
                break
            if "columns" in frame:
                columns = frame["columns"]
            rows.extend(frame["rows"])
        if frame.get("frame") == "done" and frame.get("ok"):
            frame.update(columns=columns, rows=rows)
        return frame

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except OSError:
            pass


async def _one_request(port: int, body: dict) -> dict:
    conn = await Connection.open(port)
    try:
        return await conn.request(body)
    finally:
        await conn.close()


async def _set_up(port: int, wl: workload.Workload) -> None:
    """Register the database and send every warm-up request once."""
    conn = await Connection.open(port)
    try:
        response = await conn.request(workload.register_request(wl.db))
        if not response.get("ok"):
            raise BenchError(f"register_db failed: {response.get('error')}")
        for body, check in wl.warmup:
            response = await conn.request(body)
            if not check(response):
                raise BenchError(
                    f"wrong warm-up answer for {body.get('query')!r}: "
                    f"{response.get('error') or response.get('rows')}"
                )
    finally:
        await conn.close()


async def _client_loop(port, client, stop_at, samples, outcome):
    conn = await Connection.open(port)
    try:
        while time.perf_counter() < stop_at:
            body = client.next_request()
            t0 = time.perf_counter()
            response = await conn.request(body)
            t1 = time.perf_counter()
            samples.append((t1, t1 - t0))
            outcome["attempted"] += 1
            if not response.get("ok"):
                outcome["failed"] += 1
            elif not client.check(response):
                outcome["wrong"] += 1
                outcome["failed"] += 1
    finally:
        await conn.close()


async def _measure(port: int, wl: workload.Workload, seconds: float,
                   traced: bool, outcome: dict, trace: dict):
    """Run every client for ``seconds`` against one server and return its
    ``(completion time, latency)`` samples.  With tracing, the window is
    bracketed with ``stats`` and the server's change is added to
    ``trace``."""
    before = await _one_request(port, {"op": "stats"}) if traced else None
    samples: list[tuple[float, float]] = []
    t0 = time.perf_counter()
    await asyncio.gather(*(
        _client_loop(port, client, t0 + seconds, samples, outcome)
        for client in wl.clients
    ))
    if traced:
        after = await _one_request(port, {"op": "stats"})
        add_trace(trace, before["trace"], after["trace"])
    return samples


def add_trace(total: dict, before: dict, after: dict) -> None:
    """Add the change between two ``trace`` snapshots of one server (layer
    totals and numeric counters) to ``total``."""
    for layer, entry in after["layers"].items():
        base = before["layers"].get(layer, [0, 0.0, 0.0])
        acc = total["layers"].setdefault(layer, [0, 0.0, 0.0])
        for i in range(3):
            acc[i] += entry[i] - base[i]
    for name, value in after["metrics"].items():
        if isinstance(value, (int, float)):
            total["metrics"][name] = (
                total["metrics"].get(name, 0)
                + value - before["metrics"].get(name, 0)
            )


# ----------------------------------------------------------------- metrics


def percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def over_windows(slices, stat) -> float:
    """Median over windows of ``stat`` applied to each window's latencies."""
    return statistics.median(
        stat([latency for _, latency in s]) for s in slices if len(s) > 1
    )


def rate_over_windows(slices) -> float:
    """Median over windows of completions per second, each window's rate
    taken between its first and last completion."""
    return statistics.median(
        (len(s) - 1) / (s[-1][0] - s[0][0]) for s in slices if len(s) > 1
    )


def end_to_end(slices, setups) -> dict:
    """Latency percentiles and request rate per window, as the median over
    windows; set-up as the median of the run's set-ups.  (p90 is the
    highest percentile with ten samples beyond it in every window of the
    slowest workload.)"""
    return {
        "p50_ms": {
            "value": over_windows(slices, statistics.median) * 1e3, "unit": "ms",
        },
        "p90_ms": {
            "value": over_windows(slices, lambda s: percentile(s, 90)) * 1e3,
            "unit": "ms",
        },
        "throughput_rps": {"value": rate_over_windows(slices), "unit": "1/s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }


#: per_layer metric name -> (traced layer, 1 = whole spans | 2 = self time);
#: the layers are described in traced_server.py.
LAYER_METRICS = {
    "request_us": ("request", 1),
    "loop_self_us": ("request", 2),
    "decode_us": ("decode", 2),
    "admission_us": ("admission", 2),
    "pool_queue_us": ("pool_queue", 2),
    "parse_us": ("parse", 2),
    "plan_us": ("plan", 2),
    "execute_us": ("execute", 2),
    "worker_self_us": ("job", 2),
    "control_us": ("control", 2),
    "serialize_us": ("serialize", 2),
}


def per_layer(slices, trace: dict) -> dict:
    """Layer time per request and cache/planner ratios over the measured
    windows, from the servers' summed ``trace`` changes."""
    runs = sum(len(s) for s in slices)
    out = {}
    for name, (layer, field) in LAYER_METRICS.items():
        seconds = trace["layers"].get(layer, [0, 0.0, 0.0])[field]
        out[name] = {"value": seconds / runs * 1e6, "unit": "us"}

    def counter(name: str) -> float:
        return trace["metrics"].get(name, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    requests = counter("service.requests")
    engine_runs = {
        e: counter(f"engine.{e}.runs")
        for e in ("automata", "direct", "algebra", "codegen")
    }
    total_runs = sum(engine_runs.values())
    counts = {
        "cache_hit_ratio": ratio(
            counter("cache.hits"), counter("cache.hits") + counter("cache.misses")
        ),
        "codegen_cache_hit_ratio": ratio(
            counter("codegen.cache.hits"),
            counter("codegen.cache.hits") + counter("codegen.cache.misses"),
        ),
        "plan_cache_hit_ratio": ratio(counter("service.plan_cache_hits"), requests),
        "plans_per_query": ratio(counter("planner.plans"), requests),
        "codegen_compiles_per_query": ratio(counter("codegen.compiles"), requests),
        "codegen_share": ratio(engine_runs["codegen"], total_runs),
        "direct_share": ratio(engine_runs["direct"], total_runs),
        "automata_share": ratio(engine_runs["automata"], total_runs),
        "deltas_per_request": ratio(counter("service.deltas"), runs),
        "replans_avoided_per_query": ratio(
            counter("delta.replans_avoided"), requests
        ),
    }
    for name, value in counts.items():
        out[name] = {"value": value, "unit": "ratio"}
    # Against p50_ms of an untraced run: the cost of the tracing itself.
    out["traced_p50_ms"] = {
        "value": over_windows(slices, statistics.median) * 1e3, "unit": "ms",
    }
    return out


# -------------------------------------------------------------------- main


def run(name: str, seed: int, seconds: float, traced: bool) -> dict:
    if not (ROOT / "src" / "repro" / "__main__.py").is_file():
        raise BenchError(f"no program sources under {ROOT / 'src'}")
    wl = workload.Workload(name, seed, CLIENTS)
    outcome = {"attempted": 0, "failed": 0, "wrong": 0}
    trace: dict = {"layers": {}, "metrics": {}}
    setups: list[float] = []
    slices: list[list[tuple]] = []
    # The clients (and so the request streams) carry on from one server
    # to the next; each server is registered with the current relations.
    for _ in range(SERVERS):
        t0 = time.perf_counter()
        server = Server(traced)
        try:
            asyncio.run(_set_up(server.port, wl))
            setups.append(time.perf_counter() - t0)
            slices.append(asyncio.run(_measure(
                server.port, wl, seconds / SERVERS, traced, outcome, trace
            )))
        finally:
            server.stop()
    if not any(len(s) > 1 for s in slices):
        raise BenchError("too few requests completed in the measured window")
    metrics = per_layer(slices, trace) if traced else end_to_end(slices, setups)
    return {
        "correct": outcome["wrong"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, workload.ConstantRepeated) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
