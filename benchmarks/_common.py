"""Shared helpers for the benchmark harness.

Every benchmark regenerates one figure / table / claim of the paper (see
DESIGN.md's experiment index and EXPERIMENTS.md for results).  The paper
is a theory paper, so "regenerating a figure" means measuring the
operational content of the theorem — scaling exponents, decision
procedure outcomes, engine agreement — and printing the reconstructed
figure row by row.

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import argparse
import json
import math
import time
from collections.abc import Callable, Sequence

from repro.database import Database, random_database, unary_database
from repro.strings import BINARY


def db_sweep(sizes: Sequence[int], arities: dict[str, int] | None = None, max_len: int = 6):
    """Deterministic databases of growing size."""
    arities = arities or {"R": 1, "S": 1}
    return {
        n: random_database(BINARY, arities, tuples_per_relation=n, max_len=max_len, seed=7)
        for n in sizes
    }


def measure(
    fn: Callable[[], object], repeats: int = 3, min_seconds: float = 0.0
) -> float:
    """Median wall-clock seconds of ``fn`` over ``repeats`` runs, or over
    as many more as it takes to span ``min_seconds``: a sub-millisecond
    body then gets hundreds of samples, so one preempted or collected
    run on a loaded host cannot move the median."""
    times = []
    start = time.perf_counter()
    while len(times) < repeats or time.perf_counter() - start < min_seconds:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]


def fitted_exponent(sizes: Sequence[int], times: Sequence[float]) -> float:
    """Least-squares slope of log(time) against log(size).

    ~1 for linear algorithms, ~2 for quadratic, etc.  Sub-millisecond
    noise makes small sweeps fuzzy; the benchmarks assert *bands*, not
    exact values.
    """
    xs = [math.log(s) for s in sizes]
    ys = [math.log(max(t, 1e-9)) for t in times]
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    num = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    den = sum((x - mean_x) ** 2 for x in xs)
    return num / den if den else 0.0


def growth_ratios(times: Sequence[float]) -> list[float]:
    """Consecutive ratios t[i+1] / t[i]."""
    return [b / a if a > 0 else float("inf") for a, b in zip(times, times[1:])]


def standalone_args(description: str, argv: Sequence[str] | None = None) -> argparse.Namespace:
    """Arguments for a benchmark's standalone (non-pytest) entry point.

    ``--smoke`` runs the minimal sizes only; ``--explain-json PATH`` dumps
    the run's metrics (and EXPLAIN trees where applicable) as JSON — what
    ``make bench-smoke`` asserts parses.
    """
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--smoke", action="store_true", help="minimal sizes (CI smoke run)"
    )
    parser.add_argument(
        "--explain-json",
        metavar="PATH",
        default=None,
        help="write metrics + explain output as JSON to PATH",
    )
    return parser.parse_args(argv)


def write_explain_json(path: str | None, payload: dict) -> None:
    """Dump a benchmark's JSON payload (metrics snapshot, explains, rows)."""
    if path is None:
        return
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True, default=str)
    print(f"wrote metrics JSON to {path}")


def print_table(title: str, headers: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    """Print a reconstructed paper table (shown under ``pytest -s``)."""
    print(f"\n--- {title} ---")
    widths = [
        max(len(str(h)), max((len(str(r[i])) for r in rows), default=0))
        for i, h in enumerate(headers)
    ]
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
