#!/usr/bin/env python3
"""Aggregate every committed ``BENCH_*.json`` baseline into one report.

Each benchmark in ``benchmarks/`` gates its speedup claims against a
committed baseline (``benchmarks/_regress.py``); this tool is the
cross-PR view of those claims.  It reads every ``BENCH_<name>.json`` in
the repo root and prints a markdown document with

* one summary table — per bench: entry count, regression threshold, and
  the min / median / max committed value of its gated metric (the
  speedup ratio, or the service bench's absolute warm req/s), and
* one detail table per bench — every workload key with its committed
  gated value and the bench-specific numbers beside it (wall times for
  the timed sweeps, latency for the service bench).

Ratios below 1.0 are printed as-is: some baselines deliberately commit
honest sub-1x entries (e.g. ``BENCH_ranf.json``'s LENGTH / SIMILAR TO
shapes, where the automata engine genuinely wins — see
``docs/ranf_translation.md``), and hiding them would misstate the
trajectory.

Run via ``make bench-report``; pass ``--out PATH`` to also write the
markdown to a file.  Exits non-zero only when no baselines are found or
one fails to parse — this is a reporting tool, not a gate
(``make bench-compare`` is the gate).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_baselines() -> list[dict]:
    baselines = []
    for path in sorted(ROOT.glob("BENCH_*.json")):
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        for field in ("bench", "threshold", "entries"):
            if field not in data:
                raise ValueError(f"{path.name}: missing {field!r} field")
        data["_path"] = path.name
        baselines.append(data)
    return baselines


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def render(baselines: list[dict]) -> str:
    lines = [
        "# Benchmark trajectory",
        "",
        "Committed speedup baselines (optimized path vs reference path,",
        "ratios are machine-portable; see `benchmarks/_regress.py`) and,",
        "where a bench gates another metric, its committed values.",
        "",
        "| bench | metric | entries | threshold | min | median | max |",
        "|---|---|---:|---:|---:|---:|---:|",
    ]
    for data in baselines:
        metric = data.get("metric", "speedup")
        speedups = [entry[metric] for entry in data["entries"].values()]
        lines.append(
            "| {bench} | {metric} | {count} | {thr}x | {mn} | {med} | {mx} |".format(
                bench=data["bench"],
                metric=metric,
                count=len(speedups),
                thr=data["threshold"],
                mn=_fmt(min(speedups)),
                med=_fmt(statistics.median(speedups)),
                mx=_fmt(max(speedups)),
            )
        )
    for data in baselines:
        metric = data.get("metric", "speedup")
        unit = "x" if metric == "speedup" else ""
        lines += [
            "",
            f"## {data['bench']} ({data['_path']})",
            "",
            f"| workload | {metric} | detail |",
            "|---|---:|---|",
        ]
        for key, entry in sorted(data["entries"].items()):
            # Entries carry bench-specific extras besides the gated value
            # (reference_s/optimized_s for timed sweeps, p50/p99 for the
            # service bench) — render whatever is there.
            detail = ", ".join(
                f"{field}={value:g}"
                for field, value in sorted(entry.items())
                if field != metric
            )
            lines.append(
                f"| {key} | {_fmt(entry[metric])}{unit} | {detail} |"
            )
    lines.append("")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", metavar="PATH", default=None,
        help="also write the markdown report to this file",
    )
    args = parser.parse_args(argv)

    try:
        baselines = load_baselines()
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"bench-report: {exc}", file=sys.stderr)
        return 1
    if not baselines:
        print("bench-report: no BENCH_*.json baselines found", file=sys.stderr)
        return 1

    report = render(baselines)
    print(report, end="")
    if args.out:
        pathlib.Path(args.out).write_text(report, encoding="utf-8")
        print(f"(written to {args.out})", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
