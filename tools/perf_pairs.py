#!/usr/bin/env python3
"""Alternated parent/change pairs of the end-to-end service benchmark.

A speed claim compares two commits on ``perfbench/run.py``.  This tool
extracts both with ``git archive`` into a temporary directory (so neither
side reads bytecode, build output or uncommitted files of the working
tree), then runs ``perfbench/run.py`` from each copy with
``PYTHONDONTWRITEBYTECODE=1``, ``--pairs`` times per workload.  Pair
``i`` runs the parent first when ``i`` is even and the change first when
it is odd, so a drift in host load does not favour one side.

For each workload and end-to-end metric it prints the median and the
quartiles of both sides, the change's wins (pairs in which it was
better, in the direction ``BENCHMARK.json`` declares), and each side's
failed operations per run and whether every answer was correct.  ``--out PATH`` also writes
every run's JSON result, one line per run.

Usage (from the repository root)::

    python tools/perf_pairs.py --parent HEAD~1 --workloads adhoc_mix \\
        --pairs 10 --seconds 30

or ``make perf-pairs PARENT=HEAD~1 WORKLOADS=adhoc_mix PAIRS=10``.
Exits non-zero when a run fails to produce a result; the numbers are a
report, not a gate.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Metric directions when the change's BENCHMARK.json declares none.
DEFAULT_BETTER = {
    "p50_ms": "lower", "p90_ms": "lower",
    "throughput_rps": "higher", "setup_s": "lower",
}


def archive(ref: str, dest: pathlib.Path) -> str:
    """Extract commit ``ref`` into ``dest``; returns its full hash."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{ref}^{{commit}}"], cwd=ROOT,
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    dest.mkdir(parents=True)
    tar = subprocess.Popen(
        ["git", "archive", commit], cwd=ROOT, stdout=subprocess.PIPE
    )
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=tar.stdout, check=True)
    tar.stdout.close()
    if tar.wait() != 0:
        raise SystemExit(f"error: git archive {ref} failed")
    return commit


def directions(tree: pathlib.Path) -> dict[str, str]:
    """End-to-end metric name -> "lower" | "higher", from BENCHMARK.json."""
    try:
        spec = json.loads((tree / "BENCHMARK.json").read_text())
        return {m["name"]: m["better"] for m in spec["end_to_end"]}
    except (OSError, ValueError, KeyError):
        return dict(DEFAULT_BETTER)


def run_once(tree: pathlib.Path, workload: str, seed: int,
             seconds: float) -> dict:
    """One ``perfbench/run.py`` run from ``tree``: its result object."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"error: perfbench run in {tree.name} failed: "
            + proc.stderr.strip()[-500:]
        )
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def report(workload: str, runs: dict[str, list[dict]],
           better: dict[str, str]) -> list[str]:
    """The markdown lines of one workload's table."""
    parent, change = runs["parent"], runs["change"]
    out = [
        f"### {workload} ({len(parent)} pairs)",
        "",
        "| metric | parent median [q1, q3] | change median [q1, q3] "
        "| change wins |",
        "|---|---:|---:|---:|",
    ]
    for name, direction in better.items():
        a = [r["metrics"][name]["value"] for r in parent]
        b = [r["metrics"][name]["value"] for r in change]
        wins = sum(
            (y < x) if direction == "lower" else (y > x)
            for x, y in zip(a, b)
        )
        (pa1, pa2, pa3), (pb1, pb2, pb3) = quartiles(a), quartiles(b)
        out.append(
            f"| {name} | {pa2:.4g} [{pa1:.4g}, {pa3:.4g}] "
            f"| {pb2:.4g} [{pb1:.4g}, {pb3:.4g}] | {wins}/{len(a)} |"
        )
    out.append("")
    for side, results in runs.items():
        out.append(
            f"- {side}: failed operations "
            f"{[r['failed'] for r in results]}, every answer correct: "
            f"{all(r['correct'] for r in results)}"
        )
    return out + [""]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="git ref of the parent side")
    parser.add_argument("--change", default="HEAD",
                        help="git ref of the change side (default HEAD)")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--out", help="write every run's result here (JSONL)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with tempfile.TemporaryDirectory(prefix="perf-pairs-") as tmp:
        trees = {
            "parent": pathlib.Path(tmp) / "parent",
            "change": pathlib.Path(tmp) / "change",
        }
        commits = {side: archive(ref, trees[side]) for side, ref in
                   (("parent", args.parent), ("change", args.change))}
        better = directions(trees["change"])
        print(f"parent {commits['parent'][:12]}  change "
              f"{commits['change'][:12]}  seed {args.seed}  "
              f"{args.seconds:g} s per run\n")
        log = open(args.out, "w") if args.out else None
        try:
            for workload in args.workloads:
                runs: dict[str, list[dict]] = {"parent": [], "change": []}
                for i in range(args.pairs):
                    order = ("parent", "change") if i % 2 == 0 else (
                        "change", "parent")
                    for side in order:
                        result = run_once(trees[side], workload, args.seed,
                                          args.seconds)
                        runs[side].append(result)
                        if log is not None:
                            log.write(json.dumps({
                                "workload": workload, "pair": i,
                                "side": side, "result": result,
                            }) + "\n")
                            log.flush()
                    print(f"{workload} pair {i + 1}/{args.pairs}: p50 "
                          f"{runs['parent'][-1]['metrics']['p50_ms']['value']:.3f}"
                          f" -> {runs['change'][-1]['metrics']['p50_ms']['value']:.3f}"
                          " ms", file=sys.stderr)
                print("\n".join(report(workload, runs, better)))
        finally:
            if log is not None:
                log.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
