"""CODEGEN-1: the compiled closure vs the reference algebra interpreter.

The acceptance claim of the algebra engine's executor
(``docs/codegen_engine.md``): on a fused scan→select→project→join shape,
running the generated Python pipeline (warm closure cache — compilation
already paid) is at least **2x** faster than walking the same optimized
plan through the operator-at-a-time interpreter kept as the test oracle
(``tests/_reference_algebra.py``), and the auto plan for that shape runs
the algebra engine once the closure is warm, with a ``CodegenPipeline``
node in EXPLAIN.

Two workload shapes:

``fused_join``
    ``R(x,y) & S(y,z) & last(x, '0')`` — the plan filters ``R``'s scan
    with an inlined ``last`` predicate, hash-joins it with ``S`` and
    projects.  The compiled pipeline fuses each scan→select→project
    chain into one loop body and builds the join's hash table once; the
    interpreter pays per-node dispatch, per-row checker dictionaries,
    and an intermediate ``frozenset`` per operator.

``columnar_scan``
    ``W(x,x,y)`` over a wide ternary relation — compiles to
    ``project(select[eq(c0, c1)](W))``, which the closure fuses into one
    pure-Python loop: the ``eq`` inlined as a tuple-item comparison, the
    projection as the tuple it adds, no intermediate relation; the
    interpreter materializes the selection, then projects it.

Both sides get the same optimized plan up front (the closure compiled,
the interpreter handed the plan), neither carries rows from one run to
the next, and the benchmark asserts row agreement at every size.  ``--write-baseline`` commits the
speedup ratios to ``BENCH_codegen.json`` via ``benchmarks/_regress.py``;
``--compare`` exits non-zero when any measured ratio degrades by more
than the baseline's threshold (1.3x) — ``make bench-codegen`` runs the
full gate and ``make test`` the ``--smoke`` subset.
"""

import pathlib
import sys

import pytest

from repro.algebra.codegen import closure_cache, get_pipeline
from repro.algebra.optimize import compile_for_execution
from repro.database import random_database
from repro.logic import parse_formula
from repro.logic.canonical import canonicalize
from repro.strings import BINARY
from repro.structures.catalog import S as S_factory

from _common import measure, print_table, write_explain_json
import _regress

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
from tests._reference_algebra import AlgebraExecutor  # noqa: E402

#: Acceptance bar at the largest full-sweep size, both shapes.
FULL_SPEEDUP = 2.0

#: Wall-clock seconds each side of a shape is timed over (a median of
#: as many runs as fit): the compiled columnar scan takes well under a
#: millisecond, and a median of three such runs swung past the gate.
MIN_SPAN = 0.25

#: (shape, query, relation arities, max string length, seed,
#:  full sizes, smoke sizes).
SHAPES = [
    (
        "fused_join",
        "R(x,y) & S(y,z) & last(x, '0')",
        {"R": 2, "S": 2},
        4,
        11,
        [100, 200, 400],
        [100],
    ),
    (
        "columnar_scan",
        "W(x,x,y)",
        {"W": 3},
        6,
        7,
        [1000, 2000, 4000],
        [1000],
    ),
]


def _shape(name: str):
    for row in SHAPES:
        if row[0] == name:
            return row
    raise KeyError(name)


def _db(shape: str, n: int):
    _name, _q, arities, max_len, seed, _full, _smoke = _shape(shape)
    return random_database(BINARY, arities, n, max_len=max_len, seed=seed)


def _compiled(shape: str, db):
    """(optimized plan, warm GeneratedPipeline, structure, formula)."""
    structure = S_factory(BINARY)
    formula = canonicalize(parse_formula(_shape(shape)[1]))
    plan = compile_for_execution(formula, structure, db.schema, slack=0).fin
    pipeline, _ = get_pipeline(formula, structure, db.schema, slack=0)
    return plan, pipeline, structure, formula


def run_shape(shape: str, n: int) -> dict:
    """Median times for one shape at one size, interpreted vs compiled,
    each over runs spanning :data:`MIN_SPAN` seconds.

    The compiled side times only ``pipeline.run`` — the closure is warm,
    which is the steady state the planner's amortized cost model prices
    (repeated/prepared queries).  The interpreted side times only
    ``run`` on the same plan, with a fresh executor per run so no memo
    carries over between repeats.
    """
    db = _db(shape, n)
    plan, pipeline, structure, _formula = _compiled(shape, db)
    interp_rows = [None]
    compiled_rows = [None]

    def interp_run():
        interp_rows[0] = AlgebraExecutor(structure, db).run(plan)[0]

    def compiled_run():
        compiled_rows[0] = pipeline.run(db)[0]

    interp_s = measure(interp_run, min_seconds=MIN_SPAN)
    compiled_s = measure(compiled_run, min_seconds=MIN_SPAN)
    return {
        "shape": shape,
        "n": n,
        "rows": len(compiled_rows[0]),
        "agree": interp_rows[0] == compiled_rows[0],
        "interp_s": interp_s,
        "compiled_s": compiled_s,
        "speedup": interp_s / max(compiled_s, 1e-9),
        "source_lines": pipeline.line_count,
    }


def run_sweep(smoke: bool) -> list[dict]:
    return [
        run_shape(shape, n)
        for shape, _q, _a, _m, _s, full_sizes, smoke_sizes in SHAPES
        for n in (smoke_sizes if smoke else full_sizes)
    ]


def entries_of(rows: list[dict]) -> dict[str, dict]:
    """Regression-gate entries (see ``benchmarks/_regress.py``)."""
    return {
        f"{r['shape']}/n={r['n']}": {
            "speedup": round(r["speedup"], 3),
            "reference_s": round(r["interp_s"], 6),
            "optimized_s": round(r["compiled_s"], 6),
        }
        for r in rows
    }


def conservative_entries(sweeps: list[list[dict]]) -> dict[str, dict]:
    """Per-key minimum speedup across several sweeps, so normal jitter
    sits inside the gate's 1.3x threshold instead of tripping it."""
    merged: dict[str, dict] = {}
    for sweep in sweeps:
        for key, entry in entries_of(sweep).items():
            kept = merged.get(key)
            if kept is None or entry["speedup"] < kept["speedup"]:
                merged[key] = entry
    return merged


def _top_rows(rows: list[dict]) -> list[dict]:
    """The largest-size row of each shape (where the 2x bar applies)."""
    tops = {shape: sizes[-1] for shape, _q, _a, _m, _s, sizes, _sm in SHAPES}
    return [r for r in rows if r["n"] == tops[r["shape"]]]


def _print_rows(rows: list[dict]) -> None:
    print_table(
        "Compiled closure (warm) vs reference interpreter",
        ["shape", "n", "out rows", "interp s", "compiled s", "speedup",
         "src lines"],
        [
            (
                r["shape"],
                r["n"],
                r["rows"],
                f"{r['interp_s']:.4f}",
                f"{r['compiled_s']:.4f}",
                f"{r['speedup']:.2f}x",
                r["source_lines"],
            )
            for r in rows
        ],
    )


def check_planner_flips(n: int) -> dict:
    """The acceptance EXPLAIN: once the closure is warm, the auto plan on
    the fused-join shape runs the algebra engine and the physical tree is
    a ``CodegenPipeline`` node carrying the generated-source line count."""
    from repro.core import Query
    from repro.engine import global_cache

    db = _db("fused_join", n)
    query = Query(_shape("fused_join")[1], structure="S")
    # Warm the exact closure the auto plan will key on (its template at
    # slack 0), then drop any cached *result* so the traced run executes
    # the pipeline instead of answering from the result cache (closures
    # live in their own cache and survive the reset — the planner still
    # sees them).
    cold = query.plan(db)
    get_pipeline(cold.formula, cold.structure, db.schema, cold.slack)
    global_cache().reset()
    report = query.explain(db)
    tree = report.to_dict()["tree"]

    def kinds(node):
        yield node["kind"]
        for child in node["children"]:
            yield from kinds(child)

    explain_kinds = sorted(set(kinds(tree)))
    print(f"planner chose: {report.plan.engine}; "
          f"EXPLAIN node kinds: {explain_kinds}")
    assert report.plan.engine == "algebra", (
        "warm closure did not make the plan run the algebra engine (chose "
        f"{report.plan.engine}; costs {report.plan.costs})"
    )
    assert "CodegenPipeline" in explain_kinds
    assert "source_lines" in tree["annotations"]
    return {
        "engine": report.plan.engine,
        "explain": report.to_dict(),
    }


# ------------------------------------------------------------------- pytest


@pytest.mark.parametrize("n", [100, 200, 400])
def test_codegen_fused_join(benchmark, n):
    db = _db("fused_join", n)
    _plan, pipeline, _structure, _formula = _compiled("fused_join", db)
    benchmark(lambda: pipeline.run(db))


@pytest.mark.parametrize("n", [1000, 2000])
def test_codegen_columnar_scan(benchmark, n):
    db = _db("columnar_scan", n)
    _plan, pipeline, _structure, _formula = _compiled("columnar_scan", db)
    benchmark(lambda: pipeline.run(db))


def test_codegen_speedup(benchmark):
    """The acceptance sweep: agreement at every size, >= 2x at the top."""
    rows = benchmark.pedantic(
        lambda: run_sweep(smoke=False), rounds=1, iterations=1
    )
    _print_rows(rows)
    assert all(r["agree"] for r in rows)
    assert all(r["speedup"] >= FULL_SPEEDUP for r in _top_rows(rows))


# --------------------------------------------------------------- standalone


def main(argv=None) -> int:
    import argparse

    from repro.engine import METRICS, global_cache

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="minimal sizes")
    parser.add_argument("--explain-json", metavar="PATH", default=None)
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="run the full sweep and (re)write BENCH_codegen.json",
    )
    parser.add_argument(
        "--compare",
        action="store_true",
        help="gate the measured speedups against BENCH_codegen.json",
    )
    args = parser.parse_args(argv)

    METRICS.reset()
    global_cache().reset()
    closure_cache().reset()
    smoke = args.smoke and not args.write_baseline
    rows = run_sweep(smoke)
    _print_rows(rows)
    sizes = _shape("fused_join")[6 if smoke else 5]
    proof = check_planner_flips(sizes[-1])
    entries = entries_of(rows)
    write_explain_json(
        args.explain_json,
        {
            "benchmark": "bench_codegen",
            "rows": rows,
            "entries": entries,
            "explain": proof["explain"],
            "metrics": METRICS.snapshot(),
            "closure_cache": closure_cache().stats(),
        },
    )

    if not all(r["agree"] for r in rows):
        print("FAIL: compiled closure and reference interpreter disagree")
        return 1
    floor = 1.0 if smoke else FULL_SPEEDUP
    for r in _top_rows(rows):
        if r["speedup"] < floor:
            print(
                f"FAIL: {r['shape']} speedup {r['speedup']:.2f}x < "
                f"required {floor:g}x at n={r['n']}"
            )
            return 1
    if args.write_baseline:
        extra = [run_sweep(smoke=False) for _ in range(2)]
        _regress.write_baseline(
            _regress.baseline_path("codegen"),
            "codegen",
            conservative_entries([rows, *extra]),
        )
        return 0
    if args.compare:
        return _regress.gate("codegen", entries)
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
