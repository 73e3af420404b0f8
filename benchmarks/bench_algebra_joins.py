"""ALG-1: the algebra engine's fused hash join vs naive ``Select(Product)``.

The acceptance claim of the algebra engine (``docs/algebra_engine.md``):
on a 2-relation equi-join workload the fused hash join — the optimized
plan run by the engine's compiled closure — beats the naive ``Product``
+ tuple-at-a-time ``Select`` plan by >= 10x at the largest benchmarked
database size, and EXPLAIN for the same query shows a ``HashJoin`` node
instead of ``Select(Product(...))``.

The standalone entry point emits JSON (``--explain-json``) with per-size
rows/sec for both paths and the peak intermediate relation size, feeding
the BENCH trajectory; ``make bench-algebra-smoke`` runs the minimal
sweep and asserts the fused plan wins at all.

The naive side runs on the operator-at-a-time interpreter kept as the
test oracle (``tests/_reference_algebra.py``): the compiled closure is
the only plan evaluator in ``src/``.
"""

import pathlib
import sys

import pytest

from repro.database import random_database
from repro.algebra.codegen import build_pipeline
from repro.algebra.compile import compile_query
from repro.algebra.optimize import optimize, optimize_for_execution
from repro.logic import parse_formula
from repro.logic.transform import flatten_terms
from repro.strings import BINARY
from repro.structures.catalog import S as S_factory

from _common import measure, print_table, standalone_args, write_explain_json

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
from tests._reference_algebra import evaluate  # noqa: E402

QUERY = "R(x,y) & S(y,z)"
SIZES = [50, 100, 200, 400]
#: Acceptance bar at the largest size (the smoke sweep only asserts > 1x:
#: sub-millisecond naive runs make the ratio noisy at tiny sizes).
FULL_SPEEDUP = 10.0


def _db(n: int):
    return random_database(BINARY, {"R": 2, "S": 2}, n, max_len=4, seed=11)


def _plans(db):
    """(naive Select-over-Product plan, the fused hash-join plan compiled
    into the engine's closure, slot values, structure)."""
    structure = S_factory(BINARY)
    formula = flatten_terms(parse_formula(QUERY))
    compiled = compile_query(formula, structure, db.schema)
    fused = build_pipeline(
        optimize_for_execution(compiled.plan), compiled.columns, structure,
        "bench_algebra_joins",
    )
    return optimize(compiled.plan), fused, compiled.params, structure


@pytest.mark.parametrize("n", SIZES[:3])
def test_alg_naive_product_select(benchmark, n):
    db = _db(n)
    naive, _fused, params, structure = _plans(db)
    benchmark(lambda: evaluate(naive, db, structure, params))


@pytest.mark.parametrize("n", SIZES)
def test_alg_fused_hash_join(benchmark, n):
    db = _db(n)
    _naive, fused, params, structure = _plans(db)
    benchmark(lambda: fused.run(db, params))


def test_alg_join_speedup(benchmark):
    """The acceptance sweep: agreement at every size, >= 10x at the top."""
    rows = benchmark.pedantic(
        lambda: run_sweep(SIZES), rounds=1, iterations=1
    )
    print_table(
        "Equi-join: naive Select(Product) vs fused hash join",
        ["n", "out rows", "naive s", "fused s", "speedup", "peak rows"],
        [
            (
                r["n"],
                r["rows"],
                f"{r['naive_s']:.4f}",
                f"{r['fused_s']:.4f}",
                f"{r['speedup']:.1f}x",
                r["peak_intermediate"],
            )
            for r in rows
        ],
    )
    assert all(r["agree"] for r in rows)
    assert rows[-1]["speedup"] >= FULL_SPEEDUP


def run_sweep(sizes) -> list[dict]:
    """Measure both paths at each size; shared by pytest and standalone."""
    out = []
    for n in sizes:
        db = _db(n)
        naive, fused, params, structure = _plans(db)
        naive_rows = [None]
        fused_rows = [None]
        naive_s = measure(lambda: naive_rows.__setitem__(
            0, evaluate(naive, db, structure, params)), repeats=1)

        def fused_run():
            fused_rows[0] = fused.run(db, params)

        fused_s = measure(fused_run, repeats=1)
        result, stage_rows = fused_rows[0]
        in_rows = len(db.relation("R")) + len(db.relation("S"))
        out.append(
            {
                "n": n,
                "rows": len(result),
                "agree": naive_rows[0] == result,
                "naive_s": naive_s,
                "fused_s": fused_s,
                "speedup": naive_s / max(fused_s, 1e-9),
                "naive_rows_per_s": in_rows / max(naive_s, 1e-9),
                "fused_rows_per_s": in_rows / max(fused_s, 1e-9),
                # The fused peak is the largest materialized relation; the
                # naive plan conceptually visits every Product pair.
                "peak_intermediate": max(stage_rows),
                "naive_pairs_checked": len(db.relation("R"))
                * len(db.relation("S")),
            }
        )
    return out


# --------------------------------------------------------- standalone entry


def main(argv=None) -> int:
    from repro import Query
    from repro.engine import METRICS, global_cache

    args = standalone_args(
        "Algebra engine: fused hash joins vs naive Product+Select", argv
    )
    sizes = SIZES[:2] if args.smoke else SIZES
    METRICS.reset()
    global_cache().reset()
    rows = run_sweep(sizes)
    print_table(
        "Equi-join: naive Select(Product) vs fused hash join",
        ["n", "out rows", "naive s", "fused s", "speedup", "peak rows"],
        [
            (
                r["n"],
                r["rows"],
                f"{r['naive_s']:.4f}",
                f"{r['fused_s']:.4f}",
                f"{r['speedup']:.1f}x",
                r["peak_intermediate"],
            )
            for r in rows
        ],
    )
    assert all(r["agree"] for r in rows), "fused plan changed the answer"
    floor = 1.0 if args.smoke else FULL_SPEEDUP
    top = rows[-1]["speedup"]
    assert top >= floor, f"speedup {top:.1f}x below the {floor:.0f}x bar"

    # The acceptance EXPLAIN: the planner picks the algebra engine on the
    # largest database and its physical tree contains a HashJoin node.
    db = _db(sizes[-1])
    report = Query(QUERY, structure="S").explain(db)
    tree = report.to_dict()["tree"]

    def kinds(node):
        yield node["kind"]
        for child in node["children"]:
            yield from kinds(child)

    explain_kinds = sorted(set(kinds(tree)))
    print(f"planner chose: {report.plan.engine}; "
          f"EXPLAIN node kinds: {explain_kinds}")
    assert report.plan.engine == "algebra"
    assert "HashJoin" in explain_kinds

    write_explain_json(
        args.explain_json,
        {
            "benchmark": "bench_algebra_joins",
            "query": QUERY,
            "rows": rows,
            "explain": report.to_dict(),
            "metrics": METRICS.snapshot(),
        },
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
