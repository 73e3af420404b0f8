"""RANF-1: the widened fast-engine regime vs the automata baseline.

The acceptance claim of the RANF translation (``docs/ranf_translation.md``):
on queries the old algebra gate rejected — restricted PREFIX/LENGTH
quantifiers, and gamma-bounded queries whose free variables are not
anchored in a positive database atom — the RANF-translated plan run by
the algebra engine (interpreted or fused) is at least **5x** faster than
the exact automata engine (the engine the planner had to fall back to
before this translation existed) on at least three shapes at the largest
benchmarked size, and the auto planner now actually *chooses* the fast
engine there (counter-verified via ``planner.backend.*.chosen``).

Six workload shapes, all rejected by the pre-RANF gate
(``algebra_eligible(formula)`` without a structure, plus
``restricted_output_gate``):

``prefix_quant`` / ``prefix_join`` / ``prefix_pair``
    Anchored joins under one or two ``exists prefix`` quantifiers — the
    restricted-quantifiers branch; the finite half fuses into a compiled
    pipeline (``PrefixOp`` expansion + hash joins).

``gamma_join``
    ``eq(x, y) & R(y, z) & !U(x)`` — ``x`` is unanchored, so the old
    direct/algebra gates both refused; the gamma-bounded branch certifies
    ``x`` through the ``eq`` implication and runs a hash join against the
    gamma ball, with the paired "infinite?" query checked first.

``similar_setop``
    A SIMILAR TO set-operation shape (the SQL layer's translation,
    RC(S_reg)), gamma-bounded like ``gamma_join``: the equality binds
    ``x`` to ``R``'s column, so the plan is one filtered scan and the
    planner picks the fast engine at every size.

``length_quant``
    A LENGTH-quantified shape (RC(S_len)).  Newly *eligible*, but the
    automata engine stays genuinely faster here and the sweep records the
    honest sub-1x ratios.  The cost model still picks the fast engine:
    the LENGTH membership plan is quadratic
    (body × adom probe) and the automata estimator's state-count units
    are so pessimistic on LENGTH quantifiers (~1e12 vs ~1e5 row-ops)
    that no per-row constant can bridge them — recalibrating those units
    would reshuffle every historical automata-vs-direct decision, so the
    mis-plan is recorded here and tracked in ROADMAP.md instead of
    papered over.

Both sides answer from the same formula at the same slack and the
benchmark asserts row agreement at every size.  ``--write-baseline``
commits the ratios to ``BENCH_ranf.json`` via ``benchmarks/_regress.py``;
``--compare`` exits non-zero when any ratio degrades by more than the
baseline threshold (1.3x) — ``make bench-ranf`` runs the full gate and
``make test`` the ``--smoke`` subset.
"""

import pytest

from repro.database import random_database
from repro.engine.cache import AutomatonCache
from repro.engine.explain import execute_plan
from repro.engine.planner import Planner, algebra_eligible
from repro.eval import AutomataEngine
from repro.logic import parse_formula
from repro.logic.canonical import canonicalize
from repro.sql.similar import similar_to_regex_text
from repro.strings import BINARY
from repro.structures.catalog import by_name

from _common import measure, print_table, write_explain_json
import _regress

#: Acceptance bar at the largest full-sweep size on the fast shapes.
FULL_SPEEDUP = 5.0

#: How many of the shapes marked ``fast`` must clear the bar.
FAST_SHAPES_REQUIRED = 3

_SIM_STARTS_0 = similar_to_regex_text("0%")
_SIM_ENDS_11 = similar_to_regex_text("%11")

#: (shape, query, structure name, relation arities, max string length,
#:  seed, full sizes, smoke sizes, flip expectation).  The flip field is
#:  what the auto planner must do at the shape's top full size:
#:  ``"fast"`` — pick algebra AND clear the 5x bar (and the >=1x
#:  smoke floor); ``"fast-chosen"`` — pick algebra (the coverage
#:  proof) with no speed bar; ``"automata"`` — correctly keep automata.
SHAPES = [
    (
        "prefix_quant",
        "R(x) & (exists prefix y: T(y, x))",
        "S",
        {"R": 1, "T": 2},
        16,
        11,
        [500, 1000, 2000],
        [300],
        "fast",
    ),
    (
        "prefix_join",
        "R(x, z) & (exists prefix y: T(y, x))",
        "S",
        {"R": 2, "T": 2},
        16,
        11,
        [500, 1000, 2000],
        [300],
        "fast",
    ),
    (
        "prefix_pair",
        "R(x) & (exists prefix y: T(y, x)) & (exists prefix w: U(w, x))",
        "S",
        {"R": 1, "T": 2, "U": 2},
        16,
        11,
        [500, 1000, 2000],
        [300],
        "fast",
    ),
    (
        "gamma_join",
        "eq(x, y) & R(y, z) & !U(x)",
        "S",
        {"R": 2, "U": 1},
        16,
        11,
        [500, 1000, 2000],
        [300],
        "fast-chosen",
    ),
    (
        "length_quant",
        "R(x) & (exists len y: T(y, x))",
        "S_len",
        {"R": 1, "T": 2},
        8,
        11,
        [100, 200, 400],
        [100],
        "fast-chosen",
    ),
    (
        "similar_setop",
        f'eq(x, y) & R(y) & matches(x, "{_SIM_STARTS_0}")'
        f' & !matches(x, "{_SIM_ENDS_11}")',
        "S_reg",
        {"R": 1},
        16,
        11,
        [250, 500, 1000],
        [250],
        "fast-chosen",
    ),
]

_SLACK = 1


def _shape(name: str):
    for row in SHAPES:
        if row[0] == name:
            return row
    raise KeyError(name)


def _db(shape: str, n: int):
    _, _q, _s, arities, max_len, seed, _full, _smoke, _flip = _shape(shape)
    return random_database(BINARY, arities, n, max_len=max_len, seed=seed)


def _parsed(shape: str):
    """(canonical formula, structure) for one shape."""
    _, query, struct_name, *_rest = _shape(shape)
    return canonicalize(parse_formula(query)), by_name(struct_name, BINARY)


def _assert_old_gate_rejected(shape: str, db) -> None:
    """Every benchmarked shape sat outside the pre-RANF fast regime."""
    from repro.engine.backend import restricted_output_gate

    formula, _structure = _parsed(shape)
    old_ok = algebra_eligible(formula) and restricted_output_gate(formula, db)[0]
    assert not old_ok, f"{shape}: the old gate already accepted this query"


def run_shape(shape: str, n: int) -> dict:
    """Median times for one shape at one size, fast engine vs automata.

    The fast side runs the auto plan when the planner picks algebra
    (interpreted or fused), else a forced-``algebra`` plan (the slow shapes,
    where automata stays the auto choice and we record the honest
    ratio).  Fresh automaton/result caches per repeat; the RANF
    translation cache stays warm across repeats — the steady state the
    planner's amortized ``ranf_setup`` prices.
    """
    db = _db(shape, n)
    formula, structure = _parsed(shape)
    _assert_old_gate_rejected(shape, db)

    auto_plan = Planner(structure, db).plan(formula, slack=_SLACK)
    if auto_plan.engine == "algebra":
        fast_plan = auto_plan
    else:
        fast_plan = Planner(structure, db).plan(
            formula, slack=_SLACK, force="algebra"
        )
    fast_rows = [None]
    auto_rows = [None]

    def fast_run():
        result = execute_plan(fast_plan, db, cache=AutomatonCache(maxsize=256))
        fast_rows[0] = result.as_set()

    def automata_run():
        auto_rows[0] = AutomataEngine(structure, db, slack=_SLACK).run(
            formula
        ).as_set()

    fast_s = measure(fast_run, repeats=3)
    automata_s = measure(automata_run, repeats=3)
    return {
        "shape": shape,
        "n": n,
        "rows": len(fast_rows[0]),
        "agree": fast_rows[0] == auto_rows[0],
        "auto_engine": auto_plan.engine,
        "fast_engine": fast_plan.engine,
        "fast_strategy": fast_plan.strategy,
        "automata_s": automata_s,
        "fast_s": fast_s,
        "speedup": automata_s / max(fast_s, 1e-9),
    }


def run_sweep(smoke: bool) -> list[dict]:
    return [
        run_shape(shape, n)
        for shape, _q, _st, _a, _m, _sd, full, smoke_sizes, _flip in SHAPES
        for n in (smoke_sizes if smoke else full)
    ]


def entries_of(rows: list[dict]) -> dict[str, dict]:
    """Regression-gate entries (see ``benchmarks/_regress.py``)."""
    return {
        f"{r['shape']}/n={r['n']}": {
            "speedup": round(r["speedup"], 3),
            "reference_s": round(r["automata_s"], 6),
            "optimized_s": round(r["fast_s"], 6),
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


def _top_fast_rows(rows: list[dict]) -> list[dict]:
    """The largest-size row of each shape marked fast (the 5x bar)."""
    tops = {
        shape: sizes[-1]
        for shape, _q, _st, _a, _m, _sd, sizes, _sm, flip in SHAPES
        if flip == "fast"
    }
    return [r for r in rows if tops.get(r["shape"]) == r["n"]]


def _print_rows(rows: list[dict]) -> None:
    print_table(
        "RANF-translated fast engine vs exact automata baseline",
        ["shape", "n", "out rows", "auto choice", "fast engine",
         "strategy", "automata s", "fast s", "speedup"],
        [
            (
                r["shape"],
                r["n"],
                r["rows"],
                r["auto_engine"],
                r["fast_engine"],
                r["fast_strategy"],
                f"{r['automata_s']:.4f}",
                f"{r['fast_s']:.4f}",
                f"{r['speedup']:.2f}x",
            )
            for r in rows
        ],
    )


def check_planner_flips() -> dict:
    """The acceptance EXPLAIN: for every fast shape at its top size the
    auto planner picks algebra (counter-verified through
    ``planner.backend.*.chosen``) even though the old gate rejected the
    formula, and a forced-algebra EXPLAIN of the gamma shape shows the
    ``RanfPair`` node with its branch annotation."""
    from repro.core import Query
    from repro.engine import METRICS, global_cache

    flips = {}
    for shape, query, struct_name, _a, _m, _sd, sizes, _sm, flip in SHAPES:
        n = sizes[-1]
        db = _db(shape, n)
        _assert_old_gate_rejected(shape, db)
        formula, structure = _parsed(shape)
        global_cache().reset()
        before = METRICS.snapshot()
        plan = Planner(structure, db).plan(formula, slack=_SLACK)
        delta = {
            k: v - before.get(k, 0)
            for k, v in METRICS.snapshot().items()
            if v != before.get(k, 0)
        }
        chosen_counter = f"planner.backend.{plan.engine}.chosen"
        assert delta.get(chosen_counter, 0) >= 1, (
            f"{shape}: {chosen_counter} did not move (delta {delta})"
        )
        if flip in ("fast", "fast-chosen"):
            assert plan.engine == "algebra", (
                f"{shape}: expected a fast-engine flip at n={n}, "
                f"planner chose {plan.engine} (costs {plan.costs})"
            )
        else:
            assert plan.engine == "automata", (
                f"{shape}: cost model should keep automata at n={n}, "
                f"planner chose {plan.engine} (costs {plan.costs})"
            )
        flips[shape] = {"n": n, "engine": plan.engine, "costs": plan.costs}

    # The RanfPair EXPLAIN proof on the gamma-bounded shape.
    shape = "gamma_join"
    db = _db(shape, _shape(shape)[6][0])
    query = Query(_shape(shape)[1], structure="S")
    global_cache().reset()
    report = query.explain(db, engine="algebra", slack=_SLACK)
    tree = report.to_dict()["tree"]
    assert tree["kind"] == "RanfPair", f"EXPLAIN root is {tree['kind']}"
    assert tree["annotations"]["branch"] == "gamma-bounded"
    return {"flips": flips, "explain": report.to_dict()}


# ------------------------------------------------------------------- pytest


@pytest.mark.parametrize("shape", [s[0] for s in SHAPES])
def test_ranf_shape_agreement(benchmark, shape):
    n = _shape(shape)[7][0]
    row = benchmark.pedantic(
        lambda: run_shape(shape, n), rounds=1, iterations=1
    )
    assert row["agree"]


def test_ranf_speedup(benchmark):
    """The acceptance sweep: agreement at every size, >= 5x at the top
    on at least three fast shapes."""
    rows = benchmark.pedantic(
        lambda: run_sweep(smoke=False), rounds=1, iterations=1
    )
    _print_rows(rows)
    assert all(r["agree"] for r in rows)
    cleared = [r for r in _top_fast_rows(rows) if r["speedup"] >= FULL_SPEEDUP]
    assert len(cleared) >= FAST_SHAPES_REQUIRED


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
        help="run the full sweep and (re)write BENCH_ranf.json",
    )
    parser.add_argument(
        "--compare",
        action="store_true",
        help="gate the measured speedups against BENCH_ranf.json",
    )
    args = parser.parse_args(argv)

    METRICS.reset()
    global_cache().reset()
    smoke = args.smoke and not args.write_baseline
    rows = run_sweep(smoke)
    _print_rows(rows)
    proof = check_planner_flips() if not smoke else None
    entries = entries_of(rows)
    write_explain_json(
        args.explain_json,
        {
            "benchmark": "bench_ranf",
            "rows": rows,
            "entries": entries,
            "planner_flips": proof["flips"] if proof else None,
            "explain": proof["explain"] if proof else None,
            "metrics": METRICS.snapshot(),
        },
    )

    if not all(r["agree"] for r in rows):
        print("FAIL: RANF fast engine and automata baseline disagree")
        return 1
    if smoke:
        # Smoke asserts correctness plus a sane floor: the fast shapes
        # must not be slower than automata even at tiny sizes.
        slow = [
            r for r in rows
            if _shape(r["shape"])[8] == "fast" and r["speedup"] < 1.0
        ]
        for r in slow:
            print(
                f"FAIL: {r['shape']} speedup {r['speedup']:.2f}x < 1x "
                f"at smoke size n={r['n']}"
            )
        if slow:
            return 1
        return 0
    cleared = [r for r in _top_fast_rows(rows) if r["speedup"] >= FULL_SPEEDUP]
    if len(cleared) < FAST_SHAPES_REQUIRED:
        print(
            f"FAIL: only {len(cleared)} fast shapes cleared "
            f"{FULL_SPEEDUP:g}x (need {FAST_SHAPES_REQUIRED})"
        )
        return 1
    if args.write_baseline:
        extra = [run_sweep(smoke=False) for _ in range(2)]
        _regress.write_baseline(
            _regress.baseline_path("ranf"),
            "ranf",
            conservative_entries([rows, *extra]),
        )
        return 0
    if args.compare:
        return _regress.gate("ranf", entries)
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
