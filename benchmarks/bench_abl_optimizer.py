"""ABL-2: ablation — algebra plan optimization and CSE evaluation.

The calculus->algebra compiler repeats its ``gamma``-bound subplan once
per bounded column and negation.  This bench quantifies what rewriting
and common-subexpression evaluation recover.  The naive side is the
operator-at-a-time interpreter kept as the test oracle
(``tests/_reference_algebra.py``), which evaluates a repeated subplan once
per occurrence; the CSE side is the plan's compiled closure
(:func:`repro.algebra.codegen.plan_pipeline`), whose emitter memo gives
equal subplans one variable, so each is evaluated once per run.  Measured finding (recorded
in EXPERIMENTS.md): the repeated bound subplans are *cheap* relative to
the ``bound x bound`` products the translation genuinely needs, so CSE
and the rewrites give only a modest constant-factor win — the products
are the real cost, exactly as the paper's range-restricted semantics
predicts (the bound is the output-space, and you pay for it once per
bounded column no matter how cleverly you share subtrees).
"""

import pathlib
import sys

import pytest

from repro.algebra import compile_query, optimize
from repro.algebra.codegen import plan_pipeline
from repro.database import random_database
from repro.eval import AutomataEngine
from repro.logic import parse_formula
from repro.strings import BINARY
from repro.structures import S

from _common import measure, print_table

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
from tests._reference_algebra import evaluate  # noqa: E402

QUERY = parse_formula(
    "R(x) & !S(x) & exists adom y: S(y) & y <<= x | R(x) & last(x, '1')"
)
SIZES = [4, 8, 16, 32]


def _setup(n):
    db = random_database(BINARY, {"R": 1, "S": 1}, n, max_len=5, seed=17)
    compiled = compile_query(QUERY, S(BINARY), db.schema, slack=1)
    return db, compiled


@pytest.mark.parametrize("n", SIZES[:2])
def test_abl_naive_plan_eval(benchmark, n):
    db, compiled = _setup(n)
    benchmark.pedantic(
        lambda: evaluate(compiled.plan, db, S(BINARY), compiled.params),
        rounds=2,
        iterations=1,
    )


@pytest.mark.parametrize("n", SIZES)
def test_abl_optimized_cse_eval(benchmark, n):
    db, compiled = _setup(n)
    closure = plan_pipeline(optimize(compiled.plan), S(BINARY))
    benchmark(lambda: closure.run(db, compiled.params))


def test_abl_optimizer_comparison(benchmark):
    def sweep():
        rows = []
        for n in SIZES:
            db, compiled = _setup(n)
            structure = S(BINARY)
            expected = AutomataEngine(structure, db).run(QUERY).as_set()
            raw = plan_pipeline(compiled.plan, structure)
            optimized = plan_pipeline(optimize(compiled.plan), structure)
            params = compiled.params
            t_naive = measure(
                lambda: evaluate(compiled.plan, db, structure, params), repeats=1
            )
            t_cse = measure(lambda: raw.run(db, params), repeats=1)
            t_both = measure(lambda: optimized.run(db, params), repeats=1)
            assert evaluate(compiled.plan, db, structure, params) == expected
            assert optimized.run(db, params)[0] == expected
            rows.append((n, t_naive, t_cse, t_both))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "Ablation: compiled-plan evaluation strategies",
        ["n", "naive s", "CSE s", "optimize+CSE s", "speedup"],
        [
            (n, f"{a:.4f}", f"{b:.4f}", f"{c:.4f}", f"{a / c:.1f}x")
            for n, a, b, c in rows
        ],
    )
    # CSE must never lose to naive evaluation on these shapes.
    assert all(c <= a * 1.5 for _n, a, _b, c in rows)
