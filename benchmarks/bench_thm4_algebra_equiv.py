"""THM-4: safe RC(S) = RA(S) and safe RC(S_len) = RA(S_len).

Both directions, executed:

* calculus -> algebra: the compiler emits an RA plan whose output matches
  the exact engine tuple-for-tuple on random databases;
* algebra -> calculus: hand-built plans (including ``down``) translate to
  formulas with identical outputs;
* the ``down_i`` cost note (Section 6.2: "very expensive ... unavoidable")
  is measured: the operator's output grows exponentially with the longest
  string.  The sweep times the operator-at-a-time interpreter kept as
  the test oracle (``tests/_reference_algebra.py``), which materializes
  ``down_i``'s output on its own.
"""

import pathlib
import sys

import pytest

from repro.algebra import (
    DIALECTS,
    BaseRel,
    DownOp,
    PrefixOp,
    Project,
    Select,
    col,
    compile_query,
    to_calculus,
)
from repro.database import Database, random_database
from repro.eval import AutomataEngine
from repro.logic import parse_formula
from repro.logic.dsl import last
from repro.strings import BINARY
from repro.structures import S, S_len

from _common import growth_ratios, measure, print_table

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
from tests._reference_algebra import evaluate  # noqa: E402

CALCULUS_CORPUS = [
    ("S", "R(x) & last(x, '0')"),
    ("S", "exists adom y: E(x, y) & last(y, '1')"),
    ("S", "exists adom y: R(y) & x <<= y"),
    ("S", "R(x) & !S(x)"),
    ("S_len", "R(x) & exists adom y: S(y) & el(x, y)"),
]


def _structure(name):
    return {"S": S, "S_len": S_len}[name](BINARY)


@pytest.mark.parametrize(
    "sname,text", CALCULUS_CORPUS, ids=[t for _s, t in CALCULUS_CORPUS]
)
def test_thm4_compiled_plan_eval(benchmark, sname, text):
    structure = _structure(sname)
    db = random_database(BINARY, {"R": 1, "S": 1, "E": 2}, 4, max_len=3, seed=2)
    compiled = compile_query(parse_formula(text), structure, db.schema, slack=2)
    got = benchmark(lambda: compiled.evaluate(db))
    expected = AutomataEngine(structure, db).run(parse_formula(text))
    assert got == expected.as_set()


def test_thm4_both_directions(benchmark):
    def check():
        rows = []
        # calculus -> algebra
        for sname, text in CALCULUS_CORPUS:
            structure = _structure(sname)
            ok = True
            for seed in range(3):
                db = random_database(
                    BINARY, {"R": 1, "S": 1, "E": 2}, 4, max_len=3, seed=seed
                )
                compiled = compile_query(
                    parse_formula(text), structure, db.schema, slack=2
                )
                expected = AutomataEngine(structure, db).run(parse_formula(text))
                ok = ok and compiled.evaluate(db) == expected.as_set()
            rows.append(("RC->RA", text[:40], "match" if ok else "FAIL"))
        # algebra -> calculus
        plans = [
            ("RA(S)", S(BINARY), Select(BaseRel("R", 1), last(col(0), "0"))),
            ("RA(S)", S(BINARY), Project(PrefixOp(BaseRel("R", 1), 0), (1,))),
            ("RA(S_len)", S_len(BINARY), DownOp(BaseRel("R", 1), 0)),
        ]
        for label, structure, plan in plans:
            db = random_database(BINARY, {"R": 1}, 3, max_len=3, seed=5)
            expected = DIALECTS[label](BINARY).evaluate(plan, db)
            got = AutomataEngine(structure, db).run(to_calculus(plan))
            rows.append(
                (
                    "RA->RC",
                    f"{label}: {str(plan)[:32]}",
                    "match" if got.as_set() == expected else "FAIL",
                )
            )
        return rows

    rows = benchmark.pedantic(check, rounds=1, iterations=1)
    print_table("Theorem 4: safe RC(M) = RA(M)", ["direction", "query/plan", "result"], rows)
    assert all(r[2] == "match" for r in rows)


def test_thm4_down_operator_blowup(benchmark):
    """The Section 6.2 cost note, measured."""
    lengths = [6, 8, 10, 12]

    def sweep():
        rows = []
        for m in lengths:
            db = Database(BINARY, {"R": {("0" * m,)}})
            plan = DownOp(BaseRel("R", 1), 0)
            t = measure(lambda: evaluate(plan, db, S_len(BINARY)), repeats=1)
            rows.append((m, t, BINARY.count_up_to(m)))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "down_i blow-up (RA(S_len))",
        ["|s|", "seconds", "output rows"],
        [(m, f"{t:.5f}", c) for m, t, c in rows],
    )
    ratios = growth_ratios([t for _m, t, _c in rows])
    print(f"growth per +2 length: {['%.1f' % r for r in ratios]} (expected ~4x)")
    assert rows[-1][2] == BINARY.count_up_to(lengths[-1])
    assert ratios[-1] > 2.0
