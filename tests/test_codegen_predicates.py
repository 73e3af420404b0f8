"""Every structure predicate runs inlined in the compiled closure.

The closure (:mod:`repro.algebra.codegen`) is the one evaluator of RA(M)
plans and of their quantifier-free selection conditions.  For each
predicate of ``StringStructure._eval_pred``, a one-``Select`` plan run
through its dialect must agree with ``StringStructure.eval_atom`` on
the row and with the exact automata engine on the same database — with
the predicate's parameter spelt out, in a template slot, and with a
literal operand.  The served and benchmarked shapes compile with no
condition checker at all.
"""

import pathlib
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra import BaseRel, Select, col
from repro.algebra.codegen import get_pipeline, plan_pipeline
from repro.algebra.dialects import FOR_STRUCTURE
from repro.core import Query
from repro.database import Database
from repro.eval import AutomataEngine
from repro.logic.formulas import And, Atom, RelAtom
from repro.logic.terms import Param, StrConst
from repro.strings import BINARY
from repro.structures.catalog import by_name

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "benchmarks"))
import bench_codegen  # noqa: E402
import bench_ranf  # noqa: E402
import bench_service  # noqa: E402

symbols = st.sampled_from(["0", "1"])
short = st.text(alphabet="01", max_size=3)
patterns = st.sampled_from(["(00)*", "0.*", ".*1", "1|01", "0(1|0)*0"])

#: predicate -> (argument count, structure name, parameter strategy or None)
PREDICATES = {
    "eq": (2, "S", None),
    "prefix": (2, "S", None),
    "sprefix": (2, "S", None),
    "ext1": (2, "S", None),
    "last": (1, "S", symbols),
    "el": (2, "S_len", None),
    "len_le": (2, "S_len", None),
    "len_lt": (2, "S_len", None),
    "lex_le": (2, "S", None),
    "lex_lt": (2, "S", None),
    "matches": (1, "S_reg", patterns),
    "psuffix": (2, "S_reg", patterns),
    "graph_add_last": (2, "S", symbols),
    "graph_add_first": (2, "S_left", symbols),
    "graph_trim_first": (2, "S_left", symbols),
    "graph_insert_at": (3, "S_insert", symbols),
    "graph_lcp": (3, "S", None),
    "graph_const": (1, "S", short),
}


def test_every_predicate_is_covered():
    structures = {name for _n, name, _p in PREDICATES.values()}
    assert set(PREDICATES) == set().union(
        *(by_name(name, BINARY).predicates for name in structures)
    )


def _closure_rows(structure, plan, db, params=()):
    rows = FOR_STRUCTURE[structure.name](BINARY).evaluate(plan, db, params)
    assert "_chk" not in plan_pipeline(plan, structure).source, str(plan)
    return rows


@pytest.mark.parametrize("pred", sorted(PREDICATES))
@settings(max_examples=30, deadline=None)
@given(values=st.lists(short, min_size=3, max_size=3), data=st.data())
def test_inlined_predicate_agrees_with_eval_atom_and_automata(pred, values, data):
    arity, name, params = PREDICATES[pred]
    structure = by_name(name, BINARY)
    param = data.draw(params) if params is not None else None
    row = tuple(values[:arity])
    columns = tuple(col(i) for i in range(arity))
    atom = Atom(pred, columns, param)
    db = Database(BINARY, {"R": {row}})
    truth = structure.eval_atom(atom, {f"c{i}": v for i, v in enumerate(row)})
    expected = {row} if truth else set()

    plan = Select(BaseRel("R", arity), atom)
    assert _closure_rows(structure, plan, db) == expected
    engine = AutomataEngine(structure, db).run(
        And((RelAtom("R", columns), atom))
    )
    assert engine.as_set() == expected

    if param is not None:  # the parameter in a template slot
        slotted = Select(BaseRel("R", arity), Atom(pred, columns, Param(0)))
        assert _closure_rows(structure, slotted, db, (param,)) == expected
    if arity > 1:  # the last operand a literal of a hand-built plan
        literal = Atom(pred, columns[:-1] + (StrConst(row[-1]),), param)
        narrow = Select(BaseRel("R", arity), literal)
        assert _closure_rows(structure, narrow, db) == expected


def _source(plan, db) -> str:
    pipeline, _ = get_pipeline(plan.formula, plan.structure, db.schema, plan.slack)
    return pipeline.source


def _benchmarked_sources():
    """(label, closure source) of every bench_service, bench_ranf and
    bench_codegen shape, as each bench compiles it."""
    db = bench_service.make_db().db
    for text, name in bench_service.WORKLOAD:
        yield text, _source(Query(text, structure=name).plan(db, engine="algebra"), db)
    for shape in bench_ranf.SHAPES:
        db = bench_ranf._db(shape[0], 50)
        formula, structure = bench_ranf._parsed(shape[0])
        plan = Query(formula, structure=structure).plan(
            db, engine="algebra", slack=1
        )
        yield shape[0], _source(plan, db)
    for shape in bench_codegen.SHAPES:
        db = bench_codegen._db(shape[0], 50)
        yield shape[0], bench_codegen._compiled(shape[0], db)[1].source


def test_benchmarked_shapes_compile_without_a_checker():
    sources = dict(_benchmarked_sources())
    assert len(sources) == len(bench_service.WORKLOAD) + len(
        bench_ranf.SHAPES
    ) + len(bench_codegen.SHAPES)
    for label, source in sources.items():
        assert "_chk" not in source, label
