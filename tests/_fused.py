"""The algebra engine's fused strategy as a differential column.

A forced ``engine="algebra"`` plan runs interpreted.  The helpers here
take that same plan and run it fused, so the property suites can hold
both strategies against the exact automata engine:

* :func:`fused_rows` runs the plan's one optimized RA(M) plan both ways —
  the generated closure (:func:`repro.algebra.codegen.get_pipeline`) and
  the interpreter (:class:`repro.algebra.exec.AlgebraExecutor`) — asserts
  they agree, and returns the rows;
* :func:`fused_plan` is the plan with its strategy switched to fused, for
  running through the backend (result cache, delta promotion, EXPLAIN).
"""

from dataclasses import replace

from repro.algebra.codegen import get_pipeline
from repro.algebra.exec import AlgebraExecutor, compile_for_execution
from repro.engine.backend import FUSED


def fused_plan(query, db, slack=None):
    """``query``'s forced algebra plan on ``db``, set to run fused."""
    return replace(query.plan(db, engine="algebra", slack=slack), strategy=FUSED)


def fused_rows(query, db, slack=None, variables=None) -> frozenset:
    """The answer of ``query``'s algebra plan on ``db``, run through the
    fused closure and checked row for row against the interpreter on the
    same optimized plan.  A shape that does not fuse (``DownOp``) has
    only the interpreter's rows.  Rows come in ``variables`` order
    (default: the plan's output columns)."""
    plan = query.plan(db, engine="algebra", slack=slack)
    compiled, optimized = compile_for_execution(
        plan.formula, plan.structure, db.schema, slack=plan.slack
    )
    rows, _ = AlgebraExecutor(plan.structure, db, params=plan.params).run(optimized)
    pipeline, detail = get_pipeline(
        plan.formula, plan.structure, db.schema, plan.slack
    )
    if pipeline is not None:
        fused, stage_rows = pipeline.run(db, plan.params)
        assert pipeline.columns == compiled.columns
        assert len(stage_rows) == len(pipeline.stages)
        assert fused == rows, (str(plan.formula), detail)
    if variables is None:
        return frozenset(rows)
    order = [compiled.columns.index(v) for v in variables]
    return frozenset(tuple(row[i] for i in order) for row in rows)
