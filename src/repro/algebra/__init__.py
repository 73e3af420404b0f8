"""The paper's relational algebras RA(S), RA(S_len), RA(S_left), RA(S_reg).

Safe queries as executable plans (Theorems 4 and 8): plan nodes in
:mod:`repro.algebra.plan`, the four dialects in
:mod:`repro.algebra.dialects`, the calculus->algebra compiler in
:mod:`repro.algebra.compile`, and the algebra->calculus translation in
:mod:`repro.algebra.to_calculus`.

Beyond the paper's syntax, :mod:`repro.algebra.optimize` grows an
execution-oriented rewrite pass (:func:`optimize_for_execution`, hash-join
fusion + pushdown) and :mod:`repro.algebra.exec` runs the result
set-at-a-time — the planner's third engine (``docs/algebra_engine.md``).
"""

from repro.algebra.compile import (
    CompileError,
    CompiledQuery,
    bound_plan,
    compile_query,
    is_collapsed_form,
    is_database_free,
    query_constants,
)
from repro.algebra.dialects import (
    DIALECTS,
    FOR_STRUCTURE,
    AlgebraDialect,
    RA_S,
    RA_S_insert,
    RA_S_left,
    RA_S_len,
    RA_S_reg,
)
from repro.algebra.exec import (
    AlgebraExecutor,
    OpStats,
    compile_for_execution,
    run_algebra,
)
from repro.algebra.plan import (
    AddFirstOp,
    AddLastOp,
    BaseRel,
    Difference,
    DownOp,
    EpsilonRel,
    InsertAtOp,
    Join,
    ParamRel,
    Plan,
    PrefixOp,
    Product,
    Project,
    Select,
    TrimFirstOp,
    Union,
    col,
)
from repro.algebra.optimize import (
    evaluate_with_cse,
    optimize,
    optimize_for_execution,
)
from repro.algebra.to_calculus import column_var, to_calculus

__all__ = [
    "AddFirstOp",
    "AddLastOp",
    "AlgebraDialect",
    "AlgebraExecutor",
    "BaseRel",
    "CompileError",
    "CompiledQuery",
    "DIALECTS",
    "Difference",
    "DownOp",
    "EpsilonRel",
    "FOR_STRUCTURE",
    "InsertAtOp",
    "Join",
    "OpStats",
    "ParamRel",
    "Plan",
    "PrefixOp",
    "Product",
    "Project",
    "RA_S",
    "RA_S_insert",
    "RA_S_left",
    "RA_S_len",
    "RA_S_reg",
    "Select",
    "TrimFirstOp",
    "Union",
    "bound_plan",
    "col",
    "column_var",
    "compile_for_execution",
    "compile_query",
    "evaluate_with_cse",
    "is_collapsed_form",
    "optimize",
    "optimize_for_execution",
    "is_database_free",
    "query_constants",
    "run_algebra",
    "to_calculus",
]
