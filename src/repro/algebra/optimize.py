"""Algebra plan optimization.

The calculus->algebra compiler (like every textbook translation) emits
redundant plans: repeated bound subplans, stacked projections, selections
that could sit closer to their inputs.  This module provides

* :func:`optimize` — semantics-preserving rewrite rules:

  - cascade projections (``project[i](project[j](p)) -> project[j o i](p)``),
  - drop identity projections,
  - merge stacked selections into one conjunctive selection,
  - push selections below projections and into the relevant side of a
    product,
  - collapse idempotent unions (``p u p -> p``) and self-differences,

* :func:`optimize_for_execution` — the set-at-a-time execution rewrite
  pass layered on :func:`optimize` (the logical half of the algebra
  engine, whose physical half is :mod:`repro.algebra.codegen`):

  - split conjunctive selections over products per conjunct, pushing
    single-side conjuncts into their side,
  - fuse cross-side column equalities into hash equi-joins
    (``select[c0=c2 & ...](p x q)`` -> :class:`~repro.algebra.plan.Join`),
  - push selections below unions and into the left side of differences,
  - prune dead columns by pushing projections through products, joins,
    and unions (only the columns a parent actually consumes are carried),

* :func:`compile_for_execution` — the one entry from a query to the
  plans the algebra engine runs: translated (:mod:`repro.algebra.ranf`),
  optimized and cached, with the RANF pair's ``inf`` half where the
  query has one.

Every rewrite is validated in the test suite by comparing plan outputs
and by round-tripping through :func:`repro.algebra.to_calculus` into the
exact engine.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from repro.algebra.compile import CompiledQuery
from repro.algebra.plan import (
    AddFirstOp,
    AddLastOp,
    BaseRel,
    Difference,
    DownOp,
    EpsilonRel,
    InsertAtOp,
    Join,
    Plan,
    PrefixOp,
    Product,
    Project,
    Select,
    TrimFirstOp,
    Union,
    _column_index,
    col,
)
from repro.engine.cache import registered
from repro.logic.canonical import canonical_fingerprint
from repro.logic.formulas import And, Atom, Formula
from repro.logic.terms import Term, Var
from repro.structures.base import StringStructure


def optimize(plan: Plan) -> Plan:
    """Apply the rewrite rules bottom-up until a fixpoint."""
    current = plan
    for _ in range(20):  # rule sets are strictly size-reducing in practice
        rewritten = _rewrite(current)
        if rewritten == current:
            return rewritten
        current = rewritten
    return current


def _rewrite(plan: Plan) -> Plan:
    # Rewrite children first.
    plan = _rebuild(plan, [_rewrite(c) for c in plan.children()])
    return _rewrite_node(plan)


def _rewrite_node(plan: Plan) -> Plan:
    """The conservative top-level rules (children already rewritten)."""
    # project[identity](p) -> p
    if isinstance(plan, Project) and plan.indices == tuple(range(plan.child.arity)):
        return plan.child

    # project[I](project[J](p)) -> project[J[i] for i in I](p)
    if isinstance(plan, Project) and isinstance(plan.child, Project):
        inner = plan.child
        return Project(inner.child, tuple(inner.indices[i] for i in plan.indices))

    # select[c1](select[c2](p)) -> select[c1 & c2](p)
    if isinstance(plan, Select) and isinstance(plan.child, Select):
        inner = plan.child
        return Select(inner.child, And((inner.condition, plan.condition)))

    # select[c](project[I](p)) -> project[I](select[c'](p)) with columns
    # remapped through I (lets the selection meet its source sooner and
    # exposes product-pushdown below).
    if isinstance(plan, Select) and isinstance(plan.child, Project):
        project = plan.child
        mapping = {
            f"c{out}": col(src) for out, src in enumerate(project.indices)
        }
        pushed = plan.condition.substitute(mapping)
        return Project(Select(project.child, pushed), project.indices)

    # select[c](p x q) -> push into the side the condition touches.
    if isinstance(plan, Select) and isinstance(plan.child, Product):
        product = plan.child
        cols = {_column_index(v) for v in plan.condition.free_variables()}
        n = product.left.arity
        if cols and max(cols, default=-1) < n:
            return Product(Select(product.left, plan.condition), product.right)
        if cols and min(cols, default=0) >= n:
            shifted = plan.condition.substitute(
                {f"c{i}": col(i - n) for i in sorted(cols)}
            )
            return Product(product.left, Select(product.right, shifted))

    # p u p -> p
    if isinstance(plan, Union) and plan.left == plan.right:
        return plan.left

    # (p u q) u q -> p u q  (right-leaning duplicates from the compiler)
    if isinstance(plan, Union) and isinstance(plan.left, Union):
        if plan.left.right == plan.right or plan.left.left == plan.right:
            return plan.left

    return plan


# --------------------------------------------- set-at-a-time execution pass


def optimize_for_execution(plan: Plan) -> Plan:
    """The full logical-rewrite pass of the algebra engine.

    Applies :func:`optimize`'s rules plus join fusion and the pushdowns
    documented in the module docstring, to a fixpoint.  The result may
    contain :class:`~repro.algebra.plan.Join` nodes, which the paper's
    dialects reject — it is meant for :mod:`repro.algebra.codegen`'s
    physical lowering (or direct ``Plan.evaluate``), not for dialect
    validation.
    """
    current = optimize(plan)
    for _ in range(40):
        rewritten = _exec_rewrite(current)
        if rewritten == current:
            return rewritten
        current = rewritten
    return current


def _exec_rewrite(plan: Plan) -> Plan:
    plan = _rebuild(plan, [_exec_rewrite(c) for c in plan.children()])
    rewritten = _exec_rewrite_node(plan)
    if rewritten is not None:
        return rewritten
    return _rewrite_node(plan)


def _conjuncts(condition: Formula) -> list[Formula]:
    """Flatten nested conjunctions into a list of conjuncts."""
    if isinstance(condition, And):
        out: list[Formula] = []
        for part in condition.parts:
            out.extend(_conjuncts(part))
        return out
    return [condition]


def _conjoin(parts: list[Formula]) -> Optional[Formula]:
    if not parts:
        return None
    if len(parts) == 1:
        return parts[0]
    return And(tuple(parts))


def _column_eq_pair(conjunct: Formula, n: int) -> Optional[tuple[int, int]]:
    """``(left col, right col)`` when the conjunct is a cross-side column
    equality over a product whose left arity is ``n``, else ``None``."""
    if not (
        isinstance(conjunct, Atom)
        and conjunct.pred == "eq"
        and len(conjunct.args) == 2
        and all(isinstance(a, Var) for a in conjunct.args)
    ):
        return None
    i = _column_index(conjunct.args[0].name)
    j = _column_index(conjunct.args[1].name)
    if i < n <= j:
        return (i, j - n)
    if j < n <= i:
        return (j, i - n)
    return None


def _shift_condition(condition: Formula, offset: int) -> Formula:
    cols = sorted(_column_index(v) for v in condition.free_variables())
    return condition.substitute({f"c{i}": col(i - offset) for i in cols})


def _exec_rewrite_node(plan: Plan) -> Optional[Plan]:
    """Execution-oriented top-level rules; ``None`` when none applies."""
    # select[c1 & c0=c2 & ...](p x q): split the conjunction — single-side
    # conjuncts sink into their side, cross-side column equalities become
    # hash-join keys, the rest stays as the join's residual condition.
    if isinstance(plan, Select) and isinstance(plan.child, Product):
        product = plan.child
        n = product.left.arity
        left_parts: list[Formula] = []
        right_parts: list[Formula] = []
        pairs: list[tuple[int, int]] = []
        residual: list[Formula] = []
        for conjunct in _conjuncts(plan.condition):
            pair = _column_eq_pair(conjunct, n)
            if pair is not None:
                pairs.append(pair)
                continue
            cols = {_column_index(v) for v in conjunct.free_variables()}
            if max(cols, default=-1) < n:
                left_parts.append(conjunct)  # includes column-free conjuncts
            elif min(cols, default=-1) >= n:
                right_parts.append(conjunct)
            else:
                residual.append(conjunct)
        if pairs or left_parts or right_parts:
            left = product.left
            right = product.right
            left_cond = _conjoin(left_parts)
            right_cond = _conjoin(right_parts)
            if left_cond is not None:
                left = Select(left, left_cond)
            if right_cond is not None:
                right = Select(right, _shift_condition(right_cond, n))
            if pairs:
                return Join(left, right, tuple(pairs), _conjoin(residual))
            if left_cond is not None or right_cond is not None:
                rest = _conjoin(residual)
                fused: Plan = Product(left, right)
                return fused if rest is None else Select(fused, rest)
        return None

    # select[c](join) -> fold the condition into the join's residual
    # (new key equalities included).
    if isinstance(plan, Select) and isinstance(plan.child, Join):
        join = plan.child
        n = join.left.arity
        pairs = list(join.pairs)
        residual = [] if join.residual is None else _conjuncts(join.residual)
        changed = False
        for conjunct in _conjuncts(plan.condition):
            pair = _column_eq_pair(conjunct, n)
            if pair is not None:
                pairs.append(pair)
                changed = True
            else:
                residual.append(conjunct)
        merged = Join(join.left, join.right, tuple(pairs), _conjoin(residual))
        return merged

    # select[c](p u q) -> select[c](p) u select[c](q)
    if isinstance(plan, Select) and isinstance(plan.child, Union):
        union = plan.child
        return Union(
            Select(union.left, plan.condition),
            Select(union.right, plan.condition),
        )

    # select[c](p - q) -> select[c](p) - q
    if isinstance(plan, Select) and isinstance(plan.child, Difference):
        diff = plan.child
        return Difference(Select(diff.left, plan.condition), diff.right)

    # project[I](p u q) -> project[I](p) u project[I](q)
    if isinstance(plan, Project) and isinstance(plan.child, Union):
        union = plan.child
        return Union(
            Project(union.left, plan.indices),
            Project(union.right, plan.indices),
        )

    # project[I](p x q) / project[I](join): prune columns neither the
    # projection nor the join keys/residual consume.
    if isinstance(plan, Project) and isinstance(plan.child, (Product, Join)):
        return _prune_columns(plan)

    return None


def _prune_columns(plan: Project) -> Optional[Plan]:
    """Push a projection through a product/join, dropping dead columns."""
    child = plan.child
    n = child.left.arity
    total = child.arity
    needed = set(plan.indices)
    if isinstance(child, Join):
        for i, j in child.pairs:
            needed.add(i)
            needed.add(n + j)
        if child.residual is not None:
            needed.update(
                _column_index(v) for v in child.residual.free_variables()
            )
    keep_left = sorted(c for c in needed if c < n)
    keep_right = sorted(c - n for c in needed if c >= n)
    if len(keep_left) == n and len(keep_right) == total - n:
        return None  # nothing dead; avoid rewriting forever
    # Remap old concatenated columns to their new positions.
    position = {c: i for i, c in enumerate(keep_left)}
    position.update(
        {n + c: len(keep_left) + i for i, c in enumerate(keep_right)}
    )
    left = Project(child.left, tuple(keep_left))
    right = Project(child.right, tuple(keep_right))
    if isinstance(child, Join):
        pairs = tuple(
            (position[i], position[n + j] - len(keep_left))
            for i, j in child.pairs
        )
        residual = child.residual
        if residual is not None:
            cols = sorted(_column_index(v) for v in residual.free_variables())
            residual = residual.substitute(
                {f"c{c}": col(position[c]) for c in cols}
            )
        inner: Plan = Join(left, right, pairs, residual)
    else:
        inner = Product(left, right)
    return Project(inner, tuple(position[c] for c in plan.indices))


def _rebuild(plan: Plan, children: list[Plan]) -> Plan:
    """Clone a node with new children (frozen dataclasses)."""
    if not children:
        return plan
    if isinstance(plan, Select):
        return Select(children[0], plan.condition)
    if isinstance(plan, Project):
        return Project(children[0], plan.indices)
    if isinstance(plan, Product):
        return Product(children[0], children[1])
    if isinstance(plan, Join):
        return Join(children[0], children[1], plan.pairs, plan.residual)
    if isinstance(plan, Union):
        return Union(children[0], children[1])
    if isinstance(plan, Difference):
        return Difference(children[0], children[1])
    if isinstance(plan, PrefixOp):
        return PrefixOp(children[0], plan.index)
    if isinstance(plan, AddLastOp):
        return AddLastOp(children[0], plan.index, plan.symbol)
    if isinstance(plan, AddFirstOp):
        return AddFirstOp(children[0], plan.index, plan.symbol)
    if isinstance(plan, TrimFirstOp):
        return TrimFirstOp(children[0], plan.index, plan.symbol)
    if isinstance(plan, InsertAtOp):
        return InsertAtOp(children[0], plan.index, plan.prefix_index, plan.symbol)
    if isinstance(plan, DownOp):
        return DownOp(children[0], plan.index)
    return plan  # pragma: no cover - leaf nodes have no children


def _is_semi_join(plan: Plan) -> bool:
    """``project[I](join)`` with ``I`` ⊆ left columns and no residual —
    only the left rows matter, so probing can skip row construction."""
    return (
        isinstance(plan, Project)
        and isinstance(plan.child, Join)
        and plan.child.residual is None
        and all(i < plan.child.left.arity for i in plan.indices)
    )


# ------------------------------------------------ the plans the engine runs


class ExecutionPlan(NamedTuple):
    """What the algebra engine runs for one query: the compiled query
    (output columns, slot values), the optimized plan of its answer, and
    the optimized ``inf`` half of its RANF pair — a nullary plan that is
    nonempty exactly when the answer may be infinite — or ``None`` when
    the finite plan is provably the whole answer.  ``branch`` is the RANF
    verdict's branch (:func:`repro.algebra.ranf.translation_verdict`)."""

    compiled: CompiledQuery
    fin: Plan
    inf: Optional[Plan]
    branch: str


# Translated-and-optimized plans: translating is pure in the
# formula/structure/schema/slack, so repeated queries (the service layer's
# common case) skip the translator and rewrite fixpoint entirely.
_PLANS = registered("algebra.plans", 128)


def plans_key(formula, structure, schema, slack: int) -> tuple:
    """The ``algebra.plans`` key: the canonical fingerprint (with the
    structure, alphabet, slack and schema) — no database fingerprint, as
    plans are data-independent."""
    return (
        canonical_fingerprint(formula),
        structure.name,
        structure.alphabet.symbols,
        slack,
        schema,
    )


def compile_for_execution(
    formula: Formula,
    structure: StringStructure,
    schema,
    slack: int = 1,
) -> ExecutionPlan:
    """The RANF translation (:func:`repro.algebra.ranf.translate_ranf`),
    memoized in ``algebra.plans``.

    Keyed on the canonical fingerprint (:mod:`repro.logic.canonical`), so
    alpha-equivalent and conjunct-reordered spellings share the plans —
    sound because alpha-equivalent formulas have identical free
    variables, hence identical output columns.  Raises
    :class:`~repro.algebra.ranf.RanfError` (a :class:`~repro.algebra.
    compile.CompileError`) when the translation bails; a formula outside
    the verdict's reach compiles only through :func:`~repro.algebra.
    compile.compile_query`.
    """
    from repro.algebra.ranf import translate_ranf

    return _PLANS.get_or_build(
        plans_key(formula, structure, schema, slack),
        lambda: translate_ranf(formula, structure, schema, slack=slack),
    )


def plans_probe(
    formula: Formula, structure: StringStructure, schema, slack: int
) -> Callable[[], bool]:
    """A probe returning True once the plans for this key are cached (the
    planner's cost model asks without forcing a translation or counting
    a lookup; the plan cache asks again on every lookup, so the key is
    computed once)."""
    key = plans_key(formula, structure, schema, slack)
    return lambda: _PLANS.peek(key) is not None
