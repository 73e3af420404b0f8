"""Algebra -> calculus translation (the easy direction of Theorems 4/8).

Every RA(M) operator is first-order definable over M, so every plan has an
equivalent RC(M) formula; combined with :mod:`repro.algebra.compile` this
gives the two inclusions of ``safe RC(M) = RA(M)``.  Output columns map to
variables ``x0 .. x{n-1}``.
"""

from __future__ import annotations

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
)
from repro.engine.deadline import checkpoint
from repro.engine.metrics import METRICS
from repro.errors import EvaluationError
from repro.logic.formulas import (
    And,
    Atom,
    Exists,
    Formula,
    Not,
    Or,
    QuantKind,
    RelAtom,
)
from repro.logic.terms import (
    AddFirst,
    AddLast,
    EPS,
    InsertAt,
    Param,
    StrConst,
    Term,
    TrimFirst,
    Var,
)


def column_var(i: int) -> Var:
    """The variable standing for output column ``i``."""
    return Var(f"x{i}")


def to_calculus(plan: Plan) -> Formula:
    """An RC(M) formula equivalent to ``plan``, free in ``x0..x{n-1}``."""
    counter = [0]
    return _translate(plan, [column_var(i).name for i in range(plan.arity)], counter)


def _fresh(counter: list[int]) -> str:
    counter[0] += 1
    return f"_a{counter[0]}"


def _translate(plan: Plan, names: list[str], counter: list[int]) -> Formula:
    """Formula asserting ``(names...) in plan``."""
    # Compiled plans can be deep (the gamma-bound repeats per quantifier),
    # so translation honors service deadlines and shows up in METRICS.
    checkpoint()
    METRICS.inc("algebra.to_calculus_nodes")
    if isinstance(plan, BaseRel):
        return RelAtom(plan.name, tuple(Var(n) for n in names))
    if isinstance(plan, EpsilonRel):
        return Atom("eq", (Var(names[0]), EPS))
    if isinstance(plan, ParamRel):
        return Atom("eq", (Var(names[0]), Param(plan.index)))
    if isinstance(plan, Select):
        mapping = {f"c{i}": Var(n) for i, n in enumerate(names)}
        cond = plan.condition.substitute(mapping)
        return And((_translate(plan.child, names, counter), cond))
    if isinstance(plan, Project):
        child_arity = plan.child.arity
        child_names = [None] * child_arity  # type: ignore[list-item]
        equalities: list[Formula] = []
        for out_pos, child_pos in enumerate(plan.indices):
            if child_names[child_pos] is None:
                child_names[child_pos] = names[out_pos]
            else:
                # Duplicated column: assert equality of the outputs.
                equalities.append(
                    Atom("eq", (Var(child_names[child_pos]), Var(names[out_pos])))
                )
        fresh = []
        for pos in range(child_arity):
            if child_names[pos] is None:
                name = _fresh(counter)
                child_names[pos] = name
                fresh.append(name)
        body = _translate(plan.child, child_names, counter)  # type: ignore[arg-type]
        if equalities:
            body = And((body, *equalities))
        for name in reversed(fresh):
            body = Exists(name, body, QuantKind.NATURAL)
        return body
    if isinstance(plan, Product):
        n = plan.left.arity
        return And(
            (
                _translate(plan.left, names[:n], counter),
                _translate(plan.right, names[n:], counter),
            )
        )
    if isinstance(plan, Join):
        # Fused hash join: re-expand to the conjunction it was fused from.
        n = plan.left.arity
        parts: list[Formula] = [
            _translate(plan.left, names[:n], counter),
            _translate(plan.right, names[n:], counter),
        ]
        parts.extend(
            Atom("eq", (Var(names[i]), Var(names[n + j]))) for i, j in plan.pairs
        )
        if plan.residual is not None:
            mapping = {f"c{i}": Var(name) for i, name in enumerate(names)}
            parts.append(plan.residual.substitute(mapping))
        return And(tuple(parts))
    if isinstance(plan, Union):
        return Or(
            (
                _translate(plan.left, names, counter),
                _translate(plan.right, names, counter),
            )
        )
    if isinstance(plan, Difference):
        return And(
            (
                _translate(plan.left, names, counter),
                Not(_translate(plan.right, names, counter)),
            )
        )
    if isinstance(plan, PrefixOp):
        new = names[-1]
        base = _translate(plan.child, names[:-1], counter)
        return And((base, Atom("prefix", (Var(new), Var(names[plan.index])))))
    if isinstance(plan, AddLastOp):
        new = names[-1]
        base = _translate(plan.child, names[:-1], counter)
        return And(
            (base, Atom("eq", (Var(new), AddLast(Var(names[plan.index]), plan.symbol))))
        )
    if isinstance(plan, AddFirstOp):
        new = names[-1]
        base = _translate(plan.child, names[:-1], counter)
        return And(
            (base, Atom("eq", (Var(new), AddFirst(Var(names[plan.index]), plan.symbol))))
        )
    if isinstance(plan, TrimFirstOp):
        new = names[-1]
        base = _translate(plan.child, names[:-1], counter)
        return And(
            (base, Atom("eq", (Var(new), TrimFirst(Var(names[plan.index]), plan.symbol))))
        )
    if isinstance(plan, InsertAtOp):
        new = names[-1]
        base = _translate(plan.child, names[:-1], counter)
        term = InsertAt(
            Var(names[plan.index]), Var(names[plan.prefix_index]), plan.symbol
        )
        return And((base, Atom("eq", (Var(new), term))))
    if isinstance(plan, DownOp):
        new = names[-1]
        base = _translate(plan.child, names[:-1], counter)
        return And((base, Atom("len_le", (Var(new), Var(names[plan.index])))))
    raise EvaluationError(f"cannot translate plan node {plan!r}")
