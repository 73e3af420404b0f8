"""The cost-based query planner: choose an evaluation engine per query.

The library has three engines with one semantics (see
``docs/architecture.md``):

* the **automata engine** — exact on every query, natural quantifiers
  included, at a worst-case exponential automata cost (the paper's PH
  upper bound, Theorem 2);
* the **direct engine** — enumeration over the restricted quantifier
  domains, polynomial in the database for the PREFIX-collapsing calculi
  (Corollaries 2/7) but exponential for S_len's LENGTH domains;
* the **algebra engine** — compiles to RA(M) (Theorem 4/8), fuses
  ``Select(Product)`` into hash equi-joins and runs the plan fused into
  one generated closure (:mod:`repro.algebra.codegen`); asymptotically
  the cheapest on join-shaped ADOM queries, but it pays a fixed
  compile setup until the closure is cached.

Historically callers picked an engine by hand (``Query.run(db,
engine="direct")``).  The planner replaces that choice: it inspects the
formula (quantifier kinds, negation depth, structure) and the database
(active-domain size, prefix-closure size, maximum string length) and
selects the engine expected to be cheaper — *without ever changing the
answer*.  The engines themselves live behind the
:mod:`repro.engine.backend` registry; the planner knows no engine by
name.  It makes relation-guarded natural existentials ADOM,
canonicalizes the formula (:mod:`repro.logic.canonical` —
alpha-renaming plus sorted commutative connectives, so equivalent
spellings share one plan and one set of cache entries) and lifts its
string literals into template slots (:mod:`repro.logic.literals`: the
plan is made for the template, and the values ride along in
``Plan.params``), then iterates the registered backends: an
**eligibility gate** first, then a **cost argmin** over the survivors.
The gates are deliberately conservative:

1. a formula with NATURAL quantifiers always goes to the automata engine
   (the reference natural semantics; the direct engine cannot run it);
2. a formula whose free variables are not all *anchored* in a positive
   database atom goes to the automata engine (its output may leave the
   active domain — even be infinite — and direct enumeration would
   silently truncate it);
3. otherwise the engines agree exactly (they share the restricted-domain
   definitions and the slack), and the planner compares cost estimates:
   the product of restricted-domain sizes for the direct engine, a
   state-count heuristic for the automata engine, and cardinality-based
   join costs for the algebra engine.  The algebra engine is only
   *eligible* in rule 3 when every quantifier is ADOM and the flattened
   query is in collapsed form — exactly the regime where Theorem 4's
   equivalence makes its answer slack-independent and equal to the other
   engines'.

Rule 3 is where the paper's complexity landscape becomes operational: a
collapsed RC(S) query sees a polynomial PREFIX domain and goes direct,
an RC(S_len) query over a long string sees the ``|Sigma|^maxlen`` LENGTH
domain blow past :data:`DIRECT_COST_CEILING` and goes to automata, and a
join of two large relations blows past the ceiling *but* fuses into a
linear-time hash join, so it goes to algebra.

Tuning knobs (module constants): ``DIRECT_COST_CEILING`` — hard cap on
estimated direct enumeration work; ``DIRECT_BIAS`` — how many direct
candidate-checks are assumed to cost as much as one automata state
expansion; ``CODEGEN_ROW_FACTOR`` — the algebra engine's per-row
cost; ``CODEGEN_SETUP_COST`` — its fixed compile cost while no closure
is cached, so tiny one-shot queries keep going direct;
``RANF_SETUP_COST`` — the RANF translation's one-off cost.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.database.instance import Database
from repro.engine.backend import (
    EngineBackend,
    Estimate,
    all_backends,
    get_backend,
    resolve_engine,
)
from repro.engine.metrics import METRICS
from repro.errors import EvaluationError
from repro.logic.canonical import canonical_fingerprint, canonicalize
from repro.logic.formulas import (
    And,
    Atom,
    Exists,
    FalseF,
    Forall,
    Formula,
    Not,
    Or,
    QuantKind,
    RelAtom,
    TrueF,
)
from repro.logic.literals import lift_literals
from repro.logic.terms import Var
from repro.logic.transform import guard_existentials, to_nnf
from repro.structures.base import StringStructure

#: Estimated direct-engine candidate checks above which the planner always
#: prefers the automata engine (protects against LENGTH-domain blowups).
DIRECT_COST_CEILING = 2_000_000.0

#: One automata state expansion is assumed to cost as much as this many
#: direct candidate checks.  Retuned for the dense integer-coded kernel
#: (:mod:`repro.automata.kernel`): with flat-array products, vectorized
#: Hopcroft and lazy pipelines, a state expansion is ~5× cheaper than the
#: old dict-of-dicts machinery the previous value (64) was measured
#: against, so the automata engine wins ties it used to lose.
DIRECT_BIAS = 24.0

#: Fixed cost (in direct-check units) charged to the algebra engine when
#: no compiled closure is cached for the query yet: algebra compilation,
#: the rewrite fixpoint, source emission, ``compile()`` and ``exec``.
#: Keeps tiny one-shot queries on the direct engine, where enumeration
#: finishes before the compiler would; the closure cache amortizes it
#: away, so repeated and prepared queries see only the per-row cost.
CODEGEN_SETUP_COST = 6_000.0

#: Per-row cost of the algebra engine's compiled closure (in
#: direct-check units per estimated row): fusion leaves no per-tuple
#: dispatch, checker re-entry or intermediate materialization at
#: operator boundaries.
CODEGEN_ROW_FACTOR = 0.5

#: Fixed cost (in direct-check units) charged to the algebra engine when
#: the query lies outside the collapsed fragment and neither its closure
#: nor its translated plans (``algebra.plans``) are cached yet: the
#: RANF translation (:mod:`repro.algebra.ranf`) of such a query does
#: more work than its depth-0 collapsed case (per-quantifier domain
#: constructions, the ``fin``/``inf`` split).  The plan memo amortizes
#: it away, so repeated queries see only the per-row cost.
RANF_SETUP_COST = 1_500.0

_INF = float("inf")


# ------------------------------------------------------------------ plan tree


@dataclass
class PlanNode:
    """One node of the (static) plan tree — mirrors the formula shape."""

    label: str
    kind: str
    annotations: dict[str, object] = field(default_factory=dict)
    children: tuple["PlanNode", ...] = ()

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "kind": self.kind,
            "annotations": dict(self.annotations),
            "children": [c.to_dict() for c in self.children],
        }

    def render(self, indent: str = "") -> str:
        notes = ", ".join(f"{k}={v}" for k, v in self.annotations.items())
        line = f"{indent}{self.label}" + (f"  [{notes}]" if notes else "")
        lines = [line]
        for child in self.children:
            lines.append(child.render(indent + "  "))
        return "\n".join(lines)


@dataclass
class Plan:
    """The planner's decision for one query on one database.

    ``formula`` is the *canonicalized* formula the chosen engine will
    actually run (for a forced direct/algebra engine additionally
    collapsed), as a template (:mod:`repro.logic.literals`) whose slot
    values are ``params``; ``slack`` is the restricted-domain
    headroom the engines use.  ``engine`` names a backend registered in
    :mod:`repro.engine.backend` — resolve it with
    :func:`~repro.engine.backend.get_backend`, never by comparing the
    string.  ``costs`` holds one display-unit estimate per registered
    backend (``inf`` where the backend's regime does not apply);
    ``fingerprint`` is the canonical structural fingerprint that keys
    every cache entry this plan will touch (a bound plan's also encodes
    its values).  ``db_stats`` are the
    statistics of the database this plan was costed on
    (:func:`planning_statistics`): the plan cache
    (:mod:`repro.engine.plan_cache`) reuses a plan on other snapshots,
    and ``origin`` then says so, with the statistics it was looked up
    for.
    """

    engine: str
    reason: str
    forced: bool
    slack: int
    formula: Formula
    structure: StringStructure
    costs: dict[str, float]
    root: PlanNode
    quantifier_kinds: tuple[str, ...]
    negation_depth: int
    anchored_free: bool
    fingerprint: str = ""
    db_stats: dict[str, object] = field(default_factory=dict)
    #: Per-backend ineligibility reasons from the auto gate (empty for
    #: forced plans): why each blocked backend dropped out — the regime
    #: observability the RANF work needs (`algebra: ... RANF translation
    #: bailed: <node>`).
    ineligible: dict[str, str] = field(default_factory=dict)
    #: Values bound to the template's slots (``Param(i)`` reads
    #: ``params[i]``); empty for a query without literals.
    params: tuple[str, ...] = ()
    #: How the plan cache produced this plan, set on the plans EXPLAIN
    #: and ``Query.plan`` show: ``outcome`` ``"reused"`` or
    #: ``"planned"``, the replan ``reason`` (``miss``, ``drift``,
    #: ``eligibility``, ``warm``) and the ``current_stats`` of the
    #: database it was looked up for, beside ``db_stats``.  Empty for a
    #: plan straight from :meth:`Planner.plan`.
    origin: dict[str, object] = field(default_factory=dict)
    #: The probes of the caches the estimates found cold
    #: (:attr:`repro.engine.backend.Estimate.cold`).
    cold_probes: tuple = field(default=(), compare=False, repr=False)

    def to_dict(self) -> dict:
        """The plan as strict JSON values: an infinite cost (a backend
        whose regime does not apply) is ``None``."""
        return json_finite({
            "engine": self.engine,
            "reason": self.reason,
            "forced": self.forced,
            "slack": self.slack,
            "structure": self.structure.name,
            "costs": dict(self.costs),
            "fingerprint": self.fingerprint,
            "quantifier_kinds": list(self.quantifier_kinds),
            "negation_depth": self.negation_depth,
            "anchored_free": self.anchored_free,
            "db_stats": dict(self.db_stats),
            "origin": dict(self.origin),
            "ineligible": dict(self.ineligible),
            "tree": self.root.to_dict(),
        })

    def render(self) -> str:
        mode = "forced" if self.forced else "auto"
        shown = "  ".join(
            f"{name}≈{_fmt_cost(self.costs[name])}" for name in sorted(self.costs)
        )
        lines = [
            f"engine: {self.engine} ({mode}) — {self.reason}",
            f"estimated cost: {shown}  (slack={self.slack})",
        ]
        for name in sorted(self.ineligible):
            lines.append(f"ineligible: {name}: {self.ineligible[name]}")
        if self.origin:
            outcome = self.origin["outcome"]
            if self.origin.get("reason"):
                outcome += f" ({self.origin['reason']})"
            recorded = _fmt_stats(self.db_stats)
            now = _fmt_stats(self.origin["current_stats"])
            lines.append(
                f"plan cache: {outcome} — costed on {recorded}; now "
                + ("the same" if now == recorded else now)
            )
        lines.append(self.root.render())
        return "\n".join(lines)


def json_finite(value):
    """``value`` with every infinite or NaN float, however deeply nested
    in dicts, lists and tuples, replaced by ``None``: RFC 8259 JSON has
    no such number, and ``json.dumps`` would write a bare ``Infinity``."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: json_finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_finite(v) for v in value]
    return value


def _fmt_stats(stats: dict) -> str:
    shown = [
        f"{name}={stats[name]}"
        for name in ("adom_size", "prefix_closure_size", "total_string_length",
                     "max_string_length")
    ]
    shown += [f"|{name}|={n}" for name, n in stats["relations"].items()]
    return " ".join(shown)


def _fmt_cost(cost: float) -> str:
    if cost == _INF:
        return "inf"
    if cost >= 1e5:
        return f"{cost:.2e}"
    return f"{cost:g}"


# ----------------------------------------------------------- anchored analysis


def anchored_free_variables(formula: Formula) -> frozenset[str]:
    """Free variables guaranteed to take *active-domain* values.

    A stricter, value-preserving variant of the classic range-restriction
    analysis: a variable is anchored only when it occurs as a **bare
    variable argument** of a positive database atom (a variable buried in
    a term like ``R(add_last(x, '0'))`` is constrained, but its own value
    need not be in ``adom``).  Conjunction anchors the union, disjunction
    the intersection, negation nothing.
    """
    return _anchored(to_nnf(formula))


def _anchored(nnf: Formula) -> frozenset[str]:
    if isinstance(nnf, RelAtom):
        return frozenset(t.name for t in nnf.args if isinstance(t, Var))
    if isinstance(nnf, And):
        out: frozenset[str] = frozenset()
        for p in nnf.parts:
            out |= _anchored(p)
        return out
    if isinstance(nnf, Or):
        parts = [_anchored(p) for p in nnf.parts]
        out = parts[0]
        for p in parts[1:]:
            out &= p
        return out
    if isinstance(nnf, (Exists, Forall)):
        return _anchored(nnf.body) - {nnf.var}
    return frozenset()


def negation_depth(formula: Formula) -> int:
    """Maximum number of nested negations (after NNF the interesting part
    is negation over quantifiers, which drives automata complement cost)."""
    if isinstance(formula, Not):
        return 1 + negation_depth(formula.inner)
    return max((negation_depth(c) for c in formula.children()), default=0)


# ------------------------------------------------------------- cost estimates


def _geometric(base: int, exponent: int) -> float:
    """``1 + base + ... + base^exponent`` with overflow-safe floats."""
    if exponent < 0:
        return 1.0
    if base <= 1:
        return float(exponent + 1)
    try:
        return float((base ** (exponent + 1) - 1) / (base - 1))
    except OverflowError:
        return _INF


def domain_size_estimate(
    kind: QuantKind, structure: StringStructure, database: Database, slack: int
) -> float:
    """Estimated number of candidate strings one quantifier enumerates."""
    sigma = len(structure.alphabet)
    if kind is QuantKind.ADOM:
        return float(max(len(database.adom), 1))
    if kind is QuantKind.PREFIX:
        closure = database.adom_prefix_closure_size() or 1
        return closure * _geometric(sigma, slack)
    if kind is QuantKind.LENGTH:
        max_len = max(database.max_string_length, 0)
        return _geometric(sigma, max_len + slack)
    # NATURAL: the direct engine cannot enumerate Sigma*.
    return _INF


def estimate_direct_cost(
    formula: Formula,
    structure: StringStructure,
    database: Database,
    slack: int,
) -> float:
    """Estimated candidate checks of the direct engine: the product of the
    output-column domains times the per-tuple evaluation cost (which itself
    multiplies through nested quantifier domains)."""

    def per_tuple(f: Formula) -> float:
        if isinstance(f, (TrueF, FalseF, Atom, RelAtom)):
            return 1.0
        if isinstance(f, Not):
            return per_tuple(f.inner)
        if isinstance(f, (And, Or)):
            return sum(per_tuple(p) for p in f.parts)
        if isinstance(f, (Exists, Forall)):
            dom = domain_size_estimate(f.kind, structure, database, slack)
            inner = per_tuple(f.body)
            if dom == _INF or inner == _INF:
                return _INF
            return dom * inner
        raise EvaluationError(f"cannot cost formula node {f!r}")

    anchored = anchored_free_variables(formula)
    output = 1.0
    for var in sorted(formula.free_variables()):
        kind = (
            QuantKind.ADOM if var in anchored else structure.restricted_kind
        )
        size = domain_size_estimate(kind, structure, database, slack)
        if size == _INF:
            return _INF
        output *= size
    inner = per_tuple(formula)
    return _INF if inner == _INF else output * inner


def estimate_automata_cost(
    formula: Formula, structure: StringStructure, database: Database
) -> float:
    """A state-count heuristic for the automata engine.

    Atoms contribute their presentation size (a small constant) or the
    database trie size; products multiply (capped), projection after which
    a complement occurs models the determinization blowup.  The absolute
    value is meaningless — only the comparison against the (similarly
    heuristic) direct estimate matters.
    """
    sigma = len(structure.alphabet)
    column_factor = float(sigma + 1)
    db_trie = 2.0 + database.total_string_length()

    def states(f: Formula) -> float:
        if isinstance(f, (TrueF, FalseF)):
            return 1.0
        if isinstance(f, Atom):
            return 4.0
        if isinstance(f, RelAtom):
            return db_trie
        if isinstance(f, Not):
            # Complement is cheap on a DFA, but it forces the downstream
            # product to explore the completed automaton.
            return states(f.inner) + 1.0
        if isinstance(f, (And, Or)):
            acc = 1.0
            for p in f.parts:
                acc = min(acc * states(p), 1e12)
            return acc
        if isinstance(f, (Exists, Forall)):
            inner = states(f.body)
            if f.kind is not QuantKind.NATURAL:
                inner = min(inner * db_trie, 1e12)  # domain-guard product
            # Projection introduces nondeterminism; determinization can
            # square the state count in the worst case — model it gently.
            return min(inner ** 1.2 + 2.0, 1e12)
        raise EvaluationError(f"cannot cost formula node {f!r}")

    return min(states(formula) * column_factor, 1e15)


def algebra_eligible(
    formula: Formula, structure: Optional[StringStructure] = None
) -> bool:
    """True when the set-at-a-time algebra engine provably agrees with the
    other engines on ``formula``.

    With a ``structure``, the regime is everything the RANF translation
    (:mod:`repro.algebra.ranf`) handles: the legacy ADOM-only collapsed
    fragment, anchored queries with restricted PREFIX/LENGTH quantifiers
    compiled directly to algebra, and ``gamma``-bounded queries whose
    unanchored free variables carry a domain-independence certificate
    (:func:`repro.safety.bounded.range_bounded_variables`).  The verdict
    is memoized per canonical fingerprint — negative ones included
    (``planner.eligibility_memo.hits``).

    Without a ``structure`` this is the historical syntactic gate: after
    term flattening the query still only has ADOM quantifiers
    (flattening introduces NATURAL quantifiers for function terms under
    database atoms, which would break this) and is in collapsed form, so
    Theorem 4's calculus↔algebra equivalence applies with every
    quantifier ranging over the *exact* active domain.
    """
    if structure is not None:
        from repro.algebra.ranf import translation_verdict

        return translation_verdict(formula, structure).ok
    from repro.algebra.compile import is_collapsed_form
    from repro.logic.transform import flatten_terms

    flat = flatten_terms(formula)
    if not flat.quantifier_kinds() <= {QuantKind.ADOM}:
        return False
    return is_collapsed_form(flat)


def estimate_algebra_cost(
    formula: Formula,
    structure: StringStructure,
    database: Database,
    slack: int,
) -> float:
    """Estimated row operations of the algebra engine's plan.

    A textbook cardinality model over the *formula* (cheaper than
    compiling just to cost): relation atoms yield their cardinality,
    conjunction is generator-first like the compiler — a hash-join chain
    over the positive database-dependent conjuncts (cost = inputs +
    output rows, output estimated with an ``1/adom`` selectivity per
    shared variable), then one pass over those rows per database-free
    filter and per negated conjunct, with only the variables no
    generator binds padded with the ``gamma`` bound.  Negation outside a
    conjunction adds a difference against an active-domain bound, ADOM
    quantifiers project.  PREFIX/LENGTH quantifiers (the RANF-widened
    regime) charge the per-row candidate construction — body cardinality
    times string length per context column — plus the context-free
    domain part.  Returns ``inf`` when :func:`algebra_eligible` is false.
    Like the direct estimate, the absolute value only matters relative
    to the other engines' estimates.
    """
    from repro.algebra.compile import (
        equated_variable,
        is_adom_exists,
        is_database_free,
    )

    if not algebra_eligible(formula, structure):
        return _INF
    adom = float(max(len(database.adom), 1))
    length = float(max(database.max_string_length, 1))
    # Size of the ambient gamma bound: what one column of a database-free
    # condition's candidate relation costs (prefix closure on S/S_left,
    # the exponential length ball on S_len).
    bound_size = domain_size_estimate(
        structure.restricted_kind, structure, database, slack
    )

    def go(f: Formula) -> tuple[float, float]:
        """Returns ``(cost, card)`` — work done and output-row estimate."""
        if isinstance(f, RelAtom):
            n = (
                float(len(database.relation(f.name)))
                if f.name in database.relation_names
                else 0.0
            )
            return (max(n, 1.0), max(n, 1.0))
        if is_database_free(f):
            k = len(f.free_variables())
            if k == 0:
                return (1.0, 1.0)
            # Outside a conjunction a database-free subformula compiles
            # to a selection over the gamma bound's k-th power (the
            # compiler's _condition_plan), which is materialized.
            size = min(bound_size**k, _INF)
            return (size, max(size / adom, 1.0))
        if isinstance(f, Not):
            cost, card = go(f.inner)
            # Anti-join against the ADOM bound of the negated columns.
            bound = adom ** max(len(f.free_variables()), 1)
            return (cost + card + bound, bound)
        if isinstance(f, And):
            return conjunction(f.parts)
        if isinstance(f, Or):
            costs_cards = [go(p) for p in f.parts]
            return (
                sum(c for c, _ in costs_cards),
                sum(k for _, k in costs_cards),
            )
        if isinstance(f, (Exists, Forall)):
            cost, card = go(f.body)
            if f.kind in (QuantKind.PREFIX, QuantKind.LENGTH):
                ctx = max(len(f.free_variables()), 1)
                if f.kind is QuantKind.PREFIX:
                    # Context-free part: a semi-join against the closure.
                    part_a = domain_size_estimate(
                        f.kind, structure, database, slack
                    ) + card
                else:
                    # LENGTH compiles to len_le probes, not down_i — the
                    # exponential domain is never materialized.
                    part_a = card * adom
                expand = card * length * ctx + part_a
                if isinstance(f, Forall):
                    bound = adom ** ctx
                    return (cost + expand + 2 * bound, bound)
                return (cost + expand, max(card, 1.0))
            if isinstance(f, Forall):
                # forall adom x: phi == not exists adom x: not phi — two
                # differences against the bound on top of the body.
                bound = adom ** max(len(f.free_variables()), 1)
                return (cost + card + 2 * bound, bound)
            return (cost + card, max(card / adom, 1.0))
        raise EvaluationError(f"cannot cost formula node {f!r}")

    def conjunction(
        parts: tuple[Formula, ...],
        seed: Optional[tuple[float, frozenset[str]]] = None,
    ) -> tuple[float, float]:
        """Priced like the compiler's generator-first conjunction; a
        ``seed`` is the ``(card, variables)`` of a join it starts from."""
        generators = [
            p for p in parts
            if not is_database_free(p) and not isinstance(p, (Not, Forall))
        ]
        generators.sort(key=is_adom_exists)
        constraints = [p for p in parts if p not in generators]
        card, bound = seed if seed is not None else (1.0, frozenset())
        started = seed is not None
        cost = 0.0
        for part in generators:
            free = part.free_variables()
            seeded = started and is_adom_exists(part) and part.var not in bound
            if seeded and free & bound:
                # The quantifier's body starts from this join (a seed):
                # at most one output row per seed row.
                body = part.body.parts if isinstance(part.body, And) else (part.body,)
                part_cost, part_card = conjunction(body, (card, bound))
                cost += part_cost + part_card
                card = min(card, part_card)
            else:
                part_cost, part_card = go(part)
                shared = free & bound
                # Equi-join selectivity guess: 1/adom per shared variable.
                card = max(card * part_card / adom ** len(shared), 1.0)
                cost += part_cost
            bound |= free
            started = True
        cost += card

        def constrain(batch: list[Formula]) -> float:
            # One filter check or anti-join probe per generator row, plus
            # the negated subplan itself.
            total = card * len(batch)
            for part in batch:
                if isinstance(part, Not) and not is_database_free(part):
                    total += sum(go(part.inner))
                elif isinstance(part, Forall):
                    total += sum(go(Exists(part.var, Not(part.body), part.kind)))
            return total

        # Equalities with a bound variable bind the other one for free.
        def equated() -> set[str]:
            pairs = (equated_variable(p, bound) for p in constraints)
            return {pair[0] for pair in pairs if pair is not None}

        while new := equated():
            bound |= new
        now = [p for p in constraints if p.free_variables() <= bound]
        later = [p for p in constraints if p not in now]
        cost += constrain(now)
        if later:
            unbound = set().union(*(p.free_variables() for p in later)) - bound
            card = min(card * bound_size ** len(unbound), _INF)
            cost += card + constrain(later)
        return (cost, card)

    cost, card = go(formula)
    free = formula.free_variables()
    if free and not free <= anchored_free_variables(formula):
        # gamma-bounded branch: the fin half semi-joins every unanchored
        # output column against the slack-0 gamma bound.
        gamma = float(max(database.adom_prefix_closure_size(), 1))
        cost += card + gamma
    return cost


# ------------------------------------------------------------------- planner


def with_values(plan: Plan, values: tuple[str, ...]) -> Plan:
    """``plan`` (made for a template) run for one binding of its slots:
    its fingerprint gains an injective encoding of ``values``, so two
    bindings never share a whole-result cache entry."""
    if not values:
        return plan
    digest = hashlib.sha1(json.dumps(values).encode()).hexdigest()
    return replace(plan, params=values, fingerprint=f"{plan.fingerprint}/{digest}")


def planning_statistics(database: Database, relations) -> dict[str, object]:
    """What the planner reads of ``database`` to cost a query naming
    ``relations`` (``Plan.db_stats``): each is memoized per snapshot."""
    schema = database.schema
    return {
        "adom_size": len(database.adom),
        "prefix_closure_size": database.adom_prefix_closure_size(),
        "total_string_length": database.total_string_length(),
        "max_string_length": database.max_string_length,
        "relations": {
            name: len(database.relation(name)) if name in schema else 0
            for name in relations
        },
        "tuples": database.size,
        "alphabet_size": len(database.alphabet),
    }


def planning_form(formula: Formula) -> tuple[Formula, tuple[str, ...]]:
    """The template :meth:`Planner.plan` decides on and its slots' values:
    relation-guarded natural existentials made ADOM, the formula
    canonicalized, its literals lifted."""
    return lift_literals(canonicalize(guard_existentials(formula)))


class Planner:
    """Plan queries for one structure + database pair.

    The evaluation context (alphabets must match); the tuning knobs are
    the module constants.
    """

    def __init__(self, structure: StringStructure, database: Database):
        if structure.alphabet != database.alphabet:
            raise EvaluationError("structure and database alphabets differ")
        self.structure = structure
        self.database = database

    # ------------------------------------------------------------- planning

    def plan(
        self,
        formula: Formula,
        slack: Optional[int] = None,
        force: Optional[str] = None,
    ) -> Plan:
        """Choose a backend (or honor ``force``) and build the plan tree.

        ``force`` is resolved through the backend registry — an unknown
        name raises :class:`~repro.errors.EvaluationError` listing the
        registered backends.  The formula is canonicalized first, so
        alpha-equivalent and conjunct-reordered spellings produce the
        same plan and share every downstream cache entry; before that,
        :func:`planning_form` applies the ADOM guard, so every caller
        plans the same text alike.

        The plan is made for the formula's template
        (:func:`~repro.logic.literals.lift_literals`): every decision it
        holds is the same for any values of the literals, which ride
        along in ``params`` (see :func:`with_values`).  Planning a
        template plans it for every binding.
        """
        METRICS.inc("planner.plans")
        template, values = planning_form(formula)
        force = resolve_engine(force)
        if force is not None:
            backend = get_backend(force)
            prepared, effective, reason = backend.prepare_forced(
                template, self.structure, slack
            )
            METRICS.inc(f"planner.backend.{backend.name}.forced")
            plan = self._make_plan(
                prepared,
                engine=backend.name,
                reason=reason,
                forced=True,
                slack=effective,
            )
        else:
            plan = self._auto(template, slack)
            METRICS.inc(f"planner.backend.{plan.engine}.chosen")
        return with_values(plan, values)

    def _auto(self, formula: Formula, slack: Optional[int]) -> Plan:
        """Registry iteration: eligibility gate, then cost argmin."""
        effective = slack if slack is not None else 0
        eligible: list[EngineBackend] = []
        blocked: list[tuple[EngineBackend, str]] = []
        for backend in all_backends():
            ok, why = backend.eligible(formula, self.structure, self.database)
            if ok:
                eligible.append(backend)
            else:
                blocked.append((backend, why))
                METRICS.inc(f"planner.backend.{backend.name}.ineligible")
        if not eligible:
            raise EvaluationError(
                "no registered backend is eligible for this query "
                f"({'; '.join(why for _, why in blocked) or 'empty registry'})"
            )
        ineligible = {backend.name: why for backend, why in blocked}
        estimates = self._estimates(formula, effective)
        if len(eligible) == 1:
            # No comparison to make; surface why the alternatives dropped
            # out (the highest-priority blocked backend's reason — for the
            # built-ins, the direct engine's conservatism rules).
            chosen = eligible[0]
            reason = blocked[0][1] if blocked else "only registered backend"
        else:
            costs = {name: e.cost for name, e in estimates.items()}
            scaled = {
                b.name: b.decision_cost(costs[b.name], self) for b in eligible
            }
            chosen = min(
                eligible, key=lambda b: (scaled[b.name], b.priority, b.name)
            )
            reason = chosen.chosen_reason(costs, self)
        return self._make_plan(
            formula,
            engine=chosen.name,
            reason=reason,
            forced=False,
            slack=effective,
            estimates=estimates,
            ineligible=ineligible,
        )

    # ------------------------------------------------------------ plan build

    def _estimates(self, formula: Formula, slack: int) -> dict[str, Estimate]:
        """One display-unit estimate per registered backend (inf allowed)."""
        return {
            backend.name: backend.estimate(
                formula, self.structure, self.database, slack, self
            )
            for backend in all_backends()
        }

    def _make_plan(
        self,
        formula: Formula,
        engine: str,
        reason: str,
        forced: bool,
        slack: int,
        estimates: Optional[dict[str, Estimate]] = None,
        ineligible: Optional[dict[str, str]] = None,
    ) -> Plan:
        anchored = anchored_free_variables(formula)
        free = formula.free_variables()
        if estimates is None:
            estimates = self._estimates(formula, slack)
        return Plan(
            engine=engine,
            reason=reason,
            forced=forced,
            slack=slack,
            formula=formula,
            structure=self.structure,
            costs={name: e.cost for name, e in estimates.items()},
            fingerprint=canonical_fingerprint(formula),
            root=self._node(formula, slack),
            quantifier_kinds=tuple(
                sorted(k.value for k in formula.quantifier_kinds())
            ),
            negation_depth=negation_depth(formula),
            anchored_free=bool(free <= anchored),
            db_stats=planning_statistics(
                self.database, sorted(formula.relation_names())
            ),
            ineligible=dict(ineligible or {}),
            # A forced plan runs its engine however warm the caches get.
            cold_probes=() if forced else tuple(
                p for e in estimates.values() for p in e.cold
            ),
        )

    def _node(self, f: Formula, slack: int) -> PlanNode:
        if isinstance(f, (Atom, RelAtom, TrueF, FalseF)):
            kind = "rel-atom" if isinstance(f, RelAtom) else "atom"
            notes: dict[str, object] = {}
            if isinstance(f, RelAtom):
                notes["tuples"] = len(self.database.relation(f.name)) if (
                    f.name in self.database.relation_names
                ) else "?"
            return PlanNode(str(f), kind, notes)
        if isinstance(f, Not):
            return PlanNode("not", "not", {}, (self._node(f.inner, slack),))
        if isinstance(f, (And, Or)):
            label = "and" if isinstance(f, And) else "or"
            return PlanNode(
                label,
                label,
                {"free": ",".join(sorted(f.free_variables())) or "-"},
                tuple(self._node(p, slack) for p in f.parts),
            )
        if isinstance(f, (Exists, Forall)):
            q = "exists" if isinstance(f, Exists) else "forall"
            size = domain_size_estimate(f.kind, self.structure, self.database, slack)
            return PlanNode(
                f"{q} {f.kind.value} {f.var}",
                q,
                {"domain": f"≈{_fmt_cost(size)}"},
                (self._node(f.body, slack),),
            )
        raise EvaluationError(f"cannot plan formula node {f!r}")


def plan_query(
    formula: Formula,
    structure: StringStructure,
    database: Database,
    slack: Optional[int] = None,
    force: Optional[str] = None,
) -> Plan:
    """One-shot convenience wrapper around :class:`Planner`."""
    return Planner(structure, database).plan(formula, slack=slack, force=force)
