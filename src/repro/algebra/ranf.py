"""RANF translation: arbitrary calculus queries as executable plan *pairs*.

Raszyk et al. ("Efficient Evaluation of Arbitrary Relational Calculus
Queries", arXiv 2210.09964) evaluate an arbitrary — not syntactically
range-restricted — relational calculus query by translating it into a
pair of relational-algebra-normal-form queries: one computing the finite
output, one characterizing "the result is infinite".  This module is
that idea specialized to the paper's string calculi: it widens the
algebra engine from :func:`~repro.algebra.compile.compile_query`'s
ADOM-only collapsed fragment to every formula for which we can certify a
data-independent output bound, including the restricted PREFIX/LENGTH
quantifiers of RC(S_left)/RC(S_len) **without** collapsing them away
first.

:func:`translation_verdict` classifies a formula (structurally, memoized
per canonical fingerprint — the planner's eligibility gate):

``collapsed``
    the old fragment (ADOM-only quantifiers, collapsed form, anchored
    free variables).  The legacy :func:`~repro.algebra.exec.run_algebra`
    path is byte-for-byte unchanged for it.
``restricted-quantifiers``
    free variables all anchored, but PREFIX/LENGTH (or database-free
    NATURAL) quantifiers present.  :class:`_RanfCompiler` compiles the
    restricted quantifiers *directly* into algebra — the bounded domain
    a PREFIX/LENGTH quantifier ranges over (prefixes of active-domain
    strings and of the context variables' values, resp. the length ball;
    see :meth:`repro.eval.direct.DirectEngine._domain`) is expressible
    with ``prefix_i`` / ``add_i^a`` columns and per-row selections.
    The output is still within ``adom^n``, so the "infinite" half of the
    pair is identically empty and is omitted.
``gamma-bounded``
    some free variables unanchored but *range-bounded* per
    :func:`repro.safety.bounded.range_bounded_variables` (e.g.
    ``eq(x, y) & R(y)``, or SIMILAR-TO set ops over finite pattern
    languages).  The pair is real: ``fin`` semi-joins every unanchored
    output column with the slack-0 ``gamma`` bound, and ``inf`` is the
    nullary ``pi_()(T - fin)`` — nonempty exactly when the translated
    query produced a row the certificate cannot bound, in which case the
    caller must treat the natural-semantics result as potentially
    infinite and fall back to the automata engine.  With a correct
    certificate the check is a cheap anti-join over the already-memoized
    ``T``.

Soundness of the quantifier constructions (the engine-agreement
contract): a translated plan evaluates each PREFIX/LENGTH quantifier
over **exactly** the domain the direct and automata engines enumerate —
the adom-derived part is context-free and compiled once, the
context-value part is computed per row from the body's own columns.
Completeness under the ambient ``gamma`` bound needs one extra
accounting step: a quantifier at nesting depth ``d`` can bind values up
to ``slack * d`` symbols longer than the bound's base, so the ambient
bound is built with ``slack * max(1, depth)`` (plus one shell of slack
for the ``gamma-bounded`` branch, so escapes land in the plan instead of
being silently clipped).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

from repro.algebra.compile import (
    CompiledQuery,
    CompileError,
    _Compiler,
    bound_plan,
    is_collapsed_form,
    is_database_free,
    query_constants,
    strict_adom_plan,
)
from repro.algebra.dialects import FOR_STRUCTURE
from repro.algebra.optimize import optimize_for_execution
from repro.algebra.plan import (
    AddLastOp,
    Difference,
    EpsilonRel,
    Plan,
    PrefixOp,
    Product,
    Project,
    Select,
    Union,
    col,
)
from repro.engine.metrics import METRICS
from repro.errors import SignatureError
from repro.logic.canonical import canonical_fingerprint
from repro.logic.formulas import Atom, Exists, Forall, Formula, Not, QuantKind
from repro.logic.transform import flatten_terms, fold_literal_graphs
from repro.safety.bounded import range_bounded_variables


class RanfError(CompileError):
    """The RANF translation cannot handle the formula; ``node`` names the
    subformula the bail-out is attributed to (EXPLAIN surfaces it)."""

    def __init__(self, message: str, node: str | None = None):
        super().__init__(message)
        self.node = node


# ------------------------------------------------------------------ verdicts


@dataclass(frozen=True)
class RanfVerdict:
    """The structural classification of one formula over one structure."""

    ok: bool
    branch: str  # "collapsed" | "restricted-quantifiers" | "gamma-bounded"
    reason: str
    bail_node: Optional[str]
    anchored: frozenset[str]
    bounded: frozenset[str]
    extra_constants: frozenset[str]
    rq_depth: int


#: Verdict and translation caches are capped (oldest entry dropped
#: first) and shared by worker threads: eviction and insertion hold the lock.
_CACHE_LOCK = threading.Lock()
_VERDICTS: dict[tuple, RanfVerdict] = {}
_VERDICTS_CAP = 512


def _restricted_depth(f: Formula) -> int:
    """Max nesting depth of PREFIX/LENGTH quantifiers (the slack
    compounding factor of the ambient bound)."""
    here = 0
    if isinstance(f, (Exists, Forall)) and f.kind in (
        QuantKind.PREFIX,
        QuantKind.LENGTH,
    ):
        here = 1
    return here + max(
        (_restricted_depth(c) for c in f.children()), default=0
    )


def _compute_verdict(formula: Formula, structure) -> RanfVerdict:
    from repro.engine.planner import anchored_free_variables

    def bail(reason: str, node: Formula | None = None) -> RanfVerdict:
        return RanfVerdict(
            ok=False,
            branch="",
            reason=reason,
            bail_node=str(node) if node is not None else None,
            anchored=frozenset(),
            bounded=frozenset(),
            extra_constants=frozenset(),
            rq_depth=0,
        )

    try:
        structure.check_formula(formula)
    except SignatureError as exc:
        return bail(f"outside the {structure.name} signature: {exc}")
    flat = flatten_terms(formula)
    kinds: set[QuantKind] = set()
    for sub in flat.walk():
        if not isinstance(sub, (Exists, Forall)):
            continue
        kinds.add(sub.kind)
        if sub.kind is QuantKind.NATURAL and not is_database_free(sub.body):
            return bail(
                "NATURAL quantifier over a database-dependent scope "
                "(collapse() it to a restricted kind first)",
                sub,
            )
        if sub.kind is QuantKind.LENGTH and "len_le" not in structure.predicates:
            return bail(
                f"LENGTH quantifier needs the S_len signature, not {structure.name}",
                sub,
            )
    free = flat.free_variables()
    anchored = anchored_free_variables(flat)
    rq_depth = _restricted_depth(flat)
    if free <= anchored:
        if kinds <= {QuantKind.ADOM} and is_collapsed_form(flat):
            branch = "collapsed"
        else:
            branch = "restricted-quantifiers"
        return RanfVerdict(
            ok=True,
            branch=branch,
            reason="",
            bail_node=None,
            anchored=anchored,
            bounded=frozenset(),
            extra_constants=frozenset(),
            rq_depth=rq_depth,
        )
    report = range_bounded_variables(flat, structure)
    loose = free - anchored - report.bounded
    if loose:
        return bail(
            "free variable(s) neither anchored nor range-bounded: "
            + ", ".join(sorted(loose)),
            flat,
        )
    return RanfVerdict(
        ok=True,
        branch="gamma-bounded",
        reason="",
        bail_node=None,
        anchored=anchored,
        bounded=report.bounded,
        extra_constants=report.extra_constants,
        rq_depth=rq_depth,
    )


def translation_verdict(formula: Formula, structure) -> RanfVerdict:
    """Classify ``formula`` for the RANF translation (memoized).

    Both positive and negative verdicts are cached per canonical
    fingerprint — re-planning an ineligible query costs a dict lookup,
    counted under ``planner.eligibility_memo_hits``.
    """
    key = (
        canonical_fingerprint(formula),
        structure.name,
        structure.alphabet.symbols,
    )
    hit = _VERDICTS.get(key)
    if hit is not None:
        METRICS.inc("planner.eligibility_memo_hits")
        return hit
    verdict = _compute_verdict(formula, structure)
    METRICS.inc("planner.ranf.verdicts")
    if not verdict.ok:
        METRICS.inc("planner.ranf.bailouts")
    with _CACHE_LOCK:
        if len(_VERDICTS) >= _VERDICTS_CAP:
            _VERDICTS.pop(next(iter(_VERDICTS)), None)
        _VERDICTS[key] = verdict
    return verdict


# ------------------------------------------------------------------ compiler


class _RanfCompiler(_Compiler):
    """Extends the Theorem-4 compiler with PREFIX/LENGTH quantifiers.

    Contract (shared with the parent): ``translate`` returns
    ``(plan, vars)`` with ``vars`` the sorted free variables, sound and
    complete for assignments within the ambient bound's exact region.
    """

    def translate(self, f: Formula):
        if isinstance(f, Exists) and f.kind in (QuantKind.PREFIX, QuantKind.LENGTH):
            return self._restricted_exists(f)
        if isinstance(f, Forall) and f.kind in (QuantKind.PREFIX, QuantKind.LENGTH):
            return self.translate(Not(Exists(f.var, Not(f.body), f.kind)))
        return super().translate(f)

    # The PREFIX/LENGTH domains always contain epsilon, so a vacuous
    # restricted quantifier (bound variable unused) changes nothing.

    def _restricted_exists(self, f: Exists):
        body_plan, body_vars = self.translate(f.body)
        if f.var not in body_vars:
            return body_plan, body_vars
        if f.kind is QuantKind.PREFIX:
            matched = self._prefix_membership(body_plan, body_vars, f.var)
        else:
            matched = self._length_membership(body_plan, body_vars, f.var)
        idx = body_vars.index(f.var)
        out_vars = tuple(v for v in body_vars if v != f.var)
        indices = tuple(i for i in range(len(body_vars)) if i != idx)
        return Project(matched, indices), out_vars

    # -- PREFIX: y in prefix-closure(adom) extended <= slack, or in the
    #    prefix-closure of some context variable's value, extended <= slack.

    def _prefix_adom_domain(self) -> Plan:
        """Unary plan of the context-free (adom) part of a PREFIX domain."""
        base = Union(strict_adom_plan(self.schema), EpsilonRel())
        plan: Plan = Project(PrefixOp(base, 0), (1,))
        for _ in range(self.slack):
            round_plan = plan
            for a in self.structure.alphabet.symbols:
                round_plan = Union(round_plan, Project(AddLastOp(plan, 0, a), (1,)))
            plan = round_plan
        return plan

    def _prefix_membership(self, body_plan: Plan, body_vars, var: str) -> Plan:
        idx = body_vars.index(var)
        m = len(body_vars)
        # Part A: the bound value is in the adom-derived domain part.
        matched, _ = self._join(
            body_plan, body_vars, self._prefix_adom_domain(), (var,)
        )
        # Part B, per context variable z: the bound value is a prefix of
        # z's value in the *same row*, extended by <= slack symbols.
        for j in range(m):
            if j == idx:
                continue
            grown: Plan = PrefixOp(body_plan, j)  # candidate column at m
            for _ in range(self.slack):
                round_plan = grown
                for a in self.structure.alphabet.symbols:
                    ext = Project(
                        AddLastOp(grown, m, a), tuple(range(m)) + (m + 1,)
                    )
                    round_plan = Union(round_plan, ext)
                grown = round_plan
            hit = Select(grown, Atom("eq", (col(idx), col(m))))
            matched = Union(matched, Project(hit, tuple(range(m))))
        return matched

    # -- LENGTH: |y| <= max(longest adom string, longest context value)
    #    + slack.  Expressed as len_le against per-source probe strings
    #    padded with `slack` extra symbols — no `down_i` (the exponential
    #    operator) anywhere, so the plans stay codegen-fuseable.

    def _length_membership(self, body_plan: Plan, body_vars, var: str) -> Plan:
        idx = body_vars.index(var)
        m = len(body_vars)
        symbols = self.structure.alphabet.symbols
        pad = symbols[0] if symbols else None
        # Part A: |y| <= |w| + slack for some w in adom u {eps}.
        probe: Plan = Union(strict_adom_plan(self.schema), EpsilonRel())
        for _ in range(self.slack):
            if pad is not None:
                probe = Project(AddLastOp(probe, 0, pad), (1,))
        part = Select(
            Product(body_plan, probe), Atom("len_le", (col(idx), col(m)))
        )
        matched: Plan = Project(part, tuple(range(m)))
        # Part B, per context variable z: |y| <= |z's value| + slack.
        for j in range(m):
            if j == idx:
                continue
            grown: Plan = body_plan
            cur = j
            arity = m
            for _ in range(self.slack):
                if pad is None:
                    break
                grown = AddLastOp(grown, cur, pad)
                cur = arity
                arity += 1
            hit = Select(grown, Atom("len_le", (col(idx), col(cur))))
            matched = Union(matched, Project(hit, tuple(range(m))))
        return matched


# ---------------------------------------------------------------- the pair


@dataclass(frozen=True)
class RanfPair:
    """The translated pair: ``fin`` computes the finite output, ``inf``
    (when present) is a nullary plan that is nonempty exactly when the
    translation's bound certificate failed at runtime and the natural
    result must be treated as potentially infinite."""

    branch: str
    compiled: CompiledQuery
    fin_optimized: Plan
    inf_plan: Optional[Plan]
    inf_optimized: Optional[Plan]

    @property
    def columns(self) -> tuple[str, ...]:
        return self.compiled.columns


_TRANSLATIONS: dict[tuple, RanfPair] = {}
_TRANSLATIONS_CAP = 64


def has_translation(formula, structure, schema, slack: int) -> bool:
    """True when the pair for this key is already cached (the planner's
    amortized cost model checks this without forcing a translation)."""
    return _translation_key(formula, structure, schema, slack) in _TRANSLATIONS


def _translation_key(formula, structure, schema, slack: int) -> tuple:
    return (
        canonical_fingerprint(formula),
        structure.name,
        structure.alphabet.symbols,
        slack,
        schema,
    )


def translate_ranf(formula: Formula, structure, schema, slack: int = 1) -> RanfPair:
    """Translate ``formula`` into its RANF pair (cached per fingerprint).

    Raises :class:`RanfError` when :func:`translation_verdict` bails.
    """
    key = _translation_key(formula, structure, schema, slack)
    hit = _TRANSLATIONS.get(key)
    if hit is not None:
        METRICS.inc("algebra.ranf.translation_cache_hits")
        return hit
    verdict = translation_verdict(formula, structure)
    if not verdict.ok:
        raise RanfError(
            f"RANF translation bailed: {verdict.reason}", node=verdict.bail_node
        )
    METRICS.inc("algebra.ranf.translations")
    METRICS.inc(f"algebra.ranf.branch.{verdict.branch}")
    flat = fold_literal_graphs(flatten_terms(formula))
    constants = query_constants(flat) | verdict.extra_constants
    shell = 1 if verdict.branch == "gamma-bounded" else 0
    bound_slack = slack * max(1, verdict.rq_depth) + shell
    bound = bound_plan(structure, schema, bound_slack, constants)
    compiler = _RanfCompiler(structure, schema, slack, bound)
    plan, variables = compiler.translate(flat)
    target = tuple(sorted(formula.free_variables()))
    plan = compiler._pad_to(plan, variables, target)

    inf_plan: Optional[Plan] = None
    if verdict.branch == "gamma-bounded":
        gamma0 = bound_plan(structure, schema, 0, constants)
        fin = plan
        n = len(target)
        for i, v in enumerate(target):
            if v in verdict.anchored:
                continue
            filtered = Select(
                Product(fin, gamma0), Atom("eq", (col(i), col(n)))
            )
            fin = Project(filtered, tuple(range(n)))
        inf_plan = Project(Difference(plan, fin), ())
        plan = fin

    dialect = FOR_STRUCTURE[structure.name](structure.alphabet)
    dialect.validate(plan)
    if inf_plan is not None:
        dialect.validate(inf_plan)
    pair = RanfPair(
        branch=verdict.branch,
        compiled=CompiledQuery(plan, target, dialect),
        fin_optimized=optimize_for_execution(plan),
        inf_plan=inf_plan,
        inf_optimized=(
            optimize_for_execution(inf_plan) if inf_plan is not None else None
        ),
    )
    with _CACHE_LOCK:
        if len(_TRANSLATIONS) >= _TRANSLATIONS_CAP:
            _TRANSLATIONS.pop(next(iter(_TRANSLATIONS)), None)
        _TRANSLATIONS[key] = pair
    return pair


# ---------------------------------------------------------------- execution


@dataclass(frozen=True)
class RanfRun:
    """One evaluation of a translated pair.  ``infinite`` means the
    ``inf`` half produced a row — the finite half is not the answer and
    the caller must fall back to an engine with natural semantics."""

    columns: tuple[str, ...]
    rows: Optional[frozenset]
    stats: Optional[object]
    inf_stats: Optional[object]
    infinite: bool
    branch: str


def run_ranf(
    formula: Formula,
    structure,
    database,
    slack: int = 1,
    recorder=None,
    params: tuple[str, ...] = (),
) -> RanfRun:
    """Evaluate the RANF pair of ``formula`` with the algebra executor.

    One executor runs both halves, so the shared translated core ``T``
    is computed once (the executor memoizes subplans by value).  The
    ``inf`` half runs first: a nonempty result aborts before the finite
    half is materialized.  ``params`` bind a template ``formula``'s slots.
    """
    from repro.algebra.exec import AlgebraExecutor

    pair = translate_ranf(formula, structure, database.schema, slack=slack)
    executor = AlgebraExecutor(structure, database, recorder=recorder, params=params)
    inf_stats = None
    if pair.inf_optimized is not None:
        METRICS.inc("algebra.ranf.inf_checks")
        inf_rows, inf_stats = executor.run(pair.inf_optimized)
        if inf_rows:
            METRICS.inc("algebra.ranf.infinite_bailouts")
            return RanfRun(
                columns=pair.columns,
                rows=None,
                stats=None,
                inf_stats=inf_stats,
                infinite=True,
                branch=pair.branch,
            )
    rows, stats = executor.run(pair.fin_optimized)
    return RanfRun(
        columns=pair.columns,
        rows=rows,
        stats=stats,
        inf_stats=inf_stats,
        infinite=False,
        branch=pair.branch,
    )
