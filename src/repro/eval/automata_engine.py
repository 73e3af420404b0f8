"""The automata evaluation engine: exact semantics for every calculus.

Compiles an RC(SC, M) formula together with a concrete database into a
:class:`~repro.automatic.relation.RelationAutomaton` over the formula's free
variables.  Because the database relations are finite (hence regular) and
every atomic relation of M is synchronized-rational, the compilation is a
straightforward structural recursion:

* atoms -> presentation / database automata (with repeated-variable tracks
  merged),
* boolean connectives -> products and complements,
* quantifiers -> projection, guarded by a domain relation when the
  quantifier kind is restricted (ADOM / PREFIX / LENGTH).

The engine realizes, operationally, several results of the paper at once:

* it terminates on *every* query of RC(S), RC(S_left), RC(S_reg),
  RC(S_len) — natural quantifiers included — giving the reference natural
  semantics;
* ``result.is_finite()`` decides **state-safety** (Proposition 7);
* infinite outputs are still returned, as regular sets.

Its cost can be exponential in the query (complementation after
projection), consistent with the paper's PH upper bound for RC(S_len)
(Theorem 2); the direct engine (:mod:`repro.eval.direct`) is the
polynomial-data-complexity evaluator for collapsed queries.
"""

from __future__ import annotations

import functools
import time
from collections.abc import Sequence
from typing import Optional

from repro.automatic.relation import RelationAutomaton
from repro.database.instance import Database
from repro.engine.cache import BoundedCache, database_fingerprint, formula_key
from repro.engine.deadline import checkpoint
from repro.engine.metrics import METRICS
from repro.errors import EvaluationError
from repro.eval.domains import (
    extension_set_relation,
    length_bound_set_relation,
    length_le_plus_relation,
    near_prefix_relation,
)
from repro.eval.result import QueryResult
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
from repro.logic.terms import Var
from repro.logic.transform import flatten_terms
from repro.structures.base import StringStructure


class AutomataEngine:
    """Evaluate formulas over one structure and one database.

    Parameters
    ----------
    structure:
        One of the paper's structures (signature is enforced).
    database:
        The finite database instance; its alphabet must match.
    slack:
        Headroom for PREFIX/LENGTH-restricted quantifiers (the ``k`` of the
        paper's Lemmas 1-2).  Shared with the direct engine so both give
        identical semantics to restricted formulas.
    cache:
        Optional :class:`~repro.engine.cache.BoundedCache`.  When given,
        every subformula compilation is memoized under its structural key
        (database-independent for subformulas with no relation atoms and
        no restricted quantifiers), so repeated
        subformulas — across queries and across sessions of the same
        cache — are compiled once.
    observer:
        Optional trace observer (see :class:`repro.engine.explain.
        TraceObserver`): ``enter(f)`` / ``exit(f, relation, seconds,
        cached)`` around every subformula, for EXPLAIN output.
    """

    def __init__(
        self,
        structure: StringStructure,
        database: Database,
        slack: int = 0,
        cache: Optional[BoundedCache] = None,
        observer=None,
    ):
        if structure.alphabet != database.alphabet:
            raise EvaluationError("structure and database alphabets differ")
        self.structure = structure
        self.database = database
        self.slack = slack
        self.cache = cache
        self.observer = observer
        self._db_fingerprint: Optional[str] = None
        self._rel_cache: dict[str, RelationAutomaton] = {}
        self._atom_cache: dict[tuple, RelationAutomaton] = {}

    # ------------------------------------------------------------- public

    def run(self, formula: Formula, check_signature: bool = True) -> QueryResult:
        """Compile and return the output relation over sorted free variables."""
        if check_signature:
            self.structure.check_formula(formula)
        flat = flatten_terms(formula)
        free = tuple(sorted(formula.free_variables()))
        relation, variables = self._build(flat)
        relation, variables = self._align(relation, variables, free)
        return QueryResult(variables, relation)

    def decide(self, sentence: Formula, check_signature: bool = True) -> bool:
        """Truth value of a sentence."""
        result = self.run(sentence, check_signature)
        if result.variables:
            raise EvaluationError(f"not a sentence; free variables {result.variables}")
        return result.as_bool()

    # ------------------------------------------------------ recursion core

    def _build(self, f: Formula) -> tuple[RelationAutomaton, tuple[str, ...]]:
        """Cache/trace wrapper around :meth:`_compile` for one subformula."""
        checkpoint()  # cooperative deadline, once per subformula
        key = None
        if self.cache is not None:
            key = self._subformula_key(f)
            hit = self.cache.get(key)
            if hit is None and key[4] is not None:
                # Delta-store versions: a subformula automaton compiled
                # on an ancestor version stays valid when no delta in
                # between touched its relations (or, for restricted
                # quantifiers, the active domain) — the automata layer
                # survives data changes; only changed relations recompile.
                from repro.delta.maintenance import promote_result

                hit = promote_result(
                    self.cache, key, f, self.database,
                    metric="delta.automata_promotions",
                )
            if hit is not None:
                if self.observer is not None:
                    self.observer.enter(f)
                    self.observer.exit(f, hit[0], 0.0, cached=True)
                return hit
        if self.observer is not None:
            self.observer.enter(f)
            t0 = time.perf_counter()
            result = self._compile(f)
            self.observer.exit(f, result[0], time.perf_counter() - t0, cached=False)
        else:
            result = self._compile(f)
        if key is not None:
            self.cache.put(key, result)
        return result

    def _subformula_key(self, f: Formula) -> tuple:
        """Structural cache key; database-independent only when the
        subformula neither mentions a relation nor restricts a quantifier
        to the active domain (see :meth:`Formula.database_dependent`)."""
        if f.database_dependent():
            if self._db_fingerprint is None:
                self._db_fingerprint = database_fingerprint(self.database)
            fingerprint = self._db_fingerprint
        else:
            fingerprint = None
        return formula_key(
            f,
            self.structure.name,
            self.structure.alphabet.symbols,
            self.slack,
            fingerprint,
            stage="automata",
        )

    def _compile(self, f: Formula) -> tuple[RelationAutomaton, tuple[str, ...]]:
        """Return (relation, sorted variable order) for a flattened formula."""
        alphabet = self.structure.alphabet
        if isinstance(f, TrueF):
            return RelationAutomaton.true_relation(alphabet), ()
        if isinstance(f, FalseF):
            return RelationAutomaton.false_relation(alphabet), ()
        if isinstance(f, Atom):
            return self._atom(f)
        if isinstance(f, RelAtom):
            return self._rel_atom(f)
        if isinstance(f, Not):
            rel, variables = self._build(f.inner)
            return rel.complement(), variables
        if isinstance(f, (And, Or)):
            # N-ary conjunction/disjunction in one lazy kernel pipeline:
            # folding pairwise would materialize and minimize every
            # intermediate product; the kernel explores the reachable
            # n-ary product once and minimizes once.
            target = tuple(sorted(f.free_variables()))
            parts: list[RelationAutomaton] = []
            for part in f.parts:
                rel, variables = self._build(part)
                rel, _variables = self._align(rel, variables, target)
                parts.append(rel)
            assert parts
            if isinstance(f, And):
                return RelationAutomaton.intersect_all(parts), target
            return RelationAutomaton.union_all(parts), target
        if isinstance(f, Exists):
            return self._exists(f.var, f.body, f.kind)
        if isinstance(f, Forall):
            # forall x: phi == not exists x: not phi (domain-relative when
            # the kind is restricted).
            rel, variables = self._exists(f.var, Not(f.body), f.kind)
            return rel.complement(), variables
        raise EvaluationError(f"cannot evaluate formula node {f!r}")

    def _exists(
        self, var: str, body: Formula, kind: QuantKind
    ) -> tuple[RelationAutomaton, tuple[str, ...]]:
        rel, variables = self._build(body)
        if var not in variables:
            # Vacuous quantification. PREFIX/LENGTH domains always contain
            # epsilon, so exists x: phi == phi; the ADOM domain can be empty.
            if kind is QuantKind.ADOM and not self.database.adom:
                empty = RelationAutomaton.empty(self.structure.alphabet, len(variables))
                return empty, variables
            return rel, variables
        if kind is not QuantKind.NATURAL:
            context = tuple(v for v in variables if v != var)
            dom, dom_vars = self._domain_relation(var, context, kind)
            dom, dom_vars = self._align(dom, dom_vars, variables)
            rel = rel.intersection(dom)
        index = variables.index(var)
        projected = rel.project(index)
        return projected, tuple(v for v in variables if v != var)

    # ------------------------------------------------------------- domains

    def _domain_relation(
        self, var: str, context: Sequence[str], kind: QuantKind
    ) -> tuple[RelationAutomaton, tuple[str, ...]]:
        """Relation over (var, *context) constraining ``var`` to the domain.

        ADOM ignores the context; PREFIX and LENGTH relate ``var`` to both
        the active domain and the values of the context variables (the
        paper's ``adom(D)`` and the components of the free tuple).
        """
        alphabet = self.structure.alphabet
        adom = sorted(self.database.adom)
        if kind is QuantKind.ADOM:
            rel = RelationAutomaton.from_tuples(alphabet, 1, [(s,) for s in adom])
            return rel, (var,)
        if kind is QuantKind.PREFIX:
            base_set = extension_set_relation(alphabet, adom, self.slack)
            near = near_prefix_relation(alphabet, self.slack)
        elif kind is QuantKind.LENGTH:
            max_len = max((len(s) for s in adom), default=0)
            base_set = length_bound_set_relation(alphabet, max_len + self.slack)
            near = length_le_plus_relation(alphabet, self.slack)
        else:  # pragma: no cover - exhaustive
            raise EvaluationError(f"unexpected kind {kind}")
        # dom(x, y_1..y_m) = x in base_set  or  near(x, y_i) for some i.
        target = tuple(sorted((var, *context)))
        acc, acc_vars = self._align(base_set, (var,), target)
        for other in context:
            pair, pair_vars = self._align_binary(near, var, other)
            pair, pair_vars = self._align(pair, pair_vars, target)
            acc = acc.union(pair)
        return acc, target

    # ------------------------------------------------------------ alignment

    def _align(
        self,
        rel: RelationAutomaton,
        variables: tuple[str, ...],
        target: tuple[str, ...],
    ) -> tuple[RelationAutomaton, tuple[str, ...]]:
        """Cylindrify/reorder ``rel`` from ``variables`` onto ``target``.

        ``target`` must be sorted and contain all of ``variables``.
        """
        if variables == target:
            return rel, target
        assert set(variables) <= set(target), (variables, target)
        current = list(variables)
        for i, name in enumerate(target):
            if name not in current:
                rel = rel.cylindrify(i)
                current.insert(i, name)
        if tuple(current) != target:  # pragma: no cover - defensive
            perm = [current.index(name) for name in target]
            rel = rel.reorder(perm)
        return rel, target

    def _align_binary(
        self, rel: RelationAutomaton, first: str, second: str
    ) -> tuple[RelationAutomaton, tuple[str, ...]]:
        """Name a binary relation's tracks (first, second), sorted order."""
        if first < second:
            return rel, (first, second)
        return rel.reorder([1, 0]), (second, first)

    # --------------------------------------------------------------- atoms

    def _atom(self, atom: Atom) -> tuple[RelationAutomaton, tuple[str, ...]]:
        if not all(isinstance(t, Var) for t in atom.args):
            raise EvaluationError(
                "atoms must have plain variable arguments (run flatten_terms)"
            )
        key = (atom.pred, atom.param, tuple(t.name for t in atom.args))  # type: ignore[union-attr]
        cached = self._atom_cache.get(key)
        if cached is not None:
            return cached
        base = self.structure.atom_relation(atom)
        result = self._bind_tracks(base, atom.args)
        self._atom_cache[key] = result
        return result

    def _rel_atom(self, atom: RelAtom) -> tuple[RelationAutomaton, tuple[str, ...]]:
        if atom.name not in self._rel_cache:
            self._rel_cache[atom.name] = self.database.relation_automaton(atom.name)
        base = self._rel_cache[atom.name]
        if base.arity != len(atom.args):
            raise EvaluationError(
                f"relation {atom.name!r} has arity {base.arity}, used with {len(atom.args)}"
            )
        return self._bind_tracks(base, atom.args)

    def _bind_tracks(
        self, rel: RelationAutomaton, args: Sequence
    ) -> tuple[RelationAutomaton, tuple[str, ...]]:
        """Map argument variables onto tracks: merge repeats, sort tracks."""
        names = []
        for t in args:
            if not isinstance(t, Var):
                raise EvaluationError(
                    "atoms must have plain variable arguments (run flatten_terms)"
                )
            names.append(t.name)
        # Merge repeated variables: constrain equal, then drop the later track.
        while True:
            dup = None
            for j in range(len(names)):
                for i in range(j):
                    if names[i] == names[j]:
                        dup = (i, j)
                        break
                if dup:
                    break
            if not dup:
                break
            i, j = dup
            rel = rel.duplicate_constrain(i, j).project(j)
            del names[j]
        order = tuple(sorted(names))
        if tuple(names) != order:
            perm = _permutation(names, order)
            rel = rel.reorder(perm)
        return rel, order


def _permutation(current: list[str], target: tuple[str, ...]) -> list[int]:
    """Permutation p with target[i] = current[p[i]] (names are distinct)."""
    index = {name: i for i, name in enumerate(current)}
    return [index[name] for name in target]


def evaluate(
    formula: Formula,
    structure: StringStructure,
    database: Database,
    slack: int = 0,
) -> QueryResult:
    """One-shot convenience wrapper around :class:`AutomataEngine`."""
    return AutomataEngine(structure, database, slack=slack).run(formula)
