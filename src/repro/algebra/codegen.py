"""The algebra engine's executor: fuse optimized plans into Python closures.

Every RA(M) plan the algebra engine runs is walked once and *emitted as
Python source* for a single fused pipeline — there is no operator-at-a-
time interpreter to fall back to:

* scan -> select -> project chains collapse into one loop body, with
  every structure predicate over column variables, template slots and
  literals inlined as a plain expression (``matches``/``psuffix`` against
  the DFA of their pattern, looked up once per run); only a quantified
  condition (or, in a hand-built plan, one applying a term function to
  a column) goes through a pre-built checker — its automaton, closed
  over by the function and bound to the run's values once, in the
  prologue;
* the column-appending string operators fuse into the same loop body;
  ``prefix_i`` and ``down_i`` (Section 6.2's exponential operator, over
  ``alphabet.strings_up_to``) open a nested loop per row;
* ``Join``/semi-join hash tables are built once per run, outside the
  probe loop, with the build side chosen by cardinality at run time;
* ``Union``/``Difference`` become frozenset ``|``/``-`` on
  already-projected streams;
* a RANF pair (:mod:`repro.algebra.ranf`) compiles into one closure: the
  ``inf`` half runs first and a nonempty answer returns ``None`` (the
  caller defers to the exact engine); the ``fin`` half then reuses every
  relation the ``inf`` half already built.

Each stage's row count is handed back to the caller for EXPLAIN.

This closure is the only evaluator of RA(M) plans and of their selection
conditions: the engine runs a query's plans through :func:`get_pipeline`,
and a dialect runs a hand-built or compiled plan through
:func:`plan_pipeline`.

The emitted source is ``compile()``/``exec``-ed into a closure and cached
in the registered :class:`~repro.engine.cache.BoundedCache`
``codegen.cache``, keyed by *(structure, alphabet, slack, schema,
canonical fingerprint)*.  Generated code is data-independent —
the closure ``_pipeline(_db, _params, _stages)`` takes the database
and the values of a query template's slots at call time (a ``Param(i)``
operand is ``_params[i]``; a concrete query passes ``()``) — so row-only
deltas and new constants reuse closures and only schema changes
recompile; answer freshness is the whole-result cache's job
(:func:`repro.engine.explain.execute_plan`, stage ``result:algebra``,
keyed by database and concrete-query fingerprint, promoted along delta
chains).

This is the only module in the repository allowed to call
``compile``/``exec`` (enforced by ``tools/lint_confine.py``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Optional

from repro.algebra.optimize import _is_semi_join, compile_for_execution, plans_key
from repro.algebra.plan import (
    AddFirstOp,
    AddLastOp,
    BaseRel,
    Difference,
    DownOp,
    EpsilonRel,
    Join,
    ParamRel,
    Plan,
    PrefixOp,
    Product,
    Project,
    Select,
    TrimFirstOp,
    Union,
    _APPENDERS,
    _get_checker,
)
from repro.database.schema import Schema
from repro.engine.cache import DEFAULT_MAXSIZE, BoundedCache, registered
from repro.engine.deadline import checkpoint
from repro.engine.metrics import METRICS
from repro.logic.canonical import canonical_fingerprint
from repro.logic.formulas import And, Atom, FalseF, Formula, Not, Or, TrueF
from repro.logic.terms import Param, Var
from repro.strings import ops as strops
from repro.structures.base import StringStructure

_CHECKPOINT_MASK = 255


@dataclass
class GeneratedPipeline:
    """A compiled plan: generated source + the executable closure.

    ``stages`` describe the materialized relations in execution order;
    the first ``inf_stages`` belong to a RANF pair's ``inf`` half (0
    without one).  ``joins`` is the number of hash and semi-join stages."""

    source: str
    fn: Callable
    columns: tuple[str, ...]
    stages: tuple[dict, ...]
    line_count: int
    fingerprint: str
    inf_stages: int = 0
    branch: str = "collapsed"
    joins: int = 0

    def run(
        self, database, params=()
    ) -> tuple[Optional[frozenset], list[int]]:
        """Execute against ``database`` with ``params`` bound to the
        template's slots; returns (rows, per-stage row counts).  Rows are
        ``None`` when the ``inf`` half found the answer may be infinite."""
        stages: list[frozenset] = []
        rows = self.fn(database, params, stages)
        if self.joins:
            METRICS.inc("algebra.joins", self.joins)
        return rows, [len(stage) for stage in stages]


class _Emitter:
    """Walks a plan and accumulates the fused pipeline's source lines.

    ``emit`` returns the local-variable name holding a node's materialized
    frozenset; structurally equal subtrees share one variable (plan nodes
    are frozen dataclasses, so the memo gives CSE for free).  ``prologue``
    holds the lines that run once per call before any stage: the pattern
    DFA lookups and the checker bindings.
    """

    def __init__(self, structure: StringStructure):
        self.structure = structure
        self.prologue: list[str] = []
        self.lines: list[str] = []
        self.env: dict = {
            "_alphabet": structure.alphabet,
            "_checkpoint": checkpoint,
            "_EPS_REL": frozenset({("",)}),
            "_extends_by_one": strops.extends_by_one,
            "_lcp": strops.lcp,
            "_lex_le": strops.lex_le,
            "_lex_lt": strops.lex_lt,
            "_over_alphabet": structure.alphabet.check_string,
            "_pattern_dfa": structure.pattern_dfa,
            "_strings_up_to": structure.alphabet.strings_up_to,
            "_trim_first": strops.trim_first,
        }
        self.stages: list[dict] = []
        self._memo: dict[Plan, str] = {}
        self._checker_names: dict[str, str] = {}
        self._pattern_names: dict[str, str] = {}
        self._n = 0

    # -- bookkeeping -------------------------------------------------------

    def fresh(self, prefix: str = "_v") -> str:
        self._n += 1
        return f"{prefix}{self._n}"

    def w(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def _tickline(self, depth: int) -> None:
        self.w(depth, "_tick += 1")
        self.w(depth, f"if not _tick & {_CHECKPOINT_MASK}: _checkpoint()")

    def _stage(self, var: str, label: str, kind: str) -> None:
        self.w(1, f"_stages.append({var})")
        self.stages.append({"label": label, "kind": kind})

    def _checker(self, condition: Formula) -> str:
        """The local naming a quantified condition's automaton test, bound
        to the run's values once per run, not per row."""
        key = str(condition)
        name = self._checker_names.get(key)
        if name is None:
            name = f"_chk{len(self._checker_names)}"
            self._checker_names[key] = name
            self.env[f"{name}_of"] = _get_checker(condition, self.structure)
            self.prologue.append(f"    {name} = {name}_of.bind(_params)")
        return name

    def _pattern(self, param) -> str:
        """The local naming the DFA of a pattern (a slot's or a literal
        regex), looked up once per run."""
        source = _param_expr(param)
        name = self._pattern_names.get(source)
        if name is None:
            name = f"_pat{len(self._pattern_names)}"
            self._pattern_names[source] = name
            self.prologue.append(f"    {name} = _pattern_dfa({source})")
        return name

    @staticmethod
    def _key_expr(row: str, indices: list[int]) -> str:
        items = ", ".join(f"{row}[{i}]" for i in indices)
        if len(indices) == 1:
            items += ","
        return f"({items})"

    # -- predicate inlining ------------------------------------------------

    def _operand(self, term, row: str) -> Optional[str]:
        if isinstance(term, Var):
            name = term.name
            if name.startswith("c") and name[1:].isdigit():
                return f"{row}[{int(name[1:])}]"
            return None
        if isinstance(term, Param):
            return _slot(term)
        if not term.variables():
            try:  # a literal of a hand-built plan, spelt out or not
                return repr(term.evaluate({}))
            except KeyError:  # a slot inside a term function
                return None
        return None

    def _scalar_pred(self, cond: Formula, row: str) -> Optional[str]:
        """Inline a condition as a plain expression, or None for one the
        checker's automaton decides: a quantified one, or (only in a
        hand-built plan) one applying a term function to a column."""
        if isinstance(cond, TrueF):
            return "True"
        if isinstance(cond, FalseF):
            return "False"
        if isinstance(cond, Not):
            inner = self._scalar_pred(cond.inner, row)
            return None if inner is None else f"(not {inner})"
        if isinstance(cond, (And, Or)):
            glue = " and " if isinstance(cond, And) else " or "
            parts = [self._scalar_pred(p, row) for p in cond.parts]
            if any(p is None for p in parts):
                return None
            return "(" + glue.join(parts) + ")"
        if isinstance(cond, Atom):
            arity, template = _PREDICATES.get(cond.pred, (None, ""))
            args = [self._operand(t, row) for t in cond.args]
            if len(args) != arity or any(a is None for a in args):
                return None
            dfa = self._pattern(cond.param) if "{dfa}" in template else ""
            return template.format(*args, p=_param_expr(cond.param), dfa=dfa)
        return None

    # -- node emission -----------------------------------------------------

    def emit(self, node: Plan) -> str:
        var = self._memo.get(node)
        if var is not None:
            return var
        if isinstance(node, (Select, Project) + _APPENDERS):
            var = self._emit_fused(node)
        elif isinstance(node, BaseRel):
            var = self.fresh()
            self.w(1, f"{var} = _db.relation({node.name!r})")
            self._stage(var, f"scan {node.name}", "Scan")
        elif isinstance(node, EpsilonRel):
            var = self.fresh()
            self.w(1, f"{var} = _EPS_REL")
            self._stage(var, "R_eps", "Scan")
        elif isinstance(node, ParamRel):
            var = self.fresh()
            value = f"_over_alphabet(_params[{node.index}])"
            self.w(1, f"{var} = frozenset({{({value},)}})")
            self._stage(var, str(node), "Scan")
        elif isinstance(node, Join):
            var = self._emit_join(node, [])
        elif isinstance(node, Product):
            var = self._emit_product(node, [])
        elif isinstance(node, Union):
            left, right = self.emit(node.left), self.emit(node.right)
            var = self.fresh()
            self.w(1, f"{var} = {left} | {right}")
            self._stage(var, "union", "Union")
        elif isinstance(node, Difference):
            left, right = self.emit(node.left), self.emit(node.right)
            var = self.fresh()
            self.w(1, f"{var} = {left} - {right}")
            self._stage(var, "difference", "AntiJoin")
        else:
            raise TypeError(f"no emitter for {type(node).__name__} nodes")
        self._memo[node] = var
        return var

    def _emit_fused(self, top: Plan) -> str:
        """Peel a Select/Project chain off ``top`` and fuse it into the
        producer's loop (join probe, semi-join probe, cross, or scan)."""
        ops: list[tuple] = []
        cur = top
        while isinstance(cur, (Select, Project) + _APPENDERS) and not _is_semi_join(cur):
            if isinstance(cur, Select):
                ops.append(("select", cur.condition))
            elif isinstance(cur, Project):
                ops.append(("project", cur.indices))
            elif isinstance(cur, PrefixOp):
                ops.append(("prefix", cur.index))
            elif isinstance(cur, DownOp):
                ops.append(("down", cur.index))
            elif isinstance(cur, AddLastOp):
                self.structure.alphabet.check_string(cur.symbol)
                ops.append(("addlast", (cur.index, cur.symbol)))
            elif isinstance(cur, AddFirstOp):
                self.structure.alphabet.check_string(cur.symbol)
                ops.append(("addfirst", (cur.index, cur.symbol)))
            elif isinstance(cur, TrimFirstOp):
                ops.append(("trimfirst", (cur.index, cur.symbol)))
            else:
                self.structure.alphabet.check_string(cur.symbol)
                ops.append(("insertat", (cur.index, cur.prefix_index, cur.symbol)))
            cur = cur.child
        ops.reverse()
        if _is_semi_join(cur):
            return self._emit_semi_join(cur, ops)
        if isinstance(cur, Join):
            return self._emit_join(cur, ops)
        if isinstance(cur, Product):
            return self._emit_product(cur, ops)
        src = self.emit(cur)
        out = self.fresh("_s")
        var = self.fresh("_v")
        self.w(1, f"{out} = set()")
        self.w(1, f"{out}_add = {out}.add")
        self.w(1, f"for _r in {src}:")
        self._tickline(2)
        depth, row = self._emit_ops(2, "_r", ops)
        self.w(depth, f"{out}_add({row})")
        self.w(1, f"{var} = frozenset({out})")
        self._stage(var, f"fused[{len(ops)} ops] over {self._src_label(cur)}", "FusedScan")
        return var

    @staticmethod
    def _src_label(node: Plan) -> str:
        if isinstance(node, BaseRel):
            return f"scan {node.name}"
        if isinstance(node, EpsilonRel):
            return "R_eps"
        if isinstance(node, ParamRel):
            return str(node)
        return type(node).__name__.lower()

    def _emit_ops(
        self, depth: int, row: str, ops: list[tuple]
    ) -> tuple[int, str]:
        """Apply fused ops inside a loop body; returns the (possibly
        deeper) indent and the expression naming the current row.  The
        depth grows only on ``prefix`` and ``down`` ops, whose one-to-many
        expansion opens a nested loop; selects are ``continue`` guards,
        everything else rebinds the row variable."""
        for kind, payload in ops:
            if kind == "select":
                pred = self._scalar_pred(payload, row)
                if pred is None:
                    pred = f"{self._checker(payload)}({row})"
                self.w(depth, f"if not {pred}: continue")
                continue
            new = self.fresh("_p")
            if kind == "project":
                items = ", ".join(f"{row}[{i}]" for i in payload)
                if len(payload) == 1:
                    items += ","
                self.w(depth, f"{new} = ({items})")
            elif kind == "prefix":
                i = payload
                ix = self.fresh("_i")
                self.w(depth, f"for {ix} in range(len({row}[{i}]) + 1):")
                depth += 1
                self.w(depth, f"{new} = {row} + ({row}[{i}][:{ix}],)")
            elif kind == "down":
                ix = self.fresh("_d")
                self.w(depth, f"for {ix} in _strings_up_to(len({row}[{payload}])):")
                depth += 1
                self._tickline(depth)
                self.w(depth, f"{new} = {row} + ({ix},)")
            elif kind == "addlast":
                i, sym = payload
                self.w(depth, f"{new} = {row} + ({row}[{i}] + {sym!r},)")
            elif kind == "addfirst":
                i, sym = payload
                self.w(depth, f"{new} = {row} + ({sym!r} + {row}[{i}],)")
            elif kind == "trimfirst":
                i, sym = payload
                s = f"{row}[{i}]"
                self.w(
                    depth,
                    f"{new} = {row} + "
                    f"(({s}[1:] if {s}.startswith({sym!r}) and {s} else ''),)",
                )
            else:  # insertat
                i, j, sym = payload
                s, p = f"{row}[{i}]", f"{row}[{j}]"
                self.w(
                    depth,
                    f"{new} = {row} + "
                    f"(({p} + {sym!r} + {s}[len({p}):] "
                    f"if {s}.startswith({p}) else ''),)",
                )
            row = new
        return depth, row

    # -- joins -------------------------------------------------------------

    def _emit_join(self, node: Join, ops: list[tuple]) -> str:
        left = self.emit(node.left)
        right = self.emit(node.right)
        fused = list(ops)
        if node.residual is not None:
            fused = [("select", node.residual)] + fused
        lkey = [i for i, _ in node.pairs]
        rkey = [j for _, j in node.pairs]
        out = self.fresh("_s")
        var = self.fresh("_v")
        tbl = self.fresh("_t")
        self.w(1, f"{out} = set()")
        self.w(1, f"{out}_add = {out}.add")
        # Build on the smaller side, decided per run: generated code is
        # data-independent, cardinalities are not.
        self.w(1, f"if len({right}) <= len({left}):")
        self._emit_hash_side(2, out, tbl, right, left, rkey, lkey, "_p + _b", fused)
        self.w(1, "else:")
        self._emit_hash_side(2, out, tbl, left, right, lkey, rkey, "_b + _p", fused)
        self.w(1, f"{var} = frozenset({out})")
        label = f"hashjoin on {node.pairs}"
        if fused:
            label += f" +{len(fused)} fused ops"
        self._stage(var, label, "HashJoin")
        return var

    def _emit_hash_side(
        self,
        d: int,
        out: str,
        tbl: str,
        build: str,
        probe: str,
        bkey: list[int],
        pkey: list[int],
        row_expr: str,
        ops: list[tuple],
    ) -> None:
        self.w(d, f"{tbl} = {{}}")
        self.w(d, f"{tbl}_set = {tbl}.setdefault")
        self.w(d, f"for _b in {build}:")
        self._tickline(d + 1)
        self.w(d + 1, f"{tbl}_set({self._key_expr('_b', bkey)}, []).append(_b)")
        self.w(d, f"{tbl}_get = {tbl}.get")
        self.w(d, f"for _p in {probe}:")
        self._tickline(d + 1)
        self.w(d + 1, f"_m = {tbl}_get({self._key_expr('_p', pkey)})")
        self.w(d + 1, "if _m is None: continue")
        self.w(d + 1, "for _b in _m:")
        self.w(d + 2, f"_row = {row_expr}")
        depth, row = self._emit_ops(d + 2, "_row", ops)
        self.w(depth, f"{out}_add({row})")

    def _emit_semi_join(self, proj: Project, ops: list[tuple]) -> str:
        join = proj.child
        left = self.emit(join.left)
        right = self.emit(join.right)
        pkey = [i for i, _ in join.pairs]
        bkey = [j for _, j in join.pairs]
        keys = self.fresh("_k")
        out = self.fresh("_s")
        var = self.fresh("_v")
        self.w(1, f"{keys} = set()")
        self.w(1, f"{keys}_add = {keys}.add")
        self.w(1, f"for _b in {right}:")
        self._tickline(2)
        self.w(2, f"{keys}_add({self._key_expr('_b', bkey)})")
        self.w(1, f"{out} = set()")
        self.w(1, f"{out}_add = {out}.add")
        self.w(1, f"for _p in {left}:")
        self._tickline(2)
        self.w(2, f"if {self._key_expr('_p', pkey)} not in {keys}: continue")
        items = ", ".join(f"_p[{i}]" for i in proj.indices)
        if len(proj.indices) == 1:
            items += ","
        self.w(2, f"_row = ({items})")
        depth, row = self._emit_ops(2, "_row", ops)
        self.w(depth, f"{out}_add({row})")
        self.w(1, f"{var} = frozenset({out})")
        self._stage(var, f"semijoin on {join.pairs}", "SemiJoin")
        return var

    def _emit_product(self, node: Product, ops: list[tuple]) -> str:
        left = self.emit(node.left)
        right = self.emit(node.right)
        out = self.fresh("_s")
        var = self.fresh("_v")
        self.w(1, f"{out} = set()")
        self.w(1, f"{out}_add = {out}.add")
        self.w(1, f"for _p in {left}:")
        self.w(2, f"for _b in {right}:")
        self._tickline(3)
        self.w(3, "_row = _p + _b")
        depth, row = self._emit_ops(3, "_row", ops)
        self.w(depth, f"{out}_add({row})")
        self.w(1, f"{var} = frozenset({out})")
        kind = "FilteredCross" if any(k == "select" for k, _ in ops) else "Product"
        self._stage(var, "cross", kind)
        return var


def _slot(slot: Param) -> str:
    """Source reading a template slot's value."""
    return f"_params[{slot.index}]"


def _param_expr(param) -> str:
    """Source of a predicate's parameter: a slot or a plain string."""
    return _slot(param) if isinstance(param, Param) else repr(param or "")


#: Source templates of every predicate of ``StringStructure._eval_pred``,
#: with the argument count each takes: ``{0}``, ``{1}``, ``{2}`` are the
#: argument expressions, ``{p}`` the parameter (``last``'s symbol, the
#: ``graph_*`` constant) and ``{dfa}`` the local holding the DFA of a
#: ``matches``/``psuffix`` pattern.
_PREDICATES = {
    "eq": (2, "({0} == {1})"),
    "prefix": (2, "{1}.startswith({0})"),
    "sprefix": (2, "(len({0}) < len({1}) and {1}.startswith({0}))"),
    "ext1": (2, "_extends_by_one({0}, {1})"),
    "last": (1, "({0}.endswith({p}) and {0} != '')"),
    "el": (2, "(len({0}) == len({1}))"),
    "len_le": (2, "(len({0}) <= len({1}))"),
    "len_lt": (2, "(len({0}) < len({1}))"),
    "lex_le": (2, "_lex_le({0}, {1}, _alphabet)"),
    "lex_lt": (2, "_lex_lt({0}, {1}, _alphabet)"),
    "matches": (1, "{dfa}.accepts({0})"),
    "psuffix": (2, "({1}.startswith({0}) and {dfa}.accepts({1}[len({0}):]))"),
    "graph_add_last": (2, "({1} == {0} + {p})"),
    "graph_add_first": (2, "({1} == {p} + {0})"),
    "graph_trim_first": (2, "({1} == _trim_first({0}, {p}))"),
    "graph_insert_at": (
        3, "(({2} == {1} + {p} + {0}[len({1}):]) if {0}.startswith({1})"
        " else ({2} == ''))",
    ),
    "graph_lcp": (3, "({2} == _lcp({0}, {1}))"),
    "graph_const": (1, "({0} == {p})"),
}


# ---------------------------------------------------------------------------
# Source assembly + the closure cache
# ---------------------------------------------------------------------------


def build_pipeline(
    plan: Plan,
    columns: tuple[str, ...],
    structure: StringStructure,
    fingerprint: str,
    inf: Optional[Plan] = None,
    branch: str = "collapsed",
) -> GeneratedPipeline:
    """Emit, compile, and exec the fused pipeline for ``plan``, preceded
    by the infinity check ``inf`` (a nullary plan) when given."""
    emitter = _Emitter(structure)
    inf_stages = 0
    if inf is not None:
        check = emitter.emit(inf)
        emitter.w(1, f"if {check}: return None")
        inf_stages = len(emitter.stages)
    final = emitter.emit(plan)
    header = [
        f"# codegen pipeline {fingerprint[:12]} ({structure.name})",
        "def _pipeline(_db, _params, _stages):",
        "    _tick = 0",
    ]
    body = emitter.prologue + emitter.lines
    source = "\n".join(header + body + [f"    return {final}", ""])
    code = compile(source, f"<codegen:{fingerprint[:12]}>", "exec")
    namespace = dict(emitter.env)
    exec(code, namespace)
    METRICS.inc("codegen.compiles")
    return GeneratedPipeline(
        source=source,
        fn=namespace["_pipeline"],
        columns=columns,
        stages=tuple(emitter.stages),
        line_count=source.count("\n"),
        fingerprint=fingerprint,
        inf_stages=inf_stages,
        branch=branch,
        joins=sum(1 for s in emitter.stages if s["kind"] in ("HashJoin", "SemiJoin")),
    )


#: Compiled closures.
_PIPELINES = registered("codegen.cache", DEFAULT_MAXSIZE)


def closure_cache() -> BoundedCache:
    return _PIPELINES


def pipeline_key(
    formula: Formula, structure: StringStructure, schema: Schema, slack: int
) -> tuple:
    """Closure-cache key: the key of the plans it compiles, tagged.

    Generated source is data-independent, so there is no database
    fingerprint here: the schema stands in for the plan epoch (row-only
    deltas keep the schema, hence reuse the closure; schema-extending
    deltas recompile).  Result freshness is keyed separately, by the
    ``result:algebra`` entries of the whole-result cache.
    """
    return ("codegen-closure",) + plans_key(formula, structure, schema, slack)


def get_pipeline(
    formula: Formula,
    structure: StringStructure,
    schema: Schema,
    slack: int = 0,
) -> tuple[GeneratedPipeline, str]:
    """Fetch or compile the fused pipeline for ``formula``.

    Returns ``(pipeline, "hit"|"compiled")``; raises
    :class:`~repro.algebra.ranf.RanfError` (a :class:`~repro.algebra.
    compile.CompileError`) when the RANF translation bails (the planner's
    eligibility gate keeps such queries off the algebra engine).
    """
    key = pipeline_key(formula, structure, schema, slack)
    cached = _PIPELINES.get(key)
    if cached is not None:
        return cached, "hit"
    plans = compile_for_execution(formula, structure, schema, slack=slack)
    pipeline = build_pipeline(
        plans.fin, plans.compiled.columns, structure,
        canonical_fingerprint(formula), inf=plans.inf, branch=plans.branch,
    )
    _PIPELINES.put(key, pipeline)
    return pipeline, "compiled"


def plan_pipeline(plan: Plan, structure: StringStructure) -> GeneratedPipeline:
    """Fetch or compile the closure of one RA(M) plan — hand-built or
    compiled, and validated by its dialect — whose output columns are
    ``c0, c1, ...``.  Cached in ``codegen.cache`` under (structure name,
    alphabet, plan): plan nodes are frozen dataclasses, so equal plans
    share one closure."""
    key = (structure.name, structure.alphabet.symbols, plan)
    return _PIPELINES.get_or_build(key, lambda: build_pipeline(
        plan, tuple(f"c{i}" for i in range(plan.arity)), structure,
        hashlib.sha1(str(plan).encode()).hexdigest(),
    ))


def pipeline_probe(
    formula: Formula, structure: StringStructure, schema: Schema, slack: int = 0
) -> Callable[[], bool]:
    """A probe returning True once a compiled closure is cached (no stats
    impact: the planner peeks warmth without claiming a hit; the plan
    cache asks again on every lookup, so the key is computed once)."""
    key = pipeline_key(formula, structure, schema, slack)
    return lambda: _PIPELINES.peek(key) is not None


def has_pipeline(
    formula: Formula, structure: StringStructure, schema: Schema, slack: int = 0
) -> bool:
    """True when a compiled closure is already cached."""
    return pipeline_probe(formula, structure, schema, slack)()


def prewarm(
    formula: Formula, structure: StringStructure, schema: Schema, slack: int = 0
) -> bool:
    """Best-effort closure compilation for prepared queries.

    Called by the service on a prepared-query plan-cache miss so that the
    *first* auto plan already prices the algebra engine warm — this is
    what amortizes ``CODEGEN_SETUP_COST`` for repeated queries.  The
    closure is compiled for the template the planner will decide on
    (:func:`~repro.engine.planner.planning_form`).
    """
    from repro.engine.planner import algebra_eligible, planning_form

    try:
        formula, _ = planning_form(formula)
        if not algebra_eligible(formula, structure):
            return False
        get_pipeline(formula, structure, schema, slack)
    except Exception:
        return False
    METRICS.inc("codegen.prewarms")
    return True
