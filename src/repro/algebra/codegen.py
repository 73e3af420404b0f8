"""Compiled-plan codegen: fuse optimized algebra plans into Python closures.

The interpreted executor (:mod:`repro.algebra.exec`) pays per-tuple
dispatch at every operator boundary: each ``Select`` call re-enters
``_ConditionChecker.check``, each ``Join`` rebuilds key lambdas, each
``Project`` materializes an intermediate frozenset.  This module walks the
same ``optimize_for_execution`` plan once and *emits Python source* for a
single fused pipeline:

* scan -> select -> project chains collapse into one loop body, with
  cheap predicates (``eq``/``last``/``prefix``/``sprefix`` over column
  variables and template slots, ``matches``/``psuffix`` against the DFA
  of a slot's pattern, looked up once per run) inlined as plain
  expressions — the planner hands codegen templates only, so a literal
  is always a slot (:mod:`repro.logic.literals`) — and everything
  else routed through a pre-built checker closed over by the function;
* ``Join``/semi-join hash tables are built once per run, outside the
  probe loop, with the build side chosen by cardinality at run time;
* ``Union``/``Difference`` become frozenset ``|``/``-`` on
  already-projected streams;
* an optional numpy columnar path handles wide ``BaseRel`` scans whose
  fused ops are all vectorizable (bit-identical to the pure loop, which
  stays in the generated source as the runtime fallback branch).

The emitted source is ``compile()``/``exec``-ed into a closure and cached
in an LRU (:class:`~repro.engine.cache.AutomatonCache` discipline,
``codegen.cache.*`` counters) keyed by *(structure, alphabet, slack,
schema, canonical fingerprint)*.  Generated code is data-independent —
the closure ``_pipeline(_db, _params, _stage_rows)`` takes the database
and the values of a query template's slots at call time (a ``Param(i)``
operand is ``_params[i]``; a concrete query passes ``()``) — so row-only
deltas and new constants reuse closures and only schema changes
recompile; answer freshness is the algebra backend's job (its
``algebra-result`` whole-result cache keyed by database and
concrete-query fingerprint, promoted along delta chains).  The backend
runs a plan through this module when the planner chose its *fused*
strategy (:class:`repro.engine.backend.AlgebraBackend`).

This is the only module in the repository allowed to call
``compile``/``exec`` (enforced by ``tools/lint_confine.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

try:  # numpy is optional; the generated source keeps a pure branch.
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

from repro.algebra.exec import _is_semi_join, compile_for_execution
from repro.algebra.plan import (
    AddFirstOp,
    AddLastOp,
    BaseRel,
    Difference,
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
    _get_checker,
)
from repro.database.schema import Schema
from repro.engine.cache import AutomatonCache, DEFAULT_MAXSIZE
from repro.engine.deadline import checkpoint
from repro.engine.metrics import METRICS
from repro.logic.canonical import canonical_fingerprint, canonicalize
from repro.logic.formulas import And, Atom, FalseF, Formula, Not, Or, TrueF
from repro.logic.terms import Param, Var
from repro.structures.base import StringStructure

#: Minimum source rows before the columnar branch engages.  Must stay >= 1:
#: the pure branch handles the empty relation, whose ``np.array`` would be
#: 1-D and break fancy indexing.
_NP_MIN_ROWS = 64

#: Column-appending ops that fuse into the row loop like selects and
#: projections do.  ``PrefixOp`` is the only one-to-many among them (one
#: row expands to ``|s|+1``); the rest are per-row transforms.
_APPENDERS = (PrefixOp, AddLastOp, AddFirstOp, TrimFirstOp, InsertAtOp)

#: Plan nodes the emitter knows how to fuse.  ``DownOp`` deliberately
#: stays interpreted: its expansion is exponential in string length
#: (Section 6.2's "very expensive ... unavoidable" operator), so the
#: structured fallback to the interpreted executor is the honest path.
_SUPPORTED = (
    BaseRel, EpsilonRel, ParamRel, Select, Project, Product, Join, Union,
    Difference,
) + _APPENDERS

_CHECKPOINT_MASK = 255


class UnsupportedPlan(Exception):
    """Raised by the emitter on a plan shape it cannot fuse."""


@dataclass(frozen=True)
class _Rejected:
    """Negative closure-cache entry: this shape is known not to compile."""

    reason: str


@dataclass
class GeneratedPipeline:
    """A compiled plan: generated source + the executable closure."""

    source: str
    fn: Callable
    columns: tuple[str, ...]
    stages: tuple[dict, ...]
    line_count: int
    np_stages: int
    fingerprint: str

    def run(self, database, params=()) -> tuple[frozenset, list[int]]:
        """Execute against ``database`` with ``params`` bound to the
        template's slots; returns (rows, per-stage row counts)."""
        stage_rows: list[int] = []
        rows = self.fn(database, params, stage_rows)
        return rows, stage_rows


def plan_supported(plan: Plan) -> tuple[bool, str]:
    """Shape gate: every node in the plan must be fuseable."""
    for node in plan.walk():
        if not isinstance(node, _SUPPORTED):
            return (
                False,
                f"plan contains {type(node).__name__}, which codegen does not fuse",
            )
    return True, "fuseable plan shape"


class _Emitter:
    """Walks a plan and accumulates the fused pipeline's source lines.

    ``emit`` returns the local-variable name holding a node's materialized
    frozenset; structurally equal subtrees share one variable (plan nodes
    are frozen dataclasses, so the memo gives CSE for free).  ``prologue``
    holds the lines that run once per call before any stage: the pattern
    DFA lookups.
    """

    def __init__(self, structure: StringStructure):
        self.structure = structure
        self.prologue: list[str] = []
        self.lines: list[str] = []
        self.env: dict = {
            "_checkpoint": checkpoint,
            "_np": _np,
            "_EPS_REL": frozenset({("",)}),
            "_over_alphabet": structure.alphabet.check_string,
            "_pattern_dfa": structure.pattern_dfa,
        }
        self.stages: list[dict] = []
        self._memo: dict[Plan, str] = {}
        self._checker_names: dict[str, str] = {}
        self._pattern_names: dict[int, str] = {}
        self._n = 0
        # Inlining predicates is only sound when the structure evaluates
        # them with the stock semantics the emitter mirrors.
        self._inline_ok = (
            type(structure)._eval_pred is StringStructure._eval_pred
        )

    # -- bookkeeping -------------------------------------------------------

    def fresh(self, prefix: str = "_v") -> str:
        self._n += 1
        return f"{prefix}{self._n}"

    def w(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def _tickline(self, depth: int) -> None:
        self.w(depth, "_tick += 1")
        self.w(depth, f"if not _tick & {_CHECKPOINT_MASK}: _checkpoint()")

    def _stage(self, var: str, label: str, kind: str, numpy: bool = False) -> None:
        self.w(1, f"_stage_rows.append(len({var}))")
        self.stages.append({"label": label, "kind": kind, "numpy": numpy})

    def _checker(self, condition: Formula) -> str:
        key = str(condition)
        name = self._checker_names.get(key)
        if name is None:
            name = f"_chk{len(self._checker_names)}"
            self._checker_names[key] = name
            self.env[name] = _get_checker(condition, self.structure).check
        return name

    def _pattern(self, slot: Param) -> str:
        """The local naming the DFA of the pattern in ``slot``, looked up
        once per run."""
        name = self._pattern_names.get(slot.index)
        if name is None:
            name = f"_pat{len(self._pattern_names)}"
            self._pattern_names[slot.index] = name
            self.prologue.append(f"    {name} = _pattern_dfa({_slot(slot)})")
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
        return None

    def _scalar_pred(self, cond: Formula, row: str) -> Optional[str]:
        """Inline a condition as a plain expression, or None for the checker."""
        if not self._inline_ok:
            return None
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
            args = [self._operand(t, row) for t in cond.args]
            if any(a is None for a in args):
                return None
            if cond.pred == "eq" and len(args) == 2:
                return f"({args[0]} == {args[1]})"
            if cond.pred == "last" and len(args) == 1:
                param = cond.param or ""
                return f"({args[0]}.endswith({param!r}) and {args[0]} != '')"
            if cond.pred == "prefix" and len(args) == 2:
                return f"{args[1]}.startswith({args[0]})"
            if cond.pred == "sprefix" and len(args) == 2:
                return (
                    f"(len({args[0]}) < len({args[1]})"
                    f" and {args[1]}.startswith({args[0]}))"
                )
            if not isinstance(cond.param, Param):
                return None
            if cond.pred == "matches" and len(args) == 1:
                return f"{self._pattern(cond.param)}.accepts({args[0]})"
            if cond.pred == "psuffix" and len(args) == 2:
                return (
                    f"({args[1]}.startswith({args[0]}) and "
                    f"{self._pattern(cond.param)}.accepts("
                    f"{args[1]}[len({args[0]}):]))"
                )
            return None
        return None

    def _vector_pred(self, cond: Formula, arr: str) -> Optional[str]:
        """Columnar form of a condition over ``arr`` (2-D object array)."""
        if not self._inline_ok:
            return None
        if isinstance(cond, Not):
            inner = self._vector_pred(cond.inner, arr)
            return None if inner is None else f"(~{inner})"
        if isinstance(cond, (And, Or)):
            glue = " & " if isinstance(cond, And) else " | "
            parts = [self._vector_pred(p, arr) for p in cond.parts]
            if any(p is None for p in parts):
                return None
            return "(" + glue.join(parts) + ")"
        if isinstance(cond, Atom) and cond.pred == "eq" and len(cond.args) == 2:
            cols = []
            for term in cond.args:
                if isinstance(term, Var):
                    name = term.name
                    if not (name.startswith("c") and name[1:].isdigit()):
                        return None
                    cols.append(f"{arr}[:, {int(name[1:])}]")
                elif isinstance(term, Param):
                    cols.append(_slot(term))
                else:
                    return None
            if all(isinstance(t, Param) for t in cond.args):
                return None  # slot == slot: no column involved
            return f"({cols[0]} == {cols[1]})"
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
            raise UnsupportedPlan(
                f"codegen does not fuse {type(node).__name__} nodes"
            )
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
        if isinstance(cur, BaseRel) and self._np_able(cur, ops):
            return self._emit_np_scan(cur, ops)
        src = self.emit(cur)
        var = self.fresh("_v")
        self._emit_loop_into(var, src, ops)
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
        depth grows only on ``prefix`` ops, whose one-to-many expansion
        opens a nested loop; selects are ``continue`` guards, everything
        else rebinds the row variable."""
        for kind, payload in ops:
            if kind == "select":
                pred = self._scalar_pred(payload, row)
                if pred is None:
                    pred = f"{self._checker(payload)}({row}, _params)"
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

    def _emit_loop_into(
        self, var: str, src: str, ops: list[tuple], base_depth: int = 1
    ) -> None:
        d = base_depth
        out = self.fresh("_s")
        self.w(d, f"{out} = set()")
        self.w(d, f"{out}_add = {out}.add")
        self.w(d, f"for _r in {src}:")
        self._tickline(d + 1)
        depth, row = self._emit_ops(d + 1, "_r", ops)
        self.w(depth, f"{out}_add({row})")
        self.w(d, f"{var} = frozenset({out})")

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

    # -- numpy columnar scan ----------------------------------------------

    def _np_able(self, base: BaseRel, ops: list[tuple]) -> bool:
        """Wide scan whose fused ops are all vectorizable: any number of
        columnar selects, then at most one trailing projection."""
        if _np is None or base.arity < 2:
            return False
        selects = 0
        seen_project = False
        for kind, payload in ops:
            if seen_project:
                return False
            if kind == "project":
                seen_project = True
            elif kind != "select" or self._vector_pred(payload, "_a") is None:
                return False
            else:
                selects += 1
        return selects > 0

    def _emit_np_scan(self, base: BaseRel, ops: list[tuple]) -> str:
        src = self.emit(base)
        arr = self.fresh("_a")
        keep = self.fresh("_f")
        var = self.fresh("_v")
        preds = [
            self._vector_pred(cond, arr)
            for kind, cond in ops
            if kind == "select"
        ]
        proj = next((idx for kind, idx in ops if kind == "project"), None)
        self.w(1, f"if _np is not None and len({src}) >= {int(_NP_MIN_ROWS)}:")
        self.w(2, f"{arr} = _np.array(list({src}), dtype=object)")
        self.w(2, f"{keep} = {arr}[{' & '.join(preds)}]")
        if proj is not None:
            cols = "[" + ", ".join(str(i) for i in proj) + "]"
            self.w(2, f"{var} = frozenset(map(tuple, {keep}[:, {cols}]))")
        else:
            self.w(2, f"{var} = frozenset(map(tuple, {keep}))")
        self.w(1, "else:")
        self._emit_loop_into(var, src, ops, base_depth=2)
        self._stage(var, f"columnar fused[{len(ops)} ops] over scan {base.name}",
                    "FusedScan", numpy=True)
        return var


def _slot(slot: Param) -> str:
    """Source reading a template slot's value."""
    return f"_params[{slot.index}]"


# ---------------------------------------------------------------------------
# Source assembly + the closure cache
# ---------------------------------------------------------------------------


def build_pipeline(
    plan: Plan,
    columns: tuple[str, ...],
    structure: StringStructure,
    fingerprint: str,
) -> GeneratedPipeline:
    """Emit, compile, and exec the fused pipeline for ``plan``.

    Raises :class:`UnsupportedPlan` when the plan shape cannot be fused.
    """
    emitter = _Emitter(structure)
    final = emitter.emit(plan)
    header = [
        f"# codegen pipeline {fingerprint[:12]} ({structure.name})",
        "def _pipeline(_db, _params, _stage_rows):",
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
        np_stages=sum(1 for s in emitter.stages if s["numpy"]),
        fingerprint=fingerprint,
    )


#: Compiled-closure cache.  Same LRU discipline as the automaton cache
#: (bounded, hits/misses/evictions), surfaced in QueryService.stats().
_CLOSURES = AutomatonCache(maxsize=DEFAULT_MAXSIZE, metrics_prefix="codegen.cache")


def closure_cache() -> AutomatonCache:
    return _CLOSURES


def pipeline_key(
    formula: Formula, structure: StringStructure, schema: Schema, slack: int
) -> tuple:
    """Closure-cache key.

    Generated source is data-independent, so there is no database
    fingerprint here: the schema stands in for the plan epoch (row-only
    deltas keep the schema, hence reuse the closure; schema-extending
    deltas recompile).  Result freshness is keyed separately by the
    algebra backend's ``algebra-result`` cache entries.
    """
    return (
        "codegen-closure",
        structure.name,
        structure.alphabet.symbols,
        slack,
        schema,
        canonical_fingerprint(formula),
    )


def get_pipeline(
    formula: Formula,
    structure: StringStructure,
    schema: Schema,
    slack: int = 0,
) -> tuple[Optional[GeneratedPipeline], str]:
    """Fetch or compile the fused pipeline for ``formula``.

    Returns ``(pipeline, "hit"|"compiled")`` on success or
    ``(None, reason)`` when the shape is not fuseable — negative results
    are cached too, so repeated probes of an unsupported shape stay cheap.
    """
    key = pipeline_key(formula, structure, schema, slack)
    cached = _CLOSURES.get(key)
    if isinstance(cached, GeneratedPipeline):
        return cached, "hit"
    if isinstance(cached, _Rejected):
        return None, cached.reason
    try:
        compiled, optimized = compile_for_execution(
            formula, structure, schema, slack=slack
        )
    except Exception as exc:
        reason = f"algebra compile failed: {exc}"
        _CLOSURES.put(key, _Rejected(reason))
        return None, reason
    ok, why = plan_supported(optimized)
    if not ok:
        _CLOSURES.put(key, _Rejected(why))
        return None, why
    try:
        pipeline = build_pipeline(
            optimized, compiled.columns, structure, canonical_fingerprint(formula)
        )
    except UnsupportedPlan as exc:
        _CLOSURES.put(key, _Rejected(str(exc)))
        return None, str(exc)
    _CLOSURES.put(key, pipeline)
    return pipeline, "compiled"


def has_pipeline(
    formula: Formula, structure: StringStructure, schema: Schema, slack: int = 0
) -> bool:
    """True when a compiled closure is already cached (no stats impact:
    the planner peeks warmth without claiming a hit)."""
    return isinstance(
        _CLOSURES.peek(pipeline_key(formula, structure, schema, slack)),
        GeneratedPipeline,
    )


def shape_supported(
    formula: Formula, structure: StringStructure, schema: Schema
) -> tuple[bool, str]:
    """Eligibility probe at the planner's auto slack (0): is the optimized
    plan for ``formula`` fuseable?  Peeks the closure cache first."""
    cached = _CLOSURES.peek(pipeline_key(formula, structure, schema, 0))
    if isinstance(cached, GeneratedPipeline):
        return True, "compiled pipeline cached"
    if isinstance(cached, _Rejected):
        return False, cached.reason
    try:
        _, optimized = compile_for_execution(formula, structure, schema, slack=0)
    except Exception as exc:
        return False, f"algebra compile failed: {exc}"
    return plan_supported(optimized)


def prewarm(
    formula: Formula, structure: StringStructure, schema: Schema, slack: int = 0
) -> bool:
    """Best-effort closure compilation for prepared queries.

    Called by the service on a prepared-query plan-cache miss so that the
    *first* auto plan already prices the algebra engine's fused strategy
    warm — this is what amortizes ``CODEGEN_SETUP_COST`` for repeated
    queries.
    """
    from repro.engine.planner import algebra_eligible

    try:
        formula = canonicalize(formula)
        if not algebra_eligible(formula, structure):
            return False
        pipeline, _ = get_pipeline(formula, structure, schema, slack)
    except Exception:
        return False
    if pipeline is None:
        return False
    METRICS.inc("codegen.prewarms")
    return True
