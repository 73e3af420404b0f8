"""Products and language equivalence of automata.

Every RC(S_reg) query bottoms out in chained product / minimize
pipelines over the flat-array automata of :mod:`repro.automata.dfa`.
This module composes them:

* :class:`ProductPipeline` builds an **n-ary product lazily**: only
  reachable product states are explored, components that can no longer
  contribute to acceptance prune the frontier, and
  :meth:`ProductPipeline.is_empty` / :meth:`ProductPipeline.contains`
  short-circuit without materializing any automaton at all;
* the ``*_minimized`` / ``*_within`` helpers are the fused shapes the
  automatic-relation layer and the MSO compiler run: one pipeline, one
  Hopcroft pass, no intermediate automata;
* :func:`equivalent` decides language equality by union-find
  Hopcroft–Karp merging, with no product at all.

Cooperative deadlines (:func:`repro.engine.deadline.checkpoint`) are
honored once per product state or merged pair.  Observability counters
live under ``kernel.*`` (see ``docs/explain_and_metrics.md``).
"""

from __future__ import annotations

from array import array
from collections import deque
from collections.abc import Sequence

from repro.automata.dfa import DFA, SymbolTable, _numpy, table_for
from repro.engine.deadline import checkpoint
from repro.engine.metrics import METRICS

# Largest product-state capacity the vectorized product will allocate an
# id table for (int32 entries; 1 << 22 is a 16 MiB table).  Bigger
# products fall back to the lazy per-state loop, which prunes anyway.
_NP_PRODUCT_CAPACITY = 1 << 22

__all__ = [
    "ProductPipeline",
    "SymbolTable",
    "complement_within",
    "equivalent",
    "intersect_all_minimized",
    "product",
    "product_minimized",
    "union_all_minimized",
    "union_all_within",
]


# -------------------------------------------------------------- lazy products


def _mode(mode, m: int):
    """Resolve a mode name/callable to (accept, required-alive indices)."""
    if callable(mode):
        return mode, frozenset()
    if mode == "and":
        return (lambda flags: all(flags)), frozenset(range(m))
    if mode == "or":
        return (lambda flags: any(flags)), frozenset()
    if mode == "diff":
        return (
            lambda flags: flags[0] and not any(flags[1:]),
            frozenset([0]),
        )
    if mode == "xor":
        return (lambda flags: sum(flags) % 2 == 1), frozenset()
    raise ValueError(f"unknown product mode {mode!r}")


def _reindex(dfa: DFA, table: SymbolTable) -> DFA:
    """The same automaton over a wider symbol table (its symbols dead).

    The union table keeps the ``repr`` order of the automaton's own
    symbols, so the state numbering stays canonical.
    """
    if table.symbols == dfa.table.symbols:
        return dfa
    old_k = len(dfa.table)
    new_k = len(table)
    mapping = [table.index(sym) for sym in dfa.table.symbols]
    flat = array("i", [-1]) * (dfa.n * new_k)
    delta = dfa.delta
    for q in range(dfa.n):
        old_base = q * old_k
        new_base = q * new_k
        for s in range(old_k):
            flat[new_base + mapping[s]] = delta[old_base + s]
    return DFA._make(table, bytearray(dfa.accepting), flat)


def _align(dfas: Sequence[DFA]) -> list[DFA]:
    """Put all automata on one shared symbol table (the sorted union)."""
    first = dfas[0].table.symbols
    if all(d.table.symbols == first for d in dfas):
        return list(dfas)
    union: set[object] = set()
    for d in dfas:
        union.update(d.table.symbols)
    table = table_for(union)
    return [_reindex(d, table) for d in dfas]


class ProductPipeline:
    """A lazily-composed n-ary product of automata.

    Nothing is built at construction time; :meth:`is_empty`,
    :meth:`contains` and :meth:`accepts` explore only as much of the
    product space as the answer needs, and :meth:`materialize` builds the
    reachable (pruned) product once, when a caller genuinely needs the
    automaton.  ``mode`` is ``"and"`` / ``"or"`` / ``"diff"`` /
    ``"xor"`` or an acceptance callable over the component flags; the
    named modes also prune states whose required components are dead.
    An acceptance callable must reject the all-dead flag vector (the
    product never materializes all-dead states).
    """

    __slots__ = ("dfas", "accept", "required", "mode_name")

    def __init__(self, dfas: Sequence[DFA], mode="and", required=None):
        if not dfas:
            raise ValueError("a product needs at least one automaton")
        self.dfas = _align(dfas)
        self.accept, mode_required = _mode(mode, len(self.dfas))
        self.mode_name = mode if isinstance(mode, str) else None
        self.required = (
            frozenset(required) if required is not None else mode_required
        )
        METRICS.inc("kernel.lazy_products")

    # --------------------------------------------------------------- helpers

    @property
    def table(self) -> SymbolTable:
        return self.dfas[0].table

    def _flags(self, state: tuple[int, ...]) -> list[bool]:
        return [
            q >= 0 and bool(d.accepting[q])
            for q, d in zip(state, self.dfas)
        ]

    def _explore(self):
        """BFS over reachable, non-pruned product states.

        Yields ``(state, accepting)`` in discovery order; the caller
        drives it only as far as the answer needs (emptiness stops at the
        first accepting state).
        """
        k = len(self.table)
        deltas = [d.delta for d in self.dfas]
        m = len(self.dfas)
        required = self.required
        accept = self.accept
        start = tuple(d.start for d in self.dfas)
        seen: set[tuple[int, ...]] = {start}
        queue = deque([start])
        yield start, accept(self._flags(start))
        while queue:
            checkpoint()
            state = queue.popleft()
            for s in range(k):
                alive = False
                target = []
                for i in range(m):
                    qi = state[i]
                    t = deltas[i][qi * k + s] if qi >= 0 else -1
                    target.append(t)
                    if t >= 0:
                        alive = True
                if not alive:
                    continue
                if any(target[i] < 0 for i in required):
                    continue  # acceptance is unreachable: prune lazily
                tup = tuple(target)
                if tup not in seen:
                    seen.add(tup)
                    queue.append(tup)
                    yield tup, accept(self._flags(tup))

    # ------------------------------------------------------------- decisions

    def is_empty(self) -> bool:
        """Emptiness of the product language, short-circuited.

        Stops at the first accepting product state — no automaton is
        materialized either way, and an early hit never explores the rest
        of the (possibly exponential) product space.
        """
        for _state, accepting in self._explore():
            if accepting:
                METRICS.inc("kernel.short_circuits")
                return False
        return True

    def contains(self, other: DFA) -> bool:
        """``L(other) ⊆ L(self-product)`` without materializing either side.

        Built as emptiness of ``other ∧ ¬product`` — one lazy pipeline
        over the components plus ``other``, no intermediate automata.
        """
        accept = self.accept
        inner = ProductPipeline(
            [other, *self.dfas],
            mode=lambda flags: flags[0] and not accept(list(flags[1:])),
            required=frozenset([0]),
        )
        return inner.is_empty()

    def accepts(self, word: Sequence[object]) -> bool:
        """Run all components in lockstep on one word."""
        index = self.table.index
        k = len(self.table)
        state = [d.start for d in self.dfas]
        deltas = [d.delta for d in self.dfas]
        for sym in word:
            s = index(sym)
            for i, qi in enumerate(state):
                if qi >= 0:
                    state[i] = deltas[i][qi * k + s] if s >= 0 else -1
            if all(q < 0 for q in state):
                return False
        return self.accept(self._flags(tuple(state)))

    # ---------------------------------------------------------- construction

    def materialize(self) -> DFA:
        """Build the reachable product as a DFA.

        With numpy present (and a named mode, and a product-state space
        small enough for an id table) the BFS runs level-synchronously
        over vectorized frontier arrays; states are numbered in
        first-discovery order either way, so both engines build the
        identical automaton.
        """
        if self.mode_name is not None and all(d.n > 0 for d in self.dfas):
            capacity = 1
            for d in self.dfas:
                capacity *= d.n + 1
                if capacity > _NP_PRODUCT_CAPACITY:
                    break
            if capacity <= _NP_PRODUCT_CAPACITY and _numpy() is not None:
                return self._materialize_np(capacity)
        return self._materialize_lazy()

    def _materialize_lazy(self) -> DFA:
        """The per-state fallback: one product state at a time."""
        k = len(self.table)
        deltas = [d.delta for d in self.dfas]
        m = len(self.dfas)
        required = self.required
        accept = self.accept
        start = tuple(d.start for d in self.dfas)
        seen: dict[tuple[int, ...], int] = {start: 0}
        rows: list[tuple[int, ...]] = [start]
        accepting = bytearray([1 if accept(self._flags(start)) else 0])
        flat = array("i")
        queue = deque([start])
        dead_row = array("i", [-1]) * k
        ticks = 0
        while queue:
            ticks += 1
            if not ticks & 63:
                checkpoint()
            state = queue.popleft()
            row = array("i", dead_row)
            for s in range(k):
                alive = False
                target = []
                for i in range(m):
                    qi = state[i]
                    t = deltas[i][qi * k + s] if qi >= 0 else -1
                    target.append(t)
                    if t >= 0:
                        alive = True
                if not alive:
                    continue
                if any(target[i] < 0 for i in required):
                    continue
                tup = tuple(target)
                sid = seen.get(tup)
                if sid is None:
                    sid = len(seen)
                    seen[tup] = sid
                    rows.append(tup)
                    queue.append(tup)
                    accepting.append(1 if accept(self._flags(tup)) else 0)
                row[s] = sid
            flat.extend(row)
        METRICS.inc("kernel.product_states", len(rows))
        return DFA._make(self.table, accepting, flat)

    def _materialize_np(self, capacity: int) -> DFA:
        """Vectorized BFS materialization over mixed-radix state codes.

        Component ``i``'s dead state is made explicit as ``n_i`` (so a
        code is ``(((q_0) * (n_1+1) + q_1) * ... )``); a per-level
        ``np.unique`` over the row-major edge scan discovers new codes in
        exactly the FIFO order of :meth:`_materialize_lazy`.
        """
        np = _numpy()
        k = len(self.table)
        m = len(self.dfas)
        sizes = [d.n + 1 for d in self.dfas]
        sinks = [d.n for d in self.dfas]
        deltas = []
        accs = []
        for d in self.dfas:
            dd = np.asarray(d.delta, dtype=np.int64).reshape(d.n, k)
            dd = np.where(dd < 0, d.n, dd)
            dd = np.concatenate(
                [dd, np.full((1, k), d.n, dtype=np.int64)], axis=0
            )
            deltas.append(dd)
            flags = np.zeros(d.n + 1, dtype=bool)
            flags[: d.n] = np.frombuffer(bytes(d.accepting), dtype=np.uint8)
            accs.append(flags)

        def decode(codes):
            comps = [None] * m
            rem = codes
            for i in range(m - 1, 0, -1):
                comps[i] = rem % sizes[i]
                rem = rem // sizes[i]
            comps[0] = rem
            return comps

        start_code = 0
        for i, d in enumerate(self.dfas):
            start_code = start_code * sizes[i] + d.start
        id_of = np.full(capacity, -1, dtype=np.int64)
        id_of[start_code] = 0
        codes_in_order = [np.array([start_code], dtype=np.int64)]
        frontier = codes_in_order[0]
        next_id = 1
        while frontier.size:
            checkpoint()
            comps = decode(frontier)
            targets = [deltas[i][comps[i]] for i in range(m)]  # (F, k) each
            dead = targets[0] == sinks[0]
            for i in range(1, m):
                dead &= targets[i] == sinks[i]
            keep = ~dead
            for i in self.required:
                keep &= targets[i] != sinks[i]
            codes_next = targets[0]
            for i in range(1, m):
                codes_next = codes_next * sizes[i] + targets[i]
            flat_targets = codes_next[keep]  # row-major = FIFO edge order
            uniq, first = np.unique(flat_targets, return_index=True)
            fresh = id_of[uniq] < 0
            new_codes = uniq[fresh]
            new_codes = new_codes[np.argsort(first[fresh], kind="stable")]
            id_of[new_codes] = np.arange(
                next_id, next_id + new_codes.size, dtype=np.int64
            )
            next_id += new_codes.size
            codes_in_order.append(new_codes)
            frontier = new_codes

        all_codes = np.concatenate(codes_in_order)
        comps = decode(all_codes)
        targets = [deltas[i][comps[i]] for i in range(m)]
        dead = targets[0] == sinks[0]
        for i in range(1, m):
            dead &= targets[i] == sinks[i]
        keep = ~dead
        for i in self.required:
            keep &= targets[i] != sinks[i]
        codes_next = targets[0]
        for i in range(1, m):
            codes_next = codes_next * sizes[i] + targets[i]
        flat = np.where(keep, id_of[codes_next], -1).astype(np.int32)

        flags = [accs[i][comps[i]] for i in range(m)]
        mode = self.mode_name
        if mode == "and":
            accepting = np.logical_and.reduce(flags)
        elif mode == "or":
            accepting = np.logical_or.reduce(flags)
        elif mode == "diff":
            rest = (
                np.logical_or.reduce(flags[1:])
                if m > 1
                else np.zeros_like(flags[0])
            )
            accepting = flags[0] & ~rest
        else:  # "xor" — _mode() already rejected other names
            accepting = np.logical_xor.reduce(flags)

        n_states = int(all_codes.size)
        METRICS.inc("kernel.product_states", n_states)
        out = array("i")
        if out.itemsize == 4:
            out.frombytes(flat.reshape(-1).tobytes())
        else:  # pragma: no cover - exotic int width
            out = array("i", flat.reshape(-1).tolist())
        return DFA._make(
            self.table, bytearray(accepting.astype(np.uint8).tobytes()), out
        )

    def minimized(self) -> DFA:
        """Materialize and minimize."""
        return self.materialize().minimize()


# --------------------------------------------------------------- equivalence


def equivalent(left: DFA, right: DFA) -> bool:
    """Hopcroft–Karp language equivalence: union-find, no product.

    Merges the two (implicitly completed) state spaces pair by pair from
    the starts; a merge joining an accepting and a rejecting class is a
    counterexample.  Runs in near-linear time in the number of reachable
    merged pairs, with no symmetric-difference product.
    """
    METRICS.inc("kernel.equivalence_checks")
    a, b = _align([left, right])
    k = len(a.table)
    na, nb = a.n, b.n
    # Combined numbering: a-states, a-sink, b-states, b-sink.
    a_sink = na
    offset = na + 1
    b_sink = offset + nb
    total = b_sink + 1
    acc = bytearray(total)
    for q in range(na):
        acc[q] = a.accepting[q]
    for q in range(nb):
        acc[offset + q] = b.accepting[q]

    parent = array("i", range(total))

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    da, db = a.delta, b.delta
    stack = [(a.start, offset + b.start)]
    parent[find(offset + b.start)] = find(a.start)
    steps = 0
    while stack:
        steps += 1
        if not steps % 64:
            checkpoint()
        p, q = stack.pop()
        if acc[p] != acc[q]:
            return False
        for s in range(k):
            if p == a_sink:
                tp = a_sink
            else:
                t = da[p * k + s]
                tp = t if t >= 0 else a_sink
            if q == b_sink:
                tq = b_sink
            else:
                t = db[(q - offset) * k + s]
                tq = offset + t if t >= 0 else b_sink
            rp, rq = find(tp), find(tq)
            if rp != rq:
                parent[rq] = rp
                stack.append((tp, tq))
    return True


# ------------------------------------------------------------ fused shapes


def product(left: DFA, right: DFA, mode="and") -> DFA:
    """The reachable (pruned) binary product."""
    return ProductPipeline([left, right], mode).materialize()


def product_minimized(left: DFA, right: DFA, mode="and") -> DFA:
    """The binary product, minimized."""
    return ProductPipeline([left, right], mode).minimized()


def intersect_all_minimized(dfas: Sequence[DFA]) -> DFA:
    """One n-ary lazy intersection + one minimization."""
    if len(dfas) == 1:
        return dfas[0].minimize()
    return ProductPipeline(dfas, "and").minimized()


def union_all_minimized(dfas: Sequence[DFA]) -> DFA:
    """One n-ary lazy union + one minimization."""
    if len(dfas) == 1:
        return dfas[0].minimize()
    return ProductPipeline(dfas, "or").minimized()


def union_all_within(dfas: Sequence[DFA], universe: DFA) -> DFA:
    """``(⋃ L(dfas)) ∩ L(universe)`` minimized.

    The MSO compiler's disjunction shape: one n-ary union pipeline, one
    filtering intersection, one Hopcroft pass.
    """
    merged = ProductPipeline(dfas, "or").materialize() if len(dfas) > 1 else dfas[0]
    return ProductPipeline([merged, universe], "and").minimized()


def complement_within(dfa: DFA, universe: DFA) -> DFA:
    """``universe \\ L(dfa)`` minimized: one lazy pipeline over
    (¬dfa, universe), one Hopcroft pass."""
    return ProductPipeline([dfa.complement(), universe], "and").minimized()
