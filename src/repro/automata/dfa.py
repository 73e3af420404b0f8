"""Deterministic finite automata over arbitrary hashable symbols.

A :class:`DFA` is stored as flat integer arrays: a :class:`SymbolTable`
interns the alphabet (sorted by ``repr``), ``delta[q * k + s]`` is the
successor of state ``q`` on symbol code ``s`` with ``-1`` as the implicit
dead state (transitions may be *partial*, which keeps convolution
automata over large column alphabets small), and ``accepting`` is a
``bytearray`` bitmap.

Every DFA is *canonical*: its states are exactly those reachable from the
start, numbered ``0..n-1`` in BFS order from the start (state ``0``)
with symbols visited in table order.  Two minimized DFAs over the same
alphabet therefore accept the same language iff their arrays are equal.
The constructor numbers automata given as dict tables; the operations
build their results directly through the private array-level
:meth:`DFA._make`.

Unary operations (complement, Hopcroft minimization, trimming, symbol
relabeling) and the language analyses live here; products and language
equivalence are in :mod:`repro.automata.kernel`, subset construction in
:meth:`repro.automata.nfa.NFA.determinize`.
"""

from __future__ import annotations

from array import array
from collections import deque
from collections.abc import Callable, Hashable, Iterable, Iterator, Sequence
from typing import Optional

from repro.engine.deadline import checkpoint
from repro.engine.metrics import METRICS

Symbol = Hashable
State = Hashable

# Below this many transitions the vectorized minimizer's setup overhead
# exceeds the win; tiny automata stay on the pure Hopcroft path.
_NP_MINIMIZE_FLOOR = 192

_NUMPY = ...  # the numpy module, or None where it is missing; ... until asked


def _numpy():
    """numpy, imported on first call, or ``None`` where it is missing.

    Only the two vectorized kernels use it (:meth:`DFA._nerode_blocks_np`
    and :meth:`repro.automata.kernel.ProductPipeline._materialize_np`),
    and only past their size checks, so a process that never builds a
    big automaton never pays numpy's import.
    """
    global _NUMPY
    if _NUMPY is ...:
        try:
            import numpy as _NUMPY
        except ImportError:  # pragma: no cover - numpy is in the dev extra
            _NUMPY = None
    return _NUMPY


class SymbolTable:
    """Interning table mapping alphabet symbols to contiguous ints.

    Symbols keep their insertion order; automata build their tables in
    ``sorted(alphabet, key=repr)`` order, which fixes the BFS state
    numbering.  Tables compare compatible by their symbol tuple, not
    identity: two automata built independently over the same alphabet
    combine without re-interning.
    """

    __slots__ = ("_index", "_symbols")

    def __init__(self, symbols: Iterable[object] = ()):
        self._index: dict[object, int] = {}
        self._symbols: list[object] = []
        for sym in symbols:
            self.intern(sym)

    def intern(self, symbol: object) -> int:
        """Return the symbol's code, assigning the next int if new."""
        idx = self._index.get(symbol)
        if idx is None:
            idx = len(self._symbols)
            self._index[symbol] = idx
            self._symbols.append(symbol)
            METRICS.inc("kernel.interned_symbols")
        return idx

    def index(self, symbol: object) -> int:
        """The symbol's code, or ``-1`` when it was never interned."""
        return self._index.get(symbol, -1)

    @property
    def symbols(self) -> tuple[object, ...]:
        return tuple(self._symbols)

    def __len__(self) -> int:
        return len(self._symbols)

    def __contains__(self, symbol: object) -> bool:
        return symbol in self._index

    def __repr__(self) -> str:
        return f"SymbolTable({len(self._symbols)} symbols)"


def table_for(alphabet: Iterable[object]) -> SymbolTable:
    """The canonical table for an alphabet: symbols sorted by ``repr``."""
    return SymbolTable(sorted(alphabet, key=repr))


def _bfs_number(
    start: object,
    is_accepting: Callable[[object], bool],
    successors: Callable[[object], Sequence[object]],
    dead: object = None,
) -> tuple[bytearray, array]:
    """Acceptance bitmap and flat delta of the part reachable from ``start``.

    States are numbered in BFS order from ``start`` (which gets ``0``);
    ``successors(state)`` lists a state's targets in table order, with
    ``dead`` for a missing transition.
    """
    order = {start: 0}
    rows = [start]
    accepting = bytearray()
    flat = array("i")
    for state in rows:  # grows while we walk it: a FIFO queue
        accepting.append(1 if is_accepting(state) else 0)
        for t in successors(state):
            if t == dead:
                flat.append(-1)
                continue
            tid = order.get(t)
            if tid is None:
                tid = order[t] = len(rows)
                rows.append(t)
            flat.append(tid)
    return accepting, flat


class DFA:
    """An immutable deterministic finite automaton.

    Parameters
    ----------
    alphabet:
        Iterable of symbols; the automaton's language is over exactly these.
    states:
        Iterable of states (hashables).
    start:
        The initial state (must be in ``states``).
    accepting:
        Iterable of accepting states.
    transitions:
        Mapping ``state -> {symbol -> state}``; may be partial.

    The states are renumbered (see the module docstring), so
    :attr:`num_states` counts only the states reachable from ``start``.
    """

    __slots__ = ("table", "n", "start", "accepting", "delta", "_finite_cache")

    def __init__(
        self,
        alphabet: Iterable[Symbol],
        states: Iterable[State],
        start: State,
        accepting: Iterable[State],
        transitions: dict[State, dict[Symbol, State]],
    ):
        states = frozenset(states)
        accepting = frozenset(accepting)
        if start not in states:
            raise ValueError(f"start state {start!r} not among states")
        if not accepting <= states:
            raise ValueError("accepting states must be a subset of states")
        table = table_for(alphabet)
        syms = table.symbols
        dead_row = [None] * len(syms)

        def successors(q):
            row = transitions.get(q)
            return [row.get(s) for s in syms] if row else dead_row

        self._init(table, *_bfs_number(start, accepting.__contains__, successors))

    def _init(self, table: SymbolTable, accepting: bytearray, delta: array) -> None:
        self.table = table
        self.n = len(accepting)
        self.start = 0
        self.accepting = accepting
        self.delta = delta
        self._finite_cache: Optional[bool] = None
        METRICS.inc("kernel.dense_dfas")
        METRICS.inc("kernel.dense_states", self.n)

    @classmethod
    def _make(cls, table: SymbolTable, accepting: bytearray, delta: array) -> "DFA":
        """A DFA straight from its arrays, which must already be canonical."""
        dfa = cls.__new__(cls)
        dfa._init(table, accepting, delta)
        return dfa

    @classmethod
    def _empty(cls, table: SymbolTable) -> "DFA":
        """The canonical empty-language DFA: one rejecting state."""
        return cls._make(table, bytearray(1), array("i", [-1]) * len(table))

    # ------------------------------------------------------------------ core

    @property
    def alphabet(self) -> tuple[Symbol, ...]:
        """The symbols, in table order."""
        return self.table.symbols

    @property
    def num_states(self) -> int:
        return self.n

    def is_accepting(self, state: int) -> bool:
        return self.accepting[state] == 1

    def accepting_states(self) -> list[int]:
        return [q for q, a in enumerate(self.accepting) if a]

    def edges(self) -> Iterator[tuple[int, Symbol, int]]:
        """Every transition ``(state, symbol, target)``, in state order."""
        syms = self.table.symbols
        k = len(syms)
        for i, t in enumerate(self.delta):
            if t >= 0:
                q, s = divmod(i, k)
                yield q, syms[s], t

    def accepts(self, word: Sequence[Symbol]) -> bool:
        """Run the automaton on ``word`` (any sequence of symbols)."""
        index = self.table._index
        delta = self.delta
        k = len(index)
        q = self.start
        try:
            for sym in word:
                q = delta[q * k + index[sym]]
                if q < 0:
                    return False
        except KeyError:  # a symbol outside the alphabet
            return False
        return self.accepting[q] == 1

    def __repr__(self) -> str:
        return (
            f"DFA(states={self.n}, alphabet={len(self.table)}, "
            f"accepting={sum(self.accepting)})"
        )

    # ------------------------------------------------------- transformations

    def _row(self, q: int) -> array:
        k = len(self.table)
        return self.delta[q * k : (q + 1) * k]

    def complement(self) -> "DFA":
        """DFA for ``Sigma* \\ L`` (over this automaton's alphabet).

        The dead state becomes an explicit accepting sink when some
        transition is missing.
        """
        if -1 not in self.delta:
            flipped = bytearray(1 - a for a in self.accepting)
            return DFA._make(self.table, flipped, array("i", self.delta))
        sink = self.n
        sink_row = [sink] * len(self.table)
        accepting = self.accepting

        def successors(q):
            if q == sink:
                return sink_row
            return [t if t >= 0 else sink for t in self._row(q)]

        return DFA._make(
            self.table,
            *_bfs_number(
                self.start, lambda q: q == sink or not accepting[q], successors
            ),
        )

    def _useful(self) -> bytearray:
        """Bitmap of the states that can reach acceptance."""
        k = len(self.table)
        preds: list[list[int]] = [[] for _ in range(self.n)]
        for i, t in enumerate(self.delta):
            if t >= 0:
                preds[t].append(i // k)
        useful = bytearray(self.accepting)
        stack = [q for q in range(self.n) if useful[q]]
        while stack:
            for p in preds[stack.pop()]:
                if not useful[p]:
                    useful[p] = 1
                    stack.append(p)
        return useful

    def trim(self) -> "DFA":
        """Keep only states that are both reachable and co-reachable.

        The resulting (possibly partial) DFA accepts the same language; its
        transition graph contains a cycle iff the language is infinite.
        """
        useful = self._useful()
        if not useful[self.start]:
            return DFA._empty(self.table)
        return DFA._make(
            self.table,
            *_bfs_number(
                self.start,
                self.is_accepting,
                lambda q: [t if t >= 0 and useful[t] else -1 for t in self._row(q)],
                dead=-1,
            ),
        )

    def _acyclic_order(self, useful: bytearray) -> Optional[list[int]]:
        """Topological order of the useful states, ``None`` on a cycle.

        In-degrees count *transitions* (multi-edges included), matching
        the per-transition decrements below.
        """
        k = len(self.table)
        indeg = [0] * self.n
        for i, t in enumerate(self.delta):
            if t >= 0 and useful[t] and useful[i // k]:
                indeg[t] += 1
        order = [q for q in range(self.n) if useful[q] and not indeg[q]]
        for q in order:  # grows while we walk it
            for t in self._row(q):
                if t >= 0 and useful[t]:
                    indeg[t] -= 1
                    if not indeg[t]:
                        order.append(t)
        return order if len(order) == sum(useful) else None

    def minimize(self) -> "DFA":
        """Minimal DFA: Hopcroft over preimage buckets.

        Dead states (empty futures) are removed — they all land in the
        sink's block — and the surviving blocks are numbered canonically.
        With numpy present, the Myhill-Nerode partition of larger
        automata is computed by vectorized signature refinement instead
        (same blocks, same output).
        """
        METRICS.inc("kernel.minimizations")
        if self.n * len(self.table) >= _NP_MINIMIZE_FLOOR and _numpy() is not None:
            block_of = self._nerode_blocks_np()
        else:
            block_of = self._nerode_blocks_hopcroft()
        return self._from_blocks(block_of)

    def _nerode_blocks_hopcroft(self) -> Sequence[int]:
        """Myhill-Nerode partition via Hopcroft over preimage buckets.

        Returns ``block_of`` over ``n + 1`` states — the virtual completed
        sink is index ``n``, and its block is exactly the dead states.
        """
        n = self.n
        k = len(self.table)
        delta = self.delta
        sink = n  # virtual completed sink
        total = n + 1

        # Preimage buckets: inv[s * total + t] = sources stepping to t on s.
        inv: list[list[int]] = [[] for _ in range(k * total)]
        for q in range(n):
            base = q * k
            for s in range(k):
                t = delta[base + s]
                inv[s * total + (t if t >= 0 else sink)].append(q)
        for s in range(k):
            inv[s * total + sink].append(sink)

        acc_block = {q for q in range(n) if self.accepting[q]}
        rej_block = {q for q in range(n) if not self.accepting[q]}
        rej_block.add(sink)
        blocks: list[set[int]] = []
        block_of = array("i", [0]) * total
        for block in (acc_block, rej_block):
            if block:
                index = len(blocks)
                blocks.append(block)
                for q in block:
                    block_of[q] = index
        # Seeding only the smaller half suffices (Hopcroft's invariant);
        # splits below push the new block, which is always the smaller.
        seed = 0
        if len(blocks) == 2 and len(blocks[1]) < len(blocks[0]):
            seed = 1
        worklist: deque[tuple[int, int]] = deque((seed, s) for s in range(k))
        ticks = 0
        while worklist:
            ticks += 1
            if not ticks & 63:
                checkpoint()
            splitter_index, s = worklist.popleft()
            preds: set[int] = set()
            base_inv = s * total
            for target in blocks[splitter_index]:
                preds.update(inv[base_inv + target])
            if not preds:
                continue
            touched: dict[int, list[int]] = {}
            for q in preds:
                touched.setdefault(block_of[q], []).append(q)
            for b_index, inside_list in touched.items():
                block = blocks[b_index]
                if len(inside_list) == len(block):
                    continue
                inside = set(inside_list)
                outside = block - inside
                if len(inside) <= len(outside):
                    small, large = inside, outside
                else:
                    small, large = outside, inside
                blocks[b_index] = large
                new_index = len(blocks)
                blocks.append(small)
                for q in small:
                    block_of[q] = new_index
                for sym in range(k):
                    worklist.append((new_index, sym))
        return block_of

    def _nerode_blocks_np(self) -> Sequence[int]:
        """Myhill-Nerode partition via vectorized signature refinement.

        Each round relabels every state by ``(block, block-of-successor
        per symbol)`` with one ``np.unique`` per symbol; refinement only
        ever splits, so an unchanged block count is the fixpoint.  Same
        partition as :meth:`_nerode_blocks_hopcroft`, different engine.
        """
        np = _numpy()
        n = self.n
        k = len(self.table)
        sink = n
        total = n + 1
        delta = np.asarray(self.delta, dtype=np.int64).reshape(n, k)
        delta = np.where(delta < 0, sink, delta)
        delta = np.concatenate(
            [delta, np.full((1, k), sink, dtype=np.int64)], axis=0
        )
        acc = np.zeros(total, dtype=np.int64)
        acc[:n] = np.frombuffer(bytes(self.accepting), dtype=np.uint8)
        block = acc
        count = len(np.unique(block))
        while True:
            checkpoint()
            cur = block
            for s in range(k):
                pair = cur * total + block[delta[:, s]]
                uniq, cur = np.unique(pair, return_inverse=True)
            new_count = len(uniq) if k else count
            if new_count == count:
                return block.tolist()
            block = cur
            count = new_count

    def _from_blocks(self, block_of: Sequence[int]) -> "DFA":
        """The canonical DFA of a Nerode partition over states + sink.

        Drops the sink's block (the dead states) and numbers the rest in
        BFS order from the start's block.
        """
        dead = block_of[self.n]
        if block_of[self.start] == dead:
            return DFA._empty(self.table)
        reps: dict[int, int] = {}  # first-seen representative per block
        for q in range(self.n):
            reps.setdefault(block_of[q], q)
        accepting = self.accepting
        return DFA._make(
            self.table,
            *_bfs_number(
                block_of[self.start],
                lambda b: accepting[reps[b]],
                lambda b: [
                    block_of[t] if t >= 0 else dead for t in self._row(reps[b])
                ],
                dead=dead,
            ),
        )

    def map_symbols(self, mapping: Callable[[Symbol], Symbol]) -> "DFA":
        """Relabel symbols through ``mapping`` (must be injective on alphabet)."""
        renamed = [mapping(s) for s in self.table.symbols]
        if len(set(renamed)) != len(renamed):
            raise ValueError("symbol mapping must be injective")
        table = table_for(renamed)
        source = [0] * len(renamed)  # new code -> old code
        for old, sym in enumerate(renamed):
            source[table.index(sym)] = old

        def successors(q):
            row = self._row(q)
            return [row[s] for s in source]

        return DFA._make(
            table,
            *_bfs_number(self.start, self.is_accepting, successors, dead=-1),
        )

    # --------------------------------------------------------- language info

    def is_empty(self) -> bool:
        """True iff the accepted language is empty."""
        accepting = self.accepting
        if accepting[self.start]:
            return False
        # Every state is reachable from the start.
        return not any(accepting)

    def is_finite_language(self) -> bool:
        """True iff the accepted language is finite.

        Finite iff the useful states (reachable and co-reachable) span an
        acyclic transition graph.
        """
        if self._finite_cache is None:
            self._finite_cache = self._acyclic_order(self._useful()) is not None
        return self._finite_cache

    def count_words(self) -> int:
        """Number of accepted words; raises ``ValueError`` if infinite."""
        useful = self._useful()
        order = self._acyclic_order(useful)
        if order is None:
            raise ValueError("language is infinite")
        paths = [0] * self.n
        paths[self.start] = 1
        for q in order:
            for t in self._row(q):
                if t >= 0 and useful[t]:
                    paths[t] += paths[q]
        return sum(paths[q] for q in range(self.n) if self.accepting[q])

    def count_words_of_length(self, n: int) -> int:
        """Number of accepted words of length exactly ``n``."""
        counts = {self.start: 1}
        for _ in range(n):
            nxt: dict[int, int] = {}
            for q, c in counts.items():
                for t in self._row(q):
                    if t >= 0:
                        nxt[t] = nxt.get(t, 0) + c
            counts = nxt
        return sum(c for q, c in counts.items() if self.accepting[q])

    def iter_words(self, max_length: Optional[int] = None) -> Iterator[tuple[Symbol, ...]]:
        """Enumerate accepted words, shortest first.

        If ``max_length`` is ``None`` the language must be finite (the
        trimmed automaton bounds word lengths by its state count).
        """
        useful = self._useful()
        if max_length is None:
            if self._acyclic_order(useful) is None:
                raise ValueError("language is infinite; pass max_length")
            max_length = sum(useful) or 1  # longest simple path bound
        if not useful[self.start]:
            return
        syms = self.table.symbols
        k = len(syms)
        delta = self.delta
        accepting = self.accepting
        frontier: list[tuple[int, tuple[Symbol, ...]]] = [(self.start, ())]
        for length in range(max_length + 1):
            for q, word in frontier:
                if accepting[q]:
                    yield word
            if length == max_length:
                break
            nxt = []
            for q, word in frontier:
                base = q * k
                for s in range(k):
                    t = delta[base + s]
                    if t >= 0 and useful[t]:
                        nxt.append((t, word + (syms[s],)))
            frontier = nxt

    def iter_strings(self, max_length: Optional[int] = None) -> Iterator[str]:
        """Like :meth:`iter_words` but joins character symbols into strings."""
        for word in self.iter_words(max_length):
            yield "".join(word)

    def shortest_word(self) -> Optional[tuple[Symbol, ...]]:
        """A shortest accepted word, or ``None`` if the language is empty."""
        for word in self.iter_words(max_length=self.num_states + 1):
            return word
        return None

    def language_up_to(self, n: int) -> set[str]:
        """All accepted strings of length at most ``n`` (character alphabets)."""
        return set(self.iter_strings(max_length=n))
