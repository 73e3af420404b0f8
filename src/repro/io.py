"""Serialization and visualization helpers.

* JSON round-trips for databases (the CLI's on-disk format);
* Graphviz DOT export for DFAs and relation automata (development aid:
  ``dot -Tpng out.dot`` renders the machine).
"""

from __future__ import annotations

import json
from typing import Union

from repro.automata.dfa import DFA
from repro.automatic.convolution import PAD
from repro.automatic.relation import RelationAutomaton
from repro.database.instance import Database
from repro.strings.alphabet import Alphabet


def database_to_json(db: Database) -> str:
    """Serialize a database to the CLI's JSON format (stable ordering)."""
    spec = {
        "alphabet": "".join(db.alphabet.symbols),
        "relations": {
            name: sorted([list(row) for row in db.relation(name)])
            for name in db.relation_names
        },
    }
    return json.dumps(spec, indent=2, sort_keys=True)


def database_from_json(text: str) -> Database:
    """Parse the CLI's JSON database format."""
    spec = json.loads(text)
    alphabet = Alphabet(spec.get("alphabet", "01"))
    relations = {
        name: [tuple(row) for row in rows]
        for name, rows in spec.get("relations", {}).items()
    }
    return Database(alphabet, relations)


def _symbol_label(symbol: object) -> str:
    if isinstance(symbol, tuple):  # convolution column
        return "(" + ",".join("#" if x is PAD else str(x) for x in symbol) + ")"
    return str(symbol)


def dfa_to_dot(dfa: DFA, name: str = "dfa") -> str:
    """Graphviz DOT text for a DFA (parallel edges merged per state pair)."""
    lines = [f"digraph {name} {{", "  rankdir=LR;", '  __start [shape=point];']
    for q in range(dfa.num_states):
        shape = "doublecircle" if dfa.is_accepting(q) else "circle"
        lines.append(f'  q{q} [shape={shape}, label="{q}"];')
    lines.append(f"  __start -> q{dfa.start};")
    merged: dict[tuple, list[str]] = {}
    for q, symbol, target in dfa.edges():
        merged.setdefault((q, target), []).append(_symbol_label(symbol))
    for (q, target), labels in sorted(merged.items()):
        label = ", ".join(sorted(labels))
        if len(label) > 40:
            label = label[:37] + "..."
        lines.append(f'  q{q} -> q{target} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)


def relation_to_dot(relation: RelationAutomaton, name: str = "relation") -> str:
    """DOT text for a relation automaton's convolution DFA."""
    return dfa_to_dot(relation.dfa, name)


def to_dot(obj: Union[DFA, RelationAutomaton], name: str = "machine") -> str:
    """Polymorphic DOT export."""
    if isinstance(obj, RelationAutomaton):
        return relation_to_dot(obj, name)
    return dfa_to_dot(obj, name)
