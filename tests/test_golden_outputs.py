"""Golden outputs of the automata layer that users can see.

DOT exports and the ``states=``/``trans=`` annotations of an automata-
engine EXPLAIN expose state numbering and transition counts, so a change
to how automata are stored must leave them byte-for-byte unchanged.  The
expected text below was captured from the implementation these tests
were written against.
"""

import pytest

from repro.automata import compile_regex
from repro.automatic import presentations as pres
from repro.automatic.relation import RelationAutomaton
from repro.core import Query
from repro.database import Database
from repro.engine import global_cache
from repro.io import dfa_to_dot, relation_to_dot
from repro.strings import BINARY

REGEX_DOT = """\
digraph m {
  rankdir=LR;
  __start [shape=point];
  q0 [shape=doublecircle, label="0"];
  q1 [shape=doublecircle, label="1"];
  __start -> q0;
  q0 -> q0 [label="0"];
  q0 -> q1 [label="1"];
  q1 -> q0 [label="0"];
}"""

PREFIX_DOT = """\
digraph relation {
  rankdir=LR;
  __start [shape=point];
  q0 [shape=doublecircle, label="0"];
  q1 [shape=doublecircle, label="1"];
  __start -> q0;
  q0 -> q0 [label="(0,0), (1,1)"];
  q0 -> q1 [label="(#,0), (#,1)"];
  q1 -> q1 [label="(#,0), (#,1)"];
}"""

TUPLES_DOT = """\
digraph r {
  rankdir=LR;
  __start [shape=point];
  q0 [shape=circle, label="0"];
  q1 [shape=doublecircle, label="1"];
  q2 [shape=circle, label="2"];
  q3 [shape=circle, label="3"];
  q4 [shape=circle, label="4"];
  __start -> q0;
  q0 -> q1 [label="(0,#)"];
  q0 -> q2 [label="(0,1)"];
  q0 -> q3 [label="(1,1)"];
  q2 -> q1 [label="(1,#)"];
  q3 -> q4 [label="(1,0)"];
  q4 -> q1 [label="(0,#)"];
}"""


def test_regex_dfa_dot():
    assert dfa_to_dot(compile_regex("(0|10)*1?", BINARY), "m") == REGEX_DOT


def test_presentation_dot():
    assert relation_to_dot(pres.prefix(BINARY)) == PREFIX_DOT


def test_from_tuples_dot():
    rel = RelationAutomaton.from_tuples(
        BINARY, 2, [("01", "1"), ("0", ""), ("110", "10")]
    )
    assert relation_to_dot(rel, "r") == TUPLES_DOT


DB = Database(BINARY, {"R": {("0110",), ("001",), ("11",)}, "S": {("0",), ("01",)}})

EXPLAIN_TREES = {
    # S(y) confines y to the active domain: the planner makes it ADOM.
    "R(x) & exists y: S(y) & y <<= x": [
        "(exists adom _c0: (prefix(_c0, x) & S(_c0))) & R(x) states=6 trans=6",
        "  exists adom _c0: (prefix(_c0, x) & S(_c0)) states=2 trans=3",
        "    prefix(_c0, x) & S(_c0) states=3 trans=6",
        "      prefix(_c0, x) states=2 trans=6",
        "      S(_c0) states=3 trans=2",
        "  R(x) states=6 trans=7",
    ],
    "R(x) & exists y: !S(y) & y <<= x": [
        "(exists _c0: (prefix(_c0, x) & !S(_c0))) & R(x) states=6 trans=7",
        "  exists _c0: (prefix(_c0, x) & !S(_c0)) states=1 trans=2",
        "    prefix(_c0, x) & !S(_c0) states=5 trans=14",
        "      prefix(_c0, x) states=2 trans=6",
        "      !S(_c0) states=4 trans=8",
        "        S(_c0) states=3 trans=2",
        "  R(x) states=6 trans=7",
    ],
    "R(x) & !last(x, '0') & exists y: y <<= x & ext1(y, x)": [
        "(exists _c0: (ext1(_c0, x) & prefix(_c0, x))) & !last(x, '0') & R(x) "
        "states=4 trans=4",
        "  exists _c0: (ext1(_c0, x) & prefix(_c0, x)) states=2 trans=4",
        "    ext1(_c0, x) & prefix(_c0, x) states=2 trans=4",
        "      ext1(_c0, x) states=2 trans=4",
        "      prefix(_c0, x) states=2 trans=6",
        "  !last(x, '0') states=2 trans=4",
        "    last(x, '0') states=2 trans=4",
        "  R(x) states=6 trans=7",
    ],
}


def _tree_lines(node, indent=""):
    lines = [f"{indent}{node.label} states={node.states} trans={node.transitions}"]
    for child in node.children:
        lines.extend(_tree_lines(child, indent + "  "))
    return lines


@pytest.mark.parametrize("query", sorted(EXPLAIN_TREES))
def test_automata_explain_sizes(query):
    global_cache().reset()
    try:
        report = Query(query, structure="S").explain(DB, engine="automata")
        assert _tree_lines(report.root) == EXPLAIN_TREES[query]
    finally:
        global_cache().reset()
