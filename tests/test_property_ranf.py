"""Differential property tests for the RANF-widened fast-engine regime.

Hypothesis generates safe formulas across the regimes this translation
opened up — anchored queries under restricted PREFIX/LENGTH quantifiers
(which the old collapsed-form gate rejected outright) and gamma-bounded
queries whose free variables are certified by
:func:`repro.safety.bounded.range_bounded_variables` instead of being
anchored — and asserts the RANF-translated algebra evaluation, both
interpreted and fused (:func:`tests._fused.fused_rows`), agrees
tuple-for-tuple with the exact automata engine (and the direct
engine where its own gate admits the query).  A final suite evolves a
versioned database through random deltas and checks the maintained
answers of widened queries still match a from-scratch build.
"""

import itertools

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.core import Query
from repro.database import Database
from repro.database.schema import Schema
from repro.delta import VersionedDatabase
from repro.engine.backend import restricted_output_gate
from repro.engine.planner import algebra_eligible
from repro.logic.canonical import canonicalize
from repro.logic.dsl import (
    and_,
    el,
    eq,
    exists_len,
    exists_prefix,
    last,
    len_le,
    not_,
    or_,
    prefix,
    rel,
    sprefix,
)
from repro.logic.formulas import Formula
from repro.strings import BINARY
from repro.structures import S_len
from repro.structures.catalog import by_name
from tests._fused import fused_rows

VARS = ["u", "v", "w"]

short_string = st.text(alphabet="01", max_size=3)

databases = st.builds(
    lambda r, s: Database(
        BINARY,
        {"R": {(x,) for x in r}, "S": {(x,) for x in s}},
        schema=Schema({"R": 1, "S": 1}),
    ),
    st.sets(short_string, min_size=1, max_size=3),
    st.sets(short_string, max_size=3),
)


def _atoms(variables: list[str]) -> st.SearchStrategy[Formula]:
    var = st.sampled_from(variables)
    unary = (
        st.builds(lambda t, a: last(t, a), var, st.sampled_from("01"))
        | st.builds(lambda t: rel("R", t), var)
        | st.builds(lambda t: rel("S", t), var)
    )
    binary_ctor = st.sampled_from([prefix, sprefix, eq, el, len_le])
    binary = st.builds(lambda c, t1, t2: c(t1, t2), binary_ctor, var, var)
    return unary | binary


def _quantified(depth: int) -> st.SearchStrategy[Formula]:
    """Formulas whose quantifiers are restricted PREFIX/LENGTH only —
    every non-trivial example sits outside the old ADOM-only gate."""
    base = _atoms(VARS)
    if depth == 0:
        return base
    sub = _quantified(depth - 1)
    quantifier = st.builds(
        lambda q, v, f: q(v, f),
        st.sampled_from([exists_prefix, exists_len]),
        st.sampled_from(VARS),
        sub,
    )
    boolean = (
        st.builds(lambda a, b: and_(a, b), sub, sub)
        | st.builds(lambda a, b: or_(a, b), sub, sub)
        | st.builds(not_, sub)
    )
    return base | quantifier | boolean


def _anchor(formula: Formula) -> Formula:
    for v in sorted(formula.free_variables(), reverse=True):
        formula = and_(rel("R", v), formula)
    return formula


STRUCTURE = S_len(BINARY)


class TestWidenedRegimeAgreement:
    @settings(max_examples=50, deadline=None)
    @given(formula=_quantified(depth=2), db=databases)
    def test_restricted_quantifier_queries_agree(self, formula, db):
        anchored = _anchor(formula)
        canonical = canonicalize(anchored)
        assume(algebra_eligible(canonical, STRUCTURE))
        query = Query(anchored, structure="S_len")
        engines = ["automata", "algebra"]
        if restricted_output_gate(canonical, db)[0]:
            engines.append("direct")
        results = {e: query.result(db, engine=e, slack=1) for e in engines}
        rows = {e: r.as_set() for e, r in results.items()}
        rows["fused"] = fused_rows(
            query, db, slack=1, variables=results["automata"].variables
        )
        assert len(set(map(frozenset, rows.values()))) == 1, (
            str(canonical), rows,
        )

    # The double assume (old gate no, widened gate yes) discards most
    # draws, and engine runs are slow on a loaded box — both are the
    # point of the test, not a strategy bug, so silence those checks.
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[
            HealthCheck.filter_too_much,
            HealthCheck.too_slow,
        ],
    )
    @given(formula=_quantified(depth=2), db=databases)
    def test_old_gate_rejections_now_agree(self, formula, db):
        """Specifically the formulas the pre-RANF gate refused."""
        anchored = _anchor(formula)
        canonical = canonicalize(anchored)
        assume(not algebra_eligible(canonical))  # old gate said no
        assume(algebra_eligible(canonical, STRUCTURE))  # widened gate: yes
        query = Query(anchored, structure="S_len")
        auto = query.result(db, engine="automata", slack=1).as_set()
        fast = query.result(db, engine="algebra", slack=1).as_set()
        assert auto == fast, str(canonical)


def _gamma_formulas() -> st.SearchStrategy[Formula]:
    """eq-copied unanchored outputs over an anchored core, optionally
    negating a second relation on the copied variable."""
    core = st.builds(
        lambda v: and_(eq("u", v), rel("R", v)), st.sampled_from(["v", "w"])
    )
    extra = st.sampled_from(
        ["none", "not_s", "last0", "prefix_guard"]
    )

    def build(base, tag):
        if tag == "not_s":
            return and_(base, not_(rel("S", "u")))
        if tag == "last0":
            return and_(base, last("u", "0"))
        if tag == "prefix_guard":
            return and_(base, prefix("u", "u"))
        return base

    return st.builds(build, core, extra)


class TestGammaBoundedAgreement:
    @settings(max_examples=40, deadline=None)
    @given(formula=_gamma_formulas(), db=databases)
    def test_gamma_bounded_queries_agree(self, formula, db):
        canonical = canonicalize(formula)
        assume(algebra_eligible(canonical, by_name("S", BINARY)))
        # These outputs are not anchored: the old regime had automata only.
        assert not restricted_output_gate(canonical, db)[0]
        query = Query(formula, structure="S")
        auto = query.result(db, engine="automata", slack=1)
        fast = query.result(db, engine="algebra", slack=1)
        assert auto.as_set() == fast.as_set(), str(canonical)


# ------------------------------------------------------------ MVCC deltas


#: Widened queries (old gate: rejected) maintained across versions.
DELTA_QUERIES = [
    "R(x) & (exists prefix y: (sprefix(y, x) & S(y)))",
    "R(x) & (exists prefix y: (y <<= x & !S(y)))",
    "eq(x, y) & R(y) & !S(x)",
]

strings6 = st.text(alphabet="01", min_size=0, max_size=5)
step = st.tuples(
    st.sampled_from(["insert", "delete"]),
    st.sampled_from(["R", "S"]),
    st.frozensets(strings6, min_size=1, max_size=3),
)

_count = itertools.count()


class TestDeltaMaintenance:
    @settings(max_examples=20, deadline=None)
    @given(
        r=st.frozensets(strings6, min_size=1, max_size=6),
        s=st.frozensets(strings6, max_size=6),
        ops=st.lists(step, max_size=4),
    )
    def test_evolved_equals_fresh_on_widened_queries(self, r, s, ops):
        vdb = VersionedDatabase(
            Database(
                BINARY,
                {"R": {(x,) for x in r}, "S": {(x,) for x in s}},
                schema=Schema({"R": 1, "S": 1}),
            )
        )
        model = {"R": set(r), "S": set(s)}
        probes = [Query(text, structure="S") for text in DELTA_QUERIES]
        for op, name, rows in ops:
            if op == "insert":
                vdb.insert(name, rows)
                model[name] |= rows
            else:
                vdb.delete(name, rows)
                model[name] -= rows
            # Mid-chain queries engage the incremental maintenance paths.
            for probe in probes:
                probe.result(vdb.head.database, engine="algebra", slack=1)
        fresh = Database(
            BINARY,
            {name: {(x,) for x in rows} for name, rows in model.items()},
            schema=Schema({"R": 1, "S": 1}),
        )
        evolved = vdb.head.database
        for text in DELTA_QUERIES:
            query = Query(text, structure="S")
            got = query.result(evolved, engine="algebra", slack=1).as_set()
            want = query.result(fresh, engine="automata", slack=1).as_set()
            assert got == want, (
                f"{text}: maintained algebra answer diverged after "
                f"{len(ops)} deltas"
            )
