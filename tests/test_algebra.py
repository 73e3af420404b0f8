"""Tests for the relational algebras and the calculus<->algebra bridges.

The round-trip tests are the operational reproduction of Theorems 4 and 8
(safe RC(M) = RA(M)): compiled plans agree with the automata engine's
natural semantics, and hand-built plans agree with their calculus
translations.
"""

import pytest

from repro.algebra import (
    AddFirstOp,
    AddLastOp,
    BaseRel,
    CompileError,
    Difference,
    DownOp,
    EpsilonRel,
    PrefixOp,
    Product,
    Project,
    RA_S,
    RA_S_left,
    RA_S_len,
    RA_S_reg,
    Select,
    TrimFirstOp,
    Union,
    col,
    compile_query,
    is_collapsed_form,
    to_calculus,
)
from repro.algebra.codegen import plan_pipeline
from repro.algebra.compile import bound_plan
from repro.database import Database, random_database
from repro.errors import ArityError, EvaluationError, SignatureError
from repro.eval import AutomataEngine
from repro.logic import parse_formula
from repro.logic.dsl import eq, exists, last, matches, prefix, rel
from repro.logic.terms import Param
from repro.strings import BINARY
from repro.structures import S, S_left, S_len, S_reg


def db(**relations):
    return Database(BINARY, relations)


S_BIN = S(BINARY)


class TestPlanNodes:
    def test_base_and_select(self):
        plan = Select(BaseRel("R", 1), last(col(0), "0"))
        rows = RA_S(BINARY).evaluate(plan, db(R={"00", "01", "10"}))
        assert rows == {("00",), ("10",)}

    def test_epsilon_rel(self):
        assert RA_S(BINARY).evaluate(EpsilonRel(), db(R=set())) == {("",)}

    def test_project_permute_duplicate(self):
        plan = Project(BaseRel("E", 2), (1, 0, 0))
        rows = RA_S(BINARY).evaluate(plan, db(E={("0", "1")}))
        assert rows == {("1", "0", "0")}

    def test_product_union_difference(self):
        r = BaseRel("R", 1)
        s = BaseRel("S", 1)
        d = db(R={"0", "1"}, S={"1", "00"})
        ra = RA_S(BINARY)
        assert ra.evaluate(Product(r, s), d) == {
            ("0", "1"), ("0", "00"), ("1", "1"), ("1", "00")
        }
        assert ra.evaluate(Union(r, s), d) == {("0",), ("1",), ("00",)}
        assert ra.evaluate(Difference(r, s), d) == {("0",)}

    def test_arity_mismatch_checked(self):
        with pytest.raises(ArityError):
            RA_S(BINARY).evaluate(
                Union(BaseRel("R", 1), BaseRel("E", 2)),
                db(R={"0"}, E={("0", "1")}),
            )

    def test_prefix_op(self):
        plan = PrefixOp(BaseRel("R", 1), 0)
        rows = RA_S(BINARY).evaluate(plan, db(R={"01"}))
        assert rows == {("01", ""), ("01", "0"), ("01", "01")}

    def test_add_last_op(self):
        plan = AddLastOp(BaseRel("R", 1), 0, "1")
        assert RA_S(BINARY).evaluate(plan, db(R={"0"})) == {("0", "01")}

    def test_add_first_trim_first_ops(self):
        sl = RA_S_left(BINARY)
        plan = AddFirstOp(BaseRel("R", 1), 0, "1")
        assert sl.evaluate(plan, db(R={"0"})) == {("0", "10")}
        plan2 = TrimFirstOp(BaseRel("R", 1), 0, "0")
        assert sl.evaluate(plan2, db(R={"01", "11"})) == {("01", "1"), ("11", "")}

    def test_down_op_exponential(self):
        plan = DownOp(BaseRel("R", 1), 0)
        rows = RA_S_len(BINARY).evaluate(plan, db(R={"000"}))
        # 2^4 - 1 strings of length <= 3, paired with "000".
        assert len(rows) == 15

    def test_select_with_quantified_condition(self):
        # Condition: exists y: y << c0 & last(y, '1') -- pure M-formula.
        cond = exists("y", parse_formula("y << c0 & last(y, '1')"))
        plan = Select(BaseRel("R", 1), cond)
        rows = RA_S(BINARY).evaluate(plan, db(R={"10", "00", "011"}))
        assert rows == {("10",), ("011",)}

    def test_select_rejects_db_reference(self):
        plan = Select(BaseRel("R", 1), rel("S", col(0)))
        with pytest.raises(EvaluationError):
            RA_S(BINARY).evaluate(plan, db(R={"0"}, S={"0"}))

    def test_select_bad_column(self):
        plan = Select(BaseRel("R", 1), last(col(3), "0"))
        with pytest.raises(ArityError):
            RA_S(BINARY).evaluate(plan, db(R={"0"}))

    def test_base_rel_arity_checked_against_schema(self):
        with pytest.raises(ArityError):
            RA_S(BINARY).evaluate(BaseRel("E", 1), db(E={("0", "1")}))

    @pytest.mark.parametrize(
        "plan",
        [
            Project(BaseRel("R", 1), (1,)),
            PrefixOp(BaseRel("R", 1), 1),
            AddLastOp(BaseRel("R", 1), 2, "0"),
        ],
        ids=str,
    )
    def test_column_out_of_range(self, plan):
        with pytest.raises(ArityError):
            RA_S(BINARY).evaluate(plan, db(R={"0"}))


class TestDialects:
    def test_plan_checks_visit_each_shared_node_once(self, monkeypatch):
        # The translator reuses its subplans by reference, so walking the
        # plan per occurrence repeats work: the checks visit each node
        # object once instead.
        from repro.algebra import compile_for_execution, dialects
        from repro.algebra.distribute import plan_shape_certificate
        from repro.algebra.plan import Plan
        from repro.logic.canonical import canonicalize

        base = db(R={("01",), ("110",)}, S={("0",), ("11",)})
        formula = canonicalize(
            parse_formula("R(x) & exists prefix y: (S(y) & y <<= x)")
        )
        plans = compile_for_execution(formula, S_BIN, base.schema, slack=1)
        plan, dialect = plans.compiled.plan, plans.compiled.dialect
        occurrences = list(plan.walk())
        distinct = {id(node): node for node in occurrences}
        assert len(distinct) < len(occurrences) / 2
        assert [id(n) for n in plan.nodes()] == list(distinct)
        selects = sum(isinstance(n, Select) for n in distinct.values())

        conditions, columns = [], []
        real_check = type(S_BIN).check_formula
        real_columns = dialects._check_columns
        monkeypatch.setattr(
            type(S_BIN), "check_formula",
            lambda self, f: conditions.append(f) or real_check(self, f),
        )
        monkeypatch.setattr(
            dialects, "_check_columns",
            lambda node, schema: columns.append(node) or real_columns(node, schema),
        )
        want = dialect.evaluate(plan, base, plans.compiled.params)
        assert len(conditions) == selects
        assert len(columns) == len(distinct)
        assert want == {("01",), ("110",)}

        def per_occurrence(self):
            raise AssertionError("walked the plan once per occurrence")

        monkeypatch.setattr(Plan, "walk", per_occurrence)
        _, relations, _ = plan_shape_certificate(formula, S_BIN, base, 1)
        assert relations == ("R", "S")

    def test_ra_s_rejects_down(self):
        plan = DownOp(BaseRel("R", 1), 0)
        with pytest.raises(SignatureError):
            RA_S(BINARY).validate(plan)
        RA_S_len(BINARY).validate(plan)

    def test_ra_s_rejects_add_first(self):
        plan = AddFirstOp(BaseRel("R", 1), 0, "0")
        with pytest.raises(SignatureError):
            RA_S(BINARY).validate(plan)
        RA_S_left(BINARY).validate(plan)

    def test_ra_s_len_has_no_primitive_add_first(self):
        plan = AddFirstOp(BaseRel("R", 1), 0, "0")
        with pytest.raises(SignatureError):
            RA_S_len(BINARY).validate(plan)

    def test_condition_signature_checked(self):
        plan = Select(BaseRel("R", 1), parse_formula("el(c0, c0)"))
        with pytest.raises(SignatureError):
            RA_S(BINARY).validate(plan)
        RA_S_len(BINARY).validate(plan)

    def test_ra_s_reg_patterns(self):
        plan = Select(BaseRel("R", 1), matches(col(0), "(00)*"))
        with pytest.raises(SignatureError):
            RA_S(BINARY).validate(plan)
        RA_S_reg(BINARY).validate(plan)
        rows = RA_S_reg(BINARY).evaluate(plan, db(R={"00", "0", "0000"}))
        assert rows == {("00",), ("0000",)}


COMPILE_CORPUS = [
    (S, "R(x) & last(x, '0')"),
    (S, "exists adom y: E(x, y)"),
    (S, "exists adom y: R(y) & x <<= y"),
    (S, "R(x) & !S(x)"),
    (S, "exists adom x: R(x) & exists adom y: S(y) & x <<= y"),
    (S, "R(x) & exists y: y << x & last(y, '1')"),  # natural M-quantifier
    (S_reg, "R(x) & matches(x, '(00)*')"),
    (S_left, "exists adom x: R(x) & eq(add_first(x, '1'), y)"),
    (S_len, "R(x) & exists adom y: S(y) & el(x, y)"),
]


class TestCompiler:
    @pytest.mark.parametrize("factory,text", COMPILE_CORPUS)
    def test_compiled_matches_engine(self, factory, text):
        structure = factory(BINARY)
        formula = parse_formula(text)
        for seed in (0, 1):
            database = random_database(
                BINARY, {"R": 1, "S": 1, "E": 2}, tuples_per_relation=4, max_len=3, seed=seed
            )
            expected = AutomataEngine(structure, database).run(formula)
            assert expected.is_finite(), text
            compiled = compile_query(formula, structure, database.schema, slack=2)
            got = compiled.evaluate(database)
            assert got == expected.as_set(), (text, seed)

    def test_constants_covered_on_empty_db(self):
        formula = parse_formula("x = '01'")
        database = Database(BINARY, {"R": set()})
        compiled = compile_query(formula, S_BIN, database.schema, slack=0)
        assert compiled.evaluate(database) == {("01",)}

    def test_conjunction_filters_its_generators(self):
        # The literal folds into a plain condition, both prefix tests
        # filter the R x S join, and nothing ranges over the gamma-bound.
        database = db(R={"0110", "011", "10"}, S={"0", "01", "1"})
        formula = parse_formula("R(x) & S(y) & y <<= x & '01' <<= x")
        compiled = compile_query(formula, S_BIN, database.schema)
        nodes = list(compiled.plan.walk())
        gamma = bound_plan(S_BIN, database.schema, 1, frozenset({"", Param(0)}))
        assert not any(isinstance(n, PrefixOp) for n in nodes)
        assert gamma not in nodes
        assert any(isinstance(n, Select) for n in nodes)
        # Every condition is quantifier-free, so the closure inlines it.
        assert "_chk" not in plan_pipeline(compiled.plan, S_BIN).source
        assert compiled.evaluate(database) == {
            ("0110", "0"), ("0110", "01"), ("011", "0"), ("011", "01")
        }

    def test_not_collapsed_raises(self):
        formula = parse_formula("exists x: R(x) & last(x, '0')")
        with pytest.raises(CompileError):
            compile_query(formula, S_BIN, db(R={"0"}).schema)

    def test_is_collapsed_form(self):
        assert is_collapsed_form(parse_formula("exists adom x: R(x)"))
        assert is_collapsed_form(parse_formula("R(x) & exists y: y <<= x"))
        assert not is_collapsed_form(parse_formula("exists x: R(x)"))

    def test_range_restricted_semantics_on_unsafe_query(self):
        # last(x, '0') is unsafe; the compiled plan returns its gamma-bounded
        # restriction (the paper's range-restricted semantics).
        formula = parse_formula("last(x, '0')")
        database = db(R={"01"})
        compiled = compile_query(formula, S_BIN, database.schema, slack=1)
        got = compiled.evaluate(database)
        # Everything in the bound ending with 0 -- finite, nonempty.
        assert got
        assert all(s.endswith("0") for (s,) in got)


class TestToCalculus:
    PLANS = [
        Select(BaseRel("R", 1), last(col(0), "0")),
        Project(BaseRel("E", 2), (1,)),
        Project(BaseRel("E", 2), (1, 0)),
        Union(BaseRel("R", 1), BaseRel("S", 1)),
        Difference(BaseRel("R", 1), BaseRel("S", 1)),
        Product(BaseRel("R", 1), BaseRel("S", 1)),
        PrefixOp(BaseRel("R", 1), 0),
        AddLastOp(BaseRel("R", 1), 0, "1"),
        Project(Select(Product(BaseRel("R", 1), BaseRel("S", 1)),
                       eq(col(0), col(1))), (0,)),
    ]

    @pytest.mark.parametrize("plan", PLANS, ids=[str(p) for p in PLANS])
    def test_roundtrip_plan_to_calculus(self, plan):
        database = random_database(
            BINARY, {"R": 1, "S": 1, "E": 2}, tuples_per_relation=4, max_len=3, seed=5
        )
        structure = S_BIN
        expected = RA_S(BINARY).evaluate(plan, database)
        formula = to_calculus(plan)
        result = AutomataEngine(structure, database).run(formula)
        assert result.as_set() == expected, str(plan)

    def test_left_ops_roundtrip(self):
        database = db(R={"0", "01"})
        structure = S_left(BINARY)
        for plan in [AddFirstOp(BaseRel("R", 1), 0, "1"), TrimFirstOp(BaseRel("R", 1), 0, "0")]:
            expected = RA_S_left(BINARY).evaluate(plan, database)
            formula = to_calculus(plan)
            result = AutomataEngine(structure, database).run(formula)
            assert result.as_set() == expected

    def test_down_roundtrip(self):
        database = db(R={"00"})
        structure = S_len(BINARY)
        plan = DownOp(BaseRel("R", 1), 0)
        expected = RA_S_len(BINARY).evaluate(plan, database)
        result = AutomataEngine(structure, database).run(to_calculus(plan))
        assert result.as_set() == expected

    def test_duplicate_projection_roundtrip(self):
        database = db(E={("0", "0"), ("0", "1")})
        plan = Project(BaseRel("E", 2), (0, 0))
        expected = RA_S(BINARY).evaluate(plan, database)
        result = AutomataEngine(S_BIN, database).run(to_calculus(plan))
        assert result.as_set() == expected
