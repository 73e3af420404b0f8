"""The RANF translation layer: verdicts, pairs, execution, planner wiring.

Covers the three verdict branches (collapsed / restricted-quantifiers /
gamma-bounded), the memoized negative verdicts with their
``planner.eligibility_memo_hits`` counter, the translated pair's shapes
(the ``inf`` half omitted where the finite half is provably complete),
the runtime infinite-result bail-out, EXPLAIN's per-backend
ineligibility reasons and ``RanfPair`` tree node, and the planner's
regime widening with its ``ranf_setup`` amortization.
"""

import pytest

from repro.algebra.codegen import get_pipeline
from repro.algebra.ranf import (
    RanfError,
    run_ranf,
    translate_ranf,
    translation_verdict,
)
from repro.core import Query
from repro.database import Database, random_database
from repro.database.schema import Schema
from repro.engine import METRICS, global_cache
from repro.engine.cache import AutomatonCache
from repro.engine.explain import execute_plan
from repro.engine.planner import Planner, algebra_eligible
from repro.algebra.compile import CompileError
from repro.eval import AutomataEngine
from repro.logic import parse_formula
from repro.logic.canonical import canonicalize
from repro.strings import BINARY
from repro.structures.catalog import by_name
from tests._fused import fused_plan, fused_rows


def _f(text: str):
    return canonicalize(parse_formula(text))


def _db(**relations):
    schema = Schema({name: len(next(iter(rows))) for name, rows in relations.items()})
    return Database(BINARY, dict(relations), schema=schema)


S = by_name("S", BINARY)
S_LEN = by_name("S_len", BINARY)


# ----------------------------------------------------------------- verdicts


class TestVerdicts:
    def test_collapsed_branch(self):
        v = translation_verdict(_f("R(x) & S(x)"), S)
        assert v.ok and v.branch == "collapsed"

    def test_restricted_quantifiers_branch(self):
        v = translation_verdict(_f("R(x) & (exists prefix y: T(y, x))"), S)
        assert v.ok and v.branch == "restricted-quantifiers"

    def test_length_quantifier_branch(self):
        v = translation_verdict(_f("R(x) & (exists len y: T(y, x))"), S_LEN)
        assert v.ok and v.branch == "restricted-quantifiers"

    def test_gamma_bounded_branch(self):
        v = translation_verdict(_f("eq(x, y) & R(y)"), S)
        assert v.ok and v.branch == "gamma-bounded"
        assert "x" in v.bounded

    def test_db_dependent_natural_quantifier_bails(self):
        v = translation_verdict(_f("R(x) & exists y: (y <<= x & S(y))"), S)
        assert not v.ok
        assert v.reason

    def test_unbounded_free_variable_bails(self):
        # prefix(x, y) bounds x from y, but nothing bounds y itself.
        v = translation_verdict(_f("prefix(x, y) & !R(y)"), S)
        assert not v.ok

    def test_negative_verdicts_are_memoized(self):
        formula = _f("R(x) & exists y: (y <<= x & !S(y))")
        translation_verdict(formula, S)  # populate
        before = METRICS.snapshot().get("planner.eligibility_memo_hits", 0)
        v = translation_verdict(formula, S)
        after = METRICS.snapshot().get("planner.eligibility_memo_hits", 0)
        assert not v.ok
        assert after == before + 1

    def test_positive_verdicts_are_memoized(self):
        formula = _f("R(x) & (exists prefix y: (sprefix(y, x) & S(y)))")
        translation_verdict(formula, S)
        before = METRICS.snapshot().get("planner.eligibility_memo_hits", 0)
        assert translation_verdict(formula, S).ok
        after = METRICS.snapshot().get("planner.eligibility_memo_hits", 0)
        assert after == before + 1


# -------------------------------------------------------------------- pairs


class TestTranslatedPairs:
    def test_restricted_quantifiers_omit_inf_half(self):
        schema = Schema({"R": 1, "T": 2})
        pair = translate_ranf(
            _f("R(x) & (exists prefix y: T(y, x))"), S, schema, slack=1
        )
        assert pair.branch == "restricted-quantifiers"
        assert pair.inf_plan is None and pair.inf_optimized is None

    def test_gamma_bounded_builds_inf_half(self):
        schema = Schema({"R": 1})
        pair = translate_ranf(_f("eq(x, y) & R(y)"), S, schema, slack=1)
        assert pair.branch == "gamma-bounded"
        assert pair.inf_plan is not None and pair.inf_optimized is not None

    def test_translation_cache_hits_counted(self):
        schema = Schema({"R": 1, "T": 2})
        formula = _f("R(x) & (exists prefix y: (T(y, x) & S(y)))")
        translate_ranf(formula, S, Schema({"R": 1, "T": 2, "S": 1}), slack=1)
        before = METRICS.snapshot().get("algebra.ranf.translation_cache_hits", 0)
        translate_ranf(formula, S, Schema({"R": 1, "T": 2, "S": 1}), slack=1)
        after = METRICS.snapshot().get("algebra.ranf.translation_cache_hits", 0)
        assert after == before + 1

    def test_untranslatable_raises_ranf_error(self):
        with pytest.raises(RanfError):
            translate_ranf(
                _f("R(x) & exists y: (y <<= x & S(y))"),
                S,
                Schema({"R": 1, "S": 1}),
                slack=1,
            )


# ---------------------------------------------------------------- execution


class TestExecution:
    def test_gamma_bounded_agrees_with_automata(self):
        db = _db(R={("01",), ("110",), ("0",)})
        formula = _f("eq(x, y) & R(y)")
        run = run_ranf(formula, S, db, slack=1)
        assert not run.infinite
        want = AutomataEngine(S, db, slack=1).run(formula).as_set()
        assert run.rows == want

    def test_restricted_quantifier_agrees_with_automata(self):
        db = _db(
            R={("010",), ("11",)},
            T={("0", "010"), ("1", "11"), ("00", "1")},
        )
        formula = _f("R(x) & (exists prefix y: T(y, x))")
        run = run_ranf(formula, S, db, slack=1)
        want = AutomataEngine(S, db, slack=1).run(formula).as_set()
        assert frozenset(run.rows) == want

    @staticmethod
    def _doctor_inf_half(monkeypatch):
        """Make every translated pair's ``inf`` half report a row.

        A sound gamma certificate means the runtime infinite check never
        fires organically, so the bail-out path is driven by doctoring
        the translation: the finite half doubles as a nonempty ``inf``
        half."""
        import dataclasses

        import repro.algebra.ranf as ranf_mod

        real = ranf_mod.translate_ranf

        def doctored(formula, structure, schema, slack=1):
            pair = real(formula, structure, schema, slack=slack)
            return dataclasses.replace(
                pair,
                inf_plan=pair.fin_optimized,
                inf_optimized=pair.fin_optimized,
            )

        ranf_mod._TRANSLATIONS.clear()
        monkeypatch.setattr(ranf_mod, "translate_ranf", doctored)

    def test_infinite_result_bails_out(self, monkeypatch):
        self._doctor_inf_half(monkeypatch)
        db = _db(R={("01",), ("110",)})
        formula = _f("eq(x, y) & R(y)")
        before = METRICS.snapshot().get("algebra.ranf.infinite_bailouts", 0)
        run = run_ranf(formula, S, db, slack=1)
        assert run.infinite
        assert run.rows is None
        assert run.inf_stats is not None
        after = METRICS.snapshot().get("algebra.ranf.infinite_bailouts", 0)
        assert after == before + 1

    def test_infinite_bailout_falls_back_through_backend(self, monkeypatch):
        """When the runtime bound check trips, the algebra backend must
        hand the query to the exact automata engine and still return the
        right answer."""
        self._doctor_inf_half(monkeypatch)
        db = _db(R={("01",), ("110",)})
        formula = _f("eq(x, y) & R(y)")
        global_cache().reset()
        forced = Query("eq(x, y) & R(y)", structure="S").result(
            db, engine="algebra", slack=1
        )
        exact = AutomataEngine(S, db, slack=1).run(formula)
        assert forced.as_set() == exact.as_set()


# ------------------------------------------------------------ planner wiring


class TestPlannerWiring:
    PREFIX_Q = "R(x) & (exists prefix y: (sprefix(y, x) & S(y)))"

    def _db(self, n=40):
        return random_database(
            BINARY, {"R": 1, "S": 1}, n, max_len=8, seed=5
        )

    def test_old_gate_rejected_now_eligible(self):
        formula = _f(self.PREFIX_Q)
        assert not algebra_eligible(formula)  # the historical gate
        assert algebra_eligible(formula, S)  # the widened gate

    def test_plan_reports_backend_ineligibility_reasons(self):
        db = _db(R={("0", "01")})
        plan = Planner(S, db).plan(_f("eq(x, y) & R(y, z)"), slack=1)
        assert "direct" in plan.ineligible
        assert "anchored" in plan.ineligible["direct"]
        rendered = plan.render()
        assert "ineligible" in rendered
        as_dict = plan.to_dict()
        assert "direct" in as_dict["ineligible"]

    def test_explain_shows_ranf_pair_node(self):
        db = _db(R={("0",), ("10",)})
        global_cache().reset()
        report = Query("eq(x, y) & R(y)", structure="S").explain(
            db, engine="algebra", slack=1
        )
        tree = report.to_dict()["tree"]
        assert tree["kind"] == "RanfPair"
        assert tree["annotations"]["branch"] == "gamma-bounded"
        halves = [c["annotations"].get("half") for c in tree["children"]]
        assert halves == ["inf", "fin"]

    def test_ranf_setup_charged_then_amortized(self):
        db = self._db()
        formula = _f(self.PREFIX_Q)
        planner = Planner(S, db)
        fresh_key_formula = _f(
            "R(x) & (exists prefix y: (sprefix(y, x) & !S(y)))"
        )
        import repro.algebra.ranf as ranf_mod

        ranf_mod._TRANSLATIONS.clear()
        cold = planner.plan(fresh_key_formula, slack=1)
        cold_cost = cold.costs["algebra"]
        # Translating (e.g. by running the query once) amortizes setup.
        run_ranf(fresh_key_formula, S, db, slack=1)
        warm_cost = Planner(S, db).plan(fresh_key_formula, slack=1).costs[
            "algebra"
        ]
        assert warm_cost < cold_cost

    def test_forced_algebra_on_untranslatable_raises(self):
        # NATURAL-quantified queries collapse into the widened regime, so
        # forcing must fail on something the translation can never bound:
        # a bare negation whose free variable has no certificate.
        db = self._db()
        with pytest.raises(CompileError):
            Planner(S, db).plan(_f("!R(x)"), slack=1, force="algebra")

    def test_forced_codegen_widened_regime(self):
        # A widened-regime plan forced onto the fused (codegen) strategy:
        # the pair's finite half compiles into a closure that agrees with
        # the interpreted run.
        db = random_database(BINARY, {"R": 1, "T": 2}, 30, max_len=8, seed=7)
        query = Query("R(x) & (exists prefix y: T(y, x))", structure="S")
        want = query.result(db, engine="algebra", slack=1)
        assert fused_rows(query, db, slack=1, variables=want.variables) == (
            want.as_set()
        )
        plan = fused_plan(query, db, slack=1)
        pipeline, detail = get_pipeline(
            plan.formula, plan.structure, db.schema, plan.slack
        )
        assert pipeline is not None, detail
        runs = METRICS.get("codegen.runs")
        got = execute_plan(plan, db, cache=AutomatonCache())
        assert got.as_set() == want.as_set()
        assert METRICS.get("codegen.runs") == runs + 1

    def test_planner_coverage_counter_for_widened_choice(self):
        """The acceptance counter: algebra chosen for a formula the old
        gate rejected."""
        db = random_database(BINARY, {"R": 1, "T": 2}, 400, max_len=12, seed=3)
        formula = _f("R(x) & (exists prefix y: T(y, x))")
        assert not algebra_eligible(formula)
        global_cache().reset()
        before = METRICS.snapshot()
        plan = Planner(S, db).plan(formula, slack=1)
        assert plan.engine == "algebra"
        delta_key = f"planner.backend.{plan.engine}.chosen"
        assert (
            METRICS.snapshot().get(delta_key, 0)
            == before.get(delta_key, 0) + 1
        )
