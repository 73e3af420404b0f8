"""Tests for the canonical formula pipeline (repro.logic.canonical).

Two properties under test: the *identity* property (alpha-equivalent and
conjunct-permuted spellings share one fingerprint and one canonical form)
and the *unification* property (those spellings share cache entries in
every layer — automaton cache, direct/algebra result caches, the algebra
compiled-plan cache, and the service's prepared-query plan cache).
"""

import pytest

from repro.core import Query, StringDatabase
from repro.engine import METRICS, global_cache, reset_caches
from repro.logic import parse_formula
from repro.logic.canonical import (
    canonical_fingerprint,
    canonical_serialization,
    canonicalize,
)
from repro.service import QueryService, RunRequest


@pytest.fixture
def db():
    return StringDatabase("01", {"R": {"0110", "001", "11"}, "S": {"0", "01"}})


@pytest.fixture(autouse=True)
def _fresh():
    reset_caches()
    METRICS.reset()
    yield
    reset_caches()


# Alpha-equivalent pairs (bound names differ) and commutative permutations.
ALPHA_PAIRS = [
    ("exists adom y: R(y)", "exists adom z: R(z)"),
    (
        "R(x) & (exists adom y: S(y) & y <<= x)",
        "R(x) & (exists adom w: S(w) & w <<= x)",
    ),
    (
        "exists adom a: exists adom b: R(a) & S(b)",
        "exists adom u: exists adom v: R(u) & S(v)",
    ),
    # Conjunct and disjunct permutations.
    (
        "R(x) & (exists adom y: S(y) & y <<= x)",
        "(exists adom y: y <<= x & S(y)) & R(x)",
    ),
    ("R(x) | S(x)", "S(x) | R(x)"),
]

DIFFERENT_PAIRS = [
    # Free variables are output columns: renaming them changes the query.
    ("R(x)", "R(y)"),
    ("exists adom y: R(y)", "exists adom y: S(y)"),
    ("R(x) & S(x)", "R(x) | S(x)"),
    # Distinct bound structure, same text-length.
    ("exists adom y: forall adom z: R(y)", "forall adom y: exists adom z: R(y)"),
]


class TestFingerprint:
    @pytest.mark.parametrize("left,right", ALPHA_PAIRS)
    def test_equivalent_spellings_share_fingerprint(self, left, right):
        f, g = parse_formula(left), parse_formula(right)
        assert canonical_serialization(f) == canonical_serialization(g)
        assert canonical_fingerprint(f) == canonical_fingerprint(g)

    @pytest.mark.parametrize("left,right", DIFFERENT_PAIRS)
    def test_different_queries_differ(self, left, right):
        f, g = parse_formula(left), parse_formula(right)
        assert canonical_fingerprint(f) != canonical_fingerprint(g)

    @pytest.mark.parametrize("left,right", ALPHA_PAIRS)
    def test_canonicalize_is_idempotent_and_unifying(self, left, right):
        f, g = parse_formula(left), parse_formula(right)
        assert canonicalize(f) == canonicalize(g)
        assert canonicalize(canonicalize(f)) == canonicalize(f)
        assert canonical_fingerprint(canonicalize(f)) == canonical_fingerprint(f)

    @pytest.mark.parametrize("left,right", ALPHA_PAIRS + DIFFERENT_PAIRS)
    def test_canonicalize_preserves_free_variables(self, left, right):
        for text in (left, right):
            f = parse_formula(text)
            assert canonicalize(f).free_variables() == f.free_variables()

    def test_binder_rename_avoids_free_name_capture(self):
        # A free variable already named like a canonical binder must not
        # be captured by the renaming.
        f = parse_formula("R(_c0) & (exists adom y: y <<= _c0)")
        canon = canonicalize(f)
        assert canon.free_variables() == {"_c0"}
        # The binder got a name distinct from the free one.
        assert "exists adom _c1" in str(canon) or "_c0" not in str(canon).split(":")[0]


class TestCacheUnification:
    def test_alpha_variant_hits_automaton_cache(self, db):
        # NATURAL quantifier -> automata engine, subformula compilations
        # land in the automaton cache keyed by canonical fingerprint.
        first = Query("R(x) & exists y: y <<= x", structure="S").run(db)
        misses = global_cache().stats()["misses"]
        assert misses > 0
        second = Query("R(x) & exists w: w <<= x", structure="S").run(db)
        warm = global_cache().stats()
        assert warm["misses"] == misses        # nothing recompiled
        assert warm["hits"] > 0                # served from cache
        assert first.rows() == second.rows()

    def test_conjunct_permutation_hits_direct_result_cache(self, db):
        q1 = Query("R(x) & (exists adom y: S(y) & y <<= x)", structure="S")
        q2 = Query("(exists adom y: y <<= x & S(y)) & R(x)", structure="S")
        assert q1.plan(db).engine == "direct"
        first = q1.run(db)
        misses = global_cache().stats()["misses"]
        second = q2.run(db)
        assert global_cache().stats()["misses"] == misses
        assert global_cache().stats()["hits"] >= 1
        assert first.rows() == second.rows()

    def test_plans_share_fingerprint(self, db):
        q1 = Query("exists adom y: R(y) & S(y)", structure="S")
        q2 = Query("exists adom z: S(z) & R(z)", structure="S")
        p1, p2 = q1.plan(db), q2.plan(db)
        assert p1.fingerprint == p2.fingerprint
        assert str(p1.formula) == str(p2.formula)  # same canonical form


class TestServicePreparedQueries:
    def test_alpha_equivalent_prepares_share_handle_and_plans(self, db):
        with QueryService(workers=2) as svc:
            svc.register_database("main", db)
            h1 = svc.prepare("exists adom y: R(y)")
            h2 = svc.prepare("exists adom z: R(z)")
            assert h1 is h2                            # interned by fingerprint
            assert METRICS.get("service.prepared_queries") == 1

            r1 = svc.execute(RunRequest(query=h1, database="main"))
            assert r1.ok
            hits_before = METRICS.get("service.plan_cache_hits")
            r2 = svc.execute(
                RunRequest(query="exists adom z: R(z)", database="main")
            )
            assert r2.ok and r2.rows == r1.rows
            # The second spelling reused the first's cached plan.
            assert METRICS.get("service.plan_cache_hits") == hits_before + 1

    def test_same_text_fast_path_still_interns(self, db):
        with QueryService(workers=1) as svc:
            assert svc.prepare("R(x)") is svc.prepare("R(x)")
            assert METRICS.get("service.prepared_queries") == 1
