"""Tests for cooperative deadlines: the deadline module, ``timeout=`` on
the Query API, and ``--timeout`` on the CLI.

The acceptance property: a small budget against an adversarial query (one
whose automata product blows up) raises a clean
:class:`~repro.errors.EvaluationTimeout` promptly — no hang, no killed
thread — and a generous budget changes nothing.
"""

import json
import time

import pytest

from repro.__main__ import main
from repro.core import Query, StringDatabase
from repro.engine import reset_caches
from repro.engine.deadline import (
    Deadline,
    checkpoint,
    current_deadline,
    deadline_scope,
)
from repro.engine.metrics import METRICS
from repro.errors import EvaluationError, EvaluationTimeout, ReproError


# Four 20-character strings and six pairwise non-prefix constraints over
# four existential variables: the automata engine's product explodes and
# an unbudgeted run takes seconds — ideal for deadline tests.
ADVERSARIAL_STRINGS = [
    "01101010110110101011",
    "10100101011010010101",
    "00110011000011001100",
    "11100011100011100011",
]
ADVERSARIAL_QUERY = (
    "exists x: exists y: exists z: exists w: "
    "!(x <<= y) & !(y <<= z) & !(z <<= w) & !(w <<= x) "
    "& !(x <<= z) & !(y <<= w) "
    "& R(x) & R(y) & R(z) & R(w)"
)


@pytest.fixture(autouse=True)
def _fresh_cache():
    reset_caches()
    METRICS.reset()
    yield
    reset_caches()


@pytest.fixture
def adversarial_db():
    return StringDatabase("01", {"R": [(s,) for s in ADVERSARIAL_STRINGS]})


@pytest.fixture
def small_db():
    return StringDatabase("01", {"R": {"0110", "001", "11"}})


class TestDeadline:
    def test_remaining_and_expired(self):
        d = Deadline(60)
        assert not d.expired()
        assert 0 < d.remaining() <= 60
        d.check()  # no raise

    def test_expired_deadline_raises_with_details(self):
        d = Deadline(0)
        time.sleep(0.001)
        assert d.expired()
        with pytest.raises(EvaluationTimeout) as exc_info:
            d.check()
        exc = exc_info.value
        assert exc.timeout == 0
        assert exc.elapsed is not None and exc.elapsed > 0
        assert "budget" in str(exc)

    def test_timeout_is_a_clean_library_error(self):
        # Callers catching the library's error hierarchy see timeouts too.
        assert issubclass(EvaluationTimeout, EvaluationError)
        assert issubclass(EvaluationTimeout, ReproError)

    def test_checkpoint_without_deadline_is_a_no_op(self):
        assert current_deadline() is None
        checkpoint()  # must not raise

    def test_scope_installs_and_restores(self):
        assert current_deadline() is None
        with deadline_scope(10) as d:
            assert current_deadline() is d
            checkpoint()
        assert current_deadline() is None

    def test_scope_none_is_a_no_op(self):
        with deadline_scope(None):
            assert current_deadline() is None

    def test_nested_scope_only_tightens(self):
        with deadline_scope(0.010) as outer:
            with deadline_scope(100) as inner:
                # Inner "budget" is looser, so the outer deadline governs.
                assert inner is outer
            with deadline_scope(0.001) as tighter:
                assert tighter is not outer
                assert tighter.expires_at < outer.expires_at

    def test_scope_adopts_existing_deadline_object(self):
        # The worker-pool pattern: the deadline is stamped at submission
        # and adopted later, so queue wait counts against the budget.
        stamped = Deadline(0.001)
        time.sleep(0.005)
        with deadline_scope(stamped):
            with pytest.raises(EvaluationTimeout):
                checkpoint()

    def test_expired_scope_raises_at_checkpoint(self):
        with deadline_scope(0.0005):
            time.sleep(0.002)
            with pytest.raises(EvaluationTimeout):
                checkpoint()


class TestQueryTimeout:
    def test_adversarial_query_cancels_promptly(self, adversarial_db):
        q = Query(ADVERSARIAL_QUERY)
        t0 = time.monotonic()
        with pytest.raises(EvaluationTimeout):
            q.run(adversarial_db, timeout=0.05)
        # Cancelled close to the budget: far below the seconds an
        # unbudgeted run takes (generous bound for slow CI).
        assert time.monotonic() - t0 < 2.0

    def test_result_and_explain_honor_timeout(self, adversarial_db):
        q = Query(ADVERSARIAL_QUERY)
        with pytest.raises(EvaluationTimeout):
            q.result(adversarial_db, timeout=0.05)
        with pytest.raises(EvaluationTimeout):
            q.explain(adversarial_db, timeout=0.05)

    def test_generous_timeout_changes_nothing(self, small_db):
        q = Query("R(x) & last(x, '0')")
        assert q.run(small_db, timeout=30).rows() == [("0110",)]
        assert q.run(small_db).rows() == [("0110",)]

    def test_direct_engine_honors_timeout(self, adversarial_db):
        # Force the collapsed-enumeration engine; its strided checkpoints
        # must fire too.
        q = Query(ADVERSARIAL_QUERY)
        with pytest.raises(EvaluationTimeout):
            q.run(adversarial_db, engine="direct", timeout=0.05)


#: Not star-free, and its minimal DFA's transition monoid has 456,211
#: elements: deciding that takes seconds.
NOT_STAR_FREE = "(((1|0)11(0|1)((0)*1|11(1|0)))*)*"


class TestStarFreeCheckTimeout:
    def test_monoid_construction_honours_the_deadline(self):
        from repro.automata.aperiodic import is_star_free
        from repro.automata.regex import compile_regex
        from repro.strings.alphabet import Alphabet

        dfa = compile_regex(NOT_STAR_FREE, Alphabet("01"))
        t0 = time.monotonic()
        with pytest.raises(EvaluationTimeout):
            with deadline_scope(0.05):
                is_star_free(dfa)
        assert time.monotonic() - t0 < 1.0

    def test_a_service_request_times_out_within_a_second(self, small_db):
        from repro.service import QueryService, RunRequest

        with QueryService(workers=1) as svc:
            svc.register_database("main", small_db)
            t0 = time.monotonic()
            response = svc.execute(RunRequest(
                query=f"R(x) & matches(x, '{NOT_STAR_FREE}')",
                database="main", timeout=0.1,
            ))
            assert time.monotonic() - t0 < 1.0
        assert response.error.code == "timeout", response.error


class TestCLITimeout:
    @pytest.fixture
    def adversarial_db_file(self, tmp_path):
        path = tmp_path / "adv.json"
        path.write_text(json.dumps({
            "alphabet": "01",
            "relations": {"R": [[s] for s in ADVERSARIAL_STRINGS]},
        }))
        return str(path)

    def test_run_timeout_exits_3(self, adversarial_db_file, capsys):
        code = main([
            "run", ADVERSARIAL_QUERY, "--db", adversarial_db_file,
            "--timeout", "0.05",
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "timeout" in err
        assert "Traceback" not in err

    def test_explain_timeout_exits_3(self, adversarial_db_file, capsys):
        code = main([
            "explain", ADVERSARIAL_QUERY, "--db", adversarial_db_file,
            "--timeout", "0.05",
        ])
        assert code == 3
        assert "timeout" in capsys.readouterr().err

    def test_run_within_budget_exits_0(self, tmp_path, capsys):
        path = tmp_path / "db.json"
        path.write_text(json.dumps({
            "alphabet": "01", "relations": {"R": [["0110"], ["001"]]},
        }))
        code = main([
            "run", "R(x) & last(x, '0')", "--db", str(path),
            "--timeout", "30",
        ])
        assert code == 0
        assert "0110" in capsys.readouterr().out
