"""Tests for the genericity analysis (Corollary 3) and the CLI."""

import json

import pytest

from repro.analysis import (
    all_alphabet_permutations,
    apply_symbol_permutation,
    commutes_with_permutation,
    genericity_evidence,
    permute_database,
)
from repro.database import Database, random_database
from repro.errors import AlphabetError
from repro.logic import parse_formula
from repro.strings import BINARY
from repro.structures import S
from repro.__main__ import load_database, main
from repro.core import Query
from repro.engine.backend import backend_names


SWAP = {"0": "1", "1": "0"}


class TestGenericity:
    def test_permute_database(self):
        db = Database(BINARY, {"R": {("01",), ("11",)}})
        image = permute_database(db, SWAP)
        assert image.relation("R") == {("10",), ("00",)}

    def test_permute_validates_mapping(self):
        db = Database(BINARY, {"R": {("0",)}})
        with pytest.raises(AlphabetError):
            permute_database(db, {"0": "0", "1": "0"})

    def test_apply_symbol_permutation(self):
        assert apply_symbol_permutation("0110", SWAP) == "1001"

    def test_generic_query_commutes(self):
        # Pure relational query: no symbol inspection -> generic.
        formula = parse_formula("R(x) & !S(x)")
        structure = S(BINARY)
        for seed in range(3):
            db = random_database(BINARY, {"R": 1, "S": 1}, 4, max_len=3, seed=seed)
            assert commutes_with_permutation(formula, structure, db, SWAP)

    def test_prefix_query_commutes(self):
        # Prefix structure is permutation-invariant too.
        formula = parse_formula("exists adom y: R(y) & x <<= y")
        structure = S(BINARY)
        db = random_database(BINARY, {"R": 1}, 4, max_len=3, seed=7)
        assert commutes_with_permutation(formula, structure, db, SWAP)

    def test_symbol_inspecting_query_fails(self):
        # last(x, '0') inspects symbols: a witness of non-genericity.
        formula = parse_formula("R(x) & last(x, '0')")
        structure = S(BINARY)
        db = Database(BINARY, {"R": {("0",), ("1",)}})
        assert not commutes_with_permutation(formula, structure, db, SWAP)

    def test_genericity_evidence(self):
        structure = S(BINARY)
        dbs = [random_database(BINARY, {"R": 1}, 3, max_len=3, seed=s) for s in range(2)]
        ok, counterexample = genericity_evidence(
            parse_formula("exists adom y: x = y"), structure, dbs
        )
        assert ok and counterexample is None
        bad, mapping = genericity_evidence(
            parse_formula("R(x) & last(x, '1')"),
            structure,
            [Database(BINARY, {"R": {("0",), ("1",)}})],
        )
        assert not bad and mapping is not None

    def test_all_permutations(self):
        perms = list(all_alphabet_permutations(("0", "1")))
        assert {frozenset(p.items()) for p in perms} == {
            frozenset({("0", "0"), ("1", "1")}),
            frozenset({("0", "1"), ("1", "0")}),
        }

    def test_infinite_output_comparison(self):
        # Unsafe but generic-ish query: !R(x); outputs are infinite, the
        # comparison goes through automata renaming.
        formula = parse_formula("!R(x)")
        structure = S(BINARY)
        db = Database(BINARY, {"R": {("0",), ("1",)}})
        assert commutes_with_permutation(formula, structure, db, SWAP)
        db2 = Database(BINARY, {"R": {("0",)}})
        # not R(x) with asymmetric db: image under swap differs.
        assert not commutes_with_permutation(
            parse_formula("!R(x) & last(x, '0')"), structure, db2, SWAP
        )


@pytest.fixture()
def db_file(tmp_path):
    spec = {
        "alphabet": "01",
        "relations": {"R": [["0110"], ["001"], ["11"]]},
    }
    path = tmp_path / "db.json"
    path.write_text(json.dumps(spec))
    return str(path)


class TestCli:
    def test_run(self, capsys, db_file):
        code = main(["run", "R(x) & last(x, '1')", "--db", db_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "001" in out and "11" in out and "0110" not in out

    def test_run_direct_engine(self, capsys, db_file):
        code = main(
            ["run", "R(x)", "--db", db_file, "--engine", "direct"]
        )
        assert code == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 4  # header+3

    def test_run_unsafe_without_limit(self, capsys, db_file):
        code = main(["run", "last(x, '0')", "--db", db_file])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_run_unsafe_with_limit(self, capsys, db_file):
        code = main(["run", "last(x, '0')", "--db", db_file, "--limit", "3"])
        assert code == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 4

    def test_safety(self, capsys, db_file):
        assert main(["safety", "R(x)", "--db", db_file]) == 0
        assert "SAFE" in capsys.readouterr().out
        assert main(["safety", "!R(x)", "--db", db_file]) == 0
        assert "UNSAFE" in capsys.readouterr().out

    def test_sql(self, capsys, db_file):
        code = main(
            ["sql", "SELECT r.1 FROM R r WHERE r.1 LIKE '0%'", "--db", db_file]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "0110" in out and "001" in out and "11" not in out.splitlines()[1:]

    def test_language(self, capsys):
        code = main(
            ["language", "matches(x, '(00)*')", "--structure", "S_reg"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "star-free: False" in out

    def test_signature_error_reported(self, capsys, db_file):
        code = main(["run", "el(x, x)", "--db", db_file])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_run_stream_done_frame_reports_plan_and_finiteness(
        self, capsys, db_file
    ):
        # The done frame names the backend the planner chose (never the
        # "auto" request) and whether the answer is finite, --limit or not.
        planned = Query("R(x)").plan(load_database(db_file)).engine
        code = main(["run", "R(x)", "--db", db_file, "--stream", "--limit", "5"])
        assert code == 0
        done = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert done["frame"] == "done" and done["row_count"] == 3
        assert done["engine"] == planned and done["engine"] in backend_names()
        assert done["finite"] is True
        code = main(
            ["run", "last(x, '0')", "--db", db_file, "--stream", "--limit", "3"]
        )
        assert code == 0
        done = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert done["finite"] is False and done["row_count"] == 3

    def test_serve_stdio_refuses_quota_rate(self, capsys):
        code = main(["serve", "--stdio", "--quota-rate", "5"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --quota-rate applies only to TCP")
