"""Tests for tools/lint_confine.py: every rule flags a planted offender,
spares the modules it exempts, and finds the real tree clean."""

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tools"))
import lint_confine  # noqa: E402

RULES = {rule.name: rule for rule in lint_confine.RULES}

#: plant -> (offending file, offending line, an exempt or unscanned file);
#: a plant named ``rule:what`` is a further plant of ``rule``.
PLANTS = {
    "dispatch": (
        "src/repro/core/pick.py",
        'if plan.engine == "automata":',
        "src/repro/engine/pick.py",
    ),
    "shard": (
        "src/repro/eval/spawn.py",
        "import subprocess",
        "src/repro/shard/spawn.py",
    ),
    "delta": (
        "benchmarks/poke.py",
        'db._relations["R"] = set()',
        "src/repro/delta/poke.py",
    ),
    "codegen": (
        "src/repro/eval/dyn.py",
        "fn = eval(source)",
        "src/repro/algebra/codegen.py",
    ),
    "service": (
        "src/repro/engine/loop.py",
        "loop = asyncio.new_event_loop()",
        "src/repro/service/loop.py",
    ),
    "literals": (
        "src/repro/eval/lit.py",
        'term = StrConst("01")',
        "src/repro/logic/lit.py",
    ),
    "rows": (
        "src/repro/eval/direct.py",
        "relation = RelationAutomaton.from_tuples(alphabet, 1, rows)",
        "src/repro/eval/automata_engine.py",
    ),
    "queue": (
        "src/repro/service/pool.py",
        "import queue",
        "src/repro/service/quota.py",
    ),
    "evict": (
        "src/repro/algebra/memo.py",
        "_MEMO.pop(next(iter(_MEMO)), None)",
        "src/repro/engine/cache.py",
    ),
    "executor": (
        "src/repro/engine/interp.py",
        "from repro.algebra.exec import AlgebraExecutor",
        "tests/_reference_algebra.py",
    ),
    "executor:plan": (
        "src/repro/algebra/plan.py",
        "def evaluate(self, db, structure, params=()):",
        "src/repro/algebra/dialects.py",
    ),
    "executor:cse": (
        "src/repro/engine/interp.py",
        "from repro.algebra.optimize import evaluate_with_cse",
        "tests/_reference_algebra.py",
    ),
    "future": (
        "src/repro/shard/waiter.py",
        "done = threading.Event()",
        "src/repro/service/server.py",
    ),
    "numpy": (
        "src/repro/algebra/columnar.py",
        "import numpy as np",
        "src/repro/automata/dfa.py",
    ),
    "maintain": (
        "src/repro/engine/incremental.py",
        "maintained = maintenance.maintain_algebra_result(plan, database)",
        "tools/lint_confine.py",
    ),
    "compile": (
        "src/repro/algebra/pairs.py",
        "pair = RanfPair(branch, compiled, fin, None, inf)",
        "tests/test_ranf.py",
    ),
    "compile:probe": (
        "src/repro/engine/costing.py",
        "translated = ranf.translation_probe(formula, structure, schema, slack)",
        "tools/lint_confine.py",
    ),
    "compile:cache": (
        "src/repro/algebra/memo.py",
        '_PAIRS = registered("algebra.ranf.translation_cache", 64)',
        "tests/test_bounded_caches.py",
    ),
    "compile:optimize": (
        "src/repro/algebra/optimize.py",
        "compiled = compile_query(formula, structure, schema, slack=slack)",
        "src/repro/core/query.py",
    ),
}


def _plant(root: pathlib.Path, rel: str, line: str) -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(f'"""A planted module."""\n{line}\n', encoding="utf-8")


def test_one_rule_per_confinement():
    assert set(RULES) == {name.partition(":")[0] for name in PLANTS}


@pytest.mark.parametrize("name", sorted(PLANTS))
def test_rule_flags_planted_offender(tmp_path, name):
    offender, line, exempt = PLANTS[name]
    rule_name = name.partition(":")[0]
    _plant(tmp_path, offender, line)
    _plant(tmp_path, exempt, line)
    found = RULES[rule_name].offenders(tmp_path)
    assert f"{offender}:2: {line}" in found
    assert not any(entry.startswith(exempt) for entry in found)
    # Every other rule stays quiet about this rule's offender.
    for other, rule in RULES.items():
        if other != rule_name:
            assert not any(
                entry.startswith(offender + ":") for entry in rule.offenders(tmp_path)
            )


def test_delta_rule_flags_the_version_link(tmp_path):
    _plant(tmp_path, "src/repro/shard/peek.py", "store, number = db._version")
    _plant(tmp_path, "src/repro/shard/fine.py",
           "n = len(store._versions) + len(repro.__version__)")
    found = RULES["delta"].offenders(tmp_path)
    assert found == ["src/repro/shard/peek.py:2: store, number = db._version"]


def test_codegen_rule_ignores_comments(tmp_path):
    _plant(tmp_path, "src/repro/eval/dyn.py", "x = 1  # never eval(source)")
    assert RULES["codegen"].offenders(tmp_path) == []


@pytest.mark.parametrize("name", sorted(RULES))
def test_real_tree_is_clean(name):
    assert RULES[name].offenders() == []
