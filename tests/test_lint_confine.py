"""Tests for tools/lint_confine.py: every rule flags a planted offender,
spares the modules it exempts, and finds the real tree clean."""

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tools"))
import lint_confine  # noqa: E402

RULES = {rule.name: rule for rule in lint_confine.RULES}

#: rule -> (offending file, offending line, an exempt or unscanned file)
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
}


def _plant(root: pathlib.Path, rel: str, line: str) -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(f'"""A planted module."""\n{line}\n', encoding="utf-8")


def test_one_rule_per_confinement():
    assert set(RULES) == set(PLANTS)


@pytest.mark.parametrize("name", sorted(PLANTS))
def test_rule_flags_planted_offender(tmp_path, name):
    offender, line, exempt = PLANTS[name]
    _plant(tmp_path, offender, line)
    _plant(tmp_path, exempt, line)
    found = RULES[name].offenders(tmp_path)
    assert f"{offender}:2: {line}" in found
    assert not any(entry.startswith(exempt) for entry in found)
    # Every other rule stays quiet about this rule's offender.
    for other, rule in RULES.items():
        if other != name:
            assert not any(
                entry.startswith(offender + ":") for entry in rule.offenders(tmp_path)
            )


def test_codegen_rule_ignores_comments(tmp_path):
    _plant(tmp_path, "src/repro/eval/dyn.py", "x = 1  # never eval(source)")
    assert RULES["codegen"].offenders(tmp_path) == []


@pytest.mark.parametrize("name", sorted(PLANTS))
def test_real_tree_is_clean(name):
    assert RULES[name].offenders() == []
