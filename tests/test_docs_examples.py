"""Keep the documentation executable.

Every fenced ``python -m repro ...`` command in ``docs/*.md`` (and the
README) is run as a subprocess against the tiny fixture database the docs
reference as ``db.json``; a docs edit that breaks a command fails CI.
``make docs-check`` runs just this module.
"""

import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

FIXTURE_DB = {
    "alphabet": "01",
    "relations": {"R": [["0110"], ["001"], ["11"]], "S": [["0"], ["01"]]},
}


def _doc_commands():
    """Yield (doc name, command) for every fenced `python -m repro` line."""
    for doc in sorted((REPO / "docs").glob("*.md")) + [REPO / "README.md"]:
        fenced = False
        for line in doc.read_text().splitlines():
            if line.strip().startswith("```"):
                fenced = not fenced
                continue
            stripped = line.strip()
            if fenced and stripped.startswith("python -m repro"):
                yield pytest.param(doc.name, stripped, id=f"{doc.name}:{stripped[:60]}")


COMMANDS = list(_doc_commands())


def _run(command, cwd):
    argv = shlex.split(command)
    argv[0] = sys.executable  # "python" -> this interpreter
    # No bytecode files under src/: a checkout's __pycache__ state skews
    # later start-up timings (perfbench setup_s).
    env = {
        "PYTHONPATH": str(SRC),
        "PATH": "/usr/bin:/bin",
        "PYTHONDONTWRITEBYTECODE": "1",
    }
    return subprocess.run(
        argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


def test_docs_reference_repro_commands():
    """The docs actually contain runnable commands (extraction sanity)."""
    assert len(COMMANDS) >= 5


@pytest.mark.parametrize("doc,command", COMMANDS)
def test_doc_command_runs(doc, command, tmp_path):
    (tmp_path / "db.json").write_text(json.dumps(FIXTURE_DB))
    proc = _run(command, cwd=tmp_path)
    assert proc.returncode == 0, (
        f"{doc}: `{command}` exited {proc.returncode}\n"
        f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
    )


@pytest.mark.parametrize(
    "script", ["bench_abl_engines.py", "bench_sql_patterns.py"]
)
def test_benchmark_smoke_emits_parseable_metrics(script, tmp_path):
    """`--smoke --explain-json` (the `make bench-smoke` path) produces JSON."""
    out = tmp_path / "metrics.json"
    proc = _run(
        f"python {REPO / 'benchmarks' / script} --smoke --explain-json {out}",
        cwd=REPO,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    assert payload["metrics"], f"{script}: empty metrics snapshot"
    assert payload["benchmark"] == script.removesuffix(".py")
