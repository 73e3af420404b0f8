#!/usr/bin/env python3
"""Fail the build if a confined construct escapes the modules that own it.

Each rule below is one "forbid pattern X in files Y" check that a
functional test suite cannot make: the offending code still passes every
test, it only bypasses a guarantee that lives in one audited place.

``dispatch``
    Engine-name literal comparisons (``== "automata"`` / ``"direct"`` /
    ``"algebra"``, ``!=`` too) outside ``src/repro/engine/``: the backend
    registry is the only dispatch path for engine names.
``shard``
    Process and socket plumbing (``socket``, ``socketserver``,
    ``subprocess``, ``multiprocessing``, ``os.pipe``, ``Pipe``) outside
    ``shard/`` and ``service/``, where deadlines, structured retryable
    errors, and dead-worker detection live.
``delta``
    Attribute access on ``Database``'s private content mappings outside
    the database module and the MVCC delta store: contents may only change
    through ``repro.delta``, or every fingerprint-keyed cache is poisoned.
``codegen``
    Bare ``exec``/``eval``/``compile`` builtins outside
    ``algebra/codegen.py`` — the one audited code generator (comments may
    mention them; method definitions and attribute calls pass).
``service``
    Event-loop transport primitives (stream factories, raw
    ``StreamReader``/``StreamWriter`` construction, event-loop ownership)
    outside ``service/`` and ``shard/``, where the byte limit, quotas,
    and disconnect cancellation live.

Run via ``make lint-confine`` (wired into ``make test``).
"""

from __future__ import annotations

import pathlib
import re
import sys
from dataclasses import dataclass

ROOT = pathlib.Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Rule:
    """Forbid ``pattern`` in the ``*.py`` files under the ``scanned``
    directories (relative to the repo root) except those under ``exempt``
    (a trailing ``/`` marks a directory, anything else one file)."""

    name: str
    pattern: re.Pattern
    scanned: tuple[str, ...]
    exempt: tuple[str, ...]
    problem: str
    ok: str
    strip_comments: bool = False

    def files(self, root: pathlib.Path):
        for entry in self.scanned:
            for found in sorted((root / entry).rglob("*.py")):
                yield found.relative_to(root).as_posix(), found

    def exempted(self, rel: str) -> bool:
        return any(
            rel.startswith(e) if e.endswith("/") else rel == e
            for e in self.exempt
        )

    def offenders(self, root: pathlib.Path = ROOT) -> list[str]:
        found: list[str] = []
        for rel, path in self.files(root):
            if self.exempted(rel):
                continue
            for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1
            ):
                code = line.split("#", 1)[0] if self.strip_comments else line
                if self.pattern.search(code):
                    found.append(f"{rel}:{lineno}: {line.strip()}")
        return found


RULES = (
    Rule(
        "dispatch",
        re.compile(r"""[=!]=\s*(?P<q>['"])(automata|direct|algebra)(?P=q)"""),
        scanned=("src/repro",),
        exempt=("src/repro/engine/",),
        problem="engine-name literal dispatch outside src/repro/engine/ — "
        "resolve through the backend registry instead (repro.engine.backend)",
        ok="no engine-name literal comparisons outside engine/",
    ),
    Rule(
        "shard",
        re.compile(
            r"(?:^\s*(?:import|from)\s+(?:socket|socketserver|subprocess|"
            r"multiprocessing)\b)"
            r"|(?<![A-Za-z0-9_.])os\.pipe\s*\("
            r"|(?<![A-Za-z0-9_.])Pipe\s*\("
        ),
        scanned=("src/repro",),
        exempt=("src/repro/shard/", "src/repro/service/"),
        problem="transport primitives (sockets/pipes/subprocesses) outside "
        "src/repro/shard/ and src/repro/service/ — route process and wire "
        "plumbing through those layers",
        ok="transport plumbing confined to src/repro/shard/ and "
        "src/repro/service/",
    ),
    Rule(
        "delta",
        # Attribute access on the exact private fields: flags `db._relations`
        # / `db._adom` but not `self._adom_sorted` or a local `plan_relations`.
        re.compile(r"\.\s*(_relations|_adom)\b(?!\w)"),
        scanned=("src", "benchmarks", "tools"),
        exempt=(
            "src/repro/database/instance.py",
            "src/repro/delta/",
            "tools/lint_confine.py",
        ),
        problem="direct access to Database._relations/._adom outside the "
        "delta store — mutate through repro.delta.VersionedDatabase instead",
        ok="database contents only change through repro.delta",
    ),
    Rule(
        "codegen",
        # A bare builtin call: no identifier or dot before the name (so
        # `re.compile(...)` and `self.compile(...)` pass) and not a method
        # definition (`def compile(` passes).
        re.compile(r"(?<!def )(?<![A-Za-z0-9_.])(exec|eval|compile)\s*\("),
        scanned=("src/repro",),
        exempt=("src/repro/algebra/codegen.py",),
        problem="exec/eval/compile outside algebra/codegen.py — dynamic code "
        "generation must stay confined to the one audited module",
        ok="dynamic code generation confined to src/repro/algebra/codegen.py",
        strip_comments=True,
    ),
    Rule(
        "service",
        re.compile(
            r"(?:asyncio\.|loop\.)"
            r"(?:start_server|open_connection|start_unix_server|"
            r"open_unix_connection|create_server|create_connection|"
            r"new_event_loop|run_until_complete)\s*\("
            r"|(?<![A-Za-z0-9_.])Stream(?:Reader|Writer)\s*\("
        ),
        scanned=("src/repro",),
        exempt=("src/repro/service/", "src/repro/shard/"),
        problem="asyncio transport primitives (servers/streams/event loops) "
        "outside src/repro/service/ and src/repro/shard/ — route wire "
        "plumbing through the service front end",
        ok="event-loop transport confined to src/repro/service/ and "
        "src/repro/shard/",
    ),
)


def main() -> int:
    failed = False
    for rule in RULES:
        bad = rule.offenders()
        if bad:
            failed = True
            print(f"lint-confine[{rule.name}]: {rule.problem}:", file=sys.stderr)
            for line in bad:
                print(f"  {line}", file=sys.stderr)
        else:
            print(f"lint-confine[{rule.name}]: ok ({rule.ok})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
