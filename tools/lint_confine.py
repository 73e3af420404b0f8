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
    Attribute access on ``Database``'s private content mappings and its
    version link (``_relations``, ``_adom``, ``_version``) outside the
    database module and the MVCC delta store: contents may only change
    through ``repro.delta``, or every fingerprint-keyed cache is poisoned,
    and a snapshot reaches its store only through ``repro.delta.store_of``.
``codegen``
    Bare ``exec``/``eval``/``compile`` builtins outside
    ``algebra/codegen.py`` — the one audited code generator (comments may
    mention them; method definitions and attribute calls pass).
``service``
    Event-loop transport primitives (stream factories, raw
    ``StreamReader``/``StreamWriter`` construction, event-loop ownership)
    outside ``service/`` and ``shard/``, where the byte limit, quotas,
    and disconnect cancellation live.
``literals``
    The concrete string-literal term ``StrConst`` under ``algebra/``,
    ``engine/``, ``service/``, ``shard/`` and ``eval/``: a query's
    literals reach the engines only as template slots (``Param``), lifted
    in one place (``repro.logic.literals``).
``rows``
    ``RelationAutomaton.from_tuples`` under ``engine/``, ``shard/`` and
    ``service/`` and in ``eval/direct.py``: the restricted-domain engines
    compute finite answers, and a finite answer is its rows
    (``QueryResult(columns, rows)``), never an automaton built from them.
``queue``
    A second queue under ``service/`` (the ``queue`` module, its
    ``Queue``/``SimpleQueue``, ``heapq``) outside ``service/quota.py``:
    the weighted fair queue there is the pool's only queue, so fair
    order holds from submission to worker.
``evict``
    Hand-rolled eviction (``popitem(last=False)``, ``pop(next(iter(``)
    under ``src/`` outside ``src/repro/engine/cache.py``: a memo table is
    a :class:`~repro.engine.cache.BoundedCache`, whose one LRU policy,
    lock and counters live there.
``executor``
    A second algebra evaluator under ``src/`` (``AlgebraExecutor``,
    ``run_algebra``, ``run_ranf``, the ``repro.algebra.exec`` module,
    ``evaluate_with_cse`` and its ``_Shim``, the interpreted condition
    path ``_eval_quantifier_free``, the ``_inline_ok`` guard, and a
    ``def evaluate(`` in ``algebra/plan.py``): the compiled closure
    (``algebra/codegen.py``) runs every RA(M) plan and inlines every
    quantifier-free selection condition, and the operator-at-a-time
    interpreter lives on only as the test oracle
    (``tests/_reference_algebra.py``).
``future``
    A ``threading.Event`` in ``service/service.py`` or under ``shard/``:
    the service pool's requests and the shard pool's responses complete
    ``concurrent.futures.Future`` objects, which ``concurrent.futures.
    wait`` gathers and ``asyncio.wrap_future`` awaits, so no third
    hand-rolled completion signal grows beside them.
``numpy``
    ``import numpy`` / ``from numpy`` under ``src/`` outside
    ``automata/dfa.py``: numpy loads lazily through
    ``repro.automata.dfa._numpy``, used only by the two automata kernels
    whose vectorized twins win their bench gate, so a server start and
    every query that never builds a big automaton skip its import.
``maintain``
    ΔQ plan maintenance under ``src/`` (``maintain_algebra_result``,
    ``subplan_recorder``, the ``delta.subplans`` cache): a new version's
    algebra answer comes from the whole-result cache, result promotion
    or one closure run, however the engine was chosen, so no second way
    to compute it grows back.
``compile``
    A second formula-to-plan path or memo under ``src/`` (the
    ``RanfPair`` record, ``translation_probe``, the
    ``algebra.ranf.translation_cache`` memo) and a ``compile_query(``
    call in ``algebra/optimize.py``: the engine turns a formula into
    plans only through the RANF translator, memoized once in
    ``algebra.plans``; Theorem 4's ``compile_query`` stays the public
    API for collapsed queries.

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
    directories or files (relative to the repo root) except those under
    ``exempt`` (a trailing ``/`` marks a directory, anything else one
    file)."""

    name: str
    pattern: re.Pattern
    scanned: tuple[str, ...]
    exempt: tuple[str, ...]
    problem: str
    ok: str
    strip_comments: bool = False
    #: (file, pattern) pairs: a pattern forbidden in that one file only.
    narrow: tuple[tuple[str, re.Pattern], ...] = ()

    def files(self, root: pathlib.Path):
        for entry in self.scanned:
            base = root / entry
            for found in [base] if base.is_file() else sorted(base.rglob("*.py")):
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
            patterns = [self.pattern] + [p for f, p in self.narrow if f == rel]
            for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1
            ):
                code = line.split("#", 1)[0] if self.strip_comments else line
                if any(p.search(code) for p in patterns):
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
        # / `db._adom` / `db._version` but not `self._adom_sorted`, a local
        # `plan_relations`, `store._versions` or `repro.__version__`.
        re.compile(r"\.\s*(_relations|_adom|_version)\b"),
        scanned=("src", "benchmarks", "tools"),
        exempt=(
            "src/repro/database/instance.py",
            "src/repro/delta/",
            "tools/lint_confine.py",
        ),
        problem="direct access to Database._relations/._adom/._version "
        "outside the delta store — mutate through repro.delta."
        "VersionedDatabase and reach a snapshot's store through "
        "repro.delta.store_of instead",
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
    Rule(
        "literals",
        re.compile(r"\bStrConst\b"),
        scanned=tuple(
            f"src/repro/{d}"
            for d in ("algebra", "engine", "service", "shard", "eval")
        ),
        exempt=(),
        problem="StrConst in the engine layers — literals reach them only "
        "as template slots (repro.logic.literals.lift_literals)",
        ok="literals reach algebra/engine/service/shard/eval only as slots",
    ),
    Rule(
        "rows",
        re.compile(r"\bfrom_tuples\s*\("),
        scanned=(
            "src/repro/engine",
            "src/repro/shard",
            "src/repro/service",
            "src/repro/eval/direct.py",
        ),
        exempt=(),
        problem="an automaton built from a restricted engine's rows — a "
        "finite answer is its rows: return QueryResult(columns, rows)",
        ok="direct/algebra/sharded answers stay rows",
    ),
    Rule(
        "queue",
        re.compile(
            r"^\s*(?:import|from)\s+(?:queue|heapq)\b"
            r"|(?<![A-Za-z0-9_])queue\.Queue\s*\("
            r"|(?<![A-Za-z0-9_.])SimpleQueue\s*\("
            r"|(?<![A-Za-z0-9_.])heapq\."
        ),
        scanned=("src/repro/service",),
        exempt=("src/repro/service/quota.py",),
        problem="a second queue in the service outside service/quota.py — "
        "submit into the one fair queue (repro.service.quota.FairQueue)",
        ok="the service's one queue lives in src/repro/service/quota.py",
        strip_comments=True,
    ),
    Rule(
        "evict",
        re.compile(r"popitem\(\s*last\s*=\s*False\s*\)|pop\(\s*next\(\s*iter\("),
        scanned=("src",),
        exempt=("src/repro/engine/cache.py",),
        problem="hand-rolled eviction outside engine/cache.py — make the "
        "table a BoundedCache (repro.engine.cache.registered)",
        ok="eviction lives only in src/repro/engine/cache.py",
        strip_comments=True,
    ),
    Rule(
        "executor",
        re.compile(
            r"\b(?:AlgebraExecutor|run_algebra|run_ranf|evaluate_with_cse"
            r"|_Shim|_eval_quantifier_free|_inline_ok)\b"
            r"|repro\.algebra\.exec\b"
        ),
        scanned=("src",),
        exempt=(),
        problem="a second algebra evaluator under src/ — run the plan "
        "through its compiled closure (repro.algebra.codegen.get_pipeline, "
        "or a dialect's evaluate) and inline its conditions there",
        ok="the compiled closure is the only algebra executor",
        narrow=(
            ("src/repro/algebra/plan.py", re.compile(r"\bdef evaluate\(")),
        ),
    ),
    Rule(
        "future",
        re.compile(r"(?<![A-Za-z0-9_.])(?:threading\.)?Event\s*\("),
        scanned=("src/repro/service/service.py", "src/repro/shard"),
        exempt=(),
        problem="a hand-rolled completion signal in the service pool or the "
        "shard pool — complete a concurrent.futures.Future instead",
        ok="pool requests complete through concurrent.futures.Future",
        strip_comments=True,
    ),
    Rule(
        "numpy",
        re.compile(r"^\s*(?:import|from)\s+numpy\b"),
        scanned=("src",),
        exempt=("src/repro/automata/dfa.py",),
        problem="a numpy import outside automata/dfa.py — reach numpy "
        "through repro.automata.dfa._numpy(), past a size check",
        ok="numpy is imported only lazily, by repro.automata.dfa._numpy",
        strip_comments=True,
    ),
    Rule(
        "maintain",
        re.compile(
            r"\b(?:maintain_algebra_result|subplan_recorder)\b"
            r"|delta\.subplans\b"
        ),
        scanned=("src",),
        exempt=(),
        problem="ΔQ plan maintenance under src/ — answer a new version "
        "through the result cache, promote_result or a closure run",
        ok="a new version's algebra answer has one way to be computed",
    ),
    Rule(
        "compile",
        re.compile(
            r"\b(?:RanfPair|translation_probe)\b"
            r"|algebra\.ranf\.translation_cache\b"
        ),
        scanned=("src",),
        exempt=(),
        problem="a second compile path or translation memo under src/ — "
        "turn a formula into plans through compile_for_execution (the RANF "
        "translator, memoized in algebra.plans)",
        ok="the RANF translator is the engine's one compile path",
        narrow=(
            ("src/repro/algebra/optimize.py", re.compile(r"\bcompile_query\(")),
        ),
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
