"""Command-line interface: run string-calculus queries against JSON databases.

Usage::

    python -m repro run "R(x) & last(x, '0')" --db db.json
    python -m repro run "el(x, y)" --db db.json --structure S_len --limit 5
    python -m repro run "R(x)" --db db.json --engine direct   # force an engine
    python -m repro explain "R(x) & last(x, '0')" --db db.json
    python -m repro explain "R(x)" --db db.json --json        # machine-readable
    python -m repro safety "last(x, '0')" --db db.json
    python -m repro sql "SELECT r.1 FROM R r WHERE r.1 LIKE '0%'" --db db.json
    python -m repro language "matches(x, '(00)*')" --structure S_reg
    python -m repro run "R(x)" --db db.json --shards 4   # scatter-gather pool
    python -m repro explain "R(x)" --db db.json --shards 2  # shard decomposition
    python -m repro serve --stdio --db main=db.json    # NDJSON query service
    python -m repro serve --shards 4 --db main=db.json # sharded service

A running service accepts live data changes over the protocol — the
``insert`` / ``delete`` verbs evolve a registered database through the
MVCC delta store (O(|delta|) per change, caches maintained
incrementally; see ``docs/mutability.md``), ``db_versions`` lists the
retained snapshots, and ``unregister_db`` drops a name.

``run`` auto-selects the evaluation engine through the cost-based planner
(:mod:`repro.engine`); pass ``--engine automata|direct|algebra`` to
override.
``explain`` prints the plan tree — chosen engine, cost estimates, per-node
wall time, automaton state/transition counts, and automaton-cache hit
counters (see ``docs/explain_and_metrics.md``).

Database JSON format::

    {"alphabet": "01", "relations": {"R": [["0110"], ["001"]]}}
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro import Query, StringDatabase
from repro.core.query import definable_language, language_is_star_free
from repro.engine.backend import backend_names
from repro.engine.deadline import deadline_scope
from repro.engine.explain import execute_plan
from repro.errors import EvaluationTimeout, ReproError, UnsafeQueryError
from repro.eval import DirectEngine
from repro.sql import translate_select
from repro.structures import by_name
from repro.strings import Alphabet


class DatabaseFileError(ReproError):
    """The ``--db`` file is missing, unreadable, or not valid database JSON."""


def load_database(path: str) -> StringDatabase:
    try:
        with open(path) as f:
            spec = json.load(f)
    except OSError as exc:
        reason = exc.strerror or str(exc)
        raise DatabaseFileError(
            f"cannot read database file {path!r}: {reason}"
        ) from None
    except json.JSONDecodeError as exc:
        raise DatabaseFileError(
            f"database file {path!r} is not valid JSON: {exc}"
        ) from None
    if not isinstance(spec, dict):
        raise DatabaseFileError(
            f"database file {path!r} must hold a JSON object "
            '{"alphabet": ..., "relations": ...}'
        )
    relations_spec = spec.get("relations", {})
    if not isinstance(relations_spec, dict):
        raise DatabaseFileError(
            f"database file {path!r}: \"relations\" must be an object "
            "mapping names to lists of rows"
        )
    relations = {}
    for name, rows in relations_spec.items():
        if not isinstance(rows, list):
            raise DatabaseFileError(
                f"database file {path!r}: relation {name!r} must be a list of rows"
            )
        try:
            relations[name] = [
                (row,) if isinstance(row, str) else tuple(row) for row in rows
            ]
        except TypeError:
            raise DatabaseFileError(
                f"database file {path!r}: relation {name!r} has a non-row entry"
            ) from None
    schema_spec = spec.get("schema")
    schema = None
    if schema_spec is not None:
        from repro.database.schema import Schema

        if not isinstance(schema_spec, dict) or not all(
            isinstance(a, int) and not isinstance(a, bool)
            for a in schema_spec.values()
        ):
            raise DatabaseFileError(
                f"database file {path!r}: \"schema\" must map relation "
                "names to integer arities"
            )
        schema = Schema(schema_spec)
    return StringDatabase(spec.get("alphabet", "01"), relations, schema=schema)


def _shard_scope(args: argparse.Namespace, db: StringDatabase):
    """An ephemeral shard pool for one CLI invocation (``--shards N``).

    Registers the query's database on a fresh coordinator so the planner
    can (or, with ``--engine sharded``, must) scatter-gather; a plain
    no-op context when ``--shards`` was not given.
    """
    import contextlib

    if not getattr(args, "shards", None):
        return contextlib.nullcontext()

    @contextlib.contextmanager
    def scope():
        from repro.shard import ShardCoordinator

        with ShardCoordinator(
            shards=args.shards, scheme=args.shard_scheme
        ) as coordinator:
            coordinator.register_database("cli", db)
            yield coordinator

    return scope()


def _check_relations(q: Query, db: StringDatabase) -> None:
    missing = sorted(set(q.formula.relation_names()) - set(db.db.relation_names))
    if missing:
        have = ", ".join(sorted(db.db.relation_names)) or "none"
        raise ReproError(
            f"query mentions relation(s) {', '.join(missing)} "
            f"not present in the database (has: {have})"
        )


def cmd_run(args: argparse.Namespace) -> int:
    db = load_database(args.db)
    q = Query(args.query, structure=args.structure, alphabet=db.alphabet)
    _check_relations(q, db)
    with _shard_scope(args, db), deadline_scope(args.timeout):
        plan = q.plan(db, engine=args.engine)
        result = execute_plan(plan, db.db)
        finite = result.is_finite()
        if args.limit is not None and not finite:
            rows = sorted(result.tuples(limit=args.limit))
        else:
            rows = sorted(result.as_set())
    columns = list(result.variables)
    if args.stream:
        # Emit the answer in the protocol's streamed wire shape — the
        # same row_batch/done NDJSON frames a TCP client sees, so shell
        # pipelines can consume large answers incrementally.
        from repro.service.protocol import stream_frames
        from repro.service.service import ServiceResponse

        response = ServiceResponse(
            ok=True,
            columns=columns,
            rows=[list(row) for row in rows],
            engine=plan.engine,
            finite=finite,
        )
        for frame in stream_frames(None, response, args.page_size):
            frame.pop("id", None)
            print(json.dumps(frame))
        return 0
    print("\t".join(columns))
    for row in rows:
        print("\t".join(row))
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    db = load_database(args.db)
    q = Query(args.query, structure=args.structure, alphabet=db.alphabet)
    _check_relations(q, db)
    with _shard_scope(args, db):
        report = q.explain(db, engine=args.engine, timeout=args.timeout)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0


def cmd_safety(args: argparse.Namespace) -> int:
    db = load_database(args.db)
    q = Query(args.query, structure=args.structure, alphabet=db.alphabet)
    report = q.safety_report(db)
    if report.safe:
        print(f"SAFE: finite output with {report.output_size} tuples")
    else:
        sample = [t for t in report.result.tuples(limit=3)]
        print(f"UNSAFE: infinite output; sample {sample}")
    return 0


def cmd_sql(args: argparse.Namespace) -> int:
    db = load_database(args.db)
    translated = translate_select(args.query, db.schema)
    print(f"-- calculus ({translated.structure_name}): {translated.formula}",
          file=sys.stderr)
    structure = by_name(translated.structure_name, db.alphabet)
    result = DirectEngine(structure, db.db).run(translated.formula)
    mapping = {v: i for i, v in enumerate(result.variables)}
    print("\t".join(translated.output_variables))
    for row in sorted(result.as_set()):
        print("\t".join(row[mapping[v]] for v in translated.output_variables))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    # Imported lazily: the service package starts threads on construction
    # and the other subcommands never need it.
    from repro.service import QueryService, ServiceConfig, serve_stdio, serve_tcp

    if args.stdio and args.quota_rate is not None:
        # Quotas share a server fairly between clients; stdio has one.
        raise ReproError(
            "--quota-rate applies only to TCP serving; stdio serves a "
            "single client and has no quota"
        )
    config = ServiceConfig(
        workers=args.workers,
        max_pending=args.queue_size,
        backpressure=args.backpressure,
        default_timeout=args.default_timeout,
        shards=args.shards,
        shard_scheme=args.shard_scheme,
        warm_dir=args.warm_dir,
        quota_rate=args.quota_rate,
        quota_burst=args.quota_burst,
    )
    service = QueryService(config)
    for spec in args.db or []:
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            raise ReproError(f"--db expects NAME=FILE, got {spec!r}")
        service.register_database(name, load_database(path))
    if args.stdio:
        return serve_stdio(service)
    server = serve_tcp(service, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    sharding = f", {config.shards} shards" if config.shards else ""
    print(f"serving on {host}:{port} "
          f"({config.workers} workers, queue {config.max_pending}, "
          f"{config.backpressure}{sharding})", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close_service()
    return 0


def cmd_language(args: argparse.Namespace) -> int:
    alphabet = Alphabet(args.alphabet)
    q = Query(args.query, structure=args.structure, alphabet=alphabet)
    dfa = definable_language(q)
    star_free = language_is_star_free(q)
    print(f"minimal DFA: {dfa.num_states} states")
    print(f"star-free: {star_free}")
    print(f"finite: {dfa.is_finite_language()}")
    sample = list(dfa.iter_strings(max_length=4))[:10]
    print(f"sample (len<=4): {sample}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="String-calculus queries (PODS 2001 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_db=True):
        p.add_argument("query")
        if with_db:
            p.add_argument("--db", required=True, help="JSON database file")
        p.add_argument(
            "--structure",
            default="S",
            choices=["S", "S_left", "S_reg", "S_len", "S_insert"],
        )

    p_run = sub.add_parser("run", help="evaluate a calculus query")
    common(p_run)
    # Engine names come from the backend registry, not a hardcoded list:
    # unknown names are rejected by the registry itself with the full
    # list of registered backends (clean exit-1 error).
    engines = ", ".join(backend_names())
    p_run.add_argument(
        "--engine",
        default="auto",
        metavar="ENGINE",
        help=f"evaluation engine: auto (cost-based planner) or one of {engines}",
    )
    p_run.add_argument("--limit", type=int, default=None,
                       help="sample size for infinite outputs")
    p_run.add_argument("--shards", type=int, default=0, metavar="N",
                       help="evaluate over an ephemeral pool of N shard "
                            "worker processes (see docs/sharding.md)")
    p_run.add_argument("--shard-scheme", choices=["hash", "relation"],
                       default="hash", dest="shard_scheme",
                       help="partitioning scheme for --shards")
    p_run.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget; exceeded -> clean timeout error (exit 3)",
    )
    p_run.add_argument(
        "--stream", action="store_true",
        help="emit NDJSON row_batch/done frames (the service's streamed "
             "wire shape) instead of a TSV table",
    )
    p_run.add_argument(
        "--page-size", type=int, default=256, dest="page_size",
        metavar="N", help="rows per row_batch frame with --stream",
    )
    p_run.set_defaults(func=cmd_run)

    p_explain = sub.add_parser(
        "explain",
        help="show the evaluation plan: engine choice, timings, cache/automata metrics",
    )
    common(p_explain)
    p_explain.add_argument(
        "--engine",
        default="auto",
        metavar="ENGINE",
        help=f"force an engine ({engines}) instead of the planner's choice",
    )
    p_explain.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    p_explain.add_argument("--shards", type=int, default=0, metavar="N",
                           help="plan against an ephemeral pool of N shard "
                                "workers and show the shard decomposition")
    p_explain.add_argument("--shard-scheme", choices=["hash", "relation"],
                           default="hash", dest="shard_scheme",
                           help="partitioning scheme for --shards")
    p_explain.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget; exceeded -> clean timeout error (exit 3)",
    )
    p_explain.set_defaults(func=cmd_explain)

    p_safety = sub.add_parser("safety", help="decide state-safety (Prop 7)")
    common(p_safety)
    p_safety.set_defaults(func=cmd_safety)

    p_sql = sub.add_parser("sql", help="run a mini-SQL SELECT")
    p_sql.add_argument("query")
    p_sql.add_argument("--db", required=True)
    p_sql.set_defaults(func=cmd_sql)

    p_serve = sub.add_parser(
        "serve",
        help="serve queries over the NDJSON protocol (stdio or TCP)",
    )
    p_serve.add_argument(
        "--stdio", action="store_true",
        help="serve stdin/stdout as one NDJSON stream (exit 0 at EOF)",
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="TCP bind host")
    p_serve.add_argument("--port", type=int, default=7455,
                         help="TCP port (0 = ephemeral)")
    p_serve.add_argument("--workers", type=int, default=4,
                         help="worker pool size")
    p_serve.add_argument("--queue-size", type=int, default=64,
                         dest="queue_size",
                         help="bounded admission queue length")
    p_serve.add_argument("--backpressure", choices=["reject", "block"],
                         default="reject",
                         help="full-queue policy: fail fast or block submitters")
    p_serve.add_argument("--default-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="deadline for requests that set none")
    p_serve.add_argument("--shards", type=int, default=0, metavar="N",
                         help="partition registered databases across N "
                              "shard worker processes (0 = off)")
    p_serve.add_argument("--shard-scheme", choices=["hash", "relation"],
                         default="hash", dest="shard_scheme",
                         help="partitioning scheme for --shards")
    p_serve.add_argument("--db", action="append", default=[],
                         metavar="NAME=FILE",
                         help="register a database at startup (repeatable)")
    p_serve.add_argument("--warm-dir", default=None, dest="warm_dir",
                         metavar="DIR",
                         help="persist compiled automata here on shutdown "
                              "and lazily warm-start from it on boot")
    p_serve.add_argument("--quota-rate", type=float, default=None,
                         dest="quota_rate", metavar="RPS",
                         help="per-client token-bucket refill rate in "
                              "requests/second (TCP only; default: no "
                              "quota)")
    p_serve.add_argument("--quota-burst", type=float, default=8.0,
                         dest="quota_burst", metavar="N",
                         help="per-client token-bucket capacity")
    p_serve.set_defaults(func=cmd_serve)

    p_lang = sub.add_parser(
        "language", help="analyze the language a unary query defines"
    )
    common(p_lang, with_db=False)
    p_lang.add_argument("--alphabet", default="01")
    p_lang.set_defaults(func=cmd_language)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EvaluationTimeout as exc:
        print(f"timeout: {exc}", file=sys.stderr)
        return 3
    except UnsafeQueryError as exc:
        print(f"error: {exc} (use --limit to sample, or `safety` to inspect)",
              file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout closed early (e.g. `... | head`); exit quietly like a
        # well-behaved unix tool instead of dumping a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
