# strqlib developer targets.  Everything runs against the in-tree sources
# (PYTHONPATH=src); no installation required.

PY := PYTHONPATH=src python
SMOKE_DIR := .bench-smoke

.PHONY: test test-full docs-check lint-confine lint-docs bench-smoke \
	bench-algebra bench-algebra-smoke bench-kernel bench-kernel-smoke \
	bench-shard bench-shard-smoke bench-delta bench-delta-smoke \
	bench-codegen bench-codegen-smoke bench-ranf bench-ranf-smoke \
	bench-compare bench-report bench-full \
	bench-service bench-service-smoke serve-smoke clean

## Fast local loop: lints, skip @pytest.mark.slow tests, then smoke the
## perf claims cheapest to regress silently (algebra joins, the flat-array
## automata kernel, the shard scatter-gather pool, incremental delta
## maintenance, the algebra engine's fused codegen strategy, the RANF-widened
## fast-engine regime, and the asyncio service front end, each gated
## against its committed BENCH_*.json).
test: lint-confine bench-algebra-smoke bench-kernel-smoke \
		bench-shard-smoke bench-delta-smoke bench-codegen-smoke \
		bench-ranf-smoke bench-service-smoke
	$(PY) -m pytest -x -q -m "not slow"

## Fail if a confined construct escapes the modules that own it.  One
## table of rules (tools/lint_confine.py), each "forbid pattern X in
## files Y":
##   dispatch  engine-name literal comparisons (== "automata"/"direct"/
##             "algebra") outside src/repro/engine/ — the backend
##             registry stays the only dispatch path;
##   shard     sockets/pipes/subprocesses in src/repro/ outside shard/ +
##             service/, where deadlines, retries and structured errors live;
##   delta     Database._relations/._adom access outside the database
##             module and repro.delta — contents change only through the
##             MVCC delta store (docs/mutability.md);
##   codegen   exec/eval/compile builtins outside algebra/codegen.py, the
##             one audited code generator (docs/codegen_engine.md);
##   service   asyncio stream factories, raw StreamReader/StreamWriter
##             construction and event-loop ownership outside service/ +
##             shard/, where byte limits, quotas and disconnect
##             cancellation live (docs/service.md).
lint-confine:
	$(PY) tools/lint_confine.py

## Fail on dead relative links or heading anchors in README.md and
## docs/*.md (GitHub slug rules; see tools/lint_docs_links.py).
lint-docs:
	$(PY) tools/lint_docs_links.py

## The whole suite, slow tests included (what CI should run).
test-full:
	$(PY) -m pytest -x -q

## Run every fenced `python -m repro ...` command in docs/*.md against the
## tiny fixture database (keeps the documentation executable), then check
## every intra-doc link and anchor resolves.
docs-check: lint-docs
	$(PY) -m pytest tests/test_docs_examples.py -q

## Run each standalone benchmark at minimal size and assert that its
## --explain-json metrics output parses.  (The full pytest-benchmark
## suite is `make bench-full`.)
bench-smoke:
	mkdir -p $(SMOKE_DIR)
	$(PY) benchmarks/bench_abl_engines.py --smoke --explain-json $(SMOKE_DIR)/engines.json
	$(PY) benchmarks/bench_sql_patterns.py --smoke --explain-json $(SMOKE_DIR)/sql_patterns.json
	$(PY) -c "import json, glob, sys; \
paths = sorted(glob.glob('$(SMOKE_DIR)/*.json')); \
assert paths, 'no metrics JSON produced'; \
[json.load(open(p)) for p in paths]; \
print('bench-smoke: %d metrics files parse' % len(paths))"

## Set-at-a-time algebra engine vs naive Product+Select (full sweep,
## asserts the >=10x speedup and the HashJoin EXPLAIN node).
bench-algebra:
	mkdir -p $(SMOKE_DIR)
	$(PY) benchmarks/bench_algebra_joins.py --explain-json $(SMOKE_DIR)/algebra_joins.json

## Minimal sizes of the same sweep; part of `make test`'s fast path.
bench-algebra-smoke:
	mkdir -p $(SMOKE_DIR)
	$(PY) benchmarks/bench_algebra_joins.py --smoke --explain-json $(SMOKE_DIR)/algebra_joins.json

## Flat-array automata vs the dict-of-dicts reference oracle (full sweep,
## asserts the >=5x product-chain speedup and gates every measured
## speedup ratio against the committed BENCH_kernel.json baseline).
bench-kernel:
	mkdir -p $(SMOKE_DIR)
	$(PY) benchmarks/bench_kernel.py --compare --explain-json $(SMOKE_DIR)/kernel.json

## Minimal sizes of the same sweep, still gated against the baseline;
## part of `make test`'s fast path.
bench-kernel-smoke:
	mkdir -p $(SMOKE_DIR)
	$(PY) benchmarks/bench_kernel.py --smoke --compare --explain-json $(SMOKE_DIR)/kernel.json

## Multi-process scatter-gather vs single-process execution on the
## partitioned-scan shape (full sweep, asserts the >=2.5x speedup at 4
## workers and gates every ratio against BENCH_shard.json).
bench-shard:
	mkdir -p $(SMOKE_DIR)
	$(PY) benchmarks/bench_shard.py --compare --explain-json $(SMOKE_DIR)/shard.json

## Minimal size of the same sweep, still gated against the baseline;
## part of `make test`'s fast path.
bench-shard-smoke:
	mkdir -p $(SMOKE_DIR)
	$(PY) benchmarks/bench_shard.py --smoke --compare --explain-json $(SMOKE_DIR)/shard.json

## Incremental query-after-delta vs rebuild + re-register + cold re-run
## (full sweep, asserts the >=5x small-delta speedup on both shapes,
## checks automata survive deltas, gates against BENCH_delta.json).
bench-delta:
	mkdir -p $(SMOKE_DIR)
	$(PY) benchmarks/bench_delta.py --compare --explain-json $(SMOKE_DIR)/delta.json

## Minimal sizes of the same sweep, still gated against the baseline;
## part of `make test`'s fast path.
bench-delta-smoke:
	mkdir -p $(SMOKE_DIR)
	$(PY) benchmarks/bench_delta.py --smoke --compare --explain-json $(SMOKE_DIR)/delta.json

## Compiled fused pipelines vs the interpreted algebra executor (full
## sweep, asserts the >=2x warm-closure speedup on both shapes, checks
## the auto plan runs the algebra engine fused with a CodegenPipeline node,
## and gates every ratio against BENCH_codegen.json).
bench-codegen:
	mkdir -p $(SMOKE_DIR)
	$(PY) benchmarks/bench_codegen.py --compare --explain-json $(SMOKE_DIR)/codegen.json

## Minimal sizes of the same sweep, still gated against the baseline;
## part of `make test`'s fast path.
bench-codegen-smoke:
	mkdir -p $(SMOKE_DIR)
	$(PY) benchmarks/bench_codegen.py --smoke --compare --explain-json $(SMOKE_DIR)/codegen.json

## RANF-widened regime vs the automata baseline on six shapes the old
## algebra gate rejected (full sweep, asserts the >=5x speedup on at
## least three prefix-quantified shapes, checks the auto planner flips
## to the fast engine there, and gates every ratio against
## BENCH_ranf.json; see docs/ranf_translation.md).
bench-ranf:
	mkdir -p $(SMOKE_DIR)
	$(PY) benchmarks/bench_ranf.py --compare --explain-json $(SMOKE_DIR)/ranf.json

## Minimal sizes of the same sweep, still gated against the baseline;
## part of `make test`'s fast path.
bench-ranf-smoke:
	mkdir -p $(SMOKE_DIR)
	$(PY) benchmarks/bench_ranf.py --smoke --compare --explain-json $(SMOKE_DIR)/ranf.json

## Re-measure and gate without the full pytest run (alias kept for the
## name used in docs; exits non-zero on any >1.3x speedup regression).
bench-compare: bench-kernel bench-shard bench-delta bench-codegen bench-ranf

## One markdown table over every committed BENCH_*.json baseline: each
## workload key with its committed speedup ratio, grouped per bench,
## plus the per-bench best/worst/median summary (tools/bench_trajectory.py).
bench-report:
	$(PY) tools/bench_trajectory.py

bench-full:
	$(PY) -m pytest benchmarks/ --benchmark-only

## Concurrent-client latency/throughput of the asyncio front end:
## 1/64/512 closed-loop clients against one 8-worker pool, streamed and
## plain answers asserted identical, each level's warm req/s (best of
## five windows) gated against BENCH_service.json (docs/service.md).
bench-service:
	mkdir -p $(SMOKE_DIR)
	$(PY) benchmarks/bench_service.py --compare --explain-json $(SMOKE_DIR)/service.json

## Levels 1 and 64 only, still gated against the baseline; part of
## `make test`'s fast path.
bench-service-smoke:
	mkdir -p $(SMOKE_DIR)
	$(PY) benchmarks/bench_service.py --smoke --compare --explain-json $(SMOKE_DIR)/service.json

## One NDJSON round-trip through `python -m repro serve --stdio`:
## register a database, run a query, check the rows, exit 0 on EOF.
serve-smoke:
	printf '%s\n' \
	'{"op":"register_db","id":1,"name":"main","db":{"alphabet":"01","relations":{"R":[["0110"],["001"],["11"]]}}}' \
	'{"op":"run","id":2,"query":"R(x)","db":"main"}' \
	| $(PY) -m repro serve --stdio \
	| $(PY) -c "import json, sys; \
	rs = [json.loads(line) for line in sys.stdin]; \
	assert [r['ok'] for r in rs] == [True, True], rs; \
	assert rs[1]['rows'] == [['001'], ['0110'], ['11']], rs; \
	print('serve-smoke: stdio round-trip OK')"

clean:
	rm -rf $(SMOKE_DIR) .pytest_cache
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
