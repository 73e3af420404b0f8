"""ABL-3: ablation — Moore vs Hopcroft minimization.

The convolution engine minimizes after every operation; minimization is
its hot spot.  Moore's refinement (the dict-of-dicts reference in
``tests/_reference_dfa.py``) is O(n^2 |Sigma|) but trivially auditable;
Hopcroft's, as :meth:`repro.automata.DFA.minimize` runs it, is
O(n |Sigma| log n).  This bench measures both on growing machines and
asserts they produce identical minimal automata.
"""

import pathlib
import random
import sys

import pytest

from repro.automata import dfa_from_finite_language, equivalent
from repro.strings import BINARY

from _common import measure, print_table

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
from tests import _reference_dfa as reference  # noqa: E402


def _bloated_machine(n_words: int, seed: int = 3) -> reference.DFA:
    """A deliberately non-minimal DFA: finite language double-complemented."""
    rng = random.Random(seed)
    words = {
        "".join(rng.choice("01") for _ in range(rng.randint(0, 12)))
        for _ in range(n_words)
    }
    dfa = dfa_from_finite_language(BINARY, words).complement().complement()
    return reference.to_reference(dfa)


SIZES = [20, 40, 80, 160]


@pytest.mark.parametrize("n", SIZES)
def test_abl_moore(benchmark, n):
    dfa = _bloated_machine(n)
    benchmark(lambda: dfa.minimize())


@pytest.mark.parametrize("n", SIZES)
def test_abl_hopcroft(benchmark, n):
    dfa = reference.from_reference(_bloated_machine(n))
    benchmark(lambda: dfa.minimize())


def test_abl_minimize_comparison(benchmark):
    def sweep():
        rows = []
        for n in SIZES:
            dfa = _bloated_machine(n)
            arrays = reference.from_reference(dfa)
            moore = dfa.minimize()
            hop = arrays.minimize()
            assert equivalent(reference.from_reference(moore), hop)
            assert moore.num_states == hop.num_states
            t_moore = measure(lambda: dfa.minimize(), repeats=1)
            t_hop = measure(lambda: arrays.minimize(), repeats=1)
            rows.append((n, dfa.num_states, moore.num_states, t_moore, t_hop))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "Ablation: DFA minimization algorithms",
        ["words", "input states", "minimal states", "Moore s", "Hopcroft s"],
        [(a, b, c, f"{m:.4f}", f"{h:.4f}") for a, b, c, m, h in rows],
    )
