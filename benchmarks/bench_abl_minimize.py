"""ABL-3: ablation — Moore vs Hopcroft minimization.

The convolution engine minimizes after every operation; minimization is
its hot spot.  Moore's refinement (the dict-backed ``DFA.minimize``) is
O(n^2 |Sigma|) but trivially auditable; Hopcroft's, as the dense kernel
runs it (:func:`repro.automata.kernel.minimize_dfa`), is
O(n |Sigma| log n).  This bench measures both on growing machines and
asserts they produce identical minimal automata.
"""

import pytest

from repro.automata import DFA, compile_regex, dfa_from_finite_language, equivalent
from repro.automata.kernel import minimize_dfa
from repro.strings import BINARY

from _common import measure, print_table


def _bloated_machine(n_words: int, seed: int = 3) -> DFA:
    """A deliberately non-minimal DFA: finite language double-complemented."""
    import random

    rng = random.Random(seed)
    words = {
        "".join(rng.choice("01") for _ in range(rng.randint(0, 12)))
        for _ in range(n_words)
    }
    return dfa_from_finite_language(BINARY, words).complement().complement()


SIZES = [20, 40, 80, 160]


@pytest.mark.parametrize("n", SIZES)
def test_abl_moore(benchmark, n):
    dfa = _bloated_machine(n)
    benchmark(lambda: dfa.minimize())


@pytest.mark.parametrize("n", SIZES)
def test_abl_hopcroft(benchmark, n):
    dfa = _bloated_machine(n)
    benchmark(lambda: minimize_dfa(dfa))


def test_abl_minimize_comparison(benchmark):
    def sweep():
        rows = []
        for n in SIZES:
            dfa = _bloated_machine(n)
            moore = dfa.minimize()
            hop = minimize_dfa(dfa)
            assert equivalent(moore, hop)
            assert moore.num_states == hop.num_states
            t_moore = measure(lambda: dfa.minimize(), repeats=1)
            t_hop = measure(lambda: minimize_dfa(dfa), repeats=1)
            rows.append((n, dfa.num_states, moore.num_states, t_moore, t_hop))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "Ablation: DFA minimization algorithms",
        ["words", "input states", "minimal states", "Moore s", "Hopcroft s"],
        [(a, b, c, f"{m:.4f}", f"{h:.4f}") for a, b, c, m, h in rows],
    )
