import random

import numpy as np
import pytest

from aigopt.aig import Aig, AigBuilder, _output_words
from aigopt.bench import (
    array_multiplier,
    comparator,
    mux_tree,
    random_dag,
    ripple_adder,
)


def build_random_network(seed: int, n_inputs: int, n_ops: int,
                         n_outputs: int = 4, name: str = "") -> Aig:
    """Random mixed AND/OR/XOR network used as extra corpus filler."""
    rng = random.Random(seed)
    bld = AigBuilder(n_inputs, name or f"randnet_{seed}")
    lits = [bld.pi(i) for i in range(n_inputs)]
    for _ in range(n_ops):
        a = rng.choice(lits) ^ rng.randint(0, 1)
        b = rng.choice(lits) ^ rng.randint(0, 1)
        roll = rng.random()
        if roll < 0.5:
            lits.append(bld.and_(a, b))
        elif roll < 0.8:
            lits.append(bld.or_(a, b))
        else:
            lits.append(bld.xor_(a, b))
    outs = [l for l in lits[-n_outputs:] if l >> 1 != 0] or [lits[-1]]
    return bld.finish(outs)


def simulate(aig: Aig, vectors) -> np.ndarray:
    """Evaluates ``aig`` on a [n_vectors x n_inputs] 0/1 matrix with the
    bit-parallel evaluator behind ``equivalent``: bit j of an input's word is
    its value in vector j. Returns a [n_vectors x n_outputs] uint8 matrix."""
    vectors = np.asarray(vectors)
    assert vectors.ndim == 2 and vectors.shape[1] == aig.n_inputs
    n = vectors.shape[0]
    words = [sum(int(bit) << j for j, bit in enumerate(column))
             for column in vectors.T]
    outs = _output_words(aig, words, n)
    return np.array([[w >> j & 1 for w in outs] for j in range(n)],
                    dtype=np.uint8).reshape(n, aig.n_outputs)


def small_circuits() -> list[Aig]:
    """At least 50 generated circuits, all with at most 16 inputs, so every
    equivalence check can be exhaustive."""
    circuits = []
    circuits += [ripple_adder(n) for n in range(2, 9)]
    circuits += [array_multiplier(n) for n in range(2, 7)]
    circuits += [comparator(n) for n in range(2, 9)]
    circuits += [mux_tree(k) for k in (1, 2, 3)]
    circuits += [random_dag(size, seed)
                 for size in (40, 70, 100) for seed in range(4)]
    circuits += [build_random_network(seed, 5 + seed % 8, 60 + 10 * (seed % 5))
                 for seed in range(16)]
    assert all(c.n_inputs <= 16 for c in circuits)
    assert len(circuits) >= 50
    return circuits


@pytest.fixture(scope="session")
def corpus() -> list[Aig]:
    return small_circuits()


@pytest.fixture(scope="session")
def corpus_small(corpus) -> list[Aig]:
    """A fast subset for per-test property sweeps."""
    return [c for c in corpus if len(c.ands) <= 80][:18]


@pytest.fixture
def fresh_memo():
    """The process-wide pass memo, emptied so every pass runs its code."""
    from aigopt import transforms

    transforms._MEMO.clear()
    return transforms._MEMO


@pytest.fixture
def pass_runs(monkeypatch, fresh_memo):
    """Records the memo key of every pass that actually runs, i.e. every
    memo miss, from an empty memo."""
    from aigopt import transforms

    runs = []

    def counted(action, run_pass):
        def run(aig):
            runs.append(transforms._memo_key(aig, action))
            return run_pass(aig)
        return run

    monkeypatch.setattr(transforms, "_PASSES", {
        a: counted(a, f) for a, f in transforms._PASSES.items()})
    return runs
