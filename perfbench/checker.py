"""Output checker that shares no code with the package under test.

It reads combinational ASCII AIGER, simulates circuits bit-parallel with
numpy, and counts reachable AND nodes and logic depth. Simulation is exhaustive up to 16 inputs and uses seeded
random vectors above that.
"""

from __future__ import annotations

import csv
import math

import numpy as np

EXHAUSTIVE_LIMIT = 16
RANDOM_WORDS = 128  # 8192 random vectors above the exhaustive limit
_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


class Circuit:
    """A combinational AIG as read from AIGER: input variables, output
    literals and AND definitions ``var -> (lit0, lit1)``."""

    def __init__(self, inputs: list[int], outputs: list[int],
                 ands: dict[int, tuple[int, int]]):
        self.inputs = inputs
        self.outputs = outputs
        self.ands = ands
        self.cone = _cone(self)

    @property
    def size(self) -> int:
        """AND nodes reachable from an output."""
        return len(self.cone)

    @property
    def depth(self) -> int:
        level = {0: 0, **{v: 0 for v in self.inputs}}
        for v in self.cone:
            a, b = self.ands[v]
            level[v] = 1 + max(level[a >> 1], level[b >> 1])
        return max((level[o >> 1] for o in self.outputs), default=0)

    @property
    def adp(self) -> int:
        return self.size * self.depth


def _cone(c: Circuit) -> list[int]:
    """AND variables reachable from the outputs, fanins first."""
    order: list[int] = []
    state: dict[int, int] = {}
    for root in (o >> 1 for o in c.outputs):
        stack = [root]
        while stack:
            v = stack[-1]
            if v not in c.ands or state.get(v) == 2:
                stack.pop()
                continue
            if state.get(v) == 1:
                state[v] = 2
                order.append(v)
                stack.pop()
                continue
            state[v] = 1
            for lit in c.ands[v]:
                if state.get(lit >> 1) == 1:
                    raise ValueError(f"cycle through variable {lit >> 1}")
                stack.append(lit >> 1)
    return order


def read_aiger(data: bytes) -> Circuit:
    """Parses ASCII AIGER (the format aigopt writes); raises ValueError on
    malformed or sequential input."""
    lines = data.split(b"\n")
    fields = lines[0].split()
    if len(fields) < 6 or fields[0] != b"aag":
        raise ValueError(f"bad AIGER header {lines[0][:40]!r}")
    m, i, latches, o, a = (int(t) for t in fields[1:6])
    if latches:
        raise ValueError("latches are not supported")
    if len(lines) < 1 + i + o + a:
        raise ValueError("truncated AIGER body")
    inputs = [int(lines[1 + k]) >> 1 for k in range(i)]
    outputs = [int(lines[1 + i + k]) for k in range(o)]
    ands = {}
    for line in lines[1 + i + o:1 + i + o + a]:
        lhs, r0, r1 = (int(t) for t in line.split())
        ands[lhs >> 1] = (r0, r1)
    known = {0, *inputs, *ands}
    refs = [lit for pair in ands.values() for lit in pair] + outputs
    if any(lit >> 1 not in known or lit >> 1 > m for lit in refs):
        raise ValueError("literal refers to an undefined variable")
    return Circuit(inputs, outputs, ands)


def input_patterns(n_inputs: int, seed: int = 0) -> np.ndarray:
    """``[n_inputs, words]`` uint64 stimulus: every input combination when
    ``n_inputs <= 16``, otherwise seeded random vectors."""
    if n_inputs > EXHAUSTIVE_LIMIT:
        rng = np.random.default_rng(seed)
        return rng.integers(0, 2 ** 64, size=(n_inputs, RANDOM_WORDS),
                            dtype=np.uint64, endpoint=False)
    n_vectors = max(64, 1 << n_inputs)
    index = np.arange(n_vectors, dtype=np.uint64)
    bits = ((index[None, :] >> np.arange(n_inputs, dtype=np.uint64)[:, None])
            & np.uint64(1)).astype(np.uint8)
    packed = np.packbits(bits, axis=1, bitorder="little")
    return packed.view(np.uint64).reshape(n_inputs, -1)


def simulate(c: Circuit, patterns: np.ndarray) -> np.ndarray:
    """Output words ``[n_outputs, words]`` for the given input patterns."""
    if patterns.shape[0] != len(c.inputs):
        raise ValueError("pattern rows must match the input count")
    values = {0: np.zeros(patterns.shape[1], dtype=np.uint64)}
    for v, row in zip(c.inputs, patterns):
        values[v] = row

    def lit(x: int) -> np.ndarray:
        w = values[x >> 1]
        return w ^ _ONES if x & 1 else w

    for v in c.cone:
        a, b = c.ands[v]
        values[v] = lit(a) & lit(b)
    return np.array([lit(o) for o in c.outputs]).reshape(
        len(c.outputs), patterns.shape[1])


def equivalent(a: Circuit, b: Circuit, seed: int = 0) -> bool:
    if len(a.inputs) != len(b.inputs) or len(a.outputs) != len(b.outputs):
        return False
    patterns = input_patterns(len(a.inputs), seed)
    return bool(np.array_equal(simulate(a, patterns), simulate(b, patterns)))


def trace_rows(path) -> list[dict]:
    """Rows of a search trace CSV (one per synthesis call)."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def within_budget(rows: list, budget: int) -> bool:
    """A trace may hold at most ``budget`` synthesis calls."""
    return len(rows) <= budget


def best_row(rows: list[dict]) -> dict:
    """The first trace row with the smallest ADP proxy."""
    return min(rows, key=lambda r: float(r["adp_proxy"]))


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))
