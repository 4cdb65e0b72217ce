"""And-inverter graphs: construction, AIGER I/O, simulation, equivalence checking.

An AIG is stored as a flat node table. Node 0 is the constant-false node,
nodes 1..I are the primary inputs, and the remaining nodes are two-input
ANDs in topological order. Edges are encoded as AIGER-style literals:
``lit = 2 * node_index + complement``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .isop import var_mask

KIND_CONST = 0
KIND_PI = 1
KIND_AND = 2

CONST_FALSE = 0  # literal of the constant-false node
CONST_TRUE = 1

EXHAUSTIVE_INPUT_LIMIT = 16  # 2^16 vectors is still sub-second


class AigerError(ValueError):
    """Malformed AIGER input."""


class SequentialCircuitError(AigerError):
    """Input circuit contains latches; only combinational AIGs are supported."""


def make_lit(index: int, complement: bool = False) -> int:
    return 2 * index + (1 if complement else 0)


def lit_not(lit: int) -> int:
    return lit ^ 1


@dataclass(frozen=True)
class AigStats:
    node_count: int
    depth: int
    input_count: int
    output_count: int


class Equivalence(NamedTuple):
    equal: bool
    mode: str  # "exhaustive" | "sampled"

    def __bool__(self) -> bool:
        return self.equal


class Aig:
    """Immutable combinational and-inverter graph.

    ``ands[k]`` holds the canonical fanin literal pair of the AND node with
    node index ``1 + n_inputs + k``; both literals refer to earlier nodes.
    Only nodes reachable from an output are kept.
    """

    def __init__(self, n_inputs: int, ands: list[tuple[int, int]],
                 outputs: list[int], name: str = ""):
        self.n_inputs = n_inputs
        self.ands = ands
        self.outputs = outputs
        self.name = name

    @property
    def n_nodes(self) -> int:
        return 1 + self.n_inputs + len(self.ands)

    @property
    def n_outputs(self) -> int:
        return len(self.outputs)

    def first_and(self) -> int:
        return 1 + self.n_inputs

    def fanins(self, index: int) -> tuple[int, int]:
        return self.ands[index - self.first_and()]

    @cached_property
    def levels(self) -> list[int]:
        lv = [0] * (1 + self.n_inputs)
        for f0, f1 in self.ands:
            lv.append(1 + max(lv[f0 >> 1], lv[f1 >> 1]))
        return lv

    @cached_property
    def depth(self) -> int:
        if not self.outputs:
            return 0
        lv = self.levels
        return max(lv[o >> 1] for o in self.outputs)

    @cached_property
    def fanout_counts(self) -> list[int]:
        counts = [0] * self.n_nodes
        for f0, f1 in self.ands:
            counts[f0 >> 1] += 1
            counts[f1 >> 1] += 1
        for o in self.outputs:
            counts[o >> 1] += 1
        return counts

    def __repr__(self) -> str:
        return (f"Aig(name={self.name!r}, inputs={self.n_inputs}, "
                f"ands={len(self.ands)}, outputs={len(self.outputs)})")


class AigBuilder:
    """Constructs AIGs with structural hashing and constant folding.

    ``and_`` canonicalizes fanin order (ascending literal) and applies the
    trivial identities a*a=a, a*!a=0, a*0=0, a*1=a before consulting the
    hash table, so no duplicate AND ever enters the node list.
    """

    def __init__(self, n_inputs: int, name: str = ""):
        self.n_inputs = n_inputs
        self.name = name
        self._ands: list[tuple[int, int]] = []
        self._strash: dict[tuple[int, int], int] = {}

    def pi(self, i: int) -> int:
        if not 0 <= i < self.n_inputs:
            raise IndexError(f"primary input {i} out of range")
        return make_lit(1 + i)

    def const(self, value: bool = False) -> int:
        return CONST_TRUE if value else CONST_FALSE

    def and_(self, a: int, b: int) -> int:
        if a > b:
            a, b = b, a
        if a == CONST_FALSE:
            return CONST_FALSE
        if a == CONST_TRUE:
            return b
        if a == b:
            return a
        if a == (b ^ 1):
            return CONST_FALSE
        hit = self._strash.get((a, b))
        if hit is not None:
            return hit
        index = 1 + self.n_inputs + len(self._ands)
        self._ands.append((a, b))
        lit = make_lit(index)
        self._strash[(a, b)] = lit
        return lit

    def or_(self, a: int, b: int) -> int:
        return lit_not(self.and_(lit_not(a), lit_not(b)))

    def xor_(self, a: int, b: int) -> int:
        return self.or_(self.and_(a, lit_not(b)), self.and_(lit_not(a), b))

    def mux_(self, sel: int, hi: int, lo: int) -> int:
        return self.or_(self.and_(sel, hi), self.and_(lit_not(sel), lo))

    def finish(self, outputs: list[int]) -> Aig:
        """Sweeps unreachable ANDs and returns the immutable graph."""
        first_and = 1 + self.n_inputs
        reachable = [False] * (first_and + len(self._ands))
        stack = [o >> 1 for o in outputs]
        while stack:
            v = stack.pop()
            if v < first_and or reachable[v]:
                continue
            reachable[v] = True
            f0, f1 = self._ands[v - first_and]
            stack.append(f0 >> 1)
            stack.append(f1 >> 1)
        remap = list(range(first_and))
        kept: list[tuple[int, int]] = []
        next_index = first_and
        for k, (f0, f1) in enumerate(self._ands):
            if not reachable[first_and + k]:
                remap.append(-1)
                continue
            kept.append((make_lit(remap[f0 >> 1], bool(f0 & 1)),
                         make_lit(remap[f1 >> 1], bool(f1 & 1))))
            remap.append(next_index)
            next_index += 1
        new_outputs = [make_lit(remap[o >> 1], bool(o & 1)) for o in outputs]
        return Aig(self.n_inputs, kept, new_outputs, self.name)


# ---------------------------------------------------------------------------
# AIGER I/O (combinational subset of the AIGER 1.9 convention)
# ---------------------------------------------------------------------------

def parse_aiger(data: bytes, name: str = "") -> Aig:
    """Parses ASCII ("aag") or binary ("aig") AIGER bytes.

    Latches are rejected (sequential unsupported). The result is structurally
    hashed and its nodes are in topological order; unreachable gates are
    dropped.
    """
    if not isinstance(data, (bytes, bytearray)):
        raise TypeError("parse_aiger expects bytes")
    newline = data.find(b"\n")
    if newline < 0:
        raise AigerError("missing AIGER header line")
    header = data[:newline].split()
    if len(header) < 6 or header[0] not in (b"aag", b"aig"):
        raise AigerError(f"malformed header: {data[:newline]!r}")
    try:
        maxvar, n_in, n_latch, n_out, n_and = (int(t) for t in header[1:6])
    except ValueError as exc:
        raise AigerError(f"malformed header: {data[:newline]!r}") from exc
    if any(v < 0 for v in (maxvar, n_in, n_latch, n_out, n_and)):
        raise AigerError("negative counts in header")
    if n_latch > 0:
        raise SequentialCircuitError("sequential unsupported (latch count > 0)")
    body = data[newline + 1:]
    if header[0] == b"aag":
        inputs, outputs, gates = _parse_ascii_body(body, maxvar, n_in, n_out, n_and)
    else:
        inputs, outputs, gates = _parse_binary_body(body, maxvar, n_in, n_out, n_and)
    return _build_from_gates(inputs, outputs, gates, maxvar, name)


def _parse_ascii_body(body: bytes, maxvar: int, n_in: int, n_out: int,
                      n_and: int) -> tuple[list[int], list[int], list[tuple[int, int, int]]]:
    lines = body.split(b"\n")
    need = n_in + n_out + n_and
    if len([ln for ln in lines if ln.strip()][:need]) < need:
        raise AigerError("truncated AIGER body")
    pos = 0

    def next_line() -> bytes:
        nonlocal pos
        while pos < len(lines) and not lines[pos].strip():
            pos += 1
        if pos >= len(lines):
            raise AigerError("truncated AIGER body")
        ln = lines[pos]
        pos += 1
        return ln

    def ints(line: bytes, count: int, what: str) -> list[int]:
        tok = line.split()
        if len(tok) == count:
            try:
                return [int(t) for t in tok]
            except ValueError:
                pass
        raise AigerError(f"malformed {what} line")

    inputs = []
    for _ in range(n_in):
        lit, = ints(next_line(), 1, "input")
        if lit < 2 or lit & 1 or lit > 2 * maxvar:
            raise AigerError(f"invalid input literal {lit}")
        inputs.append(lit)
    outputs = []
    for _ in range(n_out):
        lit, = ints(next_line(), 1, "output")
        if lit < 0 or lit > 2 * maxvar + 1:
            raise AigerError(f"invalid output literal {lit}")
        outputs.append(lit)
    gates = []
    for _ in range(n_and):
        lhs, rhs0, rhs1 = ints(next_line(), 3, "and-gate")
        if lhs < 2 or lhs & 1 or lhs > 2 * maxvar:
            raise AigerError(f"invalid gate literal {lhs}")
        gates.append((lhs, rhs0, rhs1))
    return inputs, outputs, gates


def _parse_binary_body(body: bytes, maxvar: int, n_in: int, n_out: int,
                       n_and: int) -> tuple[list[int], list[int], list[tuple[int, int, int]]]:
    # Binary AIGER: inputs are implicit variables 1..I; outputs are ASCII
    # lines; gates are delta-encoded LEB128 pairs in variable order.
    if maxvar != n_in + n_and:
        raise AigerError("binary AIGER requires maxvar = inputs + ands")
    inputs = [2 * (i + 1) for i in range(n_in)]
    pos = 0
    outputs = []
    for _ in range(n_out):
        end = body.find(b"\n", pos)
        if end < 0:
            raise AigerError("truncated AIGER body")
        try:
            outputs.append(int(body[pos:end]))
        except ValueError as exc:
            raise AigerError("malformed output line") from exc
        pos = end + 1

    def read_delta() -> int:
        nonlocal pos
        value = 0
        shift = 0
        while True:
            if pos >= len(body):
                raise AigerError("truncated binary gate section")
            byte = body[pos]
            pos += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7

    gates = []
    for k in range(n_and):
        lhs = 2 * (n_in + 1 + k)
        delta0 = read_delta()
        delta1 = read_delta()
        rhs0 = lhs - delta0
        rhs1 = rhs0 - delta1
        if rhs0 < 0 or rhs1 < 0:
            raise AigerError("invalid delta encoding")
        gates.append((lhs, rhs0, rhs1))
    return inputs, outputs, gates


def _build_from_gates(inputs: list[int], outputs: list[int],
                      gates: list[tuple[int, int, int]], maxvar: int,
                      name: str) -> Aig:
    defined: dict[int, tuple[int, int] | None] = {0: None}
    pi_slot: dict[int, int] = {}
    for slot, lit in enumerate(inputs):
        var = lit >> 1
        if var in defined or var in pi_slot:
            raise AigerError(f"variable {var} defined twice")
        pi_slot[var] = slot
    gate_def: dict[int, tuple[int, int]] = {}
    for lhs, rhs0, rhs1 in gates:
        var = lhs >> 1
        if var in pi_slot or var in gate_def or var == 0:
            raise AigerError(f"variable {var} defined twice")
        gate_def[var] = (rhs0, rhs1)

    def check_ref(lit: int) -> None:
        var = lit >> 1
        if var != 0 and var not in pi_slot and var not in gate_def:
            raise AigerError(f"dangling literal {lit}")

    for rhs0, rhs1 in gate_def.values():
        check_ref(rhs0)
        check_ref(rhs1)
    for lit in outputs:
        check_ref(lit)

    builder = AigBuilder(len(inputs), name)
    lit_map: dict[int, int] = {0: CONST_FALSE}
    for var, slot in pi_slot.items():
        lit_map[2 * var] = builder.pi(slot)

    # ASCII files may list gates out of order; build depth-first.
    state: dict[int, int] = {}

    def build_var(var: int) -> None:
        stack = [var]
        while stack:
            v = stack[-1]
            if 2 * v in lit_map:
                stack.pop()
                continue
            if state.get(v) == 1:
                rhs0, rhs1 = gate_def[v]
                a = lit_map[2 * (rhs0 >> 1)] ^ (rhs0 & 1)
                b = lit_map[2 * (rhs1 >> 1)] ^ (rhs1 & 1)
                lit_map[2 * v] = builder.and_(a, b)
                state[v] = 2
                stack.pop()
                continue
            if state.get(v) == 2:
                stack.pop()
                continue
            state[v] = 1
            rhs0, rhs1 = gate_def[v]
            for r in (rhs0 >> 1, rhs1 >> 1):
                if 2 * r not in lit_map:
                    if state.get(r) == 1:
                        raise AigerError(f"cyclic gate definition at variable {r}")
                    stack.append(r)

    for var in gate_def:
        build_var(var)
    out_lits = [lit_map[2 * (o >> 1)] ^ (o & 1) for o in outputs]
    return builder.finish(out_lits)


def write_aiger(aig: Aig) -> bytes:
    """Serializes to ASCII AIGER; ``parse_aiger`` inverts it exactly."""
    n_in = aig.n_inputs
    n_and = len(aig.ands)
    lines = [f"aag {n_in + n_and} {n_in} 0 {aig.n_outputs} {n_and}"]
    for i in range(n_in):
        lines.append(str(2 * (1 + i)))
    for o in aig.outputs:
        lines.append(str(o))
    first_and = aig.first_and()
    for k, (f0, f1) in enumerate(aig.ands):
        lhs = 2 * (first_and + k)
        rhs0, rhs1 = (f0, f1) if f0 >= f1 else (f1, f0)
        lines.append(f"{lhs} {rhs0} {rhs1}")
    return ("\n".join(lines) + "\n").encode("ascii")


# ---------------------------------------------------------------------------
# Simulation and equivalence
# ---------------------------------------------------------------------------

def _eval_packed(aig: Aig, pi_words: list[int], width: int) -> list[int]:
    """Bit-parallel evaluation; each node value is one ``width``-bit integer."""
    mask = (1 << width) - 1
    words = [0] * aig.n_nodes
    for i, w in enumerate(pi_words):
        words[1 + i] = w & mask
    base = aig.first_and()
    for k, (f0, f1) in enumerate(aig.ands):
        a = words[f0 >> 1] ^ (mask if f0 & 1 else 0)
        b = words[f1 >> 1] ^ (mask if f1 & 1 else 0)
        words[base + k] = a & b
    return [(words[o >> 1] ^ (mask if o & 1 else 0)) & mask for o in aig.outputs]


def _pack_column(bits: np.ndarray) -> int:
    packed = np.packbits(bits.astype(np.uint8), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def _unpack_word(word: int, n: int) -> np.ndarray:
    raw = word.to_bytes((n + 7) // 8, "little")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8),
                         bitorder="little")[:n]


def simulate(aig: Aig, input_vectors: np.ndarray) -> np.ndarray:
    """Evaluates the AIG on a [n_vectors x n_inputs] 0/1 matrix.

    Returns a [n_vectors x n_outputs] uint8 matrix.
    """
    vectors = np.asarray(input_vectors)
    if vectors.ndim != 2 or vectors.shape[1] != aig.n_inputs:
        raise ValueError(
            f"expected shape (*, {aig.n_inputs}), got {vectors.shape}")
    n = vectors.shape[0]
    pi_words = [_pack_column(vectors[:, i]) for i in range(aig.n_inputs)]
    out_words = _eval_packed(aig, pi_words, max(n, 1))
    result = np.empty((n, aig.n_outputs), dtype=np.uint8)
    for j, w in enumerate(out_words):
        result[:, j] = _unpack_word(w, n)
    return result


def equivalent(a: Aig, b: Aig, budget: int = 1024, seed: int = 0) -> Equivalence:
    """Checks functional equality.

    Exhaustive for up to 16 inputs, otherwise ``budget`` seeded random
    vectors. Raises ValueError on input/output count mismatch.
    """
    if a.n_inputs != b.n_inputs or a.n_outputs != b.n_outputs:
        raise ValueError("interface mismatch: differing input/output counts")
    if a.n_inputs <= EXHAUSTIVE_INPUT_LIMIT:
        words = [var_mask(v, a.n_inputs) for v in range(a.n_inputs)]
        width = 1 << a.n_inputs
        return Equivalence(_eval_packed(a, words, width)
                           == _eval_packed(b, words, width), "exhaustive")
    rng = np.random.default_rng(seed)
    chunk = 4096
    remaining = budget
    while remaining > 0:
        n = min(chunk, remaining)
        vectors = rng.integers(0, 2, size=(n, a.n_inputs), dtype=np.uint8)
        if not np.array_equal(simulate(a, vectors), simulate(b, vectors)):
            return Equivalence(False, "sampled")
        remaining -= n
    return Equivalence(True, "sampled")


def stats(aig: Aig) -> AigStats:
    return AigStats(node_count=len(aig.ands), depth=aig.depth,
                    input_count=aig.n_inputs, output_count=aig.n_outputs)


def node_features(aig: Aig) -> np.ndarray:
    """Per-node feature rows used by the graph encoder.

    Columns: one-hot kind (const/PI/and2), complemented-fanin count / 2,
    level / depth, fanout / max fanout. Shape [n_nodes, 6].
    """
    n = aig.n_nodes
    feats = np.zeros((n, 6), dtype=np.float64)
    feats[0, 0] = 1.0
    for i in range(1, 1 + aig.n_inputs):
        feats[i, 1] = 1.0
    depth = aig.depth
    levels = aig.levels
    fanouts = aig.fanout_counts
    max_fanout = max(fanouts) if fanouts else 0
    base = aig.first_and()
    for k, (f0, f1) in enumerate(aig.ands):
        i = base + k
        feats[i, 2] = 1.0
        feats[i, 3] = ((f0 & 1) + (f1 & 1)) / 2.0
    if depth > 0:
        for i in range(n):
            feats[i, 4] = levels[i] / depth
    if max_fanout > 0:
        for i in range(n):
            feats[i, 5] = fanouts[i] / max_fanout
    return feats
