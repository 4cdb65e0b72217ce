import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aigopt.aig import (
    Aig,
    AigBuilder,
    AigerError,
    SequentialCircuitError,
    equivalent,
    node_features,
    parse_aiger,
    simulate,
    stats,
    write_aiger,
)
from aigopt.bench import array_multiplier, ripple_adder


def test_parse_constant_output():
    aig = parse_aiger(b"aag 0 0 0 1 0\n0\n")
    s = stats(aig)
    assert s.node_count == 0 and s.depth == 0
    assert s.input_count == 0 and s.output_count == 1
    assert aig.outputs == [0]


def test_parse_single_and_gate():
    aig = parse_aiger(b"aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n")
    s = stats(aig)
    assert s.node_count == 1 and s.depth == 1
    assert s.input_count == 2 and s.output_count == 1


def test_write_pi_wire_exact_bytes():
    bld = AigBuilder(1)
    aig = bld.finish([bld.pi(0)])
    assert write_aiger(aig) == b"aag 1 1 0 1 0\n2\n2\n"


def test_write_parse_identity_single_and():
    aig = parse_aiger(b"aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n")
    again = parse_aiger(write_aiger(aig))
    assert write_aiger(again) == write_aiger(aig)


def test_roundtrip_adder():
    aig = ripple_adder(8)
    back = parse_aiger(write_aiger(aig))
    assert write_aiger(back) == write_aiger(aig)
    assert bool(equivalent(aig, back))


def test_roundtrip_multiplier_bitexact():
    aig = array_multiplier(4)
    data = write_aiger(aig)
    assert write_aiger(parse_aiger(data)) == data


def test_write_parse_write_idempotent(corpus):
    for aig in corpus:
        first = write_aiger(aig)
        second = write_aiger(parse_aiger(first))
        assert second == first, aig.name


def test_structural_hashing_idempotent(corpus):
    for aig in corpus:
        rebuilt = parse_aiger(write_aiger(aig))
        assert len(rebuilt.ands) == len(aig.ands), aig.name


def test_parse_binary_single_and():
    # lhs=6, rhs0=4, rhs1=2: deltas 2 and 2
    data = b"aig 3 2 0 1 1\n6\n" + bytes([0x02, 0x02])
    aig = parse_aiger(data)
    s = stats(aig)
    assert s.node_count == 1 and s.input_count == 2
    out = simulate(aig, np.array([[0, 0], [0, 1], [1, 0], [1, 1]]))
    assert out.ravel().tolist() == [0, 0, 0, 1]


def test_parse_binary_matches_ascii():
    ascii_aig = parse_aiger(b"aag 4 2 0 1 2\n2\n4\n9\n6 2 4\n8 7 5\n")
    # Same circuit, binary: gates in variable order with LEB128 deltas.
    binary = b"aig 4 2 0 1 2\n9\n" + bytes([2, 2]) + bytes([1, 2])
    bin_aig = parse_aiger(binary)
    assert bool(equivalent(ascii_aig, bin_aig))


def test_latches_rejected():
    with pytest.raises(SequentialCircuitError, match="sequential"):
        parse_aiger(b"aag 3 1 1 1 0\n2\n4 2\n4\n")


@pytest.mark.parametrize("data", [
    b"",
    b"not a header\n",
    b"aag x y z\n",
    b"aag 1 1 0 1 0\n2\n",            # truncated: missing output line
    b"aag 2 1 0 1 1\n2\n4\n4 2 6\n",  # literal 6 never defined
    b"aag 2 1 0 1 1\n2\n8\n4 2 2\n",  # output var out of range
])
def test_malformed_inputs_rejected(data):
    with pytest.raises(AigerError):
        parse_aiger(data)


def _binary_aiger(aig):
    """Binary AIGER: outputs as ASCII lines, then two LEB128 deltas per
    gate in variable order."""
    n_in, n_and = aig.n_inputs, len(aig.ands)
    out = bytearray(
        f"aig {n_in + n_and} {n_in} 0 {aig.n_outputs} {n_and}\n".encode())
    for o in aig.outputs:
        out += b"%d\n" % o
    for k, (f0, f1) in enumerate(aig.ands):
        lhs = 2 * (n_in + 1 + k)
        hi, lo = max(f0, f1), min(f0, f1)
        for delta in (lhs - hi, hi - lo):
            while delta >= 0x80:
                out.append(delta & 0x7F | 0x80)
                delta >>= 7
            out.append(delta)
    return bytes(out)


_FUZZ_SEEDS = [enc(g) for g in (ripple_adder(2), array_multiplier(2))
               for enc in (write_aiger, _binary_aiger)]


def _mutate(data, edits):
    buf = bytearray(data)
    for op, pos, byte in edits:
        pos %= len(buf) + 1
        if op == 0:
            buf.insert(pos, byte)
        elif pos < len(buf):
            if op == 1:
                buf[pos] = byte
            else:
                del buf[pos]
    return bytes(buf)


def test_binary_fuzz_seeds_parse_like_ascii():
    for ascii_bytes, binary in zip(_FUZZ_SEEDS[::2], _FUZZ_SEEDS[1::2]):
        assert write_aiger(parse_aiger(binary)) == ascii_bytes


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.binary(max_size=80),
    st.builds(lambda head, tail: head + tail,
              st.sampled_from([b"aag ", b"aig "]), st.binary(max_size=80)),
    st.builds(_mutate, st.sampled_from(_FUZZ_SEEDS),
              st.lists(st.tuples(st.integers(0, 2), st.integers(0, 4096),
                                 st.integers(0, 255)),
                       min_size=1, max_size=3)),
))
def test_parse_aiger_yields_aig_or_aiger_error(data):
    try:
        aig = parse_aiger(data)
    except AigerError:
        return
    assert isinstance(aig, Aig)


def test_parse_out_of_order_gates():
    # Gate 8 is defined before its fanin gate 6; parser must topo-sort.
    aig = parse_aiger(b"aag 4 2 0 1 2\n2\n4\n8\n8 6 2\n6 2 4\n")
    bld = AigBuilder(2)
    ab = bld.and_(bld.pi(0), bld.pi(1))
    ref = bld.finish([bld.and_(ab, bld.pi(0))])
    assert bool(equivalent(aig, ref))


def test_simulate_and_truth_table():
    bld = AigBuilder(2)
    aig = bld.finish([bld.and_(bld.pi(0), bld.pi(1))])
    out = simulate(aig, np.array([[0, 0], [0, 1], [1, 0], [1, 1]]))
    assert out.ravel().tolist() == [0, 0, 0, 1]


def test_simulate_complemented_constant_output():
    aig = parse_aiger(b"aag 0 0 0 1 0\n1\n")
    out = simulate(aig, np.zeros((5, 0), dtype=np.uint8))
    assert out.ravel().tolist() == [1, 1, 1, 1, 1]


def test_simulate_adder_matches_integer_addition():
    aig = ripple_adder(8)
    rng = np.random.default_rng(42)
    vec = rng.integers(0, 2, size=(256, 16), dtype=np.uint8)
    out = simulate(aig, vec)
    a = (vec[:, :8] * (1 << np.arange(8))).sum(axis=1)
    b = (vec[:, 8:] * (1 << np.arange(8))).sum(axis=1)
    got = (out * (1 << np.arange(9))).sum(axis=1)
    assert np.array_equal(got, (a + b) % 512)


def test_simulate_width_mismatch():
    bld = AigBuilder(2)
    aig = bld.finish([bld.and_(bld.pi(0), bld.pi(1))])
    with pytest.raises(ValueError):
        simulate(aig, np.zeros((4, 3), dtype=np.uint8))


def test_simulate_deterministic(corpus_small):
    rng = np.random.default_rng(7)
    for aig in corpus_small[:6]:
        vec = rng.integers(0, 2, size=(32, aig.n_inputs), dtype=np.uint8)
        assert np.array_equal(simulate(aig, vec), simulate(aig, vec))


def test_equivalent_reflexive(corpus):
    for aig in corpus:
        verdict = equivalent(aig, aig)
        assert verdict.equal and verdict.mode == "exhaustive", aig.name


def test_equivalent_and_vs_or():
    bld = AigBuilder(2)
    g_and = bld.finish([bld.and_(bld.pi(0), bld.pi(1))])
    bld = AigBuilder(2)
    g_or = bld.finish([bld.or_(bld.pi(0), bld.pi(1))])
    verdict = equivalent(g_and, g_or)
    assert not verdict.equal


def test_equivalent_sampled_above_cutoff():
    bld1 = AigBuilder(18)
    acc = bld1.pi(0)
    for i in range(1, 18):
        acc = bld1.and_(acc, bld1.pi(i))
    wide1 = bld1.finish([acc])
    bld2 = AigBuilder(18)
    acc = bld2.pi(17)
    for i in range(16, -1, -1):
        acc = bld2.and_(acc, bld2.pi(i))
    wide2 = bld2.finish([acc])
    verdict = equivalent(wide1, wide2, budget=512)
    assert verdict.equal and verdict.mode == "sampled"


def test_equivalent_interface_mismatch():
    bld = AigBuilder(2)
    two = bld.finish([bld.and_(bld.pi(0), bld.pi(1))])
    bld = AigBuilder(3)
    three = bld.finish([bld.and_(bld.pi(0), bld.pi(2))])
    with pytest.raises(ValueError, match="interface"):
        equivalent(two, three)


def _recount_by_dfs(aig):
    """Independent node/depth recount, deliberately not using Aig caches."""
    seen = set()
    depth = {0: 0}
    for i in range(1, 1 + aig.n_inputs):
        depth[i] = 0

    def visit(v):
        if v in depth:
            return depth[v]
        f0, f1 = aig.fanins(v)
        d = 1 + max(visit(f0 >> 1), visit(f1 >> 1))
        depth[v] = d
        seen.add(v)
        return d

    import sys
    sys.setrecursionlimit(100000)
    out_depth = 0
    for o in aig.outputs:
        out_depth = max(out_depth, visit(o >> 1))
    reachable = set()
    stack = [o >> 1 for o in aig.outputs]
    while stack:
        v = stack.pop()
        if v in reachable or v <= aig.n_inputs:
            continue
        reachable.add(v)
        f0, f1 = aig.fanins(v)
        stack.extend((f0 >> 1, f1 >> 1))
    return len(reachable), out_depth


def test_stats_examples():
    aig = parse_aiger(b"aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n")
    s = stats(aig)
    assert (s.node_count, s.depth) == (1, 1)
    const = parse_aiger(b"aag 0 0 0 1 0\n0\n")
    s = stats(const)
    assert (s.node_count, s.depth) == (0, 0)


def test_stats_against_dfs_recount():
    aig = ripple_adder(8)
    nodes, depth = _recount_by_dfs(aig)
    s = stats(aig)
    assert s.node_count == nodes
    assert s.depth == depth


def test_depth_zero_iff_no_nodes(corpus):
    for aig in corpus:
        s = stats(aig)
        assert (s.depth == 0) == (s.node_count == 0), aig.name


def test_node_features_pi_row():
    aig = parse_aiger(b"aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n")
    feats = node_features(aig)
    assert feats.shape == (4, 6)
    # PI: one-hot kind slot 1, no complemented fanins, level 0
    assert feats[1, :3].tolist() == [0.0, 1.0, 0.0]
    assert feats[1, 3] == 0.0 and feats[1, 4] == 0.0


def test_node_features_complemented_and_at_max_level():
    bld = AigBuilder(2)
    top = bld.and_(bld.pi(0) ^ 1, bld.pi(1) ^ 1)
    aig = bld.finish([top])
    feats = node_features(aig)
    row = feats[aig.first_and()]
    assert row[2] == 1.0          # and2 one-hot
    assert row[3] == 1.0          # both fanins complemented
    assert row[4] == 1.0          # at max level


def test_node_features_bounds(corpus_small):
    # One-hot kind contributes exactly 1 and the three remaining slots are
    # each in [0, 1], so 4 is the tight row-sum bound.
    for aig in corpus_small:
        feats = node_features(aig)
        assert np.all(np.isfinite(feats)), aig.name
        sums = feats.sum(axis=1)
        assert np.all(sums >= 0.0) and np.all(sums <= 4.0), aig.name
