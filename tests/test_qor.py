from hypothesis import given, settings
from hypothesis import strategies as st

from aigopt.aig import AigBuilder, parse_aiger
from aigopt.bench import ripple_adder
from aigopt.qor import baseline_qor, qor, reward


def test_qor_single_and():
    bld = AigBuilder(2)
    aig = bld.finish([bld.and_(bld.pi(0), bld.pi(1))])
    assert qor(aig) == 1.0


def test_qor_empty_circuit():
    aig = parse_aiger(b"aag 0 0 0 1 0\n0\n")
    assert qor(aig) == 0.0


def test_qor_matches_stats_product():
    from aigopt.aig import stats

    aig = ripple_adder(8)
    s = stats(aig)
    assert qor(aig) == s.node_count * s.depth


def test_baseline_constant_circuit():
    aig = parse_aiger(b"aag 0 0 0 1 0\n0\n")
    assert baseline_qor(aig) == 0.0


def test_baseline_not_worse_than_input(corpus_small):
    for aig in corpus_small:
        assert baseline_qor(aig) <= qor(aig), aig.name


def test_reward_cases():
    assert reward(100.0, 100.0) == 0.0
    assert reward(50.0, 100.0) == 0.5
    # [PAPER] piecewise case: at or beyond twice the baseline the reward
    # saturates at -1.
    assert reward(250.0, 100.0) == -1.0
    assert reward(200.0, 100.0) == -1.0


def test_reward_degenerate_baseline():
    assert reward(5.0, 0.0) == 0.0


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0.0, max_value=1e9),
       st.floats(min_value=0.0, max_value=1e9))
def test_reward_always_clipped(adp, base):
    value = reward(adp, base)
    assert -1.0 <= value <= 1.0


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1e6), st.data())
def test_reward_monotone_in_adp(base, data):
    lo = data.draw(st.floats(min_value=0.0, max_value=2.0 * base - 1e-9))
    hi = data.draw(st.floats(min_value=lo, max_value=2.0 * base - 1e-9))
    assert reward(hi, base) <= reward(lo, base) + 1e-12
