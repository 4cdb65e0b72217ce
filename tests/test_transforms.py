import pytest

from aigopt.aig import AigBuilder, equivalent, parse_aiger, stats, write_aiger
from aigopt.transforms import (
    RESYN2,
    Action,
    Recipe,
    apply,
    apply_recipe,
    balance,
    refactor,
    resub,
    rewrite,
)


def _and_chain(n_inputs: int) -> "AigBuilder":
    bld = AigBuilder(n_inputs, f"chain{n_inputs}")
    acc = bld.pi(0)
    for i in range(1, n_inputs):
        acc = bld.and_(acc, bld.pi(i))
    return bld.finish([acc])


# ---------------------------------------------------------------------------
# Action / Recipe
# ---------------------------------------------------------------------------

def test_action_encoding_stable():
    assert [int(a) for a in Action] == [0, 1, 2, 3, 4, 5, 6]
    assert len(Action) == 7
    assert [a.code for a in Action] == ["b", "rw", "rwz", "rf", "rfz", "rs", "rsz"]


def test_action_code_roundtrip():
    for action in Action:
        assert Action.from_code(action.code) == action
    with pytest.raises(ValueError):
        Action.from_code("bogus")


def test_recipe_parse_and_str():
    recipe = Recipe.parse("b, rw ,rfz")
    assert recipe.actions == (Action.BALANCE, Action.REWRITE, Action.REFACTOR_Z)
    assert str(recipe) == "b,rw,rfz"
    assert str(Recipe.parse(str(recipe))) == "b,rw,rfz"
    assert len(Recipe.parse("")) == 0


def test_resyn2_sequence():
    assert str(RESYN2) == "b,rw,rf,b,rw,rwz,b,rfz,rwz,b"
    assert len(RESYN2) == 10


def test_recipe_length_cap():
    long = Recipe(tuple(Action.BALANCE for _ in range(11)))
    bld = AigBuilder(2)
    g = bld.finish([bld.and_(bld.pi(0), bld.pi(1))])
    with pytest.raises(ValueError, match="exceeds"):
        apply_recipe(g, long)


# ---------------------------------------------------------------------------
# Balance
# ---------------------------------------------------------------------------

def test_balance_four_input_chain():
    g = _and_chain(4)
    assert g.depth == 3
    h = balance(g)
    assert h.depth == 2  # ceil(log2 4)
    assert bool(equivalent(g, h))


def test_balance_eight_input_chain():
    g = _and_chain(8)
    assert g.depth == 7
    h = balance(g)
    assert h.depth == 3
    assert bool(equivalent(g, h))


def test_balance_fixpoint():
    g = balance(_and_chain(8))
    again = balance(g)
    assert again.depth == g.depth


def test_balance_never_increases_depth(corpus_small):
    for g in corpus_small:
        assert balance(g).depth <= g.depth, g.name


# ---------------------------------------------------------------------------
# Rewrite
# ---------------------------------------------------------------------------

def test_rewrite_absorbs_redundant_conjunction():
    # a & (a | b) == a: the cut function collapses to a single literal.
    bld = AigBuilder(2)
    a, b = bld.pi(0), bld.pi(1)
    g = bld.finish([bld.and_(a, bld.or_(a, b))])
    assert len(g.ands) == 2
    h = rewrite(g)
    assert len(h.ands) == 0
    assert bool(equivalent(g, h))


def test_rewrite_xor_stays_three_nodes():
    bld = AigBuilder(2)
    g = bld.finish([bld.xor_(bld.pi(0), bld.pi(1))])
    h = rewrite(g)
    assert len(h.ands) <= 3
    assert bool(equivalent(g, h))


def test_rewrite_monotone_and_equivalent(corpus_small):
    for g in corpus_small:
        h = rewrite(g)
        assert len(h.ands) <= len(g.ands), g.name
        assert bool(equivalent(g, h)), g.name


def test_rewrite_zero_cost_never_increases(corpus_small):
    for g in corpus_small:
        h = rewrite(g, zero_cost=True)
        assert len(h.ands) <= len(g.ands), g.name
        assert bool(equivalent(g, h)), g.name


# ---------------------------------------------------------------------------
# Refactor
# ---------------------------------------------------------------------------

def test_refactor_collapses_redundant_cone():
    # f = (a & b) | (a & b & c): absorption inside one fanout-free cone.
    bld = AigBuilder(3)
    a, b, c = bld.pi(0), bld.pi(1), bld.pi(2)
    ab = bld.and_(a, b)
    g = bld.finish([bld.or_(ab, bld.and_(ab, c))])
    h = refactor(g)
    assert len(h.ands) < len(g.ands)
    assert bool(equivalent(g, h))


def test_refactor_monotone_and_equivalent(corpus_small):
    for g in corpus_small:
        h = refactor(g)
        assert len(h.ands) <= len(g.ands), g.name
        assert bool(equivalent(g, h)), g.name
        hz = refactor(g, zero_cost=True)
        assert len(hz.ands) <= len(g.ands), g.name
        assert bool(equivalent(g, hz)), g.name


# ---------------------------------------------------------------------------
# Resub
# ---------------------------------------------------------------------------

def test_resub_removes_structural_duplicate():
    # a&(b&c) and (a&b)&c compute the same function through different
    # associations; the second copy is substituted away.
    bld = AigBuilder(3)
    a, b, c = bld.pi(0), bld.pi(1), bld.pi(2)
    x1 = bld.and_(a, bld.and_(b, c))
    x2 = bld.and_(bld.and_(a, b), c)
    g = bld.finish([x1, x2])
    assert len(g.ands) == 4
    h = resub(g)
    assert len(h.ands) == 2
    assert bool(equivalent(g, h))


def test_resub_monotone_and_equivalent(corpus_small):
    for g in corpus_small:
        h = resub(g)
        assert len(h.ands) <= len(g.ands), g.name
        assert bool(equivalent(g, h)), g.name
        hz = resub(g, zero_cost=True)
        assert len(hz.ands) <= len(g.ands), g.name
        assert bool(equivalent(g, hz)), g.name


# ---------------------------------------------------------------------------
# apply / apply_recipe
# ---------------------------------------------------------------------------

def test_apply_constant_circuit_unchanged():
    g = parse_aiger(b"aag 0 0 0 1 0\n0\n")
    for action in Action:
        h = apply(g, action)
        assert stats(h) == stats(g)


def test_apply_balance_on_chain():
    g = _and_chain(8)
    h = apply(g, Action.BALANCE)
    assert h.depth == 3
    assert bool(equivalent(g, h))


def test_apply_preserves_interface(corpus_small):
    for g in corpus_small:
        for action in Action:
            h = apply(g, action)
            assert h.n_inputs == g.n_inputs, (g.name, action)
            assert h.n_outputs == g.n_outputs, (g.name, action)


def test_apply_deterministic(corpus_small):
    for g in corpus_small[:6]:
        for action in Action:
            first = apply(g, action)
            second = apply(g, action)
            assert write_aiger(first) == write_aiger(second), (g.name, action)


def test_apply_recipe_empty():
    g = _and_chain(4)
    out, trace = apply_recipe(g, Recipe(()))
    assert out is g
    assert trace == []


def test_apply_recipe_trace_length():
    g = _and_chain(6)
    out, trace = apply_recipe(g, RESYN2)
    assert len(trace) == len(RESYN2)
    assert trace[-1] == stats(out)


def test_baseline_recipe_reduces_adder():
    from aigopt.bench import ripple_adder

    g = ripple_adder(6)
    out, _ = apply_recipe(g, RESYN2)
    assert len(out.ands) < len(g.ands)
    assert bool(equivalent(g, out))
