import copy

import pytest

from aigopt import transforms
from aigopt.aig import Aig, AigBuilder, equivalent, parse_aiger, write_aiger
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


def _tt_expand_bit_loop(tt, frm, to):
    """Reference: the per-minterm bit loop that the byte tables replaced."""
    if frm == to:
        return tt
    pos = [to.index(v) for v in frm]
    out = 0
    for m in range(1 << len(to)):
        idx = 0
        for j, p in enumerate(pos):
            if m >> p & 1:
                idx |= 1 << j
        if tt >> idx & 1:
            out |= 1 << m
    return out


def test_tt_expand_matches_bit_loop():
    from itertools import combinations

    leaves = (3, 5, 8, 13)
    for width in range(transforms._CUT_SIZE + 1):
        to = leaves[:width]
        for size in range(width + 1):
            for frm in combinations(to, size):
                for tt in range(1 << (1 << size)):  # every table over frm
                    expected = _tt_expand_bit_loop(tt, frm, to)
                    assert transforms._tt_expand(tt, frm, to) == expected
                    assert transforms._tt_expand(tt, frozenset(frm), to) == expected
    assert len(transforms._EXPAND) == 31  # one entry per leaf-position pattern


def _cut_rows(g):
    """``_enumerate_cuts(g)`` as the list, one row per node, of ``(leaves,
    truth table)`` cuts that it once returned: the constant's row, each
    input's one unit cut, then each AND's row."""
    cuts = transforms._enumerate_cuts(g)
    assert set(cuts) == {0, *range(g.first_and(), g.n_nodes)}  # no input row
    inputs = [[((v,), 0b10)] for v in range(1, g.first_and())]
    ands = [[(leaves, tt) for leaves, _, _, tt in cuts[v]]
            for v in range(g.first_and(), g.n_nodes)]
    return [[(leaves, tt) for leaves, _, _, tt in cuts[0]]] + inputs + ands


# sha256 of repr(_cut_rows(g)), taken before cut truth tables moved to
# byte lookup tables. On the last two circuits the per-node cut limit drops
# cuts at 235 of 324 and 106 of 218 ANDs, so the order and the truncation
# of the kept cuts are pinned, not only their truth tables.
_CUT_DIGESTS = {
    "ripple_adder_4":
        "6884cc13f29b0f238d93495a528971684015067285cfa12a6747b38182e6f039",
    "comparator_4":
        "69518cba7b064ee3a9a5fbb9f0c99567f166119173d36503cb0f434ff1d5fbec",
    "mux_tree_2":
        "3d342d121b362b08301e8817c4ed6b0861958a46ca44bc3d396d6d4a9a23ed3c",
    "array_multiplier_3":
        "24e947a1c61d42fb913f476628390b44ace45abc931ace6b49eb1181c2ade272",
    "random_dag_60_1":
        "922d64902e5433d537154e3f980f315850341d832db3da62e5125ba8ee042048",
    "array_multiplier_6":
        "f882691c6d3b4fcca7a3e09ce02badc5e6dad71e1bc40b94d7b6f9aedf871a51",
    "random_dag_400_0":
        "12c1c68320bb77f901aef218c20f6fda3cfd176dd8639e1b5a6dddd88cb5cb82",
}


def test_cut_enumeration_matches_parent_digest():
    import hashlib

    from aigopt.bench import (array_multiplier, comparator, mux_tree,
                              random_dag, ripple_adder)

    corpus = [ripple_adder(4), comparator(4), mux_tree(2),
              array_multiplier(3), random_dag(60, seed=1),
              array_multiplier(6), random_dag(400, seed=0)]
    digests = {g.name: hashlib.sha256(repr(_cut_rows(g)).encode()).hexdigest()
               for g in corpus}
    assert digests == _CUT_DIGESTS
    # An AND over the same fanin nodes as an earlier AND reuses that AND's
    # cut selection; enough of them repeat to exercise it.
    ands = array_multiplier(6).ands
    pairs = {(a >> 1, b >> 1) for a, b in ands}
    assert len(ands) - len(pairs) > len(ands) // 10


def _enumerate_cuts_reference(aig):
    """The cut enumeration without signatures: every pair of fanin cuts is
    merged as frozensets, and each kept cut's set is rebuilt from its
    leaves for the next level."""
    from aigopt.isop import tt_ones

    cuts = [[((), 0)]] + [[((v,), 0b10)] for v in range(1, 1 + aig.n_inputs)]
    sets = [[frozenset(row[0][0])] for row in cuts]
    for v, (l0, l1) in enumerate(aig.ands, aig.first_and()):
        cand = {}
        for s0, cut0 in zip(sets[l0 >> 1], cuts[l0 >> 1]):
            for s1, cut1 in zip(sets[l1 >> 1], cuts[l1 >> 1]):
                leaf_set = s0 | s1
                if len(leaf_set) > transforms._CUT_SIZE or leaf_set in cand:
                    continue
                merged = tuple(sorted(leaf_set))
                cand[leaf_set] = (len(merged), merged, cut0, cut1)
        kept = sorted(cand.values())[:transforms._CUTS_PER_NODE - 1]
        row = [((v,), 0b10)]
        for n, merged, (from0, t0), (from1, t1) in kept:
            ones = tt_ones(n)
            t0 = _tt_expand_bit_loop(t0, from0, merged) ^ (l0 & 1) * ones
            t1 = _tt_expand_bit_loop(t1, from1, merged) ^ (l1 & 1) * ones
            row.append((merged, t0 & t1))
        cuts.append(row)
        sets.append([frozenset(leaves) for leaves, _ in row])
    return cuts


def test_cut_signature_collisions_keep_fitting_cuts():
    # Nodes 3, 67 and 131 share bit 3 of a cut signature, and nodes 5 and
    # 69 share bit 5: the signatures undercount the leaves. Cuts that fit
    # are kept, and a 5-leaf union whose signature shows 4 bits is still
    # rejected by its leaf count.
    bld = AigBuilder(140)
    x3, x5, x6, x67, x69, x131 = (bld.pi(i - 1) for i in (3, 5, 6, 67, 69, 131))
    a = bld.and_(x3, x67)
    b = bld.and_(x5, x69)
    c = bld.and_(a, b)
    d = bld.and_(c, x6)
    e = bld.and_(a, x131)
    g = bld.finish([d, e])
    cuts = _cut_rows(g)
    assert cuts == _enumerate_cuts_reference(g)
    assert ((3, 67), 0b1000) in cuts[a >> 1]
    assert ((3, 5, 67, 69), 0x8000) in cuts[c >> 1]
    assert ((3, 67, 131), 0x80) in cuts[e >> 1]
    assert all(len(leaves) <= transforms._CUT_SIZE
               for row in cuts for leaves, _ in row)


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


def test_rfz_is_the_zero_cost_refactor_sweep(monkeypatch, corpus_small):
    # rfz runs the bare rebuild, with no working net: every zero-cost
    # refactor visit commits an identity copy, so the sweep writes the same
    # bytes, on the small corpus, random DAGs and every intermediate circuit
    # of seeded random ten-pass recipes.
    import random

    from aigopt.bench import array_multiplier, comparator, random_dag

    circuits = list(corpus_small)
    circuits += [random_dag(n, seed=s) for n in (60, 200, 500)
                 for s in range(3)]
    rng = random.Random(29)
    for g in (array_multiplier(5), comparator(8), random_dag(300, seed=2)):
        for _ in range(2):
            current = g
            for action in rng.choices(list(Action), k=10):
                current = transforms._PASSES[action](current)
                circuits.append(current)
    nets = []

    class Recorded(transforms._Net):
        def __init__(self, aig):
            super().__init__(aig)
            nets.append(self)

    monkeypatch.setattr(transforms, "_Net", Recorded)
    rebuilt = 0
    for c in circuits:
        rfz = transforms._PASSES[Action.REFACTOR_Z](c)
        assert not nets, c.name
        sweep = transforms._sweep(c, True, transforms._refactor_visit)
        assert len(nets) == bool(c.ands)
        nets.clear()
        assert write_aiger(rfz) == write_aiger(sweep), c.name
        rebuilt += rfz.ands != c.ands
    assert rebuilt > len(circuits) // 2  # the mirrored order shows


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


# sha256 over the AIGER bytes of rs and then rsz on each circuit, taken
# while resub still screened divisors on 64-bit simulation signatures and
# confirmed the hits on window truth tables. There, rs and rsz over these
# eight circuits committed 21 single-divisor and 1,316 pair replacements,
# and 7,860 pair signature hits failed the truth-table confirmation.
_RESUB_DIGESTS = {
    "array_multiplier_6":
        "3d37a882d6408544eca72314c7b279748a5df7742f8d0e365d42e8467cfb61ae",
    "array_multiplier_6_rw":
        "01951be23c8db8ebb943d7116f8cea35b8c7391188899b76fa426e7774d36dce",
    "comparator_12":
        "64ebcc4380a5931deae4954a718c1430661131c4ab42f87d017716e611b2f676",
    "comparator_12_rw":
        "98fd6f03b2d94192385b1c0a53f506ac01adb147f979ddcf64eb4afd0fa25906",
    "ripple_adder_12":
        "d7fffd82e772f9288d384bbe23c4964c78921c423a1c81b706fabc146b7e199e",
    "ripple_adder_12_rw":
        "cccff76cd64111cc875b6801be1d57a89c30ebb508700f3df9ebca312b8985c0",
    "random_dag_400_0":
        "a576ce682d5f3211a122c355b20d4b844a5be9007115cbdf170fcfa3be4761c0",
    "random_dag_400_0_rw":
        "78c7bd461ce5fd39210190f21da0f6115cc898e5b2bc2275f753899c34e4265b",
}

# The same, taken with a cone budget of 4 expanded nodes per root walk, so
# that the budget rejects many divisors and the per-root recount behind a
# shared memo larger than the budget decides the output.
_RESUB_BUDGET_4_DIGESTS = {
    "array_multiplier_6":
        "79b56746636cbde14a4bd802923321c44c383b1b7427b1d3c5bdf9ef43f52da9",
    "array_multiplier_6_rw":
        "e02f1fa8861aed13fc147f811ec8f30bbccf3d427d5607f0ac1cca9ddeffdbd5",
    "comparator_12":
        "64ebcc4380a5931deae4954a718c1430661131c4ab42f87d017716e611b2f676",
    "comparator_12_rw":
        "98fd6f03b2d94192385b1c0a53f506ac01adb147f979ddcf64eb4afd0fa25906",
    "ripple_adder_12":
        "d7fffd82e772f9288d384bbe23c4964c78921c423a1c81b706fabc146b7e199e",
    "ripple_adder_12_rw":
        "e444434f7949da61d14be2ebe3a149a8dda9320ee8230956f890d44073755e1b",
    "random_dag_400_0":
        "eccfec161b8917fe9e191edc8c61ff83574dffaae65945d1677cab8e0fc07f75",
    "random_dag_400_0_rw":
        "14c4714f8e8907dd27138caf5c74769d2c9c32a8f5f9ae6b001b153e8f7cfa6f",
}


# sha256 over the AIGER bytes of rf and then rfz on the same circuits, taken
# with a cone budget of 4 before refactor's MFFC walk recorded the fanins
# that its truth-table walk reads. The budget rejects cones on
# comparator_12_rw and random_dag_400_0_rw, where these differ from the
# digests at the default budget.
_REFACTOR_BUDGET_4_DIGESTS = {
    "array_multiplier_6":
        "e280a66ffe206f4effa0c43bd830b9ffda2c6c0f0bb3e37e9eb65a610cce9b04",
    "array_multiplier_6_rw":
        "e254757b231498425388268012b25472849dd8553c4902f42437dd12fa75d27b",
    "comparator_12":
        "64ebcc4380a5931deae4954a718c1430661131c4ab42f87d017716e611b2f676",
    "comparator_12_rw":
        "f901dfb3964f26e218e75c916057b3e6cee428552627f637b1c0687a4607e68d",
    "ripple_adder_12":
        "9d969ba364f4f79c0424b4f4149f62a61677c04674149f8917031845316b2355",
    "ripple_adder_12_rw":
        "677f05efc88b7fcd329d9c08cbf499791d6eaeb836ce9e59f7ba88ea5132c43d",
    "random_dag_400_0":
        "5e44093e6fac95aed340b55aa0bedc7ca0ce65222f9120b4c441e83e41352e94",
    "random_dag_400_0_rw":
        "14c4714f8e8907dd27138caf5c74769d2c9c32a8f5f9ae6b001b153e8f7cfa6f",
}


def _pass_digests(pass_) -> dict[str, str]:
    """Per circuit and its rewrite, sha256 over ``pass_``'s outputs without
    and with zero-cost replacements."""
    import hashlib

    from aigopt.bench import (array_multiplier, comparator, random_dag,
                              ripple_adder)

    digests = {}
    for g in [array_multiplier(6), comparator(12), ripple_adder(12),
              random_dag(400, seed=0)]:
        for name, circuit in ((g.name, g), (g.name + "_rw", rewrite(g))):
            h = hashlib.sha256()
            for zero_cost in (False, True):
                h.update(write_aiger(pass_(circuit, zero_cost=zero_cost)))
            digests[name] = h.hexdigest()
    return digests


def test_resub_matches_parent_digest():
    assert _pass_digests(resub) == _RESUB_DIGESTS


def test_resub_cone_budget_matches_parent_digest(monkeypatch):
    monkeypatch.setattr(transforms, "_CONE_BUDGET", 4)
    assert _pass_digests(resub) == _RESUB_BUDGET_4_DIGESTS


def test_refactor_cone_budget_matches_parent_digest(monkeypatch):
    monkeypatch.setattr(transforms, "_CONE_BUDGET", 4)
    assert _pass_digests(refactor) == _REFACTOR_BUDGET_4_DIGESTS


@pytest.mark.parametrize("budget", [256, 4])
def test_cone_tt_fanin_record_is_a_pure_cache(monkeypatch, budget):
    # Every _cone_tt walk of refactor and resub, on nets that hold the
    # replacements committed earlier in the sweep, runs again from an empty
    # fanin record: it must store the same memo, expand as many nodes and
    # resolve every fanin pair as the record holds it.
    from aigopt.bench import array_multiplier, random_dag

    cone_tt = transforms._cone_tt
    walks = prefilled = resolved = over_budget = 0

    def checked(net, roots, memo, ones, fanins):
        nonlocal walks, prefilled, resolved, over_budget
        bare_memo, bare_fanins = dict(memo), {}
        bare = cone_tt(net, roots, bare_memo, ones, bare_fanins)
        recorded = set(fanins)
        expanded = cone_tt(net, roots, memo, ones, fanins)
        assert expanded == bare and memo == bare_memo
        assert all(fanins[u] == pair for u, pair in bare_fanins.items())
        walks += 1
        prefilled += not recorded.isdisjoint(bare_fanins)
        resolved += any(pair != (net.f0[u], net.f1[u])
                        for u, pair in bare_fanins.items())
        over_budget += expanded > transforms._CONE_BUDGET
        return expanded

    monkeypatch.setattr(transforms, "_CONE_BUDGET", budget)
    monkeypatch.setattr(transforms, "_cone_tt", checked)
    for g in [array_multiplier(5), random_dag(300, seed=1)]:
        for circuit in (g, rewrite(g)):
            for pass_ in (refactor, resub):
                for zero_cost in (False, True):
                    pass_(circuit, zero_cost=zero_cost)
    assert walks > 3000 and prefilled > 2000 and resolved > 1000
    assert (over_budget > 500) == (budget == 4)


# ---------------------------------------------------------------------------
# apply / apply_recipe
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text", [
    b"aag 0 0 0 1 0\n0\n",
    b"aag 3 3 0 4 0\n2\n4\n6\n7\n1\n4\n0\n",
    b"aag 2 2 0 0 0\n2\n4\n",
], ids=["constant", "inputs", "no_outputs"])
def test_apply_returns_a_graph_without_ands_itself(pass_runs, text):
    g = parse_aiger(text)
    for action in Action:
        assert apply(g, action) is g, action
    assert pass_runs == []
    for action, run_pass in transforms._PASSES.items():
        assert write_aiger(run_pass(g)) == write_aiger(g), action


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


def test_apply_deterministic(corpus_small, fresh_memo):
    for g in corpus_small[:6]:
        for action in Action:
            first = apply(g, action)
            fresh_memo.clear()  # the second call runs the pass again
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
    assert trace[-1] is out


def test_baseline_recipe_reduces_adder():
    from aigopt.bench import ripple_adder

    g = ripple_adder(6)
    out, _ = apply_recipe(g, RESYN2)
    assert len(out.ands) < len(g.ands)
    assert bool(equivalent(g, out))


# sha256 over the AIGER bytes of each pass and of RESYN2, taken before the
# structural passes were moved onto one shared sweep. A refactor that
# changes any pass's output on any of these circuits changes its digest.
_PASS_DIGESTS = {
    "ripple_adder_4":
        "dbbd2cb4b6ee3ef714bb6634eed5a2710ccb0f46f7c7b7558240fc76a9951d6e",
    "comparator_4":
        "4d75485dccc7a68a2e7f14366a9cac838fa5db95e92d3ad48a4698278e7e8e19",
    "mux_tree_2":
        "6a1bf4d657605bdbe0b8ebb61f054074bac2f376d392223af8f59bcb4fe1fa74",
    "array_multiplier_3":
        "c9fdfcb62e1cb67fc6b9c38b4154f4ef0375bee0c188352255882621917956ac",
    "random_dag_60_1":
        "9c092c447c8ddd4c962acb596aabd30470bcb934f52f57257a2c53c2fe85136a",
}


def test_pass_outputs_match_parent_digest(fresh_memo):
    import hashlib

    from aigopt.bench import (array_multiplier, comparator, mux_tree,
                              random_dag, ripple_adder)

    corpus = [ripple_adder(4), comparator(4), mux_tree(2),
              array_multiplier(3), random_dag(60, seed=1)]
    digests = {}
    for g in corpus:
        h = hashlib.sha256()
        for action in Action:
            h.update(write_aiger(apply(g, action)))
        h.update(write_aiger(apply_recipe(g, RESYN2)[0]))
        digests[g.name] = h.hexdigest()
    assert digests == _PASS_DIGESTS


# sha256 of the AIGER bytes after every step of three seeded random ten-pass
# recipes per circuit, taken before balance was rebuilt on flat lists. The
# passes are called directly, so the memo cannot serve a stored result.
_RECIPE_DIGESTS = {
    "random_dag_400_0":
        "cbe1fdeacaac4823bf1df432c22f3bb8255648cfe324e40b30b519610c67824d",
    "array_multiplier_6":
        "a546e135924938b5d53d19d3010ac1e151406b693992a46c55c820660413cd10",
    "comparator_8":
        "60bc82250eb5638db5af60c152cc409924323106513cb1a2972178a1110f777a",
}


def test_recipe_outputs_match_parent_digest():
    import hashlib
    import random

    from aigopt.bench import array_multiplier, comparator, random_dag

    rng = random.Random(13)
    digests = {}
    for g in (random_dag(400, seed=0), array_multiplier(6), comparator(8)):
        h = hashlib.sha256()
        for _ in range(3):
            current = g
            for action in rng.choices(list(Action), k=10):
                current = transforms._PASSES[action](current)
                h.update(write_aiger(current))
        digests[g.name] = h.hexdigest()
    assert digests == _RECIPE_DIGESTS


# ---------------------------------------------------------------------------
# Trial replacements
# ---------------------------------------------------------------------------

def _rewrite_visits():
    """Walks a zero-cost rewrite over the ``_PASS_DIGESTS`` circuits,
    ``array_multiplier(4)`` and ``random_dag(400, seed=0)``, yielding
    ``(net, v, deref, cands, best)`` for every visited AND, where ``deref``
    is the visit's one ``_deref(v)``, ``cands`` lists ``(prog, leaves)`` for
    each cut the visit tries and ``best`` is ``(trial, prog, leaves)`` for
    the trial rewrite keeps, or None; after the visit, the AND takes that
    trial, so later visits see replaced nodes and negative counts."""
    from aigopt.bench import (array_multiplier, comparator, mux_tree,
                              random_dag, ripple_adder)

    for g in [ripple_adder(4), comparator(4), mux_tree(2), array_multiplier(3),
              random_dag(60, seed=1), array_multiplier(4),
              random_dag(400, seed=0)]:
        cuts = _cut_rows(g)
        net = transforms._Net(g)
        for v in range(g.first_and(), g.n_nodes):
            deref = net._deref(v)
            cands = []
            best = None
            limit = 0  # as in rewrite: ties go to the earlier cut
            for leaves, tt in cuts[v][1:]:
                if len(deref[1]) < limit:
                    break  # as in rewrite: no trial can reach the limit
                prog = transforms._resynth(tt, len(leaves))
                lits = [net.resolve(2 * w) for w in leaves]
                cands.append((prog, lits))
                trial = net.trial(v, deref, prog, lits, limit)
                if trial is not None:
                    best, limit = (trial, prog, lits), trial[0] + 1
            yield net, v, deref, cands, best
            if best is not None:
                net.commit(v, best[0])


def _rewrite_trials():
    """``(net, v, deref, prog, leaves)`` for every cut that
    ``_rewrite_visits`` tries."""
    for net, v, deref, cands, _ in _rewrite_visits():
        for prog, lits in cands:
            yield net, v, deref, prog, lits


# The recursive candidate builder that ``_compile``d programs replaced,
# kept as their reference: ``_and_reference`` folds the trivial cases, then
# reuses an AND the candidate added or the net holds, except the node being
# replaced, and ``_trial_reference`` scores the candidate on a full copy of
# the counts.
def _and_reference(net, a, b, new, own):
    if a > b:
        a, b = b, a
    if a == 0:
        return 0
    if a == 1:
        return b
    if a == b:
        return a
    if a == (b ^ 1):
        return 0
    key = (a, b)
    hit = new.get(key) or net.strash.get(key)
    if hit is None or hit == own:
        hit = new[key] = 2 * (len(net.f0) + len(new))
    return hit


def _build_reference(net, expr, leaves, new, own):
    tag = expr[0]
    if tag == "const":
        return 1 if expr[1] else 0
    if tag == "var":
        return leaves[expr[1]] ^ (1 if expr[2] else 0)
    left = _build_reference(net, expr[1], leaves, new, own)
    right = _build_reference(net, expr[2], leaves, new, own)
    if tag == "and":
        return _and_reference(net, left, right, new, own)
    return _and_reference(net, left ^ 1, right ^ 1, new, own) ^ 1


def _trial_reference(net, v, deref, expr, leaves, min_gain):
    counts, freed = deref
    gain = len(freed)
    if gain < min_gain:
        return None
    new = {}
    root = _build_reference(net, expr, leaves, new, 2 * v)
    if root >> 1 == v:
        return None
    ref, f0, f1 = net.ref, net.f0, net.f1
    n = len(f0)
    added = list(new)
    counts = dict(counts)
    stack = [root >> 1] * ref[v]
    while stack:
        u = stack.pop()
        r = counts.get(u, ref[u] if u < n else 0)
        counts[u] = r + 1
        if r == 0 and u > net.n_inputs:
            gain -= 1
            if gain < min_gain:
                return None
            a, b = (f0[u], f1[u]) if u < n else added[u - n]
            stack.append(a >> 1)
            stack.append(b >> 1)
    return gain, root, new, counts


def test_program_trials_match_recursive_build():
    # Every function of up to three variables and every cut function of the
    # corpus, over leaf vectors that reach each fold and strash case: fresh
    # inputs, the fanins of the replaced node (an AND of them hits it,
    # which counts as absent), the fanins of another AND (a strash hit),
    # nodes the deletion frees (revived), constants, and equal and
    # complementary literals. Each min_gain also reaches the early exits.
    from aigopt.bench import array_multiplier, comparator, random_dag
    from aigopt.isop import factor, isop

    tables = {(tt, n) for n in range(4) for tt in range(1 << (1 << n))}
    for g in (array_multiplier(3), comparator(4), array_multiplier(6),
              random_dag(400, seed=0)):
        for row in _cut_rows(g):
            tables.update((tt, len(leaves)) for leaves, tt in row[1:])
    g = array_multiplier(3)
    net = transforms._Net(g)
    v = max(range(g.first_and(), g.n_nodes),
            key=lambda u: len(net._deref(u)[1]))  # the largest MFFC
    deref = net._deref(v)
    freed = deref[1]
    other = g.first_and() + 3
    fresh = [2, 4, 6, 8]
    vectors = [fresh, [net.f0[v], net.f1[v], 6, 8],
               [net.f0[other], net.f1[other], 2, 4],
               [2 * u for u in freed[1:5]], [0, 4, 6, 8], [2, 1, 6, 8],
               [2, 4, 6, 0], [2, 2, 6, 8], [2, 3, 6, 8], [5, 4, 4, 9]]
    min_gains = (-len(net.ref), 0, 1, len(freed) - 1, len(freed))
    outcomes = set()
    for tt, n in sorted(tables):
        expr = factor(isop(tt, 0, n))
        prog = transforms._resynth(tt, n)
        assert prog == transforms._compile(expr, n)
        for vector in vectors:
            leaves = vector[:n]
            for min_gain in min_gains:
                got = net.trial(v, deref, prog, leaves, min_gain)
                assert got == _trial_reference(net, v, deref, expr, leaves,
                                               min_gain), (tt, n, leaves)
                outcomes.add(got is None or (len(got[2]), got[0] < 0))
    assert len(freed) > 5 and len(tables) > 600
    assert {True, (0, False), (1, False), (2, True)} <= outcomes
    resub_exprs = {(1, False): ("var", 0, False),
                   (1, True): ("var", 0, True),
                   (2, False): ("and", ("var", 0, False), ("var", 1, False)),
                   (2, True): ("or", ("var", 0, True), ("var", 1, True))}
    assert transforms._RESUB_PROGS == {
        key: transforms._compile(expr, key[0])
        for key, expr in resub_exprs.items()}


def _net_state(net):
    return (list(net.f0), list(net.f1), list(net.ref), list(net.level),
            dict(net.strash), dict(net.repl))


def _copy_net(net):
    copied = copy.copy(net)
    copied.f0, copied.f1 = list(net.f0), list(net.f1)
    copied.ref, copied.level = list(net.ref), list(net.level)
    copied.strash, copied.repl = dict(net.strash), dict(net.repl)
    return copied


def test_trial_replacement_leaves_net_unchanged():
    # Neither a trial nor one whose gain falls short of min_gain may leave
    # a trace: counts, appended nodes, strash entries, or the shared deref
    # walk that the visit's other trials reuse.
    trials = negative_counts = 0
    for net, v, deref, prog, lits in _rewrite_trials():
        negative_counts += min(net.ref) < 0
        before = _net_state(net)
        walk = (dict(deref[0]), list(deref[1]))
        assert walk == net._deref(v)
        trial = net.trial(v, deref, prog, lits, 0)
        assert _net_state(net) == before and deref == walk
        short_of = 0 if trial is None else trial[0] + 1
        assert net.trial(v, deref, prog, lits, short_of) is None
        assert _net_state(net) == before and deref == walk
        trials += 1
    assert trials > 2000 and negative_counts > 0


def test_committed_gain_equals_live_count_drop():
    # On commit, the ANDs with a positive count fall by exactly the gain.
    def live(net):
        return sum(1 for u in range(net.n_inputs + 1, len(net.ref))
                   if net.ref[u] > 0)

    commits = negative = 0
    for net, v, deref, prog, lits in _rewrite_trials():
        copied = _copy_net(net)
        before = live(copied)
        trial = copied.trial(v, deref, prog, lits, -len(net.ref))
        if trial is None:
            continue  # the candidate is v itself
        copied.commit(v, trial)
        assert before - live(copied) == trial[0]
        commits += 1
        negative += trial[0] < 0
    assert commits > 2000 and negative > 0


def test_kept_trial_commits_like_a_fresh_trial_at_min_gain():
    # Rewrite commits the trial it kept, scored at the limit its earlier
    # cuts set, instead of building the winner again at the visit's
    # min_gain: both commits must leave the same net. So a trial that
    # passes its limit may not depend on it, even at a limit equal to the
    # gain its walk ends at.
    commits = at_limit = 0
    for net, v, deref, cands, best in _rewrite_visits():
        for prog, lits in cands:
            loose = net.trial(v, deref, prog, lits, -len(net.ref))
            if loose is not None and loose[0] < len(deref[1]):
                assert net.trial(v, deref, prog, lits, loose[0]) == loose
                at_limit += 1
        if best is None:
            continue
        kept, prog, lits = best
        by_kept, by_fresh = _copy_net(net), _copy_net(net)
        by_kept.commit(v, kept)
        by_fresh.commit(v, by_fresh.trial(v, deref, prog, lits, 0))
        assert _net_state(by_kept) == _net_state(by_fresh)
        commits += 1
    assert commits > 300 and at_limit > 100


def test_every_sweep_visit_finds_its_and_live_and_unreplaced(
        monkeypatch, corpus_small):
    # _sweep dereferences every AND, skipped or visited: earlier commits
    # never free a later AND, replace it or take its strash key.
    import random

    deref = transforms._Net._deref
    visits = []

    def checked(net, v):
        assert net.ref[v] > 0 and v not in net.repl
        assert net.strash[(net.f0[v], net.f1[v])] == 2 * v
        visits.append(v)
        return deref(net, v)

    monkeypatch.setattr(transforms._Net, "_deref", checked)
    swept = [a for a in Action if a != Action.BALANCE]
    rng = random.Random(17)
    for g in corpus_small:
        for action in swept:
            transforms._PASSES[action](g)
        for _ in range(2):
            current = g
            for action in rng.choices(list(Action), k=10):
                current = transforms._PASSES[action](current)
    assert len(visits) > 10000


def test_visits_never_write_the_net(monkeypatch, corpus_small):
    # A visit only scores: _sweep alone commits, so across each visit of
    # every structural pass the counts, replacements, strash table and
    # nodes stay as they were, and so does the visit's deref walk.
    sweep = transforms._sweep
    visits = trials = 0

    def checked_sweep(aig, zero_cost, visit):
        def checked(net, v, deref, min_gain, ceiling):
            nonlocal visits, trials
            before = _net_state(net)
            walk = (dict(deref[0]), list(deref[1]))
            trial = visit(net, v, deref, min_gain, ceiling)
            assert _net_state(net) == before and deref == walk
            visits += 1
            trials += trial is not None
            return trial
        return sweep(aig, zero_cost, checked)

    monkeypatch.setattr(transforms, "_sweep", checked_sweep)
    for g in corpus_small:
        for action in Action:
            if action != Action.BALANCE:
                transforms._PASSES[action](g)
    assert visits > 2000 and trials > 1000


# ---------------------------------------------------------------------------
# Simulation signatures
# ---------------------------------------------------------------------------

def _xor_twins() -> Aig:
    """XOR built as (a&!b)|(!a&b) and as (a|b)&!(a&b), on two outputs; the
    first form's products are outputs too, so deleting the first form's
    root frees that node alone. Strash does not merge the two forms."""
    bld = AigBuilder(2, "xor_twins")
    a, b = bld.pi(0), bld.pi(1)
    p, q = bld.and_(a, b ^ 1), bld.and_(a ^ 1, b)
    x1 = bld.and_(p ^ 1, q ^ 1) ^ 1
    x2 = bld.and_(bld.and_(a ^ 1, b ^ 1) ^ 1, bld.and_(a, b) ^ 1)
    return bld.finish([x1, x2, p, q])


def test_signature_skip_is_pure(monkeypatch, corpus_small):
    # A visit's ceiling is the ANDs it frees, less one when no other node
    # has the visited node's signature: rw, rf and rs skip a visit whose
    # ceiling is below their min gain, and rewrite stops trying cuts once
    # its best trial reaches the ceiling. With every node reported twinned
    # the ceiling is the freed count, so neither happens, and the passes
    # must write the same bytes: on the small corpus, random DAGs, every
    # intermediate circuit of seeded random ten-pass recipes, and the XOR
    # twins, where rs reaches the twin through a visit that frees one AND
    # and removes the duplicate: one XOR of three ANDs over the products
    # is left.
    import random
    from functools import partial

    from aigopt.bench import array_multiplier, comparator, random_dag

    circuits = list(corpus_small)
    circuits += [random_dag(n, seed=s) for n in (60, 200, 500)
                 for s in range(3)]
    rng = random.Random(23)
    for g in (array_multiplier(4), comparator(6), random_dag(300, seed=7)):
        for _ in range(2):
            current = g
            for action in rng.choices(list(Action), k=10):
                current = transforms._PASSES[action](current)
                circuits.append(current)
    circuits.append(_xor_twins())

    def outputs():
        return [write_aiger(pass_(c)) for c in circuits
                for pass_ in (rewrite, partial(rewrite, zero_cost=True),
                              refactor, resub)]

    twinned = transforms._Net.twinned
    found = {False: 0, True: 0}

    def counted(net, v):
        hit = twinned(net, v)
        found[hit] += 1
        return hit

    # Each visit runs again with the freed count as its ceiling, which
    # must give the same trial; the stop fired where that tried more cuts.
    trial = transforms._Net.trial
    sweep = transforms._sweep
    trials = stops = 0

    def counted_trial(*args):
        nonlocal trials
        trials += 1
        return trial(*args)

    def checked_sweep(aig, zero_cost, visit):
        def checked(net, v, deref, min_gain, ceiling):
            nonlocal stops
            before = trials
            kept = visit(net, v, deref, min_gain, ceiling)
            tried = trials - before
            assert visit(net, v, deref, min_gain, len(deref[1])) == kept
            uncapped = trials - before - tried
            stops += uncapped > tried
            return kept
        return sweep(aig, zero_cost, checked)

    monkeypatch.setattr(transforms._Net, "twinned", counted)
    monkeypatch.setattr(transforms._Net, "trial", counted_trial)
    monkeypatch.setattr(transforms, "_sweep", checked_sweep)
    with_skip = outputs()
    assert found[False] > 1000 and found[True] > 100
    assert stops > 1000
    monkeypatch.setattr(transforms, "_sweep", sweep)
    skips = found[False]
    refactor(random_dag(300, seed=7))
    assert found[False] > skips  # rf reaches the skip too
    twins_before = found[True]
    xor = resub(_xor_twins())
    assert found[True] > twins_before  # the twin check ran and found it
    assert len(xor.ands) == 3 and xor.outputs[0] == xor.outputs[1]
    assert bool(equivalent(_xor_twins(), xor))
    monkeypatch.setattr(transforms._Net, "twinned", lambda net, v: True)
    assert outputs() == with_skip


def test_signatures_follow_the_net(monkeypatch):
    # The net's constructor builds the whole signature table. After rw, rf
    # and rs runs that commit, the table has one entry per net node and
    # counts them up to complement; every AND, appended ones included, has
    # the AND of its fanins' signatures; and a replaced node has its
    # resolved literal's signature.
    from collections import Counter

    from aigopt.bench import array_multiplier, comparator, random_dag

    ones = (1 << 64) - 1
    nets = []

    class Recorded(transforms._Net):
        def __init__(self, aig):
            super().__init__(aig)
            assert len(self.sig) == len(self.f0) == aig.n_nodes
            assert self.twins == Counter(s ^ ones if s & 1 else s
                                         for s in self.sig)
            nets.append(self)

    def lit_sig(sig, lit):
        return sig[lit >> 1] ^ (ones if lit & 1 else 0)

    monkeypatch.setattr(transforms, "_Net", Recorded)
    committed = appended = replaced = 0
    for g in (array_multiplier(5), comparator(8), random_dag(300, seed=1),
              _xor_twins()):
        for circuit in (g, balance(g)):
            for pass_ in (rewrite, refactor, resub):
                nets.clear()
                pass_(circuit)
                (net,) = nets
                committed += bool(net.repl)
                sig = net.sig
                assert len(sig) == len(net.f0) == len(net.ref)
                assert net.twins == Counter(s ^ ones if s & 1 else s
                                            for s in sig)
                for u in range(1 + net.n_inputs, len(sig)):
                    assert sig[u] == (lit_sig(sig, net.f0[u])
                                      & lit_sig(sig, net.f1[u]))
                for v in net.repl:
                    assert sig[v] == lit_sig(sig, net.resolve(2 * v))
                appended += len(sig) - circuit.n_nodes
                replaced += len(net.repl)
    assert committed >= 20 and appended > 100 and replaced > 100


# ---------------------------------------------------------------------------

def test_memo_shares_equal_circuits(fresh_memo, pass_runs):
    from aigopt.bench import ripple_adder

    first = apply(ripple_adder(4), Action.REWRITE)
    second = apply(ripple_adder(4), Action.REWRITE)  # built separately
    assert second is first
    assert len(pass_runs) == 1 and len(fresh_memo._entries) == 1


def test_memo_keys_on_name(fresh_memo, pass_runs):
    from aigopt.bench import ripple_adder

    g = ripple_adder(4)
    renamed = Aig(g.n_inputs, g.ands, g.outputs, name="other")
    assert apply(g, Action.REWRITE).name == g.name
    assert apply(renamed, Action.REWRITE).name == "other"
    assert len(pass_runs) == 2 and len(fresh_memo._entries) == 2


def test_pass_runs_leave_no_cyclic_garbage(fresh_memo, corpus_small):
    # apply pauses the cyclic collector during a pass run, which holds back
    # nothing only while the passes free all their objects by reference
    # count. The resynthesis cache is cleared, so that every cover is
    # compiled again.
    import gc
    import random

    from aigopt.bench import array_multiplier, random_dag

    circuits = list(corpus_small)
    rng = random.Random(31)
    for g in (array_multiplier(4), random_dag(200, seed=3)):
        for _ in range(2):
            current = g
            for action in rng.choices(list(Action), k=10):
                current = transforms._PASSES[action](current)
                circuits.append(current)
    transforms._resynth.cache_clear()
    gc.collect()
    for action in Action:
        for c in circuits:
            apply(c, action)
        assert gc.collect() == 0, action.code


@pytest.mark.parametrize("enabled", [True, False])
def test_apply_leaves_the_collector_as_it_found_it(monkeypatch, fresh_memo,
                                                   enabled):
    import gc

    from aigopt.bench import ripple_adder

    def failing(aig):
        raise RuntimeError("pass failed")

    monkeypatch.setattr(transforms, "_PASSES",
                        {**transforms._PASSES, Action.REWRITE: failing})
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        apply(ripple_adder(3), Action.BALANCE)
        assert gc.isenabled() == enabled
        with pytest.raises(RuntimeError, match="pass failed"):
            apply(ripple_adder(3), Action.REWRITE)
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_memo_stays_within_its_bounds(monkeypatch):
    # The AND total stays within the cap, except that the newest
    # min_entries entries are kept whatever their size.
    from aigopt.bench import array_multiplier, random_dag, ripple_adder

    memo = transforms._PassMemo(max_ands=200, min_entries=3)
    monkeypatch.setattr(transforms, "_MEMO", memo)
    circuits = [ripple_adder(3), random_dag(40, seed=0), ripple_adder(4),
                array_multiplier(5)]  # one pass on the last exceeds the cap
    assert len(circuits[-1].ands) > memo.max_ands
    stored = 0
    for g in circuits:
        for action in Action:
            apply(g, action)
            newest = list(memo._entries.values())[-memo.min_entries:]
            assert memo.ands <= max(memo.max_ands,
                                    sum(size for _, size in newest))
            stored = max(stored, len(memo._entries))
    assert memo.ands == sum(size for _, size in memo._entries.values())
    # entries were evicted down to the floor, and the newest were kept
    assert stored > len(memo._entries) == memo.min_entries
    assert list(memo._entries) == [transforms._memo_key(circuits[-1], a)
                                   for a in list(Action)[-3:]]
