import math
from types import SimpleNamespace

import numpy as np
import pytest

from aigopt.aig import Aig, AigBuilder, parse_aiger
from aigopt.bench import generate_circuit, mux_tree, ripple_adder
from aigopt.policy import (
    Adam,
    Experience,
    ModelFormatError,
    PolicyConfig,
    PolicyNetwork,
    TrainingConfig,
    _graph,
    _spmm,
    load,
    loss,
    normalized_adjacency,
    save,
    train,
)
from aigopt.transforms import Action


def tiny_net(seed=0, **overrides):
    cfg = dict(d_hidden=8, d_emb=4, d_head=8, gcn_layers=2, seed=seed)
    cfg.update(overrides)
    return PolicyNetwork(PolicyConfig(**cfg))


def small_graphs():
    bld = AigBuilder(3, "g1")
    g1 = bld.finish([bld.xor_(bld.pi(0), bld.and_(bld.pi(1), bld.pi(2)))])
    bld = AigBuilder(4, "g2")
    g2 = bld.finish([bld.or_(bld.and_(bld.pi(0), bld.pi(1)),
                             bld.xor_(bld.pi(2), bld.pi(3))),
                     bld.and_(bld.pi(0), bld.pi(3))])
    return g1, g2


# ---------------------------------------------------------------------------
# priors
# ---------------------------------------------------------------------------

def test_forward_is_distribution():
    net = tiny_net()
    g1, g2 = small_graphs()
    rng = np.random.default_rng(0)
    for _ in range(1000):
        length = rng.integers(0, 10)
        prefix = tuple(Action(int(a)) for a in rng.integers(0, 7, length))
        g = g1 if rng.random() < 0.5 else g2
        pi = net.priors(net.encode_aig(g), prefix)
        assert abs(pi.sum() - 1.0) < 1e-9
        assert np.all(pi > 0) and np.all(pi < 1)


def test_fresh_network_near_uniform():
    # The scaled-down final layer must leave no initial action bias.
    g1, g2 = small_graphs()
    for seed in range(5):
        net = tiny_net(seed=seed)
        for g in (g1, g2):
            pi = net.priors(net.encode_aig(g), (Action.BALANCE,))
            assert pi.max() / pi.min() < 1.2


def test_softmax_shift_invariance():
    net = tiny_net()
    g1, _ = small_graphs()
    pi_before = net.priors(net.encode_aig(g1), ())
    net.params["fc2.b"] = net.params["fc2.b"] + 7.5  # shift all logits
    pi_after = net.priors(net.encode_aig(g1), ())
    assert np.allclose(pi_before, pi_after, atol=1e-12)


def test_encode_aig_permutation_invariant():
    # Same topology, different construction (hence node) order.
    bld = AigBuilder(4, "p1")
    x = bld.and_(bld.pi(0), bld.pi(1))
    y = bld.and_(bld.pi(2), bld.pi(3))
    p1 = bld.finish([bld.or_(x, y)])
    bld = AigBuilder(4, "p2")
    y = bld.and_(bld.pi(2), bld.pi(3))
    x = bld.and_(bld.pi(0), bld.pi(1))
    p2 = bld.finish([bld.or_(x, y)])
    net = tiny_net()
    h1 = net.encode_aig(p1)
    h2 = net.encode_aig(p2)
    assert np.allclose(h1, h2, atol=1e-9)


def test_encode_aig_single_node_matches_hand_computation():
    # Constant-only circuit: one node, self-loop only; inference-mode BN
    # with fresh running stats is the identity up to eps scaling (eps 1e-5),
    # followed by a leaky ReLU of slope 0.01.
    aig = parse_aiger(b"aag 0 0 0 1 0\n0\n")
    net = tiny_net()
    cfg = net.config
    from aigopt.policy import node_features

    h = node_features(aig)[0]
    for k in range(cfg.gcn_layers):
        z = h @ net.params[f"gcn{k}.W"] + net.params[f"gcn{k}.b"]
        zhat = z / np.sqrt(1.0 + 1e-5)
        bn = net.params[f"gcn{k}.gamma"] * zhat + net.params[f"gcn{k}.beta"]
        h = np.where(bn > 0, bn, 0.01 * bn)
    expected = np.concatenate([h, h])  # mean-pool == max-pool on one node
    assert np.allclose(net.encode_aig(aig), expected, atol=1e-9)


def test_encode_recipe():
    net = tiny_net()
    assert np.allclose(net.encode_recipe(()), 0.0)
    one = net.encode_recipe((Action.REFACTOR,))
    expected = net.params["act_emb"][int(Action.REFACTOR)] \
        * (1.0 + net.params["pos_emb"][0])
    assert np.allclose(one, expected, atol=1e-12)


def test_encode_recipe_order_sensitive():
    net = tiny_net()
    ab = net.encode_recipe((Action.BALANCE, Action.REWRITE))
    ba = net.encode_recipe((Action.REWRITE, Action.BALANCE))
    assert not np.allclose(ab, ba)
    # same fixed length regardless of prefix length
    assert net.encode_recipe((Action.BALANCE,)).shape == ab.shape


def test_priors_match_forward():
    net = tiny_net()
    g1, _ = small_graphs()
    prefix = (Action.BALANCE, Action.RESUB)
    full, _ = net._head(net._gcn_forward(_graph(g1), False)[0], prefix)
    assert np.array_equal(net.priors(net.encode_aig(g1), prefix), full)


def test_priors_follow_the_circuit_when_ids_are_reused():
    # Each circuit dies before the next is built, so a new circuit often
    # gets a dead one's id(); a cache keyed by identity would serve it the
    # dead circuit's prior.
    cfg = PolicyConfig(d_hidden=8, d_emb=4, d_head=8, gcn_layers=2, seed=3)
    net = PolicyNetwork(cfg)
    prefix = (Action.REWRITE, Action.BALANCE)
    families = (("ripple_adder", 4), ("comparator", 4), ("mux_tree", 3),
                ("random_dag", 40))
    for cycle in range(120):
        family, top = families[cycle % len(families)]
        circuit = generate_circuit(family, 1 + (cycle // 4) % top, seed=cycle)
        fresh_net = PolicyNetwork(cfg)
        fresh, _ = fresh_net._head(
            fresh_net._gcn_forward(_graph(circuit), False)[0], prefix)
        full, _ = net._head(net._gcn_forward(_graph(circuit), False)[0],
                            prefix)
        pi = net.priors(net.encode_aig(circuit), prefix)
        assert np.array_equal(pi, full), cycle
        assert np.array_equal(pi, fresh), cycle
        del circuit


# ---------------------------------------------------------------------------
# sparse adjacency product
# ---------------------------------------------------------------------------

def _scipy_adjacency(aig):
    """The normalized adjacency as scipy builds it: COO with duplicates,
    converted to CSR and summed, then scaled on both sides by D^-1/2."""
    sp = pytest.importorskip("scipy.sparse")
    n = aig.n_nodes
    rows, cols = list(range(n)), list(range(n))
    for k, (f0, f1) in enumerate(aig.ands):
        u = aig.first_and() + k
        for f in (f0, f1):
            rows.extend((u, f >> 1))
            cols.extend((f >> 1, u))
    adj = sp.coo_matrix((np.ones(len(rows)), (rows, cols)),
                        shape=(n, n)).tocsr()
    adj.sum_duplicates()
    d = sp.diags(1.0 / np.sqrt(np.asarray(adj.sum(axis=1)).ravel()))
    return (d @ adj @ d).tocsr()


def _oracle_circuits():
    bld = AigBuilder(2, "wide_fanout")
    a, acc = bld.pi(0), bld.pi(1)
    for i in range(70):  # input a feeds 70 ANDs, in both polarities
        acc = bld.and_(a ^ (i & 1), acc)
    wide = bld.finish([acc])
    # not canonical, so only direct construction makes it: its AND lists
    # one node twice, which gives an entry of count 2
    same = Aig(1, [(2, 3)], [4], "same_fanin")
    return [parse_aiger(b"aag 0 0 0 1 0\n0\n"), same, wide,
            generate_circuit("ripple_adder", 12, 0),
            generate_circuit("array_multiplier", 10, 0),
            generate_circuit("comparator", 12, 0),
            generate_circuit("mux_tree", 4, 0),
            generate_circuit("random_dag", 200, 1),
            generate_circuit("random_dag", 1000, 5)]


def test_normalized_adjacency_and_product_match_scipy_bit_for_bit():
    rng = np.random.default_rng(0)
    for aig in _oracle_circuits():
        ref = _scipy_adjacency(aig)
        rows, cols, data = adj = normalized_adjacency(aig)
        ref_rows = np.repeat(np.arange(aig.n_nodes), np.diff(ref.indptr))
        assert np.array_equal(rows, ref_rows), aig.name
        assert np.array_equal(cols, ref.indices), aig.name
        assert data.tobytes() == ref.data.tobytes(), aig.name
        if aig.name == "wide_fanout":
            assert np.bincount(rows).max() > 64
        if aig.name == "same_fanin":
            # three self-loops, and the doubled edge once each way
            assert len(data) == 5
        for width in (6, 32):
            x = rng.normal(size=(aig.n_nodes, width))
            x[rng.random(x.shape) < 0.2] = -0.0  # signed zeros must match
            assert _spmm(adj, x).tobytes() == (ref @ x).tobytes(), aig.name


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def test_loss_one_hot_match():
    one_hot = np.zeros(7)
    one_hot[3] = 1.0
    assert loss(one_hot, one_hot) <= 1e-11


def test_loss_uniform():
    uniform = np.full(7, 1.0 / 7.0)
    assert loss(uniform, uniform) == pytest.approx(math.log(7), abs=1e-12)


def test_loss_matches_independent_evaluation():
    rng = np.random.default_rng(3)
    for _ in range(25):
        p = rng.dirichlet(np.ones(7))
        t = rng.dirichlet(np.ones(7))
        expected = -sum(float(t[i]) * math.log(max(float(p[i]), 1e-12))
                        for i in range(7))
        assert loss(p, t) == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_gradients_match_finite_differences():
    net = tiny_net(seed=3)
    g1, g2 = small_graphs()
    aigs = {"g1": g1, "g2": g2}
    rng = np.random.default_rng(1)
    batch = [
        Experience("g1", (Action.BALANCE, Action.RESUB),
                   tuple(rng.dirichlet(np.ones(7)))),
        Experience("g2", (), tuple(rng.dirichlet(np.ones(7)))),
        Experience("g2", (Action.REWRITE_Z,),
                   tuple(rng.dirichlet(np.ones(7)))),
    ]
    _, grads = net.loss_and_grads(batch, aigs)
    h = 1e-4
    for name, p in net.params.items():
        flat = p.ravel()
        picks = np.random.default_rng(hash(name) % 2**32).choice(
            flat.size, size=min(5, flat.size), replace=False)
        for idx in picks:
            orig = flat[idx]
            flat[idx] = orig + h
            lp, _ = net.loss_and_grads(batch, aigs)
            flat[idx] = orig - h
            lm, _ = net.loss_and_grads(batch, aigs)
            flat[idx] = orig
            fd = (lp - lm) / (2 * h)
            analytic = grads[name].ravel()[idx]
            denom = max(abs(fd), abs(analytic), 1e-8)
            assert abs(fd - analytic) / denom < 1e-3, (name, idx, fd, analytic)


# ---------------------------------------------------------------------------
# replay buffer
# ---------------------------------------------------------------------------

def _train_on_numbered_levels(monkeypatch, epochs, recipe_len, n_circuits):
    """Runs ``train`` with a stand-in search whose levels are numbered in
    the order they are made (the number is ``pi[0]``) and a stand-in
    ``loss_and_grads`` that returns zero gradients; returns each epoch's
    mini-batch as those numbers."""
    from aigopt import policy

    made = iter(range(10 ** 6))

    def numbered_levels(evaluator, config, **_):
        return SimpleNamespace(levels=[((), (float(next(made)),) + (0.0,) * 6)
                                       for _ in range(config.recipe_len)])

    batches = []

    def record(self, batch, aigs_by_id):
        batches.append([int(e.pi[0]) for e in batch])
        return 0.0, {k: np.zeros_like(v) for k, v in self.params.items()}

    monkeypatch.setattr(policy, "generate_recipe", numbered_levels)
    monkeypatch.setattr(PolicyNetwork, "loss_and_grads", record)
    circuits = [ripple_adder(2 + i) for i in range(n_circuits)]
    train(tiny_net(recipe_len=recipe_len), circuits,
          TrainingConfig(epochs=epochs, k_iterations=1, seed=0))
    return batches


def test_buffer_capacity_and_fifo_eviction(monkeypatch):
    # The buffer holds the last two epochs of levels (2 * recipe_len per
    # circuit); older ones are evicted first. The first epoch's batch is
    # the whole buffer, in order.
    batches = _train_on_numbered_levels(monkeypatch, epochs=6,
                                        recipe_len=3, n_circuits=1)
    assert batches[0] == [0, 1, 2]
    for epoch, batch in enumerate(batches):
        assert set(batch) <= set(range(3 * max(epoch - 1, 0), 3 * epoch + 3))


def test_buffer_sampling(monkeypatch):
    # Once the buffer holds more than one epoch of levels, each mini-batch
    # is one epoch's size, drawn without replacement, in buffer order.
    batches = _train_on_numbered_levels(monkeypatch, epochs=8,
                                        recipe_len=2, n_circuits=2)
    assert batches[0] == [0, 1, 2, 3]  # capped at the buffer's size
    for batch in batches[1:]:
        assert len(batch) == 4
        assert batch == sorted(set(batch))  # distinct, in buffer order
    assert len({tuple(b) for b in batches[1:]}) > 1


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def test_overfit_fixed_replay_buffer():
    # On frozen near-one-hot targets (a fully converged search) the
    # optimizer must drive the loss way down; soft targets would floor the
    # cross entropy at their own entropy.
    net = tiny_net(seed=1)
    g1, g2 = small_graphs()
    aigs = {"g1": g1, "g2": g2}
    rng = np.random.default_rng(7)

    def one_hot():
        pi = np.zeros(7)
        pi[rng.integers(0, 7)] = 1.0
        return tuple(pi)

    batch = [Experience(cid, prefix, one_hot())
             for cid, prefix in (("g1", ()), ("g1", (Action.REWRITE,)),
                                 ("g2", ()), ("g2", (Action.BALANCE,)))]
    adam = Adam(net.params, lr=0.01)
    initial, _ = net.loss_and_grads(batch, aigs)
    for _ in range(200):
        _, grads = net.loss_and_grads(batch, aigs)
        adam.step(grads)
    final, _ = net.loss_and_grads(batch, aigs)
    assert final < 0.1 * initial


def test_training_deterministic():
    circuits = [ripple_adder(3), mux_tree(2)]
    cfg = TrainingConfig(epochs=2, k_iterations=6, seed=5)
    first = train(tiny_net(seed=2), circuits, cfg)
    second = train(tiny_net(seed=2), circuits, cfg)
    assert first == second
    assert len(first) == 2


def test_training_fills_buffer_and_respects_capacity(monkeypatch):
    batches = []
    loss_and_grads = PolicyNetwork.loss_and_grads

    def recorded(self, batch, aigs_by_id):
        batches.append(batch)
        return loss_and_grads(self, batch, aigs_by_id)

    monkeypatch.setattr(PolicyNetwork, "loss_and_grads", recorded)
    circuits = [ripple_adder(3), mux_tree(2)]
    cfg = TrainingConfig(epochs=4, k_iterations=4, seed=0)
    net = tiny_net(seed=0, recipe_len=5)
    train(net, circuits, cfg)
    assert len(batches) == 4
    for held in batches:
        assert len(held) == 5 * 2
        assert {e.circuit_id for e in held} <= {c.name for c in circuits}
        assert all(len(e.pi) == 7 for e in held)


def test_train_requires_circuits():
    with pytest.raises(ValueError):
        train(tiny_net(), [], TrainingConfig(epochs=1))


def test_train_requires_unique_names():
    g = ripple_adder(3)
    with pytest.raises(ValueError, match="unique"):
        train(tiny_net(), [g, g], TrainingConfig(epochs=1))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_save_load_roundtrip(tmp_path):
    net = tiny_net(seed=9)
    g1, _ = small_graphs()
    path = tmp_path / "model.bin"
    save(net, path)
    loaded = load(path)
    for prefix in ((), (Action.BALANCE,), (Action.RESUB, Action.REWRITE)):
        a = net.priors(net.encode_aig(g1), prefix)
        b = loaded.priors(loaded.encode_aig(g1), prefix)
        assert np.array_equal(a, b)  # bit-identical


def test_load_truncated_file(tmp_path):
    net = tiny_net()
    path = tmp_path / "model.bin"
    save(net, path)
    data = path.read_bytes()
    path.write_bytes(data[:-10])
    with pytest.raises(ModelFormatError, match="checksum|truncated"):
        load(path)


def test_load_corrupted_payload(tmp_path):
    net = tiny_net()
    path = tmp_path / "model.bin"
    save(net, path)
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(ModelFormatError, match="checksum"):
        load(path)


def test_load_rejects_version_bump(tmp_path):
    import hashlib
    import struct

    net = tiny_net()
    path = tmp_path / "model.bin"
    save(net, path)
    data = bytearray(path.read_bytes())[:-32]
    struct.pack_into("<I", data, 8, 99)  # bump version, re-checksum
    data += hashlib.sha256(bytes(data)).digest()
    path.write_bytes(bytes(data))
    with pytest.raises(ModelFormatError, match="version"):
        load(path)


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "model.bin"
    import hashlib

    body = b"NOTMODEL" + b"\x00" * 16
    path.write_bytes(body + hashlib.sha256(body).digest())
    with pytest.raises(ModelFormatError, match="magic"):
        load(path)
