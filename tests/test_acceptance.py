"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The end-to-end trend
check (criterion 9) trains a small agent and evaluates two methods over
five seeds; expect a few minutes of wall time for the full module.
"""

import random
import time

import numpy as np
import pytest

from aigopt.aig import equivalent, stats
from aigopt.bench import (
    MethodSpec,
    array_multiplier,
    comparator,
    evaluate,
    geomean_reduction,
    mux_tree,
    random_dag,
    ripple_adder,
)
from aigopt.mcts import (
    MctsConfig,
    RecipeEvaluator,
    SearchNode,
    generate_recipe,
    search,
)
from aigopt.ood import EmbeddingBank, OodConfig, alpha, calibrate, min_distance
from aigopt.policy import (
    Adam,
    Experience,
    PolicyConfig,
    PolicyNetwork,
    TrainingConfig,
    train,
)
from aigopt.qor import baseline_qor, qor
from aigopt.transforms import Action, apply

from conftest import small_circuits
from test_mcts import FakeEvaluator
from test_ood import MCNC_VALIDATION, REFERENCE_DELTA_TH, _bank_for_deltas, \
    _vector_at_distance


def _report(criterion: int, message: str) -> None:
    print(f"\n[PASS] criterion {criterion}: {message}")


@pytest.fixture(scope="module")
def transform_sweep():
    """Applies all 7 actions to every corpus circuit once; shared by
    criteria 1 and 2."""
    circuits = small_circuits()
    assert len(circuits) >= 50
    start = time.perf_counter()
    results = []
    for circuit in circuits:
        before = stats(circuit)
        for action in Action:
            after_aig = apply(circuit, action)
            verdict = equivalent(circuit, after_aig)
            results.append((circuit.name, action, before, stats(after_aig),
                            verdict))
    elapsed = time.perf_counter() - start
    return circuits, results, elapsed


def test_criterion_1_functional_preservation(transform_sweep):
    circuits, results, elapsed = transform_sweep
    failures = [(name, action) for name, action, _, _, verdict in results
                if not verdict.equal]
    modes = {verdict.mode for _, _, _, _, verdict in results}
    assert failures == []
    assert modes == {"exhaustive"}
    assert elapsed < 300.0, f"sweep took {elapsed:.1f}s (budget 300s)"
    _report(1, f"{len(circuits)} circuits x 7 actions all exhaustively "
               f"equivalent in {elapsed:.1f}s")


def test_criterion_2_objective_monotonicity(transform_sweep):
    _, results, _ = transform_sweep
    for name, action, before, after, _ in results:
        if action == Action.BALANCE:
            assert after.depth <= before.depth, (name, action)
        else:
            assert after.node_count <= before.node_count, (name, action)
    _report(2, "balance never increased depth; rw/rf/rs never increased "
               "node count over the full sweep")


def test_criterion_3_baseline_efficacy():
    circuits = [c for c in small_circuits() if stats(c).node_count >= 50]
    assert len(circuits) >= 10
    improved = sum(baseline_qor(c) < qor(c) for c in circuits)
    share = improved / len(circuits)
    assert share >= 0.8, f"baseline improved only {improved}/{len(circuits)}"
    _report(3, f"baseline recipe strictly reduced adp on {improved}/"
               f"{len(circuits)} circuits with >=50 nodes")


def test_criterion_4_mcts_correctness():
    # (a) visit-count conservation and exact Q = reward_sum / N
    evaluator = FakeEvaluator(
        lambda p: 1.0 if p.count(Action.BALANCE) >= 2 else -0.5, recipe_len=3)
    tree = SearchNode()
    result = search(evaluator, (), tree,
                    MctsConfig(iterations=250, seed=1, recipe_len=3),
                    rng=random.Random(1))
    assert tree.total_visits() == result.iterations_run == 250

    def check(node, depth):
        for a, child in node.children.items():
            assert node.w[a] == pytest.approx(node.q(a) * node.n[a],
                                              abs=1e-12)
            if depth + 1 < 3:
                assert child.total_visits() == node.n[a] - 1
                check(child, depth + 1)

    check(tree, 0)

    # (b) two-armed bandit, K=200: good arm in >= 95/100 seeds
    hits = 0
    for seed in range(100):
        bandit = FakeEvaluator(
            lambda p: 1.0 if p[0] == Action.BALANCE else 0.0, recipe_len=1)
        res = search(bandit, (), SearchNode(n_actions=2),
                     MctsConfig(iterations=200, seed=seed, recipe_len=1,
                                n_actions=2),
                     rng=random.Random(seed))
        hits += res.action == Action.BALANCE
    assert hits >= 95, f"bandit picked the good arm in {hits}/100 seeds"

    # (c) L=1 recipe search matches the exhaustive 7-action sweep
    g = random_dag(80, seed=4)
    sweep_best = min((qor(apply(g, Action(a))), a) for a in range(7))
    res = generate_recipe(RecipeEvaluator(g, recipe_len=1),
                          MctsConfig(iterations=150, seed=2, recipe_len=1))
    assert res.recipe.actions == (Action(sweep_best[1]),)
    assert res.final_qor == sweep_best[0]
    _report(4, f"conservation exact; bandit {hits}/100; L=1 matches the "
               "exhaustive sweep")


def test_criterion_5_alpha_zero_equivalence():
    net = PolicyNetwork(PolicyConfig(d_hidden=8, d_emb=4, d_head=8,
                                     gcn_layers=2, seed=0))
    for seed, circuit in ((0, ripple_adder(4)), (3, random_dag(70, seed=2))):
        cfg = MctsConfig(iterations=12, seed=seed, alpha=0.0)
        bare = generate_recipe(RecipeEvaluator(circuit, budget=40), cfg)
        guided = generate_recipe(RecipeEvaluator(circuit, budget=40), cfg,
                                 policy=net)
        assert bare.recipe == guided.recipe
        assert bare.trace == guided.trace
    _report(5, "alpha=0 with a loaded policy is byte-identical to pure "
               "search under identical seeds")


def test_criterion_6_gradient_correctness():
    start = time.perf_counter()
    net = PolicyNetwork(PolicyConfig(d_hidden=8, d_emb=4, d_head=8,
                                     gcn_layers=3, seed=5))
    g1 = ripple_adder(3)
    g2 = mux_tree(2)
    aigs = {g1.name: g1, g2.name: g2}
    rng = np.random.default_rng(0)
    batch = [
        Experience(g1.name, (), tuple(rng.dirichlet(np.ones(7))), 0),
        Experience(g1.name, (Action.BALANCE, Action.RESUB),
                   tuple(rng.dirichlet(np.ones(7))), 0),
        Experience(g2.name, (Action.REWRITE,),
                   tuple(rng.dirichlet(np.ones(7))), 0),
    ]
    _, grads = net.loss_and_grads(batch, aigs, training=True)
    h = 1e-4
    checked = 0
    groups = set()
    for name, p in net.params.items():
        flat = p.ravel()
        picks = np.random.default_rng(hash(name) % 2**32).choice(
            flat.size, size=min(4, flat.size), replace=False)
        for idx in picks:
            orig = flat[idx]
            flat[idx] = orig + h
            lp, _ = net.loss_and_grads(batch, aigs, training=True)
            flat[idx] = orig - h
            lm, _ = net.loss_and_grads(batch, aigs, training=True)
            flat[idx] = orig
            fd = (lp - lm) / (2 * h)
            analytic = grads[name].ravel()[idx]
            denom = max(abs(fd), abs(analytic), 1e-8)
            assert abs(fd - analytic) / denom < 1e-3, (name, idx)
            checked += 1
        groups.add(name.split(".")[0].rstrip("0123456789"))
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    assert {"gcn", "act_emb", "pos_emb", "fc"} <= groups
    _report(6, f"{checked} finite-difference probes across all parameter "
               f"groups within 1e-3 relative ({elapsed:.1f}s)")


def test_criterion_7_training_sanity():
    # near-uniform fresh policy (the scaled final layer's stated purpose)
    ratios = []
    for seed in range(3):
        net = PolicyNetwork(PolicyConfig(d_hidden=16, d_emb=8, d_head=16,
                                         seed=seed))
        for circuit in (ripple_adder(4), mux_tree(3)):
            pi = net.priors(circuit, (Action.REWRITE,))
            ratios.append(float(pi.max() / pi.min()))
    assert max(ratios) < 1.2

    # fixed replay content (distinct states, converged one-hot targets):
    # 200 optimizer steps crush the loss
    net = PolicyNetwork(PolicyConfig(d_hidden=16, d_emb=8, d_head=16, seed=1))
    g = ripple_adder(4)
    aigs = {g.name: g}
    rng = np.random.default_rng(2)
    batch = []
    seen = set()
    while len(batch) < 8:
        length = int(rng.integers(0, 4))
        prefix = tuple(Action(int(a)) for a in rng.integers(0, 7, length))
        if prefix in seen:
            continue
        seen.add(prefix)
        target = np.zeros(7)
        target[rng.integers(0, 7)] = 1.0
        batch.append(Experience(g.name, prefix, tuple(target), 0))
    adam = Adam(net.params, lr=0.01)
    initial, _ = net.loss_and_grads(batch, aigs, training=True)
    for _ in range(200):
        _, grads = net.loss_and_grads(batch, aigs, training=True)
        adam.step(grads)
    final, _ = net.loss_and_grads(batch, aigs, training=True)
    assert final < 0.1 * initial, (initial, final)
    _report(7, f"fresh policy max/min ratio {max(ratios):.3f} < 1.2; fixed-"
               f"replay loss {initial:.3f} -> {final:.4f} (< 0.1x)")


def test_criterion_8_ood_gate():
    # alpha properties
    cfg_soft = OodConfig(delta_th=0.3, temperature=0.05)
    assert alpha(0.3, cfg_soft) == pytest.approx(0.5, abs=1e-12)
    last = 1.1
    for d in np.linspace(0.0, 2.0, 201):
        value = alpha(float(d), cfg_soft)
        assert value <= last + 1e-12
        last = value
    for d in (0.1, 0.29, 0.31, 1.5):
        hard = alpha(d, OodConfig(delta_th=0.3, temperature=0.0))
        for temperature in (1e-2, 1e-3, 1e-4):
            soft = alpha(d, OodConfig(delta_th=0.3, temperature=temperature))
            assert abs(soft - hard) < max(1e-6, 50 * temperature)

    # calibration on the recorded MCNC validation rows
    bank = _bank_for_deltas()
    validation = [(_vector_at_distance(d), winner)
                  for _, d, winner in MCNC_VALIDATION]
    th = calibrate(validation, bank)
    agree = sum(1 for _, d, _ in MCNC_VALIDATION
                if (d < th) == (d < REFERENCE_DELTA_TH))
    assert agree >= 9
    _report(8, f"alpha properties hold; calibrated threshold {th:.4f} agrees "
               f"with the reference rule on {agree}/11 rows")


@pytest.fixture(scope="module")
def trained_agent():
    train_circuits = [ripple_adder(3), ripple_adder(4), ripple_adder(5),
                      mux_tree(2), mux_tree(3), comparator(3)]
    net = PolicyNetwork(PolicyConfig(d_hidden=16, d_emb=8, d_head=16, seed=0))
    result = train(net, train_circuits,
                   TrainingConfig(epochs=6, k_iterations=24, seed=0))
    bank = EmbeddingBank()
    for circuit in train_circuits:
        bank.add(circuit.name, net.encode_aig(circuit))
    return net, bank, result


def test_criterion_9_end_to_end_trend(trained_agent):
    start = time.perf_counter()
    net, bank, train_result = trained_agent
    assert train_result.losses[-1] < train_result.losses[0]

    # OOD gate: threshold from labeled validation circuits, then the gate
    # must send in-family test circuits to the agent and out-of-family
    # circuits to pure search in at least 5 of 6 cases.
    validation = [(ripple_adder(8), 0), (comparator(5), 0),
                  (array_multiplier(2), 1), (random_dag(70, seed=9), 1)]
    delta_th = calibrate([(net.encode_aig(c), lbl) for c, lbl in validation],
                         bank)
    tests_in = [ripple_adder(6), ripple_adder(7), comparator(4), mux_tree(4)]
    tests_out = [array_multiplier(3), random_dag(90, seed=1)]
    gate_hits = 0
    gate = OodConfig(delta_th, temperature=0.0)
    for circuit in tests_in:
        d, _ = min_distance(net.encode_aig(circuit), bank)
        gate_hits += alpha(d, gate) == 1.0
    for circuit in tests_out:
        d, _ = min_distance(net.encode_aig(circuit), bank)
        gate_hits += alpha(d, gate) == 0.0
    assert gate_hits >= 5, f"gate correct on only {gate_hits}/6 circuits"

    # Trend: per seed, agent-guided geomean reduction on the in-family test
    # set must be at least the pure-MCTS geomean in >= 4/5 seeds.
    seeds = (0, 1, 2, 3, 4)
    report = evaluate([MethodSpec.pure_mcts(), MethodSpec.agent_guided()],
                      {c.name: c for c in tests_in}, policy=net, budget=100,
                      seeds=seeds, mcts_cfg=MctsConfig(iterations=48))
    per_seed = {}
    for row in report.rows:
        per_seed.setdefault((row.method, row.seed), []).append(row.reduction_pct)
    agent_at_least = 0
    for seed in seeds:
        gm_pure = geomean_reduction(per_seed[("pure_mcts", seed)])
        gm_agent = geomean_reduction(per_seed[("agent_guided", seed)])
        agent_at_least += gm_agent >= gm_pure - 1e-12
    assert agent_at_least >= 4, f"agent >= pure in only {agent_at_least}/5"
    for row in report.rows:
        assert row.synth_calls <= 100
    elapsed = time.perf_counter() - start
    assert elapsed < 4 * 3600.0
    _report(9, f"gate {gate_hits}/6 correct; agent >= pure in "
               f"{agent_at_least}/5 seeds ({elapsed:.0f}s)")


def test_criterion_10_determinism(tmp_path):
    from aigopt.cli import main

    circuit = tmp_path / "c.aag"
    assert main(["gen", "--family", "random_dag", "--size", "70",
                 "--seed", "5", "--out", str(circuit)]) == 0
    for run_dir in ("s1", "s2"):
        assert main(["search", "--aig", str(circuit), "--alpha", "0",
                     "--budget", "25", "--k", "8", "--seed", "7",
                     "--out-dir", str(tmp_path / run_dir)]) == 0
    assert (tmp_path / "s1" / "trace.csv").read_bytes() == \
        (tmp_path / "s2" / "trace.csv").read_bytes()
    assert (tmp_path / "s1" / "result.json").read_bytes() == \
        (tmp_path / "s2" / "result.json").read_bytes()

    for run_dir in ("b1", "b2"):
        assert main(["bench", "--test", str(circuit),
                     "--methods", "pure_mcts", "--budget", "12", "--k", "6",
                     "--seeds", "2", "--out-dir", str(tmp_path / run_dir)]) == 0
    assert (tmp_path / "b1" / "report.csv").read_bytes() == \
        (tmp_path / "b2" / "report.csv").read_bytes()
    assert (tmp_path / "b1" / "report.json").read_bytes() == \
        (tmp_path / "b2" / "report.json").read_bytes()
    _report(10, "search and bench reruns reproduce byte-identical CSV/JSON "
                "outputs")
