import math
import random

import pytest

from aigopt.bench import random_dag, ripple_adder
from aigopt.mcts import (
    BudgetExhausted,
    MctsConfig,
    RecipeEvaluator,
    SearchNode,
    backup,
    biased_uct,
    generate_recipe,
    rollout,
    search,
    select,
    uct,
)
from aigopt.qor import baseline_qor, qor
from aigopt.transforms import Action, apply


class FakeEvaluator:
    """Deterministic bandit-style evaluator for tree-search tests."""

    def __init__(self, reward_fn, recipe_len):
        self.reward_fn = reward_fn
        self.recipe_len = recipe_len
        self.root = None
        self.calls = 0

    def terminal_reward(self, prefix):
        assert len(prefix) == self.recipe_len
        self.calls += 1
        return self.reward_fn(prefix)


# ---------------------------------------------------------------------------
# uct / biased_uct / select / backup
# ---------------------------------------------------------------------------

def test_uct_symmetric_when_uniform():
    node = SearchNode()
    for a in range(7):
        node.n[a] = 1
    expected = math.sqrt(math.log(7))  # = 1.39496
    for a in range(7):
        assert uct(node, a, 1.0) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(1.3947, abs=5e-4)


def test_uct_unvisited_is_infinite():
    node = SearchNode()
    node.n[0] = 3
    assert uct(node, 1, 1.0) == math.inf


def test_uct_orders_by_visit_count():
    node = SearchNode()
    for a, n in enumerate((4, 1, 1, 1, 0, 0, 0)):
        node.n[a] = n
    values = [uct(node, a, 1.0) for a in range(7)]
    assert all(math.isinf(values[a]) for a in (4, 5, 6))
    assert values[1] > values[0]


def test_biased_uct_alpha_zero_is_identity():
    for prior in (0.0, 0.3, 1.0):
        assert biased_uct(prior, 2.5, 0.0) == 2.5
        assert biased_uct(prior, math.inf, 0.0) == math.inf


def test_biased_uct_alpha_one():
    assert biased_uct(0.5, 2.0, 1.0) == 1.0


def test_biased_uct_zero_prior_suppresses_infinite_bonus():
    assert biased_uct(0.0, math.inf, 1.0) == 0.0


def test_select_fresh_node_tie_breaks_low():
    assert select(SearchNode(), math.sqrt(2), 0.0) == 0


def test_select_exploitation_dominates():
    node = SearchNode()
    for a in range(7):
        node.n[a] = 1000
        node.w[a] = 1000.0 if a == 0 else 0.0
    assert select(node, math.sqrt(2), 0.0) == 0


def test_select_matches_bruteforce_oracle():
    rng = random.Random(11)
    for _ in range(200):
        node = SearchNode()
        for a in range(7):
            node.n[a] = rng.randint(0, 5)
            node.w[a] = node.n[a] * rng.uniform(-1, 1)
        if sum(node.n) == 0:
            continue
        c = rng.uniform(0.1, 3.0)
        total = sum(node.n)
        scores = []
        for a in range(7):
            if node.n[a] == 0:
                scores.append(math.inf)
            else:
                q = node.w[a] / node.n[a]
                scores.append(q + c * math.sqrt(math.log(total) / node.n[a]))
        best = max(range(7), key=lambda a: (scores[a], -a))
        assert select(node, c, 0.0) == best


def test_backup_running_mean():
    node = SearchNode()
    backup([(node, 2)], 1.0)
    backup([(node, 2)], 0.0)
    assert node.n[2] == 2
    assert node.q(2) == 0.5


def test_backup_constant_stream():
    node = SearchNode()
    for _ in range(100):
        backup([(node, 3)], 0.25)
    assert node.q(3) == 0.25


def test_backup_matches_independent_mean():
    rng = random.Random(5)
    node = SearchNode()
    values = [rng.uniform(-1, 1) for _ in range(500)]
    for v in values:
        backup([(node, 1)], v)
    assert abs(node.q(1) - sum(values) / len(values)) < 1e-12


# ---------------------------------------------------------------------------
# rollout
# ---------------------------------------------------------------------------

def test_rollout_full_prefix_is_direct():
    evaluator = FakeEvaluator(lambda p: 0.75, recipe_len=2)
    cfg = MctsConfig(iterations=1, recipe_len=2)
    prefix = (Action.BALANCE, Action.REWRITE)
    value = rollout(evaluator, prefix, random.Random(0), cfg)
    assert value == 0.75
    assert evaluator.calls == 1


def test_rollout_seeded_determinism():
    rewards = {}

    def fn(p):
        rewards.setdefault(p, len(rewards) * 0.1)
        return rewards[p]

    cfg = MctsConfig(iterations=1, recipe_len=4)
    first = [rollout(FakeEvaluator(fn, 4), (Action.BALANCE,),
                     random.Random(9), cfg) for _ in range(5)]
    second = [rollout(FakeEvaluator(fn, 4), (Action.BALANCE,),
                      random.Random(9), cfg) for _ in range(5)]
    assert first == second


def test_rollout_mean_matches_exhaustive_average():
    # L=2, M=2 restricted action set: the exhaustive average over all four
    # completions is the expected rollout value; the empirical mean over
    # 100 seeds must land within 3 sigma of it.
    values = {
        (0, 0): 0.9, (0, 1): 0.1, (1, 0): 0.4, (1, 1): 0.6,
    }

    def fn(p):
        return values[(int(p[0]), int(p[1]))]

    cfg = MctsConfig(iterations=1, recipe_len=2, n_actions=2)
    exact_mean = sum(values.values()) / 4
    exact_var = sum((v - exact_mean) ** 2 for v in values.values()) / 4
    samples = [rollout(FakeEvaluator(fn, 2), (), random.Random(seed), cfg)
               for seed in range(100)]
    empirical = sum(samples) / len(samples)
    sigma = math.sqrt(exact_var / len(samples))
    assert abs(empirical - exact_mean) <= 3 * sigma


# ---------------------------------------------------------------------------
# search on synthetic bandits
# ---------------------------------------------------------------------------

def test_two_armed_bandit_visit_share():
    wins = 0
    for seed in range(100):
        evaluator = FakeEvaluator(
            lambda p: 1.0 if p[0] == Action.BALANCE else 0.0, recipe_len=1)
        cfg = MctsConfig(iterations=50, seed=seed, recipe_len=1, n_actions=2)
        result = search(evaluator, (), SearchNode(n_actions=2), cfg,
                        rng=random.Random(seed))
        if result.pi[0] > 0.8:
            wins += 1
    assert wins >= 95


def test_bandit_k200_picks_good_arm():
    hits = 0
    for seed in range(100):
        evaluator = FakeEvaluator(
            lambda p: 1.0 if p[0] == Action.REWRITE else 0.0, recipe_len=1)
        cfg = MctsConfig(iterations=200, seed=seed, recipe_len=1, n_actions=2)
        result = search(evaluator, (), SearchNode(n_actions=2), cfg,
                        rng=random.Random(seed))
        if result.action == Action.REWRITE:
            hits += 1
    assert hits >= 95


def test_seven_iterations_visit_every_action():
    evaluator = FakeEvaluator(lambda p: 0.5, recipe_len=1)
    tree = SearchNode()
    result = search(evaluator, (), tree, MctsConfig(iterations=7, recipe_len=1),
                    rng=random.Random(0))
    assert tree.n == [1] * 7
    assert result.pi == [1.0 / 7] * 7


def test_visit_count_conservation_and_q_identity():
    evaluator = FakeEvaluator(
        lambda p: 1.0 if p.count(Action.BALANCE) >= 1 else -0.25,
        recipe_len=3)
    tree = SearchNode()
    cfg = MctsConfig(iterations=300, seed=4, recipe_len=3)
    result = search(evaluator, (), tree, cfg, rng=random.Random(4))
    assert result.iterations_run == 300
    assert tree.total_visits() == 300

    def check(node, depth):
        for a, child in node.children.items():
            assert node.w[a] == pytest.approx(node.q(a) * node.n[a], abs=1e-9)
            if depth + 1 >= 3:
                continue  # terminal children select no actions
            # arrivals at an interior child = edge visits minus the one
            # iteration that expanded (and rolled out from) the child.
            assert child.total_visits() == node.n[a] - 1, (a, child.n)
            check(child, depth + 1)

    check(tree, 0)


# ---------------------------------------------------------------------------
# RecipeEvaluator
# ---------------------------------------------------------------------------

def test_evaluator_memoizes_prefixes():
    g = ripple_adder(4)
    ev = RecipeEvaluator(g, recipe_len=3)
    recipe = (Action.BALANCE, Action.REWRITE, Action.BALANCE)
    first = ev.terminal_reward(recipe)
    hits_before = ev.cache_hits
    second = ev.terminal_reward(recipe)
    assert first == second
    assert ev.cache_hits > hits_before
    assert ev.calls == 1  # one synthesis call despite two queries


def test_evaluator_budget_enforced():
    g = ripple_adder(4)
    ev = RecipeEvaluator(g, recipe_len=2, budget=2)
    ev.terminal_reward((Action.BALANCE, Action.BALANCE))
    ev.terminal_reward((Action.BALANCE, Action.REWRITE))
    assert ev.exhausted
    with pytest.raises(BudgetExhausted):
        ev.terminal_reward((Action.REWRITE, Action.REWRITE))
    # cached recipes remain free after exhaustion
    ev.terminal_reward((Action.BALANCE, Action.REWRITE))


def test_evaluator_trace_rows():
    g = ripple_adder(4)
    ev = RecipeEvaluator(g, recipe_len=2, budget=5)
    ev.terminal_reward((Action.BALANCE, Action.REWRITE))
    assert len(ev.trace) == 1
    row = ev.trace[0]
    assert row.iteration == 0
    assert row.prefix == "b,rw"
    assert row.adp_proxy == row.node_count * row.depth
    assert row.wall_ns == 0  # deterministic by default


# ---------------------------------------------------------------------------
# generate_recipe
# ---------------------------------------------------------------------------

def test_l1_search_matches_exhaustive_sweep():
    g = random_dag(70, seed=2)
    sweep = [(qor(apply(g, Action(a))), a) for a in range(7)]
    base = baseline_qor(g)
    best_adp, best_action = min(sweep)
    cfg = MctsConfig(iterations=150, seed=9, recipe_len=1)
    result = generate_recipe(RecipeEvaluator(g, recipe_len=1), cfg)
    assert result.recipe.actions == (Action(best_action),)
    assert result.final_qor == best_adp
    assert base > 0


def test_generate_recipe_deterministic():
    g = ripple_adder(5)
    cfg = MctsConfig(iterations=12, seed=3)
    first = generate_recipe(RecipeEvaluator(g, budget=40), cfg)
    second = generate_recipe(RecipeEvaluator(g, budget=40), cfg)
    assert first.recipe == second.recipe
    assert first.trace == second.trace


def test_best_seen_never_worse_than_committed():
    for seed in range(5):
        g = random_dag(80, seed=seed)
        cfg = MctsConfig(iterations=10, seed=seed)
        result = generate_recipe(RecipeEvaluator(g, budget=30), cfg)
        assert result.best_qor <= result.final_qor
        assert result.budget_used <= 30


def test_alpha_zero_identical_with_and_without_policy():
    from aigopt.policy import PolicyConfig, PolicyNetwork

    g = ripple_adder(4)
    cfg = MctsConfig(iterations=10, seed=7, alpha=0.0)
    bare = generate_recipe(RecipeEvaluator(g, budget=25), cfg)
    net = PolicyNetwork(PolicyConfig(d_hidden=8, seed=0))
    guided = generate_recipe(RecipeEvaluator(g, budget=25), cfg, policy=net)
    assert bare.recipe == guided.recipe
    assert bare.trace == guided.trace


def test_alpha_requires_policy():
    g = ripple_adder(3)
    with pytest.raises(ValueError, match="policy"):
        generate_recipe(RecipeEvaluator(g, budget=10),
                        MctsConfig(iterations=4, alpha=0.5))


def test_budget_exhaustion_flagged():
    g = ripple_adder(5)
    cfg = MctsConfig(iterations=64, seed=0)
    result = generate_recipe(RecipeEvaluator(g, budget=8), cfg)
    assert result.exhausted
    assert result.budget_used == 8
    assert len(result.recipe) == cfg.recipe_len
