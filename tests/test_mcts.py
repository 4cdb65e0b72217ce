import math
import random

import pytest

from aigopt.bench import random_dag, ripple_adder
from aigopt.mcts import (
    PRIOR_FLOOR,
    BudgetExhausted,
    MctsConfig,
    RecipeEvaluator,
    SearchNode,
    backup,
    generate_recipe,
    rollout,
    search,
    select,
)
from aigopt.qor import baseline_qor, qor
from aigopt.transforms import N_ACTIONS, Action, apply


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
# select / backup
# ---------------------------------------------------------------------------

def test_uct_symmetric_when_uniform():
    # Equal visit counts give every action the same exploration term, so
    # Q alone decides, and equal Q ties to the lowest action.
    node = SearchNode()
    node.n = [1] * 7
    assert select(node, 1.0, 0.0) == 0
    node.w[5] = 1e-9
    assert select(node, 1.0, 0.0) == 5


def test_uct_unvisited_is_infinite():
    # An unvisited action outranks a visited one of any Q.
    node = SearchNode()
    node.n[0], node.w[0] = 3, 3e300
    assert select(node, 1.0, 0.0) == 1
    node.prior = [0.9] + [1e-3] * 6
    assert select(node, 1.0, 1.0) == 1


def test_uct_orders_by_visit_count():
    # At equal Q the least-visited action has the largest exploration term.
    node = SearchNode()
    node.n = [4, 2, 1, 3, 1, 2, 5]
    assert select(node, 1.0, 0.0) == 2


def test_select_fresh_node_tie_breaks_low():
    assert select(SearchNode(), math.sqrt(2), 0.0) == 0


def test_select_exploitation_dominates():
    node = SearchNode()
    for a in range(7):
        node.n[a] = 1000
        node.w[a] = 1000.0 if a == 0 else 0.0
    assert select(node, math.sqrt(2), 0.0) == 0


def _oracle_select(node, c_uct, alpha):
    """The rule of the separate ``uct`` and ``biased_uct`` helpers that
    ``select`` replaced: argmax of Q + U, ties to the lowest action; a NaN
    score never wins."""
    scores = []
    for a in range(7):
        n_a = node.n[a]
        u = (math.inf if n_a == 0
             else c_uct * math.sqrt(math.log(sum(node.n)) / n_a))
        if alpha > 0.0 and node.prior is not None:
            p = max(node.prior[a], PRIOR_FLOOR) ** alpha
            if math.isinf(u):
                u = math.inf if p > 0.0 else 0.0
            else:
                u = p * u
        scores.append((node.w[a] / n_a if n_a else 0.0) + u)
    ranked = [a for a in range(7) if not math.isnan(scores[a])]
    return max(ranked, key=lambda a: (scores[a], -a), default=0)


def test_select_matches_bruteforce_oracle():
    # Nodes without a prior, and with a prior holding a 0.0 entry (floored
    # to PRIOR_FLOOR) and a NaN entry (an unvisited NaN action scores 0, a
    # visited one NaN), at alpha 0, 0.5 and 1.
    rng = random.Random(11)
    for i in range(600):
        node = SearchNode()
        for a in range(7):
            node.n[a] = rng.randint(0, 5)
            node.w[a] = node.n[a] * rng.uniform(-1, 1)
        if i % 3:
            prior = [rng.random() for _ in range(7)]
            zero, nan = rng.sample(range(7), 2)
            prior[zero], prior[nan] = 0.0, math.nan
            node.prior = prior
        c = rng.uniform(0.1, 3.0)
        for alpha in (0.0, 0.5, 1.0):
            best = _oracle_select(node, c, alpha)
            assert select(node, c, alpha) == best, (node.n, node.prior, alpha)
    # the NaN prior's zero score wins when every other action is visited
    # and scores below zero
    node = SearchNode()
    node.n = [0] + [1] * 6
    node.w = [0.0] + [-10.0] * 6
    node.prior = [math.nan] + [0.5] * 6
    assert select(node, 1.0, 1.0) == _oracle_select(node, 1.0, 1.0) == 0
    node.prior = [0.0] + [0.5] * 6
    assert select(node, 1.0, 1.0) == 0  # a zero prior is floored: +inf


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
    # L=2 over the seven actions: the exhaustive average over all 49
    # completions is the expected rollout value; the empirical mean over
    # 100 seeds must land within 3 sigma of it.
    table = random.Random(0)
    values = {(a, b): table.random() for a in range(7) for b in range(7)}

    def fn(p):
        return values[(int(p[0]), int(p[1]))]

    cfg = MctsConfig(iterations=1, recipe_len=2)
    exact_mean = sum(values.values()) / len(values)
    exact_var = sum((v - exact_mean) ** 2
                    for v in values.values()) / len(values)
    samples = [rollout(FakeEvaluator(fn, 2), (), random.Random(seed), cfg)
               for seed in range(100)]
    empirical = sum(samples) / len(samples)
    sigma = math.sqrt(exact_var / len(samples))
    assert abs(empirical - exact_mean) <= 3 * sigma


# ---------------------------------------------------------------------------
# search on synthetic bandits
# ---------------------------------------------------------------------------

def test_two_armed_bandit_visit_share():
    # One good arm among the seven actions. Each of the six bad arms keeps
    # getting visits as its exploration term grows; the good arm's share
    # first passes 0.8 at K=250 and is 0.84 at K=300.
    wins = 0
    for seed in range(100):
        evaluator = FakeEvaluator(
            lambda p: 1.0 if p[0] == Action.BALANCE else 0.0, recipe_len=1)
        cfg = MctsConfig(iterations=300, seed=seed, recipe_len=1)
        result = search(evaluator, (), SearchNode(), cfg,
                        rng=random.Random(seed))
        if result.pi[0] > 0.8:
            wins += 1
    assert wins >= 95


def test_bandit_k200_picks_good_arm():
    hits = 0
    for seed in range(100):
        evaluator = FakeEvaluator(
            lambda p: 1.0 if p[0] == Action.REWRITE else 0.0, recipe_len=1)
        cfg = MctsConfig(iterations=200, seed=seed, recipe_len=1)
        result = search(evaluator, (), SearchNode(), cfg,
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
    search(evaluator, (), tree, cfg, rng=random.Random(4))
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
    ev = RecipeEvaluator(g)
    recipe = (Action.BALANCE, Action.REWRITE, Action.BALANCE)
    first = ev.terminal_reward(recipe)
    hits_before = ev.cache_hits
    second = ev.terminal_reward(recipe)
    assert first == second
    assert ev.cache_hits > hits_before
    assert ev.calls == 1  # one synthesis call despite two queries


def test_evaluator_budget_enforced():
    g = ripple_adder(4)
    ev = RecipeEvaluator(g, budget=2)
    ev.terminal_reward((Action.BALANCE, Action.BALANCE))
    ev.terminal_reward((Action.BALANCE, Action.REWRITE))
    assert ev.exhausted
    with pytest.raises(BudgetExhausted):
        ev.terminal_reward((Action.REWRITE, Action.REWRITE))
    # cached recipes remain free after exhaustion
    ev.terminal_reward((Action.BALANCE, Action.REWRITE))


def test_evaluator_trace_rows():
    g = ripple_adder(4)
    ev = RecipeEvaluator(g, budget=5)
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
    result = generate_recipe(RecipeEvaluator(g), cfg)
    assert result.recipe.actions == (Action(best_action),)
    assert result.final_qor == best_adp
    assert base > 0


def test_generate_recipe_deterministic():
    g = ripple_adder(5)
    cfg = MctsConfig(iterations=12, seed=3)
    first_ev = RecipeEvaluator(g, budget=40)
    second_ev = RecipeEvaluator(g, budget=40)
    first = generate_recipe(first_ev, cfg)
    second = generate_recipe(second_ev, cfg)
    assert first.recipe == second.recipe
    assert first_ev.trace == second_ev.trace


def test_best_seen_never_worse_than_committed():
    for seed in range(5):
        g = random_dag(80, seed=seed)
        cfg = MctsConfig(iterations=10, seed=seed)
        evaluator = RecipeEvaluator(g, budget=30)
        result = generate_recipe(evaluator, cfg)
        assert result.best_qor <= result.final_qor
        assert evaluator.calls <= 30


def test_search_runs_no_pass_twice(pass_runs):
    # Prefixes shared between recipes, and transpositions, run their pass
    # once: the passes run are at most the distinct non-empty prefixes.
    evaluator = RecipeEvaluator(ripple_adder(4), budget=20)
    del pass_runs[:]  # the baseline's resyn2
    result = generate_recipe(evaluator, MctsConfig(iterations=12, seed=5))
    recipes = [tuple(Action.from_code(c) for c in row.prefix.split(","))
               for row in evaluator.trace] + [result.recipe.actions]
    prefixes = {r[:i] for r in recipes for i in range(1, len(r) + 1)}
    assert evaluator.calls == 20
    assert 0 < len(pass_runs) <= len(prefixes)


def test_alpha_zero_identical_with_and_without_policy():
    from aigopt.policy import PolicyConfig, PolicyNetwork

    g = ripple_adder(4)
    cfg = MctsConfig(iterations=10, seed=7, alpha=0.0)
    bare_ev = RecipeEvaluator(g, budget=25)
    bare = generate_recipe(bare_ev, cfg)
    net = PolicyNetwork(PolicyConfig(d_hidden=8, seed=0))
    guided_ev = RecipeEvaluator(g, budget=25)
    guided = generate_recipe(guided_ev, cfg, policy=net)
    assert bare.recipe == guided.recipe
    assert bare_ev.trace == guided_ev.trace


def test_guided_search_encodes_the_circuit_once(monkeypatch):
    from aigopt import mcts
    from aigopt.policy import PolicyConfig, PolicyNetwork

    calls = {"encode_aig": 0, "priors": 0}
    for name in calls:
        def counted(self, *args, _name=name,
                    _original=getattr(PolicyNetwork, name)):
            calls[_name] += 1
            return _original(self, *args)
        monkeypatch.setattr(PolicyNetwork, name, counted)
    nodes = []

    class CountedNode(mcts.SearchNode):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            nodes.append(self)

    monkeypatch.setattr(mcts, "SearchNode", CountedNode)
    net = PolicyNetwork(PolicyConfig(d_hidden=8, seed=0))
    g = ripple_adder(4)
    generate_recipe(RecipeEvaluator(g, budget=25),
                    MctsConfig(iterations=10, seed=7, alpha=1.0), policy=net)
    assert calls["encode_aig"] == 1
    with_prior = sum(node.prior is not None for node in nodes)
    assert with_prior > 10
    assert calls["priors"] == with_prior

    calls.update(encode_aig=0, priors=0)
    generate_recipe(RecipeEvaluator(g, budget=25),
                    MctsConfig(iterations=10, seed=7, alpha=0.0), policy=net)
    assert calls == {"encode_aig": 0, "priors": 0}


def test_levels_hold_each_level_prefix_and_visit_distribution():
    g = random_dag(80, seed=4)
    cfg = MctsConfig(iterations=12, seed=6, recipe_len=6)
    result = generate_recipe(RecipeEvaluator(g, budget=40), cfg)
    assert len(result.levels) == cfg.recipe_len
    for i, (prefix, pi) in enumerate(result.levels):
        assert prefix == result.recipe.actions[:i]
        assert len(pi) == N_ACTIONS
        assert abs(sum(pi) - 1.0) <= 1e-12


def test_recipe_longer_than_policy_raises_before_synthesis():
    from aigopt.policy import PolicyConfig, PolicyNetwork

    net = PolicyNetwork(PolicyConfig(d_hidden=8, seed=0, recipe_len=10))
    evaluator = RecipeEvaluator(ripple_adder(3), budget=50)
    cfg = MctsConfig(iterations=4, alpha=1.0, recipe_len=12)
    with pytest.raises(ValueError, match="recipe length 12 .* recipe length 10"):
        generate_recipe(evaluator, cfg, policy=net)
    assert evaluator.calls == 0 and not evaluator.trace


def test_alpha_requires_policy():
    g = ripple_adder(3)
    with pytest.raises(ValueError, match="policy"):
        generate_recipe(RecipeEvaluator(g, budget=10),
                        MctsConfig(iterations=4, alpha=0.5))


def test_budget_exhaustion_flagged():
    g = ripple_adder(5)
    cfg = MctsConfig(iterations=64, seed=0)
    evaluator = RecipeEvaluator(g, budget=8)
    result = generate_recipe(evaluator, cfg)
    assert result.exhausted
    assert evaluator.calls == 8
    assert len(result.recipe) == cfg.recipe_len
