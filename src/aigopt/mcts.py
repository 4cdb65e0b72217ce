"""Upper-confidence tree search over recipe prefixes.

The tree is keyed by recipe prefix. Terminal rewards (at full recipe
length) come from a prefix-memoized synthesis evaluator that enforces the
synthesis-call budget and records one trace row per full-recipe
evaluation. An optional policy scales the exploration term by the learned
prior raised to the blending exponent alpha; alpha = 0 degenerates exactly
to unbiased search.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field

from .aig import Aig, stats
from .qor import baseline_qor, qor, reward
from .transforms import DEFAULT_RECIPE_LEN, N_ACTIONS, Action, Recipe, apply

PRIOR_FLOOR = 1e-6  # no action is ever permanently masked


class BudgetExhausted(RuntimeError):
    """Raised when a new synthesis evaluation would exceed the budget."""


@dataclass
class MctsConfig:
    c_uct: float = math.sqrt(2.0)
    iterations: int = 512
    alpha: float = 0.0
    seed: int = 0
    recipe_len: int = DEFAULT_RECIPE_LEN
    n_actions: int = N_ACTIONS  # restrictable for synthetic-bandit oracles

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if not 1 <= self.n_actions <= N_ACTIONS:
            raise ValueError(f"n_actions must lie in [1, {N_ACTIONS}]")


class SearchNode:
    __slots__ = ("n", "w", "prior", "children")

    def __init__(self, prior: list[float] | None = None,
                 n_actions: int = N_ACTIONS):
        self.n = [0] * n_actions
        self.w = [0.0] * n_actions
        self.prior = prior
        self.children: dict[int, SearchNode] = {}

    def q(self, action: int) -> float:
        return self.w[action] / self.n[action] if self.n[action] else 0.0

    def total_visits(self) -> int:
        return sum(self.n)


def uct(node: SearchNode, action: int, c_uct: float) -> float:
    """Exploration term; unvisited actions return +inf so they are tried
    first."""
    n_a = node.n[action]
    if n_a == 0:
        return math.inf
    total = node.total_visits()
    return c_uct * math.sqrt(math.log(total) / n_a)


def biased_uct(prior: float, u: float, alpha: float) -> float:
    """Scales the exploration term by prior**alpha.

    alpha = 0 returns u unchanged (bit-exact); a zero prior with infinite u
    suppresses the action (inf * 0 treated as 0).
    """
    if alpha == 0.0:
        return u
    p = prior ** alpha
    if math.isinf(u):
        return math.inf if p > 0.0 else 0.0
    return p * u


def select(node: SearchNode, c_uct: float, alpha: float) -> int:
    """argmax over Q + U*; ties break to the lowest action index."""
    best_action = 0
    best_score = -math.inf
    use_prior = alpha > 0.0 and node.prior is not None
    for a in range(len(node.n)):
        u = uct(node, a, c_uct)
        if use_prior:
            u = biased_uct(max(node.prior[a], PRIOR_FLOOR), u, alpha)
        score = node.q(a) + u
        if score > best_score:
            best_score = score
            best_action = a
    return best_action


def backup(path: list[tuple[SearchNode, int]], value: float) -> None:
    for node, action in path:
        node.n[action] += 1
        node.w[action] += value


def rollout(evaluator, prefix: tuple[Action, ...], rng: random.Random,
            config: MctsConfig) -> float:
    """Completes the prefix with uniformly random actions to full length and
    returns the terminal reward; a full-length prefix evaluates directly."""
    full = tuple(prefix)
    while len(full) < config.recipe_len:
        full = full + (Action(rng.randrange(config.n_actions)),)
    return evaluator.terminal_reward(full)


@dataclass
class TraceRow:
    iteration: int
    prefix: str
    node_count: int
    depth: int
    adp_proxy: float
    reward: float
    wall_ns: int


class RecipeEvaluator:
    """Prefix-memoized synthesis with budget enforcement.

    A "synthesis call" is the evaluation of one previously unseen complete
    recipe; partial prefixes are cached so shared work is never repeated.
    The baseline run does not count against the budget.
    """

    def __init__(self, root: Aig, recipe_len: int = DEFAULT_RECIPE_LEN,
                 budget: int | None = None, measure_time: bool = False):
        self.root = root
        self.recipe_len = recipe_len
        self.budget = budget
        self.measure_time = measure_time
        self.calls = 0
        self.cache_hits = 0
        self.trace: list[TraceRow] = []
        self.best_adp: float | None = None
        self.best_prefix: tuple[Action, ...] | None = None
        self._aigs: dict[tuple[Action, ...], Aig] = {(): root}
        self._rewards: dict[tuple[Action, ...], float] = {}
        self._baseline: float | None = None

    @property
    def baseline(self) -> float:
        if self._baseline is None:
            self._baseline = baseline_qor(self.root)
        return self._baseline

    @property
    def exhausted(self) -> bool:
        return self.budget is not None and self.calls >= self.budget

    def aig_for(self, prefix: tuple[Action, ...]) -> Aig:
        cached = self._aigs.get(prefix)
        if cached is not None:
            self.cache_hits += 1
            return cached
        parent = self.aig_for(prefix[:-1])
        result = apply(parent, prefix[-1])
        self._aigs[prefix] = result
        return result

    def terminal_reward(self, prefix: tuple[Action, ...]) -> float:
        if len(prefix) != self.recipe_len:
            raise ValueError("terminal reward requires a full-length recipe")
        if prefix in self._rewards:
            self.cache_hits += 1
            return self._rewards[prefix]
        if self.exhausted:
            raise BudgetExhausted(
                f"synthesis budget of {self.budget} calls exhausted")
        start = time.perf_counter_ns() if self.measure_time else 0
        final = self.aig_for(prefix)
        wall = time.perf_counter_ns() - start if self.measure_time else 0
        s = stats(final)
        adp = float(s.node_count * s.depth)
        value = reward(adp, self.baseline)
        self._rewards[prefix] = value
        self.trace.append(TraceRow(self.calls, str(Recipe(prefix)),
                                   s.node_count, s.depth, adp, value, wall))
        if self.best_adp is None or adp < self.best_adp:
            self.best_adp = adp
            self.best_prefix = prefix
        self.calls += 1
        return value


@dataclass
class SearchResult:
    pi: list[float]
    action: Action
    iterations_run: int
    exhausted: bool


def search(evaluator: RecipeEvaluator, prefix: tuple[Action, ...],
           tree: SearchNode, config: MctsConfig, policy=None,
           rng: random.Random | None = None) -> SearchResult:
    """Runs K select-expand-rollout-backup iterations below ``prefix``,
    growing ``tree`` (the node of that prefix).

    Returns the normalized root visit-count distribution and its argmax.
    Deterministic given the seed. A policy must be attached whenever
    alpha > 0.
    """
    if policy is None and config.alpha > 0.0:
        raise ValueError("alpha > 0 requires a policy")
    if len(prefix) >= config.recipe_len:
        raise ValueError("search requires a non-terminal prefix")
    if rng is None:
        rng = random.Random(config.seed)
    recipe_len = config.recipe_len
    n_actions = config.n_actions
    want_prior = policy is not None and config.alpha > 0.0
    if want_prior and tree.prior is None:
        tree.prior = list(policy.priors(evaluator.root, prefix))
    completed = 0
    exhausted = False
    for _ in range(config.iterations):
        path: list[tuple[SearchNode, int]] = []
        leaf = prefix
        node = tree
        try:
            while True:
                if len(leaf) == recipe_len:
                    value = evaluator.terminal_reward(leaf)
                    break
                action = select(node, config.c_uct, config.alpha)
                path.append((node, action))
                leaf = leaf + (Action(action),)
                unvisited = node.n[action] == 0
                if action not in node.children:
                    prior = (list(policy.priors(evaluator.root, leaf))
                             if want_prior else None)
                    node.children[action] = SearchNode(prior, n_actions)
                if unvisited:
                    value = rollout(evaluator, leaf, rng, config)
                    break
                node = node.children[action]
        except BudgetExhausted:
            exhausted = True
            break
        backup(path, value)
        completed += 1
    total = tree.total_visits()
    if total > 0:
        pi = [tree.n[a] / total for a in range(n_actions)]
    else:
        pi = [1.0 / n_actions] * n_actions
    best = max(range(n_actions), key=lambda a: (pi[a], -a))
    return SearchResult(pi, Action(best), completed, exhausted)


@dataclass
class RecipeResult:
    recipe: Recipe
    final_qor: float
    best_qor: float
    best_recipe: Recipe
    pis: list[list[float]]
    budget_used: int
    exhausted: bool
    trace: list[TraceRow] = field(repr=False)
    cache_hits: int = 0


def generate_recipe(evaluator: RecipeEvaluator, config: MctsConfig,
                    policy=None, collect=None) -> RecipeResult:
    """Builds a full recipe for ``evaluator.root`` by running a search at
    each level and committing the visit-count argmax, descending into the
    committed child. The evaluator carries the synthesis budget.

    Reports both the committed recipe's QoR and the best QoR seen across
    all synthesized leaves. ``collect`` (if given) receives
    (prefix, pi, root_node) after each level, for training data capture.
    """
    rng = random.Random(config.seed)
    node = SearchNode(n_actions=config.n_actions)
    prefix: tuple[Action, ...] = ()
    pis: list[list[float]] = []
    exhausted = False
    for _ in range(config.recipe_len):
        result = search(evaluator, prefix, node, config, policy, rng)
        exhausted = exhausted or result.exhausted
        pis.append(result.pi)
        if collect is not None:
            collect(prefix, result.pi, node)
        action = result.action
        prefix = prefix + (action,)
        node = node.children.get(int(action)) or SearchNode(
            n_actions=config.n_actions)
    final = qor(evaluator.aig_for(prefix))
    if evaluator.best_adp is not None and evaluator.best_adp <= final:
        best = evaluator.best_adp
        best_recipe = Recipe(evaluator.best_prefix)
    else:
        best = final
        best_recipe = Recipe(prefix)
    return RecipeResult(recipe=Recipe(prefix), final_qor=final, best_qor=best,
                        best_recipe=best_recipe, pis=pis,
                        budget_used=evaluator.calls, exhausted=exhausted,
                        trace=evaluator.trace, cache_hits=evaluator.cache_hits)
