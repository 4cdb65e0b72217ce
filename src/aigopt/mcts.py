"""Upper-confidence tree search over recipe prefixes.

The tree is keyed by recipe prefix. Terminal rewards (at full recipe
length) come from a synthesis evaluator that enforces the synthesis-call
budget and records one trace row per full-recipe evaluation. Pass results
are memoized by circuit structure in ``transforms.apply``, so work shared
between recipes (common prefixes and transpositions) is not repeated. An
optional policy scales the exploration term by the learned prior raised to
the blending exponent alpha; alpha = 0 degenerates exactly to unbiased
search.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from functools import partial

from .aig import Aig
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

    def __post_init__(self):
        if not (math.isfinite(self.c_uct) and self.c_uct >= 0):
            raise ValueError("c_uct must be finite and >= 0")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.recipe_len < 1:
            raise ValueError("recipe_len must be >= 1")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


class SearchNode:
    __slots__ = ("n", "w", "prior", "children")

    def __init__(self, prior: list[float] | None = None):
        self.n = [0] * N_ACTIONS
        self.w = [0.0] * N_ACTIONS
        self.prior = prior
        self.children: dict[int, SearchNode] = {}

    def q(self, action: int) -> float:
        return self.w[action] / self.n[action] if self.n[action] else 0.0

    def total_visits(self) -> int:
        return sum(self.n)


def select(node: SearchNode, c_uct: float, alpha: float) -> int:
    """argmax over Q + p * c_uct * sqrt(ln N / n_a); ties break to the
    lowest action index. p is max(prior, PRIOR_FLOOR) ** alpha when alpha
    > 0 and the node has a prior, else 1. An unvisited action scores +inf
    if p > 0, else 0 (a NaN prior), so it is tried first."""
    best_action = 0
    best_score = -math.inf
    total = node.total_visits()
    prior = node.prior if alpha > 0.0 else None
    for a, n_a in enumerate(node.n):
        p = 1.0 if prior is None else max(prior[a], PRIOR_FLOOR) ** alpha
        if n_a == 0:
            score = math.inf if p > 0.0 else 0.0
        else:
            u = c_uct * math.sqrt(math.log(total) / n_a)
            score = node.q(a) + p * u
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
        full = full + (Action(rng.randrange(N_ACTIONS)),)
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
    """Recipe synthesis with budget enforcement.

    A "synthesis call" is the evaluation of one previously unseen complete
    recipe; a recipe asked again returns its stored reward and counts as a
    cache hit. Pass results are reused through ``transforms.apply``. The
    baseline run does not count against the budget. A budget of None is
    unbounded; otherwise it must allow at least one call.
    """

    def __init__(self, root: Aig, budget: int | None = None,
                 measure_time: bool = False):
        if budget is not None and budget < 1:
            raise ValueError("budget must be >= 1")
        self.root = root
        self.budget = budget
        self.measure_time = measure_time
        self.calls = 0
        self.cache_hits = 0
        self.trace: list[TraceRow] = []
        self._rewards: dict[tuple[Action, ...], float] = {}
        self.baseline = baseline_qor(root)

    @property
    def exhausted(self) -> bool:
        return self.budget is not None and self.calls >= self.budget

    def aig_for(self, prefix: tuple[Action, ...]) -> Aig:
        aig = self.root
        for action in prefix:
            aig = apply(aig, action)
        return aig

    def terminal_reward(self, prefix: tuple[Action, ...]) -> float:
        if prefix in self._rewards:
            self.cache_hits += 1
            return self._rewards[prefix]
        if self.exhausted:
            raise BudgetExhausted(
                f"synthesis budget of {self.budget} calls exhausted")
        start = time.perf_counter_ns() if self.measure_time else 0
        final = self.aig_for(prefix)
        wall = time.perf_counter_ns() - start if self.measure_time else 0
        adp = qor(final)
        value = reward(adp, self.baseline)
        self._rewards[prefix] = value
        self.trace.append(TraceRow(self.calls, str(Recipe(prefix)),
                                   len(final.ands), final.depth, adp, value,
                                   wall))
        self.calls += 1
        return value


@dataclass
class SearchResult:
    pi: list[float]
    action: Action
    exhausted: bool


def search(evaluator: RecipeEvaluator, prefix: tuple[Action, ...],
           tree: SearchNode, config: MctsConfig, rng: random.Random,
           prior=None) -> SearchResult:
    """Runs K select-expand-rollout-backup iterations below ``prefix``,
    growing ``tree`` (the node of that prefix); ``rng`` draws the rollouts.

    Returns the normalized root visit-count distribution and its argmax.
    ``prior(prefix)`` gives a new node's action probabilities; it is
    required when alpha > 0 (see ``check_guided``), unused otherwise.
    """
    if len(prefix) >= config.recipe_len:
        raise ValueError("search requires a non-terminal prefix")
    recipe_len = config.recipe_len
    want_prior = config.alpha > 0.0
    if want_prior and tree.prior is None:
        tree.prior = list(prior(prefix))
    exhausted = False
    for _ in range(config.iterations):
        path: list[tuple[SearchNode, int]] = []
        leaf = prefix
        node = tree
        try:
            while True:
                action = select(node, config.c_uct, config.alpha)
                path.append((node, action))
                leaf = leaf + (Action(action),)
                unvisited = node.n[action] == 0
                if action not in node.children:
                    node.children[action] = SearchNode(
                        list(prior(leaf)) if want_prior else None)
                if unvisited or len(leaf) == recipe_len:
                    value = rollout(evaluator, leaf, rng, config)
                    break
                node = node.children[action]
        except BudgetExhausted:
            exhausted = True
            break
        backup(path, value)
    total = tree.total_visits()
    if total > 0:
        pi = [tree.n[a] / total for a in range(N_ACTIONS)]
    else:
        pi = [1.0 / N_ACTIONS] * N_ACTIONS
    best = max(range(N_ACTIONS), key=lambda a: (pi[a], -a))
    return SearchResult(pi, Action(best), exhausted)


def check_guided(config: MctsConfig, policy) -> None:
    """Raises ValueError when a guided search (alpha > 0) has no policy, or
    asks for a longer recipe than the policy's."""
    if config.alpha > 0.0 and policy is None:
        raise ValueError("alpha > 0 requires a policy prior")
    if config.alpha > 0.0 and config.recipe_len > policy.config.recipe_len:
        raise ValueError(
            f"recipe length {config.recipe_len} is longer than the "
            f"model's recipe length {policy.config.recipe_len}")


@dataclass
class RecipeResult:
    """``levels`` holds one ``(prefix, pi)`` per recipe level, in order: the
    committed prefix searched at that level and the root visit distribution
    that search left, whose argmax extends the prefix."""

    recipe: Recipe
    final_qor: float
    best_qor: float
    best_recipe: Recipe
    exhausted: bool
    levels: list[tuple[tuple[Action, ...], list[float]]]


def generate_recipe(evaluator: RecipeEvaluator, config: MctsConfig,
                    policy=None) -> RecipeResult:
    """Builds a full recipe for ``evaluator.root`` by running a search at
    each level and committing the visit-count argmax, descending into the
    committed child. The evaluator carries the synthesis budget, and its
    ``calls``, ``cache_hits`` and ``trace`` are the record of the run.

    When alpha > 0 the policy encodes the circuit once, and each new tree
    node gets ``policy.priors`` of that embedding; ``check_guided`` runs
    before any synthesis call. Reports the committed recipe's QoR and the
    best QoR seen: the first trace row with the smallest ADP proxy, unless
    the committed recipe is better.
    """
    check_guided(config, policy)
    prior = None
    if config.alpha > 0.0:
        prior = partial(policy.priors, policy.encode_aig(evaluator.root))
    rng = random.Random(config.seed)
    node = SearchNode()
    prefix: tuple[Action, ...] = ()
    levels = []
    exhausted = False
    for _ in range(config.recipe_len):
        result = search(evaluator, prefix, node, config, rng, prior)
        exhausted = exhausted or result.exhausted
        levels.append((prefix, result.pi))
        action = result.action
        prefix = prefix + (action,)
        node = node.children.get(int(action)) or SearchNode()
    final = qor(evaluator.aig_for(prefix))
    best_row = min(evaluator.trace, key=lambda row: row.adp_proxy,
                   default=None)
    if best_row is not None and best_row.adp_proxy <= final:
        best, best_recipe = best_row.adp_proxy, Recipe.parse(best_row.prefix)
    else:
        best, best_recipe = final, Recipe(prefix)
    return RecipeResult(recipe=Recipe(prefix), final_qor=final, best_qor=best,
                        best_recipe=best_recipe, exhausted=exhausted,
                        levels=levels)
