"""Benchmark circuit generators and the evaluation harness comparing
search methods under a shared synthesis budget.

Generators build deliberately naive structures (ripple carries, majority
carries, chained parity) so the optimization passes have real work to do;
arithmetic families are verified against integer semantics in the tests.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass

from .aig import Aig, AigBuilder
from .mcts import MctsConfig, RecipeEvaluator, generate_recipe
from .ood import EmbeddingBank, OodConfig, alpha as ood_alpha, min_distance

MAX_INPUTS = 24

FAMILIES = ("ripple_adder", "array_multiplier", "comparator", "mux_tree",
            "random_dag")


def _full_adder(bld: AigBuilder, a: int, b: int, c: int) -> tuple[int, int]:
    # Naive sum/carry: chained parity plus a three-term majority.
    s = bld.xor_(bld.xor_(a, b), c)
    carry = bld.or_(bld.or_(bld.and_(a, b), bld.and_(b, c)), bld.and_(a, c))
    return s, carry


def ripple_adder(n_bits: int, name: str = "") -> Aig:
    if not 1 <= n_bits <= MAX_INPUTS // 2:
        raise ValueError(f"ripple_adder size must be in [1, {MAX_INPUTS // 2}]")
    bld = AigBuilder(2 * n_bits, name or f"ripple_adder_{n_bits}")
    a = [bld.pi(i) for i in range(n_bits)]
    b = [bld.pi(n_bits + i) for i in range(n_bits)]
    carry = bld.const(False)
    sums = []
    for i in range(n_bits):
        s, carry = _full_adder(bld, a[i], b[i], carry)
        sums.append(s)
    return bld.finish(sums + [carry])


def array_multiplier(n_bits: int, name: str = "") -> Aig:
    if not 1 <= n_bits <= MAX_INPUTS // 2:
        raise ValueError(
            f"array_multiplier size must be in [1, {MAX_INPUTS // 2}]")
    bld = AigBuilder(2 * n_bits, name or f"array_multiplier_{n_bits}")
    a = [bld.pi(i) for i in range(n_bits)]
    b = [bld.pi(n_bits + i) for i in range(n_bits)]
    acc = [bld.const(False)] * (2 * n_bits)
    for j in range(n_bits):
        row = [bld.const(False)] * (2 * n_bits)
        for i in range(n_bits):
            row[i + j] = bld.and_(a[i], b[j])
        carry = bld.const(False)
        nxt = []
        for k in range(2 * n_bits):
            s, carry = _full_adder(bld, acc[k], row[k], carry)
            nxt.append(s)
        acc = nxt
    return bld.finish(acc)


def comparator(n_bits: int, name: str = "") -> Aig:
    """Outputs [a < b, a == b] over two n-bit unsigned operands.

    Built the schoolbook way: a < b when some bit has a_i < b_i while all
    higher bits agree, with each prefix-equality conjunction recomputed from
    scratch (so the passes have sharing to recover)."""
    if not 1 <= n_bits <= MAX_INPUTS // 2:
        raise ValueError(f"comparator size must be in [1, {MAX_INPUTS // 2}]")
    bld = AigBuilder(2 * n_bits, name or f"comparator_{n_bits}")
    a = [bld.pi(i) for i in range(n_bits)]
    b = [bld.pi(n_bits + i) for i in range(n_bits)]
    lt = bld.const(False)
    for i in range(n_bits):
        term = bld.and_(a[i] ^ 1, b[i])
        for j in range(i + 1, n_bits):
            term = bld.and_(term, bld.xor_(a[j], b[j]) ^ 1)
        lt = bld.or_(lt, term)
    eq = bld.const(True)
    for i in range(n_bits):
        eq = bld.and_(eq, bld.xor_(a[i], b[i]) ^ 1)
    return bld.finish([lt, eq])


def mux_tree(n_select: int, name: str = "") -> Aig:
    """2**k data inputs followed by k select inputs, one output."""
    if not 1 <= n_select <= 4:
        raise ValueError("mux_tree size must be in [1, 4]")
    n_data = 1 << n_select
    if n_data + n_select > MAX_INPUTS:
        raise ValueError("mux_tree exceeds the input bound")
    bld = AigBuilder(n_data + n_select, name or f"mux_tree_{n_select}")
    layer = [bld.pi(i) for i in range(n_data)]
    for s in range(n_select):
        sel = bld.pi(n_data + s)
        layer = [bld.mux_(sel, layer[2 * i + 1], layer[2 * i])
                 for i in range(len(layer) // 2)]
    return bld.finish(layer)


def random_dag(size: int, seed: int = 0, name: str = "") -> Aig:
    """Seeded random two-input network mixing AND/OR/XOR/MUX motifs."""
    if size < 1:
        raise ValueError("random_dag size must be >= 1")
    rng = random.Random(seed)
    n_inputs = min(4 + size // 10, 16)
    bld = AigBuilder(n_inputs, name or f"random_dag_{size}_{seed}")
    lits = [bld.pi(i) for i in range(n_inputs)]

    def pick_recent() -> int:
        idx = len(lits) - 1 - min(int(rng.expovariate(0.3)), len(lits) - 1)
        return lits[idx] ^ rng.randint(0, 1)

    def pick_any() -> int:
        # Mixing in uniform (and raw-PI) picks keeps the support wide and
        # the functions non-degenerate.
        if rng.random() < 0.3:
            return bld.pi(rng.randrange(n_inputs)) ^ rng.randint(0, 1)
        return lits[rng.randrange(len(lits))] ^ rng.randint(0, 1)

    attempts = 0
    while len(bld._ands) < size and attempts < 100 * size:
        attempts += 1
        op = rng.random()
        if op < 0.45:
            result = bld.and_(pick_recent(), pick_any())
        elif op < 0.75:
            result = bld.or_(pick_recent(), pick_any())
        elif op < 0.9:
            result = bld.xor_(pick_recent(), pick_any())
        else:
            result = bld.mux_(pick_any(), pick_recent(), pick_any())
        if result >> 1 != 0:  # collapsed-to-constant results would trap picks
            lits.append(result)
    n_out = max(1, min(4, size // 12))
    step = max(1, len(lits) // (n_out + 1))
    outputs = [l for l in lits[::-step][:n_out] if l >> 1 != 0] or [lits[-1]]
    return bld.finish(outputs)


def generate_circuit(family: str, size: int, seed: int = 0) -> Aig:
    """Deterministic benchmark circuit; `size` is bits for the arithmetic
    families, select-line count for mux trees, and the node budget for
    random DAGs."""
    if family == "ripple_adder":
        return ripple_adder(size)
    if family == "array_multiplier":
        return array_multiplier(size)
    if family == "comparator":
        return comparator(size)
    if family == "mux_tree":
        return mux_tree(size)
    if family == "random_dag":
        return random_dag(size, seed)
    raise ValueError(f"unknown circuit family {family!r}; "
                     f"expected one of {FAMILIES}")


# ---------------------------------------------------------------------------
# Evaluation harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MethodSpec:
    """A search configuration under comparison.

    ``alpha`` fixes the prior exponent; None routes through the OOD gate
    (which requires a policy, a bank, and an OodConfig).
    """

    name: str
    alpha: float | None = 0.0
    temperature: float = 0.0

    @classmethod
    def pure_mcts(cls) -> "MethodSpec":
        return cls("pure_mcts", alpha=0.0)

    @classmethod
    def agent_guided(cls) -> "MethodSpec":
        return cls("agent_guided", alpha=1.0)

    @classmethod
    def agent_with_ood(cls, temperature: float = 0.0) -> "MethodSpec":
        return cls(f"agent_ood_T{temperature:g}", alpha=None,
                   temperature=temperature)


@dataclass
class EvalRow:
    method: str
    circuit: str
    seed: int
    alpha_used: float
    baseline_adp: float
    final_adp: float
    best_adp: float
    reduction_pct: float
    synth_calls: int
    wall_s: float

    FIELDS = ("method", "circuit", "seed", "alpha_used", "baseline_adp",
              "final_adp", "best_adp", "reduction_pct", "synth_calls",
              "wall_s")


@dataclass
class EvalReport:
    rows: list[EvalRow]
    aggregates: dict
    header_note: str = ("geomean over (1 + reduction/100) factors, "
                        "converted back to percent")

    def to_json(self) -> str:
        payload = {
            "note": self.header_note,
            "rows": [row.__dict__ for row in self.rows],
            "aggregates": self.aggregates,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_csv(self) -> str:
        lines = [",".join(EvalRow.FIELDS)]
        for row in self.rows:
            lines.append(",".join(repr(getattr(row, f))
                                  if isinstance(getattr(row, f), float)
                                  else str(getattr(row, f))
                                  for f in EvalRow.FIELDS))
        return "\n".join(lines) + "\n"


def geomean_reduction(reductions_pct: list[float]) -> float:
    """Geometric mean of reduction percentages via shifted (1 + r/100)
    factors, safe for zero or negative entries."""
    if not reductions_pct:
        return 0.0
    log_sum = 0.0
    for r in reductions_pct:
        factor = 1.0 + r / 100.0
        if factor <= 0.0:
            factor = 1e-9
        log_sum += math.log(factor)
    return 100.0 * (math.exp(log_sum / len(reductions_pct)) - 1.0)


def resolve_alpha(spec: MethodSpec, circuit: Aig, policy, bank: EmbeddingBank | None,
                  delta_th: float | None) -> float:
    if spec.alpha is not None:
        return spec.alpha
    if policy is None or bank is None or delta_th is None:
        raise ValueError(f"method {spec.name!r} needs a policy, an embedding "
                         "bank, and a calibrated threshold")
    h = policy.encode_aig(circuit)
    d_min, _ = min_distance(h, bank)
    return ood_alpha(d_min, OodConfig(delta_th, spec.temperature))


def _first_reach(trace, target_adp: float) -> int | None:
    """1-based synthesis-call index at which the running best reaches the
    target, None if never."""
    for row in trace:
        if row.adp_proxy <= target_adp + 1e-12:
            return row.iteration + 1
    return None


def _run_one(circuit: Aig, circuit_id: str, method_name: str,
             alpha_value: float, seed: int, budget: int, iterations: int,
             recipe_len: int, c_uct: float, policy,
             measure_time: bool) -> tuple[EvalRow, list]:
    cfg = MctsConfig(c_uct=c_uct, iterations=iterations, alpha=alpha_value,
                     seed=seed, recipe_len=recipe_len)
    evaluator = RecipeEvaluator(circuit, recipe_len=recipe_len, budget=budget,
                                measure_time=measure_time)
    start = time.perf_counter() if measure_time else 0.0
    result = generate_recipe(evaluator, cfg,
                             policy=policy if alpha_value > 0 else None)
    wall = time.perf_counter() - start if measure_time else 0.0
    base_adp = evaluator.baseline
    best = result.best_qor
    reduction = 100.0 * (1.0 - best / base_adp) if base_adp > 0 else 0.0
    row = EvalRow(method_name, circuit_id, seed, alpha_value, base_adp,
                  result.final_qor, best, reduction, result.budget_used, wall)
    return row, result.trace


def _grid_worker(payload) -> tuple[int, EvalRow, list]:
    (index, circuit_bytes, circuit_id, method_name, alpha_value, seed,
     budget, iterations, recipe_len, c_uct, net_blob, measure_time) = payload
    import pickle

    from .aig import parse_aiger

    circuit = parse_aiger(circuit_bytes, name=circuit_id)
    policy = pickle.loads(net_blob) if net_blob is not None else None
    row, trace = _run_one(circuit, circuit_id, method_name, alpha_value,
                          seed, budget, iterations, recipe_len, c_uct,
                          policy, measure_time)
    return index, row, trace


def evaluate(methods: list[MethodSpec], circuits: dict[str, Aig],
             policy=None, bank: EmbeddingBank | None = None,
             delta_th: float | None = None, budget: int = 100,
             seeds: tuple[int, ...] = (0,),
             mcts_cfg: MctsConfig | None = None,
             measure_time: bool = False,
             trace_sink=None, jobs: int = 1) -> EvalReport:
    """Runs every method on every test circuit under the same synthesis
    budget and aggregates reductions, win ratios, and iso-QoR speedups
    (reference method: pure MCTS when present, else the first method).

    ``jobs`` > 1 fans the (circuit, method, seed) grid out to worker
    processes; results are merged back in deterministic grid order.
    """
    base_cfg = mcts_cfg or MctsConfig(iterations=64)
    grid: list[tuple[str, str, float, int]] = []
    for circuit_id in sorted(circuits):
        circuit = circuits[circuit_id]
        for spec in methods:
            a = resolve_alpha(spec, circuit, policy, bank, delta_th)
            for seed in seeds:
                grid.append((circuit_id, spec.name, a, seed))
    results: list[tuple[EvalRow, list]] = [None] * len(grid)  # type: ignore
    if jobs > 1:
        import pickle
        from concurrent.futures import ProcessPoolExecutor

        from .aig import write_aiger

        net_blob = pickle.dumps(policy) if policy is not None else None
        payloads = [
            (i, write_aiger(circuits[cid]), cid, mname, a, seed, budget,
             base_cfg.iterations, base_cfg.recipe_len, base_cfg.c_uct,
             net_blob if a > 0 else None, measure_time)
            for i, (cid, mname, a, seed) in enumerate(grid)
        ]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for index, row, trace in pool.map(_grid_worker, payloads):
                results[index] = (row, trace)
    else:
        for i, (cid, mname, a, seed) in enumerate(grid):
            results[i] = _run_one(circuits[cid], cid, mname, a, seed, budget,
                                  base_cfg.iterations, base_cfg.recipe_len,
                                  base_cfg.c_uct, policy, measure_time)
    rows = [row for row, _ in results]
    traces = {(row.method, row.circuit, row.seed): trace
              for row, trace in results}
    if trace_sink is not None:
        for row, trace in results:
            trace_sink(row.method, row.circuit, row.seed, trace)
    aggregates = _aggregate(methods, sorted(circuits), seeds, rows, traces)
    return EvalReport(rows=rows, aggregates=aggregates)


def _aggregate(methods, circuit_ids, seeds, rows, traces) -> dict:
    by_key = {(r.method, r.circuit, r.seed): r for r in rows}
    ref = next((m.name for m in methods if m.name == "pure_mcts"),
               methods[0].name)
    aggregates: dict = {"reference_method": ref}
    mean_best: dict[tuple[str, str], float] = {}
    for spec in methods:
        for cid in circuit_ids:
            values = [by_key[(spec.name, cid, s)].best_adp for s in seeds]
            mean_best[(spec.name, cid)] = sum(values) / len(values)
    for spec in methods:
        reductions = [by_key[(spec.name, cid, s)].reduction_pct
                      for cid in circuit_ids for s in seeds]
        wins = ties = losses = 0
        for cid in circuit_ids:
            mine = mean_best[(spec.name, cid)]
            others = [mean_best[(m.name, cid)] for m in methods
                      if m.name != spec.name]
            if not others:
                wins += 1
                continue
            best_other = min(others)
            if mine < best_other - 1e-12:
                wins += 1
            elif mine <= best_other + 1e-12:
                ties += 1
            else:
                losses += 1
        speedups = []
        for cid in circuit_ids:
            per_seed = []
            for s in seeds:
                mine = traces.get((spec.name, cid, s), [])
                other = traces.get((ref, cid, s), [])
                if spec.name == ref:
                    per_seed.append(1.0)
                    continue
                target = min((r.adp_proxy for r in other), default=None)
                if target is None or not mine:
                    per_seed.append(1.0)
                    continue
                n_ref = _first_reach(other, target)
                n_mine = _first_reach(mine, target)
                per_seed.append(1.0 if n_mine is None or n_ref is None
                                else n_ref / n_mine)
            speedups.append(sum(per_seed) / len(per_seed))
        aggregates[spec.name] = {
            "geomean_reduction_pct": geomean_reduction(reductions),
            "win": wins, "tie": ties, "loss": losses,
            "iso_qor_speedup_vs_reference":
                sum(speedups) / len(speedups) if speedups else 1.0,
        }
    return aggregates
