"""Benchmark circuit generators and the evaluation harness comparing
search methods under a shared synthesis budget.

Generators build deliberately naive structures (ripple carries, majority
carries, chained parity) so the optimization passes have real work to do;
arithmetic families are verified against integer semantics in the tests.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import random
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .aig import Aig, AigBuilder
from .mcts import (MctsConfig, RecipeEvaluator, TraceRow, check_guided,
                   generate_recipe)
from .transforms import _MEMO

if TYPE_CHECKING:
    from .ood import EmbeddingBank

MAX_INPUTS = 24


def _full_adder(bld: AigBuilder, a: int, b: int, c: int) -> tuple[int, int]:
    # Naive sum/carry: chained parity plus a three-term majority.
    s = bld.xor_(bld.xor_(a, b), c)
    carry = bld.or_(bld.or_(bld.and_(a, b), bld.and_(b, c)), bld.and_(a, c))
    return s, carry


def _operands(family: str, n_bits: int) -> tuple[AigBuilder, list[int],
                                                 list[int]]:
    """The builder of an ``n_bits``-bit two-operand circuit and the literals
    of its operands ``a`` (inputs 0..n-1) and ``b`` (inputs n..2n-1)."""
    if not 1 <= n_bits <= MAX_INPUTS // 2:
        raise ValueError(f"{family} size must be in [1, {MAX_INPUTS // 2}]")
    bld = AigBuilder(2 * n_bits, f"{family}_{n_bits}")
    return (bld, [bld.pi(i) for i in range(n_bits)],
            [bld.pi(n_bits + i) for i in range(n_bits)])


def ripple_adder(n_bits: int) -> Aig:
    bld, a, b = _operands("ripple_adder", n_bits)
    carry = 0
    sums = []
    for i in range(n_bits):
        s, carry = _full_adder(bld, a[i], b[i], carry)
        sums.append(s)
    return bld.finish(sums + [carry])


def array_multiplier(n_bits: int) -> Aig:
    bld, a, b = _operands("array_multiplier", n_bits)
    acc = [0] * (2 * n_bits)
    for j in range(n_bits):
        row = [0] * (2 * n_bits)
        for i in range(n_bits):
            row[i + j] = bld.and_(a[i], b[j])
        carry = 0
        nxt = []
        for k in range(2 * n_bits):
            s, carry = _full_adder(bld, acc[k], row[k], carry)
            nxt.append(s)
        acc = nxt
    return bld.finish(acc)


def comparator(n_bits: int) -> Aig:
    """Outputs [a < b, a == b] over two n-bit unsigned operands.

    Built the schoolbook way: a < b when some bit has a_i < b_i while all
    higher bits agree, with each prefix-equality conjunction recomputed from
    scratch (so the passes have sharing to recover)."""
    bld, a, b = _operands("comparator", n_bits)
    lt = 0
    for i in range(n_bits):
        term = bld.and_(a[i] ^ 1, b[i])
        for j in range(i + 1, n_bits):
            term = bld.and_(term, bld.xor_(a[j], b[j]) ^ 1)
        lt = bld.or_(lt, term)
    eq = 1
    for i in range(n_bits):
        eq = bld.and_(eq, bld.xor_(a[i], b[i]) ^ 1)
    return bld.finish([lt, eq])


def mux_tree(n_select: int) -> Aig:
    """2**k data inputs followed by k select inputs, one output."""
    if not 1 <= n_select <= 4:
        raise ValueError("mux_tree size must be in [1, 4]")
    n_data = 1 << n_select  # at most 16 + 4 inputs, inside MAX_INPUTS
    bld = AigBuilder(n_data + n_select, f"mux_tree_{n_select}")
    layer = [bld.pi(i) for i in range(n_data)]
    for s in range(n_select):
        sel = bld.pi(n_data + s)
        layer = [bld.mux_(sel, layer[2 * i + 1], layer[2 * i])
                 for i in range(len(layer) // 2)]
    return bld.finish(layer)


def random_dag(size: int, seed: int = 0) -> Aig:
    """Seeded random two-input network mixing AND/OR/XOR/MUX motifs."""
    if size < 1:
        raise ValueError("random_dag size must be >= 1")
    if seed < 0:  # random.Random seeds with abs(seed): -3 would alias 3
        raise ValueError("random_dag seed must be >= 0")
    rng = random.Random(seed)
    n_inputs = min(4 + size // 10, 16)
    bld = AigBuilder(n_inputs, f"random_dag_{size}_{seed}")
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


_GENERATORS = {f.__name__: f for f in (ripple_adder, array_multiplier,
                                        comparator, mux_tree, random_dag)}
FAMILIES = tuple(_GENERATORS)


def generate_circuit(family: str, size: int, seed: int = 0) -> Aig:
    """Deterministic benchmark circuit; `size` is bits for the arithmetic
    families, select-line count for mux trees, and the node budget for
    random DAGs, the only family that takes the seed."""
    if family not in _GENERATORS:
        raise ValueError(f"unknown circuit family {family!r}; "
                         f"expected one of {FAMILIES}")
    if family == "random_dag":
        return random_dag(size, seed)
    return _GENERATORS[family](size)


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


# The prior exponent of each named method; None is the OOD-gated agent.
METHODS = {"pure_mcts": 0.0, "agent_guided": 1.0, "agent_ood": None}


def method(name: str, temperature: float = 0.0) -> MethodSpec:
    """The spec of a method in ``METHODS``; KeyError on an unknown name."""
    alpha = METHODS[name]
    if alpha is None:  # the gated method is named after its temperature
        return MethodSpec(f"agent_ood_T{temperature:g}", None, temperature)
    return MethodSpec(name, alpha)


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


_REPORT_NOTE = ("geomean over (1 + reduction/100) factors, "
                "converted back to percent")


@dataclass
class EvalReport:
    """The grid's rows and aggregates, and the trace of each run keyed by
    (method, circuit, seed)."""

    rows: list[EvalRow]
    aggregates: dict
    traces: dict[tuple[str, str, int], list[TraceRow]]

    def to_json(self) -> str:
        payload = {
            "note": _REPORT_NOTE,
            "rows": [row.__dict__ for row in self.rows],
            "aggregates": self.aggregates,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(f.name for f in dataclasses.fields(EvalRow))
        # csv writes a float as its repr, as the JSON report does
        writer.writerows(dataclasses.astuple(row) for row in self.rows)
        return out.getvalue()


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
    # imported here: the gate loads numpy, which unguided runs never need
    from .ood import OodConfig, alpha, min_distance

    d_min, _ = min_distance(policy.encode_aig(circuit), bank)
    return alpha(d_min, OodConfig(delta_th, spec.temperature))


def _first_reach(trace, target_adp: float) -> int | None:
    """1-based synthesis-call index at which the running best reaches the
    target, None if never."""
    for row in trace:
        if row.adp_proxy <= target_adp + 1e-12:
            return row.iteration + 1
    return None


def _run_one(circuit: Aig, circuit_id: str, method_name: str,
             cfg: MctsConfig, budget: int, policy,
             measure_time: bool) -> tuple[EvalRow, list]:
    if measure_time:
        # A timed run starts cold, so its time does not depend on which
        # runs came before it in this process.
        _MEMO.clear()
    evaluator = RecipeEvaluator(circuit, budget=budget,
                                measure_time=measure_time)
    start = time.perf_counter() if measure_time else 0.0
    result = generate_recipe(evaluator, cfg, policy=policy)
    wall = time.perf_counter() - start if measure_time else 0.0
    base_adp = evaluator.baseline
    best = result.best_qor
    reduction = 100.0 * (1.0 - best / base_adp) if base_adp > 0 else 0.0
    row = EvalRow(method_name, circuit_id, cfg.seed, cfg.alpha, base_adp,
                  result.final_qor, best, reduction, evaluator.calls, wall)
    return row, evaluator.trace


def evaluate(methods: list[MethodSpec], circuits: dict[str, Aig],
             mcts_cfg: MctsConfig, policy=None,
             bank: EmbeddingBank | None = None,
             delta_th: float | None = None, budget: int = 100,
             seeds: tuple[int, ...] = (0,), measure_time: bool = False,
             jobs: int = 1) -> EvalReport:
    """Runs every method on every test circuit under the same synthesis
    budget and aggregates reductions, win ratios, and iso-QoR speedups
    (reference method: pure MCTS when present, else the first method).
    Each run searches with ``mcts_cfg`` under its method's alpha and seed;
    every guided run's policy and recipe length are checked before the
    first run starts.

    ``jobs`` > 1 fans the (circuit, method, seed) grid out to worker
    processes; results are merged back in deterministic grid order.
    """
    if not seeds:
        raise ValueError("seeds must not be empty")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    names = [spec.name for spec in methods]
    if len(set(names)) != len(names):
        raise ValueError(f"methods repeat a name: {','.join(names)}")
    runs: list[tuple] = []
    for circuit_id in sorted(circuits):
        circuit = circuits[circuit_id]
        for spec in methods:
            cfg = dataclasses.replace(mcts_cfg, alpha=resolve_alpha(
                spec, circuit, policy, bank, delta_th))
            check_guided(cfg, policy)
            for seed in seeds:
                runs.append((circuit, circuit_id, spec.name,
                             dataclasses.replace(cfg, seed=seed),
                             budget, policy, measure_time))
    if jobs > 1:
        # imported here: multiprocessing is slow to import for every run
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_run_one, *run) for run in runs]
            results = [future.result() for future in futures]
    else:
        results = [_run_one(*run) for run in runs]
    rows = [row for row, _ in results]
    traces = {(row.method, row.circuit, row.seed): trace
              for row, trace in results}
    aggregates = _aggregate(methods, sorted(circuits), seeds, rows, traces)
    return EvalReport(rows=rows, aggregates=aggregates, traces=traces)


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
                mine = traces[(spec.name, cid, s)]
                other = traces[(ref, cid, s)]
                # every trace has a row, and the reference reaches its own
                # minimum
                target = min(r.adp_proxy for r in other)
                n_mine = _first_reach(mine, target)
                per_seed.append(1.0 if n_mine is None
                                else _first_reach(other, target) / n_mine)
            speedups.append(sum(per_seed) / len(per_seed))
        aggregates[spec.name] = {
            "geomean_reduction_pct": geomean_reduction(reductions),
            "win": wins, "tie": ties, "loss": losses,
            "iso_qor_speedup_vs_reference":
                sum(speedups) / len(speedups) if speedups else 1.0,
        }
    return aggregates
