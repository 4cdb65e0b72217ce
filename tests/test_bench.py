import math

import numpy as np
import pytest

from aigopt.aig import simulate, write_aiger
from aigopt.bench import (
    MethodSpec,
    array_multiplier,
    comparator,
    evaluate,
    generate_circuit,
    geomean_reduction,
    mux_tree,
    random_dag,
    resolve_alpha,
    ripple_adder,
)
from aigopt.mcts import MctsConfig
from aigopt.ood import EmbeddingBank
from aigopt.policy import PolicyConfig, PolicyNetwork


def _int_cols(bits: np.ndarray) -> np.ndarray:
    return (bits * (1 << np.arange(bits.shape[1]))).sum(axis=1)


def test_ripple_adder_shape_and_semantics():
    aig = generate_circuit("ripple_adder", 4)
    assert aig.n_inputs == 8 and aig.n_outputs == 5
    rng = np.random.default_rng(0)
    vec = rng.integers(0, 2, size=(128, 8), dtype=np.uint8)
    out = simulate(aig, vec)
    total = _int_cols(vec[:, :4]) + _int_cols(vec[:, 4:])
    assert np.array_equal(_int_cols(out), total % 32)


def test_multiplier_semantics():
    aig = generate_circuit("array_multiplier", 4)
    rng = np.random.default_rng(1)
    vec = rng.integers(0, 2, size=(128, 8), dtype=np.uint8)
    out = simulate(aig, vec)
    assert np.array_equal(_int_cols(out),
                          _int_cols(vec[:, :4]) * _int_cols(vec[:, 4:]))


def test_comparator_semantics():
    aig = generate_circuit("comparator", 5)
    rng = np.random.default_rng(2)
    vec = rng.integers(0, 2, size=(128, 10), dtype=np.uint8)
    out = simulate(aig, vec)
    a = _int_cols(vec[:, :5])
    b = _int_cols(vec[:, 5:])
    assert np.array_equal(out[:, 0], (a < b).astype(np.uint8))
    assert np.array_equal(out[:, 1], (a == b).astype(np.uint8))


def test_mux_tree_indexing_oracle():
    aig = generate_circuit("mux_tree", 2)
    assert aig.n_inputs == 6 and aig.n_outputs == 1
    rng = np.random.default_rng(3)
    vec = rng.integers(0, 2, size=(128, 6), dtype=np.uint8)
    out = simulate(aig, vec)
    sel = vec[:, 4] + 2 * vec[:, 5]
    assert np.array_equal(out[:, 0], vec[np.arange(128), sel])


def test_random_dag_reproducible():
    a = generate_circuit("random_dag", 80, seed=11)
    b = generate_circuit("random_dag", 80, seed=11)
    assert write_aiger(a) == write_aiger(b)
    c = generate_circuit("random_dag", 80, seed=12)
    assert write_aiger(c) != write_aiger(a)


@pytest.mark.parametrize("family,size", [
    ("ripple_adder", 0), ("ripple_adder", 13),
    ("array_multiplier", 20), ("comparator", 0),
    ("mux_tree", 0), ("mux_tree", 5), ("random_dag", 0),
])
def test_generator_size_bounds(family, size):
    with pytest.raises(ValueError):
        generate_circuit(family, size)


def test_unknown_family():
    with pytest.raises(ValueError, match="family"):
        generate_circuit("nand_grid", 3)


def test_geomean_reduction():
    assert geomean_reduction([]) == 0.0
    assert geomean_reduction([10.0, 10.0]) == pytest.approx(10.0)
    mixed = [25.0, -10.0, 0.0]
    expected = 100.0 * (math.exp(
        sum(math.log(1 + r / 100.0) for r in mixed) / 3) - 1.0)
    assert geomean_reduction(mixed) == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_eval():
    circuits = {"add4": ripple_adder(4), "rd": random_dag(60, seed=1)}
    net = PolicyNetwork(PolicyConfig(d_hidden=8, d_emb=4, d_head=8,
                                     gcn_layers=2, seed=0))
    methods = [MethodSpec.pure_mcts(), MethodSpec("agent_alpha0", alpha=0.0)]
    report = evaluate(methods, circuits, policy=net, budget=20,
                      seeds=(0, 1), mcts_cfg=MctsConfig(iterations=8))
    return circuits, net, methods, report


def test_alpha_zero_rows_match_pure_mcts(tiny_eval):
    _, _, _, report = tiny_eval
    pure = {(r.circuit, r.seed): r for r in report.rows
            if r.method == "pure_mcts"}
    agent = {(r.circuit, r.seed): r for r in report.rows
             if r.method == "agent_alpha0"}
    assert pure.keys() == agent.keys()
    for key, row in pure.items():
        other = agent[key]
        assert row.best_adp == other.best_adp
        assert row.final_adp == other.final_adp
        assert row.reduction_pct == other.reduction_pct
        assert row.synth_calls == other.synth_calls


def test_win_tie_loss_partition(tiny_eval):
    circuits, _, methods, report = tiny_eval
    for spec in methods:
        agg = report.aggregates[spec.name]
        assert agg["win"] + agg["tie"] + agg["loss"] == len(circuits)


def test_iso_speedup_reference_is_one(tiny_eval):
    _, _, _, report = tiny_eval
    ref = report.aggregates["reference_method"]
    assert report.aggregates[ref]["iso_qor_speedup_vs_reference"] == 1.0


def test_budget_respected_in_trace(tiny_eval):
    _, _, _, report = tiny_eval
    for row in report.rows:
        assert row.synth_calls <= 20


def test_geomean_recomputable_from_rows(tiny_eval):
    _, _, methods, report = tiny_eval
    for spec in methods:
        rows = [r.reduction_pct for r in report.rows if r.method == spec.name]
        again = geomean_reduction(rows)
        assert abs(again - report.aggregates[spec.name]
                   ["geomean_reduction_pct"]) < 1e-9


def test_report_csv_and_json(tiny_eval):
    _, _, _, report = tiny_eval
    csv_text = report.to_csv()
    assert csv_text.splitlines()[0].startswith("method,circuit,seed")
    assert len(csv_text.splitlines()) == len(report.rows) + 1
    import json

    payload = json.loads(report.to_json())
    assert payload["aggregates"]["reference_method"] == "pure_mcts"


def test_resolve_alpha_gate():
    net = PolicyNetwork(PolicyConfig(d_hidden=8, d_emb=4, d_head=8,
                                     gcn_layers=2, seed=0))
    train = ripple_adder(4)
    bank = EmbeddingBank()
    bank.add("train", net.encode_aig(train))
    spec = MethodSpec.agent_with_ood()
    same = resolve_alpha(spec, train, net, bank, delta_th=1e-6)
    assert same == 1.0  # distance 0 to itself
    far = resolve_alpha(spec, array_multiplier(3), net, bank, delta_th=1e-9)
    assert far == 0.0
    with pytest.raises(ValueError, match="bank"):
        resolve_alpha(spec, train, net, None, None)


def test_parallel_jobs_match_serial():
    circuits = {"add3": ripple_adder(3), "mux2": mux_tree(2)}
    methods = [MethodSpec.pure_mcts()]
    serial = evaluate(methods, circuits, budget=10, seeds=(0,),
                      mcts_cfg=MctsConfig(iterations=6))
    parallel = evaluate(methods, circuits, budget=10, seeds=(0,),
                        mcts_cfg=MctsConfig(iterations=6), jobs=2)
    assert serial.to_csv() == parallel.to_csv()
    assert serial.aggregates == parallel.aggregates


def test_comparator_and_adder_improvable():
    # sanity: the action space is non-trivial on mid-size circuits
    from aigopt.qor import baseline_qor, qor

    for g in (ripple_adder(6), comparator(6)):
        assert baseline_qor(g) < qor(g)
