import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aigopt.ood import (
    EmbeddingBank,
    OodConfig,
    alpha,
    calibrate,
    cosine_distance,
    min_distance,
    write_calibration_report,
)

# delta_min / winner labels for the MCNC validation circuits (winner 0 =
# agent-guided search won, 1 = pure search won); the reference threshold
# rule for this table is delta < 0.007.
MCNC_VALIDATION = [
    ("apex7", 0.003, 0),
    ("c1908", 0.009, 0),
    ("c3540", 0.002, 0),
    ("frg2", 0.006, 1),
    ("max128", 0.004, 0),
    ("apex6", 0.018, 1),
    ("c432", 0.008, 1),
    ("c499", 0.006, 1),
    ("seq", 0.008, 1),
    ("table3", 0.007, 1),
    ("i10", 0.002, 0),
]
REFERENCE_DELTA_TH = 0.007


def _bank_for_deltas():
    """A 2D bank where distance to the single entry is controllable: the
    vector at angle theta from (1, 0) has cosine distance 1 - cos(theta)."""
    bank = EmbeddingBank()
    bank.add("anchor", np.array([1.0, 0.0]))
    return bank


def _vector_at_distance(d: float) -> np.ndarray:
    theta = math.acos(1.0 - d)
    return np.array([math.cos(theta), math.sin(theta)])


# ---------------------------------------------------------------------------
# cosine distance / min distance
# ---------------------------------------------------------------------------

def test_cosine_identical():
    v = np.array([0.3, -1.2, 4.0])
    assert cosine_distance(v, v) == pytest.approx(0.0, abs=1e-12)
    assert cosine_distance(v, 3.5 * v) == pytest.approx(0.0, abs=1e-12)


def test_cosine_orthogonal():
    assert cosine_distance(np.array([1.0, 0.0]),
                           np.array([0.0, 2.0])) == pytest.approx(1.0)


def test_cosine_antipodal():
    assert cosine_distance(np.array([1.0, 0.0]),
                           np.array([-1.0, 0.0])) == pytest.approx(2.0)


def test_cosine_zero_norm_rejected():
    with pytest.raises(ValueError, match="zero"):
        cosine_distance(np.zeros(3), np.ones(3))


def test_cosine_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        cosine_distance(np.ones(3), np.ones(4))


def test_min_distance_self_in_bank():
    bank = EmbeddingBank()
    v = np.array([1.0, 2.0, 3.0])
    bank.add("a", np.array([5.0, 0.0, 1.0]))
    bank.add("self", v)
    d, nearest = min_distance(v, bank)
    assert d == pytest.approx(0.0, abs=1e-12)
    assert nearest == "self"


def test_min_distance_two_entries():
    bank = EmbeddingBank()
    bank.add("far", _vector_at_distance(0.3))
    bank.add("near", _vector_at_distance(0.1))
    d, nearest = min_distance(np.array([1.0, 0.0]), bank)
    assert d == pytest.approx(0.1, abs=1e-9)
    assert nearest == "near"


def test_min_distance_matches_linear_scan_oracle():
    rng = np.random.default_rng(0)
    bank = EmbeddingBank()
    vectors = rng.normal(size=(100, 8))
    for i, v in enumerate(vectors):
        bank.add(f"c{i}", v)
    probe = rng.normal(size=8)
    d, nearest = min_distance(probe, bank)
    oracle = min((cosine_distance(probe, v), f"c{i}")
                 for i, v in enumerate(vectors))
    assert d == pytest.approx(oracle[0], abs=1e-12)
    assert nearest == oracle[1]


def test_min_distance_empty_bank():
    with pytest.raises(ValueError, match="empty"):
        min_distance(np.ones(3), EmbeddingBank())


# ---------------------------------------------------------------------------
# alpha
# ---------------------------------------------------------------------------

def test_alpha_hard_rule_reference_threshold():
    cfg = OodConfig(delta_th=REFERENCE_DELTA_TH, temperature=0.0)
    assert alpha(0.0, cfg) == 1.0
    assert alpha(0.006999, cfg) == 1.0
    assert alpha(0.007, cfg) == 0.0  # strict inequality at the threshold
    assert alpha(0.1, cfg) == 0.0


def test_alpha_sigmoid_midpoint():
    cfg = OodConfig(delta_th=0.3, temperature=0.05)
    assert alpha(0.3, cfg) == pytest.approx(0.5, abs=1e-12)


def test_alpha_soft_value_at_one_temperature_unit():
    cfg = OodConfig(delta_th=0.2, temperature=0.06)
    expected = 1.0 - 1.0 / (1.0 + math.exp(-1.0))  # 0.26894
    assert alpha(0.2 + 0.06, cfg) == pytest.approx(expected, abs=1e-12)
    assert alpha(0.26, cfg) == pytest.approx(0.2689, abs=1e-4)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, max_value=2.0),
       st.floats(min_value=0.0, max_value=2.0),
       st.floats(min_value=0.0, max_value=0.5))
def test_alpha_monotone_nonincreasing(d1, d2, temperature):
    cfg = OodConfig(delta_th=0.7, temperature=temperature)
    lo, hi = sorted((d1, d2))
    assert alpha(hi, cfg) <= alpha(lo, cfg) + 1e-12


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.0, max_value=2.0))
def test_alpha_hard_is_binary_soft_is_strict(d):
    hard = alpha(d, OodConfig(delta_th=0.5, temperature=0.0))
    assert hard in (0.0, 1.0)
    soft = alpha(d, OodConfig(delta_th=0.5, temperature=0.02))
    assert 0.0 < soft < 1.0


def test_alpha_soft_converges_to_hard():
    cfg_hard = OodConfig(delta_th=0.4, temperature=0.0)
    for d in (0.1, 0.39, 0.41, 0.9):
        hard = alpha(d, cfg_hard)
        for temperature in (1e-2, 1e-3, 1e-4):
            soft = alpha(d, OodConfig(delta_th=0.4, temperature=temperature))
            assert abs(soft - hard) < max(1e-6, temperature * 50), (d, temperature)


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------

def test_calibrate_separable():
    bank = _bank_for_deltas()
    validation = [(_vector_at_distance(d), 0) for d in (0.01, 0.05, 0.1)]
    validation += [(_vector_at_distance(d), 1) for d in (0.4, 0.6, 0.9)]
    th = calibrate(validation, bank)
    assert 0.1 < th < 0.4
    assert th == pytest.approx((0.1 + 0.4) / 2, abs=1e-6)  # lowest midpoint


def test_calibrate_shuffled_labels_deterministic():
    bank = _bank_for_deltas()
    deltas = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]
    labels = [1, 0, 1, 0, 1, 0, 1, 0]  # independent of distance
    validation = [(_vector_at_distance(d), l) for d, l in zip(deltas, labels)]
    assert calibrate(validation, bank) == calibrate(validation, bank)


def test_calibrate_duplicated_rows_invariant():
    bank = _bank_for_deltas()
    validation = [(_vector_at_distance(d), l)
                  for d, l in ((0.05, 0), (0.2, 0), (0.5, 1), (0.7, 1), (0.15, 1))]
    assert calibrate(validation, bank) == calibrate(validation + validation, bank)


def test_calibrate_single_class_edges():
    bank = _bank_for_deltas()
    only_zero = [(_vector_at_distance(d), 0) for d in (0.1, 0.3)]
    assert calibrate(only_zero, bank) == math.inf
    only_one = [(_vector_at_distance(d), 1) for d in (0.1, 0.3)]
    assert calibrate(only_one, bank) == 0.0


def test_calibrate_empty_rejected():
    with pytest.raises(ValueError, match="empty"):
        calibrate([], _bank_for_deltas())


def test_calibrate_bad_label_rejected():
    with pytest.raises(ValueError, match="label"):
        calibrate([(_vector_at_distance(0.2), 2)], _bank_for_deltas())


def test_calibrate_reproduces_reference_mcnc_decisions():
    # Feeding the recorded delta_min/winner rows must produce a threshold
    # whose decisions agree with the reference 0.007 rule on >= 9 of 11 rows.
    bank = _bank_for_deltas()
    validation = [(_vector_at_distance(d), winner)
                  for _, d, winner in MCNC_VALIDATION]
    th = calibrate(validation, bank)
    agree = sum(1 for _, d, _ in MCNC_VALIDATION
                if (d < th) == (d < REFERENCE_DELTA_TH))
    assert agree >= 9, (th, agree)


# ---------------------------------------------------------------------------
# bank I/O and report
# ---------------------------------------------------------------------------

def test_bank_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    bank = EmbeddingBank()
    for i in range(5):
        bank.add(f"c{i}", rng.normal(size=6))
    path = tmp_path / "bank.csv"
    bank.save_csv(path)
    loaded = EmbeddingBank.load_csv(path)
    assert len(loaded.entries) == 5
    for (id_a, h_a), (id_b, h_b) in zip(bank.entries, loaded.entries):
        assert id_a == id_b
        assert np.array_equal(h_a, h_b)


def test_bank_rejects_mixed_dimensions():
    bank = EmbeddingBank()
    bank.add("a", np.ones(4))
    with pytest.raises(ValueError, match="dimension"):
        bank.add("b", np.ones(5))


def test_bank_rejects_nan():
    bank = EmbeddingBank()
    with pytest.raises(ValueError, match="finite"):
        bank.add("a", np.array([1.0, float("nan")]))


def test_calibration_report(tmp_path):
    bank = _bank_for_deltas()
    bank.add("anchor2", _vector_at_distance(1.0))
    validation = [("v0", _vector_at_distance(0.05), 0),
                  ("v1", _vector_at_distance(0.8), 1)]
    path = tmp_path / "report.csv"
    write_calibration_report(path, validation, bank, delta_th=0.4)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "validation_circuit,anchor,anchor2,delta_min,winner,delta_th"
    assert len(lines) == 3
    assert lines[1].startswith("v0,0.050000,")
    assert lines[1].endswith(",0,0.400000")
