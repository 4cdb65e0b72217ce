"""Out-of-distribution gate for the learned policy.

A bank of training-circuit embeddings defines "seen" designs; a new
design's minimum cosine distance to the bank is compared against a
calibrated threshold to decide how strongly the learned prior may steer the
search (the blending exponent alpha). T = 0 gives the hard 0/1 gate; T > 0
smooths it into a sigmoid.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np


@dataclass
class OodConfig:
    """The calibrated gate; ``save`` and ``load`` own its JSON file, which
    holds the number ``delta_th`` and the optional number ``temperature``."""

    delta_th: float
    temperature: float = 0.0

    def __post_init__(self):
        if not self.delta_th >= 0:  # +inf is valid: every label was 0
            raise ValueError("delta_th must be >= 0")
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ValueError("temperature must be finite and >= 0 "
                             "(0 selects the hard rule)")

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path) -> "OodConfig":
        """Reads a gate file; a file that is not UTF-8 JSON, or a field that
        is not a JSON number (true and false are not), is too large for a
        float or is out of range, raises ValueError naming the file."""
        try:
            with open(path, encoding="utf-8") as fh:
                gate = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ValueError(f"{path}: not a JSON OOD config: {exc}") from None
        values = ((gate.get("delta_th"), gate.get("temperature", 0.0))
                  if isinstance(gate, dict) else (None,))
        if all(type(v) in (int, float) for v in values):
            try:
                return cls(*map(float, values))
            except OverflowError:  # an integer past float range
                pass
            except ValueError as exc:  # a value out of range
                raise ValueError(f"{path}: {exc}") from None
        raise ValueError(f"{path}: OOD config needs a numeric delta_th "
                         "(and optional temperature) within float range")


@dataclass
class EmbeddingBank:
    """Per-circuit embeddings of the training (or validation) set."""

    entries: list[tuple[str, np.ndarray]] = field(default_factory=list)

    def add(self, circuit_id: str, h: np.ndarray) -> None:
        h = np.asarray(h, dtype=np.float64)
        if self.entries and h.shape != self.entries[0][1].shape:
            raise ValueError("embedding dimension mismatch")
        if not np.all(np.isfinite(h)):
            raise ValueError("embedding contains non-finite values")
        with np.errstate(over="ignore"):
            squared_norm = np.dot(h, h)
        if not np.isfinite(squared_norm):
            raise ValueError("embedding norm overflows float range")
        if squared_norm == 0.0:
            raise ValueError("cosine distance undefined for zero-norm vectors")
        self.entries.append((circuit_id, h))

    def save_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["circuit_id", "dim", "values"])
            for circuit_id, h in self.entries:
                writer.writerow([circuit_id, h.size]
                                + [repr(float(x)) for x in h])

    @classmethod
    def load_csv(cls, path) -> "EmbeddingBank":
        """Reads a bank written by ``save_csv``; a malformed row, or one
        that ``add`` refuses, raises ValueError naming the file and the
        line."""
        bank = cls()
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            rows = read_rows(reader, path)
            next(rows, None)  # header
            for row in rows:
                if not row:
                    continue
                where = f"{path}: line {reader.line_num}"
                try:
                    dim = int(row[1])
                    values = np.array([float(x) for x in row[2:]])
                except (IndexError, ValueError):
                    raise ValueError(f"{where}: expected circuit_id,dim,"
                                     "values...") from None
                if values.size != dim:
                    raise ValueError(f"{where}: dim is {dim} but the row holds "
                                     f"{values.size} values")
                try:
                    bank.add(row[0], values)
                except ValueError as exc:
                    raise ValueError(f"{where}: {exc}") from None
        return bank


def read_rows(reader, path):
    """The rows of the csv ``reader`` over the file at ``path``; a row the
    csv module cannot read, such as one with a field over its size limit,
    raises ValueError naming the file and the line. So does a byte the
    file's encoding cannot decode."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        # The file decodes a chunk at a time, once the reader has taken every
        # whole line before it; count the chunk's lines up to the bad byte.
        line = reader.line_num + 1 + exc.object.count(b"\n", 0, exc.start)
        raise ValueError(f"{path}: line {line}: {exc}") from None


def cosine_distance(h1: np.ndarray, h2: np.ndarray) -> float:
    """1 - cos(h1, h2), in [0, 2]. Zero-norm inputs are rejected, and so
    are inputs whose norms or dot product overflow float range."""
    a = np.asarray(h1, dtype=np.float64)
    b = np.asarray(h2, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("embedding dimension mismatch")
    with np.errstate(over="ignore", invalid="ignore"):
        na = np.linalg.norm(a)
        nb = np.linalg.norm(b)
        norms = na * nb
        dot = float(np.dot(a, b))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine distance undefined for zero-norm vectors")
    if not (math.isfinite(dot) and math.isfinite(norms)):
        raise ValueError("cosine distance overflows float range")
    d = 1.0 - dot / norms
    return min(2.0, max(0.0, d))


def min_distance(h_test: np.ndarray, bank: EmbeddingBank) -> tuple[float, str]:
    """Smallest cosine distance from the test embedding to the bank; ties
    resolve to the earliest entry."""
    if not bank.entries:
        raise ValueError("embedding bank is empty")
    best = math.inf
    best_id = bank.entries[0][0]
    for circuit_id, h in bank.entries:
        d = cosine_distance(h_test, h)
        if d < best:
            best = d
            best_id = circuit_id
    return best, best_id


def alpha(delta_min: float, cfg: OodConfig) -> float:
    """Blending exponent from the minimum embedding distance.

    Hard rule (T = 0): 1 when delta_min < delta_th, else 0. Soft rule
    (T > 0): 1 - sigmoid((delta_min - delta_th) / T), strictly inside (0, 1)
    and 0.5 exactly at the threshold.
    """
    if delta_min < 0:
        raise ValueError("delta_min must be >= 0")
    if cfg.temperature == 0.0:
        return 1.0 if delta_min < cfg.delta_th else 0.0
    x = (delta_min - cfg.delta_th) / cfg.temperature
    x = min(700.0, max(-700.0, x))  # math.exp overflow guard; keeps (0,1)
    return 1.0 / (1.0 + math.exp(x))


def calibrate(validation: list[tuple[np.ndarray, int]],
              train_bank: EmbeddingBank) -> float:
    """Chooses the distance threshold from labeled validation runs.

    Labels: 0 = agent-guided search won, 1 = pure search won. Candidate
    thresholds are midpoints of the sorted per-point minimum distances; the
    winner maximizes balanced accuracy (Youden's J) of the rule
    "delta_min < delta_th => label 0", ties to the smaller threshold.
    """
    if not validation:
        raise ValueError("validation set is empty")
    deltas = []
    labels = []
    for h, label in validation:
        if label not in (0, 1):
            raise ValueError(f"winner label must be 0 or 1, got {label!r}")
        d, _ = min_distance(h, train_bank)
        deltas.append(d)
        labels.append(label)
    if all(lbl == 0 for lbl in labels):
        return math.inf
    if all(lbl == 1 for lbl in labels):
        return 0.0
    order = sorted(set(deltas))
    candidates = [(order[i] + order[i + 1]) / 2.0 for i in range(len(order) - 1)]
    if not candidates:
        candidates = [order[0]]
    n0 = labels.count(0)
    n1 = labels.count(1)
    best_j = -math.inf
    best_th = candidates[0]
    for th in candidates:
        tpr = sum(1 for d, lbl in zip(deltas, labels)
                  if lbl == 0 and d < th) / n0
        tnr = sum(1 for d, lbl in zip(deltas, labels)
                  if lbl == 1 and d >= th) / n1
        j = tpr + tnr - 1.0
        if j > best_j or (j == best_j and th < best_th):
            best_j = j
            best_th = th
    return best_th


def write_calibration_report(path, validation: list[tuple[str, np.ndarray, int]],
                             train_bank: EmbeddingBank, delta_th: float) -> None:
    """Table of per-validation-circuit distances to every bank entry, the
    minimum, the winner label, and the chosen threshold."""
    train_ids = [cid for cid, _ in train_bank.entries]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["validation_circuit"] + train_ids
                        + ["delta_min", "winner", "delta_th"])
        for circuit_id, h, label in validation:
            dists = [cosine_distance(h, hb) for _, hb in train_bank.entries]
            d_min = min(dists)
            writer.writerow([circuit_id] + [f"{d:.6f}" for d in dists]
                            + [f"{d_min:.6f}", label, f"{delta_th:.6f}"])
