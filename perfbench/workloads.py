"""The three workloads: their inputs, parameters and timed operations.

Sizes keep one repetition between about 5 and 15 seconds on a 2-core
machine; ``tiny`` sizes exist for the benchmark's own smoke tests. This
module imports nothing from aigopt at load time, so the runner can read the
specs without importing the package under test.

Why each workload:
- search: the most common user call, a budgeted recipe search per circuit.
  Passes do almost all the work and recipe prefixes overlap heavily, so
  both pass speed and pass reuse show here.
- agent: the learned-prior pipeline (train, calibrate, bench grid). It is
  the only workload that runs the policy, the OOD gate, model and bank file
  I/O and the grid, on small circuits where fixed costs matter.
- synth_large: one-shot resyn2 plus a recipe with all seven passes on
  larger graphs. Each (structure, pass) pair occurs about once, so a cache
  keyed by structure gains nothing; pass-kernel scaling, AIGER I/O and the
  program's own equivalence check dominate.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

RESYN2 = "b,rw,rf,b,rw,rwz,b,rfz,rwz,b"
ALL_PASSES = "b,rs,rw,rf,rsz,rwz,rfz,b"
GRID_METHODS = "pure_mcts,agent_guided,agent_ood"

SIZES = {
    "search": {
        # One seeded random DAG among six circuits: random DAGs differ a lot
        # from seed to seed in how long they take and how much they reduce.
        "full": {"circuits": [("ripple_adder", 4), ("ripple_adder", 8),
                              ("comparator", 8), ("array_multiplier", 3),
                              ("array_multiplier", 4), ("random_dag", 200)],
                 "budget": 30, "k": 48},
        "tiny": {"circuits": [("ripple_adder", 2), ("comparator", 2)],
                 "budget": 3, "k": 4},
    },
    "agent": {
        "full": {"train": [("ripple_adder", 4), ("comparator", 4),
                           ("mux_tree", 3), ("array_multiplier", 3)],
                 "epochs": 2, "train_k": 2,
                 "validation": [("ripple_adder", 8, 0), ("comparator", 5, 0),
                                ("array_multiplier", 2, 1),
                                ("random_dag", 70, 1)],
                 # Fixed families only: a seeded random DAG here made the
                 # grid's time and QoR swing 2x between seeds.
                 "test": [("ripple_adder", 6), ("array_multiplier", 3)],
                 "seeds": 2, "budget": 8, "k": 48},
        "tiny": {"train": [("ripple_adder", 2), ("mux_tree", 1)],
                 "epochs": 1, "train_k": 2,
                 "validation": [("ripple_adder", 3, 0), ("comparator", 2, 1)],
                 "test": [("comparator", 2)],
                 "seeds": 1, "budget": 3, "k": 4},
    },
    "synth_large": {
        "full": {"circuits": [("array_multiplier", 10), ("array_multiplier", 12),
                              ("random_dag", 1000), ("ripple_adder", 12),
                              ("comparator", 12)]},
        "tiny": {"circuits": [("ripple_adder", 3), ("comparator", 3)]},
    },
}
WORKLOADS = tuple(SIZES)


def derive_seed(seed: int, *salt) -> int:
    """A stable sub-seed for one use of the workload seed."""
    text = json.dumps([seed, *salt]).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "little") >> 1


def stem(family: str, size: int) -> str:
    return f"{family}_{size}"


def op_names(workload: str, size: str) -> list[str]:
    spec = SIZES[workload][size]
    if workload == "agent":
        return ["train", "calibrate", "bench"]
    prefix = "search" if workload == "search" else "synth"
    return [f"{prefix}:{stem(f, n)}" for f, n in spec["circuits"]]


class Op:
    """One timed operation. ``run`` returns a dict of facts for the checker;
    ``after`` (untimed, run once the measured phase has ended) may write
    further files; ``outputs`` lists the files whose digests must repeat."""

    def __init__(self, name, run, outputs, after=None):
        self.name = name
        self.run = run
        self.outputs = outputs
        self.after = after


def setup(workload: str, size: str, seed: int, inputs: Path,
          results: Path) -> list[Op]:
    """Generates and writes the inputs, and returns the operations."""
    from aigopt import aig, bench

    spec = SIZES[workload][size]
    inputs.mkdir(parents=True, exist_ok=True)

    def make(family, n, subdir=""):
        circuit = bench.generate_circuit(family, n, derive_seed(seed, "dag", n))
        path = inputs / subdir / f"{stem(family, n)}.aag"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(aig.write_aiger(circuit))
        return path

    if workload == "search":
        return [_search_op(make(f, n), spec, derive_seed(seed, "search", i))
                for i, (f, n) in enumerate(spec["circuits"])]
    if workload == "agent":
        train = [make(f, n, "train") for f, n in spec["train"]]
        labeled = inputs / "validation.csv"
        labeled.write_text("circuit,label\n" + "".join(
            f"{make(f, n, 'validation')},{label}\n"
            for f, n, label in spec["validation"]))
        test = [make(f, n, "test") for f, n in spec["test"]]
        return _agent_ops(spec, train, labeled, test, results,
                          derive_seed(seed, "train"))
    return [_synth_op(make(f, n), results) for f, n in spec["circuits"]]


def _cli(argv: list[str]) -> dict:
    from aigopt import cli

    return {"exit": cli.main(argv)}


def _search_op(path: Path, spec: dict, search_seed: int) -> Op:
    out = f"search/{path.stem}"
    argv = ["search", "--aig", str(path), "--alpha", "0",
            "--budget", str(spec["budget"]), "--k", str(spec["k"]),
            "--seed", str(search_seed), "--out-dir", out]
    return Op(f"search:{path.stem}", lambda: _cli(argv),
              [f"{out}/result.json", f"{out}/trace.csv"])


def _agent_ops(spec, train, labeled, test, results, train_seed) -> list[Op]:
    model, bank = results / "agent/model.bin", results / "agent/bank.csv"
    ood = results / "agent/ood.json"
    train_argv = ["train", "--circuits", *map(str, train),
                  "--out", str(model), "--bank", str(bank),
                  "--epochs", str(spec["epochs"]), "--k", str(spec["train_k"]),
                  "--seed", str(train_seed)]
    calibrate_argv = ["calibrate", "--model", str(model), "--bank", str(bank),
                      "--validation", str(labeled), "--out", str(ood)]

    def grid():
        delta_th = json.loads(ood.read_text())["delta_th"]
        return _cli(["bench", "--test", *map(str, test),
                     "--methods", GRID_METHODS, "--seeds", str(spec["seeds"]),
                     "--budget", str(spec["budget"]), "--k", str(spec["k"]),
                     "--jobs", "1", "--model", str(model), "--bank", str(bank),
                     "--delta-th", repr(delta_th), "--out-dir", "agent/grid"])

    return [
        Op("train", lambda: _cli(train_argv),
           ["agent/model.bin", "agent/model.loss.csv", "agent/bank.csv"]),
        Op("calibrate", lambda: _cli(calibrate_argv), ["agent/ood.json"]),
        Op("bench", grid, ["agent/grid/report.csv", "agent/grid/report.json",
                           "agent/grid/traces"]),
    ]


def _synth_op(path: Path, results: Path) -> Op:
    from aigopt import aig, transforms

    final = results / f"synth_large/{path.stem}.aag"
    middle = results / f"synth_large/{path.stem}.resyn2.aag"
    kept = {}

    def run():
        circuit = aig.parse_aiger(path.read_bytes(), name=path.stem)
        kept["resyn2"], _ = transforms.apply_recipe(
            circuit, transforms.Recipe.parse(RESYN2))
        out, _ = transforms.apply_recipe(
            kept["resyn2"], transforms.Recipe.parse(ALL_PASSES))
        final.parent.mkdir(parents=True, exist_ok=True)
        final.write_bytes(aig.write_aiger(out))
        return {"program_equal": bool(aig.equivalent(circuit, out))}

    def after():
        middle.write_bytes(aig.write_aiger(kept.pop("resyn2")))

    return Op(f"synth:{path.stem}", run,
              [f"synth_large/{path.stem}.aag",
               f"synth_large/{path.stem}.resyn2.aag"], after)
