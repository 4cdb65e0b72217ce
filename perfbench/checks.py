"""Checks on one repetition's outputs, written against the files the program
leaves, with the independent checker for circuits.

``quick`` runs on every repetition: exit status, budgets and the facts each
output must agree on. ``reapply_jobs`` and ``deep`` run on the first
repetition only: every reported recipe is re-applied outside the timed
phase, and each result must equal its input in function and match the ADP
the program reported. Later repetitions are tied to the first by digests.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import checker
from workloads import GRID_METHODS, RESYN2, SIZES


def digests(results: Path, outputs: list[str]) -> dict[str, str]:
    """sha256 of every listed output file (directories recursively)."""
    found = {}
    for rel in outputs:
        path = results / rel
        files = sorted(p for p in path.rglob("*") if p.is_file()) \
            if path.is_dir() else [path]
        for f in files:
            key = str(f.relative_to(results))
            found[key] = (hashlib.sha256(f.read_bytes()).hexdigest()
                          if f.is_file() else "missing")
    return found


def _grid_rows(results: Path) -> list[dict]:
    return json.loads((results / "agent/grid/report.json").read_text())["rows"]


def _grid_trace(results: Path, row: dict) -> Path:
    return (results / "agent/grid/traces" / row["method"] / row["circuit"]
            / f"seed{row['seed']}.csv")


def quick(workload: str, size: str, op: dict, results: Path,
          traced: bool) -> tuple[list[str], int]:
    """Failure messages for one op, and the synthesis calls it made."""
    if op["error"]:
        return [op["error"].strip().splitlines()[-1]], 0
    spec = SIZES[workload][size]
    problems: list[str] = []
    calls = 0
    name = op["name"]
    if workload == "search":
        out = results / "search" / name.split(":", 1)[1]
        result = json.loads((out / "result.json").read_text())
        rows = checker.trace_rows(out / "trace.csv")
        calls = result["budget_used"]
        if not checker.within_budget(rows, spec["budget"]) \
                or calls > spec["budget"]:
            problems.append(f"{len(rows)} trace rows exceed budget "
                            f"{spec['budget']}")
        if len(rows) != calls:
            problems.append(f"trace has {len(rows)} rows, result says {calls}")
        if traced and op["facts"]["traced_synth_calls"] != calls:
            problems.append(f"tracer counted {op['facts']['traced_synth_calls']} "
                            f"synthesis calls, result says {calls}")
    elif name == "train":
        bank = (results / "agent/bank.csv").read_text().strip().splitlines()
        if len(bank) - 1 != len(spec["train"]):
            problems.append(f"bank has {len(bank) - 1} entries")
    elif name == "calibrate":
        delta_th = json.loads((results / "agent/ood.json").read_text())["delta_th"]
        if not isinstance(delta_th, (int, float)) or math.isnan(delta_th):
            problems.append(f"bad delta_th {delta_th!r}")
    elif name == "bench":
        rows = _grid_rows(results)
        expected = (len(GRID_METHODS.split(",")) * spec["seeds"]
                    * len(spec["test"]))
        if len(rows) != expected:
            problems.append(f"{len(rows)} grid rows, expected {expected}")
        for row in rows:
            trace = checker.trace_rows(_grid_trace(results, row))
            calls += row["synth_calls"]
            if not checker.within_budget(trace, spec["budget"]) \
                    or row["synth_calls"] > spec["budget"]:
                problems.append(f"{row['method']}/{row['circuit']} exceeds "
                                f"budget {spec['budget']}")
            if len(trace) != row["synth_calls"]:
                problems.append(f"{row['method']}/{row['circuit']} trace has "
                                f"{len(trace)} rows, report says "
                                f"{row['synth_calls']}")
    else:  # synth_large
        calls = 2  # resyn2 and the all-pass recipe
        if op["facts"].get("program_equal") is not True:
            problems.append("aigopt.aig.equivalent reported a mismatch")
    return problems, calls


def reapply_jobs(workload: str, rep: Path, results: Path,
                 verify: Path) -> list[dict]:
    """Recipes to re-apply with the package's passes before ``deep``."""
    jobs = []

    def job(source: Path, recipe: str, out: str):
        jobs.append({"input": str(source), "recipe": recipe,
                     "out": str(verify / out)})

    if workload == "search":
        for out in sorted((results / "search").iterdir()):
            result = json.loads((out / "result.json").read_text())
            source = rep / "inputs" / f"{out.name}.aag"
            job(source, result["recipe"], f"{out.name}.final.aag")
            job(source, result["best_recipe"], f"{out.name}.best.aag")
            job(source, RESYN2, f"{out.name}.resyn2.aag")
    elif workload == "agent":
        circuits = set()
        for row in _grid_rows(results):
            best = checker.best_row(checker.trace_rows(_grid_trace(results, row)))
            job(rep / "inputs/test" / f"{row['circuit']}.aag", best["prefix"],
                f"{row['method']}.{row['circuit']}.{row['seed']}.aag")
            circuits.add(row["circuit"])
        for circuit in sorted(circuits):
            job(rep / "inputs/test" / f"{circuit}.aag", RESYN2,
                f"{circuit}.resyn2.aag")
    return jobs


def _read(path: Path) -> checker.Circuit:
    return checker.read_aiger(path.read_bytes())


def _compare(name: str, source: checker.Circuit, result: checker.Circuit,
             reported: float | None, problems: list[str]) -> None:
    if not checker.equivalent(source, result):
        problems.append(f"{name}: not equivalent to its input")
    if reported is not None and float(result.adp) != float(reported):
        problems.append(f"{name}: ADP {result.adp} != reported {reported}")


def deep(workload: str, rep: Path, results: Path, verify: Path):
    """Returns (failures by op name, [(adp_in, adp_resyn2, adp_best)])."""
    failures: dict[str, list[str]] = {}
    qor: list[tuple[int, int, int]] = []
    if workload == "search":
        for out in sorted((results / "search").iterdir()):
            problems = failures.setdefault(f"search:{out.name}", [])
            result = json.loads((out / "result.json").read_text())
            source = _read(rep / "inputs" / f"{out.name}.aag")
            final = _read(verify / f"{out.name}.final.aag")
            best = _read(verify / f"{out.name}.best.aag")
            resyn2 = _read(verify / f"{out.name}.resyn2.aag")
            _compare("recipe", source, final, result["final_adp"], problems)
            _compare("best_recipe", source, best, result["best_adp"], problems)
            _compare("resyn2", source, resyn2, result["baseline_adp"], problems)
            qor.append((source.adp, resyn2.adp, best.adp))
    elif workload == "agent":
        problems = failures.setdefault("bench", [])
        for row in _grid_rows(results):
            label = f"{row['method']}/{row['circuit']}/seed{row['seed']}"
            best_trace = checker.best_row(
                checker.trace_rows(_grid_trace(results, row)))
            source = _read(rep / "inputs/test" / f"{row['circuit']}.aag")
            best = _read(verify / f"{row['method']}.{row['circuit']}."
                                  f"{row['seed']}.aag")
            resyn2 = _read(verify / f"{row['circuit']}.resyn2.aag")
            _compare(label, source, best, float(best_trace["adp_proxy"]),
                     problems)
            _compare(f"{label} resyn2", source, resyn2, row["baseline_adp"],
                     problems)
            if row["best_adp"] > best.adp:
                problems.append(f"{label}: best_adp {row['best_adp']} worse "
                                f"than its own trace ({best.adp})")
            qor.append((source.adp, resyn2.adp, best.adp))
    else:
        for op in json.loads((rep / "rep.json").read_text())["ops"]:
            name = op["name"].split(":", 1)[1]
            problems = failures.setdefault(op["name"], [])
            source = _read(rep / "inputs" / f"{name}.aag")
            final = _read(results / f"synth_large/{name}.aag")
            resyn2 = _read(results / f"synth_large/{name}.resyn2.aag")
            _compare("final", source, final, None, problems)
            _compare("resyn2", source, resyn2, None, problems)
            qor.append((source.adp, resyn2.adp, final.adp))
    return failures, qor
