"""Self-tests of the benchmark: the checker, the budget check, the tracer
and a tiny smoke run of every workload.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checker  # noqa: E402
import checks  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _aiger(family: str, size: int) -> bytes:
    from aigopt import aig, bench

    return aig.write_aiger(bench.generate_circuit(family, size))


def _flip_output_fanin(data: bytes) -> bytes:
    """Complements one fanin of the AND that drives the first output."""
    lines = data.split(b"\n")
    n_in, n_out = int(lines[0].split()[2]), int(lines[0].split()[4])
    output_lit = int(lines[1 + n_in]) & ~1
    for k in range(1 + n_in + n_out, len(lines)):
        fields = lines[k].split()
        if fields and int(fields[0]) == output_lit:
            fields[1] = str(int(fields[1]) ^ 1).encode()
            lines[k] = b" ".join(fields)
            return b"\n".join(lines)
    raise AssertionError("first output is not driven by an AND")


@pytest.mark.parametrize("family,size", [("ripple_adder", 4),
                                         ("comparator", 10)])
def test_checker_rejects_one_flipped_fanin(family, size):
    data = _aiger(family, size)
    good = checker.read_aiger(data)
    assert checker.equivalent(good, checker.read_aiger(data))
    assert not checker.equivalent(good, checker.read_aiger(_flip_output_fanin(data)))


def test_checker_counts_ands_and_depth():
    # out = (x1 & x2) & !x3: two ANDs on two levels.
    c = checker.read_aiger(b"aag 5 3 0 1 2\n2\n4\n6\n10\n8 2 4\n10 8 7\n")
    assert (c.size, c.depth, c.adp) == (2, 2, 4)


def test_budget_overrun_is_a_failed_op(tmp_path):
    out = tmp_path / "search/ripple_adder_2"
    out.mkdir(parents=True)
    (out / "result.json").write_text(json.dumps({"budget_used": 4}))
    (out / "trace.csv").write_text("iteration,prefix,adp_proxy\n" + "".join(
        f"{i},b,1.0\n" for i in range(4)))
    op = {"name": "search:ripple_adder_2", "error": None, "facts": {},
          "outputs": []}
    problems, calls = checks.quick("search", "tiny", op, tmp_path, traced=False)
    assert calls == 4
    assert any("exceed budget 3" in p for p in problems)


def test_tracer_fails_loudly_when_a_traced_name_vanished(monkeypatch):
    monkeypatch.setitem(tracer.TARGETS, "qor", ["no_such_function"])
    with pytest.raises(RuntimeError, match="no_such_function"):
        tracer.Tracer().install()


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_smoke_run_prints_every_end_to_end_metric(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", "0", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def test_tiny_traced_run_prints_every_per_layer_metric():
    proc = _run("--workload", "search", "--seed", "3", "--seconds", "1",
                "--trace", "1", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    # ``from .transforms import apply`` in mcts must be traced too.
    assert metrics["mcts.pass_apps_per_synth_call"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "search", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
