"""Benchmark runner for aigopt.

    python3 perfbench/run.py --workload search|agent|synth_large|all \
        --seed N --seconds S --trace 0|1 [--size full|tiny]

Run from the repository root. Each repetition is a fresh interpreter
(``worker.py``) that imports aigopt from ``src/``, builds its inputs from
the seed and runs the workload's operations in one process, closed loop.
Repetitions continue while the next one is expected to finish within
``--seconds`` (at least two untraced ones). Every output is checked by
code in this directory (``checks.py``, ``checker.py``); any failed check
makes the result ``correct: false`` and the exit code 1.

The last line of standard output is one JSON object per workload with
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` they are the per-layer metrics of one extra traced
repetition. Details (every repetition, failures, machine and version
provenance) go to .perfbench_work/<workload>-seed<N>-trace<T>-<size>/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import checks  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, op_names  # noqa: E402

MIN_UNTRACED = 2
SETUPS_PER_REP = 2  # extra set-up-only samples after each repetition
HARD_LIMIT_S = 150.0  # no repetition starts that could end past this
UNITS = {"setup_s": "s", "wall_s": "s", "synth_calls_per_s": "1/s",
         "peak_rss_mb": "MB", "qor_vs_resyn2_pct": "%",
         "adp_reduction_pct": "%"}


def _worker_env(results: Path | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # The program's manifests call git; keep its repository search inside
    # the checkout.
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    if results is not None:
        env["AIGOPT_RESULTS"] = str(results)
    return env


class Rep:
    """One repetition: a worker process and what it reported."""

    def __init__(self, index: int, path: Path, traced: bool = False,
                 setup_only: bool = False):
        self.index = index
        self.path = path
        self.results = path / "results"
        self.traced = traced
        self.setup_only = setup_only
        self.data: dict | None = None
        self.spawned = 0.0
        self.duration = 0.0
        self.synth_calls = 0

    def run(self, args, deadline: float) -> None:
        self.path.mkdir(parents=True)
        cmd = [sys.executable, str(HERE / "worker.py"), "run",
               "--workload", args.workload, "--seed", str(args.seed),
               "--size", args.size, "--out", str(self.path)]
        if self.traced:
            cmd.append("--trace")
        if self.setup_only:
            cmd.append("--setup-only")
        with open(self.path / "worker.log", "wb") as log:
            self.spawned = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.path, stdout=log,
                                    stderr=subprocess.STDOUT,
                                    env=_worker_env(self.results))
            try:
                proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.duration = time.perf_counter() - self.spawned
        if proc.returncode == 0 and (self.path / "rep.json").is_file():
            self.data = json.loads((self.path / "rep.json").read_text())

    def op_seconds(self) -> dict[str, float]:
        return {op["name"]: op["end"] - op["start"] for op in self.data["ops"]}


class Measurement:
    """All repetitions of one workload in one invocation."""

    def __init__(self, args):
        self.args = args
        self.work = ROOT / ".perfbench_work" / (
            f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}")
        self.names = op_names(args.workload, args.size)
        self.reps: list[Rep] = []
        self.failures: dict[str, list[str]] = {}
        self.reference: dict[str, dict] | None = None
        self.qor: list[tuple[int, int, int]] = []
        self.setup_s: list[float] = []

    def fail(self, rep: Rep, op: str, why: list[str]) -> None:
        if why:
            self.failures.setdefault(f"rep{rep.index}/{op}", []).extend(why)

    def repeat(self) -> None:
        start = time.perf_counter()
        deadline = start + HARD_LIMIT_S
        while True:
            began = time.perf_counter()
            rep = Rep(len(self.reps), self.work / f"rep{len(self.reps)}",
                      traced=bool(self.args.trace) and not self.reps)
            rep.run(self.args, deadline)
            self.reps.append(rep)
            self.check(rep)
            if not rep.traced:
                self.sample_setup(rep, deadline)
            untraced = sum(not r.traced for r in self.reps)
            now = time.perf_counter()
            expected_end = now + (now - began)
            if expected_end > deadline or (
                    untraced >= MIN_UNTRACED
                    and expected_end > start + self.args.seconds):
                return

    def sample_setup(self, rep: Rep, deadline: float) -> None:
        """Set-up time of ``rep`` plus extra set-up-only runs: set-up is
        short, so one sample per repetition would be noisy."""
        samples = [rep]
        for k in range(SETUPS_PER_REP):
            extra = Rep(rep.index, rep.path.with_name(f"{rep.path.name}-setup{k}"),
                        setup_only=True)
            extra.run(self.args, deadline)
            samples.append(extra)
            shutil.rmtree(extra.path, ignore_errors=True)
        self.setup_s += [r.data["phase_start"] - r.spawned
                         for r in samples if r.data is not None]

    def check(self, rep: Rep) -> None:
        """Quick checks and digests; later repetitions must match rep 0."""
        if rep.data is None:
            for name in self.names:
                self.fail(rep, name, ["worker crashed or timed out; see worker.log"])
            return
        ops = {op["name"]: op for op in rep.data["ops"]}
        rep_digests = {}
        for name in self.names:
            if name not in ops:
                self.fail(rep, name, ["op missing from worker report"])
                continue
            try:
                problems, calls = checks.quick(self.args.workload, self.args.size,
                                               ops[name], rep.results, rep.traced)
                rep_digests[name] = checks.digests(rep.results, ops[name]["outputs"])
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems, calls = [f"unreadable output: {exc!r}"], 0
            rep.synth_calls += calls
            if self.reference is not None \
                    and rep_digests.get(name) != self.reference.get(name):
                problems.append("outputs differ from repetition 0")
            self.fail(rep, name, problems)
        if self.reference is None:
            self.reference = rep_digests

    def verify_first(self) -> None:
        """Re-applies rep 0's recipes and checks every circuit."""
        first = self.reps[0]
        if first.data is None:
            return
        verify = first.path / "verify"
        verify.mkdir()
        try:
            jobs = checks.reapply_jobs(self.args.workload, first.path,
                                       first.results, verify)
            if jobs:
                jobs_path = first.path / "reapply.json"
                jobs_path.write_text(json.dumps(jobs))
                subprocess.run([sys.executable, str(HERE / "worker.py"),
                                "reapply", str(jobs_path)], cwd=first.path,
                               env=_worker_env(), check=True, timeout=30,
                               stdout=subprocess.DEVNULL)
            failures, self.qor = checks.deep(self.args.workload, first.path,
                                             first.results, verify)
        except (OSError, ValueError, KeyError, subprocess.SubprocessError) as exc:
            failures = {name: [f"output check failed: {exc!r}"]
                        for name in self.names}
        for name, why in failures.items():
            self.fail(first, name, why)

    def op_medians(self) -> dict[str, float]:
        # Host speed on a shared machine drifts for seconds at a time, so
        # each op's median over the repetitions skips the ones it hit.
        good = [r for r in self.reps if not r.traced and r.data is not None]
        samples: dict[str, list[float]] = {}
        for r in good:
            for name, seconds in r.op_seconds().items():
                samples.setdefault(name, []).append(seconds)
        return {name: statistics.median(v) for name, v in samples.items()}

    def end_to_end(self) -> dict[str, float]:
        good = [r for r in self.reps if not r.traced and r.data is not None]
        if not good:
            return dict.fromkeys(UNITS, 0.0)
        op_s = self.op_medians()
        synth_ops = ["bench"] if self.args.workload == "agent" else self.names
        qor = self.qor or [(1, 1, 1)]
        return {
            "setup_s": statistics.median(self.setup_s),
            "wall_s": sum(op_s.values()),
            "synth_calls_per_s": good[0].synth_calls
            / sum(op_s[name] for name in synth_ops),
            "peak_rss_mb": statistics.median(r.data["peak_rss_mb"] for r in good),
            "qor_vs_resyn2_pct": 100.0 * checker.geomean(
                [resyn2 / best for _, resyn2, best in qor]),
            "adp_reduction_pct": 100.0 * (1.0 - checker.geomean(
                [best / source for source, _, best in qor])),
        }

    def per_layer(self) -> dict[str, float]:
        first = self.reps[0]
        if first.data is None:
            return {}
        spans = tracer.load_spans(first.path / "spans.jsonl")
        shutil.copy(first.path / "spans.jsonl", self.work / "spans.jsonl")
        layer = tracer.layer_metrics(spans, first.data["synth_calls_traced"])
        layer["trace.overhead_s"] = (sum(first.op_seconds().values())
                                     - sum(self.op_medians().values()))
        return layer

    def run(self) -> dict:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        started = time.perf_counter()
        self.repeat()
        self.verify_first()
        if self.args.trace:
            metrics = {key: {"value": value, "unit": _layer_unit(key)}
                       for key, value in self.per_layer().items()}
        else:
            metrics = {key: {"value": value, "unit": UNITS[key]}
                       for key, value in self.end_to_end().items()}
        result = {"correct": not self.failures,
                  "attempted": len(self.names) * len(self.reps),
                  "failed": len(self.failures), "metrics": metrics}
        summary = {
            "args": vars(self.args), "provenance": provenance(),
            "elapsed_s": time.perf_counter() - started,
            "repetitions": [{"index": r.index, "traced": r.traced,
                             "duration_s": r.duration,
                             "synth_calls": r.synth_calls,
                             "ops_s": r.data and r.op_seconds()}
                            for r in self.reps],
            "op_median_s": self.op_medians(), "setup_s": self.setup_s,
            "qor": self.qor,
            "failures": self.failures, "result": result,
        }
        (self.work / "summary.json").write_text(json.dumps(summary, indent=1))
        for rep in self.reps:
            shutil.rmtree(rep.path, ignore_errors=True)
        for key, why in sorted(self.failures.items()):
            print(f"FAILED {self.args.workload} {key}: {'; '.join(why)}",
                  file=sys.stderr)
        return result


def provenance() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "absent"

    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode())
        source.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "commit": _commit(), "source_sha256": source.hexdigest(),
            "platform": platform.platform()}


def _commit() -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _layer_unit(key: str) -> str:
    if key.endswith((".s", "self_s", "overhead_s")):
        return "s"
    if key.endswith(("_share", "per_synth_call")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="aigopt benchmark")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs for the benchmark's own smoke tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "aigopt" / "__init__.py").is_file():
        print(f"error: no aigopt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    status = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        result = Measurement(argparse.Namespace(
            **{**vars(args), "workload": workload})).run()
        print(json.dumps(result), flush=True)
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
