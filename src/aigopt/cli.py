"""Command-line entry point.

Subcommands: gen (benchmark circuits), train (policy pre-training), search
(recipe generation for one circuit), calibrate (OOD threshold from labeled
validation runs), bench (method comparison grid). Every run writes a
manifest JSON beside its outputs. Exit codes: 0 success, 1 usage error, 2
runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from . import bench as bench_mod
from . import ood as ood_mod
from . import policy as policy_mod
from .aig import parse_aiger, stats, write_aiger
from .mcts import MctsConfig, RecipeEvaluator, TraceRow, generate_recipe
from .transforms import DEFAULT_RECIPE_LEN

RESULTS_ENV = "AIGOPT_RESULTS"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _resolve_path(raw: str) -> Path:
    path = Path(raw)
    root = os.environ.get(RESULTS_ENV)
    if root and not path.is_absolute():
        return Path(root) / path
    return path


def _git_describe() -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def _write_manifest(target: Path, command: str, config: dict,
                    outputs: list[str], wall_s: float) -> None:
    manifest = {
        "command": command,
        "config": config,
        "outputs": outputs,
        "run": {"git_describe": _git_describe(),
                "wall_time_s": round(wall_s, 3)},
    }
    target.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _load_circuit(path: Path):
    aig = parse_aiger(path.read_bytes(), name=path.stem)
    return aig


def _write_trace_csv(path: Path, trace) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(f.name for f in dataclasses.fields(TraceRow))
        for row in trace:
            writer.writerow(dataclasses.astuple(row))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    start = time.perf_counter()
    aig = bench_mod.generate_circuit(args.family, args.size, args.seed)
    out = _resolve_path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_bytes(write_aiger(aig))
    s = stats(aig)
    print(f"{aig.name}: inputs={s.input_count} outputs={s.output_count} "
          f"nodes={s.node_count} depth={s.depth} -> {out}")
    _write_manifest(out.with_suffix(out.suffix + ".manifest.json"), "gen",
                    {"family": args.family, "size": args.size,
                     "seed": args.seed, "out": str(out)},
                    [str(out)], time.perf_counter() - start)
    return 0


def cmd_search(args) -> int:
    start = time.perf_counter()
    if args.alpha == "auto":
        if not args.model:
            print("error: --alpha auto requires --model", file=sys.stderr)
            return 1
        if not args.bank or not args.ood_config:
            print("error: --alpha auto requires --bank and --ood-config",
                  file=sys.stderr)
            return 1
    else:
        try:
            fixed_alpha = float(args.alpha)
        except ValueError:
            print(f"error: --alpha must be 'auto' or a number in [0,1], "
                  f"got {args.alpha!r}", file=sys.stderr)
            return 1
        if not 0.0 <= fixed_alpha <= 1.0:
            print("error: --alpha literal must lie in [0,1]", file=sys.stderr)
            return 1
        if fixed_alpha > 0.0 and not args.model:
            print("error: --alpha > 0 requires --model", file=sys.stderr)
            return 1
    aig = _load_circuit(Path(args.aig))
    net = policy_mod.load(args.model) if args.model else None
    if args.alpha == "auto":
        bank = ood_mod.EmbeddingBank.load_csv(args.bank)
        gate = json.loads(Path(args.ood_config).read_text())
        if not (isinstance(gate, dict)
                and isinstance(gate.get("delta_th"), (int, float))
                and isinstance(gate.get("temperature", 0.0), (int, float))):
            raise ValueError(f"{args.ood_config}: OOD config needs a numeric "
                             "delta_th (and optional temperature)")
        cfg = ood_mod.OodConfig(gate["delta_th"], gate.get("temperature", 0.0))
        d_min, nearest = ood_mod.min_distance(net.encode_aig(aig), bank)
        alpha_value = ood_mod.alpha(d_min, cfg)
        print(f"ood gate: delta_min={d_min:.6f} (nearest {nearest}) "
              f"-> alpha={alpha_value:g}")
    else:
        alpha_value = fixed_alpha
    out_dir = _resolve_path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    mcts_cfg = MctsConfig(c_uct=args.c_uct, iterations=args.k,
                          alpha=alpha_value, seed=args.seed,
                          recipe_len=args.recipe_len)
    evaluator = RecipeEvaluator(aig, recipe_len=args.recipe_len,
                                budget=args.budget,
                                measure_time=args.measure_time)
    result = generate_recipe(evaluator, mcts_cfg,
                             policy=net if alpha_value > 0 else None)
    print(f"recipe: {result.recipe}")
    print(f"final adp: {result.final_qor:g}  "
          f"best adp: {result.best_qor:g}  "
          f"baseline adp: {evaluator.baseline:g}")
    print(f"synthesis calls: {result.budget_used}"
          + (" (budget exhausted)" if result.exhausted else ""))
    trace_path = out_dir / "trace.csv"
    _write_trace_csv(trace_path, result.trace)
    result_path = out_dir / "result.json"
    result_path.write_text(json.dumps({
        "circuit": aig.name,
        "alpha": alpha_value,
        "recipe": str(result.recipe),
        "best_recipe": str(result.best_recipe),
        "final_adp": result.final_qor,
        "best_adp": result.best_qor,
        "baseline_adp": evaluator.baseline,
        "budget_used": result.budget_used,
        "exhausted": result.exhausted,
        "cache_hits": result.cache_hits,
    }, indent=2, sort_keys=True) + "\n")
    _write_manifest(out_dir / "manifest.json", "search",
                    {"aig": args.aig, "model": args.model,
                     "alpha": args.alpha, "budget": args.budget,
                     "seed": args.seed, "k": args.k,
                     "recipe_len": args.recipe_len, "c_uct": args.c_uct},
                    [str(trace_path), str(result_path)],
                    time.perf_counter() - start)
    return 0


def cmd_train(args) -> int:
    start = time.perf_counter()
    circuits = [_load_circuit(Path(p)) for p in args.circuits]
    net = policy_mod.PolicyNetwork(policy_mod.PolicyConfig(
        gcn_layers=args.gcn_layers, d_hidden=args.d_hidden,
        recipe_len=args.recipe_len, seed=args.seed))
    cfg = policy_mod.TrainingConfig(
        epochs=args.epochs, learning_rate=args.lr,
        k_iterations=args.k, recipe_len=args.recipe_len, seed=args.seed)
    result = policy_mod.train(net, circuits, cfg)
    out = _resolve_path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    policy_mod.save(net, out)
    outputs = [str(out)]
    loss_path = out.with_suffix(".loss.csv")
    with open(loss_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("epoch", "loss"))
        for epoch, value in enumerate(result.losses):
            writer.writerow((epoch, repr(value)))
    outputs.append(str(loss_path))
    if args.bank:
        bank = ood_mod.EmbeddingBank(source="train")
        for circuit in circuits:
            bank.add(circuit.name, net.encode_aig(circuit))
        bank_path = _resolve_path(args.bank)
        bank.save_csv(bank_path)
        outputs.append(str(bank_path))
    print(f"trained on {len(circuits)} circuits for {args.epochs} epochs; "
          f"loss {result.losses[0]:.4f} -> {result.losses[-1]:.4f}")
    _write_manifest(out.with_suffix(".manifest.json"), "train",
                    {"circuits": list(args.circuits), "epochs": args.epochs,
                     "k": args.k, "lr": args.lr, "seed": args.seed,
                     "recipe_len": args.recipe_len,
                     "gcn_layers": args.gcn_layers,
                     "d_hidden": args.d_hidden},
                    outputs, time.perf_counter() - start)
    return 0


def cmd_calibrate(args) -> int:
    start = time.perf_counter()
    net = policy_mod.load(args.model)
    bank = ood_mod.EmbeddingBank.load_csv(args.bank)
    validation = []
    with open(args.validation, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header and header[0] != "circuit":
            fh.seek(0)
            reader = csv.reader(fh)
        for row in reader:
            if not row:
                continue
            path, label = row[0], int(row[1])
            circuit = _load_circuit(Path(path))
            validation.append((circuit.name, net.encode_aig(circuit), label))
    delta_th = ood_mod.calibrate([(h, lbl) for _, h, lbl in validation], bank)
    out = _resolve_path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"delta_th": delta_th,
                               "temperature": args.temperature},
                              indent=2, sort_keys=True) + "\n")
    outputs = [str(out)]
    if args.report:
        report_path = _resolve_path(args.report)
        ood_mod.write_calibration_report(report_path, validation, bank, delta_th)
        outputs.append(str(report_path))
    print(f"delta_th = {delta_th:.6f} (T = {args.temperature:g})")
    _write_manifest(out.with_suffix(".manifest.json"), "calibrate",
                    {"model": args.model, "bank": args.bank,
                     "validation": args.validation,
                     "temperature": args.temperature},
                    outputs, time.perf_counter() - start)
    return 0


def cmd_bench(args) -> int:
    start = time.perf_counter()
    methods = []
    for name in args.methods.split(","):
        name = name.strip()
        if name == "pure_mcts":
            methods.append(bench_mod.MethodSpec.pure_mcts())
        elif name == "agent_guided":
            methods.append(bench_mod.MethodSpec.agent_guided())
        elif name == "agent_ood":
            methods.append(bench_mod.MethodSpec.agent_with_ood(args.temperature))
        else:
            print(f"error: unknown method {name!r}", file=sys.stderr)
            return 1
    needs_model = any(m.alpha is None or m.alpha > 0 for m in methods)
    if needs_model and not args.model:
        print("error: agent methods require --model", file=sys.stderr)
        return 1
    needs_gate = any(m.alpha is None for m in methods)
    if needs_gate and (not args.bank or args.delta_th is None):
        print("error: agent_ood requires --bank and --delta-th",
              file=sys.stderr)
        return 1
    circuits = {p.stem: _load_circuit(p) for p in map(Path, args.test)}
    net = policy_mod.load(args.model) if args.model else None
    bank = ood_mod.EmbeddingBank.load_csv(args.bank) if args.bank else None
    out_dir = _resolve_path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def trace_sink(method, circuit, seed, trace):
        run_dir = out_dir / "traces" / method / circuit
        run_dir.mkdir(parents=True, exist_ok=True)
        _write_trace_csv(run_dir / f"seed{seed}.csv", trace)

    report = bench_mod.evaluate(
        methods, circuits, policy=net, bank=bank, delta_th=args.delta_th,
        budget=args.budget, seeds=tuple(range(args.seeds)),
        mcts_cfg=MctsConfig(iterations=args.k, recipe_len=args.recipe_len),
        measure_time=args.measure_time, trace_sink=trace_sink,
        jobs=args.jobs)
    (out_dir / "report.csv").write_text(report.to_csv())
    (out_dir / "report.json").write_text(report.to_json() + "\n")
    for method, agg in sorted(report.aggregates.items()):
        if isinstance(agg, dict):
            print(f"{method}: geomean reduction "
                  f"{agg['geomean_reduction_pct']:.2f}% "
                  f"win/tie/loss {agg['win']}/{agg['tie']}/{agg['loss']} "
                  f"iso-QoR speedup {agg['iso_qor_speedup_vs_reference']:.2f}x")
    _write_manifest(out_dir / "manifest.json", "bench",
                    {"methods": args.methods, "test": list(args.test),
                     "budget": args.budget, "seeds": args.seeds,
                     "k": args.k, "recipe_len": args.recipe_len,
                     "model": args.model, "bank": args.bank,
                     "delta_th": args.delta_th,
                     "temperature": args.temperature, "jobs": args.jobs},
                    [str(out_dir / "report.csv"), str(out_dir / "report.json")],
                    time.perf_counter() - start)
    return 0


# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="aigopt",
                     description="Synthesis recipe optimization for AIGs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[], help="generate a benchmark circuit")
    p.add_argument("--family", required=True, choices=bench_mod.FAMILIES)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("search", help="generate a recipe for one circuit")
    p.add_argument("--aig", required=True)
    p.add_argument("--model")
    p.add_argument("--alpha", default="0",
                   help="'auto' (OOD gate) or a literal in [0,1]")
    p.add_argument("--bank", help="embedding bank CSV (for --alpha auto)")
    p.add_argument("--ood-config", help="calibration JSON (for --alpha auto)")
    p.add_argument("--budget", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=512)
    p.add_argument("--c-uct", type=float, default=MctsConfig().c_uct)
    p.add_argument("--recipe-len", type=int, default=DEFAULT_RECIPE_LEN)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--measure-time", action="store_true",
                   help="record wall clock in traces (breaks byte-exact "
                        "rerun reproducibility)")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("train", help="pre-train the policy agent")
    p.add_argument("--circuits", nargs="+", required=True)
    p.add_argument("--out", required=True, help="model file path")
    p.add_argument("--bank", help="also write the training embedding bank")
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--k", type=int, default=512)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--recipe-len", type=int, default=DEFAULT_RECIPE_LEN)
    p.add_argument("--gcn-layers", type=int, default=3)
    p.add_argument("--d-hidden", type=int, default=32)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("calibrate", help="choose the OOD threshold")
    p.add_argument("--model", required=True)
    p.add_argument("--bank", required=True)
    p.add_argument("--validation", required=True,
                   help="CSV of (circuit path, winner label 0|1)")
    p.add_argument("--temperature", type=float, default=0.0)
    p.add_argument("--out", required=True, help="calibration JSON path")
    p.add_argument("--report", help="Table-style calibration report CSV")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("bench", help="compare methods on a test set")
    p.add_argument("--test", nargs="+", required=True,
                   help="test circuit AIGER paths")
    p.add_argument("--methods", default="pure_mcts,agent_guided",
                   help="comma list: pure_mcts,agent_guided,agent_ood")
    p.add_argument("--model")
    p.add_argument("--bank")
    p.add_argument("--delta-th", type=float)
    p.add_argument("--temperature", type=float, default=0.0)
    p.add_argument("--budget", type=int, default=100)
    p.add_argument("--seeds", type=int, default=1,
                   help="number of seeds (0..N-1)")
    p.add_argument("--k", type=int, default=512)
    p.add_argument("--recipe-len", type=int, default=DEFAULT_RECIPE_LEN)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--measure-time", action="store_true")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
