"""Command-line entry point.

Subcommands: gen (benchmark circuits), train (policy pre-training), search
(recipe generation for one circuit), calibrate (OOD threshold from labeled
validation runs), bench (method comparison grid). Each subcommand returns
where its manifest goes and what it wrote; ``main`` owns how a run ends: it
times the run, writes the manifest, and maps errors to exit codes (0
success, 1 usage error, 2 runtime failure or exhausted memory), printing one
``error:`` line. The policy and OOD-gate modules, which load numpy, are
imported only where a model is loaded or trained, so ``gen`` and unguided
``search`` and ``bench`` runs never load numpy.
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
from .aig import parse_aiger, write_aiger
from .mcts import MctsConfig, RecipeEvaluator, TraceRow, generate_recipe
from .transforms import DEFAULT_RECIPE_LEN

RESULTS_ENV = "AIGOPT_RESULTS"


class _UsageError(Exception):
    """A flag combination argparse cannot check; exits 1. Not a ValueError,
    which exits 2."""


def _resolve_path(raw: str) -> Path:
    path = Path(raw)
    root = os.environ.get(RESULTS_ENV)
    if root and not path.is_absolute():
        return Path(root) / path
    return path


def _output_file(raw: str) -> Path:
    """``_resolve_path(raw)``, with its parent directory made."""
    path = _resolve_path(raw)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _git_describe() -> str:
    """``git describe`` of the checkout holding this package, else
    ``unknown``; never of the caller's working directory."""
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=Path(__file__).parent, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def _write_manifest(target: Path, args, outputs: list[str],
                    wall_s: float) -> None:
    """Records the command, every parsed flag, the outputs and wall time."""
    config = {k: v for k, v in vars(args).items()
              if k not in ("func", "command")}
    manifest = {
        "command": args.command,
        "config": config,
        "outputs": outputs,
        "run": {"git_describe": _git_describe(),
                "wall_time_s": round(wall_s, 3)},
    }
    target.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _load_circuit(path: Path):
    return parse_aiger(path.read_bytes(), name=path.stem)


def _load_model(path: str):
    from . import policy

    return policy.load(path)


def _write_trace_csv(path: Path, trace) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(f.name for f in dataclasses.fields(TraceRow))
        for row in trace:
            writer.writerow(dataclasses.astuple(row))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_gen(args) -> tuple[Path, list[str]]:
    aig = bench_mod.generate_circuit(args.family, args.size, args.seed)
    out = _output_file(args.out)
    out.write_bytes(write_aiger(aig))
    print(f"{aig.name}: inputs={aig.n_inputs} outputs={aig.n_outputs} "
          f"nodes={len(aig.ands)} depth={aig.depth} -> {out}")
    return out.with_suffix(out.suffix + ".manifest.json"), [str(out)]


def cmd_search(args) -> tuple[Path, list[str]]:
    if args.alpha == "auto":
        if not args.model:
            raise _UsageError("--alpha auto requires --model")
        if not args.bank or not args.ood_config:
            raise _UsageError("--alpha auto requires --bank and --ood-config")
    else:
        try:
            fixed_alpha = float(args.alpha)
        except ValueError:
            raise _UsageError(f"--alpha must be 'auto' or a number in [0,1], "
                              f"got {args.alpha!r}") from None
        if not 0.0 <= fixed_alpha <= 1.0:
            raise _UsageError("--alpha literal must lie in [0,1]")
        if fixed_alpha > 0.0 and not args.model:
            raise _UsageError("--alpha > 0 requires --model")
    aig = _load_circuit(Path(args.aig))
    net = _load_model(args.model) if args.model else None
    if args.alpha == "auto":
        from . import ood as ood_mod

        bank = ood_mod.EmbeddingBank.load_csv(args.bank)
        cfg = ood_mod.OodConfig.load(args.ood_config)
        d_min, nearest = ood_mod.min_distance(net.encode_aig(aig), bank)
        alpha_value = ood_mod.alpha(d_min, cfg)
        print(f"ood gate: delta_min={d_min:.6f} (nearest {nearest}) "
              f"-> alpha={alpha_value:g}")
    else:
        alpha_value = fixed_alpha
    mcts_cfg = MctsConfig(c_uct=args.c_uct, iterations=args.k,
                          alpha=alpha_value, seed=args.seed,
                          recipe_len=args.recipe_len)
    evaluator = RecipeEvaluator(aig, budget=args.budget,
                                measure_time=args.measure_time)
    result = generate_recipe(evaluator, mcts_cfg, policy=net)
    out_dir = _resolve_path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    print(f"recipe: {result.recipe}")
    print(f"final adp: {result.final_qor:g}  "
          f"best adp: {result.best_qor:g}  "
          f"baseline adp: {evaluator.baseline:g}")
    print(f"synthesis calls: {evaluator.calls}"
          + (" (budget exhausted)" if result.exhausted else ""))
    trace_path = out_dir / "trace.csv"
    _write_trace_csv(trace_path, evaluator.trace)
    result_path = out_dir / "result.json"
    result_path.write_text(json.dumps({
        "circuit": aig.name,
        "alpha": alpha_value,
        "recipe": str(result.recipe),
        "best_recipe": str(result.best_recipe),
        "final_adp": result.final_qor,
        "best_adp": result.best_qor,
        "baseline_adp": evaluator.baseline,
        "budget_used": evaluator.calls,
        "exhausted": result.exhausted,
        "cache_hits": evaluator.cache_hits,
    }, indent=2, sort_keys=True) + "\n")
    return out_dir / "manifest.json", [str(trace_path), str(result_path)]


def cmd_train(args) -> tuple[Path, list[str]]:
    from . import ood as ood_mod
    from . import policy as policy_mod

    circuits = [_load_circuit(Path(p)) for p in args.circuits]
    net = policy_mod.PolicyNetwork(policy_mod.PolicyConfig(
        gcn_layers=args.gcn_layers, d_hidden=args.d_hidden,
        recipe_len=args.recipe_len, seed=args.seed))
    cfg = policy_mod.TrainingConfig(
        epochs=args.epochs, learning_rate=args.lr, k_iterations=args.k,
        seed=args.seed)
    losses = policy_mod.train(net, circuits, cfg)
    if args.bank:  # embedded first: an overflow there writes no file
        bank = ood_mod.EmbeddingBank()
        for circuit in circuits:
            bank.add(circuit.name, net.encode_aig(circuit))
    out = _output_file(args.out)
    policy_mod.save(net, out)
    outputs = [str(out)]
    loss_path = out.with_suffix(".loss.csv")
    with open(loss_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("epoch", "loss"))
        for epoch, value in enumerate(losses):
            writer.writerow((epoch, repr(value)))
    outputs.append(str(loss_path))
    if args.bank:
        bank_path = _output_file(args.bank)
        bank.save_csv(bank_path)
        outputs.append(str(bank_path))
    print(f"trained on {len(circuits)} circuits for {args.epochs} epochs; "
          f"loss {losses[0]:.4f} -> {losses[-1]:.4f}")
    return out.with_suffix(".manifest.json"), outputs


def cmd_calibrate(args) -> tuple[Path, list[str]]:
    from . import ood as ood_mod

    net = _load_model(args.model)
    bank = ood_mod.EmbeddingBank.load_csv(args.bank)
    validation = []
    with open(args.validation, newline="") as fh:
        reader = csv.reader(fh)
        header = next(ood_mod.read_rows(reader, args.validation), None)
        if header and header[0] != "circuit":
            fh.seek(0)
            reader = csv.reader(fh)
        for row in ood_mod.read_rows(reader, args.validation):
            if not row:
                continue
            try:
                path, label = row[0], int(row[1])
            except (IndexError, ValueError):
                raise ValueError(f"{args.validation}: line {reader.line_num}: "
                                 "expected circuit_path,winner_label") from None
            circuit = _load_circuit(Path(path))
            validation.append((circuit.name, net.encode_aig(circuit), label))
    delta_th = ood_mod.calibrate([(h, lbl) for _, h, lbl in validation], bank)
    gate = ood_mod.OodConfig(delta_th, args.temperature)
    out = _output_file(args.out)
    gate.save(out)
    outputs = [str(out)]
    if args.report:
        report_path = _output_file(args.report)
        ood_mod.write_calibration_report(report_path, validation, bank, delta_th)
        outputs.append(str(report_path))
    print(f"delta_th = {delta_th:.6f} (T = {args.temperature:g})")
    return out.with_suffix(".manifest.json"), outputs


def cmd_bench(args) -> tuple[Path, list[str]]:
    try:
        methods = [bench_mod.method(name.strip(), args.temperature)
                   for name in args.methods.split(",")]
    except KeyError as exc:
        raise _UsageError(f"unknown method {exc.args[0]!r}") from None
    needs_model = any(m.alpha is None or m.alpha > 0 for m in methods)
    if needs_model and not args.model:
        raise _UsageError("agent methods require --model")
    needs_gate = any(m.alpha is None for m in methods)
    if needs_gate and (not args.bank or args.delta_th is None):
        raise _UsageError("agent_ood requires --bank and --delta-th")
    circuits = {}
    for path in map(Path, args.test):
        if path.stem in circuits:
            raise ValueError(f"test circuits repeat the name {path.stem!r}")
        circuits[path.stem] = _load_circuit(path)
    net = _load_model(args.model) if args.model else None
    bank = None
    if args.bank:
        from . import ood as ood_mod

        bank = ood_mod.EmbeddingBank.load_csv(args.bank)
    report = bench_mod.evaluate(
        methods, circuits, policy=net, bank=bank, delta_th=args.delta_th,
        budget=args.budget, seeds=tuple(range(args.seeds)),
        mcts_cfg=MctsConfig(iterations=args.k, recipe_len=args.recipe_len),
        measure_time=args.measure_time, jobs=args.jobs)
    out_dir = _resolve_path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for (method, circuit, seed), trace in report.traces.items():
        run_dir = out_dir / "traces" / method / circuit
        run_dir.mkdir(parents=True, exist_ok=True)
        _write_trace_csv(run_dir / f"seed{seed}.csv", trace)
    (out_dir / "report.csv").write_text(report.to_csv())
    (out_dir / "report.json").write_text(report.to_json() + "\n")
    for method, agg in sorted(report.aggregates.items()):
        if isinstance(agg, dict):
            print(f"{method}: geomean reduction "
                  f"{agg['geomean_reduction_pct']:.2f}% "
                  f"win/tie/loss {agg['win']}/{agg['tie']}/{agg['loss']} "
                  f"iso-QoR speedup {agg['iso_qor_speedup_vs_reference']:.2f}x")
    return out_dir / "manifest.json", [str(out_dir / "report.csv"),
                                       str(out_dir / "report.json")]


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aigopt", description="Synthesis recipe optimization for AIGs")
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
                   help="comma list of " + ",".join(bench_mod.METHODS))
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
    except SystemExit as exc:  # argparse's usage error (2) exits 1
        return 1 if exc.code else 0
    start = time.perf_counter()
    try:
        manifest, outputs = args.func(args)
        _write_manifest(manifest, args, outputs, time.perf_counter() - start)
    except (_UsageError, OSError, ValueError, RuntimeError,
            MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1 if isinstance(exc, _UsageError) else 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
