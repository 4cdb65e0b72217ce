"""Spans around the public functions of every aigopt module, installed from
outside the package.

``install`` replaces each traced function object wherever an ``aigopt.*``
module (or class) holds it, so names bound by ``from .x import f`` are
traced too. Spans (name, parent, start, end, extra fields) stay in memory
until ``dump``. ``layer_metrics`` turns a span file into per-layer numbers.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# module -> traced public names ("Class.method" for methods)
TARGETS = {
    "aig": ["parse_aiger", "write_aiger", "equivalent"],
    "transforms": ["apply", "apply_recipe"],
    "isop": ["isop", "factor"],
    "qor": ["baseline_qor"],
    "mcts": ["generate_recipe", "RecipeEvaluator.terminal_reward"],
    "policy": ["train", "save", "load", "PolicyNetwork.priors",
               "PolicyNetwork.encode_aig", "PolicyNetwork.loss_and_grads"],
    "ood": ["min_distance", "calibrate"],
    "bench": ["evaluate", "generate_circuit"],
    "cli": ["cmd_search", "cmd_train", "cmd_calibrate", "cmd_bench"],
}
PASSES = ("b", "rw", "rwz", "rf", "rfz", "rs", "rsz")


class Tracer:
    """Records spans and counters for one repetition."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._seen: set = set()
        self.synth_calls = 0

    # -- recording --------------------------------------------------------

    def span(self, name: str, fn, extra=None):
        """Wraps ``fn``; ``extra(args, kwargs, result)`` adds fields to the
        span."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = [name, parent, start, end, None]
            if extra is not None:
                self.spans[sid][4] = extra(args, kwargs, result)
            return result
        return traced

    def _apply_extra(self, args, kwargs, result):
        aig, action = (*args, *kwargs.values())[:2]
        action = int(action)
        key = (aig.n_inputs, tuple(aig.ands), tuple(aig.outputs), action)
        repeat = key in self._seen
        self._seen.add(key)
        noop = result.ands == aig.ands and result.outputs == aig.outputs
        return {"pass": PASSES[action], "removed": len(aig.ands) - len(result.ands),
                "noop": noop, "repeat": repeat}

    def _terminal_reward(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(evaluator, *args, **kwargs):
            before = evaluator.calls
            try:
                return fn(evaluator, *args, **kwargs)
            finally:
                tracer.synth_calls += evaluator.calls - before
        return self.span("mcts.terminal_reward", counted)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Patches every traced name; raises RuntimeError if one is gone."""
        import importlib

        modules = {m: importlib.import_module(f"aigopt.{m}") for m in TARGETS}
        replacements = {}
        for mod_name, names in TARGETS.items():
            module = modules[mod_name]
            for dotted in names:
                owner_name, _, attr = dotted.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, attr, None)
                if original is None:
                    raise RuntimeError(f"traced name aigopt.{mod_name}.{dotted} "
                                       "no longer exists")
                if dotted == "RecipeEvaluator.terminal_reward":
                    wrapper = self._terminal_reward(original)
                elif dotted == "apply":
                    wrapper = self.span(f"{mod_name}.apply", original,
                                        self._apply_extra)
                else:
                    label = attr[4:] if attr.startswith("cmd_") else attr
                    wrapper = self.span(f"{mod_name}.{label}", original)
                if owner_name:
                    setattr(owner, attr, wrapper)
                else:
                    replacements[id(original)] = (original, wrapper)
        for name, module in list(sys.modules.items()):
            if name != "aigopt" and not name.startswith("aigopt."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics from a span file
# ---------------------------------------------------------------------------

def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def load_spans(path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def layer_metrics(spans: list, synth_calls: int) -> dict[str, float]:
    """Per-layer counts, inclusive seconds and layer self time.

    Self time of a span is its duration minus the time covered by the
    outermost descendant spans of other layers; the spans of its own layer
    nested below it count as its own.
    """
    calls: dict[str, int] = defaultdict(int)
    secs: dict[str, float] = defaultdict(float)
    exclusive = [end - start for _, _, start, end, _ in spans]
    for name, parent, start, end, _ in spans:
        calls[name] += 1
        secs[name] += end - start
        if parent >= 0:
            exclusive[parent] -= end - start
    self_s: dict[str, float] = defaultdict(float)
    for sid, (name, parent, _, _, _) in enumerate(spans):
        root = sid
        while (spans[root][1] >= 0
               and layer_of(spans[spans[root][1]][0]) == layer_of(name)):
            root = spans[root][1]
        self_s[spans[root][0]] += exclusive[sid]

    def under(sid: int, ancestor: str) -> bool:
        sid = spans[sid][1]
        while sid >= 0:
            if spans[sid][0] == ancestor:
                return True
            sid = spans[sid][1]
        return False

    out: dict[str, float] = {}
    for cmd in ("search", "train", "calibrate", "bench"):
        out[f"cli.{cmd}.s"] = secs[f"cli.{cmd}"]
    out["aig.parse_aiger.s"] = secs["aig.parse_aiger"]
    out["aig.write_aiger.s"] = secs["aig.write_aiger"]
    out["aig.equivalent.calls"] = calls["aig.equivalent"]
    out["aig.equivalent.s"] = secs["aig.equivalent"]

    applies = [(sid, s) for sid, s in enumerate(spans) if s[0] == "transforms.apply"]
    for p in PASSES:
        mine = [s for _, s in applies if s[4]["pass"] == p]
        out[f"transforms.{p}.calls"] = len(mine)
        out[f"transforms.{p}.s"] = sum(s[3] - s[2] for s in mine)
        out[f"transforms.{p}.noop_share"] = (
            sum(s[4]["noop"] for s in mine) / len(mine) if mine else 0.0)
        out[f"transforms.{p}.ands_removed"] = sum(s[4]["removed"] for s in mine)
    out["transforms.apply.calls"] = len(applies)
    out["transforms.repeat_share"] = (
        sum(s[4]["repeat"] for _, s in applies) / len(applies) if applies else 0.0)

    out["isop.isop.calls"] = calls["isop.isop"]
    out["isop.isop.s"] = secs["isop.isop"]
    out["isop.factor.s"] = secs["isop.factor"]
    out["qor.baseline_qor.calls"] = calls["qor.baseline_qor"]
    out["qor.baseline_qor.s"] = secs["qor.baseline_qor"]

    out["mcts.generate_recipe.calls"] = calls["mcts.generate_recipe"]
    out["mcts.generate_recipe.self_s"] = self_s["mcts.generate_recipe"]
    out["mcts.terminal_reward.calls"] = calls["mcts.terminal_reward"]
    out["mcts.synth_calls"] = synth_calls
    evaluator_applies = sum(1 for sid, _ in applies
                            if under(sid, "mcts.terminal_reward"))
    out["mcts.pass_apps_per_synth_call"] = (
        evaluator_applies / synth_calls if synth_calls else 0.0)

    out["policy.train.s"] = secs["policy.train"]
    for name in ("priors", "encode_aig"):
        out[f"policy.{name}.calls"] = calls[f"policy.{name}"]
        out[f"policy.{name}.s"] = secs[f"policy.{name}"]
    for name in ("loss_and_grads", "save", "load"):
        out[f"policy.{name}.s"] = secs[f"policy.{name}"]

    out["ood.min_distance.calls"] = calls["ood.min_distance"]
    out["ood.min_distance.s"] = secs["ood.min_distance"]
    out["ood.calibrate.s"] = secs["ood.calibrate"]

    out["bench.evaluate.s"] = secs["bench.evaluate"]
    out["bench.evaluate.self_s"] = self_s["bench.evaluate"]
    out["bench.generate_circuit.s"] = secs["bench.generate_circuit"]
    return out
