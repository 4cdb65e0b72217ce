"""One repetition of a workload in a fresh interpreter.

    worker.py run --workload W --seed N --size full|tiny --out DIR
                  [--trace | --setup-only]
    worker.py reapply JOBS.json

``run`` imports aigopt, sets up the inputs, times every operation and
writes DIR/rep.json (and DIR/spans.jsonl when traced). ``reapply`` applies
recipes to input circuits with the package's passes and writes the results
as AIGER, for the independent checker.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def run(args) -> int:
    import aigopt  # noqa: F401  (import cost belongs to set-up)

    import workloads

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out = Path(args.out)
    results = Path(os.environ["AIGOPT_RESULTS"])
    ops = workloads.setup(args.workload, args.size, args.seed,
                          out / "inputs", results)
    phase_start = time.perf_counter()
    if args.setup_only:
        (out / "rep.json").write_text(json.dumps({"phase_start": phase_start}))
        return 0
    records = []
    for op in ops:
        synth_before = tracer.synth_calls if tracer else 0
        start = time.perf_counter()
        try:
            facts = op.run()
            error = None if facts.get("exit", 0) == 0 else f"exit {facts['exit']}"
        except Exception:  # an op that raises is a failed op, not a crash
            facts, error = {}, traceback.format_exc(limit=5)
        end = time.perf_counter()
        if tracer:
            facts["traced_synth_calls"] = tracer.synth_calls - synth_before
        records.append({"name": op.name, "start": start, "end": end,
                        "error": error, "facts": facts,
                        "outputs": op.outputs})
    phase_end = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.dump(out / "spans.jsonl")
    for op in ops:
        if op.after is not None:
            op.after()
    (out / "rep.json").write_text(json.dumps({
        "phase_start": phase_start, "phase_end": phase_end,
        "peak_rss_mb": peak_rss_mb, "ops": records,
        "synth_calls_traced": tracer.synth_calls if tracer else None,
    }))
    return 0


def reapply(jobs_path: str) -> int:
    from aigopt import aig, transforms

    parsed = {}
    for job in json.loads(Path(jobs_path).read_text()):
        source = job["input"]
        if source not in parsed:
            parsed[source] = aig.parse_aiger(Path(source).read_bytes())
        recipe = transforms.Recipe.parse(job["recipe"])
        result, _ = transforms.apply_recipe(parsed[source], recipe,
                                            max_len=len(recipe))
        Path(job["out"]).write_bytes(aig.write_aiger(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("run")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", default="full")
    p.add_argument("--out", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true",
                   help="stop after set-up (extra set-up time samples)")
    p = sub.add_parser("reapply")
    p.add_argument("jobs")
    args = parser.parse_args(argv)
    if args.mode == "reapply":
        return reapply(args.jobs)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
