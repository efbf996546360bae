"""The repository's benchmark: paper regeneration, campaign and serving.

    python3 perfbench/run.py --workload paper|campaign|serve --seed N \\
        --seconds S --trace 0|1

Runs from the root of a checkout against the program in ``src/``.  The
untraced run (``--trace 0``) prints the end-to-end metrics; the traced run
(``--trace 1``) wraps each layer's entry points and prints the per-layer
metrics instead.  Every output is checked; a failed check prints no numbers
and exits 1.  The last stdout line is one JSON object::

    {"correct": true, "attempted": 52, "failed": 0, "metrics": {...}}

README.md explains each workload, the metrics and the layer -> metric map.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List

from common import (
    E2E_UNITS, SourceMissing, Outcome, emit_result, host_identity, median, monotonic,
    require_source, run_json,
)

WORKLOADS = ("paper", "campaign", "serve")
#: Fresh-process samples per untraced run, at least.
MIN_SAMPLES = 4
WORKER_TIMEOUT_S = 170.0


def worker(args, *flags: str) -> Dict:
    argv = [
        sys.executable, "perfbench/worker.py", args.workload, "--seed", str(args.seed),
        "--spawned", repr(monotonic()), *flags,
    ]
    if args.tiny:
        argv.append("--tiny")
    if args.corrupt:
        argv += ["--corrupt", args.corrupt]
    return run_json(argv, timeout=WORKER_TIMEOUT_S)


def run_samples(args, outcome: Outcome) -> None:
    """``paper``/``campaign``: fresh-process samples of the same work, pooled."""
    if args.trace:
        plain = worker(args, "--first", "--extras")
        traced = worker(args, "--trace")
        for result in (plain, traced):
            outcome.merge_worker(result)
        outcome.layers = dict(traced["layers"])
        for name in ("sweep.journal_ms", "sweep.retry_penalty", "sweep.pool_speedup"):
            outcome.layers[name] = plain["layers"].get(name, 0.0)
        cold, traced_cold = plain["values"]["cold_s"], traced["values"]["cold_s"]
        outcome.layers["trace.overhead_pct"] = 100 * (traced_cold - cold) / cold
        return
    samples: List[Dict] = []
    started = monotonic()
    while True:
        began = monotonic()
        samples.append(worker(args, *(["--first"] if not samples else [])))
        outcome.merge_worker(samples[-1])
        rounded = {k: round(v, 4) for k, v in samples[-1]["values"].items()}
        print(f"{args.workload}: sample {len(samples)} {json.dumps(rounded, sort_keys=True)}")
        last = monotonic() - began
        if len(samples) >= MIN_SAMPLES and monotonic() - started + last > args.seconds:
            break
    # Set-up and memory: medians over the samples.  Times: the fastest of
    # every repetition of the same work in the run.  Neighbours on a shared
    # host only ever slow a repetition down, and a busy stretch moves a
    # median with it, so the fastest repetition is the steadier figure of
    # the program's own cost.
    values = {name: median([s["values"][name] for s in samples])
              for name in ("setup_s", "peak_rss_mb")}
    fastest = {name: min(t for s in samples for t in s["times"][name])
               for name in samples[0]["times"]}
    if args.workload == "paper":
        # Per experiment, so a slow stretch of the host during one experiment
        # of one sample moves nothing; the tail is the slowest experiment.
        cold = [t for name, t in fastest.items() if name.startswith("cold.")]
        warm = [t for name, t in fastest.items() if name.startswith("warm.")]
        values.update(cold_s=sum(cold), warm_ms=1e3 * sum(warm), tail_ms=1e3 * max(cold))
        outcome.named.update(paper_s=(values["cold_s"], "s"))
    else:
        values.update(
            cold_s=fastest["cold"], warm_ms=1e3 * fastest["warm"],
            tail_ms=1e3 * fastest["resume"],
        )
        outcome.named.update(
            campaign_cold_s=(values["cold_s"], "s"),
            campaign_warm_ms=(values["warm_ms"], "ms"),
            campaign_resume_ms=(values["tail_ms"], "ms"),
        )
    outcome.named["samples"] = (len(samples), "count")
    outcome.e2e = values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # For the benchmark's own tests: shrunken inputs, deliberately bad outputs.
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--corrupt", choices=("campaign-record", "served-payload"), help=argparse.SUPPRESS
    )
    args = parser.parse_args(argv)
    try:
        require_source()
    except SourceMissing as exc:
        print(f"perfbench: {exc}; run from the root of a full checkout", file=sys.stderr)
        return 2

    outcome = Outcome()
    if args.workload == "serve":
        import serve

        serve.run(args, outcome)
    else:
        run_samples(args, outcome)

    from layers import LAYER_UNITS

    print("host " + json.dumps(host_identity(), sort_keys=True))
    for name, (value, unit) in outcome.named.items():
        print(f"{args.workload}: {name} = {value:.6g} {unit}")
    if not args.trace:
        for name, unit in E2E_UNITS.items():
            print(f"{args.workload}: {name} = {outcome.e2e.get(name, float('nan')):.6g} {unit}")
    for failure in outcome.failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    return emit_result(outcome, bool(args.trace), LAYER_UNITS)


if __name__ == "__main__":
    sys.exit(main())
