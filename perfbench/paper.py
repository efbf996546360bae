"""The ``paper`` workload: one fresh-process regeneration of every experiment.

A sample regenerates ``repro.eval.harness.EXPERIMENTS`` twice in one
:class:`repro.api.Workbench` session, exactly as ``run_all`` does (jobs=1):
first *cold* (empty plan cache, as a CLI user gets it), then *warm*.  The
modelled Smache/baseline buffers start empty in both, as in the paper; the
second pass only finds the plan cache warm.  Each report must equal the
pinned copy (``pins/paper.json``) with E5's wall-clock ``speedup`` column
masked.  The first sample of a run also checks that the cycle-accurate
simulator's output equals the reference executor's on the paper's
configurations.
"""

from __future__ import annotations

import contextlib
import json
import os
from typing import Dict, List

from common import PINS_DIR, monotonic

#: The experiments of a tiny run (tests): one simulated, two cost-only.
TINY_EXPERIMENTS = ("table1", "resources", "ablation-writethrough")


def _speedup_cell(cell: str) -> bool:
    """The header, rule or a value (``2385x``) of E5's last table column."""
    return cell == "speedup" or set(cell) == {"-"} or (cell[:-1].isdigit() and cell[-1] == "x")


def mask(name: str, text: str) -> str:
    """Drop E5's ``speedup`` column, the one wall-clock field of the report."""
    if name != "analytic":
        return text
    lines = []
    for line in text.splitlines():
        fields = line.split()
        if len(fields) > 1 and _speedup_cell(fields[-1]):
            line = line.rsplit(None, 1)[0]
        lines.append(line)
    return "\n".join(lines)


def load_pins() -> Dict[str, str]:
    with open(os.path.join(PINS_DIR, "paper.json"), encoding="utf-8") as fh:
        return json.load(fh)


def regenerate(names, workbench, tracer=None) -> Dict[str, tuple]:
    """Run each experiment once; returns name -> (seconds, formatted text)."""
    from repro.eval.harness import run_experiment

    out = {}
    for name in names:
        start = monotonic()
        if tracer is None:
            record = run_experiment(name, workbench=workbench)
        else:
            with tracer.span(f"eval.{name}"):
                record = run_experiment(name, workbench=workbench)
        out[name] = (monotonic() - start, record.text)
    return out


def sim_matches_reference(tiny: bool) -> List[str]:
    """Simulated outputs vs reference outputs on the paper's configurations."""
    import numpy as np

    from repro.core.boundary import BoundarySpec
    from repro.core.grid import GridSpec
    from repro.core.stencil import StencilShape
    from repro.pipeline import EvaluationRequest, StencilProblem, evaluate

    cases = [(StencilProblem.paper_example(11, 11), 3 if tiny else 100)]
    if not tiny:
        cases.append((StencilProblem(
            grid=GridSpec(shape=(20, 24), word_bytes=4),
            stencil=StencilShape.asymmetric_2d(),
            boundary=BoundarySpec.paper_2d(),
            name="asym-20x24",
        ), 5))
    failures = []
    for problem, iterations in cases:
        for system in ("smache", "baseline"):
            request = EvaluationRequest(system=system, iterations=iterations)
            simulated = evaluate(problem, backend="simulate", request=request).output
            reference = evaluate(problem, backend="reference", request=request).output
            if not np.array_equal(simulated, reference):
                failures.append(f"{problem.name}/{system}: simulator output != reference output")
    return failures


def sample(args, tracer=None) -> Dict:
    """One sample; returns the worker's JSON-able result."""
    from repro.api import Workbench
    from repro.eval.harness import EXPERIMENTS

    setup_s = monotonic() - args.spawned
    names = TINY_EXPERIMENTS if args.tiny else tuple(EXPERIMENTS)
    pins = load_pins()
    workbench = Workbench()
    failures: List[str] = []

    def phase(name: str):
        return tracer.span(f"phase.{name}") if tracer is not None else contextlib.nullcontext()

    with phase("cold"):
        cold = regenerate(names, workbench, tracer)
    with phase("warm"):
        warm = regenerate(names, workbench, tracer)
    for label, report in (("cold", cold), ("warm", warm)):
        for name, (_seconds, text) in report.items():
            if mask(name, text) != pins.get(name):
                failures.append(f"paper {label}: {name} differs from the pinned report")
    attempted = 2 * len(names)
    layers: Dict[str, float] = {}
    if tracer is not None:
        from layers import layer_metrics

        layers = layer_metrics(tracer.spans, tracer.counts, job="phase.cold")
    if args.first or tracer is not None:
        # The simulator-vs-reference gate, outside the timed regeneration; it
        # is the paper workload's only caller of the reference executor.
        with phase("check"):
            failures.extend(sim_matches_reference(args.tiny))
        attempted += 2 if args.tiny else 4
        if tracer is not None:
            checked = layer_metrics(tracer.spans, tracer.counts)
            layers.update({k: v for k, v in checked.items() if k.startswith("reference.")})

    return {
        "attempted": attempted,
        "failures": failures,
        "values": {
            "setup_s": setup_s,
            "cold_s": sum(seconds for seconds, _ in cold.values()),
        },
        "times": {
            **{f"cold.{name}": [seconds] for name, (seconds, _) in cold.items()},
            **{f"warm.{name}": [seconds] for name, (seconds, _) in warm.items()},
        },
        "layers": layers,
    }
