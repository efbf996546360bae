"""The ``campaign`` workload: one fresh-process sample of a 240-point campaign.

A sample runs three phases through :class:`repro.api.Workbench`:

1. *cold* — a serial run with a checkpoint and an event log attached, in a
   process whose plan cache is empty (compile front end dominates);
2. *warm* — reruns in the same session into fresh journal files (compile
   fully cached: runner, event bus and journal writes dominate);
3. *resume* — reloads of the complete checkpoint (journal reads).

Every result's canonical JSON must be identical, and equal to the digest
pinned for the seed's shape set (``pins/campaign.json``).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
from typing import Dict, List, Tuple

from common import PINS_DIR, median, monotonic, work_path

#: The bench-campaign grid set (seed 0) and the ranges other seeds draw from.
BENCH_ROWS = (17, 23, 29, 37, 41, 47)
BENCH_COLS = (19, 25, 31, 35)
#: Seeds select one of this many pinned shape sets (``seed % SHAPE_SETS``).
SHAPE_SETS = 100
#: Warm reruns, and resumes, per sample.
REPEATS = 20


def grid_sizes(seed: int, tiny: bool) -> Tuple[Tuple[int, int], ...]:
    """The campaign's grid shapes: today's bench set for set 0, else redrawn.

    A redraw picks one row from each of six bands of the row range and one
    column from each of four bands of the column range, then nudges the
    picks within their bands until the rows and the columns add up to the
    bench set's.  Every shape set so spreads over the ranges like the bench
    set does, with the same total of rows, columns and cells.
    """
    variant = seed % SHAPE_SETS
    if variant == 0 and not tiny:
        return tuple((r, c) for r in BENCH_ROWS for c in BENCH_COLS)
    rng = random.Random(variant)

    def draw(bench: Tuple[int, ...], bands: int) -> List[int]:
        low, high = bench[0], bench[-1]
        edges = [low + (high + 1 - low) * k // bands for k in range(bands + 1)]
        picks = [rng.randrange(edges[k], edges[k + 1]) for k in range(bands)]
        while not tiny and sum(picks) != sum(bench):
            step = 1 if sum(picks) < sum(bench) else -1
            movable = [k for k in range(bands) if edges[k] <= picks[k] + step < edges[k + 1]]
            picks[rng.choice(movable)] += step
        return picks

    rows = draw(BENCH_ROWS, 2 if tiny else len(BENCH_ROWS))
    cols = draw(BENCH_COLS, 2 if tiny else len(BENCH_COLS))
    return tuple((r, c) for r in rows for c in cols)


def make_spec(seed: int, tiny: bool):
    from repro.core.partition import StreamBufferMode
    from repro.pipeline import StencilProblem
    from repro.sweep import SweepSpec

    return SweepSpec(
        name="bench-campaign",
        base=StencilProblem.paper_example(11, 11),
        grid_sizes=grid_sizes(seed, tiny),
        max_stream_reaches=(0, None) if tiny else (0, 2, 4, 8, None),
        modes=(StreamBufferMode.HYBRID, StreamBufferMode.REGISTER_ONLY),
        backends=("analytic",),
        iterations=3,
    )


def digest(canonical: str) -> str:
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def pin_key(seed: int, tiny: bool) -> str:
    return f"{'tiny' if tiny else 'full'}/{seed % SHAPE_SETS}"


def load_pins() -> Dict[str, str]:
    with open(os.path.join(PINS_DIR, "campaign.json"), encoding="utf-8") as fh:
        return json.load(fh)


class _Journal:
    """Fresh checkpoint + event-log paths, removed again by :meth:`clear`."""

    def __init__(self, tag: str) -> None:
        self.checkpoint = work_path("campaign", f"{os.getpid()}-{tag}.ckpt.jsonl")
        self.events = work_path("campaign", f"{os.getpid()}-{tag}.events.jsonl")
        self.clear()

    def size(self) -> int:
        return sum(os.path.getsize(p) for p in (self.checkpoint, self.events) if os.path.exists(p))

    def clear(self) -> None:
        for path in (self.checkpoint, self.events):
            if os.path.exists(path):
                os.remove(path)


def _timed(fn, *args, **kwargs):
    start = monotonic()
    result = fn(*args, **kwargs)
    return result, monotonic() - start


def sample(args, tracer=None) -> Dict:
    """One sample; returns the worker's JSON-able result."""
    from repro.api import Workbench
    from repro.pipeline.backends import get_backend
    from repro.sweep.events import RunObserver

    setup_s = monotonic() - args.spawned
    spec = make_spec(args.seed, args.tiny)
    failures: List[str] = []
    attempted = 0
    observers = []
    if tracer is not None:
        counts = tracer.counts

        class EventCounter(RunObserver):
            def on_event(self, event) -> None:
                counts["sweep.events"] += 1

        observers.append(EventCounter())
    workbench = Workbench(observers=observers)

    def check(label: str, result, reference: str, expect_resumed: bool = False) -> None:
        nonlocal attempted
        attempted += 1
        canonical = result.to_json()
        if args.corrupt == "campaign-record" and label == "warm 1":
            records = json.loads(canonical)
            records[0]["cycles"] += 1
            canonical = json.dumps(records)
        if canonical != reference:
            failures.append(f"campaign {label}: canonical JSON differs from the cold run")
        elif expect_resumed and result.resumed != result.size:
            failures.append(f"campaign {label}: {result.evaluated} point(s) re-evaluated")

    def phase(name: str):
        return tracer.span(f"phase.{name}") if tracer is not None else contextlib.nullcontext()

    cold_journal = _Journal("cold")
    with phase("cold"):
        cold, cold_s = _timed(
            workbench.run, spec, checkpoint=cold_journal.checkpoint,
            event_log=cold_journal.events,
        )
    reference = cold.to_json()
    journal_bytes = cold_journal.size()
    attempted += 1
    pinned = load_pins().get(pin_key(args.seed, args.tiny))
    if pinned is None:
        failures.append(f"no pinned digest for {pin_key(args.seed, args.tiny)}")
    elif digest(reference) != pinned:
        failures.append("campaign cold: canonical JSON differs from the pinned digest")

    # Warm reruns and resumes alternate, so both sample the same stretch of time.
    reruns = 3 if args.tiny else REPEATS
    warm: List[float] = []
    resumes: List[float] = []
    journal = _Journal("warm")
    for index in range(reruns):
        with phase("warm"):
            result, seconds = _timed(
                workbench.run, spec, checkpoint=journal.checkpoint, event_log=journal.events
            )
        journal.clear()
        warm.append(seconds)
        check(f"warm {index}", result, reference)
        with phase("resume"):
            result, seconds = _timed(workbench.run, spec, checkpoint=cold_journal.checkpoint)
        resumes.append(seconds)
        check(f"resume {index}", result, reference, expect_resumed=True)

    layers: Dict[str, float] = {"sweep.journal_bytes": journal_bytes}
    if tracer is not None:
        from layers import engine_hit_rates, layer_metrics
        from tracer import SpanTree

        warm_self = SpanTree(tracer.spans).exclusive("sweep", "phase.warm")
        layers.update(
            layer_metrics(tracer.spans, tracer.counts, job="phase.cold"),
            **engine_hit_rates([workbench.analytic_engine, get_backend("analytic").engine]),
            **{"sweep.self_ms": 1e3 * warm_self / reruns, "sweep.journal_bytes": journal_bytes},
        )
    out = {
        "attempted": attempted,
        "failures": failures,
        "values": {"setup_s": setup_s, "cold_s": cold_s},
        "times": {"cold": [cold_s], "warm": warm, "resume": resumes},
        "layers": layers,
    }
    if args.extras:
        out["layers"].update(_in_run_ab(args, workbench, spec))
    if args.first:
        # Runs last: the pool check empties the plan cache the phases shared.
        out["attempted"] += 1
        from repro.pipeline import clear_plan_cache

        clear_plan_cache()
        pooled, pool_s = _timed(Workbench(jobs=2).run, spec)
        if pooled.to_json() != reference:
            failures.append("campaign jobs=2: canonical JSON differs from the serial run")
        out["layers"]["sweep.pool_speedup"] = cold_s / pool_s
    cold_journal.clear()
    return out


def _in_run_ab(args, workbench, spec) -> Dict:
    """Same-process warm A/B pairs: journal cost and retry-machinery cost."""
    from repro.faults import RetryPolicy

    reruns = 3 if args.tiny else REPEATS
    journal = _Journal("ab")
    plain, journaled, single_attempt = [], [], []
    for _ in range(reruns):
        plain.append(_timed(workbench.run, spec)[1])
        journaled.append(_timed(
            workbench.run, spec, checkpoint=journal.checkpoint, event_log=journal.events
        )[1])
        journal.clear()
        single_attempt.append(_timed(
            workbench.run, spec, retry_policy=RetryPolicy(max_attempts=1)
        )[1])
    return {
        "sweep.journal_ms": 1e3 * (median(journaled) - median(plain)),
        "sweep.retry_penalty": median(single_attempt) / median(plain),
    }
