"""The layers of the program, where they are traced, and their metrics.

:func:`install` wraps each layer's public entry points with a
:class:`tracer.Tracer`; :func:`layer_metrics` turns the recorded spans into
the per-layer metrics.  Every workload reports every metric: a layer the
workload never calls reads 0, which is the prediction for it (README.md has
the layer -> metric -> workload map).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from tracer import Span, SpanTree, Tracer, import_program

EXPERIMENTS = (
    "figure2", "table1", "resources", "hybrid", "analytic",
    "ablation-writethrough", "ablation-dram", "ablation-planner",
)

#: Per-layer metric -> unit, in report order.
LAYER_UNITS: Dict[str, str] = {
    # compile front end
    "compile.builds": "count",
    "compile.s": "s",
    "compile.ms_per_build": "ms",
    "compile.cache_hit_rate": "ratio",
    "ranges.calls": "count",
    "ranges.s": "s",
    "ranges.calls_per_build": "ratio",
    "planner.s": "s",
    "synthesis.s": "s",
    "boundary.resolve_calls": "count",
    # analytic backends
    "analytic.points": "count",
    "analytic.us_per_point": "us",
    "analytic.fast_lane_share": "ratio",
    "analytic.session_hit_rate": "ratio",
    "analytic.fold_hit_rate": "ratio",
    # simulator
    "sim.runs": "count",
    "sim.s": "s",
    "sim.cycles": "cycles",
    "sim.cycles_per_s": "cycles/s",
    "sim.smache.cycles_per_s": "cycles/s",
    "sim.baseline.cycles_per_s": "cycles/s",
    "sim.skip_ratio": "ratio",
    "sim.component_ticks": "count",
    # reference executor
    "reference.calls": "count",
    "reference.s": "s",
    "reference.cells_per_s": "cells/s",
    # runner / bus / journal
    "sweep.points": "count",
    "sweep.self_ms": "ms",
    "sweep.events": "count",
    "sweep.key_calls_per_point": "ratio",
    "sweep.journal_ms": "ms",
    "sweep.journal_bytes": "bytes",
    "sweep.retry_penalty": "ratio",
    "sweep.pool_speedup": "ratio",
    # serve
    "serve.server_p50_ms": "ms",
    "serve.server_p99_ms": "ms",
    "serve.outside_p50_ms": "ms",
    "serve.protocol_us": "us",
    "serve.batch_mean": "count",
    "serve.flushes": "count",
    "serve.memo_hit_rate": "ratio",
    "serve.plan_builds": "count",
    "serve.repeat_share": "ratio",
    "serve.price_share": "ratio",
    "serve.cold_share": "ratio",
    "serve.rejected": "count",
    "serve.timeouts": "count",
    "serve.shed": "count",
    "serve.gen_late_ms": "ms",
    "serve.max_rps": "1/s",
    "serve.client_p99_ms": "ms",
    # interpreter: full (generation-2) garbage collections, which stop the world
    "gc.gen2_collections": "count",
    "gc.gen2_ms": "ms",
    # experiment harness
    **{f"eval.{name}_s": "s" for name in EXPERIMENTS},
    # where the traced job's wall time went (self time / job wall time)
    "share.compile_pct": "%",
    "share.analytic_pct": "%",
    "share.sim_pct": "%",
    "share.reference_pct": "%",
    "share.sweep_pct": "%",
    "share.eval_pct": "%",
    "share.gc_pct": "%",
    "trace.covered_pct": "%",
    "trace.overhead_pct": "%",
}

#: Span names of each layer (self times of these add up to the layer's time).
LAYER_SPANS = {
    "compile": ("compile", "compile.build", "ranges", "planner", "synthesis"),
    "analytic": ("analytic.scalar", "analytic.many", "analytic.price", "analytic.price_batch"),
    "sim": ("sim",),
    "reference": ("reference",),
    "sweep": ("sweep", "backend.many", "backend.cost", "backend.hdl"),
    "eval": tuple(f"eval.{name}" for name in EXPERIMENTS),
    "gc": ("gc.gen2",),
}
FAST_LANE = ("analytic.price", "analytic.price_batch")


def _items(n_of):
    """on_result hook storing a work-item count on the span."""

    def hook(tracer: Tracer, span: Span, args: tuple, kwargs: dict, result: Any) -> None:
        span[4] = n_of(args, kwargs, result)

    return hook


def _sim_result(tracer: Tracer, span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span[4] = 1
    counts, system = tracer.counts, result.system
    counts["sim.cycles"] += result.cycles
    counts[f"sim.{system}.cycles"] += result.cycles
    counts[f"sim.{system}.s"] += span[3] - span[2]
    counts["sim.ticks_executed"] += result.perf.get("sim_ticks_executed", 0)
    counts["sim.cycles_skipped"] += result.perf.get("sim_cycles_skipped", 0)
    counts["sim.component_ticks"] += result.perf.get("sim_component_ticks", 0)


def _cells(args: tuple, kwargs: dict, result: Any) -> int:
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    iterations = args[5] if len(args) > 5 else kwargs.get("iterations", 1)
    return grid.size * iterations


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point named in README.md."""
    import_program()
    from repro.api.workbench import Workbench
    from repro.core.boundary import BoundarySpec
    from repro.pipeline.analytic_batch import AnalyticBatchEngine
    from repro.pipeline.backends import (
        AnalyticBackend, Backend, CostBackend, HdlBackend, SimulateBackend,
    )
    from repro.sweep.spec import SweepPoint

    one = _items(lambda a, k, r: 1)
    tracer.wrap_function("repro.pipeline.compile", "compile", "compile", one)
    tracer.wrap_function(
        "repro.pipeline.compile", "compile_batch", "compile", _items(lambda a, k, r: len(r))
    )
    tracer.wrap_function("repro.pipeline.compile", "_build", "compile.build")
    tracer.wrap_function("repro.core.ranges", "partition_into_ranges", "ranges")
    tracer.wrap_function("repro.core.planner", "plan_buffers", "planner")
    tracer.wrap_function("repro.fpga.synthesis", "synthesize_smache", "synthesis")
    tracer.wrap_method(BoundarySpec, "resolve", "boundary.resolve", count_only=True)

    n_results = _items(lambda a, k, r: len(r))
    tracer.wrap_method(AnalyticBackend, "evaluate", "analytic.scalar", one)
    tracer.wrap_method(AnalyticBackend, "evaluate_many", "analytic.many", n_results)
    tracer.wrap_method(AnalyticBatchEngine, "price", "analytic.price", n_results)
    tracer.wrap_method(AnalyticBatchEngine, "price_batch", "analytic.price_batch", n_results)
    tracer.wrap_method(Backend, "evaluate_many", "backend.many", n_results)
    tracer.wrap_method(CostBackend, "evaluate", "backend.cost", one)
    tracer.wrap_method(HdlBackend, "evaluate", "backend.hdl", one)
    tracer.wrap_method(SimulateBackend, "evaluate", "sim", _sim_result)

    for name in ("reference_run", "reference_step", "reference_step_scalar"):
        tracer.wrap_function("repro.reference.stencil_exec", name, "reference", _items(_cells))

    tracer.wrap_method(Workbench, "run", "sweep", _items(lambda a, k, r: r.size))
    tracer.wrap_method(SweepPoint, "key", "sweep.key", count_only=True)
    tracer.trace_gc("gc.gen2")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans, counts: Dict[str, float], job: Optional[str] = None, window: Optional[tuple] = None
) -> Dict[str, float]:
    """Per-layer metrics from a span dump.

    ``job`` names the phase span whose wall time the ``share.*`` metrics
    divide by (the workload's cold job); ``window`` restricts everything to
    spans starting in a monotonic-clock interval (the serve measurement
    window) and is then the denominator itself.
    """
    tree = SpanTree(spans, window)
    m = {name: 0.0 for name in LAYER_UNITS}
    builds = tree.count("compile.build")
    m["compile.builds"] = builds
    m["compile.s"] = tree.inclusive("compile")
    m["compile.ms_per_build"] = 1e3 * _ratio(tree.inclusive("compile.build"), builds)
    lookups = tree.items("compile")
    m["compile.cache_hit_rate"] = _ratio(lookups - builds, lookups) if lookups >= builds else 0.0
    m["ranges.calls"] = tree.count("ranges")
    m["ranges.s"] = tree.inclusive("ranges")
    m["ranges.calls_per_build"] = _ratio(m["ranges.calls"], builds)
    m["planner.s"] = tree.inclusive("planner")
    m["synthesis.s"] = tree.inclusive("synthesis")
    m["boundary.resolve_calls"] = counts.get("boundary.resolve", 0)

    fast = tree.items(FAST_LANE)
    scalar = sum(
        1 for i in tree.select("analytic.scalar")
        if not any(tree.spans[a][0] in FAST_LANE for a in tree.ancestors(i))
    )
    m["analytic.points"] = fast + scalar
    m["analytic.us_per_point"] = 1e6 * _ratio(
        tree.exclusive(LAYER_SPANS["analytic"]), fast + scalar
    )
    m["analytic.fast_lane_share"] = _ratio(fast, fast + scalar)

    m["sim.runs"] = tree.count("sim")
    m["sim.s"] = tree.inclusive("sim")
    m["sim.cycles"] = counts.get("sim.cycles", 0)
    m["sim.cycles_per_s"] = _ratio(m["sim.cycles"], m["sim.s"])
    for system in ("smache", "baseline"):
        m[f"sim.{system}.cycles_per_s"] = _ratio(
            counts.get(f"sim.{system}.cycles", 0), counts.get(f"sim.{system}.s", 0)
        )
    ticked = counts.get("sim.ticks_executed", 0) + counts.get("sim.cycles_skipped", 0)
    m["sim.skip_ratio"] = _ratio(counts.get("sim.cycles_skipped", 0), ticked)
    m["sim.component_ticks"] = counts.get("sim.component_ticks", 0)

    m["reference.calls"] = tree.count("reference")
    m["reference.s"] = tree.inclusive("reference")
    m["reference.cells_per_s"] = _ratio(tree.items("reference"), m["reference.s"])

    m["sweep.points"] = tree.items("sweep")
    m["sweep.key_calls_per_point"] = _ratio(counts.get("sweep.key", 0), m["sweep.points"])
    m["sweep.events"] = counts.get("sweep.events", 0)

    for name in EXPERIMENTS:
        m[f"eval.{name}_s"] = tree.inclusive(f"eval.{name}", job)
    m["gc.gen2_collections"] = tree.count("gc.gen2")
    m["gc.gen2_ms"] = 1e3 * tree.inclusive("gc.gen2")

    if window is not None:
        wall, phase = window[1] - window[0], None
    else:
        wall, phase = (tree.inclusive(job) if job else 0.0), job
    for layer, names in LAYER_SPANS.items():
        m[f"share.{layer}_pct"] = 100 * _ratio(tree.exclusive(names, phase), wall)
    m["trace.covered_pct"] = sum(m[f"share.{layer}_pct"] for layer in LAYER_SPANS)
    return m


def engine_hit_rates(engines) -> Dict[str, float]:
    """Packed-session and fold-memo hit rates summed over pricing engines."""
    infos = [engine.cache_info() for engine in engines]
    session_hits = sum(i.session_hits for i in infos)
    session = session_hits + sum(i.session_misses for i in infos)
    fold_hits = sum(i.fold_hits for i in infos)
    fold = fold_hits + sum(i.fold_misses for i in infos)
    return {
        "analytic.session_hit_rate": _ratio(session_hits, session),
        "analytic.fold_hit_rate": _ratio(fold_hits, fold),
    }
