"""The benchmark's own tests: every metric is emitted, bad outputs fail the run.

    python3 -m pytest perfbench/tests -q

Runs each workload at its tiny size (``--tiny``), in both modes, as a
subprocess exactly as the benchmark command does.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from common import E2E_UNITS, ROOT, require_source
from layers import LAYER_UNITS

require_source()


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["paper", "campaign", "serve"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = result_line(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    units = LAYER_UNITS if trace == "1" else E2E_UNITS
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert '"nproc"' in proc.stdout and '"cpu_model"' in proc.stdout


@pytest.mark.parametrize(
    "workload, corruption",
    [("campaign", "campaign-record"), ("serve", "served-payload")],
)
def test_a_corrupted_output_fails_the_run(workload, corruption):
    proc = bench("--workload", workload, "--trace", "0", "--tiny", "--corrupt", corruption)
    assert proc.returncode != 0
    result = result_line(proc)
    assert result["correct"] is False and result["failed"] >= 1
    assert result["metrics"] == {}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = bench("--workload", "paper", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_lists_the_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == ["paper", "campaign", "serve"]


def test_e5_speedup_column_is_masked():
    from paper import mask

    text = (
        "     config  iters  speedup\n"
        "-----------  -----  -------\n"
        "paper-11x11     30    2385x\n"
        "worst cycle error: 0.16%"
    )
    faster = text.replace("2385x", "12001x")
    assert mask("analytic", text) == mask("analytic", faster)
    assert "2385x" not in mask("analytic", text)
    assert mask("table1", text) == text


def test_campaign_shapes_follow_the_seed():
    from campaign import BENCH_COLS, BENCH_ROWS, grid_sizes

    assert grid_sizes(0, tiny=False) == tuple((r, c) for r in BENCH_ROWS for c in BENCH_COLS)
    assert grid_sizes(7, tiny=False) == grid_sizes(107, tiny=False)
    assert grid_sizes(7, tiny=False) != grid_sizes(8, tiny=False)
    assert len(set(grid_sizes(7, tiny=False))) == 24


def test_self_time_is_duration_minus_children():
    from tracer import SpanTree

    spans = [
        ["phase.cold", -1, 0.0, 10.0, 0],
        ["sweep", 0, 1.0, 9.0, 240],
        ["compile", 1, 2.0, 5.0, 1],
        ["compile", 2, 3.0, 4.0, 1],  # re-entrant: not counted twice inclusively
        ["analytic.price", 1, 6.0, 7.0, 240],
    ]
    tree = SpanTree(spans)
    assert tree.self_time(1) == pytest.approx(4.0)
    assert tree.inclusive("compile") == pytest.approx(3.0)
    assert tree.exclusive(("compile",)) == pytest.approx(3.0)
    assert tree.exclusive(("sweep",), "phase.cold") == pytest.approx(4.0)
    assert tree.items("analytic.price") == 240
    assert SpanTree(spans, window=(5.5, 10.0)).count("analytic.price") == 1


def test_wrapping_reaches_names_bound_by_callers():
    import importlib

    from tracer import Tracer

    backends = importlib.import_module("repro.pipeline.backends")
    # the package re-exports the function under the submodule's name
    compile_module = importlib.import_module("repro.pipeline.compile")

    tracer = Tracer()
    original = compile_module.compile
    tracer.wrap_function("repro.pipeline.compile", "compile", "compile")
    try:
        # backends.py binds it as ``compile_problem``
        assert backends.compile_problem is compile_module.compile is not original
    finally:
        tracer.close()
    assert compile_module.compile is original and backends.compile_problem is original
