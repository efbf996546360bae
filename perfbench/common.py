"""Shared plumbing of the benchmark: paths, host identity, statistics, output.

Everything here is stdlib only, so ``run.py`` can check the checkout before
it imports a line of the program under test.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

#: The benchmark directory and the checkout root it lives in.
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Scratch space for journals, span dumps and server logs (git-ignored).
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
PINS_DIR = os.path.join(BENCH_DIR, "pins")

#: End-to-end metrics: every workload reports every one (see README.md).
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "cold_s": "s",
    "warm_ms": "ms",
    "tail_ms": "ms",
}


class SourceMissing(RuntimeError):
    """The checkout holds no program to benchmark."""


def require_source() -> None:
    """Refuse to run unless the checkout carries the package's source tree."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SourceMissing(f"no program source under {SRC!r}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> Dict[str, str]:
    """Environment for the processes the benchmark starts: this checkout's src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("REPRO_ANALYTIC_BATCH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def work_path(*parts: str) -> str:
    """A path under the scratch directory (parents created)."""
    path = os.path.join(WORK_DIR, *parts)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    return path


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (VmHWM) of another live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in [0, 1]) of unsorted values."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(0, min(len(ordered) - 1, int(round(fraction * len(ordered) + 0.5)) - 1))
    return float(ordered[rank])


def run_json(argv: List[str], timeout: float) -> Dict:
    """Run one benchmark-internal child to completion; parse its JSON result line."""
    proc = subprocess.run(
        argv, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{' '.join(argv[1:3])} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest() -> str:
    """Content digest of the program source (the checkout is not a git repo)."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def host_identity() -> Dict[str, str]:
    """Enough to tell two hosts apart: cores, CPU model, interpreter, NumPy, source."""
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    import numpy

    return {
        "nproc": str(len(os.sched_getaffinity(0))),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit or "src-" + source_digest(),
    }


@dataclass
class Outcome:
    """What one workload run produced.

    ``e2e`` carries the five contract metrics, ``layers`` the traced per-layer
    metrics, ``named`` the workload's own figures under their descriptive names
    (``paper_s``, ``serve_p99_ms``, ...) as ``(value, unit)``.
    """

    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    e2e: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    named: Dict[str, tuple] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def merge_worker(self, result: Dict) -> None:
        self.attempted += result["attempted"]
        self.failures.extend(result["failures"])


def monotonic() -> float:
    """The clock shared by every process on the host (CLOCK_MONOTONIC)."""
    return time.monotonic()


def emit_result(outcome: Outcome, trace: bool, layer_units: Dict[str, str]) -> int:
    """Print the contract's final JSON line; returns the process exit code."""
    correct = not outcome.failures
    metrics: Dict[str, Dict[str, object]] = {}
    if correct:
        source, units = (outcome.layers, layer_units) if trace else (outcome.e2e, E2E_UNITS)
        missing = sorted(set(units) - set(source))
        if missing:
            raise RuntimeError(f"metrics not measured: {missing}")
        metrics = {name: {"value": float(source[name]), "unit": units[name]} for name in units}
    print(json.dumps({
        "correct": correct,
        "attempted": max(outcome.attempted, 1),
        "failed": len(outcome.failures),
        "metrics": metrics,
    }))
    sys.stdout.flush()
    return 0 if correct else 1
