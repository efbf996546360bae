"""Golden whole-run digests: everything a simulated run reports, pinned.

Each configuration below is run under every engine and reduced to one SHA-256
digest of everything the run reports: the result's cycles, per-instance
cycles, traffic, operations and ``extra``; the scheduler's ``run_stats()``
(without its ``engine`` name); ``channel_stats()``; every FSM's occupancy,
transition count and history; the ``StatsCollector`` counters; the
per-component counters (static-buffer reads/writes/swaps, kernel busy/stall
cycles, DRAM busy cycles and row misses, ...); and the output grid's bytes.

The pinned digests in ``golden_digests.json`` were recorded before the
simulator's per-cycle cost was cut (slotted channel records, the per-centre
gather program, loop-free commits, the one-cycle scheduler path).  Any
change to what the simulator computes or counts moves a digest, so a
performance change must reproduce every one of them bit for bit.  Never
re-record the file to make this test pass: a moved digest is a behaviour
change, and the fix belongs in the simulator.

Run ``python tests/arch/test_golden_digest.py --print`` to print the digests
of the program on ``PYTHONPATH``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict

import pytest

from repro.arch.system import BaselineSystem, SmacheSystem
from repro.core.boundary import BoundaryKind, BoundarySpec
from repro.core.config import SmacheConfig
from repro.core.grid import GridSpec
from repro.core.partition import StreamBufferMode
from repro.core.stencil import StencilShape
from repro.memory.dram import DRAMTiming
from repro.reference.stencil_exec import make_test_grid

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_digests.json")
ENGINES = ("fast", "naive", "debug")
SLOW_DRAM = DRAMTiming(
    stream_word_cycles=2, random_access_cycles=7, read_latency=40, row_words=16,
    row_miss_penalty=3,
)


def _kinds(*kinds, constant=0.0):
    return BoundarySpec.per_dimension(kinds, constant_value=constant)


def _config(shape, stencil, boundary, **kwargs):
    return SmacheConfig(
        grid=GridSpec(shape=shape, word_bytes=4), stencil=stencil, boundary=boundary, **kwargs
    )


#: name -> (config, iterations, run options).  Both systems run every
#: configuration, except that write-through only exists in Smache.
CONFIGS = {
    "paper-11x11": (SmacheConfig.paper_example(11, 11), 3, {}),
    "asymmetric-20x24": (
        _config((20, 24), StencilShape.asymmetric_2d(), BoundarySpec.paper_2d()), 2, {},
    ),
    "clamp-9x9-case-r": (
        _config((9, 9), StencilShape.five_point_2d(),
                _kinds(BoundaryKind.CLAMP, BoundaryKind.CLAMP),
                mode=StreamBufferMode.REGISTER_ONLY),
        3, {},
    ),
    "circular-8x10": (SmacheConfig.periodic_2d(8, 10), 3, {}),
    "constant-9x7-reach-2": (
        _config((9, 7), StencilShape.four_point_2d(),
                _kinds(BoundaryKind.CONSTANT, BoundaryKind.MIRROR, constant=1.5),
                max_stream_reach=2),
        3, {},
    ),
    "open-3d-4x5x6": (
        _config((4, 5, 6), StencilShape.von_neumann(3), BoundarySpec.all_open(3)), 2, {},
    ),
    "paper-11x11-no-write-through": (
        SmacheConfig.paper_example(11, 11), 3, {"write_through": False},
    ),
    "paper-9x11-slow-dram": (SmacheConfig.paper_example(9, 11), 3, {"dram_timing": SLOW_DRAM}),
}

CASES = [
    (name, system)
    for name, (_, _, options) in CONFIGS.items()
    for system in ("smache", "baseline")
    if system == "smache" or "write_through" not in options
]


def _fsm_report(fsm) -> Dict:
    return {
        "state": fsm.state,
        "occupancy": fsm.occupancy(),
        "transitions": fsm.transition_count,
        "history": fsm.history,
    }


def run_report(name: str, system: str, engine: str) -> Dict:
    """Everything one run reports, as plain JSON-able values."""
    config, iterations, options = CONFIGS[name]
    if system == "smache":
        sys_obj = SmacheSystem(config, iterations=iterations, engine=engine, **options)
    else:
        sys_obj = BaselineSystem(config, iterations=iterations, engine=engine, **options)
    sys_obj.load_input(make_test_grid(config.grid))
    result = sys_obj.run()
    run_stats = dict(result.engine_stats)
    assert run_stats.pop("engine") == engine
    dram = sys_obj.dram
    report = {
        "cycles": result.cycles,
        "instance_cycles": result.instance_cycles,
        "traffic": [result.dram_words_read, result.dram_words_written, result.dram_bytes],
        "operations": result.operations,
        "extra": sorted(result.extra.items()),
        "run_stats": sorted(run_stats.items()),
        "channel_stats": sorted(sys_obj.sim.channel_stats().items()),
        "dram": [
            dram.busy_cycles, dram.row_misses, dram.sequential_accesses,
            dram.random_accesses, dram.writes_completed,
        ],
        "output": hashlib.sha256(result.output.tobytes()).hexdigest(),
    }
    if system == "smache":
        fe = sys_obj.front_end
        report["fsms"] = [
            _fsm_report(f)
            for f in (fe.fsm_prefetch, fe.fsm_gather, fe.fsm_writeback, sys_obj.sequencer.fsm)
        ]
        report["counters"] = sorted(sys_obj.stats.counters().items())
        report["front_end"] = [
            fe.tuples_emitted, fe.window_hits, fe.static_hits, fe.emit_stall_cycles,
            fe.input_starved_cycles, fe.window.max_bram_reads_per_cycle,
            fe.window.max_register_reads_per_cycle,
        ]
        report["statics"] = [
            [s.reads, s.writes, s.swaps, s.prefetched_words] for s in fe.statics
        ]
        kernel = sys_obj.kernel
        report["kernel"] = [
            kernel.tuples_processed, kernel.operations, kernel.busy_cycles, kernel.stall_cycles,
        ]
        report["shell"] = [
            sys_obj.read_master.words_requested, sys_obj.router.routed_stream,
            sys_obj.router.routed_prefetch, sys_obj.writeback.results_written,
            sys_obj.sequencer.instance_start_cycles, sys_obj.sequencer.instance_end_cycles,
        ]
    else:
        master = sys_obj.master
        report["counters"] = sorted(master.stats.counters().items())
        report["master"] = [master.points_completed, master.operations]
    return report


def digest(report: Dict) -> str:
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def all_digests() -> Dict[str, str]:
    return {
        f"{name}/{system}/{engine}": digest(run_report(name, system, engine))
        for name, system in CASES
        for engine in ENGINES
    }


def _pins() -> Dict[str, str]:
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh)


def test_every_case_is_pinned():
    expected = {f"{n}/{s}/{e}" for n, s in CASES for e in ENGINES}
    assert set(_pins()) == expected


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name,system", CASES)
def test_run_reproduces_its_golden_digest(name, system, engine):
    assert digest(run_report(name, system, engine)) == _pins()[f"{name}/{system}/{engine}"]


if __name__ == "__main__":  # pragma: no cover - pin inspection aid
    if sys.argv[1:] != ["--print"]:
        sys.exit("usage: python tests/arch/test_golden_digest.py --print")
    print(json.dumps(all_digests(), indent=1, sort_keys=True))
