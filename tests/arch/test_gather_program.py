"""Differential test of the Smache front-end's per-centre gather program.

:class:`repro.arch.smache.SmacheFrontEnd` resolves, once per system, where
every operand of every centre comes from (window slot, static-buffer element
or constant) and how each window read is classified (register or BRAM).
This module keeps the per-access datapath it replaced, :func:`oracle_gather`
(the front-end's former ``_assemble_tuple``: kind checks, ``covers``, a scan
of the static buffers and one ``read`` per operand), and checks on generated
problems that a run through the program and a run through the oracle emit
the same tuples and count the same reads.
"""

from dataclasses import replace
from typing import List, Optional
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.arch.kernel import TupleData
from repro.arch.smache import SmacheFrontEnd
from repro.arch.static_buffer import StaticBufferHW
from repro.arch.system import SmacheSystem
from repro.core.boundary import BoundaryKind, BoundarySpec, EdgeBehaviour, ResolutionKind
from repro.core.config import SmacheConfig
from repro.core.grid import GridSpec
from repro.core.partition import StreamBufferMode
from repro.core.stencil import StencilShape
from repro.memory.dram import DRAMTiming
from repro.reference.stencil_exec import make_test_grid
from repro.sim.engine import SimulationError

TIMINGS = (
    None,
    DRAMTiming(random_access_cycles=3, read_latency=7),
    DRAMTiming(stream_word_cycles=2, read_latency=1, row_words=8, row_miss_penalty=2),
)


# --------------------------------------------------------------------------- #
# the oracle: the per-access datapath the gather program replaced
# --------------------------------------------------------------------------- #
def _static_covering(front_end: SmacheFrontEnd, linear: int) -> Optional[StaticBufferHW]:
    for s in front_end.statics:
        if s.covers(linear):
            return s
    return None


def oracle_gather(front_end: SmacheFrontEnd, centre: int) -> TupleData:
    """Gather the operand values for one centre element, one access at a time."""
    window_lo = front_end.plan.stream.window_lo
    window_hi = front_end.plan.stream.window_hi
    offsets = []
    values = []
    for acc in front_end.access_table[centre].accesses:
        if acc.kind is ResolutionKind.SKIPPED:
            continue
        if acc.kind is ResolutionKind.CONSTANT:
            offsets.append(acc.offset)
            values.append(float(acc.constant))
            continue
        target = acc.target
        stream_offset = target - centre
        if window_lo <= stream_offset <= window_hi and front_end.window.covers(target):
            value = front_end.window.read(target, front_end.cycle)
            front_end.window_hits += 1
        else:
            static = _static_covering(front_end, target)
            if static is None:
                raise SimulationError(
                    f"{front_end.name}: operand {target} of centre {centre} is served "
                    "neither by the window nor by any static buffer "
                    "(buffer plan is inconsistent with the access pattern)"
                )
            value = static.read(target)
            front_end.static_hits += 1
        offsets.append(acc.offset)
        values.append(value)
    return TupleData(index=centre, offsets=tuple(offsets), values=tuple(values))


# --------------------------------------------------------------------------- #
# generated problems
# --------------------------------------------------------------------------- #
@st.composite
def simulated_problems(draw):
    """1-3-D grids of at most ~40 cells (extent 1 included), offsets up to
    twice each extent, every edge kind on each side, reaches, Case-R/H/custom
    partitions, write-through on and off and DRAM timings."""
    ndim = draw(st.integers(1, 3))
    max_extent = {1: 12, 2: 7, 3: 4}[ndim]
    shape = tuple(draw(st.integers(1, max_extent)) for _ in range(ndim))
    offset = st.tuples(*(st.integers(-2 * e, 2 * e) for e in shape))
    offsets = draw(st.lists(offset, min_size=1, max_size=5, unique=True))
    kind = st.sampled_from(list(BoundaryKind))
    edges = tuple(EdgeBehaviour(low=draw(kind), high=draw(kind)) for _ in range(ndim))
    constant = draw(st.floats(-4, 4, allow_nan=False, width=32))
    mode = draw(st.sampled_from(list(StreamBufferMode)))
    config = SmacheConfig(
        grid=GridSpec(shape=shape, word_bytes=4),
        stencil=StencilShape.from_offsets(offsets),
        boundary=BoundarySpec(edges=edges, constant_value=constant),
        mode=mode,
        max_stream_reach=draw(st.sampled_from([None, 0, 1, 2, 4, 8])),
        register_elements=draw(st.integers(0, 6)) if mode is StreamBufferMode.CUSTOM else None,
    )
    options = dict(
        iterations=draw(st.integers(1, 2)),
        dram_timing=draw(st.sampled_from(TIMINGS)),
        write_through=draw(st.booleans()),
    )
    sabotage = dict(
        # Dropped static buffers: the plan no longer serves every operand, and
        # both datapaths must fail at the same centre.
        statics=draw(st.lists(st.integers(0, 7), max_size=2, unique=True)),
        # Dropped taps: the window still covers those offsets, but their
        # positions are no longer registers, so the reads go to BRAM.
        taps=draw(st.lists(st.integers(0, 7), max_size=3, unique=True)),
    )
    return config, options, sabotage


def sabotaged(plan, statics=(), taps=()):
    """``plan`` without the static buffers and window taps at these indices."""
    if statics:
        plan = replace(
            plan, statics=tuple(s for i, s in enumerate(plan.statics) if i not in statics)
        )
    lookup = plan.lookup_offsets()
    gone = {lookup[i % len(lookup)] for i in taps} if lookup else set()
    if gone:
        plan = replace(
            plan,
            range_plans=tuple(
                rp._replace(kept_offsets=tuple(o for o in rp.kept_offsets if o not in gone))
                for rp in plan.range_plans
            ),
        )
    return plan


class _Run:
    """Everything one run emitted and counted."""

    def __init__(self, config, options, sabotage, gather) -> None:
        plan = sabotaged(config.plan(), **sabotage)
        self.tuples: List[TupleData] = []
        self.error: Optional[str] = None
        system = SmacheSystem(
            config, plan=plan, partition=config.partition(), **options
        )
        system.load_input(make_test_grid(config.grid))

        def recording(front_end, centre):
            data = gather(front_end, centre)
            self.tuples.append(data)
            return data

        with mock.patch.object(SmacheFrontEnd, "_gather", recording):
            try:
                result = system.run()
                self.output = result.output
                self.cycles = result.cycles
            except SimulationError as exc:
                self.error = str(exc)
                self.output, self.cycles = None, system.sim.cycle
        fe = system.front_end
        self.counts = {
            "window_hits": fe.window_hits,
            "static_hits": fe.static_hits,
            "window_register_reads": system.stats.get("window_register_reads"),
            "window_bram_reads": system.stats.get("window_bram_reads"),
            "max_bram_reads_per_cycle": fe.window.max_bram_reads_per_cycle,
            "max_register_reads_per_cycle": fe.window.max_register_reads_per_cycle,
            "static_reads": [s.reads for s in fe.statics],
            "counters": sorted(system.stats.counters().items()),
        }


def assert_program_matches_oracle(config, options, sabotage=None) -> _Run:
    program = _Run(config, options, sabotage or {}, SmacheFrontEnd._gather)
    oracle = _Run(config, options, sabotage or {}, oracle_gather)
    assert program.tuples == oracle.tuples
    assert program.counts == oracle.counts
    assert program.error == oracle.error
    assert program.cycles == oracle.cycles
    if oracle.output is not None:
        assert np.array_equal(program.output, oracle.output)
    return program


@given(simulated_problems())
@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_gather_program_matches_the_per_access_oracle(problem):
    config, options, sabotage = problem
    try:
        config.partition()
    except ValueError:
        assume(False)  # unplannable (a reach the stencil cannot meet, a bad partition)
    assert_program_matches_oracle(config, options, sabotage)


@pytest.mark.parametrize(
    "config, options",
    [
        (SmacheConfig.paper_example(11, 11), {"iterations": 2}),
        (SmacheConfig.paper_example(9, 9, max_stream_reach=2), {"iterations": 2}),
        (SmacheConfig.paper_example(8, 8), {"iterations": 2, "write_through": False}),
        (SmacheConfig.periodic_2d(6, 7, mode=StreamBufferMode.REGISTER_ONLY), {"iterations": 2}),
    ],
)
def test_fixed_cases_match_the_oracle(config, options):
    run = assert_program_matches_oracle(config, options)
    assert run.error is None
    assert run.tuples


def test_sabotaged_taps_read_from_bram():
    """A well-planned system reads the window from registers only (the
    paper's claim); dropping taps from the plan turns reads into BRAM reads,
    which is what exercises the register/BRAM classification above."""
    config = SmacheConfig.paper_example(7, 7)
    honest = assert_program_matches_oracle(config, {"iterations": 1})
    assert honest.counts["window_bram_reads"] == 0
    assert honest.counts["static_hits"] > 0
    run = assert_program_matches_oracle(config, {"iterations": 1}, {"taps": [0, 2]})
    assert run.counts["window_bram_reads"] > 0
    assert run.counts["max_bram_reads_per_cycle"] >= 1
