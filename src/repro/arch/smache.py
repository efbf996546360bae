"""The Smache front-end: window buffer + static buffers + controller FSMs.

This is the cycle-accurate model of the module inside the dotted rectangle of
the paper's Fig. 1(b).  It sits between the DRAM read stream and the
computation kernel and is controlled by three concurrent FSMs, exactly as in
the paper:

* **FSM-1 (prefetch)** — during warm-up (first work-instance only) it fills
  the static buffers' read banks from the prefetch stream;
* **FSM-2 (gather/emit)** — accepts one stream word per cycle into the window
  buffer and, once the look-ahead is satisfied, assembles one stencil tuple
  per cycle from the window, the static buffers and the boundary rules, and
  emits it to the kernel;
* **FSM-3 (write-back)** — watches the kernel results and writes the ones
  falling inside a static buffer's coverage through into its write bank, so
  the next work-instance finds its boundary data on chip.

Static buffers are double buffered and swapped by
:meth:`SmacheFrontEnd.end_work_instance`, which the work sequencer calls at
the end of every work-instance.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.arch.access_table import AccessTable
from repro.arch.kernel import KernelResult, TupleData
from repro.arch.static_buffer import StaticBufferHW
from repro.arch.stream_buffer import WindowBuffer
from repro.core.boundary import ResolutionKind
from repro.core.buffers import BufferPlan
from repro.core.partition import HybridPartition
from repro.sim.channel import Channel
from repro.sim.engine import Component, SimulationError, Simulator
from repro.sim.fsm import FSM
from repro.sim.stats import StatsCollector
from repro.sim.trace import TraceLog


class _GatherStep(NamedTuple):
    """How one centre's tuple is assembled (see ``_build_gather_program``)."""

    offsets: Tuple[Tuple[int, ...], ...]        # grid offsets of the operands
    sources: Tuple[Tuple[int, int], ...]        # (bank, index) of each operand
    register_reads: int
    bram_reads: int
    static_reads: Tuple[Tuple[StaticBufferHW, int], ...]  # (buffer, reads)


class SmacheFrontEnd(Component):
    """Cycle-accurate model of the Smache smart-caching module."""

    def __init__(
        self,
        sim: Simulator,
        plan: BufferPlan,
        partition: Optional[HybridPartition] = None,
        access_table: Optional[AccessTable] = None,
        name: str = "smache",
        stats: Optional[StatsCollector] = None,
        trace: Optional[TraceLog] = None,
        write_through: bool = True,
    ) -> None:
        super().__init__(sim, name)
        self.plan = plan
        self.grid = plan.grid
        #: When False (ablation), kernel results are not written through into
        #: the static buffers and every work-instance re-prefetches them.
        self.write_through = write_through
        self.stats = stats or StatsCollector(name)
        self.trace = trace or TraceLog(enabled=False)
        self.access_table = access_table or AccessTable(
            plan.grid, plan.stencil, plan.boundary
        )

        taps = [o for o in plan.lookup_offsets() if o != 0]
        self.window = WindowBuffer(
            plan.stream, partition=partition, tap_offsets=taps, stats=self.stats
        )
        self.statics: List[StaticBufferHW] = [StaticBufferHW(s) for s in plan.statics]

        # channels
        self.stream_in: Channel = self.channel("stream_in", 2)
        self.prefetch_in: Channel = self.channel("prefetch_in", 2)
        self.result_in: Channel = self.channel("result_in", 2)
        self.tuple_out: Channel = self.channel("tuple_out", 2)

        # controller FSMs
        self.fsm_prefetch = FSM("fsm1-prefetch", ["IDLE", "FILL", "DONE"], "IDLE")
        self.fsm_gather = FSM("fsm2-gather", ["IDLE", "WAIT", "RUN", "DONE"], "IDLE")
        self.fsm_writeback = FSM("fsm3-writeback", ["RUN"], "RUN")

        # per-work-instance state
        self._n = self.grid.size
        self._received = 0
        self._emitted = 0
        self._work_instance = -1
        self._prefetch_buffer_idx = 0
        self._active = False

        # statistics
        self.tuples_emitted = 0
        self.static_hits = 0
        self.window_hits = 0
        self.emit_stall_cycles = 0
        self.input_starved_cycles = 0

        self._build_gather_program()
        self._bind_banks()

    # ------------------------------------------------------------------ #
    # control interface (driven by the work sequencer)
    # ------------------------------------------------------------------ #
    @property
    def needs_prefetch(self) -> bool:
        """True when the warm-up prefetch has not completed yet."""
        return bool(self.statics) and not all(s.prefetch_complete for s in self.statics)

    def start_work_instance(self, work_instance: int) -> None:
        """Begin streaming work-instance ``work_instance``."""
        self._work_instance = work_instance
        self._received = 0
        self._emitted = 0
        self._active = True
        self.window.reset()
        self._bind_banks()
        needs_fill = bool(self.statics) and (work_instance == 0 or not self.write_through)
        if needs_fill and not self.write_through and work_instance > 0:
            for s in self.statics:
                s.begin_prefetch()
            self._prefetch_buffer_idx = 0
        if needs_fill:
            self.fsm_prefetch.go("FILL", self.cycle)
            self.fsm_gather.go("WAIT", self.cycle)
        else:
            self.fsm_prefetch.go("DONE", self.cycle)
            self.fsm_gather.go("RUN", self.cycle)
        self.trace.record(self.cycle, self.name, "start_work_instance", work_instance)

    def end_work_instance(self) -> None:
        """Swap static-buffer banks at the end of a work-instance."""
        if self.write_through:
            for s in self.statics:
                s.swap()
        self._active = False
        self.fsm_gather.go("DONE", self.cycle)
        self.trace.record(self.cycle, self.name, "end_work_instance", self._work_instance)

    @property
    def emitted(self) -> int:
        """Tuples emitted in the current work-instance."""
        return self._emitted

    @property
    def work_instance(self) -> int:
        """Index of the current work-instance (-1 before the first)."""
        return self._work_instance

    def finished(self) -> bool:
        return not self._active or self._emitted >= self._n

    # ------------------------------------------------------------------ #
    # FSM-2 datapath: the per-centre gather program
    # ------------------------------------------------------------------ #
    def _build_gather_program(self) -> None:
        """Resolve, once per system, where every operand of every centre
        comes from.

        A tuple is emitted exactly when the window head is ``centre +
        window_hi`` (the window is kept aligned with the emission point), so
        the window contents at that moment, and therefore each operand's
        source, depend on the centre alone: a window slot (a register or a
        BRAM position), a static-buffer element or a constant.  Each centre
        gets a :class:`_GatherStep` whose ``sources`` index :attr:`_banks`
        (0 the window ring, ``1 + i`` static buffer ``i``'s read bank, last
        the constants).  A centre with an operand that neither buffer serves
        gets ``None``; emitting it raises, at simulation time.
        """
        window = self.window
        window_lo = self.plan.stream.window_lo
        window_hi = self.plan.stream.window_hi
        constants: List[float] = []
        const_bank = 1 + len(self.statics)
        program: List[Optional[_GatherStep]] = []
        unserved: Dict[int, int] = {}
        for centre in range(self._n):
            head = centre + window_hi
            oldest = max(0, head - window.depth + 1)
            offsets = []
            sources = []
            registers = bram = 0
            static_reads: Dict[StaticBufferHW, int] = {}
            for acc in self.access_table[centre].accesses:
                if acc.kind is ResolutionKind.SKIPPED:
                    continue
                offsets.append(acc.offset)
                if acc.kind is ResolutionKind.CONSTANT:
                    sources.append((const_bank, len(constants)))
                    constants.append(float(acc.constant))
                    continue
                target = acc.target
                if window_lo <= target - centre <= window_hi and oldest <= target <= head:
                    sources.append((0, window.slot(target)))
                    if window.is_register(head - target):
                        registers += 1
                    else:
                        bram += 1
                    continue
                for i, static in enumerate(self.statics):
                    if static.covers(target):
                        sources.append((1 + i, target - static.spec.start))
                        static_reads[static] = static_reads.get(static, 0) + 1
                        break
                else:
                    unserved[centre] = target
                    break
            if centre in unserved:
                program.append(None)
                continue
            program.append(_GatherStep(
                tuple(offsets), tuple(sources), registers, bram, tuple(static_reads.items())
            ))
        self._program = program
        self._unserved = unserved
        self._constants = constants

    def _bind_banks(self) -> None:
        """Point :attr:`_banks` at the current read banks (after a swap)."""
        self._banks = [self.window.ring, *(s.read_bank for s in self.statics), self._constants]

    def _gather(self, centre: int) -> TupleData:
        """Assemble the stencil tuple of ``centre`` (FSM-2 datapath)."""
        entry = self._program[centre]
        if entry is None:
            raise SimulationError(
                f"{self.name}: operand {self._unserved[centre]} of centre {centre} is "
                "served neither by the window nor by any static buffer "
                "(buffer plan is inconsistent with the access pattern)"
            )
        offsets, sources, registers, bram, static_reads = entry
        banks = self._banks
        values = tuple([banks[bank][index] for bank, index in sources])
        if registers or bram:
            self.window_hits += registers + bram
            self.window.account_reads(self.sim.cycle, registers, bram)
        for static, reads in static_reads:
            static.reads += reads
            self.static_hits += reads
        return TupleData(centre, offsets, values)

    # ------------------------------------------------------------------ #
    # idle-horizon protocol
    # ------------------------------------------------------------------ #
    def next_activity(self):
        now = self.sim.cycle
        if self.result_in.can_pop():
            return now  # FSM-3 write-through
        if self.fsm_prefetch.is_in("FILL"):
            # FSM-1 consumes a prefetch word, or retires the FILL state the
            # moment the warm-up completed; while starved for prefetch data
            # the gather FSM sits in WAIT and the rest of the tick is inert.
            return now if self.prefetch_in.can_pop() or not self.needs_prefetch else None
        if not self._active or not self.fsm_gather.is_in("RUN"):
            return None
        window_hi = self.plan.stream.window_hi
        head = self.window.head
        if head < self._emitted + window_hi:
            if self._received < self._n:
                if self.stream_in.can_pop():
                    return now  # FSM-2 accepts a stream word
            elif self._emitted < self._n:
                return now  # tail flush: pad push into the window
        if (
            self._emitted < self._n
            and head >= self._emitted + window_hi
            and self.tuple_out.can_push()
        ):
            return now  # FSM-2 emits a tuple
        return None

    def skip(self, cycles: int) -> None:
        self.fsm_prefetch.skip(cycles)
        self.fsm_gather.skip(cycles)
        self.fsm_writeback.skip(cycles)
        if not self._active or not self.fsm_gather.is_in("RUN"):
            return
        window_hi = self.plan.stream.window_hi
        head = self.window.head
        if (
            head < self._emitted + window_hi
            and self._received < self._n
            and not self.stream_in.can_pop()
        ):
            self.input_starved_cycles += cycles
        if (
            self._emitted < self._n
            and head >= self._emitted + window_hi
            and not self.tuple_out.can_push()
        ):
            self.tuple_out.note_push_stall(cycles)
            self.emit_stall_cycles += cycles

    def skip_digest(self):
        return (
            self.fsm_prefetch.state,
            self.fsm_gather.state,
            self._work_instance,
            self._received,
            self._emitted,
            self.tuples_emitted,
            self.window.head,
        )

    # ------------------------------------------------------------------ #
    # clocked behaviour
    # ------------------------------------------------------------------ #
    def tick(self) -> None:
        self.fsm_prefetch.tick()
        self.fsm_gather.tick()
        self.fsm_writeback.tick()

        # FSM-3: write-through of kernel results into static write banks.
        if self.result_in.can_pop():
            result: KernelResult = self.result_in.pop()
            if self.write_through:
                for s in self.statics:
                    if s.capture(result.index, result.value):
                        self.stats.incr("static_write_through")
                        break

        # FSM-1: warm-up prefetch into static read banks.
        if self.fsm_prefetch.is_in("FILL"):
            if self.prefetch_in.can_pop():
                value = self.prefetch_in.pop()
                while (
                    self._prefetch_buffer_idx < len(self.statics)
                    and self.statics[self._prefetch_buffer_idx].prefetch_complete
                ):
                    self._prefetch_buffer_idx += 1
                if self._prefetch_buffer_idx >= len(self.statics):
                    raise SimulationError(f"{self.name}: prefetch data after warm-up completed")
                self.statics[self._prefetch_buffer_idx].prefetch_word(value)
            if not self.needs_prefetch:
                self.fsm_prefetch.go("DONE", self.cycle)
                if self.fsm_gather.is_in("WAIT"):
                    self.fsm_gather.go("RUN", self.cycle)
                self.trace.record(self.cycle, self.name, "prefetch_done")

        if not self._active or not self.fsm_gather.is_in("RUN"):
            return

        window = self.window
        emitted = self._emitted
        aligned_limit = emitted + self.plan.stream.window_hi

        # FSM-2 (a): accept at most one stream word per cycle into the window.
        # The window is kept aligned with the emission point (head never runs
        # more than ``window_hi`` ahead of the centre being assembled) — this
        # is the stall/back-pressure path of the AXI-Stream interface.  Once
        # the input stream is exhausted, padding words flush the tail of the
        # grid through the window so the last rows can be emitted.
        if window.head < aligned_limit:
            if self._received < self._n:
                if self.stream_in.can_pop():
                    window.push(self._received, self.stream_in.pop(), self.sim.cycle)
                    self._received += 1
                else:
                    self.input_starved_cycles += 1
            elif emitted < self._n:
                window.push(window.head + 1, 0.0, self.sim.cycle)
                self.stats.incr("window_pad_pushes")

        # FSM-2 (b): emit at most one stencil tuple per cycle.
        if emitted < self._n and window.head >= aligned_limit:
            if self.tuple_out.can_push():
                self.tuple_out.push(self._gather(emitted))
                self._emitted = emitted + 1
                self.tuples_emitted += 1
            else:
                self.tuple_out.note_push_stall()
                self.emit_stall_cycles += 1
