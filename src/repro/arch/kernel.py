"""The computation kernel as a pipelined hardware block.

:class:`KernelHW` consumes one stencil tuple per cycle (when available),
applies a :class:`repro.reference.kernels.StencilKernel` and emits the result
after a fixed pipeline latency.  The arithmetic itself is delegated to the
kernel object so the cycle-accurate system and the NumPy reference can never
disagree about the mathematics — only about scheduling, which is the point of
the simulation.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

from repro.reference.kernels import StencilKernel
from repro.sim.channel import Channel, Record
from repro.sim.engine import Component, Simulator
from repro.sim.stats import StatsCollector


class TupleData(Record):
    """One stencil tuple travelling from the front-end to the kernel."""

    __slots__ = ("index", "offsets", "values")
    index: int                              # linear index of the centre element
    offsets: Tuple[Tuple[int, ...], ...]    # grid offsets of the existing operands
    values: Tuple[float, ...]               # operand values (parallel to offsets)

    def __init__(
        self, index: int, offsets: Tuple[Tuple[int, ...], ...], values: Tuple[float, ...]
    ) -> None:
        self.index = index
        self.offsets = offsets
        self.values = values

    @property
    def n_operands(self) -> int:
        """Number of operands present in the tuple."""
        return len(self.values)


class KernelResult(Record):
    """One kernel output value."""

    __slots__ = ("index", "value")
    index: int
    value: float

    def __init__(self, index: int, value: float) -> None:
        self.index = index
        self.value = value


class KernelHW(Component):
    """A pipelined stencil kernel: one tuple in, one result out, fixed latency."""

    def __init__(
        self,
        sim: Simulator,
        kernel: StencilKernel,
        name: str = "kernel",
        stats: StatsCollector | None = None,
        tuple_in: Channel | None = None,
        input_capacity: int = 2,
        output_capacity: int = 2,
    ) -> None:
        super().__init__(sim, name)
        self.kernel = kernel
        self.stats = stats or StatsCollector(name)
        #: Input channel; pass the front-end's ``tuple_out`` to connect them.
        self.tuple_in: Channel = tuple_in if tuple_in is not None else self.channel(
            "tuple_in", input_capacity
        )
        self.result_out: Channel = self.channel("result_out", output_capacity)
        #: In-flight bound of the initiation pipeline; shared by tick() and
        #: next_activity() so the scheduler can never drift from the datapath.
        self._pipe_capacity = max(1, self.kernel.latency) + 2
        self._pipeline: Deque[Tuple[int, KernelResult]] = deque()
        self.tuples_processed = 0
        self.operations = 0
        self.busy_cycles = 0
        self.stall_cycles = 0

    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        self._pipeline.clear()
        self.tuples_processed = 0
        self.operations = 0
        self.busy_cycles = 0
        self.stall_cycles = 0

    def finished(self) -> bool:
        return not self._pipeline and not self.tuple_in.can_pop()

    # ------------------------------------------------------------------ #
    # idle-horizon protocol
    # ------------------------------------------------------------------ #
    def next_activity(self):
        now = self.sim.cycle
        if self.tuple_in.can_pop() and len(self._pipeline) < self._pipe_capacity:
            return now
        if self._pipeline:
            ready = self._pipeline[0][0]
            if ready > now:
                return ready  # self-scheduled retire time
            # Result ready but the output is full: per-cycle stall
            # bookkeeping only, reproduced by skip().
            return now if self.result_out.can_push() else None
        return None

    def skip(self, cycles: int) -> None:
        if (
            self._pipeline
            and self._pipeline[0][0] <= self.sim.cycle
            and not self.result_out.can_push()
        ):
            self.result_out.note_push_stall(cycles)
            self.stall_cycles += cycles

    def skip_digest(self):
        return (len(self._pipeline), self.tuples_processed, self.operations)

    # ------------------------------------------------------------------ #
    def tick(self) -> None:
        now = self.sim.cycle
        pipeline = self._pipeline
        # Retire results whose latency has elapsed.
        if pipeline and pipeline[0][0] <= now:
            if self.result_out.can_push():
                self.result_out.push(pipeline.popleft()[1])
            else:
                self.result_out.note_push_stall()
                self.stall_cycles += 1

        # Accept a new tuple if the pipeline has room (one initiation per cycle).
        if len(pipeline) < self._pipe_capacity and self.tuple_in.can_pop():
            data: TupleData = self.tuple_in.pop()
            kernel = self.kernel
            value = kernel.apply(data.offsets, data.values)
            pipeline.append((now + kernel.latency, KernelResult(data.index, value)))
            self.tuples_processed += 1
            self.operations += kernel.ops_per_point
            self.stats.incr("kernel_ops", kernel.ops_per_point)
            self.busy_cycles += 1
