"""The moving-window (stream) buffer.

The window holds the most recent ``depth`` stream elements.  When the element
with linear index ``h`` has just been accepted, the centre being assembled is
``c = h - window_hi`` and any operand whose linear index lies in
``[c + window_lo, c + window_hi]`` can be read from the window.

Hybrid register/BRAM accounting
-------------------------------
Functionally the window is one FIFO; physically (Case-H) the stencil tap
positions are registers and the stretches between taps are BRAM FIFOs.  The
model keeps the data in one ring of ``depth`` slots for speed (element ``i``
lives in slot ``i % depth``), but tracks, per cycle, how many reads each
physical section would perform, so tests can verify the paper's claim that
the BRAM sections never need more than one concurrent read (the
shift-through read) while the register taps are read in parallel.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.buffers import StreamBufferSpec
from repro.core.partition import HybridPartition
from repro.sim.stats import StatsCollector


class WindowReadError(RuntimeError):
    """An access fell outside the window's current coverage."""


class WindowBuffer:
    """Functional window buffer with register/BRAM port accounting."""

    def __init__(
        self,
        spec: StreamBufferSpec,
        partition: Optional[HybridPartition] = None,
        tap_offsets: Sequence[int] = (),
        stats: Optional[StatsCollector] = None,
    ) -> None:
        self.spec = spec
        self.partition = partition
        self.stats = stats or StatsCollector("window")
        self.depth = spec.depth
        #: positions (distance from the newest element) implemented as registers
        self.register_positions = self._register_positions(tap_offsets)
        # frozenset mirror for the per-read membership test on the hot path
        self._register_position_set = frozenset(self.register_positions)
        #: The ring: stream element ``i`` lives in slot ``i % len(ring)``.
        self.ring: List[float] = [0.0] * max(1, self.depth)
        self._head: int = -1  # linear index of the newest element, -1 = empty
        self._count = 0
        # per-cycle port accounting
        self._cycle = -1
        self._bram_reads_this_cycle = 0
        self._register_reads_this_cycle = 0
        self.max_bram_reads_per_cycle = 0
        self.max_register_reads_per_cycle = 0

    # ------------------------------------------------------------------ #
    def _register_positions(self, tap_offsets: Sequence[int]) -> Tuple[int, ...]:
        """Window positions (0 = newest) that are register slots.

        Tap offsets are stream offsets relative to the centre; the centre sits
        ``window_hi`` positions behind the newest element.
        """
        positions = {0, self.depth - 1, self.spec.window_hi}  # input, output, centre
        for o in tap_offsets:
            pos = self.spec.window_hi - o
            if 0 <= pos < self.depth:
                positions.add(pos)
                if pos + 1 < self.depth:
                    positions.add(pos + 1)
        return tuple(sorted(positions))

    def is_register(self, position: int) -> bool:
        """True if window position ``position`` (0 = newest) is a register."""
        return position in self._register_position_set

    def slot(self, linear_index: int) -> int:
        """Ring slot of stream element ``linear_index``."""
        return linear_index % len(self.ring)

    # ------------------------------------------------------------------ #
    @property
    def head(self) -> int:
        """Linear index of the most recently accepted element (-1 if empty)."""
        return self._head

    @property
    def centre(self) -> int:
        """Linear index of the centre the window is currently aligned on."""
        return self._head - self.spec.window_hi

    def fill_count(self) -> int:
        """Number of elements currently held (saturates at ``depth``)."""
        return self._count

    def reset(self) -> None:
        """Empty the window (start of a new work-instance)."""
        self._head = -1
        self._count = 0

    # ------------------------------------------------------------------ #
    def push(self, linear_index: int, value: float, cycle: int) -> None:
        """Accept the next stream element (must arrive in linear order).

        ``cycle`` is the cycle of the push; a push reads no tap, so the port
        accounting does not depend on it.
        """
        if self._head >= 0 and linear_index != self._head + 1:
            raise WindowReadError(
                f"stream element {linear_index} arrived out of order (head {self._head})"
            )
        self.ring[linear_index % len(self.ring)] = value
        self._head = linear_index
        self._count = min(self._count + 1, self.depth)
        # Shifting the window performs one write (and, once full, one
        # shift-through read) on every BRAM section; with the sections chained
        # this is at most one read per section per cycle by construction.
        self.stats.incr("window_pushes")

    def covers(self, linear_index: int) -> bool:
        """True if the element is currently resident in the window."""
        if self._head < 0:
            return False
        oldest = self._head - self._count + 1
        return oldest <= linear_index <= self._head

    def read(self, linear_index: int, cycle: int) -> float:
        """Read an element resident in the window (one stencil tap)."""
        if not self.covers(linear_index):
            raise WindowReadError(
                f"window read of element {linear_index} outside coverage "
                f"[{self._head - self._count + 1}, {self._head}]"
            )
        position = self._head - linear_index  # 0 = newest
        if self.is_register(position):
            self.account_reads(cycle, 1, 0)
        else:
            self.account_reads(cycle, 0, 1)
        return float(self.ring[self.slot(linear_index)])

    def account_reads(self, cycle: int, registers: int, bram: int) -> None:
        """Account ``registers`` register and ``bram`` BRAM tap reads made
        in ``cycle``.

        :meth:`read` accounts one read at a time, accumulated per cycle; the
        front-end's gather program reads all of a tuple's taps at once (at
        most one tuple per cycle) and accounts them in one call.
        """
        if cycle != self._cycle:
            self._cycle = cycle
            self._bram_reads_this_cycle = 0
            self._register_reads_this_cycle = 0
        if registers:
            self._register_reads_this_cycle += registers
            self.stats.incr("window_register_reads", registers)
            if self._register_reads_this_cycle > self.max_register_reads_per_cycle:
                self.max_register_reads_per_cycle = self._register_reads_this_cycle
        if bram:
            self._bram_reads_this_cycle += bram
            self.stats.incr("window_bram_reads", bram)
            if self._bram_reads_this_cycle > self.max_bram_reads_per_cycle:
                self.max_bram_reads_per_cycle = self._bram_reads_this_cycle

    # ------------------------------------------------------------------ #
    def port_report(self) -> Dict[str, int]:
        """Summary of the port activity (used by tests and reports)."""
        return {
            "register_positions": len(self.register_positions),
            "max_register_reads_per_cycle": self.max_register_reads_per_cycle,
            "max_bram_reads_per_cycle": self.max_bram_reads_per_cycle,
            "register_reads": int(self.stats.get("window_register_reads")),
            "bram_reads": int(self.stats.get("window_bram_reads")),
            "pushes": int(self.stats.get("window_pushes")),
        }
