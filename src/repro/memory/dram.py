"""Off-chip DRAM model.

The model captures the property the paper's whole argument rests on: DRAM
delivers one word per cycle as long as accesses are *contiguous* (an open
burst), while breaking the access pattern costs extra cycles (command
overhead, and optionally a row-activation penalty used by the sensitivity
ablation).  It also counts traffic, which is how the paper's Figure 2 "DRAM
Traffic (KB)" column is produced.

Structure
---------
A :class:`DRAMModel` owns the backing storage (a NumPy array of words) and two
ports:

* a **read port** — commands in, responses out, in order;
* a **write port** — commands in, completion counted.

With ``shared_bus=True`` both ports are served by a single internal server
(one transaction at a time, round-robin), which is how the naive baseline
master drives memory.  With ``shared_bus=False`` (the Smache configuration)
reads and writes proceed concurrently, modelling independent AXI read/write
channels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Deque, Optional, Tuple

import numpy as np
from collections import deque

from repro.sim.channel import Channel, Record
from repro.sim.engine import Component, Simulator
from repro.utils.validation import check_non_negative, check_positive

#: Default depth of the in-flight read window (response re-ordering buffer).
#: The analytic performance model mirrors this limit when predicting stream
#: throughput, so keep the two in sync through this constant.
DEFAULT_RESPONSE_CAPACITY = 8


@dataclass(frozen=True)
class DRAMTiming:
    """Timing parameters of the DRAM model (all in cycles)."""

    #: Cycles per word when the access continues an open burst (sequential).
    stream_word_cycles: int = 1
    #: Cycles per access that does not continue a burst (command overhead).
    random_access_cycles: int = 1
    #: Pipeline latency from accepting a read to the data appearing.
    read_latency: int = 4
    #: Words per DRAM row (only used when ``row_miss_penalty`` > 0).
    row_words: int = 512
    #: Extra cycles when an access lands in a different row than the previous
    #: access on the same port (models row activate/precharge; 0 by default so
    #: the shipped configuration matches the paper's simulation counting).
    row_miss_penalty: int = 0

    def __post_init__(self) -> None:
        check_positive("stream_word_cycles", self.stream_word_cycles)
        check_positive("random_access_cycles", self.random_access_cycles)
        check_non_negative("read_latency", self.read_latency)
        check_positive("row_words", self.row_words)
        check_non_negative("row_miss_penalty", self.row_miss_penalty)


class DRAMCommand(Record):
    """One memory command."""

    __slots__ = ("kind", "addr", "data", "tag")
    kind: str  # "read" or "write"
    addr: int
    data: float
    tag: int

    def __init__(self, kind: str, addr: int, data: float = 0.0, tag: int = 0) -> None:
        if kind != "read" and kind != "write":
            raise ValueError(f"unknown DRAM command kind {kind!r}")
        self.kind = kind
        self.addr = addr
        self.data = data
        self.tag = tag


class DRAMResponse(Record):
    """Read data returned by the DRAM."""

    __slots__ = ("addr", "data", "tag")
    addr: int
    data: float
    tag: int

    def __init__(self, addr: int, data: float, tag: int = 0) -> None:
        self.addr = addr
        self.data = data
        self.tag = tag


class _Port:
    """Internal per-port state: burst tracking and an absolute free time.

    ``free_at`` is the first cycle at which the port can start a new access.
    Absolute times (rather than a per-tick countdown) make a busy wait a
    *dead* region for the fast engine: nothing about the port changes until
    ``free_at``, so the simulator can batch-advance the clock over it.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.free_at = 0
        self.last_addr: Optional[int] = None
        self.current: Optional[DRAMCommand] = None

    def reset(self) -> None:
        self.free_at = 0
        self.last_addr = None
        self.current = None


class DRAMModel(Component):
    """Cycle-level DRAM with burst-aware timing and traffic counters."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "dram",
        size_words: int = 1 << 20,
        word_bytes: int = 4,
        timing: Optional[DRAMTiming] = None,
        shared_bus: bool = False,
        read_cmd_capacity: int = 4,
        response_capacity: int = DEFAULT_RESPONSE_CAPACITY,
    ) -> None:
        super().__init__(sim, name)
        check_positive("size_words", size_words)
        check_positive("word_bytes", word_bytes)
        self.size_words = size_words
        self.word_bytes = word_bytes
        self.timing = timing or DRAMTiming()
        self.shared_bus = shared_bus

        self.storage = np.zeros(size_words, dtype=np.float64)

        #: Read commands from the system to the DRAM.
        self.read_cmd: Channel = self.channel("read_cmd", read_cmd_capacity)
        #: Read responses, strictly in command order.
        self.read_rsp: Channel = self.channel("read_rsp", response_capacity)
        #: Write commands.
        self.write_cmd: Channel = self.channel("write_cmd", read_cmd_capacity)

        self._read_port = _Port("read")
        self._write_port = _Port("write")
        self._inflight_reads: Deque[Tuple[int, DRAMResponse]] = deque()

        # statistics
        self.words_read = 0
        self.words_written = 0
        self.sequential_accesses = 0
        self.random_accesses = 0
        self.row_misses = 0
        self.writes_completed = 0
        self._arbiter_turn = 0  # round-robin pointer for the shared bus
        # busy accounting is interval-based (see _account_busy): every access
        # contributes its occupancy interval up front, so batch-advancing the
        # clock over a busy wait loses no cycles.
        self._busy_accum = 0
        self._busy_union_until = 0

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def preload(self, base: int, values: np.ndarray) -> None:
        """Write ``values`` directly into the backing store (no cycles, no traffic)."""
        values = np.asarray(values, dtype=np.float64).ravel()
        if base < 0 or base + values.size > self.size_words:
            raise ValueError("preload region outside the DRAM")
        self.storage[base : base + values.size] = values

    def snapshot(self, base: int, count: int) -> np.ndarray:
        """Copy ``count`` words starting at ``base`` out of the backing store."""
        if base < 0 or base + count > self.size_words:
            raise ValueError("snapshot region outside the DRAM")
        return self.storage[base : base + count].copy()

    @property
    def bytes_read(self) -> int:
        """Total bytes transferred out of the DRAM."""
        return self.words_read * self.word_bytes

    @property
    def bytes_written(self) -> int:
        """Total bytes transferred into the DRAM."""
        return self.words_written * self.word_bytes

    @property
    def total_traffic_bytes(self) -> int:
        """Total bytes moved in either direction."""
        return self.bytes_read + self.bytes_written

    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        self.storage[:] = 0.0
        self._read_port.reset()
        self._write_port.reset()
        self._inflight_reads.clear()
        self.words_read = 0
        self.words_written = 0
        self.sequential_accesses = 0
        self.random_accesses = 0
        self.row_misses = 0
        self.writes_completed = 0
        self._arbiter_turn = 0
        self._busy_accum = 0
        self._busy_union_until = 0

    def finished(self) -> bool:
        return (
            not self._inflight_reads
            and self.cycle >= self._read_port.free_at
            and self.cycle >= self._write_port.free_at
        )

    # ------------------------------------------------------------------ #
    # timing
    # ------------------------------------------------------------------ #
    @property
    def busy_cycles(self) -> int:
        """Cycles (so far) where at least one port was serving an access."""
        return self._busy_accum - max(0, self._busy_union_until - self.sim.cycle)

    def _account_busy(self, start: int, end: int) -> None:
        """Add the busy interval ``(start, end]`` to the union accumulator.

        Intervals always begin at the current cycle, so the union of the two
        ports' intervals is contiguous at the tail and one high-water mark
        (``_busy_union_until``) suffices to avoid double counting.
        """
        counted_from = max(start, self._busy_union_until)
        if end > counted_from:
            self._busy_accum += end - counted_from
            self._busy_union_until = end

    def _access_cost(self, port: _Port, addr: int) -> int:
        """Cycles the access occupies the port, with burst/row accounting."""
        t = self.timing
        sequential = port.last_addr is not None and addr == port.last_addr + 1
        if sequential:
            self.sequential_accesses += 1
            cost = t.stream_word_cycles
        else:
            self.random_accesses += 1
            cost = t.random_access_cycles
            if t.row_miss_penalty > 0:
                prev_row = None if port.last_addr is None else port.last_addr // t.row_words
                if prev_row is None or addr // t.row_words != prev_row:
                    self.row_misses += 1
                    cost += t.row_miss_penalty
        port.last_addr = addr
        return cost

    def _start_read(self, cmd: DRAMCommand) -> None:
        addr = cmd.addr
        port = self._read_port
        now = self.sim.cycle
        last = port.last_addr
        if last is not None and addr == last + 1 and addr < self.size_words:
            # Fast path: a read continuing the open burst (the stream).
            self.sequential_accesses += 1
            port.last_addr = addr
            cost = self.timing.stream_word_cycles
        elif 0 <= addr < self.size_words:
            cost = self._access_cost(port, addr)
        else:
            raise IndexError(f"DRAM read address {addr} out of range")
        port.free_at = end = now + cost
        self._account_busy(now, end)
        self._inflight_reads.append(
            (end + self.timing.read_latency, DRAMResponse(addr, self.storage.item(addr), cmd.tag))
        )
        self.words_read += 1

    def _start_write(self, cmd: DRAMCommand) -> None:
        if not (0 <= cmd.addr < self.size_words):
            raise IndexError(f"DRAM write address {cmd.addr} out of range")
        now = self.sim.cycle
        cost = self._access_cost(self._write_port, cmd.addr)
        self._write_port.free_at = now + cost
        self._account_busy(now, now + cost)
        self.storage[cmd.addr] = cmd.data
        self.words_written += 1
        self.writes_completed += 1

    # ------------------------------------------------------------------ #
    def tick(self) -> None:
        now = self.sim.cycle
        # Deliver any read data whose latency has elapsed (in order).
        inflight = self._inflight_reads
        if inflight:
            rsp = self.read_rsp
            while inflight and inflight[0][0] <= now and rsp.can_push():
                rsp.push(inflight.popleft()[1])

        if self.shared_bus:
            self._tick_shared_bus(now)
        else:
            self._tick_split_bus(now)

    def _response_space_ok(self) -> bool:
        # Do not accept more reads than the response path can absorb; this
        # provides the back-pressure ("stall") path of the AXI-style interface.
        return len(self._inflight_reads) < self.read_rsp.capacity

    def _tick_split_bus(self, now: int) -> None:
        if now >= self._read_port.free_at and self.read_cmd.can_pop() and self._response_space_ok():
            self._start_read(self.read_cmd.pop())
        if now >= self._write_port.free_at and self.write_cmd.can_pop():
            self._start_write(self.write_cmd.pop())

    def _tick_shared_bus(self, now: int) -> None:
        # One transaction at a time across both ports, round-robin between
        # pending reads and writes so neither side starves.
        if now < self._read_port.free_at or now < self._write_port.free_at:
            return
        want_read = self.read_cmd.can_pop() and self._response_space_ok()
        want_write = self.write_cmd.can_pop()
        if want_read and (not want_write or self._arbiter_turn == 0):
            cmd = self.read_cmd.pop()
            self._start_read(cmd)
            # Both "ports" are the same bus: mirror the occupancy.
            self._write_port.free_at = self._read_port.free_at
            self._arbiter_turn = 1
        elif want_write:
            cmd = self.write_cmd.pop()
            self._start_write(cmd)
            self._read_port.free_at = self._write_port.free_at
            self._arbiter_turn = 0

    # ------------------------------------------------------------------ #
    # idle-horizon protocol
    # ------------------------------------------------------------------ #
    def next_activity(self) -> Optional[int]:
        now = self.sim.cycle
        horizon: Optional[int] = None
        # A draining port is self-scheduled activity even with empty queues:
        # finished() flips when it runs dry, and the contract requires every
        # change of observable state — idle status included — to be bounded
        # by the horizon (otherwise run_until_idle could sleep through it).
        for port in (self._read_port, self._write_port):
            if port.free_at > now and (horizon is None or port.free_at < horizon):
                horizon = port.free_at
        if self._inflight_reads and self.read_rsp.can_push():
            ready = self._inflight_reads[0][0]
            if ready <= now:
                return now
            if horizon is None or ready < horizon:
                horizon = ready
        # A blocked response path (read_rsp full) is not self-scheduled
        # activity: only the consumer popping can unblock it, and that
        # consumer reports its own activity.
        if self.read_cmd.can_pop() and self._response_space_ok():
            free = self._read_port.free_at
            if self.shared_bus and self._write_port.free_at > free:
                free = self._write_port.free_at
            if free <= now:
                return now
            if horizon is None or free < horizon:
                horizon = free
        if self.write_cmd.can_pop():
            free = self._write_port.free_at
            if self.shared_bus and self._read_port.free_at > free:
                free = self._read_port.free_at
            if free <= now:
                return now
            if horizon is None or free < horizon:
                horizon = free
        return horizon

    def skip_digest(self):
        return (
            len(self._inflight_reads),
            self.words_read,
            self.words_written,
            self.writes_completed,
            self._read_port.free_at,
            self._write_port.free_at,
            self._arbiter_turn,
        )
