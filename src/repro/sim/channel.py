"""Two-phase FIFO channels: the wiring of the simulated hardware.

A :class:`Channel` models a registered point-to-point link (an AXI4-Stream
style valid/ready connection with a skid buffer).  Pushes performed during a
cycle become visible to the consumer only on the *next* cycle, which makes
simulation results independent of the order in which components are ticked.

Throughput: because a push performed in cycle ``n`` frees no space until the
commit at the end of cycle ``n``, a channel needs ``capacity >= 2`` to sustain
one transfer per cycle (exactly like a two-entry skid buffer in RTL).

This is the hottest data structure of the whole simulator, so the commit path
is written to do no work for untouched links: a channel (or wire) reports
itself to its owning simulator's *dirty worklist* the first time a cycle
stages an update, and only dirty links commit.  Standalone channels (built
without a simulator, as the unit tests do) get a no-op dirty hook and are
committed explicitly by their caller.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.utils.validation import check_positive


class Record:
    """Base of the small value records that travel on channels.

    A record is a plain ``__slots__`` object: a subclass lists its fields in
    ``__slots__`` and assigns them positionally in ``__init__``.  That makes
    one construction about five times cheaper than a frozen dataclass, which
    matters because a simulated cycle builds several of them.  Records are
    treated as immutable values: they compare equal field by field (and
    only to records of the same type) and hash accordingly.
    """

    __slots__ = ()

    def _fields(self) -> Tuple[Any, ...]:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self).__name__,) + self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({fields})"


def _no_hook(link: Any) -> None:
    """Dirty hook of a standalone link (its caller commits it explicitly)."""


class Channel:
    """A registered FIFO link between two components.

    ``_queue`` holds the committed items followed by this cycle's staged
    pushes (the last ``_pushed`` entries); the first ``_popped`` entries are
    this cycle's staged pops.  A commit is then one slice deletion.
    """

    __slots__ = (
        "name",
        "capacity",
        "_queue",
        "_pushed",
        "_popped",
        "_on_dirty",
        "_dirty",
        "total_pushes",
        "total_pops",
        "push_stall_cycles",
        "pop_stall_cycles",
        "max_occupancy",
    )

    def __init__(
        self,
        name: str,
        capacity: int = 2,
        on_dirty: Optional[Callable[["Channel"], None]] = None,
    ) -> None:
        check_positive("capacity", capacity)
        self.name = name
        self.capacity = capacity
        self._queue: List[Any] = []
        self._pushed = 0
        self._popped = 0
        self._on_dirty = on_dirty or _no_hook
        self._dirty = False
        # statistics
        self.total_pushes = 0
        self.total_pops = 0
        self.push_stall_cycles = 0
        self.pop_stall_cycles = 0
        self.max_occupancy = 0

    @property
    def mutations(self) -> int:
        """Monotone count of state-changing operations (pushes + pops), used
        by the debug engine to prove a skipped region was dead.  Stall notes
        are bookkeeping, not activity, and do not count."""
        return self.total_pushes + self.total_pops

    # ------------------------------------------------------------------ #
    # producer side
    # ------------------------------------------------------------------ #
    def can_push(self, n: int = 1) -> bool:
        """True if ``n`` more items can be staged this cycle.

        Space freed by pops staged in the same cycle does *not* count: the
        producer sees the occupancy as it was at the last clock edge.
        """
        return len(self._queue) + n <= self.capacity

    def push(self, item: Any) -> None:
        """Stage one item for delivery at the end of the current cycle."""
        queue = self._queue
        if len(queue) >= self.capacity:
            raise SimulationChannelError(
                f"push on full channel '{self.name}' "
                f"(capacity {self.capacity}); call can_push() first"
            )
        queue.append(item)
        self._pushed += 1
        self.total_pushes += 1
        if not self._dirty:
            self._dirty = True
            self._on_dirty(self)

    def note_push_stall(self, cycles: int = 1) -> None:
        """Record ``cycles`` cycles where the producer had data but the
        channel was full (batched by the fast engine's skip accounting)."""
        self.push_stall_cycles += cycles

    # ------------------------------------------------------------------ #
    # consumer side
    # ------------------------------------------------------------------ #
    def can_pop(self, n: int = 1) -> bool:
        """True if ``n`` items are available to pop this cycle."""
        return len(self._queue) - self._pushed - self._popped >= n

    def peek(self, offset: int = 0) -> Any:
        """Look at an available item without consuming it."""
        idx = self._popped + offset
        if idx >= len(self._queue) - self._pushed:
            raise SimulationChannelError(f"peek past the end of channel '{self.name}'")
        return self._queue[idx]

    def pop(self) -> Any:
        """Consume one item (the removal is applied at the end of the cycle)."""
        idx = self._popped
        if idx >= len(self._queue) - self._pushed:
            raise SimulationChannelError(
                f"pop on empty channel '{self.name}'; call can_pop() first"
            )
        self._popped = idx + 1
        self.total_pops += 1
        if not self._dirty:
            self._dirty = True
            self._on_dirty(self)
        return self._queue[idx]

    def note_pop_stall(self, cycles: int = 1) -> None:
        """Record ``cycles`` cycles where the consumer was ready but the
        channel was empty (batched by the fast engine's skip accounting)."""
        self.pop_stall_cycles += cycles

    # ------------------------------------------------------------------ #
    # simulator interface
    # ------------------------------------------------------------------ #
    def commit(self) -> None:
        """Apply the cycle's staged pops and pushes (called by the simulator)."""
        self._dirty = False
        if self._popped:
            del self._queue[: self._popped]
            self._popped = 0
        if self._pushed:
            self._pushed = 0
            occupancy = len(self._queue)
            if occupancy > self.max_occupancy:
                self.max_occupancy = occupancy

    def reset(self) -> None:
        """Clear contents and statistics."""
        self._queue.clear()
        self._pushed = 0
        self._popped = 0
        self._dirty = False
        self.total_pushes = 0
        self.total_pops = 0
        self.push_stall_cycles = 0
        self.pop_stall_cycles = 0
        self.max_occupancy = 0

    # ------------------------------------------------------------------ #
    @property
    def occupancy(self) -> int:
        """Number of committed items currently in the channel."""
        return len(self._queue) - self._pushed

    @property
    def is_idle(self) -> bool:
        """True when the channel holds no committed or staged items."""
        return not self._queue

    def drain(self) -> List[Any]:
        """Pop everything currently available (test helper)."""
        out = []
        while self.can_pop():
            out.append(self.pop())
        return out

    def __len__(self) -> int:
        return self.occupancy

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Channel({self.name!r}, {self.occupancy}/{self.capacity})"


class Wire:
    """A registered single-value signal (level, not a queue).

    Writes become visible at the next cycle; reads always return the value
    latched at the previous clock edge.  Used for stall/valid side-band
    signals where a FIFO would be overkill.
    """

    __slots__ = ("name", "_initial", "_current", "_next", "_on_dirty", "_dirty", "mutations")

    def __init__(
        self,
        name: str,
        initial: Any = 0,
        on_dirty: Optional[Callable[["Wire"], None]] = None,
    ) -> None:
        self.name = name
        self._initial = initial
        self._current = initial
        self._next: Optional[Any] = None
        self._on_dirty = on_dirty or _no_hook
        self._dirty = False
        #: Monotone count of scheduled writes (see :attr:`Channel.mutations`).
        self.mutations = 0

    def get(self) -> Any:
        """Value latched at the previous clock edge."""
        return self._current

    def set(self, value: Any) -> None:
        """Schedule a new value for the next clock edge."""
        self._next = value
        self.mutations += 1
        if not self._dirty:
            self._dirty = True
            self._on_dirty(self)

    def commit(self) -> None:
        """Latch the scheduled value (called by the simulator)."""
        self._dirty = False
        if self._next is not None:
            self._current = self._next
            self._next = None

    def reset(self) -> None:
        """Return to the initial value."""
        self._current = self._initial
        self._next = None
        self._dirty = False
        self.mutations = 0


class SimulationChannelError(RuntimeError):
    """Protocol violation on a channel (push-when-full / pop-when-empty)."""


def connect_all(channels: Iterable[Channel]) -> None:
    """Reset a collection of channels (helper used by system builders)."""
    for ch in channels:
        ch.reset()
