"""A small finite-state-machine helper.

The Smache controller is specified in the paper as three concurrent FSMs
(prefetch, gather/emit, write-back).  This helper gives the architecture
models named states, guarded transitions and per-state occupancy statistics
— and gives the synthesis model something structural to cost (state registers
and transition decode logic).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple


class FSM:
    """A named finite state machine with occupancy counters."""

    def __init__(self, name: str, states: Iterable[str], initial: str) -> None:
        self.name = name
        self.states: Tuple[str, ...] = tuple(states)
        if len(set(self.states)) != len(self.states):
            raise ValueError(f"FSM '{name}' has duplicate states")
        if initial not in self.states:
            raise ValueError(f"initial state {initial!r} not among states {self.states}")
        self.initial = initial
        self.state = initial
        self.cycles_in_state: Dict[str, int] = {s: 0 for s in self.states}
        self.transition_count = 0
        self.history: List[Tuple[int, str]] = []

    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Return to the initial state and clear statistics."""
        self.state = self.initial
        self.cycles_in_state = {s: 0 for s in self.states}
        self.transition_count = 0
        self.history.clear()

    def is_in(self, *states: str) -> bool:
        """True if the FSM is currently in any of the given states.

        A hit names a valid state by construction, so the names are only
        validated on a miss.
        """
        if self.state in states:
            return True
        for s in states:
            if s not in self.states:
                raise ValueError(f"unknown state {s!r} for FSM '{self.name}'")
        return False

    def go(self, state: str, cycle: Optional[int] = None) -> None:
        """Transition to ``state`` (recording the cycle if provided)."""
        if state not in self.states:
            raise ValueError(f"unknown state {state!r} for FSM '{self.name}'")
        if state != self.state:
            self.transition_count += 1
            if cycle is not None:
                self.history.append((cycle, state))
        self.state = state

    def tick(self) -> None:
        """Account one cycle spent in the current state."""
        self.cycles_in_state[self.state] += 1

    def skip(self, cycles: int) -> None:
        """Account ``cycles`` consecutive cycles spent in the current state.

        Called by components from their :meth:`repro.sim.engine.Component.skip`
        hook when the fast engine batch-advances over a dead region: the FSM
        cannot transition inside such a region, so its occupancy statistics
        accrue in one step and stay identical to naive per-cycle ticking.
        """
        self.cycles_in_state[self.state] += cycles

    # ------------------------------------------------------------------ #
    @property
    def n_states(self) -> int:
        """Number of states (used by the synthesis resource model)."""
        return len(self.states)

    @property
    def state_register_bits(self) -> int:
        """Bits needed to encode the state (binary encoding)."""
        n = max(1, self.n_states - 1)
        return max(1, n.bit_length())

    def occupancy(self) -> Dict[str, int]:
        """Cycles spent per state."""
        return dict(self.cycles_in_state)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FSM({self.name!r}, state={self.state!r})"
