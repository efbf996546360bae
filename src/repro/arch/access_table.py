"""Pre-resolved per-position access tables.

In hardware the Smache controller resolves boundary conditions with a handful
of comparators on the row/column counters; the outcome for a given grid
position never changes between work-instances.  The simulation therefore
pre-computes, once per system, the resolved accesses of every grid position,
from one :func:`repro.core.boundary.resolve_many` pass.
Both the Smache front-end and the baseline master use the same table, which
also guarantees they agree with the NumPy reference on what each position
reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.boundary import (
    CONSTANT,
    KIND_CODES,
    SKIPPED,
    BoundarySpec,
    ResolutionKind,
    resolve_many,
)
from repro.core.grid import GridSpec
from repro.core.stencil import StencilShape


@dataclass(frozen=True)
class ResolvedAccess:
    """One resolved stencil operand for one grid position."""

    offset: Tuple[int, ...]
    kind: ResolutionKind
    target: Optional[int] = None        # linear grid index, when the operand exists
    constant: Optional[float] = None    # substituted value for CONSTANT boundaries

    @property
    def exists(self) -> bool:
        """True if the operand reads a grid element."""
        return self.target is not None


@dataclass(frozen=True)
class PointAccess:
    """All resolved operands of one grid position."""

    linear: int
    accesses: Tuple[ResolvedAccess, ...]

    @property
    def n_reads(self) -> int:
        """Number of operands that read a grid element."""
        return sum(1 for a in self.accesses if a.exists)


class AccessTable:
    """Resolved accesses for every position of a grid/stencil/boundary triple."""

    def __init__(
        self,
        grid: GridSpec,
        stencil: StencilShape,
        boundary: BoundarySpec,
    ) -> None:
        self.grid = grid
        self.stencil = stencil
        self.boundary = boundary
        kinds, targets = resolve_many(grid, stencil, boundary, np.arange(grid.size))
        # SKIPPED and CONSTANT operands depend only on the offset: one each.
        shared = [
            {
                SKIPPED: ResolvedAccess(offset=offset, kind=ResolutionKind.SKIPPED),
                CONSTANT: ResolvedAccess(
                    offset=offset,
                    kind=ResolutionKind.CONSTANT,
                    constant=boundary.constant_value,
                ),
            }
            for offset in stencil.offsets
        ]
        self._points: List[PointAccess] = [
            PointAccess(
                linear=linear,
                accesses=tuple(
                    ResolvedAccess(offset=offset, kind=KIND_CODES[code], target=target)
                    if target >= 0
                    else shared_j[code]
                    for offset, shared_j, code, target in zip(
                        stencil.offsets, shared, codes, row
                    )
                ),
            )
            for linear, (codes, row) in enumerate(zip(kinds.tolist(), targets.tolist()))
        ]

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._points)

    def __getitem__(self, linear: int) -> PointAccess:
        return self._points[linear]

    def total_element_reads(self) -> int:
        """Total grid-element reads per work-instance (used for traffic checks)."""
        return sum(p.n_reads for p in self._points)

    def max_operands(self) -> int:
        """Largest number of existing operands of any position."""
        return max((p.n_reads for p in self._points), default=0)
