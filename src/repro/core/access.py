"""The formal stream / tuple / range / reach model of Section II.

Given a grid (the memory vector ``m``), an iteration pattern ``p`` and a
stencil with boundary conditions, each stream position ``i`` has a *stream
tuple*: the set of elements of ``m`` that participate in the computation for
``s[i] = m[p(i)]``.  From the tuple we derive the two quantities the paper's
buffer planner works with:

* the **reach** — the difference between the largest and smallest offset
  (in stream positions) from the centre element to the tuple elements; and
* the **range** — a maximal run of consecutive stream positions whose tuples
  share the same *shape* (the same set of offsets), see
  :mod:`repro.core.ranges`.

:func:`resolved_tuples` builds stream tuples from the arrays of
:func:`repro.core.boundary.resolve_many`, the path the range partition takes;
:func:`tuple_for` and :func:`stream_tuples` resolve one access at a time
through :meth:`BoundarySpec.resolve` and are the scalar oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.boundary import (
    CONSTANT,
    KIND_CODES,
    SKIPPED,
    BoundarySpec,
    ResolutionKind,
    ResolvedPoint,
)
from repro.core.grid import GridSpec, IterationPattern
from repro.core.stencil import StencilShape


@dataclass(frozen=True)
class AccessPattern:
    """How each stencil offset resolves, relative to the centre element.

    Stream tuples whose accesses resolve alike (same kinds, same displacement
    from the centre) share one pattern; the positions of a range all do.

    Attributes
    ----------
    offsets:
        The stencil offsets, in stencil order.
    kinds:
        How each offset resolved.
    deltas:
        For each grid read (INTERIOR or WRAPPED), its linear target minus the
        centre's linear index; ``None`` for constant and skipped accesses.
    constant_value:
        The value CONSTANT accesses substitute (``None`` if there are none).
    """

    offsets: Tuple[Tuple[int, ...], ...]
    kinds: Tuple[ResolutionKind, ...]
    deltas: Tuple[Optional[int], ...]
    constant_value: Optional[float] = None

    @cached_property
    def stream_offsets(self) -> Tuple[int, ...]:
        """The displacements of the grid reads, in stencil order."""
        return tuple(d for d in self.deltas if d is not None)

    @cached_property
    def shape_key(self) -> Tuple:
        """See :attr:`StreamTuple.shape_key`."""
        key = tuple(sorted(self.stream_offsets))
        n_const = self.kinds.count(ResolutionKind.CONSTANT)
        n_skip = self.kinds.count(ResolutionKind.SKIPPED)
        return key + ("const", n_const) + ("skip", n_skip) if (n_const or n_skip) else key


@dataclass(frozen=True)
class StreamTuple:
    """The tuple of accesses needed to compute one stream element.

    Attributes
    ----------
    position:
        Position in the stream (index into the iteration pattern).
    centre_linear:
        Linear index of the centre element in ``m``.
    pattern:
        How the stencil's accesses resolve relative to the centre.
    """

    position: int
    centre_linear: int
    pattern: AccessPattern

    @property
    def points(self) -> Tuple[ResolvedPoint, ...]:
        """The resolved stencil accesses (grid elements, constants or skipped)."""
        pattern, centre = self.pattern, self.centre_linear
        return tuple(
            ResolvedPoint(
                kind=kind,
                offset=offset,
                linear_index=None if delta is None else centre + delta,
                constant_value=(
                    pattern.constant_value if kind is ResolutionKind.CONSTANT else None
                ),
            )
            for kind, offset, delta in zip(pattern.kinds, pattern.offsets, pattern.deltas)
        )

    @property
    def stream_offsets(self) -> Tuple[int, ...]:
        """For each *existing* point, its offset in stream positions relative
        to the centre (``linear_index − centre_linear`` for a contiguous
        pattern).  This is the quantity whose spread defines the reach."""
        return self.pattern.stream_offsets

    @property
    def n_existing(self) -> int:
        """Number of accesses that read an actual grid element."""
        return len(self.stream_offsets)

    @property
    def reach(self) -> int:
        """max − min stream offset over the existing accesses (0 if <=1 access)."""
        return reach_of(self.stream_offsets)

    @property
    def max_abs_offset(self) -> int:
        """Largest absolute stream offset (useful for window sizing)."""
        if not self.stream_offsets:
            return 0
        return max(abs(o) for o in self.stream_offsets)

    @property
    def shape_key(self) -> Tuple[int, ...]:
        """Canonical key describing the tuple's shape (sorted stream offsets).

        Two stream positions belong to the same *stencil case* exactly when
        their shape keys are equal.  Skipped accesses are excluded; constant
        accesses are encoded as a sentinel so that e.g. a constant-padded
        corner is a different case from an open corner.
        """
        return self.pattern.shape_key


def reach_of(offsets: Sequence[int]) -> int:
    """The paper's *reach*: ``max(offsets) − min(offsets)`` (0 for empty/singleton)."""
    if len(offsets) <= 1:
        return 0
    return max(offsets) - min(offsets)


def tuple_for(
    grid: GridSpec,
    stencil: StencilShape,
    boundary: BoundarySpec,
    position: int,
    centre_linear: Optional[int] = None,
) -> StreamTuple:
    """Build the stream tuple for one stream position.

    ``centre_linear`` defaults to ``position`` (contiguous iteration pattern).
    """
    if centre_linear is None:
        centre_linear = position
    centre = grid.coord(centre_linear)
    points = boundary.resolve_stencil(grid, centre, stencil)
    pattern = AccessPattern(
        offsets=tuple(p.offset for p in points),
        kinds=tuple(p.kind for p in points),
        deltas=tuple(p.linear_index - centre_linear if p.exists else None for p in points),
        constant_value=next(
            (p.constant_value for p in points if p.kind is ResolutionKind.CONSTANT), None
        ),
    )
    return StreamTuple(position=position, centre_linear=centre_linear, pattern=pattern)


def resolved_tuples(
    stencil: StencilShape,
    boundary: BoundarySpec,
    positions: Sequence[int],
    centres: np.ndarray,
    kinds: np.ndarray,
    targets: np.ndarray,
) -> List[StreamTuple]:
    """Stream tuples from :func:`resolve_many` rows.

    ``kinds``/``targets`` hold one row per entry of ``centres``, as
    :func:`resolve_many` returns them; every tuple equals
    ``tuple_for(..., position, centre)``.  Rows with equal kinds and equal
    displacements from their centre share one :class:`AccessPattern`.
    """
    k = kinds.shape[1]
    deltas = np.where(targets >= 0, targets - centres[:, None], 0)
    ids: Dict[Tuple[int, ...], int] = {}
    pattern_ids = [
        ids.setdefault(tuple(row), len(ids))
        for row in np.concatenate([kinds, deltas], axis=1).tolist()
    ]
    patterns = [
        AccessPattern(
            offsets=stencil.offsets,
            kinds=tuple(KIND_CODES[code] for code in row[:k]),
            deltas=tuple(
                None if code in (CONSTANT, SKIPPED) else delta
                for code, delta in zip(row[:k], row[k:])
            ),
            constant_value=boundary.constant_value if CONSTANT in row[:k] else None,
        )
        for row in ids
    ]
    return [
        StreamTuple(position, centre, patterns[i])
        for position, centre, i in zip(positions, centres.tolist(), pattern_ids)
    ]


def stream_tuples(
    grid: GridSpec,
    stencil: StencilShape,
    boundary: BoundarySpec,
    pattern: Optional[IterationPattern] = None,
) -> Iterator[StreamTuple]:
    """Yield the stream tuple for every position of the iteration pattern."""
    if pattern is None:
        pattern = IterationPattern.contiguous(grid)
    for position, centre_linear in enumerate(pattern.indices()):
        yield tuple_for(grid, stencil, boundary, position, centre_linear)


def max_reach(
    grid: GridSpec,
    stencil: StencilShape,
    boundary: BoundarySpec,
    pattern: Optional[IterationPattern] = None,
) -> int:
    """The largest reach over the whole stream.

    For a grid with circular boundaries this is typically of the order of the
    whole grid size, which is exactly the situation static buffers address.
    Every position of a range shares its tuple shape, hence its reach.
    """
    from repro.core.ranges import StreamGeometry

    ranges = StreamGeometry.build(grid, stencil, boundary, pattern).ranges
    return max((r.reach for r in ranges), default=0)


def interior_reach(grid: GridSpec, stencil: StencilShape) -> int:
    """Reach of an interior (no boundary rule applied) element."""
    return stencil.interior_reach(grid.strides)


def access_histogram(
    grid: GridSpec,
    stencil: StencilShape,
    boundary: BoundarySpec,
) -> Dict[Tuple[int, ...], int]:
    """Histogram of tuple shapes over the stream.

    Returns a mapping from shape key to the number of stream positions having
    that shape.  For the paper's 11x11 example with circular top/bottom and
    open left/right boundaries this has exactly nine entries (4 corners,
    4 edges, 1 interior).
    """
    from repro.core.ranges import StreamGeometry

    hist: Dict[Tuple[int, ...], int] = {}
    for r in StreamGeometry.build(grid, stencil, boundary).ranges:
        key = r.representative.shape_key
        hist[key] = hist.get(key, 0) + r.length
    return hist
