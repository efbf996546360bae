"""Partitioning the stream into ranges of identical stencil cases.

Section II of the paper divides the stream into ``k`` non-overlapping ranges,
each with a fixed tuple shape; the buffer-configuration algorithm then works
per range.  For the paper's 11x11 validation grid (4-point stencil, circular
top/bottom boundaries, open left/right boundaries) there are nine distinct
*cases* — 4 corners, 4 edges, 1 interior — and, because cases interleave along
the stream, considerably more *ranges* (each row of the grid contributes a
left-edge range, an interior range and a right-edge range).

Two implementations are provided:

* an analytic *banded* partitioner for contiguous iteration patterns, which
  scales to the paper's 1024x1024 grid without enumerating a million tuples;
* a generic enumerating partitioner used for arbitrary iteration patterns and
  as a cross-check in the test-suite.

:class:`StreamGeometry` bundles a partition with its case count and the
planner's per-window scores, so a compile batch partitions each distinct
(grid, stencil, boundary, pattern) once and shares the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.access import StreamTuple, tuple_for
from repro.core.boundary import BoundarySpec
from repro.core.grid import GridSpec, IterationPattern
from repro.core.stencil import StencilShape


@dataclass(frozen=True)
class StreamRange:
    """A maximal run of consecutive stream positions sharing one tuple shape."""

    start: int
    length: int
    case_id: int
    representative: StreamTuple

    @property
    def end(self) -> int:
        """One past the last stream position of the range."""
        return self.start + self.length

    @property
    def stream_offsets(self) -> Tuple[int, ...]:
        """Stream offsets of the existing accesses (shared by the whole range)."""
        return self.representative.stream_offsets

    @property
    def reach(self) -> int:
        """Reach of the range's tuple."""
        return self.representative.reach

    @property
    def n_points(self) -> int:
        """Number of existing accesses per tuple in this range."""
        return self.representative.n_existing


@dataclass(frozen=True)
class CaseInfo:
    """Aggregate information about one stencil case (a set of ranges)."""

    case_id: int
    shape_key: Tuple
    n_ranges: int
    n_positions: int
    reach: int
    representative: StreamTuple


def _dimension_bands(extent: int, lo_radius: int, hi_radius: int) -> List[Tuple[int, int]]:
    """Split one dimension into bands of indices with identical boundary behaviour.

    Indices closer to an edge than the stencil radius behave individually
    (different subsets of offsets cross the edge); the remaining middle
    indices form a single interior band.
    """
    if extent <= lo_radius + hi_radius:
        # Degenerate: every index may interact with a boundary differently.
        return [(i, 1) for i in range(extent)]
    bands: List[Tuple[int, int]] = [(i, 1) for i in range(lo_radius)]
    bands.append((lo_radius, extent - lo_radius - hi_radius))
    bands.extend((extent - hi_radius + i, 1) for i in range(hi_radius))
    return bands


def _banded_partition(
    grid: GridSpec,
    stencil: StencilShape,
    boundary: BoundarySpec,
) -> List[StreamRange]:
    """Analytic partitioner for the contiguous (row-major) iteration pattern."""
    radii_lo = []
    radii_hi = []
    for d in range(grid.ndim):
        lo, hi = stencil.extent(d)
        radii_lo.append(max(0, -lo))
        radii_hi.append(max(0, hi))

    inner = grid.ndim - 1
    inner_bands = _dimension_bands(grid.shape[inner], radii_lo[inner], radii_hi[inner])

    outer_bands_per_dim = [
        _dimension_bands(grid.shape[d], radii_lo[d], radii_hi[d]) for d in range(inner)
    ]

    # Enumerate outer coordinates row by row so that ranges come out already in
    # stream order; the band decomposition is only applied to the innermost
    # dimension, which is the one that is contiguous in the stream.
    ranges: List[StreamRange] = []
    case_ids: Dict[Tuple, int] = {}

    def outer_coords(dim: int, prefix: Tuple[int, ...]):
        if dim == inner:
            yield prefix
            return
        for start, length in outer_bands_per_dim[dim]:
            for idx in range(start, start + length):
                yield from outer_coords(dim + 1, prefix + (idx,))

    for prefix in outer_coords(0, ()):
        for start, length in inner_bands:
            centre = prefix + (start,)
            centre_linear = grid.linear_index(centre)
            rep = tuple_for(grid, stencil, boundary, centre_linear, centre_linear)
            key = rep.shape_key
            case_id = case_ids.setdefault(key, len(case_ids))
            ranges.append(
                StreamRange(
                    start=centre_linear,
                    length=length,
                    case_id=case_id,
                    representative=rep,
                )
            )
    return ranges


def _enumerating_partition(
    grid: GridSpec,
    stencil: StencilShape,
    boundary: BoundarySpec,
    pattern: IterationPattern,
    max_positions: int = 2_000_000,
) -> List[StreamRange]:
    """Generic partitioner: walk every position and merge equal-shaped runs."""
    if len(pattern) > max_positions:
        raise ValueError(
            f"iteration pattern has {len(pattern)} positions, above the enumeration "
            f"limit of {max_positions}; use a contiguous pattern for the analytic path"
        )
    ranges: List[StreamRange] = []
    case_ids: Dict[Tuple, int] = {}
    current_key = None
    current_start = 0
    current_rep: Optional[StreamTuple] = None
    count = 0

    for position, centre_linear in enumerate(pattern.indices()):
        t = tuple_for(grid, stencil, boundary, position, centre_linear)
        key = t.shape_key
        if key != current_key:
            if current_rep is not None:
                case_id = case_ids.setdefault(current_key, len(case_ids))
                ranges.append(
                    StreamRange(
                        start=current_start,
                        length=count,
                        case_id=case_id,
                        representative=current_rep,
                    )
                )
            current_key = key
            current_start = position
            current_rep = t
            count = 0
        count += 1
    if current_rep is not None:
        case_id = case_ids.setdefault(current_key, len(case_ids))
        ranges.append(
            StreamRange(
                start=current_start, length=count, case_id=case_id, representative=current_rep
            )
        )
    return ranges


def partition_into_ranges(
    grid: GridSpec,
    stencil: StencilShape,
    boundary: BoundarySpec,
    pattern: Optional[IterationPattern] = None,
) -> List[StreamRange]:
    """Divide the stream into non-overlapping ranges of constant tuple shape.

    For contiguous iteration patterns the analytic banded partitioner is used
    (it never enumerates more positions than ``number of rows x bands``); for
    other patterns the positions are enumerated directly.
    """
    if pattern is None or pattern.is_contiguous():
        return _banded_partition(grid, stencil, boundary)
    return _enumerating_partition(grid, stencil, boundary, pattern)


def classify_cases(ranges: Sequence[StreamRange]) -> Dict[int, CaseInfo]:
    """Aggregate ranges by case id (tuple shape)."""
    # case id -> [first range, range count, position count]
    totals: Dict[int, list] = {}
    for r in ranges:
        entry = totals.setdefault(r.case_id, [r, 0, 0])
        entry[1] += 1
        entry[2] += r.length
    return {
        case_id: CaseInfo(
            case_id=case_id,
            shape_key=first.representative.shape_key,
            n_ranges=count,
            n_positions=positions,
            reach=first.reach,
            representative=first.representative,
        )
        for case_id, (first, count, positions) in totals.items()
    }


@dataclass(frozen=True, eq=False)
class StreamGeometry:
    """The stream structure of one problem, computed once and shared.

    Everything here depends only on (grid, stencil, boundary, pattern): the
    range partition, its case count and the planner's per-window scores.
    Knobs such as the reach limit, the word width or the buffer mode do not
    change any of it, so the compile stages of every problem sharing those
    four inputs can take one geometry instead of re-partitioning.

    ``window_scores`` maps a candidate window ``(lo, hi)`` to the scalars the
    planner ranks it by, ``(static_elements, n_static_buffers)``; the planner
    fills it on first use (see :func:`repro.core.planner.plan_buffers`).
    """

    ranges: Tuple[StreamRange, ...]
    n_cases: int
    window_scores: Dict[Tuple[int, int], Tuple[int, int]] = field(
        default_factory=dict, repr=False
    )

    @classmethod
    def build(
        cls,
        grid: GridSpec,
        stencil: StencilShape,
        boundary: BoundarySpec,
        pattern: Optional[IterationPattern] = None,
    ) -> "StreamGeometry":
        """Partition the stream once and count its cases."""
        ranges = tuple(partition_into_ranges(grid, stencil, boundary, pattern))
        return cls(ranges=ranges, n_cases=len(classify_cases(ranges)))


def n_cases(
    grid: GridSpec,
    stencil: StencilShape,
    boundary: BoundarySpec,
) -> int:
    """Number of distinct stencil cases (the paper's nine for the 11x11 example)."""
    return len(classify_cases(partition_into_ranges(grid, stencil, boundary)))
