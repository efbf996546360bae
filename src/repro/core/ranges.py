"""Partitioning the stream into ranges of identical stencil cases.

Section II of the paper divides the stream into ``k`` non-overlapping ranges,
each with a fixed tuple shape; the buffer-configuration algorithm then works
per range.  For the paper's 11x11 validation grid (4-point stencil, circular
top/bottom boundaries, open left/right boundaries) there are nine distinct
*cases* — 4 corners, 4 edges, 1 interior — and, because cases interleave along
the stream, considerably more *ranges* (each row of the grid contributes a
left-edge range, an interior range and a right-edge range).

Both partitioners resolve boundaries with NumPy, through
:func:`repro.core.boundary.resolve_many`, never one access at a time:

* the *banded* partitioner, for contiguous iteration patterns, resolves one
  position per (row, band) pair (:func:`resolve_bands`) in a single call, so
  the paper's 1024x1024 grid costs ~3k resolved positions, not a million;
* the *enumerating* partitioner, for any other iteration pattern, resolves
  every position in bounded chunks and cuts a range wherever the shape row
  of a position differs from the one before.

Case ids are numbered in first-seen stream order.  The per-position
``tuple_for`` partition these replaced is kept in the test-suite as their
oracle.  :func:`resolve_bands` also serves the reference executor's gather
plans (:mod:`repro.reference.stencil_exec`).

:class:`StreamGeometry` bundles a partition with its case count, its access
runs and the planner's per-window scores, so a compile batch partitions each
distinct (grid, stencil, boundary, pattern) once and shares the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.access import StreamTuple, resolved_tuples
from repro.core.boundary import CONSTANT, BoundarySpec, resolve_many
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


def _ranges(
    starts: Sequence[int],
    lengths: Sequence[int],
    representatives: Sequence[StreamTuple],
) -> List[StreamRange]:
    """Stream ranges with case ids numbered in first-seen order of their shapes."""
    case_ids: Dict[Tuple, int] = {}
    return [
        StreamRange(start, length, case_ids.setdefault(rep.shape_key, len(case_ids)), rep)
        for start, length, rep in zip(starts, lengths, representatives)
    ]


def resolve_bands(
    grid: GridSpec,
    stencil: StencilShape,
    boundary: BoundarySpec,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Resolve the contiguous stream one (row, band) pair at a time.

    Every row of the innermost dimension (the one contiguous in the stream)
    splits into the bands of :func:`_dimension_bands`.  The positions of one
    pair share their row and cross no inner edge, so they resolve alike: same
    kinds, targets displaced by the distance from the pair's first position.
    Only those first positions are resolved, in one :func:`resolve_many`
    call.  Returns ``(starts, lengths, kinds, targets)``, pairs in stream order.
    """
    inner = grid.ndim - 1
    lo, hi = stencil.extent(inner)
    bands = np.asarray(
        _dimension_bands(grid.shape[inner], max(0, -lo), max(0, hi)), dtype=np.int64
    )
    row_starts = np.arange(0, grid.size, grid.shape[inner], dtype=np.int64)
    starts = (row_starts[:, None] + bands[:, 0]).reshape(-1)
    lengths = np.tile(bands[:, 1], len(row_starts))
    kinds, targets = resolve_many(grid, stencil, boundary, starts)
    return starts, lengths, kinds, targets


def _banded_partition(
    grid: GridSpec,
    stencil: StencilShape,
    boundary: BoundarySpec,
) -> List[StreamRange]:
    """Analytic partitioner for the contiguous (row-major) iteration pattern:
    one range per (row, band) pair of :func:`resolve_bands`."""
    starts, lengths, kinds, targets = resolve_bands(grid, stencil, boundary)
    positions = starts.tolist()
    reps = resolved_tuples(stencil, boundary, positions, starts, kinds, targets)
    return _ranges(positions, lengths.tolist(), reps)


#: Positions an enumerating partition resolves per :func:`resolve_many` call.
_CHUNK = 1 << 15


def _enumerating_partition(
    grid: GridSpec,
    stencil: StencilShape,
    boundary: BoundarySpec,
    pattern: IterationPattern,
    max_positions: int = 2_000_000,
) -> List[StreamRange]:
    """Generic partitioner: resolve every position and merge equal-shaped runs.

    Positions are resolved in chunks of :data:`_CHUNK`.  A run ends where a
    position's shape row (its sorted stream offsets, missing accesses last,
    then its constant count) differs from the previous position's.
    """
    if len(pattern) > max_positions:
        raise ValueError(
            f"iteration pattern has {len(pattern)} positions, above the enumeration "
            f"limit of {max_positions}; use a contiguous pattern for the analytic path"
        )
    centres = np.fromiter(pattern.indices(), dtype=np.int64, count=len(pattern))
    missing = np.iinfo(np.int64).max
    run_starts: List[int] = []
    reps: List[StreamTuple] = []
    previous = None
    for first in range(0, len(centres), _CHUNK):
        chunk = centres[first:first + _CHUNK]
        kinds, targets = resolve_many(grid, stencil, boundary, chunk)
        rows = np.sort(np.where(targets >= 0, targets - chunk[:, None], missing), axis=1)
        rows = np.column_stack([rows, (kinds == CONSTANT).sum(axis=1)])
        changed = np.empty(len(rows), dtype=bool)
        changed[0] = previous is None or not np.array_equal(rows[0], previous)
        changed[1:] = (rows[1:] != rows[:-1]).any(axis=1)
        previous = rows[-1]
        new = np.flatnonzero(changed)
        positions = (new + first).tolist()
        run_starts += positions
        reps += resolved_tuples(
            stencil, boundary, positions, chunk[new], kinds[new], targets[new]
        )
    lengths = np.diff(run_starts + [len(centres)]).tolist()
    return _ranges(run_starts, lengths, reps)


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


def access_runs(ranges: Sequence[StreamRange]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The grid elements each (range, stream offset) pair reads, as runs.

    A range of length ``L`` starting at ``s`` reads ``[s + o, s + o + L)``
    through stream offset ``o``.  Returns ``(starts, ends, offsets)`` of every
    such run, sorted by start.
    """
    per_range = [r.representative.pattern.stream_offsets for r in ranges]
    offsets = np.array([o for offs in per_range for o in offs], dtype=np.int64)
    counts = [len(offs) for offs in per_range]
    starts = np.repeat(np.array([r.start for r in ranges], dtype=np.int64), counts)
    lengths = np.repeat(np.array([r.length for r in ranges], dtype=np.int64), counts)
    starts += offsets
    ends = starts + lengths
    order = starts.argsort(kind="stable")
    return starts[order], ends[order], offsets[order]


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
    fills it on first use (see :func:`repro.core.planner.plan_buffers`), from
    the :attr:`access_runs` it scans.
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
        return cls(ranges=ranges, n_cases=len({r.case_id for r in ranges}))

    @cached_property
    def access_runs(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:func:`access_runs` of the ranges, computed on first use."""
        return access_runs(self.ranges)


def n_cases(
    grid: GridSpec,
    stencil: StencilShape,
    boundary: BoundarySpec,
) -> int:
    """Number of distinct stencil cases (the paper's nine for the 11x11 example)."""
    return len(classify_cases(partition_into_ranges(grid, stencil, boundary)))
