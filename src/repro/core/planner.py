"""Buffer-configuration planning (the paper's Algorithm 1, generalised).

The planner answers the question: *given a stencil problem, which accesses are
served by the moving stream (window) buffer and which by static buffers, so
that total on-chip memory is minimised?*

Section II of the paper formalises the per-range trade-off: keeping a tuple
element in the stream buffer costs window *reach*, while moving it to a static
buffer costs one element per position of the range.  The global objective is

    ``total = max over ranges of (stream reach) + sum of static buffer sizes``

because a single physical stream buffer (the one with the largest reach)
serves all ranges.

Two planners are provided:

* :func:`plan_buffers` — the production planner.  It observes that the choice
  per range is really the choice of a single *global window* ``[lo, hi]`` of
  stream offsets: any access whose offset falls inside the window is free
  (it is in the stream buffer anyway), any access outside is offloaded to a
  static buffer.  Static buffers are then *merged* across ranges (the
  top-row/bottom-row buffers of the paper's example each serve three ranges:
  two corners and an edge).  The planner enumerates candidate windows drawn
  from the distinct offsets of the problem, which is exact for the global
  objective and cheap (the number of distinct offsets is tiny).  One sweep
  (:func:`_sweep`) scores every candidate in one array pass, splits the
  chosen window into static buffers and prices windows for the DSE
  (:func:`evaluate_window`).

* :func:`paper_algorithm1` — a literal transcription of the per-range
  pseudo-code from the paper, kept for comparison and used in the test-suite
  to check that the production planner never does worse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.boundary import BoundarySpec
from repro.core.buffers import (
    PIPELINE_SLACK,
    BufferPlan,
    RangePlan,
    StaticBufferSpec,
    StreamBufferSpec,
)
from repro.core.grid import GridSpec, IterationPattern
from repro.core.ranges import StreamGeometry, StreamRange, access_runs
from repro.core.stencil import StencilShape


# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #
#: Upper bound on the (candidate window x access run) cells one sweep holds.
_SWEEP_CELLS = 1 << 20
#: Below every grid index: the frontier before any run is offloaded.
_FLOOR = np.iinfo(np.int64).min


def _sweep(
    runs: Tuple[np.ndarray, np.ndarray, np.ndarray],
    los: np.ndarray,
    his: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Union of the access runs each candidate window ``[lo, hi]`` leaves static.

    ``runs`` are :func:`repro.core.ranges.access_runs` (sorted by start); a
    window offloads every run whose stream offset lies outside it.  Walking
    the runs in order with a running maximum of the offloaded ends (the
    *frontier*), a run opens a new static buffer where it starts beyond the
    frontier (adjacent runs merge) and adds ``end - max(start, frontier)``
    new elements.  Returns ``(offloaded, opens, added)``, each shaped
    ``(windows, runs)``.
    """
    starts, ends, offsets = runs
    offloaded = (offsets < los[:, None]) | (offsets > his[:, None])
    frontier = np.empty(offloaded.shape, dtype=np.int64)
    frontier[:, :1] = _FLOOR
    np.maximum.accumulate(np.where(offloaded, ends, _FLOOR)[:, :-1], axis=1, out=frontier[:, 1:])
    opens = offloaded & (starts > frontier)
    added = np.where(offloaded, np.maximum(ends - np.maximum(starts, frontier), 0), 0)
    return offloaded, opens, added


def _window_scores(
    runs: Tuple[np.ndarray, np.ndarray, np.ndarray],
    windows: Sequence[Tuple[int, int]],
) -> List[Tuple[int, int]]:
    """``(static_elements, n_static_buffers)`` of each candidate window."""
    scores: List[Tuple[int, int]] = []
    step = max(1, _SWEEP_CELLS // max(1, runs[0].size))
    for first in range(0, len(windows), step):
        los, his = np.array(windows[first:first + step], dtype=np.int64).reshape(-1, 2).T
        _, opens, added = _sweep(runs, los, his)
        scores += zip(added.sum(axis=1).tolist(), opens.sum(axis=1).tolist())
    return scores


def _static_runs(
    runs: Tuple[np.ndarray, np.ndarray, np.ndarray],
    window_lo: int,
    window_hi: int,
) -> Tuple[List[Tuple[int, int]], List[Tuple[int, ...]]]:
    """The merged ``[start, end)`` static buffers of one window, and the
    sorted stream offsets each one serves."""
    offloaded, opens, _ = _sweep(runs, np.array([window_lo]), np.array([window_hi]))
    keep = offloaded[0]
    starts, ends, offsets = (column[keep] for column in runs)
    opens = opens[0][keep]
    heads = opens.nonzero()[0]
    if not heads.size:
        return [], []
    merged = list(zip(starts[heads].tolist(), np.maximum.reduceat(ends, heads).tolist()))
    buffer_of = opens.cumsum() - 1
    serves: List[set] = [set() for _ in merged]
    for index, offset in zip(buffer_of.tolist(), offsets.tolist()):
        serves[index].add(offset)
    return merged, [tuple(sorted(offs)) for offs in serves]


def _candidate_windows(offsets: Sequence[int]) -> List[Tuple[int, int]]:
    """Candidate ``(lo, hi)`` windows drawn from the problem's distinct offsets."""
    distinct = set(offsets) | {0}
    los = sorted(o for o in distinct if o <= 0)
    his = sorted(o for o in distinct if o >= 0)
    return [(lo, hi) for lo in los for hi in his]


def _describe_run(grid: GridSpec, start: int, end: int, index: int) -> str:
    """Name a static buffer after the grid region it covers."""
    row_len = grid.shape[-1]
    if start % row_len == 0 and (end - start) % row_len == 0:
        first_row = start // row_len
        last_row = (end - start) // row_len + first_row - 1
        if first_row == last_row:
            return f"row{first_row}"
        return f"rows{first_row}-{last_row}"
    return f"static{index}"


# --------------------------------------------------------------------------- #
# the production planner
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class PlannerResult:
    """Intermediate planner outcome for one candidate window (used by DSE)."""

    window_lo: int
    window_hi: int
    stream_reach: int
    static_elements: int
    total_elements: int
    n_static_buffers: int
    feasible: bool


def evaluate_window(
    ranges: Sequence[StreamRange],
    window_lo: int,
    window_hi: int,
) -> PlannerResult:
    """Cost of one candidate window (without building the full plan)."""
    [(static_elements, n_static_buffers)] = _window_scores(
        access_runs(ranges), [(window_lo, window_hi)]
    )
    reach = window_hi - window_lo
    return PlannerResult(
        window_lo=window_lo,
        window_hi=window_hi,
        stream_reach=reach,
        static_elements=static_elements,
        total_elements=reach + static_elements,
        n_static_buffers=n_static_buffers,
        feasible=True,
    )


def optimal_split_for_range(
    r: StreamRange,
    max_stream_reach: Optional[int] = None,
) -> Tuple[Tuple[int, ...], Tuple[int, ...], int, int]:
    """Per-range optimal split (Section II, per-range view).

    Considers every contiguous sub-window of the sorted offsets that contains
    offset 0 and returns ``(kept, offloaded, stream_reach, static_elements)``
    minimising ``stream_reach + static_elements`` subject to the optional
    reach constraint.
    """
    offsets = sorted(set(r.stream_offsets) | {0})
    best = None
    for i, lo in enumerate(offsets):
        if lo > 0:
            break
        for hi in offsets[i:]:
            if hi < 0:
                continue
            reach = hi - lo
            if max_stream_reach is not None and reach > max_stream_reach:
                continue
            kept = tuple(o for o in r.stream_offsets if lo <= o <= hi)
            offloaded = tuple(o for o in r.stream_offsets if not (lo <= o <= hi))
            static = len(offloaded) * r.length
            total = reach + static
            cand = (total, reach, kept, offloaded, static)
            if best is None or cand[:2] < best[:2]:
                best = cand
    if best is None:
        # Unreachable with the {0} candidate always present, but keep a
        # defensive fallback: offload everything.
        offloaded = tuple(r.stream_offsets)
        return (), offloaded, 0, len(offloaded) * r.length
    _, reach, kept, offloaded, static = best
    return kept, offloaded, reach, static


def plan_buffers(
    grid: GridSpec,
    stencil: StencilShape,
    boundary: BoundarySpec,
    pattern: Optional[IterationPattern] = None,
    *,
    word_bits: Optional[int] = None,
    max_stream_reach: Optional[int] = None,
    max_total_bits: Optional[int] = None,
    double_buffer_statics: bool = True,
    slack: int = PIPELINE_SLACK,
    geometry: Optional[StreamGeometry] = None,
) -> BufferPlan:
    """Compute the globally optimal buffer configuration for a stencil problem.

    Parameters
    ----------
    grid, stencil, boundary, pattern:
        The stencil problem.  ``pattern`` defaults to contiguous streaming.
    word_bits:
        Element width; defaults to the grid's word size.
    max_stream_reach:
        Upper bound on the stream-buffer reach in elements (models an on-chip
        memory constraint); candidates above the bound are discarded.
    max_total_bits:
        Upper bound on total buffer bits.  If no candidate satisfies it the
        smallest-footprint candidate is returned (callers can check
        :attr:`BufferPlan.total_bits`).
    double_buffer_statics:
        Whether static buffers are double buffered (the paper's design).
    slack:
        Extra window slots beyond the reach (pipeline registers).
    geometry:
        The problem's precomputed :class:`StreamGeometry` (it must describe
        ``grid``/``stencil``/``boundary``/``pattern``).  Window scores are
        memoized on it, so problems differing only in the knobs above share
        one window scan.  Built here when omitted.
    """
    if word_bits is None:
        word_bits = grid.word_bits
    if geometry is None:
        geometry = StreamGeometry.build(grid, stencil, boundary, pattern)
    ranges = geometry.ranges
    if not ranges:
        raise ValueError("the stencil problem produced no stream ranges")

    static_bank_factor = 2 if double_buffer_statics else 1
    runs = geometry.access_runs
    scores = geometry.window_scores
    candidates = [
        (lo, hi)
        for lo, hi in _candidate_windows(runs[2].tolist())
        if max_stream_reach is None or hi - lo <= max_stream_reach
    ]
    unscored = [window for window in candidates if window not in scores]
    scores.update(zip(unscored, _window_scores(runs, unscored)))

    scored: List[Tuple[Tuple[int, int, int, int], Tuple[int, int]]] = []
    for lo, hi in candidates:
        reach = hi - lo
        static_elements, n_static_buffers = scores[(lo, hi)]
        total_bits = (reach + slack) * word_bits + (
            static_elements * word_bits * static_bank_factor
        )
        feasible = max_total_bits is None or total_bits <= max_total_bits
        # Rank: feasibility first, then total element cost, then fewer static
        # buffers, then smaller window.
        rank = (0 if feasible else 1, reach + static_elements, n_static_buffers, reach)
        scored.append((rank, (lo, hi)))

    if not scored:
        raise ValueError(
            "no candidate window satisfies max_stream_reach="
            f"{max_stream_reach}; relax the constraint"
        )
    # min() keeps the first of equal ranks, like a stable sort would.
    _, (lo, hi) = min(scored, key=lambda item: item[0])

    merged_runs, serves = _static_runs(runs, lo, hi)
    statics = tuple(
        StaticBufferSpec(
            name=_describe_run(grid, start, end, i),
            start=start,
            length=end - start,
            word_bits=word_bits,
            double_buffered=double_buffer_statics,
            serves_offsets=served,
        )
        for i, ((start, end), served) in enumerate(zip(merged_runs, serves))
    )

    # Ranges of one case share their stream offsets, hence their split.
    splits: Dict[Tuple[int, ...], Tuple[Tuple[int, ...], Tuple[int, ...], int]] = {}
    range_plans = []
    for r in ranges:
        offsets = r.representative.pattern.stream_offsets
        split = splits.get(offsets)
        if split is None:
            kept = tuple(o for o in offsets if lo <= o <= hi)
            offloaded = tuple(o for o in offsets if not (lo <= o <= hi))
            split = splits[offsets] = (kept, offloaded, (max(kept) - min(kept)) if kept else 0)
        kept, offloaded, reach = split
        range_plans.append(
            RangePlan(
                r.start, r.length, r.case_id, kept, offloaded, reach, len(offloaded) * r.length
            )
        )

    stream = StreamBufferSpec(
        reach=hi - lo,
        window_lo=lo,
        window_hi=hi,
        word_bits=word_bits,
        slack=slack,
    )
    return BufferPlan(
        grid=grid,
        stencil=stencil,
        boundary=boundary,
        stream=stream,
        statics=statics,
        range_plans=tuple(range_plans),
    )


# --------------------------------------------------------------------------- #
# literal Algorithm 1 (per-range, no static-buffer merging)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Algorithm1Result:
    """Outcome of the paper's per-range algorithm."""

    per_range_stream: Tuple[int, ...]
    per_range_static: Tuple[int, ...]
    total_elements: int


def paper_algorithm1(ranges: Sequence[StreamRange]) -> Algorithm1Result:
    """Literal transcription of Algorithm 1 from the paper.

    For each range the offsets are ordered by increasing distance from the
    centre; keeping the ``i+1`` nearest offsets in the stream buffer costs
    their reach, and each remaining offset costs one static element per range
    position.  (The paper's pseudo-code prints the static cost as ``i * R_j``;
    from the surrounding text the intended quantity is the number of
    *offloaded* elements times the range size, which is what is implemented
    here.)  The global cost is ``max(stream) + sum(static)`` — note that,
    unlike :func:`plan_buffers`, static buffers are **not** merged across
    ranges, so this is an upper bound on the production planner's cost.
    """
    per_stream: List[int] = []
    per_static: List[int] = []
    for r in ranges:
        offsets = sorted(set(r.stream_offsets) | {0}, key=lambda o: (abs(o), o))
        n = len(offsets)
        best_total = None
        best = (0, 0)
        for i in range(n):
            kept = offsets[: i + 1]
            stream_i = max(kept) - min(kept)
            offloaded = n - 1 - i
            static_i = offloaded * r.length
            total_i = stream_i + static_i
            if best_total is None or total_i < best_total:
                best_total = total_i
                best = (stream_i, static_i)
        per_stream.append(best[0])
        per_static.append(best[1])
    total = (max(per_stream) if per_stream else 0) + sum(per_static)
    return Algorithm1Result(
        per_range_stream=tuple(per_stream),
        per_range_static=tuple(per_static),
        total_elements=total,
    )
