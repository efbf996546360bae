"""Parity of the vectorized boundary resolution with its scalar oracles.

Every consumer of boundary resolution (range partition, window scan,
reference gather plan, simulator access table) is built on
:func:`repro.core.boundary.resolve_many`.  This module keeps the per-cell
implementations they replaced, built on :meth:`BoundarySpec.resolve` and
:func:`repro.core.access.tuple_for`, and checks on generated problems that
each vectorized result equals its oracle's.
"""

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.access_table import AccessTable, PointAccess, ResolvedAccess
from repro.core.access import StreamTuple, access_histogram, max_reach, tuple_for
from repro.core.boundary import (
    KIND_CODES,
    BoundaryKind,
    BoundarySpec,
    EdgeBehaviour,
    ResolutionKind,
    resolve_many,
)
from repro.core.buffers import (
    PIPELINE_SLACK,
    BufferPlan,
    RangePlan,
    StaticBufferSpec,
    StreamBufferSpec,
)
from repro.core.grid import GridSpec, IterationPattern
from repro.core.planner import _describe_run, evaluate_window, plan_buffers
from repro.core.ranges import (
    StreamGeometry,
    StreamRange,
    _banded_partition,
    _dimension_bands,
    _enumerating_partition,
)
from repro.core.stencil import StencilShape
from repro.reference.stencil_exec import build_gather_plan


# --------------------------------------------------------------------------- #
# generated problems
# --------------------------------------------------------------------------- #
@st.composite
def problems(draw, max_extent: int = 6):
    """1-3-D grids (extent 1 and extents within the stencil radius included),
    offsets up to twice each extent, every edge kind on each side."""
    ndim = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, max_extent)) for _ in range(ndim))
    offset = st.tuples(*(st.integers(-2 * e, 2 * e) for e in shape))
    offsets = draw(st.lists(offset, min_size=1, max_size=6, unique=True))
    kind = st.sampled_from(list(BoundaryKind))
    edges = tuple(EdgeBehaviour(low=draw(kind), high=draw(kind)) for _ in range(ndim))
    constant = draw(st.floats(-4, 4, allow_nan=False, width=32))
    return (
        GridSpec(shape=shape),
        StencilShape.from_offsets(offsets),
        BoundarySpec(edges=edges, constant_value=constant),
    )


# --------------------------------------------------------------------------- #
# scalar oracles (the per-cell implementations the vectorized paths replaced)
# --------------------------------------------------------------------------- #
def oracle_banded_partition(grid, stencil, boundary) -> List[StreamRange]:
    """One ``tuple_for`` per (row, band) pair of the contiguous stream."""
    inner = grid.ndim - 1
    lo, hi = stencil.extent(inner)
    bands = _dimension_bands(grid.shape[inner], max(0, -lo), max(0, hi))
    ranges: List[StreamRange] = []
    case_ids: Dict[Tuple, int] = {}
    for row_start in range(0, grid.size, grid.shape[inner]):
        for start, length in bands:
            centre = row_start + start
            rep = tuple_for(grid, stencil, boundary, centre, centre)
            case_id = case_ids.setdefault(rep.shape_key, len(case_ids))
            ranges.append(StreamRange(centre, length, case_id, rep))
    return ranges


def oracle_enumerating_partition(grid, stencil, boundary, pattern) -> List[StreamRange]:
    """One ``tuple_for`` per position, merging equal-shaped neighbours."""
    ranges: List[StreamRange] = []
    case_ids: Dict[Tuple, int] = {}
    run: Optional[Tuple[int, StreamTuple]] = None
    positions = list(pattern.indices())
    for position, centre in enumerate(positions + [None]):
        t = None if centre is None else tuple_for(grid, stencil, boundary, position, centre)
        if run is not None and (t is None or t.shape_key != run[1].shape_key):
            start, rep = run
            case_id = case_ids.setdefault(rep.shape_key, len(case_ids))
            ranges.append(StreamRange(start, position - start, case_id, rep))
            run = None
        if run is None and t is not None:
            run = (position, t)
    return ranges


def oracle_merge_runs(runs: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Merge overlapping or adjacent ``[start, end)`` runs."""
    merged: List[List[int]] = []
    for start, end in sorted(runs):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(s, e) for s, e in merged]


def oracle_static_runs(ranges, lo, hi) -> List[Tuple[int, int]]:
    return oracle_merge_runs(
        [
            (r.start + o, r.start + o + r.length)
            for r in ranges
            for o in r.stream_offsets
            if not (lo <= o <= hi)
        ]
    )


def oracle_window_score(ranges, lo, hi) -> Tuple[int, int]:
    runs = oracle_static_runs(ranges, lo, hi)
    return sum(end - start for start, end in runs), len(runs)


def oracle_plan(
    grid, stencil, boundary, ranges, *, word_bits=None, max_stream_reach=None,
    max_total_bits=None, double_buffer_statics=True, slack=PIPELINE_SLACK,
) -> BufferPlan:
    """The planner with one ``_static_runs`` scan per candidate window."""
    if word_bits is None:
        word_bits = grid.word_bits
    offsets = {o for r in ranges for o in r.stream_offsets}
    los = sorted({o for o in offsets if o < 0} | {0})
    his = sorted({o for o in offsets if o > 0} | {0})
    scored = []
    for lo in los:
        for hi in his:
            reach = hi - lo
            if max_stream_reach is not None and reach > max_stream_reach:
                continue
            static_elements, n_static = oracle_window_score(ranges, lo, hi)
            total_bits = (reach + slack) * word_bits + static_elements * word_bits * (
                2 if double_buffer_statics else 1
            )
            feasible = max_total_bits is None or total_bits <= max_total_bits
            scored.append(((0 if feasible else 1, reach + static_elements, n_static, reach), (lo, hi)))
    if not scored:
        raise ValueError("no candidate window")
    _, (lo, hi) = min(scored, key=lambda item: item[0])
    merged = oracle_static_runs(ranges, lo, hi)
    splits = [
        (
            tuple(o for o in r.stream_offsets if lo <= o <= hi),
            tuple(o for o in r.stream_offsets if not (lo <= o <= hi)),
        )
        for r in ranges
    ]
    serves: Dict[Tuple[int, int], set] = {run: set() for run in merged}
    for r, (_, offloaded) in zip(ranges, splits):
        for o in offloaded:
            for run in merged:
                if run[0] <= r.start + o < run[1]:
                    serves[run].add(o)
                    break
    statics = tuple(
        StaticBufferSpec(
            name=_describe_run(grid, start, end, i),
            start=start,
            length=end - start,
            word_bits=word_bits,
            double_buffered=double_buffer_statics,
            serves_offsets=tuple(sorted(serves[(start, end)])),
        )
        for i, (start, end) in enumerate(merged)
    )
    range_plans = tuple(
        RangePlan(
            range_start=r.start,
            range_length=r.length,
            case_id=r.case_id,
            kept_offsets=kept,
            offloaded_offsets=offloaded,
            stream_reach=(max(kept) - min(kept)) if kept else 0,
            static_elements=len(offloaded) * r.length,
        )
        for r, (kept, offloaded) in zip(ranges, splits)
    )
    stream = StreamBufferSpec(reach=hi - lo, window_lo=lo, window_hi=hi, word_bits=word_bits, slack=slack)
    return BufferPlan(grid, stencil, boundary, stream, statics, range_plans)


def oracle_gather_groups(grid, stencil, boundary) -> List[Tuple]:
    """``(rows, offsets, index, constant_columns)`` per signature group."""
    buckets: Dict[Tuple, Dict[str, list]] = {}
    for linear in range(grid.size):
        signature, indices, offsets, constants = [], [], [], []
        for point in boundary.resolve_stencil(grid, grid.coord(linear), stencil):
            if point.kind is ResolutionKind.SKIPPED:
                continue
            if point.kind is ResolutionKind.CONSTANT:
                constants.append((len(indices), float(point.constant_value)))
                signature.append((point.offset, "c", float(point.constant_value)))
                indices.append(0)
            else:
                signature.append((point.offset, "g", point.linear_index - linear))
                indices.append(point.linear_index)
            offsets.append(point.offset)
        bucket = buckets.setdefault(
            tuple(signature),
            {"offsets": offsets, "constants": constants, "rows": [], "index": []},
        )
        bucket["rows"].append(linear)
        bucket["index"].append(indices)
    return [
        (
            b["rows"],
            tuple(b["offsets"]),
            np.asarray(b["index"], dtype=np.intp).reshape(len(b["rows"]), len(b["offsets"])),
            tuple(b["constants"]),
        )
        for b in buckets.values()
    ]


def oracle_access_points(grid, stencil, boundary) -> List[PointAccess]:
    points = []
    for linear in range(grid.size):
        accesses = []
        for point in boundary.resolve_stencil(grid, grid.coord(linear), stencil):
            if point.kind is ResolutionKind.SKIPPED:
                accesses.append(ResolvedAccess(offset=point.offset, kind=point.kind))
            elif point.kind is ResolutionKind.CONSTANT:
                accesses.append(
                    ResolvedAccess(point.offset, point.kind, constant=point.constant_value)
                )
            else:
                accesses.append(ResolvedAccess(point.offset, point.kind, target=point.linear_index))
        points.append(PointAccess(linear=linear, accesses=tuple(accesses)))
    return points


# --------------------------------------------------------------------------- #
# parity
# --------------------------------------------------------------------------- #
class TestResolveMany:
    @given(problem=problems())
    @settings(max_examples=150, deadline=None)
    def test_equals_scalar_resolve_element_by_element(self, problem):
        grid, stencil, boundary = problem
        kinds, targets = resolve_many(grid, stencil, boundary, np.arange(grid.size))
        assert kinds.shape == targets.shape == (grid.size, stencil.n_points)
        for linear in range(grid.size):
            centre = grid.coord(linear)
            for j, offset in enumerate(stencil.offsets):
                point = boundary.resolve(grid, centre, offset)
                assert KIND_CODES[kinds[linear, j]] is point.kind
                expected = point.linear_index if point.linear_index is not None else -1
                assert targets[linear, j] == expected

    def test_corner_checks_dimensions_in_order(self):
        # dim 0 is open, dim 1 constant: an access crossing both is skipped,
        # and with the order swapped it is a constant
        grid = GridSpec(shape=(3, 3))
        stencil = StencilShape.from_offsets([(-1, -1)])
        open_first = BoundarySpec.per_dimension([BoundaryKind.OPEN, BoundaryKind.CONSTANT])
        constant_first = BoundarySpec.per_dimension([BoundaryKind.CONSTANT, BoundaryKind.OPEN])
        assert KIND_CODES[resolve_many(grid, stencil, open_first, [0])[0][0, 0]] is (
            ResolutionKind.SKIPPED
        )
        assert KIND_CODES[resolve_many(grid, stencil, constant_first, [0])[0][0, 0]] is (
            ResolutionKind.CONSTANT
        )

    def test_arity_mismatch_raises(self):
        with pytest.raises(ValueError):
            resolve_many(
                GridSpec(shape=(4, 4)), StencilShape.four_point_2d(), BoundarySpec.all_open(1), [0]
            )


class TestPartitionParity:
    @given(problem=problems())
    @settings(max_examples=100, deadline=None)
    def test_banded_partition_equals_oracle(self, problem):
        grid, stencil, boundary = problem
        ranges = _banded_partition(grid, stencil, boundary)
        assert ranges == oracle_banded_partition(grid, stencil, boundary)
        for r in ranges:
            rep = r.representative
            assert rep.points == boundary.resolve_stencil(
                grid, grid.coord(rep.centre_linear), stencil
            )

    @given(problem=problems())
    @settings(max_examples=100, deadline=None)
    def test_enumerating_partition_equals_oracle(self, problem):
        grid, stencil, boundary = problem
        pattern = IterationPattern.contiguous(grid)
        assert _enumerating_partition(grid, stencil, boundary, pattern) == (
            oracle_enumerating_partition(grid, stencil, boundary, pattern)
        )

    @given(problem=problems(), stride=st.integers(2, 5), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_non_contiguous_patterns_equal_oracle(self, problem, stride, data):
        grid, stencil, boundary = problem
        explicit = data.draw(st.lists(st.integers(0, grid.size - 1), min_size=1, max_size=40))
        for pattern in (
            IterationPattern.strided(grid, stride),
            IterationPattern.from_indices(grid, explicit),
        ):
            assert _enumerating_partition(grid, stencil, boundary, pattern) == (
                oracle_enumerating_partition(grid, stencil, boundary, pattern)
            )

    def test_enumerating_partition_spans_chunks(self, monkeypatch):
        from repro.core import ranges as ranges_module

        monkeypatch.setattr(ranges_module, "_CHUNK", 7)
        grid = GridSpec(shape=(9, 8))
        stencil = StencilShape.four_point_2d()
        boundary = BoundarySpec.paper_2d()
        pattern = IterationPattern.strided(grid, 3)
        assert _enumerating_partition(grid, stencil, boundary, pattern) == (
            oracle_enumerating_partition(grid, stencil, boundary, pattern)
        )

    @given(problem=problems())
    @settings(max_examples=60, deadline=None)
    def test_access_model_derives_from_ranges(self, problem):
        grid, stencil, boundary = problem
        tuples = [tuple_for(grid, stencil, boundary, i) for i in range(grid.size)]
        assert max_reach(grid, stencil, boundary) == max(t.reach for t in tuples)
        hist: Dict[Tuple, int] = {}
        for t in tuples:
            hist[t.shape_key] = hist.get(t.shape_key, 0) + 1
        assert list(access_histogram(grid, stencil, boundary).items()) == list(hist.items())


class TestWindowScanParity:
    @given(
        problem=problems(max_extent=8),
        max_stream_reach=st.none() | st.integers(0, 40),
        max_total_bits=st.none() | st.integers(0, 4000),
        double=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_plan_equals_oracle_scan(self, problem, max_stream_reach, max_total_bits, double):
        grid, stencil, boundary = problem
        geometry = StreamGeometry.build(grid, stencil, boundary)
        knobs = dict(
            max_stream_reach=max_stream_reach,
            max_total_bits=max_total_bits,
            double_buffer_statics=double,
        )
        try:
            expected = oracle_plan(grid, stencil, boundary, geometry.ranges, **knobs)
        except ValueError:
            with pytest.raises(ValueError):
                plan_buffers(grid, stencil, boundary, geometry=geometry, **knobs)
            return
        # twice: the second plan ranks from the geometry's score memo
        assert plan_buffers(grid, stencil, boundary, geometry=geometry, **knobs) == expected
        assert plan_buffers(grid, stencil, boundary, geometry=geometry, **knobs) == expected

    @given(problem=problems(max_extent=8), lo=st.integers(-30, 0), hi=st.integers(0, 30))
    @settings(max_examples=80, deadline=None)
    def test_evaluate_window_equals_oracle(self, problem, lo, hi):
        ranges = StreamGeometry.build(*problem).ranges
        result = evaluate_window(ranges, lo, hi)
        assert (result.static_elements, result.n_static_buffers) == oracle_window_score(
            ranges, lo, hi
        )

    def test_paper_scale_plan_equals_oracle(self):
        grid = GridSpec(shape=(48, 33))
        stencil, boundary = StencilShape.four_point_2d(), BoundarySpec.paper_2d()
        geometry = StreamGeometry.build(grid, stencil, boundary)
        assert plan_buffers(grid, stencil, boundary, geometry=geometry) == oracle_plan(
            grid, stencil, boundary, geometry.ranges
        )


class TestExecutorTablesParity:
    @given(problem=problems())
    @settings(max_examples=100, deadline=None)
    def test_gather_plan_equals_oracle(self, problem):
        grid, stencil, boundary = problem
        plan = build_gather_plan(grid, stencil, boundary)
        expected = oracle_gather_groups(grid, stencil, boundary)
        assert plan.size == grid.size
        assert len(plan.groups) == len(expected)
        for group, (rows, offsets, index, constants) in zip(plan.groups, expected):
            assert group.rows.tolist() == rows
            assert group.offsets == offsets
            assert group.index.shape == index.shape
            assert np.array_equal(group.index, index)
            assert group.constant_columns == constants

    def test_interior_and_wrapped_reads_share_a_group(self):
        # at (2, 0) the row clamps back by one and the column wraps forward a
        # whole row: the read lands where an interior one would, +3 away
        grid = GridSpec(shape=(3, 4))
        stencil = StencilShape.from_offsets([(1, -1)])
        boundary = BoundarySpec.per_dimension([BoundaryKind.CLAMP, BoundaryKind.CIRCULAR])
        plan = build_gather_plan(grid, stencil, boundary)
        expected = oracle_gather_groups(grid, stencil, boundary)
        assert expected[1][0] == [1, 2, 3, 5, 6, 7, 8]
        assert [group.rows.tolist() for group in plan.groups] == [g[0] for g in expected]

    @given(problem=problems())
    @settings(max_examples=100, deadline=None)
    def test_access_table_equals_oracle(self, problem):
        grid, stencil, boundary = problem
        table = AccessTable(grid, stencil, boundary)
        assert [table[i] for i in range(len(table))] == oracle_access_points(
            grid, stencil, boundary
        )


class TestNoScalarResolution:
    """Compile and system set-up resolve through arrays only."""

    @pytest.fixture
    def resolve_calls(self, monkeypatch):
        calls = []
        original = BoundarySpec.resolve

        def counted(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(BoundarySpec, "resolve", counted)
        return calls

    def test_compiling_the_paper_problem(self, resolve_calls):
        from repro.pipeline import StencilProblem, compile

        compile(StencilProblem.paper_example(48, 33), cache=None)
        assert resolve_calls == []

    def test_compiling_a_batch_of_serve_shaped_grids(self, resolve_calls):
        from repro.pipeline import StencilProblem, compile_batch

        problems = [
            StencilProblem.paper_example(rows, cols)
            for rows, cols in ((9, 9), (17, 30), (33, 12), (48, 33))
        ]
        compile_batch(problems, cache=None)
        assert resolve_calls == []

    def test_building_the_simulated_systems(self, resolve_calls):
        from repro.arch.system import BaselineSystem, SmacheSystem
        from repro.core.config import SmacheConfig

        config = SmacheConfig.paper_example(11, 11)
        SmacheSystem(config)
        BaselineSystem(config)
        assert resolve_calls == []

    def test_the_scalar_oracle_is_what_gets_counted(self, resolve_calls):
        tuple_for(GridSpec(shape=(3, 3)), StencilShape.four_point_2d(), BoundarySpec.paper_2d(), 4)
        assert len(resolve_calls) == 4
