"""Golden (NumPy) execution of stencil computations with arbitrary boundaries.

The executor mirrors the work-instance semantics of the hardware: one *step*
reads every value from iteration ``k`` and writes iteration ``k+1`` (Jacobi /
ping-pong), applying the kernel to the tuple of accesses that exist after
boundary resolution.  The cycle-accurate systems in :mod:`repro.arch` are
validated against these functions element by element.

Vectorized execution
--------------------
Boundary resolution is a pure function of ``(grid, stencil, boundary)`` —
the hardware pre-resolves it once per system for the same reason — so the
executor builds a :class:`GatherPlan` once per triple (LRU-cached across
steps and iterations): grid positions are grouped by their *resolution
signature* (which stencil offsets exist, wrap, or resolve to a constant),
and every group carries a precomputed gather-index matrix.  One step is then
a handful of NumPy gathers plus one :meth:`StencilKernel.apply_batch` call
per group, instead of ``grid.size`` Python-level resolutions.

The plan is built on the range partition's resolution
(:func:`repro.core.ranges.resolve_bands`): only the first position of each
(row, band) pair of the stream is resolved, every other position of the pair
shares its signature, and the gather indices are the pair's displacements
added to each position.  Building a plan never resolves cell by cell.

The vectorized path is **bit-identical** to the scalar one (enforced by
``tests/reference``): kernels fold operand columns left-to-right, matching
the sequential reduction order of their scalar ``apply``, and the interior
of a grid collapses into a single group so the common case is one fused
gather.  :func:`reference_step_scalar` keeps the original per-cell loop on
:meth:`BoundarySpec.resolve` as the independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.boundary import CONSTANT, INTERIOR, SKIPPED, BoundarySpec, ResolutionKind
from repro.core.grid import GridSpec
from repro.core.ranges import resolve_bands
from repro.core.stencil import StencilShape
from repro.reference.kernels import StencilKernel


# --------------------------------------------------------------------------- #
# gather plans
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class GatherGroup:
    """All grid positions sharing one boundary-resolution signature."""

    #: Linear indices of the member positions, ascending.
    rows: np.ndarray
    #: The common offsets of the surviving accesses, in resolution order.
    offsets: Tuple[Tuple[int, ...], ...]
    #: ``(m, k)`` gather indices into the flat grid; constant columns hold 0.
    index: np.ndarray
    #: Columns that are constant-boundary substitutions, with their values.
    constant_columns: Tuple[Tuple[int, float], ...]


@dataclass(frozen=True)
class GatherPlan:
    """Precomputed vectorized execution plan for one (grid, stencil, boundary)."""

    size: int
    groups: Tuple[GatherGroup, ...]

    def execute(self, flat: np.ndarray, kernel: StencilKernel, out: np.ndarray) -> None:
        """Apply ``kernel`` over every position, writing into flat ``out``."""
        for group in self.groups:
            values = flat[group.index]
            for column, constant in group.constant_columns:
                values[:, column] = constant
            out[group.rows] = kernel.apply_batch(group.offsets, values)


def build_gather_plan(
    grid: GridSpec, stencil: StencilShape, boundary: BoundarySpec
) -> GatherPlan:
    """Group every position by resolution signature, one (row, band) at a time.

    A position's signature lists, per non-skipped offset, whether it reads a
    constant or a grid element and, for a grid element, its *relative*
    displacement (not the absolute target), so every interior point shares
    one group.  All positions of a :func:`resolve_bands` pair share their
    first position's signature, so only those are resolved; groups come out
    in first-seen stream order with ascending rows.
    """
    starts, lengths, kinds, targets = resolve_bands(grid, stencil, boundary)
    reads = targets >= 0
    deltas = np.where(reads, targets - starts[:, None], 0)
    # INTERIOR and WRAPPED reads gather alike: one code for both
    signatures = np.concatenate([np.where(reads, INTERIOR, kinds), deltas], axis=1)
    members: Dict[Tuple[int, ...], List[int]] = {}
    for band, signature in enumerate(signatures.tolist()):
        members.setdefault(tuple(signature), []).append(band)
    k = stencil.n_points
    groups = []
    for signature, bands in members.items():
        codes, shift = signature[:k], signature[k:]
        band_lengths = lengths[bands]
        # every position of every member band, ascending
        rows = np.arange(int(band_lengths.sum()), dtype=np.intp) + np.repeat(
            starts[bands] - np.cumsum(band_lengths) + band_lengths, band_lengths
        )
        columns = [j for j, code in enumerate(codes) if code != SKIPPED]
        constants = tuple(
            (column, float(boundary.constant_value))
            for column, j in enumerate(columns)
            if codes[j] == CONSTANT
        )
        index = rows[:, None] + np.array([shift[j] for j in columns], dtype=np.intp)
        for column, _ in constants:
            index[:, column] = 0  # placeholder; overwritten by the constant
        groups.append(
            GatherGroup(
                rows=rows,
                offsets=tuple(stencil.offsets[j] for j in columns),
                index=index,
                constant_columns=constants,
            )
        )
    return GatherPlan(size=grid.size, groups=tuple(groups))


#: The memoized gather plan for a (grid, stencil, boundary) triple — the
#: three specs are frozen dataclasses, so they key an LRU directly.
gather_plan = lru_cache(maxsize=64)(build_gather_plan)


def clear_gather_plan_cache() -> None:
    """Drop every cached gather plan (benchmarks measuring cold builds)."""
    gather_plan.cache_clear()


# --------------------------------------------------------------------------- #
# execution
# --------------------------------------------------------------------------- #
def _check_input(array: np.ndarray, grid: GridSpec) -> np.ndarray:
    array = np.asarray(array, dtype=np.float64)
    if array.shape != grid.shape:
        raise ValueError(f"array shape {array.shape} does not match grid {grid.shape}")
    return array


def reference_step(
    array: np.ndarray,
    grid: GridSpec,
    stencil: StencilShape,
    boundary: BoundarySpec,
    kernel: StencilKernel,
) -> np.ndarray:
    """Apply one work-instance of the stencil kernel to ``array``.

    ``array`` must have the grid's shape; the returned array is a new
    allocation (Jacobi semantics — no in-place update).  Uses the vectorized
    gather-plan path; :func:`reference_step_scalar` is the per-cell original,
    bit-identical by construction.
    """
    array = _check_input(array, grid)
    flat = array.reshape(-1)
    out = np.empty_like(flat)
    gather_plan(grid, stencil, boundary).execute(flat, kernel, out)
    return out.reshape(grid.shape)


def reference_step_scalar(
    array: np.ndarray,
    grid: GridSpec,
    stencil: StencilShape,
    boundary: BoundarySpec,
    kernel: StencilKernel,
) -> np.ndarray:
    """The original per-cell executor (the vectorized path's cross-check)."""
    array = _check_input(array, grid)
    flat = array.reshape(-1)
    out = np.empty_like(flat)

    for linear in range(grid.size):
        centre = grid.coord(linear)
        offsets = []
        values = []
        for point in boundary.resolve_stencil(grid, centre, stencil):
            if point.kind is ResolutionKind.SKIPPED:
                continue
            if point.kind is ResolutionKind.CONSTANT:
                offsets.append(point.offset)
                values.append(float(point.constant_value))
            else:
                offsets.append(point.offset)
                values.append(float(flat[point.linear_index]))
        out[linear] = kernel.apply(offsets, values)
    return out.reshape(grid.shape)


def reference_run(
    array: np.ndarray,
    grid: GridSpec,
    stencil: StencilShape,
    boundary: BoundarySpec,
    kernel: StencilKernel,
    iterations: int = 1,
) -> np.ndarray:
    """Apply ``iterations`` work-instances (ping-pong between two arrays).

    The gather plan is built (or fetched from the cache) once and reused for
    every iteration — index construction happens once per
    (grid, stencil, boundary), not once per step.
    """
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    current = _check_input(array, grid).copy()
    if iterations == 0:
        return current
    plan = gather_plan(grid, stencil, boundary)
    flat = current.reshape(-1)
    out = np.empty_like(flat)
    for _ in range(iterations):
        plan.execute(flat, kernel, out)
        flat, out = out, flat
    return flat.reshape(grid.shape)


def make_test_grid(grid: GridSpec, seed: Optional[int] = 0, kind: str = "ramp") -> np.ndarray:
    """Generate a deterministic input grid for validation and benchmarking.

    ``kind`` selects the pattern: ``"ramp"`` (0, 1, 2, ... which makes index
    mix-ups visible), ``"random"`` (uniform in [0, 1)), or ``"impulse"`` (a
    single 1.0 in the centre, useful for watching boundary wrap-around).
    """
    if kind == "ramp":
        return np.arange(grid.size, dtype=np.float64).reshape(grid.shape)
    if kind == "random":
        rng = np.random.default_rng(seed)
        return rng.random(grid.shape)
    if kind == "impulse":
        data = np.zeros(grid.shape, dtype=np.float64)
        data[tuple(s // 2 for s in grid.shape)] = 1.0
        return data
    raise ValueError(f"unknown test-grid kind {kind!r}")
