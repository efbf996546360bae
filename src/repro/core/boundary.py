"""Boundary conditions and resolution of out-of-grid stencil accesses.

The paper's motivating case is a 2D grid with *circular* boundaries at the
horizontal edges (top/bottom rows wrap around) and *open* boundaries at the
vertical edges (the missing neighbours simply do not participate).  Those two,
plus mirrored, clamped and constant-value boundaries, cover the boundary
conditions found in typical structured-grid scientific codes, and all of them
are expressible per-dimension and per-side here.

Resolution of a stencil access is the key operation: given a centre
coordinate and an offset that may fall outside the grid, produce a
:class:`ResolvedPoint` that says whether the access maps to a real grid
element (and which one), to a constant, or to nothing at all (open boundary).

:func:`resolve_many` is the engine every consumer uses: it resolves every
offset of a stencil at many centres in one NumPy pass and returns a kind code
and a linear target per access.  :meth:`BoundarySpec.resolve` is the scalar
form of the same rules, kept as the parity oracle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.grid import GridSpec
from repro.core.stencil import StencilShape


class BoundaryKind(enum.Enum):
    """Behaviour of a single grid edge."""

    #: The neighbour does not exist; it is skipped (excluded from the tuple).
    OPEN = "open"
    #: Periodic wrap-around (the paper's "circular" boundary).
    CIRCULAR = "circular"
    #: Reflect about the edge (mirror without repeating the edge element).
    MIRROR = "mirror"
    #: Clamp to the nearest in-grid element along that dimension.
    CLAMP = "clamp"
    #: Substitute a fixed constant value.
    CONSTANT = "constant"


class ResolutionKind(enum.Enum):
    """How an individual stencil access resolved."""

    INTERIOR = "interior"      # in-grid without invoking any boundary rule
    WRAPPED = "wrapped"        # in-grid after applying circular/mirror/clamp rules
    CONSTANT = "constant"      # replaced by a constant value
    SKIPPED = "skipped"        # open boundary: the access does not exist


@dataclass(frozen=True)
class ResolvedPoint:
    """The result of resolving one stencil offset at one centre coordinate."""

    kind: ResolutionKind
    offset: Tuple[int, ...]
    linear_index: Optional[int] = None
    constant_value: Optional[float] = None

    @property
    def exists(self) -> bool:
        """True if this access reads a grid element (interior or wrapped)."""
        return self.kind in (ResolutionKind.INTERIOR, ResolutionKind.WRAPPED)


@dataclass(frozen=True)
class EdgeBehaviour:
    """Boundary behaviour of the low and high edge of one dimension."""

    low: BoundaryKind = BoundaryKind.OPEN
    high: BoundaryKind = BoundaryKind.OPEN

    @classmethod
    def both(cls, kind: BoundaryKind) -> "EdgeBehaviour":
        """Same behaviour at both edges of the dimension."""
        return cls(low=kind, high=kind)


@dataclass(frozen=True)
class BoundarySpec:
    """Per-dimension boundary conditions for a grid.

    Parameters
    ----------
    edges:
        One :class:`EdgeBehaviour` per grid dimension (outermost first).
    constant_value:
        Value substituted for ``CONSTANT`` boundaries.
    """

    edges: Tuple[EdgeBehaviour, ...]
    constant_value: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple(self.edges))
        if not self.edges:
            raise ValueError("boundary specification needs at least one dimension")

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def all_open(cls, ndim: int) -> "BoundarySpec":
        """Open boundaries everywhere."""
        return cls(edges=tuple(EdgeBehaviour.both(BoundaryKind.OPEN) for _ in range(ndim)))

    @classmethod
    def all_circular(cls, ndim: int) -> "BoundarySpec":
        """Fully periodic grid."""
        return cls(edges=tuple(EdgeBehaviour.both(BoundaryKind.CIRCULAR) for _ in range(ndim)))

    @classmethod
    def paper_2d(cls) -> "BoundarySpec":
        """The paper's validation case: circular top/bottom, open left/right.

        In the paper's 11x11 example (Fig. 1a), the *horizontal* edges (top
        and bottom rows, i.e. dimension 0) are circular and the *vertical*
        edges (left/right columns, dimension 1) are open.
        """
        return cls(
            edges=(
                EdgeBehaviour.both(BoundaryKind.CIRCULAR),
                EdgeBehaviour.both(BoundaryKind.OPEN),
            )
        )

    @classmethod
    def per_dimension(cls, kinds: Sequence[BoundaryKind], constant_value: float = 0.0) -> "BoundarySpec":
        """Same behaviour at both edges of each dimension."""
        return cls(
            edges=tuple(EdgeBehaviour.both(k) for k in kinds),
            constant_value=constant_value,
        )

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def ndim(self) -> int:
        """Number of dimensions covered by this specification."""
        return len(self.edges)

    def kind_at(self, dim: int, high_side: bool) -> BoundaryKind:
        """Boundary kind at the low (``high_side=False``) or high edge of ``dim``."""
        edge = self.edges[dim]
        return edge.high if high_side else edge.low

    def has_circular(self) -> bool:
        """True if any edge is circular (the large-reach case)."""
        return any(
            BoundaryKind.CIRCULAR in (e.low, e.high) for e in self.edges
        )

    # ------------------------------------------------------------------ #
    # resolution
    # ------------------------------------------------------------------ #
    def resolve(
        self,
        grid: GridSpec,
        centre: Sequence[int],
        offset: Sequence[int],
    ) -> ResolvedPoint:
        """Resolve a single stencil access ``centre + offset`` on ``grid``.

        The resolution applies each dimension's rule independently, which is
        the usual semantics for structured grids (a corner access may wrap in
        one dimension and be skipped in another; skipping wins).
        """
        if grid.ndim != self.ndim:
            raise ValueError(
                f"boundary spec covers {self.ndim} dimensions but grid has {grid.ndim}"
            )
        if len(centre) != grid.ndim or len(offset) != grid.ndim:
            raise ValueError("centre/offset arity does not match the grid")

        target = [c + o for c, o in zip(centre, offset)]
        wrapped = False
        for d, (t, extent) in enumerate(zip(list(target), grid.shape)):
            if 0 <= t < extent:
                continue
            kind = self.kind_at(d, high_side=t >= extent)
            if kind is BoundaryKind.OPEN:
                return ResolvedPoint(kind=ResolutionKind.SKIPPED, offset=tuple(offset))
            if kind is BoundaryKind.CONSTANT:
                return ResolvedPoint(
                    kind=ResolutionKind.CONSTANT,
                    offset=tuple(offset),
                    constant_value=self.constant_value,
                )
            if kind is BoundaryKind.CIRCULAR:
                target[d] = t % extent
            elif kind is BoundaryKind.CLAMP:
                target[d] = min(max(t, 0), extent - 1)
            elif kind is BoundaryKind.MIRROR:
                target[d] = _mirror_index(t, extent)
            else:  # pragma: no cover - exhaustive over enum
                raise AssertionError(f"unhandled boundary kind {kind}")
            wrapped = True
            if not (0 <= target[d] < extent):
                # Extremely large offsets on small grids can still land
                # outside after one mirror pass; treat as skipped.
                return ResolvedPoint(kind=ResolutionKind.SKIPPED, offset=tuple(offset))

        linear = grid.linear_index(target)
        kind = ResolutionKind.WRAPPED if wrapped else ResolutionKind.INTERIOR
        return ResolvedPoint(kind=kind, offset=tuple(offset), linear_index=linear)

    def resolve_stencil(
        self,
        grid: GridSpec,
        centre: Sequence[int],
        stencil: StencilShape,
    ) -> Tuple[ResolvedPoint, ...]:
        """Resolve every offset of ``stencil`` at ``centre``."""
        return tuple(self.resolve(grid, centre, off) for off in stencil.offsets)

    def describe(self) -> str:
        """Short human-readable description of the boundary conditions."""
        parts = []
        for d, edge in enumerate(self.edges):
            if edge.low == edge.high:
                parts.append(f"dim{d}:{edge.low.value}")
            else:
                parts.append(f"dim{d}:{edge.low.value}/{edge.high.value}")
        return ", ".join(parts)


def _mirror_index(t: int, extent: int) -> int:
    """Reflect an out-of-range index about the grid edges (no edge repetition)."""
    if extent == 1:
        return 0
    period = 2 * (extent - 1)
    t = t % period
    if t < 0:
        t += period
    if t >= extent:
        t = period - t
    return t


#: The :class:`ResolutionKind` of each code returned by :func:`resolve_many`.
KIND_CODES = (
    ResolutionKind.INTERIOR,
    ResolutionKind.WRAPPED,
    ResolutionKind.CONSTANT,
    ResolutionKind.SKIPPED,
)
INTERIOR, WRAPPED, CONSTANT, SKIPPED = range(len(KIND_CODES))

_DECIDING = {BoundaryKind.OPEN: SKIPPED, BoundaryKind.CONSTANT: CONSTANT}


def _wrap(kind: BoundaryKind, t: np.ndarray, extent: int) -> np.ndarray:
    """Apply a circular/clamp/mirror rule to out-of-range indices ``t``."""
    if kind is BoundaryKind.CIRCULAR:
        return t % extent
    if kind is BoundaryKind.CLAMP:
        return np.clip(t, 0, extent - 1)
    if kind is BoundaryKind.MIRROR:
        if extent == 1:
            return np.zeros_like(t)
        period = 2 * (extent - 1)
        t = t % period
        return np.where(t >= extent, period - t, t)
    raise AssertionError(f"unhandled boundary kind {kind}")  # pragma: no cover


def resolve_many(
    grid: GridSpec,
    stencil: StencilShape,
    boundary: BoundarySpec,
    centres: Sequence[int],
) -> Tuple[np.ndarray, np.ndarray]:
    """Resolve every offset of ``stencil`` at every linear centre in one pass.

    Returns ``(kinds, targets)``, both shaped ``(len(centres), n_points)`` with
    columns in stencil order: ``kinds`` holds codes into :data:`KIND_CODES`,
    ``targets`` the linear grid index of INTERIOR/WRAPPED accesses and -1
    elsewhere.  The rules are those of :meth:`BoundarySpec.resolve`:
    dimensions are checked in order and the first OPEN or CONSTANT edge an
    access crosses decides it; an index still out of range after one wrap is
    SKIPPED; any wrap makes the access WRAPPED.
    """
    if grid.ndim != boundary.ndim:
        raise ValueError(
            f"boundary spec covers {boundary.ndim} dimensions but grid has {grid.ndim}"
        )
    if stencil.ndim != grid.ndim:
        raise ValueError("centre/offset arity does not match the grid")
    rem = np.asarray(centres, dtype=np.int64).reshape(-1, 1)
    offsets = np.asarray(stencil.offsets, dtype=np.int64)
    shape = (rem.shape[0], offsets.shape[0])
    kinds = np.zeros(shape, dtype=np.int8)
    decided = np.zeros(shape, dtype=bool)
    wrapped = np.zeros(shape, dtype=bool)
    linear = np.zeros(shape, dtype=np.int64)
    for d, (extent, stride) in enumerate(zip(grid.shape, grid.strides)):
        coord, rem = np.divmod(rem, stride)
        t = coord + offsets[:, d]
        for high_side, out in ((False, t < 0), (True, t >= extent)):
            out &= ~decided
            if not out.any():
                continue
            kind = boundary.kind_at(d, high_side)
            code = _DECIDING.get(kind)
            if code is not None:
                kinds[out] = code
                decided |= out
                continue
            t = np.where(out, _wrap(kind, t, extent), t)
            wrapped |= out
            # An index still outside after one wrap pass is skipped.
            lost = out & ((t < 0) | (t >= extent))
            kinds[lost] = SKIPPED
            decided |= lost
        linear += t * stride
    live = ~decided
    kinds[live & wrapped] = WRAPPED
    targets = np.where(live, linear, -1)
    return kinds, targets
