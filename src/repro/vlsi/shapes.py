"""Shape functions (tool 3 of Fig.2).

"These computations are based on estimated information about its
subcells (i.e., shape functions indicating the possible shapes of the
subcells provided by tool 3)."  A shape function is the classic
floorplanning staircase: the set of feasible (width, height)
realisations of a cell.  Chip planning's *sizing* step picks one
alternative per subcell so everything fits.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.repository.versions import FrozenDict, FrozenList


class Shape(NamedTuple):
    """One feasible (width, height) realisation: a tuple, built in one
    allocation, whose fields cannot be reassigned."""

    width: float
    height: float

    @property
    def area(self) -> float:
        """width × height."""
        return self.width * self.height

    @property
    def aspect(self) -> float:
        """width / height."""
        return self.width / self.height if self.height else float("inf")


class ShapeFunction:
    """The set of feasible shapes of one cell (dominated shapes pruned).

    A shape dominates another when it is no wider *and* no taller; the
    kept alternatives form the staircase floorplanners work with.
    """

    def __init__(self, cell: str, shapes: list[Shape]) -> None:
        if not shapes:
            raise ValueError(f"shape function of {cell!r} needs at least "
                             f"one shape")
        self.cell = cell
        self.shapes = self._prune(shapes)

    @staticmethod
    def _prune(shapes: list[Shape]) -> list[Shape]:
        # sorted by (width, height): a shape is non-dominated iff it is
        # strictly lower than every narrower-or-equal shape kept so far,
        # so kept heights decrease monotonically along the staircase.
        ordered = sorted(set(shapes))   # a Shape is its (width, height)
        kept: list[Shape] = []
        for shape in ordered:
            if not kept or shape.height < kept[-1].height:
                kept.append(shape)
        return kept

    # -- queries ----------------------------------------------------------------

    def min_area(self) -> float:
        """Smallest achievable area."""
        return min([width * height for width, height in self.shapes])

    # -- serialisation -----------------------------------------------------------------

    def to_dict(self) -> FrozenDict:
        """Frozen plain-dict form for DOV payloads."""
        return FrozenDict({
            "cell": self.cell,
            "shapes": FrozenList([FrozenList(s) for s in self.shapes])})

    @classmethod
    def from_dict(cls, raw: dict) -> "ShapeFunction":
        """Rebuild from :meth:`to_dict` output."""
        return cls(raw["cell"], [tuple.__new__(Shape, (w, h))
                                 for w, h in raw["shapes"]])


def shapes_for_area(cell: str, area: float,
                    aspects: tuple[float, ...] = (0.5, 1.0, 2.0)
                    ) -> ShapeFunction:
    """Generate the staircase of a cell from its area demand.

    For each target aspect ratio a (width/height), width = sqrt(area*a),
    height = area/width — the standard estimation tool-3 performs.
    """
    shapes = []
    for aspect in aspects:
        width = (area * aspect) ** 0.5
        height = area / width
        shapes.append(tuple.__new__(Shape, (round(width, 3),
                                            round(height, 3))))
    return ShapeFunction(cell, shapes)
