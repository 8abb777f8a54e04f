"""Floorplans and floorplan interfaces (Fig.3 inputs/outputs).

"The most important input is the interface description of the CUD
(cell under design), expressing non-functional requirements as, for
example, the shape of the CUD and the positions of the pin intervals on
the CUD's frame."  The chip planner's output is the *floorplan
contents* — an arrangement of the subcells — plus one *floorplan
interface* per subcell, which seeds the subcell's own planning at the
next hierarchy level (the Fig.5 delegation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.repository.versions import FrozenDict, FrozenList

#: geometric tolerance: placements are sums of rounded shape sides, so
#: two abutting cells can meet a last-bit rounding error apart
_EPS = 1e-6


@dataclass(frozen=True)
class PinInterval:
    """A pin interval on one edge of a cell frame."""

    edge: str          # 'north' | 'south' | 'east' | 'west'
    start: float       # offset along the edge
    end: float
    net: str = ""

    def length(self) -> float:
        """Extent of the interval along its edge."""
        return self.end - self.start


@dataclass(frozen=True)
class FloorplanInterface:
    """Non-functional requirements for planning one cell.

    ``max_width`` / ``max_height`` bound the cell's shape; ``origin``
    places it in the parent's coordinate system; ``pins`` are the pin
    intervals on the frame.
    """

    cell: str
    max_width: float
    max_height: float
    origin: tuple[float, float] = (0.0, 0.0)
    pins: tuple[PinInterval, ...] = ()

    def to_dict(self) -> FrozenDict:
        """Frozen plain-dict form for DOV payloads."""
        return FrozenDict({
            "cell": self.cell,
            "max_width": self.max_width,
            "max_height": self.max_height,
            "origin": FrozenList(self.origin),
            "pins": FrozenList([
                FrozenDict({"edge": p.edge, "start": p.start, "end": p.end,
                            "net": p.net})
                for p in self.pins]),
        })

    @classmethod
    def from_dict(cls, raw: dict) -> "FloorplanInterface":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            cell=raw["cell"],
            max_width=raw["max_width"],
            max_height=raw["max_height"],
            origin=tuple(raw.get("origin", (0.0, 0.0))),
            pins=tuple(PinInterval(p["edge"], p["start"], p["end"],
                                   p.get("net", ""))
                       for p in raw.get("pins", ())),
        )


class Placement(NamedTuple):
    """One subcell placed inside its parent's floorplan: a tuple, built
    in one allocation (the chip planner builds it with
    ``tuple.__new__``), whose fields cannot be reassigned."""

    cell: str
    x: float
    y: float
    width: float
    height: float

    @property
    def area(self) -> float:
        """Occupied area."""
        return self.width * self.height

    def overlaps(self, other: "Placement") -> bool:
        """True when two placements intersect with positive area."""
        return not (self.x + self.width <= other.x + _EPS
                    or other.x + other.width <= self.x + _EPS
                    or self.y + self.height <= other.y + _EPS
                    or other.y + other.height <= self.y + _EPS)


@dataclass
class Floorplan:
    """The planned arrangement of a CUD's subcells."""

    cud: str
    width: float
    height: float
    placements: dict[str, Placement] = field(default_factory=dict)
    cut_nets: int = 0
    wirelength: float = 0.0
    iterations: int = 1

    @property
    def area(self) -> float:
        """Bounding area of the floorplan."""
        return self.width * self.height

    @property
    def used_area(self) -> float:
        """Sum of the placed subcell areas."""
        return sum(p.area for p in self.placements.values())

    @property
    def utilisation(self) -> float:
        """used_area / area (1.0 = no dead space)."""
        return self.used_area / self.area if self.area else 0.0

    def validate(self) -> list[str]:
        """Geometric sanity: in-bounds, no overlaps.  Empty = valid."""
        problems = []
        items = list(self.placements.values())
        for placement in items:
            if placement.x < -_EPS or placement.y < -_EPS \
                    or placement.x + placement.width > self.width + _EPS \
                    or placement.y + placement.height > self.height + _EPS:
                problems.append(f"{placement.cell} out of bounds")
        for i, a in enumerate(items):
            for b in items[i + 1:]:
                if a.overlaps(b):
                    problems.append(f"{a.cell} overlaps {b.cell}")
        return problems

    def subcell_interfaces(self) -> list[FloorplanInterface]:
        """One planning interface per placed subcell (Fig.3 output)."""
        return [FloorplanInterface(p.cell, p.width, p.height,
                                   origin=(p.x, p.y))
                for p in self.placements.values()]

    def to_dict(self) -> FrozenDict:
        """Frozen plain-dict form for DOV payloads."""
        return FrozenDict({
            "cud": self.cud,
            "width": self.width,
            "height": self.height,
            "cut_nets": self.cut_nets,
            "wirelength": self.wirelength,
            "iterations": self.iterations,
            "placements": FrozenDict({
                name: FrozenList(p[1:])
                for name, p in self.placements.items()}),
        })

    @classmethod
    def from_dict(cls, raw: dict) -> "Floorplan":
        """Rebuild from :meth:`to_dict` output."""
        plan = cls(raw["cud"], raw["width"], raw["height"],
                   cut_nets=raw.get("cut_nets", 0),
                   wirelength=raw.get("wirelength", 0.0),
                   iterations=raw.get("iterations", 1))
        for name, (x, y, w, h) in raw.get("placements", {}).items():
            plan.placements[name] = tuple.__new__(Placement,
                                                  (name, x, y, w, h))
        return plan
