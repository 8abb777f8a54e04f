"""Module and net lists (Fig.3 inputs).

"Further information about the CUD (cell under design) and its
subcells, e.g., the connections of the subcells, is decoded in the
module and net list."  A :class:`NetList` records which subcells each
net connects; the chip planner's bipartitioning minimises the number of
nets cut by a partition.

Everything serialises to/from plain dicts so net lists travel inside
DOV payloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.util.rng import SeededRng


@dataclass(frozen=True)
class Net:
    """One net connecting two or more subcells."""

    name: str
    cells: tuple[str, ...]

    def connects(self, cell: str) -> bool:
        """True when *cell* is on this net."""
        return cell in self.cells

    def crosses(self, part_a: set[str], part_b: set[str]) -> bool:
        """True when the net has pins in both partitions (is 'cut')."""
        return (any(c in part_a for c in self.cells)
                and any(c in part_b for c in self.cells))


@dataclass
class NetList:
    """Subcells of a CUD plus the nets connecting them."""

    cells: list[str]
    nets: list[Net] = field(default_factory=list)

    def __post_init__(self) -> None:
        known = set(self.cells)
        if len(known) != len(self.cells):
            raise ValueError(
                f"cell names must be unique, repeated: "
                f"{_repeated(self.cells)}")
        for net in self.nets:
            unknown = [c for c in net.cells if c not in known]
            if unknown:
                raise ValueError(
                    f"net {net.name!r} references unknown cells {unknown}")
            if len(set(net.cells)) != len(net.cells):
                raise ValueError(
                    f"net {net.name!r} names cells twice: "
                    f"{_repeated(net.cells)}")

    # -- analysis -----------------------------------------------------------

    def nets_of(self, cell: str) -> list[Net]:
        """All nets touching *cell*."""
        return [n for n in self.nets if n.connects(cell)]

    def cut_size(self, part_a: set[str], part_b: set[str]) -> int:
        """Number of nets crossing the (part_a, part_b) partition."""
        return sum(1 for n in self.nets if n.crosses(part_a, part_b))

    def degree(self, cell: str) -> int:
        """Number of nets touching *cell*."""
        return len(self.nets_of(cell))

    # -- serialisation --------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict form for DOV payloads."""
        return {
            "cells": list(self.cells),
            "nets": [{"name": n.name, "cells": list(n.cells)}
                     for n in self.nets],
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "NetList":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            cells=list(raw["cells"]),
            nets=[Net(n["name"], tuple(n["cells"])) for n in raw["nets"]],
        )


def _repeated(names: Sequence[str]) -> list[str]:
    return sorted({n for n in names if names.count(n) > 1})


def synthetic_netlist(cells: list[str], rng: SeededRng,
                      nets_per_cell: float = 1.5) -> NetList:
    """Generate a seeded net list with locality-skewed connectivity.

    A net joins two or three cells; cells adjacent in the list are
    more likely to share one, which gives bipartitioning something
    meaningful to optimise.
    """
    if len(cells) < 2:
        return NetList(cells=list(cells), nets=[])
    total_nets = max(1, int(len(cells) * nets_per_cell))
    nets = []
    for i in range(total_nets):
        anchor = rng.randint(0, len(cells) - 1)
        size = rng.randint(2, min(3, len(cells)))
        members = {cells[anchor]}
        while len(members) < size:
            # skew towards neighbours of the anchor
            if rng.bernoulli(0.7):
                offset = rng.randint(-2, 2)
                index = max(0, min(len(cells) - 1, anchor + offset))
            else:
                index = rng.randint(0, len(cells) - 1)
            members.add(cells[index])
        nets.append(Net(f"net-{i}", tuple(sorted(members))))
    return NetList(cells=list(cells), nets=nets)
