"""Module and net lists (Fig.3 inputs).

"Further information about the CUD (cell under design) and its
subcells, e.g., the connections of the subcells, is decoded in the
module and net list."  A :class:`NetList` records which subcells each
net connects; the chip planner's bipartitioning minimises the number of
nets cut by a partition.

Everything serialises to frozen plain dicts (and back) so net lists
travel inside DOV payloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import NamedTuple, Sequence

from repro.repository.versions import FrozenDict, FrozenList
from repro.util.rng import SeededRng


class Net(NamedTuple):
    """One net connecting two or more subcells: a tuple, built in one
    allocation, whose fields cannot be reassigned."""

    name: str
    cells: tuple[str, ...]

    def connects(self, cell: str) -> bool:
        """True when *cell* is on this net."""
        return cell in self.cells


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
            if not known.issuperset(net.cells):
                unknown = [c for c in net.cells if c not in known]
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

    def degree(self, cell: str) -> int:
        """Number of nets touching *cell*."""
        return len(self.nets_of(cell))

    # -- serialisation --------------------------------------------------------

    def to_dict(self) -> FrozenDict:
        """Frozen plain-dict form for DOV payloads."""
        return FrozenDict({
            "cells": FrozenList(self.cells),
            "nets": FrozenList([
                FrozenDict({"name": n.name, "cells": FrozenList(n.cells)})
                for n in self.nets]),
        })

    @classmethod
    def from_dict(cls, raw: dict) -> "NetList":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            cells=list(raw["cells"]),
            nets=[tuple.__new__(Net, (n["name"], tuple(n["cells"])))
                  for n in raw["nets"]],
        )


def _repeated(names: Sequence[str]) -> list[str]:
    return sorted({n for n in names if names.count(n) > 1})


def synthetic_netlist(cells: list[str], rng: SeededRng | Random,
                      nets_per_cell: float = 1.5) -> NetList:
    """Generate a seeded net list with locality-skewed connectivity.

    A net joins two or three cells; cells adjacent in the list are
    more likely to share one, which gives bipartitioning something
    meaningful to optimise.  *rng* is read through ``randint`` and
    ``random`` alone, so a :class:`SeededRng` and the
    :class:`random.Random` it wraps draw the same net list.
    """
    if len(cells) < 2:
        return NetList(cells=list(cells), nets=[])
    total_nets = max(1, int(len(cells) * nets_per_cell))
    randint, chance = rng.randint, rng.random
    last = len(cells) - 1
    widest = min(3, len(cells))
    nets = []
    for i in range(total_nets):
        anchor = randint(0, last)
        size = randint(2, widest)
        members = {cells[anchor]}
        while len(members) < size:
            # skew towards neighbours of the anchor (a 0.7 bernoulli)
            if chance() < 0.7:
                index = max(0, min(last, anchor + randint(-2, 2)))
            else:
                index = randint(0, last)
            members.add(cells[index])
        nets.append(tuple.__new__(Net, (f"net-{i}", tuple(sorted(members)))))
    return NetList(cells=list(cells), nets=nets)
