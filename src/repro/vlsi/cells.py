"""The VLSI cell hierarchy of Fig.2 (right-hand side).

"a chip is divided into modules representing arithmetic-logic unit,
control unit, and so on; each module, in turn, can be partitioned into
blocks at the next level (e.g., read-only memory, instruction decode,
etc.) and each of these blocks is again partitioned into standard cells
at the lowest level (e.g., multiplexer, AND-circuit, etc.)."

:class:`CellHierarchy` is the in-memory tree; :func:`sample_hierarchy`
builds the paper's illustrative four-level example.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator



class CellLevel(int, Enum):
    """The four levels of the sample cell hierarchy."""

    CHIP = 0
    MODULE = 1
    BLOCK = 2
    STANDARD_CELL = 3

    @property
    def below(self) -> "CellLevel | None":
        """The next-lower level (None below standard cells)."""
        if self is CellLevel.STANDARD_CELL:
            return None
        return CellLevel(self.value + 1)


@dataclass
class Cell:
    """One cell of the hierarchy."""

    name: str
    level: CellLevel
    children: list["Cell"] = field(default_factory=list)
    #: intrinsic area demand of a leaf (standard cells); inner cells
    #: derive theirs from their subtree
    base_area: float = 1.0

    def area_demand(self) -> float:
        """Total area demand of this cell's subtree."""
        if not self.children:
            return self.base_area
        return sum(child.area_demand() for child in self.children)

    def walk(self) -> Iterator["Cell"]:
        """Depth-first traversal including self."""
        yield self
        for child in self.children:
            yield from child.walk()

class CellHierarchy:
    """A rooted cell tree with lookup helpers."""

    def __init__(self, root: Cell) -> None:
        self.root = root
        self._index = {cell.name: cell for cell in root.walk()}
        if len(self._index) != sum(1 for _ in root.walk()):
            raise ValueError("cell names in a hierarchy must be unique")

    def cell(self, name: str) -> Cell:
        """Look up a cell by name."""
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"no cell named {name!r}") from None

    def cells(self, level: CellLevel | None = None) -> list[Cell]:
        """All cells, optionally filtered to one level."""
        if level is None:
            return list(self._index.values())
        return [c for c in self._index.values() if c.level is level]

    def depth(self) -> int:
        """Number of levels present."""
        return 1 + max((c.level.value for c in self._index.values()),
                       default=0) - self.root.level.value

    def __len__(self) -> int:
        return len(self._index)


def sample_hierarchy() -> CellHierarchy:
    """The paper's illustrative chip: modules ALU/CU, blocks, std cells."""
    def std(name: str, area: float) -> Cell:
        return Cell(name, CellLevel.STANDARD_CELL, base_area=area)

    rom = Cell("rom", CellLevel.BLOCK,
               [std("mux-1", 2.0), std("and-1", 1.0), std("reg-1", 3.0)])
    idec = Cell("instr-decode", CellLevel.BLOCK,
                [std("mux-2", 2.0), std("and-2", 1.0)])
    adder = Cell("adder", CellLevel.BLOCK,
                 [std("xor-1", 1.5), std("and-3", 1.0), std("or-1", 1.0)])
    shifter = Cell("shifter", CellLevel.BLOCK,
                   [std("mux-3", 2.0), std("reg-2", 3.0)])
    alu = Cell("alu", CellLevel.MODULE, [adder, shifter])
    cu = Cell("control-unit", CellLevel.MODULE, [rom, idec])
    chip = Cell("chip-0", CellLevel.CHIP, [alu, cu])
    return CellHierarchy(chip)
