"""The chip planner toolbox (tool 5 of Fig.2).

"the chip planner is a tool box containing several tools:
bipartitioning, sizing, dimensioning, and global routing. ... the
designer may perform re-iterations of parts of the internal tool
executions in order to achieve optimal space exploitation.  As a
result, the chip planner arranges the subcells of the CUD."

Implemented tools:

* **bipartitioning** — balanced min-cut partitioning of the subcells
  (greedy seed + Kernighan–Lin-style improvement passes over pin
  counts kept per net, so a move costs the moved cell's nets);
* **sizing** — per-partition shape selection via recursive slicing,
  driven by the subcells' shape functions;
* **dimensioning** — fitting the slicing result into the CUD's
  interface bounds;
* **global routing** — half-perimeter wirelength estimation over the
  placed subcells' centres;
* :class:`ChipPlanner` — the toolbox driver with designer
  re-iterations (it retries with different partition seeds and keeps
  the best arrangement).
"""

from __future__ import annotations

from typing import Container, Iterable

from repro.util.rng import SeededRng
from repro.vlsi.floorplan import Floorplan, FloorplanInterface, Placement
from repro.vlsi.netlist import NetList
from repro.vlsi.shapes import Shape, ShapeFunction


# ---------------------------------------------------------------------------
# bipartitioning
# ---------------------------------------------------------------------------

#: improvement passes of one bipartitioning run
_PASSES = 4


def _nets_on(cells: Container[str],
             nets: Iterable[Iterable[str]]) -> list[list[str]]:
    """The pins of *nets* on *cells*, each pin once, for every net with
    two or more of them: the nets a bipartition of *cells* can cut."""
    own = []
    for net in nets:
        pins = [c for c in dict.fromkeys(net) if c in cells]
        if len(pins) > 1:
            own.append(pins)
    return own


def _bipartition(cells: list[str], nets: list[list[str]],
                 areas: dict[str, float], rng: SeededRng | None,
                 passes: int) -> tuple[set[str], set[str]]:
    """Balanced min-cut bipartition of *cells* over their own *nets*
    (see :func:`_nets_on`).

    Greedy area-balanced seed, then KL-style single-move improvement:
    repeatedly move the cell with the best cut-gain whose move keeps
    the areas within a 60/40 balance, until no improving move exists.

    Gains are kept Fiduccia–Mattheyses style: per net the number of
    its distinct cells in each half, per cell its incident nets.  A
    move's gain reads the counts of the cell's own nets and the chosen
    move updates only those, so a pass costs the sum of the pins.
    """
    if len(cells) < 2:
        return set(cells), set()
    if rng is not None:
        rng.shuffle(cells)
    else:
        cells.sort(key=lambda c: -areas.get(c, 1.0))

    area = {cell: areas.get(cell, 1.0) for cell in cells}
    total = sum(area.values())
    part_a: set[str] = set()
    part_b: set[str] = set()
    area_a = area_b = 0.0
    for cell in cells:
        if area_a <= area_b:
            part_a.add(cell)
            area_a += area[cell]
        else:
            part_b.add(cell)
            area_b += area[cell]
    if len(part_a) == 1 == len(part_b):
        return part_a, part_b   # a one-cell half has no cell to give

    # cell -> [pins in part_a, pins in part_b] of each net it is on;
    # the cells of one net share the pair
    incident: dict[str, list[list[int]]] = {cell: [] for cell in cells}
    for pins in nets:
        counts = [0, 0]
        for cell in pins:
            counts[cell in part_b] += 1
            incident[cell].append(counts)

    for _ in range(passes):
        # a move keeps the halves within 60/40 of the total area, or
        # either half is down to one cell
        balance = total > 0 and min(len(part_a), len(part_b)) > 1
        best_gain = 0
        best_cell: str | None = None
        for cell in cells:
            if cell in part_a:
                src, here, there = part_a, 0, 1
                share = (area_a - area[cell]) / total if balance else 0.5
            else:
                src, here, there = part_b, 1, 0
                share = (area_a + area[cell]) / total if balance else 0.5
            if len(src) <= 1 or not 0.4 <= share <= 0.6:
                continue
            # a net leaves the cut when this is its last pin here and
            # joins it when it had no pin over there
            gain = sum((counts[there] > 0) - (counts[here] > 1)
                       for counts in incident[cell])
            if gain > best_gain:
                best_gain, best_cell = gain, cell
        if best_cell is None:
            break
        moved = area[best_cell]
        if best_cell in part_a:
            src, dst, here, there = part_a, part_b, 0, 1
            area_a -= moved
            area_b += moved
        else:
            src, dst, here, there = part_b, part_a, 1, 0
            area_a += moved
            area_b -= moved
        src.remove(best_cell)
        dst.add(best_cell)
        for counts in incident[best_cell]:
            counts[here] -= 1
            counts[there] += 1
    return part_a, part_b


# ---------------------------------------------------------------------------
# sizing + dimensioning (recursive slicing placement)
# ---------------------------------------------------------------------------

#: one placed cell in its slice's own frame: (cell, x, y, width, height),
#: the fields of a :class:`Placement` in their order
_Item = tuple[str, float, float, float, float]


def _place_cells(cells: list[str], nets: list[list[str]],
                 shapes: dict[str, tuple[Shape, Shape]],
                 areas: dict[str, float],
                 rng: SeededRng | None,
                 horizontal: bool) -> tuple[float, float, list[_Item]]:
    """Recursive slicing: partition, place halves, compose.

    Returns the slice's width, height and placed cells.  *shapes* holds
    each cell's (wide, narrow) shape: a cell alone in a slice whose
    parent puts its halves side by side takes the wide one.  *cells*
    come in net-list order and *nets* are their own nets
    (:func:`_nets_on`); each half goes down with its cells in that
    order and its own nets, so a level costs its cells and pins, not
    the whole net list.
    """
    if len(cells) == 1:
        cell = cells[0]
        width, height = shapes[cell][not horizontal]
        return width, height, [(cell, 0.0, 0.0, width, height)]
    part_a, part_b = _bipartition(list(cells), nets, areas, rng, _PASSES)
    if not part_a or not part_b:
        ordered = sorted(cells)
        half = max(1, len(cells) // 2)
        part_a, part_b = set(ordered[:half]), set(ordered[half:])
    cells_a = [c for c in cells if c in part_a]
    cells_b = [c for c in cells if c in part_b]
    # only a half of three or more cells reads its nets: two cells are
    # seeded one a side, where neither can move (or, with no area to
    # balance, both on one side, where no move gains)
    nets_a: list[list[str]] = []
    nets_b: list[list[str]] = []
    if len(cells_a) > 2 or len(cells_b) > 2:
        for pins in nets:
            pins_a = [c for c in pins if c in part_a]
            if len(pins_a) > 1:
                nets_a.append(pins_a)
            if len(pins) - len(pins_a) > 1:
                nets_b.append([c for c in pins if c not in part_a])
    width_a, height_a, placed = _place_cells(cells_a, nets_a, shapes, areas,
                                             rng, not horizontal)
    width_b, height_b, right = _place_cells(cells_b, nets_b, shapes, areas,
                                            rng, not horizontal)
    # each level shifts the second half by the first one's extent, so
    # a coordinate is the sum of its slices' offsets, innermost first
    if horizontal:   # halves side by side
        placed += [(cell, x + width_a, y, w, h)
                   for cell, x, y, w, h in right]
        return width_a + width_b, max(height_a, height_b), placed
    placed += [(cell, x, y + height_a, w, h) for cell, x, y, w, h in right]
    return max(width_a, width_b), height_a + height_b, placed


def _pick_shape(shape_fn: ShapeFunction | None, area: float,
                prefer_wide: bool) -> Shape:
    if shape_fn is None:
        side = round(max(area, 1e-9) ** 0.5, 3)
        return tuple.__new__(Shape, (side, side))
    shapes = shape_fn.shapes
    if prefer_wide:
        return max(shapes, key=lambda s: s.aspect)
    return min(shapes, key=lambda s: s.aspect)


# ---------------------------------------------------------------------------
# global routing (wirelength estimation)
# ---------------------------------------------------------------------------

def _global_route(centres: dict[str, tuple[float, float]],
                  nets: list[list[str]]) -> float:
    """Half-perimeter wirelength over the placed subcells.

    The classic chip-planning estimate: for each net, the half
    perimeter of the bounding box of its pins (the *centres* of its
    subcells).  *nets* are the plan's own nets (:func:`_nets_on`): a
    net with fewer than two pins spans nothing.
    """
    total = 0.0
    for pins in nets:
        xs, ys = zip(*[centres[c] for c in pins])
        total += (max(xs) - min(xs)) + (max(ys) - min(ys))
    return round(total, 3)


# ---------------------------------------------------------------------------
# the toolbox driver
# ---------------------------------------------------------------------------

class ChipPlanner:
    """Tool 5: plan a CUD's floorplan within its interface bounds.

    ``iterations`` models the designer's re-iterations: each iteration
    replans with a different partition seed; the best arrangement
    (smallest wirelength among fitting plans, else smallest area
    overflow) wins.
    """

    def __init__(self, iterations: int = 3, seed: int = 0) -> None:
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        self.iterations = iterations
        self.seed = seed

    def plan(self, cud: str, netlist: NetList,
             shape_functions: dict[str, ShapeFunction],
             interface: FloorplanInterface) -> Floorplan:
        """Run bipartitioning / sizing / dimensioning / global routing.

        An attempt is scored from its cells' centres alone; only the
        winner becomes a :class:`Floorplan`, with its placements and
        its cut.
        """
        areas = {c: (shape_functions[c].min_area()
                     if c in shape_functions else 1.0)
                 for c in netlist.cells}
        cells = list(netlist.cells)
        nets = _nets_on(set(cells), (net.cells for net in netlist.nets))
        # sizing: a cell's shape depends on its slice's cut alone, so
        # both candidates are picked once for every attempt
        shapes = {}
        for cell in cells:
            shape_fn = shape_functions.get(cell)
            shapes[cell] = (_pick_shape(shape_fn, areas[cell], True),
                            _pick_shape(shape_fn, areas[cell], False))
        best_key: tuple[float, float] | None = None
        for attempt in range(self.iterations):
            rng = SeededRng(self.seed * 7919 + attempt)
            width, height, placed = _place_cells(cells, nets, shapes, areas,
                                                 rng, horizontal=True)
            centres = {cell: (x + w / 2.0, y + h / 2.0)
                       for cell, x, y, w, h in placed}
            overflow = max(0.0, round(width, 3) - interface.max_width) \
                + max(0.0, round(height, 3) - interface.max_height)
            key = (overflow, _global_route(centres, nets))
            if best_key is None or key < best_key:
                best_key = key
                best = (width, height, placed, centres)
        assert best_key is not None
        # the key does not read the cut: count it for the winner alone
        width, height, placed, centres = best
        part_a = {cell for cell, (x, _y) in centres.items() if x < width / 2}
        part_b = set(netlist.cells) - part_a
        return Floorplan(
            cud=cud, width=round(width, 3), height=round(height, 3),
            placements={item[0]: tuple.__new__(Placement, item)
                        for item in placed},
            cut_nets=netlist.cut_size(part_a, part_b),
            wirelength=best_key[1], iterations=self.iterations)
