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

A plan works on cell positions, not names: everything an attempt reads
(areas, the two candidate shapes, the nets as pin positions and each
cell's nets) is computed once per plan, and an attempt writes its
partitions, counts and coordinates into lists indexed by position.
"""

from __future__ import annotations

from random import Random
from typing import Iterable, Mapping

from repro.vlsi.floorplan import Floorplan, FloorplanInterface, Placement
from repro.vlsi.netlist import NetList
from repro.vlsi.shapes import Shape, ShapeFunction


# ---------------------------------------------------------------------------
# the plan's nets
# ---------------------------------------------------------------------------

def _nets_on(index: Mapping[str, int],
             nets: Iterable[Iterable[str]]) -> list[list[int]]:
    """The pins of *nets* on the cells of *index* (cell -> position),
    each pin once, for every net with two or more of them: the nets a
    bipartition of those cells can cut."""
    own = []
    for net in nets:
        pins = [index[c] for c in dict.fromkeys(net) if c in index]
        if len(pins) > 1:
            own.append(pins)
    return own


def _nets_of(cells: int, nets: list[list[int]]) -> list[list[int]]:
    """Per cell position, the numbers of the *nets* it is a pin of."""
    incident: list[list[int]] = [[] for _ in range(cells)]
    for number, pins in enumerate(nets):
        for cell in pins:
            incident[cell].append(number)
    return incident


# ---------------------------------------------------------------------------
# bipartitioning
# ---------------------------------------------------------------------------

#: improvement passes of one bipartitioning run
_PASSES = 4


def _bipartition(order: list[int], area: list[float],
                 own: list[list[int]], side: list[int], nets: int,
                 passes: int) -> int:
    """Balanced min-cut bipartition of the cells *order* (a slice's
    cells, shuffled); writes each one's half into *side* (0 the first,
    1 the second) and returns the size of the second half.

    Greedy area-balanced seed, then KL-style single-move improvement:
    repeatedly move the cell with the best cut-gain whose move keeps
    the areas within a 60/40 balance, until no improving move exists.

    Gains are kept Fiduccia–Mattheyses style: per net (numbered below
    *nets*) the number of its pins in each half, per cell the nets it
    shares with another cell of the slice (*own*).  A move's gain reads
    the counts of the cell's own nets and the chosen move updates only
    those, so a pass costs the slice's pins.  At the end each cell of a
    half that will be partitioned in turn keeps only the nets it shares
    with another cell of that half: a slice's nets are cut down, never
    rebuilt.
    """
    total = sum(map(area.__getitem__, order))
    area_a = area_b = 0.0
    size_a = 0
    for cell in order:
        if area_a <= area_b:
            side[cell] = 0
            area_a += area[cell]
            size_a += 1
        else:
            side[cell] = 1
            area_b += area[cell]
    size_b = len(order) - size_a
    if not size_b:
        return 0   # no pin over there: no move gains

    count_a = [0] * nets
    count_b = [0] * nets
    for cell in order:
        if side[cell]:
            for net in own[cell]:
                count_b[net] += 1
        else:
            for net in own[cell]:
                count_a[net] += 1

    for _ in range(passes):
        # a move keeps the halves within 60/40 of the total area, or
        # either half is down to one cell
        balance = total > 0 and size_a > 1 and size_b > 1
        best_gain = 0
        best_cell = -1
        for cell in order:
            # a net leaves the cut when this is its last pin here and
            # joins it when it had no pin over there
            gain = 0
            if side[cell]:
                if size_b <= 1 or balance \
                        and not 0.4 <= (area_a + area[cell]) / total <= 0.6:
                    continue
                for net in own[cell]:
                    if count_a[net]:
                        gain += 1
                    if count_b[net] > 1:
                        gain -= 1
            else:
                if size_a <= 1 or balance \
                        and not 0.4 <= (area_a - area[cell]) / total <= 0.6:
                    continue
                for net in own[cell]:
                    if count_b[net]:
                        gain += 1
                    if count_a[net] > 1:
                        gain -= 1
            if gain > best_gain:
                best_gain, best_cell = gain, cell
        if best_cell < 0:
            break
        moved = area[best_cell]
        if side[best_cell]:
            side[best_cell] = 0
            size_a += 1
            size_b -= 1
            area_a += moved
            area_b -= moved
            for net in own[best_cell]:
                count_b[net] -= 1
                count_a[net] += 1
        else:
            side[best_cell] = 1
            size_a -= 1
            size_b += 1
            area_a -= moved
            area_b += moved
            for net in own[best_cell]:
                count_a[net] -= 1
                count_b[net] += 1

    # two cells are seeded one a side (or, with no area to balance,
    # both on one side, where no move gains): only a half of three or
    # more reads its nets
    if size_a > 2 or size_b > 2:
        for cell in order:
            if side[cell]:
                if size_b > 2:
                    own[cell] = [net for net in own[cell]
                                 if count_b[net] > 1]
            elif size_a > 2:
                own[cell] = [net for net in own[cell] if count_a[net] > 1]
    return size_b


# ---------------------------------------------------------------------------
# sizing + dimensioning (recursive slicing placement)
# ---------------------------------------------------------------------------

class _Attempt:
    """What one attempt reads and writes, by cell position: the plan's
    areas, shapes and nets, the attempt's stream, and the coordinates
    and shapes it places."""

    __slots__ = ("rng", "names", "area", "wide", "narrow", "own", "nets",
                 "side", "xs", "ys", "shapes", "leaves")

    def __init__(self, rng: Random, names: list[str], area: list[float],
                 wide: list[Shape], narrow: list[Shape],
                 nets_of: list[list[int]], nets: int) -> None:
        cells = len(names)
        self.rng = rng
        self.names = names
        self.area = area
        self.wide = wide
        self.narrow = narrow
        #: per cell, the nets it shares with another cell of its slice
        self.own = nets_of[:]
        self.nets = nets
        self.side = [0] * cells
        self.xs = [0.0] * cells
        self.ys = [0.0] * cells
        self.shapes: list[Shape] = [None] * cells   # type: ignore[list-item]
        #: cell positions in placement order
        self.leaves: list[int] = []


def _place_cells(cells: list[int], horizontal: bool,
                 run: _Attempt) -> tuple[float, float]:
    """Recursive slicing: partition, place halves, compose.

    Places *cells* (positions, in net-list order) in the slice's own
    frame and returns its width and height.  A cell alone in a slice
    whose parent stacks its halves takes its wide shape, one whose
    parent puts them side by side its narrow one.  Each level shifts
    the second half by the first one's extent, so a coordinate is the
    sum of its slices' offsets, innermost first.
    """
    # the shape a cell alone in either half of this slice takes
    alone = run.narrow if horizontal else run.wide
    count = len(cells)
    if count == 2:
        # one draw; no move can follow the seed: with the first cell's
        # area positive the halves are one cell each, else both seed
        # the first half and the slice splits by name
        first, second = pair = cells[:]
        run.rng.shuffle(pair)
        if run.area[pair[0]] <= 0.0:
            if run.names[first] > run.names[second]:
                first, second = second, first
        else:
            first, second = pair
        shapes, leaves, xs, ys = run.shapes, run.leaves, run.xs, run.ys
        width_a, height_a = shapes[first] = alone[first]
        width_b, height_b = shapes[second] = alone[second]
        leaves.append(first)
        leaves.append(second)
        if horizontal:
            xs[second] += width_a
            return width_a + width_b, max(height_a, height_b)
        ys[second] += height_a
        return max(width_a, width_b), height_a + height_b

    side = run.side
    order = cells[:]
    run.rng.shuffle(order)
    if not _bipartition(order, run.area, run.own, side, run.nets, _PASSES):
        # everything seeded one half and stayed: split by name
        names = run.names
        order.sort(key=names.__getitem__)
        half = count // 2
        for cell in order[half:]:
            side[cell] = 1
    cells_a = []
    cells_b = []
    for cell in cells:
        if side[cell]:
            cells_b.append(cell)
        else:
            cells_a.append(cell)

    if len(cells_a) == 1:
        cell = cells_a[0]
        width_a, height_a = run.shapes[cell] = alone[cell]
        run.leaves.append(cell)
    else:
        width_a, height_a = _place_cells(cells_a, not horizontal, run)
    if len(cells_b) == 1:
        cell = cells_b[0]
        width_b, height_b = run.shapes[cell] = alone[cell]
        run.leaves.append(cell)
    else:
        width_b, height_b = _place_cells(cells_b, not horizontal, run)
    if horizontal:   # halves side by side
        xs = run.xs
        for cell in cells_b:
            xs[cell] += width_a
        return width_a + width_b, max(height_a, height_b)
    ys = run.ys
    for cell in cells_b:
        ys[cell] += height_a
    return max(width_a, width_b), height_a + height_b


def _sizes(shape_fn: ShapeFunction | None) -> tuple[float, Shape, Shape]:
    """A cell's smallest area and its widest and narrowest shapes (the
    first of equals, as ``min`` / ``max`` pick them); a cell without a
    shape function is a unit square."""
    if shape_fn is None:
        square = tuple.__new__(Shape, (1.0, 1.0))
        return 1.0, square, square
    shapes = shape_fn.shapes
    wide = narrow = shapes[0]
    width, height = wide
    widest = narrowest = width / height if height else float("inf")
    for shape in shapes[1:]:
        width, height = shape
        aspect = width / height if height else float("inf")
        if aspect > widest:
            wide, widest = shape, aspect
        if aspect < narrowest:
            narrow, narrowest = shape, aspect
    return shape_fn.min_area(), wide, narrow


# ---------------------------------------------------------------------------
# global routing (wirelength estimation)
# ---------------------------------------------------------------------------

def _global_route(xs: list[float], ys: list[float],
                  nets: list[list[int]]) -> float:
    """Half-perimeter wirelength over the placed subcells.

    The classic chip-planning estimate: for each net, the half
    perimeter of the bounding box of its pins, the centres *xs* / *ys*
    of its subcells (by position).  *nets* are the plan's own nets
    (:func:`_nets_on`): a net with fewer than two pins spans nothing.
    The box's sides are found as ``max`` / ``min`` find them.
    """
    total = 0.0
    for pins in nets:
        first = pins[0]
        right = left = xs[first]
        top = bottom = ys[first]
        for pin in pins[1:]:
            x = xs[pin]
            if x > right:
                right = x
            if x < left:
                left = x
            y = ys[pin]
            if y > top:
                top = y
            if y < bottom:
                bottom = y
        total += (right - left) + (top - bottom)
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
        names = list(netlist.cells)
        index = {cell: position for position, cell in enumerate(names)}
        # sizing: a cell's shape depends on its slice's cut alone, so
        # both candidates are picked once for every attempt
        area = []
        wide = []
        narrow = []
        for cell in names:
            smallest, widest, narrowest = _sizes(shape_functions.get(cell))
            area.append(smallest)
            wide.append(widest)
            narrow.append(narrowest)
        nets = _nets_on(index, (net.cells for net in netlist.nets))
        nets_of = _nets_of(len(names), nets)
        cells = list(range(len(names)))
        seed = self.seed * 7919
        rng = Random(seed)
        best_key: tuple[float, float] | None = None
        for attempt in range(self.iterations):
            if attempt:
                rng.seed(seed + attempt)
            run = _Attempt(rng, names, area, wide, narrow, nets_of,
                           len(nets))
            if len(cells) == 1:
                run.leaves.append(0)
                width, height = run.shapes[0] = wide[0]
            else:
                width, height = _place_cells(cells, True, run)
            xs, ys, shapes = run.xs, run.ys, run.shapes
            centre_x = [x + shape[0] / 2.0 for x, shape in zip(xs, shapes)]
            centre_y = [y + shape[1] / 2.0 for y, shape in zip(ys, shapes)]
            overflow = max(0.0, round(width, 3) - interface.max_width) \
                + max(0.0, round(height, 3) - interface.max_height)
            key = (overflow, _global_route(centre_x, centre_y, nets))
            if best_key is None or key < best_key:
                best_key = key
                best = (width, height, run, centre_x)
        assert best_key is not None
        # the key does not read the cut: count it for the winner alone
        width, height, run, centre_x = best
        middle = width / 2
        cut = 0
        for pins in nets:
            left = centre_x[pins[0]] < middle
            for pin in pins:
                if (centre_x[pin] < middle) is not left:
                    cut += 1
                    break
        xs, ys, shapes = run.xs, run.ys, run.shapes
        return Floorplan(
            cud=cud, width=round(width, 3), height=round(height, 3),
            placements={names[cell]: tuple.__new__(
                            Placement, (names[cell], xs[cell], ys[cell],
                                        *shapes[cell]))
                        for cell in run.leaves},
            cut_nets=cut, wirelength=best_key[1],
            iterations=self.iterations)
