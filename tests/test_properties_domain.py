"""Property-based tests on the VLSI domain and the workload simulator."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.models import all_models
from repro.util.rng import SeededRng
from repro.vlsi.chip_planner import (
    ChipPlanner,
    _bipartition,
    _nets_of,
    _nets_on,
)
from repro.vlsi.floorplan import FloorplanInterface
from repro.vlsi.netlist import synthetic_netlist
from repro.vlsi.shapes import shapes_for_area
from repro.workload.generator import team_workload
from repro.workload.simulator import TeamSimulator, crash_lost_work


# ---------------------------------------------------------------------------
# bipartitioning
# ---------------------------------------------------------------------------

def partition(netlist, areas, rng):
    """The planner's bipartitioning of a whole net list, by name: its
    cells shuffled by *rng*, their own nets by position."""
    cells = list(netlist.cells)
    index = {cell: position for position, cell in enumerate(cells)}
    nets = _nets_on(index, (net.cells for net in netlist.nets))
    order = list(range(len(cells)))
    rng.shuffle(order)
    side = [0] * len(cells)
    _bipartition(order, [areas[cell] for cell in cells],
                 _nets_of(len(cells), nets), side, len(nets), 4)
    return ({cells[p] for p in order if not side[p]},
            {cells[p] for p in order if side[p]})


@given(st.integers(min_value=2, max_value=16),
       st.integers(min_value=0, max_value=1000))
@settings(max_examples=40, deadline=None)
def test_bipartition_is_a_partition(n_cells, seed):
    cells = [f"c{i}" for i in range(n_cells)]
    netlist = synthetic_netlist(cells, SeededRng(seed))
    areas = {c: 1.0 + (i % 3) for i, c in enumerate(cells)}
    part_a, part_b = partition(netlist, areas, SeededRng(seed + 1))
    assert part_a | part_b == set(cells)
    assert part_a & part_b == set()
    assert part_a and part_b


@given(st.integers(min_value=4, max_value=16),
       st.integers(min_value=0, max_value=500))
@settings(max_examples=30, deadline=None)
def test_bipartition_roughly_balanced(n_cells, seed):
    cells = [f"c{i}" for i in range(n_cells)]
    netlist = synthetic_netlist(cells, SeededRng(seed))
    areas = {c: 1.0 for c in cells}
    part_a, part_b = partition(netlist, areas, SeededRng(seed))
    total = len(cells)
    assert min(len(part_a), len(part_b)) >= total // 4


# ---------------------------------------------------------------------------
# chip planning geometry
# ---------------------------------------------------------------------------

@given(st.integers(min_value=2, max_value=10),
       st.integers(min_value=0, max_value=200))
@settings(max_examples=25, deadline=None)
def test_floorplans_always_geometrically_valid(n_cells, seed):
    cells = [f"c{i}" for i in range(n_cells)]
    netlist = synthetic_netlist(cells, SeededRng(seed))
    shape_functions = {c: shapes_for_area(c, 2.0 + (i % 5))
                       for i, c in enumerate(cells)}
    planner = ChipPlanner(iterations=2, seed=seed)
    plan = planner.plan("cud", netlist, shape_functions,
                        FloorplanInterface("cud", 1e6, 1e6))
    assert plan.validate() == []
    assert set(plan.placements) == set(cells)
    assert plan.utilisation <= 1.0 + 1e-9
    # the bounding box really bounds the placements
    for placement in plan.placements.values():
        assert placement.x + placement.width <= plan.width + 1e-6
        assert placement.y + placement.height <= plan.height + 1e-6


@given(st.integers(min_value=2, max_value=8),
       st.integers(min_value=0, max_value=100))
@settings(max_examples=20, deadline=None)
def test_used_area_conserved(n_cells, seed):
    """Sizing picks one alternative per cell: total used area equals
    the sum of the chosen shapes' areas, never less than min areas."""
    cells = [f"c{i}" for i in range(n_cells)]
    netlist = synthetic_netlist(cells, SeededRng(seed))
    shape_functions = {c: shapes_for_area(c, 3.0) for c in cells}
    plan = ChipPlanner(iterations=1, seed=seed).plan(
        "cud", netlist, shape_functions,
        FloorplanInterface("cud", 1e6, 1e6))
    min_total = sum(sf.min_area() for sf in shape_functions.values())
    assert plan.used_area >= min_total - 1e-6


# ---------------------------------------------------------------------------
# team simulator
# ---------------------------------------------------------------------------

@given(st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=500))
@settings(max_examples=25, deadline=None)
def test_simulator_conserves_work_across_models(team_size, seed):
    workload = team_workload(team_size, seed=seed)
    for model in all_models():
        metrics = TeamSimulator(model, workload).run()
        assert metrics.total_work == workload.total_work \
            or abs(metrics.total_work - workload.total_work) < 1e-6
        # makespan can never beat perfect parallelism or the critical
        # session, and never exceeds work + blocking + rework
        longest_session = max(s.total_work for s in workload.sessions)
        assert metrics.makespan >= longest_session - 1e-6
        assert metrics.makespan <= (workload.total_work
                                    + metrics.total_rework + 1e-6)


@given(st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=500))
@settings(max_examples=25, deadline=None)
def test_concord_never_slower_than_flat(team_size, seed):
    workload = team_workload(team_size, seed=seed)
    models = {m.name: m for m in all_models()}
    concord = TeamSimulator(models["concord"], workload).run()
    flat = TeamSimulator(models["flat_acid"], workload).run()
    assert concord.makespan <= flat.makespan + 1e-6


@given(st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
       st.integers(min_value=1, max_value=6))
@settings(max_examples=50)
def test_lost_work_never_exceeds_done_work(crash_time, n_steps):
    steps = [40.0 + 7.0 * i for i in range(n_steps)]
    for model in all_models():
        metrics = crash_lost_work(model, steps, crash_time)
        done = min(crash_time, sum(steps))
        # 1e-3 tolerance: lost_work is rounded to 3 decimals
        assert 0.0 <= metrics.lost_work <= done + 1e-3
