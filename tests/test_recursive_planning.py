"""Tests for the recursive top-down planning scenario (Sect.3)."""

from __future__ import annotations

from repro.bench.scenarios import recursive_planning_scenario
from repro.core.states import DaState
from repro.vlsi.cells import sample_hierarchy


class TestRecursivePlanning:
    def test_one_da_per_inner_cell(self):
        hierarchy = sample_hierarchy()
        system, report = recursive_planning_scenario()
        inner = {c.name for c in hierarchy.cells() if c.children}
        assert set(report.das) == inner

    def test_da_depth_matches_cell_level(self):
        hierarchy = sample_hierarchy()
        __, report = recursive_planning_scenario()
        for cell in hierarchy.cells():
            if cell.children:
                assert report.depths[cell.name] == cell.level.value

    def test_every_inner_cell_got_a_floorplan(self):
        hierarchy = sample_hierarchy()
        __, report = recursive_planning_scenario()
        inner = {c.name for c in hierarchy.cells() if c.children}
        assert set(report.floorplans) == inner
        for width, height in report.floorplans.values():
            assert width > 0 and height > 0

    def test_devolution_climbs_to_the_root(self):
        system, report = recursive_planning_scenario()
        # every sub-DA terminated and devolved at least one final DOV
        sub_das = [da for da in system.cm.das() if da.parent is not None]
        assert sub_das
        assert all(da.state is DaState.TERMINATED for da in sub_das)
        assert all(report.devolved[da.da_id] for da in sub_das)
        # the root DA's scope accumulated its direct children's finals
        root_id = report.das["chip-0"]
        root_scope = system.cm.scope_of(root_id)
        for da in sub_das:
            if da.parent == root_id:
                for dov in report.devolved[da.da_id]:
                    assert dov in root_scope
