"""Tests for the software-engineering domain (tools, methodology,
end-to-end development DA)."""

from __future__ import annotations

import pytest

from repro.core.system import ConcordSystem
from repro.dc.design_manager import DesignerPolicy
from repro.se.methodology import (
    development_script,
    module_script,
    release_spec,
    se_constraints,
)
from repro.se.tools import (
    compile_units,
    debug,
    edit,
    integrate,
    register_se_tools,
    review_passes,
    se_dots,
    specify,
    unit_test,
)
from repro.te.context import DopContext
from repro.util.errors import WorkflowError


def seeded_context(features=("auth", "ui")) -> DopContext:
    return DopContext(data={
        "name": "app", "kind": "system",
        "requirements": {"features": list(features)},
    })


class TestSeDots:
    def test_part_of_chain(self):
        dots = se_dots()
        assert dots["SwModule"].is_part_of(dots["SwSystem"])
        assert dots["SourceUnit"].is_part_of(dots["SwSystem"])

    def test_negative_defects_rejected(self):
        dots = se_dots()
        problems = dots["SwSystem"].validate(
            {"name": "x", "kind": "system", "defects": -1})
        assert problems


class TestSeTools:
    def test_specify_creates_units(self):
        context = seeded_context(("a", "b", "c"))
        specify(context, {})
        assert set(context.data["sources"]) == \
               {"unit_a", "unit_b", "unit_c"}
        assert context.data["defects"] == 0

    def test_specify_requires_requirements(self):
        with pytest.raises(WorkflowError):
            specify(DopContext(data={"name": "x"}), {})

    def test_edit_plants_seeded_defects(self):
        context = seeded_context()
        specify(context, {})
        edit(context, {"seed": 1, "defect_rate": 1.0})
        assert context.data["defects"] == 2 * len(context.data["sources"])
        for unit in context.data["sources"].values():
            assert unit["lines"] == 100

    def test_edit_deterministic(self):
        a, b = seeded_context(), seeded_context()
        for context in (a, b):
            specify(context, {})
            edit(context, {"seed": 5})
        assert a.data["defects"] == b.data["defects"]

    def test_compile_fails_syntax_defects(self):
        context = seeded_context()
        specify(context, {})
        edit(context, {"seed": 1, "defect_rate": 1.0})
        compile_units(context, {})
        assert context.data["objects"] == {}
        assert len(context.data["test_report"]["compile_failures"]) == 2

    def test_compile_clean_sources(self):
        context = seeded_context()
        specify(context, {})
        edit(context, {"seed": 1, "defect_rate": 0.0})
        compile_units(context, {})
        assert len(context.data["objects"]) == 2

    def test_unit_test_coverage_and_failures(self):
        context = seeded_context()
        specify(context, {})
        edit(context, {"seed": 1, "defect_rate": 0.0})
        compile_units(context, {})
        unit_test(context, {})
        assert context.data["coverage"] == 1.0
        assert context.data["test_report"]["failures"] == 0

    def test_debug_removes_defects(self):
        context = seeded_context()
        specify(context, {})
        edit(context, {"seed": 1, "defect_rate": 1.0})
        debug(context, {})
        assert context.data["defects"] == 0

    def test_integrate_requires_full_compile(self):
        context = seeded_context()
        specify(context, {})
        edit(context, {"seed": 1, "defect_rate": 1.0})
        compile_units(context, {})
        with pytest.raises(WorkflowError):
            integrate(context, {})

    def test_integrate_builds_release(self):
        context = seeded_context()
        specify(context, {})
        edit(context, {"seed": 1, "defect_rate": 0.0})
        compile_units(context, {})
        unit_test(context, {})
        integrate(context, {})
        release = context.data["release"]
        assert release["units"] == ["unit_auth", "unit_ui"]
        assert release["defects"] == 0

    def test_review_gate(self):
        context = seeded_context()
        specify(context, {})
        edit(context, {"seed": 1, "defect_rate": 0.0})
        compile_units(context, {})
        unit_test(context, {})
        integrate(context, {})
        assert review_passes(context.data)
        assert not review_passes({"defects": 0})  # no release


class TestSeMethodology:
    def test_constraints_reject_test_before_compile(self):
        constraints = se_constraints()
        assert constraints.violations(
            ["specify", "edit", "unit_test"]) != []

    def test_constraints_accept_full_cycle(self):
        constraints = se_constraints()
        sequence = ["specify", "edit", "compile_units", "unit_test",
                    "debug", "compile_units", "unit_test", "integrate"]
        assert constraints.violations(sequence) == []

    def test_debug_must_be_followed_by_compile(self):
        constraints = se_constraints()
        bad = ["specify", "edit", "compile_units", "unit_test", "debug"]
        assert any("followed" in v for v in constraints.violations(bad))

    def test_development_script_statically_valid(self):
        constraints = se_constraints()
        assert constraints.validate_script(development_script()) == []

    def test_module_script_valid(self):
        constraints = se_constraints()
        assert constraints.validate_script(module_script()) == []

    def test_release_spec_features(self):
        spec = release_spec(min_coverage=1.0)
        good = {"defects": 0, "coverage": 1.0,
                "release": {"units": ["u"]}}
        assert spec.is_final(good)
        assert not spec.is_final({**good, "defects": 3})
        assert not spec.is_final({**good, "release": None})


class TestSeEndToEnd:
    def _build(self):
        system = ConcordSystem(trace=False)
        system.add_workstation("ws-1")
        register_se_tools(system.tools)
        system.constraints = se_constraints()
        dots = se_dots()
        for dot in dots.values():
            system.repository.register_dot(dot)
        da = system.init_design(
            dots["SwSystem"], release_spec(), "dev",
            development_script(), "ws-1",
            initial_data={"name": "app", "kind": "system",
                          "requirements": {"features":
                                           ["auth", "search", "ui"]}})
        system.start(da.da_id)
        return system, da

    class DevPolicy(DesignerPolicy):
        def __init__(self, system, da_id):
            self.system = system
            self.da_id = da_id

        def loop_decision(self, action):
            graph = self.system.repository.graph(self.da_id)
            latest = max(graph.leaves(), key=lambda d: d.created_at)
            clean = (latest.get("defects", 1) == 0
                     and latest.get("coverage", 0.0) >= 1.0)
            return "exit" if clean else "again"

        def dop_params(self, step):
            params = dict(step.params)
            if step.tool == "edit":
                params["seed"] = 3
            return params

    def test_development_reaches_release(self):
        system, da = self._build()
        system.runtime(da.da_id).dm.policy = self.DevPolicy(system, da.da_id)
        status = system.run(da.da_id)
        assert status.done
        assert da.final_dovs
        leaf = max(system.repository.graph(da.da_id).leaves(),
                   key=lambda d: d.created_at)
        assert leaf.data["release"]["defects"] == 0

    def test_development_is_long_duration(self):
        system, da = self._build()
        system.runtime(da.da_id).dm.policy = self.DevPolicy(system, da.da_id)
        system.run(da.da_id)
        # specify+edit alone are 360 simulated minutes
        assert system.clock.now > 360.0

    def test_same_machinery_as_vlsi(self):
        """The identical DA/DM/TM stack drives both domains."""
        system, da = self._build()
        system.runtime(da.da_id).dm.policy = self.DevPolicy(system, da.da_id)
        system.run(da.da_id)
        graph = system.repository.graph(da.da_id)
        assert len(graph) >= 8   # DOV0 + one version per DOP
        # every derived DOV has a parent chain back to DOV0
        leaf = max(graph.leaves(), key=lambda d: d.created_at)
        assert graph.root_id in graph.ancestors_of(leaf.dov_id)
