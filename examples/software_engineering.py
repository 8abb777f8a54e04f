#!/usr/bin/env python3
"""CONCORD driving a second domain: team software development.

The paper reports in-field validation "in the design areas of VLSI and
software engineering" (Sect.6).  This example shows the *same* DA / DM /
TM machinery running a development project:

* a top-level DA develops the system (specify, edit,
  compile-test-debug cycle, integrate) under domain ordering
  constraints (no testing before compiling, debug must be followed by
  a re-compile),
* two module sub-DAs are delegated and exchange a preliminary result
  over a usage relationship (the UI module consumes the auth module's
  tested interface before the auth module is finished),
* the release specification (zero defects, full coverage, passed
  review) gates finality, exactly like shape/area features gate chip
  planning.

Run with:  python examples/software_engineering.py
"""

from repro.core.system import ConcordSystem
from repro.dc.design_manager import DesignerPolicy
from repro.se import (
    development_script,
    module_script,
    register_se_tools,
    release_spec,
    se_constraints,
    se_dots,
)


class DeveloperPolicy(DesignerPolicy):
    """Keeps cycling compile-test-debug until the code is clean."""

    def __init__(self, system, da_id, edit_seed):
        self.system = system
        self.da_id = da_id
        self.edit_seed = edit_seed

    def loop_decision(self, action):
        graph = self.system.repository.graph(self.da_id)
        latest = max(graph.leaves(), key=lambda d: d.created_at)
        clean = (latest.get("defects", 1) == 0
                 and latest.get("coverage", 0.0) >= 1.0)
        return "exit" if clean else "again"

    def dop_params(self, step):
        params = dict(step.params)
        if step.tool == "edit":
            params["seed"] = self.edit_seed
        return params


def main() -> None:
    system = ConcordSystem()
    for workstation in ("ws-lead", "ws-auth", "ws-ui"):
        system.add_workstation(workstation)
    register_se_tools(system.tools)
    system.constraints = se_constraints()
    dots = se_dots()
    for dot in dots.values():
        system.repository.register_dot(dot)

    # --- the system-level DA ------------------------------------------------
    top = system.init_design(
        dots["SwSystem"], release_spec(), "lead",
        development_script(), "ws-lead",
        initial_data={"name": "webshop", "kind": "system",
                      "requirements": {"features":
                                       ["auth", "catalog", "checkout"]}})
    system.start(top.da_id)

    # --- delegated module DAs -----------------------------------------------
    auth = system.create_sub_da(
        top.da_id, dots["SwModule"], release_spec(min_coverage=1.0),
        "sam", module_script(), "ws-auth")
    ui = system.create_sub_da(
        top.da_id, dots["SwModule"], release_spec(min_coverage=1.0),
        "uma", module_script(), "ws-ui")
    for sub in (auth, ui):
        system.start(sub.da_id)
        # seed each module's own requirements as its DOV0 basis
        system.repository.checkin(
            sub.da_id, "SwModule",
            {"name": f"module-{sub.designer}", "kind": "module",
             "requirements": {"features": ["core", "api"]}},
            created_at=system.clock.now)

    print("=== module development with pre-release exchange ===")
    # UI requires a defect-free preliminary result of the auth module
    delivered = system.cm.require(ui.da_id, auth.da_id, {"no-defects"})
    print(f"  ui Requires auth's 'no-defects' result -> "
          f"{delivered or 'pending (nothing propagated yet)'}")

    system.runtime(auth.da_id).dm.policy = \
        DeveloperPolicy(system, auth.da_id, 3)
    system.run(auth.da_id)
    auth_leaf = max(system.repository.graph(auth.da_id).leaves(),
                    key=lambda d: d.created_at)
    system.cm.evaluate(auth.da_id, auth_leaf.dov_id)
    receivers = system.cm.propagate(auth.da_id, auth_leaf.dov_id)
    print(f"  auth finished its cycle (defects="
          f"{auth_leaf.get('defects')}) and Propagates "
          f"{auth_leaf.dov_id} -> delivered to {receivers}")

    system.runtime(ui.da_id).dm.policy = DeveloperPolicy(system, ui.da_id, 4)
    system.run(ui.da_id)
    print(f"  ui finished its cycle at t={system.clock.now:.0f} min "
          f"(it could read auth's pre-release while auth was still "
          f"uncommitted)")

    # --- system-level development --------------------------------------------
    print("\n=== system-level develop/test/debug/integrate ===")
    system.runtime(top.da_id).dm.policy = \
        DeveloperPolicy(system, top.da_id, 7)
    status = system.run(top.da_id)
    leaf = max(system.repository.graph(top.da_id).leaves(),
               key=lambda d: d.created_at)
    print(f"  work flow done={status.done}, DOPs={status.executed_dops}")
    print(f"  release: {leaf.data.get('release')}")
    print(f"  final DOVs: {top.final_dovs}")
    print(f"  total simulated development time: "
          f"{system.clock.now / 60:.1f} hours")

    print("\n=== the same machinery as chip planning ===")
    print(f"  levels traced: {system.level_summary()}")
    tools = system.runtime(top.da_id).dm.executed_tools
    print(f"  system DA tool sequence: {' -> '.join(tools)}")


if __name__ == "__main__":
    main()
