"""The software-engineering design domain.

The paper reports that "initial 'in-the-field' experiments validating
the modeling concepts of the AC level have been run in the design areas
of VLSI *and software engineering*" (Sect.6).  This package provides
that second domain, demonstrating that the CONCORD model is
domain-independent: the same DA/DOP machinery drives a team developing
a software system.

Design objects: a ``System`` composed of ``Module``s composed of
``SourceUnit``s.  DOV payloads carry ``sources`` (unit name → simulated
source descriptor), ``objects`` (compiled units), ``test_report`` and
``release``.

Tools (all deterministic, seeded where stochastic):

* ``specify``       — derive the module breakdown from requirements;
* ``edit``          — write/extend source units (introduces seeded
  defects);
* ``compile_units`` — compile sources to objects (fails on syntax
  defects);
* ``unit_test``     — run tests, producing a test report (finds seeded
  logic defects);
* ``debug``         — remove found defects;
* ``integrate``     — link objects into a release candidate;
* ``review``        — static quality check used as a test-tool feature.
"""

from __future__ import annotations

from typing import Any

from repro.dc.design_manager import ToolRegistry
from repro.repository.schema import (
    AttributeDef,
    AttributeKind,
    Constraint,
    DesignObjectType,
)
from repro.te.context import DopContext
from repro.util.errors import WorkflowError
from repro.util.rng import SeededRng


def _se_attributes() -> list[AttributeDef]:
    return [
        AttributeDef("name", AttributeKind.STRING),
        AttributeDef("kind", AttributeKind.STRING),
        AttributeDef("requirements", AttributeKind.JSON, required=False),
        AttributeDef("sources", AttributeKind.JSON, required=False),
        AttributeDef("objects", AttributeKind.JSON, required=False),
        AttributeDef("test_report", AttributeKind.JSON, required=False),
        AttributeDef("release", AttributeKind.JSON, required=False),
        AttributeDef("defects", AttributeKind.INT, required=False),
        AttributeDef("coverage", AttributeKind.FLOAT, required=False),
    ]


def _non_negative_defects() -> list[Constraint]:
    def check(data: dict[str, Any]) -> bool:
        defects = data.get("defects")
        return defects is None or defects >= 0

    return [Constraint("non-negative-defects", check,
                       "defect counts cannot be negative")]


def se_dots() -> dict[str, DesignObjectType]:
    """System ⊃ Module ⊃ SourceUnit."""
    unit = DesignObjectType("SourceUnit", _se_attributes(),
                            constraints=_non_negative_defects())
    module = DesignObjectType("SwModule", _se_attributes(),
                              parts={"units": unit},
                              constraints=_non_negative_defects())
    system = DesignObjectType("SwSystem", _se_attributes(),
                              parts={"modules": module},
                              constraints=_non_negative_defects())
    return {"SwSystem": system, "SwModule": module, "SourceUnit": unit}


# ---------------------------------------------------------------------------
# tools
# ---------------------------------------------------------------------------

def specify(context: DopContext, params: dict[str, Any]) -> None:
    """Derive the module/unit breakdown from the requirements."""
    requirements = context.data.get("requirements")
    if not requirements or "features" not in requirements:
        raise WorkflowError("specify needs requirements with 'features'")
    units = {}
    for feature in requirements["features"]:
        units[f"unit_{feature}"] = {
            "feature": feature, "lines": 0, "syntax_defects": 0,
            "logic_defects": 0,
        }
    context.data["sources"] = units
    context.data["defects"] = 0


def edit(context: DopContext, params: dict[str, Any]) -> None:
    """Write source code; a seeded fraction of edits plants defects.

    Copy-on-write over the checked-out state: payloads arriving via
    checkout are frozen, so the tool derives fresh unit dicts instead
    of mutating them in place.
    """
    sources = context.data.get("sources")
    if not sources:
        raise WorkflowError("edit needs sources (run specify first)")
    rng = SeededRng(int(params.get("seed", 0)))
    defect_rate = float(params.get("defect_rate", 0.3))
    lines_per_unit = int(params.get("lines", 100))
    edited = {}
    for name, unit in sources.items():
        unit = dict(unit)
        unit["lines"] += lines_per_unit
        if rng.bernoulli(defect_rate):
            unit["syntax_defects"] += 1
        if rng.bernoulli(defect_rate):
            unit["logic_defects"] += 1
        edited[name] = unit
    context.data["sources"] = edited
    context.data["defects"] = sum(
        u["syntax_defects"] + u["logic_defects"]
        for u in edited.values())


def compile_units(context: DopContext, params: dict[str, Any]) -> None:
    """Compile sources; syntax defects make units fail to compile."""
    sources = context.data.get("sources")
    if not sources:
        raise WorkflowError("compile needs sources")
    objects = {}
    failed = []
    for name, unit in sources.items():
        if unit.get("syntax_defects", 0) > 0:
            failed.append(name)
        else:
            objects[name] = {"from": name, "size": unit["lines"] * 4}
    context.data["objects"] = objects
    report = dict(context.data.get("test_report") or {})
    report["compile_failures"] = failed
    context.data["test_report"] = report


def unit_test(context: DopContext, params: dict[str, Any]) -> None:
    """Run unit tests over the compiled units; finds logic defects."""
    objects = context.data.get("objects")
    sources = context.data.get("sources")
    if objects is None or sources is None:
        raise WorkflowError("unit_test needs compiled objects")
    found = {name: sources[name].get("logic_defects", 0)
             for name in objects}
    tested = len(objects)
    total_units = len(sources)
    report = dict(context.data.get("test_report") or {})
    report["defects_found"] = found
    report["failures"] = sum(found.values())
    context.data["test_report"] = report
    context.data["coverage"] = round(tested / total_units, 3) \
        if total_units else 0.0


def debug(context: DopContext, params: dict[str, Any]) -> None:
    """Fix defects (syntax first, then logic found by tests)."""
    sources = context.data.get("sources")
    if not sources:
        raise WorkflowError("debug needs sources")
    fixes = int(params.get("fixes", 10_000))
    fixed = {}
    for name, unit in sources.items():
        unit = dict(unit)
        while fixes > 0 and unit.get("syntax_defects", 0) > 0:
            unit["syntax_defects"] -= 1
            fixes -= 1
        while fixes > 0 and unit.get("logic_defects", 0) > 0:
            unit["logic_defects"] -= 1
            fixes -= 1
        fixed[name] = unit
    context.data["sources"] = fixed
    context.data["defects"] = sum(
        u["syntax_defects"] + u["logic_defects"]
        for u in fixed.values())


def integrate(context: DopContext, params: dict[str, Any]) -> None:
    """Link all objects into a release candidate."""
    objects = context.data.get("objects")
    sources = context.data.get("sources")
    if not objects or sources is None:
        raise WorkflowError("integrate needs compiled objects")
    if len(objects) != len(sources):
        raise WorkflowError(
            f"integration rejected: {len(sources) - len(objects)} units "
            f"failed to compile")
    context.data["release"] = {
        "units": sorted(objects),
        "size": sum(o["size"] for o in objects.values()),
        "defects": context.data.get("defects", 0),
    }


def review_passes(data: dict[str, Any],
                  min_coverage: float = 1.0) -> bool:
    """The domain's test-tool feature: release quality gate."""
    if data.get("release") is None:
        return False
    if data.get("defects", 1) > 0:
        return False
    return data.get("coverage", 0.0) >= min_coverage


#: simulated running times (minutes)
SE_TOOL_DURATIONS: dict[str, float] = {
    "specify": 120.0,
    "edit": 240.0,
    "compile_units": 10.0,
    "unit_test": 45.0,
    "debug": 90.0,
    "integrate": 30.0,
}


def register_se_tools(registry: ToolRegistry) -> None:
    """Register the software-engineering tools."""
    registry.register("specify", specify, SE_TOOL_DURATIONS["specify"])
    registry.register("edit", edit, SE_TOOL_DURATIONS["edit"])
    registry.register("compile_units", compile_units,
                      SE_TOOL_DURATIONS["compile_units"])
    registry.register("unit_test", unit_test,
                      SE_TOOL_DURATIONS["unit_test"])
    registry.register("debug", debug, SE_TOOL_DURATIONS["debug"])
    registry.register("integrate", integrate,
                      SE_TOOL_DURATIONS["integrate"])
