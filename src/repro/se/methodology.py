"""Development methodology for the software-engineering domain.

The counterparts of the VLSI design plane: domain ordering constraints
(compile before test, test before integrate, ...) and scripts for the
develop-test-debug cycle, expressed with exactly the same DC-level
machinery that drives chip planning — the point the paper's Sect.6
makes about AC-level domain independence.
"""

from __future__ import annotations

from repro.core.features import (
    DesignSpecification,
    RangeFeature,
    TestToolFeature,
)
from repro.dc.constraints import DomainConstraintSet, FollowedBy, NotBefore
from repro.dc.script import (
    DaOpStep,
    DopStep,
    Iteration,
    Open,
    Script,
    Sequence,
)
from repro.se.tools import review_passes


def se_constraints() -> DomainConstraintSet:
    """Ordering constraints of the development domain."""
    return DomainConstraintSet([
        NotBefore("specify", "edit"),
        NotBefore("edit", "compile_units"),
        NotBefore("compile_units", "unit_test"),
        NotBefore("unit_test", "integrate"),
        FollowedBy("debug", "compile_units"),
    ], domain="software-engineering")


def release_spec(min_coverage: float = 1.0) -> DesignSpecification:
    """Goal of a development DA: a releasable, tested, defect-free DOV."""
    return DesignSpecification([
        RangeFeature("no-defects", "defects", lo=0, hi=0.0),
        RangeFeature("coverage", "coverage", lo=min_coverage),
        TestToolFeature("review", "release-review",
                        lambda data: review_passes(data, min_coverage)),
    ])


def development_script() -> Script:
    """The develop / compile / test / debug cycle as a DA script.

    Specify, edit, then iterate compile-test-(debug) until the quality
    state is final, then integrate — with an open segment before
    integration for ad-hoc designer actions.
    """
    return Script(Sequence(
        DopStep("specify"),
        DopStep("edit"),
        Iteration(
            Sequence(
                DopStep("compile_units"),
                DopStep("unit_test"),
                DaOpStep("Evaluate"),
                DopStep("debug"),
                DopStep("compile_units"),
                DopStep("unit_test"),
                DaOpStep("Evaluate"),
            ),
            max_rounds=6,
            name="test-debug-cycle",
        ),
        Open(name="pre-release", allowed_tools=(
            "unit_test", "debug", "compile_units")),
        DopStep("integrate"),
        DaOpStep("Evaluate"),
    ), name="develop-module")


def module_script() -> Script:
    """Script of a sub-DA developing one module (no integration)."""
    return Script(Sequence(
        DopStep("specify"),
        DopStep("edit"),
        Iteration(
            Sequence(
                DopStep("compile_units"),
                DopStep("unit_test"),
                DaOpStep("Evaluate"),
                DopStep("debug"),
                DopStep("compile_units"),
                DopStep("unit_test"),
                DaOpStep("Evaluate"),
            ),
            max_rounds=4,
            name="module-test-debug",
        ),
    ), name="develop-single-module")
