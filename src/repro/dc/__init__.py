"""Design Control level: scripts, constraints, ECA rules, design manager.

Implements the paper's DC level (Sect.4.2, Sect.5.3): per-DA work-flow
specification via scripts with alternatives / parallel branches /
iterations / open segments, domain-wide DOP ordering constraints, ECA
rules for asynchronously occurring cooperation events, and the design
manager with recoverable script execution.
"""

from repro.dc.constraints import (
    DomainConstraint,
    DomainConstraintSet,
    FollowedBy,
    NotBefore,
)
from repro.dc.design_manager import (
    DaBinding,
    DesignManager,
    DesignerPolicy,
    DmStatus,
    ToolRegistry,
)
from repro.dc.rules import EcaRule, RuleEngine, RuleFiring, require_propagate_rule
from repro.dc.script import (
    ActionKind,
    Alternative,
    DaOpStep,
    DopStep,
    EnabledAction,
    Iteration,
    Open,
    Parallel,
    Script,
    ScriptCursor,
    ScriptNode,
    Sequence,
)

__all__ = [
    "ActionKind",
    "Alternative",
    "DaBinding",
    "DaOpStep",
    "DesignManager",
    "DesignerPolicy",
    "DmStatus",
    "DomainConstraint",
    "DomainConstraintSet",
    "DopStep",
    "EcaRule",
    "EnabledAction",
    "FollowedBy",
    "Iteration",
    "NotBefore",
    "Open",
    "Parallel",
    "RuleEngine",
    "RuleFiring",
    "Script",
    "ScriptCursor",
    "ScriptNode",
    "Sequence",
    "ToolRegistry",
    "require_propagate_rule",
]
