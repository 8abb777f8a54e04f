"""AC level + model core: features, DAs, cooperation manager, system.

The paper's primary contribution: design activities with description
vectors, the Fig.7 lifecycle, delegation / usage / negotiation
relationships mediated by the cooperation manager, and the
:class:`ConcordSystem` facade wiring all three levels.
"""

from repro.core.activity import DescriptionVector, DesignActivity
from repro.core.cooperation_manager import CooperationManager
from repro.core.features import (
    DesignSpecification,
    Feature,
    QualityState,
    RangeFeature,
    TestToolFeature,
)
from repro.core.relationships import (
    Delegation,
    Message,
    Negotiation,
    Proposal,
    ProposalStatus,
    Usage,
)
from repro.core.states import (
    DaOperation,
    DaState,
    DaStateMachine,
    ISSUED_BY_COOPERATING_DA,
    legal_operations,
    transition_table,
)
from repro.core.system import ActivityBinding, ConcordSystem, DaRuntime

__all__ = [
    "ActivityBinding",
    "ConcordSystem",
    "CooperationManager",
    "DaOperation",
    "DaRuntime",
    "DaState",
    "DaStateMachine",
    "Delegation",
    "DescriptionVector",
    "DesignActivity",
    "DesignSpecification",
    "Feature",
    "ISSUED_BY_COOPERATING_DA",
    "Message",
    "Negotiation",
    "Proposal",
    "ProposalStatus",
    "QualityState",
    "RangeFeature",
    "TestToolFeature",
    "Usage",
    "legal_operations",
    "transition_table",
]
