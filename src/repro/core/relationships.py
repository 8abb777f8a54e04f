"""Cooperation relationships: delegation, usage, negotiation (Sect.4.1).

"All relationships between DAs are explicitly modeled, thus capturing
design flow (cooperation relationship *delegation*), exchange of design
data (cooperation relationship *usage*), and negotiation of design
goals (cooperation relationship *negotiation*)."

The classes here are the CM's bookkeeping records; the protocol logic
(who may do what, when) lives in the cooperation manager.

Every record has an ``image()`` / ``restore()`` pair: the after-image
the CM appends to its state log and the way back.  An image is an
immutable value — a tuple of scalars, enum members, features, tuples
and frozen containers — so it shares no mutable part with the record
it was taken from, and neither does a restored record with its image.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from repro.core.features import Feature
from repro.repository.versions import FrozenDict, FrozenList, thaw_payload
from repro.util.errors import NegotiationError


@dataclass(frozen=True)
class Delegation:
    """Super-DA delegated a subtask to a sub-DA (Create_Sub_DA)."""

    super_da: str
    sub_da: str
    created_at: float = 0.0

    def image(self) -> tuple[str, str, float]:
        return (self.super_da, self.sub_da, self.created_at)

    @classmethod
    def restore(cls, image: tuple[str, str, float]) -> "Delegation":
        return cls(*image)


@dataclass
class Usage:
    """Controlled exchange of preliminary results between two DAs.

    "A requiring DA (operation Require) may ask another DA (called the
    supporting DA) for a DOV with a certain set of features satisfied.
    This feature set defines the quality needed."
    """

    requiring_da: str
    supporting_da: str
    #: feature names the delivered DOV must fulfil
    required_features: frozenset[str]
    created_at: float = 0.0
    #: DOVs delivered along this relationship, in order
    delivered: list[str] = field(default_factory=list)
    #: DOVs later withdrawn
    withdrawn: list[str] = field(default_factory=list)

    def key(self) -> tuple[str, str]:
        """Identity of the relationship (one per DA pair/direction)."""
        return (self.requiring_da, self.supporting_da)

    def image(self) -> tuple:
        return (self.requiring_da, self.supporting_da,
                frozenset(self.required_features), self.created_at,
                tuple(self.delivered), tuple(self.withdrawn))

    @classmethod
    def restore(cls, image: tuple) -> "Usage":
        requiring, supporting, features, created_at, delivered, \
            withdrawn = image
        return cls(requiring, supporting, features, created_at,
                   list(delivered), list(withdrawn))


class ProposalStatus(str, Enum):
    """Lifecycle of one negotiation proposal."""

    OPEN = "open"
    AGREED = "agreed"
    REJECTED = "rejected"
    ESCALATED = "escalated"


@dataclass
class Proposal:
    """One Propose in a negotiation: suggested spec refinements.

    ``changes`` maps the target DA to the feature replacing (or
    tightening) its namesake in that DA's specification — e.g. moving
    the shared A/B borderline assigns complementary area bounds to the
    two negotiating DAs.
    """

    proposal_id: str
    proposer: str
    changes: dict[str, list[Feature]]
    note: str = ""
    status: ProposalStatus = ProposalStatus.OPEN
    responded_by: str = ""

    def image(self) -> tuple:
        # features are values: replaced, never edited in place
        return (self.proposal_id, self.proposer,
                tuple((target, tuple(features))
                      for target, features in self.changes.items()),
                self.note, self.status, self.responded_by)

    @classmethod
    def restore(cls, image: tuple) -> "Proposal":
        proposal_id, proposer, changes, note, status, responded_by = image
        return cls(proposal_id, proposer,
                   {target: list(features) for target, features in changes},
                   note, status, responded_by)


@dataclass
class Negotiation:
    """A negotiation relationship between two sibling sub-DAs.

    "We allow negotiation relationships between only the sub-DAs of the
    same super-DA, because these sub-DAs contribute to a common design
    goal set by their common super-DA."
    """

    negotiation_id: str
    da_a: str
    da_b: str
    subject: str = ""
    created_by: str = ""          # a sub-DA (dynamic) or the super-DA
    proposals: list[Proposal] = field(default_factory=list)
    escalations: int = 0
    closed: bool = False

    def involves(self, da_id: str) -> bool:
        """True when *da_id* is one of the negotiating parties."""
        return da_id in (self.da_a, self.da_b)

    def other(self, da_id: str) -> str:
        """The counterpart of *da_id* in this negotiation."""
        if da_id == self.da_a:
            return self.da_b
        if da_id == self.da_b:
            return self.da_a
        raise NegotiationError(
            f"DA {da_id!r} is not part of negotiation "
            f"{self.negotiation_id!r}")

    def open_proposal(self) -> Proposal | None:
        """The currently open proposal, if any (one at a time)."""
        for proposal in reversed(self.proposals):
            if proposal.status is ProposalStatus.OPEN:
                return proposal
        return None

    def rounds(self) -> int:
        """Number of proposals exchanged so far."""
        return len(self.proposals)

    def image(self) -> tuple:
        return (self.negotiation_id, self.da_a, self.da_b, self.subject,
                self.created_by,
                tuple(proposal.image() for proposal in self.proposals),
                self.escalations, self.closed)

    @classmethod
    def restore(cls, image: tuple) -> "Negotiation":
        negotiation_id, da_a, da_b, subject, created_by, proposals, \
            escalations, closed = image
        return cls(negotiation_id, da_a, da_b, subject, created_by,
                   [Proposal.restore(proposal) for proposal in proposals],
                   escalations, closed)


@dataclass
class Message:
    """An asynchronous notification delivered to a DA's inbox.

    Used for the events that "generally ask the receiving DA to react
    or reply": impossible specifications, conflicts, withdrawals,
    require requests, ready-to-commit notices.
    """

    kind: str
    sender: str
    recipient: str
    payload: dict[str, Any] = field(default_factory=dict)
    at: float = 0.0

    #: the image, taken once: the CM sends a message and nothing edits
    #: it after, so every later image of its inbox shares this one
    _image = None

    def image(self) -> tuple:
        image = self._image
        if image is None:
            image = self._image = (self.kind, self.sender, self.recipient,
                                   _frozen_copy(self.payload), self.at)
        return image

    @classmethod
    def restore(cls, image: tuple) -> "Message":
        kind, sender, recipient, payload, at = image
        message = cls(kind, sender, recipient, thaw_payload(payload), at)
        message._image = image
        return message


def _frozen_copy(value: Any) -> Any:
    """An immutable copy of a message payload: dicts and lists of
    scalars (:func:`~repro.repository.versions.thaw_payload` is the
    way back)."""
    if isinstance(value, dict):
        return FrozenDict((key, _frozen_copy(item))
                          for key, item in value.items())
    if isinstance(value, list):
        return FrozenList(_frozen_copy(item) for item in value)
    return value
