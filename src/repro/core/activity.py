"""Design activities (DAs) and their description vectors (Sect.4.1).

"A design activity (DA) is the operational unit realizing a design
task.  It can be best characterized by the following description vector
consisting of four parameters: <DOT(DOV0), SPEC, designer, DC>."

The DA object is deliberately passive: every cooperation operation goes
through the cooperation manager, which enforces the Fig.7 state machine
and the relationship semantics.  The DA carries its description vector,
its state machine, its quality bookkeeping (evaluated/final DOVs) and
its per-DA views used by the DM.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from repro.core.features import DesignSpecification, QualityState
from repro.core.states import DaOperation, DaState, DaStateMachine
from repro.dc.script import Script
from repro.repository.schema import DesignObjectType


@dataclass
class DescriptionVector:
    """The four-parameter characterisation of a DA.

    ``dot`` + optional ``initial_dov`` form the DOT(DOV0) parameter;
    ``spec`` is the design specification (goal); ``designer`` the
    responsible person; ``script`` the DC parameter (the design
    strategy to apply).
    """

    dot: DesignObjectType
    spec: DesignSpecification
    designer: str
    script: Script
    initial_dov: str | None = None


class DaImage(NamedTuple):
    """After-image of one DA in the CM's state log.

    An immutable value made of references: tuples of the DA's own
    entries (ids, transition triples of enum members, quality states)
    and, in ``description``, the specification and script as they are —
    values nothing edits in place.  The state log and its WAL share it.
    A tuple, so taking one is a single allocation
    (:meth:`DesignActivity.image` builds it with ``tuple.__new__``).
    """

    state: DaState
    history: tuple[tuple[DaOperation, DaState, DaState], ...]
    children: tuple[str, ...]
    #: (dov id, quality state) in the order Evaluate filled them in
    quality: tuple[tuple[str, QualityState], ...]
    final_dovs: tuple[str, ...]
    propagated: tuple[str, ...]
    #: (DOT name, specification, designer, script, initial DOV,
    #: workstation, parent, created at); None: as last described
    description: tuple | None

    __frozen_payload__ = True


@dataclass
class DesignActivity:
    """One design (sub-)task in the DA hierarchy."""

    da_id: str
    vector: DescriptionVector
    workstation: str
    parent: str | None = None
    created_at: float = 0.0
    machine: DaStateMachine = None  # type: ignore[assignment]
    children: list[str] = field(default_factory=list)
    #: quality states by DOV id (filled by Evaluate)
    quality: dict[str, QualityState] = field(default_factory=dict)
    #: DOVs that fulfilled the complete specification
    final_dovs: list[str] = field(default_factory=list)
    #: DOVs this DA pre-released via Propagate
    propagated: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.machine is None:
            self.machine = DaStateMachine(self.da_id)

    # -- convenience ---------------------------------------------------------

    @property
    def state(self) -> DaState:
        """Current lifecycle state."""
        return self.machine.state

    @property
    def spec(self) -> DesignSpecification:
        """Current design specification (may be modified/refined)."""
        return self.vector.spec

    @spec.setter
    def spec(self, new_spec: DesignSpecification) -> None:
        self.vector.spec = new_spec

    @property
    def dot(self) -> DesignObjectType:
        """The DA's design object type."""
        return self.vector.dot

    @property
    def designer(self) -> str:
        """The responsible designer."""
        return self.vector.designer

    @property
    def script(self) -> Script:
        """The DC parameter: the DA's work-flow template."""
        return self.vector.script

    @property
    def is_top_level(self) -> bool:
        """True for the DA created by Init_Design."""
        return self.parent is None

    def record_quality(self, dov_id: str, quality: QualityState) -> None:
        """Store an Evaluate result; final DOVs are remembered."""
        self.quality[dov_id] = quality
        if quality.is_final and dov_id not in self.final_dovs:
            self.final_dovs.append(dov_id)

    def has_final_dov(self) -> bool:
        """True when the DA has reached its goal at least once."""
        return bool(self.final_dovs)

    def revoke_finality(self, dov_id: str) -> None:
        """Drop finality after a spec change invalidated old evaluations.

        "reformulations of design goals are typical in design
        applications" (Sect.5.4): a DOV final under the old goal need
        not be final under the new one.
        """
        self.final_dovs = [d for d in self.final_dovs if d != dov_id]

    # -- persistence ---------------------------------------------------------

    def image(self, described: bool = True) -> DaImage:
        """After-image for the CM's state log.

        An immutable value sharing no mutable part with this DA, built
        by gathering references — no entry is copied or walked.  What
        the DA has done so far is always in it; what it was created as
        — the description vector, its place in the hierarchy — only
        when *described*, because that changes with the specification
        alone and an image without it stands on the last one that had
        it.  The DOT goes by name (the repository keeps it).
        """
        description = None
        if described:
            vector = self.vector
            description = (
                vector.dot.name, vector.spec, vector.designer,
                vector.script, vector.initial_dov, self.workstation,
                self.parent, self.created_at)
        machine = self.machine
        return tuple.__new__(DaImage, (
            machine.state, tuple(machine.history), tuple(self.children),
            tuple(self.quality.items()), tuple(self.final_dovs),
            tuple(self.propagated), description))

    @classmethod
    def restore(cls, da_id: str, image: DaImage,
                dot_of: Callable[[str], DesignObjectType]
                ) -> "DesignActivity":
        """Rebuild a DA from a described :meth:`image`; *dot_of* looks
        a DOT up by name.  Shares no mutable part with *image*."""
        dot_name, spec, designer, script, initial_dov, workstation, \
            parent, created_at = image.description
        vector = DescriptionVector(dot_of(dot_name), spec, designer,
                                   script, initial_dov)
        machine = DaStateMachine(da_id, image.state, list(image.history))
        return cls(
            da_id, vector, workstation, parent, created_at, machine,
            list(image.children), dict(image.quality),
            list(image.final_dovs), list(image.propagated))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"DesignActivity({self.da_id!r}, state={self.state.value},"
                f" dot={self.dot.name!r}, designer={self.designer!r})")
