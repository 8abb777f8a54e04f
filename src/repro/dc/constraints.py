"""Domain-wide DOP ordering constraints.

"There are dependencies between the DOPs to be observed within a given
design application domain ...  one may require that a DOP of a certain
type (e.g., chip assembly) must not be applied before a DOP of another
type has successfully completed (e.g., structure synthesis), or that a
certain DOP must always be followed by another DOP of a specific type
(e.g. pad frame editor followed by chip planner).  Since we define
these constraints to hold for all DAs of a design application domain,
any script within must not contradict these constraints" (Sect.4.2).

Two constraint forms follow directly from that paragraph:

* :class:`NotBefore` — ``tool`` must not run before ``prerequisite``
  has completed successfully;
* :class:`FollowedBy` — every ``tool`` execution must eventually be
  followed by ``successor``.

:class:`DomainConstraintSet` checks concrete executed sequences
(dynamic enforcement by the DM) and whole scripts (static validation by
sequence enumeration).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dc.script import Script
from repro.util.errors import ConstraintViolationError


class DomainConstraint:
    """Base class of DOP-ordering constraints."""

    def check_prefix(self, executed: list[str], next_tool: str) -> str | None:
        """May *next_tool* run after *executed*?  Violation message or None."""
        return None

    def check_complete(self, executed: list[str]) -> str | None:
        """Is the finished sequence *executed* legal?  Message or None."""
        return None


@dataclass(frozen=True)
class NotBefore(DomainConstraint):
    """*tool* must not be applied before *prerequisite* completed."""

    prerequisite: str
    tool: str

    def check_prefix(self, executed: list[str], next_tool: str) -> str | None:
        if next_tool == self.tool and self.prerequisite not in executed:
            return (f"{self.tool!r} must not run before "
                    f"{self.prerequisite!r} has completed")
        return None

    def check_complete(self, executed: list[str]) -> str | None:
        seen_prereq = False
        for tool in executed:
            if tool == self.tool and not seen_prereq:
                return (f"{self.tool!r} ran before {self.prerequisite!r}")
            if tool == self.prerequisite:
                seen_prereq = True
        return None


@dataclass(frozen=True)
class FollowedBy(DomainConstraint):
    """Every *tool* must eventually be followed by *successor*."""

    tool: str
    successor: str

    def check_complete(self, executed: list[str]) -> str | None:
        pending = False
        for tool in executed:
            if tool == self.tool:
                pending = True
            elif tool == self.successor:
                pending = False
        if pending:
            return (f"{self.tool!r} was not followed by "
                    f"{self.successor!r}")
        return None


class DomainConstraintSet:
    """All ordering constraints of one design application domain."""

    def __init__(self, constraints: list[DomainConstraint] | None = None,
                 domain: str = "generic") -> None:
        self.domain = domain
        self.constraints: list[DomainConstraint] = list(constraints or [])

    def add(self, constraint: DomainConstraint) -> "DomainConstraintSet":
        """Add a constraint; returns self for chaining."""
        self.constraints.append(constraint)
        return self

    # -- dynamic enforcement ---------------------------------------------------

    def admit(self, executed: list[str], next_tool: str) -> None:
        """Raise when *next_tool* may not run after *executed*.

        The DM calls this before starting every DOP, so even designer
        insertions in ``Open`` segments respect the domain rules.
        """
        for constraint in self.constraints:
            message = constraint.check_prefix(executed, next_tool)
            if message:
                raise ConstraintViolationError(
                    f"domain {self.domain!r}: {message}")

    def violations(self, executed: list[str],
                   history: list[str] | None = None) -> list[str]:
        """All violations of a finished sequence.

        *history* holds tools executed before the sequence started
        (e.g. by the super-DA on the initial DOV) — a sub-DA picking up
        mid-plane is not in violation of prerequisites already met.
        """
        full = list(history or []) + list(executed)
        problems = []
        for constraint in self.constraints:
            message = constraint.check_complete(full)
            if message:
                problems.append(message)
                continue
            # prefix rules must also hold step by step
            for i, tool in enumerate(full):
                prefix_msg = constraint.check_prefix(full[:i], tool)
                if prefix_msg:
                    problems.append(prefix_msg)
                    break
        return problems

    # -- static script validation --------------------------------------------------

    def validate_script(self, script: Script,
                        history: list[str] | None = None) -> list[str]:
        """Check every enumerable sequence of *script*; returns problems.

        A script "must not contradict" the domain constraints: we flag
        any enumerated execution sequence that violates one.  ``Open``
        segments appear as the wildcard ``'*'`` in enumerated
        sequences: the designer may insert arbitrary tools there, so
        only violations occurring strictly *before* the first wildcard
        are provable statically — everything after is enforced
        dynamically via :meth:`admit`.
        """
        from repro.dc.script import Open

        problems: list[str] = []
        prior = list(history or [])
        for sequence in script.sequences():
            if Open.WILDCARD in sequence:
                prefix = sequence[:sequence.index(Open.WILDCARD)]
                messages = self._prefix_violations(prior + prefix)
            else:
                messages = self.violations(sequence, history=prior)
            for message in messages:
                note = f"sequence {sequence}: {message}"
                if note not in problems:
                    problems.append(note)
        return problems

    def _prefix_violations(self, prefix: list[str]) -> list[str]:
        """Step-wise prefix-rule violations only (wildcard handling)."""
        problems = []
        for constraint in self.constraints:
            for i, tool in enumerate(prefix):
                message = constraint.check_prefix(prefix[:i], tool)
                if message:
                    problems.append(message)
                    break
        return problems

    def __len__(self) -> int:
        return len(self.constraints)
