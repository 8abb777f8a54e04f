"""Design object types (DOTs).

A DOT gives "the type information for the design states of [a] DA"
(Sect.4.1).  Two properties of DOTs carry weight in the CONCORD model:

* a DOT is a *complex object type*: it has typed attributes and a
  part-of composition hierarchy ("the complex structure of a DOT
  provides a natural basis for structuring the design process");
* delegation requires that "the DOT of the sub-DA has to be a 'part' of
  the super-DA's DOT" — implemented here as :meth:`DesignObjectType.is_part_of`.

Integrity constraints attached to a DOT are enforced by the server-TM /
repository on every checkin ("every derived DOV observes the constraints
specified in the underlying database schema", Sect.5.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Iterator

from repro.util.errors import SchemaError


class AttributeKind(str, Enum):
    """Primitive attribute domains supported by the repository."""

    INT = "int"
    FLOAT = "float"
    STRING = "string"
    BOOL = "bool"
    JSON = "json"      # arbitrary nested dict/list payload (tool data)

    def accepts(self, value: Any) -> bool:
        """True when *value* belongs to this domain."""
        if self is AttributeKind.INT:
            return isinstance(value, int) and not isinstance(value, bool)
        if self is AttributeKind.FLOAT:
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        if self is AttributeKind.STRING:
            return isinstance(value, str)
        if self is AttributeKind.BOOL:
            return isinstance(value, bool)
        return isinstance(value, (dict, list, str, int, float, bool, type(None)))


@dataclass(frozen=True)
class AttributeDef:
    """One typed attribute of a DOT."""

    name: str
    kind: AttributeKind
    required: bool = True
    default: Any = None

    def validate(self, value: Any) -> None:
        """Raise :class:`SchemaError` when *value* is out of domain."""
        if value is None:
            if self.required:
                raise SchemaError(
                    f"attribute {self.name!r} is required but missing")
            return
        if not self.kind.accepts(value):
            raise SchemaError(
                f"attribute {self.name!r} expects {self.kind.value}, "
                f"got {type(value).__name__}: {value!r}")


@dataclass(frozen=True)
class Constraint:
    """A named schema integrity constraint over object data.

    ``check`` receives the flat attribute dict of a DOV and returns True
    when the constraint holds.  Constraints are *schema*-level: they are
    enforced on every checkin, unlike design-specification features
    (AC level) which describe the *goal* and may be unfulfilled in
    preliminary DOVs.
    """

    name: str
    check: Callable[[dict[str, Any]], bool]
    description: str = ""

    def holds(self, data: dict[str, Any]) -> bool:
        """Evaluate the constraint; exceptions count as violations."""
        try:
            return bool(self.check(data))
        except Exception:
            return False


class DesignObjectType:
    """A complex design object type with attributes and part-of children.

    Example — a fragment of the VLSI cell hierarchy::

        cell = DesignObjectType("StandardCell", attributes=[...])
        block = DesignObjectType("Block", parts={"cells": cell})
        module = DesignObjectType("Module", parts={"blocks": block})
    """

    def __init__(self, name: str,
                 attributes: list[AttributeDef] | None = None,
                 parts: dict[str, "DesignObjectType"] | None = None,
                 constraints: list[Constraint] | None = None) -> None:
        if not name:
            raise SchemaError("DOT name must be non-empty")
        self.name = name
        self.attributes: dict[str, AttributeDef] = {
            a.name: a for a in (attributes or [])}
        if attributes and len(self.attributes) != len(attributes):
            raise SchemaError(f"duplicate attribute names in DOT {name!r}")
        self.parts: dict[str, DesignObjectType] = dict(parts or {})
        self.constraints: list[Constraint] = list(constraints or [])

    # -- structure ----------------------------------------------------------

    def descendants(self) -> Iterator["DesignObjectType"]:
        """All DOTs reachable via part-of edges (self excluded)."""
        seen: set[str] = set()
        stack = list(self.parts.values())
        while stack:
            dot = stack.pop()
            if dot.name in seen:
                continue
            seen.add(dot.name)
            yield dot
            stack.extend(dot.parts.values())

    def is_part_of(self, other: "DesignObjectType") -> bool:
        """True when *self* is *other* or a (transitive) part of it.

        This is the delegation admissibility check of Sect.4.1.
        """
        if self.name == other.name:
            return True
        return any(d.name == self.name for d in other.descendants())

    # -- validation ----------------------------------------------------------

    def validate(self, data: dict[str, Any]) -> list[str]:
        """Return a list of violation messages for *data* (empty = valid).

        Checks attribute domains, unknown attributes, and all schema
        constraints.  Does not raise; the repository converts a
        non-empty result into an :class:`IntegrityError` on checkin.
        """
        problems: list[str] = []
        for attr in self.attributes.values():
            try:
                attr.validate(data.get(attr.name, attr.default))
            except SchemaError as exc:
                problems.append(str(exc))
        for key in data:
            if key not in self.attributes:
                problems.append(f"unknown attribute {key!r} for DOT "
                                f"{self.name!r}")
        for constraint in self.constraints:
            if not constraint.holds(data):
                problems.append(
                    f"constraint {constraint.name!r} violated"
                    + (f" ({constraint.description})"
                       if constraint.description else ""))
        return problems

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"DesignObjectType({self.name!r}, "
                f"attrs={list(self.attributes)}, parts={list(self.parts)})")
