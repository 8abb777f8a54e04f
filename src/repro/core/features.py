"""Features, design specifications and quality states (Sect.4.1).

"The design task of a DA is specified in the parameter SPEC as a set of
properties the DOV to be constructed should possess.  In our model,
these properties are named *features* [Kä91]. ... In the simplest case,
a feature in the design specification of a DA constrains the value of
an elementary data item to be in a certain range.  A more complicated
feature can express the need that the resulting DOVs have to pass a
particular test tool successfully."

"The quality state of a given DOV is defined by the subset of features
fulfilled and is determined by the *Evaluate* operation. ... we
distinguish *preliminary* DOVs fulfilling at most a true subset of the
specification, from *final* DOVs."

Refinement rules (delegation + negotiation both rely on them): "the
sub-DA is only allowed to refine its own specification by addition of
new features or by further restricting existing features."
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Callable, Iterator

from repro.util.errors import SpecificationError


@dataclass(frozen=True, eq=False)
class Feature:
    """Base class: a named, checkable property of design object data.

    A value: replaced (``dataclasses.replace``, the specification's
    ``with_*`` / ``replaced``), never edited — its attributes refuse assignment, so
    specifications, proposals and the CM's state log share one object.
    """

    name: str

    __frozen_payload__ = True

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecificationError("feature name must be non-empty")

    def satisfied(self, data: dict[str, Any]) -> bool:
        """True when the DOV payload *data* fulfils this feature."""
        raise NotImplementedError

    def restricts(self, other: "Feature") -> bool:
        """True when self is the same feature or a *restriction* of it.

        Used to validate refinements: a restriction accepts a subset of
        the data the original accepts.
        """
        return self.name == other.name and type(self) is type(other)


@dataclass(frozen=True, eq=False)
class RangeFeature(Feature):
    """The 'simplest case': an attribute constrained to a range."""

    attr: str
    lo: float | None = None
    hi: float | None = None

    def __post_init__(self) -> None:
        Feature.__post_init__(self)
        if self.lo is None and self.hi is None:
            raise SpecificationError(
                f"range feature {self.name!r} needs at least one bound")
        if self.lo is not None and self.hi is not None \
                and self.lo > self.hi:
            raise SpecificationError(
                f"range feature {self.name!r}: lo={self.lo} > hi={self.hi}")

    def satisfied(self, data: dict[str, Any]) -> bool:
        value = data.get(self.attr)
        if value is None or not isinstance(value, (int, float)):
            return False
        if self.lo is not None and value < self.lo:
            return False
        if self.hi is not None and value > self.hi:
            return False
        return True

    def restricts(self, other: Feature) -> bool:
        """A range restricts another iff same attribute and ⊆ interval."""
        if not isinstance(other, RangeFeature) or self.name != other.name:
            return False
        if self.attr != other.attr:
            return False
        lo_ok = (other.lo is None
                 or (self.lo is not None and self.lo >= other.lo))
        hi_ok = (other.hi is None
                 or (self.hi is not None and self.hi <= other.hi))
        return lo_ok and hi_ok

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"RangeFeature({self.name!r}, {self.attr!r}, "
                f"lo={self.lo}, hi={self.hi})")


@dataclass(frozen=True, eq=False)
class TestToolFeature(Feature):
    """'the resulting DOVs have to pass a particular test tool'.

    The test tool is a callable producing a pass/fail verdict over the
    DOV data (in the VLSI domain e.g. a design-rule check).
    """

    #: not a pytest test class despite the name
    __test__ = False

    tool_name: str
    test: Callable[[dict[str, Any]], bool]

    def satisfied(self, data: dict[str, Any]) -> bool:
        try:
            return bool(self.test(data))
        except Exception:
            return False

    def restricts(self, other: Feature) -> bool:
        return (isinstance(other, TestToolFeature)
                and self.name == other.name
                and self.tool_name == other.tool_name)


@dataclass(frozen=True)
class QualityState:
    """Result of Evaluate: which features a DOV fulfils."""

    fulfilled: frozenset[str]
    total: frozenset[str]

    __frozen_payload__ = True

    @property
    def is_final(self) -> bool:
        """All features fulfilled — the DA reached its goal."""
        return self.fulfilled == self.total

    @property
    def missing(self) -> frozenset[str]:
        """Features not yet fulfilled — the 'distance' to the goal."""
        return self.total - self.fulfilled

    @property
    def distance(self) -> int:
        """Number of unfulfilled features."""
        return len(self.missing)

    def covers(self, required: set[str] | frozenset[str]) -> bool:
        """True when all *required* feature names are fulfilled.

        Usage relationships ask for "a DOV with a certain set of
        features satisfied" — this is that check.
        """
        return set(required) <= set(self.fulfilled)


class DesignSpecification:
    """An immutable set of features — the SPEC of a DA.

    Refining or reformulating it gives a new specification; this one
    refuses assignment and keeps its features behind a read-only view.
    """

    __slots__ = ("_features",)
    __frozen_payload__ = True

    def __init__(self, features: list[Feature] | None = None) -> None:
        by_name: dict[str, Feature] = {}
        for feature in features or []:
            if feature.name in by_name:
                raise SpecificationError(
                    f"duplicate feature {feature.name!r} in specification")
            by_name[feature.name] = feature
        object.__setattr__(self, "_features", MappingProxyType(by_name))

    def _immutable(self, name: str, value: Any = None) -> None:
        raise SpecificationError(
            f"a design specification is immutable ({name!r} cannot be "
            f"set or deleted); derive a new one with with_feature / "
            f"with_restricted / replaced")

    __setattr__ = __delattr__ = _immutable

    def __reduce__(self):
        # copy / pickle rebuild through the constructor, the one way in
        return (DesignSpecification, (list(self),))

    # -- inspection -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._features)

    def __iter__(self) -> Iterator[Feature]:
        return iter(self._features.values())

    def __contains__(self, name: str) -> bool:
        return name in self._features

    def feature(self, name: str) -> Feature:
        """Look up a feature by name."""
        try:
            return self._features[name]
        except KeyError:
            raise SpecificationError(
                f"no feature named {name!r} in specification") from None

    def names(self) -> frozenset[str]:
        """All feature names."""
        return frozenset(self._features)

    # -- Evaluate ---------------------------------------------------------------

    def evaluate(self, data: dict[str, Any]) -> QualityState:
        """The Evaluate operation: compute the quality state of a DOV."""
        fulfilled = frozenset(name for name, f in self._features.items()
                              if f.satisfied(data))
        return QualityState(fulfilled, self.names())

    def is_final(self, data: dict[str, Any]) -> bool:
        """True when *data* fulfils the whole feature set."""
        return self.evaluate(data).is_final

    # -- refinement -----------------------------------------------------------------

    def with_feature(self, feature: Feature) -> "DesignSpecification":
        """A new specification with *feature* added (refinement by
        addition)."""
        if feature.name in self._features:
            raise SpecificationError(
                f"feature {feature.name!r} already present; use "
                f"with_restricted to tighten it")
        return DesignSpecification(list(self) + [feature])

    def with_restricted(self, feature: Feature) -> "DesignSpecification":
        """A new specification with an existing feature restricted."""
        current = self.feature(feature.name)
        if not feature.restricts(current):
            raise SpecificationError(
                f"{feature.name!r}: proposed change is not a restriction "
                f"of the existing feature")
        features = [feature if f.name == feature.name else f for f in self]
        return DesignSpecification(features)

    def replaced(self, feature: Feature) -> "DesignSpecification":
        """A new specification with *feature* replacing its namesake.

        This is *not* a refinement check — super-DAs may reformulate
        sub-DA goals arbitrarily (Modify_Sub_DA_Specification), e.g.
        *widen* an area bound during the Fig.5 renegotiation.
        """
        if feature.name in self._features:
            features = [feature if f.name == feature.name else f
                        for f in self]
        else:
            features = list(self) + [feature]
        return DesignSpecification(features)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DesignSpecification({sorted(self._features)})"
