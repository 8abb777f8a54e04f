"""Unit tests for features, specifications and quality states."""

from __future__ import annotations

import pytest

from repro.core.features import (
    DesignSpecification,
    PredicateFeature,
    QualityState,
    RangeFeature,
    TestToolFeature,
)
from repro.util.errors import SpecificationError


class TestRangeFeature:
    def test_satisfied_within_bounds(self):
        feature = RangeFeature("f", "area", lo=1.0, hi=10.0)
        assert feature.satisfied({"area": 5.0})
        assert not feature.satisfied({"area": 0.5})
        assert not feature.satisfied({"area": 11.0})

    def test_missing_attribute_unsatisfied(self):
        assert not RangeFeature("f", "area", hi=1.0).satisfied({})

    def test_non_numeric_unsatisfied(self):
        assert not RangeFeature("f", "area", hi=1.0).satisfied(
            {"area": "big"})

    def test_needs_a_bound(self):
        with pytest.raises(SpecificationError):
            RangeFeature("f", "area")

    def test_inverted_bounds_rejected(self):
        with pytest.raises(SpecificationError):
            RangeFeature("f", "area", lo=10.0, hi=1.0)

    def test_restricts_subinterval(self):
        wide = RangeFeature("f", "area", lo=0.0, hi=10.0)
        narrow = RangeFeature("f", "area", lo=2.0, hi=8.0)
        assert narrow.restricts(wide)
        assert not wide.restricts(narrow)

    def test_restricts_requires_same_attr_and_name(self):
        a = RangeFeature("f", "area", hi=10.0)
        assert not RangeFeature("g", "area", hi=5.0).restricts(a)
        assert not RangeFeature("f", "width", hi=5.0).restricts(a)

    def test_restricts_open_bounds(self):
        open_hi = RangeFeature("f", "area", lo=0.0)
        bounded = RangeFeature("f", "area", lo=0.0, hi=5.0)
        assert bounded.restricts(open_hi)
        assert not open_hi.restricts(bounded)

    def test_widened(self):
        feature = RangeFeature("f", "area", lo=0.0, hi=5.0)
        wider = feature.widened(hi=10.0)
        assert wider.hi == 10.0
        assert wider.lo == 0.0


class TestOtherFeatures:
    def test_predicate_feature(self):
        feature = PredicateFeature("even", lambda d: d.get("n", 1) % 2 == 0)
        assert feature.satisfied({"n": 4})
        assert not feature.satisfied({"n": 3})

    def test_predicate_exception_is_unsatisfied(self):
        feature = PredicateFeature("boom", lambda d: 1 / 0)
        assert not feature.satisfied({})

    def test_test_tool_feature(self):
        drc = TestToolFeature("drc", "drc-tool",
                              lambda d: d.get("valid", False))
        assert drc.satisfied({"valid": True})
        assert not drc.satisfied({})

    def test_test_tool_restricts_same_tool(self):
        a = TestToolFeature("drc", "drc-tool", lambda d: True)
        b = TestToolFeature("drc", "drc-tool", lambda d: True)
        c = TestToolFeature("drc", "other-tool", lambda d: True)
        assert a.restricts(b)
        assert not a.restricts(c)

    def test_empty_name_rejected(self):
        with pytest.raises(SpecificationError):
            PredicateFeature("", lambda d: True)


class TestQualityState:
    def test_final_vs_preliminary(self):
        final = QualityState(frozenset({"a", "b"}), frozenset({"a", "b"}))
        preliminary = QualityState(frozenset({"a"}),
                                   frozenset({"a", "b"}))
        assert final.is_final and not final.is_preliminary
        assert preliminary.is_preliminary and not preliminary.is_final

    def test_distance_and_missing(self):
        quality = QualityState(frozenset({"a"}), frozenset({"a", "b", "c"}))
        assert quality.distance == 2
        assert quality.missing == {"b", "c"}

    def test_covers(self):
        quality = QualityState(frozenset({"a", "b"}),
                               frozenset({"a", "b", "c"}))
        assert quality.covers({"a"})
        assert quality.covers({"a", "b"})
        assert not quality.covers({"c"})
        assert quality.covers(set())


class TestDesignSpecification:
    def _spec(self):
        return DesignSpecification([
            RangeFeature("area-limit", "area", hi=100.0),
            RangeFeature("width-limit", "width", hi=10.0),
        ])

    def test_evaluate(self):
        spec = self._spec()
        quality = spec.evaluate({"area": 50.0, "width": 20.0})
        assert quality.fulfilled == {"area-limit"}
        assert not quality.is_final

    def test_is_final(self):
        spec = self._spec()
        assert spec.is_final({"area": 50.0, "width": 5.0})
        assert not spec.is_final({"area": 500.0, "width": 5.0})

    def test_duplicate_feature_rejected(self):
        with pytest.raises(SpecificationError):
            DesignSpecification([RangeFeature("f", "a", hi=1.0),
                                 RangeFeature("f", "b", hi=1.0)])

    def test_lookup(self):
        spec = self._spec()
        assert spec.feature("area-limit").attr == "area"
        assert "area-limit" in spec
        with pytest.raises(SpecificationError):
            spec.feature("nope")

    def test_with_feature_adds(self):
        spec = self._spec()
        extended = spec.with_feature(RangeFeature("h", "height", hi=5.0))
        assert len(extended) == 3
        assert len(spec) == 2  # original untouched

    def test_with_feature_rejects_existing(self):
        spec = self._spec()
        with pytest.raises(SpecificationError):
            spec.with_feature(RangeFeature("area-limit", "area", hi=1.0))

    def test_with_restricted(self):
        spec = self._spec()
        tightened = spec.with_restricted(
            RangeFeature("area-limit", "area", hi=50.0))
        assert tightened.feature("area-limit").hi == 50.0

    def test_with_restricted_rejects_widening(self):
        spec = self._spec()
        with pytest.raises(SpecificationError):
            spec.with_restricted(
                RangeFeature("area-limit", "area", hi=500.0))

    def test_replaced_allows_widening(self):
        """Super-DAs may reformulate goals arbitrarily (Fig.5)."""
        spec = self._spec()
        widened = spec.replaced(
            RangeFeature("area-limit", "area", hi=500.0))
        assert widened.feature("area-limit").hi == 500.0

    def test_replaced_adds_when_absent(self):
        spec = self._spec()
        extended = spec.replaced(RangeFeature("new", "n", hi=1.0))
        assert "new" in extended


class TestRefinement:
    def test_refines_by_addition(self):
        base = DesignSpecification([RangeFeature("a", "x", hi=10.0)])
        refined = base.with_feature(RangeFeature("b", "y", hi=5.0))
        assert refined.refines(base)
        assert not base.refines(refined)

    def test_refines_by_restriction(self):
        base = DesignSpecification([RangeFeature("a", "x", hi=10.0)])
        refined = base.with_restricted(RangeFeature("a", "x", hi=5.0))
        assert refined.refines(base)

    def test_widening_is_not_refinement(self):
        base = DesignSpecification([RangeFeature("a", "x", hi=10.0)])
        widened = base.replaced(RangeFeature("a", "x", hi=50.0))
        assert not widened.refines(base)

    def test_dropping_feature_is_not_refinement(self):
        base = DesignSpecification([RangeFeature("a", "x", hi=10.0),
                                    RangeFeature("b", "y", hi=5.0)])
        partial = DesignSpecification([RangeFeature("a", "x", hi=10.0)])
        assert not partial.refines(base)

    def test_spec_refines_itself(self):
        base = DesignSpecification([RangeFeature("a", "x", hi=10.0)])
        assert base.refines(base)


class TestValuesRefuseMutation:
    """What ``__frozen_payload__`` claims for features and
    specifications: the CM's state log shares them uncopied."""

    @pytest.mark.parametrize("feature, attr", [
        (RangeFeature("f", "area", lo=0.0, hi=5.0), "hi"),
        (RangeFeature("f", "area", lo=0.0, hi=5.0), "name"),
        (PredicateFeature("p", lambda data: True), "predicate"),
        (TestToolFeature("t", "drc", lambda data: True), "tool_name"),
        (RangeFeature("f", "area", hi=5.0), "unheard_of"),
    ])
    def test_a_feature_refuses_assignment_and_deletion(self, feature, attr):
        before = getattr(feature, attr, None)
        with pytest.raises(AttributeError):
            setattr(feature, attr, 99.0)
        with pytest.raises(AttributeError):
            delattr(feature, attr)
        assert getattr(feature, attr, None) == before

    def test_a_specification_refuses_assignment_and_deletion(self):
        spec = DesignSpecification([RangeFeature("f", "area", hi=5.0)])
        for attack in (lambda: setattr(spec, "_features", {}),
                       lambda: setattr(spec, "anything", 1),
                       lambda: delattr(spec, "_features")):
            with pytest.raises(SpecificationError, match="immutable"):
                attack()
        assert spec.names() == {"f"}

    def test_a_specifications_features_are_not_a_mutable_dict(self):
        spec = DesignSpecification([RangeFeature("f", "area", hi=5.0)])
        with pytest.raises(TypeError):
            spec._features["g"] = RangeFeature("g", "area", hi=1.0)
        with pytest.raises((TypeError, AttributeError)):
            spec._features.clear()
        assert spec.names() == {"f"}

    def test_the_list_a_specification_was_built_from_is_not_kept(self):
        features = [RangeFeature("f", "area", hi=5.0)]
        spec = DesignSpecification(features)
        features.append(RangeFeature("g", "area", hi=1.0))
        assert spec.names() == {"f"}

    def test_derivations_still_return_new_values(self):
        feature = RangeFeature("f", "area", lo=0.0, hi=5.0)
        spec = DesignSpecification([feature])
        assert feature.widened(hi=9.0) is not feature
        assert feature.hi == 5.0
        for derived in (spec.with_feature(RangeFeature("g", "a", hi=1.0)),
                        spec.with_restricted(feature.widened(hi=2.0)),
                        spec.replaced(feature.widened(hi=9.0))):
            assert derived is not spec
            assert spec.feature("f") is feature and len(spec) == 1
