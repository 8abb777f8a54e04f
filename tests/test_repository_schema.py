"""Unit tests for DOT schemas: attributes, part-of, constraints."""

from __future__ import annotations

import pytest

from repro.repository.schema import (
    AttributeDef,
    AttributeKind,
    Constraint,
    DesignObjectType,
)
from repro.util.errors import SchemaError


def _area_non_negative(data: dict) -> bool:
    return (data.get("area") or 0) >= 0



class TestAttributeKind:
    @pytest.mark.parametrize("kind,good,bad", [
        (AttributeKind.INT, 5, "x"),
        (AttributeKind.INT, -3, 1.5),
        (AttributeKind.FLOAT, 1.5, "x"),
        (AttributeKind.FLOAT, 2, None),
        (AttributeKind.STRING, "hi", 5),
        (AttributeKind.BOOL, True, 1),
    ])
    def test_accepts(self, kind, good, bad):
        assert kind.accepts(good)
        assert not kind.accepts(bad)

    def test_bool_is_not_int(self):
        assert not AttributeKind.INT.accepts(True)
        assert not AttributeKind.FLOAT.accepts(False)

    def test_json_accepts_nested(self):
        assert AttributeKind.JSON.accepts({"a": [1, {"b": None}]})


class TestAttributeDef:
    def test_required_missing_raises(self):
        attr = AttributeDef("area", AttributeKind.FLOAT)
        with pytest.raises(SchemaError):
            attr.validate(None)

    def test_optional_missing_ok(self):
        AttributeDef("area", AttributeKind.FLOAT,
                     required=False).validate(None)

    def test_wrong_domain_raises(self):
        attr = AttributeDef("area", AttributeKind.FLOAT)
        with pytest.raises(SchemaError):
            attr.validate("big")


class TestDesignObjectType:
    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            DesignObjectType("")

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(SchemaError):
            DesignObjectType("X", attributes=[
                AttributeDef("a", AttributeKind.INT),
                AttributeDef("a", AttributeKind.INT),
            ])

    def test_validate_collects_problems(self):
        dot = DesignObjectType("X", attributes=[
            AttributeDef("a", AttributeKind.INT),
            AttributeDef("b", AttributeKind.STRING, required=False),
        ])
        problems = dot.validate({"a": "nope", "c": 1})
        assert len(problems) == 2
        assert any("'a'" in p for p in problems)
        assert any("'c'" in p for p in problems)

    def test_validate_ok(self):
        dot = DesignObjectType("X", attributes=[
            AttributeDef("a", AttributeKind.INT)])
        assert dot.validate({"a": 3}) == []


class TestPartOf:
    def _hierarchy(self):
        std = DesignObjectType("Std")
        block = DesignObjectType("Block", parts={"cells": std})
        module = DesignObjectType("Module", parts={"blocks": block})
        chip = DesignObjectType("Chip", parts={"modules": module})
        return chip, module, block, std

    def test_direct_part(self):
        chip, module, __, __std = self._hierarchy()
        assert module.is_part_of(chip)

    def test_transitive_part(self):
        chip, __, __b, std = self._hierarchy()
        assert std.is_part_of(chip)

    def test_reflexive(self):
        chip, *_ = self._hierarchy()
        assert chip.is_part_of(chip)

    def test_not_part_upward(self):
        chip, module, *_ = self._hierarchy()
        assert not chip.is_part_of(module)

    def test_unrelated(self):
        chip, *_ = self._hierarchy()
        other = DesignObjectType("Other")
        assert not other.is_part_of(chip)

    def test_descendants(self):
        chip, *_ = self._hierarchy()
        names = {d.name for d in chip.descendants()}
        assert names == {"Module", "Block", "Std"}

    def test_shared_subtype_counted_once(self):
        std = DesignObjectType("Std")
        a = DesignObjectType("A", parts={"s": std})
        b = DesignObjectType("B", parts={"s": std})
        top = DesignObjectType("Top", parts={"a": a, "b": b})
        assert sum(1 for d in top.descendants() if d.name == "Std") == 1


class TestConstraints:
    def test_constraint_exception_is_violation(self):
        bad = Constraint("boom", lambda d: 1 / 0)
        assert not bad.holds({})

    def test_dot_reports_constraint_violation(self):
        dot = DesignObjectType("X", attributes=[
            AttributeDef("area", AttributeKind.FLOAT, required=False)],
            constraints=[Constraint("range(area)", _area_non_negative)])
        assert dot.validate({"area": 1.0}) == []
        problems = dot.validate({"area": -5.0})
        assert len(problems) == 1
        assert "range(area)" in problems[0]
