"""Shared fixtures for the CONCORD test suite."""

from __future__ import annotations

import pytest

from repro.core.system import ConcordSystem
from repro.repository.repository import DesignDataRepository
from repro.repository.schema import (
    AttributeDef,
    AttributeKind,
    Constraint,
    DesignObjectType,
)
from repro.util.ids import IdGenerator


def _area_non_negative(data: dict) -> bool:
    return (data.get("area") or 0) >= 0



@pytest.fixture
def cell_dot() -> DesignObjectType:
    """A simple DOT with one optional numeric attribute + constraint."""
    return DesignObjectType("Cell", attributes=[
        AttributeDef("name", AttributeKind.STRING, required=False),
        AttributeDef("area", AttributeKind.FLOAT, required=False),
    ], constraints=[Constraint("range(area)", _area_non_negative)])


@pytest.fixture
def repository(cell_dot) -> DesignDataRepository:
    """A repository with the Cell DOT registered and a graph for da-1."""
    repo = DesignDataRepository(IdGenerator())
    repo.register_dot(cell_dot)
    repo.create_graph("da-1")
    return repo


@pytest.fixture
def system(cell_dot) -> ConcordSystem:
    """A minimal ConcordSystem with one workstation and a no-op tool."""
    sys_ = ConcordSystem()
    sys_.add_workstation("ws-1")
    sys_.tools.register(
        "halve", lambda ctx, p: ctx.data.update(
            area=ctx.data.get("area", 200.0) * 0.5),
        duration=10.0)
    return sys_
