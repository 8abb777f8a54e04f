"""Unit tests for DOVs and derivation graphs."""

from __future__ import annotations

import pytest

from repro.repository.versions import (
    DerivationGraph,
    DesignObjectVersion,
    freeze_payload,
    thaw_payload,
)
from repro.util.errors import UnknownObjectError


def dov(dov_id: str, parents: tuple[str, ...] = (),
        **data) -> DesignObjectVersion:
    return DesignObjectVersion(dov_id, "Cell", dict(data), "da-1", 0.0,
                               parents)


class TestDesignObjectVersion:
    def test_the_payload_is_frozen(self):
        # the payload is frozen, so every holder shares the immutable
        # — no reference can corrupt the version
        version = dov("v1", nested={"a": [1]})
        with pytest.raises(TypeError):
            version.data["nested"]["a"].append(2)
        assert version.data["nested"]["a"] == [1]

    def test_get_with_default(self):
        version = dov("v1", area=2.0)
        assert version.get("area") == 2.0
        assert version.get("missing", "d") == "d"


    def test_parents_are_a_tuple_whatever_was_passed(self):
        version = DesignObjectVersion("v2", "Cell", {}, "da-1", 0.0,
                                      ["v0", "v1"])
        assert version.parents == ("v0", "v1")
        assert type(version.parents) is tuple


class TestThawPayload:
    def test_thaw_gives_back_plain_mutable_containers(self):
        raw = {"cells": [{"x": 1, "pins": [1, 2]}], "t": (5, [6]),
               "n": None, "s": "text", "f": 1.5, "b": b"xy"}
        thawed = thaw_payload(freeze_payload(raw))
        assert thawed == raw
        assert type(thawed) is dict
        assert type(thawed["cells"]) is list
        assert type(thawed["cells"][0]) is dict
        assert type(thawed["cells"][0]["pins"]) is list
        assert type(thawed["t"]) is tuple and type(thawed["t"][1]) is list
        thawed["cells"][0]["pins"].append(3)        # mutable again

    def test_thaw_is_private_to_its_caller(self):
        frozen = freeze_payload({"cells": [[1], [2]]})
        first, second = thaw_payload(frozen), thaw_payload(frozen)
        first["cells"][0].append(9)
        assert second == {"cells": [[1], [2]]}
        assert frozen == {"cells": [[1], [2]]}

    def test_what_freezing_lost_stays_frozen(self):
        thawed = thaw_payload(freeze_payload(
            {"set": {1, 2}, "bytes": bytearray(b"xy")}))
        assert thawed == {"set": frozenset({1, 2}), "bytes": b"xy"}
        assert type(thawed["set"]) is frozenset
        assert type(thawed["bytes"]) is bytes

    def test_unknown_objects_are_copied_not_shared(self):
        class Blob:
            def __init__(self):
                self.items = [1]

        frozen = freeze_payload({"blob": Blob()})
        thawed = thaw_payload(frozen)
        assert thawed["blob"] is not frozen["blob"]
        thawed["blob"].items.append(2)
        assert frozen["blob"].items == [1]


class TestDerivationGraph:
    def _chain(self) -> DerivationGraph:
        graph = DerivationGraph("da-1")
        graph.add(dov("v1"))
        graph.add(dov("v2", ("v1",)))
        graph.add(dov("v3", ("v2",)))
        return graph

    def test_root_detection(self):
        graph = self._chain()
        assert graph.root_id == "v1"

    def test_contains_and_len(self):
        graph = self._chain()
        assert "v2" in graph
        assert "vx" not in graph
        assert len(graph) == 3

    def test_duplicate_rejected(self):
        graph = self._chain()
        with pytest.raises(ValueError):
            graph.add(dov("v1"))

    def test_leaves(self):
        graph = self._chain()
        assert [leaf.dov_id for leaf in graph.leaves()] == ["v3"]

    def test_branching_leaves(self):
        graph = self._chain()
        graph.add(dov("v4", ("v2",)))
        leaves = {leaf.dov_id for leaf in graph.leaves()}
        assert leaves == {"v3", "v4"}

    def test_ancestors_descendants(self):
        graph = self._chain()
        assert graph.ancestors_of("v3") == {"v1", "v2"}

    def test_is_ancestor(self):
        graph = self._chain()
        assert graph.is_ancestor("v1", "v3")
        assert not graph.is_ancestor("v3", "v1")

    def test_multi_parent_merge(self):
        graph = DerivationGraph("da-1")
        graph.add(dov("a"))
        graph.add(dov("b"))
        graph.add(dov("m", ("a", "b")))
        assert graph.ancestors_of("m") == {"a", "b"}

    def test_foreign_parent_ignored_locally(self):
        graph = DerivationGraph("da-1")
        graph.add(dov("local", parents=("foreign-dov",)))
        # the foreign parent creates no local edge but is kept on the DOV
        assert graph.get("local").parents == ("foreign-dov",)
        assert graph.ancestors_of("local") == set()

    def test_unknown_lookup_raises(self):
        graph = self._chain()
        with pytest.raises(UnknownObjectError):
            graph.get("nope")

    def test_root_with_parents_not_root(self):
        graph = DerivationGraph("da-1")
        graph.add(dov("v1", parents=("external",)))
        assert graph.root_id is None
