"""Design object versions (DOVs) and derivation graphs.

"All the DOVs created within a DA are organized in a *derivation graph*,
and belong to the scope of that very DA" (Sect.4.1).  A DOV is an
immutable snapshot of design data: tools never update a version in
place, they check out input versions and check in a newly derived one.
The derivation graph records which versions each new version was derived
from; it is a DAG per DA (multiple parents arise when a tool merges
several inputs).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.util.errors import UnknownObjectError

#: modelled byte cost of a fixed-size scalar (numbers, booleans, None)
_SCALAR_BYTES = 8
#: modelled per-entry container overhead (keys, length words, pointers)
_CONTAINER_OVERHEAD = 8

#: count of *actual* recursive walks, read by the one-walk-per-DOV
#: regression tests: ``sizeof`` counts :func:`payload_sizeof` walks a
#: frozen container's cached size could not serve, ``freeze`` counts
#: :func:`freeze_payload` walks (a frozen DOV costs exactly one)
_WALKS = {"sizeof": 0, "freeze": 0}


class FrozenDict(dict):
    """An immutable, payload-sized dict — the frozen canonical form.

    A :class:`dict` subclass (so schema validation, JSON encoding and
    equality with plain dicts keep working unchanged) whose mutators
    all raise, carrying the modelled payload size computed at
    construction.  ``copy.deepcopy``/``copy.copy`` return the instance
    itself — the zero-copy contract: no reference to a frozen payload
    can ever observe a mutation, so sharing is always safe.

    The size stamp is computed in ``__init__`` (members that are
    already frozen answer in O(1), so the freeze walk stays a single
    walk overall) — a directly constructed instance therefore carries
    a correct size too, never a stale default.  Note: construction
    does *not* deep-freeze its members; use :func:`freeze_payload`
    for arbitrary nested data.
    """

    #: no instance dict: a frozen container is its items plus the stamp
    __slots__ = ("_frozen_size",)
    #: structural marker checked by the storage/network fast paths
    __frozen_payload__ = True

    def __init__(self, items: Any = (), /) -> None:
        dict.__init__(self, items)
        # what a tool builds is str keys over strs, numbers and frozen
        # containers: those are sized inline, anything else by _sizeof
        size = _CONTAINER_OVERHEAD * len(self)
        for key, value in dict.items(self):
            tp = type(value)
            if tp is str:
                size += len(value)
            elif tp is float or tp is int or tp is bool or value is None:
                size += _SCALAR_BYTES
            elif tp is FrozenList or tp is FrozenDict:
                size += value._frozen_size
            else:
                size += _sizeof(value)
            size += len(key) if type(key) is str else _sizeof(key)
        self._frozen_size = size

    def _immutable(self, *args: Any, **kwargs: Any) -> Any:
        raise TypeError("frozen design payload is immutable")

    __setitem__ = __delitem__ = _immutable
    clear = pop = popitem = setdefault = update = _immutable
    __ior__ = _immutable

    def __deepcopy__(self, memo: dict) -> "FrozenDict":
        return self

    def __copy__(self) -> "FrozenDict":
        return self

    def __reduce__(self):
        return (FrozenDict, (dict(self),))


class FrozenList(list):
    """An immutable, payload-sized list — frozen canonical sequences.

    Mirrors :class:`FrozenDict` for list payload values: still a
    ``list`` (type checks and equality with plain lists hold), but
    every mutator raises and deep copies return the instance itself.
    """

    __slots__ = ("_frozen_size",)
    __frozen_payload__ = True

    def __init__(self, items: Any = (), /) -> None:
        list.__init__(self, items)
        # sized inline as FrozenDict's members are
        size = _CONTAINER_OVERHEAD * len(self)
        for item in self:
            tp = type(item)
            if tp is str:
                size += len(item)
            elif tp is float or tp is int or tp is bool or item is None:
                size += _SCALAR_BYTES
            elif tp is FrozenList or tp is FrozenDict:
                size += item._frozen_size
            else:
                size += _sizeof(item)
        self._frozen_size = size

    def _immutable(self, *args: Any, **kwargs: Any) -> Any:
        raise TypeError("frozen design payload is immutable")

    __setitem__ = __delitem__ = __iadd__ = __imul__ = _immutable
    append = extend = insert = pop = remove = _immutable
    sort = reverse = clear = _immutable

    def __deepcopy__(self, memo: dict) -> "FrozenList":
        return self

    def __copy__(self) -> "FrozenList":
        return self

    def __reduce__(self):
        return (FrozenList, (list(self),))


_FROZEN_CONTAINERS = (FrozenDict, FrozenList)
_SCALAR_TYPES = frozenset({str, int, float, bool, bytes, type(None)})


def is_frozen_payload(value: Any) -> bool:
    """True when *value*'s type carries ``__frozen_payload__``.

    The one immutability rule of stable storage, the WAL and the
    freeze/thaw walks: a type whose instances cannot change through
    any reference says so with the marker, and whoever holds such a
    value shares it instead of copying it.
    """
    tp = type(value)
    # most record values are scalars, and a lookup that fails is the
    # slow kind: rule them out by type first
    return tp not in _SCALAR_TYPES \
        and getattr(tp, "__frozen_payload__", False)


def payload_sizeof(value: Any) -> int:
    """Deterministic modelled size (in bytes) of a design payload.

    This is the unit of the simulated LAN's data-shipping cost model:
    strings and bytes count their length, fixed-size scalars count
    :data:`_SCALAR_BYTES`, containers add a small per-entry overhead.
    The measure is stable across processes (unlike ``sys.getsizeof``),
    which keeps identically seeded simulations byte-identical.

    Frozen payload containers short-circuit to the size cached during
    their freeze walk — O(1), no recursion, and the answer is exactly
    what the full walk would compute.
    """
    if type(value) in _FROZEN_CONTAINERS:
        return value._frozen_size
    _WALKS["sizeof"] += 1
    return _sizeof(value)


def _sizeof(value: Any) -> int:
    if type(value) in _FROZEN_CONTAINERS:
        return value._frozen_size
    if isinstance(value, str):
        return len(value)
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, (bool, int, float)) or value is None:
        return _SCALAR_BYTES
    if isinstance(value, dict):
        return sum(_sizeof(k) + _sizeof(v)
                   + _CONTAINER_OVERHEAD for k, v in value.items())
    if isinstance(value, (list, tuple, set, frozenset)):
        return sum(_sizeof(item) + _CONTAINER_OVERHEAD
                   for item in value)
    # unknown objects: flat scalar cost (keeps the model total)
    return _SCALAR_BYTES


def freeze_payload(value: Any) -> Any:
    """Deep-freeze a design payload in one walk, caching its size.

    Dicts become :class:`FrozenDict`, lists :class:`FrozenList`, sets
    ``frozenset``, ``bytearray`` becomes ``bytes``; scalars, tuples of
    frozen values and already-frozen containers pass through.  The
    single walk also computes the modelled payload size bottom-up, so
    a frozen container answers :func:`payload_sizeof` in O(1) — the
    zero-copy hot-path invariant: freeze once at DOV creation, never
    deep-copy or re-walk afterwards.
    """
    if type(value) in _FROZEN_CONTAINERS:
        return value
    _WALKS["freeze"] += 1
    frozen, _ = _freeze(value)
    return frozen


def _freeze(value: Any) -> tuple[Any, int]:
    # exact-type dispatch first: payload trees are overwhelmingly
    # plain strs/ints/floats/dicts/lists, and `type(...) is` beats the
    # isinstance chain on exactly that hot path.  The frozen containers
    # (dict/list subclasses) pass through before the container walks,
    # which take every other dict or list subclass too
    tp = type(value)
    if tp is str:
        return value, len(value)
    if tp is int or tp is float or tp is bool or value is None:
        return value, _SCALAR_BYTES
    if tp in _FROZEN_CONTAINERS:
        return value, value._frozen_size
    if tp is dict or isinstance(value, dict):
        # members freeze first and report their sizes, so the frozen
        # container adopts the total without re-walking anything —
        # freezing a payload really is one walk.  The common members
        # (str keys, scalar values, frozen containers) are handled
        # inline: a working dict of tool output that was frozen where
        # it was produced freezes without one recursive call per member.
        items: dict[Any, Any] = {}
        total = 0
        for key, item in value.items():
            if type(key) is str:
                frozen_key, key_size = key, len(key)
            else:
                frozen_key, key_size = _freeze(key)
            item_type = type(item)
            if item_type is str:
                frozen_item, item_size = item, len(item)
            elif item_type is int or item_type is float \
                    or item_type is bool or item is None:
                frozen_item, item_size = item, _SCALAR_BYTES
            elif item_type is FrozenDict or item_type is FrozenList:
                frozen_item, item_size = item, item._frozen_size
            else:
                frozen_item, item_size = _freeze(item)
            items[frozen_key] = frozen_item
            total += key_size + item_size + _CONTAINER_OVERHEAD
        # the frozen container adopts the members and their total
        # without ``__init__``'s re-walk
        frozen_dict = dict.__new__(FrozenDict)
        dict.update(frozen_dict, items)
        frozen_dict._frozen_size = total
        return frozen_dict, total
    if tp is list or isinstance(value, list):
        members_list: list[Any] = []
        total = 0
        for item in value:
            item_type = type(item)
            if item_type is str:
                frozen_item, item_size = item, len(item)
            elif item_type is int or item_type is float \
                    or item_type is bool or item is None:
                frozen_item, item_size = item, _SCALAR_BYTES
            elif item_type is FrozenDict or item_type is FrozenList:
                frozen_item, item_size = item, item._frozen_size
            else:
                frozen_item, item_size = _freeze(item)
            members_list.append(frozen_item)
            total += item_size + _CONTAINER_OVERHEAD
        frozen_list = list.__new__(FrozenList)
        list.extend(frozen_list, members_list)
        frozen_list._frozen_size = total
        return frozen_list, total
    if isinstance(value, str):
        return value, len(value)
    if isinstance(value, bytes):
        return value, len(value)
    if isinstance(value, bytearray):
        return bytes(value), len(value)
    if isinstance(value, (bool, int, float)):
        return value, _SCALAR_BYTES
    if isinstance(value, tuple):
        # tuples stay tuples (hashable members stay hashable); only
        # their members are frozen
        members = [_freeze(item) for item in value]
        total = sum(item_size + _CONTAINER_OVERHEAD
                    for _, item_size in members)
        if all(frozen is item
               for (frozen, _), item in zip(members, value)):
            return value, total
        return tuple(frozen for frozen, _ in members), total
    if isinstance(value, (set, frozenset)):
        members = [_freeze(item) for item in value]
        total = sum(item_size + _CONTAINER_OVERHEAD
                    for _, item_size in members)
        return frozenset(frozen for frozen, _ in members), total
    if is_frozen_payload(value):
        # immutable by its type's word: an opaque scalar, shared
        return value, _SCALAR_BYTES
    # unknown objects: flat scalar cost — but *copied*, not shared:
    # they may be mutable, and every zero-copy short-circuit
    # downstream trusts that nothing reachable from a frozen payload
    # can change (the seed path deep-copied them at each boundary)
    return copy.deepcopy(value), _SCALAR_BYTES


def thaw_payload(value: Any) -> Any:
    """A private, mutable copy of a frozen payload — :func:`_freeze`
    backwards.

    :class:`FrozenDict` becomes ``dict`` and :class:`FrozenList`
    ``list`` again, at every depth and inside tuples; immutable leaves
    (scalars, values of a ``__frozen_payload__`` type) are shared.
    What freezing cannot give back stays as frozen: a ``set`` comes
    back a ``frozenset``, a ``bytearray`` as ``bytes``.  Unknown
    objects are copied, as they were on the way in, so nothing mutable
    is reachable from both the result and *value*.
    """
    tp = type(value)
    if tp is str or tp is int or tp is float or tp is bool \
            or value is None or tp is bytes or tp is frozenset:
        return value
    if isinstance(value, dict):
        return {key: thaw_payload(item) for key, item in value.items()}
    if isinstance(value, list):
        return [thaw_payload(item) for item in value]
    if tp is tuple:
        return tuple(thaw_payload(item) for item in value)
    if is_frozen_payload(value):
        return value
    return copy.deepcopy(value)


@dataclass(frozen=True, init=False)
class DesignObjectVersion:
    """One immutable design state.

    Attributes
    ----------
    dov_id:
        Repository-wide unique identifier.
    dot_name:
        Name of the :class:`~repro.repository.schema.DesignObjectType`
        this version instantiates.
    data:
        Flat attribute dict (validated against the DOT on checkin).
    created_by:
        Id of the DA in whose scope the version was derived.
    created_at:
        Simulated checkin time.
    parents:
        Ids of the versions this one was derived from (empty for DOV0 /
        initial versions).
    """

    dov_id: str
    dot_name: str
    data: dict[str, Any]
    created_by: str
    created_at: float
    parents: tuple[str, ...] = ()

    #: every field is immutable once ``__init__`` has frozen the
    #: payload, so storage and transport share a DOV instead of copying
    __frozen_payload__ = True

    def __init__(self, dov_id: str, dot_name: str, data: dict[str, Any],
                 created_by: str, created_at: float,
                 parents: tuple[str, ...] = ()) -> None:
        # deep-freeze the payload once at creation (the zero-copy hot
        # path): the one walk both canonicalises the data and caches
        # the modelled size.  Already-frozen data (checkins, WAL redo,
        # dataclasses.replace) is adopted without any walk.
        if type(data) is not FrozenDict:
            data = freeze_payload(data)
        setattr_ = object.__setattr__     # the instance is frozen
        setattr_(self, "dov_id", dov_id)
        setattr_(self, "dot_name", dot_name)
        setattr_(self, "data", data)
        setattr_(self, "created_by", created_by)
        setattr_(self, "created_at", created_at)
        setattr_(self, "parents", parents if type(parents) is tuple
                 else tuple(parents))
        setattr_(self, "_payload_size", data._frozen_size)

    @property
    def payload_size(self) -> int:
        """Modelled size in bytes of the version's data payload.

        Drives the size-aware shipping cost of checkout fetches over
        the simulated LAN (workstation object buffers pay this once
        per miss instead of once per read).  Cached: the freeze walk
        at construction computed it, so this is an O(1) lookup — no
        recursive re-walk per access.
        """
        return self._payload_size

    @property
    def stamp(self) -> tuple[str, float]:
        """Version stamp ``(dov_id, created_at)`` of this snapshot.

        DOVs are immutable, so the id alone identifies the bytes; the
        stamp additionally carries the checkin instant for buffer
        bookkeeping and traces.
        """
        return (self.dov_id, self.created_at)

    def get(self, attr: str, default: Any = None) -> Any:
        """Convenience attribute accessor."""
        return self.data.get(attr, default)


@dataclass
class DerivationGraph:
    """The per-DA DAG of design object versions.

    The graph owner (a DA id) matters for scope checks: the TM protects
    each DA's derivation graph with short locks during checkin
    (Sect.5.2), and the CM's scope-locks isolate whole graphs.
    """

    owner: str
    _nodes: dict[str, DesignObjectVersion] = field(default_factory=dict)
    _children: dict[str, list[str]] = field(default_factory=dict)
    root_id: str | None = None

    # -- mutation -------------------------------------------------------------

    def add(self, dov: DesignObjectVersion) -> None:
        """Insert a version; parents already in the graph gain an edge.

        Parents from *other* graphs (usage-relationship inputs) are
        recorded on the DOV itself but do not create local edges.
        """
        if dov.dov_id in self._nodes:
            raise ValueError(f"duplicate DOV {dov.dov_id!r} in graph "
                             f"of {self.owner!r}")
        self._nodes[dov.dov_id] = dov
        self._children[dov.dov_id] = []
        for parent in dov.parents:
            if parent in self._nodes:
                self._children[parent].append(dov.dov_id)
        if self.root_id is None and not dov.parents:
            self.root_id = dov.dov_id

    # -- queries --------------------------------------------------------------

    def __contains__(self, dov_id: str) -> bool:
        return dov_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[DesignObjectVersion]:
        return iter(self._nodes.values())

    def get(self, dov_id: str) -> DesignObjectVersion:
        """Look up a version; raises :class:`UnknownObjectError`."""
        try:
            return self._nodes[dov_id]
        except KeyError:
            raise UnknownObjectError(
                f"DOV {dov_id!r} not in derivation graph of "
                f"{self.owner!r}") from None

    def ids(self) -> set[str]:
        """Ids of all versions in this graph."""
        return set(self._nodes)

    def leaves(self) -> list[DesignObjectVersion]:
        """Versions without successors — the current frontier."""
        return [self._nodes[i] for i, kids in self._children.items()
                if not kids]

    def ancestors_of(self, dov_id: str) -> set[str]:
        """All (transitive) predecessors of *dov_id* within this graph."""
        target = self.get(dov_id)
        seen: set[str] = set()
        stack = [p for p in target.parents if p in self._nodes]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(p for p in self._nodes[node].parents
                         if p in self._nodes)
        return seen

    def is_ancestor(self, maybe_ancestor: str, dov_id: str) -> bool:
        """True when *maybe_ancestor* precedes *dov_id* in this graph."""
        return maybe_ancestor in self.ancestors_of(dov_id)
