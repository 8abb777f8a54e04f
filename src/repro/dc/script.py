"""Scripts: work-flow templates for a DA's DOP executions (Fig.6).

"One can view a design methodology as a template for valid sequences of
DOP executions within a DA.  We call such a template a *script*.  A
script usually leaves some degrees of freedom to a designer ...
choosing one of several alternative paths, performing any intermediate
actions between two specified operations, perhaps containing
repetitions and branches for parallel actions" (Sect.4.2).

The AST nodes below cover everything Fig.6 shows:

* :class:`DopStep` — one design-tool execution;
* :class:`DaOpStep` — a specific DA operation (Evaluate, Propagate,
  Create_Sub_DA, ...) embedded in the work flow;
* :class:`Sequence` — ordered composition;
* :class:`Alternative` — designer chooses one of several paths
  (Fig.6b's branch after shape-function generation);
* :class:`Parallel` — branches that may interleave;
* :class:`Iteration` — designer-driven repetition ("the designer may
  perform re-iterations of parts of the internal tool executions");
* :class:`Open` — the "open" segments of Fig.6a: any intermediate
  actions, optionally restricted to a tool set.

:class:`ScriptCursor` interprets a script.  Its state is *derived* —
the DM reconstructs it after a crash by replaying its persistent log of
decisions and completions through a fresh cursor (forward recovery,
Sect.5.3) — so the cursor itself never needs serialising.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterator

from repro.repository.versions import FrozenDict, freeze_payload
from repro.util.errors import ScriptError


#: rounds of an ``Iteration`` that the static enumeration unrolls
UNROLLED_ROUNDS = 2

#: the parameters of every step given none: one frozen empty mapping
_NO_PARAMS = FrozenDict()


def _frozen_params(params: dict[str, Any]) -> FrozenDict:
    # a script is persisted by reference: its parameters may not change
    # under the stored copy
    return freeze_payload(params) if params else _NO_PARAMS


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

class ScriptNode:
    """Base class of script AST nodes."""

    def sequences(self) -> list[list[str]]:
        """Enumerate the tool-name sequences this node can produce.

        Iterations are unrolled up to :data:`UNROLLED_ROUNDS`; ``Open``
        segments contribute an empty placeholder (they are checked
        dynamically).  Used for static script-vs-constraint validation.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class DopStep(ScriptNode):
    """Execute a design tool as one DOP."""

    tool: str
    params: dict[str, Any] = field(default_factory=dict)
    #: simulated tool running time (minutes); 0 means "use the tool
    #: registry's default duration"
    duration: float = 0.0
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _frozen_params(self.params))

    def sequences(self) -> list[list[str]]:
        return [[self.tool]]


@dataclass(frozen=True)
class DaOpStep(ScriptNode):
    """Execute a DA operation (AC-level primitive) inside the work flow.

    Examples from the paper: ``Evaluate`` of the quality state of DOVs,
    ``Create_Sub_DA``, ``Propose``, ``Require``, ``Propagate``.
    """

    operation: str
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _frozen_params(self.params))

    def sequences(self) -> list[list[str]]:
        return [[]]  # DA operations are invisible to DOP-order constraints


@dataclass(frozen=True)
class Sequence(ScriptNode):
    """Children execute strictly in order."""

    children: tuple[ScriptNode, ...]

    def __init__(self, *children: ScriptNode) -> None:
        if not children:
            raise ScriptError("Sequence needs at least one child")
        object.__setattr__(self, "children", tuple(children))

    def sequences(self) -> list[list[str]]:
        results: list[list[str]] = [[]]
        for child in self.children:
            expanded: list[list[str]] = []
            for prefix in results:
                for suffix in child.sequences():
                    expanded.append(prefix + suffix)
            results = expanded
        return results


@dataclass(frozen=True)
class Alternative(ScriptNode):
    """The designer picks exactly one of several paths."""

    paths: tuple[ScriptNode, ...]
    name: str = ""

    def __init__(self, *paths: ScriptNode, name: str = "") -> None:
        if len(paths) < 2:
            raise ScriptError("Alternative needs at least two paths")
        object.__setattr__(self, "paths", tuple(paths))
        object.__setattr__(self, "name", name)

    def sequences(self) -> list[list[str]]:
        results: list[list[str]] = []
        for path in self.paths:
            results.extend(path.sequences())
        return results


@dataclass(frozen=True)
class Parallel(ScriptNode):
    """Branches whose steps may interleave arbitrarily."""

    branches: tuple[ScriptNode, ...]

    def __init__(self, *branches: ScriptNode) -> None:
        if len(branches) < 2:
            raise ScriptError("Parallel needs at least two branches")
        object.__setattr__(self, "branches", tuple(branches))

    def sequences(self) -> list[list[str]]:
        per_branch = [b.sequences() for b in self.branches]
        results: list[list[str]] = []

        def interleave(seqs: list[list[str]], acc: list[str]) -> None:
            if all(not s for s in seqs):
                results.append(list(acc))
                return
            for i, seq in enumerate(seqs):
                if seq:
                    head, rest = seq[0], seq[1:]
                    nxt = seqs[:i] + [rest] + seqs[i + 1:]
                    acc.append(head)
                    interleave(nxt, acc)
                    acc.pop()

        # one combination of concrete branch sequences at a time
        def combos(idx: int, chosen: list[list[str]]) -> None:
            if idx == len(per_branch):
                interleave([list(s) for s in chosen], [])
                return
            for seq in per_branch[idx]:
                combos(idx + 1, chosen + [seq])

        combos(0, [])
        # deduplicate while keeping order
        seen: set[tuple[str, ...]] = set()
        unique = []
        for seq in results:
            key = tuple(seq)
            if key not in seen:
                seen.add(key)
                unique.append(seq)
        return unique


@dataclass(frozen=True)
class Iteration(ScriptNode):
    """Repeat *body*; after each round the designer decides to go again.

    ``max_rounds`` bounds runaway loops (0 = designer-only control,
    still bounded by :data:`UNROLLED_ROUNDS` statically).
    """

    body: ScriptNode
    max_rounds: int = 0
    name: str = ""

    def sequences(self) -> list[list[str]]:
        body_seqs = self.body.sequences()
        bound = UNROLLED_ROUNDS if self.max_rounds == 0 \
            else min(self.max_rounds, UNROLLED_ROUNDS)
        results: list[list[str]] = []
        current: list[list[str]] = [[]]
        for _round in range(max(1, bound)):
            expanded = []
            for prefix in current:
                for body_seq in body_seqs:
                    expanded.append(prefix + body_seq)
            current = expanded
            results.extend(current)
        return results


@dataclass(frozen=True)
class Open(ScriptNode):
    """An undetermined segment: the designer inserts arbitrary steps.

    ``allowed_tools`` (when given) restricts what may be inserted —
    scripts "allow the specification of partially or even completely
    undetermined templates" (Sect.4.2).
    """

    allowed_tools: tuple[str, ...] | None = None
    name: str = ""

    #: sentinel used in static sequence enumeration: "any tools may be
    #: inserted here" (the constraint checker treats everything after a
    #: wildcard as unprovable and enforces it dynamically instead)
    WILDCARD = "*"

    def sequences(self) -> list[list[str]]:
        return [[Open.WILDCARD]]

    def permits(self, tool: str) -> bool:
        """True when the designer may insert *tool* here."""
        return self.allowed_tools is None or tool in self.allowed_tools


# ---------------------------------------------------------------------------
# Cursor
# ---------------------------------------------------------------------------

class ActionKind(str, Enum):
    """What the DM / designer must do next at an enabled position."""

    DOP = "dop"              # execute the DOP step at this position
    DA_OP = "da_op"          # execute the embedded DA operation
    CHOICE = "choice"        # pick an Alternative path (decision: int)
    LOOP = "loop"            # decide Iteration: 'again' | 'exit'
    OPEN = "open"            # insert a tool ('insert:<tool>') or 'close'


@dataclass(frozen=True)
class EnabledAction:
    """One currently enabled position in the script."""

    token: str          # stable position path, e.g. '0.s1.p0.s2'
    kind: ActionKind
    node: ScriptNode
    #: for CHOICE: number of paths; for LOOP: completed rounds
    options: int = 0

    @property
    def tool(self) -> str | None:
        """Tool name for DOP actions (None otherwise)."""
        return self.node.tool if isinstance(self.node, DopStep) else None


@dataclass(frozen=True, eq=False)
class Script:
    """A validated script with a root node.

    Immutable like every node below it (step parameters are frozen at
    construction), so the DM's "persistent script" (Sect.5.3) is this
    very object on stable storage, not a copy of it.
    """

    root: ScriptNode
    name: str = "script"

    __frozen_payload__ = True

    def sequences(self) -> list[list[str]]:
        """All statically enumerable tool sequences."""
        return self.root.sequences()

    def cursor(self) -> "ScriptCursor":
        """A fresh interpreter over this script."""
        return ScriptCursor(self)


class ScriptCursor:
    """Stateful interpreter producing enabled actions and consuming firings.

    State is a flat dict keyed by position token, so replaying the same
    firing sequence always reproduces the same cursor state — the
    property the DM's forward recovery relies on.
    """

    def __init__(self, script: Script) -> None:
        self.script = script
        #: token -> node-kind-specific state
        self._state: dict[str, Any] = {}
        #: ordered firing history (token, decision) — what the DM logs
        self.history: list[tuple[str, Any]] = []
        #: whether the root is complete; None after a write to _state
        #: (the DM polls is_done far more often than it fires)
        self._root_done: bool | None = None
        #: the enabled actions; None after a write to _state (a DM step
        #: reads them, then its fire reads them again)
        self._actions: list[EnabledAction] | None = None

    # -- public API ---------------------------------------------------------

    def enabled(self) -> list[EnabledAction]:
        """All positions that may fire right now."""
        return list(self._enabled_actions())

    def _enabled_actions(self) -> list[EnabledAction]:
        # the script is walked once per state change
        if self._actions is None:
            self._actions = [] if self.is_done() \
                else self._enabled(self.script.root, "0")
        return self._actions

    def is_done(self) -> bool:
        """True when the whole script has completed."""
        if self._root_done is None:
            self._root_done = self._done(self.script.root, "0")
        return self._root_done

    def fire(self, token: str, decision: Any = None) -> None:
        """Consume one enabled action.

        * DOP / DA_OP: marks the step complete (the DM fires only after
          a successful DOP commit);
        * CHOICE: ``decision`` is the chosen path index;
        * LOOP: ``decision`` is ``'again'`` or ``'exit'``;
        * OPEN: ``decision`` is ``('insert', tool)`` or ``'close'``.
        """
        enabled = {a.token: a for a in self._enabled_actions()}
        if token not in enabled:
            raise ScriptError(f"position {token!r} is not enabled "
                              f"(enabled: {sorted(enabled)})")
        action = enabled[token]
        self._apply(action, decision)
        self.history.append((token, decision))

    def replay(self, history: list[tuple[str, Any]]) -> None:
        """Re-apply a logged firing sequence (DM crash recovery)."""
        for token, decision in history:
            self.fire(token, decision)

    def reset_subtree(self, token: str) -> int:
        """Clear completion state under *token* (designer re-iteration).

        "the designer is allowed to step in ... and cause the iteration
        of a sequence of executed DOPs" (Sect.5.3).  Returns the number
        of state entries cleared.
        """
        self._root_done = self._actions = None
        doomed = [k for k in self._state
                  if k == token or k.startswith(token + ".")]
        for key in doomed:
            del self._state[key]
        return len(doomed)

    # -- interpretation -------------------------------------------------------

    def _apply(self, action: EnabledAction, decision: Any) -> None:
        node, token = action.node, action.token
        self._root_done = self._actions = None
        if action.kind in (ActionKind.DOP, ActionKind.DA_OP):
            self._state[token] = "done"
        elif action.kind is ActionKind.CHOICE:
            assert isinstance(node, Alternative)
            if not isinstance(decision, int) \
                    or not 0 <= decision < len(node.paths):
                raise ScriptError(
                    f"alternative {token!r} needs a path index in "
                    f"[0, {len(node.paths)}), got {decision!r}")
            self._state[token] = decision
        elif action.kind is ActionKind.LOOP:
            if decision not in ("again", "exit"):
                raise ScriptError(
                    f"iteration {token!r} needs 'again' or 'exit', "
                    f"got {decision!r}")
            state = self._state.setdefault(token,
                                           {"round": 0, "exited": False})
            if decision == "exit":
                state["exited"] = True
            else:
                assert isinstance(node, Iteration)
                if node.max_rounds and state["round"] + 1 >= node.max_rounds:
                    raise ScriptError(
                        f"iteration {token!r} reached max_rounds="
                        f"{node.max_rounds}")
                state["round"] += 1
        elif action.kind is ActionKind.OPEN:
            assert isinstance(node, Open)
            state = self._state.setdefault(token,
                                           {"inserted": [], "closed": False})
            if decision == "close":
                state["closed"] = True
            elif (isinstance(decision, tuple) and len(decision) == 2
                  and decision[0] == "insert"):
                tool = decision[1]
                if not node.permits(tool):
                    raise ScriptError(
                        f"open segment {token!r} does not permit tool "
                        f"{tool!r}")
                state["inserted"].append(tool)
            else:
                raise ScriptError(
                    f"open segment {token!r} needs ('insert', tool) or "
                    f"'close', got {decision!r}")

    # enabled/done recursion ---------------------------------------------------

    def _enabled(self, node: ScriptNode, token: str) -> list[EnabledAction]:
        if isinstance(node, DopStep):
            if self._state.get(token) != "done":
                return [EnabledAction(token, ActionKind.DOP, node)]
            return []
        if isinstance(node, DaOpStep):
            if self._state.get(token) != "done":
                return [EnabledAction(token, ActionKind.DA_OP, node)]
            return []
        if isinstance(node, Sequence):
            for i, child in enumerate(node.children):
                child_token = f"{token}.s{i}"
                if not self._done(child, child_token):
                    return self._enabled(child, child_token)
            return []
        if isinstance(node, Alternative):
            choice = self._state.get(token)
            if choice is None:
                return [EnabledAction(token, ActionKind.CHOICE, node,
                                      options=len(node.paths))]
            return self._enabled(node.paths[choice], f"{token}.p{choice}")
        if isinstance(node, Parallel):
            actions: list[EnabledAction] = []
            for i, branch in enumerate(node.branches):
                branch_token = f"{token}.b{i}"
                if not self._done(branch, branch_token):
                    actions.extend(self._enabled(branch, branch_token))
            return actions
        if isinstance(node, Iteration):
            state = self._state.get(token, {"round": 0, "exited": False})
            body_token = f"{token}.r{state['round']}"
            if not self._done(node.body, body_token):
                return self._enabled(node.body, body_token)
            if not state["exited"]:
                return [EnabledAction(token, ActionKind.LOOP, node,
                                      options=state["round"] + 1)]
            return []
        if isinstance(node, Open):
            state = self._state.get(token, {"inserted": [], "closed": False})
            if state["closed"]:
                return []
            actions = [EnabledAction(token, ActionKind.OPEN, node,
                                     options=len(state["inserted"]))]
            # a pending inserted step must run before new insertions fire
            pending = self._pending_inserted(token, state)
            if pending is not None:
                index, tool = pending
                step = DopStep(tool)
                return [EnabledAction(f"{token}.i{index}", ActionKind.DOP,
                                      step)]
            return actions
        raise ScriptError(f"unknown script node {type(node).__name__}")

    def _pending_inserted(self, token: str,
                          state: dict[str, Any]) -> tuple[int, str] | None:
        for index, tool in enumerate(state["inserted"]):
            if self._state.get(f"{token}.i{index}") != "done":
                return index, tool
        return None

    def _done(self, node: ScriptNode, token: str) -> bool:
        if isinstance(node, (DopStep, DaOpStep)):
            return self._state.get(token) == "done"
        if isinstance(node, Sequence):
            return all(self._done(child, f"{token}.s{i}")
                       for i, child in enumerate(node.children))
        if isinstance(node, Alternative):
            choice = self._state.get(token)
            if choice is None:
                return False
            return self._done(node.paths[choice], f"{token}.p{choice}")
        if isinstance(node, Parallel):
            return all(self._done(branch, f"{token}.b{i}")
                       for i, branch in enumerate(node.branches))
        if isinstance(node, Iteration):
            state = self._state.get(token)
            if state is None:
                return False
            return (state["exited"]
                    and self._done(node.body, f"{token}.r{state['round']}"))
        if isinstance(node, Open):
            state = self._state.get(token)
            if state is None or not state["closed"]:
                return False
            return self._pending_inserted(token, state) is None
        raise ScriptError(f"unknown script node {type(node).__name__}")

    # -- introspection ------------------------------------------------------------

    def executed_tools(self) -> Iterator[str]:
        """Tool names of DOP steps completed so far, in firing order."""
        for token, _decision in self.history:
            action_node = self._node_at(token)
            if isinstance(action_node, DopStep):
                yield action_node.tool

    def _node_at(self, token: str) -> ScriptNode | None:
        node: ScriptNode | None = self.script.root
        parts = token.split(".")[1:]
        for part in parts:
            if node is None:
                return None
            if part.startswith("s") and isinstance(node, Sequence):
                node = node.children[int(part[1:])]
            elif part.startswith("p") and isinstance(node, Alternative):
                node = node.paths[int(part[1:])]
            elif part.startswith("b") and isinstance(node, Parallel):
                node = node.branches[int(part[1:])]
            elif part.startswith("r") and isinstance(node, Iteration):
                node = node.body
            elif part.startswith("i") and isinstance(node, Open):
                # inserted tools: reconstruct from the open segment's state
                open_token = token.rsplit(".", 1)[0]
                open_state = self._state.get(open_token, {"inserted": []})
                index = int(part[1:])
                inserted = open_state["inserted"]
                node = DopStep(inserted[index]) if index < len(inserted) \
                    else None
            else:
                return None
        return node
