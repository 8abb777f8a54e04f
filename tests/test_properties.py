"""Property-based tests (hypothesis) on core data structures.

Invariants covered:

* shape-function staircases: pruning keeps a minimal antichain that
  still dominates every input shape;
* derivation graphs: ancestor/descendant duality, acyclicity;
* script cursors: replaying a logged history reproduces the cursor
  state exactly (the DM's forward-recovery invariant);
* range-feature refinement is a partial order (reflexive, transitive,
  antisymmetric up to equal bounds);
* the WAL: the stable prefix after crash is a prefix of the pre-crash
  record sequence;
* the federated commit: a batch commits iff no member that owns one
  of its versions is down, forces the writes its protocol names, and
  an abort leaves nothing staged or durable.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.features import RangeFeature
from repro.dc.script import (
    ActionKind,
    Alternative,
    DopStep,
    Iteration,
    Parallel,
    Script,
    Sequence,
)
from repro.repository.versions import DerivationGraph, DesignObjectVersion
from repro.repository.wal import LogRecordKind, WriteAheadLog
from repro.vlsi.shapes import Shape, ShapeFunction

# ---------------------------------------------------------------------------
# shape functions
# ---------------------------------------------------------------------------

shapes_strategy = st.lists(
    st.builds(Shape,
              st.floats(min_value=0.1, max_value=100.0,
                        allow_nan=False, allow_infinity=False),
              st.floats(min_value=0.1, max_value=100.0,
                        allow_nan=False, allow_infinity=False)),
    min_size=1, max_size=12)


@given(shapes_strategy)
def test_shape_pruning_is_antichain(shapes):
    function = ShapeFunction("c", shapes)
    kept = function.shapes
    for i, a in enumerate(kept):
        for b in kept[i + 1:]:
            # no shape dominates another
            assert not (a.width <= b.width and a.height <= b.height)
            assert not (b.width <= a.width and b.height <= a.height)


@given(shapes_strategy)
def test_shape_pruning_dominates_all_inputs(shapes):
    function = ShapeFunction("c", shapes)
    for original in shapes:
        assert any(k.width <= original.width
                   and k.height <= original.height
                   for k in function.shapes)


@given(shapes_strategy)
def test_shape_staircase_monotone(shapes):
    kept = ShapeFunction("c", shapes).shapes
    widths = [s.width for s in kept]
    heights = [s.height for s in kept]
    assert widths == sorted(widths)
    assert heights == sorted(heights, reverse=True)


# ---------------------------------------------------------------------------
# derivation graphs
# ---------------------------------------------------------------------------

@st.composite
def derivation_chains(draw):
    """A random DAG built by attaching each node to earlier nodes."""
    n = draw(st.integers(min_value=1, max_value=15))
    graph = DerivationGraph("da-p")
    for i in range(n):
        if i == 0:
            parents = ()
        else:
            count = draw(st.integers(min_value=1, max_value=min(3, i)))
            indices = draw(st.lists(
                st.integers(min_value=0, max_value=i - 1),
                min_size=count, max_size=count, unique=True))
            parents = tuple(f"v{j}" for j in indices)
        graph.add(DesignObjectVersion(f"v{i}", "T", {}, "da-p", float(i),
                                      parents))
    return graph


def children(graph, dov_id):
    """Direct successors, read off the versions' own parent lists."""
    return [dov.dov_id for dov in graph if dov_id in dov.parents]


def descendants(graph, dov_id):
    """Transitive successors, walked down :func:`children`."""
    seen, stack = set(), children(graph, dov_id)
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(children(graph, node))
    return seen


@given(derivation_chains())
def test_ancestor_descendant_duality(graph):
    for dov in graph:
        for ancestor in graph.ancestors_of(dov.dov_id):
            assert dov.dov_id in descendants(graph, ancestor)


@given(derivation_chains())
def test_no_node_is_its_own_ancestor(graph):
    for dov in graph:
        assert dov.dov_id not in graph.ancestors_of(dov.dov_id)


@given(derivation_chains())
def test_leaves_have_no_descendants(graph):
    for leaf in graph.leaves():
        assert children(graph, leaf.dov_id) == []


# ---------------------------------------------------------------------------
# script cursor replay
# ---------------------------------------------------------------------------

@st.composite
def script_trees(draw, depth=0):
    if depth >= 2:
        return DopStep(draw(st.sampled_from(["t1", "t2", "t3"])))
    node_kind = draw(st.sampled_from(
        ["dop", "seq", "alt", "par", "iter"]))
    if node_kind == "dop":
        return DopStep(draw(st.sampled_from(["t1", "t2", "t3"])))
    if node_kind == "seq":
        children = draw(st.lists(script_trees(depth=depth + 1),
                                 min_size=1, max_size=3))
        return Sequence(*children)
    if node_kind == "alt":
        children = draw(st.lists(script_trees(depth=depth + 1),
                                 min_size=2, max_size=3))
        return Alternative(*children)
    if node_kind == "par":
        children = draw(st.lists(script_trees(depth=depth + 1),
                                 min_size=2, max_size=2))
        return Parallel(*children)
    body = draw(script_trees(depth=depth + 1))
    return Iteration(body, max_rounds=3)


@given(script_trees(), st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_cursor_replay_reproduces_state(tree, rnd):
    script = Script(tree)
    cursor = script.cursor()
    steps = 0
    while not cursor.is_done() and steps < 50:
        actions = cursor.enabled()
        assert actions, "non-done cursor must offer actions"
        action = rnd.choice(actions)
        if action.kind is ActionKind.CHOICE:
            decision = rnd.randrange(action.options)
        elif action.kind is ActionKind.LOOP:
            decision = rnd.choice(["again", "exit"]) \
                if action.options < 3 else "exit"
        else:
            decision = None
        cursor.fire(action.token, decision)
        steps += 1

    replayed = script.cursor()
    replayed.replay(cursor.history)
    assert replayed.is_done() == cursor.is_done()
    assert sorted(a.token for a in replayed.enabled()) == \
           sorted(a.token for a in cursor.enabled())
    assert list(replayed.executed_tools()) == \
           list(cursor.executed_tools())


@given(script_trees())
@settings(max_examples=60)
def test_script_completes_with_default_decisions(tree):
    """Any generated script terminates under first-choice/exit policy."""
    cursor = Script(tree).cursor()
    for _ in range(200):
        if cursor.is_done():
            break
        action = cursor.enabled()[0]
        if action.kind is ActionKind.CHOICE:
            cursor.fire(action.token, 0)
        elif action.kind is ActionKind.LOOP:
            cursor.fire(action.token, "exit")
        else:
            cursor.fire(action.token)
    assert cursor.is_done()


# ---------------------------------------------------------------------------
# range-feature refinement
# ---------------------------------------------------------------------------

bounds = st.tuples(
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
    st.floats(min_value=50.0, max_value=100.0, allow_nan=False))


@given(bounds)
def test_refinement_reflexive(b):
    feature = RangeFeature("f", "x", lo=b[0], hi=b[1])
    assert feature.restricts(feature)


@given(bounds, bounds, bounds)
def test_refinement_transitive(a, b, c):
    fa = RangeFeature("f", "x", lo=a[0], hi=a[1])
    fb = RangeFeature("f", "x", lo=b[0], hi=b[1])
    fc = RangeFeature("f", "x", lo=c[0], hi=c[1])
    if fa.restricts(fb) and fb.restricts(fc):
        assert fa.restricts(fc)


@given(bounds, bounds)
def test_restriction_accepts_subset_of_data(a, b):
    wide = RangeFeature("f", "x", lo=a[0], hi=a[1])
    narrow = RangeFeature("f", "x", lo=b[0], hi=b[1])
    if narrow.restricts(wide):
        for probe in (0.0, 25.0, 50.0, 75.0, 100.0):
            if narrow.satisfied({"x": probe}):
                assert wide.satisfied({"x": probe})


# ---------------------------------------------------------------------------
# WAL
# ---------------------------------------------------------------------------

wal_programs = st.lists(st.sampled_from(["append", "force", "crash"]),
                        max_size=30)


@given(wal_programs)
def test_wal_stable_prefix_property(program):
    wal = WriteAheadLog()
    all_appended: list[int] = []
    for op in program:
        if op == "append":
            record = wal.append(LogRecordKind.CHECKPOINT)
            all_appended.append(record.lsn)
        elif op == "force":
            wal.force()
        else:
            wal.crash()
    stable = [r.lsn for r in wal.stable_records()]
    # stable LSNs are an ordered subsequence-prefix of appended ones
    assert stable == sorted(stable)
    assert set(stable) <= set(all_appended)
    if stable:
        # prefix property: everything appended before the last stable
        # record that was not lost to an *earlier* crash is stable
        assert stable == [lsn for lsn in all_appended
                          if lsn <= stable[-1] and lsn in set(stable)]


# ---------------------------------------------------------------------------
# the federated commit
# ---------------------------------------------------------------------------

@st.composite
def federated_batches(draw):
    """A member count, each staged version's owning member and the
    members that are down before the batch commits."""
    members = draw(st.integers(1, 4))
    owners = draw(st.lists(st.integers(0, members - 1), min_size=1,
                           max_size=6))
    down = draw(st.sets(st.integers(0, members - 1)))
    return members, owners, down


@given(federated_batches())
def test_a_federated_batch_commits_iff_no_owner_is_down(batch):
    from repro.repository.federation import FederatedRepository
    from repro.repository.repository import DesignDataRepository
    from repro.repository.schema import (
        AttributeDef,
        AttributeKind,
        DesignObjectType,
    )
    from repro.util.errors import StorageError
    from repro.util.ids import IdGenerator

    members, owners, down = batch
    ids = IdGenerator()
    names = [f"m{index}" for index in range(members)]
    federation = FederatedRepository(
        {name: DesignDataRepository(ids) for name in names})
    federation.register_dot(DesignObjectType("Cell", attributes=[
        AttributeDef("area", AttributeKind.FLOAT, required=False)]))
    for name in names:
        federation.assign(f"da-{name}", name)
        federation.create_graph(f"da-{name}")
    staged = [federation.stage_checkin(f"da-m{owner}", "Cell",
                                       {"area": float(index)}, (),
                                       0.0).dov_id
              for index, owner in enumerate(owners)]
    for index in sorted(down):
        federation.crash_member(names[index])
    repos = [federation.member(name) for name in names]
    forced = sum(repo.wal.forced_writes for repo in repos)
    log = federation.decision_log

    try:
        federation.commit_group(staged)
        committed = True
    except StorageError:
        committed = False

    assert committed == down.isdisjoint(owners)
    member_writes = sum(repo.wal.forced_writes for repo in repos) - forced
    owning = len(set(owners))
    if committed and owning > 1:
        assert member_writes == 2 * owning
        assert len(log.decisions()) == 1 == log.wal.forced_writes
    elif committed:
        assert member_writes == 1
        assert log.decisions() == [] and log.wal.forced_writes == 0
    else:
        assert log.decisions() == [] and log.wal.forced_writes == 0
        for index, repo in enumerate(repos):
            if index not in down:
                assert repo.store.staged_ids() == set()
        for index in sorted(down):
            federation.recover_member(names[index])
        for dov_id in staged:
            assert dov_id not in federation
            assert all(dov_id not in repo.store for repo in repos)
