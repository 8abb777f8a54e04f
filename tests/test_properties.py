"""Property-based tests (hypothesis) on core data structures.

Invariants covered:

* shape-function staircases: pruning keeps a minimal antichain that
  still dominates every input shape;
* derivation graphs: ancestor/descendant duality, acyclicity;
* the lock manager: scope-of is consistent with holders, release
  undoes acquire;
* script cursors: replaying a logged history reproduces the cursor
  state exactly (the DM's forward-recovery invariant);
* range-feature refinement is a partial order (reflexive, transitive,
  antisymmetric up to equal bounds);
* the WAL: the stable prefix after crash is a prefix of the pre-crash
  record sequence;
* 2PC: the decision is COMMIT iff every participant voted YES (or
  read-only).
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
from repro.te.locks import LockManager, LockMode
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


def descendants(graph, dov_id):
    """Transitive successors, walked down ``children_of``."""
    seen, stack = set(), list(graph.children_of(dov_id))
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(graph.children_of(node))
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
        assert graph.children_of(leaf.dov_id) == []


# ---------------------------------------------------------------------------
# lock manager
# ---------------------------------------------------------------------------

lock_ops = st.lists(st.tuples(
    st.sampled_from(["acquire", "release"]),
    st.integers(min_value=0, max_value=4),   # resource index
    st.integers(min_value=0, max_value=3),   # holder index
    st.sampled_from([LockMode.SHORT_READ, LockMode.DERIVATION,
                     LockMode.SCOPE]),
), max_size=40)


@given(lock_ops)
def test_lock_table_consistency(operations):
    locks = LockManager(usage_allows=lambda *a: False)
    for op, res_i, holder_i, mode in operations:
        resource, holder = f"r{res_i}", f"h{holder_i}"
        if op == "acquire":
            locks.try_acquire(resource, holder, mode)
        else:
            locks.release(resource, holder, mode)
    # scope_of must agree with holders() for every DA
    for holder_i in range(4):
        holder = f"h{holder_i}"
        via_scope = locks.scope_of(holder)
        via_holders = {f"r{r}" for r in range(5)
                       if locks.holds(f"r{r}", holder, LockMode.SCOPE)}
        assert via_scope == via_holders


@given(lock_ops)
def test_derivation_locks_exclusive(operations):
    locks = LockManager(usage_allows=lambda *a: False)
    for op, res_i, holder_i, mode in operations:
        resource, holder = f"r{res_i}", f"h{holder_i}"
        if op == "acquire":
            locks.try_acquire(resource, holder, mode)
        else:
            locks.release(resource, holder, mode)
        for r in range(5):
            deriv = locks.holders(f"r{r}", LockMode.DERIVATION)
            assert len({g.holder for g in deriv}) <= 1


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
# 2PC decision correctness
# ---------------------------------------------------------------------------

@given(st.lists(st.sampled_from(["yes", "no", "read_only"]),
                min_size=1, max_size=5))
def test_2pc_decision_matches_votes(vote_names):
    from repro.net.network import Network, NodeKind
    from repro.net.two_phase_commit import (
        TwoPhaseCoordinator,
        Vote,
    )

    class P:
        def __init__(self, node_id, vote):
            self.node_id = node_id
            self.vote = vote

        def prepare(self, txn):
            return self.vote

        def commit(self, txn):
            pass

        def abort(self, txn):
            pass

    network = Network()
    network.add_node("coord", NodeKind.WORKSTATION)
    participants = []
    for i, name in enumerate(vote_names):
        network.add_node(f"p{i}", NodeKind.SERVER)
        participants.append(P(f"p{i}", Vote(name)))
    coordinator = TwoPhaseCoordinator(network, "coord")
    outcome = coordinator.execute("t", participants)
    should_commit = all(v in ("yes", "read_only") for v in vote_names)
    assert outcome.committed == should_commit
