"""Independent brute-force machinery used to cross-check the search engine.

Everything here deliberately avoids the engine and the rules' memoized
applies, stepping each rule's local step itself, through `__wrapped__`, so
it walks any protocol whose rules are memoized steps: reachability is naive
recursion over a linear-scan visited list, shortest depths come from
relaxation to a fixed point, minimal violation depths from exhaustive path
enumeration, and expected ring topologies from direct combinatorial
construction. Slow on purpose; only run at desk scale.
"""

from enum import Enum
from itertools import permutations

from protocheck.ring import RingProcessState, RingStatus


def _image(name, value):
    """A field's plain image: the queue as (kind value, payload) pairs, an
    Enum member by value, anything else as is."""
    if name == "queue":
        return tuple((m.kind.value, m.payload) for m in value)
    return value.value if isinstance(value, Enum) else value


def snapshot(state):
    """Plain-tuple image of a state; injective with respect to structure.
    Each process is its class name, then each field's image in field order;
    no protocol is named, so any process NamedTuple with a `queue` field, in
    any position, has an image."""
    return tuple((type(p).__name__, *map(_image, p._fields, p)) for p in state)


def apply_step(rule, state, pid):
    """The successor from the rule's own uncached local step, never its
    memoized `apply`: the new process at `pid`, then each message sent
    appended to its target's `queue` field, the others kept as they are."""
    new_proc, sends = rule.apply.__wrapped__(state[pid], pid)
    procs = list(state)
    procs[pid] = new_proc
    for to, message in sends:
        assert 0 <= to < len(procs), to
        target = procs[to]
        procs[to] = target._replace(queue=target.queue + (message,))
    return tuple(procs)


def successors(model, state):
    out = []
    for rule in model.rules:
        for pid in range(len(state)):
            if rule.enabled_at(state, pid):  # the rule's own guard, then its gate
                out.append((rule.name, pid, apply_step(rule, state, pid)))
    return out


def over_capacity(model, state):
    """Whether some queue of `state` holds more than the model's queue capacity."""
    return any(len(p.queue) > model.queue_capacity for p in state)


def witnesses(model, state, verdict):
    """Whether `state`, the last of a trace, witnesses `verdict`: an invariant
    violation is the state itself, a postcondition violation a terminal
    state, and a queue overflow a state with a move to a state in which some
    queue holds more than the model's queue capacity."""
    if verdict == "invariant_violated":
        return not model.invariant(state)
    succs = successors(model, state)
    if verdict == "postcondition_violated":
        return not succs and not model.terminal_postcondition(state)
    assert verdict == "queue_overflow", verdict
    return any(over_capacity(model, succ) for _, _, succ in succs)


def enumerate_reachable(model, limit=None):
    """All reachable states, by naive recursion with a linear-scan visited list,
    or None once more than `limit` are found, if a `limit` is given. A state
    over the queue capacity is an overflow, not a state: it is neither kept
    nor expanded. The recursion is as deep as the longest path of first
    visits, which stays far below Python's default limit: 33 frames at
    barrier N=10."""
    states = []
    snaps = []

    def seen(snap):
        for other in snaps:
            if other == snap:
                return True
        return False

    def visit(state):
        snap = snapshot(state)
        if over_capacity(model, state) or seen(snap):
            return
        if limit is not None and len(snaps) == limit:
            raise _TooMany
        snaps.append(snap)
        states.append(state)
        for _, _, succ in successors(model, state):
            visit(succ)

    try:
        visit(model.initial_state)
    except _TooMany:
        return None
    return states


class _TooMany(Exception):
    """More reachable states than `enumerate_reachable`'s limit."""


def terminal_states(model, states=None):
    states = enumerate_reachable(model) if states is None else states
    return [s for s in states if not successors(model, s)]


def depth_map(model):
    """(states, depths): shortest distance from the initial state, computed by
    relaxing all edges until nothing changes."""
    states = enumerate_reachable(model)
    snaps = [snapshot(s) for s in states]

    def index_of(state):
        snap = snapshot(state)
        for i, other in enumerate(snaps):
            if other == snap:
                return i
        raise AssertionError("successor outside the enumerated set")

    inf = float("inf")
    depths = [inf] * len(states)
    depths[index_of(model.initial_state)] = 0
    changed = True
    while changed:
        changed = False
        for i, state in enumerate(states):
            if depths[i] is inf:
                continue
            for _, _, succ in successors(model, state):
                if over_capacity(model, succ):
                    continue
                j = index_of(succ)
                if depths[i] + 1 < depths[j]:
                    depths[j] = depths[i] + 1
                    changed = True
    return states, depths


def min_violation_depth(model, max_depth):
    """Smallest number of rule applications reaching an invariant-violating
    state, by exhaustive enumeration of paths (no deduplication), or None."""

    def violates_after(state, budget):
        if budget == 0:
            return not model.invariant(state)
        return any(violates_after(succ, budget - 1)
                   for _, _, succ in successors(model, state))

    for depth in range(max_depth + 1):
        if violates_after(model.initial_state, depth):
            return depth
    return None


def expected_ring_terminals(n):
    """Every terminal topology the insertion protocol can produce.

    The final ring order equals the order the entry, process 0, processed
    the join requests: rhs(0) is the first joiner, each joiner points at the
    next, the last points back at 0. One topology per permutation of
    processes 1 to n-1, (n-1)! in total.
    """
    expected = []
    for perm in permutations(range(1, n)):
        order = [0, *perm]
        rhs = {order[i]: order[(i + 1) % n] for i in range(n)}
        lhs = {v: k for k, v in rhs.items()}
        procs = tuple(
            RingProcessState(status=RingStatus.IN_RING, lhs=lhs[pid], rhs=rhs[pid])
            for pid in range(n)
        )
        expected.append(procs)
    return expected
