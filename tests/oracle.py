"""Independent brute-force machinery used to cross-check the search engine.

Everything here deliberately avoids the engine: reachability is naive
recursion over a linear-scan visited list, shortest depths come from
relaxation to a fixed point, minimal violation depths from exhaustive path
enumeration, and expected ring topologies from direct combinatorial
construction. Slow on purpose; only run at desk scale.
"""

import sys
from itertools import permutations

from protocheck.barrier import BarrierProcessState
from protocheck.ring import RingProcessState, RingStatus

sys.setrecursionlimit(200_000)


def snapshot(state):
    """Plain-tuple image of a state; injective with respect to structure."""
    procs = []
    for p in state:
        queue = tuple((m.kind.value, m.payload) for m in p.queue)
        if isinstance(p, BarrierProcessState):
            procs.append(("b", p.client_barrier_in, p.client_barrier_out,
                          p.holding_barrier_in, queue))
        else:
            procs.append(("r", p.status.value, p.lhs, p.rhs, queue))
    return tuple(procs)


def successors(model, state):
    out = []
    for rule in model.rules:
        for pid in range(len(state)):
            if rule.enabled(state, pid):
                out.append((rule.name, pid, rule.apply(state, pid)))
    return out


def enumerate_reachable(model):
    """All reachable states, by naive recursion with a linear-scan visited list."""
    states = []
    snaps = []

    def seen(snap):
        for other in snaps:
            if other == snap:
                return True
        return False

    def visit(state):
        snap = snapshot(state)
        if seen(snap):
            return
        snaps.append(snap)
        states.append(state)
        for _, _, succ in successors(model, state):
            visit(succ)

    for init in model.initial_states:
        visit(init)
    return states


def terminal_states(model, states=None):
    states = enumerate_reachable(model) if states is None else states
    return [s for s in states if not successors(model, s)]


def depth_map(model):
    """(states, depths): shortest distance from an initial state, computed by
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
    for init in model.initial_states:
        depths[index_of(init)] = 0
    changed = True
    while changed:
        changed = False
        for i, state in enumerate(states):
            if depths[i] is inf:
                continue
            for _, _, succ in successors(model, state):
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
        if any(violates_after(init, depth) for init in model.initial_states):
            return depth
    return None


def expected_ring_terminals(n, entry=0):
    """Every terminal topology the insertion protocol can produce.

    The final ring order equals the order the entry processed the join
    requests: rhs(entry) is the first joiner, each joiner points at the next,
    the last points back at the entry. One topology per permutation of the
    non-entry processes, (n-1)! in total.
    """
    others = [pid for pid in range(n) if pid != entry]
    expected = []
    for perm in permutations(others):
        order = [entry, *perm]
        rhs = {order[i]: order[(i + 1) % n] for i in range(n)}
        lhs = {v: k for k, v in rhs.items()}
        procs = tuple(
            RingProcessState(status=RingStatus.IN_RING, lhs=lhs[pid], rhs=rhs[pid])
            for pid in range(n)
        )
        expected.append(procs)
    return expected
