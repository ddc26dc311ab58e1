"""Every guard, gate, invariant and postcondition against a plain reference
predicate.

`tests/oracle.py` calls the model's own guards, so a rewrite that flips a
truth value would go unseen there. The predicates below restate each body
plainly: a local one per guard, on the process and pid, and one on the
state per gate. The reachable states are walked through these predicates
and each rule's uncached step, never through the guards under test, and at
every state and pid each guard, each gate where its guard holds, the
invariant and the postcondition must return a `bool` equal to its
predicate's; the postcondition at every reachable state, not only the
terminal ones. The states are those of barrier N <= 5 in both variants and
under the seeded bug, and of ring N <= 4 in both variants.
"""

from collections import deque

import pytest

import oracle
from protocheck.barrier import BarrierConfig, MessageKind as BarrierKind
from protocheck.ring import ENTRY, ORDERED, MessageKind as RingKind, RingConfig, RingStatus
from test_engine import instances


def _head_is(proc, kind):
    return len(proc.queue) > 0 and proc.queue[0].kind is kind


def barrier_reference(cfg):
    guards = {
        "client_request": lambda p, pid: p.client_barrier_in == 0,
        "barrier_in_nonleader": lambda p, pid: pid != 0 and _head_is(p, BarrierKind.BARRIER_IN),
        "barrier_in_leader": lambda p, pid: pid == 0 and _head_is(p, BarrierKind.BARRIER_IN),
        "barrier_out": lambda p, pid: _head_is(p, BarrierKind.BARRIER_OUT),
    }

    def invariant(s):
        for p in s:
            if p.client_barrier_out:
                return all(q.client_barrier_in for q in s)
        return True

    def postcondition(s):
        for p in s:
            if p.client_barrier_out != 1 or p.holding_barrier_in != 0 or len(p.queue) > 0:
                return False
        return True

    return guards, {}, invariant, postcondition


def ring_reference(cfg):
    def in_rank_order(s, pid):
        for i in range(pid):
            if i != ENTRY and s[i].status is not RingStatus.IN_RING:
                return False
        return True

    guards = {
        "begin_insert": lambda p, pid: p.status is RingStatus.OUTSIDE,
        "handle_req_insert":
            lambda p, pid: pid == ENTRY and _head_is(p, RingKind.REQ_INSERT),
        "handle_new_rhs": lambda p, pid: _head_is(p, RingKind.NEW_RHS),
        "handle_insert_ack": lambda p, pid: (p.status is RingStatus.INSERTING
                                             and _head_is(p, RingKind.INSERT_ACK)),
    }
    gates = {"begin_insert": in_rank_order} if cfg.variant == ORDERED else {}

    def invariant(s):
        return not any(m.kind is RingKind.REQ_INSERT
                       for pid, p in enumerate(s) if pid != ENTRY for m in p.queue)

    def postcondition(s):
        n = len(s)
        if any(p.status is not RingStatus.IN_RING or p.queue for p in s):
            return False
        pids = list(range(n))
        if sorted(p.lhs for p in s) != pids or sorted(p.rhs for p in s) != pids:
            return False
        if any(s[s[pid].rhs].lhs != pid for pid in range(n)):
            return False
        # follow rhs from 0 until a pid repeats: a single cycle visits all n
        visited, pid = [], 0
        while pid not in visited:
            visited.append(pid)
            pid = s[pid].rhs
        return pid == 0 and len(visited) == n

    return guards, gates, invariant, postcondition


REFERENCES = {BarrierConfig: barrier_reference, RingConfig: ring_reference}


@pytest.mark.parametrize("cfg, model", instances(5, 4, mutations=True))
def test_guards_and_invariant_match_their_reference(cfg, model):
    guards, gates, invariant, postcondition = REFERENCES[type(cfg)](cfg)
    assert [rule.name for rule in model.rules] == list(guards)
    # only ring ordered's begin_insert reads other processes
    assert [rule.name for rule in model.rules if rule.gate is not None] == list(gates)
    seen = {model.initial_state}
    todo = deque(seen)
    while todo:
        state = todo.popleft()
        verdict = model.invariant(state)
        assert type(verdict) is bool and verdict == invariant(state), state
        verdict = model.terminal_postcondition(state)
        assert type(verdict) is bool and verdict == postcondition(state), state
        for rule in model.rules:
            for pid in range(len(state)):
                local = guards[rule.name](state[pid], pid)
                enabled = rule.enabled(state[pid], pid)
                assert type(enabled) is bool and enabled == local, (rule.name, pid, state)
                expected = local and (rule.name not in gates or gates[rule.name](state, pid))
                if local and rule.gate is not None:
                    gate = rule.gate(state, pid)
                    assert type(gate) is bool and gate == expected, (rule.name, pid, state)
                assert rule.enabled_at(state, pid) is expected, (rule.name, pid, state)
                if expected:
                    succ = oracle.apply_step(rule, state, pid)
                    if succ not in seen:
                        seen.add(succ)
                        todo.append(succ)
    assert len(seen) > 1 or cfg.size == 1
