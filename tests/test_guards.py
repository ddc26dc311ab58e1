"""Every guard and invariant against a plain reference predicate.

Guards and invariants are written for speed (see `engine.TransitionRule`),
and `tests/oracle.py` calls the model's own guards, so a rewrite that flips
a truth value would go unseen there. The predicates below restate each body
plainly. The reachable states are walked through these predicates and each
rule's uncached step, never through the guards under test, and at every
state and pid each guard and invariant must return a `bool` equal to its
predicate's.
"""

from collections import deque

import pytest

import oracle
from protocheck.barrier import (LEADER_FIRST, LEADER_LAST, RELEASE_ON_BARRIER_IN,
                                BarrierConfig, MessageKind as BarrierKind, barrier_model)
from protocheck.ring import (ORDERED, UNORDERED, MessageKind as RingKind, RingConfig,
                             RingStatus, ring_model)


def _head_is(proc, kind):
    return len(proc.queue) > 0 and proc.queue[0].kind is kind


def barrier_reference(cfg):
    guards = {
        "client_request": lambda s, pid: s[pid].client_barrier_in == 0,
        "barrier_in_nonleader":
            lambda s, pid: pid != 0 and _head_is(s[pid], BarrierKind.BARRIER_IN),
        "barrier_in_leader":
            lambda s, pid: pid == 0 and _head_is(s[pid], BarrierKind.BARRIER_IN),
        "barrier_out": lambda s, pid: _head_is(s[pid], BarrierKind.BARRIER_OUT),
    }

    def invariant(s):
        for p in s:
            if p.client_barrier_out:
                return all(q.client_barrier_in for q in s)
        return True

    return guards, invariant


def ring_reference(cfg):
    def begin_insert(s, pid):
        if s[pid].status is not RingStatus.OUTSIDE:
            return False
        if cfg.variant == ORDERED:
            for i in range(pid):
                if i != cfg.entry and s[i].status is not RingStatus.IN_RING:
                    return False
        return True

    guards = {
        "begin_insert": begin_insert,
        "handle_req_insert":
            lambda s, pid: pid == cfg.entry and _head_is(s[pid], RingKind.REQ_INSERT),
        "handle_new_rhs": lambda s, pid: _head_is(s[pid], RingKind.NEW_RHS),
        "handle_insert_ack": lambda s, pid: (s[pid].status is RingStatus.INSERTING
                                             and _head_is(s[pid], RingKind.INSERT_ACK)),
    }

    def invariant(s):
        return not any(m.kind is RingKind.REQ_INSERT
                       for pid, p in enumerate(s) if pid != cfg.entry for m in p.queue)

    return guards, invariant


def _configs():
    for n in range(1, 6):
        for variant in (LEADER_LAST, LEADER_FIRST):
            for mutation in (None, RELEASE_ON_BARRIER_IN):
                cfg = BarrierConfig(n=n, variant=variant, mutation=mutation)
                yield f"barrier-{variant}-{mutation}-{n}", barrier_model, barrier_reference, cfg
    for n in range(1, 5):
        for variant in (ORDERED, UNORDERED):
            for entry in sorted({0, n - 1}):
                cfg = RingConfig(n=n, variant=variant, entry=entry)
                yield f"ring-{variant}-entry{entry}-{n}", ring_model, ring_reference, cfg


CASES = list(_configs())


@pytest.mark.parametrize("build,reference,cfg", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_guards_and_invariant_match_their_reference(build, reference, cfg):
    model = build(cfg)
    guards, invariant = reference(cfg)
    assert [rule.name for rule in model.rules] == list(guards)
    seen = {model.initial_state}
    todo = deque(seen)
    while todo:
        state = todo.popleft()
        verdict = model.invariant(state)
        assert type(verdict) is bool and verdict == invariant(state), state
        for rule in model.rules:
            for pid in range(len(state)):
                expected = guards[rule.name](state, pid)
                enabled = rule.enabled(state, pid)
                assert type(enabled) is bool and enabled == expected, (rule.name, pid, state)
                if expected:
                    succ = oracle.apply_step(rule, state, pid)
                    if succ not in seen:
                        seen.add(succ)
                        todo.append(succ)
    assert len(seen) > 1 or cfg.n == 1
