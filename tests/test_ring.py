import itertools
import math

import pytest

import oracle
from protocheck.engine import explore, reconstruct_trace
from protocheck.ring import (
    ENTRY,
    ORDERED,
    RingConfig,
    MessageKind,
    RingProcessState,
    RingStatus,
    UNORDERED,
    insert_ack,
    insert_ack_enabled,
    new_rhs,
    req_insert,
    ring_initial_state,
    ring_model,
    ring_postcondition,
)
from protocheck.state import state_checker

OUT = RingStatus.OUTSIDE
INS = RingStatus.INSERTING
RING = RingStatus.IN_RING


def R(status=OUT, lhs=-1, rhs=-1, q=()):
    return RingProcessState(status, lhs, rhs, tuple(q))


def fire(rule, state, pid):
    """`rule` applied at `pid` in a model of `state`'s size."""
    return ring_model(RingConfig(size=len(state))).rule_named(rule).apply(state, pid)


def test_config_validation():
    # the default first; `test_cli.py` checks what every registered config refuses
    assert RingConfig.VARIANTS == (ORDERED, UNORDERED)
    assert RingConfig.MUTATIONS == ()


def test_config_takes_no_entry():
    # the entry is the constant ENTRY: asking for one fails loudly
    with pytest.raises(TypeError, match="entry"):
        RingConfig(size=3, entry=ENTRY)


@pytest.mark.parametrize("lhs,rhs", [(99, 0), (0, -5), (2, 1), (1, -2)])
def test_neighbors_are_pids_or_unset(lhs, rhs):
    # well typed, but naming a process that does not exist among N=2
    with pytest.raises(ValueError, match="ints"):
        R(RING, lhs, rhs).check(2)


def test_the_state_checker_range_checks_neighbors():
    state = (R(RING, 99, 0), R(RING, 0, -5))
    with pytest.raises(ValueError, match=r"ints in \[0, 2\)"):
        state_checker(state, 5)
    state_checker((R(RING, 0, 0), R()), 5)  # the outsider's neighbors are UNSET


class TestInitialState:
    def test_singleton_is_already_a_valid_ring(self):
        cfg = RingConfig(size=1)
        state = ring_initial_state(cfg)
        assert state == (R(RING, 0, 0),)
        assert ring_postcondition(state)
        result = explore(ring_model(cfg))
        assert result.verdict.value == "verified"
        assert result.stats.states_stored == 1

    def test_entry_self_looped_others_outside(self):
        state = ring_initial_state(RingConfig(size=3))
        assert state == (R(RING, 0, 0), R(), R())


def guard(rule, **options):
    """The `enabled_at` of `rule` (guard, then gate) in a ring model built
    with `options`."""
    return ring_model(RingConfig(**options)).rule_named(rule).enabled_at


class TestBeginInsert:
    def test_unordered_any_outsider_may_start(self):
        state = ring_initial_state(RingConfig(size=3, variant=UNORDERED))
        enabled = guard("begin_insert", size=3, variant=UNORDERED)
        assert [pid for pid in range(3) if enabled(state, pid)] == [1, 2]

    def test_ordered_only_the_lowest_waiting_rank(self):
        state = ring_initial_state(RingConfig(size=3, variant=ORDERED))
        enabled = guard("begin_insert", size=3, variant=ORDERED)
        assert [pid for pid in range(3) if enabled(state, pid)] == [1]

    def test_marks_joiner_and_asks_the_entry(self):
        state = ring_initial_state(RingConfig(size=3))
        out = fire("begin_insert", state, 1)
        assert out[1].status is INS
        assert out[0].queue == (req_insert(1),)


@pytest.mark.parametrize("pid", range(4))
def test_ordered_gate_waits_for_every_lower_rank_but_the_entry(pid):
    # every status assignment of N=4: the gate reads only ranks strictly
    # between the entry and `pid`
    gate = ring_model(RingConfig(size=4, variant=ORDERED)).rule_named("begin_insert").gate
    for statuses in itertools.product(RingStatus, repeat=4):
        state = tuple(R(status) for status in statuses)
        lower = [statuses[i] for i in range(pid) if i != ENTRY]
        assert gate(state, pid) == all(status is RING for status in lower)


class TestHandleReqInsert:
    def test_singleton_splice(self):
        # entry alone in the ring: it plays both the left and the right
        # roles, so the repoint message goes to its own queue
        state = (R(RING, 0, 0, [req_insert(1)]), R(INS))
        out = fire("handle_req_insert", state, 0)
        assert out[0] == R(RING, 1, 0, [new_rhs(1)])
        assert out[1] == R(INS, q=[insert_ack(0, 0)])

    def test_second_splice_targets_old_left_neighbor(self):
        # ring of 0 and 1 settled; 2 asks; hand-traced expected state
        state = (R(RING, 1, 1, [req_insert(2)]), R(RING, 0, 0), R(INS))
        out = fire("handle_req_insert", state, 0)
        assert out[0] == R(RING, 2, 1)
        assert out[1] == R(RING, 0, 0, [new_rhs(2)])
        assert out[2] == R(INS, q=[insert_ack(1, 0)])

    def test_guard_refuses_non_entry_processes(self):
        state = (R(RING, 0, 0), R(INS, q=[req_insert(2)]), R(INS))
        assert not guard("handle_req_insert", size=3)(state, 1)


class TestHandleNewRhs:
    def test_repoints_right_neighbor(self):
        state = (R(RING, 1, 0, [new_rhs(1)]), R(INS, q=[insert_ack(0, 0)]))
        out = fire("handle_new_rhs", state, 0)
        assert out[0] == R(RING, 1, 1)

    def test_only_the_head_is_handled(self):
        state = (R(RING, 1, 1, [new_rhs(2), req_insert(1)]), R(), R())
        out = fire("handle_new_rhs", state, 0)
        assert out[0].rhs == 2
        assert out[0].queue[0] == req_insert(1)

    def test_old_link_dropped_by_overwrite(self):
        state = (R(RING, 0, 1, [new_rhs(2)]), R(RING, 0, 0), R(INS))
        out = fire("handle_new_rhs", state, 0)
        assert out[0].rhs == 2  # previous value gone


class TestHandleInsertAck:
    def test_joiner_adopts_neighbors_and_joins(self):
        state = (R(RING, 1, 0, [new_rhs(1)]), R(INS, q=[insert_ack(0, 0)]))
        out = fire("handle_insert_ack", state, 1)
        assert out[1] == R(RING, 0, 0)

    def test_second_joiner(self):
        state = (R(RING, 2, 1), R(RING, 0, 0, [new_rhs(2)]), R(INS, q=[insert_ack(1, 0)]))
        out = fire("handle_insert_ack", state, 2)
        assert out[2] == R(RING, 1, 0)

    def test_guard_requires_inserting_status(self):
        state = (R(RING, 0, 0, [insert_ack(0, 0)]), R())
        assert not insert_ack_enabled(state[0], 0)


class TestPostcondition:
    def test_singleton_self_loop(self):
        assert ring_postcondition((R(RING, 0, 0),))

    def test_proper_three_ring(self):
        state = (R(RING, 2, 1), R(RING, 0, 2), R(RING, 1, 0))
        assert ring_postcondition(state)

    def test_two_disjoint_cycles_fail(self):
        # consistent neighbor pointers, but two components instead of one
        state = (R(RING, 1, 1), R(RING, 0, 0), R(RING, 3, 3), R(RING, 2, 2))
        assert not ring_postcondition(state)

    def test_pending_message_fails(self):
        state = (R(RING, 1, 1, [new_rhs(1)]), R(RING, 0, 0))
        assert not ring_postcondition(state)

    def test_inconsistent_neighbors_fail(self):
        state = (R(RING, 1, 1), R(RING, 1, 0))
        assert not ring_postcondition(state)

    def test_unset_left_neighbor_fails(self):
        # every rhs is a pid, but pid 1's right-hand side points back at no one
        state = (R(RING, -1, 1), R(RING, 0, 0))
        assert not ring_postcondition(state)


# stored-state counts frozen from the brute-force enumerator
ORDERED_STORED = {2: 6, 3: 12, 4: 22}
UNORDERED_STORED = {2: 6, 3: 49, 4: 508}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_ordered_single_final_topology(n):
    result = explore(ring_model(RingConfig(size=n, variant=ORDERED)))
    assert result.verdict.value == "verified"
    assert len(result.terminal_states) == 1
    if n in ORDERED_STORED:
        assert result.stats.states_stored == ORDERED_STORED[n]
    terminal = result.states[result.terminal_states[0]]
    # rank order around the ring: 0 -> 1 -> ... -> n-1 -> 0
    assert [terminal[pid].rhs for pid in range(n)] == [
        (pid + 1) % n for pid in range(n)
    ]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_unordered_every_topology_reachable(n):
    result = explore(ring_model(RingConfig(size=n, variant=UNORDERED)))
    assert result.verdict.value == "verified"
    assert result.stats.states_stored == UNORDERED_STORED[n]
    assert len(result.terminal_states) == math.factorial(n - 1)
    got = {result.states[tid] for tid in result.terminal_states}
    assert got == set(oracle.expected_ring_terminals(n))


@pytest.mark.parametrize("variant", [ORDERED, UNORDERED])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_all_terminals_are_valid_rings(n, variant):
    result = explore(ring_model(RingConfig(size=n, variant=variant)))
    assert result.verdict.value == "verified"
    for tid in result.terminal_states:
        assert ring_postcondition(result.states[tid])


def test_join_requests_only_ever_at_the_entry():
    for n in (3, 4):
        model = ring_model(RingConfig(size=n, variant=UNORDERED))
        for state in oracle.enumerate_reachable(model):
            assert model.invariant(state)


@pytest.mark.parametrize("pid", range(3))
def test_invariant_refuses_a_join_request_queued_outside_the_entry(pid):
    invariant = ring_model(RingConfig(size=3, variant=UNORDERED)).invariant
    state = [R(RING, 0, 0), R(INS), R(INS)]
    state[pid] = state[pid]._replace(queue=(new_rhs(1), req_insert(2)))
    assert invariant(tuple(state)) is (pid == ENTRY)


def test_acks_only_ever_at_inserting_processes():
    model = ring_model(RingConfig(size=4, variant=UNORDERED))
    for state in oracle.enumerate_reachable(model):
        for proc in state:
            if any(m.kind is MessageKind.INSERT_ACK for m in proc.queue):
                assert proc.status is INS


def test_neighbor_consistency_is_transient_not_invariant():
    # mid-handshake the entry already points at the joiner while the joiner
    # still points nowhere; only terminal states must be consistent
    result = explore(ring_model(RingConfig(size=2)))
    def consistent(state):
        return all(
            p.rhs != -1 and state[p.rhs].lhs == pid
            for pid, p in enumerate(state)
        )
    assert any(not consistent(s) for s in result.states)
    for tid in result.terminal_states:
        assert consistent(result.states[tid])


def test_status_monotone_along_traces():
    rank = {OUT: 0, INS: 1, RING: 2}
    result = explore(ring_model(RingConfig(size=3, variant=UNORDERED)))
    for sid in range(len(result.states)):
        trace = reconstruct_trace(result, sid)
        for before, after in zip(trace, trace[1:]):
            for p, q in zip(before.state, after.state):
                assert rank[q.status] >= rank[p.status]
