from itertools import product
from typing import NamedTuple

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle
from protocheck import barrier, ring
from protocheck.barrier import (
    BarrierConfig,
    BARRIER_IN,
    BARRIER_OUT,
    BarrierProcessState,
    barrier_model,
)
from protocheck.ring import (
    UNSET,
    RingProcessState,
    RingStatus,
    insert_ack,
    new_rhs,
    req_insert,
)
from protocheck.state import (
    EmptyQueueError,
    Message,
    QueueOverflowError,
    canonical_encode,
    receive_message,
    replace_process,
    send_message,
    state_checker,
)


def B(ci=0, co=0, h=0, q=()):
    return BarrierProcessState(ci, co, h, tuple(q))


def sys_state(*procs):
    return procs


def check_once(state, capacity):
    """A one-shot check: a new checker from `state`, run on `state`."""
    state_checker(state, capacity)(state)


CAPACITY = 8


class TestMessage:
    def test_barrier_tokens_carry_nothing(self):
        assert BARRIER_IN.payload == ()
        assert BARRIER_OUT.payload == ()

    def test_payload_arity_per_kind(self):
        assert req_insert(2).payload == (2,)
        assert new_rhs(1).payload == (1,)
        assert insert_ack(0, 3).payload == (0, 3)

    @pytest.mark.parametrize(
        "kind,payload",
        [
            (barrier.MessageKind.BARRIER_IN, (1,)),
            (ring.MessageKind.REQ_INSERT, ()),
            (ring.MessageKind.REQ_INSERT, (1, 2)),
            (ring.MessageKind.INSERT_ACK, (1,)),
            (ring.MessageKind.NEW_RHS, (1, 2)),
        ],
    )
    def test_wrong_arity_rejected(self, kind, payload):
        with pytest.raises(ValueError):
            check_once(sys_state(B(q=[Message(kind, payload)])), CAPACITY)


class _QueueFirst(NamedTuple):
    queue: tuple = ()
    bit: int = 0

    def check(self, n):
        pass


class _NoDefault(NamedTuple):
    bit: int
    queue: tuple = ()

    def check(self, n):
        pass


class TestProcessStateInvariants:
    @pytest.mark.parametrize("bits", [(2, 0, 0), (1, 2, 0), (0, 0, 2)],
                             ids=["in", "out", "holding"])
    def test_barrier_fields_are_bits(self, bits):
        with pytest.raises(ValueError, match="fields are bits"):
            BarrierProcessState(*bits).check(1)

    def test_holding_requires_no_client_request(self):
        with pytest.raises(ValueError):
            BarrierProcessState(client_barrier_in=1, holding_barrier_in=1).check(1)

    def test_release_requires_request(self):
        with pytest.raises(ValueError):
            BarrierProcessState(client_barrier_out=1).check(1)

    @pytest.mark.parametrize("proc", [B(True, 0, 0), B(1, True, 0), B(0, 0, True)],
                             ids=["in", "out", "holding"])
    def test_barrier_bits_are_ints_not_bools(self, proc):
        # well formed with 1 for True; but True == 1 would merge visited keys
        check_once(sys_state(B(*(int(bit) for bit in proc[:3]))), CAPACITY)
        with pytest.raises(ValueError):
            check_once(sys_state(proc), CAPACITY)

    def test_outside_process_has_no_neighbors(self):
        with pytest.raises(ValueError):
            RingProcessState(status=RingStatus.OUTSIDE, lhs=0, rhs=0).check(1)
        RingProcessState(status=RingStatus.IN_RING, lhs=0, rhs=0).check(1)  # fine

    def test_mixed_protocol_variants_rejected(self):
        with pytest.raises(ValueError):
            check_once(sys_state(B(), RingProcessState()), CAPACITY)

    def test_process_count_is_pinned_by_the_initial_state(self):
        check = state_checker(sys_state(B(), B()), CAPACITY)
        with pytest.raises(ValueError, match="process count"):
            check(sys_state(B()))

    def test_queue_is_the_last_field(self):
        # state edits rebuild a process as its other fields plus a new queue
        with pytest.raises(ValueError, match="last field"):
            check_once(sys_state(_QueueFirst()), CAPACITY)

    def test_every_field_has_a_default(self):
        # the defaults pin each field's type
        with pytest.raises(ValueError, match="every field of _NoDefault needs a default"):
            check_once(sys_state(_NoDefault(0)), CAPACITY)


class TestSend:
    def test_appends_to_target_tail_only(self):
        s = sys_state(B(), B(), B())
        out = send_message(s, 1, BARRIER_IN)
        assert out[1].queue == (BARRIER_IN,)
        assert out[0].queue == ()
        assert out[2].queue == ()

    def test_delivery_into_release_round(self):
        # delivering barrier_out to process 0 of (1,0,0,[]) (1,1,0,[]) (1,1,0,[])
        s = sys_state(B(1, 0, 0), B(1, 1, 0), B(1, 1, 0))
        out = send_message(s, 0, BARRIER_OUT)
        assert out == sys_state(B(1, 0, 0, [BARRIER_OUT]), B(1, 1, 0), B(1, 1, 0))

    def test_send_is_pure(self):
        s = sys_state(B(), B())
        send_message(s, 0, BARRIER_IN)
        assert s == sys_state(B(), B())

    def test_full_queue_overflows(self):
        # a queue at the bound is well formed; a send past it goes through,
        # and the state it builds fails the bound check
        s = sys_state(B(), B(q=[BARRIER_IN, BARRIER_OUT]))
        check_once(s, 2)
        with pytest.raises(QueueOverflowError):
            check_once(send_message(s, 1, BARRIER_IN), 2)

    def test_target_out_of_range(self):
        s = sys_state(B(), B())
        with pytest.raises(ValueError):
            send_message(s, 2, BARRIER_IN)

    def test_payload_id_out_of_range(self):
        s = sys_state(RingProcessState(), RingProcessState())
        check_once(send_message(s, 0, req_insert(1)), CAPACITY)
        for rank in (2, -1):
            with pytest.raises(ValueError):
                check_once(send_message(s, 0, req_insert(rank)), CAPACITY)

    @pytest.mark.parametrize("rank", [True, False, 1.0])
    def test_payload_id_is_an_int_never_a_bool(self, rank):
        # req(True) equals req(1), so the two would share one visited key
        s = sys_state(RingProcessState(), RingProcessState())
        with pytest.raises(ValueError, match="not an int"):
            check_once(send_message(s, 0, req_insert(rank)), CAPACITY)


class TestReceive:
    def test_removes_head_only(self):
        s = sys_state(B(1, 0, 0, [BARRIER_OUT]), B(1, 1, 0), B(1, 1, 0))
        out = receive_message(s, 0)
        assert out == sys_state(B(1, 0, 0), B(1, 1, 0), B(1, 1, 0))

    def test_fifo_remainder_preserved(self):
        a, b, c = req_insert(0), new_rhs(1), insert_ack(0, 1)
        s = sys_state(B(q=[a, b, c]), B())
        out = receive_message(s, 0)
        assert out[0].queue == (b, c)

    def test_empty_queue_is_an_error(self):
        s = sys_state(B())
        with pytest.raises(EmptyQueueError):
            receive_message(s, 0)

    def test_receive_is_pure(self):
        s = sys_state(B(q=[BARRIER_IN]))
        receive_message(s, 0)
        assert s == sys_state(B(q=[BARRIER_IN]))


_messages = st.one_of(
    st.just(BARRIER_IN),
    st.just(BARRIER_OUT),
    st.builds(req_insert, st.integers(0, 1)),
    st.builds(new_rhs, st.integers(0, 1)),
    st.builds(insert_ack, st.integers(0, 1), st.integers(0, 1)),
)


@given(st.lists(_messages, max_size=12))
def test_fifo_property(msgs):
    # whatever is sent to one process comes back out in send order
    s = sys_state(B(), B())
    for m in msgs:
        s = send_message(s, 0, m)
    received = []
    while s[0].queue:
        received.append(s[0].queue[0])
        s = receive_message(s, 0)
    assert received == msgs


class TestCanonicalEncode:
    def test_the_state_is_its_own_key(self):
        s = sys_state(B(1, 0, 0, [BARRIER_IN]), B())
        assert canonical_encode(s) is s

    def test_deterministic(self):
        s = sys_state(B(1, 0, 0, [BARRIER_IN]), B())
        assert canonical_encode(s) == canonical_encode(s)

    def test_stable_across_rebuilds(self):
        a = sys_state(B(1, 1, 0), B(0, 0, 1, [BARRIER_OUT]))
        b = sys_state(B(1, 1, 0), B(0, 0, 1, [BARRIER_OUT]))
        assert canonical_encode(a) == canonical_encode(b)

    def test_distinguishes_queue_order(self):
        a = sys_state(B(q=[BARRIER_IN, BARRIER_OUT]))
        b = sys_state(B(q=[BARRIER_OUT, BARRIER_IN]))
        assert canonical_encode(a) != canonical_encode(b)

    def test_distinguishes_payloads(self):
        a = sys_state(RingProcessState(), RingProcessState())
        assert canonical_encode(send_message(a, 0, req_insert(0))) != canonical_encode(
            send_message(a, 0, req_insert(1))
        )

    def test_injective_on_reachable_barrier_n2(self):
        # exhaustive: every pair of structurally distinct reachable states
        # must encode differently (9 reachable states, enumerated brute force)
        states = oracle.enumerate_reachable(barrier_model(BarrierConfig(size=2)))
        assert len(states) == 9
        encodings = [canonical_encode(s) for s in states]
        assert len(set(encodings)) == len(states)

    def test_ring_neighbor_sentinel_encodes_distinctly(self):
        out = RingProcessState()
        ring0 = RingProcessState(status=RingStatus.IN_RING, lhs=0, rhs=0)
        assert canonical_encode(sys_state(out)) != canonical_encode(sys_state(ring0))
        assert UNSET not in range(0, 8)

    def test_ring_statuses_encode_distinctly(self):
        # a joiner awaiting its ack and an unlinked ring member differ
        inserting = sys_state(RingProcessState(RingStatus.INSERTING))
        in_ring = sys_state(RingProcessState(RingStatus.IN_RING))
        assert inserting != in_ring
        assert canonical_encode(inserting) != canonical_encode(in_ring)


def _constructible(cls, field_values):
    """The instances of `cls` built from `field_values` that pass `check(3)`,
    3 being the most processes `_system_states` draws."""
    out = []
    for values in field_values:
        proc = cls(*values)
        try:
            proc.check(3)
        except ValueError:
            continue
        out.append(proc)
    return out


def _system_states(procs):
    proc = st.builds(lambda p, q: p._replace(queue=tuple(q)),
                     st.sampled_from(procs), st.lists(_messages, max_size=3))
    return st.lists(proc, min_size=1, max_size=3).map(lambda ps: sys_state(*ps))


_PROCESS_POOLS = (
    _constructible(BarrierProcessState, product((0, 1), repeat=3)),
    _constructible(RingProcessState, product(RingStatus, (UNSET, 0, 1), (UNSET, 0, 1))),
)


@given(st.data())
def test_key_is_injective_on_constructible_states(data):
    pool = data.draw(st.sampled_from(_PROCESS_POOLS))
    states = data.draw(st.lists(_system_states(pool), min_size=1, max_size=4))
    # besides the drawn states, every state one process edit away from the first
    first = states[0]
    for pid, proc in enumerate(first):
        states += [replace_process(first, pid, p._replace(queue=proc.queue)) for p in pool]
    keys = [canonical_encode(s) for s in states]
    for a, key_a in zip(states, keys):
        for b, key_b in zip(states, keys):
            assert (key_a == key_b) == (a == b)


# Processes as a rule might build them, well formed or not: bits that are
# bools, every status and neighbor, any message kind with any payload (wrong
# arities, ids out of range) and queues up to one message over the bound.
# Half the draws come from the well-formed pools, so that a well-formed edit
# often precedes an ill-formed one.
_EDIT_POOLS = (
    [BarrierProcessState(*bits) for bits in product((0, 1, False, True), repeat=3)],
    [RingProcessState(*v) for v in product(RingStatus, (UNSET, 0, 1, 3), (UNSET, 0, 1))],
)
_any_messages = st.one_of(_messages, st.builds(
    Message,
    st.sampled_from(list(barrier.MessageKind) + list(ring.MessageKind)),
    st.lists(st.integers(-1, 3), max_size=3).map(tuple),
))


def _outcome(check, state):
    """The type of the error `check(state)` raises, or None."""
    try:
        check(state)
    except (ValueError, QueueOverflowError) as err:
        return type(err)
    return None


@settings(max_examples=300)
@given(st.data())
def test_a_warm_checker_agrees_with_a_fresh_one(data):
    # a checker that has passed the parent skips the processes it shares
    capacity = 3
    which = data.draw(st.sampled_from((0, 1)))
    parent = data.draw(_system_states(_PROCESS_POOLS[which]))
    warm = state_checker(parent, capacity)
    assume(_outcome(warm, parent) is None)
    succ = list(parent)
    edited = data.draw(st.sets(st.integers(0, len(parent) - 1), min_size=1, max_size=2))
    for pid in edited:
        proc = data.draw(st.sampled_from(_PROCESS_POOLS[which])
                         | st.sampled_from(_EDIT_POOLS[which]))
        queue = data.draw(st.lists(_any_messages, max_size=capacity + 1))
        succ[pid] = proc._make(proc[:-1] + (tuple(queue),))
    succ = tuple(succ)
    assert _outcome(warm, succ) is _outcome(state_checker(parent, capacity), succ)
