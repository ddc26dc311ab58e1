"""Messages, queues, the process domain and the checks of a made process.

Message kinds are checked where they are declared, and a process type's
field defaults where a checker is built (`_DOMAIN`). The table of what is
ill formed makes each ill-formed process (a bad field, a queue over the
bound, a message of the wrong shape, arity or ids) or send target with each
maker that can make it: the initial state, a step's effect, a send and its
append, and a hand-written apply; each must raise its error type with its
whole message, naming the pid, and a memo must keep nothing that failed. The
twin table makes each value that equals one of another type (a `bool` or
`float` for an `int` in a barrier field, a ring neighbor or a queued or sent
payload id, and a plain tuple for a queued or sent message) in three ways: by
a memoized effect after its well-typed equal, so that its successor is
matched, by one before it, and by a hand-written apply beside a process
equal to it that already passed; each must fail naming the pid. The
visited-set key is checked injective on constructible states."""

import re
from collections import namedtuple
from enum import Enum
from itertools import product
from typing import NamedTuple, Optional

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from protocheck import barrier, ring
from protocheck.barrier import BARRIER_IN, BARRIER_OUT, BarrierProcessState
from protocheck.engine import ProtocolModel, TransitionRule, explore
from protocheck.ring import (
    UNSET,
    RingProcessState,
    RingStatus,
    insert_ack,
    new_rhs,
    req_insert,
)
from protocheck.state import (
    Message,
    MessageKindBase,
    QueueOverflowError,
    canonical_encode,
    checked_applies,
    memoized_apply,
    receive,
    state_checker,
)


def B(ci=0, co=0, h=0, q=()):
    return BarrierProcessState(ci, co, h, tuple(q))


def put(state, pid, new):
    """`state` with process `pid` replaced by `new`, by the search's apply."""
    return memoized_apply(lambda proc, _: (new, ()))(state, pid)


def send(state, to, message):
    """`state` after process 0 sends `message` to process `to`, by the
    search's apply and its memoized append."""
    return memoized_apply(lambda proc, _: (proc, ((to, message),)))(state, 0)


def queued(proc, *messages):
    """`proc` with `messages` at its queue's tail, built by hand, past the
    checks `memoized_apply` makes, for `state_checker` to judge."""
    return proc._replace(queue=proc.queue + messages)


CAPACITY = 8
# a code is written in traces and inside a DOT label's quotes, on one line, in print
_NOT_IN_CODES = '()[], "\\\n\t\x00\x1b\xad'


class TestMessage:
    def test_barrier_tokens_carry_nothing(self):
        assert BARRIER_IN.payload == ()
        assert BARRIER_OUT.payload == ()

    @pytest.mark.parametrize("members, named", [
        ({"A": ("", 0)}, "A: code ''"),
        ({"A": (7, 0)}, "A: code 7"),
        ({"A": (None, 0)}, "A: code None"),
        *[({"A": (f"a{c}b", 0)}, f"A: code {re.escape(repr(f'a{c}b'))}") for c in _NOT_IN_CODES],
        # a zero-width space, which `str.split` does not take for whitespace
        ({"A": ("\u200b", 0)}, f"A: code {re.escape(repr(chr(0x200b)))}"),
        ({"A": ("a", 0), "B": ("b", 1), "C": ("a", 2)}, "C: code 'a'"),
        ({"A": ("a", -1)}, "A: arity -1"),
        ({"A": ("a", True)}, "A: arity True"),
        ({"A": ("a", 1.0)}, "A: arity 1.0"),
        ({"A": ("a", "1")}, "A: arity '1'"),
    ], ids=["empty", "int", "none", *(f"holds-{c!r}" for c in _NOT_IN_CODES), "zero-width-space",
            "code-taken", "arity-negative", "arity-bool", "arity-float", "arity-str"])
    def test_a_kind_is_checked_when_it_is_declared(self, members, named):
        with pytest.raises(ValueError, match=named):
            Enum("Kinds", members, type=MessageKindBase)

    def test_payload_arity_per_kind(self):
        assert req_insert(2).payload == (2,)
        assert new_rhs(1).payload == (1,)
        assert insert_ack(0, 3).payload == (0, 3)


class _QueueFirst(NamedTuple):
    queue: tuple = ()
    bit: int = 0

    def check(self, n):
        pass


class _NoQueue(NamedTuple):
    bit: int = 0

    def check(self, n):
        pass


class _NoDefault(NamedTuple):
    bit: int
    queue: tuple = ()

    def check(self, n):
        pass


def _defaulting(**defaults):
    """A process of a new type `_Proc` whose fields, in order, default to `defaults`."""
    base = namedtuple("_Proc", defaults, defaults=tuple(defaults.values()))
    return type("_Proc", (base,), {"__slots__": (), "check": lambda self, n: None})()


# A process type and what `state_checker` says of it: None where it is taken.
# The defaults close the domain: each field holds exactly an int or an Enum
# member, the queue a tuple of messages, so equal states are the same.
_DOMAIN = {
    "missing": (_NoDefault(0), "_NoDefault.bit has no default"),
    "none": (_defaulting(x=None, queue=()), "_Proc.x defaults to None;"),
    "float": (_defaulting(x=0.0, queue=()), "_Proc.x defaults to 0.0;"),
    "bool": (_defaulting(x=False, queue=()), "_Proc.x defaults to False;"),
    "str": (_defaulting(x="", queue=()), "_Proc.x defaults to '';"),
    "tuple": (_defaulting(x=(), queue=()), "_Proc.x defaults to ();"),
    "frozenset": (_defaulting(x=frozenset(), queue=()), "_Proc.x defaults to frozenset();"),
    "queue-none": (_defaulting(x=0, queue=None), "_Proc.queue defaults to None;"),
    "int": (_defaulting(x=0, queue=()), None),
    "enum": (_defaulting(x=RingStatus.OUTSIDE, queue=()), None),
    # a member is written by its lower-case name: two alike would write alike
    "enum-names-alike": (_defaulting(x=Enum("Mode", "ON On").On, queue=()),
                         "_Proc.x: <Mode.ON: 1> and <Mode.On: 2> both write as 'on'"),
    # an alias is its member, and so is written by the member's name
    "enum-alias": (_defaulting(x=Enum("Mode", {"ON": 1, "on": 1}).on, queue=()), None),
}


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

    def test_outside_process_has_no_neighbors(self):
        with pytest.raises(ValueError):
            RingProcessState(status=RingStatus.OUTSIDE, lhs=0, rhs=0).check(1)
        RingProcessState(status=RingStatus.IN_RING, lhs=0, rhs=0).check(1)  # fine

    def test_mixed_protocol_variants_rejected(self):
        with pytest.raises(ValueError):
            state_checker((B(), RingProcessState()), CAPACITY)

    def test_process_count_is_pinned_by_the_initial_state(self):
        check = state_checker((B(), B()), CAPACITY)
        with pytest.raises(ValueError, match="process count"):
            check((B(),))

    def test_a_process_type_without_a_queue_field_is_refused(self):
        # a send replaces a process's `queue` field, wherever it is
        with pytest.raises(ValueError, match="_NoQueue has no queue field"):
            state_checker((_NoQueue(),), CAPACITY)
        state_checker((_QueueFirst(),), CAPACITY)

    @pytest.mark.parametrize("proc, refused", _DOMAIN.values(), ids=_DOMAIN)
    def test_each_field_defaults_to_an_int_or_an_enum_member(self, proc, refused):
        if refused is None:
            state_checker((proc,), CAPACITY)
        else:
            with pytest.raises(ValueError, match=re.escape(refused)):
                state_checker((proc,), CAPACITY)


class TestSend:
    def test_appends_to_target_tail_only(self):
        s = (B(), B(q=[BARRIER_IN]), B())
        out = send(s, 1, BARRIER_OUT)
        assert out[1].queue == (BARRIER_IN, BARRIER_OUT)
        assert out[0] is s[0] and out[2] is s[2]

    def test_delivery_into_release_round(self):
        # delivering barrier_out to process 0 of (1,0,0,[]) (1,1,0,[]) (1,1,0,[])
        s = (B(1, 0, 0), B(1, 1, 0), B(1, 1, 0))
        out = send(s, 0, BARRIER_OUT)
        assert out == (B(1, 0, 0, [BARRIER_OUT]), B(1, 1, 0), B(1, 1, 0))

    def test_send_is_pure(self):
        s = (B(), B(q=[BARRIER_OUT]))
        send(s, 1, BARRIER_IN)
        assert s == (B(), B(q=[BARRIER_OUT]))


# The twin table: one row per way a process can equal one of other types,
# each with an effect `make(proc, pid, v)` that puts `v` into a process, a
# message it queues or a message it sends itself, and its (value, twin)
# pairs. A twin must be refused wherever it is made, or the visited set would
# keep whichever of the two a search met first.
_INT_TWINS = [(1, True), (0, False), (1, 1.0)]
_PLAIN_REQ = (ring.MessageKind.REQ_INSERT, (1,))  # equals req_insert(1), hashes alike
_TWIN_ROWS = [
    ("barrier-field", B(), lambda proc, pid, v: (B(1, v, 0), ()), _INT_TWINS,
     "client_barrier_out must be of type int"),
    ("ring-neighbor", RingProcessState(),
     lambda proc, pid, v: (RingProcessState(RingStatus.IN_RING, v, 0), ()), _INT_TWINS,
     "lhs must be of type int"),
    ("queued-payload", RingProcessState(),
     lambda proc, pid, v: (queued(proc, req_insert(v)), ()), _INT_TWINS, "payload id"),
    ("queued-message", RingProcessState(), lambda proc, pid, m: (queued(proc, m), ()),
     [(req_insert(1), _PLAIN_REQ)], "is not a Message"),
    ("sent-payload", RingProcessState(),
     lambda proc, pid, v: (proc, ((pid, req_insert(v)),)), _INT_TWINS, "payload id"),
    ("sent-message", RingProcessState(), lambda proc, pid, m: (proc, ((pid, m),)),
     [(req_insert(1), _PLAIN_REQ)], "is not a Message"),
]


@pytest.mark.parametrize("way", ["value-first", "twin-first", "by-hand"])
@pytest.mark.parametrize("proc, make, value, twin, named", [
    pytest.param(proc, make, value, twin, named,
                 id=f"{row}-{'tuple' if twin is _PLAIN_REQ else twin}")
    for row, proc, make, pairs, named in _TWIN_ROWS for value, twin in pairs])
def test_a_twin_is_refused_however_it_is_made(way, proc, make, value, twin, named):
    initial = (proc, proc)
    if way == "by-hand":
        # pid 0 makes the value, then pid 1 the twin beside it in a new state,
        # unchecked until stored: a checker memo keyed by value would pass it
        def by_hand(state, pid):
            new, sends = make(state[pid], pid, twin if pid else value)
            procs = list(state)
            procs[pid] = new
            for to, message in sends:
                procs[to] = queued(procs[to], message)
            return tuple(procs)

        rules = (TransitionRule("by_hand", lambda p, pid: p == proc, by_hand,
                                lambda s, pid: (s[0] == proc) == (pid == 0)),)
        pid = 1
    else:
        # two rules fire at pid 0 of the initial state and their successors
        # are equal, so whichever comes second is matched, never stored
        order = (value, twin) if way == "value-first" else (twin, value)
        rules = tuple(TransitionRule(f"r{k}", lambda p, pid: pid == 0,
                                     memoized_apply(lambda p, pid, v=v: make(p, pid, v)),
                                     lambda s, pid: s == initial)
                      for k, v in enumerate(order))
        pid = 0
    model = ProtocolModel(queue_capacity=2, initial_state=initial, rules=rules,
                          invariant=lambda s: True, terminal_postcondition=lambda s: True)
    with pytest.raises(ValueError, match=f"process {pid}: .*{named}"):
        explore(model)


@pytest.mark.parametrize("twin", [req_insert(True), _PLAIN_REQ], ids=["payload", "message"])
def test_a_twin_sent_by_the_rule_that_sent_its_equal_is_refused(twin):
    # pids 0 and 1 send to pid 2 of one state, so the twin's append would be
    # found under its equal's in the rule's append memo
    apply = memoized_apply(lambda proc, pid: (proc, ((2, twin if pid else req_insert(1)),)))
    state = (RingProcessState(),) * 3
    apply(state, 0)
    with pytest.raises(ValueError, match="process 1: "):
        apply(state, 1)


# The one check of what is made: one row per way the process at pid k of 3,
# `queued(before, *sent)`, is ill formed, the others default; one column per
# maker, each checked where it makes it: the initial state, a step's effect,
# a send (the step at k keeps `before` and sends `sent` to `to`, else to k)
# and a hand-written apply fired at the next pid, checked by `state_checker`.
# A row with a `to` is the send's own fault. Each raises `error` with `text`.
class _Ill(NamedTuple):
    before: object
    sent: tuple
    error: type
    text: str
    to: Optional[int] = None


_BI_KIND = barrier.MessageKind.BARRIER_IN
_ILL_FORMED = {
    "released": _Ill(B(0, 1, 0), (), ValueError,
                     "process {k}: client released before it reached the barrier"),
    "over-capacity": _Ill(B(q=[BARRIER_IN, BARRIER_OUT]), (BARRIER_IN,), QueueOverflowError,
                          "queue of process {k} is over capacity 2"),
    **{f"neighbor-{rank}": _Ill(RingProcessState(RingStatus.IN_RING, rank, 0), (), ValueError,
                                f"process {{k}}: ring neighbors are ints in [0, 3) or unset, "
                                f"got {rank}") for rank in (99, -5)},
    # a message of the wrong shape is refused before its payload is read
    "payload-not-a-tuple": _Ill(B(), (Message(_BI_KIND, 5),), ValueError,
                                "process {k}: Message(kind=<MessageKind.BARRIER_IN: "
                                "('bi', 0)>, payload=5) is not a Message"),
    "kind-not-a-kind": _Ill(B(), (Message("bi", ()),), ValueError,
                            "process {k}: Message(kind='bi', payload=()) is not a Message"),
    **{f"{kind.name.lower()}-carries-{len(payload)}": _Ill(
        B(), (Message(kind, payload),), ValueError,
        f"process {{k}}: {kind.name.lower()} carries {kind.arity} id(s), got {len(payload)}")
       for kind, payload in [(_BI_KIND, (1,)), (ring.MessageKind.REQ_INSERT, ()),
                             (ring.MessageKind.REQ_INSERT, (1, 2)),
                             (ring.MessageKind.INSERT_ACK, (1,)),
                             (ring.MessageKind.NEW_RHS, (1, 2))]},
    **{f"payload-id-{rank}": _Ill(RingProcessState(), (req_insert(rank),), ValueError,
                                  f"process {{k}}: payload id {rank} is not an int in [0, 3)")
       for rank in (3, -1)},
    # a negative target would index from the end: ring's `handle_req_insert`
    # sends one at an entry with no left neighbor
    **{f"send-target-{to}": _Ill(RingProcessState(), (req_insert(0),), ValueError,
                                 f"process {{k}}: send target {to} out of range for 3 "
                                 f"processes", to) for to in (3, UNSET)},
}


@pytest.mark.parametrize("k", range(3))
@pytest.mark.parametrize("ill, maker", [
    pytest.param(ill, maker, id=f"{row}-{maker}") for row, ill in _ILL_FORMED.items()
    for maker in ("initial", "effect", "send", "by-hand")
    if (ill.sent if maker == "send" else ill.to is None)])
def test_what_is_ill_formed_is_refused_wherever_it_is_made(ill, maker, k):
    before, sent, error, text, to = ill
    others = (type(before)(),) * 3
    made = others[:k] + (queued(before, *sent),) + others[k + 1:]
    if maker == "initial":
        calls = [lambda: checked_applies(made, 2, [])]
    else:
        start = made[:k] + (before,) + made[k + 1:] if maker == "send" else others
        apply = {"effect": memoized_apply(lambda proc, pid: (made[pid], ())),
                 "send": memoized_apply(lambda proc, pid: (before, tuple(
                     (pid if to is None else to, message) for message in sent))),
                 "by-hand": lambda state, pid: made}[maker]
        (applied,), _ = checked_applies(start, 2, [apply])
        fired = (k + 1) % 3 if maker == "by-hand" else k
        calls = [lambda: applied(start, fired)] * 2  # a memo keeps nothing that failed
    for call in calls:
        with pytest.raises(error) as raised:
            call()
        assert (type(raised.value), str(raised.value)) == (error, text.format(k=k))


class TestReceive:
    def test_removes_head_only(self):
        proc = B(1, 0, 0, [BARRIER_OUT, BARRIER_IN])
        assert receive(proc, 0) == (BARRIER_OUT, (BARRIER_IN,))

    def test_fifo_remainder_preserved(self):
        a, b, c = req_insert(0), new_rhs(1), insert_ack(0, 1)
        assert receive(B(q=[a, b, c]), 0)[1] == (b, c)

    def test_empty_queue_is_an_error(self):
        with pytest.raises(ValueError, match="receive on an empty queue"):
            receive(B(), 0)

    def test_receive_is_pure(self):
        proc = B(q=[BARRIER_IN, BARRIER_OUT])
        receive(proc, 0)
        assert proc == B(q=[BARRIER_IN, BARRIER_OUT])


def _messages(n):
    """Messages of every kind, with ids below `n`."""
    ids = st.integers(0, n - 1)
    return st.one_of(st.just(BARRIER_IN), st.just(BARRIER_OUT), st.builds(req_insert, ids),
                     st.builds(new_rhs, ids), st.builds(insert_ack, ids, ids))


@given(st.lists(_messages(2), max_size=12))
def test_fifo_property(msgs):
    # whatever is sent to one process comes back out in send order
    s = (B(), B())
    for m in msgs:
        s = send(s, 1, m)
    proc = s[1]
    received = []
    while proc.queue:
        head, rest = receive(proc, 1)
        received.append(head)
        proc = proc._replace(queue=rest)
    assert received == msgs


class TestCanonicalEncode:
    def test_the_state_is_its_own_key(self):
        s = (B(1, 0, 0, [BARRIER_IN]), B())
        assert canonical_encode(s) is s

    def test_distinguishes_queue_order(self):
        a = (B(q=[BARRIER_IN, BARRIER_OUT]),)
        b = (B(q=[BARRIER_OUT, BARRIER_IN]),)
        assert canonical_encode(a) != canonical_encode(b)

    def test_distinguishes_payloads(self):
        a = (RingProcessState(), RingProcessState())
        assert canonical_encode(send(a, 1, req_insert(0))) != canonical_encode(
            send(a, 1, req_insert(1))
        )

    def test_ring_neighbor_sentinel_encodes_distinctly(self):
        out = RingProcessState()
        ring0 = RingProcessState(status=RingStatus.IN_RING, lhs=0, rhs=0)
        assert canonical_encode((out,)) != canonical_encode((ring0,))
        assert UNSET not in range(0, 8)

    def test_ring_statuses_encode_distinctly(self):
        # a joiner awaiting its ack and an unlinked ring member differ
        inserting = (RingProcessState(RingStatus.INSERTING),)
        in_ring = (RingProcessState(RingStatus.IN_RING),)
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
    """States of one to three processes drawn from `procs`, each queue up to
    three messages with ids below the state's process count, as a search
    stores them."""
    def of_size(n):
        proc = st.builds(lambda p, q: p._replace(queue=tuple(q)),
                         st.sampled_from(procs), st.lists(_messages(n), max_size=3))
        return st.lists(proc, min_size=n, max_size=n).map(tuple)
    return st.integers(1, 3).flatmap(of_size)


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
        states += [put(first, pid, p._replace(queue=proc.queue)) for p in pool]
    keys = [canonical_encode(s) for s in states]
    for a, key_a in zip(states, keys):
        for b, key_b in zip(states, keys):
            assert (key_a == key_b) == (a == b)


# Processes as a rule might build them, well formed or not: bits that are
# bools, every status and neighbor, plain tuples for messages, any message
# kind with any payload (wrong arities, ids out of range or bools) and queues
# up to one message over the bound.
# Half the draws come from the well-formed pools, so that a well-formed edit
# often precedes an ill-formed one.
_EDIT_POOLS = (
    [BarrierProcessState(*bits) for bits in product((0, 1, False, True), repeat=3)],
    [RingProcessState(*v) for v in product(RingStatus, (UNSET, 0, 1, 3), (UNSET, 0, 1))],
)
_any_messages = st.one_of(_messages(2), _messages(2).map(tuple), st.builds(
    Message,
    st.sampled_from(list(barrier.MessageKind) + list(ring.MessageKind)),
    st.lists(st.integers(-1, 3) | st.booleans(), max_size=3).map(tuple),
))


def _outcome(check, state):
    """The type of the error `check(state)` raises, or None."""
    try:
        check(state)
    except ValueError as err:
        return type(err)
    return None


@settings(max_examples=300)
@given(st.data())
def test_a_warm_checker_agrees_with_a_fresh_one(data):
    # a checker that has passed the parent skips the processes it shares;
    # a fresh one, built from default processes, has passed none of them
    capacity = 3
    which = data.draw(st.sampled_from((0, 1)))
    parent = data.draw(_system_states(_PROCESS_POOLS[which]))
    try:
        warm = state_checker(parent, capacity)
    except ValueError:
        assume(False)
    succ = list(parent)
    edited = data.draw(st.sets(st.integers(0, len(parent) - 1), min_size=1, max_size=2))
    for pid in edited:
        proc = data.draw(st.sampled_from(_PROCESS_POOLS[which])
                         | st.sampled_from(_EDIT_POOLS[which]))
        queue = data.draw(st.lists(_any_messages, max_size=capacity + 1))
        succ[pid] = proc._replace(queue=tuple(queue))
    succ = tuple(succ)
    fresh = state_checker(tuple(type(proc)() for proc in parent), capacity)
    assert _outcome(warm, succ) is _outcome(fresh, succ)
