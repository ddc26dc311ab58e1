"""Ring insertion model: processes join a ring through process 0, the entry.

The entry process starts as a ring of one, its own left and right neighbor.
A joiner announces itself with req_insert to the entry, which splices the
joiner in on its left side: it acknowledges with the joiner's new neighbor
pair and tells its old left neighbor to repoint its right-hand side at the
joiner. The old link is simply overwritten, never torn down explicitly. In
the singleton case the entry plays both the left and the right roles, so the
repoint message lands in its own queue.

Two variants: ordered means processes join strictly in rank order (one final
topology); unordered lets any set of joins be in flight at once, so every
processing order at the entry, and hence every topology, is reachable.

Only the message-passing half is modeled; connection plumbing is out of
scope. Neighbor consistency is transiently violated mid-handshake by design,
so correctness is checked at terminal states: everyone in the ring, nothing
pending, neighbor pointers inverse of each other, one cycle through all.

The entry is fixed: pids are otherwise symmetric, so another entry would
only relabel the processes and give the same verdict and counts.

Counts, measured (not derived), as `tests/test_laws.py` checks: ordered
stores 10 * 2**(N-3) + 2 states for N = 3-8; unordered ends in (N-1)!
terminal states for N = 1-5, one per ring topology.
"""

from enum import Enum, auto
from typing import NamedTuple

from .engine import ModelConfig, ProtocolModel, TransitionRule
from .state import Message, MessageKindBase, Queue, State, memoized_apply, receive
# Never called: perfbench/child.py's traced rounds wrap them by getattr; ROADMAP item 1 drops both.
receive_message = replace_process = send_message = None

ENTRY = 0

ORDERED = "ordered"
UNORDERED = "unordered"

# Neighbor sentinel for processes that have not joined the ring yet, written
# as -1 in text and JSON alike. Deliberately outside [0, N) so it can never
# collide with a real rank.
UNSET = -1


class MessageKind(MessageKindBase):
    """req_insert carries the requester's rank, new_rhs the new right-neighbor
    rank, insert_ack the joiner's (lhs, rhs) pair."""

    REQ_INSERT = ("req", 1)
    INSERT_ACK = ("ack", 2)
    NEW_RHS = ("rhs", 1)


def req_insert(requester: int) -> Message:
    return Message(MessageKind.REQ_INSERT, (requester,))


def insert_ack(lhs: int, rhs: int) -> Message:
    return Message(MessageKind.INSERT_ACK, (lhs, rhs))


def new_rhs(neighbor: int) -> Message:
    return Message(MessageKind.NEW_RHS, (neighbor,))


class RingStatus(Enum):
    """Membership; text and JSON write a status by its lower-case name."""

    __hash__ = object.__hash__  # identity, as for MessageKindBase

    OUTSIDE = auto()
    INSERTING = auto()
    IN_RING = auto()


# Guards compare against module-level aliases (`engine.TransitionRule` says
# where that shows): an Enum member lookup costs a dozen global lookups.
_OUTSIDE, _IN_RING, _INSERTING = RingStatus.OUTSIDE, RingStatus.IN_RING, RingStatus.INSERTING
_REQ, _RHS, _ACK = MessageKind.REQ_INSERT, MessageKind.NEW_RHS, MessageKind.INSERT_ACK


class RingProcessState(NamedTuple):
    """Ring-model process: membership status, both neighbors, input queue."""

    status: RingStatus = RingStatus.OUTSIDE
    lhs: int = UNSET
    rhs: int = UNSET
    queue: Queue = ()

    def check(self, n: int) -> None:
        """Raise ValueError unless both neighbors are UNSET or a pid below
        `n`, and a process outside the ring has none."""
        for rank in (self.lhs, self.rhs):
            if not (rank == UNSET or 0 <= rank < n):
                raise ValueError(f"ring neighbors are ints in [0, {n}) or unset, got {rank!r}")
        if self.status is _OUTSIDE and (self.lhs, self.rhs) != (UNSET, UNSET):
            raise ValueError("a process outside the ring has no neighbors")


class RingConfig(ModelConfig):
    VARIANTS = (ORDERED, UNORDERED)


def ring_initial_state(cfg: RingConfig) -> State:
    """The entry process alone in the ring, self-looped; everyone else out."""
    procs = [RingProcessState()] * cfg.size
    procs[ENTRY] = RingProcessState(status=RingStatus.IN_RING, lhs=ENTRY, rhs=ENTRY)
    return tuple(procs)


def begin_insert_enabled(proc: RingProcessState, pid: int) -> bool:
    return proc.status is _OUTSIDE


def ordered_gate(state: State, pid: int) -> bool:
    """Joins go in rank order: every lower rank but the entry is in."""
    return all(state[i].status is _IN_RING for i in range(ENTRY + 1, pid))


def rule_begin_insert(proc: RingProcessState, pid: int):
    """An outside process starts joining: mark it and ask the entry."""
    return proc._replace(status=RingStatus.INSERTING), ((ENTRY, req_insert(pid)),)


def req_insert_enabled(proc: RingProcessState, pid: int) -> bool:
    if pid != ENTRY:
        return False
    queue = proc.queue
    return bool(queue) and queue[0].kind is _REQ


def rule_handle_req_insert(proc: RingProcessState, pid: int):
    """Entry splices the requester in on its left side.

    Old left neighbor L keeps its links for now; the requester gets
    (lhs=L, rhs=entry) in the ack and L gets told its new right-hand side.
    Uniform even when L is the entry itself (singleton ring): the repoint
    message then sits in the entry's own queue until handled.
    """
    head, queue = receive(proc, pid)
    (joiner,) = head.payload
    return (proc._replace(lhs=joiner, queue=queue),
            ((joiner, insert_ack(proc.lhs, pid)), (proc.lhs, new_rhs(joiner))))


def new_rhs_enabled(proc: RingProcessState, pid: int) -> bool:
    queue = proc.queue
    return bool(queue) and queue[0].kind is _RHS


def rule_handle_new_rhs(proc: RingProcessState, pid: int):
    """Repoint the right-hand side; the old link is dropped by overwrite."""
    head, queue = receive(proc, pid)
    (rhs,) = head.payload
    return proc._replace(rhs=rhs, queue=queue), ()


def insert_ack_enabled(proc: RingProcessState, pid: int) -> bool:
    if proc.status is not _INSERTING:
        return False
    return bool(proc.queue) and proc.queue[0].kind is _ACK


def rule_handle_insert_ack(proc: RingProcessState, pid: int):
    """The joiner adopts its neighbor pair and is in the ring."""
    head, queue = receive(proc, pid)
    lhs, rhs = head.payload
    return proc._replace(status=RingStatus.IN_RING, lhs=lhs, rhs=rhs, queue=queue), ()


def ring_invariant(state: State) -> bool:
    """Join requests are addressed to the entry and appear nowhere else."""
    # a loop: `chain.from_iterable(map(attrgetter("queue"), ...))` measured slower
    for pid, proc in enumerate(state):
        if proc.queue and pid != ENTRY:  # most queues are empty
            for message in proc.queue:
                if message.kind is _REQ:
                    return False
    return True


def ring_postcondition(state: State) -> bool:
    """Everyone in the ring, queues drained, neighbor maps mutually inverse,
    and the right-hand successor map one cycle through all processes."""
    n = len(state)
    for pid, proc in enumerate(state):
        if (proc.status is not _IN_RING or proc.queue or not 0 <= proc.rhs < n
                or state[proc.rhs].lhs != pid):
            return False
    # lhs inverts rhs, so rhs is a permutation and each lhs a pid: one cycle
    # through all n exactly when the walk from 0 first returns after n steps
    steps, cur = 1, state[0].rhs
    while cur != 0:
        steps, cur = steps + 1, state[cur].rhs
    return steps == n


def ring_model(cfg: RingConfig) -> ProtocolModel:
    rules = (
        TransitionRule("begin_insert", begin_insert_enabled, memoized_apply(rule_begin_insert),
                       ordered_gate if cfg.variant == ORDERED else None),
        TransitionRule("handle_req_insert", req_insert_enabled,
                       memoized_apply(rule_handle_req_insert)),
        TransitionRule("handle_new_rhs", new_rhs_enabled,
                       memoized_apply(rule_handle_new_rhs)),
        TransitionRule("handle_insert_ack", insert_ack_enabled,
                       memoized_apply(rule_handle_insert_ack)),
    )
    return ProtocolModel(
        queue_capacity=cfg.queue_capacity,
        initial_state=ring_initial_state(cfg),
        rules=rules,
        invariant=ring_invariant,
        terminal_postcondition=ring_postcondition,
    )
