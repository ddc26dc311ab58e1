"""Ring insertion model: processes join a ring at a designated entry process.

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
"""

from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import NamedTuple, Optional

from .engine import ProtocolModel, TransitionRule
from .state import (
    Message,
    MessageKindBase,
    Queue,
    State,
    receive_message,
    render_queue,
    replace_process,
    send_message,
)

ORDERED = "ordered"
UNORDERED = "unordered"
VARIANTS = (ORDERED, UNORDERED)

# Neighbor sentinel for processes that have not joined the ring yet.
# Deliberately outside [0, N) so it can never collide with a real rank.
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
    __hash__ = object.__hash__  # identity, as for MessageKindBase

    OUTSIDE = "outside"
    INSERTING = "inserting"
    IN_RING = "in_ring"


_STATUS_CODE = {
    RingStatus.OUTSIDE: "out",
    RingStatus.INSERTING: "ins",
    RingStatus.IN_RING: "ring",
}


def _render_neighbor(rank: int) -> str:
    return "-" if rank == UNSET else str(rank)


class RingProcessState(NamedTuple):
    """Ring-model process: membership status, both neighbors, input queue."""

    status: RingStatus = RingStatus.OUTSIDE
    lhs: int = UNSET
    rhs: int = UNSET
    queue: Queue = ()

    def check(self) -> None:
        """Raise ValueError if a process outside the ring has a neighbor."""
        if self.status is RingStatus.OUTSIDE and (self.lhs, self.rhs) != (UNSET, UNSET):
            raise ValueError("a process outside the ring has no neighbors")

    def render(self) -> str:
        """`(status,lhs/rhs,[queue])` with `-` for an unset neighbor, e.g.
        `(ins,-/-,[ack(0,0)])`."""
        return (
            f"({_STATUS_CODE[self.status]},{_render_neighbor(self.lhs)}/"
            f"{_render_neighbor(self.rhs)},{render_queue(self.queue)})"
        )


@dataclass(frozen=True)
class RingConfig:
    n: int
    variant: str = ORDERED
    entry: int = 0
    queue_capacity: Optional[int] = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("process count must be at least 1")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown ring variant {self.variant!r}; "
                             f"choose from {', '.join(VARIANTS)}")
        if not 0 <= self.entry < self.n:
            raise ValueError("entry process id out of range")
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise ValueError("queue capacity must be positive")

    @property
    def capacity(self) -> int:
        return self.queue_capacity if self.queue_capacity is not None else self.n + 2


def ring_initial_state(cfg: RingConfig) -> State:
    """The entry process alone in the ring, self-looped; everyone else out."""
    procs = []
    for pid in range(cfg.n):
        if pid == cfg.entry:
            procs.append(
                RingProcessState(status=RingStatus.IN_RING, lhs=cfg.entry, rhs=cfg.entry)
            )
        else:
            procs.append(RingProcessState())
    return tuple(procs)


def begin_insert_enabled(
    state: State, pid: int, entry: int = 0, ordered: bool = True
) -> bool:
    if state[pid].status is not RingStatus.OUTSIDE:
        return False
    if not ordered:
        return True
    # ordered gate: every lower-ranked process (entry aside) is already in
    return all(
        state[i].status is RingStatus.IN_RING
        for i in range(pid)
        if i != entry
    )


def rule_begin_insert(state: State, pid: int, entry: int = 0) -> State:
    """An outside process starts joining: mark it and ask the entry."""
    proc = state[pid]
    out = replace_process(state, pid, proc._replace(status=RingStatus.INSERTING))
    return send_message(out, entry, req_insert(pid))


def req_insert_enabled(state: State, pid: int, entry: int = 0) -> bool:
    if pid != entry:
        return False
    queue = state[pid].queue
    return bool(queue) and queue[0].kind is MessageKind.REQ_INSERT


def rule_handle_req_insert(state: State, pid: int) -> State:
    """Entry splices the requester in on its left side.

    Old left neighbor L keeps its links for now; the requester gets
    (lhs=L, rhs=entry) in the ack and L gets told its new right-hand side.
    Uniform even when L is the entry itself (singleton ring): the repoint
    message then sits in the entry's own queue until handled.
    """
    (joiner,) = state[pid].queue[0].payload
    old_lhs = state[pid].lhs
    out = receive_message(state, pid)
    out = replace_process(out, pid, out[pid]._replace(lhs=joiner))
    out = send_message(out, joiner, insert_ack(old_lhs, pid))
    return send_message(out, old_lhs, new_rhs(joiner))


def new_rhs_enabled(state: State, pid: int) -> bool:
    queue = state[pid].queue
    return bool(queue) and queue[0].kind is MessageKind.NEW_RHS


def rule_handle_new_rhs(state: State, pid: int) -> State:
    """Repoint the right-hand side; the old link is dropped by overwrite."""
    (rhs,) = state[pid].queue[0].payload
    out = receive_message(state, pid)
    return replace_process(out, pid, out[pid]._replace(rhs=rhs))


def insert_ack_enabled(state: State, pid: int) -> bool:
    proc = state[pid]
    if proc.status is not RingStatus.INSERTING:
        return False
    return bool(proc.queue) and proc.queue[0].kind is MessageKind.INSERT_ACK


def rule_handle_insert_ack(state: State, pid: int) -> State:
    """The joiner adopts its neighbor pair and is in the ring."""
    lhs, rhs = state[pid].queue[0].payload
    out = receive_message(state, pid)
    proc = out[pid]._replace(status=RingStatus.IN_RING, lhs=lhs, rhs=rhs)
    return replace_process(out, pid, proc)


def req_insert_only_at_entry(state: State, entry: int = 0) -> bool:
    """Join requests are addressed to the entry and appear nowhere else."""
    for pid, proc in enumerate(state):
        if pid == entry:
            continue
        if any(m.kind is MessageKind.REQ_INSERT for m in proc.queue):
            return False
    return True


def ring_postcondition(state: State) -> bool:
    """Everyone in the ring, queues drained, neighbor maps mutually inverse,
    and the right-hand successor map one cycle through all processes."""
    n = len(state)
    for proc in state:
        if proc.status is not RingStatus.IN_RING or proc.queue:
            return False
        if not (0 <= proc.lhs < n and 0 <= proc.rhs < n):
            return False
    for pid, proc in enumerate(state):
        if state[proc.rhs].lhs != pid:
            return False
    seen = set()
    cur = 0
    for _ in range(n):
        if cur in seen:
            return False
        seen.add(cur)
        cur = state[cur].rhs
    return cur == 0 and len(seen) == n


def ring_model(cfg: RingConfig) -> ProtocolModel:
    rules = (
        TransitionRule(
            "begin_insert",
            partial(begin_insert_enabled, entry=cfg.entry, ordered=cfg.variant == ORDERED),
            partial(rule_begin_insert, entry=cfg.entry),
        ),
        TransitionRule(
            "handle_req_insert",
            partial(req_insert_enabled, entry=cfg.entry),
            rule_handle_req_insert,
        ),
        TransitionRule("handle_new_rhs", new_rhs_enabled, rule_handle_new_rhs),
        TransitionRule("handle_insert_ack", insert_ack_enabled, rule_handle_insert_ack),
    )
    return ProtocolModel(
        name="ring",
        queue_capacity=cfg.capacity,
        initial_states=(ring_initial_state(cfg),),
        rules=rules,
        invariant=partial(req_insert_only_at_entry, entry=cfg.entry),
        terminal_postcondition=ring_postcondition,
    )
