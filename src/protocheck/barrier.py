"""Ring barrier model: a token circulates to collect, then to release.

Clients are folded into two bits per process: client_barrier_in records that
the client asked to enter the barrier, client_barrier_out that it was let
through. Process 0 leads. Its client's request launches barrier_in around the
ring; a non-leader forwards the token if its own client already asked,
otherwise it parks the token behind the holding bit until the request
arrives. When barrier_in comes back to the leader every client has reached
the barrier, so the leader launches barrier_out, which releases each client
as it passes. The leader's own client is released either last (when
barrier_out returns) or first (when it is emitted), per the variant.

The invariant: nobody is released until everyone has arrived. The
postcondition at termination: everybody was released and nothing is pending.
"""

from dataclasses import dataclass
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

LEADER = 0

LEADER_LAST = "leader_last"
LEADER_FIRST = "leader_first"
VARIANTS = (LEADER_LAST, LEADER_FIRST)

# Seeded bug for exercising counterexample machinery: a non-leader releases
# its client already when forwarding barrier_in, before everyone arrived.
RELEASE_ON_BARRIER_IN = "release_on_barrier_in"
MUTATIONS = (RELEASE_ON_BARRIER_IN,)


class MessageKind(MessageKindBase):
    BARRIER_IN = ("bi", 0)
    BARRIER_OUT = ("bo", 0)


_BARRIER_IN = Message(MessageKind.BARRIER_IN)
_BARRIER_OUT = Message(MessageKind.BARRIER_OUT)


def barrier_in() -> Message:
    return _BARRIER_IN


def barrier_out() -> Message:
    return _BARRIER_OUT


class BarrierProcessState(NamedTuple):
    """Barrier-model process: three bits plus the input queue."""

    client_barrier_in: int = 0
    client_barrier_out: int = 0
    holding_barrier_in: int = 0
    queue: Queue = ()

    def check(self) -> None:
        """Raise ValueError unless the bits are bits and mutually consistent."""
        for bit in self[:3]:
            # an int, never a bool: True == 1 would merge two visited keys
            if type(bit) is not int or bit not in (0, 1):
                raise ValueError("barrier process fields are bits")
        if self.holding_barrier_in and self.client_barrier_in:
            # a held entry token is forwarded the moment the client asks
            raise ValueError("cannot hold barrier_in after the client request")
        if self.client_barrier_out and not self.client_barrier_in:
            raise ValueError("client released before it reached the barrier")

    def render(self) -> str:
        """`(in,out,holding,[queue])`, e.g. `(1,0,0,[bo])`."""
        return (
            f"({self.client_barrier_in},{self.client_barrier_out},"
            f"{self.holding_barrier_in},{render_queue(self.queue)})"
        )


@dataclass(frozen=True)
class BarrierConfig:
    n: int
    variant: str = LEADER_LAST
    queue_capacity: Optional[int] = None
    mutation: Optional[str] = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("process count must be at least 1")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown barrier variant {self.variant!r}; "
                             f"choose from {', '.join(VARIANTS)}")
        if self.mutation is not None and self.mutation not in MUTATIONS:
            raise ValueError(f"unknown mutation {self.mutation!r}")
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise ValueError("queue capacity must be positive")

    @property
    def capacity(self) -> int:
        return self.queue_capacity if self.queue_capacity is not None else self.n + 2


def next_rank(pid: int, n: int) -> int:
    return (pid + 1) % n


def barrier_initial_state(cfg: BarrierConfig) -> State:
    """All bits zero, all queues empty."""
    return (BarrierProcessState(),) * cfg.n


def client_request_enabled(state: State, pid: int) -> bool:
    return state[pid].client_barrier_in == 0


def rule_client_request(state: State, pid: int) -> State:
    """The client asks for the barrier (spontaneous, handled exactly once).

    The leader's request launches barrier_in to its right-hand side. A
    non-leader that was holding the token forwards it now.
    """
    n = len(state)
    proc = state[pid]
    if pid == LEADER:
        out = replace_process(state, pid, proc._replace(client_barrier_in=1))
        return send_message(out, next_rank(pid, n), barrier_in())
    if proc.holding_barrier_in:
        out = replace_process(
            state, pid, proc._replace(client_barrier_in=1, holding_barrier_in=0)
        )
        return send_message(out, next_rank(pid, n), barrier_in())
    return replace_process(state, pid, proc._replace(client_barrier_in=1))


def barrier_in_nonleader_enabled(state: State, pid: int) -> bool:
    queue = state[pid].queue
    return pid != LEADER and bool(queue) and queue[0].kind is MessageKind.BARRIER_IN


def rule_barrier_in_nonleader(
    state: State, pid: int, release_on_forward: bool = False
) -> State:
    """Non-leader handles barrier_in: forward if its client already asked,
    otherwise hold it."""
    n = len(state)
    out = receive_message(state, pid)
    proc = out[pid]
    if proc.client_barrier_in:
        if release_on_forward:  # seeded bug, see RELEASE_ON_BARRIER_IN
            out = replace_process(out, pid, proc._replace(client_barrier_out=1))
        return send_message(out, next_rank(pid, n), barrier_in())
    return replace_process(out, pid, proc._replace(holding_barrier_in=1))


def barrier_in_leader_enabled(state: State, pid: int) -> bool:
    queue = state[pid].queue
    return pid == LEADER and bool(queue) and queue[0].kind is MessageKind.BARRIER_IN


def rule_barrier_in_leader(
    state: State, pid: int, variant: str = LEADER_LAST
) -> State:
    """barrier_in returned to the leader: everyone arrived, start the release
    round. Under leader_first the leader's own client goes through now."""
    n = len(state)
    out = receive_message(state, pid)
    out = send_message(out, next_rank(pid, n), barrier_out())
    if variant == LEADER_FIRST:
        proc = out[pid]
        out = replace_process(out, pid, proc._replace(client_barrier_out=1))
    return out


def barrier_out_enabled(state: State, pid: int) -> bool:
    queue = state[pid].queue
    return bool(queue) and queue[0].kind is MessageKind.BARRIER_OUT


def rule_barrier_out(
    state: State, pid: int, variant: str = LEADER_LAST
) -> State:
    """Handle barrier_out: a non-leader releases its client and forwards the
    token; the leader consumes it (releasing its client only under
    leader_last, where it is the last to do so)."""
    n = len(state)
    out = receive_message(state, pid)
    proc = out[pid]
    if pid != LEADER:
        out = replace_process(out, pid, proc._replace(client_barrier_out=1))
        return send_message(out, next_rank(pid, n), barrier_out())
    if variant == LEADER_LAST:
        return replace_process(out, pid, proc._replace(client_barrier_out=1))
    return out


def barrier_invariant(state: State) -> bool:
    """No client released until every client has reached the barrier."""
    if any(p.client_barrier_out for p in state):
        return all(p.client_barrier_in for p in state)
    return True


def barrier_postcondition(state: State) -> bool:
    """Terminal states must have released everyone, with nothing pending."""
    return all(
        p.client_barrier_out == 1 and p.holding_barrier_in == 0 and not p.queue
        for p in state
    )


def barrier_model(cfg: BarrierConfig) -> ProtocolModel:
    release = cfg.mutation == RELEASE_ON_BARRIER_IN
    rules = (
        TransitionRule("client_request", client_request_enabled, rule_client_request),
        TransitionRule(
            "barrier_in_nonleader",
            barrier_in_nonleader_enabled,
            partial(rule_barrier_in_nonleader, release_on_forward=release),
        ),
        TransitionRule(
            "barrier_in_leader",
            barrier_in_leader_enabled,
            partial(rule_barrier_in_leader, variant=cfg.variant),
        ),
        TransitionRule(
            "barrier_out",
            barrier_out_enabled,
            partial(rule_barrier_out, variant=cfg.variant),
        ),
    )
    return ProtocolModel(
        name="barrier",
        queue_capacity=cfg.capacity,
        initial_states=(barrier_initial_state(cfg),),
        rules=rules,
        invariant=barrier_invariant,
        terminal_postcondition=barrier_postcondition,
    )
