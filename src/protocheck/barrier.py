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

Counts, measured (not derived) for N = 1-10 and at N = 14 and 16 in either
variant: a full search stores 2**(N+1) + N - 1 states and matches
(N - 2) * 2**N + 2, as `tests/test_laws.py` checks.
"""

from functools import partial
from operator import attrgetter
from typing import NamedTuple

from .engine import ModelConfig, ProtocolModel, TransitionRule
from .state import Message, MessageKindBase, Queue, State, memoized_apply, receive
# Never called: perfbench/child.py's traced rounds wrap them by getattr; ROADMAP item 1 drops both.
receive_message = replace_process = send_message = None

LEADER = 0

LEADER_LAST = "leader_last"
LEADER_FIRST = "leader_first"

# Seeded bug for exercising counterexample machinery: a non-leader releases
# its client already when forwarding barrier_in, before everyone arrived.
RELEASE_ON_BARRIER_IN = "release_on_barrier_in"


class MessageKind(MessageKindBase):
    BARRIER_IN = ("bi", 0)
    BARRIER_OUT = ("bo", 0)


BARRIER_IN = Message(MessageKind.BARRIER_IN)
BARRIER_OUT = Message(MessageKind.BARRIER_OUT)
_IN, _OUT = MessageKind.BARRIER_IN, MessageKind.BARRIER_OUT  # cheap for guards to read


class BarrierProcessState(NamedTuple):
    """Barrier-model process: three bits plus the input queue."""

    client_barrier_in: int = 0
    client_barrier_out: int = 0
    holding_barrier_in: int = 0
    queue: Queue = ()

    def check(self, n: int) -> None:
        """Raise ValueError unless the bits are 0 or 1 and mutually consistent."""
        if {self.client_barrier_in, self.client_barrier_out, self.holding_barrier_in} - {0, 1}:
            raise ValueError("barrier process fields are bits")
        if self.holding_barrier_in and self.client_barrier_in:
            # a held entry token is forwarded the moment the client asks
            raise ValueError("cannot hold barrier_in after the client request")
        if self.client_barrier_out and not self.client_barrier_in:
            raise ValueError("client released before it reached the barrier")


class BarrierConfig(ModelConfig):
    VARIANTS = (LEADER_LAST, LEADER_FIRST)
    MUTATIONS = (RELEASE_ON_BARRIER_IN,)


def next_rank(pid: int, n: int) -> int:
    return (pid + 1) % n


def barrier_initial_state(cfg: BarrierConfig) -> State:
    """All bits zero, all queues empty."""
    return (BarrierProcessState(),) * cfg.size


def client_request_enabled(proc: BarrierProcessState, pid: int) -> bool:
    return proc.client_barrier_in == 0


def rule_client_request(proc: BarrierProcessState, pid: int, n: int):
    """The client asks for the barrier (spontaneous, handled exactly once).

    The leader's request launches barrier_in to its right-hand side. A
    non-leader that was holding the token forwards it now.
    """
    # the holding bit clears either way (the leader never holds the token)
    out = proc._replace(client_barrier_in=1, holding_barrier_in=0)
    if pid == LEADER or proc.holding_barrier_in:
        return out, ((next_rank(pid, n), BARRIER_IN),)
    return out, ()


def barrier_in_nonleader_enabled(proc: BarrierProcessState, pid: int) -> bool:
    queue = proc.queue
    return queue != () and queue[0].kind is _IN and pid != LEADER


def rule_barrier_in_nonleader(proc: BarrierProcessState, pid: int, n: int,
                              release_on_forward: bool):
    """Non-leader handles barrier_in: forward if its client already asked,
    otherwise hold it."""
    _, queue = receive(proc, pid)
    if proc.client_barrier_in:
        # the seeded bug releases the client here, see RELEASE_ON_BARRIER_IN
        released = 1 if release_on_forward else proc.client_barrier_out
        return (proc._replace(client_barrier_out=released, queue=queue),
                ((next_rank(pid, n), BARRIER_IN),))
    return proc._replace(holding_barrier_in=1, queue=queue), ()


def barrier_in_leader_enabled(proc: BarrierProcessState, pid: int) -> bool:
    if pid != LEADER:
        return False
    queue = proc.queue
    return queue != () and queue[0].kind is _IN


def rule_barrier_in_leader(proc: BarrierProcessState, pid: int, n: int,
                           variant: str):
    """barrier_in returned to the leader: everyone arrived, start the release
    round. Under leader_first the leader's own client goes through now."""
    _, queue = receive(proc, pid)
    released = 1 if variant == LEADER_FIRST else proc.client_barrier_out
    return (proc._replace(client_barrier_out=released, queue=queue),
            ((next_rank(pid, n), BARRIER_OUT),))


def barrier_out_enabled(proc: BarrierProcessState, pid: int) -> bool:
    queue = proc.queue
    return queue != () and queue[0].kind is _OUT


def rule_barrier_out(proc: BarrierProcessState, pid: int, n: int,
                     variant: str):
    """Handle barrier_out: a non-leader releases its client and forwards the
    token; the leader consumes it (releasing its client only under
    leader_last, where it is the last to do so)."""
    _, queue = receive(proc, pid)
    if pid == LEADER:
        released = 1 if variant == LEADER_LAST else proc.client_barrier_out
        return proc._replace(client_barrier_out=released, queue=queue), ()
    return (proc._replace(client_barrier_out=1, queue=queue),
            ((next_rank(pid, n), BARRIER_OUT),))


_released, _arrived = attrgetter("client_barrier_out"), attrgetter("client_barrier_in")


def barrier_invariant(state: State) -> bool:
    """No client released until every client has reached the barrier."""
    return not any(map(_released, state)) or all(map(_arrived, state))


def barrier_postcondition(state: State) -> bool:
    """Terminal states must have released everyone, with nothing pending."""
    return all(
        p.client_barrier_out == 1 and p.holding_barrier_in == 0 and not p.queue
        for p in state
    )


def barrier_model(cfg: BarrierConfig) -> ProtocolModel:
    def local(rule, **options):
        return memoized_apply(partial(rule, n=cfg.size, **options))

    release = cfg.mutation == RELEASE_ON_BARRIER_IN
    rules = (
        TransitionRule("client_request", client_request_enabled, local(rule_client_request)),
        TransitionRule("barrier_in_nonleader", barrier_in_nonleader_enabled,
                       local(rule_barrier_in_nonleader, release_on_forward=release)),
        TransitionRule("barrier_in_leader", barrier_in_leader_enabled,
                       local(rule_barrier_in_leader, variant=cfg.variant)),
        TransitionRule("barrier_out", barrier_out_enabled,
                       local(rule_barrier_out, variant=cfg.variant)),
    )
    return ProtocolModel(
        queue_capacity=cfg.queue_capacity,
        initial_state=barrier_initial_state(cfg),
        rules=rules,
        invariant=barrier_invariant,
        terminal_postcondition=barrier_postcondition,
    )
