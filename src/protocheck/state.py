"""Immutable protocol state: messages, FIFO input queues, system states.

A system state is the plain tuple of its process states, one per pid. Every
value here is a tuple. State edits return new tuples and never touch their
inputs, so states can be shared freely between the search engine, the
visited set, and reconstructed traces. Construction checks nothing, not
even the queue bound; `check_state` checks a whole state, bound included,
once where it enters the search.

Nothing here knows a protocol. A protocol module declares its message kinds
as a `MessageKindBase` subclass and its process state as a NamedTuple with
a `queue` field, a `render()` method and a `check()` method. The engine keys
its visited set by the state itself, so every process field must be
hashable and compare by value; `render()` serves trace, DOT and JSON text
only and is never called during a search. `check()` raises ValueError for
an ill-formed process.
"""

from enum import Enum
from typing import NamedTuple


class ModelError(Exception):
    """Base class for errors raised by state operations."""


class QueueOverflowError(ModelError):
    """A queue holds more messages than the model's queue capacity.

    The engine surfaces this as its own verdict: it means the model's
    capacity bound is too small. Messages are never silently dropped.
    """


class EmptyQueueError(ModelError):
    """Receive from an empty queue. Always a broken transition-rule guard."""


class MessageKindBase(Enum):
    """Base of a protocol's message kinds, declared as `NAME = (code, arity)`.

    The short code names the kind in every rendering, so codes must be
    distinct within a protocol and free of the characters `()[], `. The arity
    is the fixed number of process ids the kind carries.
    """

    # Members are singletons compared by identity; hash them the same way
    # instead of by Enum's Python-level hash of the member name.
    __hash__ = object.__hash__

    def __init__(self, code: str, arity: int):
        self.code = code
        self.arity = arity


class Message(NamedTuple):
    """Tagged value traveling in a process input queue."""

    kind: MessageKindBase
    payload: tuple[int, ...] = ()

    def render(self) -> str:
        if self.payload:
            return self.kind.code + "(" + ",".join(map(str, self.payload)) + ")"
        return self.kind.code


# A FIFO input queue: head at index 0, sends append at the tail.
Queue = tuple[Message, ...]


def render_queue(queue: Queue) -> str:
    """`[m1 m2 ...]`, head first."""
    if not queue:  # most queues, and the cheapest case to render
        return "[]"
    return "[" + " ".join([m.render() for m in queue]) + "]"


# A system state: one process state per pid, all of one protocol variant.
State = tuple


def check_state(state: State, queue_capacity: int) -> None:
    """Raise ValueError unless `state` is well formed: at least one process,
    one process type, every message carrying its kind's arity of process
    ids in range, and every process passing its own `check()`. Raise
    QueueOverflowError if a queue holds more than `queue_capacity` messages.

    This is the only place the queue bound is enforced: sends never check
    it, so the engine checks each new state and replay each step.
    """
    if not state:
        raise ValueError("a system needs at least one process")
    n = len(state)
    first = type(state[0])
    for pid, proc in enumerate(state):
        if type(proc) is not first:
            raise ValueError("all processes must be the same protocol variant")
        if len(proc.queue) > queue_capacity:
            raise QueueOverflowError(
                f"queue of process {pid} is over capacity {queue_capacity}"
            )
        for kind, payload in proc.queue:
            if len(payload) != kind.arity:
                raise ValueError(
                    f"{kind.name.lower()} carries {kind.arity} id(s), got {len(payload)}"
                )
            for rank in payload:
                if not 0 <= rank < n:
                    raise ValueError(f"payload id {rank} out of range for {n} processes")
        proc.check()


def replace_process(state: State, pid: int, proc) -> State:
    """New state with process `pid` swapped out; everything else shared."""
    return state[:pid] + (proc,) + state[pid + 1:]


def send_message(state: State, to: int, message: Message) -> State:
    """Append `message` at the tail of process `to`'s input queue.

    Raises ValueError when `to` is out of range, since a negative target
    would silently index another process. The queue bound and payload ranges
    are `check_state`'s to check.
    """
    if not 0 <= to < len(state):
        raise ValueError(f"send target {to} out of range for {len(state)} processes")
    proc = state[to]
    return replace_process(state, to, proc._replace(queue=proc.queue + (message,)))


def receive_message(state: State, pid: int) -> State:
    """Remove the head of process `pid`'s queue, preserving FIFO order."""
    proc = state[pid]
    if not proc.queue:
        raise EmptyQueueError(f"process {pid}: receive on an empty queue")
    return replace_process(state, pid, proc._replace(queue=proc.queue[1:]))


def render_state(state: State) -> str:
    """Compact one-line rendering: the process renderings joined by spaces."""
    return " ".join([p.render() for p in state])


def canonical_encode(state: State) -> State:
    """The visited-set key: the identity, as the state is its own key.

    Two states are equal exactly when every process field compares equal.
    That needs one type per field, which each process's `check()` enforces
    where the type alone would not (barrier bits are `int`, never `bool`,
    since `True == 1` but the two render differently). The engine still
    calls this once per initial state and per fired transition, so it stays
    as the hook a benchmark can wrap to time the key layer.
    """
    return state
