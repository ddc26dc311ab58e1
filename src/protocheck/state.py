"""Immutable protocol state: messages, FIFO input queues, system states.

Every value here is frozen. State edits return new objects and never touch
their inputs, so states can be shared freely between the search engine, the
visited set, and reconstructed traces.

Nothing here knows a protocol. A protocol module declares its message kinds
as a `MessageKindBase` subclass and its process state as a frozen dataclass with
a `queue` field and a `render()` method. That one rendering serves as trace
text, graph label and, encoded, as the engine's visited-set key.
"""

from dataclasses import dataclass, replace
from enum import Enum


class ModelError(Exception):
    """Base class for errors raised by state operations."""


class QueueOverflowError(ModelError):
    """A send would exceed the receiver's queue capacity.

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

    def __init__(self, code: str, arity: int):
        self.code = code
        self.arity = arity


@dataclass(frozen=True, slots=True)
class Message:
    """Tagged value traveling in a process input queue."""

    kind: MessageKindBase
    payload: tuple[int, ...] = ()

    def __post_init__(self):
        want = self.kind.arity
        if len(self.payload) != want:
            raise ValueError(
                f"{self.kind.name.lower()} carries {want} id(s), got {len(self.payload)}"
            )

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


@dataclass(frozen=True, slots=True)
class SystemState:
    """Ordered vector of per-process states; the unit of exploration.

    The process count is fixed for the lifetime of a run and all processes
    are the same protocol variant.
    """

    processes: tuple
    queue_capacity: int

    def __post_init__(self):
        if not self.processes:
            raise ValueError("a system needs at least one process")
        if self.queue_capacity < 1:
            raise ValueError("queue capacity must be positive")
        first = type(self.processes[0])
        if any(type(p) is not first for p in self.processes):
            raise ValueError("all processes must be the same protocol variant")


def replace_process(state: SystemState, pid: int, proc) -> SystemState:
    """New state with process `pid` swapped out; everything else shared."""
    procs = state.processes
    return replace(state, processes=procs[:pid] + (proc,) + procs[pid + 1:])


def send_message(state: SystemState, to: int, message: Message) -> SystemState:
    """Append `message` at the tail of process `to`'s input queue.

    Raises QueueOverflowError when the queue is at capacity and ValueError
    when `to` or a payload rank is out of range.
    """
    n = len(state.processes)
    if not 0 <= to < n:
        raise ValueError(f"send target {to} out of range for {n} processes")
    for rank in message.payload:
        if not 0 <= rank < n:
            raise ValueError(f"payload id {rank} out of range for {n} processes")
    proc = state.processes[to]
    if len(proc.queue) >= state.queue_capacity:
        raise QueueOverflowError(
            f"queue of process {to} is at capacity {state.queue_capacity}"
        )
    return replace_process(state, to, replace(proc, queue=proc.queue + (message,)))


def receive_message(state: SystemState, pid: int) -> SystemState:
    """Remove the head of process `pid`'s queue, preserving FIFO order."""
    proc = state.processes[pid]
    if not proc.queue:
        raise EmptyQueueError(f"process {pid}: receive on an empty queue")
    return replace_process(state, pid, replace(proc, queue=proc.queue[1:]))


def peek(state: SystemState, pid: int) -> Message | None:
    """Head of process `pid`'s queue without removing it; None if empty."""
    queue = state.processes[pid].queue
    return queue[0] if queue else None


def render_state(state: SystemState) -> str:
    """Compact one-line rendering: the process renderings joined by spaces."""
    return " ".join([p.render() for p in state.processes])


def canonical_encode(state: SystemState) -> bytes:
    """The visited-set key: the state's rendering as ASCII bytes.

    Injective on the states of one run (their queue capacity is fixed and
    left out) when each process rendering is injective and self-delimiting.
    A rendering that closes its parentheses right after its `render_queue`
    part is: no message rendering contains a bracket, so the joined
    rendering parses back uniquely and encode(a) == encode(b) iff a == b.
    """
    return render_state(state).encode("ascii")
