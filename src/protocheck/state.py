"""Immutable protocol state: messages, FIFO input queues, system states.

A system state is the plain tuple of its process states, one per pid. Every
value here is a tuple, never changed once built, so states can be shared
freely between the search engine, the visited set, and reconstructed traces.
Successors are made by `memoized_apply`, which shares every process a rule
does not change, by identity. Construction checks nothing, not even the
queue bound; a search's one `state_checker` checks all of it, each process
object once. No successor is built with the state edits `replace_process`,
`send_message` and `receive_message`; they stay only as the names the
benchmark in `perfbench/` wraps on the protocol modules.

Nothing here knows a protocol. A protocol module declares its message kinds
as a `MessageKindBase` subclass and its process state as a NamedTuple whose
last field is `queue`, with a `render()` method and a `check(n)` method. The
engine keys its visited set by the state itself, so every process field must
be hashable, compare by value and have a default of the one type it may
hold; `render()` serves trace, DOT and JSON text only and is never called
during a search. `check(n)` raises ValueError for an ill-formed process in a
system of `n` processes.

A protocol's rule is a local guard, an optional gate on the whole state
and a pure local step, which `memoized_apply` makes the rule's apply.
"""

from enum import Enum
from operator import methodcaller
from typing import Callable, NamedTuple


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


def _check_like(pid: int, proc, like) -> None:
    """Raise ValueError unless process `pid` has `like`'s class and field types."""
    if type(proc) is not type(like):
        raise ValueError(f"process {pid}: all processes must be the same protocol variant")
    for name, value, expected in zip(proc._fields, proc, like):
        if type(value) is not type(expected):
            raise ValueError(f"process {pid}: {name} must be of type "
                             f"{type(expected).__name__}, got {value!r}")


def state_checker(initial: State, queue_capacity: int) -> Callable[[State], None]:
    """The well-formedness check of one search from `initial`. It needs a
    capacity of at least 1 and a first process whose type's last field is
    `queue` and whose fields all have defaults (else ValueError), and pins
    `n = len(initial)`, that type and its defaults' field types.

    `check(state)` raises ValueError unless `state` has `n` processes of the
    pinned types, each message with its kind's arity of `int` ids below `n`,
    and each process passing `check(n)`; QueueOverflowError for a queue over
    `queue_capacity`, the only place that bound is enforced. Either error
    names the first failing pid. `check` checks each process object once: a
    set keeps the `id` of each that passed (and a list holds the object, so
    its id is never reused); by identity, not value, since `True == 1`.
    """
    if queue_capacity < 1:
        raise ValueError("queue capacity must be positive")
    if not initial:
        raise ValueError("a system needs at least one process")
    first = type(initial[0])
    if getattr(first, "_fields", ())[-1:] != ("queue",):
        raise ValueError(f"the last field of {first.__name__} must be queue")
    if len(first._field_defaults) != len(first._fields):
        raise ValueError(f"every field of {first.__name__} needs a default")
    pinned = first()
    n = len(initial)
    passed: set[int] = set()
    held: list = []

    def check(state: State) -> None:
        if len(state) != n:
            raise ValueError(f"a rule changed the process count from {n} to {len(state)}")
        if passed.issuperset(map(id, state)):  # most states: one test, no Python loop
            return
        for pid, proc in enumerate(state):
            if id(proc) in passed:
                continue
            _check_like(pid, proc, pinned)
            if len(proc.queue) > queue_capacity:
                raise QueueOverflowError(f"queue of process {pid} is over capacity "
                                         f"{queue_capacity}")
            for kind, payload in proc.queue:
                if len(payload) != kind.arity:
                    raise ValueError(f"process {pid}: {kind.name.lower()} carries "
                                     f"{kind.arity} id(s), got {len(payload)}")
                for rank in payload:
                    if type(rank) is not int or not 0 <= rank < n:
                        raise ValueError(f"process {pid}: payload id {rank!r} is not an int "
                                         f"in [0, {n})")
            try:
                proc.check(n)
            except ValueError as err:
                raise ValueError(f"process {pid}: {err}") from err
            held.append(proc)
            passed.add(id(proc))

    return check


def replace_process(state: State, pid: int, proc) -> State:
    """New state with process `pid` swapped out; everything else shared."""
    return state[:pid] + (proc,) + state[pid + 1:]


def send_message(state: State, to: int, message: Message) -> State:
    """Append `message` at the tail of process `to`'s input queue. A target
    out of range is a ValueError, as a negative one would index another
    process; the queue bound and payloads are `state_checker`'s to check."""
    if not 0 <= to < len(state):
        raise ValueError(f"send target {to} out of range for {len(state)} processes")
    proc = state[to]
    # `queue` is the last field, so the rebuilt process copies the rest as is
    return replace_process(state, to, proc._make(proc[:-1] + (proc.queue + (message,),)))


def receive(proc, pid: int) -> tuple[Message, Queue]:
    """The head of process `pid`'s queue and the rest of it, in FIFO order.
    An empty queue raises EmptyQueueError: the consuming rule's guard lied."""
    if not proc.queue:
        raise EmptyQueueError(f"process {pid}: receive on an empty queue")
    return proc.queue[0], proc.queue[1:]


def receive_message(state: State, pid: int) -> State:
    """Remove the head of process `pid`'s queue, preserving FIFO order."""
    proc = state[pid]
    return replace_process(state, pid, proc._make(proc[:-1] + (receive(proc, pid)[1],)))


def memoized_apply(step: Callable) -> Callable[[State, int], State]:
    """The state-level apply of a rule whose local step `step(proc, pid)`
    gives process `pid`'s new state and its sends, `((target, message), ...)`,
    appended in order. Each effect is kept per (pid, process) for the apply's
    lifetime once its new process keeps the class and field types of the one
    it replaces and its sends have targets in range and `int` payload ids
    (else ValueError, keeping nothing), so a matched successor is as well
    typed as its stored twin. Each append is kept per (target process,
    message). Sharing is per effect and per append, not per equal value.
    Value-keyed: id-keyed memos, and per-pid effect dicts, measured no faster.
    The effect checks live here: checking every successor in the search loop
    instead, matched ones too, measured 1.17-1.45x slower.
    `__wrapped__` is `step`, for a reference applier such as `tests/oracle.py`."""
    effects: dict = {}
    appends: dict = {}

    def apply(state: State, pid: int) -> State:
        proc = state[pid]
        effect = effects.get((pid, proc))
        if effect is None:
            effect = step(proc, pid)
            _check_like(pid, effect[0], proc)
            for to, message in effect[1]:
                if not 0 <= to < len(state):
                    raise ValueError(
                        f"send target {to} out of range for {len(state)} processes")
                for rank in message.payload:
                    if type(rank) is not int:
                        raise ValueError(f"process {pid}: sent payload id {rank!r} is not an int")
            effects[pid, proc] = effect
        procs = list(state)
        procs[pid], sends = effect
        for to, message in sends:
            target = procs[to]
            appended = appends.get((target, message))
            if appended is None:
                appended = appends[target, message] = target._make(
                    target[:-1] + (target.queue + (message,),))
            procs[to] = appended
        return tuple(procs)

    apply.__wrapped__ = step
    return apply


def render_state(state: State, text: Callable[[object], str] = methodcaller("render")) -> str:
    """Compact one-line rendering, for trace lines and DOT nodes alike: each
    process's `text(proc)`, by default its `render()`, joined by spaces."""
    return " ".join(map(text, state))


def canonical_encode(state: State) -> State:
    """The visited-set key: the identity, as the state is its own key.

    Equal states are the same state only with one type per field, as
    `True == 1` and `1.0 == 1` render differently: its default's type, which
    `state_checker` enforces on every stored state and `memoized_apply` on
    every effect. The engine calls this on the initial state and per fired
    transition, as the hook a benchmark can wrap to time the key layer.
    """
    return state
