"""Immutable protocol state: messages, FIFO input queues, system states.

A system state is the plain tuple of its process states, one per pid. Every
value here is a tuple, never changed once built, so states can be shared
freely between the search engine, the visited set, and reconstructed traces.
`memoized_apply` is the one way to build a successor: it shares every
process a rule does not change, by identity, and a step takes its queue head
with `receive`. A search and replay apply each step through new memos
(`checked_applies`), and each process is checked once, where it is made, by
one call of `_check_like`: its types and messages, then its queue bound and
`check(n)`. Every error of a broken model is a ValueError.

Nothing here knows a protocol. A protocol module declares its message kinds
as a `MessageKindBase` subclass and its process state as a NamedTuple with a
`queue` field anywhere and a `check(n)` method, which raises ValueError for
an ill-formed process in a system of `n` processes. Code builds and reads a
process by field name, never by position. The engine keys its visited set by
the state itself, so each field holds only its default's type: exactly an
`int` or an `Enum` member, and `()` for `queue`. A process's one external
form is `process_fields`, which the JSON trace writes and `render_process`
joins into trace and DOT text; neither is called during a search.

A protocol's rule is a local guard, an optional gate on the whole state
and a pure local step, which `memoized_apply` makes the rule's apply.
"""

from enum import Enum
from typing import Callable, NamedTuple, Optional


class QueueOverflowError(ValueError):
    """A queue holds more messages than the model's queue capacity.

    The engine surfaces this as its own verdict: it means the model's
    capacity bound is too small. Messages are never silently dropped.
    """


class MessageKindBase(Enum):
    """Base of a protocol's message kinds, declared as `NAME = (code, arity)`.

    The short code names the kind in every rendering, so it must be a
    non-empty str, free of the characters `()[],"\\` and whitespace, and
    distinct within the protocol. The arity is the fixed number of process
    ids the kind carries, an int of at least 0. A member that breaks either
    raises ValueError as the protocol module declares it.
    """

    # Members are singletons compared by identity; hash them the same way
    # instead of by Enum's Python-level hash of the member name.
    __hash__ = object.__hash__

    def __init__(self, code: str, arity: int):
        # members are made in declaration order: `__members__` holds the earlier ones
        if (type(code) is not str or code.split() != [code] or not set(code).isdisjoint('()[],"\\')
                or any(code == kind.code for kind in type(self).__members__.values())):
            raise ValueError(f"{self.name}: code {code!r} must be a non-empty str free of "
                             f"'()[],\"\\' and whitespace, and unlike every earlier kind's")
        if type(arity) is not int or arity < 0:
            raise ValueError(f"{self.name}: arity {arity!r} must be an int of at least 0")
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


# A system state: one process state per pid, all of one protocol variant.
State = tuple


def _check_like(pid: int, proc, like, n: int, queue_capacity: Optional[int] = None,
                sends: tuple = ()) -> None:
    """The one check of a made process `pid` of `n`, each error naming `pid`:
    ValueError unless it has `like`'s class and field types, each (target,
    message) pair of `sends` an `int` target below `n`, and each message
    sent or queued is a `Message` of a `MessageKindBase` with its kind's
    arity of `int` ids below `n`; then, given a search's `queue_capacity`,
    QueueOverflowError for a queue over it, else `proc.check(n)`'s
    ValueError. On `state_checker`'s defaults, what passes hashes and has no
    twin `==` cannot tell apart (`True == 1`, a tuple equal to a `Message`)."""
    if type(proc) is not type(like):
        raise ValueError(f"process {pid}: all processes must be the same protocol variant")
    for name, value, expected in zip(proc._fields, proc, like):
        if type(value) is not type(expected):
            raise ValueError(f"process {pid}: {name} must be of type "
                             f"{type(expected).__name__}, got {value!r}")
    messages = list(proc.queue)
    for to, message in sends:
        if type(to) is not int or not 0 <= to < n:
            raise ValueError(f"process {pid}: send target {to!r} out of range for {n} processes")
        messages.append(message)
    for message in messages:
        if (type(message) is not Message or not isinstance(message.kind, MessageKindBase)
                or type(message.payload) is not tuple):
            raise ValueError(f"process {pid}: {message!r} is not a Message")
        if len(message.payload) != message.kind.arity:
            raise ValueError(f"process {pid}: {message.kind.name.lower()} carries "
                             f"{message.kind.arity} id(s), got {len(message.payload)}")
        for rank in message.payload:
            if type(rank) is not int or not 0 <= rank < n:
                raise ValueError(f"process {pid}: payload id {rank!r} is not an int in [0, {n})")
    if queue_capacity is not None:
        if len(proc.queue) > queue_capacity:
            raise QueueOverflowError(f"queue of process {pid} is over capacity {queue_capacity}")
        try:
            proc.check(n)
        except ValueError as err:
            raise ValueError(f"process {pid}: {err}") from err


def state_checker(initial: State, queue_capacity: int) -> Callable[[State], State]:
    """The well-formedness check of one search from `initial`. It needs a
    capacity of at least 1 and a first process whose type defaults `queue` to
    `()` and every other field to exactly an `int` or an `Enum` member (else
    ValueError), pins `n = len(initial)`, that type and its defaults' types,
    and checks `initial` before it returns, so a checker has passed its own
    state. `check(state)` returns `state` if it is a tuple of `n` processes
    that pass `_check_like` against the pinned defaults and the capacity,
    else raises its error for the first failing pid. It checks each process
    object once: a set keeps the `id` of each that passed (and a list holds
    the object, so its id is never reused); by identity, since `True == 1`."""
    if queue_capacity < 1:
        raise ValueError("queue capacity must be positive")
    if not initial:
        raise ValueError("a system needs at least one process")
    first = type(initial[0])
    if "queue" not in getattr(first, "_fields", ()):
        raise ValueError(f"{first.__name__} has no queue field")
    for name in first._fields:  # the defaults close the domain: each value has one type
        if name not in first._field_defaults:
            raise ValueError(f"{first.__name__}.{name} has no default")
        default = first._field_defaults[name]
        if not (type(default) is tuple and not default if name == "queue"
                else type(default) is int or isinstance(default, Enum)):
            raise ValueError(f"{first.__name__}.{name} defaults to {default!r}; a field must "
                             f"default to an int or an Enum member, and queue to ()")
    pinned = first()
    n = len(initial)
    passed: set[int] = set()
    held: list = []

    def check(state: State) -> State:
        if type(state) is not tuple:
            raise ValueError(f"a state must be a tuple, not {type(state).__name__}")
        if len(state) != n:
            raise ValueError(f"a rule changed the process count from {n} to {len(state)}")
        if passed.issuperset(map(id, state)):  # most states: one test, no Python loop
            return state
        for pid, proc in enumerate(state):
            if id(proc) not in passed:
                _check_like(pid, proc, pinned, n, queue_capacity)
                held.append(proc)
                passed.add(id(proc))
        return state

    check(initial)
    return check


def receive(proc, pid: int) -> tuple[Message, Queue]:
    """The head of process `pid`'s queue and the rest of it, in FIFO order.
    An empty queue raises ValueError: the consuming rule's guard lied."""
    if not proc.queue:
        raise ValueError(f"process {pid}: receive on an empty queue")
    return proc.queue[0], proc.queue[1:]


def _step_memo(step: Callable, queue_capacity: Optional[int] = None) -> Callable:
    """The state-level apply of a rule whose local step `step(proc, pid)`
    gives process `pid`'s new state and its sends, a tuple `((target,
    message), ...)` appended in order. It keeps each effect per (pid,
    process) and each append per (target process, message) once the process
    it makes passes `_check_like`, the effect's with its sends; what fails
    raises and is not kept. So a matched successor is as well typed as its
    stored twin. With a search's `queue_capacity`: 1.14x the transitions/s
    of checking each new state in the search loop (ring unordered N=5)."""
    effects, appends = {}, {}

    def apply(state: State, pid: int) -> State:
        proc = state[pid]
        effect = effects.get((pid, proc))
        if effect is None:
            effect = step(proc, pid)
            if (type(effect) is not tuple or len(effect) != 2 or type(effect[1]) is not tuple
                    or any(type(send) is not tuple or len(send) != 2 for send in effect[1])):
                raise ValueError(f"process {pid}: a step gives (process, ((target, "
                                 f"message), ...)), not {effect!r}")
            # the sends here, as `appends` may hold a twin's append under its equal
            _check_like(pid, effect[0], proc, len(state), queue_capacity, effect[1])
            effects[pid, proc] = effect
        procs = list(state)
        procs[pid], sends = effect
        for to, message in sends:
            target = procs[to]
            appended = appends.get((target, message))
            if appended is None:
                appended = target._replace(queue=target.queue + (message,))
                _check_like(to, appended, target, len(state), queue_capacity)
                appends[target, message] = appended
            procs[to] = appended
        return tuple(procs)

    return apply


class memoized_apply:
    """A rule's apply: a `_step_memo` of `step`, with no queue bound and no
    `check(n)`. A search makes its own of `__wrapped__` (`checked_applies`)."""

    def __init__(self, step: Callable):
        self.__wrapped__, self._apply = step, _step_memo(step)

    def __call__(self, state: State, pid: int) -> State:
        return self._apply(state, pid)


def checked_applies(initial: State, queue_capacity: int, applies) -> tuple[list, bool]:
    """One search's applies from `initial`, and whether each is a step memo.
    A `memoized_apply` (known by its type, which no wrapper copies) becomes
    a new `_step_memo` of its step with the queue bound; any other apply is
    followed by the search's `state_checker`, which has checked `initial`,
    on each state it gives."""
    check = state_checker(initial, queue_capacity)
    memos = [type(apply) is memoized_apply for apply in applies]
    return [_step_memo(apply.__wrapped__, queue_capacity) if memo
            else lambda state, pid, apply=apply: check(apply(state, pid))
            for apply, memo in zip(applies, memos)], all(memos)


def process_fields(proc) -> dict:
    """Field name -> value, in field order: an Enum by its lower-case name,
    the queue as its rendered messages, head first, and an `int` as is."""
    values = {name: value.name.lower() if isinstance(value, Enum) else value
              for name, value in zip(proc._fields, proc)}
    values["queue"] = [m.render() for m in proc.queue]
    return values


def render_process(proc) -> str:
    """`(v1,v2,...)`: `process_fields`' values, with the queue as `[m1 m2 ...]`."""
    values = process_fields(proc)
    values["queue"] = "[" + " ".join(values["queue"]) + "]"
    return "(" + ",".join(map(str, values.values())) + ")"


def render_state(state: State, text: Callable[[object], str] = render_process) -> str:
    """Compact one-line rendering, for trace lines and DOT nodes alike: each
    process's `text(proc)`, by default `render_process`, joined by spaces."""
    return " ".join(map(text, state))


def canonical_encode(state: State) -> State:
    """The visited-set key: the identity, as the state is its own key.
    Injective, as each value has its default's type (an `int`, an `Enum` member
    or a queue of `Message`s), so `True == 1` twins never merge: `_check_like`
    enforces it wherever a process is checked. The engine calls this on the
    initial state and per fired transition, as the hook a benchmark wraps."""
    return state
