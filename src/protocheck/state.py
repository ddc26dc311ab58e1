"""Immutable protocol state: messages, FIFO input queues, system states.

A system state is the plain tuple of its process states, one per pid. Every
value here is a tuple, never changed once built, so states can be shared
freely between the search engine, reconstructed traces and output. A search
holds each distinct process once per pid, in its `ProcessTable`, and a state
as its key, the tuple of its processes' indices there (`canonical_encode`).
A step memo (`StepMemo`, which `checked_applies` makes of each
`memoized_apply`) keeps each effect of a rule per (pid, index), and the
table each append per (target pid, message, index), so a successor's key is
made from keys, with no process hashed. A step takes its queue head with
`receive`. Each process is checked once, where it is made and before the
table takes it, by one call of `_check_like`: its types and messages, then
its queue bound and `check(n)`; an append needs only `_check_bound`. Every
error of a broken model is a ValueError.

Nothing here knows a protocol. A protocol module declares its message kinds
as a `MessageKindBase` subclass and its process state as a NamedTuple with a
`queue` field anywhere and a `check(n)` method, which raises ValueError for
an ill-formed process in a system of `n` processes. Code builds and reads a
process by field name, never by position. The table takes processes by
value, so each field holds only its default's type: exactly an `int` or an
`Enum` member, and `()` for `queue`. A process's one external form is
`process_fields`, which the JSON trace writes and `render_process` joins
into trace and DOT text; neither is called during a search.

A protocol's rule is a local guard, an optional gate on the whole state
and a pure local step, which `memoized_apply` makes the rule's apply.
"""

from enum import Enum
from functools import partial
from typing import Callable, NamedTuple, Optional


class QueueOverflowError(ValueError):
    """A queue holds more messages than the model's queue capacity.

    The engine surfaces this as its own verdict: it means the model's
    capacity bound is too small. Messages are never silently dropped.
    """


class MessageKindBase(Enum):
    """Base of a protocol's message kinds, declared as `NAME = (code, arity)`.

    The short code names the kind in every rendering, so it must be a
    non-empty printable str, free of the characters `()[],"\\` and
    whitespace, and distinct within the protocol. The arity is the fixed
    number of process ids the kind carries, an int of at least 0. A member
    that breaks either raises ValueError as the protocol module declares it.
    """

    # Members are singletons compared by identity; hash them the same way
    # instead of by Enum's Python-level hash of the member name.
    __hash__ = object.__hash__

    def __init__(self, code: str, arity: int):
        # members are made in declaration order: `__members__` holds the earlier ones
        if (type(code) is not str or not code.isprintable() or code.split() != [code]
                or not set(code).isdisjoint('()[],"\\')
                or any(code == kind.code for kind in type(self).__members__.values())):
            raise ValueError(f"{self.name}: code {code!r} must be a non-empty printable str free "
                             f"of '()[],\"\\' and whitespace, and unlike every earlier kind's")
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
    `_check_bound`. On `state_checker`'s defaults, what passes hashes and
    has no twin `==` cannot tell apart (`True == 1`, a tuple equal to a
    `Message`)."""
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
        _check_bound(pid, proc, n, queue_capacity)


def _check_bound(pid: int, proc, n: int, queue_capacity: int) -> None:
    """What a search adds to `_check_like`: QueueOverflowError for a queue
    over `queue_capacity`, else `proc.check(n)`'s ValueError, naming `pid`.
    All an append needs: its target passed `_check_like` before the table
    took it, and its message passed with the sends of the effect that sent it."""
    if len(proc.queue) > queue_capacity:
        raise QueueOverflowError(f"queue of process {pid} is over capacity {queue_capacity}")
    try:
        proc.check(n)
    except ValueError as err:
        raise ValueError(f"process {pid}: {err}") from err


def state_checker(initial: State, queue_capacity: int) -> Callable[[State], State]:
    """The well-formedness check of one search from `initial`. It needs a
    capacity of at least 1 and a first process whose type defaults `queue` to
    `()` and every other field to exactly an `int` or a member of an `Enum`
    whose members' lower-case names differ (else ValueError), pins
    `n = len(initial)`, that type and its defaults' types, and checks
    `initial` before it returns, so a checker has passed its own state.
    `check(state)` returns `state` if it is a tuple of `n` processes that
    pass `_check_like` against the pinned defaults and the capacity, else
    raises its error for the first failing pid. It checks each process object
    once: a set keeps the `id` of each that passed (and a list holds the
    object, so its id is never reused); by identity, since `True == 1`."""
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
        written: dict = {}  # `process_fields` writes a member by its lower-case name
        for member in type(default) if isinstance(default, Enum) else ():
            if written.setdefault(member.name.lower(), member) is not member:
                raise ValueError(f"{first.__name__}.{name}: {written[member.name.lower()]!r} "
                                 f"and {member!r} both write as {member.name.lower()!r}")
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


def _effect(step: Callable, proc, pid: int) -> tuple:
    """`step(proc, pid)`, refused (ValueError) unless it is a pair
    `(process, ((target, message), ...))` whose sends are a tuple of pairs."""
    effect = step(proc, pid)
    if (type(effect) is not tuple or len(effect) != 2 or type(effect[1]) is not tuple
            or any(type(send) is not tuple or len(send) != 2 for send in effect[1])):
        raise ValueError(f"process {pid}: a step gives (process, ((target, "
                         f"message), ...)), not {effect!r}")
    return effect


class memoized_apply:
    """A rule's apply for calls outside a search: its local step, kept as
    `__wrapped__`, made state-level. It keeps each effect per (pid, process)
    and each append per (target process, message) once the process it makes
    passes `_check_like`, the effect's with its sends, and shares every
    process a rule does not change, by identity. It knows no queue bound and
    no `check(n)`: a search makes a `StepMemo` of `__wrapped__` instead. The
    memo is for the callers that apply one edge at a time, the oracle and
    the benchmark's traced rounds: over barrier N=12's 49,164 fired edges it
    takes 50 ms, against 233 ms without it."""

    def __init__(self, step: Callable):
        self.__wrapped__ = step
        self.effects: dict = {}
        self.appends: dict = {}

    def __call__(self, state: State, pid: int) -> State:
        proc = state[pid]
        effect = self.effects.get((pid, proc))
        if effect is None:
            effect = _effect(self.__wrapped__, proc, pid)
            # the sends here, as `appends` may hold a twin's append under its equal
            _check_like(pid, effect[0], proc, len(state), sends=effect[1])
            self.effects[pid, proc] = effect
        procs = list(state)
        procs[pid], sends = effect
        for to, message in sends:
            target = procs[to]
            appended = self.appends.get((target, message))
            if appended is None:
                appended = target._replace(queue=target.queue + (message,))
                _check_like(to, appended, target, len(state))
                self.appends[target, message] = appended
            procs[to] = appended
        return tuple(procs)


class ProcessTable:
    """One search's processes, each distinct one held once per pid, as
    SPIN's collapse compression holds them: `procs[pid]` lists them by
    index and `index[pid]` maps each back to its index, by value. A state's
    key is the tuple of its processes' indices (`canonical_encode`). `check`
    is the search's `state_checker`, which has checked the initial state.
    The table makes the search's memoized moves: a step's effect at a pid
    (`effect`) and a message's append at a pid (`append`), each from and to
    indices; `appends` holds the append memo of each (pid, message)."""

    def __init__(self, initial: State, queue_capacity: int):
        self.check = state_checker(initial, queue_capacity)
        self.n, self.queue_capacity = len(initial), queue_capacity
        self.procs: list[list] = [[] for _ in initial]
        self.index: list[dict] = [{} for _ in initial]
        self.appends: dict = {}

    def intern(self, pid: int, proc) -> int:
        """The index at `pid` of `proc`, which must have passed `_check_like`:
        a new one, the count taken so far, on first sight."""
        index = self.index[pid]
        i = index.get(proc)
        if i is None:
            procs = self.procs[pid]
            i = index[proc] = len(procs)
            procs.append(proc)
        return i

    def decode(self, key) -> State:
        """The state of `key`, made of the table's own process objects."""
        return tuple(map(list.__getitem__, self.procs, key))

    def texts(self) -> list["_Memo"]:
        """Fresh memos, one per pid, of index -> the `render_process` text of
        the process there, each made on the first lookup: what `render_state`
        looks a key's texts up in."""
        return [_Memo(lambda index, procs=procs: render_process(procs[index]))
                for procs in self.procs]

    def effect(self, step: Callable, pid: int, index: int) -> tuple:
        """`step`'s effect on process `index` at `pid`: the index of the
        process it makes, taken once it passes `_check_like` with the sends,
        and ((target, the append memo of its message there), ...) for the
        sends, in order."""
        proc = self.procs[pid][index]
        new, sends = _effect(step, proc, pid)
        _check_like(pid, new, proc, self.n, self.queue_capacity, sends)
        return self.intern(pid, new), tuple([(to, self.appended(to, message))
                                             for to, message in sends])

    def appended(self, pid: int, message: Message) -> "_Memo":
        """The memo of `message`'s appends at `pid`: index -> index."""
        memo = self.appends.get((pid, message))
        if memo is None:
            memo = self.appends[pid, message] = _Memo(partial(self.append, pid, message))
        return memo

    def append(self, pid: int, message: Message, index: int) -> int:
        """The index of process `index` at `pid` with `message` at its
        queue's tail, taken once it passes `_check_bound`."""
        target = self.procs[pid][index]
        appended = target._replace(queue=target.queue + (message,))
        _check_bound(pid, appended, self.n, self.queue_capacity)
        return self.intern(pid, appended)


class _Memo(dict):
    """index -> `make(index)`, made on the first lookup and kept once made;
    what raises is not kept."""

    __slots__ = ("make",)

    def __init__(self, make: Callable[[int], object]):
        self.make = make

    def __missing__(self, index: int):
        made = self[index] = self.make(index)
        return made


class StepMemo:
    """A rule's apply in one search: `effects[pid]` memoizes its step's
    `ProcessTable.effect` at `pid`, by index. `move` applies it to a key,
    as `explore` does in its own loop; a call applies it to a state whose
    processes the table's checker passes, as `replay` does."""

    __slots__ = ("table", "effects")

    def __init__(self, table: ProcessTable, step: Callable):
        self.table = table
        self.effects = [_Memo(partial(table.effect, step, pid)) for pid in range(table.n)]

    def move(self, key: tuple, pid: int) -> tuple:
        """The successor's key: the effect at `pid`, then each send's append
        at its target, each looked up by index."""
        succ = list(key)
        succ[pid], sends = self.effects[pid][key[pid]]
        for to, appends in sends:
            succ[to] = appends[succ[to]]
        return tuple(succ)

    def __call__(self, state: State, pid: int) -> State:
        table = self.table
        return table.decode(self.move(canonical_encode(table.check(state), table), pid))


def checked_applies(initial: State, queue_capacity: int, applies) -> tuple[list, ProcessTable]:
    """One search's applies from `initial`, and the `ProcessTable` they
    share, whose checker has checked `initial`. A `memoized_apply` (known
    by its type, which no wrapper copies) becomes a `StepMemo` of its step;
    any other apply is followed by the table's checker on each state it gives."""
    table = ProcessTable(initial, queue_capacity)
    return [StepMemo(table, apply.__wrapped__) if type(apply) is memoized_apply
            else lambda state, pid, apply=apply: table.check(apply(state, pid))
            for apply in applies], table


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


def render_state(state: State, texts: Optional[list] = None) -> str:
    """Compact one-line rendering, for trace lines and DOT nodes alike: each
    process's `render_process`, joined by spaces. Given a table's `texts()`,
    `state` is a key, and each process's text is looked up by its index."""
    if texts is None:
        return " ".join(map(render_process, state))
    return " ".join(map(dict.__getitem__, texts, state))


def canonical_encode(state: State, table: ProcessTable) -> tuple:
    """The visited-set key of `state`, whose processes passed the table's
    checks: the tuple of each one's index in `table` at its pid, interned
    on first sight. `explore` calls it on the initial state and on each
    state an apply that is no step memo gives, as the hook a benchmark
    wraps; a step memo's move makes its successor's key from keys.

    The key is injective by construction. At each pid the table gives each
    distinct process its own index and maps the index back, so two states
    have one key exactly when they are equal at every pid, and `decode`
    inverts it. Equal means alike, as the table takes only a process that
    passed `_check_like`, which leaves no twins (`True` for `1`, a plain
    tuple for a `Message`). An index is an exact `int`, so the key has no
    width to outgrow."""
    key = tuple(map(dict.get, table.index, state))
    return key if None not in key else tuple(map(table.intern, range(len(state)), state))
