"""Exhaustive reachability search over a protocol model.

The search derives every state reachable from the initial state through the
model's guarded transition rules, deduplicating by the state itself (the
tuple of process states); no state is rendered during a search. A state's
moves come from a per-search move table, one dict per pid keyed by the
process there, so a guard is asked once per (pid, process) where every
rule's apply is a step memo, else once per (state, rule, pid). Each
process is checked where a rule's step makes it, in the search's own memos
(`state.checked_applies`), each new state then against the invariant, and
each terminal state against the postcondition the moment it is popped.
Exploration is sequential and deterministic, so counts repeat run to run.
`replay` and `tests/oracle.py` never read the table: they call each rule's
`enabled_at`.
"""

import reprlib
import sys
import time
from array import array
from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import Any, Callable, ClassVar, Optional

from .state import (QueueOverflowError, State, canonical_encode, checked_applies,
                    memoized_apply)


class Verdict(Enum):
    VERIFIED = "verified"
    INVARIANT_VIOLATED = "invariant_violated"
    POSTCONDITION_VIOLATED = "postcondition_violated"
    QUEUE_OVERFLOW = "queue_overflow"
    LIMIT_EXCEEDED = "limit_exceeded"


@dataclass(frozen=True)
class TransitionRule:
    """A guarded successor function, parameterized by process id.

    The guard `enabled(proc, pid)` reads only the process at `pid`; an
    optional `gate(state, pid)`, tested where the guard holds, reads the
    whole state (only ring `ordered`'s `begin_insert` has one). `apply` may
    only be invoked where `enabled_at` holds; all three are pure and
    deterministic. A protocol's `apply` is a local step made state-level by
    `state.memoized_apply`. `explore` asks each guard once per distinct
    (pid, process) when every rule's apply is such a memo, else stored x
    rules x N times a search; guards are plain functions that compare with
    module-level Enum aliases, and on barrier, putting the most often false
    test first measured faster.
    """

    name: str
    enabled: Callable[[Any, int], bool]
    apply: Callable[[State, int], State]
    gate: Optional[Callable[[State, int], bool]] = None

    def enabled_at(self, state: State, pid: int) -> bool:
        """The guard, then the gate: whether the rule fires at `pid` in `state`."""
        return self.enabled(state[pid], pid) and (self.gate is None or self.gate(state, pid))


@dataclass(frozen=True)
class ModelConfig:
    """The options every protocol takes, resolved and checked when built: an
    unset `variant` is `VARIANTS[0]`, an unset `queue_capacity` `size + 2`.
    Equal configs describe the same run; `dataclasses.replace(cfg, size=...)`
    keeps `cfg`'s resolved queue bound. A protocol's config only sets
    `VARIANTS`, the default first, and `MUTATIONS`, its seeded bugs."""

    VARIANTS: ClassVar[tuple[str, ...]] = ()
    MUTATIONS: ClassVar[tuple[str, ...]] = ()

    size: int
    variant: Optional[str] = None
    queue_capacity: Optional[int] = None
    mutation: Optional[str] = None

    def __post_init__(self):
        if self.variant is None and self.VARIANTS:
            object.__setattr__(self, "variant", self.VARIANTS[0])
        if self.queue_capacity is None and type(self.size) is int:
            object.__setattr__(self, "queue_capacity", self.size + 2)
        if type(self.size) is not int or type(self.queue_capacity) is not int:
            raise ValueError("process count and queue capacity must be ints")
        if self.size < 1:
            raise ValueError("process count must be at least 1")
        if self.size > sys.maxsize:  # the most processes a tuple can hold
            raise ValueError(f"process count must be at most {sys.maxsize}")
        if self.variant not in self.VARIANTS:
            raise ValueError(f"unknown variant {reprlib.repr(self.variant)}; "
                             f"choose from {', '.join(self.VARIANTS)}")
        if self.queue_capacity < 1:
            raise ValueError("queue capacity must be positive")
        if self.mutation is not None and self.mutation not in self.MUTATIONS:
            raise ValueError(f"unknown mutation {reprlib.repr(self.mutation)}")


@dataclass(frozen=True)
class ProtocolModel:
    """A protocol as a transition system plus its correctness properties.

    The search starts from `initial_state`. `queue_capacity` bounds every
    process's input queue in every state; a state over it ends the search
    with a queue-overflow verdict.
    """

    queue_capacity: int
    initial_state: State
    rules: tuple[TransitionRule, ...]
    invariant: Callable[[State], bool]
    terminal_postcondition: Callable[[State], bool]

    def __post_init__(self):
        names = [rule.name for rule in self.rules]  # a trace names its rules
        if len(set(names)) < len(names):
            raise ValueError(f"two rules are named {max(names, key=names.count)!r}")

    def rule_named(self, name: str) -> TransitionRule:
        for rule in self.rules:
            if rule.name == name:
                return rule
        raise KeyError(f"no rule named {name!r}")


@dataclass
class RunStats:
    """What one search measured: the states it stored and matched, its peak
    frontier and its time. The other figures are derived from these."""

    states_stored: int
    states_matched: int
    max_frontier: int
    elapsed: float

    @property
    def transitions_fired(self) -> int:
        """Each fired transition stored or matched a state; the initial state was not fired."""
        return self.states_stored - 1 + self.states_matched

    @property
    def peak_memory_estimate(self) -> int:
        """A rough figure in bytes, not a measurement: 112 B of bookkeeping per
        stored state (dict slot, list slots, object headers), the states left out."""
        return 112 * self.states_stored


@dataclass(frozen=True)
class ExploreConfig:
    """Search order, limits and observer, checked when built: a `search` of
    `SEARCHES` (default first), an `int` state limit and an `int` or `float`
    time limit (never a `bool`), both positive, not NaN, and `observe` callable or None.

    `observe` is passed the ids (source, rule index, pid, target) of the
    transitions each expanded state fires, flat and in firing order, once per
    state that fires any; a search stopped mid-state passes the part fired.
    The list is reused: an observer copies what it keeps (`array.fromlist`).
    """

    SEARCHES: ClassVar[tuple[str, ...]] = ("bfs", "dfs")
    search: str = SEARCHES[0]
    max_states: int = 10_000_000
    max_seconds: float = 600.0
    observe: Optional[Callable[[list[int]], None]] = None

    def __post_init__(self):
        if self.search not in self.SEARCHES:
            raise ValueError(f"unknown search order {reprlib.repr(self.search)}; "
                             f"choose from {', '.join(self.SEARCHES)}")
        if type(self.max_states) is not int or type(self.max_seconds) not in (int, float):
            raise ValueError("max_states must be an int and max_seconds a number")
        if not (self.max_states >= 1 and self.max_seconds > 0):
            raise ValueError("limits must be positive")
        if self.observe is not None and not callable(self.observe):
            raise ValueError("observe must be callable")


@dataclass
class ExplorationResult:
    """What a search found, indexed by state id (the order of storing).

    `parents` packs three ids per stored state in one `array('q')`: the id
    of the state it was first generated from, the index in `rule_names` of
    the rule that generated it, and the pid; all three are -1 for the initial
    state, id 0. A state's depth is the length of its parent chain, the
    shortest distance only under BFS. Fired transitions go only to
    `ExploreConfig.observe`. A search starts from one initial state.
    """

    initial_count: ClassVar[int] = 1

    verdict: Verdict
    stats: RunStats
    witness: Optional[int]
    terminal_states: list[int]
    states: list[State]
    parents: array
    rule_names: tuple[str, ...]


@dataclass(frozen=True)
class TraceStep:
    """One trace entry: the rule and pid that produced `state`.

    The first step of a trace carries no rule (its state is the initial one).
    """

    rule: Optional[str]
    pid: Optional[int]
    state: State


class _MoveTable(dict):
    """One search's moves at one pid, keyed by the process there: the codes
    `r * N + pid`, ascending, of the rules `r` whose guard holds for it. A
    miss asks every rule's guard, and the answer is kept only if `keep`."""

    __slots__ = ("pid", "guards", "keep")

    def __init__(self, pid: int, guards: list, keep: bool):
        self.pid, self.guards, self.keep = pid, guards, keep

    def __missing__(self, proc) -> tuple[int, ...]:
        pid = self.pid
        codes = tuple([code for code, enabled in self.guards if enabled(proc, pid)])
        if self.keep:
            self[proc] = codes
        return codes


def explore(model: ProtocolModel, config: ExploreConfig = ExploreConfig()) -> ExplorationResult:
    """Derive and store every reachable state of `model`.

    Successors of each stored state are generated by iterating rules in
    declaration order and pids in ascending order; this fixes the traversal
    (and therefore the statistics) but never the reachable set. Under BFS a
    violating witness is found at minimal distance from the initial state.

    A popped state's moves are the codes its processes have in the move
    table, one `_MoveTable` per pid, sorted: rule first, then pid. A gate is
    tested per (state, pid) where its guard holds. A guard reads only its
    process and pid, and `_check_like` leaves no twins among the processes
    a search holds, so an answer may be kept per process value. The table
    keeps its answers only when every rule's apply is a `memoized_apply`:
    any other apply (a hand-written one, or the benchmark's traced
    wrappers) makes it ask every guard per state, as the traced rounds'
    call identities expect. ROADMAP item 2 deletes that branch once the
    wrappers go. A state's guards are all asked before its first move
    fires, so a guard's error can surface before a lower rule's move in the
    same state fires; no sound model's verdict depends on it.

    The search stops at the first invariant or postcondition violation, at a
    limit, or at the fixed point. A successor over the queue bound is
    reported as its own verdict, with the state it was generated from as
    witness. Every other error of the model is a `ValueError`, out of a rule
    or the checks of `state.checked_applies`, which pass only states that
    hash. `replay` confirms a trace's verdict with this search too.
    """
    start = time.perf_counter()
    rule_names = tuple(rule.name for rule in model.rules)
    init = model.initial_state
    # the initial state is stored as id 0, with no parent
    states: list[State] = [init]
    parents = array("q", (-1, -1, -1))
    visited: dict[State, int] = {}
    terminal: list[int] = []
    observe = config.observe
    # the edges fired from the state being expanded, passed to `observe` as a
    # batch: one list append per edge is much cheaper than a call per edge
    fired_edges: list[int] = []
    frontier: deque[int] = deque((0,))
    matched = max_frontier = 0  # each fired transition stores or matches a state

    def finish(verdict: Verdict, witness: Optional[int] = None) -> ExplorationResult:
        if fired_edges:
            observe(fired_edges)
        return ExplorationResult(
            verdict=verdict,
            stats=RunStats(len(states), matched, max_frontier, time.perf_counter() - start),
            witness=witness,
            terminal_states=terminal,
            states=states,
            parents=parents,
            rule_names=rule_names,
        )

    # `visited` maps each state to its id, reserved by one setdefault. The key
    # is read from the module per call, so a wrapper on `canonical_encode` sees
    # every call; `tuple` in its place measured only 0.4% faster.
    encode, invariant = canonical_encode, model.invariant
    applies = checked_applies(init, model.queue_capacity, [rule.apply for rule in model.rules])
    visited[encode(init)] = 0  # `checked_applies` has checked it, so it hashes
    if not invariant(init):
        return finish(Verdict.INVARIANT_VIOLATED, witness=0)

    # code r * N + pid -> what firing rule r at pid needs, looked up once here
    n = len(init)
    moves = [(r, pid, rule.gate, applies[r]) for r, rule in enumerate(model.rules)
             for pid in range(n)]
    keep = all(type(rule.apply) is memoized_apply for rule in model.rules)
    tables = [_MoveTable(pid, [(r * n + pid, rule.enabled) for r, rule in enumerate(model.rules)],
                         keep) for pid in range(n)]
    getitem, move = dict.__getitem__, moves.__getitem__
    pop = frontier.popleft if config.search == "bfs" else frontier.pop
    reserve, push = visited.setdefault, frontier.append
    add_state, add_parent = states.append, parents.extend
    max_states, max_seconds, clock = config.max_states, config.max_seconds, time.perf_counter
    fresh_id = 1  # the id the next new state gets: len(states), kept by hand
    while frontier:
        if len(frontier) > max_frontier:
            max_frontier = len(frontier)
        if clock() - start > max_seconds:
            return finish(Verdict.LIMIT_EXCEEDED)
        sid = pop()
        state = states[sid]
        fired = False
        codes = sorted(chain.from_iterable(map(getitem, tables, state)))
        for r, pid, gate, apply in map(move, codes):
            if gate is not None and not gate(state, pid):
                continue
            fired = True
            try:
                succ = apply(state, pid)
            except QueueOverflowError:  # a new successor: no stored state is over it
                return finish(Verdict.QUEUE_OVERFLOW, witness=sid)
            tid = reserve(encode(succ), fresh_id)
            if tid != fresh_id:  # most transitions match a stored state
                matched += 1
                if observe is not None:
                    fired_edges += (sid, r, pid, tid)
                continue
            if fresh_id >= max_states:
                return finish(Verdict.LIMIT_EXCEEDED)
            add_state(succ)
            add_parent((sid, r, pid))
            push(fresh_id)
            fresh_id += 1
            if observe is not None:
                fired_edges += (sid, r, pid, tid)
            if not invariant(succ):
                return finish(Verdict.INVARIANT_VIOLATED, witness=tid)
        if fired_edges:
            observe(fired_edges)
            fired_edges.clear()
        if not fired:
            terminal.append(sid)
            if not model.terminal_postcondition(state):
                return finish(Verdict.POSTCONDITION_VIOLATED, witness=sid)
    return finish(Verdict.VERIFIED)


def reconstruct_trace(result: ExplorationResult, target: int) -> list[TraceStep]:
    """Path of states from the initial state to `target`, via the parent map.

    Each step's state equals the named rule applied at the named pid to the
    previous step's state; the first step is the initial state, with no rule.
    """
    if not 0 <= target < len(result.states):
        raise KeyError(f"unknown state id {target}")
    parents = result.parents
    steps: list[TraceStep] = []
    sid = target
    while True:
        parent_id, rule, pid = parents[3 * sid:3 * sid + 3]
        if parent_id < 0:
            steps.append(TraceStep(None, None, result.states[sid]))
            break
        steps.append(TraceStep(result.rule_names[rule], pid, result.states[sid]))
        sid = parent_id
    steps.reverse()
    return steps

