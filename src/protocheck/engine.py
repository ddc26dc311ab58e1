"""Exhaustive reachability search over a protocol model.

The search derives every state reachable from the initial state through the
model's guarded transition rules, deduplicating by the state itself (the
tuple of process states); no state is rendered during a search. Each new
state is checked the moment it is generated, by the search's one
`state_checker` and then against the invariant; each terminal state against
the postcondition the moment it is popped. Exploration is sequential and
fully deterministic, so all counts are reproducible run to run.
"""

import reprlib
import time
from array import array
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, ClassVar, Optional

from .state import QueueOverflowError, State, canonical_encode, state_checker


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
    `state.memoized_apply`. Guards run stored x rules x N times a search, so
    they are plain functions that compare with module-level Enum aliases; on
    barrier, putting the most often false test first measured faster.
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
    """Counts and timing of one run. `peak_memory_estimate` is a rough figure
    in bytes, a fixed cost per stored state, not a measurement."""

    states_stored: int = 0
    states_matched: int = 0
    transitions_fired: int = 0
    max_frontier: int = 0
    elapsed: float = 0.0
    peak_memory_estimate: int = 0


@dataclass(frozen=True)
class ExploreConfig:
    """Search order, limits and observer, checked when built: an `int` state
    limit and an `int` or `float` time limit (never a `bool`), both positive,
    not NaN, and a callable `observe` or None.

    `observe` is passed the ids (source, rule index, pid, target) of the
    transitions each expanded state fires, flat and in firing order, once per
    state that fires any; a search stopped mid-state passes the part fired.
    The list is reused: an observer copies what it keeps (`array.fromlist`).
    """

    search_order: str = "bfs"  # "bfs" or "dfs"
    max_states: int = 10_000_000
    max_seconds: float = 600.0
    observe: Optional[Callable[[list[int]], None]] = None

    def __post_init__(self):
        if self.search_order not in ("bfs", "dfs"):
            raise ValueError(f"unknown search order {reprlib.repr(self.search_order)}")
        if type(self.max_states) is not int or type(self.max_seconds) not in (int, float):
            raise ValueError("max_states must be an int and max_seconds a number")
        if not (self.max_states >= 1 and self.max_seconds > 0):
            raise ValueError("limits must be positive")
        if self.observe is not None and not callable(self.observe):
            raise ValueError("observe must be callable")


# Rough per-stored-state bookkeeping cost (dict slot, list slots, object
# headers), the whole memory estimate; the states themselves are left out.
_STATE_OVERHEAD = 112


@dataclass
class ExplorationResult:
    """What a search found, indexed by state id (the order of storing).

    `parents` packs three ids per stored state in one `array('q')`: the id
    of the state it was first generated from, the index in `rule_names` of
    the rule that generated it, and the pid; all three are -1 for the initial
    state, id 0. A state's depth is the length of its parent chain, the
    shortest distance only under BFS. Fired transitions go only to
    `ExploreConfig.observe`. `initial_count` is always 1.
    """

    verdict: Verdict
    stats: RunStats
    witness: Optional[int]
    terminal_states: list[int]
    states: list[State]
    parents: array
    rule_names: tuple[str, ...]
    initial_count: int


@dataclass(frozen=True)
class TraceStep:
    """One trace entry: the rule and pid that produced `state`.

    The first step of a trace carries no rule (its state is the initial one).
    """

    rule: Optional[str]
    pid: Optional[int]
    state: State


def explore(model: ProtocolModel, config: ExploreConfig | None = None) -> ExplorationResult:
    """Derive and store every reachable state of `model`.

    Successors of each stored state are generated by iterating rules in
    declaration order and pids in ascending order; this fixes the traversal
    (and therefore the statistics) but never the reachable set. Under BFS a
    violating witness is found at minimal distance from the initial state.

    The search stops at the first invariant or postcondition violation, at a
    limit, or at the fixed point. A new successor over the queue bound is
    reported as its own verdict, with the state it was generated from as
    witness; any exception out of a rule, or an ill-formed state
    (`state_checker`, the initial state included), is a modeling bug and
    propagates. `replay` confirms a trace's verdict with this search too.
    """
    cfg = config or ExploreConfig()

    start = time.perf_counter()
    rule_names = tuple(rule.name for rule in model.rules)
    init = model.initial_state
    # the initial state is stored as id 0, with no parent
    states: list[State] = [init]
    parents = array("q", (-1, -1, -1))
    visited: dict[State, int] = {}
    terminal: list[int] = []
    observe = cfg.observe
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
            stats=RunStats(states_stored=len(states), states_matched=matched,
                           transitions_fired=len(states) - 1 + matched,
                           max_frontier=max_frontier, elapsed=time.perf_counter() - start,
                           peak_memory_estimate=_STATE_OVERHEAD * len(states)),
            witness=witness,
            terminal_states=terminal,
            states=states,
            parents=parents,
            rule_names=rule_names,
            initial_count=1,
        )

    # `visited` maps each state to its id, reserved with one setdefault, so
    # each state is stored once. The key is read from the module per call, not
    # at import, so a wrapper set on `canonical_encode` sees every call.
    encode, invariant = canonical_encode, model.invariant
    check = state_checker(init, model.queue_capacity)
    check(init)
    visited[encode(init)] = 0
    if not invariant(init):
        return finish(Verdict.INVARIANT_VIOLATED, witness=0)

    # looked up once here, not per (state, rule, pid); the loop inlines `enabled_at`
    rules = [(r, rule.enabled, rule.gate, rule.apply) for r, rule in enumerate(model.rules)]
    pids = range(len(init))
    pop = frontier.popleft if cfg.search_order == "bfs" else frontier.pop
    reserve, push = visited.setdefault, frontier.append
    add_state, add_parent = states.append, parents.extend
    max_states, max_seconds, clock = cfg.max_states, cfg.max_seconds, time.perf_counter
    while frontier:
        if len(frontier) > max_frontier:
            max_frontier = len(frontier)
        if clock() - start > max_seconds:
            return finish(Verdict.LIMIT_EXCEEDED)
        sid = pop()
        state = states[sid]
        fired = False
        for r, enabled, gate, apply in rules:
            for pid in pids:
                if not enabled(state[pid], pid) or gate is not None and not gate(state, pid):
                    continue
                fired = True
                succ = apply(state, pid)
                fresh_id = len(states)
                tid = reserve(encode(succ), fresh_id)
                fresh = tid == fresh_id
                if fresh:
                    try:
                        check(succ)
                    except QueueOverflowError:
                        return finish(Verdict.QUEUE_OVERFLOW, witness=sid)
                    if fresh_id >= max_states:
                        return finish(Verdict.LIMIT_EXCEEDED)
                    add_state(succ)
                    add_parent((sid, r, pid))
                    push(fresh_id)
                else:
                    matched += 1
                if observe is not None:
                    fired_edges += (sid, r, pid, tid)
                if fresh and not invariant(succ):
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

