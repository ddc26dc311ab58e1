"""Exhaustive reachability search over a protocol model.

The search derives every state reachable from the initial states through the
model's guarded transition rules, deduplicating by the state itself (the
tuple of process states); no state is rendered during a search. Each new
state is checked for well-formedness and the model's queue bound
(`check_state`) and against the invariant the moment it is generated; each
terminal state is checked against the postcondition the moment it is popped.
Exploration is sequential and fully deterministic, so all counts are
reproducible run to run.
"""

import time
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from .state import QueueOverflowError, State, canonical_encode, check_state


class Verdict(Enum):
    VERIFIED = "verified"
    INVARIANT_VIOLATED = "invariant_violated"
    POSTCONDITION_VIOLATED = "postcondition_violated"
    QUEUE_OVERFLOW = "queue_overflow"
    LIMIT_EXCEEDED = "limit_exceeded"


@dataclass(frozen=True)
class TransitionRule:
    """A guarded successor function, parameterized by process id.

    `apply` must only be invoked on (state, pid) pairs where `enabled` holds,
    and must be deterministic; both are pure.
    """

    name: str
    enabled: Callable[[State, int], bool]
    apply: Callable[[State, int], State]


@dataclass(frozen=True)
class ProtocolModel:
    """A protocol as a transition system plus its correctness properties.

    `queue_capacity` bounds every process's input queue in every state; a
    state over it ends the search with a queue-overflow verdict.
    """

    name: str
    queue_capacity: int
    initial_states: tuple[State, ...]
    rules: tuple[TransitionRule, ...]
    invariant: Callable[[State], bool]
    terminal_postcondition: Callable[[State], bool]

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
    search_order: str = "bfs"  # "bfs" or "dfs"
    max_states: int = 10_000_000
    max_seconds: float = 600.0
    record_edges: bool = False


# One fired transition: (source id, rule name, pid, target id).
Edge = tuple[int, str, int, int]

# Rough per-stored-state bookkeeping cost (dict slot, list slots, object
# headers), the whole memory estimate; the states themselves are left out.
_STATE_OVERHEAD = 112


@dataclass
class ExplorationResult:
    verdict: Verdict
    stats: RunStats
    witness: Optional[int]
    terminal_states: list[int]
    states: list[State]
    parents: list[Optional[tuple[int, str, int]]]
    depths: list[int]
    initial_count: int
    edges: Optional[list[Edge]] = None


@dataclass(frozen=True)
class TraceStep:
    """One trace entry: the rule and pid that produced `state`.

    The first step of a trace carries no rule (its state is an initial one).
    """

    rule: Optional[str]
    pid: Optional[int]
    state: State


def explore(model: ProtocolModel, config: ExploreConfig | None = None) -> ExplorationResult:
    """Derive and store every reachable state of `model`.

    Successors of each stored state are generated by iterating rules in
    declaration order and pids in ascending order; this fixes the traversal
    (and therefore the statistics) but never the reachable set. Under BFS a
    violating witness is found at minimal distance from an initial state.

    The search stops at the first invariant or postcondition violation, at a
    limit, or at the fixed point. A new successor over the queue bound is
    reported as its own verdict, with the state it was generated from as
    witness; any exception out of a rule, or an ill-formed state
    (`check_state`, initial states included), is a modeling bug and
    propagates.
    """
    cfg = config or ExploreConfig()
    if cfg.search_order not in ("bfs", "dfs"):
        raise ValueError(f"unknown search order {cfg.search_order!r}")
    if cfg.max_states < 1 or cfg.max_seconds <= 0:
        raise ValueError("limits must be positive")
    if model.queue_capacity < 1:
        raise ValueError("queue capacity must be positive")
    sizes = {len(init) for init in model.initial_states}
    if len(sizes) > 1:
        raise ValueError("initial states differ in process count")
    capacity = model.queue_capacity

    start = time.perf_counter()
    stats = RunStats()
    states: list[State] = []
    parents: list[Optional[tuple[int, str, int]]] = []
    depths: list[int] = []
    visited: dict[State, int] = {}
    terminal: list[int] = []
    edges: Optional[list[Edge]] = [] if cfg.record_edges else None
    frontier: deque[int] = deque()
    initial_count = 0

    def finish(verdict: Verdict, witness: Optional[int] = None) -> ExplorationResult:
        stats.states_stored = len(states)
        stats.elapsed = time.perf_counter() - start
        stats.peak_memory_estimate = _STATE_OVERHEAD * len(states)
        return ExplorationResult(
            verdict=verdict,
            stats=stats,
            witness=witness,
            terminal_states=terminal,
            states=states,
            parents=parents,
            depths=depths,
            initial_count=initial_count,
            edges=edges,
        )

    # `visited` maps each state to its id. The caller reserves a new state's
    # id there with one setdefault before `store`, so each is stored once.
    def store(s: State, parent: Optional[tuple[int, str, int]]) -> None:
        states.append(s)
        parents.append(parent)
        depths.append(0 if parent is None else depths[parent[0]] + 1)
        frontier.append(len(states) - 1)

    for init in model.initial_states:
        sid = len(states)
        if visited.setdefault(canonical_encode(init), sid) != sid:
            continue
        check_state(init, capacity)
        store(init, None)
        initial_count = len(states)
        if not model.invariant(init):
            return finish(Verdict.INVARIANT_VIOLATED, witness=sid)

    # looked up once here, not once per (state, rule, pid) in the loop
    rules = [(rule.name, rule.enabled, rule.apply) for rule in model.rules]
    pids = range(max(sizes, default=0))
    pop = frontier.popleft if cfg.search_order == "bfs" else frontier.pop
    reserve = visited.setdefault
    while frontier:
        if time.perf_counter() - start > cfg.max_seconds:
            return finish(Verdict.LIMIT_EXCEEDED)
        if len(frontier) > stats.max_frontier:
            stats.max_frontier = len(frontier)
        sid = pop()
        state = states[sid]
        fired = False
        for name, enabled, apply in rules:
            for pid in pids:
                if not enabled(state, pid):
                    continue
                fired = True
                succ = apply(state, pid)
                fresh_id = len(states)
                tid = reserve(canonical_encode(succ), fresh_id)
                fresh = tid == fresh_id
                if fresh:
                    try:
                        check_state(succ, capacity)
                    except QueueOverflowError:
                        return finish(Verdict.QUEUE_OVERFLOW, witness=sid)
                    if fresh_id >= cfg.max_states:
                        return finish(Verdict.LIMIT_EXCEEDED)
                    store(succ, (sid, name, pid))
                else:
                    stats.states_matched += 1
                stats.transitions_fired += 1
                if edges is not None:
                    edges.append((sid, name, pid, tid))
                if fresh and not model.invariant(succ):
                    return finish(Verdict.INVARIANT_VIOLATED, witness=tid)
        if not fired:
            terminal.append(sid)
            if not model.terminal_postcondition(state):
                return finish(Verdict.POSTCONDITION_VIOLATED, witness=sid)
    return finish(Verdict.VERIFIED)


def reconstruct_trace(result: ExplorationResult, target: int) -> list[TraceStep]:
    """Path of states from an initial state to `target`, via the parent map.

    Each step's state equals the named rule applied at the named pid to the
    previous step's state; the first step is an initial state with no rule.
    """
    if not 0 <= target < len(result.states):
        raise KeyError(f"unknown state id {target}")
    steps: list[TraceStep] = []
    sid = target
    while True:
        parent = result.parents[sid]
        if parent is None:
            steps.append(TraceStep(None, None, result.states[sid]))
            break
        parent_id, rule_name, pid = parent
        steps.append(TraceStep(rule_name, pid, result.states[sid]))
        sid = parent_id
    steps.reverse()
    return steps

