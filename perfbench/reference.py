"""The benchmark's speed reference: a fixed breadth-first search, timed beside each round.

The host's speed drifts by tens of percent within seconds, so the benchmark
reports round times in units of this search's time, measured right before and
right after the round. The search does the same kind of interpreter work as
the program (tuple states, string keys, a dict of visited keys, a deque
frontier) but is fixed: no change to the program changes it.
"""

from collections import deque
from typing import NamedTuple


class Proc(NamedTuple):
    phase: int
    inbox: tuple


def _encode(state):
    return ";".join(f"{p.phase}:{','.join(map(str, p.inbox))}" for p in state).encode("ascii")


def _successors(state):
    n = len(state)
    for pid, p in enumerate(state):
        if p.phase < 2:
            dest = (pid + 1 + p.phase) % n
            if len(state[dest].inbox) < 2:
                procs = list(state)
                procs[pid] = p._replace(phase=p.phase + 1)
                procs[dest] = procs[dest]._replace(inbox=procs[dest].inbox + (pid,))
                yield tuple(procs)
        if p.inbox:
            procs = list(state)
            procs[pid] = p._replace(inbox=p.inbox[1:])
            yield tuple(procs)


def search(n):
    """Explore every state reachable from n idle processes; return (stored, fired)."""
    initial = tuple(Proc(0, ()) for _ in range(n))
    visited = {_encode(initial): 0}
    frontier = deque([initial])
    fired = 0
    while frontier:
        for succ in _successors(frontier.popleft()):
            fired += 1
            key = _encode(succ)
            if key not in visited:
                visited[key] = len(visited)
                frontier.append(succ)
    return len(visited), fired
