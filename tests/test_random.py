"""Small random protocols against the brute-force oracle.

A Hypothesis strategy draws protocols under the local-guard contract: one to
four processes, a queue capacity of 1 to 3, a process of up to three local
states whose `queue` field is first or last, and up to three rules. A rule
is a table from (local state, head message kind, or none for a step that
leaves its queue alone) to a new local state and up to two sends, each to
pid + 1, pid - 1, pid 0 or the sender itself; a rule may be held to the
leader or the others, and some rules are gated on the whole state. The
invariant, the gates and the postcondition are predicates over counts of
local states. Each protocol is registered through `cli.MODELS`, as
`test_cli._TOY_LAYOUTS`' rows are, and built from there.

Under BFS and DFS, a search is `verified` exactly when the oracle finds no
violation within the queue bound, and then its stored and terminal sets and
its fired count are the oracle's. Otherwise its witness witnesses its
verdict by the oracle, its stored states are reachable, a BFS invariant
witness is at `oracle.min_violation_depth`, and `run`'s trace replays. A
protocol with more than `_LIMIT` states within its queue bound is not
judged, so the oracle's linear scans stay quick.
"""

import contextlib
import io
from functools import partial
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import oracle
from protocheck import cli
from protocheck.engine import (ExploreConfig, ModelConfig, ProtocolModel, TransitionRule,
                               Verdict, explore, reconstruct_trace)
from protocheck.state import Message, MessageKindBase, memoized_apply, receive

_LIMIT = 200  # reachable states; above it a drawn protocol is not judged


class _Kind(MessageKindBase):
    PING = ("p", 0)
    FROM = ("f", 1)  # carries its sender's pid


class _Process(NamedTuple):
    local: int = 0
    queue: tuple = ()

    def check(self, n):
        if not 0 <= self.local < 3:
            raise ValueError(f"local state {self.local} is not in [0, 3)")


class _QueueFirstProcess(NamedTuple):
    queue: tuple = ()
    local: int = 0

    check = _Process.check


class _RandomConfig(ModelConfig):
    VARIANTS = ("plain",)


_TARGETS = {"next": lambda pid, n: (pid + 1) % n, "prev": lambda pid, n: (pid - 1) % n,
            "leader": lambda pid, n: 0, "self": lambda pid, n: pid}
_WHERE = {"all": lambda pid: True, "leader": lambda pid: pid == 0, "others": lambda pid: pid != 0}


def _count(state, local):
    return sum(proc.local == local for proc in state)


def _message(kind, pid):
    return Message(_Kind.PING) if kind == "p" else Message(_Kind.FROM, (pid,))


def _head(proc):
    return proc.queue[0].kind.code if proc.queue else None


def _entry(table, proc):
    """The table's entry for `proc` and whether it consumes the queue head:
    the head kind's entry first, else the entry that ignores the queue."""
    head = _head(proc)
    if head is not None and (proc.local, head) in table:
        return table[proc.local, head], True
    return table.get((proc.local, None)), False


def _rule(name, spec, n):
    where, table = _WHERE[spec["where"]], spec["table"]

    def enabled(proc, pid):
        return where(pid) and _entry(table, proc)[0] is not None

    def step(proc, pid):
        (local, sends), consumes = _entry(table, proc)
        queue = receive(proc, pid)[1] if consumes else proc.queue
        return proc._replace(local=local, queue=queue), tuple(
            (_TARGETS[to](pid, n), _message(kind, pid)) for to, kind in sends)

    gate = None
    if spec["gate"] is not None:
        local, most = spec["gate"]

        def gate(state, pid):  # at most `most` processes in local state `local`
            return _count(state, local) <= most

    return TransitionRule(name, enabled, memoized_apply(step), gate)


def _random_model(spec, cfg):
    initial = tuple(spec["process"](local=v) for v in spec["initial"])
    local, more = spec["invariant"]  # it holds initially, up to `more` further processes
    most = _count(initial, local) + more
    post_local, least = spec["postcondition"]
    return ProtocolModel(
        queue_capacity=cfg.queue_capacity,
        initial_state=initial,
        rules=tuple(_rule(f"r{k}", rule, cfg.size) for k, rule in enumerate(spec["rules"])),
        invariant=lambda state: _count(state, local) <= most,
        terminal_postcondition=lambda state: _count(state, post_local) >= least,
    )


@st.composite
def protocols(draw):
    """(n, capacity, spec) of a small random protocol; `_random_model`
    builds it from the spec and a config."""
    n = draw(st.integers(1, 4))
    capacity = draw(st.integers(1, 3))
    local = st.integers(0, draw(st.integers(1, 3)) - 1)
    sends = st.lists(st.tuples(st.sampled_from(sorted(_TARGETS)), st.sampled_from("pf")),
                     max_size=2).map(tuple)
    rule = st.fixed_dictionaries({
        "where": st.sampled_from(sorted(_WHERE)),
        "table": st.dictionaries(st.tuples(local, st.sampled_from((None, "p", "f"))),
                                 st.tuples(local, sends), min_size=1, max_size=4),
        "gate": st.none() | st.tuples(local, st.integers(0, n - 1)),
    })
    spec = {
        "process": draw(st.sampled_from((_Process, _QueueFirstProcess))),
        "initial": draw(st.lists(local, min_size=n, max_size=n)),
        "rules": draw(st.lists(rule, min_size=1, max_size=3)),
        "invariant": draw(st.tuples(local, st.integers(0, n))),
        "postcondition": draw(st.tuples(local, st.integers(0, n))),
    }
    return n, capacity, spec


def _cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(list(argv))
    return code, out.getvalue()


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("random")


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(protocols())
def test_a_random_protocol_searches_as_the_oracle_says(trace_dir, protocol):
    n, capacity, spec = protocol
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(cli.MODELS, "random", (_RandomConfig, partial(_random_model, spec)))
        config_class, build = cli.MODELS["random"]
        model = build(config_class(size=n, queue_capacity=capacity))
        reachable = oracle.enumerate_reachable(model, limit=_LIMIT)
        assume(reachable is not None)
        snapshots = {oracle.snapshot(s) for s in reachable}
        terminals = oracle.terminal_states(model, reachable)
        violated = (not all(map(model.invariant, reachable))
                    or not all(map(model.terminal_postcondition, terminals))
                    or any(oracle.witnesses(model, s, "queue_overflow") for s in reachable))
        for search in ExploreConfig.SEARCHES:
            # a search never stores more than the oracle finds: the limit only
            # stops a broken engine from searching far beyond it
            result = explore(model, ExploreConfig(search=search, max_states=_LIMIT))
            stored = {oracle.snapshot(s) for s in result.states}
            if not violated:
                assert result.verdict is Verdict.VERIFIED, search
                assert stored == snapshots, search
                assert ({oracle.snapshot(result.states[t]) for t in result.terminal_states}
                        == {oracle.snapshot(s) for s in terminals}), search
                assert result.stats.transitions_fired == sum(
                    len(oracle.successors(model, s)) for s in reachable), search
                continue
            verdict, witness = result.verdict, result.witness
            assert verdict not in (Verdict.VERIFIED, Verdict.LIMIT_EXCEEDED), search
            assert stored <= snapshots, search
            assert oracle.witnesses(model, result.states[witness], verdict.value), search
            depth = len(reconstruct_trace(result, witness)) - 1
            if search == "bfs" and verdict is Verdict.INVARIANT_VIOLATED:
                assert depth == oracle.min_violation_depth(model, depth)
            trace = trace_dir / "t.json"
            code, _ = _cli("run", "--model", "random", "--size", str(n), "--queue-capacity",
                           str(capacity), "--search", search, "--max-states", str(_LIMIT),
                           "--trace", str(trace))
            assert code == cli._VERDICT_EXIT[verdict], search
            code, out = _cli("replay", str(trace))
            assert code == 0 and f"{depth} steps verified, {verdict.value} confirmed" in out, (
                search, out)
