"""The search engine: verdicts, limits, traces and the observer's edges.

Each model is checked against the independent enumerator of `oracle.py`:
stored-state sets, BFS depths and minimal counterexample depths. The derived
`transitions_fired` is checked against counts taken apart from it
(`check_accounting`, under BFS and DFS, on the small instances and on a run
cut short by the seeded bug): the edges the `observe` callback saw, four
ids each, and on a verified run the enumerator's moves summed over every
reachable state. A search builds at most one process per entry of its own
memos, a second search of the model as many, and the model's own memos stay
empty. The benchmark's workload counts are pinned here. Every sweep over
small instances takes them from one list, `instances`."""

import dataclasses
import re
from array import array
from inspect import getclosurevars

import pytest

import oracle
import protocheck
from protocheck.barrier import (
    BarrierConfig,
    BarrierProcessState,
    LEADER_FIRST,
    LEADER_LAST,
    RELEASE_ON_BARRIER_IN,
    barrier_model,
)
from protocheck.engine import (
    ExplorationResult,
    ExploreConfig,
    ProtocolModel,
    RunStats,
    Verdict,
    explore,
    reconstruct_trace,
)
from protocheck.ring import ORDERED, RingConfig, RingProcessState, UNORDERED, ring_model
from protocheck.state import Message


def explore_logged(model, config=ExploreConfig()):
    """(result, log, edges) of a search whose observer is `log.fromlist`:
    the packed ids it logged, and each edge as (source, rule name, pid,
    target), in firing order."""
    log = array("q")
    result = explore(model, dataclasses.replace(config, observe=log.fromlist))
    ids = iter(log)
    return result, log, list(zip(ids, map(result.rule_names.__getitem__, ids), ids, ids))


def instances(barrier_n, ring_n, mutations=False):
    """A list of `pytest.param(cfg, model)`, each with its id: barrier N=1 to
    `barrier_n` and ring N=1 to `ring_n` in every variant, and, if
    `mutations`, under each seeded bug too."""
    models = {"barrier": (BarrierConfig, barrier_model, barrier_n),
              "ring": (RingConfig, ring_model, ring_n)}
    cases = []
    for name, (config_class, build, largest) in models.items():
        for n in range(1, largest + 1):
            for variant in config_class.VARIANTS:
                for mutation in (None, *config_class.MUTATIONS) if mutations else (None,):
                    cfg = config_class(size=n, variant=variant, mutation=mutation)
                    label = f"{name}-{variant}-{mutation}-{n}"
                    cases.append(pytest.param(cfg, build(cfg), id=label))
    return cases


def check_accounting(model, config=ExploreConfig()):
    """The result of searching `model` under `config`, once its derived
    transition count has been checked against two counts the search does not
    keep: the edges its observer saw and, on a verified run, the oracle's
    moves summed over every reachable state, as a full search expands each
    state once."""
    result, log, _ = explore_logged(model, config)
    fired = result.stats.transitions_fired
    assert len(log) == 4 * fired
    if result.verdict is Verdict.VERIFIED:
        assert fired == sum(len(oracle.successors(model, s))
                            for s in oracle.enumerate_reachable(model))
    return result


class TestExplore:
    def test_barrier_n1_hand_simulated(self):
        # initial; after the request and self-send; after the token is
        # consumed and the release self-sent; after the release: 4 states
        result = explore(barrier_model(BarrierConfig(size=1)))
        assert result.verdict is Verdict.VERIFIED
        assert result.stats.states_stored == 4
        assert result.stats.states_matched == 0
        assert result.stats.transitions_fired == 3
        assert result.terminal_states == [3]

    def test_seeded_bug_found_at_minimal_depth(self):
        model = barrier_model(BarrierConfig(size=3, mutation=RELEASE_ON_BARRIER_IN))
        result = explore(model)
        assert result.verdict is Verdict.INVARIANT_VIOLATED
        assert result.witness is not None
        # exhaustive path enumeration confirms no shorter violation exists
        path = reconstruct_trace(result, result.witness)
        assert len(path) - 1 == oracle.min_violation_depth(model, 6) == 3

    def test_queue_overflow_is_a_verdict(self):
        model = ring_model(RingConfig(size=3, variant=UNORDERED, queue_capacity=1))
        result = check_accounting(model)
        assert result.verdict is Verdict.QUEUE_OVERFLOW
        assert result.witness is not None

    @pytest.mark.parametrize("search,witness", [("bfs", 1), ("dfs", 2)])
    def test_queue_overflow_precedes_the_state_limit(self, search, witness):
        # the successor over the bound would be the fourth state stored; the
        # overflow is still reported, from the same source state as unlimited
        model = ring_model(RingConfig(size=3, variant=UNORDERED, queue_capacity=1))
        unlimited = explore(model, ExploreConfig(search=search))
        limited = explore(model, ExploreConfig(search=search, max_states=3))
        for result in (unlimited, limited):
            assert result.verdict is Verdict.QUEUE_OVERFLOW
            assert result.witness == witness
            assert result.stats.states_stored == 3

    def test_state_limit(self):
        result = check_accounting(barrier_model(BarrierConfig(size=3)),
                                  ExploreConfig(max_states=5))
        assert result.verdict is Verdict.LIMIT_EXCEEDED
        assert result.stats.states_stored == 5

    def test_time_limit(self):
        result = explore(barrier_model(BarrierConfig(size=3)),
                         ExploreConfig(max_seconds=1e-9))
        assert result.verdict is Verdict.LIMIT_EXCEEDED
        # stopped at the first pop, with the initial state in the frontier
        assert (result.stats.max_frontier, result.stats.states_stored) == (1, 1)

    def test_config_validation(self):
        model = barrier_model(BarrierConfig(size=1))
        with pytest.raises(ValueError, match="unknown search order 'given'; choose from bfs, dfs"):
            explore(model, ExploreConfig(search="given"))
        with pytest.raises(TypeError):  # the library name is `search`, as the flag's
            ExploreConfig(search_order="dfs")
        with pytest.raises(ValueError):
            explore(model, ExploreConfig(max_states=0))
        with pytest.raises(ValueError):
            explore(model, ExploreConfig(max_seconds=0))

    @pytest.mark.parametrize("options", [
        {"search": "sideways"},
        {"max_states": 0},
        {"max_seconds": 0},
        {"max_seconds": -1.0},
        {"max_seconds": float("nan")},  # would compare false: no time limit
        {"max_states": float("nan")},
        {"max_states": "5"},  # used to raise TypeError
        {"max_states": True},  # True == 1 used to be accepted
        {"max_states": 2.5},
        {"max_seconds": "5"},
        {"max_seconds": True},
        {"observe": "no"},  # not callable: would fail only once a state fires
        {"observe": 1},
        {"observe": True},
    ])
    def test_config_checks_itself(self, options):
        with pytest.raises(ValueError):
            ExploreConfig(**options)

    def test_model_without_initial_states_rejected(self):
        # an initial state of no processes: nothing explored is nothing verified
        empty = ProtocolModel(1, (), (), lambda s: True, lambda s: True)
        with pytest.raises(ValueError):
            explore(empty)

    def test_capacity_below_one_rejected(self):
        model = ProtocolModel(0, (BarrierProcessState(),), (), lambda s: True, lambda s: True)
        with pytest.raises(ValueError, match="queue capacity must be positive"):
            explore(model)

    def test_postcondition_violation_reported_at_terminal(self):
        model = barrier_model(BarrierConfig(size=2))
        strict = dataclasses.replace(model, terminal_postcondition=lambda s: False)
        result = explore(strict)
        assert result.verdict is Verdict.POSTCONDITION_VIOLATED
        # the first failing terminal in traversal order is the one reported
        assert result.witness == result.terminal_states[0]

    def test_postcondition_violation_survives_a_later_limit(self):
        # DFS pops a terminal early; the state limit is hit before the
        # frontier empties, and the violation found first is still reported
        model = ring_model(RingConfig(size=4, variant=UNORDERED))
        strict = dataclasses.replace(model, terminal_postcondition=lambda s: False)
        result = explore(strict, ExploreConfig(search="dfs", max_states=28))
        assert result.verdict is Verdict.POSTCONDITION_VIOLATED
        assert result.terminal_states == [result.witness]


@pytest.mark.parametrize("cfg, model", instances(3, 4))
class TestSearchProperties:
    def test_matches_brute_force_enumeration(self, cfg, model):
        result = explore(model)
        enumerated = oracle.enumerate_reachable(model)
        assert result.stats.states_stored == len(enumerated)
        assert set(result.states) == set(enumerated)
        assert ({result.states[t] for t in result.terminal_states}
                == set(oracle.terminal_states(model, enumerated)))

    def test_store_once(self, cfg, model):
        result = explore(model)
        assert len(set(result.states)) == result.stats.states_stored

    def test_verified_means_no_violation_anywhere(self, cfg, model):
        result = explore(model)
        assert result.verdict is Verdict.VERIFIED
        assert all(model.invariant(s) for s in result.states)
        assert all(model.terminal_postcondition(result.states[t])
                   for t in result.terminal_states)

    @pytest.mark.parametrize("search", ExploreConfig.SEARCHES)
    def test_accounting_identity(self, cfg, model, search):
        check_accounting(model, ExploreConfig(search))

    def test_bfs_and_dfs_store_the_same_set(self, cfg, model):
        bfs = explore(model)
        dfs = explore(model, ExploreConfig(search="dfs"))
        assert set(bfs.states) == set(dfs.states)
        assert bfs.stats.states_stored == dfs.stats.states_stored
        assert bfs.stats.states_matched == dfs.stats.states_matched


@pytest.mark.parametrize("model", [
    barrier_model(BarrierConfig(size=4)),
    ring_model(RingConfig(size=4, variant=UNORDERED)),
])
def test_search_never_renders(model, monkeypatch):
    # the visited key is the state itself; the process codec is for output only
    def refuse(*args):
        raise AssertionError("a state was rendered during the search")

    monkeypatch.setattr(protocheck.state, "process_fields", refuse)
    monkeypatch.setattr(Message, "render", refuse)
    result = explore(model)
    assert result.verdict is Verdict.VERIFIED
    assert set(result.states) == set(oracle.enumerate_reachable(model))


@pytest.mark.parametrize("build", [
    lambda: barrier_model(BarrierConfig(size=4)),
    lambda: ring_model(RingConfig(size=4, variant=UNORDERED)),
], ids=["barrier", "ring"])
def test_processes_are_built_only_on_a_memo_miss(build, monkeypatch):
    # a step or an append builds a process with `_replace`, which goes through
    # `_make`: a search builds at most one process per entry of its own memos,
    # and a second search of the model, with new memos, builds as many
    model = build()
    checked = protocheck.engine.checked_applies
    searches = []

    def checked_memos(*args):
        applies, all_memos = checked(*args)
        memos.extend(applies)
        return applies, all_memos

    for _ in range(2):
        built, memos = [], []  # the processes made, and the search's checked applies
        with monkeypatch.context() as patch:
            for cls in (BarrierProcessState, RingProcessState):
                make = cls._make
                patch.setattr(cls, "_make", staticmethod(
                    lambda iterable, make=make: built.append(make) or make(iterable)))
            patch.setattr(protocheck.engine, "checked_applies", checked_memos)
            result = explore(model)
        assert result.verdict is Verdict.VERIFIED
        assert len(memos) == len(model.rules)
        entries = sum(len(getclosurevars(apply).nonlocals[memo])
                      for apply in memos for memo in ("effects", "appends"))
        assert 0 < len(built) <= entries
        # the model's own memos, for calls made outside a search, stay empty
        assert not any(getclosurevars(rule.apply._apply).nonlocals[memo]
                       for rule in model.rules for memo in ("effects", "appends"))
        searches.append((len(built), result.states))
    assert searches[0] == searches[1]


# The benchmark's workloads (perfbench/workloads.json), pinned here so that a
# count drift fails the tests without running the benchmark.
@pytest.mark.parametrize("model,search,counts", [
    (barrier_model(BarrierConfig(size=12, variant=LEADER_LAST)), "bfs",
     (8203, 40962, 49164, 1, 1579)),
    (ring_model(RingConfig(size=5, variant=UNORDERED)), "bfs",
     (6489, 12268, 18756, 24, 899)),
    (barrier_model(BarrierConfig(size=12, variant=LEADER_FIRST)), "dfs",
     (8203, 40962, 49164, 1, 67)),
], ids=["barrier-n12", "ring-unordered-n5", "barrier-n12-leader-first-dfs"])
def test_benchmark_workload_counts(model, search, counts):
    result = explore(model, ExploreConfig(search=search))
    st = result.stats
    assert result.verdict is Verdict.VERIFIED
    assert (st.states_stored, st.states_matched, st.transitions_fired,
            len(result.terminal_states), st.max_frontier) == counts


@pytest.mark.parametrize("model", [
    barrier_model(BarrierConfig(size=3)),
    ring_model(RingConfig(size=3, variant=UNORDERED)),
])
def test_bfs_depths_are_shortest_paths(model):
    result = explore(model)
    states, depths = oracle.depth_map(model)
    expected = dict(zip(states, depths))
    for sid, state in enumerate(result.states):
        assert len(reconstruct_trace(result, sid)) - 1 == expected[state]


@pytest.mark.parametrize("search", ExploreConfig.SEARCHES)
def test_accounting_holds_on_violation_runs(search):
    model = barrier_model(BarrierConfig(size=3, mutation=RELEASE_ON_BARRIER_IN))
    assert check_accounting(model, ExploreConfig(search)).verdict is Verdict.INVARIANT_VIOLATED


def test_run_stats_hold_only_what_the_search_measured():
    # the derived figures are read-only properties: no caller can set one
    # that disagrees with the counts it is derived from
    fields = dataclasses.fields(RunStats)
    assert [f.name for f in fields] == ["states_stored", "states_matched", "max_frontier",
                                        "elapsed"]
    assert all(f.default is f.default_factory is dataclasses.MISSING for f in fields)
    assert "initial_count" not in {f.name for f in dataclasses.fields(ExplorationResult)}
    result = explore(barrier_model(BarrierConfig(size=3)))
    st = result.stats
    assert (result.initial_count, st.transitions_fired, st.peak_memory_estimate) == \
        (1, 18 - 1 + 10, 112 * 18)
    with pytest.raises(TypeError):
        RunStats(18, 10, 5, 0.0, transitions_fired=27)
    with pytest.raises(TypeError):
        dataclasses.replace(result, initial_count=1)
    with pytest.raises(AttributeError):
        st.transitions_fired = 27
    with pytest.raises(AttributeError):
        st.peak_memory_estimate = 0


class TestTrace:
    def test_initial_state_gives_single_step(self):
        result = explore(barrier_model(BarrierConfig(size=2)))
        trace = reconstruct_trace(result, 0)
        assert len(trace) == 1
        assert trace[0].rule is None and trace[0].pid is None
        assert trace[0].state == result.states[0]

    def test_every_trace_replays_exactly(self):
        model = barrier_model(BarrierConfig(size=3))
        result = explore(model)
        for sid in range(len(result.states)):
            trace = reconstruct_trace(result, sid)
            state = trace[0].state
            assert state == model.initial_state
            for step in trace[1:]:
                rule = model.rule_named(step.rule)
                assert rule.enabled_at(state, step.pid)
                state = rule.apply(state, step.pid)
                assert state == step.state
            assert state == result.states[sid]

    def test_violation_trace_ends_in_the_violation(self):
        # n=3 is the smallest size where the seeded bug bites: at n=2 the
        # forwarding non-leader is always the last client to arrive anyway
        model = barrier_model(BarrierConfig(size=3, mutation=RELEASE_ON_BARRIER_IN))
        result = explore(model)
        assert result.verdict is Verdict.INVARIANT_VIOLATED
        trace = reconstruct_trace(result, result.witness)
        assert not model.invariant(trace[-1].state)
        for step in trace[:-1]:
            assert model.invariant(step.state)

    @pytest.mark.parametrize("sid", [99, -1, True, 1.0])
    def test_unknown_state_id_rejected(self, sid):
        # `True` and `1.0` equal the stored id 1, but are no state id
        result = explore(barrier_model(BarrierConfig(size=2)))
        with pytest.raises(KeyError, match=re.escape(f"unknown state id {sid!r}")):
            reconstruct_trace(result, sid)


@pytest.mark.parametrize("model", [
    barrier_model(BarrierConfig(size=3, variant=LEADER_LAST)),
    barrier_model(BarrierConfig(size=3, variant=LEADER_FIRST)),
    ring_model(RingConfig(size=3, variant=ORDERED)),
    ring_model(RingConfig(size=3, variant=UNORDERED)),
])
def test_every_rule_fires(model):
    # a rule that never fires is vacuous: the model says less than it seems to
    _, _, edges = explore_logged(model)
    assert {rule for _, rule, _, _ in edges} == {rule.name for rule in model.rules}


def test_edges_recorded_only_on_request():
    model = barrier_model(BarrierConfig(size=2))
    assert ExploreConfig().observe is None
    assert "edges" not in {f.name for f in dataclasses.fields(explore(model))}
    result, log, edges = explore_logged(model)
    assert len(log) == 4 * len(edges) == 4 * result.stats.transitions_fired
    for src, rule_name, pid, dst in edges:
        rule = model.rule_named(rule_name)
        assert rule.enabled_at(result.states[src], pid)
        assert rule.apply(result.states[src], pid) == result.states[dst]


@pytest.mark.parametrize("order", ["bfs", "dfs"])
@pytest.mark.parametrize("cfg, model", instances(4, 4))
def test_the_observer_sees_one_batch_per_state_that_fires(cfg, model, order):
    batches = []
    result = explore(model, ExploreConfig(order, observe=lambda ids: batches.append(list(ids))))
    assert result.verdict is Verdict.VERIFIED
    sources = []
    for batch in batches:
        assert batch and len(batch) % 4 == 0
        assert set(batch[::4]) == {batch[0]}  # all from the state being expanded
        sources.append(batch[0])
    # each stored state is expanded once: it fires a batch or is terminal
    assert sorted(sources + result.terminal_states) == list(range(len(result.states)))
    assert sum(map(len, batches)) == 4 * result.stats.transitions_fired
    if order == "bfs":
        assert sources == sorted(sources)


def test_rules_sharing_a_name_are_rejected():
    # a trace names its rules: with two named alike, a witness would not replay
    model = barrier_model(BarrierConfig(size=3, mutation=RELEASE_ON_BARRIER_IN))
    renamed = {"client_request", "barrier_in_nonleader"}
    rules = tuple(dataclasses.replace(r, name="step") if r.name in renamed else r
                  for r in model.rules)
    with pytest.raises(ValueError, match="'step'"):
        dataclasses.replace(model, rules=rules)


@pytest.mark.parametrize("name", ['a"b', "a\\b", "a\nb", "a\r", None, 1, "", "a\x00b",
                                  "\x1b[31mred"])
def test_a_rule_name_is_one_line_of_plain_text(name):
    # a rule name is a DOT label, `label="..."`, and part of one replay line
    model = barrier_model(BarrierConfig(size=2))
    with pytest.raises(ValueError, match=re.escape(
            f"rule name {name!r} must be a non-empty printable str free of '\"' and '\\'")):
        dataclasses.replace(model, rules=(dataclasses.replace(model.rules[0], name=name),))


def test_package_root_names_only_the_protocol_free_core():
    # protocols are imported from their own modules, never from the root
    for name in protocheck.__all__:
        module = getattr(protocheck, name).__module__
        assert module in ("protocheck.engine", "protocheck.state"), (name, module)


def _stopped(model, config):
    """(result, edges, source, moves, stop) of a search that stops mid-state:
    the logged (source, rule index, pid, target) edges, the state id being
    expanded when the search stopped, the (rule index, pid) moves enabled
    there in firing order, and the index in `moves` of the last one applied,
    as a spy on every apply saw it."""
    last = []

    def spied(r, apply):
        def wrapper(state, pid):
            last[:] = [state, r, pid]
            return apply(state, pid)
        return wrapper

    spy = dataclasses.replace(model, rules=tuple(
        dataclasses.replace(rule, apply=spied(r, rule.apply))
        for r, rule in enumerate(model.rules)))
    log = array("q")
    result = explore(spy, dataclasses.replace(config, observe=log.fromlist))
    ids = iter(log)
    edges = list(zip(ids, ids, ids, ids))
    assert len(edges) == result.stats.transitions_fired
    state, r, pid = last
    source = result.states.index(state)
    moves = [(r, pid) for r, rule in enumerate(model.rules)
             for pid in range(len(state)) if rule.enabled_at(state, pid)]
    return result, edges, source, moves, moves.index((r, pid))


def _tail_from(edges, source):
    """The (rule index, pid) of the edges logged from `source`, which must
    be the last ones logged."""
    tail = [(r, pid) for src, r, pid, _ in edges if src == source]
    assert all(src == source for src, *_ in edges[len(edges) - len(tail):])
    return tail


@pytest.mark.parametrize("order", ["bfs", "dfs"])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_a_violation_passes_the_violating_edge_last(order, n):
    model = barrier_model(BarrierConfig(size=n, mutation=RELEASE_ON_BARRIER_IN))
    result, edges, source, moves, stop = _stopped(model, ExploreConfig(order))
    assert result.verdict is Verdict.INVARIANT_VIOLATED
    assert edges[-1][0] == source and edges[-1][3] == result.witness
    assert _tail_from(edges, source) == moves[:stop + 1]


@pytest.mark.parametrize("order", ["bfs", "dfs"])
@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("reverse", [False, True])
def test_an_overflow_passes_the_edges_fired_before_the_overflowing_one(order, n, reverse):
    model = ring_model(RingConfig(size=n, variant=UNORDERED, queue_capacity=1))
    if reverse:  # the overflowing send is then not the first move of its state
        model = dataclasses.replace(model, rules=model.rules[::-1])
    result, edges, source, moves, stop = _stopped(model, ExploreConfig(order))
    assert result.verdict is Verdict.QUEUE_OVERFLOW and result.witness == source
    assert _tail_from(edges, source) == moves[:stop]
    assert stop > 0 if reverse else stop == 0
    # the edge not passed is the one whose successor is over the bound
    r, pid = moves[stop]
    succ = model.rules[r].apply(result.states[source], pid)
    assert max(len(proc.queue) for proc in succ) > 1


@pytest.mark.parametrize("order", ["bfs", "dfs"])
@pytest.mark.parametrize("limit", [2, 7, 40])
def test_a_state_limit_passes_no_edge_to_the_state_over_it(order, limit):
    model = ring_model(RingConfig(size=4, variant=UNORDERED))
    result, edges, source, moves, stop = _stopped(model, ExploreConfig(order, max_states=limit))
    assert result.verdict is Verdict.LIMIT_EXCEEDED
    assert result.stats.states_stored == limit
    assert all(dst < limit for *_, dst in edges)
    assert _tail_from(edges, source) == moves[:stop]
    r, pid = moves[stop]
    assert model.rules[r].apply(result.states[source], pid) not in result.states
