import dataclasses
from array import array

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
    ExploreConfig,
    ProtocolModel,
    TransitionRule,
    Verdict,
    explore,
    reconstruct_trace,
)
from protocheck.ring import ORDERED, RingConfig, RingProcessState, UNORDERED, ring_model
from protocheck.state import EmptyQueueError, memoized_apply, receive


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


def check_accounting(result):
    st = result.stats
    assert st.transitions_fired == st.states_stored - result.initial_count + st.states_matched


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

    def test_barrier_n3_matches_enumerator(self):
        model = barrier_model(BarrierConfig(size=3))
        result = explore(model)
        enumerated = oracle.enumerate_reachable(model)
        assert result.stats.states_stored == len(enumerated) == 18
        assert set(result.states) == set(enumerated)

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
        result = explore(model)
        assert result.verdict is Verdict.QUEUE_OVERFLOW
        assert result.witness is not None
        check_accounting(result)

    @pytest.mark.parametrize("search_order,witness", [("bfs", 1), ("dfs", 2)])
    def test_queue_overflow_precedes_the_state_limit(self, search_order, witness):
        # the successor over the bound would be the fourth state stored; the
        # overflow is still reported, from the same source state as unlimited
        model = ring_model(RingConfig(size=3, variant=UNORDERED, queue_capacity=1))
        unlimited = explore(model, ExploreConfig(search_order=search_order))
        limited = explore(model, ExploreConfig(search_order=search_order, max_states=3))
        for result in (unlimited, limited):
            assert result.verdict is Verdict.QUEUE_OVERFLOW
            assert result.witness == witness
            assert result.stats.states_stored == 3

    def test_state_limit(self):
        result = explore(barrier_model(BarrierConfig(size=3)),
                         ExploreConfig(max_states=5))
        assert result.verdict is Verdict.LIMIT_EXCEEDED
        assert result.stats.states_stored == 5
        check_accounting(result)

    def test_time_limit(self):
        result = explore(barrier_model(BarrierConfig(size=3)),
                         ExploreConfig(max_seconds=1e-9))
        assert result.verdict is Verdict.LIMIT_EXCEEDED
        # stopped at the first pop, with the initial state in the frontier
        assert (result.stats.max_frontier, result.stats.states_stored) == (1, 1)

    def test_config_validation(self):
        model = barrier_model(BarrierConfig(size=1))
        with pytest.raises(ValueError):
            explore(model, ExploreConfig(search_order="sideways"))
        with pytest.raises(ValueError):
            explore(model, ExploreConfig(max_states=0))
        with pytest.raises(ValueError):
            explore(model, ExploreConfig(max_seconds=0))

    @pytest.mark.parametrize("options", [
        {"search_order": "sideways"},
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

    def test_rule_that_swaps_in_another_process_type_aborts_the_run(self):
        # pid 1 is the initial state's own, already passed object; only the
        # type pinned from the initial state catches the new pid 0
        model = barrier_model(BarrierConfig(size=2))
        swap = dataclasses.replace(model, rules=(TransitionRule(
            "swap", lambda proc, pid: pid == 0 and type(proc) is BarrierProcessState,
            lambda s, pid: (RingProcessState(),) + s[1:]),))
        with pytest.raises(ValueError, match="same protocol variant"):
            explore(swap)

    def test_rule_that_drops_a_process_aborts_the_run(self):
        model = barrier_model(BarrierConfig(size=2))
        shrink = dataclasses.replace(model, rules=(TransitionRule(
            "shrink", lambda proc, pid: pid == 0, lambda s, pid: s[:1]),))
        with pytest.raises(ValueError, match="process count"):
            explore(shrink)

    def test_broken_guard_aborts_the_run(self):
        # a rule whose guard lies gets its EmptyQueueError propagated
        broken = ProtocolModel(
            queue_capacity=2,
            initial_state=(BarrierProcessState(),),
            rules=(TransitionRule("consume", lambda proc, pid: True, memoized_apply(
                lambda proc, pid: (proc._replace(queue=receive(proc, pid)[1]), ()))),),
            invariant=lambda s: True,
            terminal_postcondition=lambda s: True,
        )
        with pytest.raises(EmptyQueueError):
            explore(broken)

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
        result = explore(strict, ExploreConfig(search_order="dfs", max_states=28))
        assert result.verdict is Verdict.POSTCONDITION_VIOLATED
        assert result.terminal_states == [result.witness]

    def test_ill_formed_successor_aborts_the_run(self):
        # a rule that releases a client which never asked builds a state
        # the barrier process's check() rejects
        release = memoized_apply(lambda proc, pid: (proc._replace(client_barrier_out=1), ()))
        model = barrier_model(BarrierConfig(size=2))
        broken = dataclasses.replace(model, rules=(TransitionRule(
            "release", lambda proc, pid: not proc.client_barrier_out, release),))
        with pytest.raises(ValueError):
            explore(broken)

    def test_out_of_range_neighbor_aborts_the_run(self):
        # a joiner that links itself to a process one past the last of two
        overshoot = memoized_apply(lambda proc, pid: (proc._replace(lhs=2), ()))
        model = ring_model(RingConfig(size=2))
        broken = dataclasses.replace(model, rules=(TransitionRule(
            "overshoot", lambda proc, pid: proc.lhs != 2, overshoot),))
        with pytest.raises(ValueError, match=r"ints in \[0, 2\) or unset, got 2"):
            explore(broken)


@pytest.mark.parametrize("cfg, model", instances(3, 4))
class TestSearchProperties:
    def test_matches_brute_force_enumeration(self, cfg, model):
        result = explore(model)
        enumerated = oracle.enumerate_reachable(model)
        assert result.stats.states_stored == len(enumerated)
        assert set(result.states) == set(enumerated)

    def test_store_once(self, cfg, model):
        result = explore(model)
        assert len(set(result.states)) == result.stats.states_stored

    def test_verified_means_no_violation_anywhere(self, cfg, model):
        result = explore(model)
        assert result.verdict is Verdict.VERIFIED
        assert all(model.invariant(s) for s in result.states)
        assert all(model.terminal_postcondition(result.states[t])
                   for t in result.terminal_states)

    def test_accounting_identity(self, cfg, model):
        check_accounting(explore(model))
        check_accounting(explore(model, ExploreConfig(search_order="dfs")))

    def test_bfs_and_dfs_store_the_same_set(self, cfg, model):
        bfs = explore(model)
        dfs = explore(model, ExploreConfig(search_order="dfs"))
        assert set(bfs.states) == set(dfs.states)
        assert bfs.stats.states_stored == dfs.stats.states_stored
        assert bfs.stats.states_matched == dfs.stats.states_matched


@pytest.mark.parametrize("model", [
    barrier_model(BarrierConfig(size=4)),
    ring_model(RingConfig(size=4, variant=UNORDERED)),
])
def test_search_never_renders(model, monkeypatch):
    # the visited key is the state itself; rendering is for output only
    def refuse(self):
        raise AssertionError("a state was rendered during the search")

    for cls in (BarrierProcessState, RingProcessState):
        monkeypatch.setattr(cls, "render", refuse)
    result = explore(model)
    assert result.verdict is Verdict.VERIFIED
    assert set(result.states) == set(oracle.enumerate_reachable(model))


@pytest.mark.parametrize("model", [
    barrier_model(BarrierConfig(size=4)),
    ring_model(RingConfig(size=4, variant=UNORDERED)),
])
def test_search_never_calls_replace(model, monkeypatch):
    # rules and state edits build each process with its constructor or
    # `_make`; the Python-level `_replace` stays off the hot path
    def refuse(self, **fields):
        raise AssertionError("a process was built with _replace")

    for cls in (BarrierProcessState, RingProcessState):
        monkeypatch.setattr(cls, "_replace", refuse)
    result = explore(model)
    assert result.verdict is Verdict.VERIFIED
    assert set(result.states) == set(oracle.enumerate_reachable(model))


# The benchmark's workloads (perfbench/workloads.json), pinned here so that a
# count drift fails the tests without running the benchmark.
@pytest.mark.parametrize("model,search_order,counts", [
    (barrier_model(BarrierConfig(size=12, variant=LEADER_LAST)), "bfs",
     (8203, 40962, 49164, 1, 1579)),
    (ring_model(RingConfig(size=5, variant=UNORDERED)), "bfs",
     (6489, 12268, 18756, 24, 899)),
    (barrier_model(BarrierConfig(size=12, variant=LEADER_FIRST)), "dfs",
     (8203, 40962, 49164, 1, 67)),
], ids=["barrier-n12", "ring-unordered-n5", "barrier-n12-leader-first-dfs"])
def test_benchmark_workload_counts(model, search_order, counts):
    result = explore(model, ExploreConfig(search_order=search_order))
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


def test_accounting_holds_on_violation_runs():
    model = barrier_model(BarrierConfig(size=3, mutation=RELEASE_ON_BARRIER_IN))
    check_accounting(explore(model))


def test_stats_deterministic_across_runs():
    model = ring_model(RingConfig(size=4, variant=UNORDERED))
    a = explore(model).stats
    b = explore(model).stats
    assert dataclasses.replace(a, elapsed=0.0) == dataclasses.replace(b, elapsed=0.0)
    assert a.peak_memory_estimate > 0


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

    def test_unknown_state_id_rejected(self):
        result = explore(barrier_model(BarrierConfig(size=1)))
        with pytest.raises(KeyError):
            reconstruct_trace(result, 99)


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


def test_package_root_names_only_the_protocol_free_core():
    # protocols are imported from their own modules, never from the root
    for name in protocheck.__all__:
        module = getattr(protocheck, name).__module__
        assert module in ("protocheck.engine", "protocheck.state"), (name, module)
