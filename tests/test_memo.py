"""The memoized rule applies: each agrees with the rule's uncached local step,
hands back one object per equal (pid, process), keeps nothing for a step
that fails, rejects an effect that would type a field or payload id unlike
its default, and leaves a second search on the same model unchanged."""

from dataclasses import replace

import pytest

import oracle
from protocheck import cli
from protocheck.barrier import (
    BarrierConfig,
    BarrierProcessState,
    barrier_model,
)
from protocheck.engine import ExploreConfig, ProtocolModel, TransitionRule, explore
from protocheck.ring import (
    UNORDERED,
    RingConfig,
    RingProcessState,
    RingStatus,
    req_insert,
    ring_model,
)
from protocheck.state import EmptyQueueError, memoized_apply
from test_engine import explore_logged, instances


@pytest.mark.parametrize("cfg, model", instances(5, 5, mutations=True))
def test_memoized_apply_agrees_with_the_uncached_step(cfg, model):
    result, _, edges = explore_logged(model)
    states = result.states
    new_procs = {}
    for src, name, pid, dst in edges:
        rule = model.rule_named(name)
        state = states[src]
        succ = rule.apply(state, pid)
        assert succ == oracle.apply_step(rule, state, pid) == states[dst]
        # equal (pid, process) pairs give back the one new process object
        kept = new_procs.setdefault((name, pid, state[pid]), succ[pid])
        assert kept is succ[pid]
    if len(edges) > 4:
        assert len(new_procs) < len(edges)  # the memo was hit


# One state per consuming rule whose queue at `pid` is empty, as if its guard lied.
_IDLE_BARRIER = (BarrierProcessState(1, 0, 0),) * 3
_IDLE_RING = (RingProcessState(RingStatus.IN_RING, 0, 0),
              RingProcessState(RingStatus.INSERTING), RingProcessState())


@pytest.mark.parametrize("model, rule, state, pid", [
    (barrier_model(BarrierConfig(size=3)), "barrier_in_nonleader", _IDLE_BARRIER, 1),
    (barrier_model(BarrierConfig(size=3)), "barrier_in_leader", _IDLE_BARRIER, 0),
    (barrier_model(BarrierConfig(size=3)), "barrier_out", _IDLE_BARRIER, 0),
    (barrier_model(BarrierConfig(size=3)), "barrier_out", _IDLE_BARRIER, 1),
    (ring_model(RingConfig(size=3)), "handle_req_insert", _IDLE_RING, 0),
    (ring_model(RingConfig(size=3)), "handle_new_rhs", _IDLE_RING, 0),
    (ring_model(RingConfig(size=3)), "handle_insert_ack", _IDLE_RING, 1),
])
def test_consuming_step_on_an_empty_queue_raises(model, rule, state, pid):
    apply = model.rule_named(rule).apply
    for _ in range(2):
        with pytest.raises(EmptyQueueError):
            apply(state, pid)


@pytest.mark.parametrize("target", [-1, 3])
def test_out_of_range_send_target_keeps_no_effect(target):
    apply = memoized_apply(lambda proc, pid: (proc, ((target, req_insert(pid)),)))
    state = (RingProcessState(),) * 3
    # a kept effect would come back on the second call, unchecked
    for _ in range(2):
        with pytest.raises(ValueError, match="out of range"):
            apply(state, 0)


@pytest.mark.parametrize("values", [(1, True), (True, 1)], ids=["int-first", "bool-first"])
@pytest.mark.parametrize("initial, effect, match", [
    ((BarrierProcessState(),) * 2, lambda proc, v: (proc._replace(client_barrier_in=v), ()),
     "process 0: client_barrier_in must be of type int, got True"),
    ((RingProcessState(),) * 2, lambda proc, v: (proc, ((1, req_insert(v)),)),
     "process 0: sent payload id True is not an int"),
], ids=["field", "payload"])
def test_a_bool_effect_fails_in_either_rule_order(values, initial, effect, match):
    # two rules fire at pid 0 of the initial state, one building its effect
    # with 1 and one with True; the successors are equal, so whichever comes
    # second is matched against the first and never reaches the state checker
    def enabled(proc, pid):
        return pid == 0

    def gate(s, pid):
        return s == initial

    model = ProtocolModel(
        queue_capacity=2,
        initial_state=initial,
        rules=tuple(TransitionRule(str(v), enabled,
                                   memoized_apply(lambda proc, pid, v=v: effect(proc, v)), gate)
                    for v in values),
        invariant=lambda s: True,
        terminal_postcondition=lambda s: True,
    )
    with pytest.raises(ValueError, match=match):
        explore(model)


def test_ring_splice_to_an_unset_neighbor_is_out_of_range():
    # an entry without a left neighbor would repoint process -1
    state = (RingProcessState(RingStatus.IN_RING, -1, 0, (req_insert(1),)),
             RingProcessState(RingStatus.INSERTING))
    apply = ring_model(RingConfig(size=2)).rule_named("handle_req_insert").apply
    for _ in range(2):
        with pytest.raises(ValueError, match="out of range"):
            apply(state, 0)


@pytest.mark.parametrize("build, search", [
    (lambda: barrier_model(BarrierConfig(size=6)), "bfs"),
    (lambda: barrier_model(BarrierConfig(size=6, variant="leader_first")), "dfs"),
    (lambda: ring_model(RingConfig(size=4, variant=UNORDERED)), "bfs"),
    (lambda: ring_model(RingConfig(size=4, variant=UNORDERED)), "dfs"),
])
def test_warm_memo_search_repeats_the_cold_one(build, search, tmp_path):
    model = build()
    config = ExploreConfig(search_order=search)
    runs = []
    for k in range(2):
        result, log, _ = explore_logged(model, config)
        cli.export_state_graph(result, log, tmp_path / f"{k}.dot")
        runs.append((replace(result.stats, elapsed=0.0), result.parents,
                     result.terminal_states, (tmp_path / f"{k}.dot").read_bytes()))
    assert runs[0] == runs[1]
