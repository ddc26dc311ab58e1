"""The memoized rule applies: each agrees with the rule's uncached local step,
hands back one object per equal (pid, process), keeps nothing for a step
that fails, and leaves a second search on the same model unchanged. That an
effect typed unlike its default fails in either rule order is
`test_state.py`'s twin table."""

from dataclasses import replace

import pytest

import oracle
from protocheck import cli
from protocheck.barrier import (
    BarrierConfig,
    BarrierProcessState,
    barrier_model,
)
from protocheck.engine import ExploreConfig
from protocheck.ring import (
    UNORDERED,
    RingConfig,
    RingProcessState,
    RingStatus,
    req_insert,
    ring_model,
)
from protocheck.state import memoized_apply
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
        with pytest.raises(ValueError, match="receive on an empty queue"):
            apply(state, pid)


@pytest.mark.parametrize("target", [-1, 3])
def test_out_of_range_send_target_keeps_no_effect(target):
    apply = memoized_apply(lambda proc, pid: (proc, ((target, req_insert(pid)),)))
    state = (RingProcessState(),) * 3
    # a kept effect would come back on the second call, unchecked
    for _ in range(2):
        with pytest.raises(ValueError, match="out of range"):
            apply(state, 0)


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
], ids=["barrier-6-bfs", "barrier-leader_first-6-dfs", "ring-unordered-4-bfs",
        "ring-unordered-4-dfs"])
def test_warm_memo_search_repeats_the_cold_one(build, search, tmp_path):
    model = build()
    config = ExploreConfig(search=search)
    runs = []
    for k in range(2):
        result, log, _ = explore_logged(model, config)
        cli.export_state_graph(result, log, tmp_path / f"{k}.dot")
        runs.append((replace(result.stats, elapsed=0.0), result.parents,
                     result.terminal_states, (tmp_path / f"{k}.dot").read_bytes()))
    assert runs[0] == runs[1]
