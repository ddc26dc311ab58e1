"""The memoized rule applies: each agrees with the rule's uncached local step,
hands back one object per equal (pid, process), keeps nothing for a step
that fails, and leaves a second search on the same model unchanged."""

from dataclasses import replace

import pytest

import oracle
from protocheck import cli
from protocheck.barrier import (
    BarrierConfig,
    BarrierProcessState,
    barrier_model,
)
from protocheck.engine import ExploreConfig, explore
from protocheck.ring import (
    ORDERED,
    UNORDERED,
    RingConfig,
    RingProcessState,
    RingStatus,
    req_insert,
    ring_model,
)
from protocheck.state import EmptyQueueError, apply_uncached, memoized_apply


def _models():
    for n in range(1, 6):
        for variant in BarrierConfig.VARIANTS:
            for mutation in (None, *BarrierConfig.MUTATIONS):
                yield f"barrier-{variant}-{mutation}-{n}", barrier_model(
                    BarrierConfig(n=n, variant=variant, mutation=mutation))
        for variant in (ORDERED, UNORDERED):
            for entry in range(n):
                yield f"ring-{variant}-entry{entry}-{n}", ring_model(
                    RingConfig(n=n, variant=variant, entry=entry))


@pytest.mark.parametrize("label, model", list(_models()))
def test_memoized_apply_agrees_with_the_uncached_step(label, model):
    result = explore(model, ExploreConfig(record_edges=True))
    states = result.states
    new_procs = {}
    for src, name, pid, dst in result.edges:
        rule = model.rule_named(name)
        state = states[src]
        succ = rule.apply(state, pid)
        assert succ == oracle.apply_step(rule, state, pid) == states[dst]
        assert apply_uncached(rule.apply, state, pid) == succ
        # equal (pid, process) pairs give back the one new process object
        kept = new_procs.setdefault((name, pid, state[pid]), succ[pid])
        assert kept is succ[pid]
    if len(result.edges) > 4:
        assert len(new_procs) < len(result.edges)  # the memo was hit


# One state per consuming rule whose queue at `pid` is empty, as if its guard lied.
_IDLE_BARRIER = (BarrierProcessState(1, 0, 0),) * 3
_IDLE_RING = (RingProcessState(RingStatus.IN_RING, 0, 0),
              RingProcessState(RingStatus.INSERTING), RingProcessState())


@pytest.mark.parametrize("model, rule, state, pid", [
    (barrier_model(BarrierConfig(n=3)), "barrier_in_nonleader", _IDLE_BARRIER, 1),
    (barrier_model(BarrierConfig(n=3)), "barrier_in_leader", _IDLE_BARRIER, 0),
    (barrier_model(BarrierConfig(n=3)), "barrier_out", _IDLE_BARRIER, 0),
    (barrier_model(BarrierConfig(n=3)), "barrier_out", _IDLE_BARRIER, 1),
    (ring_model(RingConfig(n=3)), "handle_req_insert", _IDLE_RING, 0),
    (ring_model(RingConfig(n=3)), "handle_new_rhs", _IDLE_RING, 0),
    (ring_model(RingConfig(n=3)), "handle_insert_ack", _IDLE_RING, 1),
])
def test_consuming_step_on_an_empty_queue_raises(model, rule, state, pid):
    apply = model.rule_named(rule).apply
    for _ in range(2):
        with pytest.raises(EmptyQueueError):
            apply(state, pid)
    with pytest.raises(EmptyQueueError):
        apply_uncached(apply, state, pid)


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
    apply = ring_model(RingConfig(n=2)).rule_named("handle_req_insert").apply
    for _ in range(2):
        with pytest.raises(ValueError, match="out of range"):
            apply(state, 0)


@pytest.mark.parametrize("build, search", [
    (lambda: barrier_model(BarrierConfig(n=6)), "bfs"),
    (lambda: barrier_model(BarrierConfig(n=6, variant="leader_first")), "dfs"),
    (lambda: ring_model(RingConfig(n=4, variant=UNORDERED)), "bfs"),
    (lambda: ring_model(RingConfig(n=4, variant=UNORDERED, entry=2)), "dfs"),
])
def test_warm_memo_search_repeats_the_cold_one(build, search, tmp_path):
    model = build()
    config = ExploreConfig(search_order=search, record_edges=True)
    runs = []
    for k in range(2):
        result = explore(model, config)
        cli.export_state_graph(result, tmp_path / f"{k}.dot")
        runs.append((replace(result.stats, elapsed=0.0), result.parents, result.depths,
                     result.terminal_states, (tmp_path / f"{k}.dot").read_bytes()))
    assert runs[0] == runs[1]
