"""What the search loop calls, and how often.

The call counts are the benchmark's contract (perfbench/run.py checks them
on its traced rounds): per verified search, guards run stored x rules x N
times, applies once per fired transition, the invariant once per stored
state and the visited-set key once per fired transition plus the initial
state; a gate once per (stored state, pid) where its rule's guard holds.
Pinned here so that a break fails the tests, not only the benchmark. Only
the well-formedness check runs less often: each process object is checked
once per search, by identity.
"""

from collections import Counter
from dataclasses import replace

import pytest

from protocheck import engine
from protocheck.barrier import (
    BARRIER_IN,
    BARRIER_OUT,
    LEADER_FIRST,
    LEADER_LAST,
    RELEASE_ON_BARRIER_IN,
    BarrierConfig,
    BarrierProcessState,
    barrier_model,
)
from protocheck.engine import (ExploreConfig, ProtocolModel, TransitionRule, Verdict,
                               explore)
from protocheck.ring import (ORDERED, UNORDERED, RingConfig, RingProcessState, RingStatus,
                             req_insert, ring_model)
from protocheck.state import QueueOverflowError, state_checker
from test_engine import explore_logged


def _counted(fn, calls, key):
    def wrapper(*args):
        calls[key] += 1
        return fn(*args)
    return wrapper


@pytest.mark.parametrize("model", [
    barrier_model(BarrierConfig(size=6, variant=LEADER_LAST)),
    barrier_model(BarrierConfig(size=6, variant=LEADER_FIRST)),
    ring_model(RingConfig(size=4, variant=ORDERED)),
    ring_model(RingConfig(size=4, variant=UNORDERED)),
], ids=["barrier-leader_last-6", "barrier-leader_first-6", "ring-ordered-4",
        "ring-unordered-4"])
def test_call_counts_are_fixed_by_the_search(model, monkeypatch):
    plain = explore(model).stats
    calls = Counter()
    # `replace` keeps each rule's gate; a positional rebuild would drop it
    counted = replace(
        model,
        rules=tuple(replace(rule, enabled=_counted(rule.enabled, calls, "guard"),
                            apply=_counted(rule.apply, calls, "apply"),
                            gate=rule.gate and _counted(rule.gate, calls, "gate"))
                    for rule in model.rules),
        invariant=_counted(model.invariant, calls, "invariant"),
    )
    monkeypatch.setattr(engine, "canonical_encode",
                        _counted(engine.canonical_encode, calls, "encode"))
    result = explore(counted)
    st = result.stats
    assert result.verdict is Verdict.VERIFIED
    assert replace(st, elapsed=0.0) == replace(plain, elapsed=0.0)
    n = len(model.initial_state)
    gated = [rule for rule in model.rules if rule.gate is not None]
    hits = sum(rule.enabled(state[pid], pid)
               for rule in gated for state in result.states for pid in range(n))
    assert (hits > 0) == bool(gated)  # only ring ordered has a gate
    assert calls == Counter({
        "guard": st.states_stored * len(model.rules) * n,
        "gate": hits,
        "apply": st.transitions_fired,
        "invariant": st.states_stored,
        "encode": st.transitions_fired + 1,
    })


def test_each_process_object_is_checked_once_per_search(monkeypatch):
    model = barrier_model(BarrierConfig(size=8))
    checked = []  # holding each object keeps its id from being reused
    real_check = BarrierProcessState.check

    def check(self, n):
        checked.append(self)
        return real_check(self, n)

    monkeypatch.setattr(BarrierProcessState, "check", check)
    result = explore(model)
    assert result.verdict is Verdict.VERIFIED
    ids = Counter(map(id, checked))
    assert max(ids.values()) == 1
    # and none is skipped: every process of every stored state was checked
    assert {id(proc) for state in result.states for proc in state} <= ids.keys()
    assert len(checked) < result.stats.states_stored


def test_the_memo_is_keyed_by_identity_not_value():
    # (True, 0, 0, ()) equals (1, 0, 0, ()), which passed its check first
    # in the same search; the bool bit must still be caught
    def enabled(proc, pid):
        return proc.client_barrier_in == 0

    def gate(s, pid):  # pid 0 asks first, then pid 1
        return s[0].client_barrier_in == pid

    def ask(s, pid):
        if pid == 0:
            return BarrierProcessState(1, 0, 0, ()), s[1]
        return s[0], BarrierProcessState(True, 0, 0, ())

    model = ProtocolModel(
        queue_capacity=2,
        initial_state=(BarrierProcessState(),) * 2,
        rules=(TransitionRule("ask", enabled, ask, gate),),
        invariant=lambda s: True,
        terminal_postcondition=lambda s: True,
    )
    with pytest.raises(ValueError, match="process 1: client_barrier_in must be of type int"):
        explore(model)


@pytest.mark.parametrize("twin,match", [
    (lambda v: RingProcessState(RingStatus.IN_RING, v, 0), "process 1: lhs must be of type int"),
    (lambda v: RingProcessState(RingStatus.IN_RING, 0, v), "process 1: rhs must be of type int"),
    (lambda v: RingProcessState(queue=(req_insert(v),)), "process 1: payload id True is not"),
], ids=["lhs", "rhs", "payload"])
def test_a_bool_is_caught_after_its_int_twin_passed(twin, match):
    # pid 0 builds the process with 1, then pid 1 its equal twin with True
    def enabled(proc, pid):
        return proc == RingProcessState()

    def gate(s, pid):
        return (s[0] == RingProcessState()) == (pid == 0)

    def build(s, pid):
        return (twin(1), s[1]) if pid == 0 else (s[0], twin(True))

    model = ProtocolModel(
        queue_capacity=2,
        initial_state=(RingProcessState(),) * 2,
        rules=(TransitionRule("build", enabled, build, gate),),
        invariant=lambda s: True,
        terminal_postcondition=lambda s: True,
    )
    with pytest.raises(ValueError, match=match):
        explore(model)


def test_the_checker_adds_what_passes_and_skips_what_it_passed(monkeypatch):
    one, zero = BarrierProcessState(1, 0, 0, ()), BarrierProcessState()
    check = state_checker((one, zero), 2)
    check((one, zero))
    twin = BarrierProcessState(True, 0, 0, ())
    for _ in range(2):  # what fails is not kept
        with pytest.raises(ValueError, match="process 1: client_barrier_in must be of type int"):
            check((one, twin))
    calls = []
    monkeypatch.setattr(BarrierProcessState, "check", lambda self, n: calls.append(self))
    fresh = BarrierProcessState()
    check((one, zero))
    check((one, fresh))
    assert calls == [fresh]  # `one` and `zero` are trusted: they passed


@pytest.mark.parametrize("k", range(4))
@pytest.mark.parametrize("new,error,match", [
    (BarrierProcessState(queue=(BARRIER_IN,) * 3), QueueOverflowError, "queue of process {k} "),
    (BarrierProcessState(0, 1, 0, ()), ValueError, "process {k}: client released"),
    (BarrierProcessState(queue=(BARRIER_IN._replace(payload=(0,)),)), ValueError,
     "process {k}: barrier_in carries 0"),
], ids=["over-capacity", "ill-formed", "bad-arity"])
def test_a_new_process_among_passed_ones_is_caught_at_its_pid(k, new, error, match):
    # every other process is one the checker passed, so its one-pass memo
    # test fails on `new` alone and the per-process loop must name pid k
    state = (BarrierProcessState(), BarrierProcessState(1, 0, 0, ()),
             BarrierProcessState(queue=(BARRIER_OUT,)), BarrierProcessState(0, 0, 1, ()))
    check = state_checker(state, 2)
    check(state)
    with pytest.raises(error, match=match.format(k=k)):
        check(state[:k] + (new,) + state[k + 1:])


def test_the_memo_does_not_outlive_its_search():
    # the rules' memos hand the second search the very process objects the
    # first one checked at a larger capacity; the bound must still hold
    model = ring_model(RingConfig(size=3, variant=UNORDERED))
    assert explore(model).verdict is Verdict.VERIFIED
    tight = replace(model, queue_capacity=1)
    assert explore(tight).verdict is Verdict.QUEUE_OVERFLOW
    assert explore(model).verdict is Verdict.VERIFIED


@pytest.mark.parametrize("model,config,verdict", [
    (barrier_model(BarrierConfig(size=3)), ExploreConfig(), Verdict.VERIFIED),
    (barrier_model(BarrierConfig(size=3, mutation=RELEASE_ON_BARRIER_IN)), ExploreConfig(),
     Verdict.INVARIANT_VIOLATED),
    (replace(barrier_model(BarrierConfig(size=2)), terminal_postcondition=lambda s: False),
     ExploreConfig(search_order="dfs"), Verdict.POSTCONDITION_VIOLATED),
    (ring_model(RingConfig(size=3, variant=UNORDERED, queue_capacity=1)), ExploreConfig(),
     Verdict.QUEUE_OVERFLOW),
    (barrier_model(BarrierConfig(size=4)), ExploreConfig(max_states=10), Verdict.LIMIT_EXCEEDED),
], ids=["verified", "invariant", "postcondition", "overflow", "state-limit"])
def test_fired_count_matches_the_edge_log_on_every_exit(model, config, verdict):
    # the search counts only matches; it derives fired = stored - 1 + matched
    result, _, edges = explore_logged(model, config)
    assert result.verdict is verdict
    assert result.stats.transitions_fired == len(edges) > 0
