"""What the search loop calls, and how often.

Per verified search, the invariant runs once per stored state and a gate
once per (stored state, pid) where its rule's guard holds, on one decoded
tuple per popped state. Guards depend on the applies. Where every rule's
apply is a step memo, the search's move table asks each guard once per
distinct (pid, process) among the stored states, each step runs once per
distinct (rule, pid, process) it fires at, and the visited-set key is
encoded once, for the initial state: a step memo's move makes its
successor's key. Where any apply is not a step memo, as the counting
wrappers here and the benchmark's traced rounds make, the table keeps
nothing and guards run stored x rules x N times, each apply once per fired
transition and the key's encoder once per fired transition plus the
initial state: the benchmark's contract (perfbench/run.py checks it on its
traced rounds), pinned here so that a break fails the tests, not only the
benchmark. The well-formedness check runs once per process: where the
search's memo of a step makes it, or, for an apply that is no step memo,
by the search's `state_checker` on each state it gives, once per process
object, by identity.
"""

import functools
import json
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from protocheck import engine
from protocheck.barrier import (
    LEADER_FIRST,
    LEADER_LAST,
    RELEASE_ON_BARRIER_IN,
    BarrierConfig,
    BarrierProcessState,
    barrier_model,
)
from protocheck.engine import ExploreConfig, Verdict, explore
from protocheck.ring import ORDERED, UNORDERED, RingConfig, ring_model
from protocheck.state import memoized_apply, state_checker
from test_cli import run_child, stepless
from test_engine import explore_logged

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def _counted(fn, calls, key):
    def wrapper(*args):
        calls[key] += 1
        return fn(*args)
    return wrapper


def _counted_wraps(fn, calls, key):
    """`_counted` as `functools.wraps` makes it: it copies `fn`'s `__dict__`
    and sets `__wrapped__`, yet it is no step memo, so a search checks its states."""
    return functools.wraps(fn)(_counted(fn, calls, key))


@pytest.mark.parametrize("counted", [_counted, _counted_wraps, None],
                         ids=["plain", "functools-wraps", "step-memo"])
@pytest.mark.parametrize("model", [
    barrier_model(BarrierConfig(size=6, variant=LEADER_LAST)),
    barrier_model(BarrierConfig(size=6, variant=LEADER_FIRST)),
    ring_model(RingConfig(size=4, variant=ORDERED)),
    ring_model(RingConfig(size=4, variant=UNORDERED)),
], ids=["barrier-leader_last-6", "barrier-leader_first-6", "ring-ordered-4",
        "ring-unordered-4"])
def test_call_counts_are_fixed_by_the_search(model, counted, monkeypatch):
    plain = explore(model).stats
    calls = Counter()
    # `replace` keeps each rule's gate; a positional rebuild would drop it
    wrap = counted or _counted

    def apply(rule):  # a step memo counts its step's runs, as the search's memos make them
        if counted is None:
            return memoized_apply(_counted(rule.apply.__wrapped__, calls, "step"))
        return counted(rule.apply, calls, "apply")

    traced = replace(
        model,
        rules=tuple(replace(rule, enabled=wrap(rule.enabled, calls, "guard"), apply=apply(rule),
                            gate=rule.gate and wrap(rule.gate, calls, "gate"))
                    for rule in model.rules),
        invariant=wrap(model.invariant, calls, "invariant"),
    )
    monkeypatch.setattr(engine, "canonical_encode",
                        wrap(engine.canonical_encode, calls, "encode"))
    result = explore(traced)
    st = result.stats
    assert result.verdict is Verdict.VERIFIED
    assert replace(st, elapsed=0.0) == replace(plain, elapsed=0.0)
    n = len(model.initial_state)
    gated = [rule for rule in model.rules if rule.gate is not None]
    hits = sum(rule.enabled(state[pid], pid)
               for rule in gated for state in result.states for pid in range(n))
    assert (hits > 0) == bool(gated)  # only ring ordered has a gate
    if counted is None:
        # the move table asks the guards once per distinct (pid, process)
        asked = sum(len({state[pid] for state in result.states}) for pid in range(n))
        steps = len({(r, pid, state[pid]) for state in result.states
                     for r, rule in enumerate(model.rules) for pid in range(n)
                     if rule.enabled_at(state, pid)})
        expected = {"step": steps, "encode": 1}
    else:  # any other apply: once per (state, pid)
        asked = st.states_stored * n
        expected = {"apply": st.transitions_fired, "encode": st.transitions_fired + 1}
    assert calls == Counter({"guard": asked * len(model.rules), "gate": hits,
                             "invariant": st.states_stored, **expected})


def test_a_popped_state_is_decoded_once_for_its_gates():
    # ring `ordered` gates `begin_insert` at each pid whose guard holds: every
    # gate asked at one popped state reads the one tuple decoded for it
    model = ring_model(RingConfig(size=5, variant=ORDERED))
    asked = []  # holding each tuple keeps its id from being reused
    gate = model.rules[0].gate
    traced = replace(model, rules=(replace(
        model.rules[0], gate=lambda state, pid: asked.append(state) or gate(state, pid)),
        *model.rules[1:]))
    assert explore(traced).verdict is Verdict.VERIFIED
    assert len({id(state) for state in asked}) == len(set(asked)) < len(asked)


@pytest.mark.parametrize("model, argv", [
    (barrier_model(BarrierConfig(size=4)), ("--model", "barrier", "--size", "4")),
    # not ring `ordered`: the traced rebuild of each rule drops its gate
    (ring_model(RingConfig(size=3, variant=UNORDERED)),
     ("--model", "ring", "--size", "3", "--variant", "unordered")),
], ids=["barrier-4", "ring-unordered-3"])
def test_a_traced_benchmark_round_counts_as_explore_does(model, argv):
    # a traced round wraps names on `barrier` and `ring` by getattr, so it
    # fails here, not only in the benchmark, once a name it wraps is gone
    child = run_child(str(CHILD), "traced", "--", "run", *argv)
    assert child.returncode == 0, child.stderr
    record = json.loads(child.stdout.splitlines()[-1])
    result = explore(model)
    st = result.stats
    assert record["rc"] == 0
    assert record["counts"] == {
        "verdict": result.verdict.value, "initial": result.initial_count,
        "stored": st.states_stored, "matched": st.states_matched,
        "fired": st.transitions_fired, "terminal": len(result.terminal_states),
        "max_frontier": st.max_frontier,
    }
    assert record["layers"]["state.edit"][0] == 0


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


def test_the_checker_adds_what_passes_and_skips_what_it_passed(monkeypatch):
    one, zero = BarrierProcessState(1, 0, 0, ()), BarrierProcessState()
    check = state_checker((one, zero), 2)
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
     ExploreConfig(search="dfs"), Verdict.POSTCONDITION_VIOLATED),
    (ring_model(RingConfig(size=3, variant=UNORDERED, queue_capacity=1)), ExploreConfig(),
     Verdict.QUEUE_OVERFLOW),
    (barrier_model(BarrierConfig(size=4)), ExploreConfig(max_states=10), Verdict.LIMIT_EXCEEDED),
], ids=["verified", "invariant", "postcondition", "overflow", "state-limit"])
def test_fired_count_matches_the_edge_log_on_every_exit(model, config, verdict):
    # the search counts only matches; it derives fired = stored - 1 + matched
    result, _, edges = explore_logged(model, config)
    assert result.verdict is verdict
    assert result.stats.transitions_fired == len(edges) > 0
    # applies with no step memo, whose states the search checks, stop alike
    other = explore(stepless(model), config)
    assert (other.verdict, other.witness) == (verdict, result.witness)
    assert replace(other.stats, elapsed=0.0) == replace(result.stats, elapsed=0.0)
