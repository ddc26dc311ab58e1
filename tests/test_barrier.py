import pytest

import oracle
from protocheck.barrier import (
    BARRIER_IN,
    BARRIER_OUT,
    BarrierConfig,
    BarrierProcessState,
    LEADER_FIRST,
    LEADER_LAST,
    RELEASE_ON_BARRIER_IN,
    barrier_initial_state,
    barrier_invariant,
    barrier_model,
    barrier_postcondition,
    client_request_enabled,
    next_rank,
)
from protocheck.engine import explore, reconstruct_trace


def B(ci=0, co=0, h=0, q=()):
    return BarrierProcessState(ci, co, h, tuple(q))


def sys_state(*procs):
    return procs


def fire(rule, s, pid, **options):
    """`rule` applied at `pid` in a model of `s`'s size built with `options`."""
    return barrier_model(BarrierConfig(size=len(s), **options)).rule_named(rule).apply(s, pid)


def test_config_validation():
    with pytest.raises(ValueError):
        BarrierConfig(size=0)
    with pytest.raises(ValueError):
        BarrierConfig(size=3, variant="sideways")
    with pytest.raises(ValueError):
        BarrierConfig(size=3, mutation="made_up")
    with pytest.raises(ValueError, match="queue capacity must be positive"):
        BarrierConfig(size=3, queue_capacity=0)
    assert BarrierConfig(size=3) == BarrierConfig(size=3, variant="leader_last", queue_capacity=5)
    assert BarrierConfig(size=3, queue_capacity=1).queue_capacity == 1


@pytest.mark.parametrize("options", [
    {"size": True},  # True == 1 would build a one-process model
    {"size": 3.0},
    {"size": "3"},
    {"size": 3, "queue_capacity": True},
    {"size": 3, "queue_capacity": 1.5},
])
def test_config_rejects_non_int_sizes(options):
    with pytest.raises(ValueError, match="must be ints"):
        BarrierConfig(**options)


class TestInitialState:
    def test_n3_all_zero(self):
        s = barrier_initial_state(BarrierConfig(size=3))
        assert s == sys_state(B(), B(), B())
        assert barrier_model(BarrierConfig(size=3)).queue_capacity == 5

    def test_n1(self):
        s = barrier_initial_state(BarrierConfig(size=1))
        assert s == (B(),)

    def test_encoding_deterministic_across_builds(self):
        a = barrier_initial_state(BarrierConfig(size=5))
        b = barrier_initial_state(BarrierConfig(size=5))
        assert a == b


class TestClientRequest:
    def test_leader_emits_token(self):
        s = barrier_initial_state(BarrierConfig(size=3))
        out = fire("client_request", s, 0)
        assert out[0] == B(1, 0, 0)
        assert out[1].queue == (BARRIER_IN,)
        assert out[2].queue == ()

    def test_holder_forwards_on_request(self):
        s = sys_state(B(1, 0, 0), B(0, 0, 1), B())
        out = fire("client_request", s, 1)
        assert out[1] == B(1, 0, 0)
        assert out[2].queue == (BARRIER_IN,)

    def test_nonholder_just_sets_the_bit(self):
        s = barrier_initial_state(BarrierConfig(size=3))
        out = fire("client_request", s, 2)
        assert out[2] == B(1, 0, 0)
        assert all(p.queue == () for p in out)

    def test_singleton_leader_sends_to_itself(self):
        s = barrier_initial_state(BarrierConfig(size=1))
        out = fire("client_request", s, 0)
        assert out[0] == B(1, 0, 0, [BARRIER_IN])

    def test_guard_is_handled_exactly_once(self):
        s = barrier_initial_state(BarrierConfig(size=2))
        assert client_request_enabled(s[0], 0)
        assert not client_request_enabled(fire("client_request", s, 0)[0], 0)


class TestBarrierInNonleader:
    def test_forwards_when_client_already_asked(self):
        s = sys_state(B(1, 0, 0), B(1, 0, 0, [BARRIER_IN]), B())
        out = fire("barrier_in_nonleader", s, 1)
        assert out[1].queue == ()
        assert out[2].queue == (BARRIER_IN,)

    def test_holds_when_client_has_not_asked(self):
        s = sys_state(B(1, 0, 0), B(0, 0, 0, [BARRIER_IN]), B())
        out = fire("barrier_in_nonleader", s, 1)
        assert out[1] == B(0, 0, 1)
        assert out[2].queue == ()

    def test_forward_wraps_back_to_leader(self):
        s = sys_state(B(1, 0, 0), B(1, 0, 0), B(1, 0, 0, [BARRIER_IN]))
        out = fire("barrier_in_nonleader", s, 2)
        assert out[0].queue == (BARRIER_IN,)
        assert next_rank(2, 3) == 0

    def test_seeded_bug_releases_on_forward(self):
        s = sys_state(B(1, 0, 0), B(1, 0, 0, [BARRIER_IN]), B())
        out = fire("barrier_in_nonleader", s, 1, mutation=RELEASE_ON_BARRIER_IN)
        assert out[1].client_barrier_out == 1
        assert out[2].queue == (BARRIER_IN,)


class TestBarrierInLeader:
    def test_leader_last_starts_release_round(self):
        s = sys_state(B(1, 0, 0, [BARRIER_IN]), B(1, 0, 0), B(1, 0, 0))
        out = fire("barrier_in_leader", s, 0, variant=LEADER_LAST)
        assert out[0] == B(1, 0, 0)
        assert out[1].queue == (BARRIER_OUT,)

    def test_leader_first_also_releases_its_client(self):
        s = sys_state(B(1, 0, 0, [BARRIER_IN]), B(1, 0, 0), B(1, 0, 0))
        out = fire("barrier_in_leader", s, 0, variant=LEADER_FIRST)
        assert out[0] == B(1, 1, 0)
        assert out[1].queue == (BARRIER_OUT,)

    def test_singleton_sends_release_to_itself(self):
        s = sys_state(B(1, 0, 0, [BARRIER_IN]))
        out = fire("barrier_in_leader", s, 0, variant=LEADER_LAST)
        assert out[0] == B(1, 0, 0, [BARRIER_OUT])


class TestBarrierOut:
    def test_leader_last_final_release(self):
        # the closing move of a full n=3 round: the leader is released last
        s = sys_state(B(1, 0, 0, [BARRIER_OUT]), B(1, 1, 0), B(1, 1, 0))
        out = fire("barrier_out", s, 0, variant=LEADER_LAST)
        assert out == sys_state(B(1, 1, 0), B(1, 1, 0), B(1, 1, 0))

    def test_nonleader_releases_and_forwards(self):
        s = sys_state(B(1, 0, 0), B(1, 0, 0, [BARRIER_OUT]), B(1, 0, 0))
        out = fire("barrier_out", s, 1, variant=LEADER_LAST)
        assert out[1] == B(1, 1, 0)
        assert out[2].queue == (BARRIER_OUT,)

    def test_leader_first_consumes_without_change(self):
        s = sys_state(B(1, 1, 0, [BARRIER_OUT]), B(1, 1, 0), B(1, 1, 0))
        out = fire("barrier_out", s, 0, variant=LEADER_FIRST)
        assert out == sys_state(B(1, 1, 0), B(1, 1, 0), B(1, 1, 0))

    def test_singleton_consumes_own_release(self):
        s = sys_state(B(1, 0, 0, [BARRIER_OUT]))
        out = fire("barrier_out", s, 0, variant=LEADER_LAST)
        assert out[0] == B(1, 1, 0)


class TestInvariant:
    def test_initial_state_trivially_holds(self):
        assert barrier_invariant(barrier_initial_state(BarrierConfig(size=3)))

    def test_release_before_everyone_arrived_violates(self):
        assert not barrier_invariant(sys_state(B(1, 1, 0), B(0, 0, 0)))

    def test_holds_on_every_reachable_state(self):
        for state in oracle.enumerate_reachable(barrier_model(BarrierConfig(size=3))):
            assert barrier_invariant(state)


class TestPostcondition:
    def test_everyone_released_nothing_pending(self):
        assert barrier_postcondition(sys_state(B(1, 1, 0), B(1, 1, 0), B(1, 1, 0)))

    def test_pending_message_fails(self):
        assert not barrier_postcondition(
            sys_state(B(1, 1, 0, [BARRIER_OUT]), B(1, 1, 0), B(1, 1, 0))
        )

    def test_terminals_of_leader_first_n5(self):
        result = explore(barrier_model(BarrierConfig(size=5, variant=LEADER_FIRST)))
        assert result.terminal_states
        for tid in result.terminal_states:
            assert barrier_postcondition(result.states[tid])


@pytest.mark.parametrize("variant", [LEADER_LAST, LEADER_FIRST])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_unique_all_released_terminal(n, variant):
    result = explore(barrier_model(BarrierConfig(size=n, variant=variant)))
    assert result.verdict.value == "verified"
    assert len(result.terminal_states) == 1
    terminal = result.states[result.terminal_states[0]]
    assert all(p == B(1, 1, 0) for p in terminal)


@pytest.mark.parametrize("variant", [LEADER_LAST, LEADER_FIRST])
def test_single_token_circulates(variant):
    # at most one collect token exists, counting the not-yet-emitted phase;
    # at most one release token ever exists
    model = barrier_model(BarrierConfig(size=3, variant=variant))
    for state in oracle.enumerate_reachable(model):
        queued = [m for p in state for m in p.queue]
        n_in = sum(m == BARRIER_IN for m in queued)
        n_out = sum(m == BARRIER_OUT for m in queued)
        holding = sum(p.holding_barrier_in for p in state)
        not_emitted = 1 if state[0].client_barrier_in == 0 else 0
        assert n_in + holding + not_emitted <= 1
        assert n_out <= 1


def test_client_bits_monotone_along_traces():
    result = explore(barrier_model(BarrierConfig(size=3)))
    for sid in range(len(result.states)):
        trace = reconstruct_trace(result, sid)
        for before, after in zip(trace, trace[1:]):
            for p, q in zip(before.state, after.state):
                assert q.client_barrier_in >= p.client_barrier_in
                assert q.client_barrier_out >= p.client_barrier_out


def test_leader_last_really_is_last():
    model = barrier_model(BarrierConfig(size=4, variant=LEADER_LAST))
    for state in oracle.enumerate_reachable(model):
        if state[0].client_barrier_out:
            assert all(p.client_barrier_out for p in state)


def test_mutated_model_breaks_the_invariant():
    model = barrier_model(BarrierConfig(size=3, mutation=RELEASE_ON_BARRIER_IN))
    result = explore(model)
    assert result.verdict.value == "invariant_violated"
    assert result.witness is not None
    assert not barrier_invariant(result.states[result.witness])
