"""Acceptance gate: one test per criterion, one printed pass/fail line each.

The criteria: the engine agrees with the brute-force enumerator; barrier
N=10 and ring N=7 and N=5 verify within budget, with (N-1)! ring topologies;
every counterexample replays; output bytes repeat run to run; and the
accounting identity and the BFS/DFS stored set hold.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print. Scale targets are property-based: absolute stored-state counts at
publication scale are not reproducible across tools, so equivalence against
the independent brute-force enumerator plus protocol properties is the bar.
"""

import json
import math
import time
from contextlib import contextmanager

import oracle
from protocheck import cli
from protocheck.barrier import (
    BarrierConfig,
    LEADER_FIRST,
    LEADER_LAST,
    RELEASE_ON_BARRIER_IN,
    barrier_model,
    barrier_postcondition,
)
from protocheck.engine import ExploreConfig, Verdict, explore
from protocheck.ring import ORDERED, RingConfig, UNORDERED, ring_model
from test_engine import check_accounting, instances
from test_golden import _mask_timing

TIME_BUDGET_S = 600.0
MEMORY_BUDGET_BYTES = 4 * 1024**3


@contextmanager
def gate(label):
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL")
        raise
    print(f"{label}: PASS")


def test_criterion_1_oracle_equivalence():
    with gate("criterion 1: stored sets match the brute-force enumerator"):
        start = time.perf_counter()
        for case in instances(3, 4):
            _, model = case.values
            result = explore(model)
            enumerated = oracle.enumerate_reachable(model)
            assert result.verdict is Verdict.VERIFIED
            assert result.stats.states_stored == len(enumerated)
            assert set(result.states) == set(enumerated)
        assert time.perf_counter() - start < 10.0


def test_criterion_2_barrier_verification_at_scale():
    with gate("criterion 2: barrier verified for N=10, both variants"):
        for variant in (LEADER_LAST, LEADER_FIRST):
            result = explore(barrier_model(BarrierConfig(size=10, variant=variant)))
            assert result.verdict is Verdict.VERIFIED
            # verdict soundness, re-checked post hoc on every stored state
            for state in result.states:
                assert not any(p.client_barrier_out for p in state) or all(
                    p.client_barrier_in for p in state
                )
            assert len(result.terminal_states) == 1
            assert barrier_postcondition(result.states[result.terminal_states[0]])
            assert result.stats.elapsed < TIME_BUDGET_S
            assert result.stats.peak_memory_estimate < MEMORY_BUDGET_BYTES


def test_criterion_3_ring_verification_and_topology_counts():
    with gate("criterion 3: ring verified (ordered N=7, unordered N=5), "
              "(N-1)! topologies"):
        ordered = explore(ring_model(RingConfig(size=7, variant=ORDERED)))
        assert ordered.verdict is Verdict.VERIFIED
        assert len(ordered.terminal_states) == 1
        assert ordered.stats.elapsed < TIME_BUDGET_S
        assert ordered.stats.peak_memory_estimate < MEMORY_BUDGET_BYTES

        for n in (2, 3, 4, 5):
            result = explore(ring_model(RingConfig(size=n, variant=UNORDERED)))
            assert result.verdict is Verdict.VERIFIED
            assert len(result.terminal_states) == math.factorial(n - 1)
            got = {result.states[t] for t in result.terminal_states}
            assert got == set(oracle.expected_ring_terminals(n))
            assert result.stats.elapsed < TIME_BUDGET_S
            assert result.stats.peak_memory_estimate < MEMORY_BUDGET_BYTES


def test_criterion_4_counterexample_soundness(tmp_path):
    with gate("criterion 4: seeded bug caught, trace replays, depth minimal"):
        trace = tmp_path / "trace.json"
        code = cli.main(["run", "--model", "barrier", "--size", "3",
                         "--mutation", RELEASE_ON_BARRIER_IN,
                         "--trace", str(trace)])
        assert code == 1
        assert cli.main(["replay", str(trace)]) == 0

        steps = json.loads(trace.read_text(encoding="utf-8"))["steps"]
        model = barrier_model(BarrierConfig(size=3, mutation=RELEASE_ON_BARRIER_IN))
        assert len(steps) - 1 == oracle.min_violation_depth(model, 6) == 3


def test_criterion_5_determinism(tmp_path):
    with gate("criterion 5: identical configurations give identical outputs"):
        dirs = []
        for name in ("first", "second"):
            d = tmp_path / name
            d.mkdir()
            code = cli.main(["run", "--model", "ring", "--size", "4",
                             "--variant", "unordered",
                             "--graph", str(d / "graph.dot"),
                             "--stats", str(d / "stats.tsv")])
            assert code == 0
            code = cli.main(["run", "--model", "barrier", "--size", "3",
                             "--mutation", RELEASE_ON_BARRIER_IN,
                             "--trace", str(d / "trace.json"),
                             "--stats", str(d / "mutation-stats.tsv")])
            assert code == 1
            dirs.append(d)
        a, b = dirs
        assert (a / "graph.dot").read_bytes() == (b / "graph.dot").read_bytes()
        assert (a / "trace.json").read_bytes() == (b / "trace.json").read_bytes()
        for stats in ("stats.tsv", "mutation-stats.tsv"):
            assert _mask_timing((a / stats).read_text(encoding="utf-8")) == \
                _mask_timing((b / stats).read_text(encoding="utf-8"))


def test_criterion_6_accounting_and_search_invariance():
    with gate("criterion 6: accounting identity, BFS set == DFS set"):
        # check_accounting counts fired transitions apart from the search's
        # own counts: the edges the observer saw and the oracle's moves
        for case in instances(3, 4):
            _, model = case.values
            bfs, dfs = (check_accounting(model, ExploreConfig(search))
                        for search in ExploreConfig.SEARCHES)
            assert set(bfs.states) == set(dfs.states)
        # the identity also holds on runs cut short by violations
        mutated = barrier_model(BarrierConfig(size=3, mutation=RELEASE_ON_BARRIER_IN))
        for search in ExploreConfig.SEARCHES:
            result = check_accounting(mutated, ExploreConfig(search))
            assert result.verdict is Verdict.INVARIANT_VIOLATED
