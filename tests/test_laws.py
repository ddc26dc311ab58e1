"""Closed-form counts of the models' state spaces, as their docstrings state.

The laws are measured, not derived from the engine's history: each was read
off full searches and is checked here by fresh ones, under BFS and DFS
alike, as both reach one state space. They judge any rewrite of the search
loop at every size they cover, not only the pinned ones: barrier's stored
and matched states at N = 1-10, ring `ordered`'s stored states at N = 3-8
and ring `unordered`'s (N-1)! terminal states at N = 1-5.

Run as a script, `python tests/test_laws.py N ... [--ring-ordered N ...]
[--ring-unordered N ...]` checks the barrier laws (both variants), ring
`ordered`'s stored law and ring `unordered`'s terminal law at the given
sizes through the library, each under BFS and DFS, for sizes too slow for
tier-1.
"""

import argparse
from math import factorial

import pytest

from protocheck.barrier import BarrierConfig, barrier_model
from protocheck.engine import ExploreConfig, Verdict, explore
from protocheck.ring import ORDERED, UNORDERED, RingConfig, ring_model


def barrier_counts(n: int) -> tuple[int, int]:
    """(stored, matched) of barrier at size `n`, either variant."""
    return 2 ** (n + 1) + n - 1, (n - 2) * 2 ** n + 2


def check_barrier(n: int, variant: str, search: str) -> str:
    result = explore(barrier_model(BarrierConfig(size=n, variant=variant)),
                     ExploreConfig(search=search))
    st = result.stats
    assert result.verdict is Verdict.VERIFIED
    assert (st.states_stored, st.states_matched) == barrier_counts(n), (n, variant, search)
    return (f"barrier {variant} N={n} {search}: {st.states_stored} stored, "
            f"{st.states_matched} matched")


def check_ring_ordered(n: int, search: str) -> str:
    result = explore(ring_model(RingConfig(size=n, variant=ORDERED)), ExploreConfig(search=search))
    assert result.verdict is Verdict.VERIFIED
    assert result.stats.states_stored == 10 * 2 ** (n - 3) + 2, (n, search)
    return f"ring ordered N={n} {search}: {result.stats.states_stored} stored"


def check_ring_unordered(n: int, search: str) -> str:
    # the joiners enter the ring in any of (n - 1)! orders, each its own topology
    result = explore(ring_model(RingConfig(size=n, variant=UNORDERED)),
                     ExploreConfig(search=search))
    assert result.verdict is Verdict.VERIFIED
    assert len(result.terminal_states) == factorial(n - 1), (n, search)
    return (f"ring unordered N={n} {search}: {len(result.terminal_states)} terminal states "
            f"({result.stats.states_stored} stored)")


@pytest.mark.parametrize("search", ExploreConfig.SEARCHES)
@pytest.mark.parametrize("variant", BarrierConfig.VARIANTS)
@pytest.mark.parametrize("n", range(1, 11))
def test_barrier_stores_and_matches_by_its_law(n, variant, search):
    check_barrier(n, variant, search)


@pytest.mark.parametrize("search", ExploreConfig.SEARCHES)
@pytest.mark.parametrize("n", range(3, 9))
def test_ring_ordered_stores_by_its_law(n, search):
    check_ring_ordered(n, search)


@pytest.mark.parametrize("search", ExploreConfig.SEARCHES)
@pytest.mark.parametrize("n", range(1, 6))
def test_ring_unordered_has_one_terminal_state_per_ring_order(n, search):
    check_ring_unordered(n, search)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Check the count laws at the given sizes.")
    parser.add_argument("barrier", nargs="*", type=int, help="barrier sizes, both variants")
    parser.add_argument("--ring-ordered", nargs="+", type=int, default=[], metavar="N")
    parser.add_argument("--ring-unordered", nargs="+", type=int, default=[], metavar="N")
    args = parser.parse_args()
    for search in ExploreConfig.SEARCHES:
        for n in args.barrier:
            for variant in BarrierConfig.VARIANTS:
                print(f"{check_barrier(n, variant, search)}, as the law says")
        for n in args.ring_ordered:
            print(f"{check_ring_ordered(n, search)}, as the law says")
        for n in args.ring_unordered:
            print(f"{check_ring_unordered(n, search)}, as the law says")
