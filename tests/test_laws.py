"""Closed-form counts of the models' state spaces, as their docstrings state.

The laws are measured, not derived from the engine's history: each was read
off full searches and is checked here by fresh ones. They judge any rewrite
of the search loop at every size they cover, not only the pinned ones.

Run as a script, `python tests/test_laws.py N ... [--ring-ordered N ...]
[--ring-unordered N ...]` checks the barrier laws (both variants), ring
`ordered`'s stored law and ring `unordered`'s terminal law at the given
sizes through the library, for sizes too slow for tier-1.
"""

import argparse
from math import factorial

import pytest

from protocheck.barrier import BarrierConfig, barrier_model
from protocheck.engine import Verdict, explore
from protocheck.ring import ORDERED, UNORDERED, RingConfig, ring_model


def barrier_counts(n: int) -> tuple[int, int]:
    """(stored, matched) of barrier at size `n`, either variant."""
    return 2 ** (n + 1) + n - 1, (n - 2) * 2 ** n + 2


def check_barrier(n: int, variant: str) -> str:
    result = explore(barrier_model(BarrierConfig(size=n, variant=variant)))
    st = result.stats
    assert result.verdict is Verdict.VERIFIED
    assert (st.states_stored, st.states_matched) == barrier_counts(n), (n, variant)
    return f"barrier {variant} N={n}: {st.states_stored} stored, {st.states_matched} matched"


def check_ring_ordered(n: int) -> str:
    result = explore(ring_model(RingConfig(size=n, variant=ORDERED)))
    assert result.verdict is Verdict.VERIFIED
    assert result.stats.states_stored == 10 * 2 ** (n - 3) + 2, n
    return f"ring ordered N={n}: {result.stats.states_stored} stored"


def check_ring_unordered(n: int) -> str:
    # the joiners enter the ring in any of (n - 1)! orders, each its own topology
    result = explore(ring_model(RingConfig(size=n, variant=UNORDERED)))
    assert result.verdict is Verdict.VERIFIED
    assert len(result.terminal_states) == factorial(n - 1), n
    return (f"ring unordered N={n}: {len(result.terminal_states)} terminal states "
            f"({result.stats.states_stored} stored)")


@pytest.mark.parametrize("variant", BarrierConfig.VARIANTS)
@pytest.mark.parametrize("n", range(1, 11))
def test_barrier_stores_and_matches_by_its_law(n, variant):
    check_barrier(n, variant)


@pytest.mark.parametrize("n", range(3, 9))
def test_ring_ordered_stores_by_its_law(n):
    check_ring_ordered(n)


@pytest.mark.parametrize("n", range(1, 6))
def test_ring_unordered_has_one_terminal_state_per_ring_order(n):
    check_ring_unordered(n)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Check the count laws at the given sizes.")
    parser.add_argument("barrier", nargs="*", type=int, help="barrier sizes, both variants")
    parser.add_argument("--ring-ordered", nargs="+", type=int, default=[], metavar="N")
    parser.add_argument("--ring-unordered", nargs="+", type=int, default=[], metavar="N")
    args = parser.parse_args()
    for n in args.barrier:
        for variant in BarrierConfig.VARIANTS:
            print(f"{check_barrier(n, variant)}, as the law says")
    for n in args.ring_ordered:
        print(f"{check_ring_ordered(n)}, as the law says")
    for n in args.ring_unordered:
        print(f"{check_ring_unordered(n)}, as the law says")
