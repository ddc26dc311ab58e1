"""The packed edge log, and memory guards for it and the graph writer.

Sizes are traced Python allocations (`tracemalloc`) on barrier N=8 (519
stored states, 2056 fired transitions), so they do not depend on the
allocator or the interpreter's own footprint. They do vary by Python version
and by warm-up: run alone, in a cold process, this file reads its highest
peaks (the graph export's is highest on 3.10), so it must pass run alone too.
"""

import gc
import tracemalloc

import pytest

from protocheck import cli
from protocheck.barrier import BarrierConfig, barrier_model
from protocheck.engine import ExploreConfig, explore

MODEL = barrier_model(BarrierConfig(n=8))


def _retained(config):
    """(result, bytes still allocated by the search while its result lives).

    A first search warms the rules' memos, which live as long as the model,
    so that neither measured search counts them."""
    explore(MODEL, config)
    gc.collect()  # empties the free lists, which would hide reused blocks
    tracemalloc.start()
    try:
        result = explore(MODEL, config)
        return result, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def graph_run():
    return explore(MODEL, ExploreConfig(search_order="dfs", record_edges=True))


def test_edge_log_is_packed():
    # a tuple per edge cost about 82 B; four packed ids cost 32 B plus slack
    plain, without = _retained(ExploreConfig())
    logged, with_edges = _retained(ExploreConfig(record_edges=True))
    fired = logged.stats.transitions_fired
    assert (plain.stats.states_stored, fired) == (519, 2056)
    assert (with_edges - without) / fired < 48


def test_edge_log_iterates_to_its_length(graph_run):
    edges = graph_run.edges
    listed = list(edges)
    assert len(listed) == len(edges) == 2056
    assert list(edges) == listed  # each iteration reads the log afresh
    assert all(type(edge) is tuple and len(edge) == 4 for edge in listed)


def test_graph_export_streams(graph_run, tmp_path):
    # joining the DOT text first took about four times the file's size
    path = tmp_path / "g.dot"
    gc.collect()
    tracemalloc.start()
    try:
        cli.export_state_graph(graph_run, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    text = path.read_text()
    assert (text.count(" -> "), text.count(" [label=")) == (2056, 519 + 2056)
    assert peak < size / 4
