"""The packed edge log, and memory guards for it and the graph writer.

Sizes are traced Python allocations (`tracemalloc`) on barrier N=8 (519
stored states, 2056 fired transitions), so they do not depend on the
allocator or the interpreter's own footprint.
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


def test_edge_log_indexes_as_it_iterates(graph_run):
    edges = graph_run.edges
    listed = list(edges)
    assert len(listed) == len(edges) == 2056
    assert [edges[i] for i in range(len(edges))] == listed
    assert edges[-1] == listed[-1]
    with pytest.raises(IndexError):
        edges[len(edges)]


@pytest.mark.parametrize("index", [
    slice(1, 3), slice(-5, None), slice(None, -2040), slice(3, 40, 7),
    slice(None, None, -97), slice(10, 10), slice(5, 2), slice(-3000, 3000),
], ids=repr)
def test_edge_log_slices_as_a_list(graph_run, index):
    edges = graph_run.edges
    assert edges[index] == list(edges)[index]
    assert all(type(edge) is tuple and len(edge) == 4 for edge in edges[index])


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
