"""Memory guards for the packed edge log a `--graph` run keeps and for the
graph writer.

Sizes are traced Python allocations (`tracemalloc`) on barrier N=8 (519
stored states, 2056 fired transitions), so they do not depend on the
allocator or the interpreter's own footprint. They do vary by Python version
and by warm-up: a cold process reads the highest peaks (the graph export's
is highest on 3.10), so the figures are taken in a new interpreter, which
runs this file as a script and prints them as JSON.
"""

import gc
import json
import sys
import tracemalloc
from array import array
from pathlib import Path

import pytest

from protocheck import cli
from protocheck.barrier import BarrierConfig, barrier_model
from protocheck.engine import ExploreConfig, explore
from test_cli import run_child
from test_engine import explore_logged

MODEL = barrier_model(BarrierConfig(size=8))


def _retained(observed):
    """(result, log, bytes still allocated by the search while both live):
    a fresh log per search, fed by `observe` if `observed`, else left empty.

    A first search warms the rules' memos, which live as long as the model,
    so that neither measured search counts them."""
    explore(MODEL)
    gc.collect()  # empties the free lists, which would hide reused blocks
    tracemalloc.start()
    try:
        log = array("q")
        result = explore(MODEL, ExploreConfig(observe=log.fromlist if observed else None))
        return result, log, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def measure(path):
    """The figures the tests check, taken in this process; the graph goes to `path`."""
    plain, _, without = _retained(False)
    logged, log, with_edges = _retained(True)
    graph_run, graph_log, _ = explore_logged(MODEL, ExploreConfig(search="dfs"))
    gc.collect()
    tracemalloc.start()
    try:
        cli.export_state_graph(graph_run, graph_log, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = path.read_text()
    return {"stored": plain.stats.states_stored, "fired": logged.stats.transitions_fired,
            "logged_ids": len(log), "edge_log_bytes": with_edges - without, "export_peak": peak,
            "size": path.stat().st_size,
            "edge_lines": text.count(" -> "), "labels": text.count(" [label=")}


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    done = run_child(__file__, str(tmp_path_factory.mktemp("cold") / "g.dot"))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_edge_log_is_packed(cold):
    # a tuple per edge cost about 82 B; four packed ids cost 32 B plus slack
    assert (cold["stored"], cold["fired"], cold["logged_ids"]) == (519, 2056, 4 * 2056)
    assert cold["edge_log_bytes"] / cold["fired"] < 48


def test_graph_export_streams(cold):
    # joining the DOT text first took about four times the file's size
    assert (cold["edge_lines"], cold["labels"]) == (2056, 519 + 2056)
    assert cold["export_peak"] < cold["size"] / 4


if __name__ == "__main__":
    print(json.dumps(measure(Path(sys.argv[1]))))
