"""The DOT writer against a plain reference writer.

`cli.export_state_graph` renders each distinct process once per export and
joins the cached texts per node. Its bytes must equal those of rendering
every process of every node afresh, on full runs and on runs cut short:
barrier N <= 6 in both variants, with and without the seeded bug, and ring
N <= 4 in both variants, under BFS and DFS.
"""

import weakref
from collections import Counter

import pytest

import protocheck.state
from protocheck import cli
from protocheck.barrier import LEADER_FIRST, RELEASE_ON_BARRIER_IN, BarrierConfig, barrier_model
from protocheck.engine import ExploreConfig, Verdict
from protocheck.ring import UNORDERED, RingConfig, ring_model
from protocheck.state import render_process
from test_engine import explore_logged, instances


def reference_dot(result, edges) -> str:
    """The DOT text with no memo: each node's processes rendered afresh, and
    each edge from its decoded (source, rule name, pid, target) tuple."""
    lines = ["digraph reachable {\n"]
    for sid, state in enumerate(result.states):
        label = " ".join(render_process(p) for p in state)
        lines.append(f'  s{sid} [label="s{sid}: {label}"];\n')
    for src, rule, pid, dst in edges:
        lines.append(f'  s{src} -> s{dst} [label="{rule} @{pid}"];\n')
    lines.append("}\n")
    return "".join(lines)


def _run(model, order):
    return explore_logged(model, ExploreConfig(search=order))


@pytest.mark.parametrize("order", ["bfs", "dfs"])
@pytest.mark.parametrize("cfg, model", instances(6, 4, mutations=True))
def test_export_matches_the_reference_writer(cfg, model, order, tmp_path):
    result, log, edges = _run(model, order)
    path = tmp_path / "g.dot"
    cli.export_state_graph(result, log, path)
    assert path.read_bytes() == reference_dot(result, edges).encode()


@pytest.mark.parametrize("order", ["bfs", "dfs"])
def test_the_mutation_runs_are_cut_short(order):
    # so the comparison above covers runs that stop at a violation
    for n in range(3, 7):
        model = barrier_model(BarrierConfig(size=n, mutation=RELEASE_ON_BARRIER_IN))
        assert _run(model, order)[0].verdict is Verdict.INVARIANT_VIOLATED


@pytest.mark.parametrize("limit", [1, 2, 40])
def test_export_matches_the_reference_writer_at_a_state_limit(limit, tmp_path):
    model = ring_model(RingConfig(size=4, variant=UNORDERED))
    result, log, edges = explore_logged(model, ExploreConfig("dfs", max_states=limit))
    assert result.verdict is Verdict.LIMIT_EXCEEDED
    path = tmp_path / "g.dot"
    cli.export_state_graph(result, log, path)
    assert path.read_bytes() == reference_dot(result, edges).encode()


@pytest.fixture
def graph_run():
    """(result, log) of a DFS search, ready to export."""
    return _run(barrier_model(BarrierConfig(size=6, variant=LEADER_FIRST)), "dfs")[:2]


@pytest.fixture
def renders(monkeypatch):
    """Counter of `render_process` calls, keyed by process value: counted
    where each call reads the fields, so a call through any name counts."""
    calls = Counter()
    read = protocheck.state.process_fields

    def counted(proc):
        calls[proc] += 1
        return read(proc)

    monkeypatch.setattr(protocheck.state, "process_fields", counted)
    return calls


def test_each_distinct_process_is_rendered_once_per_export(graph_run, renders, tmp_path):
    result, log = graph_run
    distinct = {proc for state in result.states for proc in state}
    cli.export_state_graph(result, log, tmp_path / "a.dot")
    assert renders.keys() == distinct
    assert set(renders.values()) == {1}
    # stored states share their processes: far fewer renders than slots
    assert len(distinct) < len(result.states)
    # a second export renders afresh, into a memo of its own, to the same bytes
    cli.export_state_graph(result, log, tmp_path / "b.dot")
    assert set(renders.values()) == {2}
    assert (tmp_path / "a.dot").read_bytes() == (tmp_path / "b.dot").read_bytes()


def test_each_node_is_labeled_through_render_state(graph_run, monkeypatch, tmp_path):
    # the benchmark's traced layer times `cli.render_state`: one call per node
    calls = []
    render_state = cli.render_state

    def counted(state, *args):
        calls.append(state)
        return render_state(state, *args)

    monkeypatch.setattr(cli, "render_state", counted)
    result, log = graph_run
    cli.export_state_graph(result, log, tmp_path / "g.dot")
    assert calls == result.states


def test_the_memo_does_not_outlive_the_export(graph_run, monkeypatch, tmp_path):
    made = []

    class Spy(cli._RenderMemo):
        def __init__(self):
            super().__init__()
            made.append(weakref.ref(self))

    monkeypatch.setattr(cli, "_RenderMemo", Spy)
    cli.export_state_graph(*graph_run, tmp_path / "g.dot")
    assert len(made) == 1
    assert made[0]() is None  # freed on return, with no collection needed
