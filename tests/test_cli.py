import json
import re
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import pytest

from protocheck import cli
from protocheck.barrier import BarrierConfig, barrier_model
from protocheck.engine import ProtocolModel, TransitionRule, explore
from protocheck.ring import RingConfig, ring_model
from protocheck.state import (
    Message,
    MessageKindBase,
    receive_message,
    render_queue,
    replace_process,
    send_message,
)

NODE_RE = re.compile(r"^\s*s\d+ \[label=", re.M)
EDGE_RE = re.compile(r"^\s*s\d+ -> s\d+ \[label=", re.M)


def run_cli(*args):
    return cli.main(list(args))


class TestRun:
    def test_verified_barrier(self, capsys):
        assert run_cli("run", "--model", "barrier", "--size", "3") == 0
        out = capsys.readouterr().out
        assert "verdict: verified" in out
        assert "states stored: 18" in out

    def test_stats_file_columns(self, tmp_path):
        stats = tmp_path / "stats.tsv"
        assert run_cli("run", "--model", "barrier", "--size", "3",
                       "--stats", str(stats)) == 0
        header, row = stats.read_text().splitlines()
        assert header.split("\t") == list(cli.STATS_COLUMNS)
        fields = row.split("\t")
        assert fields[0] == "barrier"
        assert fields[1] == "bfs leader_last"
        assert fields[2] == "3"
        assert fields[5] == "18"
        assert fields[6] == "10"

    def test_violation_writes_replayable_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.txt"
        code = run_cli("run", "--model", "barrier", "--size", "3",
                       "--mutation", "release_on_barrier_in", "--trace", str(trace))
        assert code == 1
        assert "verdict: invariant_violated" in capsys.readouterr().out
        assert trace.exists()
        doc = json.loads((tmp_path / "trace.txt.json").read_text())
        assert doc["verdict"] == "invariant_violated"
        assert run_cli("replay", str(tmp_path / "trace.txt.json")) == 0

    def test_no_trace_for_verified_run(self, tmp_path, capsys):
        trace = tmp_path / "trace.txt"
        assert run_cli("run", "--model", "barrier", "--size", "2",
                       "--trace", str(trace)) == 0
        assert "no trace written" in capsys.readouterr().out
        assert not trace.exists()

    def test_graph_counts_match_statistics(self, tmp_path):
        graph = tmp_path / "g.dot"
        assert run_cli("run", "--model", "ring", "--size", "2",
                       "--variant", "ordered", "--graph", str(graph)) == 0
        text = graph.read_text()
        expected = explore(ring_model(RingConfig(n=2, variant="ordered")))
        assert len(NODE_RE.findall(text)) == expected.stats.states_stored == 6
        assert len(EDGE_RE.findall(text)) == expected.stats.transitions_fired == 6

    def test_graph_single_node_for_singleton_barrier(self, tmp_path):
        graph = tmp_path / "g.dot"
        assert run_cli("run", "--model", "barrier", "--size", "1",
                       "--graph", str(graph)) == 0
        assert len(NODE_RE.findall(graph.read_text())) == 4

    def test_limit_exceeded_exit_code(self):
        assert run_cli("run", "--model", "barrier", "--size", "3",
                       "--max-states", "5") == 2

    def test_queue_overflow_exit_code(self):
        assert run_cli("run", "--model", "ring", "--size", "3",
                       "--variant", "unordered", "--queue-capacity", "1") == 2

    def test_dfs_also_verifies(self):
        assert run_cli("run", "--model", "ring", "--size", "4",
                       "--variant", "unordered", "--search", "dfs") == 0


class TestUsageErrors:
    def test_size_zero(self, capsys):
        assert run_cli("run", "--model", "barrier", "--size", "0") == 3
        assert "error" in capsys.readouterr().err

    def test_unknown_variant(self):
        assert run_cli("run", "--model", "ring", "--size", "3",
                       "--variant", "leader_last") == 3

    def test_mutation_on_ring(self):
        assert run_cli("run", "--model", "ring", "--size", "3",
                       "--mutation", "release_on_barrier_in") == 3

    def test_unknown_mutation(self):
        assert run_cli("run", "--model", "barrier", "--size", "3",
                       "--mutation", "nope") == 3

    def test_missing_subcommand(self):
        assert run_cli() == 3

    def test_nonpositive_limits(self):
        assert run_cli("run", "--model", "barrier", "--size", "2",
                       "--max-states", "0") == 3
        assert run_cli("run", "--model", "barrier", "--size", "2",
                       "--max-seconds", "0") == 3

    def test_unwritable_output_names_the_path(self, capsys):
        code = run_cli("run", "--model", "barrier", "--size", "2",
                       "--stats", "/nonexistent-dir/stats.tsv")
        assert code == 3
        assert "/nonexistent-dir/stats.tsv" in capsys.readouterr().err

    def test_replay_missing_file(self):
        assert run_cli("replay", "/nonexistent-dir/trace.json") == 3


class TestReplay:
    def _violation_trace(self, tmp_path):
        trace = tmp_path / "t.txt"
        assert run_cli("run", "--model", "barrier", "--size", "3",
                       "--mutation", "release_on_barrier_in",
                       "--trace", str(trace)) == 1
        return tmp_path / "t.txt.json"

    def test_round_trip(self, tmp_path):
        assert run_cli("replay", str(self._violation_trace(tmp_path))) == 0

    def test_tampered_state_detected(self, tmp_path, capsys):
        path = self._violation_trace(tmp_path)
        doc = json.loads(path.read_text())
        doc["steps"][-1]["state"]["processes"][0]["client_barrier_in"] ^= 1
        path.write_text(json.dumps(doc))
        assert run_cli("replay", str(path)) == 1
        assert "mismatch" in capsys.readouterr().out

    def test_tampered_rule_detected(self, tmp_path):
        path = self._violation_trace(tmp_path)
        doc = json.loads(path.read_text())
        doc["steps"][1]["rule"] = "barrier_out"  # not enabled at step 1
        path.write_text(json.dumps(doc))
        assert run_cli("replay", str(path)) == 1

    def _overflow_trace(self, tmp_path):
        trace = tmp_path / "o.txt"
        assert run_cli("run", "--model", "ring", "--size", "3", "--variant", "unordered",
                       "--queue-capacity", "1", "--trace", str(trace)) == 2
        return tmp_path / "o.txt.json"

    def test_unknown_model_is_a_usage_error(self, tmp_path, capsys):
        path = self._overflow_trace(tmp_path)
        doc = json.loads(path.read_text())
        doc["model"], doc["variant"] = "nosuch", "ordered"
        path.write_text(json.dumps(doc))
        assert run_cli("replay", str(path)) == 3
        assert "nosuch" in capsys.readouterr().err

    def test_failing_step_is_a_mismatch(self, tmp_path, capsys):
        path = self._overflow_trace(tmp_path)
        doc = json.loads(path.read_text())
        # a second join request overflows the entry's queue of capacity 1
        doc["steps"].append(dict(doc["steps"][-1], step=2, pid=2))
        path.write_text(json.dumps(doc))
        assert run_cli("replay", str(path)) == 1
        assert "replay mismatch at step 2" in capsys.readouterr().out

    def test_ill_formed_step_is_a_mismatch(self, tmp_path, monkeypatch, capsys):
        path = self._violation_trace(tmp_path)

        def build(cfg):
            # client_request releases the client instead of recording its request
            def release(s, pid):
                return replace_process(
                    s, pid, s[pid]._replace(client_barrier_out=1))

            model = barrier_model(cfg)
            request = model.rule_named("client_request")
            return replace(model, rules=(
                TransitionRule(request.name, request.enabled, release),) + model.rules[1:])

        monkeypatch.setitem(cli.MODELS, "barrier", (BarrierConfig, build))
        assert run_cli("replay", str(path)) == 1
        out = capsys.readouterr().out
        assert "replay mismatch at step 1: client_request at pid 0 fails" in out
        assert "client released before it reached the barrier" in out

    def test_malformed_document(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"model": "barrier"}))
        assert run_cli("replay", str(path)) == 3

    def test_malformed_step_list(self, tmp_path):
        path = self._violation_trace(tmp_path)
        doc = json.loads(path.read_text())
        doc["steps"] = ["not a step"]
        path.write_text(json.dumps(doc))
        assert run_cli("replay", str(path)) == 3


def _strip_timing(stats_text):
    rows = []
    for line in stats_text.splitlines():
        cells = line.split("\t")
        rows.append([c for i, c in enumerate(cells) if i not in (3, 4)])
    return rows


class TestDeterminism:
    def test_identical_runs_produce_identical_outputs(self, tmp_path):
        outputs = []
        for name in ("a", "b"):
            d = tmp_path / name
            d.mkdir()
            code = run_cli("run", "--model", "barrier", "--size", "3",
                           "--mutation", "release_on_barrier_in",
                           "--trace", str(d / "trace.txt"),
                           "--graph", str(d / "graph.dot"),
                           "--stats", str(d / "stats.tsv"))
            assert code == 1
            outputs.append(d)
        a, b = outputs
        assert (a / "trace.txt").read_bytes() == (b / "trace.txt").read_bytes()
        assert (a / "trace.txt.json").read_bytes() == (b / "trace.txt.json").read_bytes()
        assert (a / "graph.dot").read_bytes() == (b / "graph.dot").read_bytes()
        assert _strip_timing((a / "stats.tsv").read_text()) == \
            _strip_timing((b / "stats.tsv").read_text())


def test_export_requires_edge_retention(tmp_path):
    result = explore(barrier_model(BarrierConfig(n=1)))  # no record_edges
    with pytest.raises(ValueError):
        cli.export_state_graph(result, tmp_path / "g.dot")


def test_render_state_is_compact():
    state = barrier_model(BarrierConfig(n=2)).initial_states[0]
    assert cli.render_state(state) == "(0,0,0,[]) (0,0,0,[])"
    ring = ring_model(RingConfig(n=2)).initial_states[0]
    assert cli.render_state(ring) == "(ring,0/0,[]) (out,-/-,[])"


class _Toy(MessageKindBase):
    TICK = ("t", 0)


class _ToyProcess(NamedTuple):
    sent: int = 0
    queue: tuple = ()

    def render(self):
        return f"({self.sent},{render_queue(self.queue)})"

    def check(self):
        if self.sent not in (0, 1):
            raise ValueError("sent is a bit")


@dataclass(frozen=True)
class _ToyConfig:
    n: int
    variant: str = "plain"
    queue_capacity: Optional[int] = None


def _toy_model(cfg):
    def send(state, pid):
        out = replace_process(state, pid, state[pid]._replace(sent=1))
        return send_message(out, (pid + 1) % cfg.n, Message(_Toy.TICK))

    initial = (_ToyProcess(),) * cfg.n
    return ProtocolModel(
        name="toy", queue_capacity=cfg.queue_capacity or 2, initial_states=(initial,),
        rules=(TransitionRule("send", lambda s, pid: not s[pid].sent, send),
               TransitionRule("receive", lambda s, pid: bool(s[pid].queue),
                              receive_message)),
        # seeded violation: two ticks are in flight once both processes sent
        invariant=lambda s: sum(len(p.queue) for p in s) < 2,
        terminal_postcondition=lambda s: True,
    )


def test_a_registered_protocol_runs_and_replays(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(cli.MODELS, "toy", (_ToyConfig, _toy_model))
    trace = tmp_path / "t.txt"
    assert run_cli("run", "--model", "toy", "--size", "2", "--trace", str(trace)) == 1
    assert "model=toy size=2 variant=plain" in capsys.readouterr().out
    assert trace.read_text().splitlines()[-1].endswith("(1,[t]) (1,[t])")
    assert run_cli("replay", f"{trace}.json") == 0
    assert "replay OK: 2 steps verified" in capsys.readouterr().out
