import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import ClassVar, NamedTuple

import pytest

import oracle
from protocheck import cli
from protocheck.barrier import BarrierConfig, BarrierProcessState, barrier_model
from protocheck.engine import (ExploreConfig, ModelConfig, ProtocolModel, TransitionRule,
                               Verdict, explore)
from protocheck.ring import RingConfig, ring_model
from protocheck.state import Message, MessageKindBase, memoized_apply, receive, render_queue

NODE_RE = re.compile(r"^\s*s\d+ \[label=", re.M)
EDGE_RE = re.compile(r"^\s*s\d+ -> s\d+ \[label=", re.M)


def run_cli(*args):
    return cli.main(list(args))


def run_child(*args):
    """`python *args` in a new interpreter, with this checkout's `src` first
    on PYTHONPATH: the finished process, its output captured as text."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


# The north-star instances: their counts anchor every change to the search.
# In barrier N=14 and ring unordered N=6 the rules' memos grow to thousands
# of entries; ring ordered N=7 exercises the bounded `ordered` gate.
@pytest.mark.parametrize("argv, line", [
    (["--model", "barrier", "--size", "10"],
     "states stored: 2057  states matched: 8194  transitions: 10250  peak frontier: 429"),
    (["--model", "ring", "--size", "7", "--variant", "ordered"],
     "states stored: 162  states matched: 278  transitions: 439  peak frontier: 24"),
    (["--model", "barrier", "--size", "14"],
     "states stored: 32781  states matched: 196610  transitions: 229390  peak frontier: 5895"),
    (["--model", "ring", "--size", "6", "--variant", "unordered"],
     "states stored: 99946  states matched: 251845  transitions: 351790  peak frontier: 12986"),
], ids=["barrier-n10", "ring-ordered-n7", "barrier-n14", "ring-unordered-n6"])
def test_north_star_instance_prints_its_pinned_counts(argv, line, capsys):
    assert run_cli("run", *argv) == 0
    assert line in capsys.readouterr().out.splitlines()


def test_barrier_n10_dfs_graph_has_a_line_per_state_and_transition(tmp_path):
    # stored states share their process objects, each rendered once per export
    graph = tmp_path / "b10.dot"
    assert run_cli("run", "--model", "barrier", "--size", "10", "--search", "dfs",
                   "--graph", str(graph)) == 0
    text = graph.read_text()
    assert len(EDGE_RE.findall(text)) == 10250
    assert len(NODE_RE.findall(text)) == 2057


@pytest.mark.parametrize("argv, code", [
    (["--model", "barrier", "--size", "3", "--mutation", "release_on_barrier_in"], 1),
    (["--model", "ring", "--size", "3", "--variant", "unordered", "--queue-capacity", "1"], 2),
], ids=["violation", "overflow"])
def test_entry_point_exits_with_the_verdict_and_its_trace_replays(argv, code, tmp_path):
    # `python -m protocheck` runs __main__.py, which no in-process test imports
    trace = tmp_path / "t.txt"
    done = run_child("-m", "protocheck", "run", *argv, "--trace", str(trace))
    assert done.returncode == code, done.stderr
    done = run_child("-m", "protocheck", "replay", f"{trace}.json")
    assert done.returncode == 0, done.stdout + done.stderr
    assert "confirmed" in done.stdout


class TestRun:
    def test_verified_barrier(self, capsys):
        assert run_cli("run", "--model", "barrier", "--size", "3") == 0
        out = capsys.readouterr().out
        assert "verdict: verified" in out
        assert "states stored: 18" in out

    @pytest.mark.parametrize("limit", [("--max-seconds", "1e-300"), ("--max-states", "1")],
                             ids=["time", "states"])
    def test_a_stop_at_the_first_pop_counts_the_initial_state(self, limit, capsys):
        # either limit stops before state 0 is expanded, with it in the frontier
        assert run_cli("run", "--model", "barrier", "--size", "3", *limit) == 2
        out = capsys.readouterr().out
        assert "verdict: limit_exceeded" in out
        assert ("states stored: 1  states matched: 0  transitions: 0  peak frontier: 1"
                in out)

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


def test_unset_search_flags_take_the_explore_config_defaults(monkeypatch):
    seen = []

    def spy(model, config):
        seen.append(config)
        return explore(model, config)

    monkeypatch.setattr(cli, "explore", spy)
    assert run_cli("run", "--model", "barrier", "--size", "2") == 0
    assert run_cli("run", "--model", "barrier", "--size", "2", "--search", "dfs",
                   "--max-states", "50", "--max-seconds", "5") == 0
    assert seen == [ExploreConfig(), ExploreConfig("dfs", 50, 5.0)]


@pytest.mark.parametrize("chunks", [
    [f"line {i}\n" for i in range(count)] for count in (0, 1, 31, 32, 33, 65)
] + [["a\n"] * 32 + [""] * 40 + ["b\n"] * 5],
    ids=["0", "1", "31", "32", "33", "65", "40-empty-in-the-middle"])
def test_write_text_writes_every_chunk_across_blocks(chunks, tmp_path):
    # chunks go out 32 to a block; a block of only empty ones must not end it
    path = tmp_path / "out.txt"
    cli._write_text(path, (chunk for chunk in chunks))
    assert path.read_text() == "".join(chunks)


def test_run_help_lists_each_models_mutations(capsys):
    with pytest.raises(SystemExit):
        run_cli("run", "--help")
    out = capsys.readouterr().out
    assert "barrier release_on_barrier_in" in out
    assert all(m in out for config_class, _ in cli.MODELS.values()
               for m in config_class.MUTATIONS)


class TestUsageErrors:
    def test_size_zero(self, capsys):
        assert run_cli("run", "--model", "barrier", "--size", "0") == 3
        assert "error" in capsys.readouterr().err

    def test_unknown_variant(self):
        assert run_cli("run", "--model", "ring", "--size", "3",
                       "--variant", "leader_last") == 3

    def test_mutation_on_ring(self, capsys):
        # ring declares no MUTATIONS, so its inherited `mutation` takes only None
        assert run_cli("run", "--model", "ring", "--size", "3",
                       "--mutation", "release_on_barrier_in") == 3
        assert "unknown mutation 'release_on_barrier_in'" in capsys.readouterr().err

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

    def test_nan_time_limit(self, capsys):
        # NaN compares false against everything, so it used to mean no limit
        assert run_cli("run", "--model", "barrier", "--size", "2",
                       "--max-seconds", "nan") == 3
        assert "limits must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("option, path", [
        ("--stats", "/nonexistent-dir/stats.tsv"),
        ("--graph", "/nonexistent-dir/graph.dot"),
        ("--graph", "{tmp}"),  # an existing directory
    ], ids=["stats", "graph-missing-dir", "graph-is-dir"])
    def test_unwritable_output_names_the_path(self, option, path, tmp_path, capsys):
        path = path.format(tmp=tmp_path)
        code = run_cli("run", "--model", "barrier", "--size", "2", option, path)
        assert code == 3
        err = capsys.readouterr().err
        assert path in err
        assert "Traceback" not in err

    def test_replay_missing_file(self):
        assert run_cli("replay", "/nonexistent-dir/trace.json") == 3

    # 2**62 processes: the initial state's allocation fails before it touches
    # memory (a size near a machine's memory could succeed and exhaust it);
    # 2**63 does not even fit a sequence length (OverflowError)
    @pytest.mark.parametrize("model", ["barrier", "ring"])
    def test_unallocatable_size_is_a_usage_error(self, model, capsys):
        for size in (2**62, 2**63):
            assert run_cli("run", "--model", model, "--size", str(size)) == 3
            err = capsys.readouterr().err
            assert f"out of memory for a {model} model of size {size}" in err
            assert "Traceback" not in err


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

    def test_truncated_trace_is_a_mismatch(self, tmp_path, capsys):
        # every kept step replays, but the last state violates no invariant
        path = self._violation_trace(tmp_path)
        doc = json.loads(path.read_text())
        del doc["steps"][-1]
        path.write_text(json.dumps(doc))
        assert run_cli("replay", str(path)) == 1
        out = capsys.readouterr().out
        assert "replay mismatch: the last state does not witness invariant_violated" in out

    def _overflow_trace(self, tmp_path):
        trace = tmp_path / "o.txt"
        assert run_cli("run", "--model", "ring", "--size", "3", "--variant", "unordered",
                       "--queue-capacity", "1", "--trace", str(trace)) == 2
        return tmp_path / "o.txt.json"

    def test_overflow_trace_replays(self, tmp_path, capsys):
        assert run_cli("replay", str(self._overflow_trace(tmp_path))) == 0
        assert "queue_overflow confirmed" in capsys.readouterr().out

    def test_postcondition_trace_replays(self, tmp_path, monkeypatch, capsys):
        def build(cfg):
            return replace(barrier_model(cfg), terminal_postcondition=lambda s: False)

        monkeypatch.setitem(cli.MODELS, "barrier", (BarrierConfig, build))
        trace = tmp_path / "p.txt"
        assert run_cli("run", "--model", "barrier", "--size", "2",
                       "--trace", str(trace)) == 1
        assert run_cli("replay", f"{trace}.json") == 0
        assert "postcondition_violated confirmed" in capsys.readouterr().out

    @pytest.mark.parametrize("verdict,code", [
        ("postcondition_violated", 1),  # the last state has enabled moves
        ("queue_overflow", 1),  # none of them overflows
        ("verified", 3),  # no trace witnesses these
        ("limit_exceeded", 3),
        ("nonsense", 3),
    ])
    def test_recorded_verdict_is_confirmed(self, tmp_path, verdict, code):
        path = self._violation_trace(tmp_path)
        doc = json.loads(path.read_text())
        doc["verdict"] = verdict
        path.write_text(json.dumps(doc))
        assert run_cli("replay", str(path)) == code

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
            release = memoized_apply(lambda proc, pid: (proc._replace(client_barrier_out=1), ()))
            model = barrier_model(cfg)
            request = model.rule_named("client_request")
            return replace(model, rules=(
                TransitionRule(request.name, request.enabled, release),) + model.rules[1:])

        monkeypatch.setitem(cli.MODELS, "barrier", (BarrierConfig, build))
        assert run_cli("replay", str(path)) == 1
        out = capsys.readouterr().out
        assert "replay mismatch at step 1: client_request at pid 0 fails" in out
        assert "client released before it reached the barrier" in out

    def test_bool_pid_is_a_mismatch(self, tmp_path, capsys):
        # True == 1, so a bool pid used to replay as pid 1
        path = self._violation_trace(tmp_path)
        doc = json.loads(path.read_text())
        assert doc["steps"][2]["pid"] == 1
        doc["steps"][2]["pid"] = True
        path.write_text(json.dumps(doc))
        assert run_cli("replay", str(path)) == 1
        assert "replay mismatch at step 2: bad pid True" in capsys.readouterr().out

    @pytest.mark.parametrize("number", [99, True], ids=["99", "true"])
    def test_misnumbered_step_is_a_mismatch(self, tmp_path, capsys, number):
        # the writer numbers each step by its position; True == 1 is no number
        path = self._violation_trace(tmp_path)
        doc = json.loads(path.read_text())
        doc["steps"][1]["step"] = number
        path.write_text(json.dumps(doc))
        assert run_cli("replay", str(path)) == 1
        assert f"replay mismatch at step 1: numbered {number!r}" in capsys.readouterr().out

    def test_pid_on_the_initial_state_is_a_mismatch(self, tmp_path, capsys):
        path = self._violation_trace(tmp_path)
        doc = json.loads(path.read_text())
        doc["steps"][0]["pid"] = 7
        path.write_text(json.dumps(doc))
        assert run_cli("replay", str(path)) == 1
        assert ("replay mismatch at step 0: the initial state has pid 7"
                in capsys.readouterr().out)

    def test_bool_capacity_in_header_is_a_usage_error(self, tmp_path, capsys):
        path = self._overflow_trace(tmp_path)
        doc = json.loads(path.read_text())
        doc["queue_capacity"] = True  # True == 1 used to replay OK
        path.write_text(json.dumps(doc))
        assert run_cli("replay", str(path)) == 3
        assert "must be ints" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("entry", 0, "the barrier model takes no entry"),  # used to replay OK
        ("n", 3, "unexpected key 'n'"),  # the size is recorded as `size`
    ])
    def test_header_key_the_config_does_not_take_is_a_usage_error(
            self, tmp_path, capsys, key, value, message):
        path = self._violation_trace(tmp_path)
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        assert run_cli("replay", str(path)) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["variant", "queue_capacity"])
    def test_header_needs_variant_and_capacity(self, tmp_path, key):
        path = self._violation_trace(tmp_path)
        doc = json.loads(path.read_text())
        del doc[key]
        path.write_text(json.dumps(doc))
        assert run_cli("replay", str(path)) == 3

    @pytest.mark.parametrize("key", ["variant", "queue_capacity", "mutation"])
    def test_null_header_value_is_a_usage_error(self, tmp_path, capsys, key):
        # a null used to leave the default: with a null variant this
        # leader_first trace replayed OK against leader_last
        trace = tmp_path / "t.txt"
        assert run_cli("run", "--model", "barrier", "--size", "3",
                       "--variant", "leader_first", "--mutation", "release_on_barrier_in",
                       "--trace", str(trace)) == 1
        path = tmp_path / "t.txt.json"
        doc = json.loads(path.read_text())
        doc[key] = None
        path.write_text(json.dumps(doc))
        assert run_cli("replay", str(path)) == 3
        assert f"malformed trace {path}: no value for {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("trace, cfg", [
        ("_violation_trace", BarrierConfig(n=3, mutation="release_on_barrier_in")),
        ("_overflow_trace", RingConfig(n=3, variant="unordered", queue_capacity=1)),
    ])
    def test_run_writes_the_encoded_header(self, tmp_path, trace, cfg):
        doc = json.loads(getattr(self, trace)(tmp_path).read_text())
        del doc["steps"], doc["verdict"]
        assert doc == cli.encode_header(doc["model"], cfg)

    @pytest.mark.parametrize("trace", ["_violation_trace", "_overflow_trace"])
    def test_unallocatable_size_in_header_is_a_usage_error(self, tmp_path, capsys, trace):
        path = getattr(self, trace)(tmp_path)
        doc = json.loads(path.read_text())
        # see TestUsageErrors.test_unallocatable_size_is_a_usage_error
        for size in (2**62, 2**63):
            doc["size"] = size
            path.write_text(json.dumps(doc))
            capsys.readouterr()
            assert run_cli("replay", str(path)) == 3
            err = capsys.readouterr().err
            assert f"out of memory for a {doc['model']} model of size {size}" in err
            assert "Traceback" not in err

    def test_ill_formed_initial_state_is_a_mismatch_at_step_0(
            self, tmp_path, monkeypatch, capsys):
        path = self._violation_trace(tmp_path)

        def build(cfg):
            # bools: equal to the recorded zeros, but not the ints the defaults pin
            model = barrier_model(cfg)
            initial = (BarrierProcessState(False, False, False),) * cfg.n
            return replace(model, initial_state=initial)

        monkeypatch.setitem(cli.MODELS, "barrier", (BarrierConfig, build))
        assert run_cli("replay", str(path)) == 1
        out = capsys.readouterr().out
        assert "replay mismatch at step 0: " in out
        assert "process 0: client_barrier_in must be of type int, got False" in out

    def test_malformed_document(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"model": "barrier"}))
        assert run_cli("replay", str(path)) == 3

    @pytest.mark.parametrize("content", [
        b'{"model": "barrier\xff"}',  # not UTF-8
        b'{"model": "barrier", "size": 1' + b"0" * 5000 + b"}",  # past int's digit limit
    ], ids=["not-utf8", "huge-int"])
    def test_unreadable_trace_is_a_usage_error(self, tmp_path, capsys, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert run_cli("replay", str(path)) == 3
        assert "cannot read trace" in capsys.readouterr().err

    def test_deeply_nested_trace_is_a_usage_error(self, tmp_path):
        # parsed in a new interpreter: oracle.py raises this process's
        # recursion limit, so a parse this deep here could overflow the C stack
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        done = run_child("-m", "protocheck", "replay", str(path))
        assert done.returncode == 3
        assert "cannot read trace" in done.stderr
        assert "Traceback" not in done.stderr

    def test_malformed_step_list(self, tmp_path):
        path = self._violation_trace(tmp_path)
        doc = json.loads(path.read_text())
        doc["steps"] = ["not a step"]
        path.write_text(json.dumps(doc))
        assert run_cli("replay", str(path)) == 3


def test_rules_sharing_a_name_are_a_usage_error(monkeypatch, capsys):
    # `replay` finds a trace's rules by name: this model's witness would fail
    # at its third step, where the first rule named `step` is not enabled
    def build(cfg):
        model = barrier_model(cfg)
        renamed = {"client_request", "barrier_in_nonleader"}
        return replace(model, rules=tuple(replace(r, name="step") if r.name in renamed else r
                                          for r in model.rules))

    monkeypatch.setitem(cli.MODELS, "barrier", (BarrierConfig, build))
    assert run_cli("run", "--model", "barrier", "--size", "3",
                   "--mutation", "release_on_barrier_in") == 3
    assert "two rules are named 'step'" in capsys.readouterr().err


def test_render_state_is_compact():
    state = barrier_model(BarrierConfig(n=2)).initial_state
    assert cli.render_state(state) == "(0,0,0,[]) (0,0,0,[])"
    ring = ring_model(RingConfig(n=2)).initial_state
    assert cli.render_state(ring) == "(ring,0/0,[]) (out,-/-,[])"


class _Toy(MessageKindBase):
    TICK = ("t", 0)


class _ToyProcess(NamedTuple):
    sent: int = 0
    queue: tuple = ()

    def render(self):
        return f"({self.sent},{render_queue(self.queue)})"

    def check(self, n):
        if self.sent not in (0, 1):
            raise ValueError("sent is a bit")


@dataclass(frozen=True)
class _ToyConfig(ModelConfig):
    VARIANTS: ClassVar[tuple[str, ...]] = ("plain",)

    variant: str = "plain"


def _toy_model(cfg):
    def send(proc, pid):
        return proc._replace(sent=1), (((pid + 1) % cfg.n, Message(_Toy.TICK)),)

    def consume(proc, pid):
        return proc._replace(queue=receive(proc, pid)[1]), ()

    initial = (_ToyProcess(),) * cfg.n
    return ProtocolModel(
        queue_capacity=cfg.capacity, initial_state=initial,
        rules=(TransitionRule("send", lambda s, pid: not s[pid].sent, memoized_apply(send)),
               TransitionRule("receive", lambda s, pid: bool(s[pid].queue),
                              memoized_apply(consume))),
        # seeded violation: two ticks are in flight once both processes sent
        invariant=lambda s: sum(len(p.queue) for p in s) < 2,
        terminal_postcondition=lambda s: True,
    )


@pytest.mark.parametrize("name", sorted(cli.MODELS))
def test_every_registered_config_is_a_model_config(name):
    config_class, _ = cli.MODELS[name]
    assert issubclass(config_class, ModelConfig)
    assert config_class.variant in config_class.VARIANTS
    assert config_class(n=3).capacity == 5  # N+2 by default
    assert config_class(n=3, queue_capacity=1).capacity == 1


# Each registered config at its defaults, then with every field set: an
# explicit capacity, barrier's mutation and ring's entry (no flag sets it).
_HEADER_CONFIGS = [
    *[(name, config_class(n=3)) for name, (config_class, _) in sorted(cli.MODELS.items())],
    ("barrier", BarrierConfig(n=3, variant="leader_first", queue_capacity=1,
                              mutation="release_on_barrier_in")),
    ("ring", RingConfig(n=3, variant="unordered", queue_capacity=1, entry=1)),
]


@pytest.mark.parametrize("name, cfg", _HEADER_CONFIGS)
def test_trace_header_decodes_to_the_config_it_encodes(name, cfg):
    header = json.loads(json.dumps(cli.encode_header(name, cfg)))
    decoded_name, options = cli.decode_header(header)
    decoded = cli.MODELS[name][0](**options)
    assert decoded_name == name
    # the header records the queue bound, not whether it was the default
    assert decoded == replace(cfg, queue_capacity=cfg.capacity)
    assert cli.encode_header(name, decoded) == header


def test_a_registered_protocol_runs_and_replays(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(cli.MODELS, "toy", (_ToyConfig, _toy_model))
    trace = tmp_path / "t.txt"
    assert run_cli("run", "--model", "toy", "--size", "2", "--trace", str(trace)) == 1
    assert "model=toy size=2 variant=plain" in capsys.readouterr().out
    assert trace.read_text().splitlines()[-1].endswith("(1,[t]) (1,[t])")
    assert run_cli("replay", f"{trace}.json") == 0
    assert "replay OK: 2 steps verified" in capsys.readouterr().out


def _toy_without_invariant(cfg):
    return replace(_toy_model(cfg), invariant=lambda s: True)


@pytest.mark.parametrize("n, count", [(1, 3), (2, 9), (3, 27)])
def test_a_registered_step_protocol_agrees_with_the_oracle(tmp_path, monkeypatch, capsys,
                                                          n, count):
    # the toy's rules are local steps, so the oracle applies them itself
    model = _toy_without_invariant(_ToyConfig(n=n))
    reachable = oracle.enumerate_reachable(model)
    snapshots = {oracle.snapshot(s) for s in reachable}
    assert len(snapshots) == count
    for search in ("bfs", "dfs"):
        result = explore(model, ExploreConfig(search_order=search))
        assert result.verdict is Verdict.VERIFIED
        assert result.stats.states_stored == count
        assert {oracle.snapshot(s) for s in result.states} == snapshots
    # every stored state is expanded, so each of its oracle moves is fired once
    fired = sum(len(oracle.successors(model, s)) for s in reachable)
    monkeypatch.setitem(cli.MODELS, "toy", (_ToyConfig, _toy_without_invariant))
    graph = tmp_path / "g.dot"
    assert run_cli("run", "--model", "toy", "--size", str(n), "--search", "dfs",
                   "--graph", str(graph)) == 0
    out = capsys.readouterr().out
    assert f"states stored: {count} " in out and f"transitions: {fired} " in out
    text = graph.read_text()
    assert len(NODE_RE.findall(text)) == count
    assert len(EDGE_RE.findall(text)) == fired


@pytest.mark.parametrize("send", [
    lambda s, pid: s[:pid] + (s[pid]._replace(sent=True),) + s[pid + 1:],
    memoized_apply(lambda proc, pid: (proc._replace(sent=True), ())),
], ids=["hand-written", "memoized"])
def test_a_registered_protocol_gets_its_field_types_checked(monkeypatch, send):
    # `_ToyProcess.check` tests no type; the engine still pins `sent` to its
    # default's, so True is rejected in the state it stores or in the effect
    def build(cfg):
        rule = TransitionRule("send", lambda s, pid: not s[pid].sent, send)
        return replace(_toy_model(cfg), rules=(rule,))

    monkeypatch.setitem(cli.MODELS, "toy", (_ToyConfig, build))
    config_class, factory = cli.MODELS["toy"]
    with pytest.raises(ValueError, match="process 0: sent must be of type int, got True"):
        explore(factory(config_class(n=2)))


def _never_postcondition(build):
    def forced(cfg):
        return replace(build(cfg), terminal_postcondition=lambda s: False)
    return forced


# Runs whose traces cover all three witnessed verdicts: the seeded mutation
# (invariant), capacity 1 (overflow) and a postcondition that always fails.
_PROBE_RUNS = [
    *[(family, n, variant, extra)
      for family in ("barrier", "barrier_never_post")
      for n in range(1, 5) for variant in ("leader_last", "leader_first")
      for extra in ([], ["--mutation", "release_on_barrier_in"], ["--queue-capacity", "1"])],
    *[(family, n, variant, extra)
      for family in ("ring", "ring_never_post")
      for n in range(1, 5) for variant in ("ordered", "unordered")
      for extra in ([], ["--queue-capacity", "1"])],
]
_VERDICTS = ("invariant_violated", "postcondition_violated", "queue_overflow")


@pytest.mark.parametrize("search", ["bfs", "dfs"])
def test_replay_confirms_verdicts_as_the_oracle_does(tmp_path, monkeypatch, capsys, search):
    """Every prefix of every trace, with every witnessed verdict: replay
    confirms the verdict exactly when the oracle says the prefix's last
    state witnesses it."""
    for family in ("barrier", "ring"):
        config_class, build = cli.MODELS[family]
        monkeypatch.setitem(cli.MODELS, f"{family}_never_post",
                            (config_class, _never_postcondition(build)))
    confirmed = dict.fromkeys(_VERDICTS, 0)
    refuted = dict.fromkeys(_VERDICTS, 0)
    trace = tmp_path / "t.txt"
    for name, n, variant, extra in _PROBE_RUNS:
        if run_cli("run", "--model", name, "--size", str(n), "--variant", variant,
                   "--search", search, "--trace", str(trace), *extra) == 0:
            continue  # verified: no trace
        doc = json.loads(Path(f"{trace}.json").read_text())
        config_class, build = cli.MODELS[name]
        options = {"mutation": doc["mutation"]} if "mutation" in doc else {}
        model = build(config_class(n=n, variant=variant,
                                   queue_capacity=doc["queue_capacity"], **options))
        state = model.initial_state
        for k, step in enumerate(doc["steps"]):
            if k:
                state = model.rule_named(step["rule"]).apply(state, step["pid"])
            for verdict in _VERDICTS:
                expected = oracle.witnesses(model, state, verdict)
                probe = tmp_path / "p.json"
                probe.write_text(json.dumps(dict(doc, steps=doc["steps"][:k + 1],
                                                 verdict=verdict)))
                capsys.readouterr()
                assert run_cli("replay", str(probe)) == (0 if expected else 1), (
                    name, n, variant, extra, k, verdict, capsys.readouterr().out)
                (confirmed if expected else refuted)[verdict] += 1
    assert all(confirmed.values()) and all(refuted.values()), (confirmed, refuted)
