import importlib
import json
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import NamedTuple

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


def run_child(*args, stdout=subprocess.PIPE):
    """`python *args` in a new interpreter, with this checkout's `src` first
    on PYTHONPATH: the finished process, its output captured as text, or its
    stdout sent to `stdout` instead."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE,
                          text=True, env=env)


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
    trace = tmp_path / "t.json"
    done = run_child("-m", "protocheck", "run", *argv, "--trace", str(trace))
    assert done.returncode == code, done.stderr
    done = run_child("-m", "protocheck", "replay", str(trace))
    assert done.returncode == 0, done.stdout + done.stderr
    assert "confirmed" in done.stdout


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_a_closed_stdout_is_a_usage_error(unbuffered, monkeypatch):
    # a verified model whose reader has gone: each write to the pipe fails,
    # at the first print when unbuffered, else at the flush before exit
    monkeypatch.setenv("PYTHONUNBUFFERED", unbuffered)
    read, write = os.pipe()
    os.close(read)
    try:
        done = run_child("-m", "protocheck", "run", "--model", "barrier", "--size", "3",
                         stdout=write)
    finally:
        os.close(write)
    assert done.returncode == 3, done.stderr
    assert "error: cannot write to stdout" in done.stderr
    assert "Traceback" not in done.stderr and "Exception" not in done.stderr


# Imports first, so that startup never meets the limit, then caps the address
# space at 40 MB over what the interpreter has mapped: ring unordered N=7
# needs far more. Exit 77 means the hard limit is too low to test here.
_OUT_OF_MEMORY = """
import resource, sys
import protocheck.cli as cli
with open("/proc/self/status") as status:
    mapped = next(int(line.split()[1]) for line in status if line.startswith("VmSize:"))
limit = (mapped + 40 * 1024) * 1024
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
if hard != resource.RLIM_INFINITY and hard < limit:
    sys.exit(77)
resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
sys.exit(cli.main(["run", "--model", "ring", "--size", "7", "--variant", "unordered"]))
"""


def test_running_out_of_memory_is_a_limit_not_a_traceback():
    pytest.importorskip("resource")
    if not os.path.exists("/proc/self/status"):
        pytest.skip("no /proc to read the mapped size from")
    done = run_child("-c", _OUT_OF_MEMORY)
    if done.returncode == 77:
        pytest.skip("the hard address-space limit is too low")
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert re.fullmatch(r"error: out of memory after \d+\.\d s\n", done.stderr), done.stderr


def test_a_system_error_from_a_memory_error_is_out_of_memory(monkeypatch, capsys):
    # on 3.13 a MemoryError inside a C call can surface as a SystemError's
    # cause, as in `passed.issuperset(map(id, state))`; any other SystemError
    # is a bug and propagates
    def failing(cause):
        def explore(model, config):
            raise SystemError("<built-in function id> returned a result with an "
                              "exception set") from cause
        return explore

    argv = ("run", "--model", "barrier", "--size", "3")
    monkeypatch.setattr(cli, "explore", failing(MemoryError()))
    assert run_cli(*argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"error: out of memory after \d+\.\d s\n", err), err
    for cause in (None, ValueError("not memory")):
        monkeypatch.setattr(cli, "explore", failing(cause))
        with pytest.raises(SystemError):
            run_cli(*argv)


def test_installed_command_is_cli_main():
    # the `protocheck` command an install makes; no test installs the package
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts == {"protocheck": "protocheck.cli:main"}
    module, _, name = scripts["protocheck"].partition(":")
    entry = getattr(importlib.import_module(module), name)
    assert entry is cli.main and callable(entry)


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
        trace = tmp_path / "trace.json"
        code = run_cli("run", "--model", "barrier", "--size", "3",
                       "--mutation", "release_on_barrier_in", "--trace", str(trace),
                       "--stats", str(tmp_path / "s.tsv"))
        assert code == 1
        assert "verdict: invariant_violated" in capsys.readouterr().out
        # each output is the one file it names
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.tsv", "trace.json"]
        doc = json.loads(trace.read_text())
        assert doc["verdict"] == "invariant_violated"
        assert run_cli("replay", str(trace)) == 0

    def test_no_trace_for_verified_run(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert run_cli("run", "--model", "barrier", "--size", "2",
                       "--trace", str(trace)) == 0
        assert "no trace written" in capsys.readouterr().out
        assert not trace.exists()

    def test_graph_counts_match_statistics(self, tmp_path):
        graph = tmp_path / "g.dot"
        assert run_cli("run", "--model", "ring", "--size", "2",
                       "--variant", "ordered", "--graph", str(graph)) == 0
        text = graph.read_text()
        expected = explore(ring_model(RingConfig(size=2, variant="ordered")))
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
    args = cli._build_parser().parse_args(["run", "--model", "barrier", "--size", "2"])
    default = ExploreConfig()
    assert (args.search, args.max_states, args.max_seconds) == (
        default.search, default.max_states, default.max_seconds)


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
    # --search offers exactly ExploreConfig.SEARCHES, and each default is ExploreConfig's
    assert "--search {" + ",".join(ExploreConfig.SEARCHES) + "}" in out
    default = ExploreConfig()
    for value in (default.search, default.max_states, default.max_seconds):
        assert f"(default: {value})" in out


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

    @pytest.mark.parametrize("capacity", ["0", "-1"])
    def test_nonpositive_queue_capacity(self, capacity, capsys):
        # refused by the config, before a search's checker would raise it
        assert run_cli("run", "--model", "barrier", "--size", "3",
                       "--queue-capacity", capacity) == 3
        assert "queue capacity must be positive" in capsys.readouterr().err

    # Outputs are written one after another, so two on one file would leave
    # only the last; the run is refused before anything is written.
    @pytest.mark.parametrize("outputs, flags", [
        (["--trace", "s.json", "--graph", "s.json"], "--trace and --graph"),
        (["--stats", "x", "--graph", "./x"], "--stats and --graph"),
    ], ids=["trace-graph", "one-file-two-spellings"])
    def test_outputs_sharing_a_file_are_a_usage_error(self, outputs, flags, tmp_path,
                                                      monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run_cli("run", "--model", "barrier", "--size", "3",
                       "--mutation", "release_on_barrier_in", *outputs) == 3
        assert f"{flags} both write" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    # Refused before the model is built: a search would run for nothing. The
    # run is a violation, so --trace would be written.
    @pytest.mark.parametrize("option, path", [
        ("--stats", "/nonexistent-dir/stats.tsv"),
        ("--stats", "{tmp}"),  # an existing directory
        ("--graph", "/nonexistent-dir/graph.dot"),
        ("--graph", "{tmp}"),
        ("--trace", "/nonexistent-dir/t.json"),
        ("--trace", "{tmp}"),
        ("--trace", ""),  # names the working directory
    ], ids=["stats", "stats-is-dir", "graph-missing-dir", "graph-is-dir",
            "trace-missing-dir", "trace-is-dir", "trace-empty"])
    def test_unwritable_output_names_the_path(self, option, path, tmp_path, capsys):
        path = path.format(tmp=tmp_path)
        code = run_cli("run", "--model", "barrier", "--size", "3",
                       "--mutation", "release_on_barrier_in", option, path)
        assert code == 3
        out, err = capsys.readouterr()
        assert out == ""
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
        trace = tmp_path / "t.json"
        assert run_cli("run", "--model", "barrier", "--size", "3",
                       "--mutation", "release_on_barrier_in",
                       "--trace", str(trace)) == 1
        return trace

    def test_round_trip(self, tmp_path):
        assert run_cli("replay", str(self._violation_trace(tmp_path))) == 0

    def test_tampered_state_detected(self, tmp_path, capsys):
        path = self._violation_trace(tmp_path)
        capsys.readouterr()
        assert run_cli("replay", str(path)) == 0
        # three header lines, then steps 0-3, then `replay OK`
        *verified, _, _ = capsys.readouterr().out.splitlines()
        doc = json.loads(path.read_text())
        doc["steps"][-1]["state"]["processes"][0]["client_barrier_in"] ^= 1
        path.write_text(json.dumps(doc))
        assert run_cli("replay", str(path)) == 1
        # the steps verified before the mismatch are printed, and nothing after it
        *out, last = capsys.readouterr().out.splitlines()
        assert out == verified and len(out) == 6
        assert last == "replay mismatch at step 3: recorded 'state' is not the replayed one"

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

    def _overflow_trace(self, tmp_path, search="bfs"):
        trace = tmp_path / "o.json"
        assert run_cli("run", "--model", "ring", "--size", "3", "--variant", "unordered",
                       "--queue-capacity", "1", "--search", search, "--trace", str(trace)) == 2
        return trace

    def _dfs_overflow_trace(self, tmp_path):
        path = self._overflow_trace(tmp_path, "dfs")
        step = json.loads(path.read_text())["steps"][1]
        # local to pid 2, but ring ordered's gate refuses it: pid 1 is not in
        assert (step["rule"], step["pid"]) == ("begin_insert", 2)
        return path

    def test_overflow_trace_replays(self, tmp_path, capsys):
        assert run_cli("replay", str(self._overflow_trace(tmp_path))) == 0
        assert "queue_overflow confirmed" in capsys.readouterr().out

    def test_postcondition_trace_replays(self, tmp_path, monkeypatch, capsys):
        def build(cfg):
            return replace(barrier_model(cfg), terminal_postcondition=lambda s: False)

        monkeypatch.setitem(cli.MODELS, "barrier", (BarrierConfig, build))
        trace = tmp_path / "p.json"
        assert run_cli("run", "--model", "barrier", "--size", "2",
                       "--trace", str(trace)) == 1
        assert run_cli("replay", str(trace)) == 0
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

    def test_failing_successor_of_the_last_state_is_a_mismatch(
            self, tmp_path, monkeypatch, capsys):
        path = self._overflow_trace(tmp_path)

        def fail(state, pid):
            raise ValueError("no successor here")

        def build(cfg):
            # no step names `fail`; put first, the probe search fires it
            # before any move that overflows
            model = ring_model(cfg)
            rule = TransitionRule("fail", lambda proc, pid: True, fail)
            return replace(model, rules=(rule,) + model.rules)

        monkeypatch.setitem(cli.MODELS, "ring", (RingConfig, build))
        assert run_cli("replay", str(path)) == 1
        assert ("replay mismatch: a successor of the last state fails: no successor here"
                in capsys.readouterr().out)

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

    # Each edit to a written trace, the exit code replay gives for it and what
    # its message names. Replay accepts exactly the document `run` writes for
    # the decoded config: a header edit is a usage error, a step edit a mismatch.
    @pytest.mark.parametrize("trace, edit, code, named", [
        # `true` and `1.0` each equal an int in Python but are not one
        ("_violation_trace", lambda doc: doc["steps"][2].update(pid=True), 1,
         "replay mismatch at step 2: bad pid True"),
        ("_violation_trace", lambda doc: doc["steps"][1].update(step=99), 1,
         "replay mismatch at step 1: recorded 'step'"),
        ("_violation_trace", lambda doc: doc["steps"][1].update(step=True), 1,
         "replay mismatch at step 1: recorded 'step'"),
        ("_violation_trace", lambda doc: doc["steps"][0].update(pid=7), 1,
         "replay mismatch at step 0: recorded 'pid'"),
        ("_violation_trace", lambda doc: doc["steps"][1]["state"]["processes"][0].update(
            client_barrier_in=True), 1, "replay mismatch at step 1: recorded 'state'"),
        ("_violation_trace", lambda doc: doc["steps"][1]["state"]["processes"][0].update(
            client_barrier_in=1.0), 1, "replay mismatch at step 1: recorded 'state'"),
        ("_violation_trace", lambda doc: doc["steps"][1].update(extra=0), 1,
         "replay mismatch at step 1: recorded 'extra'"),
        ("_overflow_trace", lambda doc: doc.update(queue_capacity=True), 3, "must be ints"),
        ("_violation_trace", lambda doc: doc.update(entry=0), 3,
         "the barrier model takes no 'entry'"),
        ("_violation_trace", lambda doc: doc.update(n=3), 3, "the barrier model takes no 'n'"),
        ("_violation_trace", lambda doc: doc.pop("size"), 3, "'size'"),
        ("_violation_trace", lambda doc: doc.pop("variant"), 3, "header key 'variant'"),
        ("_violation_trace", lambda doc: doc.pop("queue_capacity"), 3,
         "header key 'queue_capacity'"),
        # every ring trace written while the ring model took an entry
        ("_overflow_trace", lambda doc: doc.update(entry=0), 3,
         "the ring model takes no 'entry'"),
        # a null never means "the default"
        ("_violation_trace", lambda doc: doc.update(variant=None), 3, "header key 'variant'"),
        ("_violation_trace", lambda doc: doc.update(queue_capacity=None), 3,
         "header key 'queue_capacity'"),
        ("_violation_trace", lambda doc: doc.update(mutation=None), 3,
         "header key 'mutation'"),
        # a value or key from the trace is echoed shortened, a short one whole
        ("_violation_trace", lambda doc: doc.update(variant="leader_lsat"), 3,
         "unknown variant 'leader_lsat'; choose from leader_last, leader_first"),
        ("_violation_trace", lambda doc: doc.update(variant="x" * 10**6), 3,
         "unknown variant 'xxx"),
        ("_violation_trace", lambda doc: doc["steps"][1].update(rule="x" * 10**6), 1,
         "replay mismatch at step 1: unknown rule 'xxx"),
        ("_violation_trace", lambda doc: doc.update({"x" * 10**6: 0}), 3,
         "the barrier model takes no 'xxx"),
        # the replayed guard holds, the gate does not: the witness is not ordered's
        ("_dfs_overflow_trace", lambda doc: doc.update(variant="ordered"), 1,
         "replay mismatch at step 1: begin_insert not enabled at pid 2"),
    ], ids=["bool-pid", "step-99", "step-true", "pid-on-step-0", "state-true", "state-float",
            "extra-step-key", "bool-capacity", "barrier-entry", "header-n", "no-size",
            "no-variant", "no-capacity", "ring-entry", "null-variant", "null-capacity",
            "null-mutation", "typo-variant", "huge-variant", "huge-rule", "huge-header-key",
            "gate-refuses-step"])
    def test_edited_trace_is_rejected(self, tmp_path, capsys, trace, edit, code, named):
        path = getattr(self, trace)(tmp_path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli("replay", str(path)) == code
        captured = capsys.readouterr()
        assert named in (captured.out if code == 1 else captured.err)
        assert len(captured.out) + len(captured.err) < 1024
        if code == 3:  # a usage error prints nothing of the trace
            assert captured.out == ""

    @pytest.mark.parametrize("trace, cfg", [
        ("_violation_trace", BarrierConfig(size=3, mutation="release_on_barrier_in")),
        ("_overflow_trace", RingConfig(size=3, variant="unordered", queue_capacity=1)),
    ])
    def test_run_writes_the_encoded_header(self, tmp_path, capsys, trace, cfg):
        path = getattr(self, trace)(tmp_path)
        first = capsys.readouterr().out.splitlines()[0]
        doc = json.loads(path.read_text())
        del doc["steps"], doc["verdict"]
        assert doc == cli.encode_header(doc["model"], cfg)
        # run's first stdout line is the header replay prints, plus the search order
        assert f" queue_capacity={cfg.queue_capacity} " in first
        assert run_cli("replay", str(path)) == 0
        header = capsys.readouterr().out.splitlines()[1]
        assert first == header.removeprefix("# ") + " search=bfs"

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
            initial = (BarrierProcessState(False, False, False),) * cfg.size
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
    state = barrier_model(BarrierConfig(size=2)).initial_state
    assert cli.render_state(state) == "(0,0,0,[]) (0,0,0,[])"
    ring = ring_model(RingConfig(size=2)).initial_state
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


class _ToyConfig(ModelConfig):
    VARIANTS = ("plain",)


def _toy_model(cfg):
    def send(proc, pid):
        return proc._replace(sent=1), (((pid + 1) % cfg.size, Message(_Toy.TICK)),)

    def consume(proc, pid):
        return proc._replace(queue=receive(proc, pid)[1]), ()

    initial = (_ToyProcess(),) * cfg.size
    return ProtocolModel(
        queue_capacity=cfg.queue_capacity, initial_state=initial,
        rules=(TransitionRule("send", lambda proc, pid: not proc.sent, memoized_apply(send)),
               TransitionRule("receive", lambda proc, pid: bool(proc.queue),
                              memoized_apply(consume))),
        # seeded violation: two ticks are in flight once both processes sent
        invariant=lambda s: sum(len(p.queue) for p in s) < 2,
        terminal_postcondition=lambda s: True,
    )


@pytest.mark.parametrize("name", sorted(cli.MODELS))
def test_every_registered_config_is_a_model_config(name):
    config_class, _ = cli.MODELS[name]
    assert issubclass(config_class, ModelConfig)
    assert [f.name for f in fields(config_class)] == [f.name for f in fields(ModelConfig)] == [
        "size", "variant", "queue_capacity", "mutation"]
    # defaults are resolved when built: the first variant and a bound of N+2
    assert config_class(size=3) == config_class(
        size=3, variant=config_class.VARIANTS[0], queue_capacity=5)
    assert config_class(size=3, queue_capacity=1).queue_capacity == 1
    # an explicit bound, as every built config has, survives a new size
    assert replace(config_class(size=3), size=4).queue_capacity == 5


def test_a_config_class_without_variants_is_refused():
    # `ModelConfig` declares none: there is no default to resolve to
    with pytest.raises(ValueError, match="unknown variant None"):
        ModelConfig(size=3)


# Each registered config at its defaults, then with every field set: a
# variant other than the default, an explicit capacity and barrier's mutation.
_HEADER_CONFIGS = [
    *[(name, config_class(size=3)) for name, (config_class, _) in sorted(cli.MODELS.items())],
    ("barrier", BarrierConfig(size=3, variant="leader_first", queue_capacity=1,
                              mutation="release_on_barrier_in")),
    ("ring", RingConfig(size=3, variant="unordered", queue_capacity=1)),
]


@pytest.mark.parametrize("name, cfg", _HEADER_CONFIGS)
def test_trace_header_builds_the_config_it_encodes(name, cfg):
    options = json.loads(json.dumps(cli.encode_header(name, cfg)))
    assert options.pop("model") == name
    assert list(options) == [f.name for f in fields(cfg) if getattr(cfg, f.name) is not None]
    assert cli.MODELS[name][0](**options) == cfg


def test_a_registered_protocol_runs_and_replays(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(cli.MODELS, "toy", (_ToyConfig, _toy_model))
    trace = tmp_path / "t.json"
    assert run_cli("run", "--model", "toy", "--size", "2", "--trace", str(trace)) == 1
    assert "model=toy size=2 variant=plain" in capsys.readouterr().out
    assert run_cli("replay", str(trace)) == 0
    *_, last_step, verdict = capsys.readouterr().out.splitlines()
    assert last_step.endswith("(1,[t]) (1,[t])")
    assert verdict.startswith("replay OK: 2 steps verified")


def _toy_without_invariant(cfg):
    return replace(_toy_model(cfg), invariant=lambda s: True)


@pytest.mark.parametrize("n, count", [(1, 3), (2, 9), (3, 27)])
def test_a_registered_step_protocol_agrees_with_the_oracle(tmp_path, monkeypatch, capsys,
                                                          n, count):
    # the toy's rules are local steps, so the oracle applies them itself
    model = _toy_without_invariant(_ToyConfig(size=n))
    reachable = oracle.enumerate_reachable(model)
    snapshots = {oracle.snapshot(s) for s in reachable}
    assert len(snapshots) == count
    for search in ("bfs", "dfs"):
        result = explore(model, ExploreConfig(search=search))
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
        rule = TransitionRule("send", lambda proc, pid: not proc.sent, send)
        return replace(_toy_model(cfg), rules=(rule,))

    monkeypatch.setitem(cli.MODELS, "toy", (_ToyConfig, build))
    config_class, factory = cli.MODELS["toy"]
    with pytest.raises(ValueError, match="process 0: sent must be of type int, got True"):
        explore(factory(config_class(size=2)))


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
    trace = tmp_path / "t.json"
    for name, n, variant, extra in _PROBE_RUNS:
        if run_cli("run", "--model", name, "--size", str(n), "--variant", variant,
                   "--search", search, "--trace", str(trace), *extra) == 0:
            continue  # verified: no trace
        doc = json.loads(trace.read_text())
        config_class, build = cli.MODELS[name]
        options = {"mutation": doc["mutation"]} if "mutation" in doc else {}
        model = build(config_class(size=n, variant=variant,
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
