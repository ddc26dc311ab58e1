import importlib
import json
import os
import re
import reprlib
import subprocess
import sys
from dataclasses import fields, replace
from functools import partial
from pathlib import Path
from typing import NamedTuple

import pytest

import oracle
from protocheck import barrier, cli
from protocheck.barrier import BarrierConfig, BarrierProcessState, barrier_model
from protocheck.engine import (ExploreConfig, ModelConfig, ProtocolModel, TransitionRule,
                               Verdict, explore)
from protocheck.ring import RingConfig, RingProcessState, RingStatus, req_insert, ring_model
from protocheck.state import Message, MessageKindBase, memoized_apply, receive
from test_engine import instances
from test_golden import GOLDEN, _mask_timing

NODE_RE = re.compile(r"^\s*s\d+ \[label=", re.M)
EDGE_RE = re.compile(r"^\s*s\d+ -> s\d+ \[label=", re.M)
_VIOLATING = ["--model", "barrier", "--size", "3", "--mutation", "release_on_barrier_in"]


def run_cli(*args):
    return cli.main(list(args))


def run_child(*args, stdout=subprocess.PIPE, text=True):
    """`python *args` in a new interpreter, with this checkout's `src` first
    on PYTHONPATH: the finished process, its output captured as UTF-8 text
    (as bytes if not `text`), or its stdout sent to `stdout` instead."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE,
                          encoding="utf-8" if text else None, env=env)


_OUT_OF_MEMORY_LINE = "error: out of memory after <t> s"


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
    text = graph.read_text(encoding="utf-8")
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
def test_a_closed_stdout_is_an_error(unbuffered, monkeypatch):
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


# Barrier with its barrier_in code outside ASCII, which the DOT text holds as
# is and the JSON trace as an escape.
_NON_ASCII_CODE = """
import sys
from protocheck import barrier, cli
barrier.MessageKind.BARRIER_IN.code = "\\u2192"
sys.exit(cli.main(sys.argv[1:]))
"""


def test_output_files_do_not_depend_on_the_locale(tmp_path, monkeypatch):
    # the C locale, neither coerced nor in UTF-8 mode, encodes as ASCII;
    # standard output is UTF-8 whatever the locale, as the files are
    monkeypatch.setenv("LC_ALL", "C")
    monkeypatch.setenv("PYTHONCOERCECLOCALE", "0")
    written = []
    for utf8 in "0", "1":
        monkeypatch.setenv("PYTHONUTF8", utf8)
        graph, trace = tmp_path / f"g{utf8}.dot", tmp_path / f"t{utf8}.json"
        done = run_child("-c", _NON_ASCII_CODE, "run", "--model", "barrier", "--size", "3",
                         "--mutation", "release_on_barrier_in", "--graph", str(graph),
                         "--trace", str(trace))
        assert done.returncode == 1, done.stderr
        replayed = run_child("-c", _NON_ASCII_CODE, "replay", str(trace), text=False)
        assert replayed.returncode == 0, replayed.stderr
        written.append((graph.read_bytes(), trace.read_bytes(), replayed.stdout))
    assert written[0] == written[1]
    assert "[\u2192]".encode() in written[0][0] and "[\u2192]".encode() in written[0][2]
    # a path from argv that the locale cannot decode is printed as its bytes
    monkeypatch.setenv("PYTHONUTF8", "0")
    trace = os.fsencode(tmp_path / "t\u00e9.json")
    done = run_child("-m", "protocheck", "run", *_VIOLATING, "--trace", trace, text=False)
    assert done.returncode == 1, done.stderr
    assert done.stdout.splitlines()[-1] == b"trace written to " + trace


# Imports first, so that startup never meets the limit, then caps the address
# space at 40 MB over what the interpreter has mapped: ring unordered N=7
# needs far more. Exit 77 means the hard limit is too low to test here.
_OUT_OF_MEMORY = """
import resource, sys
import protocheck.cli as cli
with open("/proc/self/status", encoding="utf-8") as status:
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
    assert (done.stdout, _mask_timing(done.stderr)) == ("", _OUT_OF_MEMORY_LINE + "\n")


def test_a_system_error_from_a_memory_error_is_out_of_memory(monkeypatch, capsys):
    # on 3.13 a MemoryError inside a C call can surface as a SystemError's
    # cause, as in `passed.issuperset(map(id, state))`; any other SystemError
    # is a bug: its traceback, and exit 3
    def failing(cause):
        def explore(model, config):
            raise SystemError("<built-in function id> returned a result with an "
                              "exception set") from cause
        return explore

    argv = ("run", "--model", "barrier", "--size", "3")
    monkeypatch.setattr(cli, "explore", failing(MemoryError()))
    assert run_cli(*argv) == 2
    out, err = capsys.readouterr()
    assert (out, _mask_timing(err)) == ("", _OUT_OF_MEMORY_LINE + "\n")
    for cause in (None, ValueError("not memory")):
        monkeypatch.setattr(cli, "explore", failing(cause))
        assert run_cli(*argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "Traceback (most recent call last):\n" in err
        assert err.endswith("\nSystemError: <built-in function id> returned a result with an "
                            "exception set\n")


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
        header, row = stats.read_text(encoding="utf-8").splitlines()
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
        doc = json.loads(trace.read_text(encoding="utf-8"))
        assert doc["verdict"] == "invariant_violated"
        assert run_cli("replay", str(trace)) == 0

    def test_no_trace_for_verified_run(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert run_cli("run", "--model", "barrier", "--size", "2",
                       "--trace", str(trace)) == 0
        assert "no trace written" in capsys.readouterr().out
        assert not trace.exists()


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
    assert path.read_text(encoding="utf-8") == "".join(chunks)


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


_NO_DIR = "error: cannot write {path}: it is a directory, or its parent is not"


# Each way `run` is refused, in the working directory `{tmp}`: its argv, exit
# code and whole standard error; each prints nothing on standard output and
# writes no file. An unwritable output is refused before the model is built
# (a search would run for nothing), and two outputs on one file before
# anything is written (each would overwrite the other); the run is a
# violation, so --trace would be written.
_REFUSALS = {
    "size-zero": (["run", "--model", "barrier", "--size", "0"], 3,
                  "error: process count must be at least 1"),
    # past sys.maxsize, which no tuple of processes can hold
    **{f"{model}-size-2**63": (["run", "--model", model, "--size", str(2**63)], 3,
                               "error: process count must be at most 9223372036854775807")
       for model in ("barrier", "ring")},
    # the initial state's allocation fails before it touches memory (a size
    # near a machine's memory could succeed and exhaust it)
    "barrier-size-2**62": (["run", "--model", "barrier", "--size", str(2**62)], 2,
                           _OUT_OF_MEMORY_LINE),
    "ring-size-2**62": (["run", "--model", "ring", "--size", str(2**62)], 2,
                        _OUT_OF_MEMORY_LINE),
    "unknown-variant": (["run", "--model", "ring", "--size", "3", "--variant", "leader_last"], 3,
                        "error: unknown variant 'leader_last'; choose from ordered, unordered"),
    # ring declares no MUTATIONS, so its inherited `mutation` takes only None
    "mutation-on-ring": (["run", "--model", "ring", "--size", "3",
                          "--mutation", "release_on_barrier_in"], 3,
                         "error: unknown mutation 'release_on_barrier_in'"),
    "unknown-mutation": (["run", "--model", "barrier", "--size", "3", "--mutation", "nope"], 3,
                         "error: unknown mutation 'nope'"),
    "no-subcommand": ([], 3, "error: the following arguments are required: command"),
    "max-states-0": (["run", "--model", "barrier", "--size", "2", "--max-states", "0"], 3,
                     "error: limits must be positive"),
    "max-seconds-0": (["run", "--model", "barrier", "--size", "2", "--max-seconds", "0"], 3,
                      "error: limits must be positive"),
    # NaN compares false against everything, so it used to mean no limit
    "max-seconds-nan": (["run", "--model", "barrier", "--size", "2", "--max-seconds", "nan"], 3,
                        "error: limits must be positive"),
    # refused by the config, before a search's checker would raise it
    "queue-capacity-0": (["run", "--model", "barrier", "--size", "3", "--queue-capacity", "0"],
                         3, "error: queue capacity must be positive"),
    "queue-capacity--1": (["run", "--model", "barrier", "--size", "3", "--queue-capacity", "-1"],
                          3, "error: queue capacity must be positive"),
    "trace-graph": (["run", *_VIOLATING, "--trace", "s.json", "--graph", "s.json"], 3,
                    "error: --trace and --graph both write s.json"),
    "one-file-two-spellings": (["run", *_VIOLATING, "--stats", "x", "--graph", "./x"], 3,
                               "error: --stats and --graph both write ./x"),
    **{name: (["run", *_VIOLATING, option, path], 3, _NO_DIR.format(path=path))
       for name, option, path in [
           ("stats-missing-dir", "--stats", "/nonexistent-dir/stats.tsv"),
           ("stats-is-dir", "--stats", "{tmp}"),
           ("graph-missing-dir", "--graph", "/nonexistent-dir/graph.dot"),
           ("graph-is-dir", "--graph", "{tmp}"),
           ("trace-missing-dir", "--trace", "/nonexistent-dir/t.json"),
           ("trace-is-dir", "--trace", "{tmp}"),
           ("trace-empty", "--trace", ""),  # names the working directory
       ]},
    "replay-missing-file": (["replay", "/nonexistent-dir/trace.json"], 3,
                            "error: cannot read trace /nonexistent-dir/trace.json: [Errno 2] "
                            "No such file or directory: '/nonexistent-dir/trace.json'"),
}


@pytest.mark.parametrize("argv, code, err", _REFUSALS.values(), ids=_REFUSALS)
def test_a_refused_run_prints_one_exact_line(argv, code, err, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli(*(arg.format(tmp=tmp_path) for arg in argv)) == code
    out, got = capsys.readouterr()
    assert (out, _mask_timing(got)) == ("", err.format(tmp=tmp_path) + "\n")
    assert list(tmp_path.iterdir()) == []


# /dev/full opens for writing and fails the first write: the search has run
# and its result is printed, then the output is refused
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("option, extra, verdict", [
    ("--stats", [], "verified"),
    ("--graph", [], "verified"),
    ("--trace", ["--mutation", "release_on_barrier_in"], "invariant_violated"),
], ids=["stats", "graph", "trace"])
def test_an_output_failing_after_the_search_is_an_error(option, extra, verdict, capsys):
    assert run_cli("run", "--model", "barrier", "--size", "3", *extra,
                   option, "/dev/full") == 3
    out, err = capsys.readouterr()
    assert out.splitlines()[1] == f"verdict: {verdict}"
    assert out.splitlines()[2].startswith("states stored: ")
    assert err == "error: cannot write /dev/full: [Errno 28] No space left on device\n"


def _parse_error(text: str) -> str:
    """The message of the error `json.loads` raises for `text`, as this
    Python words it."""
    try:
        json.loads(text)
    except (ValueError, RecursionError) as err:
        return str(err)
    raise AssertionError(f"{reprlib.repr(text)} parses")


_MALFORMED = "error: malformed trace {path}: "
_NOT_WRITTEN = "header key {!r} is not what run writes for its config"
_HUGE = reprlib.repr("x" * 10**6)
_HUGE_INT = '{"model": "barrier", "size": 1' + "0" * 5000 + "}"  # past int's digit limit
_DEEP = "[" * 200_000 + "]" * 200_000  # past the recursion limit

# Each edit to a written trace (or the raw contents of the file), the exit
# code replay gives for it and its whole line: the last line on standard
# output for a mismatch, else standard error, `{path}` the trace's path.
# Replay accepts exactly the document `run` writes for the decoded config: a
# header edit is an error, a step edit a mismatch.
_EDITS = {
    # `true` and `1.0` each equal an int in Python but are not one
    "bool-pid": ("_violation_trace", lambda doc: doc["steps"][2].update(pid=True), 1,
                 "replay mismatch at step 2: bad pid True"),
    "step-99": ("_violation_trace", lambda doc: doc["steps"][1].update(step=99), 1,
                "replay mismatch at step 1: recorded 'step' is not the replayed one"),
    "step-true": ("_violation_trace", lambda doc: doc["steps"][1].update(step=True), 1,
                  "replay mismatch at step 1: recorded 'step' is not the replayed one"),
    "pid-on-step-0": ("_violation_trace", lambda doc: doc["steps"][0].update(pid=7), 1,
                      "replay mismatch at step 0: recorded 'pid' is not the replayed one"),
    "state-true": ("_violation_trace", lambda doc: doc["steps"][1]["state"]["processes"][0]
                   .update(client_barrier_in=True), 1,
                   "replay mismatch at step 1: recorded 'state' is not the replayed one"),
    "state-float": ("_violation_trace", lambda doc: doc["steps"][1]["state"]["processes"][0]
                    .update(client_barrier_in=1.0), 1,
                    "replay mismatch at step 1: recorded 'state' is not the replayed one"),
    "extra-step-key": ("_violation_trace", lambda doc: doc["steps"][1].update(extra=0), 1,
                       "replay mismatch at step 1: recorded 'extra' is not the replayed one"),
    "bool-capacity": ("_overflow_trace", lambda doc: doc.update(queue_capacity=True), 3,
                      _MALFORMED + "process count and queue capacity must be ints"),
    "barrier-entry": ("_violation_trace", lambda doc: doc.update(entry=0), 3,
                      _MALFORMED + "the barrier model takes no 'entry'"),
    "header-n": ("_violation_trace", lambda doc: doc.update(n=3), 3,
                 _MALFORMED + "the barrier model takes no 'n'"),
    "no-size": ("_violation_trace", lambda doc: doc.pop("size"), 3, _MALFORMED
                + "ModelConfig.__init__() missing 1 required positional argument: 'size'"),
    "no-variant": ("_violation_trace", lambda doc: doc.pop("variant"), 3,
                   _MALFORMED + _NOT_WRITTEN.format("variant")),
    "no-capacity": ("_violation_trace", lambda doc: doc.pop("queue_capacity"), 3,
                    _MALFORMED + _NOT_WRITTEN.format("queue_capacity")),
    # every ring trace written while the ring model took an entry
    "ring-entry": ("_overflow_trace", lambda doc: doc.update(entry=0), 3,
                   _MALFORMED + "the ring model takes no 'entry'"),
    "unknown-model": ("_overflow_trace",
                      lambda doc: doc.update(model="nosuch", variant="ordered"), 3,
                      _MALFORMED + "unknown model 'nosuch'"),
    # a null never means "the default"
    "null-variant": ("_violation_trace", lambda doc: doc.update(variant=None), 3,
                     _MALFORMED + _NOT_WRITTEN.format("variant")),
    "null-capacity": ("_violation_trace", lambda doc: doc.update(queue_capacity=None), 3,
                      _MALFORMED + _NOT_WRITTEN.format("queue_capacity")),
    "null-mutation": ("_violation_trace", lambda doc: doc.update(mutation=None), 3,
                      _MALFORMED + _NOT_WRITTEN.format("mutation")),
    # a value or key from the trace is echoed shortened, a short one whole
    "typo-variant": ("_violation_trace", lambda doc: doc.update(variant="leader_lsat"), 3,
                     _MALFORMED + "unknown variant 'leader_lsat'; "
                     "choose from leader_last, leader_first"),
    "huge-variant": ("_violation_trace", lambda doc: doc.update(variant="x" * 10**6), 3,
                     _MALFORMED + f"unknown variant {_HUGE}; choose from leader_last, "
                     "leader_first"),
    "huge-rule": ("_violation_trace", lambda doc: doc["steps"][1].update(rule="x" * 10**6), 1,
                  f"replay mismatch at step 1: unknown rule {_HUGE}"),
    "huge-header-key": ("_violation_trace", lambda doc: doc.update({"x" * 10**6: 0}), 3,
                        _MALFORMED + f"the barrier model takes no {_HUGE}"),
    # past sys.maxsize; below it, the initial state's allocation fails
    # before it touches memory
    **{f"{trace[1:-6]}-size-2**{power}": (trace, lambda doc, power=power: doc.update(
        size=2**power), code, line) for trace in ("_violation_trace", "_overflow_trace")
       for power, code, line in [
           (63, 3, _MALFORMED + "process count must be at most 9223372036854775807"),
           (62, 2, _OUT_OF_MEMORY_LINE)]},
    # the replayed guard holds, the gate does not: the witness is not ordered's
    "gate-refuses-step": ("_dfs_overflow_trace", lambda doc: doc.update(variant="ordered"), 1,
                          "replay mismatch at step 1: begin_insert not enabled at pid 2"),
    "step-not-a-dict": ("_violation_trace", lambda doc: doc.update(steps=["not a step"]), 3,
                        _MALFORMED + "bad step list"),
    "no-steps": (None, b'{"model": "barrier"}', 3, _MALFORMED + "'steps'"),
    "not-utf8": (None, b'{"model": "barrier\xff"}', 3, "error: cannot read trace {path}: "
                 "'utf-8' codec can't decode byte 0xff in position 18: invalid start byte"),
    "huge-int": (None, _HUGE_INT.encode(), 3,
                 "error: cannot read trace {path}: " + _parse_error(_HUGE_INT)),
    "deeply-nested": (None, _DEEP.encode(), 3,
                      "error: cannot read trace {path}: " + _parse_error(_DEEP)),
}


class TestReplay:
    def _violation_trace(self, tmp_path):
        trace = tmp_path / "t.json"
        assert run_cli("run", *_VIOLATING, "--trace", str(trace)) == 1
        return trace

    def test_round_trip(self, tmp_path):
        assert run_cli("replay", str(self._violation_trace(tmp_path))) == 0

    def test_tampered_state_detected(self, tmp_path, capsys):
        path = self._violation_trace(tmp_path)
        capsys.readouterr()
        assert run_cli("replay", str(path)) == 0
        # three header lines, then steps 0-3, then `replay OK`
        *verified, _, _ = capsys.readouterr().out.splitlines()
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["steps"][-1]["state"]["processes"][0]["client_barrier_in"] ^= 1
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli("replay", str(path)) == 1
        # the steps verified before the mismatch are printed, and nothing after it
        *out, last = capsys.readouterr().out.splitlines()
        assert out == verified and len(out) == 6
        assert last == "replay mismatch at step 3: recorded 'state' is not the replayed one"

    def test_tampered_rule_detected(self, tmp_path):
        path = self._violation_trace(tmp_path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["steps"][1]["rule"] = "barrier_out"  # not enabled at step 1
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli("replay", str(path)) == 1

    def test_truncated_trace_is_a_mismatch(self, tmp_path, capsys):
        # every kept step replays, but the last state violates no invariant
        path = self._violation_trace(tmp_path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        del doc["steps"][-1]
        path.write_text(json.dumps(doc), encoding="utf-8")
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
        step = json.loads(path.read_text(encoding="utf-8"))["steps"][1]
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
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["verdict"] = verdict
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli("replay", str(path)) == code

    def test_failing_step_is_a_mismatch(self, tmp_path, capsys):
        path = self._overflow_trace(tmp_path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        # a second join request overflows the entry's queue of capacity 1
        doc["steps"].append(dict(doc["steps"][-1], step=2, pid=2))
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli("replay", str(path)) == 1
        assert capsys.readouterr().out.splitlines()[-1] == (
            "replay mismatch at step 2: begin_insert at pid 2 fails: queue of process 0 is "
            "over capacity 1")

    @pytest.mark.parametrize("trace, edit, code, line", _EDITS.values(), ids=_EDITS)
    def test_edited_trace_is_rejected(self, tmp_path, capsys, trace, edit, code, line):
        if trace is None:
            path = tmp_path / "t.json"
            path.write_bytes(edit)
        else:
            path = getattr(self, trace)(tmp_path)
            doc = json.loads(path.read_text(encoding="utf-8"))
            edit(doc)
            path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert run_cli("replay", str(path)) == code
        out, err = capsys.readouterr()
        assert len(out) + len(err) < 1024
        if code == 1:  # the steps verified before the mismatch, then its line
            assert (out.splitlines()[-1], err) == (line, "")
        else:  # an error prints nothing of the trace
            assert (out, _mask_timing(err)) == ("", line.format(path=path) + "\n")

    @pytest.mark.parametrize("trace, cfg", [
        ("_violation_trace", BarrierConfig(size=3, mutation="release_on_barrier_in")),
        ("_overflow_trace", RingConfig(size=3, variant="unordered", queue_capacity=1)),
    ])
    def test_run_writes_the_encoded_header(self, tmp_path, capsys, trace, cfg):
        path = getattr(self, trace)(tmp_path)
        first = capsys.readouterr().out.splitlines()[0]
        doc = json.loads(path.read_text(encoding="utf-8"))
        del doc["steps"], doc["verdict"]
        assert doc == cli.encode_header(doc["model"], cfg)
        # run's first stdout line is the header replay prints, plus the search order
        assert f" queue_capacity={cfg.queue_capacity} " in first
        assert run_cli("replay", str(path)) == 0
        header = capsys.readouterr().out.splitlines()[1]
        assert first == header.removeprefix("# ") + " search=bfs"


# Each way a model can break, run through `explore`, `run` and `replay`: a
# golden trace, an edit of the model its config builds, and the error that
# building or exploring the edited model raises, with its exact message (any
# object's address left out). Most edits give the rule of the trace's step 1
# another apply, a memoized local step or a hand-written state-level one:
# barrier's step 1 is `client_request @0`, ring's `begin_insert @1`, each the
# first transition its search fires.
_B, _R = "barrier_n3_release_on_barrier_in", "ring_unordered_n3_cap1"
_BI = barrier.MessageKind.BARRIER_IN
_NO_EFFECT = "process 0: a step gives (process, ((target, message), ...)), not "
_B0 = repr(BarrierProcessState())


def _with_apply(rule, apply):
    """An edit that gives the model's rule named `rule` `apply` instead of its own."""
    return lambda model: replace(model, rules=tuple(
        replace(r, apply=apply) if r.name == rule else r for r in model.rules))


_B1, _R1 = partial(_with_apply, "client_request"), partial(_with_apply, "begin_insert")


def stepless(model):
    """`model` with each rule's apply behind a plain function, which carries
    no step, as in the benchmark's traced rounds: a search then checks each
    state the apply gives, not each process a step memo makes."""
    return replace(model, rules=tuple(
        replace(r, apply=lambda s, p, apply=r.apply: apply(s, p)) for r in model.rules))


def _fail_first(apply):
    """An edit that puts first a rule `fail`, enabled everywhere, that
    `apply`s: no step names it, and a search fires it before any other move."""
    return lambda model: replace(model, rules=(
        TransitionRule("fail", lambda proc, pid: True, apply),) + model.rules)


def _queue(*messages):
    """A memoized step that puts `messages` in its own process's queue."""
    return memoized_apply(lambda p, pid: (p._replace(queue=messages), ()))


def _no_successor(state, pid):
    raise ValueError("no successor here")


def _crash(state, pid):
    return state[len(state)]


def _guard_raises(proc, pid):
    """barrier_in_nonleader's guard, but raising where a client asked and a message waits."""
    if proc.client_barrier_in and proc.queue:
        raise ValueError("a guard fails where a client asked and a message waits")
    return barrier.barrier_in_nonleader_enabled(proc, pid)


def _twins(default, value, twin):
    """An edit to a model of `_Twin` processes, whose field `x` takes values
    that `==` merges though they differ: its rules `one` and `two` set `x`
    from `default` to `value` and to `twin`, and its invariant fails only at
    the twin, whose state a search keyed by value takes for `one`'s."""
    class _Twin(NamedTuple):
        queue: tuple = ()
        x: object = default

        def check(self, n):
            pass

    def rule(name, new):
        return TransitionRule(name, lambda proc, pid: proc.x == default,
                              memoized_apply(lambda proc, pid: (proc._replace(x=new), ())))

    return lambda model: replace(
        model, initial_state=(_Twin(),) * len(model.initial_state),
        rules=(rule("one", value), rule("two", twin)),
        invariant=lambda s: all(repr(p.x) != repr(twin) for p in s))


# (default, value, twin) of each field type that the pin refuses before any search
_TWINS = {
    "tuple": ((), (1,), (True,)),
    "float": (1.0, 0.0, -0.0),
    "frozenset": (frozenset(), frozenset({1}), frozenset({True})),
}

_BROKEN_MODELS = {
    "released": (_B, _B1(memoized_apply(lambda p, pid: (p._replace(client_barrier_out=1), ()))),
                 ValueError, "process 0: client released before it reached the barrier"),
    # a plain tuple equal to a message, which has no `render`
    "plain-tuple": (_B, _B1(_queue((_BI, ()))), ValueError,
                    "process 0: (<MessageKind.BARRIER_IN: ('bi', 0)>, ()) is not a Message"),
    # a message of the wrong shape is refused before its payload is read
    "payload-not-a-tuple": (_B, _B1(_queue(Message(_BI, 5))), ValueError,
                            "process 0: Message(kind=<MessageKind.BARRIER_IN: ('bi', 0)>, "
                            "payload=5) is not a Message"),
    "kind-not-a-kind": (_B, _B1(_queue(Message("bi", ()))), ValueError,
                        "process 0: Message(kind='bi', payload=()) is not a Message"),
    "wrong-arity": (_B, _B1(_queue(Message(_BI, (1,)))), ValueError,
                    "process 0: barrier_in carries 0 id(s), got 1"),
    "guard-lies": (_B, _B1(memoized_apply(
        lambda p, pid: (p._replace(queue=receive(p, pid)[1]), ()))), ValueError,
        "process 0: receive on an empty queue"),
    # hashed before it is checked, as every matched successor is
    "unhashable": (_B, _B1(lambda s, pid: (s[0]._replace(queue=(Message(_BI, [5]),)),) + s[1:]),
                   ValueError, "process 0: Message(kind=<MessageKind.BARRIER_IN: ('bi', 0)>, "
                   "payload=[5]) is not a Message"),
    "state-a-list": (_B, _B1(lambda s, pid: list(s)), ValueError,
                     "a state must be a tuple, not list"),
    # pids 1 and 2 are the initial state's, passed: only the pinned type catches pid 0
    "other-process-type": (_B, _B1(lambda s, pid: (RingProcessState(),) + s[1:]), ValueError,
                           "process 0: all processes must be the same protocol variant"),
    "process-dropped": (_B, _B1(lambda s, pid: s[:1]), ValueError,
                        "a rule changed the process count from 3 to 1"),
    "effect-none": (_B, _B1(memoized_apply(lambda p, pid: None)), ValueError,
                    _NO_EFFECT + "None"),
    "effect-not-a-pair": (_B, _B1(memoized_apply(lambda p, pid: (p,))), ValueError,
                          _NO_EFFECT + f"({_B0},)"),
    "sends-not-a-tuple": (_B, _B1(memoized_apply(lambda p, pid: (p, None))), ValueError,
                          _NO_EFFECT + f"({_B0}, None)"),
    "send-not-a-pair": (_B, _B1(memoized_apply(lambda p, pid: (p, (1,)))), ValueError,
                        _NO_EFFECT + f"({_B0}, (1,))"),
    "queue-not-a-tuple": (_B, _B1(memoized_apply(lambda p, pid: (p._replace(queue=[]), ()))),
                          ValueError, "process 0: queue must be of type tuple, got []"),
    "neighbor-out-of-range": (_R, _R1(memoized_apply(
        lambda p, pid: (p._replace(status=RingStatus.INSERTING, lhs=3), ()))), ValueError,
        "process 1: ring neighbors are ints in [0, 3) or unset, got 3"),
    # a message is refused where it is sent, before it is queued
    "payload-out-of-range": (_R, _R1(memoized_apply(lambda p, pid: (p, ((0, req_insert(5)),)))),
                             ValueError, "process 1: payload id 5 is not an int in [0, 3)"),
    "sent-wrong-arity": (_R, _R1(memoized_apply(
        lambda p, pid: (p, ((0, Message(req_insert(1).kind, (1, 2))),)))), ValueError,
        "process 1: req_insert carries 1 id(s), got 2"),
    # sends are a tuple: a generator, spent by its first read, would send nothing
    "sends-a-generator": (_R, _R1(memoized_apply(
        lambda p, pid: (p, ((t, req_insert(pid)) for t in (0, 9))))), ValueError,
        f"process 1: a step gives (process, ((target, message), ...)), not "
        f"({RingProcessState()!r}, <generator object <lambda>.<locals>.<genexpr>>)"),
    "send-target-out-of-range": (_R, _R1(memoized_apply(
        lambda p, pid: (p, ((3, req_insert(pid)),)))), ValueError,
        "process 1: send target 3 out of range for 3 processes"),
    "send-target-not-an-int": (_R, _R1(memoized_apply(
        lambda p, pid: (p, ((None, req_insert(pid)),)))), ValueError,
        "process 1: send target None out of range for 3 processes"),
    # a bug in a model is no verdict and no mismatch: Python's traceback
    "crash": (_B, _B1(_crash), IndexError, "tuple index out of range"),
    # `replay` breaks in the last state's search, `run` at its first move
    "probe-raises": (_R, _fail_first(_no_successor), ValueError, "no successor here"),
    "probe-unhashable": (_R, _fail_first(lambda s, pid: list(s)), ValueError,
                         "a state must be a tuple, not list"),
    "probe-crash": (_R, _fail_first(_crash), IndexError, "tuple index out of range"),
    # a reachable process where a guard raises: `replay` meets it at step 3
    "guard-raises": (_B, lambda model: replace(model, rules=tuple(
        replace(r, enabled=_guard_raises) if r.name == "barrier_in_nonleader" else r
        for r in model.rules)), ValueError,
        "a guard fails where a client asked and a message waits"),
    # bools: equal to the recorded zeros, but not the ints the defaults pin
    "bool-initial": (_B, lambda model: replace(model, initial_state=(
        BarrierProcessState(False, False, False),) * len(model.initial_state)), ValueError,
        "process 0: client_barrier_in must be of type int, got False"),
    # `replay` finds a trace's rules by name: this model's witness would fail
    # at its third step, where the first rule named `step` is not enabled
    "rules-share-a-name": (_B, lambda model: replace(model, rules=tuple(
        replace(r, name="step") if r.name in ("client_request", "barrier_in_nonleader") else r
        for r in model.rules)), ValueError, "two rules are named 'step'"),
    **{f"twin-{name}": (_B, _twins(*values), ValueError,
                        f"_Twin.x defaults to {values[0]!r}; a field must default to an int "
                        f"or an Enum member, and queue to ()") for name, values in _TWINS.items()},
}


@pytest.mark.parametrize("golden, edit, error, message", _BROKEN_MODELS.values(),
                         ids=_BROKEN_MODELS)
def test_a_broken_model_fails_explore_run_and_replay(golden, edit, error, message,
                                                     monkeypatch, capsys):
    # `run` and `replay` each exit 3 and end standard error with one line: a
    # ValueError's `error: ` line, no traceback, else its traceback's last
    path = GOLDEN / f"{golden}.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    name = doc.pop("model")
    del doc["steps"], doc["verdict"]  # the rest is the config
    config_class, build = cli.MODELS[name]

    def broken(cfg):
        return edit(build(cfg))

    def text(s):
        return re.sub(r" at 0x[0-9a-f]+>", ">", s)

    for searched in broken, lambda cfg: stepless(broken(cfg)):  # both ways to check
        with pytest.raises(error) as raised:
            explore(searched(config_class(**doc)))
        assert text(str(raised.value)) == message
    last = f"error: {message}" if error is ValueError else f"{error.__name__}: {message}"
    monkeypatch.setitem(cli.MODELS, name, (config_class, broken))
    flags = [f"--{k.replace('_', '-')}={v}" for k, v in doc.items()]
    # `run` prints nothing on standard output; `replay` the start of what it
    # prints for the sound model, the steps verified before the model broke
    replayed = (GOLDEN / f"{golden}.txt").read_text(encoding="utf-8")
    for argv, printed in (["run", "--model", name, *flags], ""), (["replay", str(path)], replayed):
        assert run_cli(*argv) == 3
        out, err = capsys.readouterr()
        *traceback, end = text(err).splitlines()
        assert (traceback[:1], end) == (
            [] if error is ValueError else ["Traceback (most recent call last):"], last)
        assert printed.startswith(out)


def test_render_state_is_compact():
    state = barrier_model(BarrierConfig(size=2)).initial_state
    assert cli.render_state(state) == "(0,0,0,[]) (0,0,0,[])"
    ring = ring_model(RingConfig(size=2)).initial_state
    assert cli.render_state(ring) == "(in_ring,0,0,[]) (outside,-1,-1,[])"


def _top_level_parts(text: str) -> list[str]:
    """`text` split at each comma outside all parentheses and brackets."""
    parts, depth, start = [], 0, 0
    for i, char in enumerate(text):
        depth += (char in "([") - (char in ")]")
        if char == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    return parts + [text[start:]]


@pytest.mark.parametrize("cfg, model", instances(5, 4, mutations=True))
def test_text_and_json_agree_field_by_field(cfg, model):
    # a process's text is its JSON fields joined: one name per value
    for proc in {proc for state in oracle.enumerate_reachable(model) for proc in state}:
        text = cli.render_state((proc,))
        assert text[0] + text[-1] == "()", text
        parts = _top_level_parts(text[1:-1])
        (record,) = cli._step_record(0, None, None, (proc,))["state"]["processes"]
        assert len(parts) == len(record), text
        for part, (name, value) in zip(parts, record.items()):
            if name == "queue":
                assert part[0] + part[-1] == "[]" and part[1:-1].split() == value, text
            else:
                assert part == str(value), text


class _Toy(MessageKindBase):
    TICK = ("t", 0)


class _ToyProcess(NamedTuple):
    sent: int = 0
    queue: tuple = ()

    def check(self, n):
        if self.sent not in (0, 1):
            raise ValueError("sent is a bit")


class _QueueFirstToyProcess(NamedTuple):
    queue: tuple = ()
    sent: int = 0

    check = _ToyProcess.check


class _ToyConfig(ModelConfig):
    VARIANTS = ("plain",)


def _toy_model(cfg, process=_ToyProcess):
    def send(proc, pid):
        return proc._replace(sent=1), (((pid + 1) % cfg.size, Message(_Toy.TICK)),)

    def consume(proc, pid):
        return proc._replace(queue=receive(proc, pid)[1]), ()

    initial = (process(),) * cfg.size
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


@pytest.mark.parametrize("options, match", [
    ({"size": 0}, "at least 1"),
    ({"size": 2**63}, "at most 9223372036854775807"),  # no tuple holds more
    ({"size": 3, "variant": "sideways"}, "unknown variant 'sideways'"),
    ({"size": 3, "mutation": "made_up"}, "unknown mutation 'made_up'"),
    ({"size": 3, "queue_capacity": 0}, "queue capacity must be positive"),
    ({"size": True}, "must be ints"),  # True == 1 would build a one-process model
    ({"size": 3.0}, "must be ints"),
    ({"size": "3"}, "must be ints"),
    ({"size": 3, "queue_capacity": True}, "must be ints"),
    ({"size": 3, "queue_capacity": 1.5}, "must be ints"),
    ({"size": 3, "queue_capacity": 2.0}, "must be ints"),
], ids=["size-0", "size-2**63", "variant", "mutation", "capacity-0", "bool-size", "float-size",
        "str-size", "bool-capacity", "float-capacity", "integral-float-capacity"])
@pytest.mark.parametrize("name", sorted(cli.MODELS))
def test_every_registered_config_refuses_what_no_model_takes(name, options, match):
    with pytest.raises(ValueError, match=match):
        cli.MODELS[name][0](**options)


@pytest.mark.parametrize("name", sorted(cli.MODELS))
def test_two_builds_of_every_registered_variant_start_alike(name):
    config_class, build = cli.MODELS[name]
    for variant in config_class.VARIANTS:
        first, second = (build(config_class(size=4, variant=variant)) for _ in range(2))
        assert first.initial_state == second.initial_state


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


# The toy in two field layouts, each with its process type, its first state's
# DOT label and its last replayed state: nothing reads a field by position, so
# each renders its queue where its field is.
_TOY_LAYOUTS = {"queue-last": (_ToyProcess, "(0,[]) (0,[])", "(1,[t]) (1,[t])"),
                "queue-first": (_QueueFirstToyProcess, "([],0) ([],0)", "([t],1) ([t],1)")}


@pytest.mark.parametrize("layout", _TOY_LAYOUTS)
def test_a_registered_protocol_runs_and_replays(tmp_path, monkeypatch, capsys, layout):
    # the toy writes no text of its own: the process codec renders its fields
    process, label, last = _TOY_LAYOUTS[layout]
    monkeypatch.setitem(cli.MODELS, "toy", (_ToyConfig, partial(_toy_model, process=process)))
    trace, graph = tmp_path / "t.json", tmp_path / "g.dot"
    assert run_cli("run", "--model", "toy", "--size", "2", "--trace", str(trace),
                   "--graph", str(graph)) == 1
    assert "model=toy size=2 variant=plain" in capsys.readouterr().out
    assert f'  s0 [label="s0: {label}"];\n' in graph.read_text(encoding="utf-8")
    step = json.loads(trace.read_text(encoding="utf-8"))["steps"][-1]["state"]["processes"]
    # the trace sorts its keys, so both layouts write them in one order
    assert step == [{"queue": ["t"], "sent": 1}] * 2 and list(step[0]) == ["queue", "sent"]
    assert run_cli("replay", str(trace)) == 0
    *_, last_step, verdict = capsys.readouterr().out.splitlines()
    assert last_step == f"step 2   send @1                      {last}"
    assert verdict.startswith("replay OK: 2 steps verified")


@pytest.mark.parametrize("n, count", [(1, 3), (2, 9), (3, 27)])
@pytest.mark.parametrize("layout", _TOY_LAYOUTS)
def test_a_registered_step_protocol_agrees_with_the_oracle(tmp_path, monkeypatch, capsys,
                                                          layout, n, count):
    # the toy's rules are local steps, so the oracle applies them itself
    def build(cfg):
        return replace(_toy_model(cfg, _TOY_LAYOUTS[layout][0]), invariant=lambda s: True)

    model = build(_ToyConfig(size=n))
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
    monkeypatch.setitem(cli.MODELS, "toy", (_ToyConfig, build))
    graph = tmp_path / "g.dot"
    assert run_cli("run", "--model", "toy", "--size", str(n), "--search", "dfs",
                   "--graph", str(graph)) == 0
    out = capsys.readouterr().out
    assert f"states stored: {count} " in out and f"transitions: {fired} " in out
    text = graph.read_text(encoding="utf-8")
    assert len(NODE_RE.findall(text)) == count
    assert len(EDGE_RE.findall(text)) == fired


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
        doc = json.loads(trace.read_text(encoding="utf-8"))
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
                                                 verdict=verdict)), encoding="utf-8")
                capsys.readouterr()
                assert run_cli("replay", str(probe)) == (0 if expected else 1), (
                    name, n, variant, extra, k, verdict, capsys.readouterr().out)
                (confirmed if expected else refuted)[verdict] += 1
    assert all(confirmed.values()) and all(refuted.values()), (confirmed, refuted)
