"""Batch front end: pick a model, explore it, render the results.

It only parses input, builds objects and prints results: the engine alone
decides a verdict and whether a search config (`ExploreConfig`) is valid.

Outputs, all optional and all deterministic for a given configuration:
  --stats   tab-separated statistics row (problem, method-config, model size,
            time (s), memory (MB), states stored, states matched)
  --trace   counterexample trace when a property is violated: one JSON file
            at the given path, which the `replay` subcommand verifies step
            by step, checking each step as `explore` checks a successor and
            printing it as a readable line once it holds, and then confirms
            its verdict by running `explore` from the last state
  --graph   DOT state graph: a node per stored state, an edge per fired
            transition as the search's `observe` hook logs it; streamed

Exit status: 0 verified or replay OK, 1 violation or replay mismatch, 2 limit,
queue overflow or out of memory at any stage, 3 any other error.
"""

import argparse
import json
import os
import reprlib
import sys
import time
from array import array
from collections.abc import Iterable
from dataclasses import fields, replace
from itertools import chain, islice
from pathlib import Path
from typing import Optional

from .barrier import BarrierConfig, barrier_model
from .engine import (ExplorationResult, ExploreConfig, ModelConfig, Verdict, explore,
                     reconstruct_trace)
from .ring import RingConfig, ring_model
from .state import QueueOverflowError, State, checked_applies, process_fields, render_state

EXIT_VERIFIED = 0
EXIT_VIOLATION = 1
EXIT_LIMIT = 2
EXIT_ERROR = 3

_VERDICT_EXIT = {
    Verdict.VERIFIED: EXIT_VERIFIED,
    Verdict.INVARIANT_VIOLATED: EXIT_VIOLATION,
    Verdict.POSTCONDITION_VIOLATED: EXIT_VIOLATION,
    Verdict.QUEUE_OVERFLOW: EXIT_LIMIT,
    Verdict.LIMIT_EXCEEDED: EXIT_LIMIT,
}

# Every protocol the CLI knows: name -> (config class, model factory). A
# config class is a `ModelConfig` subclass, which resolves the CLI defaults,
# and the factory builds a `ProtocolModel` from one of its configs.
MODELS = {
    "barrier": (BarrierConfig, barrier_model),
    "ring": (RingConfig, ring_model),
}

# The verdicts a trace can witness, each at its last state.
_WITNESSED = (Verdict.INVARIANT_VIOLATED.value, Verdict.POSTCONDITION_VIOLATED.value,
              Verdict.QUEUE_OVERFLOW.value)

STATS_COLUMNS = ("problem", "method-config", "model size", "time (s)", "memory (MB)",
                 "states stored", "states matched")


class _Parser(argparse.ArgumentParser):
    # argparse would sys.exit(2); usage problems must exit 3 instead
    def error(self, message):
        raise ValueError(message)


def _write_text(path, chunks: Iterable[str]) -> None:
    """Write `chunks` to `path` in order, 32 joined to a block, each block
    passed straight to the file's byte buffer: memory is bounded by a block,
    not by the text. An `OSError` is a `ValueError` naming the path."""
    chunks = iter(chunks)
    try:
        with open(path, "w", encoding="utf-8") as out:
            out.reconfigure(write_through=True)  # else the text layer holds 8 KB more
            # an empty batch ends the stream; an empty joined block may not
            while block := list(islice(chunks, 32)):
                out.write("".join(block))
    except OSError as err:
        raise ValueError(f"cannot write {path}: {err}")


def export_state_graph(result: ExplorationResult, edges: Iterable[int], path) -> None:
    """Write the stored-state graph in DOT form, streamed in blocks of lines.

    One node per stored state (ordered by state id), then one edge per fired
    transition in firing order, labeled with the rule name and pid. `edges`
    holds four ids per transition (source id, rule index, pid, target id), as
    the search's `ExploreConfig.observe` batches them. Lines are made as
    `_write_text` takes them, 32 to a block, never held whole. A node's
    label is one `render_state` of its key, through the table's `texts()`,
    so each (pid, process) is rendered once per call; each edge label is
    made once per (rule, pid), before the first edge.
    """
    states = result.states
    texts = states.table.texts()
    nodes = (f'  s{sid} [label="s{sid}: {render_state(key, texts)}"];\n'
             for sid, key in enumerate(states.keys))
    n = len(texts)
    tails = [f' [label="{rule} @{pid}"];\n' for rule in result.rule_names for pid in range(n)]
    ids = iter(edges)  # zip draws from its arguments in order, four ids per edge
    lines = (f'  s{src} -> s{dst}{tails[rule * n + pid]}'
             for src, rule, pid, dst in zip(ids, ids, ids, ids))
    _write_text(path, chain(["digraph reachable {\n"], nodes, lines, ["}\n"]))


def write_stats(path, result: ExplorationResult, problem: str, method_config: str,
                size: int) -> None:
    st = result.stats
    row = (problem, method_config, str(size), f"{st.elapsed:.3f}",
           f"{st.peak_memory_estimate / 1e6:.3f}", str(st.states_stored),
           str(st.states_matched))
    _write_text(path, ["\t".join(STATS_COLUMNS) + "\n", "\t".join(row) + "\n"])


def _step_record(i: int, rule: Optional[str], pid: Optional[int], state: State) -> dict:
    """Step `i` of a JSON trace: `state` reached by `rule` at `pid`, each
    process as its `process_fields`."""
    return {"step": i, "rule": rule, "pid": pid,
            "state": {"processes": [process_fields(proc) for proc in state]}}


def encode_header(model_name: str, cfg: ModelConfig) -> dict:
    """`run`'s trace header for `cfg`: the model, then each config field not
    None, in field order. Replay builds the config from the rest of a header
    and accepts the header only if it is this one."""
    values = ((f.name, getattr(cfg, f.name)) for f in fields(cfg))
    return {"model": model_name, **{k: v for k, v in values if v is not None}}


def _header_line(model_name: str, cfg: ModelConfig) -> str:
    """`cfg`'s trace header as `k=v` pairs: `run`'s first stdout line, less
    its search order, and `replay`'s second."""
    return " ".join(f"{k}={v}" for k, v in encode_header(model_name, cfg).items())


def _first_difference(recorded: dict, expected: dict) -> Optional[str]:
    """The first key, in sorted order, that one dict lacks or whose values
    differ as canonical JSON text (so `true`, `1` and `1.0` all differ)."""
    for key in sorted(recorded.keys() | expected.keys()):
        if key not in recorded or key not in expected or (
                json.dumps(recorded[key], sort_keys=True)
                != json.dumps(expected[key], sort_keys=True)):
            return key
    return None


def _build_model(model_name: str, options: dict):
    """(config, model factory) for `options`, a map from config field to value
    taken verbatim: a bad model name, option or size is a `ValueError`."""
    if model_name not in MODELS:
        raise ValueError(f"unknown model {reprlib.repr(model_name)}")
    config_class, build = MODELS[model_name]
    unknown = sorted(options.keys() - {f.name for f in fields(config_class)})
    if unknown:
        raise ValueError(f"the {model_name} model takes no {reprlib.repr(unknown[0])}")
    return config_class(**options), build


def _cmd_run(args) -> int:
    # refused before the search, which would run for nothing: two outputs on
    # one file (each would overwrite the other), a directory, a missing parent
    seen: dict[str, str] = {}
    for flag, path in (("--stats", args.stats), ("--trace", args.trace), ("--graph", args.graph)):
        if path is not None:
            real = os.path.realpath(path)
            other = seen.setdefault(real, flag)
            if other != flag:
                raise ValueError(f"{other} and {flag} both write {path}")
            if os.path.isdir(real) or not os.path.isdir(os.path.dirname(real)):
                raise ValueError(f"cannot write {path}: it is a directory, or its parent is not")
    edges = array("q")  # 64-bit ids hold any id a search can store
    config = ExploreConfig(search=args.search, max_states=args.max_states,
                           max_seconds=args.max_seconds,
                           observe=None if args.graph is None else edges.fromlist)
    cfg, build = _build_model(args.model, {f.name: getattr(args, f.name)
                                           for f in fields(ModelConfig)})
    result = explore(build(cfg), config)
    st = result.stats

    print(f"{_header_line(args.model, cfg)} search={config.search}")
    print(f"verdict: {result.verdict.value}")
    print(f"states stored: {st.states_stored}  states matched: {st.states_matched}  "
          f"transitions: {st.transitions_fired}  peak frontier: {st.max_frontier}")
    print(f"elapsed: {st.elapsed:.3f} s  memory estimate: "
          f"{st.peak_memory_estimate / 1e6:.3f} MB")
    steps = None if result.witness is None else reconstruct_trace(result, result.witness)
    if steps is not None:
        print(f"witness: state {result.witness} at depth {len(steps) - 1}")

    if args.stats is not None:
        method_config = " ".join(filter(None, (config.search, cfg.variant, cfg.mutation)))
        write_stats(args.stats, result, args.model, method_config, cfg.size)
    if args.trace is not None:
        if steps is not None:
            doc = dict(encode_header(args.model, cfg), verdict=result.verdict.value, steps=[
                _step_record(i, step.rule, step.pid, step.state) for i, step in enumerate(steps)])
            _write_text(args.trace, [json.dumps(doc, indent=2, sort_keys=True) + "\n"])
            print(f"trace written to {args.trace}")
        else:
            print("no trace written: run produced no witness")
    if args.graph is not None:
        export_state_graph(result, edges, args.graph)
        print(f"state graph written to {args.graph}")
    return _VERDICT_EXIT[result.verdict]


def _cmd_replay(args) -> int:
    try:
        doc = json.loads(Path(args.trace).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as err:
        raise ValueError(f"cannot read trace {args.trace}: {err}")
    try:
        steps, verdict = doc["steps"], doc["verdict"]
        header = {k: v for k, v in doc.items() if k not in ("steps", "verdict")}
        model_name = header["model"]
        cfg, build = _build_model(model_name, {k: v for k, v in header.items() if k != "model"})
    except (KeyError, TypeError, ValueError) as err:
        raise ValueError(f"malformed trace {args.trace}: {err}")
    key = _first_difference(header, encode_header(model_name, cfg))
    if key is not None:
        raise ValueError(f"malformed trace {args.trace}: header key {reprlib.repr(key)} "
                         f"is not what run writes for its config")
    if not isinstance(steps, list) or not steps or not all(
        isinstance(s, dict) for s in steps
    ):
        raise ValueError(f"malformed trace {args.trace}: bad step list")
    if verdict not in _WITNESSED:
        raise ValueError(f"malformed trace {args.trace}: no witness for verdict "
                         f"{reprlib.repr(verdict)}")

    # the model and its rules' applies, checked as a search checks them. One
    # that breaks is an error, as in `run`: a mismatch blames only the trace
    model = build(cfg)
    state = model.initial_state
    applies, _ = checked_applies(state, model.queue_capacity, [rule.apply for rule in model.rules])
    print(f"# counterexample trace\n# {_header_line(model_name, cfg)}\n# verdict={verdict}")
    rule_name = pid = None  # the initial state is reached by no rule
    for i, step in enumerate(steps):
        if i:
            try:
                rule = model.rule_named(step.get("rule"))
            except KeyError:
                print(f"replay mismatch at step {i}: unknown rule "
                      f"{reprlib.repr(step.get('rule'))}")
                return EXIT_VIOLATION
            rule_name, pid = rule.name, step.get("pid")
            if type(pid) is not int or not 0 <= pid < len(state):
                print(f"replay mismatch at step {i}: bad pid {reprlib.repr(pid)}")
                return EXIT_VIOLATION
            if not rule.enabled_at(state, pid):
                print(f"replay mismatch at step {i}: {rule.name} not enabled at pid {pid}")
                return EXIT_VIOLATION
            try:
                state = applies[model.rules.index(rule)](state, pid)
            except QueueOverflowError as err:  # no search stores such a state
                print(f"replay mismatch at step {i}: {rule.name} at pid {pid} fails: {err}")
                return EXIT_VIOLATION
        key = _first_difference(step, _step_record(i, rule_name, pid, state))
        if key is not None:
            print(f"replay mismatch at step {i}: recorded {reprlib.repr(key)} "
                  f"is not the replayed one")
            return EXIT_VIOLATION
        applied = "<initial>" if rule_name is None else f"{rule_name} @{pid}"
        print(f"step {i:<3d} {applied:<28s} {render_state(state)}")
    # The last state witnesses the verdict exactly when `explore` from there
    # reports it at that state (witness 0). Its moves store at most rules x
    # processes new states, so the limit never cuts them short but bounds the
    # probe's work; a verdict at any deeper state is no witness.
    probe = ExploreConfig(max_states=1 + len(model.rules) * len(state))
    found = explore(replace(model, initial_state=state), probe)
    if found.verdict.value != verdict or found.witness != 0:
        print(f"replay mismatch: the last state does not witness {verdict}")
        return EXIT_VIOLATION
    print(f"replay OK: {len(steps) - 1} steps verified, {verdict} confirmed")
    return EXIT_VERIFIED


def _build_parser() -> _Parser:
    parser = _Parser(prog="protocheck",
                     description="explicit-state checker for message-passing protocols")
    sub = parser.add_subparsers(dest="command", required=True)

    defaults = ", ".join(f"{name} {config_class.VARIANTS[0]}"
                         for name, (config_class, _) in MODELS.items())
    run = sub.add_parser("run", help="explore a model and report the verdict")
    run.add_argument("--model", required=True, choices=list(MODELS))
    run.add_argument("--size", required=True, type=int, help="process count N")
    run.add_argument("--variant", help=f"protocol variant (default: {defaults})")
    default, shown = ExploreConfig(), "(default: %(default)s)"
    run.add_argument("--search", choices=default.SEARCHES, default=default.search, help=shown)
    run.add_argument("--max-states", type=int, default=default.max_states, help=shown)
    run.add_argument("--max-seconds", type=float, default=default.max_seconds, help=shown)
    run.add_argument("--queue-capacity", type=int,
                     help="override the default per-process bound of N+2")
    run.add_argument("--mutation", help="seeded bug token: " + ", ".join(
        f"{name} {m}" for name, (cls, _) in MODELS.items() for m in cls.MUTATIONS))
    run.add_argument("--trace", help="write counterexample trace here")
    run.add_argument("--graph", help="write DOT state graph here")
    run.add_argument("--stats", help="write tab-separated statistics here")

    replay = sub.add_parser("replay",
                            help="re-check a trace step by step, printing each step that holds")
    replay.add_argument("trace", help="path to a trace that run --trace wrote")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    started = time.perf_counter()
    if hasattr(sys.stdout, "reconfigure"):  # UTF-8 as the output files; argv paths round-trip
        sys.stdout.reconfigure(encoding="utf-8", errors="surrogateescape")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code = _cmd_run(args) if args.command == "run" else _cmd_replay(args)
        sys.stdout.flush()  # a closed reader shows here, not in the exit flush
        return code
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    except BrokenPipeError:
        # the reader has gone: stdout goes to devnull, so the exit flush is quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: cannot write to stdout: its reader has closed it", file=sys.stderr)
        return EXIT_ERROR
    except Exception as err:
        # on 3.13 a MemoryError inside a C call can surface as the cause of a SystemError;
        # any other error is a bug: its traceback, and never a verdict's exit code
        if not (isinstance(err, MemoryError) or isinstance(err.__cause__, MemoryError)):
            sys.excepthook(*sys.exc_info())
            return EXIT_ERROR
        # leaving the handler drops the traceback, and the search's states with it
    print(f"error: out of memory after {time.perf_counter() - started:.1f} s", file=sys.stderr)
    return EXIT_LIMIT


if __name__ == "__main__":
    raise SystemExit(main())
