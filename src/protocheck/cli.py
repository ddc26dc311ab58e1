"""Batch front end: pick a model, explore it, render the results.

Outputs, all optional and all deterministic for a given configuration:
  --stats   tab-separated statistics row (problem, method-config, model size,
            time (s), memory (MB), states stored, states matched)
  --trace   counterexample trace when a property is violated: human-readable
            lines at the given path, plus a machine-readable JSON twin at
            <path>.json that the `replay` subcommand verifies step by step
  --graph   DOT rendering of the stored-state graph, one node per stored
            state and one edge per fired transition

Exit status: 0 verified, 1 property violated, 2 limit exceeded or queue
overflow, 3 usage error or unwritable output.
"""

import argparse
import json
import sys
from dataclasses import fields
from enum import Enum
from pathlib import Path
from typing import Optional

from .barrier import BarrierConfig, barrier_model
from .engine import ExplorationResult, ExploreConfig, Verdict, explore, reconstruct_trace
from .ring import RingConfig, ring_model
from .state import ModelError, State, check_state, render_state

EXIT_VERIFIED = 0
EXIT_VIOLATION = 1
EXIT_LIMIT = 2
EXIT_USAGE = 3

_VERDICT_EXIT = {
    Verdict.VERIFIED: EXIT_VERIFIED,
    Verdict.INVARIANT_VIOLATED: EXIT_VIOLATION,
    Verdict.POSTCONDITION_VIOLATED: EXIT_VIOLATION,
    Verdict.QUEUE_OVERFLOW: EXIT_LIMIT,
    Verdict.LIMIT_EXCEEDED: EXIT_LIMIT,
}

# Every protocol the CLI knows: name -> (config class, model factory). A
# config class is a dataclass with fields `n`, `variant` and `queue_capacity`
# plus any of its own; its field defaults are the CLI defaults.
MODELS = {
    "barrier": (BarrierConfig, barrier_model),
    "ring": (RingConfig, ring_model),
}

# Config fields the trace header always records (`n` as `size`); the header
# adds every other config field that is set, and replay reads them back.
_ALWAYS_IN_HEADER = ("n", "variant", "queue_capacity")

STATS_COLUMNS = (
    "problem",
    "method-config",
    "model size",
    "time (s)",
    "memory (MB)",
    "states stored",
    "states matched",
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse would sys.exit(2); usage problems must exit 3 instead
    def error(self, message):
        raise UsageError(message)


def _json_field(name: str, value):
    if name == "queue":
        return [m.render() for m in value]
    return value.value if isinstance(value, Enum) else value


def state_to_json(state: State) -> dict:
    """Structured rendering for the machine-readable trace: each process as
    its fields, enums by value and the queue as rendered messages."""
    return {"processes": [
        {name: _json_field(name, value) for name, value in proc._asdict().items()}
        for proc in state
    ]}


def _write_text(path, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as err:
        raise UsageError(f"cannot write {path}: {err}")


def export_state_graph(result: ExplorationResult, path) -> None:
    """Write the stored-state graph in DOT form.

    One node per stored state (ordered by state id), one edge per fired
    transition labeled with the rule name and pid. Needs a run made with
    edge retention enabled.
    """
    if result.edges is None:
        raise ValueError("state-graph export needs a run with record_edges enabled")
    lines = ["digraph reachable {"]
    for sid, state in enumerate(result.states):
        lines.append(f'  s{sid} [label="s{sid}: {render_state(state)}"];')
    for src, rule, pid, dst in result.edges:
        lines.append(f'  s{src} -> s{dst} [label="{rule} @{pid}"];')
    lines.append("}")
    _write_text(path, "\n".join(lines) + "\n")


def write_stats(path, result: ExplorationResult, problem: str, method_config: str,
                size: int) -> None:
    st = result.stats
    row = (
        problem,
        method_config,
        str(size),
        f"{st.elapsed:.3f}",
        f"{st.peak_memory_estimate / 1e6:.3f}",
        str(st.states_stored),
        str(st.states_matched),
    )
    _write_text(path, "\t".join(STATS_COLUMNS) + "\n" + "\t".join(row) + "\n")


def write_trace(path, result: ExplorationResult, header: dict) -> None:
    """Human-readable trace at `path`, machine-readable twin at `path`.json."""
    steps = reconstruct_trace(result, result.witness)
    lines = [
        "# counterexample trace",
        "# " + " ".join(f"{k}={v}" for k, v in header.items()),
        f"# verdict={result.verdict.value}",
    ]
    json_steps = []
    for i, step in enumerate(steps):
        applied = "<initial>" if step.rule is None else f"{step.rule} @{step.pid}"
        lines.append(f"step {i:<3d} {applied:<28s} {render_state(step.state)}")
        json_steps.append(
            {
                "step": i,
                "rule": step.rule,
                "pid": step.pid,
                "state": state_to_json(step.state),
            }
        )
    _write_text(path, "\n".join(lines) + "\n")
    doc = dict(header)
    doc["verdict"] = result.verdict.value
    doc["steps"] = json_steps
    _write_text(str(path) + ".json", json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _registry_entry(model_name: str):
    if model_name not in MODELS:
        raise UsageError(f"unknown model {model_name!r}")
    return MODELS[model_name]


def _build_model(model_name: str, options: dict):
    """(config, model) for `options`, a map from config field to value in
    which None leaves the config class's default."""
    config_class, build = _registry_entry(model_name)
    options = {k: v for k, v in options.items() if v is not None}
    unknown = sorted(options.keys() - {f.name for f in fields(config_class)})
    if unknown:
        raise UsageError(f"the {model_name} model takes no {unknown[0]}")
    try:
        cfg = config_class(**options)
        return cfg, build(cfg)
    except ValueError as err:
        raise UsageError(str(err))


def _cmd_run(args) -> int:
    if args.max_states < 1 or args.max_seconds <= 0:
        raise UsageError("limits must be positive")
    cfg, model = _build_model(args.model, {
        "n": args.size,
        "variant": args.variant,
        "queue_capacity": args.queue_capacity,
        "mutation": args.mutation,
    })
    variant = cfg.variant
    config = ExploreConfig(
        search_order=args.search,
        max_states=args.max_states,
        max_seconds=args.max_seconds,
        record_edges=args.graph is not None,
    )
    result = explore(model, config)
    st = result.stats

    print(f"model={args.model} size={args.size} variant={variant} search={args.search}"
          + (f" mutation={args.mutation}" if args.mutation else ""))
    print(f"verdict: {result.verdict.value}")
    print(f"states stored: {st.states_stored}  states matched: {st.states_matched}  "
          f"transitions: {st.transitions_fired}  peak frontier: {st.max_frontier}")
    print(f"elapsed: {st.elapsed:.3f} s  memory estimate: "
          f"{st.peak_memory_estimate / 1e6:.3f} MB")
    if result.witness is not None:
        print(f"witness: state {result.witness} at depth "
              f"{result.depths[result.witness]}")

    method_config = f"{args.search} {variant}" + (
        f" {args.mutation}" if args.mutation else ""
    )
    header = {
        "model": args.model,
        "size": args.size,
        "variant": variant,
        "queue_capacity": model.queue_capacity,
    }
    header.update(
        (f.name, getattr(cfg, f.name)) for f in fields(cfg)
        if f.name not in _ALWAYS_IN_HEADER and getattr(cfg, f.name) is not None
    )
    if args.stats is not None:
        write_stats(args.stats, result, args.model, method_config, args.size)
    if args.trace is not None:
        if result.witness is not None:
            write_trace(args.trace, result, header)
            print(f"trace written to {args.trace} (replayable: {args.trace}.json)")
        else:
            print("no trace written: run produced no witness")
    if args.graph is not None:
        export_state_graph(result, args.graph)
        print(f"state graph written to {args.graph}")
    return _VERDICT_EXIT[result.verdict]


def _cmd_replay(args) -> int:
    try:
        doc = json.loads(Path(args.trace).read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise UsageError(f"cannot read trace {args.trace}: {err}")
    try:
        options = {f.name: doc.get(f.name) for f in fields(_registry_entry(doc["model"])[0])}
        options.update(n=doc["size"], variant=doc["variant"],
                       queue_capacity=doc["queue_capacity"])
        _, model = _build_model(doc["model"], options)
        steps = doc["steps"]
    except (KeyError, TypeError) as err:
        raise UsageError(f"malformed trace {args.trace}: {err}")
    if not isinstance(steps, list) or not steps or not all(
        isinstance(s, dict) for s in steps
    ):
        raise UsageError(f"malformed trace {args.trace}: bad step list")

    state = model.initial_states[0]
    if steps[0].get("rule") is not None or steps[0].get("state") != state_to_json(state):
        print("replay mismatch at step 0: not the model's initial state")
        return EXIT_VIOLATION
    for i, step in enumerate(steps[1:], start=1):
        try:
            rule = model.rule_named(step.get("rule"))
        except KeyError:
            print(f"replay mismatch at step {i}: unknown rule {step.get('rule')!r}")
            return EXIT_VIOLATION
        pid = step.get("pid")
        if not isinstance(pid, int) or not 0 <= pid < len(state):
            print(f"replay mismatch at step {i}: bad pid {pid!r}")
            return EXIT_VIOLATION
        if not rule.enabled(state, pid):
            print(f"replay mismatch at step {i}: {rule.name} not enabled at pid {pid}")
            return EXIT_VIOLATION
        try:
            state = rule.apply(state, pid)
            check_state(state, model.queue_capacity)
        except (ModelError, ValueError) as err:
            print(f"replay mismatch at step {i}: {rule.name} at pid {pid} fails: {err}")
            return EXIT_VIOLATION
        if state_to_json(state) != step.get("state"):
            print(f"replay mismatch at step {i}: "
                  f"successor state differs from the recorded one")
            return EXIT_VIOLATION
    print(f"replay OK: {len(steps) - 1} steps verified")
    return EXIT_VERIFIED


def _build_parser() -> _Parser:
    parser = _Parser(prog="protocheck",
                     description="explicit-state checker for message-passing protocols")
    sub = parser.add_subparsers(dest="command", required=True)

    defaults = ", ".join(f"{name} {config_class.variant}"
                         for name, (config_class, _) in MODELS.items())
    run = sub.add_parser("run", help="explore a model and report the verdict")
    run.add_argument("--model", required=True, choices=list(MODELS))
    run.add_argument("--size", required=True, type=int, help="process count N")
    run.add_argument("--variant", help=f"protocol variant (default: {defaults})")
    run.add_argument("--search", choices=["bfs", "dfs"], default="bfs")
    run.add_argument("--max-states", type=int, default=10_000_000)
    run.add_argument("--max-seconds", type=float, default=600.0)
    run.add_argument("--queue-capacity", type=int,
                     help="override the default per-process bound of N+2")
    run.add_argument("--mutation", help="seeded bug token, for models that define one")
    run.add_argument("--trace", help="write counterexample trace here")
    run.add_argument("--graph", help="write DOT state graph here")
    run.add_argument("--stats", help="write tab-separated statistics here")

    replay = sub.add_parser("replay",
                            help="re-check a machine-readable trace step by step")
    replay.add_argument("trace", help="path to a <trace>.json file")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            if args.size < 1:
                raise UsageError("--size must be at least 1")
            return _cmd_run(args)
        return _cmd_replay(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
