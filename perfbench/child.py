"""One benchmark round: run `protocheck.cli.main` on a fixed argv in this process.

Usage: python3 perfbench/child.py <mode> -- <protocheck argv...>

Modes:
  plain   the run as a user makes it; only `cli.explore` is wrapped, to take
          its result and its start and end times
  traced  as plain, plus per-call counters around every public boundary of
          the search loop (see `install_layer_wrappers`) and the collector
  setup   stop as soon as the model is built and `explore` is entered

The last line of standard output is one JSON object. Its timestamps are
`time.monotonic_ns()` readings, which on Linux come from the system-wide
CLOCK_MONOTONIC, so the parent process can subtract its own readings.
No file under `src/` is modified: every wrapper is installed from here.
"""

import gc
import json
import resource
import sys
import time
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


class SetupDone(Exception):
    """Raised by the `explore` wrapper in setup mode, before the search."""


def timed(fn, slot, tally=None):
    """Wrap `fn` so each call adds 1 to slot[0] and its duration (ns) to
    slot[1]; with `tally`, slot[2] accumulates tally(return value)."""
    clock = time.perf_counter_ns

    def wrapper(*args, **kwargs):
        t0 = clock()
        out = fn(*args, **kwargs)
        slot[1] += clock() - t0
        slot[0] += 1
        if tally is not None:
            slot[2] += tally(out)
        return out

    return wrapper


# The state edits the model modules call through their own imported names.
STATE_EDITS = ("send_message", "receive_message", "replace_process")


def install_layer_wrappers(layers, modules):
    """Wrap the module-level names the search loop calls between layers.

    `engine.canonical_encode` is the visited-set key; the state edits are
    wrapped where `barrier` and `ring` look them up, so the edits `state`
    makes internally (send_message -> replace_process) count once.
    """
    engine, barrier, ring, cli = modules
    engine.canonical_encode = timed(engine.canonical_encode, layers["state.encode"], len)
    edit = layers["state.edit"]
    for module in (barrier, ring):
        for name in STATE_EDITS:
            setattr(module, name, timed(getattr(module, name), edit))
    cli.render_state = timed(cli.render_state, layers["cli.render"])
    cli.export_state_graph = timed(cli.export_state_graph, layers["cli.graph"])


def wrap_model(model, layers, engine, post_span):
    """Copy of `model` whose rules, invariant and postcondition are timed."""
    guard = layers["model.guard"]
    apply = layers["model.apply"]
    rules = tuple(
        engine.TransitionRule(r.name, timed(r.enabled, guard, bool), timed(r.apply, apply))
        for r in model.rules
    )
    post = timed(model.terminal_postcondition, layers["model.postcondition"])

    def postcondition(state):
        # the sweep runs once, after the frontier empties: first start, last end
        if not post_span:
            post_span.append(time.monotonic_ns())
        out = post(state)
        post_span[1:] = [time.monotonic_ns()]
        return out

    return replace(
        model,
        rules=rules,
        invariant=timed(model.invariant, layers["model.invariant"]),
        terminal_postcondition=postcondition,
    )


def install_gc_timer(layers):
    slot = layers["gc"]
    started = [0]

    def on_gc(phase, info):
        if phase == "start":
            started[0] = time.perf_counter_ns()
        else:
            slot[1] += time.perf_counter_ns() - started[0]
            slot[0] += 1

    gc.callbacks.append(on_gc)


def main(argv):
    if len(argv) < 2 or argv[0] not in ("plain", "traced", "setup") or argv[1] != "--":
        print("usage: child.py plain|traced|setup -- <protocheck argv...>", file=sys.stderr)
        return 3
    mode, cli_argv = argv[0], argv[2:]
    sys.path.insert(0, str(SRC))
    import protocheck.barrier as barrier
    import protocheck.cli as cli
    import protocheck.engine as engine
    import protocheck.ring as ring

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"protocheck imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 3

    record = {"mode": mode}
    # boundary name -> [calls, total ns, tally]
    layers = defaultdict(lambda: [0, 0, 0])
    post_span = []
    real_explore = cli.explore

    def explore(model, config=None):
        record["t_explore"] = [time.monotonic_ns()]
        if mode == "setup":
            raise SetupDone
        if mode == "traced":
            model = wrap_model(model, layers, engine, post_span)
        result = real_explore(model, config)
        record["t_explore"].append(time.monotonic_ns())
        record["result"] = result
        return result

    cli.explore = explore
    if mode == "traced":
        install_layer_wrappers(layers, (engine, barrier, ring, cli))
        install_gc_timer(layers)
    try:
        record["rc"] = cli.main(cli_argv)
    except SetupDone:
        record["rc"] = None
    record["t_end"] = time.monotonic_ns()
    gc.callbacks.clear()
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = record.pop("result", None)
    if result is not None:
        st = result.stats
        record["counts"] = {
            "verdict": result.verdict.value,
            "initial": result.initial_count,
            "stored": st.states_stored,
            "matched": st.states_matched,
            "fired": st.transitions_fired,
            "terminal": len(result.terminal_states),
            "max_frontier": st.max_frontier,
        }
        record["memory_estimate_bytes"] = st.peak_memory_estimate
    if mode == "traced":
        record["layers"] = layers
        record["t_postcondition"] = post_span
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
