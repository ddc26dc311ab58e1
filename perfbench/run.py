"""protocheck benchmark: time to a verdict and memory, end to end and per layer.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Every round is a fresh child process (`child.py`) that calls the same entry a
user calls, `protocheck.cli.main`, with the workload's fixed argv from
`workloads.json`. Every round's exit code, verdict and counts are checked
against the values pinned there; a mismatch is a failed round, never retried.

--trace 0 reports the end-to-end metrics (medians over the rounds of the run):
  wall_s             spawn of the child to `cli.main` returning
  setup_s            spawn of the child to `explore` entered (imports, argv,
                     model built); setup-only rounds add samples
  transitions_per_s  transitions fired / duration of the `explore` call
  peak_rss_mb        ru_maxrss of the child
The host's speed drifts by tens of percent within seconds, so these times are
host-normalised: each round's time is multiplied by REF_SECONDS / ref, where
ref is the mean time of a fixed search (`reference.py`) run on the same CPU
right before and right after the round. They read as seconds on a host where
that search takes REF_SECONDS. The times as measured are printed beside them
and kept in the record.

--trace 1 alternates untraced and traced rounds and reports the per-layer
split of the search loop from the traced ones (see NOTES.md), plus the
tracing overhead against the untraced ones.

`--seed` only shuffles the order of rounds (and of workloads with `all`); the
program always receives the same argv. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. A record of
each run, with the environment and the phase spans, goes to
.perfbench/results/.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
sys.path.insert(0, str(HERE))
import reference  # noqa: E402
WORK = ROOT / ".perfbench"

# A run must end within 180 s; no round starts a child that could outlive this.
HARD_LIMIT_S = 170.0
SETUP_PROBES_PER_ROUND = 2
# The reference search: process count, its (stored, fired) and runs per timing.
REFERENCE = (4, (3826, 15556), 2)
# The reference time that normalised times are scaled to (about that of a
# quiet 2-CPU Xeon VM with Python 3.11).
REF_SECONDS = 0.2
PINNED = ("verdict", "initial", "stored", "matched", "fired", "terminal", "max_frontier")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "transitions_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "model.guard.calls": "count",
    "model.guard.s": "s",
    "model.guard.hit_ratio": "ratio",
    "model.apply.calls": "count",
    "model.apply.self_s": "s",
    "model.invariant.calls": "count",
    "model.invariant.s": "s",
    "model.postcondition.calls": "count",
    "model.postcondition.s": "s",
    "state.encode.calls": "count",
    "state.encode.s": "s",
    "state.encode.bytes": "bytes",
    "state.edit.calls": "count",
    "state.edit.s": "s",
    "engine.self_s": "s",
    "engine.stored": "count",
    "engine.matched": "count",
    "engine.match_ratio": "ratio",
    "engine.max_frontier": "count",
    "engine.terminal": "count",
    "engine.memory_estimate_mb": "MB",
    "cli.render.calls": "count",
    "cli.render.s": "s",
    "cli.graph.s": "s",
    "cli.graph.bytes": "bytes",
    "gc.s": "s",
    "gc.collections": "count",
    "trace.explore_s": "s",
    "trace.overhead_s": "s",
}

# Call-count identities of a traced, fully explored run.
IDENTITIES = {
    "model.guard": lambda c, spec: c["stored"] * spec["rules"] * spec["processes"],
    "model.apply": lambda c, spec: c["fired"],
    "model.invariant": lambda c, spec: c["stored"],
    "state.encode": lambda c, spec: c["fired"] + c["initial"],
}


class Fatal(Exception):
    """The benchmark cannot run here at all; no result is printed."""


def load_workloads():
    return json.loads((HERE / "workloads.json").read_text())


def _option(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


def check_outputs(spec, argv, counts):
    """Problems with the files the run wrote, and the graph size in bytes."""
    problems, graph_bytes = [], 0
    graph = _option(argv, "--graph")
    if graph is not None:
        text = (ROOT / graph).read_text()
        graph_bytes = len(text.encode())
        lines = text.splitlines()
        edges = sum(" -> " in line for line in lines)
        if edges != counts.get("fired") or len(lines) - edges - 2 != counts.get("stored"):
            problems.append(f"graph has {len(lines) - edges - 2} nodes and {edges} edges")
    stats = _option(argv, "--stats")
    if stats is not None:
        header, row = ((ROOT / stats).read_text().splitlines() + ["", ""])[:2]
        table = dict(zip(header.split("\t"), row.split("\t")))
        if (table.get("states stored"), table.get("states matched")) != (
            str(spec["stored"]), str(spec["matched"])):
            problems.append(f"stats row {row!r} disagrees with the pinned counts")
    return problems, graph_bytes


def check_round(spec, rec, stdout):
    problems = []
    if rec["rc"] != spec["exit_code"]:
        problems.append(f"exit code {rec['rc']} != {spec['exit_code']}")
    counts = rec.get("counts", {})
    for key in PINNED:
        if counts.get(key) != spec[key]:
            problems.append(f"{key} {counts.get(key)!r} != pinned {spec[key]!r}")
    if counts and counts["fired"] != counts["stored"] - counts["initial"] + counts["matched"]:
        problems.append("fired != stored - initial + matched")
    if f"verdict: {spec['verdict']}\n" not in stdout:
        problems.append("the verdict line is missing from the output")
    if rec["mode"] == "traced" and counts:
        for name, expected in IDENTITIES.items():
            calls = rec["layers"].get(name, [0])[0]
            if calls != expected(counts, spec):
                problems.append(f"{name} calls {calls} != {expected(counts, spec)}")
    return problems


def reference_s():
    """Seconds the reference search takes now, a reading of the host's speed."""
    n, counts, repeats = REFERENCE
    t0 = time.perf_counter_ns()
    for _ in range(repeats):
        if reference.search(n) != counts:
            raise Fatal(f"the reference search did not give {counts}")
    return (time.perf_counter_ns() - t0) / 1e9


def run_round(spec, mode, deadline):
    """Spawn one child; return its measurements and the problems found."""
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="round-", dir=WORK))
    argv = [a.replace("{work}", str(work.relative_to(ROOT))) for a in spec["argv"]]
    t0 = time.monotonic_ns()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), mode, "--", *argv],
            cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        lines = proc.stdout.splitlines()
        rec = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if rec is None:
            return {"mode": mode, "problems": [
                f"child exited {proc.returncode}: {proc.stderr.strip()[-400:]}"]}
        sample = {"mode": mode, "setup_s": (rec["t_explore"][0] - t0) / 1e9}
        if mode == "setup":
            sample["problems"] = []
            return sample
        problems = check_round(spec, rec, proc.stdout)
        output_problems, graph_bytes = check_outputs(spec, argv, rec.get("counts", {}))
    except subprocess.TimeoutExpired:
        return {"mode": mode, "problems": ["timed out"], "timed_out": True}
    except (OSError, ValueError, KeyError, IndexError) as err:
        return {"mode": mode, "problems": [f"unreadable round: {err!r}"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    explore_start, explore_end = rec["t_explore"]
    explore_s = (explore_end - explore_start) / 1e9
    sample.update(
        problems=problems + output_problems,
        wall_s=(rec["t_end"] - t0) / 1e9,
        explore_s=explore_s,
        transitions_per_s=rec["counts"]["fired"] / explore_s,
        peak_rss_mb=rec["maxrss_kb"] * 1024 / 1e6,
        counts=rec["counts"],
        memory_estimate_bytes=rec["memory_estimate_bytes"],
    )
    if mode == "traced":
        sample["layers"] = rec["layers"]
        sample["graph_bytes"] = graph_bytes
        sample["spans"] = phase_spans(t0, rec)
    return sample


def phase_spans(t0, rec):
    """Coarse phases of one round, in ns from the spawn, with parent ids."""
    ex0, ex1 = rec["t_explore"]
    spans = [
        {"id": 0, "parent": None, "name": "round", "start": 0, "end": rec["t_end"] - t0},
        {"id": 1, "parent": 0, "name": "setup", "start": 0, "end": ex0 - t0},
        {"id": 2, "parent": 0, "name": "explore", "start": ex0 - t0, "end": ex1 - t0},
        {"id": 4, "parent": 0, "name": "output", "start": ex1 - t0, "end": rec["t_end"] - t0},
    ]
    if rec["t_postcondition"]:
        p0, p1 = rec["t_postcondition"]
        spans.insert(3, {"id": 3, "parent": 2, "name": "postcondition",
                         "start": p0 - t0, "end": p1 - t0})
    return spans


def layer_values(sample):
    """Per-layer metrics of one traced round (all but trace.overhead_s)."""
    layers, counts = sample["layers"], sample["counts"]

    def calls(name):
        return layers.get(name, [0, 0, 0])[0]

    def secs(name):
        return layers.get(name, [0, 0, 0])[1] / 1e9

    covered = sum(secs(n) for n in ("model.guard", "model.apply", "model.invariant",
                                    "model.postcondition", "state.encode"))
    return {
        "model.guard.calls": calls("model.guard"),
        "model.guard.s": secs("model.guard"),
        "model.guard.hit_ratio": layers["model.guard"][2] / calls("model.guard"),
        "model.apply.calls": calls("model.apply"),
        "model.apply.self_s": secs("model.apply") - secs("state.edit"),
        "model.invariant.calls": calls("model.invariant"),
        "model.invariant.s": secs("model.invariant"),
        "model.postcondition.calls": calls("model.postcondition"),
        "model.postcondition.s": secs("model.postcondition"),
        "state.encode.calls": calls("state.encode"),
        "state.encode.s": secs("state.encode"),
        "state.encode.bytes": layers["state.encode"][2],
        "state.edit.calls": calls("state.edit"),
        "state.edit.s": secs("state.edit"),
        "engine.self_s": sample["explore_s"] - covered,
        "engine.stored": counts["stored"],
        "engine.matched": counts["matched"],
        "engine.match_ratio": counts["matched"] / counts["fired"],
        "engine.max_frontier": counts["max_frontier"],
        "engine.terminal": counts["terminal"],
        "engine.memory_estimate_mb": sample["memory_estimate_bytes"] / 1e6,
        "cli.render.calls": calls("cli.render"),
        "cli.render.s": secs("cli.render"),
        "cli.graph.s": secs("cli.graph"),
        "cli.graph.bytes": sample["graph_bytes"],
        "gc.s": secs("gc"),
        "gc.collections": calls("gc"),
        "trace.explore_s": sample["explore_s"],
    }


def measure(spec, seconds, trace, rng):
    """Run rounds of one workload for `seconds`; return (samples, metrics)."""
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    warm = run_round(spec, "setup", deadline)  # fills the bytecode cache; discarded
    if warm["problems"]:
        raise Fatal(f"the program cannot be set up: {warm['problems'][0]}")
    samples = []
    ref = None if trace else reference_s()
    while True:
        if trace:
            block = ["plain", "traced"]
        else:
            block = ["plain"] + ["setup"] * SETUP_PROBES_PER_ROUND
        rng.shuffle(block)
        for mode in block:
            sample = run_round(spec, mode, deadline)
            if ref is not None:
                after = reference_s()
                sample["ref_s"] = (ref + after) / 2
                ref = after
            samples.append(sample)
        if time.monotonic() - start >= seconds or any(s.get("timed_out") for s in samples):
            break

    def median(key, modes=("plain",), power=0):
        """Median of `key` over the rounds of `modes`, as measured (power 0) or
        host-normalised: power 1 for a time, -1 for a rate."""
        values = [s[key] * (REF_SECONDS / s["ref_s"]) ** power if power else s[key]
                  for s in samples if s["mode"] in modes and key in s]
        return statistics.median(values) if values else float("nan")

    if not trace:
        metrics = {
            "wall_s": median("wall_s", power=1),
            "setup_s": median("setup_s", ("plain", "setup"), power=1),
            "transitions_per_s": median("transitions_per_s", power=-1),
            "peak_rss_mb": median("peak_rss_mb"),
            "as_measured": {
                "wall_s": median("wall_s"),
                "setup_s": median("setup_s", ("plain", "setup")),
                "transitions_per_s": median("transitions_per_s"),
                "ref_s": median("ref_s", ("plain", "setup")),
            },
        }
    else:
        rows = [layer_values(s) for s in samples
                if s["mode"] == "traced" and "layers" in s and "counts" in s]
        metrics = {name: statistics.median(r[name] for r in rows) if rows else float("nan")
                   for name in PER_LAYER if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = median("explore_s", ("traced",)) - median("explore_s")
    return samples, metrics


def source_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit():
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (ROOT / ".git" / ref).exists():
            return (ROOT / ".git" / ref).read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "source_sha256": source_digest(),
    }


def report(name, seed, trace, seconds, samples, metrics, env):
    units = PER_LAYER if trace else END_TO_END
    failed = [s for s in samples if s["problems"]]
    print(f"workload {name}  seed {seed}  trace {trace}  "
          f"rounds {dict(Counter(s['mode'] for s in samples))}")
    for s in failed:
        print(f"  FAILED {s['mode']} round: {'; '.join(s['problems'])}")
    print(f"  error_rate {len(failed) / len(samples):.4f} ({len(failed)} of {len(samples)})")
    measured = Counter("setup" if "wall_s" not in s else "layers" if "layers" in s else "plain"
                       for s in samples if "setup_s" in s)
    for metric, unit in units.items():
        n = (sum(measured.values()) if metric == "setup_s"
             else measured["layers"] if trace else measured["plain"])
        print(f"  {metric:28s} {metrics[metric]:>16.6f} {unit}  (median of {n})")
    for metric, value in metrics.get("as_measured", {}).items():
        print(f"  {'as measured: ' + metric:28s} {value:>16.6f} {END_TO_END.get(metric, 's')}")
    print(f"  env {json.dumps(env)}")
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"workload": name, "seed": seed, "trace": trace, "seconds": seconds,
              "env": env, "metrics": metrics, "samples": samples}
    (results / f"{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return len(samples), len(failed), {m: {"value": metrics[m], "unit": u}
                                       for m, u in units.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (SRC / "protocheck" / "cli.py").is_file():
            raise Fatal(f"no protocheck sources under {SRC}")
        workloads = load_workloads()
        rng = random.Random(args.seed)
        if args.workload == "all":
            names = list(workloads)
            rng.shuffle(names)
            plan = [(n, t) for n in names for t in rng.sample((0, 1), 2)]
            prefix = True
        elif args.workload in workloads:
            plan, prefix = [(args.workload, args.trace)], False
        else:
            parser.error(f"unknown workload {args.workload!r}; choose from {list(workloads)} or all")
        env = environment()
        # Rounds and reference timings share one CPU, so each reference reads
        # the speed of the CPU its neighbouring rounds ran on.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        attempted, failed, metrics = 0, 0, {}
        for name, trace in plan:
            env["loadavg_before"] = list(os.getloadavg())
            samples, values = measure(workloads[name], args.seconds, trace, rng)
            env["loadavg_after"] = list(os.getloadavg())
            n, bad, reported = report(name, args.seed, trace, args.seconds, samples, values, env)
            attempted += n
            failed += bad
            metrics.update({(f"{name}/{m}" if prefix else m): v for m, v in reported.items()})
    except Fatal as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
