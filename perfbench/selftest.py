"""Fast self-test of the benchmark on tiny instances (a few seconds).

    python3 perfbench/selftest.py

It checks that traced and untraced rounds agree on every count, that the
call-count identities hold, that a wrong pinned count is caught as a failed
round, that times are scaled by the reference timed beside each round, and
that every metric BENCHMARK.json names is reported with its unit.
"""

import contextlib
import io
import json
import random
import re
import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

TINY = {
    "barrier-n3": {
        "argv": ["run", "--model", "barrier", "--size", "3"],
        "rules": 4, "processes": 3, "exit_code": 0, "verdict": "verified",
        "initial": 1, "stored": 18, "matched": 10, "fired": 27, "terminal": 1,
        "max_frontier": 5,
    },
    "ring-unordered-n3-graph": {
        "argv": ["run", "--model", "ring", "--size", "3", "--variant", "unordered",
                 "--graph", "{work}/graph.dot", "--stats", "{work}/stats.tsv"],
        "rules": 4, "processes": 3, "exit_code": 0, "verdict": "verified",
        "initial": 1, "stored": 49, "matched": 34, "fired": 82, "terminal": 2,
        "max_frontier": 12,
    },
}


def reported(spec, trace, seconds=0.1):
    """Measure `spec` and return (samples, the metrics as printed)."""
    samples, values = run.measure(spec, seconds, trace, random.Random(0))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.report("selftest", 0, trace, seconds, samples, values, {})
    return samples, out.getvalue(), values


class TinyWorkloads(unittest.TestCase):
    def test_traced_and_untraced_counts_agree(self):
        for name, spec in TINY.items():
            with self.subTest(name):
                samples, _, values = reported(spec, trace=1)
                self.assertEqual([s["problems"] for s in samples], [[]] * len(samples))
                counts = {json.dumps(s["counts"], sort_keys=True) for s in samples}
                self.assertEqual(len(counts), 1)
                self.assertEqual({s["mode"] for s in samples}, {"plain", "traced"})
                self.assertEqual(values["model.guard.calls"],
                                 spec["stored"] * spec["rules"] * spec["processes"])
                self.assertEqual(values["state.encode.calls"], spec["fired"] + 1)

    def test_graph_workload_exercises_the_cli_layer(self):
        _, _, values = reported(TINY["ring-unordered-n3-graph"], trace=1)
        self.assertEqual(values["cli.render.calls"], 49)
        self.assertGreater(values["cli.graph.bytes"], 0)

    def test_a_wrong_pinned_count_fails_the_round(self):
        spec = dict(TINY["barrier-n3"], matched=11)
        samples, text, _ = reported(spec, trace=0)
        plain = [s for s in samples if s["mode"] == "plain"]
        self.assertTrue(plain and all(s["problems"] for s in plain))
        self.assertIn("FAILED plain round: matched 10 != pinned 11", text)

    def test_times_are_normalised_by_the_reference_beside_each_round(self):
        samples, text, values = reported(TINY["barrier-n3"], trace=0)
        self.assertTrue(all(s["ref_s"] > 0 for s in samples))
        scaled = [s["wall_s"] * run.REF_SECONDS / s["ref_s"]
                  for s in samples if s["mode"] == "plain"]
        self.assertEqual(values["wall_s"], statistics.median(scaled))
        self.assertEqual(values["as_measured"]["wall_s"],
                         statistics.median(s["wall_s"] for s in samples if s["mode"] == "plain"))
        self.assertIn("as measured: ref_s", text)

    def test_every_metric_is_printed_with_its_unit(self):
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        for trace, key, table in ((0, "end_to_end", run.END_TO_END),
                                  (1, "per_layer", run.PER_LAYER)):
            with self.subTest(key):
                declared = {m["name"]: m["unit"] for m in bench[key]}
                self.assertEqual(declared, table)
                _, text, _ = reported(TINY["barrier-n3"], trace)
                for name, unit in declared.items():
                    line = rf"\n  {re.escape(name)} +-?[0-9.]+ {re.escape(unit)}  \(median of [1-9]"
                    self.assertRegex(text, line)

    def test_workload_names_match_benchmark_json(self):
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.load_workloads()))


if __name__ == "__main__":
    unittest.main()
