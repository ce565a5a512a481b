"""Self-tests of the benchmark harness.

Run from the repository root with ``python3 -m pytest -q perfbench`` or
``python3 -m unittest discover -s perfbench``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import tracer  # noqa: E402
import workloads  # noqa: E402


def _bindings() -> dict:
    return {(mod.__name__, attr): value
            for mod in tracer.treelab_modules() for attr, value in vars(mod).items()}


class StripTimingTest(unittest.TestCase):
    def test_removes_nested_timing_keys_and_nothing_else(self):
        report = {"a": 1, "timing": {"wall_ms": 2.0},
                  "levels": [{"size": 9, "timing": {"x": 1}}, [{"timing": 0, "b": "timing"}]],
                  "inner": {"timing_ms": 3, "deeper": {"timing": None, "c": [1, 2]}}}
        self.assertEqual(workloads.strip_timing(report),
                         {"a": 1, "levels": [{"size": 9}, [{"b": "timing"}]],
                          "inner": {"timing_ms": 3, "deeper": {"c": [1, 2]}}})


class CheckOutputTest(unittest.TestCase):
    def test_every_kind_of_mismatch_is_a_failure(self):
        report = json.dumps({"optimum_size": 11, "timing": {"wall_ms": 1}}).encode()
        for name, seed, code, out, err in (
                ("scan6", 4, 0, b"{}", b""),                     # wrong exit code
                ("scan6", 4, 1, b"{}", b"Traceback (most recent"),
                ("scan6", 4, 1, b"not json", b""),
                ("scan6", 4, 1, b"{}", b""),                     # digest differs
                ("headline_all_pool", 3, 0, report, b""),        # name-free fields differ
                ("catalogue14", 0, 0, b"v0\n", b"")):
            self.assertIsNotNone(workloads.check_output(name, seed, code, out, err),
                                 (name, out, err))


class SeededInputsTest(unittest.TestCase):
    def test_seed_zero_is_the_paper_instance(self):
        self.assertEqual(workloads.treelab_args("headline", 0, 2)[2:8],
                         ["--p", "p1(p2(p3))", "--r", "r", "--s", "s1(s2,s3)"])
        self.assertEqual(workloads.treelab_args("headline_all_pool", 0, 2)[1:3],
                         ["a(y(p1(p2(p3)),r),s1(s2,s3))", "a(p1(p2(p3)),z(r,s1(s2,s3)))"])

    def test_seeded_literals_are_isomorphic_renamings(self):
        from treelab import canonical_code, parse_tree
        base = workloads.treelab_args("headline_all_pool", 0, 2)
        for seed in (1, 7, 12345):
            args = workloads.treelab_args("headline_all_pool", seed, 2)
            self.assertEqual(args, workloads.treelab_args("headline_all_pool", seed, 2))
            self.assertNotEqual(args[1:3], base[1:3])
            for got, want in zip(args[1:3], base[1:3]):
                self.assertEqual(canonical_code(parse_tree(got)),
                                 canonical_code(parse_tree(want)))


class TracerTest(unittest.TestCase):
    def test_install_then_uninstall_restores_every_binding(self):
        before = _bindings()
        t = tracer.Tracer()
        t.install()
        import treelab.cli
        import treelab.solvers
        self.assertIsNot(treelab.solvers.is_minor, before[("treelab.embeddings", "is_minor")])
        self.assertIsNot(treelab.cli.main, before[("treelab.cli", "main")])
        t.uninstall()
        after = _bindings()
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)

    def test_self_times_partition_the_cli_main_span(self):
        import treelab.cli
        t = tracer.Tracer()
        t.install()
        try:
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = treelab.cli.main(["scan", "--max-size", "3",
                                         "--check", "eq4,prop21", "--jobs", "1"])
        finally:
            t.uninstall()
        self.assertEqual(code, 0)
        self.assertEqual(json.loads(out.getvalue())["pairs_scanned"], 10)
        roots = [s for s in t.spans if s[3] == -1]
        self.assertEqual([s[0] for s in roots], ["cli.main"])
        metrics = tracer.summarise(t.spans)
        self.assertGreater(metrics["embeddings.is_minor.calls"], 0)
        self_total = sum(metrics[tracer.metric_name(m, "self_s")] for m in tracer.MODULES)
        self.assertAlmostEqual(self_total, metrics["cli.main.s"], delta=1e-9)

    def test_layer_map_matches_benchmark_json(self):
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        declared = {m["name"] for m in bench["per_layer"]}
        traced = set(tracer.summarise([])) | set(tracer.layers()["extra"])
        self.assertEqual(declared, traced)
        self.assertEqual({w["name"] for w in bench["workloads"]}, set(workloads.NAMES))


if __name__ == "__main__":
    unittest.main()
