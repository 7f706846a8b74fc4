"""Tests of the benchmark itself: every answer check rejects a wrong answer,
and the layer trace reaches callers that imported a function by name.

    python3 -m unittest discover -s bench -t bench
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.load_package()

import checks  # noqa: E402
import workloads  # noqa: E402
from layertrace import LAYER_METRICS, TRACED, LayerTrace  # noqa: E402


def _cli_json(argv: list) -> dict:
    code, text = workloads.run_cli(argv)
    assert code == 0, text
    return json.loads(text)


class SystemFiles(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.workdir = Path(self._tmp.name)
        self.paths = workloads.write_systems(self.workdir, list(workloads.SYSTEMS))

    def tearDown(self):
        self._tmp.cleanup()


class ArithmeticTest(unittest.TestCase):
    def test_sign_surd_matches_floats(self):
        rng = random.Random(5)
        for _ in range(2000):
            a, b, d = rng.randint(-10**6, 10**6), rng.randint(-1000, 1000), rng.choice([2, 3, 5, 7])
            value = a + b * d ** 0.5
            if abs(value) > 1e-6:
                self.assertEqual(checks.sign_surd(a, b, d), 1 if value > 0 else -1)

    def test_reflection_fixed_points(self):
        self.assertEqual(checks.reflection_fixed_points(0), [(Fraction(1, 2), 0)])
        self.assertEqual(len(checks.reflection_fixed_points(1)), 2)

    def test_adic_counts(self):
        self.assertEqual([checks.adic_solution_count(b, 0) for b in (2, 3, 6)], [1, 1, 1])
        self.assertEqual([checks.adic_solution_count(b, 1) for b in (2, 3, 6)], [0, 1, 0])

    def test_three_gap(self):
        self.assertEqual(checks.three_gap_problems([55, 89, 89]), [])
        self.assertEqual(checks.three_gap_problems([55, 89, 144]), [])
        self.assertTrue(checks.three_gap_problems([55, 89, 145]))
        self.assertTrue(checks.three_gap_problems([1, 2, 3, 5]))


class HomologyCheckTest(SystemFiles):
    def test_circle_table(self):
        payload = _cli_json(["homology", "--system", str(self.paths["golden"]),
                             "--max-level", "6", "--method", "both"])
        self.assertEqual(checks.circle_homology_problems(payload), [])
        wrong = copy.deepcopy(payload)
        wrong["H3"]["torsion"] = [2, 2]
        self.assertTrue(checks.circle_homology_problems(wrong))
        wrong = copy.deepcopy(payload)
        wrong["provenance"]["delta"] = {"H1": {}}
        self.assertTrue(checks.circle_homology_problems(wrong))
        wrong = copy.deepcopy(payload)
        wrong["provenance"]["freeproduct"]["middleExact"] = False
        self.assertTrue(checks.circle_homology_problems(wrong))

    def test_doubled_table(self):
        payload = _cli_json(["homology", "--system", str(self.paths["golden-doubled"]),
                             "--max-level", "6"])
        self.assertEqual(checks.doubled_homology_problems(payload), [])
        wrong = copy.deepcopy(payload)
        wrong["H1"] = checks.group(0, 1)
        self.assertTrue(checks.doubled_homology_problems(wrong))

    def test_odometer_table(self):
        odd = checks.group(0, 2)
        payload = {
            "H0": {"localization": "Z[1/3]", "multipliers": [3, 3, 3], "primes": [3]},
            "H1": odd, "H2": checks.group(0), "H3": odd, "H4": checks.group(0), "H5": odd,
            "tail": {"odd": odd, "even": checks.group(0), "from": 1},
            "provenance": {"delta": {}, "freeproduct": {"pairedInjective": True,
                                                        "middleExact": True}},
        }
        self.assertEqual(checks.odometer_homology_problems(payload, 3), [])
        self.assertTrue(checks.odometer_homology_problems(payload, 2))
        wrong = copy.deepcopy(payload)
        wrong["H5"]["torsion"] = [2]
        self.assertTrue(checks.odometer_homology_problems(wrong, 3))
        wrong = copy.deepcopy(payload)
        wrong["H0"]["multipliers"] = [3, 9, 3]
        self.assertTrue(checks.odometer_homology_problems(wrong, 3))


class CastleCheckTest(SystemFiles):
    def certificate(self, name: str):
        out = self.workdir / f"{name}.cert.json"
        payload = _cli_json(["certify", "--system", str(self.paths[name]), "--eps", "1/10",
                             "--out", str(out)])
        points = workloads.sample_points(random.Random(1), workloads.SYSTEMS[name])
        return payload, points

    def assert_rejects(self, payload, name, points):
        problems = checks.castle_problems(payload, workloads.SYSTEMS[name], Fraction(1, 10),
                                          points)
        self.assertTrue(problems)

    def test_circle_certificate(self):
        payload, points = self.certificate("golden")
        system = workloads.SYSTEMS["golden"]
        self.assertEqual(checks.castle_problems(payload, system, Fraction(1, 10), points), [])
        # a castle missing a tower covers too little
        wrong = copy.deepcopy(payload)
        del wrong["towers"][0]
        del wrong["shapeRatios"][0]
        self.assert_rejects(wrong, "golden", points)
        # a misstated ratio
        wrong = copy.deepcopy(payload)
        wrong["shapeRatios"][0] = "1/55"
        self.assert_rejects(wrong, "golden", points)
        # a shape one element short
        wrong = copy.deepcopy(payload)
        wrong["towers"][1]["shape"].pop()
        self.assert_rejects(wrong, "golden", points)
        # eps not met
        self.assertTrue(checks.castle_problems(payload, system, Fraction(1, 100), points))

    def test_moved_base_misses_sample_points(self):
        payload, points = self.certificate("golden")
        wrong = copy.deepcopy(payload)
        arcs = wrong["towers"][0]["base"]["arcs"]
        arcs[0]["left"], arcs[0]["right"] = arcs[0]["right"], arcs[0]["left"]
        problems = checks.castle_problems(wrong, workloads.SYSTEMS["golden"], Fraction(1, 10),
                                          points)
        self.assertTrue(any("tower translates" in p or "sum J" in p for p in problems))

    def test_doubled_certificate(self):
        payload, points = self.certificate("golden-doubled")
        system = workloads.SYSTEMS["golden-doubled"]
        self.assertEqual(checks.castle_problems(payload, system, Fraction(1, 10), points), [])
        wrong = copy.deepcopy(payload)
        comps = wrong["towers"][0]["base"]["components"]
        comps[0], comps[1] = comps[1], {"arcs": []}
        self.assert_rejects(wrong, "golden-doubled", points)


class OracleCheckTest(unittest.TestCase):
    def test_oracle_payload(self):
        good = {"seed": 7, "cases": 10, "checked": 30, "mismatches": []}
        self.assertEqual(checks.oracle_problems(good, 7, 10, 2), [])
        self.assertTrue(checks.oracle_problems(dict(good, checked=29), 7, 10, 2))
        self.assertTrue(checks.oracle_problems(dict(good, mismatches=[{"case": 1}]), 7, 10, 2))

    def test_bar_expected_matches_small_modules(self):
        from dihedral_dynamics.homology import bar_homology
        rng = random.Random(3)
        for spec in [("perm", 1, 1), ("diag", 1, 2), ("perm", 2, 0), ("diag", 0, 2)]:
            module = workloads.draw_module(rng, *spec)
            for k in range(4):
                self.assertEqual(bar_homology(module, k).to_json(), checks.bar_expected(*spec, k))

    def test_bar_check_rejects_changed_torsion(self):
        op = workloads._bar_op(random.Random(1))
        right = [[checks.bar_expected(*spec, k) for k in workloads.BAR_DEGREES]
                 for spec in workloads.DRAWN_MODULES]
        self.assertEqual(op.check(json.dumps(right)), [])
        right[0][1]["torsion"].append(2)
        self.assertTrue(op.check(json.dumps(right)))


class LayerTraceTest(SystemFiles):
    def test_patches_every_namespace_and_restores(self):
        from dihedral_dynamics import cli, homology, systems, towers
        before = homology.cover_matrix
        tracer = LayerTrace()
        tracer.install()
        try:
            for fn in (homology.cover_matrix, homology.pullback_matrix, homology.snf_diagonal,
                       homology.kernel_basis, homology.mat_mul, cli.folner_ratio,
                       cli.first_return_castle, cli.almost_finite_certificate,
                       towers.folner_ratio, systems.cover_indices, homology.cover_indices):
                self.assertTrue(hasattr(fn, "__wrapped__"), fn)
        finally:
            tracer.uninstall()
        self.assertIs(homology.cover_matrix, before)
        self.assertFalse(hasattr(systems.ClopenSet.union, "__wrapped__"))

    def test_traced_operation_reports_every_metric(self):
        argv = ["homology", "--system", str(self.paths["golden"]), "--max-level", "6",
                "--method", "both"]
        tracer = LayerTrace()
        tracer.install()
        try:
            code, _ = tracer.call("cli.homology", workloads.run_cli, (argv,))
        finally:
            tracer.uninstall()
        self.assertEqual(code, 0)
        metrics = tracer.layer_metrics(0.0)
        self.assertEqual(list(metrics), list(LAYER_METRICS))
        self.assertGreater(metrics["trace.coverage"], 0.9)
        self.assertGreater(metrics["systems.cover_calls"], 0)
        self.assertGreater(metrics["abgroups.snf_full_calls"], 0)
        self.assertGreater(metrics["systems.cells_rebuild_ratio"], 1)
        self.assertGreater(metrics["homology.table_s"], metrics["homology.telescope_s"])
        names = {span["name"] for span in tracer.spans()}
        self.assertLessEqual({"exact_circle.setop", "systems.matrix", "homology.freeproduct"},
                             names)
        self.assertLessEqual(names, {name for name, *_ in TRACED} | {"cli.homology"})


class PackageLocationTest(unittest.TestCase):
    def test_refuses_a_tree_without_src(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(BENCH, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run([sys.executable, "bench/run.py", "--workload", "homology-circle",
                                  "--seconds", "1"], cwd=tmp, capture_output=True, text=True,
                                 timeout=120)
            self.assertNotEqual(out.returncode, 0)
            self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
