"""Self-test of the benchmark harness at tiny sizes.

Run from the root of a checkout (about a minute on two cores):

    python3 perfbench/selftest.py

It checks that BENCHMARK.json and metrics.py name the same metrics, that
run.py emits every metric with its unit in both trace modes, that span
trees are well formed, that the work counts equal their closed forms,
and that run.py refuses to run outside a checkout.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from activerods import (coefficients, config, full_solver, grids,  # noqa: E402
                        limit_solver)
from worker import run_pass  # noqa: E402


def _run_bench(*extra, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600)


class BenchmarkSpec(unittest.TestCase):

    def test_benchmark_json_matches_metrics(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"),
                  encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOAD_NAMES))
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in spec["end_to_end"]],
                         list(metrics.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in spec["per_layer"]],
                         list(metrics.PER_LAYER))
        self.assertTrue(all(0 < m["bound"] <= 0.25
                            for m in spec["end_to_end"]))
        self.assertIn("setup_s", [m["name"] for m in spec["end_to_end"]])


class EmittedMetrics(unittest.TestCase):
    """run.py end to end at tiny sizes: the last line names every metric
    with its unit, and the run is correct."""

    def _check(self, workload: str, trace: int):
        proc = _run_bench("--workload", workload, "--seed", "3",
                          "--seconds", "1", "--trace", str(trace),
                          "--size", "tiny")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        spec = metrics.PER_LAYER if trace else metrics.END_TO_END
        self.assertEqual(list(result["metrics"]), [n for n, _, _ in spec])
        for name, unit, _ in spec:
            entry = result["metrics"][name]
            self.assertEqual(entry["unit"], unit, name)
            self.assertIsInstance(entry["value"], (int, float), name)
            if not trace:
                self.assertGreater(entry["value"], 0, name)

    def test_every_workload_both_modes(self):
        for workload in run.WORKLOAD_NAMES:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self._check(workload, trace)

    def test_refuses_to_run_outside_a_checkout(self):
        bare = os.path.join(ROOT, ".perfbench", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = _run_bench("--workload", "cli-example", "--seed", "1",
                              "--seconds", "1", "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class Spans(unittest.TestCase):

    def _traced_pass(self, workload):
        wl = workloads.WORKLOADS[workload](3, ROOT, tiny=True)
        wl.setup()
        tracer = spans.Tracer()
        try:
            rec = run_pass(wl, True, tracer, spans.Tracer())
        finally:
            getattr(wl, "close", lambda: None)()
        return wl, rec, tracer

    def test_tree_well_formed_and_self_time_nonnegative(self):
        for workload in run.WORKLOAD_NAMES:
            with self.subTest(workload=workload):
                _, rec, tracer = self._traced_pass(workload)
                self.assertEqual(rec["failed"], 0, rec["problems"])
                self.assertGreater(len(tracer.spans), 0)
                self.assertEqual(spans.check_tree(tracer.spans), [])
                for name, st in spans.aggregate(tracer.spans).items():
                    self.assertGreaterEqual(st["self_s"], -1e-9, name)
                    self.assertLessEqual(st["self_s"], st["s"] + 1e-9, name)

    def test_particle_counts_equal_steps(self):
        wl, rec, _ = self._traced_pass("particle-oracle")
        layers = rec["layers"]
        self.assertEqual(layers["particles.em_step.calls"], wl.STEPS)
        self.assertEqual(layers["particles.particle_steps"],
                         wl.N * wl.STEPS)
        self.assertEqual(rec["particle_steps"], wl.N * wl.STEPS)

    def test_grid_counts_equal_closed_forms(self):
        n_y, n_phi, T, dt = 24, 16, 0.1, 0.03
        params = coefficients.ModelParams(
            epsilon=0.1, D=0.2, T=T,
            V=coefficients.AngularCoefficient("constant", {"value": 1.0}),
            Phi=coefficients.AngularCoefficient("constant", {"value": 0.5}))
        y_grid = grids.build_y_grid(4.0, n_y, 0.8, 12)
        phi_grid = grids.build_phi_grid(n_phi)
        cfg = full_solver.FullSolverConfig(dt=dt, splitting="lie")
        f0 = config.bulk_exp_field(y_grid, phi_grid)
        s0 = limit_solver.BulkWallState(f0, f0.values[0].copy())
        tracer = spans.Tracer()
        tracer.install()
        try:
            full_solver.run_full(f0, params, cfg, [T])
            limit_solver.run_limit(s0, params, cfg, [T])
        finally:
            tracer.uninstall()
        stats = spans.aggregate(tracer.spans)
        steps = math.ceil(T / dt)
        self.assertEqual(stats["full_solver.run_full"]["cell_updates"],
                         n_y * n_phi * steps)
        self.assertEqual(stats["limit_solver.run_limit"]["cell_updates"],
                         n_y * n_phi * steps)
        # Lie splitting: one angular substep per full step and two (bulk
        # and wall) per limit step, each sub-cycled under the CFL bound.
        step_dt = T / steps
        h = phi_grid.h
        rate = 0.5 / h + 2.0 * params.D / h ** 2   # |Phi| = 0.5
        per_call = math.ceil(step_dt * rate / cfg.safety)
        sub = stats["full_solver.phi_substep"]
        self.assertEqual(sub["calls"], 3 * steps)
        self.assertEqual(sub["subcycles"], 3 * steps * per_call)


if __name__ == "__main__":
    unittest.main()
